//! Machine-readable observability reports: runs one collective per stack
//! on a fresh engine, captures the engine's metrics registry (sync
//! counters, per-link byte/busy accounting), and serializes everything as
//! JSON under `results/` — no external dependencies.

use std::fs;
use std::io;
use std::path::Path;

use hw::Machine;
use sim::json::{self, Fixed, Writer};
use sim::Engine;

use crate::{fresh_engine, Algo, Coll, Measure, Runner, Stack, Target};

/// One link/engine resource snapshot in a [`StackRun`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinkStat {
    /// Diagnostic label (`egress r0`, `nic_send r3`, ...).
    pub label: String,
    /// Cumulative busy time in microseconds.
    pub busy_us: f64,
    /// Bytes metered through the link.
    pub bytes: u64,
    /// Number of acquisitions.
    pub acquires: u64,
    /// Cumulative queueing delay in microseconds.
    pub queue_delay_us: f64,
    /// Busy time divided by the run's elapsed time.
    pub utilization: f64,
}

/// One stack's observed collective run: latency plus the full metrics
/// snapshot of the engine that executed it.
#[derive(Debug, Clone, PartialEq)]
pub struct StackRun {
    /// Stack name (`nccl`, `msccl`, `mscclpp`).
    pub stack: String,
    /// Message size in bytes.
    pub bytes: usize,
    /// End-to-end latency in microseconds.
    pub latency_us: f64,
    /// Whether the plan that produced this run passed the `commverify`
    /// static verifier. Always true for runs that completed: every comm
    /// verifies its plan before launch and a finding aborts the run.
    pub verified: bool,
    /// Whether the plan also passed the semantic dataflow pass — the
    /// proof that it computes its declared collective, not merely that
    /// it is transport-safe. Always true for runs that completed: the
    /// semantic pass is on by default in every comm's pre-launch
    /// verification, and a semantic finding aborts the run.
    pub semantics_verified: bool,
    /// Every metrics counter, in name order.
    pub counters: Vec<(String, u64)>,
    /// Per-link accounting (labeled resources only, non-idle first).
    pub links: Vec<LinkStat>,
}

impl StackRun {
    /// Value of one counter (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }
}

/// Snapshots an engine's metrics after a timed run.
pub(crate) fn snapshot(
    stack: &str,
    bytes: usize,
    latency_us: f64,
    engine: &Engine<Machine>,
) -> StackRun {
    let elapsed = latency_us.max(1e-9);
    let links = hw::link_stats(engine)
        .into_iter()
        .map(|s| LinkStat {
            label: s.label,
            busy_us: s.busy.as_us(),
            bytes: s.bytes,
            acquires: s.acquires,
            queue_delay_us: s.queue_delay.as_us(),
            utilization: s.busy.as_us() / elapsed,
        })
        .collect();
    StackRun {
        stack: stack.to_owned(),
        bytes,
        latency_us,
        verified: true,
        semantics_verified: true,
        counters: engine
            .metrics()
            .counters()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
        links,
    }
}

/// Runs a verified AllReduce of `bytes` on each stack and returns one
/// [`StackRun`] per stack (NCCL uses its best tuning candidate; the
/// metrics come from that best run's engine).
pub fn observe_allreduce(t: Target, bytes: usize) -> Vec<StackRun> {
    Stack::ALL
        .iter()
        .map(|&stack| {
            let run = Measure::new(stack, Coll::AllReduce, t, bytes).run();
            snapshot(stack.name(), bytes, run.point.latency_us, &run.engine)
        })
        .collect()
}

/// Runs a **verified** MSCCL++ AllReduce under an active fault plan and
/// snapshots the engine. The plan is installed before any communicator
/// state is built so that proxy retry jitter derives from the plan seed.
/// `algo` forces a specific algorithm (bypassing degradation re-planning);
/// `None` uses the default selection, which re-plans around permanent
/// faults. The output is verified — a latency is only reported when the
/// collective survived the faults with a correct result.
pub fn observe_mscclpp_faulted(
    t: Target,
    bytes: usize,
    plan: sim::FaultPlan,
    algo: Option<collective::AllReduceAlgo>,
) -> StackRun {
    let mut e = fresh_engine(t);
    e.set_fault_plan(plan);
    let m = Measure {
        algo: algo.map(Algo::AllReduce),
        ..Measure::new(Stack::Mscclpp, Coll::AllReduce, t, bytes)
    };
    let mut runner = Runner::new(e, m, None);
    let latency_us = runner.launch();
    snapshot("mscclpp", bytes, latency_us, &runner.engine)
}

/// Version stamped into every JSON artifact this crate writes
/// (`"schema_version"`). Bump when a field is added, removed, or changes
/// meaning, and add a row to `results/README.md`.
pub const SCHEMA_VERSION: u32 = 5;

/// Opens an artifact document with its `title` and `schema_version`;
/// the caller writes the other fields and closes it.
pub fn begin_artifact<'w>(w: &'w mut Writer, title: &str) -> &'w mut Writer {
    w.begin_obj().field("title", title);
    w.field("schema_version", SCHEMA_VERSION)
}

fn write_run(w: &mut Writer, run: &StackRun) {
    w.begin_obj()
        .field("stack", &run.stack)
        .field("bytes", run.bytes);
    w.field("latency_us", Fixed(run.latency_us, 3));
    w.field("verified", run.verified);
    w.field("semantics_verified", run.semantics_verified);
    w.key("counters").begin_obj();
    for (k, v) in &run.counters {
        w.field(k, v);
    }
    w.end_obj().key("links").begin_arr();
    for l in &run.links {
        w.begin_obj().field("label", &l.label);
        w.field("busy_us", Fixed(l.busy_us, 3));
        w.field("bytes", l.bytes).field("acquires", l.acquires);
        w.field("queue_delay_us", Fixed(l.queue_delay_us, 3));
        w.field("utilization", Fixed(l.utilization, 4)).end_obj();
    }
    w.end_arr().end_obj();
}

/// Serializes a set of observed runs as one JSON document.
pub fn runs_to_json(title: &str, t: Target, runs: &[StackRun]) -> String {
    runs_to_json_with_fault(title, t, None, runs)
}

/// Like [`runs_to_json`] but records the fault plan the runs executed
/// under: the header carries `"fault"` — `null` for a healthy run, or
/// `{"seed":…,"summary":"…"}` so a report is reproducible from its JSON
/// alone (same seed + same plan ⇒ bit-identical timings and counters).
pub fn runs_to_json_with_fault(
    title: &str,
    t: Target,
    fault: Option<&sim::FaultPlan>,
    runs: &[StackRun],
) -> String {
    json::render(|w| write_runs(w, title, t, fault, runs)) + "\n"
}

/// Writes [`runs_to_json_with_fault`]'s document into `w`, e.g. as one
/// scenario of a larger artifact.
pub fn write_runs(
    w: &mut Writer,
    title: &str,
    t: Target,
    fault: Option<&sim::FaultPlan>,
    runs: &[StackRun],
) {
    begin_artifact(w, title).field("environment", &t.env.spec(t.nodes).name);
    w.field("nodes", t.nodes)
        .field("world", t.world())
        .key("fault");
    match fault {
        None => w.value(None::<u64>),
        Some(p) => {
            w.begin_obj().field("seed", p.seed);
            w.field("summary", p.summary()).end_obj()
        }
    };
    w.key("runs").begin_arr();
    for run in runs {
        write_run(w, run);
    }
    w.end_arr().end_obj();
}

/// The directory benchmark artifacts are written to: `$RESULTS_DIR` when
/// set (CI points this at a per-job upload directory), `results/`
/// otherwise.
pub fn results_dir() -> std::path::PathBuf {
    std::env::var_os("RESULTS_DIR").map_or_else(|| Path::new("results").to_path_buf(), Into::into)
}

/// Writes `json` to `<results_dir>/<name>` (creating the directory if
/// needed) and returns the path written.
pub fn write_results_json(name: &str, json: &str) -> io::Result<std::path::PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    fs::write(&path, json)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hw::EnvKind;

    #[test]
    fn observed_runs_carry_counters_and_links() {
        let t = Target {
            env: EnvKind::A100_40G,
            nodes: 1,
        };
        let runs = observe_allreduce(t, 4096);
        assert_eq!(runs.len(), 3);
        for run in &runs {
            assert!(run.latency_us > 0.0, "{}", run.stack);
            assert!(run.verified, "{}: plan was not verified", run.stack);
            assert!(
                run.semantics_verified,
                "{}: plan was not semantically verified",
                run.stack
            );
            assert!(run.counter("sync.waits") > 0, "{}", run.stack);
            assert!(
                run.links.iter().any(|l| l.bytes > 0),
                "{}: no link carried bytes",
                run.stack
            );
        }
        // Emitted-mix attribution: each engine only saw its own stack.
        assert!(runs[0].counter("nccl.raw_put") > 0);
        assert!(!runs[0]
            .counters
            .iter()
            .any(|(k, _)| k.starts_with("mscclpp.")));
        assert!(runs[2]
            .counters
            .iter()
            .any(|(k, _)| k.starts_with("mscclpp.")));
    }

    #[test]
    fn json_round_trip_is_wellformed_enough() {
        let t = Target {
            env: EnvKind::A100_40G,
            nodes: 1,
        };
        let runs = observe_allreduce(t, 1024);
        let json = runs_to_json("smoke", t, &runs);
        json::parse(&json).unwrap();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"stack\":").count(), 3);
        assert_eq!(json.matches("\"verified\":true").count(), 3);
        assert_eq!(json.matches("\"semantics_verified\":true").count(), 3);
        assert!(json.contains("\"sync.waits\":"));
        assert!(json.contains("\"label\":\"egress r0\""));
        assert!(json.contains("\"fault\":null"), "healthy header: {json}");
        let plan = sim::FaultPlan::new(3).link_down_forever(0, 1, sim::Time::ZERO);
        json::parse(&runs_to_json_with_fault("smoke", t, Some(&plan), &runs)).unwrap();
    }

    #[test]
    fn faulted_run_retries_and_reports_the_plan() {
        let t = Target {
            env: EnvKind::A100_40G,
            nodes: 1,
        };
        // Flap every NVLink path for 20 us early in the run: the proxies
        // must retry, and the result must still verify.
        let mut plan = sim::FaultPlan::new(11);
        for dst in 1..8 {
            plan = plan.link_flap(
                0,
                dst,
                sim::Time::from_ps(2_000_000),
                sim::Time::from_ps(22_000_000),
            );
        }
        let run = observe_mscclpp_faulted(
            t,
            1 << 20,
            plan.clone(),
            Some(collective::AllReduceAlgo::TwoPhasePort),
        );
        assert!(
            run.counter("retry.attempts") > 0,
            "flap never hit a proxy: {:?}",
            run.counters
        );
        let json = runs_to_json_with_fault("chaos", t, Some(&plan), &[run]);
        let doc = json::parse(&json).unwrap();
        let summary = doc.get("fault").and_then(|f| f.get("summary"));
        assert_eq!(
            summary.and_then(json::Value::as_str),
            Some(&*plan.summary())
        );
        assert!(json.contains("\"fault\":{\"seed\":11,"), "{json}");
        assert!(json.contains("link 0<->1 down"), "{json}");
    }
}
