//! `perfbench`: runs one workload of the benchmark for a time budget and
//! prints its metrics as one JSON object on the last line.
//!
//! ```text
//! perfbench --workload <serve-decode|serve-prefill|collectives>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats the workload (set-up, then the measured phase) until
//! the budget is spent, single-threaded in this one process. Host times
//! are medians of exact samples. Virtual-time results and counts must
//! repeat bit for bit across the repetitions of a run; any drift, failed
//! launch or failed output check makes the run incorrect. With
//! `--trace 0` the object holds the end-to-end metrics; with `--trace 1`
//! untraced and traced repetitions alternate and it holds the per-layer
//! metrics, and the spans are written to `perfbench/out/`.

mod collectives;
mod inputs;
mod serving;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use spans::Spans;
use stats::{lower_quartile, median};

/// End-to-end metrics and their units.
const END_TO_END: [(&str, &str); 9] = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("served_frac", "fraction"),
    ("goodput_rps", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p95_ms", "ms"),
    ("coll_lat_us", "us"),
    ("speedup_vs_nccl", "x"),
    ("speedup_vs_msccl", "x"),
];

/// Per-layer metrics and their units. A metric a workload does not
/// exercise reads 0 there.
const PER_LAYER: [(&str, &str); 39] = [
    ("peak_rss_mb", "MB"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.clamped_past_events", "count"),
    ("hw.moved_bytes", "bytes"),
    ("mscclpp.instrs_per_launch", "count"),
    ("mscclpp.syncs_per_launch", "count"),
    ("mscclpp.proxy_puts_per_launch", "count"),
    ("collective.first_launch_s", "s"),
    ("collective.launch_us", "us"),
    ("collective.allreduce_calls", "count"),
    ("collective.allreduce_s", "s"),
    ("collective.allreduce_virtual_us", "us"),
    ("collective.small_s", "s"),
    ("collective.large_s", "s"),
    ("collective.shape_change_ratio", "fraction"),
    ("commverify.prove_s", "s"),
    ("commverify.findings", "count"),
    ("ncclsim.launch_us", "us"),
    ("ncclsim.first_launch_s", "s"),
    ("msccl.launch_us", "us"),
    ("msccl.first_launch_s", "s"),
    ("inference.self_s", "s"),
    ("inference.steps", "count"),
    ("inference.tokens_per_step", "count"),
    ("inference.decode_time_fraction", "fraction"),
    ("inference.tpot_p50_ms", "ms"),
    ("inference.tpot_p95_ms", "ms"),
    ("inference.admission.admitted", "count"),
    ("inference.admission.shed", "count"),
    ("inference.admission.rejected", "count"),
    ("inference.kv.prefill_skip_ratio", "fraction"),
    ("inference.kv.prefix_hits", "count"),
    ("inference.kv.peak_used", "blocks"),
    ("inference.kv.spilled", "blocks"),
    ("inference.kv.evictions", "count"),
    ("bench.check_s", "s"),
    ("hw.setup_s", "s"),
    ("trace.overhead", "fraction"),
];

/// Spans whose total host time is reported as a per-layer metric.
const SPAN_TOTALS: [(&str, &str); 6] = [
    ("hw.setup", "hw.setup_s"),
    ("collective.first_launch", "collective.first_launch_s"),
    ("ncclsim.first_launch", "ncclsim.first_launch_s"),
    ("msccl.first_launch", "msccl.first_launch_s"),
    ("commverify.prove", "commverify.prove_s"),
    ("bench.check", "bench.check_s"),
];

/// Repetitions a run makes at least, and at most.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 200;
/// The longest `--seconds` accepted. A run starts no repetition after
/// this many seconds, so that it ends well within three minutes.
const MAX_SECONDS: f64 = 120.0;

/// What one repetition of a workload measured.
#[derive(Debug, Default, Clone)]
pub struct Rep {
    /// Host seconds of each set-up made.
    pub setup_s: Vec<f64>,
    /// Host seconds spent in the program's calls in the measured phase.
    pub run_s: f64,
    /// Operations attempted: requests sent, or collective launches.
    pub attempted: u64,
    /// Operations that errored or failed a check, plus failed checks of
    /// the run as a whole.
    pub failed: u64,
    pub problems: Vec<String>,
    /// Virtual-time results and counts: these repeat bit for bit.
    pub exact: BTreeMap<String, f64>,
    /// Host-time layer metrics of a traced repetition.
    pub host: BTreeMap<String, f64>,
}

impl Rep {
    pub fn new(setup_s: Vec<f64>, run_s: f64, attempted: u64) -> Rep {
        Rep {
            setup_s,
            run_s,
            attempted,
            ..Rep::default()
        }
    }

    pub fn fail(&mut self, n: u64, problem: String) {
        self.failed += n;
        self.problems.push(problem);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k[2..].to_string(), v.clone());
            }
            _ => return Err(format!("bad arguments: {argv:?}")),
        }
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing --{k}"));
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= MAX_SECONDS) {
        return Err(format!(
            "--seconds {seconds}: must be above 0 and at most {MAX_SECONDS}"
        ));
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace {t}: expected 0 or 1")),
        },
    })
}

enum Workload {
    Serving(serving::Serving),
    Collectives(collectives::Collectives),
}

impl Workload {
    fn rep(&mut self, spans: Option<&Spans>) -> Rep {
        match self {
            Workload::Serving(s) => s.rep(spans),
            Workload::Collectives(c) => c.rep(spans),
        }
    }
}

/// A memory figure of this process from `/proc/self/status` in MB:
/// `VmHWM:` is the peak resident set, `VmRSS:` the current one.
pub fn rss_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Problems if `rep`'s exact results differ from `first`'s.
fn drift(first: &BTreeMap<String, f64>, rep: &BTreeMap<String, f64>) -> Option<String> {
    let same = first.len() == rep.len()
        && first
            .iter()
            .zip(rep)
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits());
    if same {
        return None;
    }
    let diff: Vec<String> = first
        .iter()
        .filter(|(k, v)| rep.get(*k).map(|r| r.to_bits()) != Some(v.to_bits()))
        .take(5)
        .map(|(k, v)| format!("{k}: {v} vs {:?}", rep.get(k)))
        .collect();
    Some(format!(
        "virtual results drifted between repetitions: {diff:?}"
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut workload = match args.workload.as_str() {
        "serve-decode" => Workload::Serving(serving::decode(args.seed)),
        "serve-prefill" => Workload::Serving(serving::prefill(args.seed)),
        "collectives" => Workload::Collectives(collectives::Collectives::new(args.seed)),
        w => {
            eprintln!("perfbench: unknown workload {w}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let start = Instant::now();
    let mut spans = args.trace.then(Spans::new);
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        // Traced runs alternate untraced and traced repetitions, so the
        // tracing overhead is measured pairwise.
        let trace_this = args.trace && plain.len() > traced.len();
        if trace_this {
            let s = spans.as_mut().expect("tracing");
            s.set_rep(traced.len());
            let mut rep = workload.rep(Some(s));
            span_metrics(&mut rep, s);
            traced.push(rep);
        } else {
            plain.push(workload.rep(None));
        }
        walls.push(t.elapsed().as_secs_f64());
        let n = plain.len() + traced.len();
        let elapsed = start.elapsed().as_secs_f64();
        let min = if args.trace { 2 * MIN_REPS } else { MIN_REPS };
        let done = n >= min && elapsed + median(&walls) > args.seconds;
        if done || n >= MAX_REPS || elapsed > MAX_SECONDS {
            break;
        }
    }
    let peak_rss = rss_mb("VmHWM:");

    // Virtual-time comparisons made once per run, after the repetitions
    // so that they leave the peak memory alone: the AllReduces a serving
    // workload issues on every stack, and the paper's 1 KB 1n8g
    // AllReduce reference point.
    let mut side = Vec::new();
    match &workload {
        Workload::Serving(s) => {
            println!("arrivals: open loop, Poisson, exact instants on the serving clock (generator lateness 0)");
            let t = Instant::now();
            let cmp = s.compare();
            println!(
                "stack comparison over {} AllReduces of {} shapes took {:.2} s",
                cmp.exact.get("compare.calls").copied().unwrap_or(0.0),
                cmp.exact.get("compare.shapes").copied().unwrap_or(0.0),
                t.elapsed().as_secs_f64()
            );
            side.push(cmp);
        }
        Workload::Collectives(c) => {
            let g = c.grid();
            println!(
                "grid: {:?} sizes {:?} bytes on {:?} nodes",
                g.colls, g.sizes, g.nodes
            );
            let p = collectives::probe(hw::EnvKind::A100_40G, 1, &[1024], args.seed);
            let v = |s: &str| {
                p.exact
                    .get(&format!("virt.{s}.allreduce.1n8g.1024"))
                    .copied()
                    .unwrap_or(f64::NAN)
            };
            println!(
                "paper reference, 1 KB AllReduce 1n8g A100-40G, NCCL/MSCCL/MSCCL++: paper ~21/9.5/5.0 us, model {:.2}/{:.2}/{:.2} us; every other grid point is unvalidated",
                v("nccl"),
                v("msccl"),
                v("mscclpp")
            );
            side.push(p);
            side.push(c.baseline_rep().clone());
        }
    }

    // Verdict.
    let mut problems: Vec<String> = Vec::new();
    let all: Vec<&Rep> = plain.iter().chain(&traced).chain(&side).collect();
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = all.iter().map(|r| r.failed).sum();
    for r in &all {
        problems.extend(r.problems.iter().cloned());
    }
    for r in plain.iter().chain(&traced).skip(1) {
        if let Some(p) = drift(&plain[0].exact, &r.exact) {
            failed += 1;
            problems.push(p);
        }
    }

    let run_s: Vec<f64> = plain.iter().map(|r| r.run_s).collect();
    let setup_s: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.setup_s.iter().copied())
        .collect();
    println!(
        "repetitions {} untraced, {} traced",
        plain.len(),
        traced.len()
    );
    println!("run_s samples {run_s:?}");
    println!("setup_s samples {setup_s:?}");
    println!("repetition wall s {walls:?}");

    let exact = &plain[0].exact;
    let virt = match &workload {
        Workload::Serving(_) => &side[0].exact,
        Workload::Collectives(_) => exact,
    };
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    if args.trace {
        let traced_run: Vec<f64> = traced.iter().map(|r| r.run_s).collect();
        for (name, _) in PER_LAYER {
            let host: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.host.get(name).copied())
                .collect();
            let v = if !host.is_empty() {
                median(&host)
            } else {
                exact.get(name).copied().unwrap_or(0.0)
            };
            values.insert(name, v);
        }
        values.insert("peak_rss_mb", peak_rss);
        values.insert("sim.events_per_s", exact["sim.events"] / median(&run_s));
        // Each traced repetition against the untraced one just before
        // it, so slow drift of the host cancels.
        let ratios: Vec<f64> = traced_run.iter().zip(&run_s).map(|(t, u)| t / u).collect();
        values.insert("trace.overhead", median(&ratios) - 1.0);
        if let Some(s) = &spans {
            let path = format!(
                "perfbench/out/spans-{}-seed{}.json",
                args.workload, args.seed
            );
            let written = std::fs::create_dir_all("perfbench/out")
                .and_then(|()| std::fs::write(&path, s.to_json()));
            match written {
                Ok(()) => println!("spans written to {path}"),
                Err(e) => println!("spans not written to {path}: {e}"),
            }
        }
        for r in &traced {
            let selfs: BTreeMap<&String, &f64> = r
                .host
                .iter()
                .filter(|(k, _)| k.starts_with("self."))
                .collect();
            println!("span self times {selfs:?}");
        }
    } else {
        // Contention from other tenants only ever adds host time, so the
        // first quartile of the repetitions is the steadier estimate of
        // the uncontended cost.
        values.insert("run_s", lower_quartile(&run_s));
        values.insert("setup_s", median(&setup_s));
        for (name, _) in END_TO_END.iter().skip(2) {
            let src = if name.starts_with("coll_lat") || name.starts_with("speedup") {
                virt
            } else {
                exact
            };
            values.insert(name, src.get(*name).copied().unwrap_or(f64::NAN));
        }
    }

    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in catalog {
        let v = values[name];
        if !v.is_finite() {
            failed += 1;
            problems.push(format!("metric {name} is not finite"));
        }
        let v = if v.is_finite() { v } else { 0.0 };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    for p in &problems {
        println!("PROBLEM: {p}");
    }
    let correct = problems.is_empty();
    println!("correct {correct} seed {}", args.seed);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Host metrics a traced repetition derives from its spans.
fn span_metrics(rep: &mut Rep, spans: &Spans) {
    let summary = spans.current();
    for (span, metric) in SPAN_TOTALS {
        if let Some(s) = summary.get(span) {
            rep.host.insert(metric.into(), s.1);
        }
    }
    if let Some(s) = summary.get("inference.serve") {
        rep.host.insert("inference.self_s".into(), s.2);
    }
    for (name, (_, _, own)) in summary {
        rep.host.insert(format!("self.{name}"), own);
    }
}
