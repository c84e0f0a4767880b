//! The perf-regression gate: a pinned benchmark suite, per-case
//! percentiles over exact integer-nanosecond samples, a JSON artifact
//! format, and the comparison against a committed baseline. The
//! `perf_gate` binary drives this from CI.
//!
//! Every case records the [`sim::Engine::schedule_digest`] of the engine
//! it ran. The simulator is deterministic, so a case that measures
//! virtual time must reproduce its baseline entry exactly: the digest
//! and every number as the artifact writes it. Any difference, even a
//! retuned overhead constant, fails the gate until the baseline is
//! rewritten along with the change. A case that measures host
//! wall-clock must match its digest exactly too; its median is held
//! within one band, [`WALL_TOL`], because the host is noisy.

use inference::LatencyStats;
use sim::json::{self, Fixed, Scalar, Value};

use crate::{Coll, Measure, NcclPolicy, Runner, Stack, Target};
use hw::EnvKind;

/// One pinned suite entry.
#[derive(Debug, Clone, PartialEq)]
pub enum Case {
    /// A collective micro-benchmark.
    Collective {
        /// The collective.
        coll: Coll,
        /// The stack running it.
        stack: Stack,
        /// Environment + nodes.
        target: Target,
        /// Message bytes (per-rank chunk for AllGather).
        bytes: usize,
    },
    /// The end-to-end serving scenario (request latency percentiles).
    Serving,
    /// SLO-aware serving at 2× the knee arrival rate: TTFT percentiles
    /// of the admitted requests, with goodput (SLO-met completions/sec)
    /// in `eps`. Pins the admission policy's overload behavior — a
    /// regression here means the knee moved or shedding stopped
    /// protecting admitted requests' deadlines.
    ServingGoodput,
    /// An engine-throughput case: wall-clock events/sec of the DES core
    /// itself, measured on a small-message AllReduce where scheduler
    /// cost dominates data movement. Gates the simulator's own speed.
    EngineThroughput {
        /// Environment + nodes (8 ranks/node).
        target: Target,
        /// Message bytes (small, so engine cost dominates).
        bytes: usize,
    },
    /// A verifier-scalability case: host wall-clock of one full static
    /// verification (happens-before construction, race scan, and the
    /// semantic dataflow pass) over a large hierarchical AllReduce plan.
    /// Gates the prover's own speed on big worlds — verification is
    /// default-on in every comm, so a slow verifier taxes every first
    /// launch.
    SemanticVerify {
        /// Environment + nodes (8 ranks/node).
        target: Target,
        /// Message bytes.
        bytes: usize,
    },
    /// Post-recovery steady state: a multi-node world loses one rank
    /// mid-AllReduce, shrinks, and then runs AllReduce on the survivor
    /// group's rebuilt hierarchical (leader-relay) plan. Gates the
    /// recovery path's plan quality — a regression here means shrunken
    /// epochs got slower even though the healthy path is unchanged.
    ShrunkenAllReduce {
        /// Environment + nodes (8 ranks/node; one rank dies).
        target: Target,
        /// Message bytes.
        bytes: usize,
    },
    /// Observability overhead: host wall-clock of the pinned 2×-knee
    /// serving scenario run bare (request tracing and telemetry off)
    /// versus fully instrumented (per-request tracing on, 500 µs
    /// telemetry sampler), interleaved on the same host. Pins the
    /// sampler+rtrace cost at ≤ 5 % of the bare median — observability
    /// must stay cheap enough to leave on by default.
    ServingObservability,
}

impl Case {
    /// Stable case name used as the baseline join key.
    pub fn name(&self) -> String {
        match self {
            Case::Collective {
                coll,
                stack,
                target,
                bytes,
            } => {
                let c = match coll {
                    Coll::AllReduce => "allreduce",
                    Coll::AllGather => "allgather",
                };
                format!(
                    "{c}/{}/{:?}/{}/{}B",
                    stack.name(),
                    target.env,
                    target.label(),
                    bytes
                )
            }
            Case::Serving => "serving/mscclpp/A100_80G/llama2-13b".to_owned(),
            Case::ServingGoodput => {
                "serving-goodput/mscclpp/A100_80G/llama2-13b/2x-knee".to_owned()
            }
            Case::EngineThroughput { target, bytes } => {
                format!(
                    "engine/allreduce/{:?}/{}/{}B",
                    target.env,
                    target.label(),
                    bytes
                )
            }
            Case::SemanticVerify { target, bytes } => {
                format!(
                    "commverify/allreduce/{:?}/{}/{}B",
                    target.env,
                    target.label(),
                    bytes
                )
            }
            Case::ShrunkenAllReduce { target, bytes } => {
                format!(
                    "shrunken-allreduce/mscclpp/{:?}/{}/{}B",
                    target.env,
                    target.label(),
                    bytes
                )
            }
            Case::ServingObservability => {
                "serving-observability/mscclpp/A100_80G/llama2-13b/2x-knee".to_owned()
            }
        }
    }

    /// Whether this case measures host wall-clock rather than simulated
    /// latency. [`compare`] holds a wall-clock median within [`WALL_TOL`]
    /// and every other number exactly.
    pub fn is_wall_clock(&self) -> bool {
        matches!(
            self,
            Case::EngineThroughput { .. }
                | Case::SemanticVerify { .. }
                | Case::ServingObservability
        )
    }
}

/// The pinned suite: AllReduce/AllGather × stacks × sizes on the A100
/// and H100 topologies, plus one serving scenario. Append new cases;
/// never re-order or rename existing ones (names are baseline keys).
pub fn pinned_suite() -> Vec<Case> {
    let a100 = Target {
        env: EnvKind::A100_40G,
        nodes: 1,
    };
    let h100 = Target {
        env: EnvKind::H100,
        nodes: 1,
    };
    let mut cases = Vec::new();
    for &stack in &[Stack::Nccl, Stack::Msccl, Stack::Mscclpp] {
        for &coll in &[Coll::AllReduce, Coll::AllGather] {
            for &bytes in &[32 << 10, 1 << 20] {
                cases.push(Case::Collective {
                    coll,
                    stack,
                    target: a100,
                    bytes,
                });
            }
        }
    }
    for &stack in &[Stack::Nccl, Stack::Mscclpp] {
        for &coll in &[Coll::AllReduce, Coll::AllGather] {
            cases.push(Case::Collective {
                coll,
                stack,
                target: h100,
                bytes: 1 << 20,
            });
        }
    }
    cases.push(Case::Serving);
    // Engine-throughput cases (events/sec of the DES core): a pinned
    // 8-rank AllReduce and a pinned 64-rank hierarchical plan, both at
    // 1 KB so scheduler cost dominates data movement.
    cases.push(Case::EngineThroughput {
        target: a100,
        bytes: 1 << 10,
    });
    cases.push(Case::EngineThroughput {
        target: Target {
            env: EnvKind::A100_40G,
            nodes: 8,
        },
        bytes: 1 << 10,
    });
    // Verifier scalability: one full verification (HB + races + the
    // semantic dataflow pass) of a 64-rank hierarchical AllReduce plan,
    // measured in host wall-clock.
    cases.push(Case::SemanticVerify {
        target: Target {
            env: EnvKind::A100_40G,
            nodes: 8,
        },
        bytes: 1 << 10,
    });
    // Post-recovery steady state on a two-node survivor group (one rank
    // lost): pins the shrunken hierarchical plan's latency.
    cases.push(Case::ShrunkenAllReduce {
        target: Target {
            env: EnvKind::A100_40G,
            nodes: 2,
        },
        bytes: 1 << 20,
    });
    // Goodput at 2× the knee arrival rate under SLO-aware admission:
    // pins where the knee sits and that shedding keeps admitted
    // requests inside their TTFT budget.
    cases.push(Case::ServingGoodput);
    // Observability overhead on the same 2×-knee scenario: request
    // tracing + telemetry sampling must cost ≤ 5 % host wall-clock.
    cases.push(Case::ServingObservability);
    cases
}

/// Iterations per case: collective launches on one warm engine, timed
/// wall-clock repetitions, or interleaved bare/instrumented serving pairs.
pub const ITERS: usize = 3;

/// The band on a wall-clock case's median, as a fraction of the
/// baseline's: wide, because shared CI runners are noisy. A
/// calendar-queue regression that halves throughput still trips it.
pub const WALL_TOL: f64 = 0.60;

/// Version of the perf-gate artifact. It moved on alone when cases
/// gained `digest`; the other artifacts stay at
/// [`crate::report::SCHEMA_VERSION`].
pub const SCHEMA_VERSION: u32 = 6;

/// Measured percentiles for one case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseResult {
    /// The case's stable name.
    pub name: String,
    /// Samples folded into the percentiles.
    pub samples: u64,
    /// Median latency (µs).
    pub p50_us: f64,
    /// 95th-percentile latency (µs).
    pub p95_us: f64,
    /// 99th-percentile latency (µs).
    pub p99_us: f64,
    /// Exact maximum (µs).
    pub max_us: f64,
    /// Mean (µs).
    pub mean_us: f64,
    /// The case's auxiliary rate metric: engine events per second for
    /// engine-throughput cases, goodput (SLO-met completions/sec) for
    /// the 2×-knee serving case, measured overhead in percent for the
    /// observability case; 0 elsewhere.
    pub eps: f64,
    /// [`sim::Engine::schedule_digest`] of the case's engine after its
    /// last iteration. Cases that build an engine per run record the
    /// first run's, and check that the others agree.
    pub digest: u64,
    /// Whether the numbers are host wall-clock ([`Case::is_wall_clock`]).
    /// Not written to the artifact; [`parse_results`] reads `false`.
    pub wall_clock: bool,
    /// Why the case fails whatever its baseline says: events its engines
    /// scheduled in the past and clamped to their clock
    /// ([`sim::Engine::clamped_past_events`]), or an observability
    /// overhead over budget. `perf_gate` reports them by name after the
    /// artifact is written. Not written to the artifact.
    pub failures: Vec<String>,
}

impl CaseResult {
    /// A result over exact integer-nanosecond samples. The percentiles
    /// are nearest-rank: the `ceil(q * n)`-th smallest sample.
    fn from_ns(case: &Case, mut ns: Vec<u64>, digest: u64) -> CaseResult {
        ns.sort_unstable();
        let n = ns.len();
        let at = |q: f64| ns[((q * n as f64).ceil() as usize).clamp(1, n) - 1] as f64 / 1e3;
        let mean_us = ns.iter().sum::<u64>() as f64 / n as f64 / 1e3;
        let lat = LatencyStats {
            p50_us: at(0.50),
            p95_us: at(0.95),
            p99_us: at(0.99),
            max_us: at(1.0),
        };
        CaseResult::from_stats(case, n, &lat, mean_us, digest)
    }

    /// A result carrying a serving report's latency distribution.
    fn from_stats(
        case: &Case,
        samples: usize,
        lat: &LatencyStats,
        mean_us: f64,
        digest: u64,
    ) -> CaseResult {
        CaseResult {
            name: case.name(),
            samples: samples as u64,
            p50_us: lat.p50_us,
            p95_us: lat.p95_us,
            p99_us: lat.p99_us,
            max_us: lat.max_us,
            mean_us,
            eps: 0.0,
            digest,
            wall_clock: case.is_wall_clock(),
            failures: Vec::new(),
        }
    }

    /// The float fields in artifact order, with their decimals.
    fn floats(&self) -> [(&'static str, Fixed); 6] {
        [
            ("p50_us", Fixed(self.p50_us, 3)),
            ("p95_us", Fixed(self.p95_us, 3)),
            ("p99_us", Fixed(self.p99_us, 3)),
            ("max_us", Fixed(self.max_us, 3)),
            ("mean_us", Fixed(self.mean_us, 3)),
            ("eps", Fixed(self.eps, 1)),
        ]
    }
}

/// Runs one case for [`ITERS`] iterations (collectives re-run on the
/// same warm engine; every sample is one iteration's latency in ns).
pub fn run_case(case: &Case) -> CaseResult {
    let (mut r, clamped) = match case {
        Case::Collective {
            coll,
            stack,
            target,
            bytes,
        } => {
            // NCCL launches at its tuner's choice, the only one `Tuned`
            // gives; every launch is verified.
            let m = Measure {
                nccl: NcclPolicy::Tuned,
                ..Measure::new(*stack, *coll, *target, *bytes)
            };
            let mut runner = Runner::new(crate::fresh_engine(m.target), m, m.choices()[0]);
            let ns = (0..ITERS)
                .map(|_| (runner.launch() * 1e3).round() as u64)
                .collect();
            let e = &runner.engine;
            let r = CaseResult::from_ns(case, ns, e.schedule_digest());
            (r, e.clamped_past_events())
        }
        Case::Serving => {
            let mut engine = inference::ServingEngine::new(
                EnvKind::A100_80G,
                inference::ModelConfig::llama2_13b(),
                16 * 1024,
            );
            let backend = inference::MscclppBackend::new();
            let trace = inference::synthetic_trace(6, 128, 24, 5_000.0, 3);
            let report =
                inference::serve_trace(&mut engine, &backend, &trace, 8).expect("serving run");
            let e = engine.engine_mut();
            let r = CaseResult::from_stats(
                case,
                report.completed,
                &report.request_latency,
                report.mean_latency_us,
                e.schedule_digest(),
            );
            (r, e.clamped_past_events())
        }
        Case::ServingGoodput => {
            // The same 2×-knee overload the serving test suite pins:
            // ~77 req/s service rate at batch 8, knee ≈ 14 ms mean
            // interarrival, overload at 7 ms. Deterministic (virtual
            // time + seeded admission), so every field is bit-stable.
            let mut engine = inference::ServingEngine::new(
                EnvKind::A100_80G,
                inference::ModelConfig::llama2_13b(),
                16 * 1024,
            );
            let backend = inference::MscclppBackend::new();
            let trace = inference::synthetic_trace(40, 96, 12, 7_000.0, 9);
            let mut cfg =
                inference::ServeConfig::slo_aware(8, inference::SloSpec::new(100_000.0, 12_000.0));
            cfg.admission.max_queue_depth = 5;
            cfg.seed = 9;
            let report = inference::serve_trace_with(&mut engine, &backend, &trace, &cfg)
                .expect("serving goodput run");
            assert_eq!(
                report.completed
                    + report.shed
                    + report.rejected
                    + report.timed_out
                    + report.evicted,
                trace.len(),
                "serving-goodput gate case lost a request: {report:?}"
            );
            assert!(report.goodput > 0.0, "overload run must keep goodput");
            assert!(report.kv.balances(), "KV accounting out of balance");
            let e = engine.engine_mut();
            let r = CaseResult {
                eps: report.goodput,
                ..CaseResult::from_stats(
                    case,
                    report.slo_met,
                    &report.ttft,
                    report.mean_latency_us,
                    e.schedule_digest(),
                )
            };
            (r, e.clamped_past_events())
        }
        Case::EngineThroughput { target, bytes } => run_engine_throughput(case, *target, *bytes),
        Case::SemanticVerify { target, bytes } => run_semantic_verify(case, *target, *bytes),
        Case::ShrunkenAllReduce { target, bytes } => run_shrunken_allreduce(case, *target, *bytes),
        Case::ServingObservability => run_serving_observability(case),
    };
    if clamped > 0 {
        r.failures
            .push(format!("{clamped} event(s) scheduled in the past"));
    }
    r
}

/// Runs the pinned 2×-knee serving scenario bare and instrumented,
/// interleaved [`ITERS`] times after one untimed warmup pair. The result
/// holds the instrumented wall-clock samples (ns), the median overhead
/// in percent as `eps`, and a failure if the instrumented median exceeds
/// the bare median by more than 5 % (plus 200 µs of absolute timer
/// slack). Also returns the clamped past events summed over every run.
/// Panics if instrumentation perturbs the simulation (report or schedule
/// digest), or if any recorded timeline's blame buckets fail to tile its
/// end-to-end latency exactly.
fn run_serving_observability(case: &Case) -> (CaseResult, u64) {
    use inference::{ObserveConfig, TelemetryConfig};

    let run = |observe: ObserveConfig| {
        let mut engine = inference::ServingEngine::new(
            EnvKind::A100_80G,
            inference::ModelConfig::llama2_13b(),
            16 * 1024,
        );
        let backend = inference::MscclppBackend::new();
        let trace = inference::synthetic_trace(40, 96, 12, 7_000.0, 9);
        let mut cfg =
            inference::ServeConfig::slo_aware(8, inference::SloSpec::new(100_000.0, 12_000.0));
        cfg.admission.max_queue_depth = 5;
        cfg.seed = 9;
        cfg.observe = observe;
        let t0 = std::time::Instant::now();
        let (report, obs) = inference::serve_trace_observed(&mut engine, &backend, &trace, &cfg)
            .expect("serving observability run");
        let ns = t0.elapsed().as_nanos() as u64;
        let e = engine.engine_mut();
        let (digest, clamped) = (e.schedule_digest(), e.clamped_past_events());
        (ns, report, obs, trace.len(), digest, clamped)
    };
    let bare = ObserveConfig {
        rtrace: false,
        telemetry: None,
    };
    let full = ObserveConfig {
        rtrace: true,
        telemetry: Some(TelemetryConfig::new(500.0, 4096)),
    };

    // Warmup pair (untimed): absorbs first-touch allocation and fills
    // caches; also the one place the instrumented output is validated.
    let (_, base_report, _, _, digest, mut clamped) = run(bare);
    let (_, mut report, obs, requests, full_digest, c) = run(full);
    clamped += c;
    // The exemplar ring only exists when tracing is on; everything else
    // must be bit-identical — observability cannot perturb the run.
    report.worst_misses.clear();
    assert_eq!(
        (report, full_digest),
        (base_report, digest),
        "observability must not perturb the simulation"
    );
    assert_eq!(
        obs.timelines.len(),
        requests,
        "every request that reached the door gets a timeline"
    );
    for tl in &obs.timelines {
        assert!(
            tl.tiles_exactly(),
            "request {} blame does not tile its latency",
            tl.id
        );
    }
    let sampler = obs.telemetry.as_ref().expect("sampler configured");
    assert!(!sampler.is_empty(), "sampler never fired");

    let mut bare_ns = Vec::with_capacity(ITERS);
    let mut full_ns = Vec::with_capacity(ITERS);
    for _ in 0..ITERS {
        let (ns, .., c) = run(bare);
        bare_ns.push(ns);
        clamped += c;
        let (ns, .., c) = run(full);
        full_ns.push(ns);
        clamped += c;
    }
    bare_ns.sort_unstable();
    full_ns.sort_unstable();
    let (bare_med, full_med) = (bare_ns[ITERS / 2] as f64, full_ns[ITERS / 2] as f64);
    let mut r = CaseResult::from_ns(case, full_ns, digest);
    r.eps = (full_med - bare_med).max(0.0) / bare_med * 100.0;
    if full_med > bare_med * 1.05 + 200_000.0 {
        r.failures.push(format!(
            "observability overhead over budget: bare {bare_med:.0} ns, instrumented {full_med:.0} ns"
        ));
    }
    (r, clamped)
}

/// Kills one rank mid-AllReduce, shrinks, and then times [`ITERS`]
/// steady-state launches on the survivor group's rebuilt plan. The
/// timed iterations exclude the recovery itself — that latency is
/// covered by the `recovery_sweep` artifact; this case pins the
/// *post-recovery* epoch's launch latency. Also returns the engine's
/// clamped past events.
fn run_shrunken_allreduce(case: &Case, target: Target, bytes: usize) -> (CaseResult, u64) {
    use hw::{BufferId, DataType, Rank, ReduceOp};
    use sim::{Duration, FaultPlan, Time};
    let world = target.world();
    let count = bytes / 2;
    let mut e = sim::Engine::new(hw::Machine::new(target.env.spec(target.nodes)));
    // The detection timeout must exceed the shrunken leader-relay plan's
    // longest legitimate wait, or healthy post-recovery launches read as
    // further deaths.
    e.set_fault_plan(
        FaultPlan::new(7)
            .rank_down(3, Time::from_ps(20_000_000))
            .with_wait_timeout(Duration::from_us(2_000.0)),
    );
    hw::wire(&mut e);
    let ins = crate::alloc_filled(&mut e, world, bytes);
    let outs: Vec<BufferId> = (0..world)
        .map(|r| e.world_mut().pool_mut().alloc(Rank(r), bytes))
        .collect();
    let comm = collective::CollComm::new();
    comm.all_reduce(&mut e, &ins, &outs, count, DataType::F16, ReduceOp::Sum)
        .expect_err("the scheduled death must interrupt the collective");
    let recovery = comm.shrink(&mut e, &[]).expect("shrink");
    assert_eq!(
        recovery.outcome,
        collective::RecoveryOutcome::Replayed,
        "shrunken-allreduce gate case"
    );
    assert_eq!(recovery.group.len(), world - 1);
    let ns = (0..ITERS)
        .map(|_| {
            let timing = comm
                .all_reduce(&mut e, &ins, &outs, count, DataType::F16, ReduceOp::Sum)
                .expect("shrunken steady-state launch");
            (timing.elapsed().as_us() * 1e3).round() as u64
        })
        .collect();
    let r = CaseResult::from_ns(case, ns, e.schedule_digest());
    (r, e.clamped_past_events())
}

/// Times the full static verifier — happens-before graph, race scan,
/// and the semantic dataflow pass against the plan's [`commverify::CollectiveSpec`]
/// — over a hierarchical AllReduce plan compiled once. Each iteration is
/// one cold verification (the verifier keeps no cross-run state), so the
/// samples are pure prover wall-clock. Also returns the engine's clamped
/// past events.
fn run_semantic_verify(case: &Case, target: Target, bytes: usize) -> (CaseResult, u64) {
    use hw::{BufferId, DataType, Rank, ReduceOp};
    let world = target.world();
    let count = bytes / 2;
    let mut e = crate::fresh_engine(target);
    let ins = crate::alloc_filled(&mut e, world, bytes);
    let outs: Vec<BufferId> = (0..world)
        .map(|r| e.world_mut().pool_mut().alloc(Rank(r), bytes))
        .collect();
    let comm = collective::CollComm::new();
    let (kernels, spec) = comm
        .plan_all_reduce_with(
            &mut e,
            &ins,
            &outs,
            count,
            DataType::F16,
            ReduceOp::Sum,
            collective::AllReduceAlgo::HierHb,
        )
        .expect("semantic-verify gate plan");
    let checks = commverify::Checks::all();
    let ns = (0..ITERS)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let report = commverify::analyze_collective(&kernels, e.world().pool(), &checks, &spec);
            let ns = t0.elapsed().as_nanos() as u64;
            assert!(
                report.is_clean(),
                "semantic-verify gate case must verify clean: {report}"
            );
            ns
        })
        .collect();
    let r = CaseResult::from_ns(case, ns, e.schedule_digest());
    (r, e.clamped_past_events())
}

/// Measures DES-core throughput: repeated small-message AllReduce on one
/// warm engine, recording per-iteration host wall time (ns) and the
/// aggregate events/sec over all iterations. The event count is
/// deterministic, so eps varies only with host speed and engine cost.
///
/// Steady-state methodology: input buffers are allocated, filled, and
/// registered once — re-registering buffers per call is exactly the
/// anti-pattern the paper argues against — so the timed loop measures
/// only launch + simulation cost. An untimed warmup launch prepares and
/// verifies the plan and absorbs first-touch allocation. Also returns the
/// engine's clamped past events.
fn run_engine_throughput(case: &Case, target: Target, bytes: usize) -> (CaseResult, u64) {
    use hw::{BufferId, DataType, Rank, ReduceOp};
    let world = target.world();
    let count = bytes / 2;
    let mut e = crate::fresh_engine(target);
    let outs: Vec<BufferId> = (0..world)
        .map(|r| e.world_mut().pool_mut().alloc(Rank(r), bytes))
        .collect();
    let comm = collective::CollComm::new();
    let ins = crate::alloc_filled(&mut e, world, bytes);
    comm.all_reduce(&mut e, &ins, &outs, count, DataType::F16, ReduceOp::Sum)
        .expect("engine throughput warmup");
    let ev0 = e.events_processed();
    let t0 = std::time::Instant::now();
    let ns = (0..ITERS)
        .map(|_| {
            let it0 = std::time::Instant::now();
            comm.all_reduce(&mut e, &ins, &outs, count, DataType::F16, ReduceOp::Sum)
                .expect("engine throughput case");
            it0.elapsed().as_nanos() as u64
        })
        .collect();
    let wall = t0.elapsed().as_secs_f64();
    let events = e.events_processed() - ev0;
    crate::verify_allreduce(&e, &outs, bytes, world, "engine");
    let r = CaseResult {
        eps: events as f64 / wall.max(1e-9),
        ..CaseResult::from_ns(case, ns, e.schedule_digest())
    };
    (r, e.clamped_past_events())
}

/// A digest as the artifact writes it.
fn hex(digest: u64) -> String {
    format!("0x{digest:016x}")
}

/// Serializes gate results as the `BENCH_<date>.json` artifact.
pub fn results_to_json(date: &str, results: &[CaseResult]) -> String {
    // Every case plans through a comm whose pre-launch verification runs
    // the semantic dataflow pass by default, and the `commverify/` wall
    // case re-asserts a clean report each iteration — a finding anywhere
    // aborts the gate, so a written artifact always carries `true`.
    json::render(|w| {
        w.begin_obj().field("title", "perf_gate");
        w.field("schema_version", SCHEMA_VERSION)
            .field("date", date);
        w.field("iters", ITERS).field("semantics_verified", true);
        w.key("cases").begin_arr();
        for r in results {
            w.begin_obj().field("name", &r.name);
            w.field("samples", r.samples);
            w.field("digest", hex(r.digest));
            for (key, v) in r.floats() {
                w.field(key, v);
            }
            w.end_obj();
        }
        w.end_arr().end_obj();
    }) + "\n"
}

/// Reads an artifact written by [`results_to_json`]. Unknown fields are
/// ignored; every case must carry a name, its digest and all seven
/// numbers.
///
/// # Errors
///
/// A message naming the byte offset where the document stops being JSON
/// (e.g. a truncated or empty file), or the case missing a field.
pub fn parse_results(src: &str) -> Result<Vec<CaseResult>, String> {
    let doc = json::parse(src).map_err(|e| e.to_string())?;
    let case = |c: &Value| {
        let num = |key| c.get(key)?.as_f64();
        let digest = c.get("digest")?.as_str()?.strip_prefix("0x")?;
        Some(CaseResult {
            name: c.get("name")?.as_str()?.to_owned(),
            samples: c.get("samples")?.as_u64()?,
            p50_us: num("p50_us")?,
            p95_us: num("p95_us")?,
            p99_us: num("p99_us")?,
            max_us: num("max_us")?,
            mean_us: num("mean_us")?,
            eps: num("eps")?,
            digest: u64::from_str_radix(digest, 16).ok()?,
            wall_clock: false,
            failures: Vec::new(),
        })
    };
    let cases = doc.get("cases").and_then(Value::as_array);
    let cases = cases.ok_or("no `cases` array")?.iter().enumerate();
    cases
        .map(|(i, c)| case(c).ok_or(format!("case {i} lacks a field")))
        .collect()
}

/// One baseline comparison outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Identical to the baseline (within [`WALL_TOL`] on a wall-clock
    /// median).
    Ok,
    /// A field differs from the baseline's as the artifact writes it:
    /// the digest or sample count of any case, or any number of a
    /// virtual-time case. Fails the gate.
    Changed {
        /// The artifact field.
        field: &'static str,
        /// The baseline's value.
        base: String,
        /// The measured value.
        new: String,
    },
    /// A wall-clock median slower than the baseline's beyond
    /// [`WALL_TOL`] — fails the gate.
    Regression {
        /// Baseline median (µs).
        base_p50_us: f64,
        /// Measured median (µs).
        new_p50_us: f64,
    },
    /// A wall-clock median faster than the baseline's beyond
    /// [`WALL_TOL`] — passes, but the baseline deserves a refresh.
    Improvement {
        /// Baseline median (µs).
        base_p50_us: f64,
        /// Measured median (µs).
        new_p50_us: f64,
    },
    /// No baseline entry for this case (newly added).
    New,
}

/// Compares measured results against a baseline: exactly, except for a
/// wall-clock case's median, which must stay within [`WALL_TOL`] of the
/// baseline's.
pub fn compare(results: &[CaseResult], baseline: &[CaseResult]) -> Vec<(String, Verdict)> {
    let text = |v: &dyn Scalar| {
        let mut s = String::new();
        v.write(&mut s);
        s
    };
    let verdict = |r: &CaseResult, b: &CaseResult| {
        let mut fields = vec![
            ("samples", text(&b.samples), text(&r.samples)),
            ("digest", hex(b.digest), hex(r.digest)),
        ];
        if !r.wall_clock {
            let floats = b.floats().into_iter().zip(r.floats());
            fields.extend(floats.map(|((k, b), (_, r))| (k, text(&b), text(&r))));
        }
        if let Some((field, base, new)) = fields.into_iter().find(|(_, b, r)| b != r) {
            return Verdict::Changed { field, base, new };
        }
        let (base_p50_us, new_p50_us) = (b.p50_us, r.p50_us);
        if !r.wall_clock {
            Verdict::Ok
        } else if new_p50_us > base_p50_us * (1.0 + WALL_TOL) {
            Verdict::Regression {
                base_p50_us,
                new_p50_us,
            }
        } else if new_p50_us < base_p50_us * (1.0 - WALL_TOL) {
            Verdict::Improvement {
                base_p50_us,
                new_p50_us,
            }
        } else {
            Verdict::Ok
        }
    };
    results
        .iter()
        .map(|r| {
            let v = match baseline.iter().find(|b| b.name == r.name) {
                None => Verdict::New,
                Some(b) => verdict(r, b),
            };
            (r.name.clone(), v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(name: &str, p50: f64) -> CaseResult {
        CaseResult {
            name: name.to_owned(),
            samples: 3,
            p50_us: p50,
            p95_us: p50 * 1.1,
            p99_us: p50 * 1.2,
            max_us: p50 * 1.3,
            mean_us: p50,
            eps: 0.0,
            digest: 0xfeed_0000_0000_beef,
            wall_clock: name.starts_with("engine/"),
            failures: Vec::new(),
        }
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let results = vec![
            case("allreduce/mscclpp/A100_40G/1n8g/32768B", 12.345),
            case("serving", 987.0),
        ];
        let json = results_to_json("2026-08-06", &results);
        assert!(json.contains("\"schema_version\":6,"));
        assert!(json.contains("\"date\":\"2026-08-06\""));
        assert!(json.contains("\"digest\":\"0xfeed00000000beef\""));
        json::parse(&json).unwrap();
        let parsed = parse_results(&json).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, results[0].name);
        assert!((parsed[0].p50_us - 12.345).abs() < 1e-9);
        assert_eq!(parsed[1].samples, 3);
        assert_eq!(parsed[1].digest, results[1].digest);
    }

    #[test]
    fn damaged_baselines_are_errors_not_fewer_cases() {
        let json = results_to_json("2026-08-06", &[case("a", 1.0), case("b", 2.0)]);
        // Cut inside the second case: the first case alone must not
        // come back as if the baseline had one entry.
        let cut = json.find("\"b\"").unwrap() + 8;
        let err = parse_results(&json[..cut]).unwrap_err();
        assert!(err.contains(&format!("byte {cut}")), "{err}");
        assert!(parse_results("").unwrap_err().contains("byte 0"));
        assert!(parse_results("not json").is_err());
        assert!(parse_results("{}").is_err(), "no cases array");
        let no_p50 = json.replace("\"p50_us\":2.000,", "");
        assert_eq!(parse_results(&no_p50).unwrap_err(), "case 1 lacks a field");
        // A baseline from before digests were recorded is not comparable.
        let no_digest = json.replace("\"digest\":\"0xfeed00000000beef\",", "");
        assert_eq!(
            parse_results(&no_digest).unwrap_err(),
            "case 0 lacks a field"
        );
    }

    #[test]
    fn percentiles_are_exact_nearest_rank_samples() {
        let c = Case::Serving;
        let r = CaseResult::from_ns(&c, vec![30_001, 10_000, 20_452], 7);
        assert_eq!(r.samples, 3);
        assert_eq!((r.p50_us, r.p95_us, r.p99_us), (20.452, 30.001, 30.001));
        assert_eq!(r.max_us, 30.001);
        assert_eq!(r.mean_us, 60_453.0 / 3.0 / 1e3);
        assert_eq!(r.digest, 7);
        let hundred: Vec<u64> = (1..=100).rev().collect();
        let r = CaseResult::from_ns(&c, hundred, 7);
        assert_eq!((r.p50_us, r.p95_us, r.p99_us), (0.050, 0.095, 0.099));
    }

    #[test]
    fn virtual_cases_must_match_exactly() {
        let name = "allreduce/nccl/A100_40G/1n8g/32768B";
        let base = vec![case(name, 100.0), case("b", 100.0)];
        // The same numbers, and a shift below the artifact's precision.
        let v = compare(&[case(name, 100.0), case("b", 100.0001)], &base);
        assert_eq!(v[0].1, Verdict::Ok);
        assert_eq!(v[1].1, Verdict::Ok);
        // One picosecond is one digit of the artifact: a change.
        let v = compare(&[case(name, 100.001)], &base);
        assert_eq!(
            v[0].1,
            Verdict::Changed {
                field: "p50_us",
                base: "100.000".to_owned(),
                new: "100.001".to_owned(),
            }
        );
        // A faster case is a change too, not an improvement.
        let v = compare(&[case(name, 60.0)], &base);
        assert!(matches!(
            v[0].1,
            Verdict::Changed {
                field: "p50_us",
                ..
            }
        ));
        // Identical numbers from another schedule.
        let mut moved = case(name, 100.0);
        moved.digest ^= 1;
        let v = compare(&[moved], &base);
        assert!(matches!(
            v[0].1,
            Verdict::Changed {
                field: "digest",
                ..
            }
        ));
        let v = compare(&[case("d", 50.0)], &base);
        assert_eq!(v[0].1, Verdict::New);
    }

    #[test]
    fn pinned_suite_names_are_unique_and_stable() {
        let suite = pinned_suite();
        let names: std::collections::BTreeSet<String> = suite.iter().map(Case::name).collect();
        assert_eq!(names.len(), suite.len(), "duplicate case names");
        // The suite covers both pinned topologies, the serving scenario,
        // and the two pinned engine-throughput shapes (8-rank single
        // node and 64-rank hierarchical).
        assert!(suite.contains(&Case::Serving));
        // The overload-goodput case rides behind the legacy serving
        // scenario; its name pins the 2×-knee configuration.
        assert!(suite.contains(&Case::ServingGoodput));
        assert!(names.iter().any(|n| n.starts_with("serving-goodput/")));
        assert!(names.iter().any(|n| n.contains("A100_40G")));
        assert!(names.iter().any(|n| n.contains("H100")));
        let engine: Vec<&String> = names.iter().filter(|n| n.starts_with("engine/")).collect();
        assert_eq!(engine.len(), 2, "two pinned engine-throughput cases");
        assert!(engine.iter().any(|n| n.contains("1n8g")));
        assert!(engine.iter().any(|n| n.contains("8n64g")));
        // Wall-clock cases: the two engine shapes plus the 64-rank
        // verifier-scalability case.
        let commv: Vec<&String> = names
            .iter()
            .filter(|n| n.starts_with("commverify/"))
            .collect();
        assert_eq!(commv.len(), 1, "one pinned verifier-scalability case");
        assert!(commv[0].contains("8n64g"));
        let wall = suite.iter().filter(|c| c.is_wall_clock()).count();
        assert_eq!(wall, 4);
        // The post-recovery steady-state case pins the shrunken plan.
        assert!(names.iter().any(|n| n.starts_with("shrunken-allreduce/")));
        // The observability-overhead case is wall-clock and pins the
        // instrumented 2×-knee scenario.
        assert!(Case::ServingObservability.is_wall_clock());
        assert!(names
            .iter()
            .any(|n| n.starts_with("serving-observability/")));
    }

    #[test]
    fn parser_handles_exponents_and_negatives() {
        // Hand-written artifact with exponent-form and negative numbers:
        // the parser must take the whole number, not truncate at `e`.
        let json = "{\"cases\":[{\"name\":\"x\",\"samples\":2,\"digest\":\"0x1f\",\
                     \"p50_us\":1.2e3,\"p95_us\":4E-2,\"p99_us\":-7.5,\"max_us\":1e4,\
                     \"mean_us\":1250.0,\"eps\":3.4e6}]}";
        let parsed = parse_results(json).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].digest, 0x1f);
        assert!((parsed[0].p50_us - 1200.0).abs() < 1e-9);
        assert!((parsed[0].p95_us - 0.04).abs() < 1e-9);
        assert!((parsed[0].p99_us + 7.5).abs() < 1e-9);
        assert!((parsed[0].max_us - 10_000.0).abs() < 1e-9);
        assert!((parsed[0].eps - 3.4e6).abs() < 1e-3);
        // And a full write→parse round trip preserves eps.
        let mut r = case("engine/allreduce/A100_40G/8n64g/1024B", 900.0);
        r.eps = 4_567_890.1;
        let round = parse_results(&results_to_json("2026-08-07", &[r.clone()])).unwrap();
        assert_eq!(round.len(), 1);
        assert!((round[0].eps - r.eps).abs() < 1.0);
    }

    #[test]
    fn wall_clock_cases_get_one_band_and_an_exact_digest() {
        let name = "engine/allreduce/A100_40G/1n8g/1024B";
        let base = vec![case(name, 100.0)];
        // +40% host jitter on a wall-clock case: inside the 60% band,
        // and so are the other numbers, which only the median gates.
        let mut jittery = case(name, 140.0);
        jittery.max_us = 300.0;
        let v = compare(&[jittery], &base);
        assert_eq!(v[0].1, Verdict::Ok);
        // A 2x slowdown trips the gate; a 3x speedup asks for a refresh.
        let v = compare(&[case(name, 200.0)], &base);
        assert!(matches!(v[0].1, Verdict::Regression { .. }));
        let v = compare(&[case(name, 33.0)], &base);
        assert!(matches!(v[0].1, Verdict::Improvement { .. }));
        // The band covers timings, never the schedule.
        let mut moved = case(name, 100.0);
        moved.digest ^= 1;
        let v = compare(&[moved], &base);
        assert!(matches!(
            v[0].1,
            Verdict::Changed {
                field: "digest",
                ..
            }
        ));
    }
}
