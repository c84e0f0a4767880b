//! The serving workloads: llama2-13b at TP8 on `A100_80G`, MSCCL++
//! AllReduce, SLO-aware admission, open-loop Poisson arrivals.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use collective::CollComm;
use hw::Rank;
use hw::{BufferId, DataType, EnvKind, Machine, ReduceOp};
use inference::rtrace::{Phase, Terminal};
use inference::{
    serve_trace_observed, CommBackend, LatencyStats, ModelConfig, MscclBackend, MscclppBackend,
    NcclBackend, Request, ServeConfig, ServingEngine, SloSpec,
};
use mscclpp::{KernelTiming, Result};
use sim::Engine;

use crate::inputs::{self, Rng, SharedPrefixes, TraceShape};
use crate::spans::{traced, Spans};
use crate::stats::{nearest_rank, weighted_geomean};
use crate::Rep;

pub const ENV: EnvKind = EnvKind::A100_80G;
/// Largest step the engine is sized for (the prefill chunk bound).
const MAX_TOKENS: usize = 16 * 1024;
/// Set-ups timed per repetition.
const SETUP_SAMPLES: usize = 16;
/// AllReduces at or below this size are latency-bound decode traffic.
const SMALL_BYTES: usize = 256 << 10;

/// One serving workload: its trace and its serving configuration.
#[derive(Debug)]
pub struct Serving {
    trace: Vec<Request>,
    cfg: ServeConfig,
    /// Whether the workload is offered beyond its capacity: admission
    /// must shed on an overloaded one and shed nothing otherwise.
    overload: bool,
}

/// Chat traffic offered at about 1.8x its goodput (67 requests/s
/// offered, about 37/s served within both SLOs): short prompts, long
/// outputs, no shared prefixes.
pub fn decode(seed: u64) -> Serving {
    let shape = TraceShape {
        requests: 330,
        mean_prompt: 32,
        mean_generate: 64,
        mean_interarrival_us: 15_000.0,
        shared: None,
    };
    Serving::new(&shape, 16, SloSpec::new(200_000.0, 12_000.0), true, seed)
}

/// RAG / long-context traffic below the knee: long prompts, three of
/// four sharing one of three prefixes over 3/4 of the prompt, short
/// outputs.
pub fn prefill(seed: u64) -> Serving {
    let shape = TraceShape {
        requests: 200,
        mean_prompt: 192,
        mean_generate: 8,
        mean_interarrival_us: 25_000.0,
        shared: Some(SharedPrefixes {
            share: 0.75,
            prefixes: 3,
            prefix_tokens: 144,
        }),
    };
    Serving::new(&shape, 16, SloSpec::new(300_000.0, 20_000.0), false, seed)
}

impl Serving {
    fn new(
        shape: &TraceShape,
        max_batch: usize,
        slo: SloSpec,
        overload: bool,
        seed: u64,
    ) -> Serving {
        let mut rng = Rng::new(seed);
        let trace = inputs::trace(shape, &mut rng.fork(1));
        let mut cfg = ServeConfig::slo_aware(max_batch, slo);
        cfg.seed = rng.fork(2).next_u64();
        Serving {
            trace,
            cfg,
            overload,
        }
    }

    /// MSCCL++ against NCCL and MSCCL at the AllReduces this workload
    /// issues (virtual time, made once per run outside the timed
    /// phases). One untimed serve records the element count of every
    /// AllReduce. Each distinct count is then launched on every stack
    /// through its serving backend, on a fresh engine built as the
    /// serving one is. The geomeans weight each count by its calls.
    pub fn compare(&self) -> Rep {
        let mut rep = Rep::default();
        let mut engine = ServingEngine::new(ENV, ModelConfig::llama2_13b(), MAX_TOKENS);
        let backend = MscclppBackend::new();
        let recorder = Recorder::new(&backend, None);
        if let Err(err) = serve_trace_observed(&mut engine, &recorder, &self.trace, &self.cfg) {
            rep.fail(1, format!("recording serve failed: {err}"));
            return rep;
        }
        let calls = recorder.calls.into_inner();
        let mut weight: BTreeMap<usize, f64> = BTreeMap::new();
        for c in &calls {
            *weight.entry(c.count).or_default() += 1.0;
        }
        let counts: Vec<usize> = weight.keys().copied().collect();

        type Make = fn(&mut Engine<Machine>) -> Box<dyn CommBackend>;
        let stacks: [(&str, Make); 3] = [
            ("mscclpp", |_| Box::new(MscclppBackend::new())),
            ("nccl", |e| Box::new(NcclBackend::new(e))),
            ("msccl", |e| Box::new(MscclBackend::new(e))),
        ];
        let mut lat: Vec<BTreeMap<usize, f64>> = Vec::new();
        for (name, make) in stacks {
            lat.push(stack_latencies(name, make, &counts, &mut rep));
        }

        // The probe must reproduce the latency every recorded call had
        // in the serving run, or it does not measure the run's traffic.
        let off = calls
            .iter()
            .filter(|c| lat[0].get(&c.count) != Some(&c.virtual_us))
            .count();
        if off != 0 {
            rep.fail(
                1,
                format!(
                    "{off} of {} AllReduces differ from their probed MSCCL++ latency",
                    calls.len()
                ),
            );
        }
        let pairs = |f: &dyn Fn(usize) -> f64| -> Vec<(f64, f64)> {
            counts.iter().map(|&c| (f(c), weight[&c])).collect()
        };
        let get = |s: usize, c: usize| lat[s].get(&c).copied().unwrap_or(f64::NAN);
        let x = &mut rep.exact;
        x.insert(
            "coll_lat_us".into(),
            weighted_geomean(&pairs(&|c| get(0, c))),
        );
        x.insert(
            "speedup_vs_nccl".into(),
            weighted_geomean(&pairs(&|c| get(1, c) / get(0, c))),
        );
        x.insert(
            "speedup_vs_msccl".into(),
            weighted_geomean(&pairs(&|c| get(2, c) / get(0, c))),
        );
        x.insert("compare.calls".into(), calls.len() as f64);
        x.insert("compare.shapes".into(), counts.len() as f64);
        rep
    }

    /// Builds the engine and communicator, then serves the whole trace.
    /// Set-up takes well under a millisecond, so it is timed
    /// `SETUP_SAMPLES` times and the last engine built serves.
    pub fn rep(&self, spans: Option<&Spans>) -> Rep {
        let mut setup_s = Vec::with_capacity(SETUP_SAMPLES);
        let mut built = None;
        for _ in 0..SETUP_SAMPLES {
            drop(built.take());
            let t0 = Instant::now();
            built = Some(traced(spans, "hw.setup", || {
                (
                    ServingEngine::new(ENV, ModelConfig::llama2_13b(), MAX_TOKENS),
                    MscclppBackend::new(),
                )
            }));
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        let (mut engine, backend) = built.expect("at least one set-up");

        let e = engine.engine_mut();
        let (ev0, mv0) = (e.events_processed(), e.world().pool().moved_bytes());
        let timed = spans.map(|s| Recorder::new(&backend, Some(s)));
        let t1 = Instant::now();
        let result = match (&timed, spans) {
            (Some(tb), Some(s)) => s.span("inference.serve", || {
                serve_trace_observed(&mut engine, tb, &self.trace, &self.cfg)
            }),
            _ => serve_trace_observed(&mut engine, &backend, &self.trace, &self.cfg),
        };
        let run_s = t1.elapsed().as_secs_f64();

        let sent = self.trace.len() as u64;
        let mut rep = Rep::new(setup_s, run_s, sent);
        let (report, obs) = match result {
            Ok(r) => r,
            Err(err) => {
                rep.fail(sent, format!("serving run failed: {err}"));
                return rep;
            }
        };

        // Exact per-request latencies from the request timelines (the
        // report's own percentiles are histogram bucket bounds).
        let mut ttft = Vec::new();
        let mut tpot = Vec::new();
        // Prompt tokens of the requests that reached prefill: what the
        // engine would bill without the prefix cache.
        let mut prefilled_prompt = 0u64;
        for tl in &obs.timelines {
            let req = &self.trace[tl.id as usize];
            if tl.events.iter().any(|ev| ev.phase == Phase::PrefillCompute) {
                prefilled_prompt += req.prompt as u64;
            }
            if tl.terminal != Terminal::Completed {
                continue;
            }
            let first = tl.first_token_ps.unwrap_or(tl.end_ps);
            ttft.push((first - tl.arrival_ps) as f64 * 1e-9);
            tpot.push(if req.generate > 1 {
                (tl.end_ps - first) as f64 * 1e-9 / (req.generate - 1) as f64
            } else {
                0.0
            });
        }
        ttft.sort_by(f64::total_cmp);
        tpot.sort_by(f64::total_cmp);

        // Correctness of the run.
        let lost =
            report.completed + report.shed + report.rejected + report.timed_out + report.evicted;
        if lost as u64 != sent {
            rep.fail(
                1,
                format!("request conservation: {lost} terminal of {sent} sent"),
            );
        }
        if !report.kv.balances() {
            rep.fail(1, format!("KV accounting out of balance: {:?}", report.kv));
        }
        if ttft.len() != report.completed {
            rep.fail(
                1,
                format!(
                    "{} completed timelines, report says {}",
                    ttft.len(),
                    report.completed
                ),
            );
        }
        if self.overload && report.shed == 0 {
            rep.fail(1, "an overload workload shed nothing".into());
        }
        if !self.overload && report.shed != 0 {
            rep.fail(
                1,
                format!(
                    "{} requests shed on a workload offered below its capacity",
                    report.shed
                ),
            );
        }
        if report.completed < 200 {
            rep.fail(
                1,
                format!("only {} completions: p95 needs 200", report.completed),
            );
        }
        for (what, hist, exact) in [("ttft", &report.ttft, &ttft), ("tpot", &report.tpot, &tpot)] {
            if let Err(msg) = check_hist_bounds(hist, exact) {
                rep.fail(1, format!("{what}: {msg}"));
            }
        }

        let e = engine.engine_mut();
        let m = e.metrics();
        let clamped = e.clamped_past_events();
        if clamped != 0 {
            rep.fail(1, format!("{clamped} events clamped to the past"));
        }
        let events = e.events_processed() - ev0;
        let moved = e.world().pool().moved_bytes() - mv0;
        let steps = m.counter("serve.steps");
        let prefill_tokens = m.counter("serve.prefill_tokens");
        let decode_tokens = m.counter("serve.decode_tokens");

        let x = &mut rep.exact;
        x.insert("served_frac".into(), report.completed as f64 / sent as f64);
        x.insert("goodput_rps".into(), report.goodput);
        x.insert("lat_p50_ms".into(), nearest_rank(&ttft, 0.50));
        x.insert("lat_p95_ms".into(), nearest_rank(&ttft, 0.95));
        x.insert("inference.tpot_p50_ms".into(), nearest_rank(&tpot, 0.50));
        x.insert("inference.tpot_p95_ms".into(), nearest_rank(&tpot, 0.95));
        x.insert("inference.makespan_s".into(), report.makespan_us * 1e-6);
        x.insert("inference.completed".into(), report.completed as f64);
        x.insert(
            "inference.admission.admitted".into(),
            m.counter("serve.admitted") as f64,
        );
        x.insert("inference.admission.shed".into(), report.shed as f64);
        x.insert(
            "inference.admission.rejected".into(),
            report.rejected as f64,
        );
        x.insert("inference.timed_out".into(), report.timed_out as f64);
        x.insert("inference.evicted".into(), report.evicted as f64);
        x.insert("inference.steps".into(), steps as f64);
        x.insert(
            "inference.tokens_per_step".into(),
            (prefill_tokens + decode_tokens) as f64 / steps.max(1) as f64,
        );
        x.insert(
            "inference.decode_time_fraction".into(),
            report.decode_time_fraction,
        );
        x.insert(
            "inference.kv.prefill_skip_ratio".into(),
            1.0 - prefill_tokens as f64 / prefilled_prompt.max(1) as f64,
        );
        x.insert(
            "inference.kv.prefix_hits".into(),
            report.kv.prefix_hits as f64,
        );
        x.insert("inference.kv.peak_used".into(), report.kv.peak_used as f64);
        x.insert("inference.kv.spilled".into(), report.kv.spilled as f64);
        x.insert("inference.kv.evictions".into(), report.kv.evictions as f64);
        x.insert("sim.events".into(), events as f64);
        x.insert("sim.clamped_past_events".into(), clamped as f64);
        x.insert("hw.moved_bytes".into(), moved as f64);
        x.insert("mscclpp.instrs".into(), m.counter_sum("mscclpp.") as f64);
        x.insert(
            "mscclpp.syncs".into(),
            (m.counter("sync.signals") + m.counter("sync.waits")) as f64,
        );
        x.insert("mscclpp.proxy_puts".into(), m.counter("proxy.puts") as f64);

        if let (Some(tb), Some(s)) = (timed, spans) {
            let (calls, bufs) = (tb.calls.into_inner(), tb.bufs.into_inner());
            layer_metrics(&mut rep, &calls, &bufs, engine.engine_mut(), s);
        }
        rep
    }
}

/// A histogram percentile is an upper bound of the exact one, at most
/// one bucket (about 6%) above it.
fn check_hist_bounds(hist: &LatencyStats, exact_s: &[f64]) -> std::result::Result<(), String> {
    for (q, bound_us) in [(0.50, hist.p50_us), (0.95, hist.p95_us)] {
        let exact_us = nearest_rank(exact_s, q) * 1e3;
        // The histogram records whole nanoseconds.
        if bound_us < exact_us - 2e-3 || bound_us > exact_us * 1.07 + 2e-3 {
            return Err(format!(
                "p{} histogram bound {bound_us} us vs exact {exact_us} us",
                (q * 100.0) as u32
            ));
        }
    }
    Ok(())
}

/// One AllReduce seen by the timing decorator.
#[derive(Debug, Clone, Copy)]
struct Call {
    count: usize,
    host_s: f64,
    virtual_us: f64,
}

/// Records every AllReduce the serving loop issues, inside a span when
/// tracing. The timed untraced repetitions never use it.
struct Recorder<'a> {
    inner: &'a dyn CommBackend,
    spans: Option<&'a Spans>,
    calls: RefCell<Vec<Call>>,
    bufs: RefCell<Vec<BufferId>>,
}

impl<'a> Recorder<'a> {
    fn new(inner: &'a dyn CommBackend, spans: Option<&'a Spans>) -> Recorder<'a> {
        Recorder {
            inner,
            spans,
            calls: RefCell::new(Vec::new()),
            bufs: RefCell::new(Vec::new()),
        }
    }
}

impl CommBackend for Recorder<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn all_reduce(
        &self,
        engine: &mut Engine<Machine>,
        bufs: &[BufferId],
        count: usize,
        dtype: DataType,
    ) -> Result<KernelTiming> {
        let t = Instant::now();
        let out = traced(self.spans, "collective.allreduce", || {
            self.inner.all_reduce(engine, bufs, count, dtype)
        });
        let host_s = t.elapsed().as_secs_f64();
        if self.bufs.borrow().is_empty() {
            *self.bufs.borrow_mut() = bufs.to_vec();
        }
        self.calls.borrow_mut().push(Call {
            count,
            host_s,
            virtual_us: out.as_ref().map_or(0.0, |t| t.elapsed().as_us()),
        });
        out
    }

    fn shrink(&self, engine: &mut Engine<Machine>, dead: &[Rank]) -> Result<Option<Vec<Rank>>> {
        self.inner.shrink(engine, dead)
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
}

/// The virtual latency (us) of an in-place F16 AllReduce of each of
/// `counts` on one stack's serving backend, on a fresh 1n8g engine with
/// activation buffers as the serving engine allocates them. Each count
/// is launched twice and the second, steady launch is kept.
fn stack_latencies(
    name: &str,
    make: fn(&mut Engine<Machine>) -> Box<dyn CommBackend>,
    counts: &[usize],
    rep: &mut Rep,
) -> BTreeMap<usize, f64> {
    let mut engine = Engine::new(Machine::new(ENV.spec(1)));
    hw::wire(&mut engine);
    let bytes = counts.last().map_or(0, |c| c * 2);
    let bufs: Vec<BufferId> = (0..engine.world().topology().world_size())
        .map(|r| engine.world_mut().pool_mut().alloc(Rank(r), bytes))
        .collect();
    let backend = make(&mut engine);
    let mut out = BTreeMap::new();
    for &count in counts {
        let mut last = None;
        for _ in 0..2 {
            rep.attempted += 1;
            match backend.all_reduce(&mut engine, &bufs, count, DataType::F16) {
                Ok(t) => last = Some(t.elapsed().as_us()),
                Err(err) => {
                    rep.fail(1, format!("{name} AllReduce of {count} elements: {err}"));
                    last = None;
                }
            }
        }
        if let Some(us) = last {
            out.insert(count, us);
        }
    }
    let clamped = engine.clamped_past_events();
    if clamped != 0 {
        rep.fail(1, format!("{name}: {clamped} events clamped to the past"));
    }
    out
}

/// Per-layer host metrics of a traced serving repetition, and the proofs
/// of every AllReduce shape it launched.
fn layer_metrics(
    rep: &mut Rep,
    calls: &[Call],
    bufs: &[BufferId],
    engine: &mut Engine<Machine>,
    spans: &Spans,
) {
    let n = calls.len().max(1) as f64;
    let small: f64 = calls
        .iter()
        .filter(|c| c.count * 2 <= SMALL_BYTES)
        .map(|c| c.host_s)
        .sum();
    let large: f64 = calls
        .iter()
        .filter(|c| c.count * 2 > SMALL_BYTES)
        .map(|c| c.host_s)
        .sum();
    let changes = calls
        .windows(2)
        .filter(|w| w[0].count != w[1].count)
        .count();
    let h = &mut rep.host;
    h.insert("collective.allreduce_calls".into(), calls.len() as f64);
    h.insert("collective.allreduce_s".into(), small + large);
    h.insert(
        "collective.allreduce_virtual_us".into(),
        calls.iter().map(|c| c.virtual_us).sum(),
    );
    h.insert("collective.small_s".into(), small);
    h.insert("collective.large_s".into(), large);
    h.insert("collective.shape_change_ratio".into(), changes as f64 / n);
    let x = &rep.exact;
    h.insert("mscclpp.instrs_per_launch".into(), x["mscclpp.instrs"] / n);
    h.insert("mscclpp.syncs_per_launch".into(), x["mscclpp.syncs"] / n);
    h.insert(
        "mscclpp.proxy_puts_per_launch".into(),
        x["mscclpp.proxy_puts"] / n,
    );

    // Prove each distinct launched shape on the finished engine, with a
    // communicator of the benchmark's own so the run itself is untouched.
    let shapes: BTreeSet<usize> = calls.iter().map(|c| c.count).collect();
    let prover = CollComm::new();
    let mut findings = 0usize;
    for count in shapes {
        let algo = collective::select_all_reduce(engine.world(), count * 2);
        let plan = spans.span("collective.plan", || {
            prover.plan_all_reduce_with(
                engine,
                bufs,
                bufs,
                count,
                DataType::F16,
                ReduceOp::Sum,
                algo,
            )
        });
        match plan {
            Ok((kernels, spec)) => {
                let report = spans.span("commverify.prove", || {
                    commverify::analyze_collective(
                        &kernels,
                        engine.world().pool(),
                        &commverify::Checks::all(),
                        &spec,
                    )
                });
                findings += report.findings.len();
            }
            Err(err) => rep.fail(1, format!("planning {count} elements failed: {err}")),
        }
    }
    if findings != 0 {
        rep.fail(findings as u64, format!("{findings} commverify findings"));
    }
    rep.host
        .insert("commverify.findings".into(), findings as f64);
}
