//! The collective micro-benchmark: AllReduce and AllGather at
//! latency-bound sizes on MSCCL++, NCCL and MSCCL, with every output
//! checked byte for byte against a reference computed here.

use std::time::Instant;

use collective::CollComm;
use hw::{BufferId, DataType, EnvKind, Machine, Rank, ReduceOp};
use msccl::{MscclComm, MscclConfig};
use mscclpp::{KernelTiming, Result, Setup};
use ncclsim::{Choice, NcclComm, NcclConfig};
use sim::Engine;

use crate::inputs::{f16_bytes, rank_values, Rng};
use crate::spans::{traced, Spans};
use crate::stats::{geomean, median, nearest_rank};
use crate::Rep;

/// Launches per point in one repetition, after the first launch.
const ROUNDS: usize = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    Mscclpp,
    Nccl,
    Msccl,
}

impl Stack {
    const ALL: [Stack; 3] = [Stack::Mscclpp, Stack::Nccl, Stack::Msccl];

    fn name(self) -> &'static str {
        match self {
            Stack::Mscclpp => "mscclpp",
            Stack::Nccl => "nccl",
            Stack::Msccl => "msccl",
        }
    }

    /// Span names: the crate each stack's launch path lives in.
    fn spans(self) -> (&'static str, &'static str) {
        match self {
            Stack::Mscclpp => ("collective.first_launch", "collective.launch"),
            Stack::Nccl => ("ncclsim.first_launch", "ncclsim.launch"),
            Stack::Msccl => ("msccl.first_launch", "msccl.launch"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coll {
    AllReduce,
    AllGather,
}

impl Coll {
    fn name(self) -> &'static str {
        match self {
            Coll::AllReduce => "allreduce",
            Coll::AllGather => "allgather",
        }
    }
}

/// What one grid measures.
#[derive(Debug)]
pub struct Grid {
    pub env: EnvKind,
    pub nodes: Vec<usize>,
    pub colls: Vec<Coll>,
    /// Message sizes in bytes: the per-rank buffer of an AllReduce, the
    /// gathered output of an AllGather.
    pub sizes: Vec<usize>,
    pub rounds: usize,
}

/// The `collectives` workload: 1 KB-class and 32 KB-class messages on
/// A100-40G 1n8g and 8n64g. The exact sizes are drawn from the seed so
/// that each seed is a distinct input; the 32 KB class moves by at most
/// 1 KB so that the host work stays nearly the same.
fn workload_grid(seed: u64) -> Grid {
    let mut rng = Rng::new(seed).fork(3);
    let small = 1024 + 256 * rng.below(3) as usize - 256;
    let medium = (32 << 10) + 256 * rng.below(9) as usize - 1024;
    Grid {
        env: EnvKind::A100_40G,
        nodes: vec![1, 8],
        colls: vec![Coll::AllReduce, Coll::AllGather],
        sizes: vec![small, medium],
        rounds: ROUNDS,
    }
}

enum Comm {
    Mscclpp(Box<CollComm>),
    Nccl(NcclComm),
    Msccl(MscclComm),
}

struct Point {
    bytes: usize,
    /// Elements each rank contributes.
    count: usize,
    ins: Vec<BufferId>,
    outs: Vec<BufferId>,
    expected: Vec<u8>,
    /// NCCL's fine-tuned choice for this point.
    choice: Option<Choice>,
    virtual_us: Vec<f64>,
    host_s: Vec<f64>,
}

struct Group {
    stack: Stack,
    coll: Coll,
    nodes: usize,
    engine: Engine<Machine>,
    comm: Comm,
    points: Vec<Point>,
}

impl Group {
    fn build(
        stack: Stack,
        coll: Coll,
        grid: &Grid,
        nodes: usize,
        rng: &mut Rng,
        spans: Option<&Spans>,
    ) -> Group {
        let mut engine = traced(spans, "hw.setup", || {
            let mut e = Engine::new(Machine::new(grid.env.spec(nodes)));
            hw::wire(&mut e);
            e
        });
        let comm = traced(spans, "bench.comm_setup", || match stack {
            Stack::Mscclpp => Comm::Mscclpp(Box::new(CollComm::new())),
            Stack::Nccl => Comm::Nccl(NcclComm::new(
                &mut Setup::new(&mut engine),
                NcclConfig::nccl(),
            )),
            Stack::Msccl => Comm::Msccl(MscclComm::new(
                &mut Setup::new(&mut engine),
                MscclConfig::default(),
            )),
        });
        let world = nodes * 8;
        let points = traced(spans, "bench.fill", || {
            grid.sizes
                .iter()
                .map(|&bytes| {
                    let (in_bytes, out_bytes) = match coll {
                        Coll::AllReduce => (bytes, bytes),
                        Coll::AllGather => (bytes / world, bytes),
                    };
                    let values: Vec<Vec<u32>> =
                        (0..world).map(|_| rank_values(rng, in_bytes / 2)).collect();
                    let expected = match coll {
                        Coll::AllReduce => f16_bytes(
                            &(0..in_bytes / 2)
                                .map(|i| values.iter().map(|v| v[i]).sum())
                                .collect::<Vec<u32>>(),
                        ),
                        Coll::AllGather => f16_bytes(&values.concat()),
                    };
                    let pool = engine.world_mut().pool_mut();
                    let ins = values
                        .iter()
                        .enumerate()
                        .map(|(r, v)| {
                            let b = pool.alloc(Rank(r), in_bytes);
                            pool.write(b, 0, &f16_bytes(v));
                            b
                        })
                        .collect();
                    let outs = (0..world).map(|r| pool.alloc(Rank(r), out_bytes)).collect();
                    Point {
                        bytes,
                        count: in_bytes / 2,
                        ins,
                        outs,
                        expected,
                        choice: None,
                        virtual_us: Vec::new(),
                        host_s: Vec::new(),
                    }
                })
                .collect()
        });
        Group {
            stack,
            coll,
            nodes,
            engine,
            comm,
            points,
        }
    }

    fn label(&self, p: &Point) -> String {
        format!(
            "{}.{}.{}n{}g.{}",
            self.stack.name(),
            self.coll.name(),
            self.nodes,
            self.nodes * 8,
            p.bytes
        )
    }

    fn launch(&mut self, i: usize, choice: Option<Choice>) -> Result<KernelTiming> {
        let p = &self.points[i];
        let e = &mut self.engine;
        let (f16, sum) = (DataType::F16, ReduceOp::Sum);
        match (&self.comm, self.coll) {
            (Comm::Mscclpp(c), Coll::AllReduce) => {
                c.all_reduce(e, &p.ins, &p.outs, p.count, f16, sum)
            }
            (Comm::Mscclpp(c), Coll::AllGather) => c.all_gather(e, &p.ins, &p.outs, p.count, f16),
            (Comm::Nccl(c), Coll::AllReduce) => {
                let choice = choice.expect("NCCL launches carry a tuner choice");
                c.all_reduce(e, &p.ins, &p.outs, p.count, f16, sum, choice)
            }
            (Comm::Nccl(c), Coll::AllGather) => {
                let choice = choice.expect("NCCL launches carry a tuner choice");
                c.all_gather(e, &p.ins, &p.outs, p.count, f16, choice)
            }
            (Comm::Msccl(c), Coll::AllReduce) => {
                c.all_reduce(e, &p.ins, &p.outs, p.count, f16, sum, None)
            }
            (Comm::Msccl(c), Coll::AllGather) => {
                c.all_gather(e, &p.ins, &p.outs, p.count, f16, None)
            }
        }
    }

    /// Clears point `i`'s outputs, so a launch that writes nothing fails
    /// the check that follows it.
    fn clear(&mut self, i: usize) {
        let p = &self.points[i];
        let zeros = vec![0u8; p.expected.len()];
        let pool = self.engine.world_mut().pool_mut();
        for &b in &p.outs {
            pool.write(b, 0, &zeros);
        }
    }

    /// Whether every rank's output equals the reference byte for byte.
    fn correct(&self, i: usize) -> bool {
        let p = &self.points[i];
        let pool = self.engine.world().pool();
        p.outs
            .iter()
            .all(|&b| pool.bytes(b, 0, p.expected.len()) == p.expected.as_slice())
    }

    /// One checked launch; returns its virtual latency (us) and host time
    /// (s) on success.
    fn checked(
        &mut self,
        i: usize,
        choice: Option<Choice>,
        span: &'static str,
        spans: Option<&Spans>,
        rep: &mut Rep,
    ) -> Option<(f64, f64)> {
        traced(spans, "bench.check", || self.clear(i));
        let t = Instant::now();
        let out = traced(spans, span, || self.launch(i, choice));
        let host_s = t.elapsed().as_secs_f64();
        let label = self.label(&self.points[i]);
        match out {
            Err(err) => {
                rep.fail(1, format!("{label}: launch failed: {err}"));
                None
            }
            Ok(_) if !traced(spans, "bench.check", || self.correct(i)) => {
                rep.fail(1, format!("{label}: output differs from the reference"));
                None
            }
            Ok(t) => Some((t.elapsed().as_us(), host_s)),
        }
    }

    /// The first launch of each point, which builds its plan and proves
    /// it. NCCL is fine-tuned per point as in the paper: every candidate
    /// runs once and the fastest is kept.
    fn first_launches(&mut self, spans: Option<&Spans>, rep: &mut Rep) {
        let (first, _) = self.stack.spans();
        for i in 0..self.points.len() {
            if self.stack != Stack::Nccl {
                self.checked(i, None, first, spans, rep);
                continue;
            }
            let (total, coll) = (self.points[i].bytes, self.coll);
            let candidates: Vec<Choice> = ncclsim::tuning_candidates(self.nodes)
                .into_iter()
                .filter(|c| total >= (64 << 10) || c.channels == 1)
                .filter(|c| coll == Coll::AllReduce || c.algo == ncclsim::Algo::Ring)
                .collect();
            let mut best: Option<(f64, Choice)> = None;
            for c in candidates {
                if let Some((v, _)) = self.checked(i, Some(c), first, spans, rep) {
                    if best.is_none_or(|(b, _)| v < b) {
                        best = Some((v, c));
                    }
                }
            }
            self.points[i].choice = best.map(|(_, c)| c);
        }
    }

    /// Analyzes every MSCCL++ point's launched plan with the prover
    /// (traced runs only; returns the number of findings).
    fn prove(&mut self, spans: &Spans, rep: &mut Rep) -> usize {
        let Comm::Mscclpp(comm) = &self.comm else {
            return 0;
        };
        let mut findings = 0;
        for p in &self.points {
            let e = &mut self.engine;
            let plan = spans.span("collective.plan", || match self.coll {
                Coll::AllReduce => {
                    let algo = collective::select_all_reduce(e.world(), p.bytes);
                    comm.plan_all_reduce_with(
                        e,
                        &p.ins,
                        &p.outs,
                        p.count,
                        DataType::F16,
                        ReduceOp::Sum,
                        algo,
                    )
                }
                Coll::AllGather => {
                    let algo = collective::select_all_gather(e.world(), p.count * 2);
                    comm.plan_all_gather_with(e, &p.ins, &p.outs, p.count, DataType::F16, algo)
                }
            });
            match plan {
                Ok((kernels, spec)) => {
                    let report = spans.span("commverify.prove", || {
                        commverify::analyze_collective(
                            &kernels,
                            e.world().pool(),
                            &commverify::Checks::all(),
                            &spec,
                        )
                    });
                    findings += report.findings.len();
                }
                Err(err) => rep.fail(1, format!("planning {} failed: {err}", p.bytes)),
            }
        }
        findings
    }
}

/// Builds one group per (collective, world) for each of `stacks`, with
/// its first launches.
fn build(
    grid: &Grid,
    stacks: &[Stack],
    rng: &mut Rng,
    spans: Option<&Spans>,
    rep: &mut Rep,
) -> Vec<Group> {
    let mut groups = Vec::new();
    for &coll in &grid.colls {
        for &nodes in &grid.nodes {
            for &stack in stacks {
                let mut g = Group::build(stack, coll, grid, nodes, rng, spans);
                g.first_launches(spans, rep);
                groups.push(g);
                rss_guard();
            }
        }
    }
    groups
}

/// `rounds` checked launches of every point, interleaved across groups;
/// returns the number of launches that succeeded.
fn measure(groups: &mut [&mut Group], rounds: usize, spans: Option<&Spans>, rep: &mut Rep) -> u64 {
    for g in groups.iter_mut() {
        for p in &mut g.points {
            p.virtual_us.clear();
            p.host_s.clear();
        }
    }
    let mut ok = 0;
    for _ in 0..rounds {
        for g in groups.iter_mut() {
            let (_, span) = g.stack.spans();
            for i in 0..g.points.len() {
                let choice = g.points[i].choice;
                if g.stack == Stack::Nccl && choice.is_none() {
                    continue;
                }
                rep.attempted += 1;
                if let Some((v, h)) = g.checked(i, choice, span, spans, rep) {
                    g.points[i].virtual_us.push(v);
                    g.points[i].host_s.push(h);
                    ok += 1;
                }
            }
        }
    }
    rep.run_s = groups
        .iter()
        .flat_map(|g| g.points.iter().flat_map(|p| &p.host_s))
        .sum();
    ok
}

/// AllReduce of the given sizes on every stack: a few launches each on
/// fresh engines, for virtual-time comparison only.
pub fn probe(env: EnvKind, nodes: usize, sizes: &[usize], seed: u64) -> Rep {
    let grid = Grid {
        env,
        nodes: vec![nodes],
        colls: vec![Coll::AllReduce],
        sizes: sizes.to_vec(),
        rounds: 2,
    };
    let mut rep = Rep::default();
    let mut groups = build(
        &grid,
        &Stack::ALL,
        &mut Rng::new(seed).fork(5),
        None,
        &mut rep,
    );
    let base: Vec<_> = groups.iter().map(|g| counters(&g.engine)).collect();
    let ok = measure(
        &mut groups.iter_mut().collect::<Vec<_>>(),
        grid.rounds,
        None,
        &mut rep,
    );
    summarize(
        &mut rep,
        &groups.iter().collect::<Vec<_>>(),
        &base,
        ok,
        0,
        false,
    );
    rep
}

/// The `collectives` workload. The NCCL and MSCCL groups are set up once
/// per run and reused by every repetition: a dropped NCCL communicator
/// does not return its staging memory, so rebuilding the 64-rank ones
/// per repetition would grow the process without bound. Every
/// repetition sets up the MSCCL++ groups afresh.
pub struct Collectives {
    grid: Grid,
    seed: u64,
    baselines: Vec<Group>,
    /// Host seconds of the baselines' set-up with first launches, per
    /// stack (NCCL, MSCCL).
    baseline_setup_s: [f64; 2],
    baseline: Rep,
}

impl Collectives {
    pub fn new(seed: u64) -> Collectives {
        let grid = workload_grid(seed);
        let mut rng = Rng::new(seed).fork(6);
        let mut baseline = Rep::default();
        let mut baselines = Vec::new();
        let mut baseline_setup_s = [0.0; 2];
        for (k, stack) in [Stack::Nccl, Stack::Msccl].into_iter().enumerate() {
            let t = Instant::now();
            baselines.extend(build(&grid, &[stack], &mut rng, None, &mut baseline));
            baseline_setup_s[k] = t.elapsed().as_secs_f64();
        }
        // Launch the baselines until their staging FIFOs have wrapped,
        // so every repetition measures the same steady state.
        let mut warm = Rep::default();
        measure(
            &mut baselines.iter_mut().collect::<Vec<_>>(),
            grid.rounds,
            None,
            &mut warm,
        );
        baseline.attempted += warm.attempted;
        baseline.failed += warm.failed;
        baseline.problems.extend(warm.problems);
        Collectives {
            grid,
            seed,
            baselines,
            baseline_setup_s,
            baseline,
        }
    }

    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Problems met while setting up the baselines.
    pub fn baseline_rep(&self) -> &Rep {
        &self.baseline
    }

    /// One repetition: set up every MSCCL++ group with its first
    /// launches, then `rounds` checked launches of every point on every
    /// stack.
    pub fn rep(&mut self, spans: Option<&Spans>) -> Rep {
        let mut rep = Rep::default();
        let mut rng = Rng::new(self.seed).fork(4);
        let t0 = Instant::now();
        let mut groups = build(&self.grid, &[Stack::Mscclpp], &mut rng, spans, &mut rep);
        rep.setup_s.push(t0.elapsed().as_secs_f64());

        let mut findings = 0;
        if let Some(s) = spans {
            for g in &mut groups {
                findings += g.prove(s, &mut rep);
            }
        }
        let mut all: Vec<&mut Group> = groups.iter_mut().chain(self.baselines.iter_mut()).collect();
        let base: Vec<_> = all.iter().map(|g| counters(&g.engine)).collect();
        let ok = measure(&mut all, self.grid.rounds, spans, &mut rep);
        let all: Vec<&Group> = all.into_iter().map(|g| &*g).collect();
        summarize(&mut rep, &all, &base, ok, findings, spans.is_some());
        if spans.is_some() {
            rep.host
                .insert("ncclsim.first_launch_s".into(), self.baseline_setup_s[0]);
            rep.host
                .insert("msccl.first_launch_s".into(), self.baseline_setup_s[1]);
        }
        rss_guard();
        rep
    }
}

/// Resident memory this benchmark will not exceed: it stops rather than
/// push a shared host into swapping or the OOM killer.
const RSS_LIMIT_MB: f64 = 4096.0;

fn rss_guard() {
    let rss = crate::rss_mb("VmRSS:");
    if rss > RSS_LIMIT_MB {
        println!("PROBLEM: resident memory {rss:.0} MB exceeds {RSS_LIMIT_MB} MB; stopping");
        std::process::exit(3);
    }
}

/// Engine counters a repetition compares: events, bytes moved, the
/// MSCCL++ instruction mix, synchronizations and proxy puts.
fn counters(e: &Engine<Machine>) -> [u64; 6] {
    let m = e.metrics();
    [
        e.events_processed(),
        e.world().pool().moved_bytes(),
        m.counter_sum("mscclpp.") + m.counter_sum("nccl.") + m.counter_sum("msccl."),
        m.counter("sync.signals") + m.counter("sync.waits"),
        m.counter("proxy.puts"),
        e.clamped_past_events(),
    ]
}

fn summarize(
    rep: &mut Rep,
    groups: &[&Group],
    base: &[[u64; 6]],
    ok: u64,
    findings: usize,
    traced: bool,
) {
    let mut by_stack: [Vec<f64>; 3] = Default::default();
    let mut all_mscclpp = Vec::new();
    let mut deltas = [[0u64; 6]; 3];
    let mut launches = [0u64; 3];
    let mut host = [0.0f64; 3];
    for (g, b) in groups.iter().zip(base) {
        let s = Stack::ALL
            .iter()
            .position(|&s| s == g.stack)
            .expect("known stack");
        let now = counters(&g.engine);
        for k in 0..5 {
            deltas[s][k] += now[k] - b[k];
        }
        deltas[s][5] += now[5];
        for p in &g.points {
            let label = g.label(p);
            let lat = if p.virtual_us.is_empty() {
                f64::NAN
            } else {
                median(&p.virtual_us)
            };
            rep.exact.insert(format!("virt.{label}"), lat);
            rep.exact
                .insert(format!("virt_sum.{label}"), p.virtual_us.iter().sum());
            if let Some(c) = p.choice {
                rep.exact
                    .insert(format!("nccl_choice.{label}"), choice_code(c));
            }
            by_stack[s].push(lat);
            launches[s] += p.virtual_us.len() as u64;
            host[s] += p.host_s.iter().sum::<f64>();
            if g.stack == Stack::Mscclpp {
                all_mscclpp.extend(&p.virtual_us);
            }
        }
    }
    let clamped: u64 = deltas.iter().map(|d| d[5]).sum();
    if clamped != 0 {
        rep.fail(1, format!("{clamped} events clamped to the past"));
    }
    if findings != 0 {
        rep.fail(findings as u64, format!("{findings} commverify findings"));
    }
    let ratio = |base: &[f64]| {
        geomean(
            &base
                .iter()
                .zip(&by_stack[0])
                .map(|(b, m)| b / m)
                .collect::<Vec<_>>(),
        )
    };
    all_mscclpp.sort_by(f64::total_cmp);
    let x = &mut rep.exact;
    x.insert(
        "served_frac".into(),
        ok as f64 / rep.attempted.max(1) as f64,
    );
    x.insert(
        "goodput_rps".into(),
        all_mscclpp.len() as f64 / (all_mscclpp.iter().sum::<f64>() * 1e-6),
    );
    x.insert("lat_p50_ms".into(), nearest_rank(&all_mscclpp, 0.50) * 1e-3);
    x.insert("lat_p95_ms".into(), nearest_rank(&all_mscclpp, 0.95) * 1e-3);
    x.insert("coll_lat_us".into(), geomean(&by_stack[0]));
    x.insert("speedup_vs_nccl".into(), ratio(&by_stack[1]));
    x.insert("speedup_vs_msccl".into(), ratio(&by_stack[2]));
    let all: Vec<u64> = (0..6).map(|k| deltas.iter().map(|d| d[k]).sum()).collect();
    x.insert("sim.events".into(), all[0] as f64);
    x.insert("sim.clamped_past_events".into(), clamped as f64);
    x.insert("hw.moved_bytes".into(), all[1] as f64);
    let m = deltas[0];
    let n = launches[0].max(1) as f64;
    x.insert("mscclpp.instrs_per_launch".into(), m[2] as f64 / n);
    x.insert("mscclpp.syncs_per_launch".into(), m[3] as f64 / n);
    x.insert("mscclpp.proxy_puts_per_launch".into(), m[4] as f64 / n);
    if traced {
        let h = &mut rep.host;
        for (s, name) in [(0, "collective"), (1, "ncclsim"), (2, "msccl")] {
            h.insert(
                format!("{name}.launch_us"),
                host[s] / launches[s].max(1) as f64 * 1e6,
            );
        }
        h.insert("commverify.findings".into(), findings as f64);
    }
}

/// A stable numeric code for an NCCL tuner choice.
fn choice_code(c: Choice) -> f64 {
    let algo = match c.algo {
        ncclsim::Algo::Ring => 0.0,
        ncclsim::Algo::Tree => 1.0,
    };
    let proto = match c.proto {
        ncclsim::Proto::LL => 0.0,
        _ => 1.0,
    };
    algo * 100.0 + proto * 10.0 + c.channels as f64
}
