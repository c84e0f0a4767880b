//! Benchmark harness utilities: verified collective timing across the
//! three stacks (NCCL, MSCCL, MSCCL++) on any Table-1 environment.
//!
//! Every F16 collective measurement in this crate goes through one
//! runner, [`Measure`]. It names a [`Stack`], a [`Coll`], a [`Target`],
//! a byte count, the NCCL choice policy and an optional MSCCL++
//! algorithm, and each launch it makes follows the same discipline:
//!
//! 1. build a fresh simulated cluster and the stack's communicator;
//! 2. fill the input buffers with deterministic values chosen so FP16
//!    reductions are exact;
//! 3. run the collective **and verify the output** (fully up to 16 MB,
//!    sampled above) — a timing is only reported for a correct result;
//! 4. report latency (µs) and algorithm bandwidth
//!    (`message bytes / latency`, the paper's AlgoBW), together with the
//!    engine that ran it, so callers can read its counters and link
//!    accounting.
//!
//! The NCCL baseline picks its tuner [`ncclsim::Choice`] by one of two
//! policies ([`NcclPolicy`]). The figures and the observability report
//! *fine-tune* it per point as in §5.1: one launch per tuning candidate,
//! each on a fresh engine, and the fastest wins. The perf gate and the
//! utilization report take NCCL's own size-based tuner,
//! [`ncclsim::tune`], as a deployment would.

pub mod figures;
pub mod gate;
pub mod report;

use collective::{AllGatherAlgo, AllReduceAlgo, CollComm};
use hw::{BufferId, DataType, EnvKind, Machine, Rank, ReduceOp};
use mscclpp::Setup;
use ncclsim::{Choice, NcclComm, NcclConfig};
use sim::Engine;

/// Deterministic input element: values 0..7 so that 8-, 16- and 32-rank
/// FP16 sums stay exact.
pub fn input_val(rank: usize, i: usize) -> f32 {
    ((rank + i) % 8) as f32
}

/// One measured sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Message size in bytes.
    pub bytes: usize,
    /// Latency in microseconds.
    pub latency_us: f64,
}

impl Point {
    /// Algorithm bandwidth in GB/s (message bytes / latency).
    pub fn algbw_gbps(&self) -> f64 {
        self.bytes as f64 / (self.latency_us * 1e3)
    }
}

/// A benchmark target: one environment and node count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Target {
    /// The hardware environment.
    pub env: EnvKind,
    /// Number of nodes (8 GPUs each).
    pub nodes: usize,
}

impl Target {
    /// World size.
    pub fn world(&self) -> usize {
        self.nodes * 8
    }

    /// Label like `1n8g`.
    pub fn label(&self) -> String {
        format!("{}n{}g", self.nodes, self.nodes * 8)
    }
}

/// Which collective a measurement runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coll {
    /// AllReduce over the full world.
    AllReduce,
    /// AllGather over the full world (`bytes` is the per-rank chunk).
    AllGather,
}

/// Which stack runs the collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// The NCCL model (ring/tree, choice per [`NcclPolicy`]).
    Nccl,
    /// MSCCL over the NCCL transport (its own size-based tuner).
    Msccl,
    /// MSCCL++ (default algorithm selection unless overridden).
    Mscclpp,
}

impl Stack {
    /// The three stacks in table-column order.
    pub const ALL: [Stack; 3] = [Stack::Nccl, Stack::Msccl, Stack::Mscclpp];

    /// Lower-case name used in case names, counters and reports.
    pub fn name(self) -> &'static str {
        match self {
            Stack::Nccl => "nccl",
            Stack::Msccl => "msccl",
            Stack::Mscclpp => "mscclpp",
        }
    }
}

/// How the NCCL baseline picks its tuner [`Choice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NcclPolicy {
    /// NCCL's own size-based tuner, [`ncclsim::tune`]: one launch.
    Tuned,
    /// Fine-tuned per point (§5.1): one launch per tuning candidate, the
    /// fastest wins. Candidates are filtered by size to keep the set
    /// tractable, and AllGather only runs the ring.
    Best,
}

/// An explicit MSCCL++ algorithm, overriding the default selection. Its
/// collective must match the measurement's [`Coll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// An AllReduce algorithm.
    AllReduce(AllReduceAlgo),
    /// An AllGather algorithm.
    AllGather(AllGatherAlgo),
}

/// One verified F16 collective measurement: what runs, where, and how the
/// baselines are tuned. [`Measure::new`] gives the defaults (fine-tuned
/// NCCL, default MSCCL++ selection, out-of-place buffers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measure {
    /// The stack running the collective.
    pub stack: Stack,
    /// The collective.
    pub coll: Coll,
    /// Environment and node count.
    pub target: Target,
    /// Message bytes per rank (the per-rank chunk for AllGather).
    pub bytes: usize,
    /// How NCCL picks its choice; ignored by the other stacks.
    pub nccl: NcclPolicy,
    /// MSCCL++ algorithm override; ignored by the other stacks.
    pub algo: Option<Algo>,
    /// Reduce in place (outputs are the inputs). AllReduce only.
    pub in_place: bool,
}

/// One verified launch: its latency and the engine that ran it.
#[derive(Debug)]
pub struct Run {
    /// Message size (the gathered total for AllGather) and latency.
    pub point: Point,
    /// The NCCL choice that ran; `None` for the other stacks.
    pub choice: Option<Choice>,
    /// The engine, for its counters, link accounting and clamp count.
    pub engine: Engine<Machine>,
}

impl Measure {
    /// A measurement with fine-tuned NCCL, default MSCCL++ selection and
    /// out-of-place buffers.
    pub fn new(stack: Stack, coll: Coll, target: Target, bytes: usize) -> Measure {
        Measure {
            stack,
            coll,
            target,
            bytes,
            nccl: NcclPolicy::Best,
            algo: None,
            in_place: false,
        }
    }

    /// Bytes each rank's output holds (the message size of a [`Point`]).
    fn out_bytes(&self) -> usize {
        match self.coll {
            Coll::AllReduce => self.bytes,
            Coll::AllGather => self.bytes * self.target.world(),
        }
    }

    /// The NCCL choices this measurement launches, in order: one per
    /// [`NcclPolicy`] candidate. The other stacks launch once, with none.
    fn choices(&self) -> Vec<Option<Choice>> {
        let total = self.out_bytes();
        match (self.stack, self.nccl) {
            (Stack::Nccl, NcclPolicy::Tuned) => vec![Some(ncclsim::tune(total, self.target.nodes))],
            (Stack::Nccl, NcclPolicy::Best) => ncclsim::tuning_candidates(self.target.nodes)
                .into_iter()
                // The LL protocol is never competitive for very large
                // messages and costs the most to simulate.
                .filter(|c| total <= (8 << 20) || c.proto == ncclsim::Proto::Simple)
                .filter(|c| total >= (64 << 10) || c.channels == 1)
                .filter(|c| self.coll == Coll::AllReduce || c.algo == ncclsim::Algo::Ring)
                .map(Some)
                .collect(),
            _ => vec![None],
        }
    }

    /// One verified launch per choice in [`NcclPolicy`] order, each on a
    /// fresh engine.
    fn runs(&self) -> impl Iterator<Item = Run> + '_ {
        self.choices().into_iter().map(|choice| {
            let mut runner = Runner::new(fresh_engine(self.target), *self, choice);
            let latency_us = runner.launch();
            Run {
                point: Point {
                    bytes: self.out_bytes(),
                    latency_us,
                },
                choice,
                engine: runner.engine,
            }
        })
    }

    /// The fastest of the policy's launches (the first on a tie), with
    /// its engine.
    pub fn run(&self) -> Run {
        self.runs()
            .min_by(|a, b| a.point.latency_us.total_cmp(&b.point.latency_us))
            .expect("no NCCL tuning candidate")
    }

    /// The fastest point. Unlike [`Measure::run`] it keeps no engine
    /// alive while the next candidate runs.
    pub fn point(&self) -> Point {
        self.runs()
            .map(|r| r.point)
            .min_by(|a, b| a.latency_us.total_cmp(&b.latency_us))
            .expect("no NCCL tuning candidate")
    }
}

/// A stack's communicator, ready to launch a [`Measure`].
enum Comm {
    Nccl(NcclComm, Choice),
    Msccl(msccl::MscclComm),
    Mscclpp(CollComm),
}

/// A built measurement: communicator, filled inputs and outputs on one
/// engine, launched any number of times.
pub(crate) struct Runner {
    pub(crate) engine: Engine<Machine>,
    m: Measure,
    comm: Comm,
    ins: Vec<BufferId>,
    outs: Vec<BufferId>,
}

impl Runner {
    /// Builds `m`'s communicator on `engine` (NCCL with `choice`) and
    /// allocates and fills its buffers.
    pub(crate) fn new(mut engine: Engine<Machine>, m: Measure, choice: Option<Choice>) -> Runner {
        assert!(
            !m.in_place || m.coll == Coll::AllReduce,
            "only AllReduce runs in place"
        );
        let comm = match m.stack {
            Stack::Nccl => Comm::Nccl(
                NcclComm::new(&mut Setup::new(&mut engine), NcclConfig::nccl()),
                choice.expect("an NCCL measurement needs a choice"),
            ),
            Stack::Msccl => Comm::Msccl(msccl::MscclComm::new(
                &mut Setup::new(&mut engine),
                msccl::MscclConfig::default(),
            )),
            Stack::Mscclpp => Comm::Mscclpp(CollComm::new()),
        };
        let world = m.target.world();
        let ins = alloc_filled(&mut engine, world, m.bytes);
        let outs = if m.in_place {
            ins.clone()
        } else {
            (0..world)
                .map(|r| engine.world_mut().pool_mut().alloc(Rank(r), m.out_bytes()))
                .collect()
        };
        Runner {
            engine,
            m,
            comm,
            ins,
            outs,
        }
    }

    /// Launches the collective once, verifies every output and returns
    /// the latency in µs.
    ///
    /// # Panics
    ///
    /// On a launch error or a wrong output element.
    pub(crate) fn launch(&mut self) -> f64 {
        let Measure { coll, bytes, .. } = self.m;
        let (e, ins, outs) = (&mut self.engine, &self.ins[..], &self.outs[..]);
        let (count, f16, sum) = (bytes / 2, DataType::F16, ReduceOp::Sum);
        let timing = match (&self.comm, coll) {
            (Comm::Nccl(c, ch), Coll::AllReduce) => {
                c.all_reduce(e, ins, outs, count, f16, sum, *ch)
            }
            (Comm::Nccl(c, ch), Coll::AllGather) => c.all_gather(e, ins, outs, count, f16, *ch),
            (Comm::Msccl(c), Coll::AllReduce) => c.all_reduce(e, ins, outs, count, f16, sum, None),
            (Comm::Msccl(c), Coll::AllGather) => c.all_gather(e, ins, outs, count, f16, None),
            (Comm::Mscclpp(c), _) => match (coll, self.m.algo) {
                (Coll::AllReduce, None) => c.all_reduce(e, ins, outs, count, f16, sum),
                (Coll::AllReduce, Some(Algo::AllReduce(a))) => {
                    c.all_reduce_with(e, ins, outs, count, f16, sum, a)
                }
                (Coll::AllGather, None) => c.all_gather(e, ins, outs, count, f16),
                (Coll::AllGather, Some(Algo::AllGather(a))) => {
                    c.all_gather_with(e, ins, outs, count, f16, a)
                }
                (_, Some(a)) => panic!("{a:?} does not run a {coll:?}"),
            },
        };
        let tag = self.m.stack.name();
        let timing = timing.unwrap_or_else(|err| panic!("{tag} {coll:?}: {err}"));
        let world = self.m.target.world();
        match coll {
            Coll::AllReduce => verify_allreduce(e, outs, bytes, world, tag),
            Coll::AllGather => verify_allgather(e, outs, bytes, world, tag),
        }
        timing.elapsed().as_us()
    }
}

fn fresh_engine(t: Target) -> Engine<Machine> {
    let mut e = Engine::new(Machine::new(t.env.spec(t.nodes)));
    hw::wire(&mut e);
    e
}

fn alloc_filled(e: &mut Engine<Machine>, world: usize, bytes: usize) -> Vec<BufferId> {
    (0..world)
        .map(|r| {
            let b = e.world_mut().pool_mut().alloc(Rank(r), bytes);
            e.world_mut()
                .pool_mut()
                .fill_with(b, DataType::F16, move |i| input_val(r, i));
            b
        })
        .collect()
}

/// Verification sampling threshold: fully verify up to this size.
const FULL_VERIFY_BYTES: usize = 16 << 20;

fn verify_allreduce(e: &Engine<Machine>, outs: &[BufferId], bytes: usize, world: usize, tag: &str) {
    let count = bytes / 2;
    let idxs: Vec<usize> = if bytes <= FULL_VERIFY_BYTES {
        (0..count).collect()
    } else {
        (0..4096).map(|k| k * (count / 4096)).collect()
    };
    for (r, &out) in outs.iter().enumerate() {
        let data = e.world().pool().bytes(out, 0, bytes);
        for &i in &idxs {
            let got = DataType::F16.decode(data, i * 2);
            let want: f32 = (0..world).map(|s| input_val(s, i)).sum();
            assert_eq!(got, want, "{tag}: allreduce rank {r} elem {i}");
        }
    }
}

fn verify_allgather(
    e: &Engine<Machine>,
    outs: &[BufferId],
    chunk_bytes: usize,
    world: usize,
    tag: &str,
) {
    let chunk_elems = chunk_bytes / 2;
    let idxs: Vec<usize> = if chunk_bytes <= FULL_VERIFY_BYTES / 8 {
        (0..chunk_elems).collect()
    } else {
        (0..512).map(|k| k * (chunk_elems / 512)).collect()
    };
    for (r, &out) in outs.iter().enumerate() {
        let data = e.world().pool().bytes(out, 0, chunk_bytes * world);
        for src in 0..world {
            for &i in &idxs {
                let got = DataType::F16.decode(data, (src * chunk_elems + i) * 2);
                assert_eq!(
                    got,
                    input_val(src, i),
                    "{tag}: allgather rank {r} chunk {src}"
                );
            }
        }
    }
}

/// Formats a byte count like the paper's axis labels.
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 30 {
        format!("{}GB", b >> 30)
    } else if b >= 1 << 20 {
        format!("{}MB", b >> 20)
    } else if b >= 1 << 10 {
        format!("{}KB", b >> 10)
    } else {
        format!("{b}B")
    }
}

/// The small-message sizes (latency plots): 1 KB – 1 MB.
pub fn small_sizes() -> Vec<usize> {
    (10..=20).map(|p| 1usize << p).collect()
}

/// The large-message sizes (AlgoBW plots): 1 MB – `max`.
pub fn large_sizes(max: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut b = 1usize << 20;
    while b <= max {
        v.push(b);
        b <<= 2;
    }
    v
}

/// Prints one sweep table with NCCL / MSCCL / MSCCL++ columns.
pub fn print_sweep(
    title: &str,
    unit: &str,
    rows: &[(usize, f64, f64, f64)],
    speedup_of: impl Fn(&(usize, f64, f64, f64)) -> (f64, f64),
) {
    println!("\n== {title} ==");
    println!(
        "{:>8} | {:>12} {:>12} {:>12} | {:>9} {:>9}",
        "size",
        format!("NCCL {unit}"),
        format!("MSCCL {unit}"),
        format!("MSCCL++ {unit}"),
        "vs NCCL",
        "vs MSCCL"
    );
    for row in rows {
        let (s_nccl, s_msccl) = speedup_of(row);
        println!(
            "{:>8} | {:>12.2} {:>12.2} {:>12.2} | {:>8.2}x {:>8.2}x",
            fmt_bytes(row.0),
            row.1,
            row.2,
            row.3,
            s_nccl,
            s_msccl
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_report_consistent_bandwidth() {
        let p = Point {
            bytes: 1 << 20,
            latency_us: 100.0,
        };
        // 1 MiB in 100 us = ~10.49 GB/s.
        assert!((p.algbw_gbps() - 10.49).abs() < 0.01);
    }

    #[test]
    fn sizes_cover_paper_ranges() {
        let s = small_sizes();
        assert_eq!(*s.first().unwrap(), 1 << 10);
        assert_eq!(*s.last().unwrap(), 1 << 20);
        let l = large_sizes(256 << 20);
        assert_eq!(*l.first().unwrap(), 1 << 20);
        assert_eq!(*l.last().unwrap(), 256 << 20);
    }

    #[test]
    fn fmt_bytes_matches_axis_labels() {
        assert_eq!(fmt_bytes(1 << 10), "1KB");
        assert_eq!(fmt_bytes(256 << 20), "256MB");
        assert_eq!(fmt_bytes(1 << 30), "1GB");
    }

    #[test]
    fn verified_point_smoke() {
        let t = Target {
            env: EnvKind::A100_40G,
            nodes: 1,
        };
        let p = Measure::new(Stack::Mscclpp, Coll::AllReduce, t, 4096).point();
        assert!(p.latency_us > 1.0 && p.latency_us < 100.0);
    }
}
