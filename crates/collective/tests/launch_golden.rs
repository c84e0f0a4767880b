//! Launch golden pass: exact virtual-time results for every algorithm
//! variant of the five collectives, for shrunken epochs and for the
//! automatic fault degradations.
//!
//! Each case pins four numbers: the launch's `KernelTiming::elapsed()` in
//! picoseconds (zero when the launch fails), the engine's
//! `events_processed()` after it, the `fault.replans` counter, and an
//! FNV-1a digest of the `Debug` text of the kernel batch the matching
//! `plan_*_with` call compiles (of the error text when the launch or the
//! plan fails). Any change to selection, re-planning, channel wiring or
//! kernel construction moves at least one of them.
//!
//! When a deliberate change moves a number, the failure message prints
//! the whole recomputed table in the `GOLDEN` syntax.

use collective::{
    AllGatherAlgo, AllReduceAlgo, AllToAllAlgo, BroadcastAlgo, CollComm, PeerOrder,
    ReduceScatterAlgo, ScratchReuse,
};
use hw::{BufferId, DataType, EnvKind, Machine, Rank, ReduceOp};
use mscclpp::Kernel;
use sim::{Engine, FaultPlan, Time};

/// One collective call: which collective, and the algorithm passed to the
/// explicit entry point and to its `plan_*_with` twin.
#[derive(Debug, Clone, Copy)]
enum Call {
    Ar(AllReduceAlgo),
    Ag(AllGatherAlgo),
    Rs(ReduceScatterAlgo),
    Bc(BroadcastAlgo),
    A2a(AllToAllAlgo),
}

impl Call {
    /// `(LL-range, HB-range)` message sizes in bytes, each on the matching
    /// side of the collective's selection threshold. `count` is derived
    /// from it with the collective's own meaning (per-rank contribution
    /// for AllGather, per-peer chunk for AllToAll, whole buffer
    /// otherwise).
    fn sizes(self) -> [usize; 2] {
        match self {
            Call::Ar(_) => [32 << 10, 1 << 20],
            Call::Ag(_) => [16 << 10, 256 << 10],
            Call::Rs(_) | Call::Bc(_) => [64 << 10, 2 << 20],
            Call::A2a(_) => [8 << 10, 256 << 10],
        }
    }
}

/// How a case reaches the collective.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// The `*_with` entry point, with the case's algorithm.
    Explicit,
    /// The automatic entry point; the case's algorithm is the one the
    /// automatic path is expected to plan, and feeds `plan_*_with`.
    Auto,
}

struct Case {
    env: EnvKind,
    nodes: usize,
    bytes: usize,
    call: Call,
    entry: Entry,
    /// Ranks evicted by a shrink before the launch.
    dead: &'static [usize],
    fault: Option<(&'static str, FaultPlan)>,
}

impl Case {
    fn name(&self) -> String {
        let mut name = format!(
            "{:?}/{}n/{}B/{:?}/{:?}",
            self.env, self.nodes, self.bytes, self.entry, self.call
        );
        if !self.dead.is_empty() {
            name += &format!("/dead{:?}", self.dead);
        }
        if let Some((label, _)) = &self.fault {
            name += &format!("/{label}");
        }
        name
    }
}

const ROOT: Rank = Rank(1);

fn val(r: usize, i: usize) -> f32 {
    ((r * 7 + i * 3) % 11) as f32
}

fn alloc(e: &mut Engine<Machine>, n: usize, bytes: usize, fill: bool) -> Vec<BufferId> {
    (0..n)
        .map(|r| {
            let b = e.world_mut().pool_mut().alloc(Rank(r), bytes);
            if fill {
                e.world_mut()
                    .pool_mut()
                    .fill_with(b, DataType::F32, move |i| val(r, i));
            }
            b
        })
        .collect()
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs one case on a fresh engine and communicator:
/// `(elapsed_ps, events_processed, fault.replans, kernel digest)`.
fn run(case: &Case) -> (u64, u64, u64, u64) {
    let mut e = Engine::new(Machine::new(case.env.spec(case.nodes)));
    if let Some((_, plan)) = &case.fault {
        e.set_fault_plan(plan.clone());
    }
    hw::wire(&mut e);
    let n = e.world().topology().world_size();
    let count = case.bytes / 4;
    let (in_bytes, out_bytes) = match case.call {
        Call::Ar(_) | Call::Rs(_) | Call::Bc(_) => (case.bytes, case.bytes),
        Call::Ag(_) => (case.bytes, case.bytes * n),
        Call::A2a(_) => (case.bytes * n, case.bytes * n),
    };
    let inputs = alloc(&mut e, n, in_bytes, true);
    let outputs = alloc(&mut e, n, out_bytes, false);
    let comm = CollComm::new();
    if !case.dead.is_empty() {
        let dead: Vec<Rank> = case.dead.iter().copied().map(Rank).collect();
        comm.shrink(&mut e, &dead).expect("shrink");
    }
    let (i, o) = (&inputs[..], &outputs[..]);
    let (f32, sum) = (DataType::F32, ReduceOp::Sum);
    let auto = matches!(case.entry, Entry::Auto);
    let launched = match case.call {
        Call::Ar(_) if auto => comm.all_reduce(&mut e, i, o, count, f32, sum),
        Call::Ag(_) if auto => comm.all_gather(&mut e, i, o, count, f32),
        Call::Rs(_) if auto => comm.reduce_scatter(&mut e, i, o, count, f32, sum),
        Call::Bc(_) if auto => comm.broadcast(&mut e, i, o, count, f32, ROOT),
        Call::A2a(_) if auto => comm.all_to_all(&mut e, i, o, count, f32),
        Call::Ar(a) => comm.all_reduce_with(&mut e, i, o, count, f32, sum, a),
        Call::Ag(a) => comm.all_gather_with(&mut e, i, o, count, f32, a),
        Call::Rs(a) => comm.reduce_scatter_with(&mut e, i, o, count, f32, sum, a),
        Call::Bc(a) => comm.broadcast_with(&mut e, i, o, count, f32, ROOT, a),
        Call::A2a(a) => comm.all_to_all_with(&mut e, i, o, count, f32, a),
    };
    let events = e.events_processed();
    let replans = e.metrics().counter("fault.replans");
    let (elapsed, digest) = match launched {
        Ok(t) => {
            let planned: mscclpp::Result<Vec<Kernel>> = match case.call {
                Call::Ar(a) => comm.plan_all_reduce_with(&mut e, i, o, count, f32, sum, a),
                Call::Ag(a) => comm.plan_all_gather_with(&mut e, i, o, count, f32, a),
                Call::Rs(a) => comm.plan_reduce_scatter_with(&mut e, i, o, count, f32, sum, a),
                Call::Bc(a) => comm.plan_broadcast_with(&mut e, i, o, count, f32, ROOT, a),
                Call::A2a(a) => comm.plan_all_to_all_with(&mut e, i, o, count, f32, a),
            }
            .map(|(kernels, _spec)| kernels);
            let text = match planned {
                Ok(kernels) => format!("{kernels:?}"),
                Err(err) => format!("plan error: {err}"),
            };
            (t.elapsed().as_ps(), fnv1a(&text))
        }
        Err(err) => (0, fnv1a(&format!("launch error: {err}"))),
    };
    (elapsed, events, replans, digest)
}

fn all_reduce_algos() -> Vec<AllReduceAlgo> {
    let mut algos = vec![AllReduceAlgo::OnePhaseLl];
    for reuse in [ScratchReuse::Rotate, ScratchReuse::Barrier] {
        for order in [PeerOrder::Staggered, PeerOrder::Sequential] {
            algos.push(AllReduceAlgo::TwoPhaseLl { reuse, order });
        }
    }
    for order in [PeerOrder::Staggered, PeerOrder::Sequential] {
        algos.push(AllReduceAlgo::TwoPhaseHb { order });
    }
    algos.extend([
        AllReduceAlgo::TwoPhasePort,
        AllReduceAlgo::TwoPhaseSwitch,
        AllReduceAlgo::HierLl,
        AllReduceAlgo::HierHb,
        AllReduceAlgo::Ring,
    ]);
    algos
}

fn every_call() -> Vec<Call> {
    let mut calls: Vec<Call> = all_reduce_algos().into_iter().map(Call::Ar).collect();
    calls.extend(
        [
            AllGatherAlgo::AllPairsLl,
            AllGatherAlgo::AllPairsHb,
            AllGatherAlgo::AllPairsPort,
            AllGatherAlgo::HierLl,
            AllGatherAlgo::HierHb,
        ]
        .map(Call::Ag),
    );
    calls.extend([ReduceScatterAlgo::AllPairsLl, ReduceScatterAlgo::AllPairsHb].map(Call::Rs));
    calls.extend([BroadcastAlgo::Direct, BroadcastAlgo::Switch].map(Call::Bc));
    calls.extend([AllToAllAlgo::AllPairsLl, AllToAllAlgo::AllPairsHb].map(Call::A2a));
    calls
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    // Healthy: every variant of every collective, both size ranges.
    for (env, nodes) in [
        (EnvKind::A100_40G, 1),
        (EnvKind::H100, 1),
        (EnvKind::A100_40G, 2),
    ] {
        for call in every_call() {
            for bytes in call.sizes() {
                cases.push(Case {
                    env,
                    nodes,
                    bytes,
                    call,
                    entry: Entry::Explicit,
                    dead: &[],
                    fault: None,
                });
            }
        }
    }
    // Shrunken epochs through the automatic entry points: a member death
    // (survivors still span both nodes) and a whole-node loss (survivors
    // collapse onto node 0). `call` is what the automatic path selects
    // on the full 2n16g world.
    for dead in [&[3usize][..], &[8, 9, 10, 11, 12, 13, 14, 15]] {
        for (ll, hb) in [
            (
                Call::Ar(AllReduceAlgo::HierLl),
                Call::Ar(AllReduceAlgo::HierHb),
            ),
            (
                Call::Ag(AllGatherAlgo::HierLl),
                Call::Ag(AllGatherAlgo::HierHb),
            ),
            (
                Call::Rs(ReduceScatterAlgo::AllPairsLl),
                Call::Rs(ReduceScatterAlgo::AllPairsHb),
            ),
            (
                Call::Bc(BroadcastAlgo::Direct),
                Call::Bc(BroadcastAlgo::Direct),
            ),
            (
                Call::A2a(AllToAllAlgo::AllPairsLl),
                Call::A2a(AllToAllAlgo::AllPairsHb),
            ),
        ] {
            for (call, bytes) in [ll, hb].into_iter().zip(ll.sizes()) {
                cases.push(Case {
                    env: EnvKind::A100_40G,
                    nodes: 2,
                    bytes,
                    call,
                    entry: Entry::Auto,
                    dead,
                    fault: None,
                });
            }
        }
    }
    // Automatic degradations around permanent faults. `call` is the
    // algorithm the degraded plan must run.
    let hb = AllReduceAlgo::TwoPhaseHb {
        order: PeerOrder::Staggered,
    };
    let multimem_down = || {
        Some((
            "multimem-down",
            FaultPlan::new(7).multimem_down_forever(Time::ZERO),
        ))
    };
    cases.push(Case {
        env: EnvKind::H100,
        nodes: 1,
        bytes: 1 << 20,
        call: Call::Ar(hb),
        entry: Entry::Auto,
        dead: &[],
        fault: multimem_down(),
    });
    cases.push(Case {
        env: EnvKind::H100,
        nodes: 1,
        bytes: 2 << 20,
        call: Call::Bc(BroadcastAlgo::Direct),
        entry: Entry::Auto,
        dead: &[],
        fault: multimem_down(),
    });
    for bytes in Call::Ar(hb).sizes() {
        cases.push(Case {
            env: EnvKind::MI300X,
            nodes: 1,
            bytes,
            call: Call::Ar(AllReduceAlgo::Ring),
            entry: Entry::Auto,
            dead: &[],
            fault: Some((
                "link-2-3-down",
                FaultPlan::new(7).link_down_forever(2, 3, Time::ZERO),
            )),
        });
    }
    cases
}

/// `(case, elapsed_ps, events_processed, fault.replans, kernel digest)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64, u64, u64)] = &[
    ("A100_40G/1n/32768B/Explicit/Ar(OnePhaseLl)", 7703461, 304, 0, 0xb4d0081a3c44d573),
    ("A100_40G/1n/1048576B/Explicit/Ar(OnePhaseLl)", 84070717, 304, 0, 0xd98af7ba1a31c26b),
    ("A100_40G/1n/32768B/Explicit/Ar(TwoPhaseLl { reuse: Rotate, order: Staggered })", 7620273, 1056, 0, 0x3209dd652b6b903d),
    ("A100_40G/1n/1048576B/Explicit/Ar(TwoPhaseLl { reuse: Rotate, order: Staggered })", 22955122, 1056, 0, 0x433498759d98e623),
    ("A100_40G/1n/32768B/Explicit/Ar(TwoPhaseLl { reuse: Rotate, order: Sequential })", 7638317, 1056, 0, 0x75b8330e684ca433),
    ("A100_40G/1n/1048576B/Explicit/Ar(TwoPhaseLl { reuse: Rotate, order: Sequential })", 23215122, 1056, 0, 0xaf024d8e19506281),
    ("A100_40G/1n/32768B/Explicit/Ar(TwoPhaseLl { reuse: Barrier, order: Staggered })", 8740273, 1080, 0, 0x4dcaf0558ef82871),
    ("A100_40G/1n/1048576B/Explicit/Ar(TwoPhaseLl { reuse: Barrier, order: Staggered })", 24075122, 1080, 0, 0xcd11a53b38989207),
    ("A100_40G/1n/32768B/Explicit/Ar(TwoPhaseLl { reuse: Barrier, order: Sequential })", 8740273, 1080, 0, 0x4800d139806c784f),
    ("A100_40G/1n/1048576B/Explicit/Ar(TwoPhaseLl { reuse: Barrier, order: Sequential })", 23215122, 1080, 0, 0x5d480212b3af7f1d),
    ("A100_40G/1n/32768B/Explicit/Ar(TwoPhaseHb { order: Staggered })", 12253813, 1440, 0, 0xa337693b45f89cd3),
    ("A100_40G/1n/1048576B/Explicit/Ar(TwoPhaseHb { order: Staggered })", 16783393, 1440, 0, 0x4ad6180bec20b415),
    ("A100_40G/1n/32768B/Explicit/Ar(TwoPhaseHb { order: Sequential })", 12267346, 1440, 0, 0x2a68be4187a69907),
    ("A100_40G/1n/1048576B/Explicit/Ar(TwoPhaseHb { order: Sequential })", 16903393, 1440, 0, 0xfd66d3fe1d6fa055),
    ("A100_40G/1n/32768B/Explicit/Ar(TwoPhasePort)", 8695278, 4800, 0, 0x739541575753e2af),
    ("A100_40G/1n/1048576B/Explicit/Ar(TwoPhasePort)", 13245141, 4800, 0, 0x3d5f603c6bba1d29),
    ("A100_40G/1n/32768B/Explicit/Ar(TwoPhaseSwitch)", 0, 0, 0, 0xebe2dff4de23d0f8),
    ("A100_40G/1n/1048576B/Explicit/Ar(TwoPhaseSwitch)", 0, 0, 0, 0xebe2dff4de23d0f8),
    ("A100_40G/1n/32768B/Explicit/Ar(HierLl)", 0, 0, 0, 0xf594f88f2ed57cd2),
    ("A100_40G/1n/1048576B/Explicit/Ar(HierLl)", 0, 0, 0, 0xf594f88f2ed57cd2),
    ("A100_40G/1n/32768B/Explicit/Ar(HierHb)", 0, 0, 0, 0xf594f88f2ed57cd2),
    ("A100_40G/1n/1048576B/Explicit/Ar(HierHb)", 0, 0, 0, 0xf594f88f2ed57cd2),
    ("A100_40G/1n/32768B/Explicit/Ar(Ring)", 22669003, 640, 0, 0x29a59d0eb494ed73),
    ("A100_40G/1n/1048576B/Explicit/Ar(Ring)", 32868169, 640, 0, 0xdd886178c5bab681),
    ("A100_40G/1n/16384B/Explicit/Ag(AllPairsLl)", 6110464, 248, 0, 0x34f70493844ab475),
    ("A100_40G/1n/262144B/Explicit/Ag(AllPairsLl)", 21267473, 248, 0, 0x24a770549c56fd23),
    ("A100_40G/1n/16384B/Explicit/Ag(AllPairsHb)", 5576308, 1216, 0, 0x38166bf5cf8b7331),
    ("A100_40G/1n/262144B/Explicit/Ag(AllPairsHb)", 13053740, 1216, 0, 0x100336f32a82d1f1),
    ("A100_40G/1n/16384B/Explicit/Ag(AllPairsPort)", 5822296, 2336, 0, 0xb68dcd3795e6325b),
    ("A100_40G/1n/262144B/Explicit/Ag(AllPairsPort)", 11717208, 2336, 0, 0x40e138a07b5a00f5),
    ("A100_40G/1n/16384B/Explicit/Ag(HierLl)", 0, 0, 0, 0xb6385a876bbecfb9),
    ("A100_40G/1n/262144B/Explicit/Ag(HierLl)", 0, 0, 0, 0xb6385a876bbecfb9),
    ("A100_40G/1n/16384B/Explicit/Ag(HierHb)", 0, 0, 0, 0xb6385a876bbecfb9),
    ("A100_40G/1n/262144B/Explicit/Ag(HierHb)", 0, 0, 0, 0xb6385a876bbecfb9),
    ("A100_40G/1n/65536B/Explicit/Rs(AllPairsLl)", 5855867, 304, 0, 0x206d6e444e59ad43),
    ("A100_40G/1n/2097152B/Explicit/Rs(AllPairsLl)", 24947681, 304, 0, 0x9bc2c567b9d2c863),
    ("A100_40G/1n/65536B/Explicit/Rs(AllPairsHb)", 5680811, 1440, 0, 0x8782bab416632249),
    ("A100_40G/1n/2097152B/Explicit/Rs(AllPairsHb)", 14517956, 1440, 0, 0xf2fe2f2a621ad71b),
    ("A100_40G/1n/65536B/Explicit/Bc(Direct)", 6421464, 208, 0, 0xb74796bac6a347f5),
    ("A100_40G/1n/2097152B/Explicit/Bc(Direct)", 69397055, 208, 0, 0xcedaa917947a8705),
    ("A100_40G/1n/65536B/Explicit/Bc(Switch)", 0, 0, 0, 0xebe2dff4de23d0f8),
    ("A100_40G/1n/2097152B/Explicit/Bc(Switch)", 0, 0, 0, 0xebe2dff4de23d0f8),
    ("A100_40G/1n/8192B/Explicit/A2a(AllPairsLl)", 5605232, 248, 0, 0x904441a7989d81cf),
    ("A100_40G/1n/262144B/Explicit/A2a(AllPairsLl)", 21267473, 248, 0, 0x15839193962fcaa9),
    ("A100_40G/1n/8192B/Explicit/A2a(AllPairsHb)", 5513154, 1216, 0, 0x47e61f589155b9e9),
    ("A100_40G/1n/262144B/Explicit/A2a(AllPairsHb)", 13053740, 1216, 0, 0x89c9a022b9a3547f),
    ("H100/1n/32768B/Explicit/Ar(OnePhaseLl)", 6192288, 304, 0, 0xb4d0081a3c44d573),
    ("H100/1n/1048576B/Explicit/Ar(OnePhaseLl)", 48113321, 304, 0, 0xd98af7ba1a31c26b),
    ("H100/1n/32768B/Explicit/Ar(TwoPhaseLl { reuse: Rotate, order: Staggered })", 6896198, 1056, 0, 0x3209dd652b6b903d),
    ("H100/1n/1048576B/Explicit/Ar(TwoPhaseLl { reuse: Rotate, order: Staggered })", 15005426, 1056, 0, 0x433498759d98e623),
    ("H100/1n/32768B/Explicit/Ar(TwoPhaseLl { reuse: Rotate, order: Sequential })", 6906438, 1056, 0, 0x75b8330e684ca433),
    ("H100/1n/1048576B/Explicit/Ar(TwoPhaseLl { reuse: Rotate, order: Sequential })", 15278183, 1056, 0, 0xaf024d8e19506281),
    ("H100/1n/32768B/Explicit/Ar(TwoPhaseLl { reuse: Barrier, order: Staggered })", 7816198, 1080, 0, 0xe940bfd1c08f1cb1),
    ("H100/1n/1048576B/Explicit/Ar(TwoPhaseLl { reuse: Barrier, order: Staggered })", 15925426, 1080, 0, 0x5ccaf3bc921ce02b),
    ("H100/1n/32768B/Explicit/Ar(TwoPhaseLl { reuse: Barrier, order: Sequential })", 7816198, 1080, 0, 0x2ca43e9e4ff2854b),
    ("H100/1n/1048576B/Explicit/Ar(TwoPhaseLl { reuse: Barrier, order: Sequential })", 15870503, 1080, 0, 0xa5d211fd7f98ea8d),
    ("H100/1n/32768B/Explicit/Ar(TwoPhaseHb { order: Staggered })", 10426146, 1440, 0, 0xa337693b45f89cd3),
    ("H100/1n/1048576B/Explicit/Ar(TwoPhaseHb { order: Staggered })", 12786981, 1440, 0, 0x4ad6180bec20b415),
    ("H100/1n/32768B/Explicit/Ar(TwoPhaseHb { order: Sequential })", 10433826, 1440, 0, 0x2a68be4187a69907),
    ("H100/1n/1048576B/Explicit/Ar(TwoPhaseHb { order: Sequential })", 12906981, 1440, 0, 0xfd66d3fe1d6fa055),
    ("H100/1n/32768B/Explicit/Ar(TwoPhasePort)", 8078971, 4800, 0, 0x739541575753e2af),
    ("H100/1n/1048576B/Explicit/Ar(TwoPhasePort)", 9863789, 4800, 0, 0x3d5f603c6bba1d29),
    ("H100/1n/32768B/Explicit/Ar(TwoPhaseSwitch)", 4653944, 152, 0, 0x2f61458a6feaeb25),
    ("H100/1n/1048576B/Explicit/Ar(TwoPhaseSwitch)", 6946572, 152, 0, 0x85a6f31aee0e0093),
    ("H100/1n/32768B/Explicit/Ar(HierLl)", 0, 0, 0, 0xf594f88f2ed57cd2),
    ("H100/1n/1048576B/Explicit/Ar(HierLl)", 0, 0, 0, 0xf594f88f2ed57cd2),
    ("H100/1n/32768B/Explicit/Ar(HierHb)", 0, 0, 0, 0xf594f88f2ed57cd2),
    ("H100/1n/1048576B/Explicit/Ar(HierHb)", 0, 0, 0, 0xf594f88f2ed57cd2),
    ("H100/1n/32768B/Explicit/Ar(Ring)", 19518817, 640, 0, 0x29a59d0eb494ed73),
    ("H100/1n/1048576B/Explicit/Ar(Ring)", 25062174, 640, 0, 0xdd886178c5bab681),
    ("H100/1n/16384B/Explicit/Ag(AllPairsLl)", 5273440, 248, 0, 0x34f70493844ab475),
    ("H100/1n/262144B/Explicit/Ag(AllPairsLl)", 13875040, 248, 0, 0x24a770549c56fd23),
    ("H100/1n/16384B/Explicit/Ag(AllPairsHb)", 5121680, 1216, 0, 0x38166bf5cf8b7331),
    ("H100/1n/262144B/Explicit/Ag(AllPairsHb)", 9157520, 1216, 0, 0x100336f32a82d1f1),
    ("H100/1n/16384B/Explicit/Ag(AllPairsPort)", 5397236, 2336, 0, 0xb68dcd3795e6325b),
    ("H100/1n/262144B/Explicit/Ag(AllPairsPort)", 8510460, 2336, 0, 0x40e138a07b5a00f5),
    ("H100/1n/16384B/Explicit/Ag(HierLl)", 0, 0, 0, 0xb6385a876bbecfb9),
    ("H100/1n/262144B/Explicit/Ag(HierLl)", 0, 0, 0, 0xb6385a876bbecfb9),
    ("H100/1n/16384B/Explicit/Ag(HierHb)", 0, 0, 0, 0xb6385a876bbecfb9),
    ("H100/1n/262144B/Explicit/Ag(HierHb)", 0, 0, 0, 0xb6385a876bbecfb9),
    ("H100/1n/65536B/Explicit/Rs(AllPairsLl)", 5178072, 304, 0, 0x206d6e444e59ad43),
    ("H100/1n/2097152B/Explicit/Rs(AllPairsLl)", 15658332, 304, 0, 0x9bc2c567b9d2c863),
    ("H100/1n/65536B/Explicit/Rs(AllPairsHb)", 5238678, 1440, 0, 0x8782bab416632249),
    ("H100/1n/2097152B/Explicit/Rs(AllPairsHb)", 9652890, 1440, 0, 0xf2fe2f2a621ad71b),
    ("H100/1n/65536B/Explicit/Bc(Direct)", 5141771, 208, 0, 0xb74796bac6a347f5),
    ("H100/1n/2097152B/Explicit/Bc(Direct)", 40846664, 208, 0, 0xcedaa917947a8705),
    ("H100/1n/65536B/Explicit/Bc(Switch)", 3845511, 92, 0, 0xbb3c5cd4171891d3),
    ("H100/1n/2097152B/Explicit/Bc(Switch)", 8705424, 92, 0, 0xf39d6af3125cd86f),
    ("H100/1n/8192B/Explicit/A2a(AllPairsLl)", 4986720, 248, 0, 0x904441a7989d81cf),
    ("H100/1n/262144B/Explicit/A2a(AllPairsLl)", 13875040, 248, 0, 0x15839193962fcaa9),
    ("H100/1n/8192B/Explicit/A2a(AllPairsHb)", 5085840, 1216, 0, 0x47e61f589155b9e9),
    ("H100/1n/262144B/Explicit/A2a(AllPairsHb)", 9157520, 1216, 0, 0x89c9a022b9a3547f),
    ("A100_40G/2n/32768B/Explicit/Ar(OnePhaseLl)", 0, 0, 0, 0xba310be3204fbb71),
    ("A100_40G/2n/1048576B/Explicit/Ar(OnePhaseLl)", 0, 0, 0, 0xba310be3204fbb71),
    ("A100_40G/2n/32768B/Explicit/Ar(TwoPhaseLl { reuse: Rotate, order: Staggered })", 0, 0, 0, 0xba310be3204fbb71),
    ("A100_40G/2n/1048576B/Explicit/Ar(TwoPhaseLl { reuse: Rotate, order: Staggered })", 0, 0, 0, 0xba310be3204fbb71),
    ("A100_40G/2n/32768B/Explicit/Ar(TwoPhaseLl { reuse: Rotate, order: Sequential })", 0, 0, 0, 0xba310be3204fbb71),
    ("A100_40G/2n/1048576B/Explicit/Ar(TwoPhaseLl { reuse: Rotate, order: Sequential })", 0, 0, 0, 0xba310be3204fbb71),
    ("A100_40G/2n/32768B/Explicit/Ar(TwoPhaseLl { reuse: Barrier, order: Staggered })", 0, 0, 0, 0xba310be3204fbb71),
    ("A100_40G/2n/1048576B/Explicit/Ar(TwoPhaseLl { reuse: Barrier, order: Staggered })", 0, 0, 0, 0xba310be3204fbb71),
    ("A100_40G/2n/32768B/Explicit/Ar(TwoPhaseLl { reuse: Barrier, order: Sequential })", 0, 0, 0, 0xba310be3204fbb71),
    ("A100_40G/2n/1048576B/Explicit/Ar(TwoPhaseLl { reuse: Barrier, order: Sequential })", 0, 0, 0, 0xba310be3204fbb71),
    ("A100_40G/2n/32768B/Explicit/Ar(TwoPhaseHb { order: Staggered })", 0, 0, 0, 0xba310be3204fbb71),
    ("A100_40G/2n/1048576B/Explicit/Ar(TwoPhaseHb { order: Staggered })", 0, 0, 0, 0xba310be3204fbb71),
    ("A100_40G/2n/32768B/Explicit/Ar(TwoPhaseHb { order: Sequential })", 0, 0, 0, 0xba310be3204fbb71),
    ("A100_40G/2n/1048576B/Explicit/Ar(TwoPhaseHb { order: Sequential })", 0, 0, 0, 0xba310be3204fbb71),
    ("A100_40G/2n/32768B/Explicit/Ar(TwoPhasePort)", 14397247, 20352, 0, 0x051cf9475044e943),
    ("A100_40G/2n/1048576B/Explicit/Ar(TwoPhasePort)", 48740188, 20352, 0, 0xce8fb631bc583a57),
    ("A100_40G/2n/32768B/Explicit/Ar(TwoPhaseSwitch)", 0, 0, 0, 0xebe2dff4de23d0f8),
    ("A100_40G/2n/1048576B/Explicit/Ar(TwoPhaseSwitch)", 0, 0, 0, 0xebe2dff4de23d0f8),
    ("A100_40G/2n/32768B/Explicit/Ar(HierLl)", 10012288, 1280, 0, 0x396664c5832ceadb),
    ("A100_40G/2n/1048576B/Explicit/Ar(HierLl)", 32713322, 1280, 0, 0xe322a0b7d58a4179),
    ("A100_40G/2n/32768B/Explicit/Ar(HierHb)", 16157201, 4288, 0, 0x248d58401b976e9f),
    ("A100_40G/2n/1048576B/Explicit/Ar(HierHb)", 22225722, 4288, 0, 0x670aeca6166a4279),
    ("A100_40G/2n/32768B/Explicit/Ar(Ring)", 0, 0, 0, 0x544e8a0a846487ba),
    ("A100_40G/2n/1048576B/Explicit/Ar(Ring)", 0, 0, 0, 0x544e8a0a846487ba),
    ("A100_40G/2n/16384B/Explicit/Ag(AllPairsLl)", 0, 0, 0, 0xba310be3204fbb71),
    ("A100_40G/2n/262144B/Explicit/Ag(AllPairsLl)", 0, 0, 0, 0xba310be3204fbb71),
    ("A100_40G/2n/16384B/Explicit/Ag(AllPairsHb)", 0, 0, 0, 0xba310be3204fbb71),
    ("A100_40G/2n/262144B/Explicit/Ag(AllPairsHb)", 0, 0, 0, 0xba310be3204fbb71),
    ("A100_40G/2n/16384B/Explicit/Ag(AllPairsPort)", 12529040, 9792, 0, 0xf16c3f1549ab2b79),
    ("A100_40G/2n/262144B/Explicit/Ag(AllPairsPort)", 91166080, 9792, 0, 0xb9071f40ec75cc1d),
    ("A100_40G/2n/16384B/Explicit/Ag(HierLl)", 10116288, 1104, 0, 0x7826731f8e101749),
    ("A100_40G/2n/262144B/Explicit/Ag(HierLl)", 50260706, 1104, 0, 0x1d9764885f2ebb25),
    ("A100_40G/2n/16384B/Explicit/Ag(HierHb)", 8884500, 5312, 0, 0x71d1c7516f497de3),
    ("A100_40G/2n/262144B/Explicit/Ag(HierHb)", 26278920, 5312, 0, 0x6ad23edbb1d83e6b),
    ("A100_40G/2n/65536B/Explicit/Rs(AllPairsLl)", 9519250, 2128, 0, 0x593fba3472d89b35),
    ("A100_40G/2n/2097152B/Explicit/Rs(AllPairsLl)", 61139853, 2128, 0, 0xab4f1394dc1553ad),
    ("A100_40G/2n/65536B/Explicit/Rs(AllPairsHb)", 9184600, 8960, 0, 0x9f2e649929398607),
    ("A100_40G/2n/2097152B/Explicit/Rs(AllPairsHb)", 52164994, 8960, 0, 0x9bcd48130d17cae5),
    ("A100_40G/2n/65536B/Explicit/Bc(Direct)", 9801024, 456, 0, 0x3bb4b6a40554c98b),
    ("A100_40G/2n/2097152B/Explicit/Bc(Direct)", 106703553, 456, 0, 0xf287cca78890be71),
    ("A100_40G/2n/65536B/Explicit/Bc(Switch)", 0, 0, 0, 0x001e20d7e9275a1c),
    ("A100_40G/2n/2097152B/Explicit/Bc(Switch)", 0, 0, 0, 0x001e20d7e9275a1c),
    ("A100_40G/2n/8192B/Explicit/A2a(AllPairsLl)", 10411440, 1888, 0, 0x390f167dc41f332f),
    ("A100_40G/2n/262144B/Explicit/A2a(AllPairsLl)", 107073553, 1888, 0, 0xd8b1eaf582a8a3ef),
    ("A100_40G/2n/8192B/Explicit/A2a(AllPairsHb)", 9995680, 8000, 0, 0x58deb4620572113f),
    ("A100_40G/2n/262144B/Explicit/A2a(AllPairsHb)", 95165360, 8000, 0, 0x733b76303e670803),
    ("A100_40G/2n/32768B/Auto/Ar(HierLl)/dead[3]", 16621587, 138, 0, 0x312608361fc88758),
    ("A100_40G/2n/1048576B/Auto/Ar(HierHb)/dead[3]", 86006754, 552, 0, 0xe15b71d224d13b3f),
    ("A100_40G/2n/16384B/Auto/Ag(HierLl)/dead[3]", 20888733, 182, 0, 0x5190c28b32b8b784),
    ("A100_40G/2n/262144B/Auto/Ag(HierHb)/dead[3]", 131263497, 511, 0, 0x42f499677834ea86),
    ("A100_40G/2n/65536B/Auto/Rs(AllPairsLl)/dead[3]", 9295738, 1865, 0, 0xf41e836fea5389bd),
    ("A100_40G/2n/2097152B/Auto/Rs(AllPairsHb)/dead[3]", 54350507, 7852, 0, 0xc03378f78c3589d4),
    ("A100_40G/2n/65536B/Auto/Bc(Direct)/dead[3]", 9801024, 428, 0, 0xc25d390f5c9b5d8d),
    ("A100_40G/2n/2097152B/Auto/Bc(Direct)/dead[3]", 106703553, 428, 0, 0x61fecf2c66df60e3),
    ("A100_40G/2n/8192B/Auto/A2a(AllPairsLl)/dead[3]", 10121440, 1655, 0, 0x872a63ff7726649a),
    ("A100_40G/2n/262144B/Auto/A2a(AllPairsHb)/dead[3]", 93890540, 7012, 0, 0xca554592bda61171),
    ("A100_40G/2n/32768B/Auto/Ar(HierLl)/dead[8, 9, 10, 11, 12, 13, 14, 15]", 7620273, 1056, 1, 0x5de66ef399dcf74f),
    ("A100_40G/2n/1048576B/Auto/Ar(HierHb)/dead[8, 9, 10, 11, 12, 13, 14, 15]", 16783393, 1440, 1, 0x93c04a455139bd2d),
    ("A100_40G/2n/16384B/Auto/Ag(HierLl)/dead[8, 9, 10, 11, 12, 13, 14, 15]", 6110464, 248, 1, 0x58fc73fb496e1fa9),
    ("A100_40G/2n/262144B/Auto/Ag(HierHb)/dead[8, 9, 10, 11, 12, 13, 14, 15]", 13053740, 1216, 1, 0x8ac91dd272e8db75),
    ("A100_40G/2n/65536B/Auto/Rs(AllPairsLl)/dead[8, 9, 10, 11, 12, 13, 14, 15]", 5855867, 304, 0, 0x5e0308faf071d3fb),
    ("A100_40G/2n/2097152B/Auto/Rs(AllPairsHb)/dead[8, 9, 10, 11, 12, 13, 14, 15]", 14517956, 1440, 0, 0x5881b7045b8d76c9),
    ("A100_40G/2n/65536B/Auto/Bc(Direct)/dead[8, 9, 10, 11, 12, 13, 14, 15]", 6421464, 208, 0, 0xa4d7cbed87c3838f),
    ("A100_40G/2n/2097152B/Auto/Bc(Direct)/dead[8, 9, 10, 11, 12, 13, 14, 15]", 69397055, 208, 0, 0x91f9e14d592b9851),
    ("A100_40G/2n/8192B/Auto/A2a(AllPairsLl)/dead[8, 9, 10, 11, 12, 13, 14, 15]", 5605232, 248, 0, 0x8d17201f1dfba377),
    ("A100_40G/2n/262144B/Auto/A2a(AllPairsHb)/dead[8, 9, 10, 11, 12, 13, 14, 15]", 13053740, 1216, 0, 0xcf679a6507dc904b),
    ("H100/1n/1048576B/Auto/Ar(TwoPhaseHb { order: Staggered })/multimem-down", 12786981, 1440, 1, 0x4ad6180bec20b415),
    ("H100/1n/2097152B/Auto/Bc(Direct)/multimem-down", 40846664, 208, 1, 0xcedaa917947a8705),
    ("MI300X/1n/32768B/Auto/Ar(Ring)/link-2-3-down", 23836717, 640, 1, 0xea4cc36c1da01cb1),
    ("MI300X/1n/1048576B/Auto/Ar(Ring)/link-2-3-down", 64035143, 640, 1, 0x99741302d4e3a6eb),
];

#[test]
fn launches_match_the_golden_table() {
    let cases = cases();
    let rows: Vec<(String, (u64, u64, u64, u64))> =
        cases.iter().map(|c| (c.name(), run(c))).collect();
    let table: String = rows
        .iter()
        .map(|(name, (t, ev, rp, d))| format!("    (\"{name}\", {t}, {ev}, {rp}, 0x{d:016x}),\n"))
        .collect();
    let got: Vec<(&str, u64, u64, u64, u64)> = rows
        .iter()
        .map(|(name, (t, ev, rp, d))| (name.as_str(), *t, *ev, *rp, *d))
        .collect();
    let mismatched: Vec<String> = got
        .iter()
        .zip(GOLDEN)
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  got  {g:?}\n  want {w:?}"))
        .collect();
    assert!(
        got.len() == GOLDEN.len() && mismatched.is_empty(),
        "{} of {} cases moved (golden has {} rows):\n{}\nrecomputed table:\n{table}",
        mismatched.len(),
        got.len(),
        GOLDEN.len(),
        mismatched.join("\n"),
    );
}
