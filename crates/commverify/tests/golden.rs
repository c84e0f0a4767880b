//! Golden pass: every built-in algorithm on every relevant topology and
//! representative sizes must sail through the static verifier (default-on
//! in every comm) *and* run clean under the dynamic vector-clock
//! sanitizer. A finding from either surfaces as an `Err` here.

use collective::{
    AllGatherAlgo, AllReduceAlgo, AllToAllAlgo, BroadcastAlgo, CollComm, PeerOrder,
    ReduceScatterAlgo, ScratchReuse,
};
use hw::{DataType, EnvKind, Machine, Rank, ReduceOp};
use sim::Engine;

fn engine(kind: EnvKind, nodes: usize) -> Engine<Machine> {
    let mut e = Engine::new(Machine::new(kind.spec(nodes)));
    hw::wire(&mut e);
    e
}

fn alloc_all(e: &mut Engine<Machine>, bytes: usize) -> Vec<hw::BufferId> {
    let n = e.world().topology().world_size();
    (0..n)
        .map(|r| e.world_mut().pool_mut().alloc(Rank(r), bytes))
        .collect()
}

/// A CollComm with the static verifier (already the default) and the
/// dynamic sanitizer both armed.
fn comm() -> CollComm {
    let mut c = CollComm::new();
    c.set_sanitize(true);
    c
}

fn golden_allreduce(kind: EnvKind, nodes: usize, count: usize, algo: AllReduceAlgo) {
    let mut e = engine(kind, nodes);
    let inputs = alloc_all(&mut e, count * 4);
    let outputs = alloc_all(&mut e, count * 4);
    comm()
        .all_reduce_with(
            &mut e,
            &inputs,
            &outputs,
            count,
            DataType::F32,
            ReduceOp::Sum,
            algo,
        )
        .unwrap_or_else(|err| panic!("allreduce {algo:?} on {kind:?} x{nodes}: {err}"));
}

#[test]
fn allreduce_golden_single_node() {
    for (count, algo) in [
        (4_096, AllReduceAlgo::OnePhaseLl),
        (
            40_000,
            AllReduceAlgo::TwoPhaseLl {
                reuse: ScratchReuse::Rotate,
                order: PeerOrder::Staggered,
            },
        ),
        (
            40_000,
            AllReduceAlgo::TwoPhaseLl {
                reuse: ScratchReuse::Barrier,
                order: PeerOrder::Sequential,
            },
        ),
        (
            100_000,
            AllReduceAlgo::TwoPhaseHb {
                order: PeerOrder::Staggered,
            },
        ),
        (100_000, AllReduceAlgo::TwoPhasePort),
        (50_000, AllReduceAlgo::Ring),
    ] {
        golden_allreduce(EnvKind::A100_40G, 1, count, algo);
    }
    golden_allreduce(EnvKind::H100, 1, 100_000, AllReduceAlgo::TwoPhaseSwitch);
    golden_allreduce(
        EnvKind::MI300X,
        1,
        50_000,
        AllReduceAlgo::TwoPhaseHb {
            order: PeerOrder::Sequential,
        },
    );
}

#[test]
fn allreduce_golden_multi_node() {
    golden_allreduce(EnvKind::A100_40G, 2, 4_096, AllReduceAlgo::HierLl);
    golden_allreduce(EnvKind::A100_40G, 2, 200_000, AllReduceAlgo::HierHb);
}

#[test]
fn allgather_golden() {
    for (kind, nodes, count, algo) in [
        (EnvKind::A100_40G, 1, 2_048, AllGatherAlgo::AllPairsLl),
        (EnvKind::A100_40G, 1, 100_000, AllGatherAlgo::AllPairsHb),
        (EnvKind::A100_40G, 1, 100_000, AllGatherAlgo::AllPairsPort),
        (EnvKind::A100_40G, 2, 512, AllGatherAlgo::HierLl),
        (EnvKind::A100_40G, 2, 100_000, AllGatherAlgo::HierHb),
    ] {
        let mut e = engine(kind, nodes);
        let n = nodes * 8;
        let inputs = alloc_all(&mut e, count * 4);
        let outputs = alloc_all(&mut e, count * 4 * n);
        comm()
            .all_gather_with(&mut e, &inputs, &outputs, count, DataType::F32, algo)
            .unwrap_or_else(|err| panic!("allgather {algo:?} on {kind:?} x{nodes}: {err}"));
    }
}

#[test]
fn reduce_scatter_golden() {
    for (nodes, count, algo) in [
        (1, 4_096, ReduceScatterAlgo::AllPairsLl),
        (1, 100_000, ReduceScatterAlgo::AllPairsHb),
        (2, 1_600, ReduceScatterAlgo::AllPairsHb),
    ] {
        let mut e = engine(EnvKind::A100_40G, nodes);
        let n = nodes * 8;
        let inputs = alloc_all(&mut e, count * 4);
        let outputs = alloc_all(&mut e, (count / n + 1) * 4 * 2);
        comm()
            .reduce_scatter_with(
                &mut e,
                &inputs,
                &outputs,
                count,
                DataType::F32,
                ReduceOp::Sum,
                algo,
            )
            .unwrap_or_else(|err| panic!("reduce_scatter {algo:?} x{nodes}: {err}"));
    }
}

#[test]
fn broadcast_golden() {
    for (kind, nodes, count, algo) in [
        (EnvKind::A100_40G, 1, 3_000, BroadcastAlgo::Direct),
        (EnvKind::A100_40G, 2, 2_048, BroadcastAlgo::Direct),
        (EnvKind::H100, 1, 4_096, BroadcastAlgo::Switch),
    ] {
        let mut e = engine(kind, nodes);
        let inputs = alloc_all(&mut e, count * 4);
        let outputs = alloc_all(&mut e, count * 4);
        comm()
            .broadcast_with(
                &mut e,
                &inputs,
                &outputs,
                count,
                DataType::F32,
                Rank(0),
                algo,
            )
            .unwrap_or_else(|err| panic!("broadcast {algo:?} on {kind:?} x{nodes}: {err}"));
    }
}

#[test]
fn all_to_all_golden() {
    for (nodes, count, algo) in [
        (1, 500, AllToAllAlgo::AllPairsLl),
        (1, 40_000, AllToAllAlgo::AllPairsHb),
        (2, 256, AllToAllAlgo::AllPairsLl),
    ] {
        let mut e = engine(EnvKind::A100_40G, nodes);
        let n = nodes * 8;
        let inputs = alloc_all(&mut e, count * 4 * n);
        let outputs = alloc_all(&mut e, count * 4 * n);
        comm()
            .all_to_all_with(&mut e, &inputs, &outputs, count, DataType::F32, algo)
            .unwrap_or_else(|err| panic!("alltoall {algo:?} x{nodes}: {err}"));
    }
}

#[test]
fn ncclsim_golden() {
    for nodes in [1usize, 2] {
        let mut e = engine(EnvKind::A100_40G, nodes);
        let count = 8_192usize;
        let inputs = alloc_all(&mut e, count * 4);
        let outputs = alloc_all(&mut e, count * 4);
        let mut setup = mscclpp::Setup::new(&mut e);
        let comm = ncclsim::NcclComm::new(&mut setup, ncclsim::NcclConfig::nccl());
        let choice = ncclsim::tune(count * 4, nodes);
        comm.all_reduce(
            &mut e,
            &inputs,
            &outputs,
            count,
            DataType::F32,
            ReduceOp::Sum,
            choice,
        )
        .unwrap_or_else(|err| panic!("nccl allreduce x{nodes}: {err}"));
    }
}

#[test]
fn msccl_golden() {
    let mut e = engine(EnvKind::A100_40G, 1);
    let count = 8_192usize;
    let inputs = alloc_all(&mut e, count * 4);
    let outputs = alloc_all(&mut e, count * 4 * 8);
    let mut setup = mscclpp::Setup::new(&mut e);
    let comm = msccl::MscclComm::new(&mut setup, msccl::MscclConfig::default());
    comm.all_reduce(
        &mut e,
        &inputs,
        &outputs,
        count,
        DataType::F32,
        ReduceOp::Sum,
        None,
    )
    .unwrap_or_else(|err| panic!("msccl allreduce: {err}"));
}

#[test]
fn dsl_builtins_golden() {
    // The compiler always verifies: a finding in any built-in program
    // would abort compilation here.
    use mscclpp_dsl::{algorithms, CompileOptions};
    let progs = [
        ("one_phase", algorithms::one_phase_all_reduce(8).unwrap(), 1),
        ("two_phase", algorithms::two_phase_all_reduce(8).unwrap(), 1),
        ("ring", algorithms::ring_all_reduce(8).unwrap(), 1),
        ("allgather", algorithms::all_pairs_all_gather(8).unwrap(), 8),
    ];
    for (name, prog, out_scale) in &progs {
        let mut e = engine(EnvKind::A100_40G, 1);
        let mut setup = mscclpp::Setup::new(&mut e);
        let inputs = setup.alloc_all(4_096);
        let outputs = setup.alloc_all(4_096 * out_scale);
        prog.compile(&mut setup, &inputs, &outputs, CompileOptions::default())
            .unwrap_or_else(|err| panic!("dsl {name}: {err}"));
    }
    let mut e = engine(EnvKind::H100, 1);
    let mut setup = mscclpp::Setup::new(&mut e);
    let inputs = setup.alloc_all(4_096);
    let outputs = setup.alloc_all(4_096);
    algorithms::switch_all_reduce(8)
        .unwrap()
        .compile(&mut setup, &inputs, &outputs, CompileOptions::default())
        .unwrap_or_else(|err| panic!("dsl switch: {err}"));
}
