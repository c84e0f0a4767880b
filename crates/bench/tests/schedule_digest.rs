//! Schedule-digest determinism checks: seeded fault-plan AllReduces run
//! bare and observed (tracing and profiling on), and must agree on
//! everything the run produces — output bytes, virtual clock, event
//! count, metrics — and on [`sim::Engine::schedule_digest`], the hash
//! of every popped event's `(time, seq, kind)`. The digests are pinned:
//! a change to the event queue's order, to a cost model or to a fault
//! plan's replay moves them, even where the outputs and the event
//! count stay the same.
//!
//! Observation turns slot recycling off, so the bare runs exercise the
//! recycling fast path and the observed runs the stable-slot path.
//!
//! When a deliberate change moves a digest, the failure message prints
//! the recomputed value.

use collective::CollComm;
use hw::{BufferId, DataType, EnvKind, Machine, Rank, ReduceOp};
use sim::{Duration, Engine, FaultPlan, Metrics, Time};

fn val(r: usize, i: usize) -> f32 {
    ((r * 5 + i * 3) % 8) as f32
}

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
struct RunRecord {
    outputs: Vec<Vec<u8>>,
    now: Time,
    events: u64,
    metrics: Metrics,
    digest: u64,
}

/// Runs one seeded fault-plan AllReduce of `count` f32 per rank on
/// `nodes` A100 nodes.
fn run_one(observed: bool, seed: u64, nodes: usize, count: usize) -> RunRecord {
    let world = nodes * 8;
    let mut e = Engine::new(Machine::new(EnvKind::A100_40G.spec(nodes)));
    e.set_fault_plan(FaultPlan::random_transient(
        seed,
        world,
        Duration::from_us(150.0),
    ));
    hw::wire(&mut e);
    if observed {
        e.enable_tracing();
        e.enable_profiling();
    }
    let bufs: Vec<BufferId> = (0..world)
        .map(|r| {
            let b = e.world_mut().pool_mut().alloc(Rank(r), count * 4);
            e.world_mut()
                .pool_mut()
                .fill_with(b, DataType::F32, move |i| val(r, i));
            b
        })
        .collect();
    let comm = CollComm::new();
    comm.all_reduce(&mut e, &bufs, &bufs, count, DataType::F32, ReduceOp::Sum)
        .expect("seeded allreduce");
    assert_eq!(e.take_trace().is_some(), observed);
    assert_eq!(e.take_dep_graph().is_some(), observed);
    RunRecord {
        outputs: bufs
            .iter()
            .map(|&b| e.world().pool().bytes(b, 0, count * 4).to_vec())
            .collect(),
        now: e.now(),
        events: e.events_processed(),
        metrics: e.metrics().clone(),
        digest: e.schedule_digest(),
    }
}

/// Runs `(seed, nodes, count, digest)` bare and observed, asserts the two
/// runs agree, and checks the digest against its pinned value.
fn check(seed: u64, nodes: usize, count: usize, pinned: u64) {
    let bare = run_one(false, seed, nodes, count);
    let observed = run_one(true, seed, nodes, count);
    assert_eq!(bare, observed, "seed {seed}: observation perturbed the run");
    assert_eq!(
        bare.digest, pinned,
        "seed {seed} on {nodes} node(s): digest moved to 0x{:016x}",
        bare.digest
    );
}

#[test]
fn single_node_digests_are_pinned() {
    check(7, 1, 1024, 0xd61f_a4f4_67f8_048b);
    check(203, 1, 1024, 0xa39b_8f89_6170_032e);
    check(991, 1, 1024, 0xd61f_a4f4_67f8_048b);
}

#[test]
fn single_node_digests_are_pinned_at_twice_the_size() {
    check(11, 1, 2048, 0xbd8a_8ec1_d102_0130);
    check(480, 1, 2048, 0xbd8a_8ec1_d102_0130);
}

/// The 16-rank hierarchical shape: the cross-node proxy path schedules
/// far-future NIC events, which exercises the calendar's bucket
/// rotation.
#[test]
fn two_node_digest_is_pinned() {
    check(37, 2, 512, 0x0df9_a620_a7cb_7292);
}
