//! Golden values for the verified-collective runner: every stack's
//! virtual latency on A100-40G 1n8g at two latency-bound sizes, and the
//! choice the fine-tuned NCCL baseline wins with. The figures and the
//! observability report take their points from exactly these runs, so a
//! change to the tuning loop, the candidate filter or any stack's launch
//! path shows up here first.

use bench::{Coll, Measure, Stack, Target};
use hw::EnvKind;
use ncclsim::{Algo, Choice, Proto};

const A100: Target = Target {
    env: EnvKind::A100_40G,
    nodes: 1,
};

/// Checks the three stacks' latencies (µs, exact) and NCCL's winning
/// channel count (always ring with the LL protocol at these sizes).
fn check(coll: Coll, bytes: usize, nccl_channels: usize, want_us: [f64; 3]) {
    for (stack, want) in Stack::ALL.into_iter().zip(want_us) {
        let run = Measure::new(stack, coll, A100, bytes).run();
        let label = format!("{coll:?} {} {bytes}B", stack.name());
        assert_eq!(run.point.latency_us, want, "{label}");
        let out_bytes = match coll {
            Coll::AllReduce => bytes,
            Coll::AllGather => bytes * A100.world(),
        };
        assert_eq!(run.point.bytes, out_bytes, "{label}");
        let choice = (stack == Stack::Nccl).then_some(Choice {
            algo: Algo::Ring,
            proto: Proto::LL,
            channels: nccl_channels,
        });
        assert_eq!(run.choice, choice, "{label}");
        assert_eq!(run.engine.clamped_past_events(), 0, "{label}");
    }
}

#[test]
fn allreduce_1kb() {
    check(Coll::AllReduce, 1 << 10, 1, [18.976613, 9.916986, 5.316986]);
}

#[test]
fn allreduce_64kb() {
    check(
        Coll::AllReduce,
        64 << 10,
        4,
        [19.316041, 17.837975, 7.900546],
    );
}

#[test]
fn allgather_1kb() {
    check(
        Coll::AllGather,
        1 << 10,
        1,
        [11.068426, 10.228426, 5.163154],
    );
}

#[test]
fn allgather_64kb() {
    check(
        Coll::AllGather,
        64 << 10,
        4,
        [12.527878, 21.699038, 9.14187],
    );
}

/// `point` keeps no engine but picks the same winner as `run`.
#[test]
fn point_matches_run() {
    let m = Measure::new(Stack::Nccl, Coll::AllReduce, A100, 64 << 10);
    assert_eq!(m.point(), m.run().point);
}
