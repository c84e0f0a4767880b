//! Elastic-recovery sweep: kills one rank at different points of an
//! in-flight AllReduce, shrinks the communicator to the survivors, and
//! records the recovery latency (death -> shrunken epoch ready, replay
//! included) per algorithm. Writes `results/recovery_sweep.json`.
//!
//! Every single-node built-in algorithm is swept; the kill time slides
//! from "barely launched" to "deep in flight" so the sweep shows how
//! much in-flight state the drain has to discard at each point.
//!
//! A second, multi-node section sweeps the hierarchical algorithms by
//! *failure class* (DESIGN.md §14): a non-leader member death, a node
//! leader death (forcing re-election), a whole node lost at once, and a
//! straggler quarantine (a voluntary shrink — no drain, no wreckage).
//! Each point's `class` field carries the label; single-node points are
//! all `member` deaths.

use bench::report::{begin_artifact, write_results_json};
use bench::{fmt_bytes, Target};
use collective::{
    AllReduceAlgo, CollComm, PeerOrder, RecoveryOutcome, ScratchReuse, StragglerPolicy,
};
use hw::{BufferId, DataType, EnvKind, Machine, Rank, ReduceOp};
use sim::json::{self, Fixed};
use sim::{Duration, Engine, FaultPlan, Time};

const VICTIM: usize = 3;
const BYTES: usize = 4 << 20;

fn us(x: u64) -> Time {
    Time::from_ps(x * 1_000_000)
}

struct Point {
    algo: &'static str,
    env: EnvKind,
    class: &'static str,
    kill_us: u64,
    outcome: String,
    recovery_us: f64,
    drained: u64,
    survivors: usize,
}

/// One kill-and-recover run; `None` when the collective finished before
/// the kill time (nothing to recover).
fn run_point(
    env: EnvKind,
    label: &'static str,
    algo: AllReduceAlgo,
    kill_us: u64,
) -> Option<Point> {
    let t = Target { env, nodes: 1 };
    let n = t.world();
    let count = BYTES / 4;
    let mut e = Engine::new(Machine::new(env.spec(1)));
    e.set_fault_plan(
        FaultPlan::new(7)
            .rank_down(VICTIM, us(kill_us))
            .with_wait_timeout(Duration::from_us(500.0)),
    );
    hw::wire(&mut e);
    let ins: Vec<BufferId> = (0..n)
        .map(|r| {
            let b = e.world_mut().pool_mut().alloc(Rank(r), count * 4);
            e.world_mut()
                .pool_mut()
                .fill_with(b, DataType::F32, move |i| ((r + i) % 5) as f32);
            b
        })
        .collect();
    let outs: Vec<BufferId> = (0..n)
        .map(|r| e.world_mut().pool_mut().alloc(Rank(r), count * 4))
        .collect();
    let comm = CollComm::new();
    if comm
        .all_reduce_with(
            &mut e,
            &ins,
            &outs,
            count,
            DataType::F32,
            ReduceOp::Sum,
            algo,
        )
        .is_ok()
    {
        // The collective beat the kill to the finish line.
        return None;
    }
    let recovery = comm
        .shrink(&mut e, &[])
        .unwrap_or_else(|err| panic!("{label} kill {kill_us}us: shrink failed: {err}"));
    assert_eq!(
        recovery.outcome,
        RecoveryOutcome::Replayed,
        "{label} kill {kill_us}us"
    );
    Some(Point {
        algo: label,
        env,
        class: "member",
        kill_us,
        outcome: format!("{:?}", recovery.outcome),
        recovery_us: recovery.recovery_time.as_us(),
        drained: recovery.drain.cancelled(),
        survivors: recovery.group.len(),
    })
}

/// One multi-node kill-and-recover run: a two-node world, a hierarchical
/// algorithm, and a failure-class-specific victim set (one member, one
/// leader, or a whole node).
fn run_class_point(
    label: &'static str,
    algo: AllReduceAlgo,
    class: &'static str,
    victims: &[usize],
) -> Point {
    let env = EnvKind::A100_40G;
    let n = Target { env, nodes: 2 }.world();
    let count = BYTES / 4;
    let mut e = Engine::new(Machine::new(env.spec(2)));
    // The detection timeout must exceed the worst-case legitimate wait of
    // the shrunken leader-relay plan (members wait while the whole
    // message funnels through their leader).
    e.set_fault_plan(
        FaultPlan::new(7)
            .node_down(victims, us(20))
            .with_wait_timeout(Duration::from_us(2_000.0)),
    );
    hw::wire(&mut e);
    let ins: Vec<BufferId> = (0..n)
        .map(|r| {
            let b = e.world_mut().pool_mut().alloc(Rank(r), count * 4);
            e.world_mut()
                .pool_mut()
                .fill_with(b, DataType::F32, move |i| ((r + i) % 5) as f32);
            b
        })
        .collect();
    let outs: Vec<BufferId> = (0..n)
        .map(|r| e.world_mut().pool_mut().alloc(Rank(r), count * 4))
        .collect();
    let comm = CollComm::new();
    comm.all_reduce_with(
        &mut e,
        &ins,
        &outs,
        count,
        DataType::F32,
        ReduceOp::Sum,
        algo,
    )
    .expect_err("the scheduled deaths must interrupt the collective");
    let recovery = comm
        .shrink(&mut e, &[])
        .unwrap_or_else(|err| panic!("{label} {class}: shrink failed: {err}"));
    assert_eq!(
        recovery.outcome,
        RecoveryOutcome::Replayed,
        "{label} {class}"
    );
    Point {
        algo: label,
        env,
        class,
        kill_us: 20,
        outcome: format!("{:?}", recovery.outcome),
        recovery_us: recovery.recovery_time.as_us(),
        drained: recovery.drain.cancelled(),
        survivors: recovery.group.len(),
    }
}

/// Straggler quarantine on a two-node world: rank 5's SM clock degrades
/// until the detector suspects it, then the quarantine evicts it via a
/// voluntary shrink. The recovery latency here is pure re-wire cost —
/// there is no wreckage to drain. The launches use the default algorithm
/// selection (as a serving loop would); the detector threshold is tuned
/// to that plan's completion-time spread.
fn run_straggler_point() -> Point {
    let env = EnvKind::A100_40G;
    let n = 16;
    let count = BYTES / 4;
    let mut e = Engine::new(Machine::new(env.spec(2)));
    e.set_fault_plan(FaultPlan::new(5).straggler(5, 1000.0, Time::from_ps(0), Time::MAX));
    hw::wire(&mut e);
    let bufs: Vec<BufferId> = (0..n)
        .map(|r| {
            let b = e.world_mut().pool_mut().alloc(Rank(r), count * 4);
            e.world_mut()
                .pool_mut()
                .fill_with(b, DataType::F32, move |i| ((r + i) % 5) as f32);
            b
        })
        .collect();
    let mut comm = CollComm::new();
    comm.set_straggler_policy(StragglerPolicy {
        window: 4,
        threshold: 1.2,
        quorum: 3,
        quarantine: true,
    });
    for launch in 0..3 {
        comm.all_reduce(&mut e, &bufs, &bufs, count, DataType::F32, ReduceOp::Sum)
            .unwrap_or_else(|err| panic!("straggler launch {launch}: {err}"));
    }
    assert_eq!(comm.suspected_stragglers(), vec![Rank(5)]);
    let recovery = comm
        .quarantine_stragglers(&mut e)
        .unwrap_or_else(|err| panic!("straggler quarantine: {err}"))
        .expect("a suspect with quarantine enabled must shrink");
    Point {
        algo: "auto",
        env,
        class: "straggler",
        kill_us: 0,
        outcome: format!("{:?}", recovery.outcome),
        recovery_us: recovery.recovery_time.as_us(),
        drained: recovery.drain.cancelled(),
        survivors: recovery.group.len(),
    }
}

fn main() {
    let algos: [(EnvKind, &'static str, AllReduceAlgo); 6] = [
        (EnvKind::A100_40G, "one_phase_ll", AllReduceAlgo::OnePhaseLl),
        (
            EnvKind::A100_40G,
            "two_phase_ll",
            AllReduceAlgo::TwoPhaseLl {
                reuse: ScratchReuse::Rotate,
                order: PeerOrder::Staggered,
            },
        ),
        (
            EnvKind::A100_40G,
            "two_phase_hb",
            AllReduceAlgo::TwoPhaseHb {
                order: PeerOrder::Staggered,
            },
        ),
        (
            EnvKind::A100_40G,
            "two_phase_port",
            AllReduceAlgo::TwoPhasePort,
        ),
        (EnvKind::A100_40G, "ring", AllReduceAlgo::Ring),
        (
            EnvKind::H100,
            "two_phase_switch",
            AllReduceAlgo::TwoPhaseSwitch,
        ),
    ];
    println!(
        "==== recovery sweep ({}, rank {VICTIM} dies mid-AllReduce) ====",
        fmt_bytes(BYTES)
    );
    let mut points: Vec<Point> = Vec::new();
    for (env, label, algo) in algos {
        for kill_us in [1u64, 5, 20, 50] {
            match run_point(env, label, algo, kill_us) {
                Some(p) => {
                    println!(
                        "{label:>18} kill {kill_us:>3} us: recovery {:>8.1} us, \
                         {} drained, {} survivors",
                        p.recovery_us, p.drained, p.survivors
                    );
                    points.push(p);
                }
                None => println!("{label:>18} kill {kill_us:>3} us: completed before kill"),
            }
        }
    }
    assert!(!points.is_empty(), "every run completed before its kill");

    println!("\n==== multi-node failure classes (2 nodes, hierarchical) ====");
    let node1: Vec<usize> = (8..16).collect();
    let classes: [(&'static str, &[usize]); 3] =
        [("member", &[3]), ("leader", &[8]), ("node", &node1)];
    for (hier_label, hier_algo) in [
        ("hier_ll", AllReduceAlgo::HierLl),
        ("hier_hb", AllReduceAlgo::HierHb),
    ] {
        for (class, victims) in classes {
            let p = run_class_point(hier_label, hier_algo, class, victims);
            println!(
                "{hier_label:>18} {class:>9}: recovery {:>8.1} us, \
                 {} drained, {} survivors",
                p.recovery_us, p.drained, p.survivors
            );
            points.push(p);
        }
    }
    let p = run_straggler_point();
    println!(
        "{:>18} straggler: recovery {:>8.1} us, {} drained, {} survivors",
        p.algo, p.recovery_us, p.drained, p.survivors
    );
    points.push(p);

    let json = json::render(|w| {
        begin_artifact(w, "recovery_sweep")
            .key("points")
            .begin_arr();
        for p in &points {
            w.begin_obj().field("algo", p.algo);
            w.field("env", format!("{:?}", p.env));
            w.field("class", p.class);
            w.field("kill_us", p.kill_us).field("outcome", &p.outcome);
            w.field("recovery_us", Fixed(p.recovery_us, 3));
            w.field("drained_requests", p.drained);
            w.field("survivors", p.survivors);
            // The shrunken epoch's rebuilt plan is proved, semantic pass
            // included, before its first launch (replay too); a finding
            // fails the shrink instead of producing a point.
            w.field("semantics_verified", true);
            w.end_obj();
        }
        w.end_arr().end_obj();
    }) + "\n";
    match write_results_json("recovery_sweep.json", &json) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write results: {e}");
            std::process::exit(1);
        }
    }
}
