//! Size- and hardware-based algorithm selection (§4.4, §5.1), and the one
//! re-planning rule every launch passes through.
//!
//! Mirrors the paper's observed crossovers: 1PA wins up to 16 KB on a
//! single node, 2PA variants take over from 32 KB (LL first, then HB),
//! the SwitchChannel variant dominates large messages on multimem
//! hardware, the PortChannel variant wins at ~1 GB, and hierarchical
//! algorithms serve multi-node clusters (LL small, HB large).
//!
//! [`fit`] re-plans a chosen algorithm onto the [`Live`] world: first
//! around the fault plan's permanent faults (automatic entry points
//! only), then onto the epoch's rank group after a shrink.

use hw::{Machine, Rank, Topology};
use sim::FaultPlan;

use crate::{
    Algo, AllGatherAlgo, AllReduceAlgo, AllToAllAlgo, BroadcastAlgo, PeerOrder, ReduceScatterAlgo,
    ScratchReuse,
};

/// True when the survivor `group` still spans at least two nodes — the
/// shape hierarchical (two-phase multi-node) plans require.
fn spans_multiple_nodes(group: &[Rank], topo: &Topology) -> bool {
    let mut first = None;
    for &r in group {
        let node = topo.node_of(r);
        match first {
            None => first = Some(node),
            Some(f) if f != node => return true,
            Some(_) => {}
        }
    }
    false
}

/// Picks the default AllReduce algorithm for a message of `bytes`.
pub fn select_all_reduce(machine: &Machine, bytes: usize) -> AllReduceAlgo {
    let topo = machine.topology();
    if topo.nodes() > 1 {
        return if bytes <= (512 << 10) {
            AllReduceAlgo::HierLl
        } else {
            AllReduceAlgo::HierHb
        };
    }
    if bytes <= (16 << 10) {
        AllReduceAlgo::OnePhaseLl
    } else if bytes <= (256 << 10) {
        AllReduceAlgo::TwoPhaseLl {
            reuse: ScratchReuse::Rotate,
            order: PeerOrder::Staggered,
        }
    } else if hw::supports_multimem(machine) {
        AllReduceAlgo::TwoPhaseSwitch
    } else if bytes >= (512 << 20) {
        AllReduceAlgo::TwoPhasePort
    } else {
        AllReduceAlgo::TwoPhaseHb {
            order: PeerOrder::Staggered,
        }
    }
}

/// Picks the default AllGather algorithm for `bytes` contributed per
/// rank.
pub fn select_all_gather(machine: &Machine, bytes: usize) -> AllGatherAlgo {
    let topo = machine.topology();
    if topo.nodes() > 1 {
        if bytes <= (128 << 10) {
            AllGatherAlgo::HierLl
        } else {
            AllGatherAlgo::HierHb
        }
    } else if bytes <= (128 << 10) {
        AllGatherAlgo::AllPairsLl
    } else {
        AllGatherAlgo::AllPairsHb
    }
}

/// Picks the ReduceScatter algorithm for `bytes` of input per rank.
pub(crate) fn select_reduce_scatter(bytes: usize) -> ReduceScatterAlgo {
    if bytes <= (1 << 20) {
        ReduceScatterAlgo::AllPairsLl
    } else {
        ReduceScatterAlgo::AllPairsHb
    }
}

/// Picks the AllToAll algorithm for `bytes` per (source, destination)
/// chunk.
pub(crate) fn select_all_to_all(bytes: usize) -> AllToAllAlgo {
    if bytes <= (128 << 10) {
        AllToAllAlgo::AllPairsLl
    } else {
        AllToAllAlgo::AllPairsHb
    }
}

/// Picks the Broadcast algorithm: NVSwitch multicast for large messages
/// on single-node multimem hardware, direct root puts otherwise.
pub(crate) fn select_broadcast(machine: &Machine, bytes: usize) -> BroadcastAlgo {
    if hw::supports_multimem(machine) && machine.topology().nodes() == 1 && bytes > (1 << 20) {
        BroadcastAlgo::Switch
    } else {
        BroadcastAlgo::Direct
    }
}

/// What a launch can still use.
pub(crate) struct Live<'a> {
    pub topo: Topology,
    /// The epoch's rank group; `None` is the full world.
    pub group: Option<&'a [Rank]>,
    /// The fault plan whose permanent faults the launch must route
    /// around. Only the automatic entry points pass it: explicit calls
    /// run as asked and surface the fault.
    pub faults: Option<&'a FaultPlan>,
}

/// Re-plans `algo` onto the `live` world. Returns `algo` unchanged when
/// nothing it needs is gone.
///
/// Faults first. Only *permanent* faults trigger a re-plan — transient
/// flaps, degradation and stalls are absorbed by the transport layer's
/// retries and delays:
///
/// * multimem permanently down: the switch AllReduce falls back to the
///   HB all-pairs variant (no switch reduction, still all NVLink ports)
///   and the multicast Broadcast to direct root puts;
/// * a permanently dead intra-node pair link: every all-pairs pattern
///   needs that link, so single-node AllReduce falls back to
///   [`AllReduceAlgo::Ring`], whose ordering routes around dead links.
///
/// Then the group. Hierarchical AllReduce and AllGather stay
/// hierarchical as long as the survivors still span at least two nodes —
/// the shrunken two-phase plan re-elects node leaders among them. When a
/// shrink collapses the group onto one node the hierarchy has nothing to
/// relay across, so the choice falls back to its single-node all-pairs
/// counterpart. Every other algorithm already accepts an explicit rank
/// set (ring re-closure, shard renumbering and switch-group renumbering
/// happen inside its `prepare`).
pub(crate) fn fit(algo: Algo, live: &Live<'_>) -> Algo {
    let staggered_hb = AllReduceAlgo::TwoPhaseHb {
        order: PeerOrder::Staggered,
    };
    let mut algo = algo;
    if let Some(plan) = live.faults {
        let multimem_down = plan.multimem_permanently_down();
        algo = match algo {
            Algo::AllReduce(AllReduceAlgo::TwoPhaseSwitch) if multimem_down => {
                Algo::AllReduce(staggered_hb)
            }
            Algo::Broadcast(BroadcastAlgo::Switch) if multimem_down => {
                Algo::Broadcast(BroadcastAlgo::Direct)
            }
            other => other,
        };
        if matches!(algo, Algo::AllReduce(_)) && live.topo.nodes() == 1 {
            let world = live.topo.world_size();
            let any_dead = plan
                .permanent_link_downs()
                .into_iter()
                .any(|(a, b)| a < world && b < world);
            if any_dead {
                algo = Algo::AllReduce(AllReduceAlgo::Ring);
            }
        }
    }
    let Some(group) = live.group else {
        return algo;
    };
    if group.len() >= live.topo.world_size() || spans_multiple_nodes(group, &live.topo) {
        return algo;
    }
    match algo {
        Algo::AllReduce(AllReduceAlgo::HierLl) => Algo::AllReduce(AllReduceAlgo::TwoPhaseLl {
            reuse: ScratchReuse::Rotate,
            order: PeerOrder::Staggered,
        }),
        Algo::AllReduce(AllReduceAlgo::HierHb) => Algo::AllReduce(staggered_hb),
        Algo::AllGather(AllGatherAlgo::HierLl) => Algo::AllGather(AllGatherAlgo::AllPairsLl),
        Algo::AllGather(AllGatherAlgo::HierHb) => Algo::AllGather(AllGatherAlgo::AllPairsHb),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hw::EnvKind;
    use sim::Time;
    use AllGatherAlgo as G;
    use AllReduceAlgo as R;

    /// What a row asks for: the AllReduce or AllGather selection for a
    /// message size, or an explicit algorithm.
    enum Ask {
        Ar(usize),
        Ag(usize),
        Is(Algo),
    }
    use Ask::{Ag, Ar, Is};

    /// One selection or re-planning decision: the algorithm asked for on
    /// a machine, fitted onto the live world the row describes.
    struct Row {
        machine: (EnvKind, usize),
        ask: Ask,
        /// Ranks evicted by a shrink; empty is the full world.
        dead: &'static [usize],
        /// The engine's fault plan, and whether the call came through an
        /// automatic entry point (only those route around it).
        faults: Option<(FaultPlan, bool)>,
        want: Algo,
    }

    const A100: (EnvKind, usize) = (EnvKind::A100_40G, 1);
    const H100: (EnvKind, usize) = (EnvKind::H100, 1);
    const A100_2N: (EnvKind, usize) = (EnvKind::A100_40G, 2);
    /// Rank 3 died: survivors still span both nodes.
    const MEMBER: &[usize] = &[3];
    /// All of node 1 died: survivors fit on node 0 — no hierarchy left.
    const NODE1: &[usize] = &[8, 9, 10, 11, 12, 13, 14, 15];
    const TWO_LL: Algo = Algo::AllReduce(R::TwoPhaseLl {
        reuse: ScratchReuse::Rotate,
        order: PeerOrder::Staggered,
    });
    const TWO_HB: Algo = Algo::AllReduce(R::TwoPhaseHb {
        order: PeerOrder::Staggered,
    });
    const SWITCH: Algo = Algo::AllReduce(R::TwoPhaseSwitch);
    const BC_SWITCH: Algo = Algo::Broadcast(BroadcastAlgo::Switch);
    const BC_DIRECT: Algo = Algo::Broadcast(BroadcastAlgo::Direct);

    fn ar(a: AllReduceAlgo) -> Algo {
        Algo::AllReduce(a)
    }

    fn ag(a: AllGatherAlgo) -> Algo {
        Algo::AllGather(a)
    }

    /// A selection on the full, healthy world.
    fn sel(machine: (EnvKind, usize), ask: Ask, want: Algo) -> Row {
        let (dead, faults) = (&[][..], None);
        Row {
            machine,
            ask,
            dead,
            faults,
            want,
        }
    }

    /// An explicit choice on a two-node world after `dead` were evicted.
    fn shrunk(dead: &'static [usize], asked: Algo, want: Algo) -> Row {
        let (machine, ask, faults) = (A100_2N, Is(asked), None);
        Row {
            machine,
            ask,
            dead,
            faults,
            want,
        }
    }

    /// `asked` on a single-node H100 under `plan`, after `dead` were
    /// evicted, through an automatic entry point or an explicit call.
    fn faulted(
        plan: &FaultPlan,
        dead: &'static [usize],
        auto: bool,
        asked: Algo,
        want: Algo,
    ) -> Row {
        let (machine, ask, faults) = (H100, Is(asked), Some((plan.clone(), auto)));
        Row {
            machine,
            ask,
            dead,
            faults,
            want,
        }
    }

    fn rows() -> Vec<Row> {
        let multimem_down = FaultPlan::new(7).multimem_down_forever(Time::ZERO);
        let link_down = FaultPlan::new(7).link_down_forever(0, 1, Time::ZERO);
        vec![
            // Crossovers (paper §5.1): 1PA is used for 1KB-16KB, 2PA from
            // 32KB, and the PortChannel variant wins at 1GB single-node.
            sel(A100, Ar(1 << 10), ar(R::OnePhaseLl)),
            sel(A100, Ar(16 << 10), ar(R::OnePhaseLl)),
            sel(A100, Ar(32 << 10), TWO_LL),
            sel(A100, Ar(64 << 20), TWO_HB),
            sel(A100, Ar(1 << 30), ar(R::TwoPhasePort)),
            // H100 uses the switch for large messages.
            sel(H100, Ar(64 << 20), SWITCH),
            sel(H100, Ar(1 << 10), ar(R::OnePhaseLl)),
            // Multi-node uses the hierarchical algorithms.
            sel(A100_2N, Ar(1 << 10), ar(R::HierLl)),
            sel(A100_2N, Ar(256 << 20), ar(R::HierHb)),
            sel(A100_2N, Ag(1 << 10), ag(G::HierLl)),
            sel(A100_2N, Ag(16 << 20), ag(G::HierHb)),
            // Survivors still span both nodes: hierarchical is kept.
            shrunk(MEMBER, ar(R::HierLl), ar(R::HierLl)),
            shrunk(MEMBER, ar(R::HierHb), ar(R::HierHb)),
            shrunk(MEMBER, ag(G::HierHb), ag(G::HierHb)),
            // Shrunk to one node: back to the single-node algorithms; the
            // full world stays untouched.
            shrunk(NODE1, ar(R::HierLl), TWO_LL),
            shrunk(NODE1, ar(R::HierHb), TWO_HB),
            shrunk(NODE1, ag(G::HierLl), ag(G::AllPairsLl)),
            shrunk(&[], ar(R::HierLl), ar(R::HierLl)),
            // Permanent faults: automatic calls route around them (on a
            // shrunken node too), explicit calls run as asked.
            faulted(&multimem_down, MEMBER, true, SWITCH, TWO_HB),
            faulted(&multimem_down, &[], true, BC_SWITCH, BC_DIRECT),
            faulted(&link_down, &[], true, TWO_HB, ar(R::Ring)),
            faulted(&link_down, &[], false, TWO_HB, TWO_HB),
        ]
    }

    #[test]
    fn selection_and_fit_table() {
        for (i, row) in rows().into_iter().enumerate() {
            let machine = Machine::new(row.machine.0.spec(row.machine.1));
            let topo = machine.topology();
            let group: Vec<Rank> = topo.ranks().filter(|r| !row.dead.contains(&r.0)).collect();
            let faults = row.faults.as_ref().filter(|(_, auto)| *auto);
            let live = Live {
                topo,
                group: (!row.dead.is_empty()).then_some(&group[..]),
                faults: faults.map(|(plan, _)| plan),
            };
            let asked = match row.ask {
                Ar(bytes) => ar(select_all_reduce(&machine, bytes)),
                Ag(bytes) => ag(select_all_gather(&machine, bytes)),
                Is(algo) => algo,
            };
            assert_eq!(fit(asked, &live), row.want, "row {i}: {asked:?}");
        }
    }
}
