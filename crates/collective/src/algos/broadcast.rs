//! Broadcast: direct all-pairs puts from the root within a node, with a
//! node-leader relay for multi-node clusters, and an NVSwitch multicast
//! variant on hardware with multimem support.

use hw::{BufferId, DataType, Rank, ReduceOp};
use mscclpp::{Error, Kernel, KernelBuilder, Protocol, Result, Setup, SwitchChannel};

use super::Plan;
use crate::wiring::{node_groups, split_range, MemMesh, PortMesh};

/// Broadcast from a root rank.
///
/// Single node (or survivors confined to one node): the root's thread
/// blocks put slices directly into every member's output. Multi-node:
/// the root RDMAs the message to one elected leader per other node, then
/// each node's leader distributes locally.
///
/// Subset-capable: the relay tree is re-derived from the epoch's member
/// list, so a shrunken multi-node group re-elects leaders among the
/// survivors — the member at the root's local index when it survived,
/// else the node's lowest surviving rank.
#[derive(Debug)]
pub(crate) struct AllPairsBroadcast {
    /// Members partitioned by node (single entry when the group spans
    /// one node).
    node_members: Vec<Vec<Rank>>,
    root: Rank,
    inputs: Vec<BufferId>,
    outputs: Vec<BufferId>,
    tbs: usize,
    /// Index into `node_members[ni]` of node `ni`'s leader.
    leader_mi: Vec<usize>,
    /// Index into `node_members` of the root's node.
    root_ni: usize,
    /// Local distribution mesh per node (output -> output, plus the
    /// root's input as source on the root's node).
    local: Vec<MemMesh>,
    /// Root -> other node leaders (absent when one node spans the group).
    cross: Option<PortMesh>,
}

impl AllPairsBroadcast {
    #[allow(clippy::too_many_arguments)]
    pub fn prepare(
        setup: &mut Setup<'_>,
        group: &[Rank],
        root: Rank,
        inputs: &[BufferId],
        outputs: &[BufferId],
        tbs: usize,
    ) -> Result<AllPairsBroadcast> {
        let topo = setup.topology();
        if !group.contains(&root) {
            return Err(Error::InvalidArgument(format!(
                "broadcast root {} is not in the current epoch",
                root.0
            )));
        }
        let node_members = node_groups(&topo, group);
        // Leader election per node: the member at the root's local index
        // when it survived (the full-topology relay layout), else the
        // node's lowest surviving rank. The root leads its own node.
        let root_li = topo.local_index(root);
        let leader_mi: Vec<usize> = node_members
            .iter()
            .map(|members| {
                members
                    .iter()
                    .position(|&r| topo.local_index(r) == root_li)
                    .unwrap_or(0)
            })
            .collect();
        let root_ni = node_members
            .iter()
            .position(|members| members.contains(&root))
            .expect("root membership checked above");
        // Source vector: every rank "sends" from its output copy except
        // the root, which sends from its input.
        let mut src = outputs.to_vec();
        src[root.0] = inputs[root.0];
        let mut local = Vec::new();
        for members in &node_members {
            local.push(MemMesh::build(
                setup,
                members,
                &src,
                outputs,
                Protocol::HB,
                tbs,
            )?);
        }
        let cross = if node_members.len() > 1 {
            let leaders: Vec<Rank> = node_members
                .iter()
                .zip(&leader_mi)
                .map(|(members, &mi)| members[mi])
                .collect();
            Some(PortMesh::build(setup, &leaders, &src, outputs, tbs)?)
        } else {
            None
        };
        Ok(AllPairsBroadcast {
            node_members,
            root,
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            tbs,
            leader_mi,
            root_ni,
            local,
            cross,
        })
    }

    /// Single-node kernels: the root puts every member's slice directly,
    /// indexed by position in the (possibly shrunken) member list.
    fn single_node_kernels(&self, bytes: usize) -> Vec<Kernel> {
        let members = &self.node_members[0];
        let root_ig = members
            .iter()
            .position(|&r| r == self.root)
            .expect("root membership checked at prepare");
        let mesh = &self.local[0];
        let mut out = Vec::with_capacity(members.len());
        for (ig, &g) in members.iter().enumerate() {
            let mut kb = KernelBuilder::new(g);
            for t in 0..self.tbs {
                let mut tb = kb.block(t);
                let (ms, ml) = split_range(bytes, self.tbs, t);
                if g == self.root {
                    if self.inputs[g.0] != self.outputs[g.0] {
                        tb.copy(self.inputs[g.0], ms, self.outputs[g.0], ms, ml);
                    }
                    for p in 0..members.len() {
                        if p != ig {
                            tb.put_with_signal(mesh.at(t, ig, p), ms, ms, ml);
                        }
                    }
                } else {
                    tb.wait(mesh.at(t, ig, root_ig));
                }
            }
            out.push(kb.build());
        }
        out
    }
}

impl Plan for AllPairsBroadcast {
    /// Kernels broadcasting `bytes` from the root.
    fn kernels(&self, bytes: usize, _dtype: DataType, _op: ReduceOp) -> Result<Vec<Kernel>> {
        if self.node_members.len() == 1 {
            return Ok(self.single_node_kernels(bytes));
        }
        let mut out = Vec::new();
        for (ni, members) in self.node_members.iter().enumerate() {
            let leader_mi = self.leader_mi[ni];
            for (mi, &g) in members.iter().enumerate() {
                let is_leader = mi == leader_mi;
                let mut kb = KernelBuilder::new(g);
                for t in 0..self.tbs {
                    let mut tb = kb.block(t);
                    let (ms, ml) = split_range(bytes, self.tbs, t);
                    if g == self.root {
                        // Phase 1: RDMA to each other node's leader.
                        let cross = self.cross.as_ref().expect("multi-node");
                        for b in 0..self.node_members.len() {
                            if b != self.root_ni {
                                tb.port_put_with_signal(cross.at(t, self.root_ni, b), ms, ms, ml);
                            }
                        }
                        // In-place (input == output) the local copy is a
                        // no-op, and would alias the range the phase-1
                        // proxies are still DMA-reading.
                        if self.inputs[g.0] != self.outputs[g.0] {
                            tb.copy(self.inputs[g.0], ms, self.outputs[g.0], ms, ml);
                        }
                    } else if is_leader {
                        let cross = self.cross.as_ref().expect("multi-node");
                        tb.port_wait(cross.at(t, ni, self.root_ni));
                    }
                    // Phase 2: node-local distribution by the leader (the
                    // root on its own node).
                    if is_leader {
                        let mesh = &self.local[ni];
                        for p in 0..members.len() {
                            if p != mi {
                                tb.put_with_signal(mesh.at(t, mi, p), ms, ms, ml);
                            }
                        }
                    } else {
                        // Wait for my node's leader to push my slice.
                        tb.wait(self.local[ni].at(t, mi, leader_mi));
                    }
                }
                out.push(kb.build());
            }
        }
        Ok(out)
    }
}

/// NVSwitch multicast broadcast: the root multimem-stores its buffer into
/// every member's output in one pass (§4.2.3's `broadcast` primitive).
#[derive(Debug)]
pub(crate) struct SwitchBroadcast {
    ranks: Vec<Rank>,
    root: Rank,
    inputs: Vec<BufferId>,
    tbs: usize,
    chan: Vec<SwitchChannel>,
    barriers: Vec<mscclpp::DeviceBarrier>,
}

impl SwitchBroadcast {
    #[allow(clippy::too_many_arguments)]
    pub fn prepare(
        setup: &mut Setup<'_>,
        group: &[Rank],
        root: Rank,
        inputs: &[BufferId],
        outputs: &[BufferId],
        tbs: usize,
    ) -> Result<SwitchBroadcast> {
        let topo = setup.topology();
        if topo.nodes() != 1 {
            return Err(Error::InvalidArgument(
                "switch broadcast is single-node".into(),
            ));
        }
        if !group.contains(&root) {
            return Err(Error::InvalidArgument(format!(
                "broadcast root {} is not in the current epoch",
                root.0
            )));
        }
        // The multicast group is the epoch's member list — a shrink
        // renumbers the switch group to the survivors.
        let ranks: Vec<Rank> = group.to_vec();
        let members: Vec<_> = ranks.iter().map(|&r| (r, outputs[r.0])).collect();
        let chan = setup.switch_channel(&members)?;
        let barriers = setup.device_barrier(&ranks);
        Ok(SwitchBroadcast {
            ranks,
            root,
            inputs: inputs.to_vec(),
            tbs,
            chan,
            barriers,
        })
    }
}

impl Plan for SwitchBroadcast {
    /// Kernels broadcasting `bytes` from the root through the switch.
    fn kernels(&self, bytes: usize, _dtype: DataType, _op: ReduceOp) -> Result<Vec<Kernel>> {
        let mut out = Vec::with_capacity(self.ranks.len());
        for (ig, &g) in self.ranks.iter().enumerate() {
            let mut kb = KernelBuilder::new(g);
            for t in 0..self.tbs {
                let mut tb = kb.block(t);
                let (ms, ml) = split_range(bytes, self.tbs, t);
                if g == self.root {
                    tb.switch_broadcast(&self.chan[ig], self.inputs[g.0], ms, ms, ml);
                }
                if t == 0 {
                    tb.barrier(&self.barriers[ig]);
                }
            }
            out.push(kb.build());
        }
        Ok(out)
    }
}
