//! AllGather algorithms: all-pairs (LL and HB) for single node and
//! hierarchical for multi-node clusters (§5.1's AllGather evaluation).

use hw::{BufferId, DataType, Rank, ReduceOp};
use mscclpp::{split_range, Error, Kernel, KernelBuilder, Protocol, Result, Setup};

use super::Plan;
use crate::algos::allreduce::PeerOrder;
use crate::wiring::{isect, node_groups, MemMesh, PortMesh};

/// Chunk size for pipelined PortChannel transfers.
const PORT_CHUNK: usize = 1 << 20;

fn chunks(total: usize, chunk: usize) -> Vec<(usize, usize)> {
    if total == 0 {
        return vec![(0, 0)];
    }
    let mut out = Vec::with_capacity(total.div_ceil(chunk));
    let mut off = 0;
    while off < total {
        let len = chunk.min(total - off);
        out.push((off, len));
        off += len;
    }
    out
}

fn peers(n: usize, me: usize, tb: usize) -> impl Iterator<Item = usize> {
    (0..n - 1).map(move |j| (me + 1 + (tb + j) % (n - 1)) % n)
}

/// All-pairs AllGather: every rank puts its chunk directly into every
/// peer's output. One step; the natural MSCCL++ pattern for both small
/// (LL) and large (HB) single-node messages.
#[derive(Debug)]
pub(crate) struct AllPairsAllGather {
    ranks: Vec<Rank>,
    inputs: Vec<BufferId>,
    outputs: Vec<BufferId>,
    tbs: usize,
    protocol: Protocol,
    order: PeerOrder,
    mesh: MemMesh,
}

impl AllPairsAllGather {
    #[allow(clippy::too_many_arguments)]
    pub fn prepare(
        setup: &mut Setup<'_>,
        ranks: &[Rank],
        inputs: &[BufferId],
        outputs: &[BufferId],
        tbs: usize,
        protocol: Protocol,
        order: PeerOrder,
    ) -> Result<AllPairsAllGather> {
        let mesh = MemMesh::build(setup, ranks, inputs, outputs, protocol, tbs)?;
        Ok(AllPairsAllGather {
            ranks: ranks.to_vec(),
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            tbs,
            protocol,
            order,
            mesh,
        })
    }
}

impl Plan for AllPairsAllGather {
    /// Kernels gathering `bytes` per rank.
    fn kernels(&self, bytes: usize, _dtype: DataType, _op: ReduceOp) -> Result<Vec<Kernel>> {
        let n = self.ranks.len();
        let mut out = Vec::with_capacity(n);
        for (ig, &g) in self.ranks.iter().enumerate() {
            let mut kb = KernelBuilder::new(g);
            for t in 0..self.tbs {
                let mut tb = kb.block(t);
                let (ms, ml) = split_range(bytes, self.tbs, t);
                let plist: Vec<usize> = match self.order {
                    PeerOrder::Staggered => peers(n, ig, t).collect(),
                    PeerOrder::Sequential => peers(n, ig, 0).collect(),
                };
                for &p in &plist {
                    // My chunk lands at slot ig of the peer's output.
                    match self.protocol {
                        Protocol::LL => {
                            tb.put(self.mesh.at(t, ig, p), ig * bytes + ms, ms, ml);
                        }
                        Protocol::HB => {
                            tb.put_with_signal(self.mesh.at(t, ig, p), ig * bytes + ms, ms, ml);
                        }
                    }
                }
                tb.copy(self.inputs[g.0], ms, self.outputs[g.0], ig * bytes + ms, ml);
                for &p in &plist {
                    match self.protocol {
                        Protocol::LL => tb.wait_data(self.mesh.at(t, ig, p)),
                        Protocol::HB => tb.wait(self.mesh.at(t, ig, p)),
                    };
                }
            }
            out.push(kb.build());
        }
        Ok(out)
    }
}

/// Hierarchical AllGather for multi-node clusters: all-pairs exchange of
/// chunks among corresponding GPUs across nodes (RDMA), then node-local
/// all-pairs distribution of the `nodes` chunks each GPU now holds.
#[derive(Debug)]
pub(crate) struct HierAllGather {
    world: Vec<Rank>,
    nodes: usize,
    gpn: usize,
    inputs: Vec<BufferId>,
    outputs: Vec<BufferId>,
    tbs: usize,
    protocol: Protocol,
    cross: Vec<PortMesh>,
    local: Vec<MemMesh>,
}

impl HierAllGather {
    pub fn prepare(
        setup: &mut Setup<'_>,
        inputs: &[BufferId],
        outputs: &[BufferId],
        tbs: usize,
        protocol: Protocol,
    ) -> Result<HierAllGather> {
        let topo = setup.topology();
        let (nodes, gpn) = (topo.nodes(), topo.gpus_per_node());
        if nodes < 2 {
            return Err(Error::InvalidArgument(
                "hierarchical allgather needs at least two nodes".into(),
            ));
        }
        let mut cross = Vec::new();
        for l in 0..gpn {
            let ranks: Vec<Rank> = (0..nodes).map(|a| topo.rank_at(a, l)).collect();
            cross.push(PortMesh::build(setup, &ranks, inputs, outputs, tbs)?);
        }
        let mut local = Vec::new();
        for node in 0..nodes {
            let ranks: Vec<Rank> = (0..gpn).map(|l| topo.rank_at(node, l)).collect();
            local.push(MemMesh::build(
                setup, &ranks, outputs, outputs, protocol, tbs,
            )?);
        }
        Ok(HierAllGather {
            world: topo.ranks().collect(),
            nodes,
            gpn,
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            tbs,
            protocol,
            cross,
            local,
        })
    }
}

impl Plan for HierAllGather {
    /// Kernels gathering `bytes` per rank.
    fn kernels(&self, bytes: usize, _dtype: DataType, _op: ReduceOp) -> Result<Vec<Kernel>> {
        let mut out = Vec::with_capacity(self.world.len());
        for &g in &self.world {
            let node = g.0 / self.gpn;
            let li = g.0 % self.gpn;
            let mut kb = KernelBuilder::new(g);
            for t in 0..self.tbs {
                let mut tb = kb.block(t);
                let (ms, ml) = split_range(bytes, self.tbs, t);
                // Phase 1: cross-node exchange of my chunk with my
                // corresponding GPUs; everything lands at global slots.
                let cross = &self.cross[li];
                for b in peers(self.nodes, node, t) {
                    tb.port_put_with_signal(cross.at(t, node, b), g.0 * bytes + ms, ms, ml);
                }
                tb.copy(
                    self.inputs[g.0],
                    ms,
                    self.outputs[g.0],
                    g.0 * bytes + ms,
                    ml,
                );
                for b in peers(self.nodes, node, t) {
                    tb.port_wait(cross.at(t, node, b));
                }
                // Phase 2: node-local distribution of the `nodes` chunks
                // I now hold (one per node, all at local index li).
                let local = &self.local[node];
                for b in 0..self.nodes {
                    let chunk_rank = b * self.gpn + li;
                    for p in peers(self.gpn, li, t) {
                        let off = chunk_rank * bytes + ms;
                        match self.protocol {
                            Protocol::LL => {
                                tb.put(local.at(t, li, p), off, off, ml);
                            }
                            Protocol::HB => {
                                tb.put_with_signal(local.at(t, li, p), off, off, ml);
                            }
                        }
                    }
                }
                for _ in 0..self.nodes {
                    for p in peers(self.gpn, li, t) {
                        match self.protocol {
                            Protocol::LL => tb.wait_data(local.at(t, li, p)),
                            Protocol::HB => tb.wait(local.at(t, li, p)),
                        };
                    }
                }
            }
            out.push(kb.build());
        }
        Ok(out)
    }
}

/// All-pairs AllGather over PortChannels: the DMA engines move the data
/// (the §2.2.2 DMA-copy mode, 263 GB/s on A100 vs thread-copy's
/// 227 GB/s), freeing GPU threads.
#[derive(Debug)]
pub(crate) struct AllPairsAllGatherPort {
    ranks: Vec<Rank>,
    inputs: Vec<BufferId>,
    outputs: Vec<BufferId>,
    tbs: usize,
    mesh: PortMesh,
}

impl AllPairsAllGatherPort {
    pub fn prepare(
        setup: &mut Setup<'_>,
        ranks: &[Rank],
        inputs: &[BufferId],
        outputs: &[BufferId],
        tbs: usize,
    ) -> Result<AllPairsAllGatherPort> {
        let mesh = PortMesh::build(setup, ranks, inputs, outputs, tbs)?;
        Ok(AllPairsAllGatherPort {
            ranks: ranks.to_vec(),
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            tbs,
            mesh,
        })
    }
}

impl Plan for AllPairsAllGatherPort {
    /// Kernels gathering `bytes` per rank via DMA.
    fn kernels(&self, bytes: usize, _dtype: DataType, _op: ReduceOp) -> Result<Vec<Kernel>> {
        let n = self.ranks.len();
        let mut out = Vec::with_capacity(n);
        for (ig, &g) in self.ranks.iter().enumerate() {
            let mut kb = KernelBuilder::new(g);
            for t in 0..self.tbs {
                let mut tb = kb.block(t);
                let (ms, ml) = split_range(bytes, self.tbs, t);
                let plist: Vec<usize> = peers(n, ig, t).collect();
                for &p in &plist {
                    for (coff, clen) in chunks(ml, PORT_CHUNK) {
                        tb.port_put_with_signal(
                            self.mesh.at(t, ig, p),
                            ig * bytes + ms + coff,
                            ms + coff,
                            clen,
                        );
                    }
                }
                tb.copy(self.inputs[g.0], ms, self.outputs[g.0], ig * bytes + ms, ml);
                for &p in &plist {
                    for _ in chunks(ml, PORT_CHUNK) {
                        tb.port_wait(self.mesh.at(t, ig, p));
                    }
                }
            }
            out.push(kb.build());
        }
        Ok(out)
    }
}

/// Hierarchical AllGather rebuilt on an asymmetric survivor group after
/// an epoch shrink. Output slots are renumbered by *position* in the
/// sorted survivor list (the epoch contract every shrunken collective
/// follows): survivor at position `pos` contributes output slot `pos`.
///
/// Leader relay, mirroring [`crate::algos::allreduce::ShrunkenHierarchical`]:
/// members push their chunk into their node leader's output, leaders
/// exchange node-contiguous ranges over re-wired RDMA port channels, and
/// each leader pushes the fully gathered result to its members. Every
/// thread block owns one contiguous slice of the *gathered* output and
/// carries it through all three phases, so no cross-block ordering is
/// needed.
#[derive(Debug)]
pub(crate) struct ShrunkenHierAllGather {
    /// Survivors partitioned by node; `node_members[ni][0]` is the leader.
    node_members: Vec<Vec<Rank>>,
    /// Position in the sorted survivor list of each node's first member.
    node_start: Vec<usize>,
    /// Survivor count.
    k: usize,
    inputs: Vec<BufferId>,
    outputs: Vec<BufferId>,
    tbs: usize,
    /// Per node: members' chunks into the leader's output.
    up: Vec<MemMesh>,
    /// Leaders all-pairs over RDMA ports: outputs -> outputs.
    cross: PortMesh,
    /// Per node: leader's gathered result to members' outputs.
    down: Vec<MemMesh>,
}

impl ShrunkenHierAllGather {
    pub fn prepare(
        setup: &mut Setup<'_>,
        group: &[Rank],
        inputs: &[BufferId],
        outputs: &[BufferId],
        tbs: usize,
    ) -> Result<ShrunkenHierAllGather> {
        let topo = setup.topology();
        let node_members = node_groups(&topo, group);
        if node_members.len() < 2 {
            return Err(Error::InvalidArgument(
                "shrunken hierarchical allgather needs survivors on at \
                 least two nodes"
                    .into(),
            ));
        }
        let mut node_start = Vec::with_capacity(node_members.len());
        let mut pos = 0;
        for members in &node_members {
            node_start.push(pos);
            pos += members.len();
        }
        let leaders: Vec<Rank> = node_members.iter().map(|m| m[0]).collect();
        let mut up = Vec::with_capacity(node_members.len());
        let mut down = Vec::with_capacity(node_members.len());
        for members in &node_members {
            up.push(MemMesh::build(
                setup,
                members,
                inputs,
                outputs,
                Protocol::HB,
                tbs,
            )?);
            down.push(MemMesh::build(
                setup,
                members,
                outputs,
                outputs,
                Protocol::HB,
                tbs,
            )?);
        }
        let cross = PortMesh::build(setup, &leaders, outputs, outputs, tbs)?;
        Ok(ShrunkenHierAllGather {
            node_members,
            node_start,
            k: pos,
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            tbs,
            up,
            cross,
            down,
        })
    }
}

impl Plan for ShrunkenHierAllGather {
    /// Kernels gathering `bytes` per survivor into position-indexed slots.
    fn kernels(&self, bytes: usize, _dtype: DataType, _op: ReduceOp) -> Result<Vec<Kernel>> {
        let total = self.k * bytes;
        let nleads = self.node_members.len();
        let mut out = Vec::new();
        for (ni, members) in self.node_members.iter().enumerate() {
            let m = members.len();
            for (mi, &g) in members.iter().enumerate() {
                let pos = self.node_start[ni] + mi;
                let mut kb = KernelBuilder::new(g);
                for t in 0..self.tbs {
                    let mut tb = kb.block(t);
                    // Each thread block owns one slice of the gathered
                    // output and carries it end to end. Empty clips are
                    // skipped on both the put and the wait side — each
                    // peer computes the other's clip deterministically,
                    // so signal/wait counts stay balanced.
                    let (ts, tl) = split_range(total, self.tbs, t);
                    // My slot, clipped to this block's slice.
                    let (s, l) = isect(ts, tl, pos * bytes, bytes);
                    if mi != 0 {
                        // Member: push my chunk up, receive everything.
                        if l > 0 {
                            tb.put_with_signal(self.up[ni].at(t, mi, 0), s, s - pos * bytes, l);
                        }
                        tb.wait(self.down[ni].at(t, mi, 0));
                        continue;
                    }
                    // Leader. Phase 1: collect my node's chunks.
                    for p in 1..m {
                        let ppos = self.node_start[ni] + p;
                        if isect(ts, tl, ppos * bytes, bytes).1 > 0 {
                            tb.wait(self.up[ni].at(t, 0, p));
                        }
                    }
                    if l > 0 {
                        tb.copy(self.inputs[g.0], s - pos * bytes, self.outputs[g.0], s, l);
                    }
                    // Phase 2: exchange node-contiguous ranges among
                    // leaders (my node's range, clipped to my slice).
                    let (ns, nl) = isect(ts, tl, self.node_start[ni] * bytes, m * bytes);
                    for lj in peers(nleads, ni, t) {
                        if nl > 0 {
                            tb.port_put_with_signal(self.cross.at(t, ni, lj), ns, ns, nl);
                        }
                    }
                    for lj in peers(nleads, ni, t) {
                        let mj = self.node_members[lj].len();
                        if isect(ts, tl, self.node_start[lj] * bytes, mj * bytes).1 > 0 {
                            tb.port_wait(self.cross.at(t, ni, lj));
                        }
                    }
                    // Phase 3: push the fully gathered slice down.
                    for p in 1..m {
                        tb.put_with_signal(self.down[ni].at(t, 0, p), ts, ts, tl);
                    }
                }
                out.push(kb.build());
            }
        }
        Ok(out)
    }
}
