//! The NCCL communicator: connection setup and collective kernels
//! (ring and tree), mirroring the architecture of §2.2.1.

use hw::{BufferId, DataType, Machine, Rank, ReduceOp, Topology};
use mscclpp::{Kernel, KernelBuilder, KernelTiming, Result, Setup};
use sim::Engine;

use crate::config::{Algo, Choice, NcclConfig, Proto};
use crate::conn::Conn;
use crate::launch::{split_range, Launcher};
use crate::prims::Prims;

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Per-channel connection sets.
///
/// Each channel uses a different ring ordering (node-major with the
/// local order rotated by the channel index), so that the rings of
/// different channels cross nodes through different GPUs — and therefore
/// different NICs — as NCCL's topology search does. The tree's
/// node-leader role rotates the same way.
#[derive(Debug, Clone)]
struct Channel {
    /// Ring sequence: `order[p]` is the rank at ring position `p`.
    order: Vec<Rank>,
    /// Inverse of `order`: `pos[r]` is rank r's ring position.
    pos: Vec<usize>,
    /// `ring_next[p]` carries `order[p]` → `order[(p+1) % N]`.
    ring_next: Vec<Conn>,
    /// Tree: `tree_up[r]` carries r → parent(r), `None` at the root.
    tree_up: Vec<Option<Conn>>,
    /// Tree: `tree_down[r]` carries parent(r) → r, `None` at the root.
    tree_down: Vec<Option<Conn>>,
    /// Per-rank scratch used by tree interior nodes (one Simple slot).
    scratch: Vec<BufferId>,
}

/// An NCCL communicator over all ranks of the machine.
///
/// Owns the staging-FIFO connections for the ring and tree topologies
/// across `max_channels` channels and compiles collective kernels over
/// them. The tree is node-aware, as in NCCL: GPUs chain within a node
/// and node leaders form a binary tree across nodes.
#[derive(Debug)]
pub struct NcclComm {
    cfg: NcclConfig,
    topo: Topology,
    channels: Vec<Channel>,
    launcher: Launcher,
}

/// Parent of `rank` in the node-aware tree for a channel whose local
/// chain is rotated by `shift` (the node leader is local index `shift`).
fn tree_parent(topo: Topology, rank: Rank, shift: usize) -> Option<Rank> {
    let g = topo.gpus_per_node();
    let node = topo.node_of(rank);
    let local = (topo.local_index(rank) + g - shift % g) % g;
    if local > 0 {
        Some(topo.rank_at(node, (local - 1 + shift) % g))
    } else if node > 0 {
        Some(topo.rank_at((node - 1) / 2, shift % g))
    } else {
        None
    }
}

/// Children of `rank` in the shifted node-aware tree.
fn tree_children(topo: Topology, rank: Rank, shift: usize) -> Vec<Rank> {
    let g = topo.gpus_per_node();
    let node = topo.node_of(rank);
    let local = (topo.local_index(rank) + g - shift % g) % g;
    let mut out = Vec::new();
    if local + 1 < g {
        out.push(topo.rank_at(node, (local + 1 + shift) % g));
    }
    if local == 0 {
        for c in [2 * node + 1, 2 * node + 2] {
            if c < topo.nodes() {
                out.push(topo.rank_at(c, shift % g));
            }
        }
    }
    out
}

impl NcclComm {
    /// Builds a communicator, allocating staging buffers and semaphores
    /// for every ring and tree edge on every channel.
    pub fn new(setup: &mut Setup<'_>, cfg: NcclConfig) -> NcclComm {
        let topo = setup.topology();
        let n = topo.world_size();
        let g = topo.gpus_per_node();
        let mut channels = Vec::with_capacity(cfg.max_channels);
        for c in 0..cfg.max_channels {
            // Node-major ring; each channel permutes the local order with
            // a different (rotation, stride) so that (a) rings of
            // different channels cross nodes through different GPUs —
            // and therefore different NICs — and (b) on peer-to-peer
            // meshes, alternating strides walk disjoint link sets, as
            // NCCL/RCCL's topology search does.
            let stride = if c % 2 == 0 {
                1
            } else {
                // Smallest stride > 1 coprime to the node size.
                (2..g).find(|s| gcd(*s, g) == 1).unwrap_or(1)
            };
            let order: Vec<Rank> = (0..topo.nodes())
                .flat_map(|node| (0..g).map(move |k| topo.rank_at(node, (c + k * stride) % g)))
                .collect();
            let mut pos = vec![0usize; n];
            for (p, &r) in order.iter().enumerate() {
                pos[r.0] = p;
            }
            let ring_next: Vec<Conn> = (0..n)
                .map(|p| Conn::create(setup, &cfg, order[p], order[(p + 1) % n]))
                .collect();
            let mut tree_up = Vec::with_capacity(n);
            let mut tree_down = Vec::with_capacity(n);
            for r in 0..n {
                match tree_parent(topo, Rank(r), c) {
                    Some(p) => {
                        tree_up.push(Some(Conn::create(setup, &cfg, Rank(r), p)));
                        tree_down.push(Some(Conn::create(setup, &cfg, p, Rank(r))));
                    }
                    None => {
                        tree_up.push(None);
                        tree_down.push(None);
                    }
                }
            }
            let scratch = (0..n)
                .map(|r| setup.alloc(Rank(r), cfg.slot_bytes_simple))
                .collect();
            channels.push(Channel {
                order,
                pos,
                ring_next,
                tree_up,
                tree_down,
                scratch,
            });
        }
        NcclComm {
            cfg,
            topo,
            channels,
            launcher: Launcher::new("nccl", n, setup.overheads().clone()),
        }
    }

    /// The stack configuration.
    pub fn config(&self) -> &NcclConfig {
        &self.cfg
    }

    /// Enables or disables plan verification (on by default).
    pub fn set_verify(&self, on: bool) {
        self.launcher.set_verify(on);
    }

    /// Compiles ring-AllReduce kernels (Figure 1's ReduceScatter followed
    /// by an AllGather around the same ring), one thread block per
    /// channel.
    #[allow(clippy::too_many_arguments)]
    fn ring_all_reduce(
        &self,
        input: &[BufferId],
        output: &[BufferId],
        count: usize,
        dtype: DataType,
        op: ReduceOp,
        proto: Proto,
        nch: usize,
    ) -> Vec<Kernel> {
        let n = self.topo.world_size();
        let es = dtype.size();
        let slot_elems = self.cfg.slot_bytes(proto) / es;
        let mut builders: Vec<KernelBuilder> =
            (0..n).map(|r| kernel_builder(Rank(r), &self.cfg)).collect();
        for c in 0..nch {
            let (stripe_start, stripe_len) = split_range(count, nch, c);
            // Per-rank chunk within the stripe.
            let chunk = |i: usize| split_range(stripe_len, n, i);
            let max_chunk = (0..n).map(|i| chunk(i).1).max().unwrap_or(0);
            let nbatches = max_chunk.div_ceil(slot_elems).max(1);
            for r in 0..n {
                let mut kb = std::mem::replace(&mut builders[r], KernelBuilder::new(Rank(r)));
                {
                    let mut tb = kb.block(c);
                    let mut p = Prims::new(&mut tb, &self.cfg, proto, dtype, op);
                    let ch = &self.channels[c];
                    let pos = ch.pos[r];
                    let conn_out = &ch.ring_next[pos];
                    let conn_in = &ch.ring_next[(pos + n - 1) % n];
                    // Slice of chunk i covered by batch b, in bytes
                    // relative to the stripe start. Chunks are indexed by
                    // ring position (chunk identity is arbitrary for
                    // AllReduce as long as it is globally consistent).
                    let slice = |i: usize, b: usize| -> (usize, usize) {
                        let (cs, cl) = chunk(i);
                        let lo = (b * slot_elems).min(cl);
                        let hi = ((b + 1) * slot_elems).min(cl);
                        ((stripe_start + cs + lo) * es, (hi - lo) * es)
                    };
                    for b in 0..nbatches {
                        // ReduceScatter phase: N-1 steps.
                        let (off0, len0) = slice(pos, b);
                        p.send(conn_out, input[r], off0, len0);
                        for k in 1..n - 1 {
                            let ci = (pos + n - k) % n;
                            let (off, len) = slice(ci, b);
                            p.recv_reduce_send(conn_in, input[r], off, conn_out, len);
                        }
                        // Final step: position completes chunk (pos+1) % N.
                        let done = (pos + 1) % n;
                        let (off, len) = slice(done, b);
                        p.recv_reduce_copy(conn_in, input[r], off, output[r], off, len);
                        // AllGather phase: N-1 steps forwarding completed
                        // chunks around the ring.
                        let (soff, slen) = slice(done, b);
                        p.send(conn_out, output[r], soff, slen);
                        for k in 0..n - 2 {
                            let ci = (pos + n - k) % n;
                            let (off, len) = slice(ci, b);
                            p.recv_copy_send(conn_in, output[r], off, conn_out, len);
                        }
                        let ci = (pos + 2) % n;
                        let (off, len) = slice(ci, b);
                        p.recv_copy(conn_in, output[r], off, len);
                    }
                }
                builders[r] = kb;
            }
        }
        builders.into_iter().map(KernelBuilder::build).collect()
    }

    /// Compiles tree-AllReduce kernels: reduce up the node-aware tree,
    /// then broadcast back down, pipelined in FIFO-slot batches.
    #[allow(clippy::too_many_arguments)]
    fn tree_all_reduce(
        &self,
        input: &[BufferId],
        output: &[BufferId],
        count: usize,
        dtype: DataType,
        op: ReduceOp,
        proto: Proto,
        nch: usize,
    ) -> Vec<Kernel> {
        let n = self.topo.world_size();
        let es = dtype.size();
        let slot_elems = self.cfg.slot_bytes(proto) / es;
        let mut builders: Vec<KernelBuilder> =
            (0..n).map(|r| kernel_builder(Rank(r), &self.cfg)).collect();
        for c in 0..nch {
            let (stripe_start, stripe_len) = split_range(count, nch, c);
            let nbatches = stripe_len.div_ceil(slot_elems).max(1);
            let ch = &self.channels[c];
            for r in 0..n {
                let mut kb = std::mem::replace(&mut builders[r], KernelBuilder::new(Rank(r)));
                {
                    let mut tb = kb.block(c);
                    let mut p = Prims::new(&mut tb, &self.cfg, proto, dtype, op);
                    let children = tree_children(self.topo, Rank(r), c);
                    let up = ch.tree_up[r].as_ref();
                    let down = ch.tree_down[r].as_ref();
                    for b in 0..nbatches {
                        let lo = (b * slot_elems).min(stripe_len);
                        let hi = ((b + 1) * slot_elems).min(stripe_len);
                        let off = (stripe_start + lo) * es;
                        let len = (hi - lo) * es;
                        // Reduce phase.
                        match (children.is_empty(), up) {
                            (true, Some(up)) => {
                                // Leaf: push my data up.
                                p.send(up, input[r], off, len);
                            }
                            (false, up) => {
                                // Interior or root: fold my input with the
                                // first child, then remaining children.
                                let acc = ch.scratch[r];
                                let acc_off = 0;
                                let first = ch.tree_up[children[0].0].as_ref().unwrap();
                                let (dst, dst_off) = if up.is_none() && children.len() == 1 {
                                    (output[r], off)
                                } else {
                                    (acc, acc_off)
                                };
                                p.recv_reduce_copy(first, input[r], off, dst, dst_off, len);
                                for (i, &child) in children.iter().enumerate().skip(1) {
                                    let conn = ch.tree_up[child.0].as_ref().unwrap();
                                    let last = i == children.len() - 1;
                                    let (d, doff) = if up.is_none() && last {
                                        (output[r], off)
                                    } else {
                                        (acc, acc_off)
                                    };
                                    p.recv_reduce_copy(conn, dst, dst_off, d, doff, len);
                                }
                                if let Some(up) = up {
                                    p.send(up, acc, acc_off, len);
                                }
                            }
                            (true, None) => {
                                // Single-rank world: allreduce is a copy.
                                p.copy_local(input[r], off, output[r], off, len);
                            }
                        }
                        // Broadcast phase.
                        if let Some(down) = down {
                            if children.is_empty() {
                                p.recv_copy(down, output[r], off, len);
                            } else {
                                let first_child_down =
                                    ch.tree_down[children[0].0].as_ref().unwrap();
                                p.recv_copy_send(down, output[r], off, first_child_down, len);
                                for &child in children.iter().skip(1) {
                                    let conn = ch.tree_down[child.0].as_ref().unwrap();
                                    p.send(conn, output[r], off, len);
                                }
                            }
                        } else {
                            for &child in &children {
                                let conn = ch.tree_down[child.0].as_ref().unwrap();
                                p.send(conn, output[r], off, len);
                            }
                        }
                    }
                }
                builders[r] = kb;
            }
        }
        builders.into_iter().map(KernelBuilder::build).collect()
    }

    /// Compiles ring-AllGather kernels: each rank contributes `count`
    /// elements (its own chunk of `input`), and every rank ends with all
    /// `N * count` elements in `output`.
    fn ring_all_gather(
        &self,
        input: &[BufferId],
        output: &[BufferId],
        count: usize,
        dtype: DataType,
        proto: Proto,
        nch: usize,
    ) -> Vec<Kernel> {
        let n = self.topo.world_size();
        let es = dtype.size();
        let slot_elems = self.cfg.slot_bytes(proto) / es;
        let mut builders: Vec<KernelBuilder> =
            (0..n).map(|r| kernel_builder(Rank(r), &self.cfg)).collect();
        for c in 0..nch {
            let (stripe_start, stripe_len) = split_range(count, nch, c);
            let nbatches = stripe_len.div_ceil(slot_elems).max(1);
            for r in 0..n {
                let mut kb = std::mem::replace(&mut builders[r], KernelBuilder::new(Rank(r)));
                {
                    let mut tb = kb.block(c);
                    // AllGather carries no reduction; op is irrelevant.
                    let mut p = Prims::new(&mut tb, &self.cfg, proto, dtype, ReduceOp::Sum);
                    let ch = &self.channels[c];
                    let pos = ch.pos[r];
                    let conn_out = &ch.ring_next[pos];
                    let conn_in = &ch.ring_next[(pos + n - 1) % n];
                    for b in 0..nbatches {
                        let lo = (b * slot_elems).min(stripe_len);
                        let hi = ((b + 1) * slot_elems).min(stripe_len);
                        let boff = (stripe_start + lo) * es;
                        let blen = (hi - lo) * es;
                        // Own chunk into place, then N-1 forwarding steps.
                        p.copy_local(input[r], boff, output[r], r * count * es + boff, blen);
                        p.send(conn_out, input[r], boff, blen);
                        for k in 0..n - 2 {
                            let src = ch.order[(pos + n - 1 - k) % n].0;
                            p.recv_copy_send(
                                conn_in,
                                output[r],
                                src * count * es + boff,
                                conn_out,
                                blen,
                            );
                        }
                        let src = ch.order[(pos + 1) % n].0;
                        p.recv_copy(conn_in, output[r], src * count * es + boff, blen);
                    }
                }
                builders[r] = kb;
            }
        }
        builders.into_iter().map(KernelBuilder::build).collect()
    }

    /// Compiles ring-ReduceScatter kernels (Figure 1): each rank provides
    /// `count * N` elements and receives its reduced chunk of `count`
    /// elements in `output`.
    #[allow(clippy::too_many_arguments)]
    fn ring_reduce_scatter(
        &self,
        input: &[BufferId],
        output: &[BufferId],
        count: usize,
        dtype: DataType,
        op: ReduceOp,
        proto: Proto,
        nch: usize,
    ) -> Vec<Kernel> {
        let n = self.topo.world_size();
        let es = dtype.size();
        let slot_elems = self.cfg.slot_bytes(proto) / es;
        let mut builders: Vec<KernelBuilder> =
            (0..n).map(|r| kernel_builder(Rank(r), &self.cfg)).collect();
        for c in 0..nch {
            let (stripe_start, stripe_len) = split_range(count, nch, c);
            let nbatches = stripe_len.div_ceil(slot_elems).max(1);
            for r in 0..n {
                let mut kb = std::mem::replace(&mut builders[r], KernelBuilder::new(Rank(r)));
                {
                    let mut tb = kb.block(c);
                    let mut p = Prims::new(&mut tb, &self.cfg, proto, dtype, op);
                    let ch = &self.channels[c];
                    let pos = ch.pos[r];
                    let conn_out = &ch.ring_next[pos];
                    let conn_in = &ch.ring_next[(pos + n - 1) % n];
                    for b in 0..nbatches {
                        let lo = (b * slot_elems).min(stripe_len);
                        let hi = ((b + 1) * slot_elems).min(stripe_len);
                        let boff = (stripe_start + lo) * es;
                        let blen = (hi - lo) * es;
                        let chunk_off = |i: usize| i * count * es + boff;
                        // The position starts by sending its predecessor's
                        // chunk; each chunk travels N-1 hops, so after the
                        // final step rank r completes its own chunk r.
                        let c0 = ch.order[(pos + n - 1) % n].0;
                        p.send(conn_out, input[r], chunk_off(c0), blen);
                        for k in 1..n - 1 {
                            let ci = ch.order[(pos + n - 1 - k) % n].0;
                            p.recv_reduce_send(conn_in, input[r], chunk_off(ci), conn_out, blen);
                        }
                        p.recv_reduce_copy(conn_in, input[r], chunk_off(r), output[r], boff, blen);
                    }
                }
                builders[r] = kb;
            }
        }
        builders.into_iter().map(KernelBuilder::build).collect()
    }

    /// Compiles ring (chain) Broadcast kernels from `root`.
    #[allow(clippy::too_many_arguments)]
    fn ring_broadcast(
        &self,
        input: &[BufferId],
        output: &[BufferId],
        count: usize,
        dtype: DataType,
        root: Rank,
        proto: Proto,
        nch: usize,
    ) -> Vec<Kernel> {
        let n = self.topo.world_size();
        let es = dtype.size();
        let slot_elems = self.cfg.slot_bytes(proto) / es;
        let mut builders: Vec<KernelBuilder> =
            (0..n).map(|r| kernel_builder(Rank(r), &self.cfg)).collect();
        for c in 0..nch {
            let (stripe_start, stripe_len) = split_range(count, nch, c);
            let nbatches = stripe_len.div_ceil(slot_elems).max(1);
            for r in 0..n {
                let mut kb = std::mem::replace(&mut builders[r], KernelBuilder::new(Rank(r)));
                {
                    let mut tb = kb.block(c);
                    let mut p = Prims::new(&mut tb, &self.cfg, proto, dtype, ReduceOp::Sum);
                    let ch = &self.channels[c];
                    let rpos = ch.pos[r];
                    let conn_out = &ch.ring_next[rpos];
                    let conn_in = &ch.ring_next[(rpos + n - 1) % n];
                    // Position along the chain starting at the root.
                    let pos = (rpos + n - ch.pos[root.0]) % n;
                    for b in 0..nbatches {
                        let lo = (b * slot_elems).min(stripe_len);
                        let hi = ((b + 1) * slot_elems).min(stripe_len);
                        let boff = (stripe_start + lo) * es;
                        let blen = (hi - lo) * es;
                        if pos == 0 {
                            p.copy_local(input[r], boff, output[r], boff, blen);
                            if n > 1 {
                                p.send(conn_out, input[r], boff, blen);
                            }
                        } else if pos == n - 1 {
                            p.recv_copy(conn_in, output[r], boff, blen);
                        } else {
                            p.recv_copy_send(conn_in, output[r], boff, conn_out, blen);
                        }
                    }
                }
                builders[r] = kb;
            }
        }
        builders.into_iter().map(KernelBuilder::build).collect()
    }

    /// AllReduce over all ranks with an explicit tuner [`Choice`],
    /// returning the batch timing. Data is really reduced; callers can
    /// verify `output` afterwards.
    ///
    /// # Errors
    ///
    /// Propagates kernel deadlocks (which would indicate a compiler bug).
    #[allow(clippy::too_many_arguments)]
    pub fn all_reduce(
        &self,
        engine: &mut Engine<Machine>,
        input: &[BufferId],
        output: &[BufferId],
        count: usize,
        dtype: DataType,
        op: ReduceOp,
        choice: Choice,
    ) -> Result<KernelTiming> {
        let nch = choice.channels.min(self.cfg.max_channels);
        let kernels = match choice.algo {
            Algo::Ring => self.ring_all_reduce(input, output, count, dtype, op, choice.proto, nch),
            Algo::Tree => self.tree_all_reduce(input, output, count, dtype, op, choice.proto, nch),
        };
        self.launcher.launch(engine, &kernels, input, output, |m| {
            commverify::CollectiveSpec::all_reduce(m, count * dtype.size())
        })
    }

    /// AllGather with an explicit tuner [`Choice`] (always ring).
    ///
    /// # Errors
    ///
    /// Propagates kernel deadlocks.
    #[allow(clippy::too_many_arguments)]
    pub fn all_gather(
        &self,
        engine: &mut Engine<Machine>,
        input: &[BufferId],
        output: &[BufferId],
        count: usize,
        dtype: DataType,
        choice: Choice,
    ) -> Result<KernelTiming> {
        let nch = choice.channels.min(self.cfg.max_channels);
        let kernels = self.ring_all_gather(input, output, count, dtype, choice.proto, nch);
        self.launcher.launch(engine, &kernels, input, output, |m| {
            commverify::CollectiveSpec::all_gather(m, count * dtype.size())
        })
    }

    /// ReduceScatter with an explicit tuner [`Choice`] (always ring).
    ///
    /// # Errors
    ///
    /// Propagates kernel deadlocks.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce_scatter(
        &self,
        engine: &mut Engine<Machine>,
        input: &[BufferId],
        output: &[BufferId],
        count: usize,
        dtype: DataType,
        op: ReduceOp,
        choice: Choice,
    ) -> Result<KernelTiming> {
        let nch = choice.channels.min(self.cfg.max_channels);
        let kernels = self.ring_reduce_scatter(input, output, count, dtype, op, choice.proto, nch);
        let n = self.topo.world_size();
        let shard = count * dtype.size();
        self.launcher.launch(engine, &kernels, input, output, |m| {
            let shards = (0..n).map(|i| (i * shard, shard)).collect();
            commverify::CollectiveSpec::reduce_scatter(m, n * shard, shards)
        })
    }

    /// Broadcast from `root` with an explicit tuner [`Choice`].
    ///
    /// # Errors
    ///
    /// Propagates kernel deadlocks.
    #[allow(clippy::too_many_arguments)]
    pub fn broadcast(
        &self,
        engine: &mut Engine<Machine>,
        input: &[BufferId],
        output: &[BufferId],
        count: usize,
        dtype: DataType,
        root: Rank,
        choice: Choice,
    ) -> Result<KernelTiming> {
        let nch = choice.channels.min(self.cfg.max_channels);
        let kernels = self.ring_broadcast(input, output, count, dtype, root, choice.proto, nch);
        self.launcher.launch(engine, &kernels, input, output, |m| {
            commverify::CollectiveSpec::broadcast(m, count * dtype.size(), root.0)
        })
    }
}

fn kernel_builder(rank: Rank, cfg: &NcclConfig) -> KernelBuilder {
    let mut kb = KernelBuilder::new(rank);
    kb.regs_per_thread(cfg.regs_per_thread);
    kb
}
