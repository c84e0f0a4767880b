//! ReduceScatter: all-pairs within a node (Figure 5's algorithm), with a
//! mixed memory/port all-pairs variant for multi-node clusters.

#![allow(clippy::needless_range_loop)] // channel grids are indexed by construction
use hw::{BufferId, DataType, Rank, ReduceOp};
use mscclpp::{split_range, Kernel, KernelBuilder, Protocol, Result, Setup};

use super::Plan;
use crate::wiring::{node_groups, MemMesh, PortMesh};

fn peers(n: usize, me: usize, tb: usize) -> impl Iterator<Item = usize> {
    (0..n - 1).map(move |j| (me + 1 + (tb + j) % (n - 1)) % n)
}

/// All-pairs ReduceScatter: the member at group position `p` receives
/// every peer's `p`-th shard into per-sender scratch slots and reduces
/// them into its output. Intra-node pairs ride memory channels;
/// cross-node pairs (multi-node clusters) ride RDMA port channels.
///
/// Subset-capable: on a shrunken epoch the plan runs over the survivor
/// `group` with shards renumbered by position in the sorted survivor
/// list (the epoch contract every shrunken collective follows).
#[derive(Debug)]
pub(crate) struct AllPairsReduceScatter {
    group: Vec<Rank>,
    /// Node id per group position (for the memory-vs-port channel pick).
    node_of: Vec<usize>,
    inputs: Vec<BufferId>,
    outputs: Vec<BufferId>,
    slot_cap: usize,
    tbs: usize,
    protocol: Protocol,
    mesh: MemMesh,
    cross: Option<PortMesh>,
    scratch: Vec<BufferId>,
}

impl AllPairsReduceScatter {
    pub fn prepare(
        setup: &mut Setup<'_>,
        group: &[Rank],
        inputs: &[BufferId],
        outputs: &[BufferId],
        cap: usize,
        tbs: usize,
        protocol: Protocol,
    ) -> Result<AllPairsReduceScatter> {
        let topo = setup.topology();
        let mut group = group.to_vec();
        group.sort_unstable();
        let n = group.len();
        let node_of: Vec<usize> = group.iter().map(|&r| topo.node_of(r)).collect();
        let slot_cap = cap.div_ceil(n).next_multiple_of(16);
        // Scratch lives in a world-sized vector so channel builders can
        // index it by global rank; non-member slots hold a placeholder
        // (their input id) that nothing touches.
        let mut scratch = inputs.to_vec();
        for &r in &group {
            scratch[r.0] = setup.alloc(r, n * slot_cap);
        }
        let node_members = node_groups(&topo, &group);
        let same_node_only = node_members.len() == 1;
        // Memory mesh covers intra-node pairs; build per node and merge
        // into one grid indexed by group *position*.
        let mesh = if same_node_only {
            MemMesh::build(setup, &group, inputs, &scratch, protocol, tbs)?
        } else {
            let mut grid = vec![vec![vec![None; n]; n]; tbs];
            for members in &node_members {
                let sub = MemMesh::build(setup, members, inputs, &scratch, protocol, tbs)?;
                for t in 0..tbs {
                    for (ia, &a) in members.iter().enumerate() {
                        for (ib, &b) in members.iter().enumerate() {
                            if ia != ib {
                                let pa = group.iter().position(|&x| x == a).expect("member");
                                let pb = group.iter().position(|&x| x == b).expect("member");
                                grid[t][pa][pb] = Some(sub.at(t, ia, ib).clone());
                            }
                        }
                    }
                }
            }
            MemMesh {
                ranks: group.clone(),
                chans: grid,
            }
        };
        let cross = if same_node_only {
            None
        } else {
            // Port channels for every cross-node ordered pair: build an
            // all-pairs port mesh over the group and only use the
            // cross-node entries.
            Some(PortMesh::build(setup, &group, inputs, &scratch, tbs)?)
        };
        Ok(AllPairsReduceScatter {
            group,
            node_of,
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            slot_cap,
            tbs,
            protocol,
            mesh,
            cross,
            scratch,
        })
    }
}

impl Plan for AllPairsReduceScatter {
    /// Kernels reducing `bytes` of total input per rank (each rank's
    /// output shard is `bytes / N`, rank-indexed).
    fn kernels(&self, bytes: usize, dtype: DataType, op: ReduceOp) -> Result<Vec<Kernel>> {
        let n = self.group.len();
        let es = dtype.size();
        let count = bytes / es;
        let shard = |i: usize| split_range(count, n, i);
        let topo_same = |ia: usize, ib: usize| self.node_of[ia] == self.node_of[ib];
        let mut out = Vec::with_capacity(n);
        for (ig, &g) in self.group.iter().enumerate() {
            let mut kb = KernelBuilder::new(g);
            for t in 0..self.tbs {
                let mut tb = kb.block(t);
                let plist: Vec<usize> = peers(n, ig, t).collect();
                for &p in &plist {
                    let (ps, pl) = shard(p);
                    let (sl, sll) = split_range(pl, self.tbs, t);
                    let dst_off = ig * self.slot_cap + sl * es;
                    let src_off = (ps + sl) * es;
                    if topo_same(ig, p) {
                        match self.protocol {
                            Protocol::LL => {
                                tb.put(self.mesh.at(t, ig, p), dst_off, src_off, sll * es);
                            }
                            Protocol::HB => {
                                tb.put_with_signal(
                                    self.mesh.at(t, ig, p),
                                    dst_off,
                                    src_off,
                                    sll * es,
                                );
                            }
                        }
                    } else {
                        let cross = self.cross.as_ref().expect("cross mesh missing");
                        tb.port_put_with_signal(cross.at(t, ig, p), dst_off, src_off, sll * es);
                    }
                }
                let (gs, gl) = shard(ig);
                let (ms, ml) = split_range(gl, self.tbs, t);
                tb.copy(
                    self.inputs[g.0],
                    (gs + ms) * es,
                    self.outputs[g.0],
                    ms * es,
                    ml * es,
                );
                for &p in &plist {
                    if topo_same(ig, p) {
                        match self.protocol {
                            Protocol::LL => tb.wait_data(self.mesh.at(t, ig, p)),
                            Protocol::HB => tb.wait(self.mesh.at(t, ig, p)),
                        };
                    } else {
                        let cross = self.cross.as_ref().expect("cross mesh missing");
                        tb.port_wait(cross.at(t, ig, p));
                    }
                    tb.reduce(
                        self.scratch[g.0],
                        p * self.slot_cap + ms * es,
                        self.outputs[g.0],
                        ms * es,
                        ml * es,
                        dtype,
                        op,
                    );
                }
            }
            out.push(kb.build());
        }
        Ok(out)
    }
}
