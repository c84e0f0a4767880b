//! AllToAll: every rank sends a distinct chunk to every other rank —
//! the fourth collective pattern the paper's introduction lists. The
//! all-pairs structure maps directly onto one-sided puts: rank `a`'s
//! chunk `b` lands in rank `b`'s output slot `a`.

#![allow(clippy::needless_range_loop)] // channel grids are indexed by construction
use hw::{BufferId, DataType, Rank, ReduceOp};
use mscclpp::{split_range, Kernel, KernelBuilder, Protocol, Result, Setup};

use super::Plan;
use crate::wiring::{node_groups, MemMesh, PortMesh};

fn peers(n: usize, me: usize, tb: usize) -> impl Iterator<Item = usize> {
    (0..n - 1).map(move |j| (me + 1 + (tb + j) % (n - 1)) % n)
}

/// All-pairs AllToAll over memory channels (intra-node) and RDMA port
/// channels (cross-node).
///
/// Subset-capable: on a shrunken epoch the plan runs over the survivor
/// `group` with chunk indices renumbered by position in the sorted
/// survivor list (the epoch contract every shrunken collective follows).
#[derive(Debug)]
pub(crate) struct AllPairsAllToAll {
    group: Vec<Rank>,
    /// Node id per group position (for the memory-vs-port channel pick).
    node_of: Vec<usize>,
    inputs: Vec<BufferId>,
    outputs: Vec<BufferId>,
    tbs: usize,
    protocol: Protocol,
    mesh: MemMesh,
    cross: Option<PortMesh>,
}

impl AllPairsAllToAll {
    #[allow(clippy::too_many_arguments)]
    pub fn prepare(
        setup: &mut Setup<'_>,
        group: &[Rank],
        inputs: &[BufferId],
        outputs: &[BufferId],
        tbs: usize,
        protocol: Protocol,
    ) -> Result<AllPairsAllToAll> {
        let topo = setup.topology();
        let mut group = group.to_vec();
        group.sort_unstable();
        let n = group.len();
        let node_of: Vec<usize> = group.iter().map(|&r| topo.node_of(r)).collect();
        let node_members = node_groups(&topo, &group);
        let same_node_only = node_members.len() == 1;
        // Intra-node pairs per node, merged into one grid indexed by
        // group *position*.
        let mesh = if same_node_only {
            MemMesh::build(setup, &group, inputs, outputs, protocol, tbs)?
        } else {
            let mut grid = vec![vec![vec![None; n]; n]; tbs];
            for members in &node_members {
                let sub = MemMesh::build(setup, members, inputs, outputs, protocol, tbs)?;
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
            Some(PortMesh::build(setup, &group, inputs, outputs, tbs)?)
        };
        Ok(AllPairsAllToAll {
            group,
            node_of,
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            tbs,
            protocol,
            mesh,
            cross,
        })
    }
}

impl Plan for AllPairsAllToAll {
    /// Kernels exchanging `bytes` per (src, dst) pair: inputs and outputs
    /// hold `N * bytes` each, chunk `i` addressed to / received from
    /// rank `i`.
    fn kernels(&self, bytes: usize, _dtype: DataType, _op: ReduceOp) -> Result<Vec<Kernel>> {
        let n = self.group.len();
        let same = |ia: usize, ib: usize| self.node_of[ia] == self.node_of[ib];
        let mut out = Vec::with_capacity(n);
        for (ig, &g) in self.group.iter().enumerate() {
            let mut kb = KernelBuilder::new(g);
            for t in 0..self.tbs {
                let mut tb = kb.block(t);
                let (ms, ml) = split_range(bytes, self.tbs, t);
                let plist: Vec<usize> = peers(n, ig, t).collect();
                for &p in &plist {
                    // My chunk p lands in p's output slot ig.
                    let src_off = p * bytes + ms;
                    let dst_off = ig * bytes + ms;
                    if same(ig, p) {
                        match self.protocol {
                            Protocol::LL => {
                                tb.put(self.mesh.at(t, ig, p), dst_off, src_off, ml);
                            }
                            Protocol::HB => {
                                tb.put_with_signal(self.mesh.at(t, ig, p), dst_off, src_off, ml);
                            }
                        }
                    } else {
                        let cross = self.cross.as_ref().expect("cross mesh missing");
                        tb.port_put_with_signal(cross.at(t, ig, p), dst_off, src_off, ml);
                    }
                }
                tb.copy(
                    self.inputs[g.0],
                    ig * bytes + ms,
                    self.outputs[g.0],
                    ig * bytes + ms,
                    ml,
                );
                for &p in &plist {
                    if same(ig, p) {
                        match self.protocol {
                            Protocol::LL => tb.wait_data(self.mesh.at(t, ig, p)),
                            Protocol::HB => tb.wait(self.mesh.at(t, ig, p)),
                        };
                    } else {
                        let cross = self.cross.as_ref().expect("cross mesh missing");
                        tb.port_wait(cross.at(t, ig, p));
                    }
                }
            }
            out.push(kb.build());
        }
        Ok(out)
    }
}
