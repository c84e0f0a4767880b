//! Channel-set builders shared by the collective algorithms.
//!
//! MSCCL++ channels are bound to their source and destination buffers at
//! construction (§4.2), so each algorithm prepares the channel sets it
//! needs — per thread block and per peer pair, exactly as the real
//! library instantiates device handles — and reuses them across launches.

use hw::{BufferId, Rank, Topology};
use mscclpp::{MemoryChannel, PortChannel, Protocol, Result, Setup};

/// Per-thread-block, per-ordered-pair memory channels within one rank
/// group: `chans[tb][a][b]` is the endpoint on rank `a` putting into (or
/// reading from) rank `b`.
#[derive(Debug)]
pub(crate) struct MemMesh {
    /// Participating ranks, in grid order (diagnostic).
    #[allow(dead_code)]
    pub ranks: Vec<Rank>,
    /// Indexed `[tb][local index of a][local index of b]`.
    pub chans: Vec<Vec<Vec<Option<MemoryChannel>>>>,
}

impl MemMesh {
    /// Builds all-pairs channels among `ranks` where rank `a`'s endpoint
    /// puts from `src[a]` into `dst[b]` on rank `b` (indices into the
    /// full-world buffer vectors).
    pub fn build(
        setup: &mut Setup<'_>,
        ranks: &[Rank],
        src: &[BufferId],
        dst: &[BufferId],
        protocol: Protocol,
        tbs: usize,
    ) -> Result<MemMesh> {
        let g = ranks.len();
        let mut chans = Vec::with_capacity(tbs);
        for _ in 0..tbs {
            let mut grid: Vec<Vec<Option<MemoryChannel>>> = vec![vec![None; g]; g];
            for ia in 0..g {
                for ib in (ia + 1)..g {
                    let (a, b) = (ranks[ia], ranks[ib]);
                    let (ca, cb) = setup.memory_channel_pair(
                        a, src[a.0], dst[b.0], b, src[b.0], dst[a.0], protocol,
                    )?;
                    grid[ia][ib] = Some(ca);
                    grid[ib][ia] = Some(cb);
                }
            }
            chans.push(grid);
        }
        Ok(MemMesh {
            ranks: ranks.to_vec(),
            chans,
        })
    }

    /// The channel endpoint on `ranks[ia]` towards `ranks[ib]` for `tb`.
    pub fn at(&self, tb: usize, ia: usize, ib: usize) -> &MemoryChannel {
        self.chans[tb][ia][ib].as_ref().expect("no channel to self")
    }
}

/// Per-thread-block port channels between corresponding GPUs of different
/// groups (e.g. GPU `i` of every node): `chans[tb][a][b]` is the endpoint
/// on group member `a` towards member `b`.
#[derive(Debug)]
pub(crate) struct PortMesh {
    /// Participating ranks, in grid order (diagnostic).
    #[allow(dead_code)]
    pub ranks: Vec<Rank>,
    pub chans: Vec<Vec<Vec<Option<PortChannel>>>>,
}

impl PortMesh {
    /// Builds all-pairs port channels among `ranks`, putting from
    /// `src[a]` into `dst[b]`.
    pub fn build(
        setup: &mut Setup<'_>,
        ranks: &[Rank],
        src: &[BufferId],
        dst: &[BufferId],
        tbs: usize,
    ) -> Result<PortMesh> {
        let g = ranks.len();
        let mut chans = Vec::with_capacity(tbs);
        for _ in 0..tbs {
            let mut grid: Vec<Vec<Option<PortChannel>>> = vec![vec![None; g]; g];
            for ia in 0..g {
                for ib in (ia + 1)..g {
                    let (a, b) = (ranks[ia], ranks[ib]);
                    let (ca, cb) =
                        setup.port_channel_pair(a, src[a.0], dst[b.0], b, src[b.0], dst[a.0])?;
                    grid[ia][ib] = Some(ca);
                    grid[ib][ia] = Some(cb);
                }
            }
            chans.push(grid);
        }
        Ok(PortMesh {
            ranks: ranks.to_vec(),
            chans,
        })
    }

    /// The channel endpoint on `ranks[ia]` towards `ranks[ib]` for `tb`.
    pub fn at(&self, tb: usize, ia: usize, ib: usize) -> &PortChannel {
        self.chans[tb][ia][ib].as_ref().expect("no channel to self")
    }
}

/// Partitions a (sorted) rank group into per-node member lists, skipping
/// nodes with no surviving member. The hierarchical shrunken plans elect
/// the first member of each list as that node's leader.
pub(crate) fn node_groups(topo: &Topology, group: &[Rank]) -> Vec<Vec<Rank>> {
    let mut out: Vec<Vec<Rank>> = Vec::new();
    let mut last_node = usize::MAX;
    let mut sorted = group.to_vec();
    sorted.sort_unstable();
    for r in sorted {
        let node = topo.node_of(r);
        if node != last_node {
            out.push(Vec::new());
            last_node = node;
        }
        out.last_mut().expect("pushed above").push(r);
    }
    out
}

/// Intersects the half-open ranges `[a0, a0+al)` and `[b0, b0+bl)`,
/// returning `(start, len)` in absolute coordinates. An empty
/// intersection is anchored at `b0` so callers can subtract `b0` from the
/// start without underflow when emitting balanced zero-length transfers.
pub(crate) fn isect(a0: usize, al: usize, b0: usize, bl: usize) -> (usize, usize) {
    let s = a0.max(b0);
    let e = (a0 + al).min(b0 + bl);
    if e > s {
        (s, e - s)
    } else {
        (b0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isect_clamps_and_anchors_empty() {
        assert_eq!(isect(0, 10, 4, 4), (4, 4));
        assert_eq!(isect(5, 10, 4, 4), (5, 3));
        assert_eq!(isect(0, 3, 4, 4), (4, 0), "empty anchors at b0");
        assert_eq!(isect(9, 3, 4, 4), (4, 0));
    }

    #[test]
    fn node_groups_partition_survivors_by_node() {
        use hw::EnvKind;
        let topo = hw::Machine::new(EnvKind::A100_40G.spec(2)).topology();
        let group: Vec<Rank> = [0, 3, 5, 8, 15].into_iter().map(Rank).collect();
        let groups = node_groups(&topo, &group);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], vec![Rank(0), Rank(3), Rank(5)]);
        assert_eq!(groups[1], vec![Rank(8), Rank(15)]);
        // A whole dead node disappears from the partition.
        let ones: Vec<Rank> = (8..16).map(Rank).collect();
        assert_eq!(node_groups(&topo, &ones).len(), 1);
    }
}
