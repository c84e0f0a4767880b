//! GPU memory: real byte buffers, copies, and element-wise reductions.

use crate::dtype::{DataType, ReduceOp};
use crate::topology::Rank;

/// Identifies a buffer allocated in a [`MemoryPool`].
#[derive(Debug, Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BufferId(usize);

#[derive(Debug)]
struct Buffer {
    rank: Rank,
    data: Vec<u8>,
}

/// All simulated GPU memory in the cluster.
///
/// Every buffer is a real `Vec<u8>` tagged with the rank that owns it.
/// Peer-to-peer `put`, switch `reduce`, and local `copy` operations move
/// actual bytes here, so benchmark harnesses can verify collective outputs
/// bit-for-bit (within floating-point reduction-order tolerance) before
/// trusting a timing.
#[derive(Debug, Default)]
pub struct MemoryPool {
    buffers: Vec<Buffer>,
    /// Cumulative bytes moved by data-plane operations (`copy`, `reduce`,
    /// `reduce_into`, `multimem_*`), counting operand traffic. Host-side
    /// initialization (`write`, `fill_with`) is not counted.
    moved_bytes: u64,
    /// Reusable `f32` staging buffer for the three-address reductions,
    /// so the per-instruction hot path never allocates.
    scratch: Vec<f32>,
}

impl MemoryPool {
    /// Creates an empty pool.
    pub fn new() -> MemoryPool {
        MemoryPool::default()
    }

    /// Cumulative bytes moved by data-plane operations so far.
    ///
    /// Counts the payload of every `copy` and `multimem_broadcast`
    /// destination write, and the operand bytes read by reductions
    /// (`reduce`/`reduce_into` read two streams and write one, so they
    /// count `3 * count * element_size`; `multimem_reduce` counts each
    /// source plus the destination).
    pub fn moved_bytes(&self) -> u64 {
        self.moved_bytes
    }

    /// Allocates a zero-initialized buffer of `size` bytes on `rank`.
    pub fn alloc(&mut self, rank: Rank, size: usize) -> BufferId {
        self.buffers.push(Buffer {
            rank,
            data: vec![0; size],
        });
        BufferId(self.buffers.len() - 1)
    }

    /// Size in bytes of a buffer.
    pub fn len(&self, buf: BufferId) -> usize {
        self.buffers[buf.0].data.len()
    }

    /// Whether the pool holds no buffers.
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }

    /// The rank that owns a buffer.
    pub fn rank_of(&self, buf: BufferId) -> Rank {
        self.buffers[buf.0].rank
    }

    /// Read-only view of `len` bytes at `off`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn bytes(&self, buf: BufferId, off: usize, len: usize) -> &[u8] {
        &self.buffers[buf.0].data[off..off + len]
    }

    /// Overwrites `len` bytes at `dst_off` with `src`.
    ///
    /// # Panics
    ///
    /// Panics if the destination range is out of bounds or `src.len()`
    /// differs from the range length.
    pub fn write(&mut self, buf: BufferId, off: usize, src: &[u8]) {
        self.buffers[buf.0].data[off..off + src.len()].copy_from_slice(src);
    }

    /// Copies `len` bytes from `(src, src_off)` to `(dst, dst_off)`.
    ///
    /// Supports `src == dst` (memmove semantics).
    ///
    /// # Panics
    ///
    /// Panics if either range is out of bounds.
    pub fn copy(
        &mut self,
        src: BufferId,
        src_off: usize,
        dst: BufferId,
        dst_off: usize,
        len: usize,
    ) {
        self.moved_bytes += len as u64;
        if src.0 == dst.0 {
            self.buffers[src.0]
                .data
                .copy_within(src_off..src_off + len, dst_off);
        } else {
            let (a, b) = split_two(&mut self.buffers, src.0, dst.0);
            b.data[dst_off..dst_off + len].copy_from_slice(&a.data[src_off..src_off + len]);
        }
    }

    /// Element-wise `dst = op(dst, src)` over `count` elements of `dtype`.
    ///
    /// Arithmetic is performed in `f32` and rounded back to `dtype`,
    /// matching GPU mixed-precision reduction behaviour.
    ///
    /// # Panics
    ///
    /// Panics if either range is out of bounds, or if `src == dst` with
    /// overlapping ranges.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce(
        &mut self,
        src: BufferId,
        src_off: usize,
        dst: BufferId,
        dst_off: usize,
        count: usize,
        dtype: DataType,
        op: ReduceOp,
    ) {
        let es = dtype.size();
        let len = count * es;
        self.moved_bytes += 3 * len as u64;
        if src.0 == dst.0 {
            let lo = src_off.min(dst_off);
            let hi = (src_off.max(dst_off)) + len;
            assert!(
                src_off + len <= dst_off || dst_off + len <= src_off,
                "overlapping in-place reduce: [{lo}, {hi})"
            );
            let data = &mut self.buffers[src.0].data;
            if src_off < dst_off {
                let (a, b) = data.split_at_mut(dst_off);
                dtype.reduce_lanes(op, &mut b[..len], &a[src_off..src_off + len]);
            } else {
                let (a, b) = data.split_at_mut(src_off);
                dtype.reduce_lanes(op, &mut a[dst_off..dst_off + len], &b[..len]);
            }
        } else {
            let (s, d) = split_two(&mut self.buffers, src.0, dst.0);
            dtype.reduce_lanes(
                op,
                &mut d.data[dst_off..dst_off + len],
                &s.data[src_off..src_off + len],
            );
        }
    }

    /// Three-address element-wise reduction: `dst = op(a, b)` over `count`
    /// elements of `dtype` (the GPU register path of NCCL's
    /// `recvReduceCopy`: no intermediate store into either operand).
    ///
    /// Aliasing among the three ranges is allowed.
    ///
    /// # Panics
    ///
    /// Panics if any range is out of bounds.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce_into(
        &mut self,
        a: BufferId,
        a_off: usize,
        b: BufferId,
        b_off: usize,
        dst: BufferId,
        dst_off: usize,
        count: usize,
        dtype: DataType,
        op: ReduceOp,
    ) {
        let es = dtype.size();
        let len = count * es;
        self.moved_bytes += 3 * len as u64;
        // Staging through `scratch` keeps the "no intermediate store"
        // register semantics under any aliasing of the three ranges.
        let mut acc = std::mem::take(&mut self.scratch);
        acc.clear();
        acc.resize(count, 0.0);
        dtype.decode_lanes(&self.buffers[a.0].data[a_off..a_off + len], &mut acc);
        dtype.accumulate_lanes(op, &mut acc, &self.buffers[b.0].data[b_off..b_off + len]);
        dtype.encode_lanes(&mut self.buffers[dst.0].data[dst_off..dst_off + len], &acc);
        self.scratch = acc;
    }

    /// Switch-style multimem load-reduce: `dst = op(srcs...)` over `count`
    /// elements, reducing corresponding elements of every source buffer.
    ///
    /// # Panics
    ///
    /// Panics if `srcs` is empty or any range is out of bounds.
    pub fn multimem_reduce(
        &mut self,
        srcs: &[(BufferId, usize)],
        dst: BufferId,
        dst_off: usize,
        count: usize,
        dtype: DataType,
        op: ReduceOp,
    ) {
        assert!(
            !srcs.is_empty(),
            "multimem_reduce needs at least one source"
        );
        let es = dtype.size();
        let len = count * es;
        self.moved_bytes += ((srcs.len() + 1) * len) as u64;
        let mut acc = std::mem::take(&mut self.scratch);
        acc.clear();
        acc.resize(count, 0.0);
        for (si, &(src, src_off)) in srcs.iter().enumerate() {
            let data = &self.buffers[src.0].data[src_off..src_off + len];
            if si == 0 {
                dtype.decode_lanes(data, &mut acc);
            } else {
                dtype.accumulate_lanes(op, &mut acc, data);
            }
        }
        dtype.encode_lanes(&mut self.buffers[dst.0].data[dst_off..dst_off + len], &acc);
        self.scratch = acc;
    }

    /// Switch-style multimem store-broadcast: writes `len` bytes from
    /// `(src, src_off)` into every `(dst, dst_off)`.
    ///
    /// # Panics
    ///
    /// Panics if any range is out of bounds.
    pub fn multimem_broadcast(
        &mut self,
        src: BufferId,
        src_off: usize,
        dsts: &[(BufferId, usize)],
        len: usize,
    ) {
        self.moved_bytes += (len * dsts.len()) as u64;
        for &(dst, dst_off) in dsts.iter().filter(|d| d.0 != src) {
            let (s, d) = split_two(&mut self.buffers, src.0, dst.0);
            d.data[dst_off..dst_off + len].copy_from_slice(&s.data[src_off..src_off + len]);
        }
        // Destinations in the source buffer go last, so every other
        // destination receives the source as it was before the call.
        for &(_, dst_off) in dsts.iter().filter(|d| d.0 == src) {
            self.buffers[src.0]
                .data
                .copy_within(src_off..src_off + len, dst_off);
        }
    }

    /// Fills a buffer with encoded elements produced by `f(element_index)`.
    pub fn fill_with(&mut self, buf: BufferId, dtype: DataType, mut f: impl FnMut(usize) -> f32) {
        let es = dtype.size();
        let n = self.len(buf) / es;
        let data = &mut self.buffers[buf.0].data;
        for i in 0..n {
            dtype.encode(data, i * es, f(i));
        }
    }

    /// Decodes the whole buffer as a vector of `f32`.
    pub fn to_f32_vec(&self, buf: BufferId, dtype: DataType) -> Vec<f32> {
        let es = dtype.size();
        let n = self.len(buf) / es;
        let data = &self.buffers[buf.0].data;
        (0..n).map(|i| dtype.decode(data, i * es)).collect()
    }
}

/// Splits two distinct indices of a slice into disjoint mutable references.
fn split_two(v: &mut [Buffer], a: usize, b: usize) -> (&mut Buffer, &mut Buffer) {
    assert_ne!(a, b);
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        let (x, y) = (&mut hi[0], &mut lo[b]);
        (x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::tests::halves;
    use crate::dtype::{
        accumulate_f16_scalar, decode_f16_scalar, encode_f16_scalar, reduce_f16_scalar,
    };

    const OPS: [ReduceOp; 3] = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min];

    /// Scalar reference of a staged F16 fold: `op(srcs[0], srcs[1], ..)`.
    fn scalar_fold(op: ReduceOp, srcs: &[&[u8]]) -> Vec<u8> {
        let mut acc = vec![0.0; srcs[0].len() / 2];
        decode_f16_scalar(srcs[0], &mut acc);
        for s in &srcs[1..] {
            accumulate_f16_scalar(op, &mut acc, s);
        }
        let mut out = vec![0; srcs[0].len()];
        encode_f16_scalar(&mut out, &acc);
        out
    }

    #[test]
    fn f16_reduce_matches_scalar_reference() {
        for n in [0, 1, 7, 8, 9, 33, 40] {
            for off in [0, 1, 3] {
                for op in OPS {
                    let a = halves(n as u64, n, true);
                    let b = halves(n as u64 + 99, n, true);
                    let mut want = a.clone();
                    reduce_f16_scalar(op, &mut want, &b);
                    let len = 2 * n;
                    let mut p = MemoryPool::new();
                    let src = p.alloc(Rank(0), off + len);
                    let dst = p.alloc(Rank(1), off + len);
                    p.write(src, off, &b);
                    p.write(dst, off, &a);
                    p.reduce(src, off, dst, off, n, DataType::F16, op);
                    assert_eq!(p.bytes(dst, off, len), &want[..], "n {n} off {off} {op}");
                    // In place, with the source before and after the
                    // destination.
                    for (s_off, d_off) in [(off, off + len), (off + len, off)] {
                        let buf = p.alloc(Rank(0), off + 2 * len);
                        p.write(buf, s_off, &b);
                        p.write(buf, d_off, &a);
                        p.reduce(buf, s_off, buf, d_off, n, DataType::F16, op);
                        let ctx = format!("n {n} src {s_off} dst {d_off} {op}");
                        assert_eq!(p.bytes(buf, d_off, len), &want[..], "{ctx}");
                        assert_eq!(p.bytes(buf, s_off, len), &b[..], "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn f16_reduce_into_matches_scalar_reference_when_aliased() {
        for n in [0, 1, 7, 8, 9, 33, 40] {
            for off in [0, 1, 3] {
                for op in OPS {
                    let a = halves(n as u64 + 7, n, true);
                    let want = scalar_fold(op, &[&a, &a]);
                    let len = 2 * n;
                    let mut p = MemoryPool::new();
                    // All three ranges the same, then the destination one
                    // element past both operands.
                    for d_off in [off, off + 2] {
                        let buf = p.alloc(Rank(0), off + len + 2);
                        p.write(buf, off, &a);
                        p.reduce_into(buf, off, buf, off, buf, d_off, n, DataType::F16, op);
                        let ctx = format!("n {n} off {off} dst {d_off} {op}");
                        assert_eq!(p.bytes(buf, d_off, len), &want[..], "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn f16_multimem_reduce_matches_scalar_reference() {
        for sources in [1, 8] {
            for n in [0, 1, 7, 8, 9, 33, 40] {
                for op in OPS {
                    let data: Vec<Vec<u8>> = (0..sources)
                        .map(|i| halves((n * 8 + i) as u64, n, true))
                        .collect();
                    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
                    let want = scalar_fold(op, &refs);
                    let len = 2 * n;
                    let mut p = MemoryPool::new();
                    let srcs: Vec<(BufferId, usize)> = data
                        .iter()
                        .enumerate()
                        .map(|(i, d)| {
                            let b = p.alloc(Rank(i), 1 + len);
                            p.write(b, 1, d);
                            (b, 1)
                        })
                        .collect();
                    let dst = p.alloc(Rank(0), 3 + len);
                    p.multimem_reduce(&srcs, dst, 3, n, DataType::F16, op);
                    let ctx = format!("{sources} sources n {n} {op}");
                    assert_eq!(p.bytes(dst, 3, len), &want[..], "{ctx}");
                    assert_eq!(p.moved_bytes(), ((sources + 1) * len) as u64, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn alloc_and_copy_between_ranks() {
        let mut p = MemoryPool::new();
        let a = p.alloc(Rank(0), 16);
        let b = p.alloc(Rank(1), 16);
        p.write(a, 0, &[1, 2, 3, 4]);
        p.copy(a, 0, b, 4, 4);
        assert_eq!(p.bytes(b, 4, 4), &[1, 2, 3, 4]);
        assert_eq!(p.rank_of(a), Rank(0));
        assert_eq!(p.rank_of(b), Rank(1));
    }

    #[test]
    fn copy_within_same_buffer() {
        let mut p = MemoryPool::new();
        let a = p.alloc(Rank(0), 8);
        p.write(a, 0, &[9, 8, 7, 6]);
        p.copy(a, 0, a, 4, 4);
        assert_eq!(p.bytes(a, 0, 8), &[9, 8, 7, 6, 9, 8, 7, 6]);
    }

    #[test]
    fn reduce_sum_f32() {
        let mut p = MemoryPool::new();
        let a = p.alloc(Rank(0), 8);
        let b = p.alloc(Rank(1), 8);
        p.fill_with(a, DataType::F32, |i| i as f32);
        p.fill_with(b, DataType::F32, |i| 10.0 * i as f32);
        p.reduce(a, 0, b, 0, 2, DataType::F32, ReduceOp::Sum);
        assert_eq!(p.to_f32_vec(b, DataType::F32), vec![0.0, 11.0]);
    }

    #[test]
    fn reduce_f16_rounds_like_gpu() {
        let mut p = MemoryPool::new();
        let a = p.alloc(Rank(0), 2);
        let b = p.alloc(Rank(0), 2);
        p.fill_with(a, DataType::F16, |_| 1.0);
        p.fill_with(b, DataType::F16, |_| 2048.0);
        // 2048 + 1 is not representable in f16; rounds to 2048.
        p.reduce(a, 0, b, 0, 1, DataType::F16, ReduceOp::Sum);
        assert_eq!(p.to_f32_vec(b, DataType::F16), vec![2048.0]);
    }

    #[test]
    fn multimem_reduce_sums_all_sources() {
        let mut p = MemoryPool::new();
        let bufs: Vec<_> = (0..4).map(|r| p.alloc(Rank(r), 8)).collect();
        for (r, &b) in bufs.iter().enumerate() {
            p.fill_with(b, DataType::F32, |i| (r + i) as f32);
        }
        let dst = p.alloc(Rank(0), 8);
        let srcs: Vec<_> = bufs.iter().map(|&b| (b, 0)).collect();
        p.multimem_reduce(&srcs, dst, 0, 2, DataType::F32, ReduceOp::Sum);
        // element 0: 0+1+2+3=6, element 1: 1+2+3+4=10
        assert_eq!(p.to_f32_vec(dst, DataType::F32), vec![6.0, 10.0]);
    }

    #[test]
    fn multimem_broadcast_writes_everyone() {
        let mut p = MemoryPool::new();
        let src = p.alloc(Rank(0), 4);
        p.write(src, 0, &[5, 6, 7, 8]);
        let d1 = p.alloc(Rank(1), 4);
        let d2 = p.alloc(Rank(2), 4);
        p.multimem_broadcast(src, 0, &[(d1, 0), (d2, 0)], 4);
        assert_eq!(p.bytes(d1, 0, 4), &[5, 6, 7, 8]);
        assert_eq!(p.bytes(d2, 0, 4), &[5, 6, 7, 8]);
        assert_eq!(p.moved_bytes(), 8);
        // A destination inside the source buffer, listed first, still
        // leaves the later destinations the source as it was.
        let src = p.alloc(Rank(0), 6);
        p.write(src, 0, &[1, 2, 3, 4, 0, 0]);
        let d3 = p.alloc(Rank(1), 4);
        p.multimem_broadcast(src, 0, &[(src, 2), (d3, 0)], 4);
        assert_eq!(p.bytes(src, 0, 6), &[1, 2, 1, 2, 3, 4]);
        assert_eq!(p.bytes(d3, 0, 4), &[1, 2, 3, 4]);
        assert_eq!(p.moved_bytes(), 16);
    }

    #[test]
    #[should_panic(expected = "overlapping in-place reduce")]
    fn overlapping_in_place_reduce_rejected() {
        let mut p = MemoryPool::new();
        let a = p.alloc(Rank(0), 16);
        p.reduce(a, 0, a, 4, 2, DataType::F32, ReduceOp::Sum);
    }

    #[test]
    fn moved_bytes_counts_data_plane_traffic_only() {
        let mut p = MemoryPool::new();
        let a = p.alloc(Rank(0), 16);
        let b = p.alloc(Rank(1), 16);
        p.write(a, 0, &[1; 16]); // host init: not counted
        p.fill_with(b, DataType::F32, |_| 0.0); // host init: not counted
        assert_eq!(p.moved_bytes(), 0);
        p.copy(a, 0, b, 0, 16);
        assert_eq!(p.moved_bytes(), 16);
        // reduce over 2 f32 elements reads two streams, writes one.
        p.reduce(a, 0, b, 0, 2, DataType::F32, ReduceOp::Sum);
        assert_eq!(p.moved_bytes(), 16 + 3 * 8);
    }

    #[test]
    fn in_place_reduce_disjoint_ranges_ok() {
        let mut p = MemoryPool::new();
        let a = p.alloc(Rank(0), 16);
        p.fill_with(a, DataType::F32, |i| i as f32); // [0,1,2,3]
        p.reduce(a, 0, a, 8, 2, DataType::F32, ReduceOp::Sum);
        assert_eq!(p.to_f32_vec(a, DataType::F32), vec![0.0, 1.0, 2.0, 4.0]);
    }
}
