//! Element types and reduction operators for collective payloads.

use std::fmt;

#[cfg(target_arch = "x86_64")]
mod simd;

/// Element type of a collective payload.
///
/// GPU collectives in the paper run predominantly on half precision
/// (`F16`); `F32` and `BF16` are provided for completeness and for tests
/// that want exact arithmetic on small integers.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum DataType {
    /// IEEE-754 binary16.
    F16,
    /// bfloat16 (truncated binary32).
    BF16,
    /// IEEE-754 binary32.
    F32,
}

impl DataType {
    /// Size of one element in bytes.
    pub const fn size(self) -> usize {
        match self {
            DataType::F16 | DataType::BF16 => 2,
            DataType::F32 => 4,
        }
    }

    /// Decodes the element at byte offset `off` in `bytes` to `f32`.
    ///
    /// # Panics
    ///
    /// Panics if `off + self.size()` exceeds `bytes.len()`.
    pub fn decode(self, bytes: &[u8], off: usize) -> f32 {
        match self {
            DataType::F16 => f16_to_f32(u16::from_le_bytes([bytes[off], bytes[off + 1]])),
            DataType::BF16 => {
                f32::from_bits((u16::from_le_bytes([bytes[off], bytes[off + 1]]) as u32) << 16)
            }
            DataType::F32 => {
                f32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
            }
        }
    }

    /// Encodes `v` into `bytes` at byte offset `off`.
    ///
    /// # Panics
    ///
    /// Panics if `off + self.size()` exceeds `bytes.len()`.
    pub fn encode(self, bytes: &mut [u8], off: usize, v: f32) {
        match self {
            DataType::F16 => {
                bytes[off..off + 2].copy_from_slice(&f32_to_f16(v).to_le_bytes());
            }
            DataType::BF16 => {
                let b = ((v.to_bits() >> 16) & 0xffff) as u16;
                bytes[off..off + 2].copy_from_slice(&b.to_le_bytes());
            }
            DataType::F32 => {
                bytes[off..off + 4].copy_from_slice(&v.to_le_bytes());
            }
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::F16 => "f16",
            DataType::BF16 => "bf16",
            DataType::F32 => "f32",
        };
        f.write_str(s)
    }
}

/// Lazily built full decode table for binary16: `table[bits] == f16_to_f32(bits)`.
///
/// Reductions decode every element of every operand, so the scalar
/// branchy conversion dominates collective data-plane time; one 256 KiB
/// table turns it into a single load. The table is a pure function of
/// the bit pattern, so sharing it across engines cannot affect
/// determinism. The fixed-size array type lets `table[u16 as usize]`
/// compile without a bounds check.
pub(crate) fn f16_table() -> &'static [f32; 1 << 16] {
    static TABLE: std::sync::OnceLock<Box<[f32; 1 << 16]>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let v: Vec<f32> = (0..=u16::MAX).map(f16_to_f32).collect();
        v.into_boxed_slice().try_into().expect("65536 entries")
    })
}

impl DataType {
    /// Decodes `out.len()` consecutive elements from `bytes` (which must
    /// hold exactly `out.len() * self.size()` bytes).
    pub(crate) fn decode_lanes(self, bytes: &[u8], out: &mut [f32]) {
        debug_assert_eq!(bytes.len(), out.len() * self.size());
        match self {
            DataType::F16 => {
                #[cfg(target_arch = "x86_64")]
                if simd::decode(bytes, out) {
                    return;
                }
                decode_f16_scalar(bytes, out);
            }
            DataType::BF16 => {
                for (o, c) in out.iter_mut().zip(bytes.chunks_exact(2)) {
                    *o = f32::from_bits((u16::from_le_bytes([c[0], c[1]]) as u32) << 16);
                }
            }
            DataType::F32 => {
                for (o, c) in out.iter_mut().zip(bytes.chunks_exact(4)) {
                    *o = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                }
            }
        }
    }

    /// Folds `src.len()` consecutive elements of `bytes` into `acc`:
    /// `acc[i] = op(acc[i], decode(bytes[i]))`.
    pub(crate) fn accumulate_lanes(self, op: ReduceOp, acc: &mut [f32], bytes: &[u8]) {
        debug_assert_eq!(bytes.len(), acc.len() * self.size());
        match self {
            DataType::F16 => {
                #[cfg(target_arch = "x86_64")]
                if op == ReduceOp::Sum && simd::accumulate_sum(acc, bytes) {
                    return;
                }
                accumulate_f16_scalar(op, acc, bytes);
            }
            DataType::BF16 => {
                for (a, c) in acc.iter_mut().zip(bytes.chunks_exact(2)) {
                    *a = op.apply(
                        *a,
                        f32::from_bits((u16::from_le_bytes([c[0], c[1]]) as u32) << 16),
                    );
                }
            }
            DataType::F32 => {
                for (a, c) in acc.iter_mut().zip(bytes.chunks_exact(4)) {
                    *a = op.apply(*a, f32::from_le_bytes([c[0], c[1], c[2], c[3]]));
                }
            }
        }
    }

    /// Encodes `src.len()` consecutive elements into `bytes`.
    pub(crate) fn encode_lanes(self, bytes: &mut [u8], src: &[f32]) {
        debug_assert_eq!(bytes.len(), src.len() * self.size());
        match self {
            DataType::F16 => {
                #[cfg(target_arch = "x86_64")]
                if simd::encode(bytes, src) {
                    return;
                }
                encode_f16_scalar(bytes, src);
            }
            DataType::BF16 => {
                for (v, c) in src.iter().zip(bytes.chunks_exact_mut(2)) {
                    c.copy_from_slice(&(((v.to_bits() >> 16) & 0xffff) as u16).to_le_bytes());
                }
            }
            DataType::F32 => {
                for (v, c) in src.iter().zip(bytes.chunks_exact_mut(4)) {
                    c.copy_from_slice(&v.to_le_bytes());
                }
            }
        }
    }

    /// Fused two-address reduction over exact-length byte slices:
    /// `dst[i] = encode(op(decode(dst[i]), decode(src[i])))`.
    ///
    /// This is the inner loop of every collective's data plane. F16 sums
    /// take the F16C lanes when the host has them; every path stays
    /// bit-identical to the scalar decode/apply/encode sequence.
    pub(crate) fn reduce_lanes(self, op: ReduceOp, dst: &mut [u8], src: &[u8]) {
        debug_assert_eq!(dst.len(), src.len());
        match self {
            DataType::F16 => {
                #[cfg(target_arch = "x86_64")]
                if op == ReduceOp::Sum && simd::reduce_sum(dst, src) {
                    return;
                }
                reduce_f16_scalar(op, dst, src);
            }
            DataType::BF16 => {
                for (d, s) in dst.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
                    let a = f32::from_bits((u16::from_le_bytes([d[0], d[1]]) as u32) << 16);
                    let b = f32::from_bits((u16::from_le_bytes([s[0], s[1]]) as u32) << 16);
                    let v = ((op.apply(a, b).to_bits() >> 16) & 0xffff) as u16;
                    d.copy_from_slice(&v.to_le_bytes());
                }
            }
            DataType::F32 => {
                for (d, s) in dst.chunks_exact_mut(4).zip(src.chunks_exact(4)) {
                    let a = f32::from_le_bytes([d[0], d[1], d[2], d[3]]);
                    let b = f32::from_le_bytes([s[0], s[1], s[2], s[3]]);
                    d.copy_from_slice(&op.apply(a, b).to_le_bytes());
                }
            }
        }
    }
}

// The scalar F16 lanes: the fallback for hosts without F16C, for
// `Max`/`Min`, for vector tails and special-valued chunks, and the
// reference the SIMD tests compare against. The two that add are never
// inlined: the sign of a sum of two NaNs follows the operand order the
// compiler picks, so fallback and reference must run one machine-code
// copy to agree bit for bit.

/// Scalar F16 [`DataType::decode_lanes`].
pub(crate) fn decode_f16_scalar(bytes: &[u8], out: &mut [f32]) {
    let tbl = f16_table();
    for (o, c) in out.iter_mut().zip(bytes.chunks_exact(2)) {
        *o = tbl[u16::from_le_bytes([c[0], c[1]]) as usize];
    }
}

/// Scalar F16 [`DataType::accumulate_lanes`].
#[inline(never)]
pub(crate) fn accumulate_f16_scalar(op: ReduceOp, acc: &mut [f32], bytes: &[u8]) {
    let tbl = f16_table();
    for (a, c) in acc.iter_mut().zip(bytes.chunks_exact(2)) {
        *a = op.apply(*a, tbl[u16::from_le_bytes([c[0], c[1]]) as usize]);
    }
}

/// Scalar F16 [`DataType::encode_lanes`].
pub(crate) fn encode_f16_scalar(bytes: &mut [u8], src: &[f32]) {
    for (v, c) in src.iter().zip(bytes.chunks_exact_mut(2)) {
        c.copy_from_slice(&f32_to_f16(*v).to_le_bytes());
    }
}

/// Scalar F16 [`DataType::reduce_lanes`].
#[inline(never)]
pub(crate) fn reduce_f16_scalar(op: ReduceOp, dst: &mut [u8], src: &[u8]) {
    let tbl = f16_table();
    for (d, s) in dst.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
        let a = tbl[u16::from_le_bytes([d[0], d[1]]) as usize];
        let b = tbl[u16::from_le_bytes([s[0], s[1]]) as usize];
        d.copy_from_slice(&f32_to_f16(op.apply(a, b)).to_le_bytes());
    }
}

/// Element-wise reduction operator.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Element-wise addition (the AllReduce default).
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl ReduceOp {
    /// Applies the operator to two values.
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

impl fmt::Display for ReduceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Max => "max",
            ReduceOp::Min => "min",
        };
        f.write_str(s)
    }
}

/// Converts an IEEE binary16 bit pattern to `f32`.
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = ((h >> 15) & 1) as u32;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x3ff) as u32;
    let bits = if exp == 0 {
        if mant == 0 {
            sign << 31
        } else {
            // Subnormal: normalize.
            let mut e = 127 - 15 + 1;
            let mut m = mant;
            while m & 0x400 == 0 {
                m <<= 1;
                e -= 1;
            }
            m &= 0x3ff;
            (sign << 31) | ((e as u32) << 23) | (m << 13)
        }
    } else if exp == 0x1f {
        // Inf / NaN
        (sign << 31) | (0xff << 23) | (mant << 13)
    } else {
        (sign << 31) | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(bits)
}

/// Converts `f32` to the nearest IEEE binary16 bit pattern
/// (round-to-nearest-even; NaN payloads collapse to a quiet `0x200`).
///
/// Branch-reduced form: normals round via pure integer arithmetic (add
/// `0xfff` plus the mantissa's odd bit, then shift — the carry performs
/// RN-even, overflowing into infinity exactly when it should), and
/// subnormals round via one IEEE float add against a magic constant
/// whose unit-in-last-place is the half-precision quantum, so the FPU's
/// own RN-even mode does the rounding. Both paths are deterministic on
/// every host (single adds, no FMA) and were verified bit-identical to
/// the scalar reference over all 2^32 inputs. This form also repairs a
/// latent underflow bug in the old converter, which truncated the range
/// (2^-25, 2^-24) to zero instead of rounding it up to the smallest
/// subnormal half.
pub fn f32_to_f16(v: f32) -> u16 {
    const F32_INFTY: u32 = 255 << 23;
    const F16_MAX: u32 = (127 + 16) << 23;
    // 2^-24 scaled so that adding it aligns a subnormal half's last bit
    // with the f32 mantissa's last bit.
    const DENORM_MAGIC: u32 = ((127 - 15) + (23 - 10) + 1) << 23;
    let bits = v.to_bits();
    let sign = (bits >> 16) as u16 & 0x8000;
    let mut u = bits & 0x7fff_ffff;
    let o: u16 = if u >= F16_MAX {
        // Overflow saturates to inf; NaN keeps its sign, payload 0x200.
        if u > F32_INFTY {
            0x7e00
        } else {
            0x7c00
        }
    } else if u < (113 << 23) {
        // Subnormal (or zero) result: let the float add round it.
        let f = f32::from_bits(u) + f32::from_bits(DENORM_MAGIC);
        (f.to_bits() - DENORM_MAGIC) as u16
    } else {
        let mant_odd = (u >> 13) & 1;
        u = u.wrapping_add((15u32.wrapping_sub(127) << 23).wrapping_add(0xfff));
        u = u.wrapping_add(mant_odd);
        (u >> 13) as u16
    };
    sign | o
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Binary16 patterns the vector lanes must hand to the scalar code
    /// or get exactly right: signalling and quiet NaNs of both signs,
    /// ±Inf, ±0, subnormals and ±65504.
    const SPECIAL_F16: [u16; 16] = [
        0x7c01, 0xfc01, 0x7dff, 0x7e00, 0xfe00, 0x7fff, 0x7c00, 0xfc00, 0x0000, 0x8000, 0x0001,
        0x03ff, 0x8001, 0x83ff, 0x7bff, 0xfbff,
    ];

    /// `n` deterministic binary16 patterns: finite halves, with about one
    /// lane in four drawn from [`SPECIAL_F16`] when `specials` is set.
    pub(crate) fn halves(seed: u64, n: usize, specials: bool) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut out = Vec::with_capacity(2 * n);
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let h = if specials && (x >> 32).is_multiple_of(4) {
                SPECIAL_F16[(x >> 40) as usize % SPECIAL_F16.len()]
            } else if x as u16 & 0x7c00 == 0x7c00 {
                x as u16 & !0x4000
            } else {
                x as u16
            };
            out.extend_from_slice(&h.to_le_bytes());
        }
        out
    }

    /// Bit patterns of `f32` accumulators: decoded halves (through the
    /// scalar table), with f32 NaNs, infinities, `f32::MAX` and
    /// values past the half range mixed in when `specials` is set.
    fn floats(seed: u64, n: usize, specials: bool) -> Vec<f32> {
        const SPECIAL_F32: [u32; 10] = [
            0x7fc0_0000,
            0xffc0_0000,
            0x7f80_0001,
            0xff80_0001,
            0x7f80_0000,
            0xff80_0000,
            0x7f7f_ffff,
            0x477f_f000,
            0x477f_efff,
            0x3300_0001,
        ];
        let mut out = vec![0.0; n];
        decode_f16_scalar(&halves(seed, n, specials), &mut out);
        if specials {
            for (i, v) in out
                .iter_mut()
                .enumerate()
                .skip(seed as usize % 5)
                .step_by(5)
            {
                *v = f32::from_bits(SPECIAL_F32[(i + seed as usize) % SPECIAL_F32.len()]);
            }
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// Copies `bytes` into a fresh buffer at byte offset `off`, so lanes
    /// start on an odd or even address.
    fn at(off: usize, bytes: &[u8]) -> Vec<u8> {
        let mut v = vec![0xa5; off];
        v.extend_from_slice(bytes);
        v
    }

    #[test]
    fn decode_lanes_match_scalar_on_every_f16_pattern() {
        let all: Vec<u8> = (0..=u16::MAX).flat_map(u16::to_le_bytes).collect();
        let mut got = vec![0.0; 1 << 16];
        let mut want = vec![0.0; 1 << 16];
        DataType::F16.decode_lanes(&all, &mut got);
        decode_f16_scalar(&all, &mut want);
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn f16_lanes_match_scalar_at_every_length_offset_and_special() {
        for n in 0..=40usize {
            for off in 0..4 {
                for specials in [false, true] {
                    let seed = (n * 8 + off * 2 + specials as usize) as u64;
                    let a = halves(seed, n, specials);
                    let b = halves(seed + 1000, n, specials);
                    let ctx = format!("n {n} offset {off} specials {specials}");
                    for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min] {
                        let mut got = at(off, &a);
                        let mut want = a.clone();
                        DataType::F16.reduce_lanes(
                            op,
                            &mut got[off..],
                            &at(3 - off, &b)[3 - off..],
                        );
                        reduce_f16_scalar(op, &mut want, &b);
                        assert_eq!(&got[off..], &want[..], "reduce {op} {ctx}");

                        let acc = floats(seed, n, specials);
                        let (mut got, mut want) = (acc.clone(), acc);
                        DataType::F16.accumulate_lanes(op, &mut got, &at(off, &b)[off..]);
                        accumulate_f16_scalar(op, &mut want, &b);
                        assert_eq!(bits(&got), bits(&want), "accumulate {op} {ctx}");
                    }
                    let mut got = vec![0.0; n];
                    let mut want = vec![0.0; n];
                    DataType::F16.decode_lanes(&at(off, &a)[off..], &mut got);
                    decode_f16_scalar(&a, &mut want);
                    assert_eq!(bits(&got), bits(&want), "decode {ctx}");

                    let src = floats(seed, n, specials);
                    let mut got = vec![0; off + 2 * n];
                    let mut want = vec![0; 2 * n];
                    DataType::F16.encode_lanes(&mut got[off..], &src);
                    encode_f16_scalar(&mut want, &src);
                    assert_eq!(&got[off..], &want[..], "encode {ctx}");
                }
            }
        }
    }

    #[test]
    fn f16_sum_overflow_and_cancellation_match_scalar() {
        // Each pair sits in an otherwise ordinary 8-lane chunk:
        // 65504 + 65504 overflows to Inf, x + (-x) cancels to +0, and
        // 65504 + 16 is the tie that rounds to Inf.
        let pairs: [(u16, u16); 6] = [
            (0x7bff, 0x7bff),
            (0xfbff, 0xfbff),
            (0x3c00, 0xbc00),
            (0x8001, 0x0001),
            (0x7bff, 0x4c00),
            (0x7bff, 0x4bff),
        ];
        for (i, &(x, y)) in pairs.iter().enumerate() {
            let mut a = halves(i as u64, 8, false);
            let mut b = halves(i as u64 + 50, 8, false);
            a[2 * i..2 * i + 2].copy_from_slice(&x.to_le_bytes());
            b[2 * i..2 * i + 2].copy_from_slice(&y.to_le_bytes());
            let mut got = a.clone();
            let mut want = a.clone();
            DataType::F16.reduce_lanes(ReduceOp::Sum, &mut got, &b);
            reduce_f16_scalar(ReduceOp::Sum, &mut want, &b);
            assert_eq!(got, want, "{x:#06x} + {y:#06x}");

            let mut got = vec![0.0; 8];
            DataType::F16.decode_lanes(&a, &mut got);
            let mut want = got.clone();
            DataType::F16.accumulate_lanes(ReduceOp::Sum, &mut got, &b);
            accumulate_f16_scalar(ReduceOp::Sum, &mut want, &b);
            assert_eq!(bits(&got), bits(&want), "{x:#06x} + {y:#06x}");
            let mut enc_got = vec![0; 16];
            let mut enc_want = vec![0; 16];
            DataType::F16.encode_lanes(&mut enc_got, &got);
            encode_f16_scalar(&mut enc_want, &got);
            assert_eq!(enc_got, enc_want, "{x:#06x} + {y:#06x}");
        }
    }

    /// Runs `f(hi)` for every `hi` in `0..=u16::MAX` on a few threads.
    fn for_all_high_halves(f: impl Fn(u16) + Sync) {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
        std::thread::scope(|s| {
            for t in 0..threads {
                let f = &f;
                s.spawn(move || {
                    for hi in (t..=usize::from(u16::MAX)).step_by(threads) {
                        f(hi as u16);
                    }
                });
            }
        });
    }

    #[test]
    #[ignore = "exhaustive over 2^32 inputs: run with --release -- --ignored"]
    fn f16_sum_matches_scalar_on_all_pairs() {
        let all: Vec<u8> = (0..=u16::MAX).flat_map(u16::to_le_bytes).collect();
        for_all_high_halves(|a| {
            let mut got = a.to_le_bytes().repeat(1 << 16);
            let mut want = got.clone();
            DataType::F16.reduce_lanes(ReduceOp::Sum, &mut got, &all);
            reduce_f16_scalar(ReduceOp::Sum, &mut want, &all);
            if let Some(i) = (0..1 << 16).find(|&i| got[2 * i..2 * i + 2] != want[2 * i..2 * i + 2])
            {
                panic!(
                    "{a:#06x} + {i:#06x}: {:?} != {:?}",
                    &got[2 * i..2 * i + 2],
                    &want[2 * i..2 * i + 2]
                );
            }
        });
    }

    #[test]
    #[ignore = "exhaustive over 2^32 inputs: run with --release -- --ignored"]
    fn f16_encoder_matches_scalar_on_all_f32() {
        for_all_high_halves(|hi| {
            let src: Vec<f32> = (0..=u16::MAX)
                .map(|lo| f32::from_bits(u32::from(hi) << 16 | u32::from(lo)))
                .collect();
            let mut got = vec![0; 2 << 16];
            DataType::F16.encode_lanes(&mut got, &src);
            for (v, c) in src.iter().zip(got.chunks_exact(2)) {
                let h = u16::from_le_bytes([c[0], c[1]]);
                assert_eq!(h, f32_to_f16(*v), "f32 bits {:#010x}", v.to_bits());
            }
        });
    }

    #[test]
    fn f16_round_trip_exact_values() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 0.25, 1024.0] {
            let h = f32_to_f16(v);
            assert_eq!(f16_to_f32(h), v, "round trip failed for {v}");
        }
    }

    #[test]
    fn f16_overflow_saturates_to_inf() {
        assert!(f16_to_f32(f32_to_f16(1e6)).is_infinite());
        assert!(f16_to_f32(f32_to_f16(-1e6)).is_infinite());
    }

    #[test]
    fn f16_subnormals_round_trip() {
        let smallest = 5.960_464_5e-8; // 2^-24
        let h = f32_to_f16(smallest);
        let back = f16_to_f32(h);
        assert!((back - smallest).abs() < 1e-9);
    }

    #[test]
    fn f16_nan_preserved() {
        assert!(f16_to_f32(f32_to_f16(f32::NAN)).is_nan());
    }

    #[test]
    fn f16_underflow_rounds_to_smallest_subnormal() {
        // Values strictly between 2^-25 and 2^-24 are nearer the smallest
        // subnormal half (bit pattern 1) than zero and must round up; the
        // old converter truncated this whole range to zero.
        assert_eq!(f32_to_f16(f32::from_bits(0x3300_0001)), 1);
        assert_eq!(f32_to_f16(f32::from_bits(0x337f_ffff)), 1);
        assert_eq!(f32_to_f16(-f32::from_bits(0x3300_0001)), 0x8001);
        // Exactly 2^-25 is a tie and rounds to even (zero), below it to zero.
        assert_eq!(f32_to_f16(f32::from_bits(0x3300_0000)), 0);
        assert_eq!(f32_to_f16(f32::from_bits(0x32ff_ffff)), 0);
    }

    #[test]
    fn f16_rounding_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next half value;
        // round-to-even keeps 1.0.
        let v = 1.0 + 2f32.powi(-11);
        assert_eq!(f16_to_f32(f32_to_f16(v)), 1.0);
        // 1 + 3*2^-11 is halfway and rounds up to even mantissa.
        let v = 1.0 + 3.0 * 2f32.powi(-11);
        assert_eq!(f16_to_f32(f32_to_f16(v)), 1.0 + 2.0 * 2f32.powi(-10));
    }

    #[test]
    fn encode_decode_all_dtypes() {
        let mut buf = [0u8; 8];
        for dt in [DataType::F16, DataType::BF16, DataType::F32] {
            dt.encode(&mut buf, 0, 3.5);
            assert_eq!(dt.decode(&buf, 0), 3.5, "{dt}");
        }
    }

    #[test]
    fn reduce_ops() {
        assert_eq!(ReduceOp::Sum.apply(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(ReduceOp::Min.apply(2.0, 3.0), 2.0);
    }

    #[test]
    fn dtype_sizes() {
        assert_eq!(DataType::F16.size(), 2);
        assert_eq!(DataType::BF16.size(), 2);
        assert_eq!(DataType::F32.size(), 4);
    }
}
