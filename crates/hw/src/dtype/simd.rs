//! F16C lanes for the binary16 data plane: eight elements per step.
//!
//! `vcvtph2ps` and `vcvtps2ph` with an immediate round-to-nearest-even
//! mode are exact IEEE conversions, and `vaddps` is the same
//! round-to-nearest-even add the scalar path compiles to (Rust never
//! changes MXCSR), so on ordinary values every kernel here produces the
//! bits of its scalar twin in the parent module. The conversions differ
//! from the scalar ones only on NaNs: `vcvtph2ps` quiets a signalling
//! NaN the decode table keeps, and `vcvtps2ph` keeps a payload that
//! [`super::f32_to_f16`] collapses to `0x7e00`. So any eight-lane chunk
//! that meets an all-ones exponent (NaN, ±Inf, overflow) is redone by
//! the scalar code, which also handles every tail shorter than eight.
//!
//! Each public function checks for AVX and F16C (a cached test) and
//! returns `false`, having touched nothing, when the host lacks them.
//! All of the crate's `unsafe` lives in this module.

#![deny(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::{
    __m128i, __m256, _mm256_add_ps, _mm256_andnot_ps, _mm256_cmp_ps, _mm256_cvtph_ps,
    _mm256_cvtps_ph, _mm256_loadu_ps, _mm256_movemask_ps, _mm256_set1_ps, _mm256_storeu_ps,
    _mm_and_si128, _mm_cmpeq_epi16, _mm_loadu_si128, _mm_movemask_epi8, _mm_set1_epi16,
    _mm_storeu_si128, _CMP_NLT_UQ, _MM_FROUND_TO_NEAREST_INT,
};

use super::{
    accumulate_f16_scalar, decode_f16_scalar, encode_f16_scalar, reduce_f16_scalar, ReduceOp,
};

/// Bytes of eight binary16 lanes.
const CHUNK: usize = 16;

fn detected() -> bool {
    is_x86_feature_detected!("avx") && is_x86_feature_detected!("f16c")
}

/// F16 [`ReduceOp::Sum`] of `src` into `dst` (equal lengths).
pub(super) fn reduce_sum(dst: &mut [u8], src: &[u8]) -> bool {
    if !detected() {
        return false;
    }
    // SAFETY: AVX and F16C were detected on this host just above.
    unsafe { reduce_sum_f16c(dst, src) };
    true
}

/// F16 decode of `bytes` into `out` (`bytes.len() == 2 * out.len()`).
pub(super) fn decode(bytes: &[u8], out: &mut [f32]) -> bool {
    if !detected() {
        return false;
    }
    // SAFETY: AVX and F16C were detected on this host just above.
    unsafe { decode_f16c(bytes, out) };
    true
}

/// F16 [`ReduceOp::Sum`] of `bytes` into `acc` (`bytes.len() == 2 * acc.len()`).
pub(super) fn accumulate_sum(acc: &mut [f32], bytes: &[u8]) -> bool {
    if !detected() {
        return false;
    }
    // SAFETY: AVX and F16C were detected on this host just above.
    unsafe { accumulate_sum_f16c(acc, bytes) };
    true
}

/// F16 encode of `src` into `bytes` (`bytes.len() == 2 * src.len()`).
pub(super) fn encode(bytes: &mut [u8], src: &[f32]) -> bool {
    if !detected() {
        return false;
    }
    // SAFETY: AVX and F16C were detected on this host just above.
    unsafe { encode_f16c(bytes, src) };
    true
}

/// # Safety
///
/// The host must support AVX and F16C.
#[target_feature(enable = "avx,f16c")]
unsafe fn reduce_sum_f16c(dst: &mut [u8], src: &[u8]) {
    let (d8, d_tail) = dst.as_chunks_mut::<CHUNK>();
    let (s8, s_tail) = src.as_chunks::<CHUNK>();
    for (d, s) in d8.iter_mut().zip(s8) {
        let sum = _mm256_add_ps(_mm256_cvtph_ps(load_f16(d)), _mm256_cvtph_ps(load_f16(s)));
        let r = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(sum);
        // A NaN or infinite operand makes the sum NaN or infinite, so
        // checking the result alone also catches special inputs.
        if any_special_f16(r) {
            reduce_f16_scalar(ReduceOp::Sum, d, s);
        } else {
            store_f16(d, r);
        }
    }
    reduce_f16_scalar(ReduceOp::Sum, d_tail, s_tail);
}

/// # Safety
///
/// The host must support AVX and F16C.
#[target_feature(enable = "avx,f16c")]
unsafe fn decode_f16c(bytes: &[u8], out: &mut [f32]) {
    let (b8, b_tail) = bytes.as_chunks::<CHUNK>();
    let (o8, o_tail) = out.as_chunks_mut::<8>();
    for (b, o) in b8.iter().zip(o8) {
        let h = load_f16(b);
        if any_special_f16(h) {
            decode_f16_scalar(b, o);
        } else {
            store_f32(o, _mm256_cvtph_ps(h));
        }
    }
    decode_f16_scalar(b_tail, o_tail);
}

/// # Safety
///
/// The host must support AVX and F16C.
#[target_feature(enable = "avx,f16c")]
unsafe fn accumulate_sum_f16c(acc: &mut [f32], bytes: &[u8]) {
    let (a8, a_tail) = acc.as_chunks_mut::<8>();
    let (b8, b_tail) = bytes.as_chunks::<CHUNK>();
    for (a, b) in a8.iter_mut().zip(b8) {
        let sum = _mm256_add_ps(load_f32(a), _mm256_cvtph_ps(load_f16(b)));
        // A NaN or infinite addend (either side) makes the sum non-finite.
        if any_non_finite_f32(sum) {
            accumulate_f16_scalar(ReduceOp::Sum, a, b);
        } else {
            store_f32(a, sum);
        }
    }
    accumulate_f16_scalar(ReduceOp::Sum, a_tail, b_tail);
}

/// # Safety
///
/// The host must support AVX and F16C.
#[target_feature(enable = "avx,f16c")]
unsafe fn encode_f16c(bytes: &mut [u8], src: &[f32]) {
    let (b8, b_tail) = bytes.as_chunks_mut::<CHUNK>();
    let (s8, s_tail) = src.as_chunks::<8>();
    for (b, s) in b8.iter_mut().zip(s8) {
        // NaN and infinite inputs, and overflow, all encode to an
        // all-ones exponent.
        let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(load_f32(s));
        if any_special_f16(h) {
            encode_f16_scalar(b, s);
        } else {
            store_f16(b, h);
        }
    }
    encode_f16_scalar(b_tail, s_tail);
}

/// Whether any of eight binary16 lanes has an all-ones exponent.
#[target_feature(enable = "avx,f16c")]
fn any_special_f16(h: __m128i) -> bool {
    let exp = _mm_set1_epi16(0x7c00);
    _mm_movemask_epi8(_mm_cmpeq_epi16(_mm_and_si128(h, exp), exp)) != 0
}

/// Whether any of eight `f32` lanes is NaN or infinite.
#[target_feature(enable = "avx,f16c")]
fn any_non_finite_f32(v: __m256) -> bool {
    let abs = _mm256_andnot_ps(_mm256_set1_ps(-0.0), v);
    // Not-less-than, unordered: true for NaN and for infinity.
    let big = _mm256_cmp_ps::<_CMP_NLT_UQ>(abs, _mm256_set1_ps(f32::INFINITY));
    _mm256_movemask_ps(big) != 0
}

#[target_feature(enable = "avx,f16c")]
fn load_f16(c: &[u8; CHUNK]) -> __m128i {
    // SAFETY: `c` is 16 readable bytes and `loadu` needs no alignment.
    unsafe { _mm_loadu_si128(c.as_ptr().cast()) }
}

#[target_feature(enable = "avx,f16c")]
fn store_f16(c: &mut [u8; CHUNK], h: __m128i) {
    // SAFETY: `c` is 16 writable bytes and `storeu` needs no alignment.
    unsafe { _mm_storeu_si128(c.as_mut_ptr().cast(), h) }
}

#[target_feature(enable = "avx,f16c")]
fn load_f32(c: &[f32; 8]) -> __m256 {
    // SAFETY: `c` is eight readable `f32`s and `loadu` needs no alignment.
    unsafe { _mm256_loadu_ps(c.as_ptr()) }
}

#[target_feature(enable = "avx,f16c")]
fn store_f32(c: &mut [f32; 8], v: __m256) {
    // SAFETY: `c` is eight writable `f32`s and `storeu` needs no alignment.
    unsafe { _mm256_storeu_ps(c.as_mut_ptr(), v) }
}
