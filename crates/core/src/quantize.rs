//! The block quantiser kernel behind every shared-exponent fixed-point
//! fake-quant call: [`crate::bfp_quantize_slice`],
//! [`crate::bbfp_quantize_slice_with`] and the BFP / BBFP / MSFP points of
//! [`crate::algebra_quantize_slice`].
//!
//! The block codecs ([`crate::BfpBlock`], [`crate::BbfpBlock`] and the
//! algebra chunk codec) produce the integer codes the packer stores, one
//! element at a time through [`crate::Fp16`]. This kernel produces only
//! the reconstruction `code × 2^scale`, bit-identical to decoding those
//! codes, as two round-to-nearest-even roundings at power-of-two quanta
//! done in `f32` arithmetic with selects instead of branches:
//!
//! 1. **FP16 narrowing.** `x` is rounded to its binary16 quantum
//!    `2^(e16 − 25)` by adding and subtracting `2^(e16 − 25 + 23)`, whose
//!    `f32` ulp is exactly that quantum. Magnitudes above 65504 (±∞
//!    included) saturate to ±65504.
//! 2. **Block rounding.** The block's largest FP16 exponent, less the
//!    policy offset and clamped to `0..=31`, is the shared exponent `S`.
//!    Each element is scaled by its window's inverse quantum — `2^(S −
//!    14 − m)` at or below `S`, `2^(S − 14 − o)` above it (the BBFP flag
//!    window) — clamped to the largest code `2^m − 1`, rounded to an
//!    integer (`2^23` add-and-subtract for RNE, minus one where that
//!    rounded up for truncation), and scaled back.
//!
//! Every product by a power of two is exact for FP16-range magnitudes,
//! so the only roundings are the two the hardware encoder performs.
//!
//! **Non-finite inputs.** ±∞ saturates to ±65504 like any overflow. A
//! NaN element stays NaN, takes no part in its block's maximum, and
//! leaves its neighbours' codes unchanged.

use crate::bfp::exp2i;
use crate::rounding::RoundingMode;

/// 65504.0, the largest finite binary16 value.
const FP16_MAX: f32 = 65504.0;
/// Bit pattern of `+∞`; any magnitude above it is a NaN. Magnitude bit
/// patterns are below `2^31`, so the kernel compares them as `i32`, which
/// vectorises on baseline x86-64 where unsigned comparisons do not.
const F32_INF_BITS: i32 = 0x7F80_0000;
/// `2^23`: adding and subtracting it rounds `[0, 2^23)` to an integer.
const ROUND_TO_INT: f32 = 8_388_608.0;

/// A point of the shared-exponent fixed-point family, as the kernel sees
/// it: BFP and MSFP are `overlap_bits = 0, offset = 0`; BBFP carries its
/// overlap width and its policy's offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SharedExponentFixed {
    /// Elements sharing one exponent (the last block of a slice may be
    /// shorter).
    pub(crate) block_size: usize,
    /// Mantissa magnitude bits `m` per element.
    pub(crate) mantissa_bits: u8,
    /// Overlap bits `o`: the flag window's quantum is `2^(m − o)` low
    /// quanta.
    pub(crate) overlap_bits: u8,
    /// Shared exponent = block maximum − `offset` (the
    /// [`crate::ExponentPolicy`] offset).
    pub(crate) offset: u8,
}

/// Quantise-dequantise `values` block by block into `out`. See the module
/// docs for the arithmetic and the non-finite rule.
///
/// # Panics
///
/// Panics if `out.len() != values.len()`.
pub(crate) fn quantize_shared_exponent(
    values: &[f32],
    point: SharedExponentFixed,
    rounding: RoundingMode,
    out: &mut [f32],
) {
    assert_eq!(values.len(), out.len(), "output buffer length mismatch");
    let bs = point.block_size;
    for (chunk, out_chunk) in values.chunks(bs).zip(out.chunks_mut(bs)) {
        let max_bits = narrow_fp16(chunk, out_chunk);
        let shared = (max_fp16_exponent(max_bits) - point.offset as i32).clamp(0, 31);
        let block = BlockQuanta::new(point, shared);
        match rounding {
            RoundingMode::NearestEven => {
                block.round(out_chunk, |n| (n + ROUND_TO_INT) - ROUND_TO_INT)
            }
            RoundingMode::Truncate => block.round(out_chunk, |n| {
                let r = (n + ROUND_TO_INT) - ROUND_TO_INT;
                if r > n {
                    r - 1.0
                } else {
                    r
                }
            }),
        }
    }
}

/// Pass 1: writes each value rounded to FP16 (saturating, NaN kept) into
/// `out` and returns the largest non-NaN magnitude's `f32` bit pattern.
#[inline]
fn narrow_fp16(values: &[f32], out: &mut [f32]) -> u32 {
    let mut max_bits = 0i32;
    for (&x, o) in values.iter().zip(out.iter_mut()) {
        let bits = x.to_bits();
        let mag = bits & 0x7FFF_FFFF;
        // The FP16 quantum of a magnitude with f32 biased exponent E is
        // 2^(max(E, 113) − 137) (113 = the FP16 normal boundary 2^-14);
        // E is capped at 142 (2^15) because everything above saturates.
        let e = ((mag >> 23) as i32).clamp(113, 142);
        let magic = f32::from_bits(((e + 13) as u32) << 23);
        let r = (f32::from_bits(mag) + magic) - magic;
        let r = if r > FP16_MAX { FP16_MAX } else { r };
        let r_bits = r.to_bits() as i32;
        max_bits = max_bits.max(if r_bits > F32_INF_BITS { 0 } else { r_bits });
        *o = f32::from_bits(r.to_bits() | (bits & 0x8000_0000));
    }
    max_bits as u32
}

/// The biased FP16 exponent (as [`crate::Fp16::significand`] reports
/// it: 1 for subnormals) of the FP16-exact magnitude with `f32` bits
/// `bits`, or 0 for zero — the block-maximum convention of the codecs.
#[inline]
fn max_fp16_exponent(bits: u32) -> i32 {
    if bits == 0 {
        0
    } else {
        ((bits >> 23) as i32 - 112).max(1)
    }
}

/// Per-block constants of pass 2.
#[derive(Clone, Copy)]
struct BlockQuanta {
    /// Magnitudes (as `f32` bits) at or above this take the flag window.
    flag_threshold: i32,
    low_inv: f32,
    low_quantum: f32,
    high_inv: f32,
    high_quantum: f32,
    max_code: f32,
}

impl BlockQuanta {
    fn new(point: SharedExponentFixed, shared: i32) -> BlockQuanta {
        let m = point.mantissa_bits as i32;
        let o = point.overlap_bits as i32;
        // An element is flagged when its FP16 exponent exceeds `shared`:
        // magnitude >= 2^(shared − 14) for shared >= 1, and any non-zero
        // magnitude (FP16 exponent >= 1) for shared = 0.
        let flag_threshold = if shared >= 1 { (shared + 113) << 23 } else { 1 };
        BlockQuanta {
            flag_threshold,
            low_inv: exp2i(14 + m - shared),
            low_quantum: exp2i(shared - 14 - m),
            high_inv: exp2i(14 + o - shared),
            high_quantum: exp2i(shared - 14 - o),
            max_code: ((1u32 << m) - 1) as f32,
        }
    }

    /// Pass 2: rounds each FP16-exact element of `block` in place onto
    /// its window's grid, `round` mapping `[0, 2^m)` to an integer.
    #[inline]
    fn round(self, block: &mut [f32], round: impl Fn(f32) -> f32) {
        // Taken apart by value so the loop sees constants, not loads
        // through `self`, and vectorises.
        let BlockQuanta {
            flag_threshold,
            low_inv,
            low_quantum,
            high_inv,
            high_quantum,
            max_code,
        } = self;
        for v in block.iter_mut() {
            let bits = v.to_bits();
            let mag = bits & 0x7FFF_FFFF;
            let high = mag as i32 >= flag_threshold;
            let inv = if high { high_inv } else { low_inv };
            let quantum = if high { high_quantum } else { low_quantum };
            // Exact: a power-of-two scaling of an FP16-range value. NaN
            // fails the comparison and flows through unchanged.
            let n = f32::from_bits(mag) * inv;
            let n = if n > max_code { max_code } else { n };
            let q = round(n) * quantum;
            *v = f32::from_bits(q.to_bits() | (bits & 0x8000_0000));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp16::Fp16;

    #[test]
    fn narrowing_matches_fp16_saturating_on_every_bit_pattern_neighbourhood() {
        // Every finite FP16 value, its midpoints to both neighbours and a
        // hair either side of them.
        let mut probes = Vec::new();
        for bits in 0u16..0x7BFF {
            let v = Fp16::from_bits(bits).to_f32();
            let next = Fp16::from_bits(bits + 1).to_f32();
            let mid = (v as f64 + next as f64) / 2.0;
            for p in [v, mid as f32, f32::from_bits((mid as f32).to_bits() + 1)] {
                probes.push(p);
                probes.push(-p);
            }
            if mid as f32 > 0.0 {
                probes.push(f32::from_bits((mid as f32).to_bits() - 1));
            }
        }
        probes.extend([
            65504.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e30,
            -1e30,
            65519.0,
            65520.0,
        ]);
        probes.extend([f32::from_bits(1), f32::MIN_POSITIVE, 2.0f32.powi(-25)]);
        let mut out = vec![0.0; probes.len()];
        narrow_fp16(&probes, &mut out);
        for (&p, &o) in probes.iter().zip(&out) {
            let want = Fp16::from_f32_saturating(p).to_f32();
            assert_eq!(o.to_bits(), want.to_bits(), "{p:e}");
        }
    }

    #[test]
    fn nan_is_kept_and_skipped_by_the_block_max() {
        let mut out = [0.0; 3];
        let max = narrow_fp16(&[f32::NAN, 2.0, -f32::NAN], &mut out);
        assert!(out[0].is_nan() && out[2].is_nan());
        assert_eq!(max, 2.0f32.to_bits());
    }

    #[test]
    fn max_exponent_follows_the_significand_convention() {
        assert_eq!(max_fp16_exponent(0), 0);
        assert_eq!(max_fp16_exponent(2.0f32.powi(-24).to_bits()), 1);
        assert_eq!(max_fp16_exponent(2.0f32.powi(-14).to_bits()), 1);
        assert_eq!(max_fp16_exponent(1.0f32.to_bits()), 15);
        assert_eq!(max_fp16_exponent(65504.0f32.to_bits()), 30);
    }
}
