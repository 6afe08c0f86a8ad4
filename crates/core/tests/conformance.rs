//! Golden-vector conformance tests: the BBFP(4,2) encoding of paper
//! Eq. (4), worked bit by bit.
//!
//! Eq. (4) on an 11-bit FP16 significand (bit 11 = implicit one):
//!
//! ```text
//!   x_BBFP(4,2) = Clip(x << n)₁₃,₁₀  if Flag = 1   (take bits 13..10)
//!               = Clip(x >> n)₁₁,₈   if Flag = 0   (take bits 11..8)
//! ```

mod common;

use bbal_core::{
    algebra_quantize_slice, bbfp_quantize_slice_with, bfp_quantize_slice, BbfpBlock, BbfpConfig,
    BfpBlock, BfpConfig, ExponentPolicy, FormatAlgebra, Fp16, RoundingMode,
};
use common::{bbfp_oracle, bfp_oracle, first_bit_mismatch};

/// Builds a 32-block whose first elements are the probes and the rest a
/// constant filler that fixes the block maximum exponent.
fn probe_block(probes: &[f32], max_driver: f32) -> Vec<f32> {
    let mut v = vec![0.0f32; 32];
    v[0] = max_driver;
    v[1..1 + probes.len()].copy_from_slice(probes);
    v
}

#[test]
fn eq4_low_window_golden_vector() {
    // Block max = 8.0 (biased exp 18) -> shared = 18 - 2 = 16 (Eq. 9).
    // Probe 3.0 = 1.5 x 2^1: M = 0b110_0000_0000, exp 15.
    // Flag = 0 (15 <= 16); shift = (11-4) + (16-15) = 8:
    //   q = round(0b110_0000_0000 >> 8) = 0b110 = 6.
    // Low-window step = 2^(S-14-m) = 2^-2, so 3.0 = 12 x 0.25 -> q = 12
    // exactly (no rounding needed):
    let cfg = BbfpConfig::new(4, 2).unwrap();
    let data = probe_block(&[3.0], 8.0);
    let block = BbfpBlock::from_f32_slice(&data, cfg).unwrap();
    assert_eq!(block.shared_exponent(), 18 - 2);
    let el = block.elements()[1];
    assert!(!el.flag, "3.0 sits below the shared exponent");
    // 3.0 / 2^(16-14-4) = 3.0 / 0.25 = 12.
    assert_eq!(el.mantissa, 12);
    assert_eq!(block.element_to_f32(1), 3.0);
}

#[test]
fn eq4_high_window_golden_vector() {
    let cfg = BbfpConfig::new(4, 2).unwrap();
    // Block max 8.0 -> shared 16. Probe 8.0 itself: exp 18 > 16 -> Flag=1.
    // Window scale: q x f x 2^(S-14-m) with f = 2^(m-o) = 4:
    // 8.0 / (4 x 0.25) = 8 -> mantissa 8 = 0b1000.
    let data = probe_block(&[], 8.0);
    let block = BbfpBlock::from_f32_slice(&data, cfg).unwrap();
    let el = block.elements()[0];
    assert!(el.flag);
    assert_eq!(el.mantissa, 8);
    assert_eq!(block.element_to_f32(0), 8.0);
}

#[test]
fn eq4_overlap_preserves_three_bits() {
    // The paper: "with the addition of two overlap bits, truncation starts
    // from the 10th bit of the original mantissa, preserving 3 bits".
    // Probe 7.5 = 1.875 x 2^2 (M = 0b111_1000_0000, exp 17 > shared 16):
    // flagged, q = round(M >> (11-2-1)) = round(M/256) = round(7.5) -> 8?
    // M = 0b111_1000_0000 = 1920; shift = (11-o) - (e-S) = 9 - 1 = 8;
    // q = round(1920/256) = round(7.5) -> 8 (ties to even).
    let cfg = BbfpConfig::new(4, 2).unwrap();
    let data = probe_block(&[7.5], 8.0);
    let block = BbfpBlock::from_f32_slice(&data, cfg).unwrap();
    let el = block.elements()[1];
    assert!(el.flag);
    assert_eq!(el.mantissa, 8);
    // Decoded 8 x 4 x 0.25 = 8.0: within one flagged step of 7.5.
    assert_eq!(block.element_to_f32(1), 8.0);

    // Without overlap (BBFP(4,0)): shared = 18-4 = 14; 7.5's shift =
    // (11-0) - (17-14) = 8 -> q = round(1920/256) = 8 again but the step
    // is 2^(m-o)=16x coarser: decoded 8 x 16 x 2^(14-18) = 8.0. The
    // difference shows on a finer probe:
    let cfg0 = BbfpConfig::new(4, 0).unwrap();
    let fine = probe_block(&[6.5], 8.0);
    let b2 = BbfpBlock::from_f32_slice(&fine, cfg0).unwrap();
    let b1 = BbfpBlock::from_f32_slice(&fine, cfg).unwrap();
    let err0 = (b2.element_to_f32(1) - 6.5).abs();
    let err2 = (b1.element_to_f32(1) - 6.5).abs();
    assert!(
        err2 <= err0,
        "overlap bits reduce flagged truncation: {err2} vs {err0}"
    );
}

#[test]
fn bfp_matches_max_aligned_reference_on_all_exponents() {
    // Sweep one probe across every binade against a fixed max: the BFP
    // mantissa must equal round(value / step) for the max exponent's step.
    let cfg = BfpConfig::new(6).unwrap();
    for p in -8i32..4 {
        let probe = (2.0f32).powi(p) * 1.25;
        let data = probe_block(&[probe], 8.0);
        let block = BfpBlock::from_f32_slice(&data, cfg).unwrap();
        let step = 2.0f64.powi(block.scale_exponent());
        let exact = probe as f64 / step;
        let got = block.mantissas()[1] as f64;
        // Round-to-nearest-even: the stored mantissa is within half a unit
        // of the exact ratio (ties may go either way of f64's `round`).
        assert!(
            (got - exact).abs() <= 0.5 + 1e-9,
            "probe 2^{p}: mantissa {got} vs exact {exact}"
        );
    }
}

#[test]
fn all_fp16_values_survive_their_own_block() {
    // Any single finite value, in a block by itself (others zero), must
    // decode to within one low-window step of its FP16 value for every
    // configuration.
    for (m, o) in [(3u8, 1u8), (4, 2), (6, 3), (10, 5)] {
        let cfg = BbfpConfig::new(m, o).unwrap();
        for bits in (0u16..0x7C00).step_by(197) {
            let v = Fp16::from_bits(bits).to_f32();
            let mut data = vec![0.0f32; 32];
            data[0] = v;
            let block = BbfpBlock::from_f32_slice(&data, cfg).unwrap();
            let el = block.elements()[0];
            // Top-of-range rounding can saturate the mantissa (documented
            // behaviour); the bound applies to unsaturated encodings.
            if el.mantissa == (1u16 << m) - 1 {
                continue;
            }
            let back = block.element_to_f32(0);
            let step = 2.0f64.powi(block.scale_exponent())
                * if el.flag {
                    cfg.flag_scale() as f64
                } else {
                    1.0
                };
            assert!(
                ((back - v) as f64).abs() <= step * 0.5 + 1e-12,
                "BBFP({m},{o}) bits {bits:#06x}: {v} -> {back}"
            );
        }
    }
}

#[test]
fn product_format_bits_match_fig5a() {
    // Fig 5(a): BBFP(4,2) products are stored as 2-bit flag + sign +
    // 8-bit mantissa, widening to 12 bits with the shift applied.
    use bbal_core::bbfp_products;
    let cfg = BbfpConfig::new(4, 2).unwrap();
    let data = probe_block(&[3.0, -2.0, 0.5], 8.0);
    let a = BbfpBlock::from_f32_slice(&data, cfg).unwrap();
    let b = BbfpBlock::from_f32_slice(&data, cfg).unwrap();
    for p in bbfp_products(&a, &b).unwrap() {
        assert!(p.mantissa <= 0xFF);
        assert!(p.flag_code <= 2);
        assert!(p.widened(cfg) < (1 << 12));
    }
}

// --- The slice quantiser kernel against the block codecs ----------------

/// The BBFP points of the Table II and Fig. 8 lineups
/// (`bbal_quant::registry`), plus the widest, BBFP(10,5).
const BBFP_POINTS: &[(u8, u8)] = &[
    (3, 1),
    (3, 2),
    (4, 2),
    (4, 3),
    (6, 3),
    (6, 4),
    (6, 5),
    (10, 5),
];
/// The BFP widths of the lineups plus BFP8.
const BFP_POINTS: &[u8] = &[4, 6, 8];
const ROUNDINGS: [RoundingMode; 2] = [RoundingMode::NearestEven, RoundingMode::Truncate];

/// Runs `data` through every point above, in `block`-wide blocks, with
/// both rounding modes and each point's default policy, and requires
/// the slice quantisers to reproduce the codec decode bit for bit.
fn assert_kernel_matches_codecs(data: &[f32], block: usize, what: &str) {
    let mut got = vec![0.0f32; data.len()];
    for rounding in ROUNDINGS {
        for &(m, o) in BBFP_POINTS {
            let cfg = BbfpConfig::with_block_size(m, o, block).unwrap();
            let policy = ExponentPolicy::paper_default(cfg);
            bbfp_quantize_slice_with(data, cfg, policy, rounding, &mut got);
            let want = bbfp_oracle(data, cfg, policy, rounding);
            if let Some((i, g, w)) = first_bit_mismatch(&got, &want) {
                panic!(
                    "{what}: BBFP({m},{o}) {rounding:?} block {block} index {i} input {:e}: \
                     {g:#010x} vs codec {w:#010x}",
                    data[i]
                );
            }
        }
        for &m in BFP_POINTS {
            let cfg = BfpConfig::with_block_size(m, block).unwrap();
            bfp_quantize_slice(data, cfg, rounding, &mut got);
            let want = bfp_oracle(data, cfg, rounding);
            if let Some((i, g, w)) = first_bit_mismatch(&got, &want) {
                panic!(
                    "{what}: BFP{m} {rounding:?} block {block} index {i} input {:e}: \
                     {g:#010x} vs codec {w:#010x}",
                    data[i]
                );
            }
        }
    }
}

/// Interleaves `probes` into 32-wide blocks of one `anchor` (slot 0)
/// plus 31 probes, so each probe meets the shared exponent set by the
/// larger of the anchor and its own neighbourhood.
fn anchored_blocks(probes: &[f32], anchor: f32) -> Vec<f32> {
    probes
        .chunks(31)
        .flat_map(|c| std::iter::once(anchor).chain(c.iter().copied()))
        .collect()
}

/// Block maxima the probes are measured against: empty, FP16-subnormal,
/// around one, large, and the FP16 ceiling.
const ANCHORS: [f32; 6] = [0.0, 3.0e-6, 0.75, 1.0, -300.0, 65504.0];

#[test]
fn kernel_matches_codecs_on_every_finite_fp16_value() {
    let probes: Vec<f32> = (0u16..=0xFFFF)
        .map(Fp16::from_bits)
        .filter(|v| v.is_finite())
        .map(Fp16::to_f32)
        .collect();
    assert_eq!(probes.len(), 63_488);
    for anchor in ANCHORS {
        let data = anchored_blocks(&probes, anchor);
        assert_kernel_matches_codecs(&data, 32, &format!("anchor {anchor}"));
    }
}

#[test]
fn kernel_matches_codecs_on_fp16_ties_f32_subnormals_and_infinities() {
    let mut probes = Vec::new();
    for bits in 0u16..0x7BFF {
        let lo = Fp16::from_bits(bits).to_f32();
        let hi = Fp16::from_bits(bits + 1).to_f32();
        // Exact in f32: FP16 midpoints need only 12 significant bits.
        let tie = (lo + hi) / 2.0;
        for p in [
            tie,
            f32::from_bits(tie.to_bits() - 1),
            f32::from_bits(tie.to_bits() + 1),
        ] {
            probes.extend([p, -p]);
        }
    }
    probes.extend([
        f32::from_bits(1),
        f32::from_bits(0x007F_FFFF),
        -f32::from_bits(0x0040_0000),
        f32::MIN_POSITIVE,
        2.0f32.powi(-25),
        -2.0f32.powi(-25),
        2.0f32.powi(-26),
        65519.0,
        65520.0,
        -65535.9,
        1.0e9,
        f32::MAX,
        f32::MIN,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ]);
    for anchor in [0.0, 1.0, 65504.0] {
        let data = anchored_blocks(&probes, anchor);
        assert_kernel_matches_codecs(&data, 32, &format!("anchor {anchor}"));
    }
}

/// A deterministic spread across every FP16 binade, with exact ties,
/// FP16 subnormals, signed zeros and saturating magnitudes.
fn spread(n: usize, seed: u32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            let v = match state % 8 {
                0 => 0.0,
                1 => -0.0,
                2 => 70000.0,
                // A random finite FP16 value.
                3 | 4 => Fp16::from_bits((state >> 8) as u16 % 0x7C00).to_f32(),
                // The exact midpoint above a random FP16 value.
                5 => {
                    let b = (state >> 8) as u16 % 0x7BFF;
                    (Fp16::from_bits(b).to_f32() + Fp16::from_bits(b + 1).to_f32()) / 2.0
                }
                _ => f32::from_bits(0x3300_0000 + (state >> 9) % 0x1500_0000),
            };
            if state & 0x100 != 0 {
                -v
            } else {
                v
            }
        })
        .collect()
}

#[test]
fn kernel_matches_codecs_for_every_block_size_with_ragged_tails() {
    for (k, block) in [1usize, 2, 4, 8, 16, 32, 64].into_iter().enumerate() {
        // Lengths that end in a partial block (and one shorter than a block).
        for len in [block * 3 + block / 2 + 1, block.saturating_sub(1).max(1)] {
            let data = spread(len, 7 + k as u32);
            assert_kernel_matches_codecs(&data, block, &format!("len {len}"));
        }
    }
}

#[test]
fn kernel_matches_codec_for_every_policy_offset() {
    // Every BBFP(m, o), every offset 0..=m (beyond the paper default the
    // flag window saturates: Fig. 3's "Max-3"), both rounding modes.
    let data = spread(197, 3);
    let mut got = vec![0.0f32; data.len()];
    for m in 1u8..=10 {
        for o in 0..m {
            let block = 1usize << ((m + o) % 7);
            let cfg = BbfpConfig::with_block_size(m, o, block).unwrap();
            for offset in 0..=m {
                let policy = ExponentPolicy::MaxMinus(offset);
                for rounding in ROUNDINGS {
                    bbfp_quantize_slice_with(&data, cfg, policy, rounding, &mut got);
                    let want = bbfp_oracle(&data, cfg, policy, rounding);
                    assert_eq!(
                        first_bit_mismatch(&got, &want),
                        None,
                        "BBFP({m},{o}) offset {offset} {rounding:?} block {block}"
                    );
                }
            }
        }
    }
}

#[test]
fn nan_stays_nan_and_leaves_its_block_unchanged() {
    // One rule in debug and release alike: a NaN element decodes to NaN
    // and is left out of the shared exponent, so its neighbours quantise
    // as if it were zero; ±inf saturates like ±65504.
    let mut data = spread(80, 5);
    for i in [0, 9, 33, 79] {
        data[i] = f32::NAN;
    }
    data[40] = f32::INFINITY;
    data[41] = f32::NEG_INFINITY;
    let mut reference = data.clone();
    for v in reference.iter_mut() {
        if v.is_nan() {
            *v = 0.0;
        } else if v.is_infinite() {
            *v = 65504.0f32.copysign(*v);
        }
    }
    type Quantiser = Box<dyn Fn(&[f32], &mut [f32])>;
    let ne = RoundingMode::NearestEven;
    let mut quantisers: Vec<(String, Quantiser)> = vec![
        (
            "bfp4".into(),
            Box::new(move |x, y| bfp_quantize_slice(x, BfpConfig::new(4).unwrap(), ne, y)),
        ),
        (
            "bbfp(4,2)".into(),
            Box::new(move |x, y| {
                let cfg = BbfpConfig::new(4, 2).unwrap();
                bbfp_quantize_slice_with(x, cfg, ExponentPolicy::paper_default(cfg), ne, y)
            }),
        ),
    ];
    for alg in [
        FormatAlgebra::bbfp(6, 3).unwrap(),
        FormatAlgebra::msfp(4, 16).unwrap(),
        FormatAlgebra::mx(8, 4, 2).unwrap(),
        FormatAlgebra::blockmf(4, 3, 8).unwrap(),
    ] {
        quantisers.push((
            alg.display_name(),
            Box::new(move |x, y| algebra_quantize_slice(x, &alg, ne, y)),
        ));
    }
    for (name, quantise) in &quantisers {
        let mut got = vec![0.0f32; data.len()];
        let mut want = vec![0.0f32; data.len()];
        quantise(&data, &mut got);
        quantise(&reference, &mut want);
        for (i, (&x, (&g, &w))) in data.iter().zip(got.iter().zip(&want)).enumerate() {
            if x.is_nan() {
                assert!(g.is_nan(), "{name}: index {i} lost its NaN: {g}");
            } else {
                assert_eq!(g.to_bits(), w.to_bits(), "{name}: index {i}");
            }
        }
    }
}
