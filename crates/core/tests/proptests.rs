//! Property-based tests for the BBFP/BFP format layer.

mod common;

use bbal_core::{
    analysis, bbfp_dot, bbfp_quantize_slice, bbfp_quantize_slice_with, bfp_dot, bfp_quantize_slice,
    BbfpBlock, BbfpConfig, BfpBlock, BfpConfig, ExponentPolicy, Fp16, RoundingMode,
};
use common::{bbfp_oracle, bfp_oracle, first_bit_mismatch};
use proptest::prelude::*;

fn finite_f32() -> impl Strategy<Value = f32> {
    // Spread across many binades including subnormal-f16 territory.
    prop_oneof![
        -1000.0f32..1000.0,
        -1.0f32..1.0,
        -1e-5f32..1e-5,
        Just(0.0f32),
        Just(-0.0f32),
        Just(65504.0f32),
        Just(-65504.0f32),
    ]
}

fn block32() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(finite_f32(), 32)
}

fn bbfp_config() -> impl Strategy<Value = BbfpConfig> {
    (1u8..=10)
        .prop_flat_map(|m| (Just(m), 0..m))
        .prop_map(|(m, o)| BbfpConfig::new(m, o).unwrap())
}

fn bfp_config() -> impl Strategy<Value = BfpConfig> {
    (1u8..=10).prop_map(|m| BfpConfig::new(m).unwrap())
}

proptest! {
    /// FP16 -> f32 -> FP16 is the identity on every finite bit pattern.
    #[test]
    fn fp16_round_trip(bits in 0u16..=0xFFFF) {
        let v = Fp16::from_bits(bits);
        prop_assume!(v.is_finite());
        prop_assert_eq!(Fp16::from_f32(v.to_f32()).to_bits(), bits);
    }

    /// f32 -> FP16 never moves a value by more than half a ULP of the
    /// magnitude (or the subnormal step for tiny values).
    #[test]
    fn fp16_narrowing_error_bounded(v in -60000.0f32..60000.0) {
        let h = Fp16::from_f32(v).to_f32();
        let ulp = (v.abs().max(2.0f32.powi(-14))) * 2.0f32.powi(-11);
        let step = ulp.max(2.0f32.powi(-25));
        prop_assert!((h - v).abs() <= step, "{v} -> {h}");
    }

    /// The significand identity v = ±M × 2^(E−25) holds for all finite
    /// bit patterns (tested exhaustively in unit tests for key values;
    /// here on random patterns).
    #[test]
    fn significand_identity(bits in 0u16..0x7C00u16) {
        let v = Fp16::from_bits(bits);
        let (m, e) = v.significand();
        let rebuilt = m as f64 * 2f64.powi(e - 25);
        prop_assert_eq!(rebuilt as f32, v.to_f32());
    }

    /// BFP reconstruction error per element is bounded by half the block
    /// step (plus FP16 narrowing error), except where saturated.
    #[test]
    fn bfp_error_bound(data in block32(), cfg in bfp_config()) {
        let block = BfpBlock::from_f32_slice(&data, cfg).unwrap();
        let step = 2f64.powi(block.scale_exponent());
        let max_m = (1u32 << cfg.mantissa_bits()) - 1;
        for (i, &orig) in data.iter().enumerate() {
            let h = Fp16::from_f32_saturating(orig).to_f32() as f64;
            let back = block.element_to_f32(i) as f64;
            if block.mantissas()[i] as u32 != max_m {
                prop_assert!((h - back).abs() <= step * 0.5 + 1e-12,
                    "i={i} orig={orig} back={back} step={step}");
            }
        }
    }

    /// BBFP reconstruction error per element is bounded by half the step
    /// times the element's flag scale, except where saturated.
    #[test]
    fn bbfp_error_bound(data in block32(), cfg in bbfp_config()) {
        let block = BbfpBlock::from_f32_slice(&data, cfg).unwrap();
        let step = 2f64.powi(block.scale_exponent());
        let max_m = (1u32 << cfg.mantissa_bits()) - 1;
        for (i, &orig) in data.iter().enumerate() {
            let h = Fp16::from_f32_saturating(orig).to_f32() as f64;
            let back = block.element_to_f32(i) as f64;
            let el = block.elements()[i];
            let f = if el.flag { cfg.flag_scale() as f64 } else { 1.0 };
            if el.mantissa as u32 != max_m {
                prop_assert!((h - back).abs() <= step * f * 0.5 + 1e-12,
                    "i={i} orig={orig} back={back} step={step} f={f}");
            }
        }
    }

    /// The fixed-point BBFP dot product exactly equals the dequantised
    /// floating-point dot product.
    #[test]
    fn bbfp_dot_exactness(a in block32(), b in block32(), cfg in bbfp_config()) {
        let ba = BbfpBlock::from_f32_slice(&a, cfg).unwrap();
        let bb = BbfpBlock::from_f32_slice(&b, cfg).unwrap();
        let fixed = bbfp_dot(&ba, &bb).unwrap().to_f64();
        let reference: f64 = ba.to_f32_vec().iter().zip(bb.to_f32_vec().iter())
            .map(|(x, y)| *x as f64 * *y as f64).sum();
        let tol = reference.abs().max(1.0) * 1e-6;
        prop_assert!((fixed - reference).abs() <= tol, "{fixed} vs {reference}");
    }

    /// Same exactness for BFP.
    #[test]
    fn bfp_dot_exactness(a in block32(), b in block32(), cfg in bfp_config()) {
        let ba = BfpBlock::from_f32_slice(&a, cfg).unwrap();
        let bb = BfpBlock::from_f32_slice(&b, cfg).unwrap();
        let fixed = bfp_dot(&ba, &bb).unwrap().to_f64();
        let reference: f64 = ba.to_f32_vec().iter().zip(bb.to_f32_vec().iter())
            .map(|(x, y)| *x as f64 * *y as f64).sum();
        let tol = reference.abs().max(1.0) * 1e-6;
        prop_assert!((fixed - reference).abs() <= tol, "{fixed} vs {reference}");
    }

    /// Quantisation is idempotent: re-quantising a reconstruction returns
    /// the same values.
    #[test]
    fn bbfp_idempotent(data in block32(), cfg in bbfp_config()) {
        let mut once = vec![0.0; data.len()];
        bbfp_quantize_slice(&data, cfg, RoundingMode::NearestEven, &mut once);
        let mut twice = vec![0.0; data.len()];
        bbfp_quantize_slice(&once, cfg, RoundingMode::NearestEven, &mut twice);
        for (i, (a, b)) in once.iter().zip(&twice).enumerate() {
            prop_assert_eq!(a, b, "index {}", i);
        }
    }

    /// The Max policy with offset 0 makes BBFP numerically identical to
    /// BFP at equal mantissa width.
    #[test]
    fn max_policy_equals_bfp(data in block32(), m in 1u8..=10) {
        let o = m.saturating_sub(1);
        prop_assume!(o < m);
        let bbfp_cfg = BbfpConfig::new(m, o).unwrap();
        let bfp_cfg = BfpConfig::new(m).unwrap();
        let fp16: Vec<Fp16> = data.iter().map(|&v| Fp16::from_f32_saturating(v)).collect();
        let bb = BbfpBlock::from_fp16_slice_with(
            &fp16, bbfp_cfg, ExponentPolicy::Max, RoundingMode::NearestEven).unwrap();
        let bf = BfpBlock::from_fp16_slice(&fp16, bfp_cfg).unwrap();
        prop_assert_eq!(bb.to_f32_vec(), bf.to_f32_vec());
    }

    /// MSE through the analysis helpers is non-negative and zero only for
    /// identical slices.
    #[test]
    fn mse_properties(data in block32()) {
        prop_assert_eq!(analysis::mse(&data, &data), 0.0);
        let mut shifted = data.clone();
        shifted[0] += 1.0;
        prop_assert!(analysis::mse(&data, &shifted) > 0.0);
    }

    /// Truncation rounding never produces a larger mantissa than
    /// nearest-even (so truncate-mode error is one-sided).
    #[test]
    fn truncate_le_nearest(data in block32(), cfg in bfp_config()) {
        let mut t = vec![0.0; data.len()];
        let mut n = vec![0.0; data.len()];
        bfp_quantize_slice(&data, cfg, RoundingMode::Truncate, &mut t);
        bfp_quantize_slice(&data, cfg, RoundingMode::NearestEven, &mut n);
        for (a, b) in t.iter().zip(&n) {
            prop_assert!(a.abs() <= b.abs() + 1e-12);
        }
    }
}

// --- The slice quantiser kernel against the block codecs ----------------

fn fp16_in(bits: std::ops::Range<u16>) -> impl Strategy<Value = f32> {
    bits.prop_map(|b| Fp16::from_bits(b).to_f32())
}

/// The exact midpoint above an FP16 value in `bits`, or one f32 ulp
/// either side of it.
fn fp16_tie_in(bits: std::ops::Range<u16>) -> impl Strategy<Value = f32> {
    (bits, 0u32..3).prop_map(|(b, nudge)| {
        let lo = Fp16::from_bits(b).to_f32();
        let hi = Fp16::from_bits(b + 1).to_f32();
        f32::from_bits(((lo + hi) / 2.0).to_bits() + nudge - 1)
    })
}

fn signed(magnitude: impl Strategy<Value = f32>) -> impl Strategy<Value = f32> {
    (magnitude, any::<bool>()).prop_map(|(v, neg)| if neg { -v } else { v })
}

/// A finite FP16 value, an FP16 tie, an exact power of two (the
/// flag-window thresholds), an f32 subnormal, or a magnitude that
/// saturates.
fn kernel_input() -> impl Strategy<Value = f32> {
    signed(prop_oneof![
        fp16_in(0..0x7C00),
        fp16_in(0..0x7C00),
        fp16_tie_in(0..0x7BFF),
        (-24i32..=15).prop_map(|e| 2.0f32.powi(e)),
        (1u32..0x0080_0000).prop_map(f32::from_bits),
        Just(0.0f32),
        Just(1.0e6f32),
        Just(f32::INFINITY),
    ])
}

/// Values below `2^-13` only: whole blocks whose quantum reaches FP16's
/// subnormal step, where the FP16 narrowing itself shows in the output.
fn tiny_input() -> impl Strategy<Value = f32> {
    signed(prop_oneof![
        fp16_in(0..0x0800),
        fp16_tie_in(0..0x0800),
        (1u32..0x0080_0000).prop_map(f32::from_bits),
        Just(0.0f32),
    ])
}

/// A block size `1..=64` (the configs take powers of two) and a slice
/// length that usually ends in a ragged partial block.
fn blocked_slice() -> impl Strategy<Value = (usize, Vec<f32>)> {
    (0u32..=6, any::<bool>()).prop_flat_map(|(log, tiny)| {
        let block = 1usize << log;
        let len = 1..block * 3 + 2;
        let data = if tiny {
            proptest::collection::vec(tiny_input(), len).boxed()
        } else {
            proptest::collection::vec(kernel_input(), len).boxed()
        };
        (Just(block), data)
    })
}

fn rounding_mode() -> impl Strategy<Value = RoundingMode> {
    prop_oneof![
        Just(RoundingMode::NearestEven),
        Just(RoundingMode::Truncate)
    ]
}

proptest! {
    /// `bbfp_quantize_slice_with` reproduces the `BbfpBlock` decode bit
    /// for bit, for every BBFP(m, o), policy offset `0..=m`, rounding
    /// mode and block size, ragged tails included.
    #[test]
    fn bbfp_kernel_matches_codec(
        slice in blocked_slice(),
        point in (1u8..=10).prop_flat_map(|m| (Just(m), 0..m, 0..=m)),
        rounding in rounding_mode()
    ) {
        let (block, data) = slice;
        let (m, o, offset) = point;
        let cfg = BbfpConfig::with_block_size(m, o, block).unwrap();
        let policy = ExponentPolicy::MaxMinus(offset);
        let mut got = vec![0.0; data.len()];
        bbfp_quantize_slice_with(&data, cfg, policy, rounding, &mut got);
        let want = bbfp_oracle(&data, cfg, policy, rounding);
        prop_assert_eq!(first_bit_mismatch(&got, &want), None);
    }

    /// `bfp_quantize_slice` reproduces the `BfpBlock` decode bit for bit.
    #[test]
    fn bfp_kernel_matches_codec(
        slice in blocked_slice(),
        m in 1u8..=10,
        rounding in rounding_mode()
    ) {
        let (block, data) = slice;
        let cfg = BfpConfig::with_block_size(m, block).unwrap();
        let mut got = vec![0.0; data.len()];
        bfp_quantize_slice(&data, cfg, rounding, &mut got);
        prop_assert_eq!(first_bit_mismatch(&got, &bfp_oracle(&data, cfg, rounding)), None);
    }
}

// --- SchemeSpec round-tripping -------------------------------------------

use bbal_core::{SchemeError, SchemeSpec};

fn scheme() -> impl Strategy<Value = SchemeSpec> {
    prop_oneof![
        Just(SchemeSpec::Fp32),
        Just(SchemeSpec::Fp16),
        Just(SchemeSpec::Olive),
        Just(SchemeSpec::Oltron),
        Just(SchemeSpec::OmniQuant),
        (2u8..=16).prop_map(SchemeSpec::Int),
        (1u8..=10).prop_map(SchemeSpec::Bfp),
        (1u8..=10)
            .prop_flat_map(|m| (Just(m), 0..m))
            .prop_map(|(m, o)| SchemeSpec::Bbfp(m, o)),
        (5u8..=8, 1u8..=10, 0u8..=4).prop_map(|(e, m, s)| SchemeSpec::Mx(e, m, 1u8 << s)),
        (1u8..=10, 2u8..=7).prop_map(|(m, b)| SchemeSpec::Msfp(m, 1u8 << b)),
        (2u8..=6, 1u8..=10, 2u8..=8).prop_map(|(e, m, w)| SchemeSpec::BlockMf(e, m, w)),
    ]
}

proptest! {
    /// `parse(display(s)) == s` over every valid scheme — the canonical
    /// string form is a lossless serialisation.
    #[test]
    fn scheme_spec_round_trips(s in scheme()) {
        prop_assert_eq!(s.to_string().parse::<SchemeSpec>().unwrap(), s);
    }

    /// The paper display names parse back to the same scheme too.
    #[test]
    fn scheme_paper_names_round_trip(s in scheme()) {
        prop_assert_eq!(s.paper_name().parse::<SchemeSpec>().unwrap(), s);
    }

    /// Every scheme the generator produces validates, and its derived
    /// block configurations (when applicable) echo its widths.
    #[test]
    fn generated_schemes_are_valid(s in scheme()) {
        prop_assert!(s.is_valid());
        s.validate().unwrap();
        if let SchemeSpec::Bbfp(m, o) = s {
            let cfg = s.bbfp_config().unwrap().unwrap();
            prop_assert_eq!((cfg.mantissa_bits(), cfg.overlap_bits()), (m, o));
        }
    }

    /// Every block-format scheme lowers to a format-algebra point whose
    /// storage cost is finite and whose payload fits the scheme's widths.
    #[test]
    fn block_schemes_lower_to_valid_algebra_points(s in scheme()) {
        if let Some(alg) = s.algebra().unwrap() {
            alg.validate().unwrap();
            let cost = alg.cost();
            prop_assert!(cost.equivalent_bit_width > 0.0);
            prop_assert!(cost.equivalent_bit_width <= 32.0);
        }
    }
}

#[test]
fn malformed_scheme_strings_are_typed_errors() {
    assert_eq!("".parse::<SchemeSpec>(), Err(SchemeError::Empty));
    assert!(matches!(
        "bfp".parse::<SchemeSpec>(),
        Err(SchemeError::BadParams { scheme: "bfp", .. })
    ));
    assert!(matches!(
        "bbfp:9,9".parse::<SchemeSpec>(),
        Err(SchemeError::Format(_))
    ));
    // The algebra families fail the same ways: missing params are
    // `BadParams` with the family's grammar, bad widths are typed
    // `FormatError`s, trailing garbage never parses.
    assert!(matches!(
        "mx:".parse::<SchemeSpec>(),
        Err(SchemeError::BadParams { scheme: "mx", .. })
    ));
    assert!(matches!(
        "msfp:0,32".parse::<SchemeSpec>(),
        Err(SchemeError::Format(_))
    ));
    assert!(matches!(
        "blockmf:9,9,9".parse::<SchemeSpec>(),
        Err(SchemeError::Format(_))
    ));
    for garbage in ["mx:8,4,2,9", "mx:8,4,2x", "msfp:4,16junk", "blockmf:4,3,"] {
        assert!(
            matches!(
                garbage.parse::<SchemeSpec>(),
                Err(SchemeError::BadParams { .. })
            ),
            "{garbage}"
        );
    }
}
