//! Bit-identity proptest battery for the packed quantised weight
//! storage and the parallel block-dot GEMM kernels.
//!
//! Every property here pins the same invariant from a different angle:
//! **the packed path never changes a single output bit** relative to the
//! scalar f32 path (`Tensor::matmul` / `Tensor::matmul_transposed` /
//! an in-order `Σ fl(aⱼ·wⱼ)` reference). The battery sweeps all
//! `TABLE2_SCHEMES` plus the algebra-derived MX / MSFP / block-minifloat
//! families × matrix shapes (including ragged dimensions not divisible
//! by the scheme's block size) × seeds, and additionally pins
//! worker-count determinism: the data-parallel driver in
//! `bbal_llm::gemm` must produce identical bits for 1 and N threads.
//! Subnormal activations, queries and probabilities — where a
//! power-of-two scale folded into the activation would lose bits — are
//! pinned for the weight GEMMs and the packed attention kernels alike.
//!
//! Run with `PROPTEST_CASES=128` (CI does) for the full sweep.

use bbal::core::{
    attn_dot_packed, attn_weighted_sum_packed, BlockScheme, LayoutKind, PackedBlock, PackedMatrix,
    PackedRows, SchemeSpec,
};
use bbal::llm::Tensor;
use bbal::quant::registry::{hooks_for, TABLE2_SCHEMES};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Deterministic fixtures
// ---------------------------------------------------------------------

/// Small xorshift generator so every case is reproducible from its seed
/// without dragging a full RNG dependency into the property bodies.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Raw (pre-quantisation) weight values: exact multiples of 2⁻⁵ in
/// [-4, 4], with exact zeros mixed in. `PackedBlock::block_dot` scales
/// once per block, which differs from per-element scaling only in the
/// subnormal range, so its property stays on this coarse grid; the
/// matrix and attention kernels are also driven with subnormal inputs
/// below.
fn raw_values(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            let r = xorshift(&mut s);
            if r.is_multiple_of(13) {
                0.0
            } else {
                ((r % 257) as f32 - 128.0) * 0.03125
            }
        })
        .collect()
}

/// Activations on the same grid, with exact ±0.0 lanes to exercise the
/// scalar path's zero-skip branch (which the packed kernels replicate).
fn activations(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed ^ 0x9e37_79b9_7f4a_7c15 | 1;
    (0..n)
        .map(|_| {
            let r = xorshift(&mut s);
            match r % 17 {
                0 => 0.0,
                1 => -0.0,
                _ => ((r % 129) as f32 - 64.0) * 0.0625,
            }
        })
        .collect()
}

/// Weights as the model stores them: raw values pushed through the
/// scheme's own PTQ hook (`transform_weights`), i.e. exactly what
/// `TransformerModel::pack_weights` hands to `PackedMatrix::pack`.
fn quantised_weights(scheme: SchemeSpec, n: usize, seed: u64) -> Vec<f32> {
    let mut w = raw_values(n, seed);
    let hooks = hooks_for(scheme).expect("every Table II scheme has hooks");
    hooks.transform_weights(&mut w);
    w
}

/// The algebra-derived families (MX / MSFP / block minifloat) ride the
/// same battery as the Table II lineup, including a non-32 block size.
const ALGEBRA_SCHEMES: [SchemeSpec; 3] = [
    SchemeSpec::Mx(8, 4, 2),
    SchemeSpec::Msfp(4, 16),
    SchemeSpec::BlockMf(4, 3, 8),
];

/// Every scheme the battery sweeps: the Table II lineup followed by the
/// algebra families (so indices 4.. are all block formats).
fn sweep_schemes() -> Vec<SchemeSpec> {
    TABLE2_SCHEMES
        .iter()
        .copied()
        .chain(ALGEBRA_SCHEMES)
        .collect()
}

/// A sweep scheme picked by index (proptest shrinks towards index 0).
fn sweep_scheme() -> impl Strategy<Value = SchemeSpec> {
    (0..TABLE2_SCHEMES.len() + ALGEBRA_SCHEMES.len()).prop_map(|i| sweep_schemes()[i])
}

/// The expected storage layout for a scheme.
fn expected_layout(scheme: SchemeSpec) -> LayoutKind {
    match scheme {
        SchemeSpec::Bfp(_)
        | SchemeSpec::Bbfp(_, _)
        | SchemeSpec::Mx(..)
        | SchemeSpec::Msfp(..)
        | SchemeSpec::BlockMf(..) => LayoutKind::Block,
        SchemeSpec::Fp16 => LayoutKind::Fp16,
        _ => LayoutKind::Dense,
    }
}

/// The scalar reference: `x · W` exactly as `Tensor::matmul` computes it.
fn reference_matmul(x: &[f32], x_rows: usize, w: &[f32], k: usize, n: usize) -> Vec<f32> {
    let xt = Tensor::from_vec(x_rows, k, x.to_vec());
    let wt = Tensor::from_vec(k, n, w.to_vec());
    xt.matmul(&wt).data().to_vec()
}

/// The scalar reference for `x · Wᵀ` via `Tensor::matmul_transposed`.
fn reference_matmul_transposed(
    x: &[f32],
    x_rows: usize,
    w: &[f32],
    rows: usize,
    n: usize,
) -> Vec<f32> {
    let xt = Tensor::from_vec(x_rows, n, x.to_vec());
    let wt = Tensor::from_vec(rows, n, w.to_vec());
    xt.matmul_transposed(&wt).data().to_vec()
}

/// Asserts two f32 buffers are identical *bitwise* (so NaN payloads and
/// signed zeros count too), reporting the first mismatch.
fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{} length", what);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{}: index {} packed {} vs scalar {}",
            what,
            i,
            g,
            w
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    /// Encode → decode over the whole matrix is exact for every scheme's
    /// layout: the packed form is storage, never re-quantisation.
    #[test]
    fn packed_roundtrip_is_bit_exact(
        scheme in sweep_scheme(),
        rows in 1usize..7,
        cols in 1usize..70,
        seed in any::<u64>(),
    ) {
        let w = quantised_weights(scheme, rows * cols, seed);
        let p = PackedMatrix::pack(&w, rows, cols, scheme);
        prop_assert_eq!(p.rows(), rows);
        prop_assert_eq!(p.cols(), cols);
        prop_assert_eq!(p.scheme(), scheme);
        assert_bits_eq(&p.decode(), &w, "decode")?;
    }

    /// Block-format schemes actually land in the packed `Block` layout
    /// (shared exponent + mantissa payloads), and its footprint beats the
    /// dense f32 fallback — i.e. the fast path is really taken, not the
    /// self-verification fallback.
    #[test]
    fn block_schemes_take_the_block_layout(
        rows in 1usize..6,
        cols in 1usize..70,
        seed in any::<u64>(),
    ) {
        for scheme in sweep_schemes() {
            let w = quantised_weights(scheme, rows * cols, seed);
            let p = PackedMatrix::pack(&w, rows, cols, scheme);
            prop_assert_eq!(
                p.layout_kind(),
                expected_layout(scheme),
                "scheme {:?}",
                scheme
            );
            if p.layout_kind() == LayoutKind::Block {
                prop_assert!(
                    p.packed_bits() < 32 * rows * cols,
                    "{:?}: packed {} bits vs dense {}",
                    scheme,
                    p.packed_bits(),
                    32 * rows * cols
                );
            }
        }
    }

    /// Single-block encode → decode is exact, and `block_dot` off the
    /// packed bits equals the in-order f32 reference bit-for-bit —
    /// including ragged blocks shorter than the scheme's block size.
    #[test]
    fn block_dot_is_bit_identical(
        scheme_idx in 4usize..TABLE2_SCHEMES.len() + ALGEBRA_SCHEMES.len(),
        len in 1usize..=32,
        seed in any::<u64>(),
    ) {
        let scheme = sweep_schemes()[scheme_idx]; // indices 4.. are block formats
        let block_scheme = BlockScheme::from_scheme(scheme)
            .expect("indices 4.. are block formats");
        // One block holds at most `block_size` values (16 for MSFP(4,16)).
        let len = len.min(
            scheme
                .algebra()
                .expect("block formats validate")
                .expect("block formats lower to the algebra")
                .block_size,
        );
        let w = quantised_weights(scheme, len, seed);
        let block = PackedBlock::encode(&w, block_scheme)
            .expect("hook-quantised values are representable");
        assert_bits_eq(&block.decode(), &w, "block decode")?;

        let acts = activations(len, seed);
        let mut want = 0.0f32;
        for (a, wv) in acts.iter().zip(&w) {
            want += a * wv;
        }
        prop_assert_eq!(
            block.block_dot(&acts).to_bits(),
            want.to_bits(),
            "block_dot {} vs reference {}",
            block.block_dot(&acts),
            want
        );
    }

    /// The headline invariant: packed GEMM == `Tensor::matmul` bitwise
    /// for every scheme, including ragged inner/outer dimensions where
    /// quantisation blocks straddle row boundaries.
    #[test]
    fn packed_gemm_matches_scalar_bitwise(
        scheme in sweep_scheme(),
        x_rows in 1usize..4,
        k in 1usize..70,
        n in 1usize..70,
        seed in any::<u64>(),
    ) {
        let w = quantised_weights(scheme, k * n, seed);
        let x = activations(x_rows * k, seed.rotate_left(17));
        let p = PackedMatrix::pack(&w, k, n, scheme);
        let mut got = vec![f32::NAN; x_rows * n];
        p.gemm(&x, x_rows, &mut got);
        let want = reference_matmul(&x, x_rows, &w, k, n);
        assert_bits_eq(&got, &want, "gemm")?;
    }

    /// Same invariant for the transposed kernel (`x · Wᵀ`), which the
    /// model uses wherever the scalar path used `matmul_transposed`.
    #[test]
    fn packed_gemm_transposed_matches_scalar_bitwise(
        scheme in sweep_scheme(),
        x_rows in 1usize..4,
        rows in 1usize..70,
        n in 1usize..70,
        seed in any::<u64>(),
    ) {
        let w = quantised_weights(scheme, rows * n, seed);
        let x = activations(x_rows * n, seed.rotate_left(29));
        let p = PackedMatrix::pack(&w, rows, n, scheme);
        let mut got = vec![f32::NAN; x_rows * rows];
        p.gemm_transposed(&x, x_rows, &mut got);
        let want = reference_matmul_transposed(&x, x_rows, &w, rows, n);
        assert_bits_eq(&got, &want, "gemm_transposed")?;
    }

    /// Worker-count determinism: the data-parallel driver with 1 vs N
    /// threads produces identical bits — each output column is owned by
    /// exactly one worker and accumulated in the same k order.
    #[test]
    fn worker_count_never_changes_gemm_bits(
        scheme in sweep_scheme(),
        k in 1usize..60,
        n in 33usize..128, // wide enough to split into >1 block range
        workers in 2usize..9,
        seed in any::<u64>(),
    ) {
        let w = quantised_weights(scheme, k * n, seed);
        let x = activations(2 * k, seed.rotate_left(41));
        let p = PackedMatrix::pack(&w, k, n, scheme);

        let mut lone = vec![0.0f32; 2 * n];
        bbal::llm::gemm::gemm(&p, &x, 2, 1, &mut lone);
        let mut pooled = vec![f32::NAN; 2 * n];
        bbal::llm::gemm::gemm(&p, &x, 2, workers, &mut pooled);
        assert_bits_eq(&pooled, &lone, "gemm workers")?;

        let xt = activations(2 * k, seed.rotate_left(53));
        let pt = PackedMatrix::pack(&w, n, k, scheme);
        let mut lone_t = vec![0.0f32; 2 * n];
        bbal::llm::gemm::gemm_transposed(&pt, &xt, 2, 1, &mut lone_t);
        let mut pooled_t = vec![f32::NAN; 2 * n];
        bbal::llm::gemm::gemm_transposed(&pt, &xt, 2, workers, &mut pooled_t);
        assert_bits_eq(&pooled_t, &lone_t, "gemm_transposed workers")?;
    }

    /// The register-tiled kernel against `Tensor::matmul` at every
    /// row-tile remainder (`x_rows` 1..=9), partial panels (`n` below 32
    /// and not a multiple of 32), and `gemm_cols` over a random column
    /// partition whose cuts may or may not fall on panel edges. The
    /// activations carry exact ±0.0 lanes and, with `tiny`, subnormals.
    #[test]
    fn panel_kernel_matches_scalar_for_every_tile_and_partition(
        scheme in sweep_scheme(),
        x_rows in 1usize..=9,
        k in 1usize..50,
        n in 1usize..100,
        cuts in proptest::collection::vec(0usize..100, 0..4),
        aligned in any::<bool>(),
        tiny in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let w = quantised_weights(scheme, k * n, seed);
        let mut x = activations(x_rows * k, seed.rotate_left(7));
        if tiny {
            for v in x.iter_mut().step_by(3) {
                *v *= 1e-39;
            }
        }
        let p = PackedMatrix::pack(&w, k, n, scheme);
        let want = reference_matmul(&x, x_rows, &w, k, n);
        let mut full = vec![f32::NAN; x_rows * n];
        p.gemm(&x, x_rows, &mut full);
        assert_bits_eq(&full, &want, "gemm")?;

        let mut bounds: Vec<usize> = cuts
            .iter()
            .map(|&c| if aligned { c / 32 * 32 } else { c })
            .filter(|&c| c > 0 && c < n)
            .collect();
        bounds.extend([0, n]);
        bounds.sort_unstable();
        bounds.dedup();
        let mut split = vec![f32::NAN; x_rows * n];
        for pair in bounds.windows(2) {
            let (c0, c1) = (pair[0], pair[1]);
            let mut strip = vec![f32::NAN; x_rows * (c1 - c0)];
            p.gemm_cols(&x, x_rows, c0, c1, &mut strip);
            for i in 0..x_rows {
                split[i * n + c0..i * n + c1]
                    .copy_from_slice(&strip[i * (c1 - c0)..(i + 1) * (c1 - c0)]);
            }
        }
        assert_bits_eq(&split, &want, "gemm_cols partition")?;
    }
}

// ---------------------------------------------------------------------
// Deterministic spot checks (run even when PROPTEST_CASES is tiny)
// ---------------------------------------------------------------------

/// Paper-shaped dims (multiples of every sweep block size, the aligned
/// fast path) for every sweep scheme at a fixed seed — the exact
/// configuration the model runs, as one plain test that never shrinks
/// away.
#[test]
fn paper_shape_gemm_is_bit_identical_for_every_scheme() {
    let (k, n) = (64, 96);
    for scheme in sweep_schemes() {
        let w = quantised_weights(scheme, k * n, 0xB1D5);
        let x = activations(3 * k, 0xACC5);
        let p = PackedMatrix::pack(&w, k, n, scheme);
        assert_eq!(p.layout_kind(), expected_layout(scheme), "{scheme:?}");
        let mut got = vec![f32::NAN; 3 * n];
        p.gemm(&x, 3, &mut got);
        let want = reference_matmul(&x, 3, &w, k, n);
        for (i, (g, wv)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), wv.to_bits(), "{scheme:?} index {i}");
        }
    }
}

/// The Fp32 scheme must fall through to the dense layout and still be
/// exact — the identity case of the whole construction.
#[test]
fn fp32_dense_layout_is_the_identity() {
    let w = raw_values(5 * 33, 7);
    let p = PackedMatrix::pack(&w, 5, 33, SchemeSpec::Fp32);
    assert_eq!(p.layout_kind(), LayoutKind::Dense);
    assert_eq!(p.decode(), w);
}

/// A quantised BBFP(4,2) 2×32 weight matrix and its packed form.
fn bbfp_2x32() -> (Vec<f32>, PackedMatrix) {
    let w = quantised_weights(SchemeSpec::Bbfp(4, 2), 64, 0x5B5);
    let p = PackedMatrix::pack(&w, 2, 32, SchemeSpec::Bbfp(4, 2));
    assert_eq!(p.layout_kind(), LayoutKind::Block);
    (w, p)
}

/// Subnormal activations: folding a block scale `2^s` into `a` first
/// (`fl(fl(a·2^s)·l)`) drops bits when `a·2^s` is subnormal; the panel
/// kernels multiply `a` by the stored weight itself.
#[test]
fn subnormal_activations_keep_gemm_bit_identical() {
    let (w, p) = bbfp_2x32();
    for x in [[1e-40f32, 0.0], [3e-39, -2e-41]] {
        let mut got = vec![f32::NAN; 32];
        p.gemm(&x, 1, &mut got);
        let want = reference_matmul(&x, 1, &w, 2, 32);
        for (i, (g, wv)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), wv.to_bits(), "x {x:?} index {i}");
        }
    }
}

#[test]
fn subnormal_activations_keep_gemm_transposed_bit_identical() {
    let (w, p) = bbfp_2x32();
    let mut x = [0.0f32; 32];
    x[0] = 1e-40;
    x[5] = 3e-39;
    x[31] = -2e-41;
    let mut got = [f32::NAN; 2];
    p.gemm_transposed(&x, 1, &mut got);
    let want = reference_matmul_transposed(&x, 1, &w, 2, 32);
    for (g, wv) in got.iter().zip(&want) {
        assert_eq!(g.to_bits(), wv.to_bits());
    }
}

/// The packed attention kernels against the dense QK and AV loops for
/// queries and softmax probabilities small enough that `p·2^s` is
/// subnormal.
#[test]
fn subnormal_queries_and_probabilities_keep_attention_bit_identical() {
    let (w, _) = bbfp_2x32();
    let mut rows = PackedRows::new(SchemeSpec::Bbfp(4, 2), 32);
    rows.push_row(&w[..32]);
    rows.push_row(&w[32..]);
    assert_eq!(rows.layout_kind(), LayoutKind::Block);
    for tiny in [1e-40f32, 3e-39] {
        let q: Vec<f32> = (0..32).map(|d| tiny * (d as f32 - 15.5)).collect();
        for j in 0..2 {
            let mut want = 0.0f32;
            for (d, qv) in q.iter().enumerate() {
                want += qv * w[j * 32 + d];
            }
            let got = attn_dot_packed(&q, &rows, j, 0);
            assert_eq!(got.to_bits(), want.to_bits(), "QK tiny {tiny} row {j}");
        }
        let probs = [tiny, 0.5 * tiny];
        let mut want = vec![0.0f32; 32];
        for (j, &pr) in probs.iter().enumerate() {
            for (d, o) in want.iter_mut().enumerate() {
                *o += pr * w[j * 32 + d];
            }
        }
        let mut got = vec![0.0f32; 32];
        attn_weighted_sum_packed(&probs, &rows, 0, &mut got);
        for (d, (g, wv)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), wv.to_bits(), "AV tiny {tiny} column {d}");
        }
    }
}
