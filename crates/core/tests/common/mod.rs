//! Reference decodes for the slice quantisers: the block codecs
//! (`BbfpBlock`, `BfpBlock`) applied block by block, the oracle the
//! fast quantiser kernel must match bit for bit.

use bbal_core::{BbfpBlock, BbfpConfig, BfpBlock, BfpConfig, ExponentPolicy, Fp16, RoundingMode};

/// Narrows one slice block to FP16 and pads it with zeros to `block`
/// elements. Zeros never move a block maximum, and each element encodes
/// on its own against the shared exponent, so decoding the padded block
/// and keeping the first `chunk.len()` values is the ragged-tail block.
fn padded_fp16(chunk: &[f32], block: usize) -> Vec<Fp16> {
    let mut fp16: Vec<Fp16> = chunk
        .iter()
        .map(|&v| Fp16::from_f32_saturating(v))
        .collect();
    fp16.resize(block, Fp16::ZERO);
    fp16
}

/// `BbfpBlock` decode of `values`, one `cfg.block_size()` block at a time.
pub fn bbfp_oracle(
    values: &[f32],
    cfg: BbfpConfig,
    policy: ExponentPolicy,
    rounding: RoundingMode,
) -> Vec<f32> {
    let bs = cfg.block_size();
    let mut out = Vec::with_capacity(values.len());
    for chunk in values.chunks(bs) {
        let block = BbfpBlock::from_fp16_slice_with(&padded_fp16(chunk, bs), cfg, policy, rounding)
            .expect("finite block");
        out.extend_from_slice(&block.to_f32_vec()[..chunk.len()]);
    }
    out
}

/// `BfpBlock` decode of `values`, one `cfg.block_size()` block at a time.
pub fn bfp_oracle(values: &[f32], cfg: BfpConfig, rounding: RoundingMode) -> Vec<f32> {
    let bs = cfg.block_size();
    let mut out = Vec::with_capacity(values.len());
    for chunk in values.chunks(bs) {
        let block = BfpBlock::from_fp16_slice_with(&padded_fp16(chunk, bs), cfg, rounding)
            .expect("finite block");
        out.extend_from_slice(&block.to_f32_vec()[..chunk.len()]);
    }
    out
}

/// The index and both bit patterns of the first element where `got`
/// and `want` differ bitwise (so `-0.0` vs `0.0` counts), if any.
pub fn first_bit_mismatch(got: &[f32], want: &[f32]) -> Option<(usize, u32, u32)> {
    assert_eq!(got.len(), want.len());
    got.iter()
        .zip(want)
        .enumerate()
        .find(|(_, (g, w))| g.to_bits() != w.to_bits())
        .map(|(i, (g, w))| (i, g.to_bits(), w.to_bits()))
}
