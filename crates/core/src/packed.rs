//! Packed quantised matrix storage and its GEMM kernels.
//!
//! [`crate::bitpack`] defines the bit-exact storage layout of a single
//! block; this module promotes it to the *memory charge* of whole
//! tensors. Each block is one shared scale field (5-bit exponent for
//! BFP/BBFP, 8-bit for MX/MSFP, a signed bias for block minifloat), any
//! per-sub-block offset codes, then the packed element payloads
//! (`sign|mantissa`, `sign|flag|mantissa`, or `sign|exp|mantissa`), with
//! no padding between fields:
//!
//! ```text
//!   block b:   [ e₄e₃e₂e₁e₀ | s f m₃m₂m₁m₀ | s f m₃m₂m₁m₀ | … ]
//!               `────┬────'   `─────┬─────'
//!            shared exponent   one element lane (BBFP: flag picks the
//!                              high window, worth ×2^(m−o))
//!
//!   weight[j] = lane[j] × 2^(scale-exponent(b))
//! ```
//!
//! [`PackedBlock`] writes and reads those bits: it is the Table I
//! conformance codec and the test oracle. The whole-tensor stores —
//! [`PackedMatrix`] (weights) and [`PackedRows`] (KV pages) — hold **one**
//! copy of their values, as f32, and a verified layout tag. Packing runs
//! every chunk through the codec's encode → decode check; when all
//! chunks reproduce the input bit-for-bit the tensor is charged the
//! format's bits (`chunk_bits` per chunk, ragged tail included), and
//! otherwise it is charged as dense f32. The bits themselves are never
//! stored: the simulated accelerator reads them, the host only counts
//! them.
//!
//! A [`PackedMatrix`] lays its values out k-major in
//! [`PANEL_WIDTH`]-column panels. A decode-step GEMV streams each panel
//! front to back, in the order its multiply-accumulates use the
//! weights, while the accumulators of the panel's columns stay in
//! registers.
//!
//! ## The bit-identity invariant
//!
//! The [`PackedMatrix`] kernels do exactly the arithmetic of the scalar
//! f32 reference (`Tensor::matmul` / `Tensor::matmul_transposed` over
//! the stored weights), so they are **bit-identical for every input**:
//! every output element sees the same `acc += a·w` in ascending `k`
//! (ascending column for the transposed kernel), starting from `+0`,
//! with the reference's `a == 0.0` skip. The [`PackedRows`] attention
//! kernels are the dense QK^T and AV loops over the stored rows. Only
//! [`PackedBlock::block_dot`] relies on power-of-two scaling commuting
//! with rounding: it sums `a·lane` and applies the shared-exponent scale
//! once at the end, which matches the per-element reference unless an
//! intermediate is subnormal or infinite.
//!
//! Schemes whose scales are *not* powers of two (olive, oltron,
//! omniquant, int) have no block layout; [`PackedMatrix::pack`] charges
//! them dense ([`LayoutKind::Dense`]), and exact FP16 weights 16 bits
//! each ([`LayoutKind::Fp16`]).

use crate::algebra::{self, AlgChunk, ElementKind, FormatAlgebra, ScaleKind};
use crate::bfp::exp2i;
use crate::bitpack::{BitReader, BitWriter};
use crate::error::FormatError;
use crate::format::{BbfpConfig, BfpConfig, SHARED_EXPONENT_BITS};
use crate::fp16::Fp16;
use crate::rounding::RoundingMode;
use crate::scheme::SchemeSpec;

/// The block-format family a [`PackedBlock`] or block-layout
/// [`PackedMatrix`] is encoded in.
///
/// All variants encode and decode through the same
/// [`crate::algebra`] chunk codec; `Bfp`/`Bbfp` keep their own
/// constructors (and the exact bit layout PR 8 pinned), while
/// `Algebra` carries any other packable point of the format algebra —
/// MX, MSFP, block minifloat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockScheme {
    /// Vanilla BFP: `sign|mantissa` elements.
    Bfp(BfpConfig),
    /// Bidirectional BFP: `sign|flag|mantissa` elements, the flag worth
    /// `×2^(m−o)`.
    Bbfp(BbfpConfig),
    /// Any other packable point of the format algebra (MX two-level
    /// scaling, MSFP wide blocks, block minifloat).
    Algebra(FormatAlgebra),
}

impl BlockScheme {
    /// The block-format mapping of `scheme`, if it has one.
    pub fn from_scheme(scheme: SchemeSpec) -> Option<BlockScheme> {
        match scheme {
            SchemeSpec::Bfp(m) => BfpConfig::new(m).ok().map(BlockScheme::Bfp),
            SchemeSpec::Bbfp(m, o) => BbfpConfig::new(m, o).ok().map(BlockScheme::Bbfp),
            SchemeSpec::Mx(..) | SchemeSpec::Msfp(..) | SchemeSpec::BlockMf(..) => scheme
                .algebra()
                .ok()
                .flatten()
                .filter(FormatAlgebra::packable)
                .map(BlockScheme::Algebra),
            _ => None,
        }
    }

    /// The format-algebra point every variant lowers to — the single
    /// description the chunk codec runs on.
    pub fn algebra_form(&self) -> FormatAlgebra {
        match self {
            BlockScheme::Bfp(c) => FormatAlgebra {
                block_size: c.block_size(),
                scale: ScaleKind::SharedExponent {
                    bits: SHARED_EXPONENT_BITS as u8,
                },
                mantissa_bits: c.mantissa_bits(),
                overlap_bits: 0,
                element: ElementKind::Fixed,
            },
            BlockScheme::Bbfp(c) => FormatAlgebra {
                block_size: c.block_size(),
                scale: ScaleKind::SharedExponent {
                    bits: SHARED_EXPONENT_BITS as u8,
                },
                mantissa_bits: c.mantissa_bits(),
                overlap_bits: c.overlap_bits(),
                element: ElementKind::Fixed,
            },
            BlockScheme::Algebra(a) => *a,
        }
    }

    /// Elements per block.
    pub fn block_size(&self) -> usize {
        match self {
            BlockScheme::Bfp(c) => c.block_size(),
            BlockScheme::Bbfp(c) => c.block_size(),
            BlockScheme::Algebra(a) => a.block_size,
        }
    }

    /// Mantissa bits per element.
    pub fn mantissa_bits(&self) -> u8 {
        match self {
            BlockScheme::Bfp(c) => c.mantissa_bits(),
            BlockScheme::Bbfp(c) => c.mantissa_bits(),
            BlockScheme::Algebra(a) => a.mantissa_bits,
        }
    }

    /// Packed payload bits per element (`1+m` for BFP, `2+m` for BBFP,
    /// `1+e+m` for minifloat elements).
    pub fn element_bits(&self) -> usize {
        self.algebra_form().payload_bits_per_element() as usize
    }
}

/// Encodes one chunk (a full block or a ragged tail) of *already
/// quantised* values against its own shared scale. The slice quantisers
/// ([`crate::algebra::algebra_quantize_slice`], `bfp_quantize_slice`,
/// `bbfp_quantize_slice`) reproduce the decode of these codes bit for
/// bit, so re-encoding a quantised chunk is the identity.
fn encode_chunk(values: &[f32], alg: &FormatAlgebra) -> AlgChunk {
    let fp16: Vec<Fp16> = values
        .iter()
        .map(|&v| Fp16::from_f32_saturating(v))
        .collect();
    algebra::encode_chunk(&fp16, alg, RoundingMode::NearestEven)
}

/// One block (up to `block_size` values) stored in its packed bit
/// layout: 5-bit shared exponent, then the per-element payloads.
///
/// This is the bit-exact conformance codec of the packed format (Table
/// I) and the oracle the whole-tensor bit counts are tested against —
/// the proptest battery drives it directly. [`PackedBlock::block_dot`] is
/// the paper-shaped kernel: mantissa-integer products accumulate first,
/// the shared-exponent scale applies once at the end.
///
/// ```
/// use bbal_core::packed::{BlockScheme, PackedBlock};
/// use bbal_core::{bfp_quantize_slice, BfpConfig, RoundingMode, SchemeSpec};
///
/// let cfg = BfpConfig::new(4)?;
/// let raw: Vec<f32> = (0..32).map(|i| (i as f32 - 16.0) * 0.1).collect();
/// let mut q = vec![0.0; 32];
/// bfp_quantize_slice(&raw, cfg, RoundingMode::NearestEven, &mut q);
///
/// let scheme = BlockScheme::from_scheme(SchemeSpec::Bfp(4)).unwrap();
/// let block = PackedBlock::encode(&q, scheme)?;
/// assert_eq!(block.decode(), q); // exact round trip
///
/// let acts = vec![1.0f32; 32];
/// let reference: f32 = q.iter().fold(0.0, |acc, w| acc + 1.0 * w);
/// assert_eq!(block.block_dot(&acts), reference); // bit-identical
/// # Ok::<(), bbal_core::FormatError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PackedBlock {
    scheme: BlockScheme,
    len: usize,
    shared_exponent: i32,
    bit_len: usize,
    bytes: Vec<u8>,
}

impl PackedBlock {
    /// Encodes a slice of **already quantised** values (at most one
    /// block) into the packed layout, verifying that decoding the packed
    /// bytes reproduces the input bit-for-bit.
    ///
    /// # Errors
    ///
    /// [`FormatError::LengthMismatch`] if `values` is empty or longer
    /// than the scheme's block size, [`FormatError::NonFinite`] on NaN
    /// or infinity, and [`FormatError::NotRepresentable`] if any value
    /// is not exactly representable in the scheme (i.e. the input was
    /// not produced by this scheme's quantiser).
    pub fn encode(values: &[f32], scheme: BlockScheme) -> Result<PackedBlock, FormatError> {
        let bs = scheme.block_size();
        if values.is_empty() || values.len() > bs {
            return Err(FormatError::LengthMismatch {
                got: values.len(),
                expected: bs,
            });
        }
        for (i, v) in values.iter().enumerate() {
            if !v.is_finite() {
                return Err(FormatError::NonFinite(i));
            }
        }
        let alg = scheme.algebra_form();
        let chunk = encode_chunk(values, &alg);
        for (i, v) in values.iter().enumerate() {
            if chunk.decode_value(i, &alg).to_bits() != v.to_bits() {
                return Err(FormatError::NotRepresentable(i));
            }
        }
        let mut w = BitWriter::new();
        algebra::write_chunk(&mut w, &chunk, &alg);
        let bit_len = w.bit_len();
        Ok(PackedBlock {
            scheme,
            len: values.len(),
            shared_exponent: chunk.scale_code,
            bit_len,
            bytes: w.into_bytes(),
        })
    }

    /// The scheme this block is packed in.
    pub fn scheme(&self) -> BlockScheme {
        self.scheme
    }

    /// Number of encoded values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the block holds no values (never — encoding rejects
    /// empty input — but clippy insists `len` has an `is_empty`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The shared scale code of the block: the biased maximum exponent
    /// for shared-exponent and two-level schemes, the signed exponent
    /// bias for block minifloat.
    pub fn shared_exponent(&self) -> i32 {
        self.shared_exponent
    }

    /// The packed bytes (shared scale field, any sub-block offsets,
    /// then element payloads).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Exact packed size in bits.
    pub fn packed_bits(&self) -> usize {
        self.bit_len
    }

    /// Decodes the packed bytes back to f32 values — the exact inverse
    /// of [`PackedBlock::encode`].
    pub fn decode(&self) -> Vec<f32> {
        let alg = self.scheme.algebra_form();
        let mut r = BitReader::new(&self.bytes);
        let chunk = algebra::read_chunk(&mut r, self.len, &alg);
        (0..self.len).map(|i| chunk.decode_value(i, &alg)).collect()
    }

    /// The block-dot kernel: accumulates activation × mantissa-integer
    /// products straight off the packed bits and applies the
    /// shared-exponent scale **once**, after the loop. Bit-identical to
    /// the f32 reference `Σ fl(aⱼ·wⱼ)` accumulated in order (power-of-two
    /// scaling commutes with every rounding in the sum) — except when an
    /// intermediate product or partial sum, scaled or unscaled, is
    /// subnormal or infinite: there the deferred scale rounds
    /// differently.
    ///
    /// # Panics
    ///
    /// Panics if `acts.len() != self.len()`.
    pub fn block_dot(&self, acts: &[f32]) -> f32 {
        assert_eq!(acts.len(), self.len, "activation length mismatch");
        let alg = self.scheme.algebra_form();
        let mut r = BitReader::new(&self.bytes);
        let chunk = algebra::read_chunk(&mut r, self.len, &alg);
        let mut acc = 0.0f32;
        for (i, a) in acts.iter().enumerate() {
            acc += a * chunk.lane_value(i, &alg);
        }
        acc * exp2i(chunk.scale_exponent(&alg))
    }
}

/// The verified layout a packed tensor is charged in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutKind {
    /// Plain f32 — schemes without power-of-two block scales, or the
    /// verified fallback.
    Dense,
    /// IEEE binary16: every value is an exact FP16.
    Fp16,
    /// Native block layout: shared scale fields plus packed element
    /// payloads.
    Block,
}

/// Width, in columns, of one panel of [`PackedMatrix`]'s kernel
/// operand. Worker pools that split a GEMM by output columns align
/// their ranges to it, so every range covers whole panels.
pub const PANEL_WIDTH: usize = 32;

/// A weight matrix verified against its quantisation scheme's packed
/// layout and charged that layout's bits, with GEMM kernels that are
/// bit-identical to the scalar f32 reference path (see the module docs
/// for the invariant).
///
/// Blocks run along the **flat row-major buffer** — the same geometry
/// the slice quantisers use — so packing the output of
/// `transform_weights` verifies as the block layout.
///
/// ```
/// use bbal_core::packed::{LayoutKind, PackedMatrix};
/// use bbal_core::{bbfp_quantize_slice, BbfpConfig, RoundingMode, SchemeSpec};
///
/// let cfg = BbfpConfig::new(4, 2)?;
/// let raw: Vec<f32> = (0..64).map(|i| ((i * 7 % 23) as f32 - 11.0) * 0.07).collect();
/// let mut q = vec![0.0; 64];
/// bbfp_quantize_slice(&raw, cfg, RoundingMode::NearestEven, &mut q);
///
/// let packed = PackedMatrix::pack(&q, 2, 32, SchemeSpec::Bbfp(4, 2));
/// assert_eq!(packed.layout_kind(), LayoutKind::Block);
/// assert_eq!(packed.decode(), q); // exact round trip
/// assert_eq!(packed.packed_bits(), 2 * (5 + 32 * 6)); // Table I cost
///
/// // x · W, bit-identical to the f32 reference.
/// let x = vec![0.5f32, -1.0];
/// let mut out = vec![0.0; 32];
/// packed.gemm(&x, 1, &mut out);
/// let mut reference = vec![0.0f32; 32];
/// for (k, &a) in x.iter().enumerate() {
///     if a == 0.0 { continue; }
///     for j in 0..32 {
///         reference[j] += a * q[k * 32 + j];
///     }
/// }
/// assert_eq!(out, reference);
/// # Ok::<(), bbal_core::FormatError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PackedMatrix {
    rows: usize,
    cols: usize,
    scheme: SchemeSpec,
    layout: LayoutKind,
    /// Exact size of the verified layout in bits.
    bits: usize,
    /// The stored weights, k-major in [`PANEL_WIDTH`]-column panels:
    /// panel `p` covers columns `[32p, min(32p + 32, cols))` and holds
    /// them as a `rows × width` row-major block starting at
    /// `32p · rows`. The last panel is narrower when `cols` is not a
    /// multiple of 32.
    panels: Vec<f32>,
    /// Every weight is finite, so `0·w` is an exact zero and the rows of
    /// a tile may share one zero-skip (see `gemm_cols`).
    finite: bool,
}

impl PackedMatrix {
    /// Packs an **already quantised** `rows × cols` row-major matrix,
    /// charging it `scheme`'s native layout.
    ///
    /// Block schemes (BFP, BBFP, MX, MSFP, block minifloat) get the
    /// block layout and FP16 the binary16 layout when every value
    /// verifies; every other scheme — and any input the block encoder
    /// cannot reproduce bit-for-bit (e.g. values that did not come from
    /// this scheme's quantiser) — is charged as dense f32. The stored
    /// values are the input either way, so the GEMM bit-identity
    /// invariant holds unconditionally.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows * cols` or a dimension is zero.
    pub fn pack(values: &[f32], rows: usize, cols: usize, scheme: SchemeSpec) -> PackedMatrix {
        assert!(rows > 0 && cols > 0, "degenerate matrix {rows}x{cols}");
        assert_eq!(values.len(), rows * cols, "data length mismatch");
        let mut panels = Vec::with_capacity(values.len());
        for c0 in (0..cols).step_by(PANEL_WIDTH) {
            let c1 = cols.min(c0 + PANEL_WIDTH);
            for row in values.chunks_exact(cols) {
                panels.extend_from_slice(&row[c0..c1]);
            }
        }
        let block = BlockScheme::from_scheme(scheme).and_then(|bs| block_bits(values, bs));
        let (layout, bits) = match block {
            Some(bits) => (LayoutKind::Block, bits),
            None if scheme == SchemeSpec::Fp16 && values.iter().all(|&v| is_exact_fp16(v)) => {
                (LayoutKind::Fp16, values.len() * 16)
            }
            None => (LayoutKind::Dense, values.len() * 32),
        };
        PackedMatrix {
            rows,
            cols,
            scheme,
            layout,
            bits,
            panels,
            finite: values.iter().all(|v| v.is_finite()),
        }
    }

    /// Number of rows (the GEMM contraction length).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the GEMM output width).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The scheme this matrix was packed for.
    pub fn scheme(&self) -> SchemeSpec {
        self.scheme
    }

    /// Which layout the matrix is charged in.
    pub fn layout_kind(&self) -> LayoutKind {
        self.layout
    }

    /// Exact size of the packed representation in bits (`rows·cols·32`
    /// for the dense fallback — the honesty metric the memory-density
    /// tests pin).
    pub fn packed_bits(&self) -> usize {
        self.bits
    }

    /// The stored weights as the full row-major f32 matrix — the packed
    /// input, bit for bit.
    pub fn decode(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.panels.len()];
        for (p, panel) in self.panels.chunks(PANEL_WIDTH * self.rows).enumerate() {
            let c0 = p * PANEL_WIDTH;
            let width = panel.len() / self.rows;
            for (row, src) in out
                .chunks_exact_mut(self.cols)
                .zip(panel.chunks_exact(width))
            {
                row[c0..c0 + width].copy_from_slice(src);
            }
        }
        out
    }

    /// `x · W` for row-major `x` of shape `x_rows × self.rows`, writing
    /// the full `x_rows × self.cols` product over `out`. Bit-identical
    /// to the reference i-k-j f32 loop (ascending-`k` accumulation per
    /// output element, `a == 0.0` rows skipped).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != x_rows * self.rows` or
    /// `out.len() != x_rows * self.cols`.
    pub fn gemm(&self, x: &[f32], x_rows: usize, out: &mut [f32]) {
        self.gemm_cols(x, x_rows, 0, self.cols, out);
    }

    /// As [`PackedMatrix::gemm`], but computes only output columns
    /// `[c0, c1)`, written *compactly* into `out` (an
    /// `x_rows × (c1−c0)` row-major buffer) — the unit of work a worker
    /// pool splits a GEMM into, each worker owning a private output
    /// strip. Any partition of `0..cols` reproduces
    /// [`PackedMatrix::gemm`] exactly, because each output element is
    /// owned by exactly one range and accumulated in the same `k`
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != x_rows * self.rows`,
    /// `out.len() != x_rows * (c1 - c0)`, or the range is invalid.
    pub fn gemm_cols(&self, x: &[f32], x_rows: usize, c0: usize, c1: usize, out: &mut [f32]) {
        assert!(c0 < c1 && c1 <= self.cols, "bad column range {c0}..{c1}");
        assert_eq!(x.len(), x_rows * self.rows, "x shape mismatch");
        let width = c1 - c0;
        assert_eq!(out.len(), x_rows * width, "out shape mismatch");
        // The reference skips `a == 0.0`. A tile skips a `k` only when
        // every row's `a` is zero. With finite weights the other rows'
        // `0·w` is ±0, and adding ±0 leaves an accumulator unchanged (it
        // starts at +0 and a round-to-nearest sum is −0 only when both
        // terms are). A non-finite weight (`0·∞` is NaN) forces one-row
        // tiles, whose skip is exactly the reference's.
        let max_tile = if self.finite { 4 } else { 1 };
        let (xs, outs) = (
            x.chunks(max_tile * self.rows),
            out.chunks_mut(max_tile * width),
        );
        for (x_tile, out_tile) in xs.zip(outs) {
            match x_tile.len() / self.rows {
                1 => self.gemm_tile::<1, 8>(x_tile, c0, c1, out_tile),
                2 => self.gemm_tile::<2, 4>(x_tile, c0, c1, out_tile),
                3 => self.gemm_tile::<3, 2>(x_tile, c0, c1, out_tile),
                _ => self.gemm_tile::<4, 2>(x_tile, c0, c1, out_tile),
            }
        }
    }

    /// One tile of `R` activation rows against output columns
    /// `[c0, c1)`: each panel is walked in strips of `V` four-column
    /// vectors whose `R × 4V` accumulators stay in registers across
    /// every `k`; columns left over past the last full strip go one at
    /// a time.
    fn gemm_tile<const R: usize, const V: usize>(
        &self,
        x: &[f32],
        c0: usize,
        c1: usize,
        out: &mut [f32],
    ) {
        let k_len = self.rows;
        let width = c1 - c0;
        for p0 in (c0 / PANEL_WIDTH * PANEL_WIDTH..c1).step_by(PANEL_WIDTH) {
            let pw = PANEL_WIDTH.min(self.cols - p0);
            let panel = &self.panels[p0 * k_len..(p0 + pw) * k_len];
            let (mut j, j1) = (c0.max(p0) - p0, c1.min(p0 + pw) - p0);
            while j + 4 * V <= j1 {
                let acc = panel_strip::<R, V, 4>(x, panel, pw, j);
                store_strip(&acc, out, width, p0 + j - c0);
                j += 4 * V;
            }
            for j in j..j1 {
                let acc = panel_strip::<R, 1, 1>(x, panel, pw, j);
                store_strip(&acc, out, width, p0 + j - c0);
            }
        }
    }

    /// `x · Wᵀ` for row-major `x` of shape `x_rows × self.cols`, writing
    /// `x_rows × self.rows` over `out`. Bit-identical to the reference
    /// sequential-dot loop (`Tensor::matmul_transposed`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != x_rows * self.cols` or
    /// `out.len() != x_rows * self.rows`.
    pub fn gemm_transposed(&self, x: &[f32], x_rows: usize, out: &mut [f32]) {
        self.gemm_transposed_rows(x, x_rows, 0, self.rows, out);
    }

    /// As [`PackedMatrix::gemm_transposed`], but computes only the
    /// output columns corresponding to W rows `[r0, r1)`, written
    /// compactly into `out` (an `x_rows × (r1−r0)` buffer) — the worker
    /// split of the transposed GEMM.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != x_rows * self.cols`,
    /// `out.len() != x_rows * (r1 - r0)`, or the range is invalid.
    pub fn gemm_transposed_rows(
        &self,
        x: &[f32],
        x_rows: usize,
        r0: usize,
        r1: usize,
        out: &mut [f32],
    ) {
        assert!(r0 < r1 && r1 <= self.rows, "bad row range {r0}..{r1}");
        assert_eq!(x.len(), x_rows * self.cols, "x shape mismatch");
        let width = r1 - r0;
        assert_eq!(out.len(), x_rows * width, "out shape mismatch");
        for (x_row, out_row) in x.chunks_exact(self.cols).zip(out.chunks_exact_mut(width)) {
            for (o, r) in out_row.iter_mut().zip(r0..r1) {
                *o = self.panel_dot(x_row, r);
            }
        }
    }

    /// The sequential dot of `x_row` with W row `r`: the row's segment
    /// in each panel in turn, in ascending column order.
    fn panel_dot(&self, x_row: &[f32], r: usize) -> f32 {
        let mut acc = 0.0f32;
        let panels = self.panels.chunks(PANEL_WIDTH * self.rows);
        for (panel, xs) in panels.zip(x_row.chunks(PANEL_WIDTH)) {
            let w = &panel[r * xs.len()..(r + 1) * xs.len()];
            for (a, b) in xs.iter().zip(w) {
                acc += a * b;
            }
        }
        acc
    }
}

/// The register-tiled GEMM body: the `R × V·L` outputs at columns
/// `[j, j + V·L)` of a `pw`-wide panel for the `R` rows of `x`,
/// accumulated `acc += a·w` in ascending `k`, skipping a `k` whose `R`
/// activations are all zero — exactly the arithmetic of the reference
/// i-k-j loop for each output element (see `gemm_cols` for the shared
/// skip). Grouping the columns as `V` vectors of `L` lanes lets the
/// compiler map each group onto one SIMD register.
#[inline(always)]
fn panel_strip<const R: usize, const V: usize, const L: usize>(
    x: &[f32],
    panel: &[f32],
    pw: usize,
    j: usize,
) -> [[[f32; L]; V]; R] {
    let k_len = x.len() / R;
    let mut acc = [[[0.0f32; L]; V]; R];
    for (k, w_k) in panel.chunks_exact(pw).enumerate() {
        let a: [f32; R] = std::array::from_fn(|r| x[r * k_len + k]);
        if a.iter().all(|&v| v == 0.0) {
            continue;
        }
        let w = &w_k[j..j + V * L];
        for (acc_r, &a_r) in acc.iter_mut().zip(&a) {
            for (acc_v, w_v) in acc_r.iter_mut().zip(w.chunks_exact(L)) {
                for l in 0..L {
                    acc_v[l] += a_r * w_v[l];
                }
            }
        }
    }
    acc
}

/// Writes a strip's `R` accumulator rows into `out` (rows `width`
/// long) at column `at`.
fn store_strip<const R: usize, const V: usize, const L: usize>(
    acc: &[[[f32; L]; V]; R],
    out: &mut [f32],
    width: usize,
    at: usize,
) {
    for (acc_r, out_r) in acc.iter().zip(out.chunks_mut(width)) {
        out_r[at..at + V * L].copy_from_slice(acc_r.as_flattened());
    }
}

/// True when `v` is exactly an IEEE binary16 value.
fn is_exact_fp16(v: f32) -> bool {
    Fp16::from_f32_saturating(v).to_f32().to_bits() == v.to_bits()
}

/// Bits one packed chunk of `len` elements occupies under `alg`.
fn chunk_bits(alg: &FormatAlgebra, len: usize) -> usize {
    let scale_bits = match alg.scale {
        ScaleKind::SharedExponent { bits } | ScaleKind::SharedBias { bits } => bits as usize,
        ScaleKind::TwoLevel {
            bits,
            sub_block,
            sub_scale_bits,
        } => bits as usize + len.div_ceil(sub_block) * sub_scale_bits as usize,
    };
    scale_bits + len * alg.payload_bits_per_element() as usize
}

/// Verifies `values` against `scheme`'s block layout over the flat
/// buffer and counts its bits: every chunk (the ragged tail included)
/// must encode and decode back to its input bit-for-bit, and then the
/// total is `Σ chunk_bits`. `None` if any chunk fails — the one
/// verify-and-count routine behind [`PackedMatrix::pack`] and
/// [`PackedRows::push_row`].
fn block_bits(values: &[f32], scheme: BlockScheme) -> Option<usize> {
    let alg = scheme.algebra_form();
    if !alg.packable() {
        return None;
    }
    let mut bits = 0;
    for chunk in values.chunks(alg.block_size) {
        if chunk.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let encoded = encode_chunk(chunk, &alg);
        for (i, v) in chunk.iter().enumerate() {
            if encoded.decode_value(i, &alg).to_bits() != v.to_bits() {
                return None;
            }
        }
        bits += chunk_bits(&alg, chunk.len());
    }
    Some(bits)
}

/// The block layout rows of `width` columns take under `scheme`: the
/// scheme's, when it has one and `width` is a whole number of blocks.
fn rows_block(scheme: SchemeSpec, width: usize) -> Option<BlockScheme> {
    BlockScheme::from_scheme(scheme).filter(|bs| width > 0 && width.is_multiple_of(bs.block_size()))
}

/// Bits `rows` rows of `width` columns occupy: whole blocks of `block`,
/// or dense f32 when there is no block layout.
fn rows_bits(block: Option<BlockScheme>, width: usize, rows: usize) -> usize {
    match block {
        Some(bs) => {
            let n = bs.block_size();
            rows * (width / n) * chunk_bits(&bs.algebra_form(), n)
        }
        None => rows * width * 32,
    }
}

/// A row-append packed buffer: the storage format of KV-cache pages and
/// other append-only row stores.
///
/// Where [`PackedMatrix`] packs a complete matrix once (weights, known
/// at prepare time), `PackedRows` grows one row at a time — the shape
/// of a KV cache, which appends one key/value row per token per layer.
/// Each appended row is stored as f32 and verified against the scheme's
/// block layout ([`PackedRows::push_row`]), with the same check as
/// [`PackedMatrix::pack`]: a row the encoder cannot reproduce
/// bit-for-bit demotes the *whole buffer* to the dense f32 charge. Reads
/// are the pushed rows themselves, for every scheme and every input.
///
/// The attention kernels ([`attn_dot_packed`],
/// [`attn_weighted_sum_packed`]) are the dense QK^T and AV loops over
/// head-column slices of the stored rows.
///
/// ```
/// use bbal_core::packed::{LayoutKind, PackedRows};
/// use bbal_core::{bbfp_quantize_slice, BbfpConfig, RoundingMode, SchemeSpec};
///
/// let cfg = BbfpConfig::new(4, 2)?;
/// let raw: Vec<f32> = (0..64).map(|i| ((i * 5 % 17) as f32 - 8.0) * 0.1).collect();
/// let mut q = vec![0.0; 64];
/// bbfp_quantize_slice(&raw, cfg, RoundingMode::NearestEven, &mut q);
///
/// let mut rows = PackedRows::new(SchemeSpec::Bbfp(4, 2), 32);
/// rows.push_row(&q[..32]);
/// rows.push_row(&q[32..]);
/// assert_eq!(rows.layout_kind(), LayoutKind::Block);
/// assert_eq!(rows.to_dense(), q); // exact round trip
/// assert!(rows.packed_bytes() * 2 <= 64 * 4); // ≤ 0.5× the f32 bytes
/// # Ok::<(), bbal_core::FormatError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PackedRows {
    width: usize,
    rows: usize,
    /// The block layout every row so far verified against; `None` for
    /// dense f32 (no block layout, or demoted).
    block: Option<BlockScheme>,
    /// The pushed rows, row-major.
    values: Vec<f32>,
}

impl Default for PackedRows {
    /// An empty dense buffer of zero width (reconfigure with
    /// [`PackedRows::reset`] before use).
    fn default() -> PackedRows {
        PackedRows::new(SchemeSpec::Fp32, 0)
    }
}

impl PackedRows {
    /// An empty buffer whose rows are `width` columns wide, charged in
    /// `scheme`'s block layout when the scheme has one and `width` is a
    /// whole number of blocks, else as dense f32.
    pub fn new(scheme: SchemeSpec, width: usize) -> PackedRows {
        PackedRows {
            width,
            rows: 0,
            block: rows_block(scheme, width),
            values: Vec::new(),
        }
    }

    /// Row width in columns.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows pushed.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True before any row has been pushed.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Which layout the buffer is currently charged in
    /// ([`LayoutKind::Fp16`] never occurs here).
    pub fn layout_kind(&self) -> LayoutKind {
        match self.block {
            Some(_) => LayoutKind::Block,
            None => LayoutKind::Dense,
        }
    }

    /// Exact size of the current contents in bits (`rows·width·32`
    /// after a dense demotion — the honesty metric).
    pub fn packed_bits(&self) -> usize {
        rows_bits(self.block, self.width, self.rows)
    }

    /// [`PackedRows::packed_bits`] rounded up to whole bytes.
    pub fn packed_bytes(&self) -> usize {
        self.packed_bits().div_ceil(8)
    }

    /// Drops every row, keeping the scheme/width configuration.
    pub fn clear(&mut self) {
        self.rows = 0;
        self.values.clear();
    }

    /// Drops every row *and* reconfigures the buffer for a (possibly
    /// different) scheme and width — how a recycled page buffer is
    /// prepared for its next owner.
    pub fn reset(&mut self, scheme: SchemeSpec, width: usize) {
        *self = PackedRows::new(scheme, width);
    }

    /// Appends one row, verifying it against the block layout.
    ///
    /// A row that is not exactly representable in the scheme (it did not
    /// come from this scheme's quantiser, or contains non-finite values)
    /// demotes the whole buffer to the dense charge; the stored rows are
    /// unchanged, so the buffer's contents always equal the pushed rows
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.width()`.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.width, "row width mismatch");
        if let Some(bs) = self.block {
            if block_bits(row, bs).is_none() {
                self.block = None;
            }
        }
        self.values.extend_from_slice(row);
        self.rows += 1;
    }

    /// All rows as a flat dense f32 buffer — bit-identical to the rows
    /// that were pushed.
    pub fn to_dense(&self) -> Vec<f32> {
        self.values.clone()
    }
}

/// `q · K[j, c0..c0+q.len()]` over a packed row buffer: the QK^T inner
/// product of one attention head against one cached key row, in
/// ascending-column order.
///
/// # Panics
///
/// Panics if `j` or the column span is out of range.
pub fn attn_dot_packed(q: &[f32], rows: &PackedRows, j: usize, c0: usize) -> f32 {
    let dh = q.len();
    assert!(
        j < rows.rows && c0 + dh <= rows.width,
        "attention span out of range"
    );
    let flat0 = j * rows.width + c0;
    let mut acc = 0.0f32;
    for (a, k) in q.iter().zip(&rows.values[flat0..flat0 + dh]) {
        acc += a * k;
    }
    acc
}

/// `out[d] += probs[j] · V[j, c0+d]` for every row `j` in ascending
/// order: the AV accumulation of one attention head over a packed row
/// buffer.
///
/// # Panics
///
/// Panics if `probs` or the column span is out of range.
pub fn attn_weighted_sum_packed(probs: &[f32], rows: &PackedRows, c0: usize, out: &mut [f32]) {
    let dh = out.len();
    assert!(
        probs.len() <= rows.rows && c0 + dh <= rows.width,
        "attention span out of range"
    );
    for (j, &p) in probs.iter().enumerate() {
        let flat0 = j * rows.width + c0;
        for (o, &v) in out.iter_mut().zip(&rows.values[flat0..flat0 + dh]) {
            *o += p * v;
        }
    }
}

/// Exact storage capacity, in bytes, of `rows` packed rows of `width`
/// columns under `scheme` — dense f32 bytes when the scheme has no
/// block layout or `width` is not a whole number of blocks. This is the
/// single source of truth KV arenas and serving schedulers size page
/// byte budgets by: a full [`PackedRows`] buffer of quantised rows is
/// charged exactly this many bytes.
pub fn packed_rows_capacity_bytes(scheme: SchemeSpec, width: usize, rows: usize) -> usize {
    rows_bits(rows_block(scheme, width), width, rows).div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbfp::bbfp_quantize_slice;
    use crate::bfp::bfp_quantize_slice;

    fn quantised(scheme: SchemeSpec, n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) as f32
        };
        let raw: Vec<f32> = (0..n).map(|_| next() * 4.0).collect();
        let mut out = vec![0.0; n];
        match scheme {
            SchemeSpec::Bfp(m) => bfp_quantize_slice(
                &raw,
                BfpConfig::new(m).unwrap(),
                RoundingMode::NearestEven,
                &mut out,
            ),
            SchemeSpec::Bbfp(m, o) => bbfp_quantize_slice(
                &raw,
                BbfpConfig::new(m, o).unwrap(),
                RoundingMode::NearestEven,
                &mut out,
            ),
            SchemeSpec::Mx(..) | SchemeSpec::Msfp(..) | SchemeSpec::BlockMf(..) => {
                let alg = scheme.algebra().unwrap().unwrap();
                crate::algebra::algebra_quantize_slice(
                    &raw,
                    &alg,
                    RoundingMode::NearestEven,
                    &mut out,
                );
            }
            SchemeSpec::Fp16 => {
                for (o, &v) in out.iter_mut().zip(&raw) {
                    *o = Fp16::from_f32_saturating(v).to_f32();
                }
            }
            _ => out.copy_from_slice(&raw),
        }
        out
    }

    /// The new-family lineup every packed test sweeps alongside the
    /// classic schemes.
    const NEW_FAMILIES: [SchemeSpec; 3] = [
        SchemeSpec::Mx(8, 4, 2),
        SchemeSpec::Msfp(4, 16),
        SchemeSpec::BlockMf(4, 3, 8),
    ];

    /// The scalar reference: `Tensor::matmul`'s i-k-j loop.
    fn reference_gemm(x: &[f32], x_rows: usize, w: &[f32], k_len: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; x_rows * n];
        for i in 0..x_rows {
            for k in 0..k_len {
                let a = x[i * k_len + k];
                if a == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += a * w[k * n + j];
                }
            }
        }
        out
    }

    #[test]
    fn block_round_trip_full_and_ragged() {
        for scheme in [SchemeSpec::Bfp(4), SchemeSpec::Bbfp(4, 2)] {
            let bs = BlockScheme::from_scheme(scheme).unwrap();
            for len in [32usize, 7, 1] {
                let q = quantised(scheme, len, 3 + len as u64);
                let block = PackedBlock::encode(&q, bs).unwrap();
                assert_eq!(block.decode(), q, "{scheme} len {len}");
                assert_eq!(block.packed_bits(), 5 + len * bs.element_bits());
            }
        }
    }

    #[test]
    fn new_family_blocks_round_trip_with_exact_bit_budgets() {
        for scheme in NEW_FAMILIES {
            let bs = BlockScheme::from_scheme(scheme).unwrap();
            let alg = bs.algebra_form();
            for len in [bs.block_size(), 7, 1] {
                let q = quantised(scheme, len, 3 + len as u64);
                let block = PackedBlock::encode(&q, bs).unwrap();
                assert_eq!(block.decode(), q, "{scheme} len {len}");
                let sub_bits = match alg.scale {
                    ScaleKind::TwoLevel {
                        sub_block,
                        sub_scale_bits,
                        ..
                    } => len.div_ceil(sub_block) * sub_scale_bits as usize,
                    _ => 0,
                };
                let scale_bits = match alg.scale {
                    ScaleKind::SharedExponent { bits }
                    | ScaleKind::SharedBias { bits }
                    | ScaleKind::TwoLevel { bits, .. } => bits as usize,
                };
                assert_eq!(
                    block.packed_bits(),
                    scale_bits + sub_bits + len * bs.element_bits(),
                    "{scheme} len {len}"
                );
            }
        }
    }

    #[test]
    fn new_family_block_dot_is_bit_identical() {
        for scheme in NEW_FAMILIES {
            let bs = BlockScheme::from_scheme(scheme).unwrap();
            let n = bs.block_size();
            let q = quantised(scheme, n, 11);
            let acts = quantised(SchemeSpec::Fp16, n, 17);
            let block = PackedBlock::encode(&q, bs).unwrap();
            let mut acc = 0.0f32;
            for (a, w) in acts.iter().zip(&q) {
                acc += a * w;
            }
            assert_eq!(block.block_dot(&acts).to_bits(), acc.to_bits(), "{scheme}");
        }
    }

    #[test]
    fn encode_rejects_unquantised_input() {
        let bs = BlockScheme::from_scheme(SchemeSpec::Bfp(4)).unwrap();
        let raw: Vec<f32> = (0..32).map(|i| (i as f32 * 0.37).sin()).collect();
        assert!(matches!(
            PackedBlock::encode(&raw, bs),
            Err(FormatError::NotRepresentable(_))
        ));
    }

    #[test]
    fn block_dot_is_bit_identical() {
        for scheme in [
            SchemeSpec::Bfp(6),
            SchemeSpec::Bbfp(4, 2),
            SchemeSpec::Bbfp(6, 3),
        ] {
            let bs = BlockScheme::from_scheme(scheme).unwrap();
            let q = quantised(scheme, 32, 11);
            let acts = quantised(SchemeSpec::Fp16, 32, 17);
            let block = PackedBlock::encode(&q, bs).unwrap();
            let mut acc = 0.0f32;
            for (a, w) in acts.iter().zip(&q) {
                acc += a * w;
            }
            assert_eq!(block.block_dot(&acts).to_bits(), acc.to_bits(), "{scheme}");
        }
    }

    #[test]
    fn matrix_layouts_by_scheme() {
        let q = quantised(SchemeSpec::Bbfp(4, 2), 64, 5);
        assert_eq!(
            PackedMatrix::pack(&q, 2, 32, SchemeSpec::Bbfp(4, 2)).layout_kind(),
            LayoutKind::Block
        );
        let h = quantised(SchemeSpec::Fp16, 64, 5);
        assert_eq!(
            PackedMatrix::pack(&h, 2, 32, SchemeSpec::Fp16).layout_kind(),
            LayoutKind::Fp16
        );
        let raw = quantised(SchemeSpec::Fp32, 64, 5);
        assert_eq!(
            PackedMatrix::pack(&raw, 2, 32, SchemeSpec::Oltron).layout_kind(),
            LayoutKind::Dense
        );
        // Unquantised input under a block scheme: verified fallback.
        assert_eq!(
            PackedMatrix::pack(&raw, 2, 32, SchemeSpec::Bfp(4)).layout_kind(),
            LayoutKind::Dense
        );
        // Each new family packs its own quantiser output natively …
        for scheme in NEW_FAMILIES {
            let q = quantised(scheme, 64, 5);
            assert_eq!(
                PackedMatrix::pack(&q, 2, 32, scheme).layout_kind(),
                LayoutKind::Block,
                "{scheme}"
            );
            // … and falls back to Dense on foreign input.
            assert_eq!(
                PackedMatrix::pack(&raw, 2, 32, scheme).layout_kind(),
                LayoutKind::Dense,
                "{scheme}"
            );
        }
    }

    #[test]
    fn packed_density_beats_dense() {
        let q = quantised(SchemeSpec::Bbfp(4, 2), 32 * 32, 7);
        let p = PackedMatrix::pack(&q, 32, 32, SchemeSpec::Bbfp(4, 2));
        // 6 payload bits per element + 5/32 shared: ~5x denser than f32.
        assert!(p.packed_bits() * 5 < 32 * 32 * 32);
        assert_eq!(p.decode(), q);
    }

    #[test]
    fn gemm_matches_reference_aligned_and_ragged() {
        for scheme in [
            SchemeSpec::Bbfp(4, 2),
            SchemeSpec::Bfp(6),
            SchemeSpec::Fp16,
            SchemeSpec::Mx(8, 4, 2),
            SchemeSpec::Msfp(4, 16),
            SchemeSpec::BlockMf(4, 3, 8),
        ] {
            for (k_len, n) in [(8usize, 64usize), (5, 33), (3, 7)] {
                let q = quantised(scheme, k_len * n, 13);
                let p = PackedMatrix::pack(&q, k_len, n, scheme);
                let mut x = quantised(SchemeSpec::Fp16, 2 * k_len, 29);
                x[1] = 0.0; // exercise the zero-skip
                let mut out = vec![f32::NAN; 2 * n];
                p.gemm(&x, 2, &mut out);
                let reference = reference_gemm(&x, 2, &q, k_len, n);
                let same = out
                    .iter()
                    .zip(&reference)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{scheme} {k_len}x{n}");
            }
        }
    }

    #[test]
    fn gemm_cols_partition_reproduces_full_gemm() {
        let scheme = SchemeSpec::Bbfp(4, 2);
        let (k_len, n) = (6usize, 96usize);
        let q = quantised(scheme, k_len * n, 41);
        let p = PackedMatrix::pack(&q, k_len, n, scheme);
        let x = quantised(SchemeSpec::Fp16, k_len, 43);
        let mut full = vec![0.0; n];
        p.gemm(&x, 1, &mut full);
        for ranges in [vec![(0, 32), (32, 96)], vec![(0, 1), (1, 50), (50, 96)]] {
            let mut split = vec![f32::NAN; n];
            for (c0, c1) in ranges {
                let mut strip = vec![f32::NAN; c1 - c0];
                p.gemm_cols(&x, 1, c0, c1, &mut strip);
                split[c0..c1].copy_from_slice(&strip);
            }
            let same = split
                .iter()
                .zip(&full)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same);
        }
    }

    #[test]
    fn packed_rows_round_trip_and_capacity() {
        let schemes = [
            SchemeSpec::Bfp(4),
            SchemeSpec::Bfp(6),
            SchemeSpec::Bbfp(4, 2),
            SchemeSpec::Bbfp(6, 3),
            SchemeSpec::Mx(8, 4, 2),
            SchemeSpec::Msfp(4, 16),
            SchemeSpec::BlockMf(4, 3, 8),
        ];
        for scheme in schemes {
            let bs = BlockScheme::from_scheme(scheme).unwrap();
            let width = bs.block_size() * 2;
            let mut rows = PackedRows::new(scheme, width);
            assert_eq!(rows.layout_kind(), LayoutKind::Block, "{scheme}");
            let mut all = Vec::new();
            for r in 0..5 {
                let q = quantised(scheme, width, 100 + r);
                rows.push_row(&q);
                all.extend_from_slice(&q);
            }
            assert_eq!(rows.rows(), 5);
            assert_eq!(rows.layout_kind(), LayoutKind::Block, "{scheme}");
            let dense = rows.to_dense();
            let same = dense
                .iter()
                .zip(&all)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{scheme} round trip");
            assert_eq!(dense[3 * width + 1].to_bits(), all[3 * width + 1].to_bits());
            // A full buffer of quantised rows occupies exactly its
            // capacity, and a block scheme stores ≤ 0.5× the f32 bytes.
            assert_eq!(
                rows.packed_bytes(),
                packed_rows_capacity_bytes(scheme, width, 5),
                "{scheme} capacity"
            );
            assert!(
                packed_rows_capacity_bytes(scheme, width, 5) * 2 <= 5 * width * 4,
                "{scheme} ≤ 0.5× f32 bytes"
            );
        }
    }

    #[test]
    fn packed_rows_capacity_matches_actual_bits() {
        // The counted bits must equal what the codec actually writes:
        // `Σ PackedBlock::encode(chunk).packed_bits()` over the flat
        // buffer's chunks, ragged tails (and MX's ragged sub-block)
        // included.
        for scheme in [
            SchemeSpec::Bfp(4),
            SchemeSpec::Bbfp(4, 2),
            SchemeSpec::Bbfp(6, 3),
            SchemeSpec::Mx(8, 4, 2),
            SchemeSpec::Msfp(4, 16),
            SchemeSpec::BlockMf(4, 3, 8),
        ] {
            let bs = BlockScheme::from_scheme(scheme).unwrap();
            let codec_bits = |values: &[f32]| -> usize {
                values
                    .chunks(bs.block_size())
                    .map(|c| PackedBlock::encode(c, bs).unwrap().packed_bits())
                    .sum()
            };
            for (r, c) in [(1usize, 1usize), (3, 7), (5, 33), (7, 45)] {
                let q = quantised(scheme, r * c, 7 + c as u64);
                let p = PackedMatrix::pack(&q, r, c, scheme);
                assert_eq!(p.layout_kind(), LayoutKind::Block, "{scheme} {r}x{c}");
                assert_eq!(p.packed_bits(), codec_bits(&q), "{scheme} {r}x{c}");
            }
            let width = bs.block_size();
            let mut rows = PackedRows::new(scheme, width);
            let mut all = Vec::new();
            for r in 0..3 {
                let q = quantised(scheme, width, 7 + r);
                rows.push_row(&q);
                all.extend_from_slice(&q);
            }
            assert_eq!(rows.packed_bits(), codec_bits(&all), "{scheme}");
            assert_eq!(
                rows.packed_bits().div_ceil(8),
                packed_rows_capacity_bytes(scheme, width, 3),
                "{scheme}"
            );
        }
    }

    #[test]
    fn packed_rows_demotes_exactly_on_unquantised_rows() {
        let scheme = SchemeSpec::Bfp(4);
        let mut rows = PackedRows::new(scheme, 32);
        let q = quantised(scheme, 32, 3);
        rows.push_row(&q);
        let raw: Vec<f32> = (0..32).map(|i| (i as f32 * 0.37).sin()).collect();
        rows.push_row(&raw);
        assert_eq!(rows.layout_kind(), LayoutKind::Dense);
        let dense = rows.to_dense();
        let expect: Vec<f32> = q.iter().chain(&raw).copied().collect();
        let same = dense
            .iter()
            .zip(&expect)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "demotion must keep prior rows exactly");
        assert_eq!(rows.packed_bits(), 2 * 32 * 32);
    }

    #[test]
    fn packed_rows_non_block_and_ragged_widths_stay_dense() {
        assert_eq!(
            PackedRows::new(SchemeSpec::Fp32, 8).layout_kind(),
            LayoutKind::Dense
        );
        assert_eq!(
            PackedRows::new(SchemeSpec::Oltron, 32).layout_kind(),
            LayoutKind::Dense
        );
        // Width not a whole number of blocks: dense.
        assert_eq!(
            PackedRows::new(SchemeSpec::Bfp(4), 33).layout_kind(),
            LayoutKind::Dense
        );
        assert_eq!(packed_rows_capacity_bytes(SchemeSpec::Fp32, 8, 2), 64);
        assert_eq!(packed_rows_capacity_bytes(SchemeSpec::Bfp(4), 33, 2), 264);
    }

    #[test]
    fn packed_rows_reset_recycles_across_schemes() {
        let mut rows = PackedRows::new(SchemeSpec::Bfp(4), 32);
        rows.push_row(&quantised(SchemeSpec::Bfp(4), 32, 9));
        rows.reset(SchemeSpec::Msfp(4, 16), 16);
        assert!(rows.is_empty());
        assert_eq!(rows.width(), 16);
        assert_eq!(rows.layout_kind(), LayoutKind::Block);
        rows.push_row(&quantised(SchemeSpec::Msfp(4, 16), 16, 9));
        assert_eq!(rows.rows(), 1);
        rows.clear();
        assert!(rows.is_empty());
        assert_eq!(rows.packed_bits(), 0);
    }

    #[test]
    fn attn_kernels_match_dense_reference_aligned_and_ragged() {
        // Head spans that start inside a block (head_dim 16 against
        // block-32 schemes) and spans of whole blocks.
        for scheme in [
            SchemeSpec::Bfp(4),
            SchemeSpec::Bbfp(4, 2),
            SchemeSpec::Bbfp(6, 3),
            SchemeSpec::Mx(8, 4, 2),
            SchemeSpec::Msfp(4, 16),
            SchemeSpec::BlockMf(4, 3, 8),
            SchemeSpec::Fp32,
            SchemeSpec::Oltron,
        ] {
            let width = 64usize;
            let n_rows = 7usize;
            let mut rows = PackedRows::new(scheme, width);
            let mut dense = Vec::new();
            for r in 0..n_rows {
                let q = quantised(scheme, width, 50 + r as u64);
                rows.push_row(&q);
                dense.extend_from_slice(&q);
            }
            let probs = quantised(SchemeSpec::Fp16, n_rows, 77);
            for (c0, dh) in [(0usize, 16usize), (16, 16), (48, 16), (0, 32), (32, 32)] {
                let q_vec = quantised(SchemeSpec::Fp16, dh, 81);
                for j in 0..n_rows {
                    let mut reference = 0.0f32;
                    for (d, qv) in q_vec.iter().enumerate() {
                        reference += qv * dense[j * width + c0 + d];
                    }
                    let got = attn_dot_packed(&q_vec, &rows, j, c0);
                    assert_eq!(
                        got.to_bits(),
                        reference.to_bits(),
                        "{scheme} dot c0={c0} dh={dh} j={j}"
                    );
                }
                let mut out = vec![0.0f32; dh];
                let mut reference = vec![0.0f32; dh];
                for (j, &p) in probs.iter().enumerate() {
                    for (d, rv) in reference.iter_mut().enumerate() {
                        *rv += p * dense[j * width + c0 + d];
                    }
                }
                attn_weighted_sum_packed(&probs, &rows, c0, &mut out);
                let same = out
                    .iter()
                    .zip(&reference)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{scheme} weighted sum c0={c0} dh={dh}");
            }
        }
    }

    /// A non-finite weight makes `0·w` NaN, so the reference's zero-skip
    /// must hold per row even inside a multi-row GEMM.
    #[test]
    fn non_finite_weights_keep_the_exact_zero_skip() {
        let (k_len, n) = (3usize, 40usize);
        let mut w = quantised(SchemeSpec::Fp32, k_len * n, 61);
        w[n + 3] = f32::INFINITY;
        w[2 * n + 35] = f32::NAN;
        let p = PackedMatrix::pack(&w, k_len, n, SchemeSpec::Fp32);
        // Rows 0, 2 and 4 skip the non-finite weights' `k`; rows 1 and 3
        // do not.
        let x = [
            0.5, 0.0, 0.0, //
            0.5, 1.0, -2.0, //
            0.0, -0.0, 0.0, //
            1.0, 0.25, 0.0, //
            -1.0, 0.0, 0.0,
        ];
        let mut out = vec![0.0f32; 5 * n];
        p.gemm(&x, 5, &mut out);
        let reference = reference_gemm(&x, 5, &w, k_len, n);
        let same = out
            .iter()
            .zip(&reference)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same);
        assert!(out[3].is_finite() && out[n + 3].is_infinite());
    }

    /// Activations, queries and probabilities small enough that folding
    /// a block scale into them first would underflow: every kernel must
    /// still match its dense loop bit for bit.
    #[test]
    fn subnormal_inputs_stay_bit_identical_in_every_kernel() {
        let scheme = SchemeSpec::Bbfp(4, 2);
        let q = quantised(scheme, 64, 21);
        let p = PackedMatrix::pack(&q, 2, 32, scheme);
        assert_eq!(p.layout_kind(), LayoutKind::Block);
        let same = |a: &[f32], b: &[f32]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        for x in [[1e-40f32, 0.0], [3e-39, -2e-41]] {
            let mut out = vec![f32::NAN; 32];
            p.gemm(&x, 1, &mut out);
            assert!(same(&out, &reference_gemm(&x, 1, &q, 2, 32)), "gemm {x:?}");
        }
        let mut rows = PackedRows::new(scheme, 32);
        rows.push_row(&q[..32]);
        rows.push_row(&q[32..]);
        for tiny in [1e-40f32, 3e-39] {
            let xt: Vec<f32> = (0..32).map(|d| tiny * (d as f32 - 15.5)).collect();
            let mut out = [f32::NAN; 2];
            p.gemm_transposed(&xt, 1, &mut out);
            for r in 0..2 {
                let mut acc = 0.0f32;
                for (d, xv) in xt.iter().enumerate() {
                    acc += xv * q[r * 32 + d];
                }
                assert_eq!(out[r].to_bits(), acc.to_bits(), "transposed {tiny} row {r}");
                let got = attn_dot_packed(&xt, &rows, r, 0);
                assert_eq!(got.to_bits(), acc.to_bits(), "QK {tiny} row {r}");
            }
            let probs = [tiny, 0.5 * tiny];
            let mut reference = vec![0.0f32; 32];
            for (j, &pr) in probs.iter().enumerate() {
                for (d, rv) in reference.iter_mut().enumerate() {
                    *rv += pr * q[j * 32 + d];
                }
            }
            let mut out = vec![0.0f32; 32];
            attn_weighted_sum_packed(&probs, &rows, 0, &mut out);
            assert!(same(&out, &reference), "AV {tiny}");
        }
    }

    #[test]
    fn gemm_transposed_matches_reference() {
        for scheme in [
            SchemeSpec::Bbfp(6, 3),
            SchemeSpec::Oltron,
            SchemeSpec::Mx(8, 4, 2),
            SchemeSpec::Msfp(4, 16),
            SchemeSpec::BlockMf(4, 3, 8),
        ] {
            let (w_rows, n) = (5usize, 40usize);
            let q = quantised(scheme, w_rows * n, 19);
            let p = PackedMatrix::pack(&q, w_rows, n, scheme);
            let x = quantised(SchemeSpec::Fp16, 3 * n, 23);
            let mut out = vec![0.0; 3 * w_rows];
            p.gemm_transposed(&x, 3, &mut out);
            for i in 0..3 {
                for r in 0..w_rows {
                    let mut acc = 0.0f32;
                    for j in 0..n {
                        acc += x[i * n + j] * q[r * n + j];
                    }
                    assert_eq!(out[i * w_rows + r].to_bits(), acc.to_bits(), "{scheme}");
                }
            }
        }
    }
}
