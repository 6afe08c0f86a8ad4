//! The composable block-format algebra.
//!
//! Every block format this crate knows — the paper's BBFP, vanilla BFP,
//! Microsoft MX-style two-level vectors, MSFP's wide-block shared
//! exponents, block minifloat's shared-bias element floats — is a point
//! in one small parameter space:
//!
//! ```text
//!   FormatAlgebra {
//!       block_size,                       // elements per shared scale
//!       scale: SharedExponent { bits }    // one max-exponent per block
//!            | SharedBias     { bits }    // one exponent *bias* per block
//!            | TwoLevel { bits,           // block exponent plus a tiny
//!                         sub_block,      //   micro-exponent per sub-block
//!                         sub_scale_bits },
//!       mantissa_bits,                    // magnitude bits per element
//!       overlap_bits,                     // BBFP's bidirectional window
//!       element: Fixed                    // sign-magnitude integer lanes
//!              | Minifloat { exp_bits },  // per-element tiny floats
//!   }
//! ```
//!
//! [`crate::scheme::SchemeSpec`] variants *lower* into this space
//! (`SchemeSpec::algebra`), the quantisers and the packed codec are
//! *generic* over it, and the accelerator layers derive MAC kinds, PE
//! areas, and KV footprints from [`FormatAlgebra::cost`] instead of
//! per-scheme match arms. New families therefore flow from a parsed id
//! string all the way to the serving fleet without touching any layer
//! in between.
//!
//! ## Supported points
//!
//! The codec (encode/decode/pack) supports exactly three families of
//! points, which cover every named scheme:
//!
//! 1. `SharedExponent × Fixed` with any `overlap_bits < m` — BFP
//!    (`o = 0`), BBFP (`o > 0`), and MSFP (`o = 0`, wide blocks, 8-bit
//!    exponent field).
//! 2. `TwoLevel × Fixed` with `o = 0` and a 1-bit sub-scale — MX: the
//!    block stores `max-exponent` and each sub-block a 1-bit offset
//!    below it, so small sub-blocks keep one extra bit of alignment.
//! 3. `SharedBias × Minifloat` with `o = 0` — block minifloat: each
//!    element is a tiny `e`-bit-exponent float and the block stores a
//!    shared exponent *bias* picked so the block maximum lands on the
//!    top exponent code.
//!
//! Scalar FP16 and INTx also lower (block size 1, zero shared bits) so
//! that storage-cost accounting is uniform, but they use their own
//! storage layouts rather than the block codec.
//!
//! ## Bit-identity
//!
//! All three families share the property the packed GEMM kernels rely
//! on: every scale is a power of two, so a block factors into an exact
//! integer-valued (or exactly-representable) f32 *lane* times one
//! power-of-two scale per block, and `fl(a·(lane·2^s)) =
//! fl((a·2^s)·lane)`. The packed encoder stores the codes of a single
//! internal `encode_chunk` routine. [`algebra_quantize_slice`] decodes
//! those same codes for MX and block minifloat, and for the
//! shared-exponent fixed-point points runs the branch-free block kernel,
//! which tests pin bit-identical to decoding `encode_chunk`. Packing a
//! quantised matrix is therefore the identity and the self-verify
//! fallback never fires on honest input.

use crate::bbfp::encode_element;
use crate::bfp::{exp2i, max_exponent};
use crate::bitpack::{BitReader, BitWriter};
use crate::error::FormatError;
use crate::format::{BbfpConfig, FormatCost, DEFAULT_BLOCK_SIZE, SHARED_EXPONENT_BITS};
use crate::fp16::{Fp16, SIGNIFICAND_BITS};
use crate::policy::ExponentPolicy;
use crate::quantize::{quantize_shared_exponent, SharedExponentFixed};
use crate::rounding::RoundingMode;

/// How a block's shared scale is stored and applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScaleKind {
    /// One biased maximum exponent per block (BFP/BBFP/MSFP). `bits`
    /// is the stored field width; 5 holds any FP16 exponent, MSFP
    /// ships 8.
    SharedExponent {
        /// Stored width of the exponent field.
        bits: u8,
    },
    /// One signed exponent *bias* per block, added to every element's
    /// own exponent code (block minifloat).
    SharedBias {
        /// Stored width of the bias field (two's-complement).
        bits: u8,
    },
    /// A block exponent plus a small per-sub-block offset below it
    /// (MX-style two-level scaling).
    TwoLevel {
        /// Stored width of the block-level exponent field.
        bits: u8,
        /// Elements per sub-block (must divide the block size).
        sub_block: usize,
        /// Stored width of each sub-block's offset code (currently 1).
        sub_scale_bits: u8,
    },
}

/// What one element's payload encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementKind {
    /// A sign-magnitude integer aligned against the shared scale.
    Fixed,
    /// A tiny float: sign, `exp_bits` of exponent, `m` of mantissa,
    /// interpreted against the shared bias.
    Minifloat {
        /// Per-element exponent width.
        exp_bits: u8,
    },
}

/// A point in the block-format design space. See the module docs for
/// the supported combinations.
///
/// ```
/// use bbal_core::FormatAlgebra;
///
/// // MX(8,4,2): 32-wide blocks, 8-bit shared exponent, 1-bit
/// // micro-exponent per 2-element sub-block, 4-bit mantissas.
/// let mx = FormatAlgebra::mx(8, 4, 2)?;
/// assert!((mx.cost().equivalent_bit_width - 5.75).abs() < 1e-9);
/// # Ok::<(), bbal_core::FormatError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FormatAlgebra {
    /// Elements sharing one scale.
    pub block_size: usize,
    /// How the shared scale is stored and applied.
    pub scale: ScaleKind,
    /// Mantissa magnitude bits per element.
    pub mantissa_bits: u8,
    /// BBFP overlap bits (`0` for every other family).
    pub overlap_bits: u8,
    /// Per-element payload interpretation.
    pub element: ElementKind,
}

/// Largest block size the algebra accepts (MSFP row tiles top out well
/// below this).
const MAX_ALGEBRA_BLOCK: usize = 4096;

impl FormatAlgebra {
    /// The vanilla BFP point: `m`-bit mantissas, 5-bit shared exponent,
    /// 32-wide blocks.
    ///
    /// # Errors
    ///
    /// [`FormatError::MantissaWidth`] unless `1 <= m <= 10`.
    pub fn bfp(mantissa_bits: u8) -> Result<FormatAlgebra, FormatError> {
        FormatAlgebra {
            block_size: DEFAULT_BLOCK_SIZE,
            scale: ScaleKind::SharedExponent {
                bits: SHARED_EXPONENT_BITS as u8,
            },
            mantissa_bits,
            overlap_bits: 0,
            element: ElementKind::Fixed,
        }
        .validated()
    }

    /// The paper's BBFP point: as [`FormatAlgebra::bfp`] plus `o`
    /// overlap bits (and the 1-bit high/low flag they imply).
    ///
    /// # Errors
    ///
    /// [`FormatError::MantissaWidth`] / [`FormatError::OverlapWidth`]
    /// on invalid widths.
    pub fn bbfp(mantissa_bits: u8, overlap_bits: u8) -> Result<FormatAlgebra, FormatError> {
        FormatAlgebra {
            block_size: DEFAULT_BLOCK_SIZE,
            scale: ScaleKind::SharedExponent {
                bits: SHARED_EXPONENT_BITS as u8,
            },
            mantissa_bits,
            overlap_bits,
            element: ElementKind::Fixed,
        }
        .validated()
    }

    /// The MX point `mx:<e>,<m>,<sub>`: 32-wide blocks, an `e`-bit
    /// block exponent, a 1-bit micro-exponent per `sub`-element
    /// sub-block, `m`-bit fixed mantissas.
    ///
    /// # Errors
    ///
    /// [`FormatError::ScaleWidth`] unless `5 <= e <= 8`,
    /// [`FormatError::MantissaWidth`] unless `1 <= m <= 10`, and
    /// [`FormatError::SubBlock`] unless `sub` is a power of two in
    /// `1..=16`.
    pub fn mx(
        exp_bits: u8,
        mantissa_bits: u8,
        sub_block: usize,
    ) -> Result<FormatAlgebra, FormatError> {
        FormatAlgebra {
            block_size: DEFAULT_BLOCK_SIZE,
            scale: ScaleKind::TwoLevel {
                bits: exp_bits,
                sub_block,
                sub_scale_bits: 1,
            },
            mantissa_bits,
            overlap_bits: 0,
            element: ElementKind::Fixed,
        }
        .validated()
    }

    /// The MSFP point `msfp:<m>,<block>`: an 8-bit shared exponent over
    /// a `block`-wide tile of `m`-bit fixed mantissas.
    ///
    /// # Errors
    ///
    /// [`FormatError::MantissaWidth`] unless `1 <= m <= 10` and
    /// [`FormatError::BlockSize`] unless `block` is a power of two in
    /// `4..=128`.
    pub fn msfp(mantissa_bits: u8, block_size: usize) -> Result<FormatAlgebra, FormatError> {
        if !(4..=128).contains(&block_size) || !block_size.is_power_of_two() {
            return Err(FormatError::BlockSize(block_size));
        }
        FormatAlgebra {
            block_size,
            scale: ScaleKind::SharedExponent { bits: 8 },
            mantissa_bits,
            overlap_bits: 0,
            element: ElementKind::Fixed,
        }
        .validated()
    }

    /// The block-minifloat point `blockmf:<e>,<m>,<bias>`: 32-wide
    /// blocks of per-element floats (`e` exponent bits, `m` mantissa
    /// bits) sharing one `bias`-bit exponent bias.
    ///
    /// # Errors
    ///
    /// [`FormatError::ExponentWidth`] unless `2 <= e <= 6`,
    /// [`FormatError::MantissaWidth`] unless `1 <= m <= 10`, and
    /// [`FormatError::BiasWidth`] unless `2 <= bias <= 8`.
    pub fn blockmf(
        exp_bits: u8,
        mantissa_bits: u8,
        bias_bits: u8,
    ) -> Result<FormatAlgebra, FormatError> {
        FormatAlgebra {
            block_size: DEFAULT_BLOCK_SIZE,
            scale: ScaleKind::SharedBias { bits: bias_bits },
            mantissa_bits,
            overlap_bits: 0,
            element: ElementKind::Minifloat { exp_bits },
        }
        .validated()
    }

    /// Scalar FP16 as a degenerate point (block size 1, constant bias):
    /// used for uniform cost accounting, not the block codec.
    pub fn scalar_fp16() -> FormatAlgebra {
        FormatAlgebra {
            block_size: 1,
            scale: ScaleKind::SharedBias { bits: 0 },
            mantissa_bits: 10,
            overlap_bits: 0,
            element: ElementKind::Minifloat { exp_bits: 5 },
        }
    }

    /// A scalar fixed-point format of `bits` total width as a
    /// degenerate point (block size 1, no shared field): cost
    /// accounting only.
    ///
    /// # Errors
    ///
    /// [`FormatError::MantissaWidth`] unless `2 <= bits <= 16`.
    pub fn scalar_int(bits: u8) -> Result<FormatAlgebra, FormatError> {
        if !(2..=16).contains(&bits) {
            return Err(FormatError::MantissaWidth(bits));
        }
        FormatAlgebra {
            block_size: 1,
            scale: ScaleKind::SharedExponent { bits: 0 },
            mantissa_bits: bits - 1,
            overlap_bits: 0,
            element: ElementKind::Fixed,
        }
        .validated()
    }

    fn validated(self) -> Result<FormatAlgebra, FormatError> {
        self.validate()?;
        Ok(self)
    }

    /// Checks that this point is one the codec and cost model support.
    ///
    /// # Errors
    ///
    /// A [`FormatError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), FormatError> {
        let scalar = self.block_size == 1;
        if self.block_size == 0
            || !self.block_size.is_power_of_two()
            || self.block_size > MAX_ALGEBRA_BLOCK
        {
            return Err(FormatError::BlockSize(self.block_size));
        }
        // Scalar degenerate points (block 1, zero shared bits) may use
        // wide fixed mantissas (INT16 = 1 + 15); block formats are
        // bounded by FP16's 11-bit significand.
        let max_m = if scalar { 15 } else { 10 };
        if self.mantissa_bits == 0 || self.mantissa_bits > max_m {
            return Err(FormatError::MantissaWidth(self.mantissa_bits));
        }
        if self.overlap_bits > 0 {
            if self.overlap_bits >= self.mantissa_bits {
                return Err(FormatError::OverlapWidth {
                    mantissa_bits: self.mantissa_bits,
                    overlap_bits: self.overlap_bits,
                });
            }
            if !matches!(
                (self.scale, self.element),
                (ScaleKind::SharedExponent { .. }, ElementKind::Fixed)
            ) {
                return Err(FormatError::UnsupportedCombination(
                    "overlap bits require a shared-exponent fixed-point format",
                ));
            }
        }
        if let ElementKind::Minifloat { exp_bits } = self.element {
            if !((2..=6).contains(&exp_bits) || (scalar && exp_bits == 5)) {
                return Err(FormatError::ExponentWidth(exp_bits));
            }
            if !matches!(self.scale, ScaleKind::SharedBias { .. }) {
                return Err(FormatError::UnsupportedCombination(
                    "minifloat elements require a shared bias",
                ));
            }
        }
        match self.scale {
            ScaleKind::SharedExponent { bits } => {
                if !((5..=8).contains(&bits) || (scalar && bits == 0)) {
                    return Err(FormatError::ScaleWidth(bits));
                }
            }
            ScaleKind::SharedBias { bits } => {
                if !((2..=8).contains(&bits) || (scalar && bits == 0)) {
                    return Err(FormatError::BiasWidth(bits));
                }
                if !matches!(self.element, ElementKind::Minifloat { .. }) {
                    return Err(FormatError::UnsupportedCombination(
                        "a shared bias requires minifloat elements",
                    ));
                }
            }
            ScaleKind::TwoLevel {
                bits,
                sub_block,
                sub_scale_bits,
            } => {
                if !(5..=8).contains(&bits) {
                    return Err(FormatError::ScaleWidth(bits));
                }
                if sub_block == 0
                    || sub_block > 16
                    || !sub_block.is_power_of_two()
                    || sub_block >= self.block_size
                    || !self.block_size.is_multiple_of(sub_block)
                {
                    return Err(FormatError::SubBlock {
                        sub_block,
                        block_size: self.block_size,
                    });
                }
                if sub_scale_bits != 1 {
                    return Err(FormatError::UnsupportedCombination(
                        "two-level sub-scales are currently 1 bit wide",
                    ));
                }
                if !matches!(self.element, ElementKind::Fixed) {
                    return Err(FormatError::UnsupportedCombination(
                        "two-level scaling requires fixed-point elements",
                    ));
                }
            }
        }
        Ok(())
    }

    /// Payload bits stored per element: sign + mantissa, plus the BBFP
    /// flag when overlapping, plus the minifloat exponent field.
    pub fn payload_bits_per_element(&self) -> u32 {
        let flag = u32::from(self.overlap_bits > 0);
        let exp = match self.element {
            ElementKind::Fixed => 0,
            ElementKind::Minifloat { exp_bits } => exp_bits as u32,
        };
        1 + self.mantissa_bits as u32 + flag + exp
    }

    /// Shared bits stored per block: the scale field, plus every
    /// sub-block's offset code for two-level scaling.
    pub fn shared_bits_per_block(&self) -> u32 {
        match self.scale {
            ScaleKind::SharedExponent { bits } | ScaleKind::SharedBias { bits } => bits as u32,
            ScaleKind::TwoLevel {
                bits,
                sub_block,
                sub_scale_bits,
            } => bits as u32 + (self.block_size / sub_block) as u32 * sub_scale_bits as u32,
        }
    }

    /// Storage cost in Table I units (equivalent bit-width, memory
    /// efficiency vs FP16).
    pub fn cost(&self) -> FormatCost {
        FormatCost::new(
            self.block_size,
            self.payload_bits_per_element(),
            self.shared_bits_per_block(),
        )
    }

    /// Whether the packed block codec covers this point (scalar
    /// degenerate points store themselves, they are not block-packed).
    pub fn packable(&self) -> bool {
        self.block_size > 1
    }

    /// A human-readable family name, e.g. `MX(8,4,2)` — the inverse of
    /// the lowering from [`crate::scheme::SchemeSpec`], used by
    /// hardware-model tables.
    pub fn display_name(&self) -> String {
        let m = self.mantissa_bits;
        match (self.scale, self.element) {
            (
                ScaleKind::TwoLevel {
                    bits, sub_block, ..
                },
                _,
            ) => {
                format!("MX({bits},{m},{sub_block})")
            }
            (ScaleKind::SharedBias { bits }, ElementKind::Minifloat { exp_bits }) => {
                if self.block_size == 1 {
                    "FP16".to_owned()
                } else {
                    format!("BlockMF({exp_bits},{m},{bits})")
                }
            }
            (ScaleKind::SharedExponent { .. }, _) if self.block_size == 1 => {
                format!("INT{}", m + 1)
            }
            (ScaleKind::SharedExponent { .. }, _) if self.overlap_bits > 0 => {
                format!("BBFP({m},{})", self.overlap_bits)
            }
            (ScaleKind::SharedExponent { bits }, _) => {
                if bits == 8 || self.block_size != DEFAULT_BLOCK_SIZE {
                    format!("MSFP({m},{})", self.block_size)
                } else {
                    format!("BFP{m}")
                }
            }
            (ScaleKind::SharedBias { .. }, ElementKind::Fixed) => {
                // validate() rejects this combination; name it anyway.
                format!("SharedBias({m})")
            }
        }
    }
}

// ---------------------------------------------------------------------
// The generic chunk codec
// ---------------------------------------------------------------------

/// One encoded element of an algebra chunk. `exp` is the minifloat
/// exponent code (0 for fixed-point elements), `flag` the BBFP
/// high-window flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AlgElement {
    pub(crate) sign: bool,
    pub(crate) flag: bool,
    pub(crate) exp: u8,
    pub(crate) mantissa: u16,
}

/// One encoded chunk (a full block or a ragged tail): the shared scale
/// code, the two-level sub-block offsets (empty otherwise), and the
/// element payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AlgChunk {
    /// `SharedExponent`/`TwoLevel`: the biased block exponent.
    /// `SharedBias`: the signed bias `w` (stored excess-`2^(bits−1)`).
    pub(crate) scale_code: i32,
    /// One offset code per sub-block (two-level scaling only).
    pub(crate) sub: Vec<u8>,
    pub(crate) elements: Vec<AlgElement>,
}

impl AlgChunk {
    /// The power-of-two exponent of the chunk's single kernel-facing
    /// scale: every element's value is `lane × 2^scale_exponent`.
    pub(crate) fn scale_exponent(&self, alg: &FormatAlgebra) -> i32 {
        let m = alg.mantissa_bits as i32;
        match alg.scale {
            ScaleKind::SharedExponent { .. } | ScaleKind::TwoLevel { .. } => {
                self.scale_code - 14 - m
            }
            ScaleKind::SharedBias { .. } => -self.scale_code - 14 - m,
        }
    }

    /// The element's lane value: an exactly-representable f32 such that
    /// `value = lane × 2^scale_exponent`. Signed zeros survive.
    pub(crate) fn lane_value(&self, idx: usize, alg: &FormatAlgebra) -> f32 {
        let e = &self.elements[idx];
        let mag = match alg.element {
            ElementKind::Fixed => {
                let flag_scale = if e.flag {
                    exp2i((alg.mantissa_bits - alg.overlap_bits) as i32)
                } else {
                    1.0
                };
                let micro = match alg.scale {
                    ScaleKind::TwoLevel { sub_block, .. } => {
                        exp2i(-(self.sub[idx / sub_block] as i32))
                    }
                    _ => 1.0,
                };
                e.mantissa as f32 * flag_scale * micro
            }
            ElementKind::Minifloat { .. } => {
                if e.exp == 0 {
                    e.mantissa as f32
                } else {
                    (((1u32 << alg.mantissa_bits) + e.mantissa as u32) as f32)
                        * exp2i(e.exp as i32 - 1)
                }
            }
        };
        if e.sign {
            -mag
        } else {
            mag
        }
    }

    /// Decodes element `idx` back to its f32 value.
    pub(crate) fn decode_value(&self, idx: usize, alg: &FormatAlgebra) -> f32 {
        self.lane_value(idx, alg) * exp2i(self.scale_exponent(alg))
    }
}

/// The MSB position of a nonzero FP16 significand (0-based).
fn msb(sig: u16) -> i32 {
    15 - sig.leading_zeros() as i32
}

/// The maximum *normalised* biased exponent over nonzero elements
/// (`value = 1.x × 2^(E−15)`), or `None` if every element is zero.
/// Differs from [`max_exponent`] for FP16 subnormals, whose recorded
/// exponent is 1 but whose leading bit sits lower.
fn max_true_exponent(values: &[Fp16]) -> Option<i32> {
    values
        .iter()
        .filter_map(|v| {
            let (sig, exp) = v.significand();
            (sig != 0).then(|| exp + msb(sig) - 10)
        })
        .max()
}

/// Encodes one chunk of values (a full block or a ragged tail, each
/// with its own shared scale) at this algebra point. Shared verbatim by
/// [`algebra_quantize_slice`] and the packed encoder, so re-encoding a
/// quantised chunk is the identity.
pub(crate) fn encode_chunk(
    values: &[Fp16],
    alg: &FormatAlgebra,
    rounding: RoundingMode,
) -> AlgChunk {
    match alg.scale {
        ScaleKind::SharedExponent { .. } => encode_shared_exponent(values, alg, rounding),
        ScaleKind::TwoLevel { sub_block, .. } => encode_two_level(values, alg, sub_block, rounding),
        ScaleKind::SharedBias { bits } => encode_shared_bias(values, alg, bits, rounding),
    }
}

/// BFP/BBFP/MSFP: one max-exponent per chunk, fixed mantissas aligned
/// against it (BBFP adds the flag via the paper-default policy).
fn encode_shared_exponent(
    values: &[Fp16],
    alg: &FormatAlgebra,
    rounding: RoundingMode,
) -> AlgChunk {
    let m = alg.mantissa_bits as u32;
    if alg.overlap_bits > 0 {
        let cfg = BbfpConfig::with_block_size(alg.mantissa_bits, alg.overlap_bits, alg.block_size)
            .expect("validated widths");
        let policy = ExponentPolicy::paper_default(cfg);
        let shared = policy.shared_exponent(max_exponent(values));
        let elements = values
            .iter()
            .map(|&v| {
                let e = encode_element(v, cfg, shared, rounding);
                AlgElement {
                    sign: e.sign,
                    flag: e.flag,
                    exp: 0,
                    mantissa: e.mantissa,
                }
            })
            .collect();
        return AlgChunk {
            scale_code: shared,
            sub: Vec::new(),
            elements,
        };
    }
    let shared = max_exponent(values);
    let max_mantissa = (1u64 << m) - 1;
    let elements = values
        .iter()
        .map(|v| {
            let (sig, exp) = v.significand();
            let shift = (SIGNIFICAND_BITS - m) as i32 + (shared - exp);
            let q = rounding
                .shift_right(sig as u64, shift as u32)
                .min(max_mantissa);
            AlgElement {
                sign: v.is_sign_negative(),
                flag: false,
                exp: 0,
                mantissa: q as u16,
            }
        })
        .collect();
    AlgChunk {
        scale_code: shared,
        sub: Vec::new(),
        elements,
    }
}

/// MX: block exponent `E1 = max`, per-sub-block offset `d =
/// min(E1 − max_sub, 1)`, elements aligned against `E1 − d`. The d=1
/// case grants small sub-blocks one extra alignment bit.
fn encode_two_level(
    values: &[Fp16],
    alg: &FormatAlgebra,
    sub_block: usize,
    rounding: RoundingMode,
) -> AlgChunk {
    let m = alg.mantissa_bits as u32;
    let max_mantissa = (1u64 << m) - 1;
    let e1 = max_exponent(values);
    let mut sub = Vec::with_capacity(values.len().div_ceil(sub_block));
    let mut elements = Vec::with_capacity(values.len());
    for chunk in values.chunks(sub_block) {
        let d = (e1 - max_exponent(chunk)).clamp(0, 1) as u8;
        sub.push(d);
        let shared = e1 - d as i32;
        for v in chunk {
            let (sig, exp) = v.significand();
            let shift = (SIGNIFICAND_BITS - m) as i32 + (shared - exp);
            let q = rounding
                .shift_right(sig as u64, shift as u32)
                .min(max_mantissa);
            elements.push(AlgElement {
                sign: v.is_sign_negative(),
                flag: false,
                exp: 0,
                mantissa: q as u16,
            });
        }
    }
    AlgChunk {
        scale_code: e1,
        sub,
        elements,
    }
}

/// Block minifloat: pick the shared bias `w` so the block maximum lands
/// on the top exponent code, clamp it to the stored field *and* to the
/// widths FP16 can reproduce, then round every element to its own
/// `e`-bit-exponent float. Iterated to a fixpoint so re-encoding the
/// quantised output is the identity even when rounding bumps the block
/// maximum into the next binade.
fn encode_shared_bias(
    values: &[Fp16],
    alg: &FormatAlgebra,
    bias_bits: u8,
    rounding: RoundingMode,
) -> AlgChunk {
    let exp_bits = match alg.element {
        ElementKind::Minifloat { exp_bits } => exp_bits as i32,
        ElementKind::Fixed => unreachable!("validate() rejects SharedBias × Fixed"),
    };
    let m = alg.mantissa_bits as i32;
    let top = (1i32 << exp_bits) - 1;
    let w_min = -(1i32 << (bias_bits - 1));
    // Upper clamp: the stored field, and the finest step FP16 itself
    // can represent (2^(−w−14−m) >= 2^−24) so quantised values stay
    // exactly FP16-representable and the packed round trip is exact.
    let w_max = ((1i32 << (bias_bits - 1)) - 1).min(10 - m);
    let pick_w = |vals: &[Fp16]| -> i32 {
        max_true_exponent(vals).map_or(0, |e| (top - e).clamp(w_min, w_max))
    };
    let mut w = pick_w(values);
    let mut chunk;
    loop {
        chunk = AlgChunk {
            scale_code: w,
            sub: Vec::new(),
            elements: values
                .iter()
                .map(|&v| encode_minifloat(v, m, top, w, rounding))
                .collect(),
        };
        // Rounding can carry the block maximum into the next binade;
        // re-derive w from the quantised output until stable (the max
        // only moves up, and w only moves down, so this terminates).
        let decoded: Vec<Fp16> = (0..values.len())
            .map(|i| Fp16::from_f32_saturating(chunk.decode_value(i, alg)))
            .collect();
        let w_next = pick_w(&decoded);
        if w_next == w {
            break;
        }
        w = w_next;
    }
    chunk
}

/// Rounds one FP16 value to the minifloat grid `±(2^m + mant) ×
/// 2^(ee − w − 15 − m)` (normal, `ee >= 1`) / `±mant × 2^(1 − w − 15 −
/// m)` (subnormal, `ee = 0`), saturating at the top code.
fn encode_minifloat(v: Fp16, m: i32, top: i32, w: i32, rounding: RoundingMode) -> AlgElement {
    // When w is clamped at the stored-field (or FP16-step) maximum, the
    // grid's nominal top can exceed FP16's largest finite value; cap the
    // usable exponent code so every decoded magnitude stays <= 2^16 − ulp
    // (code `w + 30` decodes to the 2^15 binade, which FP16 still holds).
    let top = top.min(w + 30);
    let (sig, exp) = v.significand();
    let sign = v.is_sign_negative();
    if sig == 0 {
        return AlgElement {
            sign,
            flag: false,
            exp: 0,
            mantissa: 0,
        };
    }
    let p = msb(sig);
    let mut ee = (exp + p - 10) + w;
    if ee >= 1 {
        // Normal target: round the significand to m+1 bits.
        let mut q = if m >= p {
            (sig as u64) << (m - p)
        } else {
            rounding.shift_right(sig as u64, (p - m) as u32)
        };
        if q == 1u64 << (m + 1) {
            // Round-up carry into the next binade.
            ee += 1;
            q = 1u64 << m;
        }
        if ee > top {
            // Saturate (only reachable when w was clamped, or by the
            // carry above on the block maximum itself).
            return AlgElement {
                sign,
                flag: false,
                exp: top as u8,
                mantissa: ((1u32 << m) - 1) as u16,
            };
        }
        AlgElement {
            sign,
            flag: false,
            exp: ee as u8,
            mantissa: (q - (1u64 << m)) as u16,
        }
    } else {
        // Subnormal target: round in units of the smallest step.
        let t = exp + w + m - 11;
        let q = if t >= 0 {
            (sig as u64) << t
        } else {
            rounding.shift_right(sig as u64, (-t) as u32)
        };
        if q >= 1u64 << m {
            // Rounded up across the normal boundary (q == 2^m exactly).
            AlgElement {
                sign,
                flag: false,
                exp: 1,
                mantissa: (q - (1u64 << m)) as u16,
            }
        } else {
            AlgElement {
                sign,
                flag: false,
                exp: 0,
                mantissa: q as u16,
            }
        }
    }
}

/// Bit width of the stored scale field.
fn scale_field_bits(alg: &FormatAlgebra) -> u32 {
    match alg.scale {
        ScaleKind::SharedExponent { bits }
        | ScaleKind::SharedBias { bits }
        | ScaleKind::TwoLevel { bits, .. } => bits as u32,
    }
}

/// Writes one chunk into `w`: scale field, sub-block offsets, element
/// payloads (`sign [flag] [exp] mantissa`, in that order).
pub(crate) fn write_chunk(w: &mut BitWriter, chunk: &AlgChunk, alg: &FormatAlgebra) {
    let bits = scale_field_bits(alg);
    let stored = match alg.scale {
        ScaleKind::SharedBias { bits } => chunk.scale_code + (1i32 << (bits - 1)),
        _ => chunk.scale_code,
    };
    w.push(stored as u32, bits);
    if let ScaleKind::TwoLevel { sub_scale_bits, .. } = alg.scale {
        for &d in &chunk.sub {
            w.push(d as u32, sub_scale_bits as u32);
        }
    }
    let m = alg.mantissa_bits as u32;
    let has_flag = alg.overlap_bits > 0;
    let exp_bits = match alg.element {
        ElementKind::Fixed => 0u32,
        ElementKind::Minifloat { exp_bits } => exp_bits as u32,
    };
    for e in &chunk.elements {
        w.push(e.sign as u32, 1);
        if has_flag {
            w.push(e.flag as u32, 1);
        }
        if exp_bits > 0 {
            w.push(e.exp as u32, exp_bits);
        }
        w.push(e.mantissa as u32, m);
    }
}

/// Reads one chunk of `len` elements from `r` — the exact inverse of
/// [`write_chunk`].
pub(crate) fn read_chunk(r: &mut BitReader<'_>, len: usize, alg: &FormatAlgebra) -> AlgChunk {
    let bits = scale_field_bits(alg);
    let raw = r.read(bits).expect("packed buffer intact") as i32;
    let scale_code = match alg.scale {
        ScaleKind::SharedBias { bits } => raw - (1i32 << (bits - 1)),
        _ => raw,
    };
    let mut sub = Vec::new();
    if let ScaleKind::TwoLevel {
        sub_block,
        sub_scale_bits,
        ..
    } = alg.scale
    {
        for _ in 0..len.div_ceil(sub_block) {
            sub.push(r.read(sub_scale_bits as u32).expect("packed buffer intact") as u8);
        }
    }
    let m = alg.mantissa_bits as u32;
    let has_flag = alg.overlap_bits > 0;
    let exp_bits = match alg.element {
        ElementKind::Fixed => 0u32,
        ElementKind::Minifloat { exp_bits } => exp_bits as u32,
    };
    let mut elements = Vec::with_capacity(len);
    for _ in 0..len {
        let sign = r.read(1).expect("packed buffer intact") == 1;
        let flag = has_flag && r.read(1).expect("packed buffer intact") == 1;
        let exp = if exp_bits > 0 {
            r.read(exp_bits).expect("packed buffer intact") as u8
        } else {
            0
        };
        let mantissa = r.read(m).expect("packed buffer intact") as u16;
        elements.push(AlgElement {
            sign,
            flag,
            exp,
            mantissa,
        });
    }
    AlgChunk {
        scale_code,
        sub,
        elements,
    }
}

/// Quantise-dequantise an arbitrary-length slice through any packable
/// algebra point, block by block, writing the reconstruction into
/// `out`. The final partial block gets its own shared scale. Values
/// narrow to FP16 first: ±∞ and overflow saturate to ±65504, and a NaN
/// element stays NaN without taking part in any shared scale. Idempotent:
/// the packed encoder re-encodes this output bit-for-bit.
///
/// The shared-exponent fixed-point points (BFP, BBFP, MSFP) run the
/// branch-free block kernel; MX and block minifloat decode
/// `encode_chunk`'s codes.
///
/// ```
/// use bbal_core::{algebra_quantize_slice, FormatAlgebra, RoundingMode};
///
/// let alg = FormatAlgebra::mx(8, 4, 2)?;
/// let raw: Vec<f32> = (0..32).map(|i| (i as f32 - 16.0) * 0.1).collect();
/// let mut q = vec![0.0; 32];
/// algebra_quantize_slice(&raw, &alg, RoundingMode::NearestEven, &mut q);
/// let mut again = vec![0.0; 32];
/// algebra_quantize_slice(&q, &alg, RoundingMode::NearestEven, &mut again);
/// assert_eq!(q, again);
/// # Ok::<(), bbal_core::FormatError>(())
/// ```
///
/// # Panics
///
/// Panics if `out.len() != values.len()` or the point is not packable.
pub fn algebra_quantize_slice(
    values: &[f32],
    alg: &FormatAlgebra,
    rounding: RoundingMode,
    out: &mut [f32],
) {
    assert_eq!(out.len(), values.len(), "output length mismatch");
    assert!(alg.packable(), "scalar points have no block quantiser");
    if let (ScaleKind::SharedExponent { .. }, ElementKind::Fixed) = (alg.scale, alg.element) {
        // BBFP takes the paper-default policy (offset m − o), as
        // `encode_shared_exponent` does; BFP and MSFP align to the max.
        let offset = if alg.overlap_bits > 0 {
            alg.mantissa_bits - alg.overlap_bits
        } else {
            0
        };
        let point = SharedExponentFixed {
            block_size: alg.block_size,
            mantissa_bits: alg.mantissa_bits,
            overlap_bits: alg.overlap_bits,
            offset,
        };
        quantize_shared_exponent(values, point, rounding, out);
        return;
    }
    let bs = alg.block_size;
    let mut fp16 = Vec::with_capacity(bs);
    for (chunk, out_chunk) in values.chunks(bs).zip(out.chunks_mut(bs)) {
        // A NaN element encodes as zero, which no block or sub-block
        // maximum counts, and decodes back to itself.
        fp16.clear();
        fp16.extend(chunk.iter().map(|&v| {
            if v.is_nan() {
                Fp16::ZERO
            } else {
                Fp16::from_f32_saturating(v)
            }
        }));
        let encoded = encode_chunk(&fp16, alg, rounding);
        for (i, (o, &v)) in out_chunk.iter_mut().zip(chunk).enumerate() {
            *o = if v.is_nan() {
                v
            } else {
                encoded.decode_value(i, alg)
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbfp::bbfp_quantize_slice;
    use crate::bfp::bfp_quantize_slice;
    use crate::format::BfpConfig;

    fn wavy(n: usize, scale: f32) -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * scale * (1.0 + (i % 7) as f32))
            .collect()
    }

    #[test]
    fn named_points_validate_and_cost() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        // MX(8,4,2): 5 payload + (8 + 16·1)/32 shared.
        assert!(close(
            FormatAlgebra::mx(8, 4, 2)
                .unwrap()
                .cost()
                .equivalent_bit_width,
            5.75
        ));
        // MSFP(4,16): 5 payload + 8/16 shared.
        assert!(close(
            FormatAlgebra::msfp(4, 16)
                .unwrap()
                .cost()
                .equivalent_bit_width,
            5.5
        ));
        // BlockMF(4,3,8): 1+4+3 payload + 8/32 shared.
        assert!(close(
            FormatAlgebra::blockmf(4, 3, 8)
                .unwrap()
                .cost()
                .equivalent_bit_width,
            8.25
        ));
    }

    #[test]
    fn lowered_points_reproduce_legacy_costs() {
        for m in 1..=10u8 {
            assert_eq!(
                FormatAlgebra::bfp(m).unwrap().cost().equivalent_bit_width,
                BfpConfig::new(m).unwrap().cost().equivalent_bit_width,
                "bfp{m}"
            );
            for o in 0..m {
                if o == 0 {
                    continue;
                }
                assert_eq!(
                    FormatAlgebra::bbfp(m, o)
                        .unwrap()
                        .cost()
                        .equivalent_bit_width,
                    BbfpConfig::new(m, o).unwrap().cost().equivalent_bit_width,
                    "bbfp({m},{o})"
                );
            }
        }
        assert_eq!(
            FormatAlgebra::scalar_fp16().cost().equivalent_bit_width,
            16.0
        );
        assert_eq!(
            FormatAlgebra::scalar_int(8)
                .unwrap()
                .cost()
                .equivalent_bit_width,
            8.0
        );
    }

    #[test]
    fn invalid_points_are_typed_errors() {
        assert!(matches!(
            FormatAlgebra::mx(9, 4, 2),
            Err(FormatError::ScaleWidth(9))
        ));
        assert!(matches!(
            FormatAlgebra::mx(8, 4, 3),
            Err(FormatError::SubBlock { sub_block: 3, .. })
        ));
        assert!(matches!(
            FormatAlgebra::msfp(0, 32),
            Err(FormatError::MantissaWidth(0))
        ));
        assert!(matches!(
            FormatAlgebra::msfp(4, 3),
            Err(FormatError::BlockSize(3))
        ));
        assert!(matches!(
            FormatAlgebra::blockmf(9, 9, 9),
            Err(FormatError::ExponentWidth(9))
        ));
        assert!(matches!(
            FormatAlgebra::blockmf(4, 3, 9),
            Err(FormatError::BiasWidth(9))
        ));
        assert!(matches!(
            FormatAlgebra::blockmf(4, 3, 1),
            Err(FormatError::BiasWidth(1))
        ));
    }

    #[test]
    fn shared_exponent_points_match_legacy_quantisers() {
        let raw = wavy(70, 0.013);
        // The algebra's BFP point == bfp_quantize_slice.
        for m in [2u8, 4, 6, 8] {
            let alg = FormatAlgebra::bfp(m).unwrap();
            let mut a = vec![0.0; raw.len()];
            algebra_quantize_slice(&raw, &alg, RoundingMode::NearestEven, &mut a);
            let mut b = vec![0.0; raw.len()];
            bfp_quantize_slice(
                &raw,
                BfpConfig::new(m).unwrap(),
                RoundingMode::NearestEven,
                &mut b,
            );
            assert_eq!(a, b, "bfp{m}");
        }
        // The algebra's BBFP point == bbfp_quantize_slice.
        for (m, o) in [(4u8, 2u8), (6, 3), (4, 3)] {
            let alg = FormatAlgebra::bbfp(m, o).unwrap();
            let mut a = vec![0.0; raw.len()];
            algebra_quantize_slice(&raw, &alg, RoundingMode::NearestEven, &mut a);
            let mut b = vec![0.0; raw.len()];
            bbfp_quantize_slice(
                &raw,
                BbfpConfig::new(m, o).unwrap(),
                RoundingMode::NearestEven,
                &mut b,
            );
            assert_eq!(a, b, "bbfp({m},{o})");
        }
        // MSFP == BFP at the same mantissa width and block size.
        let alg = FormatAlgebra::msfp(4, 16).unwrap();
        let mut a = vec![0.0; raw.len()];
        algebra_quantize_slice(&raw, &alg, RoundingMode::NearestEven, &mut a);
        let mut b = vec![0.0; raw.len()];
        bfp_quantize_slice(
            &raw,
            BfpConfig::with_block_size(4, 16).unwrap(),
            RoundingMode::NearestEven,
            &mut b,
        );
        assert_eq!(a, b, "msfp(4,16)");
    }

    #[test]
    fn shared_exponent_kernel_matches_chunk_codec() {
        // The slice kernel against the codec the packer stores: decode
        // `encode_chunk` block by block, every block size, ragged tails.
        let mut raw = wavy(203, 0.37);
        raw.extend([0.0, -0.0, 65504.0, -70000.0, 1.0e-7, 2.0f32.powi(-25)]);
        raw.extend((0..40).map(|i| Fp16::from_bits(i * 811).to_f32()));
        let mut points = Vec::new();
        for block in [2usize, 4, 8, 16, 32, 64] {
            for (m, o) in [(4u8, 0u8), (8, 0), (3, 1), (4, 2), (6, 5), (10, 5)] {
                points.push(FormatAlgebra {
                    block_size: block,
                    scale: ScaleKind::SharedExponent { bits: 5 },
                    mantissa_bits: m,
                    overlap_bits: o,
                    element: ElementKind::Fixed,
                });
            }
        }
        for m in [1u8, 4, 10] {
            for block in [4usize, 128] {
                points.push(FormatAlgebra::msfp(m, block).unwrap());
            }
        }
        let mut got = vec![0.0f32; raw.len()];
        for alg in &points {
            alg.validate().unwrap();
            for rounding in [RoundingMode::NearestEven, RoundingMode::Truncate] {
                algebra_quantize_slice(&raw, alg, rounding, &mut got);
                for (b, (chunk, out)) in raw
                    .chunks(alg.block_size)
                    .zip(got.chunks(alg.block_size))
                    .enumerate()
                {
                    let fp16: Vec<Fp16> = chunk
                        .iter()
                        .map(|&v| Fp16::from_f32_saturating(v))
                        .collect();
                    let codes = encode_chunk(&fp16, alg, rounding);
                    for (i, &q) in out.iter().enumerate() {
                        assert_eq!(
                            q.to_bits(),
                            codes.decode_value(i, alg).to_bits(),
                            "{} {rounding:?} block {b} index {i}",
                            alg.display_name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mx_refines_bfp_on_small_sub_blocks() {
        // A block whose second half is much smaller than its first:
        // the micro-exponent gives those elements one extra bit.
        let mut raw = vec![0.0f32; 32];
        for (i, r) in raw.iter_mut().enumerate() {
            *r = if i < 16 {
                1.0 + i as f32 * 0.06
            } else {
                0.011 + i as f32 * 0.0007
            };
        }
        let mx = FormatAlgebra::mx(8, 4, 16).unwrap();
        let bfp = FormatAlgebra::bfp(4).unwrap();
        let mut qm = vec![0.0; 32];
        algebra_quantize_slice(&raw, &mx, RoundingMode::NearestEven, &mut qm);
        let mut qb = vec![0.0; 32];
        algebra_quantize_slice(&raw, &bfp, RoundingMode::NearestEven, &mut qb);
        let mse = |q: &[f32]| {
            raw.iter()
                .zip(q)
                .map(|(a, b)| ((a - b) as f64).powi(2))
                .sum::<f64>()
        };
        assert!(mse(&qm) < mse(&qb), "mx {} vs bfp {}", mse(&qm), mse(&qb));
    }

    #[test]
    fn quantisers_are_idempotent() {
        let raws = [wavy(70, 0.013), wavy(64, 300.0), wavy(40, 1.7e-6)];
        let points = [
            FormatAlgebra::mx(8, 4, 2).unwrap(),
            FormatAlgebra::mx(5, 3, 4).unwrap(),
            FormatAlgebra::msfp(4, 16).unwrap(),
            FormatAlgebra::msfp(6, 64).unwrap(),
            FormatAlgebra::blockmf(4, 3, 8).unwrap(),
            FormatAlgebra::blockmf(2, 1, 8).unwrap(),
            FormatAlgebra::blockmf(5, 2, 4).unwrap(),
            FormatAlgebra::blockmf(6, 5, 8).unwrap(),
        ];
        for raw in &raws {
            for alg in &points {
                let mut once = vec![0.0; raw.len()];
                algebra_quantize_slice(raw, alg, RoundingMode::NearestEven, &mut once);
                let mut twice = vec![0.0; raw.len()];
                algebra_quantize_slice(&once, alg, RoundingMode::NearestEven, &mut twice);
                for (i, (a, b)) in once.iter().zip(&twice).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{} idx {i}: {a} vs {b}",
                        alg.display_name()
                    );
                }
            }
        }
    }

    #[test]
    fn quantised_values_stay_fp16_exact() {
        // The packed encoder narrows through FP16 first; the quantiser
        // must therefore only emit FP16-exact values.
        for alg in [
            FormatAlgebra::mx(8, 4, 2).unwrap(),
            FormatAlgebra::msfp(4, 16).unwrap(),
            FormatAlgebra::blockmf(4, 3, 8).unwrap(),
            FormatAlgebra::blockmf(6, 5, 8).unwrap(),
        ] {
            for scale in [1.0e-6f32, 0.013, 250.0] {
                let raw = wavy(64, scale);
                let mut q = vec![0.0; raw.len()];
                algebra_quantize_slice(&raw, &alg, RoundingMode::NearestEven, &mut q);
                for (i, v) in q.iter().enumerate() {
                    let back = Fp16::from_f32_saturating(*v).to_f32();
                    assert_eq!(
                        back.to_bits(),
                        v.to_bits(),
                        "{} idx {i}: {v} not fp16-exact",
                        alg.display_name()
                    );
                }
            }
        }
    }

    #[test]
    fn chunk_codec_round_trips_bits() {
        let points = [
            FormatAlgebra::mx(8, 4, 2).unwrap(),
            FormatAlgebra::msfp(4, 16).unwrap(),
            FormatAlgebra::blockmf(4, 3, 8).unwrap(),
            FormatAlgebra::bfp(6).unwrap(),
            FormatAlgebra::bbfp(4, 2).unwrap(),
        ];
        for alg in &points {
            for len in [alg.block_size, 5, 1] {
                let raw = wavy(len, 0.03);
                let fp16: Vec<Fp16> = raw.iter().map(|&v| Fp16::from_f32_saturating(v)).collect();
                let chunk = encode_chunk(&fp16, alg, RoundingMode::NearestEven);
                let mut w = BitWriter::new();
                write_chunk(&mut w, &chunk, alg);
                let bytes = w.into_bytes();
                let mut r = BitReader::new(&bytes);
                let back = read_chunk(&mut r, len, alg);
                assert_eq!(chunk, back, "{} len {len}", alg.display_name());
            }
        }
    }

    #[test]
    fn signed_zeros_survive() {
        let raw = [0.0f32, -0.0, 1.5, -0.0, 0.0, -2.5, 0.0, -0.0];
        for alg in [
            FormatAlgebra::mx(8, 4, 2).unwrap(),
            FormatAlgebra::msfp(4, 16).unwrap(),
            FormatAlgebra::blockmf(4, 3, 8).unwrap(),
        ] {
            let mut q = vec![0.0; raw.len()];
            algebra_quantize_slice(&raw, &alg, RoundingMode::NearestEven, &mut q);
            for (i, (a, b)) in raw.iter().zip(&q).enumerate() {
                if *a == 0.0 {
                    assert_eq!(a.to_bits(), b.to_bits(), "idx {i} zero sign lost");
                }
            }
        }
    }

    #[test]
    fn display_names_are_reversible_labels() {
        assert_eq!(
            FormatAlgebra::mx(8, 4, 2).unwrap().display_name(),
            "MX(8,4,2)"
        );
        assert_eq!(
            FormatAlgebra::msfp(4, 16).unwrap().display_name(),
            "MSFP(4,16)"
        );
        assert_eq!(
            FormatAlgebra::blockmf(4, 3, 8).unwrap().display_name(),
            "BlockMF(4,3,8)"
        );
        assert_eq!(FormatAlgebra::bfp(6).unwrap().display_name(), "BFP6");
        assert_eq!(
            FormatAlgebra::bbfp(4, 2).unwrap().display_name(),
            "BBFP(4,2)"
        );
        assert_eq!(FormatAlgebra::scalar_fp16().display_name(), "FP16");
        assert_eq!(FormatAlgebra::scalar_int(8).unwrap().display_name(), "INT8");
    }
}
