//! Outputs pinned for the default seed, so numerics drift between
//! commits shows even where every run agrees with itself.

use crate::workload::Workload;
use bbal_core::SchemeSpec;

/// The seed the pins hold for (`--seed 0`).
pub const SEED: u64 = 0;

/// FNV-1a digest of every served request's token stream, in trace
/// order (see `report::token_digest`).
pub fn serve_digest(workload: Workload) -> u64 {
    match workload {
        Workload::DecodeStream => 0xf0b7_8f67_04d5_5930,
        Workload::PrefixPressure => 0x9bd2_4ff3_6733_2eff,
        Workload::PplEval => unreachable!("ppl_eval pins PPL bits, not tokens"),
    }
}

/// Pinned PPL proxy bits for one `ppl_eval` row, and the two-decimal
/// value the `table2` binary prints for it.
pub fn ppl(model: &str, scheme: SchemeSpec) -> Option<(u64, &'static str)> {
    PPL.iter()
        .find(|(m, s, _, _)| *m == model && *s == scheme)
        .map(|&(_, _, bits, table2)| (bits, table2))
}

/// `(model, scheme, PPL bits, table2 value)` for the default seed,
/// whose eval set is the `table2` binary's (2 sequences of 24 tokens,
/// seed 1234).
#[rustfmt::skip]
const PPL: &[(&str, SchemeSpec, u64, &str)] = &[
    ("Llama-7B", SchemeSpec::Fp16, 0x4015_e16e_ee20_9414, "5.47"),
    ("Llama-7B", SchemeSpec::Oltron, 0x4021_ba0f_bfdf_3d3f, "8.86"),
    ("Llama-7B", SchemeSpec::Olive, 0x4022_0eee_bc73_e068, "9.03"),
    ("Llama-7B", SchemeSpec::OmniQuant, 0x4021_eb5d_fac3_d30c, "8.96"),
    ("Llama-7B", SchemeSpec::Bfp(6), 0x4019_46fd_e6b1_e48c, "6.32"),
    ("Llama-7B", SchemeSpec::Bfp(4), 0x4021_6d85_f39b_e707, "8.71"),
    ("Llama-7B", SchemeSpec::Bbfp(3, 1), 0x4021_2ffb_7f61_7330, "8.59"),
    ("Llama-7B", SchemeSpec::Bbfp(4, 2), 0x401b_7ce9_6241_8727, "6.87"),
    ("Llama-7B", SchemeSpec::Bbfp(4, 3), 0x401f_5eac_c4b2_eb23, "7.84"),
    ("Llama-7B", SchemeSpec::Bbfp(6, 3), 0x4017_844c_42c2_6069, "5.88"),
    ("Llama-7B", SchemeSpec::Bbfp(6, 4), 0x4017_ff20_192a_a261, "6.00"),
    ("OPT-6.7B", SchemeSpec::Fp16, 0x4025_b885_3a58_f5f3, "10.86"),
    ("OPT-6.7B", SchemeSpec::Oltron, 0x402c_dd30_039c_aeb2, "14.43"),
    ("OPT-6.7B", SchemeSpec::Olive, 0x402f_ddfe_31d2_77a5, "15.93"),
    ("OPT-6.7B", SchemeSpec::OmniQuant, 0x402e_33a9_380d_6126, "15.10"),
    ("OPT-6.7B", SchemeSpec::Bfp(6), 0x4027_3864_afdb_3569, "11.61"),
    ("OPT-6.7B", SchemeSpec::Bfp(4), 0x402b_f695_ed36_b1bc, "13.98"),
    ("OPT-6.7B", SchemeSpec::Bbfp(3, 1), 0x402b_2ffd_8e27_a3e3, "13.59"),
    ("OPT-6.7B", SchemeSpec::Bbfp(4, 2), 0x4028_d0b0_1e70_bb34, "12.41"),
    ("OPT-6.7B", SchemeSpec::Bbfp(4, 3), 0x4028_82bc_1e53_e9f4, "12.26"),
    ("OPT-6.7B", SchemeSpec::Bbfp(6, 3), 0x4026_d0b9_01b5_fd33, "11.41"),
    ("OPT-6.7B", SchemeSpec::Bbfp(6, 4), 0x4026_44eb_46db_7fa9, "11.13"),
];
