//! Per-layer probes that time one crate's public functions directly:
//! `core` kernels and quantisers at the workload's shapes, `quant` PTQ,
//! and `llm` forward passes. Used by the traced run only.

use crate::trace::Tracer;
use bbal_core::{
    algebra_quantize_slice, attn_dot_packed, attn_weighted_sum_packed, bbfp_quantize_slice,
    bfp_quantize_slice, PackedMatrix, PackedRows, RoundingMode, SchemeSpec,
};
use bbal_llm::rng::Stream;
use bbal_llm::{KvStore, TransformerModel};
use bbal_quant::hooks_for;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum wall time each kernel probe repeats its call for.
const PROBE_TIME: Duration = Duration::from_millis(40);

/// Repeats `f` for at least [`PROBE_TIME`] (and 3 calls) inside one
/// span; returns nanoseconds per call.
fn repeat(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    let span = tracer.begin(name, None);
    let start = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || start.elapsed() < PROBE_TIME {
        f();
        calls += 1;
    }
    let ns = start.elapsed().as_nanos() as f64 / f64::from(calls);
    tracer.end(span);
    ns
}

fn activations(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Stream::new(seed);
    (0..n)
        .map(|i| {
            let v = rng.gaussian() as f32;
            // A sparse outlier channel, as the zoo's activations have.
            if i % 97 == 0 {
                v * 12.0
            } else {
                v
            }
        })
        .collect()
}

/// Timings of the packed GEMM kernel at one row count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemmProbe {
    pub ns_per_mac: f64,
    /// Computed, not measured: packed weight bytes plus f32 activation
    /// and output bytes per call, averaged over the probed shapes.
    pub bytes_per_call: f64,
}

/// Times `PackedMatrix::gemm` over the first decoder layer's Q, FFN-up
/// and FFN-down weights, prepared (PTQ + pack) for `scheme`.
pub fn gemm(
    tracer: &mut Tracer,
    prepared: &TransformerModel,
    scheme: SchemeSpec,
    x_rows: usize,
) -> GemmProbe {
    let layer = &prepared.layers()[0];
    let mut total_ns = 0.0;
    let mut macs = 0.0;
    let mut bytes = 0.0;
    let shapes = [&layer.wq, &layer.w_up, &layer.w_down];
    for w in shapes {
        let packed = PackedMatrix::pack(w.data(), w.rows(), w.cols(), scheme);
        let x = activations(x_rows * w.rows(), 11);
        let mut out = vec![0.0f32; x_rows * w.cols()];
        let name = if x_rows == 1 {
            "core.gemv"
        } else {
            "core.gemm"
        };
        total_ns += repeat(tracer, name, || {
            packed.gemm(black_box(&x), x_rows, &mut out);
            black_box(&out);
        });
        macs += (x_rows * w.rows() * w.cols()) as f64;
        bytes += packed.packed_bits() as f64 / 8.0 + 4.0 * (x.len() + out.len()) as f64;
    }
    GemmProbe {
        ns_per_mac: total_ns / macs,
        bytes_per_call: bytes / shapes.len() as f64,
    }
}

/// Times `attn_dot_packed` + `attn_weighted_sum_packed` over every head
/// of a `ctx`-row packed KV buffer; nanoseconds per K or V element read.
pub fn attention(
    tracer: &mut Tracer,
    scheme: SchemeSpec,
    hidden: usize,
    heads: usize,
    ctx: usize,
) -> f64 {
    let store = KvStore {
        scheme,
        quantize: true,
        packed: true,
    };
    let mut rows = PackedRows::new(scheme, hidden);
    let raw = activations(ctx * hidden, 13);
    for row in raw.chunks(hidden) {
        let mut row = row.to_vec();
        store.quantize_row(&mut row);
        rows.push_row(&row);
    }
    let dh = hidden / heads;
    let q = activations(hidden, 17);
    let mut scores = vec![0.0f32; ctx];
    let mut out = vec![0.0f32; hidden];
    let ns = repeat(tracer, "core.attn_packed", || {
        for h in 0..heads {
            let c0 = h * dh;
            for (j, s) in scores.iter_mut().enumerate() {
                *s = attn_dot_packed(black_box(&q[c0..c0 + dh]), &rows, j, c0);
            }
            let total: f32 = scores.iter().map(|s| s.abs()).sum::<f32>().max(1.0);
            for s in &mut scores {
                *s /= total;
            }
            attn_weighted_sum_packed(&scores, &rows, c0, &mut out[c0..c0 + dh]);
        }
        black_box(&out);
    });
    ns / (2 * ctx * hidden) as f64
}

/// Times the `*_quantize_slice` function of every block scheme in
/// `schemes` over a `hidden × 32` activation buffer; nanoseconds per
/// element over all of them (0 when none has a block quantiser).
pub fn quantize(tracer: &mut Tracer, schemes: &[SchemeSpec], hidden: usize) -> f64 {
    let values = activations(hidden * 32, 19);
    let mut out = vec![0.0f32; values.len()];
    let rounding = RoundingMode::NearestEven;
    let mut ns = 0.0;
    let mut elems = 0.0;
    for &scheme in schemes {
        let per_call = if let Ok(Some(cfg)) = scheme.bbfp_config() {
            repeat(tracer, "core.quantize_slice", || {
                bbfp_quantize_slice(black_box(&values), cfg, rounding, &mut out);
            })
        } else if let Ok(Some(cfg)) = scheme.bfp_config() {
            repeat(tracer, "core.quantize_slice", || {
                bfp_quantize_slice(black_box(&values), cfg, rounding, &mut out);
            })
        } else if let Ok(Some(alg)) = scheme.algebra() {
            if !alg.packable() {
                continue;
            }
            repeat(tracer, "core.quantize_slice", || {
                algebra_quantize_slice(black_box(&values), &alg, rounding, &mut out);
            })
        } else {
            continue;
        };
        ns += per_call;
        elems += values.len() as f64;
    }
    if elems == 0.0 {
        0.0
    } else {
        ns / elems
    }
}

/// Runs `with_transformed_weights` under `hooks_for(scheme)` once per
/// scheme, each inside a `quant.ptq` span.
pub fn ptq(
    tracer: &mut Tracer,
    model: &TransformerModel,
    schemes: &[SchemeSpec],
) -> Result<(), String> {
    for &scheme in schemes {
        let hooks = hooks_for(scheme).map_err(|e| e.to_string())?;
        let out = tracer.time("quant.ptq", None, || {
            model.with_transformed_weights(&hooks.as_ref())
        });
        drop(black_box(out));
    }
    Ok(())
}

/// Runs `TransformerModel::forward` over `sequences`, each inside an
/// `llm.forward` span.
pub fn forward(
    tracer: &mut Tracer,
    model: &TransformerModel,
    scheme: SchemeSpec,
    sequences: &[Vec<usize>],
) -> Result<(), String> {
    let hooks = hooks_for(scheme).map_err(|e| e.to_string())?;
    for (i, seq) in sequences.iter().enumerate() {
        let logits = tracer.time("llm.forward", Some(i), || {
            model.forward(seq, &hooks.as_ref())
        });
        black_box(logits);
    }
    Ok(())
}
