//! Criterion benchmarks for the packed KV attention kernels: dense f32
//! row storage (the pre-packing KV hot path) against
//! [`PackedRows`]-backed [`attn_dot_packed`] / [`attn_weighted_sum_packed`]
//! per scheme, at the context lengths the serving stack actually runs —
//! a decode step streaming a warm cache and a prefill chunk's worth of
//! score rows.
//!
//! Packed pages hold their rows as f32 and are only *charged* the
//! block layout's bits, so these groups measure what the 2–6× KV charge
//! saving costs in host compute: the `PackedRows` indirection per row
//! (the bit-identity itself is pinned by the `kv_packed` battery in
//! `bbal-serve`).

use bbal_core::{attn_dot_packed, attn_weighted_sum_packed, PackedRows, SchemeSpec};
use bbal_llm::KvStore;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

const HIDDEN: usize = 64;
const HEAD_DIM: usize = 16;

/// The storage lineup: the paper scheme, a second BBFP width, vanilla
/// BFP, one composable-algebra family member and the dense fallback.
const SCHEMES: &[(&str, SchemeSpec)] = &[
    ("bbfp_4_2", SchemeSpec::Bbfp(4, 2)),
    ("bbfp_6_3", SchemeSpec::Bbfp(6, 3)),
    ("bfp_4", SchemeSpec::Bfp(4)),
    ("mx_8_4_2", SchemeSpec::Mx(8, 4, 2)),
    ("fp32_dense", SchemeSpec::Fp32),
];

/// A KV cache's worth of quantised rows in both layouts: packed pages
/// and the equivalent dense row-major buffer.
fn kv_rows(scheme: SchemeSpec, ctx: usize) -> (PackedRows, Vec<f32>) {
    let store = KvStore {
        scheme,
        quantize: scheme != SchemeSpec::Fp32,
        packed: true,
    };
    let mut packed = PackedRows::new(store.storage_scheme(), HIDDEN);
    let mut dense = Vec::with_capacity(ctx * HIDDEN);
    for j in 0..ctx {
        let mut row: Vec<f32> = (0..HIDDEN)
            .map(|c| {
                let v = ((j * 31 + c * 7) % 97) as f32 - 48.0;
                v * 0.02
            })
            .collect();
        store.quantize_row(&mut row);
        packed.push_row(&row);
        dense.extend_from_slice(&row);
    }
    (packed, dense)
}

fn query() -> Vec<f32> {
    (0..HEAD_DIM)
        .map(|i| ((i * 13 % 29) as f32 - 14.0) * 0.05)
        .collect()
}

/// Decode-step scores: one query row dotted against every cached K row
/// of one head, at a short and a long context.
fn bench_decode_scores(c: &mut Criterion) {
    for ctx in [64usize, 512] {
        let mut group = c.benchmark_group(format!("packed_attention/scores_ctx{ctx}"));
        group.throughput(Throughput::Elements((ctx * HEAD_DIM) as u64));
        group.measurement_time(Duration::from_secs(3));
        let q = query();
        for &(label, scheme) in SCHEMES {
            let (packed, dense) = kv_rows(scheme, ctx);
            group.bench_with_input(BenchmarkId::new("dense_f32", label), &(), |b, ()| {
                b.iter(|| {
                    let mut acc = 0.0f32;
                    for j in 0..ctx {
                        let row = &dense[j * HIDDEN..j * HIDDEN + HEAD_DIM];
                        let mut s = 0.0f32;
                        for (a, b) in q.iter().zip(row) {
                            s += a * b;
                        }
                        acc += s;
                    }
                    acc
                });
            });
            group.bench_with_input(BenchmarkId::new("packed", label), &(), |b, ()| {
                b.iter(|| {
                    let mut acc = 0.0f32;
                    for j in 0..ctx {
                        acc += attn_dot_packed(&q, &packed, j, 0);
                    }
                    acc
                });
            });
        }
        group.finish();
    }
}

/// Decode-step context: probability-weighted sum over every cached V
/// row of one head.
fn bench_decode_weighted_sum(c: &mut Criterion) {
    for ctx in [64usize, 512] {
        let mut group = c.benchmark_group(format!("packed_attention/weighted_sum_ctx{ctx}"));
        group.throughput(Throughput::Elements((ctx * HEAD_DIM) as u64));
        group.measurement_time(Duration::from_secs(3));
        let probs: Vec<f32> = (0..ctx).map(|j| 1.0 / (j + 1) as f32).collect();
        for &(label, scheme) in SCHEMES {
            let (packed, dense) = kv_rows(scheme, ctx);
            group.bench_with_input(BenchmarkId::new("dense_f32", label), &(), |b, ()| {
                b.iter(|| {
                    let mut out = [0.0f32; HEAD_DIM];
                    for (j, &p) in probs.iter().enumerate() {
                        let row = &dense[j * HIDDEN..j * HIDDEN + HEAD_DIM];
                        for (o, v) in out.iter_mut().zip(row) {
                            *o += p * v;
                        }
                    }
                    out
                });
            });
            group.bench_with_input(BenchmarkId::new("packed", label), &(), |b, ()| {
                b.iter(|| {
                    let mut out = [0.0f32; HEAD_DIM];
                    attn_weighted_sum_packed(&probs, &packed, 0, &mut out);
                    out
                });
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_decode_scores, bench_decode_weighted_sum);
criterion_main!(benches);
