//! The repo benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <decode_stream|prefix_pressure|ppl_eval> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one seeded workload against the public API of the `bbal-*`
//! crates, checks its outputs, and prints one JSON line last on
//! standard output: `correct`, `attempted`, `failed` and the metrics —
//! the end-to-end ones with `--trace 0`, the per-layer ones with
//! `--trace 1`. Tables and failed checks go to standard error; a traced
//! run also writes its spans to `perfbench/out/`. See `NOTES.md`.

mod accuracy;
mod micro;
mod pins;
mod report;
mod serving;
mod trace;
mod workload;

use report::Outcome;
use std::fmt::Write as _;
use std::process::ExitCode;
use trace::Tracer;
use workload::{Scale, Workload};

/// End-to-end metrics, in output order, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_tokens_per_s", "1/s"),
    ("cpu_tokens_per_s", "1/s"),
    ("host_peak_rss_mb", "MiB"),
    ("sim_tokens_per_s", "1/s"),
    ("sim_ttft_p50_ms", "sim_ms"),
    ("sim_ttft_p90_ms", "sim_ms"),
    ("sim_tpot_p50_ms", "sim_ms"),
    ("sim_tpot_p90_ms", "sim_ms"),
    ("sim_slo_attainment", "share"),
    ("sim_energy_pj_per_token", "pJ"),
    ("ppl_mean", "ppl"),
    ("output_match", "share"),
    ("served_share", "share"),
];

/// Per-layer metrics of the traced run, in output order, with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.ticks", "count"),
    ("serve.step_ms_p50", "ms"),
    ("serve.step_ms_p90", "ms"),
    ("serve.queue_depth_mean", "requests"),
    ("serve.queue_wait_sim_ms_p50", "sim_ms"),
    ("serve.batch_occupancy", "requests"),
    ("serve.rows_per_gemm", "rows"),
    ("serve.preemptions", "count"),
    ("serve.pool_reuse_ratio", "share"),
    ("serve.non_model_share", "share"),
    ("session.build_ms", "ms"),
    ("session.prepare_ms", "ms"),
    ("llm.prefill_us_per_token", "us"),
    ("llm.decode_us_per_token", "us"),
    ("llm.decode_us_p90", "us"),
    ("llm.forward_us_per_token", "us"),
    ("kv.prefix_reuse_ratio", "share"),
    ("kv.peak_charged_bytes", "B"),
    ("kv.peak_logical_bytes", "B"),
    ("kv.prefix_lookup_us", "us"),
    ("kv.publish_us", "us"),
    ("core.gemv_ns_per_mac", "ns"),
    ("core.gemm_ns_per_mac", "ns"),
    ("core.gemv_bytes_per_call", "B"),
    ("core.gemm_bytes_per_call", "B"),
    ("core.attn_packed_ns_per_elem", "ns"),
    ("core.quantize_ns_per_elem", "ns"),
    ("quant.ptq_ms", "ms"),
    ("accel.simulate_us_per_call", "us"),
    ("accel.sim_cycles_per_token", "cycles"),
    ("accel.sim_nonlinear_cycle_share", "share"),
    ("mem.kv_bytes_moved_per_token", "B"),
    ("mem.kv_dram_energy_share", "share"),
    ("trace.overhead_share", "share"),
];

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.parse::<Workload>()?),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Runs one workload and returns its outcome, metrics in the order of
/// [`END_TO_END`] (untraced) or [`PER_LAYER`] (traced), and the spans.
pub fn run(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Outcome, Tracer), String> {
    let mut tracer = Tracer::new(trace);
    let mut out = match workload {
        Workload::DecodeStream => serving::run(
            workload,
            &workload::decode_stream(scale),
            scale,
            seed,
            seconds,
            &mut tracer,
        )?,
        Workload::PrefixPressure => serving::run(
            workload,
            &workload::prefix_pressure(scale),
            scale,
            seed,
            seconds,
            &mut tracer,
        )?,
        Workload::PplEval => accuracy::run(
            &workload::ppl_eval(scale),
            scale,
            seed,
            seconds,
            &mut tracer,
        )?,
    };
    let wanted = if trace { PER_LAYER } else { END_TO_END };
    let mut ordered = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let m = out
            .metrics
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if m.unit != unit {
            return Err(format!("metric {name} has unit {} not {unit}", m.unit));
        }
        ordered.push(m.clone());
    }
    if ordered.len() != out.metrics.len() {
        return Err("a workload emitted a metric outside the benchmark's list".to_owned());
    }
    out.metrics = ordered;
    Ok((out, tracer))
}

/// The host-side twin of Fig. 1(b): self time per layer of the traced
/// run next to the simulated cycle share per op class.
pub fn layer_table(tracer: &Tracer, sim_shares: &[(String, f64)]) -> String {
    let by_layer = tracer.self_time_by_layer();
    let total: u64 = by_layer.values().sum();
    let host: Vec<(String, f64)> = by_layer
        .iter()
        .map(|(layer, ns)| (layer.to_string(), *ns as f64 / total.max(1) as f64))
        .collect();
    let mut s =
        String::from("host self-time share per layer   | simulated cycle share per op class\n");
    for i in 0..host.len().max(sim_shares.len()) {
        let left = host.get(i).map_or(String::new(), |(l, v)| {
            format!("{l:<12} {:>6.1}%", v * 100.0)
        });
        let right = sim_shares.get(i).map_or(String::new(), |(l, v)| {
            format!("{l:<18} {:>6.1}%", v * 100.0)
        });
        let _ = writeln!(s, "{left:<32} | {right}");
    }
    s
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (out, tracer) = match run(
        args.workload,
        Scale::Full,
        args.seed,
        args.seconds,
        args.trace,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for note in &out.notes {
        eprintln!("{note}");
    }
    if tracer.enabled() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-{}.json", args.workload.name(), args.seed);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(args.workload.name(), args.seed)));
        if let Err(e) = written {
            eprintln!("perfbench: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("spans: {path}");
    }
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
