//! The `ppl_eval` workload: the Table II lineup over zoo models through
//! `SessionBuilder::build` and `Session::evaluate`.
//!
//! Untraced run: synthesise the models several times (median
//! `setup_s`), evaluate the lineup once (the reference values), then
//! again and again for the measured time (median scored positions per
//! second). Each row is checked against an independent recomputation
//! of the PPL proxy from `bbal-llm`'s public parts (PTQ, two forward
//! passes and the KL mapping), and for the default seed against pinned
//! bits equal to the `table2` binary's output. The simulated metrics
//! cost every hardware-mapped row as a lone request on the modelled
//! accelerator: one prefill over each eval sequence (time to first
//! token) and one decode step after it.

use crate::micro;
use crate::pins;
use crate::report::{mean, median, pct, process_cpu_s, Outcome, SimCycles};
use crate::trace::Tracer;
use crate::workload::{PplShape, Scale};
use bbal_core::SchemeSpec;
use bbal_llm::{ops, zoo, EvalSet, ExactHooks, TransformerModel};
use bbal_quant::hooks_for;
use bbal_session::SessionBuilder;
use std::fmt::Display;
use std::time::Instant;

/// Model syntheses per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

fn err(e: impl Display) -> String {
    e.to_string()
}

/// One lineup row: a model index and a scheme.
type Row = (usize, SchemeSpec);

/// Evaluates every row through the session API; returns the PPLs.
fn pass(
    shape: &PplShape,
    models: &[TransformerModel],
    rows: &[Row],
    eval_seed: u64,
    tracer: &mut Tracer,
) -> Result<Vec<f64>, String> {
    let mut ppl = Vec::with_capacity(rows.len());
    for (i, &(m, scheme)) in rows.iter().enumerate() {
        let builder = SessionBuilder::new()
            .with_model(models[m].clone())
            .scheme_spec(scheme)
            .eval_set(shape.sequences, shape.seq_len, eval_seed);
        let session = tracer
            .time("session.build", Some(i), || builder.build())
            .map_err(err)?;
        ppl.push(
            tracer
                .time("session.evaluate", Some(i), || session.evaluate())
                .ppl,
        );
    }
    Ok(ppl)
}

/// The PPL proxy recomputed from public parts, step for step as the
/// proxy is defined: PTQ the reference weights, run teacher (exact) and
/// student forward passes, and map the mean KL through the model's
/// anchor. Spans go around the PTQ and each forward pass.
fn recompute(
    model: &TransformerModel,
    scheme: SchemeSpec,
    eval: &EvalSet,
    row: usize,
    tracer: &mut Tracer,
) -> Result<f64, String> {
    const TARGET_LOGIT_STD: f32 = 2.5;
    let hooks = hooks_for(scheme).map_err(err)?;
    let hooks = &hooks.as_ref();
    let student = tracer.time("quant.ptq", Some(row), || {
        model.with_transformed_weights(hooks)
    });
    let mut total_kl = 0.0f64;
    let mut positions = 0usize;
    for seq in &eval.sequences {
        let teacher = tracer.time("llm.forward", Some(row), || model.forward(seq, &ExactHooks));
        let taught = tracer.time("llm.forward", Some(row), || student.forward(seq, hooks));
        for pos in 0..seq.len() {
            let t_row = teacher.row(pos);
            let s_row = taught.row(pos);
            let n = t_row.len() as f32;
            let mu = t_row.iter().sum::<f32>() / n;
            let std = (t_row.iter().map(|v| (v - mu) * (v - mu)).sum::<f32>() / n)
                .sqrt()
                .max(1e-3);
            let gain = TARGET_LOGIT_STD / std;
            let mut p: Vec<f32> = t_row.iter().map(|v| v * gain).collect();
            let s_scaled: Vec<f32> = s_row.iter().map(|v| v * gain).collect();
            ops::softmax_in_place(&mut p);
            total_kl += (ops::cross_entropy(&p, &s_scaled) - ops::entropy(&p)).max(0.0);
            positions += 1;
        }
    }
    let spec = model.spec();
    let kl = total_kl / positions as f64;
    Ok(spec.anchor_ppl * (spec.kl_scale * kl).exp())
}

/// Simulated lone-request costs of the hardware-mapped rows.
#[derive(Debug, Default)]
struct SimLineup {
    ttft_ms: Vec<f64>,
    tpot_ms: Vec<f64>,
    prefill_s: f64,
    energy_pj: f64,
    positions: usize,
    cycles: SimCycles,
}

fn simulate(
    shape: &PplShape,
    models: &[TransformerModel],
    rows: &[Row],
    tracer: &mut Tracer,
) -> Result<SimLineup, String> {
    let mut out = SimLineup::default();
    for &(m, scheme) in rows {
        let session = SessionBuilder::new()
            .with_model(models[m].clone())
            .scheme_spec(scheme)
            .build()
            .map_err(err)?;
        if session.accelerator_config().is_err() {
            // FP16 and OmniQuant have no hardware mapping.
            continue;
        }
        let prefill = tracer
            .time("accel.simulate_prefill", None, || {
                session.simulate_prefill(shape.seq_len)
            })
            .map_err(err)?;
        let decode = session.simulate_decode(shape.seq_len).map_err(err)?;
        let ghz = session.clock_ghz();
        for _ in 0..shape.sequences {
            out.ttft_ms.push(prefill.runtime_ms(ghz));
            out.tpot_ms.push(decode.runtime_ms(ghz));
            out.prefill_s += prefill.runtime_ms(ghz) / 1e3;
            out.energy_pj += prefill.energy.total_pj();
            out.positions += shape.seq_len;
            out.cycles.add(&prefill);
        }
    }
    Ok(out)
}

pub fn run(
    shape: &PplShape,
    scale: Scale,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let specs = shape
        .models
        .iter()
        .map(|m| zoo::find(m).ok_or_else(|| format!("unknown model {m}")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut setup_s = Vec::new();
    let mut models = Vec::new();
    for _ in 0..SETUP_REPS {
        models.clear();
        let t = Instant::now();
        let span = tracer.begin("setup.ppl", None);
        for spec in &specs {
            models.push(tracer.time("llm.synthesize", None, || {
                TransformerModel::synthesize(spec)
            }));
        }
        tracer.end(span);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let rows: Vec<Row> = (0..models.len())
        .flat_map(|m| shape.schemes.iter().map(move |&s| (m, s)))
        .collect();
    let eval_seed = shape.eval_seed(seed);
    let positions = (rows.len() * shape.sequences * shape.seq_len) as f64;

    let mut untraced = Tracer::new(false);
    let ppl = pass(shape, &models, &rows, eval_seed, &mut untraced)?;

    let mut out = Outcome::new(rows.len() as u64, 0);
    let mut matched = 0;
    for (i, &(m, scheme)) in rows.iter().enumerate() {
        let eval = EvalSet::generate(models[m].spec(), shape.sequences, shape.seq_len, eval_seed);
        let want = recompute(&models[m], scheme, &eval, i, tracer)?;
        let mut ok = want.to_bits() == ppl[i].to_bits();
        if scale == Scale::Full && seed == pins::SEED {
            let name = models[m].spec().name;
            match pins::ppl(name, scheme) {
                Some((bits, table2)) => {
                    ok &= ppl[i].to_bits() == bits && format!("{:.2}", ppl[i]) == table2;
                }
                None => ok = false,
            }
        }
        if !ok {
            out.notes.push(format!(
                "row {} {}: ppl {} ({:#018x}), recomputed {}",
                models[m].spec().name,
                scheme,
                ppl[i],
                ppl[i].to_bits(),
                want
            ));
        }
        matched += usize::from(ok);
    }
    out.check(
        matched == rows.len(),
        format!("{matched}/{} PPL rows match", rows.len()),
    );

    let sims = simulate(shape, &models, &rows, tracer)?;

    if tracer.enabled() {
        // Untraced and traced passes of the same session calls, for
        // the overhead (the first pass above also warmed up).
        let t = Instant::now();
        pass(shape, &models, &rows, eval_seed, &mut untraced)?;
        let untraced_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let again = pass(shape, &models, &rows, eval_seed, tracer)?;
        let traced_s = t.elapsed().as_secs_f64();
        out.check(
            again
                .iter()
                .zip(&ppl)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "the traced pass changed a PPL",
        );
        let spec = &specs[0];
        let scheme = SchemeSpec::BBAL_PAPER;
        let hooks = hooks_for(scheme).map_err(err)?;
        let prepared = models[0].with_transformed_weights(&hooks.as_ref());
        let gemv = micro::gemm(tracer, &prepared, scheme, 1);
        let gemm = micro::gemm(tracer, &prepared, scheme, shape.seq_len);
        let attn = micro::attention(tracer, scheme, spec.hidden, spec.heads, shape.seq_len);
        let quantize = micro::quantize(tracer, &shape.schemes, spec.hidden);
        let ms = |name: &str| -> Vec<f64> {
            tracer.durations_ns(name).iter().map(|n| n / 1e6).collect()
        };
        let forward_us = tracer.total_ns("llm.forward") / 1e3 / (2.0 * positions);

        // Layers this workload never calls report 0.
        for (name, unit) in crate::PER_LAYER {
            if name.starts_with("serve.") || name.starts_with("kv.") || name.starts_with("mem.") {
                out.push(name, 0.0, unit);
            }
        }
        out.push("session.build_ms", median(&ms("session.build")), "ms");
        out.push("session.prepare_ms", 0.0, "ms");
        out.push("llm.prefill_us_per_token", 0.0, "us");
        out.push("llm.decode_us_per_token", 0.0, "us");
        out.push("llm.decode_us_p90", 0.0, "us");
        out.push("llm.forward_us_per_token", forward_us, "us");
        out.push("core.gemv_ns_per_mac", gemv.ns_per_mac, "ns");
        out.push("core.gemm_ns_per_mac", gemm.ns_per_mac, "ns");
        out.push("core.gemv_bytes_per_call", gemv.bytes_per_call, "B");
        out.push("core.gemm_bytes_per_call", gemm.bytes_per_call, "B");
        out.push("core.attn_packed_ns_per_elem", attn, "ns");
        out.push("core.quantize_ns_per_elem", quantize, "ns");
        out.push("quant.ptq_ms", median(&ms("quant.ptq")), "ms");
        let simulate_ns = tracer.durations_ns("accel.simulate_prefill");
        out.push("accel.simulate_us_per_call", mean(&simulate_ns) / 1e3, "us");
        out.push(
            "accel.sim_cycles_per_token",
            sims.cycles.total() as f64 / sims.positions.max(1) as f64,
            "cycles",
        );
        out.push(
            "accel.sim_nonlinear_cycle_share",
            sims.cycles.nonlinear_share(),
            "share",
        );
        out.push(
            "trace.overhead_share",
            (traced_s - untraced_s) / untraced_s,
            "share",
        );
        out.notes
            .push(crate::layer_table(tracer, &sims.cycles.shares()));
        return Ok(out);
    }

    let mut per_s = Vec::new();
    let mut cpu_s = 0.0;
    let start = Instant::now();
    while per_s.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let cpu = process_cpu_s()?;
        let again = pass(shape, &models, &rows, eval_seed, &mut untraced)?;
        per_s.push(positions / t.elapsed().as_secs_f64());
        cpu_s += process_cpu_s()? - cpu;
        out.check(
            again
                .iter()
                .zip(&ppl)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "a repeated evaluation changed a PPL",
        );
    }
    out.notes
        .push(format!("measured passes (positions/s): {per_s:.1?}"));

    let met = sims
        .ttft_ms
        .iter()
        .zip(&sims.tpot_ms)
        .filter(|(ttft, tpot)| **ttft <= shape.slo.ttft_ms && **tpot <= shape.slo.tpot_ms)
        .count();
    out.push("setup_s", median(&setup_s), "s");
    out.push("wall_tokens_per_s", median(&per_s), "1/s");
    out.push(
        "cpu_tokens_per_s",
        positions * per_s.len() as f64 / cpu_s,
        "1/s",
    );
    out.push(
        "sim_tokens_per_s",
        sims.positions as f64 / sims.prefill_s,
        "1/s",
    );
    out.push("sim_ttft_p50_ms", pct(&sims.ttft_ms, 50.0), "sim_ms");
    out.push("sim_ttft_p90_ms", pct(&sims.ttft_ms, 90.0), "sim_ms");
    out.push("sim_tpot_p50_ms", pct(&sims.tpot_ms, 50.0), "sim_ms");
    out.push("sim_tpot_p90_ms", pct(&sims.tpot_ms, 90.0), "sim_ms");
    out.push(
        "sim_slo_attainment",
        met as f64 / sims.ttft_ms.len().max(1) as f64,
        "share",
    );
    out.push(
        "sim_energy_pj_per_token",
        sims.energy_pj / sims.positions.max(1) as f64,
        "pJ",
    );
    out.push("ppl_mean", mean(&ppl), "ppl");
    out.push("output_match", matched as f64 / rows.len() as f64, "share");
    out.push("served_share", 1.0, "share");
    let rss = crate::report::peak_rss_mb().ok_or("VmHWM unavailable")?;
    out.push("host_peak_rss_mb", rss, "MiB");
    Ok(out)
}
