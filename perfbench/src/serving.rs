//! The serve workloads (`decode_stream`, `prefix_pressure`).
//!
//! Untraced run: set up several times (median `setup_s`); for a
//! budgeted workload, serve once without a budget to size it; then
//! serve the seeded trace again and again, each time on a fresh
//! runtime, for the measured time (median `wall_tokens_per_s`). Every
//! serve must reproduce the first one's simulated report exactly, and
//! every output of the first must equal a lone `Session::generate`.
//!
//! Traced run: the same set-up, a warm-up serve, an untraced and a
//! traced serve through the streaming API (a span per
//! `ServeRuntime::step`), a lone replay of every request with spans
//! around the `Session` calls, per-layer probes, and a re-costing of
//! the served ticks through `bbal_accel::simulate_with`.

use crate::micro;
use crate::pins;
use crate::report::{mean, median, pct, process_cpu_s, token_digest, Outcome, SimCycles};
use crate::trace::Tracer;
use crate::workload::{Scale, ServeShape, Workload};
use bbal_accel::{simulate_with, AcceleratorConfig, NonlinearTiming};
use bbal_arith::GateLibrary;
use bbal_core::SchemeSpec;
use bbal_llm::graph::PaperDims;
use bbal_llm::{zoo, KvArena, TransformerModel};
use bbal_mem::{KvFootprint, KvTraffic};
use bbal_serve::{tick_ops, GenerateRequest, ServeReport, ServeRuntime, TickWork};
use bbal_session::{argmax, Session, SessionBuilder};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

fn err(e: impl Display) -> String {
    e.to_string()
}

/// Everything the simulated side of a report determines, as integers:
/// two serves of the same trace must agree on all of it.
fn sim_fingerprint(r: &ServeReport) -> Vec<u64> {
    let mut v = vec![
        r.total_cycles,
        r.energy_pj.to_bits(),
        r.kv_dram_energy_pj.to_bits(),
        r.peak_kv_pages as u64,
        r.peak_logical_kv_pages as u64,
        r.peak_kv_bytes,
        r.peak_logical_kv_bytes,
        r.preemptions,
        r.kv_read_bytes,
        r.kv_write_bytes,
        r.ticks.len() as u64,
    ];
    for q in &r.requests {
        v.extend([
            q.arrival_cycles,
            q.admitted_cycles,
            q.first_token_cycles,
            q.finish_cycles,
            q.preemptions,
            q.shared_prefix_tokens as u64,
            u64::from(q.rejected.is_some()),
            token_digest(std::iter::once(q.tokens.as_slice())),
        ]);
    }
    v
}

/// Builds one template, prepares every scheme through its shared
/// prepared-weights cache, and opens the runtime: what a cold start
/// pays before the first request. Returns the template, whose clones
/// share the prepared weights.
fn set_up(shape: &ServeShape, tracer: &mut Tracer) -> Result<SessionBuilder, String> {
    let schemes = shape.schemes.clone();
    let span = tracer.begin("setup.serve", None);
    let template = tracer
        .time("llm.synthesize", None, || {
            SessionBuilder::new()
                .model(shape.model)
                .scheme_spec(schemes[0])
                .resolve_model()
        })
        .map_err(err)?;
    for &scheme in &schemes {
        let builder = template
            .clone()
            .scheme_spec(scheme)
            .kv_quant(shape.config.kv_quant)
            .kv_packed(shape.config.kv_packed);
        let mut session = tracer
            .time("session.build", None, || builder.build())
            .map_err(err)?;
        tracer.time("session.prepare", None, || {
            session.prepare();
        });
    }
    let runtime = tracer
        .time("serve.runtime_new", None, || {
            ServeRuntime::new(template.clone(), shape.config)
        })
        .map_err(err)?;
    drop(runtime);
    tracer.end(span);
    Ok(template)
}

/// A runtime with an empty arena over the prepared template. Every
/// serve gets its own: a runtime's arena keeps the prefix index of
/// earlier serves, so serving the same trace twice on one runtime is a
/// different (warm-cache) run.
fn fresh(shape: &ServeShape, template: &SessionBuilder) -> Result<ServeRuntime, String> {
    ServeRuntime::new(template.clone(), shape.config).map_err(err)
}

/// A fresh builder for lone reference sessions: its own model synthesis
/// and its own prepared-weights cache, with the workload's KV options.
fn reference_template(shape: &ServeShape) -> Result<SessionBuilder, String> {
    Ok(SessionBuilder::new()
        .model(shape.model)
        .resolve_model()
        .map_err(err)?
        .kv_quant(shape.config.kv_quant)
        .kv_packed(shape.config.kv_packed))
}

/// Lone `Session::generate` for every request, on two threads.
fn reference_tokens(
    template: &SessionBuilder,
    requests: &[GenerateRequest],
) -> Result<Vec<Vec<usize>>, String> {
    const THREADS: usize = 2;
    let lone = |k: usize| -> Result<Vec<(usize, Vec<usize>)>, String> {
        let mut sessions: BTreeMap<SchemeSpec, Session> = BTreeMap::new();
        let mut done = Vec::new();
        for (id, r) in requests.iter().enumerate().skip(k).step_by(THREADS) {
            let session = match sessions.entry(r.scheme) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(
                    template
                        .clone()
                        .scheme_spec(r.scheme)
                        .build()
                        .map_err(err)?,
                ),
            };
            done.push((
                id,
                session.generate(&r.prompt, r.max_new_tokens).map_err(err)?,
            ));
        }
        Ok(done)
    };
    let mut out = vec![Vec::new(); requests.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS).map(|k| scope.spawn(move || lone(k))).collect();
        for h in handles {
            let done = h
                .join()
                .map_err(|_| "reference thread panicked".to_owned())??;
            for (id, tokens) in done {
                out[id] = tokens;
            }
        }
        Ok(out)
    })
}

/// Mean PPL proxy of the workload's schemes on its model, over the
/// Table II eval set: the accuracy that pairs with the served
/// efficiency (it does not depend on the traffic).
fn ppl_mean(template: &SessionBuilder, schemes: &[SchemeSpec]) -> Result<f64, String> {
    let mut ppl = Vec::new();
    for &scheme in schemes {
        let session = template
            .clone()
            .scheme_spec(scheme)
            .eval_set(2, 24, crate::workload::TABLE2_EVAL_SEED)
            .build()
            .map_err(err)?;
        ppl.push(session.evaluate().ppl);
    }
    Ok(mean(&ppl))
}

pub fn run(
    workload: Workload,
    shape: &ServeShape,
    scale: Scale,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let requests = shape.requests(seed);
    let schemes = shape.schemes.clone();

    let mut setup_s = Vec::new();
    let mut template = None;
    for _ in 0..SETUP_REPS {
        drop(template.take());
        let t = Instant::now();
        template = Some(set_up(shape, tracer)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let template = template.expect("at least one set-up");

    // A budget below the unbounded peak: serve once without one to
    // find the peak.
    let mut shape = shape.clone();
    if let Some(share) = shape.budget_share {
        let unbounded = fresh(&shape, &template)?.serve(&requests).map_err(err)?;
        shape.config.kv_budget_bytes = Some((unbounded.peak_kv_bytes as f64 * share) as u64);
    }
    let shape = &shape;
    let ref_template = reference_template(shape)?;
    let mut out = Outcome::new(requests.len() as u64, 0);

    let first = if tracer.enabled() {
        traced(
            workload,
            shape,
            &requests,
            &template,
            &ref_template,
            tracer,
            &mut out,
        )?
    } else {
        // Each serve on a fresh runtime; the first one's report is the
        // one every later serve must reproduce.
        let mut tokens_per_s = Vec::new();
        let (mut cpu_s, mut generated) = (0.0, 0);
        let mut first: Option<ServeReport> = None;
        let start = Instant::now();
        while first.is_none() || start.elapsed().as_secs_f64() < seconds {
            let mut rt = fresh(shape, &template)?;
            let t = Instant::now();
            let cpu = process_cpu_s()?;
            let report = rt.serve(&requests).map_err(err)?;
            tokens_per_s.push(report.generated_tokens() as f64 / t.elapsed().as_secs_f64());
            cpu_s += process_cpu_s()? - cpu;
            generated += report.generated_tokens();
            match &first {
                None => first = Some(report),
                Some(f) => out.check(
                    sim_fingerprint(&report) == sim_fingerprint(f),
                    "a repeated serve changed the simulated report",
                ),
            }
        }
        let first = first.expect("at least one serve");
        out.notes.push(format!(
            "measured serves (generated tokens/s): {tokens_per_s:.1?}"
        ));

        // The traced run checks the served tokens against its lone
        // replays instead.
        let reference = reference_tokens(&ref_template, &requests)?;
        let matched = first
            .requests
            .iter()
            .zip(&reference)
            .filter(|(r, want)| r.rejected.is_none() && &r.tokens == *want)
            .count();
        out.check(
            matched == requests.len(),
            format!(
                "{matched}/{} served outputs equal a lone Session::generate",
                requests.len()
            ),
        );

        let attempted = requests.len() as f64;
        let served = first.served().count() as f64;
        let slo_met = first
            .served()
            .filter(|r| {
                first.cycles_to_ms(r.ttft_cycles()) <= shape.slo.ttft_ms
                    && r.tpot_cycles() / (first.clock_ghz * 1e6) <= shape.slo.tpot_ms
            })
            .count();
        let ppl = ppl_mean(&ref_template, &schemes)?;
        out.push("setup_s", median(&setup_s), "s");
        out.push("wall_tokens_per_s", median(&tokens_per_s), "1/s");
        out.push("cpu_tokens_per_s", generated as f64 / cpu_s, "1/s");
        out.push("sim_tokens_per_s", first.sim_tokens_per_s(), "1/s");
        out.push("sim_ttft_p50_ms", first.ttft_percentile_ms(50.0), "sim_ms");
        out.push("sim_ttft_p90_ms", first.ttft_percentile_ms(90.0), "sim_ms");
        out.push("sim_tpot_p50_ms", first.tpot_percentile_ms(50.0), "sim_ms");
        out.push("sim_tpot_p90_ms", first.tpot_percentile_ms(90.0), "sim_ms");
        out.push("sim_slo_attainment", slo_met as f64 / attempted, "share");
        out.push(
            "sim_energy_pj_per_token",
            first.total_energy_pj() / first.generated_tokens() as f64,
            "pJ",
        );
        out.push("ppl_mean", ppl, "ppl");
        out.push("output_match", matched as f64 / attempted, "share");
        out.push("served_share", served / attempted, "share");
        let rss = crate::report::peak_rss_mb().ok_or("VmHWM unavailable")?;
        out.push("host_peak_rss_mb", rss, "MiB");
        first
    };

    out.failed = first.rejected().count() as u64;
    let digest = token_digest(first.requests.iter().map(|r| r.tokens.as_slice()));
    if scale == Scale::Full && seed == pins::SEED {
        let want = pins::serve_digest(workload);
        out.check(
            digest == want,
            format!("token digest {digest:#018x} != pinned {want:#018x}"),
        );
    }
    out.notes.push(format!(
        "token digest {digest:#018x}; KV budget {:?} B, peak {} B, {} preemptions, page reuse {:.3}",
        shape.config.kv_budget_bytes,
        first.peak_kv_bytes,
        first.preemptions,
        first.kv_page_reuse_ratio()
    ));
    Ok(out)
}

/// Replays every request on its own session over one shared unbounded
/// arena — prefix lookup, chunked prefill, publish, decode — exactly as
/// the scheduler feeds it, with a span around every `Session` call.
/// Returns the prompt tokens prefilled and whether every replay
/// reproduced the served tokens.
fn replay(
    shape: &ServeShape,
    requests: &[GenerateRequest],
    served: &ServeReport,
    template: &SessionBuilder,
    tracer: &mut Tracer,
) -> Result<(usize, bool), String> {
    let arena = KvArena::unbounded(shape.config.kv_page_tokens);
    let base = template.clone().kv_arena(arena);
    let mut sessions: BTreeMap<SchemeSpec, Session> = BTreeMap::new();
    for &scheme in &shape.schemes {
        let mut s = base.clone().scheme_spec(scheme).build().map_err(err)?;
        s.prepare();
        sessions.insert(scheme, s);
    }
    let mut prefilled = 0;
    let mut all_match = true;
    for (id, r) in requests.iter().enumerate() {
        let s = sessions
            .get_mut(&r.scheme)
            .ok_or("request scheme outside the lineup")?;
        let adopted = tracer.time("kv.prefix_lookup", Some(id), || {
            s.prefix_lookup(&r.prompt, r.prompt.len() - 1)
        });
        let chunk = if s.chunk_invariant_prefill() {
            shape.config.prefill_chunk
        } else {
            r.prompt.len()
        };
        let mut logits = Vec::new();
        for part in r.prompt[adopted..].chunks(chunk) {
            logits = tracer
                .time("llm.prefill_chunk", Some(id), || s.prefill_chunk(part))
                .map_err(err)?;
            prefilled += part.len();
        }
        tracer.time("kv.publish_prefix", Some(id), || {
            s.publish_prefix(&r.prompt)
        });
        let mut tokens = vec![argmax(&logits)];
        while tokens.len() < r.max_new_tokens {
            let last = *tokens.last().expect("non-empty");
            let row = tracer
                .time("llm.decode_step", Some(id), || s.decode_step(last))
                .map_err(err)?;
            tokens.push(argmax(&row));
        }
        all_match &= tokens == served.requests[id].tokens;
    }
    Ok((prefilled, all_match))
}

/// The served ticks re-costed through `simulate_with`.
#[derive(Debug, Default)]
struct Recost {
    cycles: SimCycles,
    /// Ticks whose re-costed cycles equal the served tick's.
    matched_ticks: usize,
    ticks: usize,
}

/// Rebuilds each tick's work items from the report — a request never
/// preempted runs its prefill chunks on consecutive ticks from its
/// admission, then one decode step per tick — and costs each tick's
/// per-scheme groups with `tick_ops` + `simulate_with`, as the runtime
/// does. Ticks touched by a preempted request's replays cannot be
/// rebuilt from the report and come out short; `matched_ticks` counts
/// the exact ones. The KV traffic of each group is charged through
/// `bbal_mem` alongside.
fn recost(
    report: &ServeReport,
    requests: &[GenerateRequest],
    dims: &PaperDims,
    configs: &BTreeMap<SchemeSpec, AcceleratorConfig>,
    chunk_invariant: &BTreeMap<SchemeSpec, bool>,
    prefill_chunk: usize,
    tracer: &mut Tracer,
) -> Recost {
    let n = report.ticks.len();
    let mut items: Vec<BTreeMap<SchemeSpec, Vec<TickWork>>> = vec![BTreeMap::new(); n];
    for (r, req) in report.requests.iter().zip(requests) {
        if r.rejected.is_some() || r.preemptions > 0 {
            continue;
        }
        let Ok(mut k) = report
            .ticks
            .binary_search_by_key(&r.admitted_cycles, |t| t.start_cycles)
        else {
            continue;
        };
        let p = req.prompt.len();
        let chunk = if chunk_invariant[&r.scheme] {
            prefill_chunk
        } else {
            p
        };
        let mut fed = r.shared_prefix_tokens;
        let mut work = Vec::new();
        while fed < p {
            let c = chunk.min(p - fed);
            work.push(TickWork::Prefill { new: c, past: fed });
            fed += c;
        }
        for j in 1..r.tokens.len() {
            work.push(TickWork::Decode { kv_len: p + j });
        }
        for w in work {
            if k >= n {
                break;
            }
            items[k].entry(r.scheme).or_default().push(w);
            k += 1;
        }
    }
    let lib = GateLibrary::default();
    let mut out = Recost {
        ticks: n,
        ..Recost::default()
    };
    for (tick, groups) in report.ticks.iter().zip(&items) {
        let mut cycles = 0u64;
        for (scheme, group) in groups {
            let cfg = &configs[scheme];
            let ops = tick_ops(dims, group);
            let sim = tracer.time("accel.simulate_with", None, || {
                simulate_with(cfg, &ops, &lib, NonlinearTiming::BbalUnit)
            });
            cycles += sim.total_cycles();
            out.cycles.add(&sim);
            tracer.time("mem.kv_traffic", None, || {
                let fp = KvFootprint::for_scheme(*scheme, dims.hidden, dims.layers);
                let mut traffic = KvTraffic::default();
                for w in group {
                    match *w {
                        TickWork::Prefill { new, past } => traffic.record_prefill(&fp, new, past),
                        TickWork::Decode { kv_len } => traffic.record_decode(&fp, kv_len),
                    }
                }
                std::hint::black_box(traffic.energy_pj(&cfg.dram));
            });
        }
        out.matched_ticks += usize::from(cycles == tick.tick_cycles);
    }
    out
}

/// The traced run; returns the untraced serve's report.
fn traced(
    workload: Workload,
    shape: &ServeShape,
    requests: &[GenerateRequest],
    template: &SessionBuilder,
    ref_template: &SessionBuilder,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<ServeReport, String> {
    // A warm-up serve, then an untraced and a traced serve of the same
    // trace, each on a fresh runtime.
    fresh(shape, template)?.serve(requests).map_err(err)?;
    let mut rt = fresh(shape, template)?;
    let t = Instant::now();
    let untraced = rt.serve(requests).map_err(err)?;
    let untraced_s = t.elapsed().as_secs_f64();

    let mut rt = fresh(shape, template)?;
    let t = Instant::now();
    let run = tracer.begin("serve.run", None);
    rt.begin().map_err(err)?;
    for r in requests {
        rt.submit(r).map_err(err)?;
    }
    let mut queue_depth = Vec::new();
    loop {
        let span = tracer.begin("serve.step", None);
        let more = rt.step().map_err(err)?;
        tracer.end(span);
        // `queue_depth` also counts submitted requests whose arrival is
        // still ahead of the simulated clock; only arrived ones wait.
        let now = rt.sim_now();
        let not_arrived = requests.iter().filter(|r| r.arrival_cycles > now).count();
        queue_depth.push(rt.queue_depth().saturating_sub(not_arrived) as f64);
        if !more {
            break;
        }
    }
    let report = rt.finish().map_err(err)?;
    tracer.end(run);
    let traced_s = t.elapsed().as_secs_f64();
    out.check(
        sim_fingerprint(&report) == sim_fingerprint(&untraced),
        "traced and untraced serves disagree on outputs or simulated metrics",
    );

    let (prefilled, replay_match) = replay(shape, requests, &report, ref_template, tracer)?;
    out.check(replay_match, "a lone replay differs from its served tokens");

    let schemes = shape.schemes.clone();
    let spec = zoo::find(shape.model).ok_or("unknown model")?;
    let model = TransformerModel::synthesize(&spec);
    micro::ptq(tracer, &model, &schemes)?;
    let hooks = bbal_quant::hooks_for(schemes[0]).map_err(err)?;
    let prepared = model.with_transformed_weights(&hooks.as_ref());
    let gemv = micro::gemm(tracer, &prepared, schemes[0], 1);
    let gemm = micro::gemm(tracer, &prepared, schemes[0], shape.config.prefill_chunk);
    let ctx = mean(
        &requests
            .iter()
            .map(|r| (r.prompt.len() + r.max_new_tokens / 2) as f64)
            .collect::<Vec<_>>(),
    ) as usize;
    let attn = micro::attention(tracer, schemes[0], spec.hidden, spec.heads, ctx.max(1));
    let quantize = micro::quantize(tracer, &schemes, spec.hidden);
    let prompts: Vec<Vec<usize>> = requests.iter().take(8).map(|r| r.prompt.clone()).collect();
    micro::forward(tracer, &model, schemes[0], &prompts)?;
    let forward_tokens: usize = prompts.iter().map(Vec::len).sum();

    let mut configs = BTreeMap::new();
    let mut invariant = BTreeMap::new();
    let mut dims = None;
    for &scheme in &schemes {
        let s = ref_template
            .clone()
            .scheme_spec(scheme)
            .build()
            .map_err(err)?;
        configs.insert(scheme, s.accelerator_config().map_err(err)?);
        invariant.insert(scheme, s.chunk_invariant_prefill());
        dims = Some(s.simulated_dims());
    }
    let dims = dims.ok_or("empty lineup")?;
    let rc = recost(
        &report,
        requests,
        &dims,
        &configs,
        &invariant,
        shape.config.prefill_chunk,
        tracer,
    );

    let us =
        |name: &str| -> Vec<f64> { tracer.durations_ns(name).iter().map(|n| n / 1e3).collect() };
    let ms =
        |name: &str| -> Vec<f64> { tracer.durations_ns(name).iter().map(|n| n / 1e6).collect() };
    let step_ms = ms("serve.step");
    let step_total_ns: f64 = tracer.total_ns("serve.step");
    let prefill_ns = tracer.total_ns("llm.prefill_chunk");
    let decode_us = us("llm.decode_step");
    let llm_replay_ns = prefill_ns + tracer.total_ns("llm.decode_step");
    let non_model = if workload == Workload::DecodeStream {
        1.0 - (llm_replay_ns / shape.config.workers as f64) / step_total_ns
    } else {
        0.0
    };
    let waits: Vec<f64> = report
        .served()
        .map(|r| report.cycles_to_ms(r.admitted_cycles.saturating_sub(r.arrival_cycles)))
        .collect();
    let generated = report.generated_tokens() as f64;
    let pool_total = (report.sessions_built + report.sessions_reused).max(1) as f64;

    out.push("serve.ticks", report.ticks.len() as f64, "count");
    out.push("serve.step_ms_p50", pct(&step_ms, 50.0), "ms");
    out.push("serve.step_ms_p90", pct(&step_ms, 90.0), "ms");
    out.push("serve.queue_depth_mean", mean(&queue_depth), "requests");
    out.push("serve.queue_wait_sim_ms_p50", pct(&waits, 50.0), "sim_ms");
    out.push(
        "serve.batch_occupancy",
        report.mean_batch_occupancy(),
        "requests",
    );
    out.push(
        "serve.rows_per_gemm",
        report.mean_fused_rows_per_gemm(),
        "rows",
    );
    out.push("serve.preemptions", report.preemptions as f64, "count");
    out.push(
        "serve.pool_reuse_ratio",
        report.sessions_reused as f64 / pool_total,
        "share",
    );
    out.push("serve.non_model_share", non_model, "share");
    out.push("session.build_ms", median(&ms("session.build")), "ms");
    out.push("session.prepare_ms", median(&ms("session.prepare")), "ms");
    out.push(
        "llm.prefill_us_per_token",
        prefill_ns / 1e3 / prefilled.max(1) as f64,
        "us",
    );
    out.push("llm.decode_us_per_token", mean(&decode_us), "us");
    out.push("llm.decode_us_p90", pct(&decode_us, 90.0), "us");
    out.push(
        "llm.forward_us_per_token",
        tracer.total_ns("llm.forward") / 1e3 / forward_tokens as f64,
        "us",
    );
    out.push(
        "kv.prefix_reuse_ratio",
        report.kv_page_reuse_ratio(),
        "share",
    );
    out.push("kv.peak_charged_bytes", report.peak_kv_bytes as f64, "B");
    out.push(
        "kv.peak_logical_bytes",
        report.peak_logical_kv_bytes as f64,
        "B",
    );
    out.push("kv.prefix_lookup_us", mean(&us("kv.prefix_lookup")), "us");
    out.push("kv.publish_us", mean(&us("kv.publish_prefix")), "us");
    out.push("core.gemv_ns_per_mac", gemv.ns_per_mac, "ns");
    out.push("core.gemm_ns_per_mac", gemm.ns_per_mac, "ns");
    out.push("core.gemv_bytes_per_call", gemv.bytes_per_call, "B");
    out.push("core.gemm_bytes_per_call", gemm.bytes_per_call, "B");
    out.push("core.attn_packed_ns_per_elem", attn, "ns");
    out.push("core.quantize_ns_per_elem", quantize, "ns");
    out.push("quant.ptq_ms", median(&ms("quant.ptq")), "ms");
    out.push(
        "accel.simulate_us_per_call",
        mean(&us("accel.simulate_with")),
        "us",
    );
    out.push(
        "accel.sim_cycles_per_token",
        report.total_cycles as f64 / generated,
        "cycles",
    );
    out.push(
        "accel.sim_nonlinear_cycle_share",
        rc.cycles.nonlinear_share(),
        "share",
    );
    out.push(
        "mem.kv_bytes_moved_per_token",
        report.kv_bytes_moved() as f64 / generated,
        "B",
    );
    out.push(
        "mem.kv_dram_energy_share",
        report.kv_dram_energy_pj / report.total_energy_pj(),
        "share",
    );
    out.push(
        "trace.overhead_share",
        (traced_s - untraced_s) / untraced_s,
        "share",
    );

    out.notes.push(format!(
        "re-costed ticks equal to the served ones: {}/{}",
        rc.matched_ticks, rc.ticks
    ));
    out.notes
        .push(crate::layer_table(tracer, &rc.cycles.shares()));
    Ok(untraced)
}
