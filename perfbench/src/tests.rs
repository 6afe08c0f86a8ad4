//! The benchmark's smoke test: every workload at the tiny shape over
//! `zoo::tiny_test_model`.

use super::*;

const SIMULATED: &[&str] = &[
    "sim_tokens_per_s",
    "sim_ttft_p50_ms",
    "sim_ttft_p90_ms",
    "sim_tpot_p50_ms",
    "sim_tpot_p90_ms",
    "sim_slo_attainment",
    "sim_energy_pj_per_token",
    "ppl_mean",
    "output_match",
    "served_share",
];

fn tiny(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let (out, _) = run(workload, Scale::Tiny, seed, 0.05, trace).expect("tiny run");
    assert!(out.correct, "{}: {:?}", workload.name(), out.notes);
    out
}

#[test]
fn every_end_to_end_metric_is_emitted_and_simulated_ones_repeat() {
    for workload in Workload::ALL {
        let a = tiny(workload, 5, false);
        let b = tiny(workload, 5, false);
        let names: Vec<_> = a.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names, END_TO_END.to_vec());
        for &name in SIMULATED {
            let (x, y) = (a.metric(name).unwrap(), b.metric(name).unwrap());
            assert_eq!(x.to_bits(), y.to_bits(), "{} {name}", workload.name());
        }
        assert_eq!(a.metric("output_match"), Some(1.0), "{}", workload.name());
        assert!(a.attempted > 0 && a.failed == 0);
        assert!(a
            .metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value > 0.0));
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    for workload in Workload::ALL {
        let out = tiny(workload, 5, true);
        let names: Vec<_> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names, PER_LAYER.to_vec());
        assert!(out.metrics.iter().all(|m| m.value.is_finite()));
    }
    let pressure = tiny(Workload::PrefixPressure, 5, true);
    assert!(pressure.metric("serve.preemptions").unwrap() > 0.0);
    assert!(pressure.metric("kv.prefix_reuse_ratio").unwrap() > 0.0);
    let stream = tiny(Workload::DecodeStream, 5, true);
    assert_eq!(stream.metric("serve.preemptions"), Some(0.0));
    assert_eq!(stream.metric("kv.prefix_reuse_ratio"), Some(0.0));
}

#[test]
fn benchmark_json_names_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(text.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}

#[test]
fn arguments_parse_and_reject() {
    let args = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
    let a = args("--workload ppl_eval --seed 7 --seconds 2 --trace 1").unwrap();
    assert_eq!(
        a,
        Args {
            workload: Workload::PplEval,
            seed: 7,
            seconds: 2.0,
            trace: true
        }
    );
    assert!(args("--workload nope").is_err());
    assert!(args("--workload ppl_eval --trace 2").is_err());
    assert!(args("--workload ppl_eval --seconds 0").is_err());
    assert!(args("--seed 1").is_err());
}
