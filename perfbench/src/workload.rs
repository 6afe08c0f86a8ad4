//! The three workloads: their shapes and their seeded inputs.
//!
//! The program under test sees only the generated requests (or eval
//! sets); the seed is the benchmark's argument. Each workload has a
//! full shape (the benchmark) and a tiny shape over `zoo::tiny_test_model`
//! (the smoke test).

use bbal_core::SchemeSpec;
use bbal_fleet::{ArrivalProcess, LengthDistribution, TraceConfig};
use bbal_llm::rng::Stream;
use bbal_serve::{AdmissionPolicy, GenerateRequest, ServeConfig};
use std::str::FromStr;

/// Which workload a run serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DecodeStream,
    PrefixPressure,
    PplEval,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DecodeStream,
        Workload::PrefixPressure,
        Workload::PplEval,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DecodeStream => "decode_stream",
            Workload::PrefixPressure => "prefix_pressure",
            Workload::PplEval => "ppl_eval",
        }
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload {s:?}"))
    }
}

/// Full benchmark or the tiny smoke-test shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Simulated latency limits a request must meet to count as served
/// within its SLO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    pub ttft_ms: f64,
    pub tpot_ms: f64,
}

/// How a serve workload's prompts are built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Prompts {
    /// Independent Zipf prompts.
    Distinct,
    /// One shared system prompt of `prefix` tokens, then each request's
    /// own Zipf suffix.
    SharedPrefix { prefix: usize },
}

/// When a serve workload's requests arrive, on the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Open-loop Poisson: the trace's Poisson arrivals, stretched so
    /// the `requests` arrivals span exactly `requests` mean gaps. The
    /// offered load, and with it every throughput figure, is then the
    /// same for every seed, while the gaps keep their Poisson shape.
    Poisson,
    /// Open-loop bursts: every `period` cycles a burst of `size`
    /// requests starts, its members spaced by the trace's Poisson gaps.
    Bursts { size: usize, period: u64 },
}

/// A serve workload's shape.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeShape {
    pub model: &'static str,
    /// Lineup; requests take its schemes in turn, and the first is the
    /// template's.
    pub schemes: Vec<SchemeSpec>,
    /// Lengths, token draws and the Poisson gaps.
    pub trace: TraceConfig,
    pub arrivals: Arrivals,
    pub prompts: Prompts,
    pub config: ServeConfig,
    /// KV byte budget as a share of the trace's unbounded peak of
    /// charged bytes (`None`: no budget).
    pub budget_share: Option<f64>,
    pub slo: Slo,
}

impl ServeShape {
    /// The workload's requests for `seed`.
    pub fn requests(&self, seed: u64) -> Vec<GenerateRequest> {
        let mut trace = self.trace.generate(seed);
        let ArrivalProcess::Poisson { mean_gap_cycles } = self.trace.arrivals else {
            unreachable!("serve shapes draw Poisson gaps");
        };
        match self.arrivals {
            Arrivals::Poisson => {
                if let Some(last) = trace.last().map(|r| r.arrival_cycles).filter(|&t| t > 0) {
                    let scale = mean_gap_cycles * trace.len() as f64 / last as f64;
                    for r in &mut trace {
                        r.arrival_cycles = (r.arrival_cycles as f64 * scale).round() as u64;
                    }
                }
            }
            Arrivals::Bursts { size, period } => {
                let mut prev = 0;
                let mut at = 0;
                for (i, r) in trace.iter_mut().enumerate() {
                    let gap = r.arrival_cycles - prev;
                    prev = r.arrival_cycles;
                    at = if i % size == 0 {
                        (i / size) as u64 * period
                    } else {
                        at + gap
                    };
                    r.arrival_cycles = at;
                }
            }
        }
        // Schemes in turn rather than drawn: the lineup's shares, and so
        // the work per request, stay the same for every seed.
        for (i, r) in trace.iter_mut().enumerate() {
            r.scheme = self.schemes[i % self.schemes.len()];
        }
        if let Prompts::SharedPrefix { prefix } = self.prompts {
            // A separate stream, so the suffixes, lengths, schemes and
            // arrivals are exactly `TraceConfig::generate(seed)`'s.
            let mut rng = Stream::new(seed ^ 0x5EED_0F51_57E4);
            let system: Vec<usize> = (0..prefix)
                .map(|_| rng.zipf_token(self.trace.vocab))
                .collect();
            for r in &mut trace {
                let mut prompt = system.clone();
                prompt.extend_from_slice(&r.prompt);
                r.prompt = prompt;
            }
        }
        trace
    }
}

/// Mixed-scheme lineup of `prefix_pressure` (and of the legacy
/// `serve_sweep` policy and memory sections).
const MIXED: [SchemeSpec; 3] = [
    SchemeSpec::BBAL_PAPER,
    SchemeSpec::Bfp(4),
    SchemeSpec::Oltron,
];

pub fn decode_stream(scale: Scale) -> ServeShape {
    let (model, requests, prompt, output, gap, vocab, slo) = match scale {
        // Batch-8 capacity on the Llama-7B stand-in (paper-scale
        // simulated dims) is about one request per 7.1e9 cycles at
        // these lengths; arrivals run at 0.57 of it.
        Scale::Full => (
            "Llama-7B",
            100,
            (8, 24),
            (64, 80),
            12.5e9,
            256,
            Slo {
                ttft_ms: 6_000.0,
                tpot_ms: 900.0,
            },
        ),
        Scale::Tiny => (
            "Tiny",
            24,
            (2, 8),
            (8, 16),
            20_000.0,
            64,
            Slo {
                ttft_ms: 1e9,
                tpot_ms: 1e9,
            },
        ),
    };
    let schemes = vec![SchemeSpec::BBAL_PAPER];
    ServeShape {
        model,
        trace: TraceConfig {
            requests,
            arrivals: ArrivalProcess::Poisson {
                mean_gap_cycles: gap,
            },
            prompt_len: LengthDistribution::Uniform {
                min: prompt.0,
                max: prompt.1,
            },
            output_len: LengthDistribution::Uniform {
                min: output.0,
                max: output.1,
            },
            schemes: Vec::new(),
            vocab,
        },
        schemes,
        arrivals: Arrivals::Poisson,
        prompts: Prompts::Distinct,
        config: ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        budget_share: None,
        slo,
    }
}

pub fn prefix_pressure(scale: Scale) -> ServeShape {
    let (model, requests, prefix, suffix, output, gap, period, vocab, slo) = match scale {
        // A burst of 10 requests arrives within about 5e9 cycles, and
        // the next one 8e10 cycles after its start; at half the
        // unbounded KV peak a burst takes about 7.7e10 cycles to serve,
        // so each queue forms and drains before the next burst.
        Scale::Full => (
            "Llama-7B",
            200,
            256,
            32,
            8,
            5.0e8,
            80_000_000_000u64,
            256,
            Slo {
                ttft_ms: 20_000.0,
                tpot_ms: 2_000.0,
            },
        ),
        Scale::Tiny => (
            "Tiny",
            24,
            32,
            8,
            16,
            2_000.0,
            200_000u64,
            64,
            Slo {
                ttft_ms: 1e9,
                tpot_ms: 1e9,
            },
        ),
    };
    let schemes = MIXED.to_vec();
    ServeShape {
        model,
        trace: TraceConfig {
            requests,
            arrivals: ArrivalProcess::Poisson {
                mean_gap_cycles: gap,
            },
            prompt_len: LengthDistribution::Fixed(suffix),
            output_len: LengthDistribution::Fixed(output),
            schemes: Vec::new(),
            vocab,
        },
        schemes,
        arrivals: Arrivals::Bursts { size: 10, period },
        prompts: Prompts::SharedPrefix { prefix },
        config: ServeConfig {
            workers: 2,
            admission: AdmissionPolicy::SchemeAffinity { max_wait_ticks: 16 },
            kv_quant: true,
            kv_packed: true,
            ..ServeConfig::default()
        },
        budget_share: Some(0.5),
        slo,
    }
}

/// `ppl_eval`'s shape: the Table II lineup over a few zoo models.
#[derive(Debug, Clone, PartialEq)]
pub struct PplShape {
    pub models: Vec<&'static str>,
    pub schemes: Vec<SchemeSpec>,
    pub sequences: usize,
    pub seq_len: usize,
    pub slo: Slo,
}

/// Eval-set seed of the Table II reproduction; `--seed 0` uses it, so
/// the default seed's PPLs are the `table2` binary's.
pub const TABLE2_EVAL_SEED: u64 = 1234;

impl PplShape {
    pub fn eval_seed(&self, seed: u64) -> u64 {
        TABLE2_EVAL_SEED.wrapping_add(seed)
    }
}

pub fn ppl_eval(scale: Scale) -> PplShape {
    match scale {
        Scale::Full => PplShape {
            models: vec!["Llama-7B", "OPT-6.7B"],
            schemes: bbal_quant::TABLE2_SCHEMES.to_vec(),
            sequences: 2,
            seq_len: 24,
            slo: Slo {
                ttft_ms: 1_500.0,
                tpot_ms: 500.0,
            },
        },
        Scale::Tiny => PplShape {
            models: vec!["Tiny"],
            schemes: vec![SchemeSpec::Fp16, SchemeSpec::Bfp(4), SchemeSpec::BBAL_PAPER],
            sequences: 2,
            seq_len: 8,
            slo: Slo {
                ttft_ms: 1.0,
                tpot_ms: 1.0,
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(w.name().parse::<Workload>(), Ok(w));
        }
        assert!("nope".parse::<Workload>().is_err());
    }

    #[test]
    fn generation_is_seeded() {
        let shape = prefix_pressure(Scale::Full);
        let a = shape.requests(3);
        assert_eq!(a, shape.requests(3));
        assert_ne!(a, shape.requests(4));
        assert!(a.iter().all(|r| r.prompt.len() == 256 + 32));
        assert!(a.iter().all(|r| r.prompt[..256] == a[0].prompt[..256]));
        assert!(a.iter().all(|r| r.max_new_tokens <= 8));
    }

    #[test]
    fn decode_stream_shape() {
        let shape = decode_stream(Scale::Full);
        let reqs = shape.requests(1);
        assert!(reqs.len() >= 100);
        assert!(reqs.iter().all(|r| r.max_new_tokens >= 64));
        assert!(reqs.iter().all(|r| (8..=24).contains(&r.prompt.len())));
    }
}
