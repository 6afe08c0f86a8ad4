//! The result line: correctness, request counts and named metrics, as
//! one JSON object, plus the small statistics helpers every workload
//! shares.

use bbal_accel::SimReport;
use bbal_llm::graph::GemmKind;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Requests (serve workloads) or lineup rows (`ppl_eval`) sent.
    pub attempted: u64,
    /// Of those, rejected or errored.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines (tables, failed checks) for standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Outcome {
        Outcome {
            correct: true,
            attempted,
            failed,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("CHECK FAILED: {}", what.into()));
        }
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A JSON number with every digit Rust's shortest round-trip format
/// gives; non-finite values (never expected) become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, the rule `ServeReport` uses (0 when empty).
pub fn pct(values: &[f64], p: f64) -> f64 {
    bbal_serve::percentile(values, p).unwrap_or(0.0)
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time this process has used so far (every thread, user and
/// system), in seconds. Time the hypervisor steals from the machine is
/// not in it, which makes it the steadier host-cost figure on a shared
/// host.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15, in clock ticks (100 Hz).
    let rest = stat.rfind(')').map(|i| &stat[i + 1..]);
    let mut fields = rest.into_iter().flat_map(str::split_whitespace).skip(11);
    let mut tick = || -> Option<f64> { fields.next()?.parse().ok() };
    match (tick(), tick()) {
        (Some(utime), Some(stime)) => Ok((utime + stime) / 100.0),
        _ => Err("unreadable /proc/self/stat".to_owned()),
    }
}

/// FNV-1a over a sequence of token streams: the digest pinned for the
/// default seed.
pub fn token_digest<'a>(streams: impl Iterator<Item = &'a [usize]>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for stream in streams {
        eat(stream.len() as u64);
        for &t in stream {
            eat(t as u64);
        }
    }
    h
}

/// Simulated cycles summed over `SimReport`s, split by op class.
#[derive(Debug, Default)]
pub struct SimCycles {
    pub linear: u64,
    pub nonlinear: u64,
    pub gemm: BTreeMap<GemmKind, u64>,
}

impl SimCycles {
    pub fn add(&mut self, r: &SimReport) {
        self.linear += r.linear_cycles;
        self.nonlinear += r.nonlinear_cycles;
        for (kind, c) in &r.gemm_cycles {
            *self.gemm.entry(*kind).or_insert(0) += c;
        }
    }

    pub fn total(&self) -> u64 {
        self.linear + self.nonlinear
    }

    pub fn nonlinear_share(&self) -> f64 {
        self.nonlinear as f64 / self.total().max(1) as f64
    }

    /// Share of all cycles per GEMM kind, then the nonlinear share: the
    /// simulated side of the per-layer table.
    pub fn shares(&self) -> Vec<(String, f64)> {
        let total = self.total().max(1) as f64;
        self.gemm
            .iter()
            .map(|(k, c)| (format!("gemm {k:?}"), *c as f64 / total))
            .chain([("nonlinear".to_owned(), self.nonlinear_share())])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_required_keys() {
        let mut o = Outcome::new(3, 0);
        o.push("setup_s", 0.25, "s");
        o.push("output_match", 1.0, "share");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"output_match\": {\"value\": 1, \"unit\": \"share\"}}}"
        );
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(pct(&v, 90.0), 90.0);
    }
}
