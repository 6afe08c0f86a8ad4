//! Span recording for the traced run.
//!
//! Spans are taken in the benchmark's own code, around its calls into
//! each crate's public functions: name, start, end, parent span and
//! request id. They stay in memory and are written out once, at the
//! end. A span's layer is the part of its name before the first `.`
//! (`llm.decode_step` belongs to `llm`); its self time is its duration
//! minus the part covered by its direct children.

use crate::report::json_number;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The span recorder. Disabled, `begin`/`end` do nothing, so untraced
/// runs pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span with Tracer::end"]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: Option<usize>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span (and any child left open inside it).
    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in nanoseconds, of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Total duration of the spans called `name`, nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum()
    }

    /// Self time per span: duration less the direct children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Self time summed per layer, nanoseconds, in layer-name order.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(s.layer()).or_insert(0) += t;
        }
        out
    }

    /// The spans as a JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
        for (i, span) in self.spans.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                if i > 0 { ",\n" } else { "" },
                span.name,
                span.start_ns,
                span.end_ns,
                span.parent.map_or("null".to_owned(), |p| p.to_string()),
                span.request.map_or("null".to_owned(), |r| r.to_string()),
            );
        }
        s.push_str("\n], \"self_ns_by_layer\": {");
        for (i, (layer, ns)) in self.self_time_by_layer().iter().enumerate() {
            let _ = write!(
                s,
                "{}\"{layer}\": {}",
                if i > 0 { ", " } else { "" },
                json_number(*ns as f64)
            );
        }
        s.push_str("}}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("serve.step", Some(1));
        let inner = t.begin("llm.decode_step", Some(1));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        let selfs = t.self_times_ns();
        assert_eq!(selfs[0] + spans[1].duration_ns(), spans[0].duration_ns());
        let by_layer = t.self_time_by_layer();
        assert!(by_layer["llm"] >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("serve.step", None);
        t.end(id);
        assert!(t.spans().is_empty());
    }
}
