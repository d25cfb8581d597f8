//! In-memory spans recorded from the benchmark's own files, around the calls
//! into each layer, and written out once when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Map, Value};

/// One timed call: `parent` is the index of the span that caused it and
/// `frame` ties together the spans of one request frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub frame: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self { origin, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, frame: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, frame });
        self.spans.len() - 1
    }

    /// Close span `id`; returns its duration in microseconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e3
    }

    /// Record a span measured elsewhere (another thread's clock readings
    /// against the same origin).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, frame: u64) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { name, start_ns: ns(start), end_ns: ns(end), parent: None, frame });
    }

    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span in microseconds: its duration minus the time its
    /// direct children cover.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> =
            self.spans.iter().map(|s| (s.end_ns - s.start_ns) as f64 / 1e3).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= (span.end_ns - span.start_ns) as f64 / 1e3;
            }
        }
        own
    }

    /// Median self time per span name, in microseconds.
    pub fn median_self_us_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_us()) {
            by_name.entry(span.name).or_default().push(own);
        }
        by_name.into_iter().map(|(name, v)| (name, crate::stats::median(&v))).collect()
    }

    pub fn to_json(&self) -> Value {
        let mut summary = Map::new();
        for (name, us) in self.median_self_us_by_name() {
            summary.insert(name.to_string(), json!(us));
        }
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent.map_or(Value::Null, Value::from),
                    "frame": s.frame,
                })
            })
            .collect();
        json!({"median_self_us": summary, "spans": spans})
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(Instant::now());
        t.spans = vec![
            Span { name: "parent", start_ns: 0, end_ns: 10_000, parent: None, frame: 1 },
            Span { name: "child", start_ns: 1_000, end_ns: 4_000, parent: Some(0), frame: 1 },
            Span { name: "child", start_ns: 5_000, end_ns: 9_000, parent: Some(0), frame: 1 },
            Span { name: "grandchild", start_ns: 6_000, end_ns: 7_000, parent: Some(2), frame: 1 },
        ];
        assert_eq!(t.self_times_us(), vec![3.0, 3.0, 3.0, 1.0]);
        let medians = t.median_self_us_by_name();
        assert_eq!(medians["parent"], 3.0);
        assert_eq!(medians["grandchild"], 1.0);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let root = a.begin("a", None, 0);
        a.end(root);
        let mut b = Tracer::new(origin);
        let p = b.begin("p", None, 1);
        let c = b.begin("c", Some(p), 1);
        b.end(c);
        b.end(p);
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.spans[2].parent, Some(1));
        assert!(crate::json::parse(&crate::json::compact(&a.to_json())).is_ok());
    }
}
