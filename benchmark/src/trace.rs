//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `{name, start, end, parent, op}`: `op` ties the spans of one
//! operation together, `parent` is the span that caused it. Spans are kept
//! in memory and written out once the run ends. A span's *self time* is its
//! duration minus the part of that interval its children cover; children
//! may overlap (queries of one window run concurrently), so the covered part
//! is the union of their intervals.
//!
//! With tracing off every call is a no-op, so untraced runs pay one branch
//! per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Identifier of a recorded span (index into the span list).
pub type SpanId = u32;

/// Marker for "no span": the parent of root spans, and the id a disabled
/// tracer hands out.
pub const NO_SPAN: SpanId = u32::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    op: u64,
}

/// Span recorder for one run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last; the parent of the next span opened.
    stack: Vec<SpanId>,
}

impl Tracer {
    /// A recorder; with `enabled == false` it records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len() as SpanId;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NO_SPAN),
            op,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end_ns = self.ns(Instant::now());
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records a finished span under the innermost open span, for work whose
    /// interval the caller measured itself (a query in flight beside others).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.stack.last().copied().unwrap_or(NO_SPAN),
            op,
        };
        self.spans.push(span);
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self time of every span in nanoseconds, indexed like the span list.
    fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.clamp(reach, s.end_ns), b.clamp(s.start_ns, s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Total self time in milliseconds per span name.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *totals.entry(s.name).or_insert(0.0) += ns as f64 / 1e6;
        }
        totals
    }

    /// Share of the span `id`'s interval that its children cover.
    pub fn coverage(&self, id: SpanId) -> f64 {
        if id == NO_SPAN {
            return 0.0;
        }
        let span = &self.spans[id as usize];
        let total = span.end_ns - span.start_ns;
        if total == 0 {
            return 0.0;
        }
        1.0 - self.self_ns()[id as usize] as f64 / total as f64
    }

    /// Writes one JSON object per span (times in µs since the run started).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = if s.parent == NO_SPAN {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\
                 \"self_us\":{:.3},\"parent\":{parent},\"op\":{}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                self_ns as f64 / 1e3,
                s.op
            )?;
        }
        out.flush()
    }
}

/// Cost of recording one span on this host, in nanoseconds: opens and closes
/// a throwaway batch of spans. Multiplied by a run's span count it estimates
/// the time tracing added to that run.
pub fn span_cost_ns() -> f64 {
    const SPANS: u64 = 20_000;
    let mut t = Tracer::new(true);
    let root = t.open("calibrate", 0);
    let start = Instant::now();
    for i in 0..SPANS {
        let id = t.open("calibrate", i);
        t.close(id);
    }
    let ns = start.elapsed().as_nanos() as f64 / SPANS as f64;
    t.close(root);
    ns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("window", 0, 100, NO_SPAN),
            span("query", 10, 40, 0),
            span("query", 30, 60, 0),
            span("query", 50, 55, 0),
            span("query", 90, 120, 0),
        ];
        // children cover [10, 60) and [90, 100): 60 of the window's 100
        assert_eq!(t.self_ns()[0], 40);
        assert!((t.coverage(0) - 0.6).abs() < 1e-12);
        assert!((t.self_ms_by_name()["query"] - 95e-6).abs() < 1e-15);
    }
}
