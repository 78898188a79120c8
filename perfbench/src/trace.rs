//! In-memory spans recorded by the benchmark around its calls into the
//! simulator's public interfaces.
//!
//! A span is a name, a start, an end and the span that was open when it
//! began. Spans are kept in memory and written out once the run ends, so
//! recording one costs two clock reads. A layer's self time is its spans'
//! duration minus the part their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only runs
/// its body, so the untraced end-to-end run carries no span cost.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    laps: Vec<f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), laps: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `body` inside a span called `name`.
    pub fn span<T>(&mut self, name: &str, body: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return body(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span { name: name.to_string(), start_ns, end_ns: start_ns, parent: self.open.last().copied() });
        self.open.push(idx);
        let out = body(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Like [`Tracer::span`], and also times the call, traced or not,
    /// adding its seconds to the laps [`Tracer::take_laps`] returns.
    pub fn lap<T>(&mut self, name: &str, body: impl FnOnce(&mut Tracer) -> T) -> T {
        let t0 = Instant::now();
        let out = self.span(name, body);
        self.laps.push(t0.elapsed().as_secs_f64());
        out
    }

    /// The laps timed since the last call, in call order.
    pub fn take_laps(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.laps)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_ns();
            }
        }
        own
    }

    /// Totals per span name, in name order.
    pub fn layers(&self) -> BTreeMap<String, LayerTime> {
        let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let l = out.entry(s.name.clone()).or_default();
            l.spans += 1;
            l.total_ns += s.dur_ns();
            l.self_ns += own;
        }
        out
    }

    /// Total duration of the spans called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum()
    }

    /// Self-time table: one row per span name.
    pub fn table(&self) -> String {
        let layers = self.layers();
        let all: u64 = layers.values().map(|l| l.self_ns).sum();
        let mut out = format!("{:<34} {:>8} {:>12} {:>12} {:>7}\n", "span", "count", "total_ms", "self_ms", "self%");
        for (name, l) in &layers {
            let _ = writeln!(
                out,
                "{name:<34} {:>8} {:>12.3} {:>12.3} {:>6.2}%",
                l.spans,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6,
                100.0 * l.self_ns as f64 / all.max(1) as f64
            );
        }
        out
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("a", |t| t.span("b", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut t = Tracer::new(true);
        t.span("root", |t| {
            t.span("child", |t| t.span("leaf", |_| ()));
            t.span("child", |_| ());
        });
        let parents: Vec<Option<usize>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        assert_eq!(t.layers()["child"].spans, 2);
    }
}
