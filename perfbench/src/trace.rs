//! In-memory spans recorded around the benchmark's calls into each
//! layer, plus plain counters.
//!
//! A span is `(name, start, end, parent, unit)`: `parent` is the span
//! open on the same recorder when this one started, `unit` the id of
//! the workload unit (application or job) it worked for. Each thread
//! owns its own [`Tracer`]; recorders are merged after the run. With
//! tracing off, [`Tracer::span`] runs the closure and records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `opt.obccf`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Workload unit the span worked for.
    pub unit: u64,
    /// Recorder (thread) that recorded it.
    pub thread: usize,
}

/// A per-thread span recorder and counter set.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans of this name.
    pub calls: u64,
    /// Summed duration, seconds.
    pub busy_s: f64,
}

impl Tracer {
    /// A recorder; `on = false` records no spans.
    #[must_use]
    pub fn new(on: bool, epoch: Instant, thread: usize) -> Tracer {
        Tracer {
            on,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for workload unit `unit`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        unit: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            unit,
            thread: self.thread,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Adds `by` to counter `name`.
    pub fn add(&mut self, name: &'static str, by: f64) {
        *self.counters.entry(name).or_insert(0.0) += by;
    }

    /// A counter's value (0 when never added to).
    #[must_use]
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans and counters into this recorder.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        for (name, v) in other.counters {
            self.add(name, v);
        }
    }

    /// Per-name totals: calls and summed duration.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.busy_s += s.end.saturating_sub(s.start) as f64 * 1e-9;
        }
        out
    }

    /// Summed duration of the top-level spans, seconds — equivalently,
    /// the summed self time of all spans: the part of the run the spans
    /// account for.
    #[must_use]
    pub fn covered_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end.saturating_sub(s.start) as f64 * 1e-9)
            .sum()
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"unit\":{},\"thread\":{}}}",
                s.name, s.start, s.end, s.unit, s.thread
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {}
    }

    #[test]
    fn untraced_recorder_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let v = t.span("a", 1, |t| t.span("b", 1, |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.covered_s(), 0.0);
    }

    #[test]
    fn nested_spans_record_parents_and_coverage_counts_top_level_once() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.span("outer", 3, |t| {
            spin(200);
            t.span("inner", 3, |_| spin(400));
        });
        t.span("outer", 4, |_| spin(100));
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].unit, 3);
        assert_eq!(spans[2].parent, None);
        let totals = t.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(outer.calls, 2);
        assert!(inner.busy_s >= 400e-6);
        assert!(
            outer.busy_s >= 700e-6,
            "the outer spans include the inner one"
        );
        assert!((t.covered_s() - outer.busy_s).abs() < 1e-12);
    }

    #[test]
    fn merge_rebases_parents_and_adds_counters() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch, 0);
        a.span("x", 0, |_| {});
        a.add("n", 2.0);
        let mut b = Tracer::new(true, epoch, 1);
        b.span("y", 1, |t| t.span("z", 1, |_| {}));
        b.add("n", 3.0);
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[2].thread, 1);
        assert_eq!(a.counter("n"), 5.0);
        assert_eq!(a.to_jsonl().lines().count(), 3);
    }
}
