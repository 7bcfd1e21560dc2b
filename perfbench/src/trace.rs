//! The benchmark-owned span recorder.
//!
//! Spans are recorded from *outside* the program, around the benchmark's
//! calls into each layer's public functions (spans inside the program are a
//! later change). A span is `(name, start, end, parent, request)`; spans of
//! one request share its id. Everything stays in memory until the run ends;
//! a disabled recorder takes no clock readings at all, so the untraced run
//! that produces the end-to-end metrics pays nothing.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::Json;

/// One recorded span. Times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.exec`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall time covered.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Recorder::begin`]; pass it back to
/// [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
#[must_use = "an unfinished span never gets an end time"]
pub struct SpanId(Option<usize>);

/// An in-memory span log for one thread of the load generator.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that records nothing and reads no clock.
    pub fn off() -> Recorder {
        Recorder::new(false, Instant::now())
    }

    /// A recording recorder whose times count from `origin` (threads of
    /// one run share an origin so their spans line up).
    pub fn on(origin: Instant) -> Recorder {
        Recorder::new(true, origin)
    }

    /// A recorder that records iff `enabled`.
    pub fn new(enabled: bool, origin: Instant) -> Recorder {
        Recorder {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Close a span opened by [`Recorder::begin`]. Spans close innermost
    /// first; closing out of order is a bug in the benchmark.
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(idx), "spans must nest");
        self.spans[idx].end_ns = now;
    }

    /// Time `f` as one child span and hand back its result.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Record an already-measured root span (a request timed with one
    /// clock pair, which is also its latency sample).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, took: Duration) {
        if !self.enabled {
            return;
        }
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + took.as_nanos() as u64,
            parent: self.open.last().copied(),
            request,
        });
    }

    /// All closed spans, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another thread's spans (parents re-based).
    pub fn merge(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per span, the time its direct children cover.
    fn covered_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        covered
    }

    /// Write the spans to `<scratch>/trace_<workload>.json`; a failure to
    /// write is reported on stderr and does not fail the run (the metrics
    /// are already computed).
    pub fn write_trace(&self, workload: &str) {
        let dir = crate::host::scratch_root();
        let path = dir.join(format!("trace_{workload}.json"));
        let result = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, self.to_json().compact()));
        match result {
            Ok(()) => eprintln!("trace: {} spans -> {}", self.spans.len(), path.display()),
            Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
        }
    }

    /// Total duration per span name, in milliseconds.
    pub fn totals_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += s.duration_ns() as f64 / 1e6;
        }
        out
    }

    /// Self time per span name in milliseconds: each span's duration minus
    /// what its direct children cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(self.covered_ns()) {
            *out.entry(s.name).or_insert(0.0) +=
                s.duration_ns().saturating_sub(covered) as f64 / 1e6;
        }
        out
    }

    /// Share of root-span (request) time not covered by child spans.
    /// `0.0` with no spans.
    pub fn unattributed_share(&self) -> f64 {
        let (mut total, mut bare) = (0u64, 0u64);
        for (s, covered) in self.spans.iter().zip(self.covered_ns()) {
            if s.parent.is_none() {
                total += s.duration_ns();
                bare += s.duration_ns().saturating_sub(covered);
            }
        }
        if total == 0 {
            0.0
        } else {
            bare as f64 / total as f64
        }
    }

    /// The trace file: one object per span, begin order.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let mut o = Json::obj();
                    o.push("id", i)
                        .push("name", s.name)
                        .push("start_ns", s.start_ns)
                        .push("end_ns", s.end_ns)
                        .push("parent", s.parent.map_or(Json::Null, Json::from))
                        .push("request", s.request);
                    o
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::off();
        let id = rec.begin("a", 1);
        rec.end(id);
        rec.record("b", 1, Instant::now(), Duration::from_millis(1));
        assert_eq!(rec.span("c", 1, || 7), 7);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.unattributed_share(), 0.0);
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut rec = Recorder::on(Instant::now());
        let root = rec.begin("request", 9);
        rec.span("child", 9, || std::thread::sleep(Duration::from_millis(4)));
        rec.span("child", 9, || std::thread::sleep(Duration::from_millis(4)));
        std::thread::sleep(Duration::from_millis(2));
        rec.end(root);

        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.request == 9 && s.end_ns >= s.start_ns));

        let totals = rec.totals_ms();
        let selfs = rec.self_ms();
        assert!(totals["child"] >= 8.0);
        assert!((selfs["child"] - totals["child"]).abs() < 1e-9);
        assert!((selfs["request"] - (totals["request"] - totals["child"])).abs() < 1e-6);
        let share = rec.unattributed_share();
        assert!(share > 0.0 && share < 0.6, "bare share {share}");
    }

    #[test]
    fn merge_rebases_parents() {
        let origin = Instant::now();
        let mut a = Recorder::on(origin);
        a.span("x", 1, || ());
        let mut b = Recorder::on(origin);
        let root = b.begin("root", 2);
        b.span("leaf", 2, || ());
        b.end(root);
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.to_json().items().len(), 3);
    }
}
