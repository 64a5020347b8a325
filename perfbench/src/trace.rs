//! In-memory spans for the traced run.
//!
//! Every thread that calls into a layer owns a [`SpanLog`].  A span is
//! opened right before a layer call and closed right after it; the span
//! open at that moment on the same thread is its parent, and every span
//! carries the id of the request it served (a transaction, window,
//! document or round).  Spans stay in memory: each time a thread has no
//! span open and its buffer is large, the buffer is folded into per-layer
//! totals with [`self_times`] and only a bounded prefix is kept for the
//! dump written at exit.  With tracing off, opening and closing a span is
//! one untaken branch.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed layer call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `wal.append`.
    pub name: &'static str,
    /// The request this call served.
    pub req: u64,
    /// Start and end, in nanoseconds since the run's epoch.
    pub start: u64,
    /// See [`Span::start`].
    pub end: u64,
    /// Index of the parent span in the same buffer.
    pub parent: Option<usize>,
}

/// Per-layer totals folded from spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans of this name.
    pub calls: u64,
    /// Summed span durations, in nanoseconds.
    pub total_ns: u64,
    /// Summed self time: each span's duration minus the part of it its
    /// child spans cover.
    pub self_ns: u64,
}

impl LayerTime {
    fn add(&mut self, other: LayerTime) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }
}

/// Fold a buffer of closed spans into per-name totals.  A span's self time
/// is its duration minus the length of the union of its children's
/// intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start, span.end));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, kids) in spans.iter().zip(&mut children) {
        let duration = span.end.saturating_sub(span.start);
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start;
        for &(start, end) in kids.iter() {
            let (start, end) = (start.max(reach), end.min(span.end));
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        let entry = out.entry(span.name).or_default();
        entry.calls += 1;
        entry.total_ns += duration;
        entry.self_ns += duration - covered.min(duration);
    }
    out
}

/// Buffer size at which an idle thread folds its spans.
const FOLD_AT: usize = 1 << 14;
/// Spans per thread kept for the dump.
const KEEP: usize = 1 << 15;

/// One thread's span recorder.
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    totals: BTreeMap<&'static str, LayerTime>,
    kept: Vec<Span>,
    recorded: u64,
}

/// Handle for an open span (`usize::MAX` when tracing is off).
#[must_use]
pub struct Open(usize);

impl SpanLog {
    /// A log whose timestamps count from `epoch`; records nothing unless
    /// `enabled`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        SpanLog {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            totals: BTreeMap::new(),
            kept: Vec::new(),
            recorded: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span for a call into layer `name` on behalf of request `req`.
    pub fn open(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span { name, req, start, end: start, parent: self.open.last().copied() });
        self.open.push(index);
        Open(index)
    }

    /// Close `span` (spans close innermost first).
    pub fn close(&mut self, span: Open) {
        if span.0 == usize::MAX {
            return;
        }
        let end = self.now();
        self.spans[span.0].end = end;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(span.0), "spans close innermost first");
        if self.open.is_empty() && self.spans.len() >= FOLD_AT {
            self.fold();
        }
    }

    /// Record an already-timed call as a closed root-or-child span.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span =
            Span { name, req, start: at(start), end: at(end), parent: self.open.last().copied() };
        self.spans.push(span);
        if self.open.is_empty() && self.spans.len() >= FOLD_AT {
            self.fold();
        }
    }

    fn fold(&mut self) {
        for (name, time) in self_times(&self.spans) {
            self.totals.entry(name).or_default().add(time);
        }
        self.recorded += self.spans.len() as u64;
        if self.kept.len() < KEEP {
            let offset = self.kept.len();
            self.kept.extend(
                self.spans.iter().map(|s| Span { parent: s.parent.map(|p| p + offset), ..*s }),
            );
        }
        self.spans.clear();
    }

    /// Fold what is left and hand back the totals, the kept spans and the
    /// number of spans recorded.
    pub fn finish(mut self) -> (BTreeMap<&'static str, LayerTime>, Vec<Span>, u64) {
        assert!(self.open.is_empty(), "every span is closed before the log is finished");
        self.fold();
        (self.totals, self.kept, self.recorded)
    }
}

/// Everything the threads of one run traced, merged.
#[derive(Default)]
pub struct Trace {
    totals: BTreeMap<&'static str, LayerTime>,
    threads: Vec<(String, Vec<Span>)>,
    recorded: u64,
}

impl Trace {
    /// Absorb one thread's log under `thread` (its name in the dump).
    pub fn absorb(&mut self, thread: impl Into<String>, log: SpanLog) {
        let (totals, kept, recorded) = log.finish();
        for (name, time) in totals {
            self.totals.entry(name).or_default().add(time);
        }
        self.recorded += recorded;
        if !kept.is_empty() {
            self.threads.push((thread.into(), kept));
        }
    }

    /// Totals for layer call `name` (zero when never called).
    pub fn layer(&self, name: &str) -> LayerTime {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Every layer call name seen, with its totals.
    pub fn layers(&self) -> &BTreeMap<&'static str, LayerTime> {
        &self.totals
    }

    /// Spans recorded across all threads.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Write the kept spans as JSON lines: one
    /// `{"thread","name","req","start_ns","end_ns","parent"}` object each,
    /// `parent` indexing the same thread's spans in file order.
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (thread, spans) in &self.threads {
            for span in spans {
                writeln!(
                    out,
                    "{{\"thread\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                    tm_telemetry::json::quote(thread),
                    span.name,
                    span.req,
                    span.start,
                    span.end,
                    span.parent.map_or("null".to_string(), |p| p.to_string()),
                )?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, req: 0, start, end, parent }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let spans = [
            span("round", 0, 100, None),
            span("append", 10, 30, Some(0)),
            span("seal", 50, 60, Some(0)),
            // A grandchild counts against its parent only.
            span("fsync", 52, 58, Some(2)),
        ];
        let times = self_times(&spans);
        assert_eq!(times["round"], LayerTime { calls: 1, total_ns: 100, self_ns: 70 });
        assert_eq!(times["append"], LayerTime { calls: 1, total_ns: 20, self_ns: 20 });
        assert_eq!(times["seal"], LayerTime { calls: 1, total_ns: 10, self_ns: 4 });
        assert_eq!(times["fsync"], LayerTime { calls: 1, total_ns: 6, self_ns: 6 });
    }

    #[test]
    fn overlapping_and_overhanging_children_are_covered_once() {
        let spans = [
            span("parent", 100, 200, None),
            span("child", 90, 130, Some(0)), // overhangs the start: 30 covered
            span("child", 120, 150, Some(0)), // overlaps the first: 20 more
            span("child", 190, 260, Some(0)), // overhangs the end: 10 more
        ];
        let times = self_times(&spans);
        assert_eq!(times["parent"].self_ns, 40);
        assert_eq!(times["child"].calls, 3);
    }

    #[test]
    fn the_log_nests_spans_and_folds_them_into_the_same_totals() {
        let mut log = SpanLog::new(true, Instant::now());
        for req in 0..3 {
            let outer = log.open("outer", req);
            let inner = log.open("inner", req);
            log.close(inner);
            log.close(outer);
        }
        let (totals, kept, recorded) = log.finish();
        assert_eq!(recorded, 6);
        assert_eq!(totals["outer"].calls, 3);
        assert_eq!(kept[1].parent, Some(0));
        assert_eq!(kept[3].parent, Some(2));
        let inner = totals["inner"].total_ns;
        assert_eq!(totals["outer"].self_ns, totals["outer"].total_ns - inner);
    }

    #[test]
    fn a_disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, Instant::now());
        let s = log.open("x", 1);
        log.close(s);
        log.record("y", 1, Instant::now(), Instant::now());
        let (totals, kept, recorded) = log.finish();
        assert!(totals.is_empty() && kept.is_empty());
        assert_eq!(recorded, 0);
    }
}
