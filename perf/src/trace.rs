//! Outside-in tracing: a span around every call the harness makes into a
//! layer, recorded from the harness's own files.
//!
//! Phases (`setup`, `run`, …) are always timed, because the end-to-end
//! numbers need their wall time; the spans *inside* a phase are recorded only
//! when tracing is on, so the untraced pass pays one branch per call and the
//! difference between the two passes is the tracing overhead.
//!
//! Spans are kept in memory and written out once, at exit. A span's *self*
//! time is its duration minus the part of that interval its children cover;
//! a phase's self time is the harness's own.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept verbatim for the trace file. Totals keep counting past it, so a
/// long traced run bounds its memory without losing any per-layer number.
const MAX_KEPT_SPANS: usize = 400_000;

/// `parent` of a span opened outside any other span.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span ([`ROOT`] for none).
    pub parent: u32,
    /// The update (or wave / variant) the call served; 0 when there is none.
    pub request: u64,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Total {
    pub ns: u64,
    pub calls: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<u32>,
    totals: BTreeMap<&'static str, Total>,
    dropped: u64,
    /// Summed duration of the root spans (phases) and of their direct
    /// children. The harness is one thread, so a phase's children never
    /// overlap and the difference is the phases' self time — exact even when
    /// leaf spans were dropped from `spans`.
    root_ns: u64,
    root_child_ns: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    inner: RefCell<Inner>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), inner: RefCell::default() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, request: u64) -> u32 {
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let parent = inner.open.last().copied().unwrap_or(ROOT);
        let idx = inner.spans.len() as u32;
        inner.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        inner.open.push(idx);
        idx
    }

    fn close(&self, idx: u32) -> u64 {
        let end_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let popped = inner.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans close innermost first");
        let span = &mut inner.spans[idx as usize];
        span.end_ns = end_ns;
        let (name, ns, parent) = (span.name, end_ns - span.start_ns, span.parent);
        if parent == ROOT {
            inner.root_ns += ns;
        } else if inner.spans[parent as usize].parent == ROOT {
            inner.root_child_ns += ns;
        }
        let total = inner.totals.entry(name).or_default();
        total.ns += ns;
        total.calls += 1;
        // A leaf past the cap is folded into the totals only. Spans with
        // children (phases) are never the last element, so they stay.
        if inner.spans.len() > MAX_KEPT_SPANS && idx as usize == inner.spans.len() - 1 {
            inner.spans.pop();
            inner.dropped += 1;
        }
        ns
    }

    /// Runs `f` as one API span (a no-op wrapper when tracing is off).
    pub fn call<R>(&self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = self.open(name, request);
        let out = f();
        self.close(idx);
        out
    }

    /// Runs `f` as one API span and returns how long it took, in ns. Timed
    /// whether or not tracing is on (for per-call percentiles).
    pub fn timed<R>(&self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> (R, u64) {
        if !self.on {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed().as_nanos() as u64);
        }
        let idx = self.open(name, request);
        let out = f();
        (out, self.close(idx))
    }

    /// Runs `f` as a phase and returns its wall time in seconds. Timed in
    /// both passes; recorded as a span (the parent of the calls inside it)
    /// only when tracing is on.
    pub fn phase<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let (out, ns) = self.timed(name, 0, f);
        (out, ns as f64 / 1e9)
    }

    pub fn total(&self, name: &str) -> Total {
        self.inner.borrow().totals.get(name).copied().unwrap_or_default()
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.total(name).ns as f64 / 1e6
    }

    pub fn calls(&self, name: &str) -> f64 {
        self.total(name).calls as f64
    }

    /// Spans recorded so far (kept or folded into the totals).
    pub fn span_count(&self) -> u64 {
        self.inner.borrow().totals.values().map(|t| t.calls).sum()
    }

    /// Summed self time of every root span (the phases): what the harness
    /// itself spent between its calls into the layers.
    pub fn root_self_ms(&self) -> f64 {
        let inner = self.inner.borrow();
        (inner.root_ns - inner.root_child_ns) as f64 / 1e6
    }

    /// Writes the kept spans as one JSON document; phases carry their self
    /// time (exact unless leaf spans were dropped).
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let inner = self.inner.borrow();
        let mut out = String::with_capacity(inner.spans.len() * 96 + 128);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"dropped_leaf_spans\":{},\"spans\":[",
            inner.dropped
        );
        for (i, s) in inner.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}",
                s.name, s.start_ns, s.end_ns, s.request
            );
            if s.parent == ROOT {
                let _ = write!(out, ",\"self_ns\":{}", self_ns(&inner.spans, i));
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

/// Self time of `spans[idx]`: its duration minus the union of the intervals
/// its direct children cover (clipped to the span, overlaps counted once).
pub fn self_ns(spans: &[Span], idx: usize) -> u64 {
    let me = spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == idx as u32)
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (start, end) in kids {
        let from = start.max(reach);
        if end > from {
            covered += end - from;
            reach = end;
        }
    }
    (me.end_ns - me.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_interval() {
        let spans = vec![
            span("run", 100, 1_100, ROOT),
            span("drive", 200, 500, 0),
            // Overlaps the previous child: only 500..600 is new cover.
            span("answer", 400, 600, 0),
            // Sticks out past the parent: clipped to 1_000..1_100.
            span("sweep", 1_000, 1_300, 0),
            // A grandchild covers nothing of the phase directly.
            span("scan", 250, 300, 1),
            // Another phase's child is not counted.
            span("drive", 150, 1_050, 7),
        ];
        assert_eq!(self_ns(&spans, 0), 1_000 - (300 + 100 + 100));
        assert_eq!(self_ns(&spans, 1), 300 - 50);
        assert_eq!(self_ns(&spans, 4), 50);
    }

    #[test]
    fn spans_and_self_time_sum_to_the_phase() {
        let tr = Tracer::new(true);
        let (_, wall) = tr.phase("run", || {
            for i in 0..50 {
                tr.call("drive", i, || std::hint::black_box((0..2_000u64).sum::<u64>()));
                tr.call("read", i, || tr.call("scan", i, || std::hint::black_box(i * 3)));
            }
        });
        let phase_ns = tr.total("run").ns;
        assert_eq!(wall, phase_ns as f64 / 1e9);
        let children = tr.total("drive").ns + tr.total("read").ns;
        let self_ms = tr.root_self_ms();
        assert_eq!(children + (self_ms * 1e6).round() as u64, phase_ns);
        assert_eq!(tr.calls("scan"), 50.0);
        // The nested span is a child of `read`, not of the phase.
        let inner = tr.inner.borrow();
        let scan = inner.spans.iter().find(|s| s.name == "scan").unwrap();
        assert_eq!(inner.spans[scan.parent as usize].name, "read");
    }

    #[test]
    fn untraced_calls_record_nothing_but_phases_are_still_timed() {
        let tr = Tracer::new(false);
        let (v, wall) = tr.phase("run", || tr.call("drive", 1, || 41 + 1));
        assert_eq!(v, 42);
        assert!(wall > 0.0);
        assert_eq!(tr.total("drive"), Total::default());
        assert!(tr.inner.borrow().spans.is_empty());
    }
}
