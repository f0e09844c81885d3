//! In-memory spans around calls into the layers' public APIs.
//!
//! The benchmark records spans from its own files only — no span lives
//! inside any workspace crate — so a layer's time is the time of a call
//! into its public API. Spans are pushed into a `Vec` while the run
//! measures and written out once, when the run ends. With tracing off
//! nothing is pushed and no clock is read on the trace's behalf.

use crate::stats;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.factor`.
    pub name: &'static str,
    /// Nanoseconds since the trace was created.
    pub start_ns: u64,
    /// Nanoseconds since the trace was created.
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// The operation (step, ladder call) the span belongs to; spans of
    /// one operation share it.
    pub op: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The span store of one run.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Trace {
    /// A trace that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Trace {
        Trace {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Switches recording on or off (the traced window alternates to
    /// measure the trace's own overhead).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Runs `f` inside a span named `name` under `parent`, returning
    /// `f`'s value and the span's index (`None` when recording is off).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, Option<usize>) {
        if !self.enabled {
            return (f(), None);
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let r = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        (r, Some(self.spans.len() - 1))
    }

    /// Opens a span whose end is set later by [`close`](Self::close):
    /// for an operation that contains child spans.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    /// Ends a span opened by [`open`](Self::open).
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Records a span from two instants measured by the caller (the
    /// fleet's client threads time their own steps and hand them over
    /// after the window).
    pub fn push_measured(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
                end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
                parent: None,
                op,
            });
        }
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Median duration (ms) of the spans named `name`.
    pub fn median_ms(&self, name: &str) -> Option<f64> {
        stats::median(&self.durations_ms(name))
    }

    /// A span's self time (ms): its duration minus the part of it its
    /// direct children cover. Children of one parent are sequential
    /// calls on one thread here, so their durations add.
    pub fn self_ms(&self, id: usize) -> f64 {
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ms)
            .sum();
        self.spans[id].ms() - covered
    }

    /// Self time of a ladder rung: the median of the rung's spans minus
    /// the median of the spans of the rung below it on the same input.
    /// The ladder calls each layer separately (a span cannot be placed
    /// inside a crate), so the rung below stands in for the child span.
    /// `None` when either rung has no span.
    pub fn rung_self_ms(&self, rung: &str, below: &[&str]) -> Option<f64> {
        let mut t = self.median_ms(rung)?;
        for b in below {
            t -= self.median_ms(b)?;
        }
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: Vec<Span>) -> Trace {
        Trace {
            origin: Instant::now(),
            enabled: true,
            spans,
        }
    }

    fn sp(name: &'static str, start_ms: u64, end_ms: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start_ms * 1_000_000,
            end_ns: end_ms * 1_000_000,
            parent,
            op: 0,
        }
    }

    #[test]
    fn disabled_trace_records_nothing_and_still_runs_the_call() {
        let mut t = Trace::new(false);
        let (v, id) = t.span("x", 0, None, || 7);
        assert_eq!((v, id), (7, None));
        assert_eq!(t.open("y", 0, None), None);
        t.close(None);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_by_parent_and_share_an_op() {
        let mut t = Trace::new(true);
        let op = t.open("client.step", 9, None);
        let (_, a) = t.span("api.session.step", 9, op, || ());
        let (_, b) = t.span("api.session.solve_refined", 9, op, || ());
        t.close(op);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[a.unwrap()].parent, op);
        assert_eq!(t.spans()[b.unwrap()].parent, op);
        assert!(t.spans().iter().all(|s| s.op == 9));
        let outer = &t.spans()[op.unwrap()];
        assert!(outer.end_ns >= t.spans()[b.unwrap()].end_ns);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op 0..100 ms, children 10..40 and 50..90, grandchild 55..60.
        let t = fixed(vec![
            sp("op", 0, 100, None),
            sp("a", 10, 40, Some(0)),
            sp("b", 50, 90, Some(0)),
            sp("c", 55, 60, Some(2)),
        ]);
        assert_eq!(t.self_ms(0), 30.0);
        assert_eq!(t.self_ms(2), 35.0);
        assert_eq!(t.self_ms(3), 5.0);
    }

    #[test]
    fn rung_self_time_is_median_minus_medians_below() {
        let t = fixed(vec![
            sp("session", 0, 10, None),
            sp("session", 0, 12, None),
            sp("session", 0, 50, None), // outlier: the median ignores it
            sp("refactor", 0, 7, None),
            sp("solve", 0, 2, None),
        ]);
        assert_eq!(t.rung_self_ms("session", &["refactor", "solve"]), Some(3.0));
        assert_eq!(t.rung_self_ms("session", &["missing"]), None);
        assert_eq!(t.rung_self_ms("missing", &[]), None);
    }
}
