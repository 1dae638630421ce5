//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `{id, parent, trace, name, start, end, count}`: `trace` is
//! the window (or scenario) every span of one unit of work shares, and
//! `count` is how many calls the span covers when a batch is timed as
//! one. Spans stay in memory and are written out when the run ends.
//!
//! The program has no spans of its own yet, so what happens *inside* one
//! public call (a window tick) is measured by running the same sub-calls
//! again on the same inputs right after it. Those spans are marked
//! `shadow`: they are children of the call they explain, but their
//! timestamps lie after it. A span's self time is its duration minus the
//! durations of its children, shadow or not.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone)]
pub struct Span {
    pub id: u32,
    /// 0 for a root.
    pub parent: u32,
    pub trace: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u32,
    pub shadow: bool,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

/// One row of the per-layer table: every span of one name.
pub struct LayerRow {
    pub name: &'static str,
    pub spans: u64,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Median over spans of duration ÷ calls.
    pub median_call_ns: f64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        // Room for a long traced run up front, touched once: growing the
        // vector inside a span would charge a copy of every earlier span to
        // that span, and a first write to a fresh page a page fault.
        let blank = Span {
            id: 0,
            parent: 0,
            trace: 0,
            name: "",
            start_ns: 0,
            end_ns: 0,
            count: 0,
            shadow: false,
        };
        let mut spans = vec![blank; 1 << 17];
        spans.clear();
        Tracer {
            t0: Instant::now(),
            spans,
        }
    }

    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, trace: u32) -> u32 {
        let now = self.now();
        self.push(name, parent, trace, now, now, 1, false)
    }

    pub fn close(&mut self, id: u32, count: u32) {
        let now = self.now();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = now;
        span.count = count;
    }

    /// Times `f` as one span covering `count` calls.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        trace: u32,
        count: u32,
        shadow: bool,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, parent, trace, start, end, count, shadow);
        out
    }

    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        trace: u32,
        start_ns: u64,
        end_ns: u64,
        count: u32,
        shadow: bool,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns,
            end_ns,
            count,
            shadow,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals with self time (duration minus children).
    pub fn layers(&self) -> Vec<LayerRow> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.dur();
        }
        let mut rows: BTreeMap<&'static str, (LayerRow, Vec<f64>)> = BTreeMap::new();
        for s in &self.spans {
            let (row, per_call) = rows.entry(s.name).or_insert_with(|| {
                (
                    LayerRow {
                        name: s.name,
                        spans: 0,
                        calls: 0,
                        total_ns: 0,
                        self_ns: 0,
                        median_call_ns: 0.0,
                    },
                    Vec::new(),
                )
            });
            row.spans += 1;
            row.calls += s.count as u64;
            row.total_ns += s.dur();
            row.self_ns += s.dur().saturating_sub(child_ns[s.id as usize]);
            if s.count > 0 {
                per_call.push(s.dur() as f64 / s.count as f64);
            }
        }
        rows.into_values()
            .map(|(mut row, mut per_call)| {
                row.median_call_ns = stats::median(&mut per_call);
                row
            })
            .collect()
    }

    /// Median per-call nanoseconds of spans named `name` (0 if none).
    pub fn median_call_ns(&self, name: &str) -> f64 {
        let mut v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.count > 0)
            .map(|s| s.dur() as f64 / s.count as f64)
            .collect();
        stats::median(&mut v)
    }

    /// Total nanoseconds of spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .sum()
    }

    /// The share of a root span named `root` that its direct children
    /// account for, at the first percentile over those roots: all but one
    /// root in a hundred are covered at least this well (1 when there are
    /// no such roots). Not the minimum, because one preemption between two
    /// children of a ten-microsecond root would be the whole answer.
    pub fn root_coverage_p01(&self, root: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in self.spans.iter().filter(|s| !s.shadow) {
            child_ns[s.parent as usize] += s.dur();
        }
        let mut shares: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.parent == 0 && s.name == root && s.dur() > 0)
            .map(|s| child_ns[s.id as usize] as f64 / s.dur() as f64)
            .collect();
        if shares.is_empty() {
            return 1.0;
        }
        stats::quantile(&mut shares, 0.01)
    }

    /// The per-layer table, one line per span name.
    pub fn table(&self) -> String {
        let mut out = String::from(
            "span                      spans      calls    total_ms     self_ms  median_call_ns\n",
        );
        for r in self.layers() {
            let _ = writeln!(
                out,
                "{:<24} {:>6} {:>10} {:>11.3} {:>11.3} {:>15.1}",
                r.name,
                r.spans,
                r.calls,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6,
                r.median_call_ns
            );
        }
        out
    }

    /// The whole trace as JSON: `header` (already JSON) plus the spans.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 110 + header.len() + 64);
        let _ = write!(
            out,
            "{{\"header\": {header}, \"unit\": \"ns\", \"spans\": ["
        );
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}{{\"id\": {}, \"parent\": {}, \"trace\": {}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"count\": {}, \"shadow\": {}}}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns, s.count, s.shadow
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children_shadow_or_not() {
        let mut t = Tracer::new();
        let root = t.push("window", 0, 7, 0, 1000, 1, false);
        let tick = t.push("enforce.tick", root, 7, 100, 900, 1, false);
        t.push("http.parse_head", root, 7, 0, 100, 10, false);
        // A shadow child lies after its parent in time but still explains it.
        t.push("sched.plan_window", tick, 7, 2000, 2600, 1, true);
        let rows = t.layers();
        let row = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        assert_eq!(row("window").self_ns, 100);
        assert_eq!(row("enforce.tick").self_ns, 200);
        assert_eq!(row("sched.plan_window").self_ns, 600);
        assert_eq!(row("http.parse_head").calls, 10);
        assert_eq!(row("http.parse_head").median_call_ns, 10.0);
        assert!((t.root_coverage_p01("window") - 0.9).abs() < 1e-12);
        assert_eq!(t.total_ns("enforce.tick"), 800);
    }

    #[test]
    fn json_round_trips_through_the_repo_parser() {
        let mut t = Tracer::new();
        let id = t.open("window", 0, 1);
        t.timed("lp.plan_with", id, 1, 1, true, || ());
        t.close(id, 1);
        let text = t.to_json("{\"nproc\": 2}");
        let v = covenant_core::json::Value::parse(&text).expect("valid JSON");
        let spans = v.get("spans").and_then(|s| s.as_array()).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[1].get("name").and_then(|n| n.as_str()),
            Some("lp.plan_with")
        );
        assert_eq!(spans[1].get("parent").and_then(|n| n.as_usize()), Some(1));
    }
}
