//! In-memory spans for the traced runs.
//!
//! A span is a per-op aggregate of the calls into one layer boundary:
//! its name, the span that caused it, how many calls it covers, the
//! first start and last end (relative to the op's start) and the summed
//! duration. Aggregating per op keeps memory flat while a run makes
//! millions of sub-microsecond calls; the op id ties the spans of one op
//! together. Everything stays in memory until [`Tracer::write_jsonl`]
//! writes it out after the measurement ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::measure::OpLog;
use crate::{Args, Report};

/// One aggregated span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub calls: u64,
    pub first_start_ns: u64,
    pub last_end_ns: u64,
    pub total_ns: u64,
}

/// The spans of one op while it runs.
pub struct OpTrace {
    start: Instant,
    spans: Vec<Span>,
}

impl OpTrace {
    pub fn start() -> Self {
        Self::start_at(Instant::now())
    }

    /// An op that began at `start` (for ops timed from outside).
    pub fn start_at(start: Instant) -> Self {
        OpTrace {
            start,
            spans: Vec::new(),
        }
    }

    /// The index of span `name` under `parent`, created on first use.
    pub fn span(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        if let Some(i) = self
            .spans
            .iter()
            .position(|s| s.name == name && s.parent == parent)
        {
            return i;
        }
        self.spans.push(Span {
            name,
            parent,
            calls: 0,
            first_start_ns: u64::MAX,
            last_end_ns: 0,
            total_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Records one call into span `idx` that ran from `start` to `end`.
    pub fn record(&mut self, idx: usize, start: Instant, end: Instant) {
        let rel = |t: Instant| t.saturating_duration_since(self.start).as_nanos() as u64;
        let (s, e) = (rel(start), rel(end));
        let span = &mut self.spans[idx];
        span.calls += 1;
        span.first_start_ns = span.first_start_ns.min(s);
        span.last_end_ns = span.last_end_ns.max(e);
        span.total_ns += e - s;
    }

    /// Times `f` as one call of span `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.span(name, parent);
        let start = Instant::now();
        let out = f();
        self.record(idx, start, Instant::now());
        out
    }

    /// Adds `calls` calls totalling `ns` to child span `name` of `parent`,
    /// for calls timed by a wrapper inside the parent's interval.
    pub fn add_child(&mut self, name: &'static str, parent: usize, calls: u64, ns: u64) {
        let (s, e) = (
            self.spans[parent].first_start_ns,
            self.spans[parent].last_end_ns,
        );
        let idx = self.span(name, Some(parent));
        let span = &mut self.spans[idx];
        span.calls += calls;
        span.total_ns += ns;
        span.first_start_ns = span.first_start_ns.min(s);
        span.last_end_ns = span.last_end_ns.max(e);
    }

    /// Closes the op; its wall clock runs from its start to now.
    pub fn finish(self) -> FinishedOp {
        self.finish_at(Instant::now())
    }

    /// Closes the op at `end`.
    pub fn finish_at(self, end: Instant) -> FinishedOp {
        FinishedOp {
            wall_ns: end.saturating_duration_since(self.start).as_nanos() as u64,
            spans: self.spans,
        }
    }
}

/// A closed op: its independently measured wall clock and its spans.
pub struct FinishedOp {
    pub wall_ns: u64,
    pub spans: Vec<Span>,
}

impl FinishedOp {
    fn self_ns(&self, idx: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| s.total_ns)
            .sum();
        self.spans[idx].total_ns.saturating_sub(children)
    }
}

/// Every traced op of a run.
#[derive(Default)]
pub struct Tracer {
    ops: Vec<FinishedOp>,
}

impl Tracer {
    pub fn push(&mut self, op: FinishedOp) {
        self.ops.push(op);
    }

    fn wall_ns(&self) -> f64 {
        self.ops.iter().map(|o| o.wall_ns as f64).sum()
    }

    /// Summed duration of every span named `name`, as a share of the
    /// summed op wall clock.
    pub fn share(&self, name: &str) -> f64 {
        let ns: u64 = self
            .ops
            .iter()
            .flat_map(|o| &o.spans)
            .filter(|s| s.name == name)
            .map(|s| s.total_ns)
            .sum();
        ns as f64 / self.wall_ns()
    }

    /// Summed self time of the top-level spans (their duration minus
    /// what their children cover), as a share of the op wall clock.
    pub fn top_level_self_share(&self) -> f64 {
        let ns: u64 = self
            .ops
            .iter()
            .map(|o| {
                (0..o.spans.len())
                    .filter(|&i| o.spans[i].parent.is_none())
                    .map(|i| o.self_ns(i))
                    .sum::<u64>()
            })
            .sum();
        ns as f64 / self.wall_ns()
    }

    /// Summed self time of all spans over the op wall clock. Self times
    /// partition the top-level spans, so this is the share of the wall
    /// clock the spans account for.
    pub fn coverage(&self) -> f64 {
        let ns: u64 = self
            .ops
            .iter()
            .map(|o| (0..o.spans.len()).map(|i| o.self_ns(i)).sum::<u64>())
            .sum();
        ns as f64 / self.wall_ns()
    }

    /// Calls recorded under span `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.ops
            .iter()
            .flat_map(|o| &o.spans)
            .filter(|s| s.name == name)
            .map(|s| s.calls)
            .sum()
    }

    /// Mean traced nanoseconds per call of span `name` (timer cost
    /// included).
    pub fn ns_per_call(&self, name: &str) -> f64 {
        let ns: u64 = self
            .ops
            .iter()
            .flat_map(|o| &o.spans)
            .filter(|s| s.name == name)
            .map(|s| s.total_ns)
            .sum();
        ns as f64 / self.calls(name) as f64
    }

    /// Writes one JSON object per span, tagged with its op id.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (op, finished) in self.ops.iter().enumerate() {
            let _ = writeln!(out, "{{\"op\":{op},\"wall_ns\":{}}}", finished.wall_ns);
            for (i, s) in finished.spans.iter().enumerate() {
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                let _ = writeln!(
                    out,
                    "{{\"op\":{op},\"span\":{i},\"name\":\"{}\",\"parent\":{parent},\"calls\":{},\
                     \"first_start_ns\":{},\"last_end_ns\":{},\"total_ns\":{},\"self_ns\":{}}}",
                    s.name,
                    s.calls,
                    s.first_start_ns,
                    s.last_end_ns,
                    s.total_ns,
                    finished.self_ns(i)
                );
            }
        }
        std::fs::write(path, out)
    }
}

/// Shared tail of every traced run: the span-coverage gate, the tracing
/// overhead, and the spans written out.
pub fn finish_trace(
    args: &Args,
    report: &mut Report,
    tracer: &Tracer,
    plain: &OpLog,
    traced: &OpLog,
) -> Result<(), String> {
    let coverage = tracer.coverage();
    if (coverage - 1.0).abs() > 0.10 {
        report.problem(format!(
            "span self times cover {coverage:.3} of the op wall clock (gate: within 10%)"
        ));
    }
    report.set("trace.span_coverage", coverage);
    report.set(
        "trace.overhead_frac",
        1.0 - traced.work_per_s() / plain.work_per_s(),
    );
    let path = args
        .work_dir
        .join("trace")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_times_partition_the_top_level_spans() {
        let mut op = OpTrace::start();
        let outer = op.span("outer", None);
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        op.record(outer, t0, Instant::now());
        op.add_child("inner", outer, 3, 1_000_000);
        let mut tracer = Tracer::default();
        tracer.push(op.finish());
        assert_eq!(tracer.calls("inner"), 3);
        let cover = tracer.coverage();
        assert!(cover > 0.5 && cover <= 1.0, "{cover}");
        let top = tracer.top_level_self_share();
        assert!((cover - top - tracer.share("inner")).abs() < 1e-12);
    }
}
