//! Spans around layer calls: recorded in memory, reduced to per-layer
//! self time and counts, and exported as Chrome-trace JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats;

/// Layer spans in cell-pipeline order. A planning span is named
/// `sched.<scheduler>`.
pub const LAYERS: [&str; 24] = [
    "spec.expand",
    "platform.build",
    "workflow.generate",
    "sched.heft",
    "sched.cpop",
    "sched.peft",
    "sched.lookahead",
    "sched.min-min",
    "sched.max-min",
    "sched.mct",
    "sched.met",
    "sched.olb",
    "sched.round-robin",
    "sched.random",
    "sched.annealing",
    "dvfs.apply",
    "exec.run",
    "metrics.slr",
    "journal.create",
    "journal.append",
    "store.write",
    "store.read",
    "campaign.merge",
    "query.exec",
];

/// Spans that group layer calls without being a layer themselves: one
/// shard job, and one whole sweep cell.
pub const SHARD: &str = "shard";
/// See [`SHARD`].
pub const CELL: &str = "cell";

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// What was called: a [`LAYERS`] entry, [`SHARD`] or [`CELL`].
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Global index of the sweep cell the call served.
    pub cell: Option<usize>,
}

/// Collects spans and counters of one traced pass.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named `name`. The span inherits the cell
    /// of its parent unless `cell` names one.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        cell: Option<usize>,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let cell = cell.or_else(|| parent.and_then(|p| self.spans[p].cell));
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            cell,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counters.entry(name).or_default() += n;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// The spans as Chrome-trace JSON (`ph: "X"` complete events,
/// microsecond timestamps), which Perfetto and `chrome://tracing` open.
#[must_use]
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"helios\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{},\"dur\":{},\"args\":{{\"span\":{i}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
        );
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":{p}");
        }
        if let Some(c) = s.cell {
            let _ = write!(out, ",\"cell\":{c}");
        }
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}

/// Layer totals over the traced passes of one run.
#[derive(Debug, Default)]
pub struct Profile {
    passes: usize,
    self_ns: BTreeMap<&'static str, u64>,
    calls: BTreeMap<&'static str, u64>,
    counters: BTreeMap<&'static str, f64>,
    layer_ns: u64,
    cell_ms: Vec<f64>,
    traced_s: Vec<f64>,
}

impl Profile {
    /// Folds in one traced pass that took `wall_s` seconds.
    pub fn add_pass(&mut self, rec: &Recorder, wall_s: f64) {
        self.passes += 1;
        self.traced_s.push(wall_s);
        for (span, self_ns) in rec.spans().iter().zip(self_times(rec.spans())) {
            if span.name == CELL {
                self.cell_ms
                    .push((span.end_ns - span.start_ns) as f64 / 1e6);
            }
            if span.name == CELL || span.name == SHARD {
                continue;
            }
            *self.self_ns.entry(span.name).or_default() += self_ns;
            *self.calls.entry(span.name).or_default() += 1;
            self.layer_ns += self_ns;
        }
        for (name, n) in &rec.counters {
            *self.counters.entry(name).or_default() += n;
        }
    }

    /// The per-layer metrics as `(name, unit, value)`. Times and counts
    /// are per traced pass; `untraced_s` are wall times of the same
    /// pass run through the public driver without spans.
    #[must_use]
    pub fn metrics(&self, untraced_s: &[f64]) -> Vec<(String, &'static str, f64)> {
        let passes = self.passes.max(1) as f64;
        let ms = |layer: &str| self.self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6 / passes;
        let calls = |layer: &str| self.calls.get(layer).copied().unwrap_or(0) as f64 / passes;
        let counter = |name: &str| self.counters.get(name).copied().unwrap_or(0.0) / passes;
        let sched_calls: f64 = LAYERS
            .iter()
            .filter(|l| l.starts_with("sched."))
            .map(|l| calls(l))
            .sum();

        let mut out: Vec<(String, &'static str, f64)> = Vec::new();
        for layer in LAYERS {
            out.push((time_metric(layer), "ms", ms(layer)));
        }
        for (name, unit, value) in [
            ("platform.calls", "count", calls("platform.build")),
            ("workflow.calls", "count", calls("workflow.generate")),
            ("workflow.tasks", "count", counter("workflow.tasks")),
            ("sched.calls", "count", sched_calls),
            ("exec.calls", "count", calls("exec.run")),
            ("exec.failures", "count", counter("exec.failures")),
            ("exec.retries", "count", counter("exec.retries")),
            ("metrics.slr_calls", "count", calls("metrics.slr")),
            ("journal.records", "count", calls("journal.append")),
            ("journal.bytes", "bytes", counter("journal.bytes")),
            ("store.read_bytes", "bytes", counter("store.read_bytes")),
            ("query.rows_scanned", "count", counter("query.rows_scanned")),
            ("query.rows_out", "count", counter("query.rows_out")),
        ] {
            out.push((name.to_owned(), unit, value));
        }

        let (p50, tail_pct, tail, max) = if self.cell_ms.is_empty() {
            (0.0, 0.0, 0.0, 0.0)
        } else {
            let pct = stats::tail_percentile(self.cell_ms.len());
            (
                stats::median(&self.cell_ms),
                pct,
                stats::percentile(&self.cell_ms, pct),
                stats::percentile(&self.cell_ms, 100.0),
            )
        };
        let untraced = stats::median(untraced_s);
        out.push(("cell.p50_ms".to_owned(), "ms", p50));
        out.push(("cell.tail_ms".to_owned(), "ms", tail));
        out.push(("cell.tail_pct".to_owned(), "%", tail_pct));
        out.push(("cell.max_ms".to_owned(), "ms", max));
        out.push((
            "sweep.residual_ms".to_owned(),
            "ms",
            untraced * 1e3 - self.layer_ns as f64 / 1e6 / passes,
        ));
        out.push((
            "trace.overhead_frac".to_owned(),
            "frac",
            stats::median(&self.traced_s) / untraced - 1.0,
        ));
        out
    }
}

/// The metric name of a layer's self time: `sched.<name>.ms` for a
/// scheduler, `<layer>_ms` otherwise.
fn time_metric(layer: &str) -> String {
    match layer.strip_prefix("sched.") {
        Some(name) => format!("sched.{name}.ms"),
        None => format!("{layer}_ms"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            cell: None,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = [
            span(SHARD, 0, 100, None),
            span(CELL, 10, 90, Some(0)),
            span("sched.heft", 20, 50, Some(1)),
            span("exec.run", 50, 80, Some(1)),
            span("metrics.slr", 60, 70, Some(3)),
            // Overlapping children (impossible on one thread) count once.
            span("journal.append", 92, 96, Some(0)),
            span("journal.append", 94, 99, Some(0)),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 80 - 7, 80 - 60, 30, 20, 10, 4, 5]
        );
    }

    #[test]
    fn recorder_nests_and_profile_sums_layers() {
        let mut rec = Recorder::new();
        rec.span(CELL, Some(7), |rec| {
            rec.span("exec.run", None, |rec| rec.count("exec.failures", 3.0));
            rec.span("metrics.slr", None, |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].cell, Some(7), "children inherit the cell");
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);

        let mut profile = Profile::default();
        profile.add_pass(&rec, 0.5);
        profile.add_pass(&rec, 0.5);
        let metrics = profile.metrics(&[0.25]);
        let get = |n: &str| metrics.iter().find(|m| m.0 == n).unwrap().2;
        assert_eq!(get("exec.calls"), 1.0);
        assert_eq!(get("exec.failures"), 3.0);
        assert_eq!(get("trace.overhead_frac"), 1.0);
        assert_eq!(get("query.exec_ms"), 0.0);
        assert!(get("cell.p50_ms") > 0.0);
    }

    #[test]
    fn chrome_trace_is_json_with_one_event_per_span() {
        let spans = [
            span(CELL, 0, 1500, None),
            span("exec.run", 250, 1000, Some(0)),
        ];
        let json = chrome_trace(&spans);
        let value: serde_json::Value = serde_json::from_str(&json).expect("trace parses");
        let events = value["traceEvents"].as_array().expect("event array");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1]["name"], "exec.run");
        assert_eq!(events[1]["ts"], 0.25);
        assert_eq!(events[1]["dur"], 0.75);
        assert_eq!(events[1]["args"]["parent"], 0u64);
    }
}
