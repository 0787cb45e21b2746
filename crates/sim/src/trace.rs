//! Execution tracing.
//!
//! A [`Trace`] records what happened during a simulated run as a flat
//! list of [`TraceEvent`]s — task executions, data transfers, faults —
//! each bound to a *track* (a device or link) and a time span. Traces
//! export to the Chrome trace-event JSON format, so a run can be
//! inspected interactively in `chrome://tracing` / Perfetto.

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// The kind of activity a trace span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceKind {
    /// A task executing on a device.
    Execution,
    /// A data transfer occupying a link or path.
    Transfer,
    /// A fault-recovery interval (restart overhead).
    Recovery,
    /// A device sleeping under DRS.
    Sleep,
}

impl TraceKind {
    /// Short stable category label (Chrome trace `cat` field).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::Execution => "exec",
            TraceKind::Transfer => "xfer",
            TraceKind::Recovery => "recovery",
            TraceKind::Sleep => "sleep",
        }
    }
}

/// One completed span on one track.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Span label (task name, edge description, …).
    pub name: String,
    /// Activity category.
    pub kind: TraceKind,
    /// Track index (device id or link id, namespaced by `kind`).
    pub track: usize,
    /// Span start.
    pub start: SimTime,
    /// Span end.
    pub end: SimTime,
}

/// An append-only recording of a run.
///
/// # Examples
///
/// ```
/// use helios_sim::trace::{Trace, TraceKind};
/// use helios_sim::SimTime;
///
/// let mut trace = Trace::new();
/// trace.record("mProject_0", TraceKind::Execution, 0,
///              SimTime::from_secs(0.0), SimTime::from_secs(1.5));
/// assert_eq!(trace.len(), 1);
/// let json = trace.to_chrome_json(&["cpu0".into()]);
/// assert!(json.contains("mProject_0"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Records one completed span.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        kind: TraceKind,
        track: usize,
        start: SimTime,
        end: SimTime,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            kind,
            track,
            start,
            end,
        });
    }

    /// All recorded events, in recording order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events overlapping the given window, in recording order.
    pub fn window(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = &TraceEvent> {
        self.events
            .iter()
            .filter(move |e| e.end >= from && e.start <= to)
    }

    /// Serializes to the Chrome trace-event format (a JSON array of
    /// complete `"X"` events, microsecond timestamps). `track_names`
    /// labels the execution tracks (device names); transfer tracks are
    /// named `link<N>`.
    #[must_use]
    pub fn to_chrome_json(&self, track_names: &[String]) -> String {
        use std::fmt::Write as _;

        let mut out = String::from("[\n");
        for (i, e) in self.events.iter().enumerate() {
            let tid = e.track;
            let pid = match e.kind {
                TraceKind::Execution | TraceKind::Recovery | TraceKind::Sleep => 1,
                TraceKind::Transfer => 2,
            };
            let track_label = match e.kind {
                TraceKind::Transfer => format!("link{tid}"),
                _ => track_names
                    .get(tid)
                    .cloned()
                    .unwrap_or_else(|| format!("track{tid}")),
            };
            let ts_us = e.start.as_secs() * 1e6;
            let dur_us = e.end.saturating_since(e.start).as_secs() * 1e6;
            let _ = write!(
                out,
                "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \
                 \"ts\": {ts_us:.3}, \"dur\": {dur_us:.3}, \"pid\": {pid}, \
                 \"tid\": {tid}, \"args\": {{\"track\": \"{track_label}\"}}}}",
                escape(&e.name),
                e.kind.as_str()
            );
            out.push_str(if i + 1 == self.events.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl Extend<TraceEvent> for Trace {
    fn extend<T: IntoIterator<Item = TraceEvent>>(&mut self, iter: T) {
        self.events.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn sample() -> Trace {
        let mut tr = Trace::new();
        tr.record("a", TraceKind::Execution, 0, t(0.0), t(1.0));
        tr.record("b", TraceKind::Execution, 0, t(2.0), t(3.0));
        tr.record("a->b", TraceKind::Transfer, 1, t(1.0), t(2.0));
        tr.record("b retry", TraceKind::Recovery, 0, t(3.0), t(3.5));
        tr
    }

    #[test]
    fn records_and_windows() {
        let tr = sample();
        assert_eq!(tr.len(), 4);
        assert!(!tr.is_empty());
        let in_window: Vec<_> = tr.window(t(1.5), t(2.5)).collect();
        assert_eq!(in_window.len(), 2, "task b and the transfer overlap");
    }

    #[test]
    fn chrome_json_is_valid_json() {
        let tr = sample();
        let json = tr.to_chrome_json(&["cpu0".into(), "gpu0".into()]);
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = parsed.as_array().expect("array");
        assert_eq!(events.len(), 4);
        assert_eq!(events[0]["name"], "a");
        assert_eq!(events[0]["ph"], "X");
        assert_eq!(events[2]["pid"], 2, "transfers go to the transfer pid");
        // Microsecond scaling.
        assert_eq!(events[1]["ts"], 2e6);
    }

    #[test]
    fn escaping() {
        let mut tr = Trace::new();
        tr.record("quo\"te\\path", TraceKind::Execution, 0, t(0.0), t(1.0));
        let json = tr.to_chrome_json(&[]);
        assert!(serde_json::from_str::<serde_json::Value>(&json).is_ok());
    }

    #[test]
    fn empty_trace_exports() {
        let json = Trace::new().to_chrome_json(&[]);
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.as_array().unwrap().len(), 0);
    }
}
