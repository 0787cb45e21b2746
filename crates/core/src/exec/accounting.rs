//! Shared report accounting: where the engine's and the online
//! runner's executions turn into an [`ExecutionReport`], and the
//! normalized vocabulary for runs that stop short.

use helios_energy::account;
use helios_platform::Platform;
use helios_sched::{Placement, Schedule};
use helios_sim::trace::{Trace, TraceKind};
use helios_workflow::Workflow;

use crate::error::EngineError;
use crate::report::{ExecutionReport, TransferStats};

/// Assembles the final report from realized placements: records
/// execution spans on the trace, validates the schedule, accounts
/// energy, and packs the transfer/fault tallies. The engine and the
/// online runner end here. The resilient runner does not: it runs
/// untraced and its simulation already yields a validated schedule, so
/// `ResilientRunner::execute_plan_with` calls the same `account` and
/// `ExecutionReport::new` on it directly.
pub(crate) fn finish_report(
    platform: &Platform,
    wf: &Workflow,
    realized: Vec<Option<Placement>>,
    mut trace: Option<Trace>,
    stats: TransferStats,
    failures: u32,
    retries: u32,
) -> Result<ExecutionReport, EngineError> {
    let placements: Vec<Placement> = realized
        .into_iter()
        .map(|p| p.expect("all tasks completed"))
        .collect();
    if let Some(trace) = trace.as_mut() {
        for p in &placements {
            trace.record(
                wf.task(p.task)?.name().to_owned(),
                TraceKind::Execution,
                p.device.0,
                p.start,
                p.finish,
            );
        }
    }
    let schedule = Schedule::new(placements)?;
    let energy = account(&schedule, wf, platform, false)?;
    Ok(ExecutionReport::new(
        schedule, energy, stats, failures, retries, trace,
    ))
}

/// Why a run stopped short of completing, in the one normalized
/// vocabulary every runner and campaign cell reports through.
///
/// Campaign sweeps record these as measurements (a cell that timed out
/// or lost its workload depresses `completion_probability`) rather than
/// errors; the string forms written into reports come from
/// [`IncompleteReason::as_str`] and nowhere else, so no execution path
/// can invent free-form reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IncompleteReason {
    /// The per-cell step-budget watchdog fired
    /// ([`EngineError::StepBudgetExceeded`]).
    TimedOut,
    /// A task exhausted its retry budget
    /// ([`EngineError::RetriesExhausted`]).
    RetriesExhausted,
    /// Every device failed permanently
    /// ([`EngineError::AllDevicesLost`]).
    AllDevicesLost,
    /// Every elastic device departed with no join still pending
    /// ([`EngineError::CapacityExhausted`]). Elastic capacity running
    /// out is a property of the capacity plan being measured, not a
    /// campaign-driver failure.
    CapacityExhausted,
    /// No device on the platform can hold some task's working set
    /// ([`SchedError::NoFeasibleDevice`](helios_sched::SchedError)), so
    /// the cell could never have run. A grid pairing a large-memory
    /// family with a small-memory platform is a measurement — completion
    /// probability zero — not a campaign-driver crash.
    Infeasible,
    /// The cell's attempt record appears `poison_limit` times in a
    /// write-ahead journal with no completion record: executing it
    /// killed the process that many times, so the sweep quarantines it
    /// instead of crash-looping. Unlike the other reasons this is
    /// diagnosed from the journal, never classified from an error.
    Poisoned,
}

impl IncompleteReason {
    /// All reasons, in report order.
    pub const ALL: [IncompleteReason; 6] = [
        IncompleteReason::TimedOut,
        IncompleteReason::RetriesExhausted,
        IncompleteReason::AllDevicesLost,
        IncompleteReason::CapacityExhausted,
        IncompleteReason::Infeasible,
        IncompleteReason::Poisoned,
    ];

    /// The canonical report string (`timed_out`, `retries_exhausted`,
    /// `all_devices_lost`, `capacity_exhausted`, `infeasible`,
    /// `poisoned`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            IncompleteReason::TimedOut => "timed_out",
            IncompleteReason::RetriesExhausted => "retries_exhausted",
            IncompleteReason::AllDevicesLost => "all_devices_lost",
            IncompleteReason::CapacityExhausted => "capacity_exhausted",
            IncompleteReason::Infeasible => "infeasible",
            IncompleteReason::Poisoned => "poisoned",
        }
    }

    /// Classifies an execution error as an incomplete-run measurement,
    /// or `None` for genuine errors that must propagate.
    #[must_use]
    pub fn from_error(err: &EngineError) -> Option<IncompleteReason> {
        match err {
            EngineError::StepBudgetExceeded { .. } => Some(IncompleteReason::TimedOut),
            EngineError::RetriesExhausted { .. } => Some(IncompleteReason::RetriesExhausted),
            EngineError::AllDevicesLost { .. } => Some(IncompleteReason::AllDevicesLost),
            EngineError::CapacityExhausted { .. } => Some(IncompleteReason::CapacityExhausted),
            EngineError::Sched(helios_sched::SchedError::NoFeasibleDevice(_)) => {
                Some(IncompleteReason::Infeasible)
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for IncompleteReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_workflow::TaskId;

    #[test]
    fn reasons_map_to_canonical_strings() {
        let strings: Vec<&str> = IncompleteReason::ALL.iter().map(|r| r.as_str()).collect();
        assert_eq!(
            strings,
            vec![
                "timed_out",
                "retries_exhausted",
                "all_devices_lost",
                "capacity_exhausted",
                "infeasible",
                "poisoned"
            ]
        );
    }

    #[test]
    fn classification_covers_exactly_the_measurement_errors() {
        assert_eq!(
            IncompleteReason::from_error(&EngineError::StepBudgetExceeded {
                steps: 1,
                completed: 0,
                total: 4
            }),
            Some(IncompleteReason::TimedOut)
        );
        assert_eq!(
            IncompleteReason::from_error(&EngineError::RetriesExhausted {
                task: TaskId(0),
                attempts: 3
            }),
            Some(IncompleteReason::RetriesExhausted)
        );
        assert_eq!(
            IncompleteReason::from_error(&EngineError::AllDevicesLost {
                at_secs: 2.0,
                completed: 1,
                total: 4
            }),
            Some(IncompleteReason::AllDevicesLost)
        );
        assert_eq!(
            IncompleteReason::from_error(&EngineError::CapacityExhausted {
                at_secs: 3.0,
                completed: 2,
                total: 4
            }),
            Some(IncompleteReason::CapacityExhausted)
        );
        assert_eq!(
            IncompleteReason::from_error(&EngineError::Sched(
                helios_sched::SchedError::NoFeasibleDevice(TaskId(1))
            )),
            Some(IncompleteReason::Infeasible)
        );
        assert_eq!(
            IncompleteReason::from_error(&EngineError::Config("x".into())),
            None
        );
        // Other scheduling errors are real bugs and must propagate.
        assert_eq!(
            IncompleteReason::from_error(&EngineError::Sched(
                helios_sched::SchedError::Unscheduled(TaskId(0))
            )),
            None
        );
    }
}
