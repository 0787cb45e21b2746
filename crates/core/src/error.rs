//! Error type for the execution engine.

use std::fmt;

use helios_platform::PlatformError;
use helios_sched::SchedError;
use helios_workflow::{TaskId, WorkflowError};

/// Errors produced while executing a workflow.
#[derive(Debug)]
pub enum EngineError {
    /// A scheduling error while planning or validating.
    Sched(SchedError),
    /// A platform model error during execution.
    Platform(PlatformError),
    /// A workflow structural error during execution.
    Workflow(WorkflowError),
    /// A task exhausted its retry budget.
    RetriesExhausted {
        /// The failing task.
        task: TaskId,
        /// Retries attempted.
        attempts: u32,
    },
    /// Every device failed permanently before the workflow completed, or
    /// the remaining tasks have no surviving feasible device.
    AllDevicesLost {
        /// Simulation time of the final permanent failure, seconds.
        at_secs: f64,
        /// Tasks completed before the platform was lost.
        completed: usize,
        /// Total tasks.
        total: usize,
    },
    /// Every elastic device departed (preemption, drain or leave) with
    /// no join still pending, so the remaining work has nowhere to run.
    /// Campaign sweeps record this as a measurement
    /// (`incomplete_reason = "capacity_exhausted"`), not an error.
    CapacityExhausted {
        /// Simulation time of the final departure, seconds.
        at_secs: f64,
        /// Tasks completed before capacity ran out.
        completed: usize,
        /// Total tasks.
        total: usize,
    },
    /// The engine's event loop drained without completing every task —
    /// an internal invariant violation.
    Stalled {
        /// Tasks completed before the stall.
        completed: usize,
        /// Total tasks.
        total: usize,
    },
    /// The watchdog budget on simulated events
    /// ([`EngineConfig::step_budget`](crate::EngineConfig)) ran out
    /// before the workflow completed — the fault configuration is
    /// grinding the run instead of hanging the whole campaign.
    StepBudgetExceeded {
        /// The exhausted budget.
        steps: u64,
        /// Tasks completed within the budget.
        completed: usize,
        /// Total tasks.
        total: usize,
    },
    /// Invalid engine configuration.
    Config(String),
    /// A campaign-layer error: malformed or invalid sweep input.
    Campaign(crate::campaign::CampaignError),
    /// A worker thread panicked or disconnected in the threaded executor.
    Executor(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Sched(e) => write!(f, "scheduling error: {e}"),
            EngineError::Platform(e) => write!(f, "platform error: {e}"),
            EngineError::Workflow(e) => write!(f, "workflow error: {e}"),
            EngineError::RetriesExhausted { task, attempts } => {
                write!(
                    f,
                    "task {task} failed permanently after {attempts} attempts"
                )
            }
            EngineError::AllDevicesLost {
                at_secs,
                completed,
                total,
            } => {
                write!(
                    f,
                    "all devices failed permanently at {at_secs:.3}s with {completed}/{total} tasks complete"
                )
            }
            EngineError::CapacityExhausted {
                at_secs,
                completed,
                total,
            } => {
                write!(
                    f,
                    "all elastic capacity departed at {at_secs:.3}s with {completed}/{total} tasks complete"
                )
            }
            EngineError::Stalled { completed, total } => {
                write!(f, "engine stalled after {completed}/{total} tasks")
            }
            EngineError::StepBudgetExceeded {
                steps,
                completed,
                total,
            } => {
                write!(
                    f,
                    "cell step budget of {steps} simulated events exhausted with \
                     {completed}/{total} tasks complete"
                )
            }
            EngineError::Config(msg) => write!(f, "invalid engine config: {msg}"),
            EngineError::Campaign(e) => write!(f, "campaign error: {e}"),
            EngineError::Executor(msg) => write!(f, "threaded executor error: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Sched(e) => Some(e),
            EngineError::Platform(e) => Some(e),
            EngineError::Workflow(e) => Some(e),
            EngineError::Campaign(e) => Some(e),
            _ => None,
        }
    }
}

/// A refusal message of a declared range check
/// ([`KnobRange::check`](helios_sim::KnobRange::check)) is a config error.
impl From<String> for EngineError {
    fn from(msg: String) -> Self {
        EngineError::Config(msg)
    }
}

impl From<crate::campaign::CampaignError> for EngineError {
    fn from(e: crate::campaign::CampaignError) -> Self {
        EngineError::Campaign(e)
    }
}

impl From<SchedError> for EngineError {
    fn from(e: SchedError) -> Self {
        EngineError::Sched(e)
    }
}

impl From<PlatformError> for EngineError {
    fn from(e: PlatformError) -> Self {
        EngineError::Platform(e)
    }
}

impl From<WorkflowError> for EngineError {
    fn from(e: WorkflowError) -> Self {
        EngineError::Workflow(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e: EngineError = PlatformError::Empty.into();
        assert!(e.to_string().contains("platform"));
        assert!(std::error::Error::source(&e).is_some());
        let e = EngineError::RetriesExhausted {
            task: TaskId(2),
            attempts: 3,
        };
        assert!(e.to_string().contains("t2"));
        let e = EngineError::Stalled {
            completed: 1,
            total: 5,
        };
        assert!(e.to_string().contains("1/5"));
        let e = EngineError::AllDevicesLost {
            at_secs: 2.5,
            completed: 3,
            total: 9,
        };
        assert!(e.to_string().contains("2.500s"), "{e}");
        assert!(e.to_string().contains("3/9"), "{e}");
        let e = EngineError::CapacityExhausted {
            at_secs: 4.25,
            completed: 2,
            total: 7,
        };
        assert!(e.to_string().contains("4.250s"), "{e}");
        assert!(e.to_string().contains("2/7"), "{e}");
        assert!(e.to_string().contains("capacity"), "{e}");
    }
}
