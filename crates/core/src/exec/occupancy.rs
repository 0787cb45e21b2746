//! Per-attempt occupancy math: how long a task holds its device under
//! noise, checkpoint overhead and fault retries. Every execution path
//! charges its timeline through this single copy.

use helios_sim::{SimDuration, SimRng};
use helios_workflow::TaskId;

use crate::error::EngineError;
use crate::exec::{FAULT_STREAM_BASE, NOISE_STREAM_BASE};
use crate::resilience::{RecoveryPolicy, ResilienceConfig};

/// Per-attempt execution outcome used by both the static and online
/// executors.
pub(crate) struct Occupancy {
    /// Total device time from start to completion, including retries.
    pub total: SimDuration,
    /// Fault-free device time (work + checkpoint writes, no retries):
    /// the duration dispatchers should calibrate their models against,
    /// since fault stalls carry no information about task cost.
    pub work: SimDuration,
    /// Faults that hit this task.
    pub failures: u32,
    /// Retries performed.
    pub retries: u32,
}

/// Computes how long a task occupies its device, folding in noise
/// already applied to `actual_work`, plus checkpoint overheads and fault
/// retries.
#[cfg(test)]
pub(crate) fn occupancy(
    config: &crate::config::EngineConfig,
    actual_work: SimDuration,
    task: TaskId,
    fault_rng: &mut SimRng,
) -> Result<Occupancy, EngineError> {
    occupancy_on(config.fault_view()?, actual_work, task, fault_rng)
}

/// [`occupancy`](self) under an already-resolved
/// [`EngineConfig::fault_view`](crate::config::EngineConfig::fault_view):
/// exponential transient-only failures, retried after the policy's
/// backoff or resumed from the last checkpoint.
fn occupancy_on(
    faults: Option<&ResilienceConfig>,
    actual_work: SimDuration,
    task: TaskId,
    fault_rng: &mut SimRng,
) -> Result<Occupancy, EngineError> {
    let Some(res) = faults else {
        // No faults: the task holds its device for its work alone.
        return Ok(Occupancy {
            total: actual_work,
            work: actual_work,
            failures: 0,
            retries: 0,
        });
    };
    // Checkpoint-restart snapshots every `interval` of work at
    // `overhead` per snapshot; a retry resumes from the last one.
    let checkpoint = match res.policy {
        RecoveryPolicy::CheckpointRestart {
            interval_secs,
            overhead_secs,
            ..
        } => Some((
            SimDuration::from_secs(interval_secs),
            SimDuration::from_secs(overhead_secs),
        )),
        _ => None,
    };
    let ckpt_inflate = |work: SimDuration| match checkpoint {
        Some((interval, overhead)) => {
            let snapshots = (work.as_secs() / interval.as_secs()).floor();
            work + overhead * snapshots
        }
        None => work,
    };
    let work = ckpt_inflate(actual_work);
    let restart_overhead = SimDuration::from_secs(res.failures.restart_overhead_secs);

    let mut remaining = actual_work;
    let mut total = SimDuration::ZERO;
    let mut failures = 0u32;
    let mut retries = 0u32;
    loop {
        let effective = ckpt_inflate(remaining);
        let fault_at = SimDuration::from_secs(fault_rng.exponential(res.failures.mttf_secs));
        if fault_at >= effective {
            total += effective;
            return Ok(Occupancy {
                total,
                work,
                failures,
                retries,
            });
        }
        failures += 1;
        if retries >= res.policy.max_retries() {
            return Err(EngineError::RetriesExhausted {
                task,
                attempts: failures,
            });
        }
        retries += 1;
        let preserved = match checkpoint {
            Some((interval, overhead)) => {
                let stride = interval + overhead;
                let completed_units = (fault_at.as_secs() / stride.as_secs()).floor();
                interval * completed_units
            }
            None => SimDuration::ZERO,
        };
        remaining = remaining - preserved;
        let backoff = res.policy.backoff_delay_secs(retries);
        // The attempt's time, the restart overhead and any backoff all
        // occupy the device timeline: a faulty run can only be slower.
        total += fault_at + restart_overhead + SimDuration::from_secs(backoff);
    }
}

/// The task's multiplicative execution-noise factor, drawn from the
/// task's dedicated stream (`NOISE_STREAM_BASE + task`) so it is
/// identical wherever — and in whatever event order — the task runs.
pub(crate) fn noise_factor(noise_cv: f64, base_rng: &SimRng, task: usize) -> f64 {
    if noise_cv > 0.0 {
        let mut rng = base_rng.fork(NOISE_STREAM_BASE + task as u64);
        rng.normal(1.0, noise_cv).max(0.05)
    } else {
        1.0
    }
}

/// The device's static slowdown factor (1.0 when unconfigured or out of
/// range).
pub(crate) fn slowdown_factor(slowdown: Option<&Vec<f64>>, device: usize) -> f64 {
    slowdown.and_then(|v| v.get(device)).copied().unwrap_or(1.0)
}

/// [`occupancy_on`] with the task's fault stream
/// (`FAULT_STREAM_BASE + task`) forked in place, so callers cannot
/// accidentally key fault draws by event order.
pub(crate) fn fault_occupancy(
    faults: Option<&ResilienceConfig>,
    base_rng: &SimRng,
    actual_work: SimDuration,
    task: TaskId,
) -> Result<Occupancy, EngineError> {
    let mut fault_rng = base_rng.fork(FAULT_STREAM_BASE + task.0 as u64);
    occupancy_on(faults, actual_work, task, &mut fault_rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::resilience::FailureModel;

    #[test]
    fn occupancy_math() {
        let mut rng = SimRng::seed_from(1);
        // No faults, no checkpoints: identity.
        let cfg = EngineConfig::default();
        let occ = occupancy(&cfg, SimDuration::from_secs(10.0), TaskId(0), &mut rng).unwrap();
        assert_eq!(occ.total.as_secs(), 10.0);
        assert_eq!(occ.failures, 0);
        // Checkpoints under a failure rate that never fires: 10s work,
        // 3s interval → 3 snapshots × 0.5s.
        let cfg = EngineConfig {
            resilience: Some(ResilienceConfig::new(
                FailureModel::exponential(1e300),
                RecoveryPolicy::CheckpointRestart {
                    interval_secs: 3.0,
                    overhead_secs: 0.5,
                    max_retries: 0,
                },
            )),
            ..Default::default()
        };
        let occ = occupancy(&cfg, SimDuration::from_secs(10.0), TaskId(0), &mut rng).unwrap();
        assert!((occ.total.as_secs() - 11.5).abs() < 1e-9);
        assert_eq!(occ.failures, 0);
    }
}
