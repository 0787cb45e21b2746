//! Failure-domain model and pluggable recovery policies.
//!
//! Long-running scientific workflows on heterogeneous platforms live or
//! die by how they absorb failures. This module models the *failure
//! domain* — per-device failure processes producing timed transient,
//! degraded and permanent failures (built on
//! [`helios_sim::failure`]) — and the *recovery domain* — what the
//! runtime does about them:
//!
//! * [`RecoveryPolicy::RetryBackoff`] — re-run the aborted attempt after
//!   a capped exponential backoff (flat retry, as a spec's `faults`
//!   block runs it, is the `base_secs = 0` special case),
//! * [`RecoveryPolicy::ReplicateK`] — run `k` copies of every task on
//!   distinct devices; the first finisher wins and the rest are
//!   cancelled,
//! * [`RecoveryPolicy::CheckpointRestart`] — snapshot progress
//!   periodically and restart failed attempts from the last snapshot,
//! * [`RecoveryPolicy::Reschedule`] — on a permanent device loss,
//!   re-invoke a scheduler on the surviving platform for the unfinished
//!   subgraph.
//!
//! The [`ResilientRunner`] executes a static plan under a
//! [`ResilienceConfig`], runs the identical configuration with failure
//! injection disabled to obtain the fault-free baseline, and attaches
//! [`ResilienceMetrics`] (wasted work, recovery overhead, makespan
//! degradation) to the report. Determinism is preserved: every device's
//! failure trace and every task's noise multiplier come from dedicated
//! forked RNG streams, so identical seeds give byte-identical reports no
//! matter how the surrounding campaign is sharded or threaded.

mod runner;

pub use runner::ResilientRunner;

use serde::{Deserialize, Serialize};

use crate::error::EngineError;
use helios_sim::failure::{FailureDistribution, FailureProcess, LinkFailureProcess};

/// Per-device failure process parameters plus the repair model.
///
/// All devices share one process description; the *realizations* differ
/// because each device samples its own forked RNG stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureModel {
    /// Mean time to failure (exponential) or characteristic life
    /// (Weibull), in seconds.
    pub mttf_secs: f64,
    /// Weibull shape parameter; `None` selects the exponential
    /// distribution.
    pub weibull_shape: Option<f64>,
    /// Probability that a failure degrades the device instead of only
    /// aborting the running attempt.
    pub degraded_prob: f64,
    /// Probability that a failure removes the device permanently.
    pub permanent_prob: f64,
    /// Execution-time multiplier while degraded (≥ 1, so degradation can
    /// only slow work down).
    pub degraded_slowdown: f64,
    /// Time until a degraded device is repaired to full speed, seconds.
    pub degraded_repair_secs: f64,
    /// Fixed overhead paid before every retry attempt, seconds.
    pub restart_overhead_secs: f64,
}

impl FailureModel {
    /// A transient-only exponential failure model — the classical
    /// Poisson fault process.
    #[must_use]
    pub fn exponential(mttf_secs: f64) -> FailureModel {
        FailureModel {
            mttf_secs,
            weibull_shape: None,
            degraded_prob: 0.0,
            permanent_prob: 0.0,
            degraded_slowdown: 2.0,
            degraded_repair_secs: 1.0,
            restart_overhead_secs: 0.0,
        }
    }

    /// A transient-only Weibull failure model with the given
    /// characteristic life and shape.
    #[must_use]
    pub fn weibull(scale_secs: f64, shape: f64) -> FailureModel {
        FailureModel {
            weibull_shape: Some(shape),
            ..FailureModel::exponential(scale_secs)
        }
    }

    /// The inter-failure distribution this model describes.
    #[must_use]
    pub fn distribution(&self) -> FailureDistribution {
        match self.weibull_shape {
            None => FailureDistribution::Exponential {
                mttf_secs: self.mttf_secs,
            },
            Some(shape) => FailureDistribution::Weibull {
                scale_secs: self.mttf_secs,
                shape,
            },
        }
    }

    /// Builds the validated [`FailureProcess`] for one device.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] describing the offending
    /// parameter.
    pub fn process(&self) -> Result<FailureProcess, EngineError> {
        FailureProcess::new(self.distribution(), self.degraded_prob, self.permanent_prob)
            .map_err(|e| EngineError::Config(format!("failure model: {e}")))
    }

    fn validate(&self) -> Result<(), EngineError> {
        self.process()?;
        if !(self.degraded_slowdown.is_finite() && self.degraded_slowdown >= 1.0) {
            return Err(EngineError::Config(format!(
                "degraded_slowdown must be >= 1 (degradation cannot speed a device up), got {}",
                self.degraded_slowdown
            )));
        }
        for (name, v) in [
            ("degraded_repair_secs", self.degraded_repair_secs),
            ("restart_overhead_secs", self.restart_overhead_secs),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(EngineError::Config(format!(
                    "{name} must be non-negative, got {v}"
                )));
            }
        }
        Ok(())
    }
}

/// Per-link interconnect-fault process parameters plus the repair model.
///
/// All links share one process description; realizations differ because
/// each link samples its own forked RNG stream (keyed by link id, never
/// by event order). A fault is either a full *outage* — the link carries
/// nothing until repaired, so transfers stall or reroute — or a
/// bandwidth *degradation* that stretches every crossing transfer by
/// `degraded_factor` until repair.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaultModel {
    /// Mean time to failure (exponential) or characteristic life
    /// (Weibull) per link, in seconds.
    pub mttf_secs: f64,
    /// Weibull shape parameter; `None` selects the exponential
    /// distribution.
    pub weibull_shape: Option<f64>,
    /// Probability that a fault degrades bandwidth instead of taking the
    /// link down entirely.
    pub degraded_prob: f64,
    /// Transfer-time multiplier while degraded (≥ 1, so degradation can
    /// only slow transfers down).
    pub degraded_factor: f64,
    /// Downtime of one outage before the link is repaired, seconds.
    pub outage_secs: f64,
    /// Time until a degraded link recovers full bandwidth, seconds.
    pub degraded_repair_secs: f64,
}

impl LinkFaultModel {
    /// An outage-only exponential link-fault model.
    #[must_use]
    pub fn exponential(mttf_secs: f64) -> LinkFaultModel {
        LinkFaultModel {
            mttf_secs,
            weibull_shape: None,
            degraded_prob: 0.0,
            degraded_factor: 2.0,
            outage_secs: 0.05,
            degraded_repair_secs: 0.05,
        }
    }

    /// An outage-only Weibull link-fault model with the given
    /// characteristic life and shape.
    #[must_use]
    pub fn weibull(scale_secs: f64, shape: f64) -> LinkFaultModel {
        LinkFaultModel {
            weibull_shape: Some(shape),
            ..LinkFaultModel::exponential(scale_secs)
        }
    }

    /// The inter-failure distribution this model describes.
    #[must_use]
    pub fn distribution(&self) -> FailureDistribution {
        match self.weibull_shape {
            None => FailureDistribution::Exponential {
                mttf_secs: self.mttf_secs,
            },
            Some(shape) => FailureDistribution::Weibull {
                scale_secs: self.mttf_secs,
                shape,
            },
        }
    }

    /// Builds the validated [`LinkFailureProcess`] for one link.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] describing the offending
    /// parameter.
    pub fn process(&self) -> Result<LinkFailureProcess, EngineError> {
        LinkFailureProcess::new(self.distribution(), self.degraded_prob)
            .map_err(|e| EngineError::Config(format!("link fault model: {e}")))
    }

    fn validate(&self) -> Result<(), EngineError> {
        self.process()?;
        if !(self.degraded_factor.is_finite() && self.degraded_factor >= 1.0) {
            return Err(EngineError::Config(format!(
                "link degraded_factor must be >= 1 (degradation cannot speed transfers up), \
                 got {}",
                self.degraded_factor
            )));
        }
        for (name, v) in [
            ("link outage_secs", self.outage_secs),
            ("link degraded_repair_secs", self.degraded_repair_secs),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(EngineError::Config(format!(
                    "{name} must be non-negative, got {v}"
                )));
            }
        }
        Ok(())
    }
}

/// A correlated failure domain: a named group of devices *and* links
/// (a rack, a node, a shared PSU) struck together by single events drawn
/// from one forked RNG stream per domain.
///
/// A domain event of a given [`FailureKind`](helios_sim::failure::FailureKind)
/// applies to every member at once: transient events abort whatever the
/// member devices are running and knock member links out for
/// `outage_secs`; degraded events slow member devices by the shared
/// [`FailureModel::degraded_slowdown`] and outage member links the same
/// way; permanent events remove every member device *and* link for the
/// rest of the run — destroying the data products resident on those
/// devices and partitioning whatever the links connected.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureDomain {
    /// Domain kind tag; one of [`FailureDomain::kinds`].
    pub kind: String,
    /// Unique domain name, used in validation errors and reports.
    pub name: String,
    /// Member device names (resolved against the platform per cell).
    pub devices: Vec<String>,
    /// Member link names; a name selects *every* link carrying it
    /// (cluster presets share link names across nodes).
    pub links: Vec<String>,
    /// Mean time to failure (exponential) or characteristic life
    /// (Weibull) of the whole domain, in seconds.
    pub mttf_secs: f64,
    /// Weibull shape parameter; `None` selects the exponential
    /// distribution.
    pub weibull_shape: Option<f64>,
    /// Probability that a domain event degrades its members instead of
    /// aborting their in-flight work.
    pub degraded_prob: f64,
    /// Probability that a domain event takes the whole group down for
    /// good.
    pub permanent_prob: f64,
    /// Downtime of member links under non-permanent events, seconds.
    pub outage_secs: f64,
}

impl FailureDomain {
    /// Every legal domain kind tag, for validation errors.
    #[must_use]
    pub fn kinds() -> &'static [&'static str] {
        &["rack", "node", "psu"]
    }

    /// Builds the validated shared [`FailureProcess`] for this domain.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] describing the offending
    /// parameter.
    pub fn process(&self) -> Result<FailureProcess, EngineError> {
        let distribution = match self.weibull_shape {
            None => FailureDistribution::Exponential {
                mttf_secs: self.mttf_secs,
            },
            Some(shape) => FailureDistribution::Weibull {
                scale_secs: self.mttf_secs,
                shape,
            },
        };
        FailureProcess::new(distribution, self.degraded_prob, self.permanent_prob)
            .map_err(|e| EngineError::Config(format!("failure domain {:?}: {e}", self.name)))
    }

    fn validate(&self) -> Result<(), EngineError> {
        let fail = |msg: String| {
            Err(EngineError::Config(format!(
                "failure domain {:?}: {msg}",
                self.name
            )))
        };
        if !FailureDomain::kinds().contains(&self.kind.as_str()) {
            return fail(format!(
                "unknown kind {:?}; legal values: {}",
                self.kind,
                FailureDomain::kinds().join(", ")
            ));
        }
        if self.name.is_empty() {
            return Err(EngineError::Config(
                "failure domain name must not be empty".into(),
            ));
        }
        if self.devices.is_empty() && self.links.is_empty() {
            return fail("must name at least one member device or link".into());
        }
        self.process()?;
        if !(self.outage_secs.is_finite() && self.outage_secs >= 0.0) {
            return fail(format!(
                "outage_secs must be non-negative, got {}",
                self.outage_secs
            ));
        }
        Ok(())
    }
}

/// What the runtime does when an attempt or a device fails.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryPolicy {
    /// Re-run the aborted attempt after a capped exponential backoff:
    /// retry `r` (1-based) waits `min(base · factor^(r-1), cap)` seconds
    /// on top of the model's restart overhead.
    RetryBackoff {
        /// Backoff before the first retry, seconds (0 = flat retry).
        base_secs: f64,
        /// Multiplicative growth per retry (≥ 1).
        factor: f64,
        /// Upper bound on any single backoff, seconds.
        cap_secs: f64,
        /// Retry budget per task; exceeding it aborts the run.
        max_retries: u32,
    },
    /// Run `replicas` copies of every task on distinct devices; the
    /// first finisher wins and the remaining copies are cancelled.
    ReplicateK {
        /// Total copies per task, including the primary (≥ 2). Clamped
        /// to the number of feasible devices.
        replicas: usize,
        /// Per-replica retry budget for transient failures.
        max_retries: u32,
    },
    /// Snapshot progress every `interval_secs` of execution at
    /// `overhead_secs` per snapshot; a retry resumes from the last
    /// snapshot instead of from scratch. Snapshots are device-local, so
    /// a permanent device loss still restarts the task from zero
    /// elsewhere.
    CheckpointRestart {
        /// Execution time between snapshots, seconds.
        interval_secs: f64,
        /// Cost of writing one snapshot, seconds.
        overhead_secs: f64,
        /// Retry budget per task.
        max_retries: u32,
    },
    /// On a permanent device loss, re-plan the whole workflow on the
    /// surviving platform with the named scheduler; unfinished tasks
    /// adopt the new placements (running tasks keep running where they
    /// are). Transient failures retry in place.
    Reschedule {
        /// Scheduler name resolved via
        /// [`helios_sched::scheduler_by_name`].
        scheduler: String,
        /// Re-planning overhead charged before reassigned work may
        /// start, seconds.
        overhead_secs: f64,
        /// Retry budget per task for transient failures.
        max_retries: u32,
    },
}

impl RecoveryPolicy {
    /// Flat retry: [`RecoveryPolicy::RetryBackoff`] with no backoff
    /// (`base_secs = 0`), so a failed attempt restarts right after the
    /// failure model's restart overhead.
    #[must_use]
    pub fn flat_retry(max_retries: u32) -> RecoveryPolicy {
        RecoveryPolicy::RetryBackoff {
            base_secs: 0.0,
            factor: 1.0,
            cap_secs: 0.0,
            max_retries,
        }
    }

    /// Stable kebab-case policy name used in specs, reports and error
    /// messages.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryPolicy::RetryBackoff { .. } => "retry-backoff",
            RecoveryPolicy::ReplicateK { .. } => "replicate-k",
            RecoveryPolicy::CheckpointRestart { .. } => "checkpoint-restart",
            RecoveryPolicy::Reschedule { .. } => "reschedule",
        }
    }

    /// Every legal policy name, for error messages.
    #[must_use]
    pub fn names() -> &'static [&'static str] {
        &[
            "retry-backoff",
            "replicate-k",
            "checkpoint-restart",
            "reschedule",
        ]
    }

    /// The per-task (per-replica for [`RecoveryPolicy::ReplicateK`])
    /// transient retry budget.
    #[must_use]
    pub fn max_retries(&self) -> u32 {
        match *self {
            RecoveryPolicy::RetryBackoff { max_retries, .. }
            | RecoveryPolicy::ReplicateK { max_retries, .. }
            | RecoveryPolicy::CheckpointRestart { max_retries, .. }
            | RecoveryPolicy::Reschedule { max_retries, .. } => max_retries,
        }
    }

    /// Backoff delay before retry `retry` (1-based), seconds: capped
    /// exponential `min(base · factor^(retry-1), cap)` under
    /// retry-backoff, zero when `base_secs` is zero (the classical flat
    /// retry) and under every other policy.
    #[must_use]
    pub fn backoff_delay_secs(&self, retry: u32) -> f64 {
        match *self {
            RecoveryPolicy::RetryBackoff {
                base_secs,
                factor,
                cap_secs,
                ..
            } if base_secs != 0.0 => {
                (base_secs * factor.powi(retry.saturating_sub(1) as i32)).min(cap_secs)
            }
            _ => 0.0,
        }
    }

    fn validate(&self) -> Result<(), EngineError> {
        let fail = |msg: String| {
            Err(EngineError::Config(format!(
                "policy {:?}: {msg}",
                self.name()
            )))
        };
        match *self {
            RecoveryPolicy::RetryBackoff {
                base_secs,
                factor,
                cap_secs,
                ..
            } => {
                if !(base_secs.is_finite() && base_secs >= 0.0) {
                    return fail(format!("base_secs must be non-negative, got {base_secs}"));
                }
                if !(factor.is_finite() && factor >= 1.0) {
                    return fail(format!("factor must be >= 1, got {factor}"));
                }
                if !(cap_secs.is_finite() && cap_secs >= base_secs) {
                    return fail(format!(
                        "cap_secs must be finite and >= base_secs, got {cap_secs}"
                    ));
                }
            }
            RecoveryPolicy::ReplicateK { replicas, .. } => {
                if replicas < 2 {
                    return fail(format!(
                        "replicas must be >= 2 (1 copy is no replication), got {replicas}"
                    ));
                }
            }
            RecoveryPolicy::CheckpointRestart {
                interval_secs,
                overhead_secs,
                ..
            } => {
                if !(interval_secs.is_finite() && interval_secs > 0.0) {
                    return fail(format!(
                        "interval_secs must be positive, got {interval_secs}"
                    ));
                }
                if !(overhead_secs.is_finite() && overhead_secs >= 0.0) {
                    return fail(format!(
                        "overhead_secs must be non-negative, got {overhead_secs}"
                    ));
                }
            }
            RecoveryPolicy::Reschedule {
                ref scheduler,
                overhead_secs,
                ..
            } => {
                if helios_sched::scheduler_by_name(scheduler).is_none() {
                    let legal: Vec<String> = helios_sched::all_schedulers()
                        .iter()
                        .map(|s| s.name().to_owned())
                        .collect();
                    return fail(format!(
                        "unknown scheduler {scheduler:?}; legal values: {}",
                        legal.join(", ")
                    ));
                }
                if !(overhead_secs.is_finite() && overhead_secs >= 0.0) {
                    return fail(format!(
                        "overhead_secs must be non-negative, got {overhead_secs}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Complete resilience configuration: one failure model plus one
/// recovery policy, attached to
/// [`EngineConfig::resilience`](crate::EngineConfig).
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// The per-device failure process and repair parameters.
    pub failures: FailureModel,
    /// What the runtime does about failures.
    pub policy: RecoveryPolicy,
    /// Per-link interconnect faults, if any.
    pub link_faults: Option<LinkFaultModel>,
    /// Correlated failure domains, if any (order fixes each domain's RNG
    /// stream, so it is part of the experiment identity).
    pub domains: Vec<FailureDomain>,
}

impl ResilienceConfig {
    /// Creates a resilience configuration with device failures only.
    #[must_use]
    pub fn new(failures: FailureModel, policy: RecoveryPolicy) -> ResilienceConfig {
        ResilienceConfig {
            failures,
            policy,
            link_faults: None,
            domains: Vec::new(),
        }
    }

    /// Adds a per-link interconnect-fault model.
    #[must_use]
    pub fn with_link_faults(mut self, link_faults: LinkFaultModel) -> ResilienceConfig {
        self.link_faults = Some(link_faults);
        self
    }

    /// Adds correlated failure domains.
    #[must_use]
    pub fn with_domains(mut self, domains: Vec<FailureDomain>) -> ResilienceConfig {
        self.domains = domains;
        self
    }

    /// Validates every parameter.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), EngineError> {
        self.failures.validate()?;
        self.policy.validate()?;
        if let Some(lf) = &self.link_faults {
            lf.validate()?;
        }
        let mut names: Vec<&str> = Vec::new();
        for d in &self.domains {
            d.validate()?;
            if names.contains(&d.name.as_str()) {
                return Err(EngineError::Config(format!(
                    "failure domain {:?} is defined twice; domain names must be unique",
                    d.name
                )));
            }
            names.push(&d.name);
        }
        Ok(())
    }
}

/// Resilience outcome metrics attached to an
/// [`ExecutionReport`](crate::ExecutionReport) by the
/// [`ResilientRunner`].
///
/// The fault-free baseline is the *same* configuration (same policy,
/// same seed, same plan) with failure injection disabled — so
/// replication and checkpoint overheads are part of the baseline and
/// `makespan_degradation` isolates what the failures themselves cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceMetrics {
    /// The recovery policy name ("retry-backoff", "replicate-k", …).
    pub policy: String,
    /// Makespan of the fault-free run of the same configuration,
    /// seconds.
    pub fault_free_makespan_secs: f64,
    /// `makespan / fault_free_makespan - 1`: the fractional makespan
    /// cost of the injected failures.
    pub makespan_degradation: f64,
    /// Executed device-seconds that did not contribute to completion:
    /// aborted attempt progress (minus checkpoint-preserved work) plus
    /// cancelled-replica progress.
    pub wasted_work_secs: f64,
    /// Restart overheads, backoff delays and re-planning overheads,
    /// seconds.
    pub recovery_overhead_secs: f64,
    /// Transient failures that aborted a running attempt.
    pub transient_failures: u32,
    /// Degradation events (device slowed until repair).
    pub degraded_failures: u32,
    /// Permanent device losses.
    pub permanent_failures: u32,
    /// Retry attempts started across all tasks and replicas.
    pub retries: u32,
    /// Task copies whose first attempt actually started, primaries
    /// included (so a clean ReplicateK run satisfies
    /// `launched = tasks + cancelled`).
    pub replicas_launched: u32,
    /// Launched copies cancelled because a sibling finished first.
    pub replicas_cancelled: u32,
    /// Full re-planning events (Reschedule policy).
    pub reschedules: u32,
    /// Per-link interconnect faults injected (outages + degradations).
    #[serde(default)]
    pub link_faults: u32,
    /// Transfers re-resolved onto a fallback route because a primary
    /// route link was down.
    #[serde(default)]
    pub reroutes: u32,
    /// Seconds transfers spent stalled waiting for a downed link (or
    /// partition) to heal, summed across transfers.
    #[serde(default)]
    pub partition_downtime_secs: f64,
    /// Finished tasks re-executed because every copy of their output
    /// was destroyed by a permanent device loss (lineage recovery).
    #[serde(default)]
    pub rematerialized_tasks: u32,
    /// Output bytes re-produced by lineage recovery.
    #[serde(default)]
    pub rematerialized_bytes: f64,
    /// Correlated failure-domain events fired.
    #[serde(default)]
    pub domain_events: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_model_validation() {
        assert!(FailureModel::exponential(10.0).validate().is_ok());
        assert!(FailureModel::exponential(0.0).validate().is_err());
        assert!(FailureModel::weibull(10.0, 1.5).validate().is_ok());
        assert!(FailureModel::weibull(10.0, 0.0).validate().is_err());
        let mut m = FailureModel::exponential(10.0);
        m.degraded_prob = 0.6;
        m.permanent_prob = 0.6;
        assert!(m.validate().is_err(), "probabilities must sum <= 1");
        let mut m = FailureModel::exponential(10.0);
        m.degraded_slowdown = 0.5;
        assert!(m.validate().is_err(), "degradation cannot speed things up");
        let mut m = FailureModel::exponential(10.0);
        m.restart_overhead_secs = -1.0;
        assert!(m.validate().is_err());
    }

    #[test]
    fn backoff_helper_math() {
        let backoff = |base_secs, factor, cap_secs, retry| {
            RecoveryPolicy::RetryBackoff {
                base_secs,
                factor,
                cap_secs,
                max_retries: 0,
            }
            .backoff_delay_secs(retry)
        };
        assert_eq!(backoff(0.0, 2.0, 9.0, 5), 0.0);
        assert_eq!(backoff(1.0, 2.0, 16.0, 1), 1.0);
        assert_eq!(backoff(1.0, 2.0, 16.0, 4), 8.0);
        assert_eq!(backoff(1.0, 2.0, 16.0, 10), 16.0);
    }

    #[test]
    fn policy_validation_and_backoff_math() {
        let p = RecoveryPolicy::RetryBackoff {
            base_secs: 0.5,
            factor: 2.0,
            cap_secs: 3.0,
            max_retries: 5,
        };
        assert!(p.validate().is_ok());
        assert_eq!(p.backoff_delay_secs(1), 0.5);
        assert_eq!(p.backoff_delay_secs(2), 1.0);
        assert_eq!(p.backoff_delay_secs(3), 2.0);
        assert_eq!(p.backoff_delay_secs(4), 3.0, "capped");
        assert_eq!(p.backoff_delay_secs(9), 3.0, "still capped");
        assert_eq!(p.max_retries(), 5);
        assert_eq!(p.name(), "retry-backoff");

        let flat = RecoveryPolicy::RetryBackoff {
            base_secs: 0.0,
            factor: 2.0,
            cap_secs: 0.0,
            max_retries: 3,
        };
        assert!(flat.validate().is_ok(), "flat retry is the base=0 case");
        assert_eq!(flat.backoff_delay_secs(7), 0.0);

        assert!(RecoveryPolicy::RetryBackoff {
            base_secs: 1.0,
            factor: 0.5,
            cap_secs: 2.0,
            max_retries: 1
        }
        .validate()
        .is_err());
        assert!(RecoveryPolicy::ReplicateK {
            replicas: 1,
            max_retries: 0
        }
        .validate()
        .is_err());
        assert!(RecoveryPolicy::ReplicateK {
            replicas: 2,
            max_retries: 0
        }
        .validate()
        .is_ok());
        assert!(RecoveryPolicy::CheckpointRestart {
            interval_secs: 0.0,
            overhead_secs: 0.0,
            max_retries: 1
        }
        .validate()
        .is_err());
        let r = RecoveryPolicy::Reschedule {
            scheduler: "no-such-scheduler".into(),
            overhead_secs: 0.0,
            max_retries: 1,
        };
        let err = r.validate().unwrap_err().to_string();
        assert!(
            err.contains("heft"),
            "error must name legal schedulers: {err}"
        );
        assert!(RecoveryPolicy::Reschedule {
            scheduler: "heft".into(),
            overhead_secs: 0.1,
            max_retries: 1
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn metrics_roundtrip_serde() {
        let m = ResilienceMetrics {
            policy: "replicate-k".into(),
            fault_free_makespan_secs: 10.0,
            makespan_degradation: 0.25,
            wasted_work_secs: 3.5,
            recovery_overhead_secs: 0.5,
            transient_failures: 4,
            degraded_failures: 1,
            permanent_failures: 0,
            retries: 4,
            replicas_launched: 12,
            replicas_cancelled: 9,
            reschedules: 0,
            link_faults: 3,
            reroutes: 2,
            partition_downtime_secs: 0.75,
            rematerialized_tasks: 2,
            rematerialized_bytes: 1.5e9,
            domain_events: 1,
        };
        let v = serde::Serialize::to_value(&m);
        let back: ResilienceMetrics = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn metrics_tolerate_legacy_json_without_fault_fields() {
        // Shards written before interconnect faults existed lack the new
        // columns; merging them must not fail.
        let m = ResilienceMetrics {
            policy: "retry-backoff".into(),
            fault_free_makespan_secs: 1.0,
            makespan_degradation: 0.0,
            wasted_work_secs: 0.0,
            recovery_overhead_secs: 0.0,
            transient_failures: 0,
            degraded_failures: 0,
            permanent_failures: 0,
            retries: 0,
            replicas_launched: 0,
            replicas_cancelled: 0,
            reschedules: 0,
            link_faults: 0,
            reroutes: 0,
            partition_downtime_secs: 0.0,
            rematerialized_tasks: 0,
            rematerialized_bytes: 0.0,
            domain_events: 0,
        };
        let mut v = serde::Serialize::to_value(&m);
        if let serde::Value::Object(fields) = &mut v {
            fields.retain(|(k, _)| {
                !matches!(
                    k.as_str(),
                    "link_faults"
                        | "reroutes"
                        | "partition_downtime_secs"
                        | "rematerialized_tasks"
                        | "rematerialized_bytes"
                        | "domain_events"
                )
            });
        }
        let back: ResilienceMetrics = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn link_fault_model_validation() {
        assert!(LinkFaultModel::exponential(5.0).validate().is_ok());
        assert!(LinkFaultModel::exponential(0.0).validate().is_err());
        assert!(LinkFaultModel::weibull(5.0, 1.2).validate().is_ok());
        assert!(LinkFaultModel::weibull(5.0, 0.0).validate().is_err());
        let mut m = LinkFaultModel::exponential(5.0);
        m.degraded_prob = 1.5;
        assert!(m.validate().is_err());
        let mut m = LinkFaultModel::exponential(5.0);
        m.degraded_factor = 0.5;
        assert!(m.validate().is_err(), "degradation cannot speed a link up");
        let mut m = LinkFaultModel::exponential(5.0);
        m.outage_secs = -1.0;
        assert!(m.validate().is_err());
        let mut m = LinkFaultModel::exponential(5.0);
        m.degraded_repair_secs = f64::NAN;
        assert!(m.validate().is_err());
    }

    #[test]
    fn failure_domain_validation() {
        let base = FailureDomain {
            kind: "rack".into(),
            name: "rack0".into(),
            devices: vec!["gpu0".into()],
            links: vec!["nvlink".into()],
            mttf_secs: 2.0,
            weibull_shape: None,
            degraded_prob: 0.1,
            permanent_prob: 0.1,
            outage_secs: 0.05,
        };
        assert!(base.validate().is_ok());

        let mut d = base.clone();
        d.kind = "blast-radius".into();
        let err = d.validate().unwrap_err().to_string();
        assert!(err.contains("rack"), "error must name legal kinds: {err}");
        assert!(err.contains("psu"), "error must name legal kinds: {err}");

        let mut d = base.clone();
        d.name.clear();
        assert!(d.validate().is_err());

        let mut d = base.clone();
        d.devices.clear();
        d.links.clear();
        assert!(d.validate().is_err(), "a domain must have members");

        let mut d = base.clone();
        d.mttf_secs = 0.0;
        assert!(d.validate().is_err());

        let mut d = base.clone();
        d.outage_secs = -0.1;
        assert!(d.validate().is_err());
    }

    #[test]
    fn duplicate_domain_names_rejected() {
        let d = FailureDomain {
            kind: "node".into(),
            name: "n0".into(),
            devices: vec!["cpu0".into()],
            links: Vec::new(),
            mttf_secs: 2.0,
            weibull_shape: None,
            degraded_prob: 0.0,
            permanent_prob: 0.0,
            outage_secs: 0.05,
        };
        let rc = ResilienceConfig::new(
            FailureModel::exponential(10.0),
            RecoveryPolicy::RetryBackoff {
                base_secs: 0.0,
                factor: 2.0,
                cap_secs: 0.0,
                max_retries: 3,
            },
        )
        .with_domains(vec![d.clone(), d]);
        let err = rc.validate().unwrap_err().to_string();
        assert!(err.contains("twice"), "{err}");
    }
}
