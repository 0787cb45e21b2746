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
use helios_platform::{LinkId, Platform};
use helios_sim::failure::{FailureDistribution, FailureProcess, LinkFailureProcess, ProcessKeys};
use helios_sim::{Block, KnobRange};

/// Legal range of every duration that may be zero: restart overheads,
/// repair and outage times, backoffs, checkpoint and re-planning
/// overheads, and elastic event times.
pub const DURATION_SECS: KnobRange<f64> = KnobRange::at_least(0.0);

/// Legal range of every duration that must be positive: the checkpoint
/// interval, preemption and churn notices (a zero-notice kill is a
/// `leave` event) and the churn rejoin mean.
pub const PERIOD_SECS: KnobRange<f64> = KnobRange::above(0.0);

/// Legal range of a slowdown multiplier: degraded device and link
/// slowdowns and the backoff growth factor. At least 1, so degradation
/// can only slow work down.
pub const SLOWDOWN: KnobRange<f64> = KnobRange::at_least(1.0);

/// Legal `replicate-k` copy counts: one copy is no replication.
pub const REPLICAS: KnobRange<usize> = KnobRange::at_least(2);

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

    /// Builds the validated [`FailureProcess`] for one device.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] describing the offending
    /// parameter.
    pub fn process(&self) -> Result<FailureProcess, EngineError> {
        let keys = ProcessKeys {
            block: Block("resilience", None),
            scale: "mttf_secs",
            shape: "weibull_shape",
        };
        let distribution = FailureDistribution::new(self.mttf_secs, self.weibull_shape);
        FailureProcess::new(distribution, self.degraded_prob, self.permanent_prob, keys)
            .map_err(EngineError::Config)
    }

    fn validate(&self) -> Result<(), EngineError> {
        self.process()?;
        SLOWDOWN.check("resilience.degraded_slowdown", self.degraded_slowdown)?;
        DURATION_SECS.check("resilience.degraded_repair_secs", self.degraded_repair_secs)?;
        DURATION_SECS.check(
            "resilience.restart_overhead_secs",
            self.restart_overhead_secs,
        )?;
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
///
/// Spelled in spec files as an object with a `distribution` tag, e.g.
/// `{"distribution": "weibull", "mttf_secs": 0.2, "shape": 1.5,
/// "outage_secs": 0.05}`; every field but `mttf_secs` (and `shape`
/// under Weibull) defaults to [`LinkFaultModel::exponential`]'s value.
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

    /// Builds the validated [`LinkFailureProcess`] for one link.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] describing the offending
    /// parameter.
    pub fn process(&self) -> Result<LinkFailureProcess, EngineError> {
        let keys = ProcessKeys {
            block: Block("interconnect_faults", None),
            scale: "mttf_secs",
            shape: "shape",
        };
        let distribution = FailureDistribution::new(self.mttf_secs, self.weibull_shape);
        LinkFailureProcess::new(distribution, self.degraded_prob, keys).map_err(EngineError::Config)
    }

    fn validate(&self) -> Result<(), EngineError> {
        self.process()?;
        SLOWDOWN.check("interconnect_faults.degraded_factor", self.degraded_factor)?;
        DURATION_SECS.check("interconnect_faults.outage_secs", self.outage_secs)?;
        DURATION_SECS.check(
            "interconnect_faults.degraded_repair_secs",
            self.degraded_repair_secs,
        )?;
        Ok(())
    }
}

// Hand-written codec: the `distribution` tag decides whether `shape` is
// required, and legal.
impl Serialize for LinkFaultModel {
    fn to_value(&self) -> serde::Value {
        let distribution = match self.weibull_shape {
            None => "exponential",
            Some(_) => "weibull",
        };
        let num = |key: &str, v: f64| (key.to_owned(), v.to_value());
        let mut obj = vec![
            ("distribution".to_owned(), distribution.to_value()),
            num("mttf_secs", self.mttf_secs),
        ];
        obj.extend(self.weibull_shape.map(|shape| num("shape", shape)));
        obj.extend([
            num("degraded_prob", self.degraded_prob),
            num("degraded_factor", self.degraded_factor),
            num("outage_secs", self.outage_secs),
            num("degraded_repair_secs", self.degraded_repair_secs),
        ]);
        serde::Value::Object(obj)
    }
}

impl<'de> Deserialize<'de> for LinkFaultModel {
    fn from_value(value: &serde::Value) -> Result<LinkFaultModel, serde::DeError> {
        const TY: &str = "LinkFaultModel";
        const DISTRIBUTIONS: &str = "exponential, weibull";
        let (weibull, legal): (bool, &[&str]) =
            match value.get("distribution").and_then(serde::Value::as_str) {
                Some("exponential") => (false, &LINK_FAULT_KEYS[..LINK_FAULT_KEYS.len() - 1]),
                Some("weibull") => (true, &LINK_FAULT_KEYS),
                Some(other) => {
                    return Err(serde::DeError::new(format!(
                        "{TY}: unknown distribution {other:?}; legal values: {DISTRIBUTIONS}"
                    )))
                }
                None => {
                    return Err(serde::DeError::new(format!(
                        "{TY} must be an object with a \"distribution\" tag, one of: \
                         {DISTRIBUTIONS}"
                    )))
                }
            };
        serde::de::deny_unknown_fields(value, TY, legal)?;
        let mttf_secs = serde::de::field(value, TY, "mttf_secs")?;
        let d = LinkFaultModel::exponential(mttf_secs);
        let or = |key, default: f64| serde::de::field_or_else(value, TY, key, || default);
        Ok(LinkFaultModel {
            mttf_secs,
            weibull_shape: if weibull {
                Some(serde::de::field(value, TY, "shape")?)
            } else {
                None
            },
            degraded_prob: or("degraded_prob", d.degraded_prob)?,
            degraded_factor: or("degraded_factor", d.degraded_factor)?,
            outage_secs: or("outage_secs", d.outage_secs)?,
            degraded_repair_secs: or("degraded_repair_secs", d.degraded_repair_secs)?,
        })
    }
}

/// Every key of a [`LinkFaultModel`] object; `shape` (last) is legal
/// under the Weibull distribution only.
const LINK_FAULT_KEYS: [&str; 7] = [
    "distribution",
    "mttf_secs",
    "degraded_prob",
    "degraded_factor",
    "outage_secs",
    "degraded_repair_secs",
    "shape",
];

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
///
/// Spelled in spec files as, e.g. `{"kind": "rack", "name": "r0",
/// "devices": ["gpu0", "gpu1"], "links": ["nvlink"], "mttf_secs": 0.5,
/// "permanent_prob": 0.1}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FailureDomain {
    /// Domain kind tag; one of [`FailureDomain::kinds`].
    pub kind: String,
    /// Unique domain name, used in validation errors and reports.
    pub name: String,
    /// Member device names (resolved against the platform per cell).
    #[serde(default)]
    pub devices: Vec<String>,
    /// Member link names; a name selects *every* link carrying it
    /// (cluster presets share link names across nodes).
    #[serde(default)]
    pub links: Vec<String>,
    /// Mean time to failure (exponential) or characteristic life
    /// (Weibull) of the whole domain, in seconds.
    pub mttf_secs: f64,
    /// Weibull shape parameter; `None` selects the exponential
    /// distribution.
    #[serde(default)]
    pub weibull_shape: Option<f64>,
    /// Probability that a domain event degrades its members instead of
    /// aborting their in-flight work (default 0).
    #[serde(default)]
    pub degraded_prob: f64,
    /// Probability that a domain event takes the whole group down for
    /// good (default 0).
    #[serde(default)]
    pub permanent_prob: f64,
    /// Downtime of member links under non-permanent events, seconds
    /// (default 0.05).
    #[serde(default = "default_outage_secs")]
    pub outage_secs: f64,
}

fn default_outage_secs() -> f64 {
    0.05
}

impl FailureDomain {
    /// Every legal domain kind tag, for validation errors.
    #[must_use]
    pub fn kinds() -> &'static [&'static str] {
        &["rack", "node", "psu"]
    }

    /// Builds the validated shared [`FailureProcess`] for this domain,
    /// entry `index` of the spec's `failure_domains`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] naming the offending key.
    pub fn process(&self, index: usize) -> Result<FailureProcess, EngineError> {
        let distribution = FailureDistribution::new(self.mttf_secs, self.weibull_shape);
        let keys = ProcessKeys {
            block: Block("failure_domains", Some(index)),
            scale: "mttf_secs",
            shape: "weibull_shape",
        };
        FailureProcess::new(distribution, self.degraded_prob, self.permanent_prob, keys)
            .map_err(EngineError::Config)
    }

    /// Resolves the members on `platform`: the device ids, then the
    /// sorted ids of every link carrying a member link's name.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] naming an unknown member and the
    /// platform's devices or links.
    pub fn members(&self, platform: &Platform) -> Result<(Vec<usize>, Vec<LinkId>), EngineError> {
        let unknown = |what: &str, name: &str, mut known: Vec<&str>| {
            known.dedup();
            EngineError::Config(format!(
                "failure domain {:?}: unknown {what} {name:?} on platform {:?} ({what}s: {})",
                self.name,
                platform.name(),
                known.join(", ")
            ))
        };
        let mut devices = Vec::with_capacity(self.devices.len());
        for name in &self.devices {
            let dev = platform.device_by_name(name).ok_or_else(|| {
                unknown(
                    "device",
                    name,
                    platform.devices().iter().map(|d| d.name()).collect(),
                )
            })?;
            devices.push(dev.id().0);
        }
        let mut links = Vec::new();
        for name in &self.links {
            let matches = platform.interconnect().links_by_name(name);
            if matches.is_empty() {
                let known = platform.interconnect().links().iter().map(|l| l.name());
                return Err(unknown("link", name, known.collect()));
            }
            links.extend(matches);
        }
        links.sort_unstable();
        links.dedup();
        Ok((devices, links))
    }

    fn validate(&self, index: usize) -> Result<(), EngineError> {
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
        self.process(index)?;
        DURATION_SECS.check(
            format_args!("failure_domains[{index}].outage_secs"),
            self.outage_secs,
        )?;
        Ok(())
    }
}

/// What the runtime does when an attempt or a device fails.
///
/// Spelled in spec files as an object with a `kind` tag (the
/// [`name`](RecoveryPolicy::name)), e.g. `{"kind": "retry-backoff",
/// "base_secs": 0.001, "factor": 2.0, "cap_secs": 0.01,
/// "max_retries": 10}`; `max_retries` defaults to 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "kebab-case", deny_unknown_fields)]
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
        #[serde(default = "default_max_retries")]
        max_retries: u32,
    },
    /// Run `replicas` copies of every task on distinct devices; the
    /// first finisher wins and the remaining copies are cancelled.
    ReplicateK {
        /// Total copies per task, including the primary (≥ 2). Clamped
        /// to the number of feasible devices.
        replicas: usize,
        /// Per-replica retry budget for transient failures.
        #[serde(default = "default_max_retries")]
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
        #[serde(default = "default_max_retries")]
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
        #[serde(default = "default_max_retries")]
        max_retries: u32,
    },
}

fn default_max_retries() -> u32 {
    3
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
        match *self {
            RecoveryPolicy::RetryBackoff {
                base_secs,
                factor,
                cap_secs,
                ..
            } => {
                DURATION_SECS.check("resilience.policy.base_secs", base_secs)?;
                SLOWDOWN.check("resilience.policy.factor", factor)?;
                DURATION_SECS.check("resilience.policy.cap_secs", cap_secs)?;
                if cap_secs < base_secs {
                    return Err(EngineError::Config(format!(
                        "`resilience.policy.cap_secs` must be >= `base_secs` {base_secs}, \
                         got {cap_secs}"
                    )));
                }
            }
            RecoveryPolicy::ReplicateK { replicas, .. } => {
                REPLICAS.check("resilience.policy.replicas", replicas)?;
            }
            RecoveryPolicy::CheckpointRestart {
                interval_secs,
                overhead_secs,
                ..
            } => {
                PERIOD_SECS.check("resilience.policy.interval_secs", interval_secs)?;
                DURATION_SECS.check("resilience.policy.overhead_secs", overhead_secs)?;
            }
            RecoveryPolicy::Reschedule {
                ref scheduler,
                overhead_secs,
                ..
            } => {
                let lineup = helios_sched::LINEUP.map(|(name, _)| name);
                if !lineup.contains(&scheduler.as_str()) {
                    return Err(EngineError::Config(format!(
                        "`resilience.policy.scheduler`: unknown scheduler {scheduler:?}; \
                         legal values: {}",
                        lineup.join(", ")
                    )));
                }
                DURATION_SECS.check("resilience.policy.overhead_secs", overhead_secs)?;
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
        for (i, d) in self.domains.iter().enumerate() {
            d.validate(i)?;
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
        assert!(base.validate(0).is_ok());

        let mut d = base.clone();
        d.kind = "blast-radius".into();
        let err = d.validate(0).unwrap_err().to_string();
        assert!(err.contains("rack"), "error must name legal kinds: {err}");
        assert!(err.contains("psu"), "error must name legal kinds: {err}");

        let mut d = base.clone();
        d.name.clear();
        assert!(d.validate(0).is_err());

        let mut d = base.clone();
        d.devices.clear();
        d.links.clear();
        assert!(d.validate(0).is_err(), "a domain must have members");

        let mut d = base.clone();
        d.mttf_secs = 0.0;
        assert!(d.validate(0).is_err());

        let mut d = base.clone();
        d.outage_secs = -0.1;
        assert!(d.validate(0).is_err());
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
