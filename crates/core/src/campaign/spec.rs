//! Declarative campaign sweep specifications.
//!
//! A [`CampaignSpec`] is the file-level description of an evaluation
//! grid: the cross product of workflow families, platform presets,
//! schedulers and seeds, plus the engine knobs (noise, contention,
//! caching, DVFS policy, fault injection) every cell runs under. Specs
//! are plain JSON loaded through the vendored serde stack, so the same
//! grid can be split across processes or hosts and recombined later —
//! see [`super::sweep`] for the sharded driver.
//!
//! Expansion is deterministic: [`CampaignSpec::expand`] enumerates
//! cells in declaration order (family, then platform, then scheduler,
//! then seed), and every cell carries its global index. Two processes
//! expanding the same spec therefore agree on which simulation cell
//! `i` denotes, which is what makes shard unions bit-identical to the
//! unsharded run.

use serde::{Deserialize, Serialize};

use helios_workflow::generators::WorkflowClass;

use super::CampaignError;
use crate::elastic::{ElasticChurn, ElasticEvent, ElasticEventKind, ElasticityConfig};
use crate::resilience::{
    FailureDomain, FailureModel, LinkFaultModel, RecoveryPolicy, ResilienceConfig,
};
use crate::EngineError;

/// A consecutive seed range: `base, base + 1, …, base + count - 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedRange {
    /// First seed of the range.
    pub base: u64,
    /// Number of seeds (one replicate per seed).
    pub count: usize,
}

impl SeedRange {
    /// Iterates the seeds of the range.
    pub fn iter(self) -> impl Iterator<Item = u64> {
        (0..self.count as u64).map(move |i| self.base.wrapping_add(i))
    }
}

/// The DVFS operating point every placement of a cell is pinned to.
///
/// `Nominal` keeps whatever levels the scheduler chose; `Powersave`
/// rewrites placements to each device's slowest state, `Performance`
/// to its fastest. The engine re-derives timing from the plan's device
/// order, so rewriting levels is safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DvfsKnob {
    /// Keep the scheduler's chosen levels.
    #[default]
    Nominal,
    /// Pin every placement to the slowest DVFS state.
    Powersave,
    /// Pin every placement to the fastest DVFS state.
    Performance,
}

impl DvfsKnob {
    /// The spec-file spelling of the knob.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            DvfsKnob::Nominal => "nominal",
            DvfsKnob::Powersave => "powersave",
            DvfsKnob::Performance => "performance",
        }
    }
}

// Hand-written impls: spec files spell the knob in lowercase, while the
// vendored derive would use the exact variant names.
impl Serialize for DvfsKnob {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.as_str().to_owned())
    }
}

impl<'de> Deserialize<'de> for DvfsKnob {
    fn from_value(value: &serde::Value) -> Result<DvfsKnob, serde::DeError> {
        match value.as_str() {
            Some("nominal") => Ok(DvfsKnob::Nominal),
            Some("powersave") => Ok(DvfsKnob::Powersave),
            Some("performance") => Ok(DvfsKnob::Performance),
            _ => Err(serde::DeError::new(format!(
                "unknown dvfs knob {value:?} (nominal, powersave, performance)"
            ))),
        }
    }
}

/// Flat-retry fault-injection knobs of a spec: each device fails as a
/// Poisson process and a failed task retries from scratch. The cells
/// run on the plain [`Engine`](crate::Engine) under the
/// [`ResilienceConfig`] of [`FaultKnob::to_config`]; a spec
/// `resilience` block instead runs the
/// [`ResilientRunner`](crate::ResilientRunner), which also fills the
/// resilience columns of each cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultKnob {
    /// Mean time between failures per device, seconds.
    pub mtbf_secs: f64,
    /// Restart overhead added to every retry, seconds.
    #[serde(default)]
    pub restart_overhead_secs: f64,
    /// Retry budget per task.
    #[serde(default)]
    pub max_retries: u32,
}

impl FaultKnob {
    /// The knob in the engine's fault vocabulary: exponential
    /// transient-only failures under
    /// [`RecoveryPolicy::flat_retry`].
    #[must_use]
    pub fn to_config(&self) -> ResilienceConfig {
        ResilienceConfig::new(
            FailureModel {
                restart_overhead_secs: self.restart_overhead_secs,
                ..FailureModel::exponential(self.mtbf_secs)
            },
            RecoveryPolicy::flat_retry(self.max_retries),
        )
    }
}

/// Recovery-policy knob of a spec, mirroring
/// [`RecoveryPolicy`](crate::RecoveryPolicy). Spelled in spec files as
/// an object with a `kind` tag, e.g.
/// `{"kind": "retry-backoff", "base_secs": 0.001, "factor": 2.0,
/// "cap_secs": 0.01, "max_retries": 10}`.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyKnob {
    /// `{"kind": "retry-backoff", ...}` →
    /// [`RecoveryPolicy::RetryBackoff`].
    RetryBackoff {
        /// Backoff before the first retry, seconds (0 = flat retry).
        base_secs: f64,
        /// Multiplicative growth per retry.
        factor: f64,
        /// Upper bound on any single backoff, seconds.
        cap_secs: f64,
        /// Retry budget per task.
        max_retries: u32,
    },
    /// `{"kind": "replicate-k", ...}` → [`RecoveryPolicy::ReplicateK`].
    ReplicateK {
        /// Total copies per task, including the primary.
        replicas: usize,
        /// Per-replica retry budget.
        max_retries: u32,
    },
    /// `{"kind": "checkpoint-restart", ...}` →
    /// [`RecoveryPolicy::CheckpointRestart`].
    CheckpointRestart {
        /// Execution time between snapshots, seconds.
        interval_secs: f64,
        /// Cost of writing one snapshot, seconds.
        overhead_secs: f64,
        /// Retry budget per task.
        max_retries: u32,
    },
    /// `{"kind": "reschedule", ...}` → [`RecoveryPolicy::Reschedule`].
    Reschedule {
        /// Scheduler used for re-planning after a permanent loss.
        scheduler: String,
        /// Re-planning overhead, seconds.
        overhead_secs: f64,
        /// Retry budget per task for transient failures.
        max_retries: u32,
    },
}

impl PolicyKnob {
    /// Maps the knob onto the engine-level recovery policy.
    #[must_use]
    pub fn to_policy(&self) -> RecoveryPolicy {
        match *self {
            PolicyKnob::RetryBackoff {
                base_secs,
                factor,
                cap_secs,
                max_retries,
            } => RecoveryPolicy::RetryBackoff {
                base_secs,
                factor,
                cap_secs,
                max_retries,
            },
            PolicyKnob::ReplicateK {
                replicas,
                max_retries,
            } => RecoveryPolicy::ReplicateK {
                replicas,
                max_retries,
            },
            PolicyKnob::CheckpointRestart {
                interval_secs,
                overhead_secs,
                max_retries,
            } => RecoveryPolicy::CheckpointRestart {
                interval_secs,
                overhead_secs,
                max_retries,
            },
            PolicyKnob::Reschedule {
                ref scheduler,
                overhead_secs,
                max_retries,
            } => RecoveryPolicy::Reschedule {
                scheduler: scheduler.clone(),
                overhead_secs,
                max_retries,
            },
        }
    }
}

// Hand-written impls: the vendored derive has no adjacent/internal
// tagging, and spec files spell policies as kebab-case `kind` tags.
impl Serialize for PolicyKnob {
    fn to_value(&self) -> serde::Value {
        let num = serde::Value::Number;
        let mut obj: Vec<(String, serde::Value)> = vec![(
            "kind".to_owned(),
            serde::Value::String(self.to_policy().name().to_owned()),
        )];
        match *self {
            PolicyKnob::RetryBackoff {
                base_secs,
                factor,
                cap_secs,
                max_retries,
            } => {
                obj.push(("base_secs".to_owned(), num(base_secs)));
                obj.push(("factor".to_owned(), num(factor)));
                obj.push(("cap_secs".to_owned(), num(cap_secs)));
                obj.push(("max_retries".to_owned(), num(f64::from(max_retries))));
            }
            PolicyKnob::ReplicateK {
                replicas,
                max_retries,
            } => {
                obj.push(("replicas".to_owned(), num(replicas as f64)));
                obj.push(("max_retries".to_owned(), num(f64::from(max_retries))));
            }
            PolicyKnob::CheckpointRestart {
                interval_secs,
                overhead_secs,
                max_retries,
            } => {
                obj.push(("interval_secs".to_owned(), num(interval_secs)));
                obj.push(("overhead_secs".to_owned(), num(overhead_secs)));
                obj.push(("max_retries".to_owned(), num(f64::from(max_retries))));
            }
            PolicyKnob::Reschedule {
                ref scheduler,
                overhead_secs,
                max_retries,
            } => {
                obj.push((
                    "scheduler".to_owned(),
                    serde::Value::String(scheduler.clone()),
                ));
                obj.push(("overhead_secs".to_owned(), num(overhead_secs)));
                obj.push(("max_retries".to_owned(), num(f64::from(max_retries))));
            }
        }
        serde::Value::Object(obj)
    }
}

/// Required numeric field of a policy object.
fn knob_f64(value: &serde::Value, kind: &str, key: &str) -> Result<f64, serde::DeError> {
    value
        .get(key)
        .and_then(serde::Value::as_f64)
        .ok_or_else(|| {
            serde::DeError::new(format!("policy {kind:?} requires a numeric {key:?} field"))
        })
}

/// Optional retry budget of a policy object (default 3).
fn knob_retries(value: &serde::Value, kind: &str) -> Result<u32, serde::DeError> {
    match value.get("max_retries") {
        None => Ok(3),
        Some(v) => v.as_u64().map(|n| n as u32).ok_or_else(|| {
            serde::DeError::new(format!(
                "policy {kind:?}: max_retries must be a non-negative integer"
            ))
        }),
    }
}

impl<'de> Deserialize<'de> for PolicyKnob {
    fn from_value(value: &serde::Value) -> Result<PolicyKnob, serde::DeError> {
        let kind = value
            .get("kind")
            .and_then(serde::Value::as_str)
            .ok_or_else(|| {
                serde::DeError::new(format!(
                    "resilience policy must be an object with a \"kind\" tag, one of: {}",
                    RecoveryPolicy::names().join(", ")
                ))
            })?;
        match kind {
            "retry-backoff" => Ok(PolicyKnob::RetryBackoff {
                base_secs: knob_f64(value, kind, "base_secs")?,
                factor: knob_f64(value, kind, "factor")?,
                cap_secs: knob_f64(value, kind, "cap_secs")?,
                max_retries: knob_retries(value, kind)?,
            }),
            "replicate-k" => Ok(PolicyKnob::ReplicateK {
                replicas: knob_f64(value, kind, "replicas")? as usize,
                max_retries: knob_retries(value, kind)?,
            }),
            "checkpoint-restart" => Ok(PolicyKnob::CheckpointRestart {
                interval_secs: knob_f64(value, kind, "interval_secs")?,
                overhead_secs: knob_f64(value, kind, "overhead_secs")?,
                max_retries: knob_retries(value, kind)?,
            }),
            "reschedule" => Ok(PolicyKnob::Reschedule {
                scheduler: value
                    .get("scheduler")
                    .and_then(serde::Value::as_str)
                    .ok_or_else(|| {
                        serde::DeError::new(
                            "policy \"reschedule\" requires a string \"scheduler\" field"
                                .to_owned(),
                        )
                    })?
                    .to_owned(),
                overhead_secs: knob_f64(value, kind, "overhead_secs")?,
                max_retries: knob_retries(value, kind)?,
            }),
            other => Err(serde::DeError::new(format!(
                "unknown resilience policy kind {other:?}; legal values: {}",
                RecoveryPolicy::names().join(", ")
            ))),
        }
    }
}

fn default_slowdown() -> f64 {
    2.0
}

fn default_repair() -> f64 {
    1.0
}

/// Failure-domain and recovery knobs of a spec, mirroring
/// [`ResilienceConfig`]. Mutually exclusive with the flat-retry
/// [`FaultKnob`] block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceKnob {
    /// Mean time to failure (exponential) or characteristic life
    /// (Weibull), seconds.
    pub mttf_secs: f64,
    /// Weibull shape; omit for the exponential distribution.
    #[serde(default)]
    pub weibull_shape: Option<f64>,
    /// Probability a failure degrades the device instead of only
    /// aborting the running attempt (default 0).
    #[serde(default)]
    pub degraded_prob: f64,
    /// Probability a failure removes the device permanently (default 0).
    #[serde(default)]
    pub permanent_prob: f64,
    /// Execution-time multiplier while degraded (default 2).
    #[serde(default = "default_slowdown")]
    pub degraded_slowdown: f64,
    /// Time until a degraded device is repaired, seconds (default 1).
    #[serde(default = "default_repair")]
    pub degraded_repair_secs: f64,
    /// Fixed overhead paid before every retry, seconds (default 0).
    #[serde(default)]
    pub restart_overhead_secs: f64,
    /// The recovery policy (`kind`-tagged object).
    pub policy: PolicyKnob,
}

impl ResilienceKnob {
    /// Builds the validated engine-level resilience configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] naming the offending parameter.
    pub fn to_config(&self) -> Result<ResilienceConfig, EngineError> {
        let config = ResilienceConfig::new(
            FailureModel {
                mttf_secs: self.mttf_secs,
                weibull_shape: self.weibull_shape,
                degraded_prob: self.degraded_prob,
                permanent_prob: self.permanent_prob,
                degraded_slowdown: self.degraded_slowdown,
                degraded_repair_secs: self.degraded_repair_secs,
                restart_overhead_secs: self.restart_overhead_secs,
            },
            self.policy.to_policy(),
        );
        config.validate()?;
        Ok(config)
    }
}

fn default_degraded_factor() -> f64 {
    2.0
}

fn default_link_repair() -> f64 {
    0.05
}

/// Interconnect-fault knob of a spec, mirroring
/// [`LinkFaultModel`](crate::LinkFaultModel). Spelled in spec files as
/// an object with a `distribution` tag, e.g.
/// `{"distribution": "weibull", "mttf_secs": 0.2, "shape": 1.5,
/// "outage_secs": 0.05}`.
#[derive(Debug, Clone, PartialEq)]
pub struct InterconnectFaultKnob {
    /// Mean time to failure (exponential) or characteristic life
    /// (Weibull) per link, seconds.
    pub mttf_secs: f64,
    /// Weibull shape; `None` selects the exponential distribution.
    pub weibull_shape: Option<f64>,
    /// Probability a fault degrades bandwidth instead of a full outage
    /// (default 0).
    pub degraded_prob: f64,
    /// Transfer-time multiplier while degraded (default 2).
    pub degraded_factor: f64,
    /// Outage downtime before repair, seconds (default 0.05).
    pub outage_secs: f64,
    /// Time until a degraded link recovers, seconds (default 0.05).
    pub degraded_repair_secs: f64,
}

impl InterconnectFaultKnob {
    /// The distribution tags spec files may use.
    #[must_use]
    pub fn distributions() -> &'static [&'static str] {
        &["exponential", "weibull"]
    }

    /// Maps the knob onto the engine-level link-fault model.
    #[must_use]
    pub fn to_model(&self) -> LinkFaultModel {
        LinkFaultModel {
            mttf_secs: self.mttf_secs,
            weibull_shape: self.weibull_shape,
            degraded_prob: self.degraded_prob,
            degraded_factor: self.degraded_factor,
            outage_secs: self.outage_secs,
            degraded_repair_secs: self.degraded_repair_secs,
        }
    }
}

// Hand-written impls: the vendored derive has no tagging, and the
// `distribution` tag decides whether `shape` is required.
impl Serialize for InterconnectFaultKnob {
    fn to_value(&self) -> serde::Value {
        let num = serde::Value::Number;
        let mut obj: Vec<(String, serde::Value)> = vec![(
            "distribution".to_owned(),
            serde::Value::String(
                if self.weibull_shape.is_some() {
                    "weibull"
                } else {
                    "exponential"
                }
                .to_owned(),
            ),
        )];
        obj.push(("mttf_secs".to_owned(), num(self.mttf_secs)));
        if let Some(shape) = self.weibull_shape {
            obj.push(("shape".to_owned(), num(shape)));
        }
        obj.push(("degraded_prob".to_owned(), num(self.degraded_prob)));
        obj.push(("degraded_factor".to_owned(), num(self.degraded_factor)));
        obj.push(("outage_secs".to_owned(), num(self.outage_secs)));
        obj.push((
            "degraded_repair_secs".to_owned(),
            num(self.degraded_repair_secs),
        ));
        serde::Value::Object(obj)
    }
}

/// Optional numeric field with a default.
fn opt_f64(
    value: &serde::Value,
    ctx: &str,
    key: &str,
    default: f64,
) -> Result<f64, serde::DeError> {
    match value.get(key) {
        None => Ok(default),
        Some(v) => v.as_f64().ok_or_else(|| {
            serde::DeError::new(format!("{ctx}: {key:?} must be a number, got {v:?}"))
        }),
    }
}

impl<'de> Deserialize<'de> for InterconnectFaultKnob {
    fn from_value(value: &serde::Value) -> Result<InterconnectFaultKnob, serde::DeError> {
        let ctx = "interconnect_faults";
        let distribution = value
            .get("distribution")
            .and_then(serde::Value::as_str)
            .ok_or_else(|| {
                serde::DeError::new(format!(
                    "{ctx} must be an object with a \"distribution\" tag, one of: {}",
                    InterconnectFaultKnob::distributions().join(", ")
                ))
            })?;
        let weibull_shape = match distribution {
            "exponential" => None,
            "weibull" => Some(
                value
                    .get("shape")
                    .and_then(serde::Value::as_f64)
                    .ok_or_else(|| {
                        serde::DeError::new(format!(
                            "{ctx}: distribution \"weibull\" requires a numeric \"shape\" field"
                        ))
                    })?,
            ),
            other => {
                return Err(serde::DeError::new(format!(
                    "{ctx}: unknown distribution {other:?}; legal values: {}",
                    InterconnectFaultKnob::distributions().join(", ")
                )))
            }
        };
        Ok(InterconnectFaultKnob {
            mttf_secs: value
                .get("mttf_secs")
                .and_then(serde::Value::as_f64)
                .ok_or_else(|| {
                    serde::DeError::new(format!("{ctx} requires a numeric \"mttf_secs\" field"))
                })?,
            weibull_shape,
            degraded_prob: opt_f64(value, ctx, "degraded_prob", 0.0)?,
            degraded_factor: opt_f64(value, ctx, "degraded_factor", default_degraded_factor())?,
            outage_secs: opt_f64(value, ctx, "outage_secs", default_link_repair())?,
            degraded_repair_secs: opt_f64(
                value,
                ctx,
                "degraded_repair_secs",
                default_link_repair(),
            )?,
        })
    }
}

/// Correlated failure-domain knob of a spec, mirroring
/// [`FailureDomain`](crate::FailureDomain): a `kind`-tagged named group
/// of devices and links struck together, e.g.
/// `{"kind": "rack", "name": "r0", "devices": ["gpu0", "gpu1"],
/// "links": ["nvlink"], "mttf_secs": 0.5, "permanent_prob": 0.1}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureDomainKnob {
    /// Domain kind tag; one of [`FailureDomain::kinds`]
    /// (`rack`, `node`, `psu`).
    pub kind: String,
    /// Unique domain name, echoed in validation errors.
    pub name: String,
    /// Member device names, resolved against every spec platform.
    #[serde(default)]
    pub devices: Vec<String>,
    /// Member link names, resolved against every spec platform.
    #[serde(default)]
    pub links: Vec<String>,
    /// Mean time to failure (exponential) or characteristic life
    /// (Weibull) of the domain, seconds.
    pub mttf_secs: f64,
    /// Weibull shape; omit for the exponential distribution.
    #[serde(default)]
    pub weibull_shape: Option<f64>,
    /// Probability a domain event degrades members instead of aborting
    /// their work (default 0).
    #[serde(default)]
    pub degraded_prob: f64,
    /// Probability a domain event removes the whole group permanently
    /// (default 0).
    #[serde(default)]
    pub permanent_prob: f64,
    /// Member-link downtime under non-permanent events, seconds
    /// (default 0.05).
    #[serde(default = "default_link_repair")]
    pub outage_secs: f64,
}

impl FailureDomainKnob {
    /// Maps the knob onto the engine-level failure domain.
    #[must_use]
    pub fn to_domain(&self) -> FailureDomain {
        FailureDomain {
            kind: self.kind.clone(),
            name: self.name.clone(),
            devices: self.devices.clone(),
            links: self.links.clone(),
            mttf_secs: self.mttf_secs,
            weibull_shape: self.weibull_shape,
            degraded_prob: self.degraded_prob,
            permanent_prob: self.permanent_prob,
            outage_secs: self.outage_secs,
        }
    }
}

/// Per-scheduler tuning knobs of a spec. Each key overrides one
/// scheduler's construction in every cell that names it; schedulers
/// without a key keep their lineup defaults, and cells running other
/// schedulers ignore the block entirely. Any override is part of the
/// spec's content [`digest`](CampaignSpec::digest), so shards swept
/// with different knobs refuse to merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerParamsKnob {
    /// Iteration budget of the `annealing` scheduler (lineup default
    /// 500).
    pub annealing_iterations: Option<u32>,
    /// Descendant-generation depth of the `lookahead` scheduler
    /// (lineup default 1, the published one-step variant).
    pub lookahead_depth: Option<u32>,
}

impl SchedulerParamsKnob {
    /// The keys spec files may set.
    pub const KEYS: &'static [&'static str] = &["annealing_iterations", "lookahead_depth"];

    /// True when no override is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.annealing_iterations.is_none() && self.lookahead_depth.is_none()
    }
}

// Hand-written impls: only the keys actually set are serialized (so a
// knob-free spec keeps its canonical JSON and digest), and unknown keys
// are rejected naming the legal ones — a typoed override must die at
// validation instead of silently sweeping with defaults.
impl Serialize for SchedulerParamsKnob {
    fn to_value(&self) -> serde::Value {
        let mut obj: Vec<(String, serde::Value)> = Vec::new();
        if let Some(n) = self.annealing_iterations {
            obj.push((
                "annealing_iterations".to_owned(),
                serde::Value::Number(f64::from(n)),
            ));
        }
        if let Some(d) = self.lookahead_depth {
            obj.push((
                "lookahead_depth".to_owned(),
                serde::Value::Number(f64::from(d)),
            ));
        }
        serde::Value::Object(obj)
    }
}

impl<'de> Deserialize<'de> for SchedulerParamsKnob {
    fn from_value(value: &serde::Value) -> Result<SchedulerParamsKnob, serde::DeError> {
        let ctx = "scheduler_params";
        let serde::Value::Object(entries) = value else {
            return Err(serde::DeError::new(format!(
                "{ctx} must be an object; legal keys: {}",
                SchedulerParamsKnob::KEYS.join(", ")
            )));
        };
        let mut knob = SchedulerParamsKnob::default();
        for (key, v) in entries {
            let slot = match key.as_str() {
                "annealing_iterations" => &mut knob.annealing_iterations,
                "lookahead_depth" => &mut knob.lookahead_depth,
                other => {
                    return Err(serde::DeError::new(format!(
                        "{ctx}: unknown key {other:?}; legal keys: {}",
                        SchedulerParamsKnob::KEYS.join(", ")
                    )))
                }
            };
            let n = v.as_u64().filter(|&n| n >= 1).ok_or_else(|| {
                serde::DeError::new(format!("{ctx}: {key:?} must be an integer >= 1, got {v:?}"))
            })?;
            *slot = Some(n as u32);
        }
        Ok(knob)
    }
}

/// Elastic-capacity knob of a spec, mirroring
/// [`ElasticityConfig`](crate::ElasticityConfig): timed `kind`-tagged
/// capacity events plus stochastic spot churn. Spelled in spec files
/// as, e.g.
/// `{"events": [{"kind": "preempt", "device": "gpu0", "at_secs": 0.2,
/// "notice_secs": 0.05}], "churn": [{"device": "cpu1",
/// "mtbp_secs": 0.5, "notice_secs": 0.02, "rejoin_secs": 0.2}]}`.
/// Any elasticity block is part of the spec's content
/// [`digest`](CampaignSpec::digest).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ElasticityKnob {
    /// Timed capacity events, executed in time order.
    pub events: Vec<ElasticEvent>,
    /// Stochastic churn processes, at most one per device.
    pub churn: Vec<ElasticChurn>,
}

impl ElasticityKnob {
    /// Maps the knob onto the engine-level elasticity configuration.
    #[must_use]
    pub fn to_config(&self) -> ElasticityConfig {
        ElasticityConfig {
            events: self.events.clone(),
            churn: self.churn.clone(),
        }
    }
}

// Hand-written impls: the vendored derive has no tagging, and the
// `kind` tag decides which extra field (`deadline_secs`,
// `notice_secs`) each event requires.
impl Serialize for ElasticityKnob {
    fn to_value(&self) -> serde::Value {
        let num = serde::Value::Number;
        let events: Vec<serde::Value> = self
            .events
            .iter()
            .map(|ev| {
                let mut obj: Vec<(String, serde::Value)> = vec![
                    (
                        "kind".to_owned(),
                        serde::Value::String(ev.kind.name().to_owned()),
                    ),
                    ("device".to_owned(), serde::Value::String(ev.device.clone())),
                    ("at_secs".to_owned(), num(ev.at_secs)),
                ];
                match ev.kind {
                    ElasticEventKind::Drain { deadline_secs } => {
                        obj.push(("deadline_secs".to_owned(), num(deadline_secs)));
                    }
                    ElasticEventKind::Preempt { notice_secs } => {
                        obj.push(("notice_secs".to_owned(), num(notice_secs)));
                    }
                    ElasticEventKind::Join | ElasticEventKind::Leave => {}
                }
                serde::Value::Object(obj)
            })
            .collect();
        let churn: Vec<serde::Value> = self
            .churn
            .iter()
            .map(|c| {
                let mut obj: Vec<(String, serde::Value)> = vec![
                    ("device".to_owned(), serde::Value::String(c.device.clone())),
                    ("mtbp_secs".to_owned(), num(c.mtbp_secs)),
                ];
                if let Some(shape) = c.weibull_shape {
                    obj.push(("weibull_shape".to_owned(), num(shape)));
                }
                obj.push(("notice_secs".to_owned(), num(c.notice_secs)));
                obj.push(("rejoin_secs".to_owned(), num(c.rejoin_secs)));
                serde::Value::Object(obj)
            })
            .collect();
        serde::Value::Object(vec![
            ("events".to_owned(), serde::Value::Array(events)),
            ("churn".to_owned(), serde::Value::Array(churn)),
        ])
    }
}

/// Required numeric field of one elasticity object.
fn req_f64(value: &serde::Value, ctx: &str, key: &str) -> Result<f64, serde::DeError> {
    value
        .get(key)
        .and_then(serde::Value::as_f64)
        .ok_or_else(|| serde::DeError::new(format!("{ctx} requires a numeric {key:?} field")))
}

/// Required string field of one elasticity object.
fn req_str(value: &serde::Value, ctx: &str, key: &str) -> Result<String, serde::DeError> {
    value
        .get(key)
        .and_then(serde::Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| serde::DeError::new(format!("{ctx} requires a string {key:?} field")))
}

impl<'de> Deserialize<'de> for ElasticityKnob {
    fn from_value(value: &serde::Value) -> Result<ElasticityKnob, serde::DeError> {
        let ctx = "elasticity";
        if !matches!(value, serde::Value::Object(_)) {
            return Err(serde::DeError::new(format!(
                "{ctx} must be an object with \"events\" and/or \"churn\" arrays"
            )));
        }
        let arr = |key: &str| -> Result<&[serde::Value], serde::DeError> {
            match value.get(key) {
                None => Ok(&[]),
                Some(serde::Value::Array(items)) => Ok(items),
                Some(other) => Err(serde::DeError::new(format!(
                    "{ctx}: {key:?} must be an array, got {other:?}"
                ))),
            }
        };
        let mut events = Vec::new();
        for (i, ev) in arr("events")?.iter().enumerate() {
            let ctx = format!("{ctx} event {i}");
            let kind_tag = ev
                .get("kind")
                .and_then(serde::Value::as_str)
                .ok_or_else(|| {
                    serde::DeError::new(format!(
                        "{ctx} must be an object with a \"kind\" tag, one of: {}",
                        ElasticEventKind::kinds().join(", ")
                    ))
                })?;
            let kind = match kind_tag {
                "join" => ElasticEventKind::Join,
                "drain" => ElasticEventKind::Drain {
                    deadline_secs: req_f64(ev, &ctx, "deadline_secs")?,
                },
                "preempt" => ElasticEventKind::Preempt {
                    notice_secs: req_f64(ev, &ctx, "notice_secs")?,
                },
                "leave" => ElasticEventKind::Leave,
                other => {
                    return Err(serde::DeError::new(format!(
                        "{ctx}: unknown kind {other:?}; legal values: {}",
                        ElasticEventKind::kinds().join(", ")
                    )))
                }
            };
            events.push(ElasticEvent {
                device: req_str(ev, &ctx, "device")?,
                at_secs: req_f64(ev, &ctx, "at_secs")?,
                kind,
            });
        }
        let mut churn = Vec::new();
        for (i, c) in arr("churn")?.iter().enumerate() {
            let ctx = format!("{ctx} churn {i}");
            churn.push(ElasticChurn {
                device: req_str(c, &ctx, "device")?,
                mtbp_secs: req_f64(c, &ctx, "mtbp_secs")?,
                weibull_shape: match c.get("weibull_shape") {
                    None => None,
                    Some(v) => Some(v.as_f64().ok_or_else(|| {
                        serde::DeError::new(format!(
                            "{ctx}: \"weibull_shape\" must be a number, got {v:?}"
                        ))
                    })?),
                },
                notice_secs: req_f64(c, &ctx, "notice_secs")?,
                rejoin_secs: req_f64(c, &ctx, "rejoin_secs")?,
            });
        }
        Ok(ElasticityKnob { events, churn })
    }
}

fn default_tasks() -> usize {
    50
}

/// A declarative sweep grid: the cross product of families, platforms,
/// schedulers and seeds, with shared engine knobs.
///
/// # Examples
///
/// ```
/// let spec = helios_core::CampaignSpec::from_json(
///     r#"{
///         "name": "smoke",
///         "families": ["montage"],
///         "platforms": ["workstation"],
///         "schedulers": ["heft"],
///         "seeds": {"base": 0, "count": 2}
///     }"#,
/// )?;
/// assert_eq!(spec.expand()?.len(), 2);
/// # Ok::<(), helios_core::EngineError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct CampaignSpec {
    /// Human-readable grid name, echoed into every report.
    pub name: String,
    /// Workflow families (`montage`, `cybershake`, `epigenomics`,
    /// `ligo`, `sipht`).
    pub families: Vec<String>,
    /// Platform preset names (`workstation`, `hpc_node`, `cluster<N>`,
    /// `edge_soc`).
    pub platforms: Vec<String>,
    /// Scheduler report names (see `helios_sched::all_schedulers`).
    pub schedulers: Vec<String>,
    /// Optional per-scheduler tuning overrides (annealing iteration
    /// budget, lookahead depth). Omitted from the canonical JSON when
    /// absent, so knob-free specs keep their digests.
    #[serde(default)]
    pub scheduler_params: Option<SchedulerParamsKnob>,
    /// Seed replicates per (family, platform, scheduler) combination.
    pub seeds: SeedRange,
    /// Tasks per generated workflow (default 50).
    #[serde(default = "default_tasks")]
    pub tasks: usize,
    /// Runtime noise coefficient of variation (default 0).
    #[serde(default)]
    pub noise_cv: f64,
    /// Model link contention (default off).
    #[serde(default)]
    pub link_contention: bool,
    /// Cache data products per device (default off).
    #[serde(default)]
    pub data_caching: bool,
    /// DVFS operating point (default `nominal`).
    #[serde(default)]
    pub dvfs: DvfsKnob,
    /// Optional flat-retry fault injection; cells run on the plain
    /// [`Engine`](crate::Engine) under [`FaultKnob::to_config`].
    #[serde(default)]
    pub faults: Option<FaultKnob>,
    /// Optional failure-domain model and recovery policy; cells run
    /// through the [`ResilientRunner`](crate::ResilientRunner).
    /// Mutually exclusive with `faults`.
    #[serde(default)]
    pub resilience: Option<ResilienceKnob>,
    /// Optional per-link interconnect faults (outages and bandwidth
    /// degradations). Requires a `resilience` block.
    #[serde(default)]
    pub interconnect_faults: Option<InterconnectFaultKnob>,
    /// Optional correlated failure domains (racks, nodes, PSUs) whose
    /// members fail together. Requires a `resilience` block.
    #[serde(default)]
    pub failure_domains: Vec<FailureDomainKnob>,
    /// Optional elastic-capacity plan: timed join/drain/preempt/leave
    /// events and stochastic spot churn. Cells run through the
    /// [`ResilientRunner`](crate::ResilientRunner) (a benign default
    /// resilience config is synthesized when no `resilience` block is
    /// present). Mutually exclusive with `faults`; omitted from the
    /// canonical JSON when absent, so elasticity-free specs keep their
    /// digests.
    #[serde(default)]
    pub elasticity: Option<ElasticityKnob>,
    /// Optional watchdog budget on simulated events per cell; a cell
    /// exceeding it is recorded as timed out instead of grinding the
    /// campaign. Overridable at run time via the
    /// `HELIOS_CELL_STEP_BUDGET` environment variable.
    #[serde(default)]
    pub cell_step_budget: Option<u64>,
}

// Hand-written Serialize: identical to the derive output except that
// `scheduler_params` and `elasticity` are *omitted* when absent (the
// vendored `Option` impl would write `null`, which would shift the
// canonical JSON — and therefore the content digest of every existing
// spec — the day the field was added). Field order mirrors the
// declaration, like the derive.
impl Serialize for CampaignSpec {
    fn to_value(&self) -> serde::Value {
        let mut fields: Vec<(String, serde::Value)> = vec![
            ("name".to_owned(), self.name.to_value()),
            ("families".to_owned(), self.families.to_value()),
            ("platforms".to_owned(), self.platforms.to_value()),
            ("schedulers".to_owned(), self.schedulers.to_value()),
        ];
        if let Some(params) = &self.scheduler_params {
            fields.push(("scheduler_params".to_owned(), params.to_value()));
        }
        fields.push(("seeds".to_owned(), self.seeds.to_value()));
        fields.push(("tasks".to_owned(), self.tasks.to_value()));
        fields.push(("noise_cv".to_owned(), self.noise_cv.to_value()));
        fields.push((
            "link_contention".to_owned(),
            self.link_contention.to_value(),
        ));
        fields.push(("data_caching".to_owned(), self.data_caching.to_value()));
        fields.push(("dvfs".to_owned(), self.dvfs.to_value()));
        fields.push(("faults".to_owned(), self.faults.to_value()));
        fields.push(("resilience".to_owned(), self.resilience.to_value()));
        fields.push((
            "interconnect_faults".to_owned(),
            self.interconnect_faults.to_value(),
        ));
        fields.push((
            "failure_domains".to_owned(),
            self.failure_domains.to_value(),
        ));
        if let Some(el) = &self.elasticity {
            fields.push(("elasticity".to_owned(), el.to_value()));
        }
        fields.push((
            "cell_step_budget".to_owned(),
            self.cell_step_budget.to_value(),
        ));
        serde::Value::Object(fields)
    }
}

/// One expanded grid point: a single deterministic simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCell {
    /// Global cell index in expansion order (stable across shards).
    pub index: usize,
    /// Workflow family name.
    pub family: String,
    /// Platform preset name.
    pub platform: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Workflow-generation and engine seed.
    pub seed: u64,
}

/// Resolves a spec family name to its generator class.
#[must_use]
pub fn family_class(name: &str) -> Option<WorkflowClass> {
    WorkflowClass::ALL.into_iter().find(|c| c.as_str() == name)
}

impl CampaignSpec {
    /// Parses and validates a spec from its JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::MalformedSpec`] (wrapped in
    /// [`EngineError::Campaign`]) for JSON that does not deserialize,
    /// and [`CampaignError::InvalidSpec`] for unknown grid axis values
    /// or an empty grid.
    pub fn from_json(json: &str) -> Result<CampaignSpec, EngineError> {
        let spec: CampaignSpec =
            serde_json::from_str(json).map_err(|e| CampaignError::MalformedSpec(e.to_string()))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Checks every grid axis is non-empty and resolvable, and that
    /// every fault block is legal (interconnect faults and failure
    /// domains require a resilience block, domain members must resolve
    /// on every spec platform).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::InvalidSpec`] (wrapped in
    /// [`EngineError::Campaign`]) naming the offending field; an empty
    /// axis is a hard error because it silently expands to zero cells.
    pub fn validate(&self) -> Result<(), EngineError> {
        let fail = |msg: String| {
            Err(EngineError::Campaign(CampaignError::InvalidSpec {
                spec: self.name.clone(),
                detail: msg,
            }))
        };
        if self.families.is_empty() {
            return fail(
                "`families` is empty, so the grid has no cells; list at least one of \
                 montage, cybershake, epigenomics, ligo, sipht"
                    .into(),
            );
        }
        for f in &self.families {
            if family_class(f).is_none() {
                return fail(format!(
                    "unknown family {f:?} (montage, cybershake, epigenomics, ligo, sipht)"
                ));
            }
        }
        if self.platforms.is_empty() {
            return fail(
                "`platforms` is empty, so the grid has no cells; list at least one of \
                 workstation, hpc_node, cluster<N>, edge_soc"
                    .into(),
            );
        }
        for p in &self.platforms {
            if helios_platform::presets::by_name(p).is_none() {
                return fail(format!(
                    "unknown platform {p:?} (workstation, hpc_node, cluster<N>, edge_soc)"
                ));
            }
        }
        if self.schedulers.is_empty() {
            return fail(
                "`schedulers` is empty, so the grid has no cells; list at least one \
                 scheduler name (e.g. heft)"
                    .into(),
            );
        }
        for s in &self.schedulers {
            if helios_sched::scheduler_by_name(s).is_none() {
                let names: Vec<String> = helios_sched::all_schedulers()
                    .iter()
                    .map(|s| s.name().to_owned())
                    .collect();
                return fail(format!(
                    "unknown scheduler {s:?} (available: {})",
                    names.join(", ")
                ));
            }
        }
        if let Some(sp) = &self.scheduler_params {
            if sp.annealing_iterations == Some(0) {
                return fail(format!(
                    "`scheduler_params.annealing_iterations` must be >= 1; legal keys: {}",
                    SchedulerParamsKnob::KEYS.join(", ")
                ));
            }
            if sp.lookahead_depth == Some(0) {
                return fail(format!(
                    "`scheduler_params.lookahead_depth` must be >= 1; legal keys: {}",
                    SchedulerParamsKnob::KEYS.join(", ")
                ));
            }
        }
        if self.seeds.count == 0 {
            return fail("`seeds.count` must be >= 1, a zero-seed sweep has no cells".into());
        }
        if self.tasks == 0 {
            return fail("`tasks` must be >= 1".into());
        }
        if !(self.noise_cv.is_finite() && self.noise_cv >= 0.0) {
            return fail(format!(
                "`noise_cv` must be finite and >= 0, got {}",
                self.noise_cv
            ));
        }
        if let Some(fk) = &self.faults {
            if !(fk.mtbf_secs.is_finite() && fk.mtbf_secs > 0.0) {
                return fail(format!(
                    "`faults.mtbf_secs` must be positive, got {}",
                    fk.mtbf_secs
                ));
            }
            if !(fk.restart_overhead_secs.is_finite() && fk.restart_overhead_secs >= 0.0) {
                return fail(format!(
                    "`faults.restart_overhead_secs` must be finite and >= 0, got {}",
                    fk.restart_overhead_secs
                ));
            }
        }
        if self.resilience.is_some() && self.faults.is_some() {
            return fail(
                "`faults` and `resilience` are mutually exclusive; flat retry is \
                 `resilience.policy = {\"kind\": \"retry-backoff\", \"base_secs\": 0, ...}`"
                    .into(),
            );
        }
        if self.elasticity.is_some() && self.faults.is_some() {
            return fail(
                "`faults` and `elasticity` are mutually exclusive: capacity events run \
                 through the resilient runner, which replaces the legacy fault path"
                    .into(),
            );
        }
        if self.resilience.is_none()
            && (self.interconnect_faults.is_some() || !self.failure_domains.is_empty())
        {
            return fail(
                "`interconnect_faults` and `failure_domains` require a `resilience` block: \
                 link outages and correlated strikes need a recovery policy to run under"
                    .into(),
            );
        }
        if self.cell_step_budget == Some(0) {
            return fail("`cell_step_budget` must be at least 1 simulated event".into());
        }
        // Builds the full engine-level config, which validates the fault
        // model, the link-fault parameters, every domain (kind tag,
        // members, probabilities) and domain-name uniqueness.
        self.resilience_config().map_err(|e| {
            EngineError::Campaign(CampaignError::InvalidSpec {
                spec: self.name.clone(),
                detail: format!("`resilience`: {e}"),
            })
        })?;
        // Times, notices and churn rates are validated by the
        // engine-level elasticity config; device names below, per
        // platform.
        if let Some(el) = &self.elasticity {
            el.to_config().validate().map_err(|e| {
                EngineError::Campaign(CampaignError::InvalidSpec {
                    spec: self.name.clone(),
                    detail: format!("`elasticity`: {e}"),
                })
            })?;
        }
        // Domain members and elasticity targets must resolve on *every*
        // platform of the grid — a typo must die at validation, not in
        // shard 7 of 32.
        for pname in &self.platforms {
            let Some(platform) = helios_platform::presets::by_name(pname) else {
                continue; // Unknown platforms were rejected above.
            };
            for domain in &self.failure_domains {
                for dev in &domain.devices {
                    if platform.device_by_name(dev).is_none() {
                        let names: Vec<&str> =
                            platform.devices().iter().map(|d| d.name()).collect();
                        return fail(format!(
                            "failure domain {:?}: unknown device {dev:?} on platform \
                             {pname:?} (devices: {})",
                            domain.name,
                            names.join(", ")
                        ));
                    }
                }
                for link in &domain.links {
                    if platform.interconnect().links_by_name(link).is_empty() {
                        let mut names: Vec<&str> = platform
                            .interconnect()
                            .links()
                            .iter()
                            .map(|l| l.name())
                            .collect();
                        names.dedup();
                        return fail(format!(
                            "failure domain {:?}: unknown link {link:?} on platform \
                             {pname:?} (links: {})",
                            domain.name,
                            names.join(", ")
                        ));
                    }
                }
            }
            if let Some(el) = &self.elasticity {
                let unknown_device = |what: String, dev: &str| {
                    let names: Vec<&str> = platform.devices().iter().map(|d| d.name()).collect();
                    fail(format!(
                        "{what}: unknown device {dev:?} on platform {pname:?} \
                         (devices: {})",
                        names.join(", ")
                    ))
                };
                for (i, ev) in el.events.iter().enumerate() {
                    if platform.device_by_name(&ev.device).is_none() {
                        return unknown_device(
                            format!("elasticity event {i} ({})", ev.kind.name()),
                            &ev.device,
                        );
                    }
                }
                for c in &el.churn {
                    if platform.device_by_name(&c.device).is_none() {
                        return unknown_device("elasticity churn".to_owned(), &c.device);
                    }
                }
            }
        }
        Ok(())
    }

    /// The full engine-level resilience configuration of the spec:
    /// failure model, recovery policy, interconnect faults and failure
    /// domains, validated as a whole. `None` without a `resilience`
    /// block.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] naming the offending parameter.
    pub fn resilience_config(&self) -> Result<Option<ResilienceConfig>, EngineError> {
        let Some(rk) = &self.resilience else {
            return Ok(None);
        };
        let mut config = rk.to_config()?;
        if let Some(knob) = &self.interconnect_faults {
            config = config.with_link_faults(knob.to_model());
        }
        if !self.failure_domains.is_empty() {
            config =
                config.with_domains(self.failure_domains.iter().map(|d| d.to_domain()).collect());
        }
        config.validate()?;
        Ok(Some(config))
    }

    /// The engine-level elasticity configuration of the spec, validated.
    /// `None` without an `elasticity` block.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] naming the offending field.
    pub fn elasticity_config(&self) -> Result<Option<ElasticityConfig>, EngineError> {
        let Some(ek) = &self.elasticity else {
            return Ok(None);
        };
        let config = ek.to_config();
        config.validate()?;
        Ok(Some(config))
    }

    /// The number of cells the spec expands to.
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.families.len() * self.platforms.len() * self.schedulers.len() * self.seeds.count
    }

    /// Expands the grid into cells, in declaration order (family ×
    /// platform × scheduler × seed, seed innermost).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] if the spec is invalid or the
    /// grid is empty.
    pub fn expand(&self) -> Result<Vec<SweepCell>, EngineError> {
        self.validate()?;
        let mut cells = Vec::with_capacity(self.num_cells());
        for family in &self.families {
            for platform in &self.platforms {
                for scheduler in &self.schedulers {
                    for seed in self.seeds.iter() {
                        cells.push(SweepCell {
                            index: cells.len(),
                            family: family.clone(),
                            platform: platform.clone(),
                            scheduler: scheduler.clone(),
                            seed,
                        });
                    }
                }
            }
        }
        if cells.is_empty() {
            return Err(EngineError::Campaign(CampaignError::InvalidSpec {
                spec: self.name.clone(),
                detail: "expands to zero cells".into(),
            }));
        }
        Ok(cells)
    }

    /// A stable digest of the canonical spec JSON, used by the merge
    /// path to refuse mixing shards from different specs. Stored as a
    /// hex string (the JSON number space cannot carry 64 bits exactly).
    #[must_use]
    pub fn digest(&self) -> String {
        let canonical = serde_json::to_string(self).expect("spec serialization is infallible");
        format!("{:016x}", fnv1a(canonical.as_bytes()))
    }
}

/// 64-bit FNV-1a over a byte string.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_json() -> String {
        r#"{
            "name": "t",
            "families": ["montage", "sipht"],
            "platforms": ["workstation"],
            "schedulers": ["heft", "min-min"],
            "seeds": {"base": 5, "count": 3}
        }"#
        .to_owned()
    }

    #[test]
    fn parses_with_defaults_and_expands_in_declaration_order() {
        let spec = CampaignSpec::from_json(&minimal_json()).unwrap();
        assert_eq!(spec.tasks, 50);
        assert_eq!(spec.noise_cv, 0.0);
        assert_eq!(spec.dvfs, DvfsKnob::Nominal);
        assert!(spec.faults.is_none());

        let cells = spec.expand().unwrap();
        assert_eq!(cells.len(), 2 * 2 * 3);
        assert_eq!(spec.num_cells(), cells.len());
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        // Seed is the innermost axis, family the outermost.
        assert_eq!(cells[0].seed, 5);
        assert_eq!(cells[1].seed, 6);
        assert_eq!(cells[3].scheduler, "min-min");
        assert_eq!(cells[6].family, "sipht");
    }

    #[test]
    fn malformed_json_is_a_config_error() {
        let err = CampaignSpec::from_json("{not json").unwrap_err();
        assert!(err.to_string().contains("malformed campaign spec"), "{err}");
        let err = CampaignSpec::from_json("{}").unwrap_err();
        assert!(err.to_string().contains("missing field"), "{err}");
    }

    #[test]
    fn empty_axes_and_unknown_names_are_hard_errors() {
        let checks = [
            (
                r#""families": ["montage", "sipht"]"#,
                r#""families": []"#,
                "families",
            ),
            (
                r#""platforms": ["workstation"]"#,
                r#""platforms": []"#,
                "platforms",
            ),
            (
                r#""schedulers": ["heft", "min-min"]"#,
                r#""schedulers": []"#,
                "schedulers",
            ),
            (
                r#""seeds": {"base": 5, "count": 3}"#,
                r#""seeds": {"base": 5, "count": 0}"#,
                "seeds.count",
            ),
            (
                r#""families": ["montage"#,
                r#""families": ["warptage"#,
                "unknown family",
            ),
            (
                r#""platforms": ["workstation"#,
                r#""platforms": ["laptop"#,
                "unknown platform",
            ),
            (
                r#""schedulers": ["heft"#,
                r#""schedulers": ["sjf"#,
                "unknown scheduler",
            ),
        ];
        for (from, to, needle) in checks {
            let json = minimal_json().replace(from, to);
            let err = CampaignSpec::from_json(&json).unwrap_err();
            assert!(err.to_string().contains(needle), "{needle}: {err}");
        }
    }

    #[test]
    fn dvfs_knob_roundtrips_lowercase() {
        for knob in [
            DvfsKnob::Nominal,
            DvfsKnob::Powersave,
            DvfsKnob::Performance,
        ] {
            let v = knob.to_value();
            assert_eq!(v.as_str(), Some(knob.as_str()));
            assert_eq!(DvfsKnob::from_value(&v).unwrap(), knob);
        }
        assert!(DvfsKnob::from_value(&serde::Value::String("turbo".into())).is_err());
    }

    #[test]
    fn digest_is_stable_and_distinguishes_specs() {
        let a = CampaignSpec::from_json(&minimal_json()).unwrap();
        let b = CampaignSpec::from_json(&minimal_json()).unwrap();
        assert_eq!(a.digest(), b.digest());
        let c = CampaignSpec {
            noise_cv: 0.1,
            ..a.clone()
        };
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.digest().len(), 16);
    }

    fn resilience_json(policy: &str) -> String {
        minimal_json().trim_end().trim_end_matches('}').to_owned()
            + &format!(
                r#", "resilience": {{
                    "mttf_secs": 0.25,
                    "weibull_shape": 1.5,
                    "degraded_prob": 0.08,
                    "permanent_prob": 0.02,
                    "degraded_repair_secs": 0.05,
                    "restart_overhead_secs": 0.001,
                    "policy": {policy}
                }}}}"#
            )
    }

    #[test]
    fn resilience_knob_parses_every_policy_kind() {
        let policies = [
            r#"{"kind": "retry-backoff", "base_secs": 0.001, "factor": 2.0, "cap_secs": 0.01, "max_retries": 10}"#,
            r#"{"kind": "replicate-k", "replicas": 2}"#,
            r#"{"kind": "checkpoint-restart", "interval_secs": 0.005, "overhead_secs": 0.0002}"#,
            r#"{"kind": "reschedule", "scheduler": "heft", "overhead_secs": 0.001}"#,
        ];
        for policy in policies {
            let spec = CampaignSpec::from_json(&resilience_json(policy)).unwrap();
            let rk = spec.resilience.as_ref().expect("resilience block parsed");
            assert_eq!(rk.mttf_secs, 0.25);
            assert_eq!(rk.weibull_shape, Some(1.5));
            assert_eq!(rk.degraded_slowdown, 2.0, "defaulted");
            let cfg = rk.to_config().unwrap();
            assert!(policy.contains(cfg.policy.name()), "{policy}");
            // And the knob round-trips through canonical JSON.
            let round = CampaignSpec::from_json(&serde_json::to_string(&spec).unwrap()).unwrap();
            assert_eq!(spec, round);
        }
        // max_retries defaults to 3 when omitted.
        let spec = CampaignSpec::from_json(&resilience_json(
            r#"{"kind": "replicate-k", "replicas": 2}"#,
        ))
        .unwrap();
        assert_eq!(
            spec.resilience.unwrap().policy,
            PolicyKnob::ReplicateK {
                replicas: 2,
                max_retries: 3
            }
        );
    }

    #[test]
    fn resilience_knob_rejects_bad_input() {
        let err = CampaignSpec::from_json(&resilience_json(r#"{"kind": "pray"}"#)).unwrap_err();
        assert!(
            err.to_string().contains("retry-backoff"),
            "error must name the legal policy kinds: {err}"
        );
        let err = CampaignSpec::from_json(&resilience_json(r#"{"base_secs": 1.0}"#)).unwrap_err();
        assert!(err.to_string().contains("kind"), "{err}");
        let err = CampaignSpec::from_json(&resilience_json(
            r#"{"kind": "replicate-k", "replicas": 1}"#,
        ))
        .unwrap_err();
        assert!(err.to_string().contains("replicas"), "{err}");

        // Legacy faults and resilience cannot be combined.
        let json = resilience_json(r#"{"kind": "replicate-k", "replicas": 2}"#)
            .trim_end()
            .trim_end_matches('}')
            .to_owned()
            + r#"}, "faults": {"mtbf_secs": 2.0}}"#;
        let err = CampaignSpec::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn resilience_knob_changes_the_digest() {
        let base = CampaignSpec::from_json(&minimal_json()).unwrap();
        let with = CampaignSpec::from_json(&resilience_json(
            r#"{"kind": "retry-backoff", "base_secs": 0.001, "factor": 2.0, "cap_secs": 0.01}"#,
        ))
        .unwrap();
        assert_ne!(base.digest(), with.digest());
        let tweaked = CampaignSpec::from_json(&resilience_json(
            r#"{"kind": "retry-backoff", "base_secs": 0.002, "factor": 2.0, "cap_secs": 0.01}"#,
        ))
        .unwrap();
        assert_ne!(
            with.digest(),
            tweaked.digest(),
            "policy parameters are part of the content digest"
        );
    }

    /// A spec with a resilience block plus arbitrary extra top-level
    /// JSON fields spliced in before the closing brace.
    fn faulty_json(extra: &str) -> String {
        resilience_json(
            r#"{"kind": "retry-backoff", "base_secs": 0.001, "factor": 2.0, "cap_secs": 0.01}"#,
        )
        .trim_end()
        .trim_end_matches('}')
        .to_owned()
            + &format!("}}, {extra}}}")
    }

    #[test]
    fn interconnect_fault_knob_parses_and_roundtrips() {
        let spec = CampaignSpec::from_json(&faulty_json(
            r#""interconnect_faults": {
                "distribution": "weibull",
                "shape": 1.4,
                "mttf_secs": 0.5,
                "degraded_prob": 0.3,
                "degraded_factor": 4.0,
                "outage_secs": 0.02
            }"#,
        ))
        .unwrap();
        let knob = spec.interconnect_faults.as_ref().expect("knob parsed");
        assert_eq!(knob.mttf_secs, 0.5);
        assert_eq!(knob.weibull_shape, Some(1.4));
        assert_eq!(knob.degraded_prob, 0.3);
        assert_eq!(knob.degraded_factor, 4.0);
        assert_eq!(knob.outage_secs, 0.02);
        assert_eq!(knob.degraded_repair_secs, 0.05, "defaulted");
        let round = CampaignSpec::from_json(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(spec, round);

        // Exponential variant: no shape, optional fields defaulted.
        let spec = CampaignSpec::from_json(&faulty_json(
            r#""interconnect_faults": {"distribution": "exponential", "mttf_secs": 2.0}"#,
        ))
        .unwrap();
        let knob = spec.interconnect_faults.as_ref().unwrap();
        assert_eq!(knob.weibull_shape, None);
        assert_eq!(knob.degraded_factor, 2.0, "defaulted");
        let round = CampaignSpec::from_json(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(spec, round);
        // And the knob lowers into a validating model.
        spec.resilience_config().unwrap().unwrap();
    }

    #[test]
    fn interconnect_fault_knob_rejects_bad_input() {
        let err = CampaignSpec::from_json(&faulty_json(
            r#""interconnect_faults": {"distribution": "gamma", "mttf_secs": 1.0}"#,
        ))
        .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("exponential") && msg.contains("weibull"),
            "error must name the legal distributions: {msg}"
        );
        let err =
            CampaignSpec::from_json(&faulty_json(r#""interconnect_faults": {"mttf_secs": 1.0}"#))
                .unwrap_err();
        assert!(err.to_string().contains("distribution"), "{err}");
        let err = CampaignSpec::from_json(&faulty_json(
            r#""interconnect_faults": {"distribution": "weibull", "mttf_secs": 1.0}"#,
        ))
        .unwrap_err();
        assert!(err.to_string().contains("shape"), "{err}");
    }

    #[test]
    fn failure_domains_parse_and_resolve_against_every_platform() {
        let spec = CampaignSpec::from_json(&faulty_json(
            r#""failure_domains": [
                {"kind": "rack", "name": "r0",
                 "devices": ["cpu0", "gpu0"], "links": ["pcie3-x16"],
                 "mttf_secs": 0.5, "degraded_prob": 0.2, "outage_secs": 0.01},
                {"kind": "psu", "name": "p0",
                 "devices": ["cpu1"], "mttf_secs": 3.0, "permanent_prob": 1.0}
            ]"#,
        ))
        .unwrap();
        assert_eq!(spec.failure_domains.len(), 2);
        assert_eq!(spec.failure_domains[0].links, vec!["pcie3-x16"]);
        let round = CampaignSpec::from_json(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(spec, round);
        let config = spec.resilience_config().unwrap().unwrap();
        assert_eq!(config.domains.len(), 2);
    }

    #[test]
    fn failure_domain_validation_catches_user_errors() {
        // Unknown member device: names the platform's real devices.
        let err = CampaignSpec::from_json(&faulty_json(
            r#""failure_domains": [{"kind": "rack", "name": "r0",
                "devices": ["xpu9"], "mttf_secs": 1.0, "degraded_prob": 1.0}]"#,
        ))
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("xpu9") && msg.contains("cpu0"), "{msg}");

        // Unknown member link: names the platform's real links.
        let err = CampaignSpec::from_json(&faulty_json(
            r#""failure_domains": [{"kind": "rack", "name": "r0",
                "links": ["infiniband"], "mttf_secs": 1.0, "degraded_prob": 1.0}]"#,
        ))
        .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("infiniband") && msg.contains("pcie3-x16"),
            "{msg}"
        );

        // Unknown domain kind: names the legal kinds.
        let err = CampaignSpec::from_json(&faulty_json(
            r#""failure_domains": [{"kind": "blast-radius", "name": "r0",
                "devices": ["cpu0"], "mttf_secs": 1.0, "degraded_prob": 1.0}]"#,
        ))
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("rack") && msg.contains("psu"), "{msg}");

        // Duplicate domain names collide in the metrics rollup.
        let err = CampaignSpec::from_json(&faulty_json(
            r#""failure_domains": [
                {"kind": "rack", "name": "r0", "devices": ["cpu0"],
                 "mttf_secs": 1.0, "degraded_prob": 1.0},
                {"kind": "rack", "name": "r0", "devices": ["cpu1"],
                 "mttf_secs": 1.0, "degraded_prob": 1.0}
            ]"#,
        ))
        .unwrap_err();
        assert!(err.to_string().contains("r0"), "{err}");
    }

    #[test]
    fn fault_topology_blocks_require_a_resilience_block() {
        for block in [
            r#""interconnect_faults": {"distribution": "exponential", "mttf_secs": 1.0}"#,
            r#""failure_domains": [{"kind": "rack", "name": "r0",
                "devices": ["cpu0"], "mttf_secs": 1.0, "degraded_prob": 1.0}]"#,
        ] {
            let json = minimal_json().trim_end().trim_end_matches('}').to_owned()
                + &format!(", {block}}}");
            let err = CampaignSpec::from_json(&json).unwrap_err();
            assert!(err.to_string().contains("resilience"), "{block}: {err}");
        }
    }

    #[test]
    fn fault_topology_blocks_change_the_digest() {
        let base = CampaignSpec::from_json(&faulty_json(r#""tasks": 50"#)).unwrap();
        let with_links = CampaignSpec::from_json(&faulty_json(
            r#""interconnect_faults": {"distribution": "exponential", "mttf_secs": 1.0}"#,
        ))
        .unwrap();
        let with_domains = CampaignSpec::from_json(&faulty_json(
            r#""failure_domains": [{"kind": "rack", "name": "r0",
                "devices": ["cpu0"], "mttf_secs": 1.0, "degraded_prob": 1.0}]"#,
        ))
        .unwrap();
        let with_budget =
            CampaignSpec::from_json(&faulty_json(r#""cell_step_budget": 100000"#)).unwrap();
        let digests = [
            base.digest(),
            with_links.digest(),
            with_domains.digest(),
            with_budget.digest(),
        ];
        for i in 0..digests.len() {
            for j in i + 1..digests.len() {
                assert_ne!(digests[i], digests[j], "digest {i} vs {j}");
            }
        }
        // Tweaking a fault parameter moves the digest too.
        let tweaked = CampaignSpec::from_json(&faulty_json(
            r#""interconnect_faults": {"distribution": "exponential", "mttf_secs": 2.0}"#,
        ))
        .unwrap();
        assert_ne!(with_links.digest(), tweaked.digest());
    }

    #[test]
    fn zero_cell_step_budget_is_rejected() {
        let err = CampaignSpec::from_json(&faulty_json(r#""cell_step_budget": 0"#)).unwrap_err();
        assert!(err.to_string().contains("cell_step_budget"), "{err}");
        let spec = CampaignSpec::from_json(&faulty_json(r#""cell_step_budget": 7"#)).unwrap();
        assert_eq!(spec.cell_step_budget, Some(7));
    }

    #[test]
    fn scheduler_params_parse_roundtrip_and_stay_out_of_knobfree_json() {
        // Knob-free spec: no scheduler_params key in the canonical JSON,
        // so pre-existing digests are untouched by the field's existence.
        let spec = CampaignSpec::from_json(&minimal_json()).unwrap();
        assert!(spec.scheduler_params.is_none());
        let canonical = serde_json::to_string(&spec).unwrap();
        assert!(
            !canonical.contains("scheduler_params"),
            "absent knob must be omitted, not serialized as null: {canonical}"
        );

        let json = minimal_json().trim_end().trim_end_matches('}').to_owned()
            + r#", "scheduler_params": {"annealing_iterations": 50, "lookahead_depth": 2}}"#;
        let spec = CampaignSpec::from_json(&json).unwrap();
        let params = spec.scheduler_params.expect("params parsed");
        assert_eq!(params.annealing_iterations, Some(50));
        assert_eq!(params.lookahead_depth, Some(2));
        let round = CampaignSpec::from_json(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(spec, round);

        // Partial knob: unset keys stay unset through the round trip.
        let json = minimal_json().trim_end().trim_end_matches('}').to_owned()
            + r#", "scheduler_params": {"lookahead_depth": 3}}"#;
        let spec = CampaignSpec::from_json(&json).unwrap();
        let params = spec.scheduler_params.unwrap();
        assert_eq!(params.annealing_iterations, None);
        assert_eq!(params.lookahead_depth, Some(3));
    }

    #[test]
    fn scheduler_params_reject_bad_input_naming_legal_keys() {
        let with = |body: &str| {
            minimal_json().trim_end().trim_end_matches('}').to_owned()
                + &format!(r#", "scheduler_params": {body}}}"#)
        };
        // Unknown key: the error names every legal key.
        let err = CampaignSpec::from_json(&with(r#"{"annealing_temp": 3}"#)).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("annealing_iterations") && msg.contains("lookahead_depth"),
            "error must name the legal keys: {msg}"
        );
        // Non-integer and zero values are rejected.
        let err = CampaignSpec::from_json(&with(r#"{"lookahead_depth": "deep"}"#)).unwrap_err();
        assert!(err.to_string().contains("lookahead_depth"), "{err}");
        let err = CampaignSpec::from_json(&with(r#"{"annealing_iterations": 0}"#)).unwrap_err();
        assert!(err.to_string().contains("annealing_iterations"), "{err}");
        // Non-object knob.
        let err = CampaignSpec::from_json(&with("7")).unwrap_err();
        assert!(err.to_string().contains("legal keys"), "{err}");
    }

    #[test]
    fn scheduler_params_change_the_digest() {
        let base = CampaignSpec::from_json(&minimal_json()).unwrap();
        let with = |body: &str| {
            CampaignSpec::from_json(
                &(minimal_json().trim_end().trim_end_matches('}').to_owned()
                    + &format!(r#", "scheduler_params": {body}}}"#)),
            )
            .unwrap()
        };
        let iters = with(r#"{"annealing_iterations": 100}"#);
        let more_iters = with(r#"{"annealing_iterations": 200}"#);
        let depth = with(r#"{"lookahead_depth": 2}"#);
        let digests = [
            base.digest(),
            iters.digest(),
            more_iters.digest(),
            depth.digest(),
        ];
        for i in 0..digests.len() {
            for j in i + 1..digests.len() {
                assert_ne!(digests[i], digests[j], "digest {i} vs {j}");
            }
        }
    }

    /// A spec with an elasticity block spliced in before the closing
    /// brace.
    fn elastic_json(body: &str) -> String {
        minimal_json().trim_end().trim_end_matches('}').to_owned()
            + &format!(r#", "elasticity": {body}}}"#)
    }

    #[test]
    fn elasticity_parses_roundtrips_and_stays_out_of_knobfree_json() {
        // Knob-free spec: no elasticity key in the canonical JSON, so
        // pre-existing digests are untouched by the field's existence.
        let spec = CampaignSpec::from_json(&minimal_json()).unwrap();
        assert!(spec.elasticity.is_none());
        let canonical = serde_json::to_string(&spec).unwrap();
        assert!(
            !canonical.contains("elasticity"),
            "absent knob must be omitted, not serialized as null: {canonical}"
        );

        let spec = CampaignSpec::from_json(&elastic_json(
            r#"{"events": [
                {"kind": "join", "device": "gpu0", "at_secs": 0.5},
                {"kind": "drain", "device": "cpu0", "at_secs": 0.2, "deadline_secs": 0.4},
                {"kind": "preempt", "device": "cpu1", "at_secs": 0.1, "notice_secs": 0.05},
                {"kind": "leave", "device": "gpu0", "at_secs": 2.0}
            ],
            "churn": [
                {"device": "cpu1", "mtbp_secs": 0.5, "weibull_shape": 1.4,
                 "notice_secs": 0.02, "rejoin_secs": 0.2}
            ]}"#,
        ))
        .unwrap();
        let el = spec.elasticity.as_ref().expect("elasticity parsed");
        assert_eq!(el.events.len(), 4);
        assert_eq!(el.events[0].kind, ElasticEventKind::Join);
        assert_eq!(
            el.events[1].kind,
            ElasticEventKind::Drain { deadline_secs: 0.4 }
        );
        assert_eq!(
            el.events[2].kind,
            ElasticEventKind::Preempt { notice_secs: 0.05 }
        );
        assert_eq!(el.churn[0].weibull_shape, Some(1.4));
        let round = CampaignSpec::from_json(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(spec, round);
        // And the knob lowers into a validating engine config.
        spec.elasticity_config().unwrap().unwrap();

        // Churn-only block, exponential (no shape).
        let spec = CampaignSpec::from_json(&elastic_json(
            r#"{"churn": [{"device": "gpu0", "mtbp_secs": 1.0,
                           "notice_secs": 0.01, "rejoin_secs": 0.5}]}"#,
        ))
        .unwrap();
        assert_eq!(
            spec.elasticity.as_ref().unwrap().churn[0].weibull_shape,
            None
        );
        let round = CampaignSpec::from_json(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(spec, round);
    }

    #[test]
    fn elasticity_rejects_bad_input_naming_legal_values() {
        // Unknown kind: the error names every legal kind tag.
        let err = CampaignSpec::from_json(&elastic_json(
            r#"{"events": [{"kind": "vanish", "device": "cpu0", "at_secs": 1.0}]}"#,
        ))
        .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("join") && msg.contains("drain") && msg.contains("preempt"),
            "error must name the legal kinds: {msg}"
        );
        // Missing kind tag and missing required fields are typed errors.
        let err = CampaignSpec::from_json(&elastic_json(
            r#"{"events": [{"device": "cpu0", "at_secs": 1.0}]}"#,
        ))
        .unwrap_err();
        assert!(err.to_string().contains("kind"), "{err}");
        let err = CampaignSpec::from_json(&elastic_json(
            r#"{"events": [{"kind": "drain", "device": "cpu0", "at_secs": 1.0}]}"#,
        ))
        .unwrap_err();
        assert!(err.to_string().contains("deadline_secs"), "{err}");
        let err = CampaignSpec::from_json(&elastic_json(
            r#"{"events": [{"kind": "join", "device": "cpu0"}]}"#,
        ))
        .unwrap_err();
        assert!(err.to_string().contains("at_secs"), "{err}");
        // Engine-level parameter validation is surfaced as InvalidSpec:
        // negative times, zero notice, drain deadline at/before notice.
        let err = CampaignSpec::from_json(&elastic_json(
            r#"{"events": [{"kind": "join", "device": "cpu0", "at_secs": -1.0}]}"#,
        ))
        .unwrap_err();
        assert!(err.to_string().contains("at_secs"), "{err}");
        let err = CampaignSpec::from_json(&elastic_json(
            r#"{"events": [{"kind": "preempt", "device": "cpu0",
                            "at_secs": 1.0, "notice_secs": 0.0}]}"#,
        ))
        .unwrap_err();
        assert!(err.to_string().contains("notice_secs"), "{err}");
        let err = CampaignSpec::from_json(&elastic_json(
            r#"{"events": [{"kind": "drain", "device": "cpu0",
                            "at_secs": 1.0, "deadline_secs": 1.0}]}"#,
        ))
        .unwrap_err();
        assert!(err.to_string().contains("deadline_secs"), "{err}");
        // An empty block is rejected — it would silently change nothing.
        let err = CampaignSpec::from_json(&elastic_json(r#"{"events": []}"#)).unwrap_err();
        assert!(err.to_string().contains("at least one"), "{err}");
        // Unknown device: the error names the platform's real devices.
        let err = CampaignSpec::from_json(&elastic_json(
            r#"{"events": [{"kind": "join", "device": "xpu9", "at_secs": 1.0}]}"#,
        ))
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("xpu9") && msg.contains("cpu0"), "{msg}");
        let err = CampaignSpec::from_json(&elastic_json(
            r#"{"churn": [{"device": "xpu9", "mtbp_secs": 1.0,
                           "notice_secs": 0.01, "rejoin_secs": 0.5}]}"#,
        ))
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("xpu9") && msg.contains("cpu0"), "{msg}");
        // Legacy faults and elasticity cannot be combined.
        let json =
            elastic_json(r#"{"events": [{"kind": "join", "device": "gpu0", "at_secs": 1.0}]}"#)
                .trim_end()
                .trim_end_matches('}')
                .to_owned()
                + r#"}, "faults": {"mtbf_secs": 2.0}}"#;
        let err = CampaignSpec::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn elasticity_changes_the_digest() {
        let base = CampaignSpec::from_json(&minimal_json()).unwrap();
        let with = CampaignSpec::from_json(&elastic_json(
            r#"{"events": [{"kind": "preempt", "device": "gpu0",
                            "at_secs": 0.2, "notice_secs": 0.05}]}"#,
        ))
        .unwrap();
        assert_ne!(base.digest(), with.digest());
        let tweaked = CampaignSpec::from_json(&elastic_json(
            r#"{"events": [{"kind": "preempt", "device": "gpu0",
                            "at_secs": 0.3, "notice_secs": 0.05}]}"#,
        ))
        .unwrap();
        assert_ne!(
            with.digest(),
            tweaked.digest(),
            "event parameters are part of the content digest"
        );
        let churned = CampaignSpec::from_json(&elastic_json(
            r#"{"churn": [{"device": "gpu0", "mtbp_secs": 1.0,
                           "notice_secs": 0.01, "rejoin_secs": 0.5}]}"#,
        ))
        .unwrap();
        assert_ne!(with.digest(), churned.digest());
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let json = minimal_json().trim_end().trim_end_matches('}').to_owned()
            + r#", "tasks": 30, "noise_cv": 0.1, "dvfs": "powersave",
                  "faults": {"mtbf_secs": 2.0, "max_retries": 4}}"#;
        let spec = CampaignSpec::from_json(&json).unwrap();
        let round = CampaignSpec::from_json(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(spec, round);
        assert_eq!(round.dvfs, DvfsKnob::Powersave);
        assert_eq!(round.faults.unwrap().max_retries, 4);
    }
}
