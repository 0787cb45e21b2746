//! Elastic capacity: devices join, drain, get preempted and leave
//! mid-run.
//!
//! The paper's platforms are static device sets, but the deployments it
//! targets run on elastic, preemptible capacity — pilot-job systems
//! acquire and lose resources while the workflow is in flight. This
//! module describes *capacity events* over a platform:
//!
//! * [`ElasticEventKind::Join`] — spot acquisition: the device becomes
//!   available mid-run and the runtime starts placing work on it,
//! * [`ElasticEventKind::Drain`] — maintenance window: the device stops
//!   accepting work at the notice time and must be empty by the
//!   deadline; queued work migrates immediately, a running attempt may
//!   finish until the deadline aborts it,
//! * [`ElasticEventKind::Preempt`] — spot kill with notice: the device
//!   stops accepting work at the notice time and is killed
//!   `notice_secs` later; in-flight work is checkpointed if the
//!   recovery policy allows, otherwise lost and recovered through the
//!   existing retry/replicate/reschedule/lineage paths,
//! * [`ElasticEventKind::Leave`] — immediate departure, no notice.
//!
//! Plans are either *timed* ([`ElasticEvent`], no randomness consumed)
//! or *stochastic* ([`ElasticChurn`]: an alternating renewal process of
//! preemptions and re-acquisitions with exponential or Weibull
//! inter-event times, sampled from a forked RNG stream keyed by device
//! id). Both compose, and both are executed by the
//! [`ResilientRunner`](crate::ResilientRunner) as one more hook set
//! over the shared execution core — there is no second step loop.
//!
//! Capacity *membership* is orthogonal to failure *health*: an absent
//! device is not "down", it is simply not part of the platform right
//! now, and a later join brings it back — unless a failure domain has
//! killed it permanently, in which case dead capacity stays dead and
//! the event becomes a counted no-op. When every device has departed
//! and no join is still pending, the run stops with
//! [`EngineError::CapacityExhausted`](crate::EngineError) — a
//! measurement (`incomplete_reason = "capacity_exhausted"`), not an
//! error.

use serde::{Deserialize, Serialize};

use crate::error::EngineError;
use crate::resilience::{DURATION_SECS, PERIOD_SECS};
use helios_platform::Platform;
use helios_sim::failure::{FailureDistribution, ProcessKeys};
use helios_sim::Block;

/// What happens to the named device at an [`ElasticEvent`]'s time.
#[derive(Debug, Clone, PartialEq)]
pub enum ElasticEventKind {
    /// The device joins (or re-joins) the platform and starts accepting
    /// work. A device whose *first* event is a join starts the run
    /// absent.
    Join,
    /// Maintenance drain: the device stops accepting work at the event
    /// time, queued work migrates, and whatever is still running is
    /// aborted at `deadline_secs` when the device departs.
    Drain {
        /// Absolute time the device must be empty and departs, seconds;
        /// must be strictly after the event time.
        deadline_secs: f64,
    },
    /// Spot preemption: the device stops accepting work at the event
    /// time and is killed `notice_secs` later.
    Preempt {
        /// Kill notice, seconds; must be strictly positive.
        notice_secs: f64,
    },
    /// The device departs immediately; running work is lost to the
    /// recovery machinery.
    Leave,
}

impl ElasticEventKind {
    /// Stable kind tag used in specs and error messages.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ElasticEventKind::Join => "join",
            ElasticEventKind::Drain { .. } => "drain",
            ElasticEventKind::Preempt { .. } => "preempt",
            ElasticEventKind::Leave => "leave",
        }
    }

    /// Every legal kind tag, for validation errors.
    #[must_use]
    pub fn kinds() -> &'static [&'static str] {
        &["join", "drain", "preempt", "leave"]
    }
}

/// One timed capacity event against a named platform device. Timed
/// events consume no randomness, so they cannot perturb any other RNG
/// stream.
///
/// Spelled in spec files as an object with a `kind` tag, e.g.
/// `{"kind": "preempt", "device": "gpu0", "at_secs": 0.2,
/// "notice_secs": 0.05}`; the tag decides which extra field
/// (`deadline_secs`, `notice_secs`) is required, and legal.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticEvent {
    /// Device name, resolved against the platform when the run starts.
    pub device: String,
    /// Absolute event time, seconds; finite and non-negative.
    pub at_secs: f64,
    /// What happens at `at_secs`.
    pub kind: ElasticEventKind,
}

// Hand-written codec: the `kind` tag is written before `device` and
// `at_secs`, and the variant's field after them.
impl Serialize for ElasticEvent {
    fn to_value(&self) -> serde::Value {
        let mut obj = vec![
            ("kind".to_owned(), self.kind.name().to_value()),
            ("device".to_owned(), self.device.to_value()),
            ("at_secs".to_owned(), self.at_secs.to_value()),
        ];
        match self.kind {
            ElasticEventKind::Drain { deadline_secs } => {
                obj.push(("deadline_secs".to_owned(), deadline_secs.to_value()));
            }
            ElasticEventKind::Preempt { notice_secs } => {
                obj.push(("notice_secs".to_owned(), notice_secs.to_value()));
            }
            ElasticEventKind::Join | ElasticEventKind::Leave => {}
        }
        serde::Value::Object(obj)
    }
}

impl<'de> Deserialize<'de> for ElasticEvent {
    fn from_value(value: &serde::Value) -> Result<ElasticEvent, serde::DeError> {
        const TY: &str = "ElasticEvent";
        let secs = |key| serde::de::field::<f64>(value, TY, key);
        let (kind, legal): (_, &[&str]) = match value.get("kind").and_then(serde::Value::as_str) {
            Some("join") => (ElasticEventKind::Join, &["kind", "device", "at_secs"]),
            Some("drain") => (
                ElasticEventKind::Drain {
                    deadline_secs: secs("deadline_secs")?,
                },
                &["kind", "device", "at_secs", "deadline_secs"],
            ),
            Some("preempt") => (
                ElasticEventKind::Preempt {
                    notice_secs: secs("notice_secs")?,
                },
                &["kind", "device", "at_secs", "notice_secs"],
            ),
            Some("leave") => (ElasticEventKind::Leave, &["kind", "device", "at_secs"]),
            Some(other) => {
                return Err(serde::DeError::new(format!(
                    "{TY}: unknown kind {other:?}; legal values: {}",
                    ElasticEventKind::kinds().join(", ")
                )))
            }
            None => {
                return Err(serde::DeError::new(format!(
                    "{TY} must be an object with a \"kind\" tag, one of: {}",
                    ElasticEventKind::kinds().join(", ")
                )))
            }
        };
        serde::de::deny_unknown_fields(value, TY, legal)?;
        Ok(ElasticEvent {
            device: serde::de::field(value, TY, "device")?,
            at_secs: secs("at_secs")?,
            kind,
        })
    }
}

/// Stochastic spot churn for one device: an alternating renewal process
/// — after `mtbp_secs` (mean) of presence the device is preempted with
/// `notice_secs` of notice, stays absent for `rejoin_secs` (mean), then
/// re-joins, repeating for the whole run. Inter-event gaps are sampled
/// from the device's own forked RNG stream
/// (`ELASTIC_STREAM_BASE + device id`), never by event order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ElasticChurn {
    /// Device name, resolved against the platform when the run starts.
    pub device: String,
    /// Mean time between preemptions while present, seconds.
    pub mtbp_secs: f64,
    /// Weibull shape for the inter-preemption distribution; `None`
    /// (omitted in spec files) selects the exponential.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub weibull_shape: Option<f64>,
    /// Kill notice per preemption, seconds; strictly positive.
    pub notice_secs: f64,
    /// Mean absence before the device is re-acquired, seconds.
    pub rejoin_secs: f64,
}

impl ElasticChurn {
    /// The inter-preemption distribution this churn model describes.
    #[must_use]
    pub fn distribution(&self) -> FailureDistribution {
        FailureDistribution::new(self.mtbp_secs, self.weibull_shape)
    }
}

/// Complete elasticity configuration: timed events plus stochastic
/// churn, attached to
/// [`EngineConfig::elasticity`](crate::EngineConfig). Requires the
/// [`ResilientRunner`](crate::ResilientRunner) — departures feed the
/// same recovery machinery as permanent faults.
///
/// Spelled in spec files as, e.g.
/// `{"events": [{"kind": "preempt", "device": "gpu0", "at_secs": 0.2,
/// "notice_secs": 0.05}], "churn": [{"device": "cpu1",
/// "mtbp_secs": 0.5, "notice_secs": 0.02, "rejoin_secs": 0.2}]}`;
/// either array may be omitted.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ElasticityConfig {
    /// Timed capacity events, in any order (execution sorts by time).
    #[serde(default)]
    pub events: Vec<ElasticEvent>,
    /// Stochastic churn processes, at most one per device.
    #[serde(default)]
    pub churn: Vec<ElasticChurn>,
}

impl ElasticityConfig {
    /// Validates every parameter; device names are resolved later,
    /// against the concrete platform of each run.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.events.is_empty() && self.churn.is_empty() {
            return Err(EngineError::Config(
                "elasticity block must declare at least one event or churn process".into(),
            ));
        }
        for (i, ev) in self.events.iter().enumerate() {
            let block = Block("elasticity.events", Some(i));
            if ev.device.is_empty() {
                return Err(EngineError::Config(format!(
                    "`{}` must not be empty",
                    block.key("device")
                )));
            }
            DURATION_SECS.check(block.key("at_secs"), ev.at_secs)?;
            match ev.kind {
                ElasticEventKind::Drain { deadline_secs } => {
                    if !(deadline_secs.is_finite() && deadline_secs > ev.at_secs) {
                        return Err(EngineError::Config(format!(
                            "`{}` must be finite and after `at_secs` {}, got {deadline_secs}",
                            block.key("deadline_secs"),
                            ev.at_secs
                        )));
                    }
                }
                ElasticEventKind::Preempt { notice_secs } => {
                    PERIOD_SECS.check(block.key("notice_secs"), notice_secs)?;
                }
                ElasticEventKind::Join | ElasticEventKind::Leave => {}
            }
        }
        let mut churned: Vec<&str> = Vec::new();
        for (i, c) in self.churn.iter().enumerate() {
            let keys = ProcessKeys {
                block: Block("elasticity.churn", Some(i)),
                scale: "mtbp_secs",
                shape: "weibull_shape",
            };
            if c.device.is_empty() {
                return Err(EngineError::Config(format!(
                    "`{}` must not be empty",
                    keys.block.key("device")
                )));
            }
            if churned.contains(&c.device.as_str()) {
                return Err(EngineError::Config(format!(
                    "`{}` {:?} has two churn processes; at most one is allowed",
                    keys.block.key("device"),
                    c.device
                )));
            }
            churned.push(&c.device);
            c.distribution().check(keys)?;
            PERIOD_SECS.check(keys.block.key("notice_secs"), c.notice_secs)?;
            PERIOD_SECS.check(keys.block.key("rejoin_secs"), c.rejoin_secs)?;
        }
        Ok(())
    }

    /// Resolves the device of every event, then of every churn
    /// process, on `platform`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] naming the key of an unknown
    /// device and the platform's devices.
    pub fn device_ids(&self, platform: &Platform) -> Result<(Vec<usize>, Vec<usize>), EngineError> {
        let resolve = |block: &str, i: usize, name: &str| match platform.device_by_name(name) {
            Some(device) => Ok(device.id().0),
            None => {
                let known: Vec<&str> = platform.devices().iter().map(|d| d.name()).collect();
                Err(EngineError::Config(format!(
                    "`elasticity.{block}[{i}].device`: unknown device {name:?} on platform \
                     {:?} (devices: {})",
                    platform.name(),
                    known.join(", ")
                )))
            }
        };
        let events = self.events.iter().enumerate();
        let events = events.map(|(i, ev)| resolve("events", i, &ev.device));
        let churn = self.churn.iter().enumerate();
        let churn = churn.map(|(i, c)| resolve("churn", i, &c.device));
        Ok((
            events.collect::<Result<_, _>>()?,
            churn.collect::<Result<_, _>>()?,
        ))
    }

    /// Whether any capacity event (timed or stochastic) can ever fire.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.churn.is_empty()
    }
}

/// Elasticity outcome metrics attached to an
/// [`ExecutionReport`](crate::ExecutionReport) by the
/// [`ResilientRunner`](crate::ResilientRunner) when the run had an
/// elasticity block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElasticityMetrics {
    /// Device-seconds of live capacity integrated over the run: a
    /// device contributes while present and not permanently failed.
    pub capacity_secs: f64,
    /// Join events that actually added capacity (timed joins plus churn
    /// re-acquisitions; no-ops on present or dead devices excluded).
    pub joins: u32,
    /// Departures of every kind: leaves, completed drains and
    /// preemption kills.
    pub departures: u32,
    /// Drain windows opened.
    pub drains: u32,
    /// Preemption kills executed (timed preempts plus churn kills).
    pub preemptions: u32,
    /// Queued task copies migrated off a draining or preempted device
    /// before its departure.
    pub drain_migrated_tasks: u32,
    /// Busy device-seconds on devices that joined mid-run, divided by
    /// those devices' capacity-seconds; 0 when nothing ever joined.
    pub join_utilization: f64,
    /// Elasticity events targeting a device already removed permanently
    /// by the failure machinery — dead capacity stays dead, so these
    /// are counted no-ops.
    pub dead_capacity_events: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn join(device: &str, at: f64) -> ElasticEvent {
        ElasticEvent {
            device: device.into(),
            at_secs: at,
            kind: ElasticEventKind::Join,
        }
    }

    #[test]
    fn kind_names_round_trip_the_menu() {
        let kinds = [
            ElasticEventKind::Join,
            ElasticEventKind::Drain { deadline_secs: 2.0 },
            ElasticEventKind::Preempt { notice_secs: 0.5 },
            ElasticEventKind::Leave,
        ];
        let names: Vec<&str> = kinds.iter().map(ElasticEventKind::name).collect();
        assert_eq!(names, ElasticEventKind::kinds());
    }

    #[test]
    fn validation_accepts_a_sane_plan() {
        let cfg = ElasticityConfig {
            events: vec![
                join("gpu0", 1.0),
                ElasticEvent {
                    device: "cpu0".into(),
                    at_secs: 2.0,
                    kind: ElasticEventKind::Drain { deadline_secs: 3.0 },
                },
                ElasticEvent {
                    device: "cpu1".into(),
                    at_secs: 0.0,
                    kind: ElasticEventKind::Preempt { notice_secs: 0.25 },
                },
            ],
            churn: vec![ElasticChurn {
                device: "gpu0".into(),
                mtbp_secs: 10.0,
                weibull_shape: Some(1.4),
                notice_secs: 0.5,
                rejoin_secs: 4.0,
            }],
        };
        assert!(cfg.validate().is_ok());
        assert!(!cfg.is_empty());
    }

    #[test]
    fn validation_rejects_pathological_plans() {
        let empty = ElasticityConfig::default();
        assert!(empty.is_empty());
        assert!(empty.validate().is_err(), "empty block is a config error");

        let mut cfg = ElasticityConfig {
            events: vec![join("gpu0", f64::NAN)],
            churn: Vec::new(),
        };
        assert!(cfg.validate().is_err(), "non-finite time");
        cfg.events = vec![join("gpu0", -1.0)];
        assert!(cfg.validate().is_err(), "negative time");
        cfg.events = vec![join("", 1.0)];
        assert!(cfg.validate().is_err(), "empty device name");

        cfg.events = vec![ElasticEvent {
            device: "gpu0".into(),
            at_secs: 2.0,
            kind: ElasticEventKind::Drain { deadline_secs: 2.0 },
        }];
        let err = cfg.validate().unwrap_err().to_string();
        assert!(err.contains("deadline_secs"), "{err}");

        cfg.events = vec![ElasticEvent {
            device: "gpu0".into(),
            at_secs: 2.0,
            kind: ElasticEventKind::Preempt { notice_secs: 0.0 },
        }];
        let err = cfg.validate().unwrap_err().to_string();
        assert!(err.contains("notice_secs"), "{err}");

        let churn = |mtbp: f64, rejoin: f64, notice: f64, shape: Option<f64>| ElasticityConfig {
            events: Vec::new(),
            churn: vec![ElasticChurn {
                device: "gpu0".into(),
                mtbp_secs: mtbp,
                weibull_shape: shape,
                notice_secs: notice,
                rejoin_secs: rejoin,
            }],
        };
        assert!(churn(10.0, 4.0, 0.5, None).validate().is_ok());
        assert!(churn(0.0, 4.0, 0.5, None).validate().is_err());
        assert!(churn(10.0, -4.0, 0.5, None).validate().is_err());
        assert!(churn(10.0, 4.0, 0.0, None).validate().is_err());
        assert!(churn(10.0, 4.0, 0.5, Some(0.0)).validate().is_err());

        let mut twice = churn(10.0, 4.0, 0.5, None);
        twice.churn.push(twice.churn[0].clone());
        let err = twice.validate().unwrap_err().to_string();
        assert!(err.contains("two churn"), "{err}");
    }

    #[test]
    fn metrics_roundtrip_serde() {
        let m = ElasticityMetrics {
            capacity_secs: 42.5,
            joins: 3,
            departures: 4,
            drains: 1,
            preemptions: 2,
            drain_migrated_tasks: 5,
            join_utilization: 0.75,
            dead_capacity_events: 1,
        };
        let v = serde::Serialize::to_value(&m);
        let back: ElasticityMetrics = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(m, back);
    }
}
