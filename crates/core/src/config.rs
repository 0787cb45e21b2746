//! Engine configuration.

use crate::elastic::ElasticityConfig;
use crate::error::EngineError;
use crate::resilience::{RecoveryPolicy, ResilienceConfig};

/// Complete engine configuration.
///
/// The default is the *ideal* execution: no noise, no faults, no link
/// contention — under it, executing a plan reproduces the plan's timing
/// exactly (a property the test suite pins down).
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Coefficient of variation of actual vs. modeled task duration
    /// (log-free multiplicative noise, clamped at 5% of the model).
    pub noise_cv: f64,
    /// Seed for all stochastic behaviour (noise, faults).
    pub seed: u64,
    /// Serialize transfers crossing the same link (FIFO per link)
    /// instead of letting them overlap freely.
    pub link_contention: bool,
    /// Cache data products at destination devices: when several
    /// consumers of one output run on the same device, only the first
    /// pays the transfer (the workflow-data-staging optimization of
    /// production workflow managers). Every executor honours it,
    /// ensembles included.
    pub data_caching: bool,
    /// Per-device runtime slowdown factors (thermal throttling,
    /// co-tenant interference), indexed by device id; a factor of 2.0
    /// makes every task on that device take twice its modeled time.
    /// Planners and dispatchers do not see these — only execution does.
    pub device_slowdown: Option<Vec<f64>>,
    /// Record an execution trace (task spans + transfer spans) in the
    /// report, exportable to Chrome trace JSON.
    pub tracing: bool,
    /// Failure model plus recovery policy, if any: the one fault
    /// vocabulary of every executor. The
    /// [`ResilientRunner`](crate::ResilientRunner) supports every
    /// policy; [`Engine`](crate::Engine),
    /// [`OnlineRunner`](crate::OnlineRunner) and
    /// [`EnsembleRunner`](crate::EnsembleRunner) (which runs on the
    /// online dispatcher) accept the subset that maps onto their
    /// per-attempt occupancy model: exponential transient-only failures
    /// under retry-backoff (flat retry is `base_secs = 0`) or
    /// checkpoint-restart.
    pub resilience: Option<ResilienceConfig>,
    /// Elastic capacity plan: timed join/drain/preempt/leave events
    /// plus stochastic spot churn
    /// ([`ElasticityConfig`](crate::ElasticityConfig)). Requires the
    /// [`ResilientRunner`](crate::ResilientRunner) — departures are
    /// recovered through the same machinery as permanent faults, so
    /// the other executors reject this knob.
    pub elasticity: Option<ElasticityConfig>,
    /// Watchdog budget on simulated events processed by the
    /// [`ResilientRunner`](crate::ResilientRunner) event loop (per run,
    /// so per campaign cell). Exceeding it aborts the run with
    /// [`EngineError::StepBudgetExceeded`] instead of grinding a
    /// pathological fault configuration forever; `None` disables the
    /// watchdog.
    pub step_budget: Option<u64>,
}

impl EngineConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] for a negative or non-finite
    /// noise coefficient.
    pub fn validate(&self) -> Result<(), EngineError> {
        if !self.noise_cv.is_finite() || self.noise_cv < 0.0 {
            return Err(EngineError::Config(format!(
                "noise_cv must be non-negative, got {}",
                self.noise_cv
            )));
        }
        if let Some(slow) = &self.device_slowdown {
            for (i, &f) in slow.iter().enumerate() {
                if !(f.is_finite() && f > 0.0) {
                    return Err(EngineError::Config(format!(
                        "device_slowdown[{i}] must be positive, got {f}"
                    )));
                }
            }
        }
        if self.step_budget == Some(0) {
            return Err(EngineError::Config(
                "step_budget must be at least 1 simulated event".into(),
            ));
        }
        if let Some(res) = &self.resilience {
            res.validate()?;
        }
        if let Some(el) = &self.elasticity {
            el.validate()?;
        }
        Ok(())
    }

    /// [`validate`](EngineConfig::validate) plus the platform-dependent
    /// checks every executor runs at entry: a configured
    /// `device_slowdown` vector must name exactly one factor per device.
    /// A shorter vector used to silently un-slow the devices it missed
    /// (`v.get(device)` fell back to 1.0); now the mismatch is a typed
    /// error naming both counts.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] on any validation failure.
    pub fn validate_for(&self, platform: &helios_platform::Platform) -> Result<(), EngineError> {
        self.validate()?;
        if let Some(slow) = &self.device_slowdown {
            if slow.len() != platform.num_devices() {
                return Err(EngineError::Config(format!(
                    "device_slowdown has {} factors but the platform has {} devices; \
                     list exactly one factor per device",
                    slow.len(),
                    platform.num_devices()
                )));
            }
        }
        Ok(())
    }

    /// An [`EngineConfig`] with every feature hook explicitly present
    /// but disabled: zero noise, contention/caching/tracing off, no
    /// resilience or elasticity, and a step budget too large to ever
    /// fire. Running the core with these hooks engaged must be
    /// indistinguishable from the default (hook-absent) configuration.
    pub(crate) fn all_hooks_off(seed: u64) -> EngineConfig {
        EngineConfig {
            noise_cv: 0.0,
            seed,
            link_contention: false,
            data_caching: false,
            device_slowdown: None,
            tracing: false,
            resilience: None,
            elasticity: None,
            step_budget: Some(u64::MAX),
        }
    }

    /// The fault configuration the per-attempt occupancy model runs
    /// with. A [`ResilienceConfig`] maps onto it only when its failure
    /// model is exponential and transient-only and its policy is
    /// retry-backoff or checkpoint-restart; richer configurations need
    /// the [`ResilientRunner`](crate::ResilientRunner).
    pub(crate) fn fault_view(&self) -> Result<Option<&ResilienceConfig>, EngineError> {
        if self.elasticity.is_some() {
            return Err(EngineError::Config(
                "elastic capacity events require the ResilientRunner".into(),
            ));
        }
        let Some(res) = &self.resilience else {
            return Ok(None);
        };
        let fm = &res.failures;
        if fm.weibull_shape.is_some() || fm.degraded_prob > 0.0 || fm.permanent_prob > 0.0 {
            return Err(EngineError::Config(
                "this executor only models exponential transient-only failures; use the \
                 ResilientRunner for Weibull, degraded or permanent failure modes"
                    .into(),
            ));
        }
        if res.link_faults.is_some() || !res.domains.is_empty() {
            return Err(EngineError::Config(
                "interconnect faults and correlated failure domains require the \
                 ResilientRunner"
                    .into(),
            ));
        }
        match res.policy {
            RecoveryPolicy::RetryBackoff { .. } | RecoveryPolicy::CheckpointRestart { .. } => {
                Ok(Some(res))
            }
            RecoveryPolicy::ReplicateK { .. } | RecoveryPolicy::Reschedule { .. } => {
                Err(EngineError::Config(format!(
                    "policy {:?} requires the ResilientRunner",
                    res.policy.name()
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_ideal() {
        let c = EngineConfig::default();
        assert_eq!(c.noise_cv, 0.0);
        assert!(c.resilience.is_none());
        assert!(!c.link_contention);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation() {
        let c = EngineConfig {
            noise_cv: -0.1,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let mut c = EngineConfig {
            device_slowdown: Some(vec![1.0, 0.0]),
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c.device_slowdown = Some(vec![1.0, 2.0]);
        assert!(c.validate().is_ok());
        use crate::resilience::FailureModel;
        let with = |mttf_secs, policy| EngineConfig {
            resilience: Some(ResilienceConfig::new(
                FailureModel::exponential(mttf_secs),
                policy,
            )),
            ..Default::default()
        };
        assert!(with(0.0, RecoveryPolicy::flat_retry(1)).validate().is_err());
        assert!(with(100.0, RecoveryPolicy::flat_retry(1))
            .validate()
            .is_ok());
        let ckpt = |interval_secs| RecoveryPolicy::CheckpointRestart {
            interval_secs,
            overhead_secs: 0.0,
            max_retries: 1,
        };
        assert!(with(100.0, ckpt(0.0)).validate().is_err());
        assert!(with(100.0, ckpt(1.0)).validate().is_ok());
    }

    #[test]
    fn slowdown_vector_must_match_the_platform_device_count() {
        // A workstation has more than two devices: a two-entry vector
        // used to silently leave the rest at full speed. Now it is a
        // typed config error naming both counts.
        let platform = helios_platform::presets::workstation();
        let c = EngineConfig {
            device_slowdown: Some(vec![1.5, 2.0]),
            ..Default::default()
        };
        assert!(c.validate().is_ok(), "length is a platform-level concern");
        let err = c.validate_for(&platform).unwrap_err().to_string();
        assert!(err.contains("2 factors"), "{err}");
        assert!(
            err.contains(&format!("{} devices", platform.num_devices())),
            "{err}"
        );
        let c = EngineConfig {
            device_slowdown: Some(vec![1.0; platform.num_devices()]),
            ..Default::default()
        };
        assert!(c.validate_for(&platform).is_ok());
        // Executors reject the mismatch at entry.
        let wf = helios_workflow::generators::synthetic::layered_random(
            &helios_workflow::generators::synthetic::LayeredConfig {
                levels: 2,
                width: 2,
                ..Default::default()
            },
            7,
        )
        .unwrap();
        let bad = EngineConfig {
            device_slowdown: Some(vec![2.0]),
            ..Default::default()
        };
        let err = crate::Engine::new(bad)
            .run(
                &platform,
                &wf,
                &helios_sched::RoundRobinScheduler::default(),
            )
            .unwrap_err()
            .to_string();
        assert!(err.contains("1 factors"), "{err}");
    }

    #[test]
    fn fault_view_maps_compatible_policies_only() {
        use crate::resilience::FailureModel;
        // No resilience: a fault-free occupancy model.
        assert!(EngineConfig::default().fault_view().unwrap().is_none());

        // Retry-backoff maps as it is.
        let mk = |policy| EngineConfig {
            resilience: Some(ResilienceConfig::new(
                FailureModel::exponential(5.0),
                policy,
            )),
            ..Default::default()
        };
        let c = mk(RecoveryPolicy::RetryBackoff {
            base_secs: 0.5,
            factor: 2.0,
            cap_secs: 4.0,
            max_retries: 9,
        });
        let v = c.fault_view().unwrap().unwrap();
        assert_eq!(v.failures.mttf_secs, 5.0);
        assert_eq!(v.policy.max_retries(), 9);
        assert_eq!(v.policy.backoff_delay_secs(2), 1.0);

        // So does checkpoint-restart.
        let c = mk(RecoveryPolicy::CheckpointRestart {
            interval_secs: 1.0,
            overhead_secs: 0.1,
            max_retries: 3,
        });
        let v = c.fault_view().unwrap().unwrap();
        assert_eq!(v.policy.name(), "checkpoint-restart");

        // Replication and rescheduling need the ResilientRunner.
        assert!(mk(RecoveryPolicy::ReplicateK {
            replicas: 2,
            max_retries: 1
        })
        .fault_view()
        .is_err());

        // So do non-transient or non-exponential failure models.
        let mut c = mk(RecoveryPolicy::flat_retry(1));
        c.resilience.as_mut().unwrap().failures.permanent_prob = 0.1;
        assert!(c.fault_view().is_err());
    }

    #[test]
    fn elasticity_requires_the_resilient_runner() {
        use crate::elastic::{ElasticEvent, ElasticEventKind, ElasticityConfig};
        let el = ElasticityConfig {
            events: vec![ElasticEvent {
                device: "gpu0".into(),
                at_secs: 1.0,
                kind: ElasticEventKind::Leave,
            }],
            churn: Vec::new(),
        };
        let c = EngineConfig {
            elasticity: Some(el),
            ..Default::default()
        };
        assert!(c.validate().is_ok());
        let err = c.fault_view().unwrap_err().to_string();
        assert!(err.contains("ResilientRunner"), "{err}");
        // An empty elasticity block is a config error, not a silent no-op.
        let c = EngineConfig {
            elasticity: Some(ElasticityConfig::default()),
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }
}
