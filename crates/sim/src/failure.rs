//! Per-device failure processes.
//!
//! A [`FailureProcess`] turns a forked [`SimRng`] stream into a
//! deterministic sequence of timed [`FailureEvent`]s for one device:
//! inter-failure times follow either an exponential or a Weibull
//! distribution, and each event is classified as transient, degraded or
//! permanent by a second draw from the same stream. Because every device
//! owns its own stream, the trace a device experiences is independent of
//! how (or whether) any other component draws randomness — the property
//! the rest of the simulator relies on for bit-identical replays.
//!
//! The process is *memoryless across events but not across modes*: a
//! permanent failure ends the trace (the device has left the platform),
//! which callers observe via [`FailureEvent::kind`] and must not sample
//! past.

use crate::range::{Block, KnobRange};
use crate::rng::SimRng;
use crate::time::SimTime;

/// Legal range of a distribution's scale: the exponential mean or the
/// Weibull characteristic life, seconds.
pub const SCALE_SECS: KnobRange<f64> = KnobRange::above(0.0);

/// Legal range of a Weibull shape.
pub const SHAPE: KnobRange<f64> = KnobRange::above(0.0);

/// Legal range of a failure-mode probability.
pub const PROBABILITY: KnobRange<f64> = KnobRange::closed(0.0, 1.0);

/// How a spec spells a failure process's parameters: the [`Block`]
/// they sit in and the names of its scale and Weibull shape keys; the
/// probabilities are `degraded_prob` and `permanent_prob` everywhere.
#[derive(Debug, Clone, Copy)]
pub struct ProcessKeys<'a> {
    /// Where the parameters sit.
    pub block: Block<'a>,
    /// The scale key, e.g. `mttf_secs`.
    pub scale: &'a str,
    /// The Weibull shape key, e.g. `weibull_shape`.
    pub shape: &'a str,
}

/// What a failure does to the device it strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The in-flight task attempt aborts; the device itself is fine.
    Transient,
    /// The device keeps running but slows down until repaired.
    Degraded,
    /// The device leaves the platform for the rest of the run.
    Permanent,
}

impl FailureKind {
    /// Stable lower-case name, used in reports and error messages.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Transient => "transient",
            FailureKind::Degraded => "degraded",
            FailureKind::Permanent => "permanent",
        }
    }
}

/// A timed failure on one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureEvent {
    /// Absolute simulation time at which the failure strikes.
    pub at: SimTime,
    /// Severity class of the failure.
    pub kind: FailureKind,
}

/// Inter-failure time distribution for a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureDistribution {
    /// Memoryless failures with the given mean time to failure.
    Exponential {
        /// Mean time to failure in seconds.
        mttf_secs: f64,
    },
    /// Weibull inter-failure times: `scale` is the characteristic life
    /// (63.2nd percentile) in seconds, `shape` > 1 models ageing
    /// hardware, `shape` = 1 reduces to the exponential.
    Weibull {
        /// Characteristic life in seconds.
        scale_secs: f64,
        /// Dimensionless shape parameter.
        shape: f64,
    },
}

impl FailureDistribution {
    /// The exponential with mean `scale_secs`, or given a `shape` the
    /// Weibull with characteristic life `scale_secs`.
    #[must_use]
    pub fn new(scale_secs: f64, shape: Option<f64>) -> FailureDistribution {
        match shape {
            None => FailureDistribution::Exponential {
                mttf_secs: scale_secs,
            },
            Some(shape) => FailureDistribution::Weibull { scale_secs, shape },
        }
    }

    /// Checks the scale against [`SCALE_SECS`] and a Weibull shape
    /// against [`SHAPE`].
    ///
    /// # Errors
    ///
    /// Returns the refusal message naming the key from `keys`.
    pub fn check(self, keys: ProcessKeys<'_>) -> Result<(), String> {
        match self {
            FailureDistribution::Exponential { mttf_secs } => {
                SCALE_SECS.check(keys.block.key(keys.scale), mttf_secs)
            }
            FailureDistribution::Weibull { scale_secs, shape } => {
                SCALE_SECS.check(keys.block.key(keys.scale), scale_secs)?;
                SHAPE.check(keys.block.key(keys.shape), shape)
            }
        }
    }

    /// Draws one gap from `rng`, in seconds.
    pub fn sample(self, rng: &mut SimRng) -> f64 {
        match self {
            FailureDistribution::Exponential { mttf_secs } => rng.exponential(mttf_secs),
            FailureDistribution::Weibull { scale_secs, shape } => rng.weibull(scale_secs, shape),
        }
    }

    /// Mean of the distribution in seconds.
    #[must_use]
    pub fn mean_secs(self) -> f64 {
        match self {
            FailureDistribution::Exponential { mttf_secs } => mttf_secs,
            // E[X] = scale * Γ(1 + 1/shape); Lanczos is overkill here, so
            // use the ln-gamma free identity via the gamma function from
            // Stirling only for display purposes. Keep it simple: callers
            // only use this for reporting, so a numeric Γ via the
            // reflection-free Lanczos approximation is fine.
            FailureDistribution::Weibull { scale_secs, shape } => {
                scale_secs * gamma(1.0 + 1.0 / shape)
            }
        }
    }
}

/// Lanczos approximation of Γ(x) for x > 0 (g = 7, n = 9 coefficients).
fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula; not hit for our 1 + 1/shape arguments but
        // kept so the helper is total on (0, 1).
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

/// A deterministic per-device failure process.
///
/// # Examples
///
/// ```
/// use helios_sim::failure::{FailureDistribution, FailureProcess, ProcessKeys};
/// use helios_sim::{Block, SimRng, SimTime};
///
/// let keys = ProcessKeys {
///     block: Block("resilience", None),
///     scale: "mttf_secs",
///     shape: "weibull_shape",
/// };
/// let process = FailureProcess::new(
///     FailureDistribution::Exponential { mttf_secs: 10.0 },
///     0.1, // 10% of failures degrade the device
///     0.0, // none are permanent
///     keys,
/// )
/// .unwrap();
/// let mut rng = SimRng::seed_from(42).fork(7);
/// let first = process.next_after(&mut rng, SimTime::ZERO);
/// let mut rng2 = SimRng::seed_from(42).fork(7);
/// assert_eq!(first, process.next_after(&mut rng2, SimTime::ZERO));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureProcess {
    distribution: FailureDistribution,
    degraded_prob: f64,
    permanent_prob: f64,
}

impl FailureProcess {
    /// Creates a failure process; the remaining probability mass
    /// (`1 - degraded_prob - permanent_prob`) is transient.
    ///
    /// # Errors
    ///
    /// Returns the refusal message, naming the key from `keys`, if the
    /// distribution fails [`FailureDistribution::check`], either
    /// probability lies outside [`PROBABILITY`], or the two
    /// probabilities sum to more than 1.
    pub fn new(
        distribution: FailureDistribution,
        degraded_prob: f64,
        permanent_prob: f64,
        keys: ProcessKeys<'_>,
    ) -> Result<FailureProcess, String> {
        distribution.check(keys)?;
        PROBABILITY.check(keys.block.key("degraded_prob"), degraded_prob)?;
        PROBABILITY.check(keys.block.key("permanent_prob"), permanent_prob)?;
        if degraded_prob + permanent_prob > 1.0 {
            return Err(format!(
                "`{}` + `{}` must not exceed 1, got {}",
                keys.block.key("degraded_prob"),
                keys.block.key("permanent_prob"),
                degraded_prob + permanent_prob
            ));
        }
        Ok(FailureProcess {
            distribution,
            degraded_prob,
            permanent_prob,
        })
    }

    /// The inter-failure time distribution.
    #[must_use]
    pub fn distribution(&self) -> FailureDistribution {
        self.distribution
    }

    /// Samples the next failure strictly after `after`.
    ///
    /// Draws exactly two values from `rng` (an inter-failure time and a
    /// mode classifier), so the stream position is deterministic in the
    /// number of events sampled. Callers must stop sampling once a
    /// [`FailureKind::Permanent`] event is returned.
    pub fn next_after(&self, rng: &mut SimRng, after: SimTime) -> FailureEvent {
        let gap = self.distribution.sample(rng);
        let u = rng.uniform(0.0, 1.0);
        let kind = if u < self.permanent_prob {
            FailureKind::Permanent
        } else if u < self.permanent_prob + self.degraded_prob {
            FailureKind::Degraded
        } else {
            FailureKind::Transient
        };
        FailureEvent {
            at: after + crate::time::SimDuration::from_secs(gap),
            kind,
        }
    }
}

/// What a failure does to the link it strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFailureKind {
    /// The link goes down entirely for a bounded repair window; transfers
    /// that need it stall (or reroute) until it comes back.
    Outage,
    /// The link keeps moving data, but at degraded bandwidth until
    /// repaired.
    Degraded,
}

impl LinkFailureKind {
    /// Stable lower-case name, used in reports and error messages.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            LinkFailureKind::Outage => "outage",
            LinkFailureKind::Degraded => "degraded",
        }
    }
}

/// A timed failure on one link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFailureEvent {
    /// Absolute simulation time at which the failure strikes.
    pub at: SimTime,
    /// Severity class of the failure.
    pub kind: LinkFailureKind,
}

/// A deterministic per-link failure process.
///
/// Mirrors [`FailureProcess`] for interconnect links: inter-failure
/// times follow the configured distribution, and a second draw
/// classifies each event as a full outage or a bandwidth degradation.
/// Every link owns its own forked RNG stream, so its trace is
/// independent of what any device or other link samples.
///
/// # Examples
///
/// ```
/// use helios_sim::failure::{FailureDistribution, LinkFailureProcess, ProcessKeys};
/// use helios_sim::{Block, SimRng, SimTime};
///
/// let keys = ProcessKeys {
///     block: Block("interconnect_faults", None),
///     scale: "mttf_secs",
///     shape: "shape",
/// };
/// let process = LinkFailureProcess::new(
///     FailureDistribution::Exponential { mttf_secs: 5.0 },
///     0.25, // a quarter of the faults degrade bandwidth instead
///     keys,
/// )
/// .unwrap();
/// let mut rng = SimRng::seed_from(7).fork(3);
/// let first = process.next_after(&mut rng, SimTime::ZERO);
/// let mut rng2 = SimRng::seed_from(7).fork(3);
/// assert_eq!(first, process.next_after(&mut rng2, SimTime::ZERO));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFailureProcess {
    distribution: FailureDistribution,
    degraded_prob: f64,
}

impl LinkFailureProcess {
    /// Creates a link failure process; the remaining probability mass
    /// (`1 - degraded_prob`) is a full outage.
    ///
    /// # Errors
    ///
    /// Returns the refusal message, naming the key from `keys`, if the
    /// distribution fails [`FailureDistribution::check`] or
    /// `degraded_prob` lies outside [`PROBABILITY`].
    pub fn new(
        distribution: FailureDistribution,
        degraded_prob: f64,
        keys: ProcessKeys<'_>,
    ) -> Result<LinkFailureProcess, String> {
        distribution.check(keys)?;
        PROBABILITY.check(keys.block.key("degraded_prob"), degraded_prob)?;
        Ok(LinkFailureProcess {
            distribution,
            degraded_prob,
        })
    }

    /// The inter-failure time distribution.
    #[must_use]
    pub fn distribution(&self) -> FailureDistribution {
        self.distribution
    }

    /// Samples the next link failure strictly after `after`.
    ///
    /// Draws exactly two values from `rng` (an inter-failure time and a
    /// mode classifier), so the stream position is deterministic in the
    /// number of events sampled.
    pub fn next_after(&self, rng: &mut SimRng, after: SimTime) -> LinkFailureEvent {
        let gap = self.distribution.sample(rng);
        let u = rng.uniform(0.0, 1.0);
        let kind = if u < self.degraded_prob {
            LinkFailureKind::Degraded
        } else {
            LinkFailureKind::Outage
        };
        LinkFailureEvent {
            at: after + crate::time::SimDuration::from_secs(gap),
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYS: ProcessKeys<'static> = ProcessKeys {
        block: Block("resilience", None),
        scale: "mttf_secs",
        shape: "weibull_shape",
    };

    #[test]
    fn rejects_bad_parameters() {
        let exp = |m| FailureDistribution::Exponential { mttf_secs: m };
        assert!(FailureProcess::new(exp(0.0), 0.0, 0.0, KEYS).is_err());
        assert!(FailureProcess::new(exp(f64::NAN), 0.0, 0.0, KEYS).is_err());
        assert!(FailureProcess::new(exp(1.0), -0.1, 0.0, KEYS).is_err());
        assert!(FailureProcess::new(exp(1.0), 0.0, 1.5, KEYS).is_err());
        assert!(FailureProcess::new(exp(1.0), 0.7, 0.7, KEYS).is_err());
        let weib = |s, k| FailureDistribution::Weibull {
            scale_secs: s,
            shape: k,
        };
        assert!(FailureProcess::new(weib(1.0, 0.0), 0.0, 0.0, KEYS).is_err());
        assert!(FailureProcess::new(weib(-1.0, 2.0), 0.0, 0.0, KEYS).is_err());
        assert!(FailureProcess::new(weib(1.0, 2.0), 0.1, 0.1, KEYS).is_ok());
    }

    #[test]
    fn refusals_name_the_key_as_the_spec_spells_it() {
        let domain = ProcessKeys {
            block: Block("failure_domains", Some(1)),
            ..KEYS
        };
        let weib = FailureDistribution::Weibull {
            scale_secs: 1.0,
            shape: -2.0,
        };
        assert_eq!(
            FailureProcess::new(weib, 0.0, 0.0, domain).unwrap_err(),
            "`failure_domains[1].weibull_shape` must be > 0, got -2"
        );
        let exp = FailureDistribution::Exponential { mttf_secs: 1.0 };
        assert_eq!(
            FailureProcess::new(exp, 0.7, 0.7, KEYS).unwrap_err(),
            "`resilience.degraded_prob` + `resilience.permanent_prob` must not exceed 1, got 1.4"
        );
    }

    #[test]
    fn exponential_trace_mean_converges() {
        let process = FailureProcess::new(
            FailureDistribution::Exponential { mttf_secs: 5.0 },
            0.0,
            0.0,
            KEYS,
        )
        .unwrap();
        let mut rng = SimRng::seed_from(1).fork(3);
        let mut t = SimTime::ZERO;
        let n = 20_000;
        for _ in 0..n {
            let ev = process.next_after(&mut rng, t);
            assert!(ev.at > t, "failures are strictly ordered");
            assert_eq!(ev.kind, FailureKind::Transient);
            t = ev.at;
        }
        let mean = t.as_secs() / f64::from(n);
        assert!((mean - 5.0).abs() < 0.2, "observed MTTF {mean}");
    }

    #[test]
    fn weibull_trace_mean_matches_gamma_moment() {
        let dist = FailureDistribution::Weibull {
            scale_secs: 4.0,
            shape: 2.0,
        };
        // E[X] = 4 * Γ(1.5) = 4 * (√π / 2) ≈ 3.5449.
        let expected = 4.0 * (std::f64::consts::PI.sqrt() / 2.0);
        assert!((dist.mean_secs() - expected).abs() < 1e-9, "gamma helper");
        let process = FailureProcess::new(dist, 0.0, 0.0, KEYS).unwrap();
        let mut rng = SimRng::seed_from(2).fork(4);
        let n = 20_000;
        let mut t = SimTime::ZERO;
        for _ in 0..n {
            t = process.next_after(&mut rng, t).at;
        }
        let mean = t.as_secs() / f64::from(n);
        assert!(
            (mean - expected).abs() < 0.1,
            "observed mean {mean} vs {expected}"
        );
    }

    #[test]
    fn mode_probabilities_converge() {
        let process = FailureProcess::new(
            FailureDistribution::Exponential { mttf_secs: 1.0 },
            0.3,
            0.1,
            KEYS,
        )
        .unwrap();
        let mut rng = SimRng::seed_from(5).fork(1);
        let (mut transient, mut degraded, mut permanent) = (0u32, 0u32, 0u32);
        let n = 20_000;
        for _ in 0..n {
            // Sampling past a permanent event is the caller's contract to
            // avoid; here we only count classifications.
            match process.next_after(&mut rng, SimTime::ZERO).kind {
                FailureKind::Transient => transient += 1,
                FailureKind::Degraded => degraded += 1,
                FailureKind::Permanent => permanent += 1,
            }
        }
        let frac = |c: u32| f64::from(c) / f64::from(n);
        assert!(
            (frac(transient) - 0.6).abs() < 0.02,
            "transient {}",
            frac(transient)
        );
        assert!(
            (frac(degraded) - 0.3).abs() < 0.02,
            "degraded {}",
            frac(degraded)
        );
        assert!(
            (frac(permanent) - 0.1).abs() < 0.02,
            "permanent {}",
            frac(permanent)
        );
    }

    #[test]
    fn link_process_rejects_bad_parameters() {
        let exp = |m| FailureDistribution::Exponential { mttf_secs: m };
        assert!(LinkFailureProcess::new(exp(0.0), 0.0, KEYS).is_err());
        assert!(LinkFailureProcess::new(exp(1.0), -0.1, KEYS).is_err());
        assert!(LinkFailureProcess::new(exp(1.0), 1.5, KEYS).is_err());
        assert!(LinkFailureProcess::new(exp(1.0), 0.5, KEYS).is_ok());
    }

    #[test]
    fn link_mode_probabilities_converge() {
        let process = LinkFailureProcess::new(
            FailureDistribution::Exponential { mttf_secs: 1.0 },
            0.25,
            KEYS,
        )
        .unwrap();
        let mut rng = SimRng::seed_from(6).fork(2);
        let (mut outage, mut degraded) = (0u32, 0u32);
        let n = 20_000;
        for _ in 0..n {
            match process.next_after(&mut rng, SimTime::ZERO).kind {
                LinkFailureKind::Outage => outage += 1,
                LinkFailureKind::Degraded => degraded += 1,
            }
        }
        let frac = |c: u32| f64::from(c) / f64::from(n);
        assert!(
            (frac(outage) - 0.75).abs() < 0.02,
            "outage {}",
            frac(outage)
        );
        assert!(
            (frac(degraded) - 0.25).abs() < 0.02,
            "degraded {}",
            frac(degraded)
        );
    }

    #[test]
    fn link_traces_are_deterministic_per_stream() {
        let process = LinkFailureProcess::new(
            FailureDistribution::Weibull {
                scale_secs: 3.0,
                shape: 1.2,
            },
            0.4,
            KEYS,
        )
        .unwrap();
        let trace = |seed: u64, stream: u64| {
            let mut rng = SimRng::seed_from(seed).fork(stream);
            let mut t = SimTime::ZERO;
            (0..64)
                .map(|_| {
                    let ev = process.next_after(&mut rng, t);
                    t = ev.at;
                    (ev.at.as_secs().to_bits(), ev.kind.as_str())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(trace(4, 8), trace(4, 8), "same stream, same trace");
        assert_ne!(trace(4, 8), trace(4, 9), "distinct streams diverge");
    }

    #[test]
    fn traces_are_deterministic_per_stream() {
        let process = FailureProcess::new(
            FailureDistribution::Weibull {
                scale_secs: 2.0,
                shape: 1.5,
            },
            0.2,
            0.05,
            KEYS,
        )
        .unwrap();
        let trace = |seed: u64, stream: u64| {
            let mut rng = SimRng::seed_from(seed).fork(stream);
            let mut t = SimTime::ZERO;
            (0..64)
                .map(|_| {
                    let ev = process.next_after(&mut rng, t);
                    t = ev.at;
                    (ev.at.as_secs().to_bits(), ev.kind.as_str())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(trace(9, 11), trace(9, 11), "same stream, same trace");
        assert_ne!(trace(9, 11), trace(9, 12), "distinct streams diverge");
        assert_ne!(trace(9, 11), trace(10, 11), "distinct seeds diverge");
    }
}
