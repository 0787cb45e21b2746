//! Reliability analysis and reliability-aware scheduling.
//!
//! Shrinking transistors make silicon less dependable (survey §II.A);
//! with per-device failure rates `λ_d` (transient faults as Poisson
//! processes), the probability a schedule completes fault-free is
//!
//! `R = Π exp(−λ_d(t) · duration(t)) = exp(−Σ λ · dur)`.
//!
//! [`schedule_reliability`] evaluates that product for any schedule;
//! [`ReliabilityAwareHeft`] biases HEFT's device selection toward
//! dependable devices, trading makespan for completion probability —
//! the same bi-objective shape as energy-aware HEFT.

use helios_platform::Platform;
use helios_workflow::Workflow;

use crate::cost::CostModel;
use crate::error::SchedError;
use crate::heft::weighted_heft;
use crate::schedule::Schedule;
use crate::Scheduler;

/// Validates a per-device failure-rate vector against a platform.
fn check_rates(platform: &Platform, rates: &[f64]) -> Result<(), SchedError> {
    if rates.len() != platform.num_devices() {
        return Err(SchedError::Internal(format!(
            "{} failure rates for {} devices",
            rates.len(),
            platform.num_devices()
        )));
    }
    for (i, &r) in rates.iter().enumerate() {
        if !(r.is_finite() && r >= 0.0) {
            return Err(SchedError::Internal(format!(
                "failure rate[{i}] = {r} must be non-negative"
            )));
        }
    }
    Ok(())
}

/// Uniform failure rates from a single MTBF (failures per second =
/// `1 / mtbf_secs`) — matches the engine's exponential failure model
/// (`helios_core::FailureModel::exponential`).
///
/// # Errors
///
/// Returns [`SchedError::Internal`] for a non-positive MTBF.
pub fn uniform_rates(platform: &Platform, mtbf_secs: f64) -> Result<Vec<f64>, SchedError> {
    if !(mtbf_secs.is_finite() && mtbf_secs > 0.0) {
        return Err(SchedError::Internal(format!(
            "mtbf {mtbf_secs} must be positive"
        )));
    }
    Ok(vec![1.0 / mtbf_secs; platform.num_devices()])
}

/// Probability that every placement executes without a transient fault,
/// given per-device failure rates (per second, indexed by device id).
///
/// # Errors
///
/// Returns [`SchedError::Internal`] for a malformed rate vector.
pub fn schedule_reliability(
    schedule: &Schedule,
    platform: &Platform,
    rates: &[f64],
) -> Result<f64, SchedError> {
    check_rates(platform, rates)?;
    let mut hazard = 0.0;
    for p in schedule.placements() {
        hazard += rates[p.device.0] * p.duration().as_secs();
    }
    Ok((-hazard).exp())
}

/// HEFT with reliability-biased device selection:
///
/// `score(d) = alpha · EFT(d)/min_EFT + (1 − alpha) · hazard(d)/min_hazard`
///
/// where `hazard(d) = λ_d · exec(d)` is the task's expected fault count
/// on `d`. `alpha = 1` reproduces plain HEFT. This is
/// [`weighted_heft`] with minimums floored at
/// `1e-300`.
#[derive(Debug, Clone)]
pub struct ReliabilityAwareHeft {
    alpha: f64,
    rates: Vec<f64>,
}

impl ReliabilityAwareHeft {
    /// Creates the scheduler with the time/reliability weight and
    /// per-device failure rates (per second, indexed by device id).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]`.
    #[must_use]
    pub fn new(alpha: f64, rates: Vec<f64>) -> ReliabilityAwareHeft {
        assert!(
            (0.0..=1.0).contains(&alpha),
            "alpha {alpha} must be in [0, 1]"
        );
        ReliabilityAwareHeft { alpha, rates }
    }
}

impl Scheduler for ReliabilityAwareHeft {
    fn name(&self) -> &str {
        "rel-heft"
    }

    fn schedule_with(&self, wf: &Workflow, model: &CostModel<'_>) -> Result<Schedule, SchedError> {
        check_rates(model.platform(), &self.rates)?;
        weighted_heft(wf, model, self.alpha, 1e-300, |task, dev| {
            Ok(self.rates[dev.0] * model.exec_time(task, dev).as_secs())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HeftScheduler;
    use helios_platform::presets;
    use helios_workflow::generators::montage;

    #[test]
    fn reliability_is_a_probability_and_monotone() {
        let p = presets::hpc_node();
        let wf = montage(60, 1).unwrap();
        let plan = HeftScheduler::default().schedule(&wf, &p).unwrap();
        let rel_good = schedule_reliability(&plan, &p, &uniform_rates(&p, 1e4).unwrap()).unwrap();
        let rel_bad = schedule_reliability(&plan, &p, &uniform_rates(&p, 1.0).unwrap()).unwrap();
        assert!(rel_good > 0.99, "MTBF 10^4 s: {rel_good}");
        assert!(rel_bad < rel_good);
        assert!((0.0..=1.0).contains(&rel_bad));
        // Zero rates: certain success.
        let certain = schedule_reliability(&plan, &p, &vec![0.0; p.num_devices()]).unwrap();
        assert_eq!(certain, 1.0);
    }

    #[test]
    fn malformed_rates_rejected() {
        let p = presets::hpc_node();
        let wf = montage(30, 1).unwrap();
        let plan = HeftScheduler::default().schedule(&wf, &p).unwrap();
        assert!(schedule_reliability(&plan, &p, &[0.1]).is_err());
        assert!(schedule_reliability(&plan, &p, &vec![-1.0; p.num_devices()]).is_err());
        assert!(uniform_rates(&p, 0.0).is_err());
    }

    #[test]
    fn alpha_one_matches_heft() {
        let p = presets::hpc_node();
        let wf = montage(50, 2).unwrap();
        let rates = uniform_rates(&p, 100.0).unwrap();
        let rel = ReliabilityAwareHeft::new(1.0, rates)
            .schedule(&wf, &p)
            .unwrap();
        let heft = HeftScheduler::default().schedule(&wf, &p).unwrap();
        assert_eq!(rel.placements(), heft.placements());
    }

    #[test]
    fn low_alpha_buys_reliability_with_makespan() {
        let p = presets::hpc_node();
        // The GPUs are flaky (MTBF 10 s); everything else is solid.
        let mut rates = vec![1e-6; p.num_devices()];
        rates[2] = 0.1;
        rates[3] = 0.1;
        rates[4] = 0.1;
        rates[5] = 0.1;
        let mut time = [0.0f64; 2];
        let mut rel = [0.0f64; 2];
        for seed in 0..5 {
            let wf = montage(60, seed).unwrap();
            for (i, alpha) in [1.0, 0.2].into_iter().enumerate() {
                let plan = ReliabilityAwareHeft::new(alpha, rates.clone())
                    .schedule(&wf, &p)
                    .unwrap();
                plan.validate(&wf, &p).unwrap();
                time[i] += plan.makespan().as_secs();
                rel[i] += schedule_reliability(&plan, &p, &rates).unwrap();
            }
        }
        assert!(
            rel[1] > rel[0],
            "reliability-biased plans must be more reliable: {} vs {}",
            rel[1],
            rel[0]
        );
        assert!(
            time[1] >= time[0],
            "avoiding the fast flaky GPUs must cost time"
        );
    }
}
