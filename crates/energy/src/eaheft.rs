//! Energy-aware HEFT.

use helios_sched::{weighted_heft, CostModel, SchedError, Schedule, Scheduler};
use helios_workflow::Workflow;

/// A HEFT variant whose device-selection objective is a weighted blend of
/// normalized earliest finish time and normalized execution energy:
///
/// `score(d) = alpha · EFT(d)/min_EFT + (1 − alpha) · E(d)/min_E`
///
/// `alpha = 1` reproduces plain HEFT; `alpha = 0` greedily minimizes
/// per-task energy. This is [`weighted_heft`] with minimums floored at
/// `1e-30`. The interesting regime is in between, where a few
/// percent of makespan buys a large energy cut by steering work away
/// from power-hungry devices whose speed advantage is marginal.
#[derive(Debug, Clone)]
pub struct EnergyAwareHeft {
    alpha: f64,
}

impl EnergyAwareHeft {
    /// Creates the scheduler with the given time/energy weight.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]`.
    #[must_use]
    pub fn new(alpha: f64) -> EnergyAwareHeft {
        assert!(
            (0.0..=1.0).contains(&alpha),
            "alpha {alpha} must be in [0, 1]"
        );
        EnergyAwareHeft { alpha }
    }

    /// The time/energy weight.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Default for EnergyAwareHeft {
    /// A balanced trade-off (`alpha = 0.5`).
    fn default() -> Self {
        EnergyAwareHeft::new(0.5)
    }
}

impl Scheduler for EnergyAwareHeft {
    fn name(&self) -> &str {
        "ea-heft"
    }

    fn schedule_with(&self, wf: &Workflow, model: &CostModel<'_>) -> Result<Schedule, SchedError> {
        let platform = model.platform();
        weighted_heft(wf, model, self.alpha, 1e-30, |task, dev| {
            let cost = wf.task(task)?.cost();
            Ok(platform
                .device(dev)?
                .execution_energy(cost, model.nominal_level(dev))?)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account;
    use helios_platform::presets;
    use helios_sched::HeftScheduler;
    use helios_workflow::generators::ligo_inspiral;

    #[test]
    fn valid_across_alpha_range() {
        let wf = ligo_inspiral(60, 1).unwrap();
        let p = presets::hpc_node();
        for alpha in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let s = EnergyAwareHeft::new(alpha).schedule(&wf, &p).unwrap();
            s.validate(&wf, &p)
                .unwrap_or_else(|e| panic!("alpha {alpha}: {e}"));
        }
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn alpha_out_of_range_panics() {
        let _ = EnergyAwareHeft::new(1.5);
    }

    #[test]
    fn alpha_one_matches_heft() {
        let wf = ligo_inspiral(50, 2).unwrap();
        let p = presets::hpc_node();
        let ea = EnergyAwareHeft::new(1.0).schedule(&wf, &p).unwrap();
        let heft = HeftScheduler::default().schedule(&wf, &p).unwrap();
        assert_eq!(ea.placements(), heft.placements());
    }

    #[test]
    fn lower_alpha_trades_time_for_energy() {
        let p = presets::hpc_node();
        let mut time_sum = [0.0f64; 2];
        let mut energy_sum = [0.0f64; 2];
        for seed in 0..6 {
            let wf = ligo_inspiral(60, seed).unwrap();
            for (i, alpha) in [1.0, 0.3].into_iter().enumerate() {
                let s = EnergyAwareHeft::new(alpha).schedule(&wf, &p).unwrap();
                time_sum[i] += s.makespan().as_secs();
                energy_sum[i] += account(&s, &wf, &p, false).unwrap().active_j;
            }
        }
        assert!(
            energy_sum[1] < energy_sum[0],
            "alpha 0.3 active energy {} should undercut heft {}",
            energy_sum[1],
            energy_sum[0]
        );
        assert!(
            time_sum[1] >= time_sum[0] * 0.95,
            "energy priority should not magically beat HEFT makespan"
        );
    }
}
