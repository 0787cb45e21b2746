//! Schedule quality metrics and one-call evaluation summaries.

pub use crate::schedule::{efficiency, slr, speedup};

use helios_platform::Platform;
use helios_workflow::Workflow;

use crate::cost::CostModel;
use crate::error::SchedError;
use crate::schedule::{speedup_with, Schedule};

/// Everything the comparison experiments report about one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleMetrics {
    /// Makespan in seconds.
    pub makespan_secs: f64,
    /// Schedule length ratio (lower is better, ≥ ~1).
    pub slr: f64,
    /// Speedup over the best single device.
    pub speedup: f64,
    /// Speedup divided by device count.
    pub efficiency: f64,
    /// Mean device utilization over devices that received work.
    pub mean_utilization: f64,
}

impl ScheduleMetrics {
    /// Computes all metrics for `schedule`, from one cost model of `wf`.
    ///
    /// # Errors
    ///
    /// Propagates platform and placement errors.
    pub fn compute(
        schedule: &Schedule,
        wf: &Workflow,
        platform: &Platform,
    ) -> Result<ScheduleMetrics, SchedError> {
        let utilization = schedule.utilization(platform);
        let used: Vec<f64> = utilization.iter().copied().filter(|&u| u > 0.0).collect();
        let mean_utilization = if used.is_empty() {
            0.0
        } else {
            used.iter().sum::<f64>() / used.len() as f64
        };
        let model = CostModel::new(wf, platform)?;
        let slr = model.slr(wf, schedule.makespan())?;
        let speedup = speedup_with(schedule, wf, &model)?;
        Ok(ScheduleMetrics {
            makespan_secs: schedule.makespan().as_secs(),
            slr,
            speedup,
            efficiency: speedup / platform.num_devices() as f64,
            mean_utilization,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{all_schedulers, HeftScheduler, Scheduler};
    use helios_platform::presets;
    use helios_workflow::generators::{montage, WorkflowClass};

    #[test]
    fn summary_is_internally_consistent() {
        let p = presets::hpc_node();
        let wf = montage(50, 1).unwrap();
        let s = HeftScheduler::default().schedule(&wf, &p).unwrap();
        let m = ScheduleMetrics::compute(&s, &wf, &p).unwrap();
        assert!(m.makespan_secs > 0.0);
        assert!(m.slr > 0.0);
        assert!((m.efficiency - m.speedup / p.num_devices() as f64).abs() < 1e-12);
        assert!(m.mean_utilization > 0.0 && m.mean_utilization <= 1.0);
    }

    /// One model gives the bits of the three free functions, which
    /// build one each.
    #[test]
    fn summary_equals_the_free_functions_bit_for_bit() {
        let mut compared = 0;
        for p in presets::all() {
            for class in WorkflowClass::ALL {
                let wf = class.generate(30, 3).unwrap();
                for s in all_schedulers() {
                    let Ok(plan) = s.schedule(&wf, &p) else {
                        continue; // a family too big for the platform
                    };
                    compared += 1;
                    let m = ScheduleMetrics::compute(&plan, &wf, &p).unwrap();
                    let at = format!("{} on {class} on {}", s.name(), p.name());
                    let want = [
                        slr(&plan, &wf, &p).unwrap(),
                        speedup(&plan, &wf, &p).unwrap(),
                        efficiency(&plan, &wf, &p).unwrap(),
                    ];
                    let got = [m.slr, m.speedup, m.efficiency];
                    assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{at}");
                }
            }
        }
        assert!(compared > 100, "{compared} plans compared");
    }
}
