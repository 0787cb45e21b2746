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

/// Per-stage aggregation of a schedule: where the execution time went.
///
/// Returns `(stage name, total busy seconds, task count)` sorted by
/// descending time — the first rows are the pipeline's bottleneck
/// stages.
///
/// # Errors
///
/// Returns [`SchedError::Unscheduled`] if the schedule is missing a
/// task.
pub fn stage_breakdown(
    schedule: &Schedule,
    wf: &Workflow,
) -> Result<Vec<(String, f64, usize)>, SchedError> {
    let mut agg: std::collections::BTreeMap<&str, (f64, usize)> = std::collections::BTreeMap::new();
    for (i, task) in wf.tasks().iter().enumerate() {
        let p = schedule.placement(helios_workflow::TaskId(i))?;
        let entry = agg.entry(task.stage()).or_insert((0.0, 0));
        entry.0 += p.duration().as_secs();
        entry.1 += 1;
    }
    let mut rows: Vec<(String, f64, usize)> = agg
        .into_iter()
        .map(|(stage, (secs, count))| (stage.to_owned(), secs, count))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    Ok(rows)
}

#[cfg(test)]
mod stage_tests {
    use super::*;
    use crate::{HeftScheduler, Scheduler};
    use helios_platform::presets;
    use helios_workflow::generators::epigenomics;

    #[test]
    fn breakdown_sums_to_total_busy_time() {
        let p = presets::hpc_node();
        let wf = epigenomics(80, 1).unwrap();
        let s = HeftScheduler::default().schedule(&wf, &p).unwrap();
        let rows = stage_breakdown(&s, &wf).unwrap();
        let total: f64 = rows.iter().map(|r| r.1).sum();
        let busy: f64 = s
            .placements()
            .iter()
            .map(|pl| pl.duration().as_secs())
            .sum();
        assert!((total - busy).abs() < 1e-9);
        let tasks: usize = rows.iter().map(|r| r.2).sum();
        assert_eq!(tasks, wf.num_tasks());
        // Epigenomics is map-dominated.
        assert_eq!(rows[0].0, "map", "{rows:?}");
        // Sorted descending.
        for pair in rows.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }
}
