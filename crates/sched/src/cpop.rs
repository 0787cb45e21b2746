//! CPOP — Critical Path On a Processor (Topcuoglu et al., 2002).
//!
//! Tasks go through the list planners' ready-list driver
//! ([`SchedContext::place_by_priority`]) by top + bottom rank; a
//! critical-path task takes the path's device at its earliest start, any
//! other the placement probe's earliest finish
//! ([`SchedContext::best_eft`]).

use helios_platform::DeviceId;
use helios_workflow::{TaskId, Workflow};

use crate::context::SchedContext;
use crate::cost::CostModel;
use crate::error::SchedError;
use crate::schedule::Schedule;
use crate::Scheduler;

/// The CPOP list scheduler: tasks are prioritized by *top + bottom* rank;
/// tasks on the critical path are pinned to the single device that
/// minimizes the path's total execution time, all other tasks take their
/// EFT-minimizing device.
#[derive(Debug, Clone, Default)]
pub struct CpopScheduler {
    _private: (),
}

impl Scheduler for CpopScheduler {
    fn name(&self) -> &str {
        "cpop"
    }

    fn schedule_with(&self, wf: &Workflow, model: &CostModel<'_>) -> Result<Schedule, SchedError> {
        let bottom = model.bottom_levels(wf)?;
        let top = model.top_levels(wf)?;
        let priority: Vec<f64> = bottom.iter().zip(&top).map(|(b, t)| b + t).collect();

        // The critical path: tasks whose priority equals the entry task's
        // maximum priority (within tolerance).
        let cp_value = priority.iter().fold(0.0f64, |a, &b| a.max(b));
        let tol = 1e-9 * cp_value.max(1.0);
        let cp: Vec<TaskId> = (0..priority.len())
            .filter(|&i| (cp_value - priority[i]).abs() <= tol)
            .map(TaskId)
            .collect();

        // Pick the device minimizing the summed execution of CP tasks,
        // among devices that can host every CP task; fall back to plain
        // EFT placement when no single device can host the path.
        let mut best_dev: Option<DeviceId> = None;
        let mut best_total = f64::INFINITY;
        for d in (0..model.platform().num_devices()).map(DeviceId) {
            if cp.iter().all(|&t| model.feasible(t, d)) {
                let total = cp
                    .iter()
                    .fold(0.0, |total, &t| total + model.exec_time(t, d).as_secs());
                if total < best_total {
                    best_total = total;
                    best_dev = Some(d);
                }
            }
        }
        let on_cp = |t: TaskId| cp.binary_search(&t).is_ok();

        let mut ctx = SchedContext::new(wf, model, true);
        ctx.place_by_priority(&priority, |ctx, task| match best_dev {
            Some(dev) if on_cp(task) => ctx
                .eft(task, dev)
                .map(|(start, finish)| (dev, start, finish)),
            _ => ctx.best_eft(task),
        })?;
        ctx.into_schedule()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_platform::presets;
    use helios_workflow::generators::{epigenomics, montage};

    #[test]
    fn valid_on_scientific_workflows() {
        let p = presets::hpc_node();
        for wf in [montage(50, 1).unwrap(), epigenomics(60, 1).unwrap()] {
            let s = CpopScheduler::default().schedule(&wf, &p).unwrap();
            s.validate(&wf, &p).unwrap();
        }
    }

    #[test]
    fn critical_path_tasks_share_a_device() {
        // Deep chain-heavy workflow: the CP should be co-located.
        let wf = helios_workflow::generators::synthetic::chain(8, 50.0, 1e6, 2).unwrap();
        let p = presets::hpc_node();
        let s = CpopScheduler::default().schedule(&wf, &p).unwrap();
        s.validate(&wf, &p).unwrap();
        // A pure chain IS the critical path: every task on one device.
        let devices: std::collections::BTreeSet<_> =
            s.placements().iter().map(|pl| pl.device).collect();
        assert_eq!(devices.len(), 1, "{devices:?}");
    }

    #[test]
    fn comparable_to_heft() {
        use crate::{HeftScheduler, Scheduler as _};
        let p = presets::hpc_node();
        let wf = montage(80, 4).unwrap();
        let cpop = CpopScheduler::default().schedule(&wf, &p).unwrap();
        let heft = HeftScheduler::default().schedule(&wf, &p).unwrap();
        let ratio = cpop.makespan().as_secs() / heft.makespan().as_secs();
        assert!(ratio < 3.0, "CPOP should be within 3x of HEFT, got {ratio}");
    }
}
