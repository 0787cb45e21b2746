//! CPOP — Critical Path On a Processor (Topcuoglu et al., 2002).

use helios_platform::{DeviceId, Platform};
use helios_workflow::{analysis, TaskId, Workflow};

use crate::context::SchedContext;
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

    fn schedule(&self, wf: &Workflow, platform: &Platform) -> Result<Schedule, SchedError> {
        let exec = analysis::mean_exec_times(wf, platform)?;
        let comm = analysis::mean_comm_times(wf, platform)?;
        let bottom = analysis::bottom_levels_with(wf, &exec, &comm)?;
        let top = analysis::top_levels_with(wf, &exec, &comm);
        let priority: Vec<f64> = bottom.iter().zip(&top).map(|(b, t)| b + t).collect();

        // The critical path: tasks whose priority equals the entry task's
        // maximum priority (within tolerance).
        let cp_value = priority.iter().fold(0.0f64, |a, &b| a.max(b));
        let tol = 1e-9 * cp_value.max(1.0);
        let on_cp: Vec<bool> = priority
            .iter()
            .map(|&p| (cp_value - p).abs() <= tol)
            .collect();

        // Pick the device minimizing the summed execution of CP tasks,
        // among devices whose memory fits every CP task; fall back to
        // plain EFT placement when no single device can host the path.
        let mut best_dev: Option<DeviceId> = None;
        let mut best_total = f64::INFINITY;
        for d in 0..platform.num_devices() {
            let dev = platform.device(DeviceId(d))?;
            let mut total = 0.0;
            let mut fits_all = true;
            for (i, &cp) in on_cp.iter().enumerate() {
                if cp {
                    let task = wf.task(TaskId(i))?;
                    if !crate::placement_feasible(dev, task) {
                        fits_all = false;
                        break;
                    }
                    total += dev
                        .execution_time(task.cost(), dev.nominal_level())?
                        .as_secs();
                }
            }
            if fits_all && total < best_total {
                best_total = total;
                best_dev = Some(DeviceId(d));
            }
        }

        // Priority queue: ready tasks by decreasing priority.
        let mut ctx = SchedContext::new(wf, platform, true)?;
        let mut indegree: Vec<usize> = (0..wf.num_tasks())
            .map(|i| wf.predecessors(TaskId(i)).len())
            .collect();
        let mut ready: Vec<TaskId> = (0..wf.num_tasks())
            .filter(|&i| indegree[i] == 0)
            .map(TaskId)
            .collect();
        let mut scheduled = 0usize;
        while !ready.is_empty() {
            // Highest priority first; ties by id.
            let (idx, &task) = ready
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| {
                    priority[a.0].total_cmp(&priority[b.0]).then(b.0.cmp(&a.0))
                })
                .ok_or_else(|| SchedError::Internal("empty ready set".into()))?;
            ready.swap_remove(idx);

            if let (true, Some(best_dev)) = (on_cp[task.0], best_dev) {
                let (start, finish) = ctx.eft(task, best_dev)?;
                ctx.place(task, best_dev, start, finish)?;
            } else {
                let (dev, start, finish) = ctx.best_eft(task)?;
                ctx.place(task, dev, start, finish)?;
            }
            scheduled += 1;
            for s in wf.successor_tasks(task) {
                indegree[s.0] -= 1;
                if indegree[s.0] == 0 {
                    ready.push(s);
                }
            }
        }
        if scheduled != wf.num_tasks() {
            return Err(SchedError::Internal(format!(
                "scheduled {scheduled} of {} tasks",
                wf.num_tasks()
            )));
        }
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
