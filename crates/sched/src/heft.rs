//! HEFT — Heterogeneous Earliest Finish Time (Topcuoglu et al., 2002).

use helios_platform::Platform;
use helios_workflow::{analysis, TaskId, Workflow};

use crate::context::SchedContext;
use crate::error::SchedError;
use crate::schedule::Schedule;
use crate::Scheduler;

/// The HEFT list scheduler: tasks are prioritized by *upward rank* (mean
/// execution plus the heaviest downstream chain) and greedily placed on
/// the device minimizing their earliest finish time, with insertion into
/// idle gaps.
///
/// # Examples
///
/// ```
/// use helios_platform::presets;
/// use helios_sched::{HeftScheduler, Scheduler};
/// use helios_workflow::generators::cybershake;
///
/// let s = HeftScheduler::default()
///     .schedule(&cybershake(30, 1)?, &presets::hpc_node())?;
/// assert!(s.makespan().as_secs() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct HeftScheduler {
    /// Disable the insertion policy (append-only placement).
    pub no_insertion: bool,
}

/// Task ids sorted by decreasing upward rank (`ranks`, from
/// [`analysis::bottom_levels`]; ties by id, deterministic).
pub(crate) fn rank_order(ranks: &[f64]) -> Vec<TaskId> {
    let mut order: Vec<TaskId> = (0..ranks.len()).map(TaskId).collect();
    order.sort_by(|a, b| ranks[b.0].total_cmp(&ranks[a.0]).then(a.0.cmp(&b.0)));
    order
}

/// HEFT's placement pass: each task of `order`, in turn, on its
/// earliest-finish device.
///
/// # Errors
///
/// Same as [`SchedContext::best_eft`].
pub(crate) fn place_in_order(
    ctx: &mut SchedContext<'_>,
    order: &[TaskId],
) -> Result<(), SchedError> {
    for &task in order {
        let (dev, start, finish) = ctx.best_eft(task)?;
        ctx.place(task, dev, start, finish)?;
    }
    Ok(())
}

impl Scheduler for HeftScheduler {
    fn name(&self) -> &str {
        if self.no_insertion {
            "heft-noins"
        } else {
            "heft"
        }
    }

    fn schedule(&self, wf: &Workflow, platform: &Platform) -> Result<Schedule, SchedError> {
        let order = rank_order(&analysis::bottom_levels(wf, platform)?);
        let mut ctx = SchedContext::new(wf, platform, !self.no_insertion)?;
        place_in_order(&mut ctx, &order)?;
        ctx.into_schedule()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_platform::presets;
    use helios_workflow::generators::{montage, synthetic};

    #[test]
    fn rank_order_is_topologically_consistent() {
        let wf = montage(50, 2).unwrap();
        let p = presets::hpc_node();
        let order = rank_order(&analysis::bottom_levels(&wf, &p).unwrap());
        let pos: Vec<usize> = {
            let mut pos = vec![0; wf.num_tasks()];
            for (i, &t) in order.iter().enumerate() {
                pos[t.0] = i;
            }
            pos
        };
        // Upward rank strictly decreases along edges, so every predecessor
        // precedes its successors in rank order.
        for e in wf.edges() {
            assert!(pos[e.src.0] < pos[e.dst.0], "{} !< {}", e.src, e.dst);
        }
    }

    #[test]
    fn produces_valid_schedules() {
        let p = presets::hpc_node();
        for seed in 0..5 {
            let wf = montage(60, seed).unwrap();
            let s = HeftScheduler::default().schedule(&wf, &p).unwrap();
            s.validate(&wf, &p).unwrap();
        }
    }

    #[test]
    fn insertion_never_hurts() {
        let p = presets::hpc_node();
        for seed in 0..5 {
            let wf = montage(80, seed).unwrap();
            let ins = HeftScheduler::default().schedule(&wf, &p).unwrap();
            let noins = HeftScheduler { no_insertion: true }
                .schedule(&wf, &p)
                .unwrap();
            noins.validate(&wf, &p).unwrap();
            assert!(
                ins.makespan().as_secs() <= noins.makespan().as_secs() + 1e-9,
                "seed {seed}: insertion {} vs append {}",
                ins.makespan(),
                noins.makespan()
            );
        }
    }

    #[test]
    fn chain_goes_mostly_to_one_fast_device() {
        // A pure chain has no parallelism: HEFT should not scatter it
        // across devices unless transfers are free.
        let wf = synthetic::chain(10, 50.0, 100e6, 1).unwrap();
        let p = presets::workstation();
        let s = HeftScheduler::default().schedule(&wf, &p).unwrap();
        s.validate(&wf, &p).unwrap();
        let devices: std::collections::BTreeSet<_> =
            s.placements().iter().map(|pl| pl.device).collect();
        assert!(devices.len() <= 2, "chain scattered over {devices:?}");
    }
}
