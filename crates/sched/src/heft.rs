//! HEFT — Heterogeneous Earliest Finish Time (Topcuoglu et al., 2002).

use helios_platform::DeviceId;
use helios_workflow::{TaskId, Workflow};

use crate::context::{first_min, SchedContext};
use crate::cost::CostModel;
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
    ctx.place_each(order, |ctx, task| ctx.best_eft(task))
}

/// HEFT with a two-objective device choice, the pass of
/// [`ReliabilityAwareHeft`](crate::reliability::ReliabilityAwareHeft)
/// and energy-aware HEFT: each task, in upward-rank order, goes to the
/// first of its feasible devices minimizing
///
/// `alpha · EFT(d)/min_EFT + (1 − alpha) · secondary(task, d)/min_secondary`
///
/// with both minimums taken over the task's feasible devices and raised
/// to at least `floor`. `alpha = 1` reproduces plain HEFT.
///
/// # Errors
///
/// Returns `secondary`'s first error, [`SchedError::NoFeasibleDevice`]
/// for a task no device can hold, or a routing error.
pub fn weighted_heft(
    wf: &Workflow,
    model: &CostModel<'_>,
    alpha: f64,
    floor: f64,
    mut secondary: impl FnMut(TaskId, DeviceId) -> Result<f64, SchedError>,
) -> Result<Schedule, SchedError> {
    // `f64::total_cmp`'s order as an integer, the order the scores have
    // always been compared in. It differs from `<` only on signed zeros
    // and NaN (an infinite secondary cost times a zero weight).
    let key = |x: f64| {
        let bits = x.to_bits() as i64;
        bits ^ (((bits >> 63) as u64) >> 1) as i64
    };
    let mut ctx = SchedContext::new(wf, model, true);
    let mut candidates = Vec::new();
    ctx.place_each(&model.rank_order(wf)?, |ctx, task| {
        candidates.clear();
        let (mut min_finish, mut min_secondary) = (f64::INFINITY, f64::INFINITY);
        for probe in ctx.probe(task)? {
            let (dev, _, start, finish) = probe?;
            let cost = secondary(task, dev)?;
            min_finish = min_finish.min(finish.as_secs());
            min_secondary = min_secondary.min(cost);
            candidates.push(((dev, start, finish), cost));
        }
        let (min_finish, min_secondary) = (min_finish.max(floor), min_secondary.max(floor));
        let best = first_min(candidates.iter().map(Ok), |((_, _, finish), cost)| {
            Ok(key(
                alpha * finish.as_secs() / min_finish + (1.0 - alpha) * cost / min_secondary
            ))
        })?;
        best.map(|&(placement, _)| placement)
            .ok_or(SchedError::NoFeasibleDevice(task))
    })?;
    ctx.into_schedule()
}

impl Scheduler for HeftScheduler {
    fn name(&self) -> &str {
        if self.no_insertion {
            "heft-noins"
        } else {
            "heft"
        }
    }

    fn schedule_with(&self, wf: &Workflow, model: &CostModel<'_>) -> Result<Schedule, SchedError> {
        let mut ctx = SchedContext::new(wf, model, !self.no_insertion);
        place_in_order(&mut ctx, &model.rank_order(wf)?)?;
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
        let order = CostModel::new(&wf, &p).unwrap().rank_order(&wf).unwrap();
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
