//! Lookahead-HEFT: device selection by bounded-depth child impact
//! (Bittencourt et al., "DAG scheduling using a lookahead variant of
//! HEFT", 2010).

use helios_platform::{DeviceId, Platform};
use helios_sim::KnobRange;
use helios_workflow::{analysis, TaskId, Workflow};

use crate::context::SchedContext;
use crate::error::SchedError;
use crate::heft::rank_order;
use crate::schedule::Schedule;
use crate::Scheduler;

/// HEFT with bounded lookahead: when choosing a device for a task, each
/// candidate is evaluated by tentatively committing it and measuring the
/// worst earliest finish time among the task's *evaluable* descendants
/// (those whose other parents are already placed), down to `depth`
/// generations. Depth 1 is the published one-step variant; each extra
/// level tentatively commits the evaluable children at their best EFT
/// and recurses, multiplying cost by roughly the branching factor per
/// level. Usually a few percent better than HEFT on
/// communication-heavy DAGs.
#[derive(Debug, Clone)]
pub struct LookaheadScheduler {
    depth: u32,
}

impl LookaheadScheduler {
    /// Legal lookahead depths; depth 1 is the published variant.
    pub const DEPTH: KnobRange<u32> = KnobRange::at_least(1);

    /// Creates the scheduler with a lookahead depth, raised to
    /// [`DEPTH`](LookaheadScheduler::DEPTH)'s lower end if below it.
    #[must_use]
    pub fn with_depth(depth: u32) -> LookaheadScheduler {
        LookaheadScheduler {
            depth: depth.max(Self::DEPTH.lo),
        }
    }

    /// The lookahead depth in generations of descendants.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.depth
    }
}

impl Default for LookaheadScheduler {
    /// One-step lookahead, the published variant.
    fn default() -> Self {
        LookaheadScheduler::with_depth(1)
    }
}

/// Worst earliest finish time among the evaluable descendants of
/// `task` (already tentatively placed and marked in `placed`), down to
/// `depth` generations. Levels beyond the first commit each evaluable
/// child at its best EFT before recursing, and roll every tentative
/// placement back before returning.
fn worst_descendant_eft(
    ctx: &mut SchedContext,
    wf: &Workflow,
    placed: &mut [bool],
    task: TaskId,
    depth: u32,
    baseline: f64,
) -> Result<f64, SchedError> {
    let evaluable: Vec<TaskId> = wf
        .successor_tasks(task)
        .filter(|&c| !placed[c.0] && wf.predecessor_tasks(c).all(|p| placed[p.0]))
        .collect();
    let mut worst = baseline;
    for &c in &evaluable {
        let (dev, start, finish) = ctx.best_eft(c)?;
        worst = worst.max(finish.as_secs());
        if depth > 1 {
            ctx.place(c, dev, start, finish)?;
            placed[c.0] = true;
            worst = worst.max(worst_descendant_eft(
                ctx,
                wf,
                placed,
                c,
                depth - 1,
                finish.as_secs(),
            )?);
            placed[c.0] = false;
            ctx.unplace(c)?;
        }
    }
    Ok(worst)
}

impl Scheduler for LookaheadScheduler {
    fn name(&self) -> &str {
        "lookahead"
    }

    fn schedule(&self, wf: &Workflow, platform: &Platform) -> Result<Schedule, SchedError> {
        let order = rank_order(&analysis::bottom_levels(wf, platform)?);
        let mut placed = vec![false; wf.num_tasks()];
        let mut ctx = SchedContext::new(wf, platform, true)?;
        for task in order {
            // Children whose every other parent is already placed can have
            // their EFT evaluated once `task` is tentatively committed.
            let has_evaluable = wf
                .successor_tasks(task)
                .any(|c| wf.predecessor_tasks(c).all(|p| p == task || placed[p.0]));

            let mut best: Option<(DeviceId, _, _, f64)> = None;
            for dev in ctx.feasible_devices(task).collect::<Vec<_>>() {
                let (start, finish) = ctx.eft(task, dev)?;
                let score = if !has_evaluable {
                    finish.as_secs()
                } else {
                    ctx.place(task, dev, start, finish)?;
                    placed[task.0] = true;
                    let worst = worst_descendant_eft(
                        &mut ctx,
                        wf,
                        &mut placed,
                        task,
                        self.depth,
                        finish.as_secs(),
                    )?;
                    placed[task.0] = false;
                    ctx.unplace(task)?;
                    worst
                };
                if best.is_none_or(|(_, _, _, b)| score < b) {
                    best = Some((dev, start, finish, score));
                }
            }
            let (dev, start, finish, _) = best.ok_or(SchedError::NoFeasibleDevice(task))?;
            ctx.place(task, dev, start, finish)?;
            placed[task.0] = true;
        }
        ctx.into_schedule()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_platform::presets;
    use helios_workflow::generators::{montage, sipht};

    #[test]
    fn valid_schedules() {
        let p = presets::hpc_node();
        for wf in [montage(50, 1).unwrap(), sipht(40, 1).unwrap()] {
            let s = LookaheadScheduler::default().schedule(&wf, &p).unwrap();
            s.validate(&wf, &p).unwrap();
        }
    }

    #[test]
    fn depth_one_is_the_default_and_zero_clamps() {
        assert_eq!(LookaheadScheduler::default().depth(), 1);
        assert_eq!(LookaheadScheduler::with_depth(0).depth(), 1);
        // Depth 1 through the explicit constructor is the same machine
        // as the default.
        let p = presets::hpc_node();
        let wf = montage(50, 3).unwrap();
        let a = LookaheadScheduler::default().schedule(&wf, &p).unwrap();
        let b = LookaheadScheduler::with_depth(1).schedule(&wf, &p).unwrap();
        assert_eq!(a.makespan(), b.makespan());
        for (x, y) in a.placements().iter().zip(b.placements()) {
            assert_eq!(x.device, y.device, "task {:?}", x.task);
        }
    }

    #[test]
    fn deeper_lookahead_stays_valid_and_deterministic() {
        let p = presets::hpc_node();
        for wf in [montage(40, 2).unwrap(), sipht(40, 5).unwrap()] {
            for depth in [2, 3] {
                let s = LookaheadScheduler::with_depth(depth)
                    .schedule(&wf, &p)
                    .unwrap();
                s.validate(&wf, &p).unwrap();
                let again = LookaheadScheduler::with_depth(depth)
                    .schedule(&wf, &p)
                    .unwrap();
                assert_eq!(s.makespan(), again.makespan(), "depth {depth}");
            }
        }
    }

    #[test]
    fn close_to_heft_quality() {
        use crate::{HeftScheduler, Scheduler as _};
        let p = presets::hpc_node();
        let mut la = 0.0;
        let mut heft = 0.0;
        for seed in 0..6 {
            let wf = montage(60, seed).unwrap();
            la += LookaheadScheduler::default()
                .schedule(&wf, &p)
                .unwrap()
                .makespan()
                .as_secs();
            heft += HeftScheduler::default()
                .schedule(&wf, &p)
                .unwrap()
                .makespan()
                .as_secs();
        }
        assert!(la < 1.25 * heft, "lookahead {la} vs HEFT {heft}");
    }
}
