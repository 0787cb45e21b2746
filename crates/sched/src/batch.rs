//! Batch-mode heuristics: Min-Min and Max-Min (Ibarra & Kim, 1977;
//! Maheswaran et al., 1999), extended with DAG readiness tracking.
//!
//! Each round commits one ready task, chosen by its minimum EFT over the
//! devices. Instead of probing every (ready task, device) pair again in
//! every round, each ready task keeps a [`Row`]: the placement probe
//! ([`SchedContext::probe`]) of every feasible device, its data-ready
//! time, start and finish, taken once when the task becomes ready. That
//! is exact because a ready task's data-ready times never change (its
//! predecessors are placed), and a reservation on device `d` can only
//! change start times on `d`. So a commit to `d` re-probes only the `d`
//! entry of each ready row, a timeline scan with no transfer math, and
//! re-picks that row's device by the planners' one rule, the first
//! strict minimum finish. The placements are bit-identical to the
//! all-device sweep, which the tests keep as the reference.

use helios_platform::DeviceId;
use helios_workflow::{TaskId, Workflow};

use crate::context::{first_min, Probe, SchedContext};
use crate::cost::CostModel;
use crate::error::SchedError;
use crate::schedule::Schedule;
use crate::Scheduler;

/// A ready task's probes of its feasible devices.
struct Row {
    task: TaskId,
    /// [`SchedContext::probe`]'s probes, kept up to date.
    probes: Vec<Probe>,
    /// The first strict minimum finish of `probes`: the device
    /// [`SchedContext::best_eft`] would pick.
    best: Probe,
}

impl Row {
    fn new(ctx: &SchedContext<'_>, task: TaskId) -> Result<Row, SchedError> {
        let mut probes = Vec::with_capacity(ctx.model().feasible_devices(task).len());
        for probe in ctx.probe(task)? {
            probes.push(probe?);
        }
        #[cfg(test)]
        crate::probe::add(crate::probe::Site::BatchProbe, probes.len() as u64);
        let best = *probes.first().ok_or(SchedError::NoFeasibleDevice(task))?;
        let mut row = Row { task, probes, best };
        row.repick();
        Ok(row)
    }

    fn repick(&mut self) {
        let probes = self.probes.iter().map(Ok);
        if let Ok(Some(&best)) = first_min(probes, |p| Ok(p.3)) {
            self.best = best;
        }
    }

    /// Re-probes the entry on `device` after a reservation there.
    fn refresh(&mut self, ctx: &SchedContext<'_>, device: DeviceId) {
        if let Some(p) = self.probes.iter_mut().find(|p| p.0 == device) {
            (p.2, p.3) = ctx.start_after(self.task, device, p.1);
            #[cfg(test)]
            crate::probe::count(crate::probe::Site::BatchProbe);
            self.repick();
        }
    }
}

/// Shared Min-Min / Max-Min sweep: repeatedly commit, among the ready
/// tasks, either the one with the smallest minimum EFT (`max_min ==
/// false`) or the one with the largest (`max_min == true`). Ties go to
/// the earlier row of the ready list, which is kept in the order of the
/// all-device sweep (`swap_remove` of the pick, successors appended).
fn batch_schedule(
    wf: &Workflow,
    model: &CostModel<'_>,
    max_min: bool,
) -> Result<Schedule, SchedError> {
    let mut ctx = SchedContext::new(wf, model, true);
    let mut indegree: Vec<usize> = (0..wf.num_tasks())
        .map(|i| wf.predecessors(TaskId(i)).len())
        .collect();
    let mut ready = Vec::new();
    for (i, _) in indegree.iter().enumerate().filter(|(_, &d)| d == 0) {
        ready.push(Row::new(&ctx, TaskId(i))?);
    }
    while !ready.is_empty() {
        let mut idx = 0;
        for (i, row) in ready.iter().enumerate().skip(1) {
            let (finish, best) = (row.best.3, ready[idx].best.3);
            if (max_min && finish > best) || (!max_min && finish < best) {
                idx = i;
            }
        }
        let row = ready.swap_remove(idx);
        let (dev, _, start, finish) = row.best;
        ctx.place(row.task, dev, start, finish)?;
        for other in &mut ready {
            other.refresh(&ctx, dev);
        }
        for s in wf.successor_tasks(row.task) {
            indegree[s.0] -= 1;
            if indegree[s.0] == 0 {
                ready.push(Row::new(&ctx, s)?);
            }
        }
    }
    ctx.into_schedule()
}

/// Min-Min: among ready tasks, commit the one with the smallest minimum
/// completion time first. Biases toward short tasks; can starve long
/// ones.
#[derive(Debug, Clone, Default)]
pub struct MinMinScheduler {
    _private: (),
}

impl Scheduler for MinMinScheduler {
    fn name(&self) -> &str {
        "min-min"
    }

    fn schedule_with(&self, wf: &Workflow, model: &CostModel<'_>) -> Result<Schedule, SchedError> {
        batch_schedule(wf, model, false)
    }
}

/// Max-Min: among ready tasks, commit the one with the *largest* minimum
/// completion time first — the long-task-first mirror of Min-Min.
#[derive(Debug, Clone, Default)]
pub struct MaxMinScheduler {
    _private: (),
}

impl Scheduler for MaxMinScheduler {
    fn name(&self) -> &str {
        "max-min"
    }

    fn schedule_with(&self, wf: &Workflow, model: &CostModel<'_>) -> Result<Schedule, SchedError> {
        batch_schedule(wf, model, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{flat_costs, platform, random_workflow};
    use helios_platform::{presets, Platform};
    use helios_workflow::generators::{cybershake, montage};
    use proptest::prelude::*;

    /// The all-device sweep that [`batch_schedule`] must reproduce: every
    /// round re-probes every ready task on every feasible device.
    fn reference_batch_schedule(
        wf: &Workflow,
        platform: &Platform,
        max_min: bool,
    ) -> Result<Schedule, SchedError> {
        let model = CostModel::new(wf, platform)?;
        let mut ctx = SchedContext::new(wf, &model, true);
        let mut indegree: Vec<usize> = (0..wf.num_tasks())
            .map(|i| wf.predecessors(TaskId(i)).len())
            .collect();
        let mut ready: Vec<TaskId> = (0..wf.num_tasks())
            .filter(|&i| indegree[i] == 0)
            .map(TaskId)
            .collect();
        while !ready.is_empty() {
            // (index in ready, device, start, finish) of the pick.
            let mut pick: Option<(usize, _, _, _)> = None;
            for (i, &task) in ready.iter().enumerate() {
                let (dev, start, finish) = ctx.best_eft(task)?;
                crate::probe::add(
                    crate::probe::Site::BatchProbe,
                    model.feasible_devices(task).len() as u64,
                );
                let better = match pick {
                    None => true,
                    Some((_, _, _, best_finish)) => {
                        if max_min {
                            finish > best_finish
                        } else {
                            finish < best_finish
                        }
                    }
                };
                if better {
                    pick = Some((i, dev, start, finish));
                }
            }
            let (idx, dev, start, finish) =
                pick.ok_or_else(|| SchedError::Internal("empty ready set".into()))?;
            let task = ready.swap_remove(idx);
            ctx.place(task, dev, start, finish)?;
            for s in wf.successor_tasks(task) {
                indegree[s.0] -= 1;
                if indegree[s.0] == 0 {
                    ready.push(s);
                }
            }
        }
        ctx.into_schedule()
    }

    /// Both heuristics' schedules (or errors) as `Debug` text, which
    /// prints every f64 exactly: equal text is equal placements, bit for
    /// bit.
    fn both(wf: &Workflow, p: &Platform) -> [(String, String); 2] {
        [false, true].map(|max_min| {
            (
                format!(
                    "{:?}",
                    batch_schedule(wf, &CostModel::new(wf, p).unwrap(), max_min)
                ),
                format!("{:?}", reference_batch_schedule(wf, p, max_min)),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn rows_equal_the_all_device_sweep(
            shape in 0usize..5,
            seed in 0u64..1_000_000,
        ) {
            let wf = random_workflow(shape, seed);
            let flat = flat_costs(&wf);
            for p in (0..4).map(platform) {
                for dag in [&wf, &flat] {
                    for (got, want) in both(dag, &p) {
                        prop_assert_eq!(got, want, "shape {} on {}", shape, p.name());
                    }
                }
            }
        }
    }

    #[test]
    fn probe_counts_witness() {
        // montage 60/1 on hpc_node, Min-Min then Max-Min: (task, device)
        // probes of the all-device sweep, then of the rows.
        let p = presets::hpc_node();
        let wf = montage(60, 1).unwrap();
        crate::probe::take();
        let mut counts = Vec::new();
        for max_min in [false, true] {
            let want = reference_batch_schedule(&wf, &p, max_min).unwrap();
            let reference = crate::probe::take()[3];
            let model = CostModel::new(&wf, &p).unwrap();
            assert_eq!(batch_schedule(&wf, &model, max_min).unwrap(), want);
            counts.push((reference, crate::probe::take()[3]));
        }
        assert_eq!(counts, [(3752, 882), (3704, 876)]);
    }

    #[test]
    fn both_produce_valid_schedules() {
        let p = presets::hpc_node();
        for wf in [montage(50, 1).unwrap(), cybershake(50, 1).unwrap()] {
            for s in [
                MinMinScheduler::default().schedule(&wf, &p).unwrap(),
                MaxMinScheduler::default().schedule(&wf, &p).unwrap(),
            ] {
                s.validate(&wf, &p).unwrap();
            }
        }
    }

    #[test]
    fn min_min_and_max_min_differ() {
        let p = presets::hpc_node();
        let wf = cybershake(60, 2).unwrap();
        let a = MinMinScheduler::default().schedule(&wf, &p).unwrap();
        let b = MaxMinScheduler::default().schedule(&wf, &p).unwrap();
        assert_ne!(
            a.placements(),
            b.placements(),
            "orderings should diverge on heterogeneous ready sets"
        );
    }

    #[test]
    fn within_striking_distance_of_heft() {
        use crate::{HeftScheduler, Scheduler as _};
        let p = presets::hpc_node();
        let wf = montage(80, 3).unwrap();
        let heft = HeftScheduler::default()
            .schedule(&wf, &p)
            .unwrap()
            .makespan()
            .as_secs();
        for s in [
            MinMinScheduler::default().schedule(&wf, &p).unwrap(),
            MaxMinScheduler::default().schedule(&wf, &p).unwrap(),
        ] {
            let ratio = s.makespan().as_secs() / heft;
            assert!(ratio < 5.0, "batch heuristic {ratio}x of HEFT");
        }
    }
}
