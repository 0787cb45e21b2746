//! Shared machinery for list schedulers over a [`CostModel`]:
//! earliest-start / earliest-finish computation, incremental placement,
//! and the one device-choice rule. Every list planner picks a task's
//! device from the placement probe ([`SchedContext::probe`]: data-ready
//! time, start and finish on each feasible device, in id order) by the
//! first strict minimum of its own score ([`first_min`]), and places its
//! tasks through one of two drivers: a fixed order
//! ([`SchedContext::place_each`]) or a ready list by priority
//! ([`SchedContext::place_by_priority`]).

use helios_platform::DeviceId;
use helios_sim::{SimDuration, SimTime};
use helios_workflow::{TaskId, Workflow};

use crate::cost::CostModel;
use crate::error::SchedError;
use crate::schedule::{Placement, Schedule};
use crate::timeline::DeviceTimeline;

/// One device's probe of a task: (device, data-ready, start, finish).
pub(crate) type Probe = (DeviceId, SimTime, SimTime, SimTime);

/// The first of `items` with the least `score`: a later item replaces
/// the pick only when its score is strictly less, so of equals the
/// earliest wins (for probes, the lower device id). `None` for no items.
///
/// # Errors
///
/// Returns the first error, of an item or of its score.
pub(crate) fn first_min<T, S: PartialOrd>(
    items: impl IntoIterator<Item = Result<T, SchedError>>,
    mut score: impl FnMut(&T) -> Result<S, SchedError>,
) -> Result<Option<T>, SchedError> {
    let mut best: Option<(T, S)> = None;
    for item in items {
        let item = item?;
        let s = score(&item)?;
        if best.as_ref().is_none_or(|(_, b)| s < *b) {
            best = Some((item, s));
        }
    }
    Ok(best.map(|(item, _)| item))
}

/// Incremental scheduling state shared by the list-scheduling algorithms.
///
/// Borrows the workflow's [`CostModel`] for every execution time,
/// feasible device and transfer term, and tracks per-device timelines
/// plus committed placements. All `est` / `eft` queries use the model's
/// transfer terms between the committed placement of each predecessor
/// and the candidate device. A clone copies only the timelines and
/// placements, so planners that need several states build one context
/// and clone it.
///
/// # Examples
///
/// ```
/// use helios_platform::presets;
/// use helios_sched::{CostModel, SchedContext};
/// use helios_workflow::generators::montage;
///
/// let platform = presets::workstation();
/// let wf = montage(20, 1)?;
/// let model = CostModel::new(&wf, &platform)?;
/// let mut ctx = SchedContext::new(&wf, &model, true);
/// let entry = wf.entry_tasks()[0];
/// let (dev, start, finish) = ctx.best_eft(entry)?;
/// ctx.place(entry, dev, start, finish)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SchedContext<'a> {
    wf: &'a Workflow,
    model: &'a CostModel<'a>,
    timelines: Vec<DeviceTimeline>,
    /// `owners[d][i]`: the task holding device `d`'s `i`-th reservation.
    /// Kept only by restorable contexts and empty in every other, so
    /// planners that never restore pay nothing for it.
    owners: Vec<Vec<TaskId>>,
    placements: Vec<Option<Placement>>,
    insertion: bool,
}

impl<'a> SchedContext<'a> {
    /// An empty context over `model`, which must have been built from
    /// `wf`. `insertion` selects the gap-filling placement policy.
    #[must_use]
    pub fn new(wf: &'a Workflow, model: &'a CostModel<'a>, insertion: bool) -> SchedContext<'a> {
        SchedContext {
            wf,
            model,
            timelines: vec![DeviceTimeline::new(); model.platform().num_devices()],
            owners: Vec::new(),
            placements: vec![None; wf.num_tasks()],
            insertion,
        }
    }

    /// This context, tagging each reservation with its task from now on,
    /// so it can [`SchedContext::restore`] from a restorable clone. Call
    /// it before placing anything; a restorable context is never
    /// unplaced from.
    pub(crate) fn restorable(mut self) -> SchedContext<'a> {
        debug_assert!(self.placements.iter().all(Option::is_none));
        self.owners = vec![Vec::new(); self.timelines.len()];
        self
    }

    /// Makes this context hold exactly `source`'s placements of the tasks
    /// `order[..from]`, keeping the timelines' capacity, and returns
    /// their latest finish ([`SimTime::ZERO`] for none). `order` lists every task once, and `step[t]` is task `t`'s
    /// position in it. Each timeline is sorted by (start, finish), so it
    /// depends on its set of intervals alone: copying the kept ones gives
    /// what reserving the kept placements, in any order, would. No
    /// interval is searched for or inserted. Both contexts must be
    /// restorable clones of one context.
    pub(crate) fn restore(
        &mut self,
        source: &SchedContext<'a>,
        order: &[TaskId],
        step: &[usize],
        from: usize,
    ) -> SimTime {
        let keep = |t: TaskId| step[t.0] < from;
        let mut last = SimTime::ZERO;
        for (d, (timeline, owners)) in self.timelines.iter_mut().zip(&mut self.owners).enumerate() {
            timeline.copy_kept(owners, &source.timelines[d], &source.owners[d], keep);
            // The finishes never decrease, so the last is the latest.
            last = last.max(timeline.ready_time());
        }
        self.placements.copy_from_slice(&source.placements);
        for t in &order[from..] {
            self.placements[t.0] = None;
        }
        last
    }

    /// The workflow being scheduled.
    #[must_use]
    pub fn workflow(&self) -> &'a Workflow {
        self.wf
    }

    /// The cost model the context plans from.
    #[must_use]
    pub(crate) fn model(&self) -> &'a CostModel<'a> {
        self.model
    }

    /// The committed placement of `task`, if placed.
    #[must_use]
    pub fn placement(&self, task: TaskId) -> Option<&Placement> {
        self.placements[task.0].as_ref()
    }

    /// Whether every task has been placed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.placements.iter().all(Option::is_some)
    }

    /// The instant all of `task`'s input data can be available on
    /// `device`: the max over predecessors of `finish + transfer`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Unscheduled`] if a predecessor has not been
    /// placed yet, or a routing error.
    pub fn data_ready(&self, task: TaskId, device: DeviceId) -> Result<SimTime, SchedError> {
        let mut ready = SimTime::ZERO;
        for &e in self.wf.predecessors(task) {
            let edge = self.wf.edge(e);
            let pred = self.placements[edge.src.0]
                .as_ref()
                .ok_or(SchedError::Unscheduled(edge.src))?;
            let transfer = self
                .model
                .transfers()
                .transfer_time(edge.bytes, pred.device, device)?;
            ready = ready.max(pred.finish + transfer);
        }
        Ok(ready)
    }

    /// [`SchedContext::data_ready`] from given transfer terms: the max over
    /// `task`'s in-edges `e`, in edge order, of its source's finish plus
    /// `comm[e]`. Bit for bit the same when `comm[e]` is the transfer
    /// from the source's device to the one `task` will run on.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Unscheduled`] if a predecessor has not been
    /// placed yet.
    pub(crate) fn data_ready_with(
        &self,
        task: TaskId,
        comm: &[SimDuration],
    ) -> Result<SimTime, SchedError> {
        let mut ready = SimTime::ZERO;
        for &e in self.wf.predecessors(task) {
            let src = self.wf.edge(e).src;
            let pred = self.placements[src.0]
                .as_ref()
                .ok_or(SchedError::Unscheduled(src))?;
            ready = ready.max(pred.finish + comm[e.0]);
        }
        Ok(ready)
    }

    /// Earliest start and finish of `task` on `device` given the current
    /// timeline (EST/EFT in list-scheduling terms).
    ///
    /// # Errors
    ///
    /// Same as [`SchedContext::data_ready`].
    pub fn eft(&self, task: TaskId, device: DeviceId) -> Result<(SimTime, SimTime), SchedError> {
        Ok(self.start_after(task, device, self.data_ready(task, device)?))
    }

    /// The earliest (start, finish) of `task` on `device` once its input
    /// data is there at `ready`: one timeline scan, no transfer math.
    pub(crate) fn start_after(
        &self,
        task: TaskId,
        device: DeviceId,
        ready: SimTime,
    ) -> (SimTime, SimTime) {
        let exec = self.model.exec_time(task, device);
        let start = self.timelines[device.0].earliest_start(ready, exec, self.insertion);
        (start, start + exec)
    }

    /// Each predecessor's (finish, device, bytes) in edge order, gathered
    /// once for a sweep over devices instead of re-walking the edge and
    /// placement tables per probe.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Unscheduled`] if a predecessor has not been
    /// placed yet.
    fn pred_terms(&self, task: TaskId) -> Result<Vec<(SimTime, DeviceId, f64)>, SchedError> {
        let pred_edges = self.wf.predecessors(task);
        let mut preds = Vec::with_capacity(pred_edges.len());
        for &e in pred_edges {
            let edge = self.wf.edge(e);
            let pred = self.placements[edge.src.0]
                .as_ref()
                .ok_or(SchedError::Unscheduled(edge.src))?;
            preds.push((pred.finish, pred.device, edge.bytes));
        }
        Ok(preds)
    }

    /// [`SchedContext::data_ready`] on `device` from
    /// [`SchedContext::pred_terms`]: the same maximum, taken in the same
    /// order.
    fn ready_from(
        &self,
        preds: &[(SimTime, DeviceId, f64)],
        device: DeviceId,
    ) -> Result<SimTime, SchedError> {
        let mut ready = SimTime::ZERO;
        for &(pred_finish, pred_dev, bytes) in preds {
            let transfer = self
                .model
                .transfers()
                .transfer_time(bytes, pred_dev, device)?;
            ready = ready.max(pred_finish + transfer);
        }
        Ok(ready)
    }

    /// The placement probe: every feasible device of `task`, in id order,
    /// with its data-ready time, start and finish. The predecessor terms
    /// are gathered once, so each device costs one transfer maximum and
    /// one timeline scan; the values are [`SchedContext::data_ready`] and
    /// [`SchedContext::eft`]'s, bit for bit. Every list planner chooses
    /// its device from this probe.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Unscheduled`] if a predecessor has not been
    /// placed yet; each item may be a routing error.
    pub(crate) fn probe(
        &self,
        task: TaskId,
    ) -> Result<impl Iterator<Item = Result<Probe, SchedError>> + '_, SchedError> {
        let preds = self.pred_terms(task)?;
        Ok(self.model.feasible_devices(task).iter().map(move |&dev| {
            let ready = self.ready_from(&preds, dev)?;
            let (start, finish) = self.start_after(task, dev, ready);
            Ok((dev, ready, start, finish))
        }))
    }

    /// The probe of `task` with the least `score`, the first of equals
    /// ([`first_min`]), as (device, start, finish).
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::NoFeasibleDevice`] when `task` has no
    /// feasible device; otherwise same as [`SchedContext::probe`].
    pub(crate) fn best_by<S: PartialOrd>(
        &self,
        task: TaskId,
        mut score: impl FnMut(&Probe) -> S,
    ) -> Result<(DeviceId, SimTime, SimTime), SchedError> {
        let (dev, _, start, finish) = first_min(self.probe(task)?, |p| Ok(score(p)))?
            .ok_or(SchedError::NoFeasibleDevice(task))?;
        Ok((dev, start, finish))
    }

    /// The memory-feasible device minimizing EFT for `task`, with its
    /// start/finish. Ties break toward the lower device id
    /// (deterministic).
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::NoFeasibleDevice`] when no device can hold
    /// the task's working set; otherwise same as
    /// [`SchedContext::data_ready`].
    pub fn best_eft(&self, task: TaskId) -> Result<(DeviceId, SimTime, SimTime), SchedError> {
        self.best_by(task, |p| p.3)
    }

    /// Places each task of `order` in turn where `pick` says: the
    /// (device, start, finish) it returns. `pick` may place tasks
    /// tentatively but must unplace them before it returns.
    ///
    /// # Errors
    ///
    /// Returns `pick`'s first error, or [`SchedContext::place`]'s.
    pub(crate) fn place_each(
        &mut self,
        order: &[TaskId],
        mut pick: impl FnMut(&mut Self, TaskId) -> Result<(DeviceId, SimTime, SimTime), SchedError>,
    ) -> Result<(), SchedError> {
        for &task in order {
            let (dev, start, finish) = pick(self, task)?;
            self.place(task, dev, start, finish)?;
        }
        Ok(())
    }

    /// The ready-list driver: places every task where `pick` says, taking
    /// next the ready task of highest `priority` (ties to the lower task
    /// id). The pick leaves the list by `swap_remove`, and its successors
    /// join the end, in edge order, once their last predecessor is placed.
    ///
    /// # Errors
    ///
    /// Returns `pick`'s first error, or [`SchedContext::place`]'s.
    pub(crate) fn place_by_priority(
        &mut self,
        priority: &[f64],
        mut pick: impl FnMut(&Self, TaskId) -> Result<(DeviceId, SimTime, SimTime), SchedError>,
    ) -> Result<(), SchedError> {
        let wf = self.wf;
        let mut indegree: Vec<usize> = (0..wf.num_tasks())
            .map(|i| wf.predecessors(TaskId(i)).len())
            .collect();
        let mut ready: Vec<TaskId> = (0..wf.num_tasks())
            .filter(|&i| indegree[i] == 0)
            .map(TaskId)
            .collect();
        while let Some((idx, _)) = ready
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| priority[a.0].total_cmp(&priority[b.0]).then(b.0.cmp(&a.0)))
        {
            let task = ready.swap_remove(idx);
            let (dev, start, finish) = pick(self, task)?;
            self.place(task, dev, start, finish)?;
            for s in wf.successor_tasks(task) {
                indegree[s.0] -= 1;
                if indegree[s.0] == 0 {
                    ready.push(s);
                }
            }
        }
        Ok(())
    }

    /// Commits `task` to `device` over `[start, finish)` at the device's
    /// nominal DVFS level.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Internal`] on a double placement.
    ///
    /// # Panics
    ///
    /// Panics if the reservation overlaps an existing one — callers must
    /// pass intervals obtained from [`SchedContext::eft`] — or if
    /// `device` is not one of the platform's.
    pub fn place(
        &mut self,
        task: TaskId,
        device: DeviceId,
        start: SimTime,
        finish: SimTime,
    ) -> Result<(), SchedError> {
        if self.placements[task.0].is_some() {
            return Err(SchedError::Internal(format!("task {task} placed twice")));
        }
        let at = self.timelines[device.0].reserve(start, finish);
        if let Some(owners) = self.owners.get_mut(device.0) {
            owners.insert(at, task);
        }
        self.placements[task.0] = Some(Placement {
            task,
            device,
            level: self.model.nominal_level(device),
            start,
            finish,
        });
        Ok(())
    }

    /// Reverts a placement made with [`SchedContext::place`] (used by
    /// lookahead schedulers to evaluate tentative placements).
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Unscheduled`] if the task is not placed.
    pub fn unplace(&mut self, task: TaskId) -> Result<(), SchedError> {
        let p = self.placements[task.0]
            .take()
            .ok_or(SchedError::Unscheduled(task))?;
        debug_assert!(self.owners.is_empty(), "restorable contexts never unplace");
        self.timelines[p.device.0].release(p.start, p.finish);
        Ok(())
    }

    /// Finalizes the schedule.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Unscheduled`] if any task is missing.
    pub fn into_schedule(self) -> Result<Schedule, SchedError> {
        self.snapshot()
    }

    /// The schedule placed so far, leaving the context as it is.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Unscheduled`] if any task is missing.
    pub(crate) fn snapshot(&self) -> Result<Schedule, SchedError> {
        let mut placements = Vec::with_capacity(self.placements.len());
        for (i, p) in self.placements.iter().enumerate() {
            placements.push(p.ok_or(SchedError::Unscheduled(TaskId(i)))?);
        }
        Schedule::new(placements)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_platform::presets;
    use helios_platform::{ComputeCost, KernelClass};
    use helios_workflow::generators::WorkflowClass;
    use helios_workflow::{Task, WorkflowBuilder};

    fn chain2() -> Workflow {
        let mut b = WorkflowBuilder::new("c2");
        let cost = ComputeCost::new(100.0, 0.0, KernelClass::DenseLinearAlgebra);
        let a = b.add_task(Task::new("a", "s", cost));
        let c = b.add_task(Task::new("b", "s", cost));
        b.add_dep(a, c, 100e6).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn probe_equals_eft_on_every_feasible_device() {
        // Every preset × the five Pegasus families at 40 tasks, with and
        // without insertion: each task, in HEFT's order, is probed once
        // its predecessors are placed, then placed at its best EFT.
        let bits = |t: SimTime| t.as_secs().to_bits();
        let mut probed = 0;
        for platform in presets::all() {
            for class in WorkflowClass::ALL {
                let wf = class.generate(40, 1).unwrap();
                let model = CostModel::new(&wf, &platform).unwrap();
                for insertion in [true, false] {
                    let mut ctx = SchedContext::new(&wf, &model, insertion);
                    for task in model.rank_order(&wf).unwrap() {
                        let probes: Vec<Probe> =
                            ctx.probe(task).unwrap().map(Result::unwrap).collect();
                        let devices: Vec<DeviceId> = probes.iter().map(|p| p.0).collect();
                        assert_eq!(devices, model.feasible_devices(task));
                        for (dev, ready, start, finish) in probes {
                            let (s, f) = ctx.eft(task, dev).unwrap();
                            let want = [ctx.data_ready(task, dev).unwrap(), s, f];
                            assert_eq!([ready, start, finish].map(bits), want.map(bits));
                            probed += 1;
                        }
                        // A task no device can hold ends this run.
                        let Ok((dev, start, finish)) = ctx.best_eft(task) else {
                            break;
                        };
                        ctx.place(task, dev, start, finish).unwrap();
                    }
                }
            }
        }
        assert!(probed > 10_000, "{probed} probes");
    }

    #[test]
    fn entry_task_data_ready_is_zero() {
        let wf = chain2();
        let p = presets::workstation();
        let model = CostModel::new(&wf, &p).unwrap();
        let ctx = SchedContext::new(&wf, &model, true);
        assert_eq!(
            ctx.data_ready(TaskId(0), DeviceId(0)).unwrap(),
            SimTime::ZERO
        );
        // Successor with unplaced predecessor errors.
        assert!(matches!(
            ctx.data_ready(TaskId(1), DeviceId(0)),
            Err(SchedError::Unscheduled(TaskId(0)))
        ));
    }

    #[test]
    fn transfer_cost_included_cross_device() {
        let wf = chain2();
        let p = presets::workstation();
        let model = CostModel::new(&wf, &p).unwrap();
        let mut ctx = SchedContext::new(&wf, &model, true);
        let (d, s, f) = ctx.best_eft(TaskId(0)).unwrap();
        ctx.place(TaskId(0), d, s, f).unwrap();
        // Same device: no transfer. Different device: transfer > 0.
        let same = ctx.data_ready(TaskId(1), d).unwrap();
        let other = DeviceId(if d.0 == 0 { 1 } else { 0 });
        let cross = ctx.data_ready(TaskId(1), other).unwrap();
        assert_eq!(same, f);
        assert!(cross > f);
    }

    #[test]
    fn best_eft_prefers_faster_device() {
        let wf = chain2();
        let p = presets::workstation();
        let model = CostModel::new(&wf, &p).unwrap();
        let ctx = SchedContext::new(&wf, &model, true);
        // Dense linear algebra: the GPU (device 2) dominates.
        let (d, _, _) = ctx.best_eft(TaskId(0)).unwrap();
        assert_eq!(p.device(d).unwrap().name(), "gpu0");
    }

    #[test]
    fn double_place_rejected() {
        let wf = chain2();
        let p = presets::workstation();
        let model = CostModel::new(&wf, &p).unwrap();
        let mut ctx = SchedContext::new(&wf, &model, true);
        let (d, s, f) = ctx.best_eft(TaskId(0)).unwrap();
        ctx.place(TaskId(0), d, s, f).unwrap();
        assert!(ctx
            .place(TaskId(0), d, f, f + SimDuration::from_secs(1.0))
            .is_err());
    }

    #[test]
    fn incomplete_schedule_rejected() {
        let wf = chain2();
        let p = presets::workstation();
        let model = CostModel::new(&wf, &p).unwrap();
        let mut ctx = SchedContext::new(&wf, &model, true);
        let (d, s, f) = ctx.best_eft(TaskId(0)).unwrap();
        ctx.place(TaskId(0), d, s, f).unwrap();
        assert!(!ctx.is_complete());
        assert!(matches!(
            ctx.into_schedule(),
            Err(SchedError::Unscheduled(TaskId(1)))
        ));
    }
}
