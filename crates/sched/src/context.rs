//! Shared machinery for list schedulers: cost tables, earliest-start /
//! earliest-finish computation, and incremental placement.

use helios_platform::{DeviceId, Platform, TransferTable};
use helios_sim::{SimDuration, SimTime};
use helios_workflow::{TaskId, Workflow};

use crate::error::SchedError;
use crate::schedule::{Placement, Schedule};
use crate::timeline::DeviceTimeline;

/// Incremental scheduling state shared by the list-scheduling algorithms.
///
/// Precomputes the task-on-device execution-time matrix at nominal DVFS
/// and tracks per-device timelines plus committed placements. All `est` /
/// `eft` queries use the platform's transfer model between the committed
/// placement of each predecessor and the candidate device.
///
/// # Examples
///
/// ```
/// use helios_platform::presets;
/// use helios_sched::SchedContext;
/// use helios_workflow::generators::montage;
/// use helios_workflow::TaskId;
///
/// let platform = presets::workstation();
/// let wf = montage(20, 1)?;
/// let mut ctx = SchedContext::new(&wf, &platform, true)?;
/// let entry = wf.entry_tasks()[0];
/// let (dev, start, finish) = ctx.best_eft(entry)?;
/// ctx.place(entry, dev, start, finish)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SchedContext<'a> {
    wf: &'a Workflow,
    platform: &'a Platform,
    /// `exec[task][device]` nominal execution times.
    exec: Vec<Vec<SimDuration>>,
    /// Memoized interconnect terms, so the hot EST/EFT loops never
    /// re-walk routes or links.
    transfers: TransferTable<'a>,
    /// `feasible[task]`: the devices that can host the task, in id order.
    feasible: Vec<Vec<DeviceId>>,
    timelines: Vec<DeviceTimeline>,
    placements: Vec<Option<Placement>>,
    insertion: bool,
}

impl<'a> SchedContext<'a> {
    /// Builds the context, precomputing the execution-time matrix.
    /// `insertion` selects the gap-filling placement policy.
    ///
    /// # Errors
    ///
    /// Propagates platform model errors.
    pub fn new(
        wf: &'a Workflow,
        platform: &'a Platform,
        insertion: bool,
    ) -> Result<SchedContext<'a>, SchedError> {
        let mut exec = Vec::with_capacity(wf.num_tasks());
        for t in wf.tasks() {
            let mut row = Vec::with_capacity(platform.num_devices());
            for d in platform.devices() {
                row.push(d.execution_time(t.cost(), d.nominal_level())?);
            }
            exec.push(row);
        }
        let feasible = wf
            .tasks()
            .iter()
            .map(|t| {
                platform
                    .devices()
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| crate::placement_feasible(d, t))
                    .map(|(i, _)| DeviceId(i))
                    .collect()
            })
            .collect();
        Ok(SchedContext {
            wf,
            platform,
            exec,
            transfers: platform.transfer_table(),
            feasible,
            timelines: vec![DeviceTimeline::new(); platform.num_devices()],
            placements: vec![None; wf.num_tasks()],
            insertion,
        })
    }

    /// Makes this context hold exactly `source`'s placements of `tasks`,
    /// reserved in that order, keeping the cost tables and the
    /// timelines' capacity, and returns their latest finish
    /// ([`SimTime::ZERO`] for none). Replaying the order in which
    /// `source` placed them repeats its insertion sequence, so
    /// zero-length reservations land where they did there. Both
    /// contexts must schedule the same workflow on the same platform.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Unscheduled`] if `source` has not placed
    /// one of `tasks`.
    pub(crate) fn replay(
        &mut self,
        source: &SchedContext<'a>,
        tasks: &[TaskId],
    ) -> Result<SimTime, SchedError> {
        for timeline in &mut self.timelines {
            timeline.clear();
        }
        self.placements.fill(None);
        let mut last = SimTime::ZERO;
        for &task in tasks {
            let p = source.placements[task.0].ok_or(SchedError::Unscheduled(task))?;
            self.timelines[p.device.0].reserve(p.start, p.finish);
            self.placements[task.0] = Some(p);
            last = last.max(p.finish);
        }
        Ok(last)
    }

    /// The workflow being scheduled.
    #[must_use]
    pub fn workflow(&self) -> &'a Workflow {
        self.wf
    }

    /// The target platform.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        self.platform
    }

    /// Nominal execution time of `task` on `device`.
    #[must_use]
    pub fn exec_time(&self, task: TaskId, device: DeviceId) -> SimDuration {
        self.exec[task.0][device.0]
    }

    /// Whether `device` can host `task`: the working set fits its
    /// memory and its trust level clears the task's requirement.
    #[must_use]
    pub fn feasible(&self, task: TaskId, device: DeviceId) -> bool {
        self.feasible_set(task).contains(&device)
    }

    /// Devices (in id order) that can host `task`.
    pub fn feasible_devices(&self, task: TaskId) -> impl Iterator<Item = DeviceId> + '_ {
        self.feasible_set(task).iter().copied()
    }

    /// The devices that can host `task`, in id order; empty for an
    /// unknown task.
    #[must_use]
    pub(crate) fn feasible_set(&self, task: TaskId) -> &[DeviceId] {
        self.feasible.get(task.0).map_or(&[], Vec::as_slice)
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
                .transfers
                .transfer_time(edge.bytes, pred.device, device)?;
            ready = ready.max(pred.finish + transfer);
        }
        Ok(ready)
    }

    /// Reference implementation of [`SchedContext::data_ready`] that
    /// bypasses the memoized transfer table and queries the platform model
    /// directly. Exists so tests can assert the cache is bit-identical;
    /// not for production use.
    ///
    /// # Errors
    ///
    /// Same as [`SchedContext::data_ready`].
    #[doc(hidden)]
    pub fn data_ready_uncached(
        &self,
        task: TaskId,
        device: DeviceId,
    ) -> Result<SimTime, SchedError> {
        let mut ready = SimTime::ZERO;
        for &e in self.wf.predecessors(task) {
            let edge = self.wf.edge(e);
            let pred = self.placements[edge.src.0]
                .as_ref()
                .ok_or(SchedError::Unscheduled(edge.src))?;
            let transfer = self
                .platform
                .transfer_time(edge.bytes, pred.device, device)?;
            ready = ready.max(pred.finish + transfer);
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
        let ready = self.data_ready(task, device)?;
        let exec = self.exec[task.0][device.0];
        let start = self.timelines[device.0].earliest_start(ready, exec, self.insertion);
        Ok((start, start + exec))
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
        // Gather each predecessor's (finish, device, bytes) once for the
        // whole device sweep instead of re-walking edge and placement
        // tables per probe.
        let pred_edges = self.wf.predecessors(task);
        let mut preds: Vec<(SimTime, DeviceId, f64)> = Vec::with_capacity(pred_edges.len());
        for &e in pred_edges {
            let edge = self.wf.edge(e);
            let pred = self.placements[edge.src.0]
                .as_ref()
                .ok_or(SchedError::Unscheduled(edge.src))?;
            preds.push((pred.finish, pred.device, edge.bytes));
        }
        let mut best: Option<(DeviceId, SimTime, SimTime)> = None;
        for &dev in &self.feasible[task.0] {
            let mut ready = SimTime::ZERO;
            for &(pred_finish, pred_dev, bytes) in &preds {
                let transfer = self.transfers.transfer_time(bytes, pred_dev, dev)?;
                ready = ready.max(pred_finish + transfer);
            }
            let exec = self.exec[task.0][dev.0];
            let start = self.timelines[dev.0].earliest_start(ready, exec, self.insertion);
            let finish = start + exec;
            let better = match best {
                None => true,
                Some((_, _, bf)) => finish < bf,
            };
            if better {
                best = Some((dev, start, finish));
            }
        }
        best.ok_or(SchedError::NoFeasibleDevice(task))
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
    /// pass intervals obtained from [`SchedContext::eft`].
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
        self.timelines[device.0].reserve(start, finish);
        let level = self.platform.device(device)?.nominal_level();
        self.placements[task.0] = Some(Placement {
            task,
            device,
            level,
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
    fn entry_task_data_ready_is_zero() {
        let wf = chain2();
        let p = presets::workstation();
        let ctx = SchedContext::new(&wf, &p, true).unwrap();
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
        let mut ctx = SchedContext::new(&wf, &p, true).unwrap();
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
        let ctx = SchedContext::new(&wf, &p, true).unwrap();
        // Dense linear algebra: the GPU (device 2) dominates.
        let (d, _, _) = ctx.best_eft(TaskId(0)).unwrap();
        assert_eq!(p.device(d).unwrap().name(), "gpu0");
    }

    #[test]
    fn double_place_rejected() {
        let wf = chain2();
        let p = presets::workstation();
        let mut ctx = SchedContext::new(&wf, &p, true).unwrap();
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
        let mut ctx = SchedContext::new(&wf, &p, true).unwrap();
        let (d, s, f) = ctx.best_eft(TaskId(0)).unwrap();
        ctx.place(TaskId(0), d, s, f).unwrap();
        assert!(!ctx.is_complete());
        assert!(matches!(
            ctx.into_schedule(),
            Err(SchedError::Unscheduled(TaskId(1)))
        ));
    }
}
