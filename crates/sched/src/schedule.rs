//! Schedules: per-task placements plus validation and quality metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use helios_platform::{DeviceId, DvfsLevel, Platform};
use helios_sim::{SimDuration, SimTime};
use helios_workflow::{TaskId, Workflow};

use crate::cost::CostModel;
use crate::error::SchedError;

/// Tolerance for floating-point comparisons in schedule validation.
const EPS: f64 = 1e-9;

/// One task's assignment: where, at which DVFS state, and when.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// The placed task.
    pub task: TaskId,
    /// Executing device.
    pub device: DeviceId,
    /// DVFS state the task runs at.
    pub level: DvfsLevel,
    /// Start time.
    pub start: SimTime,
    /// Finish time.
    pub finish: SimTime,
}

impl Placement {
    /// The placement's duration.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.finish.saturating_since(self.start)
    }
}

/// A complete mapping of a workflow onto a platform.
///
/// Produced by a [`Scheduler`](crate::Scheduler); validated against the
/// DAG's precedence constraints (including inter-device transfer times)
/// and each device's concurrency limit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    placements: Vec<Placement>,
}

impl Schedule {
    /// Creates a schedule from per-task placements.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Internal`] if two placements reference the
    /// same task.
    pub fn new(mut placements: Vec<Placement>) -> Result<Schedule, SchedError> {
        placements.sort_by_key(|p| p.task);
        for pair in placements.windows(2) {
            if pair[0].task == pair[1].task {
                return Err(SchedError::Internal(format!(
                    "duplicate placement for task {}",
                    pair[0].task
                )));
            }
        }
        Ok(Schedule { placements })
    }

    /// All placements, sorted by task id.
    #[must_use]
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// The placement of `task`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Unscheduled`] if the task has no placement.
    pub fn placement(&self, task: TaskId) -> Result<&Placement, SchedError> {
        self.placements
            .binary_search_by_key(&task, |p| p.task)
            .map(|i| &self.placements[i])
            .map_err(|_| SchedError::Unscheduled(task))
    }

    /// The schedule's makespan: the latest finish time.
    #[must_use]
    pub fn makespan(&self) -> SimDuration {
        self.placements
            .iter()
            .map(|p| p.finish)
            .max()
            .map_or(SimDuration::ZERO, |t| t.saturating_since(SimTime::ZERO))
    }

    /// Task ids grouped by device, ordered by start time within a device.
    #[must_use]
    pub fn tasks_by_device(&self) -> BTreeMap<DeviceId, Vec<TaskId>> {
        let mut by_dev: BTreeMap<DeviceId, Vec<(SimTime, TaskId)>> = BTreeMap::new();
        for p in &self.placements {
            by_dev.entry(p.device).or_default().push((p.start, p.task));
        }
        by_dev
            .into_iter()
            .map(|(d, mut v)| {
                v.sort_by_key(|p| p.0);
                (d, v.into_iter().map(|(_, t)| t).collect())
            })
            .collect()
    }

    /// Verifies the schedule against workflow and platform:
    ///
    /// 1. every task is placed exactly once,
    /// 2. every task starts only after each predecessor's finish plus the
    ///    inter-device transfer time of its data product,
    /// 3. no device runs more concurrent tasks than it has execution
    ///    slots,
    /// 4. every placement is at least as long as the modeled execution
    ///    time at its DVFS level,
    /// 5. every task's device is feasible for it (memory capacity and
    ///    trust level).
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self, wf: &Workflow, platform: &Platform) -> Result<(), SchedError> {
        for i in 0..wf.num_tasks() {
            let _ = self.placement(TaskId(i))?;
        }
        // Precedence with transfers.
        for p in &self.placements {
            for &e in wf.predecessors(p.task) {
                let edge = wf.edge(e);
                let pred = self.placement(edge.src)?;
                let transfer = platform.transfer_time(edge.bytes, pred.device, p.device)?;
                let data_ready = pred.finish + transfer;
                let deficit = data_ready.as_secs() - p.start.as_secs();
                if deficit > EPS {
                    return Err(SchedError::PrecedenceViolation {
                        task: p.task,
                        pred: edge.src,
                        deficit_secs: deficit,
                    });
                }
            }
        }
        // Device concurrency and duration feasibility.
        for (dev, tasks) in self.tasks_by_device() {
            let device = platform.device(dev)?;
            let slots = device.execution_slots();
            let mut events: Vec<(SimTime, i64, TaskId)> = Vec::new();
            for &t in &tasks {
                let p = self.placement(t)?;
                if !crate::placement_feasible(device, wf.task(t)?) {
                    return Err(SchedError::NoFeasibleDevice(t));
                }
                let exec = device.execution_time(wf.task(t)?.cost(), p.level)?;
                if p.duration().as_secs() + EPS < exec.as_secs() {
                    return Err(SchedError::Internal(format!(
                        "task {t} duration {} shorter than modeled execution {exec}",
                        p.duration()
                    )));
                }
                events.push((p.start, 1, t));
                events.push((p.finish, -1, t));
            }
            // Finish events sort before start events at the same instant.
            events.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut running: Vec<TaskId> = Vec::new();
            for (_, delta, t) in events {
                if delta > 0 {
                    if running.len() >= slots {
                        return Err(SchedError::Overlap {
                            a: running[0],
                            b: t,
                        });
                    }
                    running.push(t);
                } else {
                    running.retain(|&r| r != t);
                }
            }
        }
        Ok(())
    }

    /// Per-device utilization: busy time divided by makespan, indexed by
    /// device id. Devices with no tasks report 0.
    #[must_use]
    pub fn utilization(&self, platform: &Platform) -> Vec<f64> {
        let makespan = self.makespan().as_secs();
        let mut busy = vec![0.0; platform.num_devices()];
        for p in &self.placements {
            if p.device.0 < busy.len() {
                busy[p.device.0] += p.duration().as_secs();
            }
        }
        if makespan == 0.0 {
            return busy;
        }
        busy.iter().map(|b| b / makespan).collect()
    }

    /// Renders a textual Gantt chart, one line per device.
    #[must_use]
    pub fn gantt(&self, wf: &Workflow, platform: &Platform) -> String {
        let mut out = String::new();
        for (dev, tasks) in self.tasks_by_device() {
            let name = platform
                .device(dev)
                .map(|d| d.name().to_owned())
                .unwrap_or_else(|_| dev.to_string());
            let _ = write!(out, "{name:>12} |");
            for t in tasks {
                if let (Ok(p), Ok(task)) = (self.placement(t), wf.task(t)) {
                    let _ = write!(
                        out,
                        " {}[{:.2}-{:.2}]",
                        task.name(),
                        p.start.as_secs(),
                        p.finish.as_secs()
                    );
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Schedule length ratio: makespan divided by the sum of each
/// critical-path task's *minimum* execution time across devices — the
/// standard heterogeneous lower-bound normalization. Lower is better;
/// 1.0 is the (usually unreachable) bound. See [`CostModel::slr`], which
/// reuses a model's bound.
///
/// # Errors
///
/// Propagates platform and placement errors.
pub fn slr(schedule: &Schedule, wf: &Workflow, platform: &Platform) -> Result<f64, SchedError> {
    CostModel::new(wf, platform)?.slr(wf, schedule.makespan())
}

/// Speedup: the best single-device sequential execution time divided by
/// the schedule's makespan.
///
/// # Errors
///
/// Propagates platform errors.
pub fn speedup(schedule: &Schedule, wf: &Workflow, platform: &Platform) -> Result<f64, SchedError> {
    speedup_with(schedule, wf, &CostModel::new(wf, platform)?)
}

/// [`speedup`] read from `model`, the cost model of `wf`.
pub(crate) fn speedup_with(
    schedule: &Schedule,
    wf: &Workflow,
    model: &CostModel<'_>,
) -> Result<f64, SchedError> {
    let mut best_seq = f64::INFINITY;
    for d in (0..model.platform().num_devices()).map(DeviceId) {
        let mut total = 0.0;
        for t in (0..wf.num_tasks()).map(TaskId) {
            total += model.exec_time(t, d).as_secs();
        }
        best_seq = best_seq.min(total);
    }
    let makespan = schedule.makespan().as_secs();
    if makespan == 0.0 {
        return Err(SchedError::Internal("zero makespan".into()));
    }
    Ok(best_seq / makespan)
}

/// Parallel efficiency: [`speedup`] divided by the device count.
///
/// # Errors
///
/// Propagates platform errors.
pub fn efficiency(
    schedule: &Schedule,
    wf: &Workflow,
    platform: &Platform,
) -> Result<f64, SchedError> {
    Ok(speedup(schedule, wf, platform)? / platform.num_devices() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_platform::presets;
    use helios_platform::{ComputeCost, KernelClass};
    use helios_workflow::{Task, WorkflowBuilder};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn tiny_wf() -> Workflow {
        let mut b = WorkflowBuilder::new("tiny");
        let cost = ComputeCost::new(1.0, 0.0, KernelClass::Reduction);
        let a = b.add_task(Task::new("a", "s", cost));
        let c = b.add_task(Task::new("b", "s", cost));
        b.add_dep(a, c, 1e6).unwrap();
        b.build().unwrap()
    }

    fn place(task: usize, dev: usize, start: f64, finish: f64) -> Placement {
        Placement {
            task: TaskId(task),
            device: DeviceId(dev),
            level: DvfsLevel(2),
            start: t(start),
            finish: t(finish),
        }
    }

    #[test]
    fn duplicate_placement_rejected() {
        let err = Schedule::new(vec![place(0, 0, 0.0, 1.0), place(0, 1, 0.0, 1.0)]);
        assert!(matches!(err, Err(SchedError::Internal(_))));
    }

    #[test]
    fn valid_sequential_schedule_passes() {
        let wf = tiny_wf();
        let p = presets::workstation();
        // Both on cpu0, generous gaps.
        let s = Schedule::new(vec![place(0, 0, 0.0, 1.0), place(1, 0, 2.0, 3.0)]).unwrap();
        s.validate(&wf, &p).unwrap();
        assert!((s.makespan().as_secs() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn missing_placement_detected() {
        let wf = tiny_wf();
        let p = presets::workstation();
        let s = Schedule::new(vec![place(0, 0, 0.0, 1.0)]).unwrap();
        assert!(matches!(
            s.validate(&wf, &p),
            Err(SchedError::Unscheduled(TaskId(1)))
        ));
    }

    #[test]
    fn precedence_violation_detected() {
        let wf = tiny_wf();
        let p = presets::workstation();
        // Task 1 on gpu0 starting immediately: the PCIe transfer of 1 MB
        // cannot have completed.
        let s = Schedule::new(vec![place(0, 0, 0.0, 1.0), place(1, 2, 1.0, 2.0)]).unwrap();
        assert!(matches!(
            s.validate(&wf, &p),
            Err(SchedError::PrecedenceViolation { .. })
        ));
    }

    #[test]
    fn overlap_detected() {
        let mut b = WorkflowBuilder::new("par");
        let cost = ComputeCost::new(1.0, 0.0, KernelClass::Reduction);
        b.add_task(Task::new("a", "s", cost));
        b.add_task(Task::new("b", "s", cost));
        let wf = b.build().unwrap();
        let p = presets::workstation();
        let s = Schedule::new(vec![place(0, 0, 0.0, 1.0), place(1, 0, 0.5, 1.5)]).unwrap();
        assert!(matches!(
            s.validate(&wf, &p),
            Err(SchedError::Overlap { .. })
        ));
    }

    #[test]
    fn too_short_duration_detected() {
        let mut b = WorkflowBuilder::new("big");
        // 500 Gflop on a CPU takes ~1s; claim it finished in 1 µs.
        let cost = ComputeCost::new(500.0, 0.0, KernelClass::BranchyScalar);
        b.add_task(Task::new("a", "s", cost));
        let wf = b.build().unwrap();
        let p = presets::workstation();
        let s = Schedule::new(vec![place(0, 0, 0.0, 1e-6)]).unwrap();
        assert!(matches!(s.validate(&wf, &p), Err(SchedError::Internal(_))));
    }

    #[test]
    fn back_to_back_tasks_are_legal() {
        let mut b = WorkflowBuilder::new("seq");
        let cost = ComputeCost::new(0.0, 0.0, KernelClass::Reduction);
        b.add_task(Task::new("a", "s", cost));
        b.add_task(Task::new("b", "s", cost));
        let wf = b.build().unwrap();
        let p = presets::workstation();
        // b starts exactly when a finishes.
        let s = Schedule::new(vec![place(0, 0, 0.0, 1.0), place(1, 0, 1.0, 2.0)]).unwrap();
        s.validate(&wf, &p).unwrap();
    }

    #[test]
    fn utilization_and_gantt() {
        let wf = tiny_wf();
        let p = presets::workstation();
        let s = Schedule::new(vec![place(0, 0, 0.0, 1.0), place(1, 0, 2.0, 4.0)]).unwrap();
        let u = s.utilization(&p);
        assert_eq!(u.len(), p.num_devices());
        assert!((u[0] - 0.75).abs() < 1e-12);
        assert_eq!(u[1], 0.0);
        let g = s.gantt(&wf, &p);
        assert!(g.contains("cpu0"), "{g}");
        assert!(g.contains('a') && g.contains('b'));
    }

    #[test]
    fn metrics_are_sane() {
        use crate::{HeftScheduler, Scheduler};
        let wf = helios_workflow::generators::montage(30, 1).unwrap();
        let p = presets::hpc_node();
        let s = HeftScheduler::default().schedule(&wf, &p).unwrap();
        let slr_v = slr(&s, &wf, &p).unwrap();
        assert!(slr_v >= 0.5, "SLR {slr_v} suspiciously low");
        let sp = speedup(&s, &wf, &p).unwrap();
        assert!(sp > 0.0);
        let eff = efficiency(&s, &wf, &p).unwrap();
        assert!((0.0..=1.5).contains(&eff), "efficiency {eff}");
    }
}
