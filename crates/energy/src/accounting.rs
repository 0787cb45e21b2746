//! Post-hoc energy accounting for schedules.

use serde::{Deserialize, Serialize};

use helios_platform::Platform;
use helios_sched::{SchedError, Schedule};
use helios_sim::SimTime;
use helios_workflow::Workflow;

/// Energy breakdown for one device, in joules.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DeviceEnergy {
    /// Energy while executing tasks.
    pub active_j: f64,
    /// Energy while powered but idle.
    pub idle_j: f64,
    /// Energy while in DRS sleep.
    pub sleep_j: f64,
}

impl DeviceEnergy {
    /// Total joules for the device.
    #[must_use]
    pub fn total_j(&self) -> f64 {
        self.active_j + self.idle_j + self.sleep_j
    }
}

/// Platform-wide energy report for one executed schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Per-device breakdown, indexed by device id.
    pub per_device: Vec<DeviceEnergy>,
    /// Total active energy, joules.
    pub active_j: f64,
    /// Total idle energy, joules.
    pub idle_j: f64,
    /// Total sleep energy, joules.
    pub sleep_j: f64,
    /// The schedule's makespan, seconds.
    pub makespan_secs: f64,
}

impl EnergyReport {
    /// Total platform energy, joules.
    #[must_use]
    pub fn total_j(&self) -> f64 {
        self.active_j + self.idle_j + self.sleep_j
    }

    /// Energy-delay product (J·s) — the metric the energy experiments
    /// rank schedulers by.
    #[must_use]
    pub fn edp(&self) -> f64 {
        self.total_j() * self.makespan_secs
    }
}

/// Computes the energy a schedule dissipates on `platform`.
///
/// Each placement contributes active energy at its DVFS level. Device
/// time not covered by a placement — before the first task, between
/// tasks, and after the last task until the makespan — contributes idle
/// energy, unless `drs` is set and the gap exceeds the device's sleep
/// break-even point, in which case the gap (minus the wake-up latency at
/// idle power) is billed at sleep power.
///
/// # Errors
///
/// Propagates platform and placement errors.
pub fn account(
    schedule: &Schedule,
    wf: &Workflow,
    platform: &Platform,
    drs: bool,
) -> Result<EnergyReport, SchedError> {
    let makespan = schedule.makespan();
    let end = SimTime::ZERO + makespan;
    let mut per_device = vec![DeviceEnergy::default(); platform.num_devices()];

    let by_device = schedule.tasks_by_device();
    for (d, acc) in per_device.iter_mut().enumerate() {
        let device = platform.device(helios_platform::DeviceId(d))?;
        let power = device.power_model();
        let sleep = device.sleep_model();

        // Busy intervals in start order (validated schedules have
        // single-slot devices non-overlapping; multi-slot devices are
        // billed per-task for active and by gaps in the merged timeline
        // for idle).
        let mut intervals: Vec<(SimTime, SimTime)> = Vec::new();
        if let Some(tasks) = by_device.get(&helios_platform::DeviceId(d)) {
            for &t in tasks {
                let p = schedule.placement(t)?;
                let state = device.dvfs_state(p.level)?;
                acc.active_j += power.active_energy(state, p.duration());
                intervals.push((p.start, p.finish));
            }
        }
        intervals.sort();
        // Merge overlapping intervals (multi-slot devices).
        let mut merged: Vec<(SimTime, SimTime)> = Vec::new();
        for (s, f) in intervals {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(f),
                _ => merged.push((s, f)),
            }
        }
        // Bill the gaps.
        let mut cursor = SimTime::ZERO;
        let break_even = sleep.break_even(power.idle_power());
        let bill_gap = |from: SimTime, to: SimTime, acc: &mut DeviceEnergy| {
            let gap = to.saturating_since(from);
            if gap.as_secs() == 0.0 {
                return;
            }
            let can_sleep = drs && break_even.is_some_and(|be| gap > be);
            if can_sleep {
                // Pay wake latency at idle power, the rest asleep.
                let wake = sleep.wake_latency();
                let asleep = gap - wake;
                acc.sleep_j += sleep.sleep_energy(asleep);
                acc.idle_j += power.idle_energy(wake);
            } else {
                acc.idle_j += power.idle_energy(gap);
            }
        };
        for &(s, f) in &merged {
            bill_gap(cursor, s, acc);
            cursor = cursor.max(f);
        }
        bill_gap(cursor, end, acc);
    }

    let _ = wf; // workflow kept in the signature for future per-stage breakdowns
    Ok(EnergyReport {
        active_j: per_device.iter().map(|d| d.active_j).sum(),
        idle_j: per_device.iter().map(|d| d.idle_j).sum(),
        sleep_j: per_device.iter().map(|d| d.sleep_j).sum(),
        per_device,
        makespan_secs: makespan.as_secs(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_platform::presets;
    use helios_sched::{HeftScheduler, Scheduler};
    use helios_workflow::generators::montage;

    fn setup() -> (Workflow, Platform, Schedule) {
        let wf = montage(50, 1).unwrap();
        let p = presets::hpc_node();
        let s = HeftScheduler::default().schedule(&wf, &p).unwrap();
        (wf, p, s)
    }

    #[test]
    fn energy_is_positive_and_consistent() {
        let (wf, p, s) = setup();
        let r = account(&s, &wf, &p, false).unwrap();
        assert!(r.active_j > 0.0);
        assert!(r.idle_j > 0.0, "unused devices must idle");
        assert_eq!(r.sleep_j, 0.0, "no DRS requested");
        let sum: f64 = r.per_device.iter().map(DeviceEnergy::total_j).sum();
        assert!((sum - r.total_j()).abs() < 1e-9);
        assert!(r.edp() > 0.0);
    }

    #[test]
    fn drs_never_increases_energy() {
        let (wf, p, s) = setup();
        let plain = account(&s, &wf, &p, false).unwrap();
        let drs = account(&s, &wf, &p, true).unwrap();
        assert!(
            drs.total_j() <= plain.total_j() + 1e-9,
            "DRS {} vs plain {}",
            drs.total_j(),
            plain.total_j()
        );
        assert!(drs.sleep_j > 0.0, "long gaps should trigger sleep");
    }

    #[test]
    fn active_energy_matches_manual_sum() {
        let (wf, p, s) = setup();
        let r = account(&s, &wf, &p, false).unwrap();
        let mut manual = 0.0;
        for pl in s.placements() {
            let dev = p.device(pl.device).unwrap();
            let state = dev.dvfs_state(pl.level).unwrap();
            manual += dev.power_model().active_energy(state, pl.duration());
        }
        assert!((manual - r.active_j).abs() < 1e-6);
        let _ = wf;
    }

    #[test]
    fn empty_gap_handling() {
        // Single-task schedule: gap after the task is zero (task defines
        // the makespan), gap before is zero.
        use helios_platform::{ComputeCost, KernelClass};
        use helios_workflow::{Task, WorkflowBuilder};
        let mut b = WorkflowBuilder::new("one");
        b.add_task(Task::new(
            "a",
            "s",
            ComputeCost::new(100.0, 0.0, KernelClass::BranchyScalar),
        ));
        let wf = b.build().unwrap();
        let p = presets::workstation();
        let s = HeftScheduler::default().schedule(&wf, &p).unwrap();
        let r = account(&s, &wf, &p, false).unwrap();
        // The executing device never idles; the others idle the whole time.
        let exec_dev = s.placements()[0].device.0;
        assert_eq!(r.per_device[exec_dev].idle_j, 0.0);
        for (i, d) in r.per_device.iter().enumerate() {
            if i != exec_dev {
                assert!(d.idle_j > 0.0);
                assert_eq!(d.active_j, 0.0);
            }
        }
    }
}
