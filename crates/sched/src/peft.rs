//! PEFT — Predict Earliest Finish Time (Arabnejad & Barbosa, 2014).

use helios_platform::{DeviceId, Platform};
use helios_workflow::{analysis, TaskId, Workflow};

use crate::context::SchedContext;
use crate::error::SchedError;
use crate::schedule::Schedule;
use crate::Scheduler;

/// The PEFT list scheduler. An *optimistic cost table* `OCT[t][d]` holds,
/// for every task/device pair, the optimistic remaining cost to finish
/// the workflow if `t` runs on `d` (assuming every descendant gets its
/// ideal device). Tasks are ordered by mean OCT and placed on the device
/// minimizing `EFT + OCT` — a one-number lookahead that beats plain HEFT
/// when device affinities differ sharply across the DAG.
#[derive(Debug, Clone, Default)]
pub struct PeftScheduler {
    _private: (),
}

/// Computes the optimistic cost table: `oct[task][device]`.
pub(crate) fn optimistic_cost_table(
    wf: &Workflow,
    platform: &Platform,
) -> Result<Vec<Vec<f64>>, SchedError> {
    let n = wf.num_tasks();
    let m = platform.num_devices();
    // exec[t][d]
    let mut exec = vec![vec![0.0f64; m]; n];
    for (i, t) in wf.tasks().iter().enumerate() {
        for (d, slot) in exec[i].iter_mut().enumerate() {
            let dev = platform.device(DeviceId(d))?;
            *slot = dev.execution_time(t.cost(), dev.nominal_level())?.as_secs();
        }
    }
    let comm = analysis::mean_comm_times(wf, platform)?;
    let mut oct = vec![vec![0.0f64; m]; n];
    for &t in wf.topo_order().iter().rev() {
        for d in 0..m {
            let mut worst_child = 0.0f64;
            for &e in wf.successors(t) {
                let edge = wf.edge(e);
                let mut best_w = f64::INFINITY;
                for w in 0..m {
                    let comm_cost = if w == d { 0.0 } else { comm[e.0] };
                    let cost = oct[edge.dst.0][w] + exec[edge.dst.0][w] + comm_cost;
                    best_w = best_w.min(cost);
                }
                worst_child = worst_child.max(best_w);
            }
            oct[t.0][d] = worst_child;
        }
    }
    Ok(oct)
}

impl Scheduler for PeftScheduler {
    fn name(&self) -> &str {
        "peft"
    }

    fn schedule(&self, wf: &Workflow, platform: &Platform) -> Result<Schedule, SchedError> {
        let oct = optimistic_cost_table(wf, platform)?;
        let m = platform.num_devices() as f64;
        let rank_oct: Vec<f64> = oct.iter().map(|row| row.iter().sum::<f64>() / m).collect();

        let mut ctx = SchedContext::new(wf, platform, true)?;
        let mut indegree: Vec<usize> = (0..wf.num_tasks())
            .map(|i| wf.predecessors(TaskId(i)).len())
            .collect();
        let mut ready: Vec<TaskId> = (0..wf.num_tasks())
            .filter(|&i| indegree[i] == 0)
            .map(TaskId)
            .collect();
        while !ready.is_empty() {
            let (idx, &task) = ready
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| {
                    rank_oct[a.0].total_cmp(&rank_oct[b.0]).then(b.0.cmp(&a.0))
                })
                .ok_or_else(|| SchedError::Internal("empty ready set".into()))?;
            ready.swap_remove(idx);

            // Minimize O_EFT = EFT + OCT, among feasible devices.
            let mut best: Option<(DeviceId, _, _, f64)> = None;
            for dev in ctx.feasible_devices(task).collect::<Vec<_>>() {
                let (start, finish) = ctx.eft(task, dev)?;
                let o_eft = finish.as_secs() + oct[task.0][dev.0];
                if best.is_none_or(|(_, _, _, b)| o_eft < b) {
                    best = Some((dev, start, finish, o_eft));
                }
            }
            let (dev, start, finish, _) = best.ok_or(SchedError::NoFeasibleDevice(task))?;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_platform::presets;
    use helios_workflow::generators::{ligo_inspiral, montage};

    #[test]
    fn oct_is_zero_for_exit_tasks() {
        let wf = montage(30, 1).unwrap();
        let p = presets::workstation();
        let oct = optimistic_cost_table(&wf, &p).unwrap();
        for exit in wf.exit_tasks() {
            assert!(oct[exit.0].iter().all(|&v| v == 0.0));
        }
        // Entries have positive remaining cost.
        for entry in wf.entry_tasks() {
            assert!(oct[entry.0].iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn oct_decreases_along_paths() {
        let wf = helios_workflow::generators::synthetic::chain(6, 50.0, 1e6, 1).unwrap();
        let p = presets::workstation();
        let oct = optimistic_cost_table(&wf, &p).unwrap();
        for i in 0..5 {
            assert!(oct[i][0] > oct[i + 1][0], "OCT must shrink toward the exit");
        }
    }

    #[test]
    fn valid_schedules() {
        let p = presets::hpc_node();
        for seed in 0..4 {
            let wf = ligo_inspiral(60, seed).unwrap();
            let s = PeftScheduler::default().schedule(&wf, &p).unwrap();
            s.validate(&wf, &p).unwrap();
        }
    }

    #[test]
    fn competitive_with_heft() {
        use crate::{HeftScheduler, Scheduler as _};
        let p = presets::hpc_node();
        let mut peft_total = 0.0;
        let mut heft_total = 0.0;
        for seed in 0..8 {
            let wf = montage(60, seed).unwrap();
            peft_total += PeftScheduler::default()
                .schedule(&wf, &p)
                .unwrap()
                .makespan()
                .as_secs();
            heft_total += HeftScheduler::default()
                .schedule(&wf, &p)
                .unwrap()
                .makespan()
                .as_secs();
        }
        assert!(
            peft_total < 1.5 * heft_total,
            "PEFT {peft_total} vs HEFT {heft_total}"
        );
    }
}
