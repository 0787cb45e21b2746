//! PEFT — Predict Earliest Finish Time (Arabnejad & Barbosa, 2014).
//!
//! Tasks go through the list planners' ready-list driver
//! ([`SchedContext::place_by_priority`]) by mean optimistic cost, each to
//! the first device of the placement probe ([`SchedContext::probe`])
//! minimizing EFT + OCT.

use helios_platform::DeviceId;
use helios_workflow::Workflow;

use crate::context::SchedContext;
use crate::cost::CostModel;
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
    model: &CostModel<'_>,
) -> Result<Vec<Vec<f64>>, SchedError> {
    let m = model.platform().num_devices();
    let comm = model.mean_comm_times(wf)?;
    let mut oct = vec![vec![0.0f64; m]; wf.num_tasks()];
    for &t in wf.topo_order().iter().rev() {
        for d in 0..m {
            let mut worst_child = 0.0f64;
            for &e in wf.successors(t) {
                let child = wf.edge(e).dst;
                let mut best_w = f64::INFINITY;
                for (w, &rest) in oct[child.0].iter().enumerate() {
                    let comm_cost = if w == d { 0.0 } else { comm[e.0] };
                    let exec = model.exec_time(child, DeviceId(w)).as_secs();
                    best_w = best_w.min(rest + exec + comm_cost);
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

    fn schedule_with(&self, wf: &Workflow, model: &CostModel<'_>) -> Result<Schedule, SchedError> {
        let oct = optimistic_cost_table(wf, model)?;
        let m = model.platform().num_devices() as f64;
        let rank_oct: Vec<f64> = oct.iter().map(|row| row.iter().sum::<f64>() / m).collect();

        let mut ctx = SchedContext::new(wf, model, true);
        // Minimize O_EFT = EFT + OCT, among feasible devices.
        ctx.place_by_priority(&rank_oct, |ctx, task| {
            ctx.best_by(task, |&(dev, _, _, finish)| {
                finish.as_secs() + oct[task.0][dev.0]
            })
        })?;
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
        let oct = optimistic_cost_table(&wf, &CostModel::new(&wf, &p).unwrap()).unwrap();
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
        let oct = optimistic_cost_table(&wf, &CostModel::new(&wf, &p).unwrap()).unwrap();
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
