//! Immediate-mode heuristics and baselines: MCT, MET, OLB, round-robin
//! and random assignment. All traverse tasks in topological order and
//! commit each without reconsidering earlier decisions.

use helios_platform::DeviceId;
use helios_sim::{SimRng, SimTime};
use helios_workflow::{TaskId, Workflow};

use crate::context::SchedContext;
use crate::cost::CostModel;
use crate::error::SchedError;
use crate::schedule::Schedule;
use crate::Scheduler;

/// Places every task of `wf` in topological order where `pick` says.
fn place_topo(
    wf: &Workflow,
    model: &CostModel<'_>,
    pick: impl FnMut(&mut SchedContext<'_>, TaskId) -> Result<(DeviceId, SimTime, SimTime), SchedError>,
) -> Result<Schedule, SchedError> {
    let mut ctx = SchedContext::new(wf, model, true);
    ctx.place_each(wf.topo_order(), pick)?;
    ctx.into_schedule()
}

/// MCT — minimum completion time: each task (topological order) goes to
/// the device finishing it earliest. HEFT without the rank ordering.
#[derive(Debug, Clone, Default)]
pub struct MctScheduler {
    _private: (),
}

impl Scheduler for MctScheduler {
    fn name(&self) -> &str {
        "mct"
    }

    fn schedule_with(&self, wf: &Workflow, model: &CostModel<'_>) -> Result<Schedule, SchedError> {
        place_topo(wf, model, |ctx, task| ctx.best_eft(task))
    }
}

/// MET — minimum execution time: each task goes to the device that runs
/// it fastest, ignoring queue state. Overloads the strongest device.
#[derive(Debug, Clone, Default)]
pub struct MetScheduler {
    _private: (),
}

impl Scheduler for MetScheduler {
    fn name(&self) -> &str {
        "met"
    }

    fn schedule_with(&self, wf: &Workflow, model: &CostModel<'_>) -> Result<Schedule, SchedError> {
        place_topo(wf, model, |ctx, task| {
            let dev = *model
                .feasible_devices(task)
                .iter()
                .min_by_key(|&&d| model.exec_time(task, d))
                .ok_or(SchedError::NoFeasibleDevice(task))?;
            ctx.eft(task, dev)
                .map(|(start, finish)| (dev, start, finish))
        })
    }
}

/// OLB — opportunistic load balancing: each task goes to the device that
/// becomes *available* earliest, regardless of how slowly it will run the
/// task.
#[derive(Debug, Clone, Default)]
pub struct OlbScheduler {
    _private: (),
}

impl Scheduler for OlbScheduler {
    fn name(&self) -> &str {
        "olb"
    }

    fn schedule_with(&self, wf: &Workflow, model: &CostModel<'_>) -> Result<Schedule, SchedError> {
        // Earliest start (not finish) wins, among feasible devices.
        place_topo(wf, model, |ctx, task| ctx.best_by(task, |p| p.2))
    }
}

/// Round-robin baseline: devices are assigned cyclically in topological
/// order.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinScheduler {
    _private: (),
}

impl Scheduler for RoundRobinScheduler {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn schedule_with(&self, wf: &Workflow, model: &CostModel<'_>) -> Result<Schedule, SchedError> {
        let n = model.platform().num_devices();
        let mut i = 0;
        place_topo(wf, model, |ctx, task| {
            // Next feasible device in the cycle from the task's position.
            let dev = (0..n)
                .map(|off| DeviceId((i + off) % n))
                .find(|&d| model.feasible(task, d))
                .ok_or(SchedError::NoFeasibleDevice(task))?;
            i += 1;
            ctx.eft(task, dev)
                .map(|(start, finish)| (dev, start, finish))
        })
    }
}

/// Random baseline: each task goes to a uniformly random device. Each
/// `schedule` call draws from a fresh RNG seeded with the base seed, so
/// repeated calls on the same scheduler are reproducible.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    seed: u64,
}

impl RandomScheduler {
    /// Creates a random scheduler with the given base seed.
    #[must_use]
    pub fn new(seed: u64) -> RandomScheduler {
        RandomScheduler { seed }
    }
}

impl Scheduler for RandomScheduler {
    fn name(&self) -> &str {
        "random"
    }

    fn schedule_with(&self, wf: &Workflow, model: &CostModel<'_>) -> Result<Schedule, SchedError> {
        let mut rng = SimRng::seed_from(self.seed);
        place_topo(wf, model, |ctx, task| {
            let dev = *rng
                .choose(model.feasible_devices(task))
                .ok_or(SchedError::NoFeasibleDevice(task))?;
            ctx.eft(task, dev)
                .map(|(start, finish)| (dev, start, finish))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_platform::presets;
    use helios_workflow::generators::montage;

    #[test]
    fn all_immediate_schedulers_valid() {
        let p = presets::hpc_node();
        let wf = montage(50, 1).unwrap();
        let schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(MctScheduler::default()),
            Box::new(MetScheduler::default()),
            Box::new(OlbScheduler::default()),
            Box::new(RoundRobinScheduler::default()),
            Box::new(RandomScheduler::new(1)),
        ];
        for s in schedulers {
            let sched = s.schedule(&wf, &p).unwrap();
            sched
                .validate(&wf, &p)
                .unwrap_or_else(|e| panic!("{}: {e}", s.name()));
        }
    }

    #[test]
    fn met_concentrates_on_fast_devices() {
        let p = presets::hpc_node();
        let wf = montage(50, 1).unwrap();
        let s = MetScheduler::default().schedule(&wf, &p).unwrap();
        let devices: std::collections::BTreeSet<_> =
            s.placements().iter().map(|pl| pl.device).collect();
        // MET never uses slow devices for tasks a fast one runs quicker:
        // far fewer devices than round-robin.
        let rr = RoundRobinScheduler::default().schedule(&wf, &p).unwrap();
        let rr_devices: std::collections::BTreeSet<_> =
            rr.placements().iter().map(|pl| pl.device).collect();
        assert!(devices.len() <= rr_devices.len());
        assert_eq!(rr_devices.len(), p.num_devices());
    }

    #[test]
    fn random_is_reproducible_per_seed() {
        let p = presets::hpc_node();
        let wf = montage(40, 1).unwrap();
        let a = RandomScheduler::new(9).schedule(&wf, &p).unwrap();
        let b = RandomScheduler::new(9).schedule(&wf, &p).unwrap();
        assert_eq!(a, b);
        let c = RandomScheduler::new(10).schedule(&wf, &p).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn mct_beats_olb_usually() {
        let p = presets::hpc_node();
        let mut mct_total = 0.0;
        let mut olb_total = 0.0;
        for seed in 0..8 {
            let wf = montage(60, seed).unwrap();
            mct_total += MctScheduler::default()
                .schedule(&wf, &p)
                .unwrap()
                .makespan()
                .as_secs();
            olb_total += OlbScheduler::default()
                .schedule(&wf, &p)
                .unwrap()
                .makespan()
                .as_secs();
        }
        assert!(mct_total < olb_total, "MCT {mct_total} vs OLB {olb_total}");
    }
}
