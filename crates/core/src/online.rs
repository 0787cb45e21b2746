//! Online (just-in-time) workflow execution.
//!
//! Instead of following a static plan, the [`OnlineRunner`] assigns ready
//! tasks to devices at event time, using *observed* history — the remedy
//! the online-scheduling literature prescribes when task durations are
//! noisy and static plans go stale. A [`DvfsGovernor`] may be attached;
//! it picks the DVFS level per dispatch from the current load pressure.
//!
//! The runner is the online re-planning hook set over the execution
//! core ([`crate::exec`]): its `Hooks` implementation owns the
//! ready-set, the calibration model and the just-in-time dispatch rule,
//! while the step loop, occupancy math, transfer staging, residency
//! caching and report accounting are the core's single copy. The
//! [`EnsembleRunner`](crate::EnsembleRunner) drives the same hook set
//! over the union of its members' DAGs.

use helios_energy::DvfsGovernor;
use helios_platform::{DeviceId, DvfsLevel, Platform};
use helios_sched::{CostModel, Placement};
use helios_sim::trace::Trace;
use helios_sim::{EventQueue, SimRng, SimTime};
use helios_workflow::{TaskId, Workflow};

use crate::config::EngineConfig;
use crate::ensemble::EnsemblePolicy;
use crate::error::EngineError;
use crate::exec::{
    drive, fault_occupancy, finish_report, noise_factor, slowdown_factor, BudgetPoint,
    DeliveredCache, Hooks, LinkState,
};
use crate::report::{ExecutionReport, TransferStats};
use crate::resilience::ResilienceConfig;

/// Task-selection policy for the online dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnlinePolicy {
    /// Pick the globally best (ready task, idle device) pair by
    /// predicted completion time.
    #[default]
    Jit,
    /// Pick the highest upward-rank ready task first (HEFT priorities),
    /// then its best idle device.
    RankedJit,
}

impl OnlinePolicy {
    /// A short stable name for reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            OnlinePolicy::Jit => "online-jit",
            OnlinePolicy::RankedJit => "online-ranked",
        }
    }
}

/// Online executor: dispatches tasks just-in-time as devices free up.
pub struct OnlineRunner {
    config: EngineConfig,
    policy: OnlinePolicy,
    governor: Option<Box<dyn DvfsGovernor>>,
    estimates: Option<Workflow>,
}

impl std::fmt::Debug for OnlineRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineRunner")
            .field("config", &self.config)
            .field("policy", &self.policy)
            .field(
                "governor",
                &self.governor.as_ref().map(|g| g.name().to_owned()),
            )
            .finish()
    }
}

impl OnlineRunner {
    /// Creates a runner with the given configuration and policy.
    #[must_use]
    pub fn new(config: EngineConfig, policy: OnlinePolicy) -> OnlineRunner {
        OnlineRunner {
            config,
            policy,
            governor: None,
            estimates: None,
        }
    }

    /// Attaches the *planner's view* of the workflow: task costs the
    /// dispatcher believes, which may differ from the costs actually
    /// executed. Models stale or mis-calibrated performance estimates —
    /// the regime where online rescheduling earns its keep. The
    /// estimate workflow must be structurally identical to the executed
    /// one (same tasks and edges; only costs may differ).
    #[must_use]
    pub fn with_estimates(mut self, estimates: Workflow) -> OnlineRunner {
        self.estimates = Some(estimates);
        self
    }

    /// Attaches a DVFS governor consulted at every dispatch.
    #[must_use]
    pub fn with_governor(mut self, governor: Box<dyn DvfsGovernor>) -> OnlineRunner {
        self.governor = Some(governor);
        self
    }

    /// Executes `wf` on `platform` with just-in-time dispatching.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::RetriesExhausted`] under fault injection
    /// when a task exceeds its retry budget, or propagates model errors.
    pub fn run(&self, platform: &Platform, wf: &Workflow) -> Result<ExecutionReport, EngineError> {
        self.config.validate_for(platform)?;
        let n = wf.num_tasks();
        // The dispatcher's beliefs come from the estimate view when one
        // is attached; execution always uses the true costs in `wf`.
        let believed = self.estimates.as_ref().unwrap_or(wf);
        if believed.num_tasks() != n || believed.num_edges() != wf.num_edges() {
            return Err(EngineError::Config(
                "estimate workflow differs structurally from the executed one".into(),
            ));
        }
        // Feasibility comes from the executed workflow, ranks from the
        // believed one.
        let model = CostModel::new(wf, platform)?;
        let ranks = match self.policy {
            OnlinePolicy::RankedJit if std::ptr::eq(believed, wf) => {
                model.bottom_levels(wf)?.to_vec()
            }
            OnlinePolicy::RankedJit => CostModel::new(believed, platform)?
                .bottom_levels(believed)?
                .to_vec(),
            OnlinePolicy::Jit => vec![0.0; n],
        };
        let exec = self.execute(&model, wf, believed, Arbitration::single(ranks))?;
        finish_report(
            platform,
            wf,
            exec.realized,
            exec.trace,
            exec.stats,
            exec.failures,
            exec.retries,
        )
    }

    /// Runs the dispatcher over `wf`, whose cost model is `model`, to
    /// completion: the one hook set behind this runner and the
    /// [`EnsembleRunner`](crate::EnsembleRunner), which passes the union
    /// of its members as `wf` and their arbitration. Each distinct
    /// member arrival is one release event, so the entry tasks released
    /// at one instant are dispatched together, in policy order.
    pub(crate) fn execute<'a>(
        &'a self,
        model: &'a CostModel<'a>,
        wf: &'a Workflow,
        believed: &'a Workflow,
        arbitration: Arbitration,
    ) -> Result<OnlineExec<'a>, EngineError> {
        let (n, platform) = (wf.num_tasks(), model.platform());
        let base_rng = SimRng::seed_from(self.config.seed);
        let mut queue = EventQueue::new();
        let mut instants = arbitration.arrival.clone();
        instants.sort_unstable();
        instants.dedup();
        for at in instants {
            queue.push(at, Event::Release);
        }
        let mut exec = OnlineExec {
            config: &self.config,
            policy: self.policy,
            governor: self.governor.as_deref(),
            platform,
            model,
            wf,
            believed,
            faults: self.config.fault_view()?,
            // Task-intrinsic noise: each task's factor comes from its own
            // stream, so drawing all of them up front replays the exact
            // values the per-dispatch forks produced.
            noise: (0..n)
                .map(|t| noise_factor(self.config.noise_cv, &base_rng, t))
                .collect(),
            base_rng,
            arbitration,
            preds_left: (0..n).map(|i| wf.predecessors(TaskId(i)).len()).collect(),
            producer_device: vec![DeviceId(0); n],
            realized: vec![None; n],
            ready: Vec::new(),
            candidates: Vec::new(),
            device_idle: vec![true; platform.num_devices()],
            links: LinkState::new(platform),
            stats: TransferStats::default(),
            trace: self.config.tracing.then(Trace::new),
            delivered: DeliveredCache::new(self.config.data_caching, n, platform.num_devices()),
            failures: 0,
            retries: 0,
            completed: 0,
            queue,
            calibration: vec![1.0f64; platform.num_devices()],
            believed_dur: vec![0.0f64; n],
            work_dur: vec![0.0f64; n],
            device_free_pred: vec![SimTime::ZERO; platform.num_devices()],
        };
        drive(&mut exec)?;
        Ok(exec)
    }
}

/// What the ranked candidate order sorts by: a member key, then upward
/// rank (descending), then task id. An ensemble's tasks belong to
/// several members; a single workflow is one member, whose key is
/// constant.
pub(crate) struct Arbitration {
    pub(crate) policy: EnsemblePolicy,
    /// Upward rank of every task (zeros under [`OnlinePolicy::Jit`],
    /// which does not sort).
    pub(crate) ranks: Vec<f64>,
    /// The member each task belongs to.
    pub(crate) owner: Vec<usize>,
    /// Per member: submission instant.
    pub(crate) arrival: Vec<SimTime>,
    /// Per member: priority (larger wins).
    pub(crate) priority: Vec<f64>,
    /// Per member: total work in GFLOP, floored above zero.
    pub(crate) work: Vec<f64>,
    /// Per member: GFLOP of the tasks finished so far.
    pub(crate) done: Vec<f64>,
}

impl Arbitration {
    /// One workflow submitted at time zero.
    fn single(ranks: Vec<f64>) -> Arbitration {
        Arbitration {
            policy: EnsemblePolicy::Fifo,
            owner: vec![0; ranks.len()],
            ranks,
            arrival: vec![SimTime::ZERO],
            priority: vec![1.0],
            work: vec![1.0],
            done: vec![0.0],
        }
    }

    /// The member-level key of `task`'s member: smaller sorts first.
    fn key(&self, task: TaskId) -> f64 {
        let m = self.owner[task.0];
        match self.policy {
            EnsemblePolicy::Fifo => self.arrival[m].as_secs(),
            EnsemblePolicy::Priority => -self.priority[m],
            EnsemblePolicy::FairShare => self.done[m] / self.work[m],
        }
    }
}

/// Per-device calibration: an exponentially weighted running ratio of
/// observed to believed duration. This is how adaptive runtimes keep
/// their performance models honest — a throttled or misestimated device
/// is quickly predicted as slow and work routes around it.
const CALIBRATION_EWMA: f64 = 0.5;

/// Timeline events of the online hook set.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// Every member arriving now is submitted: its entry tasks become
    /// ready.
    Release,
    /// A task finished.
    Finish(TaskId),
}

/// The online re-planning hook set: a ready-set dispatched just-in-time
/// by predicted completion.
pub(crate) struct OnlineExec<'a> {
    config: &'a EngineConfig,
    policy: OnlinePolicy,
    governor: Option<&'a dyn DvfsGovernor>,
    platform: &'a Platform,
    /// The executed workflow's costs: feasibility and nominal levels.
    model: &'a CostModel<'a>,
    wf: &'a Workflow,
    believed: &'a Workflow,
    faults: Option<&'a ResilienceConfig>,
    base_rng: SimRng,
    noise: Vec<f64>,
    arbitration: Arbitration,
    preds_left: Vec<usize>,
    producer_device: Vec<DeviceId>,
    pub(crate) realized: Vec<Option<Placement>>,
    ready: Vec<TaskId>,
    /// Scratch for one dispatch round's policy-ordered candidates,
    /// reused across rounds to avoid per-round clone + allocation.
    candidates: Vec<TaskId>,
    device_idle: Vec<bool>,
    links: LinkState,
    pub(crate) stats: TransferStats,
    trace: Option<Trace>,
    delivered: DeliveredCache,
    failures: u32,
    retries: u32,
    completed: usize,
    queue: EventQueue<Event>,
    calibration: Vec<f64>,
    believed_dur: Vec<f64>,
    // Fault-free device time per task, for calibration: retry stalls
    // say nothing about how fast the device executes work.
    work_dur: Vec<f64>,
    // Predicted instant each device frees up (modeled, since a real
    // runtime cannot observe the noise ahead of time).
    device_free_pred: Vec<SimTime>,
}

impl OnlineExec<'_> {
    /// Predicted completion of `task` on `device`, using believed costs
    /// scaled by the device's learned calibration (the dispatcher
    /// cannot see the noise it is about to suffer).
    fn predict(
        &self,
        task: TaskId,
        device: DeviceId,
        now: SimTime,
        level: DvfsLevel,
    ) -> Result<f64, EngineError> {
        let mut data_at = now;
        for &e in self.wf.predecessors(task) {
            let edge = self.wf.edge(e);
            let t =
                self.model
                    .transfer_time(edge.bytes, self.producer_device[edge.src.0], device)?;
            data_at = data_at.max(now + t);
        }
        let exec = self
            .platform
            .device(device)?
            .execution_time(self.believed.task(task)?.cost(), level)?;
        Ok((data_at + exec * self.calibration[device.0]).as_secs())
    }

    /// Keeps committing (ready task, idle device) pairs until no task's
    /// *best* device is idle. A task whose best device is busy waits —
    /// forcing it onto a slow idle device (OLB behaviour) is the failure
    /// mode this dispatcher exists to avoid.
    fn dispatch(&mut self, now: SimTime) -> Result<(), EngineError> {
        let (platform, model, wf) = (self.platform, self.model, self.wf);
        loop {
            let idle_count = self.device_idle.iter().filter(|&&i| i).count();
            if idle_count == 0 || self.ready.is_empty() {
                break;
            }
            let pressure = self.ready.len() as f64 / idle_count as f64;

            // Candidate tasks per policy, staged in the reusable scratch
            // (taken out of `self` for the duration of the round so the
            // commit path below can borrow `self` mutably).
            let mut tasks = std::mem::take(&mut self.candidates);
            tasks.clear();
            tasks.extend_from_slice(&self.ready);
            if self.policy == OnlinePolicy::RankedJit {
                let arb = &self.arbitration;
                tasks.sort_by(|a, b| {
                    arb.key(*a)
                        .total_cmp(&arb.key(*b))
                        .then(arb.ranks[b.0].total_cmp(&arb.ranks[a.0]))
                        .then(a.0.cmp(&b.0))
                });
            }
            let mut committed = false;
            for &task in &tasks {
                // Best device over ALL devices, busy ones at their
                // predicted free time.
                let mut best: Option<(DeviceId, DvfsLevel, f64)> = None;
                for &dev in model.feasible_devices(task) {
                    let level = match self.governor {
                        Some(g) => g.select_level(platform.device(dev)?, pressure),
                        None => model.nominal_level(dev),
                    };
                    let est = now.max(self.device_free_pred[dev.0]);
                    let score = self.predict(task, dev, est, level)?;
                    if best.is_none_or(|(_, _, b)| score < b) {
                        best = Some((dev, level, score));
                    }
                }
                let (dev, level, _score) = best.ok_or(EngineError::Sched(
                    helios_sched::SchedError::NoFeasibleDevice(task),
                ))?;
                if !self.device_idle[dev.0] {
                    // Best device busy: wait for it (this task will be
                    // reconsidered at the next event).
                    continue;
                }
                self.ready.retain(|&t| t != task);
                self.device_idle[dev.0] = false;

                // Pull inputs now; execution starts when the last
                // arrives.
                let mut start = now;
                for &e in wf.predecessors(task) {
                    let edge = wf.edge(e);
                    if let Some(at) = self.delivered.lookup(edge.src, dev) {
                        start = start.max(at);
                        continue;
                    }
                    let arrival = self.links.transfer_arrival(
                        platform,
                        self.config.link_contention,
                        edge.bytes,
                        self.producer_device[edge.src.0],
                        dev,
                        now,
                        &mut self.stats,
                        self.trace.as_mut().map(|t| (t, edge.src, edge.dst)),
                    )?;
                    self.delivered.record(edge.src, dev, arrival);
                    start = start.max(arrival);
                }
                let device = platform.device(dev)?;
                let believed_exec =
                    device.execution_time(self.believed.task(task)?.cost(), level)?;
                let modeled = device.execution_time(wf.task(task)?.cost(), level)?;
                let slow = slowdown_factor(self.config.device_slowdown.as_ref(), dev.0);
                let noise = self.noise[task.0];
                let occ =
                    fault_occupancy(self.faults, &self.base_rng, modeled * noise * slow, task)?;
                self.failures += occ.failures;
                self.retries += occ.retries;
                let finish = start + occ.total;
                self.device_free_pred[dev.0] = start + believed_exec * self.calibration[dev.0];
                self.believed_dur[task.0] = believed_exec.as_secs();
                self.work_dur[task.0] = occ.work.as_secs();
                self.realized[task.0] = Some(Placement {
                    task,
                    device: dev,
                    level,
                    start,
                    finish,
                });
                self.producer_device[task.0] = dev;
                self.queue.push(finish, Event::Finish(task));
                // A commitment changed the state: restart the round so
                // remaining tasks see the new free times.
                committed = true;
                break;
            }
            self.candidates = tasks;
            if !committed {
                // No task could commit this round.
                break;
            }
        }
        Ok(())
    }
}

impl Hooks for OnlineExec<'_> {
    type Event = Event;

    fn budget(&self) -> Option<u64> {
        // The online loop pops one release per arrival instant and one
        // finish per dispatched task, so it cannot grind: no watchdog.
        None
    }

    fn budget_point(&self) -> BudgetPoint {
        BudgetPoint::AfterPop
    }

    fn completed(&self) -> usize {
        self.completed
    }

    fn total(&self) -> usize {
        self.wf.num_tasks()
    }

    fn exit_on_complete(&self) -> bool {
        false
    }

    fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.queue.pop()
    }

    fn handle(&mut self, now: SimTime, event: Event) -> Result<(), EngineError> {
        let task = match event {
            Event::Release => {
                let arb = &self.arbitration;
                let arrived = |t: &TaskId| arb.arrival[arb.owner[t.0]] == now;
                self.ready
                    .extend(self.wf.entry_tasks().into_iter().filter(arrived));
                return self.dispatch(now);
            }
            Event::Finish(task) => task,
        };
        self.completed += 1;
        let m = self.arbitration.owner[task.0];
        self.arbitration.done[m] += self.wf.task(task)?.cost().gflop();
        let placement = self.realized[task.0].expect("placed before finishing");
        let dev = placement.device;
        self.device_idle[dev.0] = true;
        // Learn from the observation (fault-free portion only, so retry
        // stalls don't poison the model of device speed).
        if self.believed_dur[task.0] > 0.0 && self.work_dur[task.0] > 0.0 {
            let ratio = self.work_dur[task.0] / self.believed_dur[task.0];
            self.calibration[dev.0] =
                (1.0 - CALIBRATION_EWMA) * self.calibration[dev.0] + CALIBRATION_EWMA * ratio;
        }
        let wf = self.wf;
        for succ in wf.successor_tasks(task) {
            self.preds_left[succ.0] -= 1;
            if self.preds_left[succ.0] == 0 {
                self.ready.push(succ);
            }
        }
        self.dispatch(now)
    }
}

#[cfg(test)]
#[path = "online_tests.rs"]
mod tests;
