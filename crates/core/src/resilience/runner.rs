//! The resilient plan executor: a discrete-event loop that executes a
//! static plan while devices fail (transiently, by degradation, or
//! permanently) and a [`RecoveryPolicy`] repairs the damage.
//!
//! This file holds the hook set over the execution core
//! ([`crate::exec`]): the replica/device/domain state, the dispatcher,
//! and the [`Hooks`](crate::exec) implementation that plugs them into
//! the shared step loop. The fault-injection handlers live in
//! [`faults`], the recovery machinery (device loss, lineage
//! re-materialization, reassignment, replanning) in [`recovery`], the
//! work/transfer modeling in [`staging`], and the elastic-capacity
//! handlers (join/drain/preempt/leave, spot churn) in [`elastic`]; all
//! are `impl` extensions of [`Sim`].
//!
//! # Determinism
//!
//! Every stochastic input comes from a dedicated forked stream of the
//! seed RNG: task `t` draws its noise multiplier from stream
//! `NOISE_STREAM_BASE + t`, device `d` draws its failure trace from
//! stream `FAILURE_TRACE_STREAM_BASE + d`, link `l` draws its fault
//! trace from stream `LINK_FAULT_STREAM_BASE + l`, and failure domain
//! `i` draws its correlated-event trace from stream
//! `DOMAIN_STREAM_BASE + i`, and device `d`'s elastic churn renewal
//! draws from `ELASTIC_STREAM_BASE + d` (timed elasticity events
//! consume no randomness at all). Nothing is sampled inside the event
//! loop in event order, so identical seeds give byte-identical reports
//! regardless of how the surrounding campaign is threaded or sharded.
//!
//! # Monotonicity
//!
//! A task's noise multiplier is drawn once and *replayed* on every
//! retry (the noise models input-dependent work, which re-running does
//! not change). Retries therefore repeat at least the lost work plus
//! overheads, so a fault-injected run can never finish earlier than the
//! fault-free run of the same configuration and seed — a property the
//! test battery pins down.

use helios_energy::account;
use helios_platform::{Availability, DeviceId, DvfsLevel, LinkAvailability, LinkId, Platform};
use helios_sched::{scheduler_by_name, CostModel, Placement, Schedule, Scheduler};
use helios_sim::failure::{FailureKind, FailureProcess, LinkFailureKind, LinkFailureProcess};
use helios_sim::{EventQueue, SimDuration, SimRng, SimTime};
use helios_workflow::{TaskId, Workflow};

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::exec::{
    choose_route, drive, noise_factor, slowdown_factor, BudgetPoint, DeliveredCache, ElidedPops,
    Hooks, LinkState, RouteChoice, DOMAIN_STREAM_BASE, FAILURE_TRACE_STREAM_BASE,
    LINK_FAULT_STREAM_BASE,
};
use crate::report::{ExecutionReport, TransferStats};
use crate::resilience::{RecoveryPolicy, ResilienceConfig, ResilienceMetrics};

#[path = "elastic.rs"]
mod elastic;
#[path = "faults.rs"]
mod faults;
#[path = "recovery.rs"]
mod recovery;
#[path = "staging.rs"]
mod staging;

/// Whether the hot-path shortcuts (doomed-`Finish` elision, flagged
/// dispatch, in-place restarts and faults) are off; only test builds
/// can switch them off.
#[cfg(not(test))]
const fn reference_mode() -> bool {
    false
}
#[cfg(test)]
use tests::reference_mode;

/// Executes static plans under a failure model and a recovery policy,
/// attaching [`ResilienceMetrics`] to the report.
///
/// The runner executes the configuration twice: once with failure
/// injection, once without (the *fault-free baseline*, same policy,
/// same seed, same plan), so the metrics isolate what the failures
/// themselves cost.
///
/// # Examples
///
/// ```
/// use helios_core::{EngineConfig, FailureModel, RecoveryPolicy, ResilienceConfig,
///                   ResilientRunner};
/// use helios_platform::presets;
/// use helios_sched::HeftScheduler;
/// use helios_workflow::generators::montage;
///
/// let platform = presets::hpc_node();
/// let wf = montage(40, 1).unwrap();
/// let config = EngineConfig {
///     seed: 7,
///     resilience: Some(ResilienceConfig::new(
///         FailureModel::exponential(0.5),
///         RecoveryPolicy::RetryBackoff {
///             base_secs: 0.01,
///             factor: 2.0,
///             cap_secs: 0.1,
///             max_retries: 100,
///         },
///     )),
///     ..Default::default()
/// };
/// let report = ResilientRunner::new(config)
///     .run(&platform, &wf, &HeftScheduler::default())
///     .unwrap();
/// let m = report.resilience().unwrap();
/// assert!(m.makespan_degradation >= 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ResilientRunner {
    config: EngineConfig,
}

impl ResilientRunner {
    /// Creates a runner; `config.resilience` must be set before
    /// [`ResilientRunner::run`].
    #[must_use]
    pub fn new(config: EngineConfig) -> ResilientRunner {
        ResilientRunner { config }
    }

    /// The runner's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Plans with `scheduler`, then executes the plan under failures.
    ///
    /// # Errors
    ///
    /// Propagates planning and execution errors.
    pub fn run(
        &self,
        platform: &Platform,
        wf: &Workflow,
        scheduler: &dyn Scheduler,
    ) -> Result<ExecutionReport, EngineError> {
        let model = CostModel::new(wf, platform)?;
        let plan = scheduler.schedule_with(wf, &model)?;
        self.execute_plan_with(&model, wf, &plan)
    }

    /// Executes a precomputed plan under the configured failure model
    /// and recovery policy.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] when `resilience` is unset or
    /// invalid (tracing is also unsupported here),
    /// [`EngineError::RetriesExhausted`] when a task runs out of both
    /// retries and live replicas, and [`EngineError::AllDevicesLost`]
    /// when permanent failures leave no feasible device.
    pub fn execute_plan(
        &self,
        platform: &Platform,
        wf: &Workflow,
        plan: &Schedule,
    ) -> Result<ExecutionReport, EngineError> {
        self.execute_plan_with(&CostModel::new(wf, platform)?, wf, plan)
    }

    /// [`ResilientRunner::execute_plan`] on `model`'s platform, with
    /// `model`, the cost model of `wf`, shared by both passes.
    pub(crate) fn execute_plan_with(
        &self,
        model: &CostModel<'_>,
        wf: &Workflow,
        plan: &Schedule,
    ) -> Result<ExecutionReport, EngineError> {
        let platform = model.platform();
        self.config.validate_for(platform)?;
        let res = self.config.resilience.as_ref().ok_or_else(|| {
            EngineError::Config("ResilientRunner requires EngineConfig::resilience".into())
        })?;
        if self.config.tracing {
            return Err(EngineError::Config(
                "tracing is not supported by the ResilientRunner".into(),
            ));
        }

        let faulty = Sim::execute(&self.config, res, model, wf, plan, true)?;
        let baseline = Sim::execute(&self.config, res, model, wf, plan, false)?;

        let mk = faulty.schedule.makespan().as_secs();
        let base_mk = baseline.schedule.makespan().as_secs();
        let c = &faulty.counters;
        let metrics = ResilienceMetrics {
            policy: res.policy.name().to_owned(),
            fault_free_makespan_secs: base_mk,
            makespan_degradation: if base_mk > 0.0 {
                mk / base_mk - 1.0
            } else {
                0.0
            },
            wasted_work_secs: c.wasted,
            recovery_overhead_secs: c.recovery,
            transient_failures: c.transient,
            degraded_failures: c.degraded,
            permanent_failures: c.permanent,
            retries: c.retries,
            replicas_launched: c.launched,
            replicas_cancelled: c.cancelled,
            reschedules: c.reschedules,
            link_faults: c.link_faults,
            reroutes: c.reroutes,
            partition_downtime_secs: c.partition_downtime,
            rematerialized_tasks: c.remat_tasks,
            rematerialized_bytes: c.remat_bytes,
            domain_events: c.domain_events,
        };
        // Energy is accounted on the winning placements only; the device
        // time burnt by cancelled replicas shows up in wasted_work_secs,
        // not in joules (a documented approximation).
        let energy = account(&faulty.schedule, wf, platform, false)?;
        let failures = c.transient + c.degraded + c.permanent;
        let elasticity = faulty.elastic.as_ref().map(|e| e.metrics(&faulty.schedule));
        let mut report = ExecutionReport::new(
            faulty.schedule,
            energy,
            faulty.stats,
            failures,
            c.retries,
            None,
        )
        .with_resilience(metrics);
        if let Some(m) = elasticity {
            report = report.with_elasticity(m);
        }
        Ok(report)
    }
}

/// Lifecycle of one replica (one task copy bound to one device).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RState {
    /// Waiting in its device queue.
    Queued,
    /// Attempt in flight (device held).
    Running,
    /// Aborted; waiting out restart overhead + backoff (device held).
    WaitingRestart,
    /// Finished first among its siblings.
    Done,
    /// A sibling finished first, or the task completed elsewhere.
    Cancelled,
    /// Retry budget exhausted.
    Failed,
    /// Its device failed permanently.
    Lost,
}

/// Progress bookkeeping for the replica's current attempt. Progress is
/// measured in *effective* seconds (device at full speed); degradation
/// stretches wall-clock without adding effective progress.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    /// High-water mark of progress accounting; starts at the attempt's
    /// execution start.
    last_update: SimTime,
    done_eff: SimDuration,
    total_eff: SimDuration,
    slowdown: f64,
}

impl Default for Attempt {
    fn default() -> Attempt {
        Attempt {
            last_update: SimTime::ZERO,
            done_eff: SimDuration::ZERO,
            total_eff: SimDuration::ZERO,
            slowdown: 1.0,
        }
    }
}

#[derive(Debug, Clone)]
struct Replica {
    task: TaskId,
    device: DeviceId,
    level: DvfsLevel,
    /// Queue ordering key: (plan start, task id, replica ordinal).
    /// Plan starts respect precedence, so per-device queues sorted by
    /// this key can never deadlock across devices.
    sort_key: (SimTime, usize, usize),
    state: RState,
    /// Stale-event guard: bumped on every state transition, checked by
    /// Finish/Resume handlers.
    gen: u32,
    retries: u32,
    launched: bool,
    /// When the device first picked this replica up (realized start).
    occupied_from: SimTime,
    /// Base work left, effective seconds (excludes checkpoint writes).
    remaining_work: SimDuration,
    /// Earliest instant an attempt may begin (restart/replan overhead).
    floor: SimTime,
    attempt: Attempt,
}

#[derive(Debug)]
struct Dev {
    /// Replica indices in `sort_key` order; `queue[pos]` is the entry
    /// being run (when `running` is set) or considered next.
    queue: Vec<usize>,
    pos: usize,
    running: Option<usize>,
    /// Stale-repair guard: a newer degradation supersedes older repairs.
    repair_seq: u32,
    rng: SimRng,
    /// Failure mode pre-drawn for the next Fault event on this device.
    pending_kind: Option<FailureKind>,
    /// Instant of that pending Fault; `None` once it is taken.
    next_fault_at: Option<SimTime>,
}

/// Per-link fault-injection state. Allocated for every link so domain
/// outages can share the repair-sequence guard; the RNG stream is only
/// drawn from when a [`LinkFaultModel`](crate::LinkFaultModel) is
/// configured.
#[derive(Debug)]
struct LinkRt {
    rng: SimRng,
    /// Fault mode pre-drawn for the next LinkFault event on this link.
    pending: Option<LinkFailureKind>,
    /// Stale-repair guard: a newer outage/degradation supersedes older
    /// repairs (domain outages bump it too).
    repair_seq: u32,
}

/// Runtime state of one correlated failure domain: resolved member ids
/// plus its own RNG stream and event process.
#[derive(Debug)]
struct DomainRt {
    device_ids: Vec<usize>,
    link_ids: Vec<LinkId>,
    rng: SimRng,
    pending: Option<FailureKind>,
    process: FailureProcess,
    /// Member-link downtime under non-permanent events.
    outage: SimDuration,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Finish { replica: usize, gen: u32 },
    Resume { replica: usize, gen: u32 },
    Fault { device: usize },
    Repair { device: usize, seq: u32 },
    LinkFault { link: usize },
    LinkRepair { link: usize, seq: u32 },
    DomainFault { domain: usize },
    ElasticTimed { event: usize },
    ElasticChurn { device: usize, seq: u32 },
    ElasticDeadline { device: usize, seq: u32 },
}

#[derive(Debug, Default)]
struct Counters {
    transient: u32,
    degraded: u32,
    permanent: u32,
    retries: u32,
    launched: u32,
    cancelled: u32,
    reschedules: u32,
    link_faults: u32,
    reroutes: u32,
    remat_tasks: u32,
    domain_events: u32,
    /// Output bytes destroyed with their devices and re-produced.
    remat_bytes: f64,
    /// Seconds transfers stalled waiting for downed links to heal.
    partition_downtime: f64,
    /// Effective device-seconds that contributed nothing.
    wasted: f64,
    /// Restart overheads + backoff delays + replan overheads, seconds.
    recovery: f64,
}

struct Outcome {
    schedule: Schedule,
    stats: TransferStats,
    counters: Counters,
    elastic: Option<elastic::ElasticOutcome>,
}

struct Sim<'a> {
    cfg: &'a EngineConfig,
    res: &'a ResilienceConfig,
    platform: &'a Platform,
    /// The cost model of `wf`: feasibility and nominal costs.
    model: &'a CostModel<'a>,
    wf: &'a Workflow,
    noise: Vec<f64>,
    replicas: Vec<Replica>,
    task_replicas: Vec<Vec<usize>>,
    devs: Vec<Dev>,
    avail: Availability,
    /// Unfinished incoming edges per task.
    preds_left: Vec<usize>,
    finished_at: Vec<Option<SimTime>>,
    winner_dev: Vec<Option<DeviceId>>,
    realized: Vec<Option<Placement>>,
    /// Original plan start per task, reused to key reassigned replicas.
    plan_key: Vec<SimTime>,
    completed: usize,
    counters: Counters,
    links: LinkState,
    stats: TransferStats,
    /// Data-product residency per destination device, when caching.
    delivered: DeliveredCache,
    queue: EventQueue<Ev>,
    process: FailureProcess,
    /// Link health, consulted when a transfer is staged. Running
    /// transfers are not re-projected by later link faults (a documented
    /// approximation; device faults dominate attempt lifetimes).
    links_avail: LinkAvailability,
    link_rt: Vec<LinkRt>,
    link_proc: Option<LinkFailureProcess>,
    domains_rt: Vec<DomainRt>,
    /// Whether link health can change: route-aware staging is used by
    /// both the faulty run and the baseline iff this is set, so the two
    /// runs are numerically comparable.
    link_health_active: bool,
    /// Set by every change that can let a queued replica start: a
    /// device released, a task finished, a replica queued or re-queued,
    /// a device's liveness or membership changed. `after_event` runs
    /// the dispatcher only when it is set, and the dispatcher re-scans
    /// while a pass sets it again.
    dispatch_dirty: bool,
    /// Keys of elided `Finish` events and of events handled in place,
    /// kept only under a step budget.
    elided: ElidedPops,
    /// Steps the budget allows after the event being handled.
    steps_left: u64,
    /// Elastic-capacity runtime, when the config has an elasticity
    /// block (both passes: capacity is reality, not fault injection).
    elastic: Option<elastic::ElasticRt>,
}

impl<'a> Sim<'a> {
    fn execute(
        cfg: &'a EngineConfig,
        res: &'a ResilienceConfig,
        model: &'a CostModel<'a>,
        wf: &'a Workflow,
        plan: &Schedule,
        inject: bool,
    ) -> Result<Outcome, EngineError> {
        let (n, platform) = (wf.num_tasks(), model.platform());
        let nd = platform.num_devices();
        let nl = platform.interconnect().links().len();
        let base_rng = SimRng::seed_from(cfg.seed);

        // Resolve failure-domain members against this platform up front,
        // so a bad name fails the cell with an actionable error instead
        // of silently injecting nothing.
        let mut domains_rt: Vec<DomainRt> = Vec::with_capacity(res.domains.len());
        for (i, dom) in res.domains.iter().enumerate() {
            let (device_ids, link_ids) = dom.members(platform)?;
            domains_rt.push(DomainRt {
                device_ids,
                link_ids,
                rng: base_rng.fork(DOMAIN_STREAM_BASE + i as u64),
                pending: None,
                process: dom.process(i)?,
                outage: SimDuration::from_secs(dom.outage_secs),
            });
        }

        let link_health_active =
            res.link_faults.is_some() || res.domains.iter().any(|d| !d.links.is_empty());
        let link_proc = res.link_faults.as_ref().map(|m| m.process()).transpose()?;

        // Task-intrinsic noise: drawn once per task from its own stream
        // and replayed on every retry and replica.
        let noise: Vec<f64> = (0..n)
            .map(|t| noise_factor(cfg.noise_cv, &base_rng, t))
            .collect();

        let mut plan_dev = vec![DeviceId(0); n];
        let mut plan_level = vec![DvfsLevel(0); n];
        let mut plan_key = vec![SimTime::ZERO; n];
        for p in plan.placements() {
            plan_dev[p.task.0] = p.device;
            plan_level[p.task.0] = p.level;
            plan_key[p.task.0] = p.start;
        }

        let mut sim = Sim {
            cfg,
            res,
            platform,
            model,
            wf,
            noise,
            replicas: Vec::new(),
            task_replicas: vec![Vec::new(); n],
            devs: Vec::new(),
            avail: Availability::new(nd),
            preds_left: (0..n).map(|t| wf.predecessors(TaskId(t)).len()).collect(),
            finished_at: vec![None; n],
            winner_dev: vec![None; n],
            realized: vec![None; n],
            plan_key,
            completed: 0,
            counters: Counters::default(),
            links: LinkState::new(platform),
            stats: TransferStats::default(),
            delivered: DeliveredCache::new(cfg.data_caching, n, nd),
            queue: EventQueue::new(),
            process: res.failures.process()?,
            links_avail: LinkAvailability::new(nl),
            link_rt: (0..nl)
                .map(|l| LinkRt {
                    rng: base_rng.fork(LINK_FAULT_STREAM_BASE + l as u64),
                    pending: None,
                    repair_seq: 0,
                })
                .collect(),
            link_proc,
            domains_rt,
            link_health_active,
            dispatch_dirty: false,
            elided: ElidedPops::default(),
            steps_left: 0,
            elastic: None,
        };
        sim.init_elastic(&base_rng)?;

        // Build replicas: the planned placement, plus k-1 copies on the
        // fastest other feasible devices under ReplicateK.
        let k = match res.policy {
            RecoveryPolicy::ReplicateK { replicas, .. } => replicas,
            _ => 1,
        };
        for t in 0..n {
            let task = TaskId(t);
            let primary = plan_dev[t];
            let key = (sim.plan_key[t], t, 0);
            sim.queue_replica(task, primary, plan_level[t], key, SimTime::ZERO)?;
            if k > 1 {
                // Fastest feasible alternates first; ties break on id.
                let mut cands: Vec<(SimDuration, DeviceId)> = model
                    .feasible_devices(task)
                    .iter()
                    .filter(|&&d| d != primary && sim.device_live(d.0))
                    .map(|&d| (model.exec_time(task, d), d))
                    .collect();
                cands.sort_unstable();
                for (ordinal, &(_, device)) in cands.iter().take(k - 1).enumerate() {
                    let key = (sim.plan_key[t], t, ordinal + 1);
                    let level = model.nominal_level(device);
                    sim.queue_replica(task, device, level, key, SimTime::ZERO)?;
                }
            }
        }

        for d in 0..nd {
            let mut queue: Vec<usize> = (0..sim.replicas.len())
                .filter(|&ri| sim.replicas[ri].device.0 == d)
                .collect();
            queue.sort_by_key(|&ri| sim.replicas[ri].sort_key);
            sim.devs.push(Dev {
                queue,
                pos: 0,
                running: None,
                repair_seq: 0,
                rng: base_rng.fork(FAILURE_TRACE_STREAM_BASE + d as u64),
                pending_kind: None,
                next_fault_at: None,
            });
        }

        if inject {
            for d in 0..nd {
                sim.schedule_next_fault(d, SimTime::ZERO);
            }
            if sim.link_proc.is_some() {
                for l in 0..nl {
                    sim.schedule_next_link_fault(l, SimTime::ZERO);
                }
            }
            for i in 0..sim.domains_rt.len() {
                sim.schedule_next_domain_fault(i, SimTime::ZERO);
            }
        }

        sim.dispatch_all(SimTime::ZERO)?;
        drive(&mut sim)?;

        let placements: Vec<Placement> = std::mem::take(&mut sim.realized)
            .into_iter()
            .map(|p| p.expect("all tasks completed"))
            .collect();
        let schedule = Schedule::new(placements)?;
        let elastic = sim.elastic_outcome(schedule.makespan());
        Ok(Outcome {
            schedule,
            stats: sim.stats,
            counters: sim.counters,
            elastic,
        })
    }

    /// Scans every device (in id order) and starts the next eligible
    /// queued replica on each idle one. Repeats the scan whenever a
    /// stranded start re-queued work (possibly on an already-visited
    /// device); each repeat requires fresh queued replicas, so the loop
    /// terminates.
    fn dispatch_all(&mut self, now: SimTime) -> Result<(), EngineError> {
        loop {
            #[cfg(test)]
            tests::probe::count(tests::probe::Site::DispatchPass);
            self.dispatch_dirty = false;
            for d in 0..self.devs.len() {
                if !self.dispatchable(d) {
                    continue;
                }
                loop {
                    if self.devs[d].running.is_some() {
                        break;
                    }
                    let pos = self.devs[d].pos;
                    if pos >= self.devs[d].queue.len() {
                        break;
                    }
                    let ri = self.devs[d].queue[pos];
                    match self.replicas[ri].state {
                        RState::Done | RState::Cancelled | RState::Failed | RState::Lost => {
                            self.devs[d].pos += 1;
                        }
                        // A held entry without `running` set cannot happen;
                        // leave it to the Resume event rather than panic.
                        RState::Running | RState::WaitingRestart => break,
                        RState::Queued => {
                            let t = self.replicas[ri].task;
                            if self.finished_at[t.0].is_some() {
                                // Sibling already won; drop silently.
                                self.replicas[ri].state = RState::Cancelled;
                                self.replicas[ri].gen += 1;
                                self.devs[d].pos += 1;
                                continue;
                            }
                            if self.preds_left[t.0] > 0 {
                                // Head-of-line blocking preserves plan order.
                                break;
                            }
                            self.devs[d].running = Some(ri);
                            self.start_attempt(ri, now)?;
                            // A stranded start released the device again;
                            // keep scanning its queue.
                            if self.devs[d].running.is_some() {
                                break;
                            }
                        }
                    }
                }
            }
            if !self.dispatch_dirty {
                return Ok(());
            }
        }
    }

    /// Starts (or restarts) the attempt for `ri`: stages its inputs,
    /// computes the effective duration and schedules the Finish event.
    ///
    /// When every route from a producer to this device is permanently
    /// severed the replica can never start here: it is marked Lost, the
    /// device is released, and (if no sibling survives) the task is
    /// reassigned to a reachable device.
    fn start_attempt(&mut self, ri: usize, now: SimTime) -> Result<(), EngineError> {
        let task = self.replicas[ri].task;
        let device = self.replicas[ri].device;
        let wf = self.wf;
        // Input staging, anchored at each producer's finish instant —
        // equivalent to launching the transfer when the producer
        // finished. Restarts re-pull uncached inputs (the attempt
        // re-reads its data), which recounts those transfers.
        let mut data_at = SimTime::ZERO;
        for &e in wf.predecessors(task) {
            let edge = wf.edge(e);
            let src = edge.src;
            let src_dev = self.winner_dev[src.0].expect("predecessor finished");
            let ready = self.finished_at[src.0].expect("predecessor finished");
            if let Some(at) = self.delivered.lookup(src, device) {
                data_at = data_at.max(at);
                continue;
            }
            let Some(arrival) = self.staged_arrival(src_dev, device, edge.bytes, ready)? else {
                return self.strand_replica(ri, now);
            };
            self.delivered.record(src, device, arrival);
            data_at = data_at.max(arrival);
        }

        let total_eff = self.attempt_effective(self.replicas[ri].remaining_work);
        let slowdown = self.avail.slowdown(device);
        let r = &mut self.replicas[ri];
        if !r.launched {
            r.launched = true;
            r.occupied_from = now;
            self.counters.launched += 1;
        }
        let exec_start = now.max(data_at).max(r.floor);
        r.state = RState::Running;
        r.gen += 1;
        r.attempt = Attempt {
            last_update: exec_start,
            done_eff: SimDuration::ZERO,
            total_eff,
            slowdown,
        };
        let gen = r.gen;
        self.push_finish(ri, gen, exec_start + total_eff * slowdown);
        Ok(())
    }

    /// Folds wall-clock progress since the last update into effective
    /// progress at the attempt's current slowdown.
    fn update_progress(&mut self, ri: usize, now: SimTime) {
        let a = &mut self.replicas[ri].attempt;
        let elapsed = now.saturating_since(a.last_update);
        let gained = elapsed / a.slowdown;
        a.done_eff = (a.done_eff + gained).min(a.total_eff);
        a.last_update = a.last_update.max(now);
    }

    /// Frees device `d` of its held replica and flags the dispatcher:
    /// the next entry of its queue may start.
    fn release(&mut self, d: usize) {
        self.devs[d].running = None;
        self.dispatch_dirty = true;
    }

    /// Whether `task` still has a replica that can finish.
    fn task_has_live_replica(&self, task: TaskId) -> bool {
        self.task_replicas[task.0].iter().any(|&ri| {
            !matches!(
                self.replicas[ri].state,
                RState::Failed | RState::Cancelled | RState::Lost
            )
        })
    }

    /// Cancels a losing replica exactly once (guarded by its state).
    fn cancel_replica(&mut self, ri: usize, now: SimTime) {
        match self.replicas[ri].state {
            RState::Queued => {
                // Never launched: nothing executed, nothing to count. It
                // may have blocked its device's queue head.
                self.replicas[ri].state = RState::Cancelled;
                self.replicas[ri].gen += 1;
                self.dispatch_dirty = true;
            }
            RState::Running => {
                self.update_progress(ri, now);
                self.counters.wasted += self.replicas[ri].attempt.done_eff.as_secs();
                self.counters.cancelled += 1;
                let d = self.replicas[ri].device.0;
                self.replicas[ri].state = RState::Cancelled;
                self.replicas[ri].gen += 1;
                self.release(d);
                self.devs[d].pos += 1;
            }
            RState::WaitingRestart => {
                self.counters.cancelled += 1;
                let d = self.replicas[ri].device.0;
                self.replicas[ri].state = RState::Cancelled;
                self.replicas[ri].gen += 1;
                self.release(d);
                self.devs[d].pos += 1;
            }
            RState::Done | RState::Cancelled | RState::Failed | RState::Lost => {}
        }
    }

    fn handle_finish(&mut self, ri: usize, gen: u32, now: SimTime) -> Result<(), EngineError> {
        if self.replicas[ri].gen != gen || self.replicas[ri].state != RState::Running {
            #[cfg(test)]
            tests::probe::count(tests::probe::Site::StaleFinish);
            return Ok(()); // Stale: aborted, cancelled or reprojected.
        }
        let task = self.replicas[ri].task;
        let device = self.replicas[ri].device;
        {
            let r = &mut self.replicas[ri];
            r.state = RState::Done;
            r.gen += 1;
        }
        self.finished_at[task.0] = Some(now);
        self.winner_dev[task.0] = Some(device);
        self.realized[task.0] = Some(Placement {
            task,
            device,
            level: self.replicas[ri].level,
            start: self.replicas[ri].occupied_from,
            finish: now,
        });
        self.completed += 1;
        self.release(device.0);
        self.devs[device.0].pos += 1;
        // First finisher wins: cancel every sibling. Taken, not cloned:
        // `cancel_replica` never touches `task_replicas`.
        let siblings = std::mem::take(&mut self.task_replicas[task.0]);
        for &si in &siblings {
            if si != ri {
                self.cancel_replica(si, now);
            }
        }
        self.task_replicas[task.0] = siblings;
        let wf = self.wf;
        for &e in wf.successors(task) {
            let dst = wf.edge(e).dst.0;
            // A consumer that finished before lineage recovery un-did
            // this producer is not waiting on the re-run.
            if self.finished_at[dst].is_none() {
                self.preds_left[dst] -= 1;
            }
        }
        Ok(())
    }

    fn handle_resume(&mut self, ri: usize, gen: u32, now: SimTime) -> Result<(), EngineError> {
        if self.replicas[ri].gen != gen || self.replicas[ri].state != RState::WaitingRestart {
            return Ok(()); // Stale: cancelled or lost while waiting.
        }
        let t = self.replicas[ri].task;
        if self.preds_left[t.0] > 0 {
            // Lineage recovery un-finished an input while this replica
            // waited out its restart: back to Queued (still at the head
            // of its device queue), release the device, and let dispatch
            // restart it once the producers re-finish.
            let r = &mut self.replicas[ri];
            r.state = RState::Queued;
            r.gen += 1;
            let d = r.device.0;
            self.release(d);
            return Ok(());
        }
        self.start_attempt(ri, now)
    }
}

/// The resilient hook set: completion-exit semantics (fault processes
/// generate events forever, so the queue never drains), the step budget
/// charged *before* the pop (elided `Finish` events and events handled
/// in place included, as ghost steps), and a dispatcher pass after each
/// event that set `dispatch_dirty`: the dispatcher reaches a fixed point
/// and start eligibility does not depend on `now`, so after any other
/// event the pass would start nothing.
impl Hooks for Sim<'_> {
    type Event = Ev;

    fn budget(&self) -> Option<u64> {
        self.cfg.step_budget
    }

    fn budget_point(&self) -> BudgetPoint {
        BudgetPoint::BeforePop
    }

    fn completed(&self) -> usize {
        self.completed
    }

    fn total(&self) -> usize {
        self.wf.num_tasks()
    }

    fn exit_on_complete(&self) -> bool {
        true
    }

    fn pop(&mut self) -> Option<(SimTime, Ev)> {
        #[cfg(test)]
        tests::probe::count(tests::probe::Site::Pop);
        self.queue.pop()
    }

    fn handle(&mut self, now: SimTime, ev: Ev) -> Result<(), EngineError> {
        match ev {
            Ev::Finish { replica, gen } => self.handle_finish(replica, gen, now),
            Ev::Resume { replica, gen } => self.handle_resume(replica, gen, now),
            Ev::Fault { device } => self.handle_fault(device, now),
            Ev::Repair { device, seq } => {
                self.handle_repair(device, seq, now);
                Ok(())
            }
            Ev::LinkFault { link } => {
                self.handle_link_fault(link, now);
                Ok(())
            }
            Ev::LinkRepair { link, seq } => {
                self.handle_link_repair(link, seq);
                Ok(())
            }
            Ev::DomainFault { domain } => self.handle_domain_fault(domain, now),
            Ev::ElasticTimed { event } => self.handle_elastic_timed(event, now),
            Ev::ElasticChurn { device, seq } => self.handle_elastic_churn(device, seq, now),
            Ev::ElasticDeadline { device, seq } => self.handle_elastic_deadline(device, seq, now),
        }
    }

    fn after_event(&mut self, now: SimTime) -> Result<(), EngineError> {
        if self.dispatch_dirty || reference_mode() {
            self.dispatch_all(now)?;
        }
        Ok(())
    }

    fn elided_before_head(&mut self) -> u64 {
        self.elided.take_before(self.queue.peek_key())
    }

    fn grant_steps(&mut self, left: u64) {
        self.steps_left = left;
    }
}

#[cfg(test)]
#[path = "runner_tests.rs"]
mod tests;
