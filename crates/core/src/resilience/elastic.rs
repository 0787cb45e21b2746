//! Elastic-capacity runtime: executes an
//! [`ElasticityConfig`](crate::ElasticityConfig) — devices joining,
//! draining, getting preempted and leaving mid-run — as one more hook
//! set over the shared execution core. An `impl` extension of [`Sim`],
//! split out of `runner.rs` so the path source holds only the hook set
//! and the dispatcher.
//!
//! Capacity *membership* (`present`) is tracked separately from failure
//! *health* ([`Availability`]): an absent device is not "down", it is
//! simply not part of the platform right now. A device is `live` when
//! it is present and not permanently failed, and `dispatchable` when it
//! is live and not draining. Both passes of the runner (injected and
//! baseline) execute the same elasticity plan — capacity is reality,
//! not fault injection — so the resilience metrics still isolate what
//! the *failures* cost on the elastic platform.
//!
//! Timed events consume no randomness. Stochastic churn samples each
//! device's alternating renewal (preempt while present, re-acquire
//! while absent) from `ELASTIC_STREAM_BASE + device id`, using the same
//! pre-draw pattern as the fault traces: nothing is sampled in event
//! order, so traces are byte-identical per seed across `--jobs` and
//! shards.
//!
//! Departure reuses the permanent-loss machinery — queued replicas are
//! lost and migrate, resident data products are treated as lost and the
//! lineage re-materializes — but never touches [`Availability`]: a
//! later join brings the device back blank. The one exception is a
//! device the failure machinery killed permanently: dead capacity stays
//! dead, and elastic events on it become counted no-ops
//! (`dead_capacity_events`). A task with no live candidate parks only
//! while a device it can run on can still join. When none can, the run
//! ends: with [`EngineError::CapacityExhausted`] — a measurement, not a
//! bug — if no device is live, with `AllDevicesLost` otherwise.

use super::*;

use crate::elastic::{ElasticEventKind, ElasticityMetrics};
use crate::exec::ELASTIC_STREAM_BASE;
use helios_sim::failure::FailureDistribution;

/// One timed event, resolved to a device id (times live in the event
/// queue).
#[derive(Debug, Clone, Copy)]
pub(super) struct TimedEv {
    device: usize,
    kind: TimedKind,
}

#[derive(Debug, Clone, Copy)]
enum TimedKind {
    Join,
    Drain { deadline: SimTime },
    Preempt { notice: SimDuration },
    Leave,
}

/// Why a draining device will depart at its deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DepartKind {
    Drain,
    Preempt,
}

/// The next armed transition of a churn renewal.
#[derive(Debug, Clone, Copy)]
enum ChurnNext {
    Preempt,
    Rejoin,
}

/// Per-device churn state: the renewal's own RNG stream plus the
/// pre-drawn next transition.
#[derive(Debug)]
struct ChurnRt {
    rng: SimRng,
    dist: FailureDistribution,
    rejoin: FailureDistribution,
    notice: SimDuration,
    pending: Option<ChurnNext>,
}

/// All elastic runtime state, bundled so [`Sim`] carries one field.
#[derive(Debug)]
pub(super) struct ElasticRt {
    timed: Vec<TimedEv>,
    fired: Vec<bool>,
    present: Vec<bool>,
    draining: Vec<bool>,
    joined_mid_run: Vec<bool>,
    /// Stale guard for departure deadlines; bumped on every membership
    /// transition of the device.
    seq: Vec<u32>,
    /// Stale guard for churn transitions; bumped on every (re-)arm.
    churn_seq: Vec<u32>,
    pending_depart: Vec<Option<DepartKind>>,
    churn: Vec<Option<ChurnRt>>,
    present_since: Vec<Option<SimTime>>,
    capacity: Vec<f64>,
    /// Tasks with no live candidate device, waiting for a join.
    parked: Vec<TaskId>,
    joins: u32,
    departures: u32,
    drains: u32,
    preemptions: u32,
    drain_migrated: u32,
    dead_events: u32,
}

impl ElasticRt {
    /// Whether device `d` is currently a member of the platform.
    pub(super) fn is_present(&self, d: usize) -> bool {
        self.present[d]
    }
}

/// Capacity accounting carried out of the simulation for metric
/// assembly.
#[derive(Debug)]
pub(super) struct ElasticOutcome {
    capacity: Vec<f64>,
    joined_mid_run: Vec<bool>,
    joins: u32,
    departures: u32,
    drains: u32,
    preemptions: u32,
    drain_migrated: u32,
    dead_events: u32,
}

impl ElasticOutcome {
    /// Assembles the report metrics: join utilization is busy
    /// device-seconds of winning placements on mid-run joiners over
    /// those devices' capacity-seconds.
    pub(super) fn metrics(&self, schedule: &Schedule) -> ElasticityMetrics {
        let joined_cap: f64 = self
            .capacity
            .iter()
            .zip(&self.joined_mid_run)
            .filter(|&(_, &joined)| joined)
            .map(|(c, _)| c)
            .sum();
        let joined_busy: f64 = schedule
            .placements()
            .iter()
            .filter(|p| self.joined_mid_run[p.device.0])
            .map(|p| p.finish.saturating_since(p.start).as_secs())
            .sum();
        ElasticityMetrics {
            capacity_secs: self.capacity.iter().sum(),
            joins: self.joins,
            departures: self.departures,
            drains: self.drains,
            preemptions: self.preemptions,
            drain_migrated_tasks: self.drain_migrated,
            join_utilization: if joined_cap > 0.0 {
                joined_busy / joined_cap
            } else {
                0.0
            },
            dead_capacity_events: self.dead_events,
        }
    }
}

impl Sim<'_> {
    /// Builds the elastic runtime when configured: resolves device
    /// names, decides initial membership (a device whose earliest timed
    /// event is a join starts the run absent), and schedules the timed
    /// events plus the first churn transitions.
    pub(super) fn init_elastic(&mut self, base_rng: &SimRng) -> Result<(), EngineError> {
        let Some(cfg) = self.cfg.elasticity.as_ref() else {
            return Ok(());
        };
        let nd = self.platform.num_devices();
        let (event_devices, churn_devices) = cfg.device_ids(self.platform)?;
        let mut timed = Vec::with_capacity(cfg.events.len());
        let mut ats = Vec::with_capacity(cfg.events.len());
        for (ev, &device) in cfg.events.iter().zip(&event_devices) {
            let kind = match ev.kind {
                ElasticEventKind::Join => TimedKind::Join,
                ElasticEventKind::Drain { deadline_secs } => TimedKind::Drain {
                    deadline: SimTime::from_secs(deadline_secs),
                },
                ElasticEventKind::Preempt { notice_secs } => TimedKind::Preempt {
                    notice: SimDuration::from_secs(notice_secs),
                },
                ElasticEventKind::Leave => TimedKind::Leave,
            };
            timed.push(TimedEv { device, kind });
            ats.push(SimTime::from_secs(ev.at_secs));
        }
        let mut present = vec![true; nd];
        let mut first: Vec<Option<(SimTime, usize)>> = vec![None; nd];
        for (i, (ev, &at)) in timed.iter().zip(&ats).enumerate() {
            let slot = &mut first[ev.device];
            if slot.is_none_or(|(t, _)| at < t) {
                *slot = Some((at, i));
            }
        }
        for (d, slot) in first.iter().enumerate() {
            if let Some((_, i)) = slot {
                if matches!(timed[*i].kind, TimedKind::Join) {
                    present[d] = false;
                }
            }
        }
        let mut churn: Vec<Option<ChurnRt>> = (0..nd).map(|_| None).collect();
        for (c, &d) in cfg.churn.iter().zip(&churn_devices) {
            churn[d] = Some(ChurnRt {
                rng: base_rng.fork(ELASTIC_STREAM_BASE + d as u64),
                dist: c.distribution(),
                rejoin: FailureDistribution::Exponential {
                    mttf_secs: c.rejoin_secs,
                },
                notice: SimDuration::from_secs(c.notice_secs),
                pending: None,
            });
        }
        let has_churn: Vec<bool> = churn.iter().map(Option::is_some).collect();
        self.elastic = Some(ElasticRt {
            timed,
            fired: vec![false; cfg.events.len()],
            present_since: present
                .iter()
                .map(|&p| p.then_some(SimTime::ZERO))
                .collect(),
            present,
            draining: vec![false; nd],
            joined_mid_run: vec![false; nd],
            seq: vec![0; nd],
            churn_seq: vec![0; nd],
            pending_depart: vec![None; nd],
            churn,
            capacity: vec![0.0; nd],
            parked: Vec::new(),
            joins: 0,
            departures: 0,
            drains: 0,
            preemptions: 0,
            drain_migrated: 0,
            dead_events: 0,
        });
        for (i, &at) in ats.iter().enumerate() {
            self.queue.push(at, Ev::ElasticTimed { event: i });
        }
        for (d, _) in has_churn.iter().enumerate().filter(|&(_, &c)| c) {
            self.schedule_churn(d, SimTime::ZERO);
        }
        Ok(())
    }

    /// Device `d` is part of the platform right now and not permanently
    /// failed.
    pub(super) fn device_live(&self, d: usize) -> bool {
        self.avail.is_up(DeviceId(d)) && self.elastic.as_ref().is_none_or(|el| el.present[d])
    }

    /// [`Sim::device_live`] and accepting new work (not draining).
    pub(super) fn dispatchable(&self, d: usize) -> bool {
        self.device_live(d) && self.elastic.as_ref().is_none_or(|el| !el.draining[d])
    }

    fn num_live(&self) -> usize {
        (0..self.devs.len())
            .filter(|&d| self.device_live(d))
            .count()
    }

    /// Whether capacity that can run `task` can still join: an unfired
    /// timed join, or a churn renewal (which always re-acquires
    /// eventually), on a device the failure machinery has not killed
    /// and that `task` can be placed on.
    pub(super) fn capacity_can_return(&self, task: TaskId) -> bool {
        let Some(el) = self.elastic.as_ref() else {
            return false;
        };
        let can_take = |d: usize| {
            self.avail.is_up(DeviceId(d))
                && self.platform.device(DeviceId(d)).is_ok_and(|device| {
                    self.wf
                        .task(task)
                        .is_ok_and(|t| placement_feasible(device, t))
                })
        };
        el.timed
            .iter()
            .zip(&el.fired)
            .any(|(ev, &fired)| !fired && matches!(ev.kind, TimedKind::Join) && can_take(ev.device))
            || el
                .churn
                .iter()
                .enumerate()
                .any(|(d, c)| c.is_some() && can_take(d))
    }

    /// A task with no live candidate device parks until capacity
    /// returns; when none ever can, the run ends — as
    /// `capacity_exhausted` if elastic departures emptied the platform,
    /// or with the original loss error if live-but-infeasible devices
    /// remain.
    pub(super) fn park_or_exhaust(
        &mut self,
        t: TaskId,
        now: SimTime,
        err: EngineError,
    ) -> Result<(), EngineError> {
        if self.elastic.is_none() {
            return Err(err);
        }
        if self.capacity_can_return(t) {
            let el = self.elastic.as_mut().expect("checked above");
            if !el.parked.contains(&t) {
                el.parked.push(t);
            }
            return Ok(());
        }
        if self.num_live() == 0 {
            return Err(EngineError::CapacityExhausted {
                at_secs: now.as_secs(),
                completed: self.completed,
                total: self.wf.num_tasks(),
            });
        }
        Err(err)
    }

    /// Ends the run if a parked task can never be placed again: without
    /// this, the event queue could drain with work still parked and the
    /// core would report a stall instead of a measurement, or fault and
    /// churn events could keep an unbudgeted run going forever.
    pub(super) fn check_parked(&mut self, now: SimTime) -> Result<(), EngineError> {
        let Some(el) = self.elastic.as_ref() else {
            return Ok(());
        };
        // A parked task that recovery has placed since is no longer
        // waiting.
        let waits_in_vain = |t: TaskId| {
            self.finished_at[t.0].is_none()
                && !self.task_has_live_replica(t)
                && !self.capacity_can_return(t)
        };
        if !el.parked.iter().any(|&t| waits_in_vain(t)) {
            return Ok(());
        }
        if self.num_live() == 0 {
            return Err(EngineError::CapacityExhausted {
                at_secs: now.as_secs(),
                completed: self.completed,
                total: self.wf.num_tasks(),
            });
        }
        Err(EngineError::AllDevicesLost {
            at_secs: now.as_secs(),
            completed: self.completed,
            total: self.wf.num_tasks(),
        })
    }

    /// A permanent failure removed `d`: close its capacity interval and
    /// cancel any pending departure or churn — dead capacity stays
    /// dead, and later elastic events on it become counted no-ops.
    pub(super) fn elastic_note_dead(&mut self, d: usize, now: SimTime) {
        let Some(el) = self.elastic.as_mut() else {
            return;
        };
        if let Some(since) = el.present_since[d].take() {
            el.capacity[d] += now.saturating_since(since).as_secs();
        }
        el.present[d] = false;
        el.draining[d] = false;
        el.pending_depart[d] = None;
        el.seq[d] += 1;
    }

    pub(super) fn handle_elastic_timed(
        &mut self,
        event: usize,
        now: SimTime,
    ) -> Result<(), EngineError> {
        let el = self
            .elastic
            .as_mut()
            .expect("elastic event without runtime");
        el.fired[event] = true;
        let TimedEv { device: d, kind } = el.timed[event];
        if !self.avail.is_up(DeviceId(d)) {
            el.dead_events += 1;
            return self.check_parked(now);
        }
        match kind {
            TimedKind::Join => {
                if !el.present[d] {
                    return self.elastic_join(d, now);
                }
            }
            TimedKind::Drain { deadline } => {
                if el.present[d] && !el.draining[d] {
                    el.drains += 1;
                    return self.begin_departure(d, DepartKind::Drain, deadline, now);
                }
            }
            TimedKind::Preempt { notice } => {
                if el.present[d] && !el.draining[d] {
                    return self.begin_departure(d, DepartKind::Preempt, now + notice, now);
                }
            }
            TimedKind::Leave => {
                if el.present[d] {
                    return self.depart_device(d, now);
                }
            }
        }
        // Duplicate joins/leaves and drains of absent devices are
        // no-ops, but may have been a parked task's last hope.
        self.check_parked(now)
    }

    pub(super) fn handle_elastic_deadline(
        &mut self,
        d: usize,
        seq: u32,
        now: SimTime,
    ) -> Result<(), EngineError> {
        let el = self.elastic.as_mut().expect("elastic runtime");
        if el.seq[d] != seq || !el.present[d] {
            return Ok(()); // Superseded: departed, died or re-joined.
        }
        if el.pending_depart[d] == Some(DepartKind::Preempt) {
            el.preemptions += 1;
        }
        self.depart_device(d, now)
    }

    pub(super) fn handle_elastic_churn(
        &mut self,
        d: usize,
        seq: u32,
        now: SimTime,
    ) -> Result<(), EngineError> {
        let el = self.elastic.as_mut().expect("elastic runtime");
        if el.churn_seq[d] != seq {
            return Ok(()); // Superseded by a newer transition.
        }
        if !self.avail.is_up(DeviceId(d)) {
            // Dead capacity stays dead: the renewal ends here.
            el.dead_events += 1;
            return Ok(());
        }
        let present = el.present[d];
        let draining = el.draining[d];
        let notice = el.churn[d].as_ref().map(|c| c.notice);
        let pending = el.churn[d].as_mut().and_then(|c| c.pending.take());
        match pending {
            Some(ChurnNext::Preempt) if present && !draining => {
                let notice = notice.expect("churn transition without a model");
                self.begin_departure(d, DepartKind::Preempt, now + notice, now)
            }
            Some(ChurnNext::Rejoin) if !present => {
                self.elastic_join(d, now)?;
                self.schedule_churn(d, now);
                Ok(())
            }
            // A timed event changed membership under the renewal; re-arm
            // from the current state.
            _ => {
                self.schedule_churn(d, now);
                Ok(())
            }
        }
    }

    /// (Re-)arms `d`'s churn renewal: the next transition is a
    /// preemption notice while present, a re-acquisition while absent.
    /// Gaps come from the device's own stream, never in event order.
    fn schedule_churn(&mut self, d: usize, now: SimTime) {
        let el = self.elastic.as_mut().expect("elastic runtime");
        let present = el.present[d];
        el.churn_seq[d] += 1;
        let seq = el.churn_seq[d];
        let c = el.churn[d]
            .as_mut()
            .expect("churn scheduled without a model");
        let (dist, next) = if present {
            (c.dist, ChurnNext::Preempt)
        } else {
            (c.rejoin, ChurnNext::Rejoin)
        };
        let gap = match dist {
            FailureDistribution::Exponential { mttf_secs } => c.rng.exponential(mttf_secs),
            FailureDistribution::Weibull { scale_secs, shape } => c.rng.weibull(scale_secs, shape),
        };
        c.pending = Some(next);
        self.queue.push(
            now + SimDuration::from_secs(gap),
            Ev::ElasticChurn { device: d, seq },
        );
    }

    /// Adds `d` to the platform: it immediately becomes a dispatch and
    /// recovery target, parked tasks retry placement, and under the
    /// Reschedule policy the remaining workload is re-ranked onto the
    /// enlarged platform.
    fn elastic_join(&mut self, d: usize, now: SimTime) -> Result<(), EngineError> {
        let el = self.elastic.as_mut().expect("elastic runtime");
        el.present[d] = true;
        el.draining[d] = false;
        el.pending_depart[d] = None;
        el.seq[d] += 1;
        el.joins += 1;
        el.joined_mid_run[d] = true;
        el.present_since[d] = Some(now);
        let parked = std::mem::take(&mut el.parked);
        self.dispatch_dirty = true;
        self.recover_stranded(&parked, now)
    }

    /// Stops new work on `d` (queued replicas migrate now) and
    /// schedules its departure deadline.
    fn begin_departure(
        &mut self,
        d: usize,
        kind: DepartKind,
        deadline: SimTime,
        now: SimTime,
    ) -> Result<(), EngineError> {
        self.dispatch_dirty = true;
        let el = self.elastic.as_mut().expect("elastic runtime");
        el.draining[d] = true;
        el.pending_depart[d] = Some(kind);
        el.seq[d] += 1;
        let seq = el.seq[d];
        self.queue
            .push(deadline.max(now), Ev::ElasticDeadline { device: d, seq });
        let mut stranded: Vec<TaskId> = Vec::new();
        for t in self.lose_queued(d) {
            if self.finished_at[t.0].is_none()
                && !self.task_has_live_replica(t)
                && !stranded.contains(&t)
            {
                stranded.push(t);
            }
        }
        let el = self.elastic.as_mut().expect("elastic runtime");
        el.drain_migrated += stranded.len() as u32;
        self.recover_stranded(&stranded, now)
    }

    /// Marks every still-queued replica in `d`'s unconsumed queue
    /// suffix Lost, returning the affected tasks.
    fn lose_queued(&mut self, d: usize) -> Vec<TaskId> {
        let start = (self.devs[d].pos + usize::from(self.devs[d].running.is_some()))
            .min(self.devs[d].queue.len());
        let suffix: Vec<usize> = self.devs[d].queue[start..].to_vec();
        let mut tasks = Vec::new();
        for ri in suffix {
            if self.replicas[ri].state == RState::Queued {
                self.replicas[ri].state = RState::Lost;
                self.replicas[ri].gen += 1;
                tasks.push(self.replicas[ri].task);
            }
        }
        tasks
    }

    /// Removes `d` from the platform now. The held attempt (if any) is
    /// lost — under CheckpointRestart the notice window drained the
    /// last snapshot, so completed checkpoint intervals are not counted
    /// as waste, though the replacement attempt still restarts from
    /// zero (snapshots are device-local). Resident data products die
    /// with the device and the lineage re-materializes; stranded tasks
    /// re-enter recovery.
    fn depart_device(&mut self, d: usize, now: SimTime) -> Result<(), EngineError> {
        self.dispatch_dirty = true;
        if let Some(ri) = self.devs[d].running.take() {
            match self.replicas[ri].state {
                RState::Running => {
                    self.update_progress(ri, now);
                    let done = self.replicas[ri].attempt.done_eff;
                    let preserved = self.preserved_work(done);
                    self.counters.wasted += (done - preserved).as_secs();
                    self.replicas[ri].state = RState::Lost;
                    self.replicas[ri].gen += 1;
                }
                RState::WaitingRestart => {
                    self.replicas[ri].state = RState::Lost;
                    self.replicas[ri].gen += 1;
                }
                _ => {}
            }
        }
        self.lose_queued(d);
        let el = self.elastic.as_mut().expect("elastic runtime");
        el.present[d] = false;
        el.draining[d] = false;
        el.pending_depart[d] = None;
        el.seq[d] += 1;
        el.departures += 1;
        if let Some(since) = el.present_since[d].take() {
            el.capacity[d] += now.saturating_since(since).as_secs();
        }
        let has_churn = el.churn[d].is_some();
        if has_churn {
            // The renewal continues: a churned-away device re-acquires.
            self.schedule_churn(d, now);
        }
        self.rematerialize_lost_products();
        let stranded: Vec<TaskId> = (0..self.wf.num_tasks())
            .map(TaskId)
            .filter(|&t| self.finished_at[t.0].is_none() && !self.task_has_live_replica(t))
            .collect();
        self.recover_stranded(&stranded, now)?;
        self.check_parked(now)
    }

    /// Closes capacity accounting at the end of the run (devices still
    /// present integrate up to the makespan).
    pub(super) fn elastic_outcome(&mut self, makespan: SimDuration) -> Option<ElasticOutcome> {
        let mut el = self.elastic.take()?;
        let end = SimTime::ZERO + makespan;
        for d in 0..el.capacity.len() {
            if let Some(since) = el.present_since[d].take() {
                el.capacity[d] += end.saturating_since(since).as_secs();
            }
        }
        Some(ElasticOutcome {
            capacity: el.capacity,
            joined_mid_run: el.joined_mid_run,
            joins: el.joins,
            departures: el.departures,
            drains: el.drains,
            preemptions: el.preemptions,
            drain_migrated: el.drain_migrated,
            dead_events: el.dead_events,
        })
    }
}
