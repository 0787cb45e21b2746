//! Recovery machinery: device removal, data-product lineage
//! re-materialization, greedy reassignment and full replanning, plus
//! the checkpoint-policy arithmetic. An `impl` extension of [`Sim`],
//! split out of `runner.rs` so the path source holds only the hook set
//! and the dispatcher.
//!
//! [`Sim::remove_devices`] is the one device-removal path: a permanent
//! device fault, a permanent domain strike (its member devices as one
//! batch) and an elastic departure all go through it, told apart only
//! by their [`Removal`] cause.

use super::*;

/// Why devices leave the run, for [`Sim::remove_devices`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Removal {
    /// A permanent failure: the device goes down for good, and all of a
    /// lost attempt's progress is waste (snapshots are device-local).
    Failure,
    /// An elastic departure (a leave, or a drain or preemption reaching
    /// its deadline): the device stays healthy and may join again, and
    /// work its completed checkpoints hold is not counted as waste.
    Departure,
}

impl Sim<'_> {
    /// Effective seconds one attempt needs: the base work plus one
    /// checkpoint write per completed interval under CheckpointRestart.
    pub(super) fn attempt_effective(&self, remaining: SimDuration) -> SimDuration {
        match self.res.policy {
            RecoveryPolicy::CheckpointRestart {
                interval_secs,
                overhead_secs,
                ..
            } => {
                let snapshots = (remaining.as_secs() / interval_secs).floor();
                remaining + SimDuration::from_secs(overhead_secs * snapshots)
            }
            _ => remaining,
        }
    }

    /// Base-work seconds preserved by completed checkpoints when an
    /// attempt with `done_eff` effective progress aborts.
    pub(super) fn preserved_work(&self, done_eff: SimDuration) -> SimDuration {
        match self.res.policy {
            RecoveryPolicy::CheckpointRestart {
                interval_secs,
                overhead_secs,
                ..
            } => {
                let stride = interval_secs + overhead_secs;
                let units = (done_eff.as_secs() / stride).floor();
                SimDuration::from_secs(interval_secs * units)
            }
            _ => SimDuration::ZERO,
        }
    }

    /// Marks `ri` Lost because its inputs are permanently unreachable
    /// from its device, releases the device, and reassigns the task to a
    /// reachable device when no sibling survives.
    pub(super) fn strand_replica(&mut self, ri: usize, now: SimTime) -> Result<(), EngineError> {
        let task = self.replicas[ri].task;
        let d = self.replicas[ri].device.0;
        self.replicas[ri].state = RState::Lost;
        self.replicas[ri].gen += 1;
        self.release(d);
        self.devs[d].pos += 1;
        if !self.task_has_live_replica(task) {
            // Partition recovery is always local reassignment (a full
            // replan cannot see link health and could re-place the task
            // on the severed device forever).
            self.greedy_reassign(&[task], now)?;
        }
        Ok(())
    }

    /// Whether `dev` can stage every already-produced input of `task`:
    /// no producer's product sits across a permanently severed route.
    /// Unfinished producers are judged optimistically — if they later
    /// finish somewhere unreachable, the consumer strands then and
    /// recovers again.
    fn reachable_for(&self, task: TaskId, dev: DeviceId) -> Result<bool, EngineError> {
        if !self.link_health_active {
            return Ok(true);
        }
        let ic = self.platform.interconnect();
        let severed = |route: &[LinkId]| {
            route
                .iter()
                .any(|&l| matches!(self.links_avail.down_until(l), Some(None)))
        };
        for &e in self.wf.predecessors(task) {
            let edge = self.wf.edge(e);
            let src = edge.src;
            let Some(src_dev) = self.winner_dev[src.0] else {
                continue;
            };
            if src_dev == dev {
                continue;
            }
            if self.delivered.has(src, dev) {
                continue;
            }
            let primary = ic.route(src_dev, dev)?;
            if !severed(&primary) {
                continue;
            }
            let fallback_ok = match ic.default_link() {
                Some(dl) => primary[..] != [dl] && !severed(&[dl]),
                None => false,
            };
            if !fallback_ok {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Removes every device in `gone` from the run at `now`, as one
    /// batch (one data-loss pass, one recovery pass), for either cause:
    /// loses the replicas running and queued on each, ends each
    /// device's elastic membership, re-materializes the data products
    /// lost with them, then recovers the stranded tasks by policy. The
    /// one device-removal path.
    pub(super) fn remove_devices(
        &mut self,
        gone: &[usize],
        removal: Removal,
        now: SimTime,
    ) -> Result<(), EngineError> {
        for &d in gone {
            if removal == Removal::Failure {
                self.avail.set_down(DeviceId(d));
            }
            self.release(d);
            let suffix: Vec<usize> = self.devs[d].queue[self.devs[d].pos..].to_vec();
            for ri in suffix {
                let state = self.replicas[ri].state;
                if state == RState::Running {
                    self.update_progress(ri, now);
                    let done = self.replicas[ri].attempt.done_eff;
                    let waste = match removal {
                        Removal::Failure => done,
                        // The notice window drained the last snapshot.
                        Removal::Departure => done - self.preserved_work(done),
                    };
                    self.counters.wasted += waste.as_secs();
                }
                if matches!(
                    state,
                    RState::Running | RState::Queued | RState::WaitingRestart
                ) {
                    self.replicas[ri].state = RState::Lost;
                    self.replicas[ri].gen += 1;
                }
            }
            self.elastic_leave(d, removal, now);
        }
        let n = self.wf.num_tasks();
        // A departure leaves the device up, so only failures end here.
        if self.avail.num_up() == 0 {
            return Err(EngineError::AllDevicesLost {
                at_secs: now.as_secs(),
                completed: self.completed,
                total: n,
            });
        }
        self.rematerialize_lost_products();
        let stranded: Vec<TaskId> = (0..n)
            .map(TaskId)
            .filter(|&t| self.finished_at[t.0].is_none() && !self.task_has_live_replica(t))
            .collect();
        self.recover_stranded(&stranded, now)?;
        self.check_parked(now)
    }

    /// Places stranded tasks by policy: a full replan under Reschedule
    /// (any capacity change re-ranks the whole remaining workload),
    /// greedy per-task reassignment otherwise. Under an elastic
    /// configuration, a task with no live candidate parks until
    /// capacity returns instead of failing the run.
    pub(super) fn recover_stranded(
        &mut self,
        stranded: &[TaskId],
        now: SimTime,
    ) -> Result<(), EngineError> {
        if let RecoveryPolicy::Reschedule {
            scheduler,
            overhead_secs,
            ..
        } = self.res.policy.clone()
        {
            if (0..self.devs.len()).any(|d| self.dispatchable(d)) {
                return self.reschedule_replan(&scheduler, overhead_secs, now);
            }
        }
        for &t in stranded {
            if let Err(e) = self.greedy_reassign(&[t], now) {
                match e {
                    EngineError::AllDevicesLost { .. } => self.park_or_exhaust(t, now, e)?,
                    _ => return Err(e),
                }
            }
        }
        Ok(())
    }

    /// Data-product loss and lineage recovery.
    ///
    /// A finished task's product lives on its winner device plus any
    /// delivered cache copies. Dead devices take their copies with them:
    /// products with a surviving copy are re-pointed there; products
    /// with none are *lost*. Walking lineage upward from every
    /// unfinished task, each finished ancestor whose product is lost is
    /// un-finished so it re-executes — and only those: the walk stops at
    /// ancestors whose products survive, so exactly the lost ancestor
    /// chain is re-materialized.
    pub(super) fn rematerialize_lost_products(&mut self) {
        let n = self.wf.num_tasks();
        // 1. Purge copies that died with their devices — or departed
        //    with them: an absent device's local storage is gone.
        let avail = &self.avail;
        let el = self.elastic.as_ref();
        self.delivered
            .purge_lost(|dev| avail.is_up(dev) && el.is_none_or(|e| e.is_present(dev.0)));
        // 2. Re-point dead winners at the smallest surviving cached
        //    copy; products with no copy anywhere are lost.
        let mut lost = vec![false; n];
        for (t, lost_t) in lost.iter_mut().enumerate() {
            let Some(w) = self.winner_dev[t] else {
                continue;
            };
            if self.device_live(w.0) {
                continue;
            }
            match self.delivered.surviving_copy(TaskId(t)) {
                Some((d2, at)) => {
                    self.winner_dev[t] = Some(DeviceId(d2));
                    // The copy only became usable when it arrived there.
                    let f = self.finished_at[t].expect("winner implies finished");
                    self.finished_at[t] = Some(f.max(at));
                }
                None => *lost_t = true,
            }
        }
        // 3. Lineage walk from unfinished tasks: a lost finished
        //    ancestor needs re-materializing, and so (recursively) do
        //    the lost ancestors feeding *its* re-run.
        let mut need = vec![false; n];
        let mut visited = vec![false; n];
        let mut stack: Vec<usize> = (0..n).filter(|&t| self.finished_at[t].is_none()).collect();
        for &t in &stack {
            visited[t] = true;
        }
        while let Some(t) = stack.pop() {
            for &e in self.wf.predecessors(TaskId(t)) {
                let p = self.wf.edge(e).src.0;
                if visited[p] {
                    continue;
                }
                if self.finished_at[p].is_some() && lost[p] {
                    visited[p] = true;
                    need[p] = true;
                    stack.push(p);
                }
            }
        }
        // 4. Un-finish the chain and charge the re-materialization.
        for t in (0..n).filter(|&t| need[t]) {
            self.finished_at[t] = None;
            self.winner_dev[t] = None;
            self.realized[t] = None;
            self.completed -= 1;
            self.counters.remat_tasks += 1;
            for &e in self.wf.successors(TaskId(t)) {
                self.counters.remat_bytes += self.wf.edge(e).bytes;
            }
            for ri in self.task_replicas[t].clone() {
                if self.replicas[ri].state == RState::Done {
                    // The winning attempt's work is gone with its output.
                    self.counters.wasted += self.replicas[ri].attempt.total_eff.as_secs();
                    self.replicas[ri].state = RState::Lost;
                    self.replicas[ri].gen += 1;
                }
            }
        }
        if need.iter().any(|&x| x) {
            // Finished-edge counts changed; rebuild them for every
            // unfinished task (re-run consumers wait for re-run inputs).
            for t in 0..n {
                if self.finished_at[t].is_some() {
                    continue;
                }
                self.preds_left[t] = self
                    .wf
                    .predecessors(TaskId(t))
                    .iter()
                    .filter(|&&e| self.finished_at[self.wf.edge(e).src.0].is_none())
                    .count();
            }
        }
    }

    /// Moves each stranded task to the surviving feasible *reachable*
    /// device where it runs fastest (ties break on device id),
    /// restarting from zero (checkpoints are device-local).
    fn greedy_reassign(&mut self, stranded: &[TaskId], now: SimTime) -> Result<(), EngineError> {
        let n = self.wf.num_tasks();
        for &task in stranded {
            let mut best: Option<(f64, usize)> = None;
            for dev in self.avail.surviving() {
                if !self.dispatchable(dev.0) {
                    continue;
                }
                if !self.model.feasible(task, dev) || !self.reachable_for(task, dev)? {
                    continue;
                }
                let secs = self
                    .work_on(task, dev, self.model.nominal_level(dev))?
                    .as_secs();
                let cand = (secs, dev.0);
                if best.is_none_or(|b| cand < b) {
                    best = Some(cand);
                }
            }
            let Some((_, d)) = best else {
                return Err(EngineError::AllDevicesLost {
                    at_secs: now.as_secs(),
                    completed: self.completed,
                    total: n,
                });
            };
            let device = DeviceId(d);
            let level = self.model.nominal_level(device);
            let overhead = self.res.failures.restart_overhead_secs;
            self.counters.recovery += overhead;
            let ordinal = self.task_replicas[task.0].len();
            let key = (self.plan_key[task.0], task.0, ordinal);
            let floor = now + SimDuration::from_secs(overhead);
            let ri = self.queue_replica(task, device, level, key, floor)?;
            self.insert_queued(d, ri);
        }
        Ok(())
    }

    /// Adds a queued replica of `task` on `device` at `level`, ordered
    /// by `sort_key` and not startable before `floor`, with its full
    /// work left; returns its index. The caller places it in the
    /// device's queue.
    pub(super) fn queue_replica(
        &mut self,
        task: TaskId,
        device: DeviceId,
        level: DvfsLevel,
        sort_key: (SimTime, usize, usize),
        floor: SimTime,
    ) -> Result<usize, EngineError> {
        let ri = self.replicas.len();
        let remaining_work = self.work_on(task, device, level)?;
        self.replicas.push(Replica {
            task,
            device,
            level,
            sort_key,
            state: RState::Queued,
            gen: 0,
            retries: 0,
            launched: false,
            occupied_from: SimTime::ZERO,
            remaining_work,
            floor,
            attempt: Attempt::default(),
        });
        self.task_replicas[task.0].push(ri);
        Ok(ri)
    }

    /// Inserts a new queued replica into the unconsumed suffix of device
    /// `d`'s queue, keeping it sorted by `sort_key`.
    fn insert_queued(&mut self, d: usize, ri: usize) {
        self.dispatch_dirty = true;
        let start = self.devs[d].pos + usize::from(self.devs[d].running.is_some());
        let key = self.replicas[ri].sort_key;
        let queue = &mut self.devs[d].queue;
        let at = queue
            .iter()
            .enumerate()
            .skip(start.min(queue.len()))
            .find(|&(_, &qri)| self.replicas[qri].sort_key > key)
            .map_or(queue.len(), |(i, _)| i);
        queue.insert(at, ri);
    }

    /// Full replan on the surviving platform: every unfinished task
    /// without a held (running or restarting) replica adopts the new
    /// plan's placement; held replicas keep running where they are.
    fn reschedule_replan(
        &mut self,
        scheduler: &str,
        overhead_secs: f64,
        now: SimTime,
    ) -> Result<(), EngineError> {
        self.counters.reschedules += 1;
        self.counters.recovery += overhead_secs;
        self.dispatch_dirty = true;
        let alive: Vec<DeviceId> = self
            .avail
            .surviving()
            .into_iter()
            .filter(|dev| self.dispatchable(dev.0))
            .collect();
        let sub = self.platform.survivors(&alive)?;
        let sched = scheduler_by_name(scheduler).ok_or_else(|| {
            EngineError::Config(format!("unknown scheduler {scheduler:?} for reschedule"))
        })?;
        let plan2 = sched.schedule(self.wf, &sub)?;
        let floor = now + SimDuration::from_secs(overhead_secs);

        let mut new_queues: Vec<Vec<usize>> = vec![Vec::new(); self.devs.len()];
        for p in plan2.placements() {
            let t = p.task;
            if self.finished_at[t.0].is_some() {
                continue;
            }
            let held = self.task_replicas[t.0].iter().any(|&ri| {
                matches!(
                    self.replicas[ri].state,
                    RState::Running | RState::WaitingRestart
                )
            });
            if held {
                continue;
            }
            // Retire any still-queued replicas of the task; the replan
            // supersedes them.
            let old = self.task_replicas[t.0].clone();
            for ri in old {
                if self.replicas[ri].state == RState::Queued {
                    self.replicas[ri].state = RState::Lost;
                    self.replicas[ri].gen += 1;
                }
            }
            // plan2's device ids index the surviving platform; map back.
            let orig = alive[p.device.0];
            self.plan_key[t.0] = p.start;
            let key = (p.start, t.0, self.task_replicas[t.0].len());
            let ri = self.queue_replica(t, orig, p.level, key, floor)?;
            new_queues[orig.0].push(ri);
        }
        for (d, queued) in new_queues.iter_mut().enumerate() {
            if !self.device_live(d) {
                continue;
            }
            let keep = (self.devs[d].pos + usize::from(self.devs[d].running.is_some()))
                .min(self.devs[d].queue.len());
            self.devs[d].queue.truncate(keep);
            let mut tail = std::mem::take(queued);
            tail.sort_by_key(|&ri| self.replicas[ri].sort_key);
            self.devs[d].queue.extend(tail);
        }
        Ok(())
    }
}
