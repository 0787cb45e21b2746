//! Fault injection and repair: the handlers that turn pre-drawn
//! device, link and correlated-domain failure events into state
//! changes. An `impl` extension of [`Sim`], split out of `runner.rs` so
//! the path source holds only the hook set and the dispatcher.
//!
//! Each state change has one routine, shared by a device's or link's
//! own fault and a domain strike on its members: `abort_running` and
//! `degrade` strike a device, `strike_link` degrades or takes down a
//! link (for good when its `until` is `None`), and a permanent loss
//! removes devices through `remove_devices` (`recovery.rs`).
//!
//! # Restarts and faults in place
//!
//! A device's own events often follow each other with nothing else due
//! in between: a transient fault's restart comes a restart overhead
//! later, and the device's next fault comes after that. So
//! [`Sim::handle_fault`] loops over the device's own events. It reserves
//! each one's `(time, sequence)` key with `EventQueue::skip`, in the
//! order the queue would have numbered them (the restart, then the next
//! fault), and handles it at once when that key comes before every
//! queued event. Otherwise it queues the event under the reserved key
//! (`EventQueue::push_skipped`). The result is byte-identical to popping
//! each event:
//!
//! * **Key order.** An in-place event is the one the queue would pop
//!   next, and reserved keys keep every other tie-break unchanged.
//! * **Dispatch instant.** After each event, in place or popped, the
//!   dispatcher runs at that event's own instant when the event set
//!   `dispatch_dirty`, as `after_event` would have.
//! * **Ghost steps.** Under a step budget each in-place event is
//!   recorded in `ElidedPops`, so `drive` charges the pop it stands
//!   for.
//! * **Budget.** An event runs in place only if its ghost step, and
//!   every ghost step due before it, fits in the steps `drive` granted
//!   (`Hooks::grant_steps`): the un-elided loop would have reached it
//!   before tripping. Fault and restart events never complete a task,
//!   so the loop's completion check could not have stopped it either.
//!
//! The test-only reference mode queues every event.

use super::recovery::Removal;
use super::*;

impl Sim<'_> {
    pub(super) fn schedule_next_fault(&mut self, d: usize, now: SimTime) {
        let at = self.draw_next_fault(d, now);
        self.queue.push(at, Ev::Fault { device: d });
    }

    /// Draws device `d`'s next fault after `now` from its own stream,
    /// keeps its mode and instant on the device, and returns the
    /// instant.
    fn draw_next_fault(&mut self, d: usize, now: SimTime) -> SimTime {
        let ev = self.process.next_after(&mut self.devs[d].rng, now);
        self.devs[d].pending_kind = Some(ev.kind);
        self.devs[d].next_fault_at = Some(ev.at);
        ev.at
    }

    /// Whether the event reserved under `key` runs in place: it pops
    /// before every queued event, and under a step budget its ghost
    /// step and those due before it fit in the granted steps. A yes
    /// records its ghost step.
    fn in_place(&mut self, key: (SimTime, u64)) -> bool {
        if reference_mode() || !self.queue.precedes_all(key) {
            return false;
        }
        if self.cfg.step_budget.is_some() {
            if self.elided.count_before(key) >= self.steps_left {
                return false;
            }
            self.elided.record(key);
        }
        true
    }

    /// The dispatcher pass `after_event` would run after an event at
    /// `now`, for an event handled inside `handle_fault`.
    fn dispatch_after(&mut self, now: SimTime) -> Result<(), EngineError> {
        if self.dispatch_dirty && !reference_mode() {
            self.dispatch_all(now)?;
        }
        Ok(())
    }

    /// Queues the `Finish` of `ri`'s attempt `gen` at `at`, unless that
    /// event is doomed: it would pop at or after the device's pending
    /// Fault, which was queued earlier and so also wins a tie.
    ///
    /// Eliding it is exact by one invariant: when a device's Fault pops,
    /// every attempt then `Running` on it gets a new `gen` (a transient
    /// fault aborts it, a degraded one reprojects it, a permanent one
    /// loses it), so the `Finish` would pop stale and change nothing.
    /// Skipping the push draws no randomness and keeps the order of all
    /// other events; under a step budget its key is kept so `drive`
    /// still charges the no-op pop it stands for.
    pub(super) fn push_finish(&mut self, ri: usize, gen: u32, at: SimTime) {
        let d = self.replicas[ri].device.0;
        if self.devs[d].next_fault_at.is_some_and(|f| at >= f) && !reference_mode() {
            #[cfg(test)]
            tests::probe::count(tests::probe::Site::Elided);
            let key = self.queue.skip(at);
            if self.cfg.step_budget.is_some() {
                self.elided.record(key);
            }
            return;
        }
        self.queue.push(at, Ev::Finish { replica: ri, gen });
    }

    pub(super) fn schedule_next_link_fault(&mut self, l: usize, now: SimTime) {
        let proc = self
            .link_proc
            .as_ref()
            .expect("link faults scheduled without a model");
        let ev = proc.next_after(&mut self.link_rt[l].rng, now);
        self.link_rt[l].pending = Some(ev.kind);
        self.queue.push(ev.at, Ev::LinkFault { link: l });
    }

    pub(super) fn schedule_next_domain_fault(&mut self, i: usize, now: SimTime) {
        let drt = &mut self.domains_rt[i];
        let ev = drt.process.next_after(&mut drt.rng, now);
        drt.pending = Some(ev.kind);
        self.queue.push(ev.at, Ev::DomainFault { domain: i });
    }

    /// Handles device `d`'s fault at `now`, then the restart and the
    /// next fault it leads to, each in place while nothing queued comes
    /// first (see the module docs).
    pub(super) fn handle_fault(&mut self, d: usize, mut now: SimTime) -> Result<(), EngineError> {
        loop {
            self.devs[d].next_fault_at = None;
            if !self.avail.is_up(DeviceId(d)) {
                return Ok(()); // The device already failed permanently.
            }
            let kind = self.devs[d]
                .pending_kind
                .take()
                .expect("fault event without a drawn mode");
            let restart = match kind {
                FailureKind::Transient => self.abort_running(d, now)?,
                FailureKind::Degraded => {
                    self.degrade(d, now);
                    None
                }
                FailureKind::Permanent => {
                    self.counters.permanent += 1;
                    self.remove_devices(&[d], Removal::Failure, now)?;
                    return self.dispatch_after(now);
                }
            };
            // Reserve keys in the order a queue without in-place events
            // numbers them: the restart, then the next fault.
            let restart = restart.map(|(at, replica, gen)| (self.queue.skip(at), replica, gen));
            let next = self.draw_next_fault(d, now);
            let fault = self.queue.skip(next);
            self.dispatch_after(now)?;
            if let Some((key, replica, gen)) = restart {
                if key < fault && self.in_place(key) {
                    #[cfg(test)]
                    tests::probe::count(tests::probe::Site::InPlaceRestart);
                    self.handle_resume(replica, gen, key.0)?;
                    self.dispatch_after(key.0)?;
                } else {
                    self.queue.push_skipped(key, Ev::Resume { replica, gen });
                }
            }
            if !self.in_place(fault) {
                self.queue.push_skipped(fault, Ev::Fault { device: d });
                return Ok(());
            }
            #[cfg(test)]
            tests::probe::count(tests::probe::Site::InPlaceFault);
            now = fault.0;
        }
    }

    pub(super) fn handle_repair(&mut self, d: usize, seq: u32, now: SimTime) {
        if self.devs[d].repair_seq != seq || !self.avail.is_up(DeviceId(d)) {
            return; // Superseded by a newer degradation, or device lost.
        }
        self.avail.repair(DeviceId(d));
        if let Some(ri) = self.running_attempt(d) {
            self.reproject(ri, now, 1.0);
        }
    }

    pub(super) fn handle_link_fault(&mut self, l: usize, now: SimTime) {
        if let Some(until) = self.links_avail.down_until(LinkId(l)) {
            // Already out. A permanently severed link ends its trace; a
            // timed outage just waits for the next draw.
            if until.is_some() {
                self.schedule_next_link_fault(l, now);
            }
            return;
        }
        let kind = self.link_rt[l]
            .pending
            .take()
            .expect("link fault event without a drawn mode");
        let lf = self
            .res
            .link_faults
            .as_ref()
            .expect("link fault event without a model");
        let secs = match kind {
            LinkFailureKind::Degraded => lf.degraded_repair_secs,
            LinkFailureKind::Outage => lf.outage_secs,
        };
        self.counters.link_faults += 1;
        self.strike_link(l, kind, Some(now + SimDuration::from_secs(secs)));
        self.schedule_next_link_fault(l, now);
    }

    pub(super) fn handle_link_repair(&mut self, l: usize, seq: u32) {
        if self.link_rt[l].repair_seq != seq {
            return; // Superseded by a newer fault or domain outage.
        }
        if matches!(self.links_avail.down_until(LinkId(l)), Some(None)) {
            return; // Permanent losses stay down.
        }
        self.links_avail.repair(LinkId(l));
    }

    /// Strikes link `l` with `kind` until `until`, superseding its
    /// pending repair: a degradation slows it by the link model's
    /// factor, an outage takes it down, and an outage `until` `None`
    /// severs it for good. The one place a link's state worsens.
    fn strike_link(&mut self, l: usize, kind: LinkFailureKind, until: Option<SimTime>) {
        let link = LinkId(l);
        match kind {
            LinkFailureKind::Degraded => {
                let lf = self
                    .res
                    .link_faults
                    .as_ref()
                    .expect("link degradation without a model");
                self.links_avail.set_degraded(link, lf.degraded_factor);
            }
            LinkFailureKind::Outage => self.links_avail.set_down(link, until),
        }
        self.link_rt[l].repair_seq += 1;
        if let Some(at) = until {
            let seq = self.link_rt[l].repair_seq;
            self.queue.push(at, Ev::LinkRepair { link: l, seq });
        }
    }

    pub(super) fn handle_domain_fault(
        &mut self,
        i: usize,
        now: SimTime,
    ) -> Result<(), EngineError> {
        // A fully dead domain (every member device and link permanently
        // gone) generates no further events, bounding the event stream.
        let any_live = self.domains_rt[i]
            .device_ids
            .iter()
            .any(|&d| self.avail.is_up(DeviceId(d)))
            || self.domains_rt[i]
                .link_ids
                .iter()
                .any(|&l| !matches!(self.links_avail.down_until(l), Some(None)));
        if !any_live {
            return Ok(());
        }
        let kind = self.domains_rt[i]
            .pending
            .take()
            .expect("domain fault event without a drawn mode");
        self.counters.domain_events += 1;
        let member_devs = self.domains_rt[i].device_ids.clone();
        let links = self.domains_rt[i].link_ids.clone();
        if kind == FailureKind::Permanent {
            // Sever member links first so recovery placement sees the
            // partition, then fail the member devices as one batch (one
            // data-loss pass, one recovery pass). The domain burnt
            // itself out: no further events.
            for link in links {
                self.strike_link(link.0, LinkFailureKind::Outage, None);
            }
            let dead: Vec<usize> = member_devs
                .into_iter()
                .filter(|&d| self.avail.is_up(DeviceId(d)))
                .collect();
            self.counters.permanent += dead.len() as u32;
            return self.remove_devices(&dead, Removal::Failure, now);
        }
        for d in member_devs {
            if !self.avail.is_up(DeviceId(d)) {
                continue;
            }
            if kind == FailureKind::Degraded {
                self.degrade(d, now);
            } else if let Some((at, replica, gen)) = self.abort_running(d, now)? {
                self.queue.push(at, Ev::Resume { replica, gen });
            }
        }
        // Member links already down, severed or mid-outage, are left
        // alone: an outage runs its configured course from its onset, it
        // is not extended by later strikes.
        let until = now + self.domains_rt[i].outage;
        for link in links {
            if self.links_avail.down_until(link).is_none() {
                self.strike_link(link.0, LinkFailureKind::Outage, Some(until));
            }
        }
        self.schedule_next_domain_fault(i, now);
        Ok(())
    }

    /// The replica whose attempt is executing on device `d`, if any: a
    /// held replica waiting out its restart has none.
    fn running_attempt(&self, d: usize) -> Option<usize> {
        self.devs[d]
            .running
            .filter(|&ri| self.replicas[ri].state == RState::Running)
    }

    /// Slows device `d` by the degraded slowdown until its repair,
    /// superseding any pending repair, and reprojects its running
    /// attempt. The one place a device degrades.
    fn degrade(&mut self, d: usize, now: SimTime) {
        self.counters.degraded += 1;
        let factor = self.res.failures.degraded_slowdown;
        self.avail.set_degraded(DeviceId(d), factor);
        if let Some(ri) = self.running_attempt(d) {
            self.reproject(ri, now, factor);
        }
        self.devs[d].repair_seq += 1;
        let seq = self.devs[d].repair_seq;
        self.queue.push(
            now + SimDuration::from_secs(self.res.failures.degraded_repair_secs),
            Ev::Repair { device: d, seq },
        );
    }

    /// Aborts device `d`'s running attempt after a transient fault (an
    /// idle device shrugs the fault off): either returns the retry's
    /// restart as `(instant, replica, gen)`, for the caller to queue or
    /// run (the device stays held through the restart overhead and
    /// backoff), or fails the replica for good.
    fn abort_running(
        &mut self,
        d: usize,
        now: SimTime,
    ) -> Result<Option<(SimTime, usize, u32)>, EngineError> {
        let Some(ri) = self.running_attempt(d) else {
            return Ok(None);
        };
        self.counters.transient += 1;
        self.update_progress(ri, now);
        let done_eff = self.replicas[ri].attempt.done_eff;
        let preserved = self.preserved_work(done_eff);
        self.counters.wasted += (done_eff - preserved).as_secs();
        let max_retries = self.res.policy.max_retries();
        let r = &mut self.replicas[ri];
        r.remaining_work = r.remaining_work - preserved;
        if r.retries >= max_retries {
            r.state = RState::Failed;
            r.gen += 1;
            let task = r.task;
            let attempts = r.retries + 1;
            self.release(d);
            self.devs[d].pos += 1;
            if !self.task_has_live_replica(task) {
                return Err(EngineError::RetriesExhausted { task, attempts });
            }
            return Ok(None);
        }
        r.retries += 1;
        let retry = r.retries;
        r.state = RState::WaitingRestart;
        r.gen += 1;
        let gen = r.gen;
        self.counters.retries += 1;
        let delay =
            self.res.failures.restart_overhead_secs + self.res.policy.backoff_delay_secs(retry);
        self.counters.recovery += delay;
        Ok(Some((now + SimDuration::from_secs(delay), ri, gen)))
    }

    /// Re-schedules the running attempt's Finish under a new slowdown.
    fn reproject(&mut self, ri: usize, now: SimTime, new_slowdown: f64) {
        self.update_progress(ri, now);
        let r = &mut self.replicas[ri];
        r.attempt.slowdown = new_slowdown;
        r.gen += 1;
        let gen = r.gen;
        let left = r.attempt.total_eff - r.attempt.done_eff;
        let at = r.attempt.last_update + left * new_slowdown;
        self.push_finish(ri, gen, at);
    }
}
