//! Fault injection and repair: the handlers that turn pre-drawn
//! device, link and correlated-domain failure events into state
//! changes. An `impl` extension of [`Sim`], split out of `runner.rs` so
//! the path source holds only the hook set and the dispatcher.

use super::*;

impl Sim<'_> {
    pub(super) fn schedule_next_fault(&mut self, d: usize, now: SimTime) {
        let ev = self.process.next_after(&mut self.devs[d].rng, now);
        self.devs[d].pending_kind = Some(ev.kind);
        self.devs[d].next_fault_at = Some(ev.at);
        self.queue.push(ev.at, Ev::Fault { device: d });
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

    pub(super) fn handle_fault(&mut self, d: usize, now: SimTime) -> Result<(), EngineError> {
        self.devs[d].next_fault_at = None;
        if !self.avail.is_up(DeviceId(d)) {
            return Ok(()); // The device already failed permanently.
        }
        let kind = self.devs[d]
            .pending_kind
            .take()
            .expect("fault event without a drawn mode");
        match kind {
            FailureKind::Transient => {
                // Idle devices shrug transient faults off.
                if let Some(ri) = self.devs[d].running {
                    if self.replicas[ri].state == RState::Running {
                        self.counters.transient += 1;
                        self.abort_attempt(ri, now)?;
                    }
                }
                self.schedule_next_fault(d, now);
            }
            FailureKind::Degraded => {
                self.counters.degraded += 1;
                let factor = self.res.failures.degraded_slowdown;
                self.avail.set_degraded(DeviceId(d), factor);
                if let Some(ri) = self.devs[d].running {
                    if self.replicas[ri].state == RState::Running {
                        self.reproject(ri, now, factor);
                    }
                }
                self.devs[d].repair_seq += 1;
                let seq = self.devs[d].repair_seq;
                self.queue.push(
                    now + SimDuration::from_secs(self.res.failures.degraded_repair_secs),
                    Ev::Repair { device: d, seq },
                );
                self.schedule_next_fault(d, now);
            }
            FailureKind::Permanent => {
                self.counters.permanent += 1;
                self.handle_device_loss(d, now)?;
            }
        }
        Ok(())
    }

    pub(super) fn handle_repair(&mut self, d: usize, seq: u32, now: SimTime) {
        if self.devs[d].repair_seq != seq || !self.avail.is_up(DeviceId(d)) {
            return; // Superseded by a newer degradation, or device lost.
        }
        self.avail.repair(DeviceId(d));
        if let Some(ri) = self.devs[d].running {
            if self.replicas[ri].state == RState::Running {
                self.reproject(ri, now, 1.0);
            }
        }
    }

    pub(super) fn handle_link_fault(&mut self, l: usize, now: SimTime) {
        let link = LinkId(l);
        if self.links_avail.down_until(link).is_some() {
            // Already out. A permanently severed link ends its trace; a
            // timed outage just waits for the next draw.
            if !matches!(self.links_avail.down_until(link), Some(None)) {
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
        self.counters.link_faults += 1;
        self.link_rt[l].repair_seq += 1;
        let seq = self.link_rt[l].repair_seq;
        match kind {
            LinkFailureKind::Degraded => {
                self.links_avail.set_degraded(link, lf.degraded_factor);
                self.queue.push(
                    now + SimDuration::from_secs(lf.degraded_repair_secs),
                    Ev::LinkRepair { link: l, seq },
                );
            }
            LinkFailureKind::Outage => {
                let until = now + SimDuration::from_secs(lf.outage_secs);
                self.links_avail.set_down(link, Some(until));
                self.queue.push(until, Ev::LinkRepair { link: l, seq });
            }
        }
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

    /// Takes every member link of domain `i` down until `now +
    /// outage`, superseding pending repairs. Links that are already
    /// down — permanently severed or mid-outage — are left alone: an
    /// outage runs its configured course from its onset, it is not
    /// extended by later strikes.
    fn domain_link_outage(&mut self, i: usize, now: SimTime) {
        let until = now + self.domains_rt[i].outage;
        let links = self.domains_rt[i].link_ids.clone();
        for link in links {
            if self.links_avail.down_until(link).is_some() {
                continue;
            }
            self.links_avail.set_down(link, Some(until));
            self.link_rt[link.0].repair_seq += 1;
            let seq = self.link_rt[link.0].repair_seq;
            self.queue.push(until, Ev::LinkRepair { link: link.0, seq });
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
        match kind {
            FailureKind::Transient => {
                for &d in &member_devs {
                    if !self.avail.is_up(DeviceId(d)) {
                        continue;
                    }
                    if let Some(ri) = self.devs[d].running {
                        if self.replicas[ri].state == RState::Running {
                            self.counters.transient += 1;
                            self.abort_attempt(ri, now)?;
                        }
                    }
                }
                self.domain_link_outage(i, now);
                self.schedule_next_domain_fault(i, now);
            }
            FailureKind::Degraded => {
                let factor = self.res.failures.degraded_slowdown;
                let repair = self.res.failures.degraded_repair_secs;
                for &d in &member_devs {
                    if !self.avail.is_up(DeviceId(d)) {
                        continue;
                    }
                    self.counters.degraded += 1;
                    self.avail.set_degraded(DeviceId(d), factor);
                    if let Some(ri) = self.devs[d].running {
                        if self.replicas[ri].state == RState::Running {
                            self.reproject(ri, now, factor);
                        }
                    }
                    self.devs[d].repair_seq += 1;
                    let seq = self.devs[d].repair_seq;
                    self.queue.push(
                        now + SimDuration::from_secs(repair),
                        Ev::Repair { device: d, seq },
                    );
                }
                self.domain_link_outage(i, now);
                self.schedule_next_domain_fault(i, now);
            }
            FailureKind::Permanent => {
                // Sever member links first so recovery placement sees the
                // partition, then fail the member devices as one batch
                // (one data-loss pass, one recovery pass).
                let links = self.domains_rt[i].link_ids.clone();
                for link in links {
                    self.links_avail.set_down(link, None);
                    self.link_rt[link.0].repair_seq += 1;
                }
                let dead: Vec<usize> = member_devs
                    .iter()
                    .copied()
                    .filter(|&d| self.avail.is_up(DeviceId(d)))
                    .collect();
                self.counters.permanent += dead.len() as u32;
                self.fail_devices(&dead, now)?;
                // The domain burnt itself out: no further events.
            }
        }
        Ok(())
    }

    /// Aborts the running attempt of `ri` after a transient fault:
    /// either queues a retry (device stays held through the restart
    /// overhead and backoff) or fails the replica for good.
    fn abort_attempt(&mut self, ri: usize, now: SimTime) -> Result<(), EngineError> {
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
            let d = r.device.0;
            self.release(d);
            self.devs[d].pos += 1;
            if !self.task_has_live_replica(task) {
                return Err(EngineError::RetriesExhausted { task, attempts });
            }
            return Ok(());
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
        self.queue.push(
            now + SimDuration::from_secs(delay),
            Ev::Resume { replica: ri, gen },
        );
        Ok(())
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
