//! Transfer staging: FIFO link contention, transfer-arrival math and
//! the data-product residency cache. The single copy shared by every
//! execution path.

use helios_platform::{DeviceId, Platform};
use helios_sim::{SimDuration, SimTime};
use helios_workflow::TaskId;

use crate::error::EngineError;
use crate::report::TransferStats;

/// Per-link FIFO state for contention modeling.
#[derive(Debug, Clone)]
pub(crate) struct LinkState {
    free_at: Vec<SimTime>,
}

impl LinkState {
    pub(crate) fn new(platform: &Platform) -> LinkState {
        LinkState {
            free_at: vec![SimTime::ZERO; platform.interconnect().links().len()],
        }
    }

    /// Computes the arrival time of a transfer over an explicit `route`
    /// whose duration is stretched by `scale` (≥ 1 while any crossed
    /// link is bandwidth-degraded), updating link occupancy when
    /// contention is enabled. The resilient runner uses this to route
    /// around — or crawl across — faulty links; an empty route is a
    /// same-device transfer and costs nothing.
    #[allow(clippy::too_many_arguments)] // mirrors transfer_arrival plus route + scale
    pub(crate) fn transfer_arrival_on_route(
        &mut self,
        platform: &Platform,
        contention: bool,
        bytes: f64,
        route: &[helios_platform::LinkId],
        ready: SimTime,
        scale: f64,
        stats: &mut TransferStats,
    ) -> Result<SimTime, EngineError> {
        if route.is_empty() {
            return Ok(ready);
        }
        let ic = platform.interconnect();
        let mut latency = SimDuration::ZERO;
        let mut min_bw = f64::INFINITY;
        for &id in route {
            let link = ic.link(id)?;
            latency += link.latency();
            min_bw = min_bw.min(link.bandwidth_gbs());
        }
        let duration = (latency + SimDuration::from_secs(bytes / (min_bw * 1e9))) * scale;
        let start = if contention {
            let mut start = ready;
            for link in route {
                start = start.max(self.free_at[link.0]);
            }
            let arrival = start + duration;
            for link in route {
                self.free_at[link.0] = arrival;
            }
            start
        } else {
            ready
        };
        let arrival = start + duration;
        stats.count += 1;
        stats.bytes += bytes;
        stats.total_secs += duration.as_secs();
        Ok(arrival)
    }

    /// Computes the arrival time of a transfer leaving `from` at `ready`
    /// toward `to`, updating link occupancy when contention is enabled.
    /// Given a recording trace and the edge's (source, destination)
    /// tasks, records a `src->dst` transfer span on it (track = first
    /// link of the route); the label is rendered only then.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn transfer_arrival(
        &mut self,
        platform: &Platform,
        contention: bool,
        bytes: f64,
        from: DeviceId,
        to: DeviceId,
        ready: SimTime,
        stats: &mut TransferStats,
        trace: Option<(&mut helios_sim::trace::Trace, TaskId, TaskId)>,
    ) -> Result<SimTime, EngineError> {
        if from == to {
            return Ok(ready);
        }
        let duration = platform.transfer_time(bytes, from, to)?;
        let start = if contention {
            let route = platform.interconnect().route(from, to)?;
            let mut start = ready;
            for link in &route {
                start = start.max(self.free_at[link.0]);
            }
            let arrival = start + duration;
            for link in route {
                self.free_at[link.0] = arrival;
            }
            start
        } else {
            ready
        };
        let arrival = start + duration;
        stats.count += 1;
        stats.bytes += bytes;
        stats.total_secs += duration.as_secs();
        if let Some((trace, src, dst)) = trace {
            let track = platform
                .interconnect()
                .route(from, to)?
                .first()
                .map_or(0, |l| l.0);
            trace.record(
                format!("{src}->{dst}"),
                helios_sim::trace::TraceKind::Transfer,
                track,
                start,
                arrival,
            );
        }
        Ok(arrival)
    }
}

/// Data-product residency for `data_caching`: the instant each
/// producer's product is (or will be) available on each device, so a
/// product is shipped to a device at most once. Disabled, every lookup
/// misses and every record is a no-op, so the cache can be threaded
/// through unconditionally.
///
/// Residency is a task-major paged arena — one lazily-allocated
/// device-indexed page per producer — so the per-step `lookup`/`record`/
/// `has` calls are O(1) array indexing instead of a `BTreeMap` walk over
/// `(TaskId, DeviceId)` keys, and [`surviving_copy`] scans one page
/// instead of the whole map. Pages only exist for tasks that have
/// actually produced something, so a 10⁵-task run with caching disabled
/// costs one empty `Vec`.
///
/// [`surviving_copy`]: DeliveredCache::surviving_copy
#[derive(Debug, Default)]
pub(crate) struct DeliveredCache {
    enabled: bool,
    num_devices: usize,
    /// `pages[task][device]` = availability instant, `None` when absent.
    pages: Vec<Option<Box<[Option<SimTime>]>>>,
}

impl DeliveredCache {
    pub(crate) fn new(enabled: bool, num_tasks: usize, num_devices: usize) -> DeliveredCache {
        DeliveredCache {
            enabled,
            num_devices,
            pages: if enabled {
                let mut v = Vec::new();
                v.resize_with(num_tasks, || None);
                v
            } else {
                Vec::new()
            },
        }
    }

    /// The availability instant of `src`'s product on `dev`, if cached.
    pub(crate) fn lookup(&self, src: TaskId, dev: DeviceId) -> Option<SimTime> {
        self.pages.get(src.0)?.as_ref()?.get(dev.0).copied()?
    }

    /// Records that `src`'s product reaches `dev` at `at`.
    pub(crate) fn record(&mut self, src: TaskId, dev: DeviceId, at: SimTime) {
        if !self.enabled {
            return;
        }
        let num_devices = self.num_devices;
        let page =
            self.pages[src.0].get_or_insert_with(|| vec![None; num_devices].into_boxed_slice());
        page[dev.0] = Some(at);
    }

    /// Whether `src`'s product is resident (or en route) on `dev`.
    pub(crate) fn has(&self, src: TaskId, dev: DeviceId) -> bool {
        self.lookup(src, dev).is_some()
    }

    /// Drops every copy held on a device `is_up` rejects (permanent
    /// device loss destroys resident products).
    pub(crate) fn purge_lost(&mut self, is_up: impl Fn(DeviceId) -> bool) {
        for page in self.pages.iter_mut().flatten() {
            for (d, slot) in page.iter_mut().enumerate() {
                if slot.is_some() && !is_up(DeviceId(d)) {
                    *slot = None;
                }
            }
        }
    }

    /// The surviving copy of `src`'s product picked for lineage
    /// recovery, as `(device index, availability instant)`: earliest
    /// availability first, lowest device index on ties — the copy that
    /// unblocks re-staging soonest, deterministically.
    pub(crate) fn surviving_copy(&self, src: TaskId) -> Option<(usize, SimTime)> {
        let page = self.pages.get(src.0)?.as_ref()?;
        page.iter()
            .enumerate()
            .filter_map(|(d, at)| at.map(|at| (d, at)))
            .min_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn cache_is_inert_when_disabled() {
        let mut c = DeliveredCache::new(false, 4, 2);
        c.record(TaskId(0), DeviceId(1), t(1.0));
        assert_eq!(c.lookup(TaskId(0), DeviceId(1)), None);
        assert!(!c.has(TaskId(0), DeviceId(1)));
        assert_eq!(c.surviving_copy(TaskId(0)), None);
    }

    #[test]
    fn record_lookup_purge_roundtrip() {
        let mut c = DeliveredCache::new(true, 3, 3);
        c.record(TaskId(1), DeviceId(0), t(2.0));
        c.record(TaskId(1), DeviceId(2), t(1.0));
        assert_eq!(c.lookup(TaskId(1), DeviceId(0)), Some(t(2.0)));
        assert!(c.has(TaskId(1), DeviceId(2)));
        assert!(!c.has(TaskId(1), DeviceId(1)));
        assert!(!c.has(TaskId(0), DeviceId(0)));
        c.purge_lost(|d| d.0 != 2);
        assert!(!c.has(TaskId(1), DeviceId(2)));
        assert_eq!(c.lookup(TaskId(1), DeviceId(0)), Some(t(2.0)));
    }

    /// Regression for the lineage-recovery tie-break: the pick is the
    /// copy available *earliest*, with the device index only breaking
    /// exact-time ties — not the lowest device regardless of when its
    /// copy lands.
    #[test]
    fn surviving_copy_prefers_earliest_then_lowest_device() {
        let mut c = DeliveredCache::new(true, 2, 3);
        // Device 0 holds a late copy, device 2 an early one.
        c.record(TaskId(0), DeviceId(0), t(9.0));
        c.record(TaskId(0), DeviceId(2), t(3.0));
        assert_eq!(c.surviving_copy(TaskId(0)), Some((2, t(3.0))));
        // Exact-time tie: lowest device wins.
        c.record(TaskId(0), DeviceId(1), t(3.0));
        assert_eq!(c.surviving_copy(TaskId(0)), Some((1, t(3.0))));
        assert_eq!(c.surviving_copy(TaskId(1)), None);
    }
}
