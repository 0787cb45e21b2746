//! Per-device busy-interval timelines with insertion-based placement.

use helios_sim::{SimDuration, SimTime};
use helios_workflow::TaskId;

/// The reservation timeline of one device: a list of disjoint busy
/// intervals sorted by (start, finish). Supports the two placement
/// policies of the list-scheduling literature:
///
/// * **insertion** — a task may fill an idle gap between existing
///   reservations (HEFT's insertion policy),
/// * **append** — a task may only start after the last reservation.
///
/// # Examples
///
/// ```
/// use helios_sched::DeviceTimeline;
/// use helios_sim::{SimDuration, SimTime};
///
/// let mut tl = DeviceTimeline::new();
/// tl.reserve(SimTime::from_secs(0.0), SimTime::from_secs(2.0));
/// tl.reserve(SimTime::from_secs(5.0), SimTime::from_secs(6.0));
/// // A 1-second task ready at t=1 fits in the [2, 5) gap.
/// let start = tl.earliest_start(SimTime::from_secs(1.0),
///                               SimDuration::from_secs(1.0), true);
/// assert_eq!(start.as_secs(), 2.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DeviceTimeline {
    /// Disjoint busy intervals, sorted by (start, finish). Only
    /// zero-length intervals can share a start with another, and they
    /// sort first, so the finishes never decrease either.
    busy: Vec<(SimTime, SimTime)>,
}

impl DeviceTimeline {
    /// Creates an empty timeline.
    #[must_use]
    pub fn new() -> DeviceTimeline {
        DeviceTimeline::default()
    }

    /// The busy intervals, sorted by (start, finish).
    #[must_use]
    pub fn busy_intervals(&self) -> &[(SimTime, SimTime)] {
        &self.busy
    }

    /// Finish time of the last reservation ([`SimTime::ZERO`] when empty).
    #[must_use]
    pub fn ready_time(&self) -> SimTime {
        self.busy.last().map_or(SimTime::ZERO, |&(_, f)| f)
    }

    /// The earliest start ≥ `ready` at which a task of length `duration`
    /// fits. With `insertion`, idle gaps between reservations are
    /// candidates; without it, only the region after the last reservation.
    #[must_use]
    pub fn earliest_start(
        &self,
        ready: SimTime,
        duration: SimDuration,
        insertion: bool,
    ) -> SimTime {
        if !insertion {
            return self.ready_time().max(ready);
        }
        // The intervals are disjoint and sorted by start, so their
        // finishes never decrease: the intervals finishing by `ready`
        // are a prefix. None of them can host the task before `ready`
        // nor push the candidate past it, so the scan starts after them.
        // Both ends are checked before the binary search: often every
        // interval finishes by `ready`, or none does.
        let first = match self.busy.last() {
            None => return ready,
            Some(&(_, last)) if last <= ready => return ready,
            Some(_) if self.busy[0].1 > ready => 0,
            Some(_) => self.busy.partition_point(|&(_, f)| f <= ready),
        };
        let mut candidate = ready;
        for &(start, finish) in &self.busy[first..] {
            if candidate + duration <= start {
                return candidate;
            }
            candidate = candidate.max(finish);
        }
        candidate
    }

    /// Reserves `[start, finish)` and returns its index in
    /// [`DeviceTimeline::busy_intervals`]. The interval goes after every
    /// one that sorts at or before it; list scheduling mostly appends, so
    /// the last interval is compared first and an append costs O(1).
    ///
    /// # Panics
    ///
    /// Panics if the interval is inverted or overlaps an existing
    /// reservation — callers must only reserve what
    /// [`DeviceTimeline::earliest_start`] returned.
    pub fn reserve(&mut self, start: SimTime, finish: SimTime) -> usize {
        assert!(start <= finish, "inverted reservation {start}..{finish}");
        let interval = (start, finish);
        let idx = match self.busy.last() {
            Some(&last) if last > interval => self.busy.partition_point(|&b| b <= interval),
            _ => self.busy.len(),
        };
        let no_overlap_prev = idx == 0 || self.busy[idx - 1].1 <= start;
        let no_overlap_next = idx == self.busy.len() || finish <= self.busy[idx].0;
        assert!(
            no_overlap_prev && no_overlap_next,
            "reservation {start}..{finish} overlaps an existing interval"
        );
        self.busy.insert(idx, interval);
        idx
    }

    /// Releases a previously reserved `[start, finish)` interval.
    ///
    /// # Panics
    ///
    /// Panics if the exact interval is not currently reserved — releases
    /// must mirror earlier [`DeviceTimeline::reserve`] calls.
    pub fn release(&mut self, start: SimTime, finish: SimTime) {
        let idx = self.busy.partition_point(|&b| b < (start, finish));
        if self.busy.get(idx) != Some(&(start, finish)) {
            panic!("release of unreserved interval {start}..{finish}");
        }
        self.busy.remove(idx);
    }

    /// Makes this timeline hold `source`'s intervals whose tags `keep`
    /// accepts, in order, and `kept` their tags, keeping both
    /// allocations; `tags[i]` tags `source`'s `i`-th interval. A
    /// subsequence of a sorted, disjoint list is one too. The copy is
    /// compacted in place without a branch on `keep`, whose verdicts
    /// follow no pattern.
    pub(crate) fn copy_kept(
        &mut self,
        kept: &mut Vec<TaskId>,
        source: &DeviceTimeline,
        tags: &[TaskId],
        keep: impl Fn(TaskId) -> bool,
    ) {
        debug_assert_eq!(source.busy.len(), tags.len());
        self.busy.clone_from(&source.busy);
        kept.clear();
        kept.extend_from_slice(tags);
        let mut len = 0;
        for (i, &tag) in tags.iter().enumerate() {
            self.busy[len] = self.busy[i];
            kept[len] = tag;
            len += usize::from(keep(tag));
        }
        self.busy.truncate(len);
        kept.truncate(len);
    }

    /// Total busy time.
    #[must_use]
    pub fn busy_time(&self) -> SimDuration {
        self.busy.iter().map(|&(s, f)| f.saturating_since(s)).sum()
    }

    /// Number of reservations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.busy.len()
    }

    /// Returns `true` when nothing is reserved.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.busy.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn empty_timeline_starts_at_ready() {
        let tl = DeviceTimeline::new();
        assert_eq!(tl.earliest_start(t(3.0), d(1.0), true), t(3.0));
        assert_eq!(tl.earliest_start(t(3.0), d(1.0), false), t(3.0));
        assert_eq!(tl.ready_time(), SimTime::ZERO);
        assert!(tl.is_empty());
    }

    #[test]
    fn insertion_finds_gap() {
        let mut tl = DeviceTimeline::new();
        tl.reserve(t(0.0), t(2.0));
        tl.reserve(t(5.0), t(6.0));
        // Fits in [2, 5).
        assert_eq!(tl.earliest_start(t(0.0), d(3.0), true), t(2.0));
        // Too long for the gap: goes after the end.
        assert_eq!(tl.earliest_start(t(0.0), d(4.0), true), t(6.0));
        // Ready time inside the gap.
        assert_eq!(tl.earliest_start(t(3.0), d(1.0), true), t(3.0));
        // Without insertion: always after the last interval.
        assert_eq!(tl.earliest_start(t(0.0), d(0.5), false), t(6.0));
    }

    #[test]
    fn gap_respects_ready_time() {
        let mut tl = DeviceTimeline::new();
        tl.reserve(t(0.0), t(1.0));
        tl.reserve(t(2.0), t(3.0));
        // Gap [1,2) exists but task only ready at 1.5 and needs 1s: no fit.
        assert_eq!(tl.earliest_start(t(1.5), d(1.0), true), t(3.0));
        // Needs 0.5s: fits at 1.5.
        assert_eq!(tl.earliest_start(t(1.5), d(0.5), true), t(1.5));
    }

    #[test]
    fn reserve_maintains_sorted_disjoint() {
        let mut tl = DeviceTimeline::new();
        tl.reserve(t(5.0), t(6.0));
        tl.reserve(t(0.0), t(1.0));
        tl.reserve(t(2.0), t(3.0));
        let starts: Vec<f64> = tl
            .busy_intervals()
            .iter()
            .map(|&(s, _)| s.as_secs())
            .collect();
        assert_eq!(starts, vec![0.0, 2.0, 5.0]);
        assert_eq!(tl.busy_time(), d(3.0));
        assert_eq!(tl.len(), 3);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_reserve_panics() {
        let mut tl = DeviceTimeline::new();
        tl.reserve(t(0.0), t(2.0));
        tl.reserve(t(1.0), t(3.0));
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_reserve_before_the_last_panics() {
        let mut tl = DeviceTimeline::new();
        tl.reserve(t(2.0), t(4.0));
        tl.reserve(t(1.0), t(3.0));
    }

    #[test]
    fn zero_length_reservations_allowed() {
        let mut tl = DeviceTimeline::new();
        tl.reserve(t(1.0), t(1.0));
        assert_eq!(tl.len(), 1);
        assert_eq!(tl.busy_time(), d(0.0));
        // Another task can start at the same instant.
        assert_eq!(tl.earliest_start(t(1.0), d(1.0), true), t(1.0));
    }

    /// The scan [`DeviceTimeline::earliest_start`] must reproduce: every
    /// interval from the first, none skipped.
    fn linear_earliest_start(
        tl: &DeviceTimeline,
        ready: SimTime,
        duration: SimDuration,
    ) -> SimTime {
        let mut candidate = ready;
        for &(start, finish) in tl.busy_intervals() {
            if candidate + duration <= start {
                return candidate;
            }
            candidate = candidate.max(finish);
        }
        candidate
    }

    /// A sorted, disjoint timeline from steps that each encode a gap
    /// (`step / 3`) and a length (`step % 3`) in half seconds: zero gaps
    /// make back-to-back intervals and zero lengths make zero-length
    /// ones. Built directly, so these tests do not lean on `reserve`;
    /// `reserve` builds the same list from the same intervals in any
    /// order (see `reserve_equals_a_sorted_insert`).
    fn timeline_of(steps: &[u8]) -> DeviceTimeline {
        let mut busy = Vec::with_capacity(steps.len());
        let mut at = 0.0;
        for &step in steps {
            let (gap, len) = (step / 3, step % 3);
            let start = at + f64::from(gap) * 0.5;
            at = start + f64::from(len) * 0.5;
            busy.push((t(start), t(at)));
        }
        DeviceTimeline { busy }
    }

    proptest! {
        #[test]
        fn gap_skipping_equals_the_linear_scan(
            steps in prop::collection::vec(0u8..9, 0..12),
            ready_quarters in 0u8..40,
            boundary: usize,
            on_boundary: bool,
            duration_halves in 0u8..5,
        ) {
            let tl = timeline_of(&steps);
            // Half the cases put `ready` exactly on an interval boundary.
            let boundaries: Vec<SimTime> =
                tl.busy_intervals().iter().flat_map(|&(s, f)| [s, f]).collect();
            let ready = if on_boundary && !boundaries.is_empty() {
                boundaries[boundary % boundaries.len()]
            } else {
                t(f64::from(ready_quarters) * 0.25)
            };
            let duration = d(f64::from(duration_halves) * 0.5);
            prop_assert_eq!(
                tl.earliest_start(ready, duration, true),
                linear_earliest_start(&tl, ready, duration)
            );
        }

        #[test]
        fn release_removes_the_first_exact_match(
            steps in prop::collection::vec(0u8..9, 1..12),
            pick: usize,
        ) {
            let mut tl = timeline_of(&steps);
            let mut want = tl.busy_intervals().to_vec();
            let (start, finish) = want[pick % want.len()];
            let idx = want
                .iter()
                .position(|&(s, f)| s == start && f == finish)
                .expect("reserved interval");
            want.remove(idx);
            tl.release(start, finish);
            prop_assert_eq!(tl.busy_intervals(), &want[..]);
        }
    }

    #[test]
    fn a_start_on_a_zero_length_interval_can_be_reserved() {
        // `earliest_start` offers the instant of a zero-length interval
        // to a longer task; the reservation must sort after it instead
        // of being refused as an overlap.
        let mut tl = DeviceTimeline::new();
        tl.reserve(t(1.0), t(1.0));
        let start = tl.earliest_start(t(1.0), d(1.0), true);
        assert_eq!(start, t(1.0));
        assert_eq!(tl.reserve(start, t(2.0)), 1);
        assert_eq!(tl.busy_intervals(), &[(t(1.0), t(1.0)), (t(1.0), t(2.0))]);
        // And the other way round: a zero-length interval at the start
        // of a longer one sorts before it.
        let mut tl = DeviceTimeline::new();
        tl.reserve(t(1.0), t(2.0));
        assert_eq!(tl.reserve(t(1.0), t(1.0)), 0);
        assert_eq!(tl.busy_intervals(), &[(t(1.0), t(1.0)), (t(1.0), t(2.0))]);
    }

    /// The reference `reserve` must reproduce: a linear search for the
    /// first interval sorting after the new one, and a linear overlap
    /// check against every interval; `None` where `reserve` must panic.
    fn sorted_insert(
        busy: &mut Vec<(SimTime, SimTime)>,
        start: SimTime,
        finish: SimTime,
    ) -> Option<usize> {
        // Two intervals overlap when each starts before the other ends:
        // a zero-length one overlaps only a span it lies strictly inside.
        if busy.iter().any(|&(s, f)| s < finish && start < f) {
            return None;
        }
        let idx = busy
            .iter()
            .position(|&b| b > (start, finish))
            .unwrap_or(busy.len());
        busy.insert(idx, (start, finish));
        Some(idx)
    }

    proptest! {
        #[test]
        fn reserve_equals_a_sorted_insert(
            intervals in prop::collection::vec(0u8..36, 0..24),
        ) {
            // Each draw encodes a start (`/ 3`) on a half-second grid and
            // a length (`% 3`) of 0 to 1 s: equal starts, zero-length
            // intervals, back-to-back ones, appends (the fast path) and
            // insertions before the last.
            let mut tl = DeviceTimeline::new();
            let mut want = Vec::new();
            for interval in intervals {
                let (start, len) = (interval / 3, interval % 3);
                let start = f64::from(start) * 0.5;
                let (start, finish) = (t(start), t(start + f64::from(len) * 0.5));
                let expected = sorted_insert(&mut want, start, finish);
                let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    tl.reserve(start, finish)
                }))
                .ok();
                prop_assert_eq!(got, expected, "reserve({:?}, {:?})", start, finish);
                prop_assert_eq!(tl.busy_intervals(), &want[..]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "unreserved")]
    fn releasing_an_unreserved_interval_panics() {
        let mut tl = DeviceTimeline::new();
        tl.reserve(t(1.0), t(2.0));
        tl.release(t(1.0), t(3.0));
    }
}
