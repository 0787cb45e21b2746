//! Per-device busy-interval timelines with insertion-based placement.
//!
//! A timeline is a sorted list of disjoint busy intervals. Once it holds
//! [`INDEX_FROM`] intervals it also keeps a block index: for each block
//! of [`BLOCK`] consecutive intervals, the widest gap before one of them
//! (from the previous interval's finish to its start) and the block's
//! last start. The gap search skips a block only when no gap in it,
//! widened by a rounding margin, can hold the task, and scans every
//! other interval one by one, so it returns what a plain scan from the
//! first interval would, bit for bit. The short timelines of small
//! workflows never build the index and pay nothing for it.

use helios_sim::{SimDuration, SimTime};
use helios_workflow::TaskId;

/// Intervals per block of a timeline's index.
const BLOCK: usize = 32;

/// The interval count from which a timeline keeps its block index. Below
/// it a scan is short, and keeping the index would cost more than it
/// saves.
const INDEX_FROM: usize = 2 * BLOCK;

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
    /// The block index, empty below [`INDEX_FROM`] intervals: for the
    /// `b`-th block of [`BLOCK`] intervals, the widest gap `start_i −
    /// finish_{i−1}` over its intervals `i` (the first interval's gap
    /// runs from time zero), and its last start, both in seconds.
    blocks: Vec<(f64, f64)>,
}

/// Whether no interval of a block whose widest gap is `gap` and whose
/// last start is `last` can host a task of `duration`, all in seconds.
/// The scan reaches a block's interval `i` with a candidate `c ≥
/// finish_{i−1}`, and floating-point addition is monotone, so the task
/// fits there only if `finish_{i−1} + duration ≤ start_i` in floating
/// point, which needs `duration ≤ g_i + u·(finish_{i−1} + duration)` for
/// the exact gap `g_i` and unit roundoff `u`. `gap` is within `u·g_i` of
/// `g_i`, and `g_i ≤ start_i ≤ last`, so a fit needs `duration` within
/// about `5u·max(last, duration)` of `gap`; the margin of `16u` covers
/// that three times over, rounding of this test included.
fn too_narrow(gap: f64, last: f64, duration: f64) -> bool {
    gap + 8.0 * f64::EPSILON * last.max(duration) < duration
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
        #[cfg(test)]
        crate::probe::count(crate::probe::Site::Scan);
        let len = self.busy.len();
        let mut candidate = ready;
        let mut at = first;
        loop {
            // Scan to the end of the current block (of the timeline, when
            // it keeps no index) one interval at a time.
            let end = if self.blocks.is_empty() {
                len
            } else {
                ((at / BLOCK + 1) * BLOCK).min(len)
            };
            for &(start, finish) in &self.busy[at..end] {
                #[cfg(test)]
                crate::probe::count(crate::probe::Site::Visit);
                if candidate + duration <= start {
                    return candidate;
                }
                candidate = candidate.max(finish);
            }
            if end == len {
                return candidate;
            }
            // The candidate is now at least the last finish scanned, so
            // a block too narrow for the task only raises it to its own
            // last finish.
            let mut block = end / BLOCK;
            while let Some(&(gap, last)) = self.blocks.get(block) {
                if !too_narrow(gap, last, duration.as_secs()) {
                    break;
                }
                block += 1;
                candidate = candidate.max(self.busy[(block * BLOCK).min(len) - 1].1);
            }
            at = block * BLOCK;
            if at >= len {
                return candidate;
            }
        }
    }

    /// Brings the block index up to date after a change at interval
    /// `from` and beyond: the blocks before `from`'s are untouched, the
    /// rest are recomputed. Drops the index below [`INDEX_FROM`]
    /// intervals and builds it whole on reaching that count.
    fn reindex(&mut self, from: usize) {
        if self.busy.len() < INDEX_FROM {
            self.blocks.clear();
            return;
        }
        let block = if self.blocks.is_empty() {
            0
        } else {
            from / BLOCK
        };
        self.blocks.truncate(block);
        let at = block * BLOCK;
        let mut prev = at.checked_sub(1).map_or(0.0, |i| self.busy[i].1.as_secs());
        for chunk in self.busy[at..].chunks(BLOCK) {
            let mut gap = 0.0f64;
            for &(start, finish) in chunk {
                gap = gap.max(start.as_secs() - prev);
                prev = finish.as_secs();
            }
            let last = chunk[chunk.len() - 1].0.as_secs();
            self.blocks.push((gap, last));
        }
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
        self.reindex(idx);
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
        self.reindex(idx);
    }

    /// Makes this timeline hold `source`'s intervals whose tags `keep`
    /// accepts, in order, and `kept` their tags, keeping both
    /// allocations; `tags[i]` tags `source`'s `i`-th interval. A
    /// subsequence of a sorted, disjoint list is one too. The copy is
    /// compacted in place without a branch on `keep`, whose verdicts
    /// follow no pattern, and its block index is built afresh.
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
        self.reindex(0);
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

    /// The block index of `busy` computed from scratch: nothing below
    /// [`INDEX_FROM`] intervals, else per block of [`BLOCK`] intervals
    /// the widest gap before one of them and the last start.
    fn index_of(busy: &[(SimTime, SimTime)]) -> Vec<(f64, f64)> {
        if busy.len() < INDEX_FROM {
            return Vec::new();
        }
        let gaps: Vec<f64> = (0..busy.len())
            .map(|i| busy[i].0.as_secs() - if i == 0 { 0.0 } else { busy[i - 1].1.as_secs() })
            .collect();
        gaps.chunks(BLOCK)
            .zip(busy.chunks(BLOCK))
            .map(|(g, b)| {
                (
                    g.iter().fold(0.0f64, |a, &x| a.max(x)),
                    b[b.len() - 1].0.as_secs(),
                )
            })
            .collect()
    }

    /// A sorted, disjoint timeline from steps that each encode a gap
    /// (`step / 3`) and a length (`step % 3`) in `unit` seconds: zero
    /// gaps make back-to-back intervals and zero lengths make
    /// zero-length ones, and a `unit` of 0.1 makes times that are no
    /// dyadic fractions and gather rounding as they add up. Built
    /// directly, with its block index from 64 intervals, so these tests
    /// do not lean on `reserve`; `reserve` builds the same list from the
    /// same intervals in any order (see `reserve_equals_a_sorted_insert`).
    fn timeline_of(steps: &[u8], unit: f64) -> DeviceTimeline {
        let mut busy = Vec::with_capacity(steps.len());
        let mut at = 0.0;
        for &step in steps {
            let (gap, len) = (step / 3, step % 3);
            let start = at + f64::from(gap) * unit;
            at = start + f64::from(len) * unit;
            busy.push((t(start), t(at)));
        }
        let mut tl = DeviceTimeline {
            busy,
            blocks: Vec::new(),
        };
        tl.reindex(0);
        tl
    }

    /// The gap before `busy[i]` (from time zero for the first), as a
    /// duration, or one ulp shorter (`width` 0) or longer (`width` 2):
    /// the durations at the edge of fitting that the index's rounding
    /// margin must never skip.
    fn gap_width(busy: &[(SimTime, SimTime)], i: usize, width: u8) -> SimDuration {
        let prev = if i == 0 { 0.0 } else { busy[i - 1].1.as_secs() };
        let gap = busy[i].0.as_secs() - prev;
        d(match width {
            0 => gap.next_down().max(0.0),
            1 => gap,
            _ => gap.next_up(),
        })
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
            let tl = timeline_of(&steps, 0.5);
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
        fn indexed_search_equals_the_linear_scan(
            steps in prop::collection::vec(0u8..15, 0..400),
            queries in prop::collection::vec(0u64..u64::MAX, 1..48),
        ) {
            let tl = timeline_of(&steps, 0.1);
            prop_assert_eq!(&tl.blocks, &index_of(tl.busy_intervals()));
            let busy = tl.busy_intervals();
            for query in queries {
                // Each draw encodes where `ready` is, the duration's kind,
                // and which intervals they refer to.
                let (at, width) = (query % 4, (query / 4 % 4) as u8);
                let pick = (query / 16) as usize;
                let (i, j) = (pick % busy.len().max(1), (pick / 7) % busy.len().max(1));
                // `ready` at zero, on either end of an interval, or
                // inside one; the duration a gap, an ulp either side of
                // it, or twice it.
                let ready = match (at, busy.get(i)) {
                    (_, None) | (0, _) => SimTime::ZERO,
                    (1, Some(&(s, _))) => s,
                    (2, Some(&(_, f))) => f,
                    (_, Some(&(s, f))) => t((s.as_secs() + f.as_secs()) / 3.0),
                };
                let duration = match (width, busy.is_empty()) {
                    (_, true) => d(0.1),
                    (3, false) => gap_width(busy, j, 1) + gap_width(busy, j, 1),
                    (w, false) => gap_width(busy, j, w),
                };
                prop_assert_eq!(
                    tl.earliest_start(ready, duration, true),
                    linear_earliest_start(&tl, ready, duration),
                    "ready {:?}, duration {:?}", ready, duration
                );
            }
        }

        #[test]
        fn release_removes_the_first_exact_match(
            steps in prop::collection::vec(0u8..9, 1..400),
            pick: usize,
        ) {
            let mut tl = timeline_of(&steps, 0.1);
            let mut want = tl.busy_intervals().to_vec();
            let (start, finish) = want[pick % want.len()];
            let idx = want
                .iter()
                .position(|&(s, f)| s == start && f == finish)
                .expect("reserved interval");
            want.remove(idx);
            tl.release(start, finish);
            prop_assert_eq!(tl.busy_intervals(), &want[..]);
            prop_assert_eq!(&tl.blocks, &index_of(&want));
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
            intervals in prop::collection::vec(0u16..2400, 0..400),
        ) {
            // Each draw encodes a start (`/ 3`) on a grid of tenths of a
            // second and a length (`% 3`) of 0 to 0.2 s: equal starts,
            // zero-length intervals, back-to-back ones and ones an ulp
            // apart, appends (the fast path) and insertions before the
            // last, on timelines long enough to be indexed.
            let mut tl = DeviceTimeline::new();
            let mut want = Vec::new();
            for interval in intervals {
                let (start, len) = (interval / 3, interval % 3);
                let start = f64::from(start) * 0.1;
                let (start, finish) = (t(start), t(start + f64::from(len) * 0.1));
                let expected = sorted_insert(&mut want, start, finish);
                let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    tl.reserve(start, finish)
                }))
                .ok();
                prop_assert_eq!(got, expected, "reserve({:?}, {:?})", start, finish);
                prop_assert_eq!(tl.busy_intervals(), &want[..]);
            }
            prop_assert_eq!(&tl.blocks, &index_of(&want));
        }

        #[test]
        fn the_index_follows_reserve_release_and_copy_kept(
            ops in prop::collection::vec(0u64..u64::MAX, 0..800),
        ) {
            // Mostly reservations where the search puts them, some
            // releases, and now and then a copy of all but about one in
            // sixteen intervals into a reused timeline, so timelines grow
            // to a few hundred intervals; after each, the index must be
            // the one built from scratch and searches must equal the scan.
            let (mut tl, mut spare) = (DeviceTimeline::new(), DeviceTimeline::new());
            let mut tags = Vec::new();
            let mut want: Vec<(SimTime, SimTime)> = Vec::new();
            for op in ops {
                // Each draw encodes the operation, a duration in tenths
                // of a second, and which intervals it refers to.
                let (kind, tenths) = (op % 40, (op / 40 % 30) as u8);
                let pick = (op / 1200) as usize;
                let some = |n: usize| pick % n.max(1);
                match kind {
                    0..=29 => {
                        let ready = want.get(some(want.len())).map_or(SimTime::ZERO, |&(s, f)| {
                            if pick.is_multiple_of(2) { s } else { f }
                        });
                        let duration = if tenths < 3 && !want.is_empty() {
                            gap_width(&want, some(want.len() + 7) % want.len(), tenths)
                        } else {
                            d(f64::from(tenths) * 0.1)
                        };
                        let start = tl.earliest_start(ready, duration, true);
                        prop_assert_eq!(start, linear_earliest_start(&tl, ready, duration));
                        let finish = start + duration;
                        prop_assert_eq!(tl.reserve(start, finish), sorted_insert(&mut want, start, finish).unwrap());
                    }
                    30..=37 if !want.is_empty() => {
                        let (start, finish) = want.remove(some(want.len()));
                        tl.release(start, finish);
                    }
                    _ => {
                        let ids: Vec<TaskId> = (0..want.len()).map(TaskId).collect();
                        let keep = |t: TaskId| !(t.0 ^ pick).is_multiple_of(16);
                        spare.copy_kept(&mut tags, &tl, &ids, keep);
                        std::mem::swap(&mut tl, &mut spare);
                        let mut i = 0;
                        want.retain(|_| {
                            i += 1;
                            keep(TaskId(i - 1))
                        });
                    }
                }
                prop_assert_eq!(tl.busy_intervals(), &want[..]);
                prop_assert_eq!(&tl.blocks, &index_of(&want));
            }
        }
    }

    #[test]
    fn scan_counts_witness() {
        // montage 2000/0 on workstation: [gap scans, visited intervals]
        // of each insertion planner's whole run. Without the block index
        // the same scans visit 809,897, 880,587 and 245,771 intervals.
        use crate::{HeftScheduler, OlbScheduler, RoundRobinScheduler, Scheduler};
        let p = helios_platform::presets::workstation();
        let wf = helios_workflow::generators::montage(2000, 0).unwrap();
        let planners: [(&str, Box<dyn Scheduler>); 3] = [
            ("heft", Box::new(HeftScheduler::default())),
            ("olb", Box::new(OlbScheduler::default())),
            ("round-robin", Box::new(RoundRobinScheduler::default())),
        ];
        crate::probe::take();
        let mut got = Vec::new();
        for (name, planner) in planners {
            planner.schedule(&wf, &p).unwrap();
            let [.., scans, visited, _] = crate::probe::take();
            got.push((name, scans, visited));
        }
        assert_eq!(
            got,
            [
                ("heft", 5908, 111_080),
                ("olb", 5970, 118_973),
                ("round-robin", 1778, 31_580)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "unreserved")]
    fn releasing_an_unreserved_interval_panics() {
        let mut tl = DeviceTimeline::new();
        tl.reserve(t(1.0), t(2.0));
        tl.release(t(1.0), t(3.0));
    }
}
