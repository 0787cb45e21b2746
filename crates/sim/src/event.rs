//! Deterministic future-event list.
//!
//! [`EventQueue`] is a min-heap keyed by `(SimTime, sequence)`. The sequence
//! number is a monotonically increasing insertion counter, which gives
//! simultaneous events a stable first-in-first-out order — a requirement for
//! reproducible simulations, since [`std::collections::BinaryHeap`] makes no
//! ordering promise for equal keys.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event stored in the [`EventQueue`], pairing a payload with its
/// scheduled activation time and insertion sequence number.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> ScheduledEvent<E> {
    /// The simulated time at which the event fires.
    #[must_use]
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// The insertion sequence number (global FIFO tie-break key).
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Borrows the event payload.
    #[must_use]
    pub fn payload(&self) -> &E {
        &self.payload
    }

    /// Consumes the entry, returning the payload.
    #[must_use]
    pub fn into_payload(self) -> E {
        self.payload
    }
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event (and
        // for ties, the earliest-inserted event) on top.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue.
///
/// Events scheduled for the same [`SimTime`] are returned in insertion
/// order. Popping never returns an event earlier than the last popped event,
/// so consumers can treat the pop sequence as the simulation clock.
///
/// # Examples
///
/// ```
/// use helios_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(5.0), "late");
/// q.push(SimTime::from_secs(1.0), "early");
/// let (t, e) = q.pop().expect("queue is non-empty");
/// assert_eq!((t.as_secs(), e), (1.0, "early"));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with space for `capacity` events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { time, seq, payload });
    }

    /// Schedules every payload in `payloads` to fire at `time`, in
    /// iterator order (consecutive sequence numbers), reserving heap
    /// space once for the whole batch.
    ///
    /// Equivalent to calling [`push`](EventQueue::push) per payload —
    /// simultaneous batch members pop FIFO in batch order — but a bulk
    /// producer (e.g. one task finish fanning out same-timestamp
    /// arrivals to all its consumers) pays one reservation instead of
    /// per-event growth checks.
    pub fn push_batch<I>(&mut self, time: SimTime, payloads: I)
    where
        I: IntoIterator<Item = E>,
    {
        let iter = payloads.into_iter();
        let (lower, _) = iter.size_hint();
        self.heap.reserve(lower);
        for payload in iter {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(ScheduledEvent { time, seq, payload });
        }
    }

    /// Consumes the sequence number an event pushed at `time` would get,
    /// without scheduling anything, and returns that `(time, sequence)`
    /// key.
    ///
    /// A producer that knows an event would pop as a no-op can skip it
    /// this way: every other event keeps its relative order, and the
    /// returned key says exactly where in the pop order the skipped
    /// event would have come (compare it with
    /// [`peek_key`](EventQueue::peek_key)).
    pub fn skip(&mut self, time: SimTime) -> (SimTime, u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        (time, seq)
    }

    /// Schedules `payload` under a key that [`skip`](EventQueue::skip)
    /// handed out earlier: it pops exactly where it would have if it had
    /// been pushed at skip time.
    ///
    /// A producer can reserve an event's place in the pop order first
    /// and decide later whether to queue it or to handle it in place
    /// (when [`precedes_all`](EventQueue::precedes_all) says nothing
    /// queued comes first).
    pub fn push_skipped(&mut self, key: (SimTime, u64), payload: E) {
        debug_assert!(key.1 < self.next_seq, "key was not handed out by skip");
        let (time, seq) = key;
        self.heap.push(ScheduledEvent { time, seq, payload });
    }

    /// Whether an event under `key` would pop before every queued event
    /// (always, when the queue is empty).
    #[must_use]
    pub fn precedes_all(&self, key: (SimTime, u64)) -> bool {
        self.peek_key().is_none_or(|head| key < head)
    }

    /// Returns the `(time, sequence)` key of the earliest pending event:
    /// the pop order is ascending in this key.
    #[must_use]
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|ev| (ev.time, ev.seq))
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|ev| (ev.time, ev.payload))
    }

    /// Returns the activation time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(ScheduledEvent::time)
    }

    /// Returns the number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Drains all events at the current head time (a simultaneous batch),
    /// in insertion order.
    ///
    /// Returns an empty vector when the queue is empty.
    pub fn pop_batch(&mut self) -> Vec<(SimTime, E)> {
        let mut batch = Vec::new();
        self.pop_batch_into(&mut batch);
        batch
    }

    /// [`pop_batch`](EventQueue::pop_batch) into a caller-owned buffer:
    /// appends the head-time batch to `buf` (which is *not* cleared) and
    /// returns how many events were drained. A consumer draining
    /// simultaneous batches every step can reuse one scratch buffer
    /// instead of allocating a fresh vector per batch.
    pub fn pop_batch_into(&mut self, buf: &mut Vec<(SimTime, E)>) -> usize {
        let Some(head) = self.peek_time() else {
            return 0;
        };
        let mut drained = 0;
        while self.peek_time() == Some(head) {
            // The loop condition guarantees the pop succeeds.
            if let Some(item) = self.pop() {
                buf.push(item);
                drained += 1;
            }
        }
        drained
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<T: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: T) {
        for (time, payload) in iter {
            self.push(time, payload);
        }
    }
}

impl<E> FromIterator<(SimTime, E)> for EventQueue<E> {
    fn from_iter<T: IntoIterator<Item = (SimTime, E)>>(iter: T) -> Self {
        let mut q = EventQueue::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3.0), 'c');
        q.push(t(1.0), 'a');
        q.push(t(2.0), 'b');
        let out: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(out, ['a', 'b', 'c']);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(1.0), i);
        }
        let out: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(t(2.0), ());
        q.push(t(1.0), ());
        assert_eq!(q.peek_time(), Some(t(1.0)));
        let (popped, ()) = q.pop().unwrap();
        assert_eq!(popped, t(1.0));
        assert_eq!(q.peek_time(), Some(t(2.0)));
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(t(0.0), ());
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn batch_drains_equal_times_only() {
        let mut q = EventQueue::new();
        q.push(t(1.0), 1);
        q.push(t(1.0), 2);
        q.push(t(2.0), 3);
        let batch = q.pop_batch();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].1, 1);
        assert_eq!(batch[1].1, 2);
        assert_eq!(q.len(), 1);
        assert!(EventQueue::<u8>::new().pop_batch().is_empty());
    }

    #[test]
    fn push_batch_matches_sequential_pushes() {
        // The batch push must be observationally identical to pushing
        // each payload in turn: same FIFO order among batch members,
        // same interleaving with singly-pushed events at the same time.
        let mut batched = EventQueue::new();
        let mut sequential = EventQueue::new();
        sequential.push(t(1.0), 0);
        batched.push(t(1.0), 0);
        sequential.push(t(1.0), 1);
        sequential.push(t(1.0), 2);
        batched.push_batch(t(1.0), [1, 2]);
        sequential.push(t(0.5), 3);
        batched.push(t(0.5), 3);
        sequential.push(t(1.0), 4);
        batched.push(t(1.0), 4);
        let a: Vec<_> = std::iter::from_fn(|| batched.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| sequential.pop()).collect();
        assert_eq!(a, b);
        assert_eq!(
            a.iter().map(|&(_, e)| e).collect::<Vec<_>>(),
            [3, 0, 1, 2, 4]
        );
    }

    #[test]
    fn pop_batch_into_reuses_the_buffer() {
        let mut q = EventQueue::new();
        q.push_batch(t(1.0), ["a", "b"]);
        q.push(t(2.0), "c");
        let mut buf = Vec::new();
        assert_eq!(q.pop_batch_into(&mut buf), 2);
        assert_eq!(buf.iter().map(|&(_, e)| e).collect::<Vec<_>>(), ["a", "b"]);
        buf.clear();
        assert_eq!(q.pop_batch_into(&mut buf), 1);
        assert_eq!(buf[0].1, "c");
        buf.clear();
        assert_eq!(q.pop_batch_into(&mut buf), 0);
        assert!(buf.is_empty());
    }

    #[test]
    fn skip_orders_like_an_unpushed_event() {
        // A skipped key sorts exactly where the event would have popped,
        // and the pushed events keep their relative order.
        let mut q = EventQueue::new();
        q.push(t(1.0), "a");
        let skipped = q.skip(t(1.0));
        q.push(t(1.0), "b");
        q.push(t(0.5), "c");
        assert_eq!(skipped, (t(1.0), 1));
        assert_eq!(q.peek_key(), Some((t(0.5), 3)));
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.peek_key().unwrap() < skipped);
        assert_eq!(q.pop().unwrap().1, "a");
        assert!(skipped < q.peek_key().unwrap());
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn push_skipped_pops_where_the_skip_was() {
        // An event pushed later under a skipped key pops exactly where
        // it would have if it had been pushed at skip time, ties with
        // earlier and later pushes at the same instant included.
        let mut late = EventQueue::new();
        let mut direct = EventQueue::new();
        late.push(t(1.0), "a");
        direct.push(t(1.0), "a");
        let key = late.skip(t(1.0));
        direct.push(t(1.0), "skipped");
        for q in [&mut late, &mut direct] {
            q.push(t(1.0), "b");
            q.push(t(0.5), "c");
        }
        assert!(!late.precedes_all(key), "c and a are queued before it");
        late.push_skipped(key, "skipped");
        let a: Vec<_> = std::iter::from_fn(|| late.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| direct.pop()).collect();
        assert_eq!(a, b);
        assert_eq!(
            a.iter().map(|&(_, e)| e).collect::<Vec<_>>(),
            ["c", "a", "skipped", "b"]
        );
    }

    #[test]
    fn precedes_all_breaks_time_ties_on_the_sequence() {
        let mut q = EventQueue::new();
        let alone = q.skip(t(9.0));
        assert!(q.precedes_all(alone), "an empty queue");
        q.push(t(1.0), ());
        let tie = q.skip(t(1.0));
        assert!(!q.precedes_all(tie), "a tie goes to the earlier push");
        let earlier = q.skip(t(0.5));
        assert!(q.precedes_all(earlier));
        let later = q.skip(t(1.5));
        assert!(!q.precedes_all(later));
    }

    proptest! {
        /// Random pushes, skips released later with `push_skipped`, and
        /// pops, at a few instants so that ties are common: the queue
        /// pops exactly like one that pushed every event at skip time.
        #[test]
        fn deferred_pushes_pop_like_immediate_ones(
            ops in prop::collection::vec(0u8..24, 0..48),
        ) {
            let mut late = EventQueue::new();
            let mut direct = EventQueue::new();
            let mut deferred = Vec::new();
            for (i, &op) in ops.iter().enumerate() {
                let at = t(f64::from(op / 4));
                match op % 4 {
                    0 => {
                        late.push(at, i);
                        direct.push(at, i);
                    }
                    1 => {
                        deferred.push((late.skip(at), i));
                        direct.push(at, i);
                    }
                    2 => {
                        if let Some((key, e)) = deferred.pop() {
                            late.push_skipped(key, e);
                        }
                    }
                    _ => {
                        // A deferred event must be queued before it is due.
                        for (key, e) in deferred.drain(..) {
                            late.push_skipped(key, e);
                        }
                        prop_assert_eq!(late.peek_key(), direct.peek_key());
                        prop_assert_eq!(late.pop(), direct.pop());
                    }
                }
            }
            for (key, e) in deferred.drain(..) {
                late.push_skipped(key, e);
            }
            let a: Vec<_> = std::iter::from_fn(|| late.pop()).collect();
            let b: Vec<_> = std::iter::from_fn(|| direct.pop()).collect();
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn from_iterator_collects() {
        let q: EventQueue<&str> = vec![(t(2.0), "b"), (t(1.0), "a")].into_iter().collect();
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(1.0)));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(t(5.0), "e");
        q.push(t(1.0), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(t(3.0), "c");
        q.push(t(2.0), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "e");
    }
}
