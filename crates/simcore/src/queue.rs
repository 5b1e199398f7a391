//! The event queue: a stable min-priority queue keyed by [`SimTime`].
//!
//! Events that share a timestamp are delivered in insertion order. This is
//! load-bearing for reproducibility: many simulation steps (e.g. a burst
//! completing and a new request arriving) legitimately coincide, and the
//! substrate models must observe them in a deterministic order.
//!
//! The queue is a binary heap plus a one-entry *front slot* that caches
//! the earliest pending event. The common simulation step "pop one event,
//! push a follow-up sooner than everything else queued" (a CPU burst
//! completing and the next burst of the same spin loop) then never
//! touches the heap: the pop empties the slot and the push refills it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A stable min-priority queue of timestamped events.
///
/// ```
/// use asyncinv_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_micros(5), "b");
/// q.push(SimTime::from_micros(5), "c");
/// q.push(SimTime::from_micros(1), "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The earliest pending event, when it is known without a heap
    /// operation. Invariant: when occupied, it orders before every entry
    /// in `heap`.
    front: Option<Entry<E>>,
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the BinaryHeap (a max-heap) pops the earliest entry.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            front: None,
            heap: BinaryHeap::with_capacity(cap),
            seq: 0,
        }
    }

    /// Enqueues `event` for delivery at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry { time, seq, event };
        // `entry` carries the largest sequence number yet, so it orders
        // strictly first only when its time is strictly earlier; an
        // equal-time push queues behind (FIFO).
        match &self.front {
            Some(front) if time < front.time => {
                let displaced = self.front.replace(entry);
                self.heap.extend(displaced);
            }
            Some(_) => self.heap.push(entry),
            None if self.heap.peek().is_none_or(|top| time < top.time) => {
                self.front = Some(entry);
            }
            None => self.heap.push(entry),
        }
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.front
            .take()
            .or_else(|| self.heap.pop())
            .map(|e| (e.time, e.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.front
            .as_ref()
            .or_else(|| self.heap.peek())
            .map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.front.is_some())
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.front.is_none() && self.heap.is_empty()
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.front = None;
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<I: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: I) {
        for (t, e) in iter {
            self.push(t, e);
        }
    }
}

impl<E> FromIterator<(SimTime, E)> for EventQueue<E> {
    fn from_iter<I: IntoIterator<Item = (SimTime, E)>>(iter: I) -> Self {
        let mut q = EventQueue::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(7);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            let (pt, e) = q.pop().unwrap();
            assert_eq!(pt, t);
            assert_eq!(e, i);
        }
    }

    #[test]
    fn fifo_survives_interleaved_pops() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        q.push(t, 'a');
        q.push(t, 'b');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.push(t, 'c');
        assert_eq!(q.pop().unwrap().1, 'b');
        assert_eq!(q.pop().unwrap().1, 'c');
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_nanos(9), ());
        q.push(SimTime::from_nanos(4), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(4)));
    }

    #[test]
    fn front_slot_paths_keep_the_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(50), 'c'); // empty queue: into the slot
        q.push(SimTime::from_nanos(20), 'a'); // ahead of the slot: displaces it
        q.push(SimTime::from_nanos(20), 'b'); // ties the slot: FIFO behind it
        q.push(SimTime::from_nanos(90), 'd'); // behind everything: heap
        assert_eq!((q.len(), q.peek_time()), (4, Some(SimTime::from_nanos(20))));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), 'a')));
        // Slot empty: a push ahead of the heap top takes the slot.
        q.push(SimTime::from_nanos(10), 'z');
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(10)));
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, ['z', 'b', 'c', 'd']);
    }

    #[test]
    fn len_and_clear() {
        let mut q: EventQueue<u8> = (0..5).map(|i| (SimTime::from_nanos(i), i as u8)).collect();
        assert_eq!(q.len(), 5);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_nanos(3), 9);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(3), 9)));
    }
}
