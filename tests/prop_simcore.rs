//! Property tests of the simulation kernel.

use asyncinv_lab::simcore::{EventQueue, SimDuration, SimRng, SimTime, Simulation};
use proptest::prelude::*;

/// The reference model of [`EventQueue`]: an unordered list of
/// `(time, seq, id)` whose pop removes the `(time, seq)` minimum.
#[derive(Default)]
struct ModelQueue {
    entries: Vec<(u64, u64, u64)>,
    seq: u64,
}

impl ModelQueue {
    fn push(&mut self, time: u64, id: u64) {
        self.entries.push((time, self.seq, id));
        self.seq += 1;
    }

    fn min_index(&self) -> Option<usize> {
        (0..self.entries.len()).min_by_key(|&i| (self.entries[i].0, self.entries[i].1))
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let (time, _, id) = self.entries.swap_remove(self.min_index()?);
        Some((SimTime::from_nanos(time), id))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.min_index()
            .map(|i| SimTime::from_nanos(self.entries[i].0))
    }
}

/// One step of a queue script; `Ahead` and `Tie` are relative to the
/// earliest pending event, so they reach the front-slot paths whatever
/// the random times are.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    /// Push at an absolute time.
    Push(u64),
    /// Push this many ns before the earliest pending event (strictly
    /// before it unless that event is at time 0).
    Ahead(u64),
    /// Push at the same time as the earliest pending event.
    Tie,
    Pop,
    Clear,
}

impl QueueOp {
    fn from_raw((kind, t): (u8, u64)) -> QueueOp {
        match kind {
            0..=5 => QueueOp::Push(1_000 + t * 7),
            6..=8 => QueueOp::Ahead(1 + t % 5),
            9..=10 => QueueOp::Tie,
            11..=14 => QueueOp::Pop,
            _ => QueueOp::Clear,
        }
    }
}

/// A fixed prologue that takes every front-slot path at least once: a
/// push into the empty queue, pushes behind it, a pop that empties the
/// slot, a push ahead of the heap top with the slot empty, a push ahead
/// of an occupied slot, a push tying the slot, and a clear.
const PROLOGUE: [QueueOp; 11] = [
    QueueOp::Push(1_100),
    QueueOp::Push(1_200),
    QueueOp::Push(1_300),
    QueueOp::Pop,
    QueueOp::Ahead(50),
    QueueOp::Ahead(30),
    QueueOp::Tie,
    QueueOp::Tie,
    QueueOp::Pop,
    QueueOp::Clear,
    QueueOp::Push(1_000),
];

proptest! {
    /// Events pop in non-decreasing time order regardless of insertion
    /// order, with FIFO ties.
    #[test]
    fn queue_pops_sorted_stable(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), (t, i));
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((pt, (t, i))) = q.pop() {
            prop_assert_eq!(pt.as_nanos(), t);
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "ties must be FIFO");
                }
            }
            last = Some((t, i));
        }
    }

    /// The simulation clock never goes backwards and delivers every event.
    #[test]
    fn clock_is_monotone(delays in prop::collection::vec(0u64..10_000, 1..100)) {
        let mut sim = Simulation::new();
        for &d in &delays {
            sim.schedule(SimDuration::from_nanos(d), d);
        }
        let mut seen = 0usize;
        let mut prev = SimTime::ZERO;
        while let Some((t, _)) = sim.next_event() {
            prop_assert!(t >= prev);
            prev = t;
            seen += 1;
        }
        prop_assert_eq!(seen, delays.len());
        prop_assert_eq!(sim.events_processed(), delays.len() as u64);
    }

    /// `next_event_before` partitions delivery exactly at the deadline.
    #[test]
    fn deadline_partitions(delays in prop::collection::vec(1u64..10_000, 1..100), cut in 1u64..10_000) {
        let mut sim = Simulation::new();
        for &d in &delays {
            sim.schedule(SimDuration::from_nanos(d), d);
        }
        let deadline = SimTime::from_nanos(cut);
        let mut early = 0usize;
        while let Some((t, _)) = sim.next_event_before(deadline) {
            prop_assert!(t <= deadline);
            early += 1;
        }
        let expected = delays.iter().filter(|&&d| d <= cut).count();
        prop_assert_eq!(early, expected);
        prop_assert!(sim.now() >= deadline || sim.pending() == 0);
    }

    /// `EventQueue` pops, peeks and counts exactly like the reference
    /// model for arbitrary scripts of pushes (absolute, ahead of the
    /// earliest event, tying it), pops and clears, each run after the
    /// prologue that takes every front-slot path.
    #[test]
    fn event_queue_matches_reference_model(
        raw in prop::collection::vec((0u8..16, 0u64..64), 0..400),
    ) {
        let mut q = EventQueue::new();
        let mut model = ModelQueue::default();
        let mut next_id = 0u64;
        let ops = PROLOGUE.iter().copied().chain(raw.into_iter().map(QueueOp::from_raw));
        for op in ops {
            let earliest = model.peek_time().map(SimTime::as_nanos);
            let push_at = match op {
                QueueOp::Push(t) => Some(t),
                QueueOp::Ahead(d) => Some(earliest.map_or(1_000, |t| t.saturating_sub(d))),
                QueueOp::Tie => Some(earliest.unwrap_or(1_000)),
                QueueOp::Pop => {
                    prop_assert_eq!(q.pop(), model.pop(), "pop divergence");
                    None
                }
                QueueOp::Clear => {
                    q.clear();
                    model.entries.clear();
                    None
                }
            };
            if let Some(t) = push_at {
                q.push(SimTime::from_nanos(t), next_id);
                model.push(t, next_id);
                next_id += 1;
            }
            prop_assert_eq!(q.peek_time(), model.peek_time(), "peek divergence after {:?}", op);
            prop_assert_eq!(q.len(), model.entries.len(), "len divergence after {:?}", op);
            prop_assert_eq!(q.is_empty(), model.entries.is_empty());
        }
        loop {
            let a = q.pop();
            prop_assert_eq!(a, model.pop(), "drain divergence");
            if a.is_none() { break; }
        }
    }

    /// Uniform range stays in range for arbitrary seeds and bounds.
    #[test]
    fn rng_range_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.gen_range(bound) < bound);
        }
    }

    /// Weighted sampling returns valid indices for arbitrary weights.
    #[test]
    fn rng_weighted_valid(seed in any::<u64>(), weights in prop::collection::vec(0.0f64..10.0, 1..20)) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            prop_assert!(rng.weighted_index(&weights) < weights.len());
        }
    }

    /// Time arithmetic round-trips.
    #[test]
    fn time_arithmetic_roundtrip(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(a);
        let d = SimDuration::from_nanos(b);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!((t + d).duration_since(t), d);
    }

    /// Exponential sampling is non-negative and finite.
    #[test]
    fn rng_exp_sane(seed in any::<u64>(), mean in 0.0f64..100.0) {
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            let x = rng.exp_f64(mean);
            prop_assert!(x.is_finite() && x >= 0.0);
        }
    }
}
