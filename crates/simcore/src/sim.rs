//! The simulation driver: a virtual clock plus the event queue.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// A discrete-event simulation: virtual clock, event queue, scheduling API.
///
/// The kernel is intentionally model-agnostic: callers pop events with
/// [`Simulation::next_event`] and dispatch them to their own state machines,
/// scheduling follow-up events as they go. This "inverted" loop keeps all
/// model state outside the kernel, which sidesteps borrow conflicts between
/// the queue and the model.
///
/// Events are held in an [`EventQueue`]: delivery is in timestamp order,
/// FIFO among equal timestamps, and an event scheduled sooner than
/// everything pending (a burst chained on the one just delivered) is
/// queued and delivered without a heap operation.
///
/// ```
/// use asyncinv_simcore::{Simulation, SimDuration};
///
/// let mut sim = Simulation::new();
/// sim.schedule(SimDuration::from_micros(1), 1u32);
/// while let Some((now, ev)) = sim.next_event() {
///     if ev < 4 {
///         sim.schedule(SimDuration::from_micros(1), ev + 1);
///     }
///     assert_eq!(now.as_micros(), ev as u64);
/// }
/// assert_eq!(sim.now().as_micros(), 4);
/// ```
#[derive(Debug)]
pub struct Simulation<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
}

impl<E> Simulation<E> {
    /// Creates a simulation with the clock at [`SimTime::ZERO`] and no
    /// pending events.
    pub fn new() -> Self {
        Simulation {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` to fire `after` the current time.
    pub fn schedule(&mut self, after: SimDuration, event: E) {
        self.queue.push(self.now + after, event);
    }

    /// Schedules `event` at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time; the simulation
    /// clock never runs backwards.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at}, now={}",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Schedules `event` to fire immediately (at the current time, after any
    /// events already queued for this instant).
    pub fn schedule_now(&mut self, event: E) {
        self.queue.push(self.now, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is empty; the clock stays where it is.
    pub fn next_event(&mut self) -> Option<(SimTime, E)> {
        let (t, e) = self.queue.pop()?;
        debug_assert!(t >= self.now, "event queue yielded an event in the past");
        self.now = t;
        self.processed += 1;
        Some((t, e))
    }

    /// Pops the next event only if it fires at or before `deadline`.
    ///
    /// When the next event is later than `deadline` (or the queue is empty)
    /// the clock advances to `deadline` and `None` is returned. This is the
    /// primitive used to run a simulation "for 60 virtual seconds".
    pub fn next_event_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.queue.peek_time() {
            Some(t) if t <= deadline => self.next_event(),
            _ => {
                if deadline > self.now {
                    self.now = deadline;
                }
                None
            }
        }
    }

    /// The timestamp of the next pending event, if any. O(1).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Drops all pending events (used at experiment teardown).
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Simulation::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_events() {
        let mut sim = Simulation::new();
        sim.schedule(SimDuration::from_micros(10), "late");
        sim.schedule(SimDuration::from_micros(2), "early");
        let (t, e) = sim.next_event().unwrap();
        assert_eq!((t.as_micros(), e), (2, "early"));
        assert_eq!(sim.now().as_micros(), 2);
        let (t, e) = sim.next_event().unwrap();
        assert_eq!((t.as_micros(), e), (10, "late"));
        assert!(sim.next_event().is_none());
        assert_eq!(sim.now().as_micros(), 10);
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn schedule_now_runs_after_existing_same_instant_events() {
        let mut sim = Simulation::new();
        sim.schedule(SimDuration::ZERO, 1);
        sim.schedule_now(2);
        assert_eq!(sim.next_event().unwrap().1, 1);
        assert_eq!(sim.next_event().unwrap().1, 2);
    }

    #[test]
    fn relative_scheduling_is_from_current_time() {
        let mut sim = Simulation::new();
        sim.schedule(SimDuration::from_micros(5), ());
        sim.next_event().unwrap();
        sim.schedule(SimDuration::from_micros(5), ());
        let (t, _) = sim.next_event().unwrap();
        assert_eq!(t.as_micros(), 10);
    }

    #[test]
    fn deadline_stops_and_advances_clock() {
        let mut sim = Simulation::new();
        sim.schedule(SimDuration::from_millis(10), ());
        let deadline = SimTime::from_millis(5);
        assert!(sim.next_event_before(deadline).is_none());
        assert_eq!(sim.now(), deadline);
        // Event still pending and deliverable after the deadline moves.
        assert!(sim.next_event_before(SimTime::from_millis(20)).is_some());
        assert_eq!(sim.now().as_millis(), 10);
    }

    #[test]
    fn deadline_with_empty_queue_advances_clock() {
        let mut sim: Simulation<()> = Simulation::new();
        assert!(sim.next_event_before(SimTime::from_secs(1)).is_none());
        assert_eq!(sim.now().as_secs_f64(), 1.0);
    }

    #[test]
    #[should_panic]
    fn scheduling_into_past_panics() {
        let mut sim = Simulation::new();
        sim.schedule(SimDuration::from_micros(5), ());
        sim.next_event();
        sim.schedule_at(SimTime::from_micros(1), ());
    }

    #[test]
    fn clear_drops_pending() {
        let mut sim = Simulation::new();
        sim.schedule(SimDuration::from_micros(5), ());
        sim.clear();
        assert_eq!(sim.pending(), 0);
        assert!(sim.next_event().is_none());
    }
}
