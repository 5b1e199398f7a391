//! # asyncinv-simcore — discrete-event simulation kernel
//!
//! The foundation of the `asyncinv` reproduction of *"Improving Asynchronous
//! Invocation Performance in Client-server Systems"* (ICDCS 2018). Every
//! higher-level substrate (the CPU/thread scheduler, the TCP send-path model,
//! the server architectures, the closed-loop workload generators) is driven by
//! the deterministic event loop defined here.
//!
//! The kernel is deliberately small and dependency-free:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! * [`EventQueue`] — a stable priority queue of timestamped events (ties
//!   broken by insertion order so runs are reproducible): a binary heap
//!   plus a front slot caching the earliest event.
//! * [`Simulation`] — clock + event queue + scheduling API.
//! * [`SimRng`] — a seedable xoshiro256++ PRNG so experiments are
//!   deterministic without depending on platform entropy.
//!
//! # Example
//!
//! ```
//! use asyncinv_simcore::{Simulation, SimDuration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut sim = Simulation::new();
//! sim.schedule(SimDuration::from_micros(5), Ev::Ping);
//! sim.schedule(SimDuration::from_micros(2), Ev::Pong);
//!
//! let (t1, e1) = sim.next_event().unwrap();
//! assert_eq!(e1, Ev::Pong);
//! assert_eq!(t1.as_nanos(), 2_000);
//! let (_, e2) = sim.next_event().unwrap();
//! assert_eq!(e2, Ev::Ping);
//! assert!(sim.next_event().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod queue;
mod rng;
mod sim;
mod threads;
mod time;

pub use queue::EventQueue;
pub use rng::SimRng;
pub use sim::Simulation;
pub use threads::{configured_threads, THREADS_ENV};
pub use time::{SimDuration, SimTime};
