//! Standalone layer drivers: host time of one public call into the event
//! queue, the CPU model and the TCP model, with parameters taken from the
//! workloads they stand in for. They run in the traced invocation only.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use asyncinv::substrate::{Burst, CpuConfig, CpuModel, TcpConfig, TcpEvent, TcpNotice, TcpWorld};
use asyncinv::{SimDuration, SimRng, SimTime};
use asyncinv_simcore::Simulation;

use crate::stats::median;

/// Timed repetitions per driver; each driver reports the median.
const REPS: usize = 5;

fn median_ns_per_op(mut rep: impl FnMut() -> u64) -> f64 {
    median((0..REPS).map(|_| {
        let start = Instant::now();
        let done = black_box(rep());
        start.elapsed().as_nanos() as f64 / done.max(1) as f64
    }))
}

/// ns per hold (one `Simulation::schedule` plus one `next_event`) on a
/// default `Simulation` holding `population` events. Delays are uniform
/// over 1–100 µs, the spacing of CPU and network events in a cell.
pub fn hold_ns(population: u64) -> f64 {
    const HOLDS: u64 = 400_000;
    let mut rng = SimRng::new(population);
    let mut sim: Simulation<u64> = Simulation::new();
    for i in 0..population {
        sim.schedule(SimDuration::from_nanos(rng.gen_range_in(1_000, 100_000)), i);
    }
    let mut hold = |n: u64| {
        for _ in 0..n {
            let (_, v) = sim.next_event().expect("the population is constant");
            sim.schedule(SimDuration::from_nanos(rng.gen_range_in(1_000, 100_000)), v);
        }
        n
    };
    hold(population * 4);
    median_ns_per_op(|| hold(HOLDS))
}

/// ns per `CpuModel` cycle on the single-core machine of the grid cells:
/// `submit` a 16 µs burst, deliver its events through `on_event` until
/// the completion, then `finish_turn`. Two threads alternate, so every
/// cycle dispatches a different thread than the last (a context switch,
/// as in the reactor-plus-pool servers).
pub fn cpu_step_ns() -> f64 {
    const CYCLES: u64 = 200_000;
    let mut cpu = CpuModel::new(CpuConfig::single_core());
    let threads = [cpu.spawn_thread("a"), cpu.spawn_thread("b")];
    let mut pending = Vec::new();
    let mut now = SimTime::ZERO;
    let mut tag = 0u64;
    let mut cycle = |n: u64| {
        for _ in 0..n {
            tag += 1;
            let tid = threads[(tag % 2) as usize];
            cpu.submit(
                now,
                tid,
                Burst::user(SimDuration::from_micros(16)),
                tag,
                &mut pending,
            );
            loop {
                let next = (0..pending.len())
                    .min_by_key(|&i| pending[i].0)
                    .expect("a submitted burst schedules its completion");
                let (at, ev) = pending.swap_remove(next);
                now = at;
                if let Some(done) = cpu.on_event(now, ev, &mut pending) {
                    cpu.finish_turn(now, done.thread, &mut pending);
                    break;
                }
            }
        }
        n
    };
    cycle(CYCLES / 10);
    median_ns_per_op(|| cycle(CYCLES))
}

/// A network event ordered by (time, sequence) for this layer driver's queue.
struct Pending(SimTime, u64, TcpEvent);

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        (self.0, self.1) == (other.0, other.1)
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    /// Reversed, so `BinaryHeap` pops the earliest event first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0, other.1).cmp(&(self.0, self.1))
    }
}

/// ns per non-blocking `TcpWorld::write` call, with the ACK and delivery
/// events it causes: 100 KB responses into the default send buffer at
/// 5 ms one-way latency, the spinning cells of `spin_grid`. After a
/// short write it writes again at the next freed-space notice,
/// as an event-driven server does.
pub fn tcp_write_ns() -> f64 {
    const RESPONSES: u64 = 4_000;
    const BYTES: usize = 100 * 1024;
    let cfg = TcpConfig {
        added_latency: SimDuration::from_millis(5),
        ..TcpConfig::default()
    };
    let mut world = TcpWorld::new(cfg);
    let conn = world.open(SimTime::ZERO);
    let mut queue = BinaryHeap::new();
    let mut out = Vec::new();
    let mut seq = 0u64;
    let mut now = SimTime::ZERO;
    let mut respond = |n: u64| {
        let calls_before = world.stats().write_calls;
        for _ in 0..n {
            let (mut left, mut delivered, mut writable) = (BYTES, 0, true);
            while delivered < BYTES {
                if left > 0 && writable {
                    left -= world.write(now, conn, left, &mut out);
                    writable = false;
                }
                for (at, ev) in out.drain(..) {
                    seq += 1;
                    queue.push(Pending(at, seq, ev));
                }
                let Pending(at, _, ev) = queue.pop().expect("unsent or undelivered bytes");
                now = at;
                match world.on_event(now, ev, &mut out) {
                    TcpNotice::SpaceFreed { space, .. } => writable = space > 0,
                    TcpNotice::Delivered { bytes, .. } => delivered += bytes,
                }
            }
        }
        world.stats().write_calls - calls_before
    };
    respond(RESPONSES / 10);
    median_ns_per_op(|| respond(RESPONSES))
}
