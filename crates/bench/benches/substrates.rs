//! Criterion micro-benchmarks of the simulation substrates: the hot paths
//! every experiment cell exercises millions of times.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use asyncinv::substrate::{Burst, CpuConfig, CpuModel, SendBufPolicy, TcpConfig, TcpWorld};
use asyncinv::{Experiment, ExperimentConfig, ServerKind, SimDuration, SimTime};
use asyncinv_simcore::{EventQueue, SimRng, Simulation};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(1024);
            for i in 0..1024u64 {
                q.push(SimTime::from_nanos(i * 37 % 1000), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
}

/// Hold model (peek + pop-one + push-one over a constant population) at
/// the standing populations the paper's cells see: ~10 (low concurrency),
/// ~100 (the headline cells), and 10k (stress).
fn bench_hold(c: &mut Criterion) {
    for pop in [10u64, 100, 10_000] {
        c.bench_function(&format!("event_queue/hold_pop{pop}"), |b| {
            let mut q = EventQueue::new();
            for i in 0..pop {
                q.push(SimTime::from_nanos(i * 997), i);
            }
            b.iter(|| {
                black_box(q.peek_time());
                let (pt, v) = q.pop().expect("non-empty");
                q.push(SimTime::from_nanos(pt.as_nanos() + 1 + v % 2048), v);
                black_box(v)
            })
        });
    }
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng/next_u64_x1k", |b| {
        let mut rng = SimRng::new(7);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            black_box(acc)
        })
    });
}

fn bench_scheduler(c: &mut Criterion) {
    c.bench_function("cpu/submit_complete_cycle", |b| {
        b.iter(|| {
            let mut cpu = CpuModel::new(CpuConfig::single_core());
            let mut sim: Simulation<asyncinv::substrate::CpuEvent> = Simulation::new();
            let t = cpu.spawn_thread("bench");
            let mut out = Vec::new();
            for i in 0..100u64 {
                cpu.submit(
                    sim.now(),
                    t,
                    Burst::user(SimDuration::from_micros(1)),
                    i,
                    &mut out,
                );
                for (at, ev) in out.drain(..) {
                    sim.schedule_at(at, ev);
                }
                while let Some((now, ev)) = sim.next_event() {
                    if let Some(done) = cpu.on_event(now, ev, &mut out) {
                        cpu.finish_turn(now, done.thread, &mut out);
                    }
                    for (at, ev) in out.drain(..) {
                        sim.schedule_at(at, ev);
                    }
                }
            }
            black_box(cpu.stats().user_time)
        })
    });
}

fn bench_tcp_write_path(c: &mut Criterion) {
    c.bench_function("tcp/write_spin_100kb", |b| {
        b.iter(|| {
            let mut world = TcpWorld::new(TcpConfig::default());
            let conn = world.open(SimTime::ZERO);
            let mut out = Vec::new();
            let mut now = SimTime::ZERO;
            let mut remaining = 100 * 1024usize;
            while remaining > 0 {
                let w = world.write(now, conn, remaining, &mut out);
                remaining -= w;
                if w == 0 {
                    // replay the earliest pending network event
                    out.sort_by_key(|(t, _)| *t);
                    let (t, e) = out.remove(0);
                    now = t;
                    world.on_event(now, e, &mut out);
                }
            }
            black_box(world.stats().write_calls)
        })
    });

    c.bench_function("tcp/one_shot_small_write", |b| {
        b.iter(|| {
            let mut world = TcpWorld::new(TcpConfig {
                send_buf: SendBufPolicy::Fixed(64 * 1024),
                ..TcpConfig::default()
            });
            let conn = world.open(SimTime::ZERO);
            let mut out = Vec::new();
            black_box(world.write(SimTime::ZERO, conn, 100, &mut out))
        })
    });
}

fn bench_experiment_cells(c: &mut Criterion) {
    let mut g = c.benchmark_group("experiment_cell");
    g.sample_size(10);
    for kind in [
        ServerKind::SyncThread,
        ServerKind::SingleThread,
        ServerKind::NettyLike,
        ServerKind::Hybrid,
    ] {
        g.bench_function(kind.paper_name(), |b| {
            b.iter(|| {
                let mut cfg = ExperimentConfig::micro(8, 100);
                cfg.warmup = SimDuration::from_millis(50);
                cfg.measure = SimDuration::from_millis(200);
                black_box(Experiment::new(cfg).run(kind).completions)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_hold,
    bench_rng,
    bench_scheduler,
    bench_tcp_write_path,
    bench_experiment_cells
);
criterion_main!(benches);
