//! Property tests of the fleet plane: a one-shard fleet is bit-identical
//! to the bare single-server engine under every balancer, fleet runs are
//! deterministic (including across OS threads), and the fleet trace
//! reconciles bitwise with the fleet and per-shard counters under
//! arbitrary per-shard fault plans and with every plane engaged at once.

use asyncinv::fault::{FaultEvent, FaultKind, FaultPlan, ShedConfig, ShedPolicy};
use asyncinv::fleet::{
    fleet_audit, BalancerKind, Cluster, FleetConfig, HedgeConfig, ShardFault, ShardShed,
};
use asyncinv::obs::{Recorder, TraceEvent};
use asyncinv::prelude::*;
use asyncinv::workload::RetryPolicy;
use proptest::prelude::*;

const CONC: usize = 8;

fn cell() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(CONC, 10 * 1024);
    cfg.warmup = SimDuration::from_millis(100);
    cfg.measure = SimDuration::from_millis(400);
    cfg
}

fn retrying_cell() -> ExperimentConfig {
    let mut cfg = cell();
    cfg.retry = RetryPolicy {
        timeout: Some(SimDuration::from_millis(20)),
        max_retries: 3,
        budget_ratio: 0.5,
        ..RetryPolicy::default()
    };
    cfg
}

/// The tentpole invariant: a fleet of ONE shard is bit-identical to the
/// bare engine — same `RunSummary`, field for field — under every
/// balancer and on every architecture. Balancers draw no randomness at
/// one shard and the fleet driver replays the engine's exact event order,
/// so this holds bitwise, not just statistically.
#[test]
fn one_shard_fleet_is_bit_identical_to_bare_engine() {
    for kind in ServerKind::ALL {
        let bare = Experiment::new(cell()).run(kind);
        for balancer in BalancerKind::ALL {
            let fleet = Cluster::new(FleetConfig::new(cell(), 1, balancer)).run(kind);
            assert_eq!(
                bare, fleet.fleet,
                "{kind}/{}: one-shard fleet diverged from bare engine",
                balancer.name()
            );
            assert_eq!(fleet.per_shard.len(), 1);
            assert_eq!(fleet.fleet.shard_routes, 0, "no fleet counters at one shard");
            assert_eq!(fleet.fleet.hedges, 0);
        }
    }
}

/// Same with the resilience plane on: timeouts and retries at one shard
/// go through the fleet's own retry path (there is no other shard to move
/// to), and must still replay the engine bitwise.
#[test]
fn one_shard_fleet_with_retries_matches_bare_engine() {
    let mut faulted = retrying_cell();
    faulted.faults = Some(FaultPlan {
        seed: 9,
        events: vec![FaultEvent {
            at: SimDuration::from_millis(200),
            fault: FaultKind::Slowdown {
                factor: 40.0,
                duration: Some(SimDuration::from_millis(150)),
            },
        }],
    });
    for kind in [ServerKind::SyncThread, ServerKind::NettyLike, ServerKind::Staged] {
        let bare = Experiment::new(faulted.clone()).run(kind);
        let mut cfg = FleetConfig::new(retrying_cell(), 1, BalancerKind::RoundRobin);
        cfg.shard_faults = vec![ShardFault {
            shard: 0,
            plan: faulted.faults.clone().expect("plan"),
        }];
        let fleet = Cluster::new(cfg).run(kind);
        assert_eq!(
            bare, fleet.fleet,
            "{kind}: one-shard faulted fleet diverged from bare engine"
        );
        assert!(bare.timeouts > 0, "{kind}: the fault must actually bite");
    }
}

/// The same fleet configuration run on different OS threads produces the
/// same summary as on the main thread: no ambient state feeds the fleet
/// driver, its balancers, or the hedge estimator.
#[test]
#[allow(clippy::disallowed_methods)]
fn fleet_run_is_identical_across_os_threads() {
    let mk = || {
        let mut cfg = FleetConfig::new(
            retrying_cell(),
            3,
            BalancerKind::PowerOfTwoChoices { seed: 0x5eed },
        );
        cfg.hedge = Some(HedgeConfig::default());
        cfg.shard_faults = vec![ShardFault {
            shard: 1,
            plan: FaultPlan {
                seed: 5,
                events: vec![FaultEvent {
                    at: SimDuration::from_millis(200),
                    fault: FaultKind::Slowdown {
                        factor: 16.0,
                        duration: Some(SimDuration::from_millis(150)),
                    },
                }],
            },
        }];
        cfg
    };
    let main = Cluster::new(mk()).run(ServerKind::NettyLike);
    let handles: Vec<_> = (0..2)
        // detlint::allow(thread-spawn, reason = "spawning real OS threads is the subject under test: the fleet driver must be identical across them")
        .map(|_| std::thread::spawn(move || Cluster::new(mk()).run(ServerKind::NettyLike)))
        .collect();
    for h in handles {
        assert_eq!(main, h.join().expect("worker thread"));
    }
    assert!(main.fleet.fault_events > 0, "the shard fault must fire");
    assert_eq!(
        main.fleet.shard_routes,
        main.per_shard.iter().map(|s| s.routes).sum::<u64>()
    );
}

/// Per-shard hedge-delay estimation is a real policy change: under an
/// asymmetric fleet (one shard browned out) the keyed estimators keep the
/// healthy shards' delay tight instead of letting the slow shard drag the
/// pooled percentile up, so the two configurations hedge at different
/// times. Both must stay deterministic and pass the bitwise trace audit.
#[test]
fn per_shard_hedging_diverges_from_pooled_under_asymmetry() {
    let mk = |per_shard: bool| {
        let mut cfg = FleetConfig::new(retrying_cell(), 3, BalancerKind::RoundRobin);
        cfg.cell.trace_capacity = 64;
        cfg.hedge = Some(HedgeConfig {
            min_samples: 16,
            per_shard,
            ..HedgeConfig::default()
        });
        cfg.shard_faults = vec![ShardFault {
            shard: 0,
            plan: FaultPlan {
                seed: 3,
                events: vec![FaultEvent {
                    at: SimDuration::from_millis(150),
                    fault: FaultKind::Slowdown {
                        factor: 30.0,
                        duration: Some(SimDuration::from_millis(250)),
                    },
                }],
            },
        }];
        cfg
    };
    let kind = ServerKind::NettyLike;
    let (pooled, prec) = Cluster::new(mk(false)).run_traced(kind);
    let (keyed, krec) = Cluster::new(mk(true)).run_traced(kind);
    for (name, s, rec) in [("pooled", &pooled, &prec), ("per-shard", &keyed, &krec)] {
        let report = fleet_audit(s, rec);
        assert!(report.pass(), "{name} hedge audit failed:\n{report}");
        assert!(s.fleet.hedges > 0, "{name} hedging must actually fire");
    }
    assert_eq!(keyed, Cluster::new(mk(true)).run(kind), "keyed run must be deterministic");
    assert_ne!(
        pooled, keyed,
        "per-shard estimators must change hedge timing under an asymmetric fleet"
    );
}

/// A stressed 3-shard fleet with every plane engaged: retries, hedging,
/// a mid-run shard fault and a shed override.
fn stressed_cfg() -> FleetConfig {
    let mut cfg = FleetConfig::new(retrying_cell(), 3, BalancerKind::PowerOfTwoChoices {
        seed: 0x5eed,
    });
    cfg.cell.trace_capacity = 1 << 16;
    cfg.hedge = Some(HedgeConfig { min_samples: 16, ..HedgeConfig::default() });
    cfg.shard_faults = vec![ShardFault {
        shard: 1,
        plan: FaultPlan {
            seed: 5,
            events: vec![FaultEvent {
                at: SimDuration::from_millis(200),
                fault: FaultKind::Slowdown {
                    factor: 16.0,
                    duration: Some(SimDuration::from_millis(150)),
                },
            }],
        },
    }];
    cfg.shard_shed = vec![ShardShed {
        shard: 2,
        shed: ShedConfig {
            max_concurrent: 1,
            queue_cap: 1,
            policy: ShedPolicy::DropOldest,
            reject_bytes: 256,
        },
    }];
    cfg
}

/// Everything a traced run externalizes: events, thread names, counters,
/// and gauges (bit-compared as `u64`).
type TraceState = (Vec<TraceEvent>, Vec<String>, Vec<(String, u64)>, Vec<(String, u64)>);

fn trace_state(rec: &Recorder) -> TraceState {
    let events: Vec<TraceEvent> = rec.events().copied().collect();
    let names = rec.thread_names().to_vec();
    let mut counters: Vec<(String, u64)> =
        rec.registry().counters().map(|(n, v)| (n.to_string(), v)).collect();
    counters.sort();
    // Bit-compare the floats: "close" is not the contract.
    let mut gauges: Vec<(String, u64)> =
        rec.registry().gauges().map(|(n, v)| (n.to_string(), v.to_bits())).collect();
    gauges.sort();
    (events, names, counters, gauges)
}

/// With every plane engaged the fault, the hedges and the shed override
/// all fire, the traced run passes the fleet audit, and a second traced
/// run reproduces the first bitwise: same summary, same events in the
/// same order, same thread names, counters and gauges.
#[test]
fn stressed_fleet_fires_every_plane_and_passes_audit() {
    let cfg = stressed_cfg();
    let (a, rec_a) = Cluster::new(cfg.clone()).run_traced(ServerKind::NettyLike);
    let report = fleet_audit(&a, &rec_a);
    assert!(report.pass(), "stressed fleet audit failed:\n{report}");
    assert!(a.fleet.fault_events > 0, "the fault must actually fire");
    assert!(a.fleet.hedges > 0, "hedging must actually fire");
    assert!(a.fleet.shed_dropped > 0, "the shed override must actually shed");
    let (b, rec_b) = Cluster::new(cfg).run_traced(ServerKind::NettyLike);
    assert_eq!(a, b, "summary diverged between identical runs");
    assert_eq!(trace_state(&rec_a), trace_state(&rec_b), "trace diverged between identical runs");
}

proptest! {
    // Each case runs two full multi-shard simulations; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary fleet shapes — shard count, balancer, hedging on or off,
    /// a slowdown on an arbitrary shard — are deterministic, and the
    /// fleet trace reconciles bitwise with both the fleet summary and the
    /// per-shard counter sums.
    #[test]
    fn fleet_runs_are_deterministic_and_audited(
        kind in prop::sample::select(vec![
            ServerKind::SyncThread,
            ServerKind::NettyLike,
            ServerKind::Hybrid,
        ]),
        shards in 2usize..5,
        bal_idx in 0usize..4,
        hedged_raw in 0usize..2,
        fault_shard in 0usize..4,
        factor in 2.0f64..20.0,
        seed in 0u64..1_000,
    ) {
        let mut cfg = FleetConfig::new(retrying_cell(), shards, BalancerKind::ALL[bal_idx]);
        cfg.cell.clients.seed = seed;
        cfg.cell.trace_capacity = 64;
        let hedged = hedged_raw == 1;
        if hedged {
            cfg.hedge = Some(HedgeConfig {
                min_samples: 16,
                ..HedgeConfig::default()
            });
        }
        cfg.shard_faults = vec![ShardFault {
            shard: fault_shard % shards,
            plan: FaultPlan {
                seed,
                events: vec![FaultEvent {
                    at: SimDuration::from_millis(200),
                    fault: FaultKind::Slowdown {
                        factor,
                        duration: Some(SimDuration::from_millis(100)),
                    },
                }],
            },
        }];
        prop_assert!(cfg.validate().is_ok());
        let (a, rec) = Cluster::new(cfg.clone()).run_traced(kind);
        let b = Cluster::new(cfg).run(kind);
        prop_assert_eq!(&a, &b, "same fleet config must be bitwise identical");
        let report = fleet_audit(&a, &rec);
        prop_assert!(report.pass(), "{}", report);
        prop_assert!(a.fleet.completions > 0);
    }

    /// Fleet configurations round-trip through JSON exactly.
    #[test]
    fn fleet_configs_round_trip_through_json(
        shards in 1usize..6,
        bal_idx in 0usize..4,
        hedged_raw in 0usize..2,
    ) {
        let mut cfg = FleetConfig::new(cell(), shards, BalancerKind::ALL[bal_idx]);
        let hedged = hedged_raw == 1;
        if hedged && shards >= 2 {
            cfg.hedge = Some(HedgeConfig::default());
        }
        let json = serde_json::to_string(&cfg).expect("serialize fleet config");
        let back: FleetConfig = serde_json::from_str(&json).expect("parse fleet config");
        prop_assert_eq!(cfg.shards, back.shards);
        prop_assert_eq!(cfg.balancer, back.balancer);
        prop_assert_eq!(cfg.hedge, back.hedge);
        prop_assert!(back.validate().is_ok());
    }
}
