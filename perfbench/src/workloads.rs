//! The four workloads: the cells each one generates from the benchmark
//! seed, and how one cell runs — untraced (the timed path) or traced
//! (spans around every call into a layer, plus the program's audits).
//!
//! Only the `asyncinv` facade is used. The stressed fleet is built here
//! rather than borrowed from the harness crate, so the benchmark's input
//! stays fixed while the repository's own helpers change.

use std::path::Path;

use asyncinv::dag::{calibrate_tier, dag_audit, dag_span_audit, DagRun, FleetDriver, ServiceGraph};
use asyncinv::fault::{FaultEvent, FaultKind, FaultPlan, RetryPolicy, ShedConfig, ShedPolicy};
use asyncinv::figures::Fidelity;
use asyncinv::fleet::{
    fleet_audit, BalancerKind, Cluster, FleetConfig, HedgeConfig, ShardFault, ShardShed,
};
use asyncinv::obs::{audit, span_audit, Recorder, SpanAssembler, TraceKind};
use asyncinv::{Experiment, ExperimentConfig, ServerKind, SimDuration};

use crate::digest::{self, Fnv};
use crate::spans::Tracer;

/// Seed replicates per batch. Each replicate re-runs the workload's grid
/// with client seeds derived from the benchmark seed.
const LIGHT_REPS: u64 = 3;
const SPIN_REPS: u64 = 4;
const FLEET_REPS: u64 = 4;
/// Storm cells take about twice as long as guarded ones. Six guarded to two
/// storm puts `cell_p50_ms` inside the guarded cluster and `cell_p90_ms`
/// inside the storm cluster; with an even split the median would jump
/// between the two clusters from run to run.
const DAG_GUARDED_REPS: u64 = 6;
const DAG_STORM_REPS: u64 = 2;

const LIGHT_CONCURRENCY: [usize; 5] = [16, 64, 400, 1600, 3200];
const SPIN_LATENCY_MS: [u64; 3] = [0, 5, 20];
const SPIN_CONCURRENCY: [usize; 3] = [1, 16, 100];

/// The scenario the DAG workload replays, relative to the benchmark's
/// directory (a copy of the repository's `scenarios/dag_social.json`).
pub const DAG_SCENARIO: &str = "scenarios/dag_social.json";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LightGrid,
    SpinGrid,
    FleetSpans,
    DagSocial,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LightGrid,
        Workload::SpinGrid,
        Workload::FleetSpans,
        Workload::DagSocial,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LightGrid => "light_grid",
            Workload::SpinGrid => "spin_grid",
            Workload::FleetSpans => "fleet_spans",
            Workload::DagSocial => "dag_social",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One independent simulation cell, validated and ready to run.
#[derive(Debug)]
pub struct Cell {
    /// Stable name of the cell within its workload and seed.
    pub key: String,
    /// The server architecture, for cells that run a single one.
    pub arch: Option<ServerKind>,
    body: Body,
}

#[derive(Debug)]
enum Body {
    Grid { exp: Experiment, kind: ServerKind },
    Fleet { cluster: Cluster, kind: ServerKind },
    Dag { run: DagRun },
}

/// Exact work counts of one traced cell, from the counters the engines
/// publish to an enabled observer and from the summaries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub events: u64,
    pub context_switches: u64,
    pub preemptions: u64,
    pub write_calls: u64,
    pub zero_writes: u64,
    pub sq_submits: u64,
    pub sq_flushes: u64,
    pub cq_reaps: u64,
    pub completions: u64,
    pub retries: u64,
    pub timeouts: u64,
    pub trace_events: u64,
    pub shard_routes: u64,
    pub hedges: u64,
    pub hedge_cancels: u64,
    pub shard_retries: u64,
    pub dag_roots: u64,
    pub dag_edge_retries: u64,
}

impl Counts {
    fn from_recorder(rec: &Recorder) -> Counts {
        let c = |name: &str| rec.registry().counter(name).unwrap_or(0);
        Counts {
            events: c("events_processed"),
            context_switches: c("context_switches"),
            preemptions: c("preemptions"),
            write_calls: c("write_calls"),
            zero_writes: c("zero_writes"),
            sq_submits: c("sq_submits"),
            sq_flushes: c("sq_flushes"),
            cq_reaps: c("cq_reaps"),
            completions: c("completions"),
            retries: c("retries"),
            timeouts: c("timeouts"),
            trace_events: TraceKind::ALL.iter().map(|&k| rec.total(k)).sum(),
            ..Counts::default()
        }
    }

    pub fn add(&mut self, o: &Counts) {
        let pairs = [
            (&mut self.events, o.events),
            (&mut self.context_switches, o.context_switches),
            (&mut self.preemptions, o.preemptions),
            (&mut self.write_calls, o.write_calls),
            (&mut self.zero_writes, o.zero_writes),
            (&mut self.sq_submits, o.sq_submits),
            (&mut self.sq_flushes, o.sq_flushes),
            (&mut self.cq_reaps, o.cq_reaps),
            (&mut self.completions, o.completions),
            (&mut self.retries, o.retries),
            (&mut self.timeouts, o.timeouts),
            (&mut self.trace_events, o.trace_events),
            (&mut self.shard_routes, o.shard_routes),
            (&mut self.hedges, o.hedges),
            (&mut self.hedge_cancels, o.hedge_cancels),
            (&mut self.shard_retries, o.shard_retries),
            (&mut self.dag_roots, o.dag_roots),
            (&mut self.dag_edge_retries, o.dag_edge_retries),
        ];
        for (a, b) in pairs {
            *a += b;
        }
    }
}

/// What one cell run produced.
#[derive(Debug, Clone, Copy)]
pub struct Exec {
    /// Digest of the cell's simulated results.
    pub digest: u64,
    /// The program's audits passed and, on the traced path, tracing left
    /// the summary unchanged.
    pub ok: bool,
    /// Work counts (traced path only; zero on the timed path).
    pub counts: Counts,
}

/// splitmix64: the per-replicate seed derived from the benchmark seed.
fn sub_seed(seed: u64, rep: u64) -> u64 {
    let mut z = seed.wrapping_add(rep.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds and validates every cell of `w` for `seed`. This is the
/// benchmark's set-up: scenario reading, config construction and the
/// program's own validation (`Experiment::new`, `Cluster::new`,
/// `DagRun::new`).
pub fn build(w: Workload, seed: u64, bench_dir: &Path) -> Result<Vec<Cell>, String> {
    let mut cells = Vec::new();
    match w {
        Workload::LightGrid => {
            for rep in 0..LIGHT_REPS {
                for conc in LIGHT_CONCURRENCY {
                    for kind in ServerKind::ALL {
                        let mut cfg = Fidelity::Quick.micro(conc, 100);
                        cfg.clients.seed = sub_seed(seed, rep);
                        cells.push(grid_cell(format!("{kind:?}/c{conc}/r{rep}"), cfg, kind));
                    }
                }
            }
        }
        Workload::SpinGrid => {
            for rep in 0..SPIN_REPS {
                for lat in SPIN_LATENCY_MS {
                    for conc in SPIN_CONCURRENCY {
                        for kind in ServerKind::ALL {
                            let mut cfg = Fidelity::Quick
                                .micro(conc, 100 * 1024)
                                .with_latency(SimDuration::from_millis(lat));
                            cfg.clients.seed = sub_seed(seed, rep);
                            let key = format!("{kind:?}/l{lat}ms/c{conc}/r{rep}");
                            cells.push(grid_cell(key, cfg, kind));
                        }
                    }
                }
            }
        }
        Workload::FleetSpans => {
            for rep in 0..FLEET_REPS {
                for kind in ServerKind::ALL {
                    for balancer in BalancerKind::ALL {
                        let cfg = stressed_fleet(balancer, sub_seed(seed, rep));
                        cells.push(Cell {
                            key: format!("{kind:?}/{}/r{rep}", balancer.name()),
                            arch: Some(kind),
                            body: Body::Fleet {
                                cluster: Cluster::new(cfg),
                                kind,
                            },
                        });
                    }
                }
            }
        }
        Workload::DagSocial => {
            let path = bench_dir.join(DAG_SCENARIO);
            let body =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut guarded: ServiceGraph = serde_json::from_str(&body)
                .map_err(|e| format!("{}: not a service graph: {e}", path.display()))?;
            quicken(&mut guarded);
            let mut storm = guarded.clone();
            for e in &mut storm.edges {
                e.budget_ratio = 0.0;
                e.hedge = None;
            }
            // The long storm cells go first, so they do not straggle.
            let policies = [
                ("storm", &storm, DAG_STORM_REPS),
                ("guarded", &guarded, DAG_GUARDED_REPS),
            ];
            for (policy, graph, reps) in policies {
                for rep in 0..reps {
                    let mut g = graph.clone();
                    g.seed = sub_seed(seed, rep);
                    cells.push(Cell {
                        key: format!("{policy}/r{rep}"),
                        arch: None,
                        body: Body::Dag {
                            run: DagRun::new(g, FleetDriver::Interleaved),
                        },
                    });
                }
            }
        }
    }
    Ok(cells)
}

/// Shrinks the scenario to Quick windows without changing its shape, as
/// `dag_study --quick` does: same arrival rate and graph, a 500 ms
/// measurement window, 150 ms tier calibrations, and the brownout moved
/// to [150 ms, 350 ms).
fn quicken(g: &mut ServiceGraph) {
    g.arrivals.measure = SimDuration::from_millis(500);
    g.cal.measure = SimDuration::from_millis(150);
    if let Some(slow) = &mut g.slow {
        slow.at = SimDuration::from_millis(150);
        slow.duration = SimDuration::from_millis(200);
    }
}

fn grid_cell(key: String, cfg: ExperimentConfig, kind: ServerKind) -> Cell {
    Cell {
        key,
        arch: Some(kind),
        body: Body::Grid {
            exp: Experiment::new(cfg),
            kind,
        },
    }
}

/// The stressed 3-shard fleet of the span-layer harnesses at Quick
/// windows: 10 KB responses, 8 users, a 5 ms retry timeout with a 0.5
/// budget, hedging, a ×16 brownout on shard 1 and shard 2 shedding at one
/// concurrent request.
fn stressed_fleet(balancer: BalancerKind, seed: u64) -> FleetConfig {
    let mut cell = ExperimentConfig::micro(8, 10 * 1024);
    cell.clients.seed = seed;
    cell.warmup = SimDuration::from_millis(100);
    cell.measure = SimDuration::from_millis(300);
    // The span audit needs the ring to retain every event of the run.
    cell.trace_capacity = 1 << 18;
    cell.retry = RetryPolicy {
        timeout: Some(SimDuration::from_millis(5)),
        max_retries: 3,
        budget_ratio: 0.5,
        ..RetryPolicy::default()
    };
    let mut cfg = FleetConfig::new(cell, 3, balancer);
    cfg.hedge = Some(HedgeConfig {
        min_samples: 16,
        ..HedgeConfig::default()
    });
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

fn hash(f: impl FnOnce(&mut Fnv)) -> u64 {
    let mut h = Fnv::default();
    f(&mut h);
    h.finish()
}

impl Cell {
    /// Runs the cell. Untraced, it makes only the calls the workload
    /// times. Traced, it also makes the untraced and observed variants
    /// of each call inside spans, runs the program's audits, and checks
    /// that tracing left the summary unchanged.
    pub fn run(&self, t: &mut Tracer, traced: bool) -> Exec {
        match &self.body {
            Body::Grid { exp, kind } => {
                let s = t.span("Experiment::run", "servers", || exp.run(*kind));
                let digest = hash(|h| digest::run_summary(h, &s));
                if !traced {
                    return Exec {
                        digest,
                        ok: true,
                        counts: Counts::default(),
                    };
                }
                // An empty ring: the counts and the registry stay exact,
                // and they are all the audit reads.
                let mut rec = Recorder::new(0);
                let observed = t.span("Experiment::run_observed", "servers", || {
                    exp.run_observed(*kind, &mut rec)
                });
                let audited = t.span("audit", "obs", || audit(&observed, &rec).pass());
                let same = hash(|h| digest::run_summary(h, &observed)) == digest;
                Exec {
                    digest,
                    ok: audited && same,
                    counts: Counts::from_recorder(&rec),
                }
            }
            Body::Fleet { cluster, kind } => {
                let untraced =
                    traced.then(|| t.span("Cluster::run", "fleet", || cluster.run(*kind)));
                let (s, rec) = t.span("Cluster::run_traced", "fleet", || cluster.run_traced(*kind));
                let forest = t.span("SpanAssembler::assemble", "obs", || {
                    SpanAssembler::assemble(&rec)
                });
                let phases = t.span("SpanForest::aggregate_completed", "obs", || {
                    forest.aggregate_completed()
                });
                let fleet_ok = t.span("fleet_audit", "obs", || fleet_audit(&s, &rec).pass());
                let span_ok = t.span("span_audit", "obs", || {
                    span_audit(&self.key, &rec, &forest).pass()
                });
                let digest = hash(|h| {
                    digest::fleet_summary(h, &s);
                    digest::spans(h, &forest, &phases);
                });
                let same = untraced.is_none_or(|u| {
                    hash(|h| digest::fleet_summary(h, &u)) == hash(|h| digest::fleet_summary(h, &s))
                });
                let f = &s.fleet;
                let counts = Counts {
                    shard_routes: f.shard_routes,
                    hedges: f.hedges,
                    hedge_cancels: f.hedge_cancels,
                    shard_retries: f.shard_retries,
                    ..Counts::from_recorder(&rec)
                };
                Exec {
                    digest,
                    ok: fleet_ok && span_ok && same,
                    counts,
                }
            }
            Body::Dag { run } => {
                let g = run.graph();
                let profiles: Vec<_> = if traced {
                    (0..g.tiers.len())
                        .map(|tier| {
                            t.span("calibrate_tier", "dag", || {
                                calibrate_tier(g, tier, FleetDriver::Interleaved)
                            })
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                let out = t.span("DagRun::run", "dag", || run.run());
                let digest = hash(|h| digest::dag_summary(h, &out.summary));
                if !traced {
                    return Exec {
                        digest,
                        ok: true,
                        counts: Counts::default(),
                    };
                }
                let (traced_out, rec) = t.span("DagRun::run_traced", "dag", || run.run_traced());
                let audit_ok = t.span("dag_audit", "dag", || {
                    dag_audit(&traced_out.summary, &rec).pass()
                });
                let span_ok = t.span("dag_span_audit", "dag", || {
                    dag_span_audit(&traced_out.spans, &rec).pass()
                });
                let same = hash(|h| digest::dag_summary(h, &traced_out.summary)) == digest;
                // The standalone calibrations must be the ones the run used.
                let calibrated = profiles.len() == out.profiles.len()
                    && profiles
                        .iter()
                        .zip(&out.profiles)
                        .all(|(a, b)| a.lattice == b.lattice);
                let s = &out.summary;
                let counts = Counts {
                    completions: s.completed,
                    dag_roots: s.arrivals,
                    dag_edge_retries: s.per_tier.iter().map(|t| t.edge_retries).sum(),
                    trace_events: TraceKind::ALL.iter().map(|&k| rec.total(k)).sum(),
                    ..Counts::default()
                };
                Exec {
                    digest,
                    ok: audit_ok && span_ok && same && calibrated,
                    counts,
                }
            }
        }
    }
}
