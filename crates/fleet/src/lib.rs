//! # asyncinv-fleet — sharded clusters, load balancing and hedged requests
//!
//! The paper studies one server under test; real deployments of the
//! studied architectures run as *fleets* of shards behind a balancer. This
//! crate lifts the whole `asyncinv` stack to that setting without touching
//! the architectures: a [`Cluster`] instantiates N independent
//! server-under-test shards (each shard a full simulated machine running
//! any architecture from `asyncinv-servers`, unchanged) behind a pluggable
//! [`Balancer`], with optional hedged requests and per-shard fault and
//! shed planes.
//!
//! Guarantees carried over from the single-server engine:
//!
//! - **Determinism** — same config, same seed, same [`FleetSummary`],
//!   bitwise, on any OS thread.
//! - **1-shard transparency** — a fleet of one shard is *bit-identical* to
//!   a bare [`asyncinv_servers::Experiment`] run under every balancer
//!   (property-tested across all architectures): balancers draw no
//!   randomness at one shard, fleet-only trace kinds and counters are not
//!   emitted, and the drive loop replays the engine's exact event order.
//! - **Audited tracing** — the fleet trace kinds (`ShardRoute`, `Hedge`,
//!   `HedgeCancel`, `ShardRetry`) reconcile bitwise against the
//!   [`RunSummary`](asyncinv_metrics::RunSummary) counters via
//!   [`fleet_audit`], which also checks per-shard conservation (each
//!   fleet counter equals the sum of its per-shard parts).
//!
//! See `docs/fleet.md` for the design discussion and
//! `examples/fleet_brownout.rs` for the headline scenario: a retry budget
//! plus hedging contains a single-shard brownout, while unbudgeted
//! cross-shard retries propagate it fleet-wide.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod balancer;
mod cluster;
mod hedge;
mod parallel;
mod scenario;
mod schedule;

pub use balancer::{mix64, Balancer, BalancerKind, ConsistentHashRing};
pub use cluster::{
    fleet_audit, Cluster, FleetConfig, FleetSummary, ShardFault, ShardShed, ShardSummary,
};
pub use hedge::{HedgeConfig, HedgeEstimator};
pub use parallel::{ParallelCluster, ParallelHealth, WorkerHealth};
pub use scenario::{BrownoutSpec, FleetScenario};
pub use schedule::{SchedulePlan, ScheduleTrace, VirtualSched};
