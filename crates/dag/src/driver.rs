//! The DAG driver: an open-loop root arrival process over a graph of
//! calibrated tier stations, with per-edge timeouts, retries, budgets
//! and hedges.
//!
//! Each tier is a finite-slot FIFO station replaying its fleet's
//! calibrated service-time lattice (see [`crate::calibrate`]); each edge
//! is an async RPC with one-way latency and a caller-side resilience
//! policy. Failures are *silent* in the paper's async-invocation sense:
//! a shed or failed call never replies — its caller discovers the loss
//! only at its own edge timeout, which is exactly the ingredient that
//! lets unbudgeted retries compound across tiers into metastable
//! collapse.
//!
//! A trivial graph (one tier, no edges) does not run this driver at all:
//! it delegates verbatim to the fleet driver, so its summary and trace
//! are bit-identical to the bare fleet run.

use std::collections::VecDeque;

use asyncinv_fleet::{mix64, Cluster, FleetSummary, HedgeEstimator, ParallelCluster};
use asyncinv_obs::{NoopObserver, Observer, Recorder, TraceEvent, TraceKind};
use asyncinv_simcore::{SimDuration, SimRng, SimTime, Simulation};
use asyncinv_workload::{RetryBudget, RetryPolicy};

use crate::calibrate::{calibrate_tier, FleetDriver, TierProfile, LATTICE};
use crate::graph::{ServiceGraph, EDGE_ROOT};
use crate::span::{DagAttempt, DagSpan, DagSpanStatus};
use crate::summary::{DagSummary, TierCounters};

/// Ring capacity for [`DagRun::run_traced`] on composed graphs (trivial
/// graphs mirror the fleet cell's own trace settings instead).
const DAG_TRACE_CAPACITY: usize = 1 << 20;

/// Everything a DAG run produces.
#[derive(Debug)]
pub struct DagOutcome {
    /// The DAG summary (window counters + whole-run per-tier counters).
    pub summary: DagSummary,
    /// The fleet summary, for trivial graphs only: the single tier's
    /// fleet ran verbatim, and this is bit-identical to what the bare
    /// fleet driver reports.
    pub fleet: Option<FleetSummary>,
    /// One span per root request (composed graphs only).
    pub spans: Vec<DagSpan>,
    /// Per-tier calibration profiles (composed graphs only).
    pub profiles: Vec<TierProfile>,
}

/// A runnable service graph bound to a fleet driver.
#[derive(Debug, Clone)]
pub struct DagRun {
    graph: ServiceGraph,
    driver: FleetDriver,
}

impl DagRun {
    /// Binds a validated graph to a fleet driver.
    ///
    /// # Panics
    ///
    /// Panics when the graph fails [`ServiceGraph::validate`] (matching
    /// `Cluster::new`).
    pub fn new(graph: ServiceGraph, driver: FleetDriver) -> Self {
        if let Err(e) = graph.validate() {
            panic!("invalid ServiceGraph: {e}");
        }
        DagRun { graph, driver }
    }

    /// The bound graph.
    pub fn graph(&self) -> &ServiceGraph {
        &self.graph
    }

    /// Runs without observation.
    pub fn run(&self) -> DagOutcome {
        let mut obs = NoopObserver;
        self.run_observed(&mut obs)
    }

    /// Runs with a recording observer and returns the trace.
    pub fn run_traced(&self) -> (DagOutcome, Recorder) {
        let mut rec = if self.graph.is_trivial() {
            let cell = &self.graph.tier_fleet_config(0).cell;
            Recorder::with_sampling(cell.trace_capacity, cell.trace_sample)
        } else {
            Recorder::new(DAG_TRACE_CAPACITY)
        };
        let outcome = self.run_observed(&mut rec);
        (outcome, rec)
    }

    /// Runs with an arbitrary observer. A trivial graph delegates
    /// straight to the fleet driver (the observer sees the identical
    /// event stream a bare fleet run would produce, and no DAG kinds);
    /// a composed graph calibrates every tier and drives the DAG
    /// simulation.
    pub fn run_observed(&self, obs: &mut dyn Observer) -> DagOutcome {
        if self.graph.is_trivial() {
            return self.run_trivial(obs);
        }
        let profiles: Vec<TierProfile> = (0..self.graph.tiers.len())
            .map(|t| calibrate_tier(&self.graph, t, self.driver))
            .collect();
        let (summary, spans) = Engine::new(&self.graph, &profiles, obs).run();
        DagOutcome {
            summary,
            fleet: None,
            spans,
            profiles,
        }
    }

    fn run_trivial(&self, obs: &mut dyn Observer) -> DagOutcome {
        let cfg = self.graph.tier_fleet_config(0);
        let kind = self.graph.tiers[0].kind;
        let fleet = match self.driver {
            FleetDriver::Interleaved => Cluster::new(cfg).run_observed(kind, obs),
            FleetDriver::Parallel => ParallelCluster::new(cfg).run_observed(kind, obs),
        };
        let f = &fleet.fleet;
        // Projection of the fleet summary into the DAG shape; `arrivals`
        // equals `requests` here because the closed-loop fleet cell has
        // no separate whole-run arrival count.
        let summary = DagSummary {
            name: self.graph.name.clone(),
            requests: f.completions + f.abandoned,
            completed: f.completions,
            failed: f.abandoned,
            arrivals: f.completions + f.abandoned,
            goodput: f.throughput,
            mean_rt_us: f.mean_rt_us,
            p50_rt_us: f.p50_rt_us,
            p99_rt_us: f.p99_rt_us,
            tier_names: vec![self.graph.tiers[0].name.clone()],
            per_tier: vec![TierCounters::default()],
        };
        DagOutcome {
            summary,
            fleet: Some(fleet),
            spans: Vec::new(),
            profiles: Vec::new(),
        }
    }
}

/// DAG simulation events.
#[derive(Debug, Clone, Copy)]
enum DagEvent {
    /// Next root arrival (reschedules itself while before the horizon).
    Arrive,
    /// A call instance reaches its tier's station.
    NodeArrive(u32),
    /// A call instance's local service completes.
    SvcDone(u32),
    /// A call instance's reply reaches its caller.
    Reply(u32),
    /// A per-attempt edge timeout at the caller.
    EdgeTimeout { parent: u32, slot: u32, attempt: u32 },
    /// The hedge delay elapsed with the edge call still outstanding.
    HedgeFire {
        parent: u32,
        slot: u32,
        attempt: u32,
        delay_ns: u64,
    },
    /// The scenario's tier brownout begins.
    SlowStart(u32),
    /// The scenario's tier brownout ends.
    SlowEnd(u32),
}

/// A simulated instant that may be unset, in 8 bytes where
/// `Option<SimTime>` takes 16: [`SimTime::MAX`] stands for "unset" (no
/// run's clock reaches it).
#[derive(Debug, Clone, Copy)]
struct Stamp(SimTime);

impl Stamp {
    const UNSET: Stamp = Stamp(SimTime::MAX);

    fn get(self) -> Option<SimTime> {
        (self.0 != SimTime::MAX).then_some(self.0)
    }

    fn set(&mut self, t: SimTime) {
        debug_assert!(t != SimTime::MAX, "SimTime::MAX is the unset stamp");
        self.0 = t;
    }
}

/// [`EDGE_ROOT`] in the driver's 32-bit edge ids.
const ROOT_EDGE: u32 = EDGE_ROOT as u32;

/// Caller-side state of one out-edge of one call instance. A call's
/// edge controls are consecutive in [`Engine::ctls`], in out-edge order.
#[derive(Debug)]
struct EdgeCtl {
    /// Edge index into the graph.
    edge: u32,
    /// Dispatch generations so far (initial + retries; hedges excluded).
    attempts: u32,
    /// The winning instance (meaningful once `joined_at` is set).
    winner: u32,
    /// A hedge duplicate has been fired for this edge call.
    hedged: bool,
    /// When the first generation was dispatched (edge-RTT baseline).
    first_dispatch: SimTime,
    /// When the edge joined, if it has.
    joined_at: Stamp,
}

impl EdgeCtl {
    fn new(edge: u32) -> Self {
        EdgeCtl {
            edge,
            attempts: 0,
            winner: 0,
            hedged: false,
            first_dispatch: SimTime::ZERO,
            joined_at: Stamp::UNSET,
        }
    }
}

/// One call instance: a row of the engine's call table. Every id is
/// 32-bit: call ids are minted checked, a request id never exceeds its
/// root call's id, and `Engine::new` bounds the tier and edge counts.
#[derive(Debug)]
struct Inst {
    req: u32,
    node: u32,
    /// Inbound edge index ([`ROOT_EDGE`] for the root call).
    edge: u32,
    attempt: u32,
    /// Caller instance and its out-edge slot (unused for the root call).
    parent: u32,
    slot: u32,
    /// Out-edges not yet joined (meaningful after local service).
    pending: u32,
    /// Index of this call's first edge control in [`Engine::ctls`]
    /// (meaningful after local service, for non-leaf tiers).
    out: u32,
    hedge: bool,
    dead: bool,
    won: bool,
    dispatch: SimTime,
    enter: Stamp,
    exit: Stamp,
    done: Stamp,
    reply: Stamp,
    death: Stamp,
}

impl Inst {
    fn new(req: u32, node: u32, edge: u32, attempt: u32, hedge: bool, dispatch: SimTime) -> Self {
        Inst {
            req,
            node,
            edge,
            attempt,
            parent: 0,
            slot: 0,
            pending: 0,
            out: 0,
            hedge,
            dead: false,
            won: false,
            dispatch,
            enter: Stamp::UNSET,
            exit: Stamp::UNSET,
            done: Stamp::UNSET,
            reply: Stamp::UNSET,
            death: Stamp::UNSET,
        }
    }

    fn is_root(&self) -> bool {
        self.edge == ROOT_EDGE
    }
}

/// A tier's finite-slot FIFO station.
#[derive(Debug)]
struct TierStation {
    slots: usize,
    busy: usize,
    cap: usize,
    queue: VecDeque<u32>,
    slowed: bool,
}

/// How a reply is received at its caller — computed first, so each
/// counter keeps a single increment site.
enum ReplyFate {
    Join,
    HedgeLoser,
    Orphan,
}

struct Engine<'a> {
    g: &'a ServiceGraph,
    profiles: &'a [TierProfile],
    obs: &'a mut dyn Observer,
    enabled: bool,
    sim: Simulation<DagEvent>,
    rng: SimRng,
    stations: Vec<TierStation>,
    /// The call table, indexed by call-instance id.
    insts: Vec<Inst>,
    /// Every non-leaf call's edge controls, one flat slab (see
    /// [`Inst::out`]).
    ctls: Vec<EdgeCtl>,
    roots: Vec<u32>,
    counters: Vec<TierCounters>,
    budgets: Vec<RetryBudget>,
    estimators: Vec<HedgeEstimator>,
    out_edges: Vec<Vec<usize>>,
    arrivals: u64,
    requests: u64,
    completed: u64,
    failed: u64,
    rts: Vec<u64>,
    warm_start: SimTime,
    warm_end: SimTime,
    window_opened: bool,
}

impl<'a> Engine<'a> {
    fn new(g: &'a ServiceGraph, profiles: &'a [TierProfile], obs: &'a mut dyn Observer) -> Self {
        let stations = g
            .tiers
            .iter()
            .map(|t| TierStation {
                slots: t.slots(),
                busy: 0,
                cap: t.queue_cap,
                queue: VecDeque::new(),
                slowed: false,
            })
            .collect();
        let budgets = g
            .edges
            .iter()
            .map(|e| {
                RetryBudget::new(&RetryPolicy {
                    budget_ratio: e.budget_ratio,
                    ..RetryPolicy::default()
                })
            })
            .collect();
        let estimators = g.edges.iter().map(|_| HedgeEstimator::new()).collect();
        // Tier and edge indices are stored as `u32`; a validated graph
        // has far fewer, but the narrowing below must stay lossless.
        assert!(
            u32::try_from(g.tiers.len()).is_ok() && g.edges.len() < ROOT_EDGE as usize,
            "service graph too large for 32-bit tier and edge ids"
        );
        let enabled = obs.is_enabled();
        Engine {
            out_edges: g.out_edges(),
            counters: vec![TierCounters::default(); g.tiers.len()],
            stations,
            budgets,
            estimators,
            obs,
            enabled,
            sim: Simulation::new(),
            rng: SimRng::new(g.seed),
            insts: Vec::new(),
            ctls: Vec::new(),
            roots: Vec::new(),
            arrivals: 0,
            requests: 0,
            completed: 0,
            failed: 0,
            rts: Vec::new(),
            warm_start: SimTime::ZERO + g.arrivals.warmup,
            warm_end: SimTime::ZERO + g.arrivals.warmup + g.arrivals.measure,
            g,
            profiles,
            window_opened: false,
        }
    }

    fn emit(&mut self, ev: TraceEvent) {
        if self.enabled {
            self.obs.record(ev);
        }
    }

    fn run(mut self) -> (DagSummary, Vec<DagSpan>) {
        for (t, tier) in self.g.tiers.iter().enumerate() {
            self.obs.thread_name(t, &tier.name);
        }
        self.obs.run_window(self.warm_start, self.warm_end);
        if let Some(s) = self.g.slow {
            self.sim
                .schedule_at(SimTime::ZERO + s.at, DagEvent::SlowStart(s.tier as u32));
            self.sim.schedule_at(
                SimTime::ZERO + s.at + s.duration,
                DagEvent::SlowEnd(s.tier as u32),
            );
        }
        let mean_gap = 1.0 / self.g.arrivals.rate_per_sec;
        let first = SimDuration::from_secs_f64(self.rng.exp_f64(mean_gap));
        if SimTime::ZERO + first < self.warm_end {
            self.sim.schedule(first, DagEvent::Arrive);
        }
        while let Some((t, ev)) = self.sim.next_event() {
            if !self.window_opened && t >= self.warm_start {
                self.window_opened = true;
                self.obs.window_open(self.warm_start);
            }
            match ev {
                DagEvent::Arrive => self.arrive(),
                DagEvent::NodeArrive(id) => self.node_arrive(id),
                DagEvent::SvcDone(id) => self.svc_done(id),
                DagEvent::Reply(id) => self.reply_at_caller(id),
                DagEvent::EdgeTimeout {
                    parent,
                    slot,
                    attempt,
                } => self.edge_timeout(parent, slot as usize, attempt),
                DagEvent::HedgeFire {
                    parent,
                    slot,
                    attempt,
                    delay_ns,
                } => self.hedge_fire(parent, slot as usize, attempt, delay_ns),
                DagEvent::SlowStart(tier) => self.set_slowed(tier as usize, true),
                DagEvent::SlowEnd(tier) => self.set_slowed(tier as usize, false),
            }
        }
        self.finish()
    }

    fn set_slowed(&mut self, tier: usize, slowed: bool) {
        let now = self.sim.now();
        self.stations[tier].slowed = slowed;
        self.emit(
            TraceEvent::new(now, TraceKind::Mark)
                .thread(tier)
                .arg(u64::from(slowed)),
        );
    }

    fn arrive(&mut self) {
        let now = self.sim.now();
        self.arrivals += 1;
        if now >= self.warm_start {
            self.requests += 1;
        }
        let id = self.next_id();
        // A root is a call instance, so its index fits wherever ids do.
        let req = (self.arrivals - 1) as u32;
        self.insts.push(Inst::new(req, 0, ROOT_EDGE, 0, false, now));
        self.roots.push(id);
        self.emit(
            TraceEvent::new(now, TraceKind::RequestArrive)
                .conn(req as usize)
                .thread(0),
        );
        self.node_arrive(id);
        let gap = SimDuration::from_secs_f64(self.rng.exp_f64(1.0 / self.g.arrivals.rate_per_sec));
        if now + gap < self.warm_end {
            self.sim.schedule(gap, DagEvent::Arrive);
        }
    }

    /// Mints the id of the next call instance.
    fn next_id(&self) -> u32 {
        u32::try_from(self.insts.len()).expect("call-instance ids exceed u32")
    }

    fn node_arrive(&mut self, id: u32) {
        let now = self.sim.now();
        let (node, req, edge, is_root) = {
            let i = &self.insts[id as usize];
            (i.node as usize, i.req, u64::from(i.edge), i.is_root())
        };
        let st = &mut self.stations[node];
        if st.busy < st.slots {
            st.busy += 1;
            self.start_service(id);
        } else if st.queue.len() < st.cap {
            st.queue.push_back(id);
            self.insts[id as usize].enter.set(now);
            self.emit(
                TraceEvent::new(now, TraceKind::QueueEnter)
                    .conn(req as usize)
                    .thread(node)
                    .class(id as usize)
                    .arg(edge),
            );
        } else {
            // Queue full: drop silently. The caller learns nothing until
            // its edge timeout fires — async invocation's silent failure.
            self.counters[node].sheds += 1;
            self.insts[id as usize].dead = true;
            self.insts[id as usize].death.set(now);
            self.emit(
                TraceEvent::new(now, TraceKind::Shed)
                    .conn(req as usize)
                    .thread(node)
                    .class(id as usize)
                    .arg(edge),
            );
            if is_root {
                self.root_abandon(id, 1);
            }
        }
    }

    fn start_service(&mut self, id: u32) {
        let now = self.sim.now();
        let (node, req, edge, fresh) = {
            let i = &self.insts[id as usize];
            (
                i.node as usize,
                i.req,
                u64::from(i.edge),
                i.enter.get().is_none(),
            )
        };
        if fresh {
            // A free slot served the arrival immediately: the queue
            // episode is zero-length but still balanced in the trace.
            self.insts[id as usize].enter.set(now);
            self.emit(
                TraceEvent::new(now, TraceKind::QueueEnter)
                    .conn(req as usize)
                    .thread(node)
                    .class(id as usize)
                    .arg(edge),
            );
        }
        self.insts[id as usize].exit.set(now);
        self.emit(
            TraceEvent::new(now, TraceKind::QueueExit)
                .conn(req as usize)
                .thread(node)
                .class(id as usize)
                .arg(edge),
        );
        let prof = &self.profiles[node];
        let lattice = if self.stations[node].slowed {
            prof.slow_lattice
                .as_ref()
                .expect("a slowed tier carries its browned-out lattice")
        } else {
            &prof.lattice
        };
        // Stateless per-visit draw: a hash of (seed, instance, tier)
        // indexes the quantile lattice, so service times are independent
        // of event-processing order.
        let h = mix64(
            self.g
                .seed
                .wrapping_add((id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ ((node as u64 + 1) << 48),
        );
        let dur = SimDuration::from_nanos(lattice[(h % LATTICE as u64) as usize]);
        self.sim.schedule(dur, DagEvent::SvcDone(id));
    }

    fn svc_done(&mut self, id: u32) {
        let now = self.sim.now();
        let node = self.insts[id as usize].node as usize;
        self.counters[node].served += 1;
        self.insts[id as usize].done.set(now);
        let st = &mut self.stations[node];
        st.busy -= 1;
        if let Some(next) = st.queue.pop_front() {
            st.busy += 1;
            self.start_service(next);
        }
        let fanout = self.out_edges[node].len();
        if fanout == 0 {
            self.send_reply(id);
            return;
        }
        let out = u32::try_from(self.ctls.len()).expect("edge-control indices exceed u32");
        self.ctls
            .extend(self.out_edges[node].iter().map(|&e| EdgeCtl::new(e as u32)));
        let inst = &mut self.insts[id as usize];
        inst.pending = fanout as u32;
        inst.out = out;
        for slot in 0..fanout {
            self.budgets[self.out_edges[node][slot]].deposit();
            self.dispatch_child(id, slot, 0, false);
        }
    }

    /// Caller `parent`'s edge control for out-edge `slot`.
    fn ctl(&self, parent: u32, slot: usize) -> &EdgeCtl {
        &self.ctls[self.insts[parent as usize].out as usize + slot]
    }

    fn ctl_mut(&mut self, parent: u32, slot: usize) -> &mut EdgeCtl {
        &mut self.ctls[self.insts[parent as usize].out as usize + slot]
    }

    /// The single dispatch site: initial sends, edge retries and hedge
    /// duplicates all flow through here.
    fn dispatch_child(&mut self, parent: u32, slot: usize, attempt: u32, hedge: bool) {
        let now = self.sim.now();
        let req = self.insts[parent as usize].req;
        let e_idx = self.ctl(parent, slot).edge as usize;
        let e = &self.g.edges[e_idx];
        let (to, latency, timeout, hcfg) = (e.to, e.latency, e.timeout, e.hedge);
        let id = self.next_id();
        let mut child = Inst::new(req, to as u32, e_idx as u32, attempt, hedge, now);
        child.parent = parent;
        child.slot = slot as u32;
        self.insts.push(child);
        {
            let ctl = self.ctl_mut(parent, slot);
            if attempt == 0 && !hedge {
                ctl.first_dispatch = now;
            }
            if !hedge {
                ctl.attempts = attempt + 1;
            }
        }
        self.counters[to].dispatches += 1;
        self.emit(
            TraceEvent::new(now, TraceKind::DagDispatch)
                .conn(req as usize)
                .thread(to)
                .class(id as usize)
                .arg(e_idx as u64),
        );
        self.sim.schedule(latency, DagEvent::NodeArrive(id));
        if !hedge {
            self.sim.schedule(
                timeout,
                DagEvent::EdgeTimeout {
                    parent,
                    slot: slot as u32,
                    attempt,
                },
            );
            if let Some(h) = hcfg {
                if !self.ctl(parent, slot).hedged {
                    let delay = self.estimators[e_idx].delay(&h);
                    self.sim.schedule(
                        delay,
                        DagEvent::HedgeFire {
                            parent,
                            slot: slot as u32,
                            attempt,
                            delay_ns: delay.as_nanos(),
                        },
                    );
                }
            }
        }
    }

    fn edge_timeout(&mut self, parent: u32, slot: usize, attempt: u32) {
        let (req, pnode, e_idx) = {
            let p = &self.insts[parent as usize];
            if p.dead {
                return;
            }
            let ctl = self.ctl(parent, slot);
            // Joined, or a newer generation owns the edge: stale timer.
            if ctl.joined_at.get().is_some() || ctl.attempts != attempt + 1 {
                return;
            }
            (p.req, p.node as usize, ctl.edge as usize)
        };
        let now = self.sim.now();
        self.counters[pnode].edge_timeouts += 1;
        self.emit(
            TraceEvent::new(now, TraceKind::ClientTimeout)
                .conn(req as usize)
                .thread(pnode)
                .arg(attempt as u64),
        );
        let can_retry = attempt < self.g.edges[e_idx].max_retries;
        if can_retry && self.budgets[e_idx].try_withdraw() {
            self.counters[pnode].edge_retries += 1;
            self.emit(
                TraceEvent::new(now, TraceKind::DagEdgeRetry)
                    .conn(req as usize)
                    .thread(pnode)
                    .arg(attempt as u64),
            );
            self.dispatch_child(parent, slot, attempt + 1, false);
        } else {
            self.fail_call(parent, attempt + 1);
        }
    }

    fn hedge_fire(&mut self, parent: u32, slot: usize, attempt: u32, delay_ns: u64) {
        let (req, pnode) = {
            let p = &self.insts[parent as usize];
            if p.dead {
                return;
            }
            let ctl = self.ctl(parent, slot);
            if ctl.joined_at.get().is_some() || ctl.attempts != attempt + 1 || ctl.hedged {
                return;
            }
            (p.req, p.node as usize)
        };
        let now = self.sim.now();
        self.ctl_mut(parent, slot).hedged = true;
        self.counters[pnode].hedges += 1;
        self.emit(
            TraceEvent::new(now, TraceKind::Hedge)
                .conn(req as usize)
                .thread(pnode)
                .arg(delay_ns),
        );
        self.dispatch_child(parent, slot, attempt, true);
    }

    /// An edge of `id`'s own call exhausted its retries or budget: the
    /// call dies without replying. Its caller discovers the loss at its
    /// own edge timeout; a dead root is an abandoned request.
    fn fail_call(&mut self, id: u32, attempts: u32) {
        let now = self.sim.now();
        let (node, is_root) = {
            let i = &self.insts[id as usize];
            (i.node as usize, i.is_root())
        };
        self.insts[id as usize].dead = true;
        self.insts[id as usize].death.set(now);
        self.counters[node].failed_calls += 1;
        if is_root {
            self.root_abandon(id, attempts);
        }
    }

    fn root_abandon(&mut self, id: u32, attempts: u32) {
        let now = self.sim.now();
        let req = self.insts[id as usize].req;
        self.emit(
            TraceEvent::new(now, TraceKind::Abandon)
                .conn(req as usize)
                .thread(0)
                .arg(attempts as u64),
        );
        if now >= self.warm_start {
            self.failed += 1;
        }
    }

    fn send_reply(&mut self, id: u32) {
        let now = self.sim.now();
        let (node, req, edge, is_root) = {
            let i = &self.insts[id as usize];
            (i.node as usize, i.req, i.edge as usize, i.is_root())
        };
        self.insts[id as usize].reply.set(now);
        self.counters[node].replies += 1;
        if is_root {
            let rt = now.duration_since(self.insts[id as usize].dispatch);
            self.emit(
                TraceEvent::new(now, TraceKind::Completion)
                    .conn(req as usize)
                    .thread(node)
                    .arg(rt.as_nanos()),
            );
            if now >= self.warm_start && now < self.warm_end {
                self.completed += 1;
                self.rts.push(rt.as_nanos());
            }
        } else {
            let latency = self.g.edges[edge].latency;
            self.sim.schedule(latency, DagEvent::Reply(id));
        }
    }

    fn reply_at_caller(&mut self, child: u32) {
        let now = self.sim.now();
        let (pid, slot, cnode, creq, cattempt, chedge) = {
            let c = &self.insts[child as usize];
            assert!(!c.is_root(), "root replies complete at the client");
            (
                c.parent,
                c.slot as usize,
                c.node as usize,
                c.req,
                c.attempt,
                c.hedge,
            )
        };
        let fate = if self.insts[pid as usize].dead {
            ReplyFate::Orphan
        } else {
            let ctl = self.ctl(pid, slot);
            if ctl.joined_at.get().is_none() {
                ReplyFate::Join
            } else {
                let w = &self.insts[ctl.winner as usize];
                // The loser of a hedged pair is cancelled; any other late
                // reply (an older or newer retry generation) is an orphan.
                if w.attempt == cattempt && w.hedge != chedge {
                    ReplyFate::HedgeLoser
                } else {
                    ReplyFate::Orphan
                }
            }
        };
        match fate {
            ReplyFate::Join => {
                let (e_idx, first_dispatch) = {
                    let ctl = self.ctl_mut(pid, slot);
                    ctl.joined_at.set(now);
                    ctl.winner = child;
                    (ctl.edge as usize, ctl.first_dispatch)
                };
                let pnode = {
                    let p = &mut self.insts[pid as usize];
                    p.pending -= 1;
                    p.node as usize
                };
                self.insts[child as usize].won = true;
                self.counters[cnode].joins += 1;
                self.emit(
                    TraceEvent::new(now, TraceKind::DagJoin)
                        .conn(creq as usize)
                        .thread(pnode)
                        .class(child as usize)
                        .arg(e_idx as u64),
                );
                self.estimators[e_idx].observe(now.duration_since(first_dispatch));
                if self.insts[pid as usize].pending == 0 {
                    self.send_reply(pid);
                }
            }
            ReplyFate::HedgeLoser => {
                let e_idx = self.ctl(pid, slot).edge;
                self.counters[cnode].hedge_cancels += 1;
                self.emit(
                    TraceEvent::new(now, TraceKind::HedgeCancel)
                        .conn(creq as usize)
                        .thread(cnode)
                        .class(child as usize)
                        .arg(e_idx.into()),
                );
            }
            ReplyFate::Orphan => {
                self.counters[cnode].orphans += 1;
            }
        }
    }

    fn finish(self) -> (DagSummary, Vec<DagSpan>) {
        let spans = self.build_spans();
        let mut rts = self.rts;
        rts.sort_unstable();
        let pct = |q: f64| -> u64 {
            if rts.is_empty() {
                0
            } else {
                rts[(((rts.len() - 1) as f64) * q).round() as usize]
            }
        };
        let mean = if rts.is_empty() {
            0
        } else {
            rts.iter().sum::<u64>() / rts.len() as u64
        };
        let summary = DagSummary {
            name: self.g.name.clone(),
            requests: self.requests,
            completed: self.completed,
            failed: self.failed,
            arrivals: self.arrivals,
            goodput: self.completed as f64 / self.g.arrivals.measure.as_secs_f64(),
            mean_rt_us: mean / 1_000,
            p50_rt_us: pct(0.50) / 1_000,
            p99_rt_us: pct(0.99) / 1_000,
            tier_names: self.g.tiers.iter().map(|t| t.name.clone()).collect(),
            per_tier: self.counters,
        };
        (summary, spans)
    }

    /// Builds one span per root request from the driver's perfect
    /// linkage, including the critical-path phase decomposition (see
    /// [`DagSpan`]).
    fn build_spans(&self) -> Vec<DagSpan> {
        let (g, insts, ctls, roots) = (self.g, &self.insts, &self.ctls, &self.roots);
        let ntiers = g.tiers.len();
        // Count each request's attempts first, so every span's attempt list
        // is allocated once at its exact size.
        let mut counts = vec![0usize; roots.len()];
        for i in insts {
            counts[i.req as usize] += 1;
        }
        let mut spans: Vec<DagSpan> = roots
            .iter()
            .zip(&counts)
            .map(|(&rid, &n)| {
                let r = &insts[rid as usize];
                let (end, status) = match r.reply.get() {
                    Some(t) => (t, DagSpanStatus::Completed),
                    None => (
                        r.death
                            .get()
                            .expect("a drained run leaves no unfinished root"),
                        DagSpanStatus::Failed,
                    ),
                };
                DagSpan {
                    req: r.req.into(),
                    start: r.dispatch,
                    end,
                    status,
                    attempts: Vec::with_capacity(n),
                    tier_queue_ns: vec![0; ntiers],
                    tier_service_ns: vec![0; ntiers],
                    network_ns: 0,
                    wait_ns: 0,
                }
            })
            .collect();
        for (id, i) in insts.iter().enumerate() {
            spans[i.req as usize].attempts.push(DagAttempt {
                inst: id as u32,
                node: i.node as usize,
                edge: i.edge.into(),
                attempt: i.attempt,
                hedge: i.hedge,
                dispatch: i.dispatch,
                enter: i.enter.get(),
                exit: i.exit.get(),
                done: i.done.get(),
                reply: i.reply.get(),
                won: i.won,
            });
        }
        for (req, span) in spans.iter_mut().enumerate() {
            if span.status != DagSpanStatus::Completed {
                // No critical path through a dead request; the whole span is
                // dead wait, which keeps the conservation identity exact.
                span.wait_ns = span.end.duration_since(span.start).as_nanos();
                continue;
            }
            // Walk the chain of last-joining edges from the root call down.
            let mut cur = roots[req];
            loop {
                let i = &insts[cur as usize];
                let node = i.node as usize;
                let enter = i.enter.get().expect("critical-path calls are never shed");
                let exit = i.exit.get().expect("critical-path calls started service");
                let done = i.done.get().expect("critical-path calls finished service");
                span.tier_queue_ns[node] += exit.duration_since(enter).as_nanos();
                span.tier_service_ns[node] += done.duration_since(exit).as_nanos();
                let fanout = self.out_edges[node].len();
                if fanout == 0 {
                    break;
                }
                let out = i.out as usize;
                let ctl = ctls[out..out + fanout]
                    .iter()
                    .max_by_key(|c| c.joined_at.get().expect("a replied call joined every edge"))
                    .expect("non-leaf calls have out-edges");
                span.network_ns += 2 * g.edges[ctl.edge as usize].latency.as_nanos();
                span.wait_ns += insts[ctl.winner as usize]
                    .dispatch
                    .duration_since(done)
                    .as_nanos();
                cur = ctl.winner;
            }
        }
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::dag_span_audit;
    use crate::summary::dag_audit;
    use asyncinv_servers::ServerKind;

    fn small_graph() -> ServiceGraph {
        let mut g = ServiceGraph::tree("tree", ServerKind::NettyLike, 2, 2, 17);
        g.arrivals.rate_per_sec = 2000.0;
        g.arrivals.warmup = SimDuration::from_millis(50);
        g.arrivals.measure = SimDuration::from_millis(300);
        g
    }

    #[test]
    fn call_table_rows_stay_compact() {
        assert_eq!(std::mem::size_of::<Stamp>(), 8);
        assert!(std::mem::size_of::<Inst>() <= 88);
        assert!(std::mem::size_of::<EdgeCtl>() <= 32);
    }

    #[test]
    fn composed_run_is_deterministic() {
        let run = DagRun::new(small_graph(), FleetDriver::Interleaved);
        let a = run.run();
        let b = run.run();
        assert_eq!(a.summary, b.summary);
        assert!(a.summary.completed > 0, "graph must complete requests");
    }

    #[test]
    fn composed_run_is_driver_invariant() {
        let a = DagRun::new(small_graph(), FleetDriver::Interleaved).run();
        let b = DagRun::new(small_graph(), FleetDriver::Parallel).run();
        assert_eq!(a.summary, b.summary);
    }

    #[test]
    fn composed_run_passes_both_audits() {
        let (outcome, rec) = DagRun::new(small_graph(), FleetDriver::Interleaved).run_traced();
        let report = dag_audit(&outcome.summary, &rec);
        assert!(report.pass(), "{report}");
        let spans = dag_span_audit(&outcome.spans, &rec);
        assert!(spans.pass(), "{spans}");
    }

    #[test]
    fn spans_conserve_bitwise() {
        let outcome = DagRun::new(small_graph(), FleetDriver::Interleaved).run();
        assert!(!outcome.spans.is_empty());
        for s in &outcome.spans {
            assert!(s.conserves(), "span {} does not telescope", s.req);
        }
    }

    #[test]
    fn trivial_graph_delegates_to_the_fleet() {
        let g = ServiceGraph::tree("triv", ServerKind::Proactor, 0, 1, 5);
        let run = DagRun::new(g.clone(), FleetDriver::Interleaved);
        let outcome = run.run();
        let fleet = outcome.fleet.expect("trivial runs report the fleet summary");
        let bare = Cluster::new(g.tier_fleet_config(0)).run(g.tiers[0].kind);
        assert_eq!(fleet, bare, "trivial DAG must be bit-identical to the bare fleet");
        assert!(outcome.spans.is_empty());
        assert_eq!(outcome.summary.completed, bare.fleet.completions);
    }

    #[test]
    fn slow_tier_raises_latency() {
        let mut base = small_graph();
        base.arrivals.rate_per_sec = 500.0;
        let healthy = DagRun::new(base.clone(), FleetDriver::Interleaved).run();
        let mut slowed = base;
        slowed.slow = Some(crate::graph::SlowTier {
            tier: 1,
            factor: 20.0,
            at: SimDuration::from_millis(50),
            duration: SimDuration::from_millis(300),
        });
        let hit = DagRun::new(slowed, FleetDriver::Interleaved).run();
        assert!(
            hit.summary.p99_rt_us > healthy.summary.p99_rt_us,
            "a 20x brownout must raise tail latency ({} vs {})",
            hit.summary.p99_rt_us,
            healthy.summary.p99_rt_us
        );
    }
}
