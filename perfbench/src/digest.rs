//! Summary digests: a 64-bit FNV-1a hash over the simulated results of a
//! cell, and the recorded-digest files under `perfbench/digests/`.
//!
//! The fields hashed are the simulated quantities a researcher reads off
//! a cell (throughput, response-time percentiles, switches, writes,
//! spins, retries, fleet and DAG counters, span-phase totals). They are
//! deterministic, so any change to them is a change in simulated
//! behaviour, which a host-time optimisation must not make.

use std::collections::BTreeMap;
use std::path::Path;

use asyncinv::dag::DagSummary;
use asyncinv::fleet::FleetSummary;
use asyncinv::obs::{Phase, PhaseBreakdown, SpanForest};
use asyncinv::RunSummary;

/// FNV-1a over 64-bit words and strings.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

pub fn run_summary(h: &mut Fnv, s: &RunSummary) {
    h.str(&s.server)
        .u64(s.concurrency as u64)
        .u64(s.response_size as u64)
        .u64(s.added_latency_us)
        .u64(s.completions)
        .f64(s.throughput)
        .u64(s.mean_rt_us)
        .u64(s.p50_rt_us)
        .u64(s.p95_rt_us)
        .u64(s.p99_rt_us)
        .f64(s.cs_per_sec)
        .f64(s.cs_per_req)
        .f64(s.writes_per_req)
        .f64(s.spins_per_req)
        .f64(s.cpu.user)
        .f64(s.cpu.sys)
        .f64(s.cpu.idle)
        .f64(s.rate_cv)
        .u64(s.dropped_arrivals)
        .u64(s.timeouts)
        .u64(s.retries)
        .u64(s.abandoned)
        .u64(s.rejected)
        .u64(s.shed_dropped)
        .u64(s.fault_events)
        .u64(s.shard_routes)
        .u64(s.hedges)
        .u64(s.hedge_cancels)
        .u64(s.shard_retries)
        .u64(s.sq_submits)
        .u64(s.sq_flushes)
        .u64(s.cq_reaps)
        .u64(s.sq_full)
        .f64(s.crossings_per_req);
    for c in &s.per_class {
        h.str(&c.class)
            .u64(c.response_bytes as u64)
            .u64(c.completions)
            .u64(c.mean_rt_us)
            .u64(c.p99_rt_us);
    }
}

pub fn fleet_summary(h: &mut Fnv, s: &FleetSummary) {
    run_summary(h, &s.fleet);
    for sh in &s.per_shard {
        h.u64(sh.shard as u64)
            .str(&sh.server)
            .u64(sh.routes)
            .u64(sh.completions)
            .u64(sh.hedges)
            .u64(sh.hedge_cancels)
            .u64(sh.shard_retries)
            .u64(sh.rejected)
            .u64(sh.shed_dropped)
            .u64(sh.fault_events)
            .u64(sh.context_switches)
            .u64(sh.write_calls);
    }
}

/// The span forest's shape and its critical-path phase totals.
pub fn spans(h: &mut Fnv, forest: &SpanForest, phases: &PhaseBreakdown) {
    h.u64(forest.trees.len() as u64)
        .u64(forest.completed().count() as u64)
        .u64(forest.abandoned().count() as u64)
        .u64(forest.trees.iter().map(|t| t.attempts.len() as u64).sum());
    for p in Phase::ALL {
        h.u64(phases.get(p));
    }
}

pub fn dag_summary(h: &mut Fnv, s: &DagSummary) {
    h.str(&s.name)
        .u64(s.requests)
        .u64(s.completed)
        .u64(s.failed)
        .u64(s.arrivals)
        .f64(s.goodput)
        .u64(s.mean_rt_us)
        .u64(s.p50_rt_us)
        .u64(s.p99_rt_us);
    for (name, t) in s.tier_names.iter().zip(&s.per_tier) {
        h.str(name)
            .u64(t.dispatches)
            .u64(t.sheds)
            .u64(t.served)
            .u64(t.replies)
            .u64(t.failed_calls)
            .u64(t.joins)
            .u64(t.hedge_cancels)
            .u64(t.orphans)
            .u64(t.edge_timeouts)
            .u64(t.edge_retries)
            .u64(t.hedges);
    }
}

/// Recorded digests of one workload: `(seed, cell key) -> digest`.
pub type Recorded = BTreeMap<(u64, String), u64>;

/// Reads `<dir>/<workload>.tsv` (`seed<TAB>key<TAB>hex` lines, `#`
/// comments); a missing file is an empty record.
pub fn load(dir: &Path, workload: &str) -> Result<Recorded, String> {
    let path = dir.join(format!("{workload}.tsv"));
    let body = match std::fs::read_to_string(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Recorded::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let mut out = Recorded::new();
    for (n, line) in body.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let bad = || format!("{}:{}: malformed digest line", path.display(), n + 1);
        let mut f = line.split('\t');
        let (Some(seed), Some(key), Some(hex), None) = (f.next(), f.next(), f.next(), f.next())
        else {
            return Err(bad());
        };
        let seed = seed.parse().map_err(|_| bad())?;
        let digest = u64::from_str_radix(hex, 16).map_err(|_| bad())?;
        out.insert((seed, key.to_string()), digest);
    }
    Ok(out)
}

/// Writes `<dir>/<workload>.tsv`, sorted by seed then key.
pub fn store(dir: &Path, workload: &str, header: &str, rows: &Recorded) -> Result<(), String> {
    let mut body = String::new();
    for line in header.lines() {
        body.push_str(&format!("# {line}\n"));
    }
    for ((seed, key), digest) in rows {
        body.push_str(&format!("{seed}\t{key}\t{digest:016x}\n"));
    }
    let path = dir.join(format!("{workload}.tsv"));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, body))
        .map_err(|e| format!("{}: {e}", path.display()))
}
