//! perfbench — the host-time benchmark of the asyncinv simulator.
//!
//! ```sh
//! python3 perfbench/run.py --workload light_grid --seed 1 --seconds 10 --trace 0
//! python3 perfbench/run.py --workload light_grid --seed 1 --seconds 10 --trace 1
//! python3 perfbench/run.py --regen-digests            # all workloads
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the benchmark's spans
//! off; `--trace 1` is the separate traced invocation that reports the
//! per-layer metrics and writes its spans to `perfbench/out/`. The last
//! line of standard output is a JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

// Wall-clock time of the host is what this program measures; it never
// feeds simulated time.
#![allow(clippy::disallowed_methods)]

mod digest;
mod layers;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::thread::ThreadId;
use std::time::Instant;

use asyncinv::runner::parallel_map;
use asyncinv::ServerKind;

use spans::{Span, Tracer};
use stats::{median, quantile};
use workloads::{Cell, Counts, Exec, Workload};

/// Seeds whose digests are recorded under `perfbench/digests/`.
const DEFAULT_SEEDS: std::ops::RangeInclusive<u64> = 0..=20;
/// The seed later changes confirm a claim on; its digests are recorded
/// too, but it is not used while tuning a change.
const HELD_OUT_SEED: u64 = 7919;
/// Back-to-back set-ups per sample. A sample is the fastest of them: the
/// set-up cost once the first build has warmed the caches.
const SETUP_REPS: usize = 9;
/// `cell_p90_ms` needs at least ten cells beyond it.
const P90_MIN_CELLS: usize = 100;

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Runner threads: the host's core count, as the harness binaries
    /// use by default.
    threads: usize,
    regen: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        regen: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--regen-digests" {
            args.regen = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.workload.is_none() && !args.regen {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// What every output is stamped with, so runs from different commits or
/// hosts are not compared by accident.
fn stamp(args: &Args, workload: &str) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = if args.regen {
        format!(
            "\"seeds\":\"{}-{},{HELD_OUT_SEED}\"",
            DEFAULT_SEEDS.start(),
            DEFAULT_SEEDS.end()
        )
    } else {
        format!("\"seed\":{},\"traced\":{}", args.seed, args.trace)
    };
    format!(
        "{{\"rev\":\"{}\",\"rustc\":\"{}\",\"host_cores\":{host_cores},\"threads\":{},\
         \"workload\":\"{workload}\",{run}}}",
        env("PERFBENCH_REV"),
        env("PERFBENCH_RUSTC"),
        args.threads,
    )
}

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// One cell's run within a batch.
#[derive(Debug)]
struct CellRun {
    start_ns: u64,
    end_ns: u64,
    worker: ThreadId,
    /// `None` when the cell panicked.
    exec: Option<Exec>,
    spans: Vec<Span>,
}

/// One pass of the runner over every cell.
#[derive(Debug)]
struct Batch {
    runs: Vec<CellRun>,
    /// From the call into the runner (which starts its workers) until
    /// it returned with every cell done.
    wall_ns: u64,
}

/// Runs every cell once through the program's cell runner. A panic fails
/// its cell instead of the batch.
fn run_batch(cells: &[Cell], threads: usize, epoch: Instant, traced: bool) -> Batch {
    let idx: Vec<usize> = (0..cells.len()).collect();
    let start = now_ns(epoch);
    let runs = parallel_map(&idx, threads, |&i| {
        let mut t = if traced {
            Tracer::new(epoch, Some(i))
        } else {
            Tracer::off(epoch)
        };
        let start_ns = now_ns(epoch);
        t.open("cell", "runner");
        let exec = catch_unwind(AssertUnwindSafe(|| cells[i].run(&mut t, traced))).ok();
        let spans = if exec.is_some() {
            t.close();
            t.into_spans()
        } else {
            Vec::new()
        };
        CellRun {
            start_ns,
            end_ns: now_ns(epoch),
            worker: std::thread::current().id(),
            exec,
            spans,
        }
    });
    Batch {
        runs,
        wall_ns: now_ns(epoch) - start,
    }
}

fn cell_ms(runs: &[CellRun]) -> impl Iterator<Item = f64> + '_ {
    runs.iter().map(|r| (r.end_ns - r.start_ns) as f64 / 1e6)
}

/// Each cell's fastest run over `batches`, in ms: its cost with the least
/// interference from the rest of the host.
fn fastest_cell_ms(batches: &[Batch]) -> Vec<f64> {
    let mut fastest: Vec<f64> = Vec::new();
    for b in batches {
        fastest.resize(b.runs.len(), f64::INFINITY);
        for (f, t) in fastest.iter_mut().zip(cell_ms(&b.runs)) {
            *f = f.min(t);
        }
    }
    fastest
}

/// Σ cell time ÷ (wall × threads).
fn busy_frac(b: &Batch, threads: usize) -> f64 {
    let busy: u64 = b.runs.iter().map(|r| r.end_ns - r.start_ns).sum();
    busy as f64 / (b.wall_ns.max(1) as f64 * threads as f64)
}

/// How long the last cell ran alone: batch end minus the moment the
/// second-to-last worker finished.
fn straggler_ns(runs: &[CellRun]) -> u64 {
    let mut last: Vec<(ThreadId, u64)> = Vec::new();
    for r in runs {
        match last.iter_mut().find(|(w, _)| *w == r.worker) {
            Some((_, end)) => *end = (*end).max(r.end_ns),
            None => last.push((r.worker, r.end_ns)),
        }
    }
    let mut ends: Vec<u64> = last.into_iter().map(|(_, end)| end).collect();
    ends.sort_unstable();
    match ends.as_slice() {
        [.., second, last] => last - second,
        _ => 0,
    }
}

/// Counts cells attempted and failed. A cell fails when it panicked, when
/// an audit or tracing check failed, or when its digest differs from the
/// reference for its position (`None`: no valid reference).
fn tally<'a>(
    batches: impl IntoIterator<Item = &'a [CellRun]>,
    reference: &[Option<u64>],
) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    for runs in batches {
        for (run, want) in runs.iter().zip(reference) {
            attempted += 1;
            let good = matches!((run.exec, want), (Some(e), Some(d)) if e.ok && e.digest == *d);
            failed += u64::from(!good);
        }
    }
    (attempted, failed)
}

/// Reference digests for `cells`: the recorded ones when the seed has a
/// full record, else the traced run of each cell (which checks that
/// tracing leaves the summary unchanged and runs the audits).
fn references(
    w: Workload,
    seed: u64,
    cells: &[Cell],
    threads: usize,
    epoch: Instant,
) -> Result<(Vec<Option<u64>>, &'static str), String> {
    let recorded = digest::load(&bench_dir().join("digests"), w.name())?;
    let from_record: Option<Vec<_>> = cells
        .iter()
        .map(|c| recorded.get(&(seed, c.key.clone())).copied().map(Some))
        .collect();
    if let Some(r) = from_record {
        return Ok((r, "recorded digests"));
    }
    let r = run_batch(cells, threads, epoch, true)
        .runs
        .iter()
        .map(|run| run.exec.filter(|e| e.ok).map(|e| e.digest))
        .collect();
    Ok((r, "traced re-run (seed not recorded)"))
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A named metric with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    // `+ 0.0` turns the -0.0 of an empty float sum into 0.
    Metric {
        name: name.into(),
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
        unit,
    }
}

fn print_result(attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    );
}

fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// The untraced invocation: end-to-end metrics.
fn measure(w: Workload, args: &Args, epoch: Instant) -> Result<(), String> {
    let dir = bench_dir();
    let deadline_ns = (args.seconds * 1e9) as u64;
    // One set-up sample before every batch, so that the samples spread
    // over the run like the batches do. A set-up reads the scenario and
    // builds and validates every cell.
    let (mut setups, mut batches) = (Vec::new(), Vec::new());
    let mut cells = Vec::new();
    // A batch starts only if a batch of median length still ends in time,
    // so the run keeps to `--seconds`.
    let fits = |batches: &[Batch]| {
        let typical = median(batches.iter().map(|b| b.wall_ns as f64)) as u64;
        now_ns(epoch) + typical <= deadline_ns
    };
    while batches.is_empty() || fits(&batches) {
        let mut best = u64::MAX;
        for _ in 0..SETUP_REPS {
            let t0 = now_ns(epoch);
            cells = workloads::build(w, args.seed, &dir)?;
            best = best.min(now_ns(epoch) - t0);
        }
        setups.push(best as f64 / 1e9);
        batches.push(run_batch(&cells, args.threads, epoch, false));
    }
    // Read before the reference run, whose traced cells hold full traces.
    let peak_rss = peak_rss_mb();
    let walls: Vec<f64> = batches.iter().map(|b| b.wall_ns as f64 / 1e9).collect();
    let cell_times = fastest_cell_ms(&batches);
    let (reference, source) = references(w, args.seed, &cells, args.threads, epoch)?;
    let (attempted, failed) = tally(batches.iter().map(|b| b.runs.as_slice()), &reference);

    let metrics = vec![
        metric("setup_s", median(setups.iter().copied()), "s"),
        metric("wall_s", median(walls.iter().copied()), "s"),
        metric("cell_p50_ms", median(cell_times.iter().copied()), "ms"),
        metric(
            "cell_p90_ms",
            quantile(cell_times.iter().copied(), 0.9),
            "ms",
        ),
        metric("peak_rss_mb", peak_rss, "MB"),
    ];
    println!(
        "workload {}: {} cells per batch, {} batches, {} set-up samples, {} thread(s)",
        w.name(),
        cells.len(),
        batches.len(),
        setups.len(),
        args.threads
    );
    print_table(&metrics);
    let walls_txt: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    println!("  batch walls [s]: {}", walls_txt.join(" "));
    let fail_frac = failed as f64 / attempted.max(1) as f64;
    println!(
        "  {:<34} {:>16.6} ratio ({failed} of {attempted} cells; checked against {source})",
        "fail_frac", fail_frac
    );
    println!(
        "  cell_p50_ms and cell_p90_ms rest on {} cells, each its fastest of {} runs",
        cell_times.len(),
        batches.len()
    );
    if cell_times.len() < P90_MIN_CELLS {
        println!("  note: cell_p90_ms rests on fewer than {P90_MIN_CELLS} cells");
    }
    print_result(attempted, failed, &metrics);
    Ok(())
}

/// Host time per call name, per cell span: one map per cell span (across
/// traced batches) from call name to the time spent in direct calls of
/// that name.
fn calls_per_cell(spans: &[Span]) -> Vec<BTreeMap<&'static str, f64>> {
    let mut by_cell: BTreeMap<usize, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| spans[p].name == "cell") {
            *by_cell.entry(p).or_default().entry(s.name).or_default() +=
                (s.end_ns - s.start_ns) as f64;
        }
    }
    by_cell.into_values().collect()
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// How much longer `slow` took than `base`, in percent (0 without a base).
fn overhead_pct(slow: f64, base: f64) -> f64 {
    if base > 0.0 {
        (slow / base - 1.0) * 100.0
    } else {
        0.0
    }
}

/// What the traced invocation measured.
struct TracedRun<'a> {
    cells: &'a [Cell],
    untraced: Vec<Batch>,
    traced: Vec<Batch>,
    /// Per iteration: hold ns at 64 and 4096, CPU step ns, TCP write ns.
    drivers: Vec<[f64; 4]>,
    spans: Vec<Span>,
    self_ns: Vec<u64>,
    threads: usize,
}

impl TracedRun<'_> {
    fn layer_metrics(&self) -> Vec<Metric> {
        let n_iter = self.traced.len() as f64;
        let mut c = Counts::default();
        for e in self.traced[0].runs.iter().filter_map(|r| r.exec.as_ref()) {
            c.add(&e.counts);
        }
        let calls = calls_per_cell(&self.spans);
        let per_cell = |name: &'static str| calls.iter().filter_map(move |c| c.get(name).copied());
        let total = |name: &'static str| per_cell(name).sum::<f64>();
        let med_ms = |name: &'static str| median(per_cell(name)) / 1e6;
        let dag: Vec<_> = calls
            .iter()
            .filter(|c| c.contains_key("DagRun::run"))
            .collect();
        let calibrate = |c: &BTreeMap<&str, f64>| c.get("calibrate_tier").copied().unwrap_or(0.0);
        let compose = |c: &BTreeMap<&str, f64>| c["DagRun::run"] - calibrate(c);
        let audits = [
            "audit",
            "fleet_audit",
            "span_audit",
            "dag_audit",
            "dag_span_audit",
        ];
        let audit_ms = calls
            .iter()
            .filter(|c| audits.iter().any(|a| c.contains_key(a)))
            .map(|c| audits.iter().filter_map(|a| c.get(a)).sum::<f64>() / 1e6);
        let driver = |i: usize| median(self.drivers.iter().map(|d| d[i]));
        let wall = |batches: &[Batch]| median(batches.iter().map(|b| b.wall_ns as f64));
        let count = |name: &str, v: u64| metric(name, v as f64, "count");

        let mut m = vec![
            metric(
                "runner.busy_frac",
                median(self.untraced.iter().map(|b| busy_frac(b, self.threads))),
                "ratio",
            ),
            metric(
                "runner.straggler_ms",
                median(
                    self.untraced
                        .iter()
                        .map(|b| straggler_ns(&b.runs) as f64 / 1e6),
                ),
                "ms",
            ),
        ];
        for kind in ServerKind::ALL {
            let times = self
                .untraced
                .iter()
                .flat_map(|b| b.runs.iter().zip(self.cells))
                .filter(|(_, cell)| cell.arch == Some(kind))
                .map(|(r, _)| (r.end_ns - r.start_ns) as f64 / 1e6);
            m.push(metric(
                format!("servers.cell_ms.{kind:?}"),
                median(times),
                "ms",
            ));
        }
        let engine_ns = (total("Experiment::run") + total("Cluster::run")) / n_iter;
        m.extend([
            metric(
                "servers.ns_per_event",
                ratio(engine_ns, c.events as f64),
                "ns",
            ),
            count("simcore.events", c.events),
            metric("simcore.hold_ns.pop64", driver(0), "ns"),
            metric("simcore.hold_ns.pop4096", driver(1), "ns"),
            count("cpu.context_switches", c.context_switches),
            count("cpu.preemptions", c.preemptions),
            metric("cpu.step_ns", driver(2), "ns"),
            count("tcp.write_calls", c.write_calls),
            count("tcp.zero_writes", c.zero_writes),
            metric(
                "tcp.useful_write_frac",
                ratio((c.write_calls - c.zero_writes) as f64, c.write_calls as f64),
                "ratio",
            ),
            metric("tcp.write_ns", driver(3), "ns"),
            count("uring.sq_flushes", c.sq_flushes),
            count("uring.cq_reaps", c.cq_reaps),
            metric(
                "uring.sqes_per_flush",
                ratio(c.sq_submits as f64, c.sq_flushes as f64),
                "ratio",
            ),
            count("workload.completions", c.completions),
            count("workload.retries", c.retries),
            count("workload.timeouts", c.timeouts),
            metric(
                "obs.emit_pct",
                overhead_pct(total("Experiment::run_observed"), total("Experiment::run")),
                "%",
            ),
            count("obs.trace_events", c.trace_events),
            metric(
                "obs.record_pct",
                overhead_pct(
                    total("Cluster::run_traced") + total("DagRun::run_traced"),
                    total("Cluster::run") + total("DagRun::run"),
                ),
                "%",
            ),
            metric(
                "obs.span_assembly_ms",
                med_ms("SpanAssembler::assemble"),
                "ms",
            ),
            metric(
                "obs.span_pct",
                100.0
                    * ratio(
                        total("SpanAssembler::assemble"),
                        total("Cluster::run_traced"),
                    ),
                "%",
            ),
            metric(
                "obs.critical_path_ms",
                med_ms("SpanForest::aggregate_completed"),
                "ms",
            ),
            metric("obs.audit_ms", median(audit_ms), "ms"),
            metric("fleet.cell_ms", med_ms("Cluster::run"), "ms"),
            count("fleet.shard_routes", c.shard_routes),
            count("fleet.hedges", c.hedges),
            metric(
                "fleet.hedge_cancel_frac",
                ratio(c.hedge_cancels as f64, c.hedges as f64),
                "ratio",
            ),
            count("fleet.shard_retries", c.shard_retries),
            metric(
                "dag.calibrate_ms",
                median(dag.iter().map(|c| calibrate(c) / 1e6)),
                "ms",
            ),
            metric(
                "dag.compose_ms",
                median(dag.iter().map(|c| compose(c) / 1e6)),
                "ms",
            ),
            count("dag.roots", c.dag_roots),
            metric(
                "dag.compose_ns_per_root",
                ratio(
                    dag.iter().map(|c| compose(c)).sum::<f64>() / n_iter,
                    c.dag_roots as f64,
                ),
                "ns",
            ),
            count("dag.edge_retries", c.dag_edge_retries),
            metric(
                "trace.overhead_pct",
                overhead_pct(wall(&self.traced), wall(&self.untraced)),
                "%",
            ),
        ]);
        for layer in [
            "runner", "servers", "fleet", "obs", "dag", "simcore", "cpu", "tcp",
        ] {
            let ns: u64 = self
                .spans
                .iter()
                .zip(&self.self_ns)
                .filter(|(s, _)| s.layer == layer)
                .map(|(_, n)| n)
                .sum();
            m.push(metric(
                format!("self_ms.{layer}"),
                ns as f64 / 1e6 / n_iter,
                "ms",
            ));
        }
        m
    }

    /// Cells attempted and failed: every traced cell must pass its audits
    /// and tracing check, and match its untraced run and any recorded
    /// digest.
    fn tally(&self, seed: u64, recorded: &digest::Recorded) -> (u64, u64) {
        let (mut attempted, mut failed) = (0, 0);
        for (t_runs, u_runs) in self.traced.iter().zip(&self.untraced) {
            let reference: Vec<Option<u64>> = self
                .cells
                .iter()
                .zip(&u_runs.runs)
                .map(|(cell, u)| {
                    let untraced = u.exec.map(|e| e.digest);
                    match recorded.get(&(seed, cell.key.clone())) {
                        Some(&d) if untraced != Some(d) => None,
                        _ => untraced,
                    }
                })
                .collect();
            let (a, f) = tally([t_runs.runs.as_slice()], &reference);
            attempted += a;
            failed += f;
        }
        (attempted, failed)
    }
}

/// The traced invocation: alternates an untraced batch, a traced batch
/// and the standalone layer drivers until the time is up, then reports
/// the per-layer metrics and writes the spans.
fn trace(w: Workload, args: &Args, epoch: Instant) -> Result<(), String> {
    let dir = bench_dir();
    let deadline_ns = (args.seconds * 1e9) as u64;
    let cells = workloads::build(w, args.seed, &dir)?;
    let mut root = Tracer::new(epoch, None);
    let (mut untraced, mut traced, mut drivers) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        untraced.push(run_batch(&cells, args.threads, epoch, false));
        root.open("workload", "runner");
        let mut batch = run_batch(&cells, args.threads, epoch, true);
        for r in &mut batch.runs {
            root.adopt(std::mem::take(&mut r.spans));
        }
        root.close();
        traced.push(batch);
        drivers.push([
            root.span("Simulation::hold", "simcore", || layers::hold_ns(64)),
            root.span("Simulation::hold", "simcore", || layers::hold_ns(4096)),
            root.span("CpuModel::step", "cpu", layers::cpu_step_ns),
            root.span("TcpWorld::write", "tcp", layers::tcp_write_ns),
        ]);
        if now_ns(epoch) >= deadline_ns {
            break;
        }
    }
    let spans = root.into_spans();
    let self_ns = spans::self_times(&spans);
    let run = TracedRun {
        cells: &cells,
        untraced,
        traced,
        drivers,
        spans,
        self_ns,
        threads: args.threads,
    };
    let metrics = run.layer_metrics();
    let recorded = digest::load(&dir.join("digests"), w.name())?;
    let (attempted, mut failed) = run.tally(args.seed, &recorded);

    let out = dir.join("out");
    let path = out.join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
    let body = spans::jsonl(&stamp(args, w.name()), &run.spans, &run.self_ns);
    std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&path, body))
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let (checked, residual_ns) = spans::cell_residual(&run.spans, &run.self_ns);
    println!(
        "workload {} (traced): {} cells, {} traced batch(es), {} spans written to {}",
        w.name(),
        cells.len(),
        run.traced.len(),
        run.spans.len(),
        path.display()
    );
    println!("  span self times add up to their cell in {checked} cells (largest residual {residual_ns} ns)");
    print_table(&metrics);
    println!(
        "  fail_frac {:.6} ({failed} of {attempted} traced cells)",
        ratio(failed as f64, attempted as f64)
    );
    if residual_ns != 0 {
        failed += 1;
        eprintln!("error: span self times do not add up to their cells");
    }
    print_result(attempted, failed, &metrics);
    Ok(())
}

/// Records the digest of every cell of the default seeds and the
/// held-out seed. A cell is recorded only when its traced run passes the
/// audits, tracing leaves its summary unchanged, and its untraced run
/// gives the same digest.
fn regen(args: &Args, epoch: Instant) -> Result<(), String> {
    let dir = bench_dir();
    let chosen: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    for w in chosen {
        let mut record = digest::Recorded::new();
        for seed in DEFAULT_SEEDS.chain([HELD_OUT_SEED]) {
            let cells = workloads::build(w, seed, &dir)?;
            let traced = run_batch(&cells, args.threads, epoch, true);
            let untraced = run_batch(&cells, args.threads, epoch, false);
            for ((cell, t), u) in cells.iter().zip(&traced.runs).zip(&untraced.runs) {
                match (t.exec, u.exec) {
                    (Some(t), Some(u)) if t.ok && t.digest == u.digest => {
                        record.insert((seed, cell.key.clone()), t.digest);
                    }
                    _ => {
                        return Err(format!(
                            "{}/seed {seed}/{}: audit, tracing or determinism check failed; \
                             nothing recorded",
                            w.name(),
                            cell.key
                        ))
                    }
                }
            }
            eprintln!("{}: seed {seed}: {} cells recorded", w.name(), cells.len());
        }
        let header = format!(
            "summary digests of {} (seed, cell, FNV-1a digest); regenerate with\n\
             python3 perfbench/run.py --regen-digests --workload {}\nstamp {}",
            w.name(),
            w.name(),
            stamp(args, w.name())
        );
        digest::store(&dir.join("digests"), w.name(), &header, &record)?;
    }
    Ok(())
}

fn main() {
    let epoch = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| {
        if args.regen {
            return regen(&args, epoch);
        }
        let w = args.workload.expect("checked by parse_args");
        println!("# stamp {}", stamp(&args, w.name()));
        if args.trace {
            trace(w, &args, epoch)
        } else {
            measure(w, &args, epoch)
        }
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncinv::figures::Fidelity;
    use asyncinv::Experiment;

    fn run_with(exec: Option<Exec>) -> CellRun {
        CellRun {
            start_ns: 0,
            end_ns: 1,
            worker: std::thread::current().id(),
            exec,
            spans: Vec::new(),
        }
    }

    /// A one-field change to a recorded summary makes its cell fail.
    #[test]
    fn one_field_change_to_a_summary_fails_the_cell() {
        let s = Experiment::new(Fidelity::Quick.micro(4, 100)).run(ServerKind::SingleThread);
        let hash = |s: &asyncinv::RunSummary| {
            let mut h = digest::Fnv::default();
            digest::run_summary(&mut h, s);
            h.finish()
        };
        let dir = std::env::temp_dir().join(format!("perfbench-selftest-{}", std::process::id()));
        let mut record = digest::Recorded::new();
        record.insert((1, "cell".into()), hash(&s));
        digest::store(&dir, "w", "self-test", &record).expect("store");
        let loaded = digest::load(&dir, "w").expect("load");
        std::fs::remove_dir_all(&dir).expect("clean up");
        let reference = vec![loaded.get(&(1, "cell".to_string())).copied()];

        let exec = |s: &asyncinv::RunSummary| {
            Some(Exec {
                digest: hash(s),
                ok: true,
                counts: Counts::default(),
            })
        };
        let same = [run_with(exec(&s))];
        assert_eq!(tally([&same[..]], &reference), (1, 0));

        let mut changed = s.clone();
        changed.completions += 1;
        let runs = [run_with(exec(&changed))];
        let (attempted, failed) = tally([&runs[..]], &reference);
        assert!(
            failed as f64 / attempted as f64 > 0.0,
            "fail_frac must be > 0"
        );

        // A panic, a failed audit and a missing reference fail too.
        let audit_failed = Some(Exec {
            ok: false,
            ..exec(&s).expect("exec")
        });
        let runs = [run_with(None), run_with(audit_failed)];
        assert_eq!(tally([&runs[..]], &[reference[0], reference[0]]), (2, 2));
        assert_eq!(tally([&same[..]], &[None]), (1, 1));
    }

    #[test]
    fn straggler_is_the_time_the_last_cell_runs_alone() {
        let a = std::thread::spawn(|| std::thread::current().id())
            .join()
            .expect("join");
        let b = std::thread::current().id();
        let run = |worker, start_ns, end_ns| CellRun {
            start_ns,
            end_ns,
            worker,
            exec: None,
            spans: Vec::new(),
        };
        let runs = vec![run(a, 0, 10), run(b, 0, 4), run(a, 10, 12), run(b, 4, 30)];
        assert_eq!(straggler_ns(&runs), 18);
        let batch = Batch { runs, wall_ns: 30 };
        assert!((busy_frac(&batch, 2) - 42.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn fastest_is_taken_per_cell_over_batches() {
        let batch = |ms: [u64; 2]| Batch {
            runs: ms
                .iter()
                .map(|&t| CellRun {
                    end_ns: t * 1_000_000,
                    ..run_with(None)
                })
                .collect(),
            wall_ns: 0,
        };
        let batches = [batch([5, 9]), batch([3, 12]), batch([4, 10])];
        assert_eq!(fastest_cell_ms(&batches), vec![3.0, 9.0]);
    }

    #[test]
    fn args_parse_the_driver_command_line() {
        let argv: Vec<String> = "--workload spin_grid --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).expect("valid");
        assert_eq!(a.workload, Some(Workload::SpinGrid));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--seed".into(), "1".into()]).is_err());
    }
}
