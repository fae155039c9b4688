//! End-to-end and per-layer benchmark of the semcc engine, its session
//! service and its sharded fleet. See `NOTES.md` beside this crate for
//! the workloads, the metrics and the layer → metric → workload map.
//!
//! A run is one workload in one process. With `trace` off it measures the
//! end-to-end metrics; with `trace` on it makes an untraced pass (the
//! counters) and a traced pass (the per-layer self-time ledger) and
//! reports the per-layer metrics. Every pass ends with an untimed
//! correctness gate.

pub mod fleet_cross;
pub mod load;
pub mod oe_skew;
pub mod svc_durable;
pub mod trace;

use load::{Class, Recorder, Timeline};
use semcc_core::StatsSnapshot;
use semcc_dist::merge_snapshots;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use trace::{Ledger, Tracer};

/// End-to-end metrics, `(name, unit)`, reported with `trace` off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_tps", "1/s"),
    ("update_p50_us", "us"),
    ("update_p99_us", "us"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, reported with `trace` on. A layer a
/// workload bypasses reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("service.queue_wait_p50_us", "us"),
    ("service.queue_wait_p99_us", "us"),
    ("service.exec_p50_us", "us"),
    ("service.handoff_us", "us"),
    ("engine.attempts_per_commit", "ratio"),
    ("engine.compensations", "1/kcommit"),
    ("engine.deadlocks", "1/kcommit"),
    ("engine.commit_path_us", "us"),
    ("engine.validation_fail_share", "ratio"),
    ("engine.snapshot_retries", "1/kcommit"),
    ("kernel.self_us", "us"),
    ("kernel.lock_requests_per_txn", "1/txn"),
    ("kernel.conflict_tests_per_request", "1/request"),
    ("kernel.blocked_share", "ratio"),
    ("kernel.wait_episodes", "1/kcommit"),
    ("kernel.case1_grants", "1/kcommit"),
    ("kernel.case2_waits", "1/kcommit"),
    ("kernel.root_waits", "1/kcommit"),
    ("kernel.retests", "1/kcommit"),
    ("kernel.spurious_wakeups", "1/kcommit"),
    ("objstore.calls_per_update_txn", "1/txn"),
    ("objstore.calls_per_read_txn", "1/txn"),
    ("objstore.self_update_us", "us"),
    ("objstore.self_read_us", "us"),
    ("objstore.snapshot_reads_per_read_txn", "1/txn"),
    ("objstore.validate_us", "us"),
    ("objstore.checkpoint_dump_ms", "ms"),
    ("wal.bytes_per_commit", "B"),
    ("wal.appends_per_commit", "1/commit"),
    ("wal.fsyncs_per_commit", "1/commit"),
    ("wal.group_batch", "commits/fsync"),
    ("wal.checkpoints", "1/kcommit"),
    ("wal.segments_rotated", "1/kcommit"),
    ("wal.retained_mb_end", "MB"),
    ("dist.cross_share", "ratio"),
    ("dist.pieces_per_txn", "1/txn"),
    ("dist.prepares_per_txn", "1/txn"),
    ("dist.rpc_retries", "1/ktxn"),
    ("dist.txn_retries", "1/ktxn"),
    ("dist.cross_p50_us", "us"),
    ("dist.local_p50_us", "us"),
    ("dist.cross_p99_us", "us"),
    ("dist.decisions_retained", "count"),
    ("dist.acked_retained", "count"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.sampled_txns", "count"),
];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Embedded engine, Zipf hot spot, snapshot reads, no WAL.
    OeSkew,
    /// Durable engine behind the session service.
    SvcDurable,
    /// Two-shard fleet, open-nested cross-shard commit.
    FleetCross,
}

impl Workload {
    /// All workloads with their command-line names.
    pub const ALL: [(&'static str, Workload); 3] = [
        ("oe-skew", Workload::OeSkew),
        ("svc-durable", Workload::SvcDurable),
        ("fleet-cross", Workload::FleetCross),
    ];

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|(_, w)| *w)
    }
}

/// Database and run sizes: `Full` for measurement, `Tiny` for the smoke
/// tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// A few dozen items; every code path, none of the cost.
    Tiny,
}

/// One run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time (split between the two passes of a traced run).
    pub run: Duration,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Sizes.
    pub scale: Scale,
}

impl Options {
    /// Untimed warm-up before each timed pass.
    fn warm_up(&self) -> Duration {
        match self.scale {
            Scale::Full => Duration::from_secs(2),
            Scale::Tiny => Duration::from_millis(50),
        }
    }

    /// Set-ups timed per end-to-end run (the median is reported).
    fn setups(&self) -> usize {
        match self.scale {
            Scale::Full => 9,
            Scale::Tiny => 2,
        }
    }
}

/// One run's result.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every correctness gate passed and no transaction failed.
    pub correct: bool,
    /// Transactions submitted.
    pub attempted: u64,
    /// Transactions that failed after their retry budget.
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines: figures, ledger, gate failures.
    pub lines: Vec<String>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Counters read from the public API before and after a pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Engine (fleet: coordinator plus shards) counters.
    pub stats: StatsSnapshot,
    /// `WalWriter::{fsyncs, group_commits}`.
    pub wal: Option<(u64, u64)>,
    /// `WalWriter::retained_bytes` (fleet: shard WAL bytes since boot).
    pub retained_bytes: u64,
    /// `Coordinator::{decisions, acked}` sizes.
    pub dist: Option<(usize, usize)>,
}

/// What driving one pass produced.
pub struct Pass {
    /// Latencies and outcome counts.
    pub rec: Recorder,
    /// Whole-transaction retries the clients observed (fleet).
    pub txn_retries: u64,
}

/// A workload: how to build its system, drive it, read its counters and
/// check it. Only public API of the library crates is used.
pub trait Bench {
    /// The built system.
    type Sys;
    /// Populate the database and build engine, WAL, service or fleet.
    /// With a tracer, wrap every seam the system accepts.
    fn build(&self, tracer: Option<&Arc<Tracer>>) -> Self::Sys;
    /// Read the public counters.
    fn counters(&self, sys: &Self::Sys) -> Counters;
    /// Run closed-loop load until the timeline's deadline.
    fn drive(&self, sys: &Self::Sys, tl: &Timeline, tracer: Option<&Arc<Tracer>>) -> Pass;
    /// The untimed correctness gate; consumes the system.
    fn gate(&self, sys: Self::Sys) -> Result<(), String>;
    /// Workload-specific per-layer metrics.
    fn layer_metrics(&self, m: &mut BTreeMap<&'static str, f64>, ctx: &LayerCtx<'_>);
}

/// Inputs of the per-layer metrics.
pub struct LayerCtx<'a> {
    /// Counter delta over the untraced passes.
    pub delta: StatsSnapshot,
    /// `WalWriter::{fsyncs, group_commits}` over the untraced passes.
    pub wal: Option<(u64, u64)>,
    /// Counters at the end of the last untraced pass.
    pub end: Counters,
    /// The untraced passes, merged.
    pub pass: &'a Pass,
    /// The traced pass's ledger.
    pub ledger: &'a Ledger,
}

/// Run one workload as `opts` says.
pub fn run(opts: &Options) -> Report {
    match opts.workload {
        Workload::OeSkew => run_bench(&oe_skew::OeSkew::new(opts), opts),
        Workload::SvcDurable => run_bench(&svc_durable::SvcDurable::new(opts), opts),
        Workload::FleetCross => run_bench(&fleet_cross::FleetCross::new(opts), opts),
    }
}

fn run_bench<B: Bench>(b: &B, opts: &Options) -> Report {
    if opts.trace {
        run_traced(b, opts)
    } else {
        run_end_to_end(b, opts)
    }
}

fn is_update(c: Class) -> bool {
    !c.read
}

fn is_read(c: Class) -> bool {
    c.read
}

fn end_to_end_figures(rec: &Recorder, tl: &Timeline) -> [(&'static str, f64); 5] {
    [
        ("throughput_tps", rec.throughput(tl)),
        ("update_p50_us", rec.latency_us(0.5, is_update)),
        ("update_p99_us", rec.latency_us(0.99, is_update)),
        ("read_p50_us", rec.latency_us(0.5, is_read)),
        ("read_p99_us", rec.latency_us(0.99, is_read)),
    ]
}

fn summary_line(label: &str, rec: &Recorder, tl: &Timeline) -> String {
    let f = end_to_end_figures(rec, tl);
    format!(
        "{label}: {:.0} txn/s, update p50 {:.2} us p99 {:.2} us ({} samples), \
         read p50 {:.2} us p99 {:.2} us ({} samples)",
        f[0].1,
        f[1].1,
        f[2].1,
        rec.committed(is_update),
        f[3].1,
        f[4].1,
        rec.committed(is_read)
    )
}

fn finish(report: &mut Report, rec: &Recorder, gate: Result<(), String>) {
    report.attempted += rec.attempted;
    report.failed += rec.failed;
    for e in &rec.errors {
        report.lines.push(format!("failed transaction: {e}"));
    }
    if let Err(e) = gate {
        report.lines.push(format!("correctness gate FAILED: {e}"));
        report.correct = false;
    }
    if rec.failed > 0 {
        report.correct = false;
    }
}

fn run_end_to_end<B: Bench>(b: &B, opts: &Options) -> Report {
    let (sys, setup_s) = load::timed_setup(opts.setups(), || b.build(None));
    let tl = Timeline::start(opts.warm_up(), opts.run);
    let pass = b.drive(&sys, &tl, None);
    let peak_rss_mb = load::peak_rss_mb().unwrap_or(0.0);
    let mut report = Report { correct: true, ..Default::default() };
    report.lines.push(summary_line("end to end", &pass.rec, &tl));
    report.lines.push(format!(
        "setup {setup_s:.4} s (median of {}), peak RSS {peak_rss_mb:.1} MB",
        opts.setups()
    ));
    let mut values: BTreeMap<&str, f64> = end_to_end_figures(&pass.rec, &tl).into_iter().collect();
    values.insert("setup_s", setup_s);
    values.insert("peak_rss_mb", peak_rss_mb);
    report.metrics = END_TO_END.iter().map(|&(n, u)| (n, values[n], u)).collect();
    let gate = b.gate(sys);
    finish(&mut report, &pass.rec, gate);
    report
}

/// Contention-retry budget of every transaction. Generous: a transaction
/// that still fails is a failed operation.
pub const MAX_RETRIES: u32 = 1000;

/// Seed of client `client`'s generator.
pub fn client_seed(seed: u64, client: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (client as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

/// Nothing left behind: no lock entries, live transactions, waits-for
/// residue or speculation edges.
pub fn engine_residue(what: &str, engine: &semcc_core::Engine) -> Result<(), String> {
    let residue = (
        engine.lock_entries(),
        engine.live_transactions(),
        engine.wfg_residue(),
        engine.speculation_edges(),
    );
    if residue == (0, 0, (0, 0, 0, 0), 0) {
        Ok(())
    } else {
        Err(format!("{what} residue (locks, live, wfg, speculation) = {residue:?}"))
    }
}

/// One transaction in this many is traced.
const SAMPLE_EVERY: u64 = 16;

/// What one pass of a traced run measured.
struct PassOutcome {
    tps: f64,
    delta: StatsSnapshot,
    wal: Option<(u64, u64)>,
    end: Counters,
    pass: Pass,
}

/// Four quarter-length passes, untraced–traced–traced–untraced, each on a
/// freshly built system: the ABBA order cancels a linear drift of the
/// machine's speed out of the tracing overhead.
fn run_traced<B: Bench>(b: &B, opts: &Options) -> Report {
    let mut report = Report { correct: true, ..Default::default() };
    let tracer = Tracer::new(SAMPLE_EVERY);
    let mut untraced: Vec<PassOutcome> = Vec::new();
    let mut traced: Vec<PassOutcome> = Vec::new();
    for with_trace in [false, true, true, false] {
        let t = with_trace.then_some(&tracer);
        let sys = b.build(t);
        let start = b.counters(&sys);
        let tl = Timeline::start(opts.warm_up(), opts.run / 4);
        let pass = b.drive(&sys, &tl, t);
        let end = b.counters(&sys);
        let label = if with_trace { "traced pass  " } else { "untraced pass" };
        report.lines.push(summary_line(label, &pass.rec, &tl));
        let gate = b.gate(sys);
        finish(&mut report, &pass.rec, gate);
        let wal = match (start.wal, end.wal) {
            (Some(s), Some(e)) => Some((e.0 - s.0, e.1 - s.1)),
            _ => None,
        };
        let out = PassOutcome {
            tps: pass.rec.throughput(&tl),
            delta: end.stats.delta(&start.stats),
            wal,
            end,
            pass,
        };
        if with_trace {
            traced.push(out)
        } else {
            untraced.push(out)
        }
    }
    let merged = |v: &[PassOutcome]| {
        let delta = v.iter().skip(1).fold(v[0].delta, |acc, p| merge_snapshots(&acc, &p.delta));
        let tps = v.iter().map(|p| p.tps).sum::<f64>() / v.len() as f64;
        (delta, tps)
    };
    let (delta, untraced_tps) = merged(&untraced);
    let (traced_delta, traced_tps) = merged(&traced);
    if let Err(e) = path_guard(&delta, &traced_delta) {
        report.lines.push(format!("correctness gate FAILED: {e}"));
        report.correct = false;
    }

    let ledger = tracer.ledger();
    report.lines.extend(ledger.lines());
    let overhead = if untraced_tps > 0.0 { 1.0 - traced_tps / untraced_tps } else { 0.0 };
    if ledger.txns > 0 {
        report.lines.push(format!(
            "unattributed {:.1}% of the transaction span",
            100.0 * ledger.unattributed_share()
        ));
    }
    report.lines.push(format!("tracing overhead {:.1}% of throughput", 100.0 * overhead));

    let last = untraced.pop().expect("two untraced passes");
    let first = untraced.pop().expect("two untraced passes");
    let mut pass = first.pass;
    pass.rec.merge(last.pass.rec);
    pass.txn_retries += last.pass.txn_retries;
    let wal = first.wal.zip(last.wal).map(|(a, b)| (a.0 + b.0, a.1 + b.1));
    let ctx = LayerCtx { delta, wal, end: last.end, pass: &pass, ledger: &ledger };
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    common_layer_metrics(&mut m, &ctx);
    b.layer_metrics(&mut m, &ctx);
    m.insert("trace.unattributed_share", ledger.unattributed_share());
    m.insert("trace.overhead_share", overhead);
    m.insert(
        "trace.sampled_txns",
        (ledger.txns as usize + ledger.submits.iter().sum::<usize>()) as f64,
    );
    report.metrics =
        PER_LAYER.iter().map(|&(n, u)| (n, m.get(n).copied().unwrap_or(0.0), u)).collect();
    report
}

/// The traced pass must take the same paths as the untraced one: a
/// wrapper that dropped a capability would silently turn snapshot reads,
/// checkpoints or group-commit syncs off.
fn path_guard(untraced: &StatsSnapshot, traced: &StatsSnapshot) -> Result<(), String> {
    for (name, u, t) in [
        ("snapshot_reads", untraced.snapshot_reads, traced.snapshot_reads),
        ("checkpoints", untraced.checkpoints, traced.checkpoints),
        ("wal_fsyncs", untraced.wal_fsyncs, traced.wal_fsyncs),
    ] {
        if u > 0 && t == 0 {
            return Err(format!("traced pass lost {name}: untraced {u}, traced 0"));
        }
    }
    Ok(())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_k(num: u64, den: u64) -> f64 {
    1000.0 * ratio(num, den)
}

/// Engine, kernel and WAL counters plus the ledger's self-times — the
/// same definitions on every workload.
fn common_layer_metrics(m: &mut BTreeMap<&'static str, f64>, c: &LayerCtx<'_>) {
    let d = &c.delta;
    let l = c.ledger;
    let commits = d.commits;
    m.insert("engine.attempts_per_commit", ratio(commits + d.aborts + d.snapshot_retries, commits));
    m.insert("engine.compensations", per_k(d.compensations, commits));
    m.insert("engine.deadlocks", per_k(d.deadlocks, commits));
    m.insert("engine.commit_path_us", l.per_txn_us(l.engine_ns));
    m.insert("engine.validation_fail_share", ratio(d.read_validation_failures, d.read_validations));
    m.insert("engine.snapshot_retries", per_k(d.snapshot_retries, commits));
    m.insert("kernel.self_us", l.per_txn_us(l.kernel_ns));
    m.insert("kernel.lock_requests_per_txn", ratio(d.lock_requests, commits));
    m.insert("kernel.conflict_tests_per_request", ratio(d.conflict_tests, d.lock_requests));
    m.insert("kernel.blocked_share", ratio(d.blocked_requests, d.lock_requests));
    for (name, v) in [
        ("kernel.wait_episodes", d.wait_episodes),
        ("kernel.case1_grants", d.case1_grants),
        ("kernel.case2_waits", d.case2_waits),
        ("kernel.root_waits", d.root_waits),
        ("kernel.retests", d.retests),
        ("kernel.spurious_wakeups", d.spurious_wakeups),
        ("wal.checkpoints", d.checkpoints),
        ("wal.segments_rotated", d.wal_segments_rotated),
    ] {
        m.insert(name, per_k(v, commits));
    }
    let per_class = |i: usize| {
        let t = &l.class[i];
        let n = t.txns.max(1) as f64;
        (t.calls as f64 / n, t.objstore_ns / n / 1e3, t.validate_ns / n / 1e3)
    };
    let (calls_u, self_u, _) = per_class(0);
    let (calls_r, self_r, validate_r) = per_class(1);
    m.insert("objstore.calls_per_update_txn", calls_u);
    m.insert("objstore.calls_per_read_txn", calls_r);
    m.insert("objstore.self_update_us", self_u);
    m.insert("objstore.self_read_us", self_r);
    m.insert("objstore.validate_us", validate_r);
    let reads = c.pass.rec.finished(is_read);
    m.insert("objstore.snapshot_reads_per_read_txn", ratio(d.snapshot_reads, reads));
    m.insert("objstore.checkpoint_dump_ms", l.checkpoint_dump_ms);
    m.insert("wal.bytes_per_commit", ratio(d.wal_bytes, commits));
    m.insert("wal.appends_per_commit", ratio(d.wal_appends, commits));
    let (fsyncs, group) = c.wal.unwrap_or((d.wal_fsyncs, d.wal_group_commits));
    m.insert("wal.fsyncs_per_commit", ratio(fsyncs, commits));
    m.insert("wal.group_batch", ratio(fsyncs + group, fsyncs));
    m.insert("wal.retained_mb_end", c.end.retained_bytes as f64 / 1e6);
}
