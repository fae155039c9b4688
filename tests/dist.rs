//! Sharded-fleet robustness regression suite.
//!
//! Drives the order-entry workload through the coordinator across a
//! partitioned fleet and audits every crash window of the cross-shard
//! commit protocol: shard death before prepare, shard death after the
//! decision, coordinator death mid-commit, and a double crash during
//! shard recovery itself. Every run must converge to the serial replay
//! of the committed prefix on every shard, with zero lock / waits-for /
//! dependency residue, and no acknowledged commit may ever be lost.
//! Runs are watchdog-guarded: a hang is a protocol failure and must
//! surface as a test failure, not a stuck CI job.

use semcc::core::{Engine, ProtocolConfig, ShardFaultPoint};
use semcc::dist::{CommitProtocol, Coordinator, FleetConfig, ShardRecoveryReport};
use semcc::orderentry::{Database, DbParams, MixWeights, TxnSpec, Workload, WorkloadConfig};
use semcc::semantics::Storage;
use semcc::sim::validate::{canonical_shard_state, CanonicalDb};
use semcc::sim::{run_fleet_crash_recover, FleetParams, FleetReport};
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Hard per-run watchdog: distributed-recovery bugs tend to hang.
const RUN_TIMEOUT: Duration = Duration::from_secs(60);

fn seed_offset() -> u64 {
    std::env::var("SEMCC_CHAOS_SEED_OFFSET").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

fn run_guarded(label: String, params: FleetParams) -> FleetReport {
    watchdog(&label, move || run_fleet_crash_recover(&params))
}

/// Run `f` on its own thread; a hang past [`RUN_TIMEOUT`] fails the test.
/// A panic inside `f` fails it too (the channel closes unanswered).
fn watchdog<T: Send + 'static>(label: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(RUN_TIMEOUT) {
        Ok(out) => out,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{label} hung (> {RUN_TIMEOUT:?})"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("{label} panicked"),
    }
}

fn assert_sound(label: &str, report: &FleetReport) {
    assert!(
        report.sound(),
        "{label}: fleet invariant violated\n\
         lost_acked={} residue={:?} audit={:?}\n{report:?}",
        report.lost_acked,
        report.residue_violations,
        report.audit_failure
    );
    assert_eq!(report.lost_acked, 0, "{label}: acked commit lost");
}

/// Healthy fleet, no kills: everything commits and both shards' slices
/// equal the committed-prefix replay.
#[test]
fn healthy_fleet_commits_and_converges() {
    for seed in (seed_offset() + 1)..=(seed_offset() + 4) {
        let report = run_guarded(
            format!("healthy/seed{seed}"),
            FleetParams { seed, kill: 0, ..Default::default() },
        );
        assert_sound(&format!("healthy/seed{seed}"), &report);
        assert_eq!(report.failed, 0, "no faults injected, nothing may fail: {report:?}");
        assert!(report.cross_shard > 0, "the default mix must produce cross-shard txns");
    }
}

/// k-of-N partial-fleet kill at seeded points mid-batch.
#[test]
fn partial_fleet_kill_recovers_without_losing_acked_commits() {
    let offset = seed_offset();
    for n_shards in [2usize, 4] {
        for kill in 1..n_shards.min(3) {
            for seed in (offset + 1)..=(offset + 4) {
                let label = format!("kill{kill}of{n_shards}/seed{seed}");
                let report = run_guarded(
                    label.clone(),
                    FleetParams { seed, n_shards, kill, txns: 48, ..Default::default() },
                );
                assert_sound(&label, &report);
                assert!(report.shard_crashes >= kill as u64, "{label}: kills scheduled");
            }
        }
    }
}

/// Crash window 1: a shard dies *before* writing the participant record.
/// The piece is a local loser; the coordinator aborts globally; nothing
/// may be left in doubt as a winner.
#[test]
fn crash_before_prepare_aborts_globally_with_nothing_in_doubt() {
    let offset = seed_offset();
    for nth in [3u64, 9, 17] {
        for seed in (offset + 1)..=(offset + 3) {
            let label = format!("before-prepare/nth{nth}/seed{seed}");
            let report = run_guarded(
                label.clone(),
                FleetParams {
                    seed,
                    kill: 0,
                    fault: Some(ShardFaultPoint::CrashBeforePrepare { nth }),
                    ..Default::default()
                },
            );
            assert_sound(&label, &report);
            assert!(report.shard_crashes >= 1, "{label}: the fault must fire: {report:?}");
            assert_eq!(report.kept, 0, "{label}: nothing was decided for the dying gtid");
        }
    }
}

/// Crash window 2: a shard dies *after* the commit decision was durably
/// logged but before the resolution reached it. Recovery must resolve
/// the in-doubt piece from the decision log and keep it.
#[test]
fn crash_after_decision_resolves_in_doubt_from_decision_log() {
    let offset = seed_offset();
    let mut kept_total = 0usize;
    for nth in [2u64, 7, 13] {
        for seed in (offset + 1)..=(offset + 3) {
            let label = format!("after-decision/nth{nth}/seed{seed}");
            let report = run_guarded(
                label.clone(),
                FleetParams {
                    seed,
                    kill: 0,
                    fault: Some(ShardFaultPoint::CrashAfterDecision { nth }),
                    ..Default::default()
                },
            );
            assert_sound(&label, &report);
            assert!(report.shard_crashes >= 1, "{label}: the fault must fire: {report:?}");
            kept_total += report.kept;
        }
    }
    assert!(
        kept_total > 0,
        "at least one run must recover an in-doubt piece via a kept commit decision"
    );
}

/// Crash window 3: the coordinator dies right after logging a commit
/// decision, before acking or notifying any shard. The decision log is
/// the only survivor; recovery must re-drive it and no state may diverge.
#[test]
fn coordinator_crash_mid_commit_redrives_from_decision_log() {
    let offset = seed_offset();
    for nth in [1u64, 5, 11] {
        for seed in (offset + 1)..=(offset + 3) {
            let label = format!("coord-crash/nth{nth}/seed{seed}");
            let report = run_guarded(
                label.clone(),
                FleetParams {
                    seed,
                    kill: 0,
                    fault: Some(ShardFaultPoint::CoordinatorCrashMidCommit { nth }),
                    ..Default::default()
                },
            );
            assert_sound(&label, &report);
            // The decided-but-unacked transaction commits durably even
            // though its client saw an error: committed ≥ acked.
            assert!(
                report.committed >= report.acked,
                "{label}: committed {} < acked {}",
                report.committed,
                report.acked
            );
        }
    }
}

/// Crash window 4: a killed shard crashes *again* in the middle of its
/// own recovery, after resolving some (but not all) in-doubt pieces.
/// The second recovery must converge without re-compensating.
#[test]
fn double_crash_during_shard_recovery_converges() {
    let offset = seed_offset();
    for seed in (offset + 1)..=(offset + 4) {
        let label = format!("double-crash/seed{seed}");
        let report = run_guarded(
            label.clone(),
            FleetParams {
                seed,
                n_shards: 3,
                kill: 2,
                double_crash: true,
                txns: 48,
                ..Default::default()
            },
        );
        assert_sound(&label, &report);
    }
}

/// Transport chaos: dropped and delayed coordinator→shard calls must be
/// absorbed by the retry seam (idempotent pieces, cached acks) without
/// state divergence or duplicated effects.
#[test]
fn transport_faults_are_absorbed_by_retry_and_idempotence() {
    let offset = seed_offset();
    for (name, fault) in [
        ("drop", ShardFaultPoint::DropRequest { nth: 4 }),
        ("delay", ShardFaultPoint::DelayRequest { nth: 4 }),
        ("fail", ShardFaultPoint::FailRequest { nth: 4 }),
    ] {
        for seed in (offset + 1)..=(offset + 3) {
            let label = format!("transport-{name}/seed{seed}");
            let report = run_guarded(
                label.clone(),
                FleetParams { seed, kill: 0, fault: Some(fault), ..Default::default() },
            );
            assert_sound(&label, &report);
            assert_eq!(report.failed, 0, "{label}: transport faults must be transparent");
        }
    }
}

/// The 2PC baseline reaches the same committed state on a healthy fleet —
/// it is a correctness peer, only slower under contention.
#[test]
fn two_phase_baseline_converges_on_healthy_fleet() {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let db_params = DbParams { n_items: 6, orders_per_item: 3, ..Default::default() };
        let coord = Coordinator::new(FleetConfig {
            n_shards: 2,
            db_params: db_params.clone(),
            ..Default::default()
        });
        let reference = Database::build(&db_params).expect("reference");
        let mut w = semcc::orderentry::Workload::new(
            &reference,
            semcc::orderentry::WorkloadConfig { seed: 11, ..Default::default() },
        );
        let mut acked = 0usize;
        for spec in w.batch(&reference, 24) {
            let (_gtid, out, _retries) =
                coord.submit_with_retry(&spec, CommitProtocol::TwoPhase, 10);
            if out.is_ok() {
                acked += 1;
            }
        }
        let committed = coord.committed_gtids().len();
        let _ = tx.send((acked, committed, coord.acked().len()));
    });
    let (acked, committed, acked_log) = rx.recv_timeout(RUN_TIMEOUT).expect("2pc healthy run hung");
    assert_eq!(acked, 24, "healthy 2pc fleet commits everything");
    assert_eq!(acked_log, committed, "every 2pc ack has a logged decision");
}

// ---------------------------------------------------------------------
// Log retirement vs in-doubt pieces
// ---------------------------------------------------------------------

fn small_db() -> DbParams {
    DbParams { n_items: 6, orders_per_item: 3, ..Default::default() }
}

/// A two-shard fleet that has committed a short prefix through the
/// coordinator, plus a cross-shard update it has not run yet.
struct Retirement {
    coord: Coordinator,
    committed: Vec<TxnSpec>,
    pending: TxnSpec,
}

impl Retirement {
    fn new(seed: u64) -> Retirement {
        let coord = Coordinator::new(FleetConfig {
            n_shards: 2,
            db_params: small_db(),
            seed,
            ..Default::default()
        });
        let reference = Database::build(&small_db()).expect("reference");
        let mut w = Workload::new(
            &reference,
            WorkloadConfig { seed, mix: MixWeights::update_heavy(), ..Default::default() },
        );
        let batch = w.batch(&reference, 64);
        let mut committed = Vec::new();
        for spec in &batch[..12] {
            let (_gtid, out, _retries) =
                coord.submit_with_retry(spec, CommitProtocol::OpenNested, 8);
            out.expect("a healthy fleet commits the prefix");
            committed.push(spec.clone());
        }
        let pending = batch[12..]
            .iter()
            .find(|s| s.is_update() && coord.partition().split(s).len() == 2)
            .expect("the batch holds a cross-shard update")
            .clone();
        Retirement { coord, committed, pending }
    }

    /// The pending transaction's piece on `shard`.
    fn piece(&self, shard: usize) -> TxnSpec {
        let pieces = self.coord.partition().split(&self.pending);
        pieces.into_iter().find(|(s, _)| *s == shard).expect("a piece on every shard").1
    }

    /// `shard`'s slice after serially replaying `specs`' pieces on it.
    fn replayed_slice(&self, specs: &[TxnSpec], shard: usize) -> CanonicalDb {
        let serial = Database::build(&small_db()).expect("replay build");
        let engine = Engine::builder(
            Arc::clone(&serial.store) as Arc<dyn Storage>,
            Arc::clone(&serial.catalog),
        )
        .protocol(ProtocolConfig::semantic())
        .build();
        for spec in specs {
            for (s, piece) in self.coord.partition().split(spec) {
                if s == shard {
                    engine.execute(&piece).expect("serial replay");
                }
            }
        }
        canonical_shard_state(serial.store.as_ref() as &dyn Storage, serial.items_set, 2, shard)
            .expect("canonical projection")
    }

    fn live_slice(&self, shard: usize) -> CanonicalDb {
        self.coord.shards()[shard]
            .with_live(|engine, db| {
                canonical_shard_state(engine.storage().as_ref(), db.items_set, 2, shard)
            })
            .expect("shard is live")
            .expect("canonical projection")
    }

    /// Checkpoint both of `shard`'s logs, crash it, recover it.
    fn retire_crash_recover(
        &self,
        shard: usize,
        decisions: &BTreeMap<u64, bool>,
    ) -> Result<ShardRecoveryReport, String> {
        let node = &self.coord.shards()[shard];
        node.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
        node.crash();
        node.recover(decisions)
    }
}

/// A gtid the coordinator never allocates in these tests.
const IN_DOUBT_GTID: u64 = 1 << 40;

/// An acked piece whose participant record and local commit record were
/// both retired by checkpoints, on a shard that crashes before the
/// decision arrives. A commit decision keeps it; no decision (presumed
/// abort) compensates it exactly once — survival may not be read off the
/// retained `TopCommit`s, because the checkpoint retired them.
#[test]
fn retired_in_doubt_piece_resolves_from_its_checkpointed_intent() {
    for seed in (seed_offset() + 1)..=(seed_offset() + 3) {
        let label = format!("retired-in-doubt/seed{seed}");
        watchdog(&label.clone(), move || {
            // Commit decision: the piece is kept.
            let fleet = Retirement::new(seed);
            fleet.coord.shards()[0].run_piece(IN_DOUBT_GTID, &fleet.piece(0)).expect("acked");
            let decisions = BTreeMap::from([(IN_DOUBT_GTID, true)]);
            let report = fleet.retire_crash_recover(0, &decisions).expect("recovery");
            assert_eq!(report.winners, 0, "{label}: the checkpoint retired every TopCommit");
            assert_eq!((report.in_doubt, report.kept), (1, 1), "{label}: {report:?}");
            let mut with_piece = fleet.committed.clone();
            with_piece.push(fleet.pending.clone());
            assert_eq!(fleet.live_slice(0), fleet.replayed_slice(&with_piece, 0), "{label}");

            // No decision: the piece is compensated, once.
            let fleet = Retirement::new(seed);
            fleet.coord.shards()[0].run_piece(IN_DOUBT_GTID, &fleet.piece(0)).expect("acked");
            let report = fleet.retire_crash_recover(0, &BTreeMap::new()).expect("recovery");
            assert_eq!(report.winners, 0, "{label}: the checkpoint retired every TopCommit");
            assert_eq!((report.in_doubt, report.compensated), (1, 1), "{label}: {report:?}");
            let prefix = fleet.replayed_slice(&fleet.committed, 0);
            assert_eq!(fleet.live_slice(0), prefix, "{label}: compensated back to the prefix");
            for round in 0..2 {
                let again = fleet.retire_crash_recover(0, &BTreeMap::new()).expect("re-recovery");
                assert_eq!(
                    (again.in_doubt, again.compensated),
                    (0, 0),
                    "{label}: round {round} re-resolved a closed entry: {again:?}"
                );
                assert_eq!(fleet.live_slice(0), prefix, "{label}: round {round}");
            }
        });
    }
}

/// The 2PC global-abort window under retirement. (a) The shard dies
/// while the prepared piece waits for the decision, after checkpoints
/// retired its participant record: the piece is a local loser and the
/// entry resolves to abort with nothing to compensate. (b) The abort is
/// delivered: the participant entry closes before the local abort, so
/// retiring both logs afterwards leaves nothing in doubt.
#[test]
fn two_phase_abort_window_survives_log_retirement() {
    for seed in (seed_offset() + 1)..=(seed_offset() + 3) {
        let label = format!("2pc-abort-retired/seed{seed}");
        watchdog(&label.clone(), move || {
            let fleet = Retirement::new(seed);
            let shard = &fleet.coord.shards()[0];
            let out = shard.run_piece_2pc(IN_DOUBT_GTID, &fleet.piece(0), &mut || {
                shard.checkpoint().expect("checkpoint while prepared");
                shard.crash();
                false
            });
            assert!(out.is_err(), "{label}: a piece on a crashed shard cannot commit");
            let report = shard.recover(&BTreeMap::new()).expect("recovery");
            assert_eq!(report.losers, 1, "{label}: the prepared piece was in flight: {report:?}");
            assert_eq!((report.in_doubt, report.compensated), (1, 0), "{label}: {report:?}");
            let prefix = fleet.replayed_slice(&fleet.committed, 0);
            assert_eq!(fleet.live_slice(0), prefix, "{label}: (a)");

            let fleet = Retirement::new(seed);
            let shard = &fleet.coord.shards()[0];
            let out = shard.run_piece_2pc(IN_DOUBT_GTID, &fleet.piece(0), &mut || false);
            assert!(out.is_err(), "{label}: a global abort fails the piece");
            let report = fleet.retire_crash_recover(0, &BTreeMap::new()).expect("recovery");
            assert_eq!((report.in_doubt, report.compensated), (0, 0), "{label}: {report:?}");
            let prefix = fleet.replayed_slice(&fleet.committed, 0);
            assert_eq!(fleet.live_slice(0), prefix, "{label}: (b)");
        });
    }
}

/// Forced checkpoints every few transactions race the k-of-N kills.
#[test]
fn partial_fleet_kill_with_log_retirement_stays_sound() {
    let offset = seed_offset();
    for n_shards in [2usize, 4] {
        for seed in (offset + 1)..=(offset + 4) {
            let label = format!("retire/kill1of{n_shards}/seed{seed}");
            let report = run_guarded(
                label.clone(),
                FleetParams {
                    seed,
                    n_shards,
                    kill: 1,
                    txns: 48,
                    checkpoint_every: 3,
                    ..Default::default()
                },
            );
            assert_sound(&label, &report);
            assert!(report.forced_checkpoints > 0, "{label}: retirement ran: {report:?}");
        }
    }
}

/// Forced checkpoints plus a second crash in the middle of recovery.
#[test]
fn double_crash_with_log_retirement_converges() {
    let offset = seed_offset();
    for seed in (offset + 1)..=(offset + 4) {
        let label = format!("retire/double-crash/seed{seed}");
        let report = run_guarded(
            label.clone(),
            FleetParams {
                seed,
                n_shards: 3,
                kill: 2,
                double_crash: true,
                txns: 48,
                checkpoint_every: 3,
                ..Default::default()
            },
        );
        assert_sound(&label, &report);
        assert!(report.forced_checkpoints > 0, "{label}: retirement ran: {report:?}");
    }
}

/// Forced checkpoints plus a coordinator crash right after a commit
/// decision: the re-driven decision must meet the retired piece.
#[test]
fn coordinator_crash_with_log_retirement_redrives_soundly() {
    let offset = seed_offset();
    for nth in [1u64, 5, 11] {
        for seed in (offset + 1)..=(offset + 3) {
            let label = format!("retire/coord-crash/nth{nth}/seed{seed}");
            let report = run_guarded(
                label.clone(),
                FleetParams {
                    seed,
                    kill: 0,
                    fault: Some(ShardFaultPoint::CoordinatorCrashMidCommit { nth }),
                    checkpoint_every: 2,
                    ..Default::default()
                },
            );
            assert_sound(&label, &report);
            assert!(report.committed >= report.acked, "{label}: {report:?}");
            assert!(report.forced_checkpoints > 0, "{label}: retirement ran: {report:?}");
        }
    }
}

/// The footprint bound: over 20k transactions, each shard's main plus
/// participant log stays under a fixed ceiling when checkpoints run,
/// while a much shorter run without them already exceeds it.
#[test]
fn checkpointed_shard_logs_stay_bounded_over_a_long_run() {
    const CEILING: usize = 256 << 10;
    let long = FleetParams {
        seed: seed_offset() + 1,
        n_shards: 2,
        kill: 0,
        txns: 20_000,
        checkpoint_every: 500,
        ..Default::default()
    };
    let report = run_guarded("bounded/20k".into(), long.clone());
    assert_sound("bounded/20k", &report);
    assert!(
        report.peak_retained_bytes < CEILING,
        "checkpointed logs grew to {} B (ceiling {CEILING} B)",
        report.peak_retained_bytes
    );
    let unbounded = run_guarded(
        "unbounded/4k".into(),
        FleetParams { txns: 4_000, checkpoint_every: 0, ..long },
    );
    assert!(
        unbounded.peak_retained_bytes > CEILING,
        "without checkpoints 4k transactions already exceed the ceiling, got {} B",
        unbounded.peak_retained_bytes
    );
}

// ---------------------------------------------------------------------
// Piece dispatch
// ---------------------------------------------------------------------

/// Pieces still overlap on the reused helper threads: with a 20 ms
/// one-way delay charged per piece, a two-piece submit costs one delay,
/// not two.
#[test]
fn cross_shard_pieces_overlap_under_network_delay() {
    const NET: Duration = Duration::from_millis(20);
    let best = watchdog("dispatch-overlap", || {
        let coord = Coordinator::new(FleetConfig {
            n_shards: 2,
            db_params: small_db(),
            net_delay: NET,
            ..Default::default()
        });
        let reference = Database::build(&small_db()).expect("reference");
        let mut w = Workload::new(&reference, WorkloadConfig { seed: 5, ..Default::default() });
        let specs: Vec<TxnSpec> = w
            .batch(&reference, 64)
            .into_iter()
            .filter(|s| coord.partition().split(s).len() == 2)
            .take(4)
            .collect();
        assert_eq!(specs.len(), 4, "the batch holds cross-shard transactions");
        // The best of several submits: scheduling noise only adds time.
        specs
            .iter()
            .map(|spec| {
                let t0 = Instant::now();
                let (_gtid, out) = coord.submit(spec, CommitProtocol::OpenNested);
                out.expect("a healthy fleet commits");
                t0.elapsed()
            })
            .min()
            .expect("four submits")
    });
    assert!(
        best < NET * 3 / 2,
        "a two-piece submit took {best:?}; the pieces ran one after another"
    );
}
