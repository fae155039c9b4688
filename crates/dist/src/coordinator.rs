//! The fleet coordinator: routes transaction pieces to their owning
//! shards and drives one of two cross-shard commit protocols.
//!
//! **Semantic open-nested** (the paper's protocol lifted one level up):
//! each shard-local piece commits *early* as an ordinary open-nested
//! transaction, exposing its effects under commutativity-checked semantic
//! locks; the cross-shard window is covered not by held locks but by the
//! durably-logged compensation intent of every piece. A global abort
//! compensates committed pieces exactly like the paper's Section-3 abort
//! compensates committed subtransactions.
//!
//! **Presumed-abort 2PC** (the baseline): pieces prepare and then *hold
//! every low-level lock* until the coordinator's decision, serializing
//! every conflicting transaction across the fleet for the whole commit
//! round trip.
//!
//! The coordinator's only durable state is its **decision log**. A commit
//! decision is logged before any shard learns it; absence of a decision
//! means abort (presumed abort). In-doubt participants — pieces prepared
//! on a shard that crashed before the decision reached it — resolve
//! deterministically against this log during shard recovery.

use crate::dispatch::Helpers;
use crate::partition::PartitionMap;
use crate::rpc::{FleetFaults, RetryPolicy, RpcError, ShardLink};
use crate::shard::{DecisionGate, PieceAck, ShardConfig, ShardNode, ShardRecoveryReport};
use parking_lot::Mutex;
use semcc_core::{
    read_image, EventJournal, FsyncPolicy, JournalKind, ProtocolConfig, ShardFaultPoint, Stats,
    StatsSnapshot, WalRecord, WalWriter,
};
use semcc_orderentry::{Database, DbParams, TxnSpec};
use semcc_semantics::Value;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which cross-shard commit protocol a submission uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitProtocol {
    /// Pieces commit early under retained semantic locks; global abort
    /// compensates.
    OpenNested,
    /// Classic presumed-abort two-phase commit; pieces hold low-level
    /// locks across the cross-shard window.
    TwoPhase,
}

/// Fleet construction parameters.
#[derive(Clone)]
pub struct FleetConfig {
    /// Number of shards.
    pub n_shards: usize,
    /// Database parameters (each shard builds the same replica).
    pub db_params: DbParams,
    /// Locking protocol of every shard engine.
    pub protocol: ProtocolConfig,
    /// Lock-wait timeout backstop on every shard.
    pub lock_wait_timeout: Option<Duration>,
    /// Simulated per-leaf-operation latency on every shard.
    pub op_delay: Duration,
    /// Dist-event journal capacity per node (0 = disabled).
    pub journal_capacity: usize,
    /// Coordinator→shard retry budget.
    pub retry: RetryPolicy,
    /// Backoff / fault-schedule seed.
    pub seed: u64,
    /// Injected fleet fault, if any.
    pub fault: Option<ShardFaultPoint>,
    /// Piece re-runs after retryable engine aborts (deadlock, timeout).
    pub max_piece_retries: u32,
    /// Run every shard on flat object read/write locks instead of the
    /// semantic lock manager (the classic-2PC baseline's shards).
    pub low_level_2pl: bool,
    /// Simulated one-way coordinator→shard message latency. Charged per
    /// piece dispatch under both protocols and per decision delivery
    /// under 2PC — where it lands *inside* the participants' lock-hold
    /// window, which is exactly the classic 2PC cost the semantic
    /// open-nested protocol avoids by committing pieces early.
    pub net_delay: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            n_shards: 2,
            db_params: DbParams::default(),
            protocol: ProtocolConfig::semantic(),
            lock_wait_timeout: Some(Duration::from_millis(200)),
            op_delay: Duration::ZERO,
            journal_capacity: 0,
            retry: RetryPolicy::default(),
            seed: 1,
            fault: None,
            max_piece_retries: 8,
            low_level_2pl: false,
            net_delay: Duration::ZERO,
        }
    }
}

/// The coordinator plus its shards — one logical distributed database.
pub struct Coordinator {
    cfg: FleetConfig,
    pmap: PartitionMap,
    shards: Vec<Arc<ShardNode>>,
    faults: Arc<FleetFaults>,
    decision_log: Arc<WalWriter>,
    /// In-memory mirror of the decision log (gtid → commit). Volatile:
    /// a coordinator crash clears it; recovery reparses the log.
    decisions: Mutex<Decisions>,
    next_gtid: AtomicU64,
    stats: Arc<Stats>,
    journal: Option<Arc<EventJournal>>,
    down: AtomicBool,
    /// Gtids whose commit was acknowledged to the client, in ack order.
    acked: Mutex<Vec<u64>>,
    /// Parked threads that run cross-shard pieces beside the submitter.
    helpers: Helpers,
    /// The one thread that runs shard checkpoints, one at a time (see
    /// [`Coordinator::maybe_checkpoint`]); `checkpointing` marks it busy.
    checkpointer: Helpers,
    checkpointing: AtomicBool,
}

impl Coordinator {
    /// Boot a fleet: N shards plus the coordinator.
    pub fn new(cfg: FleetConfig) -> Coordinator {
        let reference = Database::build(&cfg.db_params).expect("reference database build");
        let pmap = PartitionMap::new(&reference, cfg.n_shards);
        let faults = FleetFaults::new(cfg.fault);
        let shards = (0..cfg.n_shards)
            .map(|idx| {
                ShardNode::new(
                    ShardConfig {
                        idx,
                        db_params: cfg.db_params.clone(),
                        protocol: cfg.protocol,
                        lock_wait_timeout: cfg.lock_wait_timeout,
                        op_delay: cfg.op_delay,
                        journal_capacity: cfg.journal_capacity,
                        low_level_2pl: cfg.low_level_2pl,
                    },
                    Arc::clone(&faults),
                )
            })
            .collect();
        Coordinator {
            pmap,
            shards,
            faults,
            decision_log: WalWriter::new(FsyncPolicy::EveryAppend),
            decisions: Mutex::new(Decisions::default()),
            next_gtid: AtomicU64::new(1),
            stats: Arc::new(Stats::default()),
            journal: (cfg.journal_capacity > 0)
                .then(|| Arc::new(EventJournal::new(cfg.journal_capacity))),
            down: AtomicBool::new(false),
            acked: Mutex::new(Vec::new()),
            helpers: Helpers::default(),
            checkpointer: Helpers::default(),
            checkpointing: AtomicBool::new(false),
            cfg,
        }
    }

    /// The fleet's shards.
    pub fn shards(&self) -> &[Arc<ShardNode>] {
        &self.shards
    }

    /// The partition map.
    pub fn partition(&self) -> &PartitionMap {
        &self.pmap
    }

    /// Whether the coordinator is down (crashed mid-commit).
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::Acquire)
    }

    /// Gtids acked to the client, in ack order.
    pub fn acked(&self) -> Vec<u64> {
        self.acked.lock().clone()
    }

    /// Gtids with a durably logged **commit** decision, ascending.
    pub fn committed_gtids(&self) -> Vec<u64> {
        self.decisions.lock().iter().filter(|(_, c)| *c).map(|(g, _)| g).collect()
    }

    /// Snapshot of the decision map (shard recovery resolves against it).
    pub fn decisions(&self) -> BTreeMap<u64, bool> {
        self.decisions.lock().iter().collect()
    }

    /// The coordinator's dist-event journal, if enabled.
    pub fn journal(&self) -> Option<&Arc<EventJournal>> {
        self.journal.as_ref()
    }

    /// Fleet-wide counters: the coordinator's own plus every shard's.
    pub fn fleet_stats(&self) -> StatsSnapshot {
        let mut acc = self.stats.snapshot();
        for s in &self.shards {
            acc = crate::shard::merge_snapshots(&acc, &s.stats());
        }
        acc
    }

    fn link(&self, gtid: u64, shard: usize) -> ShardLink<'_> {
        ShardLink {
            faults: &self.faults,
            policy: self.cfg.retry,
            stats: &self.stats,
            seed: link_seed(self.cfg.seed, gtid, shard),
        }
    }

    fn net_pause(&self) {
        pause(self.cfg.net_delay);
    }

    fn journal_record(&self, kind: JournalKind, gtid: u64, aux: u64) {
        if let Some(j) = &self.journal {
            j.record(kind, gtid, 0, 0, 0, gtid, aux);
        }
    }

    fn log_decision(&self, gtid: u64, commit: bool) -> Result<(), RpcError> {
        let rec = if commit {
            WalRecord::TopCommit { top: gtid }
        } else {
            // Logged for prompt re-drive only: absence already means
            // abort (presumed abort), so losing this record is harmless.
            WalRecord::TopAbort { top: gtid }
        };
        self.decision_log.append(&rec).map_err(|_| RpcError::CoordinatorDown)?;
        self.decisions.lock().insert(gtid, commit);
        self.journal_record(JournalKind::ShardDecide, gtid, u64::from(commit));
        Ok(())
    }

    /// Submit one transaction under `protocol`. Returns the gtid (for
    /// audits) alongside the outcome; the `Ok` value is the single
    /// piece's value, or a `Value::List` of piece values in shard order
    /// for a cross-shard transaction.
    pub fn submit(
        &self,
        spec: &TxnSpec,
        protocol: CommitProtocol,
    ) -> (u64, Result<Value, RpcError>) {
        let gtid = self.next_gtid.fetch_add(1, Ordering::Relaxed);
        if self.is_down() {
            return (gtid, Err(RpcError::CoordinatorDown));
        }
        let pieces = self.pmap.split(spec);
        if pieces.len() > 1 {
            Stats::bump(&self.stats.cross_shard_txns);
        }
        let result = match protocol {
            CommitProtocol::OpenNested => self.commit_open_nested(gtid, pieces),
            CommitProtocol::TwoPhase => self.commit_two_phase(gtid, pieces),
        };
        self.maybe_checkpoint();
        (gtid, result)
    }

    /// Checkpoint the logs of every shard whose byte cadence came due.
    /// The checkpoints run on one reused thread, one at a time fleet-wide,
    /// and the submitter waits for them; a submitter that finds one
    /// running leaves the rest to a later transaction. One thread matters
    /// for memory: a main-WAL checkpoint's transient allocations (the
    /// store dump, the intent-table fold, the encoded image) stay in the
    /// allocating thread's malloc arena, so checkpoints spread over the
    /// piece threads would each keep their own copy resident.
    fn maybe_checkpoint(&self) {
        // `checkpointing` is a try-lock around the checkpointer: taken with
        // Acquire here, released with Release below.
        if !self.shards.iter().any(|s| s.checkpoint_due())
            || self.checkpointing.swap(true, Ordering::Acquire)
        {
            return;
        }
        let shards = self.shards.clone();
        self.checkpointer.run(
            vec![move || {
                for shard in &shards {
                    // A crashed shard refuses; it recovers from its logs
                    // as they are. A failed checkpoint leaves the log
                    // poisoned, which its next append reports.
                    let _ = shard.checkpoint_if_due();
                }
            }],
            || (),
        );
        self.checkpointing.store(false, Ordering::Release);
    }

    /// An owned job running one open-nested piece: the pause for the
    /// dispatch message, then the piece through the retry seam. Owned so
    /// that a helper thread can run it.
    fn open_piece(
        &self,
        gtid: u64,
        idx: usize,
        piece: TxnSpec,
    ) -> impl FnOnce() -> (usize, Result<PieceAck, RpcError>) + Send + 'static {
        let shard = Arc::clone(&self.shards[idx]);
        let faults = Arc::clone(&self.faults);
        let stats = Arc::clone(&self.stats);
        let (policy, seed) = (self.cfg.retry, link_seed(self.cfg.seed, gtid, idx));
        let (delay, max_retries) = (self.cfg.net_delay, self.cfg.max_piece_retries);
        move || {
            pause(delay);
            let link = ShardLink { faults: &faults, policy, stats: &stats, seed };
            // Re-run the piece after retryable engine aborts (deadlock,
            // lock timeout).
            let mut attempt = 0u32;
            let out = loop {
                match link.call(|| shard.run_piece(gtid, &piece)) {
                    Err(e) if e.is_retryable_app() && attempt < max_retries => attempt += 1,
                    other => break other,
                }
            };
            (idx, out)
        }
    }

    fn commit_open_nested(
        &self,
        gtid: u64,
        pieces: Vec<(usize, TxnSpec)>,
    ) -> Result<Value, RpcError> {
        // Pieces live on distinct shards and commit independently: the
        // last runs on the calling thread, the others on parked helpers —
        // concurrently, exactly like the 2PC dispatch, so both protocols
        // pay the same message latency and the comparison isolates the
        // lock-hold window.
        let mut jobs: Vec<_> =
            pieces.into_iter().map(|(idx, piece)| self.open_piece(gtid, idx, piece)).collect();
        let here = jobs.pop().expect("a transaction has at least one piece");
        let (acks, failure) = gather(self.helpers.run(jobs, here));
        if let Some(e) = failure {
            // Global abort. Compensate the pieces already committed; a
            // shard that is unreachable resolves at its own recovery
            // (presumed abort).
            let _ = self.log_decision(gtid, false);
            for (s, _) in &acks {
                let link = self.link(gtid, *s);
                let _ = link.call(|| self.shards[*s].resolve(gtid, false));
            }
            return Err(e);
        }
        // Every piece is locally durable: log the global commit decision.
        self.log_decision(gtid, true)?;
        if self.faults.coordinator_crash() {
            // Crash mid-commit: decided but neither the shards nor the
            // client ever hear it. Recovery re-drives the decision.
            self.crash();
            return Err(RpcError::CoordinatorDown);
        }
        for (s, _) in &acks {
            let link = self.link(gtid, *s);
            let _ = link.call(|| self.shards[*s].resolve(gtid, true));
        }
        self.acked.lock().push(gtid);
        Ok(combine_values(acks))
    }

    fn commit_two_phase(
        &self,
        gtid: u64,
        mut pieces: Vec<(usize, TxnSpec)>,
    ) -> Result<Value, RpcError> {
        // One-phase optimization: a single-shard transaction needs no
        // prepare round — every real 2PC system short-circuits it, and
        // charging the baseline for a round trip it would not make would
        // rig the comparison.
        if pieces.len() == 1 {
            return self.commit_open_nested(gtid, pieces);
        }
        let gate = Arc::new(DecisionGate::default());
        let (here_idx, here_piece) = pieces.pop().expect("a cross-shard transaction");
        let others = pieces.len();
        let jobs: Vec<_> = pieces
            .into_iter()
            .map(|(idx, piece)| {
                let shard = Arc::clone(&self.shards[idx]);
                let gate = Arc::clone(&gate);
                let delay = self.cfg.net_delay;
                move || {
                    let _abandon = gate.abandon_on_unwind();
                    pause(delay);
                    let out = shard.run_piece_2pc(gtid, &piece, &mut || gate.vote_and_wait());
                    if out.is_err() {
                        gate.fail();
                    }
                    (idx, out)
                }
            })
            .collect();
        // The coordinator's decision: once every other participant voted
        // ready (or one failed), deliver the decision. The participants
        // sit on their locks for this entire round trip.
        let decide = || {
            let all_ready = gate.wait_votes(others);
            self.net_pause();
            let commit = if all_ready {
                // Presumed abort: the commit decision is durable before
                // any participant may release locks and finish.
                self.log_decision(gtid, true).is_ok()
            } else {
                let _ = self.log_decision(gtid, false);
                false
            };
            gate.decide(commit);
            commit
        };
        // The submitting thread runs the last piece, and its vote *is* the
        // decision; a piece that fails before voting decides afterwards.
        let decided: Cell<Option<bool>> = Cell::new(None);
        let outcomes = self.helpers.run(jobs, || {
            let _abandon = gate.abandon_on_unwind();
            self.net_pause();
            let out = self.shards[here_idx].run_piece_2pc(gtid, &here_piece, &mut || {
                let commit = decide();
                decided.set(Some(commit));
                commit
            });
            if decided.get().is_none() {
                gate.fail();
                decided.set(Some(decide()));
            }
            (here_idx, out)
        });
        let commit = decided.get() == Some(true);
        let (acks, failure) = gather(outcomes);
        match (commit, failure) {
            (true, None) => {
                self.acked.lock().push(gtid);
                Ok(combine_values(acks))
            }
            (_, Some(e)) => Err(e),
            (false, None) => {
                Err(RpcError::App(semcc_semantics::SemccError::Aborted("2pc vote failed".into())))
            }
        }
    }

    /// Submit with transparent whole-transaction retries on contention
    /// aborts (the 2PC baseline needs this: cross-shard deadlocks are
    /// broken by lock-wait timeouts and retried). Returns the *last*
    /// gtid used and the number of aborted attempts.
    pub fn submit_with_retry(
        &self,
        spec: &TxnSpec,
        protocol: CommitProtocol,
        max_retries: u32,
    ) -> (u64, Result<Value, RpcError>, u32) {
        let mut retries = 0;
        loop {
            let (gtid, out) = self.submit(spec, protocol);
            match out {
                Err(ref e) if e.is_retryable_app() && retries < max_retries => {
                    retries += 1;
                    // Exponential backoff with deterministic jitter:
                    // immediate resubmission turns a hot-lock abort into
                    // a retry convoy that livelocks the whole fleet.
                    let base = 20u64 << retries.min(6);
                    let jitter = gtid.wrapping_mul(0x9e37_79b9).rotate_right(7) % base;
                    std::thread::sleep(Duration::from_micros(base + jitter));
                }
                other => return (gtid, other, retries),
            }
        }
    }

    /// Kill the coordinator: the decision map and any in-flight commit
    /// state are lost; only the decision log survives.
    pub fn crash(&self) {
        if self.down.swap(true, Ordering::AcqRel) {
            return;
        }
        *self.decisions.lock() = Decisions::default();
    }

    /// Recover the coordinator from its decision log and re-drive every
    /// logged decision to every live shard (resolution is idempotent;
    /// shards that are down resolve at their own recovery).
    pub fn recover(&self) -> Result<usize, String> {
        let image = self.decision_log.surviving_image();
        let parsed = read_image(&image).map_err(|e| format!("decision log parse: {e}"))?;
        let mut rebuilt = Decisions::default();
        for rec in &parsed.records {
            match rec {
                WalRecord::TopCommit { top } => rebuilt.insert(*top, true),
                WalRecord::TopAbort { top } => rebuilt.insert(*top, false),
                _ => {}
            }
        }
        let redrive: Vec<(u64, bool)> = rebuilt.iter().collect();
        *self.decisions.lock() = rebuilt;
        self.down.store(false, Ordering::Release);
        let mut redriven = 0;
        for (gtid, commit) in redrive {
            for shard in &self.shards {
                if !shard.is_dead() && shard.resolve(gtid, commit).is_ok() {
                    redriven += 1;
                }
            }
        }
        Ok(redriven)
    }

    /// Recover one crashed shard against the current decision map.
    pub fn recover_shard(&self, idx: usize) -> Result<ShardRecoveryReport, String> {
        let decisions = self.decisions();
        self.shards[idx].recover(&decisions)
    }
}

/// The decision map, dense by gtid: gtids are allocated consecutively
/// from 1, so one byte per gtid replaces a map node per decision — the
/// map is retained for the fleet's lifetime.
#[derive(Default)]
struct Decisions(Vec<Option<bool>>);

impl Decisions {
    fn insert(&mut self, gtid: u64, commit: bool) {
        let i = gtid as usize;
        if self.0.len() <= i {
            self.0.resize(i + 1, None);
        }
        self.0[i] = Some(commit);
    }

    /// `(gtid, commit)` of every decision, gtid-ascending.
    fn iter(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        self.0.iter().enumerate().filter_map(|(g, d)| d.map(|commit| (g as u64, commit)))
    }
}

/// The backoff seed of one coordinator→shard link: decorrelates the
/// retries of concurrent pieces and transactions.
fn link_seed(seed: u64, gtid: u64, shard: usize) -> u64 {
    seed ^ gtid.wrapping_mul(0x9e37_79b9) ^ shard as u64
}

/// Simulated one-way message latency.
fn pause(delay: Duration) {
    if !delay.is_zero() {
        std::thread::sleep(delay);
    }
}

/// Split piece outcomes into the acks and the failure to report. The
/// *root cause* wins over the secondary "global abort" errors of sibling
/// pieces: a contention victim (deadlock / lock timeout) is retryable,
/// the abort it triggered is not.
fn gather(
    outcomes: Vec<(usize, Result<PieceAck, RpcError>)>,
) -> (Vec<(usize, PieceAck)>, Option<RpcError>) {
    let mut acks = Vec::with_capacity(outcomes.len());
    let mut failure: Option<RpcError> = None;
    for (idx, out) in outcomes {
        match out {
            Ok(ack) => acks.push((idx, ack)),
            Err(e) => {
                if failure.as_ref().is_none_or(|f| !f.is_retryable_app() && e.is_retryable_app()) {
                    failure = Some(e);
                }
            }
        }
    }
    (acks, failure)
}

fn combine_values(mut acks: Vec<(usize, PieceAck)>) -> Value {
    acks.sort_by_key(|(s, _)| *s);
    if acks.len() == 1 {
        acks.remove(0).1.value
    } else {
        Value::List(acks.into_iter().map(|(_, a)| a.value).collect())
    }
}
