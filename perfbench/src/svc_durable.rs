//! `svc-durable`: the deployment shape — a logged engine behind the
//! session service.
//!
//! 2048 items × 16 orders, uniform item choice, `MixWeights::update_heavy`.
//! The WAL syncs on every commit (`FsyncPolicy::OnCommit`) to the log's
//! in-memory device, rotates 1 MiB segments and takes a fuzzy checkpoint
//! every 8 MiB. `Service` runs 2 core threads; one generator thread keeps
//! 32 sessions outstanding (closed loop). WAL framing and append, the
//! group-commit barrier, checkpoint dumps, segment retirement and the
//! service hand-off do most of the work; uniform access leaves few lock
//! waits. Device latency is not measured: the in-memory device is the
//! same on both sides of every comparison.

use crate::load::{Class, Recorder, Timeline};
use crate::trace::{Kind, TracedProgram, TracedStorage, Tracer};
use crate::{Bench, Counters, LayerCtx, Options, Pass, Scale};
use semcc_core::{
    recover_image, Engine, FsyncPolicy, LogImage, ProtocolConfig, TransactionProgram, WalConfig,
    WalWriter,
};
use semcc_objstore::MemoryStore;
use semcc_orderentry::{Database, DbParams, MixWeights, TxnSpec, Workload, WorkloadConfig};
use semcc_semantics::{ObjectId, Storage};
use semcc_service::{Service, ServiceConfig, Ticket};
use semcc_sim::validate::canonical_state;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// The workload's parameters.
pub struct SvcDurable {
    params: DbParams,
    wal: WalConfig,
    seed: u64,
}

/// The built system.
pub struct Sys {
    db: Database,
    engine: Arc<Engine>,
    wal: Arc<WalWriter>,
    service: Service,
}

const CORE_THREADS: usize = 2;
const OUTSTANDING: usize = 32;

impl SvcDurable {
    /// Sizes for `opts.scale`.
    pub fn new(opts: &Options) -> SvcDurable {
        let (n_items, orders_per_item, segment_bytes, checkpoint_bytes) = match opts.scale {
            Scale::Full => (2048, 16, 1 << 20, 8 << 20),
            Scale::Tiny => (64, 4, 16 << 10, 64 << 10),
        };
        SvcDurable {
            params: DbParams { n_items, orders_per_item, ..Default::default() },
            wal: WalConfig {
                segment_bytes,
                checkpoint_bytes: Some(checkpoint_bytes),
                ..Default::default()
            },
            seed: opts.seed,
        }
    }

    /// The database parameters (the durability gate rebuilds from them).
    pub fn params(&self) -> &DbParams {
        &self.params
    }
}

impl Sys {
    /// Drain the service, check that nothing is left behind, and
    /// power-fail the log. Returns what a restart would find on the
    /// device (the synced bytes only) and the live database.
    pub fn power_fail(self) -> Result<(LogImage, Database), String> {
        self.service.shutdown();
        crate::engine_residue("engine", &self.engine)?;
        self.wal.power_fail();
        Ok((self.wal.surviving_image(), self.db))
    }
}

/// One outstanding session.
struct InFlight {
    submitted: Instant,
    class: Class,
    kind: &'static str,
    ticket: Ticket,
    /// The traced wrapper (traced pass only).
    traced: Option<Arc<TracedProgram<TxnSpec>>>,
    /// `(txn id, submit time)` of a sampled session.
    sample: Option<(u32, u64)>,
}

impl Bench for SvcDurable {
    type Sys = Sys;

    fn build(&self, tracer: Option<&Arc<Tracer>>) -> Sys {
        let db = Database::build(&self.params).expect("database build");
        let wal = WalWriter::with_config(FsyncPolicy::OnCommit, self.wal);
        let storage: Arc<dyn Storage> = match tracer {
            Some(t) => Arc::new(TracedStorage::new(Arc::clone(&db.store), Arc::clone(t))),
            None => Arc::clone(&db.store) as Arc<dyn Storage>,
        };
        let engine = Engine::builder(storage, Arc::clone(&db.catalog))
            .protocol(ProtocolConfig::semantic())
            .wal(Arc::clone(&wal))
            .build();
        let service = Service::start(
            Arc::clone(&engine),
            ServiceConfig {
                core_threads: CORE_THREADS,
                max_in_flight: OUTSTANDING,
                max_retries: crate::MAX_RETRIES,
            },
        );
        Sys { db, engine, wal, service }
    }

    fn counters(&self, sys: &Sys) -> Counters {
        Counters {
            stats: sys.engine.stats(),
            wal: Some((sys.wal.fsyncs(), sys.wal.group_commits())),
            retained_bytes: sys.wal.retained_bytes() as u64,
            dist: None,
        }
    }

    fn drive(&self, sys: &Sys, tl: &Timeline, tracer: Option<&Arc<Tracer>>) -> Pass {
        let mut gen = Workload::new(
            &sys.db,
            WorkloadConfig {
                mix: MixWeights::update_heavy(),
                zipf_theta: 0.0,
                targets_per_txn: 2,
                bypass_checks: true,
                seed: crate::client_seed(self.seed, 0),
            },
        );
        let deadline = tl.deadline();
        let mut rec = Recorder::default();
        let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(OUTSTANDING);
        let mut n = 0u64;
        loop {
            while inflight.len() < OUTSTANDING && Instant::now() < deadline {
                let spec = gen.next_txn(&sys.db);
                let class = Class { read: !spec.is_update(), cross: false };
                let kind = spec.kind();
                n += 1;
                let sample = tracer.filter(|t| t.sampled(n)).map(|t| (t.new_txn(), t.now()));
                let (program, traced): (Arc<dyn TransactionProgram>, _) = match tracer {
                    None => (Arc::new(spec), None),
                    Some(t) => {
                        let p = Arc::new(TracedProgram::session(spec, Arc::clone(t), sample));
                        (Arc::clone(&p) as Arc<dyn TransactionProgram>, Some(p))
                    }
                };
                let submitted = Instant::now();
                let ticket = sys.service.submit(program);
                inflight.push_back(InFlight { submitted, class, kind, ticket, traced, sample });
            }
            // Sessions resolve nearly in submission order (one FIFO queue,
            // two cores), so waiting on the oldest loses little.
            let Some(s) = inflight.pop_front() else { break };
            let (result, _) = s.ticket.wait();
            let done = Instant::now();
            if let (Some(t), Some(p), Some((txn, submit_ns))) = (tracer, &s.traced, s.sample) {
                let observed = t.now();
                let tag = u8::from(s.class.read);
                t.record(txn, Kind::Txn, tag, p.first_run().max(submit_ns), observed);
                t.record(txn, Kind::Session, tag, submit_ns, observed);
            }
            let result = result.map(drop).map_err(|e| format!("{}: {e}", s.kind));
            rec.record(tl, done, done - s.submitted, s.class, result);
        }
        Pass { rec, txn_retries: 0 }
    }

    fn gate(&self, sys: Sys) -> Result<(), String> {
        let (image, db) = sys.power_fail()?;
        durability_gate(&image, &self.params, &db.store, db.items_set)
    }

    fn layer_metrics(&self, m: &mut BTreeMap<&'static str, f64>, ctx: &LayerCtx<'_>) {
        let l = ctx.ledger;
        m.insert("service.queue_wait_p50_us", l.queue_p50_us);
        m.insert("service.queue_wait_p99_us", l.queue_p99_us);
        m.insert("service.exec_p50_us", l.exec_p50_us);
        m.insert("service.handoff_us", l.per_txn_us(l.handoff_ns));
    }
}

/// Acked ⇒ readable after restart: recover `image` (durable bytes only)
/// into a freshly built database and demand the live store's canonical
/// state.
pub fn durability_gate(
    image: &LogImage,
    params: &DbParams,
    live: &MemoryStore,
    live_items: ObjectId,
) -> Result<(), String> {
    let fresh = Database::build(params).map_err(|e| format!("rebuild: {e}"))?;
    let (_engine, report) = recover_image(
        image,
        Arc::clone(&fresh.store),
        Arc::clone(&fresh.catalog),
        ProtocolConfig::semantic(),
        None,
        None,
    )
    .map_err(|e| format!("recovery failed: {e}"))?;
    if let Some((top, e)) = report.failures.first() {
        return Err(format!("recovery could not compensate txn {top}: {e}"));
    }
    let want = canonical_state(live, live_items).map_err(|e| e.to_string())?;
    let got = canonical_state(fresh.store.as_ref(), fresh.items_set).map_err(|e| e.to_string())?;
    if want != got {
        let differing = want.iter().zip(&got).filter(|(a, b)| a != b).count();
        return Err(format!(
            "recovered state differs from the live store in {differing} of {} items",
            want.len()
        ));
    }
    Ok(())
}
