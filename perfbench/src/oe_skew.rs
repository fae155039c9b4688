//! `oe-skew`: the embedded engine called directly under a Zipf hot spot.
//!
//! 4096 items × 16 orders, `ProtocolConfig::semantic()`, snapshot reads
//! on, no WAL. Half the transactions read (T3/T4 bypassing the items, and
//! T5), half update (T1/T2); two targets each; θ = 1.5, so the hottest
//! item gets about 39% of the picks. Two closed-loop clients. The kernel,
//! the method bodies, the store's leaves and snapshot validation do most
//! of the work; the hot spot makes lock waits, Case-1/Case-2 grants,
//! deadlock retries and compensation real.

use crate::load::{closed_loop, Class, Timeline};
use crate::trace::{TracedProgram, TracedStorage, Tracer};
use crate::{Bench, Counters, LayerCtx, Options, Pass, Scale};
use semcc_core::{Engine, ProtocolConfig};
use semcc_orderentry::{Database, DbParams, MixWeights, TxnSpec, Workload, WorkloadConfig};
use semcc_semantics::{Storage, Value};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The workload's parameters.
pub struct OeSkew {
    params: DbParams,
    seed: u64,
}

/// The built system.
pub struct Sys {
    db: Database,
    engine: Arc<Engine>,
}

const CLIENTS: usize = 2;

impl OeSkew {
    /// Sizes for `opts.scale`.
    pub fn new(opts: &Options) -> OeSkew {
        let (n_items, orders_per_item) = match opts.scale {
            Scale::Full => (4096, 16),
            Scale::Tiny => (64, 4),
        };
        OeSkew {
            params: DbParams { n_items, orders_per_item, ..Default::default() },
            seed: opts.seed,
        }
    }
}

impl Bench for OeSkew {
    type Sys = Sys;

    fn build(&self, tracer: Option<&Arc<Tracer>>) -> Sys {
        let db = Database::build(&self.params).expect("database build");
        let storage: Arc<dyn Storage> = match tracer {
            Some(t) => Arc::new(TracedStorage::new(Arc::clone(&db.store), Arc::clone(t))),
            None => Arc::clone(&db.store) as Arc<dyn Storage>,
        };
        let engine = Engine::builder(storage, Arc::clone(&db.catalog))
            .protocol(ProtocolConfig::semantic())
            .snapshot_reads(true)
            .build();
        Sys { db, engine }
    }

    fn counters(&self, sys: &Sys) -> Counters {
        Counters { stats: sys.engine.stats(), ..Default::default() }
    }

    fn drive(&self, sys: &Sys, tl: &Timeline, tracer: Option<&Arc<Tracer>>) -> Pass {
        let rec = closed_loop(tl, CLIENTS, |client| {
            let mut gen = Workload::new(
                &sys.db,
                WorkloadConfig {
                    mix: MixWeights::with_read_ratio(50),
                    zipf_theta: 1.5,
                    targets_per_txn: 2,
                    bypass_checks: true,
                    seed: crate::client_seed(self.seed, client),
                },
            );
            let mut n = 0u64;
            move || {
                let spec = gen.next_txn(&sys.db);
                let class = Class { read: !spec.is_update(), cross: false };
                let kind = spec.kind();
                n += 1;
                let t0 = Instant::now();
                let (result, _) = match tracer {
                    None => sys.engine.execute_with_retry(&spec, crate::MAX_RETRIES),
                    Some(t) => {
                        let prog = TracedProgram::direct(spec, Arc::clone(t));
                        let exec = || sys.engine.execute_with_retry(&prog, crate::MAX_RETRIES);
                        if t.sampled(n) {
                            t.txn(u8::from(class.read), exec)
                        } else {
                            exec()
                        }
                    }
                };
                (t0, class, result.map(drop).map_err(|e| format!("{kind}: {e}")))
            }
        });
        Pass { rec, txn_retries: 0 }
    }

    fn gate(&self, sys: Sys) -> Result<(), String> {
        crate::engine_residue("engine", &sys.engine)?;
        for (idx, item) in sys.db.items.iter().enumerate() {
            let total = sys
                .engine
                .execute(&TxnSpec::Total(item.item))
                .map_err(|e| format!("T5 on item {idx}: {e}"))?
                .value;
            let oracle = sys.db.oracle_total_payment(idx).map_err(|e| e.to_string())?;
            if total != Value::Money(oracle) {
                return Err(format!("item {idx}: TotalPayment {total:?}, oracle {oracle}"));
            }
        }
        crate::engine_residue("engine after the totals", &sys.engine)
    }

    fn layer_metrics(&self, _m: &mut BTreeMap<&'static str, f64>, _ctx: &LayerCtx<'_>) {}
}
