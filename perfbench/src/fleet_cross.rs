//! `fleet-cross`: the sharded fleet under the semantic open-nested
//! cross-shard commit.
//!
//! Two shards, escrow schema, 2048 items × 8 orders per replica, zero
//! network delay. Pay / Ship / CheckPaid / CheckShipped in equal shares,
//! two targets each; the second item is picked from the first one's owner
//! residue class or the other one, so the share of cross-shard
//! transactions is set by the generator (see [`CROSS_SHARE`]). Two
//! closed-loop clients. Only here do the piece split, the per-piece
//! dispatch threads, the participant and decision logs and the shard WALs
//! (never checkpointed) work; the coordinator keeps one decision per
//! transaction, which is what `peak_rss_mb` grows with.

use crate::load::{closed_loop, Class, Timeline};
use crate::trace::{Kind, Tracer};
use crate::{per_k, ratio, Bench, Counters, LayerCtx, Options, Pass, Scale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semcc_dist::{CommitProtocol, Coordinator, FleetConfig};
use semcc_orderentry::{DbParams, ItemInfo, Target, TxnSpec};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Probability that a transaction's two items live on different shards.
/// Not one half: local and cross-shard transactions form two latency
/// modes, and at exactly one half every median would sit on the gap
/// between them and jump from run to run.
pub const CROSS_SHARE: f64 = 0.4;

const SHARDS: usize = 2;
const CLIENTS: usize = 2;

/// The workload's parameters.
pub struct FleetCross {
    params: DbParams,
    seed: u64,
}

/// The built system.
pub struct Sys {
    coord: Coordinator,
    items: Vec<ItemInfo>,
}

impl FleetCross {
    /// Sizes for `opts.scale`.
    pub fn new(opts: &Options) -> FleetCross {
        let (n_items, orders_per_item) = match opts.scale {
            Scale::Full => (2048, 8),
            Scale::Tiny => (64, 4),
        };
        FleetCross {
            params: DbParams { n_items, orders_per_item, escrow: true, ..Default::default() },
            seed: opts.seed,
        }
    }
}

/// A seeded two-target transaction over `items`, cross-shard with
/// probability [`CROSS_SHARE`]. Ownership is `item_no % SHARDS`.
fn next_txn(rng: &mut StdRng, items: &[ItemInfo]) -> (TxnSpec, Class) {
    let pick = |rng: &mut StdRng| &items[rng.random_range(0..items.len())];
    let a = pick(rng);
    let cross = rng.random::<f64>() < CROSS_SHARE;
    let b = loop {
        let c = pick(rng);
        let same = c.item_no % SHARDS as u64 == a.item_no % SHARDS as u64;
        if same != cross && c.item_no != a.item_no {
            break c;
        }
    };
    // Canonical target order, as the fleet sweep uses.
    let (lo, hi) = if a.item_no <= b.item_no { (a, b) } else { (b, a) };
    let target = |i: &ItemInfo, rng: &mut StdRng| Target {
        item: i.item,
        order: i.orders[rng.random_range(0..i.orders.len())].order,
    };
    let targets = vec![target(lo, rng), target(hi, rng)];
    let spec = match rng.random_range(0..4u32) {
        0 => TxnSpec::Pay(targets),
        1 => TxnSpec::Ship(targets),
        2 => TxnSpec::CheckPaid { targets, bypass: true },
        _ => TxnSpec::CheckShipped { targets, bypass: true },
    };
    let class = Class { read: !spec.is_update(), cross };
    (spec, class)
}

impl Bench for FleetCross {
    type Sys = Sys;

    fn build(&self, _tracer: Option<&Arc<Tracer>>) -> Sys {
        // The fleet builds its own stores and engines: it exposes no
        // storage seam, so the traced pass times whole submissions only.
        let coord = Coordinator::new(FleetConfig {
            n_shards: SHARDS,
            db_params: self.params.clone(),
            seed: self.seed,
            ..Default::default()
        });
        // Replicas are deterministic, so shard 0's handles name the same
        // objects on every shard.
        let items = coord.shards()[0]
            .with_live(|_, db| db.items.clone())
            .expect("a freshly booted shard is live");
        Sys { coord, items }
    }

    fn counters(&self, sys: &Sys) -> Counters {
        let stats = sys.coord.fleet_stats();
        Counters {
            stats,
            wal: None,
            retained_bytes: stats.wal_bytes,
            dist: Some((sys.coord.decisions().len(), sys.coord.acked().len())),
        }
    }

    fn drive(&self, sys: &Sys, tl: &Timeline, tracer: Option<&Arc<Tracer>>) -> Pass {
        let retries = AtomicU64::new(0);
        let rec = closed_loop(tl, CLIENTS, |client| {
            let mut rng = StdRng::seed_from_u64(crate::client_seed(self.seed, client));
            let mut n = 0u64;
            let retries = &retries;
            move || {
                let (spec, class) = next_txn(&mut rng, &sys.items);
                n += 1;
                let t0 = Instant::now();
                let start = tracer.map(|t| t.now());
                let (_gtid, result, r) = sys.coord.submit_with_retry(
                    &spec,
                    CommitProtocol::OpenNested,
                    crate::MAX_RETRIES,
                );
                if let (Some(t), Some(start)) = (tracer, start) {
                    if t.sampled(n) {
                        let tag = u8::from(class.read) | u8::from(class.cross) << 1;
                        t.record(t.new_txn(), Kind::Submit, tag, start, t.now());
                    }
                }
                retries.fetch_add(u64::from(r), Ordering::Relaxed);
                (t0, class, result.map(drop).map_err(|e| format!("{}: {e:?}", spec.kind())))
            }
        });
        Pass { rec, txn_retries: retries.into_inner() }
    }

    fn gate(&self, sys: Sys) -> Result<(), String> {
        for shard in sys.coord.shards() {
            match shard.residue() {
                Some((0, 0, (0, 0, 0, 0), 0)) => {}
                other => return Err(format!("shard {} residue {other:?}", shard.idx())),
            }
        }
        let committed = sys.coord.committed_gtids();
        let lost: Vec<u64> =
            sys.coord.acked().into_iter().filter(|g| committed.binary_search(g).is_err()).collect();
        if !lost.is_empty() {
            return Err(format!(
                "{} acked gtids have no commit decision, e.g. {}",
                lost.len(),
                lost[0]
            ));
        }
        Ok(())
    }

    fn layer_metrics(&self, m: &mut BTreeMap<&'static str, f64>, ctx: &LayerCtx<'_>) {
        let d = &ctx.delta;
        let rec = &ctx.pass.rec;
        let txns = rec.finished(|_| true);
        m.insert(
            "dist.cross_share",
            ratio(d.cross_shard_txns, rec.attempted + ctx.pass.txn_retries),
        );
        m.insert("dist.pieces_per_txn", ratio(d.commits, txns));
        m.insert("dist.prepares_per_txn", ratio(d.prepares, txns));
        m.insert("dist.rpc_retries", per_k(d.shard_rpc_retries, txns));
        m.insert("dist.txn_retries", per_k(ctx.pass.txn_retries, txns));
        m.insert("dist.cross_p50_us", rec.latency_us(0.5, |c| c.cross));
        m.insert("dist.local_p50_us", rec.latency_us(0.5, |c| !c.cross));
        m.insert("dist.cross_p99_us", rec.latency_us(0.99, |c| c.cross));
        if let Some((decisions, acked)) = ctx.end.dist {
            m.insert("dist.decisions_retained", decisions as f64);
            m.insert("dist.acked_retained", acked as f64);
        }
    }
}
