//! Piece-dispatch thread lifecycle: the helper threads that run
//! cross-shard pieces live exactly as long as their coordinator. This is
//! its own test binary with a single test, so no other test's threads
//! move the process's thread count while it is measured.

use semcc::dist::{CommitProtocol, Coordinator, FleetConfig};
use semcc::orderentry::{Database, DbParams, TxnSpec, Workload, WorkloadConfig};
use std::time::{Duration, Instant};

/// Threads of this process, or `None` where `/proc` is unavailable.
fn threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

#[test]
fn dropping_a_coordinator_returns_the_thread_count() {
    let Some(before) = threads() else { return };
    {
        let db_params = DbParams { n_items: 6, orders_per_item: 3, ..Default::default() };
        let coord = Coordinator::new(FleetConfig {
            n_shards: 3,
            db_params: db_params.clone(),
            ..Default::default()
        });
        let reference = Database::build(&db_params).expect("reference");
        let mut w = Workload::new(&reference, WorkloadConfig { seed: 3, ..Default::default() });
        let specs: Vec<TxnSpec> = w
            .batch(&reference, 200)
            .into_iter()
            .filter(|s| coord.partition().split(s).len() > 1)
            .collect();
        assert!(!specs.is_empty(), "the batch holds cross-shard transactions");
        // Two concurrent submitters, so more than one helper is needed.
        std::thread::scope(|scope| {
            for half in specs.chunks(specs.len().div_ceil(2)) {
                let coord = &coord;
                scope.spawn(move || {
                    for spec in half {
                        let _ = coord.submit_with_retry(spec, CommitProtocol::OpenNested, 8);
                    }
                });
            }
        });
        let during = threads().expect("/proc stays readable");
        assert!(during > before, "cross-shard submits parked helpers ({during} vs {before})");
    }
    // A joined thread leaves /proc a moment after `join` returns.
    let deadline = Instant::now() + Duration::from_secs(2);
    while threads() != Some(before) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(threads(), Some(before), "the dropped coordinator left threads behind");
}
