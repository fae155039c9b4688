//! Smoke tests: every workload at tiny scale prints every metric with its
//! unit and passes its correctness gate; `BENCHMARK.json` names exactly
//! the workloads and metrics the binary reports; and a corrupted log
//! image fails the durability gate.

use perfbench::load::Timeline;
use perfbench::svc_durable::{durability_gate, SvcDurable};
use perfbench::{Bench, Options, Report, Scale, Workload, END_TO_END, PER_LAYER};
use std::time::Duration;

fn tiny(workload: Workload, trace: bool) -> Report {
    perfbench::run(&Options {
        workload,
        seed: 7,
        run: Duration::from_millis(400),
        trace,
        scale: Scale::Tiny,
    })
}

fn assert_reports(report: &Report, expected: &[(&str, &str)]) {
    assert!(report.correct, "gate failed: {:#?}", report.lines);
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);
    let names: Vec<(&str, &str)> = report.metrics.iter().map(|(n, _, u)| (*n, *u)).collect();
    assert_eq!(names, expected);
    let json = report.json();
    for (name, unit) in expected {
        assert!(json.contains(&format!("\"{name}\": {{\"value\": ")), "{name} missing in {json}");
        assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{unit} missing in {json}");
    }
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for (name, w) in Workload::ALL {
        let report = tiny(w, false);
        assert_reports(&report, END_TO_END);
        let value = |n: &str| report.metrics.iter().find(|m| m.0 == n).map(|m| m.1).unwrap();
        for n in ["throughput_tps", "setup_s", "peak_rss_mb", "update_p50_us", "read_p50_us"] {
            assert!(value(n) > 0.0, "{name}: {n} is {}", value(n));
        }
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric() {
    for (name, w) in Workload::ALL {
        let report = tiny(w, true);
        assert_reports(&report, PER_LAYER);
        let value = |n: &str| report.metrics.iter().find(|m| m.0 == n).map(|m| m.1).unwrap();
        assert!(value("trace.sampled_txns") > 0.0, "{name}: nothing sampled");
        let layer_ok = match w {
            Workload::OeSkew => {
                value("kernel.self_us") > 0.0 && value("objstore.validate_us") > 0.0
            }
            Workload::SvcDurable => {
                value("service.queue_wait_p50_us") > 0.0
                    && value("wal.fsyncs_per_commit") > 0.0
                    && value("wal.checkpoints") > 0.0
            }
            Workload::FleetCross => {
                value("dist.cross_p50_us") > 0.0 && value("dist.decisions_retained") > 0.0
            }
        };
        assert!(layer_ok, "{name}: its own layer reads zero: {:#?}", report.metrics);
    }
}

/// `"name": "<n>"` occurrences of a JSON text, in order.
fn names(json: &str) -> Vec<&str> {
    json.split("\"name\":")
        .skip(1)
        .map(|rest| rest.trim_start().trim_start_matches('"').split('"').next().unwrap())
        .collect()
}

#[test]
fn benchmark_json_matches_the_binary() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let mut expected: Vec<&str> = Workload::ALL.iter().map(|(n, _)| *n).collect();
    expected.extend(END_TO_END.iter().map(|(n, _)| *n));
    expected.extend(PER_LAYER.iter().map(|(n, _)| *n));
    assert_eq!(names(&json), expected);
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = json.split(&format!("\"name\": \"{name}\"")).nth(1).unwrap();
        let unit_field = entry.split("\"unit\":").nth(1).unwrap().trim_start();
        assert!(unit_field.starts_with(&format!("\"{unit}\"")), "{name}: unit {unit_field:.20}");
    }
}

/// Negative control: one flipped byte in the surviving log must fail the
/// durability gate that the intact image passes.
#[test]
fn a_corrupted_log_fails_the_durability_gate() {
    let opts = Options {
        workload: Workload::SvcDurable,
        seed: 3,
        run: Duration::from_millis(200),
        trace: false,
        scale: Scale::Tiny,
    };
    let bench = SvcDurable::new(&opts);
    let sys = bench.build(None);
    let pass = bench.drive(&sys, &Timeline::start(Duration::ZERO, opts.run), None);
    assert!(pass.rec.attempted > 0);
    let (image, db) = sys.power_fail().unwrap();
    durability_gate(&image, bench.params(), &db.store, db.items_set).expect("intact image passes");

    let mut corrupt = image.clone();
    let seg = corrupt
        .segments
        .iter_mut()
        .filter(|s| s.bytes.len() > 64)
        .min_by_key(|s| s.seq)
        .expect("a segment with frames");
    let at = seg.bytes.len() / 3;
    seg.bytes[at] ^= 0x5a;
    let err = durability_gate(&corrupt, bench.params(), &db.store, db.items_set)
        .expect_err("a flipped byte must fail the gate");
    eprintln!("negative control failed the gate as it must: {err}");
}
