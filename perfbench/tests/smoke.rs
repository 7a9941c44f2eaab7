//! Smoke-sized runs of every workload, untraced and traced, plus a check
//! that `BENCHMARK.json` declares exactly the metrics the code reports.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{run, Config, Outcome, WORKLOADS};

fn smoke(workload: &str, seed: u64, trace: bool) -> Outcome {
    let cfg = Config { workload: workload.into(), seed, seconds: 0.3, trace, smoke: true };
    let out = run(&cfg).unwrap_or_else(|e| panic!("{workload} (trace {trace}) failed: {e}"));
    assert!(out.ledger.problems.is_empty(), "{workload}: {:?}", out.ledger.problems);
    assert_eq!(out.ledger.failed, 0, "{workload}: failed operations");
    assert!(out.ledger.attempted > 0, "{workload}: nothing attempted");
    assert!(out.load_threads <= out.host.nproc && out.load_connections <= out.host.nproc);
    let table = if trace { PER_LAYER } else { END_TO_END };
    let metrics = out.metrics.select(table).unwrap_or_else(|e| panic!("{workload}: {e}"));
    for (name, _, value) in metrics {
        assert!(value > 0.0, "{workload}: {name} = {value}");
    }
    out
}

fn both(workload: &str) {
    smoke(workload, 7, false);
    smoke(workload, 7, true);
}

#[test]
fn head_inverse_smoke() {
    both("head_inverse");
}

#[test]
fn voxel_fast_smoke() {
    both("voxel_fast");
}

#[test]
fn cluster_grid_smoke() {
    both("cluster_grid");
}

#[test]
fn lumend_mix_smoke() {
    both("lumend_mix");
}

#[test]
fn the_seed_fixes_the_inputs() {
    let entries = |seed| {
        let out = smoke("head_inverse", seed, false);
        out.details.iter().find(|(k, _)| k == "archive_entries").map(|(_, v)| *v)
    };
    assert_eq!(entries(3), entries(3));
    assert!(entries(3).is_some());
}

#[test]
fn unknown_workloads_are_refused() {
    let cfg = Config { workload: "nope".into(), seed: 1, seconds: 0.1, trace: false, smoke: true };
    assert!(run(&cfg).is_err());
}

#[test]
fn benchmark_json_declares_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let declared = json.matches("\"name\":").count();
    assert_eq!(declared, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    for w in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w} not declared");
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "metric {name} ({unit}) not declared");
    }
}
