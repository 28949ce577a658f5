//! Runs the real binary in `--smoke` mode — two slices per workload, the same
//! checks, the same output — and holds `BENCHMARK.json`, the declarations in
//! `report.rs` and what the binary prints to one another.
//!
//! Run with `cargo test --release`: a debug build of the solver takes minutes
//! on the 200-node instances.

use std::collections::BTreeMap;
use std::process::Command;

use steady_perf::aa::manifest_path;
use steady_perf::json::Json;
use steady_perf::report::{END_TO_END, PER_LAYER};
use steady_perf::run::{DEFAULT_SECONDS, WORKLOADS};

fn manifest() -> Json {
    let text = std::fs::read_to_string(manifest_path()).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `name → unit` of the metrics listed under `key`.
fn declared(manifest: &Json, key: &str) -> BTreeMap<String, String> {
    let entries = manifest.get(key).expect("the key exists").items();
    let units: BTreeMap<String, String> = entries
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("a string field").to_owned();
            (field("name"), field("unit"))
        })
        .collect();
    assert_eq!(units.len(), entries.len(), "{key} declares a name twice");
    units
}

fn smoke(workload: &str, trace: &str) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_steady-perf"))
        .args(["--smoke", "--workload", workload, "--seed", "7", "--trace", trace])
        .output()
        .expect("the binary starts");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{workload} --trace {trace} failed: {stderr}");
    let stdout = String::from_utf8(output.stdout).expect("the output is UTF-8");
    Json::parse(stdout.lines().last().expect("a result line")).expect("the result line is JSON")
}

#[test]
fn manifest_and_source_declare_the_same_metrics() {
    let manifest = manifest();
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let in_source: BTreeMap<String, String> =
            table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(declared(&manifest, key), in_source, "{key} differs from report.rs");
    }
    let workloads: Vec<&str> = manifest
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("a workload name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(manifest.get("run_seconds").and_then(Json::as_f64), Some(DEFAULT_SECONDS));
}

#[test]
fn smoke_prints_every_declared_metric_once_with_its_unit() {
    let manifest = manifest();
    for workload in WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = smoke(workload, trace);
            let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0), "{workload}");
            assert!(result.get("attempted").and_then(Json::as_f64) >= Some(1.0), "{workload}");

            let metrics = result.get("metrics").expect("metrics").members();
            let printed: BTreeMap<String, String> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name} has a value");
                    (name.clone(), m.get("unit").and_then(Json::as_str).expect("a unit").to_owned())
                })
                .collect();
            // A repeated name would make the map shorter than the list.
            assert_eq!(printed.len(), metrics.len(), "{workload}: a metric is printed twice");
            assert_eq!(printed, declared(&manifest, key), "{workload} --trace {trace}");
        }
    }
}
