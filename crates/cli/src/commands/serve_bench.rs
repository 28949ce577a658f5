//! `steady serve-bench` — load-test the query-serving engine and report
//! sustained throughput, latency percentiles, cache behaviour and
//! warm-vs-cold solve costs.
//!
//! With `--baseline <file>` the run doubles as a CI regression gate: the
//! fresh report is compared against a committed previous `BENCH_service.json`
//! and the command fails when sustained queries/sec regresses by more than
//! 20%.  `--snapshot` / `--preload` exercise the cache's warm-set
//! persistence.  With `--trace <file>` the service runs with per-query
//! lifecycle tracing on and writes a Chrome trace-event JSON file (load it at
//! <https://ui.perfetto.dev>) with one track per worker and per client.

use std::io::Write;

use steady_service::{chrome_trace_json, run_load, LoadConfig, Service, ServiceConfig};

use crate::args::{OptionSpec, ParsedArgs};
use crate::CliError;

const SPEC: OptionSpec = OptionSpec {
    valued: &[
        "queries",
        "clients",
        "distinct",
        "workers",
        "cache-capacity",
        "shards",
        "seed",
        "out",
        "baseline",
        "snapshot",
        "preload",
        "trace",
    ],
    flags: &["schedules"],
};

/// Maximum tolerated relative drop in queries/sec against the baseline.
const MAX_QPS_REGRESSION: f64 = 0.20;

/// Extracts the numeric value of `"key":<number>` from a flat JSON object.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let start = text.find(&tag)? + tag.len();
    let rest = &text[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Runs `steady serve-bench ...`.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut parsed = ParsedArgs::parse(args, &SPEC)?;
    let load = LoadConfig {
        queries: parsed.usize_value("queries", 1000)?,
        clients: parsed.usize_value("clients", 4)?,
        distinct: parsed.usize_value("distinct", 24)?,
        seed: parsed.u64_value("seed", 42)?,
    };
    let mut config = ServiceConfig {
        workers: parsed.usize_value("workers", 4)?,
        build_schedules: parsed.flag("schedules"),
        ..ServiceConfig::default()
    };
    config.cache.capacity = parsed.usize_value("cache-capacity", config.cache.capacity)?;
    config.cache.shards = parsed.usize_value("shards", config.cache.shards)?;
    let json_path = parsed.value("out").map(str::to_owned);
    let baseline_path = parsed.value("baseline").map(str::to_owned);
    let snapshot_path = parsed.value("snapshot").map(str::to_owned);
    let preload_path = parsed.value("preload").map(str::to_owned);
    let trace_path = parsed.value("trace").map(str::to_owned);
    config.tracing = trace_path.is_some();

    let service = Service::start(config);
    if let Some(path) = &preload_path {
        let restored = service
            .preload(path)
            .map_err(|e| CliError::Failed(format!("preloading snapshot failed: {e}")))?;
        writeln!(out, "preloaded          : {restored} cache entries from {path}")?;
    }
    let report = run_load(&service, &load)
        .map_err(|e| CliError::Failed(format!("serve-bench load run failed: {e}")))?;

    writeln!(out, "operation          : service load benchmark")?;
    write!(out, "{}", report.render())?;
    if let Some(path) = &trace_path {
        let traces = service.drain_traces();
        let dropped = service.traces_dropped();
        std::fs::write(path, chrome_trace_json(&traces, &report.client_spans))
            .map_err(|e| CliError::Failed(format!("cannot write trace to '{path}': {e}")))?;
        writeln!(
            out,
            "trace              : {} query spans + {} client spans ({} dropped) -> {path}",
            traces.len(),
            report.client_spans.len(),
            dropped,
        )?;
    }
    if let Some(path) = &snapshot_path {
        let written = service
            .snapshot(path)
            .map_err(|e| CliError::Failed(format!("writing snapshot failed: {e}")))?;
        writeln!(out, "snapshot           : {written} cache entries written to {path}")?;
    }
    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json())
            .map_err(|e| CliError::Failed(format!("cannot write report to '{path}': {e}")))?;
        writeln!(out, "json report        : written to {path}")?;
    }
    if let Some(path) = baseline_path {
        check_against_baseline(&path, report.queries_per_second, report.p99_micros, out)?;
    }
    Ok(())
}

/// Compares this run against a previous `BENCH_service.json` and fails when
/// queries/sec regressed by more than 20% (p99 is reported for context, not
/// gated — it is too noisy on shared CI runners to fail a build on).
fn check_against_baseline(
    path: &str,
    qps: f64,
    p99_micros: f64,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Failed(format!("cannot read baseline '{path}': {e}")))?;
    let base_qps = json_number(&text, "queries_per_second")
        .ok_or_else(|| CliError::Failed(format!("baseline '{path}' has no queries_per_second")))?;
    let base_p99 = json_number(&text, "p99_micros").unwrap_or(0.0);
    let qps_delta = if base_qps > 0.0 { qps / base_qps - 1.0 } else { 0.0 };
    writeln!(
        out,
        "baseline           : {:.1} qps -> {:.1} qps ({:+.1}%), p99 {:.1} -> {:.1} µs",
        base_qps,
        qps,
        qps_delta * 100.0,
        base_p99,
        p99_micros,
    )?;
    if base_qps > 0.0 && qps < base_qps * (1.0 - MAX_QPS_REGRESSION) {
        return Err(CliError::Failed(format!(
            "queries/sec regressed {:.1}% against baseline '{path}' \
             ({qps:.1} vs {base_qps:.1}, tolerance {:.0}%)",
            -qps_delta * 100.0,
            MAX_QPS_REGRESSION * 100.0,
        )));
    }
    Ok(())
}
