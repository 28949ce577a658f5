//! `steady trace` — capture a Perfetto-loadable lifecycle trace of a short
//! serving run.
//!
//! Runs the load generator against a service with per-query tracing enabled
//! and writes a Chrome trace-event JSON file: one track per worker thread
//! (per-stage spans — cache lookup, queue wait, flight, solve, publish), one
//! per caller thread that answered cache hits, and one per client thread.
//! Load the file at <https://ui.perfetto.dev> or `chrome://tracing`.
//!
//! `--metrics` / `--prometheus` additionally print the service's metrics
//! registry (latency histograms included) after the run, in the hand-rolled
//! JSON or the Prometheus text exposition.

use std::io::Write;

use steady_service::{chrome_trace_json, run_load, LoadConfig, Service, ServiceConfig};

use crate::args::{OptionSpec, ParsedArgs};
use crate::CliError;

const SPEC: OptionSpec = OptionSpec {
    valued: &["queries", "clients", "distinct", "workers", "seed", "out"],
    flags: &["metrics", "prometheus"],
};

/// Runs `steady trace ...`.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut parsed = ParsedArgs::parse(args, &SPEC)?;
    let load = LoadConfig {
        queries: parsed.usize_value("queries", 200)?,
        clients: parsed.usize_value("clients", 2)?,
        distinct: parsed.usize_value("distinct", 12)?,
        seed: parsed.u64_value("seed", 42)?,
    };
    let config =
        ServiceConfig { workers: parsed.usize_value("workers", 2)?, ..ServiceConfig::default() }
            .traced();
    let path = parsed.value("out").unwrap_or("trace.json").to_owned();
    let want_metrics = parsed.flag("metrics");
    let want_prometheus = parsed.flag("prometheus");

    let service = Service::start(config);
    let report = run_load(&service, &load)
        .map_err(|e| CliError::Failed(format!("trace load run failed: {e}")))?;

    let traces = service.drain_traces();
    let dropped = service.traces_dropped();
    std::fs::write(&path, chrome_trace_json(&traces, &report.client_spans))
        .map_err(|e| CliError::Failed(format!("cannot write trace to '{path}': {e}")))?;

    writeln!(out, "operation          : lifecycle trace capture")?;
    writeln!(
        out,
        "queries            : {} ({} distinct, {} clients)",
        report.queries, report.distinct, report.clients
    )?;
    writeln!(
        out,
        "trace              : {} query spans + {} client spans ({} dropped) -> {path}",
        traces.len(),
        report.client_spans.len(),
        dropped,
    )?;
    writeln!(out, "view               : load {path} at https://ui.perfetto.dev")?;
    if want_metrics {
        writeln!(out, "{}", service.metrics().to_json())?;
    }
    if want_prometheus {
        write!(out, "{}", service.metrics().to_prometheus())?;
    }
    Ok(())
}
