//! `steady obs-overhead` — measure (and gate) the cost of the observability
//! layer: per-query tracing, which includes recording the solver events of
//! every traced query's solve.
//!
//! Runs the same load twice per round — once with tracing off, once with it
//! on — against fresh services with identical seeds.  Each round's
//! back-to-back pair shares runner conditions, so its overhead ratio
//! `1 - on/off` cancels slow drift (CPU frequency scaling, co-tenant load)
//! that cross-round comparisons cannot; shared-runner noise landing inside
//! one run of a pair only ever distorts that pair, so the gate scores the
//! *least-inflated* pair — the minimum paired overhead across rounds.  A
//! genuinely expensive tracing path inflates every pair and still trips the
//! gate.  With `--max-overhead <fraction>` (CI default: `0.05`) the command
//! fails when tracing costs more than that fraction of throughput — the
//! "tracing is cheap enough to leave on" contract.
//!
//! `--out` writes a machine-readable `BENCH_obs.json`; `--trace-out` saves
//! the traced run's Perfetto file as a build artifact.

use std::io::Write;

use steady_service::{
    chrome_trace_json, run_load, LoadConfig, LoadReport, Service, ServiceConfig,
    METRICS_SCHEMA_VERSION,
};

use crate::args::{OptionSpec, ParsedArgs};
use crate::CliError;

const SPEC: OptionSpec = OptionSpec {
    valued: &[
        "queries",
        "clients",
        "distinct",
        "workers",
        "seed",
        "rounds",
        "max-overhead",
        "out",
        "trace-out",
    ],
    flags: &[],
};

/// Runs `steady obs-overhead ...`.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut parsed = ParsedArgs::parse(args, &SPEC)?;
    let load = LoadConfig {
        queries: parsed.usize_value("queries", 2000)?,
        clients: parsed.usize_value("clients", 4)?,
        distinct: parsed.usize_value("distinct", 24)?,
        seed: parsed.u64_value("seed", 42)?,
    };
    let workers = parsed.usize_value("workers", 4)?;
    let rounds = parsed.usize_value("rounds", 3)?.max(1);
    let max_overhead: Option<f64> = match parsed.value("max-overhead") {
        None => None,
        Some(raw) => Some(raw.parse::<f64>().map_err(|_| {
            CliError::Usage(format!("--max-overhead expects a fraction in [0, 1], got '{raw}'"))
        })?),
    };
    let json_path = parsed.value("out").map(str::to_owned);
    let trace_path = parsed.value("trace-out").map(str::to_owned);

    let run_once = |tracing: bool| -> Result<(LoadReport, Service), CliError> {
        let service =
            Service::start(ServiceConfig { workers, tracing, ..ServiceConfig::default() });
        let report = run_load(&service, &load)
            .map_err(|e| CliError::Failed(format!("obs-overhead load run failed: {e}")))?;
        Ok((report, service))
    };

    // One unmeasured warmup run soaks up first-touch costs (page-in, lazy
    // allocator growth) so they don't bias whichever mode runs first.
    run_once(false)?;

    let (mut best_off, mut best_on) = (0.0f64, 0.0f64);
    let mut overhead = f64::INFINITY;
    let mut last_traced: Option<(LoadReport, Service)> = None;
    for _ in 0..rounds {
        let (off, _) = run_once(false)?;
        best_off = best_off.max(off.queries_per_second);
        let (on, service) = run_once(true)?;
        best_on = best_on.max(on.queries_per_second);
        // Paired ratio: both runs of this round shared runner conditions.
        let paired = if off.queries_per_second > 0.0 {
            1.0 - on.queries_per_second / off.queries_per_second
        } else {
            0.0
        };
        overhead = overhead.min(paired);
        last_traced = Some((on, service));
    }
    // lint: allow(panics) — rounds >= 1, so a traced run always happened.
    let (traced_report, traced_service) = last_traced.expect("at least one round ran");
    let traces = traced_service.drain_traces();
    let dropped = traced_service.traces_dropped();

    writeln!(out, "operation          : tracing overhead gate")?;
    writeln!(
        out,
        "queries            : {} x {} rounds ({} clients, {} workers)",
        load.queries, rounds, load.clients, workers
    )?;
    writeln!(out, "qps (tracing off)  : {best_off:.1}")?;
    writeln!(out, "qps (tracing on)   : {best_on:.1}")?;
    writeln!(
        out,
        "overhead           : {:+.1}% (min paired over {} rounds; {} traces, {} dropped)",
        overhead * 100.0,
        rounds,
        traces.len(),
        dropped,
    )?;

    if let Some(path) = &trace_path {
        std::fs::write(path, chrome_trace_json(&traces, &traced_report.client_spans))
            .map_err(|e| CliError::Failed(format!("cannot write trace to '{path}': {e}")))?;
        writeln!(out, "trace              : written to {path}")?;
    }
    if let Some(path) = &json_path {
        let json = format!(
            concat!(
                "{{\"schema_version\":{},\"queries\":{},\"rounds\":{},",
                "\"clients\":{},\"workers\":{},",
                "\"qps_untraced\":{:.1},\"qps_traced\":{:.1},",
                "\"overhead_fraction\":{:.4},\"traces\":{},\"dropped\":{}}}"
            ),
            METRICS_SCHEMA_VERSION,
            load.queries,
            rounds,
            load.clients,
            workers,
            best_off,
            best_on,
            overhead,
            traces.len(),
            dropped,
        );
        std::fs::write(path, json)
            .map_err(|e| CliError::Failed(format!("cannot write report to '{path}': {e}")))?;
        writeln!(out, "json report        : written to {path}")?;
    }
    if let Some(max) = max_overhead {
        writeln!(out, "gate               : tracing must cost <= {:.1}% qps", max * 100.0)?;
        if overhead > max {
            return Err(CliError::Failed(format!(
                "tracing overhead {:.1}% exceeds the {:.1}% gate \
                 ({best_on:.1} qps traced vs {best_off:.1} untraced)",
                overhead * 100.0,
                max * 100.0,
            )));
        }
    }
    Ok(())
}
