//! `steady sched-bench` — run the same mixed demand+prefetch load on both
//! schedulers and gate the work-stealing executor against the
//! thread-per-worker baseline.
//!
//! The command replays one loadgen mix twice — once per [`SchedulerKind`] —
//! with a speculative prefetch plan scheduled up front so the priority
//! lanes actually compete, then:
//!
//! * **parity** (always on): re-serves every query of the mix on both
//!   services and fails unless every answer is `Ratio`-equal — the
//!   scheduler seam must never change what is computed;
//! * **p99 gate** (always on): fails when the work-stealing demand-**miss**
//!   p99 exceeds the thread-per-worker one by more than `--p99-margin`
//!   (default 1.25×).  Cache hits are answered on the caller's thread and
//!   never see a scheduler, so the gate reads the end-to-end latency of the
//!   queries that did: solved warm, solved cold, or coalesced onto a solve;
//! * **qps gate** (`--baseline <file>`): fails when work-stealing
//!   queries/sec regressed more than 20% against a committed
//!   `BENCH_sched.json`.
//!
//! With `--out <file>` the run writes `BENCH_sched.json` (`schema_version`
//! 1): a flat JSON object with per-scheduler throughput, end-to-end
//! percentiles (all queries, and misses alone), per-lane wait breakdowns,
//! and the scheduler's own steal / timeout / cancellation counters.

use std::fmt::Write as _;
use std::io::Write;
use std::time::Duration;

use steady_service::{
    query_mix, run_load, HistogramSnapshot, LoadConfig, LoadReport, MetricsSnapshot, PrefetchJob,
    SchedulerKind, Service, ServiceConfig, ServiceStats,
};

use super::serve_bench::json_number;
use crate::args::{OptionSpec, ParsedArgs};
use crate::CliError;

const SPEC: OptionSpec = OptionSpec {
    valued: &[
        "queries",
        "clients",
        "distinct",
        "workers",
        "prefetch",
        "seed",
        "out",
        "baseline",
        "p99-margin",
    ],
    flags: &[],
};

/// Maximum tolerated relative drop in work-stealing queries/sec against the
/// committed `BENCH_sched.json` baseline.
const MAX_QPS_REGRESSION: f64 = 0.20;

/// One scheduler's half of the benchmark.
struct SchedRun {
    kind: SchedulerKind,
    report: LoadReport,
    metrics: MetricsSnapshot,
    stats: ServiceStats,
    /// Exact served values (rendered rationals), in replay order — the
    /// parity fingerprint.
    answers: Vec<String>,
}

impl SchedRun {
    /// End-to-end latency of the run's demand queries that needed a worker
    /// (solved warm, solved cold or coalesced) — the only ones the scheduler
    /// under test ever touched.
    fn miss_latency(&self) -> HistogramSnapshot {
        let mut misses = HistogramSnapshot::empty();
        for name in ["e2e_solve_warm_nanos", "e2e_solve_cold_nanos", "e2e_coalesced_nanos"] {
            if let Some(h) = self.report.metrics.histogram(name) {
                misses.merge(h);
            }
        }
        misses
    }

    fn miss_p99_micros(&self) -> f64 {
        self.miss_latency().quantile(0.99) as f64 / 1_000.0
    }
}

/// Replays the mixed demand+prefetch load on one scheduler.
fn run_one(
    kind: SchedulerKind,
    workers: usize,
    load: &LoadConfig,
    prefetch: usize,
) -> Result<SchedRun, CliError> {
    let service =
        Service::start(ServiceConfig { workers, scheduler: kind, ..ServiceConfig::default() });
    // Speculative plan scheduled up front, so the prefetch lane competes
    // with demand for the whole replay instead of draining into idle air.
    let plan = query_mix(load.distinct.max(1), load.seed ^ 0x73_70_65_63);
    let jobs = plan
        .iter()
        .cycle()
        .take(prefetch)
        .map(|q| PrefetchJob { query: q.clone(), predicted_exit: false });
    service.schedule_prefetch(jobs);
    let report = run_load(&service, load)
        .map_err(|e| CliError::Failed(format!("sched-bench load run failed: {e}")))?;
    service.await_prefetch_idle(Duration::from_secs(60));
    // Parity fingerprint: serve the whole mix once more, sequentially, and
    // record the exact rational answers.
    let mut answers = Vec::new();
    for query in query_mix(load.distinct.max(1), load.seed) {
        let served = service
            .query(query)
            .map_err(|e| CliError::Failed(format!("parity replay failed on {kind:?}: {e:?}")))?;
        answers.push(served.answer.throughput.to_string());
    }
    let metrics = service.metrics();
    let stats = service.stats();
    Ok(SchedRun { kind, report, metrics, stats, answers })
}

/// Appends one scheduler's flat JSON fields under a `tpw_`/`ws_` prefix.
fn push_json(json: &mut String, prefix: &str, run: &SchedRun) {
    let misses = run.miss_latency();
    let _ = write!(
        json,
        "\"{prefix}_queries_per_second\":{:.3},\
         \"{prefix}_p50_micros\":{:.3},\
         \"{prefix}_p95_micros\":{:.3},\
         \"{prefix}_p99_micros\":{:.3},\
         \"{prefix}_misses\":{},\
         \"{prefix}_miss_p99_micros\":{:.3},\
         \"{prefix}_steals\":{},\
         \"{prefix}_demand_timeouts\":{},\
         \"{prefix}_prefetch_cancelled\":{},\
         \"{prefix}_prefetched\":{}",
        run.report.queries_per_second,
        run.report.p50_micros,
        run.report.p95_micros,
        run.report.p99_micros,
        misses.count(),
        misses.quantile(0.99) as f64 / 1_000.0,
        run.stats.steals,
        run.stats.demand_timeouts,
        run.stats.prefetch_cancelled,
        run.stats.prefetched,
    );
    for lane in ["demand", "revalidation", "prefetch"] {
        let name = format!("lane_{lane}_wait_nanos");
        let (count, p50, p99) = match run.metrics.histogram(&name) {
            Some(h) if h.count() > 0 => {
                (h.count(), h.quantile(0.50) as f64 / 1_000.0, h.quantile(0.99) as f64 / 1_000.0)
            }
            _ => (0, 0.0, 0.0),
        };
        let _ = write!(
            json,
            ",\"{prefix}_lane_{lane}_waits\":{count},\
             \"{prefix}_lane_{lane}_wait_p50_micros\":{p50:.3},\
             \"{prefix}_lane_{lane}_wait_p99_micros\":{p99:.3}"
        );
    }
}

/// Renders one scheduler's human-readable summary block.
fn render_run(out: &mut dyn Write, run: &SchedRun) -> Result<(), CliError> {
    writeln!(
        out,
        "{:>18} : {:.1} qps, p50/p95/p99 {:.1}/{:.1}/{:.1} µs, \
         {} steals, {} demand timeouts, {} prefetch cancelled",
        run.kind.name(),
        run.report.queries_per_second,
        run.report.p50_micros,
        run.report.p95_micros,
        run.report.p99_micros,
        run.stats.steals,
        run.stats.demand_timeouts,
        run.stats.prefetch_cancelled,
    )?;
    for lane in ["demand", "revalidation", "prefetch"] {
        let name = format!("lane_{lane}_wait_nanos");
        if let Some(h) = run.metrics.histogram(&name) {
            if h.count() > 0 {
                writeln!(
                    out,
                    "{:>18} : {} waits, p50 {:.1} µs, p99 {:.1} µs",
                    format!("lane {lane}"),
                    h.count(),
                    h.quantile(0.50) as f64 / 1_000.0,
                    h.quantile(0.99) as f64 / 1_000.0,
                )?;
            }
        }
    }
    Ok(())
}

/// Runs `steady sched-bench ...`.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut parsed = ParsedArgs::parse(args, &SPEC)?;
    let load = LoadConfig {
        queries: parsed.usize_value("queries", 600)?,
        clients: parsed.usize_value("clients", 4)?,
        distinct: parsed.usize_value("distinct", 24)?,
        seed: parsed.u64_value("seed", 42)?,
    };
    let workers = parsed.usize_value("workers", 4)?;
    let prefetch = parsed.usize_value("prefetch", 96)?;
    let p99_margin: f64 = match parsed.value("p99-margin") {
        None => 1.25,
        Some(raw) => raw.parse().map_err(|_| {
            CliError::Usage(format!("--p99-margin expects a factor like 1.25, got '{raw}'"))
        })?,
    };
    let json_path = parsed.value("out").map(str::to_owned);
    let baseline_path = parsed.value("baseline").map(str::to_owned);

    writeln!(out, "operation          : scheduler comparison benchmark")?;
    writeln!(
        out,
        "load               : {} queries, {} clients, {} distinct, {} prefetch jobs, {} workers",
        load.queries, load.clients, load.distinct, prefetch, workers,
    )?;

    let tpw = run_one(SchedulerKind::ThreadPerWorker, workers, &load, prefetch)?;
    let ws = run_one(SchedulerKind::WorkStealing, workers, &load, prefetch)?;
    render_run(out, &tpw)?;
    render_run(out, &ws)?;

    // Parity: the scheduler seam must never change a served value.
    if tpw.answers != ws.answers {
        let diverged =
            tpw.answers.iter().zip(ws.answers.iter()).position(|(a, b)| a != b).unwrap_or(0);
        return Err(CliError::Failed(format!(
            "scheduler parity violated: query {diverged} served '{}' under thread-per-worker \
             but '{}' under work-stealing",
            tpw.answers[diverged], ws.answers[diverged],
        )));
    }
    writeln!(out, "parity             : {} served values Ratio-equal across schedulers", {
        tpw.answers.len()
    })?;

    // Demand-miss p99 gate: work-stealing must not trade the latency of the
    // queries it actually schedules away (hits never reach a scheduler, and
    // at a ~99% hit ratio the all-queries p99 sits on the hit/miss cliff).
    let (tpw_p99, ws_p99) = (tpw.miss_p99_micros(), ws.miss_p99_micros());
    writeln!(
        out,
        "demand-miss p99    : {tpw_p99:.1} µs (tpw) vs {ws_p99:.1} µs (ws), margin {p99_margin}x",
    )?;
    if tpw_p99 > 0.0 && ws_p99 > tpw_p99 * p99_margin {
        return Err(CliError::Failed(format!(
            "work-stealing demand-miss p99 {ws_p99:.1} µs exceeds thread-per-worker \
             {tpw_p99:.1} µs by more than {p99_margin}x"
        )));
    }

    let mut json = String::from("{\"schema_version\":1,\"benchmark\":\"sched\",");
    let _ = write!(
        json,
        "\"queries\":{},\"clients\":{},\"distinct\":{},\"prefetch\":{},\"workers\":{},\"seed\":{},",
        load.queries, load.clients, load.distinct, prefetch, workers, load.seed,
    );
    push_json(&mut json, "tpw", &tpw);
    json.push(',');
    push_json(&mut json, "ws", &ws);
    json.push('}');
    if let Some(path) = &json_path {
        std::fs::write(path, &json)
            .map_err(|e| CliError::Failed(format!("cannot write report to '{path}': {e}")))?;
        writeln!(out, "json report        : written to {path}")?;
    }

    if let Some(path) = &baseline_path {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Failed(format!("cannot read baseline '{path}': {e}")))?;
        let base_qps = json_number(&text, "ws_queries_per_second").ok_or_else(|| {
            CliError::Failed(format!("baseline '{path}' has no ws_queries_per_second"))
        })?;
        let qps = ws.report.queries_per_second;
        let delta = if base_qps > 0.0 { qps / base_qps - 1.0 } else { 0.0 };
        writeln!(
            out,
            "baseline           : {base_qps:.1} qps -> {qps:.1} qps ({:+.1}%)",
            delta * 100.0,
        )?;
        if base_qps > 0.0 && qps < base_qps * (1.0 - MAX_QPS_REGRESSION) {
            return Err(CliError::Failed(format!(
                "work-stealing queries/sec regressed {:.1}% against baseline '{path}' \
                 ({qps:.1} vs {base_qps:.1}, tolerance {:.0}%)",
                -delta * 100.0,
                MAX_QPS_REGRESSION * 100.0,
            )));
        }
    }
    Ok(())
}
