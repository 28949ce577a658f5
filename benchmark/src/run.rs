//! One benchmark run: set up, measure, check, report.

use std::path::PathBuf;
use std::time::Instant;

use crate::estimator::{self, Recorder};
use crate::inputs::{input_digest, PINNED_SEED, SEED_42_DIGESTS};
use crate::spans::Spans;
use crate::workloads::{ColdSolve, Counts, DriftServe, HitServe, ScaleSolve, Size, Workload};
use crate::{alloc, host, layers, report};

/// The workload names `--workload` takes.
pub const WORKLOADS: [&str; 4] =
    [HitServe::NAME, DriftServe::NAME, ColdSolve::NAME, ScaleSolve::NAME];

/// Seconds a run measures when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// From-scratch set-ups per run; `setup_s` is the fastest and the last one's
/// state is measured.
const SET_UPS: usize = 5;

/// Spans the traced workload pass may keep; the layer replay needs the rest
/// of the recorder's capacity.
const PASS_SPANS: usize = 160_000;
const REPLAY_SPANS: usize = 96_000;

/// What `--workload W --seed S --seconds N --trace T [--smoke]` asked for.
#[derive(Debug, Clone)]
pub struct Options {
    /// `--workload`
    pub workload: String,
    /// `--seed`
    pub seed: u64,
    /// `--seconds`
    pub seconds: f64,
    /// `--trace 1`
    pub trace: bool,
    /// `--smoke`
    pub smoke: bool,
}

/// Where the benchmark writes: `benchmark/out/`, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The measured phase of one pass over a workload.
struct Pass {
    rec: Recorder,
    setup_s: f64,
    counts: Counts,
    steal_fraction: f64,
    /// `(allocations, bytes)` inside the slices; zero unless traced.
    allocated: (u64, u64),
}

/// Sets the workload up `set_ups` times from scratch, then runs the warm-up
/// slice and the timed slices on the last set-up's state.
fn pass<W: Workload>(
    seed: u64,
    size: &Size,
    set_ups: usize,
    spans: Option<Spans>,
) -> Result<Pass, String> {
    let traced = spans.is_some();
    let (slices, ops_per_slice) = W::shape(size);
    let mut rec = Recorder::new(slices, ops_per_slice, W::OP_SPAN);
    let mut fastest = f64::INFINITY;
    let mut workload = None;
    for _ in 0..set_ups {
        // The previous set-up's threads are joined before the next one starts.
        drop(workload.take());
        let start = Instant::now();
        workload = Some(W::set_up(seed, size, traced));
        fastest = fastest.min(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");
    workload.prepare_checks();
    workload.run_slice(0, &mut rec);
    rec.reset();

    rec.spans = spans;
    let allocated_before = alloc::totals();
    let steal = host::StealMeter::start();
    for slice in 1..=slices {
        workload.run_slice(slice, &mut rec);
    }
    let steal_fraction = steal.fraction();
    let allocated_after = alloc::totals();
    let counts = workload.finish(&mut rec);
    Ok(Pass {
        rec,
        setup_s: fastest,
        counts,
        steal_fraction,
        allocated: (allocated_after.0 - allocated_before.0, allocated_after.1 - allocated_before.1),
    })
}

fn ops_per_s(rec: &Recorder) -> f64 {
    rec.ops_per_slice() / (rec.quiet_of(|s| s.wall_ns) / 1e9)
}

/// Refuses a pinned-seed run whose generated inputs are not the pinned ones.
fn check_digest(workload: &str, seed: u64, digest: u64) -> Result<(), String> {
    if seed != PINNED_SEED {
        return Ok(());
    }
    let pinned = SEED_42_DIGESTS.iter().find(|(name, _)| *name == workload).map(|(_, d)| *d);
    if pinned == Some(digest) {
        Ok(())
    } else {
        Err(format!(
            "input digest of {workload} for seed {seed} is {digest:#018x}, pinned {:#018x}: a \
             generator or the drift walk changed, so the load is no longer the recorded one",
            pinned.unwrap_or(0)
        ))
    }
}

fn run<W: Workload>(options: &Options) -> Result<String, String> {
    let size = Size { seconds: options.seconds, smoke: options.smoke, fifth: options.trace };
    let digest = input_digest(W::NAME, options.seed);
    check_digest(W::NAME, options.seed, digest)?;
    let pinned = host::pin_to_current_cpu().map_or("none".to_owned(), |cpu| cpu.to_string());
    let mut calib = Vec::new();
    host::calibrate(&mut calib);

    let (declared, values, measured, diagnostics) = if options.trace {
        // Untraced first, then the same pass with tracing, solver events,
        // per-op spans and the counting allocator on: the ratio of the two
        // rates is what the instruments cost.
        let plain = pass::<W>(options.seed, &size, 1, None)?;
        let spans = Spans::with_capacity(PASS_SPANS + REPLAY_SPANS, PASS_SPANS);
        let mut traced = pass::<W>(options.seed, &size, 1, Some(spans))?;
        let mut spans = traced.rec.spans.take().expect("the traced pass keeps its spans");
        spans.lift_limit();
        let mut values = layers::replay(options.seed, &size, &mut spans, &out_dir())?;
        host::calibrate(&mut calib);
        let ops = traced.rec.attempted as f64;
        values.push((
            "service.trace_overhead_fraction",
            1.0 - ops_per_s(&traced.rec) / ops_per_s(&plain.rec),
        ));
        values.push(("alloc.count_per_op", traced.allocated.0 as f64 / ops));
        values.push(("alloc.bytes_per_op", traced.allocated.1 as f64 / ops));
        values.push(("host.calib_ms", estimator::quiet(&calib)));
        values.push(("host.steal_fraction", traced.steal_fraction));
        let path = out_dir().join(format!("trace-{}.json", W::NAME));
        spans
            .write_json(&path, W::NAME, options.seed)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        traced.rec.failed += plain.rec.failed;
        traced.rec.attempted += plain.rec.attempted;
        let diagnostics = format!("spans_dropped={} trace={}", spans.dropped(), path.display());
        (report::PER_LAYER, values, traced, diagnostics)
    } else {
        let measured = pass::<W>(options.seed, &size, SET_UPS, None)?;
        host::calibrate(&mut calib);
        let rec = &measured.rec;
        let per_op = rec.ops_per_slice();
        let values = vec![
            ("setup_s", measured.setup_s),
            ("ops_per_s", ops_per_s(rec)),
            ("latency_p50_us", rec.quiet_of(|s| s.p50_ns) / 1e3),
            ("latency_p90_us", rec.quiet_of(|s| s.p90_ns) / 1e3),
            ("cpu_us_per_op", rec.quiet_of(|s| s.cpu_ns) / per_op / 1e3),
            ("peak_rss_mb", host::peak_rss_mb()),
        ];
        // The whole-run estimators the quiet decile replaces, for comparison.
        let whole_run_ops_per_s =
            rec.attempted as f64 / (rec.slices.iter().map(|s| s.wall_ns).sum::<f64>() / 1e9);
        let median_p50_us =
            estimator::quantile(&rec.slices.iter().map(|s| s.p50_ns).collect::<Vec<_>>(), 0.5)
                / 1e3;
        let diagnostics = format!(
            "slices={} ops_per_slice={per_op} latency_p99_us={:.3} whole_run.ops_per_s={:.3} \
             whole_run.latency_p50_us={:.3} host.calib_ms={:.4} host.steal_fraction={:.5}",
            rec.slices.len(),
            rec.quiet_of(|s| s.p99_ns) / 1e3,
            whole_run_ops_per_s,
            median_p50_us,
            estimator::quiet(&calib),
            measured.steal_fraction,
        );
        (report::END_TO_END, values, measured, diagnostics)
    };

    if !options.trace && !options.smoke {
        let value = |name: &str| values.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
        W::check_latencies(value("latency_p50_us"), value("latency_p90_us"))?;
    }

    let mut out =
        format!("steady-perf {} seed={} digest={:#018x}\n", W::NAME, options.seed, digest);
    out.push_str(&report::table(declared, &values));
    out.push_str(&format!("diagnostics pinned_cpu={pinned} {diagnostics}\n"));
    // Counters a rerun with the same seed and size must reproduce exactly.
    let counts: Vec<String> = std::iter::once(("ops", measured.rec.attempted))
        .chain(measured.counts.iter().map(|(k, v)| (*k, *v)))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    out.push_str(&format!("counts {}\n", counts.join(" ")));
    out.push_str(&report::result_line(
        measured.rec.attempted,
        measured.rec.failed,
        declared,
        &values,
    ));
    out.push('\n');
    if measured.rec.failed > 0 {
        // The result line still goes out (with "correct": false) before the
        // non-zero exit, so a caller sees how many operations failed.
        print!("{out}");
        return Err(format!(
            "{} of {} operations failed",
            measured.rec.failed, measured.rec.attempted
        ));
    }
    Ok(out)
}

/// Runs the workload `options` names and returns what to print.
pub fn run_named(options: &Options) -> Result<String, String> {
    match options.workload.as_str() {
        HitServe::NAME => run::<HitServe>(options),
        DriftServe::NAME => run::<DriftServe>(options),
        ColdSolve::NAME => run::<ColdSolve>(options),
        ScaleSolve::NAME => run::<ScaleSolve>(options),
        other => Err(format!("unknown workload '{other}' (expected one of {WORKLOADS:?})")),
    }
}
