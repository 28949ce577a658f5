//! `steady scaling-sweep` — solve clustered scatter (or reduce) LPs at
//! increasing platform sizes and report per-size solver cost.
//!
//! For every requested size a clustered platform
//! ([`steady_platform::generators::clustered`]) is generated, the collective
//! LP is formulated and solved through the certified pipeline with a
//! recording observer tap ([`steady_lp::solve_certified_warm_observed`]) so
//! each size also reports where its wall time went — install, per-phase and
//! certify milliseconds, refactorization time, degenerate/Bland pivot counts and
//! peak eta-file length — and the answer is verified against the
//! collective's own invariants.  Every size takes the pipeline's one route
//! (revised `f64` simplex, then the exact check), so this is the end-to-end
//! exercise of that route at scale: per-size wall-clock time, pivots, basis
//! refactorizations and the certificate show how it scales, and whether the
//! exact check still accepts the float answer there.
//!
//! `--out` writes a machine-readable `BENCH_scaling.json`; with
//! `--budget-ms <N>` the run doubles as a CI gate that fails when any
//! single size's solve exceeds the budget.

use std::io::Write;
use std::time::{Duration, Instant};

use steady_core::{ReduceProblem, ScatterProblem, SteadyProblem};
use steady_lp::{Certificate, CertifyOptions, RecordingObserver};
use steady_platform::generators::{
    clustered_reduce_instance, clustered_scatter_instance, ClusteredConfig,
};

use crate::args::{OptionSpec, ParsedArgs};
use crate::CliError;

const SPEC: OptionSpec = OptionSpec {
    valued: &["sizes", "targets", "participants", "seed", "out", "budget-ms"],
    flags: &["reduce", "no-verify"],
};

/// What one size of the sweep cost and produced.
struct SizeRecord {
    requested: usize,
    nodes: usize,
    vars: usize,
    constraints: usize,
    solve: Duration,
    pivots: usize,
    phase1_pivots: usize,
    refactorizations: usize,
    certificate: &'static str,
    throughput: String,
    // Per-solve breakdown from the solver event stream (schema v4).
    install_ms: f64,
    phase1_ms: f64,
    phase2_ms: f64,
    dual_ms: f64,
    certify_ms: f64,
    refactor_ms: f64,
    degenerate_pivots: usize,
    bland_pivots: usize,
    peak_eta: usize,
}

/// Runs `steady scaling-sweep ...`.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut parsed = ParsedArgs::parse(args, &SPEC)?;
    let sizes = parse_sizes(parsed.value("sizes").unwrap_or("200,500,1000"))?;
    let targets = parsed.usize_value("targets", 8)?.max(1);
    // The reduce LP carries one variable per (interval, edge) pair and the
    // interval count is quadratic in the participant count, so the default
    // stays small — raise it deliberately, with a matching budget.
    let participants = parsed.usize_value("participants", 4)?.max(2);
    let seed = parsed.u64_value("seed", 42)?;
    let reduce = parsed.flag("reduce");
    let verify = !parsed.flag("no-verify");
    let json_path = parsed.value("out").map(str::to_owned);
    let budget_ms: Option<u64> = match parsed.value("budget-ms") {
        None => None,
        Some(raw) => Some(raw.parse().map_err(|_| {
            CliError::Usage(format!("--budget-ms expects milliseconds, got '{raw}'"))
        })?),
    };

    let options = CertifyOptions::default();

    let collective = if reduce { "reduce" } else { "scatter" };
    writeln!(out, "operation          : solver scaling sweep ({collective})")?;
    if reduce {
        writeln!(out, "participants       : {participants} (spread across clusters)")?;
    } else {
        writeln!(out, "targets            : {targets} (spread across clusters)")?;
    }

    let mut records = Vec::with_capacity(sizes.len());
    for &size in &sizes {
        let config = ClusteredConfig::with_total_nodes(size);
        let record = if reduce {
            let instance = clustered_reduce_instance(&config, participants, seed);
            let nodes = instance.platform.num_nodes();
            let problem = ReduceProblem::from_instance(instance)
                .map_err(|e| CliError::Failed(format!("size {size}: bad reduce instance: {e}")))?;
            solve_one(size, nodes, &problem, &options, verify, |s, p| {
                s.verify(p).map(|()| s.throughput().to_string())
            })?
        } else {
            let instance = clustered_scatter_instance(&config, targets, seed);
            let nodes = instance.platform.num_nodes();
            let problem = ScatterProblem::from_instance(instance)
                .map_err(|e| CliError::Failed(format!("size {size}: bad scatter instance: {e}")))?;
            solve_one(size, nodes, &problem, &options, verify, |s, p| {
                s.verify(p).map(|()| s.throughput().to_string())
            })?
        };
        writeln!(
            out,
            "size {:>5}         : {} nodes, {} vars x {} rows, {} ms, {} pivots \
             ({} phase 1), {} refactorizations, certificate {}",
            record.requested,
            record.nodes,
            record.vars,
            record.constraints,
            record.solve.as_millis(),
            record.pivots,
            record.phase1_pivots,
            record.refactorizations,
            record.certificate,
        )?;
        writeln!(
            out,
            "                     breakdown: install {:.1} ms, phase1 {:.1} ms, phase2 {:.1} ms, \
             dual {:.1} ms, certify {:.1} ms (refactor {:.1} ms), {} degenerate, {} bland, \
             peak eta {}",
            record.install_ms,
            record.phase1_ms,
            record.phase2_ms,
            record.dual_ms,
            record.certify_ms,
            record.refactor_ms,
            record.degenerate_pivots,
            record.bland_pivots,
            record.peak_eta,
        )?;
        records.push(record);
    }

    if let Some(path) = &json_path {
        std::fs::write(path, render_json(collective, targets, participants, seed, &records))
            .map_err(|e| CliError::Failed(format!("cannot write report to '{path}': {e}")))?;
        writeln!(out, "json report        : written to {path}")?;
    }
    if let Some(budget) = budget_ms {
        writeln!(out, "gate               : every solve must finish within {budget} ms")?;
        for r in &records {
            // Compared unrounded: a sub-millisecond solve still exceeds a
            // zero budget.
            if r.solve > Duration::from_millis(budget) {
                return Err(CliError::Failed(format!(
                    "size {} took {:.3} ms, over the {} ms budget ({} pivots, certificate {})",
                    r.requested,
                    r.solve.as_secs_f64() * 1e3,
                    budget,
                    r.pivots,
                    r.certificate,
                )));
            }
        }
    }
    Ok(())
}

/// Formulates, solves, verifies and measures one collective problem.
fn solve_one<P: SteadyProblem>(
    requested: usize,
    nodes: usize,
    problem: &P,
    options: &CertifyOptions,
    verify: bool,
    check: impl Fn(&P::Solution, &P) -> Result<String, String>,
) -> Result<SizeRecord, CliError> {
    let (lp, vars) = problem.formulate();
    let mut recorder = RecordingObserver::unbounded();
    let start = Instant::now();
    let sol = steady_lp::solve_certified_warm_observed(&lp, options, None, &mut recorder)
        .map_err(|e| CliError::Failed(format!("size {requested}: solve failed: {e}")))?;
    let elapsed = start.elapsed();
    let recording = recorder.finish();
    let breakdown = recording.breakdown();
    // Self-consistency of the event stream: the install, phase and certify
    // buckets are carved out of the measured solve, so their sum can never
    // exceed it.
    if breakdown.phase_total_nanos() > elapsed.as_nanos() as u64 {
        return Err(CliError::Failed(format!(
            "size {requested}: phase breakdown ({} ns) exceeds the measured solve \
             ({} ns) — the solver event stream is inconsistent",
            breakdown.phase_total_nanos(),
            elapsed.as_nanos(),
        )));
    }
    let solution = problem.interpret(&vars, &sol.values);
    let throughput = if verify {
        check(&solution, problem)
            .map_err(|e| CliError::Failed(format!("size {requested}: verification failed: {e}")))?
    } else {
        check(&solution, problem).unwrap_or_default()
    };
    Ok(SizeRecord {
        requested,
        nodes,
        vars: lp.num_vars(),
        constraints: lp.num_constraints(),
        solve: elapsed,
        pivots: sol.iterations,
        phase1_pivots: sol.phase1_iterations,
        refactorizations: sol.refactorizations,
        certificate: match sol.certificate {
            Certificate::Optimal => "optimal",
            Certificate::ExactSimplex => "exact-simplex",
        },
        throughput,
        install_ms: breakdown.install_nanos as f64 / 1e6,
        phase1_ms: breakdown.phase1_nanos as f64 / 1e6,
        phase2_ms: breakdown.phase2_nanos as f64 / 1e6,
        dual_ms: breakdown.dual_nanos as f64 / 1e6,
        certify_ms: breakdown.certify_nanos as f64 / 1e6,
        refactor_ms: breakdown.refactor_nanos as f64 / 1e6,
        degenerate_pivots: recording.health.degenerate_pivots,
        bland_pivots: recording.health.bland_pivots,
        peak_eta: recording.health.peak_eta,
    })
}

/// Parses `200,500,1000` into a size list.
fn parse_sizes(raw: &str) -> Result<Vec<usize>, CliError> {
    let sizes: Vec<usize> = raw
        .split(',')
        .filter(|part| !part.trim().is_empty())
        .map(|part| {
            part.trim()
                .parse()
                .map_err(|_| CliError::Usage(format!("'{part}' is not a platform size")))
        })
        .collect::<Result<_, _>>()?;
    if sizes.is_empty() {
        return Err(CliError::Usage("--sizes expects at least one platform size".into()));
    }
    Ok(sizes)
}

/// Renders the machine-readable `BENCH_scaling.json` artifact.
fn render_json(
    collective: &str,
    targets: usize,
    participants: usize,
    seed: u64,
    records: &[SizeRecord],
) -> String {
    let mut json = format!(
        "{{\"schema_version\":4,\"collective\":\"{collective}\",\
         \"targets\":{targets},\"participants\":{participants},\"seed\":{seed},\"sizes\":["
    );
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"requested\":{},\"nodes\":{},\"vars\":{},\"constraints\":{},\
             \"solve_ms\":{},\"pivots\":{},\"phase1_pivots\":{},\
             \"refactorizations\":{},\"certificate\":\"{}\",\
             \"throughput\":\"{}\",\"install_ms\":{:.3},\
             \"phase1_ms\":{:.3},\"phase2_ms\":{:.3},\"dual_ms\":{:.3},\
             \"certify_ms\":{:.3},\"refactor_ms\":{:.3},\"degenerate_pivots\":{},\
             \"bland_pivots\":{},\"peak_eta\":{}}}",
            r.requested,
            r.nodes,
            r.vars,
            r.constraints,
            r.solve.as_millis(),
            r.pivots,
            r.phase1_pivots,
            r.refactorizations,
            r.certificate,
            r.throughput,
            r.install_ms,
            r.phase1_ms,
            r.phase2_ms,
            r.dual_ms,
            r.certify_ms,
            r.refactor_ms,
            r.degenerate_pivots,
            r.bland_pivots,
            r.peak_eta,
        ));
    }
    json.push_str("]}");
    json
}
