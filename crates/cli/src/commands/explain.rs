//! `steady explain` — solve one clustered collective instance with full
//! solver instrumentation and print the annotated event timeline.
//!
//! Where `steady scaling-sweep` aggregates per-size totals, `explain` shows
//! *one* solve in the small: every phase transition, refactorization,
//! warm-start outcome and fallback, timestamped from the moment the solver
//! started, with consecutive pivots condensed into per-burst summaries
//! (pass `--pivots` to see each pivot individually).  The default instance
//! is the 200-node clustered scatter of the sweep's smallest size; like every
//! instance it runs on the revised sparse simplex and then the exact check,
//! so it exercises the full event taxonomy of [`steady_lp::SolveEvent`].  A
//! failed check prints its reason on the fallback line.

use std::io::Write;
use std::time::Instant;

use steady_core::{ReduceProblem, ScatterProblem, SteadyProblem};
use steady_lp::{
    Certificate, CertifyOptions, FallbackCause, PivotKind, PivotRule, RecordingObserver,
    SolveEvent, SolvePhase, SolveRecording, TimedEvent,
};
use steady_platform::generators::{
    clustered_reduce_instance, clustered_scatter_instance, ClusteredConfig,
};

use crate::args::{OptionSpec, ParsedArgs};
use crate::CliError;

const SPEC: OptionSpec = OptionSpec {
    valued: &["size", "targets", "participants", "seed"],
    flags: &["reduce", "pivots"],
};

/// Everything one explained solve produced.
struct Explained {
    nodes: usize,
    vars: usize,
    constraints: usize,
    solve_ms: f64,
    iterations: usize,
    certificate: &'static str,
    throughput: String,
    recording: SolveRecording,
}

/// Runs `steady explain ...`.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut parsed = ParsedArgs::parse(args, &SPEC)?;
    let size = parsed.usize_value("size", 200)?.max(2);
    let targets = parsed.usize_value("targets", 8)?.max(1);
    let participants = parsed.usize_value("participants", 4)?.max(2);
    let seed = parsed.u64_value("seed", 42)?;
    let reduce = parsed.flag("reduce");
    let show_pivots = parsed.flag("pivots");

    let options = CertifyOptions::default();

    let config = ClusteredConfig::with_total_nodes(size);
    let explained = if reduce {
        let instance = clustered_reduce_instance(&config, participants, seed);
        let nodes = instance.platform.num_nodes();
        let problem = ReduceProblem::from_instance(instance)
            .map_err(|e| CliError::Failed(format!("bad reduce instance: {e}")))?;
        explain_one(nodes, &problem, &options, |s| s.throughput().to_string())?
    } else {
        let instance = clustered_scatter_instance(&config, targets, seed);
        let nodes = instance.platform.num_nodes();
        let problem = ScatterProblem::from_instance(instance)
            .map_err(|e| CliError::Failed(format!("bad scatter instance: {e}")))?;
        explain_one(nodes, &problem, &options, |s| s.throughput().to_string())?
    };

    let collective = if reduce { "reduce" } else { "scatter" };
    writeln!(out, "operation          : annotated solve timeline ({collective})")?;
    writeln!(
        out,
        "instance           : {} nodes (requested {size}), seed {seed}",
        explained.nodes
    )?;
    writeln!(out, "lp                 : {} vars x {} rows", explained.vars, explained.constraints)?;
    writeln!(
        out,
        "solve              : {:.3} ms, {} pivots, certificate {}",
        explained.solve_ms, explained.iterations, explained.certificate
    )?;
    writeln!(out, "throughput         : {}", explained.throughput)?;

    let health = &explained.recording.health;
    writeln!(
        out,
        "health             : {} pivots ({} degenerate, {} bland, {} dual), \
         {} refactorizations, peak eta {} ({} nnz)",
        health.pivots,
        health.degenerate_pivots,
        health.bland_pivots,
        health.dual_pivots,
        health.refactorizations,
        health.peak_eta,
        health.peak_eta_nnz,
    )?;
    let breakdown = explained.recording.breakdown();
    writeln!(
        out,
        "breakdown          : install {:.3} ms, phase1 {:.3} ms, phase2 {:.3} ms, \
         dual {:.3} ms, certify {:.3} ms (refactor {:.3} ms, counted in-phase)",
        ms(breakdown.install_nanos),
        ms(breakdown.phase1_nanos),
        ms(breakdown.phase2_nanos),
        ms(breakdown.dual_nanos),
        ms(breakdown.certify_nanos),
        ms(breakdown.refactor_nanos),
    )?;

    writeln!(out, "timeline           :")?;
    write_timeline(out, &explained.recording.events, show_pivots)?;
    if explained.recording.truncated > 0 {
        writeln!(
            out,
            "  (+{} events beyond recording capacity, counted in health)",
            explained.recording.truncated
        )?;
    }
    Ok(())
}

/// Formulates, solves (observed) and interprets one collective problem.
fn explain_one<P: SteadyProblem>(
    nodes: usize,
    problem: &P,
    options: &CertifyOptions,
    throughput: impl Fn(&P::Solution) -> String,
) -> Result<Explained, CliError> {
    let (lp, vars) = problem.formulate();
    let mut recorder = RecordingObserver::unbounded();
    let start = Instant::now();
    let sol = steady_lp::solve_certified_warm_observed(&lp, options, None, &mut recorder)
        .map_err(|e| CliError::Failed(format!("solve failed: {e}")))?;
    let solve_ms = start.elapsed().as_secs_f64() * 1e3;
    let solution = problem.interpret(&vars, &sol.values);
    Ok(Explained {
        nodes,
        vars: lp.num_vars(),
        constraints: lp.num_constraints(),
        solve_ms,
        iterations: sol.iterations,
        certificate: match sol.certificate {
            Certificate::Optimal => "optimal",
            Certificate::ExactSimplex => "exact-simplex",
        },
        throughput: throughput(&solution),
        recording: recorder.finish(),
    })
}

/// Nanoseconds to fractional milliseconds.
fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// Writes the annotated timeline.  Unless `show_pivots` is set, consecutive
/// pivot (and eta-append) events are condensed into one summary line per
/// burst — the interesting structure is the markers *between* bursts.
fn write_timeline(
    out: &mut dyn Write,
    events: &[TimedEvent],
    show_pivots: bool,
) -> Result<(), CliError> {
    let mut i = 0;
    while i < events.len() {
        let e = &events[i];
        if !show_pivots && condensable(&e.event) {
            let start_ns = e.at_nanos;
            let mut last_ns = start_ns;
            let (mut pivots, mut degenerate, mut bland, mut dual) =
                (0usize, 0usize, 0usize, 0usize);
            let mut last_eta: Option<(usize, usize)> = None;
            while i < events.len() && condensable(&events[i].event) {
                match &events[i].event {
                    SolveEvent::Pivot { rule, kind, degenerate: d, .. } => {
                        pivots += 1;
                        if *d {
                            degenerate += 1;
                        }
                        if *rule == PivotRule::Bland {
                            bland += 1;
                        }
                        if *kind == PivotKind::Dual {
                            dual += 1;
                        }
                    }
                    SolveEvent::EtaAppended { etas, eta_nnz } => last_eta = Some((*etas, *eta_nnz)),
                    _ => unreachable!("condensable() admits only pivot/eta events"),
                }
                last_ns = events[i].at_nanos;
                i += 1;
            }
            let eta_note = match last_eta {
                Some((etas, nnz)) => format!(", eta file at {etas} ({nnz} nnz)"),
                None => String::new(),
            };
            writeln!(
                out,
                "  +{:>10.3} ms  {pivots} pivots over {:.3} ms \
                 ({degenerate} degenerate, {bland} bland, {dual} dual{eta_note})",
                ms(start_ns),
                ms(last_ns.saturating_sub(start_ns)),
            )?;
            continue;
        }
        writeln!(out, "  +{:>10.3} ms  {}", ms(e.at_nanos), label(&e.event))?;
        i += 1;
    }
    Ok(())
}

/// Whether an event belongs inside a condensed pivot burst.
fn condensable(event: &SolveEvent) -> bool {
    matches!(event, SolveEvent::Pivot { .. } | SolveEvent::EtaAppended { .. })
}

/// One human-readable line for a timeline event.
fn label(event: &SolveEvent) -> String {
    match event {
        SolveEvent::RunStarted => "run started".to_string(),
        SolveEvent::PhaseStarted { phase } => format!("{} began", phase_label(phase)),
        SolveEvent::Pivot { phase, kind, rule, entering, leaving, degenerate } => format!(
            "pivot in {} ({} ratio test, {} rule): column {entering} enters, {leaving} leaves{}",
            phase_label(phase),
            match kind {
                PivotKind::Primal => "primal",
                PivotKind::Dual => "dual",
            },
            match rule {
                PivotRule::Dantzig => "dantzig",
                PivotRule::Bland => "bland",
            },
            if *degenerate { " [degenerate]" } else { "" },
        ),
        SolveEvent::EtaAppended { etas, eta_nnz } => {
            format!("eta appended (file at {etas}, {eta_nnz} nnz)")
        }
        SolveEvent::RefactorStarted { reason, etas, eta_nnz } => {
            format!("refactorization started ({}; {etas} etas, {eta_nnz} nnz)", reason.name())
        }
        SolveEvent::RefactorFinished { lu_nnz, dim } => {
            format!("refactorization finished (LU {lu_nnz} nnz over dimension {dim})")
        }
        SolveEvent::WarmStart { outcome } => format!("warm start: {}", outcome.name()),
        SolveEvent::CrashStart { open_rows, covered } => {
            format!("crash basis: {covered} of {open_rows} zero-rhs artificial rows covered")
        }
        SolveEvent::CertifyStarted => "exact check of the float answer started".to_string(),
        SolveEvent::Fallback { cause: FallbackCause::CertificationFailed { reason } } => {
            format!("fell back to the exact simplex (certification-failed: {reason})")
        }
        SolveEvent::Fallback { cause } => {
            format!("fell back to the exact simplex ({})", cause.kind_name())
        }
    }
}

/// Phase names spelled out for prose.
fn phase_label(phase: &SolvePhase) -> &'static str {
    match phase {
        SolvePhase::Phase1 => "phase 1 (feasibility search)",
        SolvePhase::Phase2 => "phase 2 (optimization)",
        SolvePhase::DualRepair => "dual repair",
    }
}
