//! `steady solve <operation>` — throughput, schedules and trees on a platform file.

use std::io::Write;

use steady_core::prefix::PrefixProblem;
use steady_core::reduce::ReduceProblem;
use steady_core::schedule::PeriodicSchedule;
use steady_core::{GatherProblem, GossipProblem, ScatterProblem};
use steady_platform::Platform;
use steady_rational::rat;

use crate::args::{OptionSpec, ParsedArgs};
use crate::CliError;

use super::load_platform;

const SPEC: OptionSpec = OptionSpec {
    valued: &[
        "platform",
        "source",
        "targets",
        "sources",
        "sink",
        "participants",
        "target",
        "size",
        "task-cost",
    ],
    flags: &["schedule", "trees", "verify"],
};

/// Maps any displayable solver error into [`CliError::Failed`] with a
/// `"<what>: <cause>"` message — the one error-mapping idiom every
/// per-collective handler shares.
fn failed<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> CliError {
    move |e| CliError::Failed(format!("{what}: {e}"))
}

/// Validates `schedule` against `platform` and writes its rendering —
/// the shared tail of every `--schedule` path.
fn emit_schedule(
    out: &mut dyn Write,
    platform: &Platform,
    schedule: &PeriodicSchedule,
) -> Result<(), CliError> {
    schedule.validate(platform).map_err(failed("schedule validation failed"))?;
    writeln!(out, "--- periodic schedule ---")?;
    write!(out, "{}", schedule.render(platform))?;
    Ok(())
}

/// Runs `steady solve ...`.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut parsed = ParsedArgs::parse(args, &SPEC)?;
    let Some(operation) = parsed.positional().first().cloned() else {
        return Err(CliError::Usage(
            "solve needs an operation: scatter, gather, gossip, reduce or prefix".into(),
        ));
    };
    match operation.as_str() {
        "scatter" => scatter(&mut parsed, out),
        "gather" => gather(&mut parsed, out),
        "gossip" => gossip(&mut parsed, out),
        "reduce" => reduce(&mut parsed, out),
        "prefix" => prefix(&mut parsed, out),
        other => Err(CliError::Usage(format!("unknown operation '{other}'"))),
    }
}

fn scatter(parsed: &mut ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let platform = load_platform(parsed.required("platform")?)?;
    let source = parsed.node_value("source")?;
    let targets = parsed.node_list("targets")?;
    let want_schedule = parsed.flag("schedule");
    let want_verify = parsed.flag("verify");

    let problem = ScatterProblem::new(platform, source, targets)
        .map_err(failed("invalid scatter problem"))?;
    let solution = problem.solve().map_err(failed("LP solve failed"))?;
    writeln!(out, "operation          : series of scatters")?;
    writeln!(out, "source             : {}", problem.source())?;
    writeln!(out, "targets            : {}", node_list(problem.targets()))?;
    writeln!(out, "optimal throughput : {} operations per time-unit", solution.throughput())?;
    writeln!(out, "integer period     : {}", solution.period())?;
    if want_verify {
        solution.verify(&problem).map_err(failed("solution verification failed"))?;
        writeln!(out, "verification       : all SSSP(G) constraints hold")?;
    }
    if want_schedule {
        let schedule =
            solution.build_schedule(&problem).map_err(failed("schedule construction failed"))?;
        emit_schedule(out, problem.platform(), &schedule)?;
    }
    Ok(())
}

fn gather(parsed: &mut ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let platform = load_platform(parsed.required("platform")?)?;
    let sources = parsed.node_list("sources")?;
    let sink = parsed.node_value("sink")?;
    let want_schedule = parsed.flag("schedule");
    let want_verify = parsed.flag("verify");

    let problem =
        GatherProblem::new(platform, sources, sink).map_err(failed("invalid gather problem"))?;
    let solution = problem.solve().map_err(failed("LP solve failed"))?;
    writeln!(out, "operation          : series of gathers")?;
    writeln!(out, "sources            : {}", node_list(problem.sources()))?;
    writeln!(out, "sink               : {}", problem.sink())?;
    writeln!(out, "optimal throughput : {} operations per time-unit", solution.throughput())?;
    writeln!(out, "integer period     : {}", solution.period())?;
    if want_verify {
        solution.verify(&problem).map_err(failed("solution verification failed"))?;
        writeln!(out, "verification       : all SSG(G) constraints hold")?;
    }
    if want_schedule {
        let schedule =
            solution.build_schedule(&problem).map_err(failed("schedule construction failed"))?;
        emit_schedule(out, problem.platform(), &schedule)?;
    }
    Ok(())
}

fn gossip(parsed: &mut ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let platform = load_platform(parsed.required("platform")?)?;
    let sources = parsed.node_list("sources")?;
    let targets = parsed.node_list("targets")?;
    let want_schedule = parsed.flag("schedule");

    let problem =
        GossipProblem::new(platform, sources, targets).map_err(failed("invalid gossip problem"))?;
    let solution = problem.solve().map_err(failed("LP solve failed"))?;
    writeln!(out, "operation          : series of gossips (personalized all-to-all)")?;
    writeln!(out, "sources            : {}", node_list(problem.sources()))?;
    writeln!(out, "targets            : {}", node_list(problem.targets()))?;
    writeln!(out, "optimal throughput : {} operations per time-unit", solution.throughput())?;
    writeln!(out, "integer period     : {}", solution.period())?;
    if want_schedule {
        let schedule =
            solution.build_schedule(&problem).map_err(failed("schedule construction failed"))?;
        emit_schedule(out, problem.platform(), &schedule)?;
    }
    Ok(())
}

fn reduce(parsed: &mut ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let platform = load_platform(parsed.required("platform")?)?;
    let participants = parsed.node_list("participants")?;
    let target = parsed.node_value("target")?;
    let size = parsed.ratio_value("size", rat(1, 1))?;
    let task_cost = parsed.ratio_value("task-cost", rat(1, 1))?;
    let want_schedule = parsed.flag("schedule");
    let want_trees = parsed.flag("trees");
    let want_verify = parsed.flag("verify");

    let problem = ReduceProblem::new(platform, participants, target, size, task_cost)
        .map_err(failed("invalid reduce problem"))?;
    let solution = problem.solve().map_err(failed("LP solve failed"))?;
    writeln!(out, "operation          : series of reduces")?;
    writeln!(out, "participants       : {}", node_list(problem.participants()))?;
    writeln!(out, "target             : {}", problem.target())?;
    writeln!(out, "optimal throughput : {} operations per time-unit", solution.throughput())?;
    writeln!(out, "integer period     : {}", solution.period())?;
    if want_verify {
        solution.verify(&problem).map_err(failed("solution verification failed"))?;
        writeln!(out, "verification       : all SSR(G) constraints hold")?;
    }
    if want_trees || want_schedule {
        let trees = solution.extract_trees(&problem).map_err(failed("tree extraction failed"))?;
        if want_trees {
            writeln!(out, "--- reduction trees ({}) ---", trees.len())?;
            for (i, wt) in trees.iter().enumerate() {
                writeln!(
                    out,
                    "tree {i}: weight {} ({} transfers, {} tasks)",
                    wt.weight,
                    wt.tree.num_transfers(),
                    wt.tree.num_tasks()
                )?;
            }
        }
        if want_schedule {
            let schedule = solution
                .build_schedule_from_trees(&problem, &trees)
                .map_err(failed("schedule construction failed"))?;
            emit_schedule(out, problem.platform(), &schedule)?;
        }
    }
    Ok(())
}

fn prefix(parsed: &mut ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let platform = load_platform(parsed.required("platform")?)?;
    let participants = parsed.node_list("participants")?;
    let size = parsed.ratio_value("size", rat(1, 1))?;
    let task_cost = parsed.ratio_value("task-cost", rat(1, 1))?;
    let want_schedule = parsed.flag("schedule");

    let problem = PrefixProblem::new(platform, participants, size, task_cost)
        .map_err(failed("invalid prefix problem"))?;
    let solution = problem.solve().map_err(failed("LP solve failed"))?;
    let upper = problem.upper_bound().map_err(failed("upper-bound computation failed"))?;
    writeln!(out, "operation          : series of parallel prefixes")?;
    writeln!(out, "participants       : {}", node_list(problem.participants()))?;
    writeln!(out, "achieved throughput: {} operations per time-unit", solution.throughput())?;
    writeln!(out, "upper bound        : {} (best single-rank reduce)", upper)?;
    writeln!(out, "integer period     : {}", solution.period())?;
    if want_schedule {
        let schedule =
            solution.build_schedule(&problem).map_err(failed("schedule construction failed"))?;
        emit_schedule(out, problem.platform(), &schedule)?;
    }
    Ok(())
}

fn node_list(nodes: &[steady_platform::NodeId]) -> String {
    nodes.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(", ")
}
