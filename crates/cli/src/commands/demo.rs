//! `steady demo <name>` — the paper's worked examples, end to end.

use std::io::Write;

use steady_baselines::{
    binomial_reduce, direct_scatter, flat_tree_reduce, measure_pipelined_throughput,
};
use steady_core::reduce::ReduceProblem;
use steady_core::ScatterProblem;
use steady_platform::generators::{figure2, figure6, figure9};
use steady_runtime::{run_reduce, run_scatter, RunConfig};

use crate::args::{OptionSpec, ParsedArgs};
use crate::CliError;

const SPEC: OptionSpec = OptionSpec { valued: &["participants"], flags: &["full"] };

/// Runs `steady demo ...`.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut parsed = ParsedArgs::parse(args, &SPEC)?;
    let Some(name) = parsed.positional().first().cloned() else {
        return Err(CliError::Usage("demo needs a name: figure2, figure6 or figure9".into()));
    };
    match name.as_str() {
        "figure2" => demo_figure2(out),
        "figure6" => demo_figure6(out),
        "figure9" => {
            let default = if parsed.flag("full") { 8 } else { 6 };
            let participants = parsed.usize_value("participants", default)?;
            demo_figure9(participants, out)
        }
        other => Err(CliError::Usage(format!("unknown demo '{other}'"))),
    }
}

fn demo_figure2(out: &mut dyn Write) -> Result<(), CliError> {
    writeln!(out, "=== Figure 2: toy scatter (one source, two targets) ===")?;
    let problem =
        ScatterProblem::from_instance(figure2()).map_err(|e| CliError::Failed(e.to_string()))?;
    let solution = problem.solve().map_err(|e| CliError::Failed(e.to_string()))?;
    writeln!(out, "LP optimal throughput : {} (paper: 1/2)", solution.throughput())?;
    let schedule =
        solution.build_schedule(&problem).map_err(|e| CliError::Failed(e.to_string()))?;
    schedule.validate(problem.platform()).map_err(CliError::Failed)?;
    writeln!(out, "schedule period       : {} ({} slots)", schedule.period, schedule.slots.len())?;

    let ops = 30;
    let baseline =
        measure_pipelined_throughput(problem.platform(), &direct_scatter(&problem, ops), ops)
            .map_err(|e| CliError::Failed(e.to_string()))?;
    writeln!(out, "direct-scatter baseline: {} ops/time-unit", baseline.throughput)?;

    let report =
        run_scatter(&problem, &schedule, RunConfig::default()).map_err(CliError::Failed)?;
    writeln!(
        out,
        "threaded execution    : {} operations completed over {} periods, {} data errors",
        report.completed_operations,
        report.periods,
        report.errors.len()
    )?;
    Ok(())
}

fn demo_figure6(out: &mut dyn Write) -> Result<(), CliError> {
    writeln!(out, "=== Figure 6: toy reduce (3 processors, target P0) ===")?;
    let problem =
        ReduceProblem::from_instance(figure6()).map_err(|e| CliError::Failed(e.to_string()))?;
    let solution = problem.solve().map_err(|e| CliError::Failed(e.to_string()))?;
    writeln!(out, "LP optimal throughput : {} (paper: 1)", solution.throughput())?;
    let trees = solution.extract_trees(&problem).map_err(|e| CliError::Failed(e.to_string()))?;
    writeln!(out, "reduction trees       : {}", trees.len())?;
    for (i, wt) in trees.iter().enumerate() {
        writeln!(
            out,
            "  tree {i}: weight {} ({} transfers, {} tasks)",
            wt.weight,
            wt.tree.num_transfers(),
            wt.tree.num_tasks()
        )?;
    }
    let ops = 20;
    for (name, dag) in [
        ("flat-tree", flat_tree_reduce(&problem, ops)),
        ("binomial ", binomial_reduce(&problem, ops)),
    ] {
        let report = measure_pipelined_throughput(problem.platform(), &dag, ops)
            .map_err(|e| CliError::Failed(e.to_string()))?;
        writeln!(out, "{name} baseline    : {} ops/time-unit", report.throughput)?;
    }
    let report = run_reduce(&problem, &trees, RunConfig::default()).map_err(CliError::Failed)?;
    writeln!(
        out,
        "threaded execution    : {} results, all correct: {}",
        report.completed_operations,
        report.correct_results == report.completed_operations && report.errors.is_empty()
    )?;
    Ok(())
}

fn demo_figure9(participants: usize, out: &mut dyn Write) -> Result<(), CliError> {
    writeln!(out, "=== Figure 9: Tiers platform reduce ({participants} participants) ===")?;
    let instance = figure9();
    let mut picked = instance.participants.clone();
    picked.truncate(participants.max(2));
    if !picked.contains(&instance.target) {
        // Keep the paper's target in the participant set.
        let last = picked.len() - 1;
        picked[last] = instance.target;
    }
    let problem = ReduceProblem::new(
        instance.platform,
        picked,
        instance.target,
        instance.message_size,
        instance.task_cost,
    )
    .map_err(|e| CliError::Failed(e.to_string()))?;
    let solution = problem.solve().map_err(|e| CliError::Failed(e.to_string()))?;
    writeln!(
        out,
        "LP optimal throughput : {} (paper: 2/9 on its own link costs)",
        solution.throughput()
    )?;
    let trees = solution.extract_trees(&problem).map_err(|e| CliError::Failed(e.to_string()))?;
    writeln!(out, "reduction trees       : {}", trees.len())?;
    let ops = 10;
    let baseline =
        measure_pipelined_throughput(problem.platform(), &flat_tree_reduce(&problem, ops), ops)
            .map_err(|e| CliError::Failed(e.to_string()))?;
    writeln!(out, "flat-tree baseline    : {} ops/time-unit", baseline.throughput)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo(words: &[&str]) -> String {
        let args: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn figure2_demo_reports_the_paper_throughput() {
        let text = demo(&["figure2"]);
        assert!(text.contains("1/2"), "{text}");
        assert!(text.contains("threaded execution"));
    }

    #[test]
    fn figure6_demo_reports_trees_and_baselines() {
        let text = demo(&["figure6"]);
        assert!(text.contains("reduction trees"));
        assert!(text.contains("flat-tree baseline"));
        assert!(text.contains("all correct: true"));
    }

    #[test]
    fn figure9_demo_with_few_participants() {
        let text = demo(&["figure9", "--participants", "4"]);
        assert!(text.contains("LP optimal throughput"));
        assert!(text.contains("4 participants"));
    }

    #[test]
    fn unknown_demo_is_rejected() {
        let args = vec!["figure99".to_string()];
        let mut out = Vec::new();
        assert!(matches!(run(&args, &mut out), Err(CliError::Usage(_))));
    }
}
