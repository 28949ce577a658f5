//! Fixed-period approximation (§4.6, Proposition 4).
//!
//! The exact periodic schedule uses the period `T` = LCM of the denominators
//! of the LP solution, which may be impractically large.  The paper's remedy:
//! pick any fixed period `T_fixed`, round each reduction tree's per-period
//! weight down to `r(T) = ⌊ w(T)/T × T_fixed ⌋`, and schedule `r(T)` instances
//! of every tree per period.  The loss is bounded by
//! `TP − (1/T_fixed) Σ r(T) ≤ card(Trees) / T_fixed`, so the approximated
//! throughput converges to the optimum as `T_fixed` grows.

use std::collections::BTreeMap;

use steady_rational::{BigInt, Ratio};

use crate::error::CoreError;
use crate::flow::{ScatterProblem, ScatterSolution};
use crate::paths::WeightedPath;
use crate::reduce::{ReduceProblem, ReduceSolution};
use crate::schedule::PeriodicSchedule;
use crate::trees::WeightedTree;

/// Result of the fixed-period approximation.
#[derive(Debug, Clone)]
pub struct FixedPeriodPlan {
    /// The requested period.
    pub period: Ratio,
    /// For every input tree, the integer number of instances per period.
    pub tree_counts: Vec<BigInt>,
    /// Achieved throughput `(Σ r(T)) / T_fixed`.
    pub throughput: Ratio,
    /// The a-priori bound on the loss: `card(Trees) / T_fixed`.
    pub loss_bound: Ratio,
}

/// Rounds a weighted tree set to an integer number of instances per period of
/// `t_fixed`, per Proposition 4.
pub fn approximate_for_period(
    trees: &[WeightedTree],
    t_fixed: &Ratio,
) -> Result<FixedPeriodPlan, CoreError> {
    if !t_fixed.is_positive() {
        return Err(CoreError::InvalidPeriod);
    }
    let mut counts = Vec::with_capacity(trees.len());
    let mut total = Ratio::zero();
    for wt in trees {
        // w(T) is a per-time-unit rate, so the per-period amount is w(T) * T_fixed.
        let r = (&wt.weight * t_fixed).floor();
        total += Ratio::from(r.clone());
        counts.push(r);
    }
    let throughput = &total / t_fixed;
    let loss_bound = &Ratio::from(trees.len()) / t_fixed;
    Ok(FixedPeriodPlan { period: t_fixed.clone(), tree_counts: counts, throughput, loss_bound })
}

/// Builds an explicit schedule with period `t_fixed` from the rounded plan:
/// the trees are re-weighted to `r(T)/T_fixed` and fed through the usual
/// matching decomposition.
pub fn build_fixed_period_schedule(
    problem: &ReduceProblem,
    solution: &ReduceSolution,
    trees: &[WeightedTree],
    t_fixed: &Ratio,
) -> Result<(FixedPeriodPlan, PeriodicSchedule), CoreError> {
    let plan = approximate_for_period(trees, t_fixed)?;
    let reweighted: Vec<WeightedTree> = trees
        .iter()
        .zip(&plan.tree_counts)
        .filter(|(_, r)| r.is_positive())
        .map(|(wt, r)| WeightedTree {
            tree: wt.tree.clone(),
            weight: &Ratio::from(r.clone()) / t_fixed,
        })
        .collect();
    let schedule = solution.build_schedule_from_trees(problem, &reweighted)?;
    Ok((plan, schedule))
}

/// Result of the fixed-period approximation applied to a scatter (paths play
/// the role the reduction trees play for the reduce).
#[derive(Debug, Clone)]
pub struct FixedPeriodScatterPlan {
    /// The requested period.
    pub period: Ratio,
    /// For every input path, the integer number of messages per period.
    pub path_counts: Vec<BigInt>,
    /// Achieved throughput: the slowest commodity's rounded delivery rate.
    pub throughput: Ratio,
    /// The a-priori bound on the loss: `card(paths) / T_fixed`.
    pub loss_bound: Ratio,
}

/// Rounds a weighted path set to an integer number of messages per period of
/// `t_fixed` (Proposition 4 transposed to the scatter: rounding path weights
/// preserves the conservation law, rounding raw edge flows would not).
pub fn approximate_scatter_for_period(
    problem: &ScatterProblem,
    paths: &[WeightedPath],
    t_fixed: &Ratio,
) -> Result<FixedPeriodScatterPlan, CoreError> {
    if !t_fixed.is_positive() {
        return Err(CoreError::InvalidPeriod);
    }
    let mut counts = Vec::with_capacity(paths.len());
    let mut per_target = vec![Ratio::zero(); problem.targets().len()];
    for path in paths {
        let r = (&path.weight * t_fixed).floor();
        per_target[path.target_index] += Ratio::from(r.clone());
        counts.push(r);
    }
    // Every target must receive the same number of messages per operation, so
    // the achieved throughput is pinned by the slowest commodity.
    let slowest = per_target.iter().min().cloned().unwrap_or_else(Ratio::zero);
    let throughput = &slowest / t_fixed;
    let loss_bound = &Ratio::from(paths.len()) / t_fixed;
    Ok(FixedPeriodScatterPlan {
        period: t_fixed.clone(),
        path_counts: counts,
        throughput,
        loss_bound,
    })
}

/// Builds an explicit scatter schedule with period `t_fixed` from the rounded
/// plan, by turning the rounded paths back into per-edge flows and reusing the
/// usual matching decomposition.
pub fn build_fixed_period_scatter_schedule(
    problem: &ScatterProblem,
    paths: &[WeightedPath],
    t_fixed: &Ratio,
) -> Result<(FixedPeriodScatterPlan, PeriodicSchedule), CoreError> {
    let plan = approximate_scatter_for_period(problem, paths, t_fixed)?;
    let mut flows: BTreeMap<_, Ratio> = BTreeMap::new();
    for (path, count) in paths.iter().zip(&plan.path_counts) {
        if !count.is_positive() {
            continue;
        }
        let rate = &Ratio::from(count.clone()) / t_fixed;
        for &e in &path.edges {
            *flows.entry((e, path.target_index)).or_insert_with(Ratio::zero) += &rate;
        }
    }
    let rounded = ScatterSolution::from_flows(plan.throughput.clone(), flows);
    let schedule = rounded.build_schedule(problem)?;
    Ok((plan, schedule))
}

/// Checks Proposition 4 for a plan: the achieved throughput is within
/// `card(Trees)/T_fixed` of the optimum and never exceeds it.
pub fn verify_loss_bound(plan: &FixedPeriodPlan, optimal: &Ratio) -> Result<(), String> {
    if plan.throughput > *optimal {
        return Err(format!(
            "approximated throughput {} exceeds the optimum {optimal}",
            plan.throughput
        ));
    }
    let loss = optimal - &plan.throughput;
    if loss > plan.loss_bound {
        return Err(format!("loss {loss} exceeds the Proposition-4 bound {}", plan.loss_bound));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::ReduceProblem;
    use steady_platform::generators::figure6;
    use steady_rational::rat;

    fn solved_figure6() -> (ReduceProblem, ReduceSolution, Vec<WeightedTree>) {
        let problem = ReduceProblem::from_instance(figure6()).unwrap();
        let solution = problem.solve().unwrap();
        let trees = solution.extract_trees(&problem).unwrap();
        (problem, solution, trees)
    }

    #[test]
    fn loss_shrinks_with_period() {
        let (_problem, solution, trees) = solved_figure6();
        let mut last_loss = None;
        for t in [3i64, 9, 27, 81, 243] {
            let plan = approximate_for_period(&trees, &rat(t, 1)).unwrap();
            verify_loss_bound(&plan, solution.throughput()).unwrap();
            let loss = solution.throughput() - &plan.throughput;
            if let Some(prev) = &last_loss {
                assert!(loss <= *prev, "loss must not increase with the period");
            }
            last_loss = Some(loss);
        }
        // With a period that is a multiple of the exact one, the loss is zero.
        let exact_period = Ratio::from(solution.period());
        let plan = approximate_for_period(&trees, &exact_period).unwrap();
        assert_eq!(plan.throughput, *solution.throughput());
    }

    #[test]
    fn tiny_period_can_lose_everything() {
        let (_problem, _solution, trees) = solved_figure6();
        // With a ridiculously small period every tree rounds down to zero.
        let plan = approximate_for_period(&trees, &rat(1, 100)).unwrap();
        assert_eq!(plan.throughput, Ratio::zero());
        assert!(plan.loss_bound >= rat(1, 1));
    }

    #[test]
    fn fixed_period_schedule_is_feasible() {
        let (problem, solution, trees) = solved_figure6();
        let (plan, schedule) =
            build_fixed_period_schedule(&problem, &solution, &trees, &rat(30, 1)).unwrap();
        schedule.validate(problem.platform()).unwrap();
        verify_loss_bound(&plan, solution.throughput()).unwrap();
        assert_eq!(schedule.throughput(), plan.throughput);
    }

    #[test]
    fn invalid_period_rejected() {
        let (_problem, _solution, trees) = solved_figure6();
        assert!(matches!(
            approximate_for_period(&trees, &Ratio::zero()),
            Err(CoreError::InvalidPeriod)
        ));
        assert!(matches!(
            approximate_for_period(&trees, &rat(-3, 1)),
            Err(CoreError::InvalidPeriod)
        ));
    }

    #[test]
    fn scatter_fixed_period_loss_is_bounded() {
        use crate::paths::extract_paths;
        use crate::ScatterProblem;
        use steady_platform::generators::figure2;

        let problem = ScatterProblem::from_instance(figure2()).unwrap();
        let solution = problem.solve().unwrap();
        let paths = extract_paths(&problem, &solution).unwrap();

        let mut last_loss: Option<Ratio> = None;
        for t in [2i64, 4, 8, 16, 64] {
            let plan = approximate_scatter_for_period(&problem, &paths, &rat(t, 1)).unwrap();
            assert!(plan.throughput <= *solution.throughput());
            let loss = solution.throughput() - &plan.throughput;
            assert!(loss <= plan.loss_bound, "loss {loss} exceeds bound {}", plan.loss_bound);
            if let Some(prev) = &last_loss {
                assert!(loss <= *prev, "loss must not increase with the period");
            }
            last_loss = Some(loss);
        }
        // A multiple of the exact period loses nothing.
        let exact = Ratio::from(solution.period());
        let plan = approximate_scatter_for_period(&problem, &paths, &exact).unwrap();
        assert_eq!(plan.throughput, *solution.throughput());
    }

    #[test]
    fn scatter_fixed_period_schedule_is_feasible() {
        use crate::paths::extract_paths;
        use crate::ScatterProblem;
        use steady_platform::generators::figure2;

        let problem = ScatterProblem::from_instance(figure2()).unwrap();
        let solution = problem.solve().unwrap();
        let paths = extract_paths(&problem, &solution).unwrap();
        let (plan, schedule) =
            build_fixed_period_scatter_schedule(&problem, &paths, &rat(20, 1)).unwrap();
        schedule.validate(problem.platform()).unwrap();
        assert_eq!(schedule.throughput(), plan.throughput);
        assert!(matches!(
            approximate_scatter_for_period(&problem, &paths, &Ratio::zero()),
            Err(CoreError::InvalidPeriod)
        ));
    }

    #[test]
    fn verify_loss_bound_rejects_bogus_plans() {
        let (_p, solution, trees) = solved_figure6();
        let mut plan = approximate_for_period(&trees, &rat(3, 1)).unwrap();
        plan.throughput = solution.throughput() + &rat(1, 1);
        assert!(verify_loss_bound(&plan, solution.throughput()).is_err());
        let mut plan2 = approximate_for_period(&trees, &rat(3, 1)).unwrap();
        plan2.throughput = Ratio::zero();
        plan2.loss_bound = rat(1, 1000);
        assert!(verify_loss_bound(&plan2, solution.throughput()).is_err());
    }
}
