//! The collective-generic steady-state pipeline: build → solve → interpret.
//!
//! Every collective in this crate ([`crate::flow`]'s scatter, gather and
//! gossip, [`crate::reduce`], [`crate::prefix`]) follows the same
//! three-step flow: formulate the steady-state LP, solve it exactly, and read
//! the optimal variable values back into domain quantities (flows, task
//! rates, throughput).  [`SteadyProblem`] captures the two collective-specific
//! steps and [`solve_steady`] / [`solve_steady_warm`] provide the one shared
//! solve driver, so the LP plumbing — solver selection, warm-start seeding,
//! error mapping, pivot accounting — exists exactly once.
//!
//! The warm path is what the serving layer builds on: a [`SolvedBasis`] kept
//! from a previous solve of a *structurally identical* problem (same
//! topology and roles, possibly different edge costs) seeds the simplex,
//! which then re-optimizes from that vertex instead of from scratch.  The
//! returned [`SolveReport`] says whether the seed took and how many pivots
//! the solve spent, so callers can measure the savings.

use std::collections::BTreeMap;

use steady_lp::{LpProblem, VarId};
use steady_rational::Ratio;

use crate::error::CoreError;

pub use steady_lp::{Certificate, SolveHealth, SolvedBasis};

/// A steady-state collective problem that can be formulated as an LP and its
/// solution read back from the LP's optimal variable values.
///
/// Implementations provide the two collective-specific halves of the
/// pipeline; [`solve_steady`] supplies the shared middle.
pub trait SteadyProblem {
    /// Mapping from LP variables back to domain quantities.
    type Vars;
    /// Domain solution produced from the optimal LP values.
    type Solution;

    /// Short lowercase name of the collective kind (`"scatter"`, ...).
    const KIND: &'static str;

    /// Builds the steady-state LP and the variable map.
    fn formulate(&self) -> (LpProblem, Self::Vars);

    /// Reads the optimal LP values back into a domain solution.
    ///
    /// `values` holds one exact rational per LP variable, indexed by
    /// [`VarId`]; the method is pure interpretation and must not fail —
    /// every invariant it relies on is enforced by the LP's constraints.
    fn interpret(&self, vars: &Self::Vars, values: &[Ratio]) -> Self::Solution;
}

/// What one shared-driver solve cost and produced, besides the solution.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// Total simplex pivots performed (both phases, all runs).
    pub iterations: usize,
    /// Pivots spent in phase 1 (feasibility search); the rest is phase 2.
    pub phase1_iterations: usize,
    /// `true` when a supplied basis installed cleanly and seeded the solve.
    pub warm_started: bool,
    /// Final basis, reusable to warm-start a structurally identical solve.
    pub basis: Option<SolvedBasis>,
    /// Basis refactorizations performed by the revised sparse solver, over
    /// the `f64` run and any exact fallback.
    pub refactorizations: usize,
    /// How the exact optimum was validated by the solving pipeline.
    pub certificate: Certificate,
    /// Numeric-health aggregate of the solve (degenerate-pivot fraction,
    /// Bland switches, peak eta fill, fallback cause), folded from the
    /// solver's event stream — see [`steady_lp::instrument`].
    pub health: SolveHealth,
}

impl SolveReport {
    /// Per-phase pivot accounting, in the shape the observability layer
    /// records ([`steady_lp::SolveTrace`]).
    pub fn trace(&self) -> steady_lp::SolveTrace {
        steady_lp::SolveTrace {
            phase1_pivots: self.phase1_iterations,
            phase2_pivots: self.iterations - self.phase1_iterations,
            warm_started: self.warm_started,
        }
    }
}

/// Solves `problem` exactly through the shared pipeline.
pub fn solve_steady<P: SteadyProblem>(problem: &P) -> Result<P::Solution, CoreError> {
    solve_steady_warm(problem, None).map(|(solution, _)| solution)
}

/// Solves `problem` exactly, optionally warm-starting the simplex from a
/// basis kept from a structurally identical solve, and reports the cost.
///
/// Warm and cold solves return the same exact optimum — an unusable basis is
/// silently discarded (see [`steady_lp::solve_certified_warm`]) — so a caller
/// can cache bases as aggressively as it likes without risking correctness.
pub fn solve_steady_warm<P: SteadyProblem>(
    problem: &P,
    warm: Option<&SolvedBasis>,
) -> Result<(P::Solution, SolveReport), CoreError> {
    solve_steady_warm_observed(problem, warm, &mut steady_lp::NoopObserver)
}

/// [`solve_steady_warm`] with a [`steady_lp::SolveObserver`] tap on the
/// underlying solver runs.  The report's [`SolveHealth`] is aggregated
/// regardless of the caller's observer (events are fanned out to both).
pub fn solve_steady_warm_observed<P: SteadyProblem, O: steady_lp::SolveObserver>(
    problem: &P,
    warm: Option<&SolvedBasis>,
    obs: &mut O,
) -> Result<(P::Solution, SolveReport), CoreError> {
    let (lp, vars) = problem.formulate();
    let mut health = steady_lp::HealthObserver::new();
    let sol = {
        let mut tap = steady_lp::Chain(&mut health, obs);
        steady_lp::solve_exact_auto_observed(&lp, warm, &mut tap)?
    };
    let report = SolveReport {
        iterations: sol.iterations,
        phase1_iterations: sol.phase1_iterations,
        warm_started: sol.warm_started,
        basis: sol.basis,
        refactorizations: sol.refactorizations,
        certificate: sol.certificate,
        health: health.into_health(),
    };
    Ok((problem.interpret(&vars, &sol.values), report))
}

/// Filters a variable map down to the strictly positive optimal values —
/// the shared "read the flows back" step of every `interpret`.
pub(crate) fn positive_values<K: Ord + Copy>(
    vars: &BTreeMap<K, VarId>,
    values: &[Ratio],
) -> BTreeMap<K, Ratio> {
    let mut out = BTreeMap::new();
    for (&key, &var) in vars {
        let v = values[var.index()].clone();
        if v.is_positive() {
            out.insert(key, v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScatterProblem;
    use steady_platform::generators::figure2;
    use steady_rational::rat;

    #[test]
    fn shared_driver_matches_the_inherent_solve() {
        let problem = ScatterProblem::from_instance(figure2()).unwrap();
        let direct = problem.solve().unwrap();
        let (via_driver, report) = solve_steady_warm(&problem, None).unwrap();
        assert_eq!(via_driver.throughput(), direct.throughput());
        assert!(!report.warm_started);
        assert!(report.basis.is_some());
        assert_eq!(ScatterProblem::KIND, "scatter");
    }

    #[test]
    fn warm_start_reuses_the_basis_and_matches_cold() {
        let problem = ScatterProblem::from_instance(figure2()).unwrap();
        let (cold, cold_report) = solve_steady_warm(&problem, None).unwrap();
        let basis = cold_report.basis.expect("cold solve yields a basis");
        let (warm, warm_report) = solve_steady_warm(&problem, Some(&basis)).unwrap();
        assert!(warm_report.warm_started);
        assert!(warm_report.iterations <= cold_report.iterations);
        assert_eq!(warm.throughput(), cold.throughput());
        assert_eq!(*warm.throughput(), rat(1, 2));
    }
}
