//! Linear-programming toolkit for the steady-state collective scheduler.
//!
//! The optimal steady-state throughput of a series of scatters, gossips or
//! reduces is the value of a linear program (`SSSP(G)`, `SSPA2A(G)`, `SSR(G)`
//! in the paper).  The original authors solved these programs with `lpsolve`
//! or Maple; this crate is the from-scratch substitute:
//!
//! * [`model`] — a small modelling layer ([`LpProblem`], [`LinearExpr`]) over
//!   named non-negative rational variables;
//! * [`simplex`] — a dense two-phase primal simplex, generic over the scalar
//!   type, instantiated both for `f64` and for exact [`Ratio`] arithmetic;
//! * [`exact`] — the certified solving pipeline: solve fast in `f64`,
//!   rationalize the primal/dual pair with continued fractions, verify
//!   feasibility and strong duality exactly, and fall back to the exact
//!   simplex when certification fails.
//!
//! # Example
//!
//! ```
//! use steady_lp::{LpProblem, LinearExpr, Sense, solve_certified};
//! use steady_rational::rat;
//!
//! // maximize x + y  subject to  2x + y <= 1,  x + 3y <= 1,  x, y >= 0
//! let mut lp = LpProblem::maximize();
//! let x = lp.add_var("x");
//! let y = lp.add_var("y");
//! lp.set_objective(x, rat(1, 1));
//! lp.set_objective(y, rat(1, 1));
//! let mut c1 = LinearExpr::new();
//! c1.add_term(x, rat(2, 1)).add_term(y, rat(1, 1));
//! lp.add_constraint("c1", c1, Sense::Le, rat(1, 1));
//! let mut c2 = LinearExpr::new();
//! c2.add_term(x, rat(1, 1)).add_term(y, rat(3, 1));
//! lp.add_constraint("c2", c2, Sense::Le, rat(1, 1));
//!
//! let sol = solve_certified(&lp).unwrap();
//! assert_eq!(sol.objective, rat(3, 5));          // exact optimum
//! assert_eq!(sol.values, vec![rat(2, 5), rat(1, 5)]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exact;
pub mod instrument;
pub mod model;
pub mod ranging;
pub mod revised;
pub mod scalar;
pub mod simplex;
pub mod sparse;

pub use exact::{
    certify, check_optimal, routes_to_revised, solve_certified, solve_certified_dual,
    solve_certified_dual_observed, solve_certified_warm, solve_certified_warm_observed,
    solve_certified_with_options, Certificate, CertifiedSolution, CertifyError, CertifyOptions,
    SolveTrace,
};
pub use instrument::{
    Chain, FallbackCause, HealthObserver, NoopObserver, PhaseBreakdown, PivotKind, PivotRule,
    RecordingObserver, RefactorReason, SolveEvent, SolveHealth, SolveObserver, SolvePath,
    SolvePhase, SolveRecording, TimedEvent, WarmOutcome,
};
pub use model::{Constraint, LinearExpr, LpProblem, Objective, Sense, VarId};
pub use ranging::{
    basis_still_optimal, objective_ranging, rhs_ranging, CostRange, RangingError, RhsRange,
};
pub use revised::{
    solve_revised, solve_revised_report, solve_revised_report_observed, solve_revised_with_basis,
    solve_revised_with_basis_options, solve_revised_with_options, Eta, RevisedOptions,
    RevisedStats, SparseLu,
};
pub use scalar::Scalar;
pub use simplex::{
    solve_dual_with_basis, solve_dual_with_basis_options, solve_dual_with_basis_options_observed,
    solve_exact, solve_f64, solve_with_basis, solve_with_basis_options,
    solve_with_basis_options_observed, solve_with_options, solve_with_options_observed,
    DualOutcome, LpStatus, SimplexError, SimplexOptions, Solution, SolvedBasis,
};
pub use sparse::CscMatrix;

use steady_rational::Ratio;

/// Solves a problem exactly, choosing the strategy by problem size: small
/// problems go straight to the exact simplex, larger ones use the certified
/// `f64` path with exact-simplex fallback.
///
/// This is the entry point used by the steady-state schedulers.
pub fn solve_exact_auto(problem: &LpProblem) -> Result<CertifiedSolution, CertifyError> {
    solve_exact_auto_with(problem, None)
}

/// [`solve_exact_auto`], optionally warm-starting from a previously solved
/// basis (see [`SolvedBasis`]).
///
/// The strategy choice is identical to the cold path, so warm and cold
/// solves of the same problem run the same arithmetic and return the same
/// exact optimum — the basis only changes where the simplex *starts*.
pub fn solve_exact_auto_with(
    problem: &LpProblem,
    warm: Option<&SolvedBasis>,
) -> Result<CertifiedSolution, CertifyError> {
    solve_exact_auto_observed(problem, warm, &mut NoopObserver)
}

/// [`solve_exact_auto_with`] with a [`SolveObserver`] tap on every run the
/// strategy executes (see [`instrument`]).  The observer cannot influence the
/// solve; with [`NoopObserver`] this is the uninstrumented pipeline.
pub fn solve_exact_auto_observed<O: SolveObserver>(
    problem: &LpProblem,
    warm: Option<&SolvedBasis>,
    obs: &mut O,
) -> Result<CertifiedSolution, CertifyError> {
    if below_exact_simplex_limit(problem) {
        let options = SimplexOptions::default();
        let sol = match warm {
            Some(basis) => simplex::solve_with_basis_options_observed::<Ratio, O>(
                problem, basis, &options, obs,
            )?,
            None => simplex::solve_with_options_observed::<Ratio, O>(problem, &options, obs)?,
        };
        Ok(exact_simplex_certified(sol))
    } else {
        exact::solve_certified_warm_observed(problem, &CertifyOptions::default(), warm, obs)
    }
}

/// Solves `problem` exactly, resuming from `basis` with the **dual simplex**
/// (see [`solve_dual_with_basis`]) and reporting how the basis was used.
///
/// The size-based strategy split mirrors [`solve_exact_auto_with`]: small
/// problems run the exact rational dual simplex directly; large ones run it
/// in `f64`, certify the rationalized optimum, and fall back to the exact
/// simplex seeded from the float basis when certification fails.  Every path
/// returns the same exact optimum as a cold [`solve_exact_auto`] — the
/// [`DualOutcome`] only describes how much work the basis saved.
pub fn solve_exact_dual_auto(
    problem: &LpProblem,
    basis: &SolvedBasis,
) -> Result<(CertifiedSolution, DualOutcome), CertifyError> {
    solve_exact_dual_auto_observed(problem, basis, &mut NoopObserver)
}

/// [`solve_exact_dual_auto`] with a [`SolveObserver`] tap on every run the
/// strategy executes.
pub fn solve_exact_dual_auto_observed<O: SolveObserver>(
    problem: &LpProblem,
    basis: &SolvedBasis,
    obs: &mut O,
) -> Result<(CertifiedSolution, DualOutcome), CertifyError> {
    if below_exact_simplex_limit(problem) {
        let (sol, outcome) = simplex::solve_dual_with_basis_options_observed::<Ratio, O>(
            problem,
            basis,
            &SimplexOptions::default(),
            obs,
        )?;
        Ok((exact_simplex_certified(sol), outcome))
    } else {
        exact::solve_certified_dual_observed(problem, &CertifyOptions::default(), basis, obs)
    }
}

/// Problem-size split between the direct exact simplex and the certified
/// `f64`-then-exact pipeline.
fn below_exact_simplex_limit(problem: &LpProblem) -> bool {
    const EXACT_SIMPLEX_LIMIT: usize = 2_000;
    problem.num_vars() * problem.num_constraints().max(1) <= EXACT_SIMPLEX_LIMIT
}

/// Wraps an exact-simplex solution as a [`CertifiedSolution`] (optimal by
/// construction).
fn exact_simplex_certified(sol: Solution<Ratio>) -> CertifiedSolution {
    CertifiedSolution {
        values: sol.values,
        objective: sol.objective,
        duals: sol.duals,
        certificate: Certificate::ExactSimplex,
        iterations: sol.iterations,
        phase1_iterations: sol.phase1_iterations,
        warm_started: sol.warm_started,
        basis: Some(sol.basis),
        refactorizations: 0,
    }
}

/// Convenience: exact objective value of the solved problem, for callers that
/// only need the optimal throughput.
pub fn optimal_value(problem: &LpProblem) -> Result<Ratio, CertifyError> {
    Ok(solve_exact_auto(problem)?.objective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use steady_rational::rat;

    #[test]
    fn auto_strategy_small_and_large() {
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        lp.set_objective(x, rat(1, 1));
        lp.add_constraint("cap", LinearExpr::var(x), Sense::Le, rat(7, 3));
        let sol = solve_exact_auto(&lp).unwrap();
        assert_eq!(sol.objective, rat(7, 3));
        assert_eq!(optimal_value(&lp).unwrap(), rat(7, 3));
    }
}
