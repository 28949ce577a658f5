//! Linear-programming toolkit for the steady-state collective scheduler.
//!
//! The optimal steady-state throughput of a series of scatters, gossips or
//! reduces is the value of a linear program (`SSSP(G)`, `SSPA2A(G)`, `SSR(G)`
//! in the paper).  The original authors solved these programs with `lpsolve`
//! or Maple; this crate is the from-scratch substitute:
//!
//! * [`model`] — a small modelling layer ([`LpProblem`], [`LinearExpr`]) over
//!   named non-negative rational variables;
//! * [`revised`] — the one simplex: the revised method over a sparse
//!   LU-factorized basis, generic over the scalar type, cold-starting from a
//!   triangular crash basis, with a dual simplex for warm drift repairs; its
//!   exact install and one pricing pass are also the forecaster's survival
//!   probe, [`basis_still_optimal`];
//! * [`exact`] — the certified solving pipeline, one route at every size:
//!   search with `revised<f64>`, rationalize the primal/dual pair with
//!   continued fractions, verify feasibility and strong duality exactly, and
//!   re-solve on `revised<Ratio>` from the float basis when certification
//!   fails;
//! * [`simplex`] — the types every run shares ([`Solution`], [`SolvedBasis`],
//!   [`DualOutcome`], ...).  Under `#[cfg(test)]` it also holds the dense
//!   tableau simplex, the tests' reference oracle; no production solve runs
//!   on it.
//!
//! # Example
//!
//! ```
//! use steady_lp::{LpProblem, LinearExpr, Sense, solve_exact_auto};
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
//! let sol = solve_exact_auto(&lp).unwrap();
//! assert_eq!(sol.objective, rat(3, 5));          // exact optimum
//! assert_eq!(sol.values, vec![rat(2, 5), rat(1, 5)]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exact;
pub mod instrument;
pub mod model;
pub mod revised;
pub mod scalar;
pub mod simplex;
pub mod sparse;

pub use exact::{
    certify, check_optimal, solve_certified_warm, solve_certified_warm_observed, Certificate,
    CertifiedSolution, CertifyError, CertifyOptions, SolveTrace,
};
pub use instrument::{
    Chain, FallbackCause, HealthObserver, NoopObserver, PhaseBreakdown, PivotKind, PivotRule,
    RecordingObserver, RefactorReason, SolveEvent, SolveHealth, SolveObserver, SolvePhase,
    SolveRecording, TimedEvent, WarmOutcome,
};
pub use model::{Constraint, LinearExpr, LpProblem, Objective, Sense, VarId};
pub use revised::{
    basis_still_optimal, solve_exact, solve_revised_dual_report_observed,
    solve_revised_report_observed, Eta, RevisedOptions, RevisedStats, SparseLu,
};
pub use scalar::Scalar;
pub use simplex::{DualOutcome, SimplexError, SimplexOptions, Solution, SolvedBasis};
pub use sparse::CscMatrix;

/// Solves a problem exactly with the certified pipeline's one route, at
/// every size: the revised `f64` simplex from the crash basis, the exact
/// [`certify`] check, and a `revised<Ratio>` re-solve when that check fails
/// (see [`exact`]).
///
/// This is the entry point used by the steady-state schedulers.
pub fn solve_exact_auto(problem: &LpProblem) -> Result<CertifiedSolution, CertifyError> {
    solve_exact_auto_observed(problem, None, &mut NoopObserver)
}

/// [`solve_exact_auto`], optionally warm-starting from a previously solved
/// basis (see [`SolvedBasis`]), with a [`SolveObserver`] tap on every run the
/// strategy executes (see [`instrument`]).
///
/// Warm and cold solves of the same problem take the same route and return
/// the same exact optimum — the basis only changes where the `f64` search
/// *starts*.  The observer cannot influence the solve; with [`NoopObserver`]
/// this is the uninstrumented pipeline.
pub fn solve_exact_auto_observed<O: SolveObserver>(
    problem: &LpProblem,
    warm: Option<&SolvedBasis>,
    obs: &mut O,
) -> Result<CertifiedSolution, CertifyError> {
    exact::solve_certified_warm_observed(problem, &CertifyOptions::default(), warm, obs)
}

/// Solves `problem` exactly, resuming from `basis` with the **dual simplex**
/// (see [`solve_revised_dual_report_observed`]) and reporting how the basis
/// was used.
///
/// At every size the dual simplex runs in `f64`, the rationalized optimum is
/// certified, and a failed certification falls back to `revised<Ratio>`
/// seeded from the float basis.  Every path
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
    exact::solve_certified_dual_observed(problem, &CertifyOptions::default(), basis, obs)
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
    }
}
