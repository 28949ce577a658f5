//! Exact solutions and optimality certification.
//!
//! The paper's schedule-construction step needs the LP solution as *exact
//! rationals*: the period of the schedule is the least common multiple of the
//! denominators (§3.1, §4.2).  Every solve, at every size, takes one route:
//!
//! 1. **Search in `f64`** with the revised sparse simplex
//!    ([`crate::revised`]), from the triangular crash basis on a cold solve or
//!    from the supplied basis on a warm one.
//! 2. **Check exactly** with [`certify`]: *rationalize* the primal and dual
//!    solutions with continued fractions and verify in exact arithmetic that
//!    (a) the primal is feasible, (b) the dual is feasible, and (c) the two
//!    objective values coincide (strong duality).  When all three checks pass
//!    the rational primal solution is a certified optimum, with the heavy
//!    arithmetic done once instead of at every pivot.
//! 3. **Fall back** when the float run fails or a check fails: the revised
//!    simplex re-solves in [`Ratio`] arithmetic, seeded from the basis the
//!    float run ended on (usually already optimal), so its verdict is exact.
//!
//! This is the float-search-then-exact-check design of Applegate, Cook, Dash
//! & Espinoza, "Exact solutions to linear programming problems", *Oper. Res.
//! Lett.* 35 (2007).  The vertex solutions of the steady-state LPs have small
//! denominators (they solve linear systems with small integer data), so the
//! rationalization step recovers them exactly in practice — e.g. `2/9` for
//! the Figure-9/10 reduce experiment.
//!
//! The dual entry point ([`solve_exact_dual_auto`](crate::solve_exact_dual_auto))
//! searches with the revised `f64` dual simplex
//! ([`revised::solve_revised_dual_report_observed`]) from the supplied basis
//! instead, then certifies and falls back the same way.

use crate::instrument::{FallbackCause, NoopObserver, SolveEvent, SolveObserver};
use crate::model::{LpProblem, Objective, Sense};
use crate::revised::{self, RevisedOptions};
use crate::simplex::{DualOutcome, SimplexError, SimplexOptions, Solution, SolvedBasis};
use steady_rational::Ratio;

/// How the returned exact solution was validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Certificate {
    /// Primal feasibility, dual feasibility and zero duality gap were all
    /// verified in exact arithmetic: the solution is provably optimal.
    Optimal,
    /// The solution was produced by the exact rational simplex (optimal by
    /// construction).
    ExactSimplex,
}

/// An exact, certified LP solution.
#[derive(Debug, Clone)]
pub struct CertifiedSolution {
    /// Exact values of the structural variables.
    pub values: Vec<Ratio>,
    /// Exact objective value.
    pub objective: Ratio,
    /// Exact dual values, one per constraint, in the sign convention
    /// [`check_optimal`] verifies — on the certified path and on the exact
    /// fallback alike.
    pub duals: Vec<Ratio>,
    /// How optimality was established.
    pub certificate: Certificate,
    /// Total simplex pivots performed (f64 + fallback).
    pub iterations: usize,
    /// Pivots spent in phase 1 (feasibility search), summed over the same
    /// runs as [`iterations`](Self::iterations); the remainder is phase 2.
    pub phase1_iterations: usize,
    /// `true` when the underlying simplex resumed from a supplied basis.
    pub warm_started: bool,
    /// Final basis of the underlying simplex run, reusable to warm-start a
    /// structurally identical solve (`None` only for hand-built solutions).
    pub basis: Option<SolvedBasis>,
    /// Basis refactorizations performed by the revised sparse solver, summed
    /// over the `f64` and exact runs behind this solution.
    pub refactorizations: usize,
}

impl CertifiedSolution {
    /// Per-phase pivot accounting of the runs behind this solution.
    pub fn trace(&self) -> SolveTrace {
        SolveTrace {
            phase1_pivots: self.phase1_iterations,
            phase2_pivots: self.iterations - self.phase1_iterations,
            warm_started: self.warm_started,
        }
    }
}

/// Where a solve spent its pivots, split by simplex phase.
///
/// The observability layer surfaces one of these per query so latency
/// reports can distinguish feasibility search (phase 1) from optimization
/// (phase 2) — a warm start that *takes* skips phase 1 entirely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveTrace {
    /// Pivots spent restoring feasibility (phase 1), all runs summed.
    pub phase1_pivots: usize,
    /// Pivots spent optimizing from a feasible vertex (phase 2).
    pub phase2_pivots: usize,
    /// `true` when the simplex resumed from a supplied basis.
    pub warm_started: bool,
}

impl SolveTrace {
    /// Total pivots across both phases.
    pub fn total_pivots(&self) -> usize {
        self.phase1_pivots + self.phase2_pivots
    }
}

/// Options controlling [`solve_certified_warm`] and its siblings.  Every
/// problem, whatever its size, takes the one route of the module docs.
#[derive(Debug, Clone)]
pub struct CertifyOptions {
    /// Maximum denominator used when rationalizing `f64` values.
    pub max_denominator: u64,
    /// Pivot-rule options of every simplex run, `f64` and exact.
    pub simplex: SimplexOptions,
}

impl Default for CertifyOptions {
    fn default() -> Self {
        CertifyOptions { max_denominator: 1_000_000, simplex: SimplexOptions::default() }
    }
}

/// Errors returned by the certified solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertifyError {
    /// The underlying simplex failed (infeasible / unbounded / iteration limit).
    Simplex(SimplexError),
}

impl std::fmt::Display for CertifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertifyError::Simplex(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CertifyError {}

impl From<SimplexError> for CertifyError {
    fn from(e: SimplexError) -> Self {
        CertifyError::Simplex(e)
    }
}

/// Solves `problem` and returns an exact solution, preferring the fast
/// `f64`-then-certify path and falling back to the exact rational simplex,
/// optionally resuming the `f64` simplex from a previously solved basis.
///
/// The warm basis seeds the floating-point solve; when certification fails
/// and the exact rational simplex must re-solve, it is seeded with the
/// basis the `f64` run ended on — which is usually the optimal vertex, so
/// the expensive exact run mostly just confirms it.
pub fn solve_certified_warm(
    problem: &LpProblem,
    options: &CertifyOptions,
    warm: Option<&SolvedBasis>,
) -> Result<CertifiedSolution, CertifyError> {
    solve_certified_warm_observed(problem, options, warm, &mut NoopObserver)
}

/// [`solve_certified_warm`] with a [`SolveObserver`] tap on every run the
/// pipeline executes — the `f64` attempt, the [`SolveEvent::CertifyStarted`]
/// marker, any exact fallback run (preceded by a [`SolveEvent::Fallback`]
/// naming the cause), and the warm-start install outcomes inside each.
///
/// Event-conservation caveat: when the `f64` run *errors out* mid-solve its
/// already-emitted pivot events stay in the stream, while the returned
/// iteration counts come from the fresh exact run only — so observed pivots
/// can exceed reported `iterations` exactly when the stream carries a
/// `float-failed` fallback marker.  (A `certification-failed` fallback keeps
/// both runs' counts, so conservation holds there.)
pub fn solve_certified_warm_observed<O: SolveObserver>(
    problem: &LpProblem,
    options: &CertifyOptions,
    warm: Option<&SolvedBasis>,
    obs: &mut O,
) -> Result<CertifiedSolution, CertifyError> {
    // The one primal route, at every size: `revised<f64>` from the crash (or
    // the supplied basis), then `certify`.  Measured on `cold_solve` (paper
    // scale, 11 to 221 variables) at `--seconds 5 --seed 42` against the old
    // three-way size split (p50 / p90 ≈ 159 / 850 µs):
    //
    // | variant                                  | p50    | p90      | CPU/op |
    // |------------------------------------------|--------|----------|--------|
    // | `revised<Ratio>` from the crash          | 133 µs | 2 448 µs |        |
    // | `revised<f64>` + exact basis install     | 172 µs |          |        |
    // | dense `f64` + `certify`                  | 106 µs |   880 µs | 293 µs |
    // | `revised<f64>` + `certify` (this route)  | 110 µs |   832 µs | 274 µs |
    //
    // Exact search loses on the random-tree reduces (221 × 88: 1.4 to 5.8 ms
    // each); an exact install costs 3 to 4 times what `certify` does at this
    // size (58 against 16 µs on a 51 × 42 scatter); this route needs no size
    // cut-off at any scale.
    let (float, stats) = match revised::solve_revised_report_observed::<f64, O>(
        problem,
        warm,
        &revised_options(options),
        obs,
    ) {
        Ok(solved) => solved,
        // The f64 simplex is an accelerator, never an authority: round-off
        // can produce a spurious Unbounded (a near-zero pivot column read as
        // non-positive in the ratio test) or Infeasible verdict on a
        // well-posed LP, and *which* pivot path is taken depends on row
        // order, so the failure is formulation-order dependent.  The exact
        // rational simplex decides from scratch; only its verdict is real.
        Err(_) => {
            if O::ENABLED {
                obs.on_event(SolveEvent::Fallback { cause: FallbackCause::FloatFailed });
            }
            return exact_resolve(problem, options, None, 0, obs);
        }
    };
    certify_or_resolve(problem, options, &float, stats.refactorizations, obs)
}

/// The revised solver's options for a certified solve.
fn revised_options(options: &CertifyOptions) -> RevisedOptions {
    RevisedOptions { simplex: options.simplex.clone(), ..RevisedOptions::default() }
}

/// The exact fallback: `revised<Ratio>` seeded from the basis `float` ended
/// on, or from the crash when the float run failed (`None`).  The revised
/// solver itself retreats to a cold crash start when that basis is singular
/// or infeasible for the data, so an infeasible float vertex cannot read as
/// unbounded.  The float run's pivots and `float_refactorizations` are
/// counted in.
fn exact_resolve<O: SolveObserver>(
    problem: &LpProblem,
    options: &CertifyOptions,
    float: Option<&Solution<f64>>,
    float_refactorizations: usize,
    obs: &mut O,
) -> Result<CertifiedSolution, CertifyError> {
    let (exact, stats) = revised::solve_revised_report_observed::<Ratio, O>(
        problem,
        float.map(|f| &f.basis),
        &revised_options(options),
        obs,
    )?;
    let (iterations, phase1_iterations, warm_started) =
        float.map_or((0, 0, false), |f| (f.iterations, f.phase1_iterations, f.warm_started));
    Ok(CertifiedSolution {
        values: exact.values,
        objective: exact.objective,
        duals: exact.duals,
        certificate: Certificate::ExactSimplex,
        iterations: iterations + exact.iterations,
        phase1_iterations: phase1_iterations + exact.phase1_iterations,
        // Caller-perspective flag: did the *supplied* basis take?  The exact
        // re-solve is always internally seeded from the f64 basis.
        warm_started,
        basis: Some(exact.basis),
        refactorizations: float_refactorizations + stats.refactorizations,
    })
}

/// The shared tail of both certified entry points: [`certify`] the float
/// answer (behind a [`SolveEvent::CertifyStarted`] marker), or re-solve
/// exactly from its basis.
/// `refactorizations` is what the float run already spent.
fn certify_or_resolve<O: SolveObserver>(
    problem: &LpProblem,
    options: &CertifyOptions,
    float: &Solution<f64>,
    refactorizations: usize,
    obs: &mut O,
) -> Result<CertifiedSolution, CertifyError> {
    if O::ENABLED {
        obs.on_event(SolveEvent::CertifyStarted);
    }
    match certify(problem, float, options.max_denominator) {
        Ok(sol) => Ok(CertifiedSolution { refactorizations, ..sol }),
        Err(reason) => {
            if O::ENABLED {
                obs.on_event(SolveEvent::Fallback {
                    cause: FallbackCause::CertificationFailed { reason },
                });
            }
            exact_resolve(problem, options, Some(float), refactorizations, obs)
        }
    }
}

/// [`solve_certified_warm_observed`]'s **dual-simplex** sibling: the `f64`
/// simplex resumes from `basis` via
/// [`revised::solve_revised_dual_report_observed`], the rationalized
/// optimum is certified exactly, and a failed certification falls back to
/// `revised<Ratio>` seeded with the basis the float run ended on.
///
/// The returned [`DualOutcome`] describes the float run (how the basis was
/// used); the solution itself is exact on every path.  Events follow the
/// semantics and conservation caveat of [`solve_certified_warm_observed`];
/// the `f64`-error fallback here emits [`FallbackCause::DualFloatFailed`].
pub(crate) fn solve_certified_dual_observed<O: SolveObserver>(
    problem: &LpProblem,
    options: &CertifyOptions,
    basis: &SolvedBasis,
    obs: &mut O,
) -> Result<(CertifiedSolution, DualOutcome), CertifyError> {
    let attempt = revised::solve_revised_dual_report_observed::<f64, O>(
        problem,
        basis,
        &revised_options(options),
        obs,
    );
    let (float, outcome, stats) = match attempt {
        Ok(solved) => solved,
        // Same fallback-not-verdict rule as `solve_certified_warm`: an f64
        // failure (spurious Unbounded/Infeasible from round-off, or a basis
        // that drove the float run astray) means the basis saved nothing —
        // resolve cold through the certified pipeline, whose exact stage is
        // the authority.
        Err(_) => {
            if O::ENABLED {
                obs.on_event(SolveEvent::Fallback { cause: FallbackCause::DualFloatFailed });
            }
            let sol = solve_certified_warm_observed(problem, options, None, obs)?;
            return Ok((sol, DualOutcome::FellBack));
        }
    };
    Ok((certify_or_resolve(problem, options, &float, stats.refactorizations, obs)?, outcome))
}

/// Rationalizes a floating-point solution and verifies optimality exactly.
///
/// Returns `Err(reason)` when any of the exact checks fails.
pub fn certify(
    problem: &LpProblem,
    float: &Solution<f64>,
    max_denominator: u64,
) -> Result<CertifiedSolution, String> {
    // Rationalize the primal.
    let mut values = Vec::with_capacity(float.values.len());
    for (i, &v) in float.values.iter().enumerate() {
        let r = Ratio::approximate_f64(v, max_denominator)
            .ok_or_else(|| format!("variable {i} is not finite"))?;
        // Clamp tiny negatives produced by round-off.
        values.push(if r.is_negative() { Ratio::zero() } else { r });
    }

    // Rationalize the dual.
    let mut duals = Vec::with_capacity(float.duals.len());
    for (i, &y) in float.duals.iter().enumerate() {
        let r = Ratio::approximate_f64(y, max_denominator)
            .ok_or_else(|| format!("dual {i} is not finite"))?;
        duals.push(r);
    }

    let primal_obj = check_optimal(problem, &values, &duals)?;

    Ok(CertifiedSolution {
        values,
        objective: primal_obj,
        duals,
        certificate: Certificate::Optimal,
        iterations: float.iterations,
        phase1_iterations: float.phase1_iterations,
        warm_started: float.warm_started,
        basis: Some(float.basis.clone()),
        refactorizations: 0,
    })
}

/// The exact optimality proof behind [`certify`]: `values` is primal
/// feasible, `duals` is dual feasible (sign conditions and `Aᵀy ≥ c`), and
/// the two objectives coincide (strong duality).  Returns that common
/// objective value, or the reason the pair proves nothing.
pub fn check_optimal(
    problem: &LpProblem,
    values: &[Ratio],
    duals: &[Ratio],
) -> Result<Ratio, String> {
    problem.check_feasible(values).map_err(|e| format!("primal infeasible: {e}"))?;
    let primal_obj = problem.objective_value(values);

    check_dual_feasible(problem, duals).map_err(|e| format!("dual infeasible: {e}"))?;
    let dual_obj: Ratio = problem.constraints().iter().zip(duals).map(|(c, y)| &c.rhs * y).sum();

    let gap = match problem.direction() {
        Objective::Maximize => &dual_obj - &primal_obj,
        Objective::Minimize => &primal_obj - &dual_obj,
    };
    if !gap.is_zero() {
        return Err(format!("duality gap is {gap} (primal {primal_obj}, dual {dual_obj})"));
    }
    Ok(primal_obj)
}

/// Exact dual feasibility for `max { c x : A x (<=,=,>=) b, x >= 0 }`:
/// sign conditions on `y` plus `A^T y >= c` componentwise (reversed for
/// minimization problems).
fn check_dual_feasible(problem: &LpProblem, duals: &[Ratio]) -> Result<(), String> {
    if duals.len() != problem.num_constraints() {
        return Err(format!(
            "dual vector has {} entries for {} constraints",
            duals.len(),
            problem.num_constraints()
        ));
    }
    let maximize = matches!(problem.direction(), Objective::Maximize);
    for (c, y) in problem.constraints().iter().zip(duals) {
        let ok = match (c.sense, maximize) {
            (Sense::Le, true) | (Sense::Ge, false) => !y.is_negative(),
            (Sense::Ge, true) | (Sense::Le, false) => !y.is_positive(),
            (Sense::Eq, _) => true,
        };
        if !ok {
            return Err(format!("dual of constraint '{}' has the wrong sign ({y})", c.name));
        }
    }
    // Column constraints: for every structural variable j,
    //   sum_i A_ij y_i >= c_j   (maximize)   /   <= c_j (minimize).
    let mut column_sums = vec![Ratio::zero(); problem.num_vars()];
    for (c, y) in problem.constraints().iter().zip(duals) {
        if y.is_zero() {
            continue;
        }
        for (v, coeff) in c.expr.terms() {
            column_sums[v.index()] += coeff * y;
        }
    }
    for (j, sum) in column_sums.iter().enumerate() {
        let c_j = &problem.objective_vector()[j];
        let ok = if maximize { sum >= c_j } else { sum <= c_j };
        if !ok {
            return Err(format!(
                "dual constraint for variable {} violated ({sum} vs {c_j})",
                problem.var_name(crate::model::VarId(j))
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinearExpr, LpProblem, Sense};
    use crate::solve_exact_auto;
    use steady_rational::rat;

    fn expr(terms: &[(crate::model::VarId, Ratio)]) -> LinearExpr {
        let mut e = LinearExpr::new();
        for (v, c) in terms {
            e.add_term(*v, c.clone());
        }
        e
    }

    fn sample_lp() -> LpProblem {
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(x, rat(3, 1));
        lp.set_objective(y, rat(2, 1));
        lp.add_constraint("c1", expr(&[(x, rat(1, 1)), (y, rat(1, 1))]), Sense::Le, rat(4, 1));
        lp.add_constraint("c2", expr(&[(x, rat(1, 1)), (y, rat(3, 1))]), Sense::Le, rat(6, 1));
        lp
    }

    #[test]
    fn certified_simple() {
        let sol = solve_exact_auto(&sample_lp()).unwrap();
        assert_eq!(sol.objective, rat(12, 1));
        assert_eq!(sol.certificate, Certificate::Optimal);
        assert_eq!(sol.values, vec![rat(4, 1), rat(0, 1)]);
    }

    /// A coefficient of `1/10^400` underflows to `0.0` in `f64`, so the float
    /// ratio test sees no blocking row and reports the LP unbounded — yet the
    /// problem is exactly bounded (`x ≤ 10^400`).  The certified pipeline
    /// must treat the f64 stage as an accelerator and let the exact simplex
    /// overrule its spurious verdict, for both the warm/cold and the dual
    /// entry points.
    #[test]
    fn spurious_float_unbounded_falls_back_to_exact() {
        use steady_rational::bigint::BigInt;

        let tiny = Ratio::new(BigInt::from(1i64), BigInt::from(10i64).pow(400));
        assert_eq!(tiny.to_f64(), 0.0, "the premise: the coefficient underflows");

        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        lp.set_objective(x, rat(1, 1));
        lp.add_constraint("cap", expr(&[(x, tiny.clone())]), Sense::Le, rat(1, 1));

        let bound = Ratio::new(BigInt::from(10i64).pow(400), BigInt::from(1i64));
        let sol = solve_exact_auto(&lp).expect("the exact stage overrules the float verdict");
        assert_eq!(sol.objective, bound);
        assert_eq!(sol.certificate, Certificate::ExactSimplex);

        let basis = solve_exact_auto(&lp).unwrap().basis.expect("certified solves carry a basis");
        let (dual_sol, _) = solve_certified_dual_observed(
            &lp,
            &CertifyOptions::default(),
            &basis,
            &mut NoopObserver,
        )
        .expect("the dual entry point falls back instead of erroring");
        assert_eq!(dual_sol.objective, bound);
    }

    #[test]
    fn certified_fractional() {
        // Optimum with denominators that the continued-fraction step must recover.
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(x, rat(1, 1));
        lp.set_objective(y, rat(1, 1));
        lp.add_constraint("a", expr(&[(x, rat(2, 1)), (y, rat(1, 1))]), Sense::Le, rat(1, 1));
        lp.add_constraint("b", expr(&[(x, rat(1, 1)), (y, rat(3, 1))]), Sense::Le, rat(1, 1));
        let sol = solve_exact_auto(&lp).unwrap();
        assert_eq!(sol.values, vec![rat(2, 5), rat(1, 5)]);
        assert_eq!(sol.objective, rat(3, 5));
        assert_eq!(sol.certificate, Certificate::Optimal);
    }

    #[test]
    fn certified_with_equalities() {
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        let z = lp.add_var("z");
        lp.set_objective(z, rat(1, 1));
        lp.add_constraint("flow", expr(&[(x, rat(1, 1)), (y, rat(-1, 1))]), Sense::Eq, rat(0, 1));
        lp.add_constraint("capx", expr(&[(x, rat(3, 1))]), Sense::Le, rat(1, 1));
        lp.add_constraint("link", expr(&[(z, rat(1, 1)), (y, rat(-1, 1))]), Sense::Le, rat(0, 1));
        let sol = solve_exact_auto(&lp).unwrap();
        assert_eq!(sol.objective, rat(1, 3));
    }

    #[test]
    fn infeasible_propagates() {
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        lp.set_objective(x, rat(1, 1));
        lp.add_constraint("lo", expr(&[(x, rat(1, 1))]), Sense::Ge, rat(5, 1));
        lp.add_constraint("hi", expr(&[(x, rat(1, 1))]), Sense::Le, rat(3, 1));
        assert!(matches!(
            solve_exact_auto(&lp),
            Err(CertifyError::Simplex(SimplexError::Infeasible))
        ));
    }

    #[test]
    fn certify_rejects_wrong_objective() {
        // Hand a deliberately sub-optimal "solution" to certify(): the duality
        // gap check must reject it.
        let lp = sample_lp();
        let float = Solution {
            values: vec![1.0, 1.0],
            objective: 5.0,
            duals: vec![0.0, 0.0],
            iterations: 0,
            phase1_iterations: 0,
            warm_started: false,
            basis: crate::simplex::SolvedBasis::default(),
        };
        let err = certify(&lp, &float, 1_000_000).unwrap_err();
        assert!(err.contains("dual") || err.contains("gap"), "unexpected reason: {err}");
    }

    #[test]
    fn certify_rejects_infeasible_primal() {
        let lp = sample_lp();
        let float = Solution {
            values: vec![10.0, 0.0],
            objective: 30.0,
            duals: vec![3.0, 0.0],
            iterations: 0,
            phase1_iterations: 0,
            warm_started: false,
            basis: crate::simplex::SolvedBasis::default(),
        };
        let err = certify(&lp, &float, 1_000_000).unwrap_err();
        assert!(err.contains("primal infeasible"), "unexpected reason: {err}");
    }

    #[test]
    fn fallback_to_exact_simplex() {
        // Force the certification path to fail by using a max denominator of 1:
        // fractional optima cannot be represented, so the solver must fall back.
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(x, rat(1, 1));
        lp.set_objective(y, rat(1, 1));
        lp.add_constraint("a", expr(&[(x, rat(2, 1)), (y, rat(1, 1))]), Sense::Le, rat(1, 1));
        lp.add_constraint("b", expr(&[(x, rat(1, 1)), (y, rat(3, 1))]), Sense::Le, rat(1, 1));
        let opts = CertifyOptions { max_denominator: 1, ..Default::default() };
        let sol = solve_certified_warm(&lp, &opts, None).unwrap();
        assert_eq!(sol.certificate, Certificate::ExactSimplex);
        assert_eq!(sol.objective, rat(3, 5));

        // The float optimum itself is fine; only its rationalization fails.
        let (float, _) = revised::solve_revised_report_observed::<f64, _>(
            &lp,
            None,
            &RevisedOptions::default(),
            &mut NoopObserver,
        )
        .unwrap();
        assert!(certify(&lp, &float, 1).is_err());
    }

    #[test]
    fn minimization_certified() {
        let mut lp = LpProblem::minimize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(x, rat(1, 1));
        lp.set_objective(y, rat(1, 1));
        lp.add_constraint("a", expr(&[(x, rat(1, 1)), (y, rat(2, 1))]), Sense::Ge, rat(4, 1));
        lp.add_constraint("b", expr(&[(x, rat(3, 1)), (y, rat(1, 1))]), Sense::Ge, rat(6, 1));
        // The route must certify from its own duals: a minimization's come
        // out in its own sense, or `check_optimal` rejects them by sign and
        // the answer is an uncertified exact re-solve.
        let sol = solve_exact_auto(&lp).unwrap();
        assert_eq!(sol.objective, rat(14, 5));
        assert_eq!(sol.certificate, Certificate::Optimal);
        assert_eq!(check_optimal(&lp, &sol.values, &sol.duals), Ok(rat(14, 5)));
        // The exact solvers agree with that convention, oracle and revised.
        let dense = crate::simplex::dense::solve_exact(&lp).unwrap();
        assert_eq!(check_optimal(&lp, &dense.values, &dense.duals), Ok(rat(14, 5)));
        let sparse = revised::solve_exact(&lp).unwrap();
        assert_eq!(check_optimal(&lp, &sparse.values, &sparse.duals), Ok(rat(14, 5)));
    }
}
