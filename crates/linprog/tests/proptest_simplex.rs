//! Property-based tests for the simplex solvers.
//!
//! Random bounded feasible LPs are generated and the revised simplex's two
//! backends (f64 and exact rational) plus the certified pipeline are
//! cross-checked:
//! * the exact solution is feasible,
//! * the exact and floating objectives agree up to tolerance,
//! * the certified solution equals the exact-simplex solution's objective,
//! * the exact solution is at least as good as a sample of feasible points;
//! * the dual simplex resumed from a stale basis returns the cold optimum;
//! * perturbations the zero-pivot survival probe accepts keep the basis
//!   optimal, and the ones it rejects cost repair pivots.

use proptest::prelude::*;
use steady_lp::{
    basis_still_optimal, solve_exact, solve_exact_auto, solve_revised_dual_report_observed,
    solve_revised_report_observed, DualOutcome, LinearExpr, LpProblem, NoopObserver,
    RevisedOptions, Sense, SimplexError, Solution, SolvedBasis,
};
use steady_rational::{rat, Ratio};

/// The revised dual simplex over `Ratio`, resumed from `basis`.
fn solve_dual(
    lp: &LpProblem,
    basis: &SolvedBasis,
) -> Result<(Solution<Ratio>, DualOutcome), SimplexError> {
    let options = RevisedOptions::default();
    solve_revised_dual_report_observed(lp, basis, &options, &mut NoopObserver)
        .map(|(sol, outcome, _)| (sol, outcome))
}

/// The revised primal simplex, cold or resumed from `warm`.
fn solve_primal<S: steady_lp::Scalar>(
    lp: &LpProblem,
    warm: Option<&SolvedBasis>,
) -> Result<Solution<S>, SimplexError> {
    let options = RevisedOptions::default();
    solve_revised_report_observed(lp, warm, &options, &mut NoopObserver).map(|(sol, _)| sol)
}

#[derive(Debug, Clone)]
struct RandomLp {
    num_vars: usize,
    objective: Vec<(i64, i64)>,
    /// Each constraint: coefficients (numer, denom) per variable plus a rhs.
    constraints: Vec<(Vec<(i64, i64)>, i64)>,
}

fn random_lp_strategy() -> impl Strategy<Value = RandomLp> {
    (2usize..5, 1usize..5).prop_flat_map(|(nv, nc)| {
        let coeff = (0i64..6, 1i64..4);
        let objective = proptest::collection::vec((1i64..8, 1i64..3), nv);
        let constraint = (proptest::collection::vec(coeff, nv), 1i64..25);
        let constraints = proptest::collection::vec(constraint, nc);
        (objective, constraints).prop_map(move |(objective, constraints)| RandomLp {
            num_vars: nv,
            objective,
            constraints,
        })
    })
}

/// Builds the LP; every variable also gets an individual upper bound so the
/// problem is always bounded and feasible (origin is feasible).
fn build(lp_desc: &RandomLp) -> LpProblem {
    let mut lp = LpProblem::maximize();
    let vars: Vec<_> = (0..lp_desc.num_vars).map(|i| lp.add_var(format!("x{i}"))).collect();
    for (v, (n, d)) in vars.iter().zip(&lp_desc.objective) {
        lp.set_objective(*v, rat(*n, *d));
    }
    for (ci, (coeffs, rhs)) in lp_desc.constraints.iter().enumerate() {
        let mut e = LinearExpr::new();
        for (v, (n, d)) in vars.iter().zip(coeffs) {
            e.add_term(*v, rat(*n, *d));
        }
        if !e.is_empty() {
            lp.add_constraint(format!("c{ci}"), e, Sense::Le, rat(*rhs, 1));
        }
    }
    for (i, v) in vars.iter().enumerate() {
        lp.add_constraint(format!("ub{i}"), LinearExpr::var(*v), Sense::Le, rat(50, 1));
    }
    lp
}

/// Augments a random `Le`-only LP with the row shapes the steady-state LPs
/// live in: an equality tying a mirror variable to `x0` and a redundant
/// `>=` floor, both with rhs 0 — the artificial-column regime.
fn augment_with_eq_and_ge(lp: &mut LpProblem) {
    let vars: Vec<_> = lp.vars().collect();
    let mirror = lp.add_var("mirror");
    let mut tie = LinearExpr::new();
    tie.add_term(vars[0], rat(1, 1));
    tie.add_term(mirror, rat(-1, 1));
    lp.add_constraint("tie", tie, Sense::Eq, rat(0, 1));
    let mut floor = LinearExpr::new();
    floor.add_term(vars[0], rat(1, 1));
    floor.add_term(mirror, rat(1, 1));
    lp.add_constraint("floor", floor, Sense::Ge, rat(0, 1));
}

/// Clones `lp` with each constraint's rhs replaced (same variables, same
/// coefficients, same senses) — the LP builder is append-only, so rhs
/// perturbations go through a rebuild.
fn rebuild_with_rhs(lp: &LpProblem, rhs: &[Ratio]) -> LpProblem {
    let mut out = LpProblem::maximize();
    let vars: Vec<_> = lp.vars().map(|v| out.add_var(lp.var_name(v))).collect();
    for v in lp.vars() {
        out.set_objective(vars[v.index()], lp.objective_coeff(v).clone());
    }
    for (c, new_rhs) in lp.constraints().iter().zip(rhs) {
        let mut e = LinearExpr::new();
        for (v, coeff) in c.expr.terms() {
            e.add_term(vars[v.index()], coeff.clone());
        }
        out.add_constraint(c.name.clone(), e, c.sense, new_rhs.clone());
    }
    out
}

/// `lp` with every objective coefficient and every rhs multiplied by a
/// positive rational factor, cycling through the given `(n, d)` pairs.
fn scale(lp: &LpProblem, cost_scales: &[(i64, i64)], rhs_scales: &[(i64, i64)]) -> LpProblem {
    let mut scaled = lp.clone();
    let vars: Vec<_> = scaled.vars().collect();
    for (j, v) in vars.into_iter().enumerate() {
        let (n, d) = cost_scales[j % cost_scales.len()];
        let c = scaled.objective_coeff(v) * &rat(n, d);
        scaled.set_objective(v, c);
    }
    let rhs: Vec<Ratio> = lp
        .constraints()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let (n, d) = rhs_scales[i % rhs_scales.len()];
            &c.rhs * &rat(n, d)
        })
        .collect();
    rebuild_with_rhs(&scaled, &rhs)
}

/// Candidate values near `current`, on its side of zero: the perturbations
/// the ranging properties hand to the survival probe.
fn ladder(current: &Ratio) -> Vec<Ratio> {
    let scaled =
        [(1, 4), (1, 2), (3, 4), (5, 4), (3, 2), (2, 1), (4, 1)].map(|(n, d)| current * &rat(n, d));
    let shifted = [rat(1, 2), rat(1, 1), rat(10, 1)].map(|delta| current + &delta);
    scaled.into_iter().chain(shifted).collect()
}

/// `lp` rebuilt once per [`ladder`] value of constraint `i`'s rhs.
fn rhs_nudges(lp: &LpProblem, i: usize) -> Vec<LpProblem> {
    ladder(&lp.constraints()[i].rhs)
        .into_iter()
        .map(|target| {
            let mut rhs: Vec<Ratio> = lp.constraints().iter().map(|c| c.rhs.clone()).collect();
            rhs[i] = target;
            rebuild_with_rhs(lp, &rhs)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_solution_is_feasible_and_matches_f64(desc in random_lp_strategy()) {
        let lp = build(&desc);
        let exact = solve_exact(&lp).unwrap();
        prop_assert!(lp.check_feasible(&exact.values).is_ok());
        let float = solve_primal::<f64>(&lp, None).unwrap();
        let diff = (exact.objective.to_f64() - float.objective).abs();
        prop_assert!(diff <= 1e-6 * exact.objective.to_f64().abs().max(1.0),
            "exact {} vs f64 {}", exact.objective, float.objective);
    }

    #[test]
    fn certified_matches_exact(desc in random_lp_strategy()) {
        let lp = build(&desc);
        let exact = solve_exact(&lp).unwrap();
        let certified = solve_exact_auto(&lp).unwrap();
        prop_assert_eq!(certified.objective, exact.objective);
        prop_assert!(lp.check_feasible(&certified.values).is_ok());
    }

    #[test]
    fn optimum_dominates_random_feasible_points(
        desc in random_lp_strategy(),
        samples in proptest::collection::vec(proptest::collection::vec(0u16..100u16, 2..5), 1..8),
    ) {
        let lp = build(&desc);
        let exact = solve_exact(&lp).unwrap();
        for sample in samples {
            // Scale an arbitrary non-negative point until feasible (shrink toward 0).
            let mut point: Vec<Ratio> = (0..lp.num_vars())
                .map(|i| rat(*sample.get(i).unwrap_or(&0) as i64, 100))
                .collect();
            for _ in 0..12 {
                if lp.check_feasible(&point).is_ok() {
                    break;
                }
                for p in point.iter_mut() {
                    *p = &*p * &rat(1, 2);
                }
            }
            if lp.check_feasible(&point).is_ok() {
                let val = lp.objective_value(&point);
                prop_assert!(val <= exact.objective,
                    "feasible point with value {} beats 'optimal' {}", val, exact.objective);
            }
        }
    }

    #[test]
    fn dual_simplex_repair_is_exact_under_cost_and_rhs_perturbations(
        desc in random_lp_strategy(),
        cost_scales in proptest::collection::vec((1i64..6, 1i64..6), 8),
        rhs_scales in proptest::collection::vec((1i64..6, 1i64..6), 8),
    ) {
        // Solve the base LP, keep its optimal basis, then perturb every
        // objective coefficient and every rhs by random positive rational
        // factors.  Resuming the perturbed problem from the old basis with
        // the dual simplex must return the bit-identical exact optimum of a
        // cold solve, whatever reuse path it ends up taking.
        let base = build(&desc);
        let basis = solve_exact(&base).unwrap().basis;
        let rebuilt = scale(&base, &cost_scales, &rhs_scales);

        let cold = solve_exact(&rebuilt).unwrap();
        let (warm, outcome) = solve_dual(&rebuilt, &basis).unwrap();
        prop_assert_eq!(&warm.objective, &cold.objective);
        prop_assert!(rebuilt.check_feasible(&warm.values).is_ok());
        prop_assert_eq!(rebuilt.objective_value(&warm.values), cold.objective);
        // Pure rhs shrink/stretch keeps dual feasibility, so the repair
        // paths must at least be well-formed; nothing stronger is asserted
        // about *which* path ran — only that the answer is exact.
        match outcome {
            DualOutcome::StillOptimal => prop_assert_eq!(warm.iterations, 0),
            DualOutcome::DualRepaired { pivots } => prop_assert!(pivots >= 1),
            DualOutcome::PrimalReoptimized { pivots } => prop_assert!(pivots >= 1),
            DualOutcome::FellBack => {}
        }
    }

    #[test]
    fn dual_simplex_is_exact_on_lps_with_equality_and_ge_rows(
        desc in random_lp_strategy(),
        rhs_scales in proptest::collection::vec((1i64..6, 1i64..6), 8),
    ) {
        // The steady-state LPs live in the artificial-column regime
        // (zero-rhs equalities, >= rows), which plain `Le`-only instances
        // never reach.  Augment each random LP with an equality tying a
        // mirror variable to x0 and a redundant >= row, solve, perturb the
        // rhs, and demand the dual path still matches a cold solve exactly.
        let mut base = build(&desc);
        let vars: Vec<_> = base.vars().collect();
        let mirror = base.add_var("mirror");
        let mut tie = LinearExpr::new();
        tie.add_term(vars[0], rat(1, 1));
        tie.add_term(mirror, rat(-1, 1));
        base.add_constraint("tie", tie, Sense::Eq, rat(0, 1));
        let mut floor = LinearExpr::new();
        floor.add_term(vars[0], rat(1, 1));
        floor.add_term(mirror, rat(1, 1));
        base.add_constraint("floor", floor, Sense::Ge, rat(0, 1));

        let basis = solve_exact(&base).unwrap().basis;
        let rescaled: Vec<Ratio> = base
            .constraints()
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let (n, d) = rhs_scales[i % rhs_scales.len()];
                &c.rhs * &rat(n, d)
            })
            .collect();
        let rebuilt = rebuild_with_rhs(&base, &rescaled);
        let cold = solve_exact(&rebuilt).unwrap();
        let (warm, _) = solve_dual(&rebuilt, &basis).unwrap();
        prop_assert_eq!(&warm.objective, &cold.objective);
        prop_assert!(
            rebuilt.check_feasible(&warm.values).is_ok(),
            "dual reuse returned an infeasible point"
        );
        prop_assert_eq!(rebuilt.objective_value(&warm.values), cold.objective);
    }

    #[test]
    fn in_range_cost_perturbations_keep_the_vertex_optimal(
        desc in random_lp_strategy(),
        pick in 0usize..4,
    ) {
        // Every nudge of one objective coefficient that the survival probe
        // accepts must keep the old optimal vertex optimal, verified by an
        // independent cold re-solve.
        let lp = build(&desc);
        let cold = solve_exact(&lp).unwrap();
        prop_assert!(basis_still_optimal(&lp, &cold.basis), "the optimum fails its own probe");
        let v = lp.vars().nth(pick % lp.num_vars()).unwrap();
        for target in ladder(lp.objective_coeff(v)) {
            let mut nudged = lp.clone();
            nudged.set_objective(v, target);
            if !basis_still_optimal(&nudged, &cold.basis) {
                continue;
            }
            let re = solve_exact(&nudged).unwrap();
            prop_assert_eq!(
                nudged.objective_value(&cold.values),
                re.objective,
                "the old vertex must still be optimal where the probe holds"
            );
        }
    }

    #[test]
    fn in_range_rhs_perturbations_reprice_with_zero_pivots(
        desc in random_lp_strategy(),
        pick in 0usize..16,
    ) {
        // Every nudge of one right-hand side that the survival probe accepts
        // must keep the installed basis optimal: the dual warm start
        // re-prices it with zero pivots and the answer still equals an
        // independent cold solve.
        let mut lp = build(&desc);
        augment_with_eq_and_ge(&mut lp);
        let cold = solve_exact(&lp).unwrap();
        let i = pick % lp.num_constraints();
        for rebuilt in rhs_nudges(&lp, i) {
            if !basis_still_optimal(&rebuilt, &cold.basis) {
                continue;
            }
            let (warm, outcome) = solve_dual(&rebuilt, &cold.basis).unwrap();
            prop_assert!(
                matches!(outcome, DualOutcome::StillOptimal),
                "a probed rhs nudge was not re-priced in place: {outcome:?}"
            );
            prop_assert_eq!(warm.iterations, 0, "an in-range reprice must spend zero pivots");
            let re = solve_exact(&rebuilt).unwrap();
            prop_assert_eq!(warm.objective, re.objective);
        }
    }

    #[test]
    fn out_of_range_rhs_perturbations_force_repair_pivots(
        desc in random_lp_strategy(),
        pick in 0usize..16,
    ) {
        // Where the survival probe rejects a rhs nudge the old basis is
        // primal infeasible: restoring optimality costs at least one dual
        // repair pivot (or a full fallback / an infeasibility verdict) —
        // never a free StillOptimal re-price.
        let mut lp = build(&desc);
        augment_with_eq_and_ge(&mut lp);
        let cold = solve_exact(&lp).unwrap();
        let i = pick % lp.num_constraints();
        for rebuilt in rhs_nudges(&lp, i) {
            if basis_still_optimal(&rebuilt, &cold.basis) {
                continue;
            }
            match solve_dual(&rebuilt, &cold.basis) {
                Ok((warm, outcome)) => {
                    prop_assert!(
                        !matches!(outcome, DualOutcome::StillOptimal),
                        "an out-of-range rhs must not re-price for free"
                    );
                    if let DualOutcome::DualRepaired { pivots } = outcome {
                        prop_assert!(pivots >= 1);
                    }
                    let re = solve_exact(&rebuilt).unwrap();
                    prop_assert_eq!(warm.objective, re.objective);
                }
                // The nudge can empty the constraint set entirely: also not
                // StillOptimal.
                Err(SimplexError::Infeasible) => {
                    prop_assert_eq!(
                        solve_exact(&rebuilt).unwrap_err(),
                        SimplexError::Infeasible
                    );
                }
                Err(e) => return Err(TestCaseError::fail(format!("unexpected solver error: {e}"))),
            }
        }
    }

    #[test]
    fn survival_probe_agrees_with_the_dense_and_revised_warm_starts(
        desc in random_lp_strategy(),
        cost_scales in proptest::collection::vec((1i64..6, 1i64..6), 8),
        rhs_scales in proptest::collection::vec((1i64..6, 1i64..6), 8),
    ) {
        // On `Le`-only LPs the probe is exactly the dual warm start's
        // zero-pivot verdict.
        let base = build(&desc);
        let basis = solve_exact(&base).unwrap().basis;
        let drifted = scale(&base, &cost_scales, &rhs_scales);
        let (_, outcome) = solve_dual(&drifted, &basis).unwrap();
        prop_assert_eq!(
            basis_still_optimal(&drifted, &basis),
            outcome == DualOutcome::StillOptimal,
            "probe and dual re-price disagree ({:?})",
            outcome
        );

        // In the artificial-column regime, a basis the probe accepts resumes
        // the revised solver with zero pivots at the exact optimum.
        let mut base = build(&desc);
        augment_with_eq_and_ge(&mut base);
        let basis = solve_exact(&base).unwrap().basis;
        let drifted = scale(&base, &cost_scales, &rhs_scales);
        if basis_still_optimal(&drifted, &basis) {
            let warm = solve_primal::<Ratio>(&drifted, Some(&basis)).unwrap();
            prop_assert_eq!(warm.iterations, 0);
            prop_assert_eq!(warm.objective, solve_exact(&drifted).unwrap().objective);
        }
    }

    #[test]
    fn duals_certify_upper_bound(desc in random_lp_strategy()) {
        // Weak duality: for any feasible x, c.x <= b.y when y is the optimal dual.
        let lp = build(&desc);
        let exact = solve_exact(&lp).unwrap();
        let dual_obj: Ratio = lp.constraints().iter().zip(&exact.duals)
            .map(|(c, y)| &c.rhs * y).sum();
        prop_assert_eq!(dual_obj, exact.objective.clone());
    }
}
