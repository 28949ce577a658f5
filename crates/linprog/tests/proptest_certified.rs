//! Property tests of the certified pipeline's one route at the sizes the old
//! direct exact-simplex route used to take (vars × rows ≤ 2 000).
//!
//! Random small LPs mix `≤` / `≥` / `=` rows, zero-rhs equalities with
//! degenerate optima, minimizations, and infeasible and unbounded programs.
//! Each goes through [`solve_exact_auto`] cold, and through
//! [`solve_exact_dual_auto`] from the optimal basis of a perturbed copy.
//! Both must return the exact simplex's verdict or objective, with a
//! primal/dual pair that [`check_optimal`] accepts.

use proptest::prelude::*;
use steady_lp::{
    check_optimal, solve_exact, solve_exact_auto, solve_exact_dual_auto, CertifiedSolution,
    CertifyError, LinearExpr, LpProblem, Sense, SimplexError, Solution,
};
use steady_rational::{rat, Ratio};

/// One row: `(numerator, denominator)` per variable, sense selector, rhs.
type Row = (Vec<(i64, i64)>, u8, i64);

#[derive(Debug, Clone)]
struct RandomLp {
    minimize: bool,
    objective: Vec<(i64, i64)>,
    rows: Vec<Row>,
    /// Whether every variable gets an upper bound `x ≤ 6`; without one, some
    /// programs are unbounded.
    bounded: bool,
}

fn random_lp_strategy() -> impl Strategy<Value = RandomLp> {
    (2usize..6, 1usize..6).prop_flat_map(|(nv, nc)| {
        let coeff = (-2i64..4, 1i64..3);
        // A zero rhs one time in two: the degenerate regime of the paper's
        // conservation rows.
        let rhs = prop_oneof![Just(0i64), -3i64..10];
        let row = (proptest::collection::vec(coeff, nv), 0u8..3, rhs);
        let objective = proptest::collection::vec((-2i64..6, 1i64..3), nv);
        (any::<bool>(), objective, proptest::collection::vec(row, nc), any::<bool>()).prop_map(
            |(minimize, objective, rows, bounded)| RandomLp { minimize, objective, rows, bounded },
        )
    })
}

/// Builds the LP, with every cost multiplied by `cost_scale[j]` and every
/// nonzero rhs shifted by `rhs_shift` — the identity for `(&[], 0)`.  Zero
/// rhs stay zero, so a perturbed copy keeps its degenerate rows.
fn build(desc: &RandomLp, cost_scale: &[(i64, i64)], rhs_shift: i64) -> LpProblem {
    let mut lp = if desc.minimize { LpProblem::minimize() } else { LpProblem::maximize() };
    let vars: Vec<_> = (0..desc.objective.len()).map(|i| lp.add_var(format!("x{i}"))).collect();
    for (j, (v, (n, d))) in vars.iter().zip(&desc.objective).enumerate() {
        let (sn, sd) = cost_scale.get(j).copied().unwrap_or((1, 1));
        lp.set_objective(*v, rat(n * sn, d * sd));
    }
    for (i, (coeffs, sense, rhs)) in desc.rows.iter().enumerate() {
        let mut e = LinearExpr::new();
        for (v, (n, d)) in vars.iter().zip(coeffs) {
            e.add_term(*v, rat(*n, *d));
        }
        let sense = [Sense::Le, Sense::Ge, Sense::Eq][*sense as usize];
        let rhs = if *rhs == 0 { 0 } else { rhs + rhs_shift };
        lp.add_constraint(format!("r{i}"), e, sense, rat(rhs, 1));
    }
    if desc.bounded {
        for (j, v) in vars.iter().enumerate() {
            lp.add_constraint(format!("ub{j}"), LinearExpr::var(*v), Sense::Le, rat(6, 1));
        }
    }
    lp
}

/// The certified answer agrees with the exact simplex: the same error
/// verdict, or the same objective proven by the answer's own primal/dual
/// pair.
fn agrees(
    lp: &LpProblem,
    reference: &Result<Solution<Ratio>, SimplexError>,
    got: &Result<CertifiedSolution, CertifyError>,
) -> Result<(), TestCaseError> {
    match (reference, got) {
        (Ok(reference), Ok(sol)) => {
            prop_assert_eq!(&sol.objective, &reference.objective);
            prop_assert_eq!(
                check_optimal(lp, &sol.values, &sol.duals),
                Ok(reference.objective.clone())
            );
        }
        (Err(verdict), Err(CertifyError::Simplex(got))) => prop_assert_eq!(got, verdict),
        (reference, got) => {
            prop_assert!(false, "reference {:?} but the route gave {:?}", reference, got)
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_route_agrees_with_the_exact_simplex_cold_and_dual(
        desc in random_lp_strategy(),
        cost_scale in proptest::collection::vec((1i64..5, 1i64..5), 5),
        rhs_shift in -2i64..3,
    ) {
        let lp = build(&desc, &[], 0);
        let reference = solve_exact(&lp);
        agrees(&lp, &reference, &solve_exact_auto(&lp))?;

        // Drift triage: the optimal basis of a perturbed copy, resumed on
        // the original with the dual simplex.
        let perturbed = build(&desc, &cost_scale, rhs_shift);
        if let Ok(stale) = solve_exact_auto(&perturbed) {
            let basis = stale.basis.expect("a certified solve carries its basis");
            let dual = solve_exact_dual_auto(&lp, &basis).map(|(sol, _)| sol);
            agrees(&lp, &reference, &dual)?;
        }
    }
}
