//! Property tests of the observer contract (see `steady_lp::instrument`):
//!
//! 1. **Observation never changes results** — a solve with any observer
//!    attached returns bit-identical values, objective, duals, basis and
//!    per-phase pivot counts to the unobserved solve, on the revised primal
//!    and dual-simplex paths and through the certified pipeline.
//! 2. **Event-stream conservation** — `Pivot` events equal the reported
//!    `iterations` (and phase-1 pivot events equal `phase1_iterations`):
//!    uncounted pivots (basis installs, artificial drive-out) emit no
//!    events, and counted pivots are never dropped.

use proptest::prelude::*;
use steady_lp::{
    solve_exact, solve_exact_auto, solve_exact_auto_observed, solve_exact_dual_auto,
    solve_exact_dual_auto_observed, solve_revised_dual_report_observed,
    solve_revised_report_observed, LinearExpr, LpProblem, NoopObserver, RecordingObserver,
    RevisedOptions, Sense, SolveEvent, SolvePhase, SolveRecording,
};
use steady_rational::{rat, Ratio};

#[derive(Debug, Clone)]
struct RandomLp {
    num_vars: usize,
    objective: Vec<(i64, i64)>,
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

/// Eq/Ge rows with rhs 0: the artificial-column regime of the steady LPs.
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

fn pivot_counts(rec: &SolveRecording) -> (usize, usize) {
    let mut total = 0;
    let mut phase1 = 0;
    for e in &rec.events {
        if let SolveEvent::Pivot { phase, .. } = &e.event {
            total += 1;
            if *phase == SolvePhase::Phase1 {
                phase1 += 1;
            }
        }
    }
    (total, phase1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn revised_solve_is_unchanged_and_conserving_under_observation(desc in random_lp_strategy()) {
        let mut lp = build(&desc);
        augment_with_eq_and_ge(&mut lp);
        let plain = solve_exact(&lp).unwrap();

        let mut rec = RecordingObserver::unbounded();
        let (observed, stats) = solve_revised_report_observed::<Ratio, _>(
            &lp, None, &RevisedOptions::default(), &mut rec,
        ).unwrap();
        let recording = rec.finish();

        prop_assert_eq!(&observed.values, &plain.values);
        prop_assert_eq!(&observed.objective, &plain.objective);
        prop_assert_eq!(&observed.duals, &plain.duals);
        prop_assert_eq!(&observed.basis.cols, &plain.basis.cols);
        prop_assert_eq!(observed.iterations, plain.iterations);
        prop_assert_eq!(observed.phase1_iterations, plain.phase1_iterations);

        let (pivots, phase1) = pivot_counts(&recording);
        prop_assert_eq!(pivots, plain.iterations);
        prop_assert_eq!(phase1, plain.phase1_iterations);
        // The health aggregate agrees with the solver's own work counters.
        prop_assert_eq!(recording.health.refactorizations, stats.refactorizations);
        prop_assert_eq!(recording.health.peak_eta, stats.peak_eta);
    }

    #[test]
    fn dual_solve_is_unchanged_and_conserving_under_observation(
        desc in random_lp_strategy(),
        cost_scales in proptest::collection::vec((1i64..6, 1i64..6), 8),
    ) {
        // Solve, perturb the costs, then resume from the stale basis with
        // the dual simplex — the drift-triage path.
        let mut lp = build(&desc);
        augment_with_eq_and_ge(&mut lp);
        let basis = solve_exact(&lp).unwrap().basis;
        let vars: Vec<_> = lp.vars().collect();
        for (j, v) in vars.into_iter().enumerate() {
            let (n, d) = cost_scales[j % cost_scales.len()];
            let scaled = lp.objective_coeff(v) * &rat(n, d);
            lp.set_objective(v, scaled);
        }

        let options = RevisedOptions::default();
        let (plain, plain_outcome, plain_stats) = solve_revised_dual_report_observed::<Ratio, _>(
            &lp, &basis, &options, &mut NoopObserver,
        ).unwrap();

        let mut rec = RecordingObserver::unbounded();
        let (observed, outcome, stats) = solve_revised_dual_report_observed::<Ratio, _>(
            &lp, &basis, &options, &mut rec,
        ).unwrap();
        let recording = rec.finish();

        prop_assert_eq!(outcome, plain_outcome);
        prop_assert_eq!(&observed.values, &plain.values);
        prop_assert_eq!(&observed.objective, &plain.objective);
        prop_assert_eq!(&observed.duals, &plain.duals);
        prop_assert_eq!(&observed.basis.cols, &plain.basis.cols);
        prop_assert_eq!(observed.iterations, plain.iterations);
        prop_assert_eq!(observed.phase1_iterations, plain.phase1_iterations);

        prop_assert_eq!(stats, plain_stats);

        let (pivots, phase1) = pivot_counts(&recording);
        prop_assert_eq!(pivots, plain.iterations);
        prop_assert_eq!(phase1, plain.phase1_iterations);
        prop_assert_eq!(recording.health.refactorizations, stats.refactorizations);
        prop_assert_eq!(recording.health.peak_eta, stats.peak_eta);
    }

    #[test]
    fn certified_pipeline_reconciles_with_reported_counters(desc in random_lp_strategy()) {
        let mut lp = build(&desc);
        augment_with_eq_and_ge(&mut lp);
        let plain = solve_exact_auto(&lp).unwrap();

        let mut rec = RecordingObserver::unbounded();
        let observed = solve_exact_auto_observed(&lp, None, &mut rec).unwrap();
        let recording = rec.finish();

        prop_assert_eq!(&observed.values, &plain.values);
        prop_assert_eq!(&observed.objective, &plain.objective);
        prop_assert_eq!(&observed.duals, &plain.duals);
        prop_assert_eq!(observed.iterations, plain.iterations);
        prop_assert_eq!(observed.phase1_iterations, plain.phase1_iterations);

        // Conservation holds whenever no run was abandoned on an f64 error
        // (see `solve_certified_warm_observed`'s caveat); abandoned-run
        // pivots can only add to the stream, never subtract.
        let (pivots, _) = pivot_counts(&recording);
        match &recording.health.fallback {
            None | Some(steady_lp::FallbackCause::CertificationFailed { .. }) => {
                prop_assert_eq!(pivots, plain.iterations);
            }
            _ => prop_assert!(pivots >= plain.iterations),
        }
    }

    #[test]
    fn certified_dual_route_reconciles_with_reported_counters(
        desc in random_lp_strategy(),
        cost_scales in proptest::collection::vec((1i64..6, 1i64..6), 8),
    ) {
        // The drift-triage route: a stale basis, resumed by the revised `f64`
        // dual simplex, then certified.  Its refactorizations now come from
        // the runs themselves, so the stream must reconcile with them too.
        let mut lp = build(&desc);
        augment_with_eq_and_ge(&mut lp);
        let basis = solve_exact(&lp).unwrap().basis;
        let vars: Vec<_> = lp.vars().collect();
        for (j, v) in vars.into_iter().enumerate() {
            let (n, d) = cost_scales[j % cost_scales.len()];
            let scaled = lp.objective_coeff(v) * &rat(n, d);
            lp.set_objective(v, scaled);
        }
        let (plain, plain_outcome) = solve_exact_dual_auto(&lp, &basis).unwrap();

        let mut rec = RecordingObserver::unbounded();
        let (observed, outcome) = solve_exact_dual_auto_observed(&lp, &basis, &mut rec).unwrap();
        let recording = rec.finish();

        prop_assert_eq!(outcome, plain_outcome);
        prop_assert_eq!(&observed.values, &plain.values);
        prop_assert_eq!(&observed.objective, &plain.objective);
        prop_assert_eq!(&observed.duals, &plain.duals);
        prop_assert_eq!(observed.iterations, plain.iterations);
        prop_assert_eq!(observed.phase1_iterations, plain.phase1_iterations);
        prop_assert_eq!(observed.refactorizations, plain.refactorizations);

        // The same caveat as the primal route: only a run abandoned on an
        // `f64` error leaves uncounted work in the stream.
        let refactors = recording.health.refactorizations;
        let (pivots, _) = pivot_counts(&recording);
        match &recording.health.fallback {
            None | Some(steady_lp::FallbackCause::CertificationFailed { .. }) => {
                prop_assert_eq!(refactors, plain.refactorizations);
                prop_assert_eq!(pivots, plain.iterations);
            }
            _ => {
                prop_assert!(refactors >= plain.refactorizations);
                prop_assert!(pivots >= plain.iterations);
            }
        }
    }
}
