//! Basis-reuse triage: classify a drifted solve by how much of the cached
//! optimum survived.
//!
//! When a platform's link costs drift, the steady-state LP changes its
//! numeric data but not its shape, and the previously optimal simplex basis
//! usually survives in one of three progressively weaker senses.  The triage
//! driver tries them cheapest-first and reports which one held:
//!
//! | outcome | meaning | cost |
//! |---|---|---|
//! | [`Triage::InRange`] | the old basis is still optimal | re-price only, **zero pivots** |
//! | [`Triage::DualRepair`] | primal infeasible, dual feasible | a few dual pivots |
//! | [`Triage::ResolveWarm`] | primal feasible, optimum moved | primal pivots from the old vertex |
//! | [`Triage::ResolveCold`] | basis unusable (or none cached) | ordinary two-phase solve |
//!
//! At every problem size the pivots run in `f64` — the dual simplex from the
//! cached basis, or the revised simplex from the crash basis when none is
//! cached — and the answer is then checked exactly
//! ([`steady_lp::certify`]); only a rejected answer is re-solved in exact
//! arithmetic.  So every outcome returns the **same exact rational optimum**
//! as a cold solve — triage only changes how many pivots were spent, never
//! the answer — and callers are free to cache bases aggressively.

use steady_core::error::CoreError;
use steady_core::problem::{SolvedBasis, SteadyProblem};
use steady_lp::{
    solve_exact_auto_observed, solve_exact_dual_auto_observed, Chain, DualOutcome, HealthObserver,
    NoopObserver, SolveHealth, SolveObserver,
};

/// How a drifted solve resolved (see the module docs for the ladder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Triage {
    /// The cached basis was still optimal: the answer was re-priced with
    /// zero simplex pivots.
    InRange,
    /// The cached basis was repaired in place by the dual simplex.
    DualRepair {
        /// Dual pivots spent restoring primal feasibility.
        pivots: usize,
    },
    /// The cached basis seeded an ordinary primal re-optimization.
    ResolveWarm {
        /// Primal pivots spent reaching the new optimum.
        pivots: usize,
    },
    /// No usable basis: a from-scratch two-phase solve answered.
    ResolveCold,
}

impl Triage {
    /// `true` when the cached basis was reused without a from-scratch solve
    /// (the `InRange` / `DualRepair` fast paths of the drift pipeline).
    pub fn reused_basis(&self) -> bool {
        matches!(self, Triage::InRange | Triage::DualRepair { .. })
    }

    /// Short lowercase label for logs and reports.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Triage::InRange => "in-range",
            Triage::DualRepair { .. } => "dual-repair",
            Triage::ResolveWarm { .. } => "resolve-warm",
            Triage::ResolveCold => "resolve-cold",
        }
    }
}

/// What a triaged solve cost and produced, besides the domain solution.
#[derive(Debug, Clone)]
pub struct TriageReport {
    /// Which rung of the reuse ladder answered.
    pub triage: Triage,
    /// Total simplex pivots performed (all phases and fallbacks).
    pub iterations: usize,
    /// Pivots spent in phase 1 (feasibility search); the rest is phase 2.
    pub phase1_iterations: usize,
    /// `true` when a prior basis was supplied, i.e. the solve was a triage
    /// candidate rather than a first contact with its structural class.
    pub had_prior: bool,
    /// Final basis, reusable to triage the next drift step.
    pub basis: Option<SolvedBasis>,
    /// Numeric-health aggregate folded from the solver's event stream
    /// (degenerate pivots, Bland switches, eta fill, fallback cause).
    pub health: SolveHealth,
}

impl TriageReport {
    /// Per-phase pivot accounting, in the shape the observability layer
    /// records ([`steady_lp::SolveTrace`]).
    pub fn trace(&self) -> steady_lp::SolveTrace {
        steady_lp::SolveTrace {
            phase1_pivots: self.phase1_iterations,
            phase2_pivots: self.iterations - self.phase1_iterations,
            warm_started: self.triage.reused_basis(),
        }
    }
}

/// Counters over a stream of triaged solves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriftStats {
    /// Solves answered by re-pricing the cached basis (zero pivots).
    pub in_range: u64,
    /// Solves answered by dual-simplex repair.
    pub dual_repair: u64,
    /// Solves answered by a warm primal re-optimization.
    pub resolve_warm: u64,
    /// Solves answered from scratch.
    pub resolve_cold: u64,
    /// Total pivots across all recorded solves.
    pub pivots: u64,
}

impl DriftStats {
    /// Folds one outcome into the counters.
    pub fn record(&mut self, report: &TriageReport) {
        match report.triage {
            Triage::InRange => self.in_range += 1,
            Triage::DualRepair { .. } => self.dual_repair += 1,
            Triage::ResolveWarm { .. } => self.resolve_warm += 1,
            Triage::ResolveCold => self.resolve_cold += 1,
        }
        self.pivots += report.iterations as u64;
    }

    /// Total solves recorded.
    pub fn total(&self) -> u64 {
        self.in_range + self.dual_repair + self.resolve_warm + self.resolve_cold
    }

    /// Fraction of solves that reused the basis (`InRange` + `DualRepair`);
    /// 0 when nothing was recorded.
    pub fn reuse_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.in_range + self.dual_repair) as f64 / total as f64
        }
    }
}

/// Solves `problem` exactly, triaging against `prior` — the final basis of a
/// structurally identical solve (same topology and roles, drifted costs).
///
/// With no prior the solve is an ordinary cold one; with a prior the
/// dual-simplex driver ([`steady_lp::solve_exact_dual_auto`]) classifies the
/// reuse.  Either way the returned solution is the exact optimum.
pub fn solve_steady_triaged<P: SteadyProblem>(
    problem: &P,
    prior: Option<&SolvedBasis>,
) -> Result<(P::Solution, TriageReport), CoreError> {
    solve_steady_triaged_observed(problem, prior, &mut NoopObserver)
}

/// [`solve_steady_triaged`] with a [`SolveObserver`] tap on the underlying
/// solver runs.  The report's [`SolveHealth`] is aggregated regardless of the
/// caller's observer (events are fanned out to both).
pub fn solve_steady_triaged_observed<P: SteadyProblem, O: SolveObserver>(
    problem: &P,
    prior: Option<&SolvedBasis>,
    obs: &mut O,
) -> Result<(P::Solution, TriageReport), CoreError> {
    let (lp, vars) = problem.formulate();
    let mut health = HealthObserver::new();
    let (sol, triage, had_prior) = {
        let mut tap = Chain(&mut health, obs);
        match prior {
            None => {
                let sol = solve_exact_auto_observed(&lp, None, &mut tap)?;
                (sol, Triage::ResolveCold, false)
            }
            Some(basis) => {
                let (sol, outcome) = solve_exact_dual_auto_observed(&lp, basis, &mut tap)?;
                let triage = match outcome {
                    DualOutcome::StillOptimal => Triage::InRange,
                    DualOutcome::DualRepaired { pivots } => Triage::DualRepair { pivots },
                    DualOutcome::PrimalReoptimized { pivots } => Triage::ResolveWarm { pivots },
                    DualOutcome::FellBack => Triage::ResolveCold,
                };
                (sol, triage, true)
            }
        }
    };
    let report = TriageReport {
        triage,
        iterations: sol.iterations,
        phase1_iterations: sol.phase1_iterations,
        had_prior,
        basis: sol.basis,
        health: health.into_health(),
    };
    Ok((problem.interpret(&vars, &sol.values), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DriftConfig, DriftModel};
    use steady_core::ScatterProblem;
    use steady_platform::generators::heterogeneous_star;
    use steady_platform::Platform;
    use steady_rational::rat;

    fn star_scatter(platform: Platform) -> ScatterProblem {
        let targets = platform.node_ids().skip(1).collect();
        ScatterProblem::new(platform, steady_platform::NodeId(0), targets).unwrap()
    }

    fn star() -> Platform {
        heterogeneous_star(&[rat(1, 2), rat(1, 3), rat(1, 4), rat(1, 5)]).0
    }

    #[test]
    fn unchanged_problem_triages_in_range() {
        let problem = star_scatter(star());
        let (cold, cold_report) = solve_steady_triaged(&problem, None).unwrap();
        assert_eq!(cold_report.triage, Triage::ResolveCold);
        assert!(!cold_report.had_prior);
        let basis = cold_report.basis.expect("cold solve yields a basis");
        let (again, report) = solve_steady_triaged(&problem, Some(&basis)).unwrap();
        assert_eq!(report.triage, Triage::InRange);
        assert_eq!(report.iterations, 0);
        assert!(report.had_prior);
        assert_eq!(again.throughput(), cold.throughput());
    }

    #[test]
    fn every_walk_step_matches_a_cold_solve_exactly() {
        let mut model = DriftModel::new(star(), DriftConfig::default(), 99);
        let mut basis = None;
        let mut stats = DriftStats::default();
        for _ in 0..12 {
            let drifted = model.step();
            let problem = star_scatter(drifted);
            let (triaged, report) = solve_steady_triaged(&problem, basis.as_ref()).unwrap();
            let (cold, _) = solve_steady_triaged(&problem, None).unwrap();
            assert_eq!(
                triaged.throughput(),
                cold.throughput(),
                "triage path {} diverged from the cold solve",
                report.triage.kind_name()
            );
            stats.record(&report);
            basis = report.basis;
        }
        assert_eq!(stats.total(), 12);
        assert!(
            stats.in_range + stats.dual_repair > 0,
            "a bounded random walk should reuse the basis at least once: {stats:?}"
        );
    }

    #[test]
    fn stats_record_and_fraction() {
        let mut stats = DriftStats::default();
        assert_eq!(stats.reuse_fraction(), 0.0);
        let report = |triage| TriageReport {
            triage,
            iterations: 2,
            phase1_iterations: 1,
            had_prior: true,
            basis: None,
            health: SolveHealth::default(),
        };
        stats.record(&report(Triage::InRange));
        stats.record(&report(Triage::DualRepair { pivots: 2 }));
        stats.record(&report(Triage::ResolveWarm { pivots: 2 }));
        stats.record(&report(Triage::ResolveCold));
        assert_eq!(stats.total(), 4);
        assert_eq!(stats.pivots, 8);
        assert!((stats.reuse_fraction() - 0.5).abs() < 1e-12);
        assert!(Triage::InRange.reused_basis());
        assert!(!Triage::ResolveCold.reused_basis());
        assert_eq!(Triage::DualRepair { pivots: 1 }.kind_name(), "dual-repair");
    }
}
