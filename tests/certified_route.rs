//! The paper's LPs through the certified pipeline's one route: the revised
//! `f64` simplex from the crash basis, then the exact check — no dense run,
//! no phase 1, and a certificate rather than an exact re-solve.

use steady_collectives::prelude::*;
use steady_lp::{Certificate, CertifyOptions, RecordingObserver, SolveEvent};
use steady_platform::generators::{clustered_scatter_instance, ClusteredConfig};
use steady_rational::Ratio;

/// Figure 2's scatter LP and Figure 6's reduce LP, with their throughputs.
fn paper_lps() -> [(&'static str, steady_lp::LpProblem, Ratio); 2] {
    let scatter = ScatterProblem::from_instance(figure2()).unwrap();
    let reduce = ReduceProblem::from_instance(figure6()).unwrap();
    [
        ("figure 2 scatter", scatter.formulate().0, rat(1, 2)),
        ("figure 6 reduce", reduce.formulate().0, rat(1, 1)),
    ]
}

#[test]
fn figure2_and_figure6_take_one_revised_run_and_certify() {
    for (name, lp, throughput) in paper_lps() {
        let mut rec = RecordingObserver::unbounded();
        let sol = steady_lp::solve_exact_auto_observed(&lp, None, &mut rec).unwrap();
        let events = rec.finish().events;

        let runs = events.iter().filter(|e| e.event == SolveEvent::RunStarted).count();
        assert_eq!(runs, 1, "{name}: one run, no fallback");
        assert_eq!(sol.certificate, Certificate::Optimal, "{name}");
        assert_eq!(sol.phase1_iterations, 0, "{name}");
        assert_eq!(sol.objective, throughput, "{name}");
    }
}

#[test]
fn certify_has_its_own_time_bucket() {
    let [(name, lp, _), _] = paper_lps();
    let mut rec = RecordingObserver::unbounded();
    steady_lp::solve_exact_auto_observed(&lp, None, &mut rec).unwrap();
    let recording = rec.finish();
    let breakdown = recording.breakdown();

    assert_eq!(
        recording.events.iter().filter(|e| e.event == SolveEvent::CertifyStarted).count(),
        1,
        "{name}: one certify marker"
    );
    assert!(breakdown.install_nanos > 0, "{name}: {breakdown:?}");
    assert!(breakdown.certify_nanos > 0, "{name}: {breakdown:?}");
    assert!(
        breakdown.install_nanos
            + breakdown.phase1_nanos
            + breakdown.phase2_nanos
            + breakdown.certify_nanos
            <= recording.total_nanos,
        "{name}: {breakdown:?} exceeds {} ns",
        recording.total_nanos
    );
}

/// The pivot path of the 200-node scatter `steady explain` shows by default:
/// a change to pricing or to the factorization that moves a single pivot
/// fails here.
#[test]
fn the_200_node_scatter_takes_44_pivots_and_no_refactorization() {
    let instance = clustered_scatter_instance(&ClusteredConfig::with_total_nodes(200), 8, 42);
    let (lp, _) = ScatterProblem::from_instance(instance).unwrap().formulate();
    let sol = steady_lp::solve_certified_warm(&lp, &CertifyOptions::default(), None).unwrap();
    assert_eq!(sol.certificate, Certificate::Optimal);
    assert_eq!((sol.iterations, sol.phase1_iterations, sol.refactorizations), (44, 0, 0));
}
