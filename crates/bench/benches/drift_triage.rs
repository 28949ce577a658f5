//! Experiment DRIFT — the cost of each rung of the drift-triage ladder.
//!
//! The reproduce section walks a bounded random-walk cost trajectory over a
//! fixed star and prints the triage split (how many steps re-priced the
//! cached basis in range, how many needed dual repair, how many resolved).
//! The criterion group then prices the three rungs individually against the
//! cold baseline: `in_range` re-pricing of the unchanged problem, dual
//! repair / warm resume of a drifted one, and the from-scratch solve the
//! ladder exists to avoid.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use steady_bench::print_header;
use steady_core::ScatterProblem;
use steady_drift::{solve_steady_triaged, DriftConfig, DriftModel, DriftStats};
use steady_platform::generators::heterogeneous_star;
use steady_platform::Platform;
use steady_rational::rat;

fn star() -> (Platform, steady_platform::NodeId, Vec<steady_platform::NodeId>) {
    heterogeneous_star(&[rat(1, 2), rat(1, 3), rat(1, 4), rat(1, 5), rat(1, 6)])
}

fn scatter_on(platform: Platform) -> ScatterProblem {
    let (_, center, leaves) = star();
    ScatterProblem::new(platform, center, leaves).expect("valid star scatter")
}

fn reproduce() {
    print_header("Drift triage — 60-step random walk on a 5-leaf star scatter");
    let (platform, _, _) = star();
    let mut model = DriftModel::new(platform, DriftConfig::default(), 42);
    let mut basis = None;
    let mut stats = DriftStats::default();
    for _ in 0..60 {
        let problem = scatter_on(model.step());
        let (_, report) = solve_steady_triaged(&problem, basis.as_ref()).expect("triaged solve");
        stats.record(&report);
        basis = report.basis;
    }
    println!(
        "steps {}: {} in-range, {} dual-repaired, {} resolved-warm, {} resolved-cold \
         ({:.1}% reused, {} total pivots)",
        stats.total(),
        stats.in_range,
        stats.dual_repair,
        stats.resolve_warm,
        stats.resolve_cold,
        stats.reuse_fraction() * 100.0,
        stats.pivots,
    );
}

fn bench(c: &mut Criterion) {
    reproduce();

    let (platform, _, _) = star();
    let base = scatter_on(platform.clone());
    let (_, report) = solve_steady_triaged(&base, None).expect("base solve");
    let basis = report.basis.expect("base solve yields a basis");

    // A drifted sibling: one walk step away from the base.
    let drifted = {
        let mut model = DriftModel::new(platform, DriftConfig::default(), 7);
        scatter_on(model.step())
    };

    let mut group = c.benchmark_group("drift_triage");
    group.bench_function("in_range_reprice", |b| {
        b.iter(|| solve_steady_triaged(black_box(&base), Some(&basis)).expect("in-range"))
    });
    group.bench_function("drifted_triage", |b| {
        b.iter(|| solve_steady_triaged(black_box(&drifted), Some(&basis)).expect("triaged"))
    });
    group.bench_function("drifted_cold", |b| {
        b.iter(|| solve_steady_triaged(black_box(&drifted), None).expect("cold"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
