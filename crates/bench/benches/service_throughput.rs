//! Experiment SVC — the serving subsystem's own performance.
//!
//! This is the first bench target tracking a subsystem of the reproduction
//! rather than a figure of the paper: it measures the three layers a served
//! query crosses — canonical fingerprinting, a cache hit, and the cold LP
//! solve the cache amortizes away — plus a full repetition-heavy load run
//! (the number it prints is what CI snapshots into `BENCH_service.json`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use steady_bench::print_header;
use steady_core::problem::solve_steady_warm;
use steady_core::ScatterProblem;
use steady_platform::generators::{figure2, heterogeneous_star};
use steady_rational::rat;
use steady_service::{
    fingerprint, run_load, solve_query, structural_fingerprint, Collective, LoadConfig, Query,
    Service, ServiceConfig,
};

fn figure2_query() -> Query {
    let instance = figure2();
    Query {
        platform: instance.platform,
        collective: Collective::Scatter { source: instance.source, targets: instance.targets },
    }
}

fn reproduce() {
    print_header("Service — sustained load over a repetition-heavy query mix");
    let service = Service::start(ServiceConfig { workers: 4, ..ServiceConfig::default() });
    let report =
        run_load(&service, &LoadConfig { queries: 2000, clients: 4, distinct: 24, seed: 42 })
            .expect("load run succeeds");
    print!("{}", report.render());
}

fn bench(c: &mut Criterion) {
    reproduce();
    let query = figure2_query();
    let mut group = c.benchmark_group("service");
    group.bench_function("fingerprint_figure2", |b| b.iter(|| fingerprint(black_box(&query))));
    group.bench_function("structural_fingerprint_figure2", |b| {
        b.iter(|| structural_fingerprint(black_box(&query)))
    });
    group.bench_function("cold_solve_figure2", |b| {
        b.iter(|| solve_query(black_box(&query), false).expect("solves"))
    });
    let service = Service::start(ServiceConfig { workers: 2, ..ServiceConfig::default() });
    service.query(query.clone()).expect("warm the cache");
    group.bench_function("cached_query_figure2", |b| {
        b.iter(|| service.query(black_box(query.clone())).expect("cached"))
    });

    // Warm vs cold exact solve of a cost-drifted star scatter: the basis of
    // the base platform seeds the drifted one (same structural class).
    let star = |costs: &[steady_rational::Ratio]| {
        let (platform, center, leaves) = heterogeneous_star(costs);
        ScatterProblem::new(platform, center, leaves).expect("valid star scatter")
    };
    let base = star(&[rat(1, 2), rat(1, 3), rat(1, 4), rat(1, 5)]);
    let (_, base_report) = solve_steady_warm(&base, None).expect("base solve");
    let basis = base_report.basis.expect("base solve yields a basis");
    let drifted = star(&[rat(1, 3), rat(2, 5), rat(1, 6), rat(3, 7)]);
    group.bench_function("drifted_star_cold", |b| {
        b.iter(|| solve_steady_warm(black_box(&drifted), None).expect("cold solve"))
    });
    group.bench_function("drifted_star_warm", |b| {
        b.iter(|| solve_steady_warm(black_box(&drifted), Some(&basis)).expect("warm solve"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
