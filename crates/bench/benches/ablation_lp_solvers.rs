//! Ablation A3 — LP solving strategies: pure exact rational simplex vs the
//! f64-then-certify pipeline, on scatter LPs of growing size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use steady_bench::{print_header, star_scatter};
use steady_lp::{
    solve_exact, solve_exact_auto, solve_revised_report_observed, NoopObserver, RevisedOptions,
};

fn reproduce() {
    print_header("Ablation A3 — exact simplex vs f64 + exact certification");
    println!(
        "{:<24} {:>8} {:>8} {:>14} {:>14}",
        "instance", "vars", "rows", "exact TP", "certified TP"
    );
    for leaves in [2usize, 4, 8, 12] {
        let problem = star_scatter(leaves);
        let (lp, _) = problem.build_lp();
        let exact = solve_exact(&lp).expect("exact solves");
        let certified = solve_exact_auto(&lp).expect("certified solves");
        assert_eq!(exact.objective, certified.objective);
        println!(
            "{:<24} {:>8} {:>8} {:>14} {:>14}",
            format!("star-{leaves} scatter"),
            lp.num_vars(),
            lp.num_constraints(),
            exact.objective.to_string(),
            certified.objective.to_string()
        );
    }
}

fn bench(c: &mut Criterion) {
    reproduce();
    let mut group = c.benchmark_group("lp_solvers");
    group.sample_size(10);
    for leaves in [4usize, 8, 12] {
        let problem = star_scatter(leaves);
        let (lp, _) = problem.build_lp();
        group.bench_with_input(BenchmarkId::new("exact_simplex", leaves), &lp, |b, lp| {
            b.iter(|| solve_exact(lp).expect("solves"))
        });
        group.bench_with_input(BenchmarkId::new("f64_simplex", leaves), &lp, |b, lp| {
            b.iter(|| {
                let options = RevisedOptions::default();
                solve_revised_report_observed::<f64, _>(lp, None, &options, &mut NoopObserver)
                    .expect("solves")
            })
        });
        group.bench_with_input(BenchmarkId::new("f64_plus_certify", leaves), &lp, |b, lp| {
            b.iter(|| solve_exact_auto(lp).expect("solves"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
