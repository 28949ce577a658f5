//! Experiment FORECAST — what speculative pre-solving costs and saves.
//!
//! The reproduce section walks a forecastable (lazy, fine-grained) cost
//! trajectory over a fixed star, forecasting each step before it happens:
//! it prints how often the next platform was in the presolve plan (the
//! offline analogue of the serving engine's prefetch hit rate) and the
//! `will-hold`/`may-exit`/`will-exit` classification split.  The criterion
//! group then prices the forecast machinery: the zero-pivot survival probe
//! a single envelope state costs, a full plan-sized forecast, and — for
//! scale — the demand solve a prefetch hit avoids.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use steady_bench::print_header;
use steady_core::problem::SteadyProblem;
use steady_core::ScatterProblem;
use steady_drift::{solve_steady_triaged, DriftConfig, DriftModel};
use steady_forecast::{ForecastConfig, Forecaster};
use steady_lp::basis_still_optimal;
use steady_platform::generators::heterogeneous_star;
use steady_platform::{NodeId, Platform};
use steady_rational::rat;

fn star() -> (Platform, NodeId, Vec<NodeId>) {
    heterogeneous_star(&[rat(1, 2), rat(1, 3), rat(1, 4), rat(1, 5)])
}

fn lazy_config() -> DriftConfig {
    DriftConfig { grid: 16, min_num: 12, max_num: 24, move_probability: 0.15 }
}

fn scatter_on(platform: Platform) -> ScatterProblem {
    let (_, center, leaves) = star();
    ScatterProblem::new(platform, center, leaves).expect("valid star scatter")
}

fn reproduce() {
    print_header("Speculative pre-solving — 40-step lazy walk on a 4-leaf star scatter");
    let (platform, center, leaves) = star();
    let mut model = DriftModel::new(platform, lazy_config(), 42);
    let forecaster =
        Forecaster::new(ForecastConfig { horizon: 1, max_candidates: 16, max_states: 17 });

    let problem = scatter_on(model.current());
    let (_, report) = solve_steady_triaged(&problem, None).expect("base solve");
    let mut basis = report.basis.expect("base solve yields a basis");

    let (mut planned_hits, mut unchanged, mut missed) = (0usize, 0usize, 0usize);
    let (mut will_hold, mut may_exit, mut will_exit) = (0usize, 0usize, 0usize);
    for _ in 0..40 {
        let plan = forecaster
            .forecast(&model, |p| ScatterProblem::new(p, center, leaves.clone()), &basis)
            .expect("forecast");
        match plan.fate {
            steady_forecast::ClassFate::WillHold => will_hold += 1,
            steady_forecast::ClassFate::MayExit => may_exit += 1,
            steady_forecast::ClassFate::WillExit => will_exit += 1,
        }
        let before = model.walkers().to_vec();
        model.step();
        let now = model.walkers();
        if now == before.as_slice() {
            unchanged += 1;
        } else if plan.candidates.iter().any(|c| c.walkers == now) {
            planned_hits += 1;
        } else {
            missed += 1;
        }
        let next = scatter_on(model.current());
        let (_, report) = solve_steady_triaged(&next, Some(&basis)).expect("step solve");
        if let Some(updated) = report.basis {
            basis = updated;
        }
    }
    println!(
        "steps 40: {planned_hits} planned, {unchanged} unchanged, {missed} missed \
         ({:.0}% of changed steps pre-solvable); forecasts {will_hold} will-hold, \
         {may_exit} may-exit, {will_exit} will-exit",
        100.0 * planned_hits as f64 / (planned_hits + missed).max(1) as f64,
    );
}

fn bench(c: &mut Criterion) {
    reproduce();

    let (platform, center, leaves) = star();
    let model = DriftModel::new(platform, lazy_config(), 7);
    let base = scatter_on(model.current());
    let (_, report) = solve_steady_triaged(&base, None).expect("base solve");
    let basis = report.basis.expect("base solve yields a basis");
    let (lp, _) = base.formulate();
    let forecaster =
        Forecaster::new(ForecastConfig { horizon: 1, max_candidates: 16, max_states: 17 });

    // A drifted sibling: one walk step away from the base.
    let drifted = {
        let mut walk = DriftModel::new(model.base().clone(), lazy_config(), 9);
        scatter_on(walk.step())
    };

    let mut group = c.benchmark_group("forecast_presolve");
    group.bench_function("survival_probe", |b| {
        b.iter(|| basis_still_optimal(black_box(&lp), black_box(&basis)))
    });
    group.bench_function("forecast_plan_16", |b| {
        b.iter(|| {
            forecaster
                .forecast(
                    black_box(&model),
                    |p| ScatterProblem::new(p, center, leaves.clone()),
                    &basis,
                )
                .expect("forecast")
        })
    });
    group.bench_function("demand_solve_avoided", |b| {
        b.iter(|| solve_steady_triaged(black_box(&drifted), Some(&basis)).expect("triaged"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
