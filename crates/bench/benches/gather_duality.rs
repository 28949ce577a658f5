//! Experiment E1 (extension) — Series of Gathers: steady-state throughput,
//! gather/scatter transpose duality, and comparison with the direct baseline.
//!
//! The paper treats gather/reduce as one family (§1); the pure gather (no
//! combining) is the transpose dual of the scatter LP, so this bench both
//! reports the gather optimum on representative platforms and checks the
//! duality identity `TP_gather(G) = TP_scatter(Gᵀ)` on each of them.

use criterion::{criterion_group, criterion_main, Criterion};
use steady_baselines::{direct_gather, measure_pipelined_throughput};
use steady_bench::{fmt_ratio, print_header};
use steady_core::GatherProblem;
use steady_platform::generators;
use steady_platform::topologies::dumbbell_gather_instance;
use steady_rational::rat;

fn instances() -> Vec<(String, GatherProblem)> {
    let mut out = Vec::new();

    let (star, center, leaves) = generators::star(4, rat(1, 2));
    out.push((
        "star-4 (cost 1/2)".to_string(),
        GatherProblem::new(star, leaves, center).expect("valid"),
    ));

    let costs = [rat(1, 4), rat(1, 2), rat(1, 1)];
    let (hstar, hcenter, hleaves) = generators::heterogeneous_star(&costs);
    out.push((
        "heterogeneous star (3 workers)".to_string(),
        GatherProblem::new(hstar, hleaves, hcenter).expect("valid"),
    ));

    let inst = generators::figure2();
    out.push((
        "figure-2 reversed".to_string(),
        GatherProblem::new(inst.platform.transpose(), inst.targets, inst.source).expect("valid"),
    ));

    out.push((
        "dumbbell 3+3 (bridge cost 1)".to_string(),
        GatherProblem::from_instance(dumbbell_gather_instance(3, rat(1, 4), rat(1, 1)))
            .expect("valid"),
    ));

    out
}

fn reproduce() {
    print_header("Extension E1 — Series of Gathers (dual of §3) ");
    println!(
        "{:<34} {:>16} {:>16} {:>16}",
        "platform", "TP gather", "TP dual scatter", "direct baseline"
    );
    for (name, problem) in instances() {
        let sol = problem.solve().expect("gather LP solves");
        sol.verify(&problem).expect("solution verifies");
        let dual = problem.dual_scatter().expect("dual problem");
        let dual_tp = dual.solve().expect("dual LP solves").throughput().clone();
        assert_eq!(&dual_tp, sol.throughput(), "duality violated on {name}");
        let ops = 20;
        let baseline =
            measure_pipelined_throughput(problem.platform(), &direct_gather(&problem, ops), ops)
                .expect("baseline simulates");
        assert!(baseline.throughput <= *sol.throughput());
        println!(
            "{:<34} {:>16} {:>16} {:>16}",
            name,
            fmt_ratio(sol.throughput()),
            fmt_ratio(&dual_tp),
            fmt_ratio(&baseline.throughput)
        );
    }
}

fn bench(c: &mut Criterion) {
    reproduce();
    let (_, problem) = instances().into_iter().next().expect("star instance");
    let mut group = c.benchmark_group("gather");
    group.sample_size(10);
    group.bench_function("solve_gather_star4", |b| b.iter(|| problem.solve().expect("solves")));
    group.bench_function("gather_schedule_star4", |b| {
        let sol = problem.solve().expect("solves");
        b.iter(|| sol.build_schedule(&problem).expect("schedule"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
