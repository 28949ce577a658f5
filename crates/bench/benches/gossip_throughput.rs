//! Experiment P2 — Section 3.5 / Proposition 2: steady-state throughput of
//! Series-of-Gossips (personalized all-to-all) on representative platforms.

use criterion::{criterion_group, criterion_main, Criterion};
use steady_bench::{fmt_ratio, print_header};
use steady_core::GossipProblem;
use steady_platform::generators;
use steady_rational::rat;

fn reproduce() {
    print_header("Section 3.5 — Series of Gossips (personalized all-to-all)");
    println!("{:<34} {:>16} {:>10}", "platform", "TP (ops/unit)", "period");
    for (name, problem) in instances() {
        let sol = problem.solve().expect("gossip LP solves");
        sol.verify(&problem).expect("solution verifies");
        println!("{:<34} {:>16} {:>10}", name, fmt_ratio(sol.throughput()), sol.period());
    }
}

fn instances() -> Vec<(String, GossipProblem)> {
    let mut out = Vec::new();
    let (clique, nodes) = generators::clique(3, rat(1, 1));
    out.push((
        "clique-3 (unit links)".to_string(),
        GossipProblem::new(clique, nodes.clone(), nodes).expect("valid"),
    ));
    let (clique4, nodes4) = generators::clique(4, rat(1, 2));
    out.push((
        "clique-4 (cost 1/2)".to_string(),
        GossipProblem::new(clique4, nodes4.clone(), nodes4).expect("valid"),
    ));
    let costs = [rat(1, 4), rat(1, 2), rat(1, 2), rat(1, 1)];
    let (star, _center, leaves) = generators::heterogeneous_star(&costs);
    out.push((
        "heterogeneous star (4 workers)".to_string(),
        GossipProblem::new(star, leaves.clone(), leaves).expect("valid"),
    ));
    let inst = generators::figure2();
    out.push((
        "figure-2 platform (single source)".to_string(),
        GossipProblem::new(inst.platform, vec![inst.source], inst.targets).expect("valid"),
    ));
    out
}

fn bench(c: &mut Criterion) {
    reproduce();
    let (_, problem) = instances().into_iter().nth(2).expect("star instance");
    let mut group = c.benchmark_group("gossip");
    group.sample_size(10);
    group.bench_function("solve_gossip_star4", |b| b.iter(|| problem.solve().expect("solves")));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
