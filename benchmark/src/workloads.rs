//! The four workloads.
//!
//! Each one is a fixed number of operations cut into homogeneous slices —
//! every slice replays the same multiset of inputs (or, for drift, the same
//! shape of epoch) — preceded by one untimed warm-up slice.
//! Thread budget: the service workloads run one worker and one closed-loop
//! client (this thread); the solver workloads run on this thread alone.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::estimator::Recorder;
use crate::inputs::{self, DriftClass, COLD_POOL, HIT_POOL, SCALE_INSTANCES};
use crate::probe::{
    solve_certified_warm, solve_query, Answer, Certificate, CertifyError, CertifyOptions, Query,
    Ratio, ScatterProblem, ScatterSolution, Service, ServiceConfig, SimplexOptions, SteadyProblem,
};

/// How much of each workload a run executes.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// `--seconds`: the timed phase is sized to last about this long at the
    /// speed the program had when the benchmark was written.
    pub seconds: f64,
    /// `--smoke`: two slices of a few operations each.
    pub smoke: bool,
    /// The traced pass: a fifth of the slices.
    pub fifth: bool,
}

impl Size {
    /// Slices of the timed phase, given the count at full length.
    fn slices(&self, full: usize) -> usize {
        if self.smoke {
            2
        } else if self.fifth {
            full.div_ceil(5)
        } else {
            full
        }
    }

    /// `per_30s` scaled to `--seconds`, at least 1 (the workloads were sized
    /// for 30-second phases).
    fn scaled(&self, per_30s: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            ((per_30s as f64 * self.seconds / 30.0).round() as usize).max(1)
        }
    }
}

/// Counters a run must reproduce exactly (operations, hits, solves, pivots…).
pub type Counts = BTreeMap<&'static str, u64>;

/// A workload's life: set up from scratch, run slices, settle the checks.
pub trait Workload: Sized {
    /// The name `--workload` takes.
    const NAME: &'static str;
    /// Name of the span around each operation in the traced pass.
    const OP_SPAN: &'static str;

    /// `(slices, operations per slice)` of the timed phase.
    fn shape(size: &Size) -> (usize, usize);

    /// Generates the inputs from `seed`, starts what serves them and brings
    /// it to steady state (cache fill, class-basis seeding, problem
    /// construction).  This is what `setup_s` times.
    fn set_up(seed: u64, size: &Size, traced: bool) -> Self;

    /// Computes the reference answers the checks compare against; untimed,
    /// called once on the set-up that is measured.
    fn prepare_checks(&mut self);

    /// Runs slice `slice` (0 is the warm-up slice) into `rec`.
    fn run_slice(&mut self, slice: usize, rec: &mut Recorder);

    /// Runs the checks deferred to the end and returns the exact counters.
    fn finish(self, rec: &mut Recorder) -> Counts;

    /// Checks that the reported latencies landed in the clusters of like
    /// operations the workload was built around.
    fn check_latencies(_p50_us: f64, _p90_us: f64) -> Result<(), String> {
        Ok(())
    }
}

fn one_worker(traced: bool) -> ServiceConfig {
    let config = ServiceConfig { workers: 1, ..ServiceConfig::default() };
    if traced {
        config.traced().with_solver_events()
    } else {
        config
    }
}

fn reference(query: &Query) -> Ratio {
    solve_query(query, false).expect("a generated query solves").throughput
}

fn service_counts(service: &Service) -> Counts {
    let stats = service.stats();
    Counts::from([
        ("hits", stats.hits),
        ("misses", stats.misses),
        ("solves", stats.solves),
        ("evictions", stats.evictions),
        ("shed", stats.shed),
        ("errors", stats.errors),
    ])
}

/// Cached queries through a one-worker service: the dominant production
/// outcome, and all of it `service` + `sched`.
pub struct HitServe {
    service: Service,
    pool: Vec<Query>,
    order: Vec<u32>,
    references: Vec<Ratio>,
}

impl Workload for HitServe {
    const NAME: &'static str = "hit_serve";
    const OP_SPAN: &'static str = "hit_serve.query";

    fn shape(size: &Size) -> (usize, usize) {
        (size.slices(150), size.scaled(19_500, 400))
    }

    fn set_up(seed: u64, size: &Size, traced: bool) -> Self {
        let pool = inputs::small_pool(HIT_POOL, seed);
        let order = inputs::replay_order(Self::shape(size).1, pool.len(), seed);
        let service = Service::start(one_worker(traced));
        for query in &pool {
            service.query(query.clone()).expect("a generated query solves");
        }
        HitServe { service, pool, order, references: Vec::new() }
    }

    fn prepare_checks(&mut self) {
        self.references = self.pool.iter().map(reference).collect();
    }

    fn run_slice(&mut self, slice: usize, rec: &mut Recorder) {
        rec.begin_slice(slice);
        for &index in &self.order {
            let query = self.pool[index as usize].clone();
            let served = rec.time(|| self.service.query(query));
            let expected = &self.references[index as usize];
            rec.verdict(served.is_ok_and(|s| s.answer.throughput == *expected));
        }
        rec.end_slice();
    }

    fn finish(self, _rec: &mut Recorder) -> Counts {
        service_counts(&self.service)
    }
}

/// Drifting platforms through the same service with a zero TTL: the cache
/// and class-basis layers used as writes beside reads.
pub struct DriftServe {
    service: Service,
    classes: [DriftClass; 3],
    epochs: usize,
    /// This slice's drifted queries, built before its clock starts.
    batch: Vec<Query>,
    /// Every 16th drifted query with the answer it was served.
    sampled: Vec<(Query, Arc<Answer>)>,
    drifted: usize,
}

/// Cached repeats after each drifted query.
const DRIFT_REPEATS: usize = 4;
/// One in this many drifted answers is re-solved cold after the timed phase.
const DRIFT_SAMPLE: usize = 16;

impl Workload for DriftServe {
    const NAME: &'static str = "drift_serve";
    const OP_SPAN: &'static str = "drift_serve.query";

    fn shape(size: &Size) -> (usize, usize) {
        (size.slices(150), size.scaled(115, 4) * 3 * (1 + DRIFT_REPEATS))
    }

    fn set_up(seed: u64, size: &Size, traced: bool) -> Self {
        let (slices, ops) = Self::shape(size);
        let epochs = ops / (3 * (1 + DRIFT_REPEATS));
        let config = ServiceConfig { ttl: Some(0), ..one_worker(traced) };
        let mut workload = DriftServe {
            service: Service::start(config),
            classes: inputs::drift_classes(seed),
            epochs,
            batch: Vec::with_capacity(epochs * 3),
            sampled: Vec::with_capacity((slices + 1) * epochs * 3 / DRIFT_SAMPLE + 1),
            drifted: 0,
        };
        // Seed each structural class's basis: from here on every drifted
        // query is a triaged miss, as in the timed phase.
        for class in &mut workload.classes {
            workload.service.query(class.next_query()).expect("a generated query solves");
        }
        workload
    }

    fn prepare_checks(&mut self) {}

    fn run_slice(&mut self, slice: usize, rec: &mut Recorder) {
        self.batch.clear();
        for _ in 0..self.epochs {
            for class in &mut self.classes {
                self.batch.push(class.next_query());
            }
        }
        rec.begin_slice(slice);
        for epoch in self.batch.chunks(3) {
            self.service.advance_epoch();
            for query in epoch {
                let fresh = query.clone();
                let Ok(first) = rec.time(|| self.service.query(fresh)) else {
                    rec.verdict(false);
                    continue;
                };
                rec.verdict(true);
                if self.drifted.is_multiple_of(DRIFT_SAMPLE) {
                    self.sampled.push((query.clone(), Arc::clone(&first.answer)));
                }
                self.drifted += 1;
                for _ in 0..DRIFT_REPEATS {
                    let repeat = query.clone();
                    let served = rec.time(|| self.service.query(repeat));
                    rec.verdict(
                        served.is_ok_and(|s| s.answer.throughput == first.answer.throughput),
                    );
                }
            }
        }
        rec.end_slice();
    }

    /// One operation in five is a triaged miss, so p90 must sit inside the
    /// miss cluster and p50 inside the hits.
    fn check_latencies(p50_us: f64, p90_us: f64) -> Result<(), String> {
        if p90_us > 10.0 * p50_us {
            Ok(())
        } else {
            Err(format!(
                "drift_serve latency_p90_us ({p90_us}) is not above 10 x latency_p50_us \
                 ({p50_us}): p90 left the triaged-miss cluster"
            ))
        }
    }

    fn finish(self, rec: &mut Recorder) -> Counts {
        for (query, answer) in &self.sampled {
            rec.verdict(reference(query) == answer.throughput);
        }
        let mut counts = service_counts(&self.service);
        counts.insert("resolved_cold", self.sampled.len() as u64);
        counts
    }
}

/// `solve_query` over a pool of distinct small queries, no service and no
/// threads: the paper's core operation at paper scale.
pub struct ColdSolve {
    pool: Vec<Query>,
    references: Vec<Ratio>,
}

impl Workload for ColdSolve {
    const NAME: &'static str = "cold_solve";
    const OP_SPAN: &'static str = "cold_solve.solve_query";

    fn shape(size: &Size) -> (usize, usize) {
        // One pass over the pool per slice; the phase scales by slice count,
        // never below the protocol's 48.
        (size.slices(size.scaled(260, 2).max(48)), if size.smoke { 20 } else { COLD_POOL })
    }

    fn set_up(seed: u64, size: &Size, _traced: bool) -> Self {
        ColdSolve { pool: inputs::small_pool(Self::shape(size).1, seed), references: Vec::new() }
    }

    fn prepare_checks(&mut self) {
        self.references = self.pool.iter().map(reference).collect();
    }

    fn run_slice(&mut self, slice: usize, rec: &mut Recorder) {
        rec.begin_slice(slice);
        for (query, expected) in self.pool.iter().zip(&self.references) {
            let answer = rec.time(|| solve_query(query, false));
            rec.verdict(answer.is_ok_and(|a| a.throughput == *expected));
        }
        rec.end_slice();
    }

    fn finish(self, _rec: &mut Recorder) -> Counts {
        Counts::new()
    }
}

/// The options `steady scaling-sweep` solves with: these LPs spend more than
/// the default `bland_after` pivots, and Dantzig pricing never cycles on
/// them.
pub fn scaling_options() -> CertifyOptions {
    CertifyOptions {
        simplex: SimplexOptions { bland_after: 1_000_000, ..SimplexOptions::default() },
        ..CertifyOptions::default()
    }
}

/// Formulate → certified solve → interpret on 200-node clustered scatters:
/// the revised sparse simplex, LU and degeneracy work live only here.
pub struct ScaleSolve {
    problems: Vec<ScatterProblem>,
    options: CertifyOptions,
    /// Throughput of each instance's first solve; later solves must repeat it.
    references: Vec<Ratio>,
    /// This slice's solutions, verified after its clock stopped.
    solved: Vec<(usize, ScatterSolution, Certificate)>,
    pivots: u64,
    refactorizations: u64,
}

impl Workload for ScaleSolve {
    const NAME: &'static str = "scale_solve";
    const OP_SPAN: &'static str = "scale_solve.solve";

    fn shape(size: &Size) -> (usize, usize) {
        // One pass per slice and never fewer than 48 slices, so the phase
        // scales by instance count, rounded up: 4 at 20 s, all 5 from 24 s.
        let instances = (SCALE_INSTANCES as f64 * size.seconds / 30.0).ceil() as usize;
        (size.slices(48), if size.smoke { 1 } else { instances.clamp(1, SCALE_INSTANCES) })
    }

    fn set_up(seed: u64, size: &Size, _traced: bool) -> Self {
        let problems: Vec<ScatterProblem> = inputs::scale_instances(Self::shape(size).1, seed)
            .into_iter()
            .map(|i| ScatterProblem::from_instance(i).expect("a generated instance is valid"))
            .collect();
        ScaleSolve {
            solved: Vec::with_capacity(problems.len()),
            references: Vec::with_capacity(problems.len()),
            problems,
            options: scaling_options(),
            pivots: 0,
            refactorizations: 0,
        }
    }

    /// The warm-up slice's own answers become the references (see
    /// `run_slice`): a separate reference solve would cost as much again.
    fn prepare_checks(&mut self) {}

    fn run_slice(&mut self, slice: usize, rec: &mut Recorder) {
        rec.begin_slice(slice);
        for (index, problem) in self.problems.iter().enumerate() {
            let solved = rec.time(|| {
                let (lp, vars) = problem.formulate();
                let solution = solve_certified_warm(&lp, &self.options, None)?;
                let interpreted = problem.interpret(&vars, &solution.values);
                Ok::<_, CertifyError>((interpreted, solution))
            });
            match solved {
                Ok((interpreted, solution)) => {
                    self.pivots += solution.iterations as u64;
                    self.refactorizations += solution.refactorizations as u64;
                    self.solved.push((index, interpreted, solution.certificate));
                }
                Err(_) => rec.verdict(false),
            }
        }
        rec.end_slice();
        for (index, solution, certificate) in self.solved.drain(..) {
            // The warm-up slice's answers become the references.
            if self.references.len() == index {
                self.references.push(solution.throughput().clone());
            }
            rec.verdict(
                solution.verify(&self.problems[index]).is_ok()
                    && matches!(certificate, Certificate::Optimal | Certificate::ExactSimplex)
                    && self.references.get(index) == Some(solution.throughput()),
            );
        }
    }

    fn finish(self, _rec: &mut Recorder) -> Counts {
        Counts::from([("pivots", self.pivots), ("refactorizations", self.refactorizations)])
    }
}
