//! The layer replay of the traced pass.
//!
//! After the workload itself has run under trace, inputs generated from the
//! same seed by the same generators are replayed through each layer's public
//! functions, one benchmark-owned span per call.  Every per-layer timing is
//! then read back from the spans under the same protocol as the end-to-end
//! numbers: folded per pass (the replay's homogeneous slice), quiet decile
//! across passes.  Counts come from the values the public functions return.
//! This is the only place that uses an `_observed` entry point.

use std::hint::black_box;
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use crate::estimator;
use crate::inputs::{self, DriftClass, COLD_POOL, HIT_POOL};
use crate::probe::{
    solve_certified_warm_observed, solve_exact_auto, solve_exact_dual_auto, solve_query,
    solve_steady_triaged, Answer, CacheConfig, Collective, CoreError, DriftStats, GatherProblem,
    GossipProblem, Lane, LaneQueues, LaneTask, NowFn, Popped, PrefixProblem, Query, Ratio,
    RecordingObserver, ReduceProblem, ScatterProblem, SchedulerKind, Service, ServiceConfig,
    SolutionCache, SolvedBasis, SteadyProblem, WorkerHooks,
};
use crate::spans::{Fold, Spans};
use crate::workloads::{scaling_options, Size};

/// Per-layer metric values, by declared name.
pub type Values = Vec<(&'static str, f64)>;

/// `core.unattributed_fraction` must land here, or the parts of a cold solve
/// no longer add up to the whole and the decomposition cannot be trusted.
const UNATTRIBUTED_RANGE: std::ops::RangeInclusive<f64> = -0.10..=0.25;

/// Calls per batched span, for calls too short to time one by one.
const BATCH: usize = 1024;

fn micros(nanos: f64) -> f64 {
    nanos / 1e3
}

fn millis(nanos: f64) -> f64 {
    nanos / 1e6
}

/// Replays every layer and returns every per-layer metric except the ones
/// only the workload pass itself can give (`alloc.*`, `host.*`,
/// `service.trace_overhead_fraction`).
pub fn replay(seed: u64, size: &Size, spans: &mut Spans, out_dir: &Path) -> Result<Values, String> {
    let mut values = Values::new();
    replay_hits(seed, size, spans, &mut values);
    replay_drift(seed, size, spans, out_dir, &mut values)?;
    replay_cold(seed, size, spans, &mut values)?;
    replay_scale(seed, size, spans, &mut values)?;
    replay_sched(size, spans, &mut values);
    Ok(values)
}

/// Passes of a replay: its homogeneous slices.
fn passes(size: &Size, full: usize) -> usize {
    if size.smoke {
        2
    } else {
        full
    }
}

/// `service`: the hit path and what it is made of.
fn replay_hits(seed: u64, size: &Size, spans: &mut Spans, values: &mut Values) {
    let pool = inputs::small_pool(if size.smoke { 10 } else { HIT_POOL }, seed);
    let service = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let answers: Vec<Arc<Answer>> = pool
        .iter()
        .map(|q| service.query(q.clone()).expect("a generated query solves").answer)
        .collect();
    // A benchmark-owned cache at capacity: inserting far more keys than it
    // holds leaves every shard full, so each further insert evicts.
    let cache: SolutionCache = SolutionCache::new(&CacheConfig::default());
    let mut next_key = seed | 1;
    let mut fresh_key = || {
        next_key = next_key.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(23) ^ 0x5bd1_e995;
        next_key
    };
    for _ in 0..8 * CacheConfig::default().capacity {
        cache.insert_at(fresh_key(), Arc::clone(&answers[0]), 0, None);
    }

    let repeats = if size.smoke { 5 } else { 50 };
    for pass in 0..passes(size, 10) {
        spans.set_slice(pass);
        spans.scope("replay.hits", |spans| {
            // The service loop is as tight as the workload's own, so that a
            // hit here is scheduled like a hit there.
            for query in pool.iter().cycle().take(repeats * pool.len()) {
                spans.next_op();
                let cached = query.clone();
                spans.leaf("service.query_hit", || black_box(service.query(cached)).is_ok());
            }
            for query in pool.iter().cycle().take(repeats * pool.len()) {
                spans.next_op();
                spans.leaf("service.fingerprint", || black_box(query.fingerprint()));
                spans.leaf("service.structural_fingerprint", || {
                    black_box(query.structural_fingerprint())
                });
            }
            let present: Vec<u64> =
                cache.entries().into_iter().map(|(key, _)| key).take(BATCH).collect();
            assert_eq!(present.len(), BATCH, "the probe cache holds fewer entries than a batch");
            spans.next_op();
            spans.leaf("service.cache_lookup.batch", || {
                for &key in &present {
                    black_box(cache.lookup(key, 0, None));
                }
            });
            let inserted: Vec<u64> = (0..BATCH).map(|_| fresh_key()).collect();
            spans.leaf("service.cache_insert.batch", || {
                for &key in &inserted {
                    cache.insert_at(key, Arc::clone(&answers[0]), 0, None);
                }
            });
        });
    }

    let hit = spans.quiet_ns("service.query_hit", Fold::Median);
    let fingerprint = spans.quiet_ns("service.fingerprint", Fold::Median);
    let lookup = spans.quiet_ns("service.cache_lookup.batch", Fold::Sum) / BATCH as f64;
    values.push(("service.query_hit_us", micros(hit)));
    values.push(("service.query_p99_us", micros(spans.quiet_ns("service.query_hit", Fold::P99))));
    values.push(("service.fingerprint_us", micros(fingerprint)));
    values.push((
        "service.structural_fingerprint_us",
        micros(spans.quiet_ns("service.structural_fingerprint", Fold::Median)),
    ));
    values.push(("service.cache_lookup_ns", lookup));
    values.push((
        "service.cache_insert_ns",
        spans.quiet_ns("service.cache_insert.batch", Fold::Sum) / BATCH as f64,
    ));
    let beyond_fingerprint =
        spans.quiet_remainder_ns("service.query_hit", &["service.fingerprint"]);
    values.push(("service.handoff_us", micros(beyond_fingerprint - lookup)));
}

/// One drifted query through the triage ladder and through its parts, with
/// the basis its class's previous step left.
fn replay_triage<P: SteadyProblem>(
    problem: Result<P, CoreError>,
    prior: &mut Option<SolvedBasis>,
    stats: &mut DriftStats,
    spans: &mut Spans,
) -> Result<(), String> {
    let problem = problem.map_err(|e| format!("a drifted query is invalid: {e}"))?;
    if let Some(basis) = prior.as_ref() {
        let (lp, _vars) = problem.formulate();
        spans.leaf("linprog.warm_solve", || black_box(solve_exact_dual_auto(&lp, basis)).is_ok());
    }
    let (_, report) = spans
        .leaf("drift.triage", || solve_steady_triaged(&problem, prior.as_ref()))
        .map_err(|e| format!("a triaged solve failed: {e}"))?;
    stats.record(&report);
    *prior = report.basis;
    Ok(())
}

/// `service` misses, `drift` and the warm `linprog` path.
fn replay_drift(
    seed: u64,
    size: &Size,
    spans: &mut Spans,
    out_dir: &Path,
    values: &mut Values,
) -> Result<(), String> {
    let service =
        Service::start(ServiceConfig { workers: 1, ttl: Some(0), ..ServiceConfig::default() });
    let mut classes = inputs::drift_classes(seed);
    let mut priors: [Option<SolvedBasis>; 3] = [None, None, None];
    let mut stats = DriftStats::default();
    // Enough distinct keys to push the default 1024-entry cache into eviction.
    let epochs = if size.smoke { 4 } else { 50 };
    let mut batch: Vec<Query> = Vec::with_capacity(epochs * 3);
    for pass in 0..passes(size, 10) {
        spans.set_slice(pass);
        batch.clear();
        for _ in 0..epochs {
            batch.extend(classes.iter_mut().map(DriftClass::next_query));
        }
        spans.scope("replay.drift", |spans| {
            // First the service, in the workload's own rhythm: per epoch one
            // never-seen query and four repeats per class.
            for epoch in batch.chunks(3) {
                service.advance_epoch();
                for query in epoch {
                    spans.next_op();
                    let fresh = query.clone();
                    let served = spans.leaf("service.miss_triaged", || service.query(fresh));
                    served.map_err(|e| format!("a drifted query was not served: {e}"))?;
                    for _ in 0..4 {
                        let repeat = query.clone();
                        let served =
                            spans.leaf("service.hit_beside_writes", || service.query(repeat));
                        served.map_err(|e| format!("a repeat was not served: {e}"))?;
                    }
                }
            }
            // Then the same queries through what a miss is made of.
            for (index, query) in batch.iter().enumerate() {
                let prior = &mut priors[index % 3];
                spans.next_op();
                spans.leaf("service.fingerprint.star", || black_box(query.fingerprint()));
                spans.leaf("service.structural_fingerprint.star", || {
                    black_box(query.structural_fingerprint())
                });
                let platform = query.platform.clone();
                match &query.collective {
                    Collective::Scatter { source, targets } => replay_triage(
                        ScatterProblem::new(platform, *source, targets.clone()),
                        prior,
                        &mut stats,
                        spans,
                    ),
                    Collective::Gather { sources, sink } => replay_triage(
                        GatherProblem::new(platform, sources.clone(), *sink),
                        prior,
                        &mut stats,
                        spans,
                    ),
                    _ => unreachable!("the drift classes are scatters and gathers"),
                }?;
            }
            Ok::<(), String>(())
        })?;
    }

    let miss = spans.quiet_ns("service.miss_triaged", Fold::Median);
    let triage = spans.quiet_ns("drift.triage", Fold::Median);
    let overhead = spans.quiet_remainder_ns(
        "service.miss_triaged",
        &["drift.triage", "service.fingerprint.star", "service.structural_fingerprint.star"],
    );
    values.push(("service.miss_triaged_us", micros(miss)));
    values.push(("service.miss_overhead_us", micros(overhead)));
    values.push(("drift.triage_us", micros(triage)));
    values.push((
        "linprog.warm_solve_us",
        micros(spans.quiet_ns("linprog.warm_solve", Fold::Median)),
    ));
    let total = stats.total() as f64;
    values.push(("drift.reuse_fraction", stats.reuse_fraction()));
    values.push(("drift.in_range_fraction", stats.in_range as f64 / total));
    values.push(("drift.dual_repair_fraction", stats.dual_repair as f64 / total));
    values.push(("drift.mean_pivots", stats.pivots as f64 / total));

    // The service's own always-on stage histograms and counters.
    let metrics = service.metrics();
    let stage_p50 = |name: &str| {
        let histogram = metrics.histogram(name).unwrap_or_else(|| panic!("no histogram {name}"));
        micros(histogram.quantile(0.5) as f64)
    };
    values.push(("service.lane_wait_p50_us", stage_p50("lane_demand_wait_nanos")));
    values.push(("service.lookup_p50_us", stage_p50("stage_lookup_nanos")));
    values.push(("service.solve_warm_p50_us", stage_p50("stage_solve_warm_nanos")));
    values.push(("service.publish_p50_us", stage_p50("stage_publish_nanos")));
    let counters = service.stats();
    values.push(("service.hit_ratio", counters.hit_ratio()));
    values.push(("service.coalesced", counters.coalesced as f64));
    values.push(("service.evictions", counters.evictions as f64));
    values.push(("service.shed", counters.shed as f64));

    // Snapshot the churned cache and load it into a fresh service.
    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out_dir:?}: {e}"))?;
    let path = out_dir.join("snapshot.json");
    for pass in 0..passes(size, 3) {
        spans.set_slice(pass);
        spans.next_op();
        spans
            .leaf("service.snapshot", || service.snapshot(&path))
            .map_err(|e| format!("snapshot failed: {e}"))?;
        let restored = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        spans
            .leaf("service.preload", || restored.preload(&path))
            .map_err(|e| format!("preload failed: {e}"))?;
    }
    let _ = std::fs::remove_file(&path);
    values.push(("service.snapshot_ms", millis(spans.quiet_ns("service.snapshot", Fold::Median))));
    values.push(("service.preload_ms", millis(spans.quiet_ns("service.preload", Fold::Median))));
    Ok(())
}

/// The parts of one cold solve, each in its own span; returns the pivots of
/// the dense solve.
fn replay_parts<P: SteadyProblem>(
    spans: &mut Spans,
    new: impl FnOnce() -> Result<P, CoreError>,
) -> Result<usize, String> {
    let problem =
        spans.leaf("core.problem_new", new).map_err(|e| format!("a pool query is invalid: {e}"))?;
    let (lp, vars) = spans.leaf("core.formulate", || problem.formulate());
    let solution = spans
        .leaf("linprog.dense_solve", || solve_exact_auto(&lp))
        .map_err(|e| format!("a pool LP failed: {e}"))?;
    spans.leaf("core.interpret", || black_box(problem.interpret(&vars, &solution.values)));
    Ok(solution.iterations)
}

/// `core` and the dense `linprog` route, against `solve_query` as the whole.
fn replay_cold(
    seed: u64,
    size: &Size,
    spans: &mut Spans,
    values: &mut Values,
) -> Result<(), String> {
    let pool = inputs::small_pool(if size.smoke { 20 } else { COLD_POOL }, seed);
    let mut pivots = 0usize;
    let pass_count = passes(size, 5);
    for pass in 0..pass_count {
        spans.set_slice(pass);
        for query in &pool {
            spans.next_op();
            pivots += spans.scope("replay.cold", |spans| {
                spans
                    .leaf("service.solve_query", || solve_query(query, false))
                    .map_err(|e| format!("a pool query failed: {e}"))?;
                spans.leaf("service.fingerprint.pool", || black_box(query.fingerprint()));
                // `solve_query` clones the platform into the problem it
                // builds; so does the replay, inside the same span.
                let p = || query.platform.clone();
                match &query.collective {
                    Collective::Scatter { source, targets } => {
                        replay_parts(spans, || ScatterProblem::new(p(), *source, targets.clone()))
                    }
                    Collective::Gather { sources, sink } => {
                        replay_parts(spans, || GatherProblem::new(p(), sources.clone(), *sink))
                    }
                    Collective::Gossip { sources, targets } => replay_parts(spans, || {
                        GossipProblem::new(p(), sources.clone(), targets.clone())
                    }),
                    Collective::Reduce { participants, target, size, task_cost } => {
                        replay_parts(spans, || {
                            ReduceProblem::new(
                                p(),
                                participants.clone(),
                                *target,
                                size.clone(),
                                task_cost.clone(),
                            )
                        })
                    }
                    Collective::Prefix { participants, size, task_cost } => {
                        replay_parts(spans, || {
                            PrefixProblem::new(
                                p(),
                                participants.clone(),
                                size.clone(),
                                task_cost.clone(),
                            )
                        })
                    }
                }
            })?;
        }
    }

    let per_query = |name: &str| spans.quiet_ns(name, Fold::Sum) / pool.len() as f64;
    let parts = ["core.problem_new", "core.formulate", "linprog.dense_solve", "core.interpret"];
    let [new, formulate, solve, interpret] = parts.map(per_query);
    let whole = per_query("service.solve_query");
    let attributed = new + formulate + solve + interpret + per_query("service.fingerprint.pool");
    let unattributed = 1.0 - attributed / whole;
    values.push(("core.problem_new_us", micros(new)));
    values.push(("core.formulate_us", micros(formulate)));
    values.push(("core.interpret_us", micros(interpret)));
    values.push(("linprog.dense_solve_us", micros(solve)));
    values
        .push(("linprog.dense_pivots_per_solve", pivots as f64 / (pool.len() * pass_count) as f64));
    values.push(("core.unattributed_fraction", unattributed));
    if !size.smoke && !UNATTRIBUTED_RANGE.contains(&unattributed) {
        return Err(format!(
            "core.unattributed_fraction = {unattributed:.3} is outside {UNATTRIBUTED_RANGE:?}: \
             the parts of a cold solve no longer add up to solve_query"
        ));
    }
    Ok(())
}

/// The 200-node route: `core` at scale, the revised `linprog` solver seen
/// through its observer, and `rational` on the solved values.
fn replay_scale(
    seed: u64,
    size: &Size,
    spans: &mut Spans,
    values: &mut Values,
) -> Result<(), String> {
    let instances = inputs::scale_instances(if size.smoke { 1 } else { 3 }, seed);
    let queries: Vec<Query> = instances.iter().map(inputs::scale_query).collect();
    let problems: Vec<ScatterProblem> = instances
        .into_iter()
        .map(|i| ScatterProblem::from_instance(i).map_err(|e| format!("bad instance: {e}")))
        .collect::<Result<_, _>>()?;
    let options = scaling_options();
    let count = problems.len() as f64;

    // Per pass: the sum over instances of what the observer reported.
    let (mut phase1, mut phase2, mut refactor) = (Vec::new(), Vec::new(), Vec::new());
    let (mut pivots, mut degenerate, mut refactorizations, mut peak_eta, mut fallbacks) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    let mut solved_values: Vec<Ratio> = Vec::new();
    let pass_count = passes(size, 3);
    for pass in 0..pass_count {
        spans.set_slice(pass);
        let mut sums = [0.0f64; 3];
        for (query, problem) in queries.iter().zip(&problems) {
            spans.next_op();
            spans.leaf("service.fingerprint_200n", || black_box(query.fingerprint()));
            let (lp, vars) = spans.leaf("core.formulate_200n", || problem.formulate());
            let mut observer = RecordingObserver::unbounded();
            let solution = spans
                .leaf("linprog.revised_solve", || {
                    solve_certified_warm_observed(&lp, &options, None, &mut observer)
                })
                .map_err(|e| format!("a 200-node solve failed: {e}"))?;
            let recording = observer.finish();
            let breakdown = recording.breakdown();
            sums[0] += breakdown.phase1_nanos as f64;
            sums[1] += breakdown.phase2_nanos as f64;
            sums[2] += breakdown.refactor_nanos as f64;
            pivots += recording.health.pivots;
            degenerate += recording.health.degenerate_pivots;
            refactorizations += recording.health.refactorizations;
            peak_eta = peak_eta.max(recording.health.peak_eta);
            fallbacks += usize::from(recording.health.fell_back());
            let interpreted =
                spans.leaf("core.interpret_200n", || problem.interpret(&vars, &solution.values));
            spans
                .leaf("core.verify_200n", || interpreted.verify(problem))
                .map_err(|e| format!("a 200-node solution does not verify: {e}"))?;
            solved_values = solution.values;
        }
        phase1.push(sums[0]);
        phase2.push(sums[1]);
        refactor.push(sums[2]);
    }

    // `rational`: an exact dot product over the non-zero solved values.
    let terms: Vec<&Ratio> = solved_values.iter().filter(|v| !v.is_zero()).collect();
    for pass in 0..passes(size, 10) {
        spans.set_slice(pass);
        spans.next_op();
        spans.leaf("rational.dot", || {
            let mut sum = Ratio::zero();
            for &term in &terms {
                sum = &sum + &(term * term);
            }
            black_box(sum)
        });
    }

    let per_instance = |name: &str| spans.quiet_ns(name, Fold::Sum) / count;
    let solves = count * pass_count as f64;
    values.push(("service.fingerprint_200n_us", micros(per_instance("service.fingerprint_200n"))));
    values.push(("core.formulate_200n_ms", millis(per_instance("core.formulate_200n"))));
    values.push(("core.interpret_200n_ms", millis(per_instance("core.interpret_200n"))));
    values.push(("core.verify_200n_ms", millis(per_instance("core.verify_200n"))));
    values.push(("linprog.revised_solve_ms", millis(per_instance("linprog.revised_solve"))));
    values.push(("linprog.revised_phase1_ms", millis(estimator::quiet(&phase1) / count)));
    values.push(("linprog.revised_phase2_ms", millis(estimator::quiet(&phase2) / count)));
    values.push(("linprog.revised_refactor_ms", millis(estimator::quiet(&refactor) / count)));
    values.push(("linprog.revised_pivots", pivots as f64 / solves));
    values.push(("linprog.revised_degenerate_fraction", degenerate as f64 / pivots.max(1) as f64));
    values.push(("linprog.revised_refactorizations", refactorizations as f64 / solves));
    values.push(("linprog.revised_peak_eta", peak_eta as f64));
    values.push(("linprog.certify_fallbacks", fallbacks as f64));
    values.push((
        "rational.dot_ns_per_term",
        spans.quiet_ns("rational.dot", Fold::Sum) / terms.len().max(1) as f64,
    ));
    Ok(())
}

/// Sends every task it runs back to the submitter.
struct Echo(mpsc::Sender<()>);

impl WorkerHooks<()> for Echo {
    fn run(&self, _worker: usize, _task: LaneTask<()>) {
        let _ = self.0.send(());
    }
}

/// `sched`: a no-op demand task through the default scheduler and back, and
/// the lane injector on its own.
fn replay_sched(size: &Size, spans: &mut Spans, values: &mut Values) {
    let epoch = Instant::now();
    let now: NowFn = Arc::new(move || epoch.elapsed().as_nanos() as u64);
    let (sender, receiver) = mpsc::channel();
    let running = SchedulerKind::default().build::<()>().start(1, Arc::new(Echo(sender)), now);
    let lanes: LaneQueues<()> = LaneQueues::new();
    let round_trips = if size.smoke { 50 } else { 500 };
    for pass in 0..passes(size, 10) {
        spans.set_slice(pass);
        for _ in 0..round_trips {
            spans.next_op();
            spans.leaf("sched.roundtrip", || {
                running.submit(LaneTask::new((), Lane::Demand, 0));
                receiver.recv().expect("the scheduler runs the task")
            });
        }
        spans.next_op();
        spans.leaf("sched.lane_push_pop.batch", || {
            for _ in 0..BATCH {
                lanes.push(LaneTask::new((), Lane::Demand, 0));
                assert!(matches!(black_box(lanes.pop(0)), Popped::Task(_)));
            }
        });
    }
    running.shutdown();
    values.push(("sched.roundtrip_us", micros(spans.quiet_ns("sched.roundtrip", Fold::Median))));
    values.push((
        "sched.lane_push_pop_ns",
        spans.quiet_ns("sched.lane_push_pop.batch", Fold::Sum) / BATCH as f64,
    ));
}
