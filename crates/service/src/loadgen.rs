//! Load generation: configurable query mixes, concurrent clients and a
//! latency/throughput report.
//!
//! The generator builds a pool of *distinct* queries spanning every
//! collective kind and several topology families from
//! [`steady_platform::generators`] (the paper's figures, stars, a small
//! Tiers hierarchy, random connected platforms), then replays a long,
//! repetition-heavy random sequence drawn from that pool through a
//! [`Service`] from several client threads — the access pattern of a
//! deployment where many users ask about the same few platforms.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use steady_core::error::CoreError;
use steady_core::problem::SolvedBasis;
use steady_core::{GatherProblem, ScatterProblem};
use steady_drift::{DriftConfig, DriftModel};
use steady_forecast::{ClassFate, ForecastConfig, Forecaster, PredictedTriage, PresolvePlan};
use steady_platform::generators::{
    figure2, figure6, heterogeneous_star, random_connected, star, tiers, RandomConfig, TiersConfig,
};
use steady_platform::{NodeId, Platform};
use steady_rational::rat;

use crate::engine::{PrefetchJob, ServeError, Service, ServiceStats};
use crate::metrics::{HistogramSnapshot, MetricsSnapshot, METRICS_SCHEMA_VERSION};
use crate::obs::ClientSpan;
use crate::query::{solve_query, Collective, Query};
use crate::ServiceError;

/// Parameters of one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Total number of queries to issue.
    pub queries: usize,
    /// Number of concurrent client threads.
    pub clients: usize,
    /// Size of the distinct-query pool the sequence is drawn from.
    pub distinct: usize,
    /// Seed for both the pool and the replay sequence.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig { queries: 1000, clients: 4, distinct: 24, seed: 42 }
    }
}

/// The drift shape of the tenth mix family: a *forecastable* walk — small
/// per-step walker moves (a fine grid around scale 1) and a low move
/// probability, so consecutive steps are highly repetitive and a
/// [`steady_forecast::Forecaster`] plan of a handful of candidates covers
/// most of the next step's probability mass.
pub fn forecastable_drift_config() -> DriftConfig {
    DriftConfig { grid: 16, min_num: 12, max_num: 24, move_probability: 0.15 }
}

/// Builds a pool of up to `distinct` queries cycling through ten families:
/// the Figure 2 scatter and Figure 6 reduce, star scatters, heterogeneous
/// star gathers, random-connected gossips and reduces, small Tiers reduces,
/// a **cost-redraw** family — one fixed star topology whose edge costs are
/// re-drawn independently per variant — a **cost-drift-walk** family,
/// where consecutive variants are successive steps of one bounded random
/// walk ([`steady_drift::DriftModel`]): the time-correlated traffic shape of
/// a deployment whose link performance drifts gradually — and a
/// **forecastable-drift** family, the same shape under the lazier, finer
/// walk of [`forecastable_drift_config`] (the repetition-heavy regime the
/// speculative pre-solver is built for).  The drift families yield distinct
/// cache keys inside one structural class, so they exercise the engine's
/// triage path — every variant after the first seeds its solve with the
/// class basis, and the walk families' small steps are what the
/// `InRange`/`DualRepair` fast rungs are built for.
/// Instances within a family vary in size and random seed; the fixed-figure
/// families repeat, so the pool is deduplicated by fingerprint before it is
/// returned — every entry is a genuinely distinct cache key and the reported
/// `distinct` count stays honest.
pub fn query_mix(distinct: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    // The walk families each share one model across variants so their
    // queries form genuine trajectories, not independent draws.
    let walk_star = heterogeneous_star(&[rat(1, 2), rat(1, 3), rat(1, 4), rat(1, 5), rat(1, 6)]);
    let mut walk = DriftModel::new(walk_star.0.clone(), DriftConfig::default(), seed ^ 0xd41f);
    let lazy_star = heterogeneous_star(&[rat(1, 2), rat(1, 3), rat(1, 4), rat(1, 5)]);
    let mut lazy_walk =
        DriftModel::new(lazy_star.0.clone(), forecastable_drift_config(), seed ^ 0xf0ca);
    let candidates: Vec<Query> = (0..distinct)
        .map(|i| {
            let variant = (i / 10) as u64;
            match i % 10 {
                0 => {
                    let instance = figure2();
                    Query {
                        platform: instance.platform,
                        collective: Collective::Scatter {
                            source: instance.source,
                            targets: instance.targets,
                        },
                    }
                }
                1 => {
                    let instance = figure6();
                    Query {
                        platform: instance.platform,
                        collective: Collective::Reduce {
                            participants: instance.participants,
                            target: instance.target,
                            size: instance.message_size,
                            task_cost: instance.task_cost,
                        },
                    }
                }
                2 => {
                    let leaves = 3 + (variant as usize % 4);
                    let cost = rat(1, rng.gen_range(1i64..=4));
                    let (platform, root, leaves) = star(leaves, cost);
                    Query {
                        platform,
                        collective: Collective::Scatter { source: root, targets: leaves },
                    }
                }
                3 => {
                    let costs: Vec<_> = (0..3 + (variant as usize % 3))
                        .map(|_| rat(1, rng.gen_range(1i64..=5)))
                        .collect();
                    let (platform, center, leaves) = heterogeneous_star(&costs);
                    Query {
                        platform,
                        collective: Collective::Gather { sources: leaves, sink: center },
                    }
                }
                4 => {
                    let config = RandomConfig { nodes: 5, ..RandomConfig::default() };
                    let platform = random_connected(&config, &mut rng);
                    Query {
                        platform,
                        collective: Collective::Gossip {
                            sources: vec![NodeId(0), NodeId(1)],
                            targets: vec![NodeId(2), NodeId(3)],
                        },
                    }
                }
                5 => {
                    let config = RandomConfig {
                        nodes: 5 + (variant as usize % 2),
                        ..RandomConfig::default()
                    };
                    let platform = random_connected(&config, &mut rng);
                    let participants: Vec<NodeId> = platform.node_ids().collect();
                    Query {
                        platform,
                        collective: Collective::Reduce {
                            participants,
                            target: NodeId(0),
                            size: rat(1, 1),
                            task_cost: rat(1, 1),
                        },
                    }
                }
                6 => {
                    let config = TiersConfig {
                        wan_routers: 1,
                        man_per_wan: 1,
                        lan_per_man: 3,
                        ..TiersConfig::default()
                    };
                    let t = tiers(&config, &mut rng);
                    let target = t.hosts[0];
                    Query {
                        platform: t.platform,
                        collective: Collective::Reduce {
                            participants: t.hosts,
                            target,
                            size: rat(1, 1),
                            task_cost: rat(1, 1),
                        },
                    }
                }
                7 => {
                    // Cost redraw: a fixed 4-leaf star whose edge costs are
                    // re-drawn per variant.  Every variant is a distinct cache
                    // key in one structural class, so all but the first
                    // exercise the triage path on their cold solve.
                    let costs: Vec<_> =
                        (0..4).map(|leaf| rat(1, 1 + ((variant as i64 * 5 + leaf) % 6))).collect();
                    let (platform, center, leaves) = heterogeneous_star(&costs);
                    Query {
                        platform,
                        collective: Collective::Scatter { source: center, targets: leaves },
                    }
                }
                8 => {
                    // Cost-drift walk: one more step of the shared random
                    // walk on the fixed 5-leaf star — consecutive variants
                    // are time-correlated, like a platform under gradually
                    // shifting congestion.
                    Query {
                        platform: walk.step(),
                        collective: Collective::Scatter {
                            source: walk_star.1,
                            targets: walk_star.2.clone(),
                        },
                    }
                }
                _ => {
                    // Forecastable drift: the lazier, finer walk on a fixed
                    // 4-leaf star.  Most steps move nothing or one edge by
                    // 1/16, so a small presolve plan covers the likely next
                    // platforms — the regime `forecast-bench` measures.
                    Query {
                        platform: lazy_walk.step(),
                        collective: Collective::Scatter {
                            source: lazy_star.1,
                            targets: lazy_star.2.clone(),
                        },
                    }
                }
            }
        })
        .collect();
    let mut seen = std::collections::BTreeSet::new();
    candidates.into_iter().filter(|q| seen.insert(q.fingerprint())).collect()
}

/// Outcome of a load run: sustained throughput, latency percentiles and the
/// service's counters at the end of the run.
///
/// Latency percentiles come from the shared log-linear histogram
/// ([`HistogramSnapshot`], one per client thread, merged), not from a sorted
/// sample vector: each reported quantile is a bucket midpoint, so it carries
/// the histogram's bounded relative error of at most one bucket width —
/// `2⁻⁶ ≈ 1.6%` of the value (exact below 64 ns).  In exchange the
/// percentile math is mergeable across clients and runs and costs O(1)
/// memory regardless of query count.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Queries issued (including any shed by admission control).
    pub queries: usize,
    /// Concurrent clients.
    pub clients: usize,
    /// Distinct queries in the pool.
    pub distinct: usize,
    /// Wall-clock duration of the run, in seconds.
    pub elapsed_seconds: f64,
    /// Sustained queries per second.
    pub queries_per_second: f64,
    /// Median response latency, in microseconds.
    pub p50_micros: f64,
    /// 95th-percentile response latency, in microseconds.
    pub p95_micros: f64,
    /// 99th-percentile response latency, in microseconds.
    pub p99_micros: f64,
    /// Cache hit ratio over this run's queries only.
    pub hit_ratio: f64,
    /// Service counter increments attributable to this run (traffic the
    /// service handled before the run is subtracted out); `cached_entries`
    /// is the gauge value at the end of the run.
    pub stats: ServiceStats,
    /// Client-observed end-to-end latency, merged across all clients.
    pub latency: HistogramSnapshot,
    /// Increment of [`Service::metrics`] over this run — the per-stage
    /// latency histograms (`stage_*`, `e2e_*`) behind [`Self::render`]'s
    /// breakdown table.
    pub metrics: MetricsSnapshot,
    /// One span per query as the *client* saw it, recorded only when the
    /// service has tracing enabled; merged into the Perfetto export as the
    /// client tracks.
    pub client_spans: Vec<ClientSpan>,
}

impl LoadReport {
    /// Machine-readable one-object JSON summary (for `BENCH_service.json`).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"schema_version\":{},",
                "\"queries\":{},\"clients\":{},\"distinct\":{},",
                "\"elapsed_seconds\":{:.6},\"queries_per_second\":{:.1},",
                "\"p50_micros\":{:.1},\"p95_micros\":{:.1},\"p99_micros\":{:.1},",
                "\"hit_ratio\":{:.4},\"hits\":{},\"misses\":{},\"coalesced\":{},",
                "\"solves\":{},\"warm_solves\":{},",
                "\"triaged\":{},\"in_range\":{},\"dual_repairs\":{},",
                "\"expired\":{},\"revalidations\":{},\"stale_served\":{},",
                "\"mean_warm_pivots\":{:.2},\"mean_cold_pivots\":{:.2},",
                "\"mean_warm_solve_micros\":{:.1},\"mean_cold_solve_micros\":{:.1},",
                "\"shed\":{},\"errors\":{},\"evictions\":{}}}"
            ),
            METRICS_SCHEMA_VERSION,
            self.queries,
            self.clients,
            self.distinct,
            self.elapsed_seconds,
            self.queries_per_second,
            self.p50_micros,
            self.p95_micros,
            self.p99_micros,
            self.hit_ratio,
            self.stats.hits,
            self.stats.misses,
            self.stats.coalesced,
            self.stats.solves,
            self.stats.warm_solves,
            self.stats.triaged,
            self.stats.in_range,
            self.stats.dual_repairs,
            self.stats.expired,
            self.stats.revalidations,
            self.stats.stale_served,
            self.stats.mean_warm_pivots(),
            self.stats.mean_cold_pivots(),
            self.stats.mean_warm_solve_micros(),
            self.stats.mean_cold_solve_micros(),
            self.stats.shed,
            self.stats.errors,
            self.stats.evictions,
        )
    }

    /// Human-readable multi-line rendering of the report, ending with the
    /// per-stage latency breakdown table (where a query's time went:
    /// lookup vs queue-wait vs solve vs publish, with the
    /// end-to-end distributions split hit / warm / cold / coalesced; hits
    /// stop after the lookup, so the queue and lane rows count misses only).
    pub fn render(&self) -> String {
        let mut out = format!(
            "queries            : {} ({} distinct, {} clients)\n\
             elapsed            : {:.3} s\n\
             queries/sec        : {:.1}\n\
             latency p50/p95/p99: {:.1} / {:.1} / {:.1} µs\n\
             cache hit ratio    : {:.1}% ({} hits, {} misses, {} evictions)\n\
             coalesced (dedup)  : {}\n\
             cold LP solves     : {} ({} warm-started, {} shed)\n\
             drift triage       : {} triaged — {} in-range, {} dual-repaired\n\
             ttl / stale        : {} expired, {} revalidated, {} stale-served\n\
             mean pivots        : {:.1} warm vs {:.1} cold\n\
             mean solve latency : {:.1} µs warm vs {:.1} µs cold\n\
             scheduler lanes    : {} demand timeouts, {} prefetch cancelled\n",
            self.queries,
            self.distinct,
            self.clients,
            self.elapsed_seconds,
            self.queries_per_second,
            self.p50_micros,
            self.p95_micros,
            self.p99_micros,
            self.hit_ratio * 100.0,
            self.stats.hits,
            self.stats.misses,
            self.stats.evictions,
            self.stats.coalesced,
            self.stats.solves,
            self.stats.warm_solves,
            self.stats.shed,
            self.stats.triaged,
            self.stats.in_range,
            self.stats.dual_repairs,
            self.stats.expired,
            self.stats.revalidations,
            self.stats.stale_served,
            self.stats.mean_warm_pivots(),
            self.stats.mean_cold_pivots(),
            self.stats.mean_warm_solve_micros(),
            self.stats.mean_cold_solve_micros(),
            self.stats.demand_timeouts,
            self.stats.prefetch_cancelled,
        );
        out.push_str(&stage_table(&self.metrics));
        out
    }
}

/// Renders the per-stage latency breakdown table from a [`Service::metrics`]
/// increment: one row per lifecycle stage histogram, in lifecycle order, plus
/// the end-to-end distributions split by how the query was served.
pub fn stage_table(metrics: &MetricsSnapshot) -> String {
    const ROWS: [(&str, &str); 11] = [
        ("cache lookup", "stage_lookup_nanos"),
        ("lane demand", "lane_demand_wait_nanos"),
        ("lane revalidate", "lane_revalidation_wait_nanos"),
        ("lane prefetch", "lane_prefetch_wait_nanos"),
        ("solve (warm)", "stage_solve_warm_nanos"),
        ("solve (cold)", "stage_solve_cold_nanos"),
        ("publish", "stage_publish_nanos"),
        ("e2e hit", "e2e_hit_nanos"),
        ("e2e warm solve", "e2e_solve_warm_nanos"),
        ("e2e cold solve", "e2e_solve_cold_nanos"),
        ("e2e coalesced", "e2e_coalesced_nanos"),
    ];
    let mut out = String::from(
        "stage breakdown    :          stage    count      p50      p95      p99 (µs)\n",
    );
    for (label, name) in ROWS {
        let Some(h) = metrics.histogram(name) else { continue };
        if h.count() == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "                     {label:>14} {:>8} {:>8.1} {:>8.1} {:>8.1}",
            h.count(),
            h.quantile(0.50) as f64 / 1_000.0,
            h.quantile(0.95) as f64 / 1_000.0,
            h.quantile(0.99) as f64 / 1_000.0,
        );
    }
    out
}

/// A histogram quantile in microseconds — the bucket-midpoint estimate, with
/// the histogram's ≤ one-bucket-width (≈1.6%) relative error.
fn quantile_micros(latency: &HistogramSnapshot, q: f64) -> f64 {
    latency.quantile(q) as f64 / 1_000.0
}

/// Replays `config.queries` queries drawn from [`query_mix`] through
/// `service` using `config.clients` concurrent client threads, and returns
/// the latency/throughput report.  Fails if any query fails; queries *shed*
/// by admission control are an accounted outcome, not a failure — they are
/// timed and counted like served ones (see [`ServiceStats::shed`]).
pub fn run_load(service: &Service, config: &LoadConfig) -> Result<LoadReport, ServiceError> {
    let mix = query_mix(config.distinct.max(1), config.seed);
    // Pre-draw the replay sequence so clients race only on the work counter.
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x6c6f_6164);
    let sequence: Vec<usize> = (0..config.queries).map(|_| rng.gen_range(0..mix.len())).collect();

    let next = AtomicUsize::new(0);
    let clients = config.clients.max(1);
    // Clients stamp with the service's own clock so their spans share a
    // time base with the worker-side traces in the Perfetto export.
    let clock = service.clock();
    let spans_wanted = service.tracing_enabled();
    let before = service.stats();
    let metrics_before = service.metrics();
    let started = Instant::now();
    type ClientOutcome = Result<(HistogramSnapshot, Vec<ClientSpan>), ServiceError>;
    let per_client: Vec<ClientOutcome> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let next = &next;
                let mix = &mix;
                let sequence = &sequence;
                let clock = Arc::clone(&clock);
                scope.spawn(move |_| {
                    let mut latency = HistogramSnapshot::empty();
                    let mut spans = Vec::new();
                    loop {
                        // relaxed: a claim ticket only needs atomicity, not
                        // ordering — each index goes to exactly one client.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= sequence.len() {
                            return Ok((latency, spans));
                        }
                        let query = mix[sequence[i]].clone();
                        let sent = clock.now_nanos();
                        let outcome = match service.query(query) {
                            Ok(served) => served.via.name(),
                            Err(ServeError::Shed) => "shed",
                            Err(ServeError::Failed(e)) => return Err(e),
                        };
                        let end = clock.now_nanos();
                        latency.record(end.saturating_sub(sent));
                        if spans_wanted {
                            spans.push(ClientSpan {
                                client: client as u32,
                                start_nanos: sent,
                                end_nanos: end,
                                outcome,
                            });
                        }
                    }
                })
            })
            .collect();
        // lint: allow(panics) — propagates a client-thread panic instead of fabricating latencies.
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    })
    // lint: allow(panics) — propagates a client-thread panic instead of fabricating latencies.
    .expect("a load client panicked");
    let elapsed = started.elapsed();

    let mut latency = HistogramSnapshot::empty();
    let mut client_spans = Vec::new();
    for client in per_client {
        let (client_latency, spans) = client?;
        latency.merge(&client_latency);
        client_spans.extend(spans);
    }

    let stats = service.stats().since(&before);
    let metrics = service.metrics().since(&metrics_before);
    let elapsed_seconds = elapsed.as_secs_f64();
    Ok(LoadReport {
        queries: latency.count() as usize,
        clients,
        distinct: mix.len(),
        elapsed_seconds,
        queries_per_second: if elapsed_seconds > 0.0 {
            latency.count() as f64 / elapsed_seconds
        } else {
            0.0
        },
        p50_micros: quantile_micros(&latency, 0.50),
        p95_micros: quantile_micros(&latency, 0.95),
        p99_micros: quantile_micros(&latency, 0.99),
        hit_ratio: stats.hit_ratio(),
        stats,
        latency,
        metrics,
        client_spans,
    })
}

/// Parameters of a drift scenario run (see [`run_drift_load`]).
#[derive(Debug, Clone)]
pub struct DriftLoadConfig {
    /// Number of drift epochs: each advances the service epoch and steps
    /// every scenario's random walk once.
    pub epochs: usize,
    /// Repeat submissions of each epoch's query (cache-hit traffic riding
    /// along with the drift).
    pub hits_per_epoch: usize,
    /// Seed for the walks.
    pub seed: u64,
    /// Re-solve every drifted query cold after the run and require exact
    /// `Ratio` equality with the served answer.
    pub verify: bool,
}

impl Default for DriftLoadConfig {
    fn default() -> Self {
        DriftLoadConfig { epochs: 40, hits_per_epoch: 3, seed: 42, verify: true }
    }
}

/// Outcome of a drift scenario run: the triage split, TTL/revalidation
/// traffic and the exactness verification count.
#[derive(Debug, Clone)]
pub struct DriftReport {
    /// Drift epochs executed.
    pub epochs: usize,
    /// Total queries issued (drifted + hit + revalidation traffic).
    pub queries: usize,
    /// Drifted first-submissions (one per scenario per epoch).
    pub drifted_queries: usize,
    /// Wall-clock duration of the run, in seconds.
    pub elapsed_seconds: f64,
    /// Drifted answers re-verified exact against an independent cold solve.
    pub verified: usize,
    /// Service counter increments attributable to this run.
    pub stats: ServiceStats,
}

impl DriftReport {
    /// Fraction of triaged solves that reused the basis (`InRange` +
    /// `DualRepair`) — the drift pipeline's headline number.
    pub fn triage_reuse_fraction(&self) -> f64 {
        self.stats.triage_reuse_fraction()
    }

    /// Machine-readable one-object JSON summary (for `BENCH_drift.json`).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"schema_version\":{},",
                "\"epochs\":{},\"queries\":{},\"drifted_queries\":{},",
                "\"elapsed_seconds\":{:.6},",
                "\"solves\":{},\"triaged\":{},\"in_range\":{},\"dual_repairs\":{},",
                "\"warm_solves\":{},\"cold_solves\":{},",
                "\"triage_reuse_fraction\":{:.4},",
                "\"expired\":{},\"revalidations\":{},\"stale_served\":{},",
                "\"mean_warm_pivots\":{:.2},\"mean_cold_pivots\":{:.2},",
                "\"hits\":{},\"verified\":{},\"errors\":{}}}"
            ),
            METRICS_SCHEMA_VERSION,
            self.epochs,
            self.queries,
            self.drifted_queries,
            self.elapsed_seconds,
            self.stats.solves,
            self.stats.triaged,
            self.stats.in_range,
            self.stats.dual_repairs,
            self.stats.warm_solves,
            self.stats.cold_solves,
            self.triage_reuse_fraction(),
            self.stats.expired,
            self.stats.revalidations,
            self.stats.stale_served,
            self.stats.mean_warm_pivots(),
            self.stats.mean_cold_pivots(),
            self.stats.hits,
            self.verified,
            self.stats.errors,
        )
    }

    /// Human-readable multi-line rendering of the report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ =
            writeln!(out, "epochs             : {} ({} queries total)", self.epochs, self.queries);
        let _ = writeln!(out, "elapsed            : {:.3} s", self.elapsed_seconds);
        let _ = writeln!(
            out,
            "drifted queries    : {} ({} triaged against a prior basis)",
            self.drifted_queries, self.stats.triaged
        );
        let _ = writeln!(
            out,
            "triage outcomes    : {} in-range, {} dual-repaired, {} resolved ({:.1}% reused)",
            self.stats.in_range,
            self.stats.dual_repairs,
            self.stats.triaged - self.stats.in_range - self.stats.dual_repairs,
            self.triage_reuse_fraction() * 100.0,
        );
        let _ = writeln!(
            out,
            "ttl traffic        : {} expired, {} revalidated, {} stale-served",
            self.stats.expired, self.stats.revalidations, self.stats.stale_served
        );
        let _ = writeln!(
            out,
            "mean pivots        : {:.1} warm vs {:.1} cold",
            self.stats.mean_warm_pivots(),
            self.stats.mean_cold_pivots()
        );
        let _ = writeln!(
            out,
            "exactness          : {} drifted answers verified against cold solves",
            self.verified
        );
        out
    }
}

/// One drifting workload: a platform under a random walk plus the collective
/// asked about it (node roles stay fixed — only edge costs move, so every
/// step stays in one structural class).
struct DriftScenario {
    model: DriftModel,
    build: Box<dyn Fn(Platform) -> Query>,
    previous: Option<Query>,
}

/// The fixed scenario family of `steady drift-bench`: a star scatter, a star
/// gather and a random-connected reduce, each under an independent walk.
fn drift_scenarios(seed: u64) -> Vec<DriftScenario> {
    let scatter_star = heterogeneous_star(&[rat(1, 2), rat(1, 3), rat(1, 4), rat(1, 5), rat(1, 6)]);
    let gather_star = heterogeneous_star(&[rat(1, 2), rat(2, 3), rat(1, 4)]);
    let reduce_platform = random_connected(
        &RandomConfig { nodes: 5, ..RandomConfig::default() },
        &mut StdRng::seed_from_u64(seed),
    );
    let reduce_participants: Vec<NodeId> = reduce_platform.node_ids().collect();
    let config = DriftConfig::default();
    vec![
        DriftScenario {
            model: DriftModel::new(scatter_star.0, config.clone(), seed ^ 1),
            build: Box::new(move |platform| Query {
                platform,
                collective: Collective::Scatter {
                    source: scatter_star.1,
                    targets: scatter_star.2.clone(),
                },
            }),
            previous: None,
        },
        DriftScenario {
            model: DriftModel::new(gather_star.0, config.clone(), seed ^ 2),
            build: Box::new(move |platform| Query {
                platform,
                collective: Collective::Gather {
                    sources: gather_star.2.clone(),
                    sink: gather_star.1,
                },
            }),
            previous: None,
        },
        DriftScenario {
            model: DriftModel::new(reduce_platform, config, seed ^ 3),
            build: Box::new(move |platform| Query {
                platform,
                collective: Collective::Reduce {
                    participants: reduce_participants.clone(),
                    target: reduce_participants[0],
                    size: rat(1, 1),
                    task_cost: rat(1, 1),
                },
            }),
            previous: None,
        },
    ]
}

/// Replays the random-walk drift scenario family through `service`: each
/// epoch advances the service epoch (expiring the previous epoch's answers
/// under a TTL), steps every scenario's walk, submits the drifted query (a
/// fresh cache key in a known structural class → drift triage), repeats it
/// for hit traffic, and re-asks the *previous* epoch's query to exercise
/// TTL revalidation.  With [`DriftLoadConfig::verify`] set, every drifted
/// answer is re-checked for exact `Ratio` equality against an independent
/// cold solve after the run.
///
/// The service should be configured with a [`ttl`](crate::ServiceConfig::ttl)
/// (e.g. `Some(0)`) for the revalidation path to light up; without one the
/// run still exercises triage on every drifted query.
pub fn run_drift_load(
    service: &Service,
    config: &DriftLoadConfig,
) -> Result<DriftReport, ServiceError> {
    let mut scenarios = drift_scenarios(config.seed);
    let mut served: Vec<(Query, steady_rational::Ratio)> = Vec::new();
    let mut queries = 0usize;
    let before = service.stats();
    let started = Instant::now();

    let mut ask = |query: Query| -> Result<std::sync::Arc<crate::query::Answer>, ServiceError> {
        queries += 1;
        match service.query(query) {
            Ok(response) => Ok(response.answer),
            Err(ServeError::Shed) => {
                Err(ServiceError("drift run shed a query; run without admission limits".into()))
            }
            Err(ServeError::Failed(e)) => Err(e),
        }
    };

    for _ in 0..config.epochs.max(1) {
        service.advance_epoch();
        for scenario in scenarios.iter_mut() {
            let drifted = (scenario.build)(scenario.model.step());
            let answer = ask(drifted.clone())?;
            served.push((drifted.clone(), answer.throughput.clone()));
            for _ in 1..config.hits_per_epoch.max(1) {
                ask(drifted.clone())?;
            }
            // Revalidation probe: the previous epoch's query is expired now
            // (under a TTL) and must be revalidated through triage.
            if let Some(previous) = scenario.previous.replace(drifted) {
                ask(previous)?;
            }
        }
    }
    let elapsed_seconds = started.elapsed().as_secs_f64();

    let mut verified = 0usize;
    if config.verify {
        for (query, throughput) in &served {
            let cold = solve_query(query, false)?;
            if cold.throughput != *throughput {
                return Err(ServiceError(format!(
                    "drift triage diverged from a cold solve: served {} vs cold {}",
                    throughput, cold.throughput
                )));
            }
            verified += 1;
        }
    }

    Ok(DriftReport {
        epochs: config.epochs.max(1),
        queries,
        drifted_queries: served.len(),
        elapsed_seconds,
        verified,
        stats: service.stats().since(&before),
    })
}

/// Parameters of a forecast scenario run (see [`run_forecast_load`]).
#[derive(Debug, Clone)]
pub struct ForecastLoadConfig {
    /// Number of drift epochs: each forecasts, pre-solves the plan during
    /// idle time, then steps every scenario's walk and replays the drifted
    /// queries.
    pub epochs: usize,
    /// Repeat submissions of each epoch's query (cache-hit traffic riding
    /// along with the drift).
    pub hits_per_epoch: usize,
    /// Seed for the walks.
    pub seed: u64,
    /// Forecast horizon in drift steps (the bench steps once per epoch, so
    /// 1 is the honest setting; larger horizons widen the envelope).
    pub horizon: u64,
    /// Presolve-plan length per scenario per epoch (the likeliest-next
    /// platforms; also bounds the per-epoch certification work).
    pub plan: usize,
    /// Re-solve every drifted query cold after the run and require exact
    /// `Ratio` equality with the served answer.
    pub verify: bool,
}

impl Default for ForecastLoadConfig {
    fn default() -> Self {
        ForecastLoadConfig {
            epochs: 50,
            hits_per_epoch: 2,
            seed: 42,
            horizon: 1,
            plan: 16,
            verify: true,
        }
    }
}

/// Outcome of a forecast scenario run: how much of the drift was predicted
/// off the critical path.
#[derive(Debug, Clone)]
pub struct ForecastReport {
    /// Drift epochs executed.
    pub epochs: usize,
    /// Total demand queries issued (drifted + hit traffic + class seeding).
    pub queries: usize,
    /// Drifted first-submissions (one per scenario per epoch).
    pub drifted_queries: usize,
    /// Prefetch jobs scheduled from presolve plans.
    pub scheduled: usize,
    /// Epoch-forecasts that certified [`ClassFate::WillHold`].
    pub will_hold: usize,
    /// Epoch-forecasts that reported [`ClassFate::MayExit`].
    pub may_exit: usize,
    /// Epoch-forecasts that certified [`ClassFate::WillExit`].
    pub will_exit: usize,
    /// Wall-clock duration of the run, in seconds.
    pub elapsed_seconds: f64,
    /// Drifted answers re-verified exact against an independent cold solve.
    pub verified: usize,
    /// Service counter increments attributable to this run.
    pub stats: ServiceStats,
}

impl ForecastReport {
    /// Fraction of fresh demand work answered from prefetched entries (see
    /// [`ServiceStats::prefetch_hit_fraction`]) — the gate of
    /// `steady forecast-bench --min-prefetch-hit`.
    pub fn prefetch_hit_fraction(&self) -> f64 {
        self.stats.prefetch_hit_fraction()
    }

    /// Machine-readable one-object JSON summary (for `BENCH_forecast.json`).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"schema_version\":{},",
                "\"epochs\":{},\"queries\":{},\"drifted_queries\":{},\"scheduled\":{},",
                "\"elapsed_seconds\":{:.6},",
                "\"prefetched\":{},\"prefetch_hits\":{},\"prefetch_wasted\":{},",
                "\"predicted_exits\":{},\"prefetch_hit_fraction\":{:.4},",
                "\"will_hold\":{},\"may_exit\":{},\"will_exit\":{},",
                "\"solves\":{},\"triaged\":{},\"in_range\":{},\"dual_repairs\":{},",
                "\"hits\":{},\"preferred_evictions\":{},\"verified\":{},\"errors\":{}}}"
            ),
            METRICS_SCHEMA_VERSION,
            self.epochs,
            self.queries,
            self.drifted_queries,
            self.scheduled,
            self.elapsed_seconds,
            self.stats.prefetched,
            self.stats.prefetch_hits,
            self.stats.prefetch_wasted,
            self.stats.predicted_exits,
            self.prefetch_hit_fraction(),
            self.will_hold,
            self.may_exit,
            self.will_exit,
            self.stats.solves,
            self.stats.triaged,
            self.stats.in_range,
            self.stats.dual_repairs,
            self.stats.hits,
            self.stats.preferred_evictions,
            self.verified,
            self.stats.errors,
        )
    }

    /// Human-readable multi-line rendering of the report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ =
            writeln!(out, "epochs             : {} ({} queries total)", self.epochs, self.queries);
        let _ = writeln!(out, "elapsed            : {:.3} s", self.elapsed_seconds);
        let _ = writeln!(
            out,
            "forecasts          : {} will-hold, {} may-exit, {} will-exit",
            self.will_hold, self.may_exit, self.will_exit
        );
        let _ = writeln!(
            out,
            "speculative solves : {} scheduled, {} pre-solved, {} predicted exits",
            self.scheduled, self.stats.prefetched, self.stats.predicted_exits
        );
        let _ = writeln!(
            out,
            "prefetch landings  : {} hits, {} wasted ({:.1}% of fresh demand answered early)",
            self.stats.prefetch_hits,
            self.stats.prefetch_wasted,
            self.prefetch_hit_fraction() * 100.0,
        );
        let _ = writeln!(
            out,
            "demand solves      : {} ({} triaged — {} in-range, {} dual-repaired)",
            self.stats.solves, self.stats.triaged, self.stats.in_range, self.stats.dual_repairs
        );
        let _ = writeln!(
            out,
            "exactness          : {} drifted answers verified against cold solves",
            self.verified
        );
        out
    }
}

/// A scenario's monomorphized forecast hook: the
/// [`steady_core::problem::SteadyProblem`] types differ per collective, so
/// the plan call is captured per scenario.
type PlanFn =
    Box<dyn Fn(&Forecaster, &DriftModel, &SolvedBasis) -> Result<PresolvePlan, CoreError>>;

/// One forecastable workload: a platform under a lazy random walk, the
/// collective asked about it, and its forecast hook.
struct ForecastScenario {
    model: DriftModel,
    to_query: Box<dyn Fn(Platform) -> Query>,
    plan: PlanFn,
}

/// The fixed scenario family of `steady forecast-bench`: a star scatter and
/// a star gather, each under an independent *forecastable* walk
/// ([`forecastable_drift_config`]).
fn forecast_scenarios(seed: u64) -> Vec<ForecastScenario> {
    let scatter_star = heterogeneous_star(&[rat(1, 2), rat(1, 3), rat(1, 4), rat(1, 5)]);
    let gather_star = heterogeneous_star(&[rat(1, 2), rat(2, 3), rat(1, 4)]);
    let config = forecastable_drift_config();
    let (s_center, s_leaves) = (scatter_star.1, scatter_star.2.clone());
    let (g_sink, g_sources) = (gather_star.1, gather_star.2.clone());
    vec![
        ForecastScenario {
            model: DriftModel::new(scatter_star.0, config.clone(), seed ^ 0x5ca7),
            to_query: Box::new({
                let leaves = s_leaves.clone();
                move |platform| Query {
                    platform,
                    collective: Collective::Scatter { source: s_center, targets: leaves.clone() },
                }
            }),
            plan: Box::new(move |forecaster, model, basis| {
                forecaster.forecast(
                    model,
                    |p| ScatterProblem::new(p, s_center, s_leaves.clone()),
                    basis,
                )
            }),
        },
        ForecastScenario {
            model: DriftModel::new(gather_star.0, config, seed ^ 0x6a73),
            to_query: Box::new({
                let sources = g_sources.clone();
                move |platform| Query {
                    platform,
                    collective: Collective::Gather { sources: sources.clone(), sink: g_sink },
                }
            }),
            plan: Box::new(move |forecaster, model, basis| {
                forecaster.forecast(
                    model,
                    |p| GatherProblem::new(p, g_sources.clone(), g_sink),
                    basis,
                )
            }),
        },
    ]
}

/// Replays the forecastable drift scenarios through `service` with
/// speculative pre-solving: each epoch forecasts the likeliest next
/// platforms from the walk's current state, schedules them as prefetch
/// jobs, lets the idle workers drain the plan, then steps the walk and
/// submits the drifted queries — measuring how many were answered from a
/// prefetched entry instead of a critical-path solve.  With
/// [`ForecastLoadConfig::verify`] set, every drifted answer (prefetched or
/// not) is re-checked for exact `Ratio` equality against an independent
/// cold solve after the run.
///
/// Run the service without admission limits; a TTL is fine (prefetched
/// entries are stamped with the epoch they are predicted for).
pub fn run_forecast_load(
    service: &Service,
    config: &ForecastLoadConfig,
) -> Result<ForecastReport, ServiceError> {
    let mut scenarios = forecast_scenarios(config.seed);
    let forecaster = Forecaster::new(ForecastConfig {
        horizon: config.horizon.max(1),
        max_candidates: config.plan.max(1),
        // The plan is the point here: examine just enough of the envelope
        // (best-first, so exactly the likeliest states) to fill it.
        max_states: config.plan.max(1) + 1,
    });
    let mut served: Vec<(Query, steady_rational::Ratio)> = Vec::new();
    let mut queries = 0usize;
    let mut scheduled = 0usize;
    let (mut will_hold, mut may_exit, mut will_exit) = (0usize, 0usize, 0usize);
    let before = service.stats();
    let started = Instant::now();

    let mut ask = |query: Query| -> Result<std::sync::Arc<crate::query::Answer>, ServiceError> {
        queries += 1;
        match service.query(query) {
            Ok(response) => Ok(response.answer),
            Err(ServeError::Shed) => {
                Err(ServiceError("forecast run shed a query; run without admission limits".into()))
            }
            Err(ServeError::Failed(e)) => Err(e),
        }
    };

    // Seed every scenario's structural class with one demand solve of its
    // base state, so the first forecast has a basis to certify against.
    for scenario in scenarios.iter() {
        ask((scenario.to_query)(scenario.model.current()))?;
    }

    for _ in 0..config.epochs.max(1) {
        // The prefetched answers belong to the *next* epoch's traffic.
        service.advance_epoch();
        for scenario in scenarios.iter() {
            let current = (scenario.to_query)(scenario.model.current());
            let class = current.structural_fingerprint().0;
            let Some(basis) = service.class_basis(class) else { continue };
            let plan = (scenario.plan)(&forecaster, &scenario.model, &basis)
                .map_err(|e| ServiceError(format!("forecast failed: {e}")))?;
            match plan.fate {
                ClassFate::WillHold => will_hold += 1,
                ClassFate::MayExit => may_exit += 1,
                ClassFate::WillExit => will_exit += 1,
            }
            let jobs: Vec<PrefetchJob> = plan
                .candidates
                .iter()
                .map(|candidate| PrefetchJob {
                    query: (scenario.to_query)(candidate.platform.clone()),
                    predicted_exit: candidate.expected == PredictedTriage::Repair,
                })
                .collect();
            scheduled += service.schedule_prefetch(jobs);
        }
        if !service.await_prefetch_idle(Duration::from_secs(120)) {
            return Err(ServiceError("the prefetch backlog did not drain".into()));
        }
        // The drift happens; the (hopefully predicted) traffic arrives.
        for scenario in scenarios.iter_mut() {
            let drifted = (scenario.to_query)(scenario.model.step());
            let answer = ask(drifted.clone())?;
            served.push((drifted.clone(), answer.throughput.clone()));
            for _ in 1..config.hits_per_epoch.max(1) {
                ask(drifted.clone())?;
            }
        }
    }
    let elapsed_seconds = started.elapsed().as_secs_f64();

    let mut verified = 0usize;
    if config.verify {
        for (query, throughput) in &served {
            let cold = solve_query(query, false)?;
            if cold.throughput != *throughput {
                return Err(ServiceError(format!(
                    "a (possibly prefetched) answer diverged from a cold solve: \
                     served {} vs cold {}",
                    throughput, cold.throughput
                )));
            }
            verified += 1;
        }
    }

    Ok(ForecastReport {
        epochs: config.epochs.max(1),
        queries,
        drifted_queries: served.len(),
        scheduled,
        will_hold,
        may_exit,
        will_exit,
        elapsed_seconds,
        verified,
        stats: service.stats().since(&before),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_deduplicated_and_spans_kinds() {
        let a = query_mix(14, 9);
        let b = query_mix(14, 9);
        assert_eq!(a.len(), b.len());
        for (qa, qb) in a.iter().zip(&b) {
            assert_eq!(qa.fingerprint(), qb.fingerprint());
        }
        // The fixed-figure families repeat past one full cycle; duplicates
        // are dropped, and what remains is pairwise distinct.
        assert!(a.len() >= 7 && a.len() <= 14, "got {} queries", a.len());
        let fingerprints: std::collections::BTreeSet<_> =
            a.iter().map(|q| q.fingerprint()).collect();
        assert_eq!(fingerprints.len(), a.len(), "pool is deduplicated by fingerprint");
        let kinds: std::collections::BTreeSet<_> =
            a.iter().map(|q| q.collective.kind_name()).collect();
        assert!(kinds.len() >= 4, "mix spans several collective kinds: {kinds:?}");
    }

    #[test]
    fn every_mix_query_is_valid() {
        for query in query_mix(21, 3) {
            query.validate().expect("mix queries reference existing nodes");
        }
    }

    #[test]
    fn mix_contains_a_cost_drift_structural_class() {
        // The cost-drift family yields several distinct cache keys in one
        // structural class, so a load run actually exercises warm starts.
        let mix = query_mix(24, 42);
        let mut class_sizes = std::collections::BTreeMap::new();
        for query in &mix {
            *class_sizes.entry(query.structural_fingerprint()).or_insert(0usize) += 1;
        }
        assert!(
            class_sizes.values().any(|&n| n >= 2),
            "expected a structural class with several cost variants: {class_sizes:?}"
        );
    }

    #[test]
    fn mix_contains_a_time_correlated_walk_class() {
        // The walk family (i % 10 == 8) puts several successive walk states
        // of one fixed star into the pool: same structural class, distinct
        // cache keys.
        let mix = query_mix(40, 5);
        let mut class_sizes = std::collections::BTreeMap::new();
        for query in &mix {
            *class_sizes.entry(query.structural_fingerprint()).or_insert(0usize) += 1;
        }
        assert!(
            class_sizes.values().any(|&n| n >= 3),
            "expected a walk class with several steps: {class_sizes:?}"
        );
    }

    #[test]
    fn mix_contains_the_forecastable_family() {
        // The tenth family (i % 10 == 9) walks the lazy fine-grained config:
        // its variants share one structural class, and consecutive steps
        // are close enough that a one-step envelope covers them.
        let mix = query_mix(60, 11);
        let lazy_class = {
            let (platform, center, leaves) =
                heterogeneous_star(&[rat(1, 2), rat(1, 3), rat(1, 4), rat(1, 5)]);
            Query { platform, collective: Collective::Scatter { source: center, targets: leaves } }
                .structural_fingerprint()
        };
        let members = mix.iter().filter(|q| q.structural_fingerprint() == lazy_class).count();
        assert!(members >= 2, "expected several lazy-walk variants, got {members}");
        let config = forecastable_drift_config();
        assert!(config.move_probability < DriftConfig::default().move_probability);
        assert!(config.min_num > DriftConfig::default().min_num);
        assert!(config.max_num < DriftConfig::default().max_num);
    }

    #[test]
    fn forecast_load_prefetches_exactly() {
        use crate::engine::{Service, ServiceConfig};

        let service = Service::start(ServiceConfig { workers: 2, ..ServiceConfig::default() });
        let config = ForecastLoadConfig {
            epochs: 10,
            hits_per_epoch: 2,
            seed: 9,
            horizon: 1,
            plan: 12,
            verify: true,
        };
        let report = run_forecast_load(&service, &config).unwrap();
        assert_eq!(report.epochs, 10);
        assert_eq!(report.drifted_queries, 20, "2 scenarios x 10 epochs");
        assert_eq!(report.verified, 20, "every drifted answer checked against a cold solve");
        assert_eq!(report.stats.errors, 0);
        assert!(report.scheduled > 0, "plans were scheduled");
        assert!(report.stats.prefetched > 0, "idle workers pre-solved candidates");
        assert_eq!(
            report.will_hold + report.may_exit + report.will_exit,
            20,
            "one forecast per scenario per epoch"
        );
        assert!(
            report.stats.prefetch_hits > 0,
            "a lazy walk must land on the plan at least once in 10 epochs: {:?}",
            report.stats
        );
        let json = report.to_json();
        for key in ["prefetch_hit_fraction", "prefetched", "prefetch_hits", "will_hold", "verified"]
        {
            assert!(json.contains(key), "forecast JSON misses '{key}': {json}");
        }
        assert!(!report.render().is_empty());
    }

    #[test]
    fn drift_load_triages_revalidates_and_stays_exact() {
        use crate::engine::{Service, ServiceConfig};

        let service =
            Service::start(ServiceConfig { workers: 2, ttl: Some(0), ..ServiceConfig::default() });
        let config = DriftLoadConfig { epochs: 4, hits_per_epoch: 2, seed: 7, verify: true };
        let report = run_drift_load(&service, &config).unwrap();
        assert_eq!(report.epochs, 4);
        assert_eq!(report.drifted_queries, 12, "3 scenarios x 4 epochs");
        assert_eq!(report.verified, 12, "every drifted answer checked against a cold solve");
        assert_eq!(report.stats.errors, 0);
        assert!(report.stats.triaged > 0, "later epochs must triage against a prior basis");
        assert!(report.stats.expired > 0, "ttl 0 must expire the previous epoch's answers");
        assert!(report.stats.revalidations > 0, "the probe re-asks expired entries");
        assert!(
            report.stats.in_range + report.stats.dual_repairs > 0,
            "a bounded walk must reuse the basis at least once: {:?}",
            report.stats
        );
        let json = report.to_json();
        for key in ["triage_reuse_fraction", "in_range", "dual_repairs", "verified"] {
            assert!(json.contains(key), "drift JSON misses '{key}': {json}");
        }
        assert!(!report.render().is_empty());
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let report = LoadReport {
            queries: 10,
            clients: 2,
            distinct: 3,
            elapsed_seconds: 0.5,
            queries_per_second: 20.0,
            p50_micros: 1.0,
            p95_micros: 2.0,
            p99_micros: 3.0,
            hit_ratio: 0.7,
            stats: ServiceStats::default(),
            latency: HistogramSnapshot::empty(),
            metrics: MetricsSnapshot::default(),
            client_spans: Vec::new(),
        };
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"schema_version\":4"));
        assert!(json.contains("\"queries_per_second\":20.0"));
        assert!(json.contains("\"hit_ratio\":0.7000"));
        assert!(!report.render().is_empty());
    }

    #[test]
    fn load_report_uses_the_shared_histogram_and_stage_metrics() {
        use crate::engine::{Service, ServiceConfig};

        let service = Service::start(ServiceConfig { workers: 2, ..ServiceConfig::default() });
        let config = LoadConfig { queries: 120, clients: 3, distinct: 8, seed: 4 };
        let report = run_load(&service, &config).unwrap();
        assert_eq!(report.queries, 120);
        assert_eq!(report.latency.count(), 120, "every query lands in the merged histogram");
        // The percentile fields are the histogram's quantiles, verbatim.
        assert_eq!(report.p50_micros, report.latency.quantile(0.50) as f64 / 1_000.0);
        assert_eq!(report.p99_micros, report.latency.quantile(0.99) as f64 / 1_000.0);
        assert!(report.p50_micros <= report.p95_micros && report.p95_micros <= report.p99_micros);
        // The per-stage metrics increment covers exactly this run's queries:
        // every one was looked up, and only those the lookup could not
        // answer crossed the queue stage — hits stop on their caller's thread.
        let count = |name: &str| report.metrics.histogram(name).unwrap().count();
        assert_eq!(report.stats.queries, 120);
        assert!(report.stats.hits > 0, "120 queries over 8 distinct must repeat");
        assert_eq!(count("stage_lookup_nanos"), 120);
        assert_eq!(count("lane_demand_wait_nanos"), report.stats.queries - report.stats.hits);
        // (A miss whose solve lands while it queues is served at the
        // single-flight re-check and counts as an `e2e_hit` too.)
        assert!(count("e2e_hit_nanos") >= report.stats.hits);
        let rendered = report.render();
        assert!(rendered.contains("stage breakdown"), "render has the stage table:\n{rendered}");
        assert!(rendered.contains("lane demand"), "table lists the demand wait:\n{rendered}");
        // Tracing was off, so no client spans were collected.
        assert!(report.client_spans.is_empty());
    }

    #[test]
    fn traced_load_collects_client_spans() {
        use crate::engine::{Service, ServiceConfig};

        let service =
            Service::start(ServiceConfig { workers: 2, ..ServiceConfig::default() }.traced());
        let config = LoadConfig { queries: 40, clients: 2, distinct: 6, seed: 11 };
        let report = run_load(&service, &config).unwrap();
        assert_eq!(report.client_spans.len(), 40, "one span per query when tracing");
        for span in &report.client_spans {
            assert!(span.client < 2);
            assert!(span.end_nanos >= span.start_nanos);
            assert!(!span.outcome.is_empty());
        }
        let traces = service.drain_traces();
        assert!(!traces.is_empty(), "the service recorded worker-side traces too");
    }
}
