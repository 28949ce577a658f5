//! The forecaster: exact drift envelopes, survival certification and ranked
//! presolve plans.
//!
//! A [`DriftModel`]'s walkers move on a bounded integer grid, at most one
//! cell per step, so after `k` steps the reachable joint states form the
//! product of per-edge intervals ([`DriftModel::reachable_walkers`]).  The
//! walk is a product of independent per-edge lazy chains, so the exact
//! probability of any joint state at horizon `k` is the product of per-edge
//! chain probabilities — computable by a tiny dynamic program over the grid.
//!
//! [`Forecaster::forecast`] enumerates that envelope **best-first by
//! probability** (a classic top-k walk over the product of per-edge
//! value lists, each sorted by probability), certifies every visited state
//! with the zero-pivot survival probe ([`basis_still_optimal`]) and returns:
//!
//! * a [`ClassFate`] for the structural class — will the cached basis hold
//!   across the whole envelope, may it exit, or does *any* movement break
//!   it; and
//! * a [`PresolvePlan`]: the likeliest next platforms (the current state,
//!   already cached, is excluded), each tagged with the triage rung a
//!   future solve is expected to take.

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

use steady_core::error::CoreError;
use steady_core::problem::{SolvedBasis, SteadyProblem};
use steady_drift::DriftModel;
use steady_lp::basis_still_optimal;
use steady_platform::Platform;

/// Shape of a forecast: how far ahead to look and how much of the envelope
/// to examine.
#[derive(Debug, Clone)]
pub struct ForecastConfig {
    /// Forecast horizon in drift steps; the envelope is every state
    /// reachable within this many steps.
    pub horizon: u64,
    /// Maximum number of candidate platforms in the emitted plan (the
    /// likeliest ones win; the current state is never a candidate).
    pub max_candidates: usize,
    /// Hard cap on envelope states examined.  When the envelope is larger,
    /// the forecast stops after the `max_states` likeliest states and the
    /// class can no longer be certified [`ClassFate::WillHold`] — only
    /// exhaustive coverage proves a universal claim.
    pub max_states: usize,
}

impl Default for ForecastConfig {
    fn default() -> Self {
        ForecastConfig { horizon: 1, max_candidates: 16, max_states: 2048 }
    }
}

/// Predicted fate of a structural class's cached basis over the forecast
/// horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassFate {
    /// Every reachable platform keeps the cached basis optimal (certified
    /// exhaustively): future drifted solves will re-price `InRange` with
    /// zero pivots, so there is nothing worth pre-solving urgently.
    WillHold,
    /// Some reachable platforms keep the basis and some break it — or the
    /// envelope was too large to certify exhaustively.  The plan's
    /// candidates are worth pre-solving during idle time.
    MayExit,
    /// Every reachable platform on which *anything* moved breaks the basis
    /// (certified exhaustively): the very next drift step will need repair
    /// pivots unless its answer was pre-solved.
    WillExit,
}

impl ClassFate {
    /// Short lowercase label for logs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            ClassFate::WillHold => "will-hold",
            ClassFate::MayExit => "may-exit",
            ClassFate::WillExit => "will-exit",
        }
    }
}

/// The triage rung a future solve of a candidate platform is expected to
/// take (a prediction, verified by the actual solve — never load-bearing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictedTriage {
    /// The cached basis is still optimal there: the solve will re-price
    /// with zero pivots.
    InRange,
    /// The cached basis breaks there: the solve will spend repair pivots
    /// (dual repair, warm resolve or — rarely — a cold fallback).
    Repair,
}

impl PredictedTriage {
    /// Short lowercase label for logs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            PredictedTriage::InRange => "in-range",
            PredictedTriage::Repair => "repair",
        }
    }
}

/// One candidate future platform worth pre-solving.
#[derive(Debug, Clone)]
pub struct PlannedSolve {
    /// The predicted platform (the drift model's topology with every edge
    /// cost at the candidate walker position).
    pub platform: Platform,
    /// The walker position of each edge in this candidate.
    pub walkers: Vec<i64>,
    /// Exact probability that the walk sits at exactly this state after
    /// `horizon` steps (an `f64` of an exact product — ranking aid only).
    pub probability: f64,
    /// The triage rung a solve of this platform is expected to take.
    pub expected: PredictedTriage,
}

/// Outcome of one forecast: the class fate plus the ranked presolve plan.
#[derive(Debug, Clone)]
pub struct PresolvePlan {
    /// Predicted fate of the class's cached basis over the horizon.
    pub fate: ClassFate,
    /// Candidate platforms, likeliest first, current state excluded.
    pub candidates: Vec<PlannedSolve>,
    /// Envelope states examined (including the current state).
    pub examined: usize,
    /// `true` when the whole reachable envelope was examined — the
    /// precondition for the universal [`ClassFate`] claims.
    pub exhaustive: bool,
    /// Examined states on which the cached basis survives.
    pub surviving: usize,
    /// Examined states on which the cached basis breaks.
    pub exiting: usize,
    /// Total probability mass of the examined states (1.0 when exhaustive,
    /// up to rounding).
    pub coverage: f64,
}

impl PresolvePlan {
    /// Candidates predicted to exit the cached basis's optimality range.
    pub fn predicted_exits(&self) -> usize {
        self.candidates.iter().filter(|c| c.expected == PredictedTriage::Repair).count()
    }
}

/// Rolls a [`DriftModel`] forward `horizon` steps *in distribution* and
/// turns the reachable envelope into a certified [`PresolvePlan`].
#[derive(Debug, Clone, Default)]
pub struct Forecaster {
    config: ForecastConfig,
}

impl Forecaster {
    /// Creates a forecaster with the given configuration.
    pub fn new(config: ForecastConfig) -> Forecaster {
        Forecaster { config }
    }

    /// The forecaster's configuration.
    pub fn config(&self) -> &ForecastConfig {
        &self.config
    }

    /// Forecasts the fate of `basis` — the cached optimal basis of the
    /// steady-state problem built by `build` on the model's *current*
    /// platform — over every platform reachable within the configured
    /// horizon, and returns the ranked presolve plan.
    ///
    /// `build` constructs the collective problem for an arbitrary drifted
    /// platform (same topology and roles, different edge costs); it is
    /// called once per examined envelope state.  Errors from `build` (or a
    /// degenerate formulation) propagate — a platform the problem
    /// constructor rejects cannot be forecast.
    pub fn forecast<P, B>(
        &self,
        model: &DriftModel,
        build: B,
        basis: &SolvedBasis,
    ) -> Result<PresolvePlan, CoreError>
    where
        P: SteadyProblem,
        B: Fn(Platform) -> Result<P, CoreError>,
    {
        let values = per_edge_distributions(model, self.config.horizon);
        let current = model.walkers();

        // Best-first walk over the product of the per-edge value lists
        // (each sorted by probability): the heap always pops the most
        // probable unvisited joint state, so truncation keeps exactly the
        // likeliest `max_states` states.
        let mut heap = BinaryHeap::new();
        let mut seen: BTreeSet<Vec<usize>> = BTreeSet::new();
        let start = vec![0usize; values.len()];
        heap.push(HeapState { probability: state_probability(&values, &start), indices: start });

        let mut examined = 0usize;
        let mut surviving = 0usize;
        let mut exiting = 0usize;
        let mut moved_surviving = 0usize;
        let mut coverage = 0.0f64;
        let mut candidates: Vec<PlannedSolve> = Vec::new();
        let mut truncated = false;

        while let Some(state) = heap.pop() {
            if !seen.insert(state.indices.clone()) {
                continue;
            }
            if examined >= self.config.max_states {
                truncated = true;
                break;
            }
            examined += 1;
            coverage += state.probability;

            let walkers: Vec<i64> =
                state.indices.iter().zip(&values).map(|(&i, vals)| vals[i].0).collect();
            let moved = walkers != current;
            // Only plan-bound states need a second copy of the platform;
            // the probe consumes the first.
            let keep = moved && candidates.len() < self.config.max_candidates;
            let platform = model.platform_at(&walkers);
            let kept = keep.then(|| platform.clone());
            let problem = build(platform)?;
            let (lp, _) = problem.formulate();
            let survives = basis_still_optimal(&lp, basis);
            if survives {
                surviving += 1;
            } else {
                exiting += 1;
            }
            if moved {
                if survives {
                    moved_surviving += 1;
                }
                if let Some(platform) = kept {
                    candidates.push(PlannedSolve {
                        platform,
                        walkers,
                        probability: state.probability,
                        expected: if survives {
                            PredictedTriage::InRange
                        } else {
                            PredictedTriage::Repair
                        },
                    });
                }
            }

            // Successors: advance one coordinate to its next-likeliest value.
            for (j, vals) in values.iter().enumerate() {
                let next = state.indices[j] + 1;
                if next < vals.len() {
                    let mut indices = state.indices.clone();
                    indices[j] = next;
                    if !seen.contains(&indices) {
                        heap.push(HeapState {
                            probability: state_probability(&values, &indices),
                            indices,
                        });
                    }
                }
            }
        }

        let exhaustive = !truncated;
        let moved_examined = examined.saturating_sub(1);
        let fate = if exhaustive && exiting == 0 {
            ClassFate::WillHold
        } else if exhaustive && moved_examined > 0 && moved_surviving == 0 {
            ClassFate::WillExit
        } else {
            ClassFate::MayExit
        };
        Ok(PresolvePlan { fate, candidates, examined, exhaustive, surviving, exiting, coverage })
    }
}

/// Joint probability of the state selecting `indices[e]` from each edge's
/// value list (the walks are independent, so it is a plain product).
fn state_probability(values: &[Vec<(i64, f64)>], indices: &[usize]) -> f64 {
    indices.iter().zip(values).map(|(&i, vals)| vals[i].1).product()
}

/// Exact `k`-step distribution of each edge's walker, as `(position,
/// probability)` lists sorted by descending probability (deterministic
/// tie-break: smaller drift from the current position first, then the
/// smaller position).
///
/// One chain step: the walker stays with probability `1 - p`, otherwise it
/// attempts a uniform `±1` move that is clamped at the grid boundary (a
/// clamped move stays in place, so boundary mass accumulates exactly as in
/// [`DriftModel::step`]).
fn per_edge_distributions(model: &DriftModel, k: u64) -> Vec<Vec<(i64, f64)>> {
    let config = model.config();
    let p = config.move_probability;
    let min = config.min_num;
    let span = (config.max_num - min + 1) as usize;

    model
        .walkers()
        .iter()
        .map(|&w0| {
            let mut dist = vec![0.0f64; span];
            dist[(w0 - min) as usize] = 1.0;
            for _ in 0..k {
                let mut next = vec![0.0f64; span];
                for (i, &mass) in dist.iter().enumerate() {
                    if mass == 0.0 {
                        continue;
                    }
                    next[i] += mass * (1.0 - p);
                    let down = i.saturating_sub(1);
                    let up = if i + 1 < span { i + 1 } else { i };
                    next[down] += mass * p / 2.0;
                    next[up] += mass * p / 2.0;
                }
                dist = next;
            }
            let mut vals: Vec<(i64, f64)> = dist
                .into_iter()
                .enumerate()
                .filter(|(_, p)| *p > 0.0)
                .map(|(i, p)| (min + i as i64, p))
                .collect();
            vals.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| (a.0 - w0).abs().cmp(&(b.0 - w0).abs()))
                    .then_with(|| a.0.cmp(&b.0))
            });
            vals
        })
        .collect()
}

/// A joint state in the best-first envelope walk, ordered by probability
/// (ties broken by the index vector so the walk is deterministic).
struct HeapState {
    probability: f64,
    indices: Vec<usize>,
}

impl PartialEq for HeapState {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapState {}

impl PartialOrd for HeapState {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapState {
    fn cmp(&self, other: &Self) -> Ordering {
        // Probabilities are finite and positive; ties prefer the
        // lexicographically smaller index vector (less total drift).
        self.probability
            .partial_cmp(&other.probability)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.indices.cmp(&self.indices))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steady_core::ScatterProblem;
    use steady_drift::{solve_steady_triaged, DriftConfig, DriftModel, Triage};
    use steady_platform::generators::heterogeneous_star;
    use steady_platform::{NodeId, Platform};
    use steady_rational::rat;

    fn star(costs: &[steady_rational::Ratio]) -> (Platform, NodeId, Vec<NodeId>) {
        heterogeneous_star(costs)
    }

    fn scatter_builder(
        center: NodeId,
        leaves: Vec<NodeId>,
    ) -> impl Fn(Platform) -> Result<ScatterProblem, CoreError> {
        move |platform| ScatterProblem::new(platform, center, leaves.clone())
    }

    fn basis_for(model: &DriftModel, center: NodeId, leaves: &[NodeId]) -> SolvedBasis {
        let problem = ScatterProblem::new(model.current(), center, leaves.to_vec()).unwrap();
        let (_, report) = solve_steady_triaged(&problem, None).unwrap();
        report.basis.expect("cold solve yields a basis")
    }

    #[test]
    fn distributions_are_exact_for_one_step() {
        // A 2-leaf star has four directed edges (symmetric links).
        let (platform, _, _) = star(&[rat(1, 2), rat(1, 3)]);
        let config = DriftConfig { grid: 16, min_num: 8, max_num: 32, move_probability: 0.4 };
        let model = DriftModel::new(platform, config, 1);
        let dists = per_edge_distributions(&model, 1);
        assert_eq!(dists.len(), 4);
        for dist in &dists {
            // Walker starts at 16 (interior): stays with 0.6, ±1 with 0.2.
            let total: f64 = dist.iter().map(|(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-12);
            assert_eq!(dist[0].0, 16);
            assert!((dist[0].1 - 0.6).abs() < 1e-12);
            assert_eq!(dist.len(), 3);
            assert!((dist[1].1 - 0.2).abs() < 1e-12);
            assert!((dist[2].1 - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn boundary_mass_accumulates_under_clamping() {
        let (platform, _, _) = star(&[rat(1, 2)]);
        let config = DriftConfig { grid: 4, min_num: 4, max_num: 5, move_probability: 1.0 };
        let model = DriftModel::new(platform, config, 1);
        // Walker at the lower boundary with p = 1: half the mass clamps in
        // place, half moves up.
        let dists = per_edge_distributions(&model, 1);
        let dist = &dists[0];
        let at = |w: i64| dist.iter().find(|(v, _)| *v == w).map(|(_, p)| *p).unwrap_or(0.0);
        assert!((at(4) - 0.5).abs() < 1e-12);
        assert!((at(5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_wide_grid_keeps_the_basis_and_certifies_will_hold() {
        // A 1-leaf star (two directed edges) whose one-step envelope moves
        // costs by 1/16 at most: the scatter basis survives every reachable
        // state, and the forecast proves it exhaustively.
        let (platform, center, leaves) = star(&[rat(1, 2)]);
        let model = DriftModel::new(platform, DriftConfig::default(), 5);
        let basis = basis_for(&model, center, &leaves);
        let forecaster = Forecaster::new(ForecastConfig::default());
        let plan =
            forecaster.forecast(&model, scatter_builder(center, leaves.clone()), &basis).unwrap();
        assert!(plan.exhaustive);
        assert_eq!(plan.examined, 9, "3 x 3 one-step envelope");
        assert!((plan.coverage - 1.0).abs() < 1e-9);
        assert_eq!(plan.fate, ClassFate::WillHold);
        assert_eq!(plan.exiting, 0);
        // Every candidate is a genuinely moved state, ranked by probability.
        assert_eq!(plan.candidates.len(), 8);
        for pair in plan.candidates.windows(2) {
            assert!(pair[0].probability >= pair[1].probability);
        }
        assert!(plan.candidates.iter().all(|c| c.expected == PredictedTriage::InRange));
        assert_eq!(plan.predicted_exits(), 0);

        // Re-verify the universal claim through the actual triage ladder.
        for candidate in &plan.candidates {
            let problem =
                ScatterProblem::new(candidate.platform.clone(), center, leaves.clone()).unwrap();
            let (_, report) = solve_steady_triaged(&problem, Some(&basis)).unwrap();
            assert_eq!(report.triage, Triage::InRange, "WillHold candidate needed pivots");
            assert_eq!(report.iterations, 0);
        }
    }

    #[test]
    fn truncated_envelopes_are_never_certified() {
        let (platform, center, leaves) = star(&[rat(1, 2), rat(1, 3), rat(1, 4)]);
        let model = DriftModel::new(platform, DriftConfig::default(), 5);
        let basis = basis_for(&model, center, &leaves);
        let forecaster = Forecaster::new(ForecastConfig {
            horizon: 1,
            max_candidates: 4,
            max_states: 5, // 27 reachable: forced truncation
        });
        let plan = forecaster.forecast(&model, scatter_builder(center, leaves), &basis).unwrap();
        assert!(!plan.exhaustive);
        assert_eq!(plan.examined, 5);
        assert_eq!(plan.fate, ClassFate::MayExit, "no universal claim from a partial envelope");
        assert!(plan.candidates.len() <= 4);
        assert!(plan.coverage < 1.0);
    }

    #[test]
    fn a_foreign_basis_exits_everywhere_and_predicts_repairs() {
        // Certify against the basis of a *different* structural class: it
        // does not even install, so every state (including the current one)
        // reads as exiting and every candidate predicts a repair.
        let (platform, center, leaves) = star(&[rat(1, 2), rat(1, 3)]);
        let model = DriftModel::new(platform, DriftConfig::default(), 5);
        let foreign = SolvedBasis { cols: vec![0, 1, 2], num_cols: 99, n_structural: 7 };
        let forecaster = Forecaster::new(ForecastConfig::default());
        let plan = forecaster.forecast(&model, scatter_builder(center, leaves), &foreign).unwrap();
        assert!(plan.exhaustive);
        assert_eq!(plan.surviving, 0);
        assert_eq!(plan.fate, ClassFate::WillExit);
        assert!(plan.candidates.iter().all(|c| c.expected == PredictedTriage::Repair));
        assert_eq!(plan.predicted_exits(), plan.candidates.len());
    }

    #[test]
    fn candidate_platforms_match_their_walkers() {
        let (platform, center, leaves) = star(&[rat(1, 2), rat(1, 3)]);
        let model = DriftModel::new(platform, DriftConfig::default(), 5);
        let basis = basis_for(&model, center, &leaves);
        let plan = Forecaster::new(ForecastConfig::default())
            .forecast(&model, scatter_builder(center, leaves), &basis)
            .unwrap();
        for candidate in &plan.candidates {
            let rebuilt = model.platform_at(&candidate.walkers);
            for (a, b) in rebuilt.edge_ids().zip(candidate.platform.edge_ids()) {
                assert_eq!(rebuilt.edge(a).cost, candidate.platform.edge(b).cost);
            }
            assert_ne!(candidate.walkers, model.walkers(), "the current state is not a candidate");
        }
    }
}
