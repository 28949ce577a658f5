//! Queries served by the engine and the cold-solve path answering them.

use steady_core::prefix::PrefixProblem;
use steady_core::problem::SolvedBasis;
use steady_core::reduce::ReduceProblem;
use steady_core::schedule::PeriodicSchedule;
use steady_core::{GatherProblem, GossipProblem, ScatterProblem};
use steady_drift::{solve_steady_triaged_observed, TriageReport};
use steady_platform::{NodeId, Platform};
use steady_rational::Ratio;

use crate::fingerprint::{fingerprint, structural_fingerprint, Fingerprint};
use crate::ServiceError;

/// The collective operation a query asks about, with its distinguished nodes.
#[derive(Debug, Clone)]
pub enum Collective {
    /// A series of scatters: `source` sends a personalized message to every
    /// target (paper §3, LP `SSSP(G)`).
    Scatter {
        /// The scattering node.
        source: NodeId,
        /// The receiving nodes (unordered).
        targets: Vec<NodeId>,
    },
    /// A series of gathers: every source sends to `sink` (dual of scatter,
    /// LP `SSG(G)`).
    Gather {
        /// The sending nodes (unordered).
        sources: Vec<NodeId>,
        /// The collecting node.
        sink: NodeId,
    },
    /// A series of personalized all-to-alls (paper §3.5, LP `SSPA2A(G)`).
    Gossip {
        /// The sending nodes (unordered).
        sources: Vec<NodeId>,
        /// The receiving nodes (unordered).
        targets: Vec<NodeId>,
    },
    /// A series of reduces (paper §4, LP `SSR(G)`).
    Reduce {
        /// The nodes contributing a value (unordered).
        participants: Vec<NodeId>,
        /// The node receiving the reduced result.
        target: NodeId,
        /// Message size of a partial result.
        size: Ratio,
        /// Cost of one reduction task.
        task_cost: Ratio,
    },
    /// A series of parallel prefixes (§6 extension).  Participants are
    /// **ordered**: participant `i` receives the reduction of ranks `0..=i`.
    Prefix {
        /// The participating nodes, in rank order.
        participants: Vec<NodeId>,
        /// Message size of a partial result.
        size: Ratio,
        /// Cost of one reduction task.
        task_cost: Ratio,
    },
}

impl Collective {
    /// Short lowercase name of the collective kind (`"scatter"`, ...).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Collective::Scatter { .. } => "scatter",
            Collective::Gather { .. } => "gather",
            Collective::Gossip { .. } => "gossip",
            Collective::Reduce { .. } => "reduce",
            Collective::Prefix { .. } => "prefix",
        }
    }

    /// All node ids the collective mentions, read in place: validation runs
    /// on the caller's thread for every query, so no role list is cloned.
    fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        let (first, lists, last): (Option<NodeId>, [&[NodeId]; 2], Option<NodeId>) = match self {
            Collective::Scatter { source, targets } => (Some(*source), [targets, &[]], None),
            Collective::Gather { sources, sink } => (None, [sources, &[]], Some(*sink)),
            Collective::Gossip { sources, targets } => (None, [sources, targets], None),
            Collective::Reduce { participants, target, .. } => {
                (None, [participants, &[]], Some(*target))
            }
            Collective::Prefix { participants, .. } => (None, [participants, &[]], None),
        };
        first.into_iter().chain(lists.into_iter().flatten().copied()).chain(last)
    }
}

/// One throughput query: a platform plus a collective on it.
#[derive(Debug, Clone)]
pub struct Query {
    /// The platform graph.
    pub platform: Platform,
    /// The collective operation asked about.
    pub collective: Collective,
}

impl Query {
    /// Checks that every node id the collective mentions exists on the
    /// platform (deeper validation — reachability, compute-capability — is
    /// performed by the problem constructors during the solve).
    pub fn validate(&self) -> Result<(), ServiceError> {
        let n = self.platform.num_nodes();
        for id in self.collective.node_ids() {
            if id.index() >= n {
                return Err(ServiceError(format!(
                    "query mentions node {id} but the platform has only {n} nodes"
                )));
            }
        }
        Ok(())
    }

    /// The query's canonical fingerprint (see [`mod@crate::fingerprint`]).
    pub fn fingerprint(&self) -> Fingerprint {
        fingerprint(self)
    }

    /// The query's cost-blind structural fingerprint — the warm-start class
    /// key (see [`structural_fingerprint`]).
    pub fn structural_fingerprint(&self) -> Fingerprint {
        structural_fingerprint(self)
    }
}

/// The answer to a query: optimal throughput and, optionally, an explicit
/// periodic schedule achieving it.
///
/// Throughput is invariant under node renumbering, but a schedule is not:
/// its node ids refer to [`Answer::platform`], the platform of the query
/// that produced the answer.  The engine therefore strips the schedule when
/// serving a cached answer to an *isomorphic but differently numbered*
/// query — such a caller gets the exact throughput and `schedule: None`
/// rather than a schedule that is invalid for its numbering.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Canonical fingerprint the answer is cached under.
    pub fingerprint: Fingerprint,
    /// The platform of the query this answer was solved for — the numbering
    /// the schedule's node ids refer to.  Empty (zero nodes) for entries
    /// restored from a snapshot (see `Service::preload`): the original
    /// platform is not persisted, and such answers never carry a schedule.
    pub platform: Platform,
    /// Optimal steady-state throughput (operations per time-unit).
    pub throughput: Ratio,
    /// An explicit one-port-feasible periodic schedule, if requested.
    pub schedule: Option<PeriodicSchedule>,
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> ServiceError {
    move |e| ServiceError(format!("{what}: {e}"))
}

/// Solves `query` from scratch: builds the problem, runs the exact LP and —
/// when `build_schedule` is set — constructs and validates the periodic
/// schedule.
pub fn solve_query(query: &Query, build_schedule: bool) -> Result<Answer, ServiceError> {
    query.validate()?;
    solve_prepared(query, query.fingerprint(), build_schedule, None, &mut steady_lp::NoopObserver)
        .map(|(answer, _)| answer)
}

/// [`solve_query`] for a caller that has already validated the query and
/// computed its fingerprint (the engine does both before cache lookup, and
/// the WL hash is not free) — neither is redone here.  A `warm` basis from a
/// structurally identical solve feeds the drift-triage ladder
/// ([`steady_drift::solve_steady_triaged`]): still-optimal bases re-price
/// with zero pivots, primal-infeasible ones are repaired by the dual
/// simplex, anything else resolves warm or cold.  The returned
/// [`TriageReport`] carries the rung taken, the pivot count and the final
/// basis for the engine's per-class basis cache.
///
/// `obs` taps the underlying solver's event stream (phase transitions,
/// pivots, refactorizations — see [`steady_lp::instrument`]); the engine
/// passes a [`steady_lp::RecordingObserver`] when solver-event recording is
/// configured and the zero-cost [`steady_lp::NoopObserver`] otherwise.
pub(crate) fn solve_prepared<O: steady_lp::SolveObserver>(
    query: &Query,
    fingerprint: Fingerprint,
    build_schedule: bool,
    warm: Option<&SolvedBasis>,
    obs: &mut O,
) -> Result<(Answer, TriageReport), ServiceError> {
    let platform = query.platform.clone();
    // Each collective has its own problem/solution types but the exact same
    // construct → solve → build-schedule → validate tail, which only a macro
    // can share (the solve itself is already shared: every arm goes through
    // `steady_drift::solve_steady_triaged`).
    macro_rules! answer {
        ($kind:literal, $problem:expr) => {{
            let problem = $problem.map_err(err(concat!("invalid ", $kind, " query")))?;
            let (solution, report) = solve_steady_triaged_observed(&problem, warm, obs)
                .map_err(err(concat!($kind, " solve failed")))?;
            let schedule = build_schedule
                .then(|| solution.build_schedule(&problem))
                .transpose()
                .map_err(err(concat!($kind, " schedule construction failed")))?;
            if let Some(schedule) = &schedule {
                schedule
                    .validate(problem.platform())
                    .map_err(err(concat!($kind, " schedule validation failed")))?;
            }
            (solution.throughput().clone(), schedule, report)
        }};
    }
    let (throughput, schedule, report) = match &query.collective {
        Collective::Scatter { source, targets } => {
            answer!("scatter", ScatterProblem::new(platform, *source, targets.clone()))
        }
        Collective::Gather { sources, sink } => {
            answer!("gather", GatherProblem::new(platform, sources.clone(), *sink))
        }
        Collective::Gossip { sources, targets } => {
            answer!("gossip", GossipProblem::new(platform, sources.clone(), targets.clone()))
        }
        Collective::Reduce { participants, target, size, task_cost } => answer!(
            "reduce",
            ReduceProblem::new(
                platform,
                participants.clone(),
                *target,
                size.clone(),
                task_cost.clone()
            )
        ),
        Collective::Prefix { participants, size, task_cost } => answer!(
            "prefix",
            PrefixProblem::new(platform, participants.clone(), size.clone(), task_cost.clone())
        ),
    };
    Ok((Answer { fingerprint, platform: query.platform.clone(), throughput, schedule }, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use steady_platform::generators::figure2;
    use steady_rational::rat;

    #[test]
    fn cold_solve_matches_direct_solve() {
        let instance = figure2();
        let query = Query {
            platform: instance.platform,
            collective: Collective::Scatter { source: instance.source, targets: instance.targets },
        };
        let answer = solve_query(&query, true).unwrap();
        assert_eq!(answer.throughput, rat(1, 2));
        let schedule = answer.schedule.expect("schedule was requested");
        schedule.validate(&query.platform).unwrap();
        assert_eq!(schedule.throughput(), rat(1, 2));
    }

    #[test]
    fn out_of_range_node_is_rejected() {
        let instance = figure2();
        let query = Query {
            platform: instance.platform,
            collective: Collective::Scatter { source: NodeId(99), targets: vec![NodeId(1)] },
        };
        let e = solve_query(&query, false).unwrap_err();
        assert!(e.to_string().contains("only"), "unexpected message: {e}");
    }

    #[test]
    fn solver_errors_are_reported_not_panicked() {
        // A target unreachable from the source: two isolated nodes.
        let mut platform = Platform::new();
        let a = platform.add_node("a", rat(1, 1));
        let b = platform.add_node("b", rat(1, 1));
        let query =
            Query { platform, collective: Collective::Scatter { source: a, targets: vec![b] } };
        assert!(solve_query(&query, false).is_err());
    }
}
