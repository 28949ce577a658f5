//! Threaded message-passing execution of periodic schedules.
//!
//! One OS thread per platform node; messages move over crossbeam channels and
//! every period is bracketed by barriers so the per-period semantics of the
//! steady-state schedules (send what was buffered in previous periods, then
//! collect this period's arrivals) are preserved exactly.  Nothing here is
//! simulated time: the engine checks **data-level correctness** — every
//! scatter message reaches its addressee, every reduce result is the ordered,
//! single-time-stamp concatenation of all participants' contributions — which
//! the analytical simulator of `steady-sim` cannot observe.
//!
//! The run is organised as `production_periods` periods during which the
//! sources/participants mint fresh operations, followed by `drain_periods`
//! periods that flush the pipeline.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::Barrier;

use steady_core::reduce::{Interval, ReduceProblem};
use steady_core::schedule::PeriodicSchedule;
use steady_core::trees::WeightedTree;
use steady_core::{GatherProblem, ScatterProblem};
use steady_platform::NodeId;

use crate::plan::{GatherPlan, ReducePlan, ScatterPlan};
use crate::value::{check_partial, combine, expected_result, leaf_value, Seq};

/// How long to run a threaded execution.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Periods during which fresh operations are injected.
    pub production_periods: u64,
    /// Extra periods that drain the pipeline after production stops.
    pub drain_periods: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig { production_periods: 20, drain_periods: 10 }
    }
}

impl RunConfig {
    /// Total number of executed periods.
    pub fn total_periods(&self) -> u64 {
        self.production_periods + self.drain_periods
    }
}

/// Outcome of a threaded scatter run.
#[derive(Debug, Clone)]
pub struct ScatterRunReport {
    /// Periods executed (production + drain).
    pub periods: u64,
    /// Operations injected per production period.
    pub operations_per_period: u64,
    /// Operations fully delivered (every target received its message).
    pub completed_operations: u64,
    /// Total messages delivered to their addressees.
    pub messages_delivered: u64,
    /// Data-level violations observed (empty on a correct run).
    pub errors: Vec<String>,
}

/// Outcome of a threaded reduce run.
#[derive(Debug, Clone)]
pub struct ReduceRunReport {
    /// Periods executed (production + drain).
    pub periods: u64,
    /// Operations injected per production period.
    pub operations_per_period: u64,
    /// Complete results delivered to the target.
    pub completed_operations: u64,
    /// Results whose content matched the expected ordered reduction exactly.
    pub correct_results: u64,
    /// Data-level violations observed (empty on a correct run).
    pub errors: Vec<String>,
}

/// Outcome of a threaded gather run.
#[derive(Debug, Clone)]
pub struct GatherRunReport {
    /// Periods executed (production + drain).
    pub periods: u64,
    /// Operations injected per production period.
    pub operations_per_period: u64,
    /// Operations fully delivered (the sink received every source's message).
    pub completed_operations: u64,
    /// Total messages delivered to the sink.
    pub messages_delivered: u64,
    /// Data-level violations observed (empty on a correct run).
    pub errors: Vec<String>,
}

/// Messages exchanged between node threads.
#[derive(Debug, Clone)]
enum Wire {
    Scatter { destination: NodeId, timestamp: u64 },
    Gather { origin: NodeId, timestamp: u64 },
    Partial { tree: usize, interval: Interval, timestamp: u64, seq: Seq },
}

struct Mailboxes {
    senders: Vec<Sender<Wire>>,
    receivers: Vec<Option<Receiver<Wire>>>,
}

fn mailboxes(n: usize) -> Mailboxes {
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (s, r) = unbounded();
        senders.push(s);
        receivers.push(Some(r));
    }
    Mailboxes { senders, receivers }
}

/// Executes a scatter schedule with real threads and messages.
///
/// The schedule must have been built on the LP's integer period (the default
/// of [`steady_core::ScatterSolution::build_schedule`]).
pub fn run_scatter(
    problem: &ScatterProblem,
    schedule: &PeriodicSchedule,
    config: RunConfig,
) -> Result<ScatterRunReport, String> {
    let plan = ScatterPlan::from_schedule(problem, schedule)?;
    let platform = problem.platform();
    let n_nodes = platform.num_nodes();
    let barrier = Arc::new(Barrier::new(n_nodes));
    let shared_errors: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let mut boxes = mailboxes(n_nodes);
    let total_periods = config.total_periods();

    // delivered[t] collected per node; only targets ever fill theirs.
    let mut per_node_delivered: Vec<Vec<u64>> = vec![Vec::new(); n_nodes];

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_nodes);
        for node_index in 0..n_nodes {
            let me = NodeId(node_index);
            let my_orders = plan.sends.get(&me).cloned().unwrap_or_default();
            // lint: allow(panics) — take() invariant: each receiver is moved out exactly once.
            let receiver = boxes.receivers[node_index].take().expect("receiver taken once");
            let senders = boxes.senders.clone();
            let barrier = Arc::clone(&barrier);
            let errors = Arc::clone(&shared_errors);
            let source = problem.source();
            let is_source = me == source;

            handles.push(scope.spawn(move || {
                let mut buffer: BTreeMap<NodeId, VecDeque<u64>> = BTreeMap::new();
                let mut minted: BTreeMap<NodeId, u64> = BTreeMap::new();
                let mut delivered: Vec<u64> = Vec::new();

                for period in 0..total_periods {
                    let producing = period < config.production_periods;

                    // Send phase: forward buffered (or freshly minted) messages.
                    for order in &my_orders {
                        for _ in 0..order.count {
                            let timestamp = if is_source && producing {
                                let counter = minted.entry(order.destination).or_insert(0);
                                let t = *counter;
                                *counter += 1;
                                Some(t)
                            } else {
                                buffer.get_mut(&order.destination).and_then(|q| q.pop_front())
                            };
                            let Some(timestamp) = timestamp else { break };
                            senders[order.to.index()]
                                .send(Wire::Scatter { destination: order.destination, timestamp })
                                // lint: allow(panics) — channel peers outlive the run; a send failure is a harness bug.
                                .expect("receiver alive for the whole run");
                        }
                    }
                    barrier.wait();

                    // Receive phase: collect this period's arrivals.
                    let mut arrivals: Vec<(NodeId, u64)> = Vec::new();
                    while let Ok(msg) = receiver.try_recv() {
                        match msg {
                            Wire::Scatter { destination, timestamp } => {
                                if destination == me {
                                    delivered.push(timestamp);
                                } else {
                                    arrivals.push((destination, timestamp));
                                }
                            }
                            _ => {
                                errors.lock().push(format!(
                                    "{me} received a non-scatter payload during a scatter run"
                                ));
                            }
                        }
                    }
                    for (destination, timestamp) in arrivals {
                        buffer.entry(destination).or_default().push_back(timestamp);
                    }
                    barrier.wait();
                }
                (node_index, delivered)
            }));
        }
        for handle in handles {
            // lint: allow(panics) — propagates a node-thread panic instead of reporting bogus results.
            let (node_index, delivered) = handle.join().expect("node thread panicked");
            per_node_delivered[node_index] = delivered;
        }
    });

    let mut errors = Arc::try_unwrap(shared_errors)
        .map(|m| m.into_inner())
        .unwrap_or_else(|arc| arc.lock().clone());

    // Per-target verification: distinct time-stamps, nothing delivered to a
    // non-target, completion = slowest target.
    let mut messages_delivered = 0u64;
    let mut completed = u64::MAX;
    for node in platform.node_ids() {
        let delivered = &per_node_delivered[node.index()];
        if problem.targets().contains(&node) {
            messages_delivered += delivered.len() as u64;
            let mut seen = delivered.clone();
            seen.sort_unstable();
            let before = seen.len();
            seen.dedup();
            if seen.len() != before {
                errors.push(format!("target {node} received duplicated messages"));
            }
            completed = completed.min(seen.len() as u64);
        } else if !delivered.is_empty() {
            errors.push(format!("non-target {node} had messages addressed to it"));
        }
    }
    if completed == u64::MAX {
        completed = 0;
    }

    Ok(ScatterRunReport {
        periods: total_periods,
        operations_per_period: plan.operations_per_period,
        completed_operations: completed,
        messages_delivered,
        errors,
    })
}

/// Executes a gather schedule with real threads and messages.
///
/// Every source mints one message per operation; relays forward according to
/// the per-period plan; the sink checks that each arriving message really was
/// emitted by one of the declared sources.
pub fn run_gather(
    problem: &GatherProblem,
    schedule: &PeriodicSchedule,
    config: RunConfig,
) -> Result<GatherRunReport, String> {
    let plan = GatherPlan::from_schedule(problem, schedule)?;
    let platform = problem.platform();
    let n_nodes = platform.num_nodes();
    let sink = problem.sink();
    let barrier = Arc::new(Barrier::new(n_nodes));
    let shared_errors: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let mut boxes = mailboxes(n_nodes);
    let total_periods = config.total_periods();

    let mut sink_delivered: Vec<(NodeId, u64)> = Vec::new();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_nodes);
        for node_index in 0..n_nodes {
            let me = NodeId(node_index);
            let my_orders = plan.sends.get(&me).cloned().unwrap_or_default();
            // lint: allow(panics) — take() invariant: each receiver is moved out exactly once.
            let receiver = boxes.receivers[node_index].take().expect("receiver taken once");
            let senders = boxes.senders.clone();
            let barrier = Arc::clone(&barrier);
            let errors = Arc::clone(&shared_errors);
            let is_sink = me == sink;

            handles.push(scope.spawn(move || {
                // buffer[origin] = forwardable messages of that source.
                let mut buffer: BTreeMap<NodeId, VecDeque<u64>> = BTreeMap::new();
                let mut minted = 0u64;
                let mut delivered: Vec<(NodeId, u64)> = Vec::new();

                for period in 0..total_periods {
                    let producing = period < config.production_periods;

                    for order in &my_orders {
                        for _ in 0..order.count {
                            let timestamp = if order.origin == me && producing {
                                let t = minted;
                                minted += 1;
                                Some(t)
                            } else {
                                buffer.get_mut(&order.origin).and_then(|q| q.pop_front())
                            };
                            let Some(timestamp) = timestamp else { break };
                            senders[order.to.index()]
                                .send(Wire::Gather { origin: order.origin, timestamp })
                                // lint: allow(panics) — channel peers outlive the run; a send failure is a harness bug.
                                .expect("receiver alive for the whole run");
                        }
                    }
                    barrier.wait();

                    let mut arrivals: Vec<(NodeId, u64)> = Vec::new();
                    while let Ok(msg) = receiver.try_recv() {
                        match msg {
                            Wire::Gather { origin, timestamp } => {
                                if is_sink {
                                    delivered.push((origin, timestamp));
                                } else {
                                    arrivals.push((origin, timestamp));
                                }
                            }
                            _ => {
                                errors.lock().push(format!(
                                    "{me} received a non-gather payload during a gather run"
                                ));
                            }
                        }
                    }
                    for (origin, timestamp) in arrivals {
                        buffer.entry(origin).or_default().push_back(timestamp);
                    }
                    barrier.wait();
                }
                (node_index, delivered)
            }));
        }
        for handle in handles {
            // lint: allow(panics) — propagates a node-thread panic instead of reporting bogus results.
            let (node_index, delivered) = handle.join().expect("node thread panicked");
            if NodeId(node_index) == sink {
                sink_delivered = delivered;
            } else if !delivered.is_empty() {
                shared_errors
                    .lock()
                    .push(format!("node P{node_index} collected messages but is not the sink"));
            }
        }
    });

    let mut errors = Arc::try_unwrap(shared_errors)
        .map(|m| m.into_inner())
        .unwrap_or_else(|arc| arc.lock().clone());

    // Per-source verification at the sink.
    let mut per_source: BTreeMap<NodeId, Vec<u64>> = BTreeMap::new();
    for (origin, timestamp) in &sink_delivered {
        if !problem.sources().contains(origin) {
            errors.push(format!("the sink received a message from unknown source {origin}"));
            continue;
        }
        per_source.entry(*origin).or_default().push(*timestamp);
    }
    let mut completed = u64::MAX;
    for &source in problem.sources() {
        let mut stamps = per_source.remove(&source).unwrap_or_default();
        stamps.sort_unstable();
        let before = stamps.len();
        stamps.dedup();
        if stamps.len() != before {
            errors.push(format!("the sink received duplicated messages from {source}"));
        }
        completed = completed.min(stamps.len() as u64);
    }
    if completed == u64::MAX {
        completed = 0;
    }

    Ok(GatherRunReport {
        periods: total_periods,
        operations_per_period: plan.operations_per_period,
        completed_operations: completed,
        messages_delivered: sink_delivered.len() as u64,
        errors,
    })
}

/// Executes a reduce schedule (given by its weighted reduction trees) with
/// real threads, real partial values and a non-commutative operator.
pub fn run_reduce(
    problem: &ReduceProblem,
    trees: &[WeightedTree],
    config: RunConfig,
) -> Result<ReduceRunReport, String> {
    let plan = ReducePlan::from_trees(problem, trees)?;
    let platform = problem.platform();
    let n_nodes = platform.num_nodes();
    let n = problem.last_index();
    let target = problem.target();
    let barrier = Arc::new(Barrier::new(n_nodes));
    let shared_errors: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let mut boxes = mailboxes(n_nodes);
    let total_periods = config.total_periods();
    let ops_per_period = plan.operations_per_period;

    let mut target_results: Vec<(u64, Seq)> = Vec::new();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_nodes);
        for node_index in 0..n_nodes {
            let me = NodeId(node_index);
            let my_sends = plan.sends.get(&me).cloned().unwrap_or_default();
            let my_computes = plan.computes.get(&me).cloned().unwrap_or_default();
            // lint: allow(panics) — take() invariant: each receiver is moved out exactly once.
            let receiver = boxes.receivers[node_index].take().expect("receiver taken once");
            let senders = boxes.senders.clone();
            let barrier = Arc::clone(&barrier);
            let errors = Arc::clone(&shared_errors);
            let my_rank = problem.participant_index(me);
            let tree_counts = plan.tree_counts.clone();
            let tree_offsets = plan.tree_offsets.clone();

            handles.push(scope.spawn(move || {
                // buffer[(tree, interval)][timestamp] = partial value.
                let mut buffer: BTreeMap<(usize, Interval), BTreeMap<u64, Seq>> = BTreeMap::new();
                let mut delivered: Vec<(u64, Seq)> = Vec::new();

                for period in 0..total_periods {
                    let producing = period < config.production_periods;

                    // Mint this period's leaf values (participants only).
                    if producing {
                        if let Some(rank) = my_rank {
                            for (tree, (&count, &offset)) in
                                tree_counts.iter().zip(&tree_offsets).enumerate()
                            {
                                for slot in 0..count {
                                    let timestamp = period * ops_per_period + offset + slot;
                                    buffer
                                        .entry((tree, (rank, rank)))
                                        .or_default()
                                        .insert(timestamp, leaf_value(rank, timestamp));
                                }
                            }
                        }
                    }

                    // Send phase.
                    for order in &my_sends {
                        let key = (order.tree, order.interval);
                        for _ in 0..order.count {
                            let Some(map) = buffer.get_mut(&key) else { break };
                            let Some((&timestamp, _)) = map.iter().next() else { break };
                            // lint: allow(panics) — the key was observed in the map on the line above.
                            let seq = map.remove(&timestamp).expect("key just observed");
                            senders[order.to.index()]
                                .send(Wire::Partial {
                                    tree: order.tree,
                                    interval: order.interval,
                                    timestamp,
                                    seq,
                                })
                                // lint: allow(panics) — channel peers outlive the run; a send failure is a harness bug.
                                .expect("receiver alive for the whole run");
                        }
                    }
                    barrier.wait();

                    // Receive phase.
                    let mut arrivals: Vec<((usize, Interval), u64, Seq)> = Vec::new();
                    while let Ok(msg) = receiver.try_recv() {
                        match msg {
                            Wire::Partial { tree, interval, timestamp, seq } => {
                                if let Err(e) = check_partial(&seq, interval.0, interval.1) {
                                    errors.lock().push(format!("{me}: corrupted arrival: {e}"));
                                }
                                if me == target && interval == (0, n) {
                                    delivered.push((timestamp, seq));
                                } else {
                                    arrivals.push(((tree, interval), timestamp, seq));
                                }
                            }
                            _ => {
                                errors.lock().push(format!(
                                    "{me} received a non-reduce payload during a reduce run"
                                ));
                            }
                        }
                    }

                    // Compute phase (uses values buffered in previous periods;
                    // this period's arrivals are merged afterwards).
                    for order in &my_computes {
                        let (k, l, m) = order.task;
                        let left_key = (order.tree, (k, l));
                        let right_key = (order.tree, (l + 1, m));
                        for _ in 0..order.count {
                            let common = {
                                let left = buffer.get(&left_key);
                                let right = buffer.get(&right_key);
                                match (left, right) {
                                    (Some(left), Some(right)) => {
                                        left.keys().find(|ts| right.contains_key(ts)).copied()
                                    }
                                    _ => None,
                                }
                            };
                            let Some(timestamp) = common else { break };
                            let left = buffer
                                .get_mut(&left_key)
                                .and_then(|m| m.remove(&timestamp))
                                // lint: allow(panics) — the compute schedule guarantees both operands buffered.
                                .expect("operand present");
                            let right = buffer
                                .get_mut(&right_key)
                                .and_then(|m| m.remove(&timestamp))
                                // lint: allow(panics) — the compute schedule guarantees both operands buffered.
                                .expect("operand present");
                            let result = combine(&left, &right);
                            if me == target && (k, m) == (0, n) {
                                delivered.push((timestamp, result));
                            } else {
                                buffer
                                    .entry((order.tree, (k, m)))
                                    .or_default()
                                    .insert(timestamp, result);
                            }
                        }
                    }

                    for (key, timestamp, seq) in arrivals {
                        buffer.entry(key).or_default().insert(timestamp, seq);
                    }
                    barrier.wait();
                }
                (node_index, delivered)
            }));
        }
        for handle in handles {
            // lint: allow(panics) — propagates a node-thread panic instead of reporting bogus results.
            let (node_index, delivered) = handle.join().expect("node thread panicked");
            if NodeId(node_index) == target {
                target_results = delivered;
            } else if !delivered.is_empty() {
                shared_errors.lock().push(format!(
                    "node P{node_index} collected final results but is not the target"
                ));
            }
        }
    });

    let mut errors = Arc::try_unwrap(shared_errors)
        .map(|m| m.into_inner())
        .unwrap_or_else(|arc| arc.lock().clone());

    // Verify every delivered result and count distinct completed operations.
    let mut correct = 0u64;
    let mut seen = Vec::with_capacity(target_results.len());
    for (timestamp, seq) in &target_results {
        if seq == &expected_result(n, *timestamp) {
            correct += 1;
        } else {
            errors.push(format!(
                "operation {timestamp} delivered a wrong reduction ({} tokens)",
                seq.len()
            ));
        }
        seen.push(*timestamp);
    }
    seen.sort_unstable();
    let before = seen.len();
    seen.dedup();
    if seen.len() != before {
        errors.push("the target received the same operation twice".into());
    }

    Ok(ReduceRunReport {
        periods: total_periods,
        operations_per_period: ops_per_period,
        completed_operations: seen.len() as u64,
        correct_results: correct,
        errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use steady_platform::generators::{self, figure2, figure6};
    use steady_rational::rat;

    #[test]
    fn scatter_run_on_figure2_delivers_correct_messages() {
        let problem = ScatterProblem::from_instance(figure2()).unwrap();
        let solution = problem.solve().unwrap();
        let schedule = solution.build_schedule(&problem).unwrap();
        let config = RunConfig { production_periods: 12, drain_periods: 6 };
        let report = run_scatter(&problem, &schedule, config).unwrap();
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        // After the pipeline fills, at least (production - warmup) periods
        // worth of operations complete.
        let expected_min = (config.production_periods - 4) * report.operations_per_period;
        assert!(
            report.completed_operations >= expected_min,
            "only {} operations completed, expected at least {expected_min}",
            report.completed_operations
        );
        // Nothing is created out of thin air.
        let injected = config.production_periods * report.operations_per_period;
        assert!(report.completed_operations <= injected);
    }

    #[test]
    fn scatter_run_on_star_is_exact() {
        // On a star there is no relaying at all, so every injected operation
        // drains within one extra period.
        let (p, center, leaves) = generators::star(3, rat(1, 1));
        let problem = ScatterProblem::new(p, center, leaves).unwrap();
        let solution = problem.solve().unwrap();
        let schedule = solution.build_schedule(&problem).unwrap();
        let config = RunConfig { production_periods: 8, drain_periods: 3 };
        let report = run_scatter(&problem, &schedule, config).unwrap();
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(
            report.completed_operations,
            config.production_periods * report.operations_per_period
        );
    }

    #[test]
    fn gather_run_on_star_is_exact() {
        use steady_core::GatherProblem;
        let (p, center, leaves) = generators::star(3, rat(1, 1));
        let problem = GatherProblem::new(p, leaves, center).unwrap();
        let solution = problem.solve().unwrap();
        let schedule = solution.build_schedule(&problem).unwrap();
        let config = RunConfig { production_periods: 8, drain_periods: 3 };
        let report = run_gather(&problem, &schedule, config).unwrap();
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(
            report.completed_operations,
            config.production_periods * report.operations_per_period
        );
        assert_eq!(report.messages_delivered, 3 * report.completed_operations);
    }

    #[test]
    fn gather_run_with_relaying_on_reversed_figure2() {
        use steady_core::GatherProblem;
        let inst = figure2();
        let problem =
            GatherProblem::new(inst.platform.transpose(), inst.targets, inst.source).unwrap();
        let solution = problem.solve().unwrap();
        let schedule = solution.build_schedule(&problem).unwrap();
        let config = RunConfig { production_periods: 12, drain_periods: 8 };
        let report = run_gather(&problem, &schedule, config).unwrap();
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let expected_min = (config.production_periods - 4) * report.operations_per_period;
        assert!(
            report.completed_operations >= expected_min,
            "only {} operations completed, expected at least {expected_min}",
            report.completed_operations
        );
    }

    #[test]
    fn reduce_run_on_figure6_produces_ordered_results() {
        let problem = ReduceProblem::from_instance(figure6()).unwrap();
        let solution = problem.solve().unwrap();
        let trees = solution.extract_trees(&problem).unwrap();
        let config = RunConfig { production_periods: 15, drain_periods: 10 };
        let report = run_reduce(&problem, &trees, config).unwrap();
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.correct_results, report.completed_operations);
        let expected_min = (config.production_periods - 5) * report.operations_per_period;
        assert!(
            report.completed_operations >= expected_min,
            "only {} operations completed, expected at least {expected_min}",
            report.completed_operations
        );
    }

    #[test]
    fn reduce_run_on_two_node_chain() {
        let (p, nodes) = generators::chain(2, rat(1, 1));
        let problem =
            ReduceProblem::new(p, vec![nodes[0], nodes[1]], nodes[0], rat(1, 1), rat(1, 1))
                .unwrap();
        let solution = problem.solve().unwrap();
        let trees = solution.extract_trees(&problem).unwrap();
        let report = run_reduce(&problem, &trees, RunConfig::default()).unwrap();
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert!(report.completed_operations > 0);
        assert_eq!(report.correct_results, report.completed_operations);
    }

    #[test]
    fn drain_only_run_completes_nothing() {
        let problem = ScatterProblem::from_instance(figure2()).unwrap();
        let solution = problem.solve().unwrap();
        let schedule = solution.build_schedule(&problem).unwrap();
        let config = RunConfig { production_periods: 0, drain_periods: 5 };
        let report = run_scatter(&problem, &schedule, config).unwrap();
        assert_eq!(report.completed_operations, 0);
        assert_eq!(report.messages_delivered, 0);
        assert!(report.errors.is_empty());
    }
}
