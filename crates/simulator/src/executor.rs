//! Periodic-schedule executor with the §3.4 buffer discipline.
//!
//! The paper's concrete scheduling algorithm plays the periodic schedule with
//! forwarding buffers: a node only re-emits data it received in *previous*
//! periods, so the first `diameter` periods act as an initialization phase,
//! followed by full-rate steady-state periods, and the pipeline drains during
//! clean-up.  This executor simulates exactly that discipline — it never moves
//! or combines a value the node does not actually hold — and reports how many
//! complete collective operations finish within a given time horizon.
//!
//! Comparing the measured count against the Lemma-1 upper bound `TP × K`
//! reproduces the asymptotic-optimality statement of Proposition 1
//! empirically: the efficiency tends to 1 as the horizon grows.

use std::collections::BTreeMap;

use steady_core::reduce::{Interval, ReduceProblem};
use steady_core::schedule::{Payload, PeriodicSchedule};
use steady_core::ScatterProblem;
use steady_platform::NodeId;
use steady_rational::{BigInt, Ratio};

/// Outcome of executing a periodic schedule for a finite horizon.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Time horizon that was simulated.
    pub horizon: Ratio,
    /// Number of full periods that fit in the horizon.
    pub periods: BigInt,
    /// Complete collective operations finished within the horizon.
    pub completed_operations: Ratio,
    /// Lemma-1 upper bound `TP × horizon` on any schedule.
    pub upper_bound: Ratio,
}

impl ExecutionReport {
    /// `completed / upper_bound`; tends to 1 as the horizon grows (Prop. 1).
    pub fn efficiency(&self) -> Ratio {
        if !self.upper_bound.is_positive() {
            return Ratio::zero();
        }
        &self.completed_operations / &self.upper_bound
    }
}

/// Executes a scatter schedule for `horizon` time-units.
///
/// Buffers start empty (cold start): the measured operation count includes the
/// initialization-phase loss, which is exactly what Proposition 1 bounds.
pub fn execute_scatter_schedule(
    problem: &ScatterProblem,
    schedule: &PeriodicSchedule,
    throughput: &Ratio,
    horizon: &Ratio,
) -> ExecutionReport {
    let source = problem.source();
    let periods = (horizon / &schedule.period).floor();
    let periods_u = big_to_u64(&periods);

    // stock[(holder, destination)] = messages for `destination` held by `holder`.
    let mut stock: BTreeMap<(NodeId, NodeId), Ratio> = BTreeMap::new();
    let mut delivered: BTreeMap<NodeId, Ratio> =
        problem.targets().iter().map(|&t| (t, Ratio::zero())).collect();

    for _ in 0..periods_u {
        let mut available = stock.clone();
        let mut incoming: BTreeMap<(NodeId, NodeId), Ratio> = BTreeMap::new();
        for slot in &schedule.slots {
            for t in &slot.transfers {
                let Payload::Scatter { destination } = &t.payload else { continue };
                let wanted = t.count.clone();
                let sent = if t.from == source {
                    wanted
                } else {
                    let have =
                        available.get(&(t.from, *destination)).cloned().unwrap_or_else(Ratio::zero);
                    let sent = wanted.min(have);
                    if sent.is_positive() {
                        *available.get_mut(&(t.from, *destination)).unwrap() =
                            available[&(t.from, *destination)].clone() - &sent;
                        *stock.get_mut(&(t.from, *destination)).unwrap() =
                            stock[&(t.from, *destination)].clone() - &sent;
                    }
                    sent
                };
                if sent.is_positive() {
                    *incoming.entry((t.to, *destination)).or_insert_with(Ratio::zero) += &sent;
                }
            }
        }
        for ((to, destination), amount) in incoming {
            if to == destination {
                *delivered.get_mut(&destination).expect("known target") += &amount;
            } else {
                *stock.entry((to, destination)).or_insert_with(Ratio::zero) += &amount;
            }
        }
    }

    // A scatter operation is complete once every target received its message.
    let completed = delivered.values().cloned().min().unwrap_or_else(Ratio::zero);
    ExecutionReport {
        horizon: horizon.clone(),
        periods,
        completed_operations: completed,
        upper_bound: throughput * horizon,
    }
}

/// Executes a reduce schedule for `horizon` time-units.
pub fn execute_reduce_schedule(
    problem: &ReduceProblem,
    schedule: &PeriodicSchedule,
    throughput: &Ratio,
    horizon: &Ratio,
) -> ExecutionReport {
    let n = problem.last_index();
    let target = problem.target();
    let periods = (horizon / &schedule.period).floor();
    let periods_u = big_to_u64(&periods);

    // stock[(holder, interval)] = partial values v[interval] held by `holder`.
    let mut stock: BTreeMap<(NodeId, Interval), Ratio> = BTreeMap::new();
    let mut completed = Ratio::zero();

    let is_unlimited = |node: NodeId, interval: Interval| {
        interval.0 == interval.1 && problem.participant_index(node) == Some(interval.0)
    };

    for _ in 0..periods_u {
        let mut available = stock.clone();
        let mut incoming: BTreeMap<(NodeId, Interval), Ratio> = BTreeMap::new();

        // Communications, slot by slot.
        for slot in &schedule.slots {
            for t in &slot.transfers {
                let Payload::Partial { lo, hi } = &t.payload else { continue };
                let interval = (*lo, *hi);
                let wanted = t.count.clone();
                let sent = if is_unlimited(t.from, interval) {
                    wanted
                } else {
                    let have =
                        available.get(&(t.from, interval)).cloned().unwrap_or_else(Ratio::zero);
                    let sent = wanted.min(have);
                    if sent.is_positive() {
                        *available.get_mut(&(t.from, interval)).unwrap() =
                            available[&(t.from, interval)].clone() - &sent;
                        *stock.get_mut(&(t.from, interval)).unwrap() =
                            stock[&(t.from, interval)].clone() - &sent;
                    }
                    sent
                };
                if sent.is_positive() {
                    *incoming.entry((t.to, interval)).or_insert_with(Ratio::zero) += &sent;
                }
            }
        }

        // Computations (fully overlapped; they also consume start-of-period stock).
        for op in &schedule.computations {
            let (k, l, m) = op.task;
            let left = (k, l);
            let right = (l + 1, m);
            let mut doable = op.count.clone();
            for input in [left, right] {
                if is_unlimited(op.node, input) {
                    continue;
                }
                let have = available.get(&(op.node, input)).cloned().unwrap_or_else(Ratio::zero);
                doable = doable.min(have);
            }
            if !doable.is_positive() {
                continue;
            }
            for input in [left, right] {
                if is_unlimited(op.node, input) {
                    continue;
                }
                *available.get_mut(&(op.node, input)).unwrap() =
                    available[&(op.node, input)].clone() - &doable;
                *stock.get_mut(&(op.node, input)).unwrap() =
                    stock[&(op.node, input)].clone() - &doable;
            }
            *incoming.entry((op.node, (k, m))).or_insert_with(Ratio::zero) += &doable;
        }

        for ((node, interval), amount) in incoming {
            if node == target && interval == (0, n) {
                completed += &amount;
            } else {
                *stock.entry((node, interval)).or_insert_with(Ratio::zero) += &amount;
            }
        }
    }

    ExecutionReport {
        horizon: horizon.clone(),
        periods,
        completed_operations: completed,
        upper_bound: throughput * horizon,
    }
}

fn big_to_u64(b: &BigInt) -> u64 {
    b.to_u64().unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use steady_core::reduce::ReduceProblem;
    use steady_core::ScatterProblem;
    use steady_platform::generators::{figure2, figure6};
    use steady_rational::rat;

    #[test]
    fn scatter_efficiency_tends_to_one() {
        let problem = ScatterProblem::from_instance(figure2()).unwrap();
        let solution = problem.solve().unwrap();
        let schedule = solution.build_schedule(&problem).unwrap();
        schedule.validate(problem.platform()).unwrap();

        let mut last = Ratio::zero();
        for horizon in [40i64, 200, 1000, 5000] {
            let report = execute_scatter_schedule(
                &problem,
                &schedule,
                solution.throughput(),
                &rat(horizon, 1),
            );
            // Never beats the Lemma-1 bound.
            assert!(report.completed_operations <= report.upper_bound);
            let eff = report.efficiency();
            assert!(eff >= last, "efficiency decreased: {eff} < {last}");
            last = eff;
        }
        assert!(last > rat(9, 10), "efficiency at K = 5000 is only {last}");
    }

    #[test]
    fn scatter_cold_start_loses_little() {
        let problem = ScatterProblem::from_instance(figure2()).unwrap();
        let solution = problem.solve().unwrap();
        let schedule = solution.build_schedule(&problem).unwrap();
        let report =
            execute_scatter_schedule(&problem, &schedule, solution.throughput(), &rat(1000, 1));
        // The loss is bounded by a constant number of periods (pipeline depth).
        let loss = &report.upper_bound - &report.completed_operations;
        let depth_bound = &Ratio::from(problem.platform().max_hop_diameter() + 2)
            * &(&schedule.period * solution.throughput());
        assert!(loss <= depth_bound, "loss {loss} exceeds pipeline-depth bound {depth_bound}");
    }

    #[test]
    fn reduce_efficiency_tends_to_one() {
        let problem = ReduceProblem::from_instance(figure6()).unwrap();
        let solution = problem.solve().unwrap();
        let schedule = solution.build_schedule(&problem).unwrap();
        schedule.validate(problem.platform()).unwrap();

        let mut last = Ratio::zero();
        for horizon in [10i64, 100, 1000] {
            let report = execute_reduce_schedule(
                &problem,
                &schedule,
                solution.throughput(),
                &rat(horizon, 1),
            );
            assert!(report.completed_operations <= report.upper_bound);
            let eff = report.efficiency();
            assert!(eff >= last);
            last = eff;
        }
        assert!(last > rat(9, 10), "reduce efficiency is only {last}");
    }

    #[test]
    fn short_horizon_completes_nothing() {
        let problem = ScatterProblem::from_instance(figure2()).unwrap();
        let solution = problem.solve().unwrap();
        let schedule = solution.build_schedule(&problem).unwrap();
        let report =
            execute_scatter_schedule(&problem, &schedule, solution.throughput(), &rat(1, 1));
        assert_eq!(report.completed_operations, Ratio::zero());
        assert_eq!(report.efficiency(), Ratio::zero());
        assert!(report.periods.is_zero());
    }
}
