//! Per-node execution plans derived from periodic schedules.
//!
//! The LP machinery of `steady-core` produces rational per-time-unit rates and
//! matching-based schedules; to actually move whole messages between threads
//! the runtime first turns them into **integer per-period plans**: for every
//! node, how many messages of each kind it must forward to each neighbour in
//! one period, and (for reduce) how many of each combining task it must run.
//!
//! * [`ScatterPlan::from_schedule`] reads the per-period transfer totals of a
//!   scatter schedule (they are integral once the schedule uses the LCM
//!   period).
//! * [`ReducePlan::from_trees`] works from the weighted reduction trees: each
//!   tree of weight `w` performs `w × T` complete operations per period, and
//!   tagging every transfer and task with its tree keeps the non-commutative
//!   operand pairing unambiguous (the paper's Figure 6(d) does the same by
//!   assigning time-stamps to trees).

use std::collections::BTreeMap;

use steady_core::reduce::{Interval, ReduceProblem, Task};
use steady_core::schedule::{Payload, PeriodicSchedule};
use steady_core::trees::{TreeOp, WeightedTree};
use steady_core::{GatherProblem, ScatterProblem};
use steady_platform::NodeId;
use steady_rational::{lcm_of_denominators, Ratio};

/// One forwarding obligation of a node within each period of a scatter run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScatterSendOrder {
    /// Neighbour to send to.
    pub to: NodeId,
    /// Final destination of the forwarded messages.
    pub destination: NodeId,
    /// Whole messages to forward per period.
    pub count: u64,
}

/// Integer per-period plan of a scatter schedule.
#[derive(Debug, Clone, Default)]
pub struct ScatterPlan {
    /// Complete scatter operations initiated per period in steady state.
    pub operations_per_period: u64,
    /// Per-node forwarding obligations.
    pub sends: BTreeMap<NodeId, Vec<ScatterSendOrder>>,
}

impl ScatterPlan {
    /// Derives the plan from a schedule built on the LP's integer period.
    ///
    /// Fails if any per-period total is not an integer (which would mean the
    /// schedule was built for a non-integral period).
    pub fn from_schedule(
        problem: &ScatterProblem,
        schedule: &PeriodicSchedule,
    ) -> Result<Self, String> {
        let operations_per_period = ratio_to_u64(&schedule.operations_per_period)
            .ok_or_else(|| "operations per period is not a whole number".to_string())?;
        let mut sends: BTreeMap<NodeId, Vec<ScatterSendOrder>> = BTreeMap::new();
        for ((from, to, payload), count) in schedule.transfer_totals() {
            let Payload::Scatter { destination } = payload else {
                return Err("scatter schedule carries a non-scatter payload".into());
            };
            if !problem.targets().contains(&destination) {
                return Err(format!("schedule routes messages for unknown target {destination}"));
            }
            let count = ratio_to_u64(&count)
                .ok_or_else(|| format!("{from} -> {to} forwards a fractional message count"))?;
            if count == 0 {
                continue;
            }
            sends.entry(from).or_default().push(ScatterSendOrder { to, destination, count });
        }
        Ok(ScatterPlan { operations_per_period, sends })
    }

    /// Total messages forwarded per period across all nodes.
    pub fn total_messages(&self) -> u64 {
        self.sends.values().flatten().map(|o| o.count).sum()
    }
}

/// One forwarding obligation of a node within each period of a gather run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatherSendOrder {
    /// Neighbour to send to.
    pub to: NodeId,
    /// Source processor whose messages are forwarded.
    pub origin: NodeId,
    /// Whole messages to forward per period.
    pub count: u64,
}

/// Integer per-period plan of a gather schedule.
#[derive(Debug, Clone, Default)]
pub struct GatherPlan {
    /// Complete gather operations initiated per period in steady state.
    pub operations_per_period: u64,
    /// Per-node forwarding obligations.
    pub sends: BTreeMap<NodeId, Vec<GatherSendOrder>>,
}

impl GatherPlan {
    /// Derives the plan from a schedule built on the LP's integer period.
    pub fn from_schedule(
        problem: &GatherProblem,
        schedule: &PeriodicSchedule,
    ) -> Result<Self, String> {
        let operations_per_period = ratio_to_u64(&schedule.operations_per_period)
            .ok_or_else(|| "operations per period is not a whole number".to_string())?;
        let mut sends: BTreeMap<NodeId, Vec<GatherSendOrder>> = BTreeMap::new();
        for ((from, to, payload), count) in schedule.transfer_totals() {
            let Payload::Gather { origin } = payload else {
                return Err("gather schedule carries a non-gather payload".into());
            };
            if !problem.sources().contains(&origin) {
                return Err(format!("schedule routes messages of unknown source {origin}"));
            }
            let count = ratio_to_u64(&count)
                .ok_or_else(|| format!("{from} -> {to} forwards a fractional message count"))?;
            if count == 0 {
                continue;
            }
            sends.entry(from).or_default().push(GatherSendOrder { to, origin, count });
        }
        Ok(GatherPlan { operations_per_period, sends })
    }

    /// Total messages forwarded per period across all nodes.
    pub fn total_messages(&self) -> u64 {
        self.sends.values().flatten().map(|o| o.count).sum()
    }
}

/// One forwarding obligation of a node within each period of a reduce run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReduceSendOrder {
    /// Index of the reduction tree this transfer belongs to.
    pub tree: usize,
    /// Neighbour to send to.
    pub to: NodeId,
    /// The partial value moved.
    pub interval: Interval,
    /// Whole messages to forward per period.
    pub count: u64,
}

/// One combining obligation of a node within each period of a reduce run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReduceComputeOrder {
    /// Index of the reduction tree this task belongs to.
    pub tree: usize,
    /// The task `T_{k,l,m}`.
    pub task: Task,
    /// Tasks to run per period.
    pub count: u64,
}

/// Integer per-period plan of a reduce schedule, organized by reduction tree.
#[derive(Debug, Clone, Default)]
pub struct ReducePlan {
    /// Complete reduce operations per period (sum of the per-tree counts).
    pub operations_per_period: u64,
    /// Operations routed through each tree per period.
    pub tree_counts: Vec<u64>,
    /// Time-stamp offset of each tree inside a period: tree `j` handles the
    /// operations `offset[j] .. offset[j] + count[j]` of every period.
    pub tree_offsets: Vec<u64>,
    /// Per-node forwarding obligations.
    pub sends: BTreeMap<NodeId, Vec<ReduceSendOrder>>,
    /// Per-node combining obligations.
    pub computes: BTreeMap<NodeId, Vec<ReduceComputeOrder>>,
}

impl ReducePlan {
    /// Derives the plan from the weighted reduction trees of a solution.
    pub fn from_trees(problem: &ReduceProblem, trees: &[WeightedTree]) -> Result<Self, String> {
        if trees.is_empty() {
            return Err("no reduction trees".into());
        }
        let weights: Vec<Ratio> = trees.iter().map(|t| t.weight.clone()).collect();
        let period = Ratio::from(lcm_of_denominators(&weights));

        let mut tree_counts = Vec::with_capacity(trees.len());
        let mut tree_offsets = Vec::with_capacity(trees.len());
        let mut sends: BTreeMap<NodeId, Vec<ReduceSendOrder>> = BTreeMap::new();
        let mut computes: BTreeMap<NodeId, Vec<ReduceComputeOrder>> = BTreeMap::new();
        let mut offset = 0u64;

        for (j, wt) in trees.iter().enumerate() {
            let count = ratio_to_u64(&(&wt.weight * &period))
                .ok_or_else(|| format!("tree {j} has a fractional per-period count"))?;
            tree_counts.push(count);
            tree_offsets.push(offset);
            offset += count;
            if count == 0 {
                continue;
            }
            for op in &wt.tree.ops {
                match op {
                    TreeOp::Transfer { from, to, interval, .. } => {
                        sends.entry(*from).or_default().push(ReduceSendOrder {
                            tree: j,
                            to: *to,
                            interval: *interval,
                            count,
                        });
                    }
                    TreeOp::Compute { node, task } => {
                        if problem.task_time(*node).is_none() {
                            return Err(format!("tree {j} assigns a task to router {node}"));
                        }
                        computes.entry(*node).or_default().push(ReduceComputeOrder {
                            tree: j,
                            task: *task,
                            count,
                        });
                    }
                }
            }
        }

        Ok(ReducePlan { operations_per_period: offset, tree_counts, tree_offsets, sends, computes })
    }

    /// Total messages forwarded per period across all nodes.
    pub fn total_messages(&self) -> u64 {
        self.sends.values().flatten().map(|o| o.count).sum()
    }

    /// Total combining tasks executed per period across all nodes.
    pub fn total_tasks(&self) -> u64 {
        self.computes.values().flatten().map(|o| o.count).sum()
    }
}

fn ratio_to_u64(r: &Ratio) -> Option<u64> {
    if !r.is_integer() || r.is_negative() {
        return None;
    }
    r.numer().to_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use steady_platform::generators::{figure2, figure6};

    #[test]
    fn scatter_plan_from_figure2() {
        let problem = ScatterProblem::from_instance(figure2()).unwrap();
        let solution = problem.solve().unwrap();
        let schedule = solution.build_schedule(&problem).unwrap();
        let plan = ScatterPlan::from_schedule(&problem, &schedule).unwrap();
        assert!(plan.operations_per_period >= 1);
        // The source forwards one message per target per operation.
        let source_out: u64 = plan.sends[&problem.source()].iter().map(|o| o.count).sum();
        assert_eq!(source_out, plan.operations_per_period * problem.targets().len() as u64);
        // Relays forward everything they receive.
        assert!(plan.total_messages() >= source_out);
    }

    #[test]
    fn gather_plan_from_star() {
        use steady_core::GatherProblem;
        use steady_platform::generators;
        use steady_rational::rat;
        let (p, center, leaves) = generators::star(3, rat(1, 1));
        let problem = GatherProblem::new(p, leaves.clone(), center).unwrap();
        let solution = problem.solve().unwrap();
        let schedule = solution.build_schedule(&problem).unwrap();
        let plan = GatherPlan::from_schedule(&problem, &schedule).unwrap();
        assert!(plan.operations_per_period >= 1);
        // Each leaf forwards its own stream once per operation.
        for &leaf in &leaves {
            let total: u64 = plan.sends[&leaf].iter().map(|o| o.count).sum();
            assert_eq!(total, plan.operations_per_period);
        }
        assert_eq!(plan.total_messages(), 3 * plan.operations_per_period);
    }

    #[test]
    fn reduce_plan_from_figure6() {
        let problem = ReduceProblem::from_instance(figure6()).unwrap();
        let solution = problem.solve().unwrap();
        let trees = solution.extract_trees(&problem).unwrap();
        let plan = ReducePlan::from_trees(&problem, &trees).unwrap();
        assert_eq!(plan.tree_counts.len(), trees.len());
        assert_eq!(plan.operations_per_period, plan.tree_counts.iter().sum::<u64>());
        // Offsets partition [0, operations_per_period).
        let mut expected = 0;
        for (o, c) in plan.tree_offsets.iter().zip(&plan.tree_counts) {
            assert_eq!(*o, expected);
            expected += c;
        }
        assert!(plan.total_tasks() >= plan.operations_per_period);
    }

    #[test]
    fn empty_tree_set_is_rejected() {
        let problem = ReduceProblem::from_instance(figure6()).unwrap();
        assert!(ReducePlan::from_trees(&problem, &[]).is_err());
    }
}
