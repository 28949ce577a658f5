//! Periodic schedules and their one-port validation.
//!
//! The output of the steady-state machinery is a **periodic schedule**: a
//! period `T`, an ordered list of communication *slots* (each slot is a
//! matching — a set of transfers with pairwise distinct senders and pairwise
//! distinct receivers, running simultaneously for the slot's duration), and,
//! for reduce operations, the per-period computation load of every processor
//! (computations overlap with communications under the full-overlap model).
//!
//! A schedule produced from an LP solution with throughput `TP` performs
//! `TP × T` collective operations per period once the pipeline is full
//! (§3.4: initialization phase, steady-state phase, clean-up phase).

use std::collections::BTreeMap;
use std::fmt;

use steady_platform::{NodeId, Platform};
use steady_rational::Ratio;

use crate::coloring::{decompose, BipartiteLoad};
use crate::error::CoreError;
use crate::reduce::{Interval, Task};
use crate::trees::{TreeOp, WeightedTree};

/// What a transfer carries.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Payload {
    /// Scatter message destined to `destination`.
    Scatter {
        /// Final destination of the message.
        destination: NodeId,
    },
    /// Gossip (personalized all-to-all) message `m_{source, destination}`.
    Gossip {
        /// Emitting processor.
        source: NodeId,
        /// Final destination of the message.
        destination: NodeId,
    },
    /// Gather message emitted by `origin` and destined to the gather sink.
    Gather {
        /// Processor that emitted the message.
        origin: NodeId,
    },
    /// Partial reduction result `v[lo, hi]`.
    Partial {
        /// First reduced index.
        lo: usize,
        /// Last reduced index (inclusive).
        hi: usize,
    },
}

impl fmt::Display for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Scatter { destination } => write!(f, "m[{destination}]"),
            Payload::Gossip { source, destination } => write!(f, "m[{source}->{destination}]"),
            Payload::Gather { origin } => write!(f, "g[{origin}]"),
            Payload::Partial { lo, hi } => write!(f, "v[{lo},{hi}]"),
        }
    }
}

/// One aggregated transfer inside a slot.
#[derive(Debug, Clone)]
pub struct Transfer {
    /// Sending processor.
    pub from: NodeId,
    /// Receiving processor.
    pub to: NodeId,
    /// What is transferred.
    pub payload: Payload,
    /// Fractional number of messages of this payload moved during the slot.
    pub count: Ratio,
    /// Busy time of the link for this transfer (`count × size × c(e)`).
    pub duration: Ratio,
}

/// A communication slot: transfers that run simultaneously.
#[derive(Debug, Clone)]
pub struct CommSlot {
    /// Duration of the slot.
    pub duration: Ratio,
    /// The simultaneous transfers (a matching over senders/receivers).
    pub transfers: Vec<Transfer>,
}

/// Per-period computation performed by one node (reduce only).
#[derive(Debug, Clone)]
pub struct ComputeOp {
    /// The processor executing the task.
    pub node: NodeId,
    /// The reduction task `T_{k,l,m}`: combines `v[k,l]` and `v[l+1,m]`.
    pub task: (usize, usize, usize),
    /// Fractional number of such tasks per period.
    pub count: Ratio,
    /// Busy time of the processor for these tasks per period.
    pub duration: Ratio,
}

/// A complete periodic schedule.
#[derive(Debug, Clone)]
pub struct PeriodicSchedule {
    /// Length of one period.
    pub period: Ratio,
    /// Number of collective operations completed per period in steady state.
    pub operations_per_period: Ratio,
    /// Ordered communication slots; their total duration never exceeds the period.
    pub slots: Vec<CommSlot>,
    /// Per-period computations (empty for scatter/gossip).
    pub computations: Vec<ComputeOp>,
}

impl PeriodicSchedule {
    /// Steady-state throughput of the schedule (operations per time-unit).
    pub fn throughput(&self) -> Ratio {
        if self.period.is_zero() {
            return Ratio::zero();
        }
        &self.operations_per_period / &self.period
    }

    /// Total communication time scheduled within one period.
    pub fn total_slot_time(&self) -> Ratio {
        self.slots.iter().map(|s| s.duration.clone()).sum()
    }

    /// Validates the one-port and full-overlap feasibility of the schedule:
    ///
    /// * within each slot, no sender and no receiver appears twice and every
    ///   transfer fits in the slot;
    /// * the sum of slot durations does not exceed the period;
    /// * the total computation time of every node does not exceed the period;
    /// * every transfer uses an existing platform edge and its duration equals
    ///   `count × size × c(e)` is not checked here (sizes are problem-specific)
    ///   but must be positive.
    pub fn validate(&self, platform: &Platform) -> Result<(), String> {
        if !self.period.is_positive() {
            return Err("period must be positive".into());
        }
        if self.total_slot_time() > self.period {
            return Err(format!(
                "slots last {} which exceeds the period {}",
                self.total_slot_time(),
                self.period
            ));
        }
        for (si, slot) in self.slots.iter().enumerate() {
            if !slot.duration.is_positive() {
                return Err(format!("slot {si} has non-positive duration"));
            }
            // A slot is a matching: each sender talks to exactly one receiver
            // and vice versa.  Several payloads may share the same (from, to)
            // pair within the slot (they are serialized on the link), as long
            // as the total busy time fits in the slot.
            let mut partner_of_sender: BTreeMap<NodeId, NodeId> = BTreeMap::new();
            let mut partner_of_receiver: BTreeMap<NodeId, NodeId> = BTreeMap::new();
            let mut send_time: BTreeMap<NodeId, Ratio> = BTreeMap::new();
            let mut recv_time: BTreeMap<NodeId, Ratio> = BTreeMap::new();
            for t in &slot.transfers {
                match partner_of_sender.get(&t.from) {
                    Some(prev) if *prev != t.to => {
                        return Err(format!(
                            "slot {si}: {} sends to both {} and {} simultaneously",
                            t.from, prev, t.to
                        ));
                    }
                    _ => {
                        partner_of_sender.insert(t.from, t.to);
                    }
                }
                match partner_of_receiver.get(&t.to) {
                    Some(prev) if *prev != t.from => {
                        return Err(format!(
                            "slot {si}: {} receives from both {} and {} simultaneously",
                            t.to, prev, t.from
                        ));
                    }
                    _ => {
                        partner_of_receiver.insert(t.to, t.from);
                    }
                }
                if platform.edge_between(t.from, t.to).is_none() {
                    return Err(format!("slot {si}: no edge {} -> {}", t.from, t.to));
                }
                if t.count.is_negative() || t.duration.is_negative() {
                    return Err(format!("slot {si}: negative transfer amount"));
                }
                *send_time.entry(t.from).or_insert_with(Ratio::zero) += &t.duration;
                *recv_time.entry(t.to).or_insert_with(Ratio::zero) += &t.duration;
            }
            for (node, time) in send_time.iter().chain(recv_time.iter()) {
                if *time > slot.duration {
                    return Err(format!(
                        "slot {si}: {node} is busy for {time} in a slot of {}",
                        slot.duration
                    ));
                }
            }
        }
        // Full-overlap: computation runs in parallel with communication but a
        // node still has a single compute unit.
        let mut compute_time: BTreeMap<NodeId, Ratio> = BTreeMap::new();
        for op in &self.computations {
            if !platform.node(op.node).can_compute() {
                return Err(format!("{} is a router but is assigned computation", op.node));
            }
            *compute_time.entry(op.node).or_insert_with(Ratio::zero) += &op.duration;
        }
        for (node, time) in compute_time {
            if time > self.period {
                return Err(format!(
                    "{node} computes for {time} during a period of {}",
                    self.period
                ));
            }
        }
        Ok(())
    }

    /// Per-node outgoing communication time within one period.
    pub fn send_time_per_node(&self) -> BTreeMap<NodeId, Ratio> {
        let mut out: BTreeMap<NodeId, Ratio> = BTreeMap::new();
        for slot in &self.slots {
            for t in &slot.transfers {
                *out.entry(t.from).or_insert_with(Ratio::zero) += &t.duration;
            }
        }
        out
    }

    /// Per-node incoming communication time within one period.
    pub fn recv_time_per_node(&self) -> BTreeMap<NodeId, Ratio> {
        let mut out: BTreeMap<NodeId, Ratio> = BTreeMap::new();
        for slot in &self.slots {
            for t in &slot.transfers {
                *out.entry(t.to).or_insert_with(Ratio::zero) += &t.duration;
            }
        }
        out
    }

    /// Number of messages of each payload crossing each (from, to) pair per
    /// period; used by tests to cross-check against the LP solution.
    pub fn transfer_totals(&self) -> BTreeMap<(NodeId, NodeId, Payload), Ratio> {
        let mut out: BTreeMap<(NodeId, NodeId, Payload), Ratio> = BTreeMap::new();
        for slot in &self.slots {
            for t in &slot.transfers {
                *out.entry((t.from, t.to, t.payload.clone())).or_insert_with(Ratio::zero) +=
                    &t.count;
            }
        }
        out
    }

    /// Human-readable rendering (one line per slot), similar in spirit to the
    /// Gantt-like Figure 4 of the paper.
    pub fn render(&self, platform: &Platform) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "period {} | {} operation(s) per period | throughput {}\n",
            self.period,
            self.operations_per_period,
            self.throughput()
        ));
        let mut t = Ratio::zero();
        for (si, slot) in self.slots.iter().enumerate() {
            let end = &t + &slot.duration;
            out.push_str(&format!("slot {si} [{t} .. {end}):\n"));
            for tr in &slot.transfers {
                out.push_str(&format!(
                    "  {} -> {} : {} x {} ({} time-units)\n",
                    platform.node(tr.from).name,
                    platform.node(tr.to).name,
                    tr.count,
                    tr.payload,
                    tr.duration
                ));
            }
            t = end;
        }
        if !self.computations.is_empty() {
            out.push_str("computations (overlapped):\n");
            for c in &self.computations {
                out.push_str(&format!(
                    "  {} : {} x T[{},{},{}] ({} time-units)\n",
                    platform.node(c.node).name,
                    c.count,
                    c.task.0,
                    c.task.1,
                    c.task.2,
                    c.duration
                ));
            }
        }
        out
    }
}

/// FIFO of the transfers queued on one `(sender, receiver)` pair while a
/// period's transfers are distributed over the matchings of the
/// weighted-edge-coloring decomposition (§3.3).
type PayloadQueue = Vec<Transfer>;

/// Packs one period's transfers into communication slots (§3.3): aggregate
/// them into the per-link load, decompose that load into matchings, and
/// split each link's queue of transfers across the matchings that involve
/// the link.  Transfers of zero duration are dropped.
pub(crate) fn pack_transfers(
    transfers: impl IntoIterator<Item = Transfer>,
) -> Result<Vec<CommSlot>, CoreError> {
    let mut load = BipartiteLoad::new();
    let mut queues: BTreeMap<(usize, usize), PayloadQueue> = BTreeMap::new();
    for transfer in transfers {
        if !transfer.duration.is_positive() {
            continue;
        }
        let key = (transfer.from.index(), transfer.to.index());
        load.add(key.0, key.1, transfer.duration.clone());
        queues.entry(key).or_default().push(transfer);
    }
    pack(&load, queues)
}

fn pack(
    load: &BipartiteLoad,
    mut queues: BTreeMap<(usize, usize), PayloadQueue>,
) -> Result<Vec<CommSlot>, CoreError> {
    let steps = decompose(load)?;
    let mut slots = Vec::with_capacity(steps.len());
    for step in &steps {
        let mut transfers = Vec::new();
        for &edge_idx in &step.edges {
            let le = &load.edges[edge_idx];
            let queue = queues.get_mut(&(le.sender, le.receiver)).expect("load edge without queue");
            // Fill `step.duration` time with transfers from the queue,
            // splitting the last one if needed (Figure 4(a) allows split
            // messages; callers can re-scale the period to avoid splits).
            let mut remaining = step.duration.clone();
            while remaining.is_positive() {
                let Some(head) = queue.first_mut() else {
                    break;
                };
                if head.duration <= remaining {
                    remaining = &remaining - &head.duration;
                    transfers.push(queue.remove(0));
                } else {
                    // Split: send the fraction that fits.
                    let part = &head.count * &(&remaining / &head.duration);
                    head.count = &head.count - &part;
                    head.duration = &head.duration - &remaining;
                    transfers.push(Transfer {
                        from: head.from,
                        to: head.to,
                        payload: head.payload.clone(),
                        count: part,
                        duration: remaining,
                    });
                    break;
                }
            }
        }
        slots.push(CommSlot { duration: step.duration.clone(), transfers });
    }
    Ok(slots)
}

/// Packs weighted reduction trees into one period (reduce and prefix): each
/// tree runs `weight × period` times, its transfers of `v[interval]` take
/// `size(interval) × c(e)` each and are packed by [`pack_transfers`], and its
/// tasks are summed per node into overlapped computations timed by
/// `task_time`.
pub(crate) fn pack_trees<'a>(
    platform: &Platform,
    trees: impl IntoIterator<Item = &'a WeightedTree>,
    period: &Ratio,
    size: impl Fn(Interval) -> Ratio,
    task_time: impl Fn(NodeId) -> Option<Ratio>,
) -> Result<(Vec<CommSlot>, Vec<ComputeOp>), CoreError> {
    let mut transfers = Vec::new();
    let mut compute: BTreeMap<(NodeId, Task), Ratio> = BTreeMap::new();
    for wt in trees {
        let count = &wt.weight * period;
        for op in &wt.tree.ops {
            match op {
                TreeOp::Transfer { from, to, edge, interval } => transfers.push(Transfer {
                    from: *from,
                    to: *to,
                    payload: Payload::Partial { lo: interval.0, hi: interval.1 },
                    duration: &count * &size(*interval) * &platform.edge(*edge).cost,
                    count: count.clone(),
                }),
                TreeOp::Compute { node, task } => {
                    *compute.entry((*node, *task)).or_insert_with(Ratio::zero) += &count;
                }
            }
        }
    }
    let computations = compute
        .into_iter()
        .map(|((node, task), count)| {
            let task_time = task_time(node).expect("tree assigns computation to a compute node");
            let duration = &count * &task_time;
            ComputeOp { node, task, count, duration }
        })
        .collect();
    Ok((pack_transfers(transfers)?, computations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use steady_platform::generators::figure2;
    use steady_rational::rat;

    fn toy_schedule() -> (Platform, PeriodicSchedule) {
        let inst = figure2();
        let p = inst.platform.clone();
        let ps = NodeId(0);
        let pa = NodeId(1);
        let pb = NodeId(2);
        let p0 = NodeId(3);
        let p1 = NodeId(4);
        let schedule = PeriodicSchedule {
            period: rat(12, 1),
            operations_per_period: rat(6, 1),
            slots: vec![
                CommSlot {
                    duration: rat(6, 1),
                    transfers: vec![
                        Transfer {
                            from: ps,
                            to: pb,
                            payload: Payload::Scatter { destination: p1 },
                            count: rat(6, 1),
                            duration: rat(6, 1),
                        },
                        Transfer {
                            from: pa,
                            to: p0,
                            payload: Payload::Scatter { destination: p0 },
                            count: rat(3, 1),
                            duration: rat(2, 1),
                        },
                    ],
                },
                CommSlot {
                    duration: rat(6, 1),
                    transfers: vec![
                        Transfer {
                            from: ps,
                            to: pa,
                            payload: Payload::Scatter { destination: p0 },
                            count: rat(3, 1),
                            duration: rat(3, 1),
                        },
                        Transfer {
                            from: pb,
                            to: p1,
                            payload: Payload::Scatter { destination: p1 },
                            count: rat(4, 1),
                            duration: rat(16, 3),
                        },
                    ],
                },
            ],
            computations: vec![],
        };
        (p, schedule)
    }

    #[test]
    fn throughput_and_totals() {
        let (_p, s) = toy_schedule();
        assert_eq!(s.throughput(), rat(1, 2));
        assert_eq!(s.total_slot_time(), rat(12, 1));
        let send = s.send_time_per_node();
        assert_eq!(send[&NodeId(0)], rat(9, 1));
        let recv = s.recv_time_per_node();
        assert_eq!(recv[&NodeId(3)], rat(2, 1));
        let totals = s.transfer_totals();
        assert_eq!(
            totals[&(NodeId(0), NodeId(2), Payload::Scatter { destination: NodeId(4) })],
            rat(6, 1)
        );
    }

    #[test]
    fn validation_accepts_toy_schedule() {
        let (p, s) = toy_schedule();
        assert!(s.validate(&p).is_ok());
        let rendered = s.render(&p);
        assert!(rendered.contains("slot 0"));
        assert!(rendered.contains("Ps"));
    }

    #[test]
    fn validation_rejects_one_port_violation() {
        let (p, mut s) = toy_schedule();
        // Make Ps send to two different receivers in the same slot.
        let dup = s.slots[0].transfers[0].clone();
        s.slots[0].transfers.push(Transfer { to: NodeId(1), ..dup });
        let err = s.validate(&p).unwrap_err();
        assert!(err.contains("sends to both"), "{err}");
    }

    #[test]
    fn validation_rejects_duplicate_receiver() {
        let (p, mut s) = toy_schedule();
        let dup = s.slots[1].transfers[0].clone();
        // Slot 1 already contains Pb -> P1; add Pa -> P1 so that P1 receives
        // from two different senders simultaneously.
        s.slots[1].transfers.push(Transfer { from: NodeId(1), to: NodeId(4), ..dup });
        let err = s.validate(&p).unwrap_err();
        assert!(err.contains("receives from both"), "{err}");
    }

    #[test]
    fn validation_rejects_oversubscribed_link_in_slot() {
        let (p, mut s) = toy_schedule();
        // Same (from, to) pair twice is allowed only if the total fits the slot.
        let dup = s.slots[0].transfers[0].clone();
        s.slots[0].transfers.push(dup);
        let err = s.validate(&p).unwrap_err();
        assert!(err.contains("busy for"), "{err}");
    }

    #[test]
    fn validation_rejects_overlong_slots() {
        let (p, mut s) = toy_schedule();
        s.slots[0].duration = rat(20, 1);
        let err = s.validate(&p).unwrap_err();
        assert!(err.contains("exceeds the period"), "{err}");
    }

    #[test]
    fn validation_rejects_missing_edge() {
        let (p, mut s) = toy_schedule();
        // There is no edge P0 -> P1 on the Figure 2 platform.
        s.slots[0].transfers[0].from = NodeId(3);
        s.slots[0].transfers[0].to = NodeId(4);
        let err = s.validate(&p).unwrap_err();
        assert!(err.contains("no edge"), "{err}");
    }

    #[test]
    fn validation_rejects_router_computation() {
        let (p, mut s) = toy_schedule();
        s.computations.push(ComputeOp {
            node: NodeId(0),
            task: (0, 0, 1),
            count: rat(1, 1),
            duration: rat(1, 1),
        });
        // Node 0 of figure2 has speed 1, so it is allowed; use an impossible amount instead.
        s.computations[0].duration = rat(100, 1);
        let err = s.validate(&p).unwrap_err();
        assert!(err.contains("computes for"), "{err}");
    }

    #[test]
    fn payload_display() {
        assert_eq!(Payload::Scatter { destination: NodeId(3) }.to_string(), "m[P3]");
        assert_eq!(Payload::Partial { lo: 1, hi: 4 }.to_string(), "v[1,4]");
        assert_eq!(
            Payload::Gossip { source: NodeId(0), destination: NodeId(2) }.to_string(),
            "m[P0->P2]"
        );
    }
}
