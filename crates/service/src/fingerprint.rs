//! Canonical, relabeling-invariant fingerprints of throughput queries.
//!
//! Two queries that differ only by a renumbering of the platform's nodes
//! describe the same steady-state problem and have the same optimal
//! throughput, so they should map to a single cache key.  The fingerprint is
//! built from a Weisfeiler–Leman color refinement of the platform graph:
//!
//! 1. every node starts with a color derived from its compute speed and its
//!    *role* in the query (source, target, sink, participant with rank, ...);
//! 2. colors are refined for `|V|` rounds — a node's next color hashes its
//!    current color together with the **sorted multisets** of
//!    `(edge cost, neighbor color)` pairs over its outgoing and incoming
//!    edges;
//! 3. the fingerprint hashes the sorted multiset of final colors together
//!    with the collective kind and its scalar parameters.
//!
//! Every per-node quantity enters through a sorted multiset, so the result is
//! invariant under any permutation of node indices — isomorphic queries
//! *always* share a fingerprint.  The converse is deliberately approximate:
//! color refinement is the 1-WL test, which cannot separate certain highly
//! symmetric non-isomorphic graphs (the classic pair is `K_{3,3}` versus the
//! triangular prism).  To break exactly that class, each node's initial color
//! also includes its directed-triangle count (a bipartite platform has none,
//! a prism-like one does).  Distinct speeds, edge costs or roles reach every
//! refinement round, so collisions require platforms that are
//! simultaneously WL-equivalent, triangle-equivalent and parameter-identical
//! — or a 64-bit hash collision.  That residual risk is the cache-key
//! trade-off this module makes; callers needing certainty can re-verify a
//! cached answer against a cold solve.  Node *names* are deliberately
//! ignored: the fingerprint is structural.
//!
//! Hashing uses FNV-1a, hand-rolled so fingerprints are stable across
//! processes and runs (unlike `std`'s randomly keyed `DefaultHasher`).

use std::fmt::{self, Write as _};

use steady_platform::{NodeId, Platform};
use steady_rational::Ratio;

use crate::query::{Collective, Query};

/// A 64-bit canonical fingerprint of a [`Query`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Incremental FNV-1a hasher over 64-bit words and byte strings.
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    fn ratio(&mut self, r: &Ratio) {
        // Ratios are kept in lowest terms, so the textual numerator/denominator
        // pair is a canonical encoding of the value.  `Display` streams its
        // digits straight into the hash (see the `fmt::Write` impl below):
        // the hashed bytes are the `to_string()` bytes with no `String` built.
        let _ = write!(self, "{}/{}", r.numer(), r.denom());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Role bits mixed into a node's initial color.  A node may hold several
/// roles at once (e.g. a reduce target that also contributes a value).
mod role {
    pub const SOURCE: u64 = 1 << 0;
    pub const TARGET: u64 = 1 << 1;
    pub const SINK: u64 = 1 << 2;
    pub const PARTICIPANT: u64 = 1 << 3;
    /// Prefix participants are *ordered* (participant `i` receives the
    /// reduction of ranks `0..=i`), so their rank is part of the role.
    pub const RANK_BASE: u64 = 1 << 8;
}

/// Number of directed triangles through each node: ordered pairs `(u, w)`
/// with edges `v -> u`, `u -> w`, `w -> v`.  A permutation-invariant seed
/// that separates bipartite platforms from triangle-bearing ones — the
/// graph class plain 1-WL refinement is blind to.
fn directed_triangle_counts(platform: &Platform) -> Vec<u64> {
    platform
        .node_ids()
        .map(|v| {
            let mut count = 0u64;
            for &e1 in platform.out_edges(v) {
                let u = platform.edge(e1).to;
                for &e2 in platform.out_edges(u) {
                    let w = platform.edge(e2).to;
                    if w != v && platform.edge_between(w, v).is_some() {
                        count += 1;
                    }
                }
            }
            count
        })
        .collect()
}

/// Number of distinct values in `colors` (the size of the color partition),
/// counted in the caller's `scratch` buffer.
fn distinct_count(colors: &[u64], scratch: &mut Vec<u64>) -> usize {
    scratch.clear();
    scratch.extend_from_slice(colors);
    scratch.sort_unstable();
    scratch.dedup();
    scratch.len()
}

/// Weisfeiler–Leman canonical hash of `platform` with per-node role labels.
///
/// With `include_costs` unset, every edge cost and exact node speed is
/// replaced by a constant (only the *can-compute* capability of each node
/// survives), yielding the cost-blind structural hash: platforms that differ
/// only in their numeric edge costs — the "cost drift" of a real deployment —
/// collapse into one structural class.
fn canonical_platform_hash(platform: &Platform, roles: &[u64], include_costs: bool) -> u64 {
    let n = platform.num_nodes();
    let triangles = directed_triangle_counts(platform);
    // Edge-cost hashes are loop-invariant; hashing a `Ratio` formats both
    // its terms, so pay for each edge once, not once per round.
    let edge_cost_hash: Vec<u64> = platform
        .edge_ids()
        .map(|e| {
            if !include_costs {
                return 0;
            }
            let mut h = Fnv::new();
            h.ratio(&platform.edge(e).cost);
            h.finish()
        })
        .collect();
    let mut colors: Vec<u64> = (0..n)
        .map(|i| {
            let mut h = Fnv::new();
            let node = platform.node(NodeId(i));
            if include_costs {
                h.ratio(&node.speed);
            } else {
                h.word(u64::from(node.can_compute()));
            }
            h.word(roles[i]);
            h.word(triangles[i]);
            h.finish()
        })
        .collect();

    // Refinement only ever splits color classes, so once the class count
    // stops growing the partition is stable and further rounds are no-ops.
    // The class count is an isomorphism invariant, so isomorphic platforms
    // exit after the same number of rounds with matching color multisets.
    //
    // Every buffer of the loop is allocated here once and reused across
    // nodes and rounds: this runs on the caller's thread for every query.
    let mut scratch = Vec::with_capacity(n);
    let mut next = Vec::with_capacity(n);
    let mut out: Vec<u64> = Vec::new();
    let mut inc: Vec<u64> = Vec::new();
    let neighbor_hash = |e: &steady_platform::EdgeId, color: u64| {
        let mut h = Fnv::new();
        h.word(edge_cost_hash[e.index()]);
        h.word(color);
        h.finish()
    };
    let mut classes = distinct_count(&colors, &mut scratch);
    for _round in 0..n {
        next.clear();
        for i in 0..n {
            let node = NodeId(i);
            out.clear();
            out.extend(
                platform
                    .out_edges(node)
                    .iter()
                    .map(|e| neighbor_hash(e, colors[platform.edge(*e).to.index()])),
            );
            inc.clear();
            inc.extend(
                platform
                    .in_edges(node)
                    .iter()
                    .map(|e| neighbor_hash(e, colors[platform.edge(*e).from.index()])),
            );
            out.sort_unstable();
            inc.sort_unstable();
            let mut h = Fnv::new();
            h.word(colors[i]);
            h.bytes(b"out");
            for &w in &out {
                h.word(w);
            }
            h.bytes(b"in");
            for &w in &inc {
                h.word(w);
            }
            next.push(h.finish());
        }
        std::mem::swap(&mut colors, &mut next);
        let refined = distinct_count(&colors, &mut scratch);
        if refined == classes {
            break;
        }
        classes = refined;
    }

    colors.sort_unstable();
    let mut h = Fnv::new();
    h.word(n as u64);
    h.word(platform.num_edges() as u64);
    for c in colors {
        h.word(c);
    }
    h.finish()
}

/// Computes the canonical fingerprint of `query`.
///
/// The query's node ids must be valid for its platform (see
/// [`Query::validate`]); out-of-range ids panic.
pub fn fingerprint(query: &Query) -> Fingerprint {
    fingerprint_with(query, true)
}

/// Computes the **structural** fingerprint of `query`: topology, roles and
/// collective kind only — every numeric cost (edge costs, exact node speeds,
/// the reduce/prefix `size` and `task_cost` scalars) is blinded.
///
/// Queries sharing a structural fingerprint formulate LPs with the same
/// variables and constraints, differing only in coefficients, so the solved
/// basis of one is a valid warm-start seed for the others (the engine keys
/// its basis cache on this value).  Unlike the exact fingerprint it is *not*
/// a cache key for answers: two queries in one structural class generally
/// have different optimal throughputs.
pub fn structural_fingerprint(query: &Query) -> Fingerprint {
    fingerprint_with(query, false)
}

fn fingerprint_with(query: &Query, include_costs: bool) -> Fingerprint {
    let n = query.platform.num_nodes();
    let mut roles = vec![0u64; n];
    let mut h = Fnv::new();
    if !include_costs {
        // Domain-separate the two keyspaces: a structural fingerprint must
        // never collide with an exact one even for cost-free queries.
        h.bytes(b"structural:");
    }
    match &query.collective {
        Collective::Scatter { source, targets } => {
            h.bytes(b"scatter");
            roles[source.index()] |= role::SOURCE;
            for t in targets {
                roles[t.index()] |= role::TARGET;
            }
        }
        Collective::Gather { sources, sink } => {
            h.bytes(b"gather");
            for s in sources {
                roles[s.index()] |= role::SOURCE;
            }
            roles[sink.index()] |= role::SINK;
        }
        Collective::Gossip { sources, targets } => {
            h.bytes(b"gossip");
            for s in sources {
                roles[s.index()] |= role::SOURCE;
            }
            for t in targets {
                roles[t.index()] |= role::TARGET;
            }
        }
        Collective::Reduce { participants, target, size, task_cost } => {
            h.bytes(b"reduce");
            for p in participants {
                roles[p.index()] |= role::PARTICIPANT;
            }
            roles[target.index()] |= role::SINK;
            if include_costs {
                h.ratio(size);
                h.ratio(task_cost);
            }
        }
        Collective::Prefix { participants, size, task_cost } => {
            h.bytes(b"prefix");
            for (rank, p) in participants.iter().enumerate() {
                roles[p.index()] |= role::PARTICIPANT | (role::RANK_BASE * (rank as u64 + 1));
            }
            if include_costs {
                h.ratio(size);
                h.ratio(task_cost);
            }
        }
    }
    h.word(canonical_platform_hash(&query.platform, &roles, include_costs));
    Fingerprint(h.finish())
}

/// Returns a copy of `platform` with node `i` renumbered to `perm[i]`
/// (`perm` must be a permutation of `0..num_nodes`); edges follow their
/// endpoints, costs and speeds are unchanged.
///
/// This is the relabeling the fingerprint is invariant under; it is exposed
/// for tests, examples and benchmarks.
pub fn permuted_platform(platform: &Platform, perm: &[usize]) -> Platform {
    assert_eq!(perm.len(), platform.num_nodes(), "perm must cover every node");
    let mut inverse = vec![usize::MAX; perm.len()];
    for (old, &new) in perm.iter().enumerate() {
        assert!(new < perm.len() && inverse[new] == usize::MAX, "perm must be a permutation");
        inverse[new] = old;
    }
    let mut out = Platform::new();
    for &old in &inverse {
        let node = platform.node(NodeId(old));
        out.add_node(node.name.clone(), node.speed.clone());
    }
    for e in platform.edge_ids() {
        let edge = platform.edge(e);
        out.add_edge(
            NodeId(perm[edge.from.index()]),
            NodeId(perm[edge.to.index()]),
            edge.cost.clone(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use steady_platform::generators::figure2;
    use steady_rational::rat;

    fn scatter_query() -> Query {
        let instance = figure2();
        Query {
            platform: instance.platform,
            collective: Collective::Scatter { source: instance.source, targets: instance.targets },
        }
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let q = scatter_query();
        assert_eq!(fingerprint(&q), fingerprint(&q));
    }

    #[test]
    fn permutation_preserves_fingerprint() {
        let q = scatter_query();
        // Rotate all five node indices.
        let perm = [1, 2, 3, 4, 0];
        let platform = permuted_platform(&q.platform, &perm);
        let Collective::Scatter { source, targets } = &q.collective else { unreachable!() };
        let permuted = Query {
            platform,
            collective: Collective::Scatter {
                source: NodeId(perm[source.index()]),
                targets: targets.iter().map(|t| NodeId(perm[t.index()])).collect(),
            },
        };
        assert_eq!(fingerprint(&q), fingerprint(&permuted));
    }

    #[test]
    fn role_changes_change_fingerprint() {
        let q = scatter_query();
        let Collective::Scatter { source, targets } = &q.collective else { unreachable!() };
        // Dropping one target is a different query.
        let fewer = Query {
            platform: q.platform.clone(),
            collective: Collective::Scatter { source: *source, targets: targets[..1].to_vec() },
        };
        assert_ne!(fingerprint(&q), fingerprint(&fewer));
    }

    #[test]
    fn target_order_is_irrelevant_but_prefix_rank_order_is_not() {
        let q = scatter_query();
        let Collective::Scatter { source, targets } = &q.collective else { unreachable!() };
        let mut reversed_targets = targets.clone();
        reversed_targets.reverse();
        let reversed = Query {
            platform: q.platform.clone(),
            collective: Collective::Scatter { source: *source, targets: reversed_targets },
        };
        assert_eq!(fingerprint(&q), fingerprint(&reversed));

        let participants = vec![NodeId(0), NodeId(1), NodeId(2)];
        let mut swapped = participants.clone();
        swapped.swap(0, 2);
        let prefix = |participants: Vec<NodeId>| Query {
            platform: q.platform.clone(),
            collective: Collective::Prefix { participants, size: rat(1, 1), task_cost: rat(1, 1) },
        };
        assert_ne!(fingerprint(&prefix(participants)), fingerprint(&prefix(swapped)));
    }

    #[test]
    fn scalar_parameters_reach_the_fingerprint() {
        let platform = figure2().platform;
        let reduce = |size: Ratio| Query {
            platform: platform.clone(),
            collective: Collective::Reduce {
                participants: vec![NodeId(0), NodeId(3)],
                target: NodeId(0),
                size,
                task_cost: rat(1, 1),
            },
        };
        assert_ne!(fingerprint(&reduce(rat(1, 1))), fingerprint(&reduce(rat(2, 1))));
    }

    #[test]
    fn wl_blind_spot_k33_vs_prism_is_separated() {
        // K_{3,3} and the triangular prism are the classic non-isomorphic
        // 3-regular pair that plain 1-WL refinement cannot distinguish; with
        // uniform speeds/costs and fully symmetric roles the refinement
        // colors coincide, so separation must come from the triangle counts.
        let uniform = |edges: &[(usize, usize)]| {
            let mut p = Platform::new();
            let nodes: Vec<_> = (0..6).map(|i| p.add_node(format!("n{i}"), rat(1, 1))).collect();
            for &(a, b) in edges {
                p.add_link(nodes[a], nodes[b], rat(1, 1));
            }
            p
        };
        let k33 =
            uniform(&[(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]);
        let prism =
            uniform(&[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]);
        let all: Vec<NodeId> = (0..6).map(NodeId).collect();
        let symmetric = |platform: Platform| Query {
            platform,
            collective: Collective::Gossip { sources: all.clone(), targets: all.clone() },
        };
        assert_ne!(fingerprint(&symmetric(k33)), fingerprint(&symmetric(prism)));
    }

    #[test]
    fn structural_fingerprint_is_cost_blind_but_shape_sensitive() {
        let base = scatter_query();
        // Scale every edge cost: the exact fingerprint changes, the structural
        // one does not — the two queries are one warm-start class.
        let mut drifted_platform = Platform::new();
        for id in base.platform.node_ids() {
            let node = base.platform.node(id);
            drifted_platform.add_node(node.name.clone(), node.speed.clone());
        }
        for id in base.platform.edge_ids() {
            let e = base.platform.edge(id);
            drifted_platform.add_edge(e.from, e.to, &e.cost * &rat(3, 7));
        }
        let drifted = Query { platform: drifted_platform, collective: base.collective.clone() };
        assert_ne!(fingerprint(&base), fingerprint(&drifted));
        assert_eq!(structural_fingerprint(&base), structural_fingerprint(&drifted));
        // The structural and exact keyspaces are domain-separated.
        assert_ne!(structural_fingerprint(&base), fingerprint(&base));

        // Dropping a target changes the roles, hence the structural class.
        let Collective::Scatter { source, targets } = &base.collective else { unreachable!() };
        let fewer = Query {
            platform: base.platform.clone(),
            collective: Collective::Scatter { source: *source, targets: targets[..1].to_vec() },
        };
        assert_ne!(structural_fingerprint(&base), structural_fingerprint(&fewer));
    }

    #[test]
    fn structural_fingerprint_blinds_reduce_scalars_and_survives_permutation() {
        let platform = figure2().platform;
        let reduce = |size: Ratio| Query {
            platform: platform.clone(),
            collective: Collective::Reduce {
                participants: vec![NodeId(0), NodeId(3)],
                target: NodeId(0),
                size,
                task_cost: rat(1, 1),
            },
        };
        assert_eq!(
            structural_fingerprint(&reduce(rat(1, 1))),
            structural_fingerprint(&reduce(rat(5, 1)))
        );

        let q = scatter_query();
        let perm = [2, 0, 4, 1, 3];
        let Collective::Scatter { source, targets } = &q.collective else { unreachable!() };
        let permuted = Query {
            platform: permuted_platform(&q.platform, &perm),
            collective: Collective::Scatter {
                source: NodeId(perm[source.index()]),
                targets: targets.iter().map(|t| NodeId(perm[t.index()])).collect(),
            },
        };
        assert_eq!(structural_fingerprint(&q), structural_fingerprint(&permuted));
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn permuted_platform_rejects_non_permutations() {
        let platform = figure2().platform;
        let _ = permuted_platform(&platform, &[0, 0, 1, 2, 3]);
    }
}
