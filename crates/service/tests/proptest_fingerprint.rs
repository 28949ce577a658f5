//! Property tests for the canonical fingerprint.
//!
//! The cache key contract: applying any node permutation to a random
//! connected platform (and renaming the query's roles accordingly) must not
//! change the fingerprint — and the permuted query must be served from the
//! cache with the exact same throughput — while perturbing a single edge
//! cost must change the fingerprint.
//!
//! The values themselves are pinned too (`GOLDEN_MIX`, `GOLDEN_WIDE_COSTS`):
//! persisted snapshots key on them, so a build that computes a different
//! fingerprint for the same query silently orphans every snapshot written
//! before it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use steady_platform::generators::{random_connected, RandomConfig};
use steady_platform::{EdgeId, NodeId, Platform};
use steady_rational::{rat, Ratio};
use steady_service::{
    fingerprint, permuted_platform, query_mix, structural_fingerprint, Collective, Query,
    ServedVia, Service, ServiceConfig,
};

/// A random connected 6-node platform, deterministic in `seed`.
fn platform_for(seed: u64) -> Platform {
    let config = RandomConfig { nodes: 6, ..RandomConfig::default() };
    random_connected(&config, &mut StdRng::seed_from_u64(seed))
}

/// A random permutation of `0..n`, deterministic in `seed` (Fisher–Yates).
fn permutation_for(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    perm
}

/// A scatter query on `platform` from node 0 to nodes 1 and 2.
fn scatter_query(platform: Platform) -> Query {
    Query {
        platform,
        collective: Collective::Scatter { source: NodeId(0), targets: vec![NodeId(1), NodeId(2)] },
    }
}

/// The same query with every node id mapped through `perm`.
fn permuted_query(query: &Query, perm: &[usize]) -> Query {
    let map = |id: &NodeId| NodeId(perm[id.index()]);
    let map_all = |ids: &[NodeId]| ids.iter().map(map).collect::<Vec<_>>();
    let collective = match &query.collective {
        Collective::Scatter { source, targets } => {
            Collective::Scatter { source: map(source), targets: map_all(targets) }
        }
        Collective::Gather { sources, sink } => {
            Collective::Gather { sources: map_all(sources), sink: map(sink) }
        }
        Collective::Gossip { sources, targets } => {
            Collective::Gossip { sources: map_all(sources), targets: map_all(targets) }
        }
        Collective::Reduce { participants, target, size, task_cost } => Collective::Reduce {
            participants: map_all(participants),
            target: map(target),
            size: size.clone(),
            task_cost: task_cost.clone(),
        },
        Collective::Prefix { participants, size, task_cost } => Collective::Prefix {
            participants: map_all(participants),
            size: size.clone(),
            task_cost: task_cost.clone(),
        },
    };
    Query { platform: permuted_platform(&query.platform, perm), collective }
}

/// Rebuilds `platform` with the cost of edge `edge` replaced by `cost`
/// (the platform's fields are private, so perturbation goes through a copy).
fn with_edge_cost(platform: &Platform, edge: EdgeId, cost: Ratio) -> Platform {
    let mut out = Platform::new();
    for id in platform.node_ids() {
        let node = platform.node(id);
        out.add_node(node.name.clone(), node.speed.clone());
    }
    for id in platform.edge_ids() {
        let e = platform.edge(id);
        let c = if id == edge { cost.clone() } else { e.cost.clone() };
        out.add_edge(e.from, e.to, c);
    }
    out
}

/// `(exact, structural)` fingerprints of `query_mix(40, seed)`, in pool order,
/// as computed at the commit before the fingerprint became allocation-free
/// (PR 12, `afb89a7`).
#[rustfmt::skip]
const GOLDEN_MIX: &[(u64, &[(u64, u64)])] = &[
    (
        1,
        &[
            (0xf6eb9b182d9ce452, 0xcddbb666d1935cdf),
            (0x07c2685c314a209d, 0x01ca4cb9a4be711e),
            (0x81cdfef726c8245a, 0x0c7e21addeb44c7c),
            (0x9409c895e2369587, 0x34837b174d01f39a),
            (0x9190b68c8cb2cefd, 0xa9f8ddfda9ecf5e7),
            (0x99018d6a09a447e6, 0x623378413e8a5a3e),
            (0x0052c41b328de4d9, 0xf5bb8de40a8427d3),
            (0xedd39c9cc78a8dea, 0xa531906bdb8091d7),
            (0xb075aa881f35ab51, 0x2b1a808809be2b6d),
            (0x05d0f7b1613795ce, 0xa531906bdb8091d7),
            (0xb4f8c2d88b63523d, 0xa531906bdb8091d7),
            (0x6e2acb8aa5cae8e8, 0xd7465c77aa8aaff9),
            (0xe505518cc4b3c1d0, 0x690e3ca96af82837),
            (0x6ef2affcdb76bf0d, 0x33afc0b02cb36c94),
            (0xadfb993fe908f7c5, 0xf5bb8de40a8427d3),
            (0x09b298c232d99d6d, 0xa531906bdb8091d7),
            (0x0d502b2f489bb005, 0x2b1a808809be2b6d),
            (0x17af22f09f6ffe82, 0xa531906bdb8091d7),
            (0x08b943de11fbb5db, 0x2b1a808809be2b6d),
            (0x6f8202d99fc59485, 0x74e9346db0cccfe2),
            (0xb9e6d844ac4ad589, 0x0c89e624950d2586),
            (0xce59c4aef6c8b369, 0xd5c4393d9f908b90),
            (0x09ac115e38971d47, 0xf5bb8de40a8427d3),
            (0xbcc710f6c8e2b7d6, 0xa531906bdb8091d7),
            (0x2a4bcd6fa57ecb75, 0x2b1a808809be2b6d),
            (0xb363906f9db24772, 0xa531906bdb8091d7),
            (0x567c019e0f569ff3, 0x92175baad30cbd4b),
            (0x48bd7b668556165b, 0x34837b174d01f39a),
            (0x869965e898bbecff, 0xc095fdae01da096a),
            (0x50f57a33bba2742e, 0x043c00f1aadba7e3),
            (0x47893b648f916ef0, 0xf5bb8de40a8427d3),
            (0xfe135063daa1c977, 0xa531906bdb8091d7),
            (0x188d7bb6238984c1, 0x2b1a808809be2b6d),
        ],
    ),
    (
        42,
        &[
            (0xf6eb9b182d9ce452, 0xcddbb666d1935cdf),
            (0x07c2685c314a209d, 0x01ca4cb9a4be711e),
            (0x81cdfef726c8245a, 0x0c7e21addeb44c7c),
            (0x5597c6ee3ade495e, 0x34837b174d01f39a),
            (0x706983b83fec6988, 0x19129a0cf9758b88),
            (0xe3414bdad7eeae5a, 0xd6dcc393ef455296),
            (0xf50d54d0e04ff3c6, 0xf5bb8de40a8427d3),
            (0xedd39c9cc78a8dea, 0xa531906bdb8091d7),
            (0xf35436f19421b4f6, 0x2b1a808809be2b6d),
            (0x05d0f7b1613795ce, 0xa531906bdb8091d7),
            (0x3e6cea153837847a, 0xa531906bdb8091d7),
            (0xbe9f45833831309e, 0xd7465c77aa8aaff9),
            (0xeea7139dd78d0898, 0x690e3ca96af82837),
            (0xef48507cfc76b554, 0x0f2550737b701ab0),
            (0x117fd274a5830c33, 0xf5bb8de40a8427d3),
            (0x09b298c232d99d6d, 0xa531906bdb8091d7),
            (0x0d6e91045ff84932, 0x2b1a808809be2b6d),
            (0x8718f25aacd711f9, 0xa531906bdb8091d7),
            (0x3bc2fec5dd992103, 0x2b1a808809be2b6d),
            (0xfd4d2bc6189579d6, 0x74e9346db0cccfe2),
            (0xbedc25044341d777, 0x69cb0c4743c20126),
            (0xcdfca8d3917e1992, 0xd5c4393d9f908b90),
            (0x682dea9196cdf80b, 0xf5bb8de40a8427d3),
            (0xbcc710f6c8e2b7d6, 0xa531906bdb8091d7),
            (0x907d78618954ff4b, 0x2b1a808809be2b6d),
            (0x142da7e72edb973e, 0xa531906bdb8091d7),
            (0x274d7ac7731591cb, 0x92175baad30cbd4b),
            (0xeec9f164fe246de9, 0x34837b174d01f39a),
            (0xa47ef9316816fab7, 0x23f4db6bcda038ca),
            (0x665518061c6c0901, 0xc7d5106792b85df0),
            (0x66baca8190c11ae9, 0xf5bb8de40a8427d3),
            (0xfe135063daa1c977, 0xa531906bdb8091d7),
            (0x1145d0456e7459a1, 0x2b1a808809be2b6d),
            (0x0e051fc041b98578, 0xa531906bdb8091d7),
        ],
    ),
    (
        2026,
        &[
            (0xf6eb9b182d9ce452, 0xcddbb666d1935cdf),
            (0x07c2685c314a209d, 0x01ca4cb9a4be711e),
            (0xc741959754ef8dc8, 0x0c7e21addeb44c7c),
            (0x6fe83a392b0321be, 0x34837b174d01f39a),
            (0x3f1df9565d70c853, 0x2f492c5bb9d860a0),
            (0x28d391469d53efc7, 0xd6dcc393ef455296),
            (0x727957bfc8842eea, 0xf5bb8de40a8427d3),
            (0xedd39c9cc78a8dea, 0xa531906bdb8091d7),
            (0xa3f40b082cf2fe8a, 0x2b1a808809be2b6d),
            (0x05d0f7b1613795ce, 0xa531906bdb8091d7),
            (0x31269619161b384c, 0xa531906bdb8091d7),
            (0x52e17792e1cec6a5, 0xd7465c77aa8aaff9),
            (0xdb4d1c5eebdf3cd6, 0x5c9bcbbb31c32701),
            (0xfd35b0e6452f86a6, 0x57a7448ac74fe4ac),
            (0x443d0b92d3e1d11a, 0xf5bb8de40a8427d3),
            (0x09b298c232d99d6d, 0xa531906bdb8091d7),
            (0xa62cb0f3da1620cd, 0x2b1a808809be2b6d),
            (0xb54f0ef472bfe5f1, 0x2b1a808809be2b6d),
            (0x3832c42d98ab7b1e, 0x74e9346db0cccfe2),
            (0xd454703084b8e557, 0x5c9bcbbb31c32701),
            (0xfbfc231688d571ee, 0x2a5b0061f681f6dc),
            (0x8d14978e2d4fb67b, 0xf5bb8de40a8427d3),
            (0xbcc710f6c8e2b7d6, 0xa531906bdb8091d7),
            (0xde643ba29503d982, 0x2b1a808809be2b6d),
            (0x817bac4684fd7eb4, 0x92175baad30cbd4b),
            (0x8ea1960add542f17, 0x34837b174d01f39a),
            (0x5d163df55c391eba, 0x23f4db6bcda038ca),
            (0xed6f898b42cb02d9, 0xe9f32869d511b9cb),
            (0x355e9ce45685b2c3, 0xf5bb8de40a8427d3),
            (0xfe135063daa1c977, 0xa531906bdb8091d7),
            (0x85d5d452d28e14d4, 0x2b1a808809be2b6d),
            (0x74a6617e07ece0b7, 0xa531906bdb8091d7),
        ],
    ),
];

/// `(cost of Figure 2's first edge, exact, structural)` for costs whose
/// numerator needs two limbs (`u64::MAX + 2`, the general decimal rendering)
/// and sits exactly on the one-limb boundary (`u64::MAX`), from the same
/// commit as `GOLDEN_MIX`.
const GOLDEN_WIDE_COSTS: [(&str, u64, u64); 2] = [
    ("18446744073709551617/3", 0x75c1bc3f31528491, 0xcddbb666d1935cdf),
    ("18446744073709551615/2", 0xf164252e6c5f497c, 0xcddbb666d1935cdf),
];

#[test]
fn fingerprints_match_the_values_older_snapshots_were_keyed_on() {
    for &(seed, expected) in GOLDEN_MIX {
        let mix = query_mix(40, seed);
        assert_eq!(mix.len(), expected.len(), "seed {seed}: the pool itself changed");
        for (i, (query, &(exact, structural))) in mix.iter().zip(expected).enumerate() {
            assert_eq!(fingerprint(query).0, exact, "seed {seed} query {i}: exact");
            assert_eq!(structural_fingerprint(query).0, structural, "seed {seed} query {i}");
        }
    }
    let figure2 = steady_platform::generators::figure2();
    for (cost, exact, structural) in GOLDEN_WIDE_COSTS {
        let cost: Ratio = cost.parse().expect("a literal ratio");
        assert_eq!(cost.to_string().parse::<Ratio>().expect("round trip"), cost);
        let query = Query {
            platform: with_edge_cost(&figure2.platform, EdgeId(0), cost.clone()),
            collective: Collective::Scatter {
                source: figure2.source,
                targets: figure2.targets.clone(),
            },
        };
        assert_eq!(fingerprint(&query).0, exact, "edge cost {cost}: exact");
        assert_eq!(structural_fingerprint(&query).0, structural, "edge cost {cost}: structural");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn permuting_nodes_preserves_fingerprint_and_cached_throughput(
        seed in 0u64..10_000,
        perm_seed in 0u64..10_000,
    ) {
        let query = scatter_query(platform_for(seed));
        let perm = permutation_for(query.platform.num_nodes(), perm_seed);
        let permuted = permuted_query(&query, &perm);
        prop_assert_eq!(fingerprint(&query), fingerprint(&permuted));

        // The isomorphic query must be answered from the cache, with the
        // exact same rational throughput the cold solve produced.
        let service = Service::start(ServiceConfig { workers: 2, ..ServiceConfig::default() });
        let cold = service.query(query).expect("cold solve succeeds");
        prop_assert_eq!(cold.via, ServedVia::Solve);
        let cached = service.query(permuted).expect("isomorphic query succeeds");
        prop_assert_eq!(cached.via, ServedVia::Cache);
        prop_assert_eq!(&cached.answer.throughput, &cold.answer.throughput);
        prop_assert_eq!(service.stats().solves, 1);
    }

    #[test]
    fn perturbing_one_edge_cost_changes_fingerprint(
        seed in 0u64..10_000,
        edge_index in 0usize..64,
    ) {
        let query = scatter_query(platform_for(seed));
        let edge = EdgeId(edge_index % query.platform.num_edges());
        let old_cost = query.platform.edge(edge).cost.clone();
        let perturbed = Query {
            platform: with_edge_cost(&query.platform, edge, old_cost + rat(1, 1)),
            collective: query.collective.clone(),
        };
        prop_assert_ne!(fingerprint(&query), fingerprint(&perturbed));
    }
}
