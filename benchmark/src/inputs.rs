//! Seeded input generation and the input digest.
//!
//! The benchmark builds every input itself, from `--seed`, out of the
//! program's platform generators and `DriftModel`; the program only ever
//! receives the generated queries.  A canonical text dump of what was
//! generated is hashed with the benchmark's own hasher (not the program's
//! fingerprint), so a later change to a generator or to the drift walk cannot
//! silently change the load: for seed 42 the digest is pinned in
//! [`SEED_42_DIGESTS`] and a run that does not reproduce it refuses to
//! report.

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::probe::{
    clustered_scatter_instance, figure2, figure6, heterogeneous_star, random_connected, rat, star,
    tiers, ClusteredConfig, Collective, DriftConfig, DriftModel, NodeId, Platform, Query,
    RandomConfig, Ratio, Rng, ScatterInstance, SeedableRng, StdRng, TiersConfig,
};

/// Distinct queries in the hit pool.
pub const HIT_POOL: usize = 24;
/// Distinct queries in the cold pool.
pub const COLD_POOL: usize = 156;
/// Scale instances at full size.
pub const SCALE_INSTANCES: usize = 5;

/// The seed whose digests are pinned.
pub const PINNED_SEED: u64 = 42;

/// `(workload, digest)` of the inputs generated from [`PINNED_SEED`].
pub const SEED_42_DIGESTS: [(&str, u64); 4] = [
    ("hit_serve", 0x3966_6881_3818_9b86),
    ("drift_serve", 0x9f47_e028_97bf_c939),
    ("cold_solve", 0x6b97_6f2e_930f_f3ef),
    ("scale_solve", 0x5d65_3600_b8cb_20dd),
];

/// FNV-1a over `text`'s bytes, finished with a 64-bit mix so short dumps
/// still spread over the whole word.
fn hash(text: &str) -> u64 {
    let mut x = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        x = (x ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^ (x >> 33)
}

/// Epochs of drifted queries that enter the drift digest.
const DIGEST_EPOCHS: usize = 8;

/// Digest of the canonical dump of what `workload`'s generators produce for
/// `seed` at full size: the hit pool and a sample of its replay order, the
/// first drift epochs, the cold pool, the scale instances.  It does not depend
/// on `--seconds` or `--smoke`, which only decide how much of it is run.
pub fn input_digest(workload: &str, seed: u64) -> u64 {
    let mut dump = String::new();
    let mut queries =
        |queries: &[Query]| queries.iter().for_each(|q| dump.push_str(&dump_query(q)));
    match workload {
        "hit_serve" => {
            queries(&small_pool(HIT_POOL, seed));
            let _ = write!(dump, "{:?}", replay_order(256, HIT_POOL, seed));
        }
        "drift_serve" => {
            let mut classes = drift_classes(seed);
            for _ in 0..DIGEST_EPOCHS {
                queries(&classes.each_mut().map(DriftClass::next_query));
            }
        }
        "cold_solve" => queries(&small_pool(COLD_POOL, seed)),
        "scale_solve" => {
            let instances = scale_instances(SCALE_INSTANCES, seed);
            queries(&instances.iter().map(scale_query).collect::<Vec<_>>());
        }
        other => panic!("no workload named {other}"),
    }
    hash(&dump)
}

fn dump_nodes(out: &mut String, label: &str, nodes: &[NodeId]) {
    let _ = write!(out, "{label}");
    for node in nodes {
        let _ = write!(out, " {}", node.index());
    }
    out.push('\n');
}

/// Canonical text of a platform: every node's speed and every edge's
/// endpoints and cost, in id order.  Node names are left out — the program
/// ignores them.
pub fn dump_platform(out: &mut String, platform: &Platform) {
    for id in platform.node_ids() {
        let _ = writeln!(out, "n {} {}", id.index(), platform.node(id).speed);
    }
    for id in platform.edge_ids() {
        let edge = platform.edge(id);
        let _ = writeln!(out, "e {} {} {}", edge.from.index(), edge.to.index(), edge.cost);
    }
}

/// Canonical text of a query: platform, collective kind, roles and costs.
pub fn dump_query(query: &Query) -> String {
    let mut out = String::new();
    dump_platform(&mut out, &query.platform);
    match &query.collective {
        Collective::Scatter { source, targets } => {
            dump_nodes(&mut out, "scatter from", &[*source]);
            dump_nodes(&mut out, "to", targets);
        }
        Collective::Gather { sources, sink } => {
            dump_nodes(&mut out, "gather from", sources);
            dump_nodes(&mut out, "to", &[*sink]);
        }
        Collective::Gossip { sources, targets } => {
            dump_nodes(&mut out, "gossip from", sources);
            dump_nodes(&mut out, "to", targets);
        }
        Collective::Reduce { participants, target, size, task_cost } => {
            dump_nodes(&mut out, "reduce of", participants);
            dump_nodes(&mut out, "to", &[*target]);
            let _ = writeln!(out, "size {size} task {task_cost}");
        }
        Collective::Prefix { participants, size, task_cost } => {
            dump_nodes(&mut out, "prefix of", participants);
            let _ = writeln!(out, "size {size} task {task_cost}");
        }
    }
    out
}

fn unit_fractions(from: i64, to: i64) -> Vec<Ratio> {
    (from..=to).map(|d| rat(1, d)).collect()
}

/// The lazier, finer walk of the pool's tenth family: most steps move
/// nothing or one edge.
fn lazy_drift() -> DriftConfig {
    DriftConfig { grid: 16, min_num: 12, max_num: 24, move_probability: 0.15 }
}

/// A random tree of five nodes with random link costs and node speeds.
///
/// The pool's random-graph families use trees only: with extra links the
/// exact simplex's cost on these LPs varies three- to fivefold between cost
/// draws of one topology (a 6-node reduce with two extra links took 2.7 to
/// 12.7 ms), and a handful of such queries would decide every mean; on trees
/// it stays within about ±10 %.
fn random_tree(rng: &mut StdRng) -> Platform {
    let config = RandomConfig { nodes: 5, extra_link_probability: 0.0, ..RandomConfig::default() };
    random_connected(&config, rng)
}

/// How many different members each of the ten pool families has
/// (`usize::MAX`: as many as asked for).  The cost-redraw star has six, but
/// its sixth is the base of the lazy walk, which that walk may hand out first.
const FAMILY_SIZES: [usize; 10] =
    [1, 1, 8, usize::MAX, usize::MAX, usize::MAX, usize::MAX, 5, usize::MAX, usize::MAX];

/// The families take turns filling the pool; the random-tree reduce (5), the
/// heaviest family, takes two slots per turn, so that it makes up the top
/// quarter of the pool by cost and a per-slice p90 lands inside it, among
/// like operations.
const TURN: [usize; 11] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 5];

/// Builds `distinct` different small queries from ten families: the paper's
/// Figure 2 scatter and Figure 6 reduce, uniform star scatters, heterogeneous
/// star gathers, random-tree gossips and reduces, small Tiers reduces, a
/// cost-redraw star, and two star scatters under a default and a lazy drift
/// walk.
///
/// The *shape* of the pool is the same for every seed: which family fills
/// which slot, and each slot's node, leaf and link counts, depend on the slot
/// alone.  The seed draws what is left — wiring, costs, speeds, walks — and a
/// draw that repeats an earlier query (by canonical dump) is redrawn.  Per-
/// query cost is heavy-tailed in the size of the LP, so a pool whose sizes
/// moved with the seed would move every timing with it.
pub fn small_pool(distinct: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let walk_star = heterogeneous_star(&unit_fractions(2, 6));
    let mut walk = DriftModel::new(walk_star.0.clone(), DriftConfig::default(), seed ^ 0xd41f);
    let lazy_star = heterogeneous_star(&unit_fractions(2, 5));
    let mut lazy_walk = DriftModel::new(lazy_star.0.clone(), lazy_drift(), seed ^ 0xf0ca);
    let scatter = |(platform, source, targets): (Platform, NodeId, Vec<NodeId>)| Query {
        platform,
        collective: Collective::Scatter { source, targets },
    };
    let reduce = |platform: Platform, participants: Vec<NodeId>, target: NodeId| Query {
        platform,
        collective: Collective::Reduce {
            participants,
            target,
            size: rat(1, 1),
            task_cost: rat(1, 1),
        },
    };
    let mut draw = |family: usize, variant: usize| match family {
        0 => {
            let instance = figure2();
            scatter((instance.platform, instance.source, instance.targets))
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
        2 => scatter(star(3 + variant % 4, rat(1, rng.gen_range(1i64..=4)))),
        3 => {
            let costs: Vec<Ratio> =
                (0..3 + variant % 3).map(|_| rat(1, rng.gen_range(1i64..=5))).collect();
            let (platform, center, leaves) = heterogeneous_star(&costs);
            Query { platform, collective: Collective::Gather { sources: leaves, sink: center } }
        }
        4 => Query {
            platform: random_tree(&mut rng),
            collective: Collective::Gossip {
                sources: vec![NodeId(0), NodeId(1)],
                targets: vec![NodeId(2), NodeId(3)],
            },
        },
        5 => {
            let platform = random_tree(&mut rng);
            let participants = platform.node_ids().collect();
            reduce(platform, participants, NodeId(0))
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
            reduce(t.platform, t.hosts, target)
        }
        7 => {
            let costs: Vec<Ratio> =
                (0..4).map(|leaf| rat(1, 1 + (variant as i64 * 5 + leaf) % 6)).collect();
            scatter(heterogeneous_star(&costs))
        }
        8 => scatter((walk.step(), walk_star.1, walk_star.2.clone())),
        _ => scatter((lazy_walk.step(), lazy_star.1, lazy_star.2.clone())),
    };

    let mut pool = Vec::with_capacity(distinct);
    let mut seen = HashSet::new();
    let mut taken = [0usize; 10];
    for family in TURN.into_iter().cycle() {
        if pool.len() == distinct {
            break;
        }
        if taken[family] == FAMILY_SIZES[family] {
            continue;
        }
        let variant = taken[family];
        taken[family] += 1;
        let query = (0..64)
            .map(|_| draw(family, variant))
            .find(|query| seen.insert(dump_query(query)))
            .unwrap_or_else(|| panic!("family {family} has no unseen member {variant}"));
        pool.push(query);
    }
    pool
}

/// A seeded replay order over a pool of `pool` queries: `len` indices in
/// which every query appears equally often (to within one), shuffled — the
/// seed moves the order, never the multiset.
pub fn replay_order(len: usize, pool: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0bde);
    let mut order: Vec<u32> = (0..len).map(|i| (i % pool) as u32).collect();
    for i in (1..len).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// One structural class of the drift workload: a fixed star and collective
/// whose edge costs follow a [`DriftModel`] walk.
pub struct DriftClass {
    model: DriftModel,
    roles: Collective,
    /// Walker positions already handed out — a drifted query is never a
    /// repeat of an earlier one, so its first lookup is always a miss.
    seen: HashSet<Vec<i64>>,
}

impl DriftClass {
    fn new(costs: &[Ratio], gather: bool, seed: u64) -> DriftClass {
        let (platform, center, leaves) = heterogeneous_star(costs);
        let roles = if gather {
            Collective::Gather { sources: leaves, sink: center }
        } else {
            Collective::Scatter { source: center, targets: leaves }
        };
        DriftClass {
            model: DriftModel::new(platform, DriftConfig::default(), seed),
            roles,
            seen: HashSet::new(),
        }
    }

    /// Steps the walk to a position never handed out before and returns the
    /// query on the drifted platform.
    pub fn next_query(&mut self) -> Query {
        loop {
            let platform = self.model.step();
            if self.seen.insert(self.model.walkers().to_vec()) {
                return Query { platform, collective: self.roles.clone() };
            }
        }
    }
}

/// The drift workload's three structural classes: a 5-leaf star scatter, a
/// 3-leaf star gather and a 4-leaf star scatter, each on its own walk.
pub fn drift_classes(seed: u64) -> [DriftClass; 3] {
    [
        DriftClass::new(&unit_fractions(2, 6), false, seed ^ 0xa5a5),
        DriftClass::new(&unit_fractions(2, 4), true, seed ^ 0x5a5a),
        DriftClass::new(&unit_fractions(3, 6), false, seed ^ 0x3c3c),
    ]
}

/// Targets of every scale instance.
const SCALE_TARGETS: usize = 8;
/// Requested node count of every scale instance (14 clusters of 14: 196).
const SCALE_NODES: usize = 200;
/// Directed edges of every scale instance: 182 access links, the 14-router
/// backbone cycle and 4 chords, each in both directions — a 3201 x 1960 LP.
/// The generator draws 0 to 14 chords; instances with another count are
/// skipped, so that the seed does not move the size of the LP.
const SCALE_EDGES: usize = 400;

/// The first `count` clustered 200-node scatter instances of the size above
/// among those seeded `seed`, `seed + 1`, …
pub fn scale_instances(count: usize, seed: u64) -> Vec<ScatterInstance> {
    let config = ClusteredConfig::with_total_nodes(SCALE_NODES);
    (0u64..)
        .map(|i| clustered_scatter_instance(&config, SCALE_TARGETS, seed.wrapping_add(i)))
        .filter(|instance| instance.platform.num_edges() == SCALE_EDGES)
        .take(count)
        .collect()
}

/// A scale instance as a query (for dumping and fingerprinting).
pub fn scale_query(instance: &ScatterInstance) -> Query {
    Query {
        platform: instance.platform.clone(),
        collective: Collective::Scatter {
            source: instance.source,
            targets: instance.targets.clone(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_are_distinct_and_repeat_for_a_seed() {
        let a = small_pool(40, 7);
        let b = small_pool(40, 7);
        let dumps: HashSet<String> = a.iter().map(dump_query).collect();
        assert_eq!(dumps.len(), 40);
        assert!(a.iter().zip(&b).all(|(x, y)| dump_query(x) == dump_query(y)));
        assert_ne!(dump_query(&a[5]), dump_query(&small_pool(40, 8)[5]));
    }

    #[test]
    fn drifted_queries_never_repeat() {
        let mut classes = drift_classes(3);
        let mut seen = HashSet::new();
        for _ in 0..2000 {
            assert!(seen.insert(dump_query(&classes[1].next_query())));
        }
    }

    #[test]
    fn digest_depends_on_every_byte_and_on_the_seed() {
        assert_eq!(hash("e 0 1 1/2"), hash("e 0 1 1/2"));
        assert_ne!(hash("e 0 1 1/2"), hash("e 0 1 1/3"));
        assert_eq!(input_digest("drift_serve", 3), input_digest("drift_serve", 3));
        assert_ne!(input_digest("drift_serve", 3), input_digest("drift_serve", 4));
    }
}
