//! Property tests of the revised sparse simplex on its own.
//!
//! Cold from the triangular crash basis, the flow LPs in the shape of the
//! paper's `SSSP(G)` never reach phase 1, and the optimum they reach is
//! proved exactly by its own primal/dual pair and re-proved with zero pivots
//! from its own basis.  Below the solver, the sparse LU itself is held to
//! exact `B·ftran(b) = b` and `Bᵀ·btran(c) = c` on bases that exercise both
//! of its passes.  Parity with the dense tableau oracle is property-tested
//! beside the oracle, in the crate's unit tests.

use proptest::prelude::*;
use steady_lp::{
    check_optimal, solve_exact, solve_exact_auto, solve_revised_report_observed, CscMatrix,
    LinearExpr, LpProblem, NoopObserver, RecordingObserver, RevisedOptions, Sense, SolveEvent,
    SolvePhase, SparseLu,
};
use steady_rational::{rat, Ratio};

/// What the cold crash start found, and whether phase 1 ran after it.
fn crash_report(lp: &LpProblem) -> (usize, usize, bool) {
    let mut rec = RecordingObserver::unbounded();
    let _ =
        solve_revised_report_observed::<Ratio, _>(lp, None, &RevisedOptions::default(), &mut rec);
    let events = rec.finish().events;
    let crash = events.iter().find_map(|e| match e.event {
        SolveEvent::CrashStart { open_rows, covered } => Some((open_rows, covered)),
        _ => None,
    });
    let (open_rows, covered) = crash.expect("a cold revised solve reports its crash");
    let phase1 =
        events.iter().any(|e| e.event == SolveEvent::PhaseStarted { phase: SolvePhase::Phase1 });
    (open_rows, covered, phase1)
}

/// A small multi-commodity flow LP in the shape of the paper's `SSSP(G)`:
/// every commodity ships `tp` from node 0 to its own sink over a weakly
/// connected random digraph; conservation `= 0` at every other node,
/// delivery `= 0` against `tp` at the sink, one-port capacity `<= 1` per
/// node and direction.
#[derive(Debug, Clone)]
struct FlowLp {
    nodes: usize,
    /// `(tail, head, cost)`; the first `nodes - 1` edges form a spanning tree.
    edges: Vec<(usize, usize, i64)>,
    sinks: Vec<usize>,
}

fn flow_lp_strategy() -> impl Strategy<Value = FlowLp> {
    (3usize..7, 1usize..4).prop_flat_map(|(nodes, commodities)| {
        // Node i > 0 hangs off a lower node, in a random direction.
        let tree = proptest::collection::vec((0usize..64, any::<bool>(), 1i64..6), nodes - 1);
        let extra = proptest::collection::vec((0..nodes, 0..nodes, 1i64..6), 0..6);
        let sinks = proptest::collection::vec(1..nodes, commodities);
        (tree, extra, sinks).prop_map(move |(tree, extra, sinks)| {
            let mut edges: Vec<(usize, usize, i64)> = tree
                .into_iter()
                .enumerate()
                .map(|(i, (pick, down, cost))| {
                    let (child, parent) = (i + 1, pick % (i + 1));
                    if down {
                        (parent, child, cost)
                    } else {
                        (child, parent, cost)
                    }
                })
                .collect();
            edges.extend(extra.into_iter().filter(|(a, b, _)| a != b));
            FlowLp { nodes, edges, sinks }
        })
    })
}

fn build_flow(desc: &FlowLp) -> LpProblem {
    let mut lp = LpProblem::maximize();
    let tp = lp.add_var("tp");
    lp.set_objective(tp, rat(1, 1));
    let flow: Vec<Vec<_>> = (0..desc.sinks.len())
        .map(|k| (0..desc.edges.len()).map(|e| lp.add_var(format!("f{k}_{e}"))).collect())
        .collect();
    for (k, &sink) in desc.sinks.iter().enumerate() {
        for node in 1..desc.nodes {
            let mut e = LinearExpr::new();
            for (i, &(tail, head, _)) in desc.edges.iter().enumerate() {
                if head == node {
                    e.add_term(flow[k][i], rat(1, 1));
                } else if tail == node {
                    e.add_term(flow[k][i], rat(-1, 1));
                }
            }
            if node == sink {
                e.add_term(tp, rat(-1, 1));
            }
            lp.add_constraint(format!("cons{k}_{node}"), e, Sense::Eq, rat(0, 1));
        }
    }
    for node in 0..desc.nodes {
        let (mut out, mut inn) = (LinearExpr::new(), LinearExpr::new());
        for (i, &(tail, head, cost)) in desc.edges.iter().enumerate() {
            for per_commodity in &flow {
                if tail == node {
                    out.add_term(per_commodity[i], rat(cost, 1));
                }
                if head == node {
                    inn.add_term(per_commodity[i], rat(cost, 1));
                }
            }
        }
        for (name, e) in [("out", out), ("in", inn)] {
            if !e.is_empty() {
                lp.add_constraint(format!("{name}{node}"), e, Sense::Le, rat(1, 1));
            }
        }
    }
    lp
}

/// A basis in the two shapes `SparseLu::factorize` takes apart: a chain of
/// `t` columns, each with a diagonal entry and a link into the row of the one
/// before (so the chain retires singleton by singleton), then a `k × k`
/// nucleus that is column diagonally dominant (so it is nonsingular) and may
/// reach into the chain's rows.  Rows and basis positions are shuffled.
#[derive(Debug, Clone)]
struct ChainBasis {
    /// The basis columns, then one empty column.
    columns: Vec<Vec<(usize, Ratio)>>,
    /// Column of each basis position.
    basis: Vec<usize>,
    /// A right-hand side for FTRAN and one for BTRAN.
    b: Vec<Ratio>,
    c: Vec<Ratio>,
}

/// The permutation that sorts `keys` (ties by index).
fn argsort(keys: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&i| (keys[i], i));
    order
}

fn chain_basis_strategy() -> impl Strategy<Value = ChainBasis> {
    (0usize..8, 0usize..=5).prop_flat_map(|(t, k)| {
        let t = if k == 0 { t.max(1) } else { t };
        let m = t + k;
        let shuffles = (
            proptest::collection::vec(any::<u64>(), m),
            proptest::collection::vec(any::<u64>(), m),
        );
        let chain = (
            proptest::collection::vec((1i64..5, any::<bool>()), t),
            proptest::collection::vec(-3i64..=3, t),
        );
        let nucleus = (
            proptest::collection::vec(-3i64..=3, k * k),
            proptest::collection::vec(-2i64..=2, k * t),
        );
        let sides =
            (proptest::collection::vec(-5i64..=5, m), proptest::collection::vec(-5i64..=5, m));
        (shuffles, chain, nucleus, sides).prop_map(
            move |((row_keys, pos_keys), (diag, link), (off, reach), (b, c))| {
                let row = argsort(&row_keys);
                let mut columns: Vec<Vec<(usize, Ratio)>> = Vec::with_capacity(m + 1);
                for j in 0..t {
                    let (d, negative) = diag[j];
                    let mut col = vec![(row[j], rat(if negative { -d } else { d }, 1))];
                    if j > 0 && link[j] != 0 {
                        col.push((row[j - 1], rat(link[j], 1)));
                    }
                    columns.push(col);
                }
                for q in 0..k {
                    let mut col: Vec<(usize, Ratio)> = (0..t)
                        .filter(|&i| reach[q * t + i] != 0)
                        .map(|i| (row[i], rat(reach[q * t + i], 1)))
                        .collect();
                    let weight: i64 =
                        (0..k).filter(|&i| i != q).map(|i| off[q * k + i].abs()).sum();
                    for i in 0..k {
                        let v = if i == q { weight + 1 } else { off[q * k + i] };
                        if v != 0 {
                            col.push((row[t + i], rat(v, 1)));
                        }
                    }
                    columns.push(col);
                }
                for col in &mut columns {
                    col.sort_by_key(|&(r, _)| r);
                }
                columns.push(Vec::new());
                let to_ratios = |v: Vec<i64>| v.into_iter().map(|x| rat(x, 1)).collect();
                ChainBasis { columns, basis: argsort(&pos_keys), b: to_ratios(b), c: to_ratios(c) }
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solves_chain_and_nucleus_bases_exactly(desc in chain_basis_strategy()) {
        let m = desc.basis.len();
        let a = CscMatrix::from_columns(m, desc.columns.clone());
        let lu = SparseLu::factorize(&a, &desc.basis).expect("nonsingular by construction");
        prop_assert_eq!(lu.dim(), m);

        // B · ftran(b) == b, column by column.
        let x = lu.ftran(desc.b.clone());
        let mut bx = vec![Ratio::zero(); m];
        for (pos, &col) in desc.basis.iter().enumerate() {
            for (r, v) in a.col(col) {
                bx[r] = &bx[r] + &(v * &x[pos]);
            }
        }
        prop_assert_eq!(&bx, &desc.b);

        // Bᵀ · btran(c) == c, one basis column at a time.
        let y = lu.btran(desc.c.clone());
        let bty: Vec<Ratio> = desc
            .basis
            .iter()
            .map(|&col| a.col(col).fold(Ratio::zero(), |acc, (r, v)| &acc + &(v * &y[r])))
            .collect();
        prop_assert_eq!(&bty, &desc.c);

        // The empty column, or any column twice, makes the basis singular.
        let mut with_zero = desc.basis.clone();
        with_zero[m / 2] = m;
        prop_assert!(SparseLu::factorize(&a, &with_zero).is_none());
        if m > 1 {
            let mut repeated = desc.basis.clone();
            repeated[0] = repeated[m - 1];
            prop_assert!(SparseLu::factorize(&a, &repeated).is_none());
        }
    }

    #[test]
    fn crash_covers_every_conservation_row_of_a_flow_lp(desc in flow_lp_strategy()) {
        // The digraph is weakly connected and node 0 has no row, so the
        // cascade that starts at node 0's edges reaches every node of every
        // commodity: no artificial is left for phase 1 or for drive-out.
        let lp = build_flow(&desc);
        let (open_rows, covered, phase1) = crash_report(&lp);
        prop_assert_eq!(open_rows, desc.sinks.len() * (desc.nodes - 1));
        prop_assert_eq!(covered, open_rows);
        prop_assert!(!phase1);

        // The `f64` route's certified optimum is the reference.
        let reference = solve_exact_auto(&lp).unwrap().objective;
        let revised = solve_exact(&lp).unwrap();
        prop_assert_eq!(revised.phase1_iterations, 0);
        prop_assert_eq!(&revised.objective, &reference);
        prop_assert_eq!(
            check_optimal(&lp, &revised.values, &revised.duals),
            Ok(reference.clone())
        );
        let (warm, _) = solve_revised_report_observed::<Ratio, _>(
            &lp,
            Some(&revised.basis),
            &RevisedOptions::default(),
            &mut NoopObserver,
        )
        .unwrap();
        prop_assert!(warm.warm_started);
        prop_assert_eq!(warm.iterations, 0);
        prop_assert_eq!(&warm.objective, &reference);
    }
}
