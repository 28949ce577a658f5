//! Sparse data structures shared by the revised simplex
//! ([`crate::revised`]).
//!
//! The steady-state collective LPs are overwhelmingly sparse — each
//! constraint row touches one node's in/out edges, so a column carries a
//! handful of nonzeros regardless of platform size.  A dense tableau (the
//! tests' oracle in [`crate::simplex`]) stores and updates all `m · n`
//! entries anyway; the revised simplex instead keeps the constraint matrix in the compressed
//! sparse column form defined here and only ever factorizes the `m × m`
//! basis.
//!
//! Two things live in this module:
//!
//! * [`CscMatrix`] — a compressed-sparse-column matrix over any
//!   [`Scalar`], the read-only coefficient storage of the revised solver
//!   (and of the kernel micro-benchmarks);
//! * `StandardForm` (crate-private) — the equality standard form of an
//!   [`LpProblem`]
//!   (structural columns, then slacks, then artificials) built with
//!   **exactly** the same column ordering, right-hand-side normalization
//!   and cost conventions as the dense oracle's tableau build, so a
//!   [`SolvedBasis`](crate::simplex::SolvedBasis) produced by either solver
//!   installs on the other — and `StandardForm::crash_basis`, the
//!   triangular basis the revised solver starts cold from.

use crate::model::{LpProblem, Objective, Sense};
use crate::scalar::Scalar;
use crate::simplex::effective_sense;
use std::collections::VecDeque;

/// Column classification in the equality standard form.
///
/// Shared between the dense tableau and the revised solver so both agree on
/// which columns phase 2 may pivot on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ColKind {
    /// A user-declared variable.
    Structural,
    /// A slack (`<=` rows) or surplus (`>=` rows) column.
    Slack,
    /// An artificial column forming the initial identity of a `>=`/`==` row.
    Artificial,
}

/// A compressed-sparse-column matrix over a [`Scalar`].
///
/// Columns are stored back to back: column `j` occupies the half-open slice
/// `col_ptr[j] .. col_ptr[j + 1]` of the parallel `row_idx` / `vals`
/// arrays.  The matrix is immutable after construction — the revised
/// simplex never modifies `A`, only the basis factorization.
#[derive(Debug, Clone)]
pub struct CscMatrix<S> {
    rows: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    vals: Vec<S>,
}

impl<S: Scalar> CscMatrix<S> {
    /// Builds a matrix with `rows` rows from per-column entry lists.
    ///
    /// Each inner list holds `(row, value)` pairs; rows must be `< rows` and
    /// exact zeros should be omitted by the caller (they are skipped here
    /// as a belt-and-braces measure).
    pub fn from_columns(rows: usize, columns: Vec<Vec<(usize, S)>>) -> Self {
        let mut col_ptr = Vec::with_capacity(columns.len() + 1);
        let mut row_idx = Vec::new();
        let mut vals = Vec::new();
        col_ptr.push(0);
        for col in columns {
            for (r, v) in col {
                debug_assert!(r < rows, "row index out of range");
                if v.is_zero() {
                    continue;
                }
                row_idx.push(r);
                vals.push(v);
            }
            col_ptr.push(row_idx.len());
        }
        CscMatrix { rows, col_ptr, row_idx, vals }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.col_ptr.len() - 1
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Iterates over the `(row, value)` entries of column `j`.
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, &S)> + '_ {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        self.row_idx[lo..hi].iter().copied().zip(self.vals[lo..hi].iter())
    }

    /// Scatters column `j` into a dense vector of length [`Self::num_rows`].
    pub fn col_dense(&self, j: usize) -> Vec<S> {
        let mut out = vec![S::zero(); self.rows];
        for (r, v) in self.col(j) {
            out[r] = v.clone();
        }
        out
    }
}

/// The equality standard form of an [`LpProblem`], in sparse storage.
///
/// Mirrors the dense oracle's tableau build bit for bit: same column order
/// (structural, slacks in constraint order, artificials in constraint
/// order), same negation of rows with a negative right-hand side, same
/// maximization-form costs.  `init_basis[i]` is the slack or artificial
/// column that forms row `i`'s initial identity — the dense cold-start
/// basis, and what [`Self::crash_basis`] improves on for the revised one.
#[derive(Debug, Clone)]
pub(crate) struct StandardForm<S> {
    /// The full standard-form coefficient matrix (`m` rows, all columns).
    pub a: CscMatrix<S>,
    /// Normalized right-hand side (`>= 0`).
    pub rhs: Vec<S>,
    /// Kind of every column.
    pub kinds: Vec<ColKind>,
    /// Maximization-form objective coefficient per column.
    pub costs: Vec<S>,
    /// Initial basic column of each row (slack for `<=`, artificial else).
    pub init_basis: Vec<usize>,
    /// Whether the original constraint was negated during normalization.
    pub negated: Vec<bool>,
    /// Number of structural columns.
    pub n_structural: usize,
}

/// Most open-row entries a column may have and still be crashed into the
/// start basis: the two of a network column in the conservation laws.
///
/// Measured, not taste: admitting the reduce LP's three-entry hyperedge
/// columns (`cons[node, T[k,l,m]]`) starts Dantzig pricing on a vertex it
/// stalls at — `scaling-sweep --reduce --sizes 200,500 --seed 42` takes
/// 235 / 164 pivots with the limit and 10 018 / 19 182 without (PR 15 in
/// CHANGES.md).
const MAX_OPEN_NONZEROS: usize = 2;

/// What [`StandardForm::crash_basis`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CrashBasis {
    /// Basic column of each row: the crashed column where the row was
    /// covered, its `init_basis` column otherwise.
    pub basic: Vec<usize>,
    /// Rows that started on an artificial at level zero.
    pub open_rows: usize,
    /// Open rows that received a non-artificial basic column.
    pub covered: usize,
}

impl<S: Scalar> StandardForm<S> {
    /// Builds the standard form of `problem`.
    pub fn build(problem: &LpProblem) -> Self {
        let n = problem.num_vars();
        let m = problem.num_constraints();

        let mut n_slack = 0;
        let mut n_art = 0;
        for c in problem.constraints() {
            let rhs_neg = c.rhs.is_negative();
            match effective_sense(c.sense, rhs_neg) {
                Sense::Le => n_slack += 1,
                Sense::Ge => {
                    n_slack += 1;
                    n_art += 1;
                }
                Sense::Eq => n_art += 1,
            }
        }
        let total_cols = n + n_slack + n_art;

        let mut kinds = vec![ColKind::Structural; n];
        kinds.extend(std::iter::repeat_n(ColKind::Slack, n_slack));
        kinds.extend(std::iter::repeat_n(ColKind::Artificial, n_art));

        let flip = matches!(problem.direction(), Objective::Minimize);
        let mut costs = vec![S::zero(); total_cols];
        for (j, c) in problem.objective_vector().iter().enumerate() {
            let v = S::from_ratio(c);
            costs[j] = if flip { v.neg() } else { v };
        }

        let mut columns: Vec<Vec<(usize, S)>> = vec![Vec::new(); total_cols];
        let mut rhs = Vec::with_capacity(m);
        let mut init_basis = Vec::with_capacity(m);
        let mut negated = Vec::with_capacity(m);

        let mut next_slack = n;
        let mut next_art = n + n_slack;

        for (i, c) in problem.constraints().iter().enumerate() {
            let rhs_neg = c.rhs.is_negative();
            let sense = effective_sense(c.sense, rhs_neg);
            for (v, coeff) in c.expr.terms() {
                let val = S::from_ratio(coeff);
                let val = if rhs_neg { val.neg() } else { val };
                if !val.is_zero() {
                    columns[v.index()].push((i, val));
                }
            }
            let b = {
                let val = S::from_ratio(&c.rhs);
                if rhs_neg {
                    val.neg()
                } else {
                    val
                }
            };
            match sense {
                Sense::Le => {
                    columns[next_slack].push((i, S::one()));
                    init_basis.push(next_slack);
                    next_slack += 1;
                }
                Sense::Ge => {
                    columns[next_slack].push((i, S::one().neg()));
                    next_slack += 1;
                    columns[next_art].push((i, S::one()));
                    init_basis.push(next_art);
                    next_art += 1;
                }
                Sense::Eq => {
                    columns[next_art].push((i, S::one()));
                    init_basis.push(next_art);
                    next_art += 1;
                }
            }
            rhs.push(b);
            negated.push(rhs_neg);
        }

        // Duplicate VarIds inside one expression cannot happen (LinearExpr is
        // keyed by VarId), and terms() iterates in ascending VarId order, so
        // every column's rows are already sorted ascending.
        StandardForm {
            a: CscMatrix::from_columns(m, columns),
            rhs,
            kinds,
            costs,
            init_basis,
            negated,
            n_structural: n,
        }
    }

    /// The revised solver's cold-start basis: `init_basis` with as many
    /// zero-level artificials as possible replaced by real columns, chosen so
    /// the result is triangular.
    ///
    /// A row is *open* while its basic column is an artificial and its
    /// right-hand side is zero — every conservation row of the steady-state
    /// LPs.  A *candidate* is a non-artificial column with at most
    /// [`MAX_OPEN_NONZEROS`] entries in open rows.  A candidate with exactly
    /// one entry in a still-open row becomes basic there and closes the row,
    /// which may leave other candidates of that row with one open entry in
    /// turn; a FIFO seeded in ascending column order carries the cascade to
    /// its fixpoint in `O(nnz)`.
    ///
    /// In assignment order every crashed column's open-row entries lie in its
    /// own row and in rows closed before it, so the crashed block is
    /// triangular with a nonzero diagonal: the basis is nonsingular, and —
    /// the crashed rows having a zero right-hand side — its basic values are
    /// `rhs` itself, crashed columns at level zero.  With no open row the
    /// result *is* `init_basis`.
    pub fn crash_basis(&self) -> CrashBasis {
        let mut basic = self.init_basis.clone();
        let mut open: Vec<bool> = basic
            .iter()
            .zip(&self.rhs)
            .map(|(&col, b)| self.kinds[col] == ColKind::Artificial && b.is_zero())
            .collect();
        let open_rows = open.iter().filter(|&&o| o).count();

        // Per candidate, its entries in still-open rows (other columns stay
        // at 0 and never queue); per open row, the candidates with an entry.
        let mut live = vec![0usize; self.num_cols()];
        let mut candidates_of: Vec<Vec<usize>> = vec![Vec::new(); self.num_rows()];
        for j in (0..self.num_cols()).filter(|&j| self.kinds[j] != ColKind::Artificial) {
            let open_entries = || self.a.col(j).map(|(r, _)| r).filter(|&r| open[r]);
            let n = open_entries().count();
            if (1..=MAX_OPEN_NONZEROS).contains(&n) {
                live[j] = n;
                for r in open_entries() {
                    candidates_of[r].push(j);
                }
            }
        }

        let mut queue: VecDeque<usize> = (0..self.num_cols()).filter(|&j| live[j] == 1).collect();
        let mut covered = 0;
        while let Some(j) = queue.pop_front() {
            // `None`: another column closed this one's last open row after
            // it was queued.
            let Some(row) = self.a.col(j).map(|(r, _)| r).find(|&r| open[r]) else {
                continue;
            };
            basic[row] = j;
            open[row] = false;
            covered += 1;
            for &k in &candidates_of[row] {
                live[k] -= 1;
                if live[k] == 1 {
                    queue.push_back(k);
                }
            }
        }
        CrashBasis { basic, open_rows, covered }
    }

    /// Number of constraint rows.
    pub fn num_rows(&self) -> usize {
        self.rhs.len()
    }

    /// Total number of standard-form columns.
    pub fn num_cols(&self) -> usize {
        self.kinds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinearExpr, LpProblem};
    use steady_rational::{rat, Ratio};

    fn expr(terms: &[(crate::model::VarId, Ratio)]) -> LinearExpr {
        let mut e = LinearExpr::new();
        for (v, c) in terms {
            e.add_term(*v, c.clone());
        }
        e
    }

    #[test]
    fn csc_roundtrip() {
        let m = CscMatrix::from_columns(
            3,
            vec![vec![(0, rat(1, 1)), (2, rat(-2, 1))], vec![], vec![(1, rat(5, 1))]],
        );
        assert_eq!(m.num_rows(), 3);
        assert_eq!(m.num_cols(), 3);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.col_dense(0), vec![rat(1, 1), rat(0, 1), rat(-2, 1)]);
        assert_eq!(m.col_dense(1), vec![rat(0, 1); 3]);
        assert_eq!(m.col_dense(2), vec![rat(0, 1), rat(5, 1), rat(0, 1)]);
    }

    #[test]
    fn standard_form_matches_dense_conventions() {
        // One constraint of each sense, including a negative-rhs row that the
        // builder must negate the way the dense tableau does.
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(x, rat(3, 1));
        lp.add_constraint("le", expr(&[(x, rat(2, 1))]), Sense::Le, rat(4, 1));
        lp.add_constraint("ge", expr(&[(y, rat(1, 1))]), Sense::Ge, rat(1, 1));
        lp.add_constraint("eq", expr(&[(x, rat(1, 1)), (y, rat(1, 1))]), Sense::Eq, rat(3, 1));
        lp.add_constraint("neg", expr(&[(x, rat(-1, 1))]), Sense::Le, rat(-1, 1));

        let sf = StandardForm::<Ratio>::build(&lp);
        // 2 structural + 3 slack/surplus (le, ge-surplus, negated-le→ge... ) .
        // Column count: le -> slack, ge -> surplus + artificial,
        // eq -> artificial, neg (le with rhs<0 -> ge) -> surplus + artificial.
        assert_eq!(sf.n_structural, 2);
        assert_eq!(sf.num_cols(), 2 + 3 + 3);
        assert_eq!(sf.num_rows(), 4);
        assert_eq!(sf.kinds[2], ColKind::Slack);
        assert_eq!(sf.kinds[4], ColKind::Slack);
        assert_eq!(sf.kinds[5], ColKind::Artificial);
        assert_eq!(sf.kinds[7], ColKind::Artificial);
        // Negated row: coefficients and rhs flipped, surplus column added.
        assert!(sf.negated[3]);
        assert_eq!(sf.rhs[3], rat(1, 1));
        assert_eq!(sf.a.col_dense(0)[3], rat(1, 1));
        // Initial basis is the identity columns, one per row.
        assert_eq!(sf.init_basis.len(), 4);
        for (i, &b) in sf.init_basis.iter().enumerate() {
            let col = sf.a.col_dense(b);
            assert_eq!(col[i], rat(1, 1));
            assert_eq!(col.iter().filter(|v| !v.is_zero()).count(), 1);
        }
        // Maximization-form costs on the structural prefix.
        assert_eq!(sf.costs[0], rat(3, 1));
        assert_eq!(sf.costs[1], rat(0, 1));
    }

    #[test]
    fn crash_takes_zero_rhs_rows_only_and_ignores_the_scalar() {
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        let z = lp.add_var("z");
        lp.set_objective(z, rat(1, 1));
        // Open rows r0, r1, r4.  Open entries: `x` two (r0, r4), `y` two
        // (r0, r1), `z` one (r1), `w` one (r4), r4's surplus one.
        lp.add_constraint("r0", expr(&[(x, rat(1, 1)), (y, rat(-1, 1))]), Sense::Eq, rat(0, 1));
        lp.add_constraint("r1", expr(&[(y, rat(1, 3)), (z, rat(-1, 1))]), Sense::Eq, rat(0, 1));
        // Nonzero rhs: `w` is a singleton over it and still must not take it.
        let w = lp.add_var("w");
        lp.add_constraint("r2", expr(&[(w, rat(1, 1))]), Sense::Eq, rat(3, 1));
        lp.add_constraint("r3", expr(&[(x, rat(1, 1))]), Sense::Ge, rat(2, 1));
        // An open `>=` row.
        lp.add_constraint("r4", expr(&[(w, rat(1, 1)), (x, rat(1, 1))]), Sense::Ge, rat(0, 1));
        // A slack row is never open.
        lp.add_constraint("r5", expr(&[(x, rat(2, 1))]), Sense::Le, rat(0, 1));

        let sf = StandardForm::<Ratio>::build(&lp);
        let crash = sf.crash_basis();
        assert_eq!((crash.open_rows, crash.covered), (3, 3));
        // FIFO, seeded in ascending column order: `z` takes r1 (queueing
        // `y`), `w` takes r4 (queueing `x`), the surplus finds r4 taken, `y`
        // takes r0, `x` finds nothing left.
        assert_eq!(crash.basic[0], y.index());
        assert_eq!(crash.basic[1], z.index());
        assert_eq!(crash.basic[4], w.index());
        for i in [2, 3, 5] {
            assert_eq!(crash.basic[i], sf.init_basis[i], "row {i} keeps its identity column");
        }
        assert_eq!(StandardForm::<f64>::build(&lp).crash_basis(), crash);

        // No open row: the crash is the identity start.
        let mut le_only = LpProblem::maximize();
        let x = le_only.add_var("x");
        le_only.add_constraint("cap", expr(&[(x, rat(1, 1))]), Sense::Le, rat(1, 1));
        le_only.add_constraint("lo", expr(&[(x, rat(1, 1))]), Sense::Ge, rat(1, 2));
        let sf = StandardForm::<Ratio>::build(&le_only);
        let identity = CrashBasis { basic: sf.init_basis.clone(), open_rows: 0, covered: 0 };
        assert_eq!(sf.crash_basis(), identity);
    }
}
