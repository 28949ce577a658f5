//! Revised simplex with a sparse LU-factorized basis: every production solve.
//!
//! A dense tableau stores and updates all `m · n` entries at every pivot —
//! fine for the paper's 8-leaf stars, hopeless for thousand-node platforms
//! where the steady-state LPs have tens of thousands of rows but only a
//! handful of nonzeros per column.  This module implements the classical
//! remedy, the *revised* simplex method, primal and dual:
//!
//! * the constraint matrix stays in read-only sparse storage
//!   ([`crate::sparse::CscMatrix`]);
//! * the basis matrix `B` is kept as a sparse LU factorization
//!   ([`SparseLu`]) in Markowitz pivot order (pick the entry minimizing the
//!   fill-in bound `(r−1)(c−1)`, with a relative magnitude threshold for
//!   `f64` stability).  Column singletons come first, retired in
//!   `O(nnz log m)` straight off a row-wise copy of `B`; the Markowitz search
//!   runs only on the nucleus they leave, which is empty for the crash basis;
//! * each simplex iteration solves two triangular systems instead of
//!   updating a tableau: FTRAN (`B w = A_j`, the entering column in the
//!   basis frame) and BTRAN (`Bᵀ y = c_B`, the simplex multipliers).  The
//!   reduced costs `d_j = c_j − y·A_j` are kept between pivots, and only the
//!   columns with an entry in a row whose `y` changed are re-priced;
//! * the dual simplex ([`solve_revised_dual_report_observed`]) prices the
//!   leaving row of `B⁻¹A` off the CSC columns from one BTRAN of `e_r`;
//! * a pivot appends a product-form *eta* update ([`Eta`]) rather than
//!   refactorizing, and the factorization is rebuilt from scratch whenever
//!   the eta file grows past [`RevisedOptions::refactor_interval`] updates
//!   (or its fill outgrows the factors), which also refreshes the basic
//!   values against accumulated `f64` round-off.
//!
//! Neither shortcut changes a number: the singleton pass takes exactly the
//! pivots the Markowitz search would (a column singleton scores zero fill
//! and ends the search), and a reduced cost whose operands did not change is
//! bit for bit what recomputing it would give.  Factors and pivot sequences
//! are those of a full search and a full pricing.
//!
//! **Same rules, different cold start.**  The solver replicates the pivot
//! rules of the dense tableau the tests keep as their oracle
//! (`simplex::dense`, `#[cfg(test)]`) *exactly*: same standard form, same
//! Dantzig/Bland switch, same ratio-test tie-breaking, same dual leaving-row
//! and entering-column rules, same artificial drive-out and warm-start
//! acceptance conditions.  What differs is the basis a cold solve starts
//! from.  The dense tableau starts from the slack/artificial identity
//! and, on the steady-state LPs — conservation and delivery rows `= 0` —
//! spends one degenerate phase-1 pivot per equality row getting the
//! artificials out, although `x = 0` was feasible all along.  This solver
//! starts from a *triangular crash basis*
//! (`StandardForm::crash_basis`): every zero-rhs artificial row it can reach
//! gets a network column instead, the LU retires the result singleton by
//! singleton, the basic values are still the right-hand side, and phase 1
//! runs only if some artificial is left at a *positive* level — the rule a
//! supplied basis was always held to.
//!
//! What is and is not bit-identical to the oracle, instantiated over
//! [`Ratio`]:
//!
//! * a **warm start** from a supplied basis, primal or dual, and a **cold
//!   solve of an LP with no zero-rhs artificial row** (the crash then *is*
//!   the identity start), perform the oracle's pivot sequence and return
//!   bit-identical optima, duals, bases and pivot counts;
//! * a **cold solve from a crash** returns the `Ratio`-equal objective, a
//!   primal-feasible `values`, a dual-feasible `duals` with zero gap, and a
//!   [`SolvedBasis`] the dense solver installs with zero pivots — possibly a
//!   different optimal vertex of a degenerate optimum.
//!
//! Both are property-tested against the oracle in `simplex.rs`'s unit
//! tests, so the revised path carries the certified pipeline
//! ([`crate::exact`]) and the warm-start world ([`SolvedBasis`]) without
//! weakening any exactness guarantee.  An exact install followed by one
//! pricing pass, with no pivot, is also the forecaster's survival probe
//! ([`basis_still_optimal`]).

use crate::instrument::{
    NoopObserver, PivotKind, PivotRule, RefactorReason, SolveEvent, SolveObserver, SolvePhase,
    WarmOutcome,
};
use crate::model::{LpProblem, Objective};
use crate::scalar::Scalar;
use crate::simplex::{
    clamp_nonneg, DualOutcome, SimplexError, SimplexOptions, Solution, SolvedBasis,
};
use crate::sparse::{ColKind, CscMatrix, StandardForm};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use steady_rational::Ratio;

/// Tunable parameters of the revised solver.
#[derive(Debug, Clone)]
pub struct RevisedOptions {
    /// Underlying pivot-rule options, shared with the tests' dense oracle so
    /// the two stay pivot-for-pivot comparable from the same basis.
    pub simplex: SimplexOptions,
    /// Number of eta updates accumulated before the basis is refactorized
    /// from scratch.  Each eta makes every FTRAN/BTRAN a little more
    /// expensive (and, in `f64`, a little less accurate); refactorizing
    /// resets both.  The factorization is also rebuilt early when the eta
    /// file's fill-in outgrows the LU factors themselves.
    pub refactor_interval: usize,
}

impl Default for RevisedOptions {
    fn default() -> Self {
        RevisedOptions { simplex: SimplexOptions::default(), refactor_interval: 64 }
    }
}

/// Work counters of a revised solve, reported alongside the solution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RevisedStats {
    /// Mid-solve basis refactorizations (the initial factorization of the
    /// start basis is not counted).
    pub refactorizations: usize,
    /// Longest eta file reached between refactorizations.
    pub peak_eta: usize,
}

// ---------------------------------------------------------------------------
// Sparse LU with Markowitz pivot ordering
// ---------------------------------------------------------------------------

/// Sparse LU factorization of a basis matrix, in elimination (product) form.
///
/// The factorization records, per elimination step `k`, the pivot position
/// (`pivot_row[k]` in the matrix's row space, `pivot_col[k]` in the basis'
/// column space), the pivot value, the row multipliers that eliminated the
/// pivot column from the remaining rows (`lower`), and the pivot row's
/// surviving entries over not-yet-pivoted columns (`upper`).  [`Self::ftran`]
/// and [`Self::btran`] replay those steps to solve `B x = b` and
/// `Bᵀ y = c` in time proportional to the stored fill, never forming `B⁻¹`.
///
/// [`Self::factorize`] works in two passes over one Markowitz order.  The
/// first retires column singletons, smallest basis position first, off a
/// flat row-wise copy of `B`: a singleton step eliminates nothing, so its
/// pivot row goes to `upper` as it stands and its `lower` is empty.  The
/// second runs the Markowitz search over the nucleus the first leaves — none
/// at all for a triangular basis such as the crash.  The factors are the
/// ones the search alone would produce, bit for bit, because the search
/// itself picks the smallest-position column singleton whenever one exists.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub struct SparseLu<S> {
    m: usize,
    pivot_row: Vec<usize>,
    pivot_col: Vec<usize>,
    pivot_val: Vec<S>,
    /// Per step: `(row, multiplier)` of every eliminated row.
    lower: Vec<Vec<(usize, S)>>,
    /// Per step: `(col, value)` of the pivot row over unpivoted columns.
    upper: Vec<Vec<(usize, S)>>,
    /// Stored nonzeros (pivots + both triangular factors), counted once.
    nnz: usize,
}

/// Columns of a matrix stored row by row: row `r`'s entries sit at
/// `start[r] .. start[r + 1]` of `label` / `val`, where the label is the
/// index of the column in the list it was built from, in ascending order.
struct RowWise<S> {
    start: Vec<usize>,
    label: Vec<usize>,
    val: Vec<S>,
}

impl<S: Scalar> RowWise<S> {
    /// The columns `cols` of `a`, by row; `label` `k` is `cols`' `k`-th.
    fn of(a: &CscMatrix<S>, cols: impl Iterator<Item = usize> + Clone) -> Self {
        let m = a.num_rows();
        let mut start = vec![0usize; m + 1];
        for col in cols.clone() {
            for (r, _) in a.col(col) {
                start[r + 1] += 1;
            }
        }
        for r in 0..m {
            start[r + 1] += start[r];
        }
        let mut next = start[..m].to_vec();
        let mut label = vec![0; start[m]];
        let mut val = vec![S::zero(); start[m]];
        for (k, col) in cols.enumerate() {
            for (r, v) in a.col(col) {
                label[next[r]] = k;
                val[next[r]] = v.clone();
                next[r] += 1;
            }
        }
        RowWise { start, label, val }
    }

    /// The labels of row `r`'s entries, ascending.
    fn labels(&self, r: usize) -> &[usize] {
        &self.label[self.start[r]..self.start[r + 1]]
    }

    /// Row `r`'s `(label, value)` entries, in ascending label order.
    fn row(&self, r: usize) -> impl Iterator<Item = (usize, &S)> + '_ {
        let span = self.start[r]..self.start[r + 1];
        self.label[span.clone()].iter().copied().zip(&self.val[span])
    }
}

/// Markowitz candidate-column budget per elimination step: examining the few
/// lowest-count columns is the classical compromise between fill-optimal
/// pivot search (scan everything) and speed.
const MARKOWITZ_CANDIDATES: usize = 4;
/// Relative magnitude threshold for `f64` pivot stability; exact scalars are
/// unaffected (the threshold only reorders the elimination, never changes
/// the factorized values).
const PIVOT_THRESHOLD: f64 = 0.01;
/// Column-count buckets tracked individually; larger counts share one
/// overflow bucket.
const MAX_BUCKET: usize = 32;

impl<S: Scalar> SparseLu<S> {
    /// Factorizes the basis formed by the columns `basis_cols` of `a`
    /// (position `p` of the basis is column `basis_cols[p]`).
    ///
    /// Returns `None` when the basis is singular — for exact scalars this is
    /// a certificate, for `f64` the caller treats it as a numerical verdict
    /// and falls back.
    pub fn factorize(a: &CscMatrix<S>, basis_cols: &[usize]) -> Option<SparseLu<S>> {
        debug_assert_eq!(basis_cols.len(), a.num_rows(), "basis must have one column per row");
        let b = RowWise::of(a, basis_cols.iter().copied());
        let mut lu = SparseLu::empty(a.num_rows());
        let active = lu.retire_singletons(a, basis_cols, &b)?;
        lu.eliminate(&b, &active)?;
        Some(lu)
    }

    /// [`Self::factorize`] by the Markowitz search alone: the reference the
    /// singleton pass must reproduce.
    #[cfg(test)]
    fn factorize_by_search(a: &CscMatrix<S>, basis_cols: &[usize]) -> Option<SparseLu<S>> {
        let b = RowWise::of(a, basis_cols.iter().copied());
        let mut lu = SparseLu::empty(a.num_rows());
        lu.eliminate(&b, &vec![true; a.num_rows()])?;
        Some(lu)
    }

    fn empty(m: usize) -> Self {
        SparseLu {
            m,
            pivot_row: Vec::with_capacity(m),
            pivot_col: Vec::with_capacity(m),
            pivot_val: Vec::with_capacity(m),
            lower: Vec::with_capacity(m),
            upper: Vec::with_capacity(m),
            nnz: 0,
        }
    }

    fn push_step(
        &mut self,
        row: usize,
        pos: usize,
        val: S,
        lower: Vec<(usize, S)>,
        upper: Vec<(usize, S)>,
    ) {
        self.nnz += 1 + lower.len() + upper.len();
        self.pivot_row.push(row);
        self.pivot_col.push(pos);
        self.pivot_val.push(val);
        self.lower.push(lower);
        self.upper.push(upper);
    }

    /// The singleton pass: while some unpivoted position has exactly one
    /// active row, pivot on the smallest such position.  `b` is the basis
    /// by row, labelled by position.  Returns which rows are still active,
    /// or `None` as soon as a position has no active row left (the basis is
    /// singular).
    ///
    /// An active row holds entries only in unpivoted positions — a pivoted
    /// singleton's one active row was its pivot row — so the pivot row's
    /// other entries are its `upper` row, and retiring it only lowers the
    /// counts of the positions it touches.
    fn retire_singletons(
        &mut self,
        a: &CscMatrix<S>,
        basis_cols: &[usize],
        b: &RowWise<S>,
    ) -> Option<Vec<bool>> {
        let mut count = vec![0usize; self.m];
        for &pos in &b.label {
            count[pos] += 1;
        }
        if count.contains(&0) {
            return None;
        }
        let mut singletons: BinaryHeap<Reverse<usize>> =
            (0..self.m).filter(|&pos| count[pos] == 1).map(Reverse).collect();
        let mut active = vec![true; self.m];
        while let Some(Reverse(pj)) = singletons.pop() {
            let pi = a
                .col(basis_cols[pj])
                .map(|(r, _)| r)
                .find(|&r| active[r])
                .expect("a singleton position has one active row");
            active[pi] = false;
            let mut pivot = None;
            let mut upper = Vec::with_capacity(b.labels(pi).len() - 1);
            for (pos, v) in b.row(pi) {
                if pos == pj {
                    pivot = Some(v.clone());
                    continue;
                }
                upper.push((pos, v.clone()));
                count[pos] -= 1;
                match count[pos] {
                    0 => return None,
                    1 => singletons.push(Reverse(pos)),
                    _ => {}
                }
            }
            let pivot = pivot.expect("the pivot row holds the singleton");
            self.push_step(pi, pj, pivot, Vec::new(), upper);
        }
        Some(active)
    }

    /// Markowitz elimination of the nucleus: the `active` rows of `b` over
    /// the positions not yet pivoted.
    fn eliminate(&mut self, b: &RowWise<S>, active: &[bool]) -> Option<()> {
        let m = self.m;
        if self.pivot_row.len() == m {
            return Some(());
        }

        // Active submatrix, row-wise: row -> { position -> value }.
        let mut rows: Vec<BTreeMap<usize, S>> = vec![BTreeMap::new(); m];
        // Position -> active rows holding a nonzero in that position.
        let mut col_rows: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); m];
        for r in (0..m).filter(|&r| active[r]) {
            for (pos, v) in b.row(r) {
                rows[r].insert(pos, v.clone());
                col_rows[pos].insert(r);
            }
        }

        // Bucket queue over column counts, for cheap lowest-count lookup.
        let mut pivoted = vec![false; m];
        for &pos in &self.pivot_col {
            pivoted[pos] = true;
        }
        let mut buckets: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); MAX_BUCKET + 1];
        let mut col_bucket: Vec<usize> = vec![0; m];
        for pos in (0..m).filter(|&pos| !pivoted[pos]) {
            let b = col_rows[pos].len().min(MAX_BUCKET);
            buckets[b].insert(pos);
            col_bucket[pos] = b;
        }
        let rebucket = |buckets: &mut Vec<BTreeSet<usize>>,
                        col_bucket: &mut Vec<usize>,
                        pos: usize,
                        count: usize| {
            let nb = count.min(MAX_BUCKET);
            if nb != col_bucket[pos] {
                buckets[col_bucket[pos]].remove(&pos);
                buckets[nb].insert(pos);
                col_bucket[pos] = nb;
            }
        };

        for _step in self.pivot_row.len()..m {
            // An active column with no active nonzero certifies singularity.
            if !buckets[0].is_empty() {
                return None;
            }
            // Markowitz search over the lowest-count candidate columns:
            // minimize (row_count - 1) * (col_count - 1) among entries that
            // pass the relative magnitude threshold.
            let mut best: Option<(usize, usize, usize)> = None; // (cost, row, pos)
            let mut examined = 0;
            'search: for bucket in buckets.iter().take(MAX_BUCKET + 1).skip(1) {
                for &pos in bucket {
                    let col_count = col_rows[pos].len();
                    let col_max = col_rows[pos]
                        .iter()
                        .map(|&r| rows[r][&pos].to_f64().abs())
                        .fold(0.0_f64, f64::max);
                    for &r in &col_rows[pos] {
                        let v = rows[r][&pos].to_f64().abs();
                        // NaN-safe: when magnitudes are unusable (overflowed
                        // rationals, underflow to 0), accept structurally.
                        if col_max > 0.0 && v < PIVOT_THRESHOLD * col_max {
                            continue;
                        }
                        let cost = (rows[r].len() - 1) * (col_count - 1);
                        let improves = match best {
                            None => true,
                            Some((c, _, _)) => cost < c,
                        };
                        if improves {
                            best = Some((cost, r, pos));
                        }
                    }
                    examined += 1;
                    if examined >= MARKOWITZ_CANDIDATES || matches!(best, Some((0, _, _))) {
                        break 'search;
                    }
                }
            }
            let (_, pi, pj) = best?;

            // Retire the pivot row from the active submatrix.
            let prow = std::mem::take(&mut rows[pi]);
            for &c in prow.keys() {
                col_rows[c].remove(&pi);
                rebucket(&mut buckets, &mut col_bucket, c, col_rows[c].len());
            }
            let piv_val = prow[&pj].clone();
            let upper_k: Vec<(usize, S)> =
                prow.iter().filter(|(&c, _)| c != pj).map(|(&c, v)| (c, v.clone())).collect();

            // Eliminate the pivot column from the remaining active rows.
            let elim: Vec<usize> = col_rows[pj].iter().copied().collect();
            let mut lower_k = Vec::with_capacity(elim.len());
            for r in elim {
                let factor = rows[r].remove(&pj).expect("row is in the pivot column's index");
                let mult = factor.div(&piv_val);
                for (c, v) in &upper_k {
                    let delta = mult.mul(v);
                    match rows[r].get(c) {
                        Some(old) => {
                            let nv = old.sub(&delta);
                            if nv.is_zero() {
                                rows[r].remove(c);
                                col_rows[*c].remove(&r);
                                rebucket(&mut buckets, &mut col_bucket, *c, col_rows[*c].len());
                            } else {
                                rows[r].insert(*c, nv);
                            }
                        }
                        None => {
                            if !delta.is_zero() {
                                rows[r].insert(*c, delta.neg());
                                col_rows[*c].insert(r);
                                rebucket(&mut buckets, &mut col_bucket, *c, col_rows[*c].len());
                            }
                        }
                    }
                }
                lower_k.push((r, mult));
            }
            col_rows[pj].clear();
            buckets[col_bucket[pj]].remove(&pj);

            self.push_step(pi, pj, piv_val, lower_k, upper_k);
        }
        Some(())
    }

    /// Basis dimension.
    pub fn dim(&self) -> usize {
        self.m
    }

    /// Stored nonzeros (pivots + both triangular factors).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// FTRAN: solves `B x = b`.  `b` is indexed by matrix row, the returned
    /// `x` by basis position.
    pub fn ftran(&self, mut b: Vec<S>) -> Vec<S> {
        debug_assert_eq!(b.len(), self.m);
        // Forward: replay the row eliminations on b.
        for k in 0..self.m {
            let zr = b[self.pivot_row[k]].clone();
            if zr.is_zero() {
                continue;
            }
            for (r, mult) in &self.lower[k] {
                b[*r] = b[*r].sub(&mult.mul(&zr));
            }
        }
        // Backward: substitute through the pivot rows in reverse order.
        let mut x = vec![S::zero(); self.m];
        for k in (0..self.m).rev() {
            let mut acc = b[self.pivot_row[k]].clone();
            for (c, v) in &self.upper[k] {
                if !x[*c].is_zero() {
                    acc = acc.sub(&v.mul(&x[*c]));
                }
            }
            if !acc.is_zero() {
                x[self.pivot_col[k]] = acc.div(&self.pivot_val[k]);
            }
        }
        x
    }

    /// BTRAN: solves `Bᵀ y = c`.  `c` is indexed by basis position, the
    /// returned `y` by matrix row.
    pub fn btran(&self, c: Vec<S>) -> Vec<S> {
        debug_assert_eq!(c.len(), self.m);
        // Forward: solve Uᵀ t = c, scattering updates by column position.
        let mut acc = c;
        let mut t = vec![S::zero(); self.m];
        for k in 0..self.m {
            let tk = acc[self.pivot_col[k]].div(&self.pivot_val[k]);
            if !tk.is_zero() {
                for (c2, v) in &self.upper[k] {
                    acc[*c2] = acc[*c2].sub(&v.mul(&tk));
                }
            }
            t[self.pivot_row[k]] = tk;
        }
        // Backward: solve Lᵀ y = t in reverse elimination order.
        let mut y = t;
        for k in (0..self.m).rev() {
            let mut s = S::zero();
            for (r, mult) in &self.lower[k] {
                if !y[*r].is_zero() {
                    s = s.add(&mult.mul(&y[*r]));
                }
            }
            if !s.is_zero() {
                y[self.pivot_row[k]] = y[self.pivot_row[k]].sub(&s);
            }
        }
        y
    }
}

// ---------------------------------------------------------------------------
// Eta updates (product form of the inverse)
// ---------------------------------------------------------------------------

/// One product-form basis update: after a pivot at basis position `pos`
/// with entering column `w = B⁻¹ A_j`, the new basis is `B · E` where `E`
/// is the identity with column `pos` replaced by `w`.
///
/// Applying `E⁻¹` (FTRAN direction) and `E⁻ᵀ` (BTRAN direction) costs one
/// pass over the stored nonzeros, so a short eta file keeps per-pivot solve
/// cost proportional to basis fill rather than basis dimension.
#[derive(Debug, Clone)]
pub struct Eta<S> {
    pos: usize,
    pivot: S,
    /// Nonzero entries of `w` away from `pos`.
    entries: Vec<(usize, S)>,
}

impl<S: Scalar> Eta<S> {
    /// Captures the eta column for a pivot at `pos` from the dense FTRAN
    /// result `w` (which must have `w[pos] != 0`).
    pub fn from_dense(pos: usize, w: &[S]) -> Eta<S> {
        debug_assert!(!w[pos].is_zero(), "eta pivot must be nonzero");
        let entries = w
            .iter()
            .enumerate()
            .filter(|&(i, v)| i != pos && !v.is_zero())
            .map(|(i, v)| (i, v.clone()))
            .collect();
        Eta { pos, pivot: w[pos].clone(), entries }
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.entries.len() + 1
    }

    /// Applies `E⁻¹` in place (FTRAN direction, position-indexed vector).
    pub fn apply_ftran(&self, x: &mut [S]) {
        let t = x[self.pos].div(&self.pivot);
        if !t.is_zero() {
            for (i, w) in &self.entries {
                x[*i] = x[*i].sub(&w.mul(&t));
            }
        }
        x[self.pos] = t;
    }

    /// Applies `E⁻ᵀ` in place (BTRAN direction, position-indexed vector).
    pub fn apply_btran(&self, z: &mut [S]) {
        let mut acc = z[self.pos].clone();
        for (i, w) in &self.entries {
            if !z[*i].is_zero() {
                acc = acc.sub(&w.mul(&z[*i]));
            }
        }
        z[self.pos] = acc.div(&self.pivot);
    }
}

/// The factorized basis: an LU of some earlier basis plus the eta updates
/// accumulated since (`B_now = B_lu · E_1 ⋯ E_k`).
struct Factors<S> {
    lu: SparseLu<S>,
    etas: Vec<Eta<S>>,
    eta_nnz: usize,
}

impl<S: Scalar> Factors<S> {
    fn fresh(lu: SparseLu<S>) -> Self {
        Factors { lu, etas: Vec::new(), eta_nnz: 0 }
    }

    /// `B⁻¹ b`: LU solve, then etas in append order.
    fn ftran(&self, b: Vec<S>) -> Vec<S> {
        let mut x = self.lu.ftran(b);
        for eta in &self.etas {
            eta.apply_ftran(&mut x);
        }
        x
    }

    /// `B⁻ᵀ c`: etas in reverse order, then the LU transpose solve.
    fn btran(&self, c: Vec<S>) -> Vec<S> {
        let mut z = c;
        for eta in self.etas.iter().rev() {
            eta.apply_btran(&mut z);
        }
        self.lu.btran(z)
    }
}

// ---------------------------------------------------------------------------
// The revised simplex driver
// ---------------------------------------------------------------------------

/// How a dual-simplex run ended.
pub(crate) enum DualRun {
    /// Primal feasibility restored; the basis is optimal.
    Restored,
    /// A leaving row had no eligible entering column (dual unbounded).
    RatioTestFailed,
}

struct Revised<'a, S> {
    sf: &'a StandardForm<S>,
    /// Basic column of each basis position (position `i` tracks standard-form
    /// row `i`, matching the dense tableau's row-to-basis assignment).
    basic: Vec<usize>,
    factors: Factors<S>,
    /// Current basic values `B⁻¹ b`, by position.
    xb: Vec<S>,
    /// `A` by row, labelled by column: the columns a change in `y[r]`
    /// re-prices.  Built at the first re-pricing, kept for the solve.
    by_row: Option<RowWise<S>>,
    options: &'a RevisedOptions,
    stats: RevisedStats,
}

/// The reduced costs of one [`Revised::optimize`] call, carried from pivot
/// to pivot together with the multipliers `y` they are priced at.
struct Pricing<S> {
    /// The current `y`; empty until the first pricing.
    y: Vec<S>,
    /// `d_j = c_j − y·A_j`, valid where `stale[j]` is unset.
    d: Vec<S>,
    stale: Vec<bool>,
}

impl<S: Scalar> Pricing<S> {
    fn new(n: usize) -> Self {
        Pricing { y: Vec::new(), d: vec![S::zero(); n], stale: vec![true; n] }
    }
}

impl<'a, S: Scalar> Revised<'a, S> {
    /// Factorizes `basic` and computes its basic values `B⁻¹ b` — the one
    /// way a run starts, from a supplied basis or from the crash.  `None`
    /// when the basis is singular for this data.
    fn install(
        sf: &'a StandardForm<S>,
        basic: Vec<usize>,
        options: &'a RevisedOptions,
    ) -> Option<Self> {
        let factors = Factors::fresh(SparseLu::factorize(&sf.a, &basic)?);
        let xb = factors.ftran(sf.rhs.clone());
        Some(Revised {
            sf,
            basic,
            factors,
            xb,
            by_row: None,
            options,
            stats: RevisedStats::default(),
        })
    }

    /// Prices the current basis and picks the entering column by the dense
    /// tableau's rule over the `allowed` columns: the first largest positive
    /// reduced cost (Dantzig), or the first positive one (Bland).
    ///
    /// `y = B⁻ᵀ c_B` is solved afresh, but `d_j = c_j − y·A_j` is recomputed
    /// only for a column the scan reaches while it is stale: never priced in
    /// this `pricing`, or `y` changed in a row of `A_j` since it was.  Any
    /// other `d_j` would be recomputed from the same operands in the same
    /// order, so the kept value is the recomputed one, bit for bit.
    fn price(
        &mut self,
        costs: &[S],
        allowed: &[bool],
        pricing: &mut Pricing<S>,
        bland: bool,
    ) -> Option<usize> {
        let cb: Vec<S> = self.basic.iter().map(|&j| costs[j].clone()).collect();
        let y = self.factors.btran(cb);
        let (a, n) = (&self.sf.a, self.sf.num_cols());
        if !pricing.y.is_empty() {
            let by_row = self.by_row.get_or_insert_with(|| RowWise::of(a, 0..n));
            for r in (0..y.len()).filter(|&r| y[r] != pricing.y[r]) {
                for &j in by_row.labels(r) {
                    pricing.stale[j] = true;
                }
            }
        }
        pricing.y = y;

        let mut best: Option<usize> = None;
        for j in (0..n).filter(|&j| allowed[j]) {
            if pricing.stale[j] {
                let mut d = costs[j].clone();
                for (r, v) in a.col(j) {
                    if !pricing.y[r].is_zero() {
                        d = d.sub(&pricing.y[r].mul(v));
                    }
                }
                pricing.d[j] = d;
                pricing.stale[j] = false;
            }
            let d = &pricing.d[j];
            if d.is_positive() {
                if bland {
                    return Some(j);
                }
                if best.is_none_or(|b| pricing.d[b].lt(d)) {
                    best = Some(j);
                }
            }
        }
        best
    }

    /// Ratio test over the FTRAN'd entering column; identical rule to the
    /// dense tableau (minimum ratio, ties to the smallest basic column).
    fn choose_leaving(&self, w: &[S]) -> Option<usize> {
        let mut best: Option<(usize, S)> = None;
        for (i, a) in w.iter().enumerate() {
            if !a.is_positive() {
                continue;
            }
            let ratio = self.xb[i].div(a);
            match &best {
                None => best = Some((i, ratio)),
                Some((bi, br)) => {
                    if ratio.lt(br) || (!br.lt(&ratio) && self.basic[i] < self.basic[*bi]) {
                        best = Some((i, ratio));
                    }
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Executes the basis change `basic[pos] ← col` given `w = B⁻¹ A_col`:
    /// updates the basic values, appends an eta (or refactorizes when the
    /// eta file is due), and keeps the work counters.
    fn pivot<O: SolveObserver>(
        &mut self,
        pos: usize,
        col: usize,
        w: Vec<S>,
        obs: &mut O,
    ) -> Result<(), SimplexError> {
        let t = self.xb[pos].div(&w[pos]);
        for (i, wi) in w.iter().enumerate() {
            if i != pos && !wi.is_zero() {
                self.xb[i] = self.xb[i].sub(&wi.mul(&t));
            }
        }
        self.xb[pos] = t;
        self.basic[pos] = col;

        let eta = Eta::from_dense(pos, &w);
        self.factors.eta_nnz += eta.nnz();
        self.factors.etas.push(eta);
        self.stats.peak_eta = self.stats.peak_eta.max(self.factors.etas.len());
        if O::ENABLED {
            obs.on_event(SolveEvent::EtaAppended {
                etas: self.factors.etas.len(),
                eta_nnz: self.factors.eta_nnz,
            });
        }

        let fill_bound = (2 * self.factors.lu.nnz()).max(4 * self.sf.num_rows());
        let interval_due = self.factors.etas.len() >= self.options.refactor_interval;
        let fill_due = self.factors.eta_nnz > fill_bound;
        if interval_due || fill_due {
            if O::ENABLED {
                obs.on_event(SolveEvent::RefactorStarted {
                    reason: if interval_due {
                        RefactorReason::EtaInterval
                    } else {
                        RefactorReason::FillGrowth
                    },
                    etas: self.factors.etas.len(),
                    eta_nnz: self.factors.eta_nnz,
                });
            }
            self.refactorize()?;
            if O::ENABLED {
                obs.on_event(SolveEvent::RefactorFinished {
                    lu_nnz: self.factors.lu.nnz(),
                    dim: self.sf.num_rows(),
                });
            }
        }
        Ok(())
    }

    /// Rebuilds the LU from the current basic columns and recomputes the
    /// basic values from scratch (identical in exact arithmetic, fresher in
    /// `f64`).
    fn refactorize(&mut self) -> Result<(), SimplexError> {
        // In exact arithmetic the current basis is provably nonsingular, so
        // factorization cannot fail; in f64 a failure means round-off has
        // degraded the basis beyond repair — report it and let the certified
        // pipeline fall back to exact.
        let lu = SparseLu::factorize(&self.sf.a, &self.basic).ok_or(SimplexError::SingularBasis)?;
        self.factors = Factors::fresh(lu);
        self.xb = self.factors.ftran(self.sf.rhs.clone());
        self.stats.refactorizations += 1;
        Ok(())
    }

    /// Runs revised simplex iterations with the given cost vector until
    /// optimality, mirroring the dense oracle's `optimize` iteration/Bland
    /// accounting exactly.
    fn optimize<O: SolveObserver>(
        &mut self,
        costs: &[S],
        allowed: &[bool],
        iterations: &mut usize,
        phase: SolvePhase,
        obs: &mut O,
    ) -> Result<(), SimplexError> {
        let default_cap = 50 * (self.sf.num_rows() + self.sf.num_cols()) + 10_000;
        let cap = self.options.simplex.max_iterations.unwrap_or(default_cap);
        let mut pricing = Pricing::new(self.sf.num_cols());
        loop {
            if *iterations > cap {
                return Err(SimplexError::IterationLimit { iterations: *iterations });
            }
            let bland = *iterations >= self.options.simplex.bland_after;
            let Some(col) = self.price(costs, allowed, &mut pricing, bland) else {
                return Ok(());
            };
            let w = self.factors.ftran(self.sf.a.col_dense(col));
            let Some(pos) = self.choose_leaving(&w) else {
                return Err(SimplexError::Unbounded);
            };
            if O::ENABLED {
                obs.on_event(SolveEvent::Pivot {
                    phase,
                    kind: PivotKind::Primal,
                    rule: if bland { PivotRule::Bland } else { PivotRule::Dantzig },
                    entering: col,
                    leaving: self.basic[pos],
                    degenerate: self.xb[pos].is_zero(),
                });
            }
            self.pivot(pos, col, w, obs)?;
            *iterations += 1;
        }
    }

    /// Pivots basic artificials onto real columns wherever one has a nonzero
    /// entry in their row — the revised analogue of the dense
    /// `drive_out_artificials`, scanning columns in the same ascending order
    /// so the replacement choice matches pivot for pivot.
    fn drive_out_artificials<O: SolveObserver>(&mut self, obs: &mut O) -> Result<(), SimplexError> {
        for pos in 0..self.sf.num_rows() {
            if self.sf.kinds[self.basic[pos]] != ColKind::Artificial {
                continue;
            }
            // Row `pos` of B⁻¹, i.e. y with yᵀ A_j = (B⁻¹ A_j)[pos].
            let mut e = vec![S::zero(); self.sf.num_rows()];
            e[pos] = S::one();
            let y = self.factors.btran(e);
            let replacement = (0..self.sf.num_cols()).find(|&j| {
                if self.sf.kinds[j] == ColKind::Artificial {
                    return false;
                }
                let mut acc = S::zero();
                for (r, v) in self.sf.a.col(j) {
                    if !y[r].is_zero() {
                        acc = acc.add(&y[r].mul(v));
                    }
                }
                !acc.is_zero()
            });
            if let Some(j) = replacement {
                let w = self.factors.ftran(self.sf.a.col_dense(j));
                if w[pos].is_zero() {
                    // f64 round-off disagreement between the probe and the
                    // full FTRAN; the entry is too small to pivot on safely.
                    continue;
                }
                // Drive-out pivots are uncounted (like the dense path's), so
                // they emit no Pivot events — only the eta/refactor activity
                // inside `pivot` is observed.
                self.pivot(pos, j, w, obs)?;
            }
        }
        Ok(())
    }

    /// Runs dual simplex pivots from a dual-feasible basis, priced in
    /// `pricing`, until every basic value is non-negative — by the dense
    /// oracle's rules, so that over `Ratio` the pivots are the same.
    ///
    /// The leaving position holds the most negative basic value (the
    /// smallest basic column once Bland's rule is in force).  Its row of
    /// `B⁻¹A` is priced off the CSC columns as `α_rj = ρ·A_j`, with
    /// `ρ = B⁻ᵀ e_r` (Koberstein, *The dual simplex method*, 2005), and the
    /// entering column is the first allowed one with `α_rj < 0` minimizing
    /// `d_j / α_rj`, which keeps every `d_j ≤ 0`.
    ///
    /// Pivot events are held back until the run is restored: a run whose
    /// ratio test fails is dropped for a cold start, and only the cold
    /// start's pivots are counted.
    fn dual_optimize<O: SolveObserver>(
        &mut self,
        allowed: &[bool],
        pricing: &mut Pricing<S>,
        iterations: &mut usize,
        obs: &mut O,
    ) -> Result<DualRun, SimplexError> {
        let (sf, m) = (self.sf, self.sf.num_rows());
        let default_cap = 50 * (m + sf.num_cols()) + 10_000;
        let cap = self.options.simplex.max_iterations.unwrap_or(default_cap);
        let mut pending = Vec::new();
        loop {
            if *iterations > cap {
                return Err(SimplexError::IterationLimit { iterations: *iterations });
            }
            let bland = *iterations >= self.options.simplex.bland_after;
            let leaving = (0..m).filter(|&i| self.xb[i].is_negative()).reduce(|r, i| {
                let better =
                    if bland { self.basic[i] < self.basic[r] } else { self.xb[i].lt(&self.xb[r]) };
                if better {
                    i
                } else {
                    r
                }
            });
            let Some(pos) = leaving else {
                if O::ENABLED {
                    pending.into_iter().for_each(|event| obs.on_event(event));
                }
                return Ok(DualRun::Restored);
            };
            let mut e = vec![S::zero(); m];
            e[pos] = S::one();
            let rho = self.factors.btran(e);
            let mut entering: Option<(usize, S)> = None;
            for j in (0..sf.num_cols()).filter(|&j| allowed[j]) {
                let mut alpha = S::zero();
                for (r, v) in sf.a.col(j) {
                    if !rho[r].is_zero() {
                        alpha = alpha.add(&rho[r].mul(v));
                    }
                }
                if !alpha.is_negative() {
                    continue;
                }
                let ratio = pricing.d[j].div(&alpha);
                if entering.as_ref().is_none_or(|(_, best)| ratio.lt(best)) {
                    entering = Some((j, ratio));
                }
            }
            let Some((col, _)) = entering else {
                return Ok(DualRun::RatioTestFailed);
            };
            let w = self.factors.ftran(sf.a.col_dense(col));
            if !w[pos].is_negative() {
                // `f64` round-off: the column's FTRAN disagrees with the row
                // priced off `ρ`; the pivot is unsafe, so fall back.
                return Ok(DualRun::RatioTestFailed);
            }
            if O::ENABLED {
                pending.push(SolveEvent::Pivot {
                    phase: SolvePhase::DualRepair,
                    kind: PivotKind::Dual,
                    rule: if bland { PivotRule::Bland } else { PivotRule::Dantzig },
                    entering: col,
                    leaving: self.basic[pos],
                    degenerate: pricing.d[col].is_zero(),
                });
            }
            self.pivot(pos, col, w, obs)?;
            *iterations += 1;
            self.price(&sf.costs, allowed, pricing, false);
        }
    }

    /// Two-phase driver.  Phase 1 runs iff the start basis holds an
    /// artificial at a positive level — one rule for a supplied basis and for
    /// the crash, which leaves none on the zero-rhs steady-state LPs.
    /// Artificials basic at level zero (rows the crash could not reach) go
    /// straight to [`Self::drive_out_artificials`].  `warm_started` only
    /// labels the solution.
    fn run<O: SolveObserver>(
        mut self,
        problem: &LpProblem,
        warm_started: bool,
        obs: &mut O,
    ) -> Result<(Solution<S>, RevisedStats), SimplexError> {
        let mut iterations = 0usize;

        let needs_phase1 = (0..self.sf.num_rows()).any(|i| {
            self.sf.kinds[self.basic[i]] == ColKind::Artificial && self.xb[i].is_positive()
        });
        if needs_phase1 {
            if O::ENABLED {
                obs.on_event(SolveEvent::PhaseStarted { phase: SolvePhase::Phase1 });
            }
            let phase1_costs: Vec<S> = self
                .sf
                .kinds
                .iter()
                .map(|k| if *k == ColKind::Artificial { S::one().neg() } else { S::zero() })
                .collect();
            let allowed = vec![true; self.sf.num_cols()];
            self.optimize(&phase1_costs, &allowed, &mut iterations, SolvePhase::Phase1, obs)?;

            let mut infeasibility = S::zero();
            for pos in 0..self.sf.num_rows() {
                if self.sf.kinds[self.basic[pos]] == ColKind::Artificial {
                    infeasibility = infeasibility.add(&self.xb[pos]);
                }
            }
            if infeasibility.is_positive() {
                return Err(SimplexError::Infeasible);
            }
        }
        let phase1_iterations = iterations;

        self.drive_out_artificials(obs)?;

        if O::ENABLED {
            obs.on_event(SolveEvent::PhaseStarted { phase: SolvePhase::Phase2 });
        }
        let allowed: Vec<bool> = self.sf.kinds.iter().map(|k| *k != ColKind::Artificial).collect();
        let sf = self.sf;
        self.optimize(&sf.costs, &allowed, &mut iterations, SolvePhase::Phase2, obs)?;

        Ok(self.finish(problem, iterations, phase1_iterations, warm_started))
    }

    /// Reads the solution out of the optimized factorization, matching the
    /// dense oracle's `finish` value/objective/dual extraction.
    fn finish(
        self,
        problem: &LpProblem,
        iterations: usize,
        phase1_iterations: usize,
        warm_started: bool,
    ) -> (Solution<S>, RevisedStats) {
        let mut values = vec![S::zero(); self.sf.n_structural];
        for pos in 0..self.sf.num_rows() {
            let j = self.basic[pos];
            if j < self.sf.n_structural {
                values[j] = clamp_nonneg(self.xb[pos].clone());
            }
        }

        let mut objective = S::zero();
        for (j, c) in self.sf.costs.iter().enumerate().take(self.sf.n_structural) {
            if !c.is_zero() && !values[j].is_zero() {
                objective = objective.add(&c.mul(&values[j]));
            }
        }
        let minimize = matches!(problem.direction(), Objective::Minimize);
        if minimize {
            objective = objective.neg();
        }

        // Duals: y = B⁻ᵀ c_B; the dual of original row i is y[i] since the
        // initial-identity column of row i is e_i (negated rows flip sign,
        // and so does a minimization, whose costs are in maximization form),
        // exactly as the dense path reads them off the init_col columns.
        let cb: Vec<S> = self.basic.iter().map(|&j| self.sf.costs[j].clone()).collect();
        let y = self.factors.btran(cb);
        let duals: Vec<S> = y
            .into_iter()
            .zip(&self.sf.negated)
            .map(|(v, &neg)| if neg != minimize { v.neg() } else { v })
            .collect();

        let basis = SolvedBasis {
            cols: self.basic.clone(),
            num_cols: self.sf.num_cols(),
            n_structural: self.sf.n_structural,
        };
        (
            Solution {
                values,
                objective,
                duals,
                iterations,
                phase1_iterations,
                warm_started,
                basis,
            },
            self.stats,
        )
    }
}

/// Solves `problem` in exact rational arithmetic, cold from the crash basis.
pub fn solve_exact(problem: &LpProblem) -> Result<Solution<Ratio>, SimplexError> {
    solve_revised_report_observed(problem, None, &RevisedOptions::default(), &mut NoopObserver)
        .map(|(sol, _)| sol)
}

/// The fully instrumented entry point: optional warm basis, explicit
/// options, the solve's [`RevisedStats`] alongside the solution, and a
/// [`crate::instrument::SolveObserver`] tap on the run: run start,
/// warm-start install outcome, phases, pivots, eta appends and
/// refactorizations.  The observer cannot influence the solve.
pub fn solve_revised_report_observed<S: Scalar, O: SolveObserver>(
    problem: &LpProblem,
    warm: Option<&SolvedBasis>,
    options: &RevisedOptions,
    obs: &mut O,
) -> Result<(Solution<S>, RevisedStats), SimplexError> {
    if O::ENABLED {
        obs.on_event(SolveEvent::RunStarted);
    }
    let sf = StandardForm::<S>::build(problem);

    if let Some(basis) = warm {
        // An incompatible, singular or primal-infeasible basis is silently
        // discarded, like the dense fallback.
        let installed = basis
            .fits(sf.num_rows(), sf.num_cols(), sf.n_structural)
            .then(|| Revised::install(&sf, basis.cols.clone(), options))
            .flatten()
            .filter(|solver| solver.xb.iter().all(|b| !b.is_negative()));
        if O::ENABLED {
            let outcome =
                if installed.is_some() { WarmOutcome::Installed } else { WarmOutcome::Rejected };
            obs.on_event(SolveEvent::WarmStart { outcome });
        }
        if let Some(solver) = installed {
            return solver.run(problem, true, obs);
        }
    }
    cold_start(&sf, problem, options, obs)
}

/// Cold start from the triangular crash basis
/// ([`StandardForm::crash_basis`]).
fn cold_start<S: Scalar, O: SolveObserver>(
    sf: &StandardForm<S>,
    problem: &LpProblem,
    options: &RevisedOptions,
    obs: &mut O,
) -> Result<(Solution<S>, RevisedStats), SimplexError> {
    let crash = sf.crash_basis();
    if O::ENABLED {
        obs.on_event(SolveEvent::CrashStart { open_rows: crash.open_rows, covered: crash.covered });
    }
    Revised::install(sf, crash.basic, options)
        .expect("the crash basis is triangular with a nonzero diagonal and always factorizes")
        .run(problem, false, obs)
}

/// Solves `problem` with the **dual simplex**, resuming from `basis`, an
/// optimal basis of a structurally identical problem — the drift-triage
/// solve.
///
/// After a data perturbation (drifted edge costs, changed right-hand sides)
/// the old basis typically stays *dual* feasible — reduced costs depend on
/// the objective, not the rhs — while the point it induces may turn primal
/// infeasible.  A primal warm start must discard such a basis; this one
/// repairs it in place with dual pivots, which keep dual feasibility and
/// stop at the new optimum.  The ladder, cheapest rung first:
///
/// * a misfit or singular basis falls back to a crash cold start;
/// * after the artificial drive-out, an artificial still basic at a positive
///   level re-runs phase 1 from the installed basis (also `FellBack`);
/// * primal and dual feasible: `StillOptimal`, re-priced with zero pivots;
/// * primal feasible only: phase-2 pivots, `PrimalReoptimized`;
/// * dual feasible only: dual pivots, `DualRepaired` — or,
///   when its ratio test fails, a crash cold start;
/// * neither: a crash cold start.
///
/// Every rung returns the exact optimum of a cold solve: the basis is
/// advisory, and no infeasibility verdict is ever taken from warm state.
/// Over [`Ratio`] each rung takes the dense oracle's pivots.  The observer
/// sees [`SolveEvent::WarmStart`] with the rung as soon as it is known.
pub fn solve_revised_dual_report_observed<S: Scalar, O: SolveObserver>(
    problem: &LpProblem,
    basis: &SolvedBasis,
    options: &RevisedOptions,
    obs: &mut O,
) -> Result<(Solution<S>, DualOutcome, RevisedStats), SimplexError> {
    if O::ENABLED {
        obs.on_event(SolveEvent::RunStarted);
    }
    let sf = StandardForm::<S>::build(problem);
    let warm = |obs: &mut O, outcome: WarmOutcome| {
        if O::ENABLED {
            obs.on_event(SolveEvent::WarmStart { outcome });
        }
    };
    let fell_back = |(sol, stats)| (sol, DualOutcome::FellBack, stats);
    let installed = basis
        .fits(sf.num_rows(), sf.num_cols(), sf.n_structural)
        .then(|| Revised::install(&sf, basis.cols.clone(), options))
        .flatten();
    let Some(mut solver) = installed else {
        warm(obs, WarmOutcome::FellBack);
        return cold_start(&sf, problem, options, obs).map(fell_back);
    };
    // Load-bearing, not cosmetic: an artificial left basic in a row that is
    // not all-zero (the basis came from other data) could be pushed positive
    // by later pivots, silently turning the "optimum" infeasible.  Any
    // artificial left after the drive-out sits in an all-zero real row, where
    // no allowed pivot changes it.  (A *negative* one makes its row a dual
    // leaving row with no entering column, so the ratio test falls back.)
    solver.drive_out_artificials(obs)?;
    let positive_artificial = (0..sf.num_rows())
        .any(|i| sf.kinds[solver.basic[i]] == ColKind::Artificial && solver.xb[i].is_positive());
    if positive_artificial {
        warm(obs, WarmOutcome::FellBack);
        return solver.run(problem, true, obs).map(fell_back);
    }

    let primal_feasible = solver.xb.iter().all(|b| !b.is_negative());
    let allowed: Vec<bool> = sf.kinds.iter().map(|k| *k != ColKind::Artificial).collect();
    let mut pricing = Pricing::new(sf.num_cols());
    let dual_feasible = solver.price(&sf.costs, &allowed, &mut pricing, false).is_none();
    let mut iterations = 0;
    let phase2 = |obs: &mut O| {
        if O::ENABLED {
            obs.on_event(SolveEvent::PhaseStarted { phase: SolvePhase::Phase2 });
        }
    };
    let outcome = match (primal_feasible, dual_feasible) {
        (true, true) => {
            warm(obs, WarmOutcome::StillOptimal);
            DualOutcome::StillOptimal
        }
        (true, false) => {
            warm(obs, WarmOutcome::PrimalReoptimized);
            phase2(obs);
            solver.optimize(&sf.costs, &allowed, &mut iterations, SolvePhase::Phase2, obs)?;
            DualOutcome::PrimalReoptimized { pivots: iterations }
        }
        (false, true) => {
            if O::ENABLED {
                obs.on_event(SolveEvent::PhaseStarted { phase: SolvePhase::DualRepair });
            }
            if let DualRun::RatioTestFailed =
                solver.dual_optimize(&allowed, &mut pricing, &mut iterations, obs)?
            {
                // In exact arithmetic this certifies primal infeasibility,
                // but warm state never decides a verdict: re-solve cold.
                warm(obs, WarmOutcome::FellBack);
                return cold_start(&sf, problem, options, obs).map(fell_back);
            }
            let pivots = iterations;
            warm(obs, WarmOutcome::DualRepaired);
            phase2(obs);
            // Dual feasibility survives every dual pivot, so the repaired
            // vertex is optimal: this pass is a no-op in exact arithmetic
            // and guards `f64` against tolerance drift.
            solver.optimize(&sf.costs, &allowed, &mut iterations, SolvePhase::Phase2, obs)?;
            DualOutcome::DualRepaired { pivots }
        }
        (false, false) => {
            warm(obs, WarmOutcome::FellBack);
            return cold_start(&sf, problem, options, obs).map(fell_back);
        }
    };
    let (sol, stats) = solver.finish(problem, iterations, 0, true);
    Ok((sol, outcome, stats))
}

/// Exact zero-pivot survival probe: `true` when `basis` installs on
/// `problem` and is already optimal for its data — i.e. a triaged solve
/// would answer `InRange` by re-pricing alone.
///
/// This is the certification primitive of the steady-state forecaster: cost
/// drift moves *constraint coefficients* of the collective LPs, which no
/// single-axis interval can bound jointly, so candidate platforms inside the
/// drift envelope are certified one by one.  Each probe is one exact LU
/// factorization, one FTRAN for the basic values and one BTRAN and pricing
/// pass for the reduced costs, never a pivot.
pub fn basis_still_optimal(problem: &LpProblem, basis: &SolvedBasis) -> bool {
    let sf = StandardForm::<Ratio>::build(problem);
    if !basis.fits(sf.num_rows(), sf.num_cols(), sf.n_structural) {
        return false;
    }
    let options = RevisedOptions::default();
    let Some(mut solver) = Revised::install(&sf, basis.cols.clone(), &options) else {
        return false;
    };
    // Primal feasible, with every basic artificial exactly at zero.
    let feasible = solver
        .xb
        .iter()
        .zip(&solver.basic)
        .all(|(v, &j)| !v.is_negative() && (sf.kinds[j] != ColKind::Artificial || v.is_zero()));
    // Dual feasible: no column phase 2 may enter prices positive.
    let allowed: Vec<bool> = sf.kinds.iter().map(|k| *k != ColKind::Artificial).collect();
    feasible && solver.price(&sf.costs, &allowed, &mut Pricing::new(sf.num_cols()), true).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinearExpr, LpProblem, Sense};
    use crate::simplex::dense;
    use steady_rational::rat;

    fn expr(terms: &[(crate::model::VarId, Ratio)]) -> LinearExpr {
        let mut e = LinearExpr::new();
        for (v, c) in terms {
            e.add_term(*v, c.clone());
        }
        e
    }

    fn solve_warm(lp: &LpProblem, basis: &SolvedBasis) -> Result<Solution<Ratio>, SimplexError> {
        let options = RevisedOptions::default();
        solve_revised_report_observed(lp, Some(basis), &options, &mut NoopObserver)
            .map(|(sol, _)| sol)
    }

    /// The cold contract on any LP: the dense objective, a primal/dual pair
    /// that proves it, and bases that install on the other solver with zero
    /// pivots.  The vertex itself may differ — the crash starts elsewhere.
    fn assert_matches_dense(lp: &LpProblem) {
        let dense = dense::solve_exact(lp).unwrap();
        let revised = solve_exact(lp).unwrap();
        assert_eq!(revised.objective, dense.objective);
        assert_eq!(
            crate::exact::check_optimal(lp, &revised.values, &revised.duals),
            Ok(dense.objective.clone())
        );
        assert!(!revised.warm_started);

        let dense_warm = dense::solve_with_basis::<Ratio>(lp, &revised.basis).unwrap();
        assert!(dense_warm.warm_started);
        assert_eq!(dense_warm.iterations, 0);
        assert_eq!(dense_warm.objective, dense.objective);
        let revised_warm = solve_warm(lp, &dense.basis).unwrap();
        assert!(revised_warm.warm_started);
        assert_eq!(revised_warm.iterations, 0);
        assert_eq!(revised_warm.objective, dense.objective);
    }

    /// With no open row the crash is `init_basis`, and the cold solve is the
    /// dense solve pivot for pivot.
    fn assert_bit_identical_to_dense(lp: &LpProblem) {
        assert_eq!(StandardForm::<Ratio>::build(lp).crash_basis().open_rows, 0);
        let dense = dense::solve_exact(lp).unwrap();
        let revised = solve_exact(lp).unwrap();
        assert_eq!(revised.values, dense.values);
        assert_eq!(revised.objective, dense.objective);
        assert_eq!(revised.duals, dense.duals);
        assert_eq!(revised.basis, dense.basis);
        assert_eq!(revised.iterations, dense.iterations);
        assert_eq!(revised.phase1_iterations, dense.phase1_iterations);
    }

    /// Artificial columns left in the optimal basis of `lp`.
    fn basic_artificials(lp: &LpProblem, sol: &Solution<Ratio>) -> usize {
        let sf = StandardForm::<Ratio>::build(lp);
        sol.basis.cols.iter().filter(|&&c| sf.kinds[c] == ColKind::Artificial).count()
    }

    #[test]
    fn lu_roundtrip_on_a_dense_block() {
        // 3x3 invertible matrix as the basis of a 3x5 CSC.
        let a = CscMatrix::from_columns(
            3,
            vec![
                vec![(0, rat(2, 1)), (1, rat(1, 1))],
                vec![(0, rat(1, 1)), (2, rat(3, 1))],
                vec![(1, rat(4, 1)), (2, rat(1, 1))],
                vec![(0, rat(7, 1))],
                vec![(2, rat(1, 1))],
            ],
        );
        let lu = SparseLu::factorize(&a, &[0, 1, 2]).expect("nonsingular");
        assert_eq!(lu.dim(), 3);
        // B x = b with b = (5, 9, 10): check by substituting back.
        let b = vec![rat(5, 1), rat(9, 1), rat(10, 1)];
        let x = lu.ftran(b.clone());
        let mut back = vec![<Ratio as Scalar>::zero(); 3];
        for (pos, &col) in [0usize, 1, 2].iter().enumerate() {
            for (r, v) in a.col(col) {
                back[r] = back[r].add(&v.mul(&x[pos]));
            }
        }
        assert_eq!(back, b);
        // Bᵀ y = c: check by substituting back.
        let c = vec![rat(1, 1), rat(2, 1), rat(-1, 1)];
        let y = lu.btran(c.clone());
        for (pos, &col) in [0usize, 1, 2].iter().enumerate() {
            let mut dot = <Ratio as Scalar>::zero();
            for (r, v) in a.col(col) {
                dot = dot.add(&v.mul(&y[r]));
            }
            assert_eq!(dot, c[pos], "column {pos}");
        }
    }

    #[test]
    fn singular_basis_is_rejected() {
        let a = CscMatrix::from_columns(
            2,
            vec![vec![(0, rat(1, 1))], vec![(0, rat(2, 1))], vec![(1, rat(1, 1))]],
        );
        assert!(SparseLu::<Ratio>::factorize(&a, &[0, 1]).is_none());
        assert!(SparseLu::<Ratio>::factorize(&a, &[0, 2]).is_some());
    }

    /// Sparse `m × m` bases drawn from a fixed linear congruential stream.
    /// Column `j` of `A` has an entry in row `j mod m` and up to two more;
    /// the basis takes `m` distinct columns in random order, or, one time in
    /// eight, repeats one.  Triangular runs, nuclei of several sizes and
    /// singular picks all occur.
    fn random_bases<S: Scalar>(values: &[S]) -> Vec<(CscMatrix<S>, Vec<usize>)> {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut draw = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound
        };
        (0..1000)
            .map(|_| {
                let m = 1 + draw(16);
                let columns = (0..m + 3)
                    .map(|j| {
                        let mut col: Vec<(usize, S)> = Vec::new();
                        let extra: Vec<usize> = (0..draw(3)).map(|_| draw(m)).collect();
                        for r in std::iter::once(j % m).chain(extra) {
                            if col.iter().all(|&(row, _)| row != r) {
                                col.push((r, values[draw(values.len())].clone()));
                            }
                        }
                        col.sort_by_key(|&(r, _)| r);
                        col
                    })
                    .collect();
                let mut basis: Vec<usize> = (0..m + 3).collect();
                for i in (1..basis.len()).rev() {
                    basis.swap(i, draw(i + 1));
                }
                basis.truncate(m);
                if m > 1 && draw(8) == 0 {
                    basis[0] = basis[1];
                }
                (CscMatrix::from_columns(m, columns), basis)
            })
            .collect()
    }

    #[test]
    fn singleton_first_factors_are_the_search_factors_bit_for_bit() {
        let floats = [1.0, -1.0, 0.5, 3.0, -250.0, 0.001, 7.25];
        let (mut factorized, mut both_passes) = (0, 0);
        for (a, basis) in random_bases::<f64>(&floats) {
            let fast = SparseLu::factorize(&a, &basis);
            assert_eq!(fast, SparseLu::factorize_by_search(&a, &basis), "basis {basis:?} of {a:?}");
            let Some(lu) = fast else { continue };
            factorized += 1;
            // A first step that eliminates nothing was a singleton; a later
            // one that eliminates something ran in the nucleus.
            if lu.lower[0].is_empty() && lu.lower.iter().any(|l| !l.is_empty()) {
                both_passes += 1;
            }
        }
        assert!(factorized > 250, "only {factorized} of 1000 random bases factorize");
        assert!(both_passes > 80, "only {both_passes} factorizations used both passes");

        let ratios = [rat(1, 1), rat(-1, 1), rat(1, 2), rat(3, 1), rat(-250, 1), rat(1, 1000)];
        for (a, basis) in random_bases::<Ratio>(&ratios) {
            assert_eq!(
                SparseLu::factorize(&a, &basis),
                SparseLu::factorize_by_search(&a, &basis),
                "basis {basis:?} of {a:?}"
            );
        }
    }

    #[test]
    fn a_singular_refactorization_is_reported_as_such() {
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(x, rat(1, 1));
        lp.add_constraint("a", expr(&[(x, rat(2, 1)), (y, rat(1, 1))]), Sense::Le, rat(1, 1));
        lp.add_constraint("b", expr(&[(x, rat(1, 1)), (y, rat(3, 1))]), Sense::Le, rat(1, 1));
        let sf = StandardForm::<f64>::build(&lp);
        let options = RevisedOptions::default();
        let mut solver = Revised::install(&sf, sf.init_basis.clone(), &options).unwrap();
        // Round-off cannot be staged on demand; a repeated column is singular
        // in any arithmetic.
        solver.basic[1] = solver.basic[0];
        assert_eq!(solver.refactorize(), Err(SimplexError::SingularBasis));
        assert_eq!(
            SimplexError::SingularBasis.to_string(),
            "basis became numerically singular at refactorization"
        );
    }

    #[test]
    fn eta_update_matches_refactorization() {
        // Start from the identity basis of a 3-row matrix, pivot column 3 in
        // at position 1, and compare eta-file solves against a fresh LU of
        // the updated basis.
        let a = CscMatrix::from_columns(
            3,
            vec![
                vec![(0, rat(1, 1))],
                vec![(1, rat(1, 1))],
                vec![(2, rat(1, 1))],
                vec![(0, rat(1, 2)), (1, rat(3, 1)), (2, rat(-1, 1))],
            ],
        );
        let lu = SparseLu::factorize(&a, &[0, 1, 2]).unwrap();
        let w = lu.ftran(a.col_dense(3));
        let eta = Eta::from_dense(1, &w);

        let fresh = SparseLu::factorize(&a, &[0, 3, 2]).unwrap();
        let b = vec![rat(4, 1), rat(5, 1), rat(6, 1)];
        let mut via_eta = lu.ftran(b.clone());
        eta.apply_ftran(&mut via_eta);
        assert_eq!(via_eta, fresh.ftran(b));

        let c = vec![rat(1, 1), rat(-2, 1), rat(3, 1)];
        let mut z = c.clone();
        eta.apply_btran(&mut z);
        assert_eq!(lu.btran(z), fresh.btran(c));
    }

    #[test]
    fn matches_dense_on_basic_lps() {
        // Pure Le.
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(x, rat(3, 1));
        lp.set_objective(y, rat(2, 1));
        lp.add_constraint("c1", expr(&[(x, rat(1, 1)), (y, rat(1, 1))]), Sense::Le, rat(4, 1));
        lp.add_constraint("c2", expr(&[(x, rat(1, 1)), (y, rat(3, 1))]), Sense::Le, rat(6, 1));
        assert_bit_identical_to_dense(&lp);

        // Mixed senses and a minimization; every artificial row has a
        // nonzero rhs, so none is open.
        let mut lp = LpProblem::minimize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(x, rat(1, 1));
        lp.set_objective(y, rat(1, 1));
        lp.add_constraint("a", expr(&[(x, rat(1, 1)), (y, rat(2, 1))]), Sense::Ge, rat(4, 1));
        lp.add_constraint("b", expr(&[(x, rat(3, 1)), (y, rat(1, 1))]), Sense::Ge, rat(6, 1));
        assert_bit_identical_to_dense(&lp);

        // A zero-rhs equality (crashed) beside a negative rhs (phase 1).
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        let z = lp.add_var("z");
        lp.set_objective(z, rat(1, 1));
        lp.add_constraint("flow", expr(&[(x, rat(1, 1)), (y, rat(-1, 1))]), Sense::Eq, rat(0, 1));
        lp.add_constraint("capx", expr(&[(x, rat(3, 1))]), Sense::Le, rat(1, 1));
        lp.add_constraint("link", expr(&[(z, rat(1, 1)), (y, rat(-1, 1))]), Sense::Le, rat(0, 1));
        lp.add_constraint("neg", expr(&[(x, rat(-1, 1))]), Sense::Le, rat(-1, 100));
        assert_matches_dense(&lp);
    }

    #[test]
    fn error_verdicts_match_dense() {
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        lp.set_objective(x, rat(1, 1));
        lp.add_constraint("lo", expr(&[(x, rat(1, 1))]), Sense::Ge, rat(5, 1));
        lp.add_constraint("hi", expr(&[(x, rat(1, 1))]), Sense::Le, rat(3, 1));
        assert!(matches!(solve_exact(&lp), Err(SimplexError::Infeasible)));

        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(x, rat(1, 1));
        lp.add_constraint("only-y", expr(&[(y, rat(1, 1))]), Sense::Le, rat(1, 1));
        assert!(matches!(solve_exact(&lp), Err(SimplexError::Unbounded)));

        // The same verdicts behind a crashed zero-rhs row: phase 1 starts
        // from the crash basis and still proves `x = y >= 5, y <= 3` empty...
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(x, rat(1, 1));
        lp.add_constraint("flow", expr(&[(x, rat(1, 1)), (y, rat(-1, 1))]), Sense::Eq, rat(0, 1));
        lp.add_constraint("lo", expr(&[(x, rat(1, 1))]), Sense::Ge, rat(5, 1));
        lp.add_constraint("hi", expr(&[(y, rat(1, 1))]), Sense::Le, rat(3, 1));
        assert_eq!(dense::solve_exact(&lp).unwrap_err(), SimplexError::Infeasible);
        assert_eq!(solve_exact(&lp).unwrap_err(), SimplexError::Infeasible);

        // ... and phase 2 still finds `x = y >= 1` unbounded.
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(x, rat(1, 1));
        lp.add_constraint("flow", expr(&[(x, rat(1, 1)), (y, rat(-1, 1))]), Sense::Eq, rat(0, 1));
        lp.add_constraint("lo", expr(&[(x, rat(1, 1))]), Sense::Ge, rat(1, 1));
        assert_eq!(dense::solve_exact(&lp).unwrap_err(), SimplexError::Unbounded);
        assert_eq!(solve_exact(&lp).unwrap_err(), SimplexError::Unbounded);
    }

    #[test]
    fn crashed_rows_skip_phase1_and_nonzero_rows_still_run_it() {
        // Two-hop flow `src -> a -> b -> sink` with a delivery row: every
        // equality has rhs 0, the crash covers all three, phase 1 never runs.
        let mut lp = LpProblem::maximize();
        let f: Vec<_> = (0..3).map(|i| lp.add_var(format!("f{i}"))).collect();
        let tp = lp.add_var("tp");
        lp.set_objective(tp, rat(1, 1));
        for i in 0..2 {
            let e = expr(&[(f[i], rat(1, 1)), (f[i + 1], rat(-1, 1))]);
            lp.add_constraint(format!("cons{i}"), e, Sense::Eq, rat(0, 1));
        }
        lp.add_constraint(
            "deliver",
            expr(&[(f[2], rat(1, 1)), (tp, rat(-1, 1))]),
            Sense::Eq,
            rat(0, 1),
        );
        for (i, &v) in f.iter().enumerate() {
            lp.add_constraint(
                format!("cap{i}"),
                expr(&[(v, rat(i as i64 + 2, 1))]),
                Sense::Le,
                rat(1, 1),
            );
        }
        let crash = StandardForm::<Ratio>::build(&lp).crash_basis();
        assert_eq!((crash.open_rows, crash.covered), (3, 3));
        let sol = solve_exact(&lp).unwrap();
        assert_eq!(sol.phase1_iterations, 0);
        assert_eq!(sol.objective, rat(1, 4));
        assert_eq!(basic_artificials(&lp, &sol), 0);
        assert_matches_dense(&lp);

        // A floor with a nonzero rhs keeps its artificial, at a positive
        // level: phase 1 runs from the crash basis and the answer holds.
        lp.add_constraint("floor", expr(&[(f[0], rat(1, 1))]), Sense::Ge, rat(1, 8));
        let crash = StandardForm::<Ratio>::build(&lp).crash_basis();
        assert_eq!((crash.open_rows, crash.covered), (3, 3));
        let sol = solve_exact(&lp).unwrap();
        assert!(sol.phase1_iterations > 0);
        assert_eq!(sol.objective, rat(1, 4));
        assert_matches_dense(&lp);
    }

    #[test]
    fn rows_the_crash_cannot_reach_are_driven_out() {
        // Every column has three entries in open rows, so none is a crash
        // candidate.  The rows have rank 2 (`a = b = c`): drive-out replaces
        // two artificials and the redundant third stays basic at zero.
        let mut lp = LpProblem::maximize();
        let a = lp.add_var("a");
        let b = lp.add_var("b");
        let c = lp.add_var("c");
        lp.set_objective(a, rat(1, 1));
        let rows = [[1, 1, -2], [1, -2, 1], [-2, 1, 1]];
        for (i, row) in rows.iter().enumerate() {
            let e = expr(&[(a, rat(row[0], 1)), (b, rat(row[1], 1)), (c, rat(row[2], 1))]);
            lp.add_constraint(format!("tie{i}"), e, Sense::Eq, rat(0, 1));
        }
        lp.add_constraint("cap", expr(&[(a, rat(1, 1))]), Sense::Le, rat(1, 1));

        let crash = StandardForm::<Ratio>::build(&lp).crash_basis();
        assert_eq!((crash.open_rows, crash.covered), (3, 0));
        let sol = solve_exact(&lp).unwrap();
        assert_eq!(sol.phase1_iterations, 0);
        assert_eq!(sol.values, vec![rat(1, 1); 3]);
        assert_eq!(basic_artificials(&lp, &sol), 1);
        assert_matches_dense(&lp);
    }

    #[test]
    fn warm_start_semantics_match_dense() {
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(x, rat(1, 1));
        lp.set_objective(y, rat(1, 1));
        lp.add_constraint("a", expr(&[(x, rat(2, 1)), (y, rat(1, 1))]), Sense::Le, rat(1, 1));
        lp.add_constraint("b", expr(&[(x, rat(1, 1)), (y, rat(3, 1))]), Sense::Le, rat(1, 1));
        let cold = solve_exact(&lp).unwrap();

        // Re-solving warm from the optimal basis costs zero pivots.
        let warm = solve_warm(&lp, &cold.basis).unwrap();
        assert!(warm.warm_started);
        assert_eq!(warm.iterations, 0);
        assert_eq!(warm.values, cold.values);
        assert_eq!(warm.objective, cold.objective);
        assert_eq!(warm.duals, cold.duals);

        // The dense path accepts the revised basis and vice versa.
        let dense_warm = dense::solve_with_basis::<Ratio>(&lp, &cold.basis).unwrap();
        assert!(dense_warm.warm_started);
        assert_eq!(dense_warm.objective, cold.objective);
        let dense_cold = dense::solve_exact(&lp).unwrap();
        let revised_warm = solve_warm(&lp, &dense_cold.basis).unwrap();
        assert!(revised_warm.warm_started);
        assert_eq!(revised_warm.objective, cold.objective);

        // A garbage basis is silently discarded, matching the dense contract.
        let garbage = SolvedBasis { cols: vec![0, 0], num_cols: 4, n_structural: 2 };
        let fallback = solve_warm(&lp, &garbage).unwrap();
        assert!(!fallback.warm_started);
        assert_eq!(fallback.objective, cold.objective);
    }

    #[test]
    fn refactorization_interval_is_respected_and_harmless() {
        // Force a refactorization every other pivot; results must not change.
        let mut lp = LpProblem::maximize();
        let vars: Vec<_> = (0..6).map(|i| lp.add_var(format!("x{i}"))).collect();
        for (i, &v) in vars.iter().enumerate() {
            lp.set_objective(v, rat(1 + (i as i64 % 3), 1));
        }
        for i in 0..6 {
            let mut e = LinearExpr::new();
            e.add_term(vars[i], rat(2, 1));
            e.add_term(vars[(i + 1) % 6], rat(1, 1));
            lp.add_constraint(format!("c{i}"), e, Sense::Le, rat(3 + i as i64, 1));
        }
        let baseline = solve_exact(&lp).unwrap();
        let tight = RevisedOptions { refactor_interval: 2, ..Default::default() };
        let (sol, stats) =
            solve_revised_report_observed::<Ratio, _>(&lp, None, &tight, &mut NoopObserver)
                .unwrap();
        assert_eq!(sol.values, baseline.values);
        assert_eq!(sol.objective, baseline.objective);
        assert_eq!(sol.basis, baseline.basis);
        assert!(stats.refactorizations > 0, "tight interval must trigger refactorizations");
        assert!(stats.peak_eta <= 2);
        assert_bit_identical_to_dense(&lp);
    }

    #[test]
    fn f64_instantiation_reaches_the_same_optimum() {
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(x, rat(1, 1));
        lp.set_objective(y, rat(1, 1));
        lp.add_constraint("a", expr(&[(x, rat(2, 1)), (y, rat(1, 1))]), Sense::Le, rat(1, 1));
        lp.add_constraint("b", expr(&[(x, rat(1, 1)), (y, rat(3, 1))]), Sense::Le, rat(1, 1));
        let options = RevisedOptions::default();
        let (sol, _) =
            solve_revised_report_observed::<f64, _>(&lp, None, &options, &mut NoopObserver)
                .unwrap();
        assert!((sol.objective - 0.6).abs() < 1e-9);
    }

    /// maximize `c_x·x + c_y·y` s.t. `x + y <= b1`, `x + 3y <= b2`; at
    /// `(3, 2, 4, 6)` the optimum is `(4, 0)` with basis `{x, s2}`.
    fn sample_lp(c_x: i64, c_y: i64, b1: i64, b2: i64) -> LpProblem {
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(x, rat(c_x, 1));
        lp.set_objective(y, rat(c_y, 1));
        lp.add_constraint("c1", expr(&[(x, rat(1, 1)), (y, rat(1, 1))]), Sense::Le, rat(b1, 1));
        lp.add_constraint("c2", expr(&[(x, rat(1, 1)), (y, rat(3, 1))]), Sense::Le, rat(b2, 1));
        lp
    }

    #[test]
    fn probe_accepts_the_sample_optimum_and_rejects_a_drifted_objective() {
        let lp = sample_lp(3, 2, 4, 6);
        let basis = dense::solve_exact(&lp).unwrap().basis;
        assert!(basis_still_optimal(&lp, &basis));
        // Same basis under an objective drifted out of its range: no longer
        // optimal, and the probe says so without pivoting.
        assert!(!basis_still_optimal(&sample_lp(1, 2, 4, 6), &basis));
    }

    #[test]
    fn sample_cost_ranges_end_where_the_vertex_ties() {
        // c_x may drop to 2, where the vertex (3, 1) ties, and rise without
        // bound; c_y may rise to 3 (the same tie) and drop without bound.
        let basis = dense::solve_exact(&sample_lp(3, 2, 4, 6)).unwrap().basis;
        let holds = |c_x, c_y| basis_still_optimal(&sample_lp(c_x, c_y, 4, 6), &basis);
        assert!(holds(2, 2), "the ends are inclusive");
        assert!(!holds(1, 2));
        assert!(holds(1000, 2));
        assert!(holds(3, 3), "the ends are inclusive");
        assert!(!holds(3, 4));
        assert!(holds(3, -1000));
    }

    #[test]
    fn sample_rhs_ranges_end_where_a_basic_value_hits_zero() {
        // x = b1 and s2 = b2 - b1 stay non-negative for b1 in [0, 6] and b2
        // in [4, ∞).
        let basis = dense::solve_exact(&sample_lp(3, 2, 4, 6)).unwrap().basis;
        let holds = |b1, b2| basis_still_optimal(&sample_lp(3, 2, b1, b2), &basis);
        assert!(holds(0, 6));
        assert!(holds(6, 6), "the ends are inclusive");
        assert!(!holds(7, 6));
        assert!(holds(4, 4), "the ends are inclusive");
        assert!(!holds(4, 3));
        assert!(holds(4, 1000));
    }

    #[test]
    fn interior_cost_nudges_keep_the_vertex_and_exterior_ones_move_it() {
        let cold = dense::solve_exact(&sample_lp(3, 2, 4, 6)).unwrap();

        // Strictly inside the x-range: the probe holds and a cold re-solve
        // lands on the same vertex.
        let mut inside = sample_lp(3, 2, 4, 6);
        inside.set_objective(crate::model::VarId(0), rat(5, 2));
        assert!(basis_still_optimal(&inside, &cold.basis));
        assert_eq!(dense::solve_exact(&inside).unwrap().values, cold.values);

        // Strictly outside: the probe fails and the optimal vertex moves.
        let outside = sample_lp(1, 2, 4, 6);
        assert!(!basis_still_optimal(&outside, &cold.basis));
        assert_ne!(dense::solve_exact(&outside).unwrap().values, cold.values);
    }

    #[test]
    fn foreign_and_suboptimal_bases_are_rejected() {
        let lp = sample_lp(3, 2, 4, 6);
        let foreign = SolvedBasis { cols: vec![0, 1, 2], num_cols: 9, n_structural: 3 };
        assert!(!basis_still_optimal(&lp, &foreign));
        // The all-slack basis is feasible but not optimal.
        let slack = SolvedBasis { cols: vec![2, 3], num_cols: 4, n_structural: 2 };
        assert!(!basis_still_optimal(&lp, &slack));
    }

    #[test]
    fn minimization_optimum_holds_to_the_ends_of_its_cost_ranges() {
        // minimize c_x·x + c_y·y s.t. x + 2y >= 4, 3x + y >= 6: at (1, 1)
        // the optimum is (8/5, 6/5), optimal while c_x / c_y lies in [1/2, 3].
        let lp = |c_x: Ratio, c_y: Ratio| {
            let mut lp = LpProblem::minimize();
            let x = lp.add_var("x");
            let y = lp.add_var("y");
            lp.set_objective(x, c_x);
            lp.set_objective(y, c_y);
            lp.add_constraint("a", expr(&[(x, rat(1, 1)), (y, rat(2, 1))]), Sense::Ge, rat(4, 1));
            lp.add_constraint("b", expr(&[(x, rat(3, 1)), (y, rat(1, 1))]), Sense::Ge, rat(6, 1));
            lp
        };
        let basis = dense::solve_exact(&lp(rat(1, 1), rat(1, 1))).unwrap().basis;
        let holds = |c_x, c_y| basis_still_optimal(&lp(c_x, c_y), &basis);
        assert!(holds(rat(1, 1), rat(1, 1)));
        for (inside, outside) in [(rat(1, 2), rat(49, 100)), (rat(3, 1), rat(301, 100))] {
            assert!(holds(inside.clone(), rat(1, 1)));
            assert!(!holds(outside.clone(), rat(1, 1)));
        }
        for (inside, outside) in [(rat(1, 3), rat(33, 100)), (rat(2, 1), rat(201, 100))] {
            assert!(holds(rat(1, 1), inside));
            assert!(!holds(rat(1, 1), outside));
        }
    }

    #[test]
    fn negated_rows_keep_the_basis_to_the_ends_of_their_rhs_ranges() {
        // maximize x s.t. -x <= b0 (i.e. x >= -b0), x <= b1: at (-2, 5) the
        // optimum is x = 5, with the floor's surplus 5 + b0 basic.
        let lp = |b0: Ratio, b1: Ratio| {
            let mut lp = LpProblem::maximize();
            let x = lp.add_var("x");
            lp.set_objective(x, rat(1, 1));
            lp.add_constraint("neg", expr(&[(x, rat(-1, 1))]), Sense::Le, b0);
            lp.add_constraint("cap", expr(&[(x, rat(1, 1))]), Sense::Le, b1);
            lp
        };
        let basis = dense::solve_exact(&lp(rat(-2, 1), rat(5, 1))).unwrap().basis;
        let holds = |b0, b1| basis_still_optimal(&lp(b0, b1), &basis);
        // The floor may drop to -5, where it meets the cap, and not below.
        assert!(holds(rat(-5, 1), rat(5, 1)));
        assert!(!holds(rat(-51, 10), rat(5, 1)));
        // It may rise to just under 0; at 0 the row is no longer negated, so
        // the standard form loses its artificial and the basis no longer fits.
        assert!(holds(rat(-1, 100), rat(5, 1)));
        assert!(!holds(rat(0, 1), rat(5, 1)));
        // The cap binds: it may shrink to 2, and not below.
        assert!(holds(rat(-2, 1), rat(2, 1)));
        assert!(!holds(rat(-2, 1), rat(19, 10)));
    }

    #[test]
    fn redundant_equality_rows_are_pinned() {
        // x + y == b1 and x + y == b2: the duplicate keeps a basic artificial
        // at zero, so neither rhs may move off 2 on its own.
        let lp = |b1: Ratio, b2: Ratio| {
            let mut lp = LpProblem::maximize();
            let x = lp.add_var("x");
            let y = lp.add_var("y");
            lp.set_objective(x, rat(1, 1));
            lp.add_constraint("e1", expr(&[(x, rat(1, 1)), (y, rat(1, 1))]), Sense::Eq, b1);
            lp.add_constraint("e2", expr(&[(x, rat(1, 1)), (y, rat(1, 1))]), Sense::Eq, b2);
            lp
        };
        let basis = dense::solve_exact(&lp(rat(2, 1), rat(2, 1))).unwrap().basis;
        assert!(basis_still_optimal(&lp(rat(2, 1), rat(2, 1)), &basis));
        for moved in [rat(1999, 1000), rat(2001, 1000)] {
            assert!(!basis_still_optimal(&lp(moved.clone(), rat(2, 1)), &basis));
            assert!(!basis_still_optimal(&lp(rat(2, 1), moved), &basis));
        }
        // {x, y} fits the standard form but is singular.
        let singular = SolvedBasis { cols: vec![0, 1], num_cols: 4, n_structural: 2 };
        assert!(!basis_still_optimal(&lp(rat(2, 1), rat(2, 1)), &singular));
    }
}
