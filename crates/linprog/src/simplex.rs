//! The vocabulary every simplex run shares, and the tests' dense oracle.
//!
//! Every production solve runs on the revised sparse simplex
//! ([`crate::revised`]): the certified primal route, the exact fallback and
//! the dual simplex behind drift triage.  This module holds what those runs
//! report and accept — [`SolvedBasis`], [`Solution`], [`SimplexError`],
//! [`SimplexOptions`] and [`DualOutcome`] — and the standard-form helpers
//! `effective_sense` and `clamp_nonneg`.
//!
//! Under `#[cfg(test)]` it also holds `dense`, the classical dense tableau
//! simplex: constraints brought to equality standard form with
//! slack/surplus/artificial variables, phase 1 minimizing the sum of
//! artificials, phase 2 the real objective, Dantzig's rule switching to
//! Bland's after a configurable number of pivots.  It updates all `m · n`
//! entries at every pivot, so it never serves; it is the reference the
//! revised solver must reproduce pivot for pivot from the same basis.

use crate::model::Sense;
use crate::scalar::Scalar;

/// Errors produced by the simplex solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimplexError {
    /// The problem is infeasible.
    Infeasible,
    /// The objective is unbounded.
    Unbounded,
    /// The iteration limit was exceeded (should not happen with Bland's rule;
    /// kept as a defensive backstop).
    IterationLimit {
        /// Number of pivots performed before giving up.
        iterations: usize,
    },
    /// The revised solver could not refactorize its current basis: in `f64`,
    /// round-off has made it numerically singular.  Exact arithmetic never
    /// reports it; the certified pipeline falls back to an exact re-solve.
    SingularBasis,
}

impl std::fmt::Display for SimplexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimplexError::Infeasible => write!(f, "linear program is infeasible"),
            SimplexError::Unbounded => write!(f, "linear program is unbounded"),
            SimplexError::IterationLimit { iterations } => {
                write!(f, "simplex iteration limit exceeded after {iterations} pivots")
            }
            SimplexError::SingularBasis => {
                write!(f, "basis became numerically singular at refactorization")
            }
        }
    }
}

impl std::error::Error for SimplexError {}

/// The final basis of a solved LP, in the solver's equality standard form.
///
/// A basis is the partition of the standard-form columns (structural
/// variables first, then slacks, then artificials) into `m` *basic* columns —
/// one per constraint row, recorded here in row order — and the rest, which
/// are non-basic at zero.  It is the piece of solver state worth keeping
/// between solves: [`solve_certified_warm`](crate::solve_certified_warm)
/// resumes the simplex from a previously optimal basis, which on a problem
/// that differs only in its numeric data (e.g. perturbed edge costs) is
/// usually optimal or near-optimal already.
///
/// # Invariants
///
/// * `cols.len()` equals the number of constraint rows of the problem the
///   basis was extracted from, and `cols[i]` is the column basic in row `i`.
/// * Every entry is unique and `< num_cols`; `num_cols` and `n_structural`
///   describe the standard form (total columns / structural prefix) and are
///   used by every warm install to reject a basis from a *structurally
///   different* problem before attempting to install it.
/// * A basis is advisory, never load-bearing: installing it on a compatible
///   problem yields a starting vertex, after which the simplex re-optimizes
///   to provable optimality.  A basis that turns out to be singular or primal
///   infeasible for the new data is discarded and the solve falls back to
///   the ordinary two-phase method, so a stale or even corrupted basis can
///   cost time but can never change the reported optimum.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolvedBasis {
    /// Basic column of each constraint row, in row order.
    pub cols: Vec<usize>,
    /// Total number of standard-form columns (structural + slack + artificial).
    pub num_cols: usize,
    /// Number of structural (user-declared) columns.
    pub n_structural: usize,
}

impl SolvedBasis {
    /// Shape check before any install: one column per row, the same
    /// standard form, and in-range, duplicate-free columns.
    pub(crate) fn fits(&self, rows: usize, num_cols: usize, n_structural: usize) -> bool {
        self.cols.len() == rows
            && self.num_cols == num_cols
            && self.n_structural == n_structural
            && self.cols.iter().all(|&c| c < num_cols)
            && {
                let mut sorted = self.cols.clone();
                sorted.sort_unstable();
                sorted.windows(2).all(|w| w[0] != w[1])
            }
    }

    /// Serializes the basis as a single JSON object
    /// (`{"cols":[...],"num_cols":N,"n_structural":K}`).
    pub fn to_json(&self) -> String {
        let cols: Vec<String> = self.cols.iter().map(|c| c.to_string()).collect();
        format!(
            "{{\"cols\":[{}],\"num_cols\":{},\"n_structural\":{}}}",
            cols.join(","),
            self.num_cols,
            self.n_structural
        )
    }

    /// Parses the representation produced by [`SolvedBasis::to_json`].
    pub fn from_json(text: &str) -> Result<SolvedBasis, String> {
        let field = |name: &str| -> Result<&str, String> {
            let tag = format!("\"{name}\":");
            let start =
                text.find(&tag).ok_or_else(|| format!("missing field '{name}'"))? + tag.len();
            let rest = &text[start..];
            let end =
                rest.find([',', '}']).ok_or_else(|| format!("unterminated field '{name}'"))?;
            Ok(rest[..end].trim())
        };
        let cols_start =
            text.find("\"cols\":[").ok_or_else(|| "missing field 'cols'".to_string())? + 8;
        let cols_end =
            text[cols_start..].find(']').ok_or_else(|| "unterminated 'cols' array".to_string())?
                + cols_start;
        let body = text[cols_start..cols_end].trim();
        let cols = if body.is_empty() {
            Vec::new()
        } else {
            body.split(',')
                .map(|c| c.trim().parse::<usize>().map_err(|e| format!("bad column: {e}")))
                .collect::<Result<Vec<usize>, String>>()?
        };
        let num_cols =
            field("num_cols")?.parse::<usize>().map_err(|e| format!("bad num_cols: {e}"))?;
        let n_structural = field("n_structural")?
            .parse::<usize>()
            .map_err(|e| format!("bad n_structural: {e}"))?;
        Ok(SolvedBasis { cols, num_cols, n_structural })
    }
}

/// Solution of a linear program in scalar type `S`.
#[derive(Debug, Clone)]
pub struct Solution<S> {
    /// Values of the structural (user-declared) variables.
    pub values: Vec<S>,
    /// Objective value in the problem's own direction.
    pub objective: S,
    /// Dual value per original constraint, in the problem's own direction:
    /// for a maximization `>= 0` on `<=` rows and `<= 0` on `>=` rows, for a
    /// minimization the reverse, free on `==` rows — the convention
    /// [`check_optimal`](crate::exact::check_optimal) verifies.
    pub duals: Vec<S>,
    /// Number of simplex pivots performed (both phases).
    pub iterations: usize,
    /// Number of those pivots spent in phase 1 (feasibility search).
    pub phase1_iterations: usize,
    /// `true` when the solve resumed from a supplied [`SolvedBasis`] (the
    /// basis installed cleanly and was primal feasible for this data).
    pub warm_started: bool,
    /// The final basis, reusable to warm-start a structurally identical solve.
    pub basis: SolvedBasis,
}

impl<S: Scalar> Solution<S> {
    /// Value of variable `v` as `f64` (reporting convenience).
    pub fn value_f64(&self, v: crate::model::VarId) -> f64 {
        self.values[v.index()].to_f64()
    }
}

/// Tunable parameters of the solver.
#[derive(Debug, Clone)]
pub struct SimplexOptions {
    /// Hard cap on the number of pivots (defensive; default `50 (m + n) + 10_000`
    /// when `None`).
    pub max_iterations: Option<usize>,
    /// Number of Dantzig-rule pivots before switching to Bland's rule.
    pub bland_after: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions { max_iterations: None, bland_after: 10_000 }
    }
}

/// How [`solve_revised_dual_report_observed`](crate::revised::solve_revised_dual_report_observed)
/// ended up using the supplied basis.
///
/// The variants order the outcomes from cheapest to most expensive; the
/// serving layer's drift triage maps them onto its `InRange` / `DualRepair`
/// / `Resolve` classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DualOutcome {
    /// The basis installed cleanly and was still both primal and dual
    /// feasible for the new data: the old vertex is still optimal, zero
    /// pivots were spent, the solution was merely re-priced.
    StillOptimal,
    /// The basis installed primal-infeasible but dual-feasible — the classic
    /// post-perturbation shape — and dual simplex pivots repaired it in
    /// place without ever leaving the dual-feasible region.
    DualRepaired {
        /// Dual pivots spent restoring primal feasibility.
        pivots: usize,
    },
    /// The basis installed primal-feasible but no longer dual-feasible (the
    /// perturbation moved the optimum); ordinary primal phase-2 pivots
    /// re-optimized from the installed vertex.
    PrimalReoptimized {
        /// Primal pivots spent reaching the new optimum.
        pivots: usize,
    },
    /// The basis could not be exploited (incompatible shape, singular for
    /// the new data, an artificial left basic at a positive value, or
    /// neither primal- nor dual-feasible); the result comes from a fresh
    /// two-phase solve — or, for the positive-artificial case, a phase-1
    /// restart from the installed point.
    FellBack,
}

/// Clamp tiny negative values (f64 round-off) to zero; exact scalars pass through.
pub(crate) fn clamp_nonneg<S: Scalar>(v: S) -> S {
    if v.is_negative() || v.is_zero() {
        // For exact arithmetic a negative basic value cannot happen (the ratio
        // test preserves rhs >= 0); for f64 it can be a tiny negative epsilon.
        if v.to_f64() < 0.0 {
            S::zero()
        } else {
            v
        }
    } else {
        v
    }
}

/// Sense after multiplying a constraint by -1 when its rhs is negative.
pub(crate) fn effective_sense(sense: Sense, negated: bool) -> Sense {
    if !negated {
        return sense;
    }
    match sense {
        Sense::Le => Sense::Ge,
        Sense::Ge => Sense::Le,
        Sense::Eq => Sense::Eq,
    }
}

#[cfg(test)]
pub(crate) mod dense {
    use super::*;
    use crate::instrument::{
        NoopObserver, PivotKind, PivotRule, SolveEvent, SolveObserver, SolvePhase,
    };
    use crate::model::{LpProblem, Objective};
    use crate::revised::DualRun;
    use crate::sparse::ColKind;
    use steady_rational::Ratio;

    /// Solves `problem` cold from the slack/artificial identity.
    pub fn solve<S: Scalar>(problem: &LpProblem) -> Result<Solution<S>, SimplexError> {
        solve_with_options_observed(problem, &SimplexOptions::default(), &mut NoopObserver)
    }

    /// [`solve`] in `f64` arithmetic.
    pub fn solve_f64(problem: &LpProblem) -> Result<Solution<f64>, SimplexError> {
        solve(problem)
    }

    /// [`solve`] in exact rational arithmetic.
    pub fn solve_exact(problem: &LpProblem) -> Result<Solution<Ratio>, SimplexError> {
        solve(problem)
    }

    /// [`solve`] with explicit options and a [`SolveObserver`] tap on the run.
    pub fn solve_with_options_observed<S: Scalar, O: SolveObserver>(
        problem: &LpProblem,
        options: &SimplexOptions,
        obs: &mut O,
    ) -> Result<Solution<S>, SimplexError> {
        if O::ENABLED {
            obs.on_event(SolveEvent::RunStarted);
        }
        Tableau::<S>::build(problem).run(problem, options, false, obs)
    }

    /// Primal warm start: resumes from `basis` when it installs primal
    /// feasible, and otherwise solves cold.
    pub fn solve_with_basis<S: Scalar>(
        problem: &LpProblem,
        basis: &SolvedBasis,
    ) -> Result<Solution<S>, SimplexError> {
        let options = SimplexOptions::default();
        let mut tableau = Tableau::<S>::build(problem);
        if basis.fits(tableau.num_rows(), tableau.num_cols(), tableau.n_structural)
            && tableau.install_basis(&basis.cols)
            && tableau.rhs.iter().all(|b| !b.is_negative())
        {
            return tableau.run(problem, &options, true, &mut NoopObserver);
        }
        // The install pivoted the tableau partway; rebuild and solve cold.
        Tableau::<S>::build(problem).run(problem, &options, false, &mut NoopObserver)
    }

    /// The dual warm start, rung for rung the ladder of
    /// [`crate::revised::solve_revised_dual_report_observed`], whose
    /// [`DualOutcome`], pivots and answer it is the reference for.
    pub fn solve_dual_with_basis<S: Scalar>(
        problem: &LpProblem,
        basis: &SolvedBasis,
    ) -> Result<(Solution<S>, DualOutcome), SimplexError> {
        let options = SimplexOptions::default();
        let obs = &mut NoopObserver;
        let cold = || Tableau::<S>::build(problem).run(problem, &options, false, &mut NoopObserver);
        let mut tableau = Tableau::<S>::build(problem);
        if !basis.fits(tableau.num_rows(), tableau.num_cols(), tableau.n_structural)
            || !tableau.install_basis(&basis.cols)
        {
            return Ok((cold()?, DualOutcome::FellBack));
        }
        tableau.drive_out_artificials();
        let positive_artificial = (0..tableau.num_rows()).any(|i| {
            tableau.kinds[tableau.basis[i]] == ColKind::Artificial && tableau.rhs[i].is_positive()
        });
        if positive_artificial {
            return Ok((tableau.run(problem, &options, true, obs)?, DualOutcome::FellBack));
        }

        let primal_feasible = tableau.rhs.iter().all(|b| !b.is_negative());
        let allowed: Vec<bool> = tableau.kinds.iter().map(|k| *k != ColKind::Artificial).collect();
        let costs = tableau.costs.clone();
        let mut reduced = tableau.reduced_cost_row(&costs);
        let dual_feasible = tableau.choose_entering(&reduced, &allowed, false).is_none();
        let mut iterations = 0usize;
        let phase2 = SolvePhase::Phase2;
        let outcome = match (primal_feasible, dual_feasible) {
            (true, true) => DualOutcome::StillOptimal,
            (true, false) => {
                tableau.optimize(&costs, &allowed, &options, &mut iterations, phase2, obs)?;
                DualOutcome::PrimalReoptimized { pivots: iterations }
            }
            (false, true) => {
                match tableau.dual_optimize(
                    &allowed,
                    &mut reduced,
                    &options,
                    &mut iterations,
                    obs,
                )? {
                    DualRun::Restored => {
                        let pivots = iterations;
                        tableau.optimize(
                            &costs,
                            &allowed,
                            &options,
                            &mut iterations,
                            phase2,
                            obs,
                        )?;
                        DualOutcome::DualRepaired { pivots }
                    }
                    DualRun::RatioTestFailed => return Ok((cold()?, DualOutcome::FellBack)),
                }
            }
            (false, false) => return Ok((cold()?, DualOutcome::FellBack)),
        };
        Ok((tableau.finish(problem, iterations, 0, true), outcome))
    }

    /// Dense standard-form tableau.
    struct Tableau<S> {
        /// `rows[i]` holds the coefficients of row `i` over all columns.
        rows: Vec<Vec<S>>,
        /// Right-hand side per row (kept separately; always `>= 0` in exact
        /// arithmetic, up to tolerance in `f64`).
        rhs: Vec<S>,
        /// Index of the basic column of each row.
        basis: Vec<usize>,
        /// Kind of every column.
        kinds: Vec<ColKind>,
        /// Phase-2 objective coefficient per column (maximization form).
        costs: Vec<S>,
        /// Column that formed the initial identity of each row (used to read the duals).
        init_col: Vec<usize>,
        /// Whether the original constraint was negated during rhs normalization.
        negated: Vec<bool>,
        /// Number of structural columns.
        n_structural: usize,
    }

    impl<S: Scalar> Tableau<S> {
        fn build(problem: &LpProblem) -> Self {
            let n = problem.num_vars();
            let m = problem.num_constraints();

            // Count extra columns.
            let mut n_slack = 0;
            let mut n_art = 0;
            for c in problem.constraints() {
                let rhs_neg = c.rhs.is_negative();
                let sense = effective_sense(c.sense, rhs_neg);
                match sense {
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

            // Phase-2 costs: maximization form.
            let flip = matches!(problem.direction(), Objective::Minimize);
            let mut costs = vec![S::zero(); total_cols];
            for (j, c) in problem.objective_vector().iter().enumerate() {
                let v = S::from_ratio(c);
                costs[j] = if flip { v.neg() } else { v };
            }

            let mut rows = Vec::with_capacity(m);
            let mut rhs = Vec::with_capacity(m);
            let mut basis = Vec::with_capacity(m);
            let mut init_col = Vec::with_capacity(m);
            let mut negated = Vec::with_capacity(m);

            let mut next_slack = n;
            let mut next_art = n + n_slack;

            for c in problem.constraints() {
                let rhs_neg = c.rhs.is_negative();
                let sense = effective_sense(c.sense, rhs_neg);
                let mut row = vec![S::zero(); total_cols];
                for (v, coeff) in c.expr.terms() {
                    let val = S::from_ratio(coeff);
                    row[v.index()] = if rhs_neg { val.neg() } else { val };
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
                        row[next_slack] = S::one();
                        basis.push(next_slack);
                        init_col.push(next_slack);
                        next_slack += 1;
                    }
                    Sense::Ge => {
                        row[next_slack] = S::one().neg();
                        next_slack += 1;
                        row[next_art] = S::one();
                        basis.push(next_art);
                        init_col.push(next_art);
                        next_art += 1;
                    }
                    Sense::Eq => {
                        row[next_art] = S::one();
                        basis.push(next_art);
                        init_col.push(next_art);
                        next_art += 1;
                    }
                }
                rows.push(row);
                rhs.push(b);
                negated.push(rhs_neg);
            }

            Tableau { rows, rhs, basis, kinds, costs, init_col, negated, n_structural: n }
        }

        fn num_rows(&self) -> usize {
            self.rows.len()
        }

        fn num_cols(&self) -> usize {
            self.kinds.len()
        }

        /// Performs a pivot on (`row`, `col`).
        fn pivot(&mut self, row: usize, col: usize) {
            let pivot_val = self.rows[row][col].clone();
            debug_assert!(!pivot_val.is_zero(), "pivot on a zero entry");
            // Normalize the pivot row.
            for v in self.rows[row].iter_mut() {
                if !v.is_zero() {
                    *v = v.div(&pivot_val);
                }
            }
            self.rhs[row] = self.rhs[row].div(&pivot_val);
            self.rows[row][col] = S::one();

            // Eliminate the pivot column from all other rows.
            for i in 0..self.num_rows() {
                if i == row {
                    continue;
                }
                let factor = self.rows[i][col].clone();
                if factor.is_zero() {
                    continue;
                }
                let (pivot_row, other_row) = if i < row {
                    let (a, b) = self.rows.split_at_mut(row);
                    (&b[0], &mut a[i])
                } else {
                    let (a, b) = self.rows.split_at_mut(i);
                    (&a[row], &mut b[0])
                };
                for (dst, src) in other_row.iter_mut().zip(pivot_row.iter()) {
                    if !src.is_zero() {
                        *dst = dst.sub(&factor.mul(src));
                    }
                }
                other_row[col] = S::zero();
                self.rhs[i] = self.rhs[i].sub(&factor.mul(&self.rhs[row]));
            }
            self.basis[row] = col;
        }

        /// Reduced cost of column `j` w.r.t. the cost vector `costs`:
        /// `r_j = c_j - sum_i c_{basis[i]} * T[i][j]`.
        fn reduced_cost(&self, costs: &[S], j: usize) -> S {
            let mut acc = costs[j].clone();
            for i in 0..self.num_rows() {
                let cb = &costs[self.basis[i]];
                if cb.is_zero() {
                    continue;
                }
                let t = &self.rows[i][j];
                if t.is_zero() {
                    continue;
                }
                acc = acc.sub(&cb.mul(t));
            }
            acc
        }

        /// Full vector of reduced costs (computed from scratch, `O(m n)`).  Used
        /// once per phase; afterwards the vector is updated incrementally at each
        /// pivot so that the entering-column choice costs `O(n)`.
        fn reduced_cost_row(&self, costs: &[S]) -> Vec<S> {
            (0..self.num_cols()).map(|j| self.reduced_cost(costs, j)).collect()
        }

        /// Chooses the entering column: Dantzig (largest reduced cost) or Bland
        /// (smallest index with positive reduced cost).  Columns for which
        /// `allowed` is false never enter.
        fn choose_entering(&self, reduced: &[S], allowed: &[bool], bland: bool) -> Option<usize> {
            let mut best: Option<(usize, &S)> = None;
            for (j, r) in reduced.iter().enumerate() {
                if !allowed[j] {
                    continue;
                }
                if r.is_positive() {
                    if bland {
                        return Some(j);
                    }
                    match &best {
                        None => best = Some((j, r)),
                        Some((_, rb)) if rb.lt(r) => best = Some((j, r)),
                        _ => {}
                    }
                }
            }
            best.map(|(j, _)| j)
        }

        /// Ratio test: returns the leaving row, or `None` if the column is
        /// unbounded.  Ties are broken by the smallest basic variable index
        /// (lexicographic protection together with Bland's entering rule).
        fn choose_leaving(&self, col: usize) -> Option<usize> {
            let mut best: Option<(usize, S)> = None;
            for i in 0..self.num_rows() {
                let a = &self.rows[i][col];
                if !a.is_positive() {
                    continue;
                }
                let ratio = self.rhs[i].div(a);
                match &best {
                    None => best = Some((i, ratio)),
                    Some((bi, br)) => {
                        if ratio.lt(br) || (!br.lt(&ratio) && self.basis[i] < self.basis[*bi]) {
                            best = Some((i, ratio));
                        }
                    }
                }
            }
            best.map(|(i, _)| i)
        }

        /// Runs simplex iterations with the given cost vector until optimality.
        ///
        /// The reduced-cost row is computed once and updated incrementally at each
        /// pivot, so that an iteration costs `O(m n)` for the pivot itself plus
        /// `O(n)` for pricing (instead of `O(m n)` pricing per iteration).
        fn optimize<O: SolveObserver>(
            &mut self,
            costs: &[S],
            allowed: &[bool],
            options: &SimplexOptions,
            iterations: &mut usize,
            phase: SolvePhase,
            obs: &mut O,
        ) -> Result<(), SimplexError> {
            let default_cap = 50 * (self.num_rows() + self.num_cols()) + 10_000;
            let cap = options.max_iterations.unwrap_or(default_cap);
            let mut reduced = self.reduced_cost_row(costs);
            loop {
                if *iterations > cap {
                    return Err(SimplexError::IterationLimit { iterations: *iterations });
                }
                let bland = *iterations >= options.bland_after;
                let Some(col) = self.choose_entering(&reduced, allowed, bland) else {
                    return Ok(());
                };
                let Some(row) = self.choose_leaving(col) else {
                    return Err(SimplexError::Unbounded);
                };
                if O::ENABLED {
                    obs.on_event(SolveEvent::Pivot {
                        phase,
                        kind: PivotKind::Primal,
                        rule: if bland { PivotRule::Bland } else { PivotRule::Dantzig },
                        entering: col,
                        leaving: self.basis[row],
                        degenerate: self.rhs[row].is_zero(),
                    });
                }
                let entering_cost = reduced[col].clone();
                self.pivot(row, col);
                // r <- r - r[col] * (normalized pivot row).
                for (r, t) in reduced.iter_mut().zip(self.rows[row].iter()) {
                    if !t.is_zero() {
                        *r = r.sub(&entering_cost.mul(t));
                    }
                }
                reduced[col] = S::zero();
                *iterations += 1;
            }
        }

        /// Attempts to pivot the tableau onto the supplied basis, ending with
        /// column `cols[i]` basic in row `i`.  Targets whose pivot entry is currently zero are
        /// retried after other installs create fill-in; if a full pass makes no
        /// progress the basis is singular for this problem's data and `false` is
        /// returned (the tableau is then partially pivoted and must be discarded).
        /// A successful install says nothing about primal feasibility: the
        /// induced vertex may have negative basic values, which the *primal*
        /// simplex cannot start from (its ratio test assumes `rhs >= 0`) but the
        /// *dual* simplex repairs — callers check `rhs` themselves.
        fn install_basis(&mut self, cols: &[usize]) -> bool {
            let m = self.num_rows();
            let target: std::collections::HashSet<usize> = cols.iter().copied().collect();
            // A basis is a *set* of columns; which row each one ends up basic in
            // is irrelevant (the tableau is the same up to row order), and fixing
            // the row assignment up front would wrongly fail on bases that
            // permute the current one.  Rows already holding a target column are
            // claimed; every other target is pivoted into some unclaimed row.
            let mut claimed: Vec<bool> = (0..m).map(|i| target.contains(&self.basis[i])).collect();
            let mut pending: Vec<usize> = {
                let basic: std::collections::HashSet<usize> = self.basis.iter().copied().collect();
                cols.iter().copied().filter(|c| !basic.contains(c)).collect()
            };
            // Multi-pass: a pivot creates fill-in that can unlock a target column
            // whose entries in the unclaimed rows were all zero so far.
            while !pending.is_empty() {
                let before = pending.len();
                pending.retain(|&c| {
                    // Pick the unclaimed row with the largest pivot magnitude —
                    // in exact arithmetic any non-zero works, in f64 it keeps the
                    // reconstruction well-conditioned.
                    let row = (0..m).filter(|&r| !claimed[r] && !self.rows[r][c].is_zero()).max_by(
                        |&a, &b| {
                            let (va, vb) =
                                (self.rows[a][c].to_f64().abs(), self.rows[b][c].to_f64().abs());
                            va.partial_cmp(&vb).unwrap_or(std::cmp::Ordering::Equal)
                        },
                    );
                    match row {
                        Some(r) => {
                            self.pivot(r, c);
                            claimed[r] = true;
                            false
                        }
                        None => true,
                    }
                });
                if pending.len() == before {
                    return false;
                }
            }
            // Reorder the rows so that row `i` holds `cols[i]`, as the
            // revised solver's basis position `i` does: the system is the
            // same, and the row-order tie-breaks then agree with it.
            let mut row_of = vec![0; self.num_cols()];
            for (r, &c) in self.basis.iter().enumerate() {
                row_of[c] = r;
            }
            let mut rows = std::mem::take(&mut self.rows);
            self.rows = cols.iter().map(|&c| std::mem::take(&mut rows[row_of[c]])).collect();
            self.rhs = cols.iter().map(|&c| self.rhs[row_of[c]].clone()).collect();
            self.basis = cols.to_vec();
            true
        }

        /// Drives artificial variables out of the basis where possible so later
        /// pivots only touch real columns.  Rows where no real column has a
        /// non-zero entry are redundant: their artificial stays basic and —
        /// because every entry an allowed entering column could contribute is
        /// zero there — its value can never change again.  Shared by the
        /// two-phase path (between phases) and the warm dual path (right after
        /// a basis install, where skipping it would let later pivots push a
        /// basic artificial positive and corrupt the reported optimum).
        fn drive_out_artificials(&mut self) {
            for i in 0..self.num_rows() {
                if self.kinds[self.basis[i]] != ColKind::Artificial {
                    continue;
                }
                let replacement = (0..self.num_cols())
                    .find(|&j| self.kinds[j] != ColKind::Artificial && !self.rows[i][j].is_zero());
                if let Some(j) = replacement {
                    self.pivot(i, j);
                }
            }
        }

        /// Runs **dual simplex** iterations until primal feasibility is restored
        /// (`rhs >= 0`), assuming the current basis is dual feasible (all allowed
        /// reduced costs `<= 0`).  Each iteration picks a leaving row with a
        /// negative basic value (most negative first, smallest basic index under
        /// the anti-cycling rule) and an entering column by the dual ratio test —
        /// the allowed column with a negative entry in that row minimizing
        /// `reduced / entry`, which keeps every reduced cost non-positive — so
        /// the first primal-feasible basis reached is optimal.
        ///
        /// Returns [`DualRun::RatioTestFailed`] when a leaving row has no
        /// negative entry in any allowed column: the dual is unbounded, i.e. the
        /// primal is infeasible (callers re-verify that verdict from scratch).
        ///
        /// `reduced` is the caller's already-computed reduced-cost row for the
        /// phase-2 objective (the dual-feasibility probe needs it anyway); it is
        /// updated incrementally at each pivot, so no `O(m n)` re-pricing
        /// happens here.
        ///
        /// Pivot events are buffered and flushed only on [`DualRun::Restored`]:
        /// pivots of a run that ends in [`DualRun::RatioTestFailed`] are thrown
        /// away together with the tableau (the caller re-solves cold and reports
        /// the fresh run's counts), so emitting them would break the
        /// events-equal-iterations conservation contract.
        fn dual_optimize<O: SolveObserver>(
            &mut self,
            allowed: &[bool],
            reduced: &mut [S],
            options: &SimplexOptions,
            iterations: &mut usize,
            obs: &mut O,
        ) -> Result<DualRun, SimplexError> {
            let default_cap = 50 * (self.num_rows() + self.num_cols()) + 10_000;
            let cap = options.max_iterations.unwrap_or(default_cap);
            let mut pending: Vec<SolveEvent> = Vec::new();
            loop {
                if *iterations > cap {
                    return Err(SimplexError::IterationLimit { iterations: *iterations });
                }
                let bland = *iterations >= options.bland_after;
                let mut row: Option<usize> = None;
                for i in 0..self.num_rows() {
                    if !self.rhs[i].is_negative() {
                        continue;
                    }
                    row = Some(match row {
                        None => i,
                        Some(r) if bland => {
                            if self.basis[i] < self.basis[r] {
                                i
                            } else {
                                r
                            }
                        }
                        Some(r) => {
                            if self.rhs[i].lt(&self.rhs[r]) {
                                i
                            } else {
                                r
                            }
                        }
                    });
                }
                let Some(row) = row else {
                    if O::ENABLED {
                        for event in pending.drain(..) {
                            obs.on_event(event);
                        }
                    }
                    return Ok(DualRun::Restored);
                };
                // Dual ratio test; iterating in ascending column order keeps the
                // smallest index on ties, which is Bland-compatible.
                let mut entering: Option<(usize, S)> = None;
                for j in 0..self.num_cols() {
                    if !allowed[j] {
                        continue;
                    }
                    let a = &self.rows[row][j];
                    if !a.is_negative() {
                        continue;
                    }
                    let ratio = reduced[j].div(a);
                    match &entering {
                        None => entering = Some((j, ratio)),
                        Some((_, best)) if ratio.lt(best) => entering = Some((j, ratio)),
                        _ => {}
                    }
                }
                let Some((col, _)) = entering else {
                    return Ok(DualRun::RatioTestFailed);
                };
                if O::ENABLED {
                    pending.push(SolveEvent::Pivot {
                        phase: SolvePhase::DualRepair,
                        kind: PivotKind::Dual,
                        rule: if bland { PivotRule::Bland } else { PivotRule::Dantzig },
                        entering: col,
                        leaving: self.basis[row],
                        degenerate: reduced[col].is_zero(),
                    });
                }
                let entering_cost = reduced[col].clone();
                self.pivot(row, col);
                for (r, t) in reduced.iter_mut().zip(self.rows[row].iter()) {
                    if !t.is_zero() {
                        *r = r.sub(&entering_cost.mul(t));
                    }
                }
                reduced[col] = S::zero();
                *iterations += 1;
            }
        }

        fn run<O: SolveObserver>(
            mut self,
            problem: &LpProblem,
            options: &SimplexOptions,
            warm_started: bool,
            obs: &mut O,
        ) -> Result<Solution<S>, SimplexError> {
            let mut iterations = 0usize;

            // ---- Phase 1: minimize the sum of artificial variables. ----
            //
            // Cold, phase 1 runs whenever artificials exist: even when they all
            // start at zero (all-zero-rhs equality rows, common in the flow LPs),
            // its pivots select a *well-conditioned* feasible basis, and skipping
            // it leaves phase 2 to fight the degeneracy from an arbitrary one —
            // observed as a >100x pivot blow-up on the steady-state reduce LPs.
            // Warm, the installed basis was optimal for a sibling problem, so
            // phase 1 is only needed if it leaves an artificial basic at a
            // strictly positive value (i.e. the basis is infeasible here).
            let needs_phase1 = if warm_started {
                (0..self.num_rows()).any(|i| {
                    self.kinds[self.basis[i]] == ColKind::Artificial && self.rhs[i].is_positive()
                })
            } else {
                self.kinds.contains(&ColKind::Artificial)
            };
            if needs_phase1 {
                if O::ENABLED {
                    obs.on_event(SolveEvent::PhaseStarted { phase: SolvePhase::Phase1 });
                }
                let phase1_costs: Vec<S> = self
                    .kinds
                    .iter()
                    .map(|k| if *k == ColKind::Artificial { S::one().neg() } else { S::zero() })
                    .collect();
                let allowed: Vec<bool> = vec![true; self.num_cols()];
                self.optimize(
                    &phase1_costs,
                    &allowed,
                    options,
                    &mut iterations,
                    SolvePhase::Phase1,
                    obs,
                )?;

                // Feasible iff all artificials are zero, i.e. phase-1 objective is 0.
                let mut infeasibility = S::zero();
                for i in 0..self.num_rows() {
                    if self.kinds[self.basis[i]] == ColKind::Artificial {
                        infeasibility = infeasibility.add(&self.rhs[i]);
                    }
                }
                if infeasibility.is_positive() {
                    return Err(SimplexError::Infeasible);
                }
            }
            let phase1_iterations = iterations;

            self.drive_out_artificials();

            // ---- Phase 2: optimize the real objective, artificials locked out. ----
            if O::ENABLED {
                obs.on_event(SolveEvent::PhaseStarted { phase: SolvePhase::Phase2 });
            }
            let allowed: Vec<bool> = self.kinds.iter().map(|k| *k != ColKind::Artificial).collect();
            let costs = self.costs.clone();
            self.optimize(&costs, &allowed, options, &mut iterations, SolvePhase::Phase2, obs)?;

            Ok(self.finish(problem, iterations, phase1_iterations, warm_started))
        }

        /// Reads the primal solution, objective, duals and final basis out of an
        /// optimized tableau.  Shared by the two-phase [`Tableau::run`] and the
        /// dual-simplex path, which reach optimality by different pivot
        /// sequences but extract the result identically.
        fn finish(
            self,
            problem: &LpProblem,
            iterations: usize,
            phase1_iterations: usize,
            warm_started: bool,
        ) -> Solution<S> {
            let costs = self.costs.clone();

            // ---- Extract the primal solution. ----
            let mut values = vec![S::zero(); self.n_structural];
            for i in 0..self.num_rows() {
                let j = self.basis[i];
                if j < self.n_structural {
                    values[j] = clamp_nonneg(self.rhs[i].clone());
                }
            }

            // Objective in maximization form, then flip back for minimization problems.
            let mut objective = S::zero();
            for (j, c) in costs.iter().enumerate().take(self.n_structural) {
                if !c.is_zero() && !values[j].is_zero() {
                    objective = objective.add(&c.mul(&values[j]));
                }
            }
            let minimize = matches!(problem.direction(), Objective::Minimize);
            if minimize {
                objective = objective.neg();
            }

            // ---- Extract the duals: y_i = c_B^T B^{-1} e_i, read from the column
            // that formed the initial identity of row i.  `costs` are in
            // maximization form, so a minimization's duals flip back with its
            // objective: they are reported in the problem's own sense. ----
            let mut duals = Vec::with_capacity(self.num_rows());
            for i in 0..self.num_rows() {
                let col = self.init_col[i];
                let mut y = S::zero();
                for r in 0..self.num_rows() {
                    let cb = &costs[self.basis[r]];
                    if cb.is_zero() {
                        continue;
                    }
                    let t = &self.rows[r][col];
                    if t.is_zero() {
                        continue;
                    }
                    y = y.add(&cb.mul(t));
                }
                if self.negated[i] != minimize {
                    y = y.neg();
                }
                duals.push(y);
            }

            let basis = SolvedBasis {
                cols: self.basis.clone(),
                num_cols: self.num_cols(),
                n_structural: self.n_structural,
            };
            Solution {
                values,
                objective,
                duals,
                iterations,
                phase1_iterations,
                warm_started,
                basis,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::dense::*;
    use super::*;
    use crate::instrument::{
        NoopObserver, RecordingObserver, SolveEvent, SolvePhase, SolveRecording,
    };
    use crate::model::{LinearExpr, LpProblem};
    use crate::revised::{self, RevisedOptions};
    use proptest::prelude::*;
    use steady_rational::{rat, Ratio};

    fn expr(terms: &[(crate::model::VarId, Ratio)]) -> LinearExpr {
        let mut e = LinearExpr::new();
        for (v, c) in terms {
            e.add_term(*v, c.clone());
        }
        e
    }

    /// maximize 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> optimum (4, 0), value 12.
    fn sample_lp() -> LpProblem {
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(x, rat(3, 1));
        lp.set_objective(y, rat(2, 1));
        lp.add_constraint("c1", expr(&[(x, rat(1, 1)), (y, rat(1, 1))]), Sense::Le, rat(4, 1));
        lp.add_constraint("c2", expr(&[(x, rat(1, 1)), (y, rat(3, 1))]), Sense::Le, rat(6, 1));
        lp
    }

    #[test]
    fn basic_max_f64() {
        let sol = solve_f64(&sample_lp()).unwrap();
        assert!((sol.objective - 12.0).abs() < 1e-6);
        assert!((sol.values[0] - 4.0).abs() < 1e-6);
        assert!(sol.values[1].abs() < 1e-6);
    }

    #[test]
    fn basic_max_exact() {
        let sol = solve_exact(&sample_lp()).unwrap();
        assert_eq!(sol.objective, rat(12, 1));
        assert_eq!(sol.values, vec![rat(4, 1), rat(0, 1)]);
    }

    #[test]
    fn fractional_optimum_exact() {
        // maximize x + y s.t. 2x + y <= 1, x + 3y <= 1 -> x = 2/5, y = 1/5, obj 3/5.
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(x, rat(1, 1));
        lp.set_objective(y, rat(1, 1));
        lp.add_constraint("a", expr(&[(x, rat(2, 1)), (y, rat(1, 1))]), Sense::Le, rat(1, 1));
        lp.add_constraint("b", expr(&[(x, rat(1, 1)), (y, rat(3, 1))]), Sense::Le, rat(1, 1));
        let sol = solve_exact(&lp).unwrap();
        assert_eq!(sol.objective, rat(3, 5));
        assert_eq!(sol.values, vec![rat(2, 5), rat(1, 5)]);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // minimize 2x + 3y s.t. x + y == 10, x >= 3, y >= 2 -> x = 8, y = 2, obj 22.
        let mut lp = LpProblem::minimize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(x, rat(2, 1));
        lp.set_objective(y, rat(3, 1));
        lp.add_constraint("sum", expr(&[(x, rat(1, 1)), (y, rat(1, 1))]), Sense::Eq, rat(10, 1));
        lp.add_constraint("xmin", expr(&[(x, rat(1, 1))]), Sense::Ge, rat(3, 1));
        lp.add_constraint("ymin", expr(&[(y, rat(1, 1))]), Sense::Ge, rat(2, 1));
        let sol = solve_exact(&lp).unwrap();
        assert_eq!(sol.objective, rat(22, 1));
        assert_eq!(sol.values, vec![rat(8, 1), rat(2, 1)]);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        lp.set_objective(x, rat(1, 1));
        lp.add_constraint("lo", expr(&[(x, rat(1, 1))]), Sense::Ge, rat(5, 1));
        lp.add_constraint("hi", expr(&[(x, rat(1, 1))]), Sense::Le, rat(3, 1));
        assert_eq!(solve_exact(&lp).unwrap_err(), SimplexError::Infeasible);
        assert_eq!(solve_f64(&lp).unwrap_err(), SimplexError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(x, rat(1, 1));
        lp.add_constraint("only_y", expr(&[(y, rat(1, 1))]), Sense::Le, rat(1, 1));
        assert_eq!(solve_exact(&lp).unwrap_err(), SimplexError::Unbounded);
    }

    #[test]
    fn negative_rhs_normalization() {
        // maximize x s.t. -x <= -2 (i.e. x >= 2), x <= 5.
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        lp.set_objective(x, rat(1, 1));
        lp.add_constraint("neg", expr(&[(x, rat(-1, 1))]), Sense::Le, rat(-2, 1));
        lp.add_constraint("cap", expr(&[(x, rat(1, 1))]), Sense::Le, rat(5, 1));
        let sol = solve_exact(&lp).unwrap();
        assert_eq!(sol.objective, rat(5, 1));
    }

    #[test]
    fn minimization_direction() {
        // minimize x + y s.t. x + 2y >= 4, 3x + y >= 6 -> x = 8/5, y = 6/5, obj 14/5.
        let mut lp = LpProblem::minimize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(x, rat(1, 1));
        lp.set_objective(y, rat(1, 1));
        lp.add_constraint("a", expr(&[(x, rat(1, 1)), (y, rat(2, 1))]), Sense::Ge, rat(4, 1));
        lp.add_constraint("b", expr(&[(x, rat(3, 1)), (y, rat(1, 1))]), Sense::Ge, rat(6, 1));
        let sol = solve_exact(&lp).unwrap();
        assert_eq!(sol.objective, rat(14, 5));
        assert_eq!(sol.values, vec![rat(8, 5), rat(6, 5)]);
    }

    #[test]
    fn redundant_equalities_do_not_break() {
        // x + y == 2 stated twice plus the implied sum; phase 1 leaves an
        // artificial basic at zero in a redundant row.
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(x, rat(1, 1));
        lp.add_constraint("e1", expr(&[(x, rat(1, 1)), (y, rat(1, 1))]), Sense::Eq, rat(2, 1));
        lp.add_constraint("e2", expr(&[(x, rat(1, 1)), (y, rat(1, 1))]), Sense::Eq, rat(2, 1));
        lp.add_constraint("e3", expr(&[(x, rat(2, 1)), (y, rat(2, 1))]), Sense::Eq, rat(4, 1));
        let sol = solve_exact(&lp).unwrap();
        assert_eq!(sol.objective, rat(2, 1));
        assert_eq!(sol.values[0], rat(2, 1));
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Klee-Minty-like degeneracy: many redundant constraints through the origin.
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        let z = lp.add_var("z");
        lp.set_objective(x, rat(1, 1));
        lp.set_objective(y, rat(1, 1));
        lp.set_objective(z, rat(1, 1));
        for i in 0..12 {
            lp.add_constraint(
                format!("c{i}"),
                expr(&[(x, rat(1 + (i % 3), 1)), (y, rat(1, 1)), (z, rat(1, 1))]),
                Sense::Le,
                rat(0, 1),
            );
        }
        lp.add_constraint("cap", expr(&[(x, rat(1, 1))]), Sense::Le, rat(1, 1));
        let sol = solve_exact(&lp).unwrap();
        assert_eq!(sol.objective, rat(0, 1));
    }

    #[test]
    fn duals_certify_optimum() {
        // For the sample LP, strong duality: y1*4 + y2*6 == 12 with y >= 0 and
        // A^T y >= c.
        let lp = sample_lp();
        let sol = solve_exact(&lp).unwrap();
        let y1 = &sol.duals[0];
        let y2 = &sol.duals[1];
        assert!(!y1.is_negative() && !y2.is_negative());
        assert_eq!(y1 * &rat(4, 1) + y2 * &rat(6, 1), rat(12, 1));
        // Dual feasibility: column x: y1 + y2 >= 3; column y: y1 + 3 y2 >= 2.
        assert!(y1 + y2 >= rat(3, 1));
        assert!(y1 + &(y2 * &rat(3, 1)) >= rat(2, 1));
    }

    #[test]
    fn empty_problem() {
        let lp = LpProblem::maximize();
        let sol = solve_exact(&lp).unwrap();
        assert_eq!(sol.objective, Ratio::zero());
        assert!(sol.values.is_empty());
    }

    #[test]
    fn zero_objective_feasible() {
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        lp.add_constraint("cap", expr(&[(x, rat(1, 1))]), Sense::Le, rat(3, 1));
        let sol = solve_exact(&lp).unwrap();
        assert_eq!(sol.objective, Ratio::zero());
    }

    #[test]
    fn warm_start_on_identical_problem_repivots_nothing() {
        let lp = sample_lp();
        let cold = solve_exact(&lp).unwrap();
        assert!(!cold.warm_started);
        let warm = solve_with_basis::<Ratio>(&lp, &cold.basis).unwrap();
        assert!(warm.warm_started);
        assert_eq!(warm.iterations, 0, "the optimal basis needs no further pivots");
        assert_eq!(warm.objective, cold.objective);
        assert_eq!(warm.values, cold.values);
        assert_eq!(warm.basis, cold.basis);
    }

    #[test]
    fn warm_start_with_perturbed_costs_matches_cold_solve() {
        // Same constraint structure, different coefficients and rhs: the old
        // basis seeds the solve, the optimum must match a cold solve exactly.
        let lp = sample_lp();
        let cold_basis = solve_exact(&lp).unwrap().basis;
        let mut perturbed = LpProblem::maximize();
        let x = perturbed.add_var("x");
        let y = perturbed.add_var("y");
        perturbed.set_objective(x, rat(3, 1));
        perturbed.set_objective(y, rat(2, 1));
        perturbed.add_constraint(
            "c1",
            expr(&[(x, rat(1, 1)), (y, rat(2, 1))]),
            Sense::Le,
            rat(5, 1),
        );
        perturbed.add_constraint(
            "c2",
            expr(&[(x, rat(1, 1)), (y, rat(3, 1))]),
            Sense::Le,
            rat(7, 1),
        );
        let warm = solve_with_basis::<Ratio>(&perturbed, &cold_basis).unwrap();
        let cold = solve_exact(&perturbed).unwrap();
        assert_eq!(warm.objective, cold.objective);
        assert_eq!(warm.values, cold.values);
        assert!(warm.warm_started);
    }

    #[test]
    fn incompatible_basis_falls_back_to_cold_solve() {
        let lp = sample_lp();
        let foreign = SolvedBasis { cols: vec![0, 1, 2], num_cols: 9, n_structural: 3 };
        let sol = solve_with_basis::<Ratio>(&lp, &foreign).unwrap();
        assert!(!sol.warm_started);
        assert_eq!(sol.objective, rat(12, 1));
    }

    #[test]
    fn warm_start_reruns_phase1_when_an_artificial_stays_positive() {
        // maximize x s.t. x + y == 3, x <= 2.  Standard-form columns:
        // x(0), y(1), slack of c2 (2), artificial of c1 (3).  Installing the
        // basis {artificial, slack} reproduces the initial tableau — the
        // artificial is basic at 3 > 0, so the warm solve must re-enter
        // phase 1 and still reach the exact optimum (2, 1).
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(x, rat(1, 1));
        lp.add_constraint("sum", expr(&[(x, rat(1, 1)), (y, rat(1, 1))]), Sense::Eq, rat(3, 1));
        lp.add_constraint("cap", expr(&[(x, rat(1, 1))]), Sense::Le, rat(2, 1));
        let infeasible_basis = SolvedBasis { cols: vec![3, 2], num_cols: 4, n_structural: 2 };
        let warm = solve_with_basis::<Ratio>(&lp, &infeasible_basis).unwrap();
        assert!(warm.warm_started);
        assert!(warm.phase1_iterations > 0, "phase 1 must re-run from the infeasible basis");
        let cold = solve_exact(&lp).unwrap();
        assert_eq!(warm.objective, cold.objective);
        assert_eq!(warm.values, cold.values);
        assert_eq!(warm.values, vec![rat(2, 1), rat(1, 1)]);
    }

    #[test]
    fn primal_infeasible_basis_falls_back_to_cold_solve() {
        // maximize x s.t. x - y <= 2, x <= 5.  Columns: x(0), y(1), sl1(2),
        // sl2(3).  The basis {y, sl2} pivots row 1 on the -1 entry of y,
        // turning the rhs negative — primal infeasible, so the warm solve
        // must discard the basis and run the ordinary two-phase method.
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(x, rat(1, 1));
        lp.add_constraint("c1", expr(&[(x, rat(1, 1)), (y, rat(-1, 1))]), Sense::Le, rat(2, 1));
        lp.add_constraint("c2", expr(&[(x, rat(1, 1))]), Sense::Le, rat(5, 1));
        let bad = SolvedBasis { cols: vec![1, 3], num_cols: 4, n_structural: 2 };
        let sol = solve_with_basis::<Ratio>(&lp, &bad).unwrap();
        assert!(!sol.warm_started);
        assert_eq!(sol.objective, rat(5, 1));
    }

    #[test]
    fn dual_solver_reprices_the_unchanged_problem_with_zero_pivots() {
        let lp = sample_lp();
        let cold = solve_exact(&lp).unwrap();
        let (sol, outcome) = dual_both(&lp, &cold.basis).unwrap();
        assert_eq!(outcome, DualOutcome::StillOptimal);
        assert_eq!(sol.iterations, 0);
        assert!(sol.warm_started);
        assert_eq!(sol.objective, cold.objective);
        assert_eq!(sol.values, cold.values);
        assert_eq!(sol.duals, cold.duals);
        assert_eq!(sol.basis, cold.basis);
    }

    #[test]
    fn dual_repair_of_a_tightened_rhs() {
        // Optimum of the sample LP is x = 4 with basis {x, s2} (s2 = 2).
        // Tightening c2's rhs from 6 to 2 drives the installed s2 to -2:
        // the basis stays dual feasible but turns primal infeasible, so the
        // dual simplex must repair it and land exactly on the cold optimum
        // (x = 2, objective 6).
        let old = solve_exact(&sample_lp()).unwrap();
        let mut tight = LpProblem::maximize();
        let x = tight.add_var("x");
        let y = tight.add_var("y");
        tight.set_objective(x, rat(3, 1));
        tight.set_objective(y, rat(2, 1));
        tight.add_constraint("c1", expr(&[(x, rat(1, 1)), (y, rat(1, 1))]), Sense::Le, rat(4, 1));
        tight.add_constraint("c2", expr(&[(x, rat(1, 1)), (y, rat(3, 1))]), Sense::Le, rat(2, 1));
        let cold = solve_exact(&tight).unwrap();
        let (warm, outcome) = dual_both(&tight, &old.basis).unwrap();
        assert_eq!(warm.objective, cold.objective);
        assert_eq!(warm.objective, rat(6, 1));
        assert_eq!(warm.values, cold.values);
        assert!(warm.warm_started);
        assert!(matches!(outcome, DualOutcome::DualRepaired { pivots } if pivots >= 1));
    }

    #[test]
    fn dual_repair_matches_cold_on_negative_rhs_perturbations() {
        // maximize x + y s.t. x + 2y <= 6, 3x + y <= 9 has optimum at the
        // intersection of both constraints; shrinking the first rhs alone
        // pushes the induced vertex below zero (primal infeasible).
        // Exercise both scalar backends.
        let mut base = LpProblem::maximize();
        let x = base.add_var("x");
        let y = base.add_var("y");
        base.set_objective(x, rat(1, 1));
        base.set_objective(y, rat(1, 1));
        base.add_constraint("a", expr(&[(x, rat(1, 1)), (y, rat(2, 1))]), Sense::Le, rat(6, 1));
        base.add_constraint("b", expr(&[(x, rat(3, 1)), (y, rat(1, 1))]), Sense::Le, rat(9, 1));
        let basis = solve_exact(&base).unwrap().basis;

        let mut shrunk = LpProblem::maximize();
        let x = shrunk.add_var("x");
        let y = shrunk.add_var("y");
        shrunk.set_objective(x, rat(1, 1));
        shrunk.set_objective(y, rat(1, 1));
        shrunk.add_constraint("a", expr(&[(x, rat(1, 1)), (y, rat(2, 1))]), Sense::Le, rat(2, 1));
        shrunk.add_constraint("b", expr(&[(x, rat(3, 1)), (y, rat(1, 1))]), Sense::Le, rat(9, 1));
        let cold = solve_exact(&shrunk).unwrap();
        let (warm, outcome) = dual_both(&shrunk, &basis).unwrap();
        assert_eq!(warm.objective, cold.objective);
        assert_eq!(warm.values, cold.values);
        assert!(matches!(outcome, DualOutcome::StillOptimal | DualOutcome::DualRepaired { .. }));
        let (warm_f64, _, _) = revised::solve_revised_dual_report_observed::<f64, _>(
            &shrunk,
            &basis,
            &RevisedOptions::default(),
            &mut NoopObserver,
        )
        .unwrap();
        assert!((warm_f64.objective - cold.objective.to_f64()).abs() < 1e-9);
    }

    #[test]
    fn dual_solver_falls_back_when_the_problem_turns_infeasible() {
        // The perturbation makes the problem infeasible: the dual ratio test
        // fails (dual unbounded) and the solver must re-verify from scratch,
        // reporting Infeasible like a cold solve.
        let mut feasible = LpProblem::maximize();
        let x = feasible.add_var("x");
        feasible.set_objective(x, rat(1, 1));
        feasible.add_constraint("lo", expr(&[(x, rat(1, 1))]), Sense::Ge, rat(1, 1));
        feasible.add_constraint("hi", expr(&[(x, rat(1, 1))]), Sense::Le, rat(3, 1));
        let basis = solve_exact(&feasible).unwrap().basis;

        let mut infeasible = LpProblem::maximize();
        let x = infeasible.add_var("x");
        infeasible.set_objective(x, rat(1, 1));
        infeasible.add_constraint("lo", expr(&[(x, rat(1, 1))]), Sense::Ge, rat(5, 1));
        infeasible.add_constraint("hi", expr(&[(x, rat(1, 1))]), Sense::Le, rat(3, 1));
        assert_eq!(dual_both(&infeasible, &basis).unwrap_err(), SimplexError::Infeasible);
    }

    #[test]
    fn dual_solver_stays_feasible_when_the_prior_basis_kept_an_artificial() {
        // maximize x + 3y s.t. e1: x + y == 2, e2: 2x + y == 4, cap: x <= 2.
        // The unique feasible point is (2, 0).  Standard-form columns:
        // x(0), y(1), cap's slack(2), artificials a1(3), a2(4).
        //
        // The basis {x, slack, a2} — the shape a cold solve of a sibling
        // whose e2 was *redundant* leaves behind — installs consistently:
        // x = 2 and a2 = 0 (e2 holds at the installed point), so the
        // positive-artificial bail-out does not fire, and the a2 row reads
        // `-y + a2 = 0`.  The point is primal feasible but not dual optimal
        // (y's reduced cost is positive), so phase-2 pivots y in — and
        // without the post-install artificial drive-out, that pivot pushes
        // a2 to 2 and "optimizes" to (0, 2), which violates e2.  The solver
        // must instead return the exact cold optimum (2, 0) and a feasible
        // point.
        let mut drifted = LpProblem::maximize();
        let x = drifted.add_var("x");
        let y = drifted.add_var("y");
        drifted.set_objective(x, rat(1, 1));
        drifted.set_objective(y, rat(3, 1));
        drifted.add_constraint("e1", expr(&[(x, rat(1, 1)), (y, rat(1, 1))]), Sense::Eq, rat(2, 1));
        drifted.add_constraint("e2", expr(&[(x, rat(2, 1)), (y, rat(1, 1))]), Sense::Eq, rat(4, 1));
        drifted.add_constraint("cap", expr(&[(x, rat(1, 1))]), Sense::Le, rat(2, 1));

        let stale = SolvedBasis { cols: vec![0, 2, 4], num_cols: 5, n_structural: 2 };
        let cold = solve_exact(&drifted).unwrap();
        assert_eq!(cold.values, vec![rat(2, 1), rat(0, 1)]);
        let (warm, _) = dual_both(&drifted, &stale).unwrap();
        assert!(
            drifted.check_feasible(&warm.values).is_ok(),
            "dual reuse returned an infeasible point: {:?}",
            warm.values
        );
        assert_eq!(warm.objective, cold.objective);
        assert_eq!(warm.values, cold.values);
    }

    #[test]
    fn dual_solver_falls_back_on_foreign_or_singular_bases() {
        let lp = sample_lp();
        let foreign = SolvedBasis { cols: vec![0, 1, 2], num_cols: 9, n_structural: 3 };
        let (sol, outcome) = dual_both(&lp, &foreign).unwrap();
        assert_eq!(outcome, DualOutcome::FellBack);
        assert!(!sol.warm_started);
        assert_eq!(sol.objective, rat(12, 1));
    }

    #[test]
    fn dual_solver_reoptimizes_primal_feasible_but_suboptimal_bases() {
        // The all-slack basis of the sample LP is primal feasible (rhs >= 0)
        // but not dual feasible (positive reduced costs): the solver should
        // take the primal phase-2 path from the installed vertex.
        let lp = sample_lp();
        let slack_basis = SolvedBasis { cols: vec![2, 3], num_cols: 4, n_structural: 2 };
        let (sol, outcome) = dual_both(&lp, &slack_basis).unwrap();
        assert!(matches!(outcome, DualOutcome::PrimalReoptimized { pivots } if pivots >= 1));
        assert!(sol.warm_started);
        assert_eq!(sol.objective, rat(12, 1));
    }

    #[test]
    fn inside_rhs_nudges_reprice_with_zero_pivots_and_outside_ones_do_not() {
        // The sample optimum's basis {x, s2} reads x = b1 and s2 = 6 - b1,
        // so it stays optimal while b1 lies in [0, 6].
        let cold = solve_exact(&sample_lp()).unwrap();
        let with_b1 = |b1: i64| {
            let mut lp = LpProblem::maximize();
            let x = lp.add_var("x");
            let y = lp.add_var("y");
            lp.set_objective(x, rat(3, 1));
            lp.set_objective(y, rat(2, 1));
            lp.add_constraint("c1", expr(&[(x, rat(1, 1)), (y, rat(1, 1))]), Sense::Le, rat(b1, 1));
            lp.add_constraint("c2", expr(&[(x, rat(1, 1)), (y, rat(3, 1))]), Sense::Le, rat(6, 1));
            lp
        };

        // Inside: b1 = 5 re-prices StillOptimal, and the objective moves by
        // the row's dual price.
        let (warm, outcome) = dual_both(&with_b1(5), &cold.basis).unwrap();
        assert_eq!(outcome, DualOutcome::StillOptimal);
        assert_eq!(warm.iterations, 0);
        assert_eq!(warm.objective, &cold.objective + &cold.duals[0]);

        // Outside: b1 = 7 drives s2 negative, which only a dual pivot repairs.
        let outside = with_b1(7);
        let (repaired, outcome) = dual_both(&outside, &cold.basis).unwrap();
        assert!(matches!(outcome, DualOutcome::DualRepaired { pivots } if pivots >= 1));
        assert_eq!(repaired.objective, solve_exact(&outside).unwrap().objective);
    }

    #[test]
    fn solved_basis_json_round_trip() {
        let basis = solve_exact(&sample_lp()).unwrap().basis;
        let parsed = SolvedBasis::from_json(&basis.to_json()).unwrap();
        assert_eq!(parsed, basis);
        let empty = SolvedBasis::default();
        assert_eq!(SolvedBasis::from_json(&empty.to_json()).unwrap(), empty);
        assert!(SolvedBasis::from_json("{\"cols\":[1,2]}").is_err());
        assert!(SolvedBasis::from_json("not json").is_err());
    }

    #[test]
    fn f64_and_exact_agree_on_random_instances() {
        // Deterministic pseudo-random feasible bounded LPs; compare the two backends.
        let mut seed: u64 = 0x9e3779b97f4a7c15;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _case in 0..20 {
            let mut lp = LpProblem::maximize();
            let nv = 2 + (next() % 4) as usize;
            let nc = 2 + (next() % 4) as usize;
            let vars: Vec<_> = (0..nv).map(|i| lp.add_var(format!("x{i}"))).collect();
            for &v in &vars {
                lp.set_objective(v, rat((next() % 9 + 1) as i64, 1));
            }
            for c in 0..nc {
                let mut e = LinearExpr::new();
                for &v in &vars {
                    e.add_term(v, rat((next() % 5 + 1) as i64, (next() % 3 + 1) as i64));
                }
                lp.add_constraint(format!("c{c}"), e, Sense::Le, rat((next() % 20 + 1) as i64, 1));
            }
            let exact = solve_exact(&lp).unwrap();
            let float = solve_f64(&lp).unwrap();
            let diff = (exact.objective.to_f64() - float.objective).abs();
            assert!(
                diff <= 1e-6 * exact.objective.to_f64().abs().max(1.0),
                "objective mismatch: exact {} vs f64 {}",
                exact.objective,
                float.objective
            );
            // The exact solution must be feasible for the original problem.
            assert!(lp.check_feasible(&exact.values).is_ok());
        }
    }

    // ---- The revised solver against this oracle ----

    /// Asserts that `revised` is `dense` bit for bit: values, objective,
    /// duals, basis, and the pivots of both phases.
    fn assert_bit_identical(revised: &Solution<Ratio>, dense: &Solution<Ratio>) {
        assert_eq!(revised.values, dense.values);
        assert_eq!(revised.objective, dense.objective);
        assert_eq!(revised.duals, dense.duals);
        assert_eq!(revised.basis, dense.basis);
        assert_eq!(revised.iterations, dense.iterations);
        assert_eq!(revised.phase1_iterations, dense.phase1_iterations);
        assert_eq!(revised.warm_started, dense.warm_started);
    }

    fn revised_dual(
        lp: &LpProblem,
        basis: &SolvedBasis,
    ) -> Result<(Solution<Ratio>, DualOutcome), SimplexError> {
        let options = RevisedOptions::default();
        revised::solve_revised_dual_report_observed(lp, basis, &options, &mut NoopObserver)
            .map(|(sol, outcome, _)| (sol, outcome))
    }

    /// The revised dual over `Ratio`, held rung for rung and bit for bit to
    /// the oracle's on LPs whose crash is the identity start.
    fn dual_both(
        lp: &LpProblem,
        basis: &SolvedBasis,
    ) -> Result<(Solution<Ratio>, DualOutcome), SimplexError> {
        let revised = revised_dual(lp, basis);
        match (&revised, solve_dual_with_basis::<Ratio>(lp, basis)) {
            (Ok((sol, outcome)), Ok((dense, dense_outcome))) => {
                assert_eq!(*outcome, dense_outcome);
                assert_bit_identical(sol, &dense);
            }
            (revised, dense) => assert_eq!(revised.as_ref().err(), dense.err().as_ref()),
        }
        revised
    }

    #[derive(Debug, Clone)]
    struct RandomLp {
        num_vars: usize,
        objective: Vec<(i64, i64)>,
        /// Each constraint: coefficients (numer, denom) per variable plus a rhs.
        constraints: Vec<(Vec<(i64, i64)>, i64)>,
    }

    fn random_lp_strategy() -> impl Strategy<Value = RandomLp> {
        (2usize..5, 1usize..5).prop_flat_map(|(nv, nc)| {
            let coeff = (0i64..6, 1i64..4);
            let objective = proptest::collection::vec((1i64..8, 1i64..3), nv);
            let constraint = (proptest::collection::vec(coeff, nv), 1i64..25);
            let constraints = proptest::collection::vec(constraint, nc);
            (objective, constraints).prop_map(move |(objective, constraints)| RandomLp {
                num_vars: nv,
                objective,
                constraints,
            })
        })
    }

    /// Builds the LP; every variable also gets an individual upper bound so
    /// the problem is always bounded and feasible (origin is feasible).
    fn build(lp_desc: &RandomLp) -> LpProblem {
        let mut lp = LpProblem::maximize();
        let vars: Vec<_> = (0..lp_desc.num_vars).map(|i| lp.add_var(format!("x{i}"))).collect();
        for (v, (n, d)) in vars.iter().zip(&lp_desc.objective) {
            lp.set_objective(*v, rat(*n, *d));
        }
        for (ci, (coeffs, rhs)) in lp_desc.constraints.iter().enumerate() {
            let mut e = LinearExpr::new();
            for (v, (n, d)) in vars.iter().zip(coeffs) {
                e.add_term(*v, rat(*n, *d));
            }
            if !e.is_empty() {
                lp.add_constraint(format!("c{ci}"), e, Sense::Le, rat(*rhs, 1));
            }
        }
        for (i, v) in vars.iter().enumerate() {
            lp.add_constraint(format!("ub{i}"), LinearExpr::var(*v), Sense::Le, rat(50, 1));
        }
        lp
    }

    /// Adds the row shapes the steady-state LPs live in: an equality tying a
    /// mirror variable to `x0` and a redundant `>=` floor, both with rhs 0 —
    /// the artificial-column regime.
    fn augment_with_eq_and_ge(lp: &mut LpProblem) {
        let vars: Vec<_> = lp.vars().collect();
        let mirror = lp.add_var("mirror");
        lp.add_constraint(
            "tie",
            expr(&[(vars[0], rat(1, 1)), (mirror, rat(-1, 1))]),
            Sense::Eq,
            rat(0, 1),
        );
        lp.add_constraint(
            "floor",
            expr(&[(vars[0], rat(1, 1)), (mirror, rat(1, 1))]),
            Sense::Ge,
            rat(0, 1),
        );
    }

    /// Rows with a nonzero rhs beside the zero-rhs ones: an equality pinning
    /// a fresh variable to `x1`'s complement and a `>=` floor on `x0`.  Their
    /// artificials start at a positive level, so phase 1 runs from the crash.
    fn augment_with_nonzero_eq_and_ge(lp: &mut LpProblem, floor: &Ratio) {
        let vars: Vec<_> = lp.vars().collect();
        let pinned = lp.add_var("pinned");
        lp.add_constraint(
            "pin",
            expr(&[(vars[1], rat(1, 1)), (pinned, rat(1, 1))]),
            Sense::Eq,
            rat(7, 2),
        );
        lp.add_constraint("floor0", LinearExpr::var(vars[0]), Sense::Ge, floor.clone());
    }

    /// `lp` with every objective coefficient and every rhs multiplied by a
    /// positive rational factor, cycling through the given `(n, d)` pairs.
    fn scale(lp: &LpProblem, cost_scales: &[(i64, i64)], rhs_scales: &[(i64, i64)]) -> LpProblem {
        let mut out = LpProblem::maximize();
        let vars: Vec<_> = lp.vars().map(|v| out.add_var(lp.var_name(v))).collect();
        for (j, v) in lp.vars().enumerate() {
            let (n, d) = cost_scales[j % cost_scales.len()];
            out.set_objective(vars[j], lp.objective_coeff(v) * &rat(n, d));
        }
        for (i, c) in lp.constraints().iter().enumerate() {
            let mut e = LinearExpr::new();
            for (v, coeff) in c.expr.terms() {
                e.add_term(vars[v.index()], coeff.clone());
            }
            let (n, d) = rhs_scales[i % rhs_scales.len()];
            out.add_constraint(c.name.clone(), e, c.sense, &c.rhs * &rat(n, d));
        }
        out
    }

    /// What the cold crash start found, and whether phase 1 ran after it.
    fn crash_report(lp: &LpProblem) -> (usize, usize, bool) {
        let mut rec = RecordingObserver::unbounded();
        let options = RevisedOptions::default();
        let _ = revised::solve_revised_report_observed::<Ratio, _>(lp, None, &options, &mut rec);
        let events = rec.finish().events;
        let crash = events.iter().find_map(|e| match e.event {
            SolveEvent::CrashStart { open_rows, covered } => Some((open_rows, covered)),
            _ => None,
        });
        let (open_rows, covered) = crash.expect("a cold revised solve reports its crash");
        let phase1 = events
            .iter()
            .any(|e| e.event == SolveEvent::PhaseStarted { phase: SolvePhase::Phase1 });
        (open_rows, covered, phase1)
    }

    fn revised_warm(lp: &LpProblem, basis: &SolvedBasis) -> Solution<Ratio> {
        let options = RevisedOptions::default();
        revised::solve_revised_report_observed(lp, Some(basis), &options, &mut NoopObserver)
            .unwrap()
            .0
    }

    fn pivot_counts(rec: &SolveRecording) -> (usize, usize) {
        let pivots = rec.events.iter().filter_map(|e| match e.event {
            SolveEvent::Pivot { phase, .. } => Some(phase),
            _ => None,
        });
        pivots.fold((0, 0), |(all, p1), phase| {
            (all + 1, p1 + usize::from(phase == SolvePhase::Phase1))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn revised_matches_dense_bit_for_bit(desc in random_lp_strategy()) {
            // No row is open, so the crash is the identity start: cold runs
            // assign rows identically, and even the basis *ordering* and the
            // pivot counts coincide.
            let lp = build(&desc);
            prop_assert_eq!(crash_report(&lp), (0, 0, false));
            assert_bit_identical(&revised::solve_exact(&lp).unwrap(), &solve_exact(&lp).unwrap());
        }

        #[test]
        fn revised_matches_dense_on_eq_and_ge_rows(
            desc in random_lp_strategy(),
            floor in (0i64..4, 1i64..12),
        ) {
            let mut lp = build(&desc);
            augment_with_eq_and_ge(&mut lp);
            let dense = solve_exact(&lp).unwrap();
            let revised = revised::solve_exact(&lp).unwrap();
            prop_assert_eq!(&revised.objective, &dense.objective);
            // Exactly: `lp.check_feasible(values)`, dual feasibility, zero gap.
            prop_assert_eq!(
                crate::exact::check_optimal(&lp, &revised.values, &revised.duals),
                Ok(dense.objective.clone())
            );
            // Both zero-rhs rows are crashed, so nothing is left for phase 1.
            prop_assert_eq!(crash_report(&lp), (2, 2, false));
            prop_assert_eq!(revised.phase1_iterations, 0);

            // With nonzero-rhs `=` / `>=` rows mixed in the crash takes the
            // same two rows, phase 1 handles the rest (unless the floor is 0
            // and its row open too), and the verdict is still the dense one.
            augment_with_nonzero_eq_and_ge(&mut lp, &rat(floor.0, floor.1));
            let (open_rows, covered, phase1) = crash_report(&lp);
            prop_assert_eq!(open_rows, covered);
            prop_assert_eq!(open_rows, if floor.0 == 0 { 3 } else { 2 });
            prop_assert!(phase1);
            match (solve_exact(&lp), revised::solve_exact(&lp)) {
                (Ok(dense), Ok(revised)) => {
                    prop_assert_eq!(&revised.objective, &dense.objective);
                    prop_assert_eq!(
                        crate::exact::check_optimal(&lp, &revised.values, &revised.duals),
                        Ok(dense.objective)
                    );
                }
                (dense, revised) => prop_assert_eq!(revised.err(), dense.err()),
            }
        }

        #[test]
        fn bases_cross_install_between_the_solvers(desc in random_lp_strategy()) {
            let mut lp = build(&desc);
            augment_with_eq_and_ge(&mut lp);
            let dense = solve_exact(&lp).unwrap();
            let revised = revised::solve_exact(&lp).unwrap();

            // The revised solver's basis is a valid SolvedBasis for the
            // dense tableau: it installs (warm) and re-proves the optimum
            // with zero pivots — possibly at another optimal vertex than the
            // dense cold solve's, since the revised one was reached from the
            // crash.
            let dense_warm = solve_with_basis::<Ratio>(&lp, &revised.basis).unwrap();
            prop_assert!(dense_warm.warm_started);
            prop_assert_eq!(dense_warm.iterations, 0);
            prop_assert_eq!(&dense_warm.objective, &dense.objective);
            prop_assert_eq!(
                crate::exact::check_optimal(&lp, &dense_warm.values, &dense_warm.duals),
                Ok(dense.objective.clone())
            );

            // Symmetrically the dense basis on the revised solver — a warm
            // start from the same basis, so bit for bit the dense solution.
            let revised_warm = revised_warm(&lp, &dense.basis);
            prop_assert!(revised_warm.warm_started);
            prop_assert_eq!(revised_warm.iterations, 0);
            prop_assert_eq!(&revised_warm.values, &dense.values);
            prop_assert_eq!(&revised_warm.objective, &dense.objective);
            prop_assert_eq!(&revised_warm.duals, &dense.duals);
        }

        #[test]
        fn warm_starts_from_a_stale_basis_still_agree(
            desc in random_lp_strategy(),
            cost_scales in proptest::collection::vec((1i64..6, 1i64..6), 8),
        ) {
            // Perturb the costs after solving, then resume both solvers from
            // the now-stale basis: warm and cold, dense and revised must all
            // land on the same exact optimum (the vertex they re-optimize
            // from differs from the cold start, so only the *answer* is
            // asserted, not the pivot count).
            let mut lp = build(&desc);
            augment_with_eq_and_ge(&mut lp);
            let basis = solve_exact(&lp).unwrap().basis;
            let lp = scale(&lp, &cost_scales, &[(1, 1)]);

            let cold = solve_exact(&lp).unwrap();
            let dense_warm = solve_with_basis::<Ratio>(&lp, &basis).unwrap();
            let revised_warm = revised_warm(&lp, &basis);
            prop_assert_eq!(&dense_warm.objective, &cold.objective);
            prop_assert_eq!(&revised_warm.objective, &cold.objective);
            prop_assert_eq!(&revised_warm.values, &dense_warm.values);
            prop_assert_eq!(&revised_warm.duals, &dense_warm.duals);
            prop_assert_eq!(revised_warm.warm_started, dense_warm.warm_started);
            prop_assert!(lp.check_feasible(&revised_warm.values).is_ok());
        }

        #[test]
        fn dense_solve_is_unchanged_and_conserving_under_observation(desc in random_lp_strategy()) {
            let mut lp = build(&desc);
            augment_with_eq_and_ge(&mut lp);
            let plain = solve_exact(&lp).unwrap();

            let mut rec = RecordingObserver::unbounded();
            let observed = solve_with_options_observed::<Ratio, _>(
                &lp, &SimplexOptions::default(), &mut rec,
            ).unwrap();
            let recording = rec.finish();

            prop_assert_eq!(&observed.values, &plain.values);
            prop_assert_eq!(&observed.objective, &plain.objective);
            prop_assert_eq!(&observed.duals, &plain.duals);
            prop_assert_eq!(&observed.basis.cols, &plain.basis.cols);
            prop_assert_eq!(observed.iterations, plain.iterations);
            prop_assert_eq!(observed.phase1_iterations, plain.phase1_iterations);

            let (pivots, phase1) = pivot_counts(&recording);
            prop_assert_eq!(pivots, plain.iterations);
            prop_assert_eq!(phase1, plain.phase1_iterations);
            prop_assert_eq!(recording.health.pivots, plain.iterations);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn revised_dual_takes_the_dense_oracles_pivots(
            desc in random_lp_strategy(),
            cost_scales in proptest::collection::vec((1i64..6, 1i64..6), 8),
            rhs_scales in proptest::collection::vec((1i64..6, 1i64..6), 8),
        ) {
            // Solve, keep the optimal basis, perturb every cost and every
            // rhs, and resume both duals from the stale basis: same rung,
            // same pivots, the same answer bit for bit — on a `Le`-only LP
            // and on its Eq/Ge-augmented twin.
            let le_only = build(&desc);
            let mut augmented = le_only.clone();
            augment_with_eq_and_ge(&mut augmented);
            for base in [le_only, augmented] {
                let basis = solve_exact(&base).unwrap().basis;
                let drifted = scale(&base, &cost_scales, &rhs_scales);
                let (sol, outcome) = revised_dual(&drifted, &basis).unwrap();
                let (dense, dense_outcome) = solve_dual_with_basis::<Ratio>(&drifted, &basis).unwrap();
                prop_assert_eq!(outcome, dense_outcome);
                if outcome == DualOutcome::FellBack && sol.basis != dense.basis {
                    // A cold restart starts from the crash, not the identity
                    // (they differ only on the augmented LP): it is the
                    // revised cold solve, at the oracle's optimum.
                    assert_bit_identical(&sol, &revised::solve_exact(&drifted).unwrap());
                    prop_assert_eq!(&sol.objective, &dense.objective);
                } else {
                    assert_bit_identical(&sol, &dense);
                }
            }
        }
    }
}
