//! Pattern-cached assembly + factorisation pipeline.
//!
//! Newton iterations and consecutive transient timesteps assemble the
//! same matrix *pattern* over and over with different values. This module
//! ties [`ScatterMap`] (triplets → CSC without sorting), a
//! fill-reducing pre-ordering ([`amd_order`] + [`PermutePlan`]) and
//! [`SparseLu::refactor`] (numeric-only LU) into one reusable solver.
//!
//! [`CachedSolver::solve`] runs in three steps: load a triplet assembly
//! (the first load pays for the scatter plan and ordering, later loads
//! on the same stream are a linear-time scatter and value permutation),
//! refactor, then the triangular solves. Once a pattern is loaded, the
//! Newton engine skips the triplets altogether: it writes each next
//! matrix straight into the loaded value array, at slots it looked up
//! once, and refactors on the known pattern with no check.

use super::sparse::{
    amd_order, CscMatrix, PermutePlan, Refactorization, ScatterMap, SparseLu, Triplets,
};
use crate::error::Result;

/// Counters describing how much work the cached pipeline avoided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Full factorisations (first solve, pattern changes, degraded pivots).
    pub full_factors: u64,
    /// Numeric-only refactorisations (the fast path).
    pub refactors: u64,
    /// Times the scatter plan had to be rebuilt from a new coordinate
    /// stream.
    pub pattern_rebuilds: u64,
    /// `nnz(L + U)` of the most recent factorisation (diagonal counted
    /// once). Zero until a factorisation has run.
    pub lu_nnz: u64,
    /// `nnz(A)` of the most recent factorisation. Zero until a
    /// factorisation has run. `lu_nnz / a_nnz` is the fill-in ratio —
    /// see [`SolverStats::fill_ratio`].
    pub a_nnz: u64,
}

impl SolverStats {
    /// Accumulate another stats block into this one. Work counters sum;
    /// the fill snapshot (`lu_nnz`/`a_nnz`) adopts `other`'s most recent
    /// factorisation when it has one.
    pub fn merge(&mut self, other: SolverStats) {
        self.full_factors += other.full_factors;
        self.refactors += other.refactors;
        self.pattern_rebuilds += other.pattern_rebuilds;
        if other.a_nnz != 0 {
            self.lu_nnz = other.lu_nnz;
            self.a_nnz = other.a_nnz;
        }
    }

    /// Fill-in of the most recent factorisation, `nnz(L+U) / nnz(A)`,
    /// or `None` before any factorisation.
    #[must_use]
    pub fn fill_ratio(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        match self.a_nnz {
            0 => None,
            a => Some(self.lu_nnz as f64 / a as f64),
        }
    }
}

/// A linear solver that caches the assembly plan, fill-reducing ordering
/// and LU pattern across calls. It always factors in minimum-degree
/// ([`amd_order`]) order, computed once per sparsity pattern: MNA
/// matrices from TCAM arrays have hub nodes (matchlines, supply rails)
/// that fill catastrophically in assembly order. Results agree with the
/// unpermuted [`super::sparse::solve_triplets`] and the dense LU
/// ([`super::DenseMatrix`]) to solver precision (a different elimination
/// order rounds differently).
#[derive(Debug, Default)]
pub struct CachedSolver {
    map: Option<ScatterMap>,
    csc: CscMatrix,
    /// Permutation plan + permuted matrix, built on the first load of
    /// each pattern.
    plan: Option<PermutePlan>,
    perm_csc: CscMatrix,
    b_perm: Vec<f64>,
    lu: Option<SparseLu>,
    /// Set when a load rebuilt the scatter plan: the loaded pattern may
    /// differ from the factors', so the next refactor compares them.
    pattern_changed: bool,
    stats: SolverStats,
}

impl CachedSolver {
    /// An empty solver; caches fill in on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Work counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Solve `A x = b` where `A` is the triplet assembly `tri`.
    ///
    /// # Errors
    /// Returns [`crate::error::Error::SingularMatrix`] when the system
    /// cannot be factored.
    ///
    /// # Panics
    /// Panics if `b.len()` does not match `tri.dim()`.
    pub fn solve(&mut self, tri: &Triplets, b: &[f64]) -> Result<Vec<f64>> {
        self.load(tri);
        self.refactor()?;
        Ok(self.solve_factored(b))
    }

    /// Make `tri` the matrix the next [`Self::refactor`] factors,
    /// rebuilding the scatter plan (and the ordering) when its coordinate
    /// stream differs from the last one loaded.
    pub(crate) fn load(&mut self, tri: &Triplets) {
        match &self.map {
            Some(map) if map.matches(tri) => map.scatter(tri, &mut self.csc),
            _ => {
                let map = ScatterMap::build(tri);
                map.scatter(tri, &mut self.csc);
                self.map = Some(map);
                self.stats.pattern_rebuilds += 1;
                // The merged pattern may have changed with the stream;
                // recompute the ordering from it. Factors are kept:
                // `refactor` compares patterns and may still hit the
                // numeric path when only the coordinate *stream*
                // changed, not the merged (permuted) pattern.
                self.plan = None;
                self.pattern_changed = true;
            }
        }
        let plan = self.plan.get_or_insert_with(|| {
            let perm = amd_order(&self.csc);
            PermutePlan::build(&self.csc, perm)
        });
        plan.apply(&self.csc, &mut self.perm_csc);
    }

    /// The loaded pattern's permutation plan.
    ///
    /// # Panics
    /// Panics when nothing has been loaded yet.
    fn plan(&self) -> &PermutePlan {
        self.plan.as_ref().expect("no matrix loaded")
    }

    /// The loaded matrix in factor (permuted) order.
    pub(crate) fn matrix(&self) -> &CscMatrix {
        &self.perm_csc
    }

    /// Value slot of the original-coordinate entry `(row, col)` in the
    /// loaded matrix, or `None` when its pattern has no such entry.
    pub(crate) fn slot(&self, row: usize, col: usize) -> Option<usize> {
        let pinv = self.plan().pinv();
        self.perm_csc.slot(pinv[row], pinv[col])
    }

    /// Values of the loaded matrix, indexed by [`Self::slot`]. Writing
    /// them replaces the matrix the next [`Self::refactor`] factors.
    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        self.perm_csc.vals_mut()
    }

    /// The symmetric permutation the loaded matrix is in (`perm[new] =
    /// old`).
    pub(crate) fn perm(&self) -> &[usize] {
        self.plan().perm()
    }

    /// `b − A·x` for the loaded matrix `A`, in original coordinates.
    pub(crate) fn residual(&self, b: &[f64], x: &[f64]) -> Vec<f64> {
        let mut r = b.to_vec();
        let perm = self.perm();
        for (row, col, v) in self.matrix().entries() {
            r[perm[row]] -= v * x[perm[col]];
        }
        r
    }

    /// Factor the loaded matrix: a numeric refactorisation on the cached
    /// pattern when possible. Compares patterns only after a load
    /// rebuilt the scatter plan.
    ///
    /// # Errors
    /// Returns [`crate::error::Error::SingularMatrix`] when the matrix
    /// cannot be factored.
    pub(crate) fn refactor(&mut self) -> Result<()> {
        let a = &self.perm_csc;
        match &mut self.lu {
            Some(lu) => {
                let how = if self.pattern_changed {
                    lu.refactor(a)?
                } else {
                    lu.refactor_same_pattern(a)?
                };
                match how {
                    Refactorization::Numeric => self.stats.refactors += 1,
                    Refactorization::Full => self.stats.full_factors += 1,
                }
            }
            None => {
                self.lu = Some(SparseLu::factor(a)?);
                self.stats.full_factors += 1;
            }
        }
        self.pattern_changed = false;
        let lu = self.lu.as_ref().expect("factored above");
        self.stats.lu_nnz = lu.lu_nnz() as u64;
        self.stats.a_nnz = a.nnz() as u64;
        Ok(())
    }

    /// Solve `A x = b` with the factors of the last [`Self::refactor`].
    ///
    /// # Panics
    /// Panics when nothing has been factored yet, or if `b.len()` does
    /// not match the factored dimension.
    pub(crate) fn solve_factored(&mut self, b: &[f64]) -> Vec<f64> {
        let lu = self.lu.as_ref().expect("solve_factored before refactor");
        let plan = self.plan.as_ref().expect("factored after a load");
        plan.permute_vec(b, &mut self.b_perm);
        let xp = lu.solve(&self.b_perm);
        let mut x = Vec::new();
        plan.unpermute_vec(&xp, &mut x);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::sparse::solve_triplets;

    fn stamp(n: usize, scale: f64) -> Triplets {
        let mut t = Triplets::new(n);
        for i in 0..n {
            t.add(i, i, 4.0 * scale);
            if i + 1 < n {
                t.add(i, i + 1, -scale);
                t.add(i + 1, i, -scale);
            }
        }
        t
    }

    #[test]
    fn cached_matches_uncached_to_tolerance() {
        let mut solver = CachedSolver::new();
        let b = [1.0, 0.5, -0.25, 2.0, 0.0];
        for step in 1..6 {
            let t = stamp(5, f64::from(step));
            let fast = solver.solve(&t, &b).unwrap();
            let slow = solve_triplets(&t, &b).unwrap();
            for (a, n) in fast.iter().zip(&slow) {
                assert!((a - n).abs() < 1e-12, "step {step}: {a} vs {n}");
            }
        }
        // Every solve after the first rides the numeric-refactor path.
        let s = solver.stats();
        assert_eq!(s.full_factors, 1);
        assert_eq!(s.refactors, 4);
        assert_eq!(s.pattern_rebuilds, 1);
        assert!(s.fill_ratio().is_some());
    }

    #[test]
    fn values_written_at_slots_solve_like_a_load() {
        let b = [1.0, 0.5, -0.25, 2.0, 0.0];
        let mut solver = CachedSolver::new();
        solver.solve(&stamp(5, 1.0), &b).unwrap();
        let t = stamp(5, 3.0);
        solver.values_mut().fill(0.0);
        for (r, c, v) in t.iter() {
            let slot = solver.slot(r, c).expect("same pattern");
            solver.values_mut()[slot] += v;
        }
        solver.refactor().unwrap();
        let x = solver.solve_factored(&b);
        let reference = CachedSolver::new().solve(&t, &b).unwrap();
        assert_eq!(x, reference);
        assert_eq!(solver.stats().refactors, 1);
        assert_eq!(solver.slot(0, 4), None);
    }

    #[test]
    fn pattern_change_rebuilds_then_recaches() {
        let mut solver = CachedSolver::new();
        let b = [1.0, 2.0, 3.0];
        let t3 = stamp(3, 1.0);
        solver.solve(&t3, &b).unwrap();
        // Different structure: extra corner entries.
        let mut t = stamp(3, 1.0);
        t.add(0, 2, -0.5);
        t.add(2, 0, -0.5);
        let x = solver.solve(&t, &b).unwrap();
        let xref = solve_triplets(&t, &b).unwrap();
        for (a, r) in x.iter().zip(&xref) {
            assert!((a - r).abs() < 1e-12, "{a} vs {r}");
        }
        assert_eq!(solver.stats().pattern_rebuilds, 2);
        assert_eq!(solver.stats().full_factors, 2);
        // Same new structure again: back on the fast path.
        solver.solve(&t, &b).unwrap();
        assert_eq!(solver.stats().refactors, 1);
    }

    #[test]
    fn fill_stats_reported() {
        let mut solver = CachedSolver::new();
        let t = stamp(6, 1.0);
        let b = [1.0; 6];
        solver.solve(&t, &b).unwrap();
        let s = solver.stats();
        assert_eq!(s.a_nnz, 16); // 6 diagonal + 2*5 off-diagonal
        assert!(s.lu_nnz >= s.a_nnz.min(11)); // at least the tridiagonal band
        let ratio = s.fill_ratio().unwrap();
        assert!(ratio >= 1.0 - 1e-12, "fill ratio {ratio} below 1");
    }

    #[test]
    fn singular_input_reported() {
        let mut solver = CachedSolver::new();
        let t = Triplets::new(2); // all-zero matrix
        assert!(solver.solve(&t, &[1.0, 1.0]).is_err());
    }
}
