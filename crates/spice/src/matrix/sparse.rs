//! Sparse matrix storage and LU factorisation.
//!
//! Assembly happens in triplet form ([`Triplets`]); the solver compresses
//! to CSC ([`CscMatrix`]) and factors with a left-looking Gilbert–Peierls
//! LU with partial pivoting ([`SparseLu`]), the same algorithm family used
//! by CSparse/KLU. MNA matrices from circuit stamping are extremely sparse
//! (a handful of entries per row), which this path exploits.

use crate::error::{Error, Result};
use std::fmt;

/// Coordinate-format assembly buffer. Duplicate `(row, col)` entries are
/// summed during compression, which is exactly the MNA stamping semantic.
#[derive(Debug, Clone, Default)]
pub struct Triplets {
    n: usize,
    entries: Vec<(u32, u32, f64)>,
    /// Reusable sort scratch for [`Triplets::compress_into`].
    order: Vec<u32>,
}

impl Triplets {
    /// Create an assembly buffer for an `n × n` system.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            entries: Vec::new(),
            order: Vec::new(),
        }
    }

    /// System dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of raw (pre-merge) entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries have been stamped.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate the raw (pre-merge, duplicate-carrying) `(row, col, value)`
    /// stamps in insertion order (the engine reads the static prefix of
    /// a stream to bind its value slots).
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.entries
            .iter()
            .map(|&(r, c, v)| (r as usize, c as usize, v))
    }

    /// Stamp `v` into `(row, col)`, accumulating with prior stamps.
    ///
    /// # Panics
    /// Panics (debug builds) if `row`/`col` exceed the dimension.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, v: f64) {
        debug_assert!(row < self.n && col < self.n, "stamp out of range");
        if v != 0.0 {
            self.entries.push((row as u32, col as u32, v));
        }
    }

    /// Drop all entries, keeping capacity (for per-iteration reassembly).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Compress into CSC form, summing duplicates.
    #[must_use]
    pub fn to_csc(&self) -> CscMatrix {
        let mut order = Vec::new();
        fill_order(&self.entries, &mut order);
        let mut out = CscMatrix::default();
        compress_ordered(self.n, &self.entries, &order, &mut out);
        out
    }

    /// Compress into `out`, reusing its buffers and this buffer's sort
    /// scratch. Produces exactly the same matrix as [`Triplets::to_csc`]
    /// without any per-call allocation once capacities have grown.
    pub fn compress_into(&mut self, out: &mut CscMatrix) {
        let mut order = std::mem::take(&mut self.order);
        fill_order(&self.entries, &mut order);
        compress_ordered(self.n, &self.entries, &order, out);
        self.order = order;
    }
}

/// Sink for MNA stamps. [`Triplets`] appends; the engine's slot-bound
/// assembly adds each stamp straight into a value slot of the matrix
/// it factors, so one stamping routine serves both destinations and
/// emits the same value stream to either.
pub trait Stamper {
    /// Stamp `v` into `(row, col)`, accumulating with prior stamps.
    fn add(&mut self, row: usize, col: usize, v: f64);
}

impl Stamper for Triplets {
    #[inline]
    fn add(&mut self, row: usize, col: usize, v: f64) {
        Triplets::add(self, row, col, v);
    }
}

/// Column-major sort order of `entries` as an index array. Ties (duplicate
/// coordinates) keep stamping order, so duplicate merging is deterministic
/// and sums in the same order [`ScatterMap::scatter`] accumulates in —
/// which keeps the cached and uncached assembly paths bit-identical.
fn fill_order(entries: &[(u32, u32, f64)], order: &mut Vec<u32>) {
    order.clear();
    order.extend(0..entries.len() as u32);
    order.sort_unstable_by_key(|&i| {
        let (r, c, _) = entries[i as usize];
        ((u64::from(c) << 32) | u64::from(r), i)
    });
}

/// Compress `entries` (visited in `order`) into `out`, summing duplicates.
fn compress_ordered(n: usize, entries: &[(u32, u32, f64)], order: &[u32], out: &mut CscMatrix) {
    out.n = n;
    out.col_ptr.clear();
    out.col_ptr.resize(n + 1, 0);
    out.row_idx.clear();
    out.vals.clear();
    let mut prev: Option<(u32, u32)> = None;
    for &i in order {
        let (r, c, v) = entries[i as usize];
        if prev == Some((r, c)) {
            *out.vals.last_mut().expect("merge target exists") += v;
        } else {
            out.row_idx.push(r as usize);
            out.vals.push(v);
            out.col_ptr[c as usize + 1] += 1;
            prev = Some((r, c));
        }
    }
    for c in 0..n {
        out.col_ptr[c + 1] += out.col_ptr[c];
    }
}

/// Precomputed triplet-to-CSC scatter plan for one assembly *pattern*.
///
/// MNA stamping emits the same coordinate stream every Newton iteration
/// (values change, structure does not). Building this map once per
/// topology turns each subsequent compression into a single linear pass —
/// no sort, no merge bookkeeping, no allocation.
#[derive(Debug, Clone, Default)]
pub struct ScatterMap {
    n: usize,
    /// Coordinate stream the map was built from, for cheap validity checks.
    coords: Vec<(u32, u32)>,
    /// `slots[i]` = CSC value slot entry `i` accumulates into.
    slots: Vec<u32>,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
}

impl ScatterMap {
    /// Build the scatter plan for `t`'s current coordinate stream.
    #[must_use]
    pub fn build(t: &Triplets) -> Self {
        let mut order = Vec::new();
        fill_order(&t.entries, &mut order);
        let coords: Vec<(u32, u32)> = t.entries.iter().map(|&(r, c, _)| (r, c)).collect();
        let mut slots = vec![0u32; t.entries.len()];
        let mut col_ptr = vec![0usize; t.n + 1];
        let mut row_idx = Vec::new();
        let mut prev: Option<(u32, u32)> = None;
        for &i in &order {
            let (r, c) = coords[i as usize];
            if prev != Some((r, c)) {
                row_idx.push(r as usize);
                col_ptr[c as usize + 1] += 1;
                prev = Some((r, c));
            }
            slots[i as usize] = (row_idx.len() - 1) as u32;
        }
        for c in 0..t.n {
            col_ptr[c + 1] += col_ptr[c];
        }
        Self {
            n: t.n,
            coords,
            slots,
            col_ptr,
            row_idx,
        }
    }

    /// Whether `t`'s coordinate stream is the one this map was built from.
    #[must_use]
    pub fn matches(&self, t: &Triplets) -> bool {
        t.n == self.n
            && t.entries.len() == self.coords.len()
            && t.entries
                .iter()
                .zip(&self.coords)
                .all(|(&(r, c, _), &(mr, mc))| r == mr && c == mc)
    }

    /// Scatter `t`'s values into `out` along the precomputed plan.
    /// Duplicates accumulate in stamping order, matching
    /// [`Triplets::to_csc`] bit for bit.
    ///
    /// # Panics
    /// Panics (debug builds) when `t` does not [`match`](Self::matches)
    /// this map.
    pub fn scatter(&self, t: &Triplets, out: &mut CscMatrix) {
        debug_assert!(self.matches(t), "scatter plan is stale");
        out.n = self.n;
        out.col_ptr.clear();
        out.col_ptr.extend_from_slice(&self.col_ptr);
        out.row_idx.clear();
        out.row_idx.extend_from_slice(&self.row_idx);
        out.vals.clear();
        out.vals.resize(self.row_idx.len(), 0.0);
        for (&(_, _, v), &slot) in t.entries.iter().zip(&self.slots) {
            out.vals[slot as usize] += v;
        }
    }
}

/// Compressed sparse column matrix.
#[derive(Clone, Default, PartialEq)]
pub struct CscMatrix {
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    vals: Vec<f64>,
}

impl fmt::Debug for CscMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CscMatrix {}x{} nnz={}", self.n, self.n, self.vals.len())
    }
}

impl CscMatrix {
    /// System dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored nonzeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.dim()`.
    #[must_use]
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![0.0; self.n];
        for (c, &xc) in x.iter().enumerate() {
            if xc == 0.0 {
                continue;
            }
            for p in self.col_ptr[c]..self.col_ptr[c + 1] {
                y[self.row_idx[p]] += self.vals[p] * xc;
            }
        }
        y
    }

    /// Value slot of the stored entry `(row, col)`, if the pattern has
    /// one (rows are sorted within each column).
    #[must_use]
    pub(crate) fn slot(&self, row: usize, col: usize) -> Option<usize> {
        let start = self.col_ptr[col];
        let rows = &self.row_idx[start..self.col_ptr[col + 1]];
        rows.binary_search(&row).ok().map(|k| start + k)
    }

    /// Stored values in slot order, for in-place numeric updates on a
    /// fixed pattern.
    pub(crate) fn vals_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// Iterate over stored `(row, col, value)` entries in column order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n).flat_map(move |c| {
            (self.col_ptr[c]..self.col_ptr[c + 1]).map(move |p| (self.row_idx[p], c, self.vals[p]))
        })
    }

    /// Dense round-trip, for debugging and reference comparison.
    #[must_use]
    pub fn to_dense(&self) -> super::dense::DenseMatrix {
        let mut d = super::dense::DenseMatrix::zeros(self.n, self.n);
        for c in 0..self.n {
            for p in self.col_ptr[c]..self.col_ptr[c + 1] {
                d[(self.row_idx[p], c)] += self.vals[p];
            }
        }
        d
    }
}

/// Fill-reducing symmetric pre-ordering: minimum degree on the adjacency
/// graph of `A + Aᵀ` (diagonal ignored), the AMD family of heuristics.
/// Returns `perm` with `perm[new] = old` — eliminate `perm[0]` first.
///
/// Elimination merges each pivot's neighbourhood into a clique, exactly
/// mirroring where LU fill would appear; picking the minimum-degree node
/// (smallest index on ties, so the order is deterministic) keeps those
/// cliques small. MNA matrices are small enough (thousands of variables)
/// that the simple quadratic min-degree scan is irrelevant next to the
/// factorisations the ordering speeds up.
#[must_use]
pub fn amd_order(a: &CscMatrix) -> Vec<usize> {
    let n = a.n;
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for c in 0..n {
        for p in a.col_ptr[c]..a.col_ptr[c + 1] {
            let r = a.row_idx[p];
            if r != c {
                adj[r].push(c);
                adj[c].push(r);
            }
        }
    }
    // Dedup the symmetrised adjacency with a mark array.
    let mut mark = vec![usize::MAX; n];
    for (i, list) in adj.iter_mut().enumerate() {
        list.retain(|&j| {
            if mark[j] == i {
                false
            } else {
                mark[j] = i;
                true
            }
        });
    }
    let mut eliminated = vec![false; n];
    let mut perm = Vec::with_capacity(n);
    let mut gen = n; // marker values 0..n were consumed by the dedup pass
    for _ in 0..n {
        let mut k = usize::MAX;
        let mut deg = usize::MAX;
        for (v, list) in adj.iter().enumerate() {
            if !eliminated[v] && list.len() < deg {
                deg = list.len();
                k = v;
            }
        }
        eliminated[k] = true;
        perm.push(k);
        // Clique-merge: the pivot's (uneliminated) neighbours become
        // mutually adjacent, and the pivot leaves every list.
        let nbrs = std::mem::take(&mut adj[k]);
        for &v in &nbrs {
            gen += 1;
            mark[v] = gen; // no self-loops
            mark[k] = gen; // pivot is gone
            let mut list = std::mem::take(&mut adj[v]);
            list.retain(|&j| {
                if mark[j] == gen || eliminated[j] {
                    false
                } else {
                    mark[j] = gen;
                    true
                }
            });
            for &w in &nbrs {
                if mark[w] != gen {
                    mark[w] = gen;
                    list.push(w);
                }
            }
            adj[v] = list;
        }
    }
    perm
}

/// Precomputed symmetric-permutation plan for one sparsity pattern:
/// maps value slots of the original matrix straight into the permuted
/// matrix `B = P A Pᵀ` (`B[pinv[r], pinv[c]] = A[r, c]`), so refreshing
/// the permuted values each Newton iteration is a single linear pass.
#[derive(Debug, Clone)]
pub struct PermutePlan {
    /// `perm[new] = old`.
    perm: Vec<usize>,
    /// `pinv[old] = new`.
    pinv: Vec<usize>,
    /// `permuted.vals[k] = a.vals[map[k]]`.
    map: Vec<usize>,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
}

impl PermutePlan {
    /// Build the plan for `a`'s pattern under `perm` (`perm[new] = old`).
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..a.dim()`.
    #[must_use]
    pub fn build(a: &CscMatrix, perm: Vec<usize>) -> Self {
        let n = a.n;
        assert_eq!(perm.len(), n, "permutation length mismatch");
        let mut pinv = vec![usize::MAX; n];
        for (new, &old) in perm.iter().enumerate() {
            pinv[old] = new;
        }
        assert!(pinv.iter().all(|&p| p != usize::MAX), "not a permutation");
        let mut col_ptr = vec![0usize; n + 1];
        let mut row_idx = Vec::with_capacity(a.nnz());
        let mut map = Vec::with_capacity(a.nnz());
        let mut tmp: Vec<(usize, usize)> = Vec::new();
        for (nc, &oc) in perm.iter().enumerate() {
            tmp.clear();
            for p in a.col_ptr[oc]..a.col_ptr[oc + 1] {
                tmp.push((pinv[a.row_idx[p]], p));
            }
            tmp.sort_unstable();
            for &(r, p) in &tmp {
                row_idx.push(r);
                map.push(p);
            }
            col_ptr[nc + 1] = row_idx.len();
        }
        Self {
            perm,
            pinv,
            map,
            col_ptr,
            row_idx,
        }
    }

    /// The permutation, `perm[new] = old`.
    #[must_use]
    pub(crate) fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// The inverse permutation, `pinv[old] = new`.
    #[must_use]
    pub(crate) fn pinv(&self) -> &[usize] {
        &self.pinv
    }

    /// Whether this plan can permute `a` (dimension and nnz agree; the
    /// caller is responsible for rebuilding on genuine pattern changes).
    #[must_use]
    pub fn compatible(&self, a: &CscMatrix) -> bool {
        a.n == self.perm.len() && a.nnz() == self.map.len()
    }

    /// Write `P a Pᵀ` into `out`, reusing its buffers.
    ///
    /// # Panics
    /// Panics if `a` is not [`compatible`](Self::compatible).
    pub fn apply(&self, a: &CscMatrix, out: &mut CscMatrix) {
        assert!(self.compatible(a), "permute plan is stale");
        out.n = self.perm.len();
        out.col_ptr.clear();
        out.col_ptr.extend_from_slice(&self.col_ptr);
        out.row_idx.clear();
        out.row_idx.extend_from_slice(&self.row_idx);
        out.vals.clear();
        out.vals.extend(self.map.iter().map(|&p| a.vals[p]));
    }

    /// Permute a right-hand side: `out[new] = b[perm[new]]`.
    pub fn permute_vec(&self, b: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.perm.iter().map(|&old| b[old]));
    }

    /// Un-permute a solution: `out[perm[new]] = xp[new]`.
    pub fn unpermute_vec(&self, xp: &[f64], out: &mut Vec<f64>) {
        out.resize(xp.len(), 0.0);
        for (new, &old) in self.perm.iter().enumerate() {
            out[old] = xp[new];
        }
    }
}

/// Left-looking sparse LU factors with partial pivoting.
///
/// Row indices of `L`/`U` are in *pivotal* order after factorisation;
/// [`SparseLu::solve`] applies the row permutation internally. The
/// factors retain the input matrix's sparsity pattern so
/// [`SparseLu::refactor`] can redo the numeric work alone (KLU-style)
/// when the same topology is factored again with new values.
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    l_colptr: Vec<usize>,
    l_rowidx: Vec<usize>,
    l_vals: Vec<f64>,
    u_colptr: Vec<usize>,
    u_rowidx: Vec<usize>,
    u_vals: Vec<f64>,
    /// `pinv[original_row] = pivotal position`.
    pinv: Vec<isize>,
    /// Pattern of the matrix these factors were computed from, used to
    /// decide whether a numeric-only refactorisation is valid.
    a_colptr: Vec<usize>,
    a_rowidx: Vec<usize>,
    /// Dense accumulator reused across [`SparseLu::refactor`] calls.
    work: Vec<f64>,
}

/// Which path [`SparseLu::refactor`] ended up taking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refactorization {
    /// Pivot order and sparsity pattern were reused; only the numeric
    /// values were recomputed.
    Numeric,
    /// A full factorisation ran (pattern changed, or a reused pivot
    /// degraded below the stability threshold).
    Full,
}

/// Partial-pivot threshold: prefer the diagonal when it is within this
/// factor of the column maximum (reduces fill while staying stable).
const PIVOT_TOL: f64 = 0.1;
/// Absolute pivot floor below which the matrix is declared singular.
const PIVOT_EPS: f64 = 1e-300;

impl SparseLu {
    /// Stored nonzeros of `L + U`, counting the (shared) diagonal once —
    /// the numerator of the fill-in ratio `nnz(L+U) / nnz(A)`.
    #[must_use]
    pub fn lu_nnz(&self) -> usize {
        // L carries a unit diagonal and U the pivot diagonal; drop one.
        (self.l_vals.len() + self.u_vals.len()).saturating_sub(self.n)
    }

    /// Factor `a` (which must be square by construction).
    ///
    /// # Errors
    /// Returns [`Error::SingularMatrix`] when no acceptable pivot exists
    /// in some column.
    pub fn factor(a: &CscMatrix) -> Result<Self> {
        let n = a.n;
        let mut lu = Self {
            n,
            l_colptr: vec![0; n + 1],
            l_rowidx: Vec::with_capacity(a.nnz() * 4),
            l_vals: Vec::with_capacity(a.nnz() * 4),
            u_colptr: vec![0; n + 1],
            u_rowidx: Vec::with_capacity(a.nnz() * 4),
            u_vals: Vec::with_capacity(a.nnz() * 4),
            pinv: vec![-1; n],
            a_colptr: a.col_ptr.clone(),
            a_rowidx: a.row_idx.clone(),
            work: vec![0.0; n],
        };
        let mut x = vec![0.0f64; n];
        let mut xi = vec![0usize; 2 * n]; // pattern stack + DFS stack
        let mut mark = vec![0u32; n];
        let mut mark_gen = 0u32;

        for k in 0..n {
            lu.l_colptr[k] = lu.l_vals.len();
            lu.u_colptr[k] = lu.u_vals.len();

            // Sparse triangular solve x = L \ A(:,k): find reachable set
            // via DFS over the partially built L, then solve in topological
            // order (reverse DFS postorder).
            mark_gen += 1;
            let top = lu.reach(a, k, &mut xi, &mut mark, mark_gen);
            for p in a.col_ptr[k]..a.col_ptr[k + 1] {
                x[a.row_idx[p]] = a.vals[p];
            }
            for &j in &xi[top..n] {
                let jp = lu.pinv[j];
                if jp < 0 {
                    continue; // row not yet pivotal: x[j] is final
                }
                let jp = jp as usize;
                // Column jp of L is complete (jp < k); its first entry is
                // the (unit) diagonal.
                let start = lu.l_colptr[jp];
                let end = lu.l_colptr[jp + 1];
                let xj = x[j] / lu.l_vals[start];
                x[j] = xj;
                for p in start + 1..end {
                    x[lu.l_rowidx[p]] -= lu.l_vals[p] * xj;
                }
            }

            // Pivot search among not-yet-pivotal rows.
            let mut ipiv: isize = -1;
            let mut amax = -1.0f64;
            for &i in &xi[top..n] {
                if lu.pinv[i] < 0 {
                    let t = x[i].abs();
                    if t > amax {
                        amax = t;
                        ipiv = i as isize;
                    }
                } else {
                    lu.u_rowidx.push(lu.pinv[i] as usize);
                    lu.u_vals.push(x[i]);
                }
            }
            if ipiv < 0 || amax <= PIVOT_EPS {
                return Err(Error::SingularMatrix { index: k });
            }
            // Prefer the natural diagonal when acceptable (less fill).
            if lu.pinv[k] < 0 && x[k].abs() >= amax * PIVOT_TOL {
                ipiv = k as isize;
            }
            let ipiv = ipiv as usize;
            let pivot = x[ipiv];
            lu.u_rowidx.push(k);
            lu.u_vals.push(pivot);
            lu.pinv[ipiv] = k as isize;
            lu.l_rowidx.push(ipiv);
            lu.l_vals.push(1.0);
            for &i in &xi[top..n] {
                if lu.pinv[i] < 0 {
                    lu.l_rowidx.push(i);
                    lu.l_vals.push(x[i] / pivot);
                }
                x[i] = 0.0;
            }
        }
        lu.l_colptr[n] = lu.l_vals.len();
        lu.u_colptr[n] = lu.u_vals.len();
        // Remap L's row indices into pivotal order.
        for idx in &mut lu.l_rowidx {
            *idx = lu.pinv[*idx] as usize;
        }
        Ok(lu)
    }

    /// Factor `a` again, reusing the stored pivot order and `L`/`U`
    /// sparsity pattern when `a` has the same pattern these factors were
    /// built from (KLU-style numeric refactorisation — no DFS, no pivot
    /// search, no allocation). Falls back to a full [`SparseLu::factor`]
    /// when the pattern differs or a reused pivot degrades below the
    /// partial-pivoting threshold, so the result is always as accurate
    /// as a fresh factorisation. For an unchanged pattern the numeric
    /// path performs the same arithmetic in the same order as `factor`,
    /// so the factors are bit-identical.
    ///
    /// # Errors
    /// Returns [`Error::SingularMatrix`] when the fallback full
    /// factorisation fails.
    pub fn refactor(&mut self, a: &CscMatrix) -> Result<Refactorization> {
        if a.n != self.n || a.col_ptr != self.a_colptr || a.row_idx != self.a_rowidx {
            *self = Self::factor(a)?;
            return Ok(Refactorization::Full);
        }
        self.refactor_same_pattern(a)
    }

    /// [`SparseLu::refactor`] for a caller that knows `a` has the pattern
    /// these factors were built from: skips the pattern comparison.
    ///
    /// # Errors
    /// Returns [`Error::SingularMatrix`] when the fallback full
    /// factorisation fails.
    pub(crate) fn refactor_same_pattern(&mut self, a: &CscMatrix) -> Result<Refactorization> {
        debug_assert!(
            a.n == self.n && a.col_ptr == self.a_colptr && a.row_idx == self.a_rowidx,
            "refactor_same_pattern on a changed pattern"
        );
        if self.refactor_numeric(a) {
            Ok(Refactorization::Numeric)
        } else {
            *self = Self::factor(a)?;
            Ok(Refactorization::Full)
        }
    }

    /// Numeric-only refactorisation along the stored pattern. Returns
    /// `false` (leaving partially updated values that the caller must
    /// replace via full factorisation) when a reused pivot is no longer
    /// acceptable.
    fn refactor_numeric(&mut self, a: &CscMatrix) -> bool {
        let n = self.n;
        let mut x = std::mem::take(&mut self.work);
        x.resize(n, 0.0);
        let mut ok = true;
        for k in 0..n {
            // Scatter A(:,k) in pivotal row coordinates. The pattern
            // matched, so every index is inside the stored reach set.
            for p in a.col_ptr[k]..a.col_ptr[k + 1] {
                x[self.pinv[a.row_idx[p]] as usize] = a.vals[p];
            }
            let u_start = self.u_colptr[k];
            let u_end = self.u_colptr[k + 1];
            let ls = self.l_colptr[k];
            let le = self.l_colptr[k + 1];
            // Eliminate with the already-rebuilt columns of L, walking
            // the stored U rows — they are in topological order, exactly
            // the order `factor` discovered them in.
            for p in u_start..u_end - 1 {
                let j = self.u_rowidx[p];
                let xj = x[j];
                self.u_vals[p] = xj;
                if xj != 0.0 {
                    for q in self.l_colptr[j] + 1..self.l_colptr[j + 1] {
                        x[self.l_rowidx[q]] -= self.l_vals[q] * xj;
                    }
                }
            }
            // The stored pivot row for column k is L's unit-diagonal
            // slot; check it still dominates its column well enough.
            let pivot = x[k];
            let mut amax = pivot.abs();
            for q in ls + 1..le {
                amax = amax.max(x[self.l_rowidx[q]].abs());
            }
            if !pivot.is_finite() || pivot.abs() <= PIVOT_EPS || pivot.abs() < amax * PIVOT_TOL {
                // Pivot degraded: clear the touched entries and bail out
                // to a full factorisation with fresh pivoting.
                for p in u_start..u_end - 1 {
                    x[self.u_rowidx[p]] = 0.0;
                }
                x[k] = 0.0;
                for q in ls + 1..le {
                    x[self.l_rowidx[q]] = 0.0;
                }
                ok = false;
                break;
            }
            self.u_vals[u_end - 1] = pivot;
            self.l_vals[ls] = 1.0;
            for q in ls + 1..le {
                let i = self.l_rowidx[q];
                self.l_vals[q] = x[i] / pivot;
                x[i] = 0.0;
            }
            for p in u_start..u_end - 1 {
                x[self.u_rowidx[p]] = 0.0;
            }
            x[k] = 0.0;
        }
        self.work = x;
        ok
    }

    /// DFS reachability of column `k`'s pattern over the partial `L`.
    /// Returns `top` such that `xi[top..n]` holds the pattern in
    /// topological order. `xi[n..2n]` is scratch for the edge-position
    /// stack.
    fn reach(
        &self,
        a: &CscMatrix,
        k: usize,
        xi: &mut [usize],
        mark: &mut [u32],
        gen: u32,
    ) -> usize {
        let n = self.n;
        let mut top = n;
        for p in a.col_ptr[k]..a.col_ptr[k + 1] {
            let root = a.row_idx[p];
            if mark[root] == gen {
                continue;
            }
            // Iterative DFS from `root`.
            let mut head = 0usize;
            xi[0] = root;
            while head != usize::MAX {
                let j = xi[head];
                if mark[j] != gen {
                    mark[j] = gen;
                    // Start of column scan for this node.
                    xi[n + head] = match self.pinv[j] {
                        jp if jp >= 0 => self.l_colptr[jp as usize] + 1,
                        _ => usize::MAX, // leaf: no outgoing edges
                    };
                }
                let mut done = true;
                if xi[n + head] != usize::MAX {
                    // Non-leaf: column pinv[j] of L is complete.
                    let jp = self.pinv[j] as usize;
                    let end = self.l_colptr[jp + 1];
                    let mut pos = xi[n + head];
                    while pos < end {
                        let i = self.l_rowidx[pos];
                        pos += 1;
                        if mark[i] != gen {
                            xi[n + head] = pos;
                            head += 1;
                            xi[head] = i;
                            done = false;
                            break;
                        }
                    }
                    if done {
                        xi[n + head] = end;
                    }
                }
                if done {
                    // Postorder: push onto the pattern (reverse topological).
                    top -= 1;
                    // Move finished node into the output region. We must be
                    // careful not to clobber the DFS stack below `head`.
                    let node = xi[head];
                    if head == 0 {
                        head = usize::MAX;
                    } else {
                        head -= 1;
                    }
                    xi[top] = node;
                }
            }
        }
        top
    }

    /// Solve `a * x = b` with the stored factors.
    ///
    /// # Panics
    /// Panics if `b.len()` does not match the factored dimension.
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.n;
        assert_eq!(b.len(), n);
        // x = P b
        let mut x = vec![0.0; n];
        for (i, &bi) in b.iter().enumerate() {
            x[self.pinv[i] as usize] = bi;
        }
        // L x = x (unit-diagonal first entry per column).
        for j in 0..n {
            let start = self.l_colptr[j];
            let end = self.l_colptr[j + 1];
            let xj = x[j] / self.l_vals[start];
            x[j] = xj;
            for p in start + 1..end {
                x[self.l_rowidx[p]] -= self.l_vals[p] * xj;
            }
        }
        // U x = x (diagonal is last entry per column).
        for j in (0..n).rev() {
            let start = self.u_colptr[j];
            let end = self.u_colptr[j + 1];
            let xj = x[j] / self.u_vals[end - 1];
            x[j] = xj;
            for p in start..end - 1 {
                x[self.u_rowidx[p]] -= self.u_vals[p] * xj;
            }
        }
        x
    }
}

/// Solve a triplet-assembled system in one call (factor + solve).
///
/// # Errors
/// Propagates [`Error::SingularMatrix`] from factorisation.
pub fn solve_triplets(t: &Triplets, b: &[f64]) -> Result<Vec<f64>> {
    let lu = SparseLu::factor(&t.to_csc())?;
    Ok(lu.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::dense::DenseMatrix;

    fn residual(t: &Triplets, x: &[f64], b: &[f64]) -> f64 {
        let y = t.to_csc().mul_vec(x);
        y.iter()
            .zip(b)
            .map(|(yi, bi)| (yi - bi).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn triplets_merge_duplicates() {
        let mut t = Triplets::new(2);
        t.add(0, 0, 1.0);
        t.add(0, 0, 2.0);
        t.add(1, 1, 4.0);
        let csc = t.to_csc();
        assert_eq!(csc.nnz(), 2);
        let d = csc.to_dense();
        assert_eq!(d[(0, 0)], 3.0);
        assert_eq!(d[(1, 1)], 4.0);
    }

    #[test]
    fn solves_diagonal() {
        let mut t = Triplets::new(3);
        for i in 0..3 {
            t.add(i, i, (i + 1) as f64);
        }
        let x = solve_triplets(&t, &[1.0, 4.0, 9.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_asymmetric_with_pivoting() {
        let mut t = Triplets::new(3);
        // Zero diagonal head forces pivoting.
        t.add(0, 1, 2.0);
        t.add(0, 2, 1.0);
        t.add(1, 0, 1.0);
        t.add(1, 1, 1.0);
        t.add(2, 0, 3.0);
        t.add(2, 2, -1.0);
        let b = [4.0, 3.0, 2.0];
        let x = solve_triplets(&t, &b).unwrap();
        assert!(residual(&t, &x, &b) < 1e-12, "residual too large");
    }

    #[test]
    fn singular_detected() {
        let mut t = Triplets::new(2);
        t.add(0, 0, 1.0);
        t.add(1, 0, 1.0); // column 1 empty -> singular
        assert!(matches!(
            solve_triplets(&t, &[1.0, 1.0]),
            Err(Error::SingularMatrix { .. })
        ));
    }

    #[test]
    fn matches_dense_on_mna_like_pattern() {
        // Typical MNA: SPD-ish conductance block plus voltage-source rows.
        let mut t = Triplets::new(4);
        let mut d = DenseMatrix::zeros(4, 4);
        let entries = [
            (0, 0, 2.0),
            (0, 1, -1.0),
            (1, 0, -1.0),
            (1, 1, 3.0),
            (1, 2, -2.0),
            (2, 1, -2.0),
            (2, 2, 2.0),
            (0, 3, 1.0),
            (3, 0, 1.0),
        ];
        for (r, c, v) in entries {
            t.add(r, c, v);
            d.add(r, c, v);
        }
        let b = [1.0, 0.0, 0.5, 1.8];
        let xs = solve_triplets(&t, &b).unwrap();
        let xd = d.solve(&b).unwrap();
        for (a, bv) in xs.iter().zip(&xd) {
            assert!((a - bv).abs() < 1e-10, "sparse {a} vs dense {bv}");
        }
    }

    #[test]
    fn larger_random_system_matches_dense() {
        // Deterministic pseudo-random system with guaranteed diagonal
        // dominance (always solvable).
        let n = 40;
        let mut t = Triplets::new(n);
        let mut d = DenseMatrix::zeros(n, n);
        let mut state = 0x1234_5678u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        for i in 0..n {
            for _ in 0..4 {
                let j = ((rng() + 0.5) * n as f64) as usize % n;
                let v = rng();
                t.add(i, j, v);
                d.add(i, j, v);
            }
            t.add(i, i, 10.0);
            d.add(i, i, 10.0);
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let xs = solve_triplets(&t, &b).unwrap();
        let xd = d.solve(&b).unwrap();
        for (a, bv) in xs.iter().zip(&xd) {
            assert!((a - bv).abs() < 1e-8, "sparse {a} vs dense {bv}");
        }
    }

    /// A small asymmetric system with duplicates and an empty column gap.
    fn sample_triplets() -> Triplets {
        let mut t = Triplets::new(4);
        t.add(0, 0, 2.0);
        t.add(0, 0, 0.5); // duplicate
        t.add(1, 0, -1.0);
        t.add(0, 1, -1.0);
        t.add(1, 1, 3.0);
        t.add(2, 2, 2.0);
        t.add(3, 2, -0.5);
        t.add(2, 3, -0.5);
        t.add(3, 3, 1.5);
        t.add(3, 0, 0.25);
        t
    }

    #[test]
    fn compress_into_matches_to_csc() {
        let mut t = sample_triplets();
        let reference = t.to_csc();
        let mut out = CscMatrix::default();
        t.compress_into(&mut out);
        assert_eq!(out, reference);
        // Re-stamp (same coordinates, new values) and reuse the buffers.
        t.clear();
        t.add(0, 0, 7.0);
        t.add(2, 1, -2.0);
        t.compress_into(&mut out);
        assert_eq!(out, t.to_csc());
    }

    #[test]
    fn scatter_map_roundtrips_including_duplicates() {
        let t = sample_triplets();
        let map = ScatterMap::build(&t);
        assert!(map.matches(&t));
        let mut out = CscMatrix::default();
        map.scatter(&t, &mut out);
        assert_eq!(out, t.to_csc());
        // A different coordinate stream must be rejected.
        let mut other = Triplets::new(4);
        other.add(1, 1, 1.0);
        assert!(!map.matches(&other));
    }

    #[test]
    fn refactor_reuses_pattern_and_matches_fresh_factor() {
        let t = sample_triplets();
        let a1 = t.to_csc();
        let mut lu = SparseLu::factor(&a1).unwrap();
        // Same pattern, new values.
        let mut t2 = Triplets::new(4);
        for (r, c, v) in a1.entries() {
            t2.add(r, c, v * 1.7 + f64::from(u8::from(r == c)));
        }
        let a2 = t2.to_csc();
        assert_eq!(lu.refactor(&a2).unwrap(), Refactorization::Numeric);
        let fresh = SparseLu::factor(&a2).unwrap();
        let b = [1.0, -2.0, 0.5, 3.0];
        assert_eq!(
            lu.solve(&b),
            fresh.solve(&b),
            "numeric path must be bit-identical"
        );
    }

    #[test]
    fn refactor_detects_pattern_change() {
        let t = sample_triplets();
        let mut lu = SparseLu::factor(&t.to_csc()).unwrap();
        let mut t2 = sample_triplets();
        t2.add(1, 3, 0.125); // new structural entry
        let a2 = t2.to_csc();
        assert_eq!(lu.refactor(&a2).unwrap(), Refactorization::Full);
        let b = [1.0, 0.0, -1.0, 2.0];
        assert_eq!(lu.solve(&b), SparseLu::factor(&a2).unwrap().solve(&b));
    }

    #[test]
    fn refactor_falls_back_when_pivot_degrades() {
        // First factor picks the diagonal; then the diagonal collapses so
        // reusing that pivot order would be unstable.
        let mut t = Triplets::new(2);
        t.add(0, 0, 4.0);
        t.add(1, 0, 1.0);
        t.add(0, 1, 1.0);
        t.add(1, 1, 4.0);
        let mut lu = SparseLu::factor(&t.to_csc()).unwrap();
        let mut t2 = Triplets::new(2);
        t2.add(0, 0, 1e-9);
        t2.add(1, 0, 1.0);
        t2.add(0, 1, 1.0);
        t2.add(1, 1, 4.0);
        let a2 = t2.to_csc();
        assert_eq!(lu.refactor(&a2).unwrap(), Refactorization::Full);
        let b = [1.0, 2.0];
        let x = lu.solve(&b);
        let y = a2.mul_vec(&x);
        for (yi, bi) in y.iter().zip(&b) {
            assert!((yi - bi).abs() < 1e-9, "residual {yi} vs {bi}");
        }
    }

    #[test]
    fn amd_order_is_a_permutation_and_reduces_arrow_fill() {
        // Arrow matrix: dense first row/column. Natural order fills the
        // whole matrix; eliminating the hub last keeps L+U sparse.
        let n = 12;
        let mut t = Triplets::new(n);
        for i in 0..n {
            t.add(i, i, 4.0);
        }
        for i in 1..n {
            t.add(0, i, -1.0);
            t.add(i, 0, -1.0);
        }
        let a = t.to_csc();
        let perm = amd_order(&a);
        let mut seen = vec![false; n];
        for &p in &perm {
            assert!(!seen[p], "duplicate index {p}");
            seen[p] = true;
        }
        // The dense hub must not be eliminated while leaves remain
        // cheaper (it surfaces only once its degree ties the leaves').
        assert!(
            perm.iter().position(|&p| p == 0).unwrap() >= n - 2,
            "hub eliminated too early: {perm:?}"
        );
        let natural = SparseLu::factor(&a).unwrap().lu_nnz();
        let plan = PermutePlan::build(&a, perm);
        let mut pa = CscMatrix::default();
        plan.apply(&a, &mut pa);
        let permuted = SparseLu::factor(&pa).unwrap().lu_nnz();
        assert!(
            permuted < natural,
            "AMD fill {permuted} not below natural {natural}"
        );
    }

    #[test]
    fn permute_plan_solves_match_unpermuted() {
        let t = sample_triplets();
        let a = t.to_csc();
        let perm = amd_order(&a);
        let plan = PermutePlan::build(&a, perm);
        let mut pa = CscMatrix::default();
        plan.apply(&a, &mut pa);
        let b = [1.0, -2.0, 0.5, 3.0];
        let mut bp = Vec::new();
        plan.permute_vec(&b, &mut bp);
        let xp = SparseLu::factor(&pa).unwrap().solve(&bp);
        let mut x = Vec::new();
        plan.unpermute_vec(&xp, &mut x);
        let xref = SparseLu::factor(&a).unwrap().solve(&b);
        for (xi, ri) in x.iter().zip(&xref) {
            assert!((xi - ri).abs() < 1e-12, "permuted {xi} vs natural {ri}");
        }
    }

    #[test]
    fn refactor_across_many_value_sets() {
        // Newton-like usage: one pattern, many value sets.
        let n = 30;
        let mut state = 0x9e37_79b9u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let mut coords = Vec::new();
        for i in 0..n {
            coords.push((i, i));
            coords.push((i, (i + 1) % n));
            coords.push(((i + 2) % n, i));
        }
        let build = |rng: &mut dyn FnMut() -> f64| {
            let mut t = Triplets::new(n);
            for &(r, c) in &coords {
                t.add(r, c, rng() + if r == c { 6.0 } else { 0.0 });
            }
            t.to_csc()
        };
        let mut lu = SparseLu::factor(&build(&mut rng)).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        for _ in 0..10 {
            let a = build(&mut rng);
            assert_eq!(lu.refactor(&a).unwrap(), Refactorization::Numeric);
            assert_eq!(lu.solve(&b), SparseLu::factor(&a).unwrap().solve(&b));
        }
    }
}
