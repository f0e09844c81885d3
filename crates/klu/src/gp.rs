//! The Gilbert–Peierls factorization kernel (paper Algorithm 1).
//!
//! Left-looking sparse LU: for each column, a depth-first search over the
//! pattern of the already-computed `L` discovers the fill pattern in time
//! proportional to arithmetic work, a sparse accumulator applies the
//! updates, and a threshold partial pivot with diagonal preference is
//! selected (KLU's strategy).
//!
//! The kernel factors a **stacked block column**
//!
//! ```text
//! [ A_d  ]   nb x nb   diagonal block — pivots live here
//! [ A_b1 ]   m1 x nb   trailing row blocks — carried through the
//! [ ...  ]             elimination and divided by the pivots, but never
//! [ A_bk ]   mk x nb   pivoted into
//! ```
//!
//! With no trailing blocks this is exactly KLU's per-block factorization;
//! with them it is the primitive from which Basker's 2-D algorithm factors
//! leaf and separator block columns (paper Alg. 4 lines 4–5 and 26–28).

use basker_sparse::{CscMat, Perm, Result, SparseError};

/// LU factors of one stacked block column.
#[derive(Debug, Clone)]
pub struct BlockLu {
    /// Unit lower triangular `nb x nb` factor, **pivotal** row coordinates,
    /// columns sorted, explicit 1.0 diagonal stored first in each column.
    pub l: CscMat,
    /// Upper triangular `nb x nb` factor, columns sorted, diagonal last.
    pub u: CscMat,
    /// Factored trailing row blocks (`L` rows below the diagonal block),
    /// one per input block, rows in the block's own local coordinates.
    pub below: Vec<CscMat>,
    /// `pinv[local row] = pivot position` for the diagonal block.
    pub pinv: Vec<usize>,
    /// Gather row permutation: position `k` holds original local row
    /// `row_perm[k]`.
    pub row_perm: Perm,
    /// Floating-point operations spent in the numeric phase.
    pub flops: f64,
    /// The supernodes of `l` in pivotal order — supernode `s` is columns
    /// `supernodes[s]..supernodes[s + 1]`, each column's rows below the
    /// diagonal being the next column of its supernode and then the rows
    /// its supernode shares — for an owner that solves by supernode;
    /// empty until that owner finds them from `l`'s pattern.
    pub supernodes: Vec<usize>,
}

impl BlockLu {
    /// Total stored entries in `L + U` (the paper's `|L+U|` metric),
    /// counting the unit diagonal once (it is stored in `L`; the pivot is
    /// in `U`, so subtract the duplicated diagonal).
    pub fn lu_nnz(&self) -> usize {
        let b: usize = self.below.iter().map(|m| m.nnz()).sum();
        // L stores an explicit unit diagonal that KLU does not count twice.
        self.l.nnz() + self.u.nnz() + b - self.l.ncols()
    }

    /// `(min |u_jj|, max |u_jj|)` over the pivots of this block — the raw
    /// material of KLU-style condition estimates (`klu_rcond` is exactly
    /// `min/max`) and of pivot-growth gates on the refactorization path.
    /// Returns `(∞, 0)` for an empty block so callers can fold ranges
    /// with `min`/`max`.
    pub fn pivot_range(&self) -> (f64, f64) {
        basker_sparse::util::u_diag_pivot_range(&self.u)
    }

    /// Applies `x ← U⁻¹ L⁻¹ P x` for the diagonal block (dense rhs).
    ///
    /// Allocates a temporary for the pivot permutation; hot paths should
    /// prefer [`BlockLu::solve_in_place_with`] with caller-owned scratch.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        let mut scratch = vec![[0.0]; x.len()];
        self.solve_in_place_with(basker_kernels::rows_mut::<1>(x), &mut scratch);
    }

    /// Allocation-free variant of [`BlockLu::solve_in_place`] on a
    /// row-major panel of `K` right-hand sides (`K = 1`: one plain
    /// vector): the pivot permutation moves whole rows, then one pass
    /// over `L` and one over `U` serve every column. `scratch` must be
    /// at least as long as `x` and is clobbered.
    // basker-lint: deny-alloc
    pub fn solve_in_place_with<const K: usize>(
        &self,
        x: &mut [[f64; K]],
        scratch: &mut [[f64; K]],
    ) {
        debug_assert_eq!(x.len(), self.l.ncols());
        let n = x.len();
        self.row_perm.apply_vec_into(x, &mut scratch[..n]);
        x.copy_from_slice(&scratch[..n]);
        basker_sparse::trisolve::lower_solve_in_place(&self.l, x);
        basker_sparse::trisolve::upper_solve_in_place(&self.u, x);
    }
}

const UNSET: usize = usize::MAX;

/// Incremental Gilbert–Peierls factorization of a stacked block column,
/// fed **one column at a time** through
/// [`factor_col`](BlockColumnFactorizer::factor_col) by
/// [`factor_block_column`], the all-at-once wrapper over this type.
struct BlockColumnFactorizer {
    nb: usize,
    pivot_tol: f64,
    col_offset: usize,
    next_col: usize,
    // Growing L (original local row coords until the final renumbering).
    lcolptr: Vec<usize>,
    lrows: Vec<usize>,
    lvals: Vec<f64>,
    // Growing U (pivotal coords by construction).
    ucolptr: Vec<usize>,
    urows: Vec<usize>,
    uvals: Vec<f64>,
    // Growing below blocks.
    below_nrows: Vec<usize>,
    bcolptr: Vec<Vec<usize>>,
    brows: Vec<Vec<usize>>,
    bvals: Vec<Vec<f64>>,
    pinv: Vec<usize>,
    prow_of: Vec<usize>,
    // Sparse accumulator for the diagonal part.
    xd: Vec<f64>,
    mark: Vec<usize>,
    topo: Vec<usize>,
    dfs: Vec<(usize, usize)>,
    pattern_rows: Vec<usize>,
    // Accumulators for the below blocks.
    xb: Vec<Vec<f64>>,
    bmark: Vec<Vec<usize>>,
    bpat: Vec<Vec<usize>>,
    flops: f64,
}

impl BlockColumnFactorizer {
    /// Starts a factorization of an `nb x nb` diagonal block stacked on
    /// trailing row blocks with the given row counts.
    ///
    /// `pivot_tol` ∈ (0, 1]: the diagonal entry is kept as pivot when
    /// its magnitude is at least `pivot_tol` times the column maximum
    /// (KLU default 0.001); `1.0` forces classic partial pivoting.
    fn new(
        nb: usize,
        below_nrows: &[usize],
        pivot_tol: f64,
        col_offset: usize,
    ) -> BlockColumnFactorizer {
        BlockColumnFactorizer {
            nb,
            pivot_tol,
            col_offset,
            next_col: 0,
            lcolptr: vec![0],
            lrows: Vec::new(),
            lvals: Vec::new(),
            ucolptr: vec![0],
            urows: Vec::new(),
            uvals: Vec::new(),
            below_nrows: below_nrows.to_vec(),
            bcolptr: below_nrows.iter().map(|_| vec![0usize]).collect(),
            brows: below_nrows.iter().map(|_| Vec::new()).collect(),
            bvals: below_nrows.iter().map(|_| Vec::new()).collect(),
            pinv: vec![UNSET; nb],
            prow_of: vec![UNSET; nb],
            xd: vec![0.0; nb],
            mark: vec![UNSET; nb],
            topo: Vec::with_capacity(nb),
            dfs: Vec::new(),
            pattern_rows: Vec::with_capacity(nb),
            xb: below_nrows.iter().map(|&m| vec![0.0; m]).collect(),
            bmark: below_nrows.iter().map(|&m| vec![UNSET; m]).collect(),
            bpat: below_nrows.iter().map(|_| Vec::new()).collect(),
            flops: 0.0,
        }
    }

    /// Eliminates the next column, `j`: column `j` of the diagonal
    /// block `diag` (original local row coordinates) and of every
    /// trailing block in `below`. Row indices must be sorted and unique.
    fn factor_col(&mut self, diag: ColsView<'_>, below: &[ColsView<'_>]) -> Result<()> {
        let j = self.next_col;
        assert!(j < self.nb, "all {} columns already fed", self.nb);
        assert_eq!(below.len(), self.below_nrows.len());
        let nbelow = below.len();
        self.topo.clear();
        self.pattern_rows.clear();
        for p in self.bpat.iter_mut() {
            p.clear();
        }

        // --- scatter A(:, j) and run the DFS from each diagonal entry ---
        for (i, v) in diag.col(j) {
            self.xd[i] = v;
            if self.mark[i] == j {
                continue;
            }
            if self.pinv[i] == UNSET {
                self.mark[i] = j;
                self.pattern_rows.push(i);
                continue;
            }
            // DFS through pivotal columns, original-coordinate storage.
            self.dfs.clear();
            self.mark[i] = j;
            self.dfs.push((i, self.lcolptr[self.pinv[i]]));
            while let Some(&(row, pos)) = self.dfs.last() {
                let t = self.pinv[row];
                let hi = self.lcolptr[t + 1];
                if pos < hi {
                    self.dfs.last_mut().unwrap().1 += 1;
                    let r = self.lrows[pos];
                    if self.mark[r] != j {
                        self.mark[r] = j;
                        if self.pinv[r] == UNSET {
                            self.pattern_rows.push(r);
                        } else {
                            self.dfs.push((r, self.lcolptr[self.pinv[r]]));
                        }
                    }
                } else {
                    self.topo.push(t);
                    self.dfs.pop();
                }
            }
        }
        for (bi, b) in below.iter().enumerate() {
            for (i, v) in b.col(j) {
                self.xb[bi][i] = v;
                if self.bmark[bi][i] != j {
                    self.bmark[bi][i] = j;
                    self.bpat[bi].push(i);
                }
            }
        }

        // --- numeric updates in topological order (reverse of finish) ---
        for ti in (0..self.topo.len()).rev() {
            let t = self.topo[ti];
            let xt = self.xd[self.prow_of[t]];
            if xt != 0.0 {
                let (lo, hi) = (self.lcolptr[t], self.lcolptr[t + 1]);
                basker_kernels::active().scatter_axpy(
                    &mut self.xd,
                    &self.lrows[lo..hi],
                    &self.lvals[lo..hi],
                    -xt,
                );
                self.flops += 2.0 * (hi - lo) as f64;
                for bi in 0..nbelow {
                    for p in self.bcolptr[bi][t]..self.bcolptr[bi][t + 1] {
                        let r = self.brows[bi][p];
                        if self.bmark[bi][r] != j {
                            self.bmark[bi][r] = j;
                            self.bpat[bi].push(r);
                            self.xb[bi][r] = 0.0;
                        }
                        self.xb[bi][r] -= self.bvals[bi][p] * xt;
                        self.flops += 2.0;
                    }
                }
            }
        }

        // --- pivot selection (threshold, diagonal preference) ---
        let mut maxabs = 0.0f64;
        let mut argmax = UNSET;
        for &r in &self.pattern_rows {
            let a = self.xd[r].abs();
            if a > maxabs || (a == maxabs && argmax != UNSET && r < argmax) {
                maxabs = a;
                argmax = r;
            }
        }
        if argmax == UNSET {
            return Err(SparseError::ZeroPivot {
                column: self.col_offset + j,
            });
        }
        let mut prow = argmax;
        if self.pinv[j] == UNSET
            && self.mark[j] == j
            && self.xd[j].abs() >= self.pivot_tol * maxabs
            && self.xd[j] != 0.0
        {
            prow = j; // keep the (block-local) diagonal when acceptable
        }
        let pivot = self.xd[prow];
        if pivot == 0.0 || maxabs == 0.0 {
            return Err(SparseError::ZeroPivot {
                column: self.col_offset + j,
            });
        }
        self.pinv[prow] = j;
        self.prow_of[j] = prow;

        // --- store U column (pivotal coords; sorted at finalize) ---
        for ti in (0..self.topo.len()).rev() {
            let t = self.topo[ti];
            self.urows.push(t);
            self.uvals.push(self.xd[self.prow_of[t]]);
        }
        self.urows.push(j);
        self.uvals.push(pivot);
        self.ucolptr.push(self.urows.len());

        // --- store L column (original coords; renumbered at finalize) ---
        for &r in &self.pattern_rows {
            if r != prow {
                self.lrows.push(r);
                self.lvals.push(self.xd[r] / pivot);
                self.flops += 1.0;
            }
        }
        self.lcolptr.push(self.lrows.len());
        for bi in 0..nbelow {
            for &r in &self.bpat[bi] {
                self.brows[bi].push(r);
                self.bvals[bi].push(self.xb[bi][r] / pivot);
                self.flops += 1.0;
            }
            self.bcolptr[bi].push(self.brows[bi].len());
        }

        // --- clear the accumulator (pattern members only) ---
        for &t in &self.topo {
            self.xd[self.prow_of[t]] = 0.0;
        }
        for &r in &self.pattern_rows {
            self.xd[r] = 0.0;
        }
        for bi in 0..nbelow {
            for &r in &self.bpat[bi] {
                self.xb[bi][r] = 0.0;
            }
        }
        self.next_col = j + 1;
        Ok(())
    }

    /// Finalizes the factors: renumbers `L` into pivotal coordinates and
    /// sorts every column. Panics unless all `nb` columns were fed.
    fn finish(self) -> BlockLu {
        let nb = self.nb;
        assert_eq!(self.next_col, nb, "factorizer finished early");
        let row_perm = Perm::from_vec(self.prow_of).expect("pivot rows form a permutation");
        let pinv = self.pinv;
        let mut scratch: Vec<(usize, f64)> = Vec::new();

        let mut flrows: Vec<usize> = Vec::with_capacity(self.lrows.len() + nb);
        let mut flvals: Vec<f64> = Vec::with_capacity(self.lvals.len() + nb);
        let mut flcolptr: Vec<usize> = Vec::with_capacity(nb + 1);
        flcolptr.push(0);
        for j in 0..nb {
            scratch.clear();
            scratch.push((j, 1.0)); // explicit unit diagonal
            for p in self.lcolptr[j]..self.lcolptr[j + 1] {
                scratch.push((pinv[self.lrows[p]], self.lvals[p]));
            }
            scratch.sort_unstable_by_key(|&(r, _)| r);
            for &(r, v) in &scratch {
                flrows.push(r);
                flvals.push(v);
            }
            flcolptr.push(flrows.len());
        }
        // SAFETY: each L column was pushed in ascending row order (sorted
        // `scratch`) and `flcolptr` tracks `flrows.len()` per column.
        let l = unsafe { CscMat::from_parts_unchecked(nb, nb, flcolptr, flrows, flvals) };

        let mut fucolptr: Vec<usize> = Vec::with_capacity(nb + 1);
        let mut furows: Vec<usize> = Vec::with_capacity(self.urows.len());
        let mut fuvals: Vec<f64> = Vec::with_capacity(self.uvals.len());
        fucolptr.push(0);
        for j in 0..nb {
            scratch.clear();
            for p in self.ucolptr[j]..self.ucolptr[j + 1] {
                scratch.push((self.urows[p], self.uvals[p]));
            }
            scratch.sort_unstable_by_key(|&(r, _)| r);
            for &(r, v) in &scratch {
                furows.push(r);
                fuvals.push(v);
            }
            fucolptr.push(furows.len());
        }
        // SAFETY: each U column was pushed in ascending row order (sorted
        // `scratch`) and `fucolptr` tracks `furows.len()` per column.
        let u = unsafe { CscMat::from_parts_unchecked(nb, nb, fucolptr, furows, fuvals) };

        let mut fbelow = Vec::with_capacity(self.below_nrows.len());
        for bi in 0..self.below_nrows.len() {
            let m = self.below_nrows[bi];
            let mut cp = Vec::with_capacity(nb + 1);
            let mut rs = Vec::with_capacity(self.brows[bi].len());
            let mut vs = Vec::with_capacity(self.bvals[bi].len());
            cp.push(0);
            for j in 0..nb {
                scratch.clear();
                for p in self.bcolptr[bi][j]..self.bcolptr[bi][j + 1] {
                    scratch.push((self.brows[bi][p], self.bvals[bi][p]));
                }
                scratch.sort_unstable_by_key(|&(r, _)| r);
                for &(r, v) in &scratch {
                    rs.push(r);
                    vs.push(v);
                }
                cp.push(rs.len());
            }
            // SAFETY: each below-block column was pushed in ascending row
            // order (sorted `scratch`), rows are `< m`, and `cp` tracks
            // `rs.len()`.
            fbelow.push(unsafe { CscMat::from_parts_unchecked(m, nb, cp, rs, vs) });
        }

        BlockLu {
            l,
            u,
            below: fbelow,
            pinv,
            row_perm,
            flops: self.flops,
            supernodes: Vec::new(),
        }
    }
}

/// Factors the stacked block column `[diag; below...]` with threshold
/// partial pivoting confined to `diag`'s rows, one column at a time
/// (trailing blocks share the diagonal block's column space
/// one-to-one).
pub fn factor_block_column(
    diag: ColsView<'_>,
    below: &[ColsView<'_>],
    pivot_tol: f64,
    col_offset: usize,
) -> Result<BlockLu> {
    let nb = diag.ncols();
    assert_eq!(diag.nrows(), nb, "diagonal block must be square");
    for b in below {
        assert_eq!(b.ncols(), nb, "trailing blocks must share the column count");
    }
    let below_nrows: Vec<usize> = below.iter().map(|b| b.nrows()).collect();
    let mut fac = BlockColumnFactorizer::new(nb, &below_nrows, pivot_tol, col_offset);
    for _ in 0..nb {
        fac.factor_col(diag, below)?;
    }
    Ok(fac.finish())
}

/// Borrowed columns of a CSC store: a block of a larger matrix read in
/// place, without an owner.
///
/// Column `c` holds entries `ptr[c * stride]..ptr[c * stride + 1]` of
/// `rowind`/`values`, its rows shifted down by `row0`. A whole
/// [`CscMat`] is the view with stride 1 and `row0` 0
/// ([`ColsView::of`]); a diagonal block of a block-diagonal store is a
/// window of its column pointers with `row0` at the block's first row;
/// a 2-D block of an ND-laid-out block column strides over a table of
/// per-column block boundaries. The factorization kernels read their
/// `A` operands through this type, so pattern-frozen callers hand them
/// slices of one retained store instead of a fresh matrix per block.
#[derive(Debug, Clone, Copy)]
pub struct ColsView<'a> {
    ptr: &'a [usize],
    stride: usize,
    nrows: usize,
    ncols: usize,
    rowind: &'a [usize],
    values: &'a [f64],
    row0: usize,
}

impl<'a> ColsView<'a> {
    /// The view with no columns.
    pub const EMPTY: ColsView<'static> = ColsView {
        ptr: &[],
        stride: 1,
        nrows: 0,
        ncols: 0,
        rowind: &[],
        values: &[],
        row0: 0,
    };

    /// A view of an `nrows x ncols` block over `rowind`/`values` (see
    /// the type docs for the meaning of `ptr`, `stride` and `row0`).
    pub fn new(
        ptr: &'a [usize],
        stride: usize,
        (nrows, ncols): (usize, usize),
        rowind: &'a [usize],
        values: &'a [f64],
        row0: usize,
    ) -> ColsView<'a> {
        assert!(ncols == 0 || ptr.len() >= (ncols - 1) * stride + 2);
        assert_eq!(rowind.len(), values.len());
        ColsView {
            ptr,
            stride,
            nrows,
            ncols,
            rowind,
            values,
            row0,
        }
    }

    /// The whole of `m`.
    pub fn of(m: &'a CscMat) -> ColsView<'a> {
        let shape = (m.nrows(), m.ncols());
        ColsView::new(m.colptr(), 1, shape, m.rowind(), m.values(), 0)
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(row, value)` pairs of column `c`, rows local to the view.
    #[inline]
    pub fn col(&self, c: usize) -> impl ExactSizeIterator<Item = (usize, f64)> + 'a {
        let (lo, hi) = (self.ptr[c * self.stride], self.ptr[c * self.stride + 1]);
        let row0 = self.row0;
        let (rows, vals): (&'a [usize], &'a [f64]) = (&self.rowind[lo..hi], &self.values[lo..hi]);
        rows.iter().zip(vals).map(move |(&r, &v)| (r - row0, v))
    }

    /// The view copied out as a matrix of its own.
    pub fn to_csc(&self) -> CscMat {
        let mut colptr = Vec::with_capacity(self.ncols + 1);
        let (mut rowind, mut values) = (Vec::new(), Vec::new());
        colptr.push(0);
        for c in 0..self.ncols {
            for (r, v) in self.col(c) {
                rowind.push(r);
                values.push(v);
            }
            colptr.push(rowind.len());
        }
        CscMat::new(self.nrows, self.ncols, colptr, rowind, values)
            .expect("a view's columns are sorted and inside its rows")
    }
}

/// Reusable dense accumulators of the refactorization kernels
/// ([`refactor_block_column`], [`lsolve_panel_refresh`]), grown lazily
/// to the largest block seen and **all-zero between calls** — every
/// kernel clears exactly what it touched. One per thread (or per serial
/// solver) serves every block.
#[derive(Debug, Default, Clone)]
pub struct RefactorWorkspace {
    xd: Vec<f64>,
    xb: Vec<f64>,
}

impl RefactorWorkspace {
    /// A fresh, empty workspace.
    pub fn new() -> RefactorWorkspace {
        RefactorWorkspace::default()
    }

    /// The first `n` entries of the primary accumulator, all zero; the
    /// borrower must hand them back all zero.
    pub fn accumulator(&mut self, n: usize) -> &mut [f64] {
        if self.xd.len() < n {
            self.xd.resize(n, 0.0);
        }
        &mut self.xd[..n]
    }

    /// Zeroes both accumulators — for a workspace some kernel may have
    /// been torn out of mid-column.
    pub fn reset(&mut self) {
        self.xd.fill(0.0);
        self.xb.fill(0.0);
    }

    /// Both accumulators: `nd` entries for the diagonal block, `nb` for
    /// the stacked trailing blocks.
    fn split(&mut self, nd: usize, nb: usize) -> (&mut [f64], &mut [f64]) {
        if self.xd.len() < nd {
            self.xd.resize(nd, 0.0);
        }
        if self.xb.len() < nb {
            self.xb.resize(nb, 0.0);
        }
        (&mut self.xd[..nd], &mut self.xb[..nb])
    }
}

/// Refactorizes in place: same pattern and pivot sequence as `factors`,
/// fresh values from `diag` / `below`. Runs without any graph search —
/// this is KLU's fast path for matrix sequences with fixed structure —
/// and, once `ws` has seen a block this large, without allocating.
// basker-lint: deny-alloc
pub fn refactor_block_column(
    factors: &mut BlockLu,
    diag: ColsView<'_>,
    below: &[ColsView<'_>],
    col_offset: usize,
    ws: &mut RefactorWorkspace,
) -> Result<()> {
    let nb = diag.ncols();
    assert_eq!(factors.l.ncols(), nb);
    assert_eq!(below.len(), factors.below.len());
    let BlockLu {
        l,
        u,
        below: fbelow,
        pinv,
        flops: factor_flops,
        ..
    } = factors;
    let nbelow: usize = fbelow.iter().map(|m| m.nrows()).sum();
    // The trailing blocks' accumulators sit back to back in `xb`.
    let (xd, xb) = ws.split(nb, nbelow);
    let ks = basker_kernels::active();
    let mut flops = 0.0f64;

    for j in 0..nb {
        // scatter in pivotal coordinates
        for (r, v) in diag.col(j) {
            xd[pinv[r]] = v;
        }
        let mut off = 0;
        for (b, fb) in below.iter().zip(fbelow.iter()) {
            for (r, v) in b.col(j) {
                xb[off + r] = v;
            }
            off += fb.nrows();
        }
        // ascending pivotal order is a valid topological order
        let urows = u.col_rows(j);
        debug_assert!(urows.last() == Some(&j));
        for &t in &urows[..urows.len() - 1] {
            let xt = xd[t];
            if xt != 0.0 {
                let lr = l.col_rows(t);
                let lv = l.col_values(t);
                ks.scatter_axpy(xd, &lr[1..], &lv[1..], -xt);
                flops += 2.0 * (lr.len() - 1) as f64;
                let mut off = 0;
                for bm in fbelow.iter() {
                    let br = bm.col_rows(t);
                    ks.scatter_axpy(&mut xb[off..off + bm.nrows()], br, bm.col_values(t), -xt);
                    flops += 2.0 * br.len() as f64;
                    off += bm.nrows();
                }
            }
        }
        let pivot = xd[j];
        if pivot == 0.0 {
            // Leave the accumulators clean for the workspace's next user.
            xd.fill(0.0);
            xb.fill(0.0);
            return Err(SparseError::ZeroPivot {
                column: col_offset + j,
            });
        }
        // gather new values into the fixed patterns, clearing as we go
        {
            let (colptr, rows, vals) = u.parts_mut();
            for p in colptr[j]..colptr[j + 1] {
                vals[p] = xd[rows[p]];
                xd[rows[p]] = 0.0;
            }
        }
        {
            let (colptr, rows, vals) = l.parts_mut();
            let lo = colptr[j];
            vals[lo] = 1.0;
            xd[rows[lo]] = 0.0;
            for p in lo + 1..colptr[j + 1] {
                vals[p] = xd[rows[p]] / pivot;
                xd[rows[p]] = 0.0;
                flops += 1.0;
            }
        }
        let mut off = 0;
        for bm in fbelow.iter_mut() {
            let nrows = bm.nrows();
            let (colptr, rows, vals) = bm.parts_mut();
            for p in colptr[j]..colptr[j + 1] {
                vals[p] = xb[off + rows[p]] / pivot;
                xb[off + rows[p]] = 0.0;
                flops += 1.0;
            }
            off += nrows;
        }
    }
    *factor_flops = flops;
    Ok(())
}

/// Refreshes the values of a sparse panel solve `X = L⁻¹ · P · B` in
/// place, reusing its pattern — `L` the unit lower factor of `blu`
/// (pivotal coordinates), `B` a panel with rows in the diagonal block's
/// *original local* coordinates, and `out`'s pattern any set of rows
/// closed under `L`'s column graph that holds `B`'s reach (the
/// refactorization path for separator panels). Like
/// [`refactor_block_column`], allocation-free once `ws` is warm.
// basker-lint: deny-alloc
pub fn lsolve_panel_refresh(
    blu: &BlockLu,
    b: ColsView<'_>,
    out: &mut CscMat,
    ws: &mut RefactorWorkspace,
) {
    let l = &blu.l;
    let pinv = &blu.pinv;
    let x = ws.accumulator(l.ncols());
    let ks = basker_kernels::active();
    let (colptr, rows, vals) = out.parts_mut();
    for j in 0..b.ncols() {
        for (r0, v) in b.col(j) {
            x[pinv[r0]] = v;
        }
        let (lo, hi) = (colptr[j], colptr[j + 1]);
        // ascending pivotal order is topologically valid
        for &t in &rows[lo..hi] {
            let xt = x[t];
            if xt != 0.0 {
                let lr = l.col_rows(t);
                let lv = l.col_values(t);
                ks.scatter_axpy(x, &lr[1..], &lv[1..], -xt);
            }
        }
        for p in lo..hi {
            vals[p] = x[rows[p]];
            x[rows[p]] = 0.0;
        }
    }
}

/// A factored BTF diagonal block with a fast path for 1×1 blocks.
///
/// Circuit BTF structures are dominated by singleton SCCs (Table I's
/// powergrid rows have thousands of 1×1 blocks); materializing a full
/// [`BlockLu`] (a dozen heap allocations) per scalar is the difference
/// between the fine-BTF path scaling and drowning in allocator traffic.
/// The real KLU special-cases 1×1 blocks the same way.
#[derive(Debug, Clone)]
pub enum BlockFactor {
    /// A genuine LU factorization.
    Full(Box<BlockLu>),
    /// A 1×1 block: just the pivot value.
    Singleton(f64),
}

impl BlockFactor {
    /// Factors the `lo..hi` diagonal block of the permuted matrix `ap`.
    pub fn factor_range(ap: &CscMat, lo: usize, hi: usize, pivot_tol: f64) -> Result<BlockFactor> {
        if hi - lo == 1 {
            let v = ap.get(lo, lo);
            if v == 0.0 {
                return Err(SparseError::ZeroPivot { column: lo });
            }
            return Ok(BlockFactor::Singleton(v));
        }
        let diag = basker_sparse::blocks::extract_range(ap, lo..hi, lo..hi);
        let blu = factor_block_column(ColsView::of(&diag), &[], pivot_tol, lo)?;
        Ok(BlockFactor::Full(Box::new(blu)))
    }

    /// Refreshes values from the `lo..hi` diagonal block of the permuted
    /// matrix `ap` (fast refactorization).
    pub fn refactor_range(
        &mut self,
        ap: &CscMat,
        lo: usize,
        hi: usize,
        ws: &mut RefactorWorkspace,
    ) -> Result<()> {
        match self {
            BlockFactor::Singleton(v) => {
                let nv = ap.get(lo, lo);
                if nv == 0.0 {
                    return Err(SparseError::ZeroPivot { column: lo });
                }
                *v = nv;
                Ok(())
            }
            BlockFactor::Full(blu) => {
                let diag = basker_sparse::blocks::extract_range(ap, lo..hi, lo..hi);
                refactor_block_column(blu, ColsView::of(&diag), &[], lo, ws)
            }
        }
    }

    /// `|L+U|` of this block.
    pub fn lu_nnz(&self) -> usize {
        match self {
            BlockFactor::Singleton(_) => 1,
            BlockFactor::Full(blu) => blu.lu_nnz(),
        }
    }

    /// Numeric flops of the last factorization.
    pub fn flops(&self) -> f64 {
        match self {
            BlockFactor::Singleton(_) => 0.0,
            BlockFactor::Full(blu) => blu.flops,
        }
    }

    /// `(min |pivot|, max |pivot|)` of this block (see
    /// [`BlockLu::pivot_range`]).
    pub fn pivot_range(&self) -> (f64, f64) {
        match self {
            BlockFactor::Singleton(v) => (v.abs(), v.abs()),
            BlockFactor::Full(blu) => blu.pivot_range(),
        }
    }

    /// Allocation-free in-place block solve `x ← (LU)⁻¹ P x` on a
    /// row-major panel of `K` right-hand sides (a 1×1 block divides
    /// all `K` lanes of its row); `scratch` must be at least `x.len()`
    /// rows.
    // basker-lint: deny-alloc
    #[inline]
    pub fn solve_in_place_with<const K: usize>(
        &self,
        x: &mut [[f64; K]],
        scratch: &mut [[f64; K]],
    ) {
        match self {
            BlockFactor::Singleton(v) => x[0] = x[0].map(|b| b / v),
            BlockFactor::Full(blu) => blu.solve_in_place_with(x, scratch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basker_sparse::spmv::spmv;
    use basker_sparse::util::relative_residual;
    use basker_sparse::Perm;

    fn check_factorization(a: &CscMat, blu: &BlockLu, tol: f64) {
        // P·A == L·U  (dense comparison, test matrices are small)
        let pa = blu.row_perm.permute_rows(a);
        let n = a.ncols();
        let ld = blu.l.to_dense();
        let ud = blu.u.to_dense();
        let pad = pa.to_dense();
        for i in 0..n {
            for j in 0..n {
                let mut lu = 0.0;
                for k in 0..n {
                    lu += ld[i][k] * ud[k][j];
                }
                assert!(
                    (lu - pad[i][j]).abs() < tol,
                    "mismatch at ({i},{j}): {lu} vs {}",
                    pad[i][j]
                );
            }
        }
    }

    fn dense(a: &[[f64; 4]; 4]) -> CscMat {
        CscMat::from_dense(&a.iter().map(|r| r.to_vec()).collect::<Vec<_>>())
    }

    #[test]
    fn factors_small_dense() {
        let a = dense(&[
            [2.0, 1.0, 0.0, 3.0],
            [4.0, 3.0, 1.0, 0.0],
            [0.0, 2.0, 5.0, 1.0],
            [1.0, 0.0, 2.0, 4.0],
        ]);
        let blu = factor_block_column(ColsView::of(&a), &[], 1.0, 0).unwrap();
        check_factorization(&a, &blu, 1e-12);
    }

    #[test]
    fn partial_pivoting_picks_large_rows() {
        // Column 0 has a tiny diagonal; with pivot_tol = 1.0 the 100 wins.
        let a = CscMat::from_dense(&[vec![1e-10, 1.0], vec![100.0, 1.0]]);
        let blu = factor_block_column(ColsView::of(&a), &[], 1.0, 0).unwrap();
        assert_eq!(blu.row_perm.as_slice(), &[1, 0]);
        check_factorization(&a, &blu, 1e-12);
    }

    #[test]
    fn diagonal_preference_keeps_acceptable_diagonal() {
        // diag = 50, max = 100: with tol 0.1 the diagonal stays.
        let a = CscMat::from_dense(&[vec![50.0, 1.0], vec![100.0, 1.0]]);
        let blu = factor_block_column(ColsView::of(&a), &[], 0.1, 0).unwrap();
        assert_eq!(blu.row_perm.as_slice(), &[0, 1]);
        check_factorization(&a, &blu, 1e-12);
    }

    #[test]
    fn zero_pivot_detected() {
        let a = CscMat::from_dense(&[vec![0.0, 1.0], vec![0.0, 1.0]]);
        match factor_block_column(ColsView::of(&a), &[], 1.0, 7) {
            Err(SparseError::ZeroPivot { column }) => assert_eq!(column, 7),
            other => panic!("expected zero pivot, got {other:?}"),
        }
    }

    #[test]
    fn solve_via_factors() {
        let a = dense(&[
            [10.0, 2.0, 0.0, 1.0],
            [3.0, 12.0, 4.0, 0.0],
            [0.0, 1.0, 9.0, 2.0],
            [2.0, 0.0, 1.0, 8.0],
        ]);
        let blu = factor_block_column(ColsView::of(&a), &[], 0.001, 0).unwrap();
        let xtrue = [1.0, -2.0, 3.0, 0.5];
        let b = spmv(&a, &xtrue);
        let mut x = b.clone();
        blu.solve_in_place(&mut x);
        assert!(relative_residual(&a, &x, &b) < 1e-13);
    }

    #[test]
    fn stacked_below_blocks_match_schur_expectation() {
        // Factor [D; B] and verify B_factored == B · U⁻¹ (columnwise):
        // L_below(:,c)·U(c,c) + Σ_{t<c} L_below(:,t)·U(t,c) = B(:,c).
        let d = CscMat::from_dense(&[vec![4.0, 1.0], vec![2.0, 5.0]]);
        let b = CscMat::from_dense(&[vec![1.0, 2.0], vec![3.0, 0.0], vec![0.0, 7.0]]);
        let blu = factor_block_column(ColsView::of(&d), &[ColsView::of(&b)], 0.001, 0).unwrap();
        let lb = &blu.below[0];
        // reconstruct B = L_below · U
        let lbd = lb.to_dense();
        let ud = blu.u.to_dense();
        let bd = b.to_dense();
        for i in 0..3 {
            for j in 0..2 {
                let mut acc = 0.0;
                for k in 0..2 {
                    acc += lbd[i][k] * ud[k][j];
                }
                assert!(
                    (acc - bd[i][j]).abs() < 1e-12,
                    "below mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn refactor_reproduces_fresh_factorization() {
        let a = dense(&[
            [10.0, 2.0, 0.0, 1.0],
            [3.0, 12.0, 4.0, 0.0],
            [0.0, 1.0, 9.0, 2.0],
            [2.0, 0.0, 1.0, 8.0],
        ]);
        let mut blu = factor_block_column(ColsView::of(&a), &[], 0.001, 0).unwrap();
        // New values, same pattern.
        let a2 = dense(&[
            [20.0, 1.0, 0.0, 2.0],
            [1.0, 24.0, 2.0, 0.0],
            [0.0, 3.0, 18.0, 1.0],
            [4.0, 0.0, 3.0, 16.0],
        ]);
        refactor_block_column(
            &mut blu,
            ColsView::of(&a2),
            &[],
            0,
            &mut RefactorWorkspace::new(),
        )
        .unwrap();
        let xtrue = [1.0, 1.0, 1.0, 1.0];
        let b = spmv(&a2, &xtrue);
        let mut x = b.clone();
        blu.solve_in_place(&mut x);
        assert!(relative_residual(&a2, &x, &b) < 1e-13);
    }

    #[test]
    fn refactor_detects_new_zero_pivot() {
        let a = CscMat::from_dense(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let mut blu = factor_block_column(ColsView::of(&a), &[], 1.0, 0).unwrap();
        let bad = CscMat::from_dense(&[vec![0.0, 0.0], vec![0.0, 1.0]]);
        // Same pattern? a has entries only on the diagonal; bad stores a
        // structural zero at (0,0).
        let mut ws = RefactorWorkspace::new();
        let err = refactor_block_column(&mut blu, ColsView::of(&bad), &[], 3, &mut ws);
        assert!(matches!(err, Err(SparseError::ZeroPivot { column: 3 })));
        // The failed call hands the workspace back clean: the next user
        // of the same accumulators gets the right factors.
        refactor_block_column(&mut blu, ColsView::of(&a), &[], 0, &mut ws).unwrap();
        assert_eq!(blu.u.values(), &[1.0, 1.0]);
    }

    /// A stacked block column read in place from one store — a window
    /// of column pointers, shifted rows, a strided boundary table —
    /// refactors to the same values as from extracted matrices, and a
    /// warmed workspace serves blocks of any smaller size.
    #[test]
    fn views_into_one_store_match_extracted_blocks() {
        // 5x2 store: rows 0..1 belong to someone else, rows 1..3 are the
        // diagonal block, rows 3..5 a trailing block.
        let store = CscMat::from_dense(&[
            vec![9.0, 0.0],
            vec![4.0, 1.0],
            vec![2.0, 5.0],
            vec![1.0, 2.0],
            vec![0.0, 7.0],
        ]);
        let d = basker_sparse::blocks::extract_range(&store, 1..3, 0..2);
        let b = basker_sparse::blocks::extract_range(&store, 3..5, 0..2);
        let mut blu = factor_block_column(ColsView::of(&d), &[ColsView::of(&b)], 0.001, 0).unwrap();
        let fresh = blu.clone();
        for m in [&mut blu.l, &mut blu.u, &mut blu.below[0]] {
            m.values_mut().fill(f64::NAN);
        }
        // Per column: [start of diag rows, start of trailing rows, end].
        let table = [1usize, 3, 4, 4, 6, 8];
        let view = |slot: usize, row0: usize| {
            ColsView::new(
                &table[slot..],
                3,
                (2, 2),
                store.rowind(),
                store.values(),
                row0,
            )
        };
        let mut ws = RefactorWorkspace::new();
        ws.accumulator(64).fill(0.0);
        refactor_block_column(&mut blu, view(0, 1), &[view(1, 3)], 0, &mut ws).unwrap();
        assert_eq!(blu.l.values(), fresh.l.values());
        assert_eq!(blu.u.values(), fresh.u.values());
        assert_eq!(blu.below[0].values(), fresh.below[0].values());
        assert!(ws.accumulator(64).iter().all(|&v| v == 0.0));
    }

    /// The refresh over a dense pattern — every row is closed under any
    /// `L`'s column graph — solves `L·X = P·B`, and a second refresh
    /// rewrites every value the same.
    #[test]
    fn lsolve_panel_refresh_matches_dense_solve() {
        let d = dense(&[
            [10.0, 2.0, 0.0, 1.0],
            [3.0, 12.0, 4.0, 0.0],
            [0.0, 1.0, 9.0, 2.0],
            [2.0, 0.0, 1.0, 8.0],
        ]);
        let blu = factor_block_column(ColsView::of(&d), &[], 1.0, 0).unwrap();
        let b = CscMat::from_dense(&[
            vec![1.0, 0.0],
            vec![0.0, 2.0],
            vec![3.0, 0.0],
            vec![0.0, 0.0],
        ]);
        let rows: Vec<usize> = (0..2).flat_map(|_| 0..4).collect();
        let mut x = CscMat::new(4, 2, vec![0, 4, 8], rows, vec![f64::NAN; 8]).unwrap();
        let mut ws = RefactorWorkspace::new();
        lsolve_panel_refresh(&blu, ColsView::of(&b), &mut x, &mut ws);
        // Verify L·X == P·B column by column.
        let pb = blu.row_perm.permute_rows(&b);
        let ld = blu.l.to_dense();
        let xd = x.to_dense();
        let pbd = pb.to_dense();
        for j in 0..2 {
            for i in 0..4 {
                let mut acc = 0.0;
                for k in 0..4 {
                    acc += ld[i][k] * xd[k][j];
                }
                assert!((acc - pbd[i][j]).abs() < 1e-12);
            }
        }
        let mut x2 = x.clone();
        x2.values_mut().fill(f64::NAN);
        lsolve_panel_refresh(&blu, ColsView::of(&b), &mut x2, &mut ws);
        assert_eq!(x.values(), x2.values());
    }

    #[test]
    fn empty_block() {
        let a = CscMat::zero(0, 0);
        let blu = factor_block_column(ColsView::of(&a), &[], 1.0, 0).unwrap();
        assert_eq!(blu.l.ncols(), 0);
        assert_eq!(blu.row_perm, Perm::identity(0));
    }

    #[test]
    fn one_by_one_block() {
        let a = CscMat::from_dense(&[vec![5.0]]);
        let blu = factor_block_column(ColsView::of(&a), &[], 1.0, 0).unwrap();
        assert_eq!(blu.u.get(0, 0), 5.0);
        assert_eq!(blu.l.get(0, 0), 1.0);
        assert!(blu.lu_nnz() == 1);
    }

    #[test]
    fn pivot_range_tracks_u_diagonal_extremes() {
        let a = CscMat::from_dense(&[vec![-8.0, 1.0], vec![0.0, 0.5]]);
        let blu = factor_block_column(ColsView::of(&a), &[], 0.001, 0).unwrap();
        let (lo, hi) = blu.pivot_range();
        assert_eq!((lo, hi), (0.5, 8.0));
        // Fold semantics for the degenerate cases.
        let empty = factor_block_column(ColsView::of(&CscMat::zero(0, 0)), &[], 1.0, 0).unwrap();
        assert_eq!(empty.pivot_range(), (f64::INFINITY, 0.0));
        assert_eq!(BlockFactor::Singleton(-3.0).pivot_range(), (3.0, 3.0));
    }

    #[test]
    fn fill_in_is_created_and_consistent() {
        // A pattern guaranteed to fill: arrow pointing down-right.
        let n = 6;
        let mut d = vec![vec![0.0; n]; n];
        for i in 0..n {
            d[i][i] = 4.0;
            d[n - 1][i] = 1.0;
            d[i][n - 1] = 1.0;
            if i > 0 {
                d[i][0] = 0.5;
                d[0][i] = 0.5;
            }
        }
        let a = CscMat::from_dense(&d);
        let blu = factor_block_column(ColsView::of(&a), &[], 0.001, 0).unwrap();
        check_factorization(&a, &blu, 1e-10);
        assert!(blu.lu_nnz() > a.nnz() / 2);
        assert!(blu.flops > 0.0);
    }
}
