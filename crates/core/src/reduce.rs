//! Block reductions: `Â = A − Σ L·U` (paper Alg. 4 lines 18 & 24).
//!
//! Each reduction subtracts the products of already-factored `L` blocks
//! with freshly computed `U` panel blocks from a block of `A`. The paper
//! describes it as "multiple parallel sparse matrix–vector multiplication"
//! followed by a subtraction; here both phases are fused column by column
//! through a sparse accumulator. [`reduce_col`] is the single-column
//! unit the pipelined schedule hands between threads; [`reduce_block`]
//! the whole-block wrapper that forms a reduced block's pattern once,
//! when a refactorization is recorded; [`reduce_cols_into`] the value
//! rewrite into that retained pattern every refactorization after.

use basker_klu::gp::ColsView;
use basker_sparse::{CscMat, SparseCol};
use std::ops::Range;

/// Reusable scratch for [`reduce_col`]: dense accumulator + stamp marks,
/// grown lazily to the largest target block seen. One per worker thread.
#[derive(Default)]
pub struct ReduceWorkspace {
    x: Vec<f64>,
    mark: Vec<u64>,
    stamp: u64,
    pat: Vec<usize>,
}

impl ReduceWorkspace {
    /// A fresh, empty workspace.
    pub fn new() -> ReduceWorkspace {
        ReduceWorkspace::default()
    }

    fn prepare(&mut self, m: usize) -> u64 {
        if self.x.len() < m {
            self.x.resize(m, 0.0);
            self.mark.resize(m, 0);
        }
        self.stamp += 1;
        self.stamp
    }
}

/// Computes one reduced column `â = a − Σᵢ Lᵢ·uᵢ` of an `m`-row target,
/// **appending** the sorted result to `out_rows`/`out_vals` (so callers
/// assembling a CSC block write straight into its buffers with no
/// intermediate column): `a` is the target's original column (sorted
/// rows + values), each term pairs an `L` block with the matching
/// `U`-panel *column* as `(rows, values)` slices (the sparse SpMV
/// accumulation of paper Fig. 4(d), at the hand-off granularity of the
/// pipelined schedule). Patterns are formed exactly — no cancellation
/// pruning — so a refactorization with different values reuses the same
/// pattern.
#[allow(clippy::too_many_arguments)]
pub fn reduce_col_into(
    m: usize,
    a_rows: &[usize],
    a_vals: &[f64],
    terms: &[(&CscMat, &[usize], &[f64])],
    ws: &mut ReduceWorkspace,
    out_rows: &mut Vec<usize>,
    out_vals: &mut Vec<f64>,
) {
    let stamp = ws.prepare(m);
    ws.pat.clear();
    for (&i, &v) in a_rows.iter().zip(a_vals) {
        ws.x[i] = v;
        ws.mark[i] = stamp;
        ws.pat.push(i);
    }
    let ks = basker_kernels::active();
    for &(l, urows, uvals) in terms {
        debug_assert_eq!(l.nrows(), m, "L term row mismatch");
        for (&t, &uv) in urows.iter().zip(uvals) {
            if ws.pat.len() == m {
                // The accumulator has gone fully dense: every row is
                // already in the pattern, so the stamp bookkeeping is
                // dead weight and the update is a pure indexed axpy on
                // the kernel ladder (separator blocks hit this early).
                if uv != 0.0 {
                    ks.scatter_axpy(&mut ws.x, l.col_rows(t), l.col_values(t), -uv);
                }
                continue;
            }
            if uv == 0.0 {
                // keep the pattern contribution even for exact zeros
                for (r, _) in l.col_iter(t) {
                    if ws.mark[r] != stamp {
                        ws.mark[r] = stamp;
                        ws.x[r] = 0.0;
                        ws.pat.push(r);
                    }
                }
                continue;
            }
            for (r, lv) in l.col_iter(t) {
                if ws.mark[r] != stamp {
                    ws.mark[r] = stamp;
                    ws.x[r] = 0.0;
                    ws.pat.push(r);
                }
                ws.x[r] -= lv * uv;
            }
        }
    }
    ws.pat.sort_unstable();
    out_rows.reserve(ws.pat.len());
    out_vals.reserve(ws.pat.len());
    for &r in &ws.pat {
        out_rows.push(r);
        out_vals.push(ws.x[r]);
        ws.x[r] = 0.0;
    }
}

/// [`reduce_col_into`] producing an owned [`SparseCol`] — the hand-off
/// unit the pipelined schedule publishes across threads.
pub fn reduce_col(
    m: usize,
    a_rows: &[usize],
    a_vals: &[f64],
    terms: &[(&CscMat, &[usize], &[f64])],
    ws: &mut ReduceWorkspace,
) -> SparseCol {
    let mut rows = Vec::new();
    let mut vals = Vec::new();
    reduce_col_into(m, a_rows, a_vals, terms, ws, &mut rows, &mut vals);
    SparseCol { rows, vals }
}

/// Computes `A − Σᵢ Lᵢ·Uᵢ` where every `Lᵢ` is `m x kᵢ` and every `Uᵢ` is
/// `kᵢ x nc`, with `A` of shape `m x nc`. Returns the result with sorted
/// columns, assembled column by column directly into the output buffers
/// (how the refactor replay records a reduced block's pattern).
pub fn reduce_block(a: &CscMat, terms: &[(&CscMat, &CscMat)]) -> CscMat {
    let m = a.nrows();
    let nc = a.ncols();
    for (l, u) in terms {
        assert_eq!(l.nrows(), m, "L term row mismatch");
        assert_eq!(u.ncols(), nc, "U term col mismatch");
        assert_eq!(l.ncols(), u.nrows(), "L/U inner dimension mismatch");
    }
    let mut ws = ReduceWorkspace::new();
    let mut colptr = Vec::with_capacity(nc + 1);
    let mut rowind: Vec<usize> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    colptr.push(0);
    let mut term_cols: Vec<(&CscMat, &[usize], &[f64])> = Vec::with_capacity(terms.len());
    for c in 0..nc {
        term_cols.clear();
        term_cols.extend(
            terms
                .iter()
                .map(|&(l, u)| (l, u.col_rows(c), u.col_values(c))),
        );
        reduce_col_into(
            m,
            a.col_rows(c),
            a.col_values(c),
            &term_cols,
            &mut ws,
            &mut rowind,
            &mut values,
        );
        colptr.push(rowind.len());
    }
    // SAFETY: `reduce_col_into` emits each column's rows ascending and `<
    // m`; `colptr` tracks `rowind.len()`.
    unsafe { CscMat::from_parts_unchecked(m, nc, colptr, rowind, values) }
}

/// Rewrites columns `cols` of a reduced block whose pattern
/// (`colptr`/`rowind`, as [`reduce_block`] formed it) is retained:
/// `out` receives the values of exactly those columns, `Â(:,c) =
/// A(:,c) − Σ L·U(:,c)` with the terms subtracted in the order given.
/// `x` is an all-zero accumulator at least as long as the block has
/// rows, and is handed back all zero. With the pattern known up front
/// there is no stamp bookkeeping and nothing to sort or allocate —
/// every update is an indexed axpy on the kernel ladder.
// basker-lint: deny-alloc
pub fn reduce_cols_into<'t>(
    a: ColsView<'_>,
    terms: impl Iterator<Item = (&'t CscMat, &'t CscMat)> + Clone,
    cols: Range<usize>,
    colptr: &[usize],
    rowind: &[usize],
    out: &mut [f64],
    x: &mut [f64],
) {
    let ks = basker_kernels::active();
    let base = colptr[cols.start];
    for c in cols {
        for (r, v) in a.col(c) {
            x[r] = v;
        }
        for (l, u) in terms.clone() {
            for (t, uv) in u.col_iter(c) {
                if uv != 0.0 {
                    ks.scatter_axpy(x, l.col_rows(t), l.col_values(t), -uv);
                }
            }
        }
        for p in colptr[c]..colptr[c + 1] {
            out[p - base] = x[rowind[p]];
            x[rowind[p]] = 0.0;
        }
    }
}

/// Estimated flop count of a reduction (2 per multiply-add).
pub fn reduce_flops(terms: &[(&CscMat, &CscMat)]) -> f64 {
    let mut fl = 0.0;
    for (l, u) in terms {
        for c in 0..u.ncols() {
            for (t, _) in u.col_iter(c) {
                fl += 2.0 * (l.colptr()[t + 1] - l.colptr()[t]) as f64;
            }
        }
    }
    fl
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(rows: &[Vec<f64>]) -> CscMat {
        CscMat::from_dense(rows)
    }

    #[test]
    fn single_term_matches_dense_math() {
        let a = dense(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let l = dense(&[vec![1.0, 0.0], vec![0.0, 2.0], vec![1.0, 1.0]]);
        let u = dense(&[vec![1.0, 1.0], vec![0.0, 1.0]]);
        let r = reduce_block(&a, &[(&l, &u)]);
        // A - L*U
        let expect = [
            [1.0 - 1.0, 2.0 - (1.0 + 0.0)],
            [3.0 - 0.0, 4.0 - 2.0],
            [5.0 - 1.0, 6.0 - (1.0 + 1.0)],
        ];
        let rd = r.to_dense();
        for i in 0..3 {
            for j in 0..2 {
                assert!((rd[i][j] - expect[i][j]).abs() < 1e-14, "({i},{j})");
            }
        }
    }

    #[test]
    fn multiple_terms_accumulate() {
        let a = dense(&[vec![10.0]]);
        let l1 = dense(&[vec![2.0]]);
        let u1 = dense(&[vec![3.0]]);
        let l2 = dense(&[vec![1.0]]);
        let u2 = dense(&[vec![4.0]]);
        let r = reduce_block(&a, &[(&l1, &u1), (&l2, &u2)]);
        assert_eq!(r.get(0, 0), 10.0 - 6.0 - 4.0);
    }

    #[test]
    fn empty_terms_is_copy() {
        let a = dense(&[vec![1.0, 0.0], vec![0.0, 2.0]]);
        let r = reduce_block(&a, &[]);
        assert_eq!(r, a);
    }

    #[test]
    fn empty_operands() {
        let a = CscMat::zero(3, 2);
        let l = CscMat::zero(3, 0);
        let u = CscMat::zero(0, 2);
        let r = reduce_block(&a, &[(&l, &u)]);
        assert_eq!(r.nnz(), 0);
        assert_eq!(r.nrows(), 3);
    }

    #[test]
    fn pattern_kept_on_cancellation() {
        // A and L*U identical: values cancel but pattern must remain so a
        // later refactor with different values fits.
        let a = dense(&[vec![6.0]]);
        let l = dense(&[vec![2.0]]);
        let u = dense(&[vec![3.0]]);
        let r = reduce_block(&a, &[(&l, &u)]);
        assert_eq!(r.nnz(), 1);
        assert_eq!(r.get(0, 0), 0.0);
    }

    #[test]
    fn value_rewrite_matches_reduce_block() {
        let a = dense(&[vec![1.0, 2.0], vec![3.0, 0.0], vec![5.0, 6.0]]);
        let l = dense(&[vec![1.0, 0.0], vec![0.0, 2.0], vec![1.0, 1.0]]);
        let u = dense(&[vec![1.0, 1.0], vec![0.0, 1.0]]);
        let l2 = dense(&[vec![0.5], vec![0.0], vec![0.25]]);
        let u2 = dense(&[vec![0.0, 4.0]]);
        let terms = [(&l, &u), (&l2, &u2)];
        let want = reduce_block(&a, &terms);
        // Column by column, in either order, into NaN-filled storage.
        let mut vals = vec![f64::NAN; want.nnz()];
        let mut x = vec![0.0; 3];
        for c in [1usize, 0] {
            let (lo, hi) = (want.colptr()[c], want.colptr()[c + 1]);
            reduce_cols_into(
                ColsView::of(&a),
                terms.iter().copied(),
                c..c + 1,
                want.colptr(),
                want.rowind(),
                &mut vals[lo..hi],
                &mut x,
            );
        }
        assert_eq!(vals, want.values());
        assert_eq!(x, vec![0.0; 3]);
    }

    #[test]
    fn flops_counted() {
        let l = dense(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let u = dense(&[vec![1.0], vec![1.0]]);
        assert_eq!(reduce_flops(&[(&l, &u)]), 8.0);
    }
}
