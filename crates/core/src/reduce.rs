//! Block reductions: `Â = A − Σ L·U` (paper Alg. 4 lines 18 & 24).
//!
//! Each reduction subtracts the products of already-factored `L` blocks
//! with freshly computed `U` panel blocks from a block of `A`. The paper
//! describes it as "multiple parallel sparse matrix–vector multiplication"
//! followed by a subtraction; here both phases are fused column by column
//! through a sparse accumulator. [`reduce_block_cols`] forms a run of
//! a reduced block's columns, pattern and values — what the fresh
//! factorization runs, and whose pattern its replay keeps;
//! [`reduce_cols_into`] is the value rewrite into that retained pattern
//! every refactorization after.

use basker_klu::gp::ColsView;
use basker_sparse::CscMat;
use std::ops::Range;

/// Columns `cols` of `A − Σᵢ Lᵢ·Uᵢ`, where every `Lᵢ` is `m x kᵢ` and
/// every `Uᵢ` is `kᵢ x nc`, with `A` of shape `m x nc`: an
/// `m x cols.len()` matrix with sorted columns. Each column scatters
/// `A`'s column into a sparse accumulator and subtracts every term's
/// `L` columns selected by the `U` column (the sparse SpMV accumulation
/// of paper Fig. 4(d), one column at a time). Patterns are formed
/// exactly — no cancellation pruning — so a refactorization with
/// different values reuses the same pattern.
pub fn reduce_block_cols<'t>(
    a: ColsView<'_>,
    terms: impl Iterator<Item = (&'t CscMat, &'t CscMat)> + Clone,
    cols: Range<usize>,
) -> CscMat {
    let m = a.nrows();
    for (l, u) in terms.clone() {
        assert_eq!(l.nrows(), m, "L term row mismatch");
        assert_eq!(u.ncols(), a.ncols(), "U term col mismatch");
        assert_eq!(l.ncols(), u.nrows(), "L/U inner dimension mismatch");
    }
    let ks = basker_kernels::active();
    let (mut x, mut seen, mut pat) = (vec![0.0; m], vec![false; m], Vec::with_capacity(m));
    let mut colptr = Vec::with_capacity(cols.len() + 1);
    let (mut rowind, mut values) = (Vec::new(), Vec::new());
    colptr.push(0);
    for c in cols.clone() {
        for (i, v) in a.col(c) {
            x[i] = v;
            seen[i] = true;
            pat.push(i);
        }
        for (l, u) in terms.clone() {
            for (t, uv) in u.col_iter(c) {
                if pat.len() == m {
                    // The accumulator has gone fully dense: every row
                    // is already in the pattern, so the bookkeeping is
                    // dead weight and the update is a pure indexed axpy
                    // on the kernel ladder (separator blocks hit this
                    // early).
                    if uv != 0.0 {
                        ks.scatter_axpy(&mut x, l.col_rows(t), l.col_values(t), -uv);
                    }
                    continue;
                }
                for (r, lv) in l.col_iter(t) {
                    if !seen[r] {
                        seen[r] = true;
                        x[r] = 0.0;
                        pat.push(r);
                    }
                    // An exact zero still contributes its pattern.
                    if uv != 0.0 {
                        x[r] -= lv * uv;
                    }
                }
            }
        }
        pat.sort_unstable();
        for &r in &pat {
            rowind.push(r);
            values.push(x[r]);
            (x[r], seen[r]) = (0.0, false);
        }
        pat.clear();
        colptr.push(rowind.len());
    }
    // SAFETY: each column's rows are sorted, unique (`seen`) and `< m`;
    // `colptr` tracks `rowind.len()`.
    unsafe { CscMat::from_parts_unchecked(m, cols.len(), colptr, rowind, values) }
}

/// Rewrites columns `cols` of a reduced block whose pattern
/// (`colptr`/`rowind`, as [`reduce_block_cols`] formed it) is retained:
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

/// Multiply-adds of column `c` of `Σᵢ Lᵢ·Uᵢ`, two per entry of each `L`
/// column a `U` entry selects.
pub fn product_flops<'t>(terms: impl Iterator<Item = (&'t CscMat, &'t CscMat)>, c: usize) -> f64 {
    terms
        .map(|(l, u)| {
            u.col_rows(c)
                .iter()
                .map(|&t| 2.0 * (l.colptr()[t + 1] - l.colptr()[t]) as f64)
                .sum::<f64>()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(rows: &[Vec<f64>]) -> CscMat {
        CscMat::from_dense(rows)
    }

    fn reduce_block(a: &CscMat, terms: &[(&CscMat, &CscMat)]) -> CscMat {
        reduce_block_cols(ColsView::of(a), terms.iter().copied(), 0..a.ncols())
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
}
