//! Sparse triangular solves with dense right-hand sides.
//!
//! These operate on *actually triangular* CSC matrices (as produced by the
//! factorization crates after pivot application). Lower-triangular columns
//! store the diagonal as their first entry; upper-triangular columns store
//! it as their last. The factorization crates' internal solves (which chase
//! fill patterns with DFS) live next to the factorizations; these kernels
//! serve the final `Ax = b` forward/backward substitution sweeps.

use crate::csc::CscMat;

/// Solves `L·X = B` in place for a row-major panel of `K` right-hand
/// sides (`b[i]` holds row `i` of all `K` columns; `B` becomes `X`):
/// one pass over `L` serves every column. `K = 1` is the classic
/// single-RHS forward substitution (view a `&mut [f64]` through
/// [`basker_kernels::rows_mut`]).
///
/// The diagonal is implicitly 1 (the factorizations' unit `L`); the
/// stored diagonal entry is ignored.
// basker-lint: deny-alloc
pub fn lower_solve_in_place<const K: usize>(l: &CscMat, b: &mut [[f64; K]]) {
    let n = l.ncols();
    assert_eq!(l.nrows(), n);
    assert_eq!(b.len(), n);
    let ks = basker_kernels::active();
    for j in 0..n {
        let rows = l.col_rows(j);
        let vals = l.col_values(j);
        if rows.is_empty() {
            continue;
        }
        debug_assert_eq!(rows[0], j, "L column {j} must start at the diagonal");
        let xj = b[j];
        if xj.iter().any(|&v| v != 0.0) {
            ks.scatter_axpy_rows(b, &rows[1..], &vals[1..], &xj.map(|v| -v));
        }
    }
}

/// Solves `U·X = B` in place (backward substitution) on a row-major
/// panel of `K` right-hand sides; see [`lower_solve_in_place`].
// basker-lint: deny-alloc
pub fn upper_solve_in_place<const K: usize>(u: &CscMat, b: &mut [[f64; K]]) {
    let n = u.ncols();
    assert_eq!(u.nrows(), n);
    assert_eq!(b.len(), n);
    let ks = basker_kernels::active();
    for j in (0..n).rev() {
        let rows = u.col_rows(j);
        let vals = u.col_values(j);
        if rows.is_empty() {
            continue;
        }
        let last = rows.len() - 1;
        debug_assert_eq!(rows[last], j, "U column {j} must end at the diagonal");
        let xj = b[j].map(|v| v / vals[last]);
        b[j] = xj;
        if xj.iter().any(|&v| v != 0.0) {
            ks.scatter_axpy_rows(b, &rows[..last], &vals[..last], &xj.map(|v| -v));
        }
    }
}

/// The off-diagonal half of a block substitution on a row-major panel:
/// for each column `c` of `a` in `cols`, whose solved row is
/// `x_c = y[x_at + (c − cols.start)]`, subtracts `a[i, c]·x_c` from
/// `y[base + i]` over the column's rows `i` — a solved block pushed
/// into the rows that still wait for it.
// basker-lint: deny-alloc
#[inline]
pub fn push_columns<const K: usize>(
    a: &CscMat,
    cols: std::ops::Range<usize>,
    y: &mut [[f64; K]],
    x_at: usize,
    base: usize,
) {
    let ks = basker_kernels::active();
    for (t, c) in cols.enumerate() {
        let xc = y[x_at + t];
        if xc.iter().any(|&v| v != 0.0) {
            ks.scatter_axpy_rows(
                &mut y[base..],
                a.col_rows(c),
                a.col_values(c),
                &xc.map(|v| -v),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv::spmv;
    use crate::triplet::TripletMat;
    use basker_kernels::rows_mut;

    fn lower() -> CscMat {
        CscMat::from_dense(&[
            vec![1.0, 0.0, 0.0],
            vec![1.0, 1.0, 0.0],
            vec![3.0, 5.0, 1.0],
        ])
    }

    fn upper() -> CscMat {
        CscMat::from_dense(&[
            vec![2.0, 1.0, 3.0],
            vec![0.0, 4.0, 5.0],
            vec![0.0, 0.0, 6.0],
        ])
    }

    #[test]
    fn lower_solve_matches_product() {
        let l = lower();
        let x = [1.0, -2.0, 0.5];
        let mut b = spmv(&l, &x);
        lower_solve_in_place(&l, rows_mut::<1>(&mut b));
        for (got, want) in b.iter().zip(x.iter()) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn unit_lower_solve() {
        // L with implicit unit diagonal: stored diag values are ignored.
        let l = CscMat::from_dense(&[
            vec![3.0, 0.0],
            vec![7.0, 5.0], // the 7 is the only meaningful entry
        ]);
        let mut b = vec![2.0, 15.0];
        lower_solve_in_place(&l, rows_mut::<1>(&mut b));
        assert_eq!(b, vec![2.0, 1.0]);
    }

    #[test]
    fn upper_solve_matches_product() {
        let u = upper();
        let x = [3.0, 0.0, -1.0];
        let mut b = spmv(&u, &x);
        upper_solve_in_place(&u, rows_mut::<1>(&mut b));
        for (got, want) in b.iter().zip(x.iter()) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    /// A sparse lower-triangular matrix with a few scattered entries
    /// per column and, when `dense_tail`, full columns at the end (the
    /// consecutive runs the `K = 1` path hands to the rung's `axpy`).
    fn sparse_lower(n: usize, dense_tail: bool) -> CscMat {
        let mut t = TripletMat::new(n, n);
        for j in 0..n {
            t.push(j, j, 2.0 + (j % 5) as f64);
            let dense = dense_tail && j < 3;
            for i in j + 1..n {
                if dense || (i * 7 + j * 3) % 11 == 0 {
                    t.push(i, j, 0.1 + ((i + 2 * j) % 9) as f64 * 0.05);
                }
            }
        }
        t.to_csc()
    }

    /// Column `c` of the test panel; column 1 is all zeros so the
    /// mixed zero/non-zero lane case is covered.
    fn rhs(n: usize, c: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                if c == 1 {
                    0.0
                } else {
                    ((i * (c + 3)) % 13) as f64 - 6.0
                }
            })
            .collect()
    }

    /// Runs `solve` on a `K`-wide panel and on each column alone, and
    /// requires agreement: bit for bit when no column of the matrix is
    /// long enough for run detection, else to rounding.
    fn panel_matches_columns<const K: usize>(
        n: usize,
        exact: bool,
        solve1: impl Fn(&mut [[f64; 1]]),
        solve_k: impl Fn(&mut [[f64; K]]),
    ) {
        let mut panel = vec![0.0; n * K];
        for c in 0..K {
            for (i, v) in rhs(n, c).into_iter().enumerate() {
                panel[i * K + c] = v;
            }
        }
        solve_k(rows_mut::<K>(&mut panel));
        for c in 0..K {
            let mut x = rhs(n, c);
            solve1(rows_mut::<1>(&mut x));
            let scale = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for i in 0..n {
                let got = panel[i * K + c];
                if exact {
                    assert_eq!(got.to_bits(), x[i].to_bits(), "K={K} col {c} row {i}");
                } else {
                    assert!(
                        (got - x[i]).abs() <= 1e-12 * scale.max(1.0),
                        "K={K} col {c} row {i}: {got} vs {}",
                        x[i]
                    );
                }
            }
        }
    }

    fn all_widths(n: usize, dense_tail: bool) {
        let l = sparse_lower(n, dense_tail);
        let u = l.transpose();
        let exact = !dense_tail;
        macro_rules! width {
            ($K:literal) => {
                panel_matches_columns::<$K>(
                    n,
                    exact,
                    |b| lower_solve_in_place(&l, b),
                    |b| lower_solve_in_place(&l, b),
                );
                panel_matches_columns::<$K>(
                    n,
                    exact,
                    |b| upper_solve_in_place(&u, b),
                    |b| upper_solve_in_place(&u, b),
                );
            };
        }
        width!(1);
        width!(2);
        width!(4);
        width!(8);
    }

    #[test]
    fn panel_solves_match_single_column_solves() {
        all_widths(23, false);
        // Columns of 40 consecutive rows: the `K = 1` path routes
        // them through the rung's contiguous `axpy` (FMA on the SIMD
        // rungs), the panel path never does — agreement to rounding.
        all_widths(40, true);
    }

    /// A transpose solve is the other triangle's solve over the
    /// explicit transpose.
    #[test]
    fn transpose_solves() {
        let x = [1.0, 2.0, 3.0];
        let lt = lower().transpose();
        let mut b: Vec<[f64; 1]> = spmv(&lt, &x).into_iter().map(|v| [v]).collect();
        upper_solve_in_place(&lt, &mut b);
        for (got, want) in b.iter().zip(x.iter()) {
            assert!((got[0] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_matrix_solves_trivially() {
        let l = CscMat::zero(0, 0);
        let mut b: Vec<[f64; 8]> = vec![];
        lower_solve_in_place(&l, &mut b);
        upper_solve_in_place(&l, &mut b);
    }
}
