//! Sparse matrix–vector products.
//!
//! Basker's reduction phases (paper Alg. 4, lines 18 & 24) are sequences of
//! "y -= A·x" updates on block columns, so the subtracting variants are the
//! hot kernels here.

use crate::csc::CscMat;

/// `y = A·x`.
pub fn spmv(a: &CscMat, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), a.ncols());
    let mut y = vec![0.0; a.nrows()];
    spmv_acc(a, x, &mut y);
    y
}

/// `y += A·x` (accumulating).
pub fn spmv_acc(a: &CscMat, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.ncols());
    assert_eq!(y.len(), a.nrows());
    let ks = basker_kernels::active();
    for j in 0..a.ncols() {
        let xj = x[j];
        if xj == 0.0 {
            continue;
        }
        ks.scatter_axpy(y, a.col_rows(j), a.col_values(j), xj);
    }
}

/// `y -= A·x` (the reduction update): the one-column case of
/// [`spmv_sub_cols`].
pub fn spmv_sub(a: &CscMat, x: &[f64], y: &mut [f64]) {
    spmv_sub_cols::<1>(a, x, y);
}

/// `Y -= A·X` for `K` right-hand sides in **one** pass over `A`: `x`
/// and `y` pack their `K` columns column-major (`x.len() == K·ncols`,
/// `y.len() == K·nrows`), so the `K` residuals of a batched solve cost
/// one walk over the matrix instead of `K`. Returns `‖x_c‖∞` of every
/// column of `X`, taken while its entries are being loaded anyway (the
/// refinement residual scales by it).
///
/// `K = 1` routes each column of `A` through the kernel rung's
/// `scatter_axpy`, exactly like [`spmv_acc`]; wider calls run the
/// plain strided update, which agrees with it bit for bit wherever the
/// rung's run detection does not engage (columns of fewer than 16
/// entries) and to rounding elsewhere.
// basker-lint: deny-alloc
pub fn spmv_sub_cols<const K: usize>(a: &CscMat, x: &[f64], y: &mut [f64]) -> [f64; K] {
    let (m, n) = (a.nrows(), a.ncols());
    assert_eq!(x.len(), K * n);
    assert_eq!(y.len(), K * m);
    let ks = basker_kernels::active();
    let mut xnorm = [0.0f64; K];
    for j in 0..n {
        let xj: [f64; K] = std::array::from_fn(|c| x[c * n + j]);
        for c in 0..K {
            xnorm[c] = xnorm[c].max(xj[c].abs());
        }
        if xj.iter().all(|&v| v == 0.0) {
            continue;
        }
        if K == 1 {
            ks.scatter_axpy(y, a.col_rows(j), a.col_values(j), -xj[0]);
            continue;
        }
        for (&i, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
            for c in 0..K {
                y[c * m + i] -= v * xj[c];
            }
        }
    }
    xnorm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> CscMat {
        CscMat::from_dense(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![0.0, 5.0]])
    }

    #[test]
    fn basic_product() {
        let y = spmv(&a(), &[1.0, 10.0]);
        assert_eq!(y, vec![21.0, 43.0, 50.0]);
    }

    #[test]
    fn accumulate_and_subtract_are_inverses() {
        let m = a();
        let x = [2.0, -1.0];
        let mut y = vec![5.0, 5.0, 5.0];
        spmv_acc(&m, &x, &mut y);
        spmv_sub(&m, &x, &mut y);
        assert_eq!(y, vec![5.0, 5.0, 5.0]);
    }

    #[test]
    fn batched_subtract_matches_column_by_column() {
        // A 30-row matrix whose first column is full (a run the one-
        // column path hands to the rung's `axpy`) and whose others are
        // short, so both regimes are compared.
        let (m, n) = (30usize, 7usize);
        let mut t = crate::TripletMat::new(m, n);
        for i in 0..m {
            t.push(i, 0, 0.25 + i as f64 * 0.125);
        }
        for j in 1..n {
            for i in (j..m).step_by(j + 3) {
                t.push(i, j, (i as f64 - 2.0 * j as f64) * 0.5);
            }
        }
        let a = t.to_csc();
        fn check<const K: usize>(a: &CscMat) {
            let (m, n) = (a.nrows(), a.ncols());
            // Column 1 of X is all zeros; the others vary.
            let x: Vec<f64> = (0..K * n)
                .map(|t| {
                    if t / n == 1 {
                        0.0
                    } else {
                        (t % 5) as f64 - 1.5
                    }
                })
                .collect();
            let y0: Vec<f64> = (0..K * m).map(|t| (t % 11) as f64).collect();
            let mut y = y0.clone();
            let norms = spmv_sub_cols::<K>(a, &x, &mut y);
            for c in 0..K {
                let xc = &x[c * n..(c + 1) * n];
                let mut yc = y0[c * m..(c + 1) * m].to_vec();
                spmv_sub(a, xc, &mut yc);
                assert_eq!(norms[c], crate::util::norm_inf(xc), "K={K} col {c}");
                for i in 0..m {
                    let got = y[c * m + i];
                    assert!(
                        (got - yc[i]).abs() <= 1e-12 * yc[i].abs().max(1.0),
                        "K={K} col {c} row {i}: {got} vs {}",
                        yc[i]
                    );
                    if K == 1 {
                        assert_eq!(got.to_bits(), yc[i].to_bits());
                    }
                }
            }
        }
        check::<1>(&a);
        check::<2>(&a);
        check::<4>(&a);
        check::<8>(&a);
    }
}
