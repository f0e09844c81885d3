//! Norms, residuals and comparison helpers used across the workspace.

use crate::csc::CscMat;
use crate::spmv::spmv;

/// Infinity norm of a vector.
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, &v| m.max(v.abs()))
}

/// Matrix infinity norm (max absolute row sum).
pub fn mat_norm_inf(a: &CscMat) -> f64 {
    let mut rowsum = vec![0.0f64; a.nrows()];
    mat_norm_inf_with(a, &mut rowsum)
}

/// Allocation-free variant of [`mat_norm_inf`] for hot loops (e.g. a
/// session recomputing `‖A‖∞` per transient step): `rowsum` must be at
/// least `a.nrows()` long and is clobbered.
pub fn mat_norm_inf_with(a: &CscMat, rowsum: &mut [f64]) -> f64 {
    let rowsum = &mut rowsum[..a.nrows()];
    rowsum.fill(0.0);
    for (i, _, v) in a.iter() {
        rowsum[i] += v.abs();
    }
    norm_inf(rowsum)
}

/// Relative residual `‖A·x − b‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞)`, the standard
/// backward-error style check used by the integration tests.
pub fn relative_residual(a: &CscMat, x: &[f64], b: &[f64]) -> f64 {
    let ax = spmv(a, x);
    let mut rmax = 0.0f64;
    for (axi, bi) in ax.iter().zip(b.iter()) {
        rmax = rmax.max((axi - bi).abs());
    }
    let denom = mat_norm_inf(a) * norm_inf(x) + norm_inf(b);
    if denom == 0.0 {
        rmax
    } else {
        rmax / denom
    }
}

/// `(min |u_jj|, max |u_jj|)` over the diagonal of an upper triangular
/// factor stored with sorted columns and the pivot (diagonal) entry
/// **last** in each column — the layout every engine's assembled `U`
/// uses. Returns `(∞, 0)` for a 0×0 matrix so callers can fold ranges
/// of several blocks with `min`/`max`.
pub fn u_diag_pivot_range(u: &CscMat) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    for j in 0..u.ncols() {
        let vals = u.col_values(j);
        let p = vals[vals.len() - 1].abs();
        lo = lo.min(p);
        hi = hi.max(p);
    }
    (lo, hi)
}

/// Componentwise approximate equality with absolute + relative slack.
pub fn approx_eq_vec(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

/// Fill-in density `|L+U| / |A|` as reported in the paper's Table I.
pub fn fill_density(nnz_lu: usize, nnz_a: usize) -> f64 {
    nnz_lu as f64 / nnz_a.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms() {
        assert_eq!(norm_inf(&[1.0, -3.0, 2.0]), 3.0);
        let a = CscMat::from_dense(&[vec![1.0, -2.0], vec![3.0, 4.0]]);
        assert_eq!(mat_norm_inf(&a), 7.0); // row 1: 3+4
    }

    #[test]
    fn residual_zero_for_exact_solution() {
        let a = CscMat::from_dense(&[vec![2.0, 0.0], vec![0.0, 4.0]]);
        let x = [1.0, 0.5];
        let b = [2.0, 2.0];
        assert!(relative_residual(&a, &x, &b) < 1e-16);
    }

    #[test]
    fn approx_eq() {
        assert!(approx_eq_vec(&[1.0, 2.0], &[1.0 + 1e-12, 2.0], 1e-9));
        assert!(!approx_eq_vec(&[1.0], &[1.1], 1e-9));
        assert!(!approx_eq_vec(&[1.0], &[1.0, 2.0], 1e-9));
    }

    #[test]
    fn fill_density_matches_definition() {
        assert_eq!(fill_density(40, 10), 4.0);
        assert_eq!(fill_density(5, 10), 0.5);
    }
}
