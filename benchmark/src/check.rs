//! Answer checking, independent of the solvers: the harness computes
//! its own residual and compares against the serial KLU reference.

use basker_sparse::CscMat;

/// A step's refined residual may not exceed this.
pub const RESIDUAL_LIMIT: f64 = 1e-7;
/// A step's solution may not differ from the paired KLU solution by
/// more than this, relative to the KLU solution's norm.
pub const REFERENCE_LIMIT: f64 = 1e-6;

/// Scratch for [`Checker::residual`], sized once per matrix dimension.
#[derive(Debug, Default)]
pub struct Checker {
    r: Vec<f64>,
    rowsum: Vec<f64>,
}

impl Checker {
    /// An empty checker; buffers grow on first use.
    pub fn new() -> Checker {
        Checker::default()
    }

    /// `‖b − A·x‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)` in one pass over `A`.
    pub fn residual(&mut self, a: &CscMat, x: &[f64], b: &[f64]) -> f64 {
        let n = a.nrows();
        self.r.clear();
        self.r.extend_from_slice(b);
        self.rowsum.clear();
        self.rowsum.resize(n, 0.0);
        for (j, &xj) in x.iter().enumerate() {
            for (&i, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
                self.r[i] -= v * xj;
                self.rowsum[i] += v.abs();
            }
        }
        let denom = norm_inf(&self.rowsum) * norm_inf(x) + norm_inf(b);
        if denom == 0.0 {
            norm_inf(&self.r)
        } else {
            norm_inf(&self.r) / denom
        }
    }

    /// The worst residual over the packed right-hand sides of one step.
    pub fn worst_residual(&mut self, a: &CscMat, xs: &[f64], bs: &[f64]) -> f64 {
        let n = a.nrows();
        let each: Vec<f64> = xs
            .chunks_exact(n)
            .zip(bs.chunks_exact(n))
            .map(|(x, b)| self.residual(a, x, b))
            .collect();
        norm_inf(&each)
    }
}

/// `‖v‖∞`, NaN if any entry is (`f64::max` alone would skip it, and a
/// NaN solution must not pass the check).
fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |m: f64, e| {
        if m.is_nan() || e.is_nan() {
            f64::NAN
        } else {
            m.max(e.abs())
        }
    })
}

/// `‖x − reference‖∞ / ‖reference‖∞` (absolute when the reference is 0).
pub fn relative_difference(x: &[f64], reference: &[f64]) -> f64 {
    let diff: Vec<f64> = x.iter().zip(reference).map(|(a, b)| a - b).collect();
    let (diff, scale) = (norm_inf(&diff), norm_inf(reference));
    if scale == 0.0 {
        diff
    } else {
        diff / scale
    }
}

/// Whether a step's answer passes: finite, within the residual limit,
/// and (when a KLU solution of the same system is at hand) within the
/// reference limit of it.
pub fn step_ok(residual: f64, vs_reference: Option<f64>) -> bool {
    residual.is_finite()
        && residual <= RESIDUAL_LIMIT
        && vs_reference.map_or(true, |d| d.is_finite() && d <= REFERENCE_LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_is_zero_for_the_exact_solution_and_large_for_a_wrong_one() {
        let a = CscMat::from_dense(&[vec![4.0, 1.0], vec![2.0, 3.0]]);
        let x = [1.0, -2.0];
        let b = [4.0 - 2.0, 2.0 - 6.0];
        let mut c = Checker::new();
        assert_eq!(c.residual(&a, &x, &b), 0.0);
        assert!(c.residual(&a, &[1.0, 2.0], &b) > 0.1);
        let xs = [1.0, -2.0, 1.0, 2.0];
        let bs = [2.0, -4.0, 2.0, -4.0];
        assert!(c.worst_residual(&a, &xs, &bs) > 0.1);
        assert!(c.residual(&a, &[f64::NAN, 0.0], &b).is_nan());
    }

    #[test]
    fn step_verdicts() {
        assert!(step_ok(1e-12, None));
        assert!(step_ok(1e-12, Some(1e-9)));
        assert!(!step_ok(1e-5, None));
        assert!(!step_ok(1e-12, Some(1e-3)));
        assert!(!step_ok(f64::NAN, None));
        assert_eq!(relative_difference(&[1.0, 2.0], &[1.0, 4.0]), 0.5);
        assert_eq!(relative_difference(&[0.5], &[0.0]), 0.5);
    }
}
