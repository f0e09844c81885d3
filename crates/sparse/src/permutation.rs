//! Permutations and their application to vectors and matrices.

use crate::csc::CscMat;
use crate::{Result, SparseError};

/// A permutation of `0..n`.
///
/// Stored in "gather" convention: `perm[new] = old`, i.e. position `new` of
/// the permuted object is filled from position `old` of the original. With
/// this convention, applying a `Perm` `p` to a vector `x` yields
/// `y[k] = x[p[k]]`, and permuting the rows of a matrix `A` produces `P·A`
/// whose row `k` is row `p[k]` of `A`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Perm {
    perm: Vec<usize>,
}

impl Perm {
    /// Identity permutation of length `n`.
    pub fn identity(n: usize) -> Self {
        Perm {
            perm: (0..n).collect(),
        }
    }

    /// Builds from a gather vector, validating it is a bijection on `0..n`.
    pub fn from_vec(perm: Vec<usize>) -> Result<Self> {
        let n = perm.len();
        let mut seen = vec![false; n];
        for &p in &perm {
            if p >= n {
                return Err(SparseError::IndexOutOfBounds { index: p, bound: n });
            }
            if seen[p] {
                return Err(SparseError::InvalidStructure(format!(
                    "duplicate index {p} in permutation"
                )));
            }
            seen[p] = true;
        }
        Ok(Perm { perm })
    }

    /// Length of the permuted range.
    #[inline]
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// True for the length-0 permutation.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// The gather vector: `as_slice()[new] = old`.
    #[inline]
    pub fn as_slice(&self) -> &[usize] {
        &self.perm
    }

    /// `true` when this is the identity.
    pub fn is_identity(&self) -> bool {
        self.perm.iter().enumerate().all(|(i, &p)| i == p)
    }

    /// The inverse permutation (`inv[old] = new`).
    pub fn inverse(&self) -> Perm {
        let mut inv = vec![0usize; self.perm.len()];
        for (new, &old) in self.perm.iter().enumerate() {
            inv[old] = new;
        }
        Perm { perm: inv }
    }

    /// Composition "apply `self` first, then `after`":
    /// `(self.then(after))[k] = self[after[k]]`.
    pub fn then(&self, after: &Perm) -> Perm {
        assert_eq!(self.len(), after.len());
        Perm {
            perm: after.perm.iter().map(|&k| self.perm[k]).collect(),
        }
    }

    /// Applies into a caller-provided buffer: `y[k] = x[perm[k]]`,
    /// without allocating; `x` and `y` must not alias.
    pub fn apply_vec_into<T: Copy>(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.perm.len());
        assert_eq!(y.len(), self.perm.len());
        for (yk, &old) in y.iter_mut().zip(self.perm.iter()) {
            *yk = x[old];
        }
    }

    /// Row-permutes: returns `P·A` (row `k` of the result is row `perm[k]`
    /// of `A`).
    pub fn permute_rows(&self, a: &CscMat) -> CscMat {
        assert_eq!(self.len(), a.nrows(), "row permutation length mismatch");
        let inv = self.inverse();
        let inv = inv.as_slice();
        let mut colptr = Vec::with_capacity(a.ncols() + 1);
        let mut rowind = Vec::with_capacity(a.nnz());
        let mut values = Vec::with_capacity(a.nnz());
        colptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for j in 0..a.ncols() {
            scratch.clear();
            for (i, v) in a.col_iter(j) {
                scratch.push((inv[i], v));
            }
            scratch.sort_unstable_by_key(|&(r, _)| r);
            for &(r, v) in &scratch {
                rowind.push(r);
                values.push(v);
            }
            colptr.push(rowind.len());
        }
        // SAFETY: rows were remapped through a permutation (in-bounds,
        // unique) and re-sorted per column; `colptr` tracks `rowind.len()`.
        unsafe { CscMat::from_parts_unchecked(a.nrows(), a.ncols(), colptr, rowind, values) }
    }

    /// Column-permutes: returns `A·Pᵀ` in the sense that column `k` of the
    /// result is column `perm[k]` of `A`.
    pub fn permute_cols(&self, a: &CscMat) -> CscMat {
        assert_eq!(self.len(), a.ncols(), "column permutation length mismatch");
        let mut colptr = Vec::with_capacity(a.ncols() + 1);
        let mut rowind = Vec::with_capacity(a.nnz());
        let mut values = Vec::with_capacity(a.nnz());
        colptr.push(0);
        for &old_j in &self.perm {
            rowind.extend_from_slice(a.col_rows(old_j));
            values.extend_from_slice(a.col_values(old_j));
            colptr.push(rowind.len());
        }
        // SAFETY: whole columns of the valid source are copied intact
        // (sorted, in-bounds); only the column order changes.
        unsafe { CscMat::from_parts_unchecked(a.nrows(), a.ncols(), colptr, rowind, values) }
    }

    /// Applies row and column permutations together: `P·A·Qᵀ` with
    /// `result[i, j] = A[prow[i], pcol[j]]`.
    pub fn permute_both(prow: &Perm, pcol: &Perm, a: &CscMat) -> CscMat {
        prow.permute_rows(&pcol.permute_cols(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(Perm::from_vec(vec![2, 0, 1]).is_ok());
        assert!(Perm::from_vec(vec![0, 0, 1]).is_err());
        assert!(Perm::from_vec(vec![0, 3]).is_err());
    }

    #[test]
    fn inverse_and_compose() {
        let p = Perm::from_vec(vec![2, 0, 1]).unwrap();
        let inv = p.inverse();
        assert!(p.then(&inv).is_identity() || inv.then(&p).is_identity());
        // p then inv: (p.then(inv))[k] = p[inv[k]]; p[inv[old]=?]...
        // Both compositions must be identity for a bijection:
        assert!(p.then(&inv).is_identity());
        assert!(inv.then(&p).is_identity());
    }

    #[test]
    fn vector_application() {
        let p = Perm::from_vec(vec![2, 0, 1]).unwrap();
        let x = [10.0, 20.0, 30.0];
        let mut y = [0.0; 3];
        p.apply_vec_into(&x, &mut y);
        assert_eq!(y, [30.0, 10.0, 20.0]);
        let mut back = [0.0; 3];
        p.inverse().apply_vec_into(&y, &mut back);
        assert_eq!(back, x);
    }

    #[test]
    fn row_permutation_moves_rows() {
        // A = [1 2; 3 4], p = [1,0] -> PA = [3 4; 1 2]
        let a = CscMat::from_dense(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let p = Perm::from_vec(vec![1, 0]).unwrap();
        let pa = p.permute_rows(&a);
        assert_eq!(pa.to_dense(), vec![vec![3.0, 4.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn col_permutation_moves_cols() {
        let a = CscMat::from_dense(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let p = Perm::from_vec(vec![1, 0]).unwrap();
        let ap = p.permute_cols(&a);
        assert_eq!(ap.to_dense(), vec![vec![2.0, 1.0], vec![4.0, 3.0]]);
    }

    #[test]
    fn permute_both_matches_elementwise_rule() {
        let a = CscMat::from_dense(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ]);
        let pr = Perm::from_vec(vec![2, 0, 1]).unwrap();
        let pc = Perm::from_vec(vec![1, 2, 0]).unwrap();
        let b = Perm::permute_both(&pr, &pc, &a);
        let ad = a.to_dense();
        let bd = b.to_dense();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(bd[i][j], ad[pr.as_slice()[i]][pc.as_slice()[j]]);
            }
        }
    }
}
