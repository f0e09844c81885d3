//! The pattern-frozen image of a BTF-permuted matrix.
//!
//! A refactorization sees the sparsity pattern the factorization before
//! it saw, so *where* each nonzero of `A` lands once the matrix is
//! permuted and split along the BTF block boundaries is a fact of the
//! pattern alone. [`FrozenBtf`] records it once per symbolic handle —
//! the `ap_map` idiom of the supernodal engine: permute a copy of `A`
//! whose values are their own storage indices and read the map off the
//! result. From then on a value refresh is one gather into retained
//! storage instead of a fresh permuted matrix, a fresh extraction per
//! diagonal block and a fresh coupling matrix every step.
//!
//! The permuted matrix is kept in two parts. The **block-diagonal
//! store** holds, column by column, the entries inside the BTF diagonal
//! blocks with their global permuted rows; every diagonal block is a
//! window of its column pointers ([`FrozenBtf::diag_cols`]), so a
//! matrix of 10⁵ one-by-one blocks costs no per-block header. The
//! strictly-upper **couplings** keep the order the solve's coupling
//! matrix stores them in.

use basker_klu::gp::ColsView;
use basker_sparse::{CscMat, Perm, Result, SparseError};
use std::ops::Range;
use std::sync::OnceLock;

fn wrong_pattern() -> SparseError {
    SparseError::InvalidStructure("refactor requires the analyzed sparsity pattern".into())
}

/// The record a symbolic handle keeps in `cell`, made by `record` on
/// first use. A failed `record` leaves the cell empty, so a matrix with
/// the wrong pattern is turned away without poisoning the handle.
pub fn get_or_record<T>(cell: &OnceLock<T>, record: impl FnOnce() -> Result<T>) -> Result<&T> {
    match cell.get() {
        Some(recorded) => Ok(recorded),
        None => {
            let fresh = record()?;
            Ok(cell.get_or_init(|| fresh))
        }
    }
}

/// Where every nonzero of one sparsity pattern lands in the permuted,
/// block-split matrix (see the module docs).
#[derive(Debug, Clone)]
pub struct FrozenBtf {
    /// The recorded pattern of `A` itself, compared against every
    /// matrix the map is applied to.
    a_colptr: Vec<usize>,
    a_rowind: Vec<usize>,
    diag_colptr: Vec<usize>,
    diag_rowind: Vec<usize>,
    /// Block-diagonal slot `s` takes `A`'s value `diag_src[s]`.
    diag_src: Vec<usize>,
    /// Coupling slot `q` takes `A`'s value `off_src[q]`.
    off_src: Vec<usize>,
}

impl FrozenBtf {
    /// Records the map of `a`'s pattern under the given permutations
    /// and BTF block boundaries. Fails if an entry falls *below* its
    /// diagonal block — `a` does not have the pattern the permutations
    /// were computed for.
    pub fn record(
        a: &CscMat,
        row_perm: &Perm,
        col_perm: &Perm,
        bounds: &[usize],
    ) -> Result<FrozenBtf> {
        // An f64 holds any index we can store exactly.
        let mut idx = a.clone();
        for (k, v) in idx.values_mut().iter_mut().enumerate() {
            *v = k as f64;
        }
        let ap = Perm::permute_both(row_perm, col_perm, &idx);
        let mut diag_colptr = Vec::with_capacity(ap.ncols() + 1);
        let mut diag_rowind = Vec::new();
        let mut diag_src = Vec::new();
        let mut off_src = Vec::new();
        diag_colptr.push(0);
        for w in bounds.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            for j in lo..hi {
                for (i, k) in ap.col_iter(j) {
                    if i < lo {
                        off_src.push(k as usize);
                    } else if i < hi {
                        diag_rowind.push(i);
                        diag_src.push(k as usize);
                    } else {
                        return Err(wrong_pattern());
                    }
                }
                diag_colptr.push(diag_rowind.len());
            }
        }
        Ok(FrozenBtf {
            a_colptr: a.colptr().to_vec(),
            a_rowind: a.rowind().to_vec(),
            diag_colptr,
            diag_rowind,
            diag_src,
            off_src,
        })
    }

    /// Fails unless `a` has exactly the recorded pattern.
    pub fn check(&self, a: &CscMat) -> Result<()> {
        if a.nrows() + 1 == self.a_colptr.len()
            && a.colptr() == self.a_colptr
            && a.rowind() == self.a_rowind
        {
            Ok(())
        } else {
            Err(wrong_pattern())
        }
    }

    /// Entries of the block-diagonal store.
    pub fn diag_nnz(&self) -> usize {
        self.diag_src.len()
    }

    /// Column pointers of the block-diagonal store (`n + 1` entries).
    pub fn diag_colptr(&self) -> &[usize] {
        &self.diag_colptr
    }

    /// Global permuted row of every block-diagonal entry.
    pub fn diag_rowind(&self) -> &[usize] {
        &self.diag_rowind
    }

    /// Refreshes the values of both parts from `a` (which must
    /// pass [`check`](Self::check)): `diag` is the block-diagonal store's
    /// value array, `couplings` the coupling matrix's.
    // basker-lint: deny-alloc
    pub fn gather(&self, a: &CscMat, diag: &mut [f64], couplings: &mut [f64]) {
        assert_eq!(diag.len(), self.diag_src.len());
        assert_eq!(couplings.len(), self.off_src.len());
        let src = a.values();
        for (d, &k) in diag.iter_mut().zip(&self.diag_src) {
            *d = src[k];
        }
        for (c, &k) in couplings.iter_mut().zip(&self.off_src) {
            *c = src[k];
        }
    }

    /// The diagonal block spanning permuted rows and columns `cols`,
    /// read in place from the store's values `diag`.
    #[inline]
    pub fn diag_cols<'a>(&'a self, diag: &'a [f64], cols: Range<usize>) -> ColsView<'a> {
        ColsView::new(
            &self.diag_colptr[cols.start..=cols.end],
            1,
            cols.len(),
            &self.diag_rowind,
            diag,
            cols.start,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basker_sparse::blocks::extract_range;

    /// 4x4, two 2x2 blocks under the reversing permutation, one
    /// coupling above them.
    fn sample() -> (CscMat, Perm, Vec<usize>) {
        let a = CscMat::from_dense(&[
            vec![1.0, 2.0, 0.0, 0.0],
            vec![3.0, 4.0, 0.0, 0.0],
            vec![0.0, 9.0, 5.0, 6.0],
            vec![0.0, 0.0, 7.0, 8.0],
        ]);
        (a, Perm::from_vec(vec![3, 2, 1, 0]).unwrap(), vec![0, 2, 4])
    }

    #[test]
    fn gather_reproduces_permute_and_extract() {
        let (a, p, bounds) = sample();
        let frozen = FrozenBtf::record(&a, &p, &p, &bounds).unwrap();
        assert!(frozen.check(&a).is_ok());
        assert!(frozen.check(&CscMat::identity(4)).is_err());
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v = *v * 10.0 + 0.5;
        }
        let mut diag = vec![0.0; frozen.diag_nnz()];
        let mut off = vec![0.0; 1];
        frozen.gather(&a2, &mut diag, &mut off);
        let ap = Perm::permute_both(&p, &p, &a2);
        assert_eq!(off, vec![ap.get(1, 2)]);
        for w in bounds.windows(2) {
            let want = extract_range(&ap, w[0]..w[1], w[0]..w[1]);
            let got = frozen.diag_cols(&diag, w[0]..w[1]);
            for c in 0..want.ncols() {
                assert!(got.col(c).eq(want.col_iter(c)), "block at {} col {c}", w[0]);
            }
        }
    }

    #[test]
    fn entry_below_its_block_is_rejected() {
        let (a, p, bounds) = sample();
        // The transpose's coupling sits below the diagonal blocks.
        assert!(FrozenBtf::record(&a.transpose(), &p, &p, &bounds).is_err());
    }
}
