//! The pattern-frozen image of a BTF-permuted matrix.
//!
//! Every matrix a symbolic handle factors or refactors has the pattern
//! it analyzed, so *where* each nonzero of `A` lands once the matrix is
//! permuted and split along the BTF block boundaries is a fact of the
//! pattern alone. [`FrozenBtf`] records it once, at analyze — the
//! `ap_map` idiom of the supernodal engine: the map from every slot of
//! the permuted matrix to the storage index of `A` it is read from.
//! From then on a factorization's or a refactorization's image of `A`
//! is one gather into retained storage instead of a fresh permuted
//! matrix, a fresh extraction per diagonal block and a fresh coupling
//! matrix every step.
//!
//! The permuted matrix is kept in two parts. The **block-diagonal
//! store** holds, column by column, the entries inside the BTF diagonal
//! blocks with their global permuted rows; every diagonal block is a
//! window of its column pointers ([`FrozenBtf::diag_cols`]), so a
//! matrix of 10⁵ one-by-one blocks costs no per-block header. The
//! strictly-upper **couplings** are the solve's coupling matrix, whose
//! pattern is recorded with the map ([`FrozenBtf::image`]).

use basker_klu::gp::ColsView;
use basker_sparse::{CscMat, Perm, Result, SparseError};
use std::ops::Range;

fn wrong_pattern() -> SparseError {
    SparseError::InvalidStructure("the matrix must have the analyzed sparsity pattern".into())
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
    /// Pattern of the coupling matrix.
    off_colptr: Vec<usize>,
    off_rowind: Vec<usize>,
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
        let row_of = row_perm.inverse();
        let n = a.ncols();
        let mut diag_colptr = Vec::with_capacity(n + 1);
        let mut off_colptr = Vec::with_capacity(n + 1);
        let (mut diag_rowind, mut diag_src) = (Vec::new(), Vec::new());
        let (mut off_rowind, mut off_src) = (Vec::new(), Vec::new());
        diag_colptr.push(0);
        off_colptr.push(0);
        // `(permuted row, storage index in A)` of one permuted column.
        let mut col: Vec<(usize, usize)> = Vec::new();
        for w in bounds.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            for j in lo..hi {
                let src = col_perm.as_slice()[j];
                col.clear();
                col.extend(
                    (a.colptr()[src]..a.colptr()[src + 1])
                        .map(|k| (row_of.as_slice()[a.rowind()[k]], k)),
                );
                col.sort_unstable();
                for &(i, k) in &col {
                    if i < lo {
                        off_rowind.push(i);
                        off_src.push(k);
                    } else if i < hi {
                        diag_rowind.push(i);
                        diag_src.push(k);
                    } else {
                        return Err(wrong_pattern());
                    }
                }
                diag_colptr.push(diag_rowind.len());
                off_colptr.push(off_rowind.len());
            }
        }
        Ok(FrozenBtf {
            a_colptr: a.colptr().to_vec(),
            a_rowind: a.rowind().to_vec(),
            diag_colptr,
            diag_rowind,
            diag_src,
            off_colptr,
            off_rowind,
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

    /// A fresh image of `a` (which must pass [`check`](Self::check)):
    /// the block-diagonal store's values and the coupling matrix.
    pub fn image(&self, a: &CscMat) -> (Vec<f64>, CscMat) {
        let n = self.off_colptr.len() - 1;
        let mut diag = vec![0.0; self.diag_nnz()];
        let mut couplings = CscMat::new(
            n,
            n,
            self.off_colptr.clone(),
            self.off_rowind.clone(),
            vec![0.0; self.off_src.len()],
        )
        .expect("recorded from a valid matrix");
        self.gather(a, &mut diag, couplings.values_mut());
        (diag, couplings)
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
            (cols.len(), cols.len()),
            &self.diag_rowind,
            diag,
            cols.start,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basker_sparse::blocks::{extract_range, upper_block_part};

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
        let (diag, off) = frozen.image(&a2);
        let ap = Perm::permute_both(&p, &p, &a2);
        assert_eq!(off, upper_block_part(&ap, &[0, 0, 1, 1]));
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
