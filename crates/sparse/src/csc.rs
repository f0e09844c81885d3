//! Compressed sparse column matrices.

use crate::{Result, SparseError};

/// A sparse matrix in compressed sparse column (CSC) format.
///
/// Storage is the classic three-array layout: `colptr` has `ncols + 1`
/// entries, and for column `j` the row indices and values of its nonzeros
/// live in `rowind[colptr[j]..colptr[j+1]]` / `values[...]`. Constructors
/// enforce that row indices are in-bounds, strictly increasing within each
/// column (sorted, duplicate-free).
///
/// This is the element format of Basker's hierarchical 2-D layout: each
/// block of the hierarchy is one `CscMat` (paper §IV).
#[derive(Clone, PartialEq)]
pub struct CscMat {
    nrows: usize,
    ncols: usize,
    colptr: Vec<usize>,
    rowind: Vec<usize>,
    values: Vec<f64>,
}

impl std::fmt::Debug for CscMat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CscMat({}x{}, nnz={})",
            self.nrows,
            self.ncols,
            self.nnz()
        )
    }
}

impl CscMat {
    /// Builds a matrix from raw CSC arrays, validating every invariant.
    pub fn new(
        nrows: usize,
        ncols: usize,
        colptr: Vec<usize>,
        rowind: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if colptr.len() != ncols + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "colptr length {} != ncols + 1 = {}",
                colptr.len(),
                ncols + 1
            )));
        }
        if colptr[0] != 0 {
            return Err(SparseError::InvalidStructure(
                "colptr[0] must be 0".to_string(),
            ));
        }
        if rowind.len() != values.len() {
            return Err(SparseError::InvalidStructure(format!(
                "rowind length {} != values length {}",
                rowind.len(),
                values.len()
            )));
        }
        if *colptr.last().unwrap() != rowind.len() {
            return Err(SparseError::InvalidStructure(format!(
                "colptr[ncols] = {} != nnz = {}",
                colptr[ncols],
                rowind.len()
            )));
        }
        for j in 0..ncols {
            if colptr[j] > colptr[j + 1] {
                return Err(SparseError::InvalidStructure(format!(
                    "colptr not monotone at column {j}"
                )));
            }
            let col = &rowind[colptr[j]..colptr[j + 1]];
            for (k, &r) in col.iter().enumerate() {
                if r >= nrows {
                    return Err(SparseError::IndexOutOfBounds {
                        index: r,
                        bound: nrows,
                    });
                }
                if k > 0 && col[k - 1] >= r {
                    return Err(SparseError::InvalidStructure(format!(
                        "row indices not strictly increasing in column {j}"
                    )));
                }
            }
        }
        Ok(CscMat {
            nrows,
            ncols,
            colptr,
            rowind,
            values,
        })
    }

    /// Builds a matrix from raw arrays **without** validation.
    ///
    /// This exists for hot paths that construct already-normalised data
    /// (factor assembly). Debug builds still assert the invariants.
    ///
    /// # Safety
    ///
    /// The arrays must satisfy every invariant [`CscMat::new`] checks:
    /// `colptr` has `ncols + 1` monotone entries starting at 0, `rowind`
    /// and `values` have `colptr[ncols]` entries, and each column's row
    /// indices are strictly increasing and below `nrows`. Downstream
    /// code indexes by these arrays without bounds re-checks, so a
    /// malformed matrix is undefined behavior, not just a wrong answer.
    pub unsafe fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        colptr: Vec<usize>,
        rowind: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert!(
            CscMat::new(nrows, ncols, colptr.clone(), rowind.clone(), values.clone()).is_ok(),
            "from_parts_unchecked given invalid CSC arrays"
        );
        CscMat {
            nrows,
            ncols,
            colptr,
            rowind,
            values,
        }
    }

    /// An `nrows x ncols` matrix with no stored entries.
    pub fn zero(nrows: usize, ncols: usize) -> Self {
        CscMat {
            nrows,
            ncols,
            colptr: vec![0; ncols + 1],
            rowind: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Self {
        CscMat {
            nrows: n,
            ncols: n,
            colptr: (0..=n).collect(),
            rowind: (0..n).collect(),
            values: vec![1.0; n],
        }
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

    /// Number of explicitly stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.rowind.len()
    }

    /// `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// The column-pointer array (`ncols + 1` entries).
    #[inline]
    pub fn colptr(&self) -> &[usize] {
        &self.colptr
    }

    /// All row indices, concatenated column by column.
    #[inline]
    pub fn rowind(&self) -> &[usize] {
        &self.rowind
    }

    /// All values, concatenated column by column.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the values (pattern is fixed).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The pattern borrowed beside the mutable values, as
    /// `(colptr, rowind, values)` — for value refreshes that walk the
    /// fixed pattern while writing.
    #[inline]
    pub fn parts_mut(&mut self) -> (&[usize], &[usize], &mut [f64]) {
        (&self.colptr, &self.rowind, &mut self.values)
    }

    /// Row indices of column `j`.
    #[inline]
    pub fn col_rows(&self, j: usize) -> &[usize] {
        &self.rowind[self.colptr[j]..self.colptr[j + 1]]
    }

    /// Values of column `j`.
    #[inline]
    pub fn col_values(&self, j: usize) -> &[f64] {
        &self.values[self.colptr[j]..self.colptr[j + 1]]
    }

    /// Iterator over `(row, value)` pairs of column `j`.
    #[inline]
    pub fn col_iter(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.col_rows(j)
            .iter()
            .copied()
            .zip(self.col_values(j).iter().copied())
    }

    /// Iterator over all `(row, col, value)` triplets in column order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.ncols).flat_map(move |j| self.col_iter(j).map(move |(i, v)| (i, j, v)))
    }

    /// The `(row, col)` of the first NaN or infinite value in column
    /// order, if any.
    pub fn first_non_finite(&self) -> Option<(usize, usize)> {
        let k = self.values.iter().position(|v| !v.is_finite())?;
        let j = self.colptr.partition_point(|&p| p <= k) - 1;
        Some((self.rowind[k], j))
    }

    /// Looks up entry `(i, j)`, returning 0.0 when not stored.
    ///
    /// Binary search over the (sorted) column — O(log nnz(col)).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.nrows && j < self.ncols,
            "get({i},{j}) out of bounds"
        );
        match self.col_rows(j).binary_search(&i) {
            Ok(k) => self.values[self.colptr[j] + k],
            Err(_) => 0.0,
        }
    }

    /// The transpose, produced with the classic counting pass; output
    /// columns are automatically sorted.
    pub fn transpose(&self) -> CscMat {
        let mut colptr = vec![0usize; self.nrows + 1];
        for &r in &self.rowind {
            colptr[r + 1] += 1;
        }
        for i in 0..self.nrows {
            colptr[i + 1] += colptr[i];
        }
        let mut rowind = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        let mut next = colptr.clone();
        for j in 0..self.ncols {
            for (i, v) in self.col_iter(j) {
                let dst = next[i];
                rowind[dst] = j;
                values[dst] = v;
                next[i] += 1;
            }
        }
        CscMat {
            nrows: self.ncols,
            ncols: self.nrows,
            colptr,
            rowind,
            values,
        }
    }

    /// Structural pattern of `A + Aᵀ` (values are the sums; diagonal kept).
    ///
    /// Orderings on unsymmetric matrices operate on this symmetrisation
    /// (paper §II: ND uses `G(A + Aᵀ)` when `A` is unsymmetric).
    pub fn symmetrize(&self) -> CscMat {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        let t = self.transpose();
        add_patterns(self, &t)
    }

    /// Densifies into row-major storage. Intended for tests and tiny blocks.
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; self.ncols]; self.nrows];
        for (i, j, v) in self.iter() {
            d[i][j] += v;
        }
        d
    }

    /// Builds from a dense row-major slice, dropping exact zeros.
    pub fn from_dense(rows: &[Vec<f64>]) -> CscMat {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut colptr = Vec::with_capacity(ncols + 1);
        let mut rowind = Vec::new();
        let mut values = Vec::new();
        colptr.push(0);
        for j in 0..ncols {
            for (i, row) in rows.iter().enumerate() {
                if row[j] != 0.0 {
                    rowind.push(i);
                    values.push(row[j]);
                }
            }
            colptr.push(rowind.len());
        }
        CscMat {
            nrows,
            ncols,
            colptr,
            rowind,
            values,
        }
    }

    /// Returns the value of the diagonal entry of column `j` (0.0 if absent).
    pub fn diag(&self, j: usize) -> f64 {
        self.get(j, j)
    }

    /// Checks structural symmetry (pattern only).
    pub fn is_pattern_symmetric(&self) -> bool {
        if !self.is_square() {
            return false;
        }
        let t = self.transpose();
        self.colptr == t.colptr && self.rowind == t.rowind
    }
}

/// Pattern/value union of two equally sized matrices (`A + B`).
pub fn add_patterns(a: &CscMat, b: &CscMat) -> CscMat {
    assert_eq!(a.nrows, b.nrows);
    assert_eq!(a.ncols, b.ncols);
    let mut colptr = Vec::with_capacity(a.ncols + 1);
    let mut rowind = Vec::with_capacity(a.nnz() + b.nnz());
    let mut values = Vec::with_capacity(a.nnz() + b.nnz());
    colptr.push(0);
    for j in 0..a.ncols {
        // Merge two sorted runs.
        let (ar, av) = (a.col_rows(j), a.col_values(j));
        let (br, bv) = (b.col_rows(j), b.col_values(j));
        let (mut x, mut y) = (0usize, 0usize);
        while x < ar.len() || y < br.len() {
            if y >= br.len() || (x < ar.len() && ar[x] < br[y]) {
                rowind.push(ar[x]);
                values.push(av[x]);
                x += 1;
            } else if x >= ar.len() || br[y] < ar[x] {
                rowind.push(br[y]);
                values.push(bv[y]);
                y += 1;
            } else {
                rowind.push(ar[x]);
                values.push(av[x] + bv[y]);
                x += 1;
                y += 1;
            }
        }
        colptr.push(rowind.len());
    }
    CscMat {
        nrows: a.nrows,
        ncols: a.ncols,
        colptr,
        rowind,
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CscMat {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        CscMat::new(
            3,
            3,
            vec![0, 2, 3, 5],
            vec![0, 2, 1, 0, 2],
            vec![1.0, 4.0, 3.0, 2.0, 5.0],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let a = small();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.ncols(), 3);
        assert_eq!(a.nnz(), 5);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(2, 0), 4.0);
        assert_eq!(a.get(1, 1), 3.0);
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(2, 2), 5.0);
        assert_eq!(a.get(1, 0), 0.0);
    }

    #[test]
    fn rejects_bad_colptr() {
        assert!(CscMat::new(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(CscMat::new(2, 2, vec![1, 1, 1], vec![], vec![]).is_err());
        assert!(CscMat::new(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn rejects_unsorted_rows() {
        assert!(CscMat::new(3, 1, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        assert!(CscMat::new(3, 1, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn rejects_out_of_bounds_row() {
        assert!(CscMat::new(2, 1, vec![0, 1], vec![5], vec![1.0]).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = small();
        let t = a.transpose();
        assert_eq!(t.get(0, 2), 4.0);
        assert_eq!(t.get(2, 0), 2.0);
        let tt = t.transpose();
        assert_eq!(a, tt);
    }

    #[test]
    fn identity_and_zero() {
        let i = CscMat::identity(4);
        assert_eq!(i.nnz(), 4);
        for k in 0..4 {
            assert_eq!(i.get(k, k), 1.0);
        }
        let z = CscMat::zero(3, 5);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.ncols(), 5);
    }

    #[test]
    fn dense_roundtrip() {
        let a = small();
        let d = a.to_dense();
        assert_eq!(d[2][2], 5.0);
        let b = CscMat::from_dense(&d);
        assert_eq!(a, b);
    }

    #[test]
    fn symmetrize_makes_symmetric_pattern() {
        let a = small();
        let s = a.symmetrize();
        assert!(s.is_pattern_symmetric());
        // a(0,2)=2, a(2,0)=4 -> s(0,2)=s(2,0)... values are sums: 2+4=6.
        assert_eq!(s.get(0, 2), 6.0);
        assert_eq!(s.get(2, 0), 6.0);
        assert_eq!(s.get(0, 0), 2.0);
    }

    #[test]
    fn add_patterns_merges() {
        let a = small();
        let b = CscMat::identity(3);
        let c = add_patterns(&a, &b);
        assert_eq!(c.get(0, 0), 2.0);
        assert_eq!(c.get(1, 1), 4.0);
        assert_eq!(c.get(2, 2), 6.0);
        assert_eq!(c.get(2, 0), 4.0);
        assert_eq!(c.nnz(), 5); // diag of b overlaps a at (0,0),(1,1),(2,2): union = 5
    }

    #[test]
    fn pattern_symmetry_detection() {
        assert!(CscMat::identity(3).is_pattern_symmetric());
        // small() happens to be pattern symmetric: (0,2)/(2,0) both present.
        assert!(small().is_pattern_symmetric());
        // A strictly triangular pattern is not.
        let tri = CscMat::from_dense(&[vec![1.0, 2.0], vec![0.0, 3.0]]);
        assert!(!tri.is_pattern_symmetric());
        assert!(!CscMat::zero(2, 3).is_pattern_symmetric());
    }
}
