//! Single sparse columns: [`SparseCol`] is what a one-column sparse
//! triangular solve returns, and [`cols_to_csc`] assembles a sequence of
//! them into the [`CscMat`] the factor storage uses (a `U` panel of
//! Basker's ND factorization, solved column by column).

use crate::CscMat;

/// One sparse column: row indices sorted ascending and unique, with one
/// value per index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseCol {
    /// Sorted, unique row indices.
    pub rows: Vec<usize>,
    /// Values matching `rows`.
    pub vals: Vec<f64>,
}

impl SparseCol {
    /// Builds a column, debug-asserting the sorted/unique invariant.
    pub fn new(rows: Vec<usize>, vals: Vec<f64>) -> SparseCol {
        debug_assert_eq!(rows.len(), vals.len());
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows not sorted");
        SparseCol { rows, vals }
    }

    /// Stored entries.
    pub fn nnz(&self) -> usize {
        self.rows.len()
    }

    /// Iterates `(row, value)` pairs in row order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.rows.iter().copied().zip(self.vals.iter().copied())
    }
}

/// Assembles a dense sequence of columns into an `nrows x cols.len()`
/// CSC matrix (the inverse of reading a [`CscMat`] column by column).
pub fn cols_to_csc(nrows: usize, cols: Vec<SparseCol>) -> CscMat {
    let ncols = cols.len();
    let nnz: usize = cols.iter().map(|c| c.nnz()).sum();
    let mut colptr = Vec::with_capacity(ncols + 1);
    let mut rowind = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    colptr.push(0);
    for col in cols {
        debug_assert!(col.rows.iter().all(|&r| r < nrows));
        rowind.extend_from_slice(&col.rows);
        values.extend_from_slice(&col.vals);
        colptr.push(rowind.len());
    }
    // SAFETY: every `SparseCol` holds sorted, unique rows (its documented
    // contract, debug-asserted in-bounds above) and `colptr` tracks
    // `rowind.len()`.
    unsafe { CscMat::from_parts_unchecked(nrows, ncols, colptr, rowind, values) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_through_columns() {
        let a = CscMat::from_dense(&[
            vec![1.0, 0.0, 2.0],
            vec![0.0, 3.0, 0.0],
            vec![4.0, 0.0, 5.0],
        ]);
        let cols: Vec<SparseCol> = (0..a.ncols())
            .map(|j| SparseCol::new(a.col_rows(j).to_vec(), a.col_values(j).to_vec()))
            .collect();
        assert_eq!(cols[0].nnz(), 2);
        assert_eq!(cols[0].iter().collect::<Vec<_>>(), vec![(0, 1.0), (2, 4.0)]);
        let b = cols_to_csc(a.nrows(), cols);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_columns_allowed() {
        let m = cols_to_csc(4, vec![SparseCol::default(), SparseCol::default()]);
        assert_eq!(m.nrows(), 4);
        assert_eq!(m.ncols(), 2);
        assert_eq!(m.nnz(), 0);
    }
}
