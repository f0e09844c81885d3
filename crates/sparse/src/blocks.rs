//! Submatrix/block extraction.
//!
//! After the BTF and ND permutations, Basker's hierarchy is defined by
//! *contiguous* row/column ranges of the permuted matrix, so the hot path is
//! range extraction ([`extract_range`]). A general index-set extraction is
//! provided for tests and irregular uses.

use crate::csc::CscMat;
use std::ops::Range;

/// Extracts the dense-index block `A[rows, cols]` for contiguous ranges.
///
/// Row indices in the result are local (offset by `rows.start`). Cost is
/// O(sum of touched column lengths) using binary search to find the row
/// window of each column.
pub fn extract_range(a: &CscMat, rows: Range<usize>, cols: Range<usize>) -> CscMat {
    assert!(rows.end <= a.nrows() && cols.end <= a.ncols());
    let nr = rows.end - rows.start;
    let nc = cols.end - cols.start;
    let mut colptr = Vec::with_capacity(nc + 1);
    let mut rowind = Vec::new();
    let mut values = Vec::new();
    colptr.push(0);
    for j in cols {
        let col = a.col_rows(j);
        let vals = a.col_values(j);
        let lo = col.partition_point(|&r| r < rows.start);
        let hi = col.partition_point(|&r| r < rows.end);
        for k in lo..hi {
            rowind.push(col[k] - rows.start);
            values.push(vals[k]);
        }
        colptr.push(rowind.len());
    }
    // SAFETY: the source columns are sorted, so the `lo..hi` slice keeps
    // ascending rows, and the `- rows.start` shift keeps them `< nr`.
    unsafe { CscMat::from_parts_unchecked(nr, nc, colptr, rowind, values) }
}

/// Extracts the strictly-upper-block part of a BTF-permuted matrix: the
/// entries whose row lies in an earlier diagonal block than their column
/// (`block_of[i]` is the block of permuted index `i`) — the couplings
/// that feed the block back-substitution. Same shape as `ap`.
pub fn upper_block_part(ap: &CscMat, block_of: &[usize]) -> CscMat {
    let n = ap.ncols();
    let mut colptr = Vec::with_capacity(n + 1);
    let mut rowind = Vec::new();
    let mut values = Vec::new();
    colptr.push(0);
    for j in 0..n {
        for (i, v) in ap.col_iter(j) {
            if block_of[i] < block_of[j] {
                rowind.push(i);
                values.push(v);
            }
        }
        colptr.push(rowind.len());
    }
    // SAFETY: `col_iter` yields strictly ascending in-bounds rows; the
    // filter keeps that order and `colptr` tracks `rowind.len()` per
    // column.
    unsafe { CscMat::from_parts_unchecked(n, n, colptr, rowind, values) }
}

/// Extracts `A[rows, cols]` for arbitrary index sets (must be duplicate
/// free); result entry `(i, j)` is `A[rows[i], cols[j]]`.
pub fn extract_general(a: &CscMat, rows: &[usize], cols: &[usize]) -> CscMat {
    // Map global row -> local row (usize::MAX = not selected).
    let mut rowmap = vec![usize::MAX; a.nrows()];
    for (local, &g) in rows.iter().enumerate() {
        assert!(g < a.nrows());
        assert!(rowmap[g] == usize::MAX, "duplicate row index {g}");
        rowmap[g] = local;
    }
    let mut colptr = Vec::with_capacity(cols.len() + 1);
    let mut rowind = Vec::new();
    let mut values = Vec::new();
    colptr.push(0);
    let mut scratch: Vec<(usize, f64)> = Vec::new();
    for &j in cols {
        assert!(j < a.ncols());
        scratch.clear();
        for (i, v) in a.col_iter(j) {
            let local = rowmap[i];
            if local != usize::MAX {
                scratch.push((local, v));
            }
        }
        scratch.sort_unstable_by_key(|&(r, _)| r);
        for &(r, v) in &scratch {
            rowind.push(r);
            values.push(v);
        }
        colptr.push(rowind.len());
    }
    // SAFETY: each output column was sorted via `scratch`, local rows are
    // `< rows.len()` by the `rowmap` construction, and `colptr` tracks
    // `rowind.len()`.
    unsafe { CscMat::from_parts_unchecked(rows.len(), cols.len(), colptr, rowind, values) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMat {
        CscMat::from_dense(&[
            vec![1.0, 0.0, 2.0, 0.0],
            vec![0.0, 3.0, 0.0, 4.0],
            vec![5.0, 0.0, 6.0, 0.0],
            vec![0.0, 7.0, 0.0, 8.0],
        ])
    }

    #[test]
    fn range_extraction() {
        let a = sample();
        let b = extract_range(&a, 1..3, 1..4);
        assert_eq!(b.nrows(), 2);
        assert_eq!(b.ncols(), 3);
        assert_eq!(b.get(0, 0), 3.0); // A[1,1]
        assert_eq!(b.get(0, 2), 4.0); // A[1,3]
        assert_eq!(b.get(1, 1), 6.0); // A[2,2]
    }

    #[test]
    fn empty_range_gives_empty_block() {
        let a = sample();
        let b = extract_range(&a, 2..2, 0..4);
        assert_eq!(b.nrows(), 0);
        assert_eq!(b.nnz(), 0);
    }

    #[test]
    fn upper_block_part_keeps_only_earlier_block_rows() {
        // Blocks {0}, {1, 2}, {3}; upper block triangular.
        let ap = CscMat::from_dense(&[
            vec![1.0, 2.0, 0.0, 3.0],
            vec![0.0, 4.0, 5.0, 6.0],
            vec![0.0, 7.0, 8.0, 9.0],
            vec![0.0, 0.0, 0.0, 1.5],
        ]);
        let u = upper_block_part(&ap, &[0, 1, 1, 2]);
        assert_eq!((u.nrows(), u.ncols()), (4, 4));
        // Column 0 has nothing above its block and column 2 only
        // entries inside its own: both come out empty.
        assert_eq!(u.colptr(), &[0, 0, 1, 1, 4]);
        // Rows stay ascending; the diagonal blocks' entries are gone.
        assert_eq!(u.rowind(), &[0, 0, 1, 2]);
        assert_eq!(u.values(), &[2.0, 3.0, 6.0, 9.0]);
    }

    #[test]
    fn general_extraction_reorders() {
        let a = sample();
        let b = extract_general(&a, &[3, 0], &[1, 0]);
        // b[0,0] = A[3,1] = 7, b[1,1] = A[0,0] = 1
        assert_eq!(b.get(0, 0), 7.0);
        assert_eq!(b.get(1, 1), 1.0);
        assert_eq!(b.nnz(), 2);
    }
}
