//! The pattern hash the serving tier routes on.
//!
//! The serving tier shards same-pattern streams onto one process
//! ([`pattern_hash`]) from the sparsity pattern alone, never the values,
//! so the hash is stable across a transient sequence (same pattern,
//! drifting values). It lives here so that `serve` and its clients agree
//! on it.

use crate::CscMat;

/// FNV-1a over the sparsity pattern (dimensions + colptr + rowind),
/// ignoring values: two matrices of the same pattern hash identically.
///
/// This is the property the serving tier routes on: it co-locates
/// same-pattern streams on one shard (shared symbolic analysis and
/// workspace pools).
pub fn pattern_hash(m: &CscMat) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    eat(m.nrows() as u64);
    eat(m.ncols() as u64);
    for &p in m.colptr() {
        eat(p as u64);
    }
    for &i in m.rowind() {
        eat(i as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMat;

    fn dense(n: usize) -> CscMat {
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            for j in 0..n {
                t.push(i, j, 1.0 + (i * n + j) as f64);
            }
        }
        t.to_csc()
    }

    fn tridiag(n: usize) -> CscMat {
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        t.to_csc()
    }

    #[test]
    fn hash_ignores_values_and_sees_patterns() {
        let a = tridiag(12);
        // Same pattern, different values.
        // SAFETY: pattern arrays are copied from the valid matrix `a`;
        // the value vector matches its nnz.
        let b = unsafe {
            CscMat::from_parts_unchecked(
                a.nrows(),
                a.ncols(),
                a.colptr().to_vec(),
                a.rowind().to_vec(),
                a.values().iter().map(|v| v * 3.5).collect(),
            )
        };
        assert_eq!(pattern_hash(&a), pattern_hash(&b));
        assert_ne!(pattern_hash(&a), pattern_hash(&tridiag(13)));
        assert_ne!(pattern_hash(&a), pattern_hash(&dense(12)));
    }

    /// Degenerate shapes hash without trouble and apart.
    #[test]
    fn empty_and_single_are_safe() {
        let empty = pattern_hash(&CscMat::from_dense(&[]));
        let one = pattern_hash(&CscMat::from_dense(&[vec![3.0]]));
        assert_ne!(empty, one);
        assert_eq!(one, pattern_hash(&CscMat::from_dense(&[vec![-1.0]])));
    }
}
