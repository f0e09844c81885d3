//! Pattern-level structure metrics and the pattern hash shared by the
//! routing layers.
//!
//! Two layers of the stack make decisions from the sparsity pattern
//! alone, never the values: the serving tier shards same-pattern
//! streams onto one process ([`pattern_hash`]), and the hybrid engine
//! routes each BTF diagonal block to a factorization strategy by its
//! local structure ([`BlockMetrics`]). Both live here so `api`, `core`
//! and `serve` agree on the measurements — and because values never
//! participate, every metric is stable across a transient sequence
//! (same pattern, drifting values).

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

/// Structure metrics of one square (diagonal-block) matrix, computed
/// from the pattern alone.
///
/// These are the classifier inputs of the per-block hybrid router: a
/// tiny or ultra-sparse block wants fill-less Gilbert–Peierls, a dense
/// or supernode-rich block wants the supernodal engine's dense panels,
/// and a large block with a good separator wants the pipelined-ND
/// treatment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockMetrics {
    /// Matrix dimension (`nrows == ncols`).
    pub size: usize,
    /// Stored entries.
    pub nnz: usize,
    /// `nnz / size²` ∈ [0, 1]; 0 for an empty matrix.
    pub density: f64,
    /// Mean entries per column.
    pub avg_col_nnz: f64,
    /// Fraction of adjacent column pairs whose row patterns overlap by
    /// more than half (|common rows| / max(nnz_j, nnz_{j+1}) > ½) — a
    /// cheap proxy for how much of the block would merge into
    /// supernodes. Strictly more than half, so chain-like patterns
    /// (adjacent columns sharing a single row out of two) don't read as
    /// supernodal. 0 for matrices with fewer than two columns.
    pub supernodal_fraction: f64,
}

impl BlockMetrics {
    /// Computes the metrics of `m` in one pass over the pattern
    /// (`O(nnz)`: adjacent-column overlap is a sorted merge walk).
    pub fn compute(m: &CscMat) -> BlockMetrics {
        let n = m.ncols();
        let nnz = m.nnz();
        let density = if n == 0 {
            0.0
        } else {
            nnz as f64 / (n as f64 * n as f64)
        };
        let avg_col_nnz = if n == 0 { 0.0 } else { nnz as f64 / n as f64 };
        let mut similar_pairs = 0usize;
        for j in 0..n.saturating_sub(1) {
            let a = m.col_rows(j);
            let b = m.col_rows(j + 1);
            if a.is_empty() || b.is_empty() {
                continue;
            }
            // Row indices are sorted and unique per column (a CscMat
            // invariant), so the intersection is a linear merge.
            let mut common = 0usize;
            let (mut ia, mut ib) = (0usize, 0usize);
            while ia < a.len() && ib < b.len() {
                match a[ia].cmp(&b[ib]) {
                    std::cmp::Ordering::Less => ia += 1,
                    std::cmp::Ordering::Greater => ib += 1,
                    std::cmp::Ordering::Equal => {
                        common += 1;
                        ia += 1;
                        ib += 1;
                    }
                }
            }
            if 2 * common > a.len().max(b.len()) {
                similar_pairs += 1;
            }
        }
        let supernodal_fraction = if n >= 2 {
            similar_pairs as f64 / (n - 1) as f64
        } else {
            0.0
        };
        BlockMetrics {
            size: n,
            nnz,
            density,
            avg_col_nnz,
            supernodal_fraction,
        }
    }
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

    #[test]
    fn dense_block_metrics() {
        let m = BlockMetrics::compute(&dense(8));
        assert_eq!(m.size, 8);
        assert_eq!(m.nnz, 64);
        assert!((m.density - 1.0).abs() < 1e-12);
        assert!((m.avg_col_nnz - 8.0).abs() < 1e-12);
        // Every adjacent column pair is identical.
        assert!((m.supernodal_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chain_block_is_not_supernodal() {
        // A bidiagonal chain: adjacent columns share only one row.
        let n = 20;
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
            }
        }
        let m = BlockMetrics::compute(&t.to_csc());
        assert!(m.density < 0.2, "density {}", m.density);
        assert!(
            m.supernodal_fraction < 0.2,
            "supernodal fraction {}",
            m.supernodal_fraction
        );
    }

    #[test]
    fn empty_and_single_are_safe() {
        let e = BlockMetrics::compute(&CscMat::from_dense(&[]));
        assert_eq!((e.size, e.nnz), (0, 0));
        assert_eq!(e.density, 0.0);
        let one = BlockMetrics::compute(&CscMat::from_dense(&[vec![3.0]]));
        assert_eq!(one.size, 1);
        assert_eq!(one.supernodal_fraction, 0.0);
    }
}
