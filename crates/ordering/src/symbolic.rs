//! Symbolic factorization utilities.
//!
//! * [`symbolic_cholesky`] predicts the pattern of the Cholesky factor `L`
//!   of a symmetric-pattern matrix — the static-fill analysis the
//!   supernodal comparator (PMKL stand-in) builds its supernodes on.
//! * [`fundamental_supernodes`] groups columns with nested patterns.
//! * [`symbolic_gp`] is a pattern-only Gilbert–Peierls pass assuming
//!   diagonal pivoting; Basker's leaves use it for exact nonzero counts
//!   (paper Alg. 3, line 5).

use crate::etree::{etree, NONE};
use basker_sparse::CscMat;

/// Pattern of a lower-triangular factor (diagonal included), CSC-like.
#[derive(Debug, Clone)]
pub struct FactorPattern {
    /// Column pointers, length `n + 1`.
    pub colptr: Vec<usize>,
    /// Row indices per column, each column sorted ascending, starting with
    /// the diagonal.
    pub rowind: Vec<usize>,
    /// Elimination-tree parent array.
    pub parent: Vec<usize>,
}

impl FactorPattern {
    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.colptr.len() - 1
    }

    /// Total stored entries.
    pub fn nnz(&self) -> usize {
        self.rowind.len()
    }

    /// Rows of column `j` (sorted, diagonal first).
    pub fn col(&self, j: usize) -> &[usize] {
        &self.rowind[self.colptr[j]..self.colptr[j + 1]]
    }
}

/// Symbolic Cholesky on the pattern of `A` (must have symmetric pattern
/// with a zero-free diagonal; pass `A.symmetrize()` otherwise).
///
/// Left-looking column-merge: `pattern(L(:,j)) = pattern(A(j:n, j)) ∪
/// ⋃ { pattern(L(:,c)) \ {c} : parent(c) == j }`.
pub fn symbolic_cholesky(a: &CscMat) -> FactorPattern {
    assert!(a.is_square());
    let n = a.ncols();
    let parent = etree(a);

    // children lists
    let mut head = vec![NONE; n];
    let mut next = vec![NONE; n];
    for v in (0..n).rev() {
        if parent[v] != NONE {
            next[v] = head[parent[v]];
            head[parent[v]] = v;
        }
    }

    let mut colptr = Vec::with_capacity(n + 1);
    let mut rowind: Vec<usize> = Vec::new();
    colptr.push(0);
    let mut mark = vec![usize::MAX; n];
    // Store each column's pattern as we go; children are merged into
    // parents. Patterns are kept in `rowind` (final storage) directly.
    let mut col_range: Vec<(usize, usize)> = vec![(0, 0); n];
    let mut scratch: Vec<usize> = Vec::new();

    for j in 0..n {
        scratch.clear();
        mark[j] = j;
        scratch.push(j);
        // Rows of A at or below the diagonal.
        for &i in a.col_rows(j) {
            if i > j && mark[i] != j {
                mark[i] = j;
                scratch.push(i);
            }
        }
        // Merge children patterns (minus their diagonal).
        let mut c = head[j];
        while c != NONE {
            let (lo, hi) = col_range[c];
            for k in lo..hi {
                let i = rowind[k];
                if i > j && mark[i] != j {
                    mark[i] = j;
                    scratch.push(i);
                }
            }
            c = next[c];
        }
        scratch.sort_unstable();
        let lo = rowind.len();
        rowind.extend_from_slice(&scratch);
        col_range[j] = (lo, rowind.len());
        colptr.push(rowind.len());
    }

    FactorPattern {
        colptr,
        rowind,
        parent,
    }
}

/// Finds fundamental supernode boundaries from a factor pattern: column
/// `j` extends the supernode of `j - 1` when `parent[j-1] == j` and
/// `pattern(L(:,j-1)) \ {j-1} == pattern(L(:,j))` (nested columns).
///
/// Returns boundaries `s` with `s[0] == 0`, `s.last() == n`; supernode `k`
/// spans columns `s[k]..s[k+1]`. `relax` allows up to that many rows of
/// mismatch, merging nearly nested columns (relaxed supernodes).
pub fn fundamental_supernodes(p: &FactorPattern, relax: usize) -> Vec<usize> {
    let n = p.ncols();
    let mut bounds = vec![0usize];
    for j in 1..n {
        let prev = p.col(j - 1);
        let cur = p.col(j);
        let chained = p.parent[j - 1] == j;
        // prev minus its diagonal should equal cur (within relax slack)
        let nested = chained && !prev.is_empty() && {
            let prev_tail = &prev[1..];
            if prev_tail.len() < cur.len() || prev_tail.len() > cur.len() + relax {
                false
            } else {
                // cur ⊆ prev_tail must hold for a (relaxed) supernode; for
                // fundamental supernodes the sets are equal.
                let mut xi = 0usize;
                let mut ok = true;
                for &r in cur {
                    while xi < prev_tail.len() && prev_tail[xi] < r {
                        xi += 1;
                    }
                    if xi >= prev_tail.len() || prev_tail[xi] != r {
                        ok = false;
                        break;
                    }
                    xi += 1;
                }
                ok && prev_tail.len() - cur.len() <= relax
            }
        };
        if !nested {
            bounds.push(j);
        }
    }
    // An empty pattern has no supernodes, not one empty one.
    if n > 0 {
        bounds.push(n);
    }
    bounds
}

/// Pattern-only Gilbert–Peierls factorization assuming no pivoting
/// (diagonal pivots). Returns per-column counts `(nnz_L_col, nnz_U_col)`
/// including the diagonal in `U` (KLU convention: unit-diagonal `L`, the
/// pivot lives in `U`), plus total flops estimate.
pub struct GpCounts {
    /// Per-column L counts (strictly below diagonal).
    pub l_counts: Vec<usize>,
    /// Per-column U counts (including diagonal).
    pub u_counts: Vec<usize>,
    /// Estimated floating-point operations (2·Σ over updates).
    pub flops: f64,
}

/// Symbolic GP on a square matrix with zero-free diagonal.
pub fn symbolic_gp(a: &CscMat) -> GpCounts {
    let n = a.ncols();
    // L patterns built column by column (strictly lower part).
    let mut lcolptr: Vec<usize> = vec![0];
    let mut lrows: Vec<usize> = Vec::new();
    let mut l_counts = vec![0usize; n];
    let mut u_counts = vec![0usize; n];
    let mut flops = 0.0f64;

    // DFS machinery
    let mut mark = vec![usize::MAX; n];
    let mut stack: Vec<(usize, usize)> = Vec::new();
    let mut reach: Vec<usize> = Vec::new(); // all visited
    for j in 0..n {
        reach.clear();
        // Start DFS from each structural entry of A(:, j).
        for &i in a.col_rows(j) {
            if mark[i] == j {
                continue;
            }
            stack.clear();
            stack.push((i, 0));
            mark[i] = j;
            while let Some(&(v, pos)) = stack.last() {
                if v >= j {
                    // At or below diagonal: no outgoing edges (not yet a
                    // pivot column).
                    reach.push(v);
                    stack.pop();
                    continue;
                }
                let lcol = &lrows[lcolptr[v]..lcolptr[v + 1]];
                if pos < lcol.len() {
                    stack.last_mut().unwrap().1 += 1;
                    let w = lcol[pos];
                    if mark[w] != j {
                        mark[w] = j;
                        stack.push((w, 0));
                    }
                } else {
                    reach.push(v);
                    stack.pop();
                }
            }
        }
        // Partition reach into U (indices < j), diag, L (> j).
        let mut lc = 0usize;
        let mut uc = 1usize; // diagonal always present (zero-free diag)
        let mut has_diag = false;
        for &v in &reach {
            if v < j {
                uc += 1;
                // each U entry triggers an update with column v of L
                flops += 2.0 * (lcolptr[v + 1] - lcolptr[v]) as f64;
            } else if v == j {
                has_diag = true;
            } else {
                lc += 1;
            }
        }
        let _ = has_diag;
        l_counts[j] = lc;
        u_counts[j] = uc;
        flops += lc as f64; // the division by the pivot

        // Record L pattern (sorted for future DFS determinism).
        let mut lcol: Vec<usize> = reach.iter().copied().filter(|&v| v > j).collect();
        lcol.sort_unstable();
        lrows.extend_from_slice(&lcol);
        lcolptr.push(lrows.len());
    }
    GpCounts {
        l_counts,
        u_counts,
        flops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tridiag(n: usize) -> CscMat {
        let mut d = vec![vec![0.0; n]; n];
        for i in 0..n {
            d[i][i] = 2.0;
            if i + 1 < n {
                d[i][i + 1] = -1.0;
                d[i + 1][i] = -1.0;
            }
        }
        CscMat::from_dense(&d)
    }

    #[test]
    fn tridiagonal_has_no_fill() {
        let p = symbolic_cholesky(&tridiag(6));
        assert_eq!(p.nnz(), 6 + 5); // diag + one subdiagonal per column
        for j in 0..5 {
            assert_eq!(p.col(j), &[j, j + 1]);
        }
        assert_eq!(p.col(5), &[5]);
    }

    #[test]
    fn fill_in_is_predicted() {
        // A 2D grid point pattern creates fill; the dense arrow check is
        // simpler: arrow with head at column 0 fills everything.
        let n = 5;
        let mut d = vec![vec![0.0; n]; n];
        for i in 0..n {
            d[i][i] = 4.0;
            d[0][i] = 1.0;
            d[i][0] = 1.0;
        }
        let p = symbolic_cholesky(&CscMat::from_dense(&d));
        // L is completely dense below the diagonal.
        assert_eq!(p.nnz(), n * (n + 1) / 2);
    }

    #[test]
    fn supernodes_detected_in_dense_block() {
        // Fully dense 4x4: all columns form one supernode.
        let d = vec![vec![1.0; 4]; 4];
        let p = symbolic_cholesky(&CscMat::from_dense(&d));
        let s = fundamental_supernodes(&p, 0);
        assert_eq!(s, vec![0, 4]);
    }

    #[test]
    fn empty_pattern_has_no_supernodes() {
        let p = symbolic_cholesky(&CscMat::zero(0, 0));
        assert_eq!(fundamental_supernodes(&p, 0), vec![0]);
    }

    #[test]
    fn supernodes_split_in_tridiagonal() {
        let p = symbolic_cholesky(&tridiag(5));
        let s = fundamental_supernodes(&p, 0);
        // Tridiagonal: column j has pattern {j, j+1}; tail {j+1} equals
        // col j+1's pattern {j+1, j+2}? No — {j+1} != {j+1, j+2}: prev_tail
        // shorter than cur -> split everywhere except the last pair.
        assert!(s.len() >= 4, "supernodes {s:?}");
        assert_eq!(*s.last().unwrap(), 5);
    }

    #[test]
    fn symbolic_gp_tridiagonal_counts() {
        let c = symbolic_gp(&tridiag(4));
        // No fill: L has one entry per column except last; U has diag +
        // one superdiagonal per column except first.
        assert_eq!(c.l_counts, vec![1, 1, 1, 0]);
        assert_eq!(c.u_counts, vec![1, 2, 2, 2]);
        assert!(c.flops > 0.0);
    }

    #[test]
    fn symbolic_gp_dense_fill() {
        // Arrow with head at 0: GP with diagonal pivots fills densely.
        let n = 4;
        let mut d = vec![vec![0.0; n]; n];
        for i in 0..n {
            d[i][i] = 4.0;
            d[0][i] = 1.0;
            d[i][0] = 1.0;
        }
        let c = symbolic_gp(&CscMat::from_dense(&d));
        // Column j>0 of L fills rows j+1..n.
        for j in 0..n {
            assert_eq!(c.l_counts[j], n - 1 - j);
        }
    }

    #[test]
    fn symbolic_gp_matches_cholesky_on_symmetric() {
        // For symmetric patterns with diagonal pivoting, L pattern of GP
        // equals symbolic Cholesky's L.
        let a = tridiag(7);
        let gp = symbolic_gp(&a);
        let ch = symbolic_cholesky(&a);
        for j in 0..7 {
            assert_eq!(gp.l_counts[j], ch.col(j).len() - 1, "col {j}");
        }
    }
}
