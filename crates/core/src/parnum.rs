//! The factors of one ND-structured block (paper Alg. 4's output): per
//! tree node its stacked block column `[LU_vv; L_{a,v}…]`, and per
//! separator the panels `U_{k,v}` above its diagonal block. The fresh
//! factorization ([`crate::stages`]) writes them, a refactorization
//! rewrites their values in place, and the hierarchical solve
//! ([`crate::solve`]) reads them.

use crate::refactor::ItemCell;
use basker_klu::gp::BlockLu;
use basker_sparse::CscMat;

/// Factors of one ND block. Each block column and each panel sits in
/// an [`ItemCell`] — it reads like the plain value, and the refactor
/// replay's stage items each rewrite their own in parallel.
#[derive(Debug)]
pub struct NdFactors {
    /// Per node `v`: `LU_vv` plus the below parts `L_{a,v}` (ancestors
    /// ascending) inside [`BlockLu::below`].
    pub fact_diag: Vec<ItemCell<BlockLu>>,
    /// Per node `v`, per descendant `k` (ascending over `descendants(v)`):
    /// the panel `U_{k,v}` in `k`'s pivotal row coordinates.
    pub fact_upper: Vec<Vec<ItemCell<CscMat>>>,
    /// Flops of the panel solves and reductions, as the fresh
    /// factorization counted them; a refactorization, over the same
    /// patterns, does the same.
    pub update_flops: f64,
}

impl NdFactors {
    /// `|L+U|` over the whole ND block (diagonal factors, below parts and
    /// `U` panels).
    pub fn lu_nnz(&self) -> usize {
        let d: usize = self.fact_diag.iter().map(|b| b.lu_nnz()).sum();
        let u: usize = self
            .fact_upper
            .iter()
            .flat_map(|v| v.iter().map(|m| m.nnz()))
            .sum();
        d + u
    }

    /// Numeric flops of the kernels that last (re)factored the block:
    /// the block columns' eliminations, the panels and the reductions.
    pub fn flops(&self) -> f64 {
        self.fact_diag.iter().map(|b| b.flops).sum::<f64>() + self.update_flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::NdStructure;
    use crate::testmat::{grid2d_unsym, opts};
    use crate::{Basker, BaskerOptions};
    use basker_sparse::{Perm, SparseError, TripletMat};

    /// Reconstructs the permuted block from its factors and compares to
    /// the original (dense, for small tests): verifies P_blocked A = L U
    /// at the whole-ND-block level.
    fn verify_nd_factorization(ap_block: &CscMat, st: &NdStructure, f: &NdFactors, tol: f64) {
        let n = ap_block.nrows();
        // Build global-within-block L and U in "pivotal" coordinates:
        // global row of (node v, pivotal local r) = range(v).start + r.
        let mut l = vec![vec![0.0; n]; n];
        let mut u = vec![vec![0.0; n]; n];
        for v in 0..st.nnodes() {
            let r0 = st.nd.nodes[v].range.start;
            let blu = &f.fact_diag[v];
            for (i, jj, val) in blu.l.iter() {
                l[r0 + i][r0 + jj] = val;
            }
            for (i, jj, val) in blu.u.iter() {
                u[r0 + i][r0 + jj] = val;
            }
            // below parts: rows in ancestor original local coords — must be
            // mapped through the ancestor's pinv... but ancestors are
            // factored after v, and L_{a,v} is stored in a's ORIGINAL
            // coords. The global factorization applies a's pivot to block
            // row a, i.e. global L row = range(a).start + pinv_a[orig r].
            for (ai, &a) in st.ancestors[v].iter().enumerate() {
                let a0 = st.nd.nodes[a].range.start;
                let pinv_a = &f.fact_diag[a].pinv;
                for (i, jj, val) in blu.below[ai].iter() {
                    l[a0 + pinv_a[i]][r0 + jj] = val;
                }
            }
            // U panels of column block v
            for (ki, k) in st.descendants(v).enumerate() {
                let k0 = st.nd.nodes[k].range.start;
                for (i, jj, val) in f.fact_upper[v][ki].iter() {
                    u[k0 + i][r0 + jj] = val;
                }
            }
        }
        // P A: row (node v, orig local r) -> global row range(v).start +
        // pinv_v[r].
        let mut block_of = vec![0usize; n];
        for v in 0..st.nnodes() {
            for kk in st.nd.nodes[v].range.clone() {
                block_of[kk] = v;
            }
        }
        let ad = ap_block.to_dense();
        let mut pad = vec![vec![0.0; n]; n];
        for i in 0..n {
            let v = block_of[i];
            let r0 = st.nd.nodes[v].range.start;
            let pi = r0 + f.fact_diag[v].pinv[i - r0];
            pad[pi] = ad[i].clone();
        }
        for i in 0..n {
            for jj in 0..n {
                let mut acc = 0.0;
                for kk in 0..n {
                    acc += l[i][kk] * u[kk][jj];
                }
                assert!(
                    (acc - pad[i][jj]).abs() < tol,
                    "LU mismatch at ({i},{jj}): {acc} vs {}",
                    pad[i][jj]
                );
            }
        }
    }

    /// Factors `a`, one ND block with `p` leaves, through
    /// `Basker::factor` and checks `P·A = L·U` densely.
    fn run_case(a: &CscMat, p: usize) {
        let sym = Basker::analyze(a, &nd_only(p)).unwrap();
        let s = sym.structure();
        let st = s
            .nd_block(0)
            .expect("expected one ND block (nd_threshold = 0)");
        let ap = Perm::permute_both(&s.row_perm, &s.col_perm, a);
        let num = sym.factor(a).unwrap();
        verify_nd_factorization(&ap, st, &num.nd[0], 1e-9);
    }

    /// The whole matrix as one ND block with `p` leaves.
    fn nd_only(p: usize) -> BaskerOptions {
        BaskerOptions {
            use_btf: false,
            ..opts(p, 0)
        }
    }

    #[test]
    fn single_thread_degenerate_tree() {
        // p = 1: levels = 0, one leaf node, no separators.
        run_case(&grid2d_unsym(5), 1);
    }

    #[test]
    fn two_threads() {
        run_case(&grid2d_unsym(6), 2);
    }

    #[test]
    fn four_threads() {
        run_case(&grid2d_unsym(7), 4);
    }

    #[test]
    fn eight_threads_oversubscribed() {
        run_case(&grid2d_unsym(8), 8);
    }

    #[test]
    fn zero_pivot_is_reported() {
        // Rows 0 and 1 identical: the 2x2 block [1 1; 1 1] is singular.
        let k = 4;
        let n = k * k;
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, 1.0);
        }
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        let a = t.to_csc();
        let r = Basker::analyze(&a, &nd_only(2)).unwrap().factor(&a);
        assert!(matches!(r, Err(SparseError::ZeroPivot { .. })));
    }

    /// Zero pivots in two leaves: the first leaf's last column and the
    /// last leaf's first column. The last leaf fails sooner, yet every
    /// run reports the first leaf's smaller column.
    #[test]
    fn two_failing_leaves_report_the_smaller_column() {
        let a = grid2d_unsym(40);
        for p in [2usize, 4] {
            let sym = Basker::analyze(&a, &nd_only(p)).unwrap();
            let s = sym.structure();
            let st = s.nd_block(0).unwrap();
            let leaves = st.leaf_of_thread.iter().map(|&v| &st.nd.nodes[v].range);
            let first = leaves.clone().min_by_key(|r| r.start).unwrap();
            let last = leaves.max_by_key(|r| r.start).unwrap();
            // Numerically zero those permuted columns inside their leaf's
            // diagonal block; the pattern stays.
            let mut row_at = vec![0; a.nrows()];
            for (k, &r) in s.row_perm.as_slice().iter().enumerate() {
                row_at[r] = k;
            }
            let mut bad = a.clone();
            for (c, rows) in [(first.end - 1, first), (last.start, last)] {
                let col = s.col_perm.as_slice()[c];
                for k in a.colptr()[col]..a.colptr()[col + 1] {
                    if rows.contains(&row_at[a.rowind()[k]]) {
                        bad.values_mut()[k] = 0.0;
                    }
                }
            }
            for rep in 0..50 {
                let r = sym.factor(&bad);
                assert!(
                    matches!(r, Err(SparseError::ZeroPivot { column }) if column == first.end - 1),
                    "p={p} rep={rep}: {:?}",
                    r.err()
                );
            }
        }
    }
}
