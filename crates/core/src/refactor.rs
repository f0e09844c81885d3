//! Serial refactorization of an ND block: same patterns and pivot
//! sequences, fresh values.
//!
//! Circuit transient analysis factors thousands of matrices with one
//! pattern (paper §V-F); when value drift is mild enough that the old
//! pivot sequence stays stable, this path refreshes every factor block
//! without a single graph search. On a zero pivot the caller falls back
//! to a fresh [`factor`](crate::Basker::factor) (with pivoting).
//!
//! The sweep is serial over tree nodes in ascending (postorder) block
//! order, which respects every dependency; a parallel refactor is listed
//! as future work, matching the paper's focus on the factorization path.

use crate::parnum::NdFactors;
use crate::reduce::reduce_block;
use crate::structure::{NdBlocks, NdStructure};
use basker_klu::gp::{lsolve_panel_refresh, refactor_block_column};
use basker_sparse::{CscMat, Result};

/// Position of ancestor `s` within `ancestors[k]`.
#[inline]
fn anc_pos(st: &NdStructure, k: usize, s: usize) -> usize {
    st.nd.tree_level(s) - st.nd.tree_level(k) - 1
}

/// Refreshes all factors of one ND block in place from new `A` blocks.
pub fn refactor_nd_serial(
    blocks: &NdBlocks,
    st: &NdStructure,
    f: &mut NdFactors,
    col_offset: usize,
) -> Result<()> {
    let nn = st.nnodes();
    for v in 0..nn {
        let node = &st.nd.nodes[v];
        let off = col_offset + node.range.start;
        if node.is_leaf() {
            let below: Vec<&CscMat> = blocks.lower[v].iter().collect();
            refactor_block_column(&mut f.fact_diag[v], &blocks.diag[v], &below, off)?;
            continue;
        }
        let start = st.subtree_start[v];

        // --- refresh the U panels of block column v, ascending k ---
        for k in st.descendants(v) {
            let a_kv = &blocks.upper[v][k - start];
            if st.nd.nodes[k].is_leaf() {
                // disjoint fields of `f`: factors read, panel written
                let (fd, fu) = (&f.fact_diag, &mut f.fact_upper);
                lsolve_panel_refresh(&fd[k], a_kv, &mut fu[v][k - start]);
            } else {
                // inner separator: reduce then solve
                let reduced = {
                    let mut terms: Vec<(&CscMat, &CscMat)> = Vec::new();
                    for kk in st.descendants(k) {
                        let l_skk = &f.fact_diag[kk].below[anc_pos(st, kk, k)];
                        let u_kkv = &f.fact_upper[v][kk - start];
                        if l_skk.nnz() > 0 && u_kkv.nnz() > 0 {
                            terms.push((l_skk, u_kkv));
                        }
                    }
                    reduce_block(a_kv, &terms)
                };
                let (fd, fu) = (&f.fact_diag, &mut f.fact_upper);
                lsolve_panel_refresh(&fd[k], &reduced, &mut fu[v][k - start]);
            }
        }

        // --- reductions for the diagonal and ancestor targets ---
        let reduce_target = |tgt: usize, a_tgt: &CscMat, f: &NdFactors| -> CscMat {
            let mut terms: Vec<(&CscMat, &CscMat)> = Vec::new();
            for k in st.descendants(v) {
                let l_tk = &f.fact_diag[k].below[anc_pos(st, k, tgt)];
                let u_kv = &f.fact_upper[v][k - start];
                if l_tk.nnz() > 0 && u_kv.nnz() > 0 {
                    terms.push((l_tk, u_kv));
                }
            }
            reduce_block(a_tgt, &terms)
        };
        let ajj = reduce_target(v, &blocks.diag[v], f);
        let abelow: Vec<CscMat> = st.ancestors[v]
            .iter()
            .enumerate()
            .map(|(ai, &a)| reduce_target(a, &blocks.lower[v][ai], f))
            .collect();
        let below_refs: Vec<&CscMat> = abelow.iter().collect();
        refactor_block_column(&mut f.fact_diag[v], &ajj, &below_refs, off)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parnum::factor_nd_parallel;
    use crate::structure::{BlockKind, Structure};
    use crate::sync::SyncMode;
    use crate::testmat::grid2d_unsym;
    use basker_sparse::spmv::spmv;
    use basker_sparse::util::relative_residual;
    use basker_sparse::Perm;

    #[test]
    fn nd_refactor_matches_fresh_factor() {
        let a = grid2d_unsym(7);
        let s = Structure::build(&a, false, false, 0, 4).unwrap();
        let BlockKind::NdBig(st) = &s.kinds[0] else {
            panic!();
        };
        let ap = Perm::permute_both(&s.row_perm, &s.col_perm, &a);
        let blocks = crate::structure::NdBlocks::extract(&ap, 0, st);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let mut f =
            factor_nd_parallel(&blocks, st, 0.001, SyncMode::PointToPoint, 0, &pool).unwrap();

        // New values, same pattern.
        // SAFETY: pattern arrays are copied from the valid matrix `a`;
        // values map 1:1.
        let a2 = unsafe {
            CscMat::from_parts_unchecked(
                a.nrows(),
                a.ncols(),
                a.colptr().to_vec(),
                a.rowind().to_vec(),
                a.values().iter().map(|v| v * 1.1 - 0.05).collect(),
            )
        };
        let ap2 = Perm::permute_both(&s.row_perm, &s.col_perm, &a2);
        let blocks2 = crate::structure::NdBlocks::extract(&ap2, 0, st);
        refactor_nd_serial(&blocks2, st, &mut f, 0).unwrap();

        // Compare against a fresh factorization's solve.
        let xtrue: Vec<f64> = (0..a.ncols()).map(|i| 1.0 + (i % 4) as f64).collect();
        let b = spmv(&ap2, &xtrue);
        let mut z = b.clone();
        let mut scratch = vec![0.0; z.len()];
        crate::solve::solve_nd_in_place(st, &f, &mut z, &mut scratch);
        assert!(relative_residual(&ap2, &z, &b) < 1e-11);
    }
}
