//! Hierarchical triangular solves over Basker's factor layout.
//!
//! Within an ND block the solve mirrors the 2-D structure: a forward sweep
//! descends the separator tree block column by block column (applying each
//! node's pivot permutation, solving with its unit-lower factor, then
//! pushing contributions into ancestor row blocks), and a backward sweep
//! ascends it. Across BTF blocks the usual block back-substitution runs in
//! reverse block order using the retained off-diagonal entries.
//!
//! Every sweep is written once, generic over `const K: usize`, on a
//! **row-major panel** `&mut [[f64; K]]`: row `i` holds entry `i` of `K`
//! right-hand sides, so each index loaded from a factor column updates
//! `K` solutions with one `K`-lane multiply-add
//! ([`basker_kernels::Kernels::scatter_axpy_rows`]) and pivot
//! permutations move whole rows. A single solve is the `K = 1` instance
//! (which bottoms out in the kernel rung's `scatter_axpy`, run
//! detection included); `BaskerNumeric::solve_multi_in_place` cuts its
//! columns into panels of `basker_sparse::workspace::PANEL_WIDTHS`.
//! The sweep is serial — its result does not depend on the team width
//! — and works entirely in the caller's `z`/`scratch` buffers:
//!
//! basker-lint: deny-alloc

use crate::parnum::NdFactors;
use crate::structure::NdStructure;
use basker_sparse::trisolve::{lower_solve_in_place, push_columns, upper_solve_in_place};

/// Solves the ND block system in place for a row-major panel of `K`
/// right-hand sides: on entry `z` holds the right-hand sides of this
/// block in permuted (pre-pivot) local coordinates; on exit it holds the
/// solutions in the block's column coordinates. `scratch` must be at
/// least `z.len()` rows long (it carries per-node pivot permutations,
/// keeping the sweep allocation-free).
pub fn solve_nd_in_place<const K: usize>(
    st: &NdStructure,
    f: &NdFactors,
    z: &mut [[f64; K]],
    scratch: &mut [[f64; K]],
) {
    let nn = st.nnodes();
    debug_assert_eq!(z.len(), st.nd.perm.len());
    debug_assert!(scratch.len() >= z.len());

    // ---- forward sweep: L·y = P·b, ascending block columns ----
    for v in 0..nn {
        let r = st.nd.nodes[v].range.clone();
        if r.is_empty() {
            continue;
        }
        let blu = &f.fact_diag[v];
        // apply this node's pivot permutation
        let y = &mut scratch[..r.len()];
        blu.row_perm.apply_vec_into(&z[r.clone()], y);
        z[r.clone()].copy_from_slice(y);
        lower_solve_in_place(&blu.l, &mut z[r.clone()]);
        // push contributions into ancestor row blocks (their original
        // local coordinates — ancestors have not been pivoted yet)
        for (ai, &a) in st.ancestors[v].iter().enumerate() {
            let below = &blu.below[ai];
            push_columns(
                below,
                0..below.ncols(),
                z,
                r.start,
                st.nd.nodes[a].range.start,
            );
        }
    }

    // ---- backward sweep: U·x = y, descending block columns ----
    for j in (0..nn).rev() {
        let r = st.nd.nodes[j].range.clone();
        if r.is_empty() {
            continue;
        }
        upper_solve_in_place(&f.fact_diag[j].u, &mut z[r.clone()]);
        // subtract U_{k,j}·x_j from descendant row blocks (pivotal coords)
        let start = st.subtree_start[j];
        for k in st.descendants(j) {
            let panel = &f.fact_upper[j][k - start];
            if panel.nnz() != 0 {
                push_columns(
                    panel,
                    0..panel.ncols(),
                    z,
                    r.start,
                    st.nd.nodes[k].range.start,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testmat::{grid2d_unsym, opts};
    use crate::{Basker, BaskerOptions};
    use basker_sparse::spmv::spmv;
    use basker_sparse::util::relative_residual;
    use basker_sparse::Perm;

    #[test]
    fn nd_solve_matches_direct_solution() {
        for (k, p) in [(5usize, 2usize), (7, 4), (8, 4)] {
            let a = grid2d_unsym(k);
            let o = BaskerOptions {
                use_btf: false,
                ..opts(p, 0)
            };
            let sym = Basker::analyze(&a, &o).unwrap();
            let s = sym.structure();
            let st = s.nd_block(0).unwrap();
            let ap = Perm::permute_both(&s.row_perm, &s.col_perm, &a);
            let num = sym.factor(&a).unwrap();
            // Solve ap · x = b
            let xtrue: Vec<f64> = (0..a.ncols())
                .map(|i| 1.0 + (i % 7) as f64 * 0.25)
                .collect();
            let b = spmv(&ap, &xtrue);
            let mut z = b.clone();
            let mut scratch = vec![[0.0]; z.len()];
            let z1 = basker_kernels::rows_mut::<1>(&mut z);
            solve_nd_in_place(st, &num.nd[0], z1, &mut scratch);
            assert!(
                relative_residual(&ap, &z, &b) < 1e-12,
                "k={k} p={p} residual too large"
            );
        }
    }
}
