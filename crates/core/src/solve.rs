//! Hierarchical triangular solves over Basker's factor layout.
//!
//! Within an ND block the solve mirrors the 2-D structure: a forward sweep
//! descends the separator tree block column by block column (applying each
//! node's pivot permutation, solving with its unit-lower factor, then
//! pushing contributions into ancestor row blocks), and a backward sweep
//! ascends it. Across BTF blocks the usual block back-substitution runs in
//! reverse block order using the retained off-diagonal entries.
//!
//! The production sweeps work entirely in the caller's `z`/`scratch`
//! buffers:
//!
//! basker-lint: deny-alloc

use crate::parnum::NdFactors;
use crate::structure::NdStructure;
use basker_sparse::trisolve::{lower_solve_in_place, upper_solve_in_place};

/// Solves the ND block system in place: on entry `z` holds the right-hand
/// side of this block in permuted (pre-pivot) local coordinates; on exit
/// it holds the solution in the block's column coordinates. `scratch`
/// must be at least `z.len()` long (it carries per-node pivot
/// permutations, keeping the sweep allocation-free).
pub fn solve_nd_in_place(st: &NdStructure, f: &NdFactors, z: &mut [f64], scratch: &mut [f64]) {
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
        lower_solve_in_place(&blu.l, &mut z[r.clone()], true);
        // push contributions into ancestor row blocks (their original
        // local coordinates — ancestors have not been pivoted yet)
        for (ai, &a) in st.ancestors[v].iter().enumerate() {
            let a0 = st.nd.nodes[a].range.start;
            let below = &blu.below[ai];
            for c in 0..below.ncols() {
                let xc = z[r.start + c];
                if xc != 0.0 {
                    basker_kernels::active().scatter_axpy(
                        &mut z[a0..],
                        below.col_rows(c),
                        below.col_values(c),
                        -xc,
                    );
                }
            }
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
            if panel.nnz() == 0 {
                continue;
            }
            let k0 = st.nd.nodes[k].range.start;
            for c in 0..panel.ncols() {
                let xc = z[r.start + c];
                if xc != 0.0 {
                    basker_kernels::active().scatter_axpy(
                        &mut z[k0..],
                        panel.col_rows(c),
                        panel.col_values(c),
                        -xc,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parnum::factor_nd_parallel;
    use crate::structure::{BlockKind, NdBlocks, Structure};
    use crate::sync::SyncMode;
    use crate::testmat::grid2d_unsym;
    use basker_sparse::spmv::spmv;
    use basker_sparse::util::relative_residual;
    use basker_sparse::Perm;

    #[test]
    fn nd_solve_matches_direct_solution() {
        for (k, p) in [(5usize, 2usize), (7, 4), (8, 4)] {
            let a = grid2d_unsym(k);
            let s = Structure::build(&a, false, false, 0, p).unwrap();
            let BlockKind::NdBig(st) = &s.kinds[0] else {
                panic!();
            };
            let ap = Perm::permute_both(&s.row_perm, &s.col_perm, &a);
            let blocks = NdBlocks::extract(&ap, 0, st);
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(p)
                .build()
                .unwrap();
            let f =
                factor_nd_parallel(&blocks, st, 0.001, SyncMode::PointToPoint, 0, &pool).unwrap();
            // Solve ap · x = b
            let xtrue: Vec<f64> = (0..a.ncols())
                .map(|i| 1.0 + (i % 7) as f64 * 0.25)
                .collect();
            let b = spmv(&ap, &xtrue);
            let mut z = b.clone();
            let mut scratch = vec![0.0; z.len()];
            solve_nd_in_place(st, &f, &mut z, &mut scratch);
            assert!(
                relative_residual(&ap, &z, &b) < 1e-12,
                "k={k} p={p} residual too large"
            );
        }
    }
}
