//! Parallel symbolic factorization estimates (paper Algorithm 3).
//!
//! Basker pre-computes nonzero-count estimates for every block of the 2-D
//! layout so the numeric phase never reallocates inside a parallel region
//! (paper: "repeated reallocation for LU factors would require a system
//! call, which is a performance bottleneck"). Following the paper:
//!
//! * **treelevel −1** (leaves): *exact* counts from a pattern-only stacked
//!   Gilbert–Peierls pass (assuming diagonal pivots), which also yields
//!   the per-ancestor `lest` row-interval summaries (Alg. 3 lines 5–6).
//! * **treelevel 0** (leaf panels `U_{ℓ,j}`): exact pattern-only
//!   triangular-solve counts, yielding `uest` (line 8).
//! * **higher treelevels**: the `lest`/`uest` min/max-row interval upper
//!   bounds — "assuming the column is dense between the minimum and
//!   maximum" (lines 11–17).
//!
//! In this reproduction nothing consumes the estimates: the
//! factorization kernels size their buffers from true patterns as they
//! build them, so [`Basker::analyze`](crate::Basker::analyze) does not
//! run this pass (it was 91 of 149 ms of analyze on `mesh2d(150)` at two
//! threads). [`SymbolicEstimates::compute`] stays as an on-demand pure
//! function over a built [`Structure`] for callers that want the
//! paper's bound next to the actual fill.

use crate::structure::{BlockKind, NdBlocks, Structure};
use basker_sparse::CscMat;
use rayon::prelude::*;

/// An inclusive row interval; `None` = structurally empty.
pub type Interval = Option<(usize, usize)>;

fn hull(a: Interval, b: Interval) -> Interval {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some((alo, ahi)), Some((blo, bhi))) => Some((alo.min(blo), ahi.max(bhi))),
    }
}

fn width(i: Interval) -> usize {
    i.map_or(0, |(lo, hi)| hi - lo + 1)
}

fn col_interval(m: &CscMat, c: usize) -> Interval {
    let rows = m.col_rows(c);
    if rows.is_empty() {
        None
    } else {
        Some((rows[0], *rows.last().unwrap()))
    }
}

fn block_interval(m: &CscMat) -> Interval {
    (0..m.ncols()).fold(None, |acc, c| hull(acc, col_interval(m, c)))
}

/// Pattern-only stacked Gilbert–Peierls over `[diag; below…]` with
/// diagonal pivots: returns exact `(nnz(LU_dd), per-below nnz, per-below
/// block hull interval)`.
fn symbolic_stacked_gp(diag: &CscMat, below: &[&CscMat]) -> (usize, Vec<usize>, Vec<Interval>) {
    let nb = diag.ncols();
    const UNSET: usize = usize::MAX;
    let mut lcolptr: Vec<usize> = vec![0];
    let mut lrows: Vec<usize> = Vec::new();
    let mut lu_nnz = 0usize;
    let mut mark = vec![UNSET; nb];
    let mut dfs: Vec<(usize, usize)> = Vec::new();
    let mut reach: Vec<usize> = Vec::new();

    let mut b_nnz = vec![0usize; below.len()];
    let mut b_hull: Vec<Interval> = vec![None; below.len()];
    let mut bmark: Vec<Vec<usize>> = below.iter().map(|b| vec![UNSET; b.nrows()]).collect();
    let mut bpat: Vec<Vec<usize>> = below.iter().map(|_| Vec::new()).collect();
    // pattern of below parts per previous pivot column
    let mut bl_cols: Vec<Vec<Vec<usize>>> = below.iter().map(|_| Vec::new()).collect();

    for j in 0..nb {
        reach.clear();
        for p in bpat.iter_mut() {
            p.clear();
        }
        for &i in diag.col_rows(j) {
            if mark[i] == j {
                continue;
            }
            mark[i] = j;
            if i >= j {
                reach.push(i);
                continue;
            }
            dfs.clear();
            dfs.push((i, lcolptr[i]));
            while let Some(&(t, pos)) = dfs.last() {
                if pos < lcolptr[t + 1] {
                    dfs.last_mut().unwrap().1 += 1;
                    let r = lrows[pos];
                    if mark[r] != j {
                        mark[r] = j;
                        if r < j {
                            dfs.push((r, lcolptr[r]));
                        } else {
                            reach.push(r);
                        }
                    }
                } else {
                    reach.push(t);
                    dfs.pop();
                }
            }
        }
        // below scatter + updates through pivotal columns of the reach
        for (bi, b) in below.iter().enumerate() {
            for &r in b.col_rows(j) {
                if bmark[bi][r] != j {
                    bmark[bi][r] = j;
                    bpat[bi].push(r);
                }
            }
        }
        for &t in reach.iter().filter(|&&t| t < j) {
            for bi in 0..below.len() {
                for &r in &bl_cols[bi][t] {
                    if bmark[bi][r] != j {
                        bmark[bi][r] = j;
                        bpat[bi].push(r);
                    }
                }
            }
        }
        // counts
        let l_count = reach.iter().filter(|&&r| r > j).count();
        let u_count = reach.iter().filter(|&&r| r < j).count() + 1;
        lu_nnz += l_count + u_count + 1; // + unit diagonal of L
        let mut lcol: Vec<usize> = reach.iter().copied().filter(|&r| r > j).collect();
        lcol.sort_unstable();
        lrows.extend_from_slice(&lcol);
        lcolptr.push(lrows.len());
        for bi in 0..below.len() {
            b_nnz[bi] += bpat[bi].len();
            for &r in &bpat[bi] {
                b_hull[bi] = hull(b_hull[bi], Some((r, r)));
            }
            bl_cols[bi].push(bpat[bi].clone());
        }
    }
    (lu_nnz, b_nnz, b_hull)
}

/// Estimated nonzero counts for one ND block's factors.
#[derive(Debug, Clone, Default)]
pub struct NdEstimates {
    /// Per tree node: estimated `|L+U|` of the node's whole block column
    /// (diagonal factor, below parts and, for column blocks above it, its
    /// panels are charged to the *column* block).
    pub node_lu_est: Vec<usize>,
    /// Per tree node: true when the estimate is exact (leaves, no-pivot
    /// assumption) rather than an interval upper bound (separators).
    pub exact: Vec<bool>,
    /// Total estimated `|L+U|` of the ND block.
    pub total_est: usize,
}

/// Symbolic estimates for the whole structure.
#[derive(Debug, Clone, Default)]
pub struct SymbolicEstimates {
    /// Per BTF block: `Some` for ND blocks.
    pub nd: Vec<Option<NdEstimates>>,
    /// Total estimated `|L+U|` across all ND blocks.
    pub nd_total_est: usize,
}

impl SymbolicEstimates {
    /// Runs Algorithm 3 over every ND block, leaves in parallel.
    pub fn compute(ap: &CscMat, st: &Structure, pool: &rayon::ThreadPool) -> SymbolicEstimates {
        let mut nd = Vec::with_capacity(st.nblocks());
        let mut total = 0usize;
        for b in 0..st.nblocks() {
            match &st.kinds[b] {
                BlockKind::Small => nd.push(None),
                BlockKind::NdBig(nds) => {
                    let blocks = NdBlocks::extract(ap, st.bounds[b], nds);
                    let est = estimate_nd(&blocks, nds, pool);
                    total += est.total_est;
                    nd.push(Some(est));
                }
            }
        }
        SymbolicEstimates {
            nd,
            nd_total_est: total,
        }
    }
}

fn estimate_nd(
    blocks: &NdBlocks,
    nds: &crate::structure::NdStructure,
    pool: &rayon::ThreadPool,
) -> NdEstimates {
    let nn = nds.nnodes();
    let mut node_lu_est = vec![0usize; nn];
    let mut exact = vec![false; nn];
    // lest hull per (node, ancestor slot)
    let mut lest: Vec<Vec<Interval>> = (0..nn)
        .map(|v| vec![None; nds.ancestors[v].len()])
        .collect();

    // --- treelevel -1: leaves, exact, in parallel (Alg. 3 lines 2-9) ---
    let leaves: Vec<usize> = nds.leaf_of_thread.clone();
    let leaf_results: Vec<(usize, usize, Vec<usize>, Vec<Interval>)> = pool.install(|| {
        leaves
            .par_iter()
            .map(|&v| {
                let below: Vec<&CscMat> = blocks.lower[v].iter().collect();
                let (lu, b_nnz, b_hull) = symbolic_stacked_gp(&blocks.diag[v], &below);
                (v, lu, b_nnz, b_hull)
            })
            .collect()
    });
    for (v, lu, b_nnz, b_hull) in leaf_results {
        node_lu_est[v] = lu + b_nnz.iter().sum::<usize>();
        exact[v] = true;
        lest[v] = b_hull;
    }

    // --- higher treelevels: interval upper bounds (lines 11-18) ---
    // uest hull per (column block j, descendant slot): estimated row
    // interval of U_{k,j}.
    for j in 0..nn {
        if nds.nd.nodes[j].is_leaf() {
            continue;
        }
        let start = nds.subtree_start[j];
        let ncols = nds.nd.nodes[j].len();
        let mut uest: Vec<Interval> = vec![None; j - start];
        let mut panels_est = 0usize;
        for k in nds.descendants(j) {
            let a_kj = &blocks.upper[j][k - start];
            // base interval from A, closed over the k-block solve: the
            // triangular solve can only extend the interval downward
            // within block k.
            let mut iv = block_interval(a_kj);
            if iv.is_some() {
                let nk = nds.nd.nodes[k].len();
                iv = hull(iv, Some((iv.unwrap().0, nk.saturating_sub(1))));
            }
            // contributions L_{k',k-path}: any descendant k' of k with a
            // panel into j widens U_{k,j} by lest hulls
            for kp in nds.descendants(k) {
                if uest[kp - start].is_some() {
                    let pos = nds.nd.tree_level(k) - nds.nd.tree_level(kp) - 1;
                    iv = hull(iv, lest[kp][pos]);
                }
            }
            uest[k - start] = iv;
            panels_est += width(iv) * ncols.min(a_kj.ncols());
        }
        // diagonal block: dense between interval bounds (paper's "assume
        // dense between min and max")
        let mut diag_iv = block_interval(&blocks.diag[j]);
        for k in nds.descendants(j) {
            if uest[k - start].is_some() {
                let pos = nds.nd.tree_level(j) - nds.nd.tree_level(k) - 1;
                diag_iv = hull(diag_iv, lest[k][pos]);
            }
        }
        let ndiag = nds.nd.nodes[j].len();
        let diag_est = (width(diag_iv).min(ndiag)) * ncols;
        // below targets
        let mut below_est = 0usize;
        for (ai, &a) in nds.ancestors[j].iter().enumerate() {
            let mut iv = block_interval(&blocks.lower[j][ai]);
            for k in nds.descendants(j) {
                if uest[k - start].is_some() {
                    let pos = nds.nd.tree_level(a) - nds.nd.tree_level(k) - 1;
                    iv = hull(iv, lest[k][pos]);
                }
            }
            lest[j][ai] = iv;
            below_est += width(iv) * ncols;
        }
        node_lu_est[j] = panels_est + diag_est + below_est;
    }

    let total_est = node_lu_est.iter().sum();
    NdEstimates {
        node_lu_est,
        exact,
        total_est,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parnum::factor_nd_parallel;
    use crate::structure::Structure;
    use crate::sync::SyncMode;
    use crate::testmat::grid2d_unsym;
    use basker_sparse::Perm;

    #[test]
    fn interval_helpers() {
        assert_eq!(hull(None, Some((1, 3))), Some((1, 3)));
        assert_eq!(hull(Some((1, 3)), Some((2, 7))), Some((1, 7)));
        assert_eq!(width(None), 0);
        assert_eq!(width(Some((2, 5))), 4);
    }

    #[test]
    fn leaf_estimates_match_no_pivot_factor() {
        // With a diagonally dominant matrix and diag-preferring pivoting,
        // the leaf estimate should match the actual factored counts.
        let a = grid2d_unsym(6);
        let s = Structure::build(&a, false, false, 0, 2).unwrap();
        let BlockKind::NdBig(nds) = &s.kinds[0] else {
            panic!();
        };
        let ap = Perm::permute_both(&s.row_perm, &s.col_perm, &a);
        let blocks = NdBlocks::extract(&ap, 0, nds);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let est = estimate_nd(&blocks, nds, &pool);
        let f = factor_nd_parallel(&blocks, nds, 0.001, SyncMode::PointToPoint, 0, &pool).unwrap();
        for &leaf in &nds.leaf_of_thread {
            let actual = f.fact_diag[leaf].lu_nnz() + f.fact_diag[leaf].l.ncols();
            // estimate counts the unit diagonal inside lu (see
            // symbolic_stacked_gp): compare within a small slack
            assert!(
                est.node_lu_est[leaf] >= actual.saturating_sub(f.fact_diag[leaf].l.ncols()),
                "leaf {leaf}: est {} vs actual {actual}",
                est.node_lu_est[leaf]
            );
            assert!(est.exact[leaf]);
        }
    }

    #[test]
    fn separator_estimates_are_upper_bound_ish() {
        let a = grid2d_unsym(8);
        let s = Structure::build(&a, false, false, 0, 4).unwrap();
        let BlockKind::NdBig(nds) = &s.kinds[0] else {
            panic!();
        };
        let ap = Perm::permute_both(&s.row_perm, &s.col_perm, &a);
        let blocks = NdBlocks::extract(&ap, 0, nds);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let est = estimate_nd(&blocks, nds, &pool);
        let f = factor_nd_parallel(&blocks, nds, 0.001, SyncMode::PointToPoint, 0, &pool).unwrap();
        // The total estimate should bound (or come close to) the actual
        // fill: the paper calls it "a reasonable upper bound".
        let actual = f.lu_nnz();
        assert!(
            est.total_est * 2 >= actual,
            "estimate {} way below actual {}",
            est.total_est,
            actual
        );
        // root separator is flagged inexact
        assert!(!est.exact[nds.nnodes() - 1]);
    }
}
