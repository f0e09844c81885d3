//! Symbolic phase of the supernodal solver: static orderings, symmetric
//! fill analysis, supernode detection, level-set schedule.

use basker_ordering::amd::amd_order;
use basker_ordering::etree::{level_sets, NONE};
use basker_ordering::mwcm::mwcm_bottleneck;
use basker_ordering::symbolic::{fundamental_supernodes, symbolic_cholesky, FactorPattern};
use basker_sparse::{CscMat, Perm, Result, SparseError};
// `basker_runtime`'s own items, by way of the lockfile placeholder (see
// `crates/snlu/Cargo.toml`).
use rayon::{shared_team, WorkerTeam};
use std::sync::Arc;

/// Options for the supernodal solver.
#[derive(Debug, Clone)]
pub struct SnluOptions {
    /// Worker threads for the level-set schedule.
    pub nthreads: usize,
    /// Relaxation for supernode merging (rows of slack).
    pub supernode_relax: usize,
    /// Static pivot threshold: pivots smaller than
    /// `pivot_eps · ‖A‖∞` are perturbed to that magnitude.
    pub pivot_eps: f64,
    /// Iterative-refinement sweeps in
    /// [`SnluNumeric::solve_in_place`](crate::SnluNumeric::solve_in_place).
    pub refine_steps: usize,
}

impl Default for SnluOptions {
    fn default() -> Self {
        SnluOptions {
            nthreads: 2,
            supernode_relax: 0,
            pivot_eps: 1e-10,
            refine_steps: 2,
        }
    }
}

/// The symbolic analysis: permutations, factor pattern, supernodes and the
/// level-set schedule.
///
/// Cheap to clone (the analysis and worker team are shared behind an
/// [`Arc`]), so numeric factorizations can retain their symbolic handle
/// — the hook [`crate::SnluNumeric::refactor`] needs.
#[derive(Clone)]
pub struct Snlu {
    pub(crate) inner: Arc<SnluInner>,
}

impl std::ops::Deref for Snlu {
    type Target = SnluInner;

    fn deref(&self) -> &SnluInner {
        &self.inner
    }
}

/// The owned symbolic-analysis data behind a [`Snlu`] handle.
pub struct SnluInner {
    pub(crate) opts: SnluOptions,
    pub(crate) n: usize,
    /// Row permutation (MWCM ∘ fill ordering).
    pub(crate) row_perm: Perm,
    /// Column permutation (fill ordering).
    pub(crate) col_perm: Perm,
    /// Pattern of `L` (symmetric analysis on the permuted matrix).
    pub(crate) lpat: FactorPattern,
    /// `U` pattern by column: row indices `t < j` with `j ∈ lpat(t)`.
    pub(crate) upat_colptr: Vec<usize>,
    pub(crate) upat_rows: Vec<usize>,
    /// Supernode boundaries (`sn_bounds[k]..sn_bounds[k+1]` = columns).
    pub(crate) sn_bounds: Vec<usize>,
    /// Supernode id per column.
    pub(crate) sn_of_col: Vec<usize>,
    /// Supernode ids grouped by etree level (the parallel schedule).
    pub(crate) levels: Vec<Vec<usize>>,
    /// The process-shared team of `opts.nthreads` ranks the levels run on.
    pub(crate) team: Arc<WorkerTeam>,
}

impl Snlu {
    /// Analyzes `a`: MWCM static pivoting, AMD fill ordering on `A + Aᵀ`,
    /// symbolic Cholesky, supernodes, level sets.
    pub fn analyze(a: &CscMat, opts: &SnluOptions) -> Result<Snlu> {
        if !a.is_square() {
            return Err(SparseError::DimensionMismatch {
                expected: (a.nrows(), a.nrows()),
                found: (a.nrows(), a.ncols()),
            });
        }
        let n = a.nrows();

        // Static pivoting: large entries onto the diagonal.
        let m = mwcm_bottleneck(a);
        if !m.matching.is_perfect() {
            return Err(SparseError::StructurallySingular {
                rank: m.matching.size,
            });
        }
        let pm = Perm::from_vec(m.matching.row_of_col.clone()).expect("matching perm");
        let b = pm.permute_rows(a);

        // Fill-reducing symmetric ordering.
        let sym_order = amd_order(&b);
        let row_perm = Perm::from_vec(
            sym_order
                .as_slice()
                .iter()
                .map(|&k| pm.as_slice()[k])
                .collect(),
        )
        .expect("composed row perm");
        let col_perm = sym_order.clone();

        // Symmetric fill analysis on the permuted matrix.
        let c = Perm::permute_both(&row_perm, &col_perm, a);
        let csym = c.symmetrize();
        let lpat = symbolic_cholesky(&csym);

        // U pattern = transpose of L pattern (strictly upper part).
        let mut ucount = vec![0usize; n + 1];
        for j in 0..n {
            for &i in lpat.col(j) {
                if i > j {
                    ucount[i + 1] += 1;
                }
            }
        }
        for j in 0..n {
            ucount[j + 1] += ucount[j];
        }
        let mut upat_rows = vec![0usize; *ucount.last().unwrap()];
        let mut next = ucount.clone();
        for j in 0..n {
            for &i in lpat.col(j) {
                if i > j {
                    upat_rows[next[i]] = j;
                    next[i] += 1;
                }
            }
        }
        let upat_colptr = ucount;

        // Supernodes.
        let sn_bounds = fundamental_supernodes(&lpat, opts.supernode_relax);
        let nsn = sn_bounds.len() - 1;
        let mut sn_of_col = vec![0usize; n];
        for s in 0..nsn {
            for c in sn_bounds[s]..sn_bounds[s + 1] {
                sn_of_col[c] = s;
            }
        }

        // Supernode etree: parent snode of the etree parent of the last
        // column. Level sets of that forest give the schedule.
        let mut sn_parent = vec![NONE; nsn];
        for s in 0..nsn {
            let last = sn_bounds[s + 1] - 1;
            let p = lpat.parent[last];
            if p != NONE {
                sn_parent[s] = sn_of_col[p];
            }
        }
        let levels = level_sets(&sn_parent);

        Ok(Snlu {
            inner: Arc::new(SnluInner {
                opts: opts.clone(),
                n,
                row_perm,
                col_perm,
                lpat,
                upat_colptr,
                upat_rows,
                sn_bounds,
                sn_of_col,
                levels,
                team: shared_team(opts.nthreads, false),
            }),
        })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The options this analysis was built with.
    pub fn options(&self) -> &SnluOptions {
        &self.opts
    }

    /// Number of supernodes.
    pub fn nsupernodes(&self) -> usize {
        self.sn_bounds.len() - 1
    }

    /// Mean supernode width — the structural quantity that decides whether
    /// a supernodal method pays off (paper §I–II).
    pub fn mean_supernode_width(&self) -> f64 {
        if self.nsupernodes() == 0 {
            return 0.0;
        }
        self.n as f64 / self.nsupernodes() as f64
    }

    /// Predicted `|L+U|` of the static pattern (before panel expansion).
    pub fn pattern_nnz(&self) -> usize {
        2 * self.lpat.nnz() - self.n
    }

    /// Number of levels in the parallel schedule.
    pub fn nlevels(&self) -> usize {
        self.levels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basker_sparse::TripletMat;

    fn grid2d(k: usize) -> CscMat {
        let n = k * k;
        let idx = |r: usize, c: usize| r * k + c;
        let mut t = TripletMat::new(n, n);
        for r in 0..k {
            for c in 0..k {
                let u = idx(r, c);
                t.push(u, u, 4.0);
                if r + 1 < k {
                    t.push(u, idx(r + 1, c), -1.0);
                    t.push(idx(r + 1, c), u, -1.0);
                }
                if c + 1 < k {
                    t.push(u, idx(r, c + 1), -1.0);
                    t.push(idx(r, c + 1), u, -1.0);
                }
            }
        }
        t.to_csc()
    }

    #[test]
    fn analyze_produces_consistent_structures() {
        let a = grid2d(6);
        let sym = Snlu::analyze(&a, &SnluOptions::default()).unwrap();
        assert_eq!(sym.n(), 36);
        assert_eq!(*sym.sn_bounds.last().unwrap(), 36);
        // U pattern: column j holds only rows < j.
        for j in 0..36 {
            for &t in &sym.upat_rows[sym.upat_colptr[j]..sym.upat_colptr[j + 1]] {
                assert!(t < j);
            }
        }
        // schedule covers every supernode exactly once
        let mut seen = vec![false; sym.nsupernodes()];
        for level in &sym.levels {
            for &s in level {
                assert!(!seen[s]);
                seen[s] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn mesh_develops_wide_supernodes() {
        let a = grid2d(12);
        let sym = Snlu::analyze(&a, &SnluOptions::default()).unwrap();
        // A mesh must produce some multi-column supernodes.
        assert!(
            sym.mean_supernode_width() > 1.2,
            "width {}",
            sym.mean_supernode_width()
        );
    }

    #[test]
    fn diagonal_only_matrix() {
        let a = CscMat::identity(5);
        let sym = Snlu::analyze(&a, &SnluOptions::default()).unwrap();
        assert_eq!(sym.pattern_nnz(), 5);
        assert_eq!(sym.nlevels(), 1);
    }

    #[test]
    fn rejects_structurally_singular() {
        let mut t = TripletMat::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 1.0);
        let a = t.to_csc();
        assert!(Snlu::analyze(&a, &SnluOptions::default()).is_err());
    }
}
