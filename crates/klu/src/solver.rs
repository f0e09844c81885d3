//! The KLU-style solver pipeline: BTF + per-block AMD + Gilbert–Peierls.
//!
//! `analyze` computes the orderings once per sparsity pattern; `factor`
//! produces numeric factors; `refactor` refreshes values against the same
//! pattern **and pivot sequence** without any graph search (the path Xyce
//! exercises across a transient simulation, paper §V-F); `solve` performs
//! the block back-substitution.

use crate::gp::{BlockFactor, RefactorWorkspace};
use basker_ordering::amd::amd_order;
use basker_ordering::btf::btf_form_with;
use basker_sparse::blocks::{extract_range, upper_block_part};
use basker_sparse::trisolve::push_columns;
use basker_sparse::workspace::{gather_panel, packed_columns, panel_chunks, scatter_panel};
use basker_sparse::{CscMat, Perm, Result, SolveWorkspace, SparseError};

/// Tuning options for the KLU pipeline.
#[derive(Debug, Clone)]
pub struct KluOptions {
    /// Threshold partial-pivoting tolerance (diagonal preferred when its
    /// magnitude is at least `pivot_tol`·column max). KLU's default 0.001.
    pub pivot_tol: f64,
    /// Permute to block triangular form first (KLU's defining step),
    /// on the bottleneck MWCM transversal.
    pub use_btf: bool,
}

impl Default for KluOptions {
    fn default() -> Self {
        KluOptions {
            pivot_tol: 0.001,
            use_btf: true,
        }
    }
}

/// The symbolic analysis: permutations and block structure for a pattern.
#[derive(Debug, Clone)]
pub struct KluSymbolic {
    n: usize,
    opts: KluOptions,
    row_perm: Perm,
    col_perm: Perm,
    bounds: Vec<usize>,
    /// block id of each permuted index
    block_of: Vec<usize>,
    /// rows of the largest block (sizes the solve's pivot scratch)
    max_block: usize,
    /// bottleneck value of the transversal (diagnostic)
    pub bottleneck: f64,
}

impl KluSymbolic {
    /// Analyzes the pattern of `a`: BTF + per-block AMD.
    pub fn analyze(a: &CscMat, opts: &KluOptions) -> Result<KluSymbolic> {
        if !a.is_square() {
            return Err(SparseError::DimensionMismatch {
                expected: (a.nrows(), a.nrows()),
                found: (a.nrows(), a.ncols()),
            });
        }
        let n = a.nrows();
        let (mut row_perm, mut col_perm, bounds, bottleneck) = if opts.use_btf {
            let btf = btf_form_with(a, true)?;
            (
                btf.row_perm.clone(),
                btf.col_perm.clone(),
                btf.bounds.clone(),
                btf.bottleneck,
            )
        } else {
            (Perm::identity(n), Perm::identity(n), vec![0, n], 0.0)
        };

        if n > 0 {
            // Refine each diagonal block with AMD (applied symmetrically so
            // the zero-free diagonal survives).
            let ap = Perm::permute_both(&row_perm, &col_perm, a);
            let mut row_total = vec![0usize; n];
            let mut col_total = vec![0usize; n];
            for b in 0..bounds.len() - 1 {
                let (lo, hi) = (bounds[b], bounds[b + 1]);
                if hi - lo <= 2 {
                    row_total[lo..hi].copy_from_slice(&row_perm.as_slice()[lo..hi]);
                    col_total[lo..hi].copy_from_slice(&col_perm.as_slice()[lo..hi]);
                    continue;
                }
                let block = extract_range(&ap, lo..hi, lo..hi);
                let local = amd_order(&block);
                for (off, &l) in local.as_slice().iter().enumerate() {
                    row_total[lo + off] = row_perm.as_slice()[lo + l];
                    col_total[lo + off] = col_perm.as_slice()[lo + l];
                }
            }
            row_perm = Perm::from_vec(row_total).expect("composed row perm invalid");
            col_perm = Perm::from_vec(col_total).expect("composed col perm invalid");
        }

        let mut block_of = vec![0usize; n];
        let mut max_block = 0;
        for b in 0..bounds.len() - 1 {
            for k in bounds[b]..bounds[b + 1] {
                block_of[k] = b;
            }
            max_block = max_block.max(bounds[b + 1] - bounds[b]);
        }

        Ok(KluSymbolic {
            n,
            opts: opts.clone(),
            row_perm,
            col_perm,
            bounds,
            block_of,
            max_block,
            bottleneck,
        })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of BTF diagonal blocks.
    pub fn nblocks(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Block boundaries in the permuted matrix.
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// The row permutation (pre-pivoting).
    pub fn row_perm(&self) -> &Perm {
        &self.row_perm
    }

    /// The column permutation.
    pub fn col_perm(&self) -> &Perm {
        &self.col_perm
    }

    /// BTF block id of a permuted index.
    pub fn block_of(&self, permuted: usize) -> usize {
        self.block_of[permuted]
    }

    /// Fraction of rows in blocks of size ≤ `small` (Table I's "BTF %").
    pub fn small_block_fraction(&self, small: usize) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let covered: usize = (0..self.nblocks())
            .map(|b| self.bounds[b + 1] - self.bounds[b])
            .filter(|&s| s <= small)
            .sum();
        covered as f64 / self.n as f64
    }

    /// Numeric factorization of `a` (same pattern as analyzed).
    pub fn factor(&self, a: &CscMat) -> Result<KluNumeric> {
        let ap = Perm::permute_both(&self.row_perm, &self.col_perm, a);
        let mut blocks = Vec::with_capacity(self.nblocks());
        for b in 0..self.nblocks() {
            let (lo, hi) = (self.bounds[b], self.bounds[b + 1]);
            blocks.push(BlockFactor::factor_range(&ap, lo, hi, self.opts.pivot_tol)?);
        }
        let offdiag = upper_block_part(&ap, &self.block_of);
        Ok(KluNumeric {
            sym: self.clone(),
            blocks,
            offdiag,
            ws: RefactorWorkspace::new(),
        })
    }
}

/// Numeric LU factors over the BTF structure.
#[derive(Debug, Clone)]
pub struct KluNumeric {
    sym: KluSymbolic,
    blocks: Vec<BlockFactor>,
    offdiag: CscMat,
    /// The refactorization kernels' accumulators.
    ws: RefactorWorkspace,
}

impl KluNumeric {
    /// Access the symbolic analysis.
    pub fn symbolic(&self) -> &KluSymbolic {
        &self.sym
    }

    /// Per-block factors (diagnostics / tests).
    pub fn blocks(&self) -> &[BlockFactor] {
        &self.blocks
    }

    /// `|L+U|` over the factored diagonal blocks only — the paper's
    /// memory metric. Off-diagonal BTF entries are *not* factored (they
    /// are reused from `A` during the solve), which is why Table I fill
    /// densities can be below 1.
    pub fn lu_nnz(&self) -> usize {
        self.blocks.iter().map(|b| b.lu_nnz()).sum::<usize>()
    }

    /// Total stored entries including the retained off-diagonal couplings.
    pub fn total_storage_nnz(&self) -> usize {
        self.lu_nnz() + self.offdiag.nnz()
    }

    /// Total numeric flops of the last (re)factorization.
    pub fn flops(&self) -> f64 {
        self.blocks.iter().map(|b| b.flops()).sum()
    }

    /// `(min |pivot|, max |pivot|)` over every factored diagonal block —
    /// `min/max` is KLU's `rcond` estimate, and the extremes feed the
    /// refactor-path quality gates of the session layer. `(∞, 0)` for an
    /// empty matrix.
    pub fn pivot_range(&self) -> (f64, f64) {
        self.blocks
            .iter()
            .map(|b| b.pivot_range())
            .fold((f64::INFINITY, 0.0), |(lo, hi), (l, h)| {
                (lo.min(l), hi.max(h))
            })
    }

    /// Refreshes values from `a` (identical pattern), reusing patterns and
    /// pivot sequences. Fails with [`SparseError::ZeroPivot`] when a pivot
    /// collapses to zero; callers should then re-`factor`.
    pub fn refactor(&mut self, a: &CscMat) -> Result<()> {
        let ap = Perm::permute_both(&self.sym.row_perm, &self.sym.col_perm, a);
        for b in 0..self.sym.nblocks() {
            let (lo, hi) = (self.sym.bounds[b], self.sym.bounds[b + 1]);
            self.blocks[b].refactor_range(&ap, lo, hi, &mut self.ws)?;
        }
        self.offdiag = upper_block_part(&ap, &self.sym.block_of);
        Ok(())
    }

    /// Solves `A·x = b` in place: on entry `x` holds `b`, on exit the
    /// solution. After the workspace's first use at this dimension the
    /// call performs **no heap allocation**. The `K = 1` instance of the
    /// panel sweep behind [`solve_multi_in_place`](Self::solve_multi_in_place).
    pub fn solve_in_place(&self, x: &mut [f64], ws: &mut SolveWorkspace) {
        assert_eq!(x.len(), self.sym.n);
        self.solve_panel::<1>(x, ws);
    }

    /// Solves several right-hand sides packed column-major in `xs`
    /// (`xs.len()` must be a multiple of `n`); each length-`n` chunk is
    /// overwritten with its solution. The columns are solved in
    /// row-major panels of [`PANEL_WIDTHS`](basker_sparse::workspace::PANEL_WIDTHS)
    /// — one walk over the factors per panel, not per column — and the
    /// call is allocation-free once the workspace has grown to the
    /// widest panel used.
    pub fn solve_multi_in_place(&self, xs: &mut [f64], ws: &mut SolveWorkspace) {
        let n = self.sym.n;
        for (first, w) in panel_chunks(packed_columns(n, xs)) {
            let cols = &mut xs[first * n..(first + w) * n];
            basker_sparse::with_panel_width!(w, K => self.solve_panel::<K>(cols, ws));
        }
    }

    /// One sweep over the factors for the `K` columns packed in `xs`:
    /// the row permutation gathers them into the workspace's row-major
    /// panel, blocks are solved in reverse order with each solution row
    /// pushed into the earlier blocks `K` lanes at a time, and the
    /// column permutation scatters the panel back out column-major.
    // basker-lint: deny-alloc
    fn solve_panel<const K: usize>(&self, xs: &mut [f64], ws: &mut SolveWorkspace) {
        let n = self.sym.n;
        debug_assert_eq!(xs.len(), K * n);
        let (y, scratch) = ws.panels::<K>(n, self.sym.max_block);
        // to permuted coordinates: position k holds b[row_perm[k]]
        gather_panel(xs, self.sym.row_perm.as_slice(), y);
        // blocks in reverse order: solve, then push contributions left
        for blk in (0..self.sym.nblocks()).rev() {
            let (lo, hi) = (self.sym.bounds[blk], self.sym.bounds[blk + 1]);
            self.blocks[blk].solve_in_place_with(&mut y[lo..hi], scratch);
            push_columns(&self.offdiag, lo..hi, y, lo, 0);
        }
        // out of permuted coordinates: position k holds x[col_perm[k]]
        scatter_panel(y, self.sym.col_perm.as_slice(), xs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basker_sparse::spmv::spmv;
    use basker_sparse::util::relative_residual;
    use basker_sparse::TripletMat;

    /// Test-side allocating convenience over the in-place path (the
    /// legacy `solve` wrapper removed from the public API).
    fn solve(num: &KluNumeric, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        num.solve_in_place(&mut x, &mut SolveWorkspace::new());
        x
    }

    fn reducible_matrix(n_half: usize) -> CscMat {
        // Two coupled subsystems: block upper triangular by construction
        // once permuted, with a dense-ish coupling.
        let n = 2 * n_half;
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, 10.0 + (i % 3) as f64);
        }
        for i in 0..n_half {
            let j = (i + 1) % n_half;
            t.push(i, j, -1.0);
            t.push(j, i, -0.5);
        }
        for i in n_half..n {
            let j = n_half + (i - n_half + 1) % n_half;
            t.push(i, j, -2.0);
        }
        // coupling from first subsystem to second (upper block)
        for i in 0..n_half / 2 {
            t.push(i, n_half + i, 0.7);
        }
        t.to_csc()
    }

    #[test]
    fn analyze_factor_solve_roundtrip() {
        let a = reducible_matrix(6);
        let sym = KluSymbolic::analyze(&a, &KluOptions::default()).unwrap();
        assert!(sym.nblocks() >= 2, "expected BTF to split the system");
        let num = sym.factor(&a).unwrap();
        let xtrue: Vec<f64> = (0..a.ncols())
            .map(|i| (i as f64 * 0.3).sin() + 1.5)
            .collect();
        let b = spmv(&a, &xtrue);
        let x = solve(&num, &b);
        assert!(relative_residual(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn no_btf_path_works() {
        let a = reducible_matrix(4);
        let opts = KluOptions {
            use_btf: false,
            ..KluOptions::default()
        };
        let sym = KluSymbolic::analyze(&a, &opts).unwrap();
        assert_eq!(sym.nblocks(), 1);
        let num = sym.factor(&a).unwrap();
        let b = vec![1.0; a.ncols()];
        let x = solve(&num, &b);
        assert!(relative_residual(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn refactor_solves_new_values() {
        let a = reducible_matrix(5);
        let sym = KluSymbolic::analyze(&a, &KluOptions::default()).unwrap();
        let mut num = sym.factor(&a).unwrap();
        // Same pattern, scaled + perturbed values.
        let a2 = {
            let mut vals: Vec<f64> = a.values().to_vec();
            for (k, v) in vals.iter_mut().enumerate() {
                *v = *v * 1.5 + 0.01 * ((k % 5) as f64);
            }
            // SAFETY: pattern arrays are copied from the valid matrix `a`;
            // `vals` maps its values 1:1.
            unsafe {
                CscMat::from_parts_unchecked(
                    a.nrows(),
                    a.ncols(),
                    a.colptr().to_vec(),
                    a.rowind().to_vec(),
                    vals,
                )
            }
        };
        num.refactor(&a2).unwrap();
        let xtrue: Vec<f64> = (0..a.ncols()).map(|i| 1.0 + i as f64).collect();
        let b = spmv(&a2, &xtrue);
        let x = solve(&num, &b);
        assert!(relative_residual(&a2, &x, &b) < 1e-12);
    }

    #[test]
    fn rejects_rectangular() {
        let a = CscMat::zero(3, 4);
        assert!(KluSymbolic::analyze(&a, &KluOptions::default()).is_err());
    }

    #[test]
    fn rejects_structurally_singular() {
        let mut t = TripletMat::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(1, 0, 1.0);
        t.push(2, 0, 1.0);
        t.push(0, 1, 1.0);
        t.push(0, 2, 1.0);
        let a = t.to_csc();
        assert!(matches!(
            KluSymbolic::analyze(&a, &KluOptions::default()),
            Err(SparseError::StructurallySingular { .. })
        ));
    }

    #[test]
    fn diagonal_matrix_trivial() {
        let a = CscMat::identity(8);
        let sym = KluSymbolic::analyze(&a, &KluOptions::default()).unwrap();
        assert_eq!(sym.nblocks(), 8);
        let num = sym.factor(&a).unwrap();
        let x = solve(&num, &[2.0; 8]);
        assert!(x.iter().all(|&v| (v - 2.0).abs() < 1e-15));
        assert_eq!(num.lu_nnz(), 8);
    }

    #[test]
    fn singular_block_reports_zero_pivot() {
        // Structurally fine but numerically singular 2x2 block:
        // [1 1; 1 1] embedded.
        let mut t = TripletMat::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 1.0);
        let a = t.to_csc();
        let sym = KluSymbolic::analyze(&a, &KluOptions::default()).unwrap();
        assert!(matches!(sym.factor(&a), Err(SparseError::ZeroPivot { .. })));
    }

    #[test]
    fn solve_multi_matches_single() {
        let a = reducible_matrix(4);
        let n = a.ncols();
        let sym = KluSymbolic::analyze(&a, &KluOptions::default()).unwrap();
        let num = sym.factor(&a).unwrap();
        let b1 = vec![1.0; n];
        let b2: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut packed: Vec<f64> = b1.iter().chain(b2.iter()).copied().collect();
        num.solve_multi_in_place(&mut packed, &mut SolveWorkspace::for_dim(n));
        assert_eq!(&packed[..n], &solve(&num, &b1)[..]);
        assert_eq!(&packed[n..], &solve(&num, &b2)[..]);
    }

    #[test]
    fn pivot_range_spans_blocks() {
        let a = reducible_matrix(5);
        let sym = KluSymbolic::analyze(&a, &KluOptions::default()).unwrap();
        let num = sym.factor(&a).unwrap();
        let (lo, hi) = num.pivot_range();
        assert!(lo > 0.0 && lo <= hi, "pivot range ({lo}, {hi})");
        // rcond-style estimate is in (0, 1].
        assert!(lo / hi <= 1.0);
    }

    #[test]
    fn fill_density_sane_on_btf_friendly_matrix() {
        let a = reducible_matrix(10);
        let sym = KluSymbolic::analyze(&a, &KluOptions::default()).unwrap();
        let num = sym.factor(&a).unwrap();
        let density = num.lu_nnz() as f64 / a.nnz() as f64;
        // KLU on a BTF-friendly matrix keeps fill density low (paper
        // Table I shows many matrices below 2).
        assert!(density < 3.0, "unexpected fill density {density}");
    }
}
