//! One flat store for every Gilbert–Peierls BTF block.
//!
//! A power grid splits into tens of thousands of BTF blocks, nearly all
//! of one to five rows (the paper's Power0 shape). Their factors live in
//! flat CSC arrays over the permuted columns, one set per fine-BTF run
//! (the unit of work `stages::gp_runs` cuts), each block a window of its
//! run's arrays given by the block bounds — the layout of the frozen
//! block-diagonal store `A` is read from ([`crate::frozen`]):
//!
//! * `L` by columns without its unit diagonal, and `U` by columns with
//!   the pivot last, rows local to the block and in pivotal order;
//! * per permuted row, the block-local pivot position of that row
//!   (`pinv`), and per permuted column the block-local row pivoted into
//!   that position (`row_perm`).
//!
//! A 1×1 block is a column with an empty `L` and a one-entry `U`, so it
//! needs no case of its own; the kernels take a short path through it
//! that computes the same thing.
//!
//! A run's arrays are written by the item that factors the run and kept
//! where they are — one set for the whole matrix would be a copy made
//! while the runs' sets still live. The fresh factorization fills them
//! from Gilbert–Peierls ([`GpRun::factor`]); a refactorization refreshes
//! their values in place ([`GpRun::refactor`]) in
//! [`refactor_block_column`]'s operation order; the solve walks a whole
//! run ([`GpStore::solve_run`]), each block by
//! `BlockLu::solve_in_place_with`'s passes, followed by its couplings. So
//! the factors and the solutions are bit for bit those of the
//! `basker_klu::gp` kernels on the same blocks. Every (re)factorization
//! of a run also records what it did — its flops and the extremes of its
//! pivots ([`Tally`]) — and the store folds the runs' records once, so
//! reading them walks nothing.
//!
//! [`refactor_block_column`]: basker_klu::gp::refactor_block_column

use crate::frozen::FrozenBtf;
use basker_kernels::Kernels;
use basker_klu::gp::{factor_block_column, RefactorWorkspace};
use basker_sparse::trisolve::push_columns;
use basker_sparse::{CscMat, Result, SparseError};
use std::ops::Range;

/// What a (re)factorization of some blocks did: its flops and the
/// extremes of its `|pivot|`s (`(∞, 0)` over no pivot, so tallies fold
/// with `min`/`max`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Tally {
    pub(crate) flops: f64,
    pub(crate) min_pivot: f64,
    pub(crate) max_pivot: f64,
}

impl Default for Tally {
    fn default() -> Tally {
        Tally {
            flops: 0.0,
            min_pivot: f64::INFINITY,
            max_pivot: 0.0,
        }
    }
}

impl Tally {
    #[inline]
    fn pivot(&mut self, p: f64) {
        self.min_pivot = self.min_pivot.min(p.abs());
        self.max_pivot = self.max_pivot.max(p.abs());
    }

    /// Folds `other` in. Flops are whole numbers, so the sum does not
    /// depend on the order tallies arrive in.
    fn merge(&mut self, other: Tally) {
        self.flops += other.flops;
        self.min_pivot = self.min_pivot.min(other.min_pivot);
        self.max_pivot = self.max_pivot.max(other.max_pivot);
    }
}

/// The pivot of the 1×1 block at permuted column `c`: its entry in the
/// frozen store's values `diag_vals`, which must be nonzero.
#[inline]
fn lone_entry(btf: &FrozenBtf, diag_vals: &[f64], c: usize) -> Result<f64> {
    let slots = btf.diag_colptr()[c]..btf.diag_colptr()[c + 1];
    match diag_vals[slots].first() {
        Some(&v) if v != 0.0 => Ok(v),
        _ => Err(SparseError::ZeroPivot { column: c }),
    }
}

/// The factors of one run of Gilbert–Peierls blocks: flat CSC arrays
/// over its columns (see the module docs), column `j` of the arrays
/// being permuted column `c0 + j`.
#[derive(Debug)]
pub(crate) struct GpRun {
    /// The run's BTF blocks.
    blocks: Range<usize>,
    /// Its first permuted column.
    c0: usize,
    l_ptr: Vec<usize>,
    l_rows: Vec<usize>,
    l_vals: Vec<f64>,
    u_ptr: Vec<usize>,
    u_rows: Vec<usize>,
    u_vals: Vec<f64>,
    pinv: Vec<usize>,
    row_perm: Vec<usize>,
    /// What the last (re)factorization of the run did.
    tally: Tally,
}

impl GpRun {
    /// Factors the run of blocks `blocks` — ascending — with threshold
    /// partial pivoting, each block a window of the frozen store's
    /// values `diag_vals`. A failure names the run's smallest failing
    /// column.
    pub(crate) fn factor(
        btf: &FrozenBtf,
        diag_vals: &[f64],
        bounds: &[usize],
        blocks: Range<usize>,
        pivot_tol: f64,
    ) -> Result<GpRun> {
        let (c0, c1) = (bounds[blocks.start], bounds[blocks.end]);
        let with_ptr = |cols: usize| {
            let mut v = Vec::with_capacity(cols + 1);
            v.push(0);
            v
        };
        let mut run = GpRun {
            blocks: blocks.clone(),
            c0,
            l_ptr: with_ptr(c1 - c0),
            l_rows: Vec::new(),
            l_vals: Vec::new(),
            u_ptr: with_ptr(c1 - c0),
            u_rows: Vec::new(),
            u_vals: Vec::new(),
            pinv: Vec::with_capacity(c1 - c0),
            row_perm: Vec::with_capacity(c1 - c0),
            tally: Tally::default(),
        };
        for b in blocks {
            let (lo, hi) = (bounds[b], bounds[b + 1]);
            if hi - lo == 1 {
                // What Gilbert–Peierls makes of a 1×1 block.
                let v = lone_entry(btf, diag_vals, lo)?;
                run.push_col(&[], &[], &[0], &[v]);
                run.pinv.push(0);
                run.row_perm.push(0);
                continue;
            }
            let diag = btf.diag_cols(diag_vals, lo..hi);
            let blu = factor_block_column(diag, &[], pivot_tol, lo)?;
            // Room for the block at once: a large block grows the arrays
            // to its size, not past it.
            let (l_nnz, u_nnz) = (blu.l.nnz() - (hi - lo), blu.u.nnz());
            run.l_rows.reserve(l_nnz);
            run.l_vals.reserve(l_nnz);
            run.u_rows.reserve(u_nnz);
            run.u_vals.reserve(u_nnz);
            for j in 0..hi - lo {
                let (rows, vals) = (blu.l.col_rows(j), blu.l.col_values(j));
                debug_assert_eq!(rows[0], j, "L column {j} starts at its unit diagonal");
                let (u_rows, u_vals) = (blu.u.col_rows(j), blu.u.col_values(j));
                run.push_col(&rows[1..], &vals[1..], u_rows, u_vals);
            }
            run.pinv.extend_from_slice(&blu.pinv);
            run.row_perm.extend_from_slice(blu.row_perm.as_slice());
            run.tally.flops += blu.flops;
        }
        run.l_rows.shrink_to_fit();
        run.u_rows.shrink_to_fit();
        run.l_vals.shrink_to_fit();
        run.u_vals.shrink_to_fit();
        Ok(run)
    }

    /// Appends one column: `L` without its diagonal, `U` with the pivot
    /// last.
    fn push_col(&mut self, l_rows: &[usize], l_vals: &[f64], u_rows: &[usize], u_vals: &[f64]) {
        self.l_rows.extend_from_slice(l_rows);
        self.l_vals.extend_from_slice(l_vals);
        self.l_ptr.push(self.l_rows.len());
        self.u_rows.extend_from_slice(u_rows);
        self.u_vals.extend_from_slice(u_vals);
        self.u_ptr.push(self.u_rows.len());
        self.tally.pivot(u_vals[u_vals.len() - 1]);
    }

    /// What the last (re)factorization of the run did.
    pub(crate) fn tally(&self) -> Tally {
        self.tally
    }

    /// Refactors the run in place from the frozen store's values
    /// `diag_vals`, with its pivots and patterns: per block,
    /// [`refactor_block_column`]'s operations in its order, through the
    /// rung's `scatter_axpy`. A failure names the run's smallest failing
    /// column and hands `ws` back all zero.
    ///
    /// [`refactor_block_column`]: basker_klu::gp::refactor_block_column
    // basker-lint: deny-alloc
    pub(crate) fn refactor(
        &mut self,
        btf: &FrozenBtf,
        diag_vals: &[f64],
        bounds: &[usize],
        ws: &mut RefactorWorkspace,
    ) -> Result<()> {
        let ks = basker_kernels::active();
        let mut tally = Tally::default();
        for b in self.blocks.clone() {
            let (lo, hi) = (bounds[b], bounds[b + 1]);
            // The block's first column in the run's arrays.
            let at = lo - self.c0;
            if hi - lo == 1 {
                let v = lone_entry(btf, diag_vals, lo)?;
                self.u_vals[self.u_ptr[at]] = v;
                tally.pivot(v);
                continue;
            }
            let diag = btf.diag_cols(diag_vals, lo..hi);
            let xd = ws.accumulator(hi - lo);
            let pinv = &self.pinv[at..at + hi - lo];
            for j in 0..hi - lo {
                for (r, v) in diag.col(j) {
                    xd[pinv[r]] = v;
                }
                // Ascending pivotal order is a valid topological order.
                let (u0, u1) = (self.u_ptr[at + j], self.u_ptr[at + j + 1]);
                debug_assert_eq!(self.u_rows[u1 - 1], j);
                for &t in &self.u_rows[u0..u1 - 1] {
                    let xt = xd[t];
                    if xt != 0.0 {
                        let l = self.l_ptr[at + t]..self.l_ptr[at + t + 1];
                        let (rows, vals) = (&self.l_rows[l.clone()], &self.l_vals[l]);
                        ks.scatter_axpy(xd, rows, vals, -xt);
                        tally.flops += 2.0 * rows.len() as f64;
                    }
                }
                let pivot = xd[j];
                if pivot == 0.0 {
                    xd.fill(0.0);
                    return Err(SparseError::ZeroPivot { column: lo + j });
                }
                for q in u0..u1 {
                    let r = self.u_rows[q];
                    self.u_vals[q] = xd[r];
                    xd[r] = 0.0;
                }
                for q in self.l_ptr[at + j]..self.l_ptr[at + j + 1] {
                    let r = self.l_rows[q];
                    self.l_vals[q] = xd[r] / pivot;
                    xd[r] = 0.0;
                    tally.flops += 1.0;
                }
                tally.pivot(pivot);
            }
        }
        self.tally = tally;
        Ok(())
    }

    /// Solves `x ← U⁻¹·L⁻¹·P·x` for the block whose first column in the
    /// run's arrays is `at`, on the row-major panel `y` of its rows. A
    /// block that pivots off the diagonal is permuted into `scratch`,
    /// solved there and copied back; any other is solved in place.
    // basker-lint: deny-alloc
    #[inline]
    fn solve_block<const K: usize>(
        &self,
        ks: &Kernels,
        at: usize,
        y: &mut [[f64; K]],
        scratch: &mut [[f64; K]],
    ) {
        let nb = y.len();
        let perm = &self.row_perm[at..at + nb];
        if perm.iter().enumerate().all(|(k, &r)| k == r) {
            return self.substitute(ks, at, y);
        }
        let x = &mut scratch[..nb];
        for (s, &r) in x.iter_mut().zip(perm) {
            *s = y[r];
        }
        self.substitute(ks, at, x);
        y.copy_from_slice(x);
    }

    /// `x ← U⁻¹·L⁻¹·x` for the block whose first column in the run's
    /// arrays is `at`: one pass over its `L`, one over its `U`.
    // basker-lint: deny-alloc
    #[inline]
    fn substitute<const K: usize>(&self, ks: &Kernels, at: usize, x: &mut [[f64; K]]) {
        for j in 0..x.len() {
            let l = self.l_ptr[at + j]..self.l_ptr[at + j + 1];
            let xj = x[j];
            if !l.is_empty() && xj.iter().any(|&v| v != 0.0) {
                let (rows, vals) = (&self.l_rows[l.clone()], &self.l_vals[l]);
                ks.scatter_axpy_rows(x, rows, vals, &xj.map(|v| -v));
            }
        }
        for j in (0..x.len()).rev() {
            let (u0, last) = (self.u_ptr[at + j], self.u_ptr[at + j + 1] - 1);
            let pivot = self.u_vals[last];
            let xj = x[j].map(|v| v / pivot);
            x[j] = xj;
            if xj.iter().any(|&v| v != 0.0) {
                let (rows, vals) = (&self.u_rows[u0..last], &self.u_vals[u0..last]);
                ks.scatter_axpy_rows(x, rows, vals, &xj.map(|v| -v));
            }
        }
    }
}

/// The factors of every Gilbert–Peierls block: its runs, ascending,
/// and what their last (re)factorization did (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct GpStore {
    runs: Vec<GpRun>,
    tally: Tally,
}

impl GpStore {
    /// The store of `runs`, ascending.
    pub(crate) fn new(runs: Vec<GpRun>) -> GpStore {
        let mut store = GpStore {
            runs,
            tally: Tally::default(),
        };
        store.retally();
        store
    }

    /// The runs, for the items of a refactorization to take one each.
    pub(crate) fn runs_mut(&mut self) -> &mut [GpRun] {
        &mut self.runs
    }

    /// Folds what the runs' last (re)factorizations did.
    // basker-lint: deny-alloc
    pub(crate) fn retally(&mut self) {
        self.tally = Tally::default();
        for run in &self.runs {
            self.tally.merge(run.tally);
        }
    }

    /// What the last (re)factorization of the store did.
    pub(crate) fn tally(&self) -> Tally {
        self.tally
    }

    /// `|L+U|` of every block, the unit diagonal not counted.
    pub(crate) fn lu_nnz(&self) -> usize {
        let nnz = self.runs.iter().map(|r| r.l_rows.len() + r.u_rows.len());
        nnz.sum()
    }

    /// The block back-substitution over run `run` on the row-major
    /// panel `y` of every row: its blocks in reverse, each solved by
    /// `BlockLu::solve_in_place_with`'s passes over the block's window
    /// and its columns of the coupling matrix `couplings` pushed into
    /// the rows above. `scratch` must have as many rows as the largest
    /// block. Returns the run's first block.
    // basker-lint: deny-alloc
    pub(crate) fn solve_run<const K: usize>(
        &self,
        run: usize,
        bounds: &[usize],
        couplings: &CscMat,
        y: &mut [[f64; K]],
        scratch: &mut [[f64; K]],
    ) -> usize {
        let (run, ks) = (&self.runs[run], basker_kernels::active());
        for b in run.blocks.clone().rev() {
            let (lo, hi) = (bounds[b], bounds[b + 1]);
            if hi - lo > 1 {
                run.solve_block(ks, lo - run.c0, &mut y[lo..hi], scratch);
                push_columns(couplings, lo..hi, y, lo, 0);
                continue;
            }
            // A 1×1 block: its division, then `push_columns` of its one
            // column, inline.
            let pivot = run.u_vals[run.u_ptr[lo - run.c0]];
            let x = y[lo].map(|v| v / pivot);
            y[lo] = x;
            if x.iter().any(|&v| v != 0.0) {
                let (rows, vals) = (couplings.col_rows(lo), couplings.col_values(lo));
                ks.scatter_axpy_rows(y, rows, vals, &x.map(|v| -v));
            }
        }
        run.blocks.start
    }

    /// The run holding permuted column `c`, and `c`'s column in it.
    #[cfg(test)]
    fn find(&self, c: usize) -> (&GpRun, usize) {
        let run = &self.runs[self.runs.partition_point(|r| r.c0 <= c) - 1];
        assert!(c - run.c0 < run.pinv.len(), "column {c} is in no run");
        (run, c - run.c0)
    }

    /// Permuted column `c`: `L`'s rows and values, then `U`'s.
    #[cfg(test)]
    pub(crate) fn col(&self, c: usize) -> (&[usize], &[f64], &[usize], &[f64]) {
        let (run, j) = self.find(c);
        let l = run.l_ptr[j]..run.l_ptr[j + 1];
        let u = run.u_ptr[j]..run.u_ptr[j + 1];
        (
            &run.l_rows[l.clone()],
            &run.l_vals[l],
            &run.u_rows[u.clone()],
            &run.u_vals[u],
        )
    }

    /// The pivot sequences of the block over permuted rows `rows`:
    /// `(pinv, row_perm)`, block-local.
    #[cfg(test)]
    pub(crate) fn pivots(&self, rows: Range<usize>) -> (&[usize], &[usize]) {
        let (run, j) = self.find(rows.start);
        let at = j..j + rows.len();
        (&run.pinv[at.clone()], &run.row_perm[at])
    }

    /// Every pivot position, run by run.
    #[cfg(test)]
    pub(crate) fn pinv(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs.iter().flat_map(|r| r.pinv.iter().copied())
    }

    /// Every value, run by run, `L`'s then `U`'s.
    #[cfg(test)]
    pub(crate) fn values(&self) -> impl Iterator<Item = f64> + Clone + '_ {
        let runs = self.runs.iter();
        runs.flat_map(|r| r.l_vals.iter().chain(&r.u_vals)).copied()
    }

    /// Every permuted column the store holds, ascending.
    #[cfg(test)]
    pub(crate) fn columns(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs.iter().flat_map(|r| r.c0..r.c0 + r.pinv.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::solve_nd_in_place;
    use crate::structure::BlockKind;
    use crate::testmat::*;
    use crate::{Basker, BaskerNumeric, BaskerOptions, BlockFactors};
    use basker_klu::gp::{refactor_block_column, BlockLu, ColsView};
    use basker_sparse::workspace::{gather_panel, scatter_panel};
    use basker_sparse::SolveWorkspace;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The Gilbert–Peierls blocks of `num`, as `lo..hi`.
    fn gp_blocks(num: &BaskerNumeric) -> Vec<Range<usize>> {
        let st = num.sym.structure();
        (0..st.nblocks())
            .filter(|&b| matches!(st.kinds[b], BlockKind::Small))
            .map(|b| st.bounds[b]..st.bounds[b + 1])
            .collect()
    }

    /// Block `cols` of `num`'s image of `A`, as the last (re)factor read it.
    fn diag_of(num: &BaskerNumeric, cols: Range<usize>) -> ColsView<'_> {
        let btf = &num.sym.inner.frozen.btf;
        btf.diag_cols(&num.replay.diag_vals, cols)
    }

    /// The store's window `cols` is `blu`, bit for bit: patterns,
    /// values and pivot sequences.
    fn assert_window_is(store: &GpStore, cols: Range<usize>, blu: &BlockLu, what: &str) {
        for j in 0..cols.len() {
            let (lr, lv, ur, uv) = store.col(cols.start + j);
            assert_eq!(lr, &blu.l.col_rows(j)[1..], "{what}: L rows of column {j}");
            assert_eq!(
                bits(lv),
                bits(&blu.l.col_values(j)[1..]),
                "{what}: L of {j}"
            );
            assert_eq!(ur, blu.u.col_rows(j), "{what}: U rows of column {j}");
            assert_eq!(bits(uv), bits(blu.u.col_values(j)), "{what}: U of {j}");
        }
        let (pinv, row_perm) = store.pivots(cols);
        assert_eq!(pinv, blu.pinv, "{what}: pinv");
        assert_eq!(row_perm, blu.row_perm.as_slice(), "{what}: row permutation");
    }

    /// What the reference blocks add up to: their flops and pivots.
    fn tally_of<'a>(refs: impl IntoIterator<Item = &'a BlockLu>) -> Tally {
        let mut t = Tally::default();
        for blu in refs {
            let (lo, hi) = blu.pivot_range();
            t.merge(Tally {
                flops: blu.flops,
                min_pivot: lo,
                max_pivot: hi,
            });
        }
        t
    }

    /// The numeric's `K`-wide solve against the sweep the store
    /// replaces — every Gilbert–Peierls block by
    /// `BlockLu::solve_in_place_with` on its reference factors, every
    /// ND block by its own solve, each followed by its couplings —
    /// bit for bit.
    fn assert_solves_match<const K: usize>(num: &BaskerNumeric, refs: &[(Range<usize>, BlockLu)]) {
        let st = num.sym.structure();
        let n = st.n;
        let b: Vec<f64> = (0..K * n)
            .map(|i| match i / n {
                1 => 0.0,
                c => ((i * 7 + c) % 13) as f64 - 6.0,
            })
            .collect();
        let mut got = b.clone();
        num.solve_multi_in_place(&mut got, &mut SolveWorkspace::new());
        let mut want = b;
        let (mut y, mut scratch) = (vec![[0.0; K]; n], vec![[0.0; K]; st.max_block]);
        gather_panel(&want, st.row_perm.as_slice(), &mut y);
        let mut refs = refs.iter().rev();
        for blk in (0..st.nblocks()).rev() {
            let (lo, hi) = (st.bounds[blk], st.bounds[blk + 1]);
            match (&num.factors[blk], &st.kinds[blk]) {
                (BlockFactors::Gp(_), _) => {
                    let (cols, blu) = refs.next().unwrap();
                    assert_eq!(cols.start, lo);
                    blu.solve_in_place_with(&mut y[lo..hi], &mut scratch);
                }
                (BlockFactors::Nd(f), BlockKind::NdBig(nds)) => {
                    solve_nd_in_place(nds, f, &mut y[lo..hi], &mut scratch)
                }
                _ => unreachable!("factor kind mismatch"),
            }
            push_columns(&num.offdiag, lo..hi, &mut y, lo, 0);
        }
        scatter_panel(&y, st.col_perm.as_slice(), &mut want);
        assert!(bits(&got) == bits(&want), "K={K}");
    }

    /// On a mixed structure, a power grid and a circuit, at every width:
    /// the store holds, window by window, what `factor_block_column`
    /// computes on the same block — patterns, pivots, values, flops and
    /// pivot extremes — then what `refactor_block_column` makes of new
    /// values, and the numeric solves, one column and eight, as the sweep
    /// of `BlockLu::solve_in_place_with` does. A refactorization on the
    /// fresh factor's own values reproduces it.
    #[test]
    fn store_is_the_gp_kernels_window_by_window() {
        // The mixed structure's tail is all singletons.
        let cases = [
            ("heterogeneous", heterogeneous(10, 40), false),
            ("power grid", power_grid(40, 1000), true),
            ("circuit", circuit_like(6, 24), true),
        ];
        let mut ws = RefactorWorkspace::new();
        for (what, a, multi_row) in cases {
            let a2 = revalued(&a, |v| v * 1.25 + 0.001);
            // Without the weighted matching the tiny diagonals stay on
            // the diagonal, and partial pivoting leaves them.
            for (p, use_mwcm) in [(1usize, true), (2, true), (4, true), (2, false)] {
                let what = format!("{what}, p={p}, mwcm {use_mwcm}");
                let o = BaskerOptions {
                    use_mwcm,
                    ..opts(p, 64)
                };
                let sym = Basker::analyze(&a, &o).unwrap();
                let mut num = sym.factor(&a).unwrap();
                let blocks = gp_blocks(&num);
                let widest = blocks.iter().map(Range::len).max().unwrap();
                assert_eq!(widest > 2, multi_row, "{what}: widest block {widest}");
                let mut refs: Vec<_> = blocks
                    .into_iter()
                    .map(|cols| {
                        let blu = factor_block_column(diag_of(&num, cols.clone()), &[], 0.001, 0);
                        (cols, blu.unwrap())
                    })
                    .collect();
                for (cols, blu) in &refs {
                    assert_window_is(&num.gp, cols.clone(), blu, &what);
                }
                let fresh = num.gp.tally();
                assert_eq!(fresh, tally_of(refs.iter().map(|r| &r.1)), "{what}");
                // Solved in place, and through the scratch for the
                // blocks that pivot off the diagonal.
                let off_diagonal = refs.iter().any(|(_, blu)| {
                    let mut perm = blu.row_perm.as_slice().iter().enumerate();
                    perm.any(|(k, &r)| k != r)
                });
                assert_eq!(off_diagonal, multi_row && !use_mwcm, "{what}");
                assert_solves_match::<1>(&num, &refs);
                assert_solves_match::<8>(&num, &refs);
                let fresh_refs = refs.clone();
                let fresh_values: Vec<f64> = num.gp.values().collect();

                num.refactor(&a2).unwrap();
                for (cols, blu) in &mut refs {
                    let diag = diag_of(&num, cols.clone());
                    refactor_block_column(blu, diag, &[], cols.start, &mut ws).unwrap();
                }
                for (cols, blu) in &refs {
                    assert_window_is(&num.gp, cols.clone(), blu, &what);
                }
                assert_eq!(
                    num.gp.tally(),
                    tally_of(refs.iter().map(|r| &r.1)),
                    "{what}"
                );
                assert_solves_match::<1>(&num, &refs);
                assert_solves_match::<8>(&num, &refs);

                // Back to `a`: `refactor_block_column` on the fresh
                // factor, bit for bit — and so the fresh factor itself,
                // up to the rounding of its other update order (the
                // depth-first search's, not ascending pivotal order),
                // which the blocks of a power grid are too small for.
                num.refactor(&a).unwrap();
                for ((cols, blu), (_, mut fresh_blu)) in refs.iter_mut().zip(fresh_refs) {
                    let diag = diag_of(&num, cols.clone());
                    refactor_block_column(&mut fresh_blu, diag, &[], cols.start, &mut ws).unwrap();
                    assert_window_is(&num.gp, cols.clone(), &fresh_blu, &what);
                    *blu = fresh_blu;
                }
                let again = num.gp.tally();
                assert_eq!(again, tally_of(refs.iter().map(|r| &r.1)), "{what}");
                assert_eq!(again.flops, fresh.flops, "{what}");
                let close = |x: f64, y: f64| (x - y).abs() <= 1e-12 * x.abs().max(1.0);
                assert!(close(again.min_pivot, fresh.min_pivot), "{what}");
                assert!(close(again.max_pivot, fresh.max_pivot), "{what}");
                let moved = num.gp.values().zip(&fresh_values);
                assert!(moved.clone().all(|(x, &y)| close(x, y)), "{what}");
                let exact = moved.filter(|(x, y)| x.to_bits() == y.to_bits()).count();
                assert!(widest > 5 || exact == fresh_values.len(), "{what}");
            }
        }
    }

    /// A zero pivot in a singleton, one in the middle column of a 3×3
    /// block, or both: a fresh factor and a refactorization, inline or
    /// on the team, name the smallest failing permuted column.
    #[test]
    fn zero_pivots_name_the_smallest_failing_column() {
        let a = power_grid(40, 1000);
        for p in [1usize, 2, 4] {
            let sym = Basker::analyze(&a, &opts(p, 64)).unwrap();
            let st = sym.structure();
            assert!(
                sym.inner.runs.len() > 1,
                "p={p}: the blocks span several runs"
            );
            let rows = |b: usize| st.bounds[b + 1] - st.bounds[b];
            let blocks = 0..st.nblocks();
            let first_single = blocks.clone().find(|&b| rows(b) == 1).unwrap();
            let last_single = blocks.clone().rev().find(|&b| rows(b) == 1).unwrap();
            let threes: Vec<_> = blocks.filter(|&b| rows(b) == 3).collect();
            let three = threes[threes.len() / 2];
            let (s0, s1, mid) = (
                st.bounds[first_single],
                st.bounds[last_single],
                st.bounds[three] + 1,
            );
            assert!(s0 < mid && mid < s1);
            for collapsed in [&[s1][..], &[mid], &[mid, s1], &[s0, mid]] {
                let mut bad = a.clone();
                for &k in collapsed {
                    let c = st.col_perm.as_slice()[k];
                    bad.values_mut()[a.colptr()[c]..a.colptr()[c + 1]].fill(0.0);
                }
                let want = collapsed.iter().min().copied();
                let column = |r: basker_sparse::Result<()>| match r {
                    Err(SparseError::ZeroPivot { column }) => Some(column),
                    other => panic!("p={p}: expected a zero pivot, got {other:?}"),
                };
                assert_eq!(column(sym.factor(&bad).map(drop)), want, "p={p}: factor");
                let mut num = sym.factor(&a).unwrap();
                assert_eq!(column(num.refactor(&bad)), want, "p={p}: refactor");
                let inline = basker_runtime::shared_team(1, false);
                assert_eq!(
                    column(sym.factor(&a).unwrap().refactor_on(&bad, &inline)),
                    want,
                    "p={p}: inline refactor"
                );
                // The failed refactorization handed the scratch back clean.
                num.refactor(&a).unwrap();
                check_solve(&num, &a, 1e-10);
            }
        }
    }
}
