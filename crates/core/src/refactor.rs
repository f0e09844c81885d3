//! Refactorization as the replay of a recorded stage list: same
//! patterns and pivot sequences, fresh values, on the whole team.
//!
//! Circuit transient analysis factors thousands of matrices with one
//! pattern (paper §V-F); when value drift is mild enough that the old
//! pivot sequence stays stable, this path refreshes every factor block
//! without a single graph search. On a zero pivot the caller falls back
//! to a fresh [`factor`](crate::Basker::factor) (with pivoting).
//!
//! # The stage list
//!
//! With patterns and pivots frozen, a refactorization is the fresh
//! factorization's stage list (the [`stages`](crate::stages) module)
//! again — the same items in the same stages — with every item a value
//! refresh that chooses no pivot. Each item carries the flops it cost
//! the factorization, so a stage whose flops do not cover a dispatch
//! runs inline on the caller.
//!
//! # What is recorded when
//!
//! * **The value map, at analyze** (`Frozen`): where every nonzero of
//!   `A` lands in the permuted matrix — one block-diagonal store every
//!   diagonal block is a window of, and the coupling matrix's pattern —
//!   and, per ND-laid-out block, the boundaries of its 2-D blocks
//!   inside that store. A factorization's or a refactorization's image
//!   of `A` is one gather.
//! * **The stage list, by the fresh factorization** (`Replay`, left
//!   behind by the `factor` module): its stages and items, each with
//!   the flops it did, and for every reduction its term list and the
//!   pattern of the reduced block, so a reduction is value writes into
//!   retained storage.
//!
//! A refactorization records nothing, and allocates nothing of its own
//! (a dispatched stage costs the scheduler its task entries, nothing
//! per block or column).
//!
//! Items write disjoint factor storage through [`ItemCell`]s, and what
//! an item computes depends on neither the thread that runs it nor the
//! order its stage is claimed in, so the factors are bit-identical at
//! every team width.

use crate::frozen::FrozenBtf;
use crate::gp_store::{GpRun, GpStore};
use crate::parnum::NdFactors;
use crate::reduce::reduce_cols_into;
use crate::stages::{run_stage, Stage, Work};
use crate::structure::{NdSplit, NdStructure, Structure};
use basker_klu::gp::{lsolve_panel_refresh, refactor_block_column, ColsView, RefactorWorkspace};
use basker_runtime::WorkerTeam;
use basker_sparse::{CscMat, Result};
use std::cell::{RefCell, RefMut, UnsafeCell};

/// Deepest separator tree the replay keeps trailing-block views for on
/// the stack (2¹⁶ leaves).
pub(crate) const MAX_LEVELS: usize = 16;

/// No reduction: the panel of a leaf.
pub(crate) const NONE: usize = usize::MAX;

/// A value one stage item at a time may rewrite through a shared
/// reference: the factor blocks of a refactorization are handed to the
/// items of a stage this way, each item taking the cells of its own
/// block and nobody else's.
///
/// Reads go through `Deref` like the plain value. The one unsafe entry,
/// [`get_mut_unchecked`](Self::get_mut_unchecked), moves the
/// aliasing rule from the compiler to its caller.
#[repr(transparent)]
pub struct ItemCell<T>(UnsafeCell<T>);

// SAFETY: a shared `ItemCell<T>` lets any thread read the `T` (hence
// `T: Sync`) and, through the unsafe accessors, lets one thread at a
// time obtain `&mut T` (hence `T: Send`); keeping those two apart is
// the accessors' documented contract.
unsafe impl<T: Send + Sync> Sync for ItemCell<T> {}

impl<T> ItemCell<T> {
    /// Wraps a value.
    pub fn new(value: T) -> ItemCell<T> {
        ItemCell(UnsafeCell::new(value))
    }

    /// Views a uniquely borrowed slice as cells, so that the items of a
    /// stage can each take their own elements of it.
    pub fn from_mut_slice(slice: &mut [T]) -> &[ItemCell<T>] {
        // SAFETY: `ItemCell<T>` is `repr(transparent)` over
        // `UnsafeCell<T>`, which has `T`'s layout; the unique borrow
        // guarantees nothing else reaches the elements for as long as
        // the cells live (what `Cell::from_mut` relies on).
        unsafe { &*(slice as *mut [T] as *const [ItemCell<T>]) }
    }

    /// The contents, mutably.
    ///
    /// # Safety
    ///
    /// While the returned borrow lives, no other reference into this
    /// cell — shared ones obtained by dereferencing it included — may
    /// be used or created.
    #[allow(clippy::mut_from_ref)] // the point of the type; see # Safety
    pub unsafe fn get_mut_unchecked(&self) -> &mut T {
        // SAFETY: exclusivity is the caller's contract.
        unsafe { &mut *self.0.get() }
    }

    /// The contents of a run of cells, mutably.
    ///
    /// # Safety
    ///
    /// As [`get_mut_unchecked`](Self::get_mut_unchecked), for every
    /// cell of `cells`.
    #[allow(clippy::mut_from_ref)] // the point of the type; see # Safety
    pub unsafe fn slice_mut_unchecked(cells: &[ItemCell<T>]) -> &mut [T] {
        // SAFETY: layout as in `from_mut_slice`; `UnsafeCell` makes
        // writing through a pointer derived from `&[ItemCell<T>]`
        // legal, and exclusivity is the caller's contract.
        unsafe { std::slice::from_raw_parts_mut(cells.as_ptr() as *mut T, cells.len()) }
    }

    /// The contents of a run of cells.
    pub fn as_slice(cells: &[ItemCell<T>]) -> &[T] {
        // SAFETY: layout as in `from_mut_slice`; a shared read, like
        // `Deref` — writers promise not to overlap with it.
        unsafe { std::slice::from_raw_parts(cells.as_ptr() as *const T, cells.len()) }
    }
}

impl<T> std::ops::Deref for ItemCell<T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: a shared read; whoever holds a `&mut` from
        // `get_mut_unchecked` has promised no such read overlaps it.
        unsafe { &*self.0.get() }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ItemCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// The pattern-only record of one symbolic handle, made at analyze:
/// where `A`'s nonzeros land ([`FrozenBtf`]) and how every ND-laid-out
/// block's columns split into 2-D blocks.
pub(crate) struct Frozen {
    pub(crate) btf: FrozenBtf,
    /// The split of each block of [`Structure::nd_blocks`], at the same
    /// index.
    pub(crate) nd: Vec<NdSplit>,
}

impl Frozen {
    /// Records the value map of `a`'s pattern over `st`; fails if `a`
    /// cannot have the analyzed pattern.
    pub(crate) fn record(a: &CscMat, st: &Structure) -> Result<Frozen> {
        let btf = FrozenBtf::record(a, &st.row_perm, &st.col_perm, &st.bounds)?;
        let nd = (st.nd_blocks.iter())
            .map(|nd| NdSplit::record(&btf, st.bounds[nd.block], &nd.st))
            .collect();
        Ok(Frozen { btf, nd })
    }
}

/// One reduction `Â_{tgt,v} = A_{tgt,v} − Σ_k L_{tgt,k}·U_{k,v}` with
/// everything but the values: the target is `v` itself, an ancestor of
/// `v` (both feed `v`'s elimination), or an inner separator below `v`
/// (feeding the panel `U_{tgt,v}`). The fresh factorization fills it
/// in once every stage has run.
#[derive(Default)]
pub(crate) struct Reduction {
    pub(crate) v: usize,
    pub(crate) tgt: usize,
    /// The descendants `k` whose product is structurally nonzero,
    /// ascending — the order they are subtracted in.
    pub(crate) terms: Vec<usize>,
    pub(crate) nrows: usize,
    /// Pattern of `Â`, as the fresh factorization formed it.
    pub(crate) colptr: Vec<usize>,
    pub(crate) rowind: Vec<usize>,
    /// First slot of `Â`'s values in [`Replay::red_vals`].
    pub(crate) off: usize,
}

impl Reduction {
    fn ncols(&self) -> usize {
        self.colptr.len() - 1
    }

    /// `Â` over its values `vals`.
    fn view<'a>(&'a self, vals: &'a [f64]) -> ColsView<'a> {
        let shape = (self.nrows, self.ncols());
        ColsView::new(&self.colptr, 1, shape, &self.rowind, vals, 0)
    }
}

/// The `(L_{tgt,k}, U_{k,v})` pair of one reduction term.
#[inline]
fn operands<'a>(
    st: &NdStructure,
    f: &'a NdFactors,
    v: usize,
    tgt: usize,
    k: usize,
) -> (&'a CscMat, &'a CscMat) {
    (
        &f.fact_diag[k].below[st.anc_pos(k, tgt)],
        &f.fact_upper[v][k - st.subtree_start[v]],
    )
}

/// The reductions of one ND block, the one [`Structure::nd_blocks`]
/// lists at the same index.
pub(crate) struct NdReplay {
    /// In the order the stage layout files them: per separator, its
    /// panels' reductions, then its elimination targets.
    pub(crate) reductions: Vec<Reduction>,
    /// Per separator: its first elimination target in `reductions`
    /// (the diagonal; the ancestors' follow in order).
    pub(crate) target_of: Vec<usize>,
    /// Per separator, per descendant: the reduction feeding that panel
    /// when the descendant is itself a separator, else [`NONE`].
    pub(crate) panel_of: Vec<Vec<usize>>,
}

/// The stage list a fresh factorization ran and leaves behind for its
/// numeric, replayed by every refactorization (see the module docs).
pub(crate) struct Replay {
    /// Values of the frozen block-diagonal store.
    pub(crate) diag_vals: Vec<f64>,
    /// Values of every reduced block, back to back.
    pub(crate) red_vals: Vec<f64>,
    /// Per block of [`Structure::nd_blocks`], at the same index.
    pub(crate) nd: Vec<NdReplay>,
    pub(crate) stages: Vec<Stage>,
}

impl Replay {
    /// Replays the stage list on `team` over the values of `a`, which
    /// has the recorded pattern, into the ND blocks' factors `nd` and
    /// the store `gp`, and folds what the runs of `gp` did.
    /// Returns the nanoseconds the caller spent blocked in stage
    /// joins, `None` if no stage was dispatched. On a collapsed pivot
    /// the error names the smallest failing column of the first failing
    /// stage, whichever rank hit one first.
    // basker-lint: deny-alloc
    #[allow(clippy::too_many_arguments)] // the numeric's parts, borrowed apart
    pub(crate) fn run(
        &mut self,
        a: &CscMat,
        st: &Structure,
        frozen: &Frozen,
        nd: &mut [NdFactors],
        gp: &mut GpStore,
        couplings: &mut [f64],
        team: &WorkerTeam,
    ) -> Result<Option<u64>> {
        frozen.btf.gather(a, &mut self.diag_vals, couplings);
        let cx = Ctx {
            st,
            frozen,
            diag_vals: &self.diag_vals,
            factors: nd,
            gp: ItemCell::from_mut_slice(gp.runs_mut()),
            red_vals: ItemCell::from_mut_slice(&mut self.red_vals),
            nd: &self.nd,
        };
        let mut joined = None;
        for stage in &self.stages {
            let idle = run_stage(stage, team, |work| {
                WORKSPACE.with(|ws| {
                    let mut ws = ScrubOnUnwind(ws.borrow_mut());
                    run_item(&cx, work, &mut ws.0)
                })
            })?;
            if let Some(idle) = idle {
                joined = Some(joined.unwrap_or(0) + idle);
            }
        }
        gp.retally();
        Ok(joined)
    }
}

thread_local! {
    /// The kernels' accumulators. Thread-local because an item runs on
    /// whichever rank claims it, and items never wait, so the borrow
    /// cannot re-enter.
    static WORKSPACE: RefCell<RefactorWorkspace> = RefCell::new(RefactorWorkspace::new());
}

/// The thread's accumulators are shared by every refactorization the
/// thread ever runs an item of — other sessions' included — so an item
/// that unwinds (a service isolates a panicking stream and carries on)
/// must not leave them half-cleared.
struct ScrubOnUnwind<'a>(RefMut<'a, RefactorWorkspace>);

impl Drop for ScrubOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.reset();
        }
    }
}

/// Everything the items of a replay share.
struct Ctx<'a> {
    st: &'a Structure,
    frozen: &'a Frozen,
    diag_vals: &'a [f64],
    /// The ND blocks' factors: read only, each item writing through
    /// the cells of its own node or panel.
    factors: &'a [NdFactors],
    gp: &'a [ItemCell<GpRun>],
    red_vals: &'a [ItemCell<f64>],
    nd: &'a [NdReplay],
}

/// One ND block as its items see it.
struct NdCtx<'a> {
    rec: &'a NdReplay,
    st: &'a NdStructure,
    f: &'a NdFactors,
    /// First permuted index of the block.
    lo: usize,
    split: &'a NdSplit,
}

impl<'a> Ctx<'a> {
    fn nd(&self, nd: usize) -> NdCtx<'a> {
        let block = &self.st.nd_blocks[nd];
        NdCtx {
            rec: &self.nd[nd],
            st: &block.st,
            f: &self.factors[nd],
            lo: self.st.bounds[block.block],
            split: &self.frozen.nd[nd],
        }
    }

    /// `A_{r,v}` of an ND block, in place.
    fn a_block(&self, nd: &NdCtx<'a>, v: usize, r: usize) -> ColsView<'a> {
        nd.split
            .block(&self.frozen.btf, self.diag_vals, nd.lo, nd.st, v, r)
    }

    /// The value slots of columns `c0..c1` of a reduced block.
    fn red_cells(&self, red: &Reduction, c0: usize, c1: usize) -> &'a [ItemCell<f64>] {
        &self.red_vals[red.off + red.colptr[c0]..red.off + red.colptr[c1]]
    }

    /// A reduced block some earlier stage finished.
    fn reduced(&self, red: &'a Reduction) -> ColsView<'a> {
        let vals = ItemCell::as_slice(self.red_cells(red, 0, red.ncols()));
        red.view(vals)
    }

    /// Rewrites columns `c0..c1` of `red` into `out`, their value slots.
    // basker-lint: deny-alloc
    fn reduce(
        &self,
        nd: &NdCtx<'a>,
        red: &Reduction,
        c0: usize,
        c1: usize,
        out: &mut [f64],
        ws: &mut RefactorWorkspace,
    ) {
        let (st, f, v, tgt) = (nd.st, nd.f, red.v, red.tgt);
        reduce_cols_into(
            self.a_block(nd, v, tgt),
            red.terms.iter().map(move |&k| operands(st, f, v, tgt, k)),
            c0..c1,
            &red.colptr,
            &red.rowind,
            out,
            ws.accumulator(red.nrows),
        );
    }
}

/// Runs one item.
// basker-lint: deny-alloc
fn run_item(cx: &Ctx<'_>, work: Work, ws: &mut RefactorWorkspace) -> Result<()> {
    let bounds = &cx.st.bounds;
    let btf = &cx.frozen.btf;
    match work {
        Work::Gp { run } => {
            // SAFETY: one item per run, and no other item reads or
            // writes a run's arrays.
            let run = unsafe { cx.gp[run].get_mut_unchecked() };
            run.refactor(btf, cx.diag_vals, bounds, ws)
        }
        Work::Column { nd, v } => {
            let nd = cx.nd(nd);
            // SAFETY: one item per node, and nothing reads a block
            // column in the stage that rewrites it.
            let blu = unsafe { nd.f.fact_diag[v].get_mut_unchecked() };
            let ancestors = &nd.st.ancestors[v];
            let mut below = [ColsView::EMPTY; MAX_LEVELS];
            let diag = if nd.st.nd.nodes[v].is_leaf() {
                for (view, &a) in below.iter_mut().zip(ancestors) {
                    *view = cx.a_block(&nd, v, a);
                }
                cx.a_block(&nd, v, v)
            } else {
                let targets = &nd.rec.reductions[nd.rec.target_of[v]..];
                for (view, red) in below.iter_mut().zip(&targets[1..=ancestors.len()]) {
                    *view = cx.reduced(red);
                }
                cx.reduced(&targets[0])
            };
            let off = nd.lo + nd.st.nd.nodes[v].range.start;
            refactor_block_column(blu, diag, &below[..ancestors.len()], off, ws)
        }
        Work::Panel { nd, v, k } => {
            let nd = cx.nd(nd);
            let slot = k - nd.st.subtree_start[v];
            // SAFETY: one item per panel; its readers are in later
            // stages.
            let out = unsafe { nd.f.fact_upper[v][slot].get_mut_unchecked() };
            let b = match nd.rec.panel_of[v][slot] {
                NONE => cx.a_block(&nd, v, k),
                r => {
                    let red = &nd.rec.reductions[r];
                    // SAFETY: this reduction feeds this panel alone;
                    // no other item reads or writes its slots.
                    let vals =
                        unsafe { ItemCell::slice_mut_unchecked(cx.red_cells(red, 0, red.ncols())) };
                    cx.reduce(&nd, red, 0, red.ncols(), vals, ws);
                    red.view(vals)
                }
            };
            lsolve_panel_refresh(&nd.f.fact_diag[k], b, out, ws);
            Ok(())
        }
        Work::Reduce { nd, r, c0, c1 } => {
            let nd = cx.nd(nd);
            let red = &nd.rec.reductions[r];
            // SAFETY: one item per column range of a reduction, and
            // the elimination that reads them is a later stage.
            let out = unsafe { ItemCell::slice_mut_unchecked(cx.red_cells(red, c0, c1)) };
            cx.reduce(&nd, red, c0, c1, out, ws);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::ItemCell;
    use crate::stages::DISPATCH_BREAK_EVEN_FLOPS;
    use crate::testmat::*;
    use crate::Basker;
    use basker_runtime::shared_team;
    use basker_sparse::SparseError;

    /// Two disjoint windows of one run of cells, written at once
    /// through `slice_mut_unchecked`, read back through `as_slice` and
    /// through each cell's `Deref`, then through the slice itself.
    #[test]
    fn item_cell_windows_round_trip() {
        let want: Vec<f64> = (0..10).map(|i| i as f64 * 1.5 - 2.0).collect();
        let mut vals = vec![0.0; want.len()];
        let cells = ItemCell::from_mut_slice(&mut vals);
        let (front, back) = cells.split_at(4);
        // SAFETY: the windows are disjoint, and nothing else reads or
        // writes the cells while the two borrows live.
        let (front, back) = unsafe {
            (
                ItemCell::slice_mut_unchecked(front),
                ItemCell::slice_mut_unchecked(back),
            )
        };
        front.copy_from_slice(&want[..4]);
        back.copy_from_slice(&want[4..]);
        assert_eq!(ItemCell::as_slice(cells), want);
        assert!(cells.iter().map(|c| **c).eq(want.iter().copied()));
        assert_eq!(vals, want);
    }

    /// After a value-only refresh an ND block solves the new system —
    /// from the numeric's first refactorization and from the ones
    /// after it.
    #[test]
    fn nd_refactor_matches_fresh_factor() {
        let a = grid2d_unsym(7);
        let sym = Basker::analyze(
            &a,
            &crate::BaskerOptions {
                use_btf: false,
                ..opts(4, 0)
            },
        )
        .unwrap();
        let mut num = sym.factor(&a).unwrap();
        assert_eq!(num.stats.nd_blocks, 1);
        let a2 = revalued(&a, |v| v * 1.1 - 0.05);
        num.refactor(&a2).unwrap();
        check_solve(&num, &a2, 1e-11);
        // And again.
        num.refactor(&a).unwrap();
        check_solve(&num, &a, 1e-11);
    }

    /// Inline on a width-1 team and dispatched on the handle's own, the
    /// replay writes the same bits — on an ND block with a wide
    /// separator, on an ND block with a tail of tiny blocks, with
    /// mid-size blocks in between and on nothing but tiny blocks — and
    /// what it writes solves like a fresh factor.
    #[test]
    fn replay_is_bit_identical_at_every_width() {
        let inline = shared_team(1, false);
        let cases = [
            grid2d_unsym(32),
            heterogeneous(28, 60),
            with_mid_blocks(28, 4, 60),
            tiny_blocks(9_000),
        ];
        for a in cases {
            let a2 = revalued(&a, |v| v * 1.25 + 0.001);
            for p in [1usize, 2, 4] {
                let sym = Basker::analyze(&a, &opts(p, 64)).unwrap();
                let mut serial = sym.factor(&a).unwrap();
                let mut team = sym.factor(&a).unwrap();
                for m in [&a2, &a, &a2] {
                    serial.refactor_on(m, &inline).unwrap();
                    team.refactor(m).unwrap();
                    assert_eq!(factor_values(&serial), factor_values(&team), "p={p}");
                    assert_eq!(serial.stats.flops, team.stats.flops);
                }
                assert_solves_like_fresh(&team, &sym.factor(&a2).unwrap(), &a2);
                // The comparison means something: past one thread, the
                // team's replay dispatched stages the other ran inline.
                let wide = team
                    .replay
                    .stages
                    .iter()
                    .filter(|s| s.items.len() > 1 && s.flops >= DISPATCH_BREAK_EVEN_FLOPS);
                assert!(p == 1 || wide.count() > 0, "p={p}");
            }
        }
    }

    /// A pivot collapses inside the second ND leaf, one in a late
    /// fine-BTF block, or both in the same stage: inline or on the team,
    /// whichever rank hits one first, the error names the smallest
    /// failing permuted column.
    #[test]
    fn smallest_failing_column_wins_at_every_width() {
        let a = heterogeneous(28, 60);
        let inline = shared_team(1, false);
        for p in [1usize, 2, 4] {
            let sym = Basker::analyze(&a, &opts(p, 64)).unwrap();
            let st = sym.structure();
            let nd_block = (0..st.nblocks())
                .find(|&b| st.bounds[b + 1] - st.bounds[b] > 1)
                .unwrap();
            // The last column of the ND block's second leaf (of its
            // only leaf at p = 1), and of the last tiny block.
            let nds = (st.nd_block(nd_block)).expect("expected the grid to be ND-laid-out");
            let leaf = *nds.leaf_of_thread.get(1).unwrap_or(&0);
            let in_leaf = st.bounds[nd_block] + nds.nd.nodes[leaf].range.end - 1;
            let tiny = st.bounds[st.nblocks()] - 1;
            for collapsed in [&[in_leaf][..], &[tiny], &[in_leaf, tiny]] {
                let mut bad = a.clone();
                for &k in collapsed {
                    let c = st.col_perm.as_slice()[k];
                    bad.values_mut()[a.colptr()[c]..a.colptr()[c + 1]].fill(0.0);
                }
                for team in [None, Some(&inline)] {
                    let mut num = sym.factor(&a).unwrap();
                    let err = match team {
                        None => num.refactor(&bad),
                        Some(t) => num.refactor_on(&bad, t),
                    };
                    match err {
                        Err(SparseError::ZeroPivot { column }) => {
                            assert_eq!(Some(&column), collapsed.iter().min(), "p={p}")
                        }
                        other => panic!("expected a zero pivot, got {other:?}"),
                    }
                }
            }
        }
    }
}
