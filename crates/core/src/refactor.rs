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
//! With patterns and pivots frozen, a refactorization is a fixed set of
//! kernel calls with static dependencies — Kim et al.'s partitioned
//! block tasks, read off Basker's own 2-D structure. `Replay` records
//! them as a list of **stages**, each a bag of independent items:
//!
//! 1. every ND leaf's stacked block column `[A_ll; A_{a,l}…]`, every
//!    fine-BTF block (tiny ones coalesced, in BTF order, into runs worth
//!    a dispatch) and every supernodal block — nothing here depends on
//!    anything;
//! 2. then per separator level `ℓ`, for every separator `v` on it:
//!    the panel refreshes `U_{k,v}`, one stage per tree level of the
//!    descendant `k` (an inner separator's panel reduces over its own
//!    descendants' panels, so it runs after them — Alg. 4's tree-level
//!    order); the reductions `Â_{t,v} = A_{t,v} − Σ L_{t,k}·U_{k,v}`,
//!    one item per target and column chunk; and one elimination item
//!    per node.
//!
//! A stage runs through [`WorkerTeam::run_worklist`] in descending
//! recorded-flop order, so the big items are claimed first and the
//! small ones fill the tail. A stage whose recorded flops do not cover
//! a dispatch ([`DISPATCH_BREAK_EVEN_FLOPS`]) — and every stage of a
//! width-1 team — runs inline on the caller: the same list, not a
//! second sweep.
//!
//! # Why joins, not a counter DAG
//!
//! The only synchronization is `run_worklist`'s own scoped join between
//! stages: model-checked already, parked on a condvar while it waits,
//! drained inline when the caller is itself a rank of the team (a
//! service worker), never spawning. A per-task dependency-counter DAG
//! would overlap the tail of one stage with the head of the next, but
//! the measured shape does not pay for a new lock-free protocol: the
//! separator stages are a sliver of the work on circuits (a 3-column
//! separator under two 15 000-column leaves) and wide enough to fill
//! the team on meshes.
//!
//! # What is recorded when
//!
//! * **Once per symbolic handle**, on the first refactorization
//!   (`Frozen`; `factor` records nothing): where every nonzero of `A`
//!   lands in the permuted matrix — one block-diagonal store every
//!   diagonal block is a window of, the couplings in the solve's order
//!   — and, per ND-laid-out block, the boundaries of its 2-D blocks
//!   inside that store. A step's data movement is then one gather;
//!   the per-step `permute_both`, block extraction and coupling rebuild
//!   are gone.
//! * **Once per numeric**, on its first refactorization (`Replay`):
//!   the stage list with each item's flops, and for every reduction its
//!   term list and the pattern of the reduced block, so a reduction is
//!   value writes into retained storage.
//!
//! After that a refactorization allocates nothing of its own (a
//! dispatched stage costs the scheduler its task entries, nothing per
//! block or column).
//!
//! Items write disjoint factor storage through [`ItemCell`]s, and what
//! an item computes depends on neither the thread that runs it nor the
//! order its stage is claimed in, so the factors are bit-identical at
//! every team width.

use crate::frozen::FrozenBtf;
use crate::parnum::NdFactors;
use crate::reduce::{reduce_block, reduce_cols_into};
use crate::structure::{BlockKind, NdBlocks, NdSplit, NdStructure, Structure};
use crate::{keep_smallest_column, BlockFactors};
use basker_klu::gp::{
    lsolve_panel_refresh, refactor_block_column, BlockFactor, ColsView, RefactorWorkspace,
};
use basker_runtime::WorkerTeam;
use basker_sparse::{CscMat, Result, SparseError};
use std::cell::{Cell, RefCell, RefMut, UnsafeCell};
use std::sync::Mutex;
use std::time::Instant;

/// Recorded flops a stage must carry before the team is woken for it.
/// A dispatch costs up to ≈ 40 µs on a loaded host (the benchmark's
/// `runtime.broadcast_us`), the refactor kernels retire 1–2 flops per
/// nanosecond, and splitting a stage saves at most `1 − 1/width` of it:
/// below ≈ 10⁵ flops (50–100 µs) the join costs more than it buys. The
/// same figure sizes the runs tiny fine-BTF blocks are coalesced into.
pub const DISPATCH_BREAK_EVEN_FLOPS: f64 = 1.0e5;

/// Deepest separator tree the replay keeps trailing-block views for on
/// the stack (2¹⁶ leaves).
const MAX_LEVELS: usize = 16;

const NONE: usize = usize::MAX;

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

impl<T: Clone> Clone for ItemCell<T> {
    fn clone(&self) -> Self {
        ItemCell::new((**self).clone())
    }
}

/// The pattern-only record of one symbolic handle: where `A`'s nonzeros
/// land ([`FrozenBtf`]) and how every ND-laid-out block's columns split
/// into 2-D blocks. Independent of the plan — a block keeps its place
/// in the store whichever strategy reads it.
pub(crate) struct Frozen {
    pub(crate) btf: FrozenBtf,
    /// `(BTF block, its split)` per ND-laid-out block, ascending.
    nd: Vec<(usize, NdSplit)>,
}

impl Frozen {
    /// Records the value map of `a`'s pattern over `st`; fails if `a`
    /// cannot have the analyzed pattern.
    pub(crate) fn record(a: &CscMat, st: &Structure) -> Result<Frozen> {
        let btf = FrozenBtf::record(a, &st.row_perm, &st.col_perm, &st.bounds)?;
        let nd = st
            .kinds
            .iter()
            .enumerate()
            .filter_map(|(b, kind)| match kind {
                BlockKind::NdBig(nds) => Some((b, NdSplit::record(&btf, st.bounds[b], nds))),
                BlockKind::Small => None,
            })
            .collect();
        Ok(Frozen { btf, nd })
    }
}

/// One reduction `Â_{tgt,v} = A_{tgt,v} − Σ_k L_{tgt,k}·U_{k,v}` with
/// everything but the values: the target is `v` itself, an ancestor of
/// `v` (both feed `v`'s elimination), or an inner separator below `v`
/// (feeding the panel `U_{tgt,v}`).
struct Reduction {
    v: usize,
    tgt: usize,
    /// The descendants `k` whose product is structurally nonzero,
    /// ascending — the order they are subtracted in.
    terms: Vec<usize>,
    nrows: usize,
    /// Pattern of `Â`, as [`reduce_block`] forms it.
    colptr: Vec<usize>,
    rowind: Vec<usize>,
    /// First slot of `Â`'s values in [`Replay::red_vals`].
    off: usize,
}

impl Reduction {
    fn record(
        st: &NdStructure,
        f: &NdFactors,
        v: usize,
        tgt: usize,
        a: &CscMat,
        red_len: &mut usize,
    ) -> Reduction {
        let terms: Vec<usize> = st
            .descendants(tgt.min(v))
            .filter(|&k| {
                let (l, u) = operands(st, f, v, tgt, k);
                l.nnz() > 0 && u.nnz() > 0
            })
            .collect();
        let refs: Vec<(&CscMat, &CscMat)> =
            terms.iter().map(|&k| operands(st, f, v, tgt, k)).collect();
        let out = reduce_block(a, &refs);
        let off = *red_len;
        *red_len += out.nnz();
        Reduction {
            v,
            tgt,
            terms,
            nrows: out.nrows(),
            colptr: out.colptr().to_vec(),
            rowind: out.rowind().to_vec(),
            off,
        }
    }

    fn ncols(&self) -> usize {
        self.colptr.len() - 1
    }

    /// Splits the columns into chunks of about one dispatch's worth of
    /// work: `(first column, end column, flops)`.
    fn chunks(&self, st: &NdStructure, f: &NdFactors) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::new();
        let (mut c0, mut acc) = (0, 0.0);
        for c in 0..self.ncols() {
            acc += (self.colptr[c + 1] - self.colptr[c]) as f64;
            for &k in &self.terms {
                let (l, u) = operands(st, f, self.v, self.tgt, k);
                for &t in u.col_rows(c) {
                    acc += 2.0 * (l.colptr()[t + 1] - l.colptr()[t]) as f64;
                }
            }
            if acc >= DISPATCH_BREAK_EVEN_FLOPS || c + 1 == self.ncols() {
                out.push((c0, c + 1, acc));
                (c0, acc) = (c + 1, 0.0);
            }
        }
        out
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

/// Flops of the panel solve `U = L⁻¹·B` over `U`'s recorded pattern.
fn panel_flops(l: &CscMat, u: &CscMat) -> f64 {
    u.rowind()
        .iter()
        .map(|&t| 2.0 * (l.colptr()[t + 1] - l.colptr()[t] - 1) as f64)
        .sum()
}

/// The reductions of one ND block routed to the team.
struct NdRecord {
    /// BTF block index.
    block: usize,
    /// Index of the block's [`NdSplit`] in [`Frozen::nd`].
    split: usize,
    reductions: Vec<Reduction>,
    /// Per separator: its first elimination target in `reductions`
    /// (the diagonal; the ancestors' follow in order).
    target_of: Vec<usize>,
    /// Per separator, per descendant: the reduction feeding that panel
    /// when the descendant is itself a separator, else [`NONE`].
    panel_of: Vec<Vec<usize>>,
}

/// What one item does. Items of one stage touch disjoint factor
/// storage and read only what earlier stages wrote.
#[derive(Debug, Clone, Copy)]
enum Work {
    /// Fine-BTF blocks `b0..b1`, Gilbert–Peierls, in BTF order.
    Gp { b0: usize, b1: usize },
    /// One supernodal block.
    Sn { b: usize },
    /// The stacked block column of node `v`: a leaf over `A`'s blocks,
    /// a separator over its reduced blocks.
    Column { nd: usize, v: usize },
    /// The panel `U_{k,v}`.
    Panel { nd: usize, v: usize, k: usize },
    /// Columns `c0..c1` of reduction `r`.
    Reduce {
        nd: usize,
        r: usize,
        c0: usize,
        c1: usize,
    },
}

struct Item {
    work: Work,
    /// Recorded flops (for a run of tiny blocks, plus two per gathered
    /// entry so that flop-less singletons still weigh something).
    flops: f64,
}

struct Stage {
    /// Descending by recorded flops: the claim order.
    items: Vec<Item>,
    flops: f64,
}

/// What one numeric records on its first refactorization and replays
/// on every one (see the module docs).
pub(crate) struct Replay {
    /// Values of the frozen block-diagonal store.
    diag_vals: Vec<f64>,
    /// Values of every reduced block, back to back.
    red_vals: Vec<f64>,
    nd: Vec<NdRecord>,
    stages: Vec<Stage>,
    /// The blocks whose factors count flops (all but singletons),
    /// ascending.
    heavy: Vec<usize>,
}

impl Replay {
    /// Records the stage list of `factors` — and takes the ND blocks'
    /// retained `A` blocks, whose patterns it needs once and whose
    /// values the frozen store replaces.
    pub(crate) fn record(st: &Structure, frozen: &Frozen, factors: &mut [BlockFactors]) -> Replay {
        let colptr = frozen.btf.diag_colptr();
        let mut stages: Vec<Vec<Item>> = vec![Vec::new()];
        let mut nd = Vec::new();
        let mut heavy = Vec::new();
        let mut red_len = 0;
        // The open run of Gilbert–Peierls blocks.
        let mut run: Option<(usize, f64)> = None;
        fn close(run: &mut Option<(usize, f64)>, b1: usize, stage: &mut Vec<Item>) {
            if let Some((b0, flops)) = run.take() {
                stage.push(Item {
                    work: Work::Gp { b0, b1 },
                    flops,
                });
            }
        }
        for (b, f) in factors.iter_mut().enumerate() {
            let (lo, hi) = (st.bounds[b], st.bounds[b + 1]);
            if !matches!(f, BlockFactors::Gp(BlockFactor::Singleton(_))) {
                heavy.push(b);
            }
            if !matches!(f, BlockFactors::Gp(_)) {
                close(&mut run, b, &mut stages[0]);
            }
            match f {
                BlockFactors::Gp(blu) => {
                    let (_, flops) = run.get_or_insert((b, 0.0));
                    *flops += blu.flops() + 2.0 * (colptr[hi] - colptr[lo]) as f64;
                    if *flops >= DISPATCH_BREAK_EVEN_FLOPS {
                        close(&mut run, b + 1, &mut stages[0]);
                    }
                }
                BlockFactors::Sn(sn) => stages[0].push(Item {
                    work: Work::Sn { b },
                    flops: sn.num.flops,
                }),
                BlockFactors::Nd(part) => {
                    let BlockKind::NdBig(nds) = &st.kinds[b] else {
                        unreachable!("factor kind mismatch");
                    };
                    let blocks = part
                        .blocks
                        .take()
                        .expect("A blocks are retained until the replay is recorded");
                    let split = frozen
                        .nd
                        .iter()
                        .position(|&(sb, _)| sb == b)
                        .expect("every ND-laid-out block has a split");
                    let rec = NdRecord::record(
                        nd.len(),
                        b,
                        split,
                        nds,
                        &blocks,
                        &part.f,
                        &mut stages,
                        &mut red_len,
                    );
                    nd.push(rec);
                }
            }
        }
        close(&mut run, factors.len(), &mut stages[0]);

        let stages: Vec<Stage> = stages
            .into_iter()
            .filter(|items| !items.is_empty())
            .map(|mut items| {
                // Stable, so ties keep block order: the list is the
                // same on every run.
                items.sort_by(|x, y| y.flops.total_cmp(&x.flops));
                Stage {
                    flops: items.iter().map(|i| i.flops).sum(),
                    items,
                }
            })
            .collect();
        Replay {
            diag_vals: vec![0.0; frozen.btf.diag_nnz()],
            red_vals: vec![0.0; red_len],
            nd,
            stages,
            heavy,
        }
    }

    /// The blocks whose factors count flops, ascending.
    pub(crate) fn heavy_blocks(&self) -> &[usize] {
        &self.heavy
    }

    /// Replays the stage list on `team` over the values of `a`, which
    /// has the recorded pattern. Returns the nanoseconds the caller
    /// spent blocked in stage joins, `None` if no stage was dispatched.
    /// On a collapsed pivot the error names the smallest failing
    /// column of the first failing stage, whichever rank hit one first.
    // basker-lint: deny-alloc
    pub(crate) fn run(
        &mut self,
        a: &CscMat,
        st: &Structure,
        frozen: &Frozen,
        factors: &mut [BlockFactors],
        couplings: &mut [f64],
        team: &WorkerTeam,
    ) -> Result<Option<u64>> {
        frozen.btf.gather(a, &mut self.diag_vals, couplings);
        let cx = Ctx {
            st,
            frozen,
            diag_vals: &self.diag_vals,
            factors: ItemCell::from_mut_slice(factors),
            red_vals: ItemCell::from_mut_slice(&mut self.red_vals),
            nd: &self.nd,
        };
        let failed: Mutex<Option<SparseError>> = Mutex::new(None);
        let mut joined = None;
        for stage in &self.stages {
            let run = |i: usize| {
                let outcome = WORKSPACE.with(|ws| {
                    let mut ws = ScrubOnUnwind(ws.borrow_mut());
                    run_item(&cx, stage.items[i].work, &mut ws.0)
                });
                if let Err(e) = outcome {
                    keep_smallest_column(&failed, e);
                }
                // On the thread that dispatched the stage: when its
                // last item ended is when its wait for the join began.
                CALLER_IDLE_SINCE.with(|c| {
                    if c.get().is_some() {
                        c.set(Some(Instant::now()));
                    }
                });
            };
            let n = stage.items.len();
            if team.width() > 1 && n > 1 && stage.flops >= DISPATCH_BREAK_EVEN_FLOPS {
                CALLER_IDLE_SINCE.with(|c| c.set(Some(Instant::now())));
                team.run_worklist(n, run);
                let idle = CALLER_IDLE_SINCE
                    .with(Cell::take)
                    .map_or(0, |since| since.elapsed().as_nanos() as u64);
                joined = Some(joined.unwrap_or(0) + idle);
            } else {
                (0..n).for_each(run);
            }
            // Every item of the stage has run to its end, so this is
            // the smallest failing column at any width.
            if let Some(e) = failed
                .lock()
                .expect("nothing panics under this lock")
                .take()
            {
                return Err(e);
            }
        }
        Ok(joined)
    }
}

impl NdRecord {
    /// Records the reductions of one ND block and files its items under
    /// their stages.
    #[allow(clippy::too_many_arguments)]
    fn record(
        nd: usize,
        block: usize,
        split: usize,
        st: &NdStructure,
        blocks: &NdBlocks,
        f: &NdFactors,
        stages: &mut Vec<Vec<Item>>,
        red_len: &mut usize,
    ) -> NdRecord {
        assert!(st.nd.levels <= MAX_LEVELS, "separator tree too deep");
        let nn = st.nnodes();
        let mut rec = NdRecord {
            block,
            split,
            reductions: Vec::new(),
            target_of: vec![NONE; nn],
            panel_of: vec![Vec::new(); nn],
        };
        let mut file = |stage: usize, work: Work, flops: f64| {
            if stages.len() <= stage {
                stages.resize_with(stage + 1, Vec::new);
            }
            stages[stage].push(Item { work, flops });
        };
        for v in 0..nn {
            let column = (Work::Column { nd, v }, f.fact_diag[v].flops);
            if st.nd.nodes[v].is_leaf() {
                file(0, column.0, column.1);
                continue;
            }
            // Level ℓ takes ℓ + 2 stages after those of every level
            // below it: ℓ of panels (by the descendant's tree level),
            // the reductions, the eliminations.
            let level = st.nd.tree_level(v);
            let base = 1 + (1..level).map(|m| m + 2).sum::<usize>();
            let start = st.subtree_start[v];
            rec.panel_of[v] = vec![NONE; v - start];
            for k in st.descendants(v) {
                let mut flops = panel_flops(&f.fact_diag[k].l, &f.fact_upper[v][k - start]);
                if !st.nd.nodes[k].is_leaf() {
                    let red = Reduction::record(st, f, v, k, &blocks.upper[v][k - start], red_len);
                    flops += red.chunks(st, f).iter().map(|c| c.2).sum::<f64>();
                    rec.panel_of[v][k - start] = rec.reductions.len();
                    rec.reductions.push(red);
                }
                file(base + st.nd.tree_level(k), Work::Panel { nd, v, k }, flops);
            }
            rec.target_of[v] = rec.reductions.len();
            let targets = std::iter::once((v, &blocks.diag[v]))
                .chain(st.ancestors[v].iter().copied().zip(&blocks.lower[v]));
            for (tgt, a_tgt) in targets {
                let red = Reduction::record(st, f, v, tgt, a_tgt, red_len);
                let r = rec.reductions.len();
                for (c0, c1, flops) in red.chunks(st, f) {
                    file(base + level, Work::Reduce { nd, r, c0, c1 }, flops);
                }
                rec.reductions.push(red);
            }
            file(base + level + 1, column.0, column.1);
        }
        rec
    }
}

thread_local! {
    /// The kernels' accumulators. Thread-local because an item runs on
    /// whichever rank claims it — or on a foreign thread assisting the
    /// stage — and items never wait, so the borrow cannot re-enter.
    static WORKSPACE: RefCell<RefactorWorkspace> = RefCell::new(RefactorWorkspace::new());

    /// Set on the thread that dispatched a stage, for the stage's
    /// duration: the end of the last item it ran itself (see
    /// [`Replay::run`]).
    static CALLER_IDLE_SINCE: Cell<Option<Instant>> = const { Cell::new(None) };
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
    factors: &'a [ItemCell<BlockFactors>],
    red_vals: &'a [ItemCell<f64>],
    nd: &'a [NdRecord],
}

/// One ND block as its items see it.
struct NdCtx<'a> {
    rec: &'a NdRecord,
    st: &'a NdStructure,
    f: &'a NdFactors,
    /// First permuted index of the block.
    lo: usize,
    split: &'a NdSplit,
}

impl<'a> Ctx<'a> {
    fn nd(&self, nd: usize) -> NdCtx<'a> {
        let rec = &self.nd[nd];
        // A shared read of the block's entry: its items write only the
        // cells inside it.
        let (BlockFactors::Nd(part), BlockKind::NdBig(st)) =
            (&*self.factors[rec.block], &self.st.kinds[rec.block])
        else {
            unreachable!("factor kind mismatch");
        };
        NdCtx {
            rec,
            st,
            f: &part.f,
            lo: self.st.bounds[rec.block],
            split: &self.frozen.nd[rec.split].1,
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
        ColsView::new(&red.colptr, 1, red.ncols(), &red.rowind, vals, 0)
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
        Work::Gp { b0, b1 } => {
            // SAFETY: runs partition the Gilbert–Peierls blocks — one
            // item per block — and no other item touches those entries.
            let run = unsafe { ItemCell::slice_mut_unchecked(&cx.factors[b0..b1]) };
            for (f, b) in run.iter_mut().zip(b0..) {
                let BlockFactors::Gp(blu) = f else {
                    unreachable!("factor kind mismatch");
                };
                let (lo, hi) = (bounds[b], bounds[b + 1]);
                // Ascending blocks: the first failure is the run's
                // smallest failing column.
                blu.refactor_cols(btf.diag_cols(cx.diag_vals, lo..hi), lo, ws)?;
            }
            Ok(())
        }
        Work::Sn { b } => {
            // SAFETY: one item per supernodal block.
            let BlockFactors::Sn(sn) = (unsafe { cx.factors[b].get_mut_unchecked() }) else {
                unreachable!("factor kind mismatch");
            };
            let slots = btf.diag_colptr()[bounds[b]]..btf.diag_colptr()[bounds[b + 1]];
            sn.diag.values_mut().copy_from_slice(&cx.diag_vals[slots]);
            sn.num.refactor(&sn.diag)
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
                    ColsView::new(&red.colptr, 1, red.ncols(), &red.rowind, vals, 0)
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
    use super::DISPATCH_BREAK_EVEN_FLOPS;
    use crate::hybrid::HybridOptions;
    use crate::testmat::*;
    use crate::Basker;
    use basker_runtime::shared_team;
    use basker_sparse::SparseError;

    /// After a value-only refresh an ND block solves the new system —
    /// from the recording call and from the replays after it.
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
        // And again from the recorded replay.
        num.refactor(&a).unwrap();
        check_solve(&num, &a, 1e-11);
    }

    /// Inline on a width-1 team and dispatched on the handle's own, the
    /// replay writes the same bits — on an ND block with a wide
    /// separator, on an ND block with a tail of tiny blocks, with
    /// mid-size blocks in between and on nothing but tiny blocks, under
    /// the paper plan, the classified plan and classified plans whose
    /// thresholds send the ND-laid-out or the mid-size blocks to the
    /// supernodal engine — and what it writes solves like a fresh
    /// factor.
    #[test]
    fn replay_is_bit_identical_at_every_width() {
        let inline = shared_team(1, false);
        // A matrix of tiny blocks classifies to the paper plan again.
        let cases = [
            (grid2d_unsym(32), true),
            (heterogeneous(28, 60), true),
            (with_mid_blocks(28, 4, 60), true),
            (tiny_blocks(9_000), false),
        ];
        for (a, classify) in cases {
            let a2 = revalued(&a, |v| v * 1.25 + 0.001);
            for p in [1usize, 2, 4] {
                let default = HybridOptions {
                    base: opts(p, 64),
                    gp_small: 16,
                    ..HybridOptions::default()
                };
                let mut handles = vec![Basker::analyze(&a, &default.base).unwrap()];
                if classify {
                    let grid_supernodal = HybridOptions {
                        max_separator_fraction: 0.0,
                        ..default.clone()
                    };
                    let mids_supernodal = HybridOptions {
                        dense_threshold: 0.0,
                        ..default.clone()
                    };
                    for o in [&default, &grid_supernodal, &mids_supernodal] {
                        handles.push(classified(&a, o));
                    }
                }
                let (mut sn_seen, mut nd_seen) = (0, 0);
                for (k, sym) in handles.iter().enumerate() {
                    let mut serial = sym.factor(&a).unwrap();
                    let mut team = sym.factor(&a).unwrap();
                    for m in [&a2, &a, &a2] {
                        serial.refactor_on(m, &inline).unwrap();
                        team.refactor(m).unwrap();
                        assert_eq!(factor_values(&serial), factor_values(&team), "p={p}");
                        assert_eq!(serial.stats.flops, team.stats.flops);
                    }
                    assert_solves_like_fresh(&team, &sym.factor(&a2).unwrap(), &a2);
                    sn_seen += team.stats.sn_blocks;
                    nd_seen += team.stats.nd_blocks;
                    // The comparison means something: past one thread,
                    // the team's replay of the paper plan and of the
                    // default classified one dispatched stages the
                    // other ran inline.
                    let wide = team
                        .replay
                        .as_ref()
                        .unwrap()
                        .stages
                        .iter()
                        .filter(|s| s.items.len() > 1 && s.flops >= DISPATCH_BREAK_EVEN_FLOPS);
                    assert!(p == 1 || k > 1 || wide.count() > 0, "p={p}");
                }
                // Supernodal and team items were replayed, not only runs.
                assert!(!classify || (sn_seen > 0 && nd_seen > 0), "p={p}");
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
            let crate::structure::BlockKind::NdBig(nds) = &st.kinds[nd_block] else {
                panic!("expected the grid to be ND-laid-out");
            };
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
