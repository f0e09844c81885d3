//! The stage list: one schedule for the fresh factorization and the
//! refactor replay.
//!
//! Both run the same 2-D block factorization — Kim et al.'s partitioned
//! block tasks, read off Basker's own structure — as a list of
//! **stages**, each a bag of independent items:
//!
//! 1. every ND leaf's stacked block column `[A_ll; A_{a,l}…]` and every
//!    fine-BTF block (coalesced, in BTF order, into runs worth a
//!    dispatch: `gp_runs`) — nothing here depends on anything;
//! 2. then per separator level `ℓ`, for every separator `v` on it:
//!    the panels `U_{k,v}`, one stage per tree level of the descendant
//!    `k` (an inner separator's panel reduces over its own descendants'
//!    panels, so it runs after them — Alg. 4's tree-level order); the
//!    reductions `Â_{t,v} = A_{t,v} − Σ L_{t,k}·U_{k,v}`, one item per
//!    target and column chunk (`column_chunks`); and one elimination
//!    per node.
//!
//! `layout_nd` is that rule for an ND block. The fresh factorization
//! (the `factor` module) runs every item with partial pivoting inside its
//! diagonal block; the replay ([`crate::refactor`]) runs it again with
//! the pivots and patterns the factorization chose.
//!
//! A stage runs through [`WorkerTeam::run_worklist`] in descending flop
//! order, so the big items are claimed first and the small ones fill
//! the tail (`run_stage`). A stage whose flops do not cover a dispatch
//! ([`DISPATCH_BREAK_EVEN_FLOPS`]) — and every stage of a width-1 team —
//! runs inline on the caller: the same list, not a second sweep.
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

use crate::keep_smallest_column;
use crate::structure::NdStructure;
use basker_runtime::WorkerTeam;
use basker_sparse::{Result, SparseError};
use std::cell::Cell;
use std::sync::Mutex;
use std::time::Instant;

/// Flops a stage must carry before the team is woken for it. A
/// dispatch costs up to ≈ 40 µs on a loaded host (the benchmark's
/// `runtime.broadcast_us`), the kernels retire 1–2 flops per
/// nanosecond, and splitting a stage saves at most `1 − 1/width` of it:
/// below ≈ 10⁵ flops (50–100 µs) the join costs more than it buys. The
/// same figure sizes the runs tiny fine-BTF blocks are coalesced into
/// and the column chunks of a reduction.
pub const DISPATCH_BREAK_EVEN_FLOPS: f64 = 1.0e5;

/// What one item does. Items of one stage touch disjoint factor
/// storage and read only what earlier stages wrote.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Work {
    /// A run of fine-BTF blocks (the handle's `run`-th), Gilbert–Peierls,
    /// in BTF order.
    Gp { run: usize },
    /// The stacked block column of node `v` of ND block `nd`: a leaf
    /// over `A`'s blocks, a separator over its reduced blocks.
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

pub(crate) struct Item {
    pub(crate) work: Work,
    /// What the item costs, in flops (recorded, or estimated before it
    /// ran); orders the claims and decides the dispatch.
    pub(crate) flops: f64,
}

pub(crate) struct Stage {
    /// Descending by flops: the claim order.
    pub(crate) items: Vec<Item>,
    pub(crate) flops: f64,
}

impl Stage {
    pub(crate) fn new(mut items: Vec<Item>) -> Stage {
        // Stable, so ties keep the order they were filed in: the list
        // is the same on every run.
        items.sort_by(|x, y| y.flops.total_cmp(&x.flops));
        Stage {
            flops: items.iter().map(|i| i.flops).sum(),
            items,
        }
    }
}

/// One unit of an ND block's factorization, before a reduction is cut
/// into column chunks.
#[derive(Debug, Clone, Copy)]
pub(crate) enum NdItem {
    /// The stacked block column of node `v`.
    Column(usize),
    /// The panel `U_{k,v}`, as `(v, k)`.
    Panel(usize, usize),
    /// The reduction `Â_{t,v}` feeding `v`'s elimination, as `(v, t)`:
    /// `t` is `v` itself, then each ancestor ascending.
    Reduce(usize, usize),
}

/// Files every item of the ND block `st` under its stage, growing
/// `stages` as needed: a leaf's block column in stage 0; a separator
/// on tree level `ℓ` takes `ℓ + 2` stages after those of every level
/// below it — `ℓ` of panels (by the descendant's tree level), the
/// reductions, the elimination. Nodes come in ascending order, and a
/// separator's items in the order listed.
pub(crate) fn layout_nd<T>(
    st: &NdStructure,
    stages: &mut Vec<Vec<T>>,
    mut file: impl FnMut(NdItem, &mut Vec<T>),
) {
    let mut at = |stage: usize, item: NdItem| {
        if stages.len() <= stage {
            stages.resize_with(stage + 1, Vec::new);
        }
        file(item, &mut stages[stage]);
    };
    for v in 0..st.nnodes() {
        if st.nd.nodes[v].is_leaf() {
            at(0, NdItem::Column(v));
            continue;
        }
        let level = st.nd.tree_level(v);
        let base = 1 + (1..level).map(|m| m + 2).sum::<usize>();
        for k in st.descendants(v) {
            at(base + st.nd.tree_level(k), NdItem::Panel(v, k));
        }
        for t in std::iter::once(v).chain(st.ancestors[v].iter().copied()) {
            at(base + level, NdItem::Reduce(v, t));
        }
        at(base + level + 1, NdItem::Column(v));
    }
}

/// Coalesces the Gilbert–Peierls blocks, in BTF order, into runs of
/// about one dispatch's worth of work: `weights` holds each block's
/// flops, `None` for an ND block (which ends the open run). Returns
/// `(first block, end block, flops)` per run.
pub(crate) fn gp_runs(weights: impl IntoIterator<Item = Option<f64>>) -> Vec<(usize, usize, f64)> {
    let mut runs = Vec::new();
    let mut open: Option<(usize, f64)> = None;
    let mut end = 0;
    for (b, weight) in weights.into_iter().enumerate() {
        end = b + 1;
        let Some(weight) = weight else {
            runs.extend(open.take().map(|(b0, flops)| (b0, b, flops)));
            continue;
        };
        let (b0, flops) = open.get_or_insert((b, 0.0));
        *flops += weight;
        if *flops >= DISPATCH_BREAK_EVEN_FLOPS {
            runs.push((*b0, b + 1, *flops));
            open = None;
        }
    }
    runs.extend(open.map(|(b0, flops)| (b0, end, flops)));
    runs
}

/// Splits columns `0..ncols` into chunks of about one dispatch's worth
/// of work, column `c` costing `cost(c)`: `(first column, end column,
/// flops)` per chunk.
pub(crate) fn column_chunks(
    ncols: usize,
    mut cost: impl FnMut(usize) -> f64,
) -> Vec<(usize, usize, f64)> {
    let mut out = Vec::new();
    let (mut c0, mut acc) = (0, 0.0);
    for c in 0..ncols {
        acc += cost(c);
        if acc >= DISPATCH_BREAK_EVEN_FLOPS || c + 1 == ncols {
            out.push((c0, c + 1, acc));
            (c0, acc) = (c + 1, 0.0);
        }
    }
    out
}

thread_local! {
    /// Set on the thread that dispatched a stage, for the stage's
    /// duration: the end of the last item it ran itself.
    static CALLER_IDLE_SINCE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Runs every item of `stage` through `run`, on `team` when the stage
/// covers a dispatch, else inline. Returns the nanoseconds the caller
/// spent blocked in the stage's join, `None` if it ran inline. Every
/// item runs to its end, so a failure names the smallest failing
/// column of the stage, whichever rank hit one first.
// basker-lint: deny-alloc
pub(crate) fn run_stage(
    stage: &Stage,
    team: &WorkerTeam,
    run: impl Fn(Work) -> Result<()> + Sync,
) -> Result<Option<u64>> {
    let failed: Mutex<Option<SparseError>> = Mutex::new(None);
    let item = |i: usize| {
        if let Err(e) = run(stage.items[i].work) {
            keep_smallest_column(&failed, e);
        }
        // On the thread that dispatched the stage: when its last item
        // ended is when its wait for the join began.
        CALLER_IDLE_SINCE.with(|c| {
            if c.get().is_some() {
                c.set(Some(Instant::now()));
            }
        });
    };
    let n = stage.items.len();
    let mut joined = None;
    if team.width() > 1 && n > 1 && stage.flops >= DISPATCH_BREAK_EVEN_FLOPS {
        CALLER_IDLE_SINCE.with(|c| c.set(Some(Instant::now())));
        team.run_worklist(n, item);
        joined = Some(
            CALLER_IDLE_SINCE
                .with(Cell::take)
                .map_or(0, |since| since.elapsed().as_nanos() as u64),
        );
    } else {
        (0..n).for_each(item);
    }
    match failed.into_inner().expect("nothing panics under this lock") {
        Some(e) => Err(e),
        None => Ok(joined),
    }
}

/// Runs `work` once on every item, claimed in the order given, on
/// `team` when there are two or more items carrying `flops` of at least
/// a dispatch's worth, else inline — where the items take no lock. Each
/// item owns the slots it writes, so the result is the same at every
/// width.
pub(crate) fn run_items<P: Send>(
    team: &WorkerTeam,
    flops: f64,
    mut items: Vec<P>,
    work: impl Fn(&mut P) + Sync,
) {
    if team.width() == 1 || items.len() < 2 || flops < DISPATCH_BREAK_EVEN_FLOPS {
        items.iter_mut().for_each(work);
        return;
    }
    let items: Vec<Mutex<P>> = items.into_iter().map(Mutex::new).collect();
    team.run_worklist(items.len(), |i| {
        work(&mut items[i].lock().expect("each item is claimed once"))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_close_at_the_break_even_and_at_other_strategies() {
        let half = DISPATCH_BREAK_EVEN_FLOPS / 2.0;
        let runs = gp_runs([
            Some(half),
            Some(half),
            Some(1.0),
            None,
            Some(2.0),
            Some(3.0),
        ]);
        assert_eq!(runs, [(0, 2, 2.0 * half), (2, 3, 1.0), (4, 6, 5.0)]);
        assert!(gp_runs([None, None]).is_empty());
    }

    #[test]
    fn chunks_cover_every_column_once() {
        let chunks = column_chunks(5, |c| [4e4, 7e4, 1.0, 2e5, 3.0][c]);
        assert_eq!(
            chunks,
            [(0, 2, 1.1e5), (2, 4, 200_001.0), (4, 5, 3.0)],
            "a chunk ends once it covers a dispatch, and at the last column"
        );
        assert!(column_chunks(0, |_| 1.0).is_empty());
    }
}
