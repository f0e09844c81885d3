//! Parallel numeric factorization of an ND-structured block — the first
//! parallel Gilbert–Peierls algorithm (paper Algorithm 4).
//!
//! A static team of `p` threads walks the separator tree bottom-up:
//!
//! * **treelevel −1** — every thread factors its own leaf's stacked block
//!   column `[A_ll ; A_{a,l}…]` (lines 2–6).
//! * **slevel = 1..log₂p** — the team cooperates on each separator block
//!   column `j`, **pipelined one column at a time** (the paper's scheme):
//!   - *treelevel 0*: each thread under `j` solves its leaf panel
//!     `U_{ℓ,j} = L_{ℓℓ}⁻¹ P_ℓ A_{ℓ,j}` (line 14), publishing each
//!     **column** into its own write-once slot the moment it is ready;
//!   - *treelevels 1..slevel−1*: the owner of each inner separator `s`
//!     streams `Â_{s,j}(:,c) = A_{s,j}(:,c) − Σ L_{s,k} U_{k,j}(:,c)` and
//!     solves it column by column (lines 15–21), consuming descendant
//!     panel columns as they arrive;
//!   - *treelevel slevel*: the reduction targets (`Â_{jj}` and every
//!     `Â_{a,j}`) are distributed over the team (lines 18 & 24, the
//!     parallel-SpMV reductions of Fig. 4(d)), again column-streamed,
//!     while the owner runs an **incremental** stacked Gilbert–Peierls
//!     factorization ([`BlockColumnFactorizer`]): column `c` is
//!     eliminated as soon as its reductions land, concurrently with the
//!     rest of the team producing column `c + 1` (lines 26–28). Only the
//!     root's elimination itself is serial — Fig. 4(g)'s single colored
//!     block.
//!
//! Cross-thread hand-off uses the write-once per-column
//! [`ColumnSlots`]/[`Slot`]s of [`crate::sync`] — the paper's
//! point-to-point volatile-flag scheme. In [`SyncMode::Barrier`] (the
//! ablation baseline) the pipeline is deliberately collapsed back to
//! level-synchronous whole-sub-block phases with a full team barrier at
//! every dependency level, mimicking a naive sequence of parallel-for
//! launches. Worker errors (zero pivots) poison their slots so the team
//! drains without deadlock, and the error naming the smallest failing
//! column is returned — the same one whichever rank failed first.

use crate::keep_smallest_column;
use crate::reduce::{reduce_col, ReduceWorkspace};
use crate::refactor::ItemCell;
use crate::structure::{NdBlocks, NdStructure};
use crate::sync::{ColumnSlots, Slot, SyncMode, TeamSync, WaitClock};
use basker_klu::gp::{lsolve_col, BlockColumnFactorizer, BlockLu, LsolveWorkspace};
use basker_runtime::WorkerTeam;
use basker_sparse::col::cols_to_csc;
use basker_sparse::{CscMat, Result, SparseCol, SparseError};
use std::sync::Mutex;

/// Factors of one ND block. Each block column and each panel sits in
/// an [`ItemCell`] — it reads like the plain value, and the refactor
/// replay's stage items each rewrite their own in parallel.
#[derive(Debug, Clone)]
pub struct NdFactors {
    /// Per node `v`: `LU_vv` plus the below parts `L_{a,v}` (ancestors
    /// ascending) inside [`BlockLu::below`].
    pub fact_diag: Vec<ItemCell<BlockLu>>,
    /// Per node `v`, per descendant `k` (ascending over `descendants(v)`):
    /// the panel `U_{k,v}` in `k`'s pivotal row coordinates.
    pub fact_upper: Vec<Vec<ItemCell<CscMat>>>,
    /// Per-thread nanoseconds spent blocked on synchronization (one
    /// entry per rank of the team that produced these factors).
    pub wait_ns: Vec<u64>,
}

impl NdFactors {
    /// `|L+U|` over the whole ND block (diagonal factors, below parts and
    /// `U` panels).
    pub fn lu_nnz(&self) -> usize {
        let d: usize = self.fact_diag.iter().map(|b| b.lu_nnz()).sum();
        let u: usize = self
            .fact_upper
            .iter()
            .flat_map(|v| v.iter().map(|m| m.nnz()))
            .sum();
        d + u
    }

    /// Numeric flops of the kernels that last (re)factored the block
    /// columns.
    pub fn flops(&self) -> f64 {
        self.fact_diag.iter().map(|b| b.flops).sum()
    }

    /// Size of the team that produced these factors (one [`wait_ns`]
    /// entry per rank).
    ///
    /// [`wait_ns`]: NdFactors::wait_ns
    pub fn team_size(&self) -> usize {
        self.wait_ns.len()
    }
}

type SlotV<T> = Slot<Option<T>>;

/// All cross-thread hand-off state of one ND factorization: the diagonal
/// factor slot per node plus the per-column panel and reduction slots of
/// the pipelined schedule.
struct PipelineSlots {
    /// Per node: its stacked-block-column factor (`None` = poisoned).
    diag: Vec<SlotV<BlockLu>>,
    /// Per separator `j`, per descendant `k − subtree_start[j]`: the
    /// columns of panel `U_{k,j}`.
    upper: Vec<Vec<ColumnSlots<SparseCol>>>,
    /// Per separator `j`, per reduction target (0 = diagonal, then
    /// ancestors ascending): the reduced columns.
    red: Vec<Vec<ColumnSlots<SparseCol>>>,
}

impl PipelineSlots {
    fn new(st: &NdStructure) -> PipelineSlots {
        let nn = st.nnodes();
        let ncols = |v: usize| st.nd.nodes[v].len();
        PipelineSlots {
            diag: (0..nn).map(|_| Slot::new()).collect(),
            upper: (0..nn)
                .map(|v| {
                    st.descendants(v)
                        .map(|_| ColumnSlots::new(ncols(v)))
                        .collect()
                })
                .collect(),
            red: (0..nn)
                .map(|v| {
                    if st.nd.nodes[v].is_leaf() {
                        Vec::new()
                    } else {
                        (0..1 + st.ancestors[v].len())
                            .map(|_| ColumnSlots::new(ncols(v)))
                            .collect()
                    }
                })
                .collect(),
        }
    }
}

/// Runs Algorithm 4 on the extracted blocks with `p` ranks of `team`
/// (`team` must be at least `p` wide; `p` must be `st`'s leaf count).
pub fn factor_nd_parallel(
    blocks: &NdBlocks,
    st: &NdStructure,
    pivot_tol: f64,
    mode: SyncMode,
    col_offset: usize,
    team: &WorkerTeam,
) -> Result<NdFactors> {
    let p = st.leaf_of_thread.len();
    assert!(team.width() >= p, "worker team too small");
    let levels = st.nd.levels;

    let slots = PipelineSlots::new(st);
    let sync = TeamSync::new(mode, p);
    let error: Mutex<Option<SparseError>> = Mutex::new(None);
    let clocks: Vec<WaitClock> = (0..p).map(|_| WaitClock::new()).collect();

    team.broadcast(|tctx| {
        let t = tctx.rank();
        if t >= p {
            return;
        }
        worker(
            t, blocks, st, pivot_tol, col_offset, &slots, &sync, &error, &clocks[t], levels,
        );
    });

    if let Some(e) = error.into_inner().unwrap() {
        return Err(e);
    }

    let fact_diag: Vec<ItemCell<BlockLu>> = slots
        .diag
        .into_iter()
        .map(|s| ItemCell::new(s.into_inner().flatten().expect("missing diagonal factor")))
        .collect();
    let fact_upper: Vec<Vec<ItemCell<CscMat>>> = slots
        .upper
        .into_iter()
        .enumerate()
        .map(|(j, panels)| {
            let start = st.subtree_start[j];
            panels
                .into_iter()
                .enumerate()
                .map(|(ki, cols)| {
                    let krows = st.nd.nodes[start + ki].len();
                    let gathered: Vec<SparseCol> = cols
                        .into_columns()
                        .map(|c| c.expect("missing U panel column"))
                        .collect();
                    ItemCell::new(cols_to_csc(krows, gathered))
                })
                .collect()
        })
        .collect();
    Ok(NdFactors {
        fact_diag,
        fact_upper,
        wait_ns: clocks.iter().map(WaitClock::total_ns).collect(),
    })
}

/// Per-thread scratch reused across every column of every block.
struct WorkerScratch {
    lsolve: LsolveWorkspace,
    reduce: ReduceWorkspace,
}

#[allow(clippy::too_many_arguments)]
fn worker(
    t: usize,
    blocks: &NdBlocks,
    st: &NdStructure,
    pivot_tol: f64,
    col_offset: usize,
    slots: &PipelineSlots,
    team: &TeamSync,
    error: &Mutex<Option<SparseError>>,
    clock: &WaitClock,
    levels: usize,
) {
    let my_leaf = st.leaf_of_thread[t];
    // Only genuine pivot failures land here (poisoned inputs publish
    // `None` and record nothing), so the smallest column is the same
    // whichever rank fails first.
    let record_err = |e: SparseError| keep_smallest_column(error, e);
    let mut scratch = WorkerScratch {
        lsolve: LsolveWorkspace::new(),
        reduce: ReduceWorkspace::new(),
    };
    // Borrow-scratch reused across every column of every separator: the
    // reduction term list and the owner's reduced-column gather.
    let mut red_terms: Vec<(&CscMat, &[usize], &[f64])> = Vec::new();
    let mut below_cols: Vec<(&[usize], &[f64])> = Vec::new();

    // ---- treelevel -1: leaf block columns (Alg. 4 lines 2-6) ----
    {
        let v = my_leaf;
        let below: Vec<&CscMat> = blocks.lower[v].iter().collect();
        let off = col_offset + st.nd.nodes[v].range.start;
        match basker_klu::gp::factor_block_column(&blocks.diag[v], &below, pivot_tol, off) {
            Ok(blu) => slots.diag[v].publish(Some(blu)),
            Err(e) => {
                record_err(e);
                slots.diag[v].publish(None);
            }
        }
    }
    team.phase(clock);

    // ---- separator block columns, bottom-up (lines 9-31) ----
    for slevel in 1..=levels {
        let j = st.ancestors[my_leaf][slevel - 1];
        let start = st.subtree_start[j];
        let nb = st.nd.nodes[j].len();

        // treelevel 0: my leaf's panel U_{leaf, j}, column by column
        // (line 14) — each column is visible to consumers immediately.
        {
            let panel = &slots.upper[j][my_leaf - start];
            let a = &blocks.upper[j][my_leaf - start];
            match slots.diag[my_leaf].wait(clock).as_ref() {
                Some(blu) => {
                    for c in 0..nb {
                        let col =
                            lsolve_col(blu, a.col_rows(c), a.col_values(c), &mut scratch.lsolve);
                        panel.publish(c, Some(col));
                    }
                }
                None => {
                    for c in 0..nb {
                        panel.publish(c, None);
                    }
                }
            }
        }
        team.phase(clock);

        // treelevels 1..slevel-1: inner separator panels (lines 15-21),
        // streamed per column over the descendants' panel columns.
        for lv in 1..slevel {
            let s = st.ancestors[my_leaf][lv - 1];
            if st.owner[s] == t {
                separator_panel_columns(blocks, st, j, s, start, slots, clock, &mut scratch);
            }
            team.phase(clock);
        }

        // treelevel slevel: distributed reductions (lines 18 & 24) and
        // the owner's incremental elimination (lines 26-28).
        let gsize = 1usize << slevel;
        let my_rank = t - st.owner[j];
        let ntargets = 1 + st.ancestors[j].len();
        let is_owner = st.owner[j] == t;
        // Resolve each of this thread's targets once (descendant factor
        // waits + L-block lookups), then stream columns through them.
        let my_targets: Vec<TargetReduction<'_>> = (0..ntargets)
            .filter(|i| i % gsize == my_rank)
            .map(|idx| prepare_target(blocks, st, j, idx, slots, clock))
            .collect();

        if team.mode() == SyncMode::Barrier {
            // Ablation baseline: whole-sub-block phases. All reduction
            // targets complete, the team barriers, then the owner
            // eliminates — no column overlap anywhere.
            for tr in &my_targets {
                for c in 0..nb {
                    reduce_target_col(
                        tr,
                        st,
                        j,
                        start,
                        c,
                        slots,
                        clock,
                        &mut scratch,
                        &mut red_terms,
                    );
                }
            }
            team.phase(clock);
            if is_owner {
                owner_factor_columns(
                    st,
                    j,
                    nb,
                    ntargets,
                    pivot_tol,
                    col_offset,
                    slots,
                    clock,
                    &record_err,
                    &mut below_cols,
                );
            }
            team.phase(clock);
        } else if is_owner {
            // Pipelined: the owner interleaves its reduction columns
            // with the elimination of each column the moment that
            // column's reductions are all in. Producers never wait on
            // the owner, so a poisoned elimination drains cleanly.
            let below_nrows: Vec<usize> = st.ancestors[j]
                .iter()
                .map(|&a| st.nd.nodes[a].len())
                .collect();
            let off = col_offset + st.nd.nodes[j].range.start;
            let mut fac = BlockColumnFactorizer::new(nb, &below_nrows, pivot_tol, off);
            let mut poisoned = false;
            for c in 0..nb {
                for tr in &my_targets {
                    reduce_target_col(
                        tr,
                        st,
                        j,
                        start,
                        c,
                        slots,
                        clock,
                        &mut scratch,
                        &mut red_terms,
                    );
                }
                if !poisoned {
                    poisoned = !owner_factor_one(
                        &mut fac,
                        j,
                        c,
                        ntargets,
                        slots,
                        clock,
                        &record_err,
                        &mut below_cols,
                    );
                }
            }
            if poisoned {
                slots.diag[j].publish(None);
            } else {
                slots.diag[j].publish(Some(fac.finish()));
            }
        } else {
            for tr in &my_targets {
                for c in 0..nb {
                    reduce_target_col(
                        tr,
                        st,
                        j,
                        start,
                        c,
                        slots,
                        clock,
                        &mut scratch,
                        &mut red_terms,
                    );
                }
            }
        }
    }
}

/// Streams the panel `U_{s,j}` of inner separator `s` under block column
/// `j`: for each column `c`, reduce `Â_{s,j}(:,c) = A_{s,j}(:,c) −
/// Σ_{k ∈ desc(s)} L_{s,k} U_{k,j}(:,c)` over the descendants' published
/// panel columns, then solve with `L_ss` and publish. Poisoned inputs
/// poison the affected output columns.
#[allow(clippy::too_many_arguments)]
fn separator_panel_columns(
    blocks: &NdBlocks,
    st: &NdStructure,
    j: usize,
    s: usize,
    start: usize,
    slots: &PipelineSlots,
    clock: &WaitClock,
    scratch: &mut WorkerScratch,
) {
    let out = &slots.upper[j][s - start];
    let nb = out.ncols();
    let srows = st.nd.nodes[s].len();
    // The descendants' diagonal factors carry the L_{s,k} blocks; they
    // are (or will shortly be) published by earlier tree levels.
    let mut lblocks: Vec<&CscMat> = Vec::with_capacity(s - st.subtree_start[s]);
    for k in st.descendants(s) {
        match slots.diag[k].wait(clock).as_ref() {
            Some(d_k) => lblocks.push(&d_k.below[st.anc_pos(k, s)]),
            None => {
                for c in 0..nb {
                    out.publish(c, None);
                }
                return;
            }
        }
    }
    let Some(d_s) = slots.diag[s].wait(clock).as_ref() else {
        for c in 0..nb {
            out.publish(c, None);
        }
        return;
    };
    let a_sj = &blocks.upper[j][s - start];
    let mut terms: Vec<(&CscMat, &[usize], &[f64])> = Vec::with_capacity(lblocks.len());
    'col: for c in 0..nb {
        terms.clear();
        for (ki, k) in st.descendants(s).enumerate() {
            match slots.upper[j][k - start].wait(c, clock) {
                Some(ucol) => {
                    if lblocks[ki].nnz() > 0 && !ucol.rows.is_empty() {
                        terms.push((lblocks[ki], &ucol.rows, &ucol.vals));
                    }
                }
                None => {
                    out.publish(c, None);
                    continue 'col;
                }
            }
        }
        let reduced = reduce_col(
            srows,
            a_sj.col_rows(c),
            a_sj.col_values(c),
            &terms,
            &mut scratch.reduce,
        );
        let solved = lsolve_col(d_s, &reduced.rows, &reduced.vals, &mut scratch.lsolve);
        out.publish(c, Some(solved));
    }
}

/// One reduction target prepared for column streaming: `Â_{tgt,j} =
/// A_{tgt,j} − Σ_{k ∈ desc(j)} L_{tgt,k} U_{k,j}` (`idx` 0 = the
/// diagonal `j` itself, otherwise ancestor `idx − 1`). The descendant
/// `L` blocks are resolved **once** here — the per-column streaming
/// loop must not re-wait slots or reallocate this state (the owner
/// interleaves one column of every target with each elimination step,
/// so this sits on the factorization's critical path).
struct TargetReduction<'a> {
    idx: usize,
    trows: usize,
    a_tgt: &'a CscMat,
    /// `L_{tgt,k}` per descendant `k`; `None` = a descendant factor was
    /// poisoned, so every column of this target is poison too.
    lblocks: Option<Vec<&'a CscMat>>,
}

fn prepare_target<'a>(
    blocks: &'a NdBlocks,
    st: &NdStructure,
    j: usize,
    idx: usize,
    slots: &'a PipelineSlots,
    clock: &WaitClock,
) -> TargetReduction<'a> {
    let (tgt, a_tgt) = if idx == 0 {
        (j, &blocks.diag[j])
    } else {
        (st.ancestors[j][idx - 1], &blocks.lower[j][idx - 1])
    };
    let trows = st.nd.nodes[tgt].len();
    let mut lblocks: Vec<&CscMat> = Vec::with_capacity(j - st.subtree_start[j]);
    for k in st.descendants(j) {
        match slots.diag[k].wait(clock).as_ref() {
            Some(d_k) => lblocks.push(&d_k.below[st.anc_pos(k, tgt)]),
            None => {
                return TargetReduction {
                    idx,
                    trows,
                    a_tgt,
                    lblocks: None,
                }
            }
        }
    }
    TargetReduction {
        idx,
        trows,
        a_tgt,
        lblocks: Some(lblocks),
    }
}

/// Reduces and publishes one column of a prepared target (the sparse
/// SpMV accumulation of paper Fig. 4(d) at pipeline granularity).
/// `terms` is caller-owned scratch, cleared here and reused across
/// columns so the streaming loop performs no per-column allocation.
#[allow(clippy::too_many_arguments)]
fn reduce_target_col<'a>(
    tr: &TargetReduction<'a>,
    st: &NdStructure,
    j: usize,
    start: usize,
    c: usize,
    slots: &'a PipelineSlots,
    clock: &WaitClock,
    scratch: &mut WorkerScratch,
    terms: &mut Vec<(&'a CscMat, &'a [usize], &'a [f64])>,
) {
    let out = &slots.red[j][tr.idx];
    let Some(lblocks) = &tr.lblocks else {
        out.publish(c, None);
        return;
    };
    terms.clear();
    for (ki, k) in st.descendants(j).enumerate() {
        match slots.upper[j][k - start].wait(c, clock) {
            Some(ucol) => {
                if lblocks[ki].nnz() > 0 && !ucol.rows.is_empty() {
                    terms.push((lblocks[ki], &ucol.rows, &ucol.vals));
                }
            }
            None => {
                out.publish(c, None);
                return;
            }
        }
    }
    let reduced = reduce_col(
        tr.trows,
        tr.a_tgt.col_rows(c),
        tr.a_tgt.col_values(c),
        terms,
        &mut scratch.reduce,
    );
    out.publish(c, Some(reduced));
}

/// Feeds one reduced column into the owner's incremental factorization.
/// Returns `false` when the column (or the elimination itself) is
/// poisoned; the caller then stops eliminating but keeps producing for
/// the rest of the team. `below_cols` is caller-owned scratch, reused
/// across columns — the owner's elimination loop is the serial
/// bottleneck and must not allocate per column.
#[allow(clippy::too_many_arguments)]
fn owner_factor_one<'a>(
    fac: &mut BlockColumnFactorizer,
    j: usize,
    c: usize,
    ntargets: usize,
    slots: &'a PipelineSlots,
    clock: &WaitClock,
    record_err: &impl Fn(SparseError),
    below_cols: &mut Vec<(&'a [usize], &'a [f64])>,
) -> bool {
    let diag_col = match slots.red[j][0].wait(c, clock) {
        Some(col) => col,
        None => return false,
    };
    below_cols.clear();
    for idx in 1..ntargets {
        match slots.red[j][idx].wait(c, clock) {
            Some(col) => below_cols.push((col.rows.as_slice(), col.vals.as_slice())),
            None => return false,
        }
    }
    match fac.factor_col(&diag_col.rows, &diag_col.vals, below_cols) {
        Ok(()) => true,
        Err(e) => {
            record_err(e);
            false
        }
    }
}

/// Barrier-mode owner elimination: all reduced columns are already
/// published, so this just drains them through the incremental
/// factorizer and publishes the result (or poison).
#[allow(clippy::too_many_arguments)]
fn owner_factor_columns<'a>(
    st: &NdStructure,
    j: usize,
    nb: usize,
    ntargets: usize,
    pivot_tol: f64,
    col_offset: usize,
    slots: &'a PipelineSlots,
    clock: &WaitClock,
    record_err: &impl Fn(SparseError),
    below_cols: &mut Vec<(&'a [usize], &'a [f64])>,
) {
    let below_nrows: Vec<usize> = st.ancestors[j]
        .iter()
        .map(|&a| st.nd.nodes[a].len())
        .collect();
    let off = col_offset + st.nd.nodes[j].range.start;
    let mut fac = BlockColumnFactorizer::new(nb, &below_nrows, pivot_tol, off);
    for c in 0..nb {
        if !owner_factor_one(
            &mut fac, j, c, ntargets, slots, clock, record_err, below_cols,
        ) {
            slots.diag[j].publish(None);
            return;
        }
    }
    slots.diag[j].publish(Some(fac.finish()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::{BlockKind, Structure};
    use crate::testmat::grid2d_unsym;
    use basker_runtime::shared_team;
    use basker_sparse::{Perm, TripletMat};

    /// Reconstructs the permuted block from its factors and compares to
    /// the original (dense, for small tests): verifies P_blocked A = L U
    /// at the whole-ND-block level.
    fn verify_nd_factorization(ap_block: &CscMat, st: &NdStructure, f: &NdFactors, tol: f64) {
        let n = ap_block.nrows();
        // Build global-within-block L and U in "pivotal" coordinates:
        // global row of (node v, pivotal local r) = range(v).start + r.
        let mut l = vec![vec![0.0; n]; n];
        let mut u = vec![vec![0.0; n]; n];
        for v in 0..st.nnodes() {
            let r0 = st.nd.nodes[v].range.start;
            let blu = &f.fact_diag[v];
            for (i, jj, val) in blu.l.iter() {
                l[r0 + i][r0 + jj] = val;
            }
            for (i, jj, val) in blu.u.iter() {
                u[r0 + i][r0 + jj] = val;
            }
            // below parts: rows in ancestor original local coords — must be
            // mapped through the ancestor's pinv... but ancestors are
            // factored after v, and L_{a,v} is stored in a's ORIGINAL
            // coords. The global factorization applies a's pivot to block
            // row a, i.e. global L row = range(a).start + pinv_a[orig r].
            for (ai, &a) in st.ancestors[v].iter().enumerate() {
                let a0 = st.nd.nodes[a].range.start;
                let pinv_a = &f.fact_diag[a].pinv;
                for (i, jj, val) in blu.below[ai].iter() {
                    l[a0 + pinv_a[i]][r0 + jj] = val;
                }
            }
            // U panels of column block v
            for (ki, k) in st.descendants(v).enumerate() {
                let k0 = st.nd.nodes[k].range.start;
                for (i, jj, val) in f.fact_upper[v][ki].iter() {
                    u[k0 + i][r0 + jj] = val;
                }
            }
        }
        // P A: row (node v, orig local r) -> global row range(v).start +
        // pinv_v[r].
        let mut block_of = vec![0usize; n];
        for v in 0..st.nnodes() {
            for kk in st.nd.nodes[v].range.clone() {
                block_of[kk] = v;
            }
        }
        let ad = ap_block.to_dense();
        let mut pad = vec![vec![0.0; n]; n];
        for i in 0..n {
            let v = block_of[i];
            let r0 = st.nd.nodes[v].range.start;
            let pi = r0 + f.fact_diag[v].pinv[i - r0];
            pad[pi] = ad[i].clone();
        }
        for i in 0..n {
            for jj in 0..n {
                let mut acc = 0.0;
                for kk in 0..n {
                    acc += l[i][kk] * u[kk][jj];
                }
                assert!(
                    (acc - pad[i][jj]).abs() < tol,
                    "LU mismatch at ({i},{jj}): {acc} vs {}",
                    pad[i][jj]
                );
            }
        }
    }

    fn run_case(k: usize, p: usize, mode: SyncMode) {
        let a = grid2d_unsym(k);
        let s = Structure::build(&a, false, false, 0, p).unwrap();
        let BlockKind::NdBig(st) = &s.kinds[0] else {
            panic!("expected ND block (nd_threshold = 0)");
        };
        let ap = Perm::permute_both(&s.row_perm, &s.col_perm, &a);
        let blocks = NdBlocks::extract(&ap, 0, st);
        let team = shared_team(p, false);
        let f = factor_nd_parallel(&blocks, st, 0.001, mode, 0, &team).unwrap();
        verify_nd_factorization(&ap, st, &f, 1e-9);
    }

    #[test]
    fn two_threads_p2p() {
        run_case(6, 2, SyncMode::PointToPoint);
    }

    #[test]
    fn four_threads_p2p() {
        run_case(7, 4, SyncMode::PointToPoint);
    }

    #[test]
    fn four_threads_barrier() {
        run_case(7, 4, SyncMode::Barrier);
    }

    #[test]
    fn eight_threads_oversubscribed() {
        run_case(8, 8, SyncMode::PointToPoint);
    }

    #[test]
    fn single_thread_degenerate_tree() {
        // p = 1: levels = 0, one leaf node, no separators.
        let a = grid2d_unsym(5);
        let s = Structure::build(&a, false, false, 0, 1).unwrap();
        let BlockKind::NdBig(st) = &s.kinds[0] else {
            panic!();
        };
        let ap = Perm::permute_both(&s.row_perm, &s.col_perm, &a);
        let blocks = NdBlocks::extract(&ap, 0, st);
        let team = shared_team(1, false);
        let f = factor_nd_parallel(&blocks, st, 0.001, SyncMode::PointToPoint, 0, &team).unwrap();
        verify_nd_factorization(&ap, st, &f, 1e-9);
    }

    #[test]
    fn barrier_and_p2p_agree_numerically() {
        // The pipelined schedule performs the same arithmetic per column
        // as the level-synchronous baseline — only the overlap differs.
        let a = grid2d_unsym(7);
        let s = Structure::build(&a, false, false, 0, 4).unwrap();
        let BlockKind::NdBig(st) = &s.kinds[0] else {
            panic!();
        };
        let ap = Perm::permute_both(&s.row_perm, &s.col_perm, &a);
        let blocks = NdBlocks::extract(&ap, 0, st);
        let team = shared_team(4, false);
        let fp = factor_nd_parallel(&blocks, st, 0.001, SyncMode::PointToPoint, 0, &team).unwrap();
        let fb = factor_nd_parallel(&blocks, st, 0.001, SyncMode::Barrier, 0, &team).unwrap();
        for v in 0..st.nnodes() {
            assert_eq!(fp.fact_diag[v].u.values(), fb.fact_diag[v].u.values());
            assert_eq!(fp.fact_diag[v].l.values(), fb.fact_diag[v].l.values());
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // The column schedule performs identical arithmetic per block
        // regardless of team size when the tree shape is fixed: factor
        // with the same structure using different teams and compare.
        let a = grid2d_unsym(7);
        let s = Structure::build(&a, false, false, 0, 4).unwrap();
        let BlockKind::NdBig(st) = &s.kinds[0] else {
            panic!();
        };
        let ap = Perm::permute_both(&s.row_perm, &s.col_perm, &a);
        let blocks = NdBlocks::extract(&ap, 0, st);
        let [f4, f8] = [4, 8].map(|p| {
            let team = shared_team(p, false);
            factor_nd_parallel(&blocks, st, 0.001, SyncMode::PointToPoint, 0, &team).unwrap()
        });
        for v in 0..st.nnodes() {
            assert_eq!(f4.fact_diag[v].u.values(), f8.fact_diag[v].u.values());
            assert_eq!(f4.fact_diag[v].l.values(), f8.fact_diag[v].l.values());
        }
    }

    #[test]
    fn zero_pivot_poisons_and_reports() {
        // A singular matrix: one row of zeros after elimination.
        let k = 4;
        let n = k * k;
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, 1.0);
        }
        // duplicate row dependency: rows 0 and 1 identical via off-diags
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        // make the 2x2 block [1 1; 1 1] singular
        let a = t.to_csc();
        let s = Structure::build(&a, false, false, 0, 2).unwrap();
        let BlockKind::NdBig(st) = &s.kinds[0] else {
            panic!();
        };
        let ap = Perm::permute_both(&s.row_perm, &s.col_perm, &a);
        let blocks = NdBlocks::extract(&ap, 0, st);
        let team = shared_team(2, false);
        let r = factor_nd_parallel(&blocks, st, 0.001, SyncMode::PointToPoint, 0, &team);
        assert!(matches!(r, Err(SparseError::ZeroPivot { .. })));
    }

    /// Zero pivots in two leaves: the first leaf's last column and the
    /// last leaf's first column. The last leaf fails sooner, yet every
    /// run reports the first leaf's smaller column.
    #[test]
    fn two_failing_leaves_report_the_smaller_column() {
        let a = grid2d_unsym(40);
        for p in [2usize, 4] {
            let s = Structure::build(&a, false, false, 0, p).unwrap();
            let BlockKind::NdBig(st) = &s.kinds[0] else {
                panic!();
            };
            let mut ap = Perm::permute_both(&s.row_perm, &s.col_perm, &a);
            let leaves = st.leaf_of_thread.iter().map(|&v| &st.nd.nodes[v].range);
            let first = leaves.clone().min_by_key(|r| r.start).unwrap();
            let last = leaves.max_by_key(|r| r.start).unwrap();
            // Numerically zero those columns inside their leaf's diagonal
            // block; the pattern stays.
            for (c, rows) in [(first.end - 1, first), (last.start, last)] {
                let hits: Vec<usize> = (ap.colptr()[c]..ap.colptr()[c + 1])
                    .filter(|&k| rows.contains(&ap.rowind()[k]))
                    .collect();
                for k in hits {
                    ap.values_mut()[k] = 0.0;
                }
            }
            let blocks = NdBlocks::extract(&ap, 0, st);
            let team = shared_team(p, false);
            for rep in 0..50 {
                let r = factor_nd_parallel(&blocks, st, 0.001, SyncMode::PointToPoint, 0, &team);
                assert!(
                    matches!(r, Err(SparseError::ZeroPivot { column }) if column == first.end - 1),
                    "p={p} rep={rep}: {:?}",
                    r.err()
                );
            }
        }
    }

    #[test]
    fn wait_stats_populated() {
        let a = grid2d_unsym(8);
        let s = Structure::build(&a, false, false, 0, 4).unwrap();
        let BlockKind::NdBig(st) = &s.kinds[0] else {
            panic!();
        };
        let ap = Perm::permute_both(&s.row_perm, &s.col_perm, &a);
        let blocks = NdBlocks::extract(&ap, 0, st);
        let team = shared_team(4, false);
        let f = factor_nd_parallel(&blocks, st, 0.001, SyncMode::Barrier, 0, &team).unwrap();
        assert_eq!(f.wait_ns.len(), 4);
        assert_eq!(f.team_size(), 4);
        assert!(f.flops() > 0.0);
        assert!(f.lu_nnz() > 0);
    }
}
