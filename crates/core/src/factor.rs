//! The fresh factorization: the stage list of [`crate::stages`], every
//! item pivoting inside its own diagonal block, over `A`'s image in the
//! frozen store analyze recorded.
//!
//! The items are the Gilbert–Peierls kernels with partial pivoting: a
//! run of fine-BTF blocks factors block by block, each block a window of
//! the store, into flat arrays of the run's own ([`GpRun::factor`]); a
//! leaf's block column is one [`factor_block_column`] over `A`'s 2-D
//! blocks read in place
//! ([`NdSplit::block`](crate::structure::NdSplit::block)). A leaf that
//! analyze planned supernodally goes through the kernel of
//! [`crate::leaf`] instead, which keeps Gilbert–Peierls's pivots and
//! patterns: it hands the tail that pivots off the diagonal to partial
//! pivoting, or the whole leaf to [`factor_block_column`], inside the
//! same item. A separator's block column — its reduced diagonal block,
//! the reduced ancestor blocks stacked below as the halo — goes through
//! [`factor_stacked`], the helper the leaf tails use too: the blocked
//! bitset kernel `tail_gp` of [`crate::supernode`] when the column's
//! reach bitsets fit in its entries (a mesh's separators reduce to
//! near-dense blocks), its blocks the runs of columns that share one
//! pattern ([`pattern_blocks`]), else [`factor_block_column`]; either
//! keeps Gilbert–Peierls's pivots, patterns, flops and error columns.
//! The column item leaves on its [`BlockLu`] the supernodes of its `L`,
//! for the panels, and the runs of each below block's columns that
//! share one row pattern ([`pattern_runs`]), for the reductions. A
//! panel `U_{k,v}` is one [`lsolve_panel`] (for an inner separator `k`,
//! of `A_{k,v}` reduced over `k`'s descendants' panels first) over the
//! supernodes of `L_kk`, each supernode updating all the panel's
//! columns that reach it at once; a reduction chunk is
//! [`reduce_block_cols`], whose product applies
//! each run of `L_{t,k}` as a dense panel. Pivots are chosen inside the
//! item, so what an item computes depends on neither the rank that runs
//! it nor the order its stage is claimed in: the factors are
//! bit-identical at every team width.
//!
//! Each output is written once, into a `OnceLock` of its own item, and
//! read only by later stages, whose join orders the write before every
//! read. A reduction's terms are settled, and a reduction cut into
//! column chunks, just before its stage runs, when the factors it reads
//! exist and its multiply-adds can be counted. Those, and analyze's
//! estimates for the fine-BTF runs, are the only costs known before an
//! item runs; every other item is counted as worth a dispatch, so a
//! stage of more than one goes to the team with its unknowns claimed
//! first.
//!
//! The factorization leaves its [`Replay`] behind: the stages it ran,
//! each item re-weighted by the flops it did, and every reduction's
//! terms and reduced pattern with its values — what a refactorization
//! of the numeric replays without recording anything.

use crate::gp_store::{GpRun, GpStore};
use crate::leaf::factor_leaf;
use crate::parnum::NdFactors;
use crate::reduce::{pattern_runs, product_flops, reduce_block_cols, Term};
use crate::refactor::{ItemCell, NdReplay, Reduction, Replay, MAX_LEVELS, NONE};
use crate::stages::{column_chunks, layout_nd, run_stage, Item, NdItem, Stage, Work};
use crate::structure::NdStructure;
use crate::supernode::{factor_stacked, lsolve_panel, pattern_blocks, supernodes};
use crate::Basker;
use basker_klu::gp::{factor_block_column, BlockLu, ColsView};
use basker_runtime::WorkerTeam;
use basker_sparse::{CscMat, Result};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The cost of an item that cannot be counted before it runs.
const UNKNOWN: f64 = f64::INFINITY;

/// Factors the matrix whose block-diagonal store holds `diag_vals` on
/// `team`, one stage at a time: the factors of every ND block, the
/// store of the Gilbert–Peierls blocks, the replay of what ran, the
/// nanoseconds the caller spent blocked in stage joins, and the leaves
/// the supernodal kernel factored.
pub(crate) fn factor_blocks(
    sym: &Basker,
    diag_vals: Vec<f64>,
    team: &WorkerTeam,
) -> Result<(Vec<NdFactors>, GpStore, Replay, u64, usize)> {
    let (mut fresh, stages) = Fresh::new(sym, diag_vals);
    let mut ran = Vec::with_capacity(stages.len());
    let mut joined = 0;
    for items in stages {
        let stage = fresh.cut(items);
        joined += run_stage(&stage, team, |work| fresh.run(work))?.unwrap_or(0);
        ran.push(stage);
    }
    // ORDER: every stage has joined.
    let sn_leaves = fresh.sn_leaves.load(Ordering::Relaxed);
    let (nd, gp, replay) = fresh.finish(ran);
    Ok((nd, gp, replay, joined, sn_leaves))
}

/// One fresh factorization in flight.
struct Fresh<'a> {
    sym: &'a Basker,
    /// Values of the frozen block-diagonal store: `A`'s image.
    diag_vals: Vec<f64>,
    /// The factors of each fine-BTF run.
    runs: Vec<OnceLock<GpRun>>,
    /// The blocks of the structure's ND list, at the same index.
    nd: Vec<NdFresh<'a>>,
    /// Leaves the supernodal kernel factored.
    sn_leaves: AtomicUsize,
}

/// One ND block in flight.
struct NdFresh<'a> {
    st: &'a NdStructure,
    /// First permuted index of the block.
    lo: usize,
    /// Its reductions, their terms and patterns filled in by
    /// `Fresh::finish`.
    rec: NdReplay,
    /// Per node: its stacked block column.
    diag: Vec<OnceLock<BlockLu>>,
    /// Per node `v`, per descendant `k` (ascending): `U_{k,v}`.
    upper: Vec<Vec<OnceLock<CscMat>>>,
    /// Per reduction: `(first column, the chunk)`, ascending — one
    /// chunk of every column until a stage cuts it (a panel's never is).
    chunks: Vec<Vec<(usize, OnceLock<CscMat>)>>,
}

/// What an earlier stage wrote.
fn done<T>(cell: &OnceLock<T>) -> &T {
    cell.get().expect("an earlier stage wrote it")
}

fn put<T>(cell: &OnceLock<T>, value: T) {
    assert!(cell.set(value).is_ok(), "one item per output");
}

/// Flops of the panel solve `U = L⁻¹·B` over `U`'s pattern.
fn panel_flops(l: &CscMat, u: &CscMat) -> f64 {
    u.rowind()
        .iter()
        .map(|&t| 2.0 * (l.colptr()[t + 1] - l.colptr()[t] - 1) as f64)
        .sum()
}

impl<'a> Fresh<'a> {
    /// The state of a factorization of `diag_vals` under `sym`, and its
    /// stages with every reduction still whole.
    fn new(sym: &'a Basker, diag_vals: Vec<f64>) -> (Fresh<'a>, Vec<Vec<Item>>) {
        let inner = &*sym.inner;
        let st = &inner.structure;
        let mut stages: Vec<Vec<Item>> = vec![inner
            .runs
            .iter()
            .enumerate()
            .map(|(run, &(.., flops))| Item {
                work: Work::Gp { run },
                flops,
            })
            .collect()];
        let mut nd = Vec::new();
        for (i, block) in st.nd_blocks.iter().enumerate() {
            let nds = &block.st;
            assert!(nds.nd.levels <= MAX_LEVELS, "separator tree too deep");
            let nn = nds.nnodes();
            let mut rec = NdReplay {
                reductions: Vec::new(),
                target_of: vec![NONE; nn],
                panel_of: (0..nn)
                    .map(|v| vec![NONE; v - nds.subtree_start[v]])
                    .collect(),
            };
            let mut pending = |v: usize, tgt: usize| {
                let nrows = nds.nd.nodes[tgt].len();
                let red = Reduction {
                    v,
                    tgt,
                    nrows,
                    ..Reduction::default()
                };
                rec.reductions.push(red);
                rec.reductions.len() - 1
            };
            layout_nd(nds, &mut stages, |item, stage| {
                let work = match item {
                    NdItem::Column(v) => Work::Column { nd: i, v },
                    NdItem::Panel(v, k) => {
                        if !nds.nd.nodes[k].is_leaf() {
                            rec.panel_of[v][k - nds.subtree_start[v]] = pending(v, k);
                        }
                        Work::Panel { nd: i, v, k }
                    }
                    NdItem::Reduce(v, t) => {
                        let r = pending(v, t);
                        if t == v {
                            rec.target_of[v] = r;
                        }
                        Work::Reduce {
                            nd: i,
                            r,
                            c0: 0,
                            c1: 0,
                        }
                    }
                };
                stage.push(Item {
                    work,
                    flops: UNKNOWN,
                });
            });
            let nred = rec.reductions.len();
            nd.push(NdFresh {
                st: nds,
                lo: st.bounds[block.block],
                rec,
                diag: (0..nn).map(|_| OnceLock::new()).collect(),
                upper: (0..nn)
                    .map(|v| nds.descendants(v).map(|_| OnceLock::new()).collect())
                    .collect(),
                chunks: (0..nred).map(|_| vec![(0, OnceLock::new())]).collect(),
            });
        }
        let fresh = Fresh {
            sym,
            diag_vals,
            runs: inner.runs.iter().map(|_| OnceLock::new()).collect(),
            nd,
            sn_leaves: AtomicUsize::new(0),
        };
        (fresh, stages)
    }

    /// `A_{r,v}` of ND block `nd`, read in place.
    fn a_block(&self, nd: usize, v: usize, r: usize) -> ColsView<'_> {
        let (f, frozen) = (&self.nd[nd], &self.sym.inner.frozen);
        frozen.nd[nd].block(&frozen.btf, &self.diag_vals, f.lo, f.st, v, r)
    }

    /// The stage of `items`, each elimination target's reduction cut
    /// into column chunks.
    fn cut(&mut self, items: Vec<Item>) -> Stage {
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let Work::Reduce { nd, r, .. } = item.work else {
                out.push(item);
                continue;
            };
            let (f, red) = (&self.nd[nd], &self.nd[nd].rec.reductions[r]);
            let a = self.a_block(nd, red.v, red.tgt);
            let chunks = column_chunks(a.ncols(), |c| {
                a.col(c).len() as f64 + product_flops(f.terms(r), c)
            });
            out.extend(chunks.iter().map(|&(c0, c1, flops)| Item {
                work: Work::Reduce { nd, r, c0, c1 },
                flops,
            }));
            self.nd[nd].chunks[r] = chunks.iter().map(|c| (c.0, OnceLock::new())).collect();
        }
        Stage::new(out)
    }

    /// Runs one item.
    fn run(&self, work: Work) -> Result<()> {
        let inner = &*self.sym.inner;
        let bounds = &inner.structure.bounds;
        let btf = &inner.frozen.btf;
        let pivot_tol = inner.opts.pivot_tol;
        match work {
            Work::Gp { run } => {
                let (b0, b1, _) = inner.runs[run];
                let f = GpRun::factor(btf, &self.diag_vals, bounds, b0..b1, pivot_tol)?;
                put(&self.runs[run], f);
            }
            Work::Column { nd, v } => self.column(nd, v, pivot_tol)?,
            Work::Panel { nd, v, k } => self.panel(nd, v, k),
            Work::Reduce { nd, r, c0, c1 } => {
                let (f, red) = (&self.nd[nd], &self.nd[nd].rec.reductions[r]);
                let a = self.a_block(nd, red.v, red.tgt);
                put(f.chunk(r, c0), reduce_block_cols(a, f.terms(r), c0..c1));
            }
        }
        Ok(())
    }

    /// Factors node `v`'s stacked block column: a leaf's over `A`'s
    /// blocks, a separator's over its elimination targets, assembled;
    /// the factor carries its `L`'s supernodes for the panels `U_{v,a}`
    /// and its below blocks' runs for the reductions that read them.
    fn column(&self, nd: usize, v: usize, pivot_tol: f64) -> Result<()> {
        let f = &self.nd[nd];
        let off = f.lo + f.st.nd.nodes[v].range.start;
        let ancestors = &f.st.ancestors[v];
        let mut blu = if f.st.nd.nodes[v].is_leaf() {
            let below: Vec<_> = ancestors.iter().map(|&a| self.a_block(nd, v, a)).collect();
            let diag = self.a_block(nd, v, v);
            match &f.st.leaf_plans[v] {
                Some(plan) => {
                    let (blu, supernodal) = factor_leaf(plan, diag, &below, pivot_tol, off)?;
                    // ORDER: a count, read after the stage joins, which
                    // order every item's writes before the caller's reads.
                    self.sn_leaves
                        .fetch_add(usize::from(supernodal), Ordering::Relaxed);
                    blu
                }
                None => factor_block_column(diag, &below, pivot_tol, off)?,
            }
        } else {
            let targets = f.rec.target_of[v]..=f.rec.target_of[v] + ancestors.len();
            let reduced: Vec<_> = targets.map(|r| f.assembled(r)).collect();
            let nnz = reduced.iter().map(CscMat::nnz).sum();
            let blocks: Vec<_> = reduced.iter().map(ColsView::of).collect();
            let (diag, below) = (blocks[0], &blocks[1..]);
            let cols = pattern_blocks(diag, below, nnz);
            factor_stacked(diag, below, &cols, nnz, pivot_tol, off)?
        };
        blu.supernodes = supernodes(&blu.l);
        blu.below_runs = blu.below.iter().map(pattern_runs).collect();
        put(&f.diag[v], blu);
        Ok(())
    }

    /// Solves the panel `U_{k,v} = L_kk⁻¹·P_k·Â_{k,v}`, where `Â_{k,v}`
    /// is `A_{k,v}` for a leaf `k`, else reduced over `k`'s descendants,
    /// supernode by supernode of `L_kk`.
    fn panel(&self, nd: usize, v: usize, k: usize) {
        let f = &self.nd[nd];
        let slot = k - f.st.subtree_start[v];
        let a = self.a_block(nd, v, k);
        let b = match f.rec.panel_of[v][slot] {
            NONE => a,
            r => {
                put(
                    f.chunk(r, 0),
                    reduce_block_cols(a, f.terms(r), 0..a.ncols()),
                );
                ColsView::of(done(f.chunk(r, 0)))
            }
        };
        let l = done(&f.diag[k]);
        put(&f.upper[v][slot], lsolve_panel(l, b));
    }

    /// The flops `work` did, once every stage has run.
    fn spent(&self, work: Work) -> f64 {
        let inner = &*self.sym.inner;
        let (bounds, colptr) = (&inner.structure.bounds, inner.frozen.btf.diag_colptr());
        match work {
            // Plus two per gathered entry, so that flop-less singletons
            // still weigh something.
            Work::Gp { run } => {
                let (b0, b1, _) = inner.runs[run];
                let entries = colptr[bounds[b1]] - colptr[bounds[b0]];
                done(&self.runs[run]).tally().flops + 2.0 * entries as f64
            }
            Work::Column { nd, v } => done(&self.nd[nd].diag[v]).flops,
            Work::Panel { nd, v, k } => {
                let f = &self.nd[nd];
                let slot = k - f.st.subtree_start[v];
                panel_flops(&done(&f.diag[k]).l, done(&f.upper[v][slot]))
                    + match f.rec.panel_of[v][slot] {
                        NONE => 0.0,
                        r => f.reduced_flops(r, 0),
                    }
            }
            Work::Reduce { nd, r, c0, .. } => self.nd[nd].reduced_flops(r, c0),
        }
    }

    /// The factors of every ND block, the store of the Gilbert–Peierls
    /// blocks, and the replay of the stages `ran`, once every stage has
    /// run.
    fn finish(mut self, ran: Vec<Stage>) -> (Vec<NdFactors>, GpStore, Replay) {
        // Per ND block: the flops of its panels and reductions.
        let mut update_flops = vec![0.0; self.nd.len()];
        let stages = ran
            .into_iter()
            .filter(|stage| !stage.items.is_empty())
            .map(|stage| {
                let items = stage.items.into_iter();
                Stage::new(
                    items
                        .map(|i| {
                            let flops = self.spent(i.work);
                            if let Work::Panel { nd, .. } | Work::Reduce { nd, .. } = i.work {
                                update_flops[nd] += flops;
                            }
                            Item { flops, ..i }
                        })
                        .collect(),
                )
            })
            .collect();
        let mut red_vals = Vec::new();
        for f in &mut self.nd {
            for r in 0..f.rec.reductions.len() {
                let (m, terms) = (f.assembled(r), f.nonzero_terms(r));
                let red = &mut f.rec.reductions[r];
                (red.terms, red.off) = (terms, red_vals.len());
                red.colptr = m.colptr().to_vec();
                red.rowind = m.rowind().to_vec();
                red_vals.extend_from_slice(m.values());
            }
        }
        let (mut nd, mut nd_factors) = (Vec::new(), Vec::new());
        for (f, update_flops) in self.nd.into_iter().zip(update_flops) {
            nd.push(f.rec);
            nd_factors.push(NdFactors {
                fact_diag: f.diag.into_iter().map(taken).collect(),
                fact_upper: f
                    .upper
                    .into_iter()
                    .map(|panels| panels.into_iter().map(taken).collect())
                    .collect(),
                update_flops,
            });
        }
        let runs = self.runs.into_iter().map(|cell| cell.into_inner());
        let gp = GpStore::new(runs.map(|f| f.expect("every stage ran")).collect());
        let replay = Replay {
            diag_vals: self.diag_vals,
            red_vals,
            nd,
            stages,
        };
        (nd_factors, gp, replay)
    }
}

/// What a stage wrote, for the numeric to keep.
fn taken<T>(cell: OnceLock<T>) -> ItemCell<T> {
    ItemCell::new(cell.into_inner().expect("every stage ran"))
}

impl NdFresh<'_> {
    /// The term `L_{tgt,k}·U_{k,v}` of a reduction.
    fn operands(&self, v: usize, tgt: usize, k: usize) -> Term<'_> {
        let (st, blu) = (self.st, done(&self.diag[k]));
        let at = st.anc_pos(k, tgt);
        Term {
            l: &blu.below[at],
            runs: &blu.below_runs[at],
            u: done(&self.upper[v][k - st.subtree_start[v]]),
        }
    }

    /// The terms of reduction `r`, in subtraction order: one per
    /// descendant of the target — of `v`, for an ancestor target.
    fn terms(&self, r: usize) -> impl Iterator<Item = Term<'_>> + Clone {
        let red = &self.rec.reductions[r];
        let ks = self.st.descendants(red.tgt.min(red.v));
        ks.map(|k| self.operands(red.v, red.tgt, k))
    }

    /// The descendants whose term in reduction `r` is structurally
    /// nonzero: the replay skips the others.
    fn nonzero_terms(&self, r: usize) -> Vec<usize> {
        let red = &self.rec.reductions[r];
        let ks = self.st.descendants(red.tgt.min(red.v));
        ks.filter(|&k| {
            let term = self.operands(red.v, red.tgt, k);
            term.l.nnz() > 0 && term.u.nnz() > 0
        })
        .collect()
    }

    /// Reduction `r` whole, its chunks side by side.
    fn assembled(&self, r: usize) -> CscMat {
        let (mut colptr, mut rowind, mut values) = (vec![0], Vec::new(), Vec::new());
        for (_, chunk) in &self.chunks[r] {
            let m = done(chunk);
            let base = rowind.len();
            colptr.extend(m.colptr()[1..].iter().map(|&p| base + p));
            rowind.extend_from_slice(m.rowind());
            values.extend_from_slice(m.values());
        }
        let nrows = self.rec.reductions[r].nrows;
        CscMat::new(nrows, colptr.len() - 1, colptr, rowind, values)
            .expect("chunks of one reduced block")
    }

    /// The chunk of reduction `r` that starts at column `c0`.
    fn chunk(&self, r: usize, c0: usize) -> &OnceLock<CscMat> {
        let chunks = &self.chunks[r];
        let i = chunks.binary_search_by_key(&c0, |c| c.0);
        &chunks[i.expect("a stage cut this chunk")].1
    }

    /// The flops of the chunk of reduction `r` that starts at column
    /// `c0`: one per reduced entry plus the multiply-adds of its terms.
    fn reduced_flops(&self, r: usize, c0: usize) -> f64 {
        let m = done(self.chunk(r, c0));
        (0..m.ncols())
            .map(|c| m.col_rows(c).len() as f64 + product_flops(self.terms(r), c0 + c))
            .sum()
    }
}
