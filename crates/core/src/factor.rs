//! The fresh factorization: the stage list of [`crate::stages`], every
//! item pivoting inside its own diagonal block.
//!
//! The items are the Gilbert–Peierls kernels with partial pivoting: a
//! run of fine-BTF blocks factors block by block
//! ([`BlockFactor::factor_range`]); a supernodal block goes through its
//! engine; a block column is one [`factor_block_column`] — a leaf's over
//! `A`'s blocks, a separator's over its reduced blocks; a panel
//! `U_{k,v}` is one [`lsolve_col`] per column (for an inner separator
//! `k`, of `A_{k,v}` reduced over `k`'s descendants' panels first); a
//! reduction chunk is [`reduce_block_cols`]. Pivots are chosen inside
//! the item, so what an item computes depends on neither the rank that
//! runs it nor the order its stage is claimed in: the factors are
//! bit-identical at every team width.
//!
//! Each output is written once, into a `OnceLock` of its own item, and
//! read only by later stages, whose join orders the write before every
//! read. A reduction is cut into column chunks just before its stage
//! runs, when the factors it reads exist and its multiply-adds can be
//! counted. Those, and analyze's estimates for the fine-BTF runs, are
//! the only costs known before an item runs; every other item is
//! counted as worth a dispatch, so a stage of more than one goes to the
//! team with its unknowns claimed first.

use crate::hybrid::BlockStrategy;
use crate::parnum::NdFactors;
use crate::reduce::{product_flops, reduce_block, reduce_block_cols};
use crate::refactor::ItemCell;
use crate::stages::{column_chunks, layout_nd, run_stage, Item, NdItem, Stage, Work};
use crate::structure::{BlockKind, NdBlocks, NdStructure};
use crate::{Basker, BlockFactors, NdPart, SnFactors};
use basker_klu::gp::{factor_block_column, lsolve_col, BlockFactor, BlockLu, LsolveWorkspace};
use basker_runtime::WorkerTeam;
use basker_sparse::blocks::extract_range;
use basker_sparse::col::cols_to_csc;
use basker_sparse::{CscMat, Result, SolveWorkspace};
use std::sync::{Mutex, OnceLock};

/// The cost of an item that cannot be counted before it runs.
const UNKNOWN: f64 = f64::INFINITY;

/// Factors `ap` — `a` under the handle's permutations — on `team`, one
/// stage at a time: the factors of every BTF block, and the nanoseconds
/// the caller spent blocked in stage joins.
pub(crate) fn factor_blocks(
    sym: &Basker,
    ap: &CscMat,
    team: &WorkerTeam,
) -> Result<(Vec<BlockFactors>, u64)> {
    let (mut fresh, stages) = Fresh::new(sym, ap);
    let mut joined = 0;
    for items in stages {
        let stage = fresh.cut(items);
        joined += run_stage(&stage, team, |work| fresh.run(work))?.unwrap_or(0);
    }
    Ok((fresh.finish(), joined))
}

/// One fresh factorization in flight.
struct Fresh<'a> {
    sym: &'a Basker,
    ap: &'a CscMat,
    /// The factors of each Gilbert–Peierls or supernodal block.
    blocks: Vec<OnceLock<BlockFactors>>,
    /// The ND blocks, ascending.
    nd: Vec<NdFresh<'a>>,
}

/// One ND block in flight.
struct NdFresh<'a> {
    st: &'a NdStructure,
    /// First permuted index of the block.
    lo: usize,
    a: NdBlocks,
    /// Per node: its stacked block column.
    diag: Vec<OnceLock<BlockLu>>,
    /// Per node `v`, per descendant `k` (ascending): `U_{k,v}`.
    upper: Vec<Vec<OnceLock<CscMat>>>,
    /// Every elimination target's reduction, ascending by separator.
    reductions: Vec<Reduction>,
}

/// `Â_{t,v}` for a target `t` of separator `v`'s elimination, as the
/// column chunks its stage cut it into.
struct Reduction {
    v: usize,
    t: usize,
    /// `(first column, the chunk)`, ascending.
    chunks: Vec<(usize, OnceLock<CscMat>)>,
}

/// What an earlier stage wrote.
fn done<T>(cell: &OnceLock<T>) -> &T {
    cell.get().expect("an earlier stage wrote it")
}

fn put<T>(cell: &OnceLock<T>, value: T) {
    assert!(cell.set(value).is_ok(), "one item per output");
}

impl<'a> Fresh<'a> {
    /// The state of a factorization of `ap` under `sym`'s plan, and its
    /// stages with every reduction still whole.
    fn new(sym: &'a Basker, ap: &'a CscMat) -> (Fresh<'a>, Vec<Vec<Item>>) {
        let inner = &*sym.inner;
        let st = &inner.structure;
        let mut stages: Vec<Vec<Item>> = vec![inner
            .runs
            .iter()
            .map(|&(b0, b1, flops)| Item {
                work: Work::Gp { b0, b1 },
                flops,
            })
            .collect()];
        let mut nd = Vec::new();
        for (b, strategy) in inner.plan.iter().enumerate() {
            match strategy {
                BlockStrategy::Gp => {}
                BlockStrategy::Supernodal => stages[0].push(Item {
                    work: Work::Sn { b },
                    flops: UNKNOWN,
                }),
                BlockStrategy::Nd => {
                    let BlockKind::NdBig(nds) = &st.kinds[b] else {
                        unreachable!("analyze plans Nd on ND-laid-out blocks only");
                    };
                    let i = nd.len();
                    let mut reductions = Vec::new();
                    layout_nd(nds, &mut stages, |item, stage| {
                        let work = match item {
                            NdItem::Column(v) => Work::Column { nd: i, v },
                            NdItem::Panel(v, k) => Work::Panel { nd: i, v, k },
                            NdItem::Reduce(v, t) => {
                                reductions.push(Reduction {
                                    v,
                                    t,
                                    chunks: Vec::new(),
                                });
                                let r = reductions.len() - 1;
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
                    let lo = st.bounds[b];
                    nd.push(NdFresh {
                        st: nds,
                        lo,
                        a: NdBlocks::extract(ap, lo, nds),
                        diag: (0..nds.nnodes()).map(|_| OnceLock::new()).collect(),
                        upper: (0..nds.nnodes())
                            .map(|v| nds.descendants(v).map(|_| OnceLock::new()).collect())
                            .collect(),
                        reductions,
                    });
                }
            }
        }
        let fresh = Fresh {
            sym,
            ap,
            blocks: (0..st.nblocks()).map(|_| OnceLock::new()).collect(),
            nd,
        };
        (fresh, stages)
    }

    /// The stage of `items`, each reduction cut into column chunks.
    fn cut(&mut self, items: Vec<Item>) -> Stage {
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let Work::Reduce { nd, r, .. } = item.work else {
                out.push(item);
                continue;
            };
            let f = &mut self.nd[nd];
            let (v, t) = (f.reductions[r].v, f.reductions[r].t);
            let a = f.a.block(f.st, v, t);
            let chunks = column_chunks(a.ncols(), |c| {
                a.col_rows(c).len() as f64 + product_flops(f.terms(v, t), c)
            });
            out.extend(chunks.iter().map(|&(c0, c1, flops)| Item {
                work: Work::Reduce { nd, r, c0, c1 },
                flops,
            }));
            f.reductions[r].chunks = chunks.iter().map(|c| (c.0, OnceLock::new())).collect();
        }
        Stage::new(out)
    }

    /// Runs one item.
    fn run(&self, work: Work) -> Result<()> {
        let inner = &*self.sym.inner;
        let bounds = &inner.structure.bounds;
        let pivot_tol = inner.opts.pivot_tol;
        match work {
            Work::Gp { b0, b1 } => {
                for b in b0..b1 {
                    // Ascending blocks: the first failure is the run's
                    // smallest failing column.
                    let f =
                        BlockFactor::factor_range(self.ap, bounds[b], bounds[b + 1], pivot_tol)?;
                    put(&self.blocks[b], BlockFactors::Gp(f));
                }
            }
            Work::Sn { b } => {
                let (lo, hi) = (bounds[b], bounds[b + 1]);
                let diag = extract_range(self.ap, lo..hi, lo..hi);
                let num = self.sym.snlu_symbolic(b, &diag)?.factor(&diag)?;
                let sn = SnFactors {
                    num,
                    ws: Mutex::new(SolveWorkspace::for_dim(hi - lo)),
                    diag,
                };
                put(&self.blocks[b], BlockFactors::Sn(Box::new(sn)));
            }
            Work::Column { nd, v } => self.nd[nd].column(v, pivot_tol)?,
            Work::Panel { nd, v, k } => self.nd[nd].panel(v, k),
            Work::Reduce { nd, r, c0, c1 } => self.nd[nd].reduce(r, c0, c1),
        }
        Ok(())
    }

    /// The factors of every BTF block, once every stage has run.
    fn finish(self) -> Vec<BlockFactors> {
        let mut nd = self.nd.into_iter();
        self.blocks
            .into_iter()
            .map(|cell| {
                cell.into_inner().unwrap_or_else(|| {
                    let part = nd.next().expect("a block without factors is an ND block");
                    BlockFactors::Nd(Box::new(part.finish()))
                })
            })
            .collect()
    }
}

impl NdFresh<'_> {
    /// The terms `(L_{t,k}, U_{k,v})` of `Â_{t,v}`, ascending over the
    /// descendants `k` of `v` — of `t`, for a target below `v`.
    fn terms(&self, v: usize, t: usize) -> impl Iterator<Item = (&CscMat, &CscMat)> + Clone {
        let st = self.st;
        st.descendants(t.min(v)).map(move |k| {
            (
                &done(&self.diag[k]).below[st.anc_pos(k, t)],
                done(&self.upper[v][k - st.subtree_start[v]]),
            )
        })
    }

    /// Factors node `v`'s stacked block column.
    fn column(&self, v: usize, pivot_tol: f64) -> Result<()> {
        let off = self.lo + self.st.nd.nodes[v].range.start;
        let blu = if self.st.nd.nodes[v].is_leaf() {
            let below: Vec<&CscMat> = self.a.lower[v].iter().collect();
            factor_block_column(&self.a.diag[v], &below, pivot_tol, off)?
        } else {
            let first = self.reductions.partition_point(|red| red.v < v);
            let targets = &self.reductions[first..=first + self.st.ancestors[v].len()];
            let reduced: Vec<CscMat> = targets
                .iter()
                .map(|red| red.assembled(self.st.nd.nodes[red.t].len()))
                .collect();
            let below: Vec<&CscMat> = reduced[1..].iter().collect();
            factor_block_column(&reduced[0], &below, pivot_tol, off)?
        };
        put(&self.diag[v], blu);
        Ok(())
    }

    /// Solves the panel `U_{k,v} = L_kk⁻¹·P_k·Â_{k,v}`, where `Â_{k,v}`
    /// is `A_{k,v}` for a leaf `k`, else reduced over `k`'s descendants.
    fn panel(&self, v: usize, k: usize) {
        let a = self.a.block(self.st, v, k);
        let reduced;
        let b = if self.st.nd.nodes[k].is_leaf() {
            a
        } else {
            let terms: Vec<_> = self.terms(v, k).collect();
            reduced = reduce_block(a, &terms);
            &reduced
        };
        let l = done(&self.diag[k]);
        let mut ws = LsolveWorkspace::new();
        let cols = (0..b.ncols())
            .map(|c| lsolve_col(l, b.col_rows(c), b.col_values(c), &mut ws))
            .collect();
        let u = cols_to_csc(self.st.nd.nodes[k].len(), cols);
        put(&self.upper[v][k - self.st.subtree_start[v]], u);
    }

    /// Reduces columns `c0..c1` of reduction `r`: one of its chunks.
    fn reduce(&self, r: usize, c0: usize, c1: usize) {
        let red = &self.reductions[r];
        let terms: Vec<_> = self.terms(red.v, red.t).collect();
        let chunk = red
            .chunks
            .binary_search_by_key(&c0, |c| c.0)
            .expect("the stage cut this chunk");
        let out = reduce_block_cols(self.a.block(self.st, red.v, red.t), &terms, c0..c1);
        put(&red.chunks[chunk].1, out);
    }

    fn finish(self) -> NdPart {
        fn take<T>(cell: OnceLock<T>) -> ItemCell<T> {
            ItemCell::new(cell.into_inner().expect("every stage ran"))
        }
        NdPart {
            f: NdFactors {
                fact_diag: self.diag.into_iter().map(take).collect(),
                fact_upper: self
                    .upper
                    .into_iter()
                    .map(|panels| panels.into_iter().map(take).collect())
                    .collect(),
            },
            blocks: Some(self.a),
        }
    }
}

impl Reduction {
    /// The whole reduced block, its chunks side by side.
    fn assembled(&self, nrows: usize) -> CscMat {
        let (mut colptr, mut rowind, mut values) = (vec![0], Vec::new(), Vec::new());
        for (_, chunk) in &self.chunks {
            let m = done(chunk);
            let base = rowind.len();
            colptr.extend(m.colptr()[1..].iter().map(|&p| base + p));
            rowind.extend_from_slice(m.rowind());
            values.extend_from_slice(m.values());
        }
        CscMat::new(nrows, colptr.len() - 1, colptr, rowind, values)
            .expect("chunks of one reduced block")
    }
}
