//! # Basker: threaded sparse LU with hierarchical parallelism
//!
//! A from-scratch Rust reproduction of *Basker: A Threaded Sparse LU
//! Factorization Utilizing Hierarchical Parallelism and Data Layouts*
//! (Booth, Rajamanickam, Thornquist — IPDPS 2016).
//!
//! Basker targets low fill-in matrices (circuits, power grids) where
//! supernodal/BLAS solvers stall. It exposes parallelism at two levels:
//!
//! * a **coarse BTF** structure whose small diagonal blocks factor
//!   independently (paper Alg. 2), and
//! * a **fine ND** 2-D block structure over each large diagonal block,
//!   whose *parallel* Gilbert–Peierls factorization (paper Alg. 3–4)
//!   runs as stages of independent block tasks on a thread team,
//!   synchronizing only at the joins between stages (the [`stages`]
//!   module; the paper hands columns between threads point-to-point).
//!
//! Both levels run under **one BTF block driver** executing a per-block
//! plan of [`BlockStrategy`] entries. [`Basker`]
//! builds it with the paper's plan; [`hybrid::HybridLu`] builds the same
//! driver with a plan classified block by block, which may also route a
//! block to the supernodal engine. Both produce a [`BaskerNumeric`].
//!
//! ## Quickstart
//!
//! ```
//! use basker::{Basker, BaskerOptions};
//! use basker_sparse::CscMat;
//!
//! // A small diagonally dominant system.
//! let a = CscMat::from_dense(&[
//!     vec![10.0, 2.0, 0.0],
//!     vec![3.0, 12.0, 4.0],
//!     vec![0.0, 1.0, 9.0],
//! ]);
//! let solver = Basker::analyze(&a, &BaskerOptions::default()).unwrap();
//! let num = solver.factor(&a).unwrap();
//! let mut ws = basker_sparse::SolveWorkspace::new();
//! let mut x = vec![12.0, 19.0, 10.0];
//! num.solve_in_place(&mut x, &mut ws);
//! assert!(basker_sparse::util::relative_residual(&a, &x, &[12.0, 19.0, 10.0]) < 1e-12);
//! ```

#![warn(missing_docs)]

mod factor;
pub mod frozen;
mod gp_store;
pub mod hybrid;
mod leaf;
pub mod parnum;
pub mod reduce;
pub mod refactor;
pub mod solve;
pub mod stages;
pub mod stats;
pub mod structure;

pub use stats::BaskerStats;

use crate::gp_store::GpStore;
use crate::hybrid::{classify_block, BlockStrategy, HybridOptions};
use crate::parnum::NdFactors;
use crate::refactor::{Frozen, Replay};
use crate::solve::solve_nd_in_place;
use crate::stages::gp_runs;
use crate::structure::{BlockKind, Structure};
use basker_ordering::symbolic::symbolic_gp;
use basker_runtime::{shared_team, WorkerTeam};
use basker_snlu::{Snlu, SnluNumeric, SnluOptions};
use basker_sparse::metrics::BlockMetrics;
use basker_sparse::trisolve::push_columns;
use basker_sparse::workspace::{gather_panel, packed_columns, panel_chunks, scatter_panel};
use basker_sparse::{CscMat, Result, SolveWorkspace, SparseError};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Reads the `BASKER_NUM_THREADS` environment override used by the
/// default configurations (CI runs the whole suite under
/// `BASKER_NUM_THREADS=4` so the parallel paths are exercised at more
/// than one thread on every push). Returns `None` when unset or
/// unparsable.
pub fn env_default_threads() -> Option<usize> {
    std::env::var("BASKER_NUM_THREADS")
        .ok()?
        .trim()
        .parse()
        .ok()
        .filter(|&n| n >= 1)
}

/// Keeps in `slot` whichever of its error and `e` names the smaller
/// zero-pivot column (any other error sorts last; ties keep the first).
/// A team whose items all run to their end then reports the same error
/// at every width, whichever rank failed first.
pub(crate) fn keep_smallest_column(slot: &Mutex<Option<SparseError>>, e: SparseError) {
    let column_of = |e: &SparseError| match e {
        SparseError::ZeroPivot { column } => *column,
        _ => usize::MAX,
    };
    let mut kept = slot.lock().expect("nothing panics under this lock");
    if kept.as_ref().map_or(true, |k| column_of(&e) < column_of(k)) {
        *kept = Some(e);
    }
}

/// Tuning options for Basker.
#[derive(Debug, Clone)]
pub struct BaskerOptions {
    /// Requested threads; rounded **down** to a power of two (the ND tree
    /// is binary — paper §III-C: "Basker is limited to using a power of
    /// two threads").
    pub nthreads: usize,
    /// Threshold partial-pivoting tolerance (diagonal kept when within
    /// `pivot_tol` of the column max).
    pub pivot_tol: f64,
    /// Apply the coarse BTF structure.
    pub use_btf: bool,
    /// Use the bottleneck MWCM transversal for the BTF.
    pub use_mwcm: bool,
    /// BTF blocks at least this large get the fine ND treatment; smaller
    /// ones use the fine BTF path.
    pub nd_threshold: usize,
}

/// The two synchronization schemes paper §IV compares. Both values run
/// the same stage list, which synchronizes only at the joins between
/// stages; the name stays for callers that still pass one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Producer/consumer flags between dependent threads (the paper's
    /// scheme).
    PointToPoint,
    /// A full team barrier at every dependency level (the baseline the
    /// paper measures against).
    Barrier,
}

impl Default for BaskerOptions {
    fn default() -> Self {
        BaskerOptions {
            nthreads: env_default_threads().unwrap_or(2),
            pivot_tol: 0.001,
            use_btf: true,
            use_mwcm: true,
            nd_threshold: 128,
        }
    }
}

/// What one handle shares with every factorization made from it.
struct SymInner {
    opts: BaskerOptions,
    structure: Structure,
    /// The process-shared team; its width is the effective thread count.
    team: Arc<WorkerTeam>,
    /// Alg. 2's fine-BTF set — the blocks the plan leaves on
    /// Gilbert–Peierls — as the fresh factor's runs: `(first block, end
    /// block, estimated flops)`.
    runs: Vec<(usize, usize, f64)>,
    /// The blocks the plan hands to another engine — supernodal and ND
    /// blocks — ascending: the factors the Gilbert–Peierls store does
    /// not hold.
    non_gp: Vec<usize>,
    /// One strategy per BTF block, fixed by `analyze`.
    plan: Vec<BlockStrategy>,
    /// The plan came from [`classify_block`], not from the layout alone.
    classified: bool,
    /// Options (at this handle's thread count) and lazily built analyses
    /// of the supernodal-routed blocks (pattern-stable, so one analysis
    /// serves the whole stream).
    snlu: SnluOptions,
    sn_sym: Mutex<HashMap<usize, Snlu>>,
    /// The value map of the analyzed pattern, recorded by `analyze`:
    /// every factorization and refactorization reads `A` through it.
    frozen: Frozen,
}

/// The symbolic handle of the BTF block driver: orderings, block
/// structure, worker team and a per-block plan, reusable across a
/// sequence of matrices with one pattern. [`Basker::analyze`] installs
/// the paper's plan (fine-BTF blocks to Gilbert–Peierls, fine-ND blocks
/// to the team); [`HybridLu::analyze`](hybrid::HybridLu::analyze) builds
/// the same handle with a classified plan. Cheap to clone.
#[derive(Clone)]
pub struct Basker {
    inner: Arc<SymInner>,
}

impl Basker {
    /// Analyzes the pattern of `a` (paper Alg. 2): BTF, AMD/ND
    /// refinement and thread partitioning, under the paper's plan.
    pub fn analyze(a: &CscMat, opts: &BaskerOptions) -> Result<Basker> {
        Basker::analyze_with(a, opts, None)
    }

    /// The one analyze. With `classify`, every diagonal block is also
    /// measured and routed by [`classify_block`]; the structure and the
    /// global permutations do not depend on it.
    fn analyze_with(
        a: &CscMat,
        opts: &BaskerOptions,
        classify: Option<&HybridOptions>,
    ) -> Result<Basker> {
        let threads = opts.nthreads.max(1);
        let threads = if threads.is_power_of_two() {
            threads
        } else {
            threads.next_power_of_two() / 2
        };
        let structure =
            Structure::build(a, opts.use_btf, opts.use_mwcm, opts.nd_threshold, threads)?;
        let frozen = Frozen::record(a, &structure)?;
        let (diag_vals, _) = frozen.btf.image(a);
        let nblocks = structure.nblocks();
        let mut plan = Vec::with_capacity(nblocks);
        let mut gp_flops = Vec::with_capacity(nblocks);
        for b in 0..nblocks {
            let (lo, hi) = (structure.bounds[b], structure.bounds[b + 1]);
            let nds = match &structure.kinds[b] {
                BlockKind::Small => None,
                BlockKind::NdBig(nds) => Some(nds),
            };
            let diag = (hi - lo > 1 && (nds.is_none() || classify.is_some()))
                .then(|| frozen.btf.diag_cols(&diag_vals, lo..hi).to_csc());
            let strategy = match (classify, nds) {
                (None, None) => BlockStrategy::Gp,
                (None, Some(_)) => BlockStrategy::Nd,
                (Some(o), _) => {
                    let metrics = diag.as_ref().map(BlockMetrics::compute);
                    let sep = nds.map_or(0, |s| s.nd.nodes[s.nnodes() - 1].len());
                    classify_block(
                        hi - lo,
                        metrics.as_ref(),
                        nds.is_some(),
                        sep as f64 / (hi - lo).max(1) as f64,
                        threads,
                        o,
                    )
                }
            };
            // Per-block flop estimates (Alg. 2 line 3), plus two per
            // entry read so that flop-less singletons weigh something.
            gp_flops.push((strategy == BlockStrategy::Gp).then(|| {
                diag.as_ref()
                    .map_or(2.0, |d| symbolic_gp(d).flops + 2.0 * d.nnz() as f64)
            }));
            plan.push(strategy);
        }

        Ok(Basker {
            inner: Arc::new(SymInner {
                opts: opts.clone(),
                structure,
                // Threads are spawned at most once per width for the
                // process lifetime and parked between jobs.
                team: shared_team(threads, false),
                runs: gp_runs(gp_flops),
                non_gp: (0..nblocks)
                    .filter(|&b| plan[b] != BlockStrategy::Gp)
                    .collect(),
                plan,
                classified: classify.is_some(),
                snlu: SnluOptions {
                    nthreads: threads,
                    ..classify.map_or_else(SnluOptions::default, |o| o.snlu.clone())
                },
                sn_sym: Mutex::new(HashMap::new()),
                frozen,
            }),
        })
    }

    /// The effective (power-of-two) thread count.
    pub fn threads(&self) -> usize {
        self.inner.team.width()
    }

    /// The underlying block structure.
    pub fn structure(&self) -> &Structure {
        &self.inner.structure
    }

    /// The per-block plan fixed by `analyze`, one strategy per BTF block
    /// in block order (zip with `structure().bounds` for the rows).
    pub fn plan(&self) -> &[BlockStrategy] {
        &self.inner.plan
    }

    /// Whether this handle was built with a classified plan
    /// ([`HybridLu::analyze`](hybrid::HybridLu::analyze)) rather than
    /// the paper's.
    pub fn classified(&self) -> bool {
        self.inner.classified
    }

    /// Gets or lazily builds the supernodal analysis of block `b` over
    /// its extracted diagonal block.
    fn snlu_symbolic(&self, b: usize, diag: &CscMat) -> Result<Snlu> {
        let mut cache = self.inner.sn_sym.lock().expect("snlu cache lock poisoned");
        if let Some(sym) = cache.get(&b) {
            return Ok(sym.clone());
        }
        let sym = Snlu::analyze(diag, &self.inner.snlu)?;
        cache.insert(b, sym.clone());
        Ok(sym)
    }

    /// Numeric factorization of `a` (same pattern as analyzed) under the
    /// handle's plan, with fresh pivoting. This is the call a circuit
    /// simulator makes for every matrix of a transient sequence (paper
    /// §V-F) — the symbolic phase is reused, the numeric phase redone.
    ///
    /// The work is the stage list of the [`stages`] module on the
    /// handle's team, every item pivoting inside its own diagonal block
    /// and reading `a` in place from one gather into the value map
    /// `analyze` recorded. Fails with [`SparseError::InvalidStructure`]
    /// unless `a` has the analyzed pattern.
    pub fn factor(&self, a: &CscMat) -> Result<BaskerNumeric> {
        self.factor_on(a, &self.inner.team)
    }

    /// [`factor`](Self::factor) on an explicit team (a width-1 team runs
    /// the same stages inline).
    fn factor_on(&self, a: &CscMat, team: &WorkerTeam) -> Result<BaskerNumeric> {
        let t0 = Instant::now();
        let inner = &*self.inner;
        let st = &inner.structure;
        inner.frozen.btf.check(a)?;
        let (diag_vals, offdiag) = inner.frozen.btf.image(a);
        let (factors, gp, replay, joined, sn_leaves) =
            factor::factor_blocks(self, diag_vals, team)?;
        let mut num = BaskerNumeric {
            sym: self.clone(),
            factors,
            gp,
            offdiag,
            replay,
            stats: BaskerStats::default(),
        };
        let count = |s: BlockStrategy| inner.plan.iter().filter(|&&p| p == s).count();
        // Only the caller waits on a stage join.
        let mut sync_wait_ns = vec![0; self.threads()];
        sync_wait_ns[0] = joined;
        num.stats = BaskerStats {
            lu_nnz: num.lu_nnz(),
            flops: num.flops(),
            numeric_seconds: t0.elapsed().as_secs_f64(),
            sync_wait_ns,
            btf_blocks: st.nblocks(),
            sn_blocks: count(BlockStrategy::Supernodal),
            nd_blocks: count(BlockStrategy::Nd),
            sn_leaves,
            threads: self.threads(),
            ..BaskerStats::default()
        };
        Ok(num)
    }
}

/// Numeric factors of one BTF block under the strategy that built them.
/// The two rare, heavy variants are boxed: a power grid has 10⁵ of
/// these and nearly all are the first.
pub(crate) enum BlockFactors {
    /// Gilbert–Peierls over the block's window of the frozen store; the
    /// factors are the block's window of this run of the numeric's
    /// [`GpStore`].
    Gp(usize),
    /// Supernodal factors of the copied diagonal block.
    Sn(Box<SnFactors>),
    /// A block factored by the team.
    Nd(Box<NdFactors>),
}

/// A supernodal block: its factors, a dedicated solve workspace (the
/// supernodal solve needs its own; the mutex is uncontended and the
/// workspace stays warm, so block solves remain allocation-free after
/// the first), and its copy of the block, whose values a
/// refactorization refreshes in place.
pub(crate) struct SnFactors {
    pub(crate) num: SnluNumeric,
    ws: Mutex<SolveWorkspace>,
    pub(crate) diag: CscMat,
}

impl BlockFactors {
    /// `|L+U|` of a block the store does not hold.
    fn lu_nnz(&self) -> usize {
        match self {
            BlockFactors::Gp(_) => unreachable!("the store holds it"),
            BlockFactors::Sn(sn) => sn.num.lu_nnz,
            BlockFactors::Nd(f) => f.lu_nnz(),
        }
    }

    /// Flops of a block the store does not hold.
    fn flops(&self) -> f64 {
        match self {
            BlockFactors::Gp(_) => unreachable!("the store holds it"),
            BlockFactors::Sn(sn) => sn.num.flops,
            BlockFactors::Nd(f) => f.flops(),
        }
    }
}

/// The numeric factorization: factors per BTF block + BTF couplings.
pub struct BaskerNumeric {
    sym: Basker,
    factors: Vec<BlockFactors>,
    /// The factors of every Gilbert–Peierls block.
    gp: GpStore,
    offdiag: CscMat,
    /// The stage list the factorization ran, for refactorizations to
    /// replay.
    replay: Replay,
    /// Statistics of the (re)factorization that produced these factors.
    pub stats: BaskerStats,
}

impl BaskerNumeric {
    /// The symbolic handle.
    pub fn symbolic(&self) -> &Basker {
        &self.sym
    }

    /// `|L+U|` over the factored blocks only (the paper's Table I memory
    /// metric; off-diagonal BTF couplings are reused from `A`, not
    /// factored, so fill density can fall below 1).
    pub fn lu_nnz(&self) -> usize {
        let others = self.others().map(BlockFactors::lu_nnz);
        self.gp.lu_nnz() + others.sum::<usize>()
    }

    /// The factors of the blocks the store does not hold.
    fn others(&self) -> impl Iterator<Item = &BlockFactors> {
        self.sym.inner.non_gp.iter().map(|&b| &self.factors[b])
    }

    /// Total stored entries including the retained off-diagonal couplings.
    pub fn total_storage_nnz(&self) -> usize {
        self.lu_nnz() + self.offdiag.nnz()
    }

    /// Numeric flops of the factorization kernels.
    pub fn flops(&self) -> f64 {
        self.gp.tally().flops + self.others().map(BlockFactors::flops).sum::<f64>()
    }

    /// Statically perturbed pivots across the supernodal-routed blocks
    /// (the GP/ND strategies pivot, never perturb).
    pub fn perturbed_pivots(&self) -> usize {
        if self.stats.sn_blocks == 0 {
            return 0;
        }
        self.others()
            .map(|f| match f {
                BlockFactors::Sn(sn) => sn.num.perturbed_pivots,
                _ => 0,
            })
            .sum()
    }

    /// `(min |pivot|, max |pivot|)` over every factored block (GP and
    /// supernodal blocks and the ND tree's diagonal factors alike).
    /// `min/max` is the KLU-style reciprocal condition estimate; the
    /// extremes feed the session layer's refactor-path quality gates.
    /// `(∞, 0)` for an empty matrix. The Gilbert–Peierls blocks' share
    /// is what the last (re)factorization recorded, not a walk.
    pub fn pivot_range(&self) -> (f64, f64) {
        let gp = self.gp.tally();
        let (mut lo, mut hi) = (gp.min_pivot, gp.max_pivot);
        let mut fold = |(l, h): (f64, f64)| {
            lo = lo.min(l);
            hi = hi.max(h);
        };
        for f in self.others() {
            match f {
                BlockFactors::Gp(_) => unreachable!("the store holds it"),
                BlockFactors::Sn(sn) => fold(sn.num.pivot_range()),
                BlockFactors::Nd(f) => {
                    for blu in &f.fact_diag {
                        fold(blu.pivot_range());
                    }
                }
            }
        }
        (lo, hi)
    }

    /// Solves `A·x = b` in place by block back-substitution, each
    /// diagonal block through its strategy's solve: on entry `x` holds
    /// `b`, on exit the solution. After the workspace's first use at
    /// this dimension the call performs **no heap allocation** — the
    /// path a transient simulation hammers thousands of times per
    /// pattern. The `K = 1` instance of the panel sweep behind
    /// [`solve_multi_in_place`](Self::solve_multi_in_place).
    pub fn solve_in_place(&self, x: &mut [f64], ws: &mut SolveWorkspace) {
        assert_eq!(x.len(), self.sym.inner.structure.n);
        self.solve_panel::<1>(x, ws);
    }

    /// Solves several right-hand sides packed column-major in `xs`
    /// (`xs.len()` must be a multiple of `n`); each length-`n` chunk is
    /// overwritten with its solution. The columns are solved in
    /// row-major panels of [`PANEL_WIDTHS`](basker_sparse::workspace::PANEL_WIDTHS)
    /// — one walk over the factors per panel, not per column (see the
    /// [`solve`] module) — allocation-free once the workspace has grown
    /// to the widest panel used.
    pub fn solve_multi_in_place(&self, xs: &mut [f64], ws: &mut SolveWorkspace) {
        let n = self.sym.inner.structure.n;
        for (first, w) in panel_chunks(packed_columns(n, xs)) {
            let cols = &mut xs[first * n..(first + w) * n];
            basker_sparse::with_panel_width!(w, K => self.solve_panel::<K>(cols, ws));
        }
    }

    /// One sweep over the factors for the `K` columns packed in `xs`:
    /// the row permutation gathers them into the workspace's row-major
    /// panel, BTF blocks are solved in reverse order with each solution
    /// row pushed into the earlier blocks `K` lanes at a time, and the
    /// column permutation scatters the panel back out column-major.
    // basker-lint: deny-alloc
    fn solve_panel<const K: usize>(&self, xs: &mut [f64], ws: &mut SolveWorkspace) {
        let st = &self.sym.inner.structure;
        let n = st.n;
        debug_assert_eq!(xs.len(), K * n);
        let (y, scratch) = ws.panels::<K>(n, st.max_block);
        gather_panel(xs, st.row_perm.as_slice(), y);
        let mut blk = st.nblocks();
        while blk > 0 {
            blk -= 1;
            let (lo, hi) = (st.bounds[blk], st.bounds[blk + 1]);
            match &self.factors[blk] {
                &BlockFactors::Gp(run) => {
                    // The block's whole run, each block's couplings pushed
                    // as it is solved.
                    blk = self
                        .gp
                        .solve_run(run, &st.bounds, &self.offdiag, y, scratch);
                    continue;
                }
                BlockFactors::Sn(sn) => {
                    // The supernodal solve takes one plain vector:
                    // gather each lane out of the panel and back.
                    let mut sws = sn.ws.lock().expect("supernodal ws lock poisoned");
                    let lane = &mut basker_kernels::flat_mut(scratch)[..hi - lo];
                    for c in 0..K {
                        for (t, row) in lane.iter_mut().zip(&y[lo..hi]) {
                            *t = row[c];
                        }
                        sn.num.solve_in_place(lane, &mut sws);
                        for (row, t) in y[lo..hi].iter_mut().zip(lane.iter()) {
                            row[c] = *t;
                        }
                    }
                }
                BlockFactors::Nd(f) => {
                    let BlockKind::NdBig(nds) = &st.kinds[blk] else {
                        unreachable!("factor kind mismatch");
                    };
                    solve_nd_in_place(nds, f, &mut y[lo..hi], scratch);
                }
            }
            // push contributions into earlier blocks
            push_columns(&self.offdiag, lo..hi, y, lo, 0);
        }
        scatter_panel(y, st.col_perm.as_slice(), xs);
    }

    /// Refactorizes with new values (identical pattern), reusing patterns
    /// **and pivot sequences** — no graph search, no new pivoting — each
    /// block under the strategy that built it. Fails with
    /// [`SparseError::ZeroPivot`] if a pivot collapses; callers then
    /// fall back to [`Basker::factor`].
    ///
    /// The work is the replay, on the handle's team, of the stage list
    /// the factorization that made this numeric ran (see the
    /// [`refactor`] module). It records nothing, and performs no heap
    /// allocation of its own once the thread's scratch has seen the
    /// pattern — the first call of a numeric included.
    // basker-lint: deny-alloc
    pub fn refactor(&mut self, a: &CscMat) -> Result<()> {
        let team = Arc::clone(&self.sym.inner.team);
        self.refactor_on(a, &team)
    }

    /// [`refactor`](Self::refactor) on an explicit team (a width-1 team
    /// replays the same list inline): the replay, then the statistics
    /// that are the refactorization's own.
    // basker-lint: deny-alloc
    fn refactor_on(&mut self, a: &CscMat, team: &WorkerTeam) -> Result<()> {
        let t0 = Instant::now();
        let inner = &*self.sym.inner;
        inner.frozen.btf.check(a)?;
        let joined = self.replay.run(
            a,
            &inner.structure,
            &inner.frozen,
            &mut self.factors,
            &mut self.gp,
            self.offdiag.values_mut(),
            team,
        )?;
        self.stats.numeric_seconds = t0.elapsed().as_secs_f64();
        // `lu_nnz` is a fact of the pattern.
        self.stats.flops = self.flops();
        let stats = &mut self.stats;
        // The factorization's join waits are not this call's. What is:
        // the caller's time blocked in stage joins — nothing when every
        // stage ran inline, as at width 1.
        stats.sync_wait_ns.fill(0);
        if let Some(wait) = joined {
            stats.sync_wait_ns[0] = wait;
        }
        Ok(())
    }
}

#[cfg(test)]
mod testmat;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testmat::*;
    use basker_sparse::TripletMat;

    fn check_solver(a: &CscMat, opts: &BaskerOptions) {
        let num = Basker::analyze(a, opts).unwrap().factor(a).unwrap();
        check_solve(&num, a, 1e-11);
    }

    /// A power grid holds tens of thousands of these: the heavy
    /// variants stay boxed.
    #[test]
    fn block_factors_stay_two_words() {
        assert_eq!(std::mem::size_of::<BlockFactors>(), 16);
    }

    #[test]
    fn nd_path_end_to_end() {
        for p in [1usize, 2, 4] {
            check_solver(&grid2d_unsym(8), &opts(p, 16));
        }
    }

    #[test]
    fn mixed_structure_end_to_end() {
        check_solver(&heterogeneous(7, 8), &opts(2, 32));
    }

    #[test]
    fn pure_small_block_path() {
        // diagonal-ish matrix: everything below nd_threshold
        let mut t = TripletMat::new(12, 12);
        for i in 0..12 {
            t.push(i, i, 3.0);
        }
        t.push(0, 1, 1.0);
        t.push(1, 0, 0.5);
        check_solver(&t.to_csc(), &opts(2, 128));
    }

    #[test]
    fn thread_rounding() {
        let a = grid2d_unsym(4);
        for (asked, got) in [(3, 2), (6, 4)] {
            assert_eq!(
                Basker::analyze(&a, &opts(asked, 128)).unwrap().threads(),
                got
            );
        }
    }

    #[test]
    fn results_deterministic_across_factor_calls() {
        let a = grid2d_unsym(8);
        let sym = Basker::analyze(&a, &opts(2, 16)).unwrap();
        let n1 = sym.factor(&a).unwrap();
        let n2 = sym.factor(&a).unwrap();
        let b = vec![1.0; a.ncols()];
        assert_eq!(solve(&n1, &b), solve(&n2, &b));
    }

    /// On a width-1 team and on the handle's own, the fresh factor
    /// writes the same factors — values, pivots and flops — under the
    /// paper plan and classified plans that route the grid or the
    /// mid-size blocks to the supernodal engine.
    #[test]
    fn fresh_factor_is_bit_identical_at_every_width() {
        let inline = basker_runtime::shared_team(1, false);
        let cases = [
            (grid2d_unsym(32), true),
            (heterogeneous(28, 60), true),
            (with_mid_blocks(28, 4, 60), true),
            (tiny_blocks(9_000), false),
        ];
        for (a, classify) in cases {
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
                for sym in &handles {
                    let serial = sym.factor_on(&a, &inline).unwrap();
                    let team = sym.factor(&a).unwrap();
                    assert_eq!(factor_values(&serial), factor_values(&team), "p={p}");
                    assert_eq!(factor_pivots(&serial), factor_pivots(&team), "p={p}");
                    assert_eq!(serial.stats.flops, team.stats.flops, "p={p}");
                    assert_eq!(serial.stats.lu_nnz, team.stats.lu_nnz, "p={p}");
                    check_solve(&team, &a, 1e-10);
                }
            }
        }
    }

    /// A factor issued from inside a job on the handle's own team runs
    /// its stages inline instead of spawning ranks for them.
    #[test]
    fn factor_from_a_rank_of_its_own_team_spawns_no_thread() {
        let a = grid2d_unsym(16);
        let sym = Basker::analyze(&a, &opts(2, 32)).unwrap();
        assert_eq!(sym.plan(), [BlockStrategy::Nd]);
        let team = &sym.inner.team;
        let before = team.threads_spawned();
        team.run_worklist(2, |_| {
            for _ in 0..5 {
                check_solve(&sym.factor(&a).unwrap(), &a, 1e-11);
            }
        });
        assert_eq!(team.threads_spawned(), before);
    }

    /// A classified handle whose plan equals the paper plan is the
    /// `Basker` handle: the same fine-BTF runs — the 70–90-row blocks
    /// included — and bit-identical factors and equal counts, after
    /// `factor` and after `refactor`.
    #[test]
    fn plans_are_equivalent() {
        let a = with_mid_blocks(12, 4, 40);
        let a2 = revalued(&a, |v| v * 1.2 + 0.003);
        let b: Vec<f64> = (0..a.ncols())
            .map(|i| (i as f64 * 0.2).sin() + 1.5)
            .collect();
        for p in [1usize, 2, 4] {
            // A serial classified plan never routes to the team, so at
            // one thread the grid stays a fine-BTF block in both.
            let nd_threshold = if p == 1 { usize::MAX } else { 128 };
            let [paper, classified] = both_plan_kinds(&a, &opts(p, nd_threshold), 64);
            assert_eq!(paper.plan(), classified.plan(), "p={p}");
            let mids = (0..paper.plan().len())
                .filter(|&b| {
                    let rows = paper.structure().bounds[b + 1] - paper.structure().bounds[b];
                    (65..128).contains(&rows) && paper.plan()[b] == BlockStrategy::Gp
                })
                .count();
            assert_eq!(mids, 4, "p={p}: the mid-size blocks are in the runs");
            assert_eq!(paper.inner.runs, classified.inner.runs);
            let (mut n1, mut n2) = (paper.factor(&a).unwrap(), classified.factor(&a).unwrap());
            for m in [&a, &a2] {
                assert_eq!(factor_values(&n1), factor_values(&n2), "p={p}");
                assert_eq!(solve(&n1, &b), solve(&n2, &b), "p={p}");
                assert_eq!(n1.stats.lu_nnz, n2.stats.lu_nnz);
                assert_eq!(n1.stats.flops, n2.stats.flops);
                assert_eq!(n1.stats.strategy_counts(), n2.stats.strategy_counts());
                assert_eq!(n1.pivot_range(), n2.pivot_range());
                check_solve(&n1, m, 1e-11);
                n1.refactor(&a2).unwrap();
                n2.refactor(&a2).unwrap();
            }
        }
    }

    /// The pivot range a numeric reports — the Gilbert–Peierls store's
    /// as its last (re)factorization recorded it — is the fold over
    /// every pivot of every block, after a factor and after refactors,
    /// under the paper plan and plans that route blocks to the
    /// supernodal engine.
    #[test]
    fn pivot_range_is_the_fold_over_every_pivot() {
        use basker_sparse::util::u_diag_pivot_range;
        let brute_force = |num: &BaskerNumeric| {
            let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
            let mut fold = |(l, h): (f64, f64)| (lo, hi) = (lo.min(l), hi.max(h));
            for c in num.gp.columns() {
                let p = *num.gp.col(c).3.last().unwrap();
                fold((p.abs(), p.abs()));
            }
            for f in &num.factors {
                match f {
                    BlockFactors::Gp(_) => {}
                    BlockFactors::Sn(sn) => fold(u_diag_pivot_range(sn.num.u())),
                    BlockFactors::Nd(f) => f.fact_diag.iter().for_each(|d| fold(d.pivot_range())),
                }
            }
            (lo, hi)
        };
        let a = with_mid_blocks(12, 4, 40);
        let a2 = revalued(&a, |v| v * 1.2 - 0.004);
        for p in [1usize, 2] {
            let base = HybridOptions {
                base: opts(p, 64),
                gp_small: 16,
                ..HybridOptions::default()
            };
            let mids_supernodal = HybridOptions {
                dense_threshold: 0.0,
                ..base.clone()
            };
            let handles = [
                Basker::analyze(&a, &base.base).unwrap(),
                classified(&a, &mids_supernodal),
            ];
            for (sym, supernodal) in handles.into_iter().zip([false, true]) {
                let mut num = sym.factor(&a).unwrap();
                assert_eq!(num.stats.sn_blocks > 0, supernodal, "p={p}");
                assert_eq!(num.pivot_range(), brute_force(&num), "p={p}: factor");
                for m in [&a2, &a] {
                    num.refactor(m).unwrap();
                    assert_eq!(num.pivot_range(), brute_force(&num), "p={p}: refactor");
                }
            }
        }
    }

    #[test]
    fn refactor_matches_factor() {
        let a = heterogeneous(10, 24);
        for sym in both_plan_kinds(&a, &opts(2, 64), 16) {
            assert_refactor_matches_factor(&sym, &a);
        }
    }

    /// A matrix with another pattern is turned away by `factor` and by
    /// `refactor` alike, the handle and the numeric unharmed: the
    /// transpose, and `a` plus one entry below the block triangle
    /// (tiny-block row, grid column).
    #[test]
    fn factor_and_refactor_reject_a_different_pattern() {
        let (k, tiny) = (10, 24);
        let a = heterogeneous(k, tiny);
        let mut t = TripletMat::new(a.nrows(), a.ncols());
        for (i, j, v) in a.iter().chain([(k * k + 3, 5, 1.0)]) {
            t.push(i, j, v);
        }
        let below = t.to_csc();
        let wrong = |r: Result<()>| matches!(r, Err(SparseError::InvalidStructure(_)));
        for p in [1usize, 2] {
            let sym = Basker::analyze(&a, &opts(p, 64)).unwrap();
            let mut num = sym.factor(&a).unwrap();
            for m in [&a.transpose(), &below] {
                assert!(wrong(sym.factor(m).map(drop)), "p={p}");
                assert!(wrong(num.refactor(m)), "p={p}");
                num.refactor(&a).unwrap();
            }
            assert!(num.refactor(&CscMat::identity(a.ncols())).is_err());
            check_solve(&num, &a, 1e-11);
            check_solve(&sym.factor(&a).unwrap(), &a, 1e-11);
        }
    }

    #[test]
    fn stats_populated() {
        let a = grid2d_unsym(8);
        for sym in both_plan_kinds(&a, &opts(2, 16), 8) {
            let num = sym.factor(&a).unwrap();
            assert!(num.stats.lu_nnz >= a.nnz() / 2);
            assert!(num.stats.flops > 0.0);
            assert!(num.stats.numeric_seconds > 0.0);
            assert_eq!(num.stats.threads, 2);
            assert_eq!(num.stats.strategy_counts(), (0, 0, 1));
            assert!(num.stats.fill_density(a.nnz()) > 0.0);
            let (lo, hi) = num.pivot_range();
            assert!(lo > 0.0 && lo <= hi);
            assert_eq!(num.perturbed_pivots(), 0);
        }
    }

    /// On a matrix that is one ND block, the numeric's flops are its
    /// replay's: every block column's elimination, every panel and
    /// every reduction, after the factor and after a refactor.
    #[test]
    fn nd_flops_count_panels_and_reductions() {
        let a = grid2d_unsym(16);
        for p in [2usize, 4] {
            let one_block = BaskerOptions {
                use_btf: false,
                ..opts(p, 16)
            };
            let mut num = Basker::analyze(&a, &one_block).unwrap().factor(&a).unwrap();
            assert_eq!(num.stats.strategy_counts(), (0, 0, 1));
            let items = num.replay.stages.iter().flat_map(|s| &s.items);
            let replayed: f64 = items.map(|i| i.flops).sum();
            assert!(nd_factors(&num, 0).update_flops > 0.0, "p={p}");
            assert_eq!(num.flops(), replayed, "p={p}");
            num.refactor(&a).unwrap();
            assert_eq!(num.stats.flops, replayed, "p={p}");
        }
    }

    /// A refactorization's sync counters are its own: the fresh
    /// factor's never survive it, a width-1 replay reads all zeros, and
    /// what a dispatched replay measured — the caller's time blocked in
    /// stage joins — is a fraction of the call.
    #[test]
    fn refactor_owns_its_sync_counters() {
        const STALE: u64 = u64::MAX / 4;
        // Big enough that the leaf stage is dispatched at two threads.
        let a = grid2d_unsym(40);
        for p in [1usize, 2] {
            let sym = Basker::analyze(&a, &opts(p, 16)).unwrap();
            let mut num = sym.factor(&a).unwrap();
            assert_eq!(num.stats.nd_blocks, 1);
            for _ in 0..2 {
                // Whatever the team measured, make the stale state
                // unmistakable.
                num.stats.sync_wait_ns.fill(STALE);
                num.refactor(&a).unwrap();
                let st = &num.stats;
                assert!(st.sync_fraction() <= 1.0, "p={p}: {}", st.sync_fraction());
                assert_eq!(st.sync_wait_ns.len(), p);
                assert!(
                    st.sync_wait_ns[1..].iter().all(|&w| w == 0),
                    "only the caller waits on a join"
                );
                if p == 1 {
                    assert_eq!(st.sync_wait_ns, vec![0]);
                }
            }
        }
    }

    /// Two singular 2×2 blocks bracket a singular dense 8×8 block, which
    /// LPT puts alone in the first chunk: every width reports the column
    /// a serial factor meets first, in a 2×2 block.
    #[test]
    fn fine_btf_error_column_is_width_independent() {
        let mut t = TripletMat::new(20, 20);
        let mut pair = |o: usize, singular: bool| {
            let [a00, a01, a10, a11] = if singular {
                [1.0; 4]
            } else {
                [4.0, 1.0, 2.0, 5.0]
            };
            t.push(o, o, a00);
            t.push(o, o + 1, a01);
            t.push(o + 1, o, a10);
            t.push(o + 1, o + 1, a11);
        };
        for q in 0..3 {
            pair(2 * q, q == 0);
            pair(14 + 2 * q, q == 2);
        }
        for i in 6..14 {
            for j in 6..14 {
                t.push(i, j, 1.0);
            }
        }
        let a = t.to_csc();
        let column = |p: usize| match Basker::analyze(&a, &opts(p, 128)).unwrap().factor(&a) {
            Err(SparseError::ZeroPivot { column }) => column,
            other => panic!("p={p}: {:?}", other.err()),
        };
        let serial = column(1);
        let serial_sym = Basker::analyze(&a, &opts(1, 128)).unwrap();
        let bounds = &serial_sym.structure().bounds;
        let b = bounds.partition_point(|&lo| lo <= serial) - 1;
        assert_eq!(bounds[b + 1] - bounds[b], 2, "a 2x2 block fails first");
        for p in [2usize, 4] {
            assert_eq!(column(p), serial, "p={p}");
        }
    }

    #[test]
    fn rejects_structurally_singular() {
        let mut t = TripletMat::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 1.0);
        let a = t.to_csc();
        for classify in [None, Some(&HybridOptions::default())] {
            assert!(matches!(
                Basker::analyze_with(&a, &BaskerOptions::default(), classify),
                Err(SparseError::StructurallySingular { .. })
            ));
        }
    }
}
