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
//! Both levels run under **one BTF block driver**, [`Basker`], whose
//! plan is the block layout itself: the structure lists its ND-laid-out
//! blocks ([`structure::Structure::nd_blocks`]), which go to the team,
//! and every other block is a fine-BTF block, which goes to a
//! Gilbert–Peierls run. Inside an ND block each leaf goes to the kernel
//! analyze chose for it — Gilbert–Peierls, or the supernodal kernel
//! with Gilbert–Peierls's pivots and patterns. A factorization is a
//! [`BaskerNumeric`]: the runs' factors in one store, and one
//! [`parnum::NdFactors`] per ND block at the ND list's index.
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

pub use stats::{AnalyzeProfile, BaskerStats};

use crate::gp_store::GpStore;
use crate::parnum::NdFactors;
use crate::refactor::{Frozen, Replay};
use crate::solve::solve_nd_in_place;
use crate::stages::gp_runs;
use crate::structure::Structure;
use basker_runtime::{shared_team, WorkerTeam};
use basker_sparse::trisolve::push_columns;
use basker_sparse::workspace::{gather_panel, packed_columns, panel_chunks, scatter_panel};
use basker_sparse::{CscMat, Result, SolveWorkspace, SparseError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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

/// The time since `*mark`, moving `*mark` to now: one clock read per
/// phase of a profile.
pub(crate) fn lap(mark: &mut Instant) -> Duration {
    let now = Instant::now();
    now - std::mem::replace(mark, now)
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
    /// Apply the coarse BTF structure (always on the bottleneck MWCM
    /// transversal).
    pub use_btf: bool,
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
    /// Alg. 2's fine-BTF set as the fresh factor's runs: `(first
    /// block, end block, estimated flops)`, ascending. With the
    /// structure's ND blocks they cover every block once.
    runs: Vec<(usize, usize, f64)>,
    /// The value map of the analyzed pattern, recorded by `analyze`:
    /// every factorization and refactorization reads `A` through it.
    frozen: Frozen,
    /// The phases of the analyze that built this handle.
    profile: AnalyzeProfile,
}

/// The symbolic handle of the BTF block driver: orderings, block
/// structure and worker team, reusable across a sequence of matrices
/// with one pattern. The block structure is the plan: fine-BTF blocks
/// go to Gilbert–Peierls, fine-ND blocks to the team. Cheap to clone.
#[derive(Clone)]
pub struct Basker {
    inner: Arc<SymInner>,
}

impl Basker {
    /// Analyzes the pattern of `a` (paper Alg. 2): BTF, AMD/ND
    /// refinement and thread partitioning.
    ///
    /// The BTF runs on the caller; then the ND blocks' bisections and
    /// the small blocks' AMD orders and flop estimates, every ND node's
    /// halo-AMD order, and every ND leaf's plan run as three stages of
    /// independent items on the handle's team (the `structure` module),
    /// with the same result at every width; the value map is recorded
    /// on the caller. [`analyze_profile`](Self::analyze_profile) reports
    /// the four phases' wall times.
    pub fn analyze(a: &CscMat, opts: &BaskerOptions) -> Result<Basker> {
        let mut clock = Instant::now();
        let threads = opts.nthreads.max(1);
        let threads = if threads.is_power_of_two() {
            threads
        } else {
            threads.next_power_of_two() / 2
        };
        // Threads are spawned at most once per width for the process
        // lifetime and parked between jobs.
        let team = shared_team(threads, false);
        let mut profile = AnalyzeProfile::default();
        let (structure, estimates) =
            Structure::build(a, opts, threads, &team, &mut clock, &mut profile)?;
        let frozen = Frozen::record(a, &structure)?;
        let runs = gp_runs(estimates);
        profile.record = lap(&mut clock);

        Ok(Basker {
            inner: Arc::new(SymInner {
                opts: opts.clone(),
                structure,
                team,
                runs,
                frozen,
                profile,
            }),
        })
    }

    /// Where the [`analyze`](Self::analyze) that made this handle spent
    /// its wall time. Read-only; factor, refactor and solve leave it be.
    pub fn analyze_profile(&self) -> AnalyzeProfile {
        self.inner.profile
    }

    /// The effective (power-of-two) thread count.
    pub fn threads(&self) -> usize {
        self.inner.team.width()
    }

    /// The process-shared team this handle's analyze, factorizations
    /// and refactorizations run on.
    pub fn team(&self) -> &WorkerTeam {
        &self.inner.team
    }

    /// The underlying block structure.
    pub fn structure(&self) -> &Structure {
        &self.inner.structure
    }

    /// Numeric factorization of `a` (same pattern as analyzed), with
    /// fresh pivoting. This is the call a circuit
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
        let (nd, gp, replay, joined, sn_leaves) = factor::factor_blocks(self, diag_vals, team)?;
        let mut num = BaskerNumeric {
            sym: self.clone(),
            nd,
            gp,
            offdiag,
            replay,
            stats: BaskerStats::default(),
        };
        // Only the caller waits on a stage join.
        let mut sync_wait_ns = vec![0; self.threads()];
        sync_wait_ns[0] = joined;
        num.stats = BaskerStats {
            lu_nnz: num.lu_nnz(),
            flops: num.flops(),
            numeric_seconds: t0.elapsed().as_secs_f64(),
            sync_wait_ns,
            btf_blocks: st.nblocks(),
            nd_blocks: st.nd_blocks.len(),
            sn_leaves,
            threads: self.threads(),
            ..BaskerStats::default()
        };
        Ok(num)
    }
}

/// The numeric factorization: factors per BTF block + BTF couplings.
pub struct BaskerNumeric {
    sym: Basker,
    /// The factors of each block of the structure's ND list, at the
    /// same index.
    nd: Vec<NdFactors>,
    /// The factors of every Gilbert–Peierls block, run by run.
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
        self.gp.lu_nnz() + self.nd.iter().map(NdFactors::lu_nnz).sum::<usize>()
    }

    /// Total stored entries including the retained off-diagonal couplings.
    pub fn total_storage_nnz(&self) -> usize {
        self.lu_nnz() + self.offdiag.nnz()
    }

    /// Numeric flops of the factorization kernels.
    pub fn flops(&self) -> f64 {
        self.gp.tally().flops + self.nd.iter().map(NdFactors::flops).sum::<f64>()
    }

    /// `(min |pivot|, max |pivot|)` over every factored block (GP blocks
    /// and the ND tree's diagonal factors alike).
    /// `min/max` is the KLU-style reciprocal condition estimate; the
    /// extremes feed the session layer's refactor-path quality gates.
    /// `(∞, 0)` for an empty matrix. The Gilbert–Peierls blocks' share
    /// is what the last (re)factorization recorded, not a walk.
    pub fn pivot_range(&self) -> (f64, f64) {
        let gp = self.gp.tally();
        let (mut lo, mut hi) = (gp.min_pivot, gp.max_pivot);
        for blu in self.nd.iter().flat_map(|f| &f.fact_diag) {
            let (l, h) = blu.pivot_range();
            lo = lo.min(l);
            hi = hi.max(h);
        }
        (lo, hi)
    }

    /// Solves `A·x = b` in place by block back-substitution, each
    /// Gilbert–Peierls run and each ND block through its own solve: on
    /// entry `x` holds
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
    ///
    /// The reverse order walks the Gilbert–Peierls runs and the ND
    /// blocks backwards, merged by block index: the last block not yet
    /// solved ends either the last ND block left or the last run left.
    // basker-lint: deny-alloc
    fn solve_panel<const K: usize>(&self, xs: &mut [f64], ws: &mut SolveWorkspace) {
        let inner = &*self.sym.inner;
        let st = &inner.structure;
        let n = st.n;
        debug_assert_eq!(xs.len(), K * n);
        let (y, scratch) = ws.panels::<K>(n, st.max_block);
        gather_panel(xs, st.row_perm.as_slice(), y);
        let (mut blk, mut nd, mut run) = (st.nblocks(), st.nd_blocks.len(), inner.runs.len());
        while blk > 0 {
            if nd > 0 && st.nd_blocks[nd - 1].block + 1 == blk {
                nd -= 1;
                blk -= 1;
                let (lo, hi) = (st.bounds[blk], st.bounds[blk + 1]);
                solve_nd_in_place(&st.nd_blocks[nd].st, &self.nd[nd], &mut y[lo..hi], scratch);
                // push contributions into earlier blocks
                push_columns(&self.offdiag, lo..hi, y, lo, 0);
            } else {
                // The whole run, each block's couplings pushed as it is
                // solved.
                run -= 1;
                debug_assert_eq!(inner.runs[run].1, blk);
                blk = self
                    .gp
                    .solve_run(run, &st.bounds, &self.offdiag, y, scratch);
            }
        }
        scatter_panel(y, st.col_perm.as_slice(), xs);
    }

    /// Refactorizes with new values (identical pattern), reusing patterns
    /// **and pivot sequences** — no graph search, no new pivoting — each
    /// block by the kernel that built it. Fails with
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
            &mut self.nd,
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
    /// writes the same factors — values, pivots and flops.
    #[test]
    fn fresh_factor_is_bit_identical_at_every_width() {
        let inline = basker_runtime::shared_team(1, false);
        let cases = [
            grid2d_unsym(32),
            heterogeneous(28, 60),
            with_mid_blocks(28, 4, 60),
            tiny_blocks(9_000),
        ];
        for a in cases {
            for p in [1usize, 2, 4] {
                let sym = Basker::analyze(&a, &opts(p, 64)).unwrap();
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

    /// The profile splits one analyze's wall time into its four phases,
    /// and no factor moves it.
    #[test]
    fn analyze_profile_splits_the_wall_time() {
        for a in [with_mid_blocks(16, 3, 40), tiny_blocks(500)] {
            let t0 = Instant::now();
            let sym = Basker::analyze(&a, &opts(2, 64)).unwrap();
            let wall = t0.elapsed();
            let p = sym.analyze_profile();
            assert!(
                p.btf + p.blocks + p.nodes + p.record <= wall,
                "{p:?} in {wall:?}"
            );
            assert!(p.btf > Duration::ZERO && p.blocks > Duration::ZERO, "{p:?}");
            sym.factor(&a).unwrap();
            assert_eq!(sym.analyze_profile(), p);
        }
    }

    /// A handle analyzed through the `hybrid` names is the `Basker`
    /// handle: the same fine-BTF runs — the 65–127-row blocks included —
    /// and bit-identical factors and equal counts, after `factor` and
    /// after `refactor`.
    #[test]
    fn plans_are_equivalent() {
        let a = with_mid_blocks(12, 4, 40);
        let a2 = revalued(&a, |v| v * 1.2 + 0.003);
        let b: Vec<f64> = (0..a.ncols())
            .map(|i| (i as f64 * 0.2).sin() + 1.5)
            .collect();
        for p in [1usize, 2, 4] {
            let o = opts(p, 128);
            let paper = Basker::analyze(&a, &o).unwrap();
            let alias = crate::hybrid::HybridLu::analyze(&a, &o).unwrap();
            let st = paper.structure();
            let mids = (0..st.nblocks())
                .filter(|&b| {
                    let rows = st.bounds[b + 1] - st.bounds[b];
                    (65..128).contains(&rows) && st.nd_block(b).is_none()
                })
                .filter(|&b| paper.inner.runs.iter().any(|r| (r.0..r.1).contains(&b)))
                .count();
            assert_eq!(mids, 4, "p={p}: the mid-size blocks are in the runs");
            assert_eq!(paper.inner.runs, alias.inner.runs);
            let (mut n1, mut n2) = (paper.factor(&a).unwrap(), alias.factor(&a).unwrap());
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
    /// every pivot of every block, after a factor and after refactors.
    #[test]
    fn pivot_range_is_the_fold_over_every_pivot() {
        let brute_force = |num: &BaskerNumeric| {
            let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
            let mut fold = |(l, h): (f64, f64)| (lo, hi) = (lo.min(l), hi.max(h));
            for c in num.gp.columns() {
                let p = *num.gp.col(c).3.last().unwrap();
                fold((p.abs(), p.abs()));
            }
            for f in &num.nd {
                f.fact_diag.iter().for_each(|d| fold(d.pivot_range()));
            }
            (lo, hi)
        };
        let a = with_mid_blocks(12, 4, 40);
        let a2 = revalued(&a, |v| v * 1.2 - 0.004);
        for p in [1usize, 2] {
            let mut num = Basker::analyze(&a, &opts(p, 64))
                .unwrap()
                .factor(&a)
                .unwrap();
            assert_eq!(num.pivot_range(), brute_force(&num), "p={p}: factor");
            for m in [&a2, &a] {
                num.refactor(m).unwrap();
                assert_eq!(num.pivot_range(), brute_force(&num), "p={p}: refactor");
            }
        }
    }

    #[test]
    fn refactor_matches_factor() {
        let a = heterogeneous(10, 24);
        assert_refactor_matches_factor(&Basker::analyze(&a, &opts(2, 64)).unwrap(), &a);
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
        let num = Basker::analyze(&a, &opts(2, 16))
            .unwrap()
            .factor(&a)
            .unwrap();
        assert!(num.stats.lu_nnz >= a.nnz() / 2);
        assert!(num.stats.flops > 0.0);
        assert!(num.stats.numeric_seconds > 0.0);
        assert_eq!(num.stats.threads, 2);
        assert_eq!(num.stats.strategy_counts(), (0, 0, 1));
        assert!(num.stats.fill_density(a.nnz()) > 0.0);
        let (lo, hi) = num.pivot_range();
        assert!(lo > 0.0 && lo <= hi);
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
            assert!(num.nd[0].update_flops > 0.0, "p={p}");
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
        assert!(matches!(
            Basker::analyze(&a, &BaskerOptions::default()),
            Err(SparseError::StructurallySingular { .. })
        ));
    }
}
