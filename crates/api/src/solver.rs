//! The unified lifecycle traits, the engine adapters, and the
//! type-erased [`LinearSolver`] front-end.
//!
//! The lifecycle is the one every sparse direct solver shares (HYLU,
//! KLU, Pardiso — and this workspace's engines: serial KLU, the
//! supernodal solver, and the BTF block driver (`Engine::Basker`)):
//!
//! ```text
//! analyze(A, cfg) ─► Symbolic ─ factor(A) ─► Numeric ─ solve_in_place(x, ws)
//!                        ▲                      │ refactor(A')  (values only)
//!                        └──────────────────────┘ fall back to factor on
//!                                                 SingularPivot
//! ```
//!
//! [`SparseLuSolver`] is implemented directly by each engine's symbolic
//! type (`KluSymbolic`, `Basker`, `Snlu`) for static
//! dispatch, and by [`LinearSolver`] for engine-agnostic code.

use crate::config::{Engine, SolverConfig};
use crate::error::{map_analyze_error, map_engine_error, SolverError};
use basker::{Basker, BaskerNumeric};
use basker_klu::{KluNumeric, KluSymbolic};
use basker_runtime::WorkerTeam;
use basker_snlu::{Snlu, SnluNumeric};
use basker_sparse::workspace::panel_chunks;
use basker_sparse::{CscMat, SolveWorkspace, SparseError};
use std::time::Instant;

/// Uniform post-factorization metrics across engines.
///
/// Fields an engine does not track are zero (e.g. `perturbed_pivots` for
/// the pivoting engines, `sync_fraction` outside the block driver,
/// `factor_seconds` outside [`LinearSolver`]/the block driver). "Block
/// driver" below is [`Engine::Basker`].
#[derive(Debug, Clone, Default)]
pub struct SolverStats {
    /// The engine that produced the factors.
    pub engine: Option<Engine>,
    /// Matrix dimension.
    pub dimension: usize,
    /// `|L+U|` as the engine reports it.
    pub lu_nnz: usize,
    /// Numeric flops of the last (re)factorization.
    pub flops: f64,
    /// Number of BTF diagonal blocks (1 when the engine runs without BTF).
    pub btf_blocks: usize,
    /// Effective worker threads.
    pub threads: usize,
    /// Statically perturbed pivots (the supernodal engine only).
    pub perturbed_pivots: usize,
    /// Synchronization overhead fraction of the last (re)factorization
    /// (block driver only): the caller's stage-join waits, after a factor
    /// as after a refactor.
    pub sync_fraction: f64,
    /// Per-thread nanoseconds spent blocked on synchronization during
    /// the last (re)factorization (block driver only: one entry per worker
    /// rank of the persistent team, `len() == threads`, of which only
    /// the caller's — entry 0 — waits on stage joins; empty for the
    /// other engines).
    pub sync_wait_ns: Vec<u64>,
    /// Wall-clock seconds of the last (re)factorization, when measured.
    pub factor_seconds: f64,
    /// The dense micro-kernel rung the process dispatched (`"scalar"`,
    /// `"avx2+fma"`, `"neon"`); empty on a default `SolverStats`.
    /// Selected once per process from `BASKER_KERNEL`.
    pub kernel: &'static str,
}

impl SolverStats {
    /// Fill density `|L+U| / |A|` (Table I's sorting key).
    pub fn fill_density(&self, nnz_a: usize) -> f64 {
        self.lu_nnz as f64 / nnz_a.max(1) as f64
    }
}

/// Numeric quality of a factorization, uniform across engines — the
/// signal the session layer's adaptive reuse policy watches to decide
/// when frozen pivots have drifted into bad territory.
///
/// For the Gilbert–Peierls engines (KLU, Basker) the pivot extremes are
/// the `U`-diagonal magnitudes (so `min/max` is exactly KLU's
/// `klu_rcond` estimate and `perturbed_pivots` is always zero); for the
/// static-pivoting supernodal engine the extremes include perturbed
/// pivots and `perturbed_pivots` counts them.
#[derive(Debug, Clone, Copy)]
pub struct FactorQuality {
    /// Smallest pivot magnitude, `min |u_jj|` (`∞` for a 0×0 matrix).
    pub min_pivot: f64,
    /// Largest pivot magnitude, `max |u_jj|` (`0` for a 0×0 matrix).
    pub max_pivot: f64,
    /// Pivots statically perturbed instead of exchanged (supernodal
    /// engine only; zero for the pivoting engines).
    pub perturbed_pivots: usize,
}

impl FactorQuality {
    /// KLU's cheap reciprocal condition estimate `min |u_jj| / max
    /// |u_jj|` ∈ [0, 1]; tiny values flag factors one value-drift away
    /// from a singular pivot. Returns 1.0 for an empty matrix.
    pub fn rcond_estimate(&self) -> f64 {
        if self.max_pivot > 0.0 {
            self.min_pivot / self.max_pivot
        } else if self.min_pivot.is_infinite() {
            1.0 // 0x0: vacuously perfect
        } else {
            0.0
        }
    }

    /// Pivot growth proxy `max |u_jj| / ‖A‖∞`: how far elimination
    /// amplified the matrix's own scale. O(1)–O(10) is healthy; explosive
    /// growth on a refactorization means the frozen pivot sequence no
    /// longer suits the values.
    pub fn pivot_growth(&self, a_norm_inf: f64) -> f64 {
        if a_norm_inf > 0.0 && self.max_pivot > 0.0 {
            self.max_pivot / a_norm_inf
        } else {
            0.0
        }
    }
}

/// The symbolic side of the lifecycle: pattern analysis and numeric
/// factorization. `analyze → Symbolic`, `factor → Numeric`.
pub trait SparseLuSolver: Sized {
    /// The numeric handle this engine produces.
    type Numeric: LuNumeric;

    /// Analyzes the pattern of `a` under `cfg` (orderings, block
    /// structure, schedules) — reusable across every matrix with the
    /// same sparsity pattern.
    fn analyze(a: &CscMat, cfg: &SolverConfig) -> Result<Self, SolverError>;

    /// Numeric factorization with fresh pivoting.
    fn factor(&self, a: &CscMat) -> Result<Self::Numeric, SolverError>;

    /// The engine behind this handle.
    fn engine(&self) -> Engine;

    /// Matrix dimension this analysis is for.
    fn dim(&self) -> usize;

    /// The team this handle owns, which a session's batched refined
    /// solve may deal its right-hand-side panels to. Only the block
    /// driver has one; the default, `None`, keeps every solve on the
    /// caller.
    fn team(&self) -> Option<&WorkerTeam> {
        None
    }

    /// Lifts this symbolic handle into a [`SolveSession`] — the
    /// policy-driven transient-simulation surface (statically dispatched
    /// for a concrete engine; [`LinearSolver`] sessions usually come
    /// from [`SolveSession::new`] instead). Engine settings inside the
    /// session config are ignored: this handle already embeds its own.
    ///
    /// [`SolveSession`]: crate::session::SolveSession
    /// [`SolveSession::new`]: crate::session::SolveSession::new
    fn into_session(self, cfg: &crate::session::SessionConfig) -> crate::session::SolveSession<Self>
    where
        Self: Sized,
    {
        crate::session::SolveSession::over(self, cfg)
    }
}

/// The numeric side of the lifecycle: value-only refactorization and
/// allocation-free solves. `Sync`, so the ranks of a team can solve
/// against one set of factors at once.
pub trait LuNumeric: Sync {
    /// Refreshes the factors from new values on the **same pattern**,
    /// reusing patterns and pivot sequences (no graph search). Fails with
    /// [`SolverError::SingularPivot`] when a frozen pivot collapses;
    /// callers then fall back to [`SparseLuSolver::factor`].
    fn refactor(&mut self, a: &CscMat) -> Result<(), SolverError>;

    /// Solves `A·x = b` in place: on entry `x` holds `b`, on exit the
    /// solution. With a warmed-up [`SolveWorkspace`] the call performs
    /// zero heap allocation.
    fn solve_in_place(&self, x: &mut [f64], ws: &mut SolveWorkspace) -> Result<(), SolverError>;

    /// Solves several right-hand sides packed column-major in `xs`
    /// (`xs.len()` must be a multiple of [`LuNumeric::dim`]) and
    /// returns the number of **sweeps** over the factors that took: the
    /// BTF engines (KLU, Basker, hybrid) solve the columns in row-major
    /// panels of up to 8, one walk over `L`, `U` and the couplings per
    /// panel (13 columns are 3 sweeps: 8 + 4 + 1); this default — the
    /// supernodal engine's path — solves them one by one.
    ///
    /// Unlike the engines' inherent `solve_multi_in_place` methods
    /// (which `assert!` on a ragged `xs`, treating it as a programmer
    /// error), this trait surface reports the mismatch as a recoverable
    /// [`SolverError`].
    fn solve_multi_in_place(
        &self,
        xs: &mut [f64],
        ws: &mut SolveWorkspace,
    ) -> Result<usize, SolverError> {
        let k = packed_rhs_count(self.dim(), xs.len())?;
        for rhs in xs.chunks_exact_mut(self.dim().max(1)) {
            self.solve_in_place(rhs, ws)?;
        }
        Ok(k)
    }

    /// Metrics of the last (re)factorization.
    fn stats(&self) -> SolverStats;

    /// [`stats`](Self::stats) written over `out`, reusing its buffers:
    /// how a session refreshes its copy every step without allocating.
    fn stats_into(&self, out: &mut SolverStats) {
        *out = self.stats();
    }

    /// Numeric quality of the current factors (pivot extremes +
    /// perturbation count) — recomputed from the factors, so it reflects
    /// the last `factor`/`refactor`, not the first.
    fn quality(&self) -> FactorQuality;

    /// Matrix dimension.
    fn dim(&self) -> usize;
}

/// The number of length-`n` columns in a packed right-hand-side block
/// of `len` values, or the `DimensionMismatch` a ragged block is.
pub(crate) fn packed_rhs_count(n: usize, len: usize) -> Result<usize, SolverError> {
    if (n == 0 && len != 0) || (n != 0 && len % n != 0) {
        return Err(SolverError::Sparse(SparseError::DimensionMismatch {
            expected: (n, len.div_ceil(n.max(1))),
            found: (len, 1),
        }));
    }
    Ok(len.checked_div(n).unwrap_or(0))
}

fn check_rhs(n: usize, got: usize) -> Result<(), SolverError> {
    if n == got {
        Ok(())
    } else {
        Err(SolverError::Sparse(SparseError::DimensionMismatch {
            expected: (n, 1),
            found: (got, 1),
        }))
    }
}

// ---------------------------------------------------------------- KLU --

impl SparseLuSolver for KluSymbolic {
    type Numeric = KluNumeric;

    fn analyze(a: &CscMat, cfg: &SolverConfig) -> Result<Self, SolverError> {
        KluSymbolic::analyze(a, &cfg.klu_options())
            .map_err(|e| map_analyze_error(Engine::Klu, a.nrows(), e))
    }

    fn factor(&self, a: &CscMat) -> Result<KluNumeric, SolverError> {
        KluSymbolic::factor(self, a).map_err(|e| {
            map_engine_error(Engine::Klu, self.col_perm().as_slice(), self.bounds(), e)
        })
    }

    fn engine(&self) -> Engine {
        Engine::Klu
    }

    fn dim(&self) -> usize {
        self.n()
    }
}

impl LuNumeric for KluNumeric {
    fn refactor(&mut self, a: &CscMat) -> Result<(), SolverError> {
        // Map to global context only on failure — the success path (a
        // transient simulation's per-step hot path) stays allocation-free.
        match KluNumeric::refactor(self, a) {
            Ok(()) => Ok(()),
            Err(e) => {
                let s = self.symbolic();
                Err(map_engine_error(
                    Engine::Klu,
                    s.col_perm().as_slice(),
                    s.bounds(),
                    e,
                ))
            }
        }
    }

    fn solve_in_place(&self, x: &mut [f64], ws: &mut SolveWorkspace) -> Result<(), SolverError> {
        check_rhs(self.symbolic().n(), x.len())?;
        KluNumeric::solve_in_place(self, x, ws);
        Ok(())
    }

    fn solve_multi_in_place(
        &self,
        xs: &mut [f64],
        ws: &mut SolveWorkspace,
    ) -> Result<usize, SolverError> {
        let k = packed_rhs_count(self.symbolic().n(), xs.len())?;
        KluNumeric::solve_multi_in_place(self, xs, ws);
        Ok(panel_chunks(k).count())
    }

    fn stats(&self) -> SolverStats {
        SolverStats {
            engine: Some(Engine::Klu),
            kernel: basker_kernels::active().name(),
            dimension: self.symbolic().n(),
            lu_nnz: self.lu_nnz(),
            flops: self.flops(),
            btf_blocks: self.symbolic().nblocks(),
            threads: 1,
            ..SolverStats::default()
        }
    }

    fn quality(&self) -> FactorQuality {
        let (min_pivot, max_pivot) = self.pivot_range();
        FactorQuality {
            min_pivot,
            max_pivot,
            perturbed_pivots: 0,
        }
    }

    fn dim(&self) -> usize {
        self.symbolic().n()
    }
}

// ----------------------------------------- the BTF block driver --

impl SparseLuSolver for Basker {
    type Numeric = BaskerNumeric;

    fn analyze(a: &CscMat, cfg: &SolverConfig) -> Result<Self, SolverError> {
        Basker::analyze(a, &cfg.basker_options())
            .map_err(|e| map_analyze_error(Engine::Basker, a.nrows(), e))
    }

    fn factor(&self, a: &CscMat) -> Result<BaskerNumeric, SolverError> {
        let st = self.structure();
        Basker::factor(self, a)
            .map_err(|e| map_engine_error(Engine::Basker, st.col_perm.as_slice(), &st.bounds, e))
    }

    fn engine(&self) -> Engine {
        Engine::Basker
    }

    fn dim(&self) -> usize {
        self.structure().n
    }

    fn team(&self) -> Option<&WorkerTeam> {
        Some(Basker::team(self))
    }
}

impl LuNumeric for BaskerNumeric {
    fn refactor(&mut self, a: &CscMat) -> Result<(), SolverError> {
        // As for KLU: resolve error context lazily, on failure only.
        match BaskerNumeric::refactor(self, a) {
            Ok(()) => Ok(()),
            Err(e) => {
                let st = self.symbolic().structure();
                Err(map_engine_error(
                    Engine::Basker,
                    st.col_perm.as_slice(),
                    &st.bounds,
                    e,
                ))
            }
        }
    }

    fn solve_in_place(&self, x: &mut [f64], ws: &mut SolveWorkspace) -> Result<(), SolverError> {
        check_rhs(self.symbolic().structure().n, x.len())?;
        BaskerNumeric::solve_in_place(self, x, ws);
        Ok(())
    }

    fn solve_multi_in_place(
        &self,
        xs: &mut [f64],
        ws: &mut SolveWorkspace,
    ) -> Result<usize, SolverError> {
        let k = packed_rhs_count(self.symbolic().structure().n, xs.len())?;
        BaskerNumeric::solve_multi_in_place(self, xs, ws);
        Ok(panel_chunks(k).count())
    }

    fn stats(&self) -> SolverStats {
        let mut s = SolverStats::default();
        self.stats_into(&mut s);
        s
    }

    fn stats_into(&self, out: &mut SolverStats) {
        let mut sync_wait_ns = std::mem::take(&mut out.sync_wait_ns);
        sync_wait_ns.clone_from(&self.stats.sync_wait_ns);
        *out = SolverStats {
            engine: Some(Engine::Basker),
            kernel: basker_kernels::active().name(),
            dimension: self.symbolic().structure().n,
            lu_nnz: self.stats.lu_nnz,
            flops: self.stats.flops,
            btf_blocks: self.stats.btf_blocks,
            threads: self.stats.threads,
            perturbed_pivots: 0,
            sync_fraction: self.stats.sync_fraction(),
            sync_wait_ns,
            factor_seconds: self.stats.numeric_seconds,
        };
    }

    fn quality(&self) -> FactorQuality {
        let (min_pivot, max_pivot) = self.pivot_range();
        FactorQuality {
            min_pivot,
            max_pivot,
            perturbed_pivots: 0,
        }
    }

    fn dim(&self) -> usize {
        self.symbolic().structure().n
    }
}

// --------------------------------------------------------------- Snlu --

impl SparseLuSolver for Snlu {
    type Numeric = SnluNumeric;

    fn analyze(a: &CscMat, cfg: &SolverConfig) -> Result<Self, SolverError> {
        Snlu::analyze(a, &cfg.snlu_options())
            .map_err(|e| map_analyze_error(Engine::Snlu, a.nrows(), e))
    }

    fn factor(&self, a: &CscMat) -> Result<SnluNumeric, SolverError> {
        // Static pivoting: no per-column pivot failures; errors (if any)
        // have no permuted-column context to translate.
        Snlu::factor(self, a).map_err(SolverError::Sparse)
    }

    fn engine(&self) -> Engine {
        Engine::Snlu
    }

    fn dim(&self) -> usize {
        self.n()
    }
}

impl LuNumeric for SnluNumeric {
    fn refactor(&mut self, a: &CscMat) -> Result<(), SolverError> {
        SnluNumeric::refactor(self, a).map_err(SolverError::Sparse)
    }

    fn solve_in_place(&self, x: &mut [f64], ws: &mut SolveWorkspace) -> Result<(), SolverError> {
        check_rhs(self.symbolic().n(), x.len())?;
        SnluNumeric::solve_in_place(self, x, ws);
        Ok(())
    }

    fn stats(&self) -> SolverStats {
        SolverStats {
            engine: Some(Engine::Snlu),
            kernel: basker_kernels::active().name(),
            dimension: self.symbolic().n(),
            lu_nnz: self.lu_nnz,
            flops: self.flops,
            btf_blocks: 1,
            threads: self.symbolic().options().nthreads,
            perturbed_pivots: self.perturbed_pivots,
            ..SolverStats::default()
        }
    }

    fn quality(&self) -> FactorQuality {
        let (min_pivot, max_pivot) = self.pivot_range();
        FactorQuality {
            min_pivot,
            max_pivot,
            perturbed_pivots: self.perturbed_pivots,
        }
    }

    fn dim(&self) -> usize {
        self.symbolic().n()
    }
}

// ------------------------------------------------- type-erased facade --

/// An engine-agnostic symbolic handle.
///
/// `analyze` dispatches to the requested engine ([`Engine::Auto`] is the
/// block driver); the same calling code then drives KLU, Basker or the
/// supernodal solver identically.
///
/// ```
/// use basker_api::{Engine, LinearSolver, SolverConfig, SparseLuSolver, LuNumeric};
/// use basker_sparse::{CscMat, SolveWorkspace};
///
/// let a = CscMat::from_dense(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
/// let solver = LinearSolver::analyze(&a, &SolverConfig::new()).unwrap();
/// let num = solver.factor(&a).unwrap();
/// let mut ws = SolveWorkspace::new();
/// let mut x = vec![5.0, 4.0];
/// num.solve_in_place(&mut x, &mut ws).unwrap();
/// assert!((x[0] - 1.0).abs() < 1e-10 && (x[1] - 1.0).abs() < 1e-10);
/// ```
pub struct LinearSolver {
    engine: Engine,
    inner: SymbolicInner,
}

enum SymbolicInner {
    Klu(KluSymbolic),
    Basker(Basker),
    Snlu(Snlu),
}

impl LinearSolver {
    /// Analyzes `a` on the requested engine, [`Engine::Auto`] and
    /// [`Engine::Hybrid`] being [`Engine::Basker`].
    pub fn analyze(a: &CscMat, cfg: &SolverConfig) -> Result<LinearSolver, SolverError> {
        let engine = cfg.resolve_engine(a)?;
        let inner = match engine {
            Engine::Klu => SymbolicInner::Klu(<KluSymbolic as SparseLuSolver>::analyze(a, cfg)?),
            Engine::Basker => SymbolicInner::Basker(<Basker as SparseLuSolver>::analyze(a, cfg)?),
            Engine::Snlu => SymbolicInner::Snlu(<Snlu as SparseLuSolver>::analyze(a, cfg)?),
            Engine::Auto | Engine::Hybrid => {
                unreachable!("resolve_engine returns an engine that runs")
            }
        };
        Ok(LinearSolver { engine, inner })
    }

    /// Numeric factorization with fresh pivoting (also available through
    /// [`SparseLuSolver::factor`]).
    pub fn factor(&self, a: &CscMat) -> Result<Factorization, SolverError> {
        let t0 = Instant::now();
        let inner = match &self.inner {
            SymbolicInner::Klu(s) => NumericInner::Klu(SparseLuSolver::factor(s, a)?),
            SymbolicInner::Basker(s) => NumericInner::Basker(SparseLuSolver::factor(s, a)?),
            SymbolicInner::Snlu(s) => NumericInner::Snlu(Box::new(SparseLuSolver::factor(s, a)?)),
        };
        Ok(Factorization {
            engine: self.engine,
            inner,
            factor_seconds: t0.elapsed().as_secs_f64(),
        })
    }

    /// The concrete engine behind this handle ([`Engine::Auto`] already
    /// resolved).
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Matrix dimension this analysis is for.
    pub fn dim(&self) -> usize {
        match &self.inner {
            SymbolicInner::Klu(s) => s.n(),
            SymbolicInner::Basker(s) => s.structure().n,
            SymbolicInner::Snlu(s) => s.n(),
        }
    }

    /// Borrows the underlying Basker analysis when that engine was chosen.
    pub fn as_basker(&self) -> Option<&Basker> {
        match &self.inner {
            SymbolicInner::Basker(s) => Some(s),
            _ => None,
        }
    }
}

impl SparseLuSolver for LinearSolver {
    type Numeric = Factorization;

    fn analyze(a: &CscMat, cfg: &SolverConfig) -> Result<Self, SolverError> {
        LinearSolver::analyze(a, cfg)
    }

    fn factor(&self, a: &CscMat) -> Result<Factorization, SolverError> {
        LinearSolver::factor(self, a)
    }

    fn engine(&self) -> Engine {
        LinearSolver::engine(self)
    }

    fn dim(&self) -> usize {
        LinearSolver::dim(self)
    }

    fn team(&self) -> Option<&WorkerTeam> {
        self.as_basker().map(Basker::team)
    }
}

impl std::fmt::Debug for LinearSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinearSolver")
            .field("engine", &self.engine)
            .field("dim", &self.dim())
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for Factorization {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Factorization")
            .field("engine", &self.engine)
            .field("dim", &self.dim())
            .finish_non_exhaustive()
    }
}

/// The numeric factors produced by a [`LinearSolver`].
pub struct Factorization {
    engine: Engine,
    inner: NumericInner,
    factor_seconds: f64,
}

enum NumericInner {
    Klu(KluNumeric),
    Basker(BaskerNumeric),
    Snlu(Box<SnluNumeric>),
}

impl Factorization {
    /// The engine that produced these factors.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Value-only refactorization (see [`LuNumeric::refactor`]).
    pub fn refactor(&mut self, a: &CscMat) -> Result<(), SolverError> {
        let t0 = Instant::now();
        match &mut self.inner {
            NumericInner::Klu(n) => LuNumeric::refactor(n, a)?,
            NumericInner::Basker(n) => LuNumeric::refactor(n, a)?,
            NumericInner::Snlu(n) => LuNumeric::refactor(n.as_mut(), a)?,
        }
        self.factor_seconds = t0.elapsed().as_secs_f64();
        Ok(())
    }

    /// In-place solve (see [`LuNumeric::solve_in_place`]).
    pub fn solve_in_place(
        &self,
        x: &mut [f64],
        ws: &mut SolveWorkspace,
    ) -> Result<(), SolverError> {
        match &self.inner {
            NumericInner::Klu(n) => LuNumeric::solve_in_place(n, x, ws),
            NumericInner::Basker(n) => LuNumeric::solve_in_place(n, x, ws),
            NumericInner::Snlu(n) => LuNumeric::solve_in_place(n.as_ref(), x, ws),
        }
    }

    /// In-place multi-rhs solve (see [`LuNumeric::solve_multi_in_place`]).
    pub fn solve_multi_in_place(
        &self,
        xs: &mut [f64],
        ws: &mut SolveWorkspace,
    ) -> Result<usize, SolverError> {
        match &self.inner {
            NumericInner::Klu(n) => LuNumeric::solve_multi_in_place(n, xs, ws),
            NumericInner::Basker(n) => LuNumeric::solve_multi_in_place(n, xs, ws),
            NumericInner::Snlu(n) => LuNumeric::solve_multi_in_place(n.as_ref(), xs, ws),
        }
    }

    /// Metrics of the last (re)factorization.
    pub fn stats(&self) -> SolverStats {
        let mut s = match &self.inner {
            NumericInner::Klu(n) => LuNumeric::stats(n),
            NumericInner::Basker(n) => LuNumeric::stats(n),
            NumericInner::Snlu(n) => LuNumeric::stats(n.as_ref()),
        };
        s.factor_seconds = self.factor_seconds;
        s
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        match &self.inner {
            NumericInner::Klu(n) => LuNumeric::dim(n),
            NumericInner::Basker(n) => LuNumeric::dim(n),
            NumericInner::Snlu(n) => LuNumeric::dim(n.as_ref()),
        }
    }

    /// Numeric quality of the current factors (see
    /// [`LuNumeric::quality`]).
    pub fn quality(&self) -> FactorQuality {
        match &self.inner {
            NumericInner::Klu(n) => LuNumeric::quality(n),
            NumericInner::Basker(n) => LuNumeric::quality(n),
            NumericInner::Snlu(n) => LuNumeric::quality(n.as_ref()),
        }
    }

    /// Borrows the Basker factors when that engine was chosen.
    pub fn as_basker(&self) -> Option<&BaskerNumeric> {
        match &self.inner {
            NumericInner::Basker(n) => Some(n),
            _ => None,
        }
    }
}

impl LuNumeric for Factorization {
    fn refactor(&mut self, a: &CscMat) -> Result<(), SolverError> {
        Factorization::refactor(self, a)
    }

    fn solve_in_place(&self, x: &mut [f64], ws: &mut SolveWorkspace) -> Result<(), SolverError> {
        Factorization::solve_in_place(self, x, ws)
    }

    fn solve_multi_in_place(
        &self,
        xs: &mut [f64],
        ws: &mut SolveWorkspace,
    ) -> Result<usize, SolverError> {
        Factorization::solve_multi_in_place(self, xs, ws)
    }

    fn stats(&self) -> SolverStats {
        Factorization::stats(self)
    }

    fn stats_into(&self, out: &mut SolverStats) {
        match &self.inner {
            NumericInner::Klu(n) => LuNumeric::stats_into(n, out),
            NumericInner::Basker(n) => LuNumeric::stats_into(n, out),
            NumericInner::Snlu(n) => LuNumeric::stats_into(n.as_ref(), out),
        }
        out.factor_seconds = self.factor_seconds;
    }

    fn quality(&self) -> FactorQuality {
        Factorization::quality(self)
    }

    fn dim(&self) -> usize {
        Factorization::dim(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basker_sparse::spmv::spmv;
    use basker_sparse::util::relative_residual;
    use basker_sparse::TripletMat;

    fn circuitish(n: usize) -> CscMat {
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, 10.0 + (i % 3) as f64);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
            }
            if i >= 4 {
                t.push(i, i - 4, 0.5);
            }
        }
        t.to_csc()
    }

    /// `engine` through the facade, run as `ran`.
    fn check_engine(engine: Engine, ran: Engine) {
        let a = circuitish(30);
        let cfg = SolverConfig::new().engine(engine);
        let solver = LinearSolver::analyze(&a, &cfg).unwrap();
        assert_eq!(solver.engine(), ran);
        assert_eq!(solver.dim(), 30);
        let num = SparseLuSolver::factor(&solver, &a).unwrap();
        let xtrue: Vec<f64> = (0..30).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut x = spmv(&a, &xtrue);
        let b = x.clone();
        let mut ws = SolveWorkspace::new();
        num.solve_in_place(&mut x, &mut ws).unwrap();
        assert!(relative_residual(&a, &x, &b) < 1e-9, "{engine}");
        let st = num.stats();
        assert_eq!(st.engine, Some(ran));
        assert!(st.lu_nnz > 0 && st.dimension == 30, "{engine}");
    }

    #[test]
    fn all_engines_through_the_facade() {
        for e in [Engine::Klu, Engine::Basker, Engine::Snlu] {
            check_engine(e, e);
        }
        check_engine(Engine::Hybrid, Engine::Basker);
    }

    /// `Engine::Hybrid` asks for the block driver: the handle and the
    /// factors are the `Basker` ones, and they report `Basker`.
    #[test]
    fn hybrid_facade_exposes_routing() {
        let a = circuitish(30);
        for engine in [Engine::Hybrid, Engine::Basker] {
            let solver = LinearSolver::analyze(&a, &SolverConfig::new().engine(engine)).unwrap();
            assert_eq!(solver.engine(), Engine::Basker, "{engine}");
            let num = SparseLuSolver::factor(&solver, &a).unwrap();
            let blocks = solver
                .as_basker()
                .expect("driver handle")
                .structure()
                .nblocks();
            assert_eq!(blocks, num.stats().btf_blocks, "{engine}");
            assert_eq!(num.engine(), Engine::Basker, "{engine}");
            assert!(num.as_basker().is_some(), "{engine}");
        }
    }

    #[test]
    fn multi_rhs_matches_single() {
        let a = circuitish(20);
        let solver = LinearSolver::analyze(&a, &SolverConfig::new().engine(Engine::Klu)).unwrap();
        let num = SparseLuSolver::factor(&solver, &a).unwrap();
        let b1 = vec![1.0; 20];
        let b2: Vec<f64> = (0..20).map(|i| i as f64 * 0.25).collect();
        let mut ws = SolveWorkspace::new();
        let mut packed: Vec<f64> = b1.iter().chain(b2.iter()).copied().collect();
        num.solve_multi_in_place(&mut packed, &mut ws).unwrap();
        let solve_one = |b: &[f64]| {
            let mut x = b.to_vec();
            num.solve_in_place(&mut x, &mut SolveWorkspace::new())
                .unwrap();
            x
        };
        assert_eq!(&packed[..20], &solve_one(&b1)[..]);
        assert_eq!(&packed[20..], &solve_one(&b2)[..]);
    }

    #[test]
    fn quality_uniform_across_engines() {
        let a = circuitish(25);
        for engine in [Engine::Klu, Engine::Basker, Engine::Snlu, Engine::Hybrid] {
            let solver = LinearSolver::analyze(&a, &SolverConfig::new().engine(engine)).unwrap();
            let num = SparseLuSolver::factor(&solver, &a).unwrap();
            let q = num.quality();
            assert!(
                q.min_pivot > 0.0 && q.min_pivot <= q.max_pivot,
                "{engine}: pivot range ({}, {})",
                q.min_pivot,
                q.max_pivot
            );
            let r = q.rcond_estimate();
            assert!((0.0..=1.0).contains(&r), "{engine}: rcond {r}");
            // Diagonally dominant circuitish matrix: healthy growth.
            let growth = q.pivot_growth(basker_sparse::util::mat_norm_inf(&a));
            assert!(growth > 0.0 && growth < 10.0, "{engine}: growth {growth}");
        }
    }

    #[test]
    fn rhs_dimension_checked() {
        let a = circuitish(8);
        let solver =
            LinearSolver::analyze(&a, &SolverConfig::new().engine(Engine::Basker)).unwrap();
        let num = SparseLuSolver::factor(&solver, &a).unwrap();
        let mut short = vec![1.0; 5];
        let mut ws = SolveWorkspace::new();
        assert!(num.solve_in_place(&mut short, &mut ws).is_err());
        let mut ragged = vec![1.0; 12];
        assert!(num.solve_multi_in_place(&mut ragged, &mut ws).is_err());
    }

    #[test]
    fn singular_pivot_reports_global_context() {
        // Two decoupled blocks; the second ([1 1; 1 1] on rows/cols 2,3)
        // is numerically singular.
        let mut t = TripletMat::new(4, 4);
        t.push(0, 0, 3.0);
        t.push(1, 1, 4.0);
        t.push(2, 2, 1.0);
        t.push(2, 3, 1.0);
        t.push(3, 2, 1.0);
        t.push(3, 3, 1.0);
        let a = t.to_csc();
        for engine in [Engine::Klu, Engine::Basker] {
            let solver = LinearSolver::analyze(&a, &SolverConfig::new().engine(engine)).unwrap();
            let err = SparseLuSolver::factor(&solver, &a).unwrap_err();
            let SolverError::SingularPivot {
                engine: e,
                global_column,
                btf_block,
                ..
            } = err
            else {
                panic!("{engine}: expected SingularPivot, got {err:?}");
            };
            assert_eq!(e, engine);
            assert!(
                global_column == 2 || global_column == 3,
                "{engine}: global column {global_column} not in the singular block"
            );
            assert!(btf_block < 4, "{engine}: block {btf_block}");
        }
    }
}
