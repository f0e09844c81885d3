//! The transient-simulation session: a policy-driven
//! factor/refactor lifecycle with quality gates and batched right-hand
//! sides.
//!
//! A circuit simulator's transient loop (paper §V-F: 1000 matrices with
//! one sparsity pattern and drifting values) previously had to hand-roll
//! the factor-vs-refactor decision, the singular-pivot fallback and the
//! workspace plumbing at every call site. [`SolveSession`] owns that
//! lifecycle: the caller feeds a stream of same-pattern matrices through
//! [`step`](SolveSession::step) and solves through the session's pooled
//! buffers; a [`ReusePolicy`] decides per step whether the factors are
//! rebuilt with fresh pivoting or refreshed value-only, and every
//! decision is observable in [`SessionStats`].
//!
//! ```text
//!              ┌────────────────────────── step(A_k) ──────────────────────────┐
//!              │                                                               │
//! Analyzed ── step(A_0) ──► Factored ──┬─► Refactored   (value-only refresh    │
//!  (new)                       ▲       │                 kept by the policy)   │
//!                              │       └─► Repivoted    (SingularPivot fallback│
//!                              │                         or quality gate:      │
//!                              │                         fresh pivoting run)   │
//!                              └── solve / solve_refined / solve_multi ◄───────┘
//! ```
//!
//! The session also builds in **iterative refinement**
//! ([`solve_refined`](SolveSession::solve_refined)): each refined solve
//! reports a [`SolveQuality`] (initial and final residual, sweeps used),
//! and under [`ReusePolicy::Adaptive`] a refined solve that still misses
//! the acceptability threshold on reused factors triggers a re-pivot and
//! one retry — the quality gate that makes aggressive factorization
//! reuse safe.
//!
//! ```
//! use basker_api::{ReusePolicy, SessionConfig, SolveSession};
//! use basker_sparse::CscMat;
//!
//! let a = CscMat::from_dense(&[vec![10.0, 2.0], vec![3.0, 12.0]]);
//! let cfg = SessionConfig::new().policy(ReusePolicy::adaptive());
//! let mut session = SolveSession::new(&a, &cfg).unwrap();
//!
//! // the transient loop body — no manual factor/refactor branching:
//! for scale in [1.0, 1.1, 1.2] {
//!     // SAFETY: pattern arrays are copied from the valid matrix `a`;
//!     // values map 1:1.
//!     let m = unsafe { CscMat::from_parts_unchecked(
//!         2, 2,
//!         a.colptr().to_vec(), a.rowind().to_vec(),
//!         a.values().iter().map(|v| v * scale).collect(),
//!     ) };
//!     session.step(&m).unwrap();
//!     let mut x = vec![1.0, 1.0]; // b in, x out
//!     let q = session.solve_refined(&mut x).unwrap();
//!     assert!(q.converged);
//! }
//! assert_eq!(session.stats().steps, 3);
//! assert_eq!(session.stats().factors + session.stats().refactors, 3);
//! ```

use crate::config::{Engine, SolverConfig};
use crate::error::SolverError;
use crate::solver::{packed_rhs_count, FactorQuality, Factorization, LinearSolver, SolverStats};
use basker::refactor::ItemCell;
use basker::stages::DISPATCH_BREAK_EVEN_FLOPS;
use basker_runtime::WorkerTeam;
use basker_sparse::spmv::{spmv_sub, spmv_sub_cols};
use basker_sparse::util::{mat_norm_inf_with, norm_inf};
use basker_sparse::workspace::panel_chunks;
use basker_sparse::{CscMat, SolveWorkspace, SparseError};

/// How the session reuses factors across same-pattern steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReusePolicy {
    /// Fresh pivoting factorization every step — the paper's §V-F
    /// semantics ("each factorization may require a different
    /// permutation due to pivoting"). Safest, slowest.
    AlwaysFactor,
    /// Value-only refactorization every step, re-pivoting **only** when
    /// the engine reports a collapsed pivot
    /// ([`SolverError::SingularPivot`]). Fastest; accuracy rides on the
    /// frozen pivot sequence staying adequate.
    AlwaysRefactor,
    /// Refactor by default, but re-pivot when quality degrades:
    ///
    /// * **pivot-growth gate** (at [`step`](SolveSession::step), after a
    ///   successful refactor): re-pivot when pivot growth exceeds
    ///   `growth_limit ×` the last fresh factorization's growth, when the
    ///   rcond estimate fell by more than `growth_limit ×`, or when the
    ///   engine perturbed pivots it did not perturb at the baseline;
    /// * **residual gate** (at
    ///   [`solve_refined`](SolveSession::solve_refined)): re-pivot and
    ///   retry once when refinement on reused factors still misses
    ///   `residual_limit`.
    Adaptive {
        /// Allowed degradation factor for the pivot-growth/rcond gates.
        growth_limit: f64,
        /// Relative-residual acceptability bound for the residual gate.
        residual_limit: f64,
    },
}

impl ReusePolicy {
    /// The default adaptive policy: re-pivot on a 10⁴× quality
    /// degradation or a refined residual worse than 10⁻⁸.
    pub fn adaptive() -> ReusePolicy {
        ReusePolicy::Adaptive {
            growth_limit: 1e4,
            residual_limit: 1e-8,
        }
    }
}

impl Default for ReusePolicy {
    fn default() -> Self {
        ReusePolicy::adaptive()
    }
}

/// Builder-style configuration of a [`SolveSession`]: the underlying
/// engine configuration plus the session's reuse policy and refinement
/// targets.
#[derive(Debug, Clone, Default)]
pub struct SessionConfig {
    solver: SolverConfig,
    policy: ReusePolicy,
    refine: RefineParams,
}

#[derive(Debug, Clone, Copy)]
struct RefineParams {
    target_residual: f64,
    max_iterations: usize,
}

impl Default for RefineParams {
    fn default() -> Self {
        RefineParams {
            target_residual: 1e-10,
            max_iterations: 4,
        }
    }
}

impl SessionConfig {
    /// The default configuration: [`Engine::Auto`] under the adaptive
    /// reuse policy, refining to a 10⁻¹⁰ relative residual (at most 4
    /// sweeps).
    pub fn new() -> SessionConfig {
        SessionConfig::default()
    }

    /// Replaces the engine configuration wholesale.
    pub fn solver(mut self, cfg: SolverConfig) -> Self {
        self.solver = cfg;
        self
    }

    /// Selects the engine (passthrough to [`SolverConfig::engine`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.solver = self.solver.engine(engine);
        self
    }

    /// Worker threads (passthrough to [`SolverConfig::threads`]).
    pub fn threads(mut self, n: usize) -> Self {
        self.solver = self.solver.threads(n);
        self
    }

    /// Sets the factor-reuse policy (default [`ReusePolicy::adaptive`]).
    pub fn policy(mut self, policy: ReusePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Relative-residual target of
    /// [`solve_refined`](SolveSession::solve_refined) (default `1e-10`).
    pub fn target_residual(mut self, r: f64) -> Self {
        self.refine.target_residual = r;
        self
    }

    /// Maximum refinement sweeps per refined solve (default 4).
    pub fn max_refine_iterations(mut self, k: usize) -> Self {
        self.refine.max_iterations = k;
        self
    }

    /// The underlying engine configuration.
    pub fn solver_config(&self) -> &SolverConfig {
        &self.solver
    }
}

/// Where the session's factors came from (the lifecycle states of the
/// module-level diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Symbolic analysis done, no numeric factors yet (solves error).
    Analyzed,
    /// Factors from a scheduled fresh pivoting factorization (the first
    /// step, and every step under [`ReusePolicy::AlwaysFactor`]).
    Factored,
    /// Factors from a value-only refactorization kept by the policy.
    Refactored,
    /// Factors from a fresh pivoting factorization **forced** by a
    /// singular-pivot fallback or an adaptive quality gate.
    Repivoted,
}

impl std::fmt::Display for SessionState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionState::Analyzed => write!(f, "analyzed"),
            SessionState::Factored => write!(f, "factored"),
            SessionState::Refactored => write!(f, "refactored"),
            SessionState::Repivoted => write!(f, "repivoted"),
        }
    }
}

/// Quality report of one refined solve.
#[derive(Debug, Clone, Copy)]
pub struct SolveQuality {
    /// Refinement sweeps applied (0 when the plain solve already met the
    /// target).
    pub iterations: usize,
    /// Relative residual after the plain solve, before any refinement.
    pub initial_residual: f64,
    /// Relative residual of the returned solution.
    pub residual: f64,
    /// Whether `residual` meets the session's target.
    pub converged: bool,
}

/// Per-session counters: every lifecycle decision the policy made, plus
/// aggregate solve quality. All counters are cumulative over the
/// session's lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Matrices fed through [`step`](SolveSession::step).
    pub steps: usize,
    /// Fresh pivoting factorizations, for any reason (first step,
    /// scheduled by [`ReusePolicy::AlwaysFactor`], fallbacks, gates).
    pub factors: usize,
    /// Value-only refactorizations kept as the step's factors.
    pub refactors: usize,
    /// Refactorizations that failed on a singular pivot and fell back to
    /// a fresh pivoting factorization.
    pub repivot_fallbacks: usize,
    /// Fresh factorizations forced by the adaptive quality gates (pivot
    /// growth at `step`, residual at `solve_refined`).
    pub quality_repivots: usize,
    /// Right-hand sides solved (plain + refined, single + batched).
    pub solves: usize,
    /// Sweeps over the factors those solves took: the BTF engines walk
    /// `L`, `U` and the couplings once per row-major panel of up to 8
    /// right-hand sides, so `solves / solve_sweeps` is the mean panel
    /// width (8 right-hand sides are 1 sweep, 13 are 3; a single solve
    /// is 1). A refined solve dealt to the team counts each rank's
    /// panel: 8 columns at width 2 on a matrix big enough to dispatch
    /// are 2 sweeps of 4 (see
    /// [`solve_refined_multi`](SolveSession::solve_refined_multi)).
    /// Counts a gate-discarded pass too; the one-column correction
    /// sweeps of refinement are
    /// [`refine_iterations`](Self::refine_iterations), not these.
    pub solve_sweeps: usize,
    /// Total iterative-refinement sweeps across all refined solves.
    pub refine_iterations: usize,
    /// Worst relative residual any refined solve returned (plain solves
    /// are not measured).
    pub worst_residual: f64,
    /// Always 0: every engine's plan is fixed at analyze and no session
    /// spends a factorization measuring one. The field stays because the
    /// whole-stack benchmark publishes it (`api.session.routing_probes`).
    pub routing_probes: usize,
    /// Engine metrics of the most recent (re)factorization.
    pub last_factor: SolverStats,
}

/// Pivot-quality baseline captured at the last fresh factorization; the
/// adaptive gate compares every refactorization against it.
#[derive(Debug, Clone, Copy)]
struct QualityBaseline {
    growth: f64,
    rcond: f64,
    perturbed: usize,
}

/// A long-lived solving session over a stream of same-pattern matrices,
/// driving one [`LinearSolver`] handle.
pub struct SolveSession {
    solver: LinearSolver,
    num: Option<Factorization>,
    policy: ReusePolicy,
    refine: RefineParams,
    state: SessionState,
    stats: SessionStats,
    /// The current step's matrix (the analyzed pattern, values
    /// refreshed per step) — refinement and the residual gate correct
    /// against it.
    current: CscMat,
    /// `‖A‖∞` of the current step's matrix.
    a_norm: f64,
    baseline: Option<QualityBaseline>,
    /// Pooled engine scratch shared by every solve.
    ws: SolveWorkspace,
    /// Refinement scratch: the saved right-hand side and the residual.
    rhs: Vec<f64>,
    resid: Vec<f64>,
    /// A refined pass dealt to the team: its panels, and one slot per
    /// rank, grown on the first such pass.
    panels: Vec<(usize, usize)>,
    ranks: Vec<RankPass>,
}

impl SolveSession {
    /// Analyzes `a`'s pattern (resolving [`Engine::Auto`]) and opens a
    /// session for matrices sharing it. No numeric factorization happens
    /// yet — feed the first matrix (usually `a` itself) through
    /// [`step`](Self::step).
    pub fn new(a: &CscMat, cfg: &SessionConfig) -> Result<SolveSession, SolverError> {
        let solver = LinearSolver::analyze(a, &cfg.solver)?;
        let n = solver.dim();
        Ok(SolveSession {
            solver,
            num: None,
            policy: cfg.policy,
            refine: cfg.refine,
            state: SessionState::Analyzed,
            stats: SessionStats::default(),
            current: a.clone(),
            a_norm: 0.0,
            baseline: None,
            ws: SolveWorkspace::for_dim(n),
            rhs: vec![0.0; n],
            resid: vec![0.0; n],
            panels: Vec::new(),
            ranks: Vec::new(),
        })
    }

    /// The concrete engine driving this session.
    pub fn engine(&self) -> Engine {
        self.solver.engine()
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.solver.dim()
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// Cumulative lifecycle and quality counters.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// The underlying symbolic handle.
    pub fn solver(&self) -> &LinearSolver {
        &self.solver
    }

    /// The current numeric factors, if any step has run.
    pub fn numeric(&self) -> Option<&Factorization> {
        self.num.as_ref()
    }

    /// Pivot quality of the current factors, if any step has run.
    pub fn quality(&self) -> Option<FactorQuality> {
        self.num.as_ref().map(|n| n.quality())
    }

    /// Exchanges the session's pooled solve workspace with `ws`.
    ///
    /// This is the hook the serving layer uses to share a small pool of
    /// warm workspaces across *many* sessions: a scheduler multiplexing
    /// `N` streams over `W` concurrent executors swaps a pooled
    /// workspace in before each job and back out after, so memory scales
    /// with `W` instead of `N`. Sessions owned directly by one caller
    /// never need this — their embedded workspace is already reused
    /// across solves.
    pub fn swap_workspace(&mut self, ws: &mut SolveWorkspace) {
        std::mem::swap(&mut self.ws, ws);
    }

    /// Feeds the next matrix of the stream: the policy decides between a
    /// fresh pivoting factorization and a value-only refactorization
    /// (with automatic re-pivot fallback), and the returned state says
    /// which happened. The matrix must share the analyzed pattern.
    ///
    /// On an error from the factorization phase (e.g. the matrix is
    /// genuinely singular and even the re-pivot fallback failed) the
    /// session **drops its factors** and returns to
    /// [`SessionState::Analyzed`]: engines refactor in place, so the
    /// old factors may be half-overwritten and must not serve another
    /// solve. The next successful `step` rebuilds them. A pattern or
    /// dimension mismatch is reported before any numeric work and
    /// leaves the current factors untouched.
    pub fn step(&mut self, m: &CscMat) -> Result<SessionState, SolverError> {
        self.retain(m)?;
        self.stats.steps += 1;

        match self.factor_phase(m) {
            Ok((state, last_factor)) => {
                if state == SessionState::Refactored {
                    self.stats.refactors += 1;
                }
                self.state = state;
                self.stats.last_factor = last_factor;
                Ok(state)
            }
            Err(e) => {
                self.num = None;
                self.baseline = None;
                self.state = SessionState::Analyzed;
                Err(e)
            }
        }
    }

    /// The factor-vs-refactor decision of one step, and the stats of the
    /// factors it leaves installed. Any error out of here may leave
    /// `self.num` partially overwritten (in-place refactorization) —
    /// `step` invalidates the factors on that path.
    fn factor_phase(&mut self, m: &CscMat) -> Result<(SessionState, SolverStats), SolverError> {
        let refactored = match self.num.as_mut() {
            Some(num) if self.policy != ReusePolicy::AlwaysFactor => {
                num.refactor(m).map(|()| (num.quality(), num.stats()))
            }
            // First step, or pivoting rerun on schedule (not as a
            // recovery) — either way a plain Factored.
            _ => return Ok((SessionState::Factored, self.fresh_factor()?)),
        };
        match refactored {
            Ok((q, stats)) => {
                if let ReusePolicy::Adaptive { growth_limit, .. } = self.policy {
                    if self.pivot_quality_degraded(&q, growth_limit) {
                        // Count the re-pivot only once it succeeded — a
                        // failed forced factorization installs nothing.
                        let stats = self.fresh_factor()?;
                        self.stats.quality_repivots += 1;
                        return Ok((SessionState::Repivoted, stats));
                    }
                }
                Ok((SessionState::Refactored, stats))
            }
            Err(e) if e.is_pivot_failure() => {
                let stats = self.fresh_factor()?;
                self.stats.repivot_fallbacks += 1;
                Ok((SessionState::Repivoted, stats))
            }
            Err(e) => Err(e),
        }
    }

    /// Validates the pattern and retains the step's values (the matrix
    /// refinement corrects against); recomputes `‖A‖∞`.
    fn retain(&mut self, m: &CscMat) -> Result<(), SolverError> {
        let n = self.solver.dim();
        if m.nrows() != n || m.ncols() != n {
            return Err(SolverError::Sparse(SparseError::DimensionMismatch {
                expected: (n, n),
                found: (m.nrows(), m.ncols()),
            }));
        }
        let cur = &mut self.current;
        if cur.colptr() != m.colptr() || cur.rowind() != m.rowind() {
            return Err(SolverError::Sparse(SparseError::InvalidStructure(
                "session step: sparsity pattern differs from the analyzed pattern \
                 (open a new session per pattern)"
                    .into(),
            )));
        }
        cur.values_mut().copy_from_slice(m.values());
        // `rhs` doubles as the row-sum scratch here; it is dead between
        // solves and at least `n` long.
        self.a_norm = mat_norm_inf_with(m, &mut self.rhs);
        Ok(())
    }

    /// Runs a fresh pivoting factorization of the retained matrix,
    /// re-baselines the quality gates, and returns the new factors'
    /// stats.
    fn fresh_factor(&mut self) -> Result<SolverStats, SolverError> {
        let num = self.solver.factor(&self.current)?;
        let q = num.quality();
        self.baseline = Some(QualityBaseline {
            growth: q.pivot_growth(self.a_norm),
            rcond: q.rcond_estimate(),
            perturbed: q.perturbed_pivots,
        });
        let stats = num.stats();
        self.num = Some(num);
        self.stats.factors += 1;
        Ok(stats)
    }

    /// The adaptive pivot-growth gate: did this refactorization's
    /// quality degrade past `growth_limit` relative to the last fresh
    /// factorization?
    fn pivot_quality_degraded(&self, q: &FactorQuality, growth_limit: f64) -> bool {
        let Some(base) = self.baseline else {
            return false;
        };
        let growth = q.pivot_growth(self.a_norm);
        let rcond = q.rcond_estimate();
        growth > growth_limit * base.growth.max(1.0)
            || rcond < base.rcond / growth_limit
            || q.perturbed_pivots > base.perturbed
    }

    /// Plain in-place solve against the current factors: `x` holds `b`
    /// on entry, the solution on exit. Allocation-free once the pooled
    /// workspace is warm.
    pub fn solve(&mut self, x: &mut [f64]) -> Result<(), SolverError> {
        let num = self.num.as_ref().ok_or_else(no_factors)?;
        num.solve_in_place(x, &mut self.ws)?;
        self.stats.solves += 1;
        self.stats.solve_sweeps += 1;
        Ok(())
    }

    /// Batched plain solve: `xs` packs right-hand sides column-major
    /// (`xs.len()` must be a multiple of [`dim`](Self::dim)); every
    /// chunk is overwritten with its solution through the one pooled
    /// workspace. The BTF engines solve the columns in row-major panels
    /// of up to 8 — one sweep over the factors per panel, counted in
    /// [`solve_sweeps`](SessionStats::solve_sweeps).
    pub fn solve_multi(&mut self, xs: &mut [f64]) -> Result<(), SolverError> {
        let n = self.solver.dim();
        let num = self.num.as_ref().ok_or_else(no_factors)?;
        self.stats.solve_sweeps += num.solve_multi_in_place(xs, &mut self.ws)?;
        self.stats.solves += xs.len().checked_div(n).unwrap_or(0);
        Ok(())
    }

    /// Solve with built-in iterative refinement: after the plain solve,
    /// residual-correction sweeps run until the session's target
    /// residual is met or the sweep budget is spent. Under
    /// [`ReusePolicy::Adaptive`], a refined solve on **reused** factors
    /// that still misses the policy's `residual_limit` re-pivots and
    /// retries once (counted in
    /// [`quality_repivots`](SessionStats::quality_repivots)). The
    /// one-column case of
    /// [`solve_refined_multi`](Self::solve_refined_multi), without its
    /// returned `Vec`.
    pub fn solve_refined(&mut self, x: &mut [f64]) -> Result<SolveQuality, SolverError> {
        if x.len() != self.solver.dim() {
            return Err(SolverError::Sparse(SparseError::DimensionMismatch {
                expected: (self.solver.dim(), 1),
                found: (x.len(), 1),
            }));
        }
        let mut q = [UNSOLVED];
        self.refined_batch(x, &mut q)?;
        Ok(q[0])
    }

    /// Batched refined solve: one [`SolveQuality`] per packed right-hand
    /// side (see [`solve_multi`](Self::solve_multi) for the layout).
    ///
    /// One batched pass, not a loop of [`solve_refined`](Self::solve_refined):
    /// every `b` is retained, each panel of up to 8 columns takes one
    /// sweep over the factors and its residuals **one** pass over `A`,
    /// and only columns still above the target go on through the
    /// single-column correction loop.
    ///
    /// * **On the team.** On the block driver the panels are dealt to
    ///   the ranks of the team the handle owns, one subset of columns
    ///   per rank, each with its own workspace, copies, sweep, residual
    ///   pass and correction loop; the residual gate and the stats
    ///   commit stay on the caller after the join. A panel of 8 or 4
    ///   is halved until every rank has one, never into panels of 1,
    ///   so every solution and quality is bit-identical to the
    ///   caller's at every width; only
    ///   [`solve_sweeps`](SessionStats::solve_sweeps) counts the
    ///   ranks' panels. The pass stays on the caller on a width-1
    ///   team, when called from one of the team's ranks (a
    ///   [`SolverService`](crate::SolverService) job), and when
    ///   `k × (|L+U| + nnz(A))` is under the stage list's
    ///   [`DISPATCH_BREAK_EVEN_FLOPS`]. The extra ranks' workspaces
    ///   live in the session and grow on its first dealt pass; after
    ///   it, a dealt call allocates the returned `Vec` and the
    ///   scheduler's two task entries, as a dispatched refactor stage
    ///   does, and nothing else.
    ///
    /// * **On `Err`** every column of `xs` holds its `b` again and
    ///   nothing is counted in [`SessionStats`].
    /// * **The residual gate fires at most once per call**: if any
    ///   column solved on *reused* factors misses the adaptive policy's
    ///   `residual_limit`, the session re-pivots and re-solves the whole
    ///   batch, so every returned column and quality comes from the
    ///   factors installed at return.
    ///   [`quality_repivots`](SessionStats::quality_repivots) goes up by
    ///   one and [`worst_residual`](SessionStats::worst_residual) folds
    ///   in the returned columns only.
    pub fn solve_refined_multi(
        &mut self,
        xs: &mut [f64],
    ) -> Result<Vec<SolveQuality>, SolverError> {
        let k = packed_rhs_count(self.solver.dim(), xs.len())?;
        let mut out = vec![UNSOLVED; k];
        self.refined_batch(xs, &mut out)?;
        Ok(out)
    }

    /// The refined solve of the `out.len()` columns packed in `xs`, the
    /// residual gate, and the one stats commit of the call — for the
    /// returned solutions only. Restores `xs` on any error.
    fn refined_batch(
        &mut self,
        xs: &mut [f64],
        out: &mut [SolveQuality],
    ) -> Result<(), SolverError> {
        self.num.as_ref().ok_or_else(no_factors)?;
        if self.rhs.len() < xs.len() {
            self.rhs.resize(xs.len(), 0.0);
            self.resid.resize(xs.len(), 0.0);
        }
        let mut work = self.refined_pass(xs, out);
        if let Ok((sweeps, iterations)) = work {
            if self.residual_gate_trips(out) {
                // Reuse cost too much accuracy: re-pivot and redo the
                // whole batch from the retained right-hand sides, so no
                // returned column comes from factors no longer
                // installed. (The refactored factors are valid, just
                // inaccurate, so a fresh-factor failure here keeps them
                // installed and propagates; the re-pivot is counted only
                // when one was installed.)
                work = self.fresh_factor().and_then(|last_factor| {
                    self.stats.quality_repivots += 1;
                    self.state = SessionState::Repivoted;
                    self.stats.last_factor = last_factor;
                    xs.copy_from_slice(&self.rhs[..xs.len()]);
                    let (more_sweeps, more_iterations) = self.refined_pass(xs, out)?;
                    Ok((sweeps + more_sweeps, iterations + more_iterations))
                });
            }
        }
        let (sweeps, iterations) = match work {
            Ok(done) => done,
            Err(e) => {
                // A pass retains every `b` before anything in it can
                // fail.
                xs.copy_from_slice(&self.rhs[..xs.len()]);
                return Err(e);
            }
        };
        // One solve per column, sweeps for all work performed, but
        // worst_residual only for the solutions actually returned (a
        // gate-discarded pass must not poison it).
        self.stats.solves += out.len();
        self.stats.solve_sweeps += sweeps;
        self.stats.refine_iterations += iterations;
        for q in out.iter() {
            self.stats.worst_residual = self.stats.worst_residual.max(q.residual);
        }
        Ok(())
    }

    /// The adaptive residual gate: did any column just solved on
    /// **reused** factors miss the policy's `residual_limit`? Never
    /// twice in a call — the re-pivot it triggers leaves the `Refactored`
    /// state.
    fn residual_gate_trips(&self, out: &[SolveQuality]) -> bool {
        matches!(self.policy, ReusePolicy::Adaptive { residual_limit, .. }
            if self.state == SessionState::Refactored
                && out.iter().any(|q| q.residual > residual_limit))
    }

    /// One solve + refinement pass over every column against the
    /// current factors and the retained matrix, panel by panel, every
    /// panel retaining its `b` first. Returns the sweeps and correction
    /// sweeps it took; does **not** touch the stats.
    ///
    /// The panels go to the team the handle owns
    /// (`LinearSolver::team`), dealt by `deal_panels`, when it is
    /// wider than one rank, the caller is not one of its ranks, and the
    /// `k` columns' sweeps and residual passes, `k × (|L+U| + nnz(A))`
    /// flops, cover a dispatch ([`DISPATCH_BREAK_EVEN_FLOPS`]);
    /// otherwise they run here, [`panel_chunks`]'s in order. The stage
    /// list's figure holds here too: at `T` = 2 on two CPUs, the
    /// lightest dealt calls, `powergrid(200, 30)` at `K` = 5 (1.1·10⁵)
    /// and the default circuit at `K` = 8 (1.2·10⁵), took 268 against
    /// 406 µs and 129 against 165 µs inline (medians).
    fn refined_pass(
        &mut self,
        xs: &mut [f64],
        out: &mut [SolveQuality],
    ) -> Result<(usize, usize), SolverError> {
        let cx = Refine {
            num: self.num.as_ref().ok_or_else(no_factors)?,
            a: &self.current,
            a_norm: self.a_norm,
            params: self.refine,
        };
        let k = out.len();
        let flops = k as f64 * (self.stats.last_factor.lu_nnz + cx.a.nnz()) as f64;
        let team = self.solver.team().filter(|t| {
            t.width() > 1 && !t.on_worker_thread() && flops >= DISPATCH_BREAK_EVEN_FLOPS
        });
        let width = team.map_or(1, WorkerTeam::width);
        deal_panels(k, width, &mut self.panels);
        let jobs = self.panels.len().clamp(1, width);
        if self.ranks.len() < jobs {
            self.ranks.resize_with(jobs, RankPass::default);
        }
        let ranks = &mut self.ranks[..jobs];
        // Rank slot 0 lends the session's own workspace.
        std::mem::swap(&mut self.ws, &mut ranks[0].ws);
        let cols = Columns {
            b: &mut self.rhs[..xs.len()],
            resid: &mut self.resid[..xs.len()],
            xs,
            out,
        };
        let done = deal(team, &cx, &self.panels, cols, ranks);
        std::mem::swap(&mut self.ws, &mut ranks[0].ws);
        done
    }
}

/// What every panel of a refined pass reads: the factors, the retained
/// matrix, its `‖A‖∞` and the refinement target.
struct Refine<'a> {
    num: &'a Factorization,
    a: &'a CscMat,
    a_norm: f64,
    params: RefineParams,
}

/// The packed columns of a refined pass, or of one panel of it: `b` in
/// and the solution out (`xs`), the retained `b`, the residuals and a
/// quality per column.
struct Columns<'a> {
    xs: &'a mut [f64],
    b: &'a mut [f64],
    resid: &'a mut [f64],
    out: &'a mut [SolveQuality],
}

/// One panel of `K` columns: retain the `K` `b`, one panel solve, the
/// `K` residuals from one pass over `A` (which also yields every
/// `‖x‖∞`), then the single-column correction loop for every column
/// still above the target. Returns the sweeps and correction sweeps it
/// took.
fn refined_panel<const K: usize>(
    cx: &Refine<'_>,
    cols: Columns<'_>,
    ws: &mut SolveWorkspace,
) -> Result<(usize, usize), SolverError> {
    let Columns { xs, b, resid, out } = cols;
    let n = xs.len() / K;
    let (a, a_norm, target) = (cx.a, cx.a_norm, cx.params.target_residual);

    // Two bulk copies and a read-only norm pass: measured faster than
    // one fused loop, whose plain stores read every destination line
    // before overwriting it.
    b.copy_from_slice(xs);
    resid.copy_from_slice(xs);
    let bnorm: [f64; K] = std::array::from_fn(|c| norm_inf(&xs[c * n..(c + 1) * n]));
    let sweeps = cx.num.solve_multi_in_place(xs, ws)?;
    let xnorm = spmv_sub_cols::<K>(a, xs, resid);

    let mut total = 0;
    for c in 0..K {
        let col = c * n..(c + 1) * n;
        let (x, b, resid) = (&mut xs[col.clone()], &b[col.clone()], &mut resid[col]);
        let mut rel = relative_to(norm_inf(resid), a_norm * xnorm[c] + bnorm[c]);
        let initial_residual = rel;
        let mut iterations = 0usize;
        while rel > target && iterations < cx.params.max_iterations {
            // d = A⁻¹ r, then x += d and re-measure.
            cx.num.solve_in_place(resid, ws)?;
            for (xi, di) in x.iter_mut().zip(resid.iter()) {
                *xi += *di;
            }
            rel = residual_into(a, x, b, resid, a_norm, bnorm[c]);
            iterations += 1;
        }
        total += iterations;
        out[c] = SolveQuality {
            iterations,
            initial_residual,
            residual: rel,
            converged: rel <= target,
        };
    }
    Ok((sweeps, total))
}

/// Cuts `k` columns into the panels a refined pass deals to `ranks`
/// ranks: [`panel_chunks`]'s, the first of the widest halved while
/// there are fewer panels than ranks and it is at least 4 wide. A
/// panel's lanes round the same at every width but 1 (`K = 1` takes
/// `scatter_axpy`'s run detection), and no halving makes a 1, so every
/// column is solved to the bit it is on the caller.
fn deal_panels(k: usize, ranks: usize, panels: &mut Vec<(usize, usize)>) {
    panels.clear();
    panels.extend(panel_chunks(k));
    while panels.len() < ranks {
        let widest = panels.iter().map(|&(_, w)| w).max().unwrap_or(0);
        if widest < 4 {
            break;
        }
        let i = panels.iter().position(|&(_, w)| w == widest);
        let i = i.expect("the widest is in the list");
        let (first, w) = panels[i];
        panels[i] = (first, w / 2);
        panels.insert(i + 1, (first + w / 2, w / 2));
    }
}

/// One rank's share of a dealt pass: its workspace and what it did.
/// The session keeps one per rank, so a warmed pass allocates none.
#[derive(Default)]
struct RankPass {
    ws: SolveWorkspace,
    sweeps: usize,
    iterations: usize,
    /// The rank's first failing panel, and its error.
    failed: Option<(usize, SolverError)>,
}

/// Runs a refined pass's `panels` of `cols`, one job per rank slot, on
/// `team` or else here: job `r` takes panels `r`, `r + jobs`, … with
/// slot `r`'s workspace. Each job runs all of its panels even past an
/// error, so every `b` is retained and the caller can restore all of
/// `xs`: a failing pass, inline ones included, solves every panel after
/// the one that failed before it returns. Returns the sweeps and
/// correction sweeps taken, or the error of the first failing panel.
fn deal(
    team: Option<&WorkerTeam>,
    cx: &Refine<'_>,
    panels: &[(usize, usize)],
    cols: Columns<'_>,
    ranks: &mut [RankPass],
) -> Result<(usize, usize), SolverError> {
    let (n, jobs) = (cx.a.ncols(), ranks.len());
    let slots = ItemCell::from_mut_slice(ranks);
    let xs = ItemCell::from_mut_slice(cols.xs);
    let b = ItemCell::from_mut_slice(cols.b);
    let resid = ItemCell::from_mut_slice(cols.resid);
    let out = ItemCell::from_mut_slice(cols.out);
    let job = |r: usize| {
        // SAFETY: job `r` is the only one to take slot `r`.
        let rank = unsafe { slots[r].get_mut_unchecked() };
        (rank.sweeps, rank.iterations, rank.failed) = (0, 0, None);
        for (p, &(first, w)) in panels.iter().enumerate().skip(r).step_by(jobs) {
            let at = first * n..(first + w) * n;
            // SAFETY: the panels are disjoint column ranges and each is
            // dealt to one job, so no two jobs share a column of `xs`,
            // `b`, `resid` or `out`, and the caller touches none until
            // the join.
            let cols = unsafe {
                Columns {
                    xs: ItemCell::slice_mut_unchecked(&xs[at.clone()]),
                    b: ItemCell::slice_mut_unchecked(&b[at.clone()]),
                    resid: ItemCell::slice_mut_unchecked(&resid[at]),
                    out: ItemCell::slice_mut_unchecked(&out[first..first + w]),
                }
            };
            let done = basker_sparse::with_panel_width!(
                w,
                K => refined_panel::<K>(cx, cols, &mut rank.ws)
            );
            match done {
                Ok((sweeps, iterations)) => {
                    rank.sweeps += sweeps;
                    rank.iterations += iterations;
                }
                Err(e) => {
                    rank.failed.get_or_insert((p, e));
                }
            }
        }
    };
    match team {
        Some(team) => team.run_worklist(jobs, job),
        None => (0..jobs).for_each(job),
    }
    let done = ranks.iter().fold((0, 0), |(s, i), rank| {
        (s + rank.sweeps, i + rank.iterations)
    });
    let failed = ranks.iter_mut().filter_map(|rank| rank.failed.take());
    match failed.min_by_key(|&(p, _)| p) {
        Some((_, e)) => Err(e),
        None => Ok(done),
    }
}

/// The error of a solve on a session that holds no factors.
fn no_factors() -> SolverError {
    SolverError::Config("session has no factors yet: feed a matrix through step() first".into())
}

/// Placeholder a refined solve overwrites for every column it returns.
const UNSOLVED: SolveQuality = SolveQuality {
    iterations: 0,
    initial_residual: f64::NAN,
    residual: f64::NAN,
    converged: false,
};

impl std::fmt::Debug for SolveSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveSession")
            .field("engine", &self.engine())
            .field("dim", &self.dim())
            .field("state", &self.state)
            .field("policy", &self.policy)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// `resid ← b − A·x`; returns the scaled relative residual
/// `‖r‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞)` without allocating.
fn residual_into(
    a: &CscMat,
    x: &[f64],
    b: &[f64],
    resid: &mut [f64],
    a_norm: f64,
    bnorm: f64,
) -> f64 {
    resid.copy_from_slice(b);
    spmv_sub(a, x, resid);
    relative_to(norm_inf(resid), a_norm * norm_inf(x) + bnorm)
}

/// `r / denom`, or `r` itself for an all-zero system.
fn relative_to(r: f64, denom: f64) -> f64 {
    if denom == 0.0 {
        r
    } else {
        r / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basker_sparse::spmv::spmv;
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

    fn scaled(a: &CscMat, f: f64) -> CscMat {
        // SAFETY: pattern arrays are copied from the valid matrix `a`;
        // values map 1:1.
        unsafe {
            CscMat::from_parts_unchecked(
                a.nrows(),
                a.ncols(),
                a.colptr().to_vec(),
                a.rowind().to_vec(),
                a.values().iter().map(|v| v * f).collect(),
            )
        }
    }

    #[test]
    fn lifecycle_states_and_counters() {
        let a = circuitish(24);
        let cfg = SessionConfig::new()
            .engine(Engine::Klu)
            .policy(ReusePolicy::AlwaysRefactor);
        let mut s = SolveSession::new(&a, &cfg).unwrap();
        assert_eq!(s.state(), SessionState::Analyzed);
        assert!(s.solve(&mut [1.0; 24]).is_err(), "no factors yet");

        assert_eq!(s.step(&a).unwrap(), SessionState::Factored);
        assert_eq!(s.step(&scaled(&a, 1.1)).unwrap(), SessionState::Refactored);
        assert_eq!(s.step(&scaled(&a, 0.9)).unwrap(), SessionState::Refactored);
        let st = s.stats();
        assert_eq!((st.steps, st.factors, st.refactors), (3, 1, 2));
        assert_eq!(st.repivot_fallbacks, 0);
    }

    #[test]
    fn always_factor_runs_fresh_pivoting_each_step() {
        let a = circuitish(16);
        let cfg = SessionConfig::new()
            .engine(Engine::Basker)
            .threads(2)
            .policy(ReusePolicy::AlwaysFactor);
        let mut s = SolveSession::new(&a, &cfg).unwrap();
        for k in 0..4 {
            let st = s.step(&scaled(&a, 1.0 + 0.05 * k as f64)).unwrap();
            assert_eq!(st, SessionState::Factored);
        }
        assert_eq!(s.stats().factors, 4);
        assert_eq!(s.stats().refactors, 0);
    }

    #[test]
    fn refined_solve_meets_target_and_reports_quality() {
        let a = circuitish(30);
        let cfg = SessionConfig::new().engine(Engine::Snlu).threads(2);
        let mut s = SolveSession::new(&a, &cfg).unwrap();
        s.step(&a).unwrap();
        let xtrue: Vec<f64> = (0..30).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut x = spmv(&a, &xtrue);
        let q = s.solve_refined(&mut x).unwrap();
        assert!(q.converged, "residual {}", q.residual);
        assert!(q.residual <= q.initial_residual);
        for (u, v) in x.iter().zip(&xtrue) {
            assert!((u - v).abs() < 1e-6, "{u} vs {v}");
        }
    }

    #[test]
    fn deal_panels_halve_the_first_widest_and_never_make_a_one() {
        let dealt = |k: usize, ranks: usize| {
            let mut panels = Vec::new();
            deal_panels(k, ranks, &mut panels);
            panels
        };
        assert_eq!(dealt(8, 1), [(0, 8)]);
        assert_eq!(dealt(8, 2), [(0, 4), (4, 4)]);
        assert_eq!(dealt(8, 4), [(0, 2), (2, 2), (4, 2), (6, 2)]);
        assert_eq!(dealt(12, 4), [(0, 2), (2, 2), (4, 4), (8, 4)]);
        assert_eq!(dealt(13, 2), [(0, 8), (8, 4), (12, 1)]);
        assert_eq!(dealt(13, 4), [(0, 4), (4, 4), (8, 4), (12, 1)]);
        assert_eq!(dealt(5, 4), [(0, 2), (2, 2), (4, 1)]);
        assert_eq!(dealt(2, 4), [(0, 2)]);
        assert_eq!(dealt(1, 4), [(0, 1)]);
        assert!(dealt(0, 4).is_empty());
        // Every column once, in order, and a column of a panel wider
        // than 1 never lands in a panel of 1.
        for k in 0..40 {
            for ranks in [1, 2, 4, 8] {
                let panels = dealt(k, ranks);
                let mut next = 0;
                for &(first, w) in &panels {
                    assert_eq!(first, next, "k={k} ranks={ranks}");
                    next += w;
                }
                assert_eq!(next, k);
                let ones = |p: &[(usize, usize)]| p.iter().filter(|p| p.1 == 1).count();
                let today: Vec<_> = panel_chunks(k).collect();
                assert_eq!(ones(&panels), ones(&today), "k={k} ranks={ranks}");
            }
        }
    }

    #[test]
    fn batched_solves_match_singles() {
        let a = circuitish(20);
        let cfg = SessionConfig::new().engine(Engine::Klu);
        let mut s = SolveSession::new(&a, &cfg).unwrap();
        s.step(&a).unwrap();
        let b1 = vec![1.0; 20];
        let b2: Vec<f64> = (0..20).map(|i| 0.25 * i as f64).collect();
        let mut packed: Vec<f64> = b1.iter().chain(b2.iter()).copied().collect();
        s.solve_multi(&mut packed).unwrap();
        let mut x1 = b1.clone();
        s.solve(&mut x1).unwrap();
        let mut x2 = b2.clone();
        s.solve(&mut x2).unwrap();
        assert_eq!(&packed[..20], &x1[..]);
        assert_eq!(&packed[20..], &x2[..]);
        assert_eq!(s.stats().solves, 4);

        let mut refined: Vec<f64> = b1.iter().chain(b2.iter()).copied().collect();
        let qs = s.solve_refined_multi(&mut refined).unwrap();
        assert_eq!(qs.len(), 2);
        assert!(qs.iter().all(|q| q.converged));
    }

    #[test]
    fn pattern_change_is_rejected() {
        let a = circuitish(12);
        let mut s = SolveSession::new(&a, &SessionConfig::new().engine(Engine::Klu)).unwrap();
        s.step(&a).unwrap();
        let mut t = TripletMat::new(12, 12);
        for i in 0..12 {
            t.push(i, i, 2.0);
        }
        let diag = t.to_csc();
        let err = s.step(&diag).unwrap_err();
        assert!(matches!(
            err,
            SolverError::Sparse(SparseError::InvalidStructure(_))
        ));
        // dimension mismatch too
        let small = circuitish(5);
        assert!(s.step(&small).is_err());
    }

    #[test]
    fn wrong_sized_rhs_is_an_error_not_a_panic() {
        let a = circuitish(10);
        let mut s = SolveSession::new(&a, &SessionConfig::new().engine(Engine::Klu)).unwrap();
        s.step(&a).unwrap();
        let mut long = vec![1.0; 11];
        assert!(s.solve_refined(&mut long).is_err());
        assert!(s.solve(&mut long).is_err());
        let mut short = vec![1.0; 9];
        assert!(s.solve_refined(&mut short).is_err());
    }

    #[test]
    fn failed_step_invalidates_factors() {
        // A genuinely singular step (every value zeroed in one diagonal
        // entry's whole block) fails even the re-pivot fallback; the
        // session must drop the (possibly half-refactored) factors and
        // refuse further solves instead of using them silently.
        let mut t = TripletMat::new(2, 2);
        t.push(0, 0, 4.0);
        t.push(0, 1, 2.0);
        t.push(1, 0, 2.0);
        t.push(1, 1, 1.0 + 1e-9);
        let a = t.to_csc();
        let cfg = SessionConfig::new()
            .engine(Engine::Klu)
            .policy(ReusePolicy::AlwaysRefactor);
        let mut s = SolveSession::new(&a, &cfg).unwrap();
        s.step(&a).unwrap();
        // exactly singular: [[4, 2], [2, 1]]
        // SAFETY: pattern arrays are copied from the valid 2x2 matrix `a`;
        // the value vector matches its nnz.
        let singular = unsafe {
            CscMat::from_parts_unchecked(
                2,
                2,
                a.colptr().to_vec(),
                a.rowind().to_vec(),
                vec![4.0, 2.0, 2.0, 1.0],
            )
        };
        assert!(s.step(&singular).is_err());
        assert_eq!(s.state(), SessionState::Analyzed);
        assert!(s.numeric().is_none());
        assert!(
            matches!(s.solve(&mut [1.0, 1.0]), Err(SolverError::Config(_))),
            "stale factors must not serve solves"
        );
        // a healthy step recovers the session
        s.step(&a).unwrap();
        let mut x = vec![1.0, 1.0];
        s.solve(&mut x).unwrap();
    }
}
