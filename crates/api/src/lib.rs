//! # Unified solver API: services, sessions, engines
//!
//! Three layers over the workspace's three sparse LU engines:
//!
//! * **[`SolverService`]** — the multi-tenant serving layer: `N`
//!   concurrent transient streams (each a [`SolveSession`] with its own
//!   reuse policy) multiplexed over one shared worker team, with bounded
//!   per-stream queues, fair scheduling, pooled solve workspaces and
//!   per-stream failure isolation. Spawns no OS threads of its own.
//! * **[`SolveSession`]** — the recommended surface for the dominant
//!   workload (transient simulation, paper §V-F): feed a stream of
//!   same-pattern matrices, and the session owns the whole lifecycle —
//!   symbolic reuse, value-only refactorization with automatic re-pivot
//!   fallback, a configurable [`ReusePolicy`] (always re-pivot / always
//!   refactor / adaptive on pivot-growth and residual gates), built-in
//!   iterative refinement with a caller-visible [`SolveQuality`], and
//!   batched right-hand sides over an internally pooled workspace.
//!   Every decision is observable in [`SessionStats`].
//! * **[`LinearSolver`] / [`Factorization`]** — the one-shot lifecycle
//!   (`analyze → factor/refactor → solve_in_place`) the session is built
//!   on, for callers that factor a single matrix or need manual control.
//!
//! Engines:
//!
//! * [`Engine::Basker`] — the paper's threaded hierarchical solver: one
//!   block driver that runs fine-BTF blocks on Gilbert–Peierls and large
//!   blocks on the ND team, each ND leaf on the kernel analyze chose for
//!   it (Gilbert–Peierls or supernodal),
//! * [`Engine::Klu`] — the serial BTF + Gilbert–Peierls baseline,
//! * [`Engine::Snlu`] — the supernodal level-scheduled comparator,
//! * [`Engine::Hybrid`] — an input alias of [`Engine::Basker`], which
//!   already picks a kernel per block; it resolves to `Basker`,
//! * [`Engine::Auto`] — the default: the block driver, [`Engine::Basker`],
//!   on every matrix (it already picks a kernel per block and per leaf).
//!
//! The design goals, in order:
//!
//! 1. **One lifecycle.** The [`SparseLuSolver`] / [`LuNumeric`] trait
//!    pair is implemented by every engine, so driver code (benchmark
//!    harnesses, transient simulators, batching layers) is written once
//!    — and [`SolveSession`] drives it through the type-erased
//!    [`LinearSolver`].
//! 2. **Allocation-free hot path.** Solves work entirely in pooled
//!    [`SolveWorkspace`] scratch; after warm-up, a session's
//!    step/solve loop performs zero heap allocation beyond the engines'
//!    own factor storage.
//! 3. **Errors in global coordinates.** A singular pivot is reported as
//!    the **original matrix column** plus its BTF block
//!    ([`SolverError::SingularPivot`]), never an engine-local index.
//!
//! ## Example: the transient loop
//!
//! ```
//! use basker_api::{ReusePolicy, SessionConfig, SolveSession};
//! use basker_sparse::CscMat;
//!
//! let a = CscMat::from_dense(&[
//!     vec![10.0, 2.0, 0.0],
//!     vec![3.0, 12.0, 4.0],
//!     vec![0.0, 1.0, 9.0],
//! ]);
//! let cfg = SessionConfig::new()
//!     .threads(2)
//!     .policy(ReusePolicy::adaptive());
//! let mut session = SolveSession::new(&a, &cfg).unwrap();
//!
//! // Values drift, pattern fixed: the policy decides factor vs
//! // refactor vs re-pivot — the loop body stays two calls.
//! for step in 0..3 {
//!     // SAFETY: pattern arrays are copied from the valid matrix `a`;
//!     // values map 1:1.
//!     let m = unsafe { CscMat::from_parts_unchecked(
//!         3, 3,
//!         a.colptr().to_vec(), a.rowind().to_vec(),
//!         a.values().iter().map(|v| v * (1.0 + 0.1 * step as f64)).collect(),
//!     ) };
//!     session.step(&m).unwrap();
//!     let mut x = vec![1.0, 0.0, -1.0]; // b in, x out
//!     let quality = session.solve_refined(&mut x).unwrap();
//!     assert!(quality.converged);
//! }
//! let stats = session.stats();
//! assert_eq!(stats.factors + stats.refactors, 3);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod service;
pub mod session;
pub mod solver;

pub use config::{Engine, SolverConfig};
pub use error::SolverError;
pub use service::{
    ServiceConfig, ServiceStats, SolverService, StepResult, StepTicket, StreamHandle, StreamStats,
    STREAM_QUEUE_BOUND,
};
pub use session::{
    ReusePolicy, SessionConfig, SessionState, SessionStats, SolveQuality, SolveSession,
};
pub use solver::{
    FactorQuality, Factorization, LinearSolver, LuNumeric, SolverStats, SparseLuSolver,
};

// The workspace type callers need for the in-place solves.
pub use basker_sparse::SolveWorkspace;
