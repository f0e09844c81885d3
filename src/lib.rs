//! Workspace facade for the Basker reproduction.
//!
//! Re-exports the user-facing types of every crate so the examples and
//! integration tests read like downstream user code. The recommended
//! entry point is the [`SolveSession`](basker_api::SolveSession)
//! lifecycle — a policy-driven factor/refactor session over a stream of
//! same-pattern matrices, run by default on the block driver
//! ([`Engine::Auto`](basker_api::Engine) is `Engine::Basker`):
//!
//! ```
//! use basker_repro::prelude::*;
//!
//! let a = CscMat::from_dense(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
//! let cfg = SessionConfig::new().threads(2);
//! let mut session = SolveSession::new(&a, &cfg).unwrap();
//!
//! // One loop body for a whole transient run: the session decides
//! // factor vs refactor vs re-pivot and refines each solve.
//! session.step(&a).unwrap();
//! let mut x = vec![5.0, 4.0]; // b in, x out
//! let quality = session.solve_refined(&mut x).unwrap();
//! assert!(quality.converged);
//! assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
//! ```
//!
//! One layer down, [`LinearSolver`](basker_api::LinearSolver) exposes
//! the manual `analyze → factor/refactor → solve_in_place` lifecycle the
//! session is built on, and the engine-specific APIs (`Basker`,
//! `KluSymbolic`, `Snlu`) remain available for code that needs
//! engine-only features. One layer *up*,
//! [`SolverService`](basker_api::SolverService) serves many concurrent
//! transient streams at once, multiplexing their factor/refactor/solve
//! jobs over one shared worker team — and [`basker_serve`] puts that
//! seam on the network: a wire protocol, a pattern-hash router over a
//! supervised fleet of shard processes, and the `shardd` binary.

/// One-stop imports for applications.
pub mod prelude {
    pub use basker::{Basker, BaskerNumeric, BaskerOptions, BaskerStats, SyncMode};
    pub use basker_api::{
        Engine, FactorQuality, Factorization, LinearSolver, LuNumeric, ReusePolicy, ServiceConfig,
        ServiceStats, SessionConfig, SessionState, SessionStats, SolveQuality, SolveSession,
        SolverConfig, SolverError, SolverService, SolverStats, SparseLuSolver, StepResult,
        StepTicket, StreamHandle, StreamStats,
    };
    pub use basker_klu::{KluNumeric, KluOptions, KluSymbolic};
    pub use basker_matgen::{
        circuit, mesh2d, mesh3d, powergrid, CircuitParams, PowergridParams, XyceSequence,
        XyceSequenceParams,
    };
    pub use basker_snlu::{Snlu, SnluNumeric, SnluOptions};
    pub use basker_sparse::util::relative_residual;
    pub use basker_sparse::{CscMat, Perm, SolveWorkspace, SparseError, TripletMat};
}

pub use basker;
pub use basker_api;
pub use basker_kernels;
pub use basker_klu;
pub use basker_matgen;
pub use basker_ordering;
pub use basker_runtime;
pub use basker_serve;
pub use basker_snlu;
pub use basker_sparse;
