//! Engine selection and the unified configuration builder.

use crate::error::SolverError;
use basker::hybrid::HybridOptions;
use basker::{BaskerOptions, SyncMode};
use basker_klu::KluOptions;
use basker_snlu::SnluOptions;
use basker_sparse::CscMat;

/// Which factorization engine drives the lifecycle.
///
/// [`Engine::Auto`] is the block driver, [`Engine::Basker`], on every
/// matrix and at every width. The driver already chooses a kernel per
/// item: Gilbert–Peierls on fine-BTF blocks, and Gilbert–Peierls or the
/// supernodal kernel per ND leaf. Measured on 2 vCPUs, its session step
/// was the fastest of the three engines, or within 4 % of the fastest,
/// on circuits, a 2-D mesh and a power grid at one and two threads.
/// [`Engine::Klu`] and [`Engine::Snlu`] stay as explicit reference
/// engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The default: [`Engine::Basker`], without looking at the matrix.
    Auto,
    /// The threaded hierarchical solver of the paper.
    Basker,
    /// The serial BTF + Gilbert–Peierls baseline.
    Klu,
    /// The supernodal level-scheduled solver (static pivoting +
    /// iterative refinement).
    Snlu,
    /// An input alias of [`Engine::Basker`]: the block driver already
    /// picks a kernel per block and per ND leaf, so
    /// [`SolverConfig::resolve_engine`] maps it to `Basker`, and stats,
    /// errors and the wire report the engine that ran.
    Hybrid,
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Auto => write!(f, "auto"),
            Engine::Basker => write!(f, "basker"),
            Engine::Klu => write!(f, "klu"),
            Engine::Snlu => write!(f, "snlu"),
            Engine::Hybrid => write!(f, "hybrid"),
        }
    }
}

/// Builder-style configuration shared by every engine.
///
/// ```
/// use basker_api::{Engine, SolverConfig};
///
/// let cfg = SolverConfig::new()
///     .engine(Engine::Basker)
///     .threads(4)
///     .pivot_tol(0.01);
/// assert_eq!(cfg.requested_engine(), Engine::Basker);
/// ```
#[derive(Debug, Clone)]
pub struct SolverConfig {
    engine: Engine,
    nthreads: usize,
    pivot_tol: f64,
    use_btf: bool,
    nd_threshold: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            engine: Engine::Auto,
            nthreads: basker::env_default_threads().unwrap_or(2),
            pivot_tol: 0.001,
            use_btf: true,
            nd_threshold: 128,
        }
    }
}

impl SolverConfig {
    /// The default configuration: [`Engine::Auto`], 2 threads, KLU's
    /// pivot tolerance.
    pub fn new() -> Self {
        SolverConfig::default()
    }

    /// Selects the engine (default [`Engine::Auto`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Worker threads for the threaded engines (Basker rounds down to a
    /// power of two; KLU is always serial). The default honours the
    /// `BASKER_NUM_THREADS` environment override.
    pub fn threads(mut self, nthreads: usize) -> Self {
        self.nthreads = nthreads.max(1);
        self
    }

    /// Threshold partial-pivoting tolerance for the Gilbert–Peierls
    /// engines (KLU default `0.001`; `1.0` forces classic partial
    /// pivoting).
    pub fn pivot_tol(mut self, tol: f64) -> Self {
        self.pivot_tol = tol;
        self
    }

    /// Enables/disables the coarse BTF permutation (Basker and KLU).
    pub fn use_btf(mut self, yes: bool) -> Self {
        self.use_btf = yes;
        self
    }

    /// BTF blocks at least this large get Basker's fine ND treatment.
    pub fn nd_threshold(mut self, t: usize) -> Self {
        self.nd_threshold = t;
        self
    }

    /// Accepts either [`SyncMode`] and changes nothing: both values run
    /// the same stage list, which synchronizes only at stage joins.
    pub fn sync_mode(self, _mode: SyncMode) -> Self {
        self
    }

    /// The engine as requested (possibly [`Engine::Auto`]).
    pub fn requested_engine(&self) -> Engine {
        self.engine
    }

    /// The derived KLU options.
    pub fn klu_options(&self) -> KluOptions {
        KluOptions {
            pivot_tol: self.pivot_tol,
            use_btf: self.use_btf,
        }
    }

    /// The derived Basker options.
    pub fn basker_options(&self) -> BaskerOptions {
        BaskerOptions {
            nthreads: self.nthreads,
            pivot_tol: self.pivot_tol,
            use_btf: self.use_btf,
            nd_threshold: self.nd_threshold,
        }
    }

    /// The derived supernodal options.
    pub fn snlu_options(&self) -> SnluOptions {
        SnluOptions {
            nthreads: self.nthreads,
            ..SnluOptions::default()
        }
    }

    /// The options of [`Engine::Hybrid`]: [`basker_options`](Self::basker_options).
    pub fn hybrid_options(&self) -> HybridOptions {
        self.basker_options()
    }

    /// The engine that runs: [`Engine::Auto`] and [`Engine::Hybrid`]
    /// resolve to [`Engine::Basker`], and the other requests pass through
    /// untouched. The matrix is not read, and the call never fails; an
    /// engine's own analyze reports a non-square or structurally singular
    /// matrix.
    pub fn resolve_engine(&self, _a: &CscMat) -> Result<Engine, SolverError> {
        Ok(match self.engine {
            Engine::Auto | Engine::Hybrid => Engine::Basker,
            engine => engine,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basker_sparse::TripletMat;

    fn diagonal_chain(n: usize) -> CscMat {
        // n 1x1 BTF blocks with upper-triangular couplings: circuit-like.
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
            }
        }
        t.to_csc()
    }

    fn grid2d(k: usize) -> CscMat {
        let n = k * k;
        let idx = |r: usize, c: usize| r * k + c;
        let mut t = TripletMat::new(n, n);
        for r in 0..k {
            for c in 0..k {
                let u = idx(r, c);
                t.push(u, u, 4.0);
                if r + 1 < k {
                    t.push(u, idx(r + 1, c), -1.0);
                    t.push(idx(r + 1, c), u, -1.0);
                }
                if c + 1 < k {
                    t.push(u, idx(r, c + 1), -1.0);
                    t.push(idx(r, c + 1), u, -1.0);
                }
            }
        }
        t.to_csc()
    }

    /// Radial buses, each fed by the one upstream of it: 1×1 BTF blocks.
    fn power_grid(n: usize) -> CscMat {
        let mut t = TripletMat::new(n, n);
        for u in 0..n {
            t.push(u, u, 3.0);
            if u > 0 {
                t.push(u, (u - 1) / 3, -1.0);
            }
        }
        t.to_csc()
    }

    /// Irreducible `k`-cycles, each feeding the next one way: mid-sized
    /// BTF blocks.
    fn circuit(nsub: usize, k: usize) -> CscMat {
        let n = nsub * k;
        let mut t = TripletMat::new(n, n);
        for u in 0..n {
            t.push(u, u, 5.0);
            t.push(u, u - u % k + (u + 1) % k, -1.0);
            if u + k < n {
                t.push(u + k, u, -0.5);
            }
        }
        t.to_csc()
    }

    /// Asserts that [`Engine::Auto`] resolves to [`Engine::Basker`] on
    /// every shape at one, two and four threads, and that a service
    /// stream reports the block driver as the engine that ran.
    fn assert_auto_is_the_block_driver(shapes: &[(&str, CscMat)]) {
        use crate::service::{ServiceConfig, SolverService};
        use crate::session::SessionConfig;

        for p in [1, 2, 4] {
            let cfg = SolverConfig::new().engine(Engine::Auto).threads(p);
            for (name, a) in shapes {
                let engine = cfg.resolve_engine(a).unwrap();
                assert_eq!(engine, Engine::Basker, "{name}, T = {p}");
            }
        }
        let service = SolverService::new(&ServiceConfig::new().threads(2));
        for (name, a) in shapes {
            let stream = service.stream(a, &SessionConfig::new()).unwrap();
            assert_eq!(stream.engine(), Engine::Basker, "{name} stream");
        }
    }

    /// Circuit shapes split under BTF; the block driver factors their
    /// blocks with Gilbert–Peierls at every width, one thread included.
    #[test]
    fn auto_picks_gilbert_peierls_for_circuit_shapes() {
        assert_auto_is_the_block_driver(&[
            ("chain", diagonal_chain(50)),
            ("power grid", power_grid(61)),
            ("circuit", circuit(5, 12)),
        ]);
    }

    /// A mesh is one irreducible block; the block driver takes it down
    /// the ND path, whose leaves pick the supernodal kernel themselves.
    #[test]
    fn auto_picks_supernodal_for_mesh_shapes() {
        assert_auto_is_the_block_driver(&[("grid", grid2d(12))]);
    }

    #[test]
    fn concrete_engine_passes_through() {
        let a = grid2d(6);
        let cfg = SolverConfig::new().engine(Engine::Klu);
        assert_eq!(cfg.resolve_engine(&a).unwrap(), Engine::Klu);
        let cfg = SolverConfig::new().engine(Engine::Hybrid);
        assert_eq!(cfg.resolve_engine(&a).unwrap(), Engine::Basker);
    }

    #[test]
    fn auto_reports_structural_singularity() {
        let mut t = TripletMat::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 1.0);
        let a = t.to_csc();
        let cfg = SolverConfig::new().engine(Engine::Auto);
        let e = crate::solver::LinearSolver::analyze(&a, &cfg).unwrap_err();
        assert!(matches!(
            e,
            SolverError::StructurallySingular {
                engine: Engine::Basker,
                structural_rank: 1,
                dimension: 2,
            }
        ));
    }
}
