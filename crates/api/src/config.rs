//! Engine selection and the unified configuration builder.

use crate::error::{map_analyze_error, SolverError};
use basker::hybrid::HybridOptions;
use basker::{BaskerOptions, SyncMode};
use basker_klu::KluOptions;
use basker_ordering::btf::btf_form_with;
use basker_snlu::SnluOptions;
use basker_sparse::{CscMat, SparseError};

/// Which factorization engine drives the lifecycle.
///
/// The paper's evaluation (Figs. 5–7) shows no single algorithm wins
/// everywhere: Gilbert–Peierls engines (KLU, Basker) dominate low-fill
/// circuit matrices, while the supernodal method's dense kernels win once
/// separators grow dense (meshes). [`Engine::Auto`] applies that
/// structure heuristic per matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Pick per matrix from the BTF shape (see [`SolverConfig`] knobs).
    Auto,
    /// The threaded hierarchical solver of the paper.
    Basker,
    /// The serial BTF + Gilbert–Peierls baseline.
    Klu,
    /// The supernodal level-scheduled solver (static pivoting +
    /// iterative refinement).
    Snlu,
    /// Per-BTF-block mixed-strategy factorization: each diagonal block
    /// is classified by its own structure and routed to GP, supernodal
    /// or pipelined-ND independently, once, at analyze (see
    /// [`basker::hybrid::classify_block`]).
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

/// The engine named by the `BASKER_ENGINE` environment variable, if set
/// and recognised (`auto`/`basker`/`klu`/`snlu`/`hybrid`, any case).
/// [`SolverConfig::default`] starts from this, so a CI matrix leg can
/// steer a whole test binary onto one engine without code changes.
pub fn env_default_engine() -> Option<Engine> {
    parse_engine(&std::env::var("BASKER_ENGINE").ok()?)
}

fn parse_engine(v: &str) -> Option<Engine> {
    match v.trim().to_ascii_lowercase().as_str() {
        "auto" => Some(Engine::Auto),
        "basker" => Some(Engine::Basker),
        "klu" => Some(Engine::Klu),
        "snlu" => Some(Engine::Snlu),
        "hybrid" => Some(Engine::Hybrid),
        _ => None,
    }
}

/// [`Engine::Auto`]: a BTF block counts as "small" up to this size
/// (Table I counts rows in blocks ≤ 64). Capped at `n/2` so a small
/// matrix that is one irreducible block is never "all small blocks".
const AUTO_SMALL_BLOCK: usize = 64;

/// [`Engine::Auto`]: minimum fraction of rows in small BTF blocks for a
/// matrix to be treated as circuit-like.
const AUTO_CIRCUIT_FRACTION: f64 = 0.5;

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
    use_mwcm: bool,
    nd_threshold: usize,
    sync_mode: SyncMode,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            engine: env_default_engine().unwrap_or(Engine::Auto),
            nthreads: basker::env_default_threads().unwrap_or(2),
            pivot_tol: 0.001,
            use_btf: true,
            use_mwcm: true,
            nd_threshold: 128,
            sync_mode: SyncMode::PointToPoint,
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

    /// Uses the bottleneck MWCM transversal rather than any maximum
    /// transversal when forming the BTF.
    pub fn use_mwcm(mut self, yes: bool) -> Self {
        self.use_mwcm = yes;
        self
    }

    /// BTF blocks at least this large get Basker's fine ND treatment.
    pub fn nd_threshold(mut self, t: usize) -> Self {
        self.nd_threshold = t;
        self
    }

    /// Synchronization strategy for Basker's ND numeric phase.
    pub fn sync_mode(mut self, m: SyncMode) -> Self {
        self.sync_mode = m;
        self
    }

    /// The engine as requested (possibly [`Engine::Auto`]).
    pub fn requested_engine(&self) -> Engine {
        self.engine
    }

    /// Requested worker threads.
    pub fn requested_threads(&self) -> usize {
        self.nthreads
    }

    /// The derived KLU options.
    pub fn klu_options(&self) -> KluOptions {
        KluOptions {
            pivot_tol: self.pivot_tol,
            use_btf: self.use_btf,
            use_mwcm: self.use_mwcm,
            use_amd: true,
        }
    }

    /// The derived Basker options.
    pub fn basker_options(&self) -> BaskerOptions {
        BaskerOptions {
            nthreads: self.nthreads,
            pivot_tol: self.pivot_tol,
            use_btf: self.use_btf,
            use_mwcm: self.use_mwcm,
            nd_threshold: self.nd_threshold,
            sync_mode: self.sync_mode,
        }
    }

    /// The derived supernodal options.
    pub fn snlu_options(&self) -> SnluOptions {
        SnluOptions {
            nthreads: self.nthreads,
            ..SnluOptions::default()
        }
    }

    /// The derived hybrid-engine options: the classifier's default
    /// thresholds over this configuration's structural knobs.
    pub fn hybrid_options(&self) -> HybridOptions {
        HybridOptions {
            base: self.basker_options(),
            snlu: self.snlu_options(),
            ..HybridOptions::default()
        }
    }

    /// Resolves [`Engine::Auto`] against a concrete matrix; concrete
    /// requests pass through untouched.
    ///
    /// The heuristic is the paper's structure argument: circuit and
    /// power-grid matrices decompose under BTF — many rows in small
    /// diagonal blocks (Table I's "BTF %" column), no dominant
    /// irreducible block — where Gilbert–Peierls fill-less elimination
    /// wins (Basker when threads are available, KLU serially). Mesh-like
    /// matrices are one big irreducible block whose separators fill in,
    /// where the supernodal engine's dense panels win. A matrix counts
    /// as circuit-like when at least half its rows sit in small blocks
    /// (`AUTO_CIRCUIT_FRACTION`) **or** its largest BTF block covers at
    /// most half the rows.
    ///
    /// Matrices that are **both** — a large irreducible block *and* a
    /// meaningful share of rows in small blocks — are heterogeneous:
    /// no single strategy fits every block, so they resolve to
    /// [`Engine::Hybrid`] and are routed per block.
    pub fn resolve_engine(&self, a: &CscMat) -> Result<Engine, SolverError> {
        if self.engine != Engine::Auto {
            return Ok(self.engine);
        }
        if !a.is_square() {
            return Err(SolverError::Sparse(SparseError::DimensionMismatch {
                expected: (a.nrows(), a.nrows()),
                found: (a.nrows(), a.ncols()),
            }));
        }
        let n = a.nrows();
        if n == 0 {
            return Ok(Engine::Klu);
        }
        // A plain maximum transversal is enough to expose the block shape
        // (the chosen engine redoes its own analysis with MWCM anyway).
        let btf = btf_form_with(a, false).map_err(|e| map_analyze_error(Engine::Auto, n, e))?;
        let small = AUTO_SMALL_BLOCK.min(n / 2).max(1);
        let mut small_rows = 0usize;
        let mut largest = 0usize;
        for w in btf.bounds.windows(2) {
            let s = w[1] - w[0];
            largest = largest.max(s);
            if s <= small {
                small_rows += s;
            }
        }
        let frac = small_rows as f64 / n as f64;
        let decomposes = largest * 2 <= n;
        // Heterogeneous shape: a block big enough for the ND treatment
        // next to a non-trivial tail of small blocks (≥ 10% of rows).
        if largest >= self.nd_threshold && small_rows * 10 >= n {
            return Ok(Engine::Hybrid);
        }
        Ok(if frac >= AUTO_CIRCUIT_FRACTION || decomposes {
            if self.nthreads > 1 {
                Engine::Basker
            } else {
                Engine::Klu
            }
        } else {
            Engine::Snlu
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

    #[test]
    fn auto_picks_gilbert_peierls_for_circuit_shapes() {
        let a = diagonal_chain(50);
        // Pin the thread count and engine: the defaults honour the
        // BASKER_NUM_THREADS / BASKER_ENGINE environment overrides, and
        // CI runs this suite at 1 thread and under pinned engines too.
        let cfg = SolverConfig::new().engine(Engine::Auto).threads(2);
        assert_eq!(cfg.resolve_engine(&a).unwrap(), Engine::Basker);
        let serial = SolverConfig::new().engine(Engine::Auto).threads(1);
        assert_eq!(serial.resolve_engine(&a).unwrap(), Engine::Klu);
    }

    #[test]
    fn auto_picks_supernodal_for_mesh_shapes() {
        let a = grid2d(12);
        let cfg = SolverConfig::new().engine(Engine::Auto);
        assert_eq!(cfg.resolve_engine(&a).unwrap(), Engine::Snlu);
    }

    #[test]
    fn auto_picks_hybrid_for_heterogeneous_shapes() {
        // One grid2d(12) irreducible block (144 rows ≥ nd_threshold when
        // lowered) plus 60 decoupled 1x1 blocks: both shapes at once.
        let g = grid2d(12);
        let tiny = 60;
        let n = g.nrows() + tiny;
        let mut t = TripletMat::new(n, n);
        for (i, j, v) in g.iter() {
            t.push(i, j, v);
        }
        for q in g.nrows()..n {
            t.push(q, q, 3.0);
        }
        let a = t.to_csc();
        let cfg = SolverConfig::new().engine(Engine::Auto).nd_threshold(128);
        assert_eq!(cfg.resolve_engine(&a).unwrap(), Engine::Hybrid);
        // Without the small-block tail it is a plain mesh.
        assert_eq!(
            SolverConfig::new()
                .engine(Engine::Auto)
                .resolve_engine(&g)
                .unwrap(),
            Engine::Snlu
        );
    }

    #[test]
    fn engine_env_values_parse() {
        for (s, e) in [
            ("auto", Engine::Auto),
            ("Basker", Engine::Basker),
            (" klu ", Engine::Klu),
            ("SNLU", Engine::Snlu),
            ("hybrid", Engine::Hybrid),
        ] {
            assert_eq!(parse_engine(s), Some(e));
            assert_eq!(parse_engine(&e.to_string()), Some(e));
        }
        assert_eq!(parse_engine("superlu"), None);
    }

    #[test]
    fn concrete_engine_passes_through() {
        let a = grid2d(6);
        let cfg = SolverConfig::new().engine(Engine::Klu);
        assert_eq!(cfg.resolve_engine(&a).unwrap(), Engine::Klu);
    }

    #[test]
    fn auto_reports_structural_singularity() {
        let mut t = TripletMat::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 1.0);
        let a = t.to_csc();
        let e = SolverConfig::new()
            .engine(Engine::Auto)
            .resolve_engine(&a)
            .unwrap_err();
        assert!(matches!(e, SolverError::StructurallySingular { .. }));
    }
}
