//! The per-layer ladder of the traced run.
//!
//! On the workload's own matrix the ladder calls each layer's public
//! API separately, top (router) to bottom (kernels), a few calls per
//! rung, one span per call. A metric is the median of its rung's spans;
//! a layer's `self_ms` is its rung minus the rung below on the same
//! input. Every factorization factors the same matrix (ring position
//! 0; refactorizations walk the ring) and the session rung makes a fixed
//! number of calls, so the counters do not depend on how many calls a
//! rung got and repeat exactly for a fixed seed and thread count.

use crate::fleet::{self, Fleet, ServeCounters};
use crate::inputs::{rhs, with_values, Family, Ring, Workload};
use crate::report::{solver_threads, Metrics};
use crate::run::{Options, Window};
use crate::stats;
use crate::trace::Trace;
use basker::hybrid::HybridLu;
use basker::{Basker, SyncMode};
use basker_api::{
    Engine, LinearSolver, LuNumeric, ServiceConfig, SessionConfig, SolveSession, SolverConfig,
    SolverService, SparseLuSolver,
};
use basker_klu::KluSymbolic;
use basker_ordering::btf::btf_form_with;
use basker_ordering::symbolic::symbolic_gp;
use basker_ordering::{amd_order, mwcm_bottleneck, nested_dissection};
use basker_serve::proto::{decode_request, encode_request, Request};
use basker_snlu::Snlu;
use basker_sparse::blocks::extract_range;
use basker_sparse::metrics::pattern_hash;
use basker_sparse::spmv::spmv_acc;
use basker_sparse::{CscMat, Perm, SolveWorkspace};
use std::hint::black_box;
use std::time::Instant;

/// A rung whose first call takes longer than this gets 3 calls instead
/// of 5, which keeps the traced run of the large matrices inside the
/// time cap.
const HEAVY_MS: f64 = 80.0;
/// Steady-state steps of the session rung after its first factor; the
/// `api.session.*` counters cover exactly `1 + SESSION_STEPS` steps.
const SESSION_STEPS: usize = 4;
/// Batched right-hand sides of `core.solve_multi_ms_per_rhs`.
const MULTI_RHS: usize = 8;

/// What one step of the workload asks of the solver.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// Value-only refactorization + solve (adaptive reuse).
    Refactor,
    /// Pivoting factorization + solve (`AlwaysFactor`).
    Factor,
    /// Analyze + first factor + solve.
    Cold,
}

/// The rung driver: spans into the run's trace, medians out.
struct Rungs<'a> {
    trace: &'a mut Trace,
    op: u64,
}

impl Rungs<'_> {
    /// Whether rung `name` wants another call.
    fn more(&self, name: &str) -> bool {
        let d = self.trace.durations_ms(name);
        match d.first() {
            None => true,
            Some(&first) => d.len() < if first > HEAVY_MS { 3 } else { 5 },
        }
    }

    /// One call of rung `name`.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.op += 1;
        self.trace.span(name, self.op, None, f).0
    }

    /// Calls `f` until rung `name` has its calls, one span each, and
    /// returns the last call's value.
    fn repeat<R>(&mut self, name: &'static str, mut f: impl FnMut() -> R) -> R {
        loop {
            let value = self.span(name, &mut f);
            if !self.more(name) {
                return value;
            }
        }
    }

    /// [`repeat`](Self::repeat) for a fallible call: stops at the first
    /// error, which it reports under the rung's name.
    fn try_repeat<T, E: std::fmt::Display>(
        &mut self,
        name: &'static str,
        mut f: impl FnMut() -> Result<T, E>,
    ) -> Result<T, String> {
        loop {
            let value = self
                .span(name, &mut f)
                .map_err(|e| format!("{name}: {e}"))?;
            if !self.more(name) {
                return Ok(value);
            }
        }
    }

    /// Median of rung `name` in ms (NaN if it never ran).
    fn ms(&self, name: &str) -> f64 {
        self.trace.median_ms(name).unwrap_or(f64::NAN)
    }

    /// `rung − Σ below`, in ms.
    fn self_ms(&self, rung: &str, below: &[&str]) -> f64 {
        self.trace.rung_self_ms(rung, below).unwrap_or(f64::NAN)
    }
}

/// The ladder's inputs: the workload's matrix at a few ring positions.
struct Inputs {
    family: Family,
    seed: u64,
    mats: Vec<CscMat>,
    /// `nrhs` packed right-hand sides.
    b: Vec<f64>,
    nrhs: usize,
    shape: Shape,
    /// The system lane's session configuration.
    cfg: SessionConfig,
    threads: usize,
}

impl Inputs {
    fn new(opts: &Options) -> Inputs {
        let sizes = opts.sizes();
        let (family, shape) = match opts.workload {
            Workload::CircuitTransient => (sizes.circuit, Shape::Refactor),
            Workload::MeshFactor => (sizes.mesh, Shape::Factor),
            Workload::PowergridContingency => (sizes.powergrid, Shape::Refactor),
            Workload::ColdStart => (sizes.cold[0], Shape::Cold),
            Workload::ShardFleet => (sizes.fleet, Shape::Refactor),
        };
        // The fleet's ladder climbs on its first pattern.
        let pattern_seed = if opts.workload == Workload::ShardFleet {
            fleet::pattern_seeds(opts)[0]
        } else {
            opts.pattern_seed()
        };
        let ring = Ring::generate(family, pattern_seed, opts.seed, 1 + SESSION_STEPS);
        let mats: Vec<CscMat> = ring
            .values
            .iter()
            .map(|v| with_values(&ring.base, v))
            .collect();
        Inputs {
            family,
            seed: pattern_seed,
            b: rhs(ring.base.nrows(), opts.nrhs(), opts.seed),
            mats,
            nrhs: opts.nrhs(),
            shape,
            cfg: opts.system_config(),
            threads: solver_threads(),
        }
    }

    fn a(&self) -> &CscMat {
        &self.mats[0]
    }

    fn n(&self) -> usize {
        self.a().nrows()
    }

    /// Ring position `i`, wrapping.
    fn mat(&self, i: usize) -> &CscMat {
        &self.mats[i % self.mats.len()]
    }

    /// Successive ring positions from 0, one per call.
    fn walk<'a>(&'a self) -> impl FnMut() -> &'a CscMat {
        let mut i = 0;
        move || {
            i += 1;
            self.mat(i - 1)
        }
    }

    /// The first right-hand side.
    fn b1(&self) -> &[f64] {
        &self.b[..self.n()]
    }

    /// The engine-level configuration at `threads` Basker threads.
    fn solver_config(&self, threads: usize) -> SolverConfig {
        SolverConfig::new().engine(Engine::Basker).threads(threads)
    }
}

/// GF/s of `f`, which performs `flops` per call: calls are batched
/// until a batch lasts 10 ms, and the batch is one span.
fn gflops(r: &mut Rungs, name: &'static str, flops: f64, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    f();
    let pilot = t0.elapsed().as_secs_f64().max(1e-8);
    let reps = ((0.01 / pilot) as usize).clamp(3, 1_000_000);
    r.span(name, || {
        for _ in 0..reps {
            f();
        }
    });
    flops * reps as f64 / (r.ms(name) * 1e-3) / 1e9
}

fn matgen_sparse(r: &mut Rungs, inp: &Inputs, m: &mut Metrics) {
    black_box(r.repeat("matgen.generate", || inp.family.generate(inp.seed)));
    m.set("matgen.generate_ms", r.ms("matgen.generate"));
    let a = inp.a();
    m.set("matgen.nnz", a.nnz() as f64);

    let x = inp.b1();
    let mut y = vec![0.0; inp.n()];
    r.repeat("sparse.spmv", || spmv_acc(a, x, &mut y));
    black_box(&y);
    let spmv_ms = r.ms("sparse.spmv");
    m.set("sparse.spmv_ms", spmv_ms);
    // Computed, not measured, traffic: values + row indices once, the
    // column pointers, x once, and y read and written once.
    let bytes = 16.0 * a.nnz() as f64 + 8.0 * (a.ncols() + 1) as f64 + 24.0 * inp.n() as f64;
    m.set("sparse.spmv_gbps_computed", bytes / (spmv_ms * 1e-3) / 1e9);
    black_box(r.repeat("sparse.pattern_hash", || pattern_hash(a)));
    m.set("sparse.pattern_hash_ms", r.ms("sparse.pattern_hash"));
}

/// Returns the root separator size of the largest block (the dense
/// kernels are sized by it).
fn ordering(r: &mut Rungs, inp: &Inputs, m: &mut Metrics) -> Result<usize, String> {
    let a = inp.a();
    black_box(r.repeat("ordering.matching", || mwcm_bottleneck(a)));
    m.set("ordering.matching_ms", r.ms("ordering.matching"));
    let btf = r.try_repeat("ordering.btf", || btf_form_with(a, true))?;
    m.set("ordering.btf_ms", r.ms("ordering.btf"));
    m.set("ordering.btf_blocks", btf.nblocks() as f64);
    m.set(
        "ordering.small_block_fraction",
        btf.small_block_fraction(64),
    );
    let big = (0..btf.nblocks())
        .max_by_key(|&b| btf.block_size(b))
        .expect("a non-empty matrix has a block");
    m.set("ordering.largest_block_rows", btf.block_size(big) as f64);
    let (lo, hi) = (btf.bounds[big], btf.bounds[big + 1]);
    let block = extract_range(&btf.permute(a), lo..hi, lo..hi);

    let amd: Perm = r.repeat("ordering.amd", || amd_order(&block));
    m.set("ordering.amd_ms", r.ms("ordering.amd"));
    let levels = (inp.threads.ilog2() as usize).max(1);
    let nd = r.repeat("ordering.nd", || nested_dissection(&block, levels));
    m.set("ordering.nd_ms", r.ms("ordering.nd"));
    let separator = nd.nodes[nd.root()].len();
    m.set("ordering.nd_separator_rows", separator as f64);
    let ordered = Perm::permute_both(&amd, &amd, &block);
    black_box(r.repeat("ordering.symbolic", || symbolic_gp(&ordered)));
    m.set("ordering.symbolic_ms", r.ms("ordering.symbolic"));
    Ok(separator)
}

/// The active rung's dense and indexed kernels at lengths taken from
/// the workload: vectors as long as the mean factor column, panels as
/// wide as the root separator (clamped to 16..=256).
fn kernels(r: &mut Rungs, mean_col: usize, separator: usize, m: &mut Metrics) {
    let ks = basker_kernels::active();
    let v = mean_col.max(8);
    let x: Vec<f64> = (0..v).map(|i| 0.5 + (i % 13) as f64 * 0.01).collect();
    let mut y = vec![1.0; v];
    let g = gflops(r, "kernels.axpy", 2.0 * v as f64, || {
        ks.axpy(&mut y, 1e-9, &x)
    });
    m.set("kernels.axpy_gflops", g);
    let mut sink = 0.0;
    let g = gflops(r, "kernels.dot", 2.0 * v as f64, || sink += ks.dot(&x, &y));
    m.set("kernels.dot_gflops", g);
    // Indexed forms over a strided (run-free) index list, the sparse
    // column case.
    let rows: Vec<usize> = (0..v).map(|i| 3 * i).collect();
    let mut wide = vec![1.0; 3 * v];
    let g = gflops(r, "kernels.scatter_axpy", 2.0 * v as f64, || {
        ks.scatter_axpy(&mut wide, &rows, &x, 1e-9)
    });
    m.set("kernels.scatter_axpy_gflops", g);
    let g = gflops(r, "kernels.gather_dot", 2.0 * v as f64, || {
        sink += ks.gather_dot(&wide, &rows, &x)
    });
    m.set("kernels.gather_dot_gflops", g);
    black_box(sink);

    let w = separator.clamp(16, 256);
    let k = 32.min(w);
    let pa: Vec<f64> = (0..w * k).map(|i| 1e-4 * (1 + i % 7) as f64).collect();
    let pb: Vec<f64> = (0..k * w).map(|i| 1e-4 * (1 + i % 5) as f64).collect();
    let mut pc = vec![0.0; w * w];
    let g = gflops(r, "kernels.rank_k", 2.0 * (w * w * k) as f64, || {
        ks.gemm_sub(&mut pc, w, &pa, w, &pb, k, w, w, k)
    });
    m.set("kernels.rank_k_gflops", g);
    black_box(&pc);
    let mut l = vec![0.0; w * w];
    for j in 0..w {
        for i in j + 1..w {
            l[j * w + i] = -0.01 * (1 + (i + j) % 3) as f64;
        }
    }
    let rhs0: Vec<f64> = (0..w).map(|i| 1.0 + (i % 9) as f64 * 0.125).collect();
    let mut xt = rhs0.clone();
    let g = gflops(r, "kernels.trsv", (w * (w - 1)) as f64, || {
        xt.copy_from_slice(&rhs0);
        ks.trsv_lower_unit(&mut xt, &l, w);
    });
    m.set("kernels.trsv_gflops", g);
    black_box(&xt);
}

fn runtime(r: &mut Rungs, threads: usize, m: &mut Metrics) {
    const CALLS: usize = 100;
    const JOBS: usize = 64;
    let team = basker_runtime::shared_team(threads, false);
    r.repeat("runtime.broadcast", || {
        for _ in 0..CALLS {
            black_box(team.broadcast(|ctx| ctx.rank()));
        }
    });
    m.set(
        "runtime.broadcast_us",
        r.ms("runtime.broadcast") * 1e3 / CALLS as f64,
    );
    r.repeat("runtime.worklist", || {
        for _ in 0..CALLS {
            team.run_worklist(JOBS, |j| {
                black_box(j);
            });
        }
    });
    m.set(
        "runtime.worklist_us_per_job",
        r.ms("runtime.worklist") * 1e3 / (CALLS * JOBS) as f64,
    );
}

/// Publishes `{prefix}.{name}_ms` from rung `{prefix}.{name}`.
fn publish_ms(r: &Rungs, m: &mut Metrics, prefix: &str, names: &[&str]) {
    for name in names {
        m.set(
            &format!("{prefix}.{name}_ms"),
            r.ms(&format!("{prefix}.{name}")),
        );
    }
}

fn klu(r: &mut Rungs, inp: &Inputs, m: &mut Metrics) -> Result<(), String> {
    let opts = inp.solver_config(1).klu_options();
    let sym = r.try_repeat("klu.analyze", || KluSymbolic::analyze(inp.a(), &opts))?;
    let mut num = r.try_repeat("klu.factor", || sym.factor(inp.a()))?;
    m.set("klu.lu_nnz", num.lu_nnz() as f64);
    m.set("klu.flops", num.flops());
    m.set(
        "klu.factor_gflops",
        num.flops() / (r.ms("klu.factor") * 1e-3) / 1e9,
    );
    let mut next = inp.walk();
    r.try_repeat("klu.refactor", || num.refactor(next()))?;
    let mut ws = SolveWorkspace::for_dim(inp.n());
    let mut x = inp.b1().to_vec();
    r.repeat("klu.solve", || num.solve_in_place(&mut x, &mut ws));
    publish_ms(r, m, "klu", &["analyze", "factor", "refactor", "solve"]);
    Ok(())
}

fn snlu(r: &mut Rungs, inp: &Inputs, m: &mut Metrics) -> Result<(), String> {
    let opts = inp.solver_config(inp.threads).snlu_options();
    let sym = r.try_repeat("snlu.analyze", || Snlu::analyze(inp.a(), &opts))?;
    let mut num = r.try_repeat("snlu.factor", || sym.factor(inp.a()))?;
    m.set("snlu.lu_nnz", num.lu_nnz as f64);
    m.set("snlu.perturbed_pivots", num.perturbed_pivots as f64);
    let mut next = inp.walk();
    r.try_repeat("snlu.refactor", || num.refactor(next()))?;
    let mut ws = SolveWorkspace::for_dim(inp.n());
    let mut x = inp.b1().to_vec();
    r.repeat("snlu.solve", || num.solve_in_place(&mut x, &mut ws));
    publish_ms(r, m, "snlu", &["analyze", "factor", "refactor", "solve"]);
    Ok(())
}

/// Returns the mean factor column length (the vector kernels are sized
/// by it).
fn core(r: &mut Rungs, inp: &Inputs, m: &mut Metrics) -> Result<usize, String> {
    let cfg = inp.solver_config(inp.threads);
    let opts = cfg.basker_options();
    let sym = r.try_repeat("core.analyze", || Basker::analyze(inp.a(), &opts))?;
    let mut num = r.try_repeat("core.factor", || sym.factor(inp.a()))?;
    let st = num.stats.clone();
    m.set("core.lu_nnz", st.lu_nnz as f64);
    m.set("core.flops", st.flops);
    m.set(
        "core.factor_gflops",
        st.flops / (r.ms("core.factor") * 1e-3) / 1e9,
    );
    m.set("core.sync_fraction", st.sync_fraction());
    m.set(
        "core.sync_wait_ms_max",
        st.sync_wait_ns.iter().max().copied().unwrap_or(0) as f64 / 1e6,
    );
    m.set("core.columns_assisted", st.columns_assisted as f64);
    m.set("core.tasks_joined", st.tasks_joined as f64);
    m.set("core.steal_attempts", st.steal_attempts as f64);
    m.set("core.btf_blocks", st.btf_blocks as f64);
    m.set("core.nd_blocks", st.nd_blocks as f64);

    let mut next = inp.walk();
    r.try_repeat("core.refactor", || num.refactor(next()))?;
    let mut ws = SolveWorkspace::for_dim(inp.n());
    let mut x = inp.b1().to_vec();
    r.repeat("core.solve", || num.solve_in_place(&mut x, &mut ws));
    let mut xs = rhs(inp.n(), MULTI_RHS, inp.seed);
    r.repeat("core.solve_multi", || {
        num.solve_multi_in_place(&mut xs, &mut ws)
    });
    m.set(
        "core.solve_multi_ms_per_rhs",
        r.ms("core.solve_multi") / MULTI_RHS as f64,
    );
    drop(num);

    // The same factorization on one thread, and under full barriers.
    let one = Basker::analyze(inp.a(), &inp.solver_config(1).basker_options())
        .map_err(|e| format!("basker analyze p1: {e}"))?;
    let mut num1 = r.try_repeat("core.factor_p1", || one.factor(inp.a()))?;
    r.try_repeat("core.refactor_p1", || num1.refactor(next()))?;
    drop(num1);
    let barrier = Basker::analyze(
        inp.a(),
        &cfg.clone().sync_mode(SyncMode::Barrier).basker_options(),
    )
    .map_err(|e| format!("basker analyze barrier: {e}"))?;
    r.try_repeat("core.factor_barrier", || barrier.factor(inp.a()))?;
    publish_ms(
        r,
        m,
        "core",
        &[
            "analyze",
            "factor",
            "factor_p1",
            "factor_barrier",
            "refactor",
            "refactor_p1",
            "solve",
        ],
    );
    m.set(
        "core.self_speedup",
        r.ms("core.factor_p1") / r.ms("core.factor"),
    );

    let hybrid = HybridLu::analyze(inp.a(), &cfg.hybrid_options())
        .map_err(|e| format!("hybrid analyze: {e}"))?;
    let mut hnum = r.try_repeat("core.hybrid.factor", || hybrid.factor(inp.a()))?;
    let (gp, sn, nd) = hnum.stats.strategy_counts();
    m.set("core.hybrid.gp_blocks", gp as f64);
    m.set("core.hybrid.sn_blocks", sn as f64);
    m.set("core.hybrid.nd_blocks", nd as f64);
    r.try_repeat("core.hybrid.refactor", || hnum.refactor(next()))?;
    publish_ms(r, m, "core.hybrid", &["factor", "refactor"]);
    Ok(st.lu_nnz / (2 * inp.n()).max(1))
}

/// Rung names of one solver lifecycle: analyze, factor, refactor, solve.
type Lifecycle = [&'static str; 4];

const API_SOLVER: Lifecycle = [
    "api.solver.analyze",
    "api.solver.factor",
    "api.solver.refactor",
    "api.solver.solve",
];
/// The engine `LinearSolver` resolves to, driven through its own
/// `SparseLuSolver` impl with the same configuration: the rung below
/// `api.solver`. Unpublished — the published engine rungs run at `T`
/// threads, which is not the system's configuration on `shard_fleet`.
const ENGINE: Lifecycle = [
    "ladder.engine.analyze",
    "ladder.engine.factor",
    "ladder.engine.refactor",
    "ladder.engine.solve",
];

/// The rungs one step is made of at a given layer, by shape.
fn step_parts(shape: Shape, [analyze, factor, refactor, solve]: Lifecycle) -> Vec<&'static str> {
    match shape {
        Shape::Refactor => vec![refactor, solve],
        Shape::Factor => vec![factor, solve],
        Shape::Cold => vec![analyze, factor, solve],
    }
}

/// `LinearSolver` and the engine `E` it resolves to, through the same
/// lifecycle on the same inputs, call by call in turns: both see the
/// same allocator and cache state, so the difference of their medians
/// is the adapter's own cost and not an order effect.
fn lifecycle_pair<E: SparseLuSolver>(r: &mut Rungs, inp: &Inputs) -> Result<(), String> {
    let cfg = inp.cfg.solver_config();
    let err = |e: basker_api::SolverError| format!("api.solver: {e}");
    let (mut api, mut engine) = (None, None);
    while r.more(API_SOLVER[0]) {
        api = Some(r.span(API_SOLVER[0], || LinearSolver::analyze(inp.a(), cfg)));
        engine = Some(r.span(ENGINE[0], || E::analyze(inp.a(), cfg)));
    }
    let api = api.expect("a rung runs at least once").map_err(err)?;
    let engine = engine.expect("a rung runs at least once").map_err(err)?;
    let (mut api_num, mut engine_num) = (None, None);
    let mut i = 0;
    while r.more(API_SOLVER[1]) {
        api_num = Some(r.span(API_SOLVER[1], || api.factor(inp.a())));
        engine_num = Some(r.span(ENGINE[1], || engine.factor(inp.a())));
    }
    let mut api_num = api_num.expect("a rung runs at least once").map_err(err)?;
    let mut engine_num = engine_num
        .expect("a rung runs at least once")
        .map_err(err)?;
    while r.more(API_SOLVER[2]) {
        r.span(API_SOLVER[2], || api_num.refactor(inp.mat(i)))
            .map_err(err)?;
        r.span(ENGINE[2], || engine_num.refactor(inp.mat(i)))
            .map_err(err)?;
        i += 1;
    }
    let mut ws = SolveWorkspace::for_dim(inp.n());
    let mut x = inp.b1().to_vec();
    while r.more(API_SOLVER[3]) {
        x.copy_from_slice(inp.b1());
        r.span(API_SOLVER[3], || api_num.solve_in_place(&mut x, &mut ws))
            .map_err(err)?;
        x.copy_from_slice(inp.b1());
        r.span(ENGINE[3], || engine_num.solve_in_place(&mut x, &mut ws))
            .map_err(err)?;
    }
    Ok(())
}

fn api_solver(r: &mut Rungs, inp: &Inputs, m: &mut Metrics) -> Result<(), String> {
    let engine = inp
        .cfg
        .solver_config()
        .resolve_engine(inp.a())
        .map_err(|e| format!("resolve engine: {e}"))?;
    match engine {
        Engine::Klu => lifecycle_pair::<KluSymbolic>(r, inp)?,
        Engine::Basker => lifecycle_pair::<Basker>(r, inp)?,
        Engine::Snlu => lifecycle_pair::<Snlu>(r, inp)?,
        Engine::Hybrid => lifecycle_pair::<HybridLu>(r, inp)?,
        Engine::Auto => unreachable!("resolve_engine returns a concrete engine"),
    };
    for (metric, rung) in [
        "api.solver.analyze_ms",
        "api.solver.factor_ms",
        "api.solver.refactor_ms",
        "api.solver.solve_ms",
    ]
    .into_iter()
    .zip(API_SOLVER)
    {
        m.set(metric, r.ms(rung));
    }
    // One step's worth of solver calls minus the same calls on the
    // engine: what the type-erased `LinearSolver` adds.
    let total = |names: Vec<&str>| names.iter().map(|n| r.ms(n)).sum::<f64>();
    m.set(
        "api.solver.self_ms",
        total(step_parts(inp.shape, API_SOLVER)) - total(step_parts(inp.shape, ENGINE)),
    );
    Ok(())
}

/// The refined solve of every packed right-hand side in `x`.
fn refined_solve(session: &mut SolveSession, x: &mut [f64]) -> Result<(), basker_api::SolverError> {
    if x.len() == session.dim() {
        session.solve_refined(x).map(|_| ())
    } else {
        session.solve_refined_multi(x).map(|_| ())
    }
}

/// Drives sessions under `cfg` through the workload's step shape: one
/// span `op_name` per step (per fresh session for `Shape::Cold`), its
/// refined solve a child span `solve_name`. The call count is fixed, so
/// the returned counters — summed over the sessions used — repeat.
fn session_rung(
    r: &mut Rungs,
    inp: &Inputs,
    cfg: &SessionConfig,
    op_name: &'static str,
    solve_name: &'static str,
) -> Result<basker_api::SessionStats, String> {
    let err = |e: basker_api::SolverError| format!("{op_name}: {e}");
    let mut x = inp.b.clone();
    let mut total = basker_api::SessionStats::default();
    let mut add = |s: &basker_api::SessionStats| {
        total.steps += s.steps;
        total.factors += s.factors;
        total.refactors += s.refactors;
        total.repivot_fallbacks += s.repivot_fallbacks;
        total.quality_repivots += s.quality_repivots;
        total.refine_iterations += s.refine_iterations;
        total.routing_probes += s.routing_probes;
        total.worst_residual = total.worst_residual.max(s.worst_residual);
    };
    let mut shared = match inp.shape {
        Shape::Cold => None,
        _ => {
            // Analyze and first factor happen before the timed steps.
            let mut s = SolveSession::new(inp.a(), cfg).map_err(err)?;
            s.step(inp.a()).map_err(err)?;
            refined_solve(&mut s, &mut x).map_err(err)?;
            Some(s)
        }
    };
    for i in 1..=SESSION_STEPS {
        x.copy_from_slice(&inp.b);
        r.op += 1;
        let id = r.trace.open(op_name, r.op, None);
        let mut fresh = None;
        let session = match shared.as_mut() {
            Some(s) => {
                s.step(inp.mat(i)).map_err(err)?;
                s
            }
            None => {
                let s = fresh.insert(SolveSession::new(inp.a(), cfg).map_err(err)?);
                s.step(inp.a()).map_err(err)?;
                s
            }
        };
        r.trace
            .span(solve_name, r.op, id, || refined_solve(session, &mut x))
            .0
            .map_err(err)?;
        r.trace.close(id);
        if let Some(s) = &fresh {
            add(s.stats());
        }
    }
    if let Some(s) = &shared {
        add(s.stats());
    }
    Ok(total)
}

fn api_session(r: &mut Rungs, inp: &Inputs, m: &mut Metrics) -> Result<(), String> {
    let st = session_rung(
        r,
        inp,
        &inp.cfg,
        "api.session.op",
        "api.session.solve_refined",
    )?;
    m.set("api.session.step_ms_p50", r.ms("api.session.op"));
    m.set(
        "api.session.solve_refined_ms_p50",
        r.ms("api.session.solve_refined"),
    );
    // The step minus the solver calls it is made of: what the session
    // adds (retain + norm, quality gates, residuals and extra sweeps).
    let mut below = step_parts(inp.shape, API_SOLVER);
    for _ in 1..inp.nrhs {
        below.push(API_SOLVER[3]);
    }
    m.set("api.session.self_ms", r.self_ms("api.session.op", &below));
    m.set("api.session.factors", st.factors as f64);
    m.set("api.session.refactors", st.refactors as f64);
    m.set("api.session.repivot_fallbacks", st.repivot_fallbacks as f64);
    m.set("api.session.quality_repivots", st.quality_repivots as f64);
    m.set("api.session.refine_iterations", st.refine_iterations as f64);
    m.set("api.session.routing_probes", st.routing_probes as f64);
    m.set("api.session.worst_residual", st.worst_residual);
    Ok(())
}

/// The in-process service: single-stream synchronous steps for the
/// ladder subtraction, then `2·T` concurrent streams against the same
/// steps through plain serial sessions.
fn api_service(r: &mut Rungs, inp: &Inputs, m: &mut Metrics) -> Result<(), String> {
    // A service runs each stream's engine serially; the rung below it
    // is therefore the session at one thread.
    let serial_cfg = inp.cfg.clone().threads(1);
    session_rung(
        r,
        inp,
        &serial_cfg,
        "ladder.session_p1.op",
        "ladder.session_p1.solve_refined",
    )?;
    // Enough streams to queue behind the team's ranks, unless one step
    // is so long that the time cap allows only one stream per rank.
    let (rounds, nstreams) = if r.ms("ladder.session_p1.op") > HEAVY_MS {
        (2, inp.threads)
    } else {
        (5, 2 * inp.threads)
    };
    let err = |e: basker_api::SolverError| format!("service: {e}");

    let service = SolverService::new(&ServiceConfig::new().threads(inp.threads));
    let mut streams = Vec::with_capacity(nstreams);
    for _ in 0..nstreams {
        let mut h = service.stream(inp.a(), &inp.cfg).map_err(err)?;
        h.step_refined(inp.a(), inp.b.clone()).map_err(err)?;
        streams.push(h);
    }
    let mut latencies = Vec::with_capacity(nstreams * rounds);
    let t0 = Instant::now();
    for round in 1..=rounds {
        let mut tickets = Vec::with_capacity(nstreams);
        for h in &mut streams {
            let sent = Instant::now();
            tickets.push((
                sent,
                h.submit_refined(inp.mat(round), inp.b.clone())
                    .map_err(err)?,
            ));
        }
        for (sent, ticket) in tickets {
            ticket.wait().map_err(err)?;
            latencies.push(sent.elapsed().as_secs_f64() * 1e3);
        }
    }
    let service_s = t0.elapsed().as_secs_f64();
    let st = service.stats();
    m.set(
        "api.service.step_ms_p50",
        stats::percentile(&latencies, 0.50).unwrap_or(f64::NAN),
    );
    m.set(
        "api.service.step_ms_p95",
        stats::percentile(&latencies, 0.95).unwrap_or(f64::NAN),
    );
    m.set("api.service.occupancy", st.occupancy);
    m.set("api.service.batches", st.batches as f64);
    m.set("api.service.max_queue_depth", st.max_queue_depth as f64);
    m.set("api.service.columns_assisted", st.columns_assisted as f64);
    m.set("api.service.steal_attempts", st.steal_attempts as f64);

    // Single-stream, synchronous: nothing to overlap with, so the op
    // is the serial session's op plus what the service adds. A cold op
    // opens its stream inside the span, as the session rung analyzes
    // inside its own.
    let mut i = rounds;
    while r.more("ladder.service_single.step") {
        i += 1;
        r.span("ladder.service_single.step", || {
            if inp.shape == Shape::Cold {
                let mut fresh = service.stream(inp.a(), &inp.cfg)?;
                fresh.step_refined(inp.a(), inp.b.clone())
            } else {
                streams[0].step_refined(inp.mat(i), inp.b.clone())
            }
        })
        .map_err(err)?;
    }
    drop(streams);
    drop(service);
    m.set(
        "api.service.self_ms",
        r.self_ms("ladder.service_single.step", &["ladder.session_p1.op"]),
    );

    // The same streams and steps, one after another, no service.
    let mut sessions = Vec::with_capacity(nstreams);
    let mut x = inp.b.clone();
    for _ in 0..nstreams {
        let mut s = SolveSession::new(inp.a(), &serial_cfg).map_err(err)?;
        s.step(inp.a()).map_err(err)?;
        x.copy_from_slice(&inp.b);
        refined_solve(&mut s, &mut x).map_err(err)?;
        sessions.push(s);
    }
    let t0 = Instant::now();
    for round in 1..=rounds {
        for s in &mut sessions {
            x.copy_from_slice(&inp.b);
            s.step(inp.mat(round)).map_err(err)?;
            refined_solve(s, &mut x).map_err(err)?;
        }
    }
    let serial_s = t0.elapsed().as_secs_f64();
    m.set("api.service.vs_serial_loop", serial_s / service_s);
    Ok(())
}

/// The wire: codec cost of one `Step` frame, then a one-shard fleet
/// stepped directly and through the router.
fn serve(
    r: &mut Rungs,
    opts: &Options,
    inp: &Inputs,
    window: &Window,
    m: &mut Metrics,
) -> Result<(), String> {
    let request = |stream: u64, i: usize| Request::Step {
        stream,
        refined: true,
        values: inp.mat(i).values().to_vec(),
        rhs: inp.b.clone(),
    };
    let req = request(1, 0);
    let mut frame = None;
    while r.more("serve.proto.encode_step") {
        frame = Some(r.span("serve.proto.encode_step", || encode_request(&req)));
    }
    let (kind, payload) = frame.expect("a rung runs at least once");
    while r.more("serve.proto.decode_step") {
        black_box(r.span("serve.proto.decode_step", || decode_request(kind, &payload)))
            .map_err(|e| format!("decode step: {e}"))?;
    }
    m.set(
        "serve.proto.encode_step_us",
        r.ms("serve.proto.encode_step") * 1e3,
    );
    m.set(
        "serve.proto.decode_step_us",
        r.ms("serve.proto.decode_step") * 1e3,
    );
    // "BSK1" | kind u8 | req_id u64 | len u32 | payload
    m.set("serve.proto.step_frame_bytes", (17 + payload.len()) as f64);

    let shardd = fleet::ensure_shardd()?;
    let mini = Fleet::spawn(&shardd, 1, fleet::shard_threads(), "ladder")?;
    let open = fleet::open_request(opts, inp.a());
    let mut requests = 0u64;
    let mut responses = 0u64;

    let mut direct = fleet::connect(&mini.shard_addr(0))?;
    for _ in 0..50 {
        requests += 1;
        r.span("serve.ping", || direct.ping())
            .map_err(|e| format!("ping: {e}"))?;
        responses += 1;
    }
    m.set("serve.ping_us_p50", r.ms("serve.ping") * 1e3);

    // The same op on the shard itself and through the router, in turns.
    // A cold op opens its stream inside the span.
    let mut routed = fleet::connect(&mini.router_addr())?;
    let mut lanes = [
        (&mut direct, "serve.shard.step", 0u64),
        (&mut routed, "serve.router.step", 0u64),
    ];
    if inp.shape != Shape::Cold {
        for (client, name, id) in &mut lanes {
            requests += 2;
            *id = client
                .open_stream(&open)
                .map_err(|e| format!("{name}: open: {e}"))?
                .0;
            client
                .request(&request(*id, 0))
                .map_err(|e| format!("{name}: first step: {e}"))?;
            responses += 2;
        }
    }
    let mut i = 0;
    while r.more("serve.router.step") {
        i += 1;
        for (client, name, id) in &mut lanes {
            requests += 1;
            let resp = r
                .span(name, || {
                    if inp.shape == Shape::Cold {
                        let (fresh, _) = client.open_stream(&open)?;
                        client.request(&request(fresh, 0))
                    } else {
                        client.request(&request(*id, i))
                    }
                })
                .map_err(|e| format!("{name}: {e}"))?;
            basker_serve::client::step_reply(resp).map_err(|e| format!("{name}: {e}"))?;
            responses += 1;
        }
    }
    while r.more("serve.open") {
        requests += 1;
        r.span("serve.open", || routed.open_stream(&open))
            .map_err(|e| format!("open: {e}"))?;
        responses += 1;
    }
    m.set("serve.open_ms_p50", r.ms("serve.open"));
    m.set("serve.shard.step_ms_p50", r.ms("serve.shard.step"));
    m.set("serve.router.step_ms_p50", r.ms("serve.router.step"));
    m.set(
        "serve.shard.self_ms",
        r.self_ms("serve.shard.step", &["ladder.service_single.step"]),
    );
    m.set(
        "serve.router.self_ms",
        r.self_ms("serve.router.step", &["serve.shard.step"]),
    );
    let mini_counters = ServeCounters::from_stats(&mini.stats()?, requests - responses);
    drop((direct, routed));
    drop(mini);

    // The fleet workload reports its own window's fleet; the others the
    // ladder's one-shard fleet.
    let c = window.serve.as_ref().unwrap_or(&mini_counters);
    m.set("serve.shard.occupancy", c.shard_occupancy);
    m.set("serve.respawns", c.respawns as f64);
    m.set("serve.reopens", c.reopens as f64);
    m.set("serve.failovers", c.failovers as f64);
    m.set("serve.tickets_lost", c.tickets_lost as f64);
    m.set("serve.shard_steps_min_over_max", c.shard_steps_min_over_max);
    Ok(())
}

/// Runs the ladder and assembles the per-layer metrics of a traced run.
pub fn per_layer(opts: &Options, window: &Window, trace: &mut Trace) -> Result<Metrics, String> {
    let inp = Inputs::new(opts);
    let mut m = Metrics::new();
    let window_spans = trace.spans().len();

    m.set(
        "client.step_ms_p95",
        stats::percentile(&window.step_ms, 0.95).unwrap_or(f64::NAN),
    );
    m.set(
        "client.step_ms_p99",
        stats::percentile(&window.step_ms, 0.99).unwrap_or(f64::NAN),
    );
    m.set(
        "client.step_ms_max",
        stats::percentile(&window.step_ms, 1.0).unwrap_or(f64::NAN),
    );
    m.set("client.klu_steps_per_s", window.klu_steps_per_s);
    // The spans one window step records under its op span: `step` and
    // `solve_refined` (and `new` on a cold op); a fleet step is the op
    // span alone.
    let child_spans = match opts.workload {
        Workload::ShardFleet => 0,
        Workload::ColdStart => 3,
        _ => 2,
    };
    m.set("trace.overhead_pct", window.trace_overhead_pct(child_spans));
    m.set(
        "runtime.os_threads_spawned",
        window.os_threads_spawned as f64,
    );

    let mut r = Rungs {
        trace,
        // Ladder ops are numbered past any window op.
        op: 1 << 48,
    };
    matgen_sparse(&mut r, &inp, &mut m);
    let separator = ordering(&mut r, &inp, &mut m)?;
    klu(&mut r, &inp, &mut m)?;
    snlu(&mut r, &inp, &mut m)?;
    let mean_col = core(&mut r, &inp, &mut m)?;
    kernels(&mut r, mean_col, separator, &mut m);
    runtime(&mut r, inp.threads, &mut m);
    api_solver(&mut r, &inp, &mut m)?;
    api_session(&mut r, &inp, &mut m)?;
    api_service(&mut r, &inp, &mut m)?;
    serve(&mut r, opts, &inp, window, &mut m)?;

    // Spans of the traced window only; the ladder's are its own.
    m.set("trace.spans", window_spans as f64);
    Ok(m)
}
