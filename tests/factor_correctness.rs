//! Integration: every engine factors every workload class and solves to
//! tight residuals through the unified lifecycle.

use basker_repro::prelude::*;
use basker_sparse::spmv::spmv;

fn workloads() -> Vec<(&'static str, CscMat)> {
    vec![
        (
            "powergrid",
            powergrid(&PowergridParams {
                nfeeders: 12,
                feeder_len: 20,
                loop_prob: 0.25,
                seed: 5,
            }),
        ),
        (
            "circuit_flow",
            circuit(&CircuitParams {
                nsub: 6,
                sub_size: 40,
                feedthrough: 0.0,
                ..CircuitParams::default()
            }),
        ),
        (
            "circuit_loaded",
            circuit(&CircuitParams {
                nsub: 6,
                sub_size: 40,
                feedthrough: 1.0,
                ..CircuitParams::default()
            }),
        ),
        ("mesh2d", mesh2d(16, 9)),
        ("mesh3d", mesh3d(7, 9)),
    ]
}

fn rhs_for(a: &CscMat) -> (Vec<f64>, Vec<f64>) {
    let xtrue: Vec<f64> = (0..a.ncols())
        .map(|i| 1.0 + ((i * 7) % 13) as f64 * 0.25)
        .collect();
    let b = spmv(a, &xtrue);
    (xtrue, b)
}

fn check(cfg: &SolverConfig, name: &str, a: &CscMat, tol: f64, ws: &mut SolveWorkspace) {
    let solver = LinearSolver::analyze(a, cfg).unwrap_or_else(|e| panic!("{name}: analyze {e}"));
    let num = solver
        .factor(a)
        .unwrap_or_else(|e| panic!("{name} ({}): factor {e}", solver.engine()));
    let (_, b) = rhs_for(a);
    let mut x = b.clone();
    num.solve_in_place(&mut x, ws).unwrap();
    let r = relative_residual(a, &x, &b);
    assert!(r < tol, "{name} ({}): residual {r}", solver.engine());
}

#[test]
fn basker_all_classes_all_thread_counts() {
    let mut ws = SolveWorkspace::new();
    for (name, a) in workloads() {
        for p in [1usize, 2, 4] {
            let cfg = SolverConfig::new()
                .engine(Engine::Basker)
                .threads(p)
                .nd_threshold(64);
            check(&cfg, name, &a, 1e-10, &mut ws);
        }
    }
}

#[test]
fn klu_all_classes() {
    let mut ws = SolveWorkspace::new();
    for (name, a) in workloads() {
        check(
            &SolverConfig::new().engine(Engine::Klu),
            name,
            &a,
            1e-10,
            &mut ws,
        );
    }
}

#[test]
fn snlu_all_classes() {
    let mut ws = SolveWorkspace::new();
    for (name, a) in workloads() {
        let cfg = SolverConfig::new().engine(Engine::Snlu).threads(2);
        check(&cfg, name, &a, 1e-8, &mut ws);
    }
}

#[test]
fn auto_engine_all_classes() {
    let mut ws = SolveWorkspace::new();
    for (name, a) in workloads() {
        // Auto is the block driver at its default `nd_threshold`; the
        // supernodal engine's run over the same classes is
        // `snlu_all_classes`.
        check(
            &SolverConfig::new().engine(Engine::Auto).threads(2),
            name,
            &a,
            1e-8,
            &mut ws,
        );
    }
}

#[test]
fn table1_suite_factors_at_test_scale() {
    use basker_matgen::{mesh_suite, table1_suite};
    let mut ws = SolveWorkspace::new();
    // Table I's circuit/powergrid analogues, then Table II's meshes.
    for e in table1_suite().into_iter().chain(mesh_suite()) {
        let a = e.generate();
        let cfg = SolverConfig::new().engine(Engine::Basker).threads(2);
        check(&cfg, e.name, &a, 1e-9, &mut ws);
    }
}

/// The benchmark's `mesh_factor` matrix, `mesh2d(150)`, factored by
/// `Basker` at `T` = 2 and 4 on seeds 1 and 7: `|L+U|` and the flop
/// count are pinned. `Basker`'s pivots and patterns do not depend on
/// how its leaves, tails, panels, reductions and separators compute
/// them, so these move only with the ordering or the pivot rule. None
/// of these leaves takes a tail: a failing diagonal swaps inside its
/// supernode, and the factors keep symbolic Cholesky's pattern. At `T`
/// = 4 the inner separators carry the root's rows as their halo.
#[test]
fn mesh_factor_counts_are_pinned() {
    let pinned = [
        (
            2,
            [(1, TAIL_FREE, 112_298_821.0), (7, TAIL_FREE, 112_298_821.0)],
        ),
        (
            4,
            [(1, 1_130_506, 101_539_228.0), (7, 1_130_506, 101_539_228.0)],
        ),
    ];
    for (seed, lu_nnz, flops, nthreads) in pinned
        .into_iter()
        .flat_map(|(t, rows)| rows.map(|(seed, nnz, flops)| (seed, nnz, flops, t)))
    {
        let a = mesh2d(150, seed);
        let opts = BaskerOptions {
            nthreads,
            ..BaskerOptions::default()
        };
        let num = Basker::analyze(&a, &opts).unwrap().factor(&a).unwrap();
        assert_eq!(
            (num.stats.lu_nnz, num.stats.flops),
            (lu_nnz, flops),
            "seed {seed}, T = {nthreads}"
        );
        let (_, b) = rhs_for(&a);
        let mut y = b.clone();
        num.solve_in_place(&mut y, &mut SolveWorkspace::new());
        let r = relative_residual(&a, &y, &b);
        assert!(r < 1e-10, "seed {seed}, T = {nthreads}: residual {r:.2e}");
    }
}

/// `|L+U|` of `mesh2d(150)` at `T` = 2 when no ND leaf takes a tail:
/// symbolic Cholesky's pattern in the leaves. A tail's partial pivoting
/// moves it.
const TAIL_FREE: usize = 1_168_962;

/// `mesh2d(150)` at `T` = 2 over 16 value sets of the benchmark's
/// `mesh_factor` ring — each entry drifting smoothly by up to ±30 % —
/// on seeds 1 and 7, each set factored fresh: every factor solves to
/// 1e-10, and fewer than half fall back to a leaf tail (their `|L+U|`
/// leaves the tail-free count), from one of a leaf's last few
/// supernodes, mostly where a diagonal fails in its last column.
#[test]
fn drifting_mesh_values_mostly_factor_without_a_tail() {
    for (seed, tailed) in [(1, 4), (7, 7)] {
        let base = mesh2d(150, seed);
        let opts = BaskerOptions {
            nthreads: 2,
            ..BaskerOptions::default()
        };
        let sym = Basker::analyze(&base, &opts).unwrap();
        let mut a = base.clone();
        let mut tails = 0;
        for values in drift(&base, seed, 16) {
            a.values_mut().copy_from_slice(&values);
            let num = sym.factor(&a).unwrap();
            tails += usize::from(num.stats.lu_nnz != TAIL_FREE);
            let (_, b) = rhs_for(&a);
            let mut y = b.clone();
            num.solve_in_place(&mut y, &mut SolveWorkspace::new());
            let r = relative_residual(&a, &y, &b);
            assert!(r <= 1e-10, "seed {seed}: residual {r:.2e}");
        }
        assert_eq!(tails, tailed, "seed {seed}: factors with a tail");
    }
}

/// The benchmark's value ring for a mesh of seed `seed`: `len` value
/// sets, each entry `v·(1 + amp·(sin(freq·t + phase) − sin(phase)))` at
/// `t = 2π·k/1000`, its `amp`, `freq` and `phase` drawn by SplitMix64.
fn drift(base: &CscMat, seed: u64, len: usize) -> Vec<Vec<f64>> {
    let mut state = seed ^ 0x7a11;
    let mut uniform = |lo: f64, hi: f64| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        lo + (hi - lo) * ((z >> 11) as f64 / (1u64 << 53) as f64)
    };
    let tau = std::f64::consts::TAU;
    let traj: Vec<(f64, f64, f64)> = (0..base.nnz())
        .map(|_| (uniform(0.02, 0.15), uniform(0.5, 4.0), uniform(0.0, tau)))
        .collect();
    (0..len)
        .map(|k| {
            let t = k as f64 / 1000.0 * tau;
            (base.values().iter().zip(&traj))
                .map(|(v, (amp, freq, phase))| {
                    v * (1.0 + amp * ((freq * t + phase).sin() - phase.sin()))
                })
                .collect()
        })
        .collect()
}
