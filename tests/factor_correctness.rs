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
        // Auto pinned explicitly: the default engine honours the
        // BASKER_ENGINE override, and CI runs this suite under pinned
        // engines too.
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
