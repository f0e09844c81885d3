//! Solver face-off: run all three engines through the *same* unified
//! `LinearSolver` lifecycle on one low-fill circuit matrix and one
//! high-fill mesh matrix — the crossover the paper's evaluation is
//! about, in miniature — and print the fastest numeric factorization of
//! each. On 2 vCPUs the block driver (`basker`) was the fastest on both:
//! 1.55 ms against KLU's 1.75 and snlu's 4.55 on the circuit, and 2.9 ms
//! against snlu's 7.5 and KLU's 12.1 on the mesh. It picks
//! Gilbert–Peierls or supernodal kernels per block and per ND leaf, so
//! `Engine::Auto` runs it on both.
//!
//! Run with: `cargo run --release --example solver_faceoff`

use basker_repro::prelude::*;
use std::time::Instant;

fn time_factor<F: FnMut()>(mut f: F) -> f64 {
    // best of 3
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let circuit_mat = circuit(&CircuitParams {
        nsub: 16,
        sub_size: 96,
        feedthrough: 0.3,
        ..CircuitParams::default()
    });
    let mesh_mat = mesh2d(44, 3);

    println!("| matrix | engine | numeric time | |L+U| | residual |");
    println!("|---|---|---|---|---|");
    let mut ws = SolveWorkspace::new();
    for (name, a) in [
        ("circuit (low fill)", &circuit_mat),
        ("mesh (high fill)", &mesh_mat),
    ] {
        let b: Vec<f64> = (0..a.ncols()).map(|i| 1.0 + (i % 3) as f64).collect();
        let (mut best, mut best_t) = (Engine::Auto, f64::INFINITY);

        for engine in [Engine::Klu, Engine::Basker, Engine::Snlu] {
            let cfg = SolverConfig::new().engine(engine).threads(2);
            let solver = LinearSolver::analyze(a, &cfg).expect("analyze");
            let t = time_factor(|| {
                solver.factor(a).expect("factor");
            });
            if t < best_t {
                (best, best_t) = (engine, t);
            }
            let num = solver.factor(a).expect("factor");
            let mut x = b.clone();
            num.solve_in_place(&mut x, &mut ws).expect("solve");
            println!(
                "| {name} | {engine}(2) | {:.2} ms | {} | {:.1e} |",
                t * 1e3,
                num.stats().lu_nnz,
                relative_residual(a, &x, &b)
            );
        }

        let auto = LinearSolver::analyze(a, &SolverConfig::new().threads(2)).expect("analyze");
        println!(
            "| {name} | **Auto → {}**, fastest {best} | | | |",
            auto.engine()
        );
    }
}
