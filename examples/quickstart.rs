//! Quickstart: assemble a small circuit matrix, drive it through the
//! unified `LinearSolver` lifecycle, and inspect what the solver chose.
//!
//! Run with: `cargo run --release --example quickstart`

use basker_repro::prelude::*;

fn main() {
    // --- assemble a tiny MNA system by stamping devices ---------------
    // Nodes 0..5: a resistor ladder with one controlled source, the kind
    // of pattern SPICE produces.
    let n = 6;
    let mut t = TripletMat::new(n, n);
    let resistor = |t: &mut TripletMat, a: usize, b: usize, g: f64| {
        t.push(a, a, g);
        t.push(b, b, g);
        t.push(a, b, -g);
        t.push(b, a, -g);
    };
    for i in 0..n {
        t.push(i, i, 0.5); // ground leak
    }
    resistor(&mut t, 0, 1, 2.0);
    resistor(&mut t, 1, 2, 1.0);
    resistor(&mut t, 2, 3, 3.0);
    resistor(&mut t, 3, 4, 1.5);
    resistor(&mut t, 4, 5, 2.5);
    // a VCCS makes the matrix unsymmetric
    t.push(5, 0, 0.7);
    let a = t.to_csc();
    println!("A: {} x {}, {} nonzeros", a.nrows(), a.ncols(), a.nnz());

    // --- one lifecycle, any engine: analyze once, factor, solve -------
    let cfg = SolverConfig::new().engine(Engine::Auto).threads(2);
    let solver = LinearSolver::analyze(&a, &cfg).expect("analyze");
    println!("Engine::Auto runs the `{}` engine", solver.engine());

    let num = solver.factor(&a).expect("factor");
    let stats = num.stats();
    println!(
        "factored: |L+U| = {}, {:.0} flops, {} BTF block(s), {} thread(s)",
        stats.lu_nnz, stats.flops, stats.btf_blocks, stats.threads
    );

    // Repeated solves reuse one workspace: zero allocation per call.
    let mut ws = SolveWorkspace::for_dim(n);
    let b = vec![1.0, 0.0, 0.0, 0.0, 0.0, -1.0]; // inject 1A at node 0, draw at node 5
    let mut x = b.clone();
    num.solve_in_place(&mut x, &mut ws).expect("solve");
    println!("node voltages: {x:?}");
    let resid = relative_residual(&a, &x, &b);
    println!("relative residual: {resid:.2e}");
    assert!(resid < 1e-12);

    // --- values change (new operating point): open a session ----------
    // For a *stream* of same-pattern matrices, `SolveSession` owns the
    // factor/refactor lifecycle: its policy takes the value-only fast
    // path here and would re-pivot on its own if a pivot collapsed.
    // SAFETY: pattern arrays are copied from the valid matrix `a`; values
    // map 1:1.
    let a2 = unsafe {
        CscMat::from_parts_unchecked(
            a.nrows(),
            a.ncols(),
            a.colptr().to_vec(),
            a.rowind().to_vec(),
            a.values().iter().map(|v| v * 1.3).collect(),
        )
    };
    let mut session = SolveSession::new(&a, &SessionConfig::new().threads(2)).expect("analyze");
    session.step(&a).expect("factor");
    session.step(&a2).expect("refactor");
    println!(
        "session states: {} refactor(s), {} fresh factor(s)",
        session.stats().refactors,
        session.stats().factors
    );
    let mut x2 = b.clone();
    let quality = session.solve_refined(&mut x2).expect("solve");
    println!("after refactor, node 0 voltage: {:.4}", x2[0]);
    assert!(quality.converged && quality.residual < 1e-12);
    println!("ok");
}
