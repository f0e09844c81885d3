//! Transient circuit simulation (the paper's §V-F motivation): a SPICE
//! style time-stepping loop generates a long sequence of matrices with
//! the same structure but different values. A `SolveSession` owns the
//! whole lifecycle — symbolic reuse, the value-only refactorization fast
//! path, the fall back to fresh pivoting when quality degrades, and
//! iterative refinement on every solve — so the loop body is two calls
//! and the steady state allocates nothing per step.
//!
//! Run with: `cargo run --release --example circuit_transient [steps]`

use basker_repro::prelude::*;
use std::time::Instant;

fn main() {
    let steps: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100);

    // A moderately sized circuit with switching devices.
    let seq = XyceSequence::new(&XyceSequenceParams {
        circuit: CircuitParams {
            nsub: 8,
            sub_size: 80,
            feedthrough: 0.7,
            ..CircuitParams::default()
        },
        nsteps: steps,
        switching_fraction: 0.05,
        seed: 2024,
    });
    let a0 = seq.pattern().clone();
    println!(
        "transient run: {} steps, n = {}, |A| = {}",
        steps,
        a0.nrows(),
        a0.nnz()
    );

    let cfg = SessionConfig::new()
        .engine(Engine::Auto)
        .threads(2)
        .policy(ReusePolicy::adaptive())
        .target_residual(1e-10);
    let mut session = SolveSession::new(&a0, &cfg).expect("analyze");
    println!("Engine::Auto runs `{}`", session.engine());

    // The "simulation": each step refreshes the Jacobian and solves.
    // The session decides factor vs refactor vs re-pivot; each solve is
    // refined to the residual target.
    let t0 = Instant::now();
    let b = vec![1e-3; a0.ncols()];
    let mut x = vec![0.0; a0.ncols()];
    for s in 0..steps {
        let m = seq.matrix_at(s);
        session.step(&m).expect("step");
        x.copy_from_slice(&b);
        session.solve_refined(&mut x).expect("solve");
    }
    let total = t0.elapsed().as_secs_f64();

    let st = session.stats();
    println!(
        "{} fast refactors + {} scheduled factors + {} fallback/gate \
         re-pivots in {:.2}s ({:.2} ms/step, {} refinement sweeps)",
        st.refactors,
        st.factors - st.repivot_fallbacks - st.quality_repivots,
        st.repivot_fallbacks + st.quality_repivots,
        total,
        1e3 * total / steps as f64,
        st.refine_iterations,
    );
    println!(
        "worst relative residual over the run: {:.2e}",
        st.worst_residual
    );
    assert!(
        st.worst_residual < 1e-8,
        "losing accuracy across the sequence"
    );
    println!("ok");
}
