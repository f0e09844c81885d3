//! Integration: the Xyce-style matrix sequence — symbolic reuse,
//! refactorization, pivot-collapse fallback — stays accurate end to end,
//! driven for every engine through the `SolveSession` lifecycle: the
//! session's policy makes every factor/refactor/fallback decision, the
//! test only steps and solves.

use basker_repro::prelude::*;

fn sequence(steps: usize) -> XyceSequence {
    XyceSequence::new(&XyceSequenceParams {
        circuit: CircuitParams {
            nsub: 4,
            sub_size: 36,
            feedthrough: 0.6,
            ..CircuitParams::default()
        },
        nsteps: steps,
        switching_fraction: 0.08,
        seed: 31,
    })
}

/// The transient loop every engine must sustain, now two calls per step:
/// the session refactors, falls back to pivoting when needed, and
/// refines each solve to the tolerance.
fn track_sequence(engine: Engine, steps: usize, tol: f64) {
    let seq = sequence(steps);
    let a0 = seq.pattern().clone();
    let cfg = SessionConfig::new()
        .engine(engine)
        .threads(2)
        .policy(ReusePolicy::adaptive())
        .target_residual(tol);
    let mut session = SolveSession::new(&a0, &cfg).unwrap();
    let b = vec![1.0; a0.ncols()];
    let mut x = vec![0.0; a0.ncols()];
    for s in 0..steps {
        let m = seq.matrix_at(s);
        session.step(&m).unwrap();
        x.copy_from_slice(&b);
        let q = session.solve_refined(&mut x).unwrap();
        assert!(
            q.residual < tol * 10.0,
            "{engine} step {s}: residual {} (initial {})",
            q.residual,
            q.initial_residual
        );
    }
    let st = session.stats();
    assert_eq!(st.steps, steps, "{engine}");
    assert_eq!(
        st.factors + st.refactors,
        steps,
        "{engine}: every step must leave usable factors"
    );
    assert!(st.worst_residual < tol * 10.0, "{engine}");
}

#[test]
fn basker_tracks_sequence_with_refactor_and_fallback() {
    track_sequence(Engine::Basker, 40, 1e-9);
}

#[test]
fn klu_tracks_sequence() {
    track_sequence(Engine::Klu, 40, 1e-9);
}

#[test]
fn snlu_tracks_sequence_with_static_pivoting() {
    // Static pivoting + refinement: looser tolerance, but the refactor
    // path never needs the singular-pivot fallback.
    track_sequence(Engine::Snlu, 25, 1e-6);
}

/// `Auto` is the block driver; the supernodal engine's run over this
/// sequence is `snlu_tracks_sequence_with_static_pivoting`.
#[test]
fn auto_tracks_sequence() {
    track_sequence(Engine::Auto, 25, 1e-6);
}

#[test]
fn refactor_and_fresh_factor_agree_when_pivots_stable() {
    // gentle value scaling keeps the pivot sequence valid: a session
    // step that refactors and a fresh factorization must then produce
    // identical solutions.
    let seq = sequence(10);
    let a0 = seq.pattern().clone();
    // SAFETY: pattern arrays are copied from the valid matrix `a0`; values
    // map 1:1.
    let gentle = unsafe {
        CscMat::from_parts_unchecked(
            a0.nrows(),
            a0.ncols(),
            a0.colptr().to_vec(),
            a0.rowind().to_vec(),
            a0.values().iter().map(|v| v * 1.01).collect(),
        )
    };
    let cfg = SessionConfig::new()
        .engine(Engine::Basker)
        .policy(ReusePolicy::AlwaysRefactor);
    let mut session = SolveSession::new(&a0, &cfg).unwrap();
    session.step(&a0).unwrap();
    assert_eq!(session.step(&gentle).unwrap(), SessionState::Refactored);

    let solver = LinearSolver::analyze(&a0, &SolverConfig::new().engine(Engine::Basker)).unwrap();
    let fresh = solver.factor(&gentle).unwrap();

    let b = vec![1.0; a0.ncols()];
    let mut xr = b.clone();
    session.solve(&mut xr).unwrap();
    let mut xf = b.clone();
    fresh
        .solve_in_place(&mut xf, &mut SolveWorkspace::new())
        .unwrap();
    for (a, b) in xr.iter().zip(xf.iter()) {
        assert!((a - b).abs() < 1e-9, "refactor {a} vs fresh {b}");
    }
}
