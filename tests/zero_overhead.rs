//! Integration: the single-thread zero-overhead contract.
//!
//! With `BASKER_NUM_THREADS=1` the whole stack — direct factorization,
//! session-style factor/refactor sequences, and a [`SolverService`]
//! stream — must execute the pure sequential path: **zero** OS threads
//! spawned (runtime counter and, where procfs exists, the kernel's
//! view) and zero join-wait time. The single test in
//! this binary is kept alone so the env var and the process thread
//! count cannot be perturbed by a concurrent test thread.

use basker_repro::prelude::*;
use basker_sparse::spmv::spmv;

fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

fn assert_sequential(stats: &SolverStats, what: &str) {
    assert_eq!(stats.threads, 1, "{what}: ran on more than one thread");
    assert_eq!(stats.join_wait_ns, 0, "{what}: non-zero join-wait time");
}

#[test]
fn single_thread_is_pure_sequential() {
    std::env::set_var("BASKER_NUM_THREADS", "1");
    assert_eq!(basker_repro::basker::env_default_threads(), Some(1));

    let spawned_before = basker_repro::basker_runtime::os_threads_spawned();
    let os_before = os_thread_count();

    // --- factor/refactor sequence through the unified API -------------
    // No explicit .threads(): the width must come from the env default.
    let a = mesh2d(16, 7);
    let cfg = SolverConfig::new().engine(Engine::Basker).nd_threshold(32);
    let solver = LinearSolver::analyze(&a, &cfg).unwrap();
    let mut num = solver.factor(&a).unwrap();
    assert_sequential(&num.stats(), "initial factor");

    let mut ws = SolveWorkspace::for_dim(a.ncols());
    for step in 0..6 {
        // SAFETY: pattern arrays are copied from the valid matrix `a`;
        // values map 1:1.
        let a2 = unsafe {
            CscMat::from_parts_unchecked(
                a.nrows(),
                a.ncols(),
                a.colptr().to_vec(),
                a.rowind().to_vec(),
                a.values()
                    .iter()
                    .map(|v| v * (1.0 + 0.05 * step as f64) + 0.01)
                    .collect(),
            )
        };
        num.refactor(&a2).unwrap();
        let mut x = spmv(&a2, &vec![1.0; a.ncols()]);
        num.solve_in_place(&mut x, &mut ws).unwrap();
        assert_sequential(&num.stats(), "refactor step");
        let fresh = solver.factor(&a2).unwrap();
        assert_sequential(&fresh.stats(), "fresh factor");
    }

    // --- a batched refined solve big enough to deal to a team ----------
    // On a width-1 session its 8 columns stay one panel on the caller.
    let grid = powergrid(&PowergridParams {
        nfeeders: 200,
        feeder_len: 30,
        loop_prob: 0.1,
        ..PowergridParams::default()
    });
    let mut session =
        SolveSession::new(&grid, &SessionConfig::new().engine(Engine::Basker)).unwrap();
    session.step(&grid).unwrap();
    let n = grid.ncols();
    let mut xs = spmv(&grid, &vec![1.0; n]).repeat(8);
    let qs = session.solve_refined_multi(&mut xs).unwrap();
    assert!(qs.iter().all(|q| q.converged), "refined panel");
    assert_eq!(session.stats().solve_sweeps, 1, "8 columns are one panel");
    assert_sequential(&session.stats().last_factor, "refined panel");

    // --- a SolverService stream on the width-1 shared team -------------
    let seq = XyceSequence::new(&XyceSequenceParams {
        circuit: CircuitParams {
            nsub: 3,
            sub_size: 24,
            feedthrough: 0.7,
            ..CircuitParams::default()
        },
        nsteps: 5,
        switching_fraction: 0.04,
        seed: 7,
    });
    let service = SolverService::new(&ServiceConfig::new());
    let mut h = service
        .stream(
            seq.pattern(),
            &SessionConfig::new()
                .engine(Engine::Basker)
                .policy(ReusePolicy::adaptive()),
        )
        .unwrap();
    for s in 0..5 {
        let n = h.dim();
        let r = h.step_refined(&seq.matrix_at(s), vec![1.0; n]).unwrap();
        assert!(r.quality[0].residual < 1e-7, "service step residual");
    }
    let sstats = service.stats();
    assert_eq!(sstats.errors, 0);

    // --- the headline: nothing above spawned a single OS thread --------
    assert_eq!(
        basker_repro::basker_runtime::os_threads_spawned(),
        spawned_before,
        "BASKER_NUM_THREADS=1 must never spawn OS threads"
    );
    if let (Some(before), Some(after)) = (os_before, os_thread_count()) {
        assert!(
            after <= before,
            "process thread count grew at p=1: {before} -> {after}"
        );
    }
}
