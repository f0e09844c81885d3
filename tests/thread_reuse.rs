//! Integration: the persistent worker team really reuses its threads.
//!
//! After a warm-up factorization at a given width, repeated
//! `factor`/`refactor`/`solve` calls must create **zero** new OS threads
//! — measured two ways: the runtime's own spawn counter
//! ([`basker_runtime::os_threads_spawned`]) and the kernel's view via
//! `/proc/self/status` `Threads:` (skipped on targets without procfs).
//! The single test in this binary is kept alone so no concurrent test
//! thread can perturb the process thread count in the measurement
//! window.

use basker_repro::prelude::*;
use basker_sparse::spmv::spmv;

/// Kernel-reported thread count of this process, if procfs is available.
fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

#[test]
fn warm_team_spawns_no_new_threads() {
    let a = mesh2d(16, 7);
    let scaled = |f: f64| {
        // SAFETY: pattern arrays are copied from the valid matrix `a`;
        // values map 1:1.
        unsafe {
            CscMat::from_parts_unchecked(
                a.nrows(),
                a.ncols(),
                a.colptr().to_vec(),
                a.rowind().to_vec(),
                a.values().iter().map(|v| v * f + 0.01).collect(),
            )
        }
    };

    // Warm-up: bring up the teams every later call will reuse (Basker at
    // 4 and 2 threads exercises both widths the loop below touches; the
    // supernodal engine's level sets run on the width-2 team).
    let cfg4 = SolverConfig::new()
        .engine(Engine::Basker)
        .threads(4)
        .nd_threshold(32);
    let cfg2 = SolverConfig::new()
        .engine(Engine::Basker)
        .threads(2)
        .nd_threshold(32);
    let cfg_sn = SolverConfig::new().engine(Engine::Snlu).threads(2);
    let solver4 = LinearSolver::analyze(&a, &cfg4).unwrap();
    let solver2 = LinearSolver::analyze(&a, &cfg2).unwrap();
    let solver_sn = LinearSolver::analyze(&a, &cfg_sn).unwrap();
    let mut num = solver4.factor(&a).unwrap();
    let _ = solver2.factor(&a).unwrap();
    let mut sn = solver_sn.factor(&a).unwrap();

    let spawned_before = basker_repro::basker_runtime::os_threads_spawned();
    let os_before = os_thread_count();

    // The transient-simulation hot loop: value-only refactors, fresh
    // factors, analyze-from-scratch, and solves — all on warm teams.
    let mut ws = SolveWorkspace::for_dim(a.ncols());
    for step in 0..10 {
        let a2 = scaled(1.0 + 0.05 * step as f64);
        num.refactor(&a2).unwrap();
        let mut x = spmv(&a2, &vec![1.0; a.ncols()]);
        num.solve_in_place(&mut x, &mut ws).unwrap();
        let fresh = solver4.factor(&a2).unwrap();
        assert!(fresh.stats().lu_nnz > 0);
        let re = LinearSolver::analyze(&a2, &cfg2).unwrap();
        let n2 = re.factor(&a2).unwrap();
        assert!(n2.stats().lu_nnz > 0);
        sn.refactor(&a2).unwrap();
        let mut y = spmv(&a2, &vec![1.0; a.ncols()]);
        sn.solve_in_place(&mut y, &mut ws).unwrap();
        assert!(solver_sn.factor(&a2).unwrap().stats().lu_nnz > 0);
    }

    assert_eq!(
        basker_repro::basker_runtime::os_threads_spawned(),
        spawned_before,
        "runtime spawned new OS threads after warm-up"
    );
    if let (Some(before), Some(after)) = (os_before, os_thread_count()) {
        assert!(
            after <= before,
            "process thread count grew after warm-up: {before} -> {after}"
        );
    }

    // The per-rank wait stats surface through the unified API: one entry
    // per worker rank of the team.
    let stats = solver4.factor(&a).unwrap().stats();
    assert_eq!(stats.threads, 4);
    assert_eq!(stats.sync_wait_ns.len(), 4);
}
