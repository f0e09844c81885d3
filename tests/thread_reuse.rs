//! Integration: the persistent worker team really reuses its threads.
//!
//! After a warm-up factorization at a given width, repeated
//! `factor`/`refactor`/`solve` calls must create **zero** new OS threads
//! — measured two ways: the runtime's own spawn counter
//! ([`basker_runtime::os_threads_spawned`]) and the kernel's view via
//! `/proc/self/status` `Threads:` (skipped on targets without procfs).
//! The tests in this binary take turns (`ALONE`) so no concurrent test
//! thread can perturb the process thread count in a measurement window.
//! Analyze runs on the team as well: warm analyzes spawn nothing, and
//! one called from inside a team job runs inline, as does a factor.

use basker_repro::basker_runtime::{os_threads_spawned, shared_team};
use basker_repro::prelude::*;
use basker_sparse::spmv::spmv;
use std::sync::{Mutex, PoisonError};

/// Held by each test for its whole run.
static ALONE: Mutex<()> = Mutex::new(());

fn alone() -> std::sync::MutexGuard<'static, ()> {
    ALONE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A circuit with two ND blocks at two and at four threads.
fn two_nd_block_circuit() -> CscMat {
    circuit(&CircuitParams {
        nsub: 16,
        sub_size: 220,
        feedthrough: 0.3,
        seed: 5,
        ..CircuitParams::default()
    })
}

fn basker_opts(nthreads: usize) -> BaskerOptions {
    BaskerOptions {
        nthreads,
        ..BaskerOptions::default()
    }
}

fn nd_blocks(sym: &Basker) -> usize {
    sym.structure().nd_blocks.len()
}

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
    let _alone = alone();
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

#[test]
fn warm_analyzes_spawn_no_threads() {
    let _alone = alone();
    let a = two_nd_block_circuit();
    for t in [2, 4] {
        let sym = Basker::analyze(&a, &basker_opts(t)).unwrap();
        assert_eq!(nd_blocks(&sym), 2, "two ND blocks at {t} threads");
    }
    let spawned_before = os_threads_spawned();
    let os_before = os_thread_count();
    for _ in 0..5 {
        for t in [2, 4] {
            let sym = Basker::analyze(&a, &basker_opts(t)).unwrap();
            assert_eq!(sym.threads(), t);
        }
    }
    assert_eq!(
        os_threads_spawned(),
        spawned_before,
        "analyze spawned OS threads"
    );
    if let (Some(before), Some(after)) = (os_before, os_thread_count()) {
        assert!(
            after <= before,
            "process thread count grew: {before} -> {after}"
        );
    }
}

/// An analyze called from inside a job of its own team finds the ranks
/// busy and runs its stages inline: no spawn, no deadlock, the same
/// structure.
#[test]
fn analyze_inside_a_team_job_runs_inline() {
    let _alone = alone();
    let a = two_nd_block_circuit();
    let want = Basker::analyze(&a, &basker_opts(2)).unwrap();
    let team = shared_team(2, false);
    let spawned_before = os_threads_spawned();
    let got: Vec<Mutex<Option<Basker>>> = (0..2).map(|_| Mutex::new(None)).collect();
    team.run_worklist(2, |i| {
        let sym = Basker::analyze(&a, &basker_opts(2)).unwrap();
        *got[i].lock().unwrap() = Some(sym);
    });
    assert_eq!(
        os_threads_spawned(),
        spawned_before,
        "a nested analyze spawned"
    );
    for cell in got {
        let sym = cell.into_inner().unwrap().expect("every job ran");
        let (s, w) = (sym.structure(), want.structure());
        assert_eq!(
            (&s.row_perm, &s.col_perm, &s.bounds),
            (&w.row_perm, &w.col_perm, &w.bounds)
        );
        assert_eq!(nd_blocks(&sym), 2);
    }
}

/// A factor issued from inside a job on the handle's own team runs its
/// stages inline instead of spawning ranks for them.
#[test]
fn factor_from_a_rank_of_its_own_team_spawns_no_thread() {
    let _alone = alone();
    let a = mesh2d(16, 7);
    let opts = BaskerOptions {
        nd_threshold: 32,
        ..basker_opts(2)
    };
    let sym = Basker::analyze(&a, &opts).unwrap();
    let st = sym.structure();
    assert!(st.nblocks() == 1 && st.nd_block(0).is_some());
    let xtrue: Vec<f64> = (0..a.ncols()).map(|i| 0.5 + (i % 5) as f64).collect();
    let b = spmv(&a, &xtrue);
    let spawned_before = os_threads_spawned();
    sym.team().run_worklist(2, |_| {
        let mut ws = SolveWorkspace::for_dim(a.ncols());
        for _ in 0..5 {
            let mut x = b.clone();
            sym.factor(&a).unwrap().solve_in_place(&mut x, &mut ws);
            let res = relative_residual(&a, &x, &b);
            assert!(res < 1e-11, "residual {res}");
        }
    });
    assert_eq!(
        os_threads_spawned(),
        spawned_before,
        "a nested factor spawned"
    );
}
