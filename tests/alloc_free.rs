//! Integration: repeated `solve_in_place` calls with a warmed-up
//! `SolveWorkspace` perform **zero heap allocation**, for every engine —
//! and so do warmed multi-RHS panel solves of the BTF engines and warmed
//! refactorizations of the block driver.
//!
//! A counting global allocator records every `alloc`/`realloc` in the
//! process; the single test in this binary (kept alone so no concurrent
//! test thread can allocate in the measurement window) warms the
//! workspace once per engine, then snapshots the counter around a burst
//! of solves and requires it unchanged; the same for bursts of Basker
//! refactorizations with drifting values once the thread's scratch is
//! warm, for a numeric's very first refactorization, which records
//! nothing, and for warmed session steps.

use basker_repro::prelude::*;
use basker_sparse::spmv::spmv;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The fewest allocations any of three runs of `burst` made. The
/// counter is process-global, so a runtime thread (test harness
/// watchdog, lazily initialized std state) can bump it once in a
/// window; a per-call leak shows up in *every* window.
fn cleanest_of_three(mut burst: impl FnMut()) -> u64 {
    let mut cleanest = u64::MAX;
    for _attempt in 0..3 {
        let before = ALLOC_CALLS.load(Ordering::SeqCst);
        burst();
        cleanest = cleanest.min(ALLOC_CALLS.load(Ordering::SeqCst) - before);
        if cleanest == 0 {
            break;
        }
    }
    cleanest
}

/// `a`'s pattern under four value sets drifting a few percent apart.
fn drifting(a: &CscMat) -> Vec<CscMat> {
    (0..4)
        .map(|k| {
            let mut m = a.clone();
            for (i, v) in m.values_mut().iter_mut().enumerate() {
                *v *= 1.0 + 0.01 * (k as f64 + (i % 3) as f64);
            }
            m
        })
        .collect()
}

#[test]
fn warmed_solves_do_not_allocate_for_any_engine() {
    // Mixed structure so Basker exercises both its small-block and ND
    // solve paths.
    let a = circuit(&CircuitParams {
        nsub: 4,
        sub_size: 48,
        feedthrough: 0.5,
        ..CircuitParams::default()
    });
    let n = a.ncols();
    let xtrue: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
    let b = spmv(&a, &xtrue);
    let mut x = vec![0.0; n];

    for engine in [Engine::Klu, Engine::Basker, Engine::Snlu] {
        let cfg = SolverConfig::new().engine(engine).threads(2);
        let solver = LinearSolver::analyze(&a, &cfg).unwrap();
        let num = solver.factor(&a).unwrap();
        let mut ws = SolveWorkspace::for_dim(n);

        // Warm-up: first call may size internal state.
        x.copy_from_slice(&b);
        num.solve_in_place(&mut x, &mut ws).unwrap();

        // Accept the engine as allocation-free if any window is clean.
        let cleanest = cleanest_of_three(|| {
            for _ in 0..100 {
                x.copy_from_slice(&b);
                num.solve_in_place(&mut x, &mut ws).unwrap();
            }
        });
        assert_eq!(
            cleanest, 0,
            "{engine}: at least {cleanest} allocation(s) in every 100-solve window"
        );
        assert!(relative_residual(&a, &x, &b) < 1e-8, "{engine}");
    }

    // ---- multi-RHS panel solves --------------------------------------
    // 8 right-hand sides are one panel, 5 a panel of 4 and one of 1;
    // the first call at each width may grow the workspace's panel.
    for engine in [Engine::Klu, Engine::Basker] {
        let cfg = SolverConfig::new().engine(engine).threads(2);
        let num = LinearSolver::analyze(&a, &cfg).unwrap().factor(&a).unwrap();
        let mut ws = SolveWorkspace::for_dim(n);
        for k in [8usize, 5] {
            let bs: Vec<f64> = (0..k).flat_map(|_| b.iter().copied()).collect();
            let mut xs = bs.clone();
            num.solve_multi_in_place(&mut xs, &mut ws).unwrap();
            let cleanest = cleanest_of_three(|| {
                for _ in 0..100 {
                    xs.copy_from_slice(&bs);
                    num.solve_multi_in_place(&mut xs, &mut ws).unwrap();
                }
            });
            assert_eq!(
                cleanest, 0,
                "{engine}: at least {cleanest} allocation(s) in every window of 100 \
                 {k}-column solves"
            );
            assert!(
                relative_residual(&a, &xs[(k - 1) * n..], &b) < 1e-8,
                "{engine}"
            );
        }
    }
    // The batched refined solve allocates its returned qualities and
    // nothing else.
    let mut session = SolveSession::new(&a, &SessionConfig::new().engine(Engine::Basker)).unwrap();
    session.step(&a).unwrap();
    let bs: Vec<f64> = (0..8).flat_map(|_| b.iter().copied()).collect();
    let mut xs = bs.clone();
    session.solve_refined_multi(&mut xs).unwrap();
    let cleanest = cleanest_of_three(|| {
        for _ in 0..100 {
            xs.copy_from_slice(&bs);
            let qs = session.solve_refined_multi(&mut xs).unwrap();
            assert!(qs.iter().all(|q| q.converged));
        }
    });
    assert!(
        cleanest <= 100,
        "solve_refined_multi: {cleanest} allocations in every 100-call window"
    );
    x.copy_from_slice(&b);
    session.solve_refined(&mut x).unwrap();
    let cleanest = cleanest_of_three(|| {
        for _ in 0..100 {
            x.copy_from_slice(&b);
            session.solve_refined(&mut x).unwrap();
        }
    });
    assert_eq!(cleanest, 0, "solve_refined allocates");

    // ---- warmed session steps ---------------------------------------
    // A step on a stream of one pattern refactors, checks the factors'
    // pivot range and refreshes the session's copy of the factor stats
    // in place: once the first steps have warmed the session, nothing
    // allocates, at one thread and on the team.
    let grid = powergrid(&PowergridParams {
        nfeeders: 200,
        feeder_len: 30,
        loop_prob: 0.1,
        ..PowergridParams::default()
    });
    let ring = drifting(&grid);
    for threads in [1usize, 2] {
        let cfg = SessionConfig::new().engine(Engine::Basker).threads(threads);
        let mut session = SolveSession::new(&grid, &cfg).unwrap();
        for m in &ring {
            session.step(m).unwrap();
        }
        let mut k = 0;
        let cleanest = cleanest_of_three(|| {
            for _ in 0..10 {
                k += 1;
                session.step(&ring[k % ring.len()]).unwrap();
            }
        });
        assert_eq!(
            cleanest, 0,
            "x{threads}: at least {cleanest} allocation(s) in every window of 10 warmed steps"
        );
        let stats = session.stats();
        assert_eq!(stats.factors, 1, "x{threads}: every later step refactored");
        assert_eq!(stats.last_factor.sync_wait_ns.len(), threads);
    }

    // ---- refactorizations -------------------------------------------
    // The mixed circuit again, and one irreducible mesh block: an ND
    // block with a real separator at two threads (panels, reductions
    // and an elimination in the stage list), a single leaf at one.
    let mesh = mesh2d(12, 5);
    let lanes = [(Engine::Basker, 2), (Engine::Basker, 1), (Engine::Klu, 1)];
    for (m, what) in [(&a, "circuit"), (&mesh, "mesh")] {
        let ring = drifting(m);
        let xtrue = vec![1.0; m.ncols()];
        for (engine, threads) in lanes {
            let cfg = SolverConfig::new()
                .engine(engine)
                .threads(threads)
                .nd_threshold(64);
            let mut num = LinearSolver::analyze(m, &cfg).unwrap().factor(m).unwrap();
            if let Some(basker) = num.as_basker() {
                assert!(basker.stats.nd_blocks >= 1, "{what}: no ND block to replay");
            }
            // Warm-up: grows the scratch of every rank that runs items.
            num.refactor(&ring[0]).unwrap();
            num.refactor(&ring[1]).unwrap();
            let mut step = 0;
            let cleanest = cleanest_of_three(|| {
                for _ in 0..20 {
                    step += 1;
                    num.refactor(&ring[step % ring.len()]).unwrap();
                }
            });
            if engine == Engine::Klu {
                // The reference lane keeps its own data movement (a
                // fresh permuted matrix and block extraction per step);
                // what it shares is the kernels, which used to allocate
                // two or three times per column.
                assert!(
                    cleanest < 20 * m.ncols() as u64,
                    "{engine} on the {what}: {cleanest} allocations in every 20-refactor \
                     window of a {}-column matrix",
                    m.ncols()
                );
                continue;
            }
            assert_eq!(
                cleanest, 0,
                "{engine} x{threads} on the {what}: at least {cleanest} allocation(s) \
                 in every 20-refactor window"
            );
            // The burst left usable factors behind.
            let last = &ring[step % ring.len()];
            let rhs = spmv(last, &xtrue);
            let mut sol = rhs.clone();
            num.solve_in_place(&mut sol, &mut SolveWorkspace::for_dim(m.ncols()))
                .unwrap();
            assert!(
                relative_residual(last, &sol, &rhs) < 1e-8,
                "{engine} x{threads} on the {what}"
            );
        }
    }

    // A numeric's first refactorization replays the stage list its
    // factorization left behind: once an earlier numeric of the same
    // handle has warmed the thread's scratch, it allocates nothing.
    for m in [&a, &mesh] {
        let ring = drifting(m);
        let cfg = SolverConfig::new()
            .engine(Engine::Basker)
            .threads(1)
            .nd_threshold(64);
        let solver = LinearSolver::analyze(m, &cfg).unwrap();
        solver.factor(m).unwrap().refactor(&ring[0]).unwrap();
        let mut fresh: Vec<_> = (0..3).map(|_| solver.factor(m).unwrap()).collect();
        let cleanest = cleanest_of_three(|| {
            let mut num = fresh.pop().expect("one numeric per attempt");
            num.refactor(&ring[1]).unwrap();
        });
        assert_eq!(cleanest, 0, "a numeric's first refactorization allocates");
    }

    // Past the break-even a stage is dispatched to the team, which
    // costs the scheduler its task entries — a handful per stage,
    // nothing per block or column.
    let big = mesh2d(48, 5);
    let ring = drifting(&big);
    let cfg = SolverConfig::new().engine(Engine::Basker).threads(2);
    let mut num = LinearSolver::analyze(&big, &cfg)
        .unwrap()
        .factor(&big)
        .unwrap();
    num.refactor(&ring[0]).unwrap();
    num.refactor(&ring[1]).unwrap();
    assert!(
        num.stats().sync_wait_ns.len() == 2,
        "the big mesh runs on the two-rank team"
    );
    let mut step = 0;
    let cleanest = cleanest_of_three(|| {
        for _ in 0..20 {
            step += 1;
            num.refactor(&ring[step % ring.len()]).unwrap();
        }
    });
    // At two threads the list has four stages; a dispatch allocates
    // one task core and the ranks' result cells.
    assert!(
        cleanest <= 20 * 4 * 2,
        "dispatched replay: {cleanest} allocations in every 20-refactor window \
         of a {}-column mesh",
        big.ncols()
    );
}
