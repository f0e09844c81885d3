//! Integration: the multi-tenant [`SolverService`] — failure isolation
//! between streams, true concurrent submission from many caller
//! threads, and the zero-OS-threads-after-warm-up property of the
//! shared-team scheduler.

use basker_repro::basker_api::STREAM_QUEUE_BOUND;
use basker_repro::basker_runtime::os_threads_spawned;
use basker_repro::prelude::*;
use basker_sparse::spmv::spmv;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Held by each test for its whole run, so no sibling test builds a
/// team inside another's spawn-count window.
static ALONE: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    ALONE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn circuitish(n: usize, shift: f64) -> CscMat {
    let mut t = TripletMat::new(n, n);
    for i in 0..n {
        t.push(i, i, 10.0 + shift + (i % 3) as f64);
        if i + 1 < n {
            t.push(i, i + 1, -1.0);
        }
        if i >= 4 {
            t.push(i, i - 4, 0.5);
        }
    }
    t.to_csc()
}

/// Same pattern as `a`, values engineered to an exact numeric
/// singularity (every entry zero): refactorization *and* the re-pivot
/// fallback both fail on the pivoting engines — the hard collapse of
/// `tests/session_lifecycle.rs`, aimed at one stream of a service.
fn collapsed(a: &CscMat) -> CscMat {
    // SAFETY: pattern arrays are copied from the valid matrix `a`; the zero
    // vector matches its nnz.
    unsafe {
        CscMat::from_parts_unchecked(
            a.nrows(),
            a.ncols(),
            a.colptr().to_vec(),
            a.rowind().to_vec(),
            vec![0.0; a.nnz()],
        )
    }
}

fn stream_cfg(engine: Engine) -> SessionConfig {
    SessionConfig::new()
        .engine(engine)
        .policy(ReusePolicy::adaptive())
        .target_residual(1e-9)
}

/// One stream hitting a hard singular pivot must error **only its own
/// handle**; sibling streams on all three engines keep stepping with
/// correct residuals, and the victim recovers on its next healthy step.
#[test]
fn hard_failure_in_one_stream_is_isolated() {
    let _alone = alone();
    // The pivoting engines report the collapse as an error; exercise
    // each as the victim while siblings span all three engines.
    for victim_engine in [Engine::Klu, Engine::Basker] {
        let service = SolverService::new(&ServiceConfig::new().threads(2));
        let a = circuitish(20, 0.0);
        let mut victim = service.stream(&a, &stream_cfg(victim_engine)).unwrap();
        let mut siblings: Vec<StreamHandle> = [Engine::Klu, Engine::Basker, Engine::Snlu]
            .into_iter()
            .map(|e| service.stream(&a, &stream_cfg(e)).unwrap())
            .collect();

        // Everyone takes a healthy first step.
        victim.step(&a, vec![]).unwrap();
        for s in siblings.iter_mut() {
            s.step(&a, vec![]).unwrap();
        }

        // The victim collapses; the error comes back on its ticket only.
        let err = victim.step(&collapsed(&a), vec![]).unwrap_err();
        assert!(
            matches!(err, SolverError::SingularPivot { .. }),
            "{victim_engine}: expected a singular pivot, got {err:?}"
        );

        // Siblings are unharmed: they keep stepping and solving to full
        // accuracy on all three engines.
        let xtrue: Vec<f64> = (0..20).map(|i| 1.0 + (i % 5) as f64).collect();
        for (k, s) in siblings.iter_mut().enumerate() {
            let m = circuitish(20, 0.1);
            let b = spmv(&m, &xtrue);
            let r = s.step_refined(&m, b).unwrap();
            assert!(
                r.quality[0].converged && r.quality[0].residual < 1e-8,
                "{victim_engine}: sibling {k} ({}) residual {}",
                s.engine(),
                r.quality[0].residual
            );
            assert_eq!(s.stats().unwrap().errors, 0, "sibling {k}");
        }

        // The victim recovers exactly as a lone session does: a healthy
        // step rebuilds the factors from scratch.
        let b = spmv(&a, &xtrue);
        let r = victim.step_refined(&a, b).unwrap();
        assert!(r.quality[0].converged, "{victim_engine}: victim recovery");
        let vs = victim.stats().unwrap();
        assert_eq!(vs.errors, 1, "{victim_engine}");
        assert!(!vs.poisoned, "{victim_engine}: an error is not a poison");
        let stats = service.stats();
        assert_eq!(stats.errors, 1, "{victim_engine}: exactly one job errored");
    }
}

/// The static-pivoting engine never hard-fails a numeric collapse (it
/// perturbs — see `session_lifecycle`); its per-stream error isolation
/// is exercised through the other escape hatch a tenant can hit: a
/// step whose matrix no longer matches the analyzed pattern.
#[test]
fn snlu_stream_errors_are_isolated_too() {
    let _alone = alone();
    let service = SolverService::new(&ServiceConfig::new().threads(2));
    let a = circuitish(16, 0.0);
    let mut victim = service.stream(&a, &stream_cfg(Engine::Snlu)).unwrap();
    let mut sibling = service.stream(&a, &stream_cfg(Engine::Klu)).unwrap();
    victim.step(&a, vec![]).unwrap();
    sibling.step(&a, vec![]).unwrap();

    let mut t = TripletMat::new(16, 16);
    for i in 0..16 {
        t.push(i, i, 2.0);
    }
    let wrong_pattern = t.to_csc();
    let err = victim.step(&wrong_pattern, vec![]).unwrap_err();
    assert!(matches!(err, SolverError::Sparse(_)), "got {err:?}");

    let xtrue: Vec<f64> = (0..16).map(|i| 0.5 + i as f64).collect();
    let b = spmv(&a, &xtrue);
    let r = sibling.step_refined(&a, b).unwrap();
    assert!(r.quality[0].converged, "sibling survived");
    // The snlu victim keeps serving its analyzed pattern.
    let b = spmv(&a, &xtrue);
    let r = victim.step_refined(&a, b).unwrap();
    assert!(r.quality[0].converged, "victim still serves its pattern");
}

/// Many caller threads, one service: each drives its own stream
/// full-speed; the scheduler multiplexes their jobs over the one shared
/// team, spawning **zero** OS threads after warm-up.
#[test]
fn concurrent_callers_share_one_warm_team() {
    let _alone = alone();
    let service = SolverService::new(&ServiceConfig::new().threads(2));
    let nstreams = 6usize;
    let nsteps = 8usize;

    // Warm-up: create the streams and take one step each so the team,
    // pool and sessions exist before the measured window.
    let mut handles: Vec<StreamHandle> = (0..nstreams)
        .map(|k| {
            let a = circuitish(18 + k, 0.0);
            let engine = [Engine::Klu, Engine::Basker, Engine::Snlu][k % 3];
            let mut h = service.stream(&a, &stream_cfg(engine)).unwrap();
            h.step(&a, vec![]).unwrap();
            h
        })
        .collect();
    // Process-wide: the tests of this binary take turns (`ALONE`), so
    // only this traffic can spawn in the window.
    let spawned = os_threads_spawned();

    let callers: Vec<_> = handles
        .drain(..)
        .enumerate()
        .map(|(k, mut h)| {
            let service = service.clone();
            std::thread::spawn(move || {
                let n = h.dim();
                let xtrue: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
                for s in 1..nsteps {
                    let m = circuitish(n, 0.05 * s as f64);
                    let b = spmv(&m, &xtrue);
                    let r = h
                        .step_refined(&m, b)
                        .unwrap_or_else(|e| panic!("stream {k} step {s}: {e}"));
                    assert!(
                        r.quality[0].residual < 1e-8,
                        "stream {k} step {s}: residual {}",
                        r.quality[0].residual
                    );
                    for (u, v) in r.x.iter().zip(&xtrue) {
                        assert!((u - v).abs() < 1e-6, "stream {k}: {u} vs {v}");
                    }
                }
                // Keep the handle alive till the end of the loop, then
                // let the drop close the stream while the service is
                // still busy elsewhere.
                drop(h);
                let _ = service.stats();
            })
        })
        .collect();
    // A caller stuck on a step must fail the test, not hang it.
    let deadline = Instant::now() + Duration::from_secs(120);
    while !callers.iter().all(|c| c.is_finished()) {
        assert!(
            Instant::now() < deadline,
            "callers still running after 120 s: {:?}",
            service.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    for c in callers {
        c.join().expect("caller thread");
    }

    assert_eq!(
        os_threads_spawned(),
        spawned,
        "steady-state service traffic must not spawn OS threads"
    );
    let stats = service.stats();
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.steps, nstreams * nsteps);
    assert_eq!(stats.streams, 0, "all handles dropped");
}

/// Backpressure + drain from the handle-facing side: a burst of
/// pipelined submissions beyond the queue bound completes in order,
/// and `drain` settles everything a caller never awaited.
#[test]
fn pipelined_bursts_respect_order_and_bounds() {
    let _alone = alone();
    let service = SolverService::new(&ServiceConfig::new().threads(2));
    let a = circuitish(14, 0.0);
    let mut h = service.stream(&a, &stream_cfg(Engine::Klu)).unwrap();

    // Steps must apply in submission order: feed matrices whose factors
    // differ and check the last-landed factor matches the last submit.
    let tickets: Vec<_> = (0..6)
        .map(|s| {
            let m = circuitish(14, s as f64);
            h.submit(&m, vec![1.0; 14]).unwrap()
        })
        .collect();
    for (s, t) in tickets.into_iter().enumerate() {
        let r = t.wait().unwrap_or_else(|e| panic!("step {s}: {e}"));
        assert_eq!(r.x.len(), 14);
    }
    let st = h.stats().unwrap();
    assert_eq!(st.session.steps, 6);

    // Fire-and-forget: drop the tickets, drain, everything ran.
    for s in 0..4 {
        let m = circuitish(14, s as f64);
        drop(h.submit(&m, vec![]).unwrap());
    }
    service.drain();
    let stats = service.stats();
    assert_eq!(stats.steps, 10);
    assert_eq!((stats.queued, stats.running), (0, 0));
    assert!(
        stats.max_queue_depth <= STREAM_QUEUE_BOUND,
        "bound: {}",
        stats.max_queue_depth
    );
}
