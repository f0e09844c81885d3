//! End-to-end checks of the dense kernel ladder: whichever rung
//! `BASKER_KERNEL` selects (the CI matrix runs this suite under
//! `scalar` and `simd`), every engine must still factor and solve to
//! tight residuals, and the selected rung must be reported through
//! `SolverStats`. The selection is once-per-process, so these tests
//! only *observe* the active rung — they never fight over it.

use basker_repro::prelude::*;
use basker_sparse::spmv::spmv;

/// The rung name the process-wide dispatch should have settled on for
/// the current `BASKER_KERNEL` value; `None` where the CPU decides
/// (unset, empty, `auto`). The library reads any other value as `auto`,
/// so this suite is where a mistyped or retired value in a CI leg must
/// fail instead of silently testing the auto-picked rung.
fn expected_kernel() -> Option<&'static str> {
    let value = std::env::var("BASKER_KERNEL").unwrap_or_default();
    match value.trim().to_ascii_lowercase().as_str() {
        "" | "auto" => None,
        "scalar" => Some("scalar"),
        // No SIMD on this CPU: the explicit request falls back.
        "simd" => {
            Some(basker_repro::basker_kernels::by_name("simd").map_or("scalar", |k| k.name()))
        }
        other => {
            panic!("BASKER_KERNEL='{other}' is not one of: scalar, simd, auto (or unset/empty)")
        }
    }
}

#[test]
fn every_engine_solves_tightly_under_the_active_rung() {
    let active = basker_repro::basker_kernels::active().name();
    if let Some(want) = expected_kernel() {
        assert_eq!(active, want, "BASKER_KERNEL not honored");
    }
    assert!(
        ["scalar", "avx2+fma", "neon"].contains(&active),
        "unknown rung '{active}'"
    );

    let problems = [
        ("mesh2d", mesh2d(18, 7)),
        (
            "circuit",
            circuit(&CircuitParams {
                nsub: 5,
                sub_size: 36,
                feedthrough: 0.6,
                ..CircuitParams::default()
            }),
        ),
    ];
    let mut ws = SolveWorkspace::new();
    for engine in [Engine::Klu, Engine::Basker, Engine::Snlu] {
        for (name, a) in &problems {
            let cfg = SolverConfig::default().engine(engine);
            let solver = LinearSolver::analyze(a, &cfg).unwrap();
            let num = solver.factor(a).unwrap();
            assert_eq!(
                num.stats().kernel,
                active,
                "{engine} {name}: stats must report the dispatched rung"
            );
            let xtrue: Vec<f64> = (0..a.ncols())
                .map(|i| 1.0 + (i % 11) as f64 * 0.3)
                .collect();
            let b = spmv(a, &xtrue);
            let mut x = b.clone();
            num.solve_in_place(&mut x, &mut ws).unwrap();
            let r = relative_residual(a, &x, &b);
            assert!(r < 1e-11, "{engine} {name} under '{active}': residual {r}");
        }
    }
}

#[test]
fn refactor_stays_tight_under_the_active_rung() {
    // The steady-state path (refactor + solve) leans hardest on the
    // rewired kernels; drive it through the supernodal engine.
    let a = mesh2d(16, 5);
    let cfg = SolverConfig::default().engine(Engine::Snlu);
    let solver = LinearSolver::analyze(&a, &cfg).unwrap();
    let mut num = solver.factor(&a).unwrap();
    let mut ws = SolveWorkspace::new();
    for step in 0..3 {
        let mut b2 = a.clone();
        for (i, v) in b2.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + 0.01 * ((i + step) % 5) as f64;
        }
        num.refactor(&b2).unwrap();
        let xtrue: Vec<f64> = (0..b2.ncols()).map(|i| 0.5 + (i % 7) as f64).collect();
        let b = spmv(&b2, &xtrue);
        let mut x = b.clone();
        num.solve_in_place(&mut x, &mut ws).unwrap();
        let r = relative_residual(&b2, &x, &b);
        assert!(r < 1e-11, "step {step}: residual {r}");
    }
}
