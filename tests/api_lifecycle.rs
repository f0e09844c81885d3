//! Integration: the unified `LinearSolver` lifecycle — what
//! `Engine::Auto` runs, per-engine refactor-then-solve round-trips, unified
//! singular-pivot reporting with global context, and workspace reuse
//! across engines and dimensions.

use basker_repro::prelude::*;
use basker_sparse::spmv::spmv;

fn scaled_values(a: &CscMat, f: impl Fn(usize, f64) -> f64) -> CscMat {
    // SAFETY: pattern arrays are copied from the valid matrix `a`; values
    // map 1:1.
    unsafe {
        CscMat::from_parts_unchecked(
            a.nrows(),
            a.ncols(),
            a.colptr().to_vec(),
            a.rowind().to_vec(),
            a.values()
                .iter()
                .enumerate()
                .map(|(k, &v)| f(k, v))
                .collect(),
        )
    }
}

#[test]
fn auto_is_the_block_driver_on_grid_circuit_and_mesh() {
    // Power grids are the extreme BTF case (everything in tiny blocks),
    // circuits sit in between, and 2-D meshes are one irreducible block:
    // Auto runs the block driver on each at every width. The supernodal
    // engine's own run on meshes is `factor_correctness::snlu_all_classes`.
    let grid = powergrid(&PowergridParams {
        nfeeders: 20,
        feeder_len: 25,
        loop_prob: 0.2,
        seed: 9,
    });
    let circ = circuit(&CircuitParams {
        nsub: 8,
        sub_size: 32,
        feedthrough: 0.4,
        ..CircuitParams::default()
    });
    for a in [&grid, &circ, &mesh2d(16, 1)] {
        for p in [1, 2] {
            let cfg = SolverConfig::new().engine(Engine::Auto).threads(p);
            let solver = LinearSolver::analyze(a, &cfg).unwrap();
            assert_eq!(
                solver.engine(),
                Engine::Basker,
                "n = {}, T = {p}",
                a.nrows()
            );
        }
    }
}

#[test]
fn refactor_then_solve_round_trip_every_engine() {
    let a = circuit(&CircuitParams {
        nsub: 5,
        sub_size: 30,
        feedthrough: 0.5,
        ..CircuitParams::default()
    });
    let n = a.ncols();
    let xtrue: Vec<f64> = (0..n).map(|i| 0.5 + (i % 4) as f64).collect();
    let mut ws = SolveWorkspace::for_dim(n);

    for engine in [Engine::Klu, Engine::Basker, Engine::Snlu] {
        let cfg = SolverConfig::new().engine(engine).threads(2);
        let solver = LinearSolver::analyze(&a, &cfg).unwrap();
        let mut num = solver.factor(&a).unwrap();

        // Gentle value drift (same pattern) → the refactor fast path.
        let a2 = scaled_values(&a, |k, v| v * 1.05 + 1e-4 * ((k % 3) as f64));
        num.refactor(&a2)
            .unwrap_or_else(|e| panic!("{engine}: refactor {e}"));

        let b = spmv(&a2, &xtrue);
        let mut x = b.clone();
        num.solve_in_place(&mut x, &mut ws).unwrap();
        let r = relative_residual(&a2, &x, &b);
        let tol = if engine == Engine::Snlu { 1e-8 } else { 1e-10 };
        assert!(r < tol, "{engine}: refactor-then-solve residual {r}");

        // The refactored solution must match a fresh factorization's.
        let fresh = solver.factor(&a2).unwrap();
        let mut xf = b.clone();
        fresh.solve_in_place(&mut xf, &mut ws).unwrap();
        for (u, v) in x.iter().zip(xf.iter()) {
            assert!(
                (u - v).abs() < 1e-8 * (1.0 + u.abs()),
                "{engine}: refactor {u} vs fresh {v}"
            );
        }
    }
}

#[test]
fn singular_pivot_error_names_global_column_and_block() {
    // Matrix with two BTF blocks; the *second* block (original columns
    // 3,4) is numerically singular: [1 1; 1 1]. Engines permute
    // internally, but the error must still name original coordinates.
    let mut t = TripletMat::new(5, 5);
    t.push(0, 0, 2.0);
    t.push(1, 1, 3.0);
    t.push(1, 0, -1.0);
    t.push(2, 2, 4.0);
    t.push(3, 3, 1.0);
    t.push(3, 4, 1.0);
    t.push(4, 3, 1.0);
    t.push(4, 4, 1.0);
    let a = t.to_csc();

    for engine in [Engine::Klu, Engine::Basker] {
        let solver = LinearSolver::analyze(&a, &SolverConfig::new().engine(engine)).unwrap();
        let err = solver.factor(&a).unwrap_err();
        let SolverError::SingularPivot {
            engine: reported,
            global_column,
            btf_block,
            ..
        } = err.clone()
        else {
            panic!("{engine}: expected SingularPivot, got {err:?}");
        };
        assert_eq!(reported, engine);
        assert!(
            global_column == 3 || global_column == 4,
            "{engine}: reported global column {global_column}, expected 3 or 4"
        );
        // The message is actionable as-is.
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("global column {global_column}"))
                && msg.contains(&format!("BTF block {btf_block}")),
            "{engine}: uninformative message `{msg}`"
        );
    }
}

#[test]
fn refactor_failure_reports_pivot_context_then_factor_recovers() {
    // Factor a healthy matrix, then refactor with values that zero out
    // one diagonal block: the refactor must fail with global context and
    // a fresh factor of the healthy matrix must still work.
    let mut t = TripletMat::new(3, 3);
    t.push(0, 0, 5.0);
    t.push(1, 1, 6.0);
    t.push(2, 2, 7.0);
    t.push(0, 1, 1.0);
    let a = t.to_csc();

    for engine in [Engine::Klu, Engine::Basker] {
        let solver = LinearSolver::analyze(&a, &SolverConfig::new().engine(engine)).unwrap();
        let mut num = solver.factor(&a).unwrap();
        // zero the (1,1) diagonal value — a 1x1 BTF block collapses
        let bad = scaled_values(&a, |k, v| {
            if (a.rowind()[k], v) == (1, 6.0) {
                0.0
            } else {
                v
            }
        });
        let err = num.refactor(&bad).unwrap_err();
        assert!(err.is_pivot_failure(), "{engine}: {err}");
        assert_eq!(err.singular_column(), Some(1), "{engine}: {err}");

        // The documented recovery: fall back to a pivoting factor of the
        // next healthy matrix.
        num = solver.factor(&a).unwrap();
        let mut x = vec![5.0, 6.0, 7.0];
        num.solve_in_place(&mut x, &mut SolveWorkspace::new())
            .unwrap();
        assert!((x[1] - 1.0).abs() < 1e-12, "{engine}");
    }
}

#[test]
fn one_workspace_serves_every_engine_and_dimension() {
    let small = mesh2d(6, 1);
    let big = circuit(&CircuitParams {
        nsub: 6,
        sub_size: 40,
        feedthrough: 0.3,
        ..CircuitParams::default()
    });
    let mut ws = SolveWorkspace::new();
    for (a, tol) in [(&small, 1e-8), (&big, 1e-8)] {
        for engine in [Engine::Klu, Engine::Basker, Engine::Snlu] {
            let cfg = SolverConfig::new().engine(engine).threads(2);
            let num = LinearSolver::analyze(a, &cfg).unwrap().factor(a).unwrap();
            let xtrue: Vec<f64> = (0..a.ncols()).map(|i| 1.0 + (i % 3) as f64).collect();
            let b = spmv(a, &xtrue);
            let mut x = b.clone();
            num.solve_in_place(&mut x, &mut ws).unwrap();
            assert!(
                relative_residual(a, &x, &b) < tol,
                "{engine} n={}",
                a.ncols()
            );
        }
    }
}

#[test]
fn stats_are_uniform_across_engines() {
    let a = circuit(&CircuitParams {
        nsub: 4,
        sub_size: 30,
        feedthrough: 0.4,
        ..CircuitParams::default()
    });
    for engine in [Engine::Klu, Engine::Basker, Engine::Snlu] {
        let cfg = SolverConfig::new().engine(engine).threads(2);
        let num = LinearSolver::analyze(&a, &cfg).unwrap().factor(&a).unwrap();
        let st = num.stats();
        assert_eq!(st.engine, Some(engine));
        assert_eq!(st.dimension, a.ncols());
        assert!(st.lu_nnz > 0, "{engine}");
        assert!(st.flops > 0.0, "{engine}");
        assert!(st.btf_blocks >= 1, "{engine}");
        assert!(st.threads >= 1, "{engine}");
        assert!(st.factor_seconds > 0.0, "{engine}");
        assert!(st.fill_density(a.nnz()) > 0.0, "{engine}");
    }
}

#[test]
fn native_in_place_paths_match_unified_facade() {
    // The engines' native in-place solves and the type-erased
    // `Factorization` must produce bit-identical results (the facade
    // adds dispatch, never arithmetic). The legacy allocating
    // `solve`/`solve_multi` wrappers are gone; in-place is the only
    // solve surface.
    let a = circuit(&CircuitParams {
        nsub: 3,
        sub_size: 24,
        feedthrough: 0.6,
        ..CircuitParams::default()
    });
    let b: Vec<f64> = (0..a.ncols()).map(|i| 1.0 + (i % 5) as f64).collect();
    let mut ws = SolveWorkspace::for_dim(a.ncols());

    let via_facade = |engine: Engine| -> Vec<f64> {
        let cfg = SolverConfig::new().engine(engine).threads(2);
        let num = LinearSolver::analyze(&a, &cfg).unwrap().factor(&a).unwrap();
        let mut x = b.clone();
        num.solve_in_place(&mut x, &mut SolveWorkspace::new())
            .unwrap();
        x
    };

    let bn = Basker::analyze(
        &a,
        &BaskerOptions {
            nthreads: 2,
            ..BaskerOptions::default()
        },
    )
    .unwrap()
    .factor(&a)
    .unwrap();
    let mut x = b.clone();
    bn.solve_in_place(&mut x, &mut ws);
    assert_eq!(via_facade(Engine::Basker), x);

    let kn = KluSymbolic::analyze(&a, &KluOptions::default())
        .unwrap()
        .factor(&a)
        .unwrap();
    let mut x = b.clone();
    kn.solve_in_place(&mut x, &mut ws);
    assert_eq!(via_facade(Engine::Klu), x);

    let sn = Snlu::analyze(
        &a,
        &SnluOptions {
            nthreads: 2,
            ..SnluOptions::default()
        },
    )
    .unwrap()
    .factor(&a)
    .unwrap();
    let mut x = b.clone();
    sn.solve_in_place(&mut x, &mut ws);
    assert_eq!(via_facade(Engine::Snlu), x);
}

#[test]
fn quality_hook_reports_pivot_extremes_per_engine() {
    let a = circuit(&CircuitParams {
        nsub: 3,
        sub_size: 24,
        feedthrough: 0.6,
        ..CircuitParams::default()
    });
    for engine in [Engine::Klu, Engine::Basker, Engine::Snlu] {
        let cfg = SolverConfig::new().engine(engine).threads(2);
        let num = LinearSolver::analyze(&a, &cfg).unwrap().factor(&a).unwrap();
        let q = num.quality();
        assert!(
            q.min_pivot > 0.0 && q.min_pivot <= q.max_pivot,
            "{engine}: ({}, {})",
            q.min_pivot,
            q.max_pivot
        );
        let rcond = q.rcond_estimate();
        assert!(rcond > 0.0 && rcond <= 1.0, "{engine}: rcond {rcond}");
        if engine != Engine::Snlu {
            assert_eq!(q.perturbed_pivots, 0, "{engine} pivots, never perturbs");
        }
    }
}
