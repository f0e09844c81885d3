//! Integration: degenerate and adversarial inputs across the whole stack.

mod common;

use basker_repro::basker_ordering::btf::btf_form_with;
use basker_repro::prelude::*;
use basker_sparse::io::{read_matrix_market, write_matrix_market};
use basker_sparse::spmv::spmv;
use common::solve_fresh as solved;

#[test]
fn one_by_one_matrix() {
    let a = CscMat::from_dense(&[vec![4.0]]);
    let sym = Basker::analyze(&a, &BaskerOptions::default()).unwrap();
    let num = sym.factor(&a).unwrap();
    assert_eq!(solved(&num, &[8.0]), vec![2.0]);
    assert_eq!(num.lu_nnz(), 1);

    let k = KluSymbolic::analyze(&a, &KluOptions::default()).unwrap();
    assert_eq!(solved(&k.factor(&a).unwrap(), &[8.0]), vec![2.0]);
}

#[test]
fn diagonal_matrix_all_solvers() {
    let n = 17;
    let mut t = TripletMat::new(n, n);
    for i in 0..n {
        t.push(i, i, (i + 1) as f64);
    }
    let a = t.to_csc();
    let b: Vec<f64> = (0..n).map(|i| (i + 1) as f64 * 3.0).collect();

    let x = solved(
        &Basker::analyze(&a, &BaskerOptions::default())
            .unwrap()
            .factor(&a)
            .unwrap(),
        &b,
    );
    for v in &x {
        assert!((v - 3.0).abs() < 1e-14);
    }
    let x = solved(
        &Snlu::analyze(&a, &SnluOptions::default())
            .unwrap()
            .factor(&a)
            .unwrap(),
        &b,
    );
    for v in &x {
        assert!((v - 3.0).abs() < 1e-10);
    }
}

#[test]
fn dense_column_does_not_break_anyone() {
    // one dense column + dense row (arrow) embedded in a circuit
    let n = 60;
    let mut t = TripletMat::new(n, n);
    for i in 0..n {
        t.push(i, i, 30.0 + i as f64);
        if i > 0 {
            t.push(0, i, 1.0);
            t.push(i, 0, -1.0);
        }
        if i + 1 < n {
            t.push(i, i + 1, 2.0);
        }
    }
    let a = t.to_csc();
    let xtrue: Vec<f64> = (0..n).map(|i| (i % 3) as f64 + 1.0).collect();
    let b = spmv(&a, &xtrue);
    for p in [1usize, 2] {
        let cfg = SolverConfig::new()
            .engine(Engine::Basker)
            .threads(p)
            .nd_threshold(32);
        let num = LinearSolver::analyze(&a, &cfg).unwrap().factor(&a).unwrap();
        let x = solved(&num, &b);
        assert!(relative_residual(&a, &x, &b) < 1e-11, "p={p}");
    }
}

#[test]
fn explicit_zero_entries_are_tolerated() {
    // a stored zero off-diagonal must not confuse pattern handling
    let mut t = TripletMat::new(3, 3);
    t.push(0, 0, 2.0);
    t.push(1, 1, 3.0);
    t.push(2, 2, 4.0);
    t.push(0, 1, 0.0); // explicit zero
    t.push(2, 0, 0.0); // explicit zero
    let a = t.to_csc();
    assert_eq!(a.nnz(), 5);
    let num = Basker::analyze(&a, &BaskerOptions::default())
        .unwrap()
        .factor(&a)
        .unwrap();
    let x = solved(&num, &[2.0, 3.0, 4.0]);
    for v in &x {
        assert!((v - 1.0).abs() < 1e-14);
    }
}

#[test]
fn numerically_singular_block_is_an_error_not_garbage() {
    // [1 1; 1 1] is structurally fine, numerically singular
    let a = CscMat::from_dense(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
    assert!(matches!(
        Basker::analyze(&a, &BaskerOptions::default())
            .unwrap()
            .factor(&a),
        Err(SparseError::ZeroPivot { .. })
    ));
    assert!(matches!(
        KluSymbolic::analyze(&a, &KluOptions::default())
            .unwrap()
            .factor(&a),
        Err(SparseError::ZeroPivot { .. })
    ));
    // ... and through the unified API the same failure carries global
    // context instead of a bare column.
    for engine in [Engine::Basker, Engine::Klu] {
        let solver = LinearSolver::analyze(&a, &SolverConfig::new().engine(engine)).unwrap();
        let err = solver.factor(&a).unwrap_err();
        assert!(err.is_pivot_failure(), "{engine}: {err}");
        assert!(err.singular_column().is_some(), "{engine}: {err}");
    }
}

/// 0×0 and 1×1 through both front-ends, for every engine at one and two
/// threads: analyze, factor, refactor and solve all succeed.
#[test]
fn empty_and_one_by_one_on_every_engine() {
    for (a, b, want) in [
        (CscMat::zero(0, 0), vec![], vec![]),
        (CscMat::from_dense(&[vec![4.0]]), vec![8.0], vec![2.0]),
    ] {
        let n = a.nrows();
        for engine in [Engine::Auto, Engine::Basker, Engine::Klu, Engine::Snlu] {
            for p in [1, 2] {
                let cfg = SolverConfig::new().engine(engine).threads(p);
                let solver = LinearSolver::analyze(&a, &cfg)
                    .unwrap_or_else(|e| panic!("{engine}, n = {n}, T = {p}: {e}"));
                assert_eq!(solver.dim(), n);
                let mut num = solver.factor(&a).unwrap();
                num.refactor(&a).unwrap();
                assert_eq!(solved(&num, &b), want, "{engine}, n = {n}, T = {p}");

                let cfg = SessionConfig::new().engine(engine).threads(p);
                let mut session = SolveSession::new(&a, &cfg).unwrap();
                for _ in 0..3 {
                    session.step(&a).unwrap();
                    let mut x = b.clone();
                    assert!(session.solve_refined(&mut x).unwrap().converged);
                    assert_eq!(x, want, "{engine} session, n = {n}, T = {p}");
                }
            }
        }
    }
}

#[test]
fn rectangular_matrices_rejected_everywhere() {
    let a = CscMat::zero(3, 4);
    assert!(Basker::analyze(&a, &BaskerOptions::default()).is_err());
    assert!(KluSymbolic::analyze(&a, &KluOptions::default()).is_err());
    assert!(Snlu::analyze(&a, &SnluOptions::default()).is_err());
    for engine in [Engine::Auto, Engine::Basker, Engine::Klu, Engine::Snlu] {
        assert!(
            LinearSolver::analyze(&a, &SolverConfig::new().engine(engine)).is_err(),
            "{engine}"
        );
    }
}

#[test]
fn matrix_market_roundtrip_through_solver() {
    let a = circuit(&CircuitParams {
        nsub: 3,
        sub_size: 20,
        ..CircuitParams::default()
    });
    let mut buf = Vec::new();
    write_matrix_market(&a, &mut buf).unwrap();
    let a2 = read_matrix_market(&buf[..]).unwrap();
    assert_eq!(a, a2);
    let b = vec![1.0; a.ncols()];
    let x1 = solved(
        &Basker::analyze(&a, &BaskerOptions::default())
            .unwrap()
            .factor(&a)
            .unwrap(),
        &b,
    );
    let x2 = solved(
        &Basker::analyze(&a2, &BaskerOptions::default())
            .unwrap()
            .factor(&a2)
            .unwrap(),
        &b,
    );
    assert_eq!(x1, x2);
}

#[test]
fn badly_scaled_values_still_solve() {
    // entries spanning 12 orders of magnitude; MWCM + pivoting must cope
    let n = 30;
    let mut t = TripletMat::new(n, n);
    for i in 0..n {
        t.push(i, i, 10f64.powi((i % 13) as i32 - 6));
        if i + 1 < n {
            t.push(i, i + 1, 10f64.powi((i % 7) as i32 - 3));
            t.push(i + 1, i, -10f64.powi((i % 5) as i32 - 2));
        }
    }
    let a = t.to_csc();
    let xtrue = vec![1.0; n];
    let b = spmv(&a, &xtrue);
    let x = solved(
        &Basker::analyze(&a, &BaskerOptions::default())
            .unwrap()
            .factor(&a)
            .unwrap(),
        &b,
    );
    assert!(relative_residual(&a, &x, &b) < 1e-9);
}

#[test]
fn mwcm_toggle_changes_nothing_functionally() {
    let a = circuit(&CircuitParams {
        nsub: 4,
        sub_size: 24,
        ..CircuitParams::default()
    });
    // The solvers form their BTF on the bottleneck matching; any maximum
    // transversal yields the same diagonal blocks (the fine block
    // triangular form is unique up to the order of independent blocks).
    let block_sizes = |weighted| {
        let btf = btf_form_with(&a, weighted).unwrap();
        let mut sizes: Vec<usize> = btf.bounds.windows(2).map(|w| w[1] - w[0]).collect();
        sizes.sort_unstable();
        sizes
    };
    assert_eq!(block_sizes(true), block_sizes(false));
    let b = vec![1.0; a.ncols()];
    let cfg = SolverConfig::new().engine(Engine::Basker);
    let num = LinearSolver::analyze(&a, &cfg).unwrap().factor(&a).unwrap();
    let x = solved(&num, &b);
    assert!(relative_residual(&a, &x, &b) < 1e-10);
}

/// One NaN, `+∞` or `−∞` entry, on the diagonal or off it, through the
/// session of every engine: nothing panics. A factorization may refuse
/// the matrix (a NaN reaches a pivot as a singular one), and then its
/// error names the bad entry's row and column, not the pivot it
/// tripped; every refined solve that runs, single or batched, reports
/// a NaN residual and `!converged`, and so does the session's
/// `worst_residual`. Each value is solved by at least one engine, and
/// some refusal names an entry.
#[test]
fn non_finite_entries_never_read_as_converged() {
    let a = circuit(&CircuitParams {
        nsub: 3,
        sub_size: 12,
        ..CircuitParams::default()
    });
    let n = a.ncols();
    let off = (0..a.nnz())
        .find(|&k| a.rowind()[k] != col_of(&a, k))
        .unwrap();
    let diag = (0..a.nnz())
        .find(|&k| a.rowind()[k] == col_of(&a, k))
        .unwrap();
    let mut named = 0;
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut solved = 0;
        for at in [off, diag] {
            let mut m = a.clone();
            m.values_mut()[at] = bad;
            for engine in [Engine::Auto, Engine::Basker, Engine::Klu, Engine::Snlu] {
                let what = format!("{engine}, {bad} at entry {at}");
                let cfg = SessionConfig::new().engine(engine);
                let Ok(mut session) = SolveSession::new(&m, &cfg) else {
                    continue;
                };
                if let Err(e) = session.step(&m) {
                    let (row, column) = (m.rowind()[at], col_of(&m, at));
                    assert_eq!(
                        e,
                        SolverError::Sparse(SparseError::NonFinite { row, column }),
                        "{what}"
                    );
                    named += 1;
                    continue;
                }
                let mut x = vec![1.0; n];
                let q = session.solve_refined(&mut x).unwrap();
                assert!(!q.converged && q.residual.is_nan(), "{what}: {q:?}");
                let mut xs = vec![1.0; 3 * n];
                for q in session.solve_refined_multi(&mut xs).unwrap() {
                    assert!(!q.converged && q.residual.is_nan(), "{what}: {q:?}");
                }
                assert!(session.stats().worst_residual.is_nan(), "{what}");
                solved += 1;
            }
        }
        assert!(solved > 0, "{bad}: no engine solved");
    }
    assert!(named > 0, "no factorization refused a non-finite entry");
}

/// The column of stored entry `k`.
fn col_of(a: &CscMat, k: usize) -> usize {
    a.colptr().partition_point(|&p| p <= k) - 1
}

#[test]
fn huge_thread_request_is_clamped_and_works() {
    let a = mesh2d(10, 3);
    let sym = Basker::analyze(
        &a,
        &BaskerOptions {
            nthreads: 64,
            nd_threshold: 40,
            ..BaskerOptions::default()
        },
    )
    .unwrap();
    assert_eq!(sym.threads(), 64);
    let num = sym.factor(&a).unwrap();
    let b = vec![1.0; a.ncols()];
    assert!(relative_residual(&a, &solved(&num, &b), &b) < 1e-10);
}
