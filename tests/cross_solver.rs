//! Integration: the three engines must agree on the solution — they are
//! different algorithms for the same linear system — and the unified
//! `LinearSolver` lifecycle must drive each of them identically.

mod common;

use basker_repro::prelude::*;
use basker_sparse::spmv::spmv;
use basker_sparse::util::approx_eq_vec;

fn solve_with(engine: Engine, a: &CscMat, b: &[f64]) -> Vec<f64> {
    let cfg = SolverConfig::new()
        .engine(engine)
        .threads(2)
        .nd_threshold(64);
    let solver = LinearSolver::analyze(a, &cfg).unwrap();
    assert_eq!(solver.engine(), engine);
    common::solve_fresh(&solver.factor(a).unwrap(), b)
}

fn agree_on(a: &CscMat, tol: f64) {
    let xtrue: Vec<f64> = (0..a.ncols())
        .map(|i| ((i % 11) as f64 - 5.0) * 0.3)
        .collect();
    let b = spmv(a, &xtrue);

    let xb = solve_with(Engine::Basker, a, &b);
    let xk = solve_with(Engine::Klu, a, &b);
    let xs = solve_with(Engine::Snlu, a, &b);

    assert!(approx_eq_vec(&xb, &xtrue, tol), "basker vs truth");
    assert!(approx_eq_vec(&xk, &xtrue, tol), "klu vs truth");
    assert!(approx_eq_vec(&xs, &xtrue, tol * 100.0), "snlu vs truth");
    assert!(approx_eq_vec(&xb, &xk, tol), "basker vs klu");

    // Auto (the block driver) must agree too.
    let (picked, xa) = common::analyze_factor_solve(Engine::Auto, a, &b);
    assert!(
        approx_eq_vec(&xa, &xtrue, tol * 100.0),
        "auto ({picked}) vs truth"
    );
}

#[test]
fn agreement_on_circuit() {
    let a = circuit(&CircuitParams {
        nsub: 8,
        sub_size: 48,
        feedthrough: 0.5,
        ..CircuitParams::default()
    });
    agree_on(&a, 1e-8);
}

#[test]
fn agreement_on_powergrid() {
    let a = powergrid(&PowergridParams {
        nfeeders: 15,
        feeder_len: 25,
        loop_prob: 0.2,
        seed: 77,
    });
    agree_on(&a, 1e-8);
}

#[test]
fn agreement_on_mesh() {
    agree_on(&mesh2d(18, 5), 1e-8);
}

#[test]
fn agreement_on_mesh3d() {
    agree_on(&mesh3d(6, 5), 1e-8);
}

/// A circuit, then one irreducible mesh block, then a run of 1×1
/// blocks, coupled strictly upper-triangular: both block kinds the
/// driver has (fine-BTF GP blocks and an ND block) in one matrix.
fn circuit_with_mesh_tail() -> CscMat {
    let c = circuit(&CircuitParams {
        nsub: 4,
        sub_size: 40,
        feedthrough: 0.4,
        ..CircuitParams::default()
    });
    let m = mesh2d(12, 3);
    let (nc, nm, tiny) = (c.nrows(), m.nrows(), 30);
    let n = nc + nm + tiny;
    let mut t = TripletMat::new(n, n);
    for (i, j, v) in c.iter() {
        t.push(i, j, v);
    }
    for (i, j, v) in m.iter() {
        t.push(nc + i, nc + j, v);
    }
    for q in 0..tiny {
        t.push(nc + nm + q, nc + nm + q, 4.0 + (q % 3) as f64);
        t.push((q * 11) % nc, nc + nm + q, 0.25);
        t.push(nc + (q * 7) % nm, nc + nm + q, -0.5);
    }
    for q in 0..24 {
        t.push((q * 5) % nc, nc + (q * 13) % nm, 0.3);
    }
    t.to_csc()
}

/// `k` right-hand sides packed column-major; column 1 (when there is
/// one) is all zeros, so panels mix zero and non-zero lanes.
fn packed_rhs(n: usize, k: usize) -> Vec<f64> {
    (0..k * n)
        .map(|t| match (t / n, t % n) {
            (1, _) => 0.0,
            (c, i) => ((i * (2 * c + 3) + c) % 17) as f64 * 0.25 - 2.0,
        })
        .collect()
}

/// The panel solves of `num` against its own single solves, for every
/// panel width and remainder.
fn check_panels(num: &impl LuNumeric, n: usize, by_column: bool, what: &str) {
    let mut ws = SolveWorkspace::new();
    for k in [1usize, 2, 3, 7, 8, 9, 17] {
        let at = format!("{what}, k = {k}");
        let b = packed_rhs(n, k);
        let mut panel = b.clone();
        let sweeps = num.solve_multi_in_place(&mut panel, &mut ws).unwrap();
        match by_column {
            true => assert_eq!(sweeps, k, "{at}"),
            false => assert_eq!(sweeps, k / 8 + (k % 8).count_ones() as usize, "{at}"),
        }
        // Repeatable bit for bit on the same factors.
        let mut again = b.clone();
        num.solve_multi_in_place(&mut again, &mut ws).unwrap();
        assert_eq!(panel, again, "{at}: not repeatable");
        for c in 0..k {
            let mut x = b[c * n..(c + 1) * n].to_vec();
            num.solve_in_place(&mut x, &mut ws).unwrap();
            let got = &panel[c * n..(c + 1) * n];
            if k == 1 {
                assert_eq!(got, &x[..], "{at}: k = 1 is the single solve");
            }
            let scale = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for i in 0..n {
                assert!(
                    (got[i] - x[i]).abs() <= 1e-12 * scale,
                    "{at}: column {c} row {i}: {} vs {}",
                    got[i],
                    x[i]
                );
            }
        }
    }
    // A ragged block is an error through the trait...
    let mut ragged = vec![1.0; 2 * n + 1];
    assert!(matches!(
        num.solve_multi_in_place(&mut ragged, &mut ws),
        Err(SolverError::Sparse(SparseError::DimensionMismatch { .. }))
    ));
}

/// The panel solve against the same factors' single solves, for every
/// panel width and remainder, engine, block kind and team width.
#[test]
fn multi_rhs_consistency() {
    let cases = [
        (
            "power grid of tiny blocks",
            powergrid(&PowergridParams {
                nfeeders: 12,
                feeder_len: 20,
                loop_prob: 0.15,
                seed: 5,
            }),
        ),
        ("circuit + mesh + tiny tail", circuit_with_mesh_tail()),
        ("one-block mesh", mesh2d(14, 2)),
    ];
    for threads in [1, 2, 4] {
        for (what, a) in &cases {
            let n = a.ncols();
            let cfg = |engine| {
                SolverConfig::new()
                    .engine(engine)
                    .threads(threads)
                    .nd_threshold(64)
            };
            for engine in [Engine::Klu, Engine::Basker, Engine::Snlu] {
                let num = LinearSolver::analyze(a, &cfg(engine))
                    .unwrap()
                    .factor(a)
                    .unwrap();
                let at = format!("{what}, {engine} x{threads}");
                check_panels(&num, n, engine == Engine::Snlu, &at);
            }
        }
    }

    // ... and a panic through the engines' inherent methods.
    let a = &cases[0].1;
    let n = a.ncols();
    let klu = KluSymbolic::analyze(a, &KluOptions::default())
        .unwrap()
        .factor(a)
        .unwrap();
    let basker = Basker::analyze(a, &BaskerOptions::default())
        .unwrap()
        .factor(a)
        .unwrap();
    let ragged = |solve: &dyn Fn(&mut [f64], &mut SolveWorkspace)| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            solve(&mut vec![1.0; n + 1], &mut SolveWorkspace::new())
        }))
    };
    assert!(ragged(&|xs, ws| klu.solve_multi_in_place(xs, ws)).is_err());
    assert!(ragged(&|xs, ws| basker.solve_multi_in_place(xs, ws)).is_err());
}

/// One irreducible mesh block, then `tiny` 1×1 blocks it couples to.
fn mesh_with_tail(k: usize, tiny: usize) -> CscMat {
    let g = mesh2d(k, 3);
    let gn = g.nrows();
    let mut t = TripletMat::new(gn + tiny, gn + tiny);
    for (i, j, v) in g.iter() {
        t.push(i, j, v);
    }
    for q in gn..gn + tiny {
        t.push(q, q, 5.0 + (q % 4) as f64);
        t.push(q % gn, q, -0.25);
    }
    t.to_csc()
}

/// `Engine::Hybrid` is an input alias of `Engine::Basker`: through
/// `LinearSolver`, at every width, both run the block driver and give
/// bit-identical solutions and equal counts — on a mesh block with a
/// tail of tiny blocks and on a lone mesh block, whose mesh a serial
/// hybrid plan once sent whole to the supernodal engine.
#[test]
fn hybrid_is_the_basker_driver() {
    for a in [mesh_with_tail(12, 40), mesh2d(14, 2)] {
        let b: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.3).sin()).collect();
        for threads in [1, 2, 4] {
            let run = |engine| {
                let cfg = SolverConfig::new().engine(engine).threads(threads);
                let solver = LinearSolver::analyze(&a, &cfg).unwrap();
                assert_eq!(solver.engine(), Engine::Basker, "{engine} x{threads}");
                let num = solver.factor(&a).unwrap();
                let x = common::solve_fresh(&num, &b);
                assert!(relative_residual(&a, &x, &b) < 1e-10, "{engine} x{threads}");
                let st = num.stats();
                let bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                (bits, st.engine, st.lu_nnz, st.flops, st.btf_blocks)
            };
            assert_eq!(run(Engine::Hybrid), run(Engine::Basker), "x{threads}");
        }
    }
}
