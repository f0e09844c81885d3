//! Property-based tests over the full pipeline: random diagonally
//! dominant sparse systems must factor and solve accurately with every
//! engine, all engines (and `Engine::Auto`) must agree on random
//! circuit/mesh/powergrid matrices, orderings must produce valid
//! permutations, and the BTF form must be structurally correct.

mod common;

use basker_ordering::btf::{btf_form, is_upper_block_triangular};
use basker_ordering::matching::max_transversal;
use basker_repro::prelude::*;
use basker_sparse::spmv::spmv;
use common::analyze_factor_solve as unified_solve;
use proptest::prelude::*;

/// Strategy: a random square, structurally nonsingular, diagonally
/// dominant sparse matrix of dimension 5..60.
fn arb_matrix() -> impl Strategy<Value = CscMat> {
    (
        5usize..60,
        proptest::collection::vec((0usize..60, 0usize..60, -2.0f64..2.0), 0..240),
        0u64..1000,
    )
        .prop_map(|(n, entries, _seed)| {
            let mut t = TripletMat::new(n, n);
            let mut rowsum = vec![0.0f64; n];
            let mut offdiag: Vec<(usize, usize, f64)> = Vec::new();
            for (i, j, v) in entries {
                let (i, j) = (i % n, j % n);
                if i != j && v != 0.0 {
                    offdiag.push((i, j, v));
                    rowsum[i] += v.abs();
                }
            }
            for (i, j, v) in offdiag {
                t.push(i, j, v);
            }
            for i in 0..n {
                // strict diagonal dominance => nonsingular, every pivot
                // strategy safe
                t.push(i, i, rowsum[i] + 1.0);
            }
            t.to_csc()
        })
}

/// Strategy: a random instance of one of the paper's three workload
/// families — circuit, mesh, powergrid.
fn arb_workload() -> impl Strategy<Value = CscMat> {
    (0usize..3, 2usize..6, 10usize..32, 0u64..500).prop_map(|(family, scale, size, seed)| {
        match family {
            0 => circuit(&CircuitParams {
                nsub: scale + 1,
                sub_size: size,
                feedthrough: (seed % 10) as f64 / 10.0,
                ..CircuitParams::default()
            }),
            1 => mesh2d(4 + size / 3, seed % 7),
            _ => powergrid(&PowergridParams {
                nfeeders: 2 + scale,
                feeder_len: size,
                loop_prob: 0.2,
                seed,
            }),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn basker_solves_random_dominant_systems(a in arb_matrix()) {
        let n = a.ncols();
        let xtrue: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
        let b = spmv(&a, &xtrue);
        let cfg = SolverConfig::new().engine(Engine::Basker).threads(2).nd_threshold(24);
        let num = LinearSolver::analyze(&a, &cfg).unwrap().factor(&a).unwrap();
        let mut x = b.clone();
        num.solve_in_place(&mut x, &mut SolveWorkspace::new()).unwrap();
        prop_assert!(relative_residual(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn klu_solves_random_dominant_systems(a in arb_matrix()) {
        let n = a.ncols();
        let xtrue: Vec<f64> = (0..n).map(|i| 0.5 * (i % 7) as f64 - 1.0).collect();
        let b = spmv(&a, &xtrue);
        let (_, x) = unified_solve(Engine::Klu, &a, &b);
        prop_assert!(relative_residual(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn snlu_solves_random_dominant_systems(a in arb_matrix()) {
        let n = a.ncols();
        let xtrue: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 0.4).collect();
        let b = spmv(&a, &xtrue);
        let (_, x) = unified_solve(Engine::Snlu, &a, &b);
        prop_assert!(relative_residual(&a, &x, &b) < 1e-8);
    }

    /// Cross-engine agreement on the paper's workload families: all
    /// three engines and `Engine::Auto` (the block driver) must solve the
    /// same system to the same answer within tolerance.
    #[test]
    fn engines_agree_on_workload_families(a in arb_workload()) {
        let n = a.ncols();
        let xtrue: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 3) % 7) as f64 * 0.5).collect();
        let b = spmv(&a, &xtrue);
        let (_, xk) = unified_solve(Engine::Klu, &a, &b);
        let (_, xb) = unified_solve(Engine::Basker, &a, &b);
        let (_, xs) = unified_solve(Engine::Snlu, &a, &b);
        let (picked, xa) = unified_solve(Engine::Auto, &a, &b);
        prop_assert!(picked != Engine::Auto, "auto must resolve");
        for i in 0..n {
            let scale = 1.0 + xtrue[i].abs();
            prop_assert!((xk[i] - xtrue[i]).abs() < 1e-7 * scale, "klu at {i}");
            prop_assert!((xb[i] - xk[i]).abs() < 1e-7 * scale, "basker vs klu at {i}");
            prop_assert!((xs[i] - xk[i]).abs() < 1e-5 * scale, "snlu vs klu at {i}");
            prop_assert!((xa[i] - xk[i]).abs() < 1e-5 * scale, "auto({picked}) vs klu at {i}");
        }
    }

    #[test]
    fn btf_form_is_valid(a in arb_matrix()) {
        let f = btf_form(&a).unwrap();
        let p = f.permute(&a);
        prop_assert!(is_upper_block_triangular(&p, &f.bounds));
        for k in 0..a.ncols() {
            prop_assert!(p.get(k, k) != 0.0, "zero diagonal at {k}");
        }
        // bounds partition 0..n
        prop_assert_eq!(*f.bounds.first().unwrap(), 0);
        prop_assert_eq!(*f.bounds.last().unwrap(), a.ncols());
    }

    #[test]
    fn matching_is_maximum_on_dominant_patterns(a in arb_matrix()) {
        // dominant construction guarantees a zero-free diagonal, so the
        // maximum matching must be perfect.
        let m = max_transversal(&a);
        prop_assert!(m.is_perfect());
    }

    #[test]
    fn amd_and_nd_produce_valid_permutations(a in arb_matrix()) {
        let amd = basker_ordering::amd_order(&a);
        prop_assert_eq!(amd.len(), a.ncols());
        let nd = basker_ordering::nested_dissection(&a, 2);
        prop_assert_eq!(nd.perm.len(), a.ncols());
        let total: usize = nd.nodes.iter().map(|n| n.range.len()).sum();
        prop_assert_eq!(total, a.ncols());
    }

    #[test]
    fn solver_agreement(a in arb_matrix()) {
        let n = a.ncols();
        let xtrue: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let b = spmv(&a, &xtrue);
        let (_, xb) = unified_solve(Engine::Basker, &a, &b);
        let (_, xk) = unified_solve(Engine::Klu, &a, &b);
        for (u, v) in xb.iter().zip(xk.iter()) {
            prop_assert!((u - v).abs() < 1e-8 * (1.0 + u.abs()));
        }
    }
}
