//! Integration: exercise the interplay of Basker's two execution paths
//! (fine BTF vs fine ND) and the BTF coupling solve across them.

mod common;

use basker_repro::prelude::*;
use basker_sparse::spmv::spmv;
use common::solve_fresh as solved;

/// A matrix engineered to hit both paths: one large irreducible mesh
/// block, dozens of small blocks, and upper-triangular couplings.
fn mixed(nsmall: usize, mesh_k: usize) -> CscMat {
    let g = mesh2d(mesh_k, 3);
    let gn = g.nrows();
    let n = gn + 3 * nsmall;
    let mut t = TripletMat::new(n, n);
    for (i, j, v) in g.iter() {
        t.push(i, j, v);
    }
    // small 3x3 cycles
    for s in 0..nsmall {
        let o = gn + 3 * s;
        for k in 0..3 {
            t.push(o + k, o + k, 6.0 + k as f64);
            t.push(o + k, o + (k + 1) % 3, -1.0);
        }
    }
    // couplings: mesh rows reference small-block columns (upper block)
    for s in 0..nsmall {
        t.push(s % gn, gn + 3 * s, 0.5);
    }
    t.to_csc()
}

#[test]
fn mixed_paths_solve_correctly() {
    let a = mixed(20, 12);
    for p in [1usize, 2, 4] {
        let sym = Basker::analyze(
            &a,
            &BaskerOptions {
                nthreads: p,
                nd_threshold: 100,
                ..BaskerOptions::default()
            },
        )
        .unwrap();
        // both kinds must be present
        let st = sym.structure();
        assert!(st.nblocks() > 10);
        assert!(st.small_block_fraction() > 0.0 && st.small_block_fraction() < 1.0);
        let num = sym.factor(&a).unwrap();
        assert_eq!(num.stats.nd_blocks, 1);
        let xtrue: Vec<f64> = (0..a.ncols()).map(|i| (i % 6) as f64 - 2.0).collect();
        let b = spmv(&a, &xtrue);
        let x = solved(&num, &b);
        assert!(relative_residual(&a, &x, &b) < 1e-10, "p={p}");
    }
}

#[test]
fn nd_threshold_switches_paths() {
    let a = mesh2d(10, 4); // n = 100, irreducible

    // low threshold: ND path
    let sym = Basker::analyze(
        &a,
        &BaskerOptions {
            nthreads: 2,
            nd_threshold: 50,
            ..BaskerOptions::default()
        },
    )
    .unwrap();
    let num = sym.factor(&a).unwrap();
    assert_eq!(num.stats.nd_blocks, 1);
    // high threshold: small path (single serial GP block)
    let sym = Basker::analyze(
        &a,
        &BaskerOptions {
            nthreads: 2,
            nd_threshold: 1000,
            ..BaskerOptions::default()
        },
    )
    .unwrap();
    let num2 = sym.factor(&a).unwrap();
    assert_eq!(num2.stats.nd_blocks, 0);
    // both give the same answer
    let b = vec![1.0; a.ncols()];
    let x1 = solved(&num, &b);
    let x2 = solved(&num2, &b);
    for (u, v) in x1.iter().zip(x2.iter()) {
        assert!((u - v).abs() < 1e-9);
    }
}

#[test]
fn btf_disabled_still_works() {
    let a = mixed(8, 8);
    let sym = Basker::analyze(
        &a,
        &BaskerOptions {
            nthreads: 2,
            use_btf: false,
            nd_threshold: 50,
            ..BaskerOptions::default()
        },
    )
    .unwrap();
    assert_eq!(sym.structure().nblocks(), 1);
    let num = sym.factor(&a).unwrap();
    let b = vec![1.0; a.ncols()];
    let x = solved(&num, &b);
    assert!(relative_residual(&a, &x, &b) < 1e-10);
}

#[test]
fn stats_reflect_structure() {
    let a = mixed(15, 10);
    let sym = Basker::analyze(
        &a,
        &BaskerOptions {
            nthreads: 2,
            nd_threshold: 80,
            ..BaskerOptions::default()
        },
    )
    .unwrap();
    let num = sym.factor(&a).unwrap();
    assert!(num.stats.btf_blocks > 10);
    assert_eq!(num.stats.threads, 2);
    assert!(num.stats.lu_nnz > 0);
    assert!(num.total_storage_nnz() > num.lu_nnz());
}
