//! Integration: the quality of the nested-dissection order.
//!
//! On a 2-D mesh the one-level ND order (a thin separator, leaves
//! ordered by halo-aware AMD) must cost about what whole-matrix AMD
//! costs, and Basker's fill at two threads must stay near its fill at
//! one. `cargo test --test ordering_quality -- --nocapture` prints, for
//! `mesh2d(60 | 100 | 150)`, the root separator's rows and the ND/AMD
//! ratio of symbolic Cholesky flops, and the two fills of `mesh2d(60)`.

use basker_repro::basker::{Basker, BaskerOptions};
use basker_repro::basker_matgen::mesh2d;
use basker_repro::basker_ordering::symbolic::symbolic_cholesky;
use basker_repro::basker_ordering::{amd_order, nested_dissection};
use basker_repro::basker_sparse::{CscMat, Perm};

/// `Σ_j |L_j|²` of the symbolic Cholesky factor of `A[p, p]`'s
/// symmetrized pattern.
fn cholesky_flops(a: &CscMat, p: &Perm) -> f64 {
    let l = symbolic_cholesky(&Perm::permute_both(p, p, &a.symmetrize()));
    (0..l.ncols())
        .map(|j| (l.col(j).len() as f64).powi(2))
        .sum()
}

#[test]
fn nd_costs_about_what_amd_costs() {
    for k in [60, 100, 150] {
        let a = mesh2d(k, 1);
        let nd = nested_dissection(&a, 1);
        let (nd_flops, amd_flops) = (
            cholesky_flops(&a, &nd.perm),
            cholesky_flops(&a, &amd_order(&a)),
        );
        let ratio = nd_flops / amd_flops;
        println!(
            "mesh2d({k}): separator rows {}, Cholesky flops ND {nd_flops:.4e} / AMD {amd_flops:.4e} = {ratio:.3}",
            nd.nodes[nd.root()].len()
        );
        if k == 60 {
            assert!(ratio <= 1.15, "mesh2d(60): ND costs {ratio:.3}x AMD");
        }
    }
}

#[test]
fn threaded_fill_stays_near_serial_fill() {
    let a = mesh2d(60, 1);
    let lu_nnz = |nthreads| {
        let opts = BaskerOptions {
            nthreads,
            ..BaskerOptions::default()
        };
        let num = Basker::analyze(&a, &opts).unwrap().factor(&a).unwrap();
        num.stats.lu_nnz
    };
    let (two, one) = (lu_nnz(2), lu_nnz(1));
    println!("mesh2d(60): lu_nnz T = 2 {two}, T = 1 {one}");
    assert!(
        two as f64 <= 1.08 * one as f64,
        "two threads fill {two}, one thread {one}"
    );
}
