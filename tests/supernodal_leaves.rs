//! Integration: which ND leaves analyze hands to the supernodal kernel.
//!
//! A leaf is factored supernodally when its stacked block column is
//! structurally symmetric and at least half of its symbolic-Cholesky
//! flops lie in supernodes eight or more columns wide. The mesh's
//! leaves are; the circuit's, unsymmetric, are not.
//! `cargo test --test supernodal_leaves -- --nocapture` prints each
//! leaf's flop shares by supernode width and `sn_leaves`. The test pins
//! the decision, not timings.

use basker_repro::basker::structure::SN_MIN_WIDTH;
use basker_repro::basker::{Basker, BaskerOptions};
use basker_repro::basker_matgen::{circuit, mesh2d, CircuitParams};
use basker_repro::basker_sparse::CscMat;

/// Factors `a` at `nthreads`, prints every ND leaf's flop shares by
/// supernode width, and returns `sn_leaves`.
fn sn_leaves(what: &str, a: &CscMat, nthreads: usize) -> usize {
    let opts = BaskerOptions {
        nthreads,
        ..BaskerOptions::default()
    };
    let sym = Basker::analyze(a, &opts).unwrap();
    let s = sym.structure();
    for st in s.nd_blocks.iter().map(|nd| &nd.st) {
        for &v in &st.leaf_of_thread {
            let rows = st.nd.nodes[v].len();
            let Some(by) = st.leaf_flops_by_width(v) else {
                println!("{what} T = {nthreads}: leaf {v} ({rows} rows) on Gilbert–Peierls");
                continue;
            };
            let total: f64 = by.iter().map(|e| e.1).sum();
            let share = |lo: usize, hi: usize| {
                let f: f64 = by
                    .iter()
                    .filter(|e| (lo..hi).contains(&e.0))
                    .map(|e| e.1)
                    .sum();
                100.0 * f / total + 0.0
            };
            println!(
                "{what} T = {nthreads}: leaf {v} ({rows} rows) supernodal, widest {}, flops % by width \
                 1: {:.1}, 2-3: {:.1}, 4-7: {:.1}, 8-15: {:.1}, 16-31: {:.1}, 32-63: {:.1}, ≥ 64: {:.1}",
                by.last().map_or(0, |e| e.0),
                share(1, 2),
                share(2, 4),
                share(4, SN_MIN_WIDTH),
                share(SN_MIN_WIDTH, 16),
                share(16, 32),
                share(32, 64),
                share(64, usize::MAX),
            );
        }
    }
    let num = sym.factor(a).unwrap();
    println!("{what} T = {nthreads}: sn_leaves {}", num.stats.sn_leaves);
    num.stats.sn_leaves
}

#[test]
fn mesh_leaves_are_supernodal_and_circuit_leaves_are_not() {
    let mesh = mesh2d(60, 1);
    assert_eq!(sn_leaves("mesh2d(60)", &mesh, 2), 2);
    assert_eq!(sn_leaves("mesh2d(60)", &mesh, 1), 1);
    assert_eq!(
        sn_leaves("circuit", &circuit(&CircuitParams::default()), 2),
        0
    );
}
