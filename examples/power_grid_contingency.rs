//! Power-grid contingency screening: repeatedly solve a grid system with
//! single-branch outages. Power grids are the extreme BTF case (100 % of
//! rows in tiny blocks — paper Table I's `RS_*` rows), so the block
//! driver that `Engine::Auto` runs factors them almost entirely through
//! its embarrassingly parallel fine-BTF path.
//!
//! Run with: `cargo run --release --example power_grid_contingency`

use basker_repro::prelude::*;
use std::time::Instant;

fn main() {
    let grid = powergrid(&PowergridParams {
        nfeeders: 60,
        feeder_len: 40,
        loop_prob: 0.2,
        seed: 11,
    });
    let n = grid.nrows();
    println!("grid: n = {n}, |A| = {}", grid.nnz());

    let cfg = SessionConfig::new().engine(Engine::Auto).threads(2);
    let mut session = SolveSession::new(&grid, &cfg).expect("analyze");
    println!("Engine::Auto runs `{}`", session.engine());

    session.step(&grid).expect("base factor");
    let stats = session.stats().last_factor;
    println!(
        "base case factored: |L+U| = {} (fill density {:.2}), {} BTF blocks",
        stats.lu_nnz,
        stats.fill_density(grid.nnz()),
        stats.btf_blocks
    );

    // Nominal injections.
    let b: Vec<f64> = (0..n)
        .map(|i| if i % 17 == 0 { 1.0 } else { 0.0 })
        .collect();
    let mut x0 = b.clone();
    session.solve(&mut x0).expect("base solve");

    // Contingencies: weaken one feeder-coupling entry at a time (same
    // pattern, new values) and re-solve — the session takes the
    // refactor fast path and re-pivots on its own if an outage ever
    // collapses a pivot.
    let t0 = Instant::now();
    let ncontingencies = 25usize;
    let mut worst_shift = 0.0f64;
    let mut x = vec![0.0; n];
    for c in 0..ncontingencies {
        let mut vals = grid.values().to_vec();
        // scale the c-th "branch" (an off-diagonal entry) toward an outage
        let mut seen = 0usize;
        for (k, &r) in grid.rowind().iter().enumerate() {
            let col = grid.colptr().partition_point(|&p| p <= k).saturating_sub(1);
            if r != col {
                if seen == c * 7 {
                    vals[k] *= 1e-3;
                    break;
                }
                seen += 1;
            }
        }
        // SAFETY: pattern arrays are copied from the valid `grid` matrix;
        // `vals` maps its values 1:1.
        let outage = unsafe {
            CscMat::from_parts_unchecked(n, n, grid.colptr().to_vec(), grid.rowind().to_vec(), vals)
        };
        session.step(&outage).expect("step");
        x.copy_from_slice(&b);
        let q = session.solve_refined(&mut x).expect("solve");
        assert!(
            q.residual < 1e-10,
            "contingency {c}: residual {}",
            q.residual
        );
        let shift = x
            .iter()
            .zip(x0.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        worst_shift = worst_shift.max(shift);
    }
    println!(
        "{} contingencies screened in {:.2} ms; worst voltage shift {:.3e}",
        ncontingencies,
        t0.elapsed().as_secs_f64() * 1e3,
        worst_shift
    );
    println!("ok");
}
