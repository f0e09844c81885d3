//! Differential property tests: every rung of the ladder must agree
//! with the portable scalar baseline on random inputs. Agreement is up
//! to rounding — the SIMD rungs contract multiply-add pairs into FMAs
//! and reassociate reductions, which legitimately moves the last few
//! ulps — so every comparison scales its tolerance by the number of
//! flops feeding the result and the magnitude of the operands, never
//! demanding bitwise equality.
//!
//! Slice lengths are drawn small enough to cover the width-shorter-
//! than-a-lane edge and the vector remainder loops, and the
//! vector ops additionally run at a drawn sub-slice offset so the
//! unaligned path is exercised (slices of a `Vec<f64>` are only
//! 8-byte aligned; the SIMD rungs must use unaligned loads).

use basker_kernels::{by_name, supported, Kernels};
use proptest::prelude::*;

fn scalar() -> &'static Kernels {
    by_name("scalar").expect("scalar rung always present")
}

fn variants() -> Vec<&'static Kernels> {
    supported()
        .into_iter()
        .filter(|k| k.name() != "scalar")
        .collect()
}

/// Deterministic pseudo-random f64 in [-1, 1] from a seed and index —
/// cheap matrix filler without threading a strategy per entry.
fn val(seed: u64, i: usize) -> f64 {
    let mut z = seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15);
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58476d1ce4e5b9);
    z ^= z >> 27;
    ((z >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
}

fn fill(seed: u64, n: usize) -> Vec<f64> {
    (0..n).map(|i| val(seed, i)).collect()
}

/// `a` and `b` must agree to within `flops` rounding steps at
/// magnitude `scale`.
fn assert_close(a: f64, b: f64, scale: f64, flops: usize, what: &str) {
    let tol = f64::EPSILON * (flops.max(1) as f64) * scale.max(1.0) * 8.0;
    assert!(
        (a - b).abs() <= tol,
        "{what}: {a} vs {b} differ beyond {tol:e}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn axpy_matches_scalar((n, off, alpha, seed) in (0usize..48, 0usize..5, -2.0f64..2.0, 0u64..u64::MAX)) {
        let x = fill(seed, n + off);
        let y0 = fill(seed ^ 1, n + off);
        let mut ys = y0.clone();
        scalar().axpy(&mut ys[off..], alpha, &x[off..]);
        for ks in variants() {
            let mut yv = y0.clone();
            ks.axpy(&mut yv[off..], alpha, &x[off..]);
            for i in 0..n + off {
                assert_close(ys[i], yv[i], 3.0, 2, &format!("{} axpy[{i}] n={n} off={off}", ks.name()));
            }
        }
    }

    #[test]
    fn dot_matches_scalar((n, off, seed) in (0usize..48, 0usize..5, 0u64..u64::MAX)) {
        let x = fill(seed, n + off);
        let y = fill(seed ^ 2, n + off);
        let ds = scalar().dot(&x[off..], &y[off..]);
        let scale: f64 = x[off..].iter().zip(&y[off..]).map(|(a, b)| (a * b).abs()).sum();
        for ks in variants() {
            let dv = ks.dot(&x[off..], &y[off..]);
            assert_close(ds, dv, scale, 2 * n, &format!("{} dot n={n} off={off}", ks.name()));
        }
    }

    #[test]
    fn gemv_and_rank1_match_scalar((m, k, seed) in (0usize..24, 0usize..24, 0u64..u64::MAX)) {
        let a = fill(seed, m * k);
        let x = fill(seed ^ 3, k);
        let y0 = fill(seed ^ 4, m);
        let mut ys = y0.clone();
        scalar().gemv_sub(&mut ys, &a, m, &x);
        for ks in variants() {
            let mut yv = y0.clone();
            ks.gemv_sub(&mut yv, &a, m, &x);
            for i in 0..m {
                assert_close(ys[i], yv[i], k as f64 + 1.0, 2 * k, &format!("{} gemv[{i}] m={m} k={k}", ks.name()));
            }
        }
        if k > 0 {
            let mut cs = fill(seed ^ 5, m * k);
            let c0 = cs.clone();
            scalar().rank1_sub(&mut cs, m, &y0, &x);
            for ks in variants() {
                let mut cv = c0.clone();
                ks.rank1_sub(&mut cv, m, &y0, &x);
                for i in 0..m * k {
                    assert_close(cs[i], cv[i], 2.0, 2, &format!("{} rank1[{i}] m={m} k={k}", ks.name()));
                }
            }
        }
    }

    #[test]
    fn gemm_matches_scalar((m, n, k, seed) in (0usize..20, 0usize..20, 0usize..20, 0u64..u64::MAX)) {
        let a = fill(seed, m * k);
        let b = fill(seed ^ 6, k * n);
        let c0 = fill(seed ^ 7, m * n);
        let mut cs = c0.clone();
        scalar().gemm_sub(&mut cs, m, &a, m, &b, k, m, n, k);
        for ks in variants() {
            let mut cv = c0.clone();
            ks.gemm_sub(&mut cv, m, &a, m, &b, k, m, n, k);
            for i in 0..m * n {
                assert_close(cs[i], cv[i], k as f64 + 1.0, 2 * k, &format!("{} gemm[{i}] m={m} n={n} k={k}", ks.name()));
            }
        }
    }

    #[test]
    fn trsv_matches_scalar((n, seed) in (1usize..32, 0u64..u64::MAX)) {
        // Unit-lower with mild off-diagonal entries keeps the solve
        // well conditioned, so scalar/SIMD answers stay comparable.
        let mut l = vec![0.0f64; n * n];
        for j in 0..n {
            for i in j + 1..n {
                l[j * n + i] = 0.4 * val(seed, j * n + i) / (1.0 + (i - j) as f64);
            }
        }
        let x0 = fill(seed ^ 8, n);
        let mut xs = x0.clone();
        scalar().trsv_lower_unit(&mut xs, &l, n);
        let scale = xs.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for ks in variants() {
            let mut xv = x0.clone();
            ks.trsv_lower_unit(&mut xv, &l, n);
            for i in 0..n {
                assert_close(xs[i], xv[i], scale, 2 * n, &format!("{} trsv[{i}] n={n}", ks.name()));
            }
        }
    }

    #[test]
    fn scatter_and_gather_match_scalar((m, alpha, seed) in (1usize..160, -2.0f64..2.0, 0u64..u64::MAX)) {
        // Index pattern mixing long consecutive runs with scattered
        // singles, so both the run-detected contiguous fast path and
        // the gather loop execute.
        let mut rows = Vec::new();
        let mut i = (seed % 3) as usize;
        let mut s = seed;
        while i < m {
            rows.push(i);
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            i += if s & 4 == 0 { 1 } else { 2 + (s % 7) as usize };
        }
        let vals = fill(seed ^ 9, rows.len());
        let x0 = fill(seed ^ 10, m);
        let mut xs = x0.clone();
        scalar().scatter_axpy(&mut xs, &rows, &vals, alpha);
        let gs = scalar().gather_dot(&x0, &rows, &vals);
        let scale: f64 = vals.iter().map(|v| v.abs() * 2.0).sum();
        for ks in variants() {
            let mut xv = x0.clone();
            ks.scatter_axpy(&mut xv, &rows, &vals, alpha);
            for j in 0..m {
                assert_close(xs[j], xv[j], 3.0, 2, &format!("{} scatter[{j}] m={m}", ks.name()));
            }
            let gv = ks.gather_dot(&x0, &rows, &vals);
            assert_close(gs, gv, scale, 2 * rows.len(), &format!("{} gather m={m}", ks.name()));
        }

        // Descending index order (Gilbert–Peierls hands topological,
        // not sorted, orders through scatter_axpy): must not panic and
        // must match the ascending result.
        let rrows: Vec<usize> = rows.iter().rev().copied().collect();
        let rvals: Vec<f64> = vals.iter().rev().copied().collect();
        for ks in variants().into_iter().chain([scalar()]) {
            let mut xr = x0.clone();
            ks.scatter_axpy(&mut xr, &rrows, &rvals, alpha);
            for j in 0..m {
                assert_close(xs[j], xr[j], 3.0, 2, &format!("{} rev-scatter[{j}] m={m}", ks.name()));
            }
            let gr = ks.gather_dot(&x0, &rrows, &rvals);
            assert_close(gs, gr, scale, 2 * rrows.len(), &format!("{} rev-gather m={m}", ks.name()));
        }
    }
}

/// The `K`-wide row update against `K` independent scalar-rung
/// `scatter_axpy` calls, on every rung: ascending lists with long runs
/// (which the `K = 1` delegation routes through the rung's `axpy`),
/// shuffled and descending lists, a repeated index, and the empty list.
#[test]
fn row_update_matches_column_by_column_scatter() {
    fn check<const K: usize>(ks: &Kernels, rows: &[usize], m: usize, what: &str) {
        let vals = fill(21, rows.len());
        let alpha: [f64; K] = std::array::from_fn(|c| val(22, c) * 2.0);
        let x0 = fill(23, m * K);
        let mut panel = x0.clone();
        ks.scatter_axpy_rows(
            basker_kernels::rows_mut::<K>(&mut panel),
            rows,
            &vals,
            &alpha,
        );
        for c in 0..K {
            let mut col: Vec<f64> = (0..m).map(|i| x0[i * K + c]).collect();
            scalar().scatter_axpy(&mut col, rows, &vals, alpha[c]);
            for i in 0..m {
                assert_close(
                    col[i],
                    panel[i * K + c],
                    3.0,
                    2 * rows.len(),
                    &format!("{} K={K} {what} col {c} row {i}", ks.name()),
                );
            }
        }
    }
    let m = 96;
    let ascending: Vec<usize> = [3, 9, 17].into_iter().chain(30..80).collect();
    let descending: Vec<usize> = ascending.iter().rev().copied().collect();
    let mut unsorted = ascending.clone();
    for i in 0..unsorted.len() {
        unsorted.swap(i, (i * 7 + 3) % ascending.len());
    }
    let repeated = vec![5, 40, 5, 41, 5];
    let lists: [(&str, &[usize]); 5] = [
        ("ascending", &ascending),
        ("descending", &descending),
        ("unsorted", &unsorted),
        ("repeated", &repeated),
        ("empty", &[]),
    ];
    for ks in supported() {
        for (what, rows) in lists {
            check::<1>(ks, rows, m, what);
            check::<2>(ks, rows, m, what);
            check::<4>(ks, rows, m, what);
            check::<8>(ks, rows, m, what);
        }
    }
}

/// Deterministic case big enough to cross the gemm cache-blocking
/// boundaries (MC/KC = 128): every rung must still agree with scalar.
#[test]
fn gemm_blocked_path_matches_scalar() {
    let (m, n, k) = (200usize, 37usize, 150usize);
    let a = fill(11, m * k);
    let b = fill(12, k * n);
    let c0 = fill(13, m * n);
    let mut cs = c0.clone();
    scalar().gemm_sub(&mut cs, m, &a, m, &b, k, m, n, k);
    for ks in variants() {
        let mut cv = c0.clone();
        ks.gemm_sub(&mut cv, m, &a, m, &b, k, m, n, k);
        for i in 0..m * n {
            assert_close(
                cs[i],
                cv[i],
                k as f64,
                2 * k,
                &format!("{} blocked gemm[{i}]", ks.name()),
            );
        }
    }
}

/// The ladder registry itself: scalar is always first, names are
/// unique, and `by_name` round-trips every supported rung.
#[test]
fn ladder_registry_is_consistent() {
    let rungs = supported();
    assert_eq!(rungs[0].name(), "scalar");
    let mut names: Vec<_> = rungs.iter().map(|k| k.name()).collect();
    names.dedup();
    assert_eq!(names.len(), rungs.len(), "duplicate rung names");
    assert!(by_name("nope").is_none());
    assert_eq!(by_name("scalar").unwrap().name(), "scalar");
    if let Some(s) = by_name("simd") {
        assert!(s.name() == "avx2+fma" || s.name() == "neon");
    }
}
