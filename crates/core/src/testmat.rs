//! Matrices and checks shared by this crate's unit tests.

use crate::hybrid::{HybridLu, HybridOptions};
use crate::parnum::NdFactors;
use crate::{Basker, BaskerNumeric, BaskerOptions, BlockFactors};
use basker_klu::gp::BlockFactor;
use basker_sparse::spmv::spmv;
use basker_sparse::util::relative_residual;
use basker_sparse::{CscMat, SolveWorkspace, TripletMat};

/// Diagonally dominant 5-point grid with unsymmetric values: one
/// irreducible block of `k²` rows.
pub(crate) fn grid2d_unsym(k: usize) -> CscMat {
    let n = k * k;
    let idx = |r: usize, c: usize| r * k + c;
    let mut t = TripletMat::new(n, n);
    for r in 0..k {
        for c in 0..k {
            let u = idx(r, c);
            t.push(u, u, 8.0 + (u % 3) as f64);
            if r + 1 < k {
                t.push(u, idx(r + 1, c), -1.0);
                t.push(idx(r + 1, c), u, -2.0);
            }
            if c + 1 < k {
                t.push(u, idx(r, c + 1), -1.5);
                t.push(idx(r, c + 1), u, -0.5);
            }
        }
    }
    t.to_csc()
}

/// Heterogeneous BTF: one large grid block + a run of tiny blocks,
/// coupled strictly upper-triangular.
pub(crate) fn heterogeneous(k: usize, tiny: usize) -> CscMat {
    let g = grid2d_unsym(k);
    let n = g.nrows() + tiny;
    let mut t = TripletMat::new(n, n);
    for (i, j, v) in g.iter() {
        t.push(i, j, v);
    }
    for q in g.nrows()..n {
        t.push(q, q, 5.0 + (q % 4) as f64);
        if q + 1 < n {
            t.push(q, q + 1, -0.25);
        }
    }
    t.push(3, g.nrows() + 1, 0.5);
    t.to_csc()
}

/// [`heterogeneous`] with `mids` irreducible ring blocks of 70, 77, …
/// rows (above the classifier's default `gp_small`, below the default
/// `nd_threshold`; sparse, so classified Gilbert–Peierls) between the
/// grid and the tiny tail.
pub(crate) fn with_mid_blocks(k: usize, mids: usize, tiny: usize) -> CscMat {
    let h = heterogeneous(k, tiny);
    let sizes: Vec<usize> = (0..mids).map(|q| 70 + 7 * q).collect();
    let n = h.nrows() + sizes.iter().sum::<usize>();
    let mut t = TripletMat::new(n, n);
    for (i, j, v) in h.iter() {
        t.push(i, j, v);
    }
    let mut o = h.nrows();
    for m in sizes {
        for i in 0..m {
            t.push(o + i, o + i, 6.0 + (i % 3) as f64);
            t.push(o + i, o + (i + 1) % m, -1.0);
            t.push(o + (i + 5) % m, o + i, 0.5);
        }
        t.push(7, o + 2, 0.25);
        o += m;
    }
    t.to_csc()
}

/// Nothing but tiny BTF blocks: `count` two-by-two blocks, each
/// followed by a singleton, coupled strictly upper-triangular.
pub(crate) fn tiny_blocks(count: usize) -> CscMat {
    let n = 3 * count;
    let mut t = TripletMat::new(n, n);
    for q in 0..count {
        let i = 3 * q;
        t.push(i, i, 6.0 + (q % 5) as f64);
        t.push(i, i + 1, 1.0);
        t.push(i + 1, i, -2.0);
        t.push(i + 1, i + 1, 4.0);
        t.push(i + 2, i + 2, 3.0 + (q % 3) as f64);
        if i + 3 < n {
            t.push(i + 1, i + 2, 0.5);
            t.push(i + 2, i + 4, -0.25);
        }
    }
    t.to_csc()
}

/// `a`'s pattern with every value mapped through `f`.
pub(crate) fn revalued(a: &CscMat, f: impl Fn(f64) -> f64) -> CscMat {
    let mut m = a.clone();
    for v in m.values_mut() {
        *v = f(*v);
    }
    m
}

pub(crate) fn opts(nthreads: usize, nd_threshold: usize) -> BaskerOptions {
    BaskerOptions {
        nthreads,
        nd_threshold,
        ..BaskerOptions::default()
    }
}

/// One handle per plan kind over the same options: the paper plan and
/// the classified plan (tiny blocks up to `gp_small` rows pinned to GP).
pub(crate) fn both_plan_kinds(a: &CscMat, base: &BaskerOptions, gp_small: usize) -> [Basker; 2] {
    let o = HybridOptions {
        base: base.clone(),
        gp_small,
        ..HybridOptions::default()
    };
    [Basker::analyze(a, base).unwrap(), classified(a, &o)]
}

/// The driver handle of a plan classified under `o`.
pub(crate) fn classified(a: &CscMat, o: &HybridOptions) -> Basker {
    Basker::clone(&HybridLu::analyze(a, o).unwrap())
}

/// Every factor value of a numeric, in storage order.
pub(crate) fn factor_values(num: &BaskerNumeric) -> Vec<f64> {
    let mut out = Vec::new();
    for f in &num.factors {
        match f {
            BlockFactors::Gp(BlockFactor::Singleton(pivot)) => out.push(*pivot),
            BlockFactors::Gp(BlockFactor::Full(blu)) => {
                out.extend_from_slice(blu.l.values());
                out.extend_from_slice(blu.u.values());
            }
            BlockFactors::Sn(sn) => {
                out.extend_from_slice(sn.num.l().values());
                out.extend_from_slice(sn.num.u().values());
            }
            BlockFactors::Nd(part) => {
                for blu in &part.f.fact_diag {
                    out.extend_from_slice(blu.l.values());
                    out.extend_from_slice(blu.u.values());
                    for b in &blu.below {
                        out.extend_from_slice(b.values());
                    }
                }
                for panel in part.f.fact_upper.iter().flatten() {
                    out.extend_from_slice(panel.values());
                }
            }
        }
    }
    out.extend_from_slice(num.offdiag.values());
    out
}

/// Every pivot sequence of a numeric's Gilbert–Peierls and ND blocks,
/// in storage order.
pub(crate) fn factor_pivots(num: &BaskerNumeric) -> Vec<usize> {
    let mut out = Vec::new();
    for f in &num.factors {
        match f {
            BlockFactors::Gp(BlockFactor::Full(blu)) => out.extend_from_slice(&blu.pinv),
            BlockFactors::Nd(part) => {
                for blu in &part.f.fact_diag {
                    out.extend_from_slice(&blu.pinv);
                }
            }
            _ => {}
        }
    }
    out
}

/// The factors of ND block `b`.
pub(crate) fn nd_factors(num: &BaskerNumeric, b: usize) -> &NdFactors {
    match &num.factors[b] {
        BlockFactors::Nd(part) => &part.f,
        _ => panic!("block {b} is not an ND block"),
    }
}

pub(crate) fn solve(num: &BaskerNumeric, b: &[f64]) -> Vec<f64> {
    let mut x = b.to_vec();
    num.solve_in_place(&mut x, &mut SolveWorkspace::new());
    x
}

/// Solves against a known solution and bounds the residual.
pub(crate) fn check_solve(num: &BaskerNumeric, a: &CscMat, tol: f64) {
    let xtrue: Vec<f64> = (0..a.ncols()).map(|i| 0.5 + (i % 5) as f64).collect();
    let b = spmv(a, &xtrue);
    let res = relative_residual(a, &solve(num, &b), &b);
    assert!(res < tol, "residual {res}");
}

/// The refactor contract under `sym`'s plan: after `factor(a)`,
/// a value-only `refactor(a2)` solves like a fresh `factor(a2)`.
pub(crate) fn assert_refactor_matches_factor(sym: &Basker, a: &CscMat) {
    let a2 = revalued(a, |v| v * 1.25 + 0.001);
    let mut num = sym.factor(a).unwrap();
    num.refactor(&a2).unwrap();
    assert_solves_like_fresh(&num, &sym.factor(&a2).unwrap(), &a2);
}

/// `num`, refactored to `a2`'s values, against a fresh factor of `a2`:
/// both solve `a2`, to within 1e-12 of each other.
pub(crate) fn assert_solves_like_fresh(num: &BaskerNumeric, fresh: &BaskerNumeric, a2: &CscMat) {
    check_solve(num, a2, 1e-8);
    let b: Vec<f64> = (0..a2.ncols()).map(|i| (i as f64 * 0.1).cos()).collect();
    let (x, y) = (solve(num, &b), solve(fresh, &b));
    let scale = y.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    for (xi, yi) in x.iter().zip(&y) {
        assert!((xi - yi).abs() <= 1e-12 * scale, "{xi} vs {yi}");
    }
    assert_eq!(num.stats.lu_nnz, fresh.stats.lu_nnz);
}
