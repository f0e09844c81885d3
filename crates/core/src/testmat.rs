//! Matrices and checks shared by this crate's unit tests.

use crate::{Basker, BaskerNumeric, BaskerOptions};
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

/// Diagonally dominant 7-point grid with unsymmetric values: one
/// irreducible block of `k³` rows.
pub(crate) fn grid3d_unsym(k: usize) -> CscMat {
    let n = k * k * k;
    let idx = |x: usize, y: usize, z: usize| (x * k + y) * k + z;
    let mut t = TripletMat::new(n, n);
    for x in 0..k {
        for y in 0..k {
            for z in 0..k {
                let u = idx(x, y, z);
                t.push(u, u, 12.0 + (u % 5) as f64);
                for (v, up, down) in [
                    (x + 1 < k).then(|| idx(x + 1, y, z)),
                    (y + 1 < k).then(|| idx(x, y + 1, z)),
                    (z + 1 < k).then(|| idx(x, y, z + 1)),
                ]
                .into_iter()
                .zip([(-1.0, -2.0), (-1.5, -0.5), (-0.75, -1.25)])
                .filter_map(|(v, w)| Some((v?, w.0, w.1)))
                {
                    t.push(u, v, up);
                    t.push(v, u, down);
                }
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
/// rows (below the default `nd_threshold`, so fine-BTF blocks) between
/// the grid and the tiny tail.
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

/// A power grid's shape: `feeders` radial feeders of `len` buses, each
/// bus referencing the next one downstream and every feeder head the
/// previous feeder's tail, with about one stretch in ten of 3–5 buses
/// closed into a loop — a small irreducible block among singletons.
/// Every third loop's first bus has a tiny diagonal: unless the
/// weighted matching moves it off the diagonal first, partial pivoting
/// leaves the diagonal there.
pub(crate) fn power_grid(feeders: usize, len: usize) -> CscMat {
    let n = feeders * len;
    // A fixed scramble of the bus number, for values and loop sites.
    let h = |i: usize| (i.wrapping_mul(2_654_435_761) >> 7) % 97;
    let mut diag: Vec<f64> = (0..n).map(|i| 5.0 + (h(i) % 20) as f64 / 10.0).collect();
    let mut t = TripletMat::new(n, n);
    let mut loops = 0;
    for f in 0..feeders {
        let base = f * len;
        let mut bus = 0;
        while bus + 1 < len {
            let u = base + bus;
            if h(u) % 10 == 0 && bus + 5 < len {
                let m = 3 + h(u + 1) % 3;
                for k in 0..m - 1 {
                    t.push(u + k, u + k + 1, -0.2 - (h(u + k) % 8) as f64 / 10.0);
                    t.push(u + k + 1, u + k, -0.3 - (h(u + k + 1) % 6) as f64 / 10.0);
                }
                if loops % 3 == 0 {
                    diag[u] = 1e-6;
                }
                loops += 1;
                bus += m - 1;
            }
            let u = base + bus;
            t.push(u, u + 1, -0.5 - (h(u) % 15) as f64 / 10.0);
            bus += 1;
        }
        if f > 0 {
            t.push(base, base - 1, -0.25);
        }
    }
    for (i, d) in diag.into_iter().enumerate() {
        t.push(i, i, d);
    }
    t.to_csc()
}

/// A circuit's shape: `nsub` irreducible subcircuits of `size` nodes — a
/// ring with unsymmetric values and one-directional controlled-source
/// stamps — each followed by a lone node; every subcircuit reads its
/// lone node, which reads the next subcircuit, so the blocks stay apart.
/// Every seventh node's diagonal is tiny, as in [`power_grid`].
pub(crate) fn circuit_like(nsub: usize, size: usize) -> CscMat {
    assert!(size >= 8, "the stamps must not meet the ring");
    let n = nsub * (size + 1);
    let mut t = TripletMat::new(n, n);
    for s in 0..nsub {
        let o = s * (size + 1);
        for i in 0..size {
            let d = if (o + i) % 7 == 3 {
                1e-5
            } else {
                4.0 + (i % 5) as f64
            };
            t.push(o + i, o + i, d);
            t.push(o + i, o + (i + 1) % size, -1.0 - (i % 3) as f64 * 0.5);
            t.push(o + (i + 1) % size, o + i, -0.75);
            if i % 4 == 0 {
                t.push(o + (i + 3) % size, o + i, 2.0);
            }
        }
        let lone = o + size;
        t.push(lone, lone, 3.0);
        t.push(o + 2, lone, 0.5);
        if s + 1 < nsub {
            t.push(lone, lone + 2, 0.25);
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

/// Every factor value of a numeric, in storage order: the
/// Gilbert–Peierls store's, then every other block's.
pub(crate) fn factor_values(num: &BaskerNumeric) -> Vec<f64> {
    let mut out: Vec<f64> = num.gp.values().collect();
    for f in &num.nd {
        for blu in &f.fact_diag {
            out.extend_from_slice(blu.l.values());
            out.extend_from_slice(blu.u.values());
            for b in &blu.below {
                out.extend_from_slice(b.values());
            }
        }
        for panel in f.fact_upper.iter().flatten() {
            out.extend_from_slice(panel.values());
        }
    }
    out.extend_from_slice(num.offdiag.values());
    out
}

/// Every pivot sequence of a numeric's Gilbert–Peierls and ND blocks,
/// in storage order: the store's, then the ND blocks'.
pub(crate) fn factor_pivots(num: &BaskerNumeric) -> Vec<usize> {
    let mut out: Vec<usize> = num.gp.pinv().collect();
    for blu in num.nd.iter().flat_map(|f| &f.fact_diag) {
        out.extend_from_slice(&blu.pinv);
    }
    out
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

/// The refactor contract of `sym`: after `factor(a)`,
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
