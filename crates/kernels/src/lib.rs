//! Runtime-dispatched dense micro-kernels for the sparse-LU engines.
//!
//! Sparse LU earns its speed by casting elimination into dense blocks —
//! supernode panels, separator fronts, dense accumulation tails — and
//! every engine in this workspace bottoms out in the same handful of
//! dense operations. This crate owns those operations behind a
//! [`Kernels`] vtable with two rungs:
//!
//! ```text
//!             ┌─ BASKER_KERNEL=scalar ──► scalar   (portable loops)
//!  active() ──┼─ BASKER_KERNEL=simd ────► avx2+fma (x86-64) / neon (aarch64),
//!             │                           scalar where the CPU has neither
//!             └─ BASKER_KERNEL=auto ────► same as simd (also: unset, empty
//!                 or any unknown value; selected once per process, at
//!                 first use)
//! ```
//!
//! The selection happens exactly once (a [`std::sync::OnceLock`]), from
//! the `BASKER_KERNEL` environment variable; the chosen rung's name is
//! surfaced through the solver stats so a production deployment can
//! verify what it is actually running.
//!
//! ## Core operations
//!
//! * [`Kernels::axpy`] — `y ← y + α·x` (the column update),
//! * [`Kernels::dot`] — `xᵀy`,
//! * [`Kernels::rank1_sub`] — `C ← C − x·yᵀ`,
//! * [`Kernels::gemm_sub`] — the cache-blocked rank-k panel update
//!   `C ← C − A·B` (column-major, arbitrary leading dimensions), tiled
//!   to L1/L2 and fed to the selected micro-kernel tile by tile,
//! * [`Kernels::gemv_sub`] — `y ← y − A·x`,
//! * [`Kernels::trsv_lower_unit`] — the small triangular solve
//!   `L⁻¹x` against a unit-lower panel block,
//! * [`Kernels::scatter_axpy`] / [`Kernels::gather_dot`] — indexed
//!   variants that detect runs of consecutive row indices (the dense
//!   accumulation tails of factor columns) and route those runs through
//!   the contiguous kernels,
//! * [`Kernels::scatter_axpy_rows`] — the same indexed update on a
//!   row-major panel of `K` right-hand sides. It is an inline
//!   const-generic loop, **not** a rung entry: a multi-RHS triangular
//!   sweep is bound by the latency of the indexed row loads, each row
//!   is one `K`-lane multiply-add the compiler already vectorizes at
//!   the baseline target, and a function-pointer call per factor
//!   column would cost more than the lanes save. At `K = 1` it *is*
//!   [`Kernels::scatter_axpy`], so single-RHS solves keep the rung's
//!   run-detecting path.
//!
//! [`rows_mut`] / [`flat_mut`] are the one place the workspace's
//! `&mut [f64]` ↔ `&mut [[f64; K]]` layout cast is written.
//!
//! All matrices are column-major `f64` with an explicit leading
//! dimension, matching the supernode panel layout in `basker_snlu` and
//! the CSC column slices everywhere else.

mod scalar;

#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

use std::sync::OnceLock;

/// One rung of the kernel ladder: a name plus the three primitive
/// operations every composite op is built from.
///
/// The composite drivers ([`gemm_sub`](Kernels::gemm_sub),
/// [`trsv_lower_unit`](Kernels::trsv_lower_unit), …) are shared; only
/// the innermost loops differ between rungs.
pub struct Kernels {
    name: &'static str,
    axpy: fn(y: &mut [f64], alpha: f64, x: &[f64]),
    dot: fn(x: &[f64], y: &[f64]) -> f64,
    /// Unblocked tile op: `C[i + j·ldc] -= Σ_l A[i + l·lda]·B[l + j·ldb]`
    /// for `i < m, j < n, l < k`.
    gemm_tile: fn(
        c: &mut [f64],
        ldc: usize,
        a: &[f64],
        lda: usize,
        b: &[f64],
        ldb: usize,
        m: usize,
        n: usize,
        k: usize,
    ),
}

/// Cache-blocking tile sizes for [`Kernels::gemm_sub`]: an `MC × KC`
/// panel of `A` is 128 KiB — L2-resident on anything this decade — and
/// each micro-tile streams through registers/L1.
const MC: usize = 128;
const KC: usize = 128;

/// Runs of at least this many consecutive row indices are routed
/// through the contiguous kernels by [`Kernels::scatter_axpy`] /
/// [`Kernels::gather_dot`]; shorter runs stay scalar (the kernel-call
/// and run-scan overhead would dominate).
const RUN_MIN: usize = 8;

/// Index slices shorter than this skip run detection entirely —
/// genuinely sparse columns never pay for the scan.
const SCAN_MIN: usize = 16;

impl Kernels {
    /// The rung's name: `"scalar"`, `"avx2+fma"` or `"neon"`.
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// `y ← y + α·x` over equal-length slices.
    #[inline]
    pub fn axpy(&self, y: &mut [f64], alpha: f64, x: &[f64]) {
        debug_assert_eq!(y.len(), x.len());
        (self.axpy)(y, alpha, x);
    }

    /// `xᵀ·y` over equal-length slices.
    #[inline]
    pub fn dot(&self, x: &[f64], y: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), y.len());
        (self.dot)(x, y)
    }

    /// Rank-1 update `C ← C − x·yᵀ` on an `m × n` column-major block
    /// with leading dimension `ldc`.
    // basker-lint: deny-alloc
    #[inline]
    pub fn rank1_sub(&self, c: &mut [f64], ldc: usize, x: &[f64], y: &[f64]) {
        (self.gemm_tile)(c, ldc, x, x.len(), y, 1, x.len(), y.len(), 1);
    }

    /// `y ← y − A·x` for a column-major `y.len() × x.len()` block of
    /// `A` with leading dimension `lda`.
    // basker-lint: deny-alloc
    #[inline]
    pub fn gemv_sub(&self, y: &mut [f64], a: &[f64], lda: usize, x: &[f64]) {
        let m = y.len();
        let k = x.len();
        (self.gemm_tile)(y, m, a, lda, x, k, m, 1, k);
    }

    /// Cache-blocked rank-k panel update `C ← C − A·B`:
    /// `C` is `m × n` (ld `ldc`), `A` is `m × k` (ld `lda`), `B` is
    /// `k × n` (ld `ldb`), all column-major. Blocks over `k` then `m`
    /// so each `A` panel stays cache-resident, handing L2-sized tiles
    /// to the selected micro-kernel.
    // basker-lint: deny-alloc
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_sub(
        &self,
        c: &mut [f64],
        ldc: usize,
        a: &[f64],
        lda: usize,
        b: &[f64],
        ldb: usize,
        m: usize,
        n: usize,
        k: usize,
    ) {
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        if m <= MC && k <= KC {
            (self.gemm_tile)(c, ldc, a, lda, b, ldb, m, n, k);
            return;
        }
        let mut l0 = 0;
        while l0 < k {
            let kb = KC.min(k - l0);
            let mut i0 = 0;
            while i0 < m {
                let mb = MC.min(m - i0);
                (self.gemm_tile)(
                    &mut c[i0..],
                    ldc,
                    &a[i0 + l0 * lda..],
                    lda,
                    &b[l0..],
                    ldb,
                    mb,
                    n,
                    kb,
                );
                i0 += mb;
            }
            l0 += kb;
        }
    }

    /// Small triangular solve `x ← L⁻¹·x` where `L` is the `n × n`
    /// unit-lower triangle stored column-major in `a` with leading
    /// dimension `lda` (`n = x.len()`; the diagonal is implicit 1,
    /// entries above it are ignored). This is the supernode
    /// diagonal-block solve: each step is a tail `axpy` on the rung's
    /// contiguous kernel.
    // basker-lint: deny-alloc
    pub fn trsv_lower_unit(&self, x: &mut [f64], a: &[f64], lda: usize) {
        let n = x.len();
        for c in 0..n {
            let xc = x[c];
            if xc != 0.0 && c + 1 < n {
                let col = &a[c * lda + c + 1..c * lda + n];
                (self.axpy)(&mut x[c + 1..n], -xc, col);
            }
        }
    }

    /// Indexed update `x[rows[t]] += α·vals[t]`. Runs of consecutive
    /// row indices — the dense accumulation tails of factor columns —
    /// are detected and routed through the contiguous
    /// [`axpy`](Kernels::axpy); scattered heads stay scalar. Whether to scan at
    /// all is decided in O(1) from the index span, so genuinely sparse
    /// columns (the Gilbert–Peierls common case) pay nothing over the
    /// plain loop.
    // basker-lint: deny-alloc
    #[inline]
    pub fn scatter_axpy(&self, x: &mut [f64], rows: &[usize], vals: &[f64], alpha: f64) {
        debug_assert_eq!(rows.len(), vals.len());
        let len = rows.len();
        // A span much wider than the count means long consecutive runs
        // are unlikely: skip the scan, not just the axpy routing. Index
        // lists need not be sorted (Gilbert–Peierls hands topological
        // orders through here), so the span check must not underflow —
        // a descending list just takes the plain loop.
        if len < SCAN_MIN || rows[len - 1] < rows[0] || rows[len - 1] - rows[0] >= len + (len >> 1)
        {
            for t in 0..len {
                x[rows[t]] += alpha * vals[t];
            }
            return;
        }
        self.scatter_axpy_runs(x, rows, vals, alpha);
    }

    /// Run-detecting slow path of [`scatter_axpy`](Kernels::scatter_axpy),
    /// kept out of line so the sparse fast path stays small at call
    /// sites.
    fn scatter_axpy_runs(&self, x: &mut [f64], rows: &[usize], vals: &[f64], alpha: f64) {
        let len = rows.len();
        let mut t = 0;
        while t < len {
            let r0 = rows[t];
            let mut e = t + 1;
            while e < len && rows[e] == r0 + (e - t) {
                e += 1;
            }
            if e - t >= RUN_MIN {
                (self.axpy)(&mut x[r0..r0 + (e - t)], alpha, &vals[t..e]);
            } else {
                for q in t..e {
                    x[rows[q]] += alpha * vals[q];
                }
            }
            t = e;
        }
    }

    /// `K`-wide indexed row update `x[rows[t]][l] += α[l]·vals[t]` on a
    /// row-major panel (one row per unknown, `K` right-hand sides per
    /// row): one pass over a factor column updates all `K` columns of
    /// the panel. An inline generic rather than a rung entry (see the
    /// module docs); `K = 1` delegates to
    /// [`scatter_axpy`](Kernels::scatter_axpy), bit for bit.
    // basker-lint: deny-alloc
    #[inline]
    pub fn scatter_axpy_rows<const K: usize>(
        &self,
        x: &mut [[f64; K]],
        rows: &[usize],
        vals: &[f64],
        alpha: &[f64; K],
    ) {
        debug_assert_eq!(rows.len(), vals.len());
        if K == 1 {
            return self.scatter_axpy(flat_mut(x), rows, vals, alpha[0]);
        }
        for (&r, &v) in rows.iter().zip(vals) {
            let row = &mut x[r];
            for l in 0..K {
                row[l] += alpha[l] * v;
            }
        }
    }

    /// Indexed dot `Σ_t vals[t]·b[rows[t]]`, with the same
    /// consecutive-run routing (and O(1) span guard) as
    /// [`scatter_axpy`](Kernels::scatter_axpy).
    // basker-lint: deny-alloc
    #[inline]
    pub fn gather_dot(&self, b: &[f64], rows: &[usize], vals: &[f64]) -> f64 {
        debug_assert_eq!(rows.len(), vals.len());
        let len = rows.len();
        if len < SCAN_MIN || rows[len - 1] < rows[0] || rows[len - 1] - rows[0] >= len + (len >> 1)
        {
            let mut acc = 0.0;
            for t in 0..len {
                acc += vals[t] * b[rows[t]];
            }
            return acc;
        }
        self.gather_dot_runs(b, rows, vals)
    }

    /// Run-detecting slow path of [`gather_dot`](Kernels::gather_dot).
    fn gather_dot_runs(&self, b: &[f64], rows: &[usize], vals: &[f64]) -> f64 {
        let len = rows.len();
        let mut acc = 0.0;
        let mut t = 0;
        while t < len {
            let r0 = rows[t];
            let mut e = t + 1;
            while e < len && rows[e] == r0 + (e - t) {
                e += 1;
            }
            if e - t >= RUN_MIN {
                acc += (self.dot)(&vals[t..e], &b[r0..r0 + (e - t)]);
            } else {
                for q in t..e {
                    acc += vals[q] * b[rows[q]];
                }
            }
            t = e;
        }
        acc
    }
}

/// Views a packed buffer as rows of `K` values — the row-major
/// right-hand-side panel of a multi-RHS solve. Panics unless
/// `flat.len()` is a multiple of `K` (and `K > 0`).
///
/// With [`flat_mut`] this is the workspace's one layout cast; the
/// workspace MSRV (1.75) predates `as_chunks_mut` / `as_flattened_mut`.
#[inline]
pub fn rows_mut<const K: usize>(flat: &mut [f64]) -> &mut [[f64; K]] {
    assert!(
        K > 0 && flat.len() % K == 0,
        "panel length must be a multiple of K"
    );
    let rows = flat.len() / K;
    // SAFETY: `[f64; K]` has the size of `K` `f64`s and the alignment
    // of `f64`, so `rows` of them cover exactly the `rows * K ==
    // flat.len()` initialized elements behind `flat`'s pointer; the
    // returned borrow takes over `flat`'s exclusive lifetime, so no
    // other reference to those elements exists while it lives.
    unsafe { std::slice::from_raw_parts_mut(flat.as_mut_ptr().cast::<[f64; K]>(), rows) }
}

/// The inverse of [`rows_mut`]: a row-major panel as its packed values.
#[inline]
pub fn flat_mut<const K: usize>(rows: &mut [[f64; K]]) -> &mut [f64] {
    let len = rows.len() * K;
    // SAFETY: a slice of `[f64; K]` is `rows.len() * K` contiguous,
    // initialized `f64`s at `f64` alignment (the product cannot
    // overflow: the slice already occupies that many elements); the
    // returned borrow takes over `rows`' exclusive lifetime.
    unsafe { std::slice::from_raw_parts_mut(rows.as_mut_ptr().cast::<f64>(), len) }
}

/// The portable scalar rung (always available; the differential-test
/// reference).
static SCALAR: Kernels = Kernels {
    name: "scalar",
    axpy: scalar::axpy,
    dot: scalar::dot,
    gemm_tile: scalar::gemm_tile,
};

#[cfg(target_arch = "x86_64")]
static SIMD: Kernels = Kernels {
    name: "avx2+fma",
    axpy: x86::axpy,
    dot: x86::dot,
    gemm_tile: x86::gemm_tile,
};

#[cfg(target_arch = "aarch64")]
static SIMD: Kernels = Kernels {
    name: "neon",
    axpy: neon::axpy,
    dot: neon::dot,
    gemm_tile: neon::gemm_tile,
};

/// The explicit SIMD rung, if this CPU supports it.
fn simd_rung() -> Option<&'static Kernels> {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Some(&SIMD);
        }
        None
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON with 2×f64 lanes is part of the aarch64 baseline.
        Some(&SIMD)
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        None
    }
}

/// A requested rung of the ladder (`BASKER_KERNEL` values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelChoice {
    /// Best rung the CPU supports (SIMD if detected, else scalar).
    Auto,
    /// Portable scalar baseline.
    Scalar,
    /// Explicit SIMD (AVX2+FMA / NEON); falls back to scalar when the
    /// CPU lacks the features.
    Simd,
}

impl KernelChoice {
    /// Parses a `BASKER_KERNEL` value; unknown strings mean
    /// [`Auto`](Self::Auto).
    pub fn parse(s: &str) -> KernelChoice {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => KernelChoice::Scalar,
            "simd" => KernelChoice::Simd,
            _ => KernelChoice::Auto,
        }
    }

    fn resolve(self) -> &'static Kernels {
        match self {
            KernelChoice::Scalar => &SCALAR,
            KernelChoice::Simd | KernelChoice::Auto => simd_rung().unwrap_or(&SCALAR),
        }
    }
}

static ACTIVE: OnceLock<&'static Kernels> = OnceLock::new();

/// The process-wide selected kernel rung. Selected exactly once at
/// first use, from the `BASKER_KERNEL` environment variable
/// ([`KernelChoice::Auto`] when unset).
#[inline]
pub fn active() -> &'static Kernels {
    ACTIVE.get_or_init(|| {
        let choice = std::env::var("BASKER_KERNEL")
            .map(|v| KernelChoice::parse(&v))
            .unwrap_or(KernelChoice::Auto);
        choice.resolve()
    })
}

/// Looks a rung up by name (`"scalar"`, `"simd"`),
/// independent of the process-wide selection — the differential tests
/// compare rungs side by side through this. Returns `None` for
/// `"simd"` on CPUs without the features, and for unknown names.
pub fn by_name(name: &str) -> Option<&'static Kernels> {
    match name.trim().to_ascii_lowercase().as_str() {
        "scalar" => Some(&SCALAR),
        "simd" => simd_rung(),
        _ => None,
    }
}

/// Every rung this CPU supports, scalar first.
pub fn supported() -> Vec<&'static Kernels> {
    let mut v = vec![&SCALAR];
    if let Some(s) = simd_rung() {
        v.push(s);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, base: f64) -> Vec<f64> {
        (0..n).map(|i| base + 0.25 * i as f64).collect()
    }

    #[test]
    fn dispatch_is_stable_and_named() {
        let k = active();
        assert!(["scalar", "avx2+fma", "neon"].contains(&k.name()));
        // Second call returns the same rung (once-per-process).
        assert!(std::ptr::eq(k, active()));
    }

    #[test]
    fn by_name_round_trips_supported_rungs() {
        assert_eq!(by_name("scalar").unwrap().name(), "scalar");
        assert!(by_name("frobnicate").is_none());
        for k in supported() {
            // every supported rung is reachable by one of the knob values
            assert!(["scalar", "simd"]
                .iter()
                .any(|n| by_name(n).map(|r| r.name()) == Some(k.name())));
        }
    }

    #[test]
    fn choice_parse_is_permissive() {
        assert_eq!(KernelChoice::parse(" SIMD "), KernelChoice::Simd);
        assert_eq!(KernelChoice::parse("scalar"), KernelChoice::Scalar);
        // A retired or mistyped value must not abort a solver: it means
        // `auto`, and `SolverStats::kernel` names the rung in effect.
        assert_eq!(KernelChoice::parse("unrolled"), KernelChoice::Auto);
        assert_eq!(KernelChoice::parse("???"), KernelChoice::Auto);
    }

    #[test]
    fn axpy_dot_all_rungs() {
        for k in supported() {
            let x = seq(37, 1.0);
            let mut y = seq(37, -3.0);
            let expect: Vec<f64> = x.iter().zip(&y).map(|(a, b)| b + 2.5 * a).collect();
            k.axpy(&mut y, 2.5, &x);
            for i in 0..37 {
                assert!((y[i] - expect[i]).abs() < 1e-12, "{} axpy", k.name());
            }
            let d = k.dot(&x, &y);
            let dref: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            assert!(
                (d - dref).abs() <= 1e-10 * dref.abs().max(1.0),
                "{} dot {d} vs {dref}",
                k.name()
            );
        }
    }

    #[test]
    fn gemm_sub_matches_reference_with_blocking() {
        // Big enough to exercise the MC/KC blocking loop.
        let (m, n, k) = (MC + 37, 5, KC + 19);
        let a = seq(m * k, 0.5)
            .iter()
            .map(|v| (v * 0.37).sin())
            .collect::<Vec<_>>();
        let b = seq(k * n, -0.5)
            .iter()
            .map(|v| (v * 0.61).cos())
            .collect::<Vec<_>>();
        let c0 = seq(m * n, 2.0);
        // reference: naive triple loop
        let mut cref = c0.clone();
        for j in 0..n {
            for l in 0..k {
                let blj = b[l + j * k];
                for i in 0..m {
                    cref[i + j * m] -= a[i + l * m] * blj;
                }
            }
        }
        for kr in supported() {
            let mut c = c0.clone();
            kr.gemm_sub(&mut c, m, &a, m, &b, k, m, n, k);
            for t in 0..m * n {
                assert!(
                    (c[t] - cref[t]).abs() <= 1e-9 * cref[t].abs().max(1.0),
                    "{} gemm at {t}: {} vs {}",
                    kr.name(),
                    c[t],
                    cref[t]
                );
            }
        }
    }

    #[test]
    fn trsv_and_rank1_and_gemv_consistent() {
        let n = 13;
        let lda = n + 3;
        let mut a = vec![0.0; lda * n];
        for c in 0..n {
            for r in c + 1..n {
                a[c * lda + r] = 0.1 + 0.01 * (r * 7 + c) as f64;
            }
        }
        for k in supported() {
            let mut x = seq(n, 1.0);
            // reference forward solve
            let mut xref = x.clone();
            for c in 0..n {
                let xc = xref[c];
                for r in c + 1..n {
                    xref[r] -= a[c * lda + r] * xc;
                }
            }
            k.trsv_lower_unit(&mut x, &a, lda);
            for i in 0..n {
                assert!((x[i] - xref[i]).abs() < 1e-10, "{} trsv", k.name());
            }

            let xv = seq(4, 0.3);
            let yv = seq(3, -0.2);
            let mut c1 = seq(4 * 3, 1.0);
            let mut c2 = c1.clone();
            k.rank1_sub(&mut c1, 4, &xv, &yv);
            // rank-1 as k=1 gemm reference
            for j in 0..3 {
                for i in 0..4 {
                    c2[i + j * 4] -= xv[i] * yv[j];
                }
            }
            for t in 0..12 {
                assert!((c1[t] - c2[t]).abs() < 1e-12, "{} rank1", k.name());
            }

            let mut y = seq(6, 0.0);
            let amat = seq(6 * 4, 0.1);
            let xs = seq(4, 0.7);
            let mut yref = y.clone();
            for l in 0..4 {
                for i in 0..6 {
                    yref[i] -= amat[i + l * 6] * xs[l];
                }
            }
            k.gemv_sub(&mut y, &amat, 6, &xs);
            for i in 0..6 {
                assert!((y[i] - yref[i]).abs() < 1e-12, "{} gemv", k.name());
            }
        }
    }

    #[test]
    fn scatter_and_gather_handle_runs_and_scattered_heads() {
        for k in supported() {
            // indices: scattered head, then a long consecutive run
            let mut rows: Vec<usize> = vec![3, 9, 1, 17];
            rows.extend(40..80);
            let vals: Vec<f64> = seq(rows.len(), 0.5);
            let mut x = vec![1.0; 100];
            let mut xref = x.clone();
            for t in 0..rows.len() {
                xref[rows[t]] += -1.5 * vals[t];
            }
            k.scatter_axpy(&mut x, &rows, &vals, -1.5);
            for i in 0..100 {
                assert!(
                    (x[i] - xref[i]).abs() < 1e-12,
                    "{} scatter at {i}",
                    k.name()
                );
            }
            let b = seq(100, -1.0);
            let g = k.gather_dot(&b, &rows, &vals);
            let gref: f64 = (0..rows.len()).map(|t| vals[t] * b[rows[t]]).sum();
            assert!(
                (g - gref).abs() <= 1e-10 * gref.abs().max(1.0),
                "{} gather",
                k.name()
            );
        }
    }

    #[test]
    fn layout_casts_round_trip() {
        let mut flat = seq(12, 1.0);
        let want = flat.clone();
        {
            let rows = rows_mut::<4>(&mut flat);
            assert_eq!(rows.len(), 3);
            assert_eq!(rows[1], [want[4], want[5], want[6], want[7]]);
            rows[2][3] = -1.0;
            assert_eq!(flat_mut(rows).len(), 12);
        }
        assert_eq!(flat[11], -1.0);
        assert_eq!(&flat[..11], &want[..11]);
        // Width one is the single right-hand side itself; empty is fine.
        assert_eq!(rows_mut::<1>(&mut flat).len(), 12);
        assert!(rows_mut::<8>(&mut []).is_empty());
        assert!(flat_mut::<8>(&mut []).is_empty());
    }

    #[test]
    #[should_panic(expected = "multiple of K")]
    fn ragged_panel_is_rejected() {
        rows_mut::<8>(&mut [0.0; 12]);
    }
}
