//! Caller-owned scratch buffers for allocation-free solves.
//!
//! Every engine's triangular solve needs a handful of length-`n` work
//! vectors (the permuted right-hand side, per-block pivot scratch, and —
//! for the refined supernodal solve — a residual). Allocating them per
//! call is what makes the classic `solve(&b) -> Vec<f64>` API unusable in
//! hot loops (a transient simulation solves thousands of times per
//! pattern). A [`SolveWorkspace`] owns those buffers and is reused across
//! calls: after the first solve at a given dimension, subsequent solves
//! perform **zero heap allocation**.
//!
//! The workspace is engine-agnostic: the same instance can be passed to
//! KLU, Basker and the supernodal solver interchangeably, and a workspace
//! grown for one dimension is reusable (without reallocation) for any
//! smaller system.
//!
//! ## Right-hand-side panels
//!
//! Callers pack several right-hand sides **column-major** (column `c`
//! is `xs[c·n..(c+1)·n]`). Inside a BTF engine's solve they live in a
//! **row-major panel** ([`SolveWorkspace::panels`]): row `i` holds entry
//! `i` of `K` columns side by side (one 64-byte line at `K = 8`), so
//! each index loaded from `L`, `U` or the off-diagonal couplings
//! updates `K` columns with one vector multiply-add instead of one
//! scalar flop. The engine's row permutation does the column-major →
//! row-major transposition on the way in ([`gather_panel`]), its column
//! permutation the way back out ([`scatter_panel`]). [`panel_chunks`]
//! cuts `k` columns into panels of [`PANEL_WIDTHS`]; a single solve is
//! the `K = 1` panel. The panel buffers grow on the first multi-RHS call
//! ([`SolveWorkspace::for_dim`] sizes for `K = 1`) and are reused after
//! that.

/// Reusable scratch memory for in-place solves.
///
/// ```
/// use basker_sparse::SolveWorkspace;
///
/// let mut ws = SolveWorkspace::new();
/// let (a, b, c) = ws.split3(4);
/// assert_eq!((a.len(), b.len(), c.len()), (4, 4, 4));
/// ```
#[derive(Debug, Default, Clone)]
pub struct SolveWorkspace {
    buf_a: Vec<f64>,
    buf_b: Vec<f64>,
    buf_c: Vec<f64>,
}

impl SolveWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        SolveWorkspace::default()
    }

    /// A workspace pre-sized for dimension `n`, so even the first solve
    /// allocates nothing.
    pub fn for_dim(n: usize) -> Self {
        SolveWorkspace {
            buf_a: vec![0.0; n],
            buf_b: vec![0.0; n],
            buf_c: vec![0.0; n],
        }
    }

    /// The values the right-hand-side buffer holds: the dimension it
    /// accommodates for single solves, `K` times that once a `K`-wide
    /// panel solve has grown it. The pivot-scratch buffer is sized by
    /// the largest block its engine met, the third (refinement) buffer
    /// grows lazily, on first use by an engine that needs it.
    pub fn capacity(&self) -> usize {
        self.buf_a.len()
    }

    /// Grows all three buffers to dimension `n` if needed (never
    /// shrinks) — a full pre-warm covering any engine.
    pub fn ensure(&mut self, n: usize) {
        grow(&mut self.buf_a, n);
        grow(&mut self.buf_b, n);
        grow(&mut self.buf_c, n);
    }

    /// Two disjoint row-major panels of `K` right-hand sides (see the
    /// [module docs](self)): `rows` rows for the permuted panel and
    /// `scratch_rows` for per-block pivot scratch. Grows only the two
    /// buffers it hands out, so two-buffer engines (KLU, Basker) never
    /// pay for the third; `K = 1` is the pair of plain length-`rows`
    /// vectors of a single solve.
    pub fn panels<const K: usize>(
        &mut self,
        rows: usize,
        scratch_rows: usize,
    ) -> (&mut [[f64; K]], &mut [[f64; K]]) {
        grow(&mut self.buf_a, rows * K);
        grow(&mut self.buf_b, scratch_rows * K);
        (
            basker_kernels::rows_mut(&mut self.buf_a[..rows * K]),
            basker_kernels::rows_mut(&mut self.buf_b[..scratch_rows * K]),
        )
    }

    /// Three disjoint length-`n` scratch slices (grows if needed).
    pub fn split3(&mut self, n: usize) -> (&mut [f64], &mut [f64], &mut [f64]) {
        self.ensure(n);
        (
            &mut self.buf_a[..n],
            &mut self.buf_b[..n],
            &mut self.buf_c[..n],
        )
    }
}

#[inline]
fn grow(buf: &mut Vec<f64>, n: usize) {
    if buf.len() < n {
        buf.resize(n, 0.0);
    }
}

/// Gathers `K` columns packed column-major in `xs` into the row-major
/// panel `y` through a permutation: row `k` of the panel is entry
/// `perm[k]` of every column — the permutation an engine applies anyway
/// doubles as the column-major → row-major transposition.
// basker-lint: deny-alloc
pub fn gather_panel<const K: usize>(xs: &[f64], perm: &[usize], y: &mut [[f64; K]]) {
    let n = y.len();
    debug_assert_eq!((xs.len(), perm.len()), (K * n, n));
    for (row, &orig) in y.iter_mut().zip(perm) {
        *row = std::array::from_fn(|c| xs[c * n + orig]);
    }
}

/// The way back out of [`gather_panel`]: entry `perm[k]` of every
/// column of `xs` is row `k` of the panel.
// basker-lint: deny-alloc
pub fn scatter_panel<const K: usize>(y: &[[f64; K]], perm: &[usize], xs: &mut [f64]) {
    let n = y.len();
    debug_assert_eq!((xs.len(), perm.len()), (K * n, n));
    for (row, &orig) in y.iter().zip(perm) {
        for c in 0..K {
            xs[c * n + orig] = row[c];
        }
    }
}

/// The panel widths a multi-RHS solve cuts its `k` columns into, widest
/// first (13 columns are an 8, a 4 and a 1). A constant, not an option:
/// on `powergrid(1600, 60, 0.1)` (n = 96 000, 75 070 BTF blocks) eight
/// right-hand sides take 3.0 ms as one `K = 8` sweep, 4.5–4.9 ms as two
/// `K = 4` sweeps and 12–13 ms as eight `K = 1` sweeps — the walk over
/// the factors is latency-bound, so every lane added to a row is nearly
/// free up to the 64-byte line (and the four 256-bit registers) a row
/// of 8 fills; 16 would spill both.
pub const PANEL_WIDTHS: [usize; 4] = [8, 4, 2, 1];

/// `(first column, width)` of each panel `k` packed columns are solved
/// in, in order; every width is one of [`PANEL_WIDTHS`].
pub fn panel_chunks(k: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut first = 0;
    std::iter::from_fn(move || {
        let w = PANEL_WIDTHS.into_iter().find(|&w| first + w <= k)?;
        first += w;
        Some((first - w, w))
    })
}

/// Evaluates `$body` with the const `$K` bound to the runtime panel
/// width `$w` (an item of [`panel_chunks`]) — the bridge from the
/// chunking loop to a sweep that is generic over `const K: usize`.
///
/// [`panel_chunks`]: crate::workspace::panel_chunks
#[macro_export]
macro_rules! with_panel_width {
    ($w:expr, $K:ident => $body:expr) => {
        match $w {
            8 => {
                const $K: usize = 8;
                $body
            }
            4 => {
                const $K: usize = 4;
                $body
            }
            2 => {
                const $K: usize = 2;
                $body
            }
            1 => {
                const $K: usize = 1;
                $body
            }
            w => unreachable!("{w} is not one of PANEL_WIDTHS"),
        }
    };
}

/// The number of length-`n` columns packed in `xs`. Panics when
/// `xs.len()` is not a multiple of `n`; a zero-dimensional system
/// accepts only an empty `xs`.
pub fn packed_columns(n: usize, xs: &[f64]) -> usize {
    if n == 0 {
        assert!(xs.is_empty(), "rhs block must be a multiple of n");
        return 0;
    }
    assert_eq!(xs.len() % n, 0, "rhs block must be a multiple of n");
    xs.len() / n
}

/// Splits `xs` into length-`n` right-hand sides (packed column-major)
/// and applies `solve_one` to each in place — the multi-RHS body of an
/// engine without a panel sweep (the supernodal solver, whose solve
/// carries its own refinement loop per column).
///
/// Panics like [`packed_columns`] on a ragged `xs`.
pub fn for_each_rhs(n: usize, xs: &mut [f64], mut solve_one: impl FnMut(&mut [f64])) {
    if packed_columns(n, xs) == 0 {
        return;
    }
    for rhs in xs.chunks_exact_mut(n) {
        solve_one(rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_and_never_shrinks() {
        let mut ws = SolveWorkspace::new();
        assert_eq!(ws.capacity(), 0);
        {
            let (a, b) = ws.panels::<1>(10, 10);
            assert_eq!(a.len(), 10);
            assert_eq!(b.len(), 10);
        }
        assert_eq!(ws.capacity(), 10);
        {
            let (a, _, c) = ws.split3(4);
            assert_eq!(a.len(), 4);
            assert_eq!(c.len(), 4);
        }
        assert_eq!(ws.capacity(), 10, "smaller request must not shrink");
    }

    #[test]
    fn presized_covers_dimension() {
        let mut ws = SolveWorkspace::for_dim(7);
        assert_eq!(ws.capacity(), 7);
        let (a, b, c) = ws.split3(7);
        assert_eq!(a.len() + b.len() + c.len(), 21);
    }

    #[test]
    fn panels_are_disjoint_rows_and_grow_once() {
        let mut ws = SolveWorkspace::for_dim(6);
        {
            let (y, scratch) = ws.panels::<8>(6, 2);
            assert_eq!((y.len(), scratch.len()), (6, 2));
            y[5] = [1.0; 8];
            scratch[1] = [2.0; 8];
        }
        assert_eq!(
            (ws.buf_a.len(), ws.buf_b.len()),
            (48, 16),
            "each panel is sized by its own rows"
        );
        let before = ws.buf_a.as_ptr();
        let (y, _) = ws.panels::<4>(6, 6);
        assert_eq!(y.len(), 6);
        assert_eq!(
            ws.buf_a.as_ptr(),
            before,
            "a narrower panel reuses the buffer"
        );
    }

    #[test]
    fn chunks_cover_every_count_with_listed_widths() {
        assert_eq!(panel_chunks(0).count(), 0);
        assert_eq!(
            panel_chunks(13).collect::<Vec<_>>(),
            vec![(0, 8), (8, 4), (12, 1)]
        );
        assert_eq!(
            panel_chunks(17).collect::<Vec<_>>(),
            vec![(0, 8), (8, 8), (16, 1)]
        );
        for k in 0..40 {
            let mut next = 0;
            for (first, w) in panel_chunks(k) {
                assert_eq!(first, next);
                assert!(PANEL_WIDTHS.contains(&w));
                assert_eq!(crate::with_panel_width!(w, K => K), w);
                next += w;
            }
            assert_eq!(next, k);
        }
    }
}
