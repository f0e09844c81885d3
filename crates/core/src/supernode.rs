//! Supernodes of a unit-lower factor, and the updates that apply one of
//! them to a column or to a block of columns.
//!
//! A supernode of `L` is a run of consecutive columns whose diagonal
//! block is dense and which share one set of rows below it: column
//! `t`'s rows below the diagonal are `t + 1, …` up to the supernode's
//! end, then the shared rows. Li and Liu's survey of sparse direct
//! solvers (PAPERS.md) builds SuperLU on this shape; Basker's factors
//! have it too — a mesh leaf's `L` is runs tens of columns wide.
//!
//! A column `x` that reaches column `t` of a supernode reaches every
//! later column of it, so a supernode's part in `x ← L⁻¹·x` is a
//! *suffix*. [`apply`] applies a suffix to one column, column by column
//! of the suffix on the contiguous `axpy` of the kernel ladder.
//! [`apply_block`] applies it to every column of a block at once,
//! SuperLU's panel update: the block's entries gathered into one dense
//! panel, solved against the diagonal block by halves and carried into
//! the shared rows, each product one `gemm_sub` — the ladder's fastest
//! rung instead of its `axpy`. A column that enters the suffix later
//! than the block's first holds exact zeros in between, so every entry
//! takes the updates a column-at-a-time sweep gives it, in its order.
//! Three stages of the fresh factorization use it:
//!
//! * the separator panels `U_{k,v} = L_kk⁻¹·P_k·Â_{k,v}` ([`lsolve_panel`]),
//!   over `L` as the CSC factor stores it, its supernodes found once
//!   from the pattern ([`supernodes`]): all of a panel's columns at once,
//!   dense over the union of their rows ([`panel_values`], which the
//!   refactorization's replay runs over the same pattern);
//! * the left-looking update of [`tail_gp`], Gilbert–Peierls with
//!   bitset reaches over dense panels that it packs its columns into as
//!   they join a supernode, its columns loaded a block at a time. It
//!   factors a stacked block column whose rows fill in: a leaf's tail
//!   (the Schur complement the supernodal leaf kernel leaves behind),
//!   blocked by the leaf plan's supernodes, and a separator's reduced
//!   block column, blocked by its columns' patterns ([`pattern_blocks`]);
//! * so, through [`factor_stacked`], which sends a column there when its
//!   bitsets fit in its entries ([`bitsets_fit`]), the separator
//!   elimination as well as the leaf tails.

use crate::refactor::with_workspace;
use basker_klu::gp::{factor_block_column, BlockLu, ColsView, RefactorWorkspace};
use basker_sparse::{CscMat, Perm, Result, SparseError};

const NONE: usize = usize::MAX;

/// The supernodes of the unit-lower `l` (pivotal coordinates, each
/// column's rows ascending with its unit diagonal first): supernode `s`
/// is columns `bounds[s]..bounds[s + 1]`. Column `j` joins column
/// `j − 1`'s supernode when `L(:, j − 1)`'s rows are `j − 1`, `j` and
/// then exactly `L(:, j)`'s rows below `j`; a column that joins no
/// other is a supernode of width 1.
pub(crate) fn supernodes(l: &CscMat) -> Vec<usize> {
    let n = l.ncols();
    let mut bounds = vec![0];
    for j in 1..n {
        let (prev, this) = (l.col_rows(j - 1), l.col_rows(j));
        let joins = prev.len() == this.len() + 1 && prev[1] == j && prev[2..] == this[1..];
        if !joins {
            bounds.push(j);
        }
    }
    if n > 0 {
        bounds.push(n);
    }
    bounds
}

/// Applies a supernode's reached suffix to a column: `x` holds the
/// column's entries in the suffix's `w` columns, `rest` its entries in
/// the supernode's shared rows, and `col(i)` is suffix column `i` below
/// its diagonal — the diagonal block's `w − i − 1` rows, then the
/// shared rows. Solves `x` against the unit-lower diagonal block and
/// subtracts its product into `rest`, one column at a time in ascending
/// order, skipping a column whose entry of `x` is zero as the scalar
/// sweep does; `x` ends as the column's `U` entries.
// basker-lint: deny-alloc
pub(crate) fn apply<'a>(x: &mut [f64], rest: &mut [f64], col: impl Fn(usize) -> &'a [f64]) {
    let ks = basker_kernels::active();
    let w = x.len();
    for i in 0..w {
        let xi = x[i];
        if xi == 0.0 {
            continue;
        }
        let (diag, shared) = col(i).split_at(w - i - 1);
        ks.axpy(&mut x[i + 1..], -xi, diag);
        ks.axpy(rest, -xi, shared);
    }
}

/// Applies a supernode's reached suffix to a block of columns at once:
/// `xs` holds each column's entries in the suffix's `w` columns (`w` per
/// column, column-major), `rest` its entries in the supernode's shared
/// rows (as many per column), and `panel` the suffix's columns, one
/// column-major panel of leading dimension `ld` whose first `w` rows are
/// the unit-lower diagonal block and the rest the shared rows. Solves
/// the columns against the diagonal block by halves — the top half, the
/// top half's product into the bottom half, then the bottom half, `top`
/// holding the top half's entries for the product — and subtracts the
/// shared rows' product from `rest`, each product one `gemm_sub`. Each
/// entry takes its updates in [`apply`]'s order, and the scalar rung's
/// product skips a zero entry of `xs` as [`apply`] does; the SIMD rungs'
/// does not, so `panel` must be finite: `0·∞` would make a NaN that
/// [`apply`] never computes.
// basker-lint: deny-alloc
pub(crate) fn apply_block(
    xs: &mut [f64],
    rest: &mut [f64],
    w: usize,
    panel: &[f64],
    ld: usize,
    top: &mut [f64],
) {
    let ks = basker_kernels::active();
    let n = xs.len() / w;
    if n == 0 {
        return;
    }
    solve_halves(ks, xs, w, (w, n), panel, ld, top);
    let nr = rest.len() / n;
    ks.gemm_sub(rest, nr, &panel[w..], ld, xs, w, nr, n, w);
}

/// `x ← L⁻¹·x` on the `h × n` block of `x` (leading dimension `ldx`),
/// `L` the unit-lower `h × h` triangle of `a` (leading dimension `lda`),
/// by halves; `top` is scratch for the top half's entries.
// basker-lint: deny-alloc
fn solve_halves(
    ks: &basker_kernels::Kernels,
    x: &mut [f64],
    ldx: usize,
    (h, n): (usize, usize),
    a: &[f64],
    lda: usize,
    top: &mut [f64],
) {
    if h < 2 {
        return;
    }
    let k = h / 2;
    solve_halves(ks, x, ldx, (k, n), a, lda, top);
    let top_k = &mut top[..k * n];
    for (t, col) in top_k.chunks_exact_mut(k).zip(x.chunks_mut(ldx)) {
        t.copy_from_slice(&col[..k]);
    }
    ks.gemm_sub(&mut x[k..], ldx, &a[k..], lda, top_k, k, h - k, n, k);
    solve_halves(
        ks,
        &mut x[k..],
        ldx,
        (h - k, n),
        &a[k * lda + k..],
        lda,
        top,
    );
}

/// The sparse panel solve `X = L⁻¹·P·B`, where `L` is the unit lower
/// factor of `blu` (pivotal coordinates), whose supernodes `blu`
/// carries, and `B` a panel with rows in the diagonal block's original
/// local coordinates: Basker's "factor upper off-diagonal submatrices
/// `A_ij → U_ij`" step (paper Alg. 4 line 14).
///
/// Each column's reach is searched over supernodes — one visit per
/// supernode, keeping the first column it is entered at — and its
/// pattern is the reached suffixes in ascending order: the rows a
/// depth-first search over `L`'s columns reaches. The values are then
/// [`panel_values`]'s, supernode by supernode over all the columns.
pub(crate) fn lsolve_panel(blu: &BlockLu, b: ColsView<'_>) -> CscMat {
    let (l, pinv, bounds) = (&blu.l, &blu.pinv, &blu.supernodes);
    let nb = l.ncols();
    assert_eq!(bounds.last(), Some(&nb), "the factor's supernodes");
    let nsn = bounds.len() - 1;
    let mut sn_of = vec![0; nb];
    for s in 0..nsn {
        sn_of[bounds[s]..bounds[s + 1]].fill(s);
    }
    // The shared rows of supernode s: its last column's rows below the
    // diagonal.
    let shared = |s: usize| &l.col_rows(bounds[s + 1] - 1)[1..];
    // Per supernode: the first column the search entered it at.
    let mut first = vec![NONE; nsn];
    let mut reached = Vec::new();
    // Enters column t's supernode at t, or at the column it was entered
    // at before if that is earlier.
    let enter = |t: usize, first: &mut [usize], reached: &mut Vec<usize>| {
        let s = sn_of[t];
        if first[s] == NONE {
            reached.push(s);
        }
        first[s] = first[s].min(t);
    };
    let mut colptr = Vec::with_capacity(b.ncols() + 1);
    let mut rowind = Vec::new();
    colptr.push(0);
    for j in 0..b.ncols() {
        for (r0, _) in b.col(j) {
            enter(pinv[r0], &mut first, &mut reached);
        }
        let mut next = 0;
        while let Some(&s) = reached.get(next) {
            next += 1;
            for &r in shared(s) {
                enter(r, &mut first, &mut reached);
            }
        }
        reached.sort_unstable();
        for &s in &reached {
            rowind.extend(first[s]..bounds[s + 1]);
            first[s] = NONE;
        }
        reached.clear();
        colptr.push(rowind.len());
    }
    let mut values = vec![0.0; rowind.len()];
    with_workspace(|ws| panel_values(blu, b, &colptr, &rowind, &mut values, ws));
    // SAFETY: each column's rows are the reached suffixes of supernodes
    // ascending, so distinct, ascending and below `nb`; `colptr` tracks
    // `rowind.len()`.
    unsafe { CscMat::from_parts_unchecked(nb, b.ncols(), colptr, rowind, values) }
}

/// The values of the panel solve `X = L⁻¹·P·B` of [`lsolve_panel`] over
/// its pattern `colptr`/`rowind` (each column's reached suffixes of
/// `blu`'s supernodes, ascending), written into `values`: the fresh
/// factorization's panels and the refactorization's. The columns live
/// dense over the union of their rows, and each supernode updates all
/// the columns that reach it at once, in pivot order: through
/// [`apply_block`] over its shared rows packed into one panel, or
/// through [`apply`] when one column reaches it or a value of the panel
/// is not finite. A column whose suffix starts later than another's
/// holds exact zeros in between. The scratch is `ws`'s: once it has
/// seen a panel this large, nothing is allocated.
// basker-lint: deny-alloc
pub(crate) fn panel_values(
    blu: &BlockLu,
    b: ColsView<'_>,
    colptr: &[usize],
    rowind: &[usize],
    values: &mut [f64],
    ws: &mut RefactorWorkspace,
) {
    let (l, pinv, bounds) = (&blu.l, &blu.pinv, &blu.supernodes);
    let (nb, ncols) = (l.ncols(), b.ncols());
    let nsn = bounds.len() - 1;
    // Indices: each row's supernode and its place in the union of the
    // columns' rows, then the runs of each column's rows by supernode,
    // at most one per row, filed by supernode as (column, first row).
    let nidx = 2 * nb + nsn + 1 + 2 * rowind.len();
    let (idx, _) = ws.scratch(nidx, 0);
    let (sn_of, idx) = idx.split_at_mut(nb);
    let (pos, idx) = idx.split_at_mut(nb);
    let (at, hits) = idx.split_at_mut(nsn + 1);
    for s in 0..nsn {
        sn_of[bounds[s]..bounds[s + 1]].fill(s);
    }
    let sn_of = &*sn_of;
    let runs = |j: usize| {
        let rows = &rowind[colptr[j]..colptr[j + 1]];
        let mut p = 0;
        std::iter::from_fn(move || {
            let &r = rows.get(p)?;
            let s = sn_of[r];
            p += bounds[s + 1] - r;
            Some((s, r))
        })
    };
    pos.fill(NONE);
    for &r in rowind {
        pos[r] = 0;
    }
    let mut nu = 0;
    for p in pos.iter_mut().filter(|p| **p != NONE) {
        (*p, nu) = (nu, nu + 1);
    }
    at.fill(0);
    for j in 0..ncols {
        for (s, _) in runs(j) {
            at[s + 1] += 1;
        }
    }
    for s in 0..nsn {
        at[s + 1] += at[s];
    }
    for j in 0..ncols {
        for (s, r) in runs(j) {
            (hits[2 * at[s]], hits[2 * at[s] + 1]) = (j, r);
            at[s] += 1;
        }
    }
    // `at[s]` is now where supernode s's runs end. The largest operands,
    // for the values' scratch.
    let shared = |s: usize| &l.col_rows(bounds[s + 1] - 1)[1..];
    let (mut xs_len, mut rest_len, mut pack_len) = (0, 0, 0);
    for s in 0..nsn {
        let (h, Some(tmin)) = filed(at, hits, s) else {
            continue;
        };
        let (w, ns, nq) = (bounds[s + 1] - tmin, shared(s).len(), h.len() / 2);
        (xs_len, rest_len) = (xs_len.max(w * nq), rest_len.max(ns * nq));
        pack_len = pack_len.max((w + ns) * w + w / 2 * nq);
    }
    let nvals = nu * ncols + xs_len + rest_len + pack_len;
    let (idx, vals) = ws.scratch(nidx, nvals);
    let (pos, idx) = idx[nb..].split_at_mut(nb);
    let (at, hits) = idx.split_at_mut(nsn + 1);
    let (at, hits, pos) = (&*at, &*hits, &*pos);
    let (dense, vals) = vals.split_at_mut(nu * ncols);
    let (xs, vals) = vals.split_at_mut(xs_len);
    let (rest, pack) = vals.split_at_mut(rest_len);
    dense.fill(0.0);
    for j in 0..ncols {
        for (r0, v) in b.col(j) {
            dense[j * nu + pos[pinv[r0]]] = v;
        }
    }
    let below = |t: usize| &l.col_values(t)[1..];
    for s in 0..nsn {
        let (h, Some(tmin)) = filed(at, hits, s) else {
            continue;
        };
        let t1 = bounds[s + 1];
        let (rows, u0) = (shared(s), pos[tmin]);
        let (w, ns, nq) = (t1 - tmin, rows.len(), h.len() / 2);
        let (xs, rest) = (&mut xs[..w * nq], &mut rest[..ns * nq]);
        for (q, h) in h.chunks_exact(2).enumerate() {
            let col = &dense[h[0] * nu..(h[0] + 1) * nu];
            xs[q * w..(q + 1) * w].copy_from_slice(&col[u0..u0 + w]);
            for (x, &r) in rest[q * ns..(q + 1) * ns].iter_mut().zip(rows) {
                *x = col[pos[r]];
            }
        }
        // The suffix, one panel: each column of L holds its rows below the
        // diagonal, the diagonal block's and then the shared ones.
        let ld = w + ns;
        let (panel, top) = pack.split_at_mut(ld * w);
        let mut finite = nq > 1;
        for i in 0..w {
            if !finite {
                break;
            }
            let src = below(tmin + i);
            panel[i * ld + i + 1..(i + 1) * ld].copy_from_slice(src);
            finite = src.iter().all(|v| v.is_finite());
        }
        if finite {
            apply_block(xs, rest, w, panel, ld, top);
        } else {
            for q in 0..nq {
                let (x, r) = (&mut xs[q * w..(q + 1) * w], &mut rest[q * ns..(q + 1) * ns]);
                apply(x, r, |i| below(tmin + i));
            }
        }
        for (q, h) in h.chunks_exact(2).enumerate() {
            let col = &mut dense[h[0] * nu..(h[0] + 1) * nu];
            col[u0..u0 + w].copy_from_slice(&xs[q * w..(q + 1) * w]);
            for (&x, &r) in rest[q * ns..(q + 1) * ns].iter().zip(rows) {
                col[pos[r]] = x;
            }
        }
    }
    for j in 0..ncols {
        let col = &dense[j * nu..(j + 1) * nu];
        for p in colptr[j]..colptr[j + 1] {
            values[p] = col[pos[rowind[p]]];
        }
    }
}

/// The runs filed under supernode `s` by [`panel_values`] — `at[s]`
/// ending them — as `(column, first row)` pairs, and their lowest
/// first row.
fn filed<'a>(at: &[usize], hits: &'a [usize], s: usize) -> (&'a [usize], Option<usize>) {
    let h = &hits[2 * s.checked_sub(1).map_or(0, |p| at[p])..2 * at[s]];
    (h, h.chunks_exact(2).map(|h| h[1]).min())
}

/// Whether a stacked block column of `m` columns is dense enough for
/// [`tail_gp`]: its `m` reach bitsets, `m·⌈m/64⌉` words, fit in `nnz`,
/// the entries of the factor the caller expects (a leaf's `L`, a
/// separator's reduced blocks).
pub(crate) fn bitsets_fit(m: usize, nnz: usize) -> bool {
    m * m.div_ceil(64) <= nnz
}

/// Factors the stacked block column `[diag; below…]` with
/// Gilbert–Peierls's partial pivoting: by [`tail_gp`] when its bitsets
/// fit in `nnz` entries ([`bitsets_fit`]), else by
/// [`factor_block_column`]. Either way the pivots, patterns, flops and
/// error columns are Gilbert–Peierls's.
pub(crate) fn factor_stacked(
    diag: ColsView<'_>,
    below: &[ColsView<'_>],
    blocks: &[usize],
    nnz: usize,
    pivot_tol: f64,
    col_offset: usize,
) -> Result<BlockLu> {
    if bitsets_fit(diag.ncols(), nnz) {
        tail_gp(diag, below, blocks, pivot_tol, col_offset)
    } else {
        factor_block_column(diag, below, pivot_tol, col_offset)
    }
}

/// The blocks of [`tail_gp`] on a stacked block column with no plan of
/// its own (a separator's reduced one): the runs of consecutive columns
/// whose rows, in `diag` and in every block of `below`, are the same,
/// each cut so that its columns dense over all the rows hold no more
/// than `nnz`, the column's entries.
pub(crate) fn pattern_blocks(diag: ColsView<'_>, below: &[ColsView<'_>], nnz: usize) -> Vec<usize> {
    let m = diag.ncols();
    let rows = m + below.iter().map(|b| b.nrows()).sum::<usize>();
    let widest = (nnz / rows.max(1)).max(1);
    let same = |j: usize| {
        let mut views = std::iter::once(&diag).chain(below);
        views.all(|v| v.col(j - 1).map(|e| e.0).eq(v.col(j).map(|e| e.0)))
    };
    let mut blocks = vec![0];
    for j in 1..m {
        if !same(j) || j - blocks[blocks.len() - 1] == widest {
            blocks.push(j);
        }
    }
    if m > 0 {
        blocks.push(m);
    }
    blocks
}

/// Gilbert–Peierls on a stacked block column `[diag; below…]` whose
/// rows fill in — a leaf's tail, the Schur complement the supernodal
/// leaf kernel leaves behind, or a separator's reduced block column:
/// column by column, threshold partial pivoting with diagonal
/// preference, so the same pivots, patterns, flops and error columns as
/// [`factor_block_column`]. Each column's reach is a bitset grown in one
/// sweep over the earlier pivots in pivot order — a topological order of
/// the unit-lower factor — instead of a depth-first search: where a few
/// thousand rows fill in, the search costs as much as the arithmetic.
/// The sweep goes supernode by supernode: the pivot columns that share
/// one pattern below their run are one dense panel of [`TailPanels`],
/// and a column reaches a suffix of each panel it touches.
///
/// The columns go block by block, `blocks` being the boundaries the
/// caller takes from the structure (`0` first, the column count last);
/// a block's columns are loaded dense together. Every supernode before
/// the block — the one still growing included, up to the block —
/// updates all of the block's columns that reach it at once, through
/// [`apply_block`]. Then the block is factored by [`halves`]: its first
/// half, the first half's pivots on the second half through
/// [`apply_block`] again, then the second half, down to single columns,
/// which only choose their pivot. The reaches, pivots, `U` entries and
/// flops are each column's own, as Gilbert–Peierls counts them. Each
/// entry takes its updates in pivot order, and a column whose suffix
/// starts later than the others' holds exact zeros in between, so the
/// values are those of a column-at-a-time sweep — bit for bit on the
/// scalar rung. A panel that is not finite updates each column through
/// [`apply`], which skips the zeros. The `below` blocks' rows ride along
/// stacked (the halo), each panel's halo rows after its own, and the
/// factors split them back.
pub(crate) fn tail_gp(
    diag: ColsView<'_>,
    below: &[ColsView<'_>],
    blocks: &[usize],
    pivot_tol: f64,
    col_offset: usize,
) -> Result<BlockLu> {
    let m = diag.ncols();
    assert!(
        blocks.first() == Some(&0) && blocks.last() == Some(&m),
        "the blocks cover the columns"
    );
    // Block b's rows are halo rows cuts[b]..cuts[b + 1].
    let mut cuts = vec![0];
    for b in below {
        cuts.push(cuts[cuts.len() - 1] + b.nrows());
    }
    let nh = cuts[below.len()];
    let (words, hwords) = (m.div_ceil(64), nh.div_ceil(64));
    // Per pivot t: the rows of L(:, t) (unpivoted at t, original) and of
    // its below blocks (halo-stacked), as bitsets.
    let (mut lpat, mut bpat) = (vec![0u64; m * words], vec![0u64; m * hwords]);
    let mut panels = TailPanels::new(m);
    let (mut up, mut ui, mut ux) = (vec![0], Vec::new(), Vec::new());
    let (mut pinv, mut prow) = (vec![NONE; m], vec![NONE; m]);
    let widest = blocks.windows(2).map(|b| b[1] - b[0]).max().unwrap_or(0);
    let mut cols = InFlight::new(widest, m, nh);
    let (mut hit, mut xs, mut rest, mut top) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut flops = 0.0;
    let zero_pivot = |j: usize| SparseError::ZeroPivot {
        column: col_offset + j,
    };
    let has = |bits: &[u64], r: usize| bits[r / 64] & (1 << (r % 64)) != 0;
    let mut steps = Vec::new();
    for block in blocks.windows(2) {
        let (j0, j1) = (block[0], block[1]);
        for j in j0..j1 {
            let col = cols.col(j - j0);
            for (r, v) in diag.col(j) {
                col.x[r] = v;
                col.reach[r / 64] |= 1 << (r % 64);
            }
            for (view, &cut) in below.iter().zip(&cuts) {
                for (h, v) in view.col(j) {
                    col.xb[cut + h] = v;
                    col.hreach[(cut + h) / 64] |= 1 << ((cut + h) % 64);
                }
            }
        }
        steps.clear();
        steps.push(Step::Update(0..j0, j0..j1));
        halves(j0..j1, &mut steps);
        for step in &steps {
            match *step {
                Step::Update(ref p, ref q) if !p.is_empty() => {
                    // Pivots p on columns q: each supernode that has pivots in p,
                    // on the columns that reach it there, from the first pivot
                    // any of them reaches. A supernode that the columns' reaches
                    // together miss is passed over at once.
                    cols.union.fill(0);
                    for reach in cols
                        .reach
                        .chunks_exact(words)
                        .take(q.end - j0)
                        .skip(q.start - j0)
                    {
                        for (u, r) in cols.union.iter_mut().zip(reach) {
                            *u |= r;
                        }
                    }
                    let first = panels.sn.partition_point(|sn| sn.t0 <= p.start) - 1;
                    for s in first..panels.len() {
                        let (t0, t1) = panels.cols(s, p.end);
                        let Some(tu) = (t0.max(p.start)..t1).find(|&t| has(&cols.union, prow[t]))
                        else {
                            continue;
                        };
                        hit.clear();
                        for c in q.start - j0..q.end - j0 {
                            let reach = cols.col(c).reach;
                            let Some(ta) = (tu..t1).find(|&t| has(reach, prow[t])) else {
                                continue;
                            };
                            for (w, l) in reach.iter_mut().zip(&lpat[ta * words..(ta + 1) * words])
                            {
                                *w |= l;
                            }
                            hit.push((c, ta));
                        }
                        for &(_, ta) in &hit {
                            for (u, l) in cols
                                .union
                                .iter_mut()
                                .zip(&lpat[ta * words..(ta + 1) * words])
                            {
                                *u |= l;
                            }
                        }
                        let ta = hit
                            .iter()
                            .map(|h| h.1)
                            .min()
                            .expect("a column reaches the supernode");
                        let sn = panels.sn[s];
                        let (leaf, hrows) = panels.shared(s, t1 - t0);
                        let (w, nr) = (t1 - ta, sn.ld - (t1 - t0));
                        xs.clear();
                        rest.clear();
                        for &(c, _) in &hit {
                            let col = cols.col(c);
                            xs.extend(prow[ta..t1].iter().map(|&r| col.x[r]));
                            rest.extend(leaf.iter().map(|&r| col.x[r]));
                            rest.extend(hrows.iter().map(|&h| col.xb[h]));
                        }
                        let (vals, c0) = (&panels.vals[sn.v0..], ta - t0);
                        if sn.finite {
                            let panel = &vals[c0 * sn.ld + c0..];
                            top.resize(top.len().max(w / 2 * hit.len()), 0.0);
                            apply_block(&mut xs, &mut rest, w, panel, sn.ld, &mut top);
                        } else {
                            for q in 0..hit.len() {
                                let (x, r) =
                                    (&mut xs[q * w..(q + 1) * w], &mut rest[q * nr..(q + 1) * nr]);
                                apply(x, r, |i| {
                                    let c = c0 + i;
                                    &vals[c * sn.ld + c + 1..(c + 1) * sn.ld]
                                });
                            }
                        }
                        for (q, &(c, tc)) in hit.iter().enumerate() {
                            let (x, rs) = (&xs[q * w..(q + 1) * w], &rest[q * nr..(q + 1) * nr]);
                            let col = cols.col(c);
                            for (&r, &v) in leaf.iter().zip(rs) {
                                col.x[r] = v;
                            }
                            for (&h, &v) in hrows.iter().zip(&rs[leaf.len()..]) {
                                col.xb[h] = v;
                            }
                            // The suffix's U entries wait for the column's turn.
                            let mut updated = false;
                            let solved = &x[tc - ta..];
                            col.ut.extend(tc..t1);
                            col.uv.extend_from_slice(solved);
                            for (t, &v) in (tc..t1).zip(solved) {
                                if v != 0.0 {
                                    // Two per entry of L(:, t) and of its below blocks.
                                    flops += 2.0 * (sn.ld - (t - t0) - 1) as f64;
                                    updated = true;
                                }
                            }
                            if updated {
                                let b = &bpat[tc * hwords..(tc + 1) * hwords];
                                for (w, b) in col.hreach.iter_mut().zip(b) {
                                    *w |= b;
                                }
                            }
                        }
                    }
                }
                Step::Update(..) => {}
                Step::Column(j) => {
                    let InFlightCol {
                        x,
                        xb,
                        reach,
                        hreach,
                        ut,
                        uv,
                    } = cols.col(j - j0);
                    ui.extend_from_slice(ut);
                    ux.extend_from_slice(uv);
                    ut.clear();
                    uv.clear();
                    // The largest unpivoted row, the lowest on ties; the diagonal
                    // when it passes the threshold.
                    let (mut maxabs, mut argmax) = (0.0f64, NONE);
                    for r in ones(reach).filter(|&r| pinv[r] == NONE) {
                        if x[r].abs() > maxabs {
                            (maxabs, argmax) = (x[r].abs(), r);
                        }
                    }
                    if argmax == NONE {
                        return Err(zero_pivot(j));
                    }
                    let diagonal = pinv[j] == NONE && has(reach, j);
                    let p = if diagonal && x[j].abs() >= pivot_tol * maxabs && x[j] != 0.0 {
                        j
                    } else {
                        argmax
                    };
                    let pivot = x[p];
                    if pivot == 0.0 || maxabs == 0.0 {
                        return Err(zero_pivot(j));
                    }
                    (pinv[p], prow[j]) = (j, p);
                    ui.push(j);
                    ux.push(pivot);
                    up.push(ui.len());
                    let lj = &mut lpat[j * words..(j + 1) * words];
                    for r in ones(reach).filter(|&r| pinv[r] == NONE) {
                        lj[r / 64] |= 1 << (r % 64);
                    }
                    bpat[j * hwords..(j + 1) * hwords].copy_from_slice(hreach);
                    // Column j joins j − 1's supernode when L(:, j − 1) holds p and
                    // otherwise exactly L(:, j)'s rows, over the same halo rows.
                    let joins = j > 0 && has(&lpat[(j - 1) * words..j * words], p) && {
                        let (prev, this) = lpat[(j - 1) * words..(j + 1) * words].split_at(words);
                        let bit = |k: usize| if k == p / 64 { 1 << (p % 64) } else { 0 };
                        let hp = &bpat[(j - 1) * hwords..(j + 1) * hwords];
                        (0..words).all(|k| prev[k] & !bit(k) == this[k])
                            && hp[..hwords] == hp[hwords..]
                    };
                    if joins {
                        panels.join(p);
                    } else {
                        panels.start(j, p, ones(&lpat[j * words..(j + 1) * words]), ones(hreach));
                    }
                    flops += panels.push_col(|r| x[r] / pivot, |h| xb[h] / pivot) as f64;
                    for r in ones(reach) {
                        x[r] = 0.0;
                    }
                    for h in ones(hreach) {
                        xb[h] = 0.0;
                    }
                    reach.fill(0);
                    hreach.fill(0);
                }
            }
        }
    }
    let (l, halo) = panels.finish(&pinv, nh);
    let u = CscMat::new(m, m, up, ui, ux).expect("U in pivot order, the pivot last");
    Ok(BlockLu {
        l,
        u,
        below: split_rows(&halo, &cuts),
        pinv,
        row_perm: Perm::from_vec(prow).expect("pivot rows form a permutation"),
        flops,
        supernodes: Vec::new(),
        below_runs: Vec::new(),
    })
}

/// One step of [`tail_gp`] on a block.
enum Step {
    /// The updates of the pivots of the first range on the columns of
    /// the second.
    Update(std::ops::Range<usize>, std::ops::Range<usize>),
    /// The pivot of a column that every earlier pivot has updated.
    Column(usize),
}

/// The steps that factor the columns `cols`, every pivot before them
/// applied: the first half, the first half's pivots on the second half,
/// then the second half — Toledo's recursive LU, down to single columns.
fn halves(cols: std::ops::Range<usize>, steps: &mut Vec<Step>) {
    if cols.len() == 1 {
        steps.push(Step::Column(cols.start));
    } else if cols.len() > 1 {
        let mid = cols.start + cols.len() / 2;
        halves(cols.start..mid, steps);
        steps.push(Step::Update(cols.start..mid, mid..cols.end));
        halves(mid..cols.end, steps);
    }
}

/// The columns of one block of [`tail_gp`] in flight: each dense over
/// the rows and over the halo rows, with its reach in both as bitsets
/// and the `U` entries the block update gave it; all zero, and empty,
/// between columns.
struct InFlight {
    m: usize,
    nh: usize,
    x: Vec<f64>,
    xb: Vec<f64>,
    reach: Vec<u64>,
    hreach: Vec<u64>,
    ut: Vec<Vec<usize>>,
    uv: Vec<Vec<f64>>,
    /// The union of the block's reaches in the rows.
    union: Vec<u64>,
}

/// One column of [`InFlight`].
struct InFlightCol<'a> {
    x: &'a mut [f64],
    xb: &'a mut [f64],
    reach: &'a mut [u64],
    hreach: &'a mut [u64],
    ut: &'a mut Vec<usize>,
    uv: &'a mut Vec<f64>,
}

impl InFlight {
    fn new(width: usize, m: usize, nh: usize) -> InFlight {
        InFlight {
            m,
            nh,
            x: vec![0.0; width * m],
            xb: vec![0.0; width * nh],
            reach: vec![0; width * m.div_ceil(64)],
            hreach: vec![0; width * nh.div_ceil(64)],
            ut: vec![Vec::new(); width],
            uv: vec![Vec::new(); width],
            union: vec![0; m.div_ceil(64)],
        }
    }

    fn col(&mut self, c: usize) -> InFlightCol<'_> {
        let (m, nh) = (self.m, self.nh);
        let (words, hwords) = (m.div_ceil(64), nh.div_ceil(64));
        InFlightCol {
            x: &mut self.x[c * m..(c + 1) * m],
            xb: &mut self.xb[c * nh..(c + 1) * nh],
            reach: &mut self.reach[c * words..(c + 1) * words],
            hreach: &mut self.hreach[c * hwords..(c + 1) * hwords],
            ut: &mut self.ut[c],
            uv: &mut self.uv[c],
        }
    }
}

/// The tail's `L` and below blocks as they grow, supernode by supernode:
/// each supernode one dense column-major panel over its leaf rows — its
/// columns' pivot rows first, in pivot order, then the rows its columns
/// share — and its halo rows. A column that joins the last supernode
/// swaps its pivot row up to the panel's next pivot position and adds
/// one column to the panel.
struct TailPanels {
    sn: Vec<TailSn>,
    /// Each supernode's leaf rows (original) and halo rows
    /// (halo-stacked, ascending).
    rows: Vec<usize>,
    hrows: Vec<usize>,
    vals: Vec<f64>,
    /// Leaf row → its position among the last supernode's rows.
    at: Vec<usize>,
}

/// One supernode of [`TailPanels`].
#[derive(Clone, Copy)]
struct TailSn {
    /// Its first column, and where its leaf rows, halo rows and panel
    /// start.
    t0: usize,
    r0: usize,
    h0: usize,
    v0: usize,
    /// Its leaf rows, and all its rows: the panel's leading dimension.
    nleaf: usize,
    ld: usize,
    /// Whether every value of its panel is finite.
    finite: bool,
}

impl TailPanels {
    fn new(m: usize) -> TailPanels {
        TailPanels {
            sn: Vec::new(),
            rows: Vec::new(),
            hrows: Vec::new(),
            vals: Vec::new(),
            at: vec![NONE; m],
        }
    }

    fn len(&self) -> usize {
        self.sn.len()
    }

    /// Supernode `s`'s columns before column `j`.
    fn cols(&self, s: usize, j: usize) -> (usize, usize) {
        let t1 = self.sn.get(s + 1).map_or(j, |next| next.t0);
        (self.sn[s].t0, t1)
    }

    /// The leaf rows and halo rows that supernode `s`'s first `w`
    /// columns share below their diagonal block.
    fn shared(&self, s: usize, w: usize) -> (&[usize], &[usize]) {
        let sn = &self.sn[s];
        let hcount = sn.ld - sn.nleaf;
        (
            &self.rows[sn.r0 + w..sn.r0 + sn.nleaf],
            &self.hrows[sn.h0..sn.h0 + hcount],
        )
    }

    /// Starts a supernode at column `t0`, pivot row `p`, over the leaf
    /// rows `p` and `below` and the halo rows `halo`.
    fn start(
        &mut self,
        t0: usize,
        p: usize,
        below: impl Iterator<Item = usize>,
        halo: impl Iterator<Item = usize>,
    ) {
        let (r0, h0) = (self.rows.len(), self.hrows.len());
        self.rows.push(p);
        self.rows.extend(below);
        self.hrows.extend(halo);
        for (i, &r) in self.rows[r0..].iter().enumerate() {
            self.at[r] = i;
        }
        let nleaf = self.rows.len() - r0;
        self.sn.push(TailSn {
            t0,
            r0,
            h0,
            v0: self.vals.len(),
            nleaf,
            ld: nleaf + self.hrows.len() - h0,
            finite: true,
        });
    }

    /// The next column joins the last supernode with pivot row `p`: its
    /// row moves up to the next pivot position in every column so far.
    fn join(&mut self, p: usize) {
        let sn = *self.sn.last().expect("a supernode to join");
        let w = (self.vals.len() - sn.v0) / sn.ld;
        let (q, rows) = (self.at[p], &mut self.rows[sn.r0..sn.r0 + sn.nleaf]);
        self.at[rows[w]] = q;
        self.at[p] = w;
        rows.swap(q, w);
        for col in self.vals[sn.v0..].chunks_exact_mut(sn.ld) {
            col.swap(q, w);
        }
    }

    /// Adds the last supernode's next column, its leaf and halo rows
    /// below the pivot valued by `leaf` and `halo`; returns how many
    /// there are.
    fn push_col(&mut self, leaf: impl Fn(usize) -> f64, halo: impl Fn(usize) -> f64) -> usize {
        let sn = *self.sn.last().expect("a supernode");
        let w = (self.vals.len() - sn.v0) / sn.ld;
        self.vals.resize(self.vals.len() + w, 0.0);
        self.vals.push(1.0);
        let below = self.vals.len();
        let rows = &self.rows[sn.r0 + w + 1..sn.r0 + sn.nleaf];
        self.vals.extend(rows.iter().map(|&r| leaf(r)));
        let hrows = &self.hrows[sn.h0..sn.h0 + sn.ld - sn.nleaf];
        self.vals.extend(hrows.iter().map(|&h| halo(h)));
        let finite = self.vals[below..].iter().all(|v| v.is_finite());
        self.sn.last_mut().expect("a supernode").finite &= finite;
        sn.ld - w - 1
    }

    /// `L` in pivot order — unit diagonal first, rows ascending — and
    /// its `nh` halo rows, from the panels.
    fn finish(&self, pinv: &[usize], nh: usize) -> (CscMat, CscMat) {
        let m = pinv.len();
        // Supernode s holds w(w + 1)/2 entries of L in its diagonal block
        // and w per leaf row and per halo row below it.
        let (mut lnz, mut bnz) = (0, 0);
        for (s, sn) in self.sn.iter().enumerate() {
            let w = self.cols(s, m).1 - sn.t0;
            lnz += w * (w + 1) / 2 + w * (sn.nleaf - w);
            bnz += w * (sn.ld - sn.nleaf);
        }
        let (mut lp, mut li, mut lx) = (
            Vec::with_capacity(m + 1),
            Vec::with_capacity(lnz),
            Vec::with_capacity(lnz),
        );
        let (mut bp, mut bi, mut bx) = (
            Vec::with_capacity(m + 1),
            Vec::with_capacity(bnz),
            Vec::with_capacity(bnz),
        );
        lp.push(0);
        bp.push(0);
        let mut order = Vec::new();
        for (s, sn) in self.sn.iter().enumerate() {
            let (t0, t1) = self.cols(s, m);
            let w = t1 - t0;
            // The diagonal block's rows are the pivots t0..t1; the shared
            // rows pivot later, in one order for every column.
            let (rows, hrows) = self.shared(s, w);
            order.clear();
            order.extend(rows.iter().enumerate().map(|(i, &r)| (pinv[r], w + i)));
            order.sort_unstable();
            for c in 0..w {
                let vals = &self.vals[sn.v0 + c * sn.ld..][..sn.ld];
                li.extend(t0 + c..t1);
                lx.push(1.0);
                lx.extend_from_slice(&vals[c + 1..w]);
                li.extend(order.iter().map(|e| e.0));
                lx.extend(order.iter().map(|e| vals[e.1]));
                lp.push(li.len());
                bi.extend_from_slice(hrows);
                bx.extend_from_slice(&vals[sn.nleaf..]);
                bp.push(bi.len());
            }
        }
        let l = CscMat::new(m, m, lp, li, lx).expect("L in pivot order");
        let halo = CscMat::new(nh, m, bp, bi, bx).expect("the ancestors' rows, ascending");
        (l, halo)
    }
}

/// `m`'s rows cut at `cuts` (ascending, `0` to `m.nrows()`): one matrix
/// per range, its rows counted from the range's start.
pub(crate) fn split_rows(m: &CscMat, cuts: &[usize]) -> Vec<CscMat> {
    let cut = |lo: usize, hi: usize| {
        let (mut p, mut i, mut x) = (vec![0], Vec::new(), Vec::new());
        for j in 0..m.ncols() {
            let rows = m.col_rows(j);
            let (a, b) = (
                rows.partition_point(|&r| r < lo),
                rows.partition_point(|&r| r < hi),
            );
            i.extend(rows[a..b].iter().map(|&r| r - lo));
            x.extend_from_slice(&m.col_values(j)[a..b]);
            p.push(i.len());
        }
        CscMat::new(hi - lo, m.ncols(), p, i, x).expect("rows ascending inside the cut")
    };
    cuts.windows(2).map(|w| cut(w[0], w[1])).collect()
}

/// The set bits of a bitset, ascending.
pub(crate) fn ones(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut left = word;
        std::iter::from_fn(move || {
            let bit = (left != 0).then(|| left.trailing_zeros() as usize)?;
            left &= left - 1;
            Some(w * 64 + bit)
        })
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::testmat::*;
    use crate::{Basker, BaskerOptions};

    /// The scalar panel solve the supernodal one replaced, kept as its
    /// oracle: one column at a time, a depth-first search over `L`'s
    /// columns for the pattern, then one `scatter_axpy` per reached
    /// column in topological order.
    fn lsolve_panel_scalar(blu: &BlockLu, b: ColsView<'_>) -> CscMat {
        let nb = blu.l.ncols();
        let (l, pinv) = (&blu.l, &blu.pinv);
        let ks = basker_kernels::active();
        let (mut x, mut mark) = (vec![0.0; nb], vec![NONE; nb]);
        let (mut topo, mut dfs) = (Vec::with_capacity(nb), Vec::new());
        let mut colptr = Vec::with_capacity(b.ncols() + 1);
        let (mut rowind, mut values) = (Vec::new(), Vec::new());
        colptr.push(0);
        for j in 0..b.ncols() {
            topo.clear();
            for (r0, v) in b.col(j) {
                let i = pinv[r0];
                x[i] = v;
                if mark[i] == j {
                    continue;
                }
                mark[i] = j;
                dfs.push((i, l.colptr()[i]));
                while let Some(&(t, pos)) = dfs.last() {
                    if pos < l.colptr()[t + 1] {
                        dfs.last_mut().unwrap().1 += 1;
                        let r = l.rowind()[pos];
                        if r != t && mark[r] != j {
                            mark[r] = j;
                            dfs.push((r, l.colptr()[r]));
                        }
                    } else {
                        topo.push(t);
                        dfs.pop();
                    }
                }
            }
            for &t in topo.iter().rev() {
                let xt = x[t];
                if xt != 0.0 {
                    ks.scatter_axpy(&mut x, &l.col_rows(t)[1..], &l.col_values(t)[1..], -xt);
                }
            }
            topo.sort_unstable();
            for &t in &topo {
                rowind.push(t);
                values.push(x[t]);
                x[t] = 0.0;
            }
            colptr.push(rowind.len());
        }
        CscMat::new(nb, b.ncols(), colptr, rowind, values).unwrap()
    }

    /// The column-at-a-time `tail_gp` the blocked one replaced, kept as
    /// its oracle: every column takes each supernode's update on its own,
    /// through [`apply`], as it comes to the column.
    pub(crate) fn tail_gp_by_column(
        diag: ColsView<'_>,
        below: &[ColsView<'_>],
        pivot_tol: f64,
        col_offset: usize,
    ) -> Result<BlockLu> {
        let m = diag.ncols();
        // Block b's rows are halo rows cuts[b]..cuts[b + 1].
        let mut cuts = vec![0];
        for b in below {
            cuts.push(cuts[cuts.len() - 1] + b.nrows());
        }
        let nh = cuts[below.len()];
        let (words, hwords) = (m.div_ceil(64), nh.div_ceil(64));
        // Per pivot t: the rows of L(:, t) (unpivoted at t, original) and of
        // its below blocks (halo-stacked), as bitsets.
        let (mut lpat, mut bpat) = (vec![0u64; m * words], vec![0u64; m * hwords]);
        let mut panels = TailPanels::new(m);
        let (mut up, mut ui, mut ux) = (vec![0], Vec::new(), Vec::new());
        let (mut pinv, mut prow) = (vec![NONE; m], vec![NONE; m]);
        let (mut x, mut xb) = (vec![0.0; m], vec![0.0; nh]);
        let (mut reach, mut hreach) = (vec![0u64; words], vec![0u64; hwords]);
        let (mut xs, mut rest) = (Vec::new(), Vec::new());
        let mut flops = 0.0;
        let zero_pivot = |j: usize| SparseError::ZeroPivot {
            column: col_offset + j,
        };
        let has = |bits: &[u64], r: usize| bits[r / 64] & (1 << (r % 64)) != 0;
        for j in 0..m {
            reach.fill(0);
            hreach.fill(0);
            for (r, v) in diag.col(j) {
                x[r] = v;
                reach[r / 64] |= 1 << (r % 64);
            }
            for (view, &cut) in below.iter().zip(&cuts) {
                for (h, v) in view.col(j) {
                    xb[cut + h] = v;
                    hreach[(cut + h) / 64] |= 1 << ((cut + h) % 64);
                }
            }
            for s in 0..panels.len() {
                // The reached columns of s: a suffix, from the first whose
                // pivot row the reach holds, whose pattern holds the rest.
                let (t0, t1) = panels.cols(s, j);
                let Some(ta) = (t0..t1).find(|&t| has(&reach, prow[t])) else {
                    continue;
                };
                for (w, l) in reach.iter_mut().zip(&lpat[ta * words..(ta + 1) * words]) {
                    *w |= l;
                }
                let sn = panels.sn[s];
                let (leaf, hrows) = panels.shared(s, t1 - t0);
                xs.clear();
                xs.extend(prow[ta..t1].iter().map(|&r| x[r]));
                rest.clear();
                rest.extend(leaf.iter().map(|&r| x[r]));
                rest.extend(hrows.iter().map(|&h| xb[h]));
                let vals = &panels.vals[sn.v0..];
                let c0 = ta - t0;
                apply(&mut xs, &mut rest, |i| {
                    let c = c0 + i;
                    &vals[c * sn.ld + c + 1..(c + 1) * sn.ld]
                });
                for (&r, &v) in leaf.iter().zip(&rest) {
                    x[r] = v;
                }
                for (&h, &v) in hrows.iter().zip(&rest[leaf.len()..]) {
                    xb[h] = v;
                }
                let mut updated = false;
                for (t, &v) in (ta..t1).zip(&xs) {
                    ui.push(t);
                    ux.push(v);
                    if v != 0.0 {
                        // Two per entry of L(:, t) and of its below blocks.
                        flops += 2.0 * (sn.ld - (t - t0) - 1) as f64;
                        updated = true;
                    }
                }
                if updated {
                    for (w, b) in hreach.iter_mut().zip(&bpat[ta * hwords..(ta + 1) * hwords]) {
                        *w |= b;
                    }
                }
            }
            // The largest unpivoted row, the lowest on ties; the diagonal
            // when it passes the threshold.
            let (mut maxabs, mut argmax) = (0.0f64, NONE);
            for r in ones(&reach).filter(|&r| pinv[r] == NONE) {
                if x[r].abs() > maxabs {
                    (maxabs, argmax) = (x[r].abs(), r);
                }
            }
            if argmax == NONE {
                return Err(zero_pivot(j));
            }
            let diagonal = pinv[j] == NONE && has(&reach, j);
            let p = if diagonal && x[j].abs() >= pivot_tol * maxabs && x[j] != 0.0 {
                j
            } else {
                argmax
            };
            let pivot = x[p];
            if pivot == 0.0 || maxabs == 0.0 {
                return Err(zero_pivot(j));
            }
            (pinv[p], prow[j]) = (j, p);
            ui.push(j);
            ux.push(pivot);
            up.push(ui.len());
            let lj = &mut lpat[j * words..(j + 1) * words];
            for r in ones(&reach).filter(|&r| pinv[r] == NONE) {
                lj[r / 64] |= 1 << (r % 64);
            }
            bpat[j * hwords..(j + 1) * hwords].copy_from_slice(&hreach);
            // Column j joins j − 1's supernode when L(:, j − 1) holds p and
            // otherwise exactly L(:, j)'s rows, over the same halo rows.
            let joins = j > 0 && has(&lpat[(j - 1) * words..j * words], p) && {
                let (prev, this) = lpat[(j - 1) * words..(j + 1) * words].split_at(words);
                let bit = |k: usize| if k == p / 64 { 1 << (p % 64) } else { 0 };
                let hp = &bpat[(j - 1) * hwords..(j + 1) * hwords];
                (0..words).all(|k| prev[k] & !bit(k) == this[k]) && hp[..hwords] == hp[hwords..]
            };
            if joins {
                panels.join(p);
            } else {
                panels.start(j, p, ones(&lpat[j * words..(j + 1) * words]), ones(&hreach));
            }
            flops += panels.push_col(|r| x[r] / pivot, |h| xb[h] / pivot) as f64;
            for r in ones(&reach) {
                x[r] = 0.0;
            }
            for h in ones(&hreach) {
                xb[h] = 0.0;
            }
        }
        let (l, halo) = panels.finish(&pinv, nh);
        let u = CscMat::new(m, m, up, ui, ux).expect("U in pivot order, the pivot last");
        Ok(BlockLu {
            l,
            u,
            below: split_rows(&halo, &cuts),
            pinv,
            row_perm: Perm::from_vec(prow).expect("pivot rows form a permutation"),
            flops,
            supernodes: Vec::new(),
            below_runs: Vec::new(),
        })
    }

    /// A dense lower triangle is one supernode, a diagonal is one per
    /// column, and a column whose rows below differ from the next's
    /// ends its supernode.
    #[test]
    fn supernodes_follow_the_pattern() {
        let lower = |n: usize, keep: &dyn Fn(usize, usize) -> bool| {
            let d: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    (0..n)
                        .map(|j| f64::from(i == j || (i > j && keep(i, j))))
                        .collect()
                })
                .collect();
            CscMat::from_dense(&d)
        };
        assert_eq!(supernodes(&lower(5, &|_, _| true)), [0, 5]);
        assert_eq!(supernodes(&lower(3, &|_, _| false)), [0, 1, 2, 3]);
        assert_eq!(supernodes(&CscMat::zero(0, 0)), [0]);
        // Columns 0–1 share row 4; column 2 reaches only row 3, which
        // column 1 lacks; columns 3–4 are dense.
        let l = lower(5, &|i, j| {
            matches!((i, j), (1, 0) | (4, 0) | (4, 1) | (3, 2) | (4, 3))
        });
        assert_eq!(supernodes(&l), [0, 2, 3, 5]);
    }

    /// Every separator panel of `a`'s ND blocks against the scalar solve
    /// over the same factor and the same `Â_{k,v}` — the leaf blocks read
    /// in place, an inner separator's reduced — with the same pattern and
    /// values within `1e-12` of the panel's largest. Returns how many
    /// panels came from a leaf and from an inner separator, and the
    /// widest supernode they solved over.
    fn check_panels(a: &CscMat, o: &BaskerOptions) -> (usize, usize, usize) {
        let sym = Basker::analyze(a, o).unwrap();
        let num = sym.factor(a).unwrap();
        let (inner, replay) = (&*sym.inner, &num.replay);
        let mut counts = (0, 0, 0);
        for (i, block) in inner.structure.nd_blocks.iter().enumerate() {
            let (st, f, rec) = (&block.st, &num.nd[i], &replay.nd[i]);
            let lo = inner.structure.bounds[block.block];
            for v in 0..st.nnodes() {
                for k in st.descendants(v) {
                    let slot = k - st.subtree_start[v];
                    let red;
                    let b = match rec.panel_of[v][slot] {
                        NONE => {
                            counts.0 += 1;
                            let frozen = &inner.frozen;
                            frozen.nd[i].block(&frozen.btf, &replay.diag_vals, lo, st, v, k)
                        }
                        r => {
                            counts.1 += 1;
                            red = &rec.reductions[r];
                            let vals = &replay.red_vals[red.off..][..red.rowind.len()];
                            let shape = (red.nrows, red.colptr.len() - 1);
                            ColsView::new(&red.colptr, 1, shape, &red.rowind, vals, 0)
                        }
                    };
                    let blu = &f.fact_diag[k];
                    assert_eq!(blu.supernodes, supernodes(&blu.l), "node {k}");
                    let widths = blu.supernodes.windows(2).map(|w| w[1] - w[0]);
                    counts.2 = counts.2.max(widths.max().unwrap_or(0));
                    let (got, want) = (&f.fact_upper[v][slot], lsolve_panel_scalar(blu, b));
                    assert_eq!(got.colptr(), want.colptr(), "U_{{{k},{v}}} pattern");
                    assert_eq!(got.rowind(), want.rowind(), "U_{{{k},{v}}} pattern");
                    let scale = want.values().iter().fold(0.0f64, |m, x| m.max(x.abs()));
                    for (x, y) in got.values().iter().zip(want.values()) {
                        assert!((x - y).abs() <= 1e-12 * scale, "U_{{{k},{v}}}: {x} vs {y}");
                    }
                }
            }
        }
        counts
    }

    /// The supernodal panel solve keeps the scalar solve's patterns and
    /// its values to rounding: on a 2-D grid's leaves at two and four
    /// leaves, where the root's panels over the two inner separators are
    /// reduced first, on a circuit's ND blocks, and on a hand-built
    /// factor and panel with `±∞` entries and an empty column.
    #[test]
    fn panels_match_the_scalar_solve() {
        let nd = |p: usize| BaskerOptions {
            use_btf: false,
            ..opts(p, 16)
        };
        for (p, panels) in [(2, (2, 0)), (4, (8, 2))] {
            let (leaves, inner, widest) = check_panels(&grid2d_unsym(40), &nd(p));
            assert_eq!((leaves, inner), panels, "{p} leaves");
            assert!(widest >= 8, "{p} leaves: widest supernode {widest}");
        }
        let (leaves, ..) = check_panels(&circuit_like(2, 150), &opts(2, 64));
        assert!(leaves >= 4, "{leaves} circuit leaf panels");
        infinite_and_empty_panel();
    }

    /// A factor whose first supernode holds `∞` in a shared row, and a
    /// panel with an empty column and `±∞` entries, whose columns enter
    /// that supernode at its first or its second column: the same
    /// pattern as the scalar solve, its values to rounding and its NaNs
    /// where it has them — the columns entering at the second column hold
    /// a zero at the first, which the product must not multiply by `∞` —
    /// and a refresh over the pattern rewrites every value the same.
    fn infinite_and_empty_panel() {
        let inf = f64::INFINITY;
        let l = csc(
            6,
            &[
                &[(0, 1.0), (1, 0.5), (4, inf), (5, 0.25)],
                &[(1, 1.0), (4, -0.5), (5, 0.75)],
                &[(2, 1.0), (3, 0.5)],
                &[(3, 1.0), (4, 0.25)],
                &[(4, 1.0), (5, -0.5)],
                &[(5, 1.0)],
            ],
        );
        let blu = BlockLu {
            supernodes: supernodes(&l),
            u: l.clone(),
            l,
            below: Vec::new(),
            pinv: (0..6).collect(),
            row_perm: Perm::identity(6),
            flops: 0.0,
            below_runs: Vec::new(),
        };
        assert_eq!(blu.supernodes[..2], [0, 2], "a supernode of two columns");
        let b = csc(
            6,
            &[
                &[],
                &[(0, 1.0)],
                &[(1, 2.0)],
                &[(1, -inf), (3, 1.0)],
                &[(1, 3.0), (2, 1.0)],
                &[(0, inf)],
            ],
        );
        let (got, want) = (
            lsolve_panel(&blu, ColsView::of(&b)),
            lsolve_panel_scalar(&blu, ColsView::of(&b)),
        );
        assert_eq!(got.colptr(), want.colptr(), "pattern");
        assert_eq!(got.rowind(), want.rowind(), "pattern");
        assert_eq!(got.col_rows(0), [], "an empty reach");
        let scale = want
            .values()
            .iter()
            .filter(|v| v.is_finite())
            .fold(0.0f64, |m, x| m.max(x.abs()));
        for (x, y) in got.values().iter().zip(want.values()) {
            let same = if y.is_nan() {
                x.is_nan()
            } else if !y.is_finite() {
                x == y
            } else {
                (x - y).abs() <= 1e-12 * scale
            };
            assert!(same, "{x} vs {y}");
        }
        assert!(
            want.values().iter().any(|v| !v.is_finite()),
            "infinities reach the panel"
        );
        let mut again = vec![f64::NAN; got.nnz()];
        let mut ws = RefactorWorkspace::new();
        panel_values(
            &blu,
            ColsView::of(&b),
            got.colptr(),
            got.rowind(),
            &mut again,
            &mut ws,
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&again), bits(got.values()), "the refresh");
    }

    /// Same pattern; values bit for bit on the scalar rung, and within
    /// `1e-12 ×` the factor's largest on a rung that fuses the updates.
    fn assert_same(got: &CscMat, want: &CscMat, what: &str) {
        assert_eq!(got.colptr(), want.colptr(), "{what} pattern");
        assert_eq!(got.rowind(), want.rowind(), "{what} pattern");
        if basker_kernels::active().name() == "scalar" {
            assert_eq!(got.values(), want.values(), "{what}: bit for bit");
        }
        let scale = want.values().iter().fold(0.0f64, |m, x| m.max(x.abs()));
        for (x, y) in got.values().iter().zip(want.values()) {
            assert!((x - y).abs() <= 1e-12 * scale, "{what}: {x} vs {y}");
        }
    }

    /// Every separator of a 2-D grid's ND block at two and four leaves —
    /// at four the inner separators carry the root's rows as their halo —
    /// goes through the dense kernel: its reduced stacked column passes
    /// the bitset test, `tail_gp` over it gives the numeric's factor bit
    /// for bit, and that keeps `factor_block_column`'s pivots, row
    /// permutation, flops and `L`/`U`/below patterns, its values bit for
    /// bit on the scalar rung. A pivot that collapses inside the root, in
    /// an inner separator, or in both, is named by the same smallest
    /// column on teams of width 1, 2 and 4.
    #[test]
    fn separators_match_gilbert_peierls() {
        let a = grid2d_unsym(40);
        for (p, separators) in [(2, 1), (4, 3)] {
            let o = BaskerOptions {
                use_btf: false,
                ..opts(p, 16)
            };
            let sym = Basker::analyze(&a, &o).unwrap();
            let num = sym.factor(&a).unwrap();
            let (inner, replay) = (&*sym.inner, &num.replay);
            let block = &inner.structure.nd_blocks[0];
            let (st, f, rec) = (&block.st, &num.nd[0], &replay.nd[0]);
            let (lo, tol) = (inner.structure.bounds[block.block], inner.opts.pivot_tol);
            let inner_nodes: Vec<usize> = (0..st.nnodes())
                .filter(|&v| !st.nd.nodes[v].is_leaf())
                .collect();
            assert_eq!(inner_nodes.len(), separators, "p={p}");
            for &v in &inner_nodes {
                let targets = &rec.reductions[rec.target_of[v]..][..=st.ancestors[v].len()];
                let views: Vec<_> = (targets.iter())
                    .map(|red| {
                        let vals = &replay.red_vals[red.off..][..red.rowind.len()];
                        let shape = (red.nrows, red.colptr.len() - 1);
                        ColsView::new(&red.colptr, 1, shape, &red.rowind, vals, 0)
                    })
                    .collect();
                let nnz = targets.iter().map(|red| red.rowind.len()).sum();
                let off = lo + st.nd.nodes[v].range.start;
                assert!(bitsets_fit(views[0].ncols(), nnz), "p={p} node {v}");
                let blocks = pattern_blocks(views[0], &views[1..], nnz);
                let dense = tail_gp(views[0], &views[1..], &blocks, tol, off).unwrap();
                let gp = factor_block_column(views[0], &views[1..], tol, off).unwrap();
                let got = &f.fact_diag[v];
                assert_eq!(got.pinv, dense.pinv, "p={p} node {v}");
                assert_eq!(got.flops, dense.flops, "p={p} node {v}");
                for (x, y) in [(&got.l, &dense.l), (&got.u, &dense.u)]
                    .into_iter()
                    .chain(got.below.iter().zip(&dense.below))
                {
                    assert_eq!(x, y, "p={p} node {v}: the kernel's factor");
                }
                assert_eq!(dense.pinv, gp.pinv, "p={p} node {v}");
                assert_eq!(dense.row_perm.as_slice(), gp.row_perm.as_slice());
                assert_eq!(dense.flops, gp.flops, "p={p} node {v}");
                assert_eq!(dense.below.len(), st.ancestors[v].len());
                assert_same(&dense.l, &gp.l, "L");
                assert_same(&dense.u, &gp.u, "U");
                for (x, y) in dense.below.iter().zip(&gp.below) {
                    assert_eq!(x.nrows(), y.nrows());
                    assert_same(x, y, "below");
                }
            }
            // Collapsed pivots: a middle column of the root, of the
            // first inner separator below it (the root again at two
            // leaves), and both.
            let root = st.nnodes() - 1;
            let first = inner_nodes[0];
            let mid = |v: usize| {
                let r = &st.nd.nodes[v].range;
                lo + r.start + r.len() / 2
            };
            let s = sym.structure();
            for collapsed in [
                vec![mid(root)],
                vec![mid(first)],
                vec![mid(root), mid(first)],
            ] {
                let mut bad = a.clone();
                for &k in &collapsed {
                    let c = s.col_perm.as_slice()[k];
                    bad.values_mut()[a.colptr()[c]..a.colptr()[c + 1]].fill(0.0);
                }
                let want = collapsed.iter().min().copied();
                for width in [1, 2, 4] {
                    let team = basker_runtime::shared_team(width, false);
                    match sym.factor_on(&bad, &team) {
                        Err(basker_sparse::SparseError::ZeroPivot { column }) => {
                            assert_eq!(Some(column), want, "p={p} width {width}")
                        }
                        other => panic!("p={p} width {width}: {:?}", other.err()),
                    }
                }
            }
        }
    }

    /// Values the same as `want`'s, a NaN where it has one: bit for bit
    /// on the scalar rung, within `1e-12 ×` the column's largest finite
    /// value on a rung that fuses the updates.
    fn assert_values(got: &CscMat, want: &CscMat, what: &str) {
        assert_eq!(got.colptr(), want.colptr(), "{what} pattern");
        assert_eq!(got.rowind(), want.rowind(), "{what} pattern");
        let scalar = basker_kernels::active().name() == "scalar";
        for j in 0..want.ncols() {
            let (x, y) = (got.col_values(j), want.col_values(j));
            let finite = y.iter().filter(|v| v.is_finite());
            let tol = 1e-12 * finite.fold(0.0f64, |m, v| m.max(v.abs()));
            for (&x, &y) in x.iter().zip(y) {
                let same = if y.is_nan() {
                    x.is_nan()
                } else if scalar || !y.is_finite() {
                    x == y
                } else {
                    (x - y).abs() <= tol
                };
                assert!(same, "{what} column {j}: {x} vs {y}");
            }
        }
    }

    /// The blocked `tail_gp`'s factor against the column-at-a-time
    /// oracle's: the same pivots, row permutation, flops and `L`/`U`/below
    /// patterns, and the values of [`assert_values`].
    pub(crate) fn assert_same_tail(got: &BlockLu, want: &BlockLu, what: &str) {
        assert_eq!(got.pinv, want.pinv, "{what}: pivots");
        assert_eq!(got.row_perm.as_slice(), want.row_perm.as_slice(), "{what}");
        assert_eq!(got.flops, want.flops, "{what}: flops");
        assert_values(&got.l, &want.l, &format!("{what}: L"));
        assert_values(&got.u, &want.u, &format!("{what}: U"));
        assert_eq!(got.below.len(), want.below.len(), "{what}");
        for (x, y) in got.below.iter().zip(&want.below) {
            assert_eq!(x.nrows(), y.nrows(), "{what}");
            assert_values(x, y, &format!("{what}: below"));
        }
    }

    /// A matrix of `nrows` rows from its columns' `(row, value)` entries,
    /// rows ascending; an entry of `0.0` is kept.
    fn csc(nrows: usize, cols: &[&[(usize, f64)]]) -> CscMat {
        let mut colptr = vec![0];
        let (mut rowind, mut values) = (Vec::new(), Vec::new());
        for col in cols {
            rowind.extend(col.iter().map(|e| e.0));
            values.extend(col.iter().map(|e| e.1));
            colptr.push(rowind.len());
        }
        CscMat::new(nrows, cols.len(), colptr, rowind, values).unwrap()
    }

    /// Small stacked columns under every way of cutting them into
    /// blocks, through the blocked `tail_gp` and the column-at-a-time
    /// oracle: a column that reaches no finished supernode; an exactly
    /// zero `U` entry over a supernode with halo rows, beside a column
    /// that takes its update in the same block product; and `±∞` in `A`,
    /// which leaves a NaN in the halo rows of a supernode's first column
    /// that a later column enters only at its second — the product over
    /// the block's common suffix would multiply the NaN by that column's
    /// zero, where the column itself stays finite (four such columns, so
    /// that the SIMD product takes them four at a time).
    #[test]
    fn blocked_tail_edge_cases_match_the_column_at_a_time_tail() {
        let inf = f64::INFINITY;
        let halo_case = (
            csc(
                4,
                &[
                    &[(0, 4.0), (1, 1.0)],
                    &[(0, 0.0), (1, 4.0), (2, 1.0)],
                    &[(0, 1.0), (2, 4.0), (3, 1.0)],
                    &[(3, 4.0)],
                ],
            ),
            csc(2, &[&[(0, 1.0)], &[(1, 2.0)], &[(0, 0.5)], &[]]),
        );
        let nan_case = |sign: f64| {
            let a = csc(
                6,
                &[
                    &[(0, inf), (1, 1.0)],
                    &[(0, 0.0), (1, 1.0)],
                    &[(0, 1.0), (2, 1.0)],
                    &[(1, 1.0), (3, 1.0)],
                    &[(0, 2.0), (4, 1.0)],
                    &[(1, 2.0), (5, 1.0)],
                ],
            );
            let halo = csc(1, &[&[(0, sign * inf)], &[(0, 1.0)], &[], &[], &[], &[]]);
            (a, halo)
        };
        let mut nan_in_panel = false;
        for (diag, halo) in [halo_case, nan_case(1.0), nan_case(-1.0)] {
            let below = [ColsView::of(&halo)];
            let below = &below[..usize::from(halo.nrows() > 0)];
            let want = tail_gp_by_column(ColsView::of(&diag), below, 1.0, 0);
            let m = diag.ncols();
            for blocks in [vec![0, m], vec![0, 1, m], vec![0, 2, m], (0..=m).collect()] {
                let got = tail_gp(ColsView::of(&diag), below, &blocks, 1.0, 0);
                match (&got, &want) {
                    (Ok(got), Ok(want)) => {
                        let below = want.below.iter().flat_map(|b| b.values());
                        nan_in_panel |= below.clone().any(|v| v.is_nan());
                        assert_same_tail(got, want, &format!("blocks {blocks:?}"));
                    }
                    (got, want) => assert_eq!(got.as_ref().err(), want.as_ref().err()),
                }
            }
        }
        assert!(nan_in_panel, "a NaN in some panel");
    }
}
