//! Supernodes of a unit-lower factor, and the one update that applies
//! one of them to a column.
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
//! *suffix*: [`apply`] solves the suffix against the supernode's
//! diagonal block and carries it into the shared rows, column by column
//! on the contiguous `axpy` of the kernel ladder, the shared rows
//! gathered into one buffer that the caller scatters back once. Two
//! callers use it:
//!
//! * the separator panels `U_{k,v} = L_kk⁻¹·P_k·Â_{k,v}` ([`lsolve_panel`]),
//!   over `L` as the CSC factor stores it, its supernodes found once
//!   from the pattern ([`supernodes`]);
//! * the left-looking update of [`tail_gp`], Gilbert–Peierls with
//!   bitset reaches over dense panels that it packs its columns into as
//!   they join a supernode. It factors a stacked block column whose
//!   rows fill in: a leaf's tail (the Schur complement the supernodal
//!   leaf kernel leaves behind) and a separator's reduced block column,
//!   both through [`factor_stacked`], which sends a column there when
//!   its bitsets fit in its entries ([`bitsets_fit`]).

use basker_klu::gp::{factor_block_column, BlockLu, ColsView};
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

/// The sparse panel solve `X = L⁻¹·P·B`, where `L` is the unit lower
/// factor of `blu` (pivotal coordinates), whose supernodes `blu`
/// carries, and `B` a panel with rows in the diagonal block's original
/// local coordinates: Basker's "factor upper off-diagonal submatrices
/// `A_ij → U_ij`" step (paper Alg. 4 line 14).
///
/// Each column's reach is searched over supernodes — one visit per
/// supernode, keeping the first column it is entered at — and applied
/// supernode by supernode in pivotal order, a topological order of `L`,
/// by [`apply`]. Its pattern is the reach, which the reached suffixes
/// list in ascending order: the rows a depth-first search over `L`'s
/// columns reaches.
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
    let mut x = vec![0.0; nb];
    // Per supernode: the first column the search entered it at.
    let mut first = vec![NONE; nsn];
    let (mut reached, mut rest) = (Vec::new(), Vec::new());
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
    let (mut rowind, mut values) = (Vec::new(), Vec::new());
    colptr.push(0);
    for j in 0..b.ncols() {
        for (r0, v) in b.col(j) {
            let t = pinv[r0];
            x[t] = v;
            enter(t, &mut first, &mut reached);
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
            let (t0, t1) = (first[s], bounds[s + 1]);
            let rows = shared(s);
            rest.clear();
            rest.extend(rows.iter().map(|&r| x[r]));
            apply(&mut x[t0..t1], &mut rest, |i| &l.col_values(t0 + i)[1..]);
            for (&r, &v) in rows.iter().zip(&rest) {
                x[r] = v;
            }
            rowind.extend(t0..t1);
            values.extend_from_slice(&x[t0..t1]);
            x[t0..t1].fill(0.0);
            first[s] = NONE;
        }
        reached.clear();
        colptr.push(rowind.len());
    }
    // SAFETY: each column's rows are the reached suffixes of supernodes
    // ascending, so distinct, ascending and below `nb`; `colptr` tracks
    // `rowind.len()`.
    unsafe { CscMat::from_parts_unchecked(nb, b.ncols(), colptr, rowind, values) }
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
    nnz: usize,
    pivot_tol: f64,
    col_offset: usize,
) -> Result<BlockLu> {
    if bitsets_fit(diag.ncols(), nnz) {
        tail_gp(diag, below, pivot_tol, col_offset)
    } else {
        factor_block_column(diag, below, pivot_tol, col_offset)
    }
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
/// one pattern below their run are one dense panel of [`TailPanels`];
/// column `j` reaches a suffix of each panel it touches, and [`apply`]
/// applies that suffix — the supernode still growing included, so every
/// earlier column updates column `j` the same way. The `below` blocks'
/// rows ride along stacked (the halo), each panel's halo rows after its
/// own, and the factors split them back.
pub(crate) fn tail_gp(
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
        let rows = &self.rows[sn.r0 + w + 1..sn.r0 + sn.nleaf];
        self.vals.extend(rows.iter().map(|&r| leaf(r)));
        let hrows = &self.hrows[sn.h0..sn.h0 + sn.ld - sn.nleaf];
        self.vals.extend(hrows.iter().map(|&h| halo(h)));
        sn.ld - w - 1
    }

    /// `L` in pivot order — unit diagonal first, rows ascending — and
    /// its `nh` halo rows, from the panels.
    fn finish(&self, pinv: &[usize], nh: usize) -> (CscMat, CscMat) {
        let m = pinv.len();
        let (mut lp, mut li, mut lx) = (vec![0], Vec::new(), Vec::new());
        let (mut bp, mut bi, mut bx) = (vec![0], Vec::new(), Vec::new());
        let mut col = Vec::new();
        for (s, sn) in self.sn.iter().enumerate() {
            let (t0, t1) = self.cols(s, m);
            let (rows, hrows) = self.shared(s, 0);
            for c in 0..t1 - t0 {
                let vals = &self.vals[sn.v0 + c * sn.ld..][..sn.ld];
                col.clear();
                col.push((t0 + c, 1.0));
                let below = rows[c + 1..].iter().zip(&vals[c + 1..sn.nleaf]);
                col.extend(below.map(|(&r, &v)| (pinv[r], v)));
                col.sort_unstable_by_key(|e| e.0);
                li.extend(col.iter().map(|e| e.0));
                lx.extend(col.iter().map(|e| e.1));
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
mod tests {
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
    /// reduced first, and on a circuit's ND blocks.
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
                let dense = tail_gp(views[0], &views[1..], tol, off).unwrap();
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
}
