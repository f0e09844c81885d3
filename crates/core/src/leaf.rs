//! Supernodal ND leaves: a leaf's stacked block column `[A_ll; A_{a,l}…]`
//! factored supernode by supernode on the dense kernel ladder.
//!
//! A leaf whose stacked column is structurally the transpose of its
//! stacked row eliminates, under diagonal pivots, with the pattern of
//! symbolic Cholesky: its ancestors' rows ride along as rows that are
//! never eliminated (the halo). Analyze ([`crate::structure`]) keeps the
//! leaf's fundamental supernodes — runs of columns that share one
//! pattern below their diagonal block — as a [`LeafPlan`], when they
//! carry most of the leaf's flops. The kernel then factors one supernode
//! `S` at a time, left-looking, in a packed panel: the rows of `U(:, S)`,
//! `S`'s own rows and its rows below, times `S`'s width.
//!
//! * Each earlier supernode `K` whose rows below meet `S` contributes
//!   once: a `trsv_lower_unit` per receiving column solves `K`'s
//!   diagonal block — that is the column's `U(K, j)` — and one rank-k
//!   `gemm_sub` carries the solved block into `K`'s rows below, ancestor
//!   rows included, so `L_{a,l}` comes out of the same update.
//! * `S` is then eliminated column by column: a `trsv_lower_unit` for
//!   its own `U` rows, a `gemv_sub` for the rest, and the scaling by the
//!   pivot.
//!
//! Every pivot is the diagonal, kept under Gilbert–Peierls's own test
//! (`|x_jj| ≥ pivot_tol ×` the largest unpivoted leaf row of the column,
//! and `x_jj ≠ 0`), so up to the first column that fails it the kernel
//! computes what Gilbert–Peierls would, in another order. From the
//! supernode of that column on — the tail — Gilbert–Peierls pivots off
//! the diagonal and the pattern is no longer Cholesky's: the kernel
//! applies the earlier supernodes' updates to the tail's columns, which
//! leaves the Schur complement `[S_tt; S_{a,t}]` in exactly the pattern
//! Gilbert–Peierls's search reaches, and factors that with partial
//! pivoting (`tail_gp`: Gilbert–Peierls with each column's reach taken
//! as a bitset instead of a depth-first search). On a 2-D mesh that is
//! large enough, the tail is the top few percent of a leaf's columns
//! and half or more of its flops, and its `L` is supernodes tens of
//! columns wide even across the off-diagonal pivots: `tail_gp` packs
//! each column into the dense panel of the supernode it joins — the
//! last one, when the column's pattern is the last column's less its
//! own pivot row — and a later column takes each supernode's update,
//! the growing one's included, as a reached suffix through
//! [`apply`]: a dense unit-lower solve and one product into the rows
//! the supernode shares, in the scalar sweep's order. A leaf
//! whose first supernode fails, or with an exactly zero `U` entry whose
//! column reaches the halo (where Gilbert–Peierls skips the update and
//! perhaps rows of `L_{a,l}`), goes to [`factor_block_column`] whole.
//! So the pivots, the `L`/`U`/`below` patterns, `|L+U|`, the flops
//! (counted as Gilbert–Peierls counts them) and the error columns are
//! always Gilbert–Peierls's, and the result is a [`BlockLu`] that the
//! refactor replay, the panels, the reductions and the solve read
//! unchanged.
//!
//! The accumulator is that one packed panel — as tall as the largest
//! supernode's rows, not `snlu`'s `n × width` — plus a row-to-position
//! map over the stacked rows, allocated once per leaf and reused by
//! every supernode. The factored supernodes' `[L_SS; L_{R,S}]` panels
//! that later supernodes read live as long as the leaf's factorization,
//! beside the factors it builds.

use crate::supernode::apply;
use basker_klu::gp::{factor_block_column, BlockLu, ColsView};
use basker_sparse::{CscMat, Perm, Result, SparseError};

const NONE: usize = usize::MAX;

/// The supernodal symbolic structure of one leaf's stacked block
/// column, from the pattern alone: rows are *stacked* indices — the
/// leaf's `nb` rows, then each ancestor's rows, ancestors ascending.
#[derive(Debug, Clone)]
pub(crate) struct LeafPlan {
    /// Stacked row boundaries: `halo[0]` is the leaf's row count `nb`,
    /// and ancestor `i`'s rows are `halo[i]..halo[i + 1]`.
    halo: Vec<usize>,
    /// Supernode `s` is columns `bounds[s]..bounds[s + 1]`.
    bounds: Vec<usize>,
    /// Supernode `s`'s rows below its diagonal block,
    /// `rows[rowptr[s]..rowptr[s + 1]]`, ascending.
    rowptr: Vec<usize>,
    rows: Vec<usize>,
    /// Supernode `s`'s contributors `contrib[cptr[s]..cptr[s + 1]]`,
    /// ascending: `(k, q0, q1)`, where `rows[q0..q1]` are the rows of
    /// supernode `k` that fall in `s`'s columns.
    cptr: Vec<usize>,
    contrib: Vec<(usize, usize, usize)>,
    /// Where supernode `s`'s factored panel waits in the arena; `NONE`
    /// when no later supernode reads it.
    panel_at: Vec<usize>,
    /// The sizes this leaf needs: its waiting panels, and in the arena
    /// its largest accumulator, staged `U(K, C)` block and staged product.
    panels_len: usize,
    acc_len: usize,
    useg_len: usize,
    prod_len: usize,
    /// Entries of the factors: `L` with its unit diagonal, `U` with its
    /// pivots, and each ancestor's `L_{a,l}`.
    l_nnz: usize,
    u_nnz: usize,
    below_nnz: Vec<usize>,
}

impl LeafPlan {
    /// The plan of a stacked block column of `halo[0]` columns over
    /// `halo.last()` stacked rows, column `j`'s rows ascending in
    /// `rowind[colptr[j]..colptr[j + 1]]`. The pattern must be that of a
    /// structurally symmetric matrix (the caller checks it); rows above
    /// the diagonal are not read.
    pub(crate) fn analyze(halo: Vec<usize>, colptr: &[usize], rowind: &[usize]) -> LeafPlan {
        let nb = halo[0];
        let n = *halo.last().expect("the leaf's rows are a stacked block");
        // Strictly-lower patterns of L, column by column: A's rows below
        // the diagonal merged with the children's (Liu's column merge);
        // a column's parent is its first leaf row below the diagonal. A
        // pattern is dropped once its parent has merged it and its
        // supernode is settled; a supernode keeps its last column's.
        let mut pats: Vec<Vec<usize>> = vec![Vec::new(); nb];
        let mut count = vec![0; nb];
        let mut mark = vec![NONE; n];
        let (mut head, mut next, mut parent) = (vec![NONE; nb], vec![NONE; nb], vec![NONE; nb]);
        let (mut bounds, mut rowptr, mut rows) = (vec![0], vec![0], Vec::new());
        let mut pat = Vec::new();
        for j in 0..nb {
            pat.clear();
            for &i in &rowind[colptr[j]..colptr[j + 1]] {
                if i > j && mark[i] != j {
                    mark[i] = j;
                    pat.push(i);
                }
            }
            let mut c = head[j];
            while c != NONE {
                for &i in &pats[c] {
                    if i > j && mark[i] != j {
                        mark[i] = j;
                        pat.push(i);
                    }
                }
                c = next[c];
            }
            pat.sort_unstable();
            count[j] = pat.len();
            if let Some(&p) = pat.first().filter(|&&p| p < nb) {
                parent[j] = p;
                next[j] = head[p];
                head[p] = j;
            }
            pats[j] = pat.clone();
            // Fundamental supernodes: column j extends j - 1's when j is
            // its parent and holds the rest of its pattern — a child's
            // pattern below the parent is a subset of the parent's, so
            // the counts decide.
            if j > 0 && (parent[j - 1] != j || count[j - 1] != count[j] + 1) {
                bounds.push(j);
                rows.extend_from_slice(&pats[j - 1]);
                rowptr.push(rows.len());
            }
            let mut c = head[j];
            while c != NONE {
                pats[c] = Vec::new();
                c = next[c];
            }
        }
        if nb > 0 {
            bounds.push(nb);
            rows.extend_from_slice(&pats[nb - 1]);
            rowptr.push(rows.len());
        }
        drop(pats);
        let nsn = bounds.len() - 1;
        let mut sn_of = vec![0; nb];
        for s in 0..nsn {
            sn_of[bounds[s]..bounds[s + 1]].fill(s);
        }

        // Contributors: each supernode's leaf rows below, in runs by the
        // supernode they fall in; filed by target, contributors ascending.
        let (cptr, contrib) = {
            let (rowptr, rows, sn_of, bounds) = (&rowptr, &rows, &sn_of, &bounds);
            let runs = |k: usize| {
                let (q0, q1) = (rowptr[k], rowptr[k + 1]);
                let leaf_end = q0 + rows[q0..q1].partition_point(|&r| r < nb);
                let mut q = q0;
                std::iter::from_fn(move || {
                    let s = sn_of[*rows[q..leaf_end].first()?];
                    let e = q + rows[q..leaf_end].partition_point(|&r| r < bounds[s + 1]);
                    let run = (s, q, e);
                    q = e;
                    Some(run)
                })
            };
            let mut cptr = vec![0; nsn + 1];
            for (s, ..) in (0..nsn).flat_map(runs) {
                cptr[s + 1] += 1;
            }
            for s in 0..nsn {
                cptr[s + 1] += cptr[s];
            }
            let mut contrib = vec![(0, 0, 0); cptr[nsn]];
            let mut at = cptr[..nsn].to_vec();
            for k in 0..nsn {
                for (s, q0, q1) in runs(k) {
                    contrib[at[s]] = (k, q0, q1);
                    at[s] += 1;
                }
            }
            (cptr, contrib)
        };

        let mut plan = LeafPlan {
            halo,
            bounds,
            rowptr,
            rows,
            cptr,
            contrib,
            panel_at: vec![NONE; nsn],
            panels_len: 0,
            acc_len: 0,
            useg_len: 0,
            prod_len: 0,
            l_nnz: 0,
            u_nnz: 0,
            below_nnz: Vec::new(),
        };
        plan.size();
        plan
    }

    /// Fills in the arena sizes and the factors' entry counts.
    fn size(&mut self) {
        let nb = self.nb();
        let (mut panel_at, mut panels_len) = (vec![NONE; self.nsn()], 0);
        let (mut acc_len, mut useg_len, mut prod_len) = (0, 0, 0);
        let (mut l_nnz, mut u_nnz) = (0, 0);
        let mut below_nnz = vec![0; self.halo.len() - 1];
        for s in 0..self.nsn() {
            let w = self.width(s);
            let rs = self.rows(s);
            let leaf_rows = rs.partition_point(|&r| r < nb);
            if leaf_rows > 0 {
                panel_at[s] = panels_len;
                panels_len += (w + rs.len()) * w;
            }
            let mut nr = w + rs.len();
            l_nnz += w * (w + 1) / 2 + w * leaf_rows;
            u_nnz += w * (w + 1) / 2;
            for (b, n) in below_nnz.iter_mut().enumerate() {
                let (lo, hi) = (self.halo[b], self.halo[b + 1]);
                *n += w * (rs.partition_point(|&r| r < hi) - rs.partition_point(|&r| r < lo));
            }
            for &(k, q0, q1) in self.contributors(s) {
                let (wk, p) = (self.width(k), q1 - q0);
                nr += wk;
                u_nnz += wk * p;
                useg_len = useg_len.max(wk * p);
                prod_len = prod_len.max(self.rows(k).len() * p);
            }
            acc_len = acc_len.max(nr * w);
        }
        (self.panel_at, self.panels_len) = (panel_at, panels_len);
        (self.acc_len, self.useg_len, self.prod_len) = (acc_len, useg_len, prod_len);
        (self.l_nnz, self.u_nnz, self.below_nnz) = (l_nnz, u_nnz, below_nnz);
    }

    /// The leaf's columns (and rows).
    fn nb(&self) -> usize {
        self.halo[0]
    }

    fn nsn(&self) -> usize {
        self.bounds.len() - 1
    }

    fn cols(&self, s: usize) -> (usize, usize) {
        (self.bounds[s], self.bounds[s + 1])
    }

    fn width(&self, s: usize) -> usize {
        self.bounds[s + 1] - self.bounds[s]
    }

    fn rows(&self, s: usize) -> &[usize] {
        &self.rows[self.rowptr[s]..self.rowptr[s + 1]]
    }

    fn contributors(&self, s: usize) -> &[(usize, usize, usize)] {
        &self.contrib[self.cptr[s]..self.cptr[s + 1]]
    }

    /// Symbolic-Cholesky flops (`Σ_j |L_j|²`, halo rows counted) by
    /// supernode width: `(width, flops)`, ascending by width.
    pub(crate) fn flops_by_width(&self) -> Vec<(usize, f64)> {
        let mut by = Vec::<(usize, f64)>::new();
        for s in 0..self.nsn() {
            let (w, below) = (self.width(s), self.rows(s).len());
            let flops: f64 = (0..w).map(|c| ((w - c + below) as f64).powi(2)).sum();
            match by.binary_search_by_key(&w, |e| e.0) {
                Ok(i) => by[i].1 += flops,
                Err(i) => by.insert(i, (w, flops)),
            }
        }
        by
    }

    /// The share of the symbolic-Cholesky flops in supernodes at least
    /// `min_width` wide (`NaN` for an empty leaf).
    pub(crate) fn share_from(&self, min_width: usize) -> f64 {
        let by = self.flops_by_width();
        let total: f64 = by.iter().map(|e| e.1).sum();
        let wide: f64 = by.iter().filter(|e| e.0 >= min_width).map(|e| e.1).sum();
        wide / total
    }
}

/// Factors the leaf's stacked block column `[diag; below…]` (ancestors
/// ascending) under `plan`: on the supernodal kernel up to the first
/// supernode holding a diagonal that fails Gilbert–Peierls's test, and
/// the Schur complement from that supernode on — the tail — by
/// `tail_gp`, or by [`factor_block_column`] when its bitsets would
/// outgrow the leaf's own `L`. A leaf whose first supernode fails goes
/// to [`factor_block_column`] whole. Returns the factors and whether the
/// kernel took part.
pub(crate) fn factor_leaf(
    plan: &LeafPlan,
    diag: ColsView<'_>,
    below: &[ColsView<'_>],
    pivot_tol: f64,
    col_offset: usize,
) -> Result<(BlockLu, bool)> {
    let nb = plan.nb();
    assert_eq!((diag.nrows(), diag.ncols()), (nb, nb), "the plan's leaf");
    assert_eq!(below.len(), plan.halo.len() - 1, "one block per ancestor");
    let leaf = Leaf { plan, diag, below };
    let mut out = Factors::with_capacity(plan);
    let head = leaf.run(&mut out, pivot_tol, &mut Arena::new(plan));
    match head {
        Head::Done => Ok((out.finish(plan, None), true)),
        Head::Tail(t0, schur, halo) => {
            let (m, off) = (schur.ncols(), col_offset + t0);
            let cuts: Vec<usize> = plan.halo.iter().map(|&h| h - nb).collect();
            let tail = if m * m.div_ceil(64) <= plan.l_nnz {
                tail_gp(&schur, &halo, &cuts, pivot_tol, off)?
            } else {
                let below = split_rows(&halo, &cuts);
                let views: Vec<_> = below.iter().map(ColsView::of).collect();
                factor_block_column(ColsView::of(&schur), &views, pivot_tol, off)?
            };
            Ok((out.finish(plan, Some((t0, tail))), true))
        }
        Head::Back => Ok((
            factor_block_column(diag, below, pivot_tol, col_offset)?,
            false,
        )),
    }
}

/// How far the kernel took a leaf.
enum Head {
    /// Every column.
    Done,
    /// The columns before the first: the rest is the tail, whose
    /// stacked block column is this Schur complement — its own rows, and
    /// the ancestors' rows stacked from 0.
    Tail(usize, CscMat, CscMat),
    /// None: Gilbert–Peierls takes the leaf whole.
    Back,
}

/// A leaf's operands.
struct Leaf<'a, 'v> {
    plan: &'a LeafPlan,
    diag: ColsView<'v>,
    below: &'a [ColsView<'v>],
}

impl Leaf<'_, '_> {
    /// Factors supernode after supernode until one fails the pivot test.
    fn run(&self, out: &mut Factors, pivot_tol: f64, ar: &mut Arena) -> Head {
        let plan = self.plan;
        for s in 0..plan.nsn() {
            let (nr, u0) = self.load(s, s, &out.panels, ar);
            let eliminated = eliminate(plan, s, nr, u0, pivot_tol, ar);
            let emitted = eliminated && out.emit(plan, s, nr, u0, ar);
            if emitted && plan.panel_at[s] != NONE {
                let (w, m) = (plan.width(s), nr - u0);
                let panel = &mut out.panels[plan.panel_at[s]..][..m * w];
                for (c, dst) in panel.chunks_exact_mut(m).enumerate() {
                    dst.copy_from_slice(&ar.acc[c * nr + u0..(c + 1) * nr]);
                }
            }
            ar.lay_out(plan, s, true);
            match (eliminated, emitted) {
                (true, true) => {}
                (false, _) if s > 0 => return self.tail(s, out, ar),
                _ => return Head::Back,
            }
        }
        Head::Done
    }

    /// Lays out supernode `s`'s panel, gathers `A` into it and applies
    /// the updates of its contributors before supernode `k_end`; returns
    /// the panel's height and the row of its diagonal block.
    fn load(&self, s: usize, k_end: usize, panels: &[f64], ar: &mut Arena) -> (usize, usize) {
        let plan = self.plan;
        let (nr, u0) = ar.lay_out(plan, s, false);
        let (s0, w) = (plan.bounds[s], plan.width(s));
        ar.acc[..nr * w].fill(0.0);
        for c in 0..w {
            let col = &mut ar.acc[c * nr..(c + 1) * nr];
            for (i, v) in self.diag.col(s0 + c) {
                col[ar.pos[i]] = v;
            }
            for (b, view) in self.below.iter().enumerate() {
                for (i, v) in view.col(s0 + c) {
                    col[ar.pos[plan.halo[b] + i]] = v;
                }
            }
        }
        update(plan, s, nr, k_end, panels, ar);
        (nr, u0)
    }

    /// The tail from supernode `ts` on: each of its columns updated by
    /// the supernodes before `ts`, whose `U` rows go to `out`, and the
    /// rest gathered, in the pattern Gilbert–Peierls's search would give
    /// it, into the Schur complement's stacked block column.
    fn tail(&self, ts: usize, out: &mut Factors, ar: &mut Arena) -> Head {
        let plan = self.plan;
        let (nb, t0) = (plan.nb(), plan.bounds[ts]);
        let (mut sp, mut si, mut sx) = (vec![0], Vec::new(), Vec::new());
        let (mut hp, mut hi, mut hx) = (vec![0], Vec::new(), Vec::new());
        for s in ts..plan.nsn() {
            let (nr, _) = self.load(s, ts, &out.panels, ar);
            if !out.tail_u(plan, s, ts, nr, ar) {
                ar.lay_out(plan, s, true);
                return Head::Back;
            }
            let (s0, s1) = plan.cols(s);
            for j in s0..s1 {
                // A's entries and the earlier supernodes' fill: the rows
                // the search reaches before the tail pivots.
                ar.stamp += 1;
                let stamp = ar.stamp;
                for (i, _) in self.diag.col(j).filter(|e| e.0 >= t0) {
                    ar.mark[i] = stamp;
                }
                for (b, view) in self.below.iter().enumerate() {
                    for (i, _) in view.col(j) {
                        ar.mark[plan.halo[b] + i] = stamp;
                    }
                }
                for &(k, q0, q1) in plan.contributors(s).iter().filter(|e| e.0 < ts) {
                    if plan.rows[q0..q1].binary_search(&j).is_ok() {
                        for &r in plan.rows(k).iter().filter(|&&r| r >= t0) {
                            ar.mark[r] = stamp;
                        }
                    }
                }
                let later = plan.contributors(s).iter().filter(|e| e.0 >= ts);
                let rows = (later.flat_map(|e| plan.bounds[e.0]..plan.bounds[e.0 + 1]))
                    .chain(s0..s1)
                    .chain(plan.rows(s).iter().copied());
                let col = &ar.acc[(j - s0) * nr..(j - s0 + 1) * nr];
                for r in rows.filter(|&r| ar.mark[r] == stamp) {
                    let (i, x) = if r < nb {
                        (&mut si, &mut sx)
                    } else {
                        (&mut hi, &mut hx)
                    };
                    i.push(if r < nb { r - t0 } else { r - nb });
                    x.push(col[ar.pos[r]]);
                }
                sp.push(si.len());
                hp.push(hi.len());
            }
            ar.lay_out(plan, s, true);
        }
        let (m, nh) = (nb - t0, plan.halo[plan.halo.len() - 1] - nb);
        let schur = CscMat::new(m, m, sp, si, sx).expect("the tail's rows, ascending");
        let halo = CscMat::new(nh, m, hp, hi, hx).expect("the ancestors' rows, ascending");
        Head::Tail(t0, schur, halo)
    }
}

/// Gilbert–Peierls on the tail's stacked block column `[diag; halo]`:
/// column by column, threshold partial pivoting with diagonal
/// preference, so the same pivots, patterns, flops and error columns as
/// [`factor_block_column`]. Each column's reach is a bitset grown in one
/// sweep over the earlier pivots in pivot order — a topological order of
/// the unit-lower factor — instead of a depth-first search: the tail is
/// the top of the leaf, a few thousand rows that fill in, where the
/// search costs as much as the arithmetic. The sweep goes supernode by
/// supernode: the pivot columns that share one pattern below their run
/// are one dense panel of [`TailPanels`]; column `j` reaches a suffix of
/// each panel it touches, and [`apply`] applies that suffix — the
/// supernode still growing included, so every earlier column updates
/// column `j` the same way.
/// `halo` stacks the ancestors' rows, ancestor `b`'s being
/// `cuts[b]..cuts[b + 1]`; the factors split them back.
fn tail_gp(
    diag: &CscMat,
    halo: &CscMat,
    cuts: &[usize],
    pivot_tol: f64,
    col_offset: usize,
) -> Result<BlockLu> {
    let (m, nh) = (diag.ncols(), halo.nrows());
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
        for (r, v) in diag.col_iter(j) {
            x[r] = v;
            reach[r / 64] |= 1 << (r % 64);
        }
        for (h, v) in halo.col_iter(j) {
            xb[h] = v;
            hreach[h / 64] |= 1 << (h % 64);
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
        below: split_rows(&halo, cuts),
        pinv,
        row_perm: Perm::from_vec(prow).expect("pivot rows form a permutation"),
        flops,
        supernodes: Vec::new(),
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
fn split_rows(m: &CscMat, cuts: &[usize]) -> Vec<CscMat> {
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
fn ones(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut left = word;
        std::iter::from_fn(move || {
            let bit = (left != 0).then(|| left.trailing_zeros() as usize)?;
            left &= left - 1;
            Some(w * 64 + bit)
        })
    })
}

/// The kernel's scratch for one leaf, sized by its plan and reused
/// across its supernodes. It lives for one leaf's factorization: a
/// thread-local arena kept at its high-water mark would pin memory that
/// the separator stages and later factorizations can otherwise reuse.
struct Arena {
    /// The supernode in flight: a packed column-major panel.
    acc: Vec<f64>,
    /// Stacked row → row of `acc`; `NONE` between supernodes.
    pos: Vec<usize>,
    /// One contributor's solved `U(K, C)`, and `−L_{R,K}·U(K, C)`.
    useg: Vec<f64>,
    prod: Vec<f64>,
    /// Per column of the supernode in flight: where its `U` goes next.
    cursor: Vec<usize>,
    /// Per stacked row: the stamp of the last tail column that reached
    /// it; the stamps only grow.
    mark: Vec<usize>,
    stamp: usize,
}

impl Arena {
    fn new(plan: &LeafPlan) -> Arena {
        let n = *plan.halo.last().expect("stacked rows");
        let widest = (0..plan.nsn()).map(|s| plan.width(s)).max().unwrap_or(0);
        Arena {
            acc: vec![0.0; plan.acc_len],
            pos: vec![NONE; n],
            useg: vec![0.0; plan.useg_len],
            prod: vec![0.0; plan.prod_len],
            cursor: vec![0; widest],
            mark: vec![0; n],
            stamp: 0,
        }
    }

    /// Maps supernode `s`'s panel rows — its contributors' columns, its
    /// own, its rows below — to panel rows, or back to `NONE`; returns
    /// the panel's height and the row of its diagonal block.
    fn lay_out(&mut self, plan: &LeafPlan, s: usize, clear: bool) -> (usize, usize) {
        let contributors = plan.contributors(s).iter().map(|&(k, ..)| k);
        let u0 = contributors.clone().map(|k| plan.width(k)).sum();
        let (s0, s1) = plan.cols(s);
        let rows = (contributors.flat_map(|k| plan.bounds[k]..plan.bounds[k + 1]))
            .chain(s0..s1)
            .chain(plan.rows(s).iter().copied());
        let mut nr = 0;
        for (at, r) in rows.enumerate() {
            self.pos[r] = if clear { NONE } else { at };
            nr = at + 1;
        }
        (nr, u0)
    }
}

/// Applies to supernode `s`'s panel the updates of its contributors
/// before supernode `k_end`, whose factored panels are in `panels`: per
/// contributor `K`, `U(K, j) = L_KK⁻¹·x(K)` for each receiving column
/// `j`, then one rank-k update of `K`'s rows below.
// basker-lint: deny-alloc
fn update(plan: &LeafPlan, s: usize, nr: usize, k_end: usize, panels: &[f64], ar: &mut Arena) {
    let ks = basker_kernels::active();
    let Arena {
        acc,
        pos,
        useg,
        prod,
        ..
    } = ar;
    let s0 = plan.bounds[s];
    for &(k, q0, q1) in plan.contributors(s).iter().take_while(|e| e.0 < k_end) {
        let (k0, wk, rk) = (plan.bounds[k], plan.width(k), plan.rows(k));
        let (nbk, ldk, p) = (rk.len(), wk + rk.len(), q1 - q0);
        let lk = &panels[plan.panel_at[k]..][..ldk * wk];
        let kpos = pos[k0];
        for (q, &j) in plan.rows[q0..q1].iter().enumerate() {
            let x = &mut acc[(j - s0) * nr + kpos..][..wk];
            ks.trsv_lower_unit(x, lk, ldk);
            useg[q * wk..][..wk].copy_from_slice(x);
        }
        let prod = &mut prod[..nbk * p];
        prod.fill(0.0);
        ks.gemm_sub(prod, nbk, &lk[wk..], ldk, &useg[..wk * p], wk, nbk, p, wk);
        for (q, &j) in plan.rows[q0..q1].iter().enumerate() {
            let col = &mut acc[(j - s0) * nr..][..nr];
            for (&r, &v) in rk.iter().zip(&prod[q * nbk..][..nbk]) {
                col[pos[r]] += v;
            }
        }
    }
}

/// Eliminates supernode `s` in its updated panel, column by column:
/// its own `U` rows by `trsv_lower_unit`, the rest by `gemv_sub`, then
/// the pivot test and the scaling. False at the first diagonal that
/// fails Gilbert–Peierls's pivot test.
// basker-lint: deny-alloc
fn eliminate(
    plan: &LeafPlan,
    s: usize,
    nr: usize,
    u0: usize,
    pivot_tol: f64,
    ar: &mut Arena,
) -> bool {
    let ks = basker_kernels::active();
    let w = plan.width(s);
    // The leaf rows of a column of s end here; the halo rows follow.
    let leaf_end = w + plan.rows(s).partition_point(|&r| r < plan.nb());
    for c in 0..w {
        let (head, tail) = ar.acc.split_at_mut(c * nr);
        let (ucol, lcol) = tail[u0..nr].split_at_mut(c);
        if c > 0 {
            let head = &head[u0..];
            ks.trsv_lower_unit(ucol, head, nr);
            ks.gemv_sub(lcol, &head[c..], nr, ucol);
        }
        let maxabs =
            lcol[..leaf_end - c]
                .iter()
                .fold(0.0f64, |m, x| if x.abs() > m { x.abs() } else { m });
        let pivot = lcol[0];
        let kept = pivot != 0.0 && pivot.abs() >= pivot_tol * maxabs;
        if !kept {
            return false;
        }
        for x in &mut lcol[1..] {
            *x /= pivot;
        }
    }
    true
}

/// The leaf's factors as they grow, in [`BlockLu`]'s layout.
struct Factors {
    lp: Vec<usize>,
    li: Vec<usize>,
    lx: Vec<f64>,
    up: Vec<usize>,
    ui: Vec<usize>,
    ux: Vec<f64>,
    /// Per ancestor: its `L_{a,l}`.
    bp: Vec<Vec<usize>>,
    bi: Vec<Vec<usize>>,
    bx: Vec<Vec<f64>>,
    /// The factored supernodes' `[L_SS; L_{R,S}]` panels that later
    /// supernodes read, at their `panel_at`.
    panels: Vec<f64>,
    /// Per tail column: its `U` rows above the tail.
    tp: Vec<usize>,
    ti: Vec<usize>,
    tx: Vec<f64>,
    flops: f64,
}

impl Factors {
    fn with_capacity(plan: &LeafPlan) -> Factors {
        let nb = plan.nb();
        let with_zero = |cap: usize| {
            let mut p = Vec::with_capacity(cap);
            p.push(0);
            p
        };
        Factors {
            lp: with_zero(nb + 1),
            li: Vec::with_capacity(plan.l_nnz),
            lx: Vec::with_capacity(plan.l_nnz),
            up: with_zero(nb + 1),
            ui: Vec::with_capacity(plan.u_nnz),
            ux: Vec::with_capacity(plan.u_nnz),
            bp: plan.below_nnz.iter().map(|_| with_zero(nb + 1)).collect(),
            bi: plan
                .below_nnz
                .iter()
                .map(|&m| Vec::with_capacity(m))
                .collect(),
            bx: plan
                .below_nnz
                .iter()
                .map(|&m| Vec::with_capacity(m))
                .collect(),
            panels: vec![0.0; plan.panels_len],
            tp: with_zero(1),
            ti: Vec::new(),
            tx: Vec::new(),
            flops: 0.0,
        }
    }

    /// Appends eliminated supernode `s`'s columns and counts their flops
    /// as Gilbert–Peierls does (see [`put`]), plus one per `L` entry.
    /// False where [`put`] is.
    fn emit(&mut self, plan: &LeafPlan, s: usize, nr: usize, u0: usize, ar: &mut Arena) -> bool {
        let nb = plan.nb();
        let (s0, s1) = plan.cols(s);
        let w = s1 - s0;
        // U: each column's contributor blocks ascending, then its own rows.
        let (up, ui, ux) = (&mut self.up, &mut self.ui, &mut self.ux);
        if !contributed(&mut self.flops, plan, s, s, nr, ar, (up, ui, ux), true) {
            return false;
        }
        for c in 0..w {
            let col = &ar.acc[c * nr + u0..][..=c];
            let at = ar.cursor[c];
            if !put(
                &mut self.flops,
                plan,
                s,
                &col[..c],
                &mut self.ui[at..],
                &mut self.ux[at..],
            ) {
                return false;
            }
            (self.ui[at + c], self.ux[at + c]) = (s0 + c, col[c]);
        }
        // L and the below blocks: the scaled panel under each pivot.
        let rs = plan.rows(s);
        let leaf_rows = rs.partition_point(|&r| r < nb);
        for c in 0..w {
            let col = &ar.acc[c * nr + u0..(c + 1) * nr];
            self.li.push(s0 + c);
            self.lx.push(1.0);
            self.li.extend(s0 + c + 1..s1);
            self.lx.extend_from_slice(&col[c + 1..w]);
            self.li.extend_from_slice(&rs[..leaf_rows]);
            self.lx.extend_from_slice(&col[w..w + leaf_rows]);
            self.lp.push(self.li.len());
            let mut q = leaf_rows;
            for b in 0..self.bp.len() {
                let e = q + rs[q..].partition_point(|&r| r < plan.halo[b + 1]);
                self.bi[b].extend(rs[q..e].iter().map(|&r| r - plan.halo[b]));
                self.bx[b].extend_from_slice(&col[w + q..w + e]);
                self.bp[b].push(self.bi[b].len());
                q = e;
            }
            self.flops += (w - c - 1 + rs.len()) as f64;
        }
        true
    }

    /// Appends the `U` rows that the supernodes before `ts` gave tail
    /// supernode `s`'s columns, counting their flops. False where
    /// [`put`] is.
    fn tail_u(&mut self, plan: &LeafPlan, s: usize, ts: usize, nr: usize, ar: &mut Arena) -> bool {
        let (tp, ti, tx) = (&mut self.tp, &mut self.ti, &mut self.tx);
        contributed(&mut self.flops, plan, s, ts, nr, ar, (tp, ti, tx), false)
    }

    /// The factors, the tail's `(first column, factors)` spliced in:
    /// its pivots permute the tail's rows of every earlier `L` column.
    fn finish(mut self, plan: &LeafPlan, tail: Option<(usize, BlockLu)>) -> BlockLu {
        let nb = plan.nb();
        let mut pinv: Vec<usize> = (0..nb).collect();
        let mut prow = pinv.clone();
        if let Some((t0, tail)) = tail {
            for (i, &p) in tail.pinv.iter().enumerate() {
                pinv[t0 + i] = t0 + p;
            }
            for (k, &r) in tail.row_perm.as_slice().iter().enumerate() {
                prow[t0 + k] = t0 + r;
            }
            let mut moved = Vec::new();
            for j in 0..t0 {
                let (lo, hi) = (self.lp[j], self.lp[j + 1]);
                let from = lo + self.li[lo..hi].partition_point(|&r| r < t0);
                moved.clear();
                moved.extend((from..hi).map(|p| (pinv[self.li[p]], self.lx[p])));
                moved.sort_unstable_by_key(|e| e.0);
                for (p, &(r, x)) in (from..hi).zip(&moved) {
                    (self.li[p], self.lx[p]) = (r, x);
                }
            }
            // The plan sized the arrays for the kernel's own pattern; the
            // tail's pivots change it, and the factors outlive this call.
            self.li.reserve_exact(tail.l.nnz());
            self.lx.reserve_exact(tail.l.nnz());
            self.ui.reserve_exact(self.ti.len() + tail.u.nnz());
            self.ux.reserve_exact(self.ti.len() + tail.u.nnz());
            for (b, m) in tail.below.iter().enumerate() {
                self.bi[b].reserve_exact(m.nnz());
                self.bx[b].reserve_exact(m.nnz());
            }
            for c in 0..nb - t0 {
                self.li.extend(tail.l.col_rows(c).iter().map(|&r| t0 + r));
                self.lx.extend_from_slice(tail.l.col_values(c));
                self.lp.push(self.li.len());
                let (lo, hi) = (self.tp[c], self.tp[c + 1]);
                self.ui.extend_from_slice(&self.ti[lo..hi]);
                self.ux.extend_from_slice(&self.tx[lo..hi]);
                self.ui.extend(tail.u.col_rows(c).iter().map(|&r| t0 + r));
                self.ux.extend_from_slice(tail.u.col_values(c));
                self.up.push(self.ui.len());
                for (b, m) in tail.below.iter().enumerate() {
                    self.bi[b].extend_from_slice(m.col_rows(c));
                    self.bx[b].extend_from_slice(m.col_values(c));
                    self.bp[b].push(self.bi[b].len());
                }
            }
            self.flops += tail.flops;
            for v in [&mut self.li, &mut self.ui].into_iter().chain(&mut self.bi) {
                v.shrink_to_fit();
            }
            for v in [&mut self.lx, &mut self.ux].into_iter().chain(&mut self.bx) {
                v.shrink_to_fit();
            }
        }
        // SAFETY: each L column is its unit diagonal and its rows below,
        // ascending in pivot order — the tail's re-sorted above — all
        // below `nb`; `lp` tracks `li.len()`.
        let l = unsafe { CscMat::from_parts_unchecked(nb, nb, self.lp, self.li, self.lx) };
        // SAFETY: each U column is its contributors' column runs in
        // ascending order, then its own supernode's rows — or the tail's
        // pivot rows — up to the diagonal, all below `nb`; `up` tracks
        // the column ends.
        let u = unsafe { CscMat::from_parts_unchecked(nb, nb, self.up, self.ui, self.ux) };
        let below = (self.bp.into_iter().zip(self.bi).zip(self.bx))
            .enumerate()
            .map(|(b, ((bp, bi), bx))| {
                let m = plan.halo[b + 1] - plan.halo[b];
                // SAFETY: each column holds its rows in this ancestor's
                // range, ascending and shifted to its first row, so
                // below `m`; `bp` tracks `bi.len()`.
                unsafe { CscMat::from_parts_unchecked(m, nb, bp, bi, bx) }
            })
            .collect();
        BlockLu {
            l,
            u,
            below,
            pinv,
            row_perm: Perm::from_vec(prow).expect("pivot rows form a permutation"),
            flops: self.flops,
            supernodes: Vec::new(),
        }
    }
}

/// Writes the `U` rows `x` that supernode `k` gives one column at the
/// front of `ui`/`ux`, and counts their flops as Gilbert–Peierls does:
/// two per entry below the diagonal of `L(:, t)` for each nonzero
/// `U(t, j)`. False at an exactly zero `U(t, j)` whose column `t` has
/// halo rows: Gilbert–Peierls skips that update, and with it perhaps
/// rows of `j`'s `L_{a,l}`.
fn put(
    flops: &mut f64,
    plan: &LeafPlan,
    k: usize,
    x: &[f64],
    ui: &mut [usize],
    ux: &mut [f64],
) -> bool {
    let (k0, k1) = plan.cols(k);
    let rk = plan.rows(k);
    let halo = rk.last().is_some_and(|&r| r >= plan.nb());
    for (i, &v) in x.iter().enumerate() {
        (ui[i], ux[i]) = (k0 + i, v);
        if v != 0.0 {
            *flops += 2.0 * (k1 - k0 - i - 1 + rk.len()) as f64;
        } else if halo {
            return false;
        }
    }
    true
}

/// Appends supernode `s`'s columns to the CSC arrays `(p, i, x)` with
/// the `U` rows of its contributors before supernode `k_end`, ascending,
/// leaving room after them for the column's own rows when `own`; those
/// start at `ar.cursor[c]`. Counts flops and fails as
/// [`put`] does.
#[allow(clippy::too_many_arguments)]
fn contributed(
    flops: &mut f64,
    plan: &LeafPlan,
    s: usize,
    k_end: usize,
    nr: usize,
    ar: &mut Arena,
    (p, i, x): (&mut Vec<usize>, &mut Vec<usize>, &mut Vec<f64>),
    own: bool,
) -> bool {
    let (s0, w) = (plan.bounds[s], plan.width(s));
    let from = plan.contributors(s).iter().take_while(|e| e.0 < k_end);
    let cursor = &mut ar.cursor[..w];
    for (c, n) in cursor.iter_mut().enumerate() {
        *n = if own { c + 1 } else { 0 };
    }
    for &(k, q0, q1) in from.clone() {
        for &j in &plan.rows[q0..q1] {
            cursor[j - s0] += plan.width(k);
        }
    }
    let mut end = i.len();
    for n in cursor.iter_mut() {
        (*n, end) = (end, end + *n);
        p.push(end);
    }
    i.resize(end, 0);
    x.resize(end, 0.0);
    for &(k, q0, q1) in from {
        let (kpos, wk) = (ar.pos[plan.bounds[k]], plan.width(k));
        for &j in &plan.rows[q0..q1] {
            let c = j - s0;
            let run = &ar.acc[c * nr + kpos..][..wk];
            if !put(
                flops,
                plan,
                k,
                run,
                &mut i[cursor[c]..],
                &mut x[cursor[c]..],
            ) {
                return false;
            }
            cursor[c] += wk;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::NdStructure;
    use crate::testmat::*;
    use crate::{Basker, BaskerOptions};
    use basker_sparse::{SolveWorkspace, SparseError};

    /// The one ND block of `a` under `p` leaves: the handle and the
    /// store values of `a` in its frozen map.
    fn nd_block(a: &CscMat, p: usize) -> (Basker, Vec<f64>) {
        let o = BaskerOptions {
            use_btf: false,
            ..opts(p, 16)
        };
        let sym = Basker::analyze(a, &o).unwrap();
        let (vals, _) = sym.inner.frozen.btf.image(a);
        (sym, vals)
    }

    fn nd_structure(sym: &Basker) -> &NdStructure {
        sym.structure().nd_block(0).expect("one ND block")
    }

    /// Leaf `v`'s stacked block column over `vals`, as the fresh factor
    /// reads it: `A_vv`, each ancestor's `A_{a,v}`, and the offset.
    fn leaf_views<'a>(
        sym: &'a Basker,
        vals: &'a [f64],
        v: usize,
    ) -> (ColsView<'a>, Vec<ColsView<'a>>, usize) {
        let (st, frozen) = (nd_structure(sym), &sym.inner.frozen);
        let split = &frozen.nd[0];
        let block = |r| split.block(&frozen.btf, vals, 0, st, v, r);
        let below = st.ancestors[v].iter().map(|&a| block(a)).collect();
        (block(v), below, st.nd.nodes[v].range.start)
    }

    /// The plan of a leaf's stacked block column, whatever its flops.
    fn plan_of(diag: ColsView<'_>, below: &[ColsView<'_>]) -> LeafPlan {
        let mut halo = vec![diag.nrows()];
        for b in below {
            halo.push(halo[halo.len() - 1] + b.nrows());
        }
        let (mut colptr, mut rowind) = (vec![0], Vec::new());
        for j in 0..diag.ncols() {
            rowind.extend(diag.col(j).map(|(i, _)| i));
            for (b, view) in below.iter().enumerate() {
                rowind.extend(view.col(j).map(|(i, _)| halo[b] + i));
            }
            colptr.push(rowind.len());
        }
        LeafPlan::analyze(halo, &colptr, &rowind)
    }

    fn max_abs(m: &CscMat) -> f64 {
        m.values().iter().fold(0.0f64, |x, v| x.max(v.abs()))
    }

    /// Same pattern, values within `1e-12 ×` the factor's largest.
    fn assert_close(got: &CscMat, want: &CscMat, what: &str) {
        assert_eq!(got.colptr(), want.colptr(), "{what} pattern");
        assert_eq!(got.rowind(), want.rowind(), "{what} pattern");
        let tol = 1e-12 * max_abs(want);
        for (x, y) in got.values().iter().zip(want.values()) {
            assert!((x - y).abs() <= tol, "{what}: {x} vs {y}");
        }
    }

    /// On every leaf of a 2-D and a 3-D grid at 1, 2 and 4 leaves, the
    /// kernel keeps Gilbert–Peierls's pivots, patterns, `|L+U|` and
    /// flops, and its values agree to rounding; the whole factor solves
    /// one and eight right-hand sides.
    #[test]
    fn kernel_matches_gilbert_peierls() {
        for a in [grid2d_unsym(40), grid3d_unsym(11)] {
            for p in [1usize, 2, 4] {
                let (sym, vals) = nd_block(&a, p);
                let mut supernodal = 0;
                for &v in &nd_structure(&sym).leaf_of_thread {
                    let (diag, below, off) = leaf_views(&sym, &vals, v);
                    let gp = factor_block_column(diag, &below, 0.001, off).unwrap();
                    let plan = plan_of(diag, &below);
                    let (sn, kernel) = factor_leaf(&plan, diag, &below, 0.001, off).unwrap();
                    assert!(kernel, "p={p} leaf {v}: fell back");
                    supernodal += usize::from(plan.share_from(8) >= 0.5);
                    assert_eq!(sn.pinv, gp.pinv, "p={p} leaf {v}");
                    assert_eq!(sn.lu_nnz(), gp.lu_nnz(), "p={p} leaf {v}");
                    assert_eq!(sn.flops, gp.flops, "p={p} leaf {v}");
                    assert_close(&sn.l, &gp.l, "L");
                    assert_close(&sn.u, &gp.u, "U");
                    assert_eq!(sn.below.len(), gp.below.len());
                    for (x, y) in sn.below.iter().zip(&gp.below) {
                        assert_eq!(x.nrows(), y.nrows());
                        assert_close(x, y, "below");
                    }
                }
                let num = sym.factor(&a).unwrap();
                assert_eq!(num.stats.sn_leaves, supernodal, "p={p}");
                check_solve(&num, &a, 1e-10);
                let xs: Vec<f64> = (0..8 * a.ncols()).map(|i| 1.0 + (i % 13) as f64).collect();
                let mut bs = Vec::with_capacity(xs.len());
                for x in xs.chunks(a.ncols()) {
                    bs.extend(basker_sparse::spmv::spmv(&a, x));
                }
                num.solve_multi_in_place(&mut bs, &mut SolveWorkspace::new());
                for (x, b) in bs.chunks(a.ncols()).zip(xs.chunks(a.ncols())) {
                    let b = basker_sparse::spmv::spmv(&a, b);
                    let r = basker_sparse::util::relative_residual(&a, x, &b);
                    assert!(r <= 1e-10, "p={p}: residual {r}");
                }
            }
        }
    }

    /// `a` with the entries of permuted column `j` of its one ND block
    /// that lie in `rows` (permuted) mapped through `f`; the pattern
    /// stays.
    fn revalue_col(
        sym: &Basker,
        a: &CscMat,
        j: usize,
        rows: std::ops::Range<usize>,
        f: impl Fn(usize, f64) -> f64,
    ) -> CscMat {
        let s = sym.structure();
        let mut row_at = vec![0; a.nrows()];
        for (k, &r) in s.row_perm.as_slice().iter().enumerate() {
            row_at[r] = k;
        }
        let col = s.col_perm.as_slice()[j];
        let mut m = a.clone();
        for q in a.colptr()[col]..a.colptr()[col + 1] {
            let i = row_at[a.rowind()[q]];
            if rows.contains(&i) {
                m.values_mut()[q] = f(i, a.values()[q]);
            }
        }
        m
    }

    /// Leaf `v`'s factors by the kernel and by Gilbert–Peierls over the
    /// store values of `a`.
    fn both(sym: &Basker, a: &CscMat, v: usize) -> (Result<(BlockLu, bool)>, Result<BlockLu>) {
        let (vals, _) = sym.inner.frozen.btf.image(a);
        let (diag, below, off) = leaf_views(sym, &vals, v);
        let plan = plan_of(diag, &below);
        let kernel = factor_leaf(&plan, diag, &below, 0.001, off);
        (kernel, factor_block_column(diag, &below, 0.001, off))
    }

    /// A diagonal that fails the pivot test hands the tail — from its
    /// supernode on — to partial pivoting: the pivots, patterns, `|L+U|`
    /// and flops stay Gilbert–Peierls's, which now leave the diagonal,
    /// whichever of `tail_gp` and `factor_block_column` takes the tail.
    /// In the first supernode, the whole leaf goes back, bit for bit.
    #[test]
    fn a_failing_pivot_keeps_gilbert_peierls_pivots() {
        let a = grid2d_unsym(40);
        let mut searched = false;
        for p in [1usize, 2, 4] {
            let (sym, vals) = nd_block(&a, p);
            let v = nd_structure(&sym).leaf_of_thread[0];
            let (diag, below, off) = leaf_views(&sym, &vals, v);
            let gp = factor_block_column(diag, &below, 0.001, off).unwrap();
            let nb = diag.ncols();
            // Two tails — the top third, small enough for bitsets, and
            // all but the first supernode, too big — and the whole leaf.
            let plan = plan_of(diag, &below);
            let second = plan.bounds[1];
            let bitsets = |k: usize| {
                let t0 = plan.bounds[plan.bounds.partition_point(|&b| b <= k) - 1];
                (nb - t0) * (nb - t0).div_ceil(64) <= plan.l_nnz
            };
            assert!(bitsets(nb * 2 / 3), "p={p}");
            searched |= !bitsets(second);
            for k in [nb * 2 / 3, second, 0] {
                // Leave a ten-millionth of the pivot Gilbert–Peierls took
                // at k: the updates into the diagonal do not move.
                let pivot = gp.u.col_values(k)[gp.u.col_values(k).len() - 1];
                let r0 = nd_structure(&sym).nd.nodes[v].range.start;
                let diag_row = r0 + k..r0 + k + 1;
                let bad = revalue_col(&sym, &a, r0 + k, diag_row, |_, x| x - pivot * (1.0 - 1e-7));
                let (kernel, gp) = both(&sym, &bad, v);
                let ((sn, supernodal), gp) = (kernel.unwrap(), gp.unwrap());
                assert_ne!(
                    gp.pinv[k], k,
                    "p={p} k={k}: the test must leave the diagonal"
                );
                assert_eq!(supernodal, k > 0, "p={p} k={k}");
                assert_eq!(sn.pinv, gp.pinv, "p={p} k={k}");
                assert_eq!(sn.row_perm.as_slice(), gp.row_perm.as_slice());
                assert_eq!(
                    (sn.lu_nnz(), sn.flops),
                    (gp.lu_nnz(), gp.flops),
                    "p={p} k={k}"
                );
                assert_close(&sn.l, &gp.l, "L");
                assert_close(&sn.u, &gp.u, "U");
                for (x, y) in sn.below.iter().zip(&gp.below) {
                    assert_close(x, y, "below");
                }
                if k == 0 {
                    assert_eq!(sn.l.values(), gp.l.values(), "p={p}: bit for bit");
                    assert_eq!(sn.u.values(), gp.u.values(), "p={p}: bit for bit");
                }
            }
        }
        assert!(searched, "some tail too big for bitsets");
    }

    /// The column-at-a-time `tail_gp` the supernodal one replaced, kept
    /// as its oracle: the same reach, pivots and flop count, each pivot's
    /// update one `scatter_axpy` of its `L` column and one of its below
    /// blocks.
    fn tail_gp_scalar(
        diag: &CscMat,
        halo: &CscMat,
        cuts: &[usize],
        pivot_tol: f64,
        col_offset: usize,
    ) -> Result<BlockLu> {
        let (m, nh) = (diag.ncols(), halo.nrows());
        let (words, hwords) = (m.div_ceil(64), nh.div_ceil(64));
        // Per pivot t: the rows of L(:, t) (unpivoted at t, original) and of
        // its below blocks (halo-stacked), as lists and as bitsets.
        let (mut lpat, mut bpat) = (vec![0u64; m * words], vec![0u64; m * hwords]);
        let (mut lp, mut li, mut lx) = (vec![0], Vec::new(), Vec::new());
        let (mut bp, mut bi, mut bx) = (vec![0], Vec::new(), Vec::new());
        let (mut up, mut ui, mut ux) = (vec![0], Vec::new(), Vec::new());
        let (mut pinv, mut prow) = (vec![NONE; m], vec![NONE; m]);
        let (mut x, mut xb) = (vec![0.0; m], vec![0.0; nh]);
        let (mut reach, mut hreach) = (vec![0u64; words], vec![0u64; hwords]);
        let ks = basker_kernels::active();
        let mut flops = 0.0;
        let zero_pivot = |j: usize| SparseError::ZeroPivot {
            column: col_offset + j,
        };
        for j in 0..m {
            reach.fill(0);
            hreach.fill(0);
            for (r, v) in diag.col_iter(j) {
                x[r] = v;
                reach[r / 64] |= 1 << (r % 64);
            }
            for (h, v) in halo.col_iter(j) {
                xb[h] = v;
                hreach[h / 64] |= 1 << (h % 64);
            }
            for t in 0..j {
                let r = prow[t];
                if reach[r / 64] & (1 << (r % 64)) == 0 {
                    continue;
                }
                for (w, l) in reach.iter_mut().zip(&lpat[t * words..(t + 1) * words]) {
                    *w |= l;
                }
                let xt = x[r];
                ui.push(t);
                ux.push(xt);
                if xt != 0.0 {
                    let (lo, hi, blo, bhi) = (lp[t], lp[t + 1], bp[t], bp[t + 1]);
                    ks.scatter_axpy(&mut x, &li[lo..hi], &lx[lo..hi], -xt);
                    ks.scatter_axpy(&mut xb, &bi[blo..bhi], &bx[blo..bhi], -xt);
                    for (w, b) in hreach.iter_mut().zip(&bpat[t * hwords..(t + 1) * hwords]) {
                        *w |= b;
                    }
                    flops += 2.0 * (hi - lo + bhi - blo) as f64;
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
            let diagonal = pinv[j] == NONE && reach[j / 64] & (1 << (j % 64)) != 0;
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
            for r in ones(&reach) {
                if pinv[r] == NONE {
                    li.push(r);
                    lx.push(x[r] / pivot);
                    lj[r / 64] |= 1 << (r % 64);
                }
                x[r] = 0.0;
            }
            lp.push(li.len());
            bpat[j * hwords..(j + 1) * hwords].copy_from_slice(&hreach);
            for h in ones(&hreach) {
                bi.push(h);
                bx.push(xb[h] / pivot);
                xb[h] = 0.0;
            }
            bp.push(bi.len());
            flops += (lp[j + 1] - lp[j] + bp[j + 1] - bp[j]) as f64;
        }
        // L in pivot order: unit diagonal first, rows ascending.
        let (mut fp, mut fi, mut fx) = (vec![0], Vec::with_capacity(li.len() + m), Vec::new());
        fx.reserve_exact(li.len() + m);
        let mut col = Vec::new();
        for j in 0..m {
            col.clear();
            col.push((j, 1.0));
            col.extend((lp[j]..lp[j + 1]).map(|q| (pinv[li[q]], lx[q])));
            col.sort_unstable_by_key(|e| e.0);
            fi.extend(col.iter().map(|e| e.0));
            fx.extend(col.iter().map(|e| e.1));
            fp.push(fi.len());
        }
        let l = CscMat::new(m, m, fp, fi, fx).expect("L in pivot order");
        let u = CscMat::new(m, m, up, ui, ux).expect("U in pivot order, the pivot last");
        let halo = CscMat::new(nh, m, bp, bi, bx).expect("the ancestors' rows, ascending");
        let below = split_rows(&halo, cuts);
        Ok(BlockLu {
            l,
            u,
            below,
            pinv,
            row_perm: Perm::from_vec(prow).expect("pivot rows form a permutation"),
            flops,
            supernodes: Vec::new(),
        })
    }

    /// Same pattern, values bit for bit on the scalar rung — the
    /// supernodal tail does the scalar sweep's operations in its order —
    /// and within `1e-11 ×` the factor's largest on a rung whose `axpy`
    /// fuses the multiply-add.
    fn assert_same(got: &CscMat, want: &CscMat, what: &str) {
        assert_eq!(got.colptr(), want.colptr(), "{what} pattern");
        assert_eq!(got.rowind(), want.rowind(), "{what} pattern");
        if basker_kernels::active().name() == "scalar" {
            assert_eq!(got.values(), want.values(), "{what}: bit for bit");
        }
        let tol = 1e-11 * max_abs(want);
        for (x, y) in got.values().iter().zip(want.values()) {
            assert!((x - y).abs() <= tol, "{what}: {x} vs {y}");
        }
    }

    /// Under classic partial pivoting a leaf's diagonal fails the pivot
    /// test of its own accord once its grid's diagonal is weaker than
    /// the rest of its column: the tail from that supernode on pivots off
    /// the diagonal again and again. There the supernodal `tail_gp`
    /// keeps the scalar tail's pivots, `L`/`U`/below patterns and flops,
    /// and its values, while its `L` forms supernodes across those
    /// pivots; and the leaf as a whole keeps Gilbert–Peierls's pivots,
    /// patterns and flops, its values within `1e-10 ×` each factor's
    /// largest (the Schur complements are far from diagonally dominant).
    #[test]
    fn the_supernodal_tail_is_the_scalar_tail() {
        let weak = |a: CscMat, by: f64| {
            let mut m = a.clone();
            for (q, (i, j, _)) in a.iter().enumerate() {
                if i == j {
                    m.values_mut()[q] *= by;
                }
            }
            m
        };
        let cases = [
            (weak(grid2d_unsym(40), 0.52), 2),
            (weak(grid2d_unsym(40), 0.5), 4),
            (weak(grid3d_unsym(11), 0.4), 2),
            (weak(grid3d_unsym(11), 0.4), 4),
        ];
        for (a, p) in &cases {
            let (sym, vals) = nd_block(a, *p);
            for &v in &nd_structure(&sym).leaf_of_thread {
                let (diag, below, off) = leaf_views(&sym, &vals, v);
                let plan = plan_of(diag, &below);
                let leaf = Leaf {
                    plan: &plan,
                    diag,
                    below: &below,
                };
                let mut out = Factors::with_capacity(&plan);
                let Head::Tail(t0, schur, halo) = leaf.run(&mut out, 1.0, &mut Arena::new(&plan))
                else {
                    panic!("p={p} leaf {v}: no tail");
                };
                let m = schur.ncols();
                assert!(m * m.div_ceil(64) <= plan.l_nnz, "p={p} leaf {v}: bitsets");
                let cuts: Vec<usize> = plan.halo.iter().map(|&h| h - plan.nb()).collect();
                let sn = tail_gp(&schur, &halo, &cuts, 1.0, off + t0).unwrap();
                let old = tail_gp_scalar(&schur, &halo, &cuts, 1.0, off + t0).unwrap();
                let moved = old
                    .pinv
                    .iter()
                    .enumerate()
                    .filter(|&(i, &q)| i != q)
                    .count();
                assert!(moved > 1, "p={p} leaf {v}: {moved} rows moved");
                assert_eq!(sn.pinv, old.pinv, "p={p} leaf {v}");
                assert_eq!(sn.row_perm.as_slice(), old.row_perm.as_slice());
                assert_eq!(sn.flops, old.flops, "p={p} leaf {v}");
                assert_same(&sn.l, &old.l, "L");
                assert_same(&sn.u, &old.u, "U");
                assert_eq!(sn.below.len(), old.below.len());
                for (x, y) in sn.below.iter().zip(&old.below) {
                    assert_same(x, y, "below");
                }
                let bounds = crate::supernode::supernodes(&sn.l);
                let widest = bounds.windows(2).map(|w| w[1] - w[0]).max();
                assert!(widest >= Some(8), "p={p} leaf {v}: widest {widest:?}");

                let (whole, kernel) = factor_leaf(&plan, diag, &below, 1.0, off).unwrap();
                let gp = factor_block_column(diag, &below, 1.0, off).unwrap();
                assert!(kernel, "p={p} leaf {v}");
                assert_eq!(whole.pinv, gp.pinv, "p={p} leaf {v}");
                assert_eq!((whole.lu_nnz(), whole.flops), (gp.lu_nnz(), gp.flops));
                for (x, y, what) in [(&whole.l, &gp.l, "L"), (&whole.u, &gp.u, "U")] {
                    assert_eq!(x.rowind(), y.rowind(), "{what} pattern");
                    let tol = 1e-10 * max_abs(y);
                    for (x, y) in x.values().iter().zip(y.values()) {
                        assert!((x - y).abs() <= tol, "{what}: {x} vs {y}");
                    }
                }
            }
        }
    }

    /// A leaf column that is zero in the leaf's rows fails with
    /// Gilbert–Peierls's column at every width, through the kernel and
    /// through the whole factorization.
    #[test]
    fn a_zero_column_fails_like_gilbert_peierls() {
        let a = grid2d_unsym(40);
        for p in [1usize, 2, 4] {
            let sym = nd_block(&a, p).0;
            let v = nd_structure(&sym).leaf_of_thread[0];
            let leaf = nd_structure(&sym).nd.nodes[v].range.clone();
            let j = leaf.start + leaf.len() * 2 / 3;
            let bad = revalue_col(&sym, &a, j, leaf, |_, _| 0.0);
            let (kernel, gp) = both(&sym, &bad, v);
            let column = |r: Result<()>| match r {
                Err(SparseError::ZeroPivot { column }) => column,
                other => panic!("p={p}: {other:?}"),
            };
            let want = column(gp.map(drop));
            assert_eq!(column(kernel.map(drop)), want, "p={p}");
            assert_eq!(column(sym.factor(&bad).map(drop)), want, "p={p}");
        }
    }

    /// One entry of a leaf without its mirror: that leaf stays on
    /// Gilbert–Peierls, the other leaf does not.
    #[test]
    fn an_unsymmetric_leaf_never_reaches_the_kernel() {
        let a = grid3d_unsym(14);
        let (sym, _) = nd_block(&a, 2);
        let st = nd_structure(&sym);
        assert!(
            st.leaf_plans.iter().flatten().count() == 2,
            "both leaves planned"
        );
        // An entry (i, j) of leaf 0's diagonal block, both permuted.
        let leaf = st.nd.nodes[st.leaf_of_thread[0]].range.clone();
        let s = sym.structure();
        let (col, row_of) = (s.col_perm.as_slice(), s.row_perm.as_slice());
        let j = leaf.start + 5;
        let row = a
            .col_rows(col[j])
            .iter()
            .copied()
            .find(|&r| {
                r != row_of[j] && leaf.contains(&row_of.iter().position(|&x| x == r).unwrap())
            })
            .unwrap();
        let mut t = basker_sparse::TripletMat::new(a.nrows(), a.ncols());
        for (i, c, x) in a.iter().filter(|&(i, c, _)| (i, c) != (row, col[j])) {
            t.push(i, c, x);
        }
        let lopsided = t.to_csc();
        let o = BaskerOptions {
            use_btf: false,
            ..opts(2, 16)
        };
        let sym2 = Basker::analyze(&lopsided, &o).unwrap();
        let st2 = nd_structure(&sym2);
        assert_eq!(
            st2.nd.perm.as_slice(),
            st.nd.perm.as_slice(),
            "the same dissection"
        );
        let planned: Vec<bool> = st2
            .leaf_of_thread
            .iter()
            .map(|&v| st2.leaf_plans[v].is_some())
            .collect();
        assert_eq!(planned, [false, true]);
        let num = sym2.factor(&lopsided).unwrap();
        assert_eq!(num.stats.sn_leaves, 1);
        check_solve(&num, &lopsided, 1e-10);
    }
}
