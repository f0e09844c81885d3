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
//! * the leaf tail's left-looking update (`leaf::tail_gp`), over dense
//!   panels that it packs its columns into as they join a supernode.

use basker_klu::gp::{BlockLu, ColsView};
use basker_sparse::CscMat;

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
}
