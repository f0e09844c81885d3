//! Block reductions: `Â = A − Σ L·U` (paper Alg. 4 lines 18 & 24).
//!
//! Each reduction subtracts the products of already-factored `L` blocks
//! with freshly computed `U` panel blocks from a block of `A`. The paper
//! describes it as "multiple parallel sparse matrix–vector multiplication"
//! followed by a subtraction; here both phases are fused column by column
//! through a sparse accumulator, and the product goes by *run*.
//!
//! A term's `L` is a below block `L_{t,k}` of a factored node, and its
//! consecutive columns often share one row pattern — on a 2-D mesh in
//! runs tens of columns wide, the node's supernodes seen from an
//! ancestor's rows. [`pattern_runs`] finds them once, when the node is
//! factored, and the factor keeps them (`BlockLu::below_runs`). A run's
//! values are then one dense column-major `|H| × w` panel inside the CSC
//! arrays, and the entries a `U` column selects in it are one or a few
//! segments of consecutive columns: the run's rows `H` of the
//! accumulator are gathered into a packed buffer, each segment is one
//! `gemv_sub` into it, and the rows are scattered back once — where the
//! column-at-a-time product took one `scatter_axpy` per `U` entry. A `U` entry that is exactly zero contributes its pattern and no
//! arithmetic, as it did there, so an infinite `L` entry against it makes
//! no NaN; on the scalar rung every row receives the same subtractions
//! in the same order, so the values are that product's bit for bit.
//!
//! [`reduce_block_cols`] forms a run of a reduced block's columns,
//! pattern and values — what the fresh factorization runs, and whose
//! pattern its replay keeps; [`reduce_cols_into`] is the value rewrite
//! into that retained pattern every refactorization after. Both apply
//! the terms through the one grouped product.

use basker_klu::gp::ColsView;
use basker_sparse::CscMat;
use std::ops::Range;

/// One term `L·U` of a reduction, with the runs of `L`'s columns that
/// share one row pattern ([`pattern_runs`] of `l`).
#[derive(Clone, Copy)]
pub struct Term<'a> {
    /// `m x k`: a below block of a factored node.
    pub l: &'a CscMat,
    /// Run `s` of `l` is columns `runs[s]..runs[s + 1]`.
    pub runs: &'a [usize],
    /// `k x nc`: a panel solved over that node's `L`.
    pub u: &'a CscMat,
}

/// The runs of `m`'s consecutive columns that share one row pattern:
/// run `s` is columns `runs[s]..runs[s + 1]`. Column `j` joins column
/// `j − 1`'s run when their rows are equal; empty columns form runs of
/// their own kind.
pub fn pattern_runs(m: &CscMat) -> Vec<usize> {
    let n = m.ncols();
    let mut runs = vec![0];
    runs.extend((1..n).filter(|&j| m.col_rows(j) != m.col_rows(j - 1)));
    if n > 0 {
        runs.push(n);
    }
    runs
}

/// The spans of `ts` (ascending columns of `L`) that fall in one run:
/// `(p, q)` for `ts[p..q]`, in order.
fn spans<'a>(runs: &'a [usize], ts: &'a [usize]) -> impl Iterator<Item = (usize, usize)> + 'a {
    let (mut p, mut s) = (0, 0);
    std::iter::from_fn(move || {
        let &t = ts.get(p)?;
        s += runs[s + 1..].partition_point(|&b| b <= t);
        let q = p + ts[p..].partition_point(|&t| t < runs[s + 1]);
        let span = (p, q);
        p = q;
        Some(span)
    })
}

/// Subtracts column `c` of `Σ L·U` from the accumulator `x`, term by
/// term in order and run by run: the run's rows of `x` are gathered
/// into `buf` (at least as long as the tallest run), each segment of
/// consecutive, nonzero `U` entries in the run is one `gemv_sub` over
/// the run's dense panel, and the rows are scattered back once. `buf`
/// is handed back all zero.
// basker-lint: deny-alloc
fn sub_product<'t>(
    x: &mut [f64],
    terms: impl Iterator<Item = Term<'t>>,
    c: usize,
    buf: &mut [f64],
) {
    let ks = basker_kernels::active();
    for Term { l, runs, u } in terms {
        let (ts, us) = (u.col_rows(c), u.col_values(c));
        for (p, q) in spans(runs, ts) {
            let rows = l.col_rows(ts[p]);
            let ld = rows.len();
            if ld == 0 || us[p..q].iter().all(|&v| v == 0.0) {
                continue;
            }
            let panel = |t: usize| &l.values()[l.colptr()[t]..];
            let y = &mut buf[..ld];
            for (y, &r) in y.iter_mut().zip(rows) {
                *y = x[r];
            }
            let mut a = p;
            while a < q {
                if us[a] == 0.0 {
                    a += 1;
                    continue;
                }
                let mut b = a + 1;
                while b < q && ts[b] == ts[b - 1] + 1 && us[b] != 0.0 {
                    b += 1;
                }
                ks.gemv_sub(y, panel(ts[a]), ld, &us[a..b]);
                a = b;
            }
            for (&r, y) in rows.iter().zip(y) {
                x[r] = std::mem::take(y);
            }
        }
    }
}

/// Columns `cols` of `A − Σᵢ Lᵢ·Uᵢ`, where every `Lᵢ` is `m x kᵢ` and
/// every `Uᵢ` is `kᵢ x nc`, with `A` of shape `m x nc`: an
/// `m x cols.len()` matrix with sorted columns. Each column scatters
/// `A`'s column into a sparse accumulator, marks the rows of every run
/// its `U` entries select, and subtracts the grouped product (the SpMV
/// accumulation of paper Fig. 4(d), one column at a time). Patterns are
/// formed exactly — no cancellation pruning — so a refactorization with
/// different values reuses the same pattern.
pub fn reduce_block_cols<'t>(
    a: ColsView<'_>,
    terms: impl Iterator<Item = Term<'t>> + Clone,
    cols: Range<usize>,
) -> CscMat {
    let m = a.nrows();
    for Term { l, runs, u } in terms.clone() {
        assert_eq!(l.nrows(), m, "L term row mismatch");
        assert_eq!(u.ncols(), a.ncols(), "U term col mismatch");
        assert_eq!(l.ncols(), u.nrows(), "L/U inner dimension mismatch");
        assert_eq!(runs.last().copied().unwrap_or(0), l.ncols(), "runs of L");
    }
    let (mut x, mut seen, mut pat) = (vec![0.0; m], vec![false; m], Vec::with_capacity(m));
    let mut buf = vec![0.0; m];
    let mut colptr = Vec::with_capacity(cols.len() + 1);
    let (mut rowind, mut values) = (Vec::new(), Vec::new());
    colptr.push(0);
    for c in cols.clone() {
        for (i, v) in a.col(c) {
            x[i] = v;
            seen[i] = true;
            pat.push(i);
        }
        // An exact zero still contributes its pattern. Once every row is
        // in it, the bookkeeping is dead weight (separator blocks get
        // there early).
        'marking: for Term { l, runs, u } in terms.clone() {
            let ts = u.col_rows(c);
            for (p, _) in spans(runs, ts) {
                if pat.len() == m {
                    break 'marking;
                }
                for &r in l.col_rows(ts[p]) {
                    if !seen[r] {
                        seen[r] = true;
                        pat.push(r);
                    }
                }
            }
        }
        sub_product(&mut x, terms.clone(), c, &mut buf);
        pat.sort_unstable();
        for &r in &pat {
            rowind.push(r);
            values.push(x[r]);
            (x[r], seen[r]) = (0.0, false);
        }
        pat.clear();
        colptr.push(rowind.len());
    }
    // SAFETY: each column's rows are sorted, unique (`seen`) and `< m`;
    // `colptr` tracks `rowind.len()`.
    unsafe { CscMat::from_parts_unchecked(m, cols.len(), colptr, rowind, values) }
}

/// Rewrites columns `cols` of a reduced block whose pattern
/// (`colptr`/`rowind`, as [`reduce_block_cols`] formed it) is retained:
/// `out` receives the values of exactly those columns, `Â(:,c) =
/// A(:,c) − Σ L·U(:,c)` with the terms subtracted in the order given,
/// through the same grouped product. `x` and `buf` are all-zero
/// accumulators at least as long as the block has rows, and are handed
/// back all zero. With the pattern known up front there is no stamp
/// bookkeeping and nothing to sort or allocate.
// basker-lint: deny-alloc
#[allow(clippy::too_many_arguments)] // the block, its pattern and two accumulators
pub fn reduce_cols_into<'t>(
    a: ColsView<'_>,
    terms: impl Iterator<Item = Term<'t>> + Clone,
    cols: Range<usize>,
    colptr: &[usize],
    rowind: &[usize],
    out: &mut [f64],
    x: &mut [f64],
    buf: &mut [f64],
) {
    let base = colptr[cols.start];
    for c in cols {
        for (r, v) in a.col(c) {
            x[r] = v;
        }
        sub_product(x, terms.clone(), c, buf);
        for p in colptr[c]..colptr[c + 1] {
            out[p - base] = x[rowind[p]];
            x[rowind[p]] = 0.0;
        }
    }
}

/// Multiply-adds of column `c` of `Σᵢ Lᵢ·Uᵢ`, two per entry of each `L`
/// column a `U` entry selects.
pub fn product_flops<'t>(terms: impl Iterator<Item = Term<'t>>, c: usize) -> f64 {
    terms
        .map(|Term { l, u, .. }| {
            u.col_rows(c)
                .iter()
                .map(|&t| 2.0 * (l.colptr()[t + 1] - l.colptr()[t]) as f64)
                .sum::<f64>()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testmat::*;
    use crate::{Basker, BaskerOptions};

    fn dense(rows: &[Vec<f64>]) -> CscMat {
        CscMat::from_dense(rows)
    }

    /// The column-at-a-time product the grouped one replaced, kept as
    /// its oracle: per `U` entry, one subtraction per entry of the `L`
    /// column it selects, an exact zero contributing its pattern only.
    fn reduce_block_cols_scalar(
        a: ColsView<'_>,
        terms: &[(&CscMat, &CscMat)],
        cols: Range<usize>,
    ) -> CscMat {
        let m = a.nrows();
        let (mut x, mut seen, mut pat) = (vec![0.0; m], vec![false; m], Vec::new());
        let (mut colptr, mut rowind, mut values) = (vec![0], Vec::new(), Vec::new());
        for c in cols.clone() {
            for (i, v) in a.col(c) {
                x[i] = v;
                seen[i] = true;
                pat.push(i);
            }
            for (l, u) in terms {
                for (t, uv) in u.col_iter(c) {
                    for (r, lv) in l.col_iter(t) {
                        if !seen[r] {
                            seen[r] = true;
                            pat.push(r);
                        }
                        if uv != 0.0 {
                            x[r] -= lv * uv;
                        }
                    }
                }
            }
            pat.sort_unstable();
            for &r in &pat {
                rowind.push(r);
                values.push(x[r]);
                (x[r], seen[r]) = (0.0, false);
            }
            pat.clear();
            colptr.push(rowind.len());
        }
        CscMat::new(m, cols.len(), colptr, rowind, values).unwrap()
    }

    /// Same pattern; values bit for bit on the scalar rung, where every
    /// row takes the oracle's subtractions in its order, and within
    /// `1e-12 ×` the block's largest value on a rung that fuses them.
    fn assert_same(got: &CscMat, want: &CscMat, what: &str) {
        assert_eq!(got.colptr(), want.colptr(), "{what}: pattern");
        assert_eq!(got.rowind(), want.rowind(), "{what}: pattern");
        if basker_kernels::active().name() == "scalar" {
            let bits = |m: &CscMat| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(want), "{what}: bit for bit");
        }
        let scale = want.values().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (x, y) in got.values().iter().zip(want.values()) {
            assert!((x - y).abs() <= 1e-12 * scale, "{what}: {x} vs {y}");
        }
    }

    /// `A − Σ L·U` of `terms` by the grouped product, checked against
    /// the oracle, and rewritten by [`reduce_cols_into`] into its own
    /// pattern — one column at a time, last first, into NaN-filled
    /// storage — to the same bits.
    fn reduce_checked(a: &CscMat, terms: &[(&CscMat, &CscMat)], what: &str) -> CscMat {
        let runs: Vec<_> = terms.iter().map(|(l, _)| pattern_runs(l)).collect();
        let grouped = (terms.iter().zip(&runs)).map(|(&(l, u), runs)| Term { l, runs, u });
        let got = reduce_block_cols(ColsView::of(a), grouped.clone(), 0..a.ncols());
        let want = reduce_block_cols_scalar(ColsView::of(a), terms, 0..a.ncols());
        assert_same(&got, &want, what);
        let m = a.nrows();
        let (mut vals, mut x, mut buf) = (vec![f64::NAN; got.nnz()], vec![0.0; m], vec![0.0; m]);
        for c in (0..a.ncols()).rev() {
            let (lo, hi) = (got.colptr()[c], got.colptr()[c + 1]);
            let out = &mut vals[lo..hi];
            let (colptr, rowind) = (got.colptr(), got.rowind());
            reduce_cols_into(
                ColsView::of(a),
                grouped.clone(),
                c..c + 1,
                colptr,
                rowind,
                out,
                &mut x,
                &mut buf,
            );
        }
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&vals), bits(got.values()), "{what}: rewrite");
        assert!(x.iter().chain(&buf).all(|&v| v == 0.0), "{what}: scratch");
        got
    }

    #[test]
    fn runs_follow_the_pattern() {
        let m = dense(&[
            vec![1.0, 2.0, 0.0, 0.0, 5.0, 6.0],
            vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0],
            vec![3.0, 4.0, 0.0, 1.0, 0.0, 0.0],
        ]);
        assert_eq!(pattern_runs(&m), [0, 2, 3, 4, 6]);
        assert_eq!(pattern_runs(&CscMat::zero(3, 0)), [0]);
        assert_eq!(pattern_runs(&CscMat::zero(2, 3)), [0, 3]);
    }

    #[test]
    fn single_term_matches_dense_math() {
        let a = dense(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let l = dense(&[vec![1.0, 0.0], vec![0.0, 2.0], vec![1.0, 1.0]]);
        let u = dense(&[vec![1.0, 1.0], vec![0.0, 1.0]]);
        let r = reduce_checked(&a, &[(&l, &u)], "one term");
        // A - L*U
        let expect = [
            [1.0 - 1.0, 2.0 - (1.0 + 0.0)],
            [3.0 - 0.0, 4.0 - 2.0],
            [5.0 - 1.0, 6.0 - (1.0 + 1.0)],
        ];
        let rd = r.to_dense();
        for i in 0..3 {
            for j in 0..2 {
                assert!((rd[i][j] - expect[i][j]).abs() < 1e-14, "({i},{j})");
            }
        }
    }

    #[test]
    fn multiple_terms_accumulate() {
        let a = dense(&[vec![10.0]]);
        let l1 = dense(&[vec![2.0]]);
        let u1 = dense(&[vec![3.0]]);
        let l2 = dense(&[vec![1.0]]);
        let u2 = dense(&[vec![4.0]]);
        let r = reduce_checked(&a, &[(&l1, &u1), (&l2, &u2)], "two terms");
        assert_eq!(r.get(0, 0), 10.0 - 6.0 - 4.0);
    }

    #[test]
    fn empty_terms_is_copy() {
        let a = dense(&[vec![1.0, 0.0], vec![0.0, 2.0]]);
        assert_eq!(reduce_checked(&a, &[], "no terms"), a);
    }

    #[test]
    fn empty_operands() {
        let a = CscMat::zero(3, 2);
        let (l, u) = (CscMat::zero(3, 0), CscMat::zero(0, 2));
        let r = reduce_checked(&a, &[(&l, &u)], "empty operands");
        assert_eq!(r.nnz(), 0);
        assert_eq!(r.nrows(), 3);
    }

    #[test]
    fn pattern_kept_on_cancellation() {
        // A and L*U identical: values cancel but pattern must remain so a
        // later refactor with different values fits.
        let a = dense(&[vec![6.0]]);
        let l = dense(&[vec![2.0]]);
        let u = dense(&[vec![3.0]]);
        let r = reduce_checked(&a, &[(&l, &u)], "cancellation");
        assert_eq!(r.nnz(), 1);
        assert_eq!(r.get(0, 0), 0.0);
    }

    #[test]
    fn value_rewrite_matches_reduce_block() {
        let a = dense(&[vec![1.0, 2.0], vec![3.0, 0.0], vec![5.0, 6.0]]);
        let l = dense(&[vec![1.0, 0.0], vec![0.0, 2.0], vec![1.0, 1.0]]);
        let u = dense(&[vec![1.0, 1.0], vec![0.0, 1.0]]);
        let l2 = dense(&[vec![0.5], vec![0.0], vec![0.25]]);
        let u2 = dense(&[vec![0.0, 4.0]]);
        // `reduce_checked` rewrites every column into NaN-filled storage.
        let r = reduce_checked(&a, &[(&l, &u), (&l2, &u2)], "rewrite");
        assert_eq!(r.nnz(), 6);
    }

    /// A sparse `rows x cols` matrix with entry `(i, j)` present where
    /// `keep` says, valued by `val`.
    fn sparse(
        (rows, cols): (usize, usize),
        keep: impl Fn(usize, usize) -> bool,
        val: impl Fn(usize, usize) -> f64,
    ) -> CscMat {
        let mut t = basker_sparse::TripletMat::new(rows, cols);
        for j in 0..cols {
            for i in (0..rows).filter(|&i| keep(i, j)) {
                t.push(i, j, val(i, j));
            }
        }
        t.to_csc()
    }

    /// Every case the grouped product must get right, against the
    /// column-at-a-time oracle: runs of width 1; empty `L` columns; runs
    /// whose `U` entries are not a suffix, with gaps and exact zeros;
    /// run rows consecutive and scattered; cancellation, whose pattern
    /// stays; an exactly zero `U` entry against an infinite `L` entry,
    /// which makes no NaN. Then every reduction of a 2-D grid's factors
    /// at four leaves, where the runs are wide.
    #[test]
    fn grouped_product_is_the_column_at_a_time_product() {
        let val = |i: usize, j: usize| 1.0 + ((i * 7 + j * 13) % 17) as f64 / 8.0;
        let a = sparse((12, 6), |i, j| (i + j) % 3 == 0, val);
        // Width 1: every column of L a pattern of its own.
        let l = sparse((12, 8), |i, j| i % 8 == j || i == (j * 5) % 12, val);
        let u = sparse((8, 6), |t, c| (t + c) % 2 == 0, val);
        assert_eq!(pattern_runs(&l).len(), 9, "width-1 runs");
        reduce_checked(&a, &[(&l, &u)], "width 1");
        // Runs of 3 columns over consecutive rows (2..7) and over
        // scattered ones, with two empty columns between them; U's
        // entries in a run have gaps and exact zeros.
        let l = sparse(
            (12, 8),
            |i, j| match j {
                0..=2 => (2..7).contains(&i),
                3 | 4 => false,
                _ => i % 3 == 1,
            },
            val,
        );
        assert_eq!(pattern_runs(&l), [0, 3, 5, 8]);
        let u = sparse(
            (8, 6),
            |t, c| (t * 3 + c) % 5 != 0,
            |t, c| if (t + c) % 4 == 0 { 0.0 } else { val(t, c) },
        );
        let twice = reduce_checked(&a, &[(&l, &u), (&l, &u)], "runs");
        assert!(twice.nnz() > a.nnz(), "fill");
        // Cancellation: A = L·U exactly; the pattern stays.
        let l = sparse((4, 3), |i, _| i != 1, |_, _| 2.0);
        let u = sparse((3, 2), |_, _| true, |t, _| if t == 1 { 0.5 } else { 1.0 });
        let a0 = sparse((4, 2), |i, _| i != 1, |_, _| 5.0);
        let r = reduce_checked(&a0, &[(&l, &u)], "cancellation");
        assert_eq!(r.nnz(), 6);
        assert!(r.values().iter().all(|&v| v == 0.0), "{:?}", r.values());
        // ±∞ in L against an exactly zero U entry: in the middle of a
        // run, at its end and as the run's only entry.
        let l = sparse(
            (5, 4),
            |i, _| i != 2,
            |i, j| match (i, j) {
                (0, 1) => f64::INFINITY,
                (4, 3) => f64::NEG_INFINITY,
                _ => val(i, j),
            },
        );
        let u = sparse(
            (4, 3),
            |t, c| c != 2 || t == 1,
            |t, _| if t == 1 || t == 3 { 0.0 } else { 1.5 },
        );
        let a1 = sparse((5, 3), |i, j| i == j, val);
        let r = reduce_checked(&a1, &[(&l, &u)], "infinity");
        assert!(r.values().iter().all(|v| v.is_finite()), "{:?}", r.values());
        assert_eq!(r.nnz(), 4 * 3 + 1, "rows of L, and A's (2, 2)");

        // Every reduction of a 2-D grid's factors.
        let o = BaskerOptions {
            use_btf: false,
            ..opts(4, 16)
        };
        let g = grid2d_unsym(40);
        let sym = Basker::analyze(&g, &o).unwrap();
        let num = sym.factor(&g).unwrap();
        let (inner, replay) = (&*sym.inner, &num.replay);
        let (st, f, rec) = (&inner.structure.nd_blocks[0].st, &num.nd[0], &replay.nd[0]);
        let mut widest = 0;
        for red in &rec.reductions {
            let (v, tgt) = (red.v, red.tgt);
            let frozen = &inner.frozen;
            let a = frozen.nd[0].block(&frozen.btf, &replay.diag_vals, 0, st, v, tgt);
            let terms: Vec<_> = (red.terms.iter())
                .map(|&k| {
                    let blu = &f.fact_diag[k];
                    let at = st.anc_pos(k, tgt);
                    let runs = &blu.below_runs[at];
                    assert_eq!(*runs, pattern_runs(&blu.below[at]), "node {k}");
                    widest = (runs.windows(2).map(|w| w[1] - w[0])).fold(widest, usize::max);
                    (&blu.below[at], &*f.fact_upper[v][k - st.subtree_start[v]])
                })
                .collect();
            let got = &replay.red_vals[red.off..][..red.rowind.len()];
            let shape = (red.nrows, red.colptr.len() - 1);
            let got = CscMat::new(
                shape.0,
                shape.1,
                red.colptr.clone(),
                red.rowind.clone(),
                got.to_vec(),
            );
            let want = reduce_block_cols_scalar(a, &terms, 0..a.ncols());
            assert_same(&got.unwrap(), &want, &format!("Â_{{{tgt},{v}}}"));
        }
        assert!(widest >= 8, "widest run {widest}");
    }
}
