//! Approximate minimum degree ordering (AMD).
//!
//! A quotient-graph minimum-degree ordering in the style of Amestoy, Davis
//! & Duff (paper §II cites it as the fill-reducing ordering for the BTF
//! subblocks; Alg. 2 line 2 applies it per diagonal block). Implemented
//! features:
//!
//! * quotient graph with **element absorption** (eliminated pivots become
//!   elements; elements adjacent to a new pivot are absorbed by it),
//! * **approximate external degrees** via the shared `|Le \ Lp|` pass,
//! * **mass elimination** (variables whose adjacency collapses into the
//!   pivot's element are ordered immediately),
//! * **supervariable merging** of indistinguishable variables (hash, then
//!   verify),
//! * **dense-row deferral**: rows denser than `10·√n + 16` are ordered
//!   last, which keeps circuit matrices with near-dense columns from
//!   degrading the quotient graph,
//! * **a halo** (constrained AMD, as in Scotch's halo-AMD): a nested
//!   dissection node is ordered together with its not-yet-ordered
//!   neighbours, which count in degrees and element sizes but are never
//!   eliminated or emitted, so the node's boundary vertices go late
//!   (`amd_with_halo`; [`amd_order`] is the empty halo).
//!
//! The ordering operates on the symmetrized pattern `A + Aᵀ` (diagonal
//! ignored), matching how AMD is applied ahead of an LU factorization with
//! pivoting confined to diagonal blocks.

use basker_sparse::{CscMat, Perm};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    /// Alive supervariable.
    Var,
    /// Eliminated pivot now acting as a quotient-graph element.
    Elem,
    /// Variable merged into another supervariable.
    Dead,
    /// Variable already placed in the output order (pivot or mass-elim).
    Ordered,
}

/// Computes an AMD permutation for the square matrix `a`.
///
/// Returns the permutation in gather convention: `perm[k]` is the original
/// index eliminated at step `k`; factorizing `A[perm, perm]` should incur
/// substantially less fill than the natural order.
pub fn amd_order(a: &CscMat) -> Perm {
    Perm::from_vec(amd_with_halo(a, 0)).expect("AMD produced an invalid permutation")
}

/// AMD of the first `n − halo` vertices of the square matrix `a` (the
/// *interior*), with the last `halo` vertices present but never
/// eliminated: the order of the interior alone, in gather convention.
///
/// The halo stands for what is eliminated after the interior (a nested
/// dissection node's ancestor separators): halo vertices count in every
/// degree and element size, so interior vertices adjacent to the halo —
/// whose elimination would spread fill into it — go late. They are never
/// pivots, never mass-eliminated, never merged, never deferred as dense
/// and never emitted. `halo = 0` is [`amd_order`].
pub(crate) fn amd_with_halo(a: &CscMat, halo: usize) -> Vec<usize> {
    assert!(a.is_square(), "AMD requires a square matrix");
    let n = a.ncols();
    let interior = n - halo;
    if interior == 0 {
        return Vec::new();
    }

    // --- build symmetrized adjacency (no diagonal) ---
    let sym = if a.is_pattern_symmetric() {
        a.clone()
    } else {
        a.symmetrize()
    };
    let mut vadj: Vec<Vec<usize>> = (0..n)
        .map(|j| {
            sym.col_rows(j)
                .iter()
                .copied()
                .filter(|&i| i != j)
                .collect()
        })
        .collect();
    let mut velems: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut evars: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut esize: Vec<usize> = vec![0; n];
    let mut weight: Vec<usize> = vec![1; n];
    let mut kind: Vec<Kind> = vec![Kind::Var; n];
    let mut degree: Vec<usize> = vec![0; n];
    let mut merge_children: Vec<Vec<usize>> = vec![Vec::new(); n];

    let dense_threshold = ((10.0 * (n as f64).sqrt()) as usize + 16).min(n);
    let mut deferred: Vec<usize> = Vec::new();
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::new();
    for v in 0..n {
        degree[v] = vadj[v].len();
        if v >= interior {
            continue; // halo: never a pivot
        }
        if degree[v] >= dense_threshold {
            deferred.push(v);
            kind[v] = Kind::Ordered; // parked; appended at the end
        } else {
            heap.push(Reverse((degree[v], v)));
        }
    }

    // stamps for set membership tests
    let mut in_lp = vec![usize::MAX; n]; // stamp: member of current Lp
    let mut wstamp = vec![usize::MAX; n]; // stamp for the |Le \ Lp| pass
    let mut wval = vec![0usize; n];
    let mut stamp = 0usize;

    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut ordered_weight = 0usize;
    let target_weight = interior - deferred.len();

    let mut lp: Vec<usize> = Vec::new();
    // (hash, variable) per updated member of Lp
    let mut buckets: Vec<(u64, usize)> = Vec::new();

    while ordered_weight < target_weight {
        // --- select pivot ---
        let p = loop {
            match heap.pop() {
                Some(Reverse((d, v))) => {
                    if kind[v] == Kind::Var && degree[v] == d {
                        break v;
                    }
                }
                None => {
                    // Numerical guard: any still-alive variable works.
                    let v = (0..interior).find(|&v| kind[v] == Kind::Var);
                    match v {
                        Some(v) => break v,
                        None => {
                            debug_assert!(false, "ran out of variables early");
                            break usize::MAX;
                        }
                    }
                }
            }
        };
        if p == usize::MAX {
            break;
        }

        stamp += 1;
        // --- build Lp = union of variable neighbours and element members ---
        lp.clear();
        in_lp[p] = stamp;
        for &u in &vadj[p] {
            if kind[u] == Kind::Var && in_lp[u] != stamp {
                in_lp[u] = stamp;
                lp.push(u);
            }
        }
        for &e in &velems[p] {
            if kind[e] != Kind::Elem {
                continue;
            }
            for &u in &evars[e] {
                if kind[u] == Kind::Var && in_lp[u] != stamp {
                    in_lp[u] = stamp;
                    lp.push(u);
                }
            }
            // e is absorbed by the new element p.
            kind[e] = Kind::Dead;
            evars[e] = Vec::new();
        }
        let lp_weight: usize = lp.iter().map(|&u| weight[u]).sum();

        // --- order the pivot ---
        kind[p] = Kind::Elem;
        order.push(p);
        ordered_weight += weight[p];

        // --- |Le \ Lp| pass over elements adjacent to Lp members ---
        for &v in &lp {
            for &e in &velems[v] {
                if kind[e] != Kind::Elem {
                    continue;
                }
                if wstamp[e] != stamp {
                    wstamp[e] = stamp;
                    wval[e] = esize[e];
                }
                wval[e] = wval[e].saturating_sub(weight[v]);
            }
        }

        // --- update each member of Lp ---
        buckets.clear();
        for &v in &lp {
            // prune variable adjacency: drop dead/ordered/element nodes,
            // Lp members (covered by element p) and p itself.
            vadj[v].retain(|&u| kind[u] == Kind::Var && in_lp[u] != stamp);
            // prune element list: drop absorbed elements.
            velems[v].retain(|&e| kind[e] == Kind::Elem);
            if v >= interior {
                // halo: keeps its place in the quotient graph, nothing more
                velems[v].push(p);
                continue;
            }

            let ext_vars: usize = vadj[v].iter().map(|&u| weight[u]).sum();
            let ext_elems: usize = velems[v]
                .iter()
                .map(|&e| {
                    if wstamp[e] == stamp {
                        wval[e]
                    } else {
                        esize[e]
                    }
                })
                .sum();

            if ext_vars == 0 && ext_elems == 0 {
                // Mass elimination: v's fill is entirely inside Lp; it can
                // be ordered right after p with no extra fill.
                kind[v] = Kind::Ordered;
                order.push(v);
                ordered_weight += weight[v];
                continue;
            }

            velems[v].push(p);
            let d = ext_vars + ext_elems + (lp_weight - weight[v]);
            degree[v] = d.min(n.saturating_sub(ordered_weight + weight[v]));

            // hash for supervariable detection: a sum over the
            // neighbourhood, so equal neighbourhoods hash alike unsorted
            let vars = vadj[v].iter().map(|&u| mix(u as u64));
            let elems = velems[v].iter().map(|&e| mix(!(e as u64)));
            buckets.push((vars.chain(elems).fold(0, u64::wrapping_add), v));
        }

        // --- supervariable merging (verify within equal hashes) ---
        // A stable sort keeps each run of equal hashes in Lp order.
        buckets.sort_by_key(|&(h, _)| h);
        let mut start = 0;
        while start < buckets.len() {
            let len = buckets[start..]
                .iter()
                .take_while(|&&(h, _)| h == buckets[start].0)
                .count();
            let bucket = &buckets[start..start + len];
            start += len;
            for idx in 0..bucket.len() {
                let v = bucket[idx].1;
                if kind[v] != Kind::Var {
                    continue;
                }
                for &(_, w) in &bucket[idx + 1..] {
                    if kind[w] != Kind::Var {
                        continue;
                    }
                    if indistinguishable(v, w, &vadj, &velems, &kind) {
                        // merge w into v
                        weight[v] += weight[w];
                        kind[w] = Kind::Dead;
                        let children = std::mem::take(&mut merge_children[w]);
                        merge_children[v].push(w);
                        merge_children[v].extend(children);
                        vadj[w] = Vec::new();
                        velems[w] = Vec::new();
                    }
                }
            }
        }

        // --- finalize element p ---
        let alive: Vec<usize> = lp
            .iter()
            .copied()
            .filter(|&u| kind[u] == Kind::Var)
            .collect();
        esize[p] = alive.iter().map(|&u| weight[u]).sum();
        evars[p] = alive;
        vadj[p] = Vec::new();
        velems[p] = Vec::new();

        // push refreshed degrees
        for &v in &lp {
            if kind[v] == Kind::Var && v < interior {
                heap.push(Reverse((degree[v], v)));
            }
        }
    }

    // --- expand supervariables into the final order ---
    let mut perm: Vec<usize> = Vec::with_capacity(interior);
    for &p in &order {
        perm.push(p);
        // merged children are emitted right after their representative
        let mut stack: Vec<usize> = merge_children[p].clone();
        while let Some(c) = stack.pop() {
            perm.push(c);
            stack.extend(merge_children[c].iter().copied());
        }
    }
    // deferred dense rows last (ascending for determinism)
    deferred.sort_unstable();
    perm.extend(deferred);

    debug_assert_eq!(perm.len(), interior, "AMD lost vertices");
    perm
}

/// SplitMix64's finalizer: spreads node ids over the hash space.
fn mix(x: u64) -> u64 {
    let x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Exact indistinguishability check: `Adj(v) ∪ {v} == Adj(w) ∪ {w}` in the
/// quotient graph (variable and element neighbourhoods both equal).
fn indistinguishable(
    v: usize,
    w: usize,
    vadj: &[Vec<usize>],
    velems: &[Vec<usize>],
    kind: &[Kind],
) -> bool {
    let clean = |x: usize, other: usize| -> Vec<usize> {
        let mut s: Vec<usize> = vadj[x]
            .iter()
            .copied()
            .filter(|&u| kind[u] == Kind::Var && u != other && u != x)
            .collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    if clean(v, w) != clean(w, v) {
        return false;
    }
    let elems = |x: usize| -> Vec<usize> {
        let mut s: Vec<usize> = velems[x]
            .iter()
            .copied()
            .filter(|&e| kind[e] == Kind::Elem)
            .collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    elems(v) == elems(w)
}

/// Counts the fill (nnz of `L`, diagonal included) that symbolic Cholesky
/// would incur on `A[perm, perm]` — a quality metric used by tests and the
/// ordering benchmarks.
pub fn cholesky_fill_with_perm(a: &CscMat, perm: &Perm) -> usize {
    let p = Perm::permute_both(
        perm,
        perm,
        &if a.is_pattern_symmetric() {
            a.clone()
        } else {
            a.symmetrize()
        },
    );
    crate::symbolic::symbolic_cholesky(&p).nnz()
}

#[cfg(test)]
mod tests {
    use super::*;
    use basker_sparse::blocks::extract_range;
    use basker_sparse::TripletMat;

    /// `rows x k` five-point stencil, numbered row by row: the last `k`
    /// vertices are the last row.
    fn grid(rows: usize, k: usize) -> CscMat {
        let n = rows * k;
        let idx = |r: usize, c: usize| r * k + c;
        let mut t = TripletMat::new(n, n);
        for r in 0..rows {
            for c in 0..k {
                let u = idx(r, c);
                t.push(u, u, 4.0);
                if r + 1 < rows {
                    t.push(u, idx(r + 1, c), -1.0);
                    t.push(idx(r + 1, c), u, -1.0);
                }
                if c + 1 < k {
                    t.push(u, idx(r, c + 1), -1.0);
                    t.push(idx(r, c + 1), u, -1.0);
                }
            }
        }
        t.to_csc()
    }

    fn grid2d(k: usize) -> CscMat {
        grid(k, k)
    }

    #[test]
    fn produces_valid_permutation() {
        for k in [1usize, 2, 3, 5, 8] {
            let a = grid2d(k);
            let p = amd_order(&a);
            assert_eq!(p.len(), k * k);
            // Perm::from_vec validated it already; double-check coverage.
            let mut seen = vec![false; k * k];
            for &x in p.as_slice() {
                assert!(!seen[x]);
                seen[x] = true;
            }
        }
    }

    #[test]
    fn reduces_fill_versus_natural_order_on_grid() {
        let a = grid2d(12);
        let natural = cholesky_fill_with_perm(&a, &Perm::identity(a.ncols()));
        let amd = cholesky_fill_with_perm(&a, &amd_order(&a));
        assert!(
            (amd as f64) < 0.9 * natural as f64,
            "AMD fill {amd} not clearly below natural fill {natural}"
        );
    }

    #[test]
    fn tridiagonal_stays_fill_free() {
        let n = 30;
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        let a = t.to_csc();
        let p = amd_order(&a);
        let fill = cholesky_fill_with_perm(&a, &p);
        // Tridiagonal can be ordered with zero fill: |L| = 2n - 1.
        assert_eq!(fill, 2 * n - 1);
    }

    #[test]
    fn handles_diagonal_matrix() {
        let a = CscMat::identity(7);
        let p = amd_order(&a);
        assert_eq!(p.len(), 7);
    }

    #[test]
    fn handles_dense_matrix() {
        let d = vec![vec![1.0; 9]; 9];
        let a = CscMat::from_dense(&d);
        let p = amd_order(&a);
        assert_eq!(p.len(), 9);
    }

    #[test]
    fn handles_unsymmetric_input() {
        let mut t = TripletMat::new(5, 5);
        for i in 0..5 {
            t.push(i, i, 1.0);
        }
        t.push(0, 4, 1.0);
        t.push(3, 1, 1.0);
        let p = amd_order(&t.to_csc());
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn star_graph_orders_center_last() {
        // Star: vertex 0 adjacent to all others. Minimum degree orders the
        // leaves (degree 1) before the hub (degree n-1).
        let n = 10;
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, 1.0);
        }
        for i in 1..n {
            t.push(0, i, 1.0);
            t.push(i, 0, 1.0);
        }
        let p = amd_order(&t.to_csc());
        // Once all but one leaf are eliminated the hub's degree drops to 1
        // and it may tie with the final leaf, so the hub lands in one of
        // the last two positions.
        let pos = p.as_slice().iter().position(|&v| v == 0).unwrap();
        assert!(pos >= n - 2, "hub ordered at position {pos}");
    }

    #[test]
    fn supervariables_on_block_structure() {
        // Two groups of mutually identical columns (cliques sharing the
        // same external neighbour) exercise the merge path.
        let n = 8;
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, 1.0);
        }
        // clique {0,1,2,3}, clique {4,5,6,7}, bridge 3-4
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    t.push(i, j, 1.0);
                }
            }
        }
        for i in 4..8 {
            for j in 4..8 {
                if i != j {
                    t.push(i, j, 1.0);
                }
            }
        }
        t.push(3, 4, 1.0);
        t.push(4, 3, 1.0);
        let p = amd_order(&t.to_csc());
        assert_eq!(p.len(), n);
        let fill = cholesky_fill_with_perm(&t.to_csc(), &p);
        // Two 4-cliques + bridge: near-perfect elimination possible; fill
        // should stay close to the clique content (4*5/2)*2 = 20 plus the
        // bridge.
        assert!(fill <= 24, "fill {fill} too high for two cliques");
    }

    /// The halo is counted, not ordered: the output is a permutation
    /// of the interior alone.
    #[test]
    fn halo_is_counted_not_ordered() {
        for (rows, k) in [(12usize, 12usize), (2, 5), (1, 4)] {
            let order = amd_with_halo(&grid(rows, k), k);
            let interior = (rows - 1) * k;
            assert_eq!(order.len(), interior);
            let mut seen = vec![false; interior];
            for &v in &order {
                assert!(
                    v < interior && !seen[v],
                    "{v} ordered twice or from the halo"
                );
                seen[v] = true;
            }
        }
    }

    /// An empty halo is `amd_order`, and `amd_order` still returns the
    /// permutations it always has on every matrix of this module (the
    /// KLU lane, small BTF blocks and one-thread Basker depend on them).
    #[test]
    fn empty_halo_is_amd_order() {
        let n = 30;
        let mut tri = TripletMat::new(n, n);
        for i in 0..n {
            tri.push(i, i, 2.0);
            if i + 1 < n {
                tri.push(i, i + 1, -1.0);
                tri.push(i + 1, i, -1.0);
            }
        }
        let mut unsym = TripletMat::new(5, 5);
        for i in 0..5 {
            unsym.push(i, i, 1.0);
        }
        unsym.push(0, 4, 1.0);
        unsym.push(3, 1, 1.0);
        let mut star = TripletMat::new(10, 10);
        for i in 0..10 {
            star.push(i, i, 1.0);
        }
        for i in 1..10 {
            star.push(0, i, 1.0);
            star.push(i, 0, 1.0);
        }
        let mut cliques = TripletMat::new(8, 8);
        for i in 0..8 {
            for j in 0..8 {
                if i / 4 == j / 4 || (i, j) == (3, 4) || (i, j) == (4, 3) {
                    cliques.push(i, j, 1.0);
                }
            }
        }
        let id = |n: usize| (0..n).collect::<Vec<_>>();
        // (matrix, today's fill, today's permutation where short)
        let cases: [(CscMat, usize, Option<Vec<usize>>); 11] = [
            (grid2d(1), 1, Some(vec![0])),
            (grid2d(2), 9, Some(id(4))),
            (grid2d(3), 26, Some(vec![0, 2, 6, 8, 1, 3, 7, 4, 5])),
            (
                grid2d(5),
                102,
                Some(vec![
                    0, 4, 20, 24, 1, 3, 5, 9, 15, 19, 21, 23, 6, 8, 12, 16, 18, 2, 7, 11, 10, 17,
                    22, 13, 14,
                ]),
            ),
            (grid2d(8), 363, None),
            (grid2d(12), 1045, None),
            (tri.to_csc(), 59, Some(id(n))),
            (CscMat::identity(7), 7, Some(id(7))),
            (unsym.to_csc(), 7, Some(vec![2, 0, 4, 1, 3])),
            (star.to_csc(), 19, Some(vec![1, 2, 3, 4, 5, 6, 7, 8, 0, 9])),
            (cliques.to_csc(), 21, Some(id(8))),
        ];
        for (a, fill, perm) in cases {
            let p = amd_order(&a);
            assert_eq!(amd_with_halo(&a, 0), p.as_slice());
            assert_eq!(cholesky_fill_with_perm(&a, &p), fill);
            if let Some(perm) = perm {
                assert_eq!(p.as_slice(), perm);
            }
        }
        let dense = CscMat::from_dense(&vec![vec![1.0; 9]; 9]);
        assert_eq!(amd_order(&dense).as_slice(), id(9));
    }

    /// Half a grid with its separator row as the halo: ordering the half
    /// with the halo, then the separator, fills less than the half's own
    /// AMD order followed by the separator.
    #[test]
    fn halo_defers_the_boundary() {
        let (rows, k) = (11, 20);
        let a = grid(rows, k);
        let half = (rows - 1) * k;
        let fill = |order: &[usize]| {
            let perm = order.iter().copied().chain(half..rows * k).collect();
            cholesky_fill_with_perm(&a, &Perm::from_vec(perm).unwrap())
        };
        let plain = amd_order(&extract_range(&a, 0..half, 0..half));
        let (with_halo, without) = (fill(&amd_with_halo(&a, k)), fill(plain.as_slice()));
        assert!(
            with_halo < without,
            "halo fill {with_halo} not below plain fill {without}"
        );
    }
}
