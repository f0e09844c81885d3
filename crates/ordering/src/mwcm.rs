//! Maximum weight-cardinality matching, bottleneck variant (MC64-style).
//!
//! Among all maximum-cardinality matchings, find one whose *smallest* edge
//! magnitude is as large as possible. Permuting the matched rows onto the
//! diagonal then maximizes the smallest diagonal magnitude, which is what
//! Basker uses to reduce the need for numerical pivoting (paper §III-A:
//! `Pm1`, and §III-C: `Pm2`; §V: "Our MWCM implementation is similar to
//! MC64 bottleneck ordering, unlike SuperLU-Dist's product/sum based MC64").
//!
//! Implementation: bound first. A perfect matching uses one entry of
//! every column and one of every row, so no threshold above
//! `ub = min(minⱼ maxᵢ |a_ij|, minᵢ maxⱼ |a_ij|)` admits one; one pass
//! over the values computes `ub`. On a square matrix the search first
//! runs one MC21 matching restricted to edges with `|a_ij| >= ub`; when
//! it is perfect, it is the answer and `ub` the bottleneck. Otherwise
//! (the bound is not feasible, or the input is structurally singular or
//! rectangular) the all-edges matching fixes the target cardinality and
//! a binary search over the sorted distinct magnitudes, those below
//! `ub` when the target is a perfect matching, finds the largest
//! feasible threshold. `max_matching_filtered` resets its workspace on
//! every call, so a matching is a function of the matrix and the
//! threshold alone: both routes return the same matching for the same
//! threshold. NaN magnitudes are never at or above a threshold.

use crate::matching::{max_matching_filtered, Matching, MatchingWorkspace};
use basker_sparse::CscMat;

/// Result of the bottleneck matching.
#[derive(Debug, Clone)]
pub struct MwcmResult {
    /// The matching achieving the optimal bottleneck value.
    pub matching: Matching,
    /// The optimal bottleneck: the smallest |value| used by the matching.
    pub bottleneck: f64,
}

/// Computes the bottleneck maximum matching of a square (or rectangular)
/// sparse matrix.
///
/// Returns the matching together with the achieved bottleneck value. When
/// the matrix has no full transversal the matching is maximum-cardinality
/// and the bottleneck refers to the best achievable at that cardinality.
/// A matrix with no entry (0×0 included) has bottleneck 0.
pub fn mwcm_bottleneck(a: &CscMat) -> MwcmResult {
    let mut ws = MatchingWorkspace::new(a.nrows(), a.ncols());

    // Fast path: one matching at the bound.
    let ub = perfect_bound(a);
    if let Some(ub) = ub {
        let m = max_matching_filtered(a, |v| v >= ub, &mut ws);
        if m.is_perfect() {
            return MwcmResult {
                matching: m,
                bottleneck: ub,
            };
        }
    }

    // Cardinality achievable with all edges = the target cardinality.
    // Zero entries can never help a bottleneck matching beat threshold
    // 0, but they count here so structurally full / numerically
    // deficient matrices still get maximum cardinality.
    let full = max_matching_filtered(a, |_| true, &mut ws);
    let target = full.size;

    // Candidate thresholds: distinct magnitudes, ascending. With a
    // perfect target, `ub` bounds the answer and was just found
    // infeasible, so only the magnitudes below it remain; otherwise `ub`
    // bounds nothing. Both filters drop NaN.
    let below = ub.filter(|_| full.is_perfect());
    let mut mags: Vec<f64> = a
        .values()
        .iter()
        .map(|v| v.abs())
        .filter(|&m| below.map_or(!m.is_nan(), |ub| m < ub))
        .collect();
    mags.sort_unstable_by(f64::total_cmp);
    mags.dedup();
    let Some(&smallest) = mags.first() else {
        return MwcmResult {
            matching: full,
            bottleneck: 0.0,
        };
    };

    // Binary search the largest threshold that still reaches the target
    // cardinality; the predicate "size(matching restricted to |v| >= t)
    // == target" is monotone in t. The smallest magnitude admits every
    // (non-NaN) edge, so its matching is `full`: the search starts past
    // it, with `mags[..lo]` feasible and `mags[hi..]` not.
    let (mut best, mut best_t) = (full, smallest);
    let (mut lo, mut hi) = (1, mags.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let t = mags[mid];
        let m = max_matching_filtered(a, |v| v >= t, &mut ws);
        if m.size == target {
            (best, best_t) = (m, t);
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    MwcmResult {
        matching: best,
        bottleneck: best_t,
    }
}

/// `min(minⱼ maxᵢ |a_ij|, minᵢ maxⱼ |a_ij|)` over the non-NaN entries:
/// no perfect matching has a larger bottleneck, since it matches every
/// column and every row through one of its own entries. `None` unless
/// `a` is square, not empty, and every row and column holds a non-NaN
/// entry.
fn perfect_bound(a: &CscMat) -> Option<f64> {
    let n = a.ncols();
    if n == 0 || a.nrows() != n {
        return None;
    }
    // `f64::max` drops NaN, so a row or column of NaN only stays at -∞.
    let mut row_max = vec![f64::NEG_INFINITY; n];
    let mut ub = f64::INFINITY;
    for j in 0..n {
        let mut col_max = f64::NEG_INFINITY;
        for (&i, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
            let m = v.abs();
            col_max = col_max.max(m);
            row_max[i] = row_max[i].max(m);
        }
        ub = ub.min(col_max);
    }
    let ub = row_max.iter().fold(ub, |u, &r| u.min(r));
    (ub >= 0.0).then_some(ub)
}

#[cfg(test)]
mod tests {
    use super::*;
    use basker_matgen::{circuit, mesh2d, powergrid, CircuitParams, PowergridParams};
    use basker_sparse::TripletMat;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The search before the bound: a binary search over every sorted
    /// distinct magnitude, one matching per probe, after a quick accept
    /// at the largest. Finite input only (it panics on NaN).
    fn sorted_search(a: &CscMat) -> MwcmResult {
        let mut ws = MatchingWorkspace::new(a.nrows(), a.ncols());
        let mut mags: Vec<f64> = a.values().iter().map(|v| v.abs()).collect();
        mags.sort_by(|x, y| x.partial_cmp(y).unwrap());
        mags.dedup();
        if mags.is_empty() {
            let matching = max_matching_filtered(a, |_| true, &mut ws);
            return MwcmResult {
                matching,
                bottleneck: 0.0,
            };
        }
        let full = max_matching_filtered(a, |_| true, &mut ws);
        let target = full.size;
        let mut best = full;
        let mut best_t = mags[0];
        let mut lo_k = 0usize;
        let mut hi_k = mags.len() - 1;
        {
            let t = mags[hi_k];
            let m = max_matching_filtered(a, |v| v >= t, &mut ws);
            if m.size == target {
                return MwcmResult {
                    matching: m,
                    bottleneck: t,
                };
            }
        }
        while lo_k <= hi_k {
            let mid = lo_k + (hi_k - lo_k) / 2;
            let t = mags[mid];
            let m = max_matching_filtered(a, |v| v >= t, &mut ws);
            if m.size == target {
                best = m;
                best_t = t;
                lo_k = mid + 1;
            } else {
                if mid == 0 {
                    break;
                }
                hi_k = mid - 1;
            }
        }
        MwcmResult {
            matching: best,
            bottleneck: best_t,
        }
    }

    /// Whether `mwcm_bottleneck` returns from its first matching.
    fn takes_fast_path(a: &CscMat) -> bool {
        let mut ws = MatchingWorkspace::new(a.nrows(), a.ncols());
        perfect_bound(a)
            .is_some_and(|ub| max_matching_filtered(a, |v| v >= ub, &mut ws).is_perfect())
    }

    /// A seeded random `nrows × ncols` matrix: `per_col` draws a column,
    /// values from a small set (ties, explicit zeros, both signs), some
    /// pushed twice (summed by `to_csc`), and with `diag` a diagonal
    /// entry in every column so the square case is structurally full.
    fn random(rng: &mut StdRng, nrows: usize, ncols: usize, per_col: usize, diag: bool) -> CscMat {
        const VALUES: [f64; 9] = [0.0, 0.5, -0.5, 1.0, -1.0, 2.0, 3.0, -7.5, 1e-3];
        let mut t = TripletMat::new(nrows, ncols);
        if nrows == 0 {
            return t.to_csc();
        }
        for j in 0..ncols {
            if diag && j < nrows {
                t.push(j, j, VALUES[rng.gen_range(0..VALUES.len())]);
            }
            for _ in 0..rng.gen_range(0..per_col + 1) {
                let i = rng.gen_range(0..nrows);
                let v = VALUES[rng.gen_range(0..VALUES.len())];
                t.push(i, j, v);
                if rng.gen_bool(0.1) {
                    t.push(i, j, v);
                }
            }
        }
        t.to_csc()
    }

    /// The bound-first search returns what the sorted search returns,
    /// entry for entry, on every kind of input, and both of its routes
    /// run.
    #[test]
    fn bound_first_search_matches_the_sorted_search() {
        let mut cases: Vec<(String, CscMat)> = Vec::new();
        let mut rng = StdRng::seed_from_u64(0x6d77636d);
        for n in 0..=80 {
            for (per_col, diag) in [(1, true), (3, true), (2, false), (6, false)] {
                cases.push((
                    format!("random {n}x{n}, {per_col}/col, diag {diag}"),
                    random(&mut rng, n, n, per_col, diag),
                ));
            }
        }
        for (m, n) in [(3, 5), (5, 3), (1, 7), (20, 12), (12, 20), (0, 4), (4, 0)] {
            cases.push((
                format!("rectangular {m}x{n}"),
                random(&mut rng, m, n, 3, true),
            ));
        }
        // Columns 0 and 1 have their largest entries in row 0: `ub` = 5
        // admits no perfect matching, and the answer is 1.
        let mut t = TripletMat::new(3, 3);
        for (i, j, v) in [
            (0, 0, 9.0),
            (1, 0, 1.0),
            (0, 1, 8.0),
            (2, 1, 1.0),
            (1, 2, 5.0),
            (2, 2, 5.0),
        ] {
            t.push(i, j, v);
        }
        let shared_row = t.to_csc();
        assert!(!takes_fast_path(&shared_row));
        assert_eq!(mwcm_bottleneck(&shared_row).bottleneck, 1.0);
        cases.push(("largest entries share a row".into(), shared_row));
        // The workload families match at their bound.
        for seed in [1, 7] {
            let c = CircuitParams {
                nsub: 4,
                sub_size: 40,
                feedthrough: 0.7,
                seed,
                ..CircuitParams::default()
            };
            let p = PowergridParams {
                nfeeders: 6,
                feeder_len: 20,
                loop_prob: 0.1,
                seed,
            };
            for (name, a) in [
                (format!("circuit seed {seed}"), circuit(&c)),
                (format!("mesh2d(12) seed {seed}"), mesh2d(12, seed)),
                (format!("powergrid seed {seed}"), powergrid(&p)),
            ] {
                assert!(takes_fast_path(&a), "{name}");
                cases.push((name, a));
            }
        }

        let (mut fast, mut fallback) = (0, 0);
        for (name, a) in &cases {
            let (got, want) = (mwcm_bottleneck(a), sorted_search(a));
            assert_eq!(got.matching.row_of_col, want.matching.row_of_col, "{name}");
            assert_eq!(got.matching.col_of_row, want.matching.col_of_row, "{name}");
            assert_eq!(got.matching.size, want.matching.size, "{name}");
            assert_eq!(
                got.bottleneck.to_bits(),
                want.bottleneck.to_bits(),
                "{name}"
            );
            if takes_fast_path(a) {
                fast += 1;
            } else {
                fallback += 1;
            }
        }
        assert!(fast > 0 && fallback > 0, "fast {fast}, fallback {fallback}");
    }

    #[test]
    fn nan_is_never_at_a_threshold() {
        // [NaN 1]
        // [ 2  4] -> the NaN edge is skipped: anti-diagonal, bottleneck 1.
        let mut t = TripletMat::new(2, 2);
        t.push(0, 0, f64::NAN);
        t.push(1, 0, 2.0);
        t.push(0, 1, 1.0);
        t.push(1, 1, 4.0);
        let r = mwcm_bottleneck(&t.to_csc());
        assert_eq!(r.matching.row_of_col, vec![1, 0]);
        assert_eq!(r.bottleneck, 1.0);
        // A column of NaN alone still gets a maximum matching.
        let mut t = TripletMat::new(2, 2);
        t.push(0, 0, f64::NAN);
        t.push(1, 1, 3.0);
        let r = mwcm_bottleneck(&t.to_csc());
        assert!(r.matching.is_perfect());
    }

    #[test]
    fn picks_large_diagonal() {
        // [10  1]
        // [ 2 10]  -> identity matching, bottleneck 10.
        let mut t = TripletMat::new(2, 2);
        t.push(0, 0, 10.0);
        t.push(0, 1, 1.0);
        t.push(1, 0, 2.0);
        t.push(1, 1, 10.0);
        let r = mwcm_bottleneck(&t.to_csc());
        assert!(r.matching.is_perfect());
        assert_eq!(r.bottleneck, 10.0);
        assert_eq!(r.matching.row_of_col, vec![0, 1]);
    }

    #[test]
    fn prefers_off_diagonal_when_better() {
        // [0.1  9 ]
        // [ 8  0.1] -> anti-diagonal matching, bottleneck 8.
        let mut t = TripletMat::new(2, 2);
        t.push(0, 0, 0.1);
        t.push(0, 1, 9.0);
        t.push(1, 0, 8.0);
        t.push(1, 1, 0.1);
        let r = mwcm_bottleneck(&t.to_csc());
        assert!(r.matching.is_perfect());
        assert_eq!(r.bottleneck, 8.0);
        assert_eq!(r.matching.row_of_col, vec![1, 0]);
    }

    #[test]
    fn forced_small_edge_sets_bottleneck() {
        // Column 1 only has a tiny entry; it must be used.
        let mut t = TripletMat::new(2, 2);
        t.push(0, 0, 5.0);
        t.push(1, 0, 6.0);
        t.push(1, 1, 0.01);
        let r = mwcm_bottleneck(&t.to_csc());
        assert!(r.matching.is_perfect());
        assert_eq!(r.bottleneck, 0.01);
        // col1 must take row1, so col0 takes row0.
        assert_eq!(r.matching.row_of_col, vec![0, 1]);
    }

    #[test]
    fn bottleneck_is_optimal_vs_bruteforce() {
        // 4x4 dense-ish: compare against brute force over permutations.
        let vals = [
            [3.0, 7.0, 0.0, 1.0],
            [2.0, 0.0, 5.0, 4.0],
            [0.0, 6.0, 2.0, 8.0],
            [9.0, 1.0, 3.0, 0.0],
        ];
        let mut t = TripletMat::new(4, 4);
        for (i, row) in vals.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    t.push(i, j, v);
                }
            }
        }
        let a = t.to_csc();
        let r = mwcm_bottleneck(&a);
        assert!(r.matching.is_perfect());
        // Brute force all 24 permutations.
        let mut best = 0.0f64;
        let perms = permutations(4);
        for p in perms {
            let mut mn = f64::INFINITY;
            let mut ok = true;
            for (j, &i) in p.iter().enumerate() {
                if vals[i][j] == 0.0 {
                    ok = false;
                    break;
                }
                mn = mn.min(vals[i][j]);
            }
            if ok {
                best = best.max(mn);
            }
        }
        assert_eq!(r.bottleneck, best);
    }

    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 1 {
            return vec![vec![0]];
        }
        let smaller = permutations(n - 1);
        let mut out = Vec::new();
        for p in smaller {
            for pos in 0..n {
                let mut q: Vec<usize> = p
                    .iter()
                    .map(|&x| if x >= pos { x + 1 } else { x })
                    .collect();
                q.insert(0, pos);
                // normalize: we want all perms of 0..n; this builds them
                out.push(q);
            }
        }
        out
    }

    #[test]
    fn structurally_singular_still_returns_partial() {
        let mut t = TripletMat::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        let r = mwcm_bottleneck(&t.to_csc());
        assert_eq!(r.matching.size, 1);
        assert_eq!(r.bottleneck, 2.0); // best single edge for max cardinality
    }

    #[test]
    fn uniform_values_any_perfect_matching() {
        let mut t = TripletMat::new(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                t.push(i, j, 1.0);
            }
        }
        let r = mwcm_bottleneck(&t.to_csc());
        assert!(r.matching.is_perfect());
        assert_eq!(r.bottleneck, 1.0);
    }
}
