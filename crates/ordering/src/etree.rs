//! Elimination trees, postorder and level scheduling.
//!
//! The elimination tree drives both the supernodal comparator's schedule
//! and Basker's per-leaf symbolic counts (paper Alg. 3: "Compute column
//! count and etree_i of LU_ii").

use basker_sparse::CscMat;

/// Sentinel for "no parent" (tree roots).
pub const NONE: usize = usize::MAX;

/// Elimination tree of a matrix with **symmetric pattern** (only entries
/// with `i < j` of each column `j` — the strict upper triangle — are used,
/// so passing `A + Aᵀ` handles the unsymmetric case).
///
/// Classic Liu algorithm with path compression (virtual ancestors).
pub fn etree(a: &CscMat) -> Vec<usize> {
    assert!(a.is_square());
    let n = a.ncols();
    let mut parent = vec![NONE; n];
    let mut ancestor = vec![NONE; n];
    for j in 0..n {
        for &i in a.col_rows(j) {
            if i >= j {
                continue;
            }
            // Walk from i to the root of its current subtree, compressing.
            let mut k = i;
            while ancestor[k] != NONE && ancestor[k] != j {
                let next = ancestor[k];
                ancestor[k] = j;
                k = next;
            }
            if ancestor[k] == NONE {
                ancestor[k] = j;
                parent[k] = j;
            }
        }
    }
    parent
}

/// Postorder of a forest given as a parent array. Children are visited in
/// ascending index order, so the result is deterministic.
pub fn postorder(parent: &[usize]) -> Vec<usize> {
    let n = parent.len();
    // Build child lists (reverse push then pop gives ascending order).
    let mut head = vec![NONE; n];
    let mut next = vec![NONE; n];
    for v in (0..n).rev() {
        let p = parent[v];
        if p != NONE {
            next[v] = head[p];
            head[p] = v;
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut stack = Vec::new();
    for root in 0..n {
        if parent[root] != NONE {
            continue;
        }
        stack.push((root, false));
        while let Some((v, expanded)) = stack.pop() {
            if expanded {
                order.push(v);
                continue;
            }
            stack.push((v, true));
            // Push children (they come off the stack in ascending order
            // because head/next was built from high to low).
            let mut c = head[v];
            let mut kids = Vec::new();
            while c != NONE {
                kids.push(c);
                c = next[c];
            }
            for &k in kids.iter().rev() {
                stack.push((k, false));
            }
        }
    }
    order
}

/// Partitions forest vertices into levels: level 0 = leaves, level `k` =
/// vertices whose deepest child is at level `k - 1`. All vertices in one
/// level can be processed concurrently once the previous level finished —
/// the level-set schedule used by the supernodal comparator.
pub fn level_sets(parent: &[usize]) -> Vec<Vec<usize>> {
    let n = parent.len();
    let mut level = vec![0usize; n];
    // Process in topological (ascending) order: in an etree parent > child,
    // so a simple forward sweep works.
    let mut maxlevel = 0;
    for v in 0..n {
        let p = parent[v];
        if p != NONE {
            debug_assert!(p > v, "etree parents must have larger indices");
            level[p] = level[p].max(level[v] + 1);
            maxlevel = maxlevel.max(level[p]);
        }
    }
    let mut sets = vec![Vec::new(); maxlevel + 1];
    for v in 0..n {
        sets[level[v]].push(v);
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use basker_sparse::CscMat;

    fn tridiag(n: usize) -> CscMat {
        let mut d = vec![vec![0.0; n]; n];
        for i in 0..n {
            d[i][i] = 2.0;
            if i + 1 < n {
                d[i][i + 1] = -1.0;
                d[i + 1][i] = -1.0;
            }
        }
        CscMat::from_dense(&d)
    }

    #[test]
    fn tridiagonal_etree_is_a_chain() {
        let a = tridiag(5);
        let p = etree(&a);
        assert_eq!(p, vec![1, 2, 3, 4, NONE]);
    }

    #[test]
    fn diagonal_etree_is_forest_of_roots() {
        let a = CscMat::identity(4);
        let p = etree(&a);
        assert_eq!(p, vec![NONE; 4]);
    }

    #[test]
    fn arrow_matrix_etree() {
        // Arrow pointing to last column: every column connects to n-1.
        let n = 5;
        let mut d = vec![vec![0.0; n]; n];
        for i in 0..n {
            d[i][i] = 4.0;
            d[i][n - 1] = 1.0;
            d[n - 1][i] = 1.0;
        }
        let p = etree(&CscMat::from_dense(&d));
        for v in 0..n - 1 {
            assert_eq!(p[v], n - 1);
        }
        assert_eq!(p[n - 1], NONE);
    }

    #[test]
    fn postorder_is_valid() {
        let a = tridiag(6);
        let parent = etree(&a);
        let po = postorder(&parent);
        assert_eq!(po.len(), 6);
        // Every vertex appears once; children before parents.
        let mut pos = [0usize; 6];
        for (k, &v) in po.iter().enumerate() {
            pos[v] = k;
        }
        for v in 0..6 {
            if parent[v] != NONE {
                assert!(pos[v] < pos[parent[v]]);
            }
        }
    }

    #[test]
    fn level_sets_schedule_chain() {
        let parent = vec![1, 2, 3, NONE];
        let ls = level_sets(&parent);
        assert_eq!(ls.len(), 4);
        assert_eq!(ls[0], vec![0]);
        assert_eq!(ls[3], vec![3]);
    }

    #[test]
    fn level_sets_balanced_tree() {
        // 0,1 -> 2; 3,4 -> 5; 2,5 -> 6
        let parent = vec![2, 2, 6, 5, 5, 6, NONE];
        let ls = level_sets(&parent);
        assert_eq!(ls[0], vec![0, 1, 3, 4]);
        assert_eq!(ls[1], vec![2, 5]);
        assert_eq!(ls[2], vec![6]);
    }
}
