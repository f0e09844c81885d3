//! The hierarchical 2-D block structure (paper §III-A/B/C and §IV).
//!
//! Basker's symbolic structure is built in two levels:
//!
//! 1. **Coarse BTF** — MWCM transversal + SCC condensation permute the
//!    matrix to upper block triangular form. Diagonal blocks smaller than
//!    [`BaskerOptions::nd_threshold`](crate::BaskerOptions) form the *fine
//!    BTF* set (factored independently, Alg. 2); larger blocks get the
//!    *fine ND* treatment.
//! 2. **Fine ND** — each large block is reordered by nested dissection
//!    into `2p - 1` sub-blocks arranged on a binary separator tree; the
//!    2-D grid of CSC blocks over those ranges stores both `A` and the
//!    factors.
//!
//! All permutations (BTF row/col, per-small-block AMD, per-large-block ND)
//! are composed here into one global row and one global column
//! permutation, so numeric factorization sees a single permuted matrix.

use crate::frozen::FrozenBtf;
use basker_klu::gp::ColsView;
use basker_ordering::amd::amd_order;
use basker_ordering::btf::btf_form_with;
use basker_ordering::nd::{nested_dissection, NdDecomposition};
use basker_sparse::blocks::extract_range;
use basker_sparse::{CscMat, Perm, Result, SparseError};

/// How a BTF diagonal block is handled.
#[derive(Debug, Clone)]
pub enum BlockKind {
    /// Small block: factored by one thread with serial Gilbert–Peierls
    /// (fine BTF structure, paper §III-B).
    Small,
    /// Large block: 2-D ND structure factored by the whole thread team
    /// (fine ND structure, paper §III-C).
    NdBig(NdStructure),
}

/// The ND structure of one large diagonal block.
#[derive(Debug, Clone)]
pub struct NdStructure {
    /// Separator tree + local permutation over the block's local indices.
    pub nd: NdDecomposition,
    /// For each tree node, the list of its ancestors in ascending node
    /// order (bottom-up path to the root).
    pub ancestors: Vec<Vec<usize>>,
    /// For each tree node `v`, the start of its (contiguous) subtree:
    /// descendants of `v` are `subtree_start[v]..v`.
    pub subtree_start: Vec<usize>,
    /// Thread owning each node (first leaf thread in its subtree).
    pub owner: Vec<usize>,
    /// Leaf node index per thread rank.
    pub leaf_of_thread: Vec<usize>,
}

impl NdStructure {
    fn build(nd: NdDecomposition) -> NdStructure {
        let nn = nd.nodes.len();
        let mut ancestors = Vec::with_capacity(nn);
        for v in 0..nn {
            ancestors.push(nd.ancestors(v));
        }
        let mut subtree_start = vec![0usize; nn];
        for v in 0..nn {
            // subtree size of a complete binary tree node at tree level t
            // is 2^(t+1) - 1; recursive numbering makes it contiguous.
            let t = nd.tree_level(v);
            let size = (1usize << (t + 1)) - 1;
            subtree_start[v] = v + 1 - size;
        }
        let leaves: Vec<usize> = nd.leaves();
        let mut owner = vec![0usize; nn];
        for v in 0..nn {
            // first leaf inside the subtree = leaf with smallest index >=
            // subtree_start[v]
            let first_leaf = leaves
                .iter()
                .position(|&l| l >= subtree_start[v])
                .expect("subtree contains a leaf");
            owner[v] = first_leaf;
        }
        NdStructure {
            nd,
            ancestors,
            subtree_start,
            owner,
            leaf_of_thread: leaves,
        }
    }

    /// Number of tree nodes (`2p - 1`).
    pub fn nnodes(&self) -> usize {
        self.nd.nodes.len()
    }

    /// Descendant node range of `v` (excluding `v`).
    pub fn descendants(&self, v: usize) -> std::ops::Range<usize> {
        self.subtree_start[v]..v
    }

    /// Position of ancestor `s` within `ancestors[k]` (paths ascend one
    /// tree level per step, so the index is the level gap minus one).
    #[inline]
    pub fn anc_pos(&self, k: usize, s: usize) -> usize {
        self.nd.tree_level(s) - self.nd.tree_level(k) - 1
    }
}

/// The complete symbolic structure: global permutations + block layout.
#[derive(Debug, Clone)]
pub struct Structure {
    /// Matrix dimension.
    pub n: usize,
    /// Global row permutation (BTF ∘ per-block refinement).
    pub row_perm: Perm,
    /// Global column permutation.
    pub col_perm: Perm,
    /// BTF block boundaries in the permuted matrix.
    pub bounds: Vec<usize>,
    /// Per BTF block: small or ND-structured.
    pub kinds: Vec<BlockKind>,
    /// block id of each permuted index
    pub block_of: Vec<usize>,
    /// Rows of the largest BTF block (sizes the solve's pivot scratch).
    pub max_block: usize,
    /// Bottleneck value of the MWCM transversal (diagnostic).
    pub bottleneck: f64,
}

impl Structure {
    /// Builds the structure: BTF, then AMD on small blocks and ND on large
    /// ones, with `p_threads` leaves per ND tree.
    pub fn build(
        a: &CscMat,
        use_btf: bool,
        use_mwcm: bool,
        nd_threshold: usize,
        p_threads: usize,
    ) -> Result<Structure> {
        if !a.is_square() {
            return Err(SparseError::DimensionMismatch {
                expected: (a.nrows(), a.nrows()),
                found: (a.nrows(), a.ncols()),
            });
        }
        assert!(p_threads.is_power_of_two(), "Basker requires 2^k threads");
        let n = a.nrows();
        let levels = p_threads.trailing_zeros() as usize;

        let (row0, col0, bounds, bottleneck) = if use_btf {
            let btf = btf_form_with(a, use_mwcm)?;
            (btf.row_perm, btf.col_perm, btf.bounds, btf.bottleneck)
        } else {
            (Perm::identity(n), Perm::identity(n), vec![0, n], 0.0)
        };

        let ap = Perm::permute_both(&row0, &col0, a);
        let mut row_total = vec![0usize; n];
        let mut col_total = vec![0usize; n];
        let mut kinds = Vec::with_capacity(bounds.len() - 1);

        for b in 0..bounds.len() - 1 {
            let (lo, hi) = (bounds[b], bounds[b + 1]);
            let size = hi - lo;
            // The fine ND treatment trades fill (the separator ordering
            // is worse than AMD for circuit blocks) for intra-block
            // parallelism. That trade only pays when the block is big
            // enough to bottleneck Alg. 2's block-level parallel
            // schedule — at least half a thread's fair share of the
            // matrix. Smaller blocks (e.g. the 36 similar ~280-row
            // blocks of hvdc2-like matrices) are absorbed whole by one
            // thread of the fine-BTF path with zero fill penalty.
            let nd_worthwhile = size >= nd_threshold && size * 2 * p_threads >= n;
            if !nd_worthwhile {
                // Small block: AMD refinement (identity for tiny blocks).
                if size > 2 {
                    let block = extract_range(&ap, lo..hi, lo..hi);
                    let local = amd_order(&block);
                    for (off, &l) in local.as_slice().iter().enumerate() {
                        row_total[lo + off] = row0.as_slice()[lo + l];
                        col_total[lo + off] = col0.as_slice()[lo + l];
                    }
                } else {
                    row_total[lo..hi].copy_from_slice(&row0.as_slice()[lo..hi]);
                    col_total[lo..hi].copy_from_slice(&col0.as_slice()[lo..hi]);
                }
                kinds.push(BlockKind::Small);
            } else {
                // Large block: nested dissection with p leaves.
                let block = extract_range(&ap, lo..hi, lo..hi);
                let nd = nested_dissection(&block, levels);
                for (off, &l) in nd.perm.as_slice().iter().enumerate() {
                    row_total[lo + off] = row0.as_slice()[lo + l];
                    col_total[lo + off] = col0.as_slice()[lo + l];
                }
                kinds.push(BlockKind::NdBig(NdStructure::build(nd)));
            }
        }

        let row_perm = Perm::from_vec(row_total).expect("composed row perm invalid");
        let col_perm = Perm::from_vec(col_total).expect("composed col perm invalid");

        let mut block_of = vec![0usize; n];
        let mut max_block = 0;
        for b in 0..bounds.len() - 1 {
            for k in bounds[b]..bounds[b + 1] {
                block_of[k] = b;
            }
            max_block = max_block.max(bounds[b + 1] - bounds[b]);
        }

        Ok(Structure {
            n,
            row_perm,
            col_perm,
            bounds,
            kinds,
            block_of,
            max_block,
            bottleneck,
        })
    }

    /// Number of BTF blocks.
    pub fn nblocks(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Fraction of rows in small blocks (Table I's "BTF %").
    pub fn small_block_fraction(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let covered: usize = (0..self.nblocks())
            .filter(|&b| matches!(self.kinds[b], BlockKind::Small))
            .map(|b| self.bounds[b + 1] - self.bounds[b])
            .sum();
        covered as f64 / self.n as f64
    }
}

/// The extracted 2-D blocks of one ND-structured BTF block of `A`
/// (the hierarchy of CSC matrices of paper §IV).
#[derive(Debug, Clone)]
pub struct NdBlocks {
    /// `A_vv` per tree node.
    pub diag: Vec<CscMat>,
    /// `A_{a,v}` per node `v`, per ancestor `a` (ascending) — the blocks
    /// *below* the diagonal in block column `v`.
    pub lower: Vec<Vec<CscMat>>,
    /// `A_{k,v}` per node `v`, per descendant `k` (ascending over
    /// `descendants(v)`) — the blocks *above* the diagonal in block
    /// column `v`.
    pub upper: Vec<Vec<CscMat>>,
}

impl NdBlocks {
    /// Extracts all 2-D blocks of the ND block spanning
    /// `offset..offset + len` in the permuted matrix `ap`.
    pub fn extract(ap: &CscMat, offset: usize, st: &NdStructure) -> NdBlocks {
        let nn = st.nnodes();
        let rng = |v: usize| offset + st.nd.nodes[v].range.start..offset + st.nd.nodes[v].range.end;
        let mut diag = Vec::with_capacity(nn);
        let mut lower = Vec::with_capacity(nn);
        let mut upper = Vec::with_capacity(nn);
        for v in 0..nn {
            diag.push(extract_range(ap, rng(v), rng(v)));
            let mut low = Vec::with_capacity(st.ancestors[v].len());
            for &a in &st.ancestors[v] {
                low.push(extract_range(ap, rng(a), rng(v)));
            }
            lower.push(low);
            let desc = st.descendants(v);
            let mut up = Vec::with_capacity(desc.len());
            for k in desc {
                up.push(extract_range(ap, rng(k), rng(v)));
            }
            upper.push(up);
        }
        let blocks = NdBlocks { diag, lower, upper };
        debug_assert_eq!(
            blocks.total_nnz(),
            extract_range(
                ap,
                offset..offset + st.nd.perm.len(),
                offset..offset + st.nd.perm.len()
            )
            .nnz(),
            "ND blocks must cover every entry of the diagonal block \
             (separator property violated)"
        );
        blocks
    }

    /// `A_{r,v}`: rows of node `r` — `v` itself, an ancestor or a
    /// descendant of `v` — in the columns of node `v`.
    pub fn block(&self, st: &NdStructure, v: usize, r: usize) -> &CscMat {
        match r.cmp(&v) {
            std::cmp::Ordering::Less => &self.upper[v][r - st.subtree_start[v]],
            std::cmp::Ordering::Equal => &self.diag[v],
            std::cmp::Ordering::Greater => &self.lower[v][st.anc_pos(v, r)],
        }
    }

    /// Total entries stored across all blocks.
    pub fn total_nnz(&self) -> usize {
        let d: usize = self.diag.iter().map(|m| m.nnz()).sum();
        let l: usize = self
            .lower
            .iter()
            .flat_map(|v| v.iter().map(|m| m.nnz()))
            .sum();
        let u: usize = self
            .upper
            .iter()
            .flat_map(|v| v.iter().map(|m| m.nnz()))
            .sum();
        d + l + u
    }
}

/// Where the 2-D blocks of one ND-laid-out BTF block sit inside the
/// frozen block-diagonal store ([`FrozenBtf`]): a pattern-only fact,
/// recorded once, that lets a refactorization read `A_{r,v}` in place
/// instead of extracting [`NdBlocks`] from a fresh permuted matrix
/// every step.
///
/// A column of node `v` holds, in ascending row order, its entries in
/// the row ranges of `v`'s descendants, of `v` itself and of `v`'s
/// ancestors — the separator property leaves nothing anywhere else —
/// so each 2-D block is one contiguous run of every column and the
/// split is a table of run boundaries.
#[derive(Debug, Clone)]
pub struct NdSplit {
    /// Per node `v`, per column, the `nblk + 1` boundaries between its
    /// `nblk` blocks (descendants ascending, `v`, ancestors ascending)
    /// as offsets into the store.
    tables: Vec<Vec<usize>>,
}

impl NdSplit {
    /// Records the split of the ND block starting at permuted index
    /// `offset`. Panics if a column has an entry outside its node's
    /// relatives (the separator property [`NdBlocks::extract`] also
    /// relies on).
    pub fn record(frozen: &FrozenBtf, offset: usize, st: &NdStructure) -> NdSplit {
        let (colptr, rowind) = (frozen.diag_colptr(), frozen.diag_rowind());
        let tables = (0..st.nnodes())
            .map(|v| {
                let relatives = || {
                    st.descendants(v)
                        .chain(std::iter::once(v))
                        .chain(st.ancestors[v].iter().copied())
                };
                let mut table =
                    Vec::with_capacity(st.nd.nodes[v].len() * (relatives().count() + 1));
                for j in st.nd.nodes[v].range.clone() {
                    let (mut pos, end) = (colptr[offset + j], colptr[offset + j + 1]);
                    for r in relatives() {
                        let rows = &st.nd.nodes[r].range;
                        assert!(
                            pos == end || rowind[pos] >= offset + rows.start,
                            "ND blocks must cover every entry of the diagonal block \
                             (separator property violated)"
                        );
                        table.push(pos);
                        pos += rowind[pos..end].partition_point(|&i| i < offset + rows.end);
                    }
                    assert_eq!(pos, end, "separator property violated");
                    table.push(pos);
                }
                table
            })
            .collect();
        NdSplit { tables }
    }

    /// `A_{r,v}` — rows of node `r` (a descendant or an ancestor of `v`,
    /// or `v` itself), columns of node `v` — read in place from the
    /// store's values `vals`.
    pub fn block<'a>(
        &'a self,
        frozen: &'a FrozenBtf,
        vals: &'a [f64],
        offset: usize,
        st: &NdStructure,
        v: usize,
        r: usize,
    ) -> ColsView<'a> {
        let ndesc = v - st.subtree_start[v];
        let slot = match r.cmp(&v) {
            std::cmp::Ordering::Less => r - st.subtree_start[v],
            std::cmp::Ordering::Equal => ndesc,
            std::cmp::Ordering::Greater => ndesc + 1 + st.anc_pos(v, r),
        };
        ColsView::new(
            self.tables[v].get(slot..).unwrap_or(&[]),
            ndesc + 2 + st.ancestors[v].len(),
            st.nd.nodes[v].len(),
            frozen.diag_rowind(),
            vals,
            offset + st.nd.nodes[r].range.start,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basker_sparse::TripletMat;

    fn grid2d(k: usize) -> CscMat {
        let n = k * k;
        let idx = |r: usize, c: usize| r * k + c;
        let mut t = TripletMat::new(n, n);
        for r in 0..k {
            for c in 0..k {
                let u = idx(r, c);
                t.push(u, u, 4.0);
                if r + 1 < k {
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

    #[test]
    fn irreducible_matrix_is_one_nd_block() {
        let a = grid2d(8);
        let s = Structure::build(&a, true, true, 16, 4).unwrap();
        assert_eq!(s.nblocks(), 1);
        assert!(matches!(s.kinds[0], BlockKind::NdBig(_)));
        assert_eq!(s.small_block_fraction(), 0.0);
    }

    #[test]
    fn small_matrix_stays_small() {
        let a = grid2d(3);
        let s = Structure::build(&a, true, true, 100, 4).unwrap();
        assert!(matches!(s.kinds[0], BlockKind::Small));
        assert_eq!(s.small_block_fraction(), 1.0);
    }

    #[test]
    fn nd_structure_metadata_consistent() {
        let a = grid2d(10);
        let s = Structure::build(&a, true, true, 16, 4).unwrap();
        let BlockKind::NdBig(st) = &s.kinds[0] else {
            panic!("expected ND block");
        };
        assert_eq!(st.nnodes(), 7);
        assert_eq!(st.leaf_of_thread, vec![0, 1, 3, 4]);
        // owners: leaves own themselves; sep 2 owned by thread 0 (leaf 0);
        // sep 5 owned by thread 2 (leaf 3); root by thread 0.
        assert_eq!(st.owner[0], 0);
        assert_eq!(st.owner[2], 0);
        assert_eq!(st.owner[5], 2);
        assert_eq!(st.owner[6], 0);
        assert_eq!(st.descendants(6), 0..6);
        assert_eq!(st.descendants(2), 0..2);
        assert_eq!(st.descendants(0), 0..0);
        assert_eq!(st.ancestors[0], vec![2, 6]);
        assert_eq!(st.ancestors[3], vec![5, 6]);
        assert_eq!(st.ancestors[6], Vec::<usize>::new());
    }

    #[test]
    fn nd_blocks_cover_all_entries() {
        let a = grid2d(9);
        let s = Structure::build(&a, true, true, 16, 4).unwrap();
        let ap = Perm::permute_both(&s.row_perm, &s.col_perm, &a);
        let BlockKind::NdBig(st) = &s.kinds[0] else {
            panic!("expected ND block");
        };
        let blocks = NdBlocks::extract(&ap, 0, st);
        assert_eq!(blocks.total_nnz(), a.nnz());
        // Diagonal blocks are square and match node sizes.
        for (v, node) in st.nd.nodes.iter().enumerate() {
            assert_eq!(blocks.diag[v].nrows(), node.len());
            assert_eq!(blocks.diag[v].ncols(), node.len());
        }
    }

    /// Every 2-D block read in place from the frozen store is the block
    /// `NdBlocks::extract` copies out of the permuted matrix.
    #[test]
    fn nd_split_views_match_extracted_blocks() {
        let a = grid2d(9);
        let s = Structure::build(&a, true, true, 16, 4).unwrap();
        let BlockKind::NdBig(st) = &s.kinds[0] else {
            panic!("expected ND block");
        };
        let frozen = FrozenBtf::record(&a, &s.row_perm, &s.col_perm, &s.bounds).unwrap();
        let split = NdSplit::record(&frozen, 0, st);
        let mut vals = vec![0.0; frozen.diag_nnz()];
        frozen.gather(&a, &mut vals, &mut []);
        let blocks = NdBlocks::extract(&Perm::permute_both(&s.row_perm, &s.col_perm, &a), 0, st);
        let same = |m: &CscMat, v: usize, r: usize| {
            let view = split.block(&frozen, &vals, 0, st, v, r);
            assert_eq!(view.ncols(), m.ncols());
            for c in 0..m.ncols() {
                assert!(view.col(c).eq(m.col_iter(c)), "A[{r},{v}] column {c}");
            }
        };
        for v in 0..st.nnodes() {
            same(&blocks.diag[v], v, v);
            for (ai, &anc) in st.ancestors[v].iter().enumerate() {
                same(&blocks.lower[v][ai], v, anc);
            }
            for (ki, k) in st.descendants(v).enumerate() {
                same(&blocks.upper[v][ki], v, k);
            }
        }
    }

    #[test]
    fn permuted_diagonal_stays_zero_free() {
        let a = grid2d(7);
        let s = Structure::build(&a, true, true, 10, 2).unwrap();
        let ap = Perm::permute_both(&s.row_perm, &s.col_perm, &a);
        for k in 0..a.ncols() {
            assert_ne!(ap.get(k, k), 0.0, "zero diagonal at {k}");
        }
    }

    #[test]
    fn mixed_small_and_big_blocks() {
        // Block diagonal: a large grid + several tiny decoupled systems,
        // with coupling entries in the upper block triangle.
        let g = grid2d(8); // 64
        let n = 64 + 6;
        let mut t = TripletMat::new(n, n);
        for (i, j, v) in g.iter() {
            t.push(i, j, v);
        }
        for k in 64..n {
            t.push(k, k, 5.0);
        }
        // couplings: big block depends on the tiny ones (upper triangle)
        t.push(3, 65, 1.0);
        t.push(10, 68, -2.0);
        let a = t.to_csc();
        let s = Structure::build(&a, true, true, 32, 2).unwrap();
        assert!(s.nblocks() >= 7, "blocks: {}", s.nblocks());
        let n_big = s
            .kinds
            .iter()
            .filter(|k| matches!(k, BlockKind::NdBig(_)))
            .count();
        assert_eq!(n_big, 1);
        assert!(s.small_block_fraction() > 0.0);
    }

    #[test]
    fn non_power_of_two_threads_rejected() {
        let a = grid2d(4);
        let r = std::panic::catch_unwind(|| Structure::build(&a, true, true, 4, 3));
        assert!(r.is_err());
    }
}
