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
//!    2-D grid of CSC blocks over those ranges holds the factors, and
//!    [`NdSplit`] reads `A`'s blocks on the same grid in place.
//!
//! All permutations (BTF row/col, per-small-block AMD, per-large-block ND)
//! are composed here into one global row and one global column
//! permutation, so numeric factorization sees a single permuted matrix.
//!
//! **On the team.** The BTF runs on the caller; what follows it is
//! independent block by block and node by node, so `Structure::build`
//! runs it as three stages of items on the handle's team, as the
//! factorization runs its stage list: (1) every ND block's bisections
//! and every small block's AMD order with its flop estimate, (2) every
//! ND node's halo-AMD order, (3) every ND leaf's plan. Each item writes
//! only its own slots, so the structure is the same at every width; a
//! width-1 team runs the stages inline.
//!
//! Each ND leaf is also planned here, from the pattern alone: a leaf
//! whose stacked block column `[A_ll; A_{a,l}…]` is structurally the
//! transpose of its stacked row `[A_ll, A_{l,a}…]`, and whose
//! symbolic-Cholesky flops lie at least [`SN_MIN_SHARE`] in fundamental
//! supernodes at least [`SN_MIN_WIDTH`] wide, keeps its supernodal plan
//! and is factored on the dense kernel ladder (`leaf.rs`); every
//! other leaf stays on Gilbert–Peierls.

use crate::frozen::FrozenBtf;
use crate::leaf::LeafPlan;
use crate::stages::{gp_runs, run_items};
use crate::stats::AnalyzeProfile;
use crate::{lap, BaskerOptions};
use basker_klu::gp::ColsView;
use basker_ordering::amd::amd_order;
use basker_ordering::btf::btf_form_with;
use basker_ordering::nd::{dissect, Dissection, NdDecomposition, NdNode};
use basker_ordering::symbolic::symbolic_gp;
use basker_runtime::WorkerTeam;
use basker_sparse::blocks::extract_range;
use basker_sparse::{CscMat, Perm, Result, SparseError};
use std::ops::Range;
use std::time::Instant;

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
    /// Leaf node index per thread rank.
    pub leaf_of_thread: Vec<usize>,
    /// Per node: the supernodal plan of a leaf the rule takes.
    pub(crate) leaf_plans: Vec<Option<LeafPlan>>,
}

/// Supernodes at least this wide count as supernode-rich.
pub const SN_MIN_WIDTH: usize = 8;

/// The share of a leaf's symbolic-Cholesky flops that must lie in
/// supernodes of at least [`SN_MIN_WIDTH`] columns for the leaf to be
/// factored supernodally.
pub const SN_MIN_SHARE: f64 = 0.5;

impl NdStructure {
    /// The structure of the dissection `nd`, before its leaves are
    /// planned.
    fn new(nd: NdDecomposition) -> NdStructure {
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
        NdStructure {
            leaf_of_thread: nd.leaves(),
            nd,
            ancestors,
            subtree_start,
            leaf_plans: Vec::new(),
        }
    }

    /// For a leaf `v` factored on the supernodal kernel, its
    /// symbolic-Cholesky flops (`Σ_j |L_j|²`, ancestor rows counted) by
    /// supernode width, `(width, flops)` ascending; `None` for a node
    /// that stays on Gilbert–Peierls.
    pub fn leaf_flops_by_width(&self, v: usize) -> Option<Vec<(usize, f64)>> {
        self.leaf_plans[v].as_ref().map(LeafPlan::flops_by_width)
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
    /// Rows of the largest BTF block (sizes the solve's pivot scratch).
    pub max_block: usize,
    /// Bottleneck value of the MWCM transversal (diagnostic).
    pub bottleneck: f64,
}

impl Structure {
    /// Builds the structure with `p_threads` leaves per ND tree: the BTF
    /// (serial), then three stages of independent items on `team`, each
    /// joined before the next (a width-1 team runs them inline):
    ///
    /// 1. every ND block's bisections ([`dissect`]), and every multi-row
    ///    small block's AMD order with its Gilbert–Peierls flop estimate,
    ///    the small blocks coalesced into runs worth a dispatch;
    /// 2. every ND node's halo-AMD order ([`Dissection::order_node`]);
    /// 3. every ND leaf's supernodal plan.
    ///
    /// Every item writes only its own slots, so the result is the same
    /// at every team width. Returns the structure and each block's flop
    /// estimate (Alg. 2 line 3), `None` for an ND block; `profile` gets
    /// the BTF, stage 1 and stages 2–3 laps of `clock`.
    pub(crate) fn build(
        a: &CscMat,
        opts: &BaskerOptions,
        p_threads: usize,
        team: &WorkerTeam,
        clock: &mut Instant,
        profile: &mut AnalyzeProfile,
    ) -> Result<(Structure, Vec<Option<f64>>)> {
        if !a.is_square() {
            return Err(SparseError::DimensionMismatch {
                expected: (a.nrows(), a.nrows()),
                found: (a.nrows(), a.ncols()),
            });
        }
        assert!(p_threads.is_power_of_two(), "Basker requires 2^k threads");
        let n = a.nrows();
        let levels = p_threads.trailing_zeros() as usize;

        let (row0, col0, bounds, bottleneck, ap) = if opts.use_btf {
            let btf = btf_form_with(a, opts.use_mwcm)?;
            let ap = btf.permute(a);
            (btf.row_perm, btf.col_perm, btf.bounds, btf.bottleneck, ap)
        } else {
            let id = Perm::identity(n);
            (id.clone(), id, vec![0, n], 0.0, a.clone())
        };
        profile.btf = lap(clock);
        let (row0, col0) = (row0.as_slice(), col0.as_slice());
        let nblocks = bounds.len() - 1;

        // The fine ND treatment trades fill (the separator ordering is
        // worse than AMD for circuit blocks) for intra-block parallelism.
        // That trade only pays when the block is big enough to bottleneck
        // Alg. 2's block-level parallel schedule — at least half a
        // thread's fair share of the matrix. Smaller blocks (e.g. the 36
        // similar ~280-row blocks of hvdc2-like matrices) are absorbed
        // whole by one thread of the fine-BTF path with zero fill penalty.
        let is_nd = |b: usize| {
            let size = bounds[b + 1] - bounds[b];
            size >= opts.nd_threshold && size * 2 * p_threads >= n
        };
        let nd_blocks: Vec<(usize, CscMat)> = (0..nblocks)
            .filter(|&b| is_nd(b))
            .map(|b| {
                (
                    b,
                    extract_range(&ap, bounds[b]..bounds[b + 1], bounds[b]..bounds[b + 1]),
                )
            })
            .collect();
        let nd_flops = cost(nd_blocks.iter().map(|(_, block)| block.nnz()).sum());
        let runs = gp_runs((0..nblocks).map(|b| {
            let entries = ap.colptr()[bounds[b + 1]] - ap.colptr()[bounds[b]];
            (!is_nd(b)).then(|| cost(entries))
        }));

        // Stage 1: the ND blocks' bisections first (the longest items),
        // then the small blocks' runs, biggest first.
        let mut row_total = row0.to_vec();
        let mut col_total = col0.to_vec();
        let mut flops = vec![None; nblocks];
        let mut dissections: Vec<Option<Dissection>> = nd_blocks.iter().map(|_| None).collect();
        let mut items: Vec<Stage1> = nd_blocks
            .iter()
            .zip(&mut dissections)
            .map(|((_, block), out)| Stage1::Nd { block, out })
            .collect();
        let (mut rows, mut cols) = (Windows::new(&mut row_total), Windows::new(&mut col_total));
        let mut ests = Windows::new(&mut flops);
        let mut small: Vec<(f64, Stage1)> = runs
            .iter()
            .map(|&(b0, b1, cost)| {
                let span = bounds[b0]..bounds[b1];
                let item = Stage1::Small {
                    blocks: b0..b1,
                    rows: rows.take(span.clone()),
                    cols: cols.take(span),
                    flops: ests.take(b0..b1),
                };
                (cost, item)
            })
            .collect();
        small.sort_by(|x, y| y.0.total_cmp(&x.0));
        items.extend(small.into_iter().map(|(_, item)| item));
        run_items(team, cost(ap.nnz()), items, |item| match item {
            Stage1::Nd { block, out } => **out = Some(dissect(block, levels)),
            Stage1::Small {
                blocks,
                rows,
                cols,
                flops,
            } => {
                let base = bounds[blocks.start];
                for (b, est) in blocks.clone().zip(flops.iter_mut()) {
                    let span = bounds[b]..bounds[b + 1];
                    let window = span.start - base..span.end - base;
                    let btf = (&row0[span.clone()], &col0[span.clone()]);
                    let (rows, cols) = (&mut rows[window.clone()], &mut cols[window]);
                    *est = Some(order_small(&ap, span, btf, rows, cols));
                }
            }
        });
        profile.blocks = lap(clock);

        // Stages 2 and 3.
        let dissections = dissections
            .into_iter()
            .map(|d| d.expect("stage 1 dissected every ND block"));
        let mut nds = order_nodes(team, nd_flops, dissections.collect());
        plan_leaves(
            team,
            nd_flops,
            &mut nds,
            nd_blocks.iter().map(|(_, block)| block),
        );
        profile.nodes = lap(clock);
        for ((b, _), st) in nd_blocks.iter().zip(&nds) {
            let span = bounds[*b]..bounds[b + 1];
            let btf = (&row0[span.clone()], &col0[span.clone()]);
            let (rows, cols) = (&mut row_total[span.clone()], &mut col_total[span]);
            compose(st.nd.perm.as_slice(), btf, rows, cols);
        }

        let mut nds = nds.into_iter();
        let kinds = (0..nblocks)
            .map(|b| match is_nd(b) {
                true => BlockKind::NdBig(nds.next().expect("one structure per ND block")),
                false => BlockKind::Small,
            })
            .collect();
        let row_perm = Perm::from_vec(row_total).expect("composed row perm invalid");
        let col_perm = Perm::from_vec(col_total).expect("composed col perm invalid");
        let max_block = bounds.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        let structure = Structure {
            n,
            row_perm,
            col_perm,
            bounds,
            kinds,
            max_block,
            bottleneck,
        };
        Ok((structure, flops))
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

/// Orders the small block of `ap` spanning `span` and returns its
/// Gilbert–Peierls flop estimate (Alg. 2 line 3). A block of more than
/// two rows is AMD-refined: `rows` and `cols` get the block's windows of
/// the BTF permutations, `btf`, in its AMD order. Two flops per entry
/// read are added so that flop-less singletons weigh something.
fn order_small(
    ap: &CscMat,
    span: Range<usize>,
    btf: (&[usize], &[usize]),
    rows: &mut [usize],
    cols: &mut [usize],
) -> f64 {
    if span.len() == 1 {
        return 2.0;
    }
    let mut block = extract_range(ap, span.clone(), span.clone());
    if span.len() > 2 {
        let local = amd_order(&block);
        compose(local.as_slice(), btf, rows, cols);
        block = pattern_in_order(&block, &local);
    }
    symbolic_gp(&block).flops + 2.0 * block.nnz() as f64
}

/// The pattern of `block` with rows and columns in the order `local`,
/// every value zero: what the flop estimate reads, in one pass.
fn pattern_in_order(block: &CscMat, local: &Perm) -> CscMat {
    let inv = local.inverse();
    let mut colptr = Vec::with_capacity(block.ncols() + 1);
    let mut rowind = Vec::with_capacity(block.nnz());
    colptr.push(0);
    for &j in local.as_slice() {
        let start = rowind.len();
        rowind.extend(block.col_rows(j).iter().map(|&i| inv.as_slice()[i]));
        rowind[start..].sort_unstable();
        colptr.push(rowind.len());
    }
    let values = vec![0.0; rowind.len()];
    CscMat::new(block.nrows(), block.ncols(), colptr, rowind, values)
        .expect("a permuted valid pattern is valid")
}

/// One block's windows of the composed permutations, `rows` and
/// `cols`: its windows of the BTF permutations, `btf`, in the block's
/// local order `local`.
fn compose(
    local: &[usize],
    (row0, col0): (&[usize], &[usize]),
    rows: &mut [usize],
    cols: &mut [usize],
) {
    for (off, &l) in local.iter().enumerate() {
        rows[off] = row0[l];
        cols[off] = col0[l];
    }
}

/// Stage 2: every node's halo-AMD order, biggest node first, into the
/// structure of each dissection. Each graph goes with its dissection.
fn order_nodes(team: &WorkerTeam, flops: f64, dissections: Vec<Dissection>) -> Vec<NdStructure> {
    // Every vertex lies in exactly one node.
    let mut perms: Vec<Vec<usize>> = dissections
        .iter()
        .map(|d| vec![0; d.nodes().iter().map(NdNode::len).sum()])
        .collect();
    let mut items: Vec<(&Dissection, usize, &mut [usize])> = dissections
        .iter()
        .zip(&mut perms)
        .flat_map(|(d, perm)| {
            let slices = d.node_slices(perm).into_iter().enumerate();
            slices.map(move |(v, out)| (d, v, out))
        })
        .collect();
    items.sort_by_key(|(_, _, out)| std::cmp::Reverse(out.len()));
    run_items(team, flops, items, |(d, v, out)| d.order_node(*v, out));
    dissections
        .into_iter()
        .zip(perms)
        .map(|(d, perm)| NdStructure::new(d.finish(perm)))
        .collect()
}

/// Stage 3: every leaf's plan, biggest leaf first; `blocks` are the ND
/// blocks `nds` dissect.
fn plan_leaves<'b>(
    team: &WorkerTeam,
    flops: f64,
    nds: &mut [NdStructure],
    blocks: impl Iterator<Item = &'b CscMat>,
) {
    let invs: Vec<Perm> = nds.iter().map(|st| st.nd.perm.inverse()).collect();
    let mut plans: Vec<Vec<Option<LeafPlan>>> =
        nds.iter().map(|st| vec![None; st.nnodes()]).collect();
    let mut items: Vec<_> = nds
        .iter()
        .zip(blocks)
        .zip(&invs)
        .zip(&mut plans)
        .flat_map(|(((st, block), inv), plans)| {
            let nodes = plans.iter_mut().enumerate();
            nodes
                .filter(|(v, _)| st.nd.nodes[*v].is_leaf())
                .map(move |(v, out)| (st, block, inv, v, out))
        })
        .collect();
    items.sort_by_key(|(st, _, _, v, _)| std::cmp::Reverse(st.nd.nodes[*v].len()));
    run_items(team, flops, items, |(st, block, inv, v, out)| {
        **out = plan_leaf(&st.nd, &st.ancestors[*v], *v, block, inv.as_slice());
    });
    for (st, plans) in nds.iter_mut().zip(plans) {
        st.leaf_plans = plans;
    }
}

/// What analyzing `entries` stored entries costs, in the flops a
/// dispatch is weighed in
/// ([`DISPATCH_BREAK_EVEN_FLOPS`](crate::stages::DISPATCH_BREAK_EVEN_FLOPS)):
/// AMD, the symbolic pass and the bisections spend ≈ 0.1 µs on an entry,
/// the time the kernels take for ≈ 100 flops.
fn cost(entries: usize) -> f64 {
    100.0 * entries as f64
}

/// One item of analyze's first stage.
enum Stage1<'s, 'b> {
    /// Bisect an ND block.
    Nd {
        block: &'b CscMat,
        out: &'s mut Option<Dissection<'b>>,
    },
    /// Order a run of small blocks and estimate their flops: `rows` and
    /// `cols` are the run's window of the composed permutations, `flops`
    /// its blocks' estimates.
    Small {
        blocks: Range<usize>,
        rows: &'s mut [usize],
        cols: &'s mut [usize],
        flops: &'s mut [Option<f64>],
    },
}

/// Disjoint windows of one slice, cut front to back.
struct Windows<'s, T> {
    rest: &'s mut [T],
    /// Where `rest` starts in the whole slice.
    at: usize,
}

impl<'s, T> Windows<'s, T> {
    fn new(all: &'s mut [T]) -> Self {
        Windows { rest: all, at: 0 }
    }

    /// The window `r`, which must not start before the last one ended.
    fn take(&mut self, r: Range<usize>) -> &'s mut [T] {
        let (_, rest) = std::mem::take(&mut self.rest).split_at_mut(r.start - self.at);
        let (window, rest) = rest.split_at_mut(r.len());
        (self.rest, self.at) = (rest, r.end);
        window
    }
}

/// The supernodal plan of leaf `v` of `block`'s dissection `nd` (`inv`
/// its inverse permutation), if the rule takes the leaf: its stacked
/// block column is structurally the transpose of its stacked row, and at
/// least [`SN_MIN_SHARE`] of its symbolic-Cholesky flops lie in
/// supernodes [`SN_MIN_WIDTH`] or more columns wide. An unsymmetric leaf
/// costs one pass over its columns and its ancestors'.
fn plan_leaf(
    nd: &NdDecomposition,
    ancestors: &[usize],
    v: usize,
    block: &CscMat,
    inv: &[usize],
) -> Option<LeafPlan> {
    let leaf = nd.nodes[v].range.clone();
    let nb = leaf.len();
    if nb == 0 {
        return None;
    }
    // The stacked rows: the leaf's, then each ancestor's from `halo[b]`.
    let mut halo = vec![nb];
    for &u in ancestors {
        halo.push(halo[halo.len() - 1] + nd.nodes[u].len());
    }
    let stacked = |i: usize| {
        if leaf.contains(&i) {
            return Some(i - leaf.start);
        }
        let b = ancestors
            .iter()
            .position(|&u| nd.nodes[u].range.contains(&i))?;
        Some(halo[b] + i - nd.nodes[ancestors[b]].range.start)
    };
    // Rows of column j of the block in ND order, unsorted.
    let rows_of = |j: usize| {
        let col = block.col_rows(nd.perm.as_slice()[j]);
        col.iter().map(|&i| inv[i])
    };
    // [A_ll; A_{a,l}…], column by column.
    let (mut colptr, mut rowind) = (vec![0], Vec::new());
    for j in leaf.clone() {
        let start = rowind.len();
        rowind.extend(rows_of(j).filter_map(stacked));
        rowind[start..].sort_unstable();
        colptr.push(rowind.len());
    }
    // [A_ll, A_{l,a}…]ᵀ: per leaf row, the stacked columns holding it.
    let stacked_cols = || {
        let anc = ancestors.iter().flat_map(|&u| nd.nodes[u].range.clone());
        leaf.clone().chain(anc).enumerate()
    };
    let mut tptr = vec![0; nb + 1];
    for (_, c) in stacked_cols() {
        for i in rows_of(c).filter(|i| leaf.contains(i)) {
            tptr[i - leaf.start + 1] += 1;
        }
    }
    for i in 0..nb {
        tptr[i + 1] += tptr[i];
    }
    if tptr != colptr {
        return None;
    }
    let mut trow = vec![0; rowind.len()];
    let mut at = tptr;
    for (sc, c) in stacked_cols() {
        for i in rows_of(c).filter(|i| leaf.contains(i)) {
            trow[at[i - leaf.start]] = sc;
            at[i - leaf.start] += 1;
        }
    }
    if trow != rowind {
        return None;
    }
    let plan = LeafPlan::analyze(halo, &colptr, &rowind);
    (plan.share_from(SN_MIN_WIDTH) >= SN_MIN_SHARE).then_some(plan)
}

/// Where the 2-D blocks of one ND-laid-out BTF block sit inside the
/// frozen block-diagonal store ([`FrozenBtf`]): a pattern-only fact,
/// recorded at analyze, that lets a factorization or a refactorization
/// read `A_{r,v}` in place instead of extracting it from a fresh
/// permuted matrix every step.
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
    /// relatives (the separator property).
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
            (st.nd.nodes[r].len(), st.nd.nodes[v].len()),
            frozen.diag_rowind(),
            vals,
            offset + st.nd.nodes[r].range.start,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testmat::{self, circuit_like, grid2d_unsym, power_grid, with_mid_blocks};
    use basker_runtime::shared_team;
    use basker_sparse::TripletMat;

    /// The structure with `p` leaves per ND tree, built on a team of
    /// `width`, with its blocks' flop estimates.
    fn build_on(
        a: &CscMat,
        nd_threshold: usize,
        p: usize,
        width: usize,
    ) -> Result<(Structure, Vec<Option<f64>>)> {
        let team = shared_team(width, false);
        let opts = testmat::opts(p, nd_threshold);
        let mut profile = AnalyzeProfile::default();
        Structure::build(a, &opts, p, &team, &mut Instant::now(), &mut profile)
    }

    fn build(a: &CscMat, nd_threshold: usize, p: usize) -> Structure {
        build_on(a, nd_threshold, p, 1).unwrap().0
    }

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
        let s = build(&a, 16, 4);
        assert_eq!(s.nblocks(), 1);
        assert!(matches!(s.kinds[0], BlockKind::NdBig(_)));
        assert_eq!(s.small_block_fraction(), 0.0);
    }

    #[test]
    fn small_matrix_stays_small() {
        let a = grid2d(3);
        let s = build(&a, 100, 4);
        assert!(matches!(s.kinds[0], BlockKind::Small));
        assert_eq!(s.small_block_fraction(), 1.0);
    }

    #[test]
    fn nd_structure_metadata_consistent() {
        let a = grid2d(10);
        let s = build(&a, 16, 4);
        let BlockKind::NdBig(st) = &s.kinds[0] else {
            panic!("expected ND block");
        };
        assert_eq!(st.nnodes(), 7);
        assert_eq!(st.leaf_of_thread, vec![0, 1, 3, 4]);
        assert_eq!(st.descendants(6), 0..6);
        assert_eq!(st.descendants(2), 0..2);
        assert_eq!(st.descendants(0), 0..0);
        assert_eq!(st.ancestors[0], vec![2, 6]);
        assert_eq!(st.ancestors[3], vec![5, 6]);
        assert_eq!(st.ancestors[6], Vec::<usize>::new());
    }

    /// A 4-leaf grid's ND block, its frozen store gathered from `a`,
    /// its split and the permuted matrix.
    fn split_grid(a: &CscMat) -> (Structure, FrozenBtf, Vec<f64>, NdSplit, CscMat) {
        let s = build(a, 16, 4);
        let BlockKind::NdBig(st) = &s.kinds[0] else {
            panic!("expected ND block");
        };
        let frozen = FrozenBtf::record(a, &s.row_perm, &s.col_perm, &s.bounds).unwrap();
        let split = NdSplit::record(&frozen, 0, st);
        let (vals, _) = frozen.image(a);
        let ap = Perm::permute_both(&s.row_perm, &s.col_perm, a);
        (s, frozen, vals, split, ap)
    }

    /// Every pair of related nodes, `(v, r)`: `A_{r,v}` is a 2-D block.
    fn related(st: &NdStructure) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..st.nnodes()).flat_map(move |v| {
            st.descendants(v)
                .chain([v])
                .chain(st.ancestors[v].iter().copied())
                .map(move |r| (v, r))
        })
    }

    #[test]
    fn nd_blocks_cover_all_entries() {
        let a = grid2d(9);
        let (s, frozen, vals, split, _) = split_grid(&a);
        let BlockKind::NdBig(st) = &s.kinds[0] else {
            panic!("expected ND block");
        };
        let total: usize = related(st)
            .map(|(v, r)| {
                let view = split.block(&frozen, &vals, 0, st, v, r);
                (0..view.ncols()).map(|c| view.col(c).len()).sum::<usize>()
            })
            .sum();
        assert_eq!(total, a.nnz());
        // Diagonal blocks are square and match node sizes.
        for (v, node) in st.nd.nodes.iter().enumerate() {
            let diag = split.block(&frozen, &vals, 0, st, v, v);
            assert_eq!((diag.nrows(), diag.ncols()), (node.len(), node.len()));
        }
    }

    /// Every 2-D block read in place from the frozen store is the block
    /// `extract_range` copies out of the permuted matrix.
    #[test]
    fn nd_split_views_match_extracted_blocks() {
        let a = grid2d(9);
        let (s, frozen, vals, split, ap) = split_grid(&a);
        let BlockKind::NdBig(st) = &s.kinds[0] else {
            panic!("expected ND block");
        };
        for (v, r) in related(st) {
            let (rows, cols) = (st.nd.nodes[r].range.clone(), st.nd.nodes[v].range.clone());
            let want = extract_range(&ap, rows, cols);
            let view = split.block(&frozen, &vals, 0, st, v, r);
            assert_eq!((view.nrows(), view.ncols()), (want.nrows(), want.ncols()));
            assert_eq!(view.to_csc(), want, "A[{r},{v}]");
        }
    }

    #[test]
    fn permuted_diagonal_stays_zero_free() {
        let a = grid2d(7);
        let s = build(&a, 10, 2);
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
        let s = build(&a, 32, 2);
        assert!(s.nblocks() >= 7, "blocks: {}", s.nblocks());
        let n_big = s
            .kinds
            .iter()
            .filter(|k| matches!(k, BlockKind::NdBig(_)))
            .count();
        assert_eq!(n_big, 1);
        assert!(s.small_block_fraction() > 0.0);
    }

    /// Two grids big enough for ND at four leaves, three rings of 70–84
    /// rows, a 4 × 4 grid, a chain of singletons and 2 × 2 blocks,
    /// coupled upward.
    fn two_nd_blocks() -> CscMat {
        let parts = [
            grid2d_unsym(12),
            grid2d_unsym(11),
            with_mid_blocks(4, 3, 20),
            testmat::tiny_blocks(10),
        ];
        let n = parts.iter().map(CscMat::nrows).sum();
        let mut t = TripletMat::new(n, n);
        let mut o = 0;
        for part in &parts {
            for (i, j, v) in part.iter() {
                t.push(o + i, o + j, v);
            }
            if o > 0 {
                t.push(o - 3, o + 1, 0.25);
            }
            o += part.nrows();
        }
        t.to_csc()
    }

    /// Everything analyze decides, as one list of words: the composed
    /// permutations, the bounds, per ND block its order, node ranges and
    /// leaf plans' flops by width, and every block's flop estimate.
    fn words(s: &Structure, flops: &[Option<f64>]) -> Vec<u64> {
        let mut w: Vec<u64> = s
            .row_perm
            .as_slice()
            .iter()
            .chain(s.col_perm.as_slice())
            .chain(&s.bounds)
            .map(|&x| x as u64)
            .collect();
        for kind in &s.kinds {
            let BlockKind::NdBig(st) = kind else {
                w.push(u64::MAX);
                continue;
            };
            w.extend(st.nd.perm.as_slice().iter().map(|&x| x as u64));
            for (v, node) in st.nd.nodes.iter().enumerate() {
                w.extend([node.range.start as u64, node.range.end as u64]);
                for (width, f) in st.leaf_flops_by_width(v).unwrap_or_default() {
                    w.extend([width as u64, f.to_bits()]);
                }
            }
        }
        w.extend(flops.iter().map(|f| f.map_or(u64::MAX, f64::to_bits)));
        w
    }

    /// The same leaves per tree on teams of width 1, 2 and 4 give the
    /// same structure and flop estimates, bit for bit: two ND blocks with
    /// rings and tiny blocks beside them, a mesh, a power grid and a
    /// circuit.
    #[test]
    fn analyze_is_bit_identical_at_every_width() {
        let cases = [
            (two_nd_blocks(), 100, 4, 2),
            (two_nd_blocks(), 100, 2, 1),
            (grid2d_unsym(20), 16, 4, 1),
            (grid2d_unsym(20), 16, 2, 1),
            (power_grid(40, 30), 16, 2, 0),
            (circuit_like(6, 60), 32, 2, 0),
        ];
        for (a, nd_threshold, p, nd) in &cases {
            let (s, flops) = build_on(a, *nd_threshold, *p, 1).unwrap();
            let nds = s.kinds.iter().filter(|k| matches!(k, BlockKind::NdBig(_)));
            assert_eq!(nds.count(), *nd, "ND blocks at {p} leaves");
            let (want, runs) = (words(&s, &flops), gp_runs(flops));
            for width in [2, 4] {
                let (s, flops) = build_on(a, *nd_threshold, *p, width).unwrap();
                assert_eq!(words(&s, &flops), want, "{p} leaves on a team of {width}");
                assert_eq!(gp_runs(flops), runs);
            }
        }
        // The first matrix has AMD-refined small blocks beside its ND ones.
        let (s, _) = build_on(&cases[0].0, 100, 4, 1).unwrap();
        let rows = s.bounds.windows(2).map(|w| w[1] - w[0]);
        assert!(s
            .kinds
            .iter()
            .zip(rows)
            .any(|(k, r)| matches!(k, BlockKind::Small) && r > 2));
    }

    #[test]
    fn non_power_of_two_threads_rejected() {
        let a = grid2d(4);
        let r = std::panic::catch_unwind(|| build(&a, 4, 3));
        assert!(r.is_err());
    }
}
