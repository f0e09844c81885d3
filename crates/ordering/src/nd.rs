//! Nested dissection ordering (the Scotch stand-in).
//!
//! Basker reorders its large BTF blocks with a nested-dissection ordering
//! whose binary separator tree has exactly `p` leaves for `p` threads
//! (paper §III-C: "Basker currently limits the number of leafs in the ND
//! tree to the number of threads available... current implementations of ND
//! provide only a binary tree, and therefore, Basker is limited to using a
//! power of two threads").
//!
//! This implementation recursively bisects the symmetrized graph. A
//! multilevel edge bisection (heavy-edge coarsening, a BFS split of the
//! coarsest graph, Fiduccia–Mattheyses refinement on the way back up)
//! finds a balanced cut, and the vertex separator is extracted as a
//! **minimum vertex cover of the cut edges** (bipartite matching +
//! König's theorem). Two safety valves keep pathological graphs in check:
//! disconnected subgraphs split along components with an empty separator,
//! and expander-like subgraphs whose smallest separator would exceed a
//! quarter of the vertices are not split at all (one thread factors them
//! serially rather than exploding fill).
//!
//! **Thin separators.** The refinement is classic FM with hill-climbing
//! and rollback: in each pass every boundary vertex may move once, in
//! best-gain order, negative gains included, as long as each side keeps
//! `BALANCE` (45 %) of the weight; the pass is then rolled back to its
//! best prefix. A ragged cut can therefore straighten through a few
//! uphill moves, which a pass of positive-gain moves alone never does.
//! Ties go to the heavier side, then to the lowest index, so the plan is
//! the same on every run. On `mesh2d(150)` the root separator went from
//! 243 rows to 150, one grid line.
//!
//! **Halo-aware nodes.** Each leaf and separator is ordered by AMD
//! together with its *halo*: its neighbours owned by a later node in
//! recursive block order (left subtree, right subtree, then the
//! separator). The separator property makes those exactly the vertices
//! of the ancestor separators the node couples to, so the halo is empty
//! for the root and at `levels = 0`. Halo vertices weigh in AMD's
//! degrees but are never ordered (Scotch's hybrid ND + halo-AMD,
//! Pellegrini, Roman & Amestoy 2000), so boundary vertices are
//! eliminated late instead of spreading the ancestors' rows through
//! `L_{a,l}` and `U_{l,a}`.
//!
//! On `mesh2d(150)` the symbolic Cholesky flops (`Σ|L_j|²`) of the
//! one-level order went from 9.38e7 to 6.77e7 with FM alone and to
//! 5.70e7 with the halo too; whole-matrix AMD takes 4.76e7. What is left
//! is mostly AMD's tie-breaking: the same separator, one column instead
//! of one row of the grid, gives 4.74e7.
//!
//! **Three parts.** A node's halo is a fact of the tree alone, so no
//! node's order depends on another's: [`nested_dissection`] is the
//! serial composition of [`dissect`] (the bisections), one
//! [`Dissection::order_node`] per node, and [`Dissection::finish`].
//! `Basker::analyze` runs the bisections of its ND blocks, then all
//! their node orders, as independent items on its team; the result is
//! the serial one whatever the schedule.
//!
//! **No ND below the thread level.** The tree stops at `log₂ p` levels
//! and each leaf is AMD-ordered whole. Dissecting `mesh2d(150)` two to
//! five levels deep (leaves of 5 600 down to 700 vertices, halo-AMD at
//! the bottom) gave 5.16e7 to 5.61e7 flops against 5.70e7 for one level:
//! less than AMD's own spread on this grid, so a deeper fill tree under
//! the scheduling tree does not pay at these sizes.

use crate::amd::amd_with_halo;
use basker_sparse::blocks::extract_general;
use basker_sparse::{CscMat, Perm};
use std::borrow::Cow;
use std::ops::Range;

/// One node of the separator tree, in *recursive block order* (left
/// subtree's nodes, right subtree's nodes, then the separator/leaf itself —
/// the order the blocks appear in the permuted matrix).
#[derive(Debug, Clone)]
pub struct NdNode {
    /// Parent node index (`None` for the root separator).
    pub parent: Option<usize>,
    /// Child node indices `(left, right)`; `None` for leaves.
    pub children: Option<(usize, usize)>,
    /// Depth from the root (root = 0, leaves = `levels`).
    pub depth: usize,
    /// Column/row range of this block in the permuted matrix.
    pub range: Range<usize>,
}

impl NdNode {
    /// True when the node is a leaf domain (no children).
    pub fn is_leaf(&self) -> bool {
        self.children.is_none()
    }

    /// Block size.
    pub fn len(&self) -> usize {
        self.range.end - self.range.start
    }

    /// True for zero-size blocks.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }
}

/// A nested-dissection decomposition with its separator tree.
#[derive(Debug, Clone)]
pub struct NdDecomposition {
    /// The fill-reducing ND permutation (gather convention).
    pub perm: Perm,
    /// Tree nodes in recursive block order; `nodes.len() == 2p - 1`.
    pub nodes: Vec<NdNode>,
    /// Number of leaves `p = 2^levels`.
    pub p_leaves: usize,
    /// Number of bisection levels (`log2 p`).
    pub levels: usize,
}

impl NdDecomposition {
    /// Indices of the leaf nodes in block order.
    pub fn leaves(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_leaf())
            .map(|(i, _)| i)
            .collect()
    }

    /// The root separator's node index (the last block).
    pub fn root(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Ancestor chain of `node` from its parent up to the root.
    pub fn ancestors(&self, node: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut cur = self.nodes[node].parent;
        while let Some(p) = cur {
            out.push(p);
            cur = self.nodes[p].parent;
        }
        out
    }

    /// Tree level counted from the leaves (leaves = 0, root = `levels`);
    /// the paper's `treelevel` for separators is `levels - depth`.
    pub fn tree_level(&self, node: usize) -> usize {
        self.levels - self.nodes[node].depth
    }

    /// All node indices in the subtree rooted at `node` (inclusive), in
    /// block order. Because of the recursive numbering these are exactly
    /// the contiguous indices ending at `node`.
    pub fn subtree(&self, node: usize) -> Vec<usize> {
        let mut out = Vec::new();
        collect_subtree(&self.nodes, node, &mut out);
        out.sort_unstable();
        out
    }
}

fn collect_subtree(nodes: &[NdNode], node: usize, out: &mut Vec<usize>) {
    out.push(node);
    if let Some((l, r)) = nodes[node].children {
        collect_subtree(nodes, l, out);
        collect_subtree(nodes, r, out);
    }
}

/// Computes a nested-dissection decomposition with `2^levels` leaves.
///
/// `a` must be square; its symmetrized pattern defines the graph. The
/// serial composition of the three parts a caller with a team runs
/// apart: [`dissect`], every node's [`Dissection::order_node`], and
/// [`Dissection::finish`].
pub fn nested_dissection(a: &CscMat, levels: usize) -> NdDecomposition {
    let d = dissect(a, levels);
    let mut perm = vec![0; d.owner.len()];
    for (v, out) in d.node_slices(&mut perm).into_iter().enumerate() {
        d.order_node(v, out);
    }
    d.finish(perm)
}

/// Bisects the symmetrized graph of the square matrix `a` into a tree
/// of `2^levels` leaves, leaving every node's vertices unordered.
pub fn dissect(a: &CscMat, levels: usize) -> Dissection<'_> {
    assert!(a.is_square(), "nested dissection requires a square matrix");
    let graph = if a.is_pattern_symmetric() {
        Cow::Borrowed(a)
    } else {
        Cow::Owned(a.symmetrize())
    };
    let n = graph.ncols();
    let mut dissector = Dissector {
        graph: &graph,
        mark: vec![0; n],
        seen: vec![0; n],
        local: vec![0; n],
        stamp: 0,
        verts: Vec::with_capacity(n),
        nodes: Vec::with_capacity((1 << (levels + 1)) - 1),
    };
    dissector.dissect((0..n).collect(), levels, 0);
    let Dissector { verts, nodes, .. } = dissector;
    debug_assert_eq!(verts.len(), n);
    let mut owner = vec![0; n];
    for (v, node) in nodes.iter().enumerate() {
        for &x in &verts[node.range.clone()] {
            owner[x] = v;
        }
    }
    Dissection {
        graph,
        nodes,
        verts,
        owner,
        levels,
    }
}

/// A separator tree whose nodes are not yet ordered: [`dissect`]'s
/// output. Nodes come in recursive block order with their final
/// ranges. A node's *halo* — its neighbours that AMD counts but does
/// not order — is exactly its neighbours owned by a later node, which
/// the separator property makes its ancestors; so every node's order
/// depends on the tree alone, and the `2p − 1` orders are independent.
pub struct Dissection<'a> {
    /// The symmetrized graph (`a` itself when its pattern is symmetric).
    graph: Cow<'a, CscMat>,
    nodes: Vec<NdNode>,
    /// Every node's vertices, unordered, at the node's range.
    verts: Vec<usize>,
    /// The node each vertex belongs to.
    owner: Vec<usize>,
    levels: usize,
}

impl Dissection<'_> {
    /// The tree's nodes, in recursive block order.
    pub fn nodes(&self) -> &[NdNode] {
        &self.nodes
    }

    /// Splits a permutation buffer of the graph's dimension into one
    /// window per node, at the node's range, for
    /// [`order_node`](Self::order_node) to fill.
    pub fn node_slices<'p>(&self, mut perm: &'p mut [usize]) -> Vec<&'p mut [usize]> {
        assert_eq!(perm.len(), self.verts.len(), "one slot per vertex");
        self.nodes
            .iter()
            .map(|node| {
                let (head, tail) = std::mem::take(&mut perm).split_at_mut(node.len());
                perm = tail;
                head
            })
            .collect()
    }

    /// Writes node `v`'s vertices into `out` in the AMD order of the
    /// subgraph induced by them and their halo, which AMD counts but
    /// does not order.
    pub fn order_node(&self, v: usize, out: &mut [usize]) {
        let verts = &self.verts[self.nodes[v].range.clone()];
        assert_eq!(out.len(), verts.len(), "one slot per vertex of the node");
        if verts.len() <= 2 {
            out.copy_from_slice(verts);
            return;
        }
        let mut with_halo = verts.to_vec();
        // The root has no halo; any other node stamps its halo once met.
        if self.nodes[v].parent.is_some() {
            let mut in_halo = vec![false; self.owner.len()];
            for &x in verts {
                for &u in self.graph.col_rows(x) {
                    if self.owner[u] > v && !in_halo[u] {
                        in_halo[u] = true;
                        with_halo.push(u);
                    }
                }
            }
        }
        let sub = extract_general(&self.graph, &with_halo, &with_halo);
        let order = amd_with_halo(&sub, with_halo.len() - verts.len());
        for (slot, local) in out.iter_mut().zip(order) {
            *slot = verts[local];
        }
    }

    /// The decomposition, `perm` holding every node's order at its
    /// range.
    pub fn finish(self, perm: Vec<usize>) -> NdDecomposition {
        NdDecomposition {
            perm: Perm::from_vec(perm).expect("ND produced an invalid permutation"),
            nodes: self.nodes,
            p_leaves: 1 << self.levels,
            levels: self.levels,
        }
    }
}

/// The recursion's state. `mark` and `seen` are stamp arrays: a vertex
/// belongs to the set stamped `s` while its entry equals `s`, so a new
/// set costs one counter bump and no clearing. `local` is a vertex's
/// index inside whichever set last numbered it.
struct Dissector<'a> {
    graph: &'a CscMat,
    mark: Vec<usize>,
    seen: Vec<usize>,
    local: Vec<usize>,
    stamp: usize,
    /// Every placed node's vertices, in node order.
    verts: Vec<usize>,
    nodes: Vec<NdNode>,
}

impl<'a> Dissector<'a> {
    fn next_stamp(&mut self) -> usize {
        self.stamp += 1;
        self.stamp
    }

    /// Recursively dissects `verts`; returns the index of the node created
    /// for this subtree's top block (leaf or separator).
    fn dissect(&mut self, verts: Vec<usize>, levels_left: usize, depth: usize) -> usize {
        if levels_left == 0 {
            return self.place(&verts, None, depth);
        }
        let (half_a, half_b, sep) = self.bisect(&verts);
        let left = self.dissect(half_a, levels_left - 1, depth + 1);
        let right = self.dissect(half_b, levels_left - 1, depth + 1);
        let me = self.place(&sep, Some((left, right)), depth);
        self.nodes[left].parent = Some(me);
        self.nodes[right].parent = Some(me);
        me
    }

    /// Appends a node holding `verts` after every node placed so far.
    fn place(&mut self, verts: &[usize], children: Option<(usize, usize)>, depth: usize) -> usize {
        let start = self.verts.len();
        self.verts.extend_from_slice(verts);
        self.nodes.push(NdNode {
            parent: None,
            children,
            depth,
            range: start..self.verts.len(),
        });
        self.nodes.len() - 1
    }

    /// Splits `verts` into `(A, B, S)`: no edge joins A and B directly.
    fn bisect(&mut self, verts: &[usize]) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        let nv = verts.len();
        if nv == 0 {
            return (Vec::new(), Vec::new(), Vec::new());
        }
        if nv == 1 {
            return (vec![verts[0]], Vec::new(), Vec::new());
        }

        // membership stamp and local ids (positions in `verts`)
        let stamp = self.next_stamp();
        for (li, &v) in verts.iter().enumerate() {
            self.mark[v] = stamp;
            self.local[v] = li;
        }

        // --- connected components; multi-component graphs split freely ---
        let comps = self.components(verts, stamp);
        if comps.len() > 1 {
            // Greedy balance components into two halves, empty separator.
            let mut sized: Vec<(usize, usize)> = comps
                .iter()
                .enumerate()
                .map(|(i, c)| (c.len(), i))
                .collect();
            sized.sort_unstable_by(|a, b| b.cmp(a));
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for (_, ci) in sized {
                if a.len() <= b.len() {
                    a.extend_from_slice(&comps[ci]);
                } else {
                    b.extend_from_slice(&comps[ci]);
                }
            }
            return (a, b, Vec::new());
        }

        // --- single component: multilevel edge bisection, then the vertex
        // separator is extracted as a *minimum vertex cover* of the cut
        // edges (König), which is what makes separators thin. ---
        // The induced local graph, unit weights.
        let ladj: Vec<Vec<(usize, u64)>> = verts
            .iter()
            .map(|&v| {
                let rows = self.graph.col_rows(v).iter();
                rows.filter(|&&u| u != v && self.mark[u] == stamp)
                    .map(|&u| (self.local[u], 1))
                    .collect()
            })
            .collect();
        let lvw: Vec<u64> = vec![1; nv];
        let side = multilevel::bisect(&ladj, &lvw);
        let mut a: Vec<usize> = Vec::new();
        let mut b: Vec<usize> = Vec::new();
        for (li, &v) in verts.iter().enumerate() {
            if side[li] {
                b.push(v);
            } else {
                a.push(v);
            }
        }
        if a.is_empty() || b.is_empty() {
            return (verts.to_vec(), Vec::new(), Vec::new());
        }
        let (a, b, s) = self.cover_separator(a, b);
        // Fallback: if the separator is a large fraction of the subgraph
        // (expander-like block), splitting would explode fill — keep the
        // block whole and let one thread factor it serially (the paper
        // relies on Scotch finding good separators; when none exist, 1-D
        // is the honest answer).
        if s.len() > (nv / 4).max(8) {
            return (verts.to_vec(), Vec::new(), Vec::new());
        }
        (a, b, s)
    }

    /// Given an edge bisection `(A, B)`, extracts a minimum vertex cover
    /// of the A–B cut edges via bipartite matching + König's theorem and
    /// removes it from the halves, returning `(A', B', S)` with no edge
    /// between `A'` and `B'`.
    fn cover_separator(
        &mut self,
        a: Vec<usize>,
        b: Vec<usize>,
    ) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        let bstamp = self.next_stamp();
        for &v in &b {
            self.mark[v] = bstamp;
        }
        // Boundary vertices and cut edges, in local ids: the A side's
        // boundary `x_ids` with its cut edges `adj[xptr[x]..xptr[x + 1]]`,
        // the B side's `y_ids` (numbered in `local` as they are met).
        let ystamp = self.next_stamp();
        let mut x_ids: Vec<usize> = Vec::new();
        let mut y_ids: Vec<usize> = Vec::new();
        let mut xptr: Vec<usize> = vec![0];
        let mut adj: Vec<usize> = Vec::new();
        for &v in &a {
            for &u in self.graph.col_rows(v) {
                if self.mark[u] == bstamp {
                    if self.seen[u] != ystamp {
                        self.seen[u] = ystamp;
                        self.local[u] = y_ids.len();
                        y_ids.push(u);
                    }
                    adj.push(self.local[u]);
                }
            }
            if adj.len() > xptr[x_ids.len()] {
                x_ids.push(v);
                xptr.push(adj.len());
            }
        }
        if x_ids.is_empty() {
            return (a, b, Vec::new());
        }
        // Maximum bipartite matching (augmenting DFS with stamps).
        let nx = x_ids.len();
        let ny = y_ids.len();
        let mut match_x = vec![usize::MAX; nx];
        let mut match_y = vec![usize::MAX; ny];
        let mut visited = vec![usize::MAX; ny];
        fn augment(
            x: usize,
            xptr: &[usize],
            adj: &[usize],
            match_x: &mut [usize],
            match_y: &mut [usize],
            visited: &mut [usize],
            round: usize,
        ) -> bool {
            for &y in &adj[xptr[x]..xptr[x + 1]] {
                if visited[y] == round {
                    continue;
                }
                visited[y] = round;
                if match_y[y] == usize::MAX
                    || augment(match_y[y], xptr, adj, match_x, match_y, visited, round)
                {
                    match_x[x] = y;
                    match_y[y] = x;
                    return true;
                }
            }
            false
        }
        for x in 0..nx {
            augment(x, &xptr, &adj, &mut match_x, &mut match_y, &mut visited, x);
        }
        // König: Z = vertices reachable from unmatched X via alternating
        // paths; cover = (X \ Z_X) ∪ (Y ∩ Z_Y).
        let mut zx = vec![false; nx];
        let mut zy = vec![false; ny];
        let mut queue: Vec<usize> = (0..nx).filter(|&x| match_x[x] == usize::MAX).collect();
        for &x in &queue {
            zx[x] = true;
        }
        let mut head = 0;
        while head < queue.len() {
            let x = queue[head];
            head += 1;
            for &y in &adj[xptr[x]..xptr[x + 1]] {
                if !zy[y] {
                    zy[y] = true;
                    let x2 = match_y[y];
                    if x2 != usize::MAX && !zx[x2] {
                        zx[x2] = true;
                        queue.push(x2);
                    }
                }
            }
        }
        let cover = self.next_stamp();
        let mut s: Vec<usize> = Vec::new();
        let from_x = (0..nx).filter(|&x| !zx[x]).map(|x| x_ids[x]);
        let from_y = (0..ny).filter(|&y| zy[y]).map(|y| y_ids[y]);
        for v in from_x.chain(from_y) {
            self.mark[v] = cover;
            s.push(v);
        }
        s.sort_unstable();
        let a2: Vec<usize> = a.into_iter().filter(|&v| self.mark[v] != cover).collect();
        let b2: Vec<usize> = b.into_iter().filter(|&v| self.mark[v] != cover).collect();
        (a2, b2, s)
    }

    /// Connected components of the set stamped `member`, each in BFS
    /// order.
    fn components(&mut self, verts: &[usize], member: usize) -> Vec<Vec<usize>> {
        let seen = self.next_stamp();
        let mut comps = Vec::new();
        for &start in verts {
            if self.seen[start] == seen {
                continue;
            }
            self.seen[start] = seen;
            // The component doubles as its BFS queue.
            let mut comp = vec![start];
            let mut head = 0;
            while head < comp.len() {
                let v = comp[head];
                head += 1;
                for &u in self.graph.col_rows(v) {
                    if self.mark[u] == member && self.seen[u] != seen {
                        self.seen[u] = seen;
                        comp.push(u);
                    }
                }
            }
            comps.push(comp);
        }
        comps
    }
}

/// Multilevel edge bisection (the quality core of the Scotch stand-in):
/// heavy-edge-matching coarsening, a BFS initial partition on the coarsest
/// graph, and Fiduccia–Mattheyses refinement at every level on the way
/// back up. Single vertex moves at coarse levels move whole clusters of
/// the fine graph, which is what lets the cut migrate to a narrow waist
/// (e.g. the sparse couplings between subcircuits of a netlist) that
/// purely local refinement cannot reach.
pub(crate) mod multilevel {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The least share of the total vertex weight each side keeps.
    /// Chosen by measurement over `mesh2d(40..=160)` and the
    /// benchmark's circuits: 0.40 and 0.42 cost 3.5 % more Cholesky flops
    /// on the meshes (geometric mean), and 0.47 and 0.48 made a circuit's
    /// two-thread fill worse than the greedy pass did.
    pub(crate) const BALANCE: f64 = 0.45;

    /// Bisects a weighted undirected local graph (`adj[v]` lists
    /// `(neighbour, edge weight)`, both directions present). Returns side
    /// flags: `false` = A, `true` = B.
    pub fn bisect(adj: &[Vec<(usize, u64)>], vw: &[u64]) -> Vec<bool> {
        let n = adj.len();
        if n <= 1 {
            return vec![false; n];
        }
        if n <= 96 {
            let mut side = initial_partition(adj, vw);
            fm_refine(adj, vw, &mut side, 8);
            return side;
        }
        let (cadj, cvw, map) = coarsen(adj, vw);
        if cadj.len() * 10 > n * 9 {
            // matching stalled (near-clique): stop coarsening
            let mut side = initial_partition(adj, vw);
            fm_refine(adj, vw, &mut side, 8);
            return side;
        }
        let cside = bisect(&cadj, &cvw);
        let mut side: Vec<bool> = (0..n).map(|v| cside[map[v]]).collect();
        fm_refine(adj, vw, &mut side, 4);
        side
    }

    /// One level of heavy-edge-matching coarsening. Returns the coarse
    /// graph, coarse vertex weights and the fine→coarse map.
    fn coarsen(
        adj: &[Vec<(usize, u64)>],
        vw: &[u64],
    ) -> (Vec<Vec<(usize, u64)>>, Vec<u64>, Vec<usize>) {
        let n = adj.len();
        let mut mate = vec![usize::MAX; n];
        // visit lighter vertices first so clusters stay balanced
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&v| (vw[v], v));
        for &v in &order {
            if mate[v] != usize::MAX {
                continue;
            }
            let mut best: Option<(u64, usize)> = None;
            for &(u, w) in &adj[v] {
                if u != v && mate[u] == usize::MAX {
                    let cand = (w, usize::MAX - u); // heaviest edge, then smallest u
                    if best.map_or(true, |b| cand > b) {
                        best = Some(cand);
                    }
                }
            }
            match best {
                Some((_, enc)) => {
                    let u = usize::MAX - enc;
                    mate[v] = u;
                    mate[u] = v;
                }
                None => mate[v] = v, // singleton
            }
        }
        // coarse ids, in the order of each cluster's first vertex
        let mut map = vec![usize::MAX; n];
        let mut first = Vec::new();
        for v in 0..n {
            if map[v] != usize::MAX {
                continue;
            }
            map[v] = first.len();
            map[mate[v]] = first.len();
            first.push(v);
        }
        let nc = first.len();
        let mut cvw = vec![0u64; nc];
        for v in 0..n {
            cvw[map[v]] += vw[v];
        }
        // coarse adjacency, parallel edges merged in a dense accumulator
        // (edge weights are ≥ 1, so a zero slot is an untouched one)
        let mut acc = vec![0u64; nc];
        let mut touched: Vec<usize> = Vec::new();
        let mut cadj: Vec<Vec<(usize, u64)>> = Vec::with_capacity(nc);
        for (c, &v) in first.iter().enumerate() {
            let pair = [v, mate[v]];
            let members = if mate[v] == v { &pair[..1] } else { &pair[..] };
            for &x in members {
                for &(u, w) in &adj[x] {
                    let cu = map[u];
                    if cu != c {
                        if acc[cu] == 0 {
                            touched.push(cu);
                        }
                        acc[cu] += w;
                    }
                }
            }
            touched.sort_unstable();
            cadj.push(
                touched
                    .iter()
                    .map(|&cu| (cu, std::mem::take(&mut acc[cu])))
                    .collect(),
            );
            touched.clear();
        }
        (cadj, cvw, map)
    }

    /// Initial partition: BFS from a pseudo-peripheral vertex, gathering
    /// vertices until half the total weight is reached.
    fn initial_partition(adj: &[Vec<(usize, u64)>], vw: &[u64]) -> Vec<bool> {
        let n = adj.len();
        let total: u64 = vw.iter().sum();
        // double-sweep pseudo-peripheral
        let mut start = 0usize;
        for _ in 0..2 {
            let order = bfs_order(adj, start);
            start = *order.last().unwrap();
        }
        let order = bfs_order(adj, start);
        let mut side = vec![true; n];
        let mut acc = 0u64;
        for &v in &order {
            if acc * 2 >= total {
                break;
            }
            side[v] = false;
            acc += vw[v];
        }
        side
    }

    fn bfs_order(adj: &[Vec<(usize, u64)>], start: usize) -> Vec<usize> {
        let n = adj.len();
        let mut seen = vec![false; n];
        // The order doubles as the BFS queue.
        let mut order = Vec::with_capacity(n);
        order.push(start);
        seen[start] = true;
        let mut head = 0;
        while head < order.len() {
            let v = order[head];
            head += 1;
            for &(u, _) in &adj[v] {
                if !seen[u] {
                    seen[u] = true;
                    order.push(u);
                }
            }
        }
        // cover disconnected remainders (callers pass connected graphs,
        // but coarse graphs of near-disconnected inputs can fragment)
        for v in 0..n {
            if !seen[v] {
                order.push(v);
            }
        }
        order
    }

    /// Fiduccia–Mattheyses refinement with hill-climbing and rollback.
    /// A pass moves each boundary vertex at most once, always the
    /// highest-gain one (ties to the heavier side, then to the lowest
    /// index) whose move keeps both sides at [`BALANCE`] of the weight
    /// or narrows the imbalance; negative gains are taken. The pass is
    /// then rolled back to its best prefix: the smallest cut, then the
    /// smallest imbalance, then the fewest moves. Passes repeat until one
    /// improves nothing.
    fn fm_refine(adj: &[Vec<(usize, u64)>], vw: &[u64], side: &mut [bool], passes: usize) {
        let n = adj.len();
        let total: u64 = vw.iter().sum();
        let min_side = (total as f64 * BALANCE) as u64;
        let mut weight = [0u64; 2];
        for v in 0..n {
            weight[side[v] as usize] += vw[v];
        }
        // gain[v]: how much the cut shrinks if v changes side
        let mut gain: Vec<i64> = (0..n)
            .map(|v| {
                let signed = |&(u, w): &(usize, u64)| {
                    if side[u] != side[v] {
                        w as i64
                    } else {
                        -(w as i64)
                    }
                };
                adj[v].iter().map(signed).sum()
            })
            .collect();
        let mut locked = vec![false; n];
        let mut moves: Vec<usize> = Vec::new();
        // per side, the vertices on it by gain, ties to the lowest index
        let mut heaps: [BinaryHeap<(i64, Reverse<usize>)>; 2] = Default::default();
        for _ in 0..passes {
            heaps.iter_mut().for_each(BinaryHeap::clear);
            moves.clear();
            for v in 0..n {
                if adj[v].iter().any(|&(u, _)| side[u] != side[v]) {
                    heaps[side[v] as usize].push((gain[v], Reverse(v)));
                }
            }
            // the cut relative to the pass's start, and the imbalance
            let score = |cut: i64, weight: [u64; 2]| (cut, weight[0].abs_diff(weight[1]));
            let mut cut = 0;
            let mut best = score(cut, weight);
            let mut best_len = 0;
            loop {
                for heap in &mut heaps {
                    // drop the vertices moved this pass and stale gains
                    while let Some(&(g, Reverse(v))) = heap.peek() {
                        if !locked[v] && g == gain[v] {
                            break;
                        }
                        heap.pop();
                    }
                }
                // the higher gain; on a tie the heavier side's
                let pick = match (heaps[0].peek(), heaps[1].peek()) {
                    (None, None) => break,
                    (Some(_), None) => 0,
                    (None, Some(_)) => 1,
                    (Some(a), Some(b)) if a.0 != b.0 => (b.0 > a.0) as usize,
                    (Some(a), Some(b)) if weight[0] == weight[1] => (b.1 > a.1) as usize,
                    _ => (weight[1] > weight[0]) as usize,
                };
                let (g, Reverse(v)) = heaps[pick].pop().expect("picked a non-empty side");
                let from = side[v] as usize;
                let (wf, wt) = (weight[from] - vw[v], weight[1 - from] + vw[v]);
                if wf < min_side && wf.abs_diff(wt) >= weight[0].abs_diff(weight[1]) {
                    continue;
                }
                flip(adj, vw, v, side, &mut gain, &mut weight);
                cut -= g;
                locked[v] = true;
                moves.push(v);
                for &(u, _) in &adj[v] {
                    if !locked[u] {
                        heaps[side[u] as usize].push((gain[u], Reverse(u)));
                    }
                }
                if score(cut, weight) < best {
                    best = score(cut, weight);
                    best_len = moves.len();
                }
            }
            for &v in moves[best_len..].iter().rev() {
                flip(adj, vw, v, side, &mut gain, &mut weight);
            }
            for &v in &moves {
                locked[v] = false;
            }
            if best_len == 0 {
                break;
            }
        }
    }

    /// Moves `v` to the other side, updating the gains and side weights.
    fn flip(
        adj: &[Vec<(usize, u64)>],
        vw: &[u64],
        v: usize,
        side: &mut [bool],
        gain: &mut [i64],
        weight: &mut [u64; 2],
    ) {
        let from = side[v] as usize;
        weight[from] -= vw[v];
        weight[1 - from] += vw[v];
        side[v] = !side[v];
        for &(u, w) in &adj[v] {
            // the edge turned internal for a neighbour v joined, external
            // for one it left
            let w = 2 * w as i64;
            gain[u] += if side[u] == side[v] { -w } else { w };
        }
        gain[v] = -gain[v];
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn path_graph(n: usize) -> (Vec<Vec<(usize, u64)>>, Vec<u64>) {
            let mut adj = vec![Vec::new(); n];
            for v in 0..n - 1 {
                adj[v].push((v + 1, 1));
                adj[v + 1].push((v, 1));
            }
            (adj, vec![1; n])
        }

        #[test]
        fn path_graph_cut_is_one_edge() {
            let (adj, vw) = path_graph(200);
            let side = bisect(&adj, &vw);
            // count cut edges
            let mut cut = 0;
            for v in 0..200 {
                for &(u, _) in &adj[v] {
                    if u > v && side[u] != side[v] {
                        cut += 1;
                    }
                }
            }
            assert_eq!(cut, 1, "a path must split at a single edge");
            let na = side.iter().filter(|&&s| !s).count();
            assert!((60..=140).contains(&na), "balance {na}/200");
        }

        #[test]
        fn two_cliques_with_bridge() {
            // two 30-cliques joined by one edge: the cut must be the bridge
            let n = 60;
            let mut adj = vec![Vec::new(); n];
            for a in 0..30 {
                for b in 0..30 {
                    if a != b {
                        adj[a].push((b, 1));
                        adj[30 + a].push((30 + b, 1));
                    }
                }
            }
            adj[29].push((30, 1));
            adj[30].push((29, 1));
            let side = bisect(&adj, &vec![1; n]);
            let mut cut = 0;
            for v in 0..n {
                for &(u, _) in &adj[v] {
                    if u > v && side[u] != side[v] {
                        cut += 1;
                    }
                }
            }
            assert_eq!(cut, 1, "bridge must be the only cut edge");
        }

        #[test]
        fn coarsening_preserves_total_weight() {
            let (adj, vw) = path_graph(100);
            let (cadj, cvw, map) = coarsen(&adj, &vw);
            assert_eq!(cvw.iter().sum::<u64>(), 100);
            assert!(cadj.len() < 100);
            assert!(map.iter().all(|&c| c < cadj.len()));
        }
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

    fn check_separator_property(a: &CscMat, nd: &NdDecomposition) {
        // For every edge (u,v) of the permuted matrix, the blocks must be
        // ancestor-related: no edge between two blocks where neither is an
        // ancestor of the other.
        let p = Perm::permute_both(&nd.perm, &nd.perm, a);
        let n = p.nrows();
        let mut block_of = vec![0usize; n];
        for (bi, node) in nd.nodes.iter().enumerate() {
            for k in node.range.clone() {
                block_of[k] = bi;
            }
        }
        let ancestor_related = |x: usize, y: usize| -> bool {
            if x == y {
                return true;
            }
            nd.ancestors(x).contains(&y) || nd.ancestors(y).contains(&x)
        };
        for (i, j, _) in p.iter() {
            assert!(
                ancestor_related(block_of[i], block_of[j]),
                "edge between unrelated blocks {} and {}",
                block_of[i],
                block_of[j]
            );
        }
    }

    #[test]
    fn tree_shape_and_ranges() {
        let a = grid2d(8);
        let nd = nested_dissection(&a, 2);
        assert_eq!(nd.p_leaves, 4);
        assert_eq!(nd.nodes.len(), 7);
        assert_eq!(nd.root(), 6);
        // Ranges partition 0..n contiguously in block order.
        let mut cursor = 0;
        for node in &nd.nodes {
            assert_eq!(node.range.start, cursor);
            cursor = node.range.end;
        }
        assert_eq!(cursor, 64);
        // Leaves are nodes 0,1,3,4; separators 2,5,6.
        assert!(nd.nodes[0].is_leaf());
        assert!(nd.nodes[1].is_leaf());
        assert!(!nd.nodes[2].is_leaf());
        assert!(nd.nodes[3].is_leaf());
        assert!(nd.nodes[4].is_leaf());
        assert!(!nd.nodes[5].is_leaf());
        assert!(!nd.nodes[6].is_leaf());
        assert_eq!(nd.nodes[2].children, Some((0, 1)));
        assert_eq!(nd.nodes[5].children, Some((3, 4)));
        assert_eq!(nd.nodes[6].children, Some((2, 5)));
        assert_eq!(nd.nodes[0].parent, Some(2));
        assert_eq!(nd.nodes[2].parent, Some(6));
    }

    #[test]
    fn separator_property_holds_on_grid() {
        for levels in [1usize, 2, 3] {
            let a = grid2d(10);
            let nd = nested_dissection(&a, levels);
            check_separator_property(&a, &nd);
        }
    }

    #[test]
    fn separator_property_holds_on_random_graph() {
        let mut s = 77u64;
        let mut rnd = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as usize
        };
        let n = 60;
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, 1.0);
        }
        for _ in 0..3 * n {
            let (i, j) = (rnd() % n, rnd() % n);
            if i != j {
                t.push(i, j, 1.0);
                t.push(j, i, 1.0);
            }
        }
        let a = t.to_csc();
        let nd = nested_dissection(&a, 2);
        check_separator_property(&a, &nd);
    }

    #[test]
    fn disconnected_graph_gets_empty_separators() {
        // Two decoupled chains.
        let n = 20;
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, 1.0);
        }
        for i in 0..9 {
            t.push(i, i + 1, 1.0);
            t.push(i + 1, i, 1.0);
        }
        for i in 10..19 {
            t.push(i, i + 1, 1.0);
            t.push(i + 1, i, 1.0);
        }
        let a = t.to_csc();
        let nd = nested_dissection(&a, 1);
        check_separator_property(&a, &nd);
        // Root separator should be empty: the graph splits cleanly.
        assert_eq!(nd.nodes[nd.root()].len(), 0);
        // Both leaves have 10 vertices.
        assert_eq!(nd.nodes[0].len(), 10);
        assert_eq!(nd.nodes[1].len(), 10);
    }

    #[test]
    fn grid_separator_is_small() {
        let k = 40;
        let a = grid2d(k);
        let nd = nested_dissection(&a, 1);
        let root = &nd.nodes[nd.root()];
        // The best 40x40 grid separator is one grid line (40 vertices);
        // FM with rollback straightens the cut to within a step or two
        // of it (a positive-gain-only pass left 44).
        assert!(
            root.len() <= k + 2,
            "root separator has {} vertices",
            root.len()
        );
        let balance = nd.nodes[0].len().min(nd.nodes[1].len()) as f64
            / nd.nodes[0].len().max(nd.nodes[1].len()).max(1) as f64;
        assert!(balance > 0.3, "leaves too unbalanced: {balance}");
    }

    #[test]
    fn tiny_graphs() {
        for n in [0usize, 1, 2, 3] {
            let a = CscMat::identity(n);
            let nd = nested_dissection(&a, 1);
            assert_eq!(nd.nodes.len(), 3);
            assert_eq!(nd.perm.len(), n);
            let total: usize = nd.nodes.iter().map(|x| x.len()).sum();
            assert_eq!(total, n);
        }
    }

    #[test]
    fn deeper_than_graph_still_valid() {
        // More levels than vertices: lots of empty blocks, still a valid
        // partition.
        let a = grid2d(2); // n = 4
        let nd = nested_dissection(&a, 3); // 8 leaves
        assert_eq!(nd.nodes.len(), 15);
        let total: usize = nd.nodes.iter().map(|x| x.len()).sum();
        assert_eq!(total, 4);
        check_separator_property(&a, &nd);
    }

    /// A random pattern with an unsymmetric part: a path through `n`
    /// vertices plus about `n` random edges, one in four of them two-way.
    fn random_pattern(n: usize, seed: u64) -> CscMat {
        let mut s = seed;
        let mut rnd = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as usize
        };
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, 1.0);
            if i + 1 < n {
                t.push(i, i + 1, 1.0);
            }
        }
        for e in 0..n {
            let (i, j) = (rnd() % n, rnd() % n);
            if i != j {
                t.push(i, j, 1.0);
                if e % 4 == 0 {
                    t.push(j, i, 1.0);
                }
            }
        }
        t.to_csc()
    }

    /// FNV-1a over a decomposition's permutation and node ranges.
    fn digest(nd: &NdDecomposition) -> u64 {
        let words = nd.perm.as_slice().iter().copied().chain(
            nd.nodes
                .iter()
                .flat_map(|node| [node.range.start, node.range.end]),
        );
        words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The orders `nested_dissection` produces, pinned: a split of the
    /// bisections from the node orders must not move a single index.
    #[test]
    fn orders_are_pinned() {
        let cases = [grid2d(12), random_pattern(90, 5), random_pattern(300, 11)];
        let got: Vec<u64> = cases
            .iter()
            .flat_map(|a| (0..=3).map(|levels| digest(&nested_dissection(a, levels))))
            .collect();
        // Per case, levels 0 to 3, as the one-pass recursion left them.
        let want: [u64; 12] = [
            0xbab1f9f7449e9693,
            0x99fd4c5d6bd89685,
            0x0b03ef340ddd8059,
            0x14d1c082cebc333d,
            0x06696c5ab2ccd4ea,
            0xf0aa69695421df22,
            0x60c8c9f8b080f476,
            0xb1dbe563927014d8,
            0x593c992fa90813c7,
            0x26e1bc5c5c483c73,
            0x7481ae31a9ce9945,
            0x4d0977af3eaf362f,
        ];
        assert_eq!(got, want);
    }

    /// The halo rule: a neighbour outside a node belongs to one of its
    /// ancestors or descendants, and one owned by a later node to an
    /// ancestor — over random patterns, levels and sizes. The node orders
    /// are those of the one-pass `nested_dissection`.
    #[test]
    fn later_neighbours_are_ancestors() {
        for case in 0..40u64 {
            let n = 20 + (case as usize * 37) % 260;
            let a = if case % 5 == 0 {
                grid2d(4 + case as usize % 9)
            } else {
                random_pattern(n, case)
            };
            let levels = 1 + case as usize % 3;
            let d = dissect(&a, levels);
            let is_ancestor = |up: usize, mut v: usize| {
                while let Some(p) = d.nodes[v].parent {
                    if p == up {
                        return true;
                    }
                    v = p;
                }
                false
            };
            for (v, node) in d.nodes().iter().enumerate() {
                for &x in &d.verts[node.range.clone()] {
                    for &u in d.graph.col_rows(x) {
                        let w = d.owner[u];
                        if w > v {
                            assert!(is_ancestor(w, v), "case {case}: {v} meets later {w}");
                        } else if w < v {
                            assert!(is_ancestor(v, w), "case {case}: {v} meets {w}");
                        }
                    }
                }
            }
            let mut perm = vec![0; a.ncols()];
            for (v, out) in d.node_slices(&mut perm).into_iter().enumerate() {
                d.order_node(v, out);
            }
            assert_eq!(d.finish(perm).perm, nested_dissection(&a, levels).perm);
        }
    }

    #[test]
    fn subtree_is_contiguous_prefix() {
        let a = grid2d(8);
        let nd = nested_dissection(&a, 2);
        assert_eq!(nd.subtree(2), vec![0, 1, 2]);
        assert_eq!(nd.subtree(5), vec![3, 4, 5]);
        assert_eq!(nd.subtree(6), vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(nd.tree_level(0), 0);
        assert_eq!(nd.tree_level(2), 1);
        assert_eq!(nd.tree_level(6), 2);
    }
}
