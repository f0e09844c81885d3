//! Per-BTF-block routing: the plan vocabulary of the block driver and
//! the classifier that writes plans.
//!
//! The paper's three engine families each win on a *shape*, not a
//! matrix: fill-less Gilbert–Peierls on tiny circuit blocks, the
//! supernodal engine's dense panels on fill-heavy blocks, the pipelined
//! ND team on large blocks with good separators. But real matrices mix
//! shapes — a power-grid Jacobian is thousands of tiny BTF blocks
//! *plus* one large irreducible mesh-like core — and a single global
//! pick loses on one half of every such matrix.
//!
//! The driver behind [`Basker`] therefore executes one
//! [`BlockStrategy`] per BTF diagonal block. [`Basker::analyze`] fills
//! the plan in from the layout alone (the paper's plan);
//! [`HybridLu::analyze`] classifies **each block by its own structure**
//! ([`classify_block`]):
//!
//! ```text
//!               ┌── size ≤ gp_small ───────────────────────► Gp
//!   BTF block ──┤
//!               ├── ND-laid-out (large) ──┬─ p>1 and good ─► Nd
//!               │                         │  separator
//!               │                         └─ otherwise ────► Supernodal
//!               │
//!               └── mid-size ──┬─ dense or supernode-rich ─► Supernodal
//!                              └─ otherwise ───────────────► Gp
//! ```
//!
//! Nothing else differs: the permutations, the factor/refactor loops,
//! the off-diagonal BTF couplings and the block back-substitution are
//! the driver's, whatever mix of strategies produced the diagonal
//! factors, and uncontested small blocks still factor in parallel on
//! the team (paper Alg. 2).
//!
//! The classifier also records a **runner-up strategy** per contested
//! block ([`HybridLu::probe_plan`]), and the whole plan is switchable
//! at runtime ([`HybridLu::set_plan`]) — the hooks the session layer's
//! feedback-driven `Engine::Auto` uses to *measure* candidate routings
//! on the first factors of a stream and settle on the per-block winner.
//! Only contested blocks are timed; they are all the learner compares.

use crate::structure::BlockKind;
use crate::{Basker, BaskerNumeric, BaskerOptions};
use basker_snlu::SnluOptions;
use basker_sparse::metrics::BlockMetrics;
use basker_sparse::{CscMat, Result};
use std::sync::Arc;

/// The numeric strategy one BTF diagonal block is routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockStrategy {
    /// Serial Gilbert–Peierls on the block's range of the permuted
    /// matrix (KLU-style; zero extraction cost, zero fill surprises).
    Gp,
    /// The supernodal engine over the extracted diagonal block (its own
    /// internal ordering + static pivoting; dense rank-k panels).
    Supernodal,
    /// The paper's pipelined-ND team factorization (only available on
    /// blocks the symbolic phase laid out with nested dissection).
    Nd,
}

impl std::fmt::Display for BlockStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockStrategy::Gp => write!(f, "gp"),
            BlockStrategy::Supernodal => write!(f, "snlu"),
            BlockStrategy::Nd => write!(f, "nd"),
        }
    }
}

/// Tuning options of the hybrid engine: Basker's structural knobs plus
/// the classifier thresholds.
#[derive(Debug, Clone)]
pub struct HybridOptions {
    /// The structural/parallel knobs shared with the Basker engine
    /// (threads, pivot tolerance, BTF/MWCM, `nd_threshold`, sync mode).
    pub base: BaskerOptions,
    /// Blocks up to this size always route to [`BlockStrategy::Gp`] —
    /// below it even a fully dense block factors faster serially than
    /// any panel machinery can set up.
    pub gp_small: usize,
    /// Mid-size blocks at least this dense route to
    /// [`BlockStrategy::Supernodal`].
    pub dense_threshold: f64,
    /// Mid-size blocks whose adjacent-column pattern-overlap fraction
    /// ([`BlockMetrics::supernodal_fraction`]) reaches this route to
    /// [`BlockStrategy::Supernodal`].
    pub supernodal_min: f64,
    /// ND-laid-out blocks keep [`BlockStrategy::Nd`] only while the
    /// root separator covers at most this fraction of the block (a fat
    /// separator serializes the pipeline and fills in — the supernodal
    /// engine handles it better).
    pub max_separator_fraction: f64,
    /// Options for per-block supernodal factorizations.
    pub snlu: SnluOptions,
}

impl Default for HybridOptions {
    fn default() -> Self {
        HybridOptions {
            base: BaskerOptions::default(),
            gp_small: 64,
            dense_threshold: 0.15,
            supernodal_min: 0.5,
            max_separator_fraction: 0.25,
            snlu: SnluOptions::default(),
        }
    }
}

/// Classifies one BTF block: `(primary, runner_up)`.
///
/// `nd_capable` says the symbolic phase laid the block out with nested
/// dissection (so [`BlockStrategy::Nd`] is executable on it) and
/// `separator_fraction` is its root-separator share;
/// `metrics` are the block's pattern metrics (`None` for 1×1 blocks).
/// The runner-up is `None` when the primary is beyond doubt (tiny
/// blocks); everywhere else it names the strategy a measuring session
/// should try against the primary.
pub fn classify_block(
    size: usize,
    metrics: Option<&BlockMetrics>,
    nd_capable: bool,
    separator_fraction: f64,
    threads: usize,
    opts: &HybridOptions,
) -> (BlockStrategy, Option<BlockStrategy>) {
    if size <= opts.gp_small {
        // Tiny blocks — even fully dense ones — are pinned to GP: the
        // per-block setup of the panel engines costs more than the
        // whole factorization.
        return (BlockStrategy::Gp, None);
    }
    if nd_capable {
        if threads > 1 && separator_fraction <= opts.max_separator_fraction {
            return (BlockStrategy::Nd, Some(BlockStrategy::Supernodal));
        }
        let alt = if threads > 1 {
            BlockStrategy::Nd
        } else {
            BlockStrategy::Gp
        };
        return (BlockStrategy::Supernodal, Some(alt));
    }
    // Mid-size block without an ND layout: the pattern decides between
    // fill-less elimination and dense panels.
    let (density, snfrac) = metrics.map_or((0.0, 0.0), |m| (m.density, m.supernodal_fraction));
    if density >= opts.dense_threshold || snfrac >= opts.supernodal_min {
        (BlockStrategy::Supernodal, Some(BlockStrategy::Gp))
    } else {
        (BlockStrategy::Gp, Some(BlockStrategy::Supernodal))
    }
}

/// One row of the per-block routing report: which strategy factored the
/// block and how long it took — the evidence stream the learned
/// `Engine::Auto` routing builds on.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockRoute {
    /// BTF block index.
    pub block: usize,
    /// Block dimension.
    pub rows: usize,
    /// The strategy that factored it.
    pub strategy: BlockStrategy,
    /// Wall-clock seconds of this block's last (re)factorization when
    /// the block is contested; `0.0` where the classifier left no
    /// runner-up to compare against.
    pub seconds: f64,
}

/// The driver has one numeric type under either plan.
pub type HybridNumeric = BaskerNumeric;

/// A [`Basker`] driver handle with its plan controls exposed:
/// [`analyze`](Self::analyze) builds one with a classified plan, and
/// `From<Basker>` opens the controls of a paper-plan handle (on which
/// nothing is contested). Dereferences to the driver for
/// [`factor`](Basker::factor), `threads` and `structure`; cheap to
/// clone, and clones share one active plan.
#[derive(Clone)]
pub struct HybridLu(Basker);

impl From<Basker> for HybridLu {
    fn from(driver: Basker) -> HybridLu {
        HybridLu(driver)
    }
}

impl std::ops::Deref for HybridLu {
    type Target = Basker;

    fn deref(&self) -> &Basker {
        &self.0
    }
}

impl HybridLu {
    /// Analyzes `a`: BTF + per-block layout exactly as
    /// [`Basker::analyze`] (so re-routing never changes the global
    /// permutations), then classifies every diagonal block.
    pub fn analyze(a: &CscMat, opts: &HybridOptions) -> Result<HybridLu> {
        Basker::analyze_with(a, &opts.base, Some(opts)).map(HybridLu)
    }

    /// The plan every fresh handle starts from: the classifier's
    /// primary routing, or the paper's plan.
    pub fn primary_plan(&self) -> &[BlockStrategy] {
        &self.0.inner.primary
    }

    /// The classifier's runner-up strategy per block (`None` where the
    /// primary is beyond doubt).
    pub fn alternatives(&self) -> &[Option<BlockStrategy>] {
        &self.0.inner.alternative
    }

    /// A snapshot of the active routing plan.
    pub fn plan(&self) -> Vec<BlockStrategy> {
        self.0
            .inner
            .plan
            .lock()
            .expect("plan lock poisoned")
            .to_vec()
    }

    /// Candidate plan `k` for a measuring session: `0` is the primary,
    /// `1` flips every contested block to its runner-up. `None` once
    /// the candidates are exhausted (and for `k = 1` when no block is
    /// contested — nothing to measure).
    pub fn probe_plan(&self, k: usize) -> Option<Vec<BlockStrategy>> {
        let inner = &self.0.inner;
        match k {
            0 => Some(inner.primary.clone()),
            1 if inner.alternative.iter().any(|a| a.is_some()) => Some(
                inner
                    .primary
                    .iter()
                    .zip(&inner.alternative)
                    .map(|(&p, alt)| alt.unwrap_or(p))
                    .collect(),
            ),
            _ => None,
        }
    }

    /// Installs a routing plan; subsequent [`factor`](Basker::factor)
    /// calls execute it. Returns `false` (and installs nothing) if the
    /// plan is malformed: wrong length, [`BlockStrategy::Nd`] on a
    /// block the symbolic phase did not lay out for ND, or anything but
    /// [`BlockStrategy::Gp`] on a block of the fine-BTF set (small,
    /// uncontested — its place in the team's partition is fixed at
    /// analyze time).
    pub fn set_plan(&self, plan: &[BlockStrategy]) -> bool {
        let inner = &self.0.inner;
        let st = &inner.structure;
        if plan.len() != st.nblocks() {
            return false;
        }
        for (b, &s) in plan.iter().enumerate() {
            let nd_capable = matches!(st.kinds[b], BlockKind::NdBig(_));
            if (s == BlockStrategy::Nd && !nd_capable)
                || (s != BlockStrategy::Gp && inner.on_team(b))
            {
                return false;
            }
        }
        *inner.plan.lock().expect("plan lock poisoned") = Arc::new(plan.to_vec());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testmat::*;

    fn hybrid_opts(threads: usize, nd_threshold: usize, gp_small: usize) -> HybridOptions {
        HybridOptions {
            base: opts(threads, nd_threshold),
            gp_small,
            ..HybridOptions::default()
        }
    }

    fn check(a: &CscMat, o: &HybridOptions) -> HybridNumeric {
        let num = HybridLu::analyze(a, o).unwrap().factor(a).unwrap();
        check_solve(&num, a, 1e-8);
        num
    }

    #[test]
    fn mixed_plan_on_heterogeneous_matrix() {
        let a = heterogeneous(12, 40); // 144-row grid + 40 tiny blocks
        let num = check(&a, &hybrid_opts(2, 64, 32));
        let (gp, _sn, nd) = num.stats.strategy_counts();
        assert!(gp > 0, "tiny blocks must route to GP");
        assert!(nd > 0, "the grid block must route to ND");
        assert!(num.stats.distinct_strategies() >= 2, "plan must be mixed");
        assert_eq!(num.stats.routes.len(), num.stats.btf_blocks);
    }

    #[test]
    fn classifier_boundaries() {
        let o = HybridOptions::default();
        // Tiny and dense: GP, uncontested.
        let dense = BlockMetrics {
            size: 8,
            nnz: 64,
            density: 1.0,
            avg_col_nnz: 8.0,
            supernodal_fraction: 1.0,
        };
        assert_eq!(
            classify_block(8, Some(&dense), false, 0.0, 4, &o),
            (BlockStrategy::Gp, None)
        );
        // Mid-size, supernode-rich: supernodal.
        let rich = BlockMetrics {
            size: 100,
            nnz: 2500,
            density: 0.25,
            avg_col_nnz: 25.0,
            supernodal_fraction: 0.9,
        };
        let (p, alt) = classify_block(100, Some(&rich), false, 0.0, 2, &o);
        assert_eq!(p, BlockStrategy::Supernodal);
        assert_eq!(alt, Some(BlockStrategy::Gp));
        // Mid-size, sparse chain-like: GP with a supernodal runner-up.
        let sparse = BlockMetrics {
            size: 100,
            nnz: 300,
            density: 0.03,
            avg_col_nnz: 3.0,
            supernodal_fraction: 0.1,
        };
        let (p, alt) = classify_block(100, Some(&sparse), false, 0.0, 2, &o);
        assert_eq!(p, BlockStrategy::Gp);
        assert_eq!(alt, Some(BlockStrategy::Supernodal));
        // Large ND-laid-out block with a thin separator: ND.
        let (p, alt) = classify_block(256, Some(&sparse), true, 0.08, 2, &o);
        assert_eq!(p, BlockStrategy::Nd);
        assert_eq!(alt, Some(BlockStrategy::Supernodal));
        // Fat separator: supernodal wins, ND stays the runner-up.
        let (p, alt) = classify_block(256, Some(&sparse), true, 0.6, 2, &o);
        assert_eq!(p, BlockStrategy::Supernodal);
        assert_eq!(alt, Some(BlockStrategy::Nd));
        // Serial: ND never primary.
        let (p, _) = classify_block(256, Some(&sparse), true, 0.08, 1, &o);
        assert_eq!(p, BlockStrategy::Supernodal);
    }

    #[test]
    fn plan_switching_and_probe_plans() {
        let a = heterogeneous(12, 40);
        let sym = HybridLu::analyze(&a, &hybrid_opts(2, 64, 32)).unwrap();
        let p0 = sym.probe_plan(0).unwrap();
        assert_eq!(p0, sym.primary_plan());
        let p1 = sym.probe_plan(1).unwrap();
        assert_ne!(p0, p1, "the grid block is contested");
        assert!(sym.probe_plan(2).is_none());

        // Factor under both plans; both must solve correctly.
        for plan in [&p0, &p1] {
            assert!(sym.set_plan(plan));
            let num = sym.factor(&a).unwrap();
            check_solve(&num, &a, 1e-8);
            let routed: Vec<_> = num.stats.routes.iter().map(|r| r.strategy).collect();
            assert_eq!(routed, *plan);
        }

        // Malformed plans are rejected: wrong length, ND on a block not
        // laid out for it, a fine-BTF block taken off Gilbert–Peierls.
        assert!(!sym.set_plan(&p0[1..]));
        let small_b = (0..sym.structure().nblocks())
            .find(|&b| matches!(sym.structure().kinds[b], BlockKind::Small))
            .unwrap();
        for s in [BlockStrategy::Nd, BlockStrategy::Supernodal] {
            let mut bad = p0.clone();
            bad[small_b] = s;
            assert!(!sym.set_plan(&bad));
        }
        assert_eq!(sym.plan(), p1, "a rejected plan installs nothing");
    }

    /// Under every candidate plan, not just the primary.
    #[test]
    fn refactor_matches_factor() {
        let a = heterogeneous(10, 24);
        let sym = HybridLu::analyze(&a, &hybrid_opts(2, 64, 16)).unwrap();
        let mut k = 0;
        while let Some(plan) = sym.probe_plan(k) {
            assert!(sym.set_plan(&plan));
            assert_refactor_matches_factor(&sym, &a);
            k += 1;
        }
        assert_eq!(k, 2);
    }

    #[test]
    fn pure_mesh_still_works() {
        // One irreducible block: the hybrid plan has a single entry.
        let a = grid2d_unsym(9);
        let num = check(&a, &hybrid_opts(2, 32, 64));
        assert_eq!(num.stats.btf_blocks, 1);
        assert!(num.stats.distinct_strategies() == 1);
    }

    /// The quality folds see supernodal blocks like any other.
    #[test]
    fn quality_metrics_populated() {
        let a = heterogeneous(12, 40);
        let sym = HybridLu::analyze(&a, &hybrid_opts(2, 64, 64)).unwrap();
        assert!(sym.set_plan(&sym.probe_plan(1).unwrap()));
        let num = sym.factor(&a).unwrap();
        assert_eq!(
            num.stats.strategy_counts().1,
            1,
            "the grid block went supernodal"
        );
        let (lo, hi) = num.pivot_range();
        assert!(lo > 0.0 && lo <= hi);
        assert!(num.lu_nnz() > 0);
        assert!(num.flops() > 0.0);
        assert_eq!(
            num.perturbed_pivots(),
            0,
            "dominant matrix: nothing perturbed"
        );
    }
}
