//! Per-BTF-block routing: the plan vocabulary of the block driver and
//! the classifier that writes plans.
//!
//! The paper's three engine families each win on a *shape*, not a
//! matrix: fill-less Gilbert–Peierls on tiny circuit blocks, the
//! supernodal engine's dense panels on fill-heavy blocks, the ND team
//! on large blocks with good separators. But real matrices mix
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
//! factors, and the small blocks the plan leaves on Gilbert–Peierls
//! still factor in parallel on the team (paper Alg. 2), as runs of the
//! stage list.
//!
//! The plan is a value: `analyze` computes it once from the structure,
//! nothing times a block or switches a strategy afterwards, and
//! [`Basker::plan`] zipped with `structure().bounds` is the routing a
//! factorization executed ([`BaskerStats::strategy_counts`](crate::BaskerStats::strategy_counts)
//! its summary).

use crate::{Basker, BaskerNumeric, BaskerOptions};
use basker_snlu::SnluOptions;
use basker_sparse::metrics::BlockMetrics;
use basker_sparse::{CscMat, Result};

/// The numeric strategy one BTF diagonal block is routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockStrategy {
    /// Serial Gilbert–Peierls on the block's range of the permuted
    /// matrix (KLU-style; zero extraction cost, zero fill surprises).
    Gp,
    /// The supernodal engine over the extracted diagonal block (its own
    /// internal ordering + static pivoting; dense rank-k panels).
    Supernodal,
    /// The paper's ND team factorization (only available on
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
    /// (threads, pivot tolerance, BTF/MWCM, `nd_threshold`).
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
    /// separator serializes the root elimination and fills in — the
    /// supernodal engine handles it better).
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

/// Classifies one BTF block.
///
/// `nd_capable` says the symbolic phase laid the block out with nested
/// dissection (so [`BlockStrategy::Nd`] is executable on it) and
/// `separator_fraction` is its root-separator share;
/// `metrics` are the block's pattern metrics (`None` for 1×1 blocks).
pub fn classify_block(
    size: usize,
    metrics: Option<&BlockMetrics>,
    nd_capable: bool,
    separator_fraction: f64,
    threads: usize,
    opts: &HybridOptions,
) -> BlockStrategy {
    if size <= opts.gp_small {
        // Tiny blocks — even fully dense ones — are pinned to GP: the
        // per-block setup of the panel engines costs more than the
        // whole factorization.
        return BlockStrategy::Gp;
    }
    if nd_capable {
        return if threads > 1 && separator_fraction <= opts.max_separator_fraction {
            BlockStrategy::Nd
        } else {
            BlockStrategy::Supernodal
        };
    }
    // Mid-size block without an ND layout: the pattern decides between
    // fill-less elimination and dense panels.
    let (density, snfrac) = metrics.map_or((0.0, 0.0), |m| (m.density, m.supernodal_fraction));
    if density >= opts.dense_threshold || snfrac >= opts.supernodal_min {
        BlockStrategy::Supernodal
    } else {
        BlockStrategy::Gp
    }
}

/// The driver has one numeric type under either plan.
pub type HybridNumeric = BaskerNumeric;

/// A [`Basker`] driver handle built with a classified plan. Dereferences
/// to the driver for [`factor`](Basker::factor), [`plan`](Basker::plan),
/// `threads` and `structure`; cheap to clone.
#[derive(Clone)]
pub struct HybridLu(Basker);

impl std::ops::Deref for HybridLu {
    type Target = Basker;

    fn deref(&self) -> &Basker {
        &self.0
    }
}

impl HybridLu {
    /// Analyzes `a`: BTF + per-block layout exactly as
    /// [`Basker::analyze`] (the plan never changes the global
    /// permutations), then classifies every diagonal block.
    pub fn analyze(a: &CscMat, opts: &HybridOptions) -> Result<HybridLu> {
        Basker::analyze_with(a, &opts.base, Some(opts)).map(HybridLu)
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
        assert_eq!(num.symbolic().plan().len(), num.stats.btf_blocks);
    }

    #[test]
    fn classifier_boundaries() {
        let o = HybridOptions::default();
        // Tiny and dense: GP.
        let dense = BlockMetrics {
            size: 8,
            nnz: 64,
            density: 1.0,
            avg_col_nnz: 8.0,
            supernodal_fraction: 1.0,
        };
        assert_eq!(
            classify_block(8, Some(&dense), false, 0.0, 4, &o),
            BlockStrategy::Gp
        );
        // Mid-size, supernode-rich: supernodal.
        let rich = BlockMetrics {
            size: 100,
            nnz: 2500,
            density: 0.25,
            avg_col_nnz: 25.0,
            supernodal_fraction: 0.9,
        };
        let p = classify_block(100, Some(&rich), false, 0.0, 2, &o);
        assert_eq!(p, BlockStrategy::Supernodal);
        // Mid-size, sparse chain-like: GP.
        let sparse = BlockMetrics {
            size: 100,
            nnz: 300,
            density: 0.03,
            avg_col_nnz: 3.0,
            supernodal_fraction: 0.1,
        };
        let p = classify_block(100, Some(&sparse), false, 0.0, 2, &o);
        assert_eq!(p, BlockStrategy::Gp);
        // Large ND-laid-out block with a thin separator: ND.
        let p = classify_block(256, Some(&sparse), true, 0.08, 2, &o);
        assert_eq!(p, BlockStrategy::Nd);
        // Fat separator: supernodal wins.
        let p = classify_block(256, Some(&sparse), true, 0.6, 2, &o);
        assert_eq!(p, BlockStrategy::Supernodal);
        // Serial: never ND.
        let p = classify_block(256, Some(&sparse), true, 0.08, 1, &o);
        assert_eq!(p, BlockStrategy::Supernodal);
    }

    /// Under the default thresholds and under thresholds that send the
    /// grid block to the supernodal engine instead of the team.
    #[test]
    fn refactor_matches_factor() {
        let a = heterogeneous(10, 24);
        let default = hybrid_opts(2, 64, 16);
        let grid_supernodal = HybridOptions {
            max_separator_fraction: 0.0,
            ..default.clone()
        };
        let mut grid_plans = Vec::new();
        for o in [default, grid_supernodal] {
            let sym = HybridLu::analyze(&a, &o).unwrap();
            assert_refactor_matches_factor(&sym, &a);
            let bounds = &sym.structure().bounds;
            let grid = (0..sym.plan().len())
                .max_by_key(|&b| bounds[b + 1] - bounds[b])
                .unwrap();
            grid_plans.push(sym.plan()[grid]);
        }
        assert_eq!(grid_plans, [BlockStrategy::Nd, BlockStrategy::Supernodal]);
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
        let o = HybridOptions {
            max_separator_fraction: 0.0,
            ..hybrid_opts(2, 64, 64)
        };
        let num = HybridLu::analyze(&a, &o).unwrap().factor(&a).unwrap();
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
