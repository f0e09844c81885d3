//! Factorization statistics reported by `Basker`, and the phases of
//! its analyze.

use std::time::Duration;

/// Metrics of one (re)factorization: what the paper's experiments
/// report (Table I memory, §IV sync overhead, speedups).
#[derive(Debug, Clone, Default)]
pub struct BaskerStats {
    /// `|L+U|` over the factored diagonal blocks only
    /// ([`BaskerNumeric::lu_nnz`](crate::BaskerNumeric::lu_nnz)); the
    /// retained BTF off-diagonals are in
    /// [`total_storage_nnz`](crate::BaskerNumeric::total_storage_nnz).
    pub lu_nnz: usize,
    /// Numeric flops of the factorization kernels.
    pub flops: f64,
    /// Wall-clock seconds of the numeric phase.
    pub numeric_seconds: f64,
    /// Per-thread nanoseconds spent blocked on synchronization: the
    /// caller's time in stage joins (entry 0), after a factor as after a
    /// refactor — the other ranks never wait. One entry per rank of the
    /// team.
    pub sync_wait_ns: Vec<u64>,
    /// Always 0: blocked ranks wait and never run other work. Kept
    /// because the benchmark's `core.columns_assisted` row reads it.
    pub columns_assisted: u64,
    /// Always 0, for the same reason; read by `core.tasks_joined`.
    pub tasks_joined: u64,
    /// Always 0, for the same reason; read by `core.steal_attempts`.
    pub steal_attempts: u64,
    /// Number of BTF blocks.
    pub btf_blocks: usize,
    /// Number of BTF blocks handled by the ND path.
    pub nd_blocks: usize,
    /// ND leaves the fresh factorization factored on the supernodal
    /// kernel — whole, or up to the tail a failed diagonal pivot hands
    /// to partial pivoting — not counting a leaf sent back to
    /// Gilbert–Peierls whole. A refactorization keeps the count.
    pub sn_leaves: usize,
    /// Effective thread count (power of two).
    pub threads: usize,
}

impl BaskerStats {
    /// Synchronization overhead as a fraction of total thread-seconds:
    /// `Σ wait / (threads · numeric_seconds)` — the metric behind the
    /// paper's "11 % → 2.3 % of total time" comparison for `G2_Circuit`.
    pub fn sync_fraction(&self) -> f64 {
        if self.numeric_seconds <= 0.0 || self.threads == 0 {
            return 0.0;
        }
        let total_wait: f64 = self.sync_wait_ns.iter().map(|&w| w as f64 * 1e-9).sum();
        total_wait / (self.threads as f64 * self.numeric_seconds)
    }

    /// Fill density `|L+U| / |A|` (Table I's sorting key).
    pub fn fill_density(&self, nnz_a: usize) -> f64 {
        self.lu_nnz as f64 / nnz_a.max(1) as f64
    }

    /// `(gp, 0, nd)`: the Gilbert–Peierls and ND block counts, around
    /// the always-zero count of whole blocks on the supernodal engine
    /// that the benchmark's `core.hybrid.sn_blocks` row reads.
    pub fn strategy_counts(&self) -> (usize, usize, usize) {
        (self.btf_blocks - self.nd_blocks, 0, self.nd_blocks)
    }
}

/// Where one [`Basker::analyze`](crate::Basker::analyze) spent its wall
/// time, phase by phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AnalyzeProfile {
    /// The MWCM transversal and the BTF, on the caller.
    pub btf: Duration,
    /// Stage 1 on the team: the ND blocks' bisections, and the small
    /// blocks' AMD orders with their flop estimates.
    pub blocks: Duration,
    /// Stages 2 and 3 on the team: the ND nodes' halo-AMD orders, then
    /// the ND leaves' plans.
    pub nodes: Duration,
    /// The value map and the fine-BTF runs, on the caller.
    pub record: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_fraction_math() {
        let s = BaskerStats {
            numeric_seconds: 1.0,
            threads: 4,
            sync_wait_ns: vec![100_000_000; 4], // 0.1 s each
            ..Default::default()
        };
        assert!((s.sync_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn sync_fraction_degenerate() {
        let s = BaskerStats::default();
        assert_eq!(s.sync_fraction(), 0.0);
    }

    #[test]
    fn fill_density() {
        let s = BaskerStats {
            lu_nnz: 50,
            ..Default::default()
        };
        assert_eq!(s.fill_density(100), 0.5);
        assert_eq!(s.fill_density(0), 50.0);
    }
}
