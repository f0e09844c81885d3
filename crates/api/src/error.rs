//! The unified error type of the solver API.
//!
//! Every engine reports failures through [`SolverError`], with singular
//! pivots translated out of engine-local coordinates into **global**
//! context: the column of the *original* matrix that failed, together
//! with the BTF block it lives in and the permuted position the engine
//! saw. A circuit simulator can point straight at the offending device
//! stamp instead of reverse-engineering an engine's internal ordering.

use crate::config::Engine;
use basker_sparse::{CscMat, SparseError};

/// Unified error for analyze / factor / refactor / solve across engines.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// A numerically singular pivot, located in global coordinates.
    SingularPivot {
        /// The engine that hit the pivot.
        engine: Engine,
        /// Column index **in the original matrix** whose pivot collapsed.
        global_column: usize,
        /// The same column in the engine's permuted ordering.
        permuted_column: usize,
        /// The BTF diagonal block containing the pivot (0 when the engine
        /// runs without BTF).
        btf_block: usize,
    },
    /// The matrix is structurally singular (no full transversal).
    StructurallySingular {
        /// The engine whose analysis detected it.
        engine: Engine,
        /// Structural rank found (size of the maximum matching).
        structural_rank: usize,
        /// Matrix dimension.
        dimension: usize,
    },
    /// A configuration problem (bad engine/threads combination, …).
    Config(String),
    /// The serving layer was shut down: the step was drained from the
    /// queue (or rejected at submission) without running. The work never
    /// started, so resubmitting it against a live service is safe.
    ServiceShutdown,
    /// Any other failure of the underlying sparse kernels.
    Sparse(SparseError),
}

impl SolverError {
    /// The global (original-matrix) column of a singular pivot, if this
    /// error is one.
    pub fn singular_column(&self) -> Option<usize> {
        match self {
            SolverError::SingularPivot { global_column, .. } => Some(*global_column),
            _ => None,
        }
    }

    /// True when a value-only [`refactor`](crate::LuNumeric::refactor)
    /// failed in a way that a fresh pivoting
    /// [`factor`](crate::SparseLuSolver::factor) may repair.
    pub fn is_pivot_failure(&self) -> bool {
        matches!(self, SolverError::SingularPivot { .. })
    }
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::SingularPivot {
                engine,
                global_column,
                permuted_column,
                btf_block,
            } => write!(
                f,
                "{engine} found a singular pivot at global column {global_column} \
                 (BTF block {btf_block}, permuted column {permuted_column})"
            ),
            SolverError::StructurallySingular {
                engine,
                structural_rank,
                dimension,
            } => write!(
                f,
                "{engine} analysis: matrix is structurally singular \
                 (structural rank {structural_rank} of {dimension})"
            ),
            SolverError::Config(msg) => write!(f, "solver configuration error: {msg}"),
            SolverError::ServiceShutdown => write!(
                f,
                "solver service is shut down: the step was drained without running"
            ),
            SolverError::Sparse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SolverError {}

impl From<SparseError> for SolverError {
    fn from(e: SparseError) -> Self {
        SolverError::Sparse(e)
    }
}

/// Translates an engine-level error from factoring or refactoring `a`
/// into the unified type. A pivot failure of a matrix that holds a NaN
/// or an infinite value names the first such entry instead: that value
/// is the cause, wherever the elimination happened to trip over it.
/// Otherwise a pivot failure is resolved to global coordinates via the
/// engine's column permutation (`col_perm[permuted] = original`) and
/// BTF `bounds`. Only the error path scans `a`.
pub(crate) fn map_engine_error(
    engine: Engine,
    col_perm: &[usize],
    bounds: &[usize],
    a: &CscMat,
    e: SparseError,
) -> SolverError {
    match e {
        SparseError::ZeroPivot { column } => {
            if let Some((row, column)) = a.first_non_finite() {
                return SolverError::Sparse(SparseError::NonFinite { row, column });
            }
            let global_column = col_perm.get(column).copied().unwrap_or(column);
            // `bounds` partitions 0..n; the block of `column` is the last
            // boundary at or below it.
            let btf_block = bounds.partition_point(|&b| b <= column).saturating_sub(1);
            SolverError::SingularPivot {
                engine,
                global_column,
                permuted_column: column,
                btf_block,
            }
        }
        other => SolverError::Sparse(other),
    }
}

/// Translates an analysis-phase error (pre-permutation, so pivot context
/// does not apply) into the unified type.
pub(crate) fn map_analyze_error(engine: Engine, dimension: usize, e: SparseError) -> SolverError {
    match e {
        SparseError::StructurallySingular { rank } => SolverError::StructurallySingular {
            engine,
            structural_rank: rank,
            dimension,
        },
        other => SolverError::Sparse(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_pivot_maps_to_global_context() {
        // permuted col 3 came from original col 7; blocks [0,2,5).
        let e = map_engine_error(
            Engine::Klu,
            &[4, 5, 6, 7, 8],
            &[0, 2, 5],
            &CscMat::identity(5),
            SparseError::ZeroPivot { column: 3 },
        );
        assert_eq!(
            e,
            SolverError::SingularPivot {
                engine: Engine::Klu,
                global_column: 7,
                permuted_column: 3,
                btf_block: 1,
            }
        );
        assert_eq!(e.singular_column(), Some(7));
        assert!(e.is_pivot_failure());
        let msg = e.to_string();
        assert!(
            msg.contains("global column 7") && msg.contains("BTF block 1"),
            "{msg}"
        );
    }

    #[test]
    fn other_errors_pass_through() {
        let e = map_engine_error(
            Engine::Basker,
            &[0, 1],
            &[0, 2],
            &CscMat::identity(2),
            SparseError::InvalidStructure("x".into()),
        );
        assert!(matches!(e, SolverError::Sparse(_)));
        assert!(!e.is_pivot_failure());
    }

    #[test]
    fn a_pivot_failure_on_a_non_finite_matrix_names_the_entry() {
        let mut a = CscMat::identity(4);
        a.values_mut()[3] = f64::INFINITY;
        a.values_mut()[2] = f64::NAN;
        let e = map_engine_error(
            Engine::Basker,
            &[0, 1, 2, 3],
            &[0, 4],
            &a,
            SparseError::ZeroPivot { column: 1 },
        );
        assert_eq!(
            e,
            SolverError::Sparse(SparseError::NonFinite { row: 2, column: 2 })
        );
        assert!(!e.is_pivot_failure());
        assert!(e.to_string().contains("(2, 2)"), "{e}");
    }

    #[test]
    fn structural_singularity_carries_rank() {
        let e = map_analyze_error(
            Engine::Snlu,
            10,
            SparseError::StructurallySingular { rank: 8 },
        );
        assert_eq!(
            e,
            SolverError::StructurallySingular {
                engine: Engine::Snlu,
                structural_rank: 8,
                dimension: 10,
            }
        );
    }
}
