//! Sparse-matrix substrate for the Basker reproduction.
//!
//! This crate provides the storage formats and kernels every other crate in
//! the workspace builds on:
//!
//! * [`CscMat`] — compressed sparse column storage, the layout Basker's 2-D
//!   blocks use (paper §IV, "Data Layout").
//! * [`TripletMat`] — coordinate-format builder with duplicate summing.
//! * [`Perm`] — permutations with forward and inverse views, composition and
//!   application to matrices and vectors.
//! * Block extraction ([`blocks`]), sparse matrix–vector products
//!   ([`spmv`]), sparse triangular solves ([`trisolve`]), Matrix Market I/O
//!   ([`io`]), norm/residual utilities ([`util`]) and the shared
//!   pattern hash ([`metrics`]).
//!
//! All matrices hold `f64` values and use `usize` indices. Row indices
//! within each column are kept **sorted and unique** by every constructor;
//! algorithms that produce unsorted patterns (e.g. Gilbert–Peierls fills)
//! normalise before constructing a `CscMat`.

#![warn(missing_docs)]

pub mod blocks;
pub mod csc;
pub mod io;
pub mod metrics;
pub mod permutation;
pub mod spmv;
pub mod triplet;
pub mod trisolve;
pub mod util;
pub mod workspace;

pub use csc::CscMat;
pub use permutation::Perm;
pub use triplet::TripletMat;
pub use workspace::SolveWorkspace;

/// Errors shared across the workspace's sparse kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// Dimensions of operands do not line up.
    DimensionMismatch {
        /// The `(rows, cols)` the operation required.
        expected: (usize, usize),
        /// The `(rows, cols)` it was given.
        found: (usize, usize),
    },
    /// A structural invariant of a format was violated (message explains).
    InvalidStructure(String),
    /// Index out of bounds while building or slicing a matrix.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The exclusive bound it violated.
        bound: usize,
    },
    /// A numerically zero (or below-threshold) pivot was encountered at the
    /// given elimination step; the matrix is singular to working precision.
    ZeroPivot {
        /// Global (permuted) column index of the failed pivot.
        column: usize,
    },
    /// The matrix is structurally singular: no full transversal exists.
    StructurallySingular {
        /// The structural rank found (size of the maximum matching).
        rank: usize,
    },
    /// Parse or I/O failure while reading an external matrix file.
    Io(String),
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::DimensionMismatch { expected, found } => write!(
                f,
                "dimension mismatch: expected {}x{}, found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            SparseError::InvalidStructure(msg) => write!(f, "invalid structure: {msg}"),
            SparseError::IndexOutOfBounds { index, bound } => {
                write!(f, "index {index} out of bounds (< {bound} required)")
            }
            SparseError::ZeroPivot { column } => {
                write!(f, "zero pivot encountered at column {column}")
            }
            SparseError::StructurallySingular { rank } => {
                write!(f, "structurally singular matrix (structural rank {rank})")
            }
            SparseError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for SparseError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SparseError>;
