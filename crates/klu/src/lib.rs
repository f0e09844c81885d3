//! A KLU work-alike: the paper's serial baseline solver.
//!
//! KLU (Davis & Palamadai Natarajan, "Algorithm 907") factors circuit
//! matrices by permuting to block triangular form, ordering each diagonal
//! block with AMD, and running the left-looking Gilbert–Peierls
//! factorization (paper Algorithm 1) on each block with partial pivoting.
//! This crate reproduces that pipeline:
//!
//! * [`gp`] — the Gilbert–Peierls kernel: DFS reachability over the
//!   partially built `L`, sparse accumulator updates, threshold partial
//!   pivoting with diagonal preference, *stacked* block-column support
//!   (pivot confined to the diagonal block while trailing row-blocks ride
//!   along — the primitive Basker's 2-D algorithm is built from), and
//!   pattern-reusing refactorization.
//! * [`solver`] — the user-facing `analyze / factor / refactor / solve`
//!   pipeline over the BTF structure.
//!
//! Usage:
//!
//! ```
//! use basker_klu::{KluOptions, KluSymbolic};
//! use basker_sparse::CscMat;
//!
//! let a = CscMat::from_dense(&[
//!     vec![4.0, 1.0, 0.0],
//!     vec![1.0, 5.0, 2.0],
//!     vec![0.0, 2.0, 6.0],
//! ]);
//! let sym = KluSymbolic::analyze(&a, &KluOptions::default()).unwrap();
//! let num = sym.factor(&a).unwrap();
//! let mut ws = basker_sparse::SolveWorkspace::new();
//! let mut x = vec![5.0, 8.0, 8.0];
//! num.solve_in_place(&mut x, &mut ws);
//! assert!(basker_sparse::util::relative_residual(&a, &x, &[5.0, 8.0, 8.0]) < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod gp;
pub mod solver;

pub use gp::BlockLu;
pub use solver::{KluNumeric, KluOptions, KluSymbolic};
