//! A threaded supernodal sparse LU — the paper's comparator stand-in.
//!
//! The Basker paper compares against Intel MKL Pardiso (PMKL) and
//! SuperLU-MT, both supernodal solvers. Neither is open source /
//! linkable here, so this crate implements a representative supernodal LU
//! with their defining characteristics (see DESIGN.md §3):
//!
//! * **static pivoting**: an MWCM transversal permutes large entries onto
//!   the diagonal; tiny pivots are perturbed (à la PARDISO) and repaired
//!   by iterative refinement, instead of row exchanges;
//! * **symmetric fill analysis**: symbolic Cholesky on `A + Aᵀ` fixes the
//!   pattern of `L` (and `U = pattern(L)ᵀ`) up front — the reason
//!   supernodal codes use *more* memory than Gilbert–Peierls codes on
//!   low fill-in circuit matrices (Table I);
//! * **supernode panels**: columns with nested patterns are grouped and
//!   stored as dense column-major panels; updates run as dense
//!   suffix-solves and dense dot products — fast when supernodes are wide
//!   (meshes), pure overhead when they degenerate to single columns
//!   (circuits). This is the crossover the paper's evaluation pivots on;
//! * **level-set threading** over the supernodal elimination tree
//!   (Pardiso-like).
//!
//! ```
//! use basker_snlu::{Snlu, SnluOptions};
//! use basker_sparse::CscMat;
//!
//! let a = CscMat::from_dense(&[
//!     vec![4.0, 1.0, 0.0],
//!     vec![1.0, 5.0, 2.0],
//!     vec![0.0, 2.0, 6.0],
//! ]);
//! let sym = Snlu::analyze(&a, &SnluOptions::default()).unwrap();
//! let num = sym.factor(&a).unwrap();
//! let mut ws = basker_sparse::SolveWorkspace::new();
//! let mut x = vec![5.0, 8.0, 8.0];
//! num.solve_in_place(&mut x, &mut ws);
//! assert!(basker_sparse::util::relative_residual(&a, &x, &[5.0, 8.0, 8.0]) < 1e-10);
//! ```

#![warn(missing_docs)]

pub mod numeric;
pub mod symbolic;

pub use numeric::SnluNumeric;
pub use symbolic::{Snlu, SnluInner, SnluOptions};
