//! Orderings and graph algorithms for sparse LU factorization.
//!
//! This crate implements every ordering the Basker paper relies on
//! (paper §II "Orderings" and §III):
//!
//! * [`matching`] — maximum-cardinality bipartite matching (MC21-style),
//!   used to find a zero-free diagonal (a *transversal*).
//! * [`mwcm`] — maximum weight-cardinality matching in the **bottleneck**
//!   sense: among all full transversals, maximize the smallest pivot
//!   magnitude. The paper: "Our MWCM implementation is similar to MC64
//!   bottleneck ordering". Bound first: one matching at the largest
//!   threshold any perfect matching can reach, a binary search over the
//!   smaller magnitudes only when that one is not perfect.
//! * [`scc`] — Tarjan's strongly connected components (iterative).
//! * [`btf`] — permutation to upper **block triangular form** by matching +
//!   SCC condensation (Duff / Pothen–Fan).
//! * [`amd`] — approximate minimum degree fill-reducing ordering on the
//!   symmetrized pattern (quotient graph, element absorption, supervariable
//!   merging, dense-row deferral).
//! * [`nd`] — recursive **nested dissection** with vertex separators (the
//!   Scotch stand-in), producing the binary separator tree Basker's 2-D
//!   structure is built from.
//! * [`etree`] — elimination trees, postorder and level sets.
//! * [`symbolic`] — symbolic Cholesky-style pattern prediction used by the
//!   supernodal comparator, plus symbolic Gilbert–Peierls counts.

#![warn(missing_docs)]

pub mod amd;
pub mod btf;
pub mod etree;
pub mod matching;
pub mod mwcm;
pub mod nd;
pub mod scc;
pub mod symbolic;

pub use amd::amd_order;
pub use btf::{btf_form, BtfForm};
pub use matching::{max_transversal, Matching};
pub use mwcm::mwcm_bottleneck;
pub use nd::{nested_dissection, NdDecomposition, NdNode};
pub use scc::strongly_connected_components;
