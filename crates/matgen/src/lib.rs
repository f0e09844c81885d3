//! Deterministic workload generators for the Basker reproduction.
//!
//! The paper evaluates on University of Florida collection matrices and
//! proprietary Xyce circuit matrices (Table I), which cannot be shipped
//! here. This crate generates synthetic analogues *by structural class*:
//! what drives the paper's comparisons is (a) the fraction of the matrix
//! in small BTF blocks, (b) the fill-in density under factorization, and
//! (c) the irregularity of the nonzero pattern — all of which these
//! generators control directly (see DESIGN.md §3).
//!
//! * [`circuit()`] — modified-nodal-analysis style circuit matrices built
//!   from weakly coupled subcircuits (controls BTF block structure and
//!   fill).
//! * [`powergrid()`] — feeder-tree power grids with local loops: 100 %
//!   BTF, thousands of tiny blocks, fill density < 1 (the
//!   `RS_*`/`Power0` class).
//! * [`mesh`] — 2-D/3-D finite-difference meshes: the high-fill regime
//!   where supernodal solvers shine (Table II; also the `G2_Circuit` /
//!   `twotone` fill class).
//! * [`xyce_seq`] — a 1000-matrix transient sequence with a fixed pattern
//!   and drifting values (paper §V-F).
//! * [`suite`] — the Table I / Table II analogue suites.

#![warn(missing_docs)]

pub mod circuit;
pub mod mesh;
pub mod powergrid;
pub mod suite;
pub mod xyce_seq;

pub use circuit::{circuit, CircuitParams};
pub use mesh::{mesh2d, mesh3d};
pub use powergrid::{powergrid, PowergridParams};
pub use suite::{mesh_suite, table1_suite, SuiteEntry};
pub use xyce_seq::{XyceSequence, XyceSequenceParams};
