//! The whole-stack benchmark: five sized workloads, the end-to-end
//! metrics a user of the system sees, and a per-layer ladder from the
//! dense kernels to the wire. See `README.md` for the vocabulary.

#![warn(missing_docs)]

pub mod check;
pub mod compare;
pub mod fleet;
pub mod inproc;
pub mod inputs;
pub mod ladder;
pub mod report;
pub mod run;
pub mod stats;
pub mod sysinfo;
pub mod trace;

/// The repository root: the directory holding `crates/` and this
/// package (fixed when the package is built, which is where it runs).
pub fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits one level below the root")
        .to_path_buf()
}
