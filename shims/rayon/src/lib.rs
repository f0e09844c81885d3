//! Placeholder named by `benchmark/Cargo.lock`, which records `basker_snlu → rayon` but not
//! `basker_snlu → basker_runtime`; until that lockfile changes, `basker_snlu` reaches the
//! runtime's team through this one re-export.

pub use basker_runtime::{shared_team, WorkerTeam};
