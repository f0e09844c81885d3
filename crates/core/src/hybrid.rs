//! The hybrid engine's names, as aliases of the block driver's. The
//! driver's plan is the block layout — fine-BTF blocks on
//! Gilbert–Peierls, ND-laid-out blocks on the team, each ND leaf on the
//! kernel analyze chose for it — so a hybrid handle is a [`Basker`]
//! handle. The benchmark's `core.hybrid.*` rows still name these.

use crate::{Basker, BaskerOptions};

/// The block driver: [`Basker`].
pub type HybridLu = Basker;

/// The block driver's options: [`BaskerOptions`].
pub type HybridOptions = BaskerOptions;
