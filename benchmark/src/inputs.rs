//! Workload definitions and seeded input generation.
//!
//! Everything the library sees is generated here from `--seed`: the
//! matrices (through `basker_matgen`), the value trajectories and the
//! right-hand sides. The frozen sizes are listed in `README.md`.

use basker_matgen::{
    circuit, mesh2d, powergrid, CircuitParams, PowergridParams, XyceSequence, XyceSequenceParams,
};
use basker_sparse::CscMat;

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Transient circuit sequence: refactor + solve dominate.
    CircuitTransient,
    /// One irreducible mesh block re-pivoted every step: the threaded
    /// ND factorization dominates.
    MeshFactor,
    /// ~10⁵ tiny BTF blocks, 8 right-hand sides: per-block dispatch and
    /// batched solves dominate.
    PowergridContingency,
    /// Analyze + first factor + solve on a never-seen pattern.
    ColdStart,
    /// Client → router → `shardd` → service → session, many streams.
    ShardFleet,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::CircuitTransient,
        Workload::MeshFactor,
        Workload::PowergridContingency,
        Workload::ColdStart,
        Workload::ShardFleet,
    ];

    /// The name used on the command line and in result files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CircuitTransient => "circuit_transient",
            Workload::MeshFactor => "mesh_factor",
            Workload::PowergridContingency => "powergrid_contingency",
            Workload::ColdStart => "cold_start",
            Workload::ShardFleet => "shard_fleet",
        }
    }

    /// Why the workload exists, in one line (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::CircuitTransient => {
                "transient circuit sequence (paper V-F): refactor + solve + session policy carry \
                 the time, ordering and pivoting factor almost none"
            }
            Workload::MeshFactor => {
                "one irreducible mesh block re-pivoted each step (Fig. 6 shape): ND leaves, \
                 separator pipeline, sync and dense kernels carry the time; control for refactor"
            }
            Workload::PowergridContingency => {
                "1e5 one-by-one BTF blocks with 8 right-hand sides: per-block dispatch and batched \
                 solves instead of flops in big blocks"
            }
            Workload::ColdStart => {
                "analyze + first factor + solve on a never-seen pattern: ordering and symbolic do \
                 the work, which the steady-state workloads bypass"
            }
            Workload::ShardFleet => {
                "end-to-end path client, router, shardd, service, session over 32 small streams: \
                 wire and queueing dominate, factorization is a minority"
            }
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A matrix family with its size parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    /// `circuit(nsub, sub_size, feedthrough)`.
    Circuit {
        /// Subcircuit instances.
        nsub: usize,
        /// Nodes per subcircuit.
        sub_size: usize,
        /// Share of inter-subcircuit couplings that are bidirectional
        /// (0.7 leaves a few large irreducible blocks, 0.3 keeps most
        /// subcircuits their own BTF block).
        feedthrough: f64,
    },
    /// `mesh2d(k)`.
    Mesh {
        /// Grid side.
        k: usize,
    },
    /// `powergrid(nfeeders, feeder_len, loop_prob 0.1)`.
    Powergrid {
        /// Radial feeders.
        nfeeders: usize,
        /// Buses per feeder.
        feeder_len: usize,
    },
}

impl Family {
    fn circuit_params(nsub: usize, sub_size: usize, feedthrough: f64, seed: u64) -> CircuitParams {
        CircuitParams {
            nsub,
            sub_size,
            feedthrough,
            seed,
            ..CircuitParams::default()
        }
    }

    /// Generates the family's matrix for `seed`.
    pub fn generate(self, seed: u64) -> CscMat {
        match self {
            Family::Circuit {
                nsub,
                sub_size,
                feedthrough,
            } => circuit(&Family::circuit_params(nsub, sub_size, feedthrough, seed)),
            Family::Mesh { k } => mesh2d(k, seed),
            Family::Powergrid {
                nfeeders,
                feeder_len,
            } => powergrid(&PowergridParams {
                nfeeders,
                feeder_len,
                loop_prob: 0.1,
                seed,
            }),
        }
    }

    /// A short description for logs and the README table.
    pub fn describe(self) -> String {
        match self {
            Family::Circuit {
                nsub,
                sub_size,
                feedthrough,
            } => format!("circuit({nsub}, {sub_size}, {feedthrough})"),
            Family::Mesh { k } => format!("mesh2d({k})"),
            Family::Powergrid {
                nfeeders,
                feeder_len,
            } => format!("powergrid({nfeeders}, {feeder_len}, 0.1)"),
        }
    }
}

/// Frozen sizes of every workload, full and `--quick`.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `circuit_transient` matrix.
    pub circuit: Family,
    /// `mesh_factor` matrix.
    pub mesh: Family,
    /// `powergrid_contingency` matrix.
    pub powergrid: Family,
    /// Right-hand sides per `powergrid_contingency` step.
    pub powergrid_rhs: usize,
    /// The three families `cold_start` cycles through.
    pub cold: [Family; 3],
    /// `shard_fleet` per-stream matrix.
    pub fleet: Family,
    /// `shard_fleet` streams (over [`FLEET_PATTERNS`] patterns).
    pub fleet_streams: usize,
    /// Value-ring length of the steady-state workloads.
    pub ring: usize,
    /// Value-ring length of each fleet stream.
    pub fleet_ring: usize,
}

/// `shard_fleet` shard processes.
pub const FLEET_SHARDS: usize = 2;
/// Distinct sparsity patterns among the fleet's streams.
pub const FLEET_PATTERNS: usize = 4;
/// Steps each fleet client connection keeps in flight.
pub const FLEET_IN_FLIGHT: usize = 4;

impl Sizes {
    /// The frozen full-size (`quick == false`) or reduced sizes.
    pub fn new(quick: bool) -> Sizes {
        if quick {
            Sizes {
                circuit: Family::Circuit {
                    nsub: 6,
                    sub_size: 200,
                    feedthrough: 0.7,
                },
                mesh: Family::Mesh { k: 40 },
                powergrid: Family::Powergrid {
                    nfeeders: 150,
                    feeder_len: 40,
                },
                powergrid_rhs: 8,
                cold: [
                    Family::Circuit {
                        nsub: 4,
                        sub_size: 150,
                        feedthrough: 0.7,
                    },
                    Family::Mesh { k: 24 },
                    Family::Powergrid {
                        nfeeders: 60,
                        feeder_len: 30,
                    },
                ],
                fleet: Family::Circuit {
                    nsub: 4,
                    sub_size: 60,
                    feedthrough: 0.3,
                },
                fleet_streams: 8,
                ring: 8,
                fleet_ring: 4,
            }
        } else {
            Sizes {
                circuit: Family::Circuit {
                    nsub: 36,
                    sub_size: 1200,
                    feedthrough: 0.7,
                },
                mesh: Family::Mesh { k: 150 },
                powergrid: Family::Powergrid {
                    nfeeders: 1600,
                    feeder_len: 60,
                },
                powergrid_rhs: 8,
                cold: [
                    Family::Circuit {
                        nsub: 32,
                        sub_size: 900,
                        feedthrough: 0.7,
                    },
                    Family::Mesh { k: 100 },
                    Family::Powergrid {
                        nfeeders: 1000,
                        feeder_len: 60,
                    },
                ],
                fleet: Family::Circuit {
                    nsub: 16,
                    sub_size: 220,
                    feedthrough: 0.3,
                },
                fleet_streams: 32,
                ring: 16,
                fleet_ring: 8,
            }
        }
    }
}

/// SplitMix64: the harness's own generator for trajectories and
/// right-hand sides (the matrix generators keep theirs).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// A fixed pattern with a ring of consecutive value sets, played
/// forward then backward so there is no jump where the ring ends.
#[derive(Debug, Clone)]
pub struct Ring {
    /// The pattern, holding the values of ring position 0.
    pub base: CscMat,
    /// One value vector (pattern order) per ring position.
    pub values: Vec<Vec<f64>>,
}

impl Ring {
    /// Generates the ring with the pattern from `seed` and the value
    /// trajectory from `traj_seed` (pinned patterns and fleet streams
    /// share a pattern and differ in trajectory): circuits follow `XyceSequence` (smooth
    /// drift plus switching devices); meshes and power grids, which
    /// `matgen` has no sequence for, follow a smooth per-entry drift of
    /// up to ±30 % generated here.
    pub fn generate(family: Family, seed: u64, traj_seed: u64, len: usize) -> Ring {
        match family {
            Family::Circuit {
                nsub,
                sub_size,
                feedthrough,
            } => {
                let seq = XyceSequence::new(&XyceSequenceParams {
                    circuit: Family::circuit_params(nsub, sub_size, feedthrough, seed),
                    nsteps: 1000,
                    switching_fraction: 0.05,
                    seed: traj_seed ^ 0x5eed,
                });
                let values = (0..len)
                    .map(|k| seq.matrix_at(k).values().to_vec())
                    .collect();
                Ring {
                    base: seq.matrix_at(0),
                    values,
                }
            }
            _ => {
                let base = family.generate(seed);
                let mut rng = SplitMix::new(traj_seed ^ 0x7a11);
                let traj: Vec<(f64, f64, f64)> = (0..base.nnz())
                    .map(|_| {
                        (
                            rng.uniform(0.02, 0.15),
                            rng.uniform(0.5, 4.0),
                            rng.uniform(0.0, std::f64::consts::TAU),
                        )
                    })
                    .collect();
                let values = (0..len)
                    .map(|k| {
                        let t = k as f64 / 1000.0 * std::f64::consts::TAU;
                        base.values()
                            .iter()
                            .zip(&traj)
                            .map(|(v, (amp, freq, phase))| {
                                v * (1.0 + amp * ((freq * t + phase).sin() - phase.sin()))
                            })
                            .collect()
                    })
                    .collect();
                Ring { base, values }
            }
        }
    }

    /// Ring position of step `step`: `0, 1, …, len-1, len-2, …, 1, 0, 1, …`.
    pub fn position(&self, step: usize) -> usize {
        ping_pong(step, self.values.len())
    }
}

/// Position `step` of a forward-then-backward walk over `len` slots.
pub fn ping_pong(step: usize, len: usize) -> usize {
    if len <= 1 {
        return 0;
    }
    let period = 2 * (len - 1);
    let p = step % period;
    if p < len {
        p
    } else {
        period - p
    }
}

/// `nrhs` right-hand sides of length `n`, packed column-major, uniform
/// in `[-1, 1)`.
pub fn rhs(n: usize, nrhs: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix::new(seed ^ 0x0b5e_55ed);
    (0..n * nrhs).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

/// A copy of `base` carrying `values` (same pattern).
pub fn with_values(base: &CscMat, values: &[f64]) -> CscMat {
    let mut m = base.clone();
    m.values_mut().copy_from_slice(values);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_has_no_jump() {
        let walk: Vec<usize> = (0..9).map(|s| ping_pong(s, 4)).collect();
        assert_eq!(walk, [0, 1, 2, 3, 2, 1, 0, 1, 2]);
        assert_eq!(ping_pong(5, 1), 0);
        for s in 0..50 {
            let (a, b) = (ping_pong(s, 7), ping_pong(s + 1, 7));
            assert_eq!(a.abs_diff(b), 1);
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let f = Family::Powergrid {
            nfeeders: 10,
            feeder_len: 12,
        };
        let (a, b, c) = (
            Ring::generate(f, 3, 3, 4),
            Ring::generate(f, 3, 3, 4),
            Ring::generate(f, 3, 4, 4),
        );
        assert_eq!(a.values, b.values);
        assert_ne!(a.values, c.values);
        assert_eq!(a.base.values(), &a.values[0][..]);
        assert_ne!(a.values[0], a.values[3]);
        assert_eq!(rhs(5, 2, 9), rhs(5, 2, 9));
        assert_ne!(rhs(5, 2, 9), rhs(5, 2, 10));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
