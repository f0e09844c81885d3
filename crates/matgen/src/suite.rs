//! The test suites: synthetic analogues of the paper's Table I
//! (circuit/powergrid matrices) and Table II (2/3-D mesh problems).
//!
//! Every entry is a generator reproducing the *class* of one of the
//! paper's matrices — BTF regime, fill regime, pattern irregularity — at
//! a size a unit test factors in milliseconds (n ≈ 200–800); Table I's
//! order, by increasing fill density of the original, is kept.

use crate::circuit::{circuit, CircuitParams};
use crate::mesh::{mesh2d, mesh3d};
use crate::powergrid::{powergrid, PowergridParams};
use basker_sparse::{CscMat, TripletMat};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One suite entry: name and generator.
pub struct SuiteEntry {
    /// Matrix name, suffixed `_like` to signal it is a synthetic analogue.
    pub name: &'static str,
    gen: fn() -> CscMat,
}

impl SuiteEntry {
    /// Generates the analogue.
    pub fn generate(&self) -> CscMat {
        (self.gen)()
    }
}

/// Block-diagonal composition with directed (upper-block) couplings:
/// preserves each part's BTF structure while weakly connecting them.
pub fn compose(parts: &[CscMat], couplings: usize, seed: u64) -> CscMat {
    let n: usize = parts.iter().map(|p| p.nrows()).sum();
    let mut t = TripletMat::with_capacity(
        n,
        n,
        parts.iter().map(|p| p.nnz()).sum::<usize>() + couplings,
    );
    let mut offset = 0usize;
    let mut offsets = Vec::new();
    for p in parts {
        offsets.push(offset);
        for (i, j, v) in p.iter() {
            t.push(offset + i, offset + j, v);
        }
        offset += p.nrows();
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0c0);
    for _ in 0..couplings {
        let pi = rng.gen_range(0..parts.len());
        let pj = rng.gen_range(0..parts.len());
        if pi >= pj {
            continue;
        }
        // strictly upper-block entries: row in part pi, col in part pj
        let i = offsets[pi] + rng.gen_range(0..parts[pi].nrows());
        let j = offsets[pj] + rng.gen_range(0..parts[pj].nrows());
        t.push(i, j, rng.gen_range(0.1..1.0));
    }
    t.to_csc()
}

fn cp(
    nsub: usize,
    sub_size: usize,
    feedthrough: f64,
    mesh_like: bool,
    devices: f64,
    seed: u64,
) -> CircuitParams {
    CircuitParams {
        nsub,
        sub_size,
        devices_per_node: devices,
        feedthrough,
        couplings_per_sub: 3.0,
        vccs_fraction: 0.15,
        mesh_like,
        seed,
    }
}

/// The Table I analogue suite, ordered by increasing paper fill density.
pub fn table1_suite() -> Vec<SuiteEntry> {
    let mut v: Vec<SuiteEntry> = Vec::new();
    let mut push = |name: &'static str, gen: fn() -> CscMat| v.push(SuiteEntry { name, gen });

    // --- low fill-in group (fill density < 4) ---
    push("RS_b39c30_like", || {
        powergrid(&PowergridParams {
            nfeeders: 20,
            feeder_len: 16,
            loop_prob: 0.25,
            seed: 101,
        })
    });
    push("RS_b678c2_like", || {
        powergrid(&PowergridParams {
            nfeeders: 6,
            feeder_len: 60,
            loop_prob: 0.45,
            seed: 102,
        })
    });
    push("Power0_like", || {
        powergrid(&PowergridParams {
            nfeeders: 24,
            feeder_len: 20,
            loop_prob: 0.1,
            seed: 103,
        })
    });
    push("circuit5M_like", || {
        circuit(&cp(4, 100, 1.0, true, 2.2, 104))
    });
    push("memplus_like", || {
        circuit(&cp(3, 130, 0.95, true, 2.0, 105))
    });
    push("rajat21_like", || {
        let big = circuit(&cp(3, 120, 1.0, true, 2.2, 106));
        let tail = powergrid(&PowergridParams {
            nfeeders: 4,
            feeder_len: 8,
            loop_prob: 0.1,
            seed: 106,
        });
        compose(&[big, tail], 30, 106)
    });
    push("trans5_like", || circuit(&cp(4, 90, 1.0, true, 2.4, 107)));
    push("circuit_4_like", || {
        let big = circuit(&cp(3, 90, 1.0, true, 2.2, 108));
        let tail = powergrid(&PowergridParams {
            nfeeders: 10,
            feeder_len: 15,
            loop_prob: 0.1,
            seed: 108,
        });
        compose(&[big, tail], 40, 108)
    });
    push("Xyce0_like", || {
        let big = circuit(&cp(2, 80, 1.0, true, 2.2, 109));
        let tail = powergrid(&PowergridParams {
            nfeeders: 30,
            feeder_len: 12,
            loop_prob: 0.08,
            seed: 109,
        });
        compose(&[big, tail], 50, 109)
    });
    push("Xyce4_like", || {
        let big = circuit(&cp(3, 100, 1.0, true, 2.6, 122));
        let tail = powergrid(&PowergridParams {
            nfeeders: 5,
            feeder_len: 10,
            loop_prob: 0.1,
            seed: 122,
        });
        compose(&[big, tail], 30, 122)
    });
    push("Xyce1_like", || {
        let big = circuit(&cp(3, 110, 1.0, true, 2.8, 110));
        let tail = powergrid(&PowergridParams {
            nfeeders: 8,
            feeder_len: 12,
            loop_prob: 0.12,
            seed: 110,
        });
        compose(&[big, tail], 35, 110)
    });
    push("asic_680ks_like", || {
        let big = circuit(&cp(2, 70, 1.0, true, 2.6, 111));
        let tail = powergrid(&PowergridParams {
            nfeeders: 28,
            feeder_len: 12,
            loop_prob: 0.1,
            seed: 111,
        });
        compose(&[big, tail], 45, 111)
    });
    push("bcircuit_like", || {
        circuit(&cp(4, 100, 1.0, true, 3.0, 112))
    });
    push("scircuit_like", || {
        circuit(&cp(4, 110, 0.97, true, 3.0, 113))
    });
    push("hvdc2_like", || {
        // Dozens of medium blocks, feed-forward coupled.
        let nblk = 8;
        let parts: Vec<CscMat> = (0..nblk)
            .map(|i| circuit(&cp(1, 48, 1.0, true, 2.5, 114 + i as u64)))
            .collect();
        compose(&parts, 3 * nblk, 114)
    });
    push("Freescale1_like", || {
        circuit(&cp(4, 110, 1.0, true, 3.6, 115))
    });

    // --- high fill-in group (fill density > 4) ---
    push("hcircuit_like", || {
        let big = circuit(&cp(2, 130, 1.0, false, 2.0, 116));
        let tail = powergrid(&PowergridParams {
            nfeeders: 4,
            feeder_len: 10,
            loop_prob: 0.1,
            seed: 116,
        });
        compose(&[big, tail], 25, 116)
    });
    push("Xyce3_like", || {
        let big = circuit(&cp(2, 160, 1.0, false, 2.4, 117));
        let tail = powergrid(&PowergridParams {
            nfeeders: 6,
            feeder_len: 10,
            loop_prob: 0.1,
            seed: 117,
        });
        compose(&[big, tail], 25, 117)
    });
    push("memchip_like", || {
        circuit(&cp(2, 170, 1.0, false, 2.6, 118))
    });
    push("G2_Circuit_like", || mesh2d(22, 119));
    push("twotone_like", || mesh3d(8, 120));
    push("onetone1_like", || {
        let big = mesh3d(7, 121);
        let tail = powergrid(&PowergridParams {
            nfeeders: 3,
            feeder_len: 8,
            loop_prob: 0.1,
            seed: 121,
        });
        compose(&[big, tail], 12, 121)
    });
    v
}

/// The Table II analogue suite: 2/3-D mesh problems, PMKL's ideal inputs.
pub fn mesh_suite() -> Vec<SuiteEntry> {
    let mut v: Vec<SuiteEntry> = Vec::new();
    let mut push = |name: &'static str, gen: fn() -> CscMat| v.push(SuiteEntry { name, gen });
    push("pwtk_like", || mesh2d(24, 201));
    push("ecology_like", || mesh2d(26, 202));
    push("apache2_like", || mesh3d(9, 203));
    push("bmwcra1_like", || mesh3d(8, 204));
    push("parabolic_fem_like", || mesh2d(23, 205));
    push("helm2d03_like", || mesh2d(21, 206));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use basker_ordering::matching::max_transversal;

    #[test]
    fn all_table1_entries_generate_and_are_nonsingular() {
        for e in table1_suite() {
            let a = e.generate();
            assert!(a.nrows() >= 200, "{} too small: {}", e.name, a.nrows());
            assert!(a.nrows() <= 2500, "{} too big: {}", e.name, a.nrows());
            assert!(
                max_transversal(&a).is_perfect(),
                "{} structurally singular",
                e.name
            );
        }
    }

    #[test]
    fn suite_has_expected_structure() {
        let s = table1_suite();
        assert_eq!(s.len(), 22);
        // Table I's order: the lowest- and the highest-fill originals.
        assert_eq!(s[0].name, "RS_b39c30_like");
        assert_eq!(s[21].name, "onetone1_like");
        let names: std::collections::HashSet<_> = s.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), 22, "names are unique");
    }

    #[test]
    fn mesh_suite_generates() {
        for e in mesh_suite() {
            let a = e.generate();
            assert!(max_transversal(&a).is_perfect(), "{}", e.name);
        }
    }

    #[test]
    fn compose_preserves_upper_block_structure() {
        let a = CscMat::identity(3);
        let b = CscMat::identity(2);
        let c = compose(&[a, b], 10, 1);
        assert_eq!(c.nrows(), 5);
        // no entries below the block diagonal
        for (i, j, _) in c.iter() {
            assert!(!(i >= 3 && j < 3), "lower-block entry ({i},{j})");
        }
    }
}
