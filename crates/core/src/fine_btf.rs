//! The fine BTF path: independent small diagonal blocks (paper Alg. 2).
//!
//! Small BTF blocks have no mutual dependencies, so their factorizations
//! are embarrassingly parallel. Following Algorithm 2, blocks are
//! partitioned among threads by *estimated operation count* (line 5) and
//! each partition runs serial Gilbert–Peierls factorizations.

use crate::keep_smallest_column;
use basker_klu::gp::BlockFactor;
use basker_runtime::WorkerTeam;
use basker_sparse::{CscMat, Result};
use std::sync::Mutex;

/// One small block's position in the BTF structure.
#[derive(Debug, Clone)]
pub struct SmallBlock {
    /// BTF block index.
    pub btf_index: usize,
    /// Range in the permuted matrix.
    pub lo: usize,
    /// End of the range.
    pub hi: usize,
    /// Estimated factorization cost (flops; used for partitioning).
    pub est_flops: f64,
}

/// Partitions blocks into `p` chunks balanced by estimated flops, keeping
/// the original order inside each chunk (greedy longest-processing-time
/// assignment, deterministic).
pub fn partition_by_flops(blocks: &[SmallBlock], p: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..blocks.len()).collect();
    // Heaviest first for LPT, ties by index for determinism.
    order.sort_by(|&x, &y| {
        blocks[y]
            .est_flops
            .partial_cmp(&blocks[x].est_flops)
            .unwrap()
            .then(x.cmp(&y))
    });
    let mut chunks: Vec<Vec<usize>> = vec![Vec::new(); p];
    let mut loads = vec![0.0f64; p];
    for idx in order {
        let (tmin, _) = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        chunks[tmin].push(idx);
        loads[tmin] += blocks[idx].est_flops.max(1.0);
    }
    for c in &mut chunks {
        c.sort_unstable();
    }
    chunks
}

/// Factors all small blocks in parallel (Alg. 2's numeric phase):
/// chunk `i` of the pre-computed partition is job `i` of the team's
/// worklist. A chunk lists its blocks in ascending order, so it stops at
/// its own smallest failing column; every chunk runs, so the error names
/// the smallest failing column of the whole set at every width.
pub fn factor_small_blocks(
    ap: &CscMat,
    blocks: &[SmallBlock],
    chunks: &[Vec<usize>],
    pivot_tol: f64,
    team: &WorkerTeam,
) -> Result<Vec<(usize, BlockFactor)>> {
    let outs: Vec<Mutex<Vec<(usize, BlockFactor)>>> = chunks
        .iter()
        .map(|c| Mutex::new(Vec::with_capacity(c.len())))
        .collect();
    let failed = Mutex::new(None);
    team.run_worklist(chunks.len(), |i| {
        let mut out = outs[i].lock().expect("one job per chunk");
        for &bi in &chunks[i] {
            let b = &blocks[bi];
            match BlockFactor::factor_range(ap, b.lo, b.hi, pivot_tol) {
                Ok(f) => out.push((b.btf_index, f)),
                Err(e) => {
                    keep_smallest_column(&failed, e);
                    return;
                }
            }
        }
    });
    if let Some(e) = failed.into_inner().expect("nothing panics under this lock") {
        return Err(e);
    }
    let mut all: Vec<(usize, BlockFactor)> = outs
        .into_iter()
        .flat_map(|o| o.into_inner().expect("one job per chunk"))
        .collect();
    all.sort_by_key(|&(bi, _)| bi);
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use basker_runtime::shared_team;
    use basker_sparse::{SparseError, TripletMat};

    #[test]
    fn partition_balances_loads() {
        let blocks: Vec<SmallBlock> = (0..10)
            .map(|i| SmallBlock {
                btf_index: i,
                lo: i,
                hi: i + 1,
                est_flops: (i + 1) as f64 * 10.0,
            })
            .collect();
        let chunks = partition_by_flops(&blocks, 3);
        assert_eq!(chunks.len(), 3);
        let mut seen: Vec<usize> = chunks.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        let loads: Vec<f64> = chunks
            .iter()
            .map(|c| c.iter().map(|&i| blocks[i].est_flops).sum())
            .collect();
        let (mn, mx) = (
            loads.iter().cloned().fold(f64::INFINITY, f64::min),
            loads.iter().cloned().fold(0.0, f64::max),
        );
        assert!(mx / mn.max(1.0) < 2.0, "imbalanced: {loads:?}");
    }

    #[test]
    fn partition_handles_fewer_blocks_than_threads() {
        let blocks = vec![SmallBlock {
            btf_index: 0,
            lo: 0,
            hi: 3,
            est_flops: 5.0,
        }];
        let chunks = partition_by_flops(&blocks, 4);
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn factors_independent_blocks() {
        // Block diagonal with three 2x2 systems.
        let n = 6;
        let mut t = TripletMat::new(n, n);
        for b in 0..3 {
            let o = 2 * b;
            t.push(o, o, 4.0 + b as f64);
            t.push(o + 1, o + 1, 5.0);
            t.push(o, o + 1, 1.0);
            t.push(o + 1, o, 2.0);
        }
        let ap = t.to_csc();
        let blocks: Vec<SmallBlock> = (0..3)
            .map(|b| SmallBlock {
                btf_index: b,
                lo: 2 * b,
                hi: 2 * b + 2,
                est_flops: 8.0,
            })
            .collect();
        let chunks = partition_by_flops(&blocks, 2);
        let f = factor_small_blocks(&ap, &blocks, &chunks, 0.001, &shared_team(2, false)).unwrap();
        assert_eq!(f.len(), 3);
        // results sorted by block index
        assert!(f.windows(2).all(|w| w[0].0 < w[1].0));
        for (bi, fac) in &f {
            let o = 2 * bi;
            // check L·U reconstructs the 2x2 block (dense check)
            let basker_klu::gp::BlockFactor::Full(blu) = fac else {
                panic!("2x2 blocks must use the full path");
            };
            let d = basker_sparse::blocks::extract_range(&ap, o..o + 2, o..o + 2);
            let pd = blu.row_perm.permute_rows(&d).to_dense();
            let ld = blu.l.to_dense();
            let ud = blu.u.to_dense();
            for i in 0..2 {
                for j in 0..2 {
                    let acc: f64 = (0..2).map(|k| ld[i][k] * ud[k][j]).sum();
                    assert!((acc - pd[i][j]).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn error_in_one_block_propagates() {
        // second block singular
        let n = 4;
        let mut t = TripletMat::new(n, n);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        t.push(2, 2, 1.0);
        t.push(2, 3, 1.0);
        t.push(3, 2, 1.0);
        t.push(3, 3, 1.0);
        let ap = t.to_csc();
        let blocks = vec![
            SmallBlock {
                btf_index: 0,
                lo: 0,
                hi: 2,
                est_flops: 1.0,
            },
            SmallBlock {
                btf_index: 1,
                lo: 2,
                hi: 4,
                est_flops: 1.0,
            },
        ];
        let chunks = partition_by_flops(&blocks, 2);
        assert!(factor_small_blocks(&ap, &blocks, &chunks, 0.001, &shared_team(2, false)).is_err());
    }

    /// Blocks 1 and 3 are singular, and at two threads LPT puts block 3
    /// in the first chunk: the error still names block 1's column, at
    /// every width.
    #[test]
    fn error_names_smallest_failing_column_at_every_width() {
        let mut t = TripletMat::new(10, 10);
        for b in 0..5 {
            let o = 2 * b;
            let [a00, a01, a10, a11] = if b == 1 || b == 3 {
                [1.0; 4]
            } else {
                [4.0, 1.0, 2.0, 5.0]
            };
            t.push(o, o, a00);
            t.push(o, o + 1, a01);
            t.push(o + 1, o, a10);
            t.push(o + 1, o + 1, a11);
        }
        let ap = t.to_csc();
        let blocks: Vec<SmallBlock> = [10.0, 50.0, 1.0, 60.0, 1.0]
            .into_iter()
            .enumerate()
            .map(|(b, est_flops)| SmallBlock {
                btf_index: b,
                lo: 2 * b,
                hi: 2 * b + 2,
                est_flops,
            })
            .collect();
        assert_eq!(partition_by_flops(&blocks, 2), [vec![2, 3], vec![0, 1, 4]]);
        for p in [1usize, 2, 4] {
            let chunks = partition_by_flops(&blocks, p);
            let r = factor_small_blocks(&ap, &blocks, &chunks, 0.001, &shared_team(p, false));
            assert!(
                matches!(r, Err(SparseError::ZeroPivot { column: 3 })),
                "p={p}: {:?}",
                r.err()
            );
        }
    }
}
