//! Numeric phase of the supernodal solver: panel factorization over etree
//! level sets, blocked rank-k supernode updates on the dense kernel
//! ladder, static pivot perturbation, and the refined solve.
//!
//! The numeric kernel works on a sparse-accumulator **panel** (`n ×
//! width`, one dense column per supernode column). External updates are
//! grouped per contributing supernode and applied as one triangular
//! solve per receiving column followed by a single rank-k GEMM into the
//! contributor's below rows — the [`basker_kernels`] ladder supplies the
//! `trsv`/GEMM micro-kernels, so the flop-dominant inner loops run on
//! whatever SIMD rung the host dispatched. All per-supernode staging
//! buffers live in a per-worker `SnodeScratch` arena that persists
//! across level sets *and* refactorizations, so a steady-state
//! [`SnluNumeric::refactor`] performs no heap allocation.

use crate::symbolic::Snlu;
use basker_sparse::spmv::spmv_sub;
use basker_sparse::trisolve::{lower_solve_in_place, upper_solve_in_place};
use basker_sparse::util::mat_norm_inf_with;
use basker_sparse::{CscMat, Perm, Result, SolveWorkspace, SparseError};
use std::cell::RefCell;
use std::sync::Mutex;

/// One factored supernode: a dense column-major panel plus the `U` row
/// segments of its columns.
struct SnodeFactor {
    d0: usize,
    /// Panel rows: the supernode's own columns `d0..d1` first, then the
    /// below-diagonal row union (ascending).
    rows: Vec<usize>,
    width: usize,
    /// Column-major `rows.len() x width`. Column `c` holds its internal
    /// `U` values in rows `0..c`, the (possibly perturbed) pivot at row
    /// `c`, and the scaled `L` values below.
    panel: Vec<f64>,
    /// Per column: ascending `(tmin, values)` segments of `U(:, j)`; each
    /// segment spans `tmin..tmin+len` rows of one earlier supernode (the
    /// final segment is the internal one at `tmin = d0`).
    u_segments: Vec<Vec<(usize, Vec<f64>)>>,
    /// Per column: the (possibly perturbed) pivot.
    pivots: Vec<f64>,
    /// Dense flops spent on this supernode.
    flops: f64,
    /// Pivots perturbed in this supernode.
    perturbed: usize,
}

/// Per-worker scratch arena for [`Snlu::factor`] /
/// [`SnluNumeric::refactor`]: the sparse-accumulator panel plus the
/// dense staging buffers of the blocked external update. Buffers grow to
/// their high-water marks once and are then reused across supernodes,
/// level sets, and refactorizations.
#[derive(Default)]
struct SnodeScratch {
    /// `n × width` sparse accumulator, column-major; all-zero between
    /// supernodes (each supernode re-clears exactly what it touched).
    spa: Vec<f64>,
    /// Solved `U`-segment block `B` of the current contributor
    /// (`wsp × p`, zero above each column's first active row).
    useg: Vec<f64>,
    /// Staged `−L_below·B` product, scattered after the GEMM (`nb × p`).
    prod: Vec<f64>,
    /// Merged `(sp, c, tmin)` triples of the supernode's external
    /// updates, sorted by contributing supernode.
    updates: Vec<(usize, usize, usize)>,
    /// Per-column `U`-segment cursor (value-refresh passes overwrite the
    /// retained segments in order instead of pushing).
    segc: Vec<usize>,
}

thread_local! {
    /// One arena per worker thread; the runtime's teams park workers
    /// between jobs instead of respawning them, so this persists across
    /// level sets and refactorizations.
    static SCRATCH: RefCell<SnodeScratch> = RefCell::new(SnodeScratch::default());
}

fn grown(buf: &mut Vec<f64>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Records one `U` segment: pushed on a first factorization, overwritten
/// in place (same pattern, same order) on a value-only refresh.
fn put_segment(
    segs: &mut Vec<(usize, Vec<f64>)>,
    cursor: &mut usize,
    tmin: usize,
    vals: &[f64],
    recycle: bool,
) {
    if recycle {
        let seg = &mut segs[*cursor];
        debug_assert_eq!(seg.0, tmin, "U segment drifted between refactorizations");
        seg.1.copy_from_slice(vals);
        *cursor += 1;
    } else {
        segs.push((tmin, vals.to_vec()));
    }
}

/// The numeric factorization: assembled triangular factors + metadata.
pub struct SnluNumeric {
    /// The symbolic analysis these factors were built from (shared).
    sym: Snlu,
    /// The factored matrix, retained for iterative refinement (static
    /// pivoting perturbs tiny pivots, so the solve corrects against
    /// `A`). Costs one `O(|A|)` copy per (re)factorization — small next
    /// to the `O(|A|·fill)` numeric work — and buys an engine-agnostic
    /// solve signature (callers no longer pass `A` to every solve).
    a: CscMat,
    /// The permuted matrix the numeric kernels read; its pattern is
    /// fixed by the analysis, so a refactorization only refreshes its
    /// values through `ap_map`.
    ap: CscMat,
    /// Value-position map: `ap.values[k] = a.values[ap_map[k]]`.
    ap_map: Vec<usize>,
    /// Row-sum scratch for the `‖A‖∞` recomputation on refactor.
    rowsum: Vec<f64>,
    /// The factored supernodes, retained so a refactorization rewrites
    /// their panels in place (each slot's lock is uncontended: a
    /// supernode is written once per pass and read only afterwards).
    snodes: Vec<Mutex<Option<SnodeFactor>>>,
    l: CscMat,
    u: CscMat,
    /// `|L+U|` counting dense panel storage (the supernodal memory
    /// footprint reported as the PMKL column of Table I).
    pub lu_nnz: usize,
    /// Dense flops of the factorization.
    pub flops: f64,
    /// Number of statically perturbed pivots.
    pub perturbed_pivots: usize,
    /// Iterative-refinement sweeps applied by
    /// [`solve_in_place`](Self::solve_in_place).
    pub refine_steps: usize,
}

impl Snlu {
    /// Numeric factorization of `a` (same pattern as analyzed).
    pub fn factor(&self, a: &CscMat) -> Result<SnluNumeric> {
        let n = self.n;
        let ap = Perm::permute_both(&self.row_perm, &self.col_perm, a);
        // Record where each permuted value came from, so refactorizations
        // refresh `ap` in place instead of re-permuting a fresh matrix
        // (an f64 holds any nnz index we can store exactly).
        let ap_map: Vec<usize> = {
            let mut idx = a.clone();
            for (k, v) in idx.values_mut().iter_mut().enumerate() {
                *v = k as f64;
            }
            Perm::permute_both(&self.row_perm, &self.col_perm, &idx)
                .values()
                .iter()
                .map(|&v| v as usize)
                .collect()
        };
        let mut rowsum = vec![0.0f64; n];
        let pivot_floor = pivot_floor(self.opts.pivot_eps, &ap, &mut rowsum);

        let nsn = self.nsupernodes();
        let snodes: Vec<Mutex<Option<SnodeFactor>>> = (0..nsn).map(|_| Mutex::new(None)).collect();
        self.run_levels(&ap, pivot_floor, &snodes);

        // ---- assemble L and U, gather stats ----
        let mut lu_nnz = 0usize;
        let mut flops = 0.0f64;
        let mut perturbed = 0usize;
        let mut lcolptr = Vec::with_capacity(n + 1);
        let mut lrows: Vec<usize> = Vec::new();
        let mut lvals: Vec<f64> = Vec::new();
        let mut ucolptr = Vec::with_capacity(n + 1);
        let mut urows: Vec<usize> = Vec::new();
        let mut uvals: Vec<f64> = Vec::new();
        lcolptr.push(0);
        ucolptr.push(0);
        for slot in &snodes {
            let guard = slot.lock().unwrap();
            let f = guard.as_ref().expect("missing supernode");
            flops += f.flops;
            perturbed += f.perturbed;
            let nr = f.rows.len();
            for c in 0..f.width {
                let j = f.d0 + c;
                // L column: unit diagonal + panel entries below the diag.
                lrows.push(j);
                lvals.push(1.0);
                for idx in (c + 1)..nr {
                    lrows.push(f.rows[idx]);
                    lvals.push(f.panel[c * nr + idx]);
                }
                lcolptr.push(lrows.len());
                // U column: ascending segments then the pivot.
                for (tmin, vals) in &f.u_segments[c] {
                    for (k, &v) in vals.iter().enumerate() {
                        urows.push(tmin + k);
                        uvals.push(v);
                    }
                }
                urows.push(j);
                uvals.push(f.pivots[c]);
                ucolptr.push(urows.len());
                lu_nnz += (nr - c) + f.u_segments[c].iter().map(|(_, v)| v.len()).sum::<usize>();
            }
        }
        // SAFETY: U columns emit ascending earlier-supernode segments then
        // the pivot row `j`; `ucolptr` tracks `urows.len()`.
        let l = unsafe { CscMat::from_parts_unchecked(n, n, lcolptr, lrows, lvals) };
        // SAFETY: L columns emit the unit diagonal then the panel's sorted
        // below-diagonal rows; `lcolptr` tracks `lrows.len()`.
        let u = unsafe { CscMat::from_parts_unchecked(n, n, ucolptr, urows, uvals) };

        Ok(SnluNumeric {
            sym: self.clone(),
            a: a.clone(),
            ap,
            ap_map,
            rowsum,
            snodes,
            l,
            u,
            lu_nnz,
            flops,
            perturbed_pivots: perturbed,
            refine_steps: self.opts.refine_steps,
        })
    }

    /// Runs the numeric kernels over the etree level sets; each level's
    /// supernodes factor in parallel against the already-filled slots of
    /// earlier levels, as at most team-width contiguous chunks on the
    /// team's worklist.
    fn run_levels(&self, ap: &CscMat, pivot_floor: f64, snodes: &[Mutex<Option<SnodeFactor>>]) {
        for level in &self.levels {
            let chunk = level.len().div_ceil(self.team.width()).max(1);
            self.team.run_worklist(level.len().div_ceil(chunk), |i| {
                SCRATCH.with(|c| {
                    let ws = &mut c.borrow_mut();
                    for &s in level.iter().skip(i * chunk).take(chunk) {
                        self.factor_snode_into(s, ap, pivot_floor, snodes, ws);
                    }
                });
            });
        }
    }

    /// Factors one supernode (columns `d0..d1`): blocked external
    /// updates from earlier panels, dense internal elimination on the
    /// kernel ladder, static pivoting. Recycles the slot's previous
    /// storage when present (value-only refactorization).
    fn factor_snode_into(
        &self,
        s: usize,
        ap: &CscMat,
        pivot_floor: f64,
        snodes: &[Mutex<Option<SnodeFactor>>],
        ws: &mut SnodeScratch,
    ) {
        let d0 = self.sn_bounds[s];
        let d1 = self.sn_bounds[s + 1];
        let w = d1 - d0;
        let n = self.n;
        let ks = basker_kernels::active();

        let prev = snodes[s].lock().unwrap().take();
        let recycle = prev.is_some();
        let (rows, mut panel, mut u_segments, mut pivots) = match prev {
            Some(f) => (f.rows, f.panel, f.u_segments, f.pivots),
            None => {
                // Panel rows: own columns + below-row union of the L
                // patterns (prefix is strictly increasing and below the
                // tail, so one whole-vector dedup suffices).
                let mut rows: Vec<usize> = (d0..d1).collect();
                for j in d0..d1 {
                    for &r in self.lpat.col(j) {
                        if r >= d1 {
                            rows.push(r);
                        }
                    }
                }
                rows[w..].sort_unstable();
                rows.dedup();
                let nr = rows.len();
                (
                    rows,
                    vec![0.0f64; nr * w],
                    vec![Vec::new(); w],
                    vec![0.0f64; w],
                )
            }
        };
        let nr = rows.len();
        let mut flops = 0.0f64;
        let mut perturbed = 0usize;

        grown(&mut ws.spa, n * w);
        if ws.segc.len() < w {
            ws.segc.resize(w, 0);
        }
        ws.segc[..w].fill(0);

        // ---- scatter A's columns into the accumulator panel ----
        for c in 0..w {
            let col = &mut ws.spa[c * n..(c + 1) * n];
            for (r, v) in ap.col_iter(d0 + c) {
                col[r] = v;
            }
        }

        // ---- merge the columns' external updates by contributor ----
        ws.updates.clear();
        for c in 0..w {
            let j = d0 + c;
            let upat = &self.upat_rows[self.upat_colptr[j]..self.upat_colptr[j + 1]];
            let mut k = 0usize;
            while k < upat.len() {
                let t = upat[k];
                let sp = self.sn_of_col[t];
                if sp == s {
                    break; // own supernode handled internally
                }
                ws.updates.push((sp, c, t));
                while k < upat.len() && self.sn_of_col[upat[k]] == sp {
                    k += 1;
                }
            }
        }
        ws.updates.sort_unstable_by_key(|&(sp, c, _)| (sp, c));

        // ---- blocked external updates, one contributor at a time ----
        let mut gi = 0usize;
        while gi < ws.updates.len() {
            let sp = ws.updates[gi].0;
            let mut ge = gi + 1;
            while ge < ws.updates.len() && ws.updates[ge].0 == sp {
                ge += 1;
            }
            let p = ge - gi;
            let pred = snodes[sp].lock().unwrap();
            let snf = pred.as_ref().expect("dependency not factored");
            let wsp = snf.width;
            let nrp = snf.rows.len();
            let nb = nrp - wsp;
            // Per receiving column: triangular-solve the contributor's
            // diagonal block from its first active row down — this *is*
            // the column's U segment — and stage it (zero-padded) into B.
            grown(&mut ws.useg, wsp * p);
            ws.useg[..wsp * p].fill(0.0);
            for (pi, &(_, c, tmin)) in ws.updates[gi..ge].iter().enumerate() {
                let c0 = tmin - snf.d0;
                let xs = &mut ws.spa[c * n + snf.d0 + c0..c * n + snf.d0 + wsp];
                ks.trsv_lower_unit(xs, &snf.panel[c0 * nrp + c0..], nrp);
                ws.useg[pi * wsp + c0..(pi + 1) * wsp].copy_from_slice(xs);
                put_segment(&mut u_segments[c], &mut ws.segc[c], tmin, xs, recycle);
                let k = wsp - c0;
                flops += (k * (k - 1)) as f64 + 2.0 * (nb * k) as f64;
            }
            // Rank-k update of the contributor's below rows: one GEMM
            // into a zeroed staging block, then a run-detecting scatter
            // per column (`Y = −L_below·B`, `spa[rows] += Y`).
            if nb > 0 {
                grown(&mut ws.prod, nb * p);
                ws.prod[..nb * p].fill(0.0);
                ks.gemm_sub(
                    &mut ws.prod,
                    nb,
                    &snf.panel[wsp..],
                    nrp,
                    &ws.useg,
                    wsp,
                    nb,
                    p,
                    wsp,
                );
                for (pi, &(_, c, _)) in ws.updates[gi..ge].iter().enumerate() {
                    ks.scatter_axpy(
                        &mut ws.spa[c * n..(c + 1) * n],
                        &snf.rows[wsp..],
                        &ws.prod[pi * nb..(pi + 1) * nb],
                        1.0,
                    );
                }
            }
            gi = ge;
        }

        // ---- gather the updated columns into the packed panel ----
        for c in 0..w {
            let spa = &ws.spa[c * n..(c + 1) * n];
            let col = &mut panel[c * nr..(c + 1) * nr];
            col[..w].copy_from_slice(&spa[d0..d1]);
            for (idx, &r) in rows[w..].iter().enumerate() {
                col[w + idx] = spa[r];
            }
        }

        // ---- dense left-looking elimination on the kernel ladder ----
        for c in 0..w {
            let (head, tail) = panel.split_at_mut(c * nr);
            let col = &mut tail[..nr];
            let (ucol, lcol) = col.split_at_mut(c);
            if c > 0 {
                // U(d0..d0+c, j) via the unit-lower diagonal block, then
                // one GEMV clears the update into rows c..nr.
                ks.trsv_lower_unit(ucol, head, nr);
                ks.gemv_sub(lcol, &head[c..], nr, ucol);
                put_segment(&mut u_segments[c], &mut ws.segc[c], d0, ucol, recycle);
                flops += (2 * c * nr - c * c - c) as f64;
            }
            // ---- static pivot + scale ----
            let mut pv = lcol[0];
            if pv.abs() < pivot_floor {
                pv = if pv < 0.0 { -pivot_floor } else { pivot_floor };
                perturbed += 1;
            }
            pivots[c] = pv;
            lcol[0] = pv;
            for v in &mut lcol[1..] {
                *v /= pv;
            }
            flops += (nr - c - 1) as f64;
        }

        // ---- re-zero exactly the accumulator positions we touched ----
        for c in 0..w {
            let spa = &mut ws.spa[c * n..(c + 1) * n];
            spa[d0..d1].fill(0.0);
            for &r in &rows[w..] {
                spa[r] = 0.0;
            }
            for (tmin, vals) in &u_segments[c] {
                if *tmin < d0 {
                    spa[*tmin..*tmin + vals.len()].fill(0.0);
                }
            }
            for (r, _) in ap.col_iter(d0 + c) {
                spa[r] = 0.0;
            }
        }
        if recycle {
            debug_assert!((0..w).all(|c| ws.segc[c] == u_segments[c].len()));
        }

        *snodes[s].lock().unwrap() = Some(SnodeFactor {
            d0,
            rows,
            width: w,
            panel,
            u_segments,
            pivots,
            flops,
            perturbed,
        });
    }
}

/// The static-pivot threshold: `ε·‖A‖∞`, or the smallest positive f64
/// for an all-zero matrix.
fn pivot_floor(eps: f64, ap: &CscMat, rowsum: &mut [f64]) -> f64 {
    let norm = mat_norm_inf_with(ap, rowsum);
    if norm > 0.0 {
        eps * norm
    } else {
        f64::MIN_POSITIVE
    }
}

impl SnluNumeric {
    /// Refreshes the factors against new values on the same pattern.
    ///
    /// The supernodal method pivots **statically** (the MWCM permutation
    /// is fixed at analysis time and tiny pivots are perturbed rather
    /// than exchanged), so a value-only refactorization runs exactly the
    /// numeric kernels of [`Snlu::factor`] — no graph search, no new
    /// permutations — and, unlike the Gilbert–Peierls engines, can never
    /// fail on a collapsed pivot. Every buffer of the previous
    /// factorization (the retained matrices, the supernode panels, the
    /// assembled factors) is rewritten in place, so steady-state calls
    /// perform no heap allocation.
    pub fn refactor(&mut self, a: &CscMat) -> Result<()> {
        if a.nrows() != self.a.nrows()
            || a.ncols() != self.a.ncols()
            || a.colptr() != self.a.colptr()
            || a.rowind() != self.a.rowind()
        {
            return Err(SparseError::InvalidStructure(
                "refactor requires the analyzed sparsity pattern".into(),
            ));
        }
        self.a.values_mut().copy_from_slice(a.values());
        {
            let src = a.values();
            let apv = self.ap.values_mut();
            for (k, &from) in self.ap_map.iter().enumerate() {
                apv[k] = src[from];
            }
        }
        let floor = pivot_floor(self.sym.opts.pivot_eps, &self.ap, &mut self.rowsum);
        self.sym.run_levels(&self.ap, floor, &self.snodes);

        // ---- rewrite the assembled factor values in place ----
        let mut flops = 0.0f64;
        let mut perturbed = 0usize;
        {
            let lvals = self.l.values_mut();
            let mut lp = 0usize;
            let uvals = self.u.values_mut();
            let mut up = 0usize;
            for slot in &self.snodes {
                let guard = slot.lock().unwrap();
                let f = guard.as_ref().expect("missing supernode");
                flops += f.flops;
                perturbed += f.perturbed;
                let nr = f.rows.len();
                for c in 0..f.width {
                    lvals[lp] = 1.0;
                    lp += 1;
                    for idx in (c + 1)..nr {
                        lvals[lp] = f.panel[c * nr + idx];
                        lp += 1;
                    }
                    for (_, vals) in &f.u_segments[c] {
                        uvals[up..up + vals.len()].copy_from_slice(vals);
                        up += vals.len();
                    }
                    uvals[up] = f.pivots[c];
                    up += 1;
                }
            }
            debug_assert_eq!(lp, lvals.len());
            debug_assert_eq!(up, uvals.len());
        }
        self.flops = flops;
        self.perturbed_pivots = perturbed;
        Ok(())
    }

    /// Solves `A·x = b` in place with `refine_steps` sweeps of iterative
    /// refinement against the retained matrix: on entry `x` holds `b`, on
    /// exit the solution. After the workspace's first use at this
    /// dimension the call performs **no heap allocation**.
    pub fn solve_in_place(&self, x: &mut [f64], ws: &mut SolveWorkspace) {
        self.solve_in_place_against(&self.a, x, ws);
    }

    /// The refinement loop against an explicit matrix (always the
    /// retained one; split out so the matrix borrow stays disjoint from
    /// the factor borrows).
    fn solve_in_place_against(&self, a: &CscMat, x: &mut [f64], ws: &mut SolveWorkspace) {
        let n = self.l.ncols();
        assert_eq!(x.len(), n);
        let (b0, work, resid) = ws.split3(n);
        b0.copy_from_slice(x);
        self.solve_once_into(b0, work, x, false);
        for _ in 0..self.refine_steps {
            // r = b - A·x, then x += A⁻¹·r
            resid.copy_from_slice(b0);
            spmv_sub(a, x, resid);
            self.solve_once_into(resid, work, x, true);
        }
    }

    /// Solves several right-hand sides packed column-major in `xs`
    /// (`xs.len()` must be a multiple of `n`); each length-`n` chunk is
    /// overwritten with its solution.
    pub fn solve_multi_in_place(&self, xs: &mut [f64], ws: &mut SolveWorkspace) {
        basker_sparse::workspace::for_each_rhs(self.l.ncols(), xs, |rhs| {
            self.solve_in_place(rhs, ws)
        });
    }

    /// `(min |pivot|, max |pivot|)` over the (possibly perturbed) static
    /// pivots — together with [`perturbed_pivots`](Self::perturbed_pivots)
    /// the quality signal the session layer's adaptive reuse policy
    /// watches. `(∞, 0)` for an empty matrix.
    pub fn pivot_range(&self) -> (f64, f64) {
        basker_sparse::util::u_diag_pivot_range(&self.u)
    }

    /// One triangular-solve pass `out ← (or +=) A⁻¹·rhs` through the
    /// assembled factors; `work` is clobbered. `rhs` and `out` must not
    /// alias (`rhs` is always a workspace buffer here).
    fn solve_once_into(&self, rhs: &[f64], work: &mut [f64], out: &mut [f64], add: bool) {
        self.sym.row_perm.apply_vec_into(rhs, work);
        let rows = basker_kernels::rows_mut::<1>(work);
        lower_solve_in_place(&self.l, rows);
        upper_solve_in_place(&self.u, rows);
        for (k, &orig) in self.sym.col_perm.as_slice().iter().enumerate() {
            if add {
                out[orig] += work[k];
            } else {
                out[orig] = work[k];
            }
        }
    }

    /// The assembled unit-lower factor (tests/diagnostics).
    pub fn l(&self) -> &CscMat {
        &self.l
    }

    /// The assembled upper factor.
    pub fn u(&self) -> &CscMat {
        &self.u
    }

    /// The symbolic analysis these factors share.
    pub fn symbolic(&self) -> &Snlu {
        &self.sym
    }

    /// The matrix retained for iterative refinement.
    pub fn matrix(&self) -> &CscMat {
        &self.a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::SnluOptions;
    use basker_sparse::spmv::spmv;
    use basker_sparse::util::relative_residual;
    use basker_sparse::TripletMat;

    /// Test-side allocating convenience over the in-place path (the
    /// legacy `solve(a, b)` wrapper removed from the public API; the
    /// in-place path refines against the retained matrix).
    fn solve(num: &SnluNumeric, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        num.solve_in_place(&mut x, &mut SolveWorkspace::new());
        x
    }

    fn grid2d(k: usize) -> CscMat {
        let n = k * k;
        let idx = |r: usize, c: usize| r * k + c;
        let mut t = TripletMat::new(n, n);
        for r in 0..k {
            for c in 0..k {
                let u = idx(r, c);
                t.push(u, u, 4.0 + (u % 2) as f64);
                if r + 1 < k {
                    t.push(u, idx(r + 1, c), -1.0);
                    t.push(idx(r + 1, c), u, -1.2);
                }
                if c + 1 < k {
                    t.push(u, idx(r, c + 1), -0.8);
                    t.push(idx(r, c + 1), u, -1.0);
                }
            }
        }
        t.to_csc()
    }

    fn check(a: &CscMat, opts: &SnluOptions) {
        let sym = Snlu::analyze(a, opts).unwrap();
        let num = sym.factor(a).unwrap();
        let xtrue: Vec<f64> = (0..a.ncols()).map(|i| 1.0 + (i % 5) as f64 * 0.5).collect();
        let b = spmv(a, &xtrue);
        let x = solve(&num, &b);
        assert!(
            relative_residual(a, &x, &b) < 1e-10,
            "residual {} too large",
            relative_residual(a, &x, &b)
        );
    }

    #[test]
    fn factor_solve_mesh() {
        for p in [1usize, 2, 4] {
            check(
                &grid2d(8),
                &SnluOptions {
                    nthreads: p,
                    ..SnluOptions::default()
                },
            );
        }
    }

    #[test]
    fn relaxed_supernodes_solve() {
        check(
            &grid2d(7),
            &SnluOptions {
                supernode_relax: 4,
                ..SnluOptions::default()
            },
        );
    }

    #[test]
    fn unsymmetric_circuitish_matrix() {
        let n = 40;
        let mut t = TripletMat::new(n, n);
        let mut s = 5u64;
        let mut rnd = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as usize
        };
        for i in 0..n {
            t.push(i, i, 20.0 + (i % 7) as f64);
        }
        for _ in 0..3 * n {
            let (i, j) = (rnd() % n, rnd() % n);
            if i != j {
                t.push(i, j, 1.0 + (rnd() % 3) as f64 * 0.5);
            }
        }
        check(&t.to_csc(), &SnluOptions::default());
    }

    #[test]
    fn perturbation_rescues_zero_pivot() {
        // Structurally fine but numerically singular leading block; static
        // pivoting must perturb and refinement keeps the residual usable
        // for the well-conditioned part. We verify it does not panic and
        // reports the perturbation.
        let mut t = TripletMat::new(3, 3);
        t.push(0, 0, 1e-30);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 1.0);
        t.push(2, 2, 5.0);
        let a = t.to_csc();
        let sym = Snlu::analyze(&a, &SnluOptions::default()).unwrap();
        let num = sym.factor(&a).unwrap();
        // The MWCM avoids the tiny entry, so no perturbation may even be
        // needed; either way the solve must work.
        let b = vec![1.0, 2.0, 5.0];
        let x = solve(&num, &b);
        assert!(relative_residual(&a, &x, &b) < 1e-8);
    }

    #[test]
    fn memory_metric_exceeds_pattern_on_mesh() {
        let a = grid2d(10);
        let sym = Snlu::analyze(&a, &SnluOptions::default()).unwrap();
        let num = sym.factor(&a).unwrap();
        // panel storage counts explicit zeros: >= the sparse pattern count
        assert!(num.lu_nnz >= sym.pattern_nnz() * 9 / 10);
        assert!(num.flops > 0.0);
    }

    #[test]
    fn identity_matrix() {
        let a = CscMat::identity(6);
        let sym = Snlu::analyze(&a, &SnluOptions::default()).unwrap();
        let num = sym.factor(&a).unwrap();
        let x = solve(&num, &[3.0; 6]);
        for v in x {
            assert!((v - 3.0).abs() < 1e-14);
        }
    }

    #[test]
    fn refactor_reuses_storage_and_matches_fresh_factor() {
        let a = grid2d(8);
        let sym = Snlu::analyze(&a, &SnluOptions::default()).unwrap();
        let mut num = sym.factor(&a).unwrap();
        // Same pattern, different values.
        let mut a2 = a.clone();
        for (k, v) in a2.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + 0.01 * (k % 11) as f64;
        }
        num.refactor(&a2).unwrap();
        let fresh = sym.factor(&a2).unwrap();
        // The refactored values must match a from-scratch factorization
        // exactly: both paths run the same kernels in the same order.
        assert_eq!(num.l().values(), fresh.l().values());
        assert_eq!(num.u().values(), fresh.u().values());
        let xtrue: Vec<f64> = (0..a2.ncols()).map(|i| 1.0 + (i % 3) as f64).collect();
        let b = spmv(&a2, &xtrue);
        let x = solve(&num, &b);
        assert!(relative_residual(&a2, &x, &b) < 1e-10);
    }

    #[test]
    fn refactor_rejects_different_pattern() {
        let a = grid2d(5);
        let sym = Snlu::analyze(&a, &SnluOptions::default()).unwrap();
        let mut num = sym.factor(&a).unwrap();
        let other = CscMat::identity(a.ncols());
        assert!(num.refactor(&other).is_err());
    }
}
