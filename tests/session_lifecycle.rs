//! Integration: the `SolveSession` lifecycle under adversarial value
//! drift — hard pivot collapse mid-stream (singular-pivot fallback),
//! gradual pivot decay (adaptive quality gates), and iterative
//! refinement rescuing an ill-conditioned solve. No error may escape the
//! session in any of these scenarios. Also the batched refined solve's
//! contract: one residual-gate re-pivot per call with every column
//! re-solved, and `xs` restored on an error.

use basker_repro::prelude::*;

/// A 13×13 matrix of 2×2 BTF blocks plus one **forced-transversal
/// singleton**, with strictly block-upper couplings.
///
/// Two engineered weak spots:
/// * block 0 is `[[d, 2.5], [1, 1]]` — the pivoting engines freeze the
///   `d` pivot at the first factorization (it starts at 10, dominant)
///   and suffer as it drifts; its determinant `d − 2.5` stays nonzero
///   at every drift value used below, so a *fresh* pivoting
///   factorization always recovers;
/// * index 2 is a 1×1 block holding `e`, the **only** entry of its row
///   and column — every transversal must pivot on it, so even the
///   static-pivoting engine (whose MWCM would otherwise route around a
///   decaying entry) is exposed to its drift.
fn drifting(d: f64, e: f64) -> CscMat {
    let n = 13;
    let mut t = TripletMat::new(n, n);
    t.push(0, 0, d);
    t.push(0, 1, 2.5);
    t.push(1, 0, 1.0);
    t.push(1, 1, 1.0);
    t.push(2, 2, e);
    for k in 0..5 {
        let (i, j) = (3 + 2 * k, 4 + 2 * k);
        t.push(i, i, 10.0 + k as f64);
        t.push(j, j, 5.0 + k as f64);
        t.push(i, j, 1.0);
        t.push(j, i, 1.0);
    }
    // strictly block-upper couplings (skipping row/col 2, which must
    // stay a forced singleton): block k → block k+1
    t.push(0, 3, 0.5);
    for k in 0..4 {
        t.push(3 + 2 * k, 5 + 2 * k, 0.5);
    }
    t.to_csc()
}

/// Satellite: a linear drift takes the frozen pivot through **exactly
/// zero** mid-stream. The pivoting engines must take the singular-pivot
/// fallback (a fresh factorization) without the error escaping; the
/// static-pivoting engine never fails a refactor in the first place.
#[test]
fn hard_pivot_collapse_triggers_fallback_without_escaping() {
    for engine in [Engine::Klu, Engine::Basker, Engine::Snlu] {
        let a0 = drifting(10.0, 8.0);
        let cfg = SessionConfig::new()
            .engine(engine)
            .threads(2)
            .policy(ReusePolicy::AlwaysRefactor)
            .target_residual(1e-9);
        let mut session = SolveSession::new(&a0, &cfg).unwrap();
        let b = vec![1.0; 13];
        let mut x = vec![0.0; 13];
        for s in 0..=12 {
            // d = 10 − s: hits 0.0 exactly at s = 10 while the block
            // stays nonsingular (det = 7.5 − s ≠ 0 at integers).
            let m = drifting(10.0 - s as f64, 8.0);
            session
                .step(&m)
                .unwrap_or_else(|e| panic!("{engine} step {s}: {e}"));
            x.copy_from_slice(&b);
            let q = session.solve_refined(&mut x).unwrap();
            assert!(
                q.residual < 1e-8,
                "{engine} step {s}: residual {}",
                q.residual
            );
        }
        let st = session.stats();
        assert_eq!(st.steps, 13, "{engine}");
        if engine == Engine::Snlu {
            // static pivoting perturbs instead of failing
            assert_eq!(st.repivot_fallbacks, 0, "{engine}");
        } else {
            assert!(
                st.repivot_fallbacks >= 1,
                "{engine}: the zero crossing must force a re-pivot fallback \
                 (stats: {st:?})"
            );
        }
    }
}

/// The same collapse where the refactorization runs as stage items on
/// the team: one irreducible mesh block at two threads is an ND block
/// of two leaves under a separator, and the entry driven through zero
/// is the first pivot of the **second leaf** (no update touches a
/// leaf's first column, so the frozen pivot is that entry exactly). The
/// item that hits it reports the column, the other leaf's item runs to
/// its end, and the session re-pivots once — the mesh stays
/// nonsingular, so the fresh factorization picks another row.
#[test]
fn nd_leaf_pivot_collapse_on_the_team_triggers_one_fallback() {
    use basker_repro::basker::Basker;

    // 1 296 rows: each leaf carries enough recorded flops that the
    // leaf stage is dispatched to the team, not run inline.
    let a0 = mesh2d(36, 3);
    let solver = SolverConfig::new()
        .engine(Engine::Basker)
        .threads(2)
        .nd_threshold(32);
    let sym = Basker::analyze(&a0, &solver.basker_options()).unwrap();
    let st = sym.structure();
    let nds = (st.nd_block(0)).expect("the mesh must be one ND-laid-out block");
    assert_eq!(nds.nnodes(), 3, "two leaves under one separator");
    let k = st.bounds[0] + nds.nd.nodes[nds.leaf_of_thread[1]].range.start;
    let (row, col) = (st.row_perm.as_slice()[k], st.col_perm.as_slice()[k]);
    let slot = a0.colptr()[col]
        + a0.col_rows(col)
            .iter()
            .position(|&r| r == row)
            .expect("the permuted diagonal is structurally nonzero");

    let cfg = SessionConfig::new()
        .solver(solver)
        .policy(ReusePolicy::AlwaysRefactor)
        .target_residual(1e-9);
    let mut session = SolveSession::new(&a0, &cfg).unwrap();
    let b = vec![1.0; a0.ncols()];
    let mut x = b.clone();
    for s in 0..=6 {
        // The entry scales by 1 − s/4: exactly zero at s = 4.
        let mut m = a0.clone();
        m.values_mut()[slot] *= 1.0 - s as f64 / 4.0;
        session.step(&m).unwrap_or_else(|e| panic!("step {s}: {e}"));
        x.copy_from_slice(&b);
        let q = session.solve_refined(&mut x).unwrap();
        assert!(q.residual < 1e-8, "step {s}: residual {}", q.residual);
    }
    let st = session.stats();
    assert_eq!((st.steps, st.factors), (7, 2), "{st:?}");
    assert_eq!(st.repivot_fallbacks, 1, "{st:?}");
}

/// Satellite: an exponential decay makes the frozen pivot *unstable*
/// without ever reaching exact zero — refactorization keeps succeeding,
/// but with explosive pivot growth. The adaptive policy must notice
/// (growth/rcond gates for the pivoting engines, the
/// perturbation/growth gates for the static-pivoting engine) and
/// re-pivot on all three engines, again without any error escaping.
#[test]
fn adaptive_gates_repivot_on_unstable_drift() {
    for engine in [Engine::Klu, Engine::Basker, Engine::Snlu] {
        let a0 = drifting(10.0, 8.0);
        let cfg = SessionConfig::new()
            .engine(engine)
            .threads(2)
            .policy(ReusePolicy::Adaptive {
                growth_limit: 1e4,
                residual_limit: 1e-8,
            })
            .target_residual(1e-10);
        let mut session = SolveSession::new(&a0, &cfg).unwrap();
        let b = vec![1.0; 13];
        let mut x = vec![0.0; 13];
        for s in 0..=12 {
            // d = 10^(1−s): decays to 1e-11, far below any healthy
            // pivot, but never exactly zero.
            let m = drifting(10f64.powi(1 - s), 10f64.powi(1 - s));
            session
                .step(&m)
                .unwrap_or_else(|e| panic!("{engine} step {s}: {e}"));
            x.copy_from_slice(&b);
            let q = session.solve_refined(&mut x).unwrap();
            assert!(
                q.residual < 1e-7,
                "{engine} step {s}: residual {}",
                q.residual
            );
        }
        let st = session.stats();
        assert!(
            st.quality_repivots >= 1,
            "{engine}: decaying pivot must trip an adaptive gate (stats: {st:?})"
        );
        assert_eq!(
            st.repivot_fallbacks, 0,
            "{engine}: the gate must fire before any hard collapse (stats: {st:?})"
        );
    }
}

/// Satellite: an ill-conditioned system where the plain solve misses the
/// residual target but `solve_refined` meets it, with
/// `SolveQuality::iterations > 0`. A tiny pivot tolerance forces the
/// Gilbert–Peierls engines to keep a 1e-12 diagonal pivot, which costs
/// ~8 digits of accuracy that refinement wins back.
#[test]
fn refinement_rescues_ill_conditioned_solve() {
    let n = 6;
    let mut t = TripletMat::new(n, n);
    t.push(0, 0, 1e-12);
    t.push(0, 1, 1.0);
    t.push(1, 0, 1.0);
    t.push(1, 1, 1.0);
    for i in 2..n {
        t.push(i, i, 3.0 + i as f64);
    }
    let a = t.to_csc();

    for engine in [Engine::Klu, Engine::Basker] {
        let cfg = SessionConfig::new()
            .solver(
                SolverConfig::new()
                    .engine(engine)
                    .threads(2)
                    // No BTF/MWCM: the bottleneck transversal would
                    // permute the healthy 1.0 onto the diagonal and
                    // defeat the scenario.
                    .use_btf(false)
                    // keep the 1e-12 diagonal as pivot: |1e-12| >= 1e-13 * 1.0
                    .pivot_tol(1e-13),
            )
            .target_residual(1e-12)
            .max_refine_iterations(4);
        let mut session = SolveSession::new(&a, &cfg).unwrap();
        session.step(&a).unwrap();

        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut x = b.clone();
        let q = session.solve_refined(&mut x).unwrap();
        assert!(
            q.initial_residual > 1e-12,
            "{engine}: the plain solve should miss the target with a frozen \
             tiny pivot (initial residual {})",
            q.initial_residual
        );
        assert!(
            q.iterations > 0,
            "{engine}: refinement must have run ({q:?})"
        );
        assert!(
            q.converged && q.residual <= 1e-12,
            "{engine}: refinement must reach the target ({q:?})"
        );
        assert_eq!(session.stats().refine_iterations, q.iterations);
    }
}

/// The session surfaces the same quality data the policies consume.
#[test]
fn session_exposes_quality_and_stats() {
    let a = drifting(10.0, 8.0);
    let mut session =
        SolveSession::new(&a, &SessionConfig::new().engine(Engine::Basker).threads(2)).unwrap();
    assert!(session.quality().is_none(), "no factors before first step");
    session.step(&a).unwrap();
    let q = session.quality().unwrap();
    assert!(q.min_pivot > 0.0 && q.min_pivot <= q.max_pivot);
    assert!(q.rcond_estimate() > 0.0);
    assert_eq!(session.stats().last_factor.engine, Some(Engine::Basker));
    assert_eq!(session.state(), SessionState::Factored);
    assert_eq!(session.dim(), 13);
}

/// Right-hand side `c` of the gate tests: only column 2 loads block 0
/// (rows 0 and 1); the others reach it through a chain of five weak
/// couplings, too faintly for its pivot to cost them accuracy.
fn gate_rhs(c: usize) -> Vec<f64> {
    let mut b = vec![0.0; 13];
    b[2] = 1.0 + c as f64;
    b[11] = 2.0 - c as f64;
    if c == 2 {
        b[0] = 1.0;
        b[1] = 1.0;
    }
    b
}

/// A session on `solver` two steps in, the second `m`: factors reused
/// across a collapse of block 0's frozen pivot (10 → 1e-9) that the
/// step-time gates are told to tolerate — only the residual gate can
/// object — with refinement off so it has to.
fn on_decayed_pivot(solver: SolverConfig, m: CscMat) -> (SolveSession, CscMat) {
    let cfg = SessionConfig::new()
        .solver(solver)
        .policy(ReusePolicy::Adaptive {
            growth_limit: f64::INFINITY,
            residual_limit: 1e-10,
        })
        .max_refine_iterations(0);
    let a = drifting(10.0, 8.0);
    let mut session = SolveSession::new(&a, &cfg).unwrap();
    session.step(&a).unwrap();
    assert_eq!(session.step(&m).unwrap(), SessionState::Refactored);
    (session, m)
}

/// Satellite: the residual gate trips on the middle column of five. It
/// fires once, re-pivots, and re-solves the *whole* batch — every
/// returned column and quality comes from the fresh factors.
#[test]
fn residual_gate_fires_once_and_resolves_the_whole_batch() {
    for engine in [Engine::Klu, Engine::Basker] {
        let cfg = SolverConfig::new().engine(engine).threads(2);
        let (mut session, m) = on_decayed_pivot(cfg, drifting(1e-9, 8.0));
        let b: Vec<f64> = (0..5).flat_map(gate_rhs).collect();

        // The scenario is what it claims: on the reused factors only
        // column 2 misses the limit.
        let reused = session.numeric().unwrap();
        for c in 0..5 {
            let mut x = gate_rhs(c);
            reused
                .solve_in_place(&mut x, &mut SolveWorkspace::new())
                .unwrap();
            let missed = relative_residual(&m, &x, &gate_rhs(c)) > 1e-10;
            assert_eq!(missed, c == 2, "{engine}: column {c} on reused factors");
        }

        let mut xs = b.clone();
        let qs = session.solve_refined_multi(&mut xs).unwrap();
        let st = session.stats();
        assert_eq!(st.quality_repivots, 1, "{engine}: {st:?}");
        assert_eq!(session.state(), SessionState::Repivoted);
        assert_eq!((st.solves, st.factors), (5, 2), "{engine}: {st:?}");
        // Two passes of a 4-panel and a 1-panel.
        assert_eq!(st.solve_sweeps, 4, "{engine}: {st:?}");
        assert!(qs.iter().all(|q| q.converged), "{engine}: {qs:?}");
        let worst = qs.iter().fold(0.0f64, |w, q| w.max(q.residual));
        assert_eq!(st.worst_residual, worst, "returned columns only");

        let fresh = session.solver().factor(&m).unwrap();
        for c in 0..5 {
            let mut want = gate_rhs(c);
            fresh
                .solve_in_place(&mut want, &mut SolveWorkspace::new())
                .unwrap();
            for (got, want) in xs[c * 13..(c + 1) * 13].iter().zip(&want) {
                assert!(
                    (got - want).abs() <= 1e-10,
                    "{engine}: column {c}: {got} vs fresh {want}"
                );
            }
        }

        // The gate is spent for this step: a second call stays put.
        let mut again = b.clone();
        session.solve_refined_multi(&mut again).unwrap();
        assert_eq!(session.stats().quality_repivots, 1);
        assert_eq!(again, xs, "{engine}: same factors, same bits");
    }
}

/// `drifting(1e-9, 8.0)` with its last block, rows and columns 11 and
/// 12, set to `[[h, h], [1, 1]]` for `h = 49·2⁻²⁰`: singular, but only
/// a fresh pivoting factorization finds out. Below the pivot tolerance
/// `h` loses column 11 to the 1 under it, and the elimination leaves
/// exactly `h − h·1 = 0` in column 12; the frozen order keeps `h` and
/// leaves `1 − fl(1/h)·h`, which rounding keeps nonzero, so a
/// refactor succeeds.
fn singular_to_a_fresh_factor() -> CscMat {
    let h = 49.0 * 2f64.powi(-20);
    let mut m = drifting(1e-9, 8.0);
    let (colptr, rowind) = (m.colptr().to_vec(), m.rowind().to_vec());
    for (i, j, v) in [(11, 11, h), (11, 12, h), (12, 12, 1.0)] {
        let p = (colptr[j]..colptr[j + 1]).find(|&p| rowind[p] == i);
        m.values_mut()[p.expect("in the pattern")] = v;
    }
    m
}

/// Satellite: the gate's fresh factorization fails mid-call. The error
/// propagates with every column of `xs` holding its `b` again, nothing
/// counted, and the (valid, inaccurate) reused factors still installed.
#[test]
fn failed_gate_repivot_restores_every_column() {
    let klu = SolverConfig::new().engine(Engine::Klu);
    let (mut session, _) = on_decayed_pivot(klu, singular_to_a_fresh_factor());
    let before = *session.stats();

    let b: Vec<f64> = (0..5).flat_map(gate_rhs).collect();
    let mut xs = b.clone();
    let err = session.solve_refined_multi(&mut xs).unwrap_err();
    assert!(matches!(err, SolverError::SingularPivot { .. }), "{err}");
    assert_eq!(
        xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "xs must hold b again, bit for bit"
    );
    let st = session.stats();
    assert_eq!(
        (st.solves, st.solve_sweeps, st.quality_repivots, st.factors),
        (
            before.solves,
            before.solve_sweeps,
            before.quality_repivots,
            before.factors
        )
    );
    assert_eq!(st.worst_residual, before.worst_residual);
    assert_eq!(session.state(), SessionState::Refactored);

    // The same call succeeds once the stream steps a matrix a fresh
    // factorization can take.
    session.step(&drifting(1e-9, 8.0)).unwrap();
    let qs = session.solve_refined_multi(&mut xs).unwrap();
    assert!(qs.iter().all(|q| q.converged));
    assert_eq!(session.stats().solves, before.solves + 5);
}

/// Observability: `solve_sweeps` shows the panel path ran — 8
/// right-hand sides are one walk over the factors, 13 are three
/// (8 + 4 + 1), and a single solve is one.
#[test]
fn solve_sweeps_count_panels_not_columns() {
    let a = drifting(10.0, 8.0);
    for engine in [Engine::Klu, Engine::Basker, Engine::Snlu] {
        let mut session =
            SolveSession::new(&a, &SessionConfig::new().engine(engine).threads(2)).unwrap();
        session.step(&a).unwrap();
        let panels = |k: usize| match engine {
            Engine::Snlu => k, // no panel sweep: column by column
            _ => k / 8 + (k % 8).count_ones() as usize,
        };
        let mut expect = (0, 0);
        let mut check = |session: &SolveSession, k: usize, what: &str| {
            expect = (expect.0 + k, expect.1 + panels(k));
            let st = session.stats();
            assert_eq!(
                (st.solves, st.solve_sweeps),
                expect,
                "{engine} after {what}"
            );
        };
        let rhs = |k: usize| -> Vec<f64> { (0..k).flat_map(gate_rhs).collect() };
        session.solve_refined_multi(&mut rhs(8)).unwrap();
        check(&session, 8, "8 refined");
        session.solve_refined_multi(&mut rhs(13)).unwrap();
        check(&session, 13, "13 refined");
        session.solve_multi(&mut rhs(13)).unwrap();
        check(&session, 13, "13 plain");
        session.solve_refined(&mut rhs(1)).unwrap();
        check(&session, 1, "1 refined");
        session.solve(&mut rhs(1)).unwrap();
        check(&session, 1, "1 plain");
        assert_eq!(session.stats().refine_iterations, 0, "{engine}");
    }
}

/// One irreducible mesh block, then a tail of 1×1 blocks: both block
/// kinds of the driver.
fn heterogeneous() -> CscMat {
    let g = mesh2d(12, 3);
    let (gn, tiny) = (g.nrows(), 40);
    let mut t = TripletMat::new(gn + tiny, gn + tiny);
    for (i, j, v) in g.iter() {
        t.push(i, j, v);
    }
    for q in gn..gn + tiny {
        t.push(q, q, 5.0 + (q % 4) as f64);
        t.push(q % gn, q, -0.25);
    }
    t.to_csc()
}

/// `a`'s pattern with every value scaled by `f`.
fn scaled(a: &CscMat, f: f64) -> CscMat {
    let mut m = a.clone();
    m.values_mut().iter_mut().for_each(|v| *v *= f);
    m
}

/// The plan a driver handle executes, read off its block layout: per
/// BTF block, its rows and its ND leaves (0 for a fine-BTF block).
fn plan(sym: &Basker) -> Vec<(usize, usize)> {
    let st = sym.structure();
    (0..st.nblocks())
        .map(|b| {
            let leaves = st.nd_block(b).map_or(0, |nds| nds.leaf_of_thread.len());
            (st.bounds[b + 1] - st.bounds[b], leaves)
        })
        .collect()
}

/// The `(gp, 0, nd)` counts of a plan.
fn counts(plan: &[(usize, usize)]) -> (usize, usize, usize) {
    let nd = plan.iter().filter(|&&(_, leaves)| leaves > 0).count();
    (plan.len() - nd, 0, nd)
}

/// A hybrid session is a `Basker` session: its first step is an
/// ordinary factor and every later one an ordinary refactor — no step is
/// spent measuring a plan.
#[test]
fn hybrid_session_steps_are_the_reuse_policy_and_nothing_else() {
    let a = heterogeneous();
    let cfg = SessionConfig::new()
        .engine(Engine::Hybrid)
        .threads(2)
        .policy(ReusePolicy::adaptive());
    let mut session = SolveSession::new(&a, &cfg).unwrap();
    for k in 0..3 {
        session.step(&scaled(&a, 1.0 + 0.01 * k as f64)).unwrap();
        let mut x = vec![1.0; a.nrows()];
        assert!(session.solve_refined(&mut x).unwrap().converged);
    }
    let st = session.stats();
    assert_eq!((st.factors, st.refactors), (1, 2));
    assert_eq!(st.routing_probes, 0);
    assert_eq!(session.solver().engine(), Engine::Basker);
    let num = session.numeric().unwrap().as_basker().unwrap();
    let (gp, sn, nd) = num.stats.strategy_counts();
    assert!(
        gp > 0 && sn == 0 && nd == 1,
        "both kinds: {:?}",
        (gp, sn, nd)
    );
}

/// Same-pattern sessions at different thread counts, opened in either
/// order, each execute the plan their own analyze fixed for their own
/// thread count: nothing learned by one session reaches another.
#[test]
fn hybrid_sessions_execute_their_own_analyze_time_plan() {
    let a = heterogeneous();
    let mut executed = Vec::new();
    for threads in [1, 2, 2, 1] {
        let cfg = SessionConfig::new().engine(Engine::Hybrid).threads(threads);
        let mut session = SolveSession::new(&a, &cfg).unwrap();
        for k in 0..2 {
            session.step(&scaled(&a, 1.0 + 0.01 * k as f64)).unwrap();
        }
        let executing = plan(session.solver().as_basker().unwrap());
        let own = Basker::analyze(&a, &cfg.solver_config().hybrid_options()).unwrap();
        assert_eq!(executing, plan(&own), "x{threads}");
        let num = session.numeric().unwrap().as_basker().unwrap();
        assert_eq!(
            num.stats.strategy_counts(),
            counts(&executing),
            "x{threads}"
        );
        assert_eq!(session.stats().routing_probes, 0);
        executed.push(executing);
    }
    assert_eq!(executed[0], executed[3], "one plan per thread count");
    assert_eq!(executed[1], executed[2]);
    // The mesh block goes to the team at either width, with one leaf
    // per rank.
    let leaves = |plan: &[(usize, usize)]| plan.iter().map(|p| p.1).max();
    assert_eq!(leaves(&executed[0]), Some(1));
    assert_eq!(leaves(&executed[1]), Some(2));
}

/// The bits a refined solve returns: every solution entry, then every
/// quality field.
fn refined_bits(xs: &[f64], qs: &[SolveQuality]) -> Vec<u64> {
    let q = qs.iter().flat_map(|q| {
        [
            q.iterations as u64,
            q.initial_residual.to_bits(),
            q.residual.to_bits(),
            q.converged as u64,
        ]
    });
    xs.iter().map(|v| v.to_bits()).chain(q).collect()
}

/// Satellite: a batched refined solve dealt to the team's ranks returns
/// what the same call returns run inline, bit for bit, for every `K` —
/// with no refinement and with one correction sweep per column, on a
/// power grid of tiny blocks, one ND mesh block and a circuit of both
/// kinds, at widths 1, 2 and 4. The mesh's and the circuit's factors
/// depend on the width (an ND leaf per rank), so the inline run is the
/// same session called again from a rank of its own team, where the
/// pass stays on the caller.
#[test]
fn refined_multi_is_bit_identical_at_every_width() {
    let grid = powergrid(&PowergridParams {
        nfeeders: 200,
        feeder_len: 30,
        loop_prob: 0.1,
        seed: 1,
    });
    let mixed = circuit(&CircuitParams::default());
    // Each with whether it has Gilbert–Peierls blocks and ND blocks.
    let cases = [
        ("power grid", grid, (true, false)),
        ("mesh", mesh2d(40, 3), (false, true)),
        ("circuit", mixed, (true, true)),
    ];
    for (what, a, kinds) in &cases {
        let n = a.ncols();
        let rhs = |k: usize| -> Vec<f64> {
            (0..k * n)
                .map(|t| 1.0 + ((t * 7919) % 1000) as f64 / 250.0)
                .collect()
        };
        for (target, iterations) in [(1e-10, 4), (0.0, 1)] {
            for threads in [1usize, 2, 4] {
                let cfg = SessionConfig::new()
                    .engine(Engine::Basker)
                    .threads(threads)
                    .target_residual(target)
                    .max_refine_iterations(iterations);
                let mut session = SolveSession::new(a, &cfg).unwrap();
                session.step(a).unwrap();
                let num = session.numeric().unwrap().as_basker().unwrap();
                let (gp, _, nd) = num.stats.strategy_counts();
                assert_eq!((gp > 0, nd > 0), *kinds, "{what}");
                let team = basker_repro::basker_runtime::shared_team(threads, false);
                // A call's bits, and the sweeps and refinement
                // iterations it added to the stats.
                let call = |session: &mut SolveSession, k: usize| {
                    let before = *session.stats();
                    let mut xs = rhs(k);
                    let qs = session.solve_refined_multi(&mut xs).unwrap();
                    let st = session.stats();
                    let added = (
                        st.solve_sweeps - before.solve_sweeps,
                        st.refine_iterations - before.refine_iterations,
                    );
                    (refined_bits(&xs, &qs), added)
                };
                for k in [1usize, 2, 3, 5, 8, 13] {
                    let at = format!("{what}, target {target}, x{threads}, K = {k}");
                    let (dealt, (sweeps, refined)) = call(&mut session, k);
                    let shared = std::sync::Mutex::new(&mut session);
                    let inline = std::sync::OnceLock::new();
                    team.run_worklist(2, |job| {
                        if job == 0 {
                            inline.get_or_init(|| call(&mut shared.lock().unwrap(), k));
                        }
                    });
                    let (want, (inline_sweeps, inline_refined)) = inline.into_inner().unwrap();
                    assert!(dealt == want, "{at}");
                    assert_eq!(refined, inline_refined, "{at}");
                    // From a rank of its own team the call swept today's
                    // panels (8 + 4 + 1 for 13 columns).
                    assert_eq!(inline_sweeps, k / 8 + (k % 8).count_ones() as usize, "{at}");
                    // The comparison means something: on two ranks 8
                    // columns were dealt as two panels of 4, on four as
                    // four of 2.
                    if k == 8 {
                        assert_eq!(sweeps, threads, "{at}");
                    }
                }
            }
        }
    }
}
