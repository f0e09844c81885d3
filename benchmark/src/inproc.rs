//! The four in-process workloads: a closed loop over `SolveSession`,
//! with a serial-KLU reference lane on every fourth step.

use crate::check::{relative_difference, step_ok, Checker};
use crate::inputs::{rhs, Family, Ring, Workload};
use crate::run::{Options, Window, PAIR_EVERY, SETUP_REPS, WARMUP_STEPS};
use crate::stats;
use crate::sysinfo;
use crate::trace::Trace;
use basker_api::{SessionConfig, SolveSession, SolverError};
use basker_sparse::CscMat;
use std::time::{Duration, Instant};

/// Steps per block of a traced window: tracing alternates off and on
/// block by block, so both halves see the same mix of steps and one
/// reference pair each.
const TRACE_BLOCK: usize = PAIR_EVERY;

/// One refined step of a session: `step(m)` then the refined solve of
/// every packed right-hand side in `x`, under one op span.
pub fn session_step(
    session: &mut SolveSession,
    m: &CscMat,
    x: &mut [f64],
    trace: &mut Trace,
    op: u64,
    parent: Option<usize>,
) -> Result<(), SolverError> {
    trace
        .span("api.session.step", op, parent, || session.step(m))
        .0?;
    trace
        .span("api.session.solve_refined", op, parent, || {
            if x.len() == session.dim() {
                session.solve_refined(x).map(|_| ())
            } else {
                session.solve_refined_multi(x).map(|_| ())
            }
        })
        .0
}

/// Accumulates what the window measures.
struct Recorder {
    checker: Checker,
    window: Window,
    pairs: Vec<(f64, f64)>,
    klu_busy_s: f64,
    klu_steps: u64,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            checker: Checker::new(),
            window: Window::default(),
            pairs: Vec::new(),
            klu_busy_s: 0.0,
            klu_steps: 0,
        }
    }

    /// Books one system step: its outcome, latency, CPU, and — checked
    /// outside the timed section — whether its answer is right.
    #[allow(clippy::too_many_arguments)]
    fn system(
        &mut self,
        outcome: Result<(), SolverError>,
        secs: f64,
        cpu_ms: f64,
        traced: bool,
        a: &CscMat,
        x: &[f64],
        b: &[f64],
        reference: Option<&(f64, Vec<f64>)>,
    ) {
        let w = &mut self.window;
        w.attempted += 1;
        w.cpu_ms += cpu_ms;
        let ok = match outcome {
            Ok(()) => {
                let residual = self.checker.worst_residual(a, x, b);
                let vs = reference.map(|(_, xr)| relative_difference(x, xr));
                step_ok(residual, vs)
            }
            Err(e) => {
                eprintln!("step {} failed: {e}", w.attempted);
                false
            }
        };
        if !ok {
            w.failed += 1;
            return;
        }
        w.busy_s += secs;
        w.step_ms.push(secs * 1e3);
        w.class_step_ms[usize::from(traced)].push(secs * 1e3);
        if let Some((klu_secs, _)) = reference {
            self.pairs.push((*klu_secs, secs));
        }
    }

    fn reference(&mut self, secs: f64) {
        self.klu_busy_s += secs;
        self.klu_steps += 1;
    }

    fn finish(mut self, setup_times: &[f64], threads_before: usize) -> Window {
        let w = &mut self.window;
        w.setup_s = stats::median(setup_times).unwrap_or(f64::NAN);
        w.speedup_vs_klu = stats::pair_median(&self.pairs).unwrap_or(f64::NAN);
        w.pairs = self.pairs.len();
        w.klu_steps_per_s = self.klu_steps as f64 / self.klu_busy_s;
        w.os_threads_spawned = basker_runtime::os_threads_spawned() - threads_before;
        self.window
    }
}

/// Times `f`, returning its value and the seconds it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// What the window loop needs from a workload.
trait Problem {
    /// Stages op `k`'s inputs (untimed).
    fn stage(&mut self, k: usize);
    /// The op on the system lane, its calls recorded under `parent`.
    fn system(
        &mut self,
        trace: &mut Trace,
        op: u64,
        parent: Option<usize>,
    ) -> Result<(), SolverError>;
    /// The same op through serial KLU; returns its solution.
    fn reference(&mut self) -> Result<Vec<f64>, SolverError>;
    /// `(matrix, system solution, right-hand side)` of the staged op.
    fn answer(&self) -> (&CscMat, &[f64], &[f64]);
}

/// The closed loop: one system op after another until the window ends,
/// a reference op beside every `PAIR_EVERY`-th one (which of the two
/// goes first alternates), every answer checked outside the timing.
fn window(p: &mut impl Problem, opts: &Options, trace: &mut Trace) -> Recorder {
    let mut rec = Recorder::new();
    let length = Duration::from_secs_f64(opts.window_seconds());
    let start = Instant::now();
    let mut k = 0usize;
    while start.elapsed() < length {
        p.stage(k);
        let op = k as u64;
        let traced = opts.trace && (k / TRACE_BLOCK) % 2 == 1;
        trace.set_enabled(traced);
        let paired = k % PAIR_EVERY == PAIR_EVERY - 1;
        let klu_first = paired && (k / PAIR_EVERY) % 2 == 1;
        // `None` if KLU itself failed: the paired system op is then
        // checked by its residual alone.
        let reference_op = |p: &mut dyn Problem, trace: &mut Trace| {
            let (r, secs) = timed(|| trace.span("client.klu_step", op, None, || p.reference()).0);
            r.map_err(|e| eprintln!("reference op {op} failed: {e}"))
                .ok()
                .map(|x| (secs, x))
        };
        let mut reference = None;
        if klu_first {
            reference = reference_op(p, trace);
        }
        let cpu0 = sysinfo::cpu_ms("self");
        let (outcome, secs) = timed(|| {
            let parent = trace.open("client.step", op, None);
            let r = p.system(trace, op, parent);
            trace.close(parent);
            r
        });
        let cpu = sysinfo::cpu_ms("self") - cpu0;
        if paired && !klu_first {
            reference = reference_op(p, trace);
        }
        if let Some((klu_secs, _)) = &reference {
            rec.reference(*klu_secs);
        }
        let (a, x, b) = p.answer();
        rec.system(outcome, secs, cpu, traced, a, x, b, reference.as_ref());
        k += 1;
    }
    rec
}

/// A steady-state workload: one session fed a ring of value sets, and
/// the KLU session of its reference lane.
struct Steady {
    ring: Ring,
    m: CscMat,
    b: Vec<f64>,
    x: Vec<f64>,
    sys: SolveSession,
    klu: Option<SolveSession>,
}

impl Steady {
    /// Input generation + analyze + first factor + warm-up. The ring
    /// walk continues into the window: op `k` there is step
    /// `1 + WARMUP_STEPS + k`.
    fn setup(family: Family, opts: &Options, cfg: &SessionConfig) -> Result<Steady, String> {
        let ring = Ring::generate(family, opts.pattern_seed(), opts.seed, opts.sizes().ring);
        let m = ring.base.clone();
        let b = rhs(m.nrows(), opts.nrhs(), opts.seed);
        let sys = SolveSession::new(&m, cfg).map_err(|e| format!("analyze: {e}"))?;
        let mut s = Steady {
            x: b.clone(),
            ring,
            m,
            b,
            sys,
            klu: None,
        };
        for step in 0..1 + WARMUP_STEPS {
            s.load(step);
            s.system(&mut Trace::new(false), 0, None)
                .map_err(|e| format!("warm-up step: {e}"))?;
        }
        Ok(s)
    }

    /// Loads ring step `step`'s values and the right-hand side.
    fn load(&mut self, step: usize) {
        let pos = self.ring.position(step);
        self.m.values_mut().copy_from_slice(&self.ring.values[pos]);
        self.x.copy_from_slice(&self.b);
    }
}

impl Problem for Steady {
    fn stage(&mut self, k: usize) {
        self.load(1 + WARMUP_STEPS + k);
    }

    fn system(
        &mut self,
        trace: &mut Trace,
        op: u64,
        parent: Option<usize>,
    ) -> Result<(), SolverError> {
        session_step(&mut self.sys, &self.m, &mut self.x, trace, op, parent)
    }

    fn reference(&mut self) -> Result<Vec<f64>, SolverError> {
        let klu = self
            .klu
            .as_mut()
            .expect("the lane is set up before the window");
        let mut x = self.b.clone();
        session_step(klu, &self.m, &mut x, &mut Trace::new(false), 0, None).map(|()| x)
    }

    fn answer(&self) -> (&CscMat, &[f64], &[f64]) {
        (&self.m, &self.x, &self.b)
    }
}

fn run_steady(family: Family, opts: &Options, trace: &mut Trace) -> Result<Window, String> {
    let cfg = opts.system_config();
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps {
        drop(state.take());
        let (s, secs) = timed(|| Steady::setup(family, opts, &cfg));
        state = Some(s?);
        setup_times.push(secs);
    }
    let mut s = state.expect("at least one set-up");
    // Peak memory is read here: the pivoting factor and the warm-up are
    // behind, the steady state allocates nothing more, and the
    // reference lane — the harness's memory, not the system's — does
    // not exist yet.
    let peak_rss_mb = sysinfo::peak_rss_mib("self");

    // The reference lane's own set-up is the harness's, not the
    // system's: it stays out of `setup_s`.
    s.klu = Some(
        SolveSession::new(&s.ring.base, &opts.reference_config())
            .map_err(|e| format!("reference analyze: {e}"))?,
    );
    s.reference()
        .map_err(|e| format!("reference warm-up: {e}"))?;

    let threads_before = basker_runtime::os_threads_spawned();
    let mut rec = window(&mut s, opts, trace);
    let st = s.sys.stats();
    rec.window.notes.push((
        "window_session".into(),
        format!(
            "steps {} factors {} refactors {} quality_repivots {} repivot_fallbacks {}",
            st.steps, st.factors, st.refactors, st.quality_repivots, st.repivot_fallbacks
        ),
    ));
    rec.window.peak_rss_mb = peak_rss_mb;
    Ok(rec.finish(&setup_times, threads_before))
}

/// Analyze + first factor + refined solve on a fresh session.
fn cold_op(
    a: &CscMat,
    x: &mut [f64],
    cfg: &SessionConfig,
    trace: &mut Trace,
    op: u64,
    parent: Option<usize>,
) -> Result<(), SolverError> {
    let mut session = trace
        .span("api.session.new", op, parent, || SolveSession::new(a, cfg))
        .0?;
    session_step(&mut session, a, x, trace, op, parent)
}

/// `cold_start`: every op gets a pattern this process has not seen (the
/// seed advances with every op, across set-up and window).
struct Cold<'a> {
    opts: &'a Options,
    cfg: SessionConfig,
    klu_cfg: SessionConfig,
    /// Ops generated before the window's op 0.
    first: usize,
    a: CscMat,
    b: Vec<f64>,
    x: Vec<f64>,
}

impl Problem for Cold<'_> {
    fn stage(&mut self, k: usize) {
        let cycle = self.opts.sizes().cold;
        let k = self.first + k;
        let seed = self
            .opts
            .seed
            .wrapping_mul(1_000_003)
            .wrapping_add(k as u64);
        self.a = cycle[k % cycle.len()].generate(seed);
        self.b = rhs(self.a.nrows(), 1, seed);
        self.x = self.b.clone();
    }

    fn system(
        &mut self,
        trace: &mut Trace,
        op: u64,
        parent: Option<usize>,
    ) -> Result<(), SolverError> {
        cold_op(&self.a, &mut self.x, &self.cfg, trace, op, parent)
    }

    fn reference(&mut self) -> Result<Vec<f64>, SolverError> {
        let mut x = self.b.clone();
        cold_op(
            &self.a,
            &mut x,
            &self.klu_cfg,
            &mut Trace::new(false),
            0,
            None,
        )
        .map(|()| x)
    }

    fn answer(&self) -> (&CscMat, &[f64], &[f64]) {
        (&self.a, &self.x, &self.b)
    }
}

fn run_cold(opts: &Options, trace: &mut Trace) -> Result<Window, String> {
    let mut p = Cold {
        opts,
        cfg: opts.system_config(),
        klu_cfg: opts.reference_config(),
        first: 0,
        a: CscMat::zero(0, 0),
        b: Vec::new(),
        x: Vec::new(),
    };
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::with_capacity(reps);
    for rep in 0..reps {
        let (r, secs) = timed(|| -> Result<(), String> {
            for k in 0..WARMUP_STEPS {
                p.stage(rep * WARMUP_STEPS + k);
                p.system(&mut Trace::new(false), 0, None)
                    .map_err(|e| format!("warm-up op: {e}"))?;
            }
            Ok(())
        });
        r?;
        setup_times.push(secs);
    }
    // The window starts past the set-up's ops, aligned so the family
    // cycle and the pair cadence start the same way on every run.
    p.first = (reps * WARMUP_STEPS).next_multiple_of(opts.sizes().cold.len() * PAIR_EVERY);
    let threads_before = basker_runtime::os_threads_spawned();
    let mut rec = window(&mut p, opts, trace);
    // Sessions come and go here, the reference lane's included; the
    // peak is whichever op held the most.
    rec.window.peak_rss_mb = sysinfo::peak_rss_mib("self");
    Ok(rec.finish(&setup_times, threads_before))
}

/// Runs an in-process workload's set-up and window.
pub fn run(opts: &Options, trace: &mut Trace) -> Result<Window, String> {
    let sizes = opts.sizes();
    match opts.workload {
        Workload::CircuitTransient => run_steady(sizes.circuit, opts, trace),
        Workload::MeshFactor => run_steady(sizes.mesh, opts, trace),
        Workload::PowergridContingency => run_steady(sizes.powergrid, opts, trace),
        Workload::ColdStart => run_cold(opts, trace),
        Workload::ShardFleet => unreachable!("the fleet has its own runner"),
    }
}
