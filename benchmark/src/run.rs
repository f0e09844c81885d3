//! One run of one workload: options in, a [`RunResult`] out.

use crate::inputs::{Family, Sizes, Workload};
use crate::report::{table, Metrics, RunResult};
use crate::trace::Trace;
use crate::{fleet, inproc, ladder, stats, sysinfo};
use basker_api::{Engine, ReusePolicy, SessionConfig};

/// Warm-up steps after the first factor, before the window opens.
pub const WARMUP_STEPS: usize = 3;
/// A reference (KLU) step accompanies every this-many-th system step.
pub const PAIR_EVERY: usize = 4;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Pattern seed of the workloads whose structure is pinned (see
/// [`Options::pattern_seed`]).
pub const PINNED_PATTERN_SEED: u64 = 1;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Feeds every generator.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Per-layer run (tracing on) instead of end-to-end.
    pub trace: bool,
    /// Reduced sizes.
    pub quick: bool,
}

impl Options {
    /// Length of the measured window: `--seconds`, or a third of it in
    /// a traced run, whose ladder needs the rest of the time.
    pub fn window_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 3.0
        } else {
            self.seconds
        }
    }

    /// The seed of the sparsity pattern. Circuit structure swings with
    /// the generator seed (the repeat-run record in `README.md` shows
    /// 133–200 MiB and ±10 % step time across ten seeds), which would
    /// drown every change in seed-to-seed spread, so the circuit
    /// patterns of `circuit_transient` and `shard_fleet` are pinned and
    /// `--seed` drives their value trajectories and right-hand sides.
    /// Mesh and power-grid structure barely moves with the seed, and
    /// `cold_start` averages over ~100 fresh patterns a run: there the
    /// pattern follows `--seed`.
    pub fn pattern_seed(&self) -> u64 {
        match self.workload {
            Workload::CircuitTransient | Workload::ShardFleet => PINNED_PATTERN_SEED,
            _ => self.seed,
        }
    }

    /// The sizes this run uses.
    pub fn sizes(&self) -> Sizes {
        Sizes::new(self.quick)
    }

    /// The session configuration of the system lane: `Engine::Basker`
    /// at `T` threads for the in-process workloads, `Engine::Auto` for
    /// the fleet (each shard serializes its streams itself).
    pub fn system_config(&self) -> SessionConfig {
        let cfg = SessionConfig::new().policy(self.policy());
        if self.workload == Workload::ShardFleet {
            cfg.engine(Engine::Auto).threads(1)
        } else {
            cfg.engine(Engine::Basker)
                .threads(crate::report::solver_threads())
        }
    }

    /// The reference lane: the same problem through serial KLU.
    pub fn reference_config(&self) -> SessionConfig {
        SessionConfig::new()
            .policy(self.policy())
            .engine(Engine::Klu)
            .threads(1)
    }

    /// Re-pivot every step on `mesh_factor`, adaptive reuse elsewhere.
    pub fn policy(&self) -> ReusePolicy {
        if self.workload == Workload::MeshFactor {
            ReusePolicy::AlwaysFactor
        } else {
            ReusePolicy::adaptive()
        }
    }

    /// Right-hand sides per step.
    pub fn nrhs(&self) -> usize {
        if self.workload == Workload::PowergridContingency {
            self.sizes().powergrid_rhs
        } else {
            1
        }
    }
}

/// What a measured window produced, whichever runner drove it.
#[derive(Debug, Default)]
pub struct Window {
    /// Median set-up time over the set-up repetitions.
    pub setup_s: f64,
    /// Steps (ops) issued.
    pub attempted: u64,
    /// Steps that failed a check or errored.
    pub failed: u64,
    /// Latency (ms) of every verified step.
    pub step_ms: Vec<f64>,
    /// Seconds spent inside timed steps (the fleet, whose steps
    /// overlap, reports the window's wall time).
    pub busy_s: f64,
    /// CPU milliseconds (user + system, children included) over the
    /// timed steps.
    pub cpu_ms: f64,
    /// Median KLU-step / system-step ratio (fleet: throughput ratio).
    pub speedup_vs_klu: f64,
    /// Reference pairs behind `speedup_vs_klu`.
    pub pairs: usize,
    /// Reference-lane throughput.
    pub klu_steps_per_s: f64,
    /// Latencies (ms) of the verified steps taken with tracing off
    /// (`[0]`) and on (`[1]`) in a traced window, which alternates
    /// between the two block by block.
    pub class_step_ms: [Vec<f64>; 2],
    /// OS threads the runtime spawned during the window.
    pub os_threads_spawned: usize,
    /// Peak resident memory, `shardd` children included.
    pub peak_rss_mb: f64,
    /// Serving-tier counters (fleet only).
    pub serve: Option<fleet::ServeCounters>,
    /// Notes for the human-readable report.
    pub notes: Vec<(String, String)>,
}

impl Window {
    /// Verified steps.
    pub fn verified(&self) -> u64 {
        self.attempted - self.failed
    }

    /// How much longer the median traced step took than the median
    /// untraced one, in percent. On a shared host this difference of
    /// two noisy medians swings by several percent either way, so it is
    /// reported as a note; `trace.overhead_pct` is
    /// [`trace_overhead_pct`](Self::trace_overhead_pct).
    pub fn traced_vs_untraced_pct(&self) -> f64 {
        let median = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
        let (untraced, traced) = (
            median(&self.class_step_ms[0]),
            median(&self.class_step_ms[1]),
        );
        (traced / untraced - 1.0) * 100.0
    }

    /// The cost of recording one step's spans (an op span with
    /// `child_spans` children, recorded 20 000 times on a scratch
    /// trace) as a percentage of the median step.
    pub fn trace_overhead_pct(&self, child_spans: usize) -> f64 {
        const REPS: u64 = 20_000;
        let mut scratch = Trace::new(true);
        let t0 = std::time::Instant::now();
        for op in 0..REPS {
            let parent = scratch.open("op", op, None);
            for _ in 0..child_spans {
                scratch.span("call", op, parent, || ());
            }
            scratch.close(parent);
        }
        let per_step_ms = t0.elapsed().as_secs_f64() * 1e3 / REPS as f64;
        std::hint::black_box(scratch.spans().len());
        per_step_ms / stats::median(&self.step_ms).unwrap_or(f64::NAN) * 100.0
    }
}

fn end_to_end(w: &Window) -> Metrics {
    let mut m = Metrics::new();
    m.set("setup_s", w.setup_s);
    m.set("steps_per_s", w.verified() as f64 / w.busy_s);
    m.set(
        "step_ms_p50",
        stats::percentile(&w.step_ms, 0.50).unwrap_or(f64::NAN),
    );
    m.set("speedup_vs_klu", w.speedup_vs_klu);
    m.set("cpu_ms_per_step", w.cpu_ms / w.attempted.max(1) as f64);
    m.set("peak_rss_mb", w.peak_rss_mb);
    m
}

/// The generator calls behind the run's matrices.
fn input_note(opts: &Options) -> String {
    let sizes = opts.sizes();
    match opts.workload {
        Workload::CircuitTransient => sizes.circuit.describe(),
        Workload::MeshFactor => sizes.mesh.describe(),
        Workload::PowergridContingency => sizes.powergrid.describe(),
        Workload::ColdStart => sizes.cold.map(Family::describe).join(" / "),
        Workload::ShardFleet => format!(
            "{} streams over {} patterns of {}",
            sizes.fleet_streams,
            crate::inputs::FLEET_PATTERNS,
            sizes.fleet.describe()
        ),
    }
}

/// Whether the traced run shows the workload stressing the layer it
/// was chosen for (the issue's acceptance shares), as one line.
fn shape_check(workload: Workload, m: &Metrics, window: &Window) -> String {
    let v = |name: &str| m.get(name).unwrap_or(f64::NAN);
    let step = v("api.session.step_ms_p50");
    match workload {
        Workload::CircuitTransient => format!(
            "core.refactor_ms + core.solve_ms = {:.0} % of api.session.step_ms_p50 (chosen for >= 60 %)",
            (v("core.refactor_ms") + v("core.solve_ms")) / step * 100.0
        ),
        Workload::MeshFactor => format!(
            "api.session.refactors = {}, core.nd_blocks = {} (chosen for 0 and >= 1)",
            v("api.session.refactors"),
            v("core.nd_blocks")
        ),
        Workload::PowergridContingency => format!(
            "core.btf_blocks = {}, core.nd_blocks = {} (chosen for >= 50000 and 0)",
            v("core.btf_blocks"),
            v("core.nd_blocks")
        ),
        Workload::ColdStart => format!(
            "core.analyze_ms = {:.0} % of the op api.session.step_ms_p50 (chosen for >= 40 %)",
            v("core.analyze_ms") / step * 100.0
        ),
        Workload::ShardFleet => {
            let cpu = window.cpu_ms / window.attempted.max(1) as f64;
            format!(
                "api.session.step_ms_p50 = {:.0} % of serve.router.step_ms_p50 (chosen for <= 50 %) \
                 and {:.0} % of the {cpu:.1} ms of CPU a step costs in the loaded window",
                step / v("serve.router.step_ms_p50") * 100.0,
                step / cpu * 100.0
            )
        }
    }
}

/// Runs the workload and assembles its result. `Err` means the harness
/// could not run at all (missing `shardd`, a set-up step failing);
/// failed *steps* are counted in the result instead.
pub fn run(opts: &Options) -> Result<(RunResult, Trace), String> {
    let mut trace = Trace::new(opts.trace);
    let (steal0, t0) = (sysinfo::steal_ms(), std::time::Instant::now());
    let mut window = if opts.workload == Workload::ShardFleet {
        fleet::run(opts, &mut trace)?
    } else {
        inproc::run(opts, &mut trace)?
    };
    // Share of the machine's CPU time the hypervisor gave to someone
    // else between set-up and the end of the window: a run with more
    // than a few percent here measured the neighbours, not the system.
    let stolen_pct = (sysinfo::steal_ms() - steal0)
        / (t0.elapsed().as_secs_f64() * 1e3 * sysinfo::logical_cpus() as f64)
        * 100.0;
    let metrics = if opts.trace {
        trace.set_enabled(true);
        ladder::per_layer(opts, &window, &mut trace)?
    } else {
        end_to_end(&window)
    };
    metrics.check_complete(table(opts.trace))?;
    let mut notes = vec![
        ("samples".to_string(), window.step_ms.len().to_string()),
        ("reference_pairs".to_string(), window.pairs.to_string()),
    ];
    notes.append(&mut window.notes);
    notes.push(("input".to_string(), input_note(opts)));
    notes.push(("cpu_stolen_pct".to_string(), format!("{stolen_pct:.2}")));
    if opts.trace {
        notes.push((
            "shape".to_string(),
            shape_check(opts.workload, &metrics, &window),
        ));
        notes.push((
            "traced_vs_untraced_blocks_pct".to_string(),
            format!("{:+.2}", window.traced_vs_untraced_pct()),
        ));
        // What the harness itself spends inside a timed in-process
        // step: the op span minus the library calls it brackets. (A
        // fleet step is one wire round trip with no child span.)
        let own: Vec<f64> = (0..trace.spans().len())
            .filter(|&i| {
                trace.spans()[i].name == "client.step" && opts.workload != Workload::ShardFleet
            })
            .map(|i| trace.self_ms(i) * 1e3)
            .collect();
        if let Some(us) = stats::median(&own) {
            notes.push(("harness_us_inside_step_p50".to_string(), format!("{us:.2}")));
        }
    }
    let result = RunResult {
        workload: opts.workload.name().to_string(),
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        correct: window.failed == 0,
        attempted: window.attempted,
        failed: window.failed,
        metrics,
        notes,
    };
    Ok((result, trace))
}
