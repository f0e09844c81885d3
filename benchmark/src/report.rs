//! The metric vocabulary, run results, the environment block and the
//! result-file format.
//!
//! The two tables below are the single source of the metric names:
//! `BENCHMARK.json` is printed from them (`manifest`), every run must
//! set each name of its table exactly once, and `compare` reads bounds
//! and directions from them.

use crate::inputs::{Workload, FLEET_SHARDS};
use crate::sysinfo;
use basker_bench::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The name later issues cite.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement. For structural counts (`*.lu_nnz`,
    /// `*.btf_blocks`, …) the direction is nominal: they are reported
    /// to be compared for equality, not ranked.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before it counts as a regression (end-to-end metrics only; 0 for
    /// per-layer metrics, which have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, 0.0)
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, 0.0)
}

/// The end-to-end metrics, measured with tracing off. Each bound is
/// three times the widest quartile spread any workload showed over ten
/// seeds on the 2-vCPU reference host (README, "Repeat-run record"),
/// capped at the contract's 0.25; nothing repeated tightly enough for
/// the 10 % the issue hoped for.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("steps_per_s", "1/s", Better::Higher, 0.25),
    e2e("step_ms_p50", "ms", Better::Lower, 0.25),
    e2e("speedup_vs_klu", "ratio", Better::Higher, 0.25),
    e2e("cpu_ms_per_step", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.2),
];

/// The per-layer metrics, from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    lo("matgen.generate_ms", "ms"),
    lo("matgen.nnz", "count"),
    lo("sparse.spmv_ms", "ms"),
    hi("sparse.spmv_gbps_computed", "GB/s"),
    lo("sparse.pattern_hash_ms", "ms"),
    lo("ordering.matching_ms", "ms"),
    lo("ordering.btf_ms", "ms"),
    lo("ordering.amd_ms", "ms"),
    lo("ordering.nd_ms", "ms"),
    lo("ordering.symbolic_ms", "ms"),
    hi("ordering.btf_blocks", "count"),
    lo("ordering.largest_block_rows", "count"),
    hi("ordering.small_block_fraction", "frac"),
    lo("ordering.nd_separator_rows", "count"),
    hi("kernels.axpy_gflops", "GF/s"),
    hi("kernels.dot_gflops", "GF/s"),
    hi("kernels.rank_k_gflops", "GF/s"),
    hi("kernels.trsv_gflops", "GF/s"),
    hi("kernels.scatter_axpy_gflops", "GF/s"),
    hi("kernels.gather_dot_gflops", "GF/s"),
    lo("runtime.broadcast_us", "us"),
    lo("runtime.worklist_us_per_job", "us"),
    lo("runtime.os_threads_spawned", "count"),
    lo("klu.analyze_ms", "ms"),
    lo("klu.factor_ms", "ms"),
    lo("klu.refactor_ms", "ms"),
    lo("klu.solve_ms", "ms"),
    lo("klu.lu_nnz", "count"),
    lo("klu.flops", "count"),
    hi("klu.factor_gflops", "GF/s"),
    lo("snlu.analyze_ms", "ms"),
    lo("snlu.factor_ms", "ms"),
    lo("snlu.refactor_ms", "ms"),
    lo("snlu.solve_ms", "ms"),
    lo("snlu.lu_nnz", "count"),
    lo("snlu.perturbed_pivots", "count"),
    lo("core.analyze_ms", "ms"),
    lo("core.factor_ms", "ms"),
    lo("core.factor_p1_ms", "ms"),
    hi("core.self_speedup", "ratio"),
    lo("core.factor_barrier_ms", "ms"),
    lo("core.refactor_ms", "ms"),
    lo("core.refactor_p1_ms", "ms"),
    lo("core.solve_ms", "ms"),
    lo("core.solve_multi_ms_per_rhs", "ms"),
    lo("core.lu_nnz", "count"),
    lo("core.flops", "count"),
    hi("core.factor_gflops", "GF/s"),
    lo("core.sync_fraction", "frac"),
    lo("core.sync_wait_ms_max", "ms"),
    hi("core.columns_assisted", "count"),
    hi("core.tasks_joined", "count"),
    lo("core.steal_attempts", "count"),
    hi("core.btf_blocks", "count"),
    hi("core.nd_blocks", "count"),
    lo("core.hybrid.factor_ms", "ms"),
    lo("core.hybrid.refactor_ms", "ms"),
    hi("core.hybrid.gp_blocks", "count"),
    hi("core.hybrid.sn_blocks", "count"),
    hi("core.hybrid.nd_blocks", "count"),
    lo("api.solver.analyze_ms", "ms"),
    lo("api.solver.factor_ms", "ms"),
    lo("api.solver.refactor_ms", "ms"),
    lo("api.solver.solve_ms", "ms"),
    lo("api.solver.self_ms", "ms"),
    lo("api.session.step_ms_p50", "ms"),
    lo("api.session.solve_refined_ms_p50", "ms"),
    lo("api.session.self_ms", "ms"),
    lo("api.session.factors", "count"),
    hi("api.session.refactors", "count"),
    lo("api.session.repivot_fallbacks", "count"),
    lo("api.session.quality_repivots", "count"),
    lo("api.session.refine_iterations", "count"),
    lo("api.session.routing_probes", "count"),
    lo("api.session.worst_residual", "ratio"),
    lo("api.service.step_ms_p50", "ms"),
    lo("api.service.step_ms_p95", "ms"),
    lo("api.service.self_ms", "ms"),
    hi("api.service.vs_serial_loop", "ratio"),
    hi("api.service.occupancy", "frac"),
    lo("api.service.batches", "count"),
    lo("api.service.max_queue_depth", "count"),
    hi("api.service.columns_assisted", "count"),
    lo("api.service.steal_attempts", "count"),
    lo("serve.proto.encode_step_us", "us"),
    lo("serve.proto.decode_step_us", "us"),
    lo("serve.proto.step_frame_bytes", "count"),
    lo("serve.ping_us_p50", "us"),
    lo("serve.open_ms_p50", "ms"),
    lo("serve.shard.step_ms_p50", "ms"),
    lo("serve.shard.self_ms", "ms"),
    hi("serve.shard.occupancy", "frac"),
    lo("serve.router.step_ms_p50", "ms"),
    lo("serve.router.self_ms", "ms"),
    lo("serve.respawns", "count"),
    lo("serve.reopens", "count"),
    lo("serve.failovers", "count"),
    lo("serve.tickets_lost", "count"),
    hi("serve.shard_steps_min_over_max", "ratio"),
    lo("client.step_ms_p95", "ms"),
    lo("client.step_ms_p99", "ms"),
    lo("client.step_ms_max", "ms"),
    hi("client.klu_steps_per_s", "1/s"),
    lo("trace.overhead_pct", "%"),
    lo("trace.spans", "count"),
];

/// The table a run with `trace` on (per-layer) or off (end-to-end) fills.
pub fn table(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Looks a metric up in either table.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// The values of one run, keyed by registered name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// An empty set.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Sets `name`, which must be registered and not yet set: a metric
    /// is emitted exactly once or the harness has a bug.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = lookup(name).unwrap_or_else(|| panic!("metric {name} is not registered"));
        let old = self.0.insert(def.name, value);
        assert!(old.is_none(), "metric {name} set twice");
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Checks that exactly the names of `table` are set, each to a
    /// finite number.
    pub fn check_complete(&self, table: &[MetricDef]) -> Result<(), String> {
        for d in table {
            match self.0.get(d.name) {
                None => return Err(format!("metric {} was not measured", d.name)),
                Some(v) if !v.is_finite() => return Err(format!("metric {} is {v}", d.name)),
                Some(_) => {}
            }
        }
        match self.0.keys().find(|k| !table.iter().any(|d| d.name == **k)) {
            Some(extra) => Err(format!("metric {extra} does not belong to this run")),
            None => Ok(()),
        }
    }

    /// `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }
}

/// Where and how a result was measured. `compare` refuses files whose
/// environments differ in anything but `git_commit`.
#[derive(Debug, Clone, PartialEq)]
pub struct Environment {
    /// Logical CPUs available to the process.
    pub logical_cpus: usize,
    /// `T`: solver threads of the in-process workloads.
    pub threads: usize,
    /// `shardd` processes of `shard_fleet`.
    pub shards: usize,
    /// Dense-kernel rung the process dispatched.
    pub kernel: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse --short HEAD`, or `none` outside a repository.
    pub git_commit: String,
    /// Whether sizes were the reduced `--quick` ones.
    pub quick: bool,
    /// `BASKER_*` variables found set and removed before measuring.
    pub removed_env: Vec<String>,
}

/// `T = min(logical CPUs, 4)`.
pub fn solver_threads() -> usize {
    sysinfo::logical_cpus().min(4)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(crate::repo_root())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Environment {
    /// Records the environment of this process.
    pub fn capture(quick: bool, removed_env: Vec<String>) -> Environment {
        Environment {
            logical_cpus: sysinfo::logical_cpus(),
            threads: solver_threads(),
            shards: FLEET_SHARDS,
            kernel: basker_kernels::active().name().to_string(),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            git_commit: command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "none".into()),
            quick,
            removed_env,
        }
    }

    /// The first field in which `self` and `other` differ, ignoring the
    /// commit (comparing two commits is the point of `compare`).
    pub fn mismatch(&self, other: &Environment) -> Option<String> {
        let pairs = [
            (
                "logical_cpus",
                self.logical_cpus.to_string(),
                other.logical_cpus.to_string(),
            ),
            (
                "threads",
                self.threads.to_string(),
                other.threads.to_string(),
            ),
            ("shards", self.shards.to_string(), other.shards.to_string()),
            ("kernel", self.kernel.clone(), other.kernel.clone()),
            ("rustc", self.rustc.clone(), other.rustc.clone()),
            ("quick", self.quick.to_string(), other.quick.to_string()),
            (
                "removed_env",
                self.removed_env.join(","),
                other.removed_env.join(","),
            ),
        ];
        pairs
            .into_iter()
            .find(|(_, a, b)| a != b)
            .map(|(k, a, b)| format!("{k}: {a:?} vs {b:?}"))
    }
}

/// One run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Whether this was the traced (per-layer) run.
    pub trace: bool,
    /// Every checked answer was right.
    pub correct: bool,
    /// Steps (ops) attempted inside the window.
    pub attempted: u64,
    /// Steps that errored, missed the residual limit, disagreed with
    /// the KLU reference or were never answered.
    pub failed: u64,
    /// The metrics of [`table`]`(trace)`.
    pub metrics: Metrics,
    /// Free-form `key: value` notes for the human-readable report
    /// (sample counts, shape checks); not part of the contract.
    pub notes: Vec<(String, String)>,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number with all its digits (shortest form that reads back to the
/// same `f64`).
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite number in a result");
    format!("{v}")
}

fn metrics_json(m: &Metrics) -> String {
    let fields: Vec<String> = m
        .iter()
        .map(|(name, v)| {
            let unit = lookup(name).expect("set() checked the name").unit;
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(v),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

impl RunResult {
    /// The driver contract's result object (one line).
    pub fn driver_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }

    fn to_json(&self) -> String {
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \
             \"notes\": {{{}}}}}",
            json_str(&self.workload),
            self.seed,
            json_num(self.seconds),
            self.trace,
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics),
            notes.join(", ")
        )
    }

    fn from_json(j: &Json) -> Result<RunResult, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("run lacks {k:?}"));
        let num = |k: &str| {
            field(k)?
                .num()
                .ok_or_else(|| format!("{k:?} is not a number"))
        };
        let flag = |k: &str| {
            field(k)?
                .bool()
                .ok_or_else(|| format!("{k:?} is not a boolean"))
        };
        let workload = field("workload")?
            .str()
            .ok_or("\"workload\" is not a string")?
            .to_string();
        if Workload::parse(&workload).is_none() {
            return Err(format!("unknown workload {workload:?}"));
        }
        let mut metrics = Metrics::new();
        let Json::Obj(entries) = field("metrics")? else {
            return Err("\"metrics\" is not an object".into());
        };
        for (name, m) in entries {
            let def = lookup(name).ok_or_else(|| format!("unknown metric {name:?}"))?;
            let v = m
                .num_field("value")
                .ok_or_else(|| format!("metric {name:?} has no value"))?;
            if m.str_field("unit") != Some(def.unit) {
                return Err(format!("metric {name:?} is not in {}", def.unit));
            }
            if metrics.get(name).is_some() {
                return Err(format!("metric {name:?} appears twice"));
            }
            metrics.set(name, v);
        }
        let mut notes = Vec::new();
        if let Some(Json::Obj(entries)) = j.get("notes") {
            for (k, v) in entries {
                notes.push((k.clone(), v.str().unwrap_or_default().to_string()));
            }
        }
        Ok(RunResult {
            workload,
            seed: num("seed")? as u64,
            seconds: num("seconds")?,
            trace: flag("trace")?,
            correct: flag("correct")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
            notes,
        })
    }

    /// The human-readable report: every metric by name with its unit.
    pub fn print_table(&self) {
        println!(
            "## {} (seed {}, {} s, trace {}): attempted {} failed {} correct {}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.attempted,
            self.failed,
            self.correct
        );
        for d in table(self.trace) {
            if let Some(v) = self.metrics.get(d.name) {
                println!("{:<36} {:>16.6} {}", d.name, v, d.unit);
            }
        }
        for (k, v) in &self.notes {
            println!("  note {k}: {v}");
        }
    }
}

/// A result file: one environment, any number of runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    /// Where the runs were measured.
    pub environment: Environment,
    /// The runs.
    pub runs: Vec<RunResult>,
}

impl ResultFile {
    /// Serializes the file.
    pub fn to_json(&self) -> String {
        let e = &self.environment;
        let removed: Vec<String> = e.removed_env.iter().map(|s| json_str(s)).collect();
        let runs: Vec<String> = self
            .runs
            .iter()
            .map(|r| format!("    {}", r.to_json()))
            .collect();
        format!(
            "{{\n  \"environment\": {{\"logical_cpus\": {}, \"threads\": {}, \"shards\": {}, \
             \"kernel\": {}, \"rustc\": {}, \"git_commit\": {}, \"quick\": {}, \
             \"removed_env\": [{}]}},\n  \"runs\": [\n{}\n  ]\n}}\n",
            e.logical_cpus,
            e.threads,
            e.shards,
            json_str(&e.kernel),
            json_str(&e.rustc),
            json_str(&e.git_commit),
            e.quick,
            removed.join(", "),
            runs.join(",\n")
        )
    }

    /// Parses a file written by [`to_json`](Self::to_json).
    pub fn parse(text: &str) -> Result<ResultFile, String> {
        let j = Json::parse(text)?;
        let e = j.get("environment").ok_or("file lacks \"environment\"")?;
        let num = |k: &str| {
            e.num_field(k)
                .map(|v| v as usize)
                .ok_or_else(|| format!("environment lacks {k:?}"))
        };
        let text_of = |k: &str| {
            e.str_field(k)
                .map(String::from)
                .ok_or_else(|| format!("environment lacks {k:?}"))
        };
        let environment = Environment {
            logical_cpus: num("logical_cpus")?,
            threads: num("threads")?,
            shards: num("shards")?,
            kernel: text_of("kernel")?,
            rustc: text_of("rustc")?,
            git_commit: text_of("git_commit")?,
            quick: e
                .get("quick")
                .and_then(Json::bool)
                .ok_or("environment lacks \"quick\"")?,
            removed_env: e
                .get("removed_env")
                .and_then(Json::arr)
                .ok_or("environment lacks \"removed_env\"")?
                .iter()
                .filter_map(|v| v.str().map(String::from))
                .collect(),
        };
        let runs = j
            .get("runs")
            .and_then(Json::arr)
            .ok_or("file lacks \"runs\"")?
            .iter()
            .map(RunResult::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ResultFile { environment, runs })
    }

    /// Reads and parses `path`.
    pub fn read(path: &Path) -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        ResultFile::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Writes the file, creating its directory.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }
}

/// `BENCHMARK.json`, printed from the tables above.
pub fn manifest(run_seconds: u64) -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(w.why())
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(d.name),
                json_str(d.unit),
                json_str(d.better.as_str()),
                json_num(d.bound)
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(d.name),
                json_str(d.unit),
                json_str(d.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run(trace: bool) -> RunResult {
        let mut metrics = Metrics::new();
        for (i, d) in table(trace).iter().enumerate() {
            metrics.set(d.name, 1.5 + i as f64 / 3.0);
        }
        RunResult {
            workload: "mesh_factor".into(),
            seed: 7,
            seconds: 2.5,
            trace,
            correct: true,
            attempted: 41,
            failed: 0,
            metrics,
            notes: vec![("samples".into(), "41 \"steps\"".into())],
        }
    }

    fn sample_env() -> Environment {
        Environment {
            logical_cpus: 2,
            threads: 2,
            shards: 2,
            kernel: "avx2+fma".into(),
            rustc: "rustc 1.95.0".into(),
            git_commit: "abc1234".into(),
            quick: false,
            removed_env: vec!["BASKER_ENGINE".into()],
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} registered twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = lookup("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    #[test]
    fn result_file_round_trips() {
        let file = ResultFile {
            environment: sample_env(),
            runs: vec![sample_run(false), sample_run(true)],
        };
        let back = ResultFile::parse(&file.to_json()).unwrap();
        assert_eq!(back, file);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = sample_run(false).driver_line();
        assert!(!line.contains('\n'));
        let Json::Obj(fields) = Json::parse(&line).unwrap() else {
            panic!("not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Json::Obj(metrics) = &fields[3].1 else {
            panic!("metrics is not an object");
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics[0].1.str_field("unit"),
            lookup(&metrics[0].0).map(|d| d.unit)
        );
    }

    #[test]
    fn metrics_reject_unknown_duplicate_missing_and_nan() {
        let mut m = Metrics::new();
        m.set("setup_s", 1.0);
        assert!(m.check_complete(END_TO_END).is_err(), "incomplete");
        assert!(std::panic::catch_unwind(|| Metrics::new().set("nope", 1.0)).is_err());
        let mut twice = m.clone();
        assert!(
            std::panic::catch_unwind(move || twice.set("setup_s", 2.0)).is_err(),
            "duplicate"
        );
        let mut full = sample_run(false).metrics;
        assert!(full.check_complete(END_TO_END).is_ok());
        assert!(full.check_complete(PER_LAYER).is_err(), "wrong table");
        full.0.insert("setup_s", f64::NAN);
        assert!(full.check_complete(END_TO_END).is_err(), "NaN");
    }

    #[test]
    fn environments_differ_by_anything_but_the_commit() {
        let a = sample_env();
        let mut b = a.clone();
        b.git_commit = "fffffff".into();
        assert_eq!(a.mismatch(&b), None);
        b.threads = 4;
        assert!(a.mismatch(&b).unwrap().starts_with("threads"));
    }

    #[test]
    fn checked_in_manifest_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let j = Json::parse(&text).unwrap();
        let seconds = j.num_field("run_seconds").unwrap() as u64;
        assert_eq!(text, manifest(seconds), "regenerate with `manifest`");
    }
}
