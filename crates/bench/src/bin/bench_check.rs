//! **CI perf-regression gate** — compares a freshly measured harness
//! JSON against the checked-in `BENCH_*.json` baseline and fails (exit
//! 1) on regressions.
//!
//! Philosophy: CI hosts are noisy, small and often 1-CPU, so raw
//! wall-clock is gated **loosely** (a 4× blow-up is a build problem, a
//! 40% wobble is weather). What is gated tightly is everything
//! deterministic or scale-free:
//!
//! * **ratios** — refactor-vs-factor time, speedup-vs-KLU — may not
//!   regress by more than the tolerance (default 25%);
//! * **counters** — lifecycle decisions (refactors, fallbacks,
//!   re-pivots) are value-driven and must stay put (±10% / ±2);
//! * **memory** — `|L+U|` and BTF statistics are deterministic and must
//!   match exactly;
//! * **invariants** — residual checks and the shard tier's zero ticket
//!   loss are hard failures at any size.
//!
//! Usage:
//! `bench_check --kind {fig6|xyce|fig5|table1|fig7|fig8|table2|shard}
//! BASELINE FRESH [--tolerance 0.25] [--summary PATH]`
//!
//! `--summary` appends one markdown table row (pass/fail + the worst
//! ratio drift the gates saw) to `PATH` — pointed at
//! `$GITHUB_STEP_SUMMARY` in CI so every kind's outcome lands in the
//! job summary.

use basker_bench::json::Json;

/// Collected findings; any `fail` flips the exit code.
#[derive(Default)]
struct Report {
    failures: Vec<String>,
    checks: usize,
    /// Largest relative drift `|fresh/base - 1|` the ratio gates saw —
    /// surfaced in the step-summary table so a passing-but-sliding
    /// metric is visible before it trips a tolerance.
    worst_drift: f64,
}

impl Report {
    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(msg());
        }
    }

    fn drift(&mut self, base: f64, fresh: f64) {
        if base.abs() > 1e-12 {
            self.worst_drift = self.worst_drift.max((fresh / base - 1.0).abs());
        }
    }
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("bench_check: cannot read {path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("bench_check: {path}: {e}"))
}

/// The rows of a harness document: either a bare array, or an object
/// wrapping the array under `key` (the composite `BENCH_fig6.json`
/// layout).
fn rows_of<'j>(doc: &'j Json, key: &str, path: &str) -> &'j [Json] {
    doc.arr()
        .or_else(|| doc.get(key).and_then(Json::arr))
        .unwrap_or_else(|| panic!("bench_check: {path}: no '{key}' rows"))
}

fn num(row: &Json, key: &str, path: &str) -> f64 {
    row.num_field(key)
        .unwrap_or_else(|| panic!("bench_check: {path}: row missing numeric '{key}'"))
}

/// `fresh` must be within `tol` *below* `base` (ratios where bigger is
/// better: speedups, reuse fractions).
fn gate_not_worse_down(r: &mut Report, what: &str, base: f64, fresh: f64, tol: f64) {
    r.drift(base, fresh);
    r.check(fresh >= base * (1.0 - tol), || {
        format!(
            "{what}: {fresh:.4} regressed more than {:.0}% below baseline {base:.4}",
            tol * 100.0
        )
    });
}

/// `fresh` must be within `tol` *above* `base` (ratios where smaller is
/// better: refactor-vs-factor time).
fn gate_not_worse_up(r: &mut Report, what: &str, base: f64, fresh: f64, tol: f64) {
    r.drift(base, fresh);
    r.check(fresh <= base * (1.0 + tol), || {
        format!(
            "{what}: {fresh:.4} regressed more than {:.0}% above baseline {base:.4}",
            tol * 100.0
        )
    });
}

/// Loose wall-clock sanity: 4× the baseline is a build problem, not
/// noise.
fn gate_wall_loose(r: &mut Report, what: &str, base: f64, fresh: f64) {
    r.check(fresh <= base * 4.0 + 1e-9, || {
        format!("{what}: wall {fresh:.4}s blew past 4x baseline {base:.4}s")
    });
}

/// Lifecycle counters are value-driven: allow ±10% or ±2, whichever is
/// larger (parallel summation order can nudge a gate at the margin).
fn gate_counter(r: &mut Report, what: &str, base: f64, fresh: f64) {
    let slack = (0.1 * base.abs()).max(2.0);
    r.check((fresh - base).abs() <= slack, || {
        format!("{what}: counter {fresh} drifted from baseline {base} (slack {slack})")
    });
}

fn gate_exact(r: &mut Report, what: &str, base: f64, fresh: f64) {
    r.check(base == fresh, || {
        format!("{what}: {fresh} != deterministic baseline {base}")
    });
}

fn find_row<'j>(rows: &'j [Json], keys: &[(&str, &str)], nums: &[(&str, f64)]) -> Option<&'j Json> {
    rows.iter().find(|row| {
        keys.iter().all(|(k, v)| row.str_field(k) == Some(*v))
            && nums.iter().all(|(k, v)| row.num_field(k) == Some(*v))
    })
}

// ------------------------------------------------------------- kinds --

fn check_fig6(r: &mut Report, base: &Json, fresh: &Json, tol: f64) {
    let brows = rows_of(base, "fig6_speedup", "baseline");
    let frows = rows_of(fresh, "fig6_speedup", "fresh");
    for b in brows {
        let matrix = b.str_field("matrix").expect("baseline row matrix");
        let threads = num(b, "threads", "baseline");
        let label = format!("fig6 {matrix} p={threads}");
        let Some(f) = find_row(frows, &[("matrix", matrix)], &[("threads", threads)]) else {
            r.check(false, || format!("{label}: row missing from fresh run"));
            continue;
        };
        gate_not_worse_down(
            r,
            &format!("{label} basker_speedup"),
            num(b, "basker_speedup", "baseline"),
            num(f, "basker_speedup", "fresh"),
            tol,
        );
        gate_not_worse_down(
            r,
            &format!("{label} pmkl_speedup"),
            num(b, "pmkl_speedup", "baseline"),
            num(f, "pmkl_speedup", "fresh"),
            tol,
        );
        gate_wall_loose(
            r,
            &format!("{label} basker_seconds"),
            num(b, "basker_seconds", "baseline"),
            num(f, "basker_seconds", "fresh"),
        );
    }
}

fn check_xyce(r: &mut Report, base: &Json, fresh: &Json, tol: f64) {
    let brows = rows_of(base, "xyce_sequence", "baseline");
    let frows = rows_of(fresh, "xyce_sequence", "fresh");
    for b in brows {
        let solver = b.str_field("solver").expect("baseline row solver");
        let label = format!("xyce {solver}");
        let Some(f) = find_row(frows, &[("solver", solver)], &[]) else {
            r.check(false, || format!("{label}: row missing from fresh run"));
            continue;
        };
        // The headline metric: how much cheaper value-only refactor
        // sessions are than fresh pivoting per step.
        let ratio = |row: &Json, which: &str| {
            num(row, "refactor_seconds", which) / num(row, "factor_seconds", which).max(1e-12)
        };
        gate_not_worse_up(
            r,
            &format!("{label} refactor/factor ratio"),
            ratio(b, "baseline"),
            ratio(f, "fresh"),
            tol,
        );
        for counter in ["refactors", "repivot_fallbacks", "quality_repivots"] {
            gate_counter(
                r,
                &format!("{label} {counter}"),
                num(b, counter, "baseline"),
                num(f, counter, "fresh"),
            );
        }
        gate_wall_loose(
            r,
            &format!("{label} factor_seconds"),
            num(b, "factor_seconds", "baseline"),
            num(f, "factor_seconds", "fresh"),
        );
    }
}

fn check_fig5(r: &mut Report, base: &Json, fresh: &Json, _tol: f64) {
    let brows = rows_of(base, "fig5_raw_time", "baseline");
    let frows = rows_of(fresh, "fig5_raw_time", "fresh");
    for b in brows {
        let matrix = b.str_field("matrix").expect("baseline row matrix");
        let threads = num(b, "threads", "baseline");
        let label = format!("fig5 {matrix} p={threads}");
        let Some(f) = find_row(frows, &[("matrix", matrix)], &[("threads", threads)]) else {
            r.check(false, || format!("{label}: row missing from fresh run"));
            continue;
        };
        for solver in ["basker", "pmkl", "slumt"] {
            gate_exact(
                r,
                &format!("{label} {solver}_lu_nnz"),
                num(b, &format!("{solver}_lu_nnz"), "baseline"),
                num(f, &format!("{solver}_lu_nnz"), "fresh"),
            );
            r.check(
                num(f, &format!("{solver}_residual"), "fresh") < 1e-8,
                || format!("{label}: {solver} residual check failed"),
            );
            gate_wall_loose(
                r,
                &format!("{label} {solver}_seconds"),
                num(b, &format!("{solver}_seconds"), "baseline"),
                num(f, &format!("{solver}_seconds"), "fresh"),
            );
        }
    }
}

fn check_table1(r: &mut Report, base: &Json, fresh: &Json, _tol: f64) {
    let brows = rows_of(base, "table1_memory", "baseline");
    let frows = rows_of(fresh, "table1_memory", "fresh");
    for b in brows {
        let matrix = b.str_field("matrix").expect("baseline row matrix");
        let label = format!("table1 {matrix}");
        let Some(f) = find_row(frows, &[("matrix", matrix)], &[]) else {
            r.check(false, || format!("{label}: row missing from fresh run"));
            continue;
        };
        // Memory statistics are deterministic: gate tightly.
        for key in [
            "n",
            "nnz",
            "klu_lu_nnz",
            "pmkl_lu_nnz",
            "basker_lu_nnz",
            "btf_blocks",
        ] {
            gate_exact(
                r,
                &format!("{label} {key}"),
                num(b, key, "baseline"),
                num(f, key, "fresh"),
            );
        }
    }
}

/// The wall-clock-only fig7 profile rows: every timing is host weather,
/// so each solver column gets only the loose 4× build-problem gate, plus
/// a hard failure when a solver stopped finishing at all (`inf`).
fn check_fig7(r: &mut Report, base: &Json, fresh: &Json, _tol: f64) {
    let brows = rows_of(base, "fig7_profiles", "baseline");
    let frows = rows_of(fresh, "fig7_profiles", "fresh");
    for b in brows {
        let matrix = b.str_field("matrix").expect("baseline row matrix");
        let label = format!("fig7 {matrix}");
        let Some(f) = find_row(frows, &[("matrix", matrix)], &[]) else {
            r.check(false, || format!("{label}: row missing from fresh run"));
            continue;
        };
        for key in [
            "klu_seconds",
            "basker1_seconds",
            "baskerp_seconds",
            "pmkl1_seconds",
            "pmklp_seconds",
        ] {
            let fv = num(f, key, "fresh");
            r.check(fv.is_finite(), || {
                format!("{label} {key}: solver failed (non-finite time)")
            });
            gate_wall_loose(r, &format!("{label} {key}"), num(b, key, "baseline"), fv);
        }
    }
}

/// Self-relative speedups on ideal inputs. On a small/1-CPU CI host the
/// p>1 self-speedup is dominated by scheduler weather (back-to-back
/// runs of the same binary swing 2x), so the speedup gate uses the same
/// loose 4x build-problem band as the wall gates: it catches a parallel
/// path that collapses (deadlocked assist loop, serialized pipeline)
/// without flagging host noise.
fn check_fig8(r: &mut Report, base: &Json, fresh: &Json, _tol: f64) {
    let brows = rows_of(base, "fig8_ideal", "baseline");
    let frows = rows_of(fresh, "fig8_ideal", "fresh");
    for b in brows {
        let solver = b.str_field("solver").expect("baseline row solver");
        let matrix = b.str_field("matrix").expect("baseline row matrix");
        let threads = num(b, "threads", "baseline");
        let label = format!("fig8 {solver} {matrix} p={threads}");
        let Some(f) = find_row(
            frows,
            &[("solver", solver), ("matrix", matrix)],
            &[("threads", threads)],
        ) else {
            r.check(false, || format!("{label}: row missing from fresh run"));
            continue;
        };
        let bs = num(b, "speedup", "baseline");
        let fs = num(f, "speedup", "fresh");
        r.check(fs.is_finite() && fs > 0.0, || {
            format!("{label} speedup: non-positive ({fs})")
        });
        r.check(fs >= bs / 4.0, || {
            format!("{label} speedup: {fs:.3} collapsed below 1/4 of baseline {bs:.3}")
        });
        gate_wall_loose(
            r,
            &format!("{label} seconds"),
            num(b, "seconds", "baseline"),
            num(f, "seconds", "fresh"),
        );
    }
}

/// Mesh-suite memory statistics are deterministic: exact gates only.
fn check_table2(r: &mut Report, base: &Json, fresh: &Json, _tol: f64) {
    let brows = rows_of(base, "table2_meshes", "baseline");
    let frows = rows_of(fresh, "table2_meshes", "fresh");
    for b in brows {
        let matrix = b.str_field("matrix").expect("baseline row matrix");
        let label = format!("table2 {matrix}");
        let Some(f) = find_row(frows, &[("matrix", matrix)], &[]) else {
            r.check(false, || format!("{label}: row missing from fresh run"));
            continue;
        };
        for key in ["n", "nnz", "pmkl_lu_nnz"] {
            gate_exact(
                r,
                &format!("{label} {key}"),
                num(b, key, "baseline"),
                num(f, key, "fresh"),
            );
        }
    }
}

fn check_shard(r: &mut Report, base: &Json, fresh: &Json, tol: f64) {
    // Hard invariants of the sharded tier, at any scale. The baseline
    // run is crash-free, so the accounting must be airtight: every
    // request answered, nothing errored, nothing respawned.
    gate_exact(
        r,
        "shard tickets_lost",
        0.0,
        num(fresh, "tickets_lost", "fresh"),
    );
    gate_exact(
        r,
        "shard requests == responses",
        num(fresh, "requests", "fresh"),
        num(fresh, "responses", "fresh"),
    );
    gate_exact(
        r,
        "shard clean_errors",
        0.0,
        num(fresh, "clean_errors", "fresh"),
    );
    gate_exact(r, "shard respawns", 0.0, num(fresh, "respawns", "fresh"));
    gate_exact(r, "shard reopens", 0.0, num(fresh, "reopens", "fresh"));
    r.check(
        fresh.get("residual_ok").and_then(Json::bool) == Some(true),
        || "shard: a refined residual missed the limit".into(),
    );
    gate_exact(
        r,
        "shard routed_streams",
        num(fresh, "streams", "fresh"),
        num(fresh, "routed_streams", "fresh"),
    );

    // Scale-dependent comparisons only when the fresh run matches the
    // baseline's shape.
    let same_shape = ["shards", "clients", "streams", "steps_per_stream"]
        .iter()
        .all(|k| num(base, k, "baseline") == num(fresh, k, "fresh"))
        && base.str_field("scale") == fresh.str_field("scale");
    if !same_shape {
        eprintln!("bench_check: shard: fresh run shape differs from baseline; skipping perf gates");
        return;
    }
    // Throughput and tail latency through OS processes and sockets are
    // noisy on shared CI hosts: gate them loosely (4x), like wall
    // clock, rather than at the ratio tolerance.
    let _ = tol;
    r.check(
        num(fresh, "steps_per_second", "fresh") >= num(base, "steps_per_second", "baseline") / 4.0,
        || {
            format!(
                "shard: steps/s {:.0} collapsed below 1/4 of baseline {:.0}",
                num(fresh, "steps_per_second", "fresh"),
                num(base, "steps_per_second", "baseline")
            )
        },
    );
    for key in ["p50_us", "p95_us", "p99_us"] {
        gate_wall_loose(
            r,
            &format!("shard {key}"),
            num(base, key, "baseline") / 1e6,
            num(fresh, key, "fresh") / 1e6,
        );
    }
    gate_wall_loose(
        r,
        "shard wall",
        num(base, "wall_seconds", "baseline"),
        num(fresh, "wall_seconds", "fresh"),
    );
}

fn run_kind(kind: &str, r: &mut Report, base: &Json, fresh: &Json, tol: f64) {
    match kind {
        "fig6" => check_fig6(r, base, fresh, tol),
        "xyce" => check_xyce(r, base, fresh, tol),
        "fig5" => check_fig5(r, base, fresh, tol),
        "table1" => check_table1(r, base, fresh, tol),
        "fig7" => check_fig7(r, base, fresh, tol),
        "fig8" => check_fig8(r, base, fresh, tol),
        "table2" => check_table2(r, base, fresh, tol),
        "shard" => check_shard(r, base, fresh, tol),
        other => {
            eprintln!("bench_check: unknown kind '{other}'");
            std::process::exit(2);
        }
    }
}

/// Appends one markdown table row for `kind` to the summary file,
/// writing the table header first when the file is new or empty — the
/// shape `$GITHUB_STEP_SUMMARY` renders in the CI job summary.
fn write_summary(path: &str, kind: &str, report: &Report) {
    use std::io::Write;
    let header_needed = std::fs::metadata(path)
        .map(|m| m.len() == 0)
        .unwrap_or(true);
    let mut out = String::new();
    if header_needed {
        out.push_str("| bench kind | checks | result | worst ratio drift |\n");
        out.push_str("|---|---|---|---|\n");
    }
    let result = if report.failures.is_empty() {
        "pass ✅".to_string()
    } else {
        format!("**{} FAIL** ❌", report.failures.len())
    };
    out.push_str(&format!(
        "| {kind} | {} | {result} | {:.1}% |\n",
        report.checks,
        report.worst_drift * 100.0
    ));
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(out.as_bytes()))
        .unwrap_or_else(|e| panic!("bench_check: cannot write summary {path}: {e}"));
}

fn main() {
    let mut kind: Option<String> = None;
    let mut tol = 0.25f64;
    let mut summary: Option<String> = None;
    let mut paths: Vec<String> = Vec::new();
    let usage = || -> ! {
        eprintln!(
            "usage: bench_check --kind {{fig6|xyce|fig5|table1|fig7|fig8|table2|shard}} \
             BASELINE FRESH [--tolerance 0.25] [--summary PATH]"
        );
        std::process::exit(2);
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--kind" => kind = Some(args.next().unwrap_or_else(|| usage())),
            "--tolerance" => {
                tol = args
                    .next()
                    .and_then(|t| t.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--summary" => summary = Some(args.next().unwrap_or_else(|| usage())),
            _ => paths.push(a),
        }
    }
    let Some(kind) = kind else { usage() };
    if paths.len() != 2 {
        usage();
    }
    let base = load(&paths[0]);
    let fresh = load(&paths[1]);
    let mut report = Report::default();
    run_kind(&kind, &mut report, &base, &fresh, tol);

    println!(
        "bench_check {kind}: {} checks, {} failures ({} vs {})",
        report.checks,
        report.failures.len(),
        paths[0],
        paths[1]
    );
    for f in &report.failures {
        println!("  FAIL {f}");
    }
    if let Some(path) = summary {
        write_summary(&path, &kind, &report);
    }
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_for(kind: &str, base: &str, fresh: &str, tol: f64) -> Report {
        let b = Json::parse(base).unwrap();
        let f = Json::parse(fresh).unwrap();
        let mut r = Report::default();
        run_kind(kind, &mut r, &b, &f, tol);
        r
    }

    const XYCE_BASE: &str = r#"[{"solver": "KLU", "nsteps": 200, "factor_seconds": 1.0,
        "refactor_seconds": 0.30, "refactors": 199, "repivot_fallbacks": 0,
        "quality_repivots": 0, "refine_iterations": 0}]"#;

    #[test]
    fn xyce_passes_identical_and_fails_ratio_regression() {
        let r = report_for("xyce", XYCE_BASE, XYCE_BASE, 0.25);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert!(r.checks >= 5);

        // refactor/factor ratio 0.30 -> 0.45 is a 50% regression.
        let worse = XYCE_BASE.replace("\"refactor_seconds\": 0.30", "\"refactor_seconds\": 0.45");
        let r = report_for("xyce", XYCE_BASE, &worse, 0.25);
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(r.failures[0].contains("refactor/factor"));
    }

    #[test]
    fn xyce_counter_drift_fails() {
        let worse = XYCE_BASE.replace("\"repivot_fallbacks\": 0", "\"repivot_fallbacks\": 40");
        let r = report_for("xyce", XYCE_BASE, &worse, 0.25);
        assert!(r.failures.iter().any(|f| f.contains("repivot_fallbacks")));
    }

    const FIG6_BASE: &str = r#"{"fig6_speedup": [{"matrix": "hvdc2_like", "paper_fill": 2.8,
        "threads": 2, "klu_seconds": 0.0102, "basker_seconds": 0.0110,
        "pmkl_seconds": 0.0139, "basker_speedup": 0.927, "pmkl_speedup": 0.736}]}"#;

    #[test]
    fn fig6_reads_composite_baseline_and_bare_fresh() {
        let fresh = r#"[{"matrix": "hvdc2_like", "paper_fill": 2.8, "threads": 2,
            "klu_seconds": 0.0102, "basker_seconds": 0.0112, "pmkl_seconds": 0.0140,
            "basker_speedup": 0.91, "pmkl_speedup": 0.73}]"#;
        let r = report_for("fig6", FIG6_BASE, fresh, 0.25);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
    }

    #[test]
    fn fig6_speedup_collapse_fails_but_noise_passes() {
        let collapsed = r#"[{"matrix": "hvdc2_like", "paper_fill": 2.8, "threads": 2,
            "klu_seconds": 0.0102, "basker_seconds": 0.03, "pmkl_seconds": 0.0140,
            "basker_speedup": 0.34, "pmkl_speedup": 0.73}]"#;
        let r = report_for("fig6", FIG6_BASE, collapsed, 0.25);
        assert!(r.failures.iter().any(|f| f.contains("basker_speedup")));

        let missing = r#"[{"matrix": "other", "paper_fill": 1.0, "threads": 2,
            "klu_seconds": 1.0, "basker_seconds": 1.0, "pmkl_seconds": 1.0,
            "basker_speedup": 1.0, "pmkl_speedup": 1.0}]"#;
        let r = report_for("fig6", FIG6_BASE, missing, 0.25);
        assert!(r.failures.iter().any(|f| f.contains("row missing")));
    }

    const TABLE1_BASE: &str = r#"[{"matrix": "Power0_like", "n": 1000, "nnz": 5000,
        "klu_lu_nnz": 6000, "pmkl_lu_nnz": 9000, "basker_lu_nnz": 6100,
        "btf_pct": 95.0, "btf_blocks": 800}]"#;

    #[test]
    fn table1_memory_gated_exactly() {
        let r = report_for("table1", TABLE1_BASE, TABLE1_BASE, 0.25);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        let drift = TABLE1_BASE.replace("\"basker_lu_nnz\": 6100", "\"basker_lu_nnz\": 6101");
        let r = report_for("table1", TABLE1_BASE, &drift, 0.25);
        assert!(r.failures.iter().any(|f| f.contains("basker_lu_nnz")));
    }

    const FIG5_BASE: &str = r#"[{"matrix": "Power0_like", "paper_fill": 1.3, "threads": 1,
        "basker_seconds": 0.01, "pmkl_seconds": 0.02, "slumt_seconds": 0.02,
        "basker_lu_nnz": 6100, "pmkl_lu_nnz": 9000, "slumt_lu_nnz": 9000,
        "basker_residual": 1e-12, "pmkl_residual": 1e-12, "slumt_residual": 1e-12}]"#;

    #[test]
    fn fig5_residual_and_fill_gates() {
        let r = report_for("fig5", FIG5_BASE, FIG5_BASE, 0.25);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        let bad = FIG5_BASE.replace("\"pmkl_residual\": 1e-12", "\"pmkl_residual\": 1e-3");
        let r = report_for("fig5", FIG5_BASE, &bad, 0.25);
        assert!(r.failures.iter().any(|f| f.contains("pmkl residual")));
        let slow = FIG5_BASE.replace("\"basker_seconds\": 0.01", "\"basker_seconds\": 0.2");
        let r = report_for("fig5", FIG5_BASE, &slow, 0.25);
        assert!(r.failures.iter().any(|f| f.contains("basker_seconds")));
    }

    const FIG7_BASE: &str = r#"[{"matrix": "Power0_like", "threads": 2,
        "klu_seconds": 0.010, "basker1_seconds": 0.012, "baskerp_seconds": 0.009,
        "pmkl1_seconds": 0.020, "pmklp_seconds": 0.015}]"#;

    #[test]
    fn fig7_wall_loose_and_finite_gates() {
        let r = report_for("fig7", FIG7_BASE, FIG7_BASE, 0.25);
        assert!(r.failures.is_empty(), "{:?}", r.failures);

        // 10x is past the loose wall gate even on a noisy host.
        let blown = FIG7_BASE.replace("\"baskerp_seconds\": 0.009", "\"baskerp_seconds\": 0.09");
        let r = report_for("fig7", FIG7_BASE, &blown, 0.25);
        assert!(r.failures.iter().any(|f| f.contains("baskerp_seconds")));

        let missing = FIG7_BASE.replace("Power0_like", "other");
        let r = report_for("fig7", FIG7_BASE, &missing, 0.25);
        assert!(r.failures.iter().any(|f| f.contains("row missing")));
    }

    const FIG8_BASE: &str = r#"[{"solver": "basker", "matrix": "mesh_like", "threads": 2,
        "seconds": 0.02, "speedup": 1.6}]"#;

    #[test]
    fn fig8_speedup_collapse_fails_but_host_noise_passes() {
        let r = report_for("fig8", FIG8_BASE, FIG8_BASE, 0.25);
        assert!(r.failures.is_empty(), "{:?}", r.failures);

        // 1.6 -> 0.3 is below a quarter of baseline: a collapsed
        // parallel path, not host weather.
        let collapsed = FIG8_BASE.replace("\"speedup\": 1.6", "\"speedup\": 0.3");
        let r = report_for("fig8", FIG8_BASE, &collapsed, 0.25);
        assert!(r.failures.iter().any(|f| f.contains("speedup")));

        // 1.6 -> 0.8 is a 2x swing: routine on a 1-CPU host, passes.
        let noisy = FIG8_BASE.replace("\"speedup\": 1.6", "\"speedup\": 0.8");
        let r = report_for("fig8", FIG8_BASE, &noisy, 0.25);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
    }

    const TABLE2_BASE: &str = r#"[{"matrix": "mesh_like_s1", "n": 900, "nnz": 4400,
        "pmkl_lu_nnz": 21000}]"#;

    #[test]
    fn table2_memory_gated_exactly() {
        let r = report_for("table2", TABLE2_BASE, TABLE2_BASE, 0.25);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        let drift = TABLE2_BASE.replace("\"pmkl_lu_nnz\": 21000", "\"pmkl_lu_nnz\": 21001");
        let r = report_for("table2", TABLE2_BASE, &drift, 0.25);
        assert!(r.failures.iter().any(|f| f.contains("pmkl_lu_nnz")));
    }

    const SHARD_BASE: &str = r#"{"shards": 3, "clients": 16, "streams": 1024,
        "steps_per_stream": 4, "scale": "bench", "kill_one": false,
        "wall_seconds": 1.5, "steps_per_second": 2700.0,
        "p50_us": 1500, "p95_us": 12000, "p99_us": 30000,
        "requests": 6144, "responses": 6144, "tickets_lost": 0,
        "clean_errors": 0, "respawns": 0, "reopens": 0, "failovers": 0,
        "routed_streams": 1024, "worst_residual": 1.2e-16, "residual_ok": true}"#;

    #[test]
    fn shard_hard_invariants() {
        let r = report_for("shard", SHARD_BASE, SHARD_BASE, 0.25);
        assert!(r.failures.is_empty(), "{:?}", r.failures);

        // A lost ticket is a hard failure at any scale.
        let lost = SHARD_BASE
            .replace("\"tickets_lost\": 0", "\"tickets_lost\": 1")
            .replace("\"responses\": 6144", "\"responses\": 6143");
        let r = report_for("shard", SHARD_BASE, &lost, 0.25);
        assert!(r.failures.iter().any(|f| f.contains("tickets_lost")));
        assert!(r
            .failures
            .iter()
            .any(|f| f.contains("requests == responses")));

        // A crash-free baseline run must not have respawned anything.
        let respawned = SHARD_BASE.replace("\"respawns\": 0", "\"respawns\": 1");
        let r = report_for("shard", SHARD_BASE, &respawned, 0.25);
        assert!(r.failures.iter().any(|f| f.contains("respawns")));
    }

    #[test]
    fn summary_appends_rows_with_one_header() {
        let path = std::env::temp_dir().join(format!(
            "bench_check_summary_{}_{:?}.md",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = path.to_str().unwrap().to_string();
        let _ = std::fs::remove_file(&path);

        let ok = Report {
            checks: 12,
            ..Report::default()
        };
        write_summary(&path, "fig6", &ok);
        let mut failing = Report {
            checks: 9,
            worst_drift: 0.183,
            ..Report::default()
        };
        failing.failures.push("xyce KLU: ratio regressed".into());
        write_summary(&path, "xyce", &failing);

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            text.matches("| bench kind |").count(),
            1,
            "exactly one header:\n{text}"
        );
        assert!(text.contains("| fig6 | 12 | pass ✅ | 0.0% |"), "{text}");
        assert!(
            text.contains("| xyce | 9 | **1 FAIL** ❌ | 18.3% |"),
            "{text}"
        );
    }

    #[test]
    fn ratio_gates_record_worst_drift() {
        let mut r = Report::default();
        gate_not_worse_down(&mut r, "x", 1.0, 0.95, 0.25);
        gate_not_worse_up(&mut r, "y", 0.30, 0.33, 0.25);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert!((r.worst_drift - 0.10).abs() < 1e-9, "{}", r.worst_drift);
    }

    #[test]
    fn shard_perf_gated_loosely_and_shape_mismatch_skips() {
        // 2x latency wobble passes; a collapse past 4x fails.
        let noisy = SHARD_BASE.replace("\"p99_us\": 30000", "\"p99_us\": 55000");
        let r = report_for("shard", SHARD_BASE, &noisy, 0.25);
        assert!(r.failures.is_empty(), "{:?}", r.failures);

        let collapsed = SHARD_BASE.replace(
            "\"steps_per_second\": 2700.0",
            "\"steps_per_second\": 500.0",
        );
        let r = report_for("shard", SHARD_BASE, &collapsed, 0.25);
        assert!(r.failures.iter().any(|f| f.contains("steps/s")));

        // A differently-shaped fresh run keeps only the invariants.
        let reshaped = SHARD_BASE
            .replace("\"streams\": 1024", "\"streams\": 16")
            .replace("\"routed_streams\": 1024", "\"routed_streams\": 16")
            .replace("\"steps_per_second\": 2700.0", "\"steps_per_second\": 10.0");
        let r = report_for("shard", SHARD_BASE, &reshaped, 0.25);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
    }
}
