//! Command line of the whole-stack benchmark.
//!
//! ```text
//! basker-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out PATH]
//! basker-benchmark suite [--seed N] [--seconds S] [--quick] [--repeat R] [--trace 0|1] --out PATH
//! basker-benchmark compare A.json B.json
//! basker-benchmark manifest
//! ```

use basker_benchmark::compare::compare;
use basker_benchmark::inputs::Workload;
use basker_benchmark::report::{manifest, Environment, ResultFile};
use basker_benchmark::run::{run, Options};
use basker_benchmark::trace::Trace;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Window length the bounds in `BENCHMARK.json` were measured at.
const RUN_SECONDS: u64 = 15;
/// Window length of `--quick` runs.
const QUICK_SECONDS: f64 = 2.0;
/// Variables that would silently change what is measured.
const SCRUBBED: [&str; 3] = ["BASKER_ENGINE", "BASKER_NUM_THREADS", "BASKER_KERNEL"];

const USAGE: &str = "usage:
  basker-benchmark --workload <circuit_transient|mesh_factor|powergrid_contingency|cold_start|shard_fleet>
                   [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out PATH]
  basker-benchmark suite [--seed N] [--seconds S] [--quick] [--repeat R] [--trace 0|1] --out PATH
  basker-benchmark compare A.json B.json
  basker-benchmark manifest";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    repeat: usize,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--repeat" => a.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn options(a: &Args, workload: Workload) -> Options {
    Options {
        workload,
        seed: a.seed,
        seconds: a.seconds.unwrap_or(if a.quick {
            QUICK_SECONDS
        } else {
            RUN_SECONDS as f64
        }),
        trace: a.trace,
        quick: a.quick,
    }
}

fn write_spans(path: &Path, trace: &Trace) -> std::io::Result<()> {
    let rows: Vec<String> = trace
        .spans()
        .iter()
        .map(|s| {
            format!(
                "  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op
            )
        })
        .collect();
    std::fs::write(path, format!("[\n{}\n]\n", rows.join(",\n")))
}

/// One workload, one run: the driver contract's entry point.
fn single(a: &Args, removed_env: Vec<String>) -> Result<ExitCode, String> {
    let workload = a.workload.ok_or("--workload is required")?;
    let opts = options(a, workload);
    let (result, trace) = run(&opts)?;
    let out = a.out.clone().unwrap_or_else(|| {
        basker_benchmark::repo_root().join(format!(
            "benchmark/results/{}-seed{}-trace{}.json",
            workload.name(),
            opts.seed,
            u8::from(opts.trace)
        ))
    });
    let file = ResultFile {
        environment: Environment::capture(opts.quick, removed_env),
        runs: vec![result],
    };
    file.write(&out)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    if opts.trace {
        let spans = out.with_extension("spans.json");
        write_spans(&spans, &trace).map_err(|e| format!("{}: {e}", spans.display()))?;
    }
    let result = &file.runs[0];
    result.print_table();
    println!("{}", result.driver_line());
    Ok(if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload `--repeat` times, each run in a process of its own
/// (peak memory and thread counts are per process), merged into one
/// result file.
fn suite(a: &Args) -> Result<ExitCode, String> {
    let out = a.out.clone().ok_or("suite needs --out PATH")?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let tmp = out.with_extension("part.json");
    let mut merged: Option<ResultFile> = None;
    let mut failed = false;
    for rep in 0..a.repeat {
        for w in Workload::ALL {
            let opts = options(a, w);
            eprintln!("suite: {} (run {} of {})", w.name(), rep + 1, a.repeat);
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name()])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if opts.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&tmp)
                .stdout(std::process::Stdio::null());
            if opts.quick {
                cmd.arg("--quick");
            }
            let status = cmd
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            failed |= !status.success();
            let part = ResultFile::read(&tmp)?;
            let _ = std::fs::remove_file(&tmp);
            let _ = std::fs::remove_file(tmp.with_extension("spans.json"));
            match &mut merged {
                None => merged = Some(part),
                Some(m) => {
                    if let Some(diff) = m.environment.mismatch(&part.environment) {
                        return Err(format!("environment changed mid-suite: {diff}"));
                    }
                    m.runs.extend(part.runs);
                }
            }
        }
    }
    let merged = merged.ok_or("--repeat must be at least 1")?;
    merged
        .write(&out)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    for r in &merged.runs {
        r.print_table();
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn real_main() -> Result<ExitCode, String> {
    // Before any thread exists: drop the overrides the library would
    // otherwise honour, and remember which were set.
    let removed_env: Vec<String> = SCRUBBED
        .iter()
        .filter(|k| std::env::var_os(k).is_some())
        .map(|k| {
            std::env::remove_var(k);
            k.to_string()
        })
        .collect();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", manifest(RUN_SECONDS));
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return Err("compare takes two result files".into());
            };
            let (report, regressed) = compare(
                &ResultFile::read(Path::new(a))?,
                &ResultFile::read(Path::new(b))?,
            )?;
            print!("{report}");
            Ok(if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        Some("suite") => suite(&parse(&args[1..])?),
        Some(_) => single(&parse(&args)?, removed_env),
        None => Err("no arguments".into()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("basker-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
