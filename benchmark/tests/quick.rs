//! A quick run of every workload, end-to-end and traced: each must emit
//! every metric of its table exactly once, finite, with every step
//! verified. One test, run in sequence: the workloads share the
//! process-wide worker team and spawn `shardd` fleets.

use basker_bench::json::Json;
use basker_benchmark::inputs::Workload;
use basker_benchmark::report::{table, Environment, ResultFile};
use basker_benchmark::run::{run, Options};

#[test]
fn quick_run_of_each_workload_emits_every_metric_once() {
    let mut runs = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = Options {
                workload,
                seed: 3,
                seconds: 1.0,
                trace,
                quick: true,
            };
            let (result, spans) = run(&opts).unwrap_or_else(|e| panic!("{workload:?}: {e}"));
            let name = workload.name();
            assert_eq!(result.failed, 0, "{name}: failed steps");
            assert!(result.correct && result.attempted >= 1, "{name}");
            // `run` already refused missing, extra and non-finite
            // metrics; the printed line must carry the same set.
            let Json::Obj(fields) = Json::parse(&result.driver_line()).unwrap() else {
                panic!("{name}: result is not an object");
            };
            let Json::Obj(metrics) = &fields[3].1 else {
                panic!("{name}: metrics is not an object");
            };
            let mut printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let mut expected: Vec<&str> = table(trace).iter().map(|d| d.name).collect();
            printed.sort_unstable();
            expected.sort_unstable();
            assert_eq!(printed, expected, "{name} trace {trace}");
            for (k, v) in metrics {
                let value = v.num_field("value").unwrap();
                assert!(value.is_finite(), "{name}: {k} = {value}");
            }
            if trace {
                assert!(!spans.spans().is_empty(), "{name}: no spans recorded");
                let m = &result.metrics;
                assert_eq!(m.get("runtime.os_threads_spawned"), Some(0.0), "{name}");
                assert_eq!(m.get("serve.tickets_lost"), Some(0.0), "{name}");
            } else {
                assert!(spans.spans().is_empty(), "{name}: spans with tracing off");
                assert!(
                    result.metrics.iter().all(|(_, v)| v > 0.0),
                    "{name}: an end-to-end metric is zero"
                );
            }
            runs.push(result);
        }
    }
    // What was measured survives the trip through a result file.
    let file = ResultFile {
        environment: Environment::capture(true, Vec::new()),
        runs,
    };
    assert_eq!(ResultFile::parse(&file.to_json()).unwrap(), file);
    // No fleet left a socket directory behind.
    let results = basker_benchmark::repo_root().join("benchmark/results");
    let leftovers: Vec<_> = std::fs::read_dir(&results)
        .map(|d| d.filter_map(Result::ok).collect())
        .unwrap_or_default();
    let mine = format!("run-{}-", std::process::id());
    assert!(
        leftovers
            .iter()
            .all(|e| !e.file_name().to_string_lossy().starts_with(&mine)),
        "socket directories left in {}",
        results.display()
    );
}
