//! `compare A.json B.json`: per workload and end-to-end metric, both
//! medians, the change with its base, the bound, and a verdict.

use crate::inputs::Workload;
use crate::report::{Better, MetricDef, ResultFile, END_TO_END};
use crate::stats;

/// The verdict on one (workload, metric) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound, and the
    /// runs repeat tightly enough to say so.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound and the two sides'
    /// runs overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better), in the metric's own direction.
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Judges one metric from the runs of both sides (choosing-metrics §6
/// step 5): a median worse by more than the bound is a regression; a
/// spread wider than the bound makes the pairing unresolved unless
/// every run of one side beats every run of the other.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Option<(f64, f64, f64, Verdict)> {
    let (ma, mb) = (stats::median(a)?, stats::median(b)?);
    let change = worsening(def, ma, mb);
    let spread = stats::spread(a)
        .unwrap_or(0.0)
        .max(stats::spread(b).unwrap_or(0.0));
    let all_pairs = |pred: &dyn Fn(f64) -> bool| {
        a.iter()
            .all(|&x| b.iter().all(|&y| pred(worsening(def, x, y))))
    };
    let verdict = if spread > def.bound {
        if all_pairs(&|w| w <= 0.0) {
            Verdict::Ok
        } else if change > def.bound && all_pairs(&|w| w > 0.0) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if change > def.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Some((ma, mb, change, verdict))
}

/// Compares two result files; returns the printed report and whether
/// any pairing regressed. Refuses files whose environments differ.
pub fn compare(a: &ResultFile, b: &ResultFile) -> Result<(String, bool), String> {
    if let Some(diff) = a.environment.mismatch(&b.environment) {
        return Err(format!(
            "environments differ ({diff}); numbers from different environments are not comparable"
        ));
    }
    let mut out = format!(
        "A: commit {}  B: commit {}\n{:<22} {:<16} {:>14} {:>14} {:>9} {:>6}  verdict\n",
        a.environment.git_commit,
        b.environment.git_commit,
        "workload",
        "metric",
        "A (median)",
        "B (median)",
        "worse by",
        "bound"
    );
    let mut regressed = false;
    for w in Workload::ALL {
        let runs = |f: &ResultFile| -> Vec<_> {
            f.runs
                .iter()
                .filter(|r| r.workload == w.name() && !r.trace)
                .cloned()
                .collect()
        };
        let (ra, rb) = (runs(a), runs(b));
        if ra.is_empty() || rb.is_empty() {
            continue;
        }
        let seconds =
            |rs: &[crate::report::RunResult]| rs.iter().map(|r| r.seconds).collect::<Vec<_>>();
        if seconds(&ra)
            .iter()
            .chain(&seconds(&rb))
            .any(|s| *s != ra[0].seconds)
        {
            return Err(format!("{}: runs of different --seconds", w.name()));
        }
        for def in END_TO_END {
            let values = |rs: &[crate::report::RunResult]| -> Vec<f64> {
                rs.iter().filter_map(|r| r.metrics.get(def.name)).collect()
            };
            let Some((ma, mb, change, verdict)) = judge(def, &values(&ra), &values(&rb)) else {
                continue;
            };
            regressed |= verdict == Verdict::Regressed;
            out.push_str(&format!(
                "{:<22} {:<16} {:>14.4} {:>14.4} {:>+8.1}% {:>5.0}%  {} ({} vs {} runs, base A = {:.4} {})\n",
                w.name(),
                def.name,
                ma,
                mb,
                change * 100.0,
                def.bound * 100.0,
                verdict.as_str(),
                ra.len(),
                rb.len(),
                ma,
                def.unit
            ));
        }
        let failed = |rs: &[crate::report::RunResult]| rs.iter().map(|r| r.failed).sum::<u64>();
        if failed(&ra) + failed(&rb) > 0 {
            regressed |= failed(&rb) > failed(&ra);
            out.push_str(&format!(
                "{:<22} failed steps: A {} B {}\n",
                w.name(),
                failed(&ra),
                failed(&rb)
            ));
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::lookup;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        // A 10 % bound in each direction, independent of the table's.
        let lower = &MetricDef {
            bound: 0.10,
            ..*lookup("step_ms_p50").unwrap()
        };
        let higher = &MetricDef {
            bound: 0.10,
            ..*lookup("steps_per_s").unwrap()
        };
        let v = |d, a: &[f64], b: &[f64]| judge(d, a, b).unwrap().3;
        assert_eq!(v(lower, &[10.0], &[10.5]), Verdict::Ok);
        assert_eq!(v(lower, &[10.0], &[12.0]), Verdict::Regressed);
        assert_eq!(v(lower, &[10.0], &[5.0]), Verdict::Ok);
        assert_eq!(v(higher, &[100.0], &[80.0]), Verdict::Regressed);
        assert_eq!(v(higher, &[100.0], &[95.0]), Verdict::Ok);
        // Wide spread, overlapping runs: cannot tell.
        let noisy = [8.0, 10.0, 12.0, 14.0];
        assert_eq!(
            v(lower, &noisy, &[9.0, 11.0, 13.0, 15.0]),
            Verdict::Unresolved
        );
        // Wide spread, but every B run beats every A run: ok.
        assert_eq!(v(lower, &noisy, &[5.0, 6.0, 7.0, 7.5]), Verdict::Ok);
        // Wide spread and every B run is worse than every A run, by
        // more than the bound at the median: regressed.
        assert_eq!(
            v(lower, &noisy, &[20.0, 22.0, 25.0, 30.0]),
            Verdict::Regressed
        );
        let (ma, mb, change, _) = judge(higher, &[100.0, 102.0, 98.0], &[90.0]).unwrap();
        assert_eq!((ma, mb), (100.0, 90.0));
        assert!((change - 0.10).abs() < 1e-12, "share of A's median");
        assert!(judge(lower, &[], &[1.0]).is_none());
    }
}
