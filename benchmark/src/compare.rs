//! `compare`: two result files, metric by metric against the bounds.

use crate::json::Json;
use crate::metrics::{end_to_end, Better, RunResult};
use crate::stats::{median, spread};
use crate::workloads::WORKLOADS;
use std::fmt::Write as _;

/// Reads a result file: either one result or `{"runs": [...]}`, as the
/// all-workload run writes it (possibly several runs per workload).
pub fn load(path: &str) -> Result<Vec<RunResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let results: Vec<RunResult> = match json.get("runs").and_then(Json::as_arr) {
        Some(runs) => runs
            .iter()
            .map(RunResult::from_json)
            .collect::<Result<_, _>>(),
        None => RunResult::from_json(&json).map(|r| vec![r]),
    }
    .map_err(|e| format!("{path}: {e}"))?;
    if results.iter().any(|r| r.quick) {
        return Err(format!(
            "{path}: QUICK results are not comparable; run without --quick"
        ));
    }
    Ok(results)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of one side spread wider than the bound, and the two sides
    /// overlap: the data can show neither a regression nor its absence.
    Unresolved,
}

/// Judges one metric: `base` and `new` are the values of each side's runs.
pub fn judge(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (b, n) = (median(base), median(new));
    let worse_by = match better {
        Better::Lower => (n - b) / b.abs(),
        Better::Higher => (b - n) / b.abs(),
    };
    let is_worse = |x: f64, than: f64| match better {
        Better::Lower => x > than,
        Better::Higher => x < than,
    };
    let all =
        |pred: &dyn Fn(f64, f64) -> bool| new.iter().all(|&x| base.iter().all(|&y| pred(x, y)));
    if spread(base).max(spread(new)) > bound {
        return if worse_by > bound && all(&|x, y| is_worse(x, y)) {
            Verdict::Regressed
        } else if all(&|x, y| !is_worse(x, y)) {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    // A NaN compares false, so it is never waved through.
    if worse_by <= bound {
        Verdict::Ok
    } else {
        Verdict::Regressed
    }
}

/// The comparison as text, and whether it passed: no metric regressed and
/// `failed_share` did not rise on any workload.
pub fn compare<'a>(base: &'a [RunResult], new: &'a [RunResult]) -> (String, bool) {
    let mut text = String::new();
    let mut passed = true;
    let untraced = |set: &'a [RunResult], workload: &str| -> Vec<&'a RunResult> {
        set.iter()
            .filter(|r| !r.traced && r.workload == workload)
            .collect()
    };
    let _ = writeln!(
        text,
        "{:<16} {:<30} {:>14} {:>14} {:>9} {:>6} {:>8}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound", "spread"
    );
    for w in &WORKLOADS {
        let (a, b) = (untraced(base, w.name), untraced(new, w.name));
        if a.is_empty() || b.is_empty() {
            if a.len() != b.len() {
                let _ = writeln!(text, "{:<16} present in only one file", w.name);
                passed = false;
            }
            continue;
        }
        for spec in end_to_end() {
            let values = |set: &[&RunResult]| -> Vec<f64> {
                set.iter().filter_map(|r| r.value(&spec.name)).collect()
            };
            let (va, vb) = (values(&a), values(&b));
            if va.is_empty() || vb.is_empty() {
                let _ = writeln!(text, "{:<16} {:<30} not measured", w.name, spec.name);
                passed = false;
                continue;
            }
            let bound = spec.bound.expect("end-to-end metrics have bounds");
            let verdict = judge(&va, &vb, spec.better, bound);
            passed &= verdict != Verdict::Regressed;
            let _ = writeln!(
                text,
                "{:<16} {:<30} {:>14.4} {:>14.4} {:>9.4} {:>5.0}% {:>7.1}%  {}",
                w.name,
                spec.name,
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
                bound * 100.0,
                spread(&va).max(spread(&vb)) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let share = |set: &[&RunResult]| {
            let failed: u64 = set.iter().map(|r| r.failed).sum();
            failed as f64 / set.iter().map(|r| r.attempted).sum::<u64>().max(1) as f64
        };
        let rose = share(&b) > share(&a);
        passed &= !rose;
        let _ = writeln!(
            text,
            "{:<16} {:<30} {:>14.4} {:>14.4} {:>9} {:>6} {:>8}  {}",
            w.name,
            "failed_share",
            share(&a),
            share(&b),
            "",
            "0",
            "",
            if rose { "regressed" } else { "ok" }
        );
    }
    let _ = writeln!(
        text,
        "new/base is the ratio of medians with the first file as base; spread is the wider side's \
         interquartile distance over its median (0 with one run a side)"
    );
    (text, passed)
}

/// Metrics marked exact must read the same in two runs of one build at one
/// seed. Returns the names that do not.
pub fn exact_mismatches(base: &[RunResult], new: &[RunResult]) -> Vec<String> {
    let mut out = Vec::new();
    for a in base {
        let twin = new
            .iter()
            .find(|b| (b.workload == a.workload) && (b.traced == a.traced) && (b.seed == a.seed));
        let Some(b) = twin else {
            out.push(format!("{}: no matching run", a.workload));
            continue;
        };
        for m in a.metrics.iter().filter(|m| m.spec.exact) {
            let other = b.value(&m.spec.name);
            if m.value != other {
                out.push(format!(
                    "{}/{}: {:?} against {:?}",
                    a.workload, m.spec.name, m.value, other
                ));
            }
        }
        if a.failed != b.failed {
            out.push(format!(
                "{}/failed: {} against {}",
                a.workload, a.failed, b.failed
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Measured;

    #[test]
    fn judge_applies_the_bound_to_the_medians() {
        use Better::*;
        assert_eq!(judge(&[100.0], &[104.0], Lower, 0.05), Verdict::Ok);
        assert_eq!(judge(&[100.0], &[106.0], Lower, 0.05), Verdict::Regressed);
        assert_eq!(judge(&[100.0], &[50.0], Lower, 0.05), Verdict::Ok);
        assert_eq!(judge(&[100.0], &[96.0], Higher, 0.05), Verdict::Ok);
        assert_eq!(judge(&[100.0], &[94.0], Higher, 0.05), Verdict::Regressed);
        assert_eq!(
            judge(&[100.0], &[f64::NAN], Lower, 0.05),
            Verdict::Regressed
        );
    }

    #[test]
    fn judge_calls_a_wide_overlapping_spread_unresolved() {
        use Better::*;
        let noisy = [80.0, 100.0, 120.0, 140.0];
        // Worse on the median, but the sides overlap and spread 40 %.
        assert_eq!(
            judge(&noisy, &[90.0, 115.0, 130.0, 150.0], Lower, 0.05),
            Verdict::Unresolved
        );
        // Every new run worse than every base run: regressed despite the spread.
        assert_eq!(
            judge(&noisy, &[150.0, 180.0, 210.0, 240.0], Lower, 0.05),
            Verdict::Regressed
        );
        // Every new run better than every base run: ok despite the spread.
        assert_eq!(
            judge(&noisy, &[40.0, 50.0, 60.0, 70.0], Lower, 0.05),
            Verdict::Ok
        );
    }

    fn result(workload: &str, p50: f64, failed: u64) -> RunResult {
        RunResult {
            workload: workload.into(),
            seed: 1,
            traced: false,
            quick: false,
            nproc: 2,
            commit: "x".into(),
            seconds: 1.0,
            passes: 1.0,
            samples: 100,
            attempted: 100,
            failed,
            metrics: end_to_end()
                .into_iter()
                .map(|spec| Measured {
                    value: Some(if spec.name == "latency_ms_p50" {
                        p50
                    } else {
                        10.0
                    }),
                    spec,
                })
                .collect(),
        }
    }

    #[test]
    fn compare_fails_on_a_regression_or_a_rise_in_failed_share() {
        let base = vec![
            result("scan_agg", 20.0, 0),
            result("compile_heavy", 40.0, 0),
        ];
        let (text, passed) = compare(&base, &base);
        assert!(passed, "{text}");
        assert!(!text.contains("regressed"), "{text}");

        let slower = vec![
            result("scan_agg", 30.0, 0),
            result("compile_heavy", 40.0, 0),
        ];
        let (text, passed) = compare(&base, &slower);
        assert!(!passed);
        let line = text
            .lines()
            .find(|l| l.starts_with("scan_agg") && l.contains("latency_ms_p50"))
            .unwrap();
        assert!(
            line.contains("regressed") && line.contains("1.5000"),
            "{line}"
        );

        let failing = vec![
            result("scan_agg", 20.0, 1),
            result("compile_heavy", 40.0, 0),
        ];
        let (text, passed) = compare(&base, &failing);
        assert!(!passed, "{text}");

        let missing = vec![result("scan_agg", 20.0, 0)];
        assert!(!compare(&base, &missing).1);
    }

    #[test]
    fn exact_metrics_must_repeat() {
        let a = vec![result("scan_agg", 20.0, 0)];
        let mut b = a.clone();
        assert!(exact_mismatches(&a, &b).is_empty());
        // latency may differ...
        b[0].metrics[1].value = Some(21.0);
        assert!(exact_mismatches(&a, &b).is_empty());
        // ...the simulated page cost may not.
        let cost = b[0]
            .metrics
            .iter_mut()
            .find(|m| m.spec.name == "weighted_page_cost_per_query")
            .unwrap();
        cost.value = Some(10.5);
        assert_eq!(exact_mismatches(&a, &b).len(), 1);
    }

    #[test]
    fn load_refuses_quick_results() {
        let mut r = result("scan_agg", 20.0, 0);
        r.quick = true;
        let dir = crate::run::out_dir().join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quick.json");
        std::fs::write(&path, r.to_json().render()).unwrap();
        let err = load(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("QUICK"), "{err}");
        r.quick = false;
        std::fs::write(
            &path,
            Json::obj([("runs", Json::Arr(vec![r.to_json()]))]).render(),
        )
        .unwrap();
        assert_eq!(load(path.to_str().unwrap()).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
