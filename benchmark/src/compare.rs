//! `compare <a.json> <b.json>`: per workload × end-to-end metric verdict
//! between two sets of runs, against the bounds in `BENCHMARK.json`.
//!
//! A metric of `b` is `worse` when its median is worse than `a`'s by more
//! than the bound, `better` when it is better by more than the bound, and
//! `same` otherwise — unless the run-to-run spread (interquartile range
//! over median, of either side) exceeds the bound, which makes it
//! `unresolved` unless every run of one side beats every run of the
//! other.

use crate::report::{as_f64, read_contract, read_runs, Declared};
use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// Judges `b` against `a` for one metric.
pub fn verdict(metric: &Declared, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    // Orient so that larger is worse.
    let sign = if metric.better_higher { -1.0 } else { 1.0 };
    let (ma, mb) = (stats::median(a), stats::median(b));
    let change = if ma == 0.0 {
        if mb == ma {
            0.0
        } else {
            f64::INFINITY * sign * (mb - ma).signum()
        }
    } else {
        sign * (mb - ma) / ma.abs()
    };
    let all_beat = |winner: &[f64], loser: &[f64]| {
        winner
            .iter()
            .all(|w| loser.iter().all(|l| sign * w < sign * l))
    };
    let noisy = [a, b]
        .iter()
        .any(|v| stats::spread(v).is_some_and(|s| s > bound));
    if noisy {
        return if all_beat(b, a) {
            Verdict::Better
        } else if all_beat(a, b) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `workload → metric → values` over the untraced runs of a set.
fn values_of(runs: &[Value]) -> BTreeMap<String, BTreeMap<String, Vec<f64>>> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for run in runs {
        if matches!(run.get("traced"), Some(Value::Bool(true))) {
            continue;
        }
        let Some(workload) = run.get("workload").and_then(Value::as_str) else {
            continue;
        };
        let Some(metrics) = run.get("end_to_end").and_then(Value::as_map) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(as_f64) {
                out.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    out
}

/// Prints the table; `Ok(false)` when any metric is `worse`.
pub fn command(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes two run-set files".into());
    };
    let load = |path: &String| -> Result<_, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Ok(values_of(
            &read_runs(&text).map_err(|e| format!("{path}: {e}"))?,
        ))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let contract = read_contract()?;
    let mut any_worse = false;
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "median a", "median b", "change", "iqr a", "iqr b"
    );
    for workload in &contract.workloads {
        let (Some(wa), Some(wb)) = (a.get(workload), b.get(workload)) else {
            continue;
        };
        for metric in &contract.end_to_end {
            let (Some(va), Some(vb)) = (wa.get(&metric.name), wb.get(&metric.name)) else {
                continue;
            };
            let v = verdict(metric, va, vb);
            any_worse |= v == Verdict::Worse;
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "{:<14} {:<20} {:>14.6} {:>14.6} {:>7.1}% {:>7} {:>7}  {}",
                workload,
                metric.name,
                ma,
                mb,
                if ma == 0.0 {
                    0.0
                } else {
                    (mb - ma) / ma * 100.0
                },
                pct(stats::spread(va)),
                pct(stats::spread(vb)),
                match v {
                    Verdict::Better => "better",
                    Verdict::Same => "same",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Declared {
        Declared {
            name: "outcome_wall_s".into(),
            unit: "s".into(),
            better_higher: false,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.02];
        let m = lower(0.10);
        assert_eq!(
            verdict(&m, &steady, &[1.03, 1.04, 1.05, 1.03, 1.04]),
            Verdict::Same
        );
        assert_eq!(
            verdict(&m, &steady, &[1.20, 1.21, 1.22, 1.20, 1.21]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&m, &steady, &[0.80, 0.81, 0.82, 0.80, 0.81]),
            Verdict::Better
        );
        // Spread beyond the bound: unresolved unless one side wins every pair.
        let noisy = [0.8, 1.0, 1.3, 0.9, 1.2];
        assert_eq!(verdict(&m, &steady, &noisy), Verdict::Unresolved);
        assert_eq!(
            verdict(&m, &steady, &[2.0, 3.0, 2.5, 4.0, 2.2]),
            Verdict::Worse
        );
        // Higher-is-better flips the direction.
        let h = Declared {
            better_higher: true,
            ..lower(0.10)
        };
        assert_eq!(
            verdict(&h, &steady, &[1.20, 1.21, 1.22, 1.20, 1.21]),
            Verdict::Better
        );
        // Identical exact readings are the same, whatever the bound.
        assert_eq!(
            verdict(&lower(0.0), &[3.0, 3.0], &[3.0, 3.0]),
            Verdict::Same
        );
    }
}
