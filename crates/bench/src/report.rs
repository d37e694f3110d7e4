//! Table rendering and result persistence.

use crate::experiments::SummaryRow;
use serde::Serialize;
use std::fmt::Write as _;
use std::path::Path;

/// Renders Fig. 4/5-style rows as an aligned text table.
pub fn render_table(title: &str, rows: &[SummaryRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>8} {:>9} {:>12} {:>12} {:>14} {:>8}",
        "algorithm",
        "jobs",
        "misses",
        "wf-miss",
        "max Δ (s)",
        "mean Δ (s)",
        "adhoc tat (s)",
        "util"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>8} {:>9} {:>12.1} {:>12.1} {:>14.1} {:>8.3}",
            r.algo,
            r.deadline_jobs,
            r.job_misses,
            r.workflow_misses,
            r.max_delta_s,
            r.mean_delta_s,
            r.adhoc_turnaround_s,
            r.avg_utilization,
        );
    }
    out
}

/// Writes any serializable result to `results/<name>.json`, creating the
/// directory if needed. Best-effort: failures are printed, not fatal, so a
/// read-only checkout still runs experiments.
pub fn persist<T: Serialize>(name: &str, value: &T) {
    let dir = Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create results/: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_all_rows() {
        let rows = vec![SummaryRow {
            algo: "FlowTime".into(),
            deadline_jobs: 90,
            job_misses: 0,
            workflow_misses: 0,
            max_delta_s: -120.0,
            mean_delta_s: -300.5,
            adhoc_turnaround_s: 522.5,
            avg_utilization: 0.41,
        }];
        let t = render_table("fig4", &rows);
        assert!(t.contains("FlowTime"));
        assert!(t.contains("522.5"));
        assert!(t.lines().count() >= 3);
    }
}
