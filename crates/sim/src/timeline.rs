//! Allocation timelines and ASCII Gantt rendering.
//!
//! When enabled ([`crate::Engine::with_timeline`]), the engine records every
//! `(slot, job, tasks)` allocation triple. [`render_gantt`] turns the
//! recording into a terminal Gantt chart — the fastest way to *see* the
//! difference between EDF's monolithic blocks and FlowTime's leveled
//! profile (the shapes of the paper's Fig. 1).

use crate::metrics::Metrics;
use flowtime_dag::JobId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One allocation record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimelineEntry {
    /// Slot the allocation applied to.
    pub slot: u64,
    /// The job allocated to.
    pub job: JobId,
    /// Concurrent tasks granted.
    pub tasks: u64,
}

/// A complete allocation recording.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Timeline {
    /// Entries in slot order (ties in job-id order).
    pub entries: Vec<TimelineEntry>,
}

impl Timeline {
    /// The last slot with any allocation (0 for empty recordings).
    pub fn horizon(&self) -> u64 {
        self.entries.iter().map(|e| e.slot + 1).max().unwrap_or(0)
    }
}

/// Intensity ramp used for cells: blank → full block.
const RAMP: [char; 5] = [' ', '░', '▒', '▓', '█'];

/// Renders the recording as an ASCII Gantt chart of at most `width`
/// columns, one row per job (labelled with the job id and, from `metrics`,
/// its class). Each cell's shade is the job's allocation in that time
/// bucket relative to its own peak.
///
/// # Example
///
/// ```
/// use flowtime_sim::timeline::{render_gantt, Timeline, TimelineEntry};
/// use flowtime_dag::JobId;
/// let tl = Timeline {
///     entries: vec![
///         TimelineEntry { slot: 0, job: JobId::new(0), tasks: 4 },
///         TimelineEntry { slot: 1, job: JobId::new(0), tasks: 2 },
///     ],
/// };
/// let chart = render_gantt(&tl, None, 10);
/// assert!(chart.contains("job-0"));
/// ```
pub fn render_gantt(timeline: &Timeline, metrics: Option<&Metrics>, width: usize) -> String {
    let horizon = timeline.horizon().max(1);
    let width = width.clamp(1, 400) as u64;
    let bucket = horizon.div_ceil(width);
    // job -> bucket -> tasks
    let mut rows: BTreeMap<JobId, Vec<u64>> = BTreeMap::new();
    let cols = horizon.div_ceil(bucket) as usize;
    for e in &timeline.entries {
        let row = rows.entry(e.job).or_insert_with(|| vec![0; cols]);
        row[(e.slot / bucket) as usize] += e.tasks;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "one column = {bucket} slot(s); shade = share of the job's peak rate"
    );
    for (job, buckets) in &rows {
        let peak = buckets.iter().copied().max().unwrap_or(0).max(1);
        let label = metrics
            .and_then(|m| m.jobs.iter().find(|j| j.id == *job))
            .map(|j| {
                if j.class.is_adhoc() {
                    format!("{job} (ad-hoc)")
                } else {
                    format!("{job}")
                }
            })
            .unwrap_or_else(|| format!("{job}"));
        let _ = write!(out, "{label:<18}|");
        for &b in buckets {
            let idx = if b == 0 {
                0
            } else {
                1 + (b * (RAMP.len() as u64 - 2) / peak) as usize
            };
            out.push(RAMP[idx.min(RAMP.len() - 1)]);
        }
        out.push_str("|\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(slot: u64, job: u64, tasks: u64) -> TimelineEntry {
        TimelineEntry {
            slot,
            job: JobId::new(job),
            tasks,
        }
    }

    #[test]
    fn horizon_is_one_past_the_last_slot() {
        let tl = Timeline {
            entries: vec![entry(0, 1, 3), entry(1, 1, 2), entry(5, 2, 7)],
        };
        assert_eq!(tl.horizon(), 6);
        assert_eq!(Timeline::default().horizon(), 0);
    }

    #[test]
    fn gantt_renders_one_row_per_job() {
        let tl = Timeline {
            entries: vec![entry(0, 1, 4), entry(1, 1, 4), entry(0, 2, 1)],
        };
        let chart = render_gantt(&tl, None, 20);
        let rows: Vec<&str> = chart.lines().skip(1).collect();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].starts_with("job-1"));
        assert!(rows[1].starts_with("job-2"));
        // Full-intensity cells for job 1's peak slots.
        assert!(rows[0].contains('█'));
    }

    #[test]
    fn gantt_buckets_long_horizons() {
        let entries: Vec<TimelineEntry> = (0..1000).map(|s| entry(s, 1, 2)).collect();
        let tl = Timeline { entries };
        let chart = render_gantt(&tl, None, 50);
        let row = chart.lines().nth(1).unwrap();
        // 1000 slots into <= 50 columns plus label and frame.
        assert!(row.chars().count() < 80, "{row}");
    }

    #[test]
    fn empty_timeline_renders() {
        let chart = render_gantt(&Timeline::default(), None, 10);
        assert!(chart.contains("one column"));
    }
}
