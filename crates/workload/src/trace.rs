//! Trace format and the synthetic production trace.
//!
//! A trace couples a cluster description with a full [`SimWorkload`] so an
//! experiment is exactly reproducible from one file. The on-disk format is
//! JSON lines: a header record followed by one record per workflow and
//! ad-hoc submission, diff-friendly and streamable.
//!
//! [`Trace::synthesize_production`] generates the stand-in for the paper's
//! proprietary Huawei trace (Section VII trace-driven simulation),
//! calibrated to what the paper states: recurring workflows whose deadlines
//! are *loose* — "the deadline for the workflow is 24 hours ... it can
//! complete in only around 2 hours" (Section II-B) — sharing the cluster
//! with bursty ad-hoc jobs, and runtime estimates carrying error relative
//! to actual runs (Section III-A).

use crate::adhoc::AdhocStream;
use crate::error::WorkloadError;
use crate::scientific::ScientificShape;
use flowtime_dag::WorkflowId;
use flowtime_sim::{AdhocSubmission, ClusterConfig, SimWorkload, WorkflowSubmission};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};

/// A reproducible experiment input: cluster + workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Cluster the trace was generated for.
    pub cluster: ClusterConfig,
    /// The workload.
    pub workload: SimWorkload,
}

/// One JSON-lines record.
#[derive(Debug, Serialize, Deserialize)]
enum Record {
    Header {
        cluster: ClusterConfig,
        version: u32,
    },
    Workflow(Box<WorkflowSubmission>),
    Adhoc(AdhocSubmission),
}

/// Parameters of the synthetic production trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProductionTraceConfig {
    /// Number of recurring workflow instances.
    pub workflows: usize,
    /// Jobs per workflow.
    pub jobs_per_workflow: usize,
    /// Slots between recurring submissions (the "daily" period).
    pub recurrence_slots: u64,
    /// Deadline looseness: window = looseness x minimal makespan (the
    /// paper's trace observed ~12x: 24 h deadline, ~2 h runtime).
    pub looseness: f64,
    /// Ad-hoc stream riding on the same cluster.
    pub adhoc: AdhocStream,
    /// Horizon over which ad-hoc jobs arrive, in slots.
    pub adhoc_horizon: u64,
    /// Relative runtime-estimation error bound (actual work is drawn
    /// uniformly within `±error` of the estimate).
    pub estimation_error: f64,
}

impl Default for ProductionTraceConfig {
    fn default() -> Self {
        ProductionTraceConfig {
            workflows: 10,
            jobs_per_workflow: 18,
            recurrence_slots: 360,
            looseness: 6.0,
            adhoc: AdhocStream::default(),
            adhoc_horizon: 3600,
            estimation_error: 0.15,
        }
    }
}

impl Trace {
    /// Writes the trace as JSON lines.
    ///
    /// # Errors
    ///
    /// I/O errors from `writer`.
    pub fn write_jsonl<W: Write>(&self, mut writer: W) -> Result<(), WorkloadError> {
        let header = Record::Header {
            cluster: self.cluster.clone(),
            version: 1,
        };
        serde_json::to_writer(&mut writer, &header).map_err(|e| WorkloadError::Parse {
            line: 0,
            message: e.to_string(),
        })?;
        writer.write_all(b"\n")?;
        for wf in &self.workload.workflows {
            serde_json::to_writer(&mut writer, &Record::Workflow(Box::new(wf.clone()))).map_err(
                |e| WorkloadError::Parse {
                    line: 0,
                    message: e.to_string(),
                },
            )?;
            writer.write_all(b"\n")?;
        }
        for job in &self.workload.adhoc {
            serde_json::to_writer(&mut writer, &Record::Adhoc(job.clone())).map_err(|e| {
                WorkloadError::Parse {
                    line: 0,
                    message: e.to_string(),
                }
            })?;
            writer.write_all(b"\n")?;
        }
        Ok(())
    }

    /// Reads a trace written by [`Trace::write_jsonl`].
    ///
    /// # Errors
    ///
    /// * [`WorkloadError::Io`] on read failures.
    /// * [`WorkloadError::Parse`] on malformed records, a submission that
    ///   fails its `validate` (the checks a builder applies), or a missing
    ///   header.
    pub fn read_jsonl<R: BufRead>(reader: R) -> Result<Self, WorkloadError> {
        let mut cluster: Option<ClusterConfig> = None;
        let mut workload = SimWorkload::default();
        for (idx, line) in reader.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let parse_error = |message: String| WorkloadError::Parse {
                line: idx + 1,
                message,
            };
            let record: Record =
                serde_json::from_str(&line).map_err(|e| parse_error(e.to_string()))?;
            match record {
                Record::Header { cluster: c, .. } => cluster = Some(c),
                Record::Workflow(wf) => {
                    wf.validate().map_err(|e| parse_error(e.to_string()))?;
                    workload.workflows.push(*wf);
                }
                Record::Adhoc(job) => {
                    job.validate().map_err(|e| parse_error(e.to_string()))?;
                    workload.adhoc.push(job);
                }
            }
        }
        let cluster = cluster.ok_or(WorkloadError::Parse {
            line: 0,
            message: "missing header record".into(),
        })?;
        Ok(Trace { cluster, workload })
    }

    /// Generates the synthetic production trace (see module docs).
    ///
    /// Workflow shapes rotate through the five scientific families;
    /// deadlines are `looseness ×` the workflow's minimum makespan;
    /// per-job actual work deviates from the estimate by up to
    /// `estimation_error`; submissions recur every `recurrence_slots`.
    pub fn synthesize_production(
        cluster: ClusterConfig,
        config: &ProductionTraceConfig,
        seed: u64,
    ) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut workload = SimWorkload::default();
        for i in 0..config.workflows {
            let shape = ScientificShape::ALL[i % ScientificShape::ALL.len()];
            let submit = (i as u64 / ScientificShape::ALL.len() as u64) * config.recurrence_slots
                + rng.gen_range(0..config.recurrence_slots / 4 + 1);
            // Build once with a placeholder window to learn the minimal
            // makespan, then rebuild with the loose deadline.
            let probe = shape
                .workflow(
                    WorkflowId::new(i as u64),
                    config.jobs_per_workflow,
                    10,
                    30,
                    submit,
                    submit + 1_000_000,
                    seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15),
                )
                .expect("skeletons are valid");
            // Judge looseness against the capacity-aware makespan: the
            // dependency makespan floored by the workflow's total demand in
            // normalized slot-equivalents (a window 6x a width-unlimited
            // makespan could still be infeasible on a finite cluster).
            let demand_slots = probe
                .total_demand()
                .max_normalized_by(&cluster.capacity())
                .ceil() as u64;
            let min_makespan = probe.min_makespan_slots().max(demand_slots).max(1);
            let window = ((min_makespan as f64) * config.looseness).ceil() as u64;
            let wf = probe.recur_at(WorkflowId::new(i as u64), submit);
            let wf = {
                // recur_at keeps the placeholder window; rebuild the window
                // via another shift with explicit deadline arithmetic.
                let mut b = flowtime_dag::WorkflowBuilder::new(wf.id(), wf.name().to_string());
                for job in wf.jobs() {
                    b.add_job(job.clone());
                }
                for (from, to) in wf.dag().edges() {
                    b.add_dep(from, to).expect("edges valid");
                }
                b.window(submit, submit + window)
                    .build()
                    .expect("window valid")
            };
            let actual: Vec<u64> = wf
                .jobs()
                .iter()
                .map(|j| {
                    let err = rng.gen_range(-config.estimation_error..=config.estimation_error);
                    ((j.work() as f64) * (1.0 + err)).round().max(1.0) as u64
                })
                .collect();
            workload
                .workflows
                .push(WorkflowSubmission::new(wf).with_actual_work(actual));
        }
        workload.adhoc = config
            .adhoc
            .generate(config.adhoc_horizon, seed.wrapping_add(1));
        Trace { cluster, workload }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtime_dag::ResourceVec;

    fn cluster() -> ClusterConfig {
        ClusterConfig::new(ResourceVec::new([500, 1_048_576]), 10.0)
    }

    #[test]
    fn round_trip_jsonl() {
        let trace = Trace::synthesize_production(
            cluster(),
            &ProductionTraceConfig {
                workflows: 3,
                adhoc_horizon: 200,
                ..Default::default()
            },
            42,
        );
        let mut buf = Vec::new();
        trace.write_jsonl(&mut buf).unwrap();
        let back = Trace::read_jsonl(std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn missing_header_rejected() {
        let data = b"{\"Adhoc\":{\"spec\":{\"name\":\"x\",\"tasks\":1,\"task_slots\":1,\"per_task\":[1,1],\"max_parallel\":null},\"arrival_slot\":0}}\n";
        let err = Trace::read_jsonl(std::io::BufReader::new(&data[..])).unwrap_err();
        assert!(matches!(err, WorkloadError::Parse { .. }));
    }

    #[test]
    fn invalid_submissions_are_parse_errors_at_their_line() {
        let header = "{\"Header\":{\"cluster\":{\"capacity\":[8,8192],\"slot_seconds\":10.0},\"version\":1}}";
        for bad in [
            "{\"Adhoc\":{\"spec\":{\"name\":\"x\",\"tasks\":0,\"task_slots\":1,\"per_task\":[1,1],\"max_parallel\":null},\"arrival_slot\":0}}",
            "{\"Workflow\":{\"workflow\":{\"id\":0,\"name\":\"w\",\"jobs\":[],\"dag\":{\"n\":0,\"succ\":[],\"pred\":[],\"edge_count\":0},\"submit_slot\":0,\"deadline_slot\":9},\"actual_work\":null,\"job_deadlines\":null}}",
        ] {
            let data = format!("{header}\n{bad}\n");
            match Trace::read_jsonl(std::io::BufReader::new(data.as_bytes())) {
                Err(WorkloadError::Parse { line, message }) => {
                    assert_eq!(line, 2, "{message}");
                    assert!(message.contains("malformed submission"), "{message}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_line_reports_position() {
        let data = b"not json\n";
        match Trace::read_jsonl(std::io::BufReader::new(&data[..])) {
            Err(WorkloadError::Parse { line, .. }) => assert_eq!(line, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn production_trace_has_loose_deadlines() {
        let cfg = ProductionTraceConfig {
            workflows: 5,
            ..Default::default()
        };
        let trace = Trace::synthesize_production(cluster(), &cfg, 7);
        assert_eq!(trace.workload.workflows.len(), 5);
        for sub in &trace.workload.workflows {
            let wf = &sub.workflow;
            let min = wf.min_makespan_slots();
            assert!(
                wf.window_slots() >= (min as f64 * cfg.looseness * 0.99) as u64,
                "window {} vs min {min}",
                wf.window_slots()
            );
            let actual = sub.actual_work.as_ref().unwrap();
            assert_eq!(actual.len(), wf.len());
        }
        assert!(!trace.workload.adhoc.is_empty());
    }

    #[test]
    fn estimation_error_bounded() {
        let cfg = ProductionTraceConfig {
            workflows: 5,
            estimation_error: 0.2,
            ..Default::default()
        };
        let trace = Trace::synthesize_production(cluster(), &cfg, 9);
        for sub in &trace.workload.workflows {
            for (job, &actual) in sub
                .workflow
                .jobs()
                .iter()
                .zip(sub.actual_work.as_ref().unwrap())
            {
                let est = job.work() as f64;
                assert!((actual as f64) >= est * 0.79 && (actual as f64) <= est * 1.21);
            }
        }
    }

    #[test]
    fn deterministic_generation() {
        let cfg = ProductionTraceConfig {
            workflows: 4,
            ..Default::default()
        };
        let a = Trace::synthesize_production(cluster(), &cfg, 5);
        let b = Trace::synthesize_production(cluster(), &cfg, 5);
        assert_eq!(a, b);
    }
}
