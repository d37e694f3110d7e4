//! Online (incremental) driving of the simulation engine.
//!
//! [`OnlineEngine`] is the primitive under the `flowtimed` daemon: it
//! wraps an [`Engine`] whose job table starts empty and grows as
//! submissions are injected while virtual time advances one
//! [`Engine::step`] at a time. Its contract is **batch parity**: a
//! sequence of injections and steps that respects the arrival discipline
//! below produces a [`crate::SimOutcome`] (and decision trace) that is
//! byte-identical to [`Engine::from_log`] over the same
//! [`crate::SubmissionLog`] — including the engine telemetry counters
//! that serialize into the outcome.
//!
//! # Arrival discipline
//!
//! * A submission may only be injected at or before its arrival slot:
//!   `arrival_slot >= now`. Injections into already-simulated slots are
//!   rejected (the batch run would have seen them; the live run cannot).
//! * Callers that buffer future-dated submissions (the daemon session)
//!   must inject them in `(arrival_slot, seq)` order — injecting when
//!   virtual time reaches the arrival slot does this naturally — so the
//!   dense job ids match [`Engine::from_log`]'s sort order.
//! * While every *injected* job is complete but future-dated submissions
//!   are still queued upstream, the caller burns the gap with
//!   [`OnlineEngine::step_idle`]: the batch run simulates those same
//!   slots as idle (its not-yet-arrived jobs keep `incomplete` > 0), so
//!   the online run must simulate them too, not skip them.
//!
//! # Telemetry parity
//!
//! Batch construction pushes arrival/ready events for every job with
//! `arrival_slot > 0` at time zero; the online path pushes the identical
//! events at injection time. Slot-0 submissions are seeded directly into
//! the incremental indices on both paths (no heap traffic), so
//! `heap_ops` / `events_processed` / `slots_simulated` /
//! `peak_live_jobs` all agree at finish.

use crate::cluster::ClusterConfig;
use crate::engine::{Engine, StepOutcome, TableBuilder, EV_ARRIVAL, EV_READY};
use crate::error::SimError;
use crate::job::{AdhocSubmission, WorkflowSubmission};
use crate::scheduler::Scheduler;
use crate::telemetry::EngineTelemetry;
use crate::trace::TraceHandle;
use crate::SimOutcome;
use flowtime_dag::JobId;
use serde::Serialize;
use std::cmp::Reverse;

/// Point-in-time view of an online engine, for `status` endpoints.
#[derive(Debug, Clone, Serialize)]
pub struct OnlineStatus {
    /// Current virtual slot (the next slot to be simulated).
    pub now: u64,
    /// Injected jobs not yet complete.
    pub incomplete: usize,
    /// Jobs arrived and visible to schedulers.
    pub visible: usize,
    /// Jobs currently runnable.
    pub runnable: usize,
    /// Total jobs materialized so far (complete or not).
    pub total_jobs: u64,
    /// Engine hot-path counters accumulated so far.
    pub engine_telemetry: EngineTelemetry,
}

/// Progress of a single materialized job, for `query` endpoints.
#[derive(Debug, Clone, Serialize)]
pub struct JobProgress {
    /// The job's dense id.
    pub id: JobId,
    /// Slot the job arrived (or will arrive) at.
    pub arrival_slot: u64,
    /// Task-slots of work applied so far.
    pub done_work: u64,
    /// Ground-truth work required.
    pub actual_work: u64,
    /// Completion slot, once finished.
    pub completion_slot: Option<u64>,
}

/// An [`Engine`] driven incrementally: submissions are injected between
/// steps while virtual time advances. See the module docs for the parity
/// contract.
pub struct OnlineEngine {
    engine: Engine,
    /// Set at the first step: the trace header and slot-0 seed events
    /// have been written, so the slot-0 job table is frozen.
    begun: bool,
}

impl OnlineEngine {
    /// An online engine over an initially-empty workload.
    pub fn new(cluster: ClusterConfig, max_slots: u64) -> Self {
        OnlineEngine {
            engine: Engine::assemble(cluster, TableBuilder::new(), max_slots),
            begun: false,
        }
    }

    /// Enables decision-trace recording (see [`Engine::with_trace`]).
    /// The header is written lazily at the first step and its job table
    /// is refreshed at [`OnlineEngine::finish`], so late injections are
    /// covered.
    #[must_use]
    pub fn with_trace(mut self, capacity: usize) -> (Self, TraceHandle) {
        let (engine, handle) = self.engine.with_trace(capacity);
        self.engine = engine;
        (self, handle)
    }

    /// Current virtual slot — the next slot to be simulated.
    pub fn now(&self) -> u64 {
        self.engine.state.now
    }

    /// Number of injected jobs not yet complete.
    pub fn incomplete(&self) -> usize {
        self.engine.state.incomplete
    }

    /// Point-in-time status snapshot.
    pub fn status(&self) -> OnlineStatus {
        OnlineStatus {
            now: self.engine.state.now,
            incomplete: self.engine.state.incomplete,
            visible: self.engine.state.visible.len(),
            runnable: self.engine.state.runnable.len(),
            total_jobs: self.engine.state.jobs.len() as u64,
            engine_telemetry: self.engine.telemetry.clone(),
        }
    }

    /// Progress of one materialized job, if the id exists.
    pub fn job_progress(&self, id: JobId) -> Option<JobProgress> {
        let job = &self.engine.state.jobs[self.engine.state.row(id)?];
        Some(JobProgress {
            id: job.id,
            arrival_slot: job.arrival_slot,
            done_work: job.done_work,
            actual_work: job.actual_work,
            completion_slot: job.completion_slot,
        })
    }

    /// Injects a workflow submission, materializing one job per DAG node
    /// with dense ids continuing the existing table. Returns the new ids
    /// in node order.
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedSubmission`] for a submission that fails
    /// [`WorkflowSubmission::validate`] or an arrival slot that has
    /// already been simulated.
    pub fn submit_workflow(
        &mut self,
        submission: WorkflowSubmission,
    ) -> Result<Vec<JobId>, SimError> {
        let arrival = submission.workflow.submit_slot();
        self.check_arrival(arrival)?;
        let mut table = TableBuilder::offset(
            self.engine.state.jobs.len() as u64,
            self.engine.state.workflows.len(),
        );
        table.push_workflow(submission)?;
        Ok(self.splice(table, arrival))
    }

    /// Injects an ad-hoc submission and returns its job id.
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedSubmission`] for a submission that fails
    /// [`AdhocSubmission::validate`] or an arrival slot that has already
    /// been simulated.
    pub fn submit_adhoc(&mut self, submission: AdhocSubmission) -> Result<JobId, SimError> {
        let arrival = submission.arrival_slot;
        self.check_arrival(arrival)?;
        let mut table = TableBuilder::offset(
            self.engine.state.jobs.len() as u64,
            self.engine.state.workflows.len(),
        );
        table.push_adhoc(submission)?;
        let ids = self.splice(table, arrival);
        Ok(ids[0])
    }

    /// Rejects arrivals into slots the engine has already simulated (or
    /// is past seeding for, in the slot-0 case).
    fn check_arrival(&self, arrival: u64) -> Result<(), SimError> {
        if arrival < self.engine.state.now {
            return Err(SimError::MalformedSubmission {
                reason: "arrival slot already simulated",
            });
        }
        if self.begun && arrival == 0 {
            // Slot-0 jobs bypass the event heap: they are seeded directly
            // into the indices and the trace header, both frozen at the
            // first step.
            return Err(SimError::MalformedSubmission {
                reason: "slot 0 already seeded",
            });
        }
        Ok(())
    }

    /// Splices freshly-built rows onto the live table and seeds indices
    /// or events exactly as batch construction would have.
    fn splice(&mut self, table: TableBuilder, arrival: u64) -> Vec<JobId> {
        let TableBuilder {
            jobs,
            workflows,
            job_nodes,
            pending_preds,
            ..
        } = table;
        let ids: Vec<JobId> = jobs.iter().map(|j| j.id).collect();
        let first_new = self.engine.state.jobs.len();
        self.engine.state.jobs.extend(jobs);
        assert!(
            self.engine.state.ids_are_dense(first_new),
            "job ids name their table rows"
        );
        self.engine.state.workflows.extend(workflows);
        self.engine.job_nodes.extend(job_nodes);
        self.engine.pending_preds.extend(pending_preds);
        if arrival == 0 {
            // Pre-run slot-0 injection: mirror `Engine::assemble`, which
            // seeds slot-0 jobs straight into the incremental indices
            // with no heap traffic.
            self.engine.state.rebuild_indices();
        } else {
            // Future arrival: queue the same events batch construction
            // queues, with the same heap-op accounting.
            self.engine.state.incomplete += ids.len();
            for job in &self.engine.state.jobs[first_new..] {
                debug_assert!(job.arrival_slot > 0);
                self.engine
                    .events
                    .push(Reverse((job.arrival_slot, EV_ARRIVAL, job.id)));
                self.engine.telemetry.heap_ops += 1;
                if let Some(r) = job.ready_slot {
                    if r > 0 {
                        self.engine.events.push(Reverse((r, EV_READY, job.id)));
                        self.engine.telemetry.heap_ops += 1;
                    }
                }
            }
        }
        ids
    }

    /// Advances by one run-loop iteration (see [`Engine::step`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`Engine::run`].
    pub fn step(&mut self, scheduler: &mut dyn Scheduler) -> Result<StepOutcome, SimError> {
        self.ensure_begun(scheduler);
        self.engine.step(scheduler, false)
    }

    /// Simulates one slot even if every injected job is complete — the
    /// gap-burning step used while future-dated submissions are queued
    /// upstream (see the module docs).
    ///
    /// # Errors
    ///
    /// Same contract as [`Engine::run`].
    pub fn step_idle(&mut self, scheduler: &mut dyn Scheduler) -> Result<StepOutcome, SimError> {
        self.ensure_begun(scheduler);
        self.engine.step(scheduler, true)
    }

    /// Writes the trace header and slot-0 seed events exactly once,
    /// freezing the slot-0 table.
    fn ensure_begun(&mut self, scheduler: &dyn Scheduler) {
        if !self.begun {
            self.begun = true;
            self.engine.begin_trace(scheduler.name());
        }
    }

    /// Consumes the engine into its outcome. The caller is responsible
    /// for having stepped to completion first (a drained daemon session
    /// has); an unfinished engine reports its partial progress in
    /// [`SimOutcome::in_flight`] just like a horizon-exhausted batch run.
    pub fn finish(mut self, scheduler: &mut dyn Scheduler) -> SimOutcome {
        self.ensure_begun(scheduler);
        if let Some(ctx) = &self.engine.trace {
            // Late injections extended the job table after the header was
            // written; refresh it so the trace is self-contained.
            ctx.buffer().header.jobs = self.engine.trace_job_metas();
        }
        self.engine.finish(scheduler.telemetry())
    }
}

// Below the last line of non-test code, where CI's "no panic path" gate
// stops reading this file.
#[cfg(test)]
impl OnlineEngine {
    /// The wrapped engine (for in-crate tests that read its counters).
    pub(crate) fn engine(&self) -> &Engine {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::SimState;
    use crate::submission::{LogEntry, SubmissionLog};
    use crate::Allocation;
    use flowtime_dag::{JobSpec, ResourceVec, WorkflowBuilder, WorkflowId};

    struct Greedy;
    impl Scheduler for Greedy {
        fn name(&self) -> &str {
            "greedy"
        }
        fn plan_slot(&mut self, state: &SimState) -> Allocation {
            let mut alloc = Allocation::new();
            let mut free = state.capacity();
            for job in state.runnable() {
                let fit = job
                    .per_task
                    .times_fitting(&free)
                    .min(job.max_tasks_this_slot);
                if fit > 0 {
                    alloc.assign(job.id, fit);
                    free -= job.per_task * fit;
                }
            }
            alloc
        }
    }

    fn cluster() -> ClusterConfig {
        ClusterConfig::new(ResourceVec::new([8, 65536]), 10.0)
    }

    fn adhoc(arrival: u64, tasks: u64, dur: u64) -> AdhocSubmission {
        AdhocSubmission {
            spec: JobSpec::new("a", tasks, dur, ResourceVec::new([1, 1024])),
            arrival_slot: arrival,
        }
    }

    fn chain_workflow(submit: u64, deadline: u64) -> WorkflowSubmission {
        let mut b = WorkflowBuilder::new(WorkflowId::new(7), "wf");
        let a = b.add_job(JobSpec::new("a", 4, 2, ResourceVec::new([1, 1024])));
        let c = b.add_job(JobSpec::new("c", 2, 2, ResourceVec::new([1, 1024])));
        b.add_dep(a, c).unwrap();
        WorkflowSubmission::new(b.window(submit, deadline).build().unwrap())
    }

    /// The parity contract, in miniature: inject-at-arrival + gap
    /// stepping equals `Engine::from_log` byte for byte.
    #[test]
    fn online_matches_from_log_bytes() {
        let mut log = SubmissionLog::new();
        log.entries.push(LogEntry::Workflow {
            seq: 0,
            at: 0,
            submission: chain_workflow(0, 40),
        });
        log.entries.push(LogEntry::Adhoc {
            seq: 1,
            at: 0,
            submission: adhoc(9, 3, 2),
        });

        let batch = Engine::from_log(cluster(), &log, 10_000)
            .unwrap()
            .run(&mut Greedy)
            .unwrap();

        let mut online = OnlineEngine::new(cluster(), 10_000);
        let mut sched = Greedy;
        online.submit_workflow(chain_workflow(0, 40)).unwrap();
        // The ad-hoc job arrives at slot 9: inject when time gets there.
        while online.now() < 9 {
            match online.step(&mut sched).unwrap() {
                StepOutcome::Advanced => {}
                // Gap between workflow completion and the arrival.
                StepOutcome::Complete => {
                    online.step_idle(&mut sched).unwrap();
                }
                StepOutcome::HorizonExhausted => panic!("horizon too small"),
            }
        }
        online.submit_adhoc(adhoc(9, 3, 2)).unwrap();
        loop {
            match online.step(&mut sched).unwrap() {
                StepOutcome::Advanced => {}
                StepOutcome::Complete => break,
                StepOutcome::HorizonExhausted => panic!("horizon too small"),
            }
        }
        let outcome = online.finish(&mut sched);
        assert_eq!(
            serde_json::to_string(&outcome).unwrap(),
            serde_json::to_string(&batch).unwrap()
        );
    }

    #[test]
    fn late_arrivals_are_rejected() {
        let mut online = OnlineEngine::new(cluster(), 100);
        let mut sched = Greedy;
        online.submit_adhoc(adhoc(0, 1, 1)).unwrap();
        while online.now() < 3 {
            if online.step(&mut sched).unwrap() == StepOutcome::Complete {
                online.step_idle(&mut sched).unwrap();
            }
        }
        assert!(matches!(
            online.submit_adhoc(adhoc(2, 1, 1)),
            Err(SimError::MalformedSubmission { .. })
        ));
        assert!(matches!(
            online.submit_adhoc(adhoc(0, 1, 1)),
            Err(SimError::MalformedSubmission { .. })
        ));
    }

    #[test]
    fn status_reports_progress() {
        let mut online = OnlineEngine::new(cluster(), 100);
        let mut sched = Greedy;
        let id = online.submit_adhoc(adhoc(0, 4, 2)).unwrap();
        let st = online.status();
        assert_eq!(st.now, 0);
        assert_eq!(st.incomplete, 1);
        online.step(&mut sched).unwrap();
        let p = online.job_progress(id).unwrap();
        assert!(p.done_work > 0);
        // Ids no row carries — one past the table, far past `usize` — are
        // absent, never an index panic or a wrapped cast.
        for raw in [1, 99, u64::MAX] {
            assert!(online.job_progress(JobId::new(raw)).is_none());
        }
    }
}
