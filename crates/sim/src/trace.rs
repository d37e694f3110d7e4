//! Structured decision traces.
//!
//! Aggregate metrics say *what* a run produced; they cannot say *why* a
//! deadline was missed or a turnaround won. The decision trace is the
//! engine's machine-checkable record of every scheduling decision it
//! applied: arrivals, dependency releases, per-slot capacity grants, job
//! starts/preemptions/finishes, LP replan triggers, policy-regime changes,
//! and the fault injections that shaped the scenario. The offline auditor
//! ([`crate::audit`]) replays this record against the scenario and
//! certifies the run without trusting any engine state.
//!
//! # Recording model
//!
//! Recording is enabled per run via [`crate::Engine::with_trace`], which
//! returns a [`TraceHandle`] the caller drains after the run. Events land
//! in a bounded ring buffer ([`DecisionTrace`]): the buffer allocates
//! lazily up to its capacity and then overwrites the oldest events,
//! counting what it dropped, so a traced run can never exhaust memory.
//! When tracing is disabled the engine skips every recording branch — the
//! hot path pays one `Option` test per slot.
//!
//! # Determinism contract
//!
//! A trace is a pure function of `(cluster, workload, scheduler,
//! max_slots)`. No wall-clock or host-dependent value is recorded, so the
//! JSONL export ([`DecisionTrace::write_jsonl`]) is byte-identical across
//! hosts and `--threads` counts — the same rule
//! [`crate::telemetry`] applies to counters.
//!
//! # Canonical per-slot event order
//!
//! Within one slot the engine records, in order: `Arrival`/`Ready` events
//! (arrivals first, then readies, each in job-id order; admission-control
//! `Shed`/`Defer` events appear in place of the suppressed `Arrival`),
//! `Kill` events for jobs caught by a node-crash window opening this slot
//! (job-id order), one `Replan` if the scheduler re-solved, one
//! `PolicyTag` if the decision regime changed, `Preempt` events (job-id
//! order), then per granted job in id order a `Start` (first grant only)
//! followed by its `Grant`, and finally — interleaved in granted-job id
//! order as the work applies — `Straggler` (first grant only), task-kill
//! `Kill`, and `Finish` events. A `Finish` at slot `s` means the job
//! finished at the *end* of `s`; its `completion_slot` is `s + 1`. A
//! killed job re-enters the runnable set at its deterministic backoff
//! slot without a fresh `Ready` event — the retry slot is derivable from
//! the `Kill` event and the recovery policy.

use crate::job::JobClass;
use flowtime_dag::{JobId, ResourceVec};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};
use std::rc::Rc;

/// Default ring-buffer capacity: ample for every experiment in the repo
/// while bounding a runaway run to tens of MB.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// Static per-job metadata snapshotted into the trace header, so the
/// auditor can cross-check the engine's job table against the scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceJobMeta {
    /// Dense engine job id.
    pub id: JobId,
    /// Workload class and workflow linkage.
    pub class: JobClass,
    /// Submission slot.
    pub arrival_slot: u64,
    /// Ground-truth work in task-slots.
    pub actual_work: u64,
    /// Milestone deadline, if tracked.
    pub deadline_slot: Option<u64>,
}

/// Run-level context recorded once at the start of a traced run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TraceHeader {
    /// Name of the scheduler that produced the decisions.
    pub scheduler: String,
    /// Base cluster capacity.
    pub capacity: ResourceVec,
    /// Slot duration in seconds.
    pub slot_seconds: f64,
    /// The engine's slot bound for the run.
    pub max_slots: u64,
    /// Per-job metadata in engine id order.
    pub jobs: Vec<TraceJobMeta>,
    /// Total pod count of the sharded run ([`crate::shard`]) that produced
    /// this trace. Zero — and omitted from serialization — for unsharded
    /// runs and for K = 1 sharded runs, keeping their trace bytes
    /// identical to pre-shard recordings.
    #[serde(default, skip_serializing_if = "crate::serde_skip::zero_u64")]
    pub pods: u64,
    /// Pod index this trace was recorded on; only meaningful when
    /// `pods > 1` (pod 0 serializes identically to an unsharded trace
    /// apart from `pods`).
    #[serde(default, skip_serializing_if = "crate::serde_skip::zero_u64")]
    pub pod: u64,
}

/// One scenario rewrite performed by fault injection before the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// Fault class (`submit-delay`, `misestimate`, `capacity-churn`,
    /// `burst`).
    pub kind: String,
    /// Slot the fault takes effect.
    pub slot: u64,
    /// Human-readable description of the rewrite.
    pub detail: String,
}

/// One scheduling decision or state change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// The job's submission slot was reached; it became visible.
    Arrival {
        /// Slot of the event.
        slot: u64,
        /// The job.
        job: JobId,
    },
    /// The job's dependencies were all satisfied; it became runnable.
    Ready {
        /// Slot of the event.
        slot: u64,
        /// The job.
        job: JobId,
    },
    /// The scheduler re-solved its plan (LP/flow replan or cache hit).
    Replan {
        /// Slot of the replan.
        slot: u64,
        /// Number of replans performed during this slot.
        replans: u64,
    },
    /// The scheduler's decision regime changed (see
    /// [`crate::Scheduler::decision_tag`]). Recorded on every change,
    /// including the initial regime at the first planned slot.
    PolicyTag {
        /// Slot of the change.
        slot: u64,
        /// The new regime label.
        tag: String,
    },
    /// A job that ran in the previous slot was left unallocated while
    /// still incomplete.
    Preempt {
        /// Slot of the preemption.
        slot: u64,
        /// The job.
        job: JobId,
    },
    /// First capacity grant of a job (it started running).
    Start {
        /// Slot of the first grant.
        slot: u64,
        /// The job.
        job: JobId,
    },
    /// Capacity grant: `tasks` concurrent tasks for this slot.
    Grant {
        /// Slot of the grant.
        slot: u64,
        /// The job.
        job: JobId,
        /// Concurrent tasks granted.
        tasks: u64,
    },
    /// The job's accumulated work reached its ground truth at the end of
    /// `slot`; its completion slot is `slot + 1`.
    Finish {
        /// Slot during which the job finished.
        slot: u64,
        /// The job.
        job: JobId,
        /// Total work accumulated at completion, in task-slots.
        done_work: u64,
    },
    /// A mid-run straggler inflated the job's ground-truth work at its
    /// first capacity grant.
    Straggler {
        /// Slot of the inflation (the job's first granted slot).
        slot: u64,
        /// The job.
        job: JobId,
        /// Extra task-slots of work added to the ground truth.
        extra: u64,
    },
    /// An attempt was killed mid-run (task failure or node crash); the
    /// job's progress resets and it re-enters the runnable set at its
    /// deterministic backoff slot.
    Kill {
        /// Slot of the kill.
        slot: u64,
        /// The job.
        job: JobId,
        /// The zero-based attempt that was killed.
        attempt: u32,
        /// Task-slots of progress discarded with the attempt.
        wasted: u64,
    },
    /// The admission controller dropped an arriving ad-hoc job under
    /// sustained overload (shed policy `shed`); the job never runs.
    Shed {
        /// Slot of the suppressed arrival.
        slot: u64,
        /// The job.
        job: JobId,
    },
    /// The admission controller postponed an arriving ad-hoc job under
    /// sustained overload (shed policy `delay`); it arrives at `until`.
    Defer {
        /// Slot of the original arrival.
        slot: u64,
        /// The job.
        job: JobId,
        /// Slot the deferred arrival lands.
        until: u64,
    },
}

impl TraceEvent {
    /// The slot the event belongs to.
    pub fn slot(&self) -> u64 {
        match *self {
            TraceEvent::Arrival { slot, .. }
            | TraceEvent::Ready { slot, .. }
            | TraceEvent::Replan { slot, .. }
            | TraceEvent::PolicyTag { slot, .. }
            | TraceEvent::Preempt { slot, .. }
            | TraceEvent::Start { slot, .. }
            | TraceEvent::Grant { slot, .. }
            | TraceEvent::Finish { slot, .. }
            | TraceEvent::Straggler { slot, .. }
            | TraceEvent::Kill { slot, .. }
            | TraceEvent::Shed { slot, .. }
            | TraceEvent::Defer { slot, .. } => slot,
        }
    }

    /// The job the event concerns, when it concerns one.
    pub fn job(&self) -> Option<JobId> {
        match *self {
            TraceEvent::Arrival { job, .. }
            | TraceEvent::Ready { job, .. }
            | TraceEvent::Preempt { job, .. }
            | TraceEvent::Start { job, .. }
            | TraceEvent::Grant { job, .. }
            | TraceEvent::Finish { job, .. }
            | TraceEvent::Straggler { job, .. }
            | TraceEvent::Kill { job, .. }
            | TraceEvent::Shed { job, .. }
            | TraceEvent::Defer { job, .. } => Some(job),
            TraceEvent::Replan { .. } | TraceEvent::PolicyTag { .. } => None,
        }
    }
}

/// A bounded, allocation-light ring buffer of scheduling decisions.
///
/// Events are appended in simulation order; once `capacity` is reached
/// the oldest events are overwritten and counted in [`Self::dropped`].
/// Equality compares the *logical* content (header, faults, events in
/// order, drop count), not the physical buffer layout.
#[derive(Debug, Clone)]
pub struct DecisionTrace {
    /// Run-level context (scheduler, cluster, job table).
    pub header: TraceHeader,
    /// Scenario rewrites applied before the run.
    pub faults: Vec<FaultRecord>,
    capacity: usize,
    /// Physical storage; once full, `start` marks the logical beginning.
    events: Vec<TraceEvent>,
    start: usize,
    dropped: u64,
}

impl DecisionTrace {
    /// An empty trace bounded at `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        DecisionTrace {
            header: TraceHeader::default(),
            faults: Vec::new(),
            capacity: capacity.max(1),
            events: Vec::new(),
            start: 0,
            dropped: 0,
        }
    }

    /// Appends an event, overwriting the oldest one when full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.events[self.start] = event;
            self.start = (self.start + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by the ring bound (0 on an untruncated trace).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events recorded, including evicted ones.
    pub fn recorded(&self) -> u64 {
        self.dropped + self.events.len() as u64
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates the retained events in simulation order.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events[self.start..]
            .iter()
            .chain(self.events[..self.start].iter())
    }

    /// Rotates the physical buffer so it matches the logical order.
    pub fn make_contiguous(&mut self) {
        if self.start != 0 {
            self.events.rotate_left(self.start);
            self.start = 0;
        }
    }

    /// Mutable access to the event sequence in simulation order — the
    /// hook mutation tests use to corrupt a trace.
    pub fn events_mut(&mut self) -> &mut Vec<TraceEvent> {
        self.make_contiguous();
        &mut self.events
    }

    /// Writes the trace as JSON lines: a header record, one record per
    /// fault, one per event, then a footer carrying the event accounting.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on write failures.
    pub fn write_jsonl<W: Write>(&self, mut writer: W) -> Result<(), TraceError> {
        let write_record = |writer: &mut W, record: &TraceRecord| -> Result<(), TraceError> {
            serde_json::to_writer(&mut *writer, record).map_err(|e| TraceError::Parse {
                line: 0,
                message: e.to_string(),
            })?;
            writer.write_all(b"\n")?;
            Ok(())
        };
        write_record(
            &mut writer,
            &TraceRecord::Header(Box::new(self.header.clone())),
        )?;
        for fault in &self.faults {
            write_record(&mut writer, &TraceRecord::Fault(fault.clone()))?;
        }
        for event in self.events() {
            write_record(&mut writer, &TraceRecord::Event(event.clone()))?;
        }
        write_record(
            &mut writer,
            &TraceRecord::Footer {
                events: self.events.len() as u64,
                dropped: self.dropped,
            },
        )
    }

    /// Reads a trace written by [`Self::write_jsonl`].
    ///
    /// # Errors
    ///
    /// * [`TraceError::Io`] on read failures.
    /// * [`TraceError::Parse`] on malformed records, a missing header or
    ///   footer, or a footer whose event count disagrees with the file.
    pub fn read_jsonl<R: BufRead>(reader: R) -> Result<Self, TraceError> {
        let mut header: Option<TraceHeader> = None;
        let mut faults = Vec::new();
        let mut events = Vec::new();
        let mut footer: Option<(u64, u64)> = None;
        for (idx, line) in reader.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let parse_error = |message: String| TraceError::Parse {
                line: idx + 1,
                message,
            };
            let value = serde_json::parse(&line).map_err(|e| parse_error(e.to_string()))?;
            // A K > 1 header written before DESIGN.md §22 names the
            // placement policy its run chose.
            let placer = value.get("Header").and_then(|h| h.get("placer"));
            if let Some(name) = placer.and_then(serde_json::Value::as_str) {
                crate::shard::require_demand_placer("header.placer", name).map_err(parse_error)?;
            }
            let record = TraceRecord::from_value(&value).map_err(|e| parse_error(e.to_string()))?;
            match record {
                TraceRecord::Header(h) => header = Some(*h),
                TraceRecord::Fault(f) => faults.push(f),
                TraceRecord::Event(e) => events.push(e),
                TraceRecord::Footer { events, dropped } => footer = Some((events, dropped)),
            }
        }
        let header = header.ok_or(TraceError::Parse {
            line: 0,
            message: "missing header record".into(),
        })?;
        let (expected, dropped) = footer.ok_or(TraceError::Parse {
            line: 0,
            message: "missing footer record".into(),
        })?;
        if expected != events.len() as u64 {
            return Err(TraceError::Parse {
                line: 0,
                message: format!(
                    "footer claims {expected} events, file holds {}",
                    events.len()
                ),
            });
        }
        let capacity = events.len().max(1);
        Ok(DecisionTrace {
            header,
            faults,
            capacity,
            events,
            start: 0,
            dropped,
        })
    }
}

impl PartialEq for DecisionTrace {
    fn eq(&self, other: &Self) -> bool {
        self.header == other.header
            && self.faults == other.faults
            && self.dropped == other.dropped
            && self.events().eq(other.events())
    }
}

/// One JSON-lines record of the trace file.
#[derive(Debug, Serialize, Deserialize)]
enum TraceRecord {
    Header(Box<TraceHeader>),
    Fault(FaultRecord),
    Event(TraceEvent),
    Footer { events: u64, dropped: u64 },
}

/// Errors reading or writing a trace file.
#[derive(Debug)]
pub enum TraceError {
    /// An I/O failure.
    Io(std::io::Error),
    /// A malformed record (`line` is 1-based; 0 for whole-file problems).
    Parse {
        /// Line of the offending record.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Parse { line, message } => {
                if *line == 0 {
                    write!(f, "trace parse error: {message}")
                } else {
                    write!(f, "trace parse error at line {line}: {message}")
                }
            }
        }
    }
}

impl Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Caller-side handle to a traced run, returned by
/// [`crate::Engine::with_trace`]. The engine and the handle share the
/// buffer; after [`crate::Engine::run`] returns, [`Self::take`] drains the
/// recorded trace.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    buf: Rc<RefCell<DecisionTrace>>,
}

impl TraceHandle {
    /// Takes the recorded trace, leaving an empty buffer behind.
    pub fn take(&self) -> DecisionTrace {
        let capacity = self.buf.borrow().capacity;
        self.buf.replace(DecisionTrace::new(capacity))
    }

    /// Attaches the scenario's fault-injection records (see
    /// [`crate::FaultPlan::apply_recorded`]) to the trace prologue.
    pub fn record_faults(&self, records: &[FaultRecord]) {
        self.buf.borrow_mut().faults.extend_from_slice(records);
    }

    /// Clones the trace recorded so far without disturbing the buffer —
    /// the daemon's `trace` endpoint peeks mid-run while the engine keeps
    /// recording.
    pub fn snapshot(&self) -> DecisionTrace {
        self.buf.borrow().clone()
    }
}

/// Engine-side recording context: the shared buffer plus the incremental
/// state needed to derive `Start`/`Preempt`/`Replan`/`PolicyTag` events.
#[derive(Debug)]
pub(crate) struct TraceCtx {
    buf: Rc<RefCell<DecisionTrace>>,
    /// Jobs granted in the previous simulated slot, in id order.
    pub(crate) prev_granted: Vec<JobId>,
    /// Last recorded decision-regime tag.
    pub(crate) last_tag: Option<&'static str>,
    /// Scheduler replan counter at the last poll.
    pub(crate) prev_replans: u64,
}

impl TraceCtx {
    /// Builds a recording context and its caller-side handle.
    pub(crate) fn new(capacity: usize) -> (Self, TraceHandle) {
        let buf = Rc::new(RefCell::new(DecisionTrace::new(capacity)));
        let handle = TraceHandle {
            buf: Rc::clone(&buf),
        };
        (
            TraceCtx {
                buf,
                prev_granted: Vec::new(),
                last_tag: None,
                prev_replans: 0,
            },
            handle,
        )
    }

    /// Appends one event.
    pub(crate) fn push(&self, event: TraceEvent) {
        self.buf.borrow_mut().push(event);
    }

    /// Mutable access to the shared buffer (header writes, batched pushes).
    pub(crate) fn buffer(&self) -> std::cell::RefMut<'_, DecisionTrace> {
        self.buf.borrow_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(slot: u64, raw: u64) -> TraceEvent {
        TraceEvent::Grant {
            slot,
            job: JobId::new(raw),
            tasks: 1,
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut t = DecisionTrace::new(3);
        for i in 0..5 {
            t.push(ev(i, i));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.recorded(), 5);
        let slots: Vec<u64> = t.events().map(TraceEvent::slot).collect();
        assert_eq!(slots, vec![2, 3, 4]);
        t.make_contiguous();
        let slots2: Vec<u64> = t.events().map(TraceEvent::slot).collect();
        assert_eq!(slots2, vec![2, 3, 4]);
    }

    #[test]
    fn equality_ignores_physical_rotation() {
        let mut a = DecisionTrace::new(3);
        let mut b = DecisionTrace::new(3);
        for i in 0..5 {
            a.push(ev(i, i));
            b.push(ev(i, i));
        }
        b.make_contiguous();
        assert_eq!(a, b);
        b.push(ev(9, 9));
        assert_ne!(a, b);
    }

    #[test]
    fn jsonl_round_trip() {
        let mut t = DecisionTrace::new(16);
        t.header = TraceHeader {
            scheduler: "test".into(),
            capacity: ResourceVec::new([8, 1024]),
            slot_seconds: 10.0,
            max_slots: 100,
            jobs: vec![TraceJobMeta {
                id: JobId::new(0),
                class: JobClass::AdHoc,
                arrival_slot: 0,
                actual_work: 4,
                deadline_slot: None,
            }],
            ..TraceHeader::default()
        };
        t.faults.push(FaultRecord {
            kind: "burst".into(),
            slot: 3,
            detail: "one extra job".into(),
        });
        t.push(ev(0, 0));
        t.push(TraceEvent::Finish {
            slot: 1,
            job: JobId::new(0),
            done_work: 4,
        });
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let back = DecisionTrace::read_jsonl(std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(t, back);
        // A second serialization is byte-identical.
        let mut buf2 = Vec::new();
        back.write_jsonl(&mut buf2).unwrap();
        assert_eq!(buf, buf2);
    }

    #[test]
    fn missing_header_or_footer_rejected() {
        let only_footer = b"{\"Footer\":{\"events\":0,\"dropped\":0}}\n";
        assert!(DecisionTrace::read_jsonl(std::io::BufReader::new(&only_footer[..])).is_err());
        let t = DecisionTrace::new(4);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let without_footer: String = text
            .lines()
            .filter(|l| !l.contains("Footer"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(
            DecisionTrace::read_jsonl(std::io::BufReader::new(without_footer.as_bytes())).is_err()
        );
    }

    #[test]
    fn footer_count_mismatch_rejected() {
        let mut t = DecisionTrace::new(4);
        t.push(ev(0, 0));
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let tampered = text.replace("\"events\":1", "\"events\":2");
        let err =
            DecisionTrace::read_jsonl(std::io::BufReader::new(tampered.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("footer"));
    }

    #[test]
    fn malformed_line_reports_position() {
        match DecisionTrace::read_jsonl(std::io::BufReader::new(&b"not json\n"[..])) {
            Err(TraceError::Parse { line, .. }) => assert_eq!(line, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A K > 1 header written before DESIGN.md §22 names the placement
    /// policy: `demand` is the rule that is left and loads; any other
    /// name is refused at the header's line, naming the field.
    #[test]
    fn recorded_placer_must_be_the_one_rule() {
        let mut t = DecisionTrace::new(4);
        t.header.pods = 2;
        t.header.pod = 1;
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"pods\":2,\"pod\":1}"), "{text}");
        let recorded_under = |placer: &str| {
            text.replace(
                "\"pod\":1}",
                &format!("\"pod\":1,\"placer\":\"{placer}\"}}"),
            )
        };
        let read =
            |text: String| DecisionTrace::read_jsonl(std::io::BufReader::new(text.as_bytes()));
        assert_eq!(read(recorded_under("demand")).unwrap(), t);
        match read(recorded_under("firstfit")) {
            Err(TraceError::Parse { line: 1, message }) => {
                assert!(message.starts_with("header.placer: "), "{message}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn event_accessors() {
        assert_eq!(ev(4, 7).slot(), 4);
        assert_eq!(ev(4, 7).job(), Some(JobId::new(7)));
        let replan = TraceEvent::Replan {
            slot: 2,
            replans: 1,
        };
        assert_eq!(replan.slot(), 2);
        assert_eq!(replan.job(), None);
    }

    #[test]
    fn handle_take_drains_and_resets() {
        let (ctx, handle) = TraceCtx::new(8);
        ctx.push(ev(0, 1));
        handle.record_faults(&[FaultRecord {
            kind: "burst".into(),
            slot: 0,
            detail: "x".into(),
        }]);
        let taken = handle.take();
        assert_eq!(taken.len(), 1);
        assert_eq!(taken.faults.len(), 1);
        let empty = handle.take();
        assert!(empty.is_empty());
        assert_eq!(empty.capacity(), 8);
    }
}
