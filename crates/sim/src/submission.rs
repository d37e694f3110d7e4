//! Recorded submission logs — the bridge between online and batch runs.
//!
//! A [`SubmissionLog`] is the daemon's append-only record of every
//! *accepted* request that affects the workload: workflow submissions,
//! ad-hoc submissions, and cancellations of still-pending submissions.
//! It is the unit of determinism for the online path:
//!
//! - the live daemon materializes jobs from the log incrementally as
//!   virtual time reaches each arrival slot ([`crate::OnlineEngine`]);
//! - [`crate::Engine::from_log`] materializes the *same* dense job table
//!   in one shot for a batch replay;
//! - snapshots persist the log (plus the virtual clock) and restore by
//!   replaying it through a fresh engine.
//!
//! The shared contract is the **id order**: effective (non-cancelled)
//! submissions are materialized in ascending `(arrival_slot, seq)` order,
//! workflow jobs expanding to one job per DAG node in node order. The
//! online engine never injects a submission before its arrival slot, so
//! injection order equals that sort order and both paths assign identical
//! dense [`flowtime_dag::JobId`]s — the precondition for byte-identical
//! [`crate::SimOutcome`]s.

use crate::error::SimError;
use crate::job::{AdhocSubmission, WorkflowSubmission};
use serde::{Deserialize, Serialize};

/// One accepted request, stamped with the virtual slot (`at`) the daemon
/// accepted it in and a session-unique sequence number (`seq`). `at` is
/// informational (transcripts, debugging): replay depends only on `seq`
/// and the payload's own arrival slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogEntry {
    /// A workflow submission; its arrival slot is the workflow's
    /// `submit_slot`.
    Workflow {
        /// Session-unique sequence number.
        seq: u64,
        /// Virtual slot the request was accepted in.
        at: u64,
        /// The submission payload.
        submission: WorkflowSubmission,
    },
    /// An ad-hoc job submission.
    Adhoc {
        /// Session-unique sequence number.
        seq: u64,
        /// Virtual slot the request was accepted in.
        at: u64,
        /// The submission payload.
        submission: AdhocSubmission,
    },
    /// Cancellation of the still-pending submission with sequence number
    /// `target`. A cancelled submission never materializes into jobs.
    Cancel {
        /// Session-unique sequence number of the cancel request itself.
        seq: u64,
        /// Virtual slot the request was accepted in.
        at: u64,
        /// Sequence number of the submission being cancelled.
        target: u64,
    },
}

impl LogEntry {
    /// The entry's own sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            LogEntry::Workflow { seq, .. }
            | LogEntry::Adhoc { seq, .. }
            | LogEntry::Cancel { seq, .. } => *seq,
        }
    }
}

/// A borrowed view of one effective (non-cancelled) submission, in
/// materialization order.
#[derive(Debug, Clone, Copy)]
pub enum EffectiveSubmission<'a> {
    /// A workflow submission that survived cancellation.
    Workflow(&'a WorkflowSubmission),
    /// An ad-hoc submission that survived cancellation.
    Adhoc(&'a AdhocSubmission),
}

impl EffectiveSubmission<'_> {
    /// The slot this submission's jobs arrive at.
    pub fn arrival_slot(&self) -> u64 {
        match self {
            EffectiveSubmission::Workflow(sub) => sub.workflow.submit_slot(),
            EffectiveSubmission::Adhoc(sub) => sub.arrival_slot,
        }
    }
}

/// Append-only record of accepted submission-affecting requests.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SubmissionLog {
    /// Entries in acceptance order (ascending `seq`).
    pub entries: Vec<LogEntry>,
}

impl SubmissionLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves cancellations and returns the surviving submissions
    /// sorted by `(arrival_slot, seq)` — the materialization order both
    /// the batch and online paths assign job ids in.
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedSubmission`] when a cancel entry targets an
    /// unknown sequence number, a non-submission entry, or a submission
    /// that was already cancelled.
    pub fn effective(&self) -> Result<Vec<EffectiveSubmission<'_>>, SimError> {
        let mut cancelled: Vec<u64> = Vec::new();
        for entry in &self.entries {
            if let LogEntry::Cancel { target, .. } = entry {
                let hit = self
                    .entries
                    .iter()
                    .any(|e| e.seq() == *target && !matches!(e, LogEntry::Cancel { .. }));
                if !hit {
                    return Err(SimError::MalformedSubmission {
                        reason: "cancel targets an unknown submission",
                    });
                }
                if cancelled.contains(target) {
                    return Err(SimError::MalformedSubmission {
                        reason: "submission cancelled twice",
                    });
                }
                cancelled.push(*target);
            }
        }
        let mut keyed: Vec<(u64, u64, EffectiveSubmission<'_>)> = Vec::new();
        for entry in &self.entries {
            match entry {
                LogEntry::Workflow {
                    seq, submission, ..
                } if !cancelled.contains(seq) => {
                    keyed.push((
                        submission.workflow.submit_slot(),
                        *seq,
                        EffectiveSubmission::Workflow(submission),
                    ));
                }
                LogEntry::Adhoc {
                    seq, submission, ..
                } if !cancelled.contains(seq) => {
                    keyed.push((
                        submission.arrival_slot,
                        *seq,
                        EffectiveSubmission::Adhoc(submission),
                    ));
                }
                _ => {}
            }
        }
        keyed.sort_by_key(|&(arrival, seq, _)| (arrival, seq));
        Ok(keyed.into_iter().map(|(_, _, sub)| sub).collect())
    }

    /// Number of entries in the log.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no request has been logged yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtime_dag::{JobSpec, ResourceVec};

    fn adhoc(arrival: u64, tasks: u64) -> AdhocSubmission {
        AdhocSubmission {
            spec: JobSpec::new("a", tasks, 1, ResourceVec::new([1, 1024])),
            arrival_slot: arrival,
        }
    }

    #[test]
    fn effective_sorts_by_arrival_then_seq() {
        let mut log = SubmissionLog::new();
        log.entries.push(LogEntry::Adhoc {
            seq: 0,
            at: 0,
            submission: adhoc(7, 1),
        });
        log.entries.push(LogEntry::Adhoc {
            seq: 1,
            at: 0,
            submission: adhoc(3, 2),
        });
        log.entries.push(LogEntry::Adhoc {
            seq: 2,
            at: 1,
            submission: adhoc(3, 3),
        });
        let eff = log.effective().unwrap();
        let arrivals: Vec<u64> = eff.iter().map(|e| e.arrival_slot()).collect();
        assert_eq!(arrivals, vec![3, 3, 7]);
        // Ties broken by seq: the seq-1 job (2 tasks) before seq-2 (3).
        match eff[0] {
            EffectiveSubmission::Adhoc(sub) => assert_eq!(sub.spec.tasks(), 2),
            _ => panic!("expected adhoc"),
        }
    }

    #[test]
    fn cancel_removes_target() {
        let mut log = SubmissionLog::new();
        log.entries.push(LogEntry::Adhoc {
            seq: 0,
            at: 0,
            submission: adhoc(5, 1),
        });
        log.entries.push(LogEntry::Cancel {
            seq: 1,
            at: 2,
            target: 0,
        });
        assert!(log.effective().unwrap().is_empty());
    }

    #[test]
    fn bad_cancels_are_typed_errors() {
        let mut log = SubmissionLog::new();
        log.entries.push(LogEntry::Cancel {
            seq: 0,
            at: 0,
            target: 99,
        });
        assert!(matches!(
            log.effective(),
            Err(SimError::MalformedSubmission { .. })
        ));
        let mut log = SubmissionLog::new();
        log.entries.push(LogEntry::Adhoc {
            seq: 0,
            at: 0,
            submission: adhoc(5, 1),
        });
        log.entries.push(LogEntry::Cancel {
            seq: 1,
            at: 0,
            target: 0,
        });
        log.entries.push(LogEntry::Cancel {
            seq: 2,
            at: 0,
            target: 0,
        });
        assert!(matches!(
            log.effective(),
            Err(SimError::MalformedSubmission { .. })
        ));
    }

    #[test]
    fn log_round_trips_through_serde() {
        let mut log = SubmissionLog::new();
        log.entries.push(LogEntry::Adhoc {
            seq: 0,
            at: 0,
            submission: adhoc(5, 1),
        });
        log.entries.push(LogEntry::Cancel {
            seq: 1,
            at: 3,
            target: 0,
        });
        let json = serde_json::to_string(&log).unwrap();
        let back: SubmissionLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back, log);
    }
}
