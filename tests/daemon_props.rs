//! Property-based daemon tests: random interleavings of submit, cancel,
//! query, and tick requests over the loopback transport always leave the
//! session in a state whose drained outcome (a) is certified by the
//! offline auditor against the recorded submission log and (b) replays
//! byte-identically — outcome and decision trace — through a batch
//! `Engine::from_log` run. And the grouping property the server loop
//! rests on: a script answered one line at a time and the same script
//! answered through `Session::handle_lines` in arbitrary chunks yield the
//! same replies, the same WAL bytes and the same drained session.

mod daemon_util;

use daemon_util::{
    adhoc_line, drain, loopback, session_config, trace_bytes, wal_dir, with_request_id,
    workflow_line, TRACE_CAPACITY,
};
use flowtime_bench::experiments::Algo;
use flowtime_daemon::{FsyncPolicy, Loopback, Session, WalConfig};
use flowtime_dag::{JobSpec, ResourceVec, WorkflowBuilder, WorkflowId};
use flowtime_sim::{certify_log, AdhocSubmission, ClusterConfig, Engine, WorkflowSubmission};
use proptest::prelude::*;

fn cluster() -> ClusterConfig {
    ClusterConfig::new(ResourceVec::new([16, 65_536]), 10.0)
}

/// One randomized session action.
#[derive(Debug, Clone)]
enum Op {
    /// Submit an ad-hoc job `offset` slots in the future.
    Adhoc { offset: u64, tasks: u64, dur: u64 },
    /// Submit a small chain workflow `offset` slots in the future.
    Workflow { offset: u64, looseness: u64 },
    /// Cancel the `nth` submission made so far (may already be live).
    Cancel { nth: u64 },
    /// Query the `nth` submission made so far.
    Query { nth: u64 },
    /// Advance virtual time by `delta` slots.
    Tick { delta: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted choice via a selector draw (the proptest shim has no
    // `prop_oneof`): 4/11 adhoc, 2/11 workflow, 2/11 cancel, 1/11 query,
    // 2/11 tick.
    (0u64..11, 0u64..20, 1u64..6, 1u64..4, 0u64..40, 1u64..12).prop_map(
        |(sel, offset, tasks, dur, nth, delta)| match sel {
            0..=3 => Op::Adhoc { offset, tasks, dur },
            4..=5 => Op::Workflow {
                offset,
                looseness: 3 + tasks,
            },
            6..=7 => Op::Cancel { nth },
            8 => Op::Query { nth },
            _ => Op::Tick { delta },
        },
    )
}

fn chain(id: u64, submit: u64, looseness: u64) -> WorkflowSubmission {
    let mut b = WorkflowBuilder::new(WorkflowId::new(id), format!("wf{id}"));
    let a = b.add_job(JobSpec::new("a", 4, 2, ResourceVec::new([1, 1024])));
    let c = b.add_job(JobSpec::new("c", 2, 2, ResourceVec::new([1, 1024])));
    b.add_dep(a, c).expect("two nodes");
    WorkflowSubmission::new(
        b.window(submit, submit + 4 * looseness)
            .build()
            .expect("valid window"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_interleavings_are_certified_and_replayable(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        algo_idx in 0usize..Algo::FIG4.len(),
    ) {
        let algo = Algo::FIG4[algo_idx];
        let mut lb = loopback(cluster(), algo.name());
        let mut now = 0u64;
        let mut submitted = 0u64;
        let mut wf_id = 0u64;
        for op in &ops {
            let response = match op {
                Op::Adhoc { offset, tasks, dur } => {
                    let sub = AdhocSubmission::new(
                        JobSpec::new("a", *tasks, *dur, ResourceVec::new([1, 1024])),
                        now + offset,
                    );
                    submitted += 1;
                    lb.request_line(&adhoc_line(&sub))
                }
                Op::Workflow { offset, looseness } => {
                    wf_id += 1;
                    submitted += 1;
                    lb.request_line(&workflow_line(&chain(wf_id, now + offset, *looseness)))
                }
                Op::Cancel { nth } if submitted > 0 => {
                    lb.request_line(&format!("{{\"req\":\"cancel\",\"sub\":{}}}", nth % submitted))
                }
                Op::Query { nth } if submitted > 0 => {
                    lb.request_line(&format!("{{\"req\":\"query\",\"sub\":{}}}", nth % submitted))
                }
                Op::Tick { delta } => {
                    let target = now + delta;
                    let r = lb.request_line(&format!("{{\"req\":\"tick\",\"to\":{target}}}"));
                    // The session may park before the target; track its
                    // reported clock, not our request.
                    let v = serde_json::parse(&r).expect("tick response is JSON");
                    if let Some(serde_json::Value::U64(n)) =
                        v.get("ok").and_then(|o| o.get("now"))
                    {
                        now = *n;
                    }
                    r
                }
                // Cancel/query before anything was submitted: exercise the
                // unknown-submission path.
                Op::Cancel { .. } | Op::Query { .. } => {
                    lb.request_line("{\"req\":\"cancel\",\"sub\":0}")
                }
            };
            // Every response is exactly ok or a typed error — no panics,
            // no malformed lines, whatever the interleaving.
            let v = serde_json::parse(&response).expect("response is JSON");
            prop_assert!(
                v.get("ok").is_some() ^ v.get("err").is_some(),
                "response must be ok xor err: {response}"
            );
        }

        let log = lb.session().log().clone();
        let (daemon_bytes, daemon_outcome, daemon_trace) = drain(lb);

        // (b) Byte-identical replay through the batch engine.
        let mut scheduler = algo.make(&cluster());
        let (engine, handle) = Engine::from_log(cluster(), &log, 1_000_000)
            .expect("recorded log replays")
            .with_trace(TRACE_CAPACITY as usize);
        let batch_outcome = engine.run(scheduler.as_mut()).expect("batch run succeeds");
        prop_assert_eq!(
            &daemon_bytes,
            &serde_json::to_string(&batch_outcome).expect("outcome serializes"),
            "outcome bytes diverge for {}", algo.name()
        );
        prop_assert_eq!(
            trace_bytes(&daemon_trace),
            trace_bytes(&handle.take()),
            "decision traces diverge for {}", algo.name()
        );

        // (a) Auditor certification of the online outcome.
        let report = certify_log(&cluster(), &log, &daemon_outcome, &daemon_trace);
        prop_assert!(
            report.is_certified(),
            "daemon outcome not certified for {}: {:?}", algo.name(), report.violations
        );
    }
}

/// One line of a grouping script. Unlike [`Op`] it is rendered without
/// looking at any reply, so the same bytes can be fed under any chunking;
/// arrivals are offsets from the slot the ticks so far have asked for.
#[derive(Debug, Clone)]
enum Line {
    /// `key`: one of a few idempotency keys, so repeats land both inside
    /// what becomes one run and across runs.
    Adhoc {
        offset: u64,
        key: Option<u64>,
    },
    Workflow {
        offset: u64,
        key: Option<u64>,
    },
    Cancel {
        nth: u64,
    },
    Query {
        nth: u64,
    },
    Tick {
        delta: u64,
    },
    Malformed {
        which: usize,
    },
}

fn line_strategy() -> impl Strategy<Value = Line> {
    let key = proptest::option::of(0u64..5);
    (0u64..16, 0u64..12, key, 0u64..30, 1u64..6, 0usize..4).prop_map(
        |(sel, offset, key, nth, delta, which)| match sel {
            0..=7 => Line::Adhoc { offset, key },
            8..=9 => Line::Workflow { offset, key },
            10..=11 => Line::Cancel { nth },
            12 => Line::Query { nth },
            13 => Line::Tick { delta },
            _ => Line::Malformed { which },
        },
    )
}

fn with_key(line: String, key: Option<u64>) -> String {
    match key {
        Some(k) => with_request_id(&line, &format!("k{k}")),
        None => line,
    }
}

fn render(script: &[Line]) -> Vec<String> {
    let (mut asked, mut wf_id) = (0u64, 0u64);
    let mut lines: Vec<String> = script
        .iter()
        .map(|line| match line {
            Line::Adhoc { offset, key } => {
                let spec = JobSpec::new(
                    "a",
                    1 + offset % 3,
                    1 + offset % 2,
                    ResourceVec::new([1, 1024]),
                );
                with_key(
                    adhoc_line(&AdhocSubmission::new(spec, asked + offset)),
                    *key,
                )
            }
            Line::Workflow { offset, key } => {
                wf_id += 1;
                with_key(workflow_line(&chain(wf_id, asked + offset, 4)), *key)
            }
            Line::Cancel { nth } => format!("{{\"req\":\"cancel\",\"sub\":{nth}}}"),
            Line::Query { nth } => format!("{{\"req\":\"query\",\"sub\":{nth}}}"),
            Line::Tick { delta } => {
                asked += delta;
                format!("{{\"req\":\"tick\",\"to\":{asked}}}")
            }
            Line::Malformed { which } => [
                "{oops",
                "",
                "{\"req\":\"submit_adhoc\",\"submission\":{\"bogus\":1}}",
                "{\"req\":\"submit_adhoc\",\"request_id\":\"\",\"submission\":{}}",
            ][*which]
                .to_string(),
        })
        .collect();
    lines.push("{\"req\":\"drain\"}".to_string());
    lines.push("{\"req\":\"outcome\"}".to_string());
    lines
}

/// `(file name, bytes)` of every WAL segment in `dir`, in name order.
fn segments(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("wal dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .map(|p| {
            let name = p.file_name().expect("name").to_string_lossy().into_owned();
            (name, std::fs::read(&p).expect("segment reads"))
        })
        .collect();
    files.sort();
    files
}

/// Outcome and pod-0 trace bytes of a drained session.
fn drained_bytes(session: &Session) -> (String, String) {
    let outcome = session.outcome_json().expect("drained").to_string();
    (
        outcome,
        trace_bytes(session.final_trace().expect("drained")),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn grouping_lines_changes_no_reply_no_wal_byte_and_no_outcome(
        script in proptest::collection::vec(line_strategy(), 1..60),
        cuts in proptest::collection::vec(1usize..9, 1..12),
        small_segments in 0u64..2,
        fsync_idx in 0usize..3,
    ) {
        let lines = render(&script);
        let fsync = [FsyncPolicy::Always, FsyncPolicy::Batch(3), FsyncPolicy::None][fsync_idx];
        let segment_max_records = if small_segments == 1 { 4 } else { 65_536 };
        let open = |tag: &str| {
            let dir = wal_dir(&format!("props-{tag}"));
            let config = WalConfig { segment_max_records, ..daemon_util::wal_config(&dir, fsync) };
            let (session, _) = Session::recover(session_config(cluster(), "edf", 0), config, None)
                .expect("fresh wal session");
            (dir, session)
        };

        // (a) One line at a time through the loopback transport.
        let (dir_a, session) = open("single");
        let mut lb = Loopback::new(session);
        let replies_a: Vec<String> = lines.iter().map(|l| lb.request_line(l)).collect();
        let session_a = lb.into_session();

        // (b) The same lines through `handle_lines`, cut where `cuts` says.
        let (dir_b, mut session_b) = open("chunked");
        let mut replies_b = Vec::new();
        let (mut rest, mut cut) = (lines.iter().map(String::as_str).collect::<Vec<_>>(), cuts.iter().cycle());
        while !rest.is_empty() {
            let tail = rest.split_off((*cut.next().expect("cycle")).min(rest.len()));
            let (replies, shutdown) = session_b.handle_lines(&rest);
            prop_assert!(!shutdown);
            replies_b.extend(replies);
            rest = tail;
        }

        prop_assert_eq!(&replies_a, &replies_b);
        prop_assert_eq!(segments(&dir_a), segments(&dir_b));
        let expect = drained_bytes(&session_a);
        prop_assert_eq!(&expect, &drained_bytes(&session_b));
        prop_assert_eq!(
            serde_json::to_string(session_a.log()).expect("log"),
            serde_json::to_string(session_b.log()).expect("log")
        );
        prop_assert_eq!(session_a.request_ids(), session_b.request_ids());
        drop((session_a, session_b));

        // Either directory recovers to the same drained session.
        for dir in [&dir_a, &dir_b] {
            let config = WalConfig { segment_max_records, ..daemon_util::wal_config(dir, fsync) };
            let (recovered, report) = Session::recover(session_config(cluster(), "edf", 0), config, None)
                .expect("recovers");
            prop_assert!(report.tail.is_none());
            prop_assert_eq!(&expect, &drained_bytes(&recovered));
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
