//! Sharded daemon differential: a `flowtimed` session with `pods = K`
//! runs one engine per pod behind the same wire protocol, placing each
//! submission at injection time with the batch layer's placement rule. The
//! contract mirrors the unsharded differential: splitting the session's
//! recorded log with [`flowtime_sim::place_log`] and replaying each
//! per-pod sub-log through a batch [`Engine::from_log`] over that pod's
//! capacity slice must reproduce every pod's `SimOutcome` and decision
//! trace byte-for-byte — including sessions with mid-run ticks,
//! cancellations, and pods that never receive work. A `pods = 1` session
//! must be byte-identical to an unsharded one on every response.

mod daemon_util;

use daemon_util::{
    adhoc_line, loopback, loopback_sharded, loopback_wal, ok, session_config, snapshot_file,
    trace_bytes, wal_config, wal_dir, workflow_line, TRACE_CAPACITY,
};
use flowtime_bench::experiments::{testbed_cluster, Algo, WorkflowExperiment};
use flowtime_daemon::{codes, FsyncPolicy, Loopback, Session, SessionConfig, WalRecord};
use flowtime_sim::{
    place_log, pod_cluster, DecisionTrace, Engine, SimOutcome, SimWorkload, SubmissionLog,
};

fn experiment(seed: u64) -> WorkflowExperiment {
    WorkflowExperiment {
        workflows: 3,
        jobs_per_workflow: 6,
        adhoc_horizon: 80,
        seed,
        ..Default::default()
    }
}

/// Drives a workload through a session with mid-run ticks (workflows up
/// front, the ad-hoc stream arriving online), optionally cancelling, and
/// returns the log plus the frozen per-pod results.
fn drive(
    mut lb: Loopback,
    workload: &SimWorkload,
    cancel: &[u64],
) -> (SubmissionLog, String, Vec<SimOutcome>, Vec<DecisionTrace>) {
    for sub in &workload.workflows {
        ok(&mut lb, &workflow_line(sub));
    }
    let mut adhoc: Vec<_> = workload.adhoc.clone();
    adhoc.sort_by_key(|s| s.arrival_slot);
    let mut now = 0u64;
    for sub in &adhoc {
        if sub.arrival_slot > now + 4 {
            now = sub.arrival_slot - 2;
            ok(&mut lb, &format!("{{\"req\":\"tick\",\"to\":{now}}}"));
        }
        ok(&mut lb, &adhoc_line(sub));
    }
    for seq in cancel {
        ok(&mut lb, &format!("{{\"req\":\"cancel\",\"sub\":{seq}}}"));
    }
    let log = lb.session().log().clone();
    ok(&mut lb, "{\"req\":\"drain\"}");
    let session = lb.into_session();
    let bytes = session.outcome_json().expect("drained").to_string();
    let outcomes = session.final_outcomes().expect("drained").to_vec();
    let traces = session.final_traces().expect("drained").to_vec();
    (log, bytes, outcomes, traces)
}

/// Replays each per-pod sub-log of `log` through a batch engine and
/// asserts byte-identity with the session's per-pod outcome and trace.
fn assert_batch_parity(
    cluster: &flowtime_sim::ClusterConfig,
    log: &SubmissionLog,
    algo: Algo,
    pods: usize,
    outcomes: &[SimOutcome],
    traces: &[DecisionTrace],
) {
    let sub_logs = place_log(cluster, log, pods).expect("log places");
    assert_eq!(sub_logs.len(), pods);
    assert_eq!(outcomes.len(), pods);
    for (pod, sub_log) in sub_logs.iter().enumerate() {
        let pc = pod_cluster(cluster, pods, pod);
        let mut scheduler = algo.make(&pc);
        let (engine, handle) = Engine::from_log(pc, sub_log, 1_000_000)
            .expect("sub-log replays")
            .with_trace(TRACE_CAPACITY as usize);
        let batch = engine.run(scheduler.as_mut()).expect("batch run succeeds");
        assert_eq!(
            serde_json::to_string(&outcomes[pod]).expect("outcome serializes"),
            serde_json::to_string(&batch).expect("outcome serializes"),
            "pod {pod}/{pods} outcome diverges from its batch replay ({})",
            algo.name()
        );
        assert_eq!(
            trace_bytes(&traces[pod]),
            trace_bytes(&handle.take()),
            "pod {pod}/{pods} trace diverges from its batch replay ({})",
            algo.name()
        );
    }
}

/// The core sharded contract: per-pod byte-parity with `place_log` +
/// `Engine::from_log`, for several pod counts, schedulers, and seeds,
/// with submissions arriving mid-run.
#[test]
fn sharded_session_matches_per_pod_batch_replay() {
    for seed in [0u64, 3] {
        let cluster = testbed_cluster();
        let workload = experiment(seed).build(&cluster);
        for algo in [Algo::FlowTime, Algo::Edf] {
            for pods in [2usize, 4] {
                let lb = loopback_sharded(cluster.clone(), algo.name(), pods as u64);
                let (log, bytes, outcomes, traces) = drive(lb, &workload, &[]);
                assert!(
                    bytes.starts_with("{\"pods\":["),
                    "sharded outcome must be the per-pod array form: {bytes}"
                );
                assert_batch_parity(&cluster, &log, algo, pods, &outcomes, &traces);
                let total: usize = outcomes.iter().map(|o| o.metrics.jobs.len()).sum();
                assert_eq!(
                    total,
                    workload
                        .workflows
                        .iter()
                        .map(|w| w.workflow.len())
                        .sum::<usize>()
                        + workload.adhoc.len(),
                    "every submitted job must land in exactly one pod"
                );
            }
        }
    }
}

/// Cancellations in a sharded session never reach any pod: the recorded
/// log (cancels included) still replays per-pod byte-identically, and the
/// cancelled jobs are absent from every pod's outcome.
#[test]
fn sharded_cancellation_is_replayed_exactly() {
    let cluster = testbed_cluster();
    let workload = experiment(1).build(&cluster);
    let n_workflows = workload.workflows.len() as u64;
    let cancel = [n_workflows + 1, n_workflows + 4];
    let pods = 2usize;

    // Queue everything up front so the cancel targets are still pending.
    let mut lb = loopback_sharded(cluster.clone(), "flowtime", pods as u64);
    for sub in &workload.workflows {
        ok(&mut lb, &workflow_line(sub));
    }
    for sub in &workload.adhoc {
        ok(&mut lb, &adhoc_line(sub));
    }
    for seq in &cancel {
        ok(&mut lb, &format!("{{\"req\":\"cancel\",\"sub\":{seq}}}"));
    }
    let log = lb.session().log().clone();
    ok(&mut lb, "{\"req\":\"drain\"}");
    let session = lb.into_session();
    let outcomes = session.final_outcomes().expect("drained").to_vec();
    let traces = session.final_traces().expect("drained").to_vec();

    assert_batch_parity(&cluster, &log, Algo::FlowTime, pods, &outcomes, &traces);
    let total: usize = outcomes.iter().map(|o| o.metrics.jobs.len()).sum();
    assert_eq!(
        total,
        workload
            .workflows
            .iter()
            .map(|w| w.workflow.len())
            .sum::<usize>()
            + workload.adhoc.len()
            - cancel.len(),
        "cancelled jobs must not appear in any pod"
    );
}

/// `pods: 1` is the unsharded engine, bit for bit: the whole response
/// stream — submit acks, tick responses, status, drain summary, and the
/// embedded outcome — matches a `pods: 0` session byte-for-byte.
#[test]
fn single_pod_session_is_byte_identical_to_unsharded() {
    let cluster = testbed_cluster();
    let workload = experiment(2).build(&cluster);
    let mut plain = loopback(cluster.clone(), "flowtime");
    let mut sharded = loopback_sharded(cluster.clone(), "flowtime", 1);

    let mut script = Vec::new();
    for sub in &workload.workflows {
        script.push(workflow_line(sub));
    }
    for sub in &workload.adhoc {
        script.push(adhoc_line(sub));
    }
    script.push("{\"req\":\"tick\",\"to\":40}".to_string());
    script.push("{\"req\":\"status\"}".to_string());
    script.push("{\"req\":\"trace\",\"limit\":8}".to_string());
    script.push("{\"req\":\"drain\"}".to_string());
    script.push("{\"req\":\"status\"}".to_string());
    script.push("{\"req\":\"outcome\"}".to_string());
    for line in &script {
        assert_eq!(
            plain.request_line(line),
            sharded.request_line(line),
            "pods=1 response diverges from unsharded for `{line}`"
        );
    }
}

/// A sharded session snapshots (into its WAL directory) and restores
/// exactly: the restored session drains to the same per-pod bytes as the
/// original.
#[test]
fn sharded_snapshot_restores_byte_identically() {
    let dir = wal_dir("shard-snap");
    let cluster = testbed_cluster();
    let workload = experiment(4).build(&cluster);
    let config = SessionConfig {
        placer: Some("demand".to_string()),
        ..session_config(cluster.clone(), "flowtime", 2)
    };
    let (session, _) = Session::recover(config, wal_config(&dir, FsyncPolicy::None), None)
        .expect("fresh wal session");
    let mut lb = Loopback::new(session);
    for sub in &workload.workflows {
        ok(&mut lb, &workflow_line(sub));
    }
    for sub in &workload.adhoc {
        ok(&mut lb, &adhoc_line(sub));
    }
    ok(&mut lb, "{\"req\":\"tick\",\"to\":30}");
    let path = snapshot_file(&mut lb);

    let body = flowtime_daemon::snapshot::load(&path).expect("snapshot loads");
    assert_eq!(body.config.pods, 2, "pod count must survive the snapshot");
    assert_eq!(body.config.placer.as_deref(), Some("demand"));
    let mut restored = Loopback::new(Session::restore(body).expect("snapshot restores"));

    ok(&mut lb, "{\"req\":\"drain\"}");
    ok(&mut restored, "{\"req\":\"drain\"}");
    assert_eq!(
        lb.into_session().outcome_json().expect("drained"),
        restored.into_session().outcome_json().expect("drained"),
        "restored sharded session must drain to identical bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sharding config errors are typed `bad-request`s at construction, and
/// unsharded configs keep their pre-sharding serialized form (no `pods` /
/// `placer` keys), so existing snapshots parse unchanged. `placer` names
/// the one rule or nothing: a session recorded under a retired policy is
/// refused wherever its config comes from — the caller, a snapshot, or a
/// WAL directory's genesis record — never replayed onto different pods.
#[test]
fn sharding_config_validation_and_serde_compat() {
    let base = SessionConfig {
        cluster: testbed_cluster(),
        scheduler: "edf".to_string(),
        max_slots: 1000,
        trace_capacity: 64,
        snapshot_path: None,
        pods: 0,
        placer: None,
    };
    let config_naming = |placer: &str| SessionConfig {
        pods: 2,
        placer: Some(placer.to_string()),
        ..base.clone()
    };
    let refused = |result: Result<Session, flowtime_daemon::ProtocolError>, what: &str| {
        let err = result
            .err()
            .unwrap_or_else(|| panic!("{what} must be refused"));
        assert_eq!(err.code, codes::BAD_REQUEST, "{what}: {}", err.detail);
        assert!(
            err.detail.contains("config.placer"),
            "{what}: {}",
            err.detail
        );
    };

    for placer in ["firstfit", "Worst-Fit", "round-robin"] {
        refused(Session::new(config_naming(placer)), placer);
    }
    // The surviving rule's name is accepted the way the flag spelled it.
    for placer in ["demand", "Demand"] {
        Session::new(config_naming(placer)).expect("the one rule, by name");
    }

    // A snapshot recorded under first-fit: it loads, and is refused.
    let dir = wal_dir("retired-placer");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap = dir.join("firstfit.snap");
    let body = flowtime_daemon::SnapshotBody {
        config: config_naming("firstfit"),
        log: SubmissionLog::new(),
        now: 0,
        next_seq: 0,
        wal_segment: 0,
        request_ids: Default::default(),
    };
    flowtime_daemon::snapshot::save(&snap, &body).expect("snapshot saves");
    let body = flowtime_daemon::snapshot::load(&snap).expect("snapshot loads");
    refused(Session::restore(body), "a first-fit snapshot");

    // A WAL directory whose genesis record says first-fit: same refusal,
    // whatever the restarting daemon's own flags say.
    let wal_root = dir.join("wal");
    let mut wal = flowtime_daemon::wal::create(wal_config(&wal_root, FsyncPolicy::None), None)
        .expect("wal opens");
    let config = config_naming("firstfit");
    wal.append(&WalRecord::Genesis { config }).expect("append");
    drop(wal);
    let recovered = Session::recover(
        config_naming("demand"),
        wal_config(&wal_root, FsyncPolicy::None),
        None,
    );
    refused(
        recovered.map(|(session, _)| session),
        "a first-fit WAL directory",
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Unsharded configs serialize without the sharding keys.
    let json = serde_json::to_string(&base).expect("config serializes");
    assert!(
        !json.contains("\"pods\"") && !json.contains("\"placer\""),
        "unsharded config must keep its pre-sharding bytes: {json}"
    );
    // And a pre-sharding config document (no such keys) still parses.
    let legacy: SessionConfig =
        serde_json::from_value(&serde_json::parse(&json).expect("parses")).expect("deserializes");
    assert_eq!(legacy, base);
}

/// A sharded (`pods = 2`) WAL-backed session killed two-thirds through —
/// with a snapshot compaction point inside the surviving prefix — and
/// recovered via snapshot + WAL tail replay preserves per-pod
/// `place_log` parity and drains byte-identically to the uncrashed
/// sharded run.
#[test]
fn sharded_session_recovers_from_wal_with_place_log_parity() {
    let cluster = testbed_cluster();
    let workload = experiment(2).build(&cluster);
    let pods = 2usize;

    // Uncrashed reference run (no WAL).
    let lb = loopback_sharded(cluster.clone(), "flowtime", pods as u64);
    let (expect_log, expect_bytes, _expect_outcomes, expect_traces) = drive(lb, &workload, &[]);

    // The same request sequence `drive` issues, rendered up front so it
    // can be cut at the kill point.
    let mut lines = Vec::new();
    for sub in &workload.workflows {
        lines.push(workflow_line(sub));
    }
    let mut adhoc: Vec<_> = workload.adhoc.clone();
    adhoc.sort_by_key(|s| s.arrival_slot);
    let mut now = 0u64;
    for sub in &adhoc {
        if sub.arrival_slot > now + 4 {
            now = sub.arrival_slot - 2;
            lines.push(format!("{{\"req\":\"tick\",\"to\":{now}}}"));
        }
        lines.push(adhoc_line(sub));
    }
    let kill_at = lines.len() * 2 / 3;

    let dir = wal_dir("sharded");
    let mut lb = loopback_wal(
        cluster.clone(),
        "flowtime",
        pods as u64,
        &dir,
        FsyncPolicy::Always,
        None,
    );
    for (i, line) in lines[..kill_at].iter().enumerate() {
        ok(&mut lb, line);
        if i == kill_at / 2 {
            ok(&mut lb, "{\"req\":\"snapshot\"}");
        }
    }
    drop(lb); // kill -9

    let (session, report) = Session::recover(
        session_config(cluster.clone(), "flowtime", pods as u64),
        wal_config(&dir, FsyncPolicy::Always),
        None,
    )
    .expect("sharded recovery succeeds");
    assert!(
        report.snapshot.is_some(),
        "recovery must start from the mid-prefix snapshot"
    );
    let mut resumed = Loopback::new(session);
    for line in &lines[kill_at..] {
        ok(&mut resumed, line);
    }
    let log = resumed.session().log().clone();
    ok(&mut resumed, "{\"req\":\"drain\"}");
    let session = resumed.into_session();
    let bytes = session.outcome_json().expect("drained").to_string();
    let outcomes = session.final_outcomes().expect("drained").to_vec();
    let traces = session.final_traces().expect("drained").to_vec();

    assert_eq!(
        serde_json::to_string(&log).expect("log serializes"),
        serde_json::to_string(&expect_log).expect("log serializes"),
        "recovered sharded log diverges"
    );
    assert_eq!(bytes, expect_bytes, "sharded outcome bytes diverge");
    for pod in 0..pods {
        assert_eq!(
            trace_bytes(&traces[pod]),
            trace_bytes(&expect_traces[pod]),
            "pod {pod} trace diverges after recovery"
        );
    }
    // The recovered session still satisfies the sharded place_log
    // differential contract.
    assert_batch_parity(&cluster, &log, Algo::FlowTime, pods, &outcomes, &traces);
    let _ = std::fs::remove_dir_all(&dir);
}
