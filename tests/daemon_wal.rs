//! Crash-consistency property suite for the `flowtimed` write-ahead
//! log: kill-9 at seeded points (request boundaries, mid-WAL-append,
//! mid-snapshot) followed by recovery must drain to a `SimOutcome` and
//! decision trace byte-identical to the uncrashed run, auditor-
//! certified, with zero duplicate jobs under client retries; torn or
//! corrupt tails truncate at the last checksum-valid record with a
//! typed report, never a panic; disk-full is a typed rejection that
//! leaves the session consistent.

mod daemon_util;

use daemon_util::{
    adhoc_line, drain, loopback, loopback_wal, ok, session_config, trace_bytes, wal_config,
    wal_dir, with_request_id, workflow_line, TRACE_CAPACITY,
};
use flowtime_bench::experiments::{faulted_instance, testbed_cluster, WorkflowExperiment};
use flowtime_daemon::{
    codes, wal, DiskFaultPlan, FaultKind, FsyncPolicy, Loopback, Session, WalError,
};
use flowtime_sim::{certify_log, ClusterConfig, Engine, FaultConfig};
use std::fs;
use std::path::Path;

/// A scripted request sequence over a faulted instance: workflows, then
/// arrival-sorted ad-hoc jobs with a mid-stream tick and one cancel.
/// Submits carry idempotency keys (`tag-N`) so retries can be deduped.
fn scripted(seed: u64, tag: &str) -> (ClusterConfig, Vec<String>) {
    let cluster = testbed_cluster();
    let (workload, faulted_cluster) = faulted_instance(
        &WorkflowExperiment {
            workflows: 2,
            jobs_per_workflow: 5,
            adhoc_horizon: 50,
            seed,
            ..Default::default()
        },
        &cluster,
        FaultConfig::mixed(seed),
    );
    let mut lines = Vec::new();
    for (i, sub) in workload.workflows.iter().enumerate() {
        lines.push(with_request_id(&workflow_line(sub), &format!("{tag}-w{i}")));
    }
    let mut adhoc = workload.adhoc.clone();
    adhoc.sort_by_key(|s| s.arrival_slot);
    for (i, sub) in adhoc.iter().enumerate() {
        if i == adhoc.len() / 2 {
            lines.push("{\"req\":\"tick\",\"to\":12}".to_string());
        }
        lines.push(with_request_id(&adhoc_line(sub), &format!("{tag}-a{i}")));
        if i == adhoc.len() / 2 + 2 {
            let seq = workload.workflows.len() + i - 1;
            lines.push(format!("{{\"req\":\"cancel\",\"sub\":{seq}}}"));
        }
    }
    (faulted_cluster, lines)
}

/// True for lines that carry an idempotency key (the submits).
fn has_request_id(line: &str) -> bool {
    line.contains("\"request_id\":")
}

/// Asserts a response is the typed `duplicate` reply and returns the
/// original sequence number from its `data` payload.
fn assert_duplicate(response: &str) -> u64 {
    let v = serde_json::parse(response).expect("response is JSON");
    let err = v.get("err").unwrap_or_else(|| {
        panic!("expected duplicate error, got: {response}");
    });
    assert_eq!(
        err.get("code").and_then(serde_json::Value::as_str),
        Some("duplicate"),
        "expected duplicate, got: {response}"
    );
    match err.get("data").and_then(|d| d.get("sub")) {
        Some(serde_json::Value::U64(n)) => *n,
        other => panic!("duplicate reply must carry data.sub, got {other:?}"),
    }
}

/// Drives the full uncrashed run (no WAL) and returns the expected
/// artifacts.
fn uncrashed(
    cluster: &ClusterConfig,
    scheduler: &str,
    lines: &[String],
) -> (String, String, flowtime_sim::SubmissionLog) {
    let mut lb = loopback(cluster.clone(), scheduler);
    for line in lines {
        let r = lb.request_line(line);
        assert!(
            !r.contains("engine-error"),
            "unexpected engine error for {line}: {r}"
        );
    }
    let log = lb.session().log().clone();
    let (bytes, _, trace) = drain(lb);
    (bytes, trace_bytes(&trace), log)
}

/// The tentpole property: kill-9 at every seeded crash point — request
/// boundaries and a torn mid-append tail — then recover, retry the
/// already-acknowledged submissions (client retry-with-backoff), send
/// the rest, and drain. The outcome and decision trace must be
/// byte-identical to the uncrashed run, auditor-certified, with every
/// retry answered `duplicate` (zero duplicate jobs).
#[test]
fn kill9_recovery_is_byte_identical_over_corpus() {
    for seed in [0u64, 1] {
        for scheduler in ["flowtime", "edf"] {
            let tag = format!("c{seed}{scheduler}");
            let (cluster, lines) = scripted(seed, &tag);
            let (expect_bytes, expect_trace, expect_log) = uncrashed(&cluster, scheduler, &lines);

            for (point, kill_at) in [lines.len() / 3, 2 * lines.len() / 3]
                .into_iter()
                .enumerate()
            {
                for torn_tail in [false, true] {
                    let dir = wal_dir(&format!("corpus-{tag}-{point}-{torn_tail}"));
                    // Live session up to the kill point, fully synced.
                    let mut lb = loopback_wal(
                        cluster.clone(),
                        scheduler,
                        0,
                        &dir,
                        FsyncPolicy::Always,
                        None,
                    );
                    for line in &lines[..kill_at] {
                        let r = lb.request_line(line);
                        assert!(r.starts_with("{\"ok\":"), "accept failed for {line}: {r}");
                    }
                    drop(lb); // kill -9: no drain, no shutdown, state gone.

                    if torn_tail {
                        // The crash landed mid-append: a torn, unacknowledged
                        // record sits past the last valid one.
                        append_torn_frame(&dir);
                    }

                    // Restart: recover the session from the directory.
                    let (session, report) = Session::recover(
                        session_config(cluster.clone(), scheduler, 0),
                        wal_config(&dir, FsyncPolicy::Always),
                        None,
                    )
                    .expect("recovery succeeds");
                    assert_eq!(
                        report.tail.is_some(),
                        torn_tail,
                        "tail truncation reported iff the tail was torn"
                    );
                    let mut resumed = Loopback::new(session);

                    // Client retry harness: resend every acknowledged
                    // submission; each must dedup, none may double-accept.
                    for line in lines[..kill_at].iter().filter(|l| has_request_id(l)) {
                        let r = resumed.request_line(line);
                        assert_duplicate(&r);
                    }
                    for line in &lines[kill_at..] {
                        let r = resumed.request_line(line);
                        assert!(r.starts_with("{\"ok\":"), "resume failed for {line}: {r}");
                    }
                    let log = resumed.session().log().clone();
                    assert_eq!(
                        serde_json::to_string(&log).unwrap(),
                        serde_json::to_string(&expect_log).unwrap(),
                        "recovered log diverges ({tag} kill {kill_at} torn {torn_tail})"
                    );
                    let (bytes, outcome, trace) = drain(resumed);
                    assert_eq!(
                        bytes, expect_bytes,
                        "outcome bytes diverge ({tag} kill {kill_at} torn {torn_tail})"
                    );
                    assert_eq!(
                        trace_bytes(&trace),
                        expect_trace,
                        "decision trace diverges ({tag} kill {kill_at} torn {torn_tail})"
                    );
                    let report = certify_log(&cluster, &log, &outcome, &trace);
                    assert!(
                        report.is_certified(),
                        "recovered outcome not certified: {:?}",
                        report.violations
                    );
                    let _ = fs::remove_dir_all(&dir);
                }
            }
        }
    }
}

/// Appends a torn (length-valid but truncated) frame to the newest WAL
/// segment — the exact bytes a crash mid-`write` leaves behind.
fn append_torn_frame(dir: &Path) {
    let mut segments: Vec<_> = fs::read_dir(dir)
        .expect("wal dir exists")
        .filter_map(|e| {
            let name = e.expect("dir entry").file_name().into_string().ok()?;
            name.strip_prefix("wal-")?.strip_suffix(".log")?;
            Some(name)
        })
        .collect();
    segments.sort();
    let last = dir.join(segments.last().expect("at least one segment"));
    let mut bytes = fs::read(&last).expect("segment reads");
    bytes.extend_from_slice(b"512 00000000deadbeef {\"Tick\":{\"to\":9");
    fs::write(&last, bytes).expect("torn tail written");
}

/// Under `batch:N` fsync a crash that loses the unsynced tail (power
/// loss) still recovers to a consistent prefix: the recovered log is a
/// strict prefix of the uncrashed log, and the drained outcome is
/// byte-identical to a batch `Engine::from_log` replay of that prefix,
/// certified.
#[test]
fn batch_fsync_crash_recovers_to_certified_prefix() {
    let (cluster, lines) = scripted(2, "batch");
    let (_, _, full_log) = uncrashed(&cluster, "flowtime", &lines);
    let dir = wal_dir("batch-fsync");

    // Crash mid-run with the unsynced tail lost (the power-loss model).
    let plan = DiskFaultPlan::single(
        6_000,
        FaultKind::Crash {
            keep: 0,
            lose_unsynced: true,
        },
    );
    let mut lb = loopback_wal(
        cluster.clone(),
        "flowtime",
        0,
        &dir,
        FsyncPolicy::Batch(4),
        Some(plan),
    );
    let mut accepted = 0usize;
    let mut crashed = false;
    for line in &lines {
        let r = lb.request_line(line);
        if r.starts_with("{\"ok\":") {
            accepted += 1;
        } else {
            assert!(
                r.contains("wal-io"),
                "post-crash mutations must be typed wal-io: {r}"
            );
            crashed = true;
            break;
        }
    }
    assert!(crashed, "the planned crash must fire");
    assert!(accepted > 0, "some requests must land before the crash");
    drop(lb);

    let (session, _report) = Session::recover(
        session_config(cluster.clone(), "flowtime", 0),
        wal_config(&dir, FsyncPolicy::Batch(4)),
        None,
    )
    .expect("recovery succeeds after lost unsynced tail");
    let recovered_log = session.log().clone();
    assert!(
        recovered_log.entries.len() <= full_log.entries.len(),
        "recovered log cannot exceed the full log"
    );
    let full_json = serde_json::to_string(&full_log).unwrap();
    let rec_json = serde_json::to_string(&recovered_log).unwrap();
    assert!(
        full_json.starts_with(&rec_json[..rec_json.len() - 2]),
        "recovered log must be a prefix of the uncrashed log"
    );

    // The recovered session drains byte-identically to a batch replay of
    // the recovered (prefix) log.
    let (bytes, outcome, trace) = drain(Loopback::new(session));
    let mut scheduler = flowtime_bench::experiments::Algo::FlowTime.make(&cluster);
    let (engine, handle) = Engine::from_log(cluster.clone(), &recovered_log, 1_000_000)
        .expect("prefix log replays")
        .with_trace(TRACE_CAPACITY as usize);
    let batch_outcome = engine.run(scheduler.as_mut()).expect("batch run succeeds");
    assert_eq!(
        bytes,
        serde_json::to_string(&batch_outcome).unwrap(),
        "recovered prefix outcome diverges from batch replay"
    );
    assert_eq!(trace_bytes(&trace), trace_bytes(&handle.take()));
    let report = certify_log(&cluster, &recovered_log, &outcome, &trace);
    assert!(report.is_certified(), "{:?}", report.violations);
    let _ = fs::remove_dir_all(&dir);
}

/// Idempotency keys dedup live, across a snapshot, and across
/// restart-replay; the `duplicate` reply always carries the original
/// sequence number.
#[test]
fn request_ids_dedup_across_snapshot_and_restart() {
    let (cluster, lines) = scripted(3, "dedup");
    let dir = wal_dir("dedup");
    let mut lb = loopback_wal(cluster.clone(), "edf", 0, &dir, FsyncPolicy::Always, None);

    let submits: Vec<&String> = lines.iter().filter(|l| has_request_id(l)).collect();
    let first = submits[0];
    let r = lb.request_line(first);
    assert!(r.starts_with("{\"ok\":"), "{r}");

    // Live dedup.
    assert_eq!(assert_duplicate(&lb.request_line(first)), 0);

    // Snapshot (a WAL compaction point), then more submissions.
    ok(&mut lb, "{\"req\":\"snapshot\"}");
    let second = submits[1];
    let r = lb.request_line(second);
    assert!(r.starts_with("{\"ok\":"), "{r}");

    // Dedup across the snapshot boundary.
    assert_eq!(assert_duplicate(&lb.request_line(first)), 0);
    drop(lb); // kill -9

    // Dedup across restart-replay: keys from before AND after the
    // snapshot both survive (one came from the snapshot body, one from
    // the WAL tail).
    let mut resumed = loopback_wal(cluster, "edf", 0, &dir, FsyncPolicy::Always, None);
    assert_eq!(assert_duplicate(&resumed.request_line(first)), 0);
    assert_eq!(assert_duplicate(&resumed.request_line(second)), 1);
    assert_eq!(resumed.session().request_ids().len(), 2);
    let _ = fs::remove_dir_all(&dir);
}

/// Snapshot retention: with `keep_snapshots = 2`, older snapshots and
/// the segments they cover are pruned — but only after the newest
/// snapshot passes its checksum self-check — and recovery still works
/// from what remains.
#[test]
fn snapshot_retention_prunes_old_generations() {
    let (cluster, lines) = scripted(4, "retain");
    let dir = wal_dir("retention");
    let mut config = wal_config(&dir, FsyncPolicy::Always);
    config.keep_snapshots = 2;
    let (session, _) = Session::recover(session_config(cluster.clone(), "edf", 0), config, None)
        .expect("fresh wal");
    let mut lb = Loopback::new(session);

    let mut snapshots_taken = 0;
    for (i, line) in lines.iter().enumerate() {
        let r = lb.request_line(line);
        assert!(r.starts_with("{\"ok\":"), "{r}");
        if i % 3 == 2 {
            ok(&mut lb, "{\"req\":\"snapshot\"}");
            snapshots_taken += 1;
        }
    }
    assert!(snapshots_taken >= 4, "need several generations to prune");

    let (segments, snaps) = list_dir(&dir);
    assert_eq!(snaps.len(), 2, "exactly keep_snapshots generations remain");
    // Every surviving segment is >= the oldest retained snapshot's
    // coverage point (sealed history below it was pruned).
    let oldest_snap = snaps[0];
    assert!(
        segments.iter().all(|&s| s >= oldest_snap),
        "segments {segments:?} must not predate snapshot {oldest_snap}"
    );

    // What remains is a complete recovery line.
    let expect_log = serde_json::to_string(lb.session().log()).unwrap();
    drop(lb);
    let (session, report) = Session::recover(
        session_config(cluster, "edf", 0),
        wal_config(&dir, FsyncPolicy::Always),
        None,
    )
    .expect("recovery after pruning");
    assert!(report.snapshot.is_some(), "recovery used a snapshot");
    assert_eq!(serde_json::to_string(session.log()).unwrap(), expect_log);
    let _ = fs::remove_dir_all(&dir);
}

/// A crash mid-snapshot (inside the snapshot tmp-file write) fails the
/// `snapshot` request but never loses the session: recovery falls back
/// to the previous recovery line and replays the full WAL tail.
#[test]
fn crash_mid_snapshot_recovers_from_previous_line() {
    let (cluster, lines) = scripted(5, "midsnap");
    let dir = wal_dir("mid-snapshot");
    let (expect_bytes, expect_trace, _) = uncrashed(&cluster, "flowtime", &lines);

    // Arm a crash far enough into the byte stream to land inside the
    // snapshot render (appends are small; the snapshot body is not).
    let mut lb = loopback_wal(
        cluster.clone(),
        "flowtime",
        0,
        &dir,
        FsyncPolicy::Always,
        None,
    );
    let mut fed = 0usize;
    for line in &lines[..lines.len() / 2] {
        let r = lb.request_line(line);
        assert!(r.starts_with("{\"ok\":"), "{r}");
        fed += 1;
    }
    // Re-create the session against the same dir is not allowed (create
    // refuses); instead crash the snapshot through a faulted *new* dir:
    // replay the same prefix under a plan whose crash offset sits inside
    // the snapshot write, then take the snapshot.
    drop(lb);
    let faulted_dir = wal_dir("mid-snapshot-faulted");
    let appended: u64 = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    let plan = DiskFaultPlan::single(
        appended + 512, // inside the snapshot tmp write, past all appends
        FaultKind::Crash {
            keep: 64,
            lose_unsynced: false,
        },
    );
    let mut lb = loopback_wal(
        cluster.clone(),
        "flowtime",
        0,
        &faulted_dir,
        FsyncPolicy::Always,
        Some(plan),
    );
    for line in &lines[..fed] {
        let r = lb.request_line(line);
        assert!(r.starts_with("{\"ok\":"), "{r}");
    }
    let r = lb.request_line("{\"req\":\"snapshot\"}");
    assert!(
        r.contains("wal-io") || r.contains("snapshot-io"),
        "mid-snapshot crash must be a typed error: {r}"
    );
    drop(lb); // kill -9 while the tmp file is torn on disk

    let (session, report) = Session::recover(
        session_config(cluster.clone(), "flowtime", 0),
        wal_config(&faulted_dir, FsyncPolicy::Always),
        None,
    )
    .expect("recovery after mid-snapshot crash");
    assert!(
        report.snapshot.is_none(),
        "no completed snapshot exists; recovery replays from genesis"
    );
    let mut resumed = Loopback::new(session);
    for line in &lines[fed..] {
        let r = resumed.request_line(line);
        assert!(r.starts_with("{\"ok\":"), "{r}");
    }
    let (bytes, _, trace) = drain(resumed);
    assert_eq!(bytes, expect_bytes);
    assert_eq!(trace_bytes(&trace), expect_trace);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&faulted_dir);
}

/// Corruption of *sealed* history (a non-final segment) is a typed
/// `WalError::Corrupt` — recovery refuses to silently truncate records
/// that were covered by later, intact segments.
#[test]
fn corrupt_sealed_segment_is_a_typed_error_never_a_panic() {
    let (cluster, lines) = scripted(6, "sealed");
    let dir = wal_dir("sealed-corrupt");
    let mut config = wal_config(&dir, FsyncPolicy::Always);
    config.segment_max_records = 4; // force several sealed segments
    let (session, _) =
        Session::recover(session_config(cluster.clone(), "edf", 0), config, None).unwrap();
    let mut lb = Loopback::new(session);
    for line in &lines {
        let r = lb.request_line(line);
        assert!(r.starts_with("{\"ok\":"), "{r}");
    }
    drop(lb);

    let (segments, _) = list_dir(&dir);
    assert!(segments.len() >= 3, "need sealed history: {segments:?}");
    // Flip a byte inside the *first* (sealed) segment's records.
    let victim = dir.join(format!("wal-{:06}.log", segments[0]));
    let mut bytes = fs::read(&victim).unwrap();
    let n = bytes.len();
    bytes[n / 2] ^= 0x20;
    fs::write(&victim, bytes).unwrap();

    let err = wal::recover_dir(&wal_config(&dir, FsyncPolicy::Always), None)
        .err()
        .expect("sealed corruption must fail recovery");
    assert!(
        matches!(err, WalError::Corrupt { .. }),
        "expected WalError::Corrupt, got {err}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Disk-full is a typed `wal-io` rejection: the request is not
/// acknowledged, session state is untouched, and later appends (space
/// freed) succeed — the drained outcome matches a run that never saw
/// the rejected request.
#[test]
fn disk_full_is_typed_and_leaves_state_consistent() {
    let (cluster, lines) = scripted(7, "enospc");
    let dir = wal_dir("disk-full");
    let plan = DiskFaultPlan::single(2_000, FaultKind::DiskFull);
    let mut lb = loopback_wal(
        cluster.clone(),
        "flowtime",
        0,
        &dir,
        FsyncPolicy::Always,
        Some(plan),
    );
    let mut accepted_lines = Vec::new();
    let mut rejected = 0usize;
    for line in &lines {
        let r = lb.request_line(line);
        if r.starts_with("{\"ok\":") {
            accepted_lines.push(line.clone());
        } else {
            assert!(r.contains("wal-io"), "disk full must be typed wal-io: {r}");
            rejected += 1;
        }
    }
    assert_eq!(rejected, 1, "exactly the planned fault rejects");
    assert!(accepted_lines.len() == lines.len() - 1);
    let (bytes, _, trace) = drain(lb);

    // A clean run over only the accepted lines is byte-identical.
    let (expect_bytes, expect_trace, _) = uncrashed(&cluster, "flowtime", &accepted_lines);
    assert_eq!(bytes, expect_bytes);
    assert_eq!(trace_bytes(&trace), expect_trace);
    let _ = fs::remove_dir_all(&dir);
}

/// A session drained before the crash recovers *drained*: the outcome
/// endpoint serves the identical bytes after restart.
#[test]
fn drained_session_recovers_drained() {
    let (cluster, lines) = scripted(8, "drained");
    let dir = wal_dir("drained");
    let mut lb = loopback_wal(cluster.clone(), "edf", 0, &dir, FsyncPolicy::Always, None);
    for line in &lines {
        let r = lb.request_line(line);
        assert!(r.starts_with("{\"ok\":"), "{r}");
    }
    ok(&mut lb, "{\"req\":\"drain\"}");
    let expect = lb.session().outcome_json().unwrap().to_string();
    drop(lb); // kill -9 after drain

    let (session, _) = Session::recover(
        session_config(cluster, "edf", 0),
        wal_config(&dir, FsyncPolicy::Always),
        None,
    )
    .expect("drained session recovers");
    assert!(session.drained(), "the Drain record must replay");
    assert_eq!(session.outcome_json().unwrap(), expect);
    let _ = fs::remove_dir_all(&dir);
}

/// Malformed submissions leave no record: a directory that was sent them
/// recovers the accepted requests only, drains, and recovers drained
/// again. (They used to be acknowledged and logged, and the logged
/// `drain` panicked the engine at every restart.)
#[test]
fn malformed_submissions_leave_a_directory_that_recovers_and_drains() {
    let (cluster, lines) = scripted(9, "refused");
    let dir = wal_dir("refused");
    let mut lb = loopback_wal(cluster.clone(), "edf", 0, &dir, FsyncPolicy::Always, None);
    let mut reference = loopback(cluster.clone(), "edf");
    for (i, line) in lines.iter().enumerate() {
        assert_eq!(ok(&mut lb, line), ok(&mut reference, line));
        if i == 2 {
            for bad in daemon_util::malformed_submissions() {
                let r = lb.request_line(bad);
                assert!(r.contains(codes::MALFORMED_SUBMISSION), "{r}");
            }
        }
    }
    drop(lb); // kill -9 before the drain

    let recover = || {
        Session::recover(
            session_config(cluster.clone(), "edf", 0),
            wal_config(&dir, FsyncPolicy::Always),
            None,
        )
        .expect("the directory recovers")
        .0
    };
    let mut restarted = Loopback::new(recover());
    assert_eq!(restarted.session().log(), reference.session().log());
    ok(&mut restarted, "{\"req\":\"drain\"}");
    let (expect, _, _) = drain(reference);
    assert_eq!(restarted.session().outcome_json(), Some(expect.as_str()));
    drop(restarted);
    let again = recover();
    assert!(again.drained(), "the Drain record must replay");
    assert_eq!(again.outcome_json(), Some(expect.as_str()));
    let _ = fs::remove_dir_all(&dir);
}

/// A crash *between* the snapshot-file write and the rotate leaves a
/// snapshot naming a `wal_segment` that was never created. Recovery
/// must not skip that number: two restarts later the directory must
/// still be a complete recovery line with the drained outcome
/// byte-identical to the uncrashed run (the unfixed numbering left a
/// permanent segment hole that failed the second restart with
/// `segment ... is missing from the replay range`).
#[test]
fn snapshot_crash_before_rotate_never_leaves_a_segment_hole() {
    let (cluster, lines) = scripted(9, "hole");
    let (expect_bytes, expect_trace, _) = uncrashed(&cluster, "edf", &lines);
    let dir = wal_dir("snapshot-hole");
    let mid = lines.len() / 2;
    let mut lb = loopback_wal(cluster.clone(), "edf", 0, &dir, FsyncPolicy::Always, None);
    for line in &lines[..mid] {
        let r = lb.request_line(line);
        assert!(r.starts_with("{\"ok\":"), "{r}");
    }
    ok(&mut lb, "{\"req\":\"snapshot\"}");
    // kill -9
    drop(lb);
    // Reconstruct the crash window: snap-000001 says wal_segment=2,
    // but segment 2 was never created.
    let (_, snaps) = list_dir(&dir);
    assert_eq!(snaps, vec![1], "one snapshot generation on disk");
    fs::remove_file(dir.join("wal-000002.log")).expect("rotated segment existed");

    // Restart #1 must open segment 2, not skip to 3.
    let (session, report) = Session::recover(
        session_config(cluster.clone(), "edf", 0),
        wal_config(&dir, FsyncPolicy::Always),
        None,
    )
    .expect("first recovery succeeds");
    assert!(report.snapshot.is_some(), "the snapshot is still usable");
    let mut resumed = Loopback::new(session);
    for line in &lines[mid..] {
        let r = resumed.request_line(line);
        assert!(r.starts_with("{\"ok\":"), "{r}");
    }
    drop(resumed); // kill -9 again

    // Restart #2: every acknowledged record must still be recoverable.
    let (session, _) = Session::recover(
        session_config(cluster, "edf", 0),
        wal_config(&dir, FsyncPolicy::Always),
        None,
    )
    .expect("second recovery succeeds — no segment hole");
    let (bytes, _, trace) = drain(Loopback::new(session));
    assert_eq!(bytes, expect_bytes);
    assert_eq!(trace_bytes(&trace), expect_trace);
    let _ = fs::remove_dir_all(&dir);
}

/// A crash during the next segment's *header* write leaves a file with
/// no valid prefix. Recovery deletes it and reuses the number; the
/// second restart must not classify the remnant as sealed-history
/// corruption (the unfixed path truncated it to an empty file that
/// made the next startup fail with `WalError::Corrupt`).
#[test]
fn torn_segment_header_survives_two_restarts() {
    let (cluster, lines) = scripted(10, "tornhdr");
    let (expect_bytes, expect_trace, _) = uncrashed(&cluster, "edf", &lines);
    let dir = wal_dir("torn-header");
    let mid = lines.len() / 2;
    let mut lb = loopback_wal(cluster.clone(), "edf", 0, &dir, FsyncPolicy::Always, None);
    for line in &lines[..mid] {
        let r = lb.request_line(line);
        assert!(r.starts_with("{\"ok\":"), "{r}");
    }
    // kill -9
    drop(lb);
    // A rotation crashed mid-header-write.
    fs::write(dir.join("wal-000002.log"), b"flowtime-w").unwrap();

    let (session, report) = Session::recover(
        session_config(cluster.clone(), "edf", 0),
        wal_config(&dir, FsyncPolicy::Always),
        None,
    )
    .expect("first recovery tolerates the torn header");
    let t = report.tail.expect("torn header reported as a truncation");
    assert_eq!((t.segment, t.offset), (2, 0));
    let mut resumed = Loopback::new(session);
    for line in &lines[mid..] {
        let r = resumed.request_line(line);
        assert!(r.starts_with("{\"ok\":"), "{r}");
    }
    drop(resumed); // kill -9 again

    let (session, report) = Session::recover(
        session_config(cluster, "edf", 0),
        wal_config(&dir, FsyncPolicy::Always),
        None,
    )
    .expect("second recovery succeeds — the remnant is not sealed corruption");
    assert!(
        report.tail.is_none(),
        "clean shutdownless restart, no defect"
    );
    let (bytes, _, trace) = drain(Loopback::new(session));
    assert_eq!(bytes, expect_bytes);
    assert_eq!(trace_bytes(&trace), expect_trace);
    let _ = fs::remove_dir_all(&dir);
}

/// A 3-submit prelude (one request each) and a 20-submit run, all keyed.
fn prelude_and_run() -> (Vec<String>, Vec<String>) {
    let line = |i: u64| {
        let sub = flowtime_sim::AdhocSubmission::new(
            flowtime_dag::JobSpec::new(
                format!("j{i}"),
                1 + i % 3,
                1,
                flowtime_dag::ResourceVec::new([1, 1024]),
            ),
            i / 4,
        );
        with_request_id(&adhoc_line(&sub), &format!("run-{i}"))
    };
    ((0..3).map(line).collect(), (3..23).map(line).collect())
}

fn segment_len(dir: &Path) -> u64 {
    fs::metadata(dir.join("wal-000001.log"))
        .expect("segment 1")
        .len()
}

/// Feeds the prelude one request at a time, then the run through one
/// `handle_lines`; returns the session, the state just before the run —
/// `(log length, segment length)` — and the run's replies.
fn prelude_then_run(
    dir: &Path,
    wal: flowtime_daemon::WalConfig,
    faults: Option<DiskFaultPlan>,
) -> (Session, (usize, u64), Vec<String>) {
    let (prelude, run) = prelude_and_run();
    let (session, _) = Session::recover(session_config(testbed_cluster(), "edf", 0), wal, faults)
        .expect("fresh wal session");
    let mut lb = Loopback::new(session);
    for line in &prelude {
        ok(&mut lb, line);
    }
    let mut session = lb.into_session();
    let before = (session.log().len(), segment_len(dir));
    let run: Vec<&str> = run.iter().map(String::as_str).collect();
    let (replies, shutdown) = session.handle_lines(&run);
    assert!(!shutdown);
    assert_eq!(replies.len(), run.len());
    (session, before, replies)
}

/// PR 10's rollback / poison contract with *run* for *record*: a fault in
/// the middle of a 20-submit run rejects all 20 with the one typed error
/// and leaves log and segment as they were; disk-full lets the next run
/// through, a failed fsync poisons exactly as it poisons a single append;
/// a short write is invisible. Recovery never replays a rejected run.
#[test]
fn a_fault_inside_a_run_rejects_the_run_whole() {
    let (_, run) = prelude_and_run();
    let run: Vec<&str> = run.iter().map(String::as_str).collect();
    let clean_dir = wal_dir("run-clean");
    let (clean, (_, start), replies) = prelude_then_run(
        &clean_dir,
        wal_config(&clean_dir, FsyncPolicy::Always),
        None,
    );
    assert!(replies.iter().all(|r| r.starts_with("{\"ok\":")));
    let clean_bytes = fs::read(clean_dir.join("wal-000001.log")).unwrap();
    let middle = (start + clean_bytes.len() as u64) / 2;
    let recovered_len = |dir: &Path| {
        let (session, report) = Session::recover(
            session_config(testbed_cluster(), "edf", 0),
            wal_config(dir, FsyncPolicy::Always),
            None,
        )
        .expect("recovers");
        assert!(report.tail.is_none(), "a rollback leaves no torn tail");
        session.log().len()
    };

    for kind in [
        FaultKind::DiskFull,
        FaultKind::FsyncFail,
        FaultKind::ShortWrite,
    ] {
        let dir = wal_dir("run-faulted");
        let plan = DiskFaultPlan::single(middle, kind);
        let (mut session, before, replies) =
            prelude_then_run(&dir, wal_config(&dir, FsyncPolicy::Always), Some(plan));
        if matches!(kind, FaultKind::ShortWrite) {
            assert!(
                replies.iter().all(|r| r.starts_with("{\"ok\":")),
                "{kind:?}"
            );
            assert_eq!(fs::read(dir.join("wal-000001.log")).unwrap(), clean_bytes);
            continue;
        }
        assert!(
            replies.iter().all(|r| r.contains("\"code\":\"wal-io\"")),
            "{kind:?}: every reply of the run is the typed error: {replies:?}"
        );
        assert!(
            replies.windows(2).all(|w| w[0] == w[1]),
            "one error, 20 times"
        );
        assert_eq!((session.log().len(), segment_len(&dir)), before, "{kind:?}");
        assert!(session.request_ids().len() == 3, "{kind:?}");

        // The next run: through after a full disk, refused after a failed
        // fsync — where a single append is poisoned too.
        let (again, _) = session.handle_lines(&run);
        if matches!(kind, FaultKind::DiskFull) {
            assert_eq!(again, clean_replies(&run, 3), "{kind:?}");
            assert_eq!(fs::read(dir.join("wal-000001.log")).unwrap(), clean_bytes);
            assert_eq!(session.log().len(), clean.log().len());
        } else {
            assert!(
                again.iter().all(|r| r.contains("wal poisoned")),
                "{again:?}"
            );
            assert_eq!((session.log().len(), segment_len(&dir)), before);
        }
        drop(session);
        let expect = if matches!(kind, FaultKind::DiskFull) {
            23
        } else {
            3
        };
        assert_eq!(
            recovered_len(&dir),
            expect,
            "{kind:?}: none of a rejected run"
        );
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&clean_dir);
}

/// The acknowledgements `lines` get on a session that has logged `first`
/// entries and is at slot 0.
fn clean_replies(lines: &[&str], first: u64) -> Vec<String> {
    (first..first + lines.len() as u64)
        .map(|i| {
            format!(
                "{{\"ok\":{{\"sub\":{i},\"arrival\":{},\"jobs\":1}}}}",
                i / 4
            )
        })
        .collect()
}

/// The crashing half of the next test: run only as a child process, with
/// the directory and the kill point in the environment. It never returns.
#[test]
fn chaos_kill_inside_a_run_child() {
    let Ok(spec) = std::env::var("FLOWTIME_TEST_CHAOS_KILL") else {
        return;
    };
    let (dir, kill) = spec.split_once('|').expect("dir|N[:BYTES]");
    let mut wal = wal_config(Path::new(dir), FsyncPolicy::Always);
    wal.chaos_kill = Some(kill.parse().expect("kill point"));
    prelude_then_run(Path::new(dir), wal, None);
}

/// `--chaos-kill-after N[:BYTES]` with `N` inside a run: the process
/// aborts at that record, the records before it — of earlier requests
/// and of the run — are on disk, and with `BYTES` so is that much of it.
#[test]
fn chaos_kill_inside_a_run_aborts_at_that_record() {
    // Appends: 1 genesis, 2–4 the prelude, 5–24 the run.
    for (kill, torn) in [("12", false), ("12:17", true), ("5", false)] {
        let dir = wal_dir(&format!("run-chaos-{}", kill.replace(':', "_")));
        let status = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["--exact", "chaos_kill_inside_a_run_child", "--nocapture"])
            .env(
                "FLOWTIME_TEST_CHAOS_KILL",
                format!("{}|{kill}", dir.display()),
            )
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("child runs");
        assert!(!status.success(), "kill point {kill} never fired");
        let n: u64 = kill.split(':').next().unwrap().parse().unwrap();
        let rec = wal::recover_dir(&wal_config(&dir, FsyncPolicy::Always), None).expect("recovers");
        assert_eq!(
            rec.report.records_replayed,
            n - 1,
            "records < {n} are on disk"
        );
        assert_eq!(rec.report.tail.is_some(), torn, "kill point {kill}");
        if let Some(t) = rec.report.tail {
            assert_eq!(t.dropped_bytes, 17);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Lists `(segments, snapshots)` by number, ascending.
fn list_dir(dir: &Path) -> (Vec<u64>, Vec<u64>) {
    let mut segments = Vec::new();
    let mut snaps = Vec::new();
    for e in fs::read_dir(dir).expect("dir exists") {
        let name = e.expect("entry").file_name().into_string().expect("utf-8");
        if let Some(n) = name
            .strip_prefix("wal-")
            .and_then(|r| r.strip_suffix(".log"))
        {
            segments.push(n.parse().unwrap());
        } else if let Some(n) = name
            .strip_prefix("snap-")
            .and_then(|r| r.strip_suffix(".snap"))
        {
            snaps.push(n.parse().unwrap());
        }
    }
    segments.sort_unstable();
    snaps.sort_unstable();
    (segments, snaps)
}
