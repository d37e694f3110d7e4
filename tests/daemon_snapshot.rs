//! Snapshot/restore: a session killed mid-run and restored from the
//! snapshot its WAL directory holds (`snap-*.snap`), then fed the same
//! remaining requests, drains to a `SimOutcome` byte-identical to the
//! uninterrupted session — and every form of snapshot corruption is a
//! typed error, never a silently-wrong session (mutation-negative
//! coverage).

mod daemon_util;

use daemon_util::{
    adhoc_line, drain, loopback, loopback_wal, ok, session_config, snapshot_file, trace_bytes,
    wal_config, wal_dir, workflow_line,
};
use flowtime_bench::experiments::{faulted_instance, testbed_cluster, WorkflowExperiment};
use flowtime_daemon::{
    codes, snapshot, wal, FsyncPolicy, Loopback, Session, SnapshotError, WalRecord,
};
use flowtime_sim::{FaultConfig, LogEntry};
use std::fs;

fn scripted_requests() -> (flowtime_sim::ClusterConfig, Vec<String>) {
    let cluster = testbed_cluster();
    let (workload, faulted_cluster) = faulted_instance(
        &WorkflowExperiment {
            workflows: 2,
            jobs_per_workflow: 5,
            adhoc_horizon: 50,
            seed: 42,
            ..Default::default()
        },
        &cluster,
        FaultConfig::mixed(42),
    );
    let mut lines = Vec::new();
    for sub in &workload.workflows {
        lines.push(workflow_line(sub));
    }
    let mut adhoc = workload.adhoc.clone();
    adhoc.sort_by_key(|s| s.arrival_slot);
    // Interleave ticks so the kill point lands genuinely mid-run, and a
    // cancellation so the log's cancel path crosses the snapshot too.
    for (i, sub) in adhoc.iter().enumerate() {
        if i == adhoc.len() / 2 {
            lines.push("{\"req\":\"tick\",\"to\":12}".to_string());
        }
        lines.push(adhoc_line(sub));
        if i == adhoc.len() / 2 + 2 {
            // Cancel the submission made two requests ago if still pending
            // (workflows consumed the first seqs).
            let seq = workload.workflows.len() + i - 1;
            lines.push(format!("{{\"req\":\"cancel\",\"sub\":{seq}}}"));
        }
    }
    (faulted_cluster, lines)
}

#[test]
fn restore_from_mid_run_snapshot_is_byte_identical() {
    let dir = wal_dir("snap-mid-run");
    let (cluster, lines) = scripted_requests();
    let kill_at = lines.len() * 2 / 3;

    // Uninterrupted session: all requests, then drain.
    let mut uninterrupted = loopback(cluster.clone(), "flowtime");
    for line in &lines {
        let r = uninterrupted.request_line(line);
        assert!(
            !r.contains("engine-error"),
            "unexpected engine error for {line}: {r}"
        );
    }
    let (expect_bytes, _, expect_trace) = drain(uninterrupted);

    // Killed session: first two-thirds of the requests, snapshot, drop.
    let mut killed = loopback_wal(cluster, "flowtime", 0, &dir, FsyncPolicy::None, None);
    for line in &lines[..kill_at] {
        killed.request_line(line);
    }
    let path = snapshot_file(&mut killed);
    drop(killed); // The "crash": no drain, session state gone.

    // Restore and feed the remaining requests.
    let body = snapshot::load(&path).expect("snapshot loads");
    let restored = Session::restore(body).expect("snapshot restores");
    let mut resumed = Loopback::new(restored);
    for line in &lines[kill_at..] {
        resumed.request_line(line);
    }
    let (got_bytes, _, got_trace) = drain(resumed);

    assert_eq!(
        got_bytes, expect_bytes,
        "restored session must drain to the uninterrupted outcome bytes"
    );
    assert_eq!(
        trace_bytes(&got_trace),
        trace_bytes(&expect_trace),
        "restored session must reproduce the decision trace"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_snapshots_are_typed_errors() {
    let dir = wal_dir("snap-corrupt");
    let (cluster, lines) = scripted_requests();

    let mut lb = loopback_wal(cluster, "edf", 0, &dir, FsyncPolicy::None, None);
    for line in &lines[..4] {
        lb.request_line(line);
    }
    let path = snapshot_file(&mut lb);
    drop(lb);
    let good = fs::read_to_string(&path).unwrap();
    let body_line = good.lines().nth(1).unwrap().to_string();

    // Bit-flipped body: checksum mismatch.
    fs::write(&path, good.replace("\"next_seq\":", "\"next_seq\": ")).unwrap();
    assert!(matches!(
        snapshot::load(&path),
        Err(SnapshotError::Checksum { .. })
    ));

    // Mangled header: format error.
    fs::write(
        &path,
        format!("flowtime-snapshot-v2 fnv1a=0\n{body_line}\n"),
    )
    .unwrap();
    assert!(matches!(
        snapshot::load(&path),
        Err(SnapshotError::Format(_))
    ));

    // Truncated file: format error.
    fs::write(&path, good.lines().next().unwrap()).unwrap();
    assert!(matches!(
        snapshot::load(&path),
        Err(SnapshotError::Format(_))
    ));

    // Valid frame, nonsense body: parse error.
    let nonsense = "{\"not\":\"a snapshot\"}";
    fs::write(
        &path,
        format!(
            "flowtime-snapshot-v1 fnv1a={:016x}\n{nonsense}\n",
            snapshot::fnv1a(nonsense.as_bytes())
        ),
    )
    .unwrap();
    assert!(matches!(
        snapshot::load(&path),
        Err(SnapshotError::Parse(_))
    ));

    // Valid frame and body, but an unreachable state (a `now` the log
    // cannot replay to): restore rejects it.
    fs::write(&path, &good).unwrap();
    let mut body = snapshot::load(&path).expect("good snapshot loads");
    body.now = 1_000_000_000;
    assert!(Session::restore(body).is_err());

    let _ = fs::remove_dir_all(&dir);
}

/// The restore point swept over the whole script: after *every* request
/// boundary (cancels and the tick included), snapshot → restore → the
/// remaining lines must answer with the same reply bytes and drain to the
/// same outcome bytes as the session that was never interrupted.
#[test]
fn restore_at_every_request_boundary_is_byte_identical() {
    let (cluster, lines) = scripted_requests();
    assert!(lines.iter().any(|l| l.contains("\"cancel\"")));

    let mut uninterrupted = loopback(cluster.clone(), "flowtime");
    let replies: Vec<String> = lines
        .iter()
        .map(|l| uninterrupted.request_line(l))
        .collect();
    let (expect_bytes, _, _) = drain(uninterrupted);

    for cut in 0..=lines.len() {
        let dir = wal_dir("snap-sweep");
        let mut killed = loopback_wal(
            cluster.clone(),
            "flowtime",
            0,
            &dir,
            FsyncPolicy::None,
            None,
        );
        for line in &lines[..cut] {
            killed.request_line(line);
        }
        let path = snapshot_file(&mut killed);
        drop(killed);
        let body = snapshot::load(&path).expect("snapshot loads");
        let mut resumed = Loopback::new(Session::restore(body).expect("snapshot restores"));
        for (line, expect) in lines[cut..].iter().zip(&replies[cut..]) {
            assert_eq!(&resumed.request_line(line), expect, "cut {cut}: `{line}`");
        }
        let (got_bytes, _, _) = drain(resumed);
        assert_eq!(
            got_bytes, expect_bytes,
            "cut {cut}: drained outcome differs"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

/// One entry, two codes: a log that cancels a submission which is not
/// pending is `snapshot-corrupt` when a snapshot carries it and
/// `wal-corrupt` when a WAL record does — the same `apply_entry` refusal,
/// reported under the artifact that was damaged.
#[test]
fn cancel_of_a_non_pending_submission_is_typed_per_artifact() {
    let dir = wal_dir("snap-badcancel");
    let (cluster, lines) = scripted_requests();
    let bad_cancel = |seq| LogEntry::Cancel {
        seq,
        at: 0,
        target: 999,
    };

    let mut lb = loopback_wal(cluster.clone(), "edf", 0, &dir, FsyncPolicy::None, None);
    for line in &lines[..3] {
        ok(&mut lb, line);
    }
    let mut body = snapshot::load(snapshot_file(&mut lb)).expect("good snapshot loads");
    body.log.entries.push(bad_cancel(body.next_seq));
    body.next_seq += 1;
    let err = Session::restore(body).err().expect("restore must refuse");
    assert_eq!(err.code, codes::SNAPSHOT_CORRUPT, "{err}");
    assert!(err.detail.contains("cancel of non-pending submission 999"));

    let wdir = wal_dir("badcancel");
    let config = session_config(cluster, "edf", 0);
    let mut log = wal::create(wal_config(&wdir, FsyncPolicy::None), None).unwrap();
    log.append(&WalRecord::Genesis {
        config: config.clone(),
    })
    .unwrap();
    log.append(&WalRecord::Entry {
        entry: bad_cancel(0),
        request_id: None,
    })
    .unwrap();
    drop(log);
    let err = Session::recover(config, wal_config(&wdir, FsyncPolicy::None), None)
        .err()
        .expect("recovery must refuse");
    assert_eq!(err.code, codes::WAL_CORRUPT, "{err}");
    assert!(err.detail.contains("cancel of non-pending submission 999"));
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&wdir);
}

/// A session with nowhere to write a snapshot says so up front: the
/// destination is resolved before the log is copied into a body (the
/// flagless daemon used to deep-copy its whole log every 256 requests and
/// then discover there was no path). Snapshots live in the WAL directory,
/// so the refusal names `--wal-dir`.
#[test]
fn snapshot_without_a_destination_is_refused_before_any_copy() {
    let (cluster, lines) = scripted_requests();
    let mut lb = loopback(cluster.clone(), "edf");
    for line in &lines[..3] {
        ok(&mut lb, line);
    }
    assert_eq!(lb.session().snapshot_target(), None);
    let reply = lb.request_line("{\"req\":\"snapshot\"}");
    assert!(
        reply.contains(codes::SNAPSHOT_IO) && reply.contains("--wal-dir"),
        "{reply}"
    );
    assert_eq!(
        lb.session().log().len(),
        3,
        "a refused snapshot changes nothing"
    );

    let wdir = wal_dir("snaptarget");
    let with_wal = loopback_wal(cluster, "edf", 0, &wdir, FsyncPolicy::None, None);
    assert_eq!(with_wal.session().snapshot_target(), Some(wdir.as_path()));
    let _ = fs::remove_dir_all(&wdir);
}
