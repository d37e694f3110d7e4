//! Review repro: cancel after idle gap-burning vs snapshot restore and
//! batch parity.

mod daemon_util;

use daemon_util::{adhoc_line, loopback_wal, snapshot_file, wal_dir};
use flowtime_daemon::{snapshot, FsyncPolicy, Session};
use flowtime_dag::{JobSpec, ResourceVec};
use flowtime_sim::{AdhocSubmission, ClusterConfig};

fn cluster() -> ClusterConfig {
    ClusterConfig::new(ResourceVec::new([8, 65536]), 10.0)
}

#[test]
fn restore_after_cancel_of_gap_burned_submission() {
    let dir = wal_dir("review-repro");
    let mut lb = loopback_wal(cluster(), "fifo", 0, &dir, FsyncPolicy::None, None);
    // Submit an ad-hoc job far in the future (arrival slot 100).
    let sub = AdhocSubmission {
        spec: JobSpec::new("a", 1, 1, ResourceVec::new([1, 1024])),
        arrival_slot: 100,
    };
    let r = lb.request_line(&adhoc_line(&sub));
    println!("submit: {r}");
    assert!(r.contains("ok"), "{r}");
    // Tick to slot 10: burns idle slots toward the pending arrival.
    let r = lb.request_line("{\"req\":\"tick\",\"to\":10}");
    println!("tick: {r}");
    assert!(r.contains("\"now\":10"), "{r}");
    // Cancel the still-pending submission.
    let r = lb.request_line("{\"req\":\"cancel\",\"sub\":0}");
    println!("cancel: {r}");
    assert!(r.contains("ok"), "{r}");
    // Snapshot the session (now = 10, log = [adhoc, cancel]).
    let path = snapshot_file(&mut lb);
    println!("snapshot: {}", path.display());
    // Restore must succeed: this is a reachable state.
    let body = snapshot::load(&path).expect("snapshot loads");
    let restored = Session::restore(body);
    match &restored {
        Ok(s) => println!("restored, now={}", s.now()),
        Err(e) => println!("RESTORE FAILED: {e}"),
    }
    assert!(
        restored.is_ok(),
        "restore failed: {:?}",
        restored.err().map(|e| e.to_string())
    );
    let _ = std::fs::remove_dir_all(&dir);
}
