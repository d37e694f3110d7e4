//! `flowtimed` refuses a flag its usage text does not name before it binds
//! a socket or touches a WAL directory: exit code 1, one line on stderr
//! naming the offender, no panic.

use std::process::Command;

#[test]
fn startup_refuses_unknown_flags_before_any_work() {
    let dir = std::env::temp_dir().join(format!("flowtimed_bad_flags_{}", std::process::id()));
    let wal = dir.join("wal");
    let wal = wal.to_str().expect("utf-8 temp dir");
    for (argv, offender) in [
        (&["--bogus", "1"][..], "unknown flag --bogus"),
        // The placement policy is not a choice (DESIGN.md §22), even
        // spelled the way that used to be valid.
        (
            &["--pods", "2", "--placer", "demand", "--wal-dir", wal],
            "unknown flag --placer",
        ),
        // A session persists through its WAL directory only (DESIGN.md
        // §26): the snapshot-file mode's flag is gone.
        (&["--snapshot", "/tmp/x"][..], "unknown flag --snapshot"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_flowtimed"))
            .args(argv)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{argv:?}: {stderr}");
        assert!(stderr.contains(offender), "{argv:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
        assert!(!dir.exists(), "{argv:?} created the WAL directory");
    }
}
