//! Bad-path behaviour of the `repro` binary: missing or malformed trace
//! files, unknown flags and malformed values must produce a clear error
//! on stderr and a nonzero exit code, never a panic.

use std::process::Command;

fn trace_sim() -> Command {
    let mut repro = Command::new(env!("CARGO_BIN_EXE_repro"));
    repro.arg("trace_sim");
    repro
}

#[test]
fn missing_load_path_errors_cleanly() {
    let out = trace_sim()
        .args(["--load", "/nonexistent/definitely-missing.jsonl"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot open trace file"),
        "stderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "must not panic on a missing path: {stderr}"
    );
}

#[test]
fn malformed_trace_errors_cleanly() {
    let dir = std::env::temp_dir().join(format!("trace_sim_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("garbage.jsonl");
    std::fs::write(&path, "this is not json\n").unwrap();
    let out = trace_sim()
        .args(["--load", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    std::fs::remove_dir_all(&dir).ok();
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("malformed trace file"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "must not panic: {stderr}");
}

#[test]
fn unwritable_save_path_errors_cleanly() {
    let out = trace_sim()
        .args([
            "--workflows",
            "1",
            "--save",
            "/nonexistent-dir/trace-out.jsonl",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot create trace file"),
        "stderr: {stderr}"
    );
}

/// Every experiment refuses an unknown flag and a malformed value before
/// doing any work: exit code 1, one line on stderr naming the offender, no
/// panic, and nothing written to `results/`.
#[test]
fn every_experiment_refuses_bad_flags_before_any_work() {
    let dir = std::env::temp_dir().join(format!("repro_bad_flags_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let malformed: [(&str, &[&str], &str); 13] = [
        ("fig1", &["7"], "`7`"),
        ("fig4", &["banana"], "[seed]"),
        ("fig5", &["--overrun", "lots"], "--overrun"),
        ("fig6", &["--runs", "banana"], "--runs"),
        ("fig7", &["--reps", "banana"], "--reps"),
        ("trace_sim", &["--workflows", "banana"], "--workflows"),
        ("ablation", &["banana"], "[seed]"),
        ("robustness", &["1", "x"], "[fault-seeds]"),
        ("fig_recovery", &["1", "1", "x"], "[threads]"),
        // A run is one engine over the whole cluster (DESIGN.md §31): the
        // pod count is no flag, nor is the placement policy (§22).
        ("trace_sim", &["--pods", "2"], "unknown flag --pods"),
        (
            "trace_sim",
            &["--placer", "demand"],
            "unknown flag --placer",
        ),
        ("fig_explain", &["--rates", "0.1,x"], "--rates"),
        ("all", &["--quick", "7"], "`7`"),
    ];
    let repro = |argv: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(argv)
            .current_dir(&dir)
            .output()
            .expect("binary runs")
    };
    let refused = |argv: &[&str], offender: &str| {
        let out = repro(argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{argv:?}: {stderr}");
        assert!(stderr.contains(offender), "{argv:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?} started work");
        assert!(!dir.join("results").exists(), "{argv:?} wrote a file");
    };
    for (experiment, bad_value, offender) in malformed {
        refused(&[experiment, "--bogus", "1"], "--bogus");
        refused(&[&[experiment], bad_value].concat(), offender);
    }
    // The pod-count curve went with the pods: its name is refused like
    // any unknown experiment, with the list of the ones there are.
    let out = repro(&["fig_shard"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("repro: error: unknown experiment `fig_shard`"));
    assert!(
        !stderr.contains("panicked") && out.stdout.is_empty(),
        "{stderr}"
    );
    assert!(!dir.join("results").exists(), "fig_shard wrote a file");
    // A flag's value is never taken for a positional (`--workflows 1` is
    // not seed 1), and a switch never swallows one (`--quick 5` is seed 5).
    for (argv, seed) in [
        (&["trace_sim", "--workflows", "1"][..], "seed 7\n"),
        (&["fig4", "--quick", "5"], "seed 5\n"),
    ] {
        let out = repro(argv);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{argv:?}");
        assert!(stdout.contains(seed), "{argv:?}: {stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
