//! Every `flowtime-cli` subcommand refuses an unknown flag and a malformed
//! value: exit code 1, one line on stderr naming the offender, no panic,
//! and no file written.

use std::path::Path;
use std::process::{Command, Output};

fn cli(dir: &Path, argv: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flowtime-cli"))
        .args(argv)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

#[test]
fn every_subcommand_refuses_bad_flags() {
    let dir = std::env::temp_dir().join(format!("cli_bad_flags_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let generated = cli(
        &dir,
        &[
            "generate",
            "--out",
            "t.jsonl",
            "--workflows",
            "1",
            "--seed",
            "3",
        ],
    );
    assert!(generated.status.success());
    let files_before = std::fs::read_dir(&dir).unwrap().count();

    let malformed: [(&str, &[&str], &str); 15] = [
        (
            "generate",
            &["--out", "g.jsonl", "--workflows", "banana"],
            "--workflows",
        ),
        ("simulate", &["--pods", "two", "--out", "m.json"], "--pods"),
        ("simulate", &["--lp-backend", "dense"], "--lp-backend"),
        ("simulate", &["--schedular", "edf"], "--schedular"),
        // The placement policy is not a choice (DESIGN.md §22): both of its
        // flags are unknown, even spelled the way that used to be valid.
        ("compare", &["--placer", "demand"], "unknown flag --placer"),
        (
            "simulate",
            &[
                "--pods",
                "2",
                "--placer",
                "demand",
                "--outcome-out",
                "o.json",
            ],
            "unknown flag --placer",
        ),
        (
            "whatif",
            &[
                "--alt-pods",
                "2",
                "--alt-placer",
                "demand",
                "--out",
                "w.json",
            ],
            "unknown flag --alt-placer",
        ),
        ("decompose", &["--index", "x"], "--index"),
        ("audit", &["--fault-seed", "abc"], "--fault-seed"),
        (
            "explain",
            &["--fault-seed", "abc", "--out", "e.json"],
            "--fault-seed",
        ),
        (
            "whatif",
            &["--misestimate", "0.3", "--out", "w.json"],
            "--misestimate",
        ),
        ("sweep", &["--bench-threads", "1,x"], "--bench-threads"),
        ("submit", &["--retries", "x"], "--retries"),
        ("status", &["--connect", "nowhere"], "--connect"),
        (
            "drain",
            &["--connect", "nowhere", "--out", "o.json"],
            "--connect",
        ),
    ];
    let refused = |argv: &[&str], offender: &str| {
        let out = cli(&dir, argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{argv:?}: {stderr}");
        assert!(stderr.contains(offender), "{argv:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            files_before,
            "{argv:?} wrote a file"
        );
    };
    for (command, bad, offender) in malformed {
        // What a subcommand needs to get as far as the bad value.
        let mut scenario: Vec<&str> = Vec::new();
        if !matches!(
            command,
            "generate" | "sweep" | "submit" | "status" | "drain"
        ) {
            scenario.extend(["--trace", "t.jsonl"]);
        }
        if matches!(command, "audit" | "explain" | "whatif") {
            scenario.extend(["--decision-trace", "d.jsonl", "--outcome", "o.json"]);
        }
        refused(
            &[&[command], &scenario[..], &["--bogus", "1"]].concat(),
            "--bogus",
        );
        refused(&[&[command], &scenario[..], bad].concat(), offender);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A trace whose submissions no builder could have built — a workflow of
/// no jobs, an ad-hoc job of zero tasks — is refused when it is read:
/// exit code 1, one line on stderr naming the record, no panic.
#[test]
fn malformed_trace_submissions_exit_nonzero_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("cli_bad_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let generated = cli(&dir, &["generate", "--out", "t.jsonl", "--workflows", "1"]);
    assert!(generated.status.success());
    let good = std::fs::read_to_string(dir.join("t.jsonl")).unwrap();
    for bad in [
        "{\"Workflow\":{\"workflow\":{\"id\":9,\"name\":\"empty\",\"jobs\":[],\
         \"dag\":{\"n\":0,\"succ\":[],\"pred\":[],\"edge_count\":0},\
         \"submit_slot\":0,\"deadline_slot\":20},\"actual_work\":null,\"job_deadlines\":null}}",
        "{\"Adhoc\":{\"spec\":{\"name\":\"z\",\"tasks\":0,\"task_slots\":1,\
         \"per_task\":[1,1024],\"max_parallel\":null},\"arrival_slot\":0}}",
    ] {
        std::fs::write(dir.join("bad.jsonl"), format!("{good}{bad}\n")).unwrap();
        let line = good.lines().count() + 1;
        for command in ["simulate", "compare"] {
            let out = cli(&dir, &[command, "--trace", "bad.jsonl"]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
            assert_eq!(stderr.lines().count(), 1, "{command}: {stderr}");
            assert!(
                stderr.contains(&format!("line {line}")) && stderr.contains("malformed submission"),
                "{command}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{command}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
