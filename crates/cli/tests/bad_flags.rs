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

    let malformed: [(&str, &[&str], &str); 18] = [
        (
            "generate",
            &["--out", "g.jsonl", "--workflows", "banana"],
            "--workflows",
        ),
        // A run is one engine over the whole cluster (DESIGN.md §31): no
        // subcommand takes a pod count.
        (
            "simulate",
            &["--pods", "2", "--out", "m.json"],
            "unknown flag --pods",
        ),
        ("compare", &["--pods", "1"], "unknown flag --pods"),
        (
            "sweep",
            &["--pods", "2", "--out", "s"],
            "unknown flag --pods",
        ),
        (
            "whatif",
            &["--alt-pods", "2", "--out", "w.json"],
            "unknown flag --alt-pods",
        ),
        ("simulate", &["--lp-backend", "dense"], "--lp-backend"),
        ("simulate", &["--schedular", "edf"], "--schedular"),
        // The placement policy is not a choice (DESIGN.md §22): both of its
        // flags are unknown, even spelled the way that used to be valid.
        ("compare", &["--placer", "demand"], "unknown flag --placer"),
        (
            "simulate",
            &["--placer", "demand", "--outcome-out", "o.json"],
            "unknown flag --placer",
        ),
        (
            "whatif",
            &["--alt-placer", "demand", "--out", "w.json"],
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

/// What `simulate --pods K` wrote before a run became one engine over the
/// whole cluster (DESIGN.md §31) — a decision trace whose header carries
/// the pod count, an outcome file holding the placement and one outcome
/// per pod — is refused by `audit`, `explain` and `whatif`: exit code 1,
/// one line on stderr naming `header.pods` or the `placement` key, no
/// file written, and every input file byte-identical afterwards. An
/// unsharded outcome of a tree before DESIGN.md §32, which still carried
/// `"placement_shortfalls": null`, is read: all three commands print and
/// write what they do for today's outcome of the same run.
#[test]
fn multi_pod_recordings_are_refused_and_left_untouched() {
    let dir = std::env::temp_dir().join(format!("cli_multi_pod_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let generated = cli(&dir, &["generate", "--out", "t.jsonl", "--workflows", "1"]);
    assert!(generated.status.success());
    let simulated = cli(
        &dir,
        &[
            "simulate",
            "--trace",
            "t.jsonl",
            "--scheduler",
            "edf",
            "--trace-out",
            "d.jsonl",
            "--outcome-out",
            "o.json",
        ],
    );
    assert!(simulated.status.success());
    let decisions = std::fs::read_to_string(dir.join("d.jsonl")).unwrap();
    let outcome = std::fs::read_to_string(dir.join("o.json")).unwrap();
    // The parent-shaped K = 2 artifacts, built from this run's own bytes.
    let (header, rest) = decisions.split_once('\n').unwrap();
    let stamped = format!(
        "{},\"pods\":2,\"pod\":1}}}}\n{rest}",
        &header[..header.len() - 2]
    );
    std::fs::write(dir.join("d2.jsonl"), &stamped).unwrap();
    let sharded = format!(
        "{{\"placement\":{{\"pods\":2,\"workflows\":[0],\"adhoc\":[]}},\"pods\":[{outcome},{outcome}]}}"
    );
    std::fs::write(dir.join("o2.json"), &sharded).unwrap();
    let (head, tail) = outcome.split_once("\n  \"solver_telemetry\"").unwrap();
    let with_shortfalls =
        format!("{head}\n  \"placement_shortfalls\": null,\n  \"solver_telemetry\"{tail}");
    std::fs::write(dir.join("o1.json"), &with_shortfalls).unwrap();
    let snapshot = |dir: &Path| {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    };
    let before = snapshot(&dir);
    for (decision_trace, outcome_file, names) in [
        ("d2.jsonl", "o.json", "header.pods"),
        ("d.jsonl", "o2.json", "`placement`"),
    ] {
        for (command, out) in [
            ("audit", None),
            ("explain", Some("e.json")),
            ("whatif", Some("w.json")),
        ] {
            let mut argv = vec![
                command,
                "--trace",
                "t.jsonl",
                "--decision-trace",
                decision_trace,
                "--outcome",
                outcome_file,
            ];
            argv.extend(out.iter().flat_map(|out| ["--out", *out]));
            let run = cli(&dir, &argv);
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert_eq!(run.status.code(), Some(1), "{argv:?}: {stderr}");
            assert_eq!(stderr.lines().count(), 1, "{argv:?}: {stderr}");
            assert!(stderr.contains(names), "{argv:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
            assert!(snapshot(&dir) == before, "{argv:?} changed or wrote a file");
        }
    }
    for (command, out) in [
        ("audit", None),
        ("explain", Some("e.json")),
        ("whatif", Some("w.json")),
    ] {
        let runs: Vec<(Output, Option<Vec<u8>>)> = ["o.json", "o1.json"]
            .into_iter()
            .map(|outcome_file| {
                let mut argv = vec![
                    command,
                    "--trace",
                    "t.jsonl",
                    "--decision-trace",
                    "d.jsonl",
                    "--outcome",
                    outcome_file,
                ];
                argv.extend(out.iter().flat_map(|out| ["--out", *out]));
                let run = cli(&dir, &argv);
                let stderr = String::from_utf8_lossy(&run.stderr);
                assert_eq!(run.status.code(), Some(0), "{argv:?}: {stderr}");
                (run, out.map(|out| std::fs::read(dir.join(out)).unwrap()))
            })
            .collect();
        assert_eq!(runs[0].0.stdout, runs[1].0.stdout, "{command}: stdout");
        assert!(runs[0].1 == runs[1].1, "{command}: written report differs");
    }
    std::fs::remove_dir_all(&dir).ok();
}
