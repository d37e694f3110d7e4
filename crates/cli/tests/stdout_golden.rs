//! What `flowtime-cli` prints, pinned: one scripted session through every
//! batch subcommand — `generate`, `simulate` (plain, and a chaos run
//! writing its decision trace and outcome), `compare`, `audit`,
//! `explain`, `whatif`, `decompose` and a two-cell `sweep` — with each
//! command's exit code and stdout, then the length and FNV-1a hash of every
//! file the session wrote. The one wall-clock field on stdout, the solver
//! summary's `replan wall … ms`, is masked.
//!
//! Regenerate after an intentional change with
//! `GOLDEN_REGEN=1 cargo test -p flowtime-cli --test stdout_golden`.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

const CHAOS: [&str; 10] = [
    "--fault-seed",
    "42",
    "--task-fail-rate",
    "0.3",
    "--node-crash",
    "0.4",
    "--node-crash-period",
    "30",
    "--straggler-rate",
    "0.2",
];

const RECORDED: [&str; 6] = [
    "--trace",
    "t.jsonl",
    "--decision-trace",
    "d.jsonl",
    "--outcome",
    "o.json",
];

/// `replan wall 1.234 ms` → `replan wall <wall> ms`.
fn mask_wall(stdout: &str) -> String {
    const KEY: &str = "replan wall ";
    let mut out = String::with_capacity(stdout.len());
    let mut rest = stdout;
    while let Some(at) = rest.find(KEY) {
        let value = at + KEY.len();
        let end = rest[value..].find(" ms").map_or(rest.len(), |e| value + e);
        out.push_str(&rest[..value]);
        out.push_str("<wall>");
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

/// Every regular file under `dir`, relative and sorted.
fn files(dir: &Path, prefix: &str, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("list dir") {
        let entry = entry.expect("dir entry");
        let name = format!("{prefix}{}", entry.file_name().to_string_lossy());
        if entry.file_type().expect("file type").is_dir() {
            files(&entry.path(), &format!("{name}/"), out);
        } else {
            out.push(name);
        }
    }
    out.sort();
}

#[test]
fn cli_stdout_and_artifacts_match_the_golden() {
    let dir = std::env::temp_dir().join(format!("cli_stdout_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let script: Vec<Vec<&str>> = vec![
        vec![
            "generate",
            "--out",
            "t.jsonl",
            "--workflows",
            "2",
            "--cores",
            "64",
            "--seed",
            "3",
        ],
        vec!["simulate", "--trace", "t.jsonl", "--out", "m.json"],
        [
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
            ][..],
            &CHAOS,
        ]
        .concat(),
        vec!["compare", "--trace", "t.jsonl"],
        [&["audit"][..], &RECORDED, &CHAOS].concat(),
        [&["explain"][..], &RECORDED, &CHAOS, &["--out", "e.json"]].concat(),
        [
            &["whatif"][..],
            &RECORDED,
            &CHAOS,
            &["--scheduler", "fifo", "--out", "w.json"],
        ]
        .concat(),
        vec!["decompose", "--trace", "t.jsonl"],
        vec![
            "sweep",
            "--workflows",
            "1",
            "--jobs",
            "4",
            "--adhoc-horizon",
            "20",
            "--seeds",
            "0..1",
            "--schedulers",
            "edf,fifo",
            "--scenarios",
            "clean",
            "--out",
            "golden-sweep",
        ],
    ];

    let mut transcript = String::new();
    for argv in &script {
        let out = Command::new(env!("CARGO_BIN_EXE_flowtime-cli"))
            .args(argv)
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
        let _ = writeln!(
            transcript,
            "$ flowtime-cli {}  [exit {}]",
            argv.join(" "),
            out.status.code().unwrap_or(-1)
        );
        transcript.push_str(&mask_wall(&String::from_utf8_lossy(&out.stdout)));
    }
    let mut written = Vec::new();
    files(&dir, "", &mut written);
    transcript.push_str("$ artifacts\n");
    for name in written {
        let bytes = std::fs::read(dir.join(&name)).expect("artifact reads");
        let _ = writeln!(
            transcript,
            "{name} {} bytes fnv1a={:016x}",
            bytes.len(),
            flowtime_daemon::framing::fnv1a(&bytes)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/stdout.txt");
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(golden.parent().expect("golden dir")).expect("golden dir");
        std::fs::write(&golden, &transcript).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&golden)
        .expect("golden file missing — regenerate with GOLDEN_REGEN=1");
    assert_eq!(
        transcript, expected,
        "flowtime-cli output diverged from tests/golden/stdout.txt; \
         if the change is intentional, regenerate with GOLDEN_REGEN=1"
    );
}
