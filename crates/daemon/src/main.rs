//! `flowtimed` — the FlowTime online-submission daemon.
//!
//! ```text
//! flowtimed [--listen ADDR] [--scheduler NAME] [--cores N] [--mem-mb N]
//!           [--slot-seconds F] [--max-slots N] [--trace-capacity N]
//!           [--pods K] [--snapshot-every N]
//!           [--wal-dir DIR] [--fsync always|batch:N|none]
//!           [--keep-snapshots N] [--chaos-kill-after N[:BYTES]]
//! ```
//!
//! With `--wal-dir DIR` the daemon is crash-consistent: every accepted
//! submission, cancel, tick, and drain is appended to a checksummed
//! write-ahead log (synced per `--fsync`) *before* its reply is written,
//! and startup recovers the session from the newest valid snapshot in
//! the directory plus a replay of the WAL tail — torn tails are
//! truncated at the last valid record and reported, never a panic.
//! Snapshots (periodic via `--snapshot-every`, or explicit `snapshot`
//! requests) become WAL compaction points; `--keep-snapshots` bounds the
//! retained generations. `--chaos-kill-after` is the kill-9 harness's
//! deterministic crash point: the process aborts during the Nth WAL
//! append, optionally after writing only BYTES bytes of it.
//!
//! The WAL directory is the one way a session persists. Without
//! `--wal-dir` nothing outlives the process: a `snapshot` request is
//! refused and `--snapshot-every` has nothing to write. All argument
//! errors are typed and exit nonzero; nothing defaults silently on
//! malformed input.

use flowtime::Args;
use flowtime_daemon::{serve, FsyncPolicy, Session, SessionConfig, WalConfig};
use flowtime_dag::ResourceVec;
use flowtime_sim::ClusterConfig;
use std::net::TcpListener;
use std::process::ExitCode;

/// The `--help` text, and through it the flags `flowtimed` knows
/// ([`Args::parse`]); all take a value.
const USAGE: &str = "flowtimed: FlowTime online-submission daemon\n\n\
     Options:\n  \
     --listen ADDR        listen address (default 127.0.0.1:7171)\n  \
     --scheduler NAME     flowtime|cora|edf|fair|fifo|morpheus (default flowtime)\n  \
     --cores N            cluster cores (default 64)\n  \
     --mem-mb N           cluster memory in MB (default 262144)\n  \
     --slot-seconds F     seconds per scheduling slot (default 10)\n  \
     --max-slots N        virtual-time horizon (default 100000)\n  \
     --trace-capacity N   decision-trace ring size (default 4096)\n  \
     --pods K             shard the cluster into K pods (default 1)\n  \
     --snapshot-every N   WAL snapshot every N requests (default 256, 0 disables)\n  \
     --wal-dir DIR        write-ahead log directory (crash-consistent mode)\n  \
     --fsync POLICY       always|batch:N|none (default always; needs --wal-dir)\n  \
     --keep-snapshots N   WAL snapshot generations to retain (default 2)\n  \
     --chaos-kill-after N[:BYTES]  abort during the Nth WAL append (chaos harness)";

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(());
    }
    let args = Args::parse(&argv, USAGE, &[], 0)?;

    let listen = args.get("listen").unwrap_or("127.0.0.1:7171");
    let config = SessionConfig {
        cluster: ClusterConfig::new(
            ResourceVec::new([
                args.get_parsed("cores", 64u64)?,
                args.get_parsed("mem-mb", 262_144u64)?,
            ]),
            args.get_parsed("slot-seconds", 10.0f64)?,
        ),
        scheduler: args.get("scheduler").unwrap_or("flowtime").to_string(),
        max_slots: args.get_parsed("max-slots", 100_000u64)?,
        trace_capacity: args.get_parsed("trace-capacity", 4096u64)?,
        snapshot_path: None,
        pods: args.get_parsed("pods", 0u64)?,
        placer: None,
    };
    let snapshot_every = match args.get_parsed("snapshot-every", 256u64)? {
        0 => None,
        n => Some(n),
    };

    let fsync: FsyncPolicy = args.get_parsed("fsync", FsyncPolicy::Always)?;
    let keep_snapshots = args.get_parsed("keep-snapshots", 2u64)?;
    if keep_snapshots == 0 {
        return Err("--keep-snapshots must be at least 1".to_string());
    }
    let chaos_kill = match args.get("chaos-kill-after") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|e: String| format!("--chaos-kill-after: {e}"))?,
        ),
    };
    for dependent in ["fsync", "keep-snapshots", "chaos-kill-after"] {
        if args.has(dependent) && !args.has("wal-dir") {
            return Err(format!("--{dependent} requires --wal-dir"));
        }
    }

    let session = match args.get("wal-dir") {
        Some(dir) => {
            let mut wal_config = WalConfig::new(dir);
            wal_config.fsync = fsync;
            wal_config.keep_snapshots = keep_snapshots;
            wal_config.chaos_kill = chaos_kill;
            let (session, report) = Session::recover(config, wal_config, None)
                .map_err(|e| format!("wal recovery failed: {e}"))?;
            if report.fresh {
                eprintln!("flowtimed: started fresh WAL in {dir} (fsync={fsync})");
            } else {
                eprintln!(
                    "flowtimed: recovered from {dir} at virtual slot {} ({} records replayed{}{})",
                    session.now(),
                    report.records_replayed,
                    match &report.snapshot {
                        Some(s) => format!(", snapshot {s}"),
                        None => String::new(),
                    },
                    match &report.tail {
                        Some(t) => format!(
                            ", torn tail truncated at segment {} offset {} ({} bytes dropped: {})",
                            t.segment, t.offset, t.dropped_bytes, t.defect
                        ),
                        None => String::new(),
                    },
                );
            }
            session
        }
        None => Session::new(config).map_err(|e| e.to_string())?,
    };

    let listener = TcpListener::bind(listen).map_err(|e| format!("cannot bind {listen}: {e}"))?;
    eprintln!(
        "flowtimed: listening on {}",
        listener.local_addr().map_err(|e| e.to_string())?
    );
    serve(listener, session, snapshot_every).map_err(|e| format!("server error: {e}"))?;
    eprintln!("flowtimed: shutdown requested, exiting");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("flowtimed: error: {e}");
            ExitCode::FAILURE
        }
    }
}
