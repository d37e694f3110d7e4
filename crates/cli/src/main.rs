//! `flowtime-cli` — run FlowTime scheduling simulations from the command
//! line.
//!
//! ```text
//! flowtime-cli generate --out trace.jsonl [--workflows N] [--seed S] [--cores C]
//! flowtime-cli simulate --trace trace.jsonl --scheduler flowtime [--out metrics.json]
//! flowtime-cli compare  --trace trace.jsonl
//! flowtime-cli decompose --trace trace.jsonl [--index 0] [--slack 6]
//! ```

mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
