//! The FlowTime-rs benchmark: five workloads, end-to-end metrics with
//! tracing off, per-layer metrics from a separate traced run.
//!
//! ```text
//! flowtime-benchmark run --workload <name> --seed <u64>
//!                        [--seconds <n>] [--trace 0|1 | --traced]
//!                        [--record <set.json>]
//! flowtime-benchmark compare <a.json> <b.json>
//! ```
//!
//! `run` makes the workload's inputs from the seed, runs it, checks the
//! outputs, prints every metric by name with its unit and, as the last
//! line of stdout, the result object the driver reads. Every count in a
//! workload is fixed for a given `--seconds`, so two sides of a
//! comparison do identical work. `compare` judges two sets of runs
//! against the bounds in `BENCHMARK.json`.

mod compare;
mod daemon;
mod gen;
mod layers;
mod loadgen;
mod report;
mod sim;
mod spans;
mod stats;

use report::{Metric, RunOutput, RUN_SECONDS};
use std::path::PathBuf;
use std::process::ExitCode;

/// A workload by name.
enum Workload {
    Sim(&'static sim::SimSpec),
    Daemon(&'static daemon::DaemonSpec),
}

const WORKLOADS: [Workload; 5] = [
    Workload::Sim(&sim::SIM_PLAN),
    Workload::Sim(&sim::SIM_SIMPLEX),
    Workload::Sim(&sim::SIM_ENGINE),
    Workload::Daemon(&daemon::DAEMON_WAL),
    Workload::Daemon(&daemon::DAEMON_MIXED),
];

impl Workload {
    fn name(&self) -> &'static str {
        match self {
            Workload::Sim(s) => s.name,
            Workload::Daemon(d) => d.name,
        }
    }
}

/// Runs one workload. `seconds` scales its counts against the nominal
/// [`RUN_SECONDS`].
fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<RunOutput, String> {
    let scale = seconds / RUN_SECONDS;
    let workload = WORKLOADS.iter().find(|w| w.name() == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(Workload::name).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })?;
    match workload {
        Workload::Sim(spec) => sim::run(&sim::scale_spec(spec, scale), seed, scale, traced),
        Workload::Daemon(spec) => {
            daemon::run(&daemon::scale_spec(spec, scale), seed, scale, traced)
        }
    }
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    record: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: String::new(),
        seed: 7,
        seconds: RUN_SECONDS,
        traced: false,
        record: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| "--seconds takes a positive number".to_string())?;
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--traced" => parsed.traced = true,
            "--record" => parsed.record = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    if !metrics.is_empty() {
        println!("{title}:");
    }
    for m in metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let args = parse_run(args)?;
    let out = run_workload(&args.workload, args.seed, args.seconds, args.traced)?;

    println!(
        "workload {} seed {} seconds {} traced {}",
        args.workload, args.seed, args.seconds, args.traced
    );
    print_metrics("end-to-end", &out.e2e);
    print_metrics("also measured (not gated)", &out.extra);
    print_metrics("per-layer", &out.layers);
    println!(
        "operations: attempted {} failed {} fail_ratio {:.6}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for failure in &out.failures {
        println!("FAILED CHECK: {failure}");
    }

    let results = report::bench_dir("results").map_err(|e| e.to_string())?;
    let record = report::run_record(
        &out,
        &args.workload,
        args.seed,
        args.seconds,
        args.traced,
        &report::bench_dir("out").map_err(|e| e.to_string())?,
    );
    let suffix = if args.traced { "-traced" } else { "" };
    let path = results.join(format!("{}{suffix}.json", args.workload));
    let text = serde_json::to_string_pretty(&record).expect("values serialize");
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(set) = &args.record {
        report::append_to_set(set, record)?;
    }

    println!("{}", report::result_line(&out, args.traced));
    Ok(out.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run_command(rest),
        Some((cmd, rest)) if cmd == "compare" => compare::command(rest),
        _ => Err(
            "usage: flowtime-benchmark run --workload <name> --seed <u64> \
                  [--seconds <n>] [--trace 0|1] [--record <set.json>]\n       \
                  flowtime-benchmark compare <a.json> <b.json>"
                .to_string(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("flowtime-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1/50-scale run of every workload, untraced and traced: each must
    /// pass its output checks and print every metric `BENCHMARK.json`
    /// declares exactly once. One test, because the daemon workloads
    /// share the work directory of this process.
    #[test]
    fn every_workload_prints_every_declared_metric_once() {
        let contract = report::read_contract().unwrap();
        let names: Vec<&str> = WORKLOADS.iter().map(Workload::name).collect();
        assert_eq!(contract.workloads, names);
        assert_eq!(contract.run_seconds, RUN_SECONDS);
        for name in names {
            for (traced, declared) in [(false, &contract.end_to_end), (true, &contract.per_layer)] {
                let out = run_workload(name, 7, RUN_SECONDS / 50.0, traced).unwrap();
                assert_eq!(out.failed, 0, "{name}: {:?}", out.failures);
                assert!(out.attempted >= 1);
                let printed = if traced { &out.layers } else { &out.e2e };
                for d in declared {
                    let hits: Vec<&Metric> = printed.iter().filter(|m| m.name == d.name).collect();
                    assert_eq!(
                        hits.len(),
                        1,
                        "{name}: `{}` printed {} times",
                        d.name,
                        hits.len()
                    );
                    assert_eq!(hits[0].unit, d.unit, "{name}: unit of `{}`", d.name);
                    assert!(hits[0].value.is_finite(), "{name}: `{}`", d.name);
                }
                assert_eq!(printed.len(), declared.len(), "{name}: undeclared metrics");
            }
        }
    }

    #[test]
    fn run_flags_parse() {
        let args: Vec<String> = "--workload sim-plan --seed 11 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let parsed = parse_run(&args).unwrap();
        assert_eq!(parsed.workload, "sim-plan");
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.traced),
            (11, 10.0, true)
        );
        assert!(parse_run(&["--seed".into()]).is_err());
        assert!(parse_run(&[
            "--workload".into(),
            "x".into(),
            "--trace".into(),
            "2".into()
        ])
        .is_err());
        assert!(parse_run(&["--seed".into(), "3".into()]).is_err());
    }
}
