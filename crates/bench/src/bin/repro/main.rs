//! `repro` — the one driver of the reproduction suite.
//!
//! ```text
//! repro <experiment> [args]      one experiment of the table below
//! repro all [--quick]            Fig. 1, 4, 5, 6, 7, the trace-driven
//!                                simulation, the ablations and the
//!                                robustness curve, in sequence, in this
//!                                process (quick mode trims run counts)
//! ```
//!
//! Every experiment is a `fn(&Args) -> Result<(), String>` in a module of
//! this binary and one row of [`EXPERIMENTS`], whose usage line names the
//! flags it knows: [`Args::parse`] refuses anything else before the
//! experiment starts. What an experiment prints and persists to `results/<name>.json`
//! is a function of its arguments alone — time is measured by the
//! standalone `benchmark/` crate, with the two exceptions the paper itself
//! makes (`fig6`, `fig7`).

mod ablation;
mod fig1;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fig_explain;
mod fig_recovery;
mod fig_shard;
mod robustness;
mod trace_sim;

use flowtime::Args;
use std::process::ExitCode;

/// One experiment: its entry point, its usage line — which is also the
/// set of flags its command line may carry — and how many positionals.
struct Experiment {
    name: &'static str,
    run: fn(&Args) -> Result<(), String>,
    usage: &'static str,
    positionals: usize,
}

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig1",
        run: fig1::run,
        usage: "",
        positionals: 0,
    },
    Experiment {
        name: "fig4",
        run: fig4::run,
        usage: "[seed] [--quick]",
        positionals: 1,
    },
    Experiment {
        name: "fig5",
        run: fig5::run,
        usage: "[seed] [--overrun 0.2]",
        positionals: 1,
    },
    Experiment {
        name: "fig6",
        run: fig6::run,
        usage: "[--runs 1000] [--warmup 100]",
        positionals: 0,
    },
    Experiment {
        name: "fig7",
        run: fig7::run,
        usage: "[--max-jobs 100] [--reps 5]",
        positionals: 0,
    },
    Experiment {
        name: "trace_sim",
        run: trace_sim::run,
        usage: "[seed] [--workflows 10] [--save trace.jsonl] [--load trace.jsonl] [--pods K]",
        positionals: 1,
    },
    Experiment {
        name: "ablation",
        run: ablation::run,
        usage: "[seed]",
        positionals: 1,
    },
    Experiment {
        name: "robustness",
        run: robustness::run,
        usage: "[seed] [fault-seeds] [threads]",
        positionals: 3,
    },
    Experiment {
        name: "fig_recovery",
        run: fig_recovery::run,
        usage: "[seed] [fault-seeds] [threads]",
        positionals: 3,
    },
    Experiment {
        name: "fig_shard",
        run: fig_shard::run,
        usage: "[--pods 1,2,4,8] [--workflows 8] [--jobs 12] [--adhoc-horizon 400]",
        positionals: 0,
    },
    Experiment {
        name: "fig_explain",
        run: fig_explain::run,
        usage: "[--threads 4] [--seeds 3] [--rates 0.1,0.3,0.5]",
        positionals: 0,
    },
    Experiment {
        name: "all",
        run: all,
        usage: "[--quick]",
        positionals: 0,
    },
];

/// Runs the suite `repro all` stands for, each experiment through the
/// same [`dispatch`] a single invocation takes.
fn all(args: &Args) -> Result<(), String> {
    let quick = args.has("quick");
    let suite: [(&str, &[&str]); 8] = [
        ("fig1", &[]),
        ("fig4", if quick { &["--quick"] } else { &[] }),
        ("fig5", &[]),
        (
            "fig6",
            if quick {
                &["--runs", "50", "--warmup", "5"]
            } else {
                &[]
            },
        ),
        (
            "fig7",
            if quick {
                &["--max-jobs", "40", "--reps", "2"]
            } else {
                &[]
            },
        ),
        ("trace_sim", if quick { &["--workflows", "4"] } else { &[] }),
        ("ablation", &[]),
        ("robustness", &[]),
    ];
    for (name, flags) in suite {
        println!(
            "\n================ {name} {} ================\n",
            flags.join(" ")
        );
        let argv: Vec<String> = [name].iter().chain(flags).map(|s| s.to_string()).collect();
        dispatch(&argv).map_err(|e| format!("{name}: {e}"))?;
    }
    println!("\nall experiments completed; JSON results in ./results/");
    Ok(())
}

fn usage() -> String {
    let mut out = String::from("repro — regenerate the FlowTime paper's evaluation\n\nUSAGE:\n");
    for e in EXPERIMENTS {
        out.push_str(&format!("  repro {:<13}{}\n", e.name, e.usage));
    }
    out
}

fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some((name, rest)) = argv.split_first() else {
        print!("{}", usage());
        return Ok(());
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        print!("{}", usage());
        return Ok(());
    }
    let experiment = EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("unknown experiment `{name}`\n\n{}", usage()))?;
    let args = Args::parse(rest, experiment.usage, &["quick"], experiment.positionals)?;
    (experiment.run)(&args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: error: {e}");
            ExitCode::FAILURE
        }
    }
}
