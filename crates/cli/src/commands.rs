//! CLI subcommands.

use flowtime::decompose::{decompose, slack::slacked_windows, DecomposeConfig};
use flowtime::{Algo, Args, FlowTimeConfig, RunOutput, RunSpec};
use flowtime_dag::ResourceVec;
use flowtime_sim::{
    ClusterConfig, DecisionTrace, FaultConfig, FaultPlan, Metrics, RecoveryPolicy, RecoverySetup,
    RuntimeFaultConfig, ShedPolicy, SimOutcome, DEFAULT_TRACE_CAPACITY,
};
use flowtime_workload::trace::{ProductionTraceConfig, Trace};
use serde::Serialize;
use std::error::Error;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};

type CliResult = Result<(), Box<dyn Error>>;

const USAGE: &str = "\
flowtime-cli — FlowTime scheduling simulations (ICDCS 2018 reproduction)

USAGE:
  flowtime-cli generate  --out <trace.jsonl> [--workflows N] [--seed S]
                         [--cores C] [--mem-mb M] [--looseness X]
  flowtime-cli simulate  --trace <trace.jsonl> --scheduler <name>
                         [--out metrics.json] [--outcome-out outcome.json]
                         [--trace-out decisions.jsonl] [--gantt]
                         [--no-plan-cache] [--pods K] [FAULTS]
  flowtime-cli compare   --trace <trace.jsonl> [--no-plan-cache] [FAULTS]
  flowtime-cli decompose --trace <trace.jsonl> [--index I] [--slack S]
  flowtime-cli audit     --trace <trace.jsonl> --decision-trace <d.jsonl>
                         --outcome <outcome.json> [FAULTS]
  flowtime-cli explain   --trace <trace.jsonl> --decision-trace <d.jsonl>
                         --outcome <outcome.json> [--out report.json] [FAULTS]
  flowtime-cli whatif    --trace <trace.jsonl> --decision-trace <d.jsonl>
                         --outcome <outcome.json> [--scheduler ALT]
                         [--alt-max-retries N] [--alt-retry-backoff B]
                         [--alt-shed-policy P] [--alt-pods K]
                         [--out diff.json] [FAULTS]
  flowtime-cli sweep     [--threads N] [--seeds A..B] [--schedulers a,b,..]
                         [--scenarios clean,mixed-faults,chaos:0.2]
                         [--jobs N] [--adhoc-horizon S] [--seed S]
                         [--workflows N] [--pods K]
                         [--out NAME] [--audit]
  flowtime-cli submit    --connect HOST:PORT
                         (--adhoc TASKS,DUR[,CORES,MB] [--arrival N]
                          | --workflow-json FILE)
                         [--request-id KEY] [--retries N]
  flowtime-cli status    --connect HOST:PORT
  flowtime-cli drain     --connect HOST:PORT [--out outcome.json]

SCHEDULERS: flowtime, flowtime-no-ds, edf, fifo, fair, cora, morpheus
            (case and separators are ignored: FlowTime_no_ds, CORA, ...)

DAEMON CLIENT (submit/status/drain talk to a running `flowtimed`):
  --connect HOST:PORT  daemon address (e.g. 127.0.0.1:7171)
  --adhoc SPEC         ad-hoc job as TASKS,DUR[,CORES,MB] (defaults 1,1024)
  --arrival N          virtual arrival slot for --adhoc (default: now)
  --workflow-json F    file holding one serialized WorkflowSubmission
  --request-id KEY     idempotency key: the daemon dedups resubmissions of
                       the same key (a `duplicate` reply is a success and
                       carries the original sequence number)
  --retries N          retry a submit N times on transport errors with
                       backoff, reconnecting each time (needs --request-id)

SHARDING (simulate and sweep; see DESIGN.md §15):
  --pods K           partition the cluster into K pods, each running its own
                     engine + scheduler over its slice of the workload; a
                     submission goes to the pod whose peak demand stays
                     lowest with it. K=1 is byte-identical to the unsharded
                     engine
  With --pods K>1, `simulate --trace-out d.jsonl` writes one trace per pod
  (d.jsonl.pod0, d.jsonl.pod1, ...). `audit` and `explain` read the pod
  provenance stamped in a sharded trace header, so --pods need not be
  re-stated (if given, it must agree with the header).

EXPLAIN / WHATIF (see DESIGN.md §16):
  `explain` diagnoses every missed workflow of a certified run: a typed
  E00x causal chain whose slack figures balance exactly against the
  auditor's independent MissAttribution recount. `whatif` replays the
  recorded scenario under a modified policy and emits a certified
  two-sided diff (both sides audited; identical policies must no-op).
  --scheduler ALT        the alt-side scheduler (default: the recorded one)
  --alt-max-retries N    alt-side retry budget override
  --alt-retry-backoff B  alt-side backoff base override
  --alt-shed-policy P    alt-side admission policy: none | shed | delay:N
  --alt-pods K           run the alt side sharded into K pods
  The slack-factor axis is the scheduler choice itself (flowtime vs
  flowtime-no-ds). FAULTS/RECOVERY flags describe the recorded base run.

FAULTS (deterministic injection, all derived from one seed):
  --fault-seed S     enable fault injection with seed S
  --misestimate X    log-normal sigma of actual/estimated runtime (default 0)
  --churn X          fraction of capacity removed in churn windows (default 0)
  --bursts N         extra ad-hoc jobs injected in bursts (default 0)
  --submit-delay D   max workflow submission delay in slots (default 0)

RECOVERY (mid-run failures + retry policy; also need --fault-seed):
  --task-fail-rate X     probability a task attempt fails mid-run (default 0)
  --node-crash X         severity of node-crash capacity loss (default 0)
  --node-crash-period P  slots between crash windows (default 120)
  --straggler-rate X     fraction of first attempts inflated (default 0)
  --straggler-factor F   extra-work factor for stragglers (default 0.5)
  --max-retries N        kills tolerated per job before giving up (default 3)
  --retry-backoff B      backoff base in slots between attempts (default 1)
  --shed-policy P        overload admission: none | shed | delay:N
  --overload-factor X    ad-hoc backlog per core that counts as overload
  --overload-sustain S   slots of sustained overload before shedding
";

/// The flags of [`USAGE`] that take no value.
const SWITCHES: &[&str] = &["gantt", "no-plan-cache", "audit"];

/// Dispatches a command line: the subcommand comes first; its flags must
/// be ones [`USAGE`] names ([`Args::parse`] refuses the rest before any
/// subcommand runs).
pub fn dispatch(argv: &[String]) -> CliResult {
    let Some((command, rest)) = argv.split_first() else {
        print!("{USAGE}");
        return Ok(());
    };
    let args = Args::parse(rest, USAGE, SWITCHES, 0)?;
    match command.as_str() {
        "generate" => generate(&args),
        "simulate" => simulate(&args),
        "compare" => compare(&args),
        "decompose" => decompose_cmd(&args),
        "audit" => audit_cmd(&args),
        "explain" => explain_cmd(&args),
        "whatif" => whatif_cmd(&args),
        "sweep" => sweep_cmd(&args),
        "submit" => daemon_submit(&args),
        "status" => daemon_status(&args),
        "drain" => daemon_drain(&args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}").into()),
    }
}

fn load_trace(args: &Args) -> Result<Trace, Box<dyn Error>> {
    let path = args.get("trace").ok_or("--trace <file> is required")?;
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    Ok(Trace::read_jsonl(BufReader::new(file))?)
}

/// The scenario every simulating subcommand runs or verifies against:
/// `--trace` with the decomposer's per-job milestones attached, then the
/// FAULTS flags applied.
fn load_scenario(args: &Args) -> Result<Trace, Box<dyn Error>> {
    let mut trace = load_trace(args)?;
    let cfg = DecomposeConfig::new(trace.cluster.capacity());
    for sub in &mut trace.workload.workflows {
        if sub.job_deadlines.is_none() {
            if let Ok(d) = decompose(&sub.workflow, &cfg) {
                sub.job_deadlines = Some(d.job_deadlines());
            }
        }
    }
    apply_faults(args, &mut trace)?;
    Ok(trace)
}

/// Resolves a scheduler name through the registry; every subcommand, the
/// daemon and the sweep accept exactly the spellings [`Algo::parse`] does.
fn parse_algo(name: &str) -> Result<Algo, Box<dyn Error>> {
    Algo::parse(name).ok_or_else(|| format!("unknown scheduler `{name}`").into())
}

/// Flags of the runtime failure/recovery family ([`recovery_setup`]).
const RECOVERY_KEYS: [&str; 10] = [
    "task-fail-rate",
    "node-crash",
    "node-crash-period",
    "straggler-rate",
    "straggler-factor",
    "max-retries",
    "retry-backoff",
    "shed-policy",
    "overload-factor",
    "overload-sustain",
];

/// Applies the `--fault-seed` family of flags to a loaded trace, in place.
/// No-op unless `--fault-seed` is present.
fn apply_faults(args: &Args, trace: &mut Trace) -> CliResult {
    if !args.has("fault-seed") {
        for key in ["misestimate", "churn", "bursts", "submit-delay"]
            .iter()
            .chain(RECOVERY_KEYS.iter())
        {
            if args.has(key) {
                return Err(format!("--{key} requires --fault-seed <S>").into());
            }
        }
        return Ok(());
    }
    let config = FaultConfig::none(args.get_parsed("fault-seed", 0u64)?)
        .with_misestimate(args.get_parsed("misestimate", 0.0f64)?)
        .with_static_churn(args.get_parsed("churn", 0.0f64)?)
        .with_bursts(args.get_parsed("bursts", 0usize)?)
        .with_submit_delay(args.get_parsed("submit-delay", 0u64)?);
    // Bound churn/bursts by the busy part of the trace, not the engine's
    // safety horizon.
    let horizon = trace
        .workload
        .workflows
        .iter()
        .map(|w| w.workflow.deadline_slot())
        .chain(trace.workload.adhoc.iter().map(|a| a.arrival_slot + 1))
        .max()
        .unwrap_or(0);
    let mut cluster = trace.cluster.clone();
    FaultPlan::new(config).apply(&mut trace.workload, &mut cluster, horizon);
    trace.cluster = cluster;
    Ok(())
}

/// Parses a `--shed-policy` value: `none`, `shed`, or `delay:N`.
fn parse_shed_policy(raw: &str) -> Result<ShedPolicy, Box<dyn Error>> {
    match raw {
        "none" => Ok(ShedPolicy::None),
        "shed" => Ok(ShedPolicy::Shed),
        other => match other.strip_prefix("delay:") {
            Some(n) => Ok(ShedPolicy::Delay {
                slots: n
                    .parse()
                    .map_err(|_| format!("--shed-policy delay wants slots, got `{n}`"))?,
            }),
            None => {
                Err(format!("--shed-policy must be none, shed, or delay:N, got `{raw}`").into())
            }
        },
    }
}

/// Builds the runtime failure/recovery setup from the RECOVERY flag family.
/// Returns `None` when no recovery flag is present, so runs without the
/// flags attach no recovery layer at all and stay byte-identical to
/// pre-recovery builds. `apply_faults` has already verified `--fault-seed`
/// accompanies any of these flags.
fn recovery_setup(args: &Args) -> Result<Option<RecoverySetup>, Box<dyn Error>> {
    if !RECOVERY_KEYS.iter().any(|k| args.has(k)) {
        return Ok(None);
    }
    let seed = args.get_parsed("fault-seed", 0u64)?;
    let mut faults = RuntimeFaultConfig::none(seed)
        .with_task_failures(args.get_parsed("task-fail-rate", 0.0f64)?)
        .with_crashes(args.get_parsed("node-crash", 0.0f64)?);
    if args.has("node-crash-period") {
        faults = faults.with_crash_period(args.get_parsed("node-crash-period", 120u64)?);
    }
    if args.has("straggler-rate") || args.has("straggler-factor") {
        faults = faults.with_stragglers(
            args.get_parsed("straggler-rate", 0.0f64)?,
            args.get_parsed("straggler-factor", 0.5f64)?,
        );
    }
    let mut policy = RecoveryPolicy::default()
        .with_max_retries(args.get_parsed("max-retries", 3u32)?)
        .with_backoff(args.get_parsed("retry-backoff", 1u64)?)
        .with_shed(parse_shed_policy(
            args.get("shed-policy").unwrap_or("none"),
        )?);
    if args.has("overload-factor") || args.has("overload-sustain") {
        policy = policy.with_overload(
            args.get_parsed("overload-factor", 4.0f64)?,
            args.get_parsed("overload-sustain", 10u64)?,
        );
    }
    Ok(Some(RecoverySetup::new(faults, policy)))
}

/// Slot horizon of every CLI run.
const MAX_SLOTS: u64 = 10_000_000;

/// Parses the flags that describe a run — `--scheduler` (falling back to
/// `default_scheduler`), `--no-plan-cache`, the RECOVERY family and
/// `--pods` — into the [`RunSpec`] every simulating
/// subcommand hands to [`flowtime::run`]. Parsed once per invocation;
/// subcommands adjust the fields they own (tracing, timeline, the what-if
/// alt side). Pods run on one worker thread each.
fn run_spec(args: &Args, default_scheduler: &str) -> Result<RunSpec, Box<dyn Error>> {
    let algo = parse_algo(args.get("scheduler").unwrap_or(default_scheduler))?;
    let pods = args.pods("pods")?;
    Ok(RunSpec {
        flowtime: FlowTimeConfig {
            plan_cache: !args.has("no-plan-cache"),
            ..Default::default()
        },
        max_slots: MAX_SLOTS,
        recovery: recovery_setup(args)?,
        threads: pods,
        pods,
        ..RunSpec::new(algo)
    })
}

fn recovery_line(outcome: &SimOutcome) -> Option<String> {
    let r = &outcome.recovery;
    if r.is_inert() && outcome.shed.is_empty() {
        return None;
    }
    Some(format!(
        "task-fails {}  crash-kills {}  retries {}  wasted {}  stragglers {} (+{})  shed {}  delayed {}  infeasible {}",
        r.task_failures,
        r.crash_kills,
        r.retries,
        r.wasted_work,
        r.stragglers,
        r.straggler_extra_work,
        r.shed_jobs,
        r.delayed_jobs,
        r.infeasible_flags,
    ))
}

/// Prints one pod's metrics row, the line `simulate` and `compare` share.
fn print_summary(name: &str, pod: usize, sharded: bool, m: &Metrics) {
    println!(
        "{:<16} jobs {:>4}  misses {:>3}  wf-misses {:>2}  adhoc-tat {:>8.1}s  util {:.3}",
        pod_label(name, pod, sharded),
        m.completed_jobs(),
        m.job_deadline_misses(),
        m.workflow_deadline_misses(),
        m.avg_adhoc_turnaround_seconds().unwrap_or(0.0),
        m.avg_peak_utilization(),
    );
}

/// Prints why an uncertified run was rejected, one violation a line.
fn print_violations(violations: &[impl std::fmt::Display]) {
    for v in violations {
        eprintln!("  {v}");
    }
}

/// Writes one JSON artifact, pretty-printed, and says where.
fn write_json<T: Serialize + ?Sized>(path: &str, value: &T, what: &str) -> CliResult {
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut out = BufWriter::new(file);
    serde_json::to_writer_pretty(&mut out, value)?;
    out.flush()?;
    println!("{what} written to {path}");
    Ok(())
}

fn generate(args: &Args) -> CliResult {
    let out = args.get("out").ok_or("--out <file> is required")?;
    let cores = args.get_parsed("cores", 160u64)?;
    let mem = args.get_parsed("mem-mb", cores * 4096)?;
    let cluster = ClusterConfig::new(ResourceVec::new([cores, mem]), 10.0);
    let config = ProductionTraceConfig {
        workflows: args.get_parsed("workflows", 10usize)?,
        looseness: args.get_parsed("looseness", 6.0f64)?,
        ..Default::default()
    };
    let trace = Trace::synthesize_production(cluster, &config, args.get_parsed("seed", 7u64)?);
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    trace.write_jsonl(BufWriter::new(file))?;
    println!(
        "wrote {}: {} workflows / {} deadline jobs / {} ad-hoc jobs",
        out,
        trace.workload.workflows.len(),
        trace
            .workload
            .workflows
            .iter()
            .map(|w| w.workflow.len())
            .sum::<usize>(),
        trace.workload.adhoc.len()
    );
    Ok(())
}

/// Labels a per-pod output row: the bare label for an unsharded run,
/// `label[pod i]` when `--pods` was given.
fn pod_label(label: &str, pod: usize, sharded: bool) -> String {
    if sharded {
        format!("{label}[pod {pod}]")
    } else {
        label.to_string()
    }
}

fn write_decisions(path: &str, decisions: &DecisionTrace) -> CliResult {
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    decisions.write_jsonl(BufWriter::new(file))?;
    println!(
        "decision trace ({} events) written to {path}",
        decisions.recorded()
    );
    Ok(())
}

/// Runs one scheduler over the trace. Without `--pods` this is the one-pod
/// run, recorded and audited only when `--trace-out` asks for the trace.
/// `--pods K` partitions the cluster, places the workload, runs one engine
/// per pod (each scheduler gets its own pod-sized cluster and plan cache),
/// and always self-audits through the sharded certifier's cross-pod +
/// per-pod checks. With one pod the artifacts are byte-identical either
/// way (CI diffs `--pods 1` against a plain `simulate`); with several
/// pods the outcome file holds the full [`flowtime_sim::ShardedOutcome`],
/// `--trace-out d.jsonl` writes one trace per pod (`d.jsonl.pod0`,
/// `d.jsonl.pod1`, ...; each header carries its pod provenance, so
/// `audit`/`explain` need no `--pods` re-statement), and per-pod
/// timelines / metrics are not merged, so `--gantt` and `--out` are
/// errors.
fn simulate(args: &Args) -> CliResult {
    let trace = load_scenario(args)?;
    let mut spec = run_spec(args, "flowtime")?;
    let sharded = args.has("pods");
    if sharded && args.has("gantt") {
        return Err(
            "--gantt is not supported with --pods (per-pod timelines are not merged)".into(),
        );
    }
    if spec.pods > 1 && args.has("out") {
        return Err(
            "--out (metrics) needs --pods 1; use --outcome-out for the full sharded outcome".into(),
        );
    }
    spec.timeline = args.has("gantt");
    if sharded || args.has("trace-out") {
        spec.trace_capacity = Some(DEFAULT_TRACE_CAPACITY);
    }
    let RunOutput { outcome, traces } = flowtime::run(&spec, &trace.cluster, &trace.workload)?;
    if sharded {
        println!("{:<16} {} pod(s)", "shard", outcome.placement.pods);
    }
    if let Some(trace_out) = args.get("trace-out") {
        match traces.as_slice() {
            [decisions] => write_decisions(trace_out, decisions)?,
            _ => {
                for (i, decisions) in traces.iter().enumerate() {
                    write_decisions(&format!("{trace_out}.pod{i}"), decisions)?;
                }
            }
        }
    }
    if spec.trace_capacity.is_some() {
        // Self-check: the auditor must certify the run it just watched.
        let report = flowtime_sim::certify_sharded(
            &trace.cluster,
            &trace.workload,
            spec.pods,
            &outcome,
            &traces,
            spec.recovery.as_ref(),
        );
        println!("{:<16} {}", "audit", report.summary());
        if !report.is_certified() {
            print_violations(&report.violations);
            return Err("auditor rejected the traced run (engine bug?)".into());
        }
    }
    for (i, pod) in outcome.pods.iter().enumerate() {
        if let Some(line) = recovery_line(pod) {
            println!("{:<16} {}", pod_label("recovery", i, sharded), line);
        }
    }
    if let Some(out) = args.get("outcome-out") {
        match outcome.pods.as_slice() {
            [pod] => write_json(out, pod, "full outcome")?,
            _ => write_json(out, &outcome, "full outcome")?,
        }
    }
    for (i, pod) in outcome.pods.iter().enumerate() {
        print_summary(spec.algo.name(), i, sharded, &pod.metrics);
        if let Some(t) = &pod.solver_telemetry {
            println!("{:<16} {}", pod_label("solver", i, sharded), t.summary());
        }
        if let Some(tl) = &pod.timeline {
            print!(
                "{}",
                flowtime_sim::timeline::render_gantt(tl, Some(&pod.metrics), 100)
            );
        }
    }
    if outcome.pods.len() > 1 {
        println!(
            "{:<16} jobs {:>4}  misses {:>3}  wf-misses {:>2}  slots {:>5}",
            "total",
            outcome.completed_jobs(),
            outcome.job_deadline_misses(),
            outcome.workflow_deadline_misses(),
            outcome.slots_elapsed(),
        );
    }
    if let Some(out) = args.get("out") {
        write_json(out, &outcome.pods[0].metrics, "full metrics")?;
    }
    Ok(())
}

/// A recorded run — `--decision-trace` and `--outcome` — with the run its
/// flags describe (the scheduler defaulting to the recorded one) and the
/// scenario it must be verified against: the whole scenario for an
/// unsharded (or K=1) trace, the trace's own pod slice when its header
/// carries a shard provenance stamp. The stamp makes `--pods` redundant on
/// `audit`/`explain`; if given anyway it must agree with the header. The
/// outcome file of a pod may hold its own [`SimOutcome`] or the full
/// [`flowtime_sim::ShardedOutcome`] `simulate --pods K` writes.
struct Recorded {
    scenario: Trace,
    decisions: DecisionTrace,
    outcome: SimOutcome,
    spec: RunSpec,
    /// `(pod, pods)` when the trace is one pod's of a sharded run.
    pod: Option<(usize, usize)>,
}

/// Loads a [`Recorded`] run the way `audit`, `explain` and `whatif` read
/// it: the scenario re-derived exactly as `simulate` derives it (so pass
/// the FAULTS that produced the run), then the recorded artifacts.
fn load_recorded(args: &Args) -> Result<Recorded, Box<dyn Error>> {
    let mut scenario = load_scenario(args)?;
    let dpath = args
        .get("decision-trace")
        .ok_or("--decision-trace <file> is required")?;
    let file = File::open(dpath).map_err(|e| format!("cannot open {dpath}: {e}"))?;
    let decisions = DecisionTrace::read_jsonl(BufReader::new(file))
        .map_err(|e| format!("malformed decision trace {dpath}: {e}"))?;
    let spec = run_spec(args, &decisions.header.scheduler)?;
    let header = &decisions.header;
    let (pod, pods) = (header.pod as usize, header.pods as usize);
    if pods <= 1 && spec.pods > 1 {
        return Err(format!(
            "--pods {} given, but the decision trace is from an unsharded (or K=1) run",
            spec.pods
        )
        .into());
    }
    if pods > 1 {
        if args.has("pods") && spec.pods != pods {
            return Err(format!(
                "--pods {} disagrees with the trace header (pods={pods})",
                spec.pods
            )
            .into());
        }
        let placement = flowtime_sim::place(&scenario.cluster, &scenario.workload, pods);
        let mut workloads = placement.pod_workloads(&scenario.workload)?;
        if pod >= workloads.len() {
            return Err(
                format!("trace header claims pod {pod} of {pods}, placement disagrees").into(),
            );
        }
        scenario = Trace {
            cluster: flowtime_sim::pod_cluster(&scenario.cluster, pods, pod),
            workload: workloads.swap_remove(pod),
        };
    }
    let opath = args.get("outcome").ok_or("--outcome <file> is required")?;
    let raw = std::fs::read_to_string(opath).map_err(|e| format!("cannot open {opath}: {e}"))?;
    let value = serde_json::parse(&raw).map_err(|e| format!("malformed outcome {opath}: {e}"))?;
    let outcome = if pods > 1 && value.get("placement").is_some() {
        let sharded: flowtime_sim::ShardedOutcome = serde_json::from_value(&value)
            .map_err(|e| format!("malformed sharded outcome {opath}: {e}"))?;
        (sharded.pods.into_iter().nth(pod))
            .ok_or_else(|| format!("{opath} holds a sharded outcome without pod {pod}"))?
    } else {
        serde_json::from_value(&value).map_err(|e| format!("malformed outcome {opath}: {e}"))?
    };
    Ok(Recorded {
        scenario,
        decisions,
        outcome,
        spec,
        pod: (pods > 1).then_some((pod, pods)),
    })
}

/// Offline certification: replays a decision trace against the scenario it
/// claims to describe and the outcome the engine reported, sharing no state
/// with the engine ([`load_recorded`]). Traces recorded by sharded runs are
/// verified against their own pod slice.
fn audit_cmd(args: &Args) -> CliResult {
    let run = load_recorded(args)?;
    if let Some((pod, pods)) = run.pod {
        println!(
            "{:<16} verifying pod {pod} of {pods} against its own slice",
            "shard"
        );
    }
    let report = flowtime_sim::certify_with_recovery(
        &run.scenario.cluster,
        &run.scenario.workload,
        &run.outcome,
        &run.decisions,
        run.spec.recovery.as_ref(),
    );
    println!("{}", report.summary());
    if !report.is_certified() {
        print_violations(&report.violations);
        return Err(format!("audit failed with {} violation(s)", report.violations.len()).into());
    }
    for a in &report.attribution {
        if a.missed() {
            let top = a
                .top_culprit()
                .map(|c| format!("{} node {} (+{} slots)", c.job, c.node, c.overrun_slots))
                .unwrap_or_else(|| "no single culprit".into());
            println!(
                "  {} missed by {} slot(s): dominant slack consumer {top}",
                a.workflow,
                a.completion_slot - a.deadline_slot
            );
        }
    }
    Ok(())
}

/// Diagnoses every missed workflow of a certified recorded run: the E00x
/// causal chains of `flowtime_sim::explain`, cross-checked against the
/// auditor's independent MissAttribution recount. Refuses uncertifiable
/// runs with a nonzero exit.
fn explain_cmd(args: &Args) -> CliResult {
    let run = load_recorded(args)?;
    let report = flowtime_sim::explain(
        &run.scenario.cluster,
        &run.scenario.workload,
        &run.outcome,
        &run.decisions,
        run.spec.recovery.as_ref(),
    )
    .map_err(|e| {
        if let flowtime_sim::ExplainError::Uncertified { violations, .. } = &e {
            print_violations(violations);
        }
        format!("{e}")
    })?;
    println!(
        "{:<16} {} event(s) checked; {} missed workflow(s), {} with a complete causal chain, {} diagnostic(s)",
        report.scheduler,
        report.events_checked,
        report.missed_workflows(),
        report.complete_chains(),
        report.diagnostics(),
    );
    for wf in &report.workflows {
        println!(
            "  {} missed by {} slot(s) (deadline {}, completed {}), {} slack slot(s) attributed{}",
            wf.workflow,
            wf.miss_slots,
            wf.deadline_slot,
            wf.completion_slot,
            wf.total_overrun_slots,
            if wf.complete {
                ""
            } else {
                " [incomplete chain]"
            },
        );
        for d in &wf.chain {
            let anchor = match (d.job, d.node) {
                (Some(job), Some(node)) => format!("{job} node {node} "),
                _ => String::new(),
            };
            let slack = if d.slack_slots > 0 {
                format!(" (+{} slack)", d.slack_slots)
            } else {
                String::new()
            };
            println!(
                "    {} {}slot {}{}: {}",
                d.code, anchor, d.slot, slack, d.detail
            );
        }
    }
    if let Some(out) = args.get("out") {
        write_json(out, &report, "explain report")?;
    }
    Ok(())
}

/// Alt-side recovery policy: the base setup with the `--alt-*` overrides
/// applied. With no override flags the alt side inherits the base setup
/// unchanged (so a bare `whatif` is an identical-policy no-op check).
fn alt_recovery_setup(
    args: &Args,
    base: Option<&RecoverySetup>,
) -> Result<Option<RecoverySetup>, Box<dyn Error>> {
    const ALT_KEYS: [&str; 3] = ["alt-max-retries", "alt-retry-backoff", "alt-shed-policy"];
    if !ALT_KEYS.iter().any(|k| args.has(k)) {
        return Ok(base.cloned());
    }
    let mut setup = base.cloned().unwrap_or_else(|| {
        RecoverySetup::new(RuntimeFaultConfig::none(0), RecoveryPolicy::default())
    });
    if args.has("alt-max-retries") {
        setup.policy = setup
            .policy
            .clone()
            .with_max_retries(args.get_parsed("alt-max-retries", 3u32)?);
    }
    if args.has("alt-retry-backoff") {
        setup.policy = setup
            .policy
            .clone()
            .with_backoff(args.get_parsed("alt-retry-backoff", 1u64)?);
    }
    if let Some(raw) = args.get("alt-shed-policy") {
        setup.policy = setup.policy.clone().with_shed(parse_shed_policy(raw)?);
    }
    Ok(Some(setup))
}

/// Counterfactual replay: takes the recorded base run (decision trace +
/// outcome) and re-runs the same scenario under a modified policy, then
/// emits the certified two-sided diff of `flowtime_sim::whatif`. Both
/// sides must certify — an uncertifiable diff is a nonzero exit.
fn whatif_cmd(args: &Args) -> CliResult {
    // `--scheduler` names the alt side and defaults to the recorded
    // scheduler: the trace header carries its display name ("EDF"), which
    // the registry parses as is. A recording made with flowtime-no-ds
    // replays as plain flowtime unless the variant is re-stated. The
    // RECOVERY flags describe the recorded base run.
    let Recorded {
        scenario: trace,
        decisions,
        outcome,
        spec,
        pod,
    } = load_recorded(args)?;
    if pod.is_some() {
        return Err(
            "whatif wants an unsharded base recording; re-record with --pods 1 (sharded \
             alternatives go on the alt side via --alt-pods)"
                .into(),
        );
    }
    let base_recovery = spec.recovery.clone();
    let alt_pods = args.pods("alt-pods")?;
    let alt_spec = RunSpec {
        recovery: alt_recovery_setup(args, base_recovery.as_ref())?,
        threads: alt_pods,
        pods: alt_pods,
        trace_capacity: Some(DEFAULT_TRACE_CAPACITY),
        ..spec
    };
    let mut alt = flowtime::run(&alt_spec, &trace.cluster, &trace.workload)?;
    let diff = if args.has("alt-pods") {
        // Sharded alternatives diff at workflow granularity. The recorded
        // unsharded base is the one-pod case of the same run path, so it
        // slots into the sharded differ as a one-pod side.
        let base = flowtime_sim::ShardedRunArtifacts {
            outcome: flowtime_sim::ShardedOutcome {
                placement: flowtime_sim::place(&trace.cluster, &trace.workload, 1),
                pods: vec![outcome],
            },
            traces: vec![decisions],
        };
        flowtime_sim::certified_sharded_diff(
            &trace.cluster,
            &trace.workload,
            &base,
            1,
            base_recovery.as_ref(),
            &flowtime_sim::ShardedRunArtifacts {
                outcome: alt.outcome,
                traces: alt.traces,
            },
            alt_pods,
            alt_spec.recovery.as_ref(),
        )
    } else {
        let (Some(alt_outcome), Some(alt_trace)) = (alt.outcome.pods.pop(), alt.traces.pop())
        else {
            return Err("the traced one-pod alt run returned no outcome or no trace".into());
        };
        flowtime_sim::certified_diff(
            &trace.cluster,
            &trace.workload,
            &flowtime_sim::RunArtifacts {
                outcome,
                trace: decisions,
            },
            base_recovery.as_ref(),
            &flowtime_sim::RunArtifacts {
                outcome: alt_outcome,
                trace: alt_trace,
            },
            alt_spec.recovery.as_ref(),
        )
    }
    .map_err(|e| {
        let flowtime_sim::WhatIfError::Uncertified { violations, .. } = &e;
        print_violations(violations);
        format!("{e}")
    })?;

    println!(
        "whatif: base `{}` vs alt `{}` — {}",
        diff.base_policy,
        diff.alt_policy,
        if diff.identical {
            "identical (empty diff)".to_string()
        } else {
            format!(
                "{} job row(s), {} workflow row(s)",
                diff.jobs.len(),
                diff.workflows.len()
            )
        }
    );
    let s = &diff.summary;
    println!(
        "  job-misses {} -> {}  wf-misses {} -> {}  slots {} -> {}  overrun {} -> {}",
        s.base_job_misses,
        s.alt_job_misses,
        s.base_workflow_misses,
        s.alt_workflow_misses,
        s.base_slots_elapsed,
        s.alt_slots_elapsed,
        s.base_overrun_slots,
        s.alt_overrun_slots,
    );
    if let Some(d) = &diff.first_divergence {
        println!(
            "  first divergence at event {} (slot {}): {} vs {}",
            d.index,
            d.slot,
            d.base_event.as_deref().unwrap_or("<end>"),
            d.alt_event.as_deref().unwrap_or("<end>"),
        );
    }
    for row in diff.jobs.iter().take(10) {
        println!(
            "  {}: completion {:?} -> {:?}  missed {} -> {}{}",
            row.job,
            row.base.completion_slot,
            row.alt.completion_slot,
            row.base.missed_deadline,
            row.alt.missed_deadline,
            row.diverged
                .as_ref()
                .map(|d| format!("  (diverged at its event {} slot {})", d.index, d.slot))
                .unwrap_or_default(),
        );
    }
    if diff.jobs.len() > 10 {
        println!("  ... {} more job row(s)", diff.jobs.len() - 10);
    }
    for row in &diff.workflows {
        println!(
            "  {}: completion {:?} -> {:?}  missed {} -> {}",
            row.workflow, row.base_completion, row.alt_completion, row.base_missed, row.alt_missed,
        );
    }
    if let Some(out) = args.get("out") {
        write_json(out, &diff, "whatif diff")?;
    }
    Ok(())
}

fn compare(args: &Args) -> CliResult {
    let trace = load_scenario(args)?;
    let spec = run_spec(args, "flowtime")?;
    let sharded = args.has("pods");
    for algo in Algo::FIG4 {
        let run = flowtime::run(
            &RunSpec {
                algo,
                ..spec.clone()
            },
            &trace.cluster,
            &trace.workload,
        )?;
        for (i, pod) in run.outcome.pods.iter().enumerate() {
            print_summary(algo.name(), i, sharded, &pod.metrics);
            if let Some(line) = recovery_line(pod) {
                println!("{:<16} {}", "", line);
            }
            if let Some(t) = &pod.solver_telemetry {
                println!("{:<16} {}", "", t.summary());
            }
        }
    }
    Ok(())
}

/// Parses a Rust-style half-open seed range `A..B`.
fn parse_seed_range(raw: &str) -> Result<Vec<u64>, Box<dyn Error>> {
    let (a, b) = raw
        .split_once("..")
        .ok_or_else(|| format!("--seeds expects `A..B`, got `{raw}`"))?;
    let a: u64 = a
        .trim()
        .parse()
        .map_err(|_| format!("--seeds start `{a}` is not a number"))?;
    let b: u64 = b
        .trim()
        .parse()
        .map_err(|_| format!("--seeds end `{b}` is not a number"))?;
    if a >= b {
        return Err(format!("--seeds range `{raw}` is empty").into());
    }
    Ok((a..b).collect())
}

fn sweep_cmd(args: &Args) -> CliResult {
    use flowtime_bench::sweep::{SweepScenario, SweepSpec};

    let threads = args.get_parsed("threads", 1usize)?.max(1);
    let pods = args.pods("pods")?;
    let fault_seeds = parse_seed_range(args.get("seeds").unwrap_or("0..4"))?;
    let schedulers = match args.list::<String>("schedulers")? {
        None => Algo::FIG4.to_vec(),
        Some(names) => names
            .iter()
            .map(|name| parse_algo(name))
            .collect::<Result<Vec<_>, Box<dyn Error>>>()?,
    };
    let scenarios = match args.list::<String>("scenarios")? {
        None => vec![SweepScenario::mixed_faults()],
        Some(names) => names
            .iter()
            .map(|name| match name.as_str() {
                "clean" => Ok(SweepScenario::clean()),
                "mixed" | "mixed-faults" => Ok(SweepScenario::mixed_faults()),
                // `chaos:R` = mid-run task failures at rate R (plus crashes
                // and stragglers), recovered by the retry policy.
                other => match other.strip_prefix("chaos:").or(if other == "chaos" {
                    Some("0.2")
                } else {
                    None
                }) {
                    Some(rate) => {
                        let rate: f64 = rate
                            .parse()
                            .map_err(|_| format!("chaos wants a failure rate, got `{rate}`"))?;
                        Ok(SweepScenario::chaos(rate))
                    }
                    None => Err(format!(
                        "unknown scenario `{other}` (clean, mixed-faults, chaos[:RATE])"
                    )
                    .into()),
                },
            })
            .collect::<Result<Vec<_>, Box<dyn Error>>>()?,
    };
    let base = flowtime_bench::experiments::WorkflowExperiment {
        workflows: args.get_parsed("workflows", 5usize)?,
        jobs_per_workflow: args.get_parsed("jobs", 18usize)?,
        adhoc_horizon: args.get_parsed("adhoc-horizon", 600u64)?,
        seed: args.get_parsed("seed", 20180702u64)?,
        ..Default::default()
    };
    let spec = SweepSpec {
        base,
        cluster: flowtime_bench::experiments::testbed_cluster(),
        scenarios,
        schedulers,
        fault_seeds,
        audit: args.has("audit"),
        // Only a sweep that asked for pods records pod keys in its report.
        pods: args.has("pods").then_some(pods),
    };

    let report = spec.run(threads);
    println!("sweep: {} cells on {threads} thread(s)", report.cells.len());
    for r in &report.rollups {
        println!(
            "{:<14} {:<16} miss-rate {:>6.3} ({:>3}/{:<3})  wf-misses {:>3}  adhoc p50/p90/p99 {:>7.0}/{:>7.0}/{:>7.0}s",
            r.scenario,
            r.algo,
            r.deadline_miss_rate,
            r.job_misses,
            r.deadline_jobs,
            r.workflow_misses,
            r.adhoc_p50_s,
            r.adhoc_p90_s,
            r.adhoc_p99_s,
        );
    }
    let name = args.get("out").unwrap_or("sweep");
    flowtime_bench::report::persist(name, &report);
    println!("report written to results/{name}.json");
    Ok(())
}

fn decompose_cmd(args: &Args) -> CliResult {
    let trace = load_trace(args)?;
    let index = args.get_parsed("index", 0usize)?;
    let slack = args.get_parsed("slack", 6u64)?;
    let sub = trace
        .workload
        .workflows
        .get(index)
        .ok_or_else(|| format!("trace has no workflow #{index}"))?;
    let wf = &sub.workflow;
    let d = decompose(wf, &DecomposeConfig::new(trace.cluster.capacity()))?;
    let slacked = slacked_windows(&d, slack);
    println!(
        "{} `{}`: window [{}, {}), {} jobs, {} level sets, method {:?}",
        wf.id(),
        wf.name(),
        wf.submit_slot(),
        wf.deadline_slot(),
        wf.len(),
        d.sets.len(),
        d.method_used
    );
    for (set_idx, set) in d.sets.iter().enumerate() {
        let w = d.set_windows[set_idx];
        println!(
            "  set {set_idx}: window [{:>5}, {:>5})  min-rt {:>4}  jobs {:?}",
            w.start, w.deadline, d.set_min_runtimes[set_idx], set
        );
    }
    println!("\nper-job milestones (with {slack}-slot slack in parentheses):");
    for (node, (w, s)) in d.windows.iter().zip(&slacked).enumerate() {
        println!(
            "  {:<28} due {:>5} ({:>5})",
            wf.job(node).name(),
            w.deadline,
            s.deadline
        );
    }
    Ok(())
}

/// Connects to a running `flowtimed`. All three daemon subcommands share
/// the `--connect` flag; a typed daemon error surfaces as a nonzero exit
/// with its error code in the message.
fn daemon_connect(args: &Args) -> Result<flowtime_daemon::Client, Box<dyn Error>> {
    let addr = args
        .get("connect")
        .ok_or("--connect <host:port> is required")?;
    if !addr.contains(':') {
        return Err(format!("--connect requires HOST:PORT, got `{addr}`").into());
    }
    Ok(flowtime_daemon::Client::connect(addr)?)
}

/// Parses `TASKS,DUR[,CORES,MB]` into an ad-hoc job spec.
fn parse_adhoc_spec(raw: &str) -> Result<flowtime_sim::AdhocSubmission, Box<dyn Error>> {
    let parts: Vec<&str> = raw.split(',').collect();
    if parts.len() != 2 && parts.len() != 4 {
        return Err(format!("--adhoc must be TASKS,DUR or TASKS,DUR,CORES,MB, got `{raw}`").into());
    }
    let num = |s: &str, what: &str| -> Result<u64, Box<dyn Error>> {
        s.trim()
            .parse()
            .map_err(|_| format!("--adhoc {what} must be a positive integer, got `{s}`").into())
    };
    let tasks = num(parts[0], "TASKS")?;
    let dur = num(parts[1], "DUR")?;
    let cores = if parts.len() == 4 {
        num(parts[2], "CORES")?
    } else {
        1
    };
    let mb = if parts.len() == 4 {
        num(parts[3], "MB")?
    } else {
        1024
    };
    Ok(flowtime_sim::AdhocSubmission::new(
        flowtime_dag::JobSpec::new("adhoc", tasks, dur, ResourceVec::new([cores, mb])),
        0,
    ))
}

fn daemon_submit(args: &Args) -> CliResult {
    let retries = args.get_parsed("retries", 0u64)?;
    let request_id = args.get("request-id");
    if retries > 0 && request_id.is_none() {
        return Err(
            "--retries needs --request-id: without an idempotency key a \
                    retried submit can be accepted twice"
                .into(),
        );
    }
    if let Some(rid) = &request_id {
        if rid.is_empty() || rid.len() > 256 {
            return Err("--request-id must be 1..=256 bytes".into());
        }
    }
    let mut client = daemon_connect(args)?;
    let line = if let Some(path) = args.get("workflow-json") {
        let contents =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let trimmed = contents.trim();
        // Validate locally so a malformed file fails with a parse error
        // rather than a daemon round trip.
        serde_json::parse(trimmed).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
        format!("{{\"req\":\"submit_workflow\",\"submission\":{trimmed}}}")
    } else if let Some(raw) = args.get("adhoc") {
        let mut sub = parse_adhoc_spec(raw)?;
        sub.arrival_slot = if args.has("arrival") {
            args.get_parsed("arrival", 0u64)?
        } else {
            // Default arrival: the daemon's current virtual slot.
            let status = client.request("{\"req\":\"status\"}")?;
            status
                .get("engine")
                .and_then(|e| e.get("now"))
                .and_then(|v| match v {
                    serde_json::Value::U64(n) => Some(*n),
                    _ => None,
                })
                .unwrap_or(0)
        };
        format!(
            "{{\"req\":\"submit_adhoc\",\"submission\":{}}}",
            serde_json::to_string(&sub)?
        )
    } else {
        return Err("submit needs --adhoc TASKS,DUR[,CORES,MB] or --workflow-json FILE".into());
    };
    // Idempotency key: the daemon dedups retries of the same key and
    // answers `duplicate` with the original sequence number, so a retry
    // after a lost reply can never double-submit.
    let line = match &request_id {
        Some(rid) => line.replacen(
            ",\"submission\":",
            &format!(
                ",\"request_id\":{},\"submission\":",
                serde_json::to_string(rid)?
            ),
            1,
        ),
        None => line,
    };
    let mut attempt = 0u64;
    loop {
        let result: Result<serde_json::Value, Box<dyn Error>> = match attempt {
            0 => client.request(&line).map_err(|e| e.into()),
            // A lost reply leaves the connection in an unknown state:
            // retries reconnect from scratch.
            _ => daemon_connect(args).and_then(|mut c| c.request(&line).map_err(|e| e.into())),
        };
        match result {
            Ok(body) => {
                println!("{}", serde_json::to_string(&body)?);
                return Ok(());
            }
            // The original submit was durable; the retry's `duplicate`
            // reply IS the acknowledgement, carrying the original seq.
            Err(e) => match e.downcast_ref::<flowtime_daemon::ClientError>() {
                Some(flowtime_daemon::ClientError::Daemon { code, data, .. })
                    if code == flowtime_daemon::codes::DUPLICATE =>
                {
                    let sub = data
                        .as_ref()
                        .and_then(|d| d.get("sub"))
                        .map(serde_json::to_string)
                        .transpose()?
                        .unwrap_or_else(|| "null".to_string());
                    println!("{{\"sub\":{sub},\"duplicate\":true}}");
                    return Ok(());
                }
                // Transport trouble: back off and retry if allowed.
                Some(flowtime_daemon::ClientError::Io(_)) if attempt < retries => {
                    attempt += 1;
                    std::thread::sleep(std::time::Duration::from_millis(50 << attempt.min(6)));
                }
                _ => return Err(e),
            },
        }
    }
}

fn daemon_status(args: &Args) -> CliResult {
    let mut client = daemon_connect(args)?;
    let body = client.request("{\"req\":\"status\"}")?;
    println!("{}", serde_json::to_string_pretty(&body)?);
    Ok(())
}

fn daemon_drain(args: &Args) -> CliResult {
    let mut client = daemon_connect(args)?;
    let summary = client.request("{\"req\":\"drain\"}")?;
    eprintln!("drained: {}", serde_json::to_string(&summary)?);
    let outcome = client.request("{\"req\":\"outcome\"}")?;
    let outcome = outcome
        .get("outcome")
        .ok_or("daemon outcome response is missing the `outcome` field")?;
    let rendered = serde_json::to_string(outcome)?;
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, format!("{rendered}\n"))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote outcome to {path}");
        }
        None => println!("{rendered}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(dispatch(&argv(&["help"])).is_ok());
        assert!(dispatch(&[]).is_ok());
        assert!(dispatch(&argv(&["frobnicate"])).is_err());
    }

    #[test]
    fn simulate_requires_trace() {
        assert!(dispatch(&argv(&["simulate"])).is_err());
    }

    /// One registry behind every front end: each spelling resolves — and
    /// an unknown name is a typed error, never a panic — identically in
    /// `simulate --scheduler`, `sweep --schedulers` and `Session::new`.
    #[test]
    fn every_front_end_accepts_the_same_scheduler_spellings() {
        let dir = std::env::temp_dir().join("flowtime-cli-test-registry");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.jsonl");
        dispatch(&argv(&[
            "generate",
            "--out",
            trace_path.to_str().unwrap(),
            "--workflows",
            "1",
            "--cores",
            "64",
            "--seed",
            "3",
        ]))
        .unwrap();
        let simulate = |name: &str| {
            dispatch(&argv(&[
                "simulate",
                "--trace",
                trace_path.to_str().unwrap(),
                "--scheduler",
                name,
            ]))
        };
        let sweep = |name: &str| {
            dispatch(&argv(&[
                "sweep",
                "--workflows",
                "1",
                "--jobs",
                "4",
                "--adhoc-horizon",
                "10",
                "--seeds",
                "0..1",
                "--scenarios",
                "clean",
                "--schedulers",
                name,
                "--out",
                "cli-registry-test",
            ]))
        };
        let session = |name: &str| {
            flowtime_daemon::Session::new(flowtime_daemon::SessionConfig {
                cluster: ClusterConfig::new(ResourceVec::new([8, 32_768]), 10.0),
                scheduler: name.to_string(),
                max_slots: 100_000,
                trace_capacity: 1 << 12,
                snapshot_path: None,
                pods: 0,
                placer: None,
            })
        };
        for (spelling, algo) in [
            ("flowtime", Algo::FlowTime),
            ("FlowTime", Algo::FlowTime),
            ("flowtime-no-ds", Algo::FlowTimeNoDs),
            ("FlowTime_no_ds", Algo::FlowTimeNoDs),
            ("cora", Algo::Cora),
            ("CORA", Algo::Cora),
            ("edf", Algo::Edf),
            ("EDF", Algo::Edf),
            ("Fair", Algo::Fair),
            ("FIFO", Algo::Fifo),
            ("Morpheus", Algo::Morpheus),
        ] {
            assert_eq!(parse_algo(spelling).unwrap(), algo, "{spelling}");
            simulate(spelling).unwrap_or_else(|e| panic!("simulate {spelling}: {e}"));
            sweep(spelling).unwrap_or_else(|e| panic!("sweep {spelling}: {e}"));
            assert!(session(spelling).is_ok(), "Session::new {spelling}");
        }
        for unknown in ["nope", "flowtime2", ""] {
            assert!(parse_algo(unknown).is_err(), "{unknown:?}");
            assert!(simulate(unknown).is_err(), "simulate {unknown:?}");
            assert!(sweep(unknown).is_err(), "sweep {unknown:?}");
            let err = session(unknown).err().expect("Session::new must refuse");
            assert_eq!(err.code, flowtime_daemon::codes::BAD_REQUEST);
        }
        let _ = std::fs::remove_file("results/cli-registry-test.json");
        let _ = std::fs::remove_dir("results");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generate_simulate_round_trip() {
        let dir = std::env::temp_dir().join("flowtime-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.jsonl");
        let metrics_path = dir.join("m.json");
        dispatch(&argv(&[
            "generate",
            "--out",
            trace_path.to_str().unwrap(),
            "--workflows",
            "2",
            "--cores",
            "64",
            "--seed",
            "3",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "simulate",
            "--trace",
            trace_path.to_str().unwrap(),
            "--scheduler",
            "flowtime",
            "--out",
            metrics_path.to_str().unwrap(),
        ]))
        .unwrap();
        let written = std::fs::read_to_string(&metrics_path).unwrap();
        let metrics: Metrics = serde_json::from_str(&written).unwrap();
        assert!(metrics.completed_jobs() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulate_with_faults_is_deterministic_and_differs_from_baseline() {
        let dir = std::env::temp_dir().join("flowtime-cli-test-f");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.jsonl");
        dispatch(&argv(&[
            "generate",
            "--out",
            trace_path.to_str().unwrap(),
            "--workflows",
            "2",
            "--cores",
            "64",
            "--seed",
            "3",
        ]))
        .unwrap();
        let run = |fault_args: &[&str], out: &std::path::Path| {
            let mut a = vec![
                "simulate",
                "--trace",
                trace_path.to_str().unwrap(),
                "--scheduler",
                "edf",
                "--out",
                out.to_str().unwrap(),
            ];
            a.extend_from_slice(fault_args);
            dispatch(&argv(&a)).unwrap();
            std::fs::read_to_string(out).unwrap()
        };
        // Malformed or orphaned fault flags must error, not silently run
        // unfaulted.
        for bad in [
            vec!["--fault-seed", "abc"],
            vec!["--fault-seed"],
            vec!["--fault-seed", "1", "--churn", "banana"],
            vec!["--misestimate", "0.3"],
        ] {
            let mut a = vec!["simulate", "--trace", trace_path.to_str().unwrap()];
            a.extend_from_slice(&bad);
            assert!(dispatch(&argv(&a)).is_err(), "{bad:?} should be rejected");
        }
        let faults = [
            "--fault-seed",
            "42",
            "--misestimate",
            "0.3",
            "--churn",
            "0.2",
            "--bursts",
            "4",
        ];
        let a = run(&faults, &dir.join("a.json"));
        let b = run(&faults, &dir.join("b.json"));
        let clean = run(&[], &dir.join("c.json"));
        assert_eq!(a, b, "same fault seed must give byte-identical metrics");
        assert_ne!(a, clean, "faulted run should diverge from baseline");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_plan_cache_flag_does_not_change_metrics() {
        let dir = std::env::temp_dir().join("flowtime-cli-test-npc");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.jsonl");
        dispatch(&argv(&[
            "generate",
            "--out",
            trace_path.to_str().unwrap(),
            "--workflows",
            "2",
            "--cores",
            "64",
            "--seed",
            "9",
        ]))
        .unwrap();
        let run = |extra: &[&str], out: &std::path::Path| {
            let mut a = vec![
                "simulate",
                "--trace",
                trace_path.to_str().unwrap(),
                "--scheduler",
                "flowtime",
                "--out",
                out.to_str().unwrap(),
            ];
            a.extend_from_slice(extra);
            dispatch(&argv(&a)).unwrap();
            std::fs::read_to_string(out).unwrap()
        };
        let cached = run(&[], &dir.join("a.json"));
        let uncached = run(&["--no-plan-cache"], &dir.join("b.json"));
        assert_eq!(
            cached, uncached,
            "the plan cache must never change scheduling decisions"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulate_trace_out_then_audit_round_trip() {
        let dir = std::env::temp_dir().join("flowtime-cli-test-audit");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.jsonl");
        let decisions_path = dir.join("d.jsonl");
        let outcome_path = dir.join("o.json");
        dispatch(&argv(&[
            "generate",
            "--out",
            trace_path.to_str().unwrap(),
            "--workflows",
            "2",
            "--cores",
            "64",
            "--seed",
            "3",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "simulate",
            "--trace",
            trace_path.to_str().unwrap(),
            "--scheduler",
            "edf",
            "--trace-out",
            decisions_path.to_str().unwrap(),
            "--outcome-out",
            outcome_path.to_str().unwrap(),
        ]))
        .unwrap();
        // The offline auditor certifies the artifacts the run produced.
        dispatch(&argv(&[
            "audit",
            "--trace",
            trace_path.to_str().unwrap(),
            "--decision-trace",
            decisions_path.to_str().unwrap(),
            "--outcome",
            outcome_path.to_str().unwrap(),
        ]))
        .unwrap();
        // Auditing against the wrong scenario (faults the run never saw)
        // must fail.
        assert!(dispatch(&argv(&[
            "audit",
            "--trace",
            trace_path.to_str().unwrap(),
            "--decision-trace",
            decisions_path.to_str().unwrap(),
            "--outcome",
            outcome_path.to_str().unwrap(),
            "--fault-seed",
            "42",
            "--submit-delay",
            "5",
        ]))
        .is_err());
        // Missing inputs are reported, not panicked on.
        assert!(dispatch(&argv(&["audit", "--trace", trace_path.to_str().unwrap()])).is_err());
        assert!(dispatch(&argv(&[
            "audit",
            "--trace",
            trace_path.to_str().unwrap(),
            "--decision-trace",
            "/nonexistent/d.jsonl",
            "--outcome",
            outcome_path.to_str().unwrap(),
        ]))
        .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_trace_out_then_audit_without_restating_pods() {
        let dir = std::env::temp_dir().join("flowtime-cli-test-shard-audit");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.jsonl");
        let decisions_path = dir.join("d.jsonl");
        let outcome_path = dir.join("o.json");
        dispatch(&argv(&[
            "generate",
            "--out",
            trace_path.to_str().unwrap(),
            "--workflows",
            "3",
            "--cores",
            "64",
            "--seed",
            "5",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "simulate",
            "--trace",
            trace_path.to_str().unwrap(),
            "--scheduler",
            "edf",
            "--pods",
            "2",
            "--trace-out",
            decisions_path.to_str().unwrap(),
            "--outcome-out",
            outcome_path.to_str().unwrap(),
        ]))
        .unwrap();
        // One trace per pod, each self-describing: the audit needs no
        // --pods because the header records the shard provenance.
        for pod in 0..2 {
            let pod_trace = format!("{}.pod{pod}", decisions_path.to_str().unwrap());
            assert!(std::path::Path::new(&pod_trace).exists());
            dispatch(&argv(&[
                "audit",
                "--trace",
                trace_path.to_str().unwrap(),
                "--decision-trace",
                &pod_trace,
                "--outcome",
                outcome_path.to_str().unwrap(),
            ]))
            .unwrap();
            // explain reads the same provenance and diagnoses the pod slice.
            dispatch(&argv(&[
                "explain",
                "--trace",
                trace_path.to_str().unwrap(),
                "--decision-trace",
                &pod_trace,
                "--outcome",
                outcome_path.to_str().unwrap(),
            ]))
            .unwrap();
        }
        // Explicit flags are allowed only when they agree with the header.
        let pod0 = format!("{}.pod0", decisions_path.to_str().unwrap());
        assert!(dispatch(&argv(&[
            "audit",
            "--trace",
            trace_path.to_str().unwrap(),
            "--decision-trace",
            &pod0,
            "--outcome",
            outcome_path.to_str().unwrap(),
            "--pods",
            "3",
        ]))
        .is_err());
        // A sharded recording cannot seed a whatif base.
        assert!(dispatch(&argv(&[
            "whatif",
            "--trace",
            trace_path.to_str().unwrap(),
            "--decision-trace",
            &pod0,
            "--outcome",
            outcome_path.to_str().unwrap(),
        ]))
        .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explain_round_trip_and_scenario_mismatch() {
        let dir = std::env::temp_dir().join("flowtime-cli-test-explain");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.jsonl");
        let decisions_path = dir.join("d.jsonl");
        let outcome_path = dir.join("o.json");
        let report_path = dir.join("report.json");
        dispatch(&argv(&[
            "generate",
            "--out",
            trace_path.to_str().unwrap(),
            "--workflows",
            "2",
            "--cores",
            "64",
            "--seed",
            "3",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "simulate",
            "--trace",
            trace_path.to_str().unwrap(),
            "--scheduler",
            "fifo",
            "--trace-out",
            decisions_path.to_str().unwrap(),
            "--outcome-out",
            outcome_path.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&argv(&[
            "explain",
            "--trace",
            trace_path.to_str().unwrap(),
            "--decision-trace",
            decisions_path.to_str().unwrap(),
            "--outcome",
            outcome_path.to_str().unwrap(),
            "--out",
            report_path.to_str().unwrap(),
        ]))
        .unwrap();
        let report = std::fs::read_to_string(&report_path).unwrap();
        let parsed: flowtime_sim::ExplainReport = serde_json::from_str(&report).unwrap();
        assert_eq!(parsed.scheduler.to_lowercase(), "fifo");
        assert!(parsed.events_checked > 0);
        // Explaining against a scenario the run never saw must be refused —
        // the auditor underneath rejects the mismatch.
        assert!(dispatch(&argv(&[
            "explain",
            "--trace",
            trace_path.to_str().unwrap(),
            "--decision-trace",
            decisions_path.to_str().unwrap(),
            "--outcome",
            outcome_path.to_str().unwrap(),
            "--fault-seed",
            "42",
            "--submit-delay",
            "5",
        ]))
        .is_err());
        // Missing inputs are reported, not panicked on.
        assert!(dispatch(&argv(&["explain", "--trace", trace_path.to_str().unwrap()])).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn whatif_identity_cross_scheduler_and_bad_flags() {
        let dir = std::env::temp_dir().join("flowtime-cli-test-whatif");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.jsonl");
        let decisions_path = dir.join("d.jsonl");
        let outcome_path = dir.join("o.json");
        let diff_path = dir.join("diff.json");
        dispatch(&argv(&[
            "generate",
            "--out",
            trace_path.to_str().unwrap(),
            "--workflows",
            "2",
            "--cores",
            "64",
            "--seed",
            "3",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "simulate",
            "--trace",
            trace_path.to_str().unwrap(),
            "--scheduler",
            "edf",
            "--trace-out",
            decisions_path.to_str().unwrap(),
            "--outcome-out",
            outcome_path.to_str().unwrap(),
        ]))
        .unwrap();
        // No overrides: the alt side replays the recorded policy, so the
        // certified diff must be the identical-policy no-op.
        dispatch(&argv(&[
            "whatif",
            "--trace",
            trace_path.to_str().unwrap(),
            "--decision-trace",
            decisions_path.to_str().unwrap(),
            "--outcome",
            outcome_path.to_str().unwrap(),
            "--out",
            diff_path.to_str().unwrap(),
        ]))
        .unwrap();
        let diff: flowtime_sim::WhatIfDiff =
            serde_json::from_str(&std::fs::read_to_string(&diff_path).unwrap()).unwrap();
        assert!(diff.identical, "identical policy must be an empty diff");
        assert!(diff.jobs.is_empty() && diff.first_divergence.is_none());
        // A different scheduler yields a certified two-sided diff.
        dispatch(&argv(&[
            "whatif",
            "--trace",
            trace_path.to_str().unwrap(),
            "--decision-trace",
            decisions_path.to_str().unwrap(),
            "--outcome",
            outcome_path.to_str().unwrap(),
            "--scheduler",
            "fifo",
            "--out",
            diff_path.to_str().unwrap(),
        ]))
        .unwrap();
        let diff: flowtime_sim::WhatIfDiff =
            serde_json::from_str(&std::fs::read_to_string(&diff_path).unwrap()).unwrap();
        assert_eq!(diff.base_policy.to_lowercase(), "edf");
        assert_eq!(diff.alt_policy.to_lowercase(), "fifo");
        // A sharded alternative diffs at workflow granularity.
        dispatch(&argv(&[
            "whatif",
            "--trace",
            trace_path.to_str().unwrap(),
            "--decision-trace",
            decisions_path.to_str().unwrap(),
            "--outcome",
            outcome_path.to_str().unwrap(),
            "--alt-pods",
            "2",
        ]))
        .unwrap();
        // Malformed requests are reported, not panicked on.
        for bad in [
            vec!["--scheduler", "nonsense"],
            vec!["--alt-pods", "0"],
            vec!["--alt-shed-policy", "nonsense"],
        ] {
            let mut a = vec![
                "whatif",
                "--trace",
                trace_path.to_str().unwrap(),
                "--decision-trace",
                decisions_path.to_str().unwrap(),
                "--outcome",
                outcome_path.to_str().unwrap(),
            ];
            a.extend_from_slice(&bad);
            assert!(dispatch(&argv(&a)).is_err(), "{bad:?} should be rejected");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulate_recovery_round_trip_and_bad_paths() {
        let dir = std::env::temp_dir().join("flowtime-cli-test-rec");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.jsonl");
        dispatch(&argv(&[
            "generate",
            "--out",
            trace_path.to_str().unwrap(),
            "--workflows",
            "2",
            "--cores",
            "64",
            "--seed",
            "3",
        ]))
        .unwrap();
        // Orphaned or malformed recovery flags must error, not silently
        // run without the requested failures.
        for bad in [
            vec!["--task-fail-rate", "0.2"],
            vec!["--fault-seed", "1", "--task-fail-rate", "high"],
            vec!["--fault-seed", "1", "--max-retries", "-2"],
            vec!["--fault-seed", "1", "--shed-policy", "sometimes"],
            vec!["--fault-seed", "1", "--shed-policy", "delay:x"],
        ] {
            let mut a = vec!["simulate", "--trace", trace_path.to_str().unwrap()];
            a.extend_from_slice(&bad);
            assert!(dispatch(&argv(&a)).is_err(), "{bad:?} should be rejected");
        }
        // A chaos run self-audits its decision trace (certify_with_recovery
        // inside `simulate`) and the standalone audit command agrees when
        // handed the same flags — and only then.
        let decisions = dir.join("d.jsonl");
        let outcome = dir.join("o.json");
        let chaos = [
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
        let mut a = vec![
            "simulate",
            "--trace",
            trace_path.to_str().unwrap(),
            "--scheduler",
            "edf",
            "--trace-out",
            decisions.to_str().unwrap(),
            "--outcome-out",
            outcome.to_str().unwrap(),
        ];
        a.extend_from_slice(&chaos);
        dispatch(&argv(&a)).unwrap();
        let mut audit = vec![
            "audit",
            "--trace",
            trace_path.to_str().unwrap(),
            "--decision-trace",
            decisions.to_str().unwrap(),
            "--outcome",
            outcome.to_str().unwrap(),
        ];
        let plain = audit.clone();
        audit.extend_from_slice(&chaos);
        dispatch(&argv(&audit)).unwrap();
        // Auditing a chaos run while omitting its recovery flags must fail:
        // the trace contains kills the clean scenario cannot explain.
        assert!(dispatch(&argv(&plain)).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_single_pod_simulate_matches_unsharded_byte_for_byte() {
        let dir = std::env::temp_dir().join("flowtime-cli-test-shard1");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.jsonl");
        dispatch(&argv(&[
            "generate",
            "--out",
            trace_path.to_str().unwrap(),
            "--workflows",
            "2",
            "--cores",
            "64",
            "--seed",
            "3",
        ]))
        .unwrap();
        let run = |extra: &[&str], tag: &str| {
            let outcome = dir.join(format!("{tag}-o.json"));
            let decisions = dir.join(format!("{tag}-d.jsonl"));
            let mut a = vec![
                "simulate",
                "--trace",
                trace_path.to_str().unwrap(),
                "--scheduler",
                "flowtime",
                "--outcome-out",
                outcome.to_str().unwrap(),
                "--trace-out",
                decisions.to_str().unwrap(),
            ];
            a.extend_from_slice(extra);
            dispatch(&argv(&a)).unwrap();
            (
                std::fs::read_to_string(outcome).unwrap(),
                std::fs::read_to_string(decisions).unwrap(),
            )
        };
        let (plain_outcome, plain_trace) = run(&[], "plain");
        let (pod_outcome, pod_trace) = run(&["--pods", "1"], "pod");
        assert_eq!(
            plain_outcome, pod_outcome,
            "--pods 1 outcome must not differ"
        );
        assert_eq!(
            plain_trace, pod_trace,
            "--pods 1 decision trace must not differ"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_multi_pod_simulate_writes_certified_sharded_outcome() {
        let dir = std::env::temp_dir().join("flowtime-cli-test-shardk");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.jsonl");
        let outcome_path = dir.join("o.json");
        dispatch(&argv(&[
            "generate",
            "--out",
            trace_path.to_str().unwrap(),
            "--workflows",
            "2",
            "--cores",
            "64",
            "--seed",
            "3",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "simulate",
            "--trace",
            trace_path.to_str().unwrap(),
            "--scheduler",
            "edf",
            "--pods",
            "2",
            "--outcome-out",
            outcome_path.to_str().unwrap(),
        ]))
        .unwrap();
        let raw = std::fs::read_to_string(&outcome_path).unwrap();
        let outcome: flowtime_sim::ShardedOutcome = serde_json::from_str(&raw).unwrap();
        assert_eq!(outcome.pods.len(), 2);
        assert_eq!(outcome.placement.pods, 2);
        assert!(outcome.is_complete());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_simulate_rejects_bad_flag_combinations() {
        let dir = std::env::temp_dir().join("flowtime-cli-test-shardbad");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.jsonl");
        dispatch(&argv(&[
            "generate",
            "--out",
            trace_path.to_str().unwrap(),
            "--workflows",
            "1",
            "--cores",
            "64",
            "--seed",
            "3",
        ]))
        .unwrap();
        for bad in [
            vec!["--pods", "0"],
            vec!["--pods"],
            vec!["--pods", "two"],
            vec!["--pods", "2", "--gantt"],
            vec!["--pods", "2", "--out", "/tmp/m.json"],
        ] {
            let mut a = vec!["simulate", "--trace", trace_path.to_str().unwrap()];
            a.extend_from_slice(&bad);
            assert!(dispatch(&argv(&a)).is_err(), "{bad:?} should be rejected");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_sweep_records_the_pod_count() {
        dispatch(&argv(&[
            "sweep",
            "--workflows",
            "1",
            "--jobs",
            "4",
            "--adhoc-horizon",
            "20",
            "--seeds",
            "0..2",
            "--schedulers",
            "edf",
            "--scenarios",
            "clean",
            "--pods",
            "2",
            "--audit",
            "--out",
            "cli-shard-sweep-test",
        ]))
        .unwrap();
        let path = std::path::Path::new("results/cli-shard-sweep-test.json");
        let written = std::fs::read_to_string(path).unwrap();
        assert!(written.contains("\"pods\":2") || written.contains("\"pods\": 2"));
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_dir("results");
    }

    #[test]
    fn seed_ranges_parse_as_half_open() {
        assert_eq!(parse_seed_range("0..3").unwrap(), vec![0, 1, 2]);
        assert_eq!(parse_seed_range("7..9").unwrap(), vec![7, 8]);
        for bad in ["3", "3..3", "5..2", "a..b", ""] {
            assert!(parse_seed_range(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn sweep_rejects_malformed_axes() {
        for bad in [
            vec!["sweep", "--seeds", "oops"],
            vec!["sweep", "--schedulers", "flowtime,unknown"],
            vec!["sweep", "--scenarios", "apocalypse"],
            vec!["sweep", "--scenarios", "chaos:banana"],
            vec!["sweep", "--bench-threads", "1,x"],
        ] {
            assert!(dispatch(&argv(&bad)).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn sweep_runs_a_tiny_grid_and_persists_the_report() {
        dispatch(&argv(&[
            "sweep",
            "--workflows",
            "1",
            "--jobs",
            "4",
            "--adhoc-horizon",
            "20",
            "--seeds",
            "0..2",
            "--schedulers",
            "edf,fifo",
            "--scenarios",
            "clean,mixed-faults",
            "--threads",
            "2",
            "--out",
            "cli-sweep-test",
        ]))
        .unwrap();
        let path = std::path::Path::new("results/cli-sweep-test.json");
        let written = std::fs::read_to_string(path).unwrap();
        assert!(written.contains("\"rollups\""));
        assert!(written.contains("EDF") && written.contains("FIFO"));
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_dir("results");
    }

    #[test]
    fn decompose_prints_windows() {
        let dir = std::env::temp_dir().join("flowtime-cli-test-d");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.jsonl");
        dispatch(&argv(&[
            "generate",
            "--out",
            trace_path.to_str().unwrap(),
            "--workflows",
            "1",
            "--seed",
            "5",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "decompose",
            "--trace",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(dispatch(&argv(&[
            "decompose",
            "--trace",
            trace_path.to_str().unwrap(),
            "--index",
            "99",
        ]))
        .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `submit --request-id --retries`: a resubmission of the same key is
    /// answered `duplicate` and treated as success; `--retries` without a
    /// key is rejected up front.
    #[test]
    fn daemon_submit_request_id_dedups_and_retries_need_a_key() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let session = flowtime_daemon::Session::new(flowtime_daemon::SessionConfig {
                cluster: flowtime_sim::ClusterConfig::new(
                    flowtime_dag::ResourceVec::new([8, 32_768]),
                    10.0,
                ),
                scheduler: "fifo".to_string(),
                max_slots: 100_000,
                trace_capacity: 1 << 12,
                snapshot_path: None,
                pods: 0,
                placer: None,
            })
            .expect("config");
            flowtime_daemon::serve(listener, session, None)
                .expect("server runs")
                .log()
                .len()
        });

        let submit = |extra: &[&str]| {
            let mut base = vec![
                "submit",
                "--connect",
                &addr,
                "--adhoc",
                "1,10",
                "--arrival",
                "0",
            ];
            base.extend_from_slice(extra);
            dispatch(&argv(&base))
        };
        submit(&["--request-id", "k1", "--retries", "2"]).expect("first submit");
        // Same key again: the daemon's `duplicate` reply is a success.
        submit(&["--request-id", "k1"]).expect("duplicate resubmit is a success");
        // Retries without an idempotency key are refused client-side.
        assert!(submit(&["--retries", "2"]).is_err());
        // A fresh key is a fresh submission.
        submit(&["--request-id", "k2"]).expect("second submit");

        let mut client = flowtime_daemon::Client::connect(&addr).expect("connect");
        client.request("{\"req\":\"shutdown\"}").expect("shutdown");
        let log_len = server.join().expect("server thread");
        assert_eq!(log_len, 2, "the duplicate never double-submitted");
    }
}
