//! The in-process workloads: a production trace decoded, simulated and
//! encoded through the library crates, exactly the `flowtime-cli
//! simulate` path.

use crate::gen::{self, TraceSize, MAX_SLOTS};
use crate::report::{scaled, Metric, RunOutput};
use crate::spans::Recorder;
use crate::stats;
use flowtime::lp_sched::SolverBackend;
use flowtime::{EdfScheduler, FairScheduler, FifoScheduler, FlowTimeConfig, FlowTimeScheduler};
use flowtime_dag::JobId;
use flowtime_sim::{
    certify, Allocation, ClusterConfig, Engine, Scheduler, SimOutcome, SimState, SolverTelemetry,
};
use flowtime_workload::Trace;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Decision-trace ring bound for audited runs: never reached (the largest
/// workload records under a million events), so nothing is dropped.
const TRACE_CAPACITY: usize = 1 << 24;

/// How often the inputs are generated before every round, to take
/// `setup_s` as a median of samples spread over the whole run (and none
/// first thing in a cold process, where a millisecond of set-up reads up to
/// 40 % slower from one run to the next).
const SETUPS_PER_ROUND: usize = 3;

pub type SchedulerFactory = fn(&ClusterConfig) -> Vec<Box<dyn Scheduler>>;

/// One in-process workload.
pub struct SimSpec {
    pub name: &'static str,
    pub size: TraceSize,
    /// Traces per run, each with its own ad-hoc stream drawn from the
    /// run's seed. What a trace costs to plan is chaotic in its ad-hoc
    /// stream (one 5-workflow trace under the simplex backend reads
    /// 1.8–2.6 s over ten seeds on a host that repeats one seed within
    /// 1 %), so a run measures a panel of them and the seed's luck
    /// averages out.
    pub inputs: usize,
    /// Timed passes over the panel per run at the nominal run length.
    pub passes: usize,
    /// The schedulers each round runs, in order.
    pub schedulers: SchedulerFactory,
    /// Whether certifying the recorded decision trace is part of the timed
    /// work (`sim-engine`). Every round records and certifies it either
    /// way; where it is not timed work the recording alone stays inside
    /// `Engine::run`, which on the planner workloads costs under 1 %.
    pub audited: bool,
}

fn flowtime_flow(cluster: &ClusterConfig) -> Vec<Box<dyn Scheduler>> {
    vec![Box::new(FlowTimeScheduler::new(
        cluster.clone(),
        FlowTimeConfig::default(),
    ))]
}

fn flowtime_simplex(cluster: &ClusterConfig) -> Vec<Box<dyn Scheduler>> {
    vec![Box::new(FlowTimeScheduler::new(
        cluster.clone(),
        FlowTimeConfig {
            backend: SolverBackend::Simplex { lex_rounds: 2 },
            ..FlowTimeConfig::default()
        },
    ))]
}

fn baselines(_: &ClusterConfig) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(FairScheduler::new()),
        Box::new(FifoScheduler::new()),
        Box::new(EdfScheduler::new()),
    ]
}

pub const SIM_PLAN: SimSpec = SimSpec {
    name: "sim-plan",
    size: TraceSize {
        workflows: 15,
        jobs_per_workflow: 18,
        adhoc_rate_per_slot: 0.2,
        adhoc_horizon: 3600,
    },
    inputs: 3,
    passes: 3,
    schedulers: flowtime_flow,
    audited: false,
};

pub const SIM_SIMPLEX: SimSpec = SimSpec {
    name: "sim-simplex",
    size: TraceSize {
        workflows: 4,
        jobs_per_workflow: 8,
        adhoc_rate_per_slot: 0.2,
        adhoc_horizon: 3600,
    },
    inputs: 5,
    passes: 3,
    schedulers: flowtime_simplex,
    audited: false,
};

pub const SIM_ENGINE: SimSpec = SimSpec {
    name: "sim-engine",
    size: TraceSize {
        workflows: 40,
        jobs_per_workflow: 18,
        adhoc_rate_per_slot: 3.0,
        adhoc_horizon: 3600,
    },
    inputs: 3,
    passes: 3,
    schedulers: baselines,
    audited: true,
};

/// `plan_slot` stopwatch: the one measurement the untraced run keeps
/// inside the engine loop (two clock reads per slot). A call counts as a
/// scheduling decision when the planner's replan counter advanced, or —
/// for solver-free schedulers — always.
pub struct Stopwatched {
    inner: Box<dyn Scheduler>,
    recorder: Rc<RefCell<Recorder>>,
    created: Instant,
    /// When each `plan_slot` call began, counted from the adapter's
    /// creation: the boundaries that cut a run into per-slot segments.
    pub entry_ns: Vec<u64>,
    pub decision_ns: Vec<u64>,
    pub calls: u64,
    pub plan_slot_ns: u64,
}

impl Stopwatched {
    pub fn new(inner: Box<dyn Scheduler>, recorder: Rc<RefCell<Recorder>>) -> Self {
        Stopwatched {
            inner,
            recorder,
            created: Instant::now(),
            entry_ns: Vec::new(),
            decision_ns: Vec::new(),
            calls: 0,
            plan_slot_ns: 0,
        }
    }
}

impl Scheduler for Stopwatched {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn plan_slot(&mut self, state: &SimState) -> Allocation {
        let before = self.inner.telemetry().map(|t| t.replans);
        self.recorder.borrow_mut().enter("scheduler.plan_slot", 0);
        let start = Instant::now();
        self.entry_ns
            .push(start.duration_since(self.created).as_nanos() as u64);
        let allocation = self.inner.plan_slot(state);
        let ns = start.elapsed().as_nanos() as u64;
        self.recorder.borrow_mut().exit();
        self.calls += 1;
        self.plan_slot_ns += ns;
        let decided = match (before, self.inner.telemetry()) {
            (Some(b), Some(after)) => after.replans > b,
            _ => true,
        };
        if decided {
            self.decision_ns.push(ns);
        }
        allocation
    }

    fn telemetry(&self) -> Option<SolverTelemetry> {
        self.inner.telemetry()
    }

    fn on_failure(&mut self, state: &SimState, job: JobId, attempt: u32) {
        self.inner.on_failure(state, job, attempt);
    }

    fn decision_tag(&self) -> &'static str {
        self.inner.decision_tag()
    }
}

/// Runs `f` inside a span of the shared recorder, which `f` itself may
/// borrow (the scheduler adapter does).
fn spanned<T>(recorder: &Rc<RefCell<Recorder>>, name: &'static str, f: impl FnOnce() -> T) -> T {
    recorder.borrow_mut().enter(name, 0);
    let out = f();
    recorder.borrow_mut().exit();
    out
}

/// What one round (all of the workload's schedulers, once) produced.
#[derive(Default)]
pub struct Round {
    /// The timed work, the sum of `segments_s`.
    pub wall_s: f64,
    /// The timed work cut into consecutive segments: per scheduler the
    /// decode, every engine slot (one `plan_slot` entry to the next), the
    /// certification where the workload counts it, and the encode. A pass
    /// over the same input cuts the same segments in the same order.
    pub segments_s: Vec<f64>,
    pub decision_ns: Vec<u64>,
    pub calls: u64,
    pub plan_slot_ns: u64,
    /// Serialized outcome per scheduler — the bytes repeats must agree on.
    pub outcomes_json: Vec<String>,
    pub outcomes: Vec<SimOutcome>,
    pub violations: u64,
    pub trace_events: u64,
    pub incomplete: u64,
}

/// Runs one round over the trace bytes: every scheduler of the workload
/// once, each run recorded and certified. `wall_s` is the timed work —
/// decode → run → encode, and the certification where the workload counts
/// it. Spans go to `recorder` when it is enabled.
pub fn run_round(
    spec: &SimSpec,
    bytes: &[u8],
    recorder: &Rc<RefCell<Recorder>>,
) -> Result<Round, String> {
    let mut round = Round::default();
    // Times `f` as one segment of the round.
    fn segment<T>(segments: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        segments.push(start.elapsed().as_secs_f64());
        out
    }
    for scheduler in (spec.schedulers)(&gen::cluster()) {
        let trace = segment(&mut round.segments_s, || {
            spanned(recorder, "codec.trace_decode", || Trace::read_jsonl(bytes))
        })
        .map_err(|e| e.to_string())?;

        // The run, cut at every `plan_slot` entry.
        let mut watched = Stopwatched::new(scheduler, Rc::clone(recorder));
        let engine = Engine::new(trace.cluster.clone(), trace.workload.clone(), MAX_SLOTS)
            .map_err(|e| e.to_string())?;
        let (engine, handle) = engine.with_trace(TRACE_CAPACITY);
        let outcome = spanned(recorder, "engine.run", || engine.run(&mut watched))
            .map_err(|e| e.to_string())?;
        let run_ns = watched.created.elapsed().as_nanos() as u64;
        let cuts = [0].iter().chain(&watched.entry_ns).chain([&run_ns]);
        let cuts: Vec<u64> = cuts.copied().collect();
        round
            .segments_s
            .extend(cuts.windows(2).map(|w| (w[1] - w[0]) as f64 / 1e9));

        let decisions = handle.take();
        let report = if spec.audited {
            segment(&mut round.segments_s, || {
                spanned(recorder, "audit.certify", || {
                    certify(&trace.cluster, &trace.workload, &outcome, &decisions)
                })
            })
        } else {
            certify(&trace.cluster, &trace.workload, &outcome, &decisions)
        };
        round.violations += report.violations.len() as u64;
        round.trace_events += report.events_checked;
        let json = segment(&mut round.segments_s, || {
            spanned(recorder, "codec.outcome_encode", || {
                serde_json::to_string(&outcome).expect("outcome serializes")
            })
        });
        round.incomplete += u64::from(!outcome.is_complete());
        round.decision_ns.append(&mut watched.decision_ns);
        round.calls += watched.calls;
        round.plan_slot_ns += watched.plan_slot_ns;
        round.outcomes_json.push(json);
        round.outcomes.push(outcome);
    }
    round.wall_s = round.segments_s.iter().sum();
    Ok(round)
}

/// Peak resident set of this process, from `/proc/self/status`.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Mean ad-hoc turnaround over all of a round's outcomes, in seconds, and
/// the decomposed-deadline job misses summed over them.
pub fn outcome_quality<'a>(outcomes: impl IntoIterator<Item = &'a SimOutcome>) -> (f64, u64) {
    let mut slots = 0u64;
    let mut jobs = 0u64;
    let mut misses = 0u64;
    let mut slot_seconds = 0.0;
    for o in outcomes {
        for j in o.metrics.adhoc_jobs() {
            slots += j.turnaround_slots();
            jobs += 1;
        }
        misses += o.metrics.job_deadline_misses() as u64;
        slot_seconds = o.metrics.slot_seconds;
    }
    let turnaround = if jobs == 0 {
        0.0
    } else {
        slots as f64 / jobs as f64 * slot_seconds
    };
    (turnaround, misses)
}

/// The spec with its sizes shrunk for a run shorter than nominal; passes
/// grow instead when the run is longer.
pub fn scale_spec(spec: &SimSpec, scale: f64) -> SimSpec {
    let shrink = scale.min(1.0);
    SimSpec {
        name: spec.name,
        size: TraceSize {
            workflows: scaled(spec.size.workflows, shrink, 1),
            adhoc_horizon: scaled(spec.size.adhoc_horizon as usize, shrink, 30) as u64,
            ..spec.size
        },
        inputs: spec.inputs,
        passes: scaled(spec.passes, scale, 1),
        schedulers: spec.schedulers,
        audited: spec.audited,
    }
}

/// The ad-hoc seed of the panel's `i`-th trace.
fn input_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i as u64)
}

/// The untraced run: the panel of inputs, one untimed warm-up round, then
/// the timed passes over the panel.
pub fn run(spec: &SimSpec, seed: u64, scale: f64, traced: bool) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let off = Rc::new(RefCell::new(Recorder::new(false)));

    let panel = || -> Vec<Vec<u8>> {
        (0..spec.inputs)
            .map(|i| gen::trace_bytes(&gen::production_trace(spec.size, input_seed(seed, i))))
            .collect()
    };
    let inputs = panel();

    // Warm-up, untimed: a cold process runs its first round up to a sixth
    // slower.
    run_round(spec, &inputs[0], &off)?;

    // Every pass runs the whole panel; the first pass of each input is the
    // reference the later ones must reproduce byte for byte.
    let passes = if traced { 1 } else { spec.passes };
    let mut first: Vec<Round> = Vec::new();
    let mut segments: Vec<Vec<Vec<f64>>> = vec![Vec::new(); inputs.len()];
    let mut decisions: Vec<Vec<Vec<f64>>> = vec![Vec::new(); inputs.len()];
    let (mut plan_slot_ns, mut raw_wall_s) = (0u64, 0.0);
    let mut setups = Vec::new();
    for _ in 0..passes {
        for (i, bytes) in inputs.iter().enumerate() {
            for _ in 0..SETUPS_PER_ROUND {
                let start = Instant::now();
                std::hint::black_box(panel());
                setups.push(start.elapsed().as_secs_f64());
            }
            let mut round = run_round(spec, bytes, &off)?;
            out.check("auditor certifies the run", round.violations == 0);
            out.check("every job completes", round.incomplete == 0);
            segments[i].push(std::mem::take(&mut round.segments_s));
            decisions[i].push(
                round
                    .decision_ns
                    .iter()
                    .map(|&ns| ns as f64 / 1e6)
                    .collect(),
            );
            plan_slot_ns += round.plan_slot_ns;
            raw_wall_s += round.wall_s;
            match first.get(i) {
                Some(reference) => out.check(
                    "outcome bytes repeat",
                    round.outcomes_json == reference.outcomes_json,
                ),
                None => first.push(round),
            }
        }
    }
    // Every pass over an input does the same work in the same order (its
    // outcome bytes are checked to repeat), so the passes differ only by
    // what the host did to them, and each segment and each decision is
    // timed by its fastest pass. An input's wall time is the sum of its
    // segments, the panel's the sum over its inputs; the percentiles are
    // read off the panel's decisions pooled.
    let fastest = |repeats: &[Vec<f64>]| {
        stats::positionwise_min(repeats).ok_or("passes over one input differ in length")
    };
    let mut input_walls = Vec::new();
    let mut pooled = Vec::new();
    for (segments, decisions) in segments.iter().zip(&decisions) {
        input_walls.push(fastest(segments)?.iter().sum::<f64>());
        pooled.extend(fastest(decisions)?);
    }
    let wall: f64 = input_walls.iter().sum();
    let decisions = stats::sorted(&mut pooled);
    let outcomes = || first.iter().flat_map(|r| &r.outcomes);
    let jobs: usize = outcomes().map(|o| o.metrics.jobs.len()).sum();
    let (turnaround, misses) = outcome_quality(outcomes());

    out.e2e = vec![
        Metric::new("setup_s", stats::median(&setups), "s"),
        Metric::new("outcome_wall_s", wall, "s"),
        Metric::new("latency_p50_ms", stats::percentile(decisions, 0.5), "ms"),
        Metric::new("latency_p95_ms", stats::percentile(decisions, 0.95), "ms"),
        Metric::new("throughput_per_s", jobs as f64 / wall, "1/s"),
        Metric::new("adhoc_turnaround_s", turnaround, "s"),
        Metric::new("peak_rss_mb", peak_rss_mb("self"), "MB"),
    ];
    out.extra = vec![
        Metric::new("deadline_miss_jobs", misses as f64, "count"),
        Metric::new(
            "plan_slot_share",
            plan_slot_ns as f64 / 1e9 / raw_wall_s,
            "ratio",
        ),
    ];
    out.samples = vec![
        ("setup_s", setups.len()),
        ("outcome_wall_s", passes),
        ("latency_ms", decisions.len()),
        ("adhoc_turnaround_s", jobs),
    ];

    if traced {
        crate::layers::trace_sim(
            spec,
            &inputs[0],
            &first[0],
            input_walls[0],
            seed,
            scale,
            &mut out,
        )?;
    }
    Ok(out)
}
