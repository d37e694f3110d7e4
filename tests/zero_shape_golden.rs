//! Zero-shaped tasks under saturation, pinned for all six schedulers.
//!
//! A job whose task needs none of a resource dimension (`[0, m]`
//! memory-only, `[c, 0]` cpu-only) still fits when that dimension is
//! exhausted. A slot filler that stops as soon as one dimension runs out
//! would starve exactly those jobs; this scenario keeps a backlog of
//! hundreds of runnable `[1, 2048]` jobs with the cpu exhausted most
//! slots, so such an exit moves the outcome and the trace. The golden
//! holds, per scheduler, the length and FNV-1a hash of the serialized
//! outcome and of the decision trace. Regenerate intentionally:
//!
//! `GOLDEN_REGEN=1 cargo test --test zero_shape_golden`

use flowtime::Algo;
use flowtime_daemon::framing::fnv1a;
use flowtime_dag::{JobId, JobSpec, ResourceVec, WorkflowBuilder, WorkflowId};
use flowtime_sim::prelude::*;
use flowtime_sim::{TraceEvent, DEFAULT_TRACE_CAPACITY};

const CORES: u64 = 32;
const MEMORY_ONLY: ResourceVec = ResourceVec::new([0, 4096]);

/// Three chained workflows (one node of each zero shape), then six ad-hoc
/// arrivals a slot for 150 slots: four `[1, 2048]`, and in rotation a
/// memory-only, a cpu-only or a fifth `[1, 2048]` job, plus one more
/// memory-only job every third slot.
fn scenario() -> (ClusterConfig, SimWorkload) {
    let mut wl = SimWorkload::default();
    for w in 0..3u64 {
        let mut b = WorkflowBuilder::new(WorkflowId::new(w + 1), "wf");
        let head = b.add_job(JobSpec::new("head", 6, 4, ResourceVec::new([2, 4096])));
        let mid = b.add_job(JobSpec::new("mid", 4, 3, MEMORY_ONLY));
        let tail = b.add_job(JobSpec::new("tail", 4, 3, ResourceVec::new([1, 0])));
        b.add_dep(head, mid).unwrap();
        b.add_dep(mid, tail).unwrap();
        let submit = 20 * w;
        let wf = b.window(submit, submit + 60 + 30 * w).build().unwrap();
        wl.workflows.push(WorkflowSubmission::new(wf));
    }
    for slot in 0..150u64 {
        for k in 0..6u64 {
            let spec = match (k, (slot + k) % 3) {
                (5, 0) => JobSpec::new("mem", 2, 3, MEMORY_ONLY),
                (5, 1) => JobSpec::new("cpu", 2, 4, ResourceVec::new([1, 0])),
                (4, _) if slot % 3 == 0 => JobSpec::new("mem", 3, 2, MEMORY_ONLY),
                _ => JobSpec::new("x", 1 + (slot + k) % 3, 8, ResourceVec::new([1, 2048])),
            };
            wl.adhoc.push(AdhocSubmission::new(spec, slot));
        }
    }
    let cluster = ClusterConfig::new(ResourceVec::new([CORES, CORES * 4096]), 10.0);
    (cluster, wl)
}

/// Runs `algo` traced; returns the outcome, its trace and the golden line.
fn run(algo: Algo) -> (SimOutcome, DecisionTrace, String) {
    let (cluster, wl) = scenario();
    let mut scheduler = algo.make(&cluster);
    let (engine, handle) = Engine::new(cluster.clone(), wl.clone(), 100_000)
        .unwrap()
        .with_trace(DEFAULT_TRACE_CAPACITY);
    let outcome = engine.run(scheduler.as_mut()).unwrap();
    let trace = handle.take();
    let report = certify(&cluster, &wl, &outcome, &trace);
    assert!(
        report.is_certified(),
        "{}: {}",
        algo.name(),
        report.summary()
    );
    let outcome_bytes = serde_json::to_string(&outcome).unwrap().into_bytes();
    let mut trace_bytes = Vec::new();
    trace.write_jsonl(&mut trace_bytes).unwrap();
    let line = format!(
        "{} outcome {} bytes fnv1a={:016x} trace {} bytes fnv1a={:016x}\n",
        algo.name(),
        outcome_bytes.len(),
        fnv1a(&outcome_bytes),
        trace_bytes.len(),
        fnv1a(&trace_bytes),
    );
    (outcome, trace, line)
}

/// Slots in which every core was in use and a memory-only job was still
/// granted a task.
fn memory_only_grants_on_a_full_cpu(outcome: &SimOutcome, trace: &DecisionTrace) -> usize {
    let (_, wl) = scenario();
    let first_adhoc: usize = wl.workflows.iter().map(|w| w.workflow.len()).sum();
    let memory_only = |id: JobId| {
        let row = id.as_u64() as usize;
        row >= first_adhoc && wl.adhoc[row - first_adhoc].spec.per_task() == MEMORY_ONLY
    };
    let mut slots: Vec<u64> = trace
        .events()
        .filter_map(|e| match *e {
            TraceEvent::Grant { slot, job, .. }
                if memory_only(job)
                    && outcome.metrics.slot_loads[slot as usize].dim(0) == CORES =>
            {
                Some(slot)
            }
            _ => None,
        })
        .collect();
    slots.dedup();
    slots.len()
}

#[test]
fn zero_shaped_tasks_are_served_on_a_full_cpu_by_all_six_schedulers() {
    let mut golden = String::new();
    for algo in Algo::FIG4 {
        let (outcome, trace, line) = run(algo);
        assert!(outcome.is_complete(), "{}", algo.name());
        assert!(
            outcome.engine_telemetry.peak_live_jobs >= 500,
            "{}: backlog peaked at {}",
            algo.name(),
            outcome.engine_telemetry.peak_live_jobs
        );
        assert!(
            memory_only_grants_on_a_full_cpu(&outcome, &trace) > 0,
            "{}: no memory-only grant in a slot with every core in use",
            algo.name()
        );
        golden.push_str(&line);
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/zero_shape.txt");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, &golden).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(&path)
        .expect("tests/golden/zero_shape.txt missing — regenerate with GOLDEN_REGEN=1");
    assert_eq!(
        golden, pinned,
        "zero-shape outcomes or traces diverged; if intentional, regenerate with GOLDEN_REGEN=1"
    );
}
