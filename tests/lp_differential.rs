//! Differential-oracle suite for the two LP engines.
//!
//! The sparse revised simplex (production engine) is checked against the
//! dense tableau oracle on three levels:
//!
//! 1. **Raw LPs** — a proptest corpus of random feasible / infeasible /
//!    unbounded / degenerate instances where both engines must agree on
//!    the result kind, on the objective to 1e-9, and return feasible
//!    optimal vertices.
//! 2. **Plans** — replayed warm-start replan sequences on the Lemma 2
//!    interval family, where the *rounded* allocations (what the scheduler
//!    consumes) must be identical across engines, step by step.
//! 3. **Simulations** — the golden-scenario triple and the fault-seed
//!    corpus from `tests/differential.rs`, where every scheduler's
//!    serialized [`SimOutcome`] must be byte-identical with
//!    [`set_default_engine`] at `Sparse` vs `Dense` (the dense tableau is
//!    compiled only into tests, via the root dev-dependency's `oracle`
//!    feature — no release binary contains it).
//!
//! Tests that flip the process-wide default engine serialize on a mutex
//! and restore the sparse default before releasing it; everything else
//! pins the engine per solve via [`SimplexOptions::engine`].

use flowtime::lp_sched::SolverBackend;
use flowtime::{FlowTimeConfig, FlowTimeScheduler};
use flowtime_bench::experiments::{faulted_instance, testbed_cluster, Algo, WorkflowExperiment};
use flowtime_bench::scaling::{interval_instance, perturbed};
use flowtime_dag::ResourceVec;
use flowtime_lp::{
    set_default_engine, Basis, Problem, Relation, SimplexEngine, SimplexOptions, Solution,
};
use flowtime_sim::prelude::*;
use flowtime_sim::{Scheduler, SimOutcome};
use flowtime_workload::trace::{ProductionTraceConfig, Trace};
use proptest::prelude::*;
use std::sync::Mutex;

/// Guards flips of the process-wide default engine: tests in this binary
/// run on parallel threads, and ambient-engine comparisons must not
/// observe each other's flips.
static ENGINE_LOCK: Mutex<()> = Mutex::new(());

fn opts_for(engine: SimplexEngine) -> SimplexOptions {
    SimplexOptions {
        engine: Some(engine),
        ..SimplexOptions::default()
    }
}

// ---------------------------------------------------------------------
// Level 1: raw LP corpus.
// ---------------------------------------------------------------------

/// Raw material for a random general-form LP. Degeneracy is injected by
/// zeroing a fraction of the right-hand sides; infeasibility and
/// unboundedness arise naturally from sign combinations.
#[derive(Debug, Clone)]
struct RawLp {
    vars: Vec<(f64, f64)>,             // (cost, upper; f64::INFINITY allowed)
    rows: Vec<(Vec<f64>, usize, f64)>, // (coefs, relation 0..3, rhs)
}

fn raw_lp() -> impl Strategy<Value = RawLp> {
    (2usize..6).prop_flat_map(|n| {
        // (cost, bounded?, upper): every third variable is unbounded above.
        let var = (-5.0f64..5.0, 0usize..3, 1.0f64..10.0)
            .prop_map(|(c, k, u)| (c, if k == 0 { f64::INFINITY } else { u }));
        // (coefs, relation, zero-rhs?, rhs): a third of rows are
        // degenerate at zero.
        let row = (
            proptest::collection::vec(-3.0f64..3.0, n),
            0usize..3,
            (0usize..3, -8.0f64..8.0).prop_map(|(k, r)| if k == 0 { 0.0 } else { r }),
        );
        (
            proptest::collection::vec(var, n),
            proptest::collection::vec(row, 1..5),
        )
            .prop_map(|(vars, rows)| RawLp { vars, rows })
    })
}

fn build(raw: &RawLp) -> Problem {
    let mut p = Problem::new();
    let vars: Vec<_> = raw
        .vars
        .iter()
        .map(|&(c, u)| p.add_var(c, 0.0, u).unwrap())
        .collect();
    for (coefs, rel, rhs) in &raw.rows {
        let rel = match rel {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        let terms: Vec<_> = vars
            .iter()
            .zip(coefs)
            .filter(|&(_, &c)| c != 0.0)
            .map(|(&v, &c)| (v, c))
            .collect();
        if !terms.is_empty() {
            p.add_constraint(&terms, rel, *rhs).unwrap();
        }
    }
    p
}

fn assert_optimal_agreement(p: &Problem, s: &Solution, d: &Solution) -> Result<(), TestCaseError> {
    let scale = 1.0 + d.objective.abs();
    prop_assert!(
        (s.objective - d.objective).abs() <= 1e-9 * scale,
        "objectives: sparse {} vs dense {}",
        s.objective,
        d.objective
    );
    // Optimal-basis feasibility: both vertices satisfy the constraints.
    prop_assert!(p.is_feasible(&s.x, 1e-6), "sparse vertex infeasible");
    prop_assert!(p.is_feasible(&d.x, 1e-6), "dense vertex infeasible");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Both engines classify every random LP identically (optimal /
    /// infeasible / unbounded) and agree on optimal objectives to 1e-9.
    #[test]
    fn engines_agree_on_random_lp_corpus(raw in raw_lp()) {
        let p = build(&raw);
        let s = p.solve_with(&opts_for(SimplexEngine::Sparse));
        let d = p.solve_with(&opts_for(SimplexEngine::Dense));
        match (s, d) {
            (Ok(s), Ok(d)) => assert_optimal_agreement(&p, &s, &d)?,
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "error kinds differ"),
            (s, d) => prop_assert!(false, "engines disagree: sparse {s:?} vs dense {d:?}"),
        }
    }

    /// Fully degenerate corner: every RHS zero, so the origin is an
    /// optimal or starting vertex with massive ties. Both engines still
    /// agree, and neither hangs (degeneracy is where cycling would bite).
    #[test]
    fn engines_agree_on_degenerate_corpus(raw in raw_lp()) {
        let mut raw = raw;
        for row in &mut raw.rows {
            row.2 = 0.0;
        }
        let p = build(&raw);
        let s = p.solve_with(&opts_for(SimplexEngine::Sparse));
        let d = p.solve_with(&opts_for(SimplexEngine::Dense));
        match (s, d) {
            (Ok(s), Ok(d)) => assert_optimal_agreement(&p, &s, &d)?,
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "error kinds differ"),
            (s, d) => prop_assert!(false, "engines disagree: sparse {s:?} vs dense {d:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Level 2: warm-start replan sequences → identical rounded plans.
// ---------------------------------------------------------------------

/// One engine's view of a replayed replan chain: the rounded allocation
/// of every variable at every step (what the rounding layer hands the
/// scheduler), plus which steps warm-started.
fn replay_chain(engine: SimplexEngine, steps: u64) -> (Vec<Vec<i64>>, Vec<bool>) {
    let opts = opts_for(engine);
    let base = interval_instance(40, 0xd1ff);
    let first = base.problem.solve_warm(&opts, None).expect("feasible");
    let mut basis: Basis = first.basis;
    let mut plans = vec![first.solution.x.iter().map(|v| v.round() as i64).collect()];
    let mut warm = vec![first.warm_used];
    for step in 0..steps {
        let replan = perturbed(&base, step + 1, 0xd1ff);
        let res = replan
            .problem
            .solve_warm(&opts, Some(&basis))
            .expect("feasible replan");
        plans.push(res.solution.x.iter().map(|v| v.round() as i64).collect());
        warm.push(res.warm_used);
        basis = res.basis;
    }
    (plans, warm)
}

/// A replayed warm-start sequence produces byte-identical rounded plans
/// on both engines — the PR 2 warm-start contract is engine-independent.
#[test]
fn warm_start_replay_produces_identical_plans_across_engines() {
    let (sparse_plans, sparse_warm) = replay_chain(SimplexEngine::Sparse, 8);
    let (dense_plans, dense_warm) = replay_chain(SimplexEngine::Dense, 8);
    assert_eq!(sparse_warm, dense_warm, "warm-start acceptance diverged");
    assert!(
        sparse_warm.iter().skip(1).all(|&w| w),
        "replans should all warm-start"
    );
    for (step, (s, d)) in sparse_plans.iter().zip(&dense_plans).enumerate() {
        assert_eq!(s, d, "rounded plan diverged at step {step}");
    }
}

// ---------------------------------------------------------------------
// Level 3: whole simulations, byte-identical outcomes.
// ---------------------------------------------------------------------

/// Simplex-backed FlowTime configuration: routes every placement LP
/// through the engine under test (the default parametric-flow backend
/// would bypass the simplex entirely). The planning horizon is capped so
/// loose-deadline workloads produce hundreds-of-rows LPs per replan, not
/// the default 4096-slot horizon — this is an engine-equivalence test,
/// and both engines see the identical configuration.
fn simplex_flowtime(cluster: &ClusterConfig, slack: u64) -> Box<dyn Scheduler> {
    Box::new(FlowTimeScheduler::new(
        cluster.clone(),
        FlowTimeConfig {
            slack_slots: slack,
            backend: SolverBackend::Simplex { lex_rounds: 2 },
            max_horizon: 128,
            ..Default::default()
        },
    ))
}

fn run_outcome(scheduler: &mut dyn Scheduler, cluster: &ClusterConfig, w: SimWorkload) -> String {
    let outcome: SimOutcome = Engine::new(cluster.clone(), w, 1_000_000)
        .expect("valid workload")
        .with_timeline()
        .run(scheduler)
        .expect("no invariant violations");
    serde_json::to_string(&outcome).expect("serializable")
}

/// All six schedulers produce byte-identical serialized outcomes under
/// the sparse vs dense engine across the differential fault-seed corpus.
/// FlowTime runs with the simplex backend so the LP engine is actually on
/// the decision path; the baselines prove engine flips leak nowhere else.
///
/// A simplex-backed simulation is ~two orders of magnitude slower in a
/// debug build, so the quick `cargo test` pass covers a 3-seed slice; the
/// full 20-seed corpus runs in release in CI's `lp-differential` job.
#[test]
fn six_schedulers_bit_identical_outcomes_across_engines() {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let seeds: u64 = if cfg!(debug_assertions) { 3 } else { 20 };
    let cluster = testbed_cluster();
    let exp = WorkflowExperiment {
        workflows: 2,
        jobs_per_workflow: 6,
        adhoc_horizon: 60,
        ..Default::default()
    };
    for fault_seed in 0..seeds {
        let (workload, faulted_cluster) =
            faulted_instance(&exp, &cluster, FaultConfig::mixed(fault_seed));
        for algo in Algo::FIG4 {
            let mut runs = Vec::with_capacity(2);
            for engine in [SimplexEngine::Sparse, SimplexEngine::Dense] {
                set_default_engine(engine);
                let mut scheduler = match algo {
                    Algo::FlowTime => simplex_flowtime(&faulted_cluster, 6),
                    other => other.make(&faulted_cluster),
                };
                runs.push(run_outcome(
                    scheduler.as_mut(),
                    &faulted_cluster,
                    workload.clone(),
                ));
            }
            set_default_engine(SimplexEngine::Sparse);
            assert_eq!(
                runs[0],
                runs[1],
                "seed {fault_seed}: {} outcome differs sparse vs dense",
                algo.name()
            );
        }
    }
}

/// The golden-scenario triple (the fixed faulted run pinned by
/// `tests/golden/outcome.json` / `decision_trace.jsonl`), re-run with the
/// simplex placement backend: byte-identical outcomes across engines.
#[test]
fn golden_scenario_bit_identical_across_engines() {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = ClusterConfig::new(ResourceVec::new([16, 65_536]), 10.0);
    let trace = Trace::synthesize_production(
        cluster,
        &ProductionTraceConfig {
            workflows: 2,
            jobs_per_workflow: 5,
            adhoc_horizon: 40,
            ..Default::default()
        },
        11,
    );
    let mut workload = trace.workload.clone();
    let mut faulted_cluster = trace.cluster.clone();
    FaultPlan::new(FaultConfig::mixed(7)).apply(&mut workload, &mut faulted_cluster, 200);
    let mut runs = Vec::with_capacity(2);
    for engine in [SimplexEngine::Sparse, SimplexEngine::Dense] {
        set_default_engine(engine);
        let mut scheduler = simplex_flowtime(&faulted_cluster, 6);
        runs.push(run_outcome(
            scheduler.as_mut(),
            &faulted_cluster,
            workload.clone(),
        ));
    }
    set_default_engine(SimplexEngine::Sparse);
    assert_eq!(runs[0], runs[1], "golden scenario diverged across engines");
}
