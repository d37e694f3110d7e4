//! Warm-start equivalence harness (this PR's headline test): warm-started
//! simplex, cold simplex, and the parametric-flow backend must produce
//! plans with identical lexicographic load profiles and objective vectors,
//! both on randomized standalone instances and along replayed replan
//! sequences of the kind fault injection produces (completions shrinking
//! demands, elapsed time shifting the horizon, capacity churn).
//!
//! The equivalence argument being checked: every lexmin round's **main**
//! solve is cold in both configurations, and necessity trials — probes of
//! that solve's retained optimum in one, cold rebuilds in the other — only
//! compare the optimal *objective* against a threshold, a quantity probe
//! and cold solve provably share; so freezing decisions, and with them the
//! final allocation, must be bit-identical.
//!
//! Since the flow backend took over uniform shapes, the only product path
//! into the simplex is `backend::solve_with`'s heterogeneous-shape
//! fallback; the generator therefore also draws two-shape instances,
//! per-slot capacities and zero-capacity slots, and holds that fallback to
//! the same equivalence.

use flowtime::lp_sched::{
    backend::plan_peak, lexmin, rounding, LevelingProblem, PlanJob, SolveStats, SolverBackend,
};
use flowtime_dag::{JobId, ResourceVec, NUM_RESOURCES};
use proptest::prelude::*;

/// Freeze/re-solve budget deep enough to exercise several necessity-trial
/// rounds on the generated instances.
const LEX_ROUNDS: usize = 6;

/// The two task shapes of the generator: the YARN container every
/// uniform instance uses, and a core-heavy one.
const SHAPES: [[u64; 2]; 2] = [[1, 1024], [2, 512]];

/// A random leveling instance, mostly feasible. A third of the instances
/// keep one task shape and one slot capacity (so the parametric-flow
/// backend applies); the rest mix both shapes over per-slot capacities, a
/// slot in sixteen of them degraded to zero, with demands halved to leave
/// room for that. Jobs may carry per-slot caps.
fn leveling_instance() -> impl Strategy<Value = LevelingProblem> {
    let horizon = 4usize..12;
    horizon.prop_flat_map(|h| {
        let job = (
            0..h - 1usize,
            1usize..=6,
            1u64..=30,
            proptest::option::of(2u64..=8),
            0usize..2,
        )
            .prop_map(move |(start, len, demand, slot_cap, shape)| {
                let end = (start + len).min(h);
                (start.min(end - 1), end, demand, slot_cap, shape)
            });
        // (cores, degraded?) per slot.
        let slot = (5u64..=10, 0usize..16);
        (
            0usize..3,
            proptest::collection::vec(slot, h),
            proptest::collection::vec(job, 1..6),
        )
            .prop_map(move |(kind, slots, jobs)| {
                let uniform = kind == 0;
                LevelingProblem {
                    slot_caps: slots
                        .into_iter()
                        .map(|(cores, degraded)| match (uniform, degraded) {
                            (true, _) => ResourceVec::new([10, 10_240]),
                            (false, 0) => ResourceVec::new([0, 0]),
                            (false, _) => ResourceVec::new([cores, cores * 1024]),
                        })
                        .collect(),
                    jobs: jobs
                        .into_iter()
                        .enumerate()
                        .map(|(i, (start, end, demand, slot_cap, shape))| {
                            let cap = slot_cap.unwrap_or(10).min(10);
                            let room = cap * (end - start) as u64;
                            let demand = demand.min(if uniform { room } else { room / 2 }).max(1);
                            PlanJob {
                                id: JobId::new(i as u64),
                                window: (start, end),
                                demand,
                                per_task: ResourceVec::new(SHAPES[if uniform { 0 } else { shape }]),
                                per_slot_cap: slot_cap,
                            }
                        })
                        .collect(),
                }
            })
    })
}

/// Per-slot normalized loads of a fractional allocation — the vector the
/// lexicographic objective orders.
fn load_profile(p: &LevelingProblem, x: &[Vec<f64>]) -> Vec<[f64; NUM_RESOURCES]> {
    let mut loads = vec![[0.0f64; NUM_RESOURCES]; p.horizon()];
    for (i, job) in p.jobs.iter().enumerate() {
        for t in job.window.0..job.window.1 {
            for (r, load) in loads[t].iter_mut().enumerate() {
                let cap = p.slot_caps[t].dim(r) as f64;
                if cap > 0.0 {
                    *load += x[i][t] * job.per_task.dim(r) as f64 / cap;
                }
            }
        }
    }
    loads
}

/// SplitMix64-style mixer: deterministic pseudo-random streams from
/// proptest-generated seeds without depending on a test-side RNG.
fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs the full three-way equivalence check on one instance. Returns
/// `false` when the instance is infeasible (both configurations must agree
/// on that too), so sequence replays know to stop.
fn check_equivalence(p: &LevelingProblem) -> Result<bool, TestCaseError> {
    let mut warm_stats = SolveStats::default();
    let mut cold_stats = SolveStats::default();
    let warm = lexmin::solve_with_stats(p, LEX_ROUNDS, true, &mut warm_stats);
    let cold = lexmin::solve_with_stats(p, LEX_ROUNDS, false, &mut cold_stats);
    let (warm, cold) = match (warm, cold) {
        (Ok(w), Ok(c)) => (w, c),
        (Err(_), Err(_)) => return Ok(false),
        (w, c) => {
            return Err(TestCaseError::fail(format!(
                "warm/cold disagree on feasibility: {w:?} vs {c:?}"
            )))
        }
    };

    // Warm-started and cold simplex: bit-identical allocations, objective
    // vectors, and (therefore) lexicographic load profiles.
    prop_assert_eq!(&warm.x, &cold.x, "allocations diverged");
    prop_assert_eq!(&warm.thetas, &cold.thetas, "objective vectors diverged");
    prop_assert_eq!(warm.rounds_used, cold.rounds_used);
    prop_assert_eq!(
        load_profile(p, &warm.x),
        load_profile(p, &cold.x),
        "lexicographic load profiles diverged"
    );
    // The cold configuration must never warm-start; both do the same
    // number of LP solves.
    prop_assert_eq!(cold_stats.warm_solves, 0);
    prop_assert_eq!(cold_stats.warm_fallbacks, 0);
    prop_assert_eq!(
        warm_stats.cold_solves + warm_stats.warm_solves,
        cold_stats.cold_solves,
        "solve counts diverged: {:?} vs {:?}",
        warm_stats,
        cold_stats
    );

    let uniform = p.jobs.windows(2).all(|w| w[0].per_task == w[1].per_task);
    if !uniform {
        // Mixed shapes: `ParametricFlow` is the production route into the
        // simplex (the transportation reduction does not apply, so the
        // backend falls back to three lexmin rounds). That plan is the
        // explicit three-round simplex plan, is feasible, and conserves
        // demand; at that depth probes and cold rebuilds agree as well.
        let fallback = p.solve(SolverBackend::ParametricFlow);
        let explicit = p.solve(SolverBackend::Simplex { lex_rounds: 3 });
        match (fallback, explicit) {
            (Ok(f), Ok(s)) => {
                prop_assert_eq!(&f, &s, "fallback is not the three-round simplex plan");
                prop_assert!(rounding::is_feasible(p, &f), "fallback plan infeasible");
                for job in &p.jobs {
                    prop_assert_eq!(f.tasks[&job.id].iter().sum::<u64>(), job.demand);
                }
            }
            (f, s) => {
                return Err(TestCaseError::fail(format!(
                    "fallback and explicit simplex disagree: {f:?} vs {s:?}"
                )))
            }
        }
        let probed = lexmin::solve_with_stats(p, 3, true, &mut SolveStats::default());
        let rebuilt = lexmin::solve_with_stats(p, 3, false, &mut SolveStats::default());
        match (probed, rebuilt) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a.x, &b.x, "three-round allocations diverged");
                prop_assert_eq!(&a.thetas, &b.thetas);
            }
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "three-round runs disagree: {a:?} vs {b:?}"
                )))
            }
        }
        return Ok(true);
    }

    // One shape that is not the unit container: the flow backend levels
    // task counts against whole-task slot capacities, which is the LP's
    // normalized load only when a task is one core.
    if p.jobs[0].per_task != ResourceVec::new(SHAPES[0]) {
        return Ok(true);
    }

    // Unit containers: the parametric-flow backend agrees
    // on the integral min-max objective, with a feasible,
    // demand-conserving plan — and the simplex path's rounded plan matches
    // that same peak.
    let flow = p.solve(SolverBackend::ParametricFlow);
    let simplex = p.solve(SolverBackend::Simplex {
        lex_rounds: LEX_ROUNDS,
    });
    match (flow, simplex) {
        (Ok(f), Ok(s)) => {
            prop_assert!(rounding::is_feasible(p, &f), "flow plan infeasible");
            prop_assert!(rounding::is_feasible(p, &s), "simplex plan infeasible");
            for job in &p.jobs {
                prop_assert_eq!(f.tasks[&job.id].iter().sum::<u64>(), job.demand);
                prop_assert_eq!(s.tasks[&job.id].iter().sum::<u64>(), job.demand);
            }
            let pf = plan_peak(p, &f);
            let ps = plan_peak(p, &s);
            // The fractional optimum lower-bounds every integral plan, and
            // the flow backend's first round is integrally min-max optimal,
            // so no integral plan (the rounded LP included) beats it.
            prop_assert!(cold.thetas[0] <= pf + 1e-6, "flow {pf} beat the LP bound");
            prop_assert!(pf <= ps + 1e-6, "flow peak {pf} beaten by rounded LP {ps}");
            // On uniform slot caps, rounding preserves the peak exactly and
            // the two integral optima coincide; heterogeneous caps (from
            // capacity-churn events) admit a one-task rounding gap.
            if p.slot_caps.windows(2).all(|w| w[0] == w[1]) {
                prop_assert!((pf - ps).abs() < 1e-6, "flow peak {pf} vs simplex {ps}");
            }
        }
        (Err(_), Err(_)) => {}
        (f, s) => {
            return Err(TestCaseError::fail(format!(
                "backends disagree on feasibility: {f:?} vs {s:?}"
            )))
        }
    }
    Ok(true)
}

/// One replayed replan event, derived deterministically from a seed: the
/// same mutation kinds fault injection feeds the scheduler.
fn apply_replan_event(p: &mut LevelingProblem, seed: u64) {
    match seed % 3 {
        // Completions between replans: demands shrink, structure unchanged
        // (the realistic warm-start case fig7 measures).
        0 => {
            for (i, job) in p.jobs.iter_mut().enumerate() {
                let cut = mix(seed, i as u64) % (job.demand / 4 + 1);
                job.demand = (job.demand - cut).max(1);
            }
        }
        // One slot of elapsed time: the horizon's first slot falls off and
        // every window relabels down by one (the PlanCache shift case).
        1 => {
            if p.horizon() <= 2 {
                return;
            }
            p.slot_caps.remove(0);
            p.jobs.retain(|j| j.window.1 > 1);
            for job in &mut p.jobs {
                job.window = (job.window.0.saturating_sub(1), job.window.1 - 1);
                // Work that had to run in the dropped slot counts as done.
                let len = (job.window.1 - job.window.0) as u64;
                let cap = job.per_slot_cap.unwrap_or(10).min(10);
                job.demand = job.demand.min(cap * len).max(1);
            }
        }
        // Capacity churn: one slot degrades to a smaller cluster.
        _ => {
            let t = (mix(seed, 77) as usize) % p.horizon();
            let cores = 5 + mix(seed, 78) % 6;
            p.slot_caps[t] = ResourceVec::new([cores, cores * 1024]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized standalone instances: warm-started simplex, cold simplex
    /// and parametric flow are plan-equivalent.
    #[test]
    fn warm_cold_and_flow_agree_on_random_instances(p in leveling_instance()) {
        check_equivalence(&p)?;
    }

    /// Replayed replan sequences: starting from a random instance, a
    /// deterministic stream of completion / elapsed-time / capacity-churn
    /// events is applied, and every step of the resulting replan sequence
    /// must preserve the three-way equivalence. A step that turns the
    /// instance infeasible ends the sequence (warm and cold must agree on
    /// the infeasibility, which `check_equivalence` asserts).
    #[test]
    fn equivalence_holds_along_replayed_replan_sequences(
        p in leveling_instance(),
        events in proptest::collection::vec(0u64..u64::MAX, 3..8),
    ) {
        let mut current = p;
        if !check_equivalence(&current)? {
            return Ok(());
        }
        for &seed in &events {
            apply_replan_event(&mut current, seed);
            if current.jobs.is_empty() {
                break;
            }
            if !check_equivalence(&current)? {
                break;
            }
        }
    }
}

fn unit_job(id: u64, window: (usize, usize), demand: u64, per_slot_cap: Option<u64>) -> PlanJob {
    PlanJob {
        id: JobId::new(id),
        window,
        demand,
        per_task: ResourceVec::new(SHAPES[0]),
        per_slot_cap,
    }
}

/// Case 27 of the replay property above, as it stood before the generator
/// grew: in its second round slots 8–10 are frozen at `0.833333333·C`, three
/// caps that sum to 24.99999999 core-slots under a demand of 25, so the
/// round's own optimum carries a memory-row slack of −1.0e-5. A probe's
/// dual repair finds that row with no entering candidate. Read as a proof
/// of infeasibility (any gap above 1e-7) it freezes slot 5 at the wrong
/// level and the allocation diverges from the all-cold reference; with the
/// certificate's relative margin the probe is undecided, the trial is
/// solved cold, and every verdict agrees. (`flowtime-lp` pins the same LP
/// and shows the naive reading fails on it.)
#[test]
fn case_27_rounding_in_a_frozen_row_does_not_flip_a_freeze() {
    let p = LevelingProblem {
        slot_caps: vec![ResourceVec::new([10, 10_240]); 11],
        jobs: vec![
            unit_job(0, (1, 2), 5, Some(6)),
            unit_job(1, (2, 8), 12, Some(4)),
            unit_job(2, (0, 5), 10, Some(2)),
            unit_job(3, (1, 6), 3, Some(4)),
            unit_job(4, (8, 11), 25, None),
        ],
    };
    assert!(matches!(check_equivalence(&p), Ok(true)));
    let mut stats = SolveStats::default();
    let plan = lexmin::solve_with_stats(&p, LEX_ROUNDS, true, &mut stats).unwrap();
    assert!((plan.thetas[1] - 0.7).abs() < 1e-9, "{:?}", plan.thetas);
    assert!(stats.warm_fallbacks > 0, "nothing was undecided: {stats:?}");
}

/// The counted row: a trial that is tight *by infeasibility* is decided
/// where it is probed. Job 0 fills both of its slots to its per-slot cap,
/// so capping either below that level leaves its demand no room — the
/// four trials of round one are all infeasible. The parent answered each
/// with a failed warm start plus a cold solve; now the dual repair's
/// certificate answers, and the only cold solves left are the main solves.
#[test]
fn an_infeasible_trial_is_decided_in_place() {
    let p = LevelingProblem {
        slot_caps: vec![ResourceVec::new([10, 10_240]); 8],
        jobs: vec![
            unit_job(0, (0, 2), 14, Some(7)),
            unit_job(1, (2, 8), 12, None),
        ],
    };
    let mut probed = SolveStats::default();
    let mut rebuilt = SolveStats::default();
    let plan = lexmin::solve_with_stats(&p, LEX_ROUNDS, true, &mut probed).unwrap();
    let reference = lexmin::solve_with_stats(&p, LEX_ROUNDS, false, &mut rebuilt).unwrap();
    assert_eq!(plan.x, reference.x);
    assert_eq!(plan.thetas, reference.thetas);
    assert_eq!(plan.thetas[..2], [0.7, 0.2]);
    assert_eq!(probed.warm_fallbacks, 0, "{probed:?}");
    assert_eq!(probed.cold_solves, plan.rounds_used as u64, "{probed:?}");
    // One count per trial either way; here every trial is a probe.
    assert!(probed.warm_solves >= 4, "{probed:?}");
    assert_eq!(rebuilt.cold_solves, probed.cold_solves + probed.warm_solves);
}
