//! Carried-round equivalence harness: a lexmin solve that runs one cold
//! solve and continues from its retained optimum — necessity trials as
//! probes, every later round's main solve as a commit — against the
//! all-cold reference that rebuilds and solves every trial and every
//! round from scratch, and both against the parametric-flow backend, on
//! randomized standalone instances and along replayed replan sequences of
//! the kind fault injection produces (completions shrinking demands,
//! elapsed time shifting the horizon, capacity churn).
//!
//! The equivalence argument being checked: the objective of every LP
//! involved is unique, so a round's optimal peak (`thetas`), the verdict
//! of every trial (probe and cold solve agree on the optimal objective)
//! and the number of rounds agree, whichever way each LP was solved. What
//! may differ is the vertex a degenerate round lands on — a commit
//! continues from the last one, the rebuild starts from the all-artificial
//! basis — and with it the allocation `x` and which pairs sit at the peak
//! and are tried: a tie-fallback freeze (all peaks of that vertex), and a
//! pair necessary only within the trial's margin that one vertex has just
//! under the peak. Rounding either allocation must still give a feasible,
//! demand-conserving plan.
//!
//! Since the flow backend took over uniform shapes, the only product path
//! into the simplex is `backend::solve_with`'s heterogeneous-shape
//! fallback; the generator therefore also draws two-shape instances,
//! per-slot capacities and zero-capacity slots, and holds that fallback to
//! the same equivalence.

use flowtime::lp_sched::{
    backend::plan_peak,
    formulation,
    lexmin::{self, FractionalPlan},
    rounding, LevelingProblem, PlanJob, SolveStats, SolverBackend,
};
use flowtime_dag::{JobId, ResourceVec};
use flowtime_lp::{LpError, SimplexOptions};
use proptest::prelude::*;
use std::collections::HashMap;

/// Absolute load caps of frozen `(slot, resource)` pairs.
type Frozen = HashMap<(usize, usize), f64>;

/// Freeze/re-solve budget deep enough to exercise several necessity-trial
/// rounds on the generated instances.
const LEX_ROUNDS: usize = 6;

/// How far a carried round's `θ` may sit from the reference's, against
/// `1 + θ`. Each is read off a vertex on the solver's 1e-9 grid, and every
/// frozen level is such a `θ` times `C`, so a later round's LP may be
/// feasible only within the solver's tolerances (1e-7 on a basic value,
/// ratio ties within 1e-6): which vertex a solve of it ends on moves its
/// `θ` by grid steps, and a step in one round's `θ` moves the next round's
/// LP. Measured over this file's instances and the ill-scaled family of
/// `tests/solver_props.rs`: at most 4 steps (3.1e-9 against `1 + θ`), in
/// both directions, with the reference off a round value as often as the
/// carried run. 1e-9 does not hold on that corpus.
const THETA_TOL: f64 = 1e-8;

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

/// Whether `pair`, capped just below its level at peak `theta`, makes the
/// LP with `frozen` infeasible or raises its peak — lexmin's necessity
/// trial, solved cold.
fn necessary(p: &LevelingProblem, frozen: &Frozen, pair: (usize, usize), theta: f64) -> bool {
    let level = theta * p.slot_caps[pair.0].dim(pair.1) as f64;
    let mut trial = frozen.clone();
    trial.insert(pair, (level - (level * 1e-3).max(0.5)).max(0.0));
    let f = formulation::build(p, &trial).unwrap();
    match f.problem.solve_with(&SimplexOptions::default()) {
        Ok(solution) => solution.value(f.theta) > theta + 1e-6,
        Err(LpError::Infeasible) => true,
        Err(e) => panic!("trial of {pair:?}: {e}"),
    }
}

/// `carried` against the all-cold `reference` on `p`: equal objective
/// vectors (to [`THETA_TOL`]) and round counts; equal freezes for every
/// round whose LP is the same in both — the first, and each one after a
/// round that froze the same pairs. Only the pairs at the peak of a
/// round's vertex are tried, so two vertices may freeze differently: a
/// tie-fallback freeze may pick other peaks (only its flag must agree),
/// and a pair necessary only within the trial's margin may sit at the
/// peak in one vertex and just under it in the other — every pair one
/// configuration froze and the other did not must then pass a cold
/// necessity trial. Rounding the carried allocation gives a feasible,
/// demand-conserving plan.
fn check_carried(
    p: &LevelingProblem,
    carried: &FractionalPlan,
    reference: &FractionalPlan,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(carried.rounds_used, reference.rounds_used);
    prop_assert_eq!(carried.thetas.len(), reference.thetas.len());
    for (k, (a, b)) in carried.thetas.iter().zip(&reference.thetas).enumerate() {
        prop_assert!(
            (a - b).abs() <= THETA_TOL * (1.0 + b.abs()),
            "round {}: carried theta {} vs reference {}",
            k,
            a,
            b
        );
    }
    prop_assert_eq!(carried.freezes.len(), reference.freezes.len());
    let mut frozen = Frozen::new();
    for (k, (a, b)) in carried.freezes.iter().zip(&reference.freezes).enumerate() {
        prop_assert_eq!(a.necessary, b.necessary, "{:?} vs {:?}", a, b);
        if a != b {
            if b.necessary {
                let only_one = a.pairs.iter().filter(|pair| !b.pairs.contains(pair));
                for &pair in only_one.chain(b.pairs.iter().filter(|pair| !a.pairs.contains(pair))) {
                    prop_assert!(
                        necessary(p, &frozen, pair, reference.thetas[k]),
                        "round {}: {:?} frozen by one configuration only and not necessary",
                        k,
                        pair
                    );
                }
            }
            break; // the next rounds solve different LPs
        }
        let theta = reference.thetas[k];
        for &(t, r) in &b.pairs {
            frozen.insert((t, r), theta * p.slot_caps[t].dim(r) as f64);
        }
    }
    let plan = rounding::round_plan(p, &carried.x);
    prop_assert!(rounding::is_feasible(p, &plan), "carried plan infeasible");
    for job in &p.jobs {
        prop_assert_eq!(plan.tasks[&job.id].iter().sum::<u64>(), job.demand);
    }
    Ok(())
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
    check_carried(p, &warm, &cold)?;
    let reference = rounding::round_plan(p, &cold.x);
    prop_assert!(
        rounding::is_feasible(p, &reference),
        "reference plan infeasible"
    );
    // The cold configuration never warm-starts; the carried one solves
    // cold once plus once per undecided probe or commit. (How many trials
    // each runs depends on the vertex: a pair tight by accident is a
    // candidate in one and not in the other.)
    prop_assert_eq!(cold_stats.warm_solves, 0);
    prop_assert_eq!(cold_stats.warm_fallbacks, 0);
    prop_assert_eq!(warm_stats.cold_solves, 1 + warm_stats.warm_fallbacks);

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
        let carried = lexmin::solve_with_stats(p, 3, true, &mut SolveStats::default());
        let rebuilt = lexmin::solve_with_stats(p, 3, false, &mut SolveStats::default());
        match (carried, rebuilt) {
            (Ok(a), Ok(b)) => check_carried(p, &a, &b)?,
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
/// level and the objective vector diverges from the all-cold reference;
/// with the certificate's relative margin the repair cannot decide, primal
/// phase 1 takes the row for the rounding it is, and every verdict agrees
/// without a cold trial. (`flowtime-lp` pins the same LP and shows the
/// naive reading fails on it.)
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
    assert_eq!(stats.warm_fallbacks, 0, "{stats:?}");
    assert_eq!(stats.cold_solves, 1, "{stats:?}");
}

/// A pair necessary only within the trial's margin, under the peak in one
/// vertex (case 21 of the replay property above). At round two's peak of
/// a third, slot 8 takes at most 3 of job 1's 5 tasks (a third of 9
/// cores), so slot 7 carries at least 2; a third of its 7 cores is 2.33
/// and the trial caps it at 1.83, so it is necessary. The all-cold reference's vertex has it at
/// the peak and freezes it at 2.33; the vertex the commit lands on holds
/// it at 2, so it is not tried there. Both configurations still reach the
/// objective vector the parent's all-cold lexmin computes.
#[test]
fn a_necessary_pair_under_the_peak_changes_no_theta() {
    let job = |id: u64, window: (usize, usize), demand: u64, shape: usize, cap: u64| PlanJob {
        id: JobId::new(id),
        window,
        demand,
        per_task: ResourceVec::new(SHAPES[shape]),
        per_slot_cap: Some(cap),
    };
    let p = LevelingProblem {
        slot_caps: [5, 6, 9, 0, 9, 9, 8, 7, 9, 10]
            .iter()
            .map(|&cores| ResourceVec::new([cores, cores * 1024]))
            .collect(),
        jobs: vec![
            job(0, (2, 5), 3, 1, 2),
            job(1, (7, 9), 5, 0, 5),
            job(2, (0, 2), 9, 0, 6),
            job(3, (5, 10), 6, 0, 7),
        ],
    };
    let parent = [
        0.818181818,
        0.333333333,
        0.3125,
        0.222222222,
        0.083333333,
        0.0,
    ];
    for rounds in [3, LEX_ROUNDS] {
        let mut stats = SolveStats::default();
        let carried = lexmin::solve_with_stats(&p, rounds, true, &mut stats).unwrap();
        let reference =
            lexmin::solve_with_stats(&p, rounds, false, &mut SolveStats::default()).unwrap();
        assert_eq!(carried.thetas, parent[..rounds], "{rounds} rounds");
        assert_eq!(reference.thetas, parent[..rounds], "{rounds} rounds");
        assert!(
            reference.freezes[1].pairs.contains(&(7, 0)),
            "{reference:?}"
        );
        assert!(!carried.freezes[1].pairs.contains(&(7, 0)), "{carried:?}");
        check_carried(&p, &carried, &reference).unwrap();
        assert_eq!(stats.cold_solves, 1, "{stats:?}");
    }
}

/// The counted row of trials: a trial that is tight *by infeasibility* is
/// decided where it is probed. Job 0 fills both of its slots to its
/// per-slot cap, so capping either below that level leaves its demand no
/// room — the four trials of round one are all infeasible, and the dual
/// repair's certificate answers each. The one cold solve left is round
/// one's; every later round is a commit.
#[test]
fn an_infeasible_trial_is_decided_in_place() {
    let p = LevelingProblem {
        slot_caps: vec![ResourceVec::new([10, 10_240]); 8],
        jobs: vec![
            unit_job(0, (0, 2), 14, Some(7)),
            unit_job(1, (2, 8), 12, None),
        ],
    };
    let mut carried = SolveStats::default();
    let mut rebuilt = SolveStats::default();
    let plan = lexmin::solve_with_stats(&p, LEX_ROUNDS, true, &mut carried).unwrap();
    let reference = lexmin::solve_with_stats(&p, LEX_ROUNDS, false, &mut rebuilt).unwrap();
    assert_eq!(plan.thetas, reference.thetas);
    assert_eq!(plan.freezes, reference.freezes);
    assert_eq!(plan.thetas[..2], [0.7, 0.2]);
    assert_eq!(carried.warm_fallbacks, 0, "{carried:?}");
    assert_eq!(carried.cold_solves, 1, "{carried:?}");
    // One count per trial and per round either way; here every trial is a
    // probe and every round after the first a commit: four trials and at
    // least one commit.
    assert!(carried.warm_solves > 4, "{carried:?}");
    assert_eq!(
        rebuilt.cold_solves,
        carried.cold_solves + carried.warm_solves
    );
}

/// A leveling problem shaped like one `sim-simplex` replan: 32 jobs of
/// four eight-job workflows with staggered windows of 3–8 slots on a
/// 160-core / 640 GiB cluster, three task shapes (one needing no memory),
/// per-slot caps on every job. Deterministic in `seed`.
fn replan_shaped(seed: u64) -> LevelingProblem {
    let shapes = [[1, 1024], [2, 4096], [1, 0]];
    let horizon = 40usize;
    let jobs = (0..32u64)
        .map(|i| {
            let r = mix(seed, i);
            let workflow = (i / 8) as usize;
            let start = (workflow * 6 + (r % 12) as usize).min(horizon - 8);
            let len = 3 + (r >> 8) as usize % 6;
            let cap = 4 + (r >> 16) % 40;
            PlanJob {
                id: JobId::new(i),
                window: (start, start + len),
                demand: (cap * len as u64 / 2).max(1) + (r >> 24) % 7,
                per_task: ResourceVec::new(shapes[(r >> 32) as usize % 3]),
                per_slot_cap: Some(cap),
            }
        })
        .collect();
    LevelingProblem {
        slot_caps: vec![ResourceVec::new([160, 655_360]); horizon],
        jobs,
    }
}

/// The counted row of rounds: on replan-shaped instances a solve is one
/// cold solve however deep it goes — every round after the first is a
/// commit that decides — and reaches the all-cold reference's objective
/// vector through the same freezes.
#[test]
fn a_round_after_the_first_is_a_commit() {
    for seed in 0..4u64 {
        let p = replan_shaped(seed);
        for rounds in [2, LEX_ROUNDS] {
            let mut carried = SolveStats::default();
            let plan = lexmin::solve_with_stats(&p, rounds, true, &mut carried).unwrap();
            let reference =
                lexmin::solve_with_stats(&p, rounds, false, &mut SolveStats::default()).unwrap();
            assert!(plan.rounds_used >= 2, "seed {seed}: {:?}", plan.thetas);
            assert_eq!(
                carried.cold_solves, 1,
                "seed {seed}, {rounds} rounds: {carried:?}"
            );
            assert_eq!(
                carried.warm_fallbacks, 0,
                "seed {seed}, {rounds} rounds: {carried:?}"
            );
            check_carried(&p, &plan, &reference)
                .unwrap_or_else(|e| panic!("seed {seed}, {rounds} rounds: {e:?}"));
        }
    }
}
