//! Property-based cross-validation of the two exact solver backends and
//! the simplex itself, scale-stratified solver-cost properties on the
//! Lemma 2 interval family, and the ill-scaled family: memory rows frozen
//! at `θ·655 360` with `θ` off the solver's grid.

use flowtime::lp_sched::{
    backend::plan_peak, formulation, lexmin, rounding, LevelingProblem, PlanJob, SolveStats,
    SolverBackend,
};
use flowtime::CoreError;
use flowtime_bench::scaling::{interval_instance, perturbed, perturbed_jobs};
use flowtime_dag::{JobId, ResourceVec};
use flowtime_lp::{Problem, Relation, SimplexEngine, SimplexOptions};
use proptest::prelude::*;
use std::collections::HashMap;

/// A random feasible leveling instance with uniform task shape; jobs may
/// carry per-slot parallelism caps.
fn leveling_instance() -> impl Strategy<Value = LevelingProblem> {
    let horizon = 4usize..12;
    horizon.prop_flat_map(|h| {
        let job = (
            0..h - 1usize,
            1usize..=6,
            1u64..=30,
            proptest::option::of(2u64..=8),
        )
            .prop_map(move |(start, len, demand, slot_cap)| {
                let end = (start + len).min(h);
                (start.min(end - 1), end, demand, slot_cap)
            });
        proptest::collection::vec(job, 1..6).prop_map(move |jobs| LevelingProblem {
            slot_caps: vec![ResourceVec::new([10, 10_240]); h],
            jobs: jobs
                .into_iter()
                .enumerate()
                .map(|(i, (start, end, demand, slot_cap))| {
                    // Cap demand so the job alone always fits its window.
                    let cap = slot_cap.unwrap_or(10).min(10);
                    let demand = demand.min(cap * (end - start) as u64);
                    PlanJob {
                        id: JobId::new(i as u64),
                        window: (start, end),
                        demand: demand.max(1).min(cap * (end - start) as u64).max(1),
                        per_task: ResourceVec::new([1, 1024]),
                        per_slot_cap: slot_cap,
                    }
                })
                .collect(),
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The parametric-flow and simplex backends find the same optimal peak,
    /// and both plans are feasible (Lemma 2 equivalence).
    #[test]
    fn backends_agree_on_min_max_peak(p in leveling_instance()) {
        let total: u64 = p.jobs.iter().map(|j| j.demand).sum();
        let capacity_total = 10 * p.horizon() as u64;
        prop_assume!(total <= capacity_total);
        let flow = p.solve(SolverBackend::ParametricFlow);
        let lp = p.solve(SolverBackend::Simplex { lex_rounds: 1 });
        match (flow, lp) {
            (Ok(f), Ok(l)) => {
                prop_assert!(rounding::is_feasible(&p, &f), "flow plan infeasible");
                prop_assert!(rounding::is_feasible(&p, &l), "lp plan infeasible");
                let pf = plan_peak(&p, &f);
                let pl = plan_peak(&p, &l);
                // Integral peaks on a 10-unit cluster are multiples of 0.1.
                prop_assert!((pf - pl).abs() < 1e-6, "flow {pf} vs lp {pl}");
            }
            (Err(_), Err(_)) => {} // both agree it is infeasible
            (f, l) => prop_assert!(false, "backends disagree on feasibility: {f:?} vs {l:?}"),
        }
    }

    /// Simplex solutions are feasible and never beaten by random feasible
    /// points (one-sided optimality check).
    #[test]
    fn simplex_dominates_random_feasible_points(
        c0 in -5.0f64..5.0, c1 in -5.0f64..5.0,
        b0 in 1.0f64..20.0, b1 in 1.0f64..20.0,
        a00 in 0.1f64..3.0, a01 in 0.1f64..3.0,
        a10 in 0.1f64..3.0, a11 in 0.1f64..3.0,
        px in 0.0f64..1.0, py in 0.0f64..1.0,
    ) {
        let mut p = Problem::new();
        let x = p.add_var(c0, 0.0, 10.0).unwrap();
        let y = p.add_var(c1, 0.0, 10.0).unwrap();
        p.add_constraint(&[(x, a00), (y, a01)], Relation::Le, b0).unwrap();
        p.add_constraint(&[(x, a10), (y, a11)], Relation::Le, b1).unwrap();
        let sol = p.solve().unwrap(); // origin is feasible, box-bounded: optimal exists
        prop_assert!(p.is_feasible(&sol.x, 1e-6));
        // A random candidate point, scaled into the feasible region.
        let tx = (b0 / a00).min(b1 / a10).min(10.0) * px;
        let ty = ((b0 - a00 * tx).max(0.0) / a01)
            .min((b1 - a10 * tx).max(0.0) / a11)
            .min(10.0)
            * py;
        prop_assert!(p.is_feasible(&[tx, ty], 1e-6));
        prop_assert!(
            sol.objective <= p.objective_at(&[tx, ty]) + 1e-6,
            "candidate beat the 'optimum': {} < {}",
            p.objective_at(&[tx, ty]),
            sol.objective
        );
    }

    /// Warm-started re-solves after RHS and bound tweaks agree with a
    /// fresh cold solve on the objective to 1e-9, and the warm-returned
    /// vertex is feasible for the *tweaked* problem — i.e. the dual-simplex
    /// repair restored basic-variable feasibility, not just optimality.
    #[test]
    fn warm_resolve_matches_cold_after_bound_and_rhs_tweaks(
        c0 in -5.0f64..5.0, c1 in -5.0f64..5.0,
        b0 in 2.0f64..20.0, b1 in 2.0f64..20.0,
        a00 in 0.1f64..3.0, a01 in 0.1f64..3.0,
        a10 in 0.1f64..3.0, a11 in 0.1f64..3.0,
        db0 in -1.5f64..1.5, db1 in -1.5f64..1.5,
        du0 in -4.0f64..4.0, du1 in -4.0f64..4.0,
    ) {
        let opts = SimplexOptions::default();
        let build = |b0: f64, b1: f64, u0: f64, u1: f64| {
            let mut p = Problem::new();
            let x = p.add_var(c0, 0.0, u0).unwrap();
            let y = p.add_var(c1, 0.0, u1).unwrap();
            p.add_constraint(&[(x, a00), (y, a01)], Relation::Le, b0).unwrap();
            p.add_constraint(&[(x, a10), (y, a11)], Relation::Le, b1).unwrap();
            p
        };
        let base = build(b0, b1, 10.0, 10.0);
        let start = base.solve_warm(&opts, None).unwrap();
        // Tweak both right-hand sides and both upper bounds; the origin
        // stays feasible, so the perturbed LP always has an optimum.
        let tweaked = build(
            (b0 + db0).max(0.5),
            (b1 + db1).max(0.5),
            (10.0 + du0).max(0.5),
            (10.0 + du1).max(0.5),
        );
        let cold = tweaked.solve().unwrap();
        let warm = tweaked.solve_warm(&opts, Some(&start.basis)).unwrap();
        prop_assert!(
            tweaked.is_feasible(&warm.solution.x, 1e-6),
            "warm-returned point violates the tweaked problem"
        );
        let scale = cold.objective.abs().max(1.0);
        prop_assert!(
            (warm.solution.objective - cold.objective).abs() <= 1e-9 * scale,
            "objectives diverged: warm {} vs cold {} (warm_used: {})",
            warm.solution.objective,
            cold.objective,
            warm.warm_used
        );
    }

    /// Structural edits (an added variable) make the exported basis
    /// dimensionally stale; the warm attempt must detect that, fall back to
    /// a cold solve, and still agree with it exactly.
    #[test]
    fn warm_resolve_survives_added_variable(
        c0 in -5.0f64..5.0, c1 in -5.0f64..5.0, c2 in -5.0f64..5.0,
        b0 in 2.0f64..20.0, b1 in 2.0f64..20.0,
        a00 in 0.1f64..3.0, a01 in 0.1f64..3.0, a02 in 0.1f64..3.0,
        a10 in 0.1f64..3.0, a11 in 0.1f64..3.0, a12 in 0.1f64..3.0,
    ) {
        let opts = SimplexOptions::default();
        let mut base = Problem::new();
        let x = base.add_var(c0, 0.0, 10.0).unwrap();
        let y = base.add_var(c1, 0.0, 10.0).unwrap();
        base.add_constraint(&[(x, a00), (y, a01)], Relation::Le, b0).unwrap();
        base.add_constraint(&[(x, a10), (y, a11)], Relation::Le, b1).unwrap();
        let start = base.solve_warm(&opts, None).unwrap();

        let mut grown = Problem::new();
        let x = grown.add_var(c0, 0.0, 10.0).unwrap();
        let y = grown.add_var(c1, 0.0, 10.0).unwrap();
        let z = grown.add_var(c2, 0.0, 10.0).unwrap();
        grown.add_constraint(&[(x, a00), (y, a01), (z, a02)], Relation::Le, b0).unwrap();
        grown.add_constraint(&[(x, a10), (y, a11), (z, a12)], Relation::Le, b1).unwrap();
        let cold = grown.solve().unwrap();
        let warm = grown.solve_warm(&opts, Some(&start.basis)).unwrap();
        prop_assert!(!warm.warm_used, "stale basis must not be adopted");
        prop_assert!(grown.is_feasible(&warm.solution.x, 1e-6));
        prop_assert!(
            (warm.solution.objective - cold.objective).abs() <= 1e-9 * cold.objective.abs().max(1.0)
        );
    }

    /// Rounding preserves totals and feasibility for fractional inputs.
    #[test]
    fn rounding_preserves_demands(p in leveling_instance()) {
        let total: u64 = p.jobs.iter().map(|j| j.demand).sum();
        prop_assume!(total <= 10 * p.horizon() as u64);
        if let Ok(plan) = p.solve(SolverBackend::Simplex { lex_rounds: 2 }) {
            for job in &p.jobs {
                let got: u64 = plan.tasks[&job.id].iter().sum();
                prop_assert_eq!(got, job.demand, "job {} total", job.id);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Scale-stratified solver-cost properties (n ∈ {10, 100, 1000}).
//
// These assert *deterministic work counters* (`Solution::work`: tableau
// cells touched on the dense engine, nonzeros priced/factored/solved on
// the sparse engine), never wall-clock, so they are stable under machine
// load and debug builds.
// ---------------------------------------------------------------------

const SCALES: [usize; 3] = [10, 100, 1000];
const FAMILY_SEED: u64 = 0x5ca1e;

/// Warm-resolving after an RHS perturbation stays within a pivot budget
/// that does NOT grow with instance size: dual-simplex repair touches the
/// handful of rows whose demand moved, independent of n.
#[test]
fn warm_resolve_pivots_stay_within_budget_across_scales() {
    let opts = SimplexOptions::default();
    for jobs in SCALES {
        let base = interval_instance(jobs, FAMILY_SEED);
        let start = base.problem.solve_warm(&opts, None).expect("feasible");
        let mut basis = start.basis;
        let cold_iters = start.solution.iterations;
        for step in 0..3u64 {
            let replan = perturbed(&base, step + 1, FAMILY_SEED);
            let res = replan
                .problem
                .solve_warm(&opts, Some(&basis))
                .expect("feasible replan");
            assert!(res.warm_used, "{jobs} jobs step {step}: fell back cold");
            // Budget: a warm replan is pivot-cheap relative to the cold
            // solve it replaces — and absolutely bounded.
            assert!(
                res.solution.iterations <= cold_iters / 4 + 50,
                "{jobs} jobs step {step}: {} pivots vs cold {cold_iters}",
                res.solution.iterations
            );
            basis = res.basis;
        }
    }
}

/// Warm-resolve *work* under bounded drift is sub-quadratic in n: when a
/// constant number of demands move between replans (a handful of
/// completions, regardless of fleet size), each 10× size step may grow
/// per-replan work by well under 100× (the quadratic rate). Cold solves
/// carry a Θ(n²) full-pricing floor, and proportional drift (every
/// demand moves, as in [`perturbed`]) is quadratic too — the bounded-
/// drift warm path is the hot path this bound protects (EXPERIMENTS.md).
#[test]
fn sparse_warm_resolve_work_is_subquadratic_in_n() {
    let opts = SimplexOptions::default();
    let mut per_scale = Vec::new();
    for jobs in SCALES {
        let base = interval_instance(jobs, FAMILY_SEED);
        let start = base.problem.solve_warm(&opts, None).expect("feasible");
        let mut basis = start.basis;
        let mut work = 0u64;
        for step in 0..3u64 {
            let replan = perturbed_jobs(&base, step + 1, FAMILY_SEED, 4);
            let res = replan
                .problem
                .solve_warm(&opts, Some(&basis))
                .expect("feasible replan");
            assert!(res.warm_used);
            work += res.solution.work;
            basis = res.basis;
        }
        per_scale.push(work.max(1));
    }
    for (small, big) in per_scale.iter().zip(per_scale.iter().skip(1)) {
        let ratio = *big as f64 / *small as f64;
        assert!(
            ratio < 60.0,
            "10x jobs grew warm work {ratio:.1}x (quadratic would be 100x): {per_scale:?}"
        );
    }
}

/// At scale, a cold solve on the sparse engine does far less arithmetic
/// than the dense tableau: the dense engine touches m×width cells every
/// pivot, the sparse engine only nonzeros. Asserted at n = 100 (the dense
/// engine is too slow to run at 1000 in a unit test — that datapoint
/// lives in EXPERIMENTS.md's solver scaling table, recorded at PR 6).
#[test]
fn sparse_cold_work_beats_dense_at_scale() {
    use flowtime_lp::SimplexEngine;
    let inst = interval_instance(100, FAMILY_SEED);
    let solve = |engine| {
        let o = SimplexOptions {
            engine: Some(engine),
            ..SimplexOptions::default()
        };
        inst.problem.solve_with(&o).expect("feasible").work
    };
    let sparse = solve(SimplexEngine::Sparse);
    let dense = solve(SimplexEngine::Dense);
    assert!(
        sparse * 5 <= dense,
        "sparse work {sparse} not ≥5x below dense {dense}"
    );
}

// ---------------------------------------------------------------------
// The ill-scaled family (ROADMAP 7d).
//
// A lexmin round freezes a pair at `θ·C`, with `θ` read off a vertex on
// the solver's 1e-9 grid. On a 655 360 MB memory row that level sits up
// to 3.3e-4 MB from the load that defined it, and when `θ` itself is off
// the grid (a third, a seventh) the next round's LP is off by that much:
// the class of LPs on which a carried round first met a demand row
// violated by 1e-6, and of which case 27 of `tests/warm_start_props.rs`
// (`0.833333333 · 10 240`) is the first member. Across this family the sparse engine, the dense
// oracle and the flow backend must agree, or all fail typed.
// ---------------------------------------------------------------------

/// How far two solves' `θ` of one lexmin round may sit apart, against
/// `1 + θ`: `tests/warm_start_props.rs`'s bound, for the same reason (the
/// family's largest gap is 4 grid steps, carried against all-cold).
const THETA_TOL: f64 = 1e-8;

/// The production cluster: 160 cores, 640 GiB.
const BIG: [u64; 2] = [160, 655_360];

/// Memory-heavy task shapes, each memory-bound on [`BIG`] (40, 26⅔, 106⅔
/// and 53⅓ tasks fit by memory against 160, 80, 160 and 40 by cores).
const HEAVY: [[u64; 2]; 4] = [[1, 16_384], [2, 24_576], [1, 6_144], [4, 12_288]];

/// SplitMix64-style mixer for deterministic instance streams.
fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One member of the family: 6–15 slots of [`BIG`], one in eight at half
/// capacity; 4–11 jobs with per-slot caps and demands at most half their
/// window's room. Every third member keeps one shape (`[1, 16384]`), so
/// the flow backend applies.
fn ill_scaled(seed: u64) -> LevelingProblem {
    let r = |k: u64| mix(seed, k);
    let horizon = 6 + (r(0) % 10) as usize;
    let uniform = seed.is_multiple_of(3);
    let slot_caps = (0..horizon as u64)
        .map(|t| match r(100 + t) % 8 {
            0 => ResourceVec::new([BIG[0] / 2, BIG[1] / 2]),
            _ => ResourceVec::new(BIG),
        })
        .collect();
    let jobs = (0..4 + r(1) % 8)
        .map(|i| {
            let k = r(200 + i);
            let start = (k % horizon as u64) as usize;
            let end = (start + 1 + (k >> 8) as usize % 5).min(horizon);
            let shape = ResourceVec::new(HEAVY[if uniform { 0 } else { (k >> 16) as usize % 4 }]);
            let cap = (4 + (k >> 24) % 30).min(shape.times_fitting(&ResourceVec::new(BIG)) / 2);
            let room = cap * (end - start) as u64;
            PlanJob {
                id: JobId::new(i),
                window: (start, end),
                demand: (1 + (k >> 32) % room.max(1)).min(room / 2).max(1),
                per_task: shape,
                per_slot_cap: Some(cap),
            }
        })
        .collect();
    LevelingProblem { slot_caps, jobs }
}

/// Case 27 of `tests/warm_start_props.rs`, the family's first member.
fn case_27() -> LevelingProblem {
    let unit = |id: u64, window: (usize, usize), demand: u64, cap: Option<u64>| PlanJob {
        id: JobId::new(id),
        window,
        demand,
        per_task: ResourceVec::new([1, 1024]),
        per_slot_cap: cap,
    };
    LevelingProblem {
        slot_caps: vec![ResourceVec::new([10, 10_240]); 11],
        jobs: vec![
            unit(0, (1, 2), 5, Some(6)),
            unit(1, (2, 8), 12, Some(4)),
            unit(2, (0, 5), 10, Some(2)),
            unit(3, (1, 6), 3, Some(4)),
            unit(4, (8, 11), 25, None),
        ],
    }
}

fn engine(engine: SimplexEngine) -> SimplexOptions {
    SimplexOptions {
        engine: Some(engine),
        ..SimplexOptions::default()
    }
}

/// Over the family: lexmin carried from one cold solve and the all-cold
/// reference reach the same objective vector through the same necessary
/// freezes; the second round, reached by a commit of the first round's
/// freezes, is the same on the sparse engine and the dense oracle, equal
/// to a cold solve of the frozen LP on either; and on one-shape members
/// the flow backend's integral peak is bracketed by the LP bound and the
/// rounded simplex plan. Infeasible members fail typed on every path.
#[test]
fn ill_scaled_family_agrees_across_engines_and_backends_or_fails_typed() {
    let (mut commits, mut off_grid, mut typed) = (0usize, 0usize, 0usize);
    let (mut decided, mut undecided) = (0usize, 0usize);
    let members = std::iter::once(case_27()).chain((0..48).map(ill_scaled));
    for (m, p) in members.enumerate() {
        let mut stats = SolveStats::default();
        let carried = lexmin::solve_with_stats(&p, 4, true, &mut stats);
        let reference = lexmin::solve_with_stats(&p, 4, false, &mut SolveStats::default());
        let (carried, reference) = match (carried, reference) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(CoreError::Lp(_)), Err(CoreError::Lp(_))) => {
                typed += 1;
                assert!(p.solve(SolverBackend::Simplex { lex_rounds: 1 }).is_err());
                continue;
            }
            (a, b) => panic!("member {m}: carried {a:?} vs reference {b:?}"),
        };
        assert_eq!(carried.rounds_used, reference.rounds_used, "member {m}");
        for (a, b) in carried.thetas.iter().zip(&reference.thetas) {
            assert!(
                (a - b).abs() <= THETA_TOL * (1.0 + b),
                "member {m}: θ {a} vs {b}"
            );
        }
        // Round one is the same cold solve either way, and probes and cold
        // trials agree on every verdict.
        assert_eq!(
            carried.freezes.first(),
            reference.freezes.first(),
            "member {m}"
        );
        if stats.warm_fallbacks == 0 {
            commits += carried.rounds_used - 1;
        }

        // Round two on both engines: the first round's LP, retained, with
        // its freezes committed.
        if let Some(freeze) = reference.freezes.first() {
            let theta = reference.thetas[0];
            let frozen: HashMap<(usize, usize), f64> = freeze
                .pairs
                .iter()
                .map(|&(t, r)| ((t, r), theta * p.slot_caps[t].dim(r) as f64))
                .collect();
            off_grid += frozen
                .iter()
                .filter(|&(&(_, r), level)| r == 1 && level.fract() != 0.0)
                .count();
            let f = formulation::build(&p, &HashMap::new()).unwrap();
            let caps: Vec<(usize, f64)> = freeze
                .pairs
                .iter()
                .map(|pair| (f.load_row(pair.0, pair.1).unwrap(), frozen[pair]))
                .collect();
            let rebuilt = formulation::build(&p, &frozen).unwrap();
            let mut rounds = Vec::new();
            for e in [SimplexEngine::Sparse, SimplexEngine::Dense] {
                let (_, mut optimum) = f.problem.clone().solve_retained(&engine(e)).unwrap();
                let committed = optimum.commit(f.theta, &caps).unwrap();
                let cold = rebuilt.problem.solve_with(&engine(e)).unwrap();
                if let Some(committed) = &committed {
                    // Both read θ off a vertex of an LP whose data are off
                    // by the grid: a few steps of it apart, no more.
                    assert!(
                        (committed.objective - cold.objective).abs()
                            <= THETA_TOL * (1.0 + cold.objective),
                        "member {m} {e:?}: commit {} vs cold {}",
                        committed.objective,
                        cold.objective
                    );
                }
                rounds.push((
                    committed.map(|c| (c.iterations, c.objective)),
                    cold.objective,
                ));
            }
            match (rounds[0].0, rounds[1].0) {
                (Some((i, a)), Some((j, b))) => {
                    assert_eq!((i, a), (j, b), "member {m}: engines split: {rounds:?}");
                    decided += 1;
                }
                (None, None) => undecided += 1,
                _ => panic!("member {m}: one engine decided: {rounds:?}"),
            }
            assert_eq!(rounds[0].1, rounds[1].1, "member {m}: {rounds:?}");
        }

        // One shape: the flow backend against the LP bound and the rounded
        // simplex plan.
        if p.jobs.windows(2).all(|w| w[0].per_task == w[1].per_task) {
            let flow = p.solve(SolverBackend::ParametricFlow);
            let lp = p.solve(SolverBackend::Simplex { lex_rounds: 1 });
            let (Ok(flow), Ok(lp)) = (flow, lp) else {
                panic!("member {m}: a backend failed where lexmin did not");
            };
            assert!(
                rounding::is_feasible(&p, &flow),
                "member {m}: flow plan infeasible"
            );
            let (pf, pl) = (plan_peak(&p, &flow), plan_peak(&p, &lp));
            assert!(
                reference.thetas[0] <= pf + 1e-6,
                "member {m}: flow {pf} under the LP bound"
            );
            assert!(
                pf <= pl + 1e-6,
                "member {m}: flow {pf} above the rounded LP {pl}"
            );
        }
    }
    assert!(commits >= 60, "only {commits} rounds were commits");
    assert!(
        decided >= 9 * undecided,
        "{decided} round-two commits decided, {undecided} not"
    );
    assert!(
        off_grid >= 30,
        "only {off_grid} memory rows frozen off the grid"
    );
    assert!(
        typed <= 8,
        "{typed} infeasible members: the generator drifted"
    );
}
