//! Building the paper's LP (Table I / Eq. (1)–(5)).
//!
//! Variables (all per relative slot `t` of the horizon):
//!
//! * `θ` — the peak normalized load being minimized, `θ ∈ [0, 1]`;
//! * `x_{i,t}` — concurrent tasks of job `i` in slot `t`, bounded by the
//!   job's per-slot cap (`x_{i,t}` exists only for `t` in the job window,
//!   which encodes `a_i`/`d_i` of constraint Eq. (2)).
//!
//! Constraints:
//!
//! * demand: `Σ_{t ∈ window_i} x_{i,t} = demand_i` (Eq. (2));
//! * load/capacity: `Σ_i x_{i,t}·req_i^r ≤ θ·C_t^r` for every slot and
//!   resource — Eq. (3) with `z_t^r` substituted out, plus Eq. (4) via the
//!   bound `θ ≤ 1`.
//!
//! A set of *frozen* `(t, r)` pairs can replace their `θ` rows with fixed
//! absolute caps — the mechanism [`super::lexmin`] uses to realize the
//! lexicographic objective.

use super::LevelingProblem;
use crate::error::CoreError;
use flowtime_dag::NUM_RESOURCES;
use flowtime_lp::{Problem, Relation, VarId};
use std::collections::HashMap;

/// A constructed LP plus the maps needed to read the solution and to
/// address its load rows.
#[derive(Debug)]
pub struct Formulation {
    /// The LP.
    pub problem: Problem,
    /// The peak variable `θ`.
    pub theta: VarId,
    /// `x[i]` maps window-relative offsets to variables:
    /// `x[i][t - window.0]` is job `i`'s allocation in horizon slot `t`.
    pub x: Vec<Vec<VarId>>,
    /// Constraint-row index of each slot's load rows, per resource.
    load_rows: Vec<[Option<usize>; NUM_RESOURCES]>,
}

impl Formulation {
    /// The constraint row holding the load/capacity inequality of slot `t`,
    /// resource `r` — `None` when no job can place load there (the row was
    /// never emitted) or the pair is out of range.
    pub fn load_row(&self, t: usize, r: usize) -> Option<usize> {
        *self.load_rows.get(t)?.get(r)?
    }
}

/// Builds the LP for `leveling`, with `frozen[(t, r)]` giving absolute load
/// caps for already-fixed slot/resource pairs (excluded from the `θ`
/// objective).
///
/// # Errors
///
/// Propagates [`CoreError::BadHorizon`] from validation and LP construction
/// errors (which indicate internal inconsistency rather than user error).
pub fn build(
    leveling: &LevelingProblem,
    frozen: &HashMap<(usize, usize), f64>,
) -> Result<Formulation, CoreError> {
    leveling.validate()?;
    let mut problem = Problem::new();
    let theta = problem.add_var(1.0, 0.0, 1.0)?;
    let mut x: Vec<Vec<VarId>> = Vec::with_capacity(leveling.jobs.len());
    // `by_slot[starts[t]..starts[t + 1]]` will list slot `t`'s variables
    // with their jobs, in job order: count each window's slots, then walk
    // each window once more to fill — O(nnz), one allocation.
    let horizon = leveling.horizon();
    let mut starts = vec![0usize; horizon + 1];
    for job in &leveling.jobs {
        for count in &mut starts[job.window.0 + 1..=job.window.1] {
            *count += 1;
        }
    }
    for t in 0..horizon {
        starts[t + 1] += starts[t];
    }
    let mut filled = starts.clone();
    let mut by_slot = vec![(theta, 0usize); starts[horizon]];
    for (i, job) in leveling.jobs.iter().enumerate() {
        let (start, end) = job.window;
        let cap = job.slot_cap() as f64;
        let vars: Vec<VarId> = (start..end)
            .map(|_| problem.add_var(0.0, 0.0, cap))
            .collect::<Result<_, _>>()?;
        // Demand constraint Eq. (2).
        let terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
        problem.add_constraint(&terms, Relation::Eq, job.demand as f64)?;
        for (&v, next) in vars.iter().zip(&mut filled[start..end]) {
            by_slot[*next] = (v, i);
            *next += 1;
        }
        x.push(vars);
    }
    // Load/capacity rows per (slot, resource).
    let mut load_rows = vec![[None; NUM_RESOURCES]; horizon];
    let mut terms: Vec<(VarId, f64)> = Vec::new();
    for (t, rows) in load_rows.iter_mut().enumerate() {
        for (r, row) in rows.iter_mut().enumerate() {
            terms.clear();
            for &(v, i) in &by_slot[starts[t]..starts[t + 1]] {
                let req = leveling.jobs[i].per_task.dim(r) as f64;
                if req > 0.0 {
                    terms.push((v, req));
                }
            }
            if terms.is_empty() {
                continue;
            }
            let cap = leveling.slot_caps[t].dim(r) as f64;
            // A frozen pair is capped absolutely; a zero-capacity slot may
            // run nothing; every other pair is bounded by `θ·C`.
            let rhs = match frozen.get(&(t, r)) {
                Some(&abs_cap) => abs_cap,
                None => {
                    if cap > 0.0 {
                        terms.push((theta, -cap));
                    }
                    0.0
                }
            };
            *row = Some(problem.add_constraint(&terms, Relation::Le, rhs)?);
        }
    }
    Ok(Formulation {
        problem,
        theta,
        x,
        load_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp_sched::PlanJob;
    use flowtime_dag::{JobId, ResourceVec};

    fn problem() -> LevelingProblem {
        LevelingProblem {
            slot_caps: vec![ResourceVec::new([10, 10240]); 4],
            jobs: vec![
                PlanJob {
                    id: JobId::new(1),
                    window: (0, 4),
                    demand: 12,
                    per_task: ResourceVec::new([1, 1024]),
                    per_slot_cap: None,
                },
                PlanJob {
                    id: JobId::new(2),
                    window: (0, 2),
                    demand: 8,
                    per_task: ResourceVec::new([1, 1024]),
                    per_slot_cap: Some(5),
                },
            ],
        }
    }

    #[test]
    fn solves_to_min_peak() {
        let f = build(&problem(), &HashMap::new()).unwrap();
        let sol = f.problem.solve().unwrap();
        // Job 2 must fit 8 units in 2 slots at <=5/slot, so those slots
        // carry >= 4 of job 2 alone; leveling yields peak 5/10.
        assert!((sol.value(f.theta) - 0.5).abs() < 1e-6);
        // Demand satisfied.
        let j1: f64 = f.x[0].iter().map(|&v| sol.value(v)).sum();
        let j2: f64 = f.x[1].iter().map(|&v| sol.value(v)).sum();
        assert!((j1 - 12.0).abs() < 1e-6);
        assert!((j2 - 8.0).abs() < 1e-6);
    }

    #[test]
    fn frozen_rows_replace_theta_rows() {
        // Freeze slot 0 (both resources) at a load of 2: the remaining
        // slots must then carry more.
        let mut frozen = HashMap::new();
        frozen.insert((0usize, 0usize), 2.0);
        frozen.insert((0usize, 1usize), 2.0 * 1024.0);
        let f = build(&problem(), &frozen).unwrap();
        // Job 2 can now place at most 2 units in slot 0 and, by its own
        // per-slot cap, at most 5 in slot 1: 7 < 8 demand — infeasible.
        assert!(f.problem.solve().is_err());
    }

    #[test]
    fn infeasible_when_windows_too_tight() {
        let mut p = problem();
        p.jobs[1].demand = 25; // 25 > 2 slots x 10 cap
        let f = build(&p, &HashMap::new()).unwrap();
        assert!(f.problem.solve().is_err());
    }

    /// The row assembly this module used before: every `(t, r)` row scans
    /// all jobs for the ones whose window holds `t`.
    fn build_by_scan(leveling: &LevelingProblem, frozen: &HashMap<(usize, usize), f64>) -> Problem {
        let mut problem = Problem::new();
        let theta = problem.add_var(1.0, 0.0, 1.0).unwrap();
        let mut x: Vec<Vec<VarId>> = Vec::new();
        for job in &leveling.jobs {
            let cap = job.slot_cap() as f64;
            let vars: Vec<VarId> = (job.window.0..job.window.1)
                .map(|_| problem.add_var(0.0, 0.0, cap).unwrap())
                .collect();
            let terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
            problem
                .add_constraint(&terms, Relation::Eq, job.demand as f64)
                .unwrap();
            x.push(vars);
        }
        for t in 0..leveling.horizon() {
            for r in 0..NUM_RESOURCES {
                let cap = leveling.slot_caps[t].dim(r) as f64;
                let mut terms: Vec<(VarId, f64)> = Vec::new();
                for (job, vars) in leveling.jobs.iter().zip(&x) {
                    let req = job.per_task.dim(r) as f64;
                    if t >= job.window.0 && t < job.window.1 && req > 0.0 {
                        terms.push((vars[t - job.window.0], req));
                    }
                }
                if terms.is_empty() {
                    continue;
                }
                let rhs = frozen.get(&(t, r)).copied().unwrap_or(0.0);
                if !frozen.contains_key(&(t, r)) && cap > 0.0 {
                    terms.push((theta, -cap));
                }
                problem.add_constraint(&terms, Relation::Le, rhs).unwrap();
            }
        }
        problem
    }

    fn lp_text(problem: &Problem) -> String {
        let mut out = Vec::new();
        problem.write_lp_format(&mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    /// A benchmark-P0-shaped instance: 90 jobs with staggered windows over
    /// 48 slots, three task shapes (one needing no memory), a zero-capacity
    /// slot, a slot no window reaches, and a few frozen pairs.
    fn p0_like() -> (LevelingProblem, HashMap<(usize, usize), f64>) {
        let mut slot_caps = vec![ResourceVec::new([160, 655_360]); 48];
        slot_caps[7] = ResourceVec::new([0, 0]);
        let shapes = [[1, 1024], [2, 512], [1, 0]];
        let jobs = (0..90u64)
            .map(|i| {
                let start = (i * 7 % 40) as usize;
                let len = 2 + (i * 5 % 6) as usize;
                PlanJob {
                    id: JobId::new(i),
                    window: (start, (start + len).min(47)),
                    demand: 20 + i * 3 % 50,
                    per_task: ResourceVec::new(shapes[(i % 3) as usize]),
                    per_slot_cap: (i % 4 == 0).then_some(9),
                }
            })
            .collect();
        let frozen = HashMap::from([((3, 0), 41.5), ((3, 1), 40_000.25), ((20, 1), 123_456.0)]);
        (LevelingProblem { slot_caps, jobs }, frozen)
    }

    #[test]
    fn window_walk_writes_the_lp_the_job_scan_wrote() {
        let (p, frozen) = p0_like();
        for frozen in [HashMap::new(), frozen] {
            let f = build(&p, &frozen).unwrap();
            assert_eq!(lp_text(&f.problem), lp_text(&build_by_scan(&p, &frozen)));
        }
    }

    #[test]
    fn load_rows_name_their_constraints() {
        let (p, frozen) = p0_like();
        let f = build(&p, &frozen).unwrap();
        let text = lp_text(&f.problem);
        let line = |row: usize| {
            let tag = format!(" c{row}:");
            text.lines().find(|l| l.starts_with(&tag)).unwrap()
        };
        // An unfrozen pair: the row ends in `- C·θ <= 0`.
        let row = f.load_row(10, 0).unwrap();
        assert!(line(row).ends_with("-160 x0 <= 0"), "{}", line(row));
        // A frozen pair: absolute cap, no θ.
        let row = f.load_row(3, 1).unwrap();
        assert!(line(row).ends_with("<= 40000.25"), "{}", line(row));
        assert!(!line(row).contains(" x0 "), "{}", line(row));
        // Zero capacity: nothing may run, no θ.
        let row = f.load_row(7, 0).unwrap();
        assert!(line(row).ends_with("<= 0") && !line(row).contains(" x0 "));
        // No window reaches slot 47; nothing is out of range.
        assert_eq!(f.load_row(47, 0), None);
        assert_eq!(f.load_row(48, 0), None);
        assert_eq!(f.load_row(0, NUM_RESOURCES), None);
    }

    #[test]
    fn empty_problem_is_trivial() {
        let p = LevelingProblem {
            slot_caps: vec![ResourceVec::new([1, 1]); 2],
            jobs: vec![],
        };
        let f = build(&p, &HashMap::new()).unwrap();
        let sol = f.problem.solve().unwrap();
        assert!(sol.value(f.theta).abs() < 1e-9);
    }
}
