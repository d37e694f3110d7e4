//! Integral repair of fractional LP plans.
//!
//! With unit task shapes the LP's optimal vertices are already integral
//! (the paper's Lemma 2 / total unimodularity), and this module only strips
//! float fuzz. With heterogeneous task shapes the constraint matrix is no
//! longer TU, so we round per job by largest remainder (preserving the
//! demand totals exactly) and then repair any slot whose capacity the
//! rounding overshot by shifting single tasks to under-full window slots.

use super::{LevelingProblem, Plan};
use flowtime_dag::{ResourceVec, NUM_RESOURCES};
use std::collections::HashMap;

/// Rounds the fractional allocation `x[i][t]` into an integral [`Plan`].
///
/// Per-job totals are preserved exactly; per-slot caps of each job are
/// respected; cluster capacity is repaired best-effort (a scheduler
/// dispatching the plan clamps at runtime regardless).
pub fn round_plan(leveling: &LevelingProblem, x: &[Vec<f64>]) -> Plan {
    let horizon = leveling.horizon();
    let mut tasks: HashMap<_, Vec<u64>> = HashMap::new();
    for (job, xs) in leveling.jobs.iter().zip(x.iter()) {
        let mut alloc = vec![0u64; horizon];
        let cap = job.slot_cap();
        let mut fracs: Vec<(usize, f64)> = Vec::new();
        let mut assigned = 0u64;
        for t in job.window.0..job.window.1 {
            let v = xs[t].max(0.0);
            let fl = (v + 1e-9).floor() as u64;
            let fl = fl.min(cap);
            alloc[t] = fl;
            assigned += fl;
            // `+ 0.0` turns a `-0.0` into `0.0`: `total_cmp` then orders
            // every finite fraction as `partial_cmp` does, and a NaN or an
            // infinity (which `lexmin` refuses upstream) cannot panic the
            // sort.
            fracs.push((t, v - fl as f64 + 0.0));
        }
        // Distribute the remainder to the largest fractional parts first.
        let mut remainder = job.demand.saturating_sub(assigned);
        fracs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        // First pass: honour fractional preference; further passes: any
        // window slot with headroom (handles caps hit during pass one).
        for pass in 0..2 {
            if remainder == 0 {
                break;
            }
            for &(t, _) in &fracs {
                if remainder == 0 {
                    break;
                }
                let headroom = cap - alloc[t];
                if headroom == 0 {
                    continue;
                }
                let take = if pass == 0 {
                    1
                } else {
                    headroom.min(remainder)
                };
                alloc[t] += take;
                remainder -= take;
            }
        }
        // Floor overshoot (float fuzz summing above demand): trim from the
        // smallest fractional parts.
        let mut total: u64 = alloc.iter().sum();
        for &(t, _) in fracs.iter().rev() {
            if total <= job.demand {
                break;
            }
            let trim = (total - job.demand).min(alloc[t]);
            alloc[t] -= trim;
            total -= trim;
        }
        tasks.insert(job.id, alloc);
    }
    let mut plan = Plan { tasks, horizon };
    repair_capacity(leveling, &mut plan);
    plan
}

/// Moves single tasks out of slots where rounding overshot the cluster
/// capacity, into window slots with headroom. Best-effort and bounded.
fn repair_capacity(leveling: &LevelingProblem, plan: &mut Plan) {
    let horizon = leveling.horizon();
    let mut usage: Vec<ResourceVec> = (0..horizon)
        .map(|t| plan.slot_usage(&leveling.jobs, t))
        .collect();
    for _ in 0..4 * horizon.max(1) {
        let Some(over_t) = (0..horizon).find(|&t| !usage[t].fits_within(&leveling.slot_caps[t]))
        else {
            return;
        };
        // Find a job contributing to the overloaded slot and a destination
        // slot in its window with room for one more task.
        let mut moved = false;
        for job in &leveling.jobs {
            if over_t < job.window.0 || over_t >= job.window.1 {
                continue;
            }
            let Some(alloc) = plan.tasks.get_mut(&job.id) else {
                continue;
            };
            if alloc[over_t] == 0 {
                continue;
            }
            let cap = job.slot_cap();
            let dest = (job.window.0..job.window.1).find(|&t| {
                t != over_t
                    && alloc[t] < cap
                    && (usage[t] + job.per_task).fits_within(&leveling.slot_caps[t])
            });
            if let Some(dest) = dest {
                alloc[over_t] -= 1;
                alloc[dest] += 1;
                usage[over_t] -= job.per_task;
                usage[dest] += job.per_task;
                moved = true;
                break;
            }
        }
        if !moved {
            return; // cannot repair further; dispatch will clamp
        }
    }
}

/// True if `plan` respects all cluster and per-job caps and meets demands.
pub fn is_feasible(leveling: &LevelingProblem, plan: &Plan) -> bool {
    for job in &leveling.jobs {
        let Some(alloc) = plan.tasks.get(&job.id) else {
            return job.demand == 0;
        };
        if alloc.iter().sum::<u64>() != job.demand {
            return false;
        }
        for (t, &a) in alloc.iter().enumerate() {
            if a > 0 && (t < job.window.0 || t >= job.window.1 || a > job.slot_cap()) {
                return false;
            }
        }
    }
    for t in 0..leveling.horizon() {
        let usage = plan.slot_usage(&leveling.jobs, t);
        for r in 0..NUM_RESOURCES {
            if usage.dim(r) > leveling.slot_caps[t].dim(r) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp_sched::PlanJob;
    use flowtime_dag::{JobId, ResourceVec};

    fn problem(jobs: Vec<PlanJob>, slots: usize, cores: u64) -> LevelingProblem {
        LevelingProblem {
            slot_caps: vec![ResourceVec::new([cores, cores * 1024]); slots],
            jobs,
        }
    }

    fn job(id: u64, window: (usize, usize), demand: u64, cap: Option<u64>) -> PlanJob {
        PlanJob {
            id: JobId::new(id),
            window,
            demand,
            per_task: ResourceVec::new([1, 1024]),
            per_slot_cap: cap,
        }
    }

    #[test]
    fn integral_input_passes_through() {
        let p = problem(vec![job(1, (0, 2), 4, None)], 2, 10);
        let plan = round_plan(&p, &[vec![2.0, 2.0]]);
        assert_eq!(plan.tasks[&JobId::new(1)], vec![2, 2]);
        assert!(is_feasible(&p, &plan));
    }

    #[test]
    fn fractional_rounds_preserve_totals() {
        let p = problem(vec![job(1, (0, 3), 7, None)], 3, 10);
        let plan = round_plan(&p, &[vec![2.3333, 2.3333, 2.3334]]);
        let total: u64 = plan.tasks[&JobId::new(1)].iter().sum();
        assert_eq!(total, 7);
        assert!(is_feasible(&p, &plan));
    }

    #[test]
    fn respects_per_slot_caps() {
        let p = problem(vec![job(1, (0, 4), 8, Some(2))], 4, 10);
        let plan = round_plan(&p, &[vec![1.9, 1.9, 1.9, 2.3]]);
        for &a in &plan.tasks[&JobId::new(1)] {
            assert!(a <= 2);
        }
        assert_eq!(plan.tasks[&JobId::new(1)].iter().sum::<u64>(), 8);
    }

    #[test]
    fn repair_moves_overflow() {
        // Two jobs rounded to collide at slot 0 on a 3-core cluster.
        let p = problem(vec![job(1, (0, 2), 2, None), job(2, (0, 2), 2, None)], 2, 3);
        // Force both to put 2 tasks in slot 0 (4 > 3 capacity).
        let plan = round_plan(&p, &[vec![2.0, 0.0], vec![2.0, 0.0]]);
        assert!(
            is_feasible(&p, &plan),
            "repair should shift one task: {plan:?}"
        );
    }

    #[test]
    fn non_finite_values_round_without_panicking() {
        let p = problem(vec![job(1, (0, 3), 4, None)], 3, 10);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let plan = round_plan(&p, &[vec![bad, 1.5, 1.5]]);
            assert_eq!(plan.tasks[&JobId::new(1)].iter().sum::<u64>(), 4, "{bad}");
        }
    }

    #[test]
    fn equal_fractions_go_to_the_earliest_slot_whatever_their_sign() {
        // `-0.0` and `0.0` tie, as under `partial_cmp`: the slot order
        // decides.
        let p = problem(vec![job(1, (0, 3), 1, None)], 3, 10);
        let plan = round_plan(&p, &[vec![-0.0, 0.0, 0.0]]);
        assert_eq!(plan.tasks[&JobId::new(1)], vec![1, 0, 0]);
        let plan = round_plan(&p, &[vec![0.0, -0.0, -0.0]]);
        assert_eq!(plan.tasks[&JobId::new(1)], vec![1, 0, 0]);
    }

    #[test]
    fn zero_work_jobs_are_fine() {
        let p = problem(vec![job(1, (0, 2), 0, None)], 2, 4);
        let plan = round_plan(&p, &[vec![0.0, 0.0]]);
        assert!(is_feasible(&p, &plan));
    }
}
