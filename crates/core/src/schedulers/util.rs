//! Shared slot-filling machinery for schedulers.

use flowtime_dag::{JobId, ResourceVec, NUM_RESOURCES};
use flowtime_sim::{Allocation, JobView, SimState};

/// Tracks free capacity and per-job grants while a scheduler fills one
/// slot, enforcing both resource headroom and per-job task caps.
///
/// It also knows when nothing more can be granted. A job's headroom is at
/// most `free[r] / need[r]` for every dimension `r` its task needs, so once
/// some `free[r]` is 0 and no runnable job's task needs zero of `r`, every
/// runnable job's headroom is 0 — and stays 0, because free capacity only
/// shrinks while a slot fills. [`Self::greedy_fill`] and
/// [`Self::fair_fill`] stop pulling views there: each grant they skip
/// would have been zero. The per-dimension zero-need counts come from
/// [`SimState::runnable_zero_need`], so a memory-only task still fits
/// when the cpu is gone.
#[derive(Debug, Clone)]
pub(crate) struct SlotFiller {
    free: ResourceVec,
    /// Per dimension, the runnable jobs whose tasks need none of it.
    zero_need: [usize; NUM_RESOURCES],
    granted: Allocation,
}

impl SlotFiller {
    /// A filler for `state`'s current slot: its capacity and runnable set.
    pub fn new(state: &SimState) -> Self {
        SlotFiller {
            free: state.capacity_now(),
            zero_need: state.runnable_zero_need(),
            granted: Allocation::new(),
        }
    }

    /// Remaining free capacity.
    #[allow(dead_code)] // part of the filler's API; exercised in tests
    pub fn free(&self) -> ResourceVec {
        self.free
    }

    /// Tasks already granted to `job` this slot.
    pub fn granted(&self, job: JobId) -> u64 {
        self.granted.get(job)
    }

    /// The most additional tasks `job` could still receive.
    pub fn headroom(&self, job: &JobView) -> u64 {
        let by_cap = job.max_tasks_this_slot.saturating_sub(self.granted(job.id));
        let by_resources = job.per_task.times_fitting(&self.free);
        by_cap.min(by_resources)
    }

    /// Grants up to `want` tasks to `job`; returns the number granted.
    pub fn grant(&mut self, job: &JobView, want: u64) -> u64 {
        let give = want.min(self.headroom(job));
        if give > 0 {
            self.free -= job.per_task * give;
            self.granted.assign(job.id, give);
        }
        give
    }

    /// Grants each job in order as many tasks as fit (FIFO-style greedy),
    /// pulling no view once nothing fits.
    pub fn greedy_fill(&mut self, jobs: impl IntoIterator<Item = JobView>) {
        let mut jobs = jobs.into_iter();
        while !self.nothing_fits() {
            let Some(job) = jobs.next() else {
                break;
            };
            self.grant(&job, u64::MAX);
        }
    }

    /// Max-min fair share: repeatedly grants one task to each job in a
    /// round-robin until nothing fits any more. Views are pulled during
    /// the first pass, until nothing fits, and kept for the later passes.
    pub fn fair_fill(&mut self, jobs: impl IntoIterator<Item = JobView>) {
        let mut jobs = jobs.into_iter();
        let mut pulled = Vec::new();
        let mut progressed = false;
        while !self.nothing_fits() {
            let Some(job) = jobs.next() else {
                break;
            };
            progressed |= self.grant(&job, 1) > 0;
            pulled.push(job);
        }
        while progressed && !self.nothing_fits() {
            progressed = false;
            for job in &pulled {
                progressed |= self.grant(job, 1) > 0;
            }
        }
    }

    /// Finalizes into the engine's [`Allocation`].
    pub fn into_allocation(self) -> Allocation {
        self.granted
    }

    /// True once no runnable job can receive another task this slot (see
    /// the type's docs).
    fn nothing_fits(&self) -> bool {
        #[cfg(test)]
        if EXIT_OFF.get() {
            return false;
        }
        (0..NUM_RESOURCES).any(|r| self.free.dim(r) == 0 && self.zero_need[r] == 0)
    }
}

// Switch for the exactness test: fills run to the end of their job list,
// as they did before the exit existed.
#[cfg(test)]
thread_local! {
    static EXIT_OFF: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtime_dag::JobSpec;
    use flowtime_sim::prelude::*;
    use proptest::prelude::*;

    /// Runs `probe` on the slot-0 state of `jobs` (ad-hoc, all arriving at
    /// slot 0) on a cluster of `capacity`.
    fn at_slot_zero<R>(
        capacity: ResourceVec,
        jobs: &[JobSpec],
        probe: impl FnOnce(&SimState) -> R,
    ) -> R {
        struct Probe<F, R>(Option<F>, Option<R>);
        impl<F: FnOnce(&SimState) -> R, R> Scheduler for Probe<F, R> {
            fn name(&self) -> &str {
                "probe"
            }
            fn plan_slot(&mut self, state: &SimState) -> Allocation {
                if let Some(f) = self.0.take() {
                    self.1 = Some(f(state));
                }
                Allocation::new()
            }
        }
        let mut wl = SimWorkload::default();
        for spec in jobs {
            wl.adhoc.push(AdhocSubmission::new(spec.clone(), 0));
        }
        let mut probe = Probe(Some(probe), None);
        Engine::new(ClusterConfig::new(capacity, 10.0), wl, 1)
            .unwrap()
            .run(&mut probe)
            .unwrap();
        probe.1.expect("the engine planned slot 0")
    }

    fn job(tasks: u64, per_task: [u64; 2]) -> JobSpec {
        JobSpec::new("j", tasks, 1, ResourceVec::new(per_task))
    }

    #[test]
    fn grant_respects_resources_and_caps() {
        let jobs = [job(3, [2, 1024]), job(99, [3, 1024])];
        at_slot_zero(ResourceVec::new([10, 10240]), &jobs, |state| {
            let views: Vec<JobView> = state.runnable().collect();
            let mut f = SlotFiller::new(state);
            assert_eq!(f.grant(&views[0], 10), 3); // capped by tasks
            assert_eq!(f.granted(views[0].id), 3);
            assert_eq!(f.free(), ResourceVec::new([4, 10240 - 3072]));
            assert_eq!(f.grant(&views[1], 10), 1); // capped by cpu (4/3)
        });
    }

    #[test]
    fn greedy_fill_is_fifo_biased() {
        let jobs = [job(10, [1, 1024]), job(10, [1, 1024])];
        at_slot_zero(ResourceVec::new([4, 4096]), &jobs, |state| {
            let mut f = SlotFiller::new(state);
            f.greedy_fill(state.runnable());
            assert_eq!(f.granted(JobId::new(0)), 4);
            assert_eq!(f.granted(JobId::new(1)), 0);
        });
    }

    #[test]
    fn fair_fill_balances() {
        let jobs = [job(10, [1, 1024]), job(10, [1, 1024])];
        at_slot_zero(ResourceVec::new([5, 5120]), &jobs, |state| {
            let mut f = SlotFiller::new(state);
            f.fair_fill(state.runnable());
            let ga = f.granted(JobId::new(0));
            let gb = f.granted(JobId::new(1));
            assert_eq!(ga + gb, 5);
            assert!((ga as i64 - gb as i64).abs() <= 1);
        });
    }

    #[test]
    fn into_allocation_round_trips() {
        at_slot_zero(ResourceVec::new([4, 4096]), &[job(2, [1, 1024])], |state| {
            let mut f = SlotFiller::new(state);
            f.greedy_fill(state.runnable());
            assert_eq!(f.into_allocation().get(JobId::new(0)), 2);
        });
    }

    #[test]
    fn a_used_up_dimension_stops_only_the_jobs_that_need_it() {
        // The cpu is gone after the first job. With a memory-only job
        // runnable, the fill goes on: that job still gets its tasks.
        let jobs = [job(4, [1, 1024]), job(2, [0, 1024]), job(4, [1, 1024])];
        at_slot_zero(ResourceVec::new([4, 65_536]), &jobs, |state| {
            assert_eq!(state.runnable_zero_need(), [1, 0]);
            let mut f = SlotFiller::new(state);
            let mut pulled = 0;
            f.greedy_fill(state.runnable().inspect(|_| pulled += 1));
            assert_eq!(f.granted(JobId::new(1)), 2);
            assert_eq!(pulled, 3);
        });
        // Every runnable task needs cpu: nothing is pulled past the first.
        let jobs = [job(4, [1, 1024]), job(2, [1, 1024]), job(4, [1, 1024])];
        at_slot_zero(ResourceVec::new([4, 65_536]), &jobs, |state| {
            assert_eq!(state.runnable_zero_need(), [0, 0]);
            for fair in [false, true] {
                let mut f = SlotFiller::new(state);
                let mut pulled = 0;
                let jobs = state.runnable().inspect(|_| pulled += 1);
                if fair {
                    f.fair_fill(jobs);
                } else {
                    f.greedy_fill(jobs);
                }
                assert_eq!(pulled, if fair { 3 } else { 1 });
            }
        });
    }

    /// One slot's allocation by `fill` over `order` (indices into the
    /// runnable views), with the exit on or off.
    fn fill_with_exit(
        state: &SimState,
        order: &[usize],
        fair: bool,
        exit: bool,
    ) -> Vec<(JobId, u64)> {
        let views: Vec<JobView> = state.runnable().collect();
        let jobs = order.iter().map(|&i| views[i % views.len()]);
        EXIT_OFF.set(!exit);
        let mut f = SlotFiller::new(state);
        if fair {
            f.fair_fill(jobs);
        } else {
            f.greedy_fill(jobs);
        }
        EXIT_OFF.set(false);
        f.into_allocation().iter().collect()
    }

    /// A full, a memory-only or a cpu-only task shape.
    fn shape() -> impl Strategy<Value = [u64; 2]> {
        (0u8..3, 1u64..4, 1u64..4).prop_map(|(kind, c, m)| match kind {
            0 => [c, m * 1024],
            1 => [0, m * 1024],
            _ => [c, 0],
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The exit is exact: with it and without it, both fills allocate
        /// the same tasks to the same jobs, over job lists that mix
        /// zero-shaped tasks with full ones, partial parallelism caps and
        /// repeated views, on capacities that run out in either dimension.
        #[test]
        fn the_exit_changes_no_allocation(
            jobs in prop::collection::vec((1u64..6, proptest::option::of(1u64..4), shape()), 1..12),
            order in prop::collection::vec(0usize..12, 0..24),
            cpu in 0u64..12,
            mem in 0u64..12,
        ) {
            let specs: Vec<JobSpec> = jobs
                .iter()
                .map(|&(tasks, cap, per_task)| {
                    let spec = job(tasks, per_task);
                    match cap {
                        Some(p) => spec.with_max_parallel(p),
                        None => spec,
                    }
                })
                .collect();
            let capacity = ResourceVec::new([cpu, mem * 1024]);
            at_slot_zero(capacity, &specs, |state| {
                for fair in [false, true] {
                    prop_assert_eq!(
                        fill_with_exit(state, &order, fair, true),
                        fill_with_exit(state, &order, fair, false)
                    );
                }
                Ok(())
            })?;
        }
    }
}
