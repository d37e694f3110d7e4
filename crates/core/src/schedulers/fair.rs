//! Fair baseline: max-min fair sharing, deadline-oblivious.

use super::util::SlotFiller;
use flowtime_sim::{Allocation, Scheduler, SimState};

/// The Fair baseline (YARN Fair Scheduler analogue): every runnable job
/// receives an equal share of the cluster by max-min water-filling,
/// regardless of class or deadline. Ad-hoc jobs do well (best baseline
/// turnaround in Fig. 4(c)), deadline jobs miss under contention because
/// urgency buys them nothing.
///
/// # Example
///
/// ```
/// use flowtime::FairScheduler;
/// use flowtime_sim::Scheduler;
/// assert_eq!(FairScheduler::new().name(), "Fair");
/// ```
#[derive(Debug, Clone, Default)]
pub struct FairScheduler {
    _private: (),
}

impl FairScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        FairScheduler::default()
    }
}

impl Scheduler for FairScheduler {
    fn name(&self) -> &str {
        "Fair"
    }

    fn decision_tag(&self) -> &'static str {
        "fair-share"
    }

    fn plan_slot(&mut self, state: &SimState) -> Allocation {
        let mut filler = SlotFiller::new(state);
        filler.fair_fill(state.runnable());
        filler.into_allocation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtime_dag::{JobSpec, ResourceVec};
    use flowtime_sim::prelude::*;

    #[test]
    fn splits_capacity_evenly() {
        let mut wl = SimWorkload::default();
        let spec = JobSpec::new("a", 8, 2, ResourceVec::new([1, 1024]));
        wl.adhoc.push(AdhocSubmission::new(spec.clone(), 0));
        wl.adhoc.push(AdhocSubmission::new(spec, 0));
        let cluster = ClusterConfig::new(ResourceVec::new([8, 16384]), 10.0);
        let out = Engine::new(cluster, wl, 100)
            .unwrap()
            .run(&mut FairScheduler::new())
            .unwrap();
        // Each job gets 4 cores: 16 task-slots of work finish in 4 slots,
        // simultaneously.
        let c: Vec<u64> = out.metrics.jobs.iter().map(|j| j.completion_slot).collect();
        assert_eq!(c, vec![4, 4]);
    }
}
