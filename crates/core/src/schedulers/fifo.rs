//! FIFO baseline: first-come, first-served, deadline-oblivious.

use super::util::SlotFiller;
use flowtime_sim::{Allocation, Scheduler, SimState};

/// The FIFO baseline of the paper's evaluation: all runnable jobs —
/// deadline or ad-hoc alike — are served at full width in arrival order.
/// Deadlines play no role, so under contention deadline jobs queue behind
/// earlier arrivals and miss (the worst miss count in Fig. 4(b)).
///
/// # Example
///
/// ```
/// use flowtime::FifoScheduler;
/// use flowtime_sim::Scheduler;
/// assert_eq!(FifoScheduler::new().name(), "FIFO");
/// ```
#[derive(Debug, Clone, Default)]
pub struct FifoScheduler {
    _private: (),
}

impl FifoScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        FifoScheduler::default()
    }
}

impl Scheduler for FifoScheduler {
    fn name(&self) -> &str {
        "FIFO"
    }

    fn decision_tag(&self) -> &'static str {
        "fifo-greedy"
    }

    fn plan_slot(&mut self, state: &SimState) -> Allocation {
        let mut filler = SlotFiller::new(state);
        // runnable() yields in (arrival, id) order.
        filler.greedy_fill(state.runnable());
        filler.into_allocation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtime_dag::{JobSpec, ResourceVec};
    use flowtime_sim::prelude::*;

    #[test]
    fn serves_in_arrival_order() {
        let mut wl = SimWorkload::default();
        let spec = JobSpec::new("a", 4, 2, ResourceVec::new([1, 1024]));
        wl.adhoc.push(AdhocSubmission::new(spec.clone(), 0));
        wl.adhoc.push(AdhocSubmission::new(spec, 1));
        let cluster = ClusterConfig::new(ResourceVec::new([4, 8192]), 10.0);
        let out = Engine::new(cluster, wl, 100)
            .unwrap()
            .run(&mut FifoScheduler::new())
            .unwrap();
        let c: Vec<u64> = out.metrics.jobs.iter().map(|j| j.completion_slot).collect();
        // First job monopolizes the 4 cores for 2 slots; second runs after.
        assert_eq!(c, vec![2, 4]);
    }
}
