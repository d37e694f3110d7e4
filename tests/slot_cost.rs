//! A slot's scheduling costs what it grants, counted rather than timed.
//!
//! With a backlog of over a thousand runnable jobs on a 160-core cluster,
//! FIFO, Fair and EDF must build no more [`JobView`]s in one `plan_slot`
//! than the jobs they grant, plus the runnable deadline rows (EDF sorts
//! those), plus one. A scheduler that materialises the whole runnable set
//! builds over a thousand views a slot and fails here without a
//! stopwatch. The counter is `flowtime_sim::state::views_built`, compiled
//! into test and `oracle` builds only.

use flowtime::Algo;
use flowtime_dag::{JobSpec, ResourceVec, WorkflowBuilder, WorkflowId};
use flowtime_sim::prelude::*;
use flowtime_sim::state::views_built;

const BACKLOG: u64 = 1_200;

/// Four two-job workflows and `BACKLOG` ad-hoc jobs, all arriving at slot
/// 0, each ad-hoc job long enough that the backlog outlives the test.
fn scenario() -> (ClusterConfig, SimWorkload) {
    let mut wl = SimWorkload::default();
    for w in 0..4u64 {
        let mut b = WorkflowBuilder::new(WorkflowId::new(w + 1), "wf");
        let a = b.add_job(JobSpec::new("a", 8, 10, ResourceVec::new([2, 4096])));
        let c = b.add_job(JobSpec::new("c", 8, 10, ResourceVec::new([2, 4096])));
        b.add_dep(a, c).unwrap();
        let wf = b.window(0, 100 + 50 * w).build().unwrap();
        wl.workflows.push(WorkflowSubmission::new(wf));
    }
    for i in 0..BACKLOG {
        let spec = JobSpec::new("x", 1 + i % 4, 40, ResourceVec::new([1, 1024]));
        wl.adhoc.push(AdhocSubmission::new(spec, 0));
    }
    (
        ClusterConfig::new(ResourceVec::new([160, 160 * 4096]), 10.0),
        wl,
    )
}

/// Wraps a scheduler and records, per slot, the views its `plan_slot`
/// built, the jobs it granted and the runnable deadline rows.
struct Counted {
    inner: Box<dyn Scheduler>,
    slots: Vec<(u64, u64, u64)>,
    runnable_at_start: usize,
}

impl Scheduler for Counted {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn plan_slot(&mut self, state: &SimState) -> Allocation {
        let before = views_built();
        let alloc = self.inner.plan_slot(state);
        let built = views_built() - before;
        let deadline = state.runnable_deadline().count() as u64;
        if self.slots.is_empty() {
            self.runnable_at_start = state.runnable().count();
        }
        self.slots.push((built, alloc.len() as u64, deadline));
        alloc
    }
}

#[test]
fn counted_views_per_slot_follow_grants_not_the_backlog() {
    for algo in [Algo::Fifo, Algo::Fair, Algo::Edf] {
        let (cluster, wl) = scenario();
        let mut counted = Counted {
            inner: algo.make(&cluster),
            slots: Vec::new(),
            runnable_at_start: 0,
        };
        Engine::new(cluster, wl, 30)
            .unwrap()
            .run(&mut counted)
            .unwrap();
        assert!(counted.runnable_at_start > BACKLOG as usize);
        assert_eq!(counted.slots.len(), 30);
        for (slot, &(built, granted, deadline)) in counted.slots.iter().enumerate() {
            assert!(granted > 0, "{} slot {slot}: nothing granted", algo.name());
            assert!(
                built <= granted + deadline + 1,
                "{} slot {slot}: {built} views for {granted} grants and {deadline} deadline rows",
                algo.name()
            );
        }
    }
}
