//! Fig. 1 — the paper's motivating example, reproduced exactly.
//!
//! Workflow W1 = two chained jobs, each occupying the full cluster for 100
//! time units, deadline 200. Ad-hoc jobs A1 (arrives 0) and A2 (arrives
//! 100), each needing half the cluster for 100 time units. EDF yields an
//! average ad-hoc turnaround of 150 = (200 + 100) / 2; FlowTime spreads W1
//! at half width and achieves 100 = (100 + 100) / 2 while still meeting the
//! deadline.

use flowtime::{Args, EdfScheduler, FlowTimeConfig, FlowTimeScheduler};
use flowtime_dag::{JobSpec, ResourceVec, WorkflowBuilder, WorkflowId};
use flowtime_sim::prelude::*;
use flowtime_sim::Scheduler;

fn workload() -> SimWorkload {
    // Cluster of 4 units; 1 slot = 10 time units of the figure.
    let mut b = WorkflowBuilder::new(WorkflowId::new(1), "W1");
    let j1 = b.add_job(JobSpec::new("job1", 20, 1, ResourceVec::new([1, 1024])));
    let j2 = b.add_job(JobSpec::new("job2", 20, 1, ResourceVec::new([1, 1024])));
    b.add_dep(j1, j2).expect("two nodes");
    let w1 = b.window(0, 20).build().expect("valid workflow");
    let mut wl = SimWorkload::default();
    wl.workflows.push(WorkflowSubmission::new(w1));
    let half_width = JobSpec::new("a", 20, 1, ResourceVec::new([1, 1024])).with_max_parallel(2);
    wl.adhoc.push(AdhocSubmission::new(half_width.clone(), 0)); // A1
    wl.adhoc.push(AdhocSubmission::new(half_width, 10)); // A2
    wl
}

fn simulate(name: &str, scheduler: &mut dyn Scheduler) -> (f64, usize) {
    let cluster = ClusterConfig::new(ResourceVec::new([4, 4096]), 10.0);
    let out = Engine::new(cluster, workload(), 10_000)
        .expect("valid workload")
        .run(scheduler)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    (
        out.metrics
            .avg_adhoc_turnaround_seconds()
            .expect("two ad-hoc jobs"),
        out.metrics.workflow_deadline_misses(),
    )
}

pub fn run(_args: &Args) -> Result<(), String> {
    println!("Fig. 1 — motivating example (1 slot = 10 time units of the figure)\n");
    let cluster = ClusterConfig::new(ResourceVec::new([4, 4096]), 10.0);
    let mut edf = EdfScheduler::new();
    let (edf_tat, edf_miss) = simulate("EDF", &mut edf);
    let mut ft = FlowTimeScheduler::new(
        cluster,
        FlowTimeConfig {
            slack_slots: 0,
            ..Default::default()
        },
    );
    let (ft_tat, ft_miss) = simulate("FlowTime", &mut ft);
    println!(
        "  EDF     : avg ad-hoc turnaround {edf_tat:6.1} time units, workflow misses {edf_miss}"
    );
    println!(
        "  FlowTime: avg ad-hoc turnaround {ft_tat:6.1} time units, workflow misses {ft_miss}"
    );
    println!("\npaper: EDF 150, our approach 100 (both meeting the deadline)");
    if (edf_miss, ft_miss) != (0, 0) {
        return Err("a scheduler missed W1's deadline".into());
    }
    if (edf_tat - 150.0).abs() >= 1e-9 || (ft_tat - 100.0).abs() >= 1e-9 {
        return Err("EDF should average 150 and FlowTime 100".into());
    }
    println!("reproduced exactly.");
    Ok(())
}
