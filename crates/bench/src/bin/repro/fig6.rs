//! Fig. 6 — scalability of the deadline-decomposition algorithm.
//!
//! Measures decomposition runtime over random layered workflows with 10 to
//! 200 nodes and up to ~6000 edges (5 edge densities per node count), each
//! point averaged over `--runs` runs after `--warmup` warmups, exactly
//! mirroring the paper's methodology (1000 runs after 100 warmups). The
//! paper's laptop returns 200-node / 6000-edge decompositions within 3 s;
//! the *shape* to reproduce is slow growth in both nodes and edges.
//!
//! This is one of the two stopwatches outside `benchmark/`: decomposition
//! runtime against DAG size *is* the paper's Fig. 6, on the paper's
//! methodology, and no benchmark workload sweeps DAG size.
//!
//! Usage: `repro fig6 [--runs 1000] [--warmup 100]`

use flowtime::decompose::{decompose, DecomposeConfig};
use flowtime::Args;
use flowtime_dag::{JobSpec, ResourceVec, WorkflowBuilder, WorkflowId};
use flowtime_workload::shapes;
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct Point {
    nodes: usize,
    edges: usize,
    mean_us: f64,
}

fn build_workflow(nodes: usize, target_edges: usize, seed: u64) -> flowtime_dag::Workflow {
    let layers = (nodes / 10).clamp(3, 20);
    let edges = shapes::layered_random(nodes, layers, target_edges, seed);
    let mut b = WorkflowBuilder::new(WorkflowId::new(seed), "fig6");
    for i in 0..nodes {
        b.add_job(JobSpec::new(
            format!("j{i}"),
            40 + (i as u64 % 160),
            1 + (i as u64 % 5),
            ResourceVec::new([1, 2048]),
        ));
    }
    for (from, to) in edges {
        b.add_dep(from, to).expect("generator emits unique edges");
    }
    b.window(0, 100_000).build().expect("valid workflow")
}

pub fn run(args: &Args) -> Result<(), String> {
    let runs = args.get_parsed("runs", 1000usize)?;
    let warmup = args.get_parsed("warmup", 100usize)?;
    let config = DecomposeConfig::new(ResourceVec::new([500, 1_048_576]));

    println!("fig6: decomposition runtime, {runs} runs after {warmup} warmups");
    println!("{:>6} {:>7} {:>12}", "nodes", "edges", "mean (us)");
    let mut points = Vec::new();
    for &nodes in &[10usize, 50, 100, 150, 200] {
        for density in 1..=5u64 {
            // Edge targets grow to ~6000 at 200 nodes / density 5.
            let target = (nodes * nodes / 7) * density as usize / 5;
            let wf = build_workflow(nodes, target, 1000 + density);
            let edges = wf.dag().edge_count();
            for _ in 0..warmup {
                let _ = decompose(&wf, &config).expect("valid");
            }
            let t0 = Instant::now();
            for _ in 0..runs {
                let d = decompose(&wf, &config).expect("valid");
                std::hint::black_box(&d);
            }
            let mean_us = t0.elapsed().as_secs_f64() * 1e6 / runs as f64;
            println!("{nodes:>6} {edges:>7} {mean_us:>12.1}");
            points.push(Point {
                nodes,
                edges,
                mean_us,
            });
        }
    }
    let worst = points.iter().map(|p| p.mean_us).fold(0.0, f64::max);
    println!(
        "\nworst case: {:.2} ms (paper: <= 3 s at 200 nodes / 6000 edges)",
        worst / 1e3
    );
    flowtime_bench::report::persist("fig6", &points);
    Ok(())
}
