//! Inputs shared by the differential tests of the planning hot paths.

use helios_platform::{presets, ComputeCost, KernelClass, Platform};
use helios_workflow::generators::synthetic::{
    self, fork_join, gaussian_elimination, in_tree, out_tree,
};
use helios_workflow::{Task, Workflow, WorkflowBuilder};

/// The random DAG shape families of the scheduler-conformance battery:
/// layered, fork-join, in-tree, out-tree, Gaussian elimination.
pub(crate) fn random_workflow(shape: usize, seed: u64) -> Workflow {
    let gflop = 1.0 + (seed % 7) as f64;
    let bytes = 1e6 + (seed % 5) as f64 * 4e6;
    let wf = match shape % 5 {
        0 => synthetic::layered_random(
            &synthetic::LayeredConfig {
                levels: 2 + (seed % 4) as usize,
                width: 1 + (seed % 5) as usize,
                edge_prob: 0.2 + (seed % 8) as f64 / 10.0,
                mean_gflop: gflop,
                mean_bytes: bytes,
                ..synthetic::LayeredConfig::default()
            },
            seed,
        ),
        1 => fork_join(
            1 + (seed % 3) as usize,
            2 + (seed % 4) as usize,
            gflop,
            bytes,
            seed,
        ),
        2 => in_tree(
            1 + (seed % 3) as usize,
            2 + (seed % 2) as usize,
            gflop,
            bytes,
            seed,
        ),
        3 => out_tree(
            1 + (seed % 3) as usize,
            2 + (seed % 2) as usize,
            gflop,
            bytes,
            seed,
        ),
        _ => gaussian_elimination(2 + (seed % 4) as usize, gflop, bytes, seed),
    };
    wf.expect("generator parameters are in range")
}

/// `wf`'s DAG with every task costing the same and every edge carrying
/// the same bytes, so equal finish times (and so tie-breaks) are common.
pub(crate) fn flat_costs(wf: &Workflow) -> Workflow {
    let mut b = WorkflowBuilder::new("flat");
    let cost = ComputeCost::new(2.0, 0.0, KernelClass::DenseLinearAlgebra);
    for i in 0..wf.num_tasks() {
        b.add_task(Task::new(format!("t{i}"), "s", cost));
    }
    for edge in wf.edges() {
        b.add_dep(edge.src, edge.dst, 1e6)
            .expect("the source DAG's edges are valid");
    }
    b.build().expect("the source DAG is acyclic")
}

/// The platforms of the differential tests, by index `0..4`:
/// workstation, hpc_node, edge_soc and a two-node cluster.
pub(crate) fn platform(i: usize) -> Platform {
    match i % 4 {
        0 => presets::workstation(),
        1 => presets::hpc_node(),
        2 => presets::edge_soc(),
        _ => presets::cluster(2),
    }
}
