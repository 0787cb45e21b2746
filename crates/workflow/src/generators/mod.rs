//! Workflow generators.
//!
//! Two families:
//!
//! * [`scientific`] — structural generators for the five classic scientific
//!   discovery workflows characterized by the Pegasus project (Montage,
//!   CyberShake, Epigenomics, LIGO Inspiral, SIPHT). Task counts, stage
//!   ratios, kernel classes and data-product sizes follow the published
//!   characterizations; per-task magnitudes are sampled around the stage
//!   means so repeated generations with different seeds give an ensemble.
//! * [`synthetic`] — parameterized DAG families (layered random graphs,
//!   fork–join, trees, chains, Gaussian elimination) for controlled sweeps
//!   such as the CCR-sensitivity experiment.
//!
//! All generators are deterministic in their `seed` argument.

pub mod campaign;
pub mod scientific;
pub mod synthetic;

pub use campaign::{generate_campaign, CampaignConfig, Submission};
pub use scientific::{cybershake, epigenomics, ligo_inspiral, montage, sipht, WorkflowClass};
pub use synthetic::{
    chain, fork_join, gaussian_elimination, in_tree, layered_random, out_tree, scale_edges_to_ccr,
    LayeredConfig,
};

use helios_platform::{ComputeCost, KernelClass};
use helios_sim::SimRng;

use crate::dag::Workflow;
use crate::error::WorkflowError;
use crate::task::Task;

/// Rewrites edge sizes so every out-edge of a task carries the same
/// payload: the mean of the task's sampled out-edge sizes. Consumers of
/// one task read the *same data product*, so their edges must agree —
/// this also makes per-device data caching well-defined. Total
/// communication volume is preserved exactly. The sizes are rewritten
/// in place: the graph, its adjacency and its topological order stay.
pub(crate) fn unify_product_sizes(mut wf: Workflow) -> Result<Workflow, WorkflowError> {
    let mut mean_out = vec![0.0f64; wf.num_tasks()];
    for (i, mean) in mean_out.iter_mut().enumerate() {
        let succs = wf.successors(crate::task::TaskId(i));
        if succs.is_empty() {
            continue;
        }
        let total: f64 = succs.iter().map(|&e| wf.edge(e).bytes).sum();
        *mean = total / succs.len() as f64;
    }
    wf.set_edge_bytes(|e| mean_out[e.src.0])?;
    Ok(wf)
}

/// Specification of one pipeline stage used by the scientific generators:
/// the kernel class plus mean work and output-size magnitudes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageSpec {
    pub name: &'static str,
    pub class: KernelClass,
    /// Mean work in GFLOP.
    pub gflop: f64,
    /// Mean memory traffic in bytes.
    pub bytes_touched: f64,
    /// Mean output data-product size in bytes (per out-edge).
    pub out_bytes: f64,
}

impl StageSpec {
    /// Samples a task of this stage. Work and sizes vary ±30 % (clamped
    /// normal) around the stage means.
    pub(crate) fn sample(&self, index: usize, rng: &mut SimRng) -> Task {
        let gflop = rng.normal_clamped(self.gflop, 0.3 * self.gflop, 0.05 * self.gflop);
        let bytes = rng.normal_clamped(
            self.bytes_touched,
            0.3 * self.bytes_touched,
            0.05 * self.bytes_touched,
        );
        Task::new(
            format!("{}_{index}", self.name),
            self.name,
            ComputeCost::new(gflop, bytes, self.class),
        )
    }

    /// Samples an output-edge payload size.
    pub(crate) fn sample_out_bytes(&self, rng: &mut SimRng) -> f64 {
        rng.normal_clamped(self.out_bytes, 0.3 * self.out_bytes, 0.05 * self.out_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_sampling_is_bounded_and_deterministic() {
        let spec = StageSpec {
            name: "stage",
            class: KernelClass::Fft,
            gflop: 100.0,
            bytes_touched: 1e9,
            out_bytes: 1e8,
        };
        let mut a = SimRng::seed_from(5);
        let mut b = SimRng::seed_from(5);
        let ta = spec.sample(0, &mut a);
        let tb = spec.sample(0, &mut b);
        assert_eq!(ta.cost().gflop(), tb.cost().gflop());
        assert!(ta.cost().gflop() >= 5.0);
        assert_eq!(ta.name(), "stage_0");
        assert_eq!(ta.stage(), "stage");
        let bytes = spec.sample_out_bytes(&mut a);
        assert!(bytes >= 5e6);
    }

    /// The rebuild the in-place rewrite must equal: every task and edge
    /// added again to a new builder, each edge at its source's mean.
    fn rebuilt_with_means(wf: &Workflow) -> Result<Workflow, WorkflowError> {
        let mut b = crate::dag::WorkflowBuilder::new(wf.name());
        for t in wf.tasks() {
            b.add_task(t.clone());
        }
        for e in wf.edges() {
            let succs = wf.successors(e.src);
            let total: f64 = succs.iter().map(|&s| wf.edge(s).bytes).sum();
            b.add_dep(e.src, e.dst, total / succs.len() as f64)?;
        }
        b.build()
    }

    #[test]
    fn unified_sizes_equal_a_rebuild() {
        // On each family's workflow and on one with uneven out-edges, the
        // rewrite must equal the rebuild, field for field.
        for class in WorkflowClass::ALL {
            let wf = class.generate(60, 2).unwrap();
            let want = rebuilt_with_means(&wf).unwrap();
            assert_eq!(unify_product_sizes(wf).unwrap(), want);
        }
        let mut b = crate::dag::WorkflowBuilder::new("fan");
        let cost = ComputeCost::new(1.0, 0.0, KernelClass::Reduction);
        let ids: Vec<_> = (0..5)
            .map(|i| b.add_task(Task::new(format!("t{i}"), "s", cost)))
            .collect();
        for (i, &dst) in ids[1..].iter().enumerate() {
            b.add_dep(ids[0], dst, 1e6 * (i + 1) as f64).unwrap();
        }
        b.add_dep(ids[1], ids[4], 3.5e5).unwrap();
        let wf = b.build().unwrap();
        let want = rebuilt_with_means(&wf).unwrap();
        assert_eq!(unify_product_sizes(wf).unwrap(), want);
        assert_eq!(want.edge(crate::dag::EdgeId(0)).bytes, 2.5e6);
    }

    #[test]
    fn a_mean_out_of_range_is_refused() {
        // Two near-maximal payloads sum to infinity, so their mean is
        // no edge size; the rewrite refuses it as a builder would.
        let mut b = crate::dag::WorkflowBuilder::new("huge");
        let cost = ComputeCost::new(1.0, 0.0, KernelClass::Reduction);
        let ids: Vec<_> = (0..3)
            .map(|i| b.add_task(Task::new(format!("t{i}"), "s", cost)))
            .collect();
        b.add_dep(ids[0], ids[1], f64::MAX).unwrap();
        b.add_dep(ids[0], ids[2], f64::MAX).unwrap();
        let wf = b.build().unwrap();
        let err = unify_product_sizes(wf.clone()).unwrap_err().to_string();
        assert!(
            err.contains("edge bytes must be non-negative and finite"),
            "{err}"
        );
        assert_eq!(rebuilt_with_means(&wf).unwrap_err().to_string(), err);
    }
}
