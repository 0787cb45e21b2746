//! Static and dynamic scheduling algorithms for heterogeneous workflows.
//!
//! A [`Scheduler`] maps a [`Workflow`] onto a
//! [`Platform`], producing a [`Schedule`]: one
//! [`Placement`] per task (device, DVFS level, start and finish time).
//! Schedules are *plans* built from the platform's cost models; the
//! `helios-core` engine executes them (and can deviate when reality —
//! noise, faults, link contention — intervenes).
//!
//! Implemented algorithms:
//!
//! | scheduler | family | reference behaviour |
//! |---|---|---|
//! | [`HeftScheduler`] | list | upward-rank order, insertion-based earliest finish time |
//! | [`CpopScheduler`] | list | critical path pinned to its best device |
//! | [`PeftScheduler`] | list | optimistic cost table lookahead |
//! | [`LookaheadScheduler`] | list | HEFT with one-step child lookahead |
//! | [`MinMinScheduler`] | batch | min–min completion time |
//! | [`MaxMinScheduler`] | batch | max–min completion time |
//! | [`MctScheduler`] | immediate | minimum completion time |
//! | [`MetScheduler`] | immediate | minimum execution time (ignores queues) |
//! | [`OlbScheduler`] | immediate | opportunistic load balancing |
//! | [`RoundRobinScheduler`] | baseline | cyclic device assignment |
//! | [`RandomScheduler`] | baseline | uniform random assignment |
//! | [`AnnealingScheduler`] | metaheuristic | simulated annealing seeded by HEFT |
//!
//! All schedulers are **memory-aware**: a task whose working set exceeds
//! a device's memory is never placed there
//! ([`SchedError::NoFeasibleDevice`] when nothing fits).
//!
//! # Examples
//!
//! ```
//! use helios_platform::presets;
//! use helios_sched::{HeftScheduler, Scheduler};
//! use helios_workflow::generators::montage;
//!
//! let platform = presets::hpc_node();
//! let wf = montage(50, 1)?;
//! let schedule = HeftScheduler::default().schedule(&wf, &platform)?;
//! schedule.validate(&wf, &platform)?;
//! println!("makespan: {}", schedule.makespan());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod annealing;
mod batch;
mod context;
mod cost;
mod cpop;
mod error;
mod heft;
mod immediate;
mod lookahead;
pub mod metrics;
mod peft;
pub mod reliability;
mod schedule;
#[cfg(test)]
mod testkit;
mod timeline;

/// Per-thread counters of the planning hot paths (test builds only).
/// Each test runs on its own thread, so a test reads exactly its own
/// runs.
#[cfg(test)]
pub(crate) mod probe {
    use std::cell::Cell;

    /// A counted site.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Site {
        /// One task placed by the annealing decoder.
        DecodeStep,
        /// A priority move whose decode stopped on the accepted state.
        Converged,
        /// A move whose decode stopped once its rejection was certain.
        Rejected,
        /// One (task, device) start probe by Min-Min/Max-Min.
        BatchProbe,
        /// One reservation of the accepted prefix that the annealing
        /// decoder restored into its candidate (copied, not reserved).
        Restored,
    }

    thread_local! {
        static COUNTS: Cell<[u64; 5]> = const { Cell::new([0; 5]) };
    }

    pub(crate) fn count(site: Site) {
        add(site, 1);
    }

    pub(crate) fn add(site: Site, n: u64) {
        COUNTS.with(|c| {
            let mut v = c.get();
            v[site as usize] += n;
            c.set(v);
        });
    }

    /// Returns `[decode steps, converged exits, early rejections, batch
    /// probes, restored reservations]` and resets them.
    pub(crate) fn take() -> [u64; 5] {
        COUNTS.with(|c| c.replace([0; 5]))
    }
}

pub use annealing::AnnealingScheduler;
pub use batch::{MaxMinScheduler, MinMinScheduler};
pub use context::SchedContext;
pub use cost::{placement_feasible, CostModel};
pub use cpop::CpopScheduler;
pub use error::SchedError;
pub use heft::{weighted_heft, HeftScheduler};
pub use immediate::{
    MctScheduler, MetScheduler, OlbScheduler, RandomScheduler, RoundRobinScheduler,
};
pub use lookahead::LookaheadScheduler;
pub use peft::PeftScheduler;
pub use schedule::{Placement, Schedule};
pub use timeline::DeviceTimeline;

use helios_platform::Platform;
use helios_workflow::Workflow;

/// A static workflow scheduler: given the full DAG and its
/// [`CostModel`] on the target platform, produce a complete placement
/// plan.
///
/// A planner reads every task and transfer cost from the model, so the
/// planners of one (workflow, platform) pair can share one: build it with
/// [`CostModel::new`] and pass it to [`Scheduler::schedule_with`] of
/// each. [`Scheduler::schedule`] builds a model for a single plan.
pub trait Scheduler {
    /// A short stable name for reports ("heft", "min-min", …).
    fn name(&self) -> &str;

    /// Computes a complete, valid schedule of `wf` from `model`, which
    /// must have been built from `wf`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError`] if the workflow and platform are
    /// incompatible (e.g. unroutable device pairs) or an internal
    /// invariant fails.
    fn schedule_with(&self, wf: &Workflow, model: &CostModel<'_>) -> Result<Schedule, SchedError>;

    /// Computes a complete, valid schedule of `wf` on `platform`, from a
    /// cost model built for this plan alone.
    ///
    /// # Errors
    ///
    /// Same as [`Scheduler::schedule_with`].
    fn schedule(&self, wf: &Workflow, platform: &Platform) -> Result<Schedule, SchedError> {
        self.schedule_with(wf, &CostModel::new(wf, platform)?)
    }
}

/// Builds one scheduler of the [`LINEUP`] with its default
/// configuration.
pub type SchedulerBuilder = fn() -> Box<dyn Scheduler>;

/// Every scheduler in the crate by report name, in lineup order, each
/// with the builder of its default configuration — the lineup used by
/// the comparison experiments (figure F3). A builder is a plain `fn`,
/// so set-up shared across threads can hold one and build a scheduler
/// per use without building the rest of the lineup.
pub const LINEUP: [(&str, SchedulerBuilder); 12] = [
    ("heft", || Box::new(HeftScheduler::default())),
    ("cpop", || Box::new(CpopScheduler::default())),
    ("peft", || Box::new(PeftScheduler::default())),
    ("lookahead", || Box::new(LookaheadScheduler::default())),
    ("min-min", || Box::new(MinMinScheduler::default())),
    ("max-min", || Box::new(MaxMinScheduler::default())),
    ("mct", || Box::new(MctScheduler::default())),
    ("met", || Box::new(MetScheduler::default())),
    ("olb", || Box::new(OlbScheduler::default())),
    ("round-robin", || Box::new(RoundRobinScheduler::default())),
    ("random", || Box::new(RandomScheduler::new(0))),
    ("annealing", || Box::new(AnnealingScheduler::new(500, 0))),
];

/// Every scheduler of the [`LINEUP`], built, in lineup order.
#[must_use]
pub fn all_schedulers() -> Vec<Box<dyn Scheduler>> {
    LINEUP.iter().map(|(_, build)| build()).collect()
}

/// Builds the [`LINEUP`] scheduler with report name `name` (`"heft"`,
/// `"min-min"`, …). Returns `None` for unknown names.
#[must_use]
pub fn scheduler_by_name(name: &str) -> Option<Box<dyn Scheduler>> {
    LINEUP
        .iter()
        .find(|(lineup_name, _)| *lineup_name == name)
        .map(|(_, build)| build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_platform::presets;
    use helios_workflow::generators::{montage, WorkflowClass};

    #[test]
    fn every_scheduler_produces_a_valid_schedule() {
        let platform = presets::hpc_node();
        let wf = montage(50, 3).unwrap();
        for s in all_schedulers() {
            let sched = s
                .schedule(&wf, &platform)
                .unwrap_or_else(|e| panic!("{}: {e}", s.name()));
            sched
                .validate(&wf, &platform)
                .unwrap_or_else(|e| panic!("{}: invalid schedule: {e}", s.name()));
            assert!(sched.makespan().as_secs() > 0.0, "{}", s.name());
        }
    }

    #[test]
    fn every_scheduler_handles_every_family() {
        let platform = presets::workstation();
        for class in WorkflowClass::ALL {
            let wf = class.generate(40, 1).unwrap();
            for s in all_schedulers() {
                let sched = s
                    .schedule(&wf, &platform)
                    .unwrap_or_else(|e| panic!("{}/{class}: {e}", s.name()));
                sched
                    .validate(&wf, &platform)
                    .unwrap_or_else(|e| panic!("{}/{class}: {e}", s.name()));
            }
        }
    }

    #[test]
    fn heft_beats_baselines_on_average() {
        let platform = presets::hpc_node();
        let heft = HeftScheduler::default();
        let rand = RandomScheduler::new(7);
        let mut heft_total = 0.0;
        let mut rand_total = 0.0;
        for seed in 0..10 {
            let wf = montage(80, seed).unwrap();
            heft_total += heft.schedule(&wf, &platform).unwrap().makespan().as_secs();
            rand_total += rand.schedule(&wf, &platform).unwrap().makespan().as_secs();
        }
        assert!(
            heft_total < rand_total,
            "HEFT {heft_total} should beat random {rand_total}"
        );
    }

    #[test]
    fn scheduler_by_name_resolves_every_lineup_member() {
        for s in all_schedulers() {
            let found =
                scheduler_by_name(s.name()).unwrap_or_else(|| panic!("{} must resolve", s.name()));
            assert_eq!(found.name(), s.name());
        }
        assert!(scheduler_by_name("sjf").is_none());
    }

    #[test]
    fn scheduler_names_are_unique() {
        let names: Vec<String> = all_schedulers()
            .iter()
            .map(|s| s.name().to_owned())
            .collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "{names:?}");
    }
}
