//! Structural and platform-aware DAG analysis.
//!
//! These are the quantities the schedulers and the evaluation tables are
//! built from: level structure (depth/width/parallelism profile), the
//! platform-averaged critical path, HEFT-style top and bottom levels, and
//! the communication-to-computation ratio (CCR).
//!
//! Platform-aware metrics average costs over all devices (the convention
//! of the list-scheduling literature), so they characterize the workflow
//! on a platform without committing to any placement.

use helios_platform::{Platform, PlatformError};

use crate::dag::Workflow;
use crate::task::TaskId;

/// Number of levels in the DAG: the length (in tasks) of the longest
/// chain. A single task has depth 1.
#[must_use]
pub fn depth(wf: &Workflow) -> usize {
    let levels = levels(wf);
    levels.iter().copied().max().map_or(0, |m| m + 1)
}

/// The level (longest-path distance from an entry, in hops) of each task.
#[must_use]
pub fn levels(wf: &Workflow) -> Vec<usize> {
    let mut level = vec![0usize; wf.num_tasks()];
    for &t in wf.topo_order() {
        for s in wf.successor_tasks(t) {
            level[s.0] = level[s.0].max(level[t.0] + 1);
        }
    }
    level
}

/// Tasks per level — the workflow's parallelism profile.
#[must_use]
pub fn parallelism_profile(wf: &Workflow) -> Vec<usize> {
    let lv = levels(wf);
    let depth = lv.iter().copied().max().map_or(0, |m| m + 1);
    let mut profile = vec![0usize; depth];
    for &l in &lv {
        profile[l] += 1;
    }
    profile
}

/// Maximum number of tasks on one level — an upper bound on exploitable
/// parallelism.
#[must_use]
pub fn width(wf: &Workflow) -> usize {
    parallelism_profile(wf).into_iter().max().unwrap_or(0)
}

/// Mean execution time of every task across the platform's devices,
/// indexed by task id (seconds).
///
/// # Errors
///
/// Propagates platform model errors.
pub fn mean_exec_times(wf: &Workflow, platform: &Platform) -> Result<Vec<f64>, PlatformError> {
    wf.tasks()
        .iter()
        .map(|t| Ok(platform.mean_execution_time(t.cost())?.as_secs()))
        .collect()
}

/// Mean transfer time of every edge across distinct device pairs, indexed
/// by edge id (seconds).
///
/// # Errors
///
/// Propagates platform routing errors; a workflow without edges never
/// touches a route.
pub fn mean_comm_times(wf: &Workflow, platform: &Platform) -> Result<Vec<f64>, PlatformError> {
    let bytes: Vec<f64> = wf.edges().iter().map(|e| e.bytes).collect();
    Ok(platform
        .mean_transfer_times(&bytes)?
        .into_iter()
        .map(|t| t.as_secs())
        .collect())
}

/// HEFT *upward rank* (bottom level) of every task: mean execution time
/// plus the maximum over successors of mean edge cost + successor rank.
///
/// # Errors
///
/// Propagates platform model errors. Returns
/// [`PlatformError::NonFiniteModel`] if any rank comes out NaN or
/// infinite — rank-based schedulers order tasks with `total_cmp`, where
/// a single NaN would silently scramble priorities instead of failing.
pub fn bottom_levels(wf: &Workflow, platform: &Platform) -> Result<Vec<f64>, PlatformError> {
    let exec = mean_exec_times(wf, platform)?;
    let comm = mean_comm_times(wf, platform)?;
    bottom_levels_with(wf, &exec, &comm)
}

/// [`bottom_levels`] from precomputed [`mean_exec_times`] and
/// [`mean_comm_times`], for callers that need those vectors too.
///
/// # Errors
///
/// Returns [`PlatformError::NonFiniteModel`] as [`bottom_levels`] does.
pub fn bottom_levels_with(
    wf: &Workflow,
    exec: &[f64],
    comm: &[f64],
) -> Result<Vec<f64>, PlatformError> {
    let mut rank = vec![0.0f64; wf.num_tasks()];
    for &t in wf.topo_order().iter().rev() {
        let mut best = 0.0f64;
        for &e in wf.successors(t) {
            let edge = wf.edge(e);
            best = best.max(comm[e.0] + rank[edge.dst.0]);
        }
        rank[t.0] = exec[t.0] + best;
        if !rank[t.0].is_finite() {
            return Err(PlatformError::NonFiniteModel {
                what: "upward rank",
                index: t.0,
                value: rank[t.0],
            });
        }
    }
    Ok(rank)
}

/// *Downward rank* (top level) of every task: the longest mean-cost path
/// from any entry task to (but excluding) the task itself.
///
/// # Errors
///
/// Propagates platform model errors.
pub fn top_levels(wf: &Workflow, platform: &Platform) -> Result<Vec<f64>, PlatformError> {
    let exec = mean_exec_times(wf, platform)?;
    let comm = mean_comm_times(wf, platform)?;
    Ok(top_levels_with(wf, &exec, &comm))
}

/// [`top_levels`] from precomputed [`mean_exec_times`] and
/// [`mean_comm_times`].
#[must_use]
pub fn top_levels_with(wf: &Workflow, exec: &[f64], comm: &[f64]) -> Vec<f64> {
    let mut rank = vec![0.0f64; wf.num_tasks()];
    for &t in wf.topo_order() {
        for &e in wf.successors(t) {
            let edge = wf.edge(e);
            let candidate = rank[t.0] + exec[t.0] + comm[e.0];
            if candidate > rank[edge.dst.0] {
                rank[edge.dst.0] = candidate;
            }
        }
    }
    rank
}

/// The platform-averaged critical path: the task sequence with the largest
/// total mean cost, and that cost in seconds.
///
/// # Errors
///
/// Propagates platform model errors.
pub fn critical_path(
    wf: &Workflow,
    platform: &Platform,
) -> Result<(Vec<TaskId>, f64), PlatformError> {
    let exec = mean_exec_times(wf, platform)?;
    let comm = mean_comm_times(wf, platform)?;
    let ranks = bottom_levels_with(wf, &exec, &comm)?;
    let start = wf
        .entry_tasks()
        .into_iter()
        .max_by(|a, b| ranks[a.0].total_cmp(&ranks[b.0]));
    let Some(mut current) = start else {
        return Ok((Vec::new(), 0.0));
    };
    let length = ranks[current.0];
    let mut path = vec![current];
    loop {
        // Follow the successor whose (comm + rank) realizes this rank.
        let next = wf
            .successors(current)
            .iter()
            .map(|&e| {
                let edge = wf.edge(e);
                (edge.dst, comm[e.0] + ranks[edge.dst.0])
            })
            .max_by(|a, b| a.1.total_cmp(&b.1));
        match next {
            Some((dst, _)) => {
                path.push(dst);
                current = dst;
            }
            None => break,
        }
    }
    Ok((path, length))
}

/// Communication-to-computation ratio: total mean edge cost over total
/// mean task cost. High CCR means data movement dominates.
///
/// # Errors
///
/// Propagates platform model errors.
pub fn ccr(wf: &Workflow, platform: &Platform) -> Result<f64, PlatformError> {
    let exec: f64 = mean_exec_times(wf, platform)?.iter().sum();
    let comm: f64 = mean_comm_times(wf, platform)?.iter().sum();
    if exec == 0.0 {
        Ok(0.0)
    } else {
        Ok(comm / exec)
    }
}

/// Summary statistics for one workflow on one platform (evaluation
/// Table T2 rows).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowStats {
    /// Workflow name.
    pub name: String,
    /// Task count.
    pub tasks: usize,
    /// Edge count.
    pub edges: usize,
    /// Longest chain length, in tasks.
    pub depth: usize,
    /// Maximum level occupancy.
    pub width: usize,
    /// Total work, GFLOP.
    pub total_gflop: f64,
    /// Total edge payload, bytes.
    pub total_bytes: f64,
    /// Communication-to-computation ratio on the platform.
    pub ccr: f64,
    /// Mean-cost critical-path length, seconds.
    pub cp_seconds: f64,
}

impl WorkflowStats {
    /// Computes the summary for `wf` on `platform`.
    ///
    /// # Errors
    ///
    /// Propagates platform model errors.
    pub fn compute(wf: &Workflow, platform: &Platform) -> Result<WorkflowStats, PlatformError> {
        let (_, cp_seconds) = critical_path(wf, platform)?;
        Ok(WorkflowStats {
            name: wf.name().to_owned(),
            tasks: wf.num_tasks(),
            edges: wf.num_edges(),
            depth: depth(wf),
            width: width(wf),
            total_gflop: wf.total_gflop(),
            total_bytes: wf.total_edge_bytes(),
            ccr: ccr(wf, platform)?,
            cp_seconds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::WorkflowBuilder;
    use crate::task::Task;
    use helios_platform::{presets, ComputeCost, KernelClass};

    fn task(name: &str, gflop: f64) -> Task {
        Task::new(
            name,
            "s",
            ComputeCost::new(gflop, 0.0, KernelClass::Reduction),
        )
    }

    /// a -> b -> d, a -> c -> d with b heavier than c.
    fn diamond() -> Workflow {
        let mut b = WorkflowBuilder::new("diamond");
        let a = b.add_task(task("a", 10.0));
        let t_b = b.add_task(task("b", 100.0));
        let t_c = b.add_task(task("c", 1.0));
        let d = b.add_task(task("d", 10.0));
        b.add_dep(a, t_b, 1e6).unwrap();
        b.add_dep(a, t_c, 1e6).unwrap();
        b.add_dep(t_b, d, 1e6).unwrap();
        b.add_dep(t_c, d, 1e6).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn levels_and_width() {
        let wf = diamond();
        assert_eq!(levels(&wf), vec![0, 1, 1, 2]);
        assert_eq!(depth(&wf), 3);
        assert_eq!(width(&wf), 2);
        assert_eq!(parallelism_profile(&wf), vec![1, 2, 1]);
    }

    #[test]
    fn critical_path_follows_heavy_branch() {
        let wf = diamond();
        let p = presets::workstation();
        let (path, len) = critical_path(&wf, &p).unwrap();
        let names: Vec<_> = path.iter().map(|&t| wf.task(t).unwrap().name()).collect();
        assert_eq!(names, vec!["a", "b", "d"]);
        assert!(len > 0.0);
    }

    #[test]
    fn ranks_are_consistent() {
        let wf = diamond();
        let p = presets::workstation();
        let bl = bottom_levels(&wf, &p).unwrap();
        let tl = top_levels(&wf, &p).unwrap();
        let exec = mean_exec_times(&wf, &p).unwrap();
        // Entry bottom level equals CP length; exit top level + own exec
        // equals CP length (single entry/exit diamond).
        let (_, cp) = critical_path(&wf, &p).unwrap();
        assert!((bl[0] - cp).abs() < 1e-9);
        assert!((tl[3] + exec[3] - cp).abs() < 1e-9);
        assert_eq!(tl[0], 0.0, "entry has zero top level");
        // Bottom level decreases along the path.
        assert!(bl[0] > bl[1] && bl[1] > bl[3]);
    }

    #[test]
    fn comm_times_match_per_edge_means_bit_for_bit() {
        let wf = diamond();
        for p in presets::all() {
            let comm = mean_comm_times(&wf, &p).unwrap();
            for (e, got) in wf.edges().iter().zip(&comm) {
                let want = p.mean_transfer_time(e.bytes).unwrap().as_secs();
                assert_eq!(got.to_bits(), want.to_bits(), "{}", p.name());
            }
        }
    }

    #[test]
    fn comm_times_touch_routes_only_for_edges() {
        use helios_platform::{DeviceBuilder, DeviceKind, InterconnectBuilder, PlatformBuilder};
        let mut b = PlatformBuilder::new("islands");
        b.add_device(DeviceBuilder::new("cpu0", DeviceKind::Cpu).build().unwrap());
        b.add_device(DeviceBuilder::new("cpu1", DeviceKind::Cpu).build().unwrap());
        b.interconnect(InterconnectBuilder::new().build());
        let islands = b.build().unwrap();

        let mut one = WorkflowBuilder::new("one");
        one.add_task(task("only", 5.0));
        let one = one.build().unwrap();
        assert_eq!(mean_comm_times(&one, &islands).unwrap(), Vec::<f64>::new());
        assert_eq!(critical_path(&one, &islands).unwrap().0, vec![TaskId(0)]);

        assert_eq!(
            mean_comm_times(&diamond(), &islands).unwrap_err(),
            islands.mean_transfer_time(1e6).unwrap_err()
        );
    }

    #[test]
    fn overflowing_ranks_rejected_with_typed_error() {
        let p = presets::workstation();
        // Probe the platform-mean execution time of one enormous (but
        // individually valid) task, then chain enough of them that the
        // accumulated upward rank overflows f64 to infinity.
        let probe = {
            let mut b = WorkflowBuilder::new("probe");
            b.add_task(task("t", 1e306));
            b.build().unwrap()
        };
        let per_task = bottom_levels(&probe, &p).unwrap()[0];
        assert!(per_task.is_finite() && per_task > 0.0);
        let n = ((f64::MAX / per_task) as usize + 8).min(500_000);
        let mut b = WorkflowBuilder::new("overflow");
        let mut prev = b.add_task(task("t0", 1e306));
        for i in 1..n {
            let cur = b.add_task(task(&format!("t{i}"), 1e306));
            b.add_dep(prev, cur, 0.0).unwrap();
            prev = cur;
        }
        let wf = b.build().unwrap();
        match bottom_levels(&wf, &p) {
            Err(PlatformError::NonFiniteModel { what, value, .. }) => {
                assert_eq!(what, "upward rank");
                assert!(value.is_infinite());
            }
            other => panic!(
                "expected NonFiniteModel, got {:?}",
                other.map(|ranks| ranks.last().copied())
            ),
        }
    }

    #[test]
    fn ccr_scales_with_edge_bytes() {
        let p = presets::workstation();
        let small = diamond();
        let mut b = WorkflowBuilder::new("chatty");
        let a = b.add_task(task("a", 10.0));
        let c = b.add_task(task("b", 10.0));
        b.add_dep(a, c, 1e10).unwrap();
        let chatty = b.build().unwrap();
        let ccr_small = ccr(&small, &p).unwrap();
        let ccr_big = ccr(&chatty, &p).unwrap();
        assert!(ccr_big > ccr_small);
        assert!(ccr_small > 0.0);
    }

    #[test]
    fn stats_summary() {
        let wf = diamond();
        let p = presets::workstation();
        let s = WorkflowStats::compute(&wf, &p).unwrap();
        assert_eq!(s.tasks, 4);
        assert_eq!(s.edges, 4);
        assert_eq!(s.depth, 3);
        assert_eq!(s.width, 2);
        assert_eq!(s.total_gflop, 121.0);
        assert!(s.cp_seconds > 0.0);
        assert!(s.ccr >= 0.0);
    }

    #[test]
    fn single_task_degenerate() {
        let mut b = WorkflowBuilder::new("one");
        b.add_task(task("only", 5.0));
        let wf = b.build().unwrap();
        let p = presets::workstation();
        assert_eq!(depth(&wf), 1);
        assert_eq!(width(&wf), 1);
        assert_eq!(ccr(&wf, &p).unwrap(), 0.0);
        let (path, len) = critical_path(&wf, &p).unwrap();
        assert_eq!(path.len(), 1);
        assert!(len > 0.0);
    }

    #[test]
    fn zero_work_workflow_has_zero_ccr_denominator_handled() {
        let mut b = WorkflowBuilder::new("z");
        let a = b.add_task(Task::new(
            "a",
            "s",
            ComputeCost::new(0.0, 0.0, KernelClass::DataMovement),
        ));
        let c = b.add_task(Task::new(
            "b",
            "s",
            ComputeCost::new(0.0, 0.0, KernelClass::DataMovement),
        ));
        b.add_dep(a, c, 1e6).unwrap();
        let wf = b.build().unwrap();
        let p = presets::workstation();
        // exec is launch-overhead only, never exactly zero, so ccr is finite.
        let r = ccr(&wf, &p).unwrap();
        assert!(r.is_finite());
    }
}
