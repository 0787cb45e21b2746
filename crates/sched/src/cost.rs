//! The cost model: what each task costs on each device, where it may
//! run, and what moving data between devices costs. Every planner, the
//! SLR bound and the runners' feasibility checks read it; nothing else
//! in `helios-sched` or `helios-core` derives these numbers.

use std::sync::OnceLock;

use helios_platform::{Device, DeviceId, DvfsLevel, Platform, PlatformError, TransferTable};
use helios_sim::SimDuration;
use helios_workflow::{analysis, Task, TaskId, Workflow};

use crate::error::SchedError;

/// The placement feasibility predicate every scheduler (and the engine's
/// dispatchers) enforces: the task's working set fits the device's
/// memory **and** the device's trust level clears the task's security
/// requirement (see the survey's observation that a heterogeneous
/// system is only as secure as its weakest component).
#[must_use]
pub fn placement_feasible(device: &Device, task: &Task) -> bool {
    device.fits(task.cost()) && device.trust_level() >= task.required_trust()
}

/// The costs of one workflow on one platform, built once and shared by
/// everything that plans, bounds or dispatches that pair.
///
/// Built eagerly: the task × device matrix of nominal execution times,
/// each task's feasible devices, each device's nominal DVFS level and
/// the platform's [`TransferTable`]. Derived on first use and then kept:
/// the mean execution and communication costs, the upward ranks and the
/// SLR lower bound. Those are lazy because the mean communication cost
/// averages over every device pair: on a platform with an unroutable
/// pair it fails with [`PlatformError::NoRoute`], which must reach the
/// planners that read ranks and no other.
///
/// The model borrows the platform but not the workflow, so a cache can
/// keep it beside a shared workflow. The methods that take `wf` must be
/// given the workflow the model was built from.
///
/// # Examples
///
/// ```
/// use helios_platform::presets;
/// use helios_sched::{CostModel, HeftScheduler, Scheduler};
/// use helios_workflow::generators::montage;
///
/// let platform = presets::hpc_node();
/// let wf = montage(30, 1)?;
/// let model = CostModel::new(&wf, &platform)?;
/// // Several planners, one set of costs.
/// let heft = HeftScheduler::default().schedule_with(&wf, &model)?;
/// assert!(model.slr(&wf, heft.makespan())? >= 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct CostModel<'p> {
    platform: &'p Platform,
    /// `exec[task * devices + device]`: nominal execution times.
    exec: Vec<SimDuration>,
    /// The devices of task `t` are `feasible[starts[t]..starts[t + 1]]`,
    /// in id order.
    feasible: Vec<DeviceId>,
    starts: Vec<usize>,
    /// `nominal[device]`: the DVFS level every planned placement runs at.
    nominal: Vec<DvfsLevel>,
    transfers: TransferTable<'p>,
    mean_exec: OnceLock<Vec<f64>>,
    mean_comm: OnceLock<Result<Vec<f64>, PlatformError>>,
    bottom: OnceLock<Result<Vec<f64>, PlatformError>>,
    slr_bound: OnceLock<Result<f64, SchedError>>,
}

impl<'p> CostModel<'p> {
    /// Builds the model of `wf` on `platform`.
    ///
    /// # Errors
    ///
    /// Propagates device model errors (none occur at nominal levels).
    pub fn new(wf: &Workflow, platform: &'p Platform) -> Result<CostModel<'p>, PlatformError> {
        let devices = platform.devices();
        let mut exec = Vec::with_capacity(wf.num_tasks() * devices.len());
        let mut feasible = Vec::new();
        let mut starts = Vec::with_capacity(wf.num_tasks() + 1);
        for t in wf.tasks() {
            starts.push(feasible.len());
            for (i, d) in devices.iter().enumerate() {
                exec.push(d.execution_time(t.cost(), d.nominal_level())?);
                if placement_feasible(d, t) {
                    feasible.push(DeviceId(i));
                }
            }
        }
        starts.push(feasible.len());
        Ok(CostModel {
            platform,
            exec,
            feasible,
            starts,
            nominal: devices.iter().map(Device::nominal_level).collect(),
            transfers: platform.transfer_table(),
            mean_exec: OnceLock::new(),
            mean_comm: OnceLock::new(),
            bottom: OnceLock::new(),
            slr_bound: OnceLock::new(),
        })
    }

    /// The platform the costs are of.
    #[must_use]
    pub fn platform(&self) -> &'p Platform {
        self.platform
    }

    /// Nominal execution time of `task` on every device, in id order.
    fn row(&self, task: TaskId) -> &[SimDuration] {
        let m = self.nominal.len();
        &self.exec[task.0 * m..(task.0 + 1) * m]
    }

    /// Nominal execution time of `task` on `device`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[must_use]
    pub fn exec_time(&self, task: TaskId, device: DeviceId) -> SimDuration {
        self.row(task)[device.0]
    }

    /// The devices that can host `task`, in id order: its working set
    /// fits their memory and their trust level clears its requirement.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[must_use]
    pub fn feasible_devices(&self, task: TaskId) -> &[DeviceId] {
        &self.feasible[self.starts[task.0]..self.starts[task.0 + 1]]
    }

    /// Whether `device` can host `task`.
    #[must_use]
    pub fn feasible(&self, task: TaskId, device: DeviceId) -> bool {
        self.feasible_devices(task).contains(&device)
    }

    /// The DVFS level `device` runs planned work at: its nominal one.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    #[must_use]
    pub fn nominal_level(&self, device: DeviceId) -> DvfsLevel {
        self.nominal[device.0]
    }

    /// The memoized transfer terms of every device pair.
    #[must_use]
    pub(crate) fn transfers(&self) -> &TransferTable<'p> {
        &self.transfers
    }

    /// Time to move `bytes` from `from` to `to`, bit-identical to
    /// [`Platform::transfer_time`] but read from the memoized route
    /// terms instead of walking the route.
    ///
    /// # Errors
    ///
    /// The platform's error for a pair without a route or an unknown
    /// device.
    pub fn transfer_time(
        &self,
        bytes: f64,
        from: DeviceId,
        to: DeviceId,
    ) -> Result<SimDuration, PlatformError> {
        self.transfers.transfer_time(bytes, from, to)
    }

    /// Mean nominal execution time of every task over all devices, in
    /// seconds, indexed by task id: the durations summed in device order,
    /// then divided by the device count, as
    /// [`Platform::mean_execution_time`] computes them.
    #[must_use]
    pub(crate) fn mean_exec_times(&self) -> &[f64] {
        self.mean_exec.get_or_init(|| {
            let m = self.nominal.len();
            (0..self.starts.len() - 1)
                .map(|t| {
                    let total = self.row(TaskId(t)).iter().copied().sum::<SimDuration>();
                    (total / m as f64).as_secs()
                })
                .collect()
        })
    }

    /// Mean transfer time of every edge of `wf` over the ordered pairs of
    /// distinct devices, in seconds, indexed by edge id.
    ///
    /// # Errors
    ///
    /// Returns the first edge's routing error; a workflow without edges
    /// never touches a route.
    pub(crate) fn mean_comm_times(&self, wf: &Workflow) -> Result<&[f64], PlatformError> {
        self.mean_comm
            .get_or_init(|| {
                wf.edges()
                    .iter()
                    .map(|e| Ok(self.transfers.mean_transfer_time(e.bytes)?.as_secs()))
                    .collect()
            })
            .as_deref()
            .map_err(Clone::clone)
    }

    /// HEFT *upward rank* (bottom level) of every task of `wf`; see
    /// [`analysis::bottom_levels`].
    ///
    /// # Errors
    ///
    /// Returns the mean communication cost's routing error, or
    /// [`PlatformError::NonFiniteModel`] for a NaN or infinite rank.
    pub fn bottom_levels(&self, wf: &Workflow) -> Result<&[f64], PlatformError> {
        self.bottom
            .get_or_init(|| {
                analysis::bottom_levels_with(wf, self.mean_exec_times(), self.mean_comm_times(wf)?)
            })
            .as_deref()
            .map_err(Clone::clone)
    }

    /// *Downward rank* (top level) of every task of `wf`; see
    /// [`analysis::top_levels`].
    ///
    /// # Errors
    ///
    /// Returns the mean communication cost's routing error.
    pub(crate) fn top_levels(&self, wf: &Workflow) -> Result<Vec<f64>, PlatformError> {
        Ok(analysis::top_levels_with(
            wf,
            self.mean_exec_times(),
            self.mean_comm_times(wf)?,
        ))
    }

    /// The tasks of `wf` by decreasing upward rank, ties by id: HEFT's
    /// priority order.
    ///
    /// # Errors
    ///
    /// Same as [`CostModel::bottom_levels`].
    pub fn rank_order(&self, wf: &Workflow) -> Result<Vec<TaskId>, PlatformError> {
        let ranks = self.bottom_levels(wf)?;
        let mut order: Vec<TaskId> = (0..ranks.len()).map(TaskId).collect();
        order.sort_by(|a, b| ranks[b.0].total_cmp(&ranks[a.0]).then(a.0.cmp(&b.0)));
        Ok(order)
    }

    /// The SLR lower bound of `wf`: the sum, along the platform-averaged
    /// critical path, of each task's minimum nominal execution time over
    /// all devices.
    ///
    /// # Errors
    ///
    /// Same as [`CostModel::bottom_levels`], and
    /// [`SchedError::Internal`] when the bound is zero.
    pub(crate) fn slr_bound(&self, wf: &Workflow) -> Result<f64, SchedError> {
        self.slr_bound
            .get_or_init(|| {
                let (cp, _) = analysis::critical_path_with(
                    wf,
                    self.mean_comm_times(wf)?,
                    self.bottom_levels(wf)?,
                );
                let mut bound = 0.0;
                for t in cp {
                    bound += self
                        .row(t)
                        .iter()
                        .fold(f64::INFINITY, |best, e| best.min(e.as_secs()));
                }
                if bound == 0.0 {
                    return Err(SchedError::Internal(
                        "critical-path lower bound is zero".into(),
                    ));
                }
                Ok(bound)
            })
            .clone()
    }

    /// Schedule length ratio of a run of `wf` taking `makespan`: the
    /// makespan over the SLR lower bound, the sum, along the
    /// platform-averaged critical path, of each task's minimum nominal
    /// execution time over all devices. The bound is derived once per
    /// model. Lower is better; 1.0 is the (usually unreachable) bound.
    ///
    /// # Errors
    ///
    /// Same as [`CostModel::bottom_levels`], and
    /// [`SchedError::Internal`] when the bound is zero.
    pub fn slr(&self, wf: &Workflow, makespan: SimDuration) -> Result<f64, SchedError> {
        Ok(makespan.as_secs() / self.slr_bound(wf)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peft::optimistic_cost_table;
    use crate::{
        all_schedulers, AnnealingScheduler, CpopScheduler, HeftScheduler, LookaheadScheduler,
        MetScheduler, PeftScheduler, Scheduler,
    };
    use helios_platform::{
        presets, DeviceBuilder, DeviceKind, InterconnectBuilder, PlatformBuilder,
    };
    use helios_workflow::generators::{montage, WorkflowClass};

    /// PEFT's optimistic cost table from an execution-time table of its
    /// own, without the model: the reference for `optimistic_cost_table`.
    fn reference_oct(wf: &Workflow, platform: &Platform) -> Vec<Vec<f64>> {
        let m = platform.num_devices();
        let mut exec = vec![vec![0.0f64; m]; wf.num_tasks()];
        for (i, t) in wf.tasks().iter().enumerate() {
            for (d, slot) in exec[i].iter_mut().enumerate() {
                let dev = platform.device(DeviceId(d)).unwrap();
                *slot = dev
                    .execution_time(t.cost(), dev.nominal_level())
                    .unwrap()
                    .as_secs();
            }
        }
        let comm = analysis::mean_comm_times(wf, platform).unwrap();
        let mut oct = vec![vec![0.0f64; m]; wf.num_tasks()];
        for &t in wf.topo_order().iter().rev() {
            for d in 0..m {
                let mut worst_child = 0.0f64;
                for &e in wf.successors(t) {
                    let edge = wf.edge(e);
                    let mut best_w = f64::INFINITY;
                    for w in 0..m {
                        let comm_cost = if w == d { 0.0 } else { comm[e.0] };
                        let cost = oct[edge.dst.0][w] + exec[edge.dst.0][w] + comm_cost;
                        best_w = best_w.min(cost);
                    }
                    worst_child = worst_child.max(best_w);
                }
                oct[t.0][d] = worst_child;
            }
        }
        oct
    }

    /// The SLR lower bound without the model: the critical path from the
    /// workflow-level analysis, then a loop over the devices.
    fn reference_slr_bound(wf: &Workflow, platform: &Platform) -> f64 {
        let (cp, _) = analysis::critical_path(wf, platform).unwrap();
        let mut bound = 0.0;
        for t in cp {
            let cost = wf.task(t).unwrap().cost();
            let mut best = f64::INFINITY;
            for d in platform.devices() {
                best = best.min(d.execution_time(cost, d.nominal_level()).unwrap().as_secs());
            }
            bound += best;
        }
        bound
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn every_derivation_equals_its_reference_bit_for_bit() {
        for p in presets::all() {
            for class in WorkflowClass::ALL {
                let wf = class.generate(30, 2).unwrap();
                let model = CostModel::new(&wf, &p).unwrap();
                let at = format!("{class} on {}", p.name());
                for (i, t) in wf.tasks().iter().enumerate() {
                    for d in p.devices() {
                        let want = d.execution_time(t.cost(), d.nominal_level()).unwrap();
                        assert_eq!(model.exec_time(TaskId(i), d.id()), want, "{at}");
                        let feasible = placement_feasible(d, t);
                        assert_eq!(model.feasible(TaskId(i), d.id()), feasible, "{at}");
                    }
                }
                for e in wf.edges() {
                    for from in p.devices() {
                        for to in p.devices() {
                            let (from, to) = (from.id(), to.id());
                            let want = p.transfer_time(e.bytes, from, to).unwrap();
                            let got = model.transfer_time(e.bytes, from, to).unwrap();
                            assert_eq!(got.as_secs().to_bits(), want.as_secs().to_bits(), "{at}");
                        }
                    }
                }
                // Past the last device the table falls back to the walk.
                let stray = DeviceId(p.num_devices());
                let bits_of = |t: Result<SimDuration, _>| t.map(|t| t.as_secs().to_bits());
                assert_eq!(
                    bits_of(model.transfer_time(1e6, DeviceId(0), stray)),
                    bits_of(p.transfer_time(1e6, DeviceId(0), stray)),
                    "{at}"
                );
                let exec = analysis::mean_exec_times(&wf, &p).unwrap();
                let comm = analysis::mean_comm_times(&wf, &p).unwrap();
                let bottom = analysis::bottom_levels(&wf, &p).unwrap();
                let top = analysis::top_levels(&wf, &p).unwrap();
                assert_eq!(bits(model.mean_exec_times()), bits(&exec), "{at}");
                assert_eq!(
                    bits(model.mean_comm_times(&wf).unwrap()),
                    bits(&comm),
                    "{at}"
                );
                assert_eq!(
                    bits(model.bottom_levels(&wf).unwrap()),
                    bits(&bottom),
                    "{at}"
                );
                let model_top = model.top_levels(&wf).unwrap();
                assert_eq!(bits(&model_top), bits(&top), "{at}");
                // CPOP's priorities: bottom plus top level.
                let cpop = |b: &[f64], t: &[f64]| -> Vec<f64> {
                    b.iter().zip(t).map(|(b, t)| b + t).collect()
                };
                assert_eq!(
                    bits(&cpop(model.bottom_levels(&wf).unwrap(), &model_top)),
                    bits(&cpop(&bottom, &top)),
                    "{at}"
                );
                let oct = optimistic_cost_table(&wf, &model).unwrap();
                for (got, want) in oct.iter().zip(reference_oct(&wf, &p)) {
                    assert_eq!(bits(got), bits(&want), "{at}");
                }
                let bound = model.slr_bound(&wf).unwrap();
                assert_eq!(
                    bound.to_bits(),
                    reference_slr_bound(&wf, &p).to_bits(),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn one_model_serves_every_planner_in_any_order() {
        let p = presets::hpc_node();
        let wf = montage(40, 5).unwrap();
        let fresh: Vec<_> = all_schedulers()
            .iter()
            .map(|s| s.schedule(&wf, &p).unwrap())
            .collect();
        let shared = CostModel::new(&wf, &p).unwrap();
        let lineup = all_schedulers();
        for (i, s) in lineup.iter().enumerate().rev() {
            assert_eq!(
                s.schedule_with(&wf, &shared).unwrap(),
                fresh[i],
                "{}",
                s.name()
            );
        }
    }

    #[test]
    fn only_rank_readers_fail_on_an_unroutable_platform() {
        let mut b = PlatformBuilder::new("islands");
        b.add_device(DeviceBuilder::new("cpu0", DeviceKind::Cpu).build().unwrap());
        b.add_device(DeviceBuilder::new("cpu1", DeviceKind::Cpu).build().unwrap());
        b.interconnect(InterconnectBuilder::new().build());
        let islands = b.build().unwrap();
        let wf = montage(20, 1).unwrap();

        // MET never reads ranks and keeps every task on the first of
        // two identical devices, so it never routes.
        let model = CostModel::new(&wf, &islands).unwrap();
        let met = MetScheduler::default().schedule_with(&wf, &model).unwrap();
        met.validate(&wf, &islands).unwrap();

        // Rank readers fail with the routing error the workflow-level
        // analysis gives.
        let want = SchedError::Platform(analysis::mean_comm_times(&wf, &islands).unwrap_err());
        let readers: [&dyn Scheduler; 5] = [
            &HeftScheduler::default(),
            &CpopScheduler::default(),
            &PeftScheduler::default(),
            &LookaheadScheduler::default(),
            &AnnealingScheduler::new(10, 0),
        ];
        for s in readers {
            assert_eq!(
                s.schedule_with(&wf, &model).unwrap_err(),
                want,
                "{}",
                s.name()
            );
        }
        assert_eq!(model.slr_bound(&wf).unwrap_err(), want);
        assert_eq!(crate::metrics::slr(&met, &wf, &islands).unwrap_err(), want);
        // A single transfer across the islands fails as the route walk does.
        let (a, b) = (DeviceId(0), DeviceId(1));
        assert_eq!(
            model.transfer_time(1e6, a, b).unwrap_err(),
            islands.transfer_time(1e6, a, b).unwrap_err()
        );
    }
}
