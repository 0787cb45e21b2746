//! Simulated-annealing schedule refinement.
//!
//! Each move is decoded by list scheduling into one of two contexts, the
//! accepted state and a candidate, from the first step the move can
//! change. The decoder owns the device assignment and keeps each edge's
//! transfer time under it, so a device move derives the moved task's
//! in- and out-edges again and a decode step derives no transfer: it
//! takes the max of predecessor finish plus kept term, then one timeline
//! search.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use helios_platform::DeviceId;
use helios_sim::{SimDuration, SimRng, SimTime};
use helios_workflow::{EdgeId, TaskId, Workflow};

use crate::context::SchedContext;
use crate::cost::CostModel;
use crate::error::SchedError;
use crate::heft;
use crate::schedule::Schedule;
use crate::Scheduler;

/// A metaheuristic scheduler: simulated annealing over the joint space
/// of per-task *device assignments* and *priority values*, decoded by
/// insertion-based list scheduling and seeded with the HEFT solution.
///
/// Neighborhood moves:
///
/// * reassign one task to another memory-feasible device,
/// * nudge one task's priority (reordering it among its peers while the
///   decoder's readiness tracking preserves topological validity).
///
/// Acceptance follows Metropolis with geometric cooling; the best
/// schedule ever seen is returned, so the result is never worse than
/// the HEFT seed. Typical gains over HEFT are a few percent — the
/// interesting output is the *gap*, which bounds how much better any
/// list-ordering tweak could do (ablation experiment A14).
///
/// A move's decode stops as soon as its fate is known, with the result
/// and the random stream exactly those of a full decode: a priority
/// move whose placements have converged back onto the accepted state's
/// costs the same and is accepted, and a move whose makespan lower bound
/// already fails the Metropolis test is rejected (see `Decoder::decode`).
#[derive(Debug, Clone)]
pub struct AnnealingScheduler {
    iterations: u32,
    seed: u64,
}

impl AnnealingScheduler {
    /// Creates the scheduler with an iteration budget and RNG seed.
    #[must_use]
    pub fn new(iterations: u32, seed: u64) -> AnnealingScheduler {
        AnnealingScheduler { iterations, seed }
    }

    /// The iteration budget.
    #[must_use]
    pub fn iterations(&self) -> u32 {
        self.iterations
    }
}

impl Default for AnnealingScheduler {
    /// 2000 iterations, seed 0.
    fn default() -> Self {
        AnnealingScheduler::new(2000, 0)
    }
}

/// A ready task in the decoder's queue. The highest priority pops first
/// and ties go to the lower task id: since ids are unique, exactly the
/// task a linear `max_by` scan of the ready set would pick.
#[derive(Debug, Clone, Copy)]
struct Ready {
    priority: f64,
    task: TaskId,
}

impl Ord for Ready {
    fn cmp(&self, other: &Self) -> Ordering {
        self.priority
            .total_cmp(&other.priority)
            .then(other.task.0.cmp(&self.task.0))
    }
}

impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ready {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ready {}

/// One decoded state: the placements plus the pop order that made
/// them, which is what lets the next decode start mid-way.
struct Decoded<'a> {
    ctx: SchedContext<'a>,
    /// Tasks in the order the ready set popped them.
    order: Vec<TaskId>,
    /// `step[t]`: the position of task `t` in `order`.
    step: Vec<usize>,
}

impl<'a> Decoded<'a> {
    /// A state in the restorable context `ctx`, which has nothing placed,
    /// whose order is the workflow's topological order, so a decode from
    /// step 0 decodes every task.
    fn new(ctx: SchedContext<'a>) -> Decoded<'a> {
        let order = ctx.workflow().topo_order().to_vec();
        let mut step = vec![0; order.len()];
        for (j, t) in order.iter().enumerate() {
            step[t.0] = j;
        }
        Decoded { ctx, order, step }
    }
}

/// How the decode of a move ended.
#[derive(Debug, Clone, Copy)]
enum Fate {
    /// Decoded in full: the candidate's makespan.
    Cost(SimDuration),
    /// A priority move whose candidate converged onto the accepted
    /// state: it costs exactly the accepted makespan, and the accepted
    /// state now holds its pop order.
    Converged,
    /// A move whose Metropolis rejection became certain.
    Rejected,
}

/// A one-task move on trial against the accepted state: what lets its
/// decode stop as soon as its fate is known.
struct Trial<'r> {
    /// The moved task, if the move changed its priority.
    reordered: Option<TaskId>,
    /// The accepted state's makespan, in seconds.
    current: f64,
    temp: f64,
    rng: &'r mut SimRng,
    /// The Metropolis uniform, once drawn.
    u: Option<f64>,
}

impl Trial<'_> {
    /// The Metropolis acceptance probability of a candidate costing
    /// `cost` seconds.
    fn p(&self, cost: f64) -> f64 {
        ((self.current - cost) / self.temp).exp().min(1.0)
    }

    /// The uniform, drawn on first use only.
    fn uniform(&mut self) -> f64 {
        let rng = &mut self.rng;
        *self.u.get_or_insert_with(|| rng.unit())
    }

    /// Whether a candidate known to cost at least `bound` seconds is
    /// certain to be rejected. Draws the uniform once `bound` passes the
    /// accepted cost, which is when [`Trial::accepts`] would draw it.
    fn rejects_from(&mut self, bound: f64) -> bool {
        bound > self.current && self.uniform() >= self.p(bound) * (1.0 + 1e-12)
    }

    /// The Metropolis verdict on a candidate costing `cost` seconds:
    /// `cost <= current || chance(p(cost))`, with the one uniform.
    fn accepts(&mut self, cost: f64) -> bool {
        cost <= self.current || self.uniform() < self.p(cost)
    }
}

/// Decodes priorities under its device assignment with two contexts: the
/// accepted state and a candidate. A candidate that differs from the
/// accepted state in one task re-decodes only from the first step the
/// move can change; accepting it swaps the two, rejecting it leaves the
/// accepted state untouched. The cost tables, the timelines' capacity
/// and the ready-set buffers live for the whole annealing run.
struct Decoder<'a> {
    accepted: Decoded<'a>,
    candidate: Decoded<'a>,
    /// `assignment[t]`: the device every decode places task `t` on.
    assignment: Vec<DeviceId>,
    /// `comm[e]`: edge `e`'s transfer time from its source's assigned
    /// device to its destination's, kept up to date by
    /// [`Decoder::assign`], so a decode step derives no transfer.
    comm: Vec<SimDuration>,
    indegree: Vec<usize>,
    ready: BinaryHeap<Ready>,
    /// `tail[t]`: the longest chain of minimum feasible execution times
    /// after `t`, in seconds, so no schedule ends before `t`'s finish
    /// plus `tail[t]`.
    tail: Vec<f64>,
}

impl<'a> Decoder<'a> {
    /// A decoder whose two states are clones of `ctx`, which must have
    /// nothing placed and use the insertion policy, placing each task on
    /// its device in `assignment`.
    ///
    /// # Errors
    ///
    /// A routing error of an edge between its tasks' devices.
    fn new(ctx: SchedContext<'a>, assignment: Vec<DeviceId>) -> Result<Decoder<'a>, SchedError> {
        let (wf, model) = (ctx.workflow(), ctx.model());
        let ctx = ctx.restorable();
        let mut tail = vec![0.0f64; wf.num_tasks()];
        for &t in wf.topo_order().iter().rev() {
            tail[t.0] = wf.successor_tasks(t).fold(0.0, |longest, s| {
                let fastest = model
                    .feasible_devices(s)
                    .iter()
                    .map(|&d| model.exec_time(s, d).as_secs())
                    .reduce(f64::min)
                    .unwrap_or(0.0);
                longest.max(fastest + tail[s.0])
            });
        }
        let mut decoder = Decoder {
            accepted: Decoded::new(ctx.clone()),
            candidate: Decoded::new(ctx),
            assignment,
            comm: vec![SimDuration::ZERO; wf.num_edges()],
            indegree: vec![0; wf.num_tasks()],
            ready: BinaryHeap::new(),
            tail,
        };
        for e in 0..wf.num_edges() {
            decoder.derive(EdgeId(e))?;
        }
        Ok(decoder)
    }

    /// Derives `comm[e]` from the current assignment.
    fn derive(&mut self, e: EdgeId) -> Result<(), SchedError> {
        #[cfg(test)]
        crate::probe::count(crate::probe::Site::Transfer);
        let ctx = &self.candidate.ctx;
        let edge = ctx.workflow().edge(e);
        let (from, to) = (self.assignment[edge.src.0], self.assignment[edge.dst.0]);
        self.comm[e.0] = ctx.model().transfer_time(edge.bytes, from, to)?;
        Ok(())
    }

    /// Assigns `task` to `device` and derives the transfer terms of its
    /// in-edges and out-edges again; no other edge's changes.
    ///
    /// # Errors
    ///
    /// A routing error of one of those edges.
    fn assign(&mut self, task: TaskId, device: DeviceId) -> Result<(), SchedError> {
        self.assignment[task.0] = device;
        let wf = self.candidate.ctx.workflow();
        for &e in wf.predecessors(task).iter().chain(wf.successors(task)) {
            self.derive(e)?;
        }
        Ok(())
    }

    /// The first step of the accepted pop order that a move on `task`
    /// can change, with `priority` already holding the move. The ready
    /// set's order depends on priorities and the DAG only, so a device
    /// move changes nothing before `task`'s own step. A priority move
    /// changes the first step, from the one after `task`'s last
    /// predecessor popped, whose popped task `task` now outranks; if
    /// there is none, again nothing before `task`'s own step.
    fn divergence(&self, task: TaskId, priority: &[f64], device_move: bool) -> usize {
        let accepted = &self.accepted;
        let at = accepted.step[task.0];
        if device_move {
            return at;
        }
        let wf = accepted.ctx.workflow();
        let pushed = wf
            .predecessors(task)
            .iter()
            .map(|&e| accepted.step[wf.edge(e).src.0] + 1)
            .max()
            .unwrap_or(0);
        let moved = Ready {
            priority: priority[task.0],
            task,
        };
        (pushed..at)
            .find(|&j| {
                let popped = accepted.order[j];
                moved
                    > Ready {
                        priority: priority[popped.0],
                        task: popped,
                    }
            })
            .unwrap_or(at)
    }

    /// Decodes `priority` under the decoder's assignment into the
    /// candidate. Steps before `from` are taken from the accepted state
    /// as they are, so they must be ones the change cannot alter (see
    /// [`Decoder::divergence`]): [`SchedContext::restore`] copies their
    /// placements and reservations, in one pass over the accepted
    /// timelines that reserves nothing. From there on the decoder repeatedly
    /// commits the highest-priority ready task to its assigned device at
    /// its EFT: the data-ready time from the kept transfer terms, then
    /// one timeline search. Without a `trial` it decodes in full and returns
    /// [`Fate::Cost`]. With one, it stops as soon as the move's fate is
    /// known:
    ///
    /// * **Converged** (priority moves): a counter holds, in O(1) per
    ///   step, the number of tasks whose candidate status (unplaced, or
    ///   an exact placement) differs from the accepted state's after as
    ///   many steps. Once the moved task is placed and the counter is 0,
    ///   both states have the same placements and the same ready set
    ///   under the same priorities, so the rest of the decode would
    ///   repeat the accepted state exactly and the cost equals the
    ///   accepted one. The candidate's pop order is copied into the
    ///   accepted state, whose placements, and so whose timelines and
    ///   their task tags, already match.
    /// * **Rejected**: the larger of the running makespan and every
    ///   decoded task's finish plus its `tail`, scaled by (1 − 1e−9) for
    ///   rounding, bounds the candidate's makespan from below. Once it
    ///   passes the accepted cost the Metropolis uniform `u` is drawn (a
    ///   full decode would then cost more, so the plain test draws it
    ///   too), and the decode stops when `u ≥ p(bound)·(1 + 1e−12)`,
    ///   which the true cost can only confirm. Decoding draws no
    ///   randomness, so the random stream is unchanged.
    fn decode(
        &mut self,
        priority: &[f64],
        from: usize,
        mut trial: Option<&mut Trial<'_>>,
    ) -> Result<Fate, SchedError> {
        let Decoder {
            accepted,
            candidate,
            assignment,
            comm,
            indegree,
            ready,
            tail,
        } = self;
        let wf = candidate.ctx.workflow();
        let prefix = &accepted.order[..from];
        let mut last = candidate
            .ctx
            .restore(&accepted.ctx, &accepted.order, &accepted.step, from);
        #[cfg(test)]
        crate::probe::add(crate::probe::Site::Restored, from as u64);
        candidate.order.clear();
        candidate.order.extend_from_slice(prefix);
        candidate.step.copy_from_slice(&accepted.step);

        // Only the tasks after the prefix are decoded, and the prefix is
        // closed under predecessors: each one waits for its predecessors
        // outside the prefix.
        ready.clear();
        for &task in &accepted.order[from..] {
            let deg = wf
                .predecessor_tasks(task)
                .filter(|p| accepted.step[p.0] >= from)
                .count();
            indegree[task.0] = deg;
            if deg == 0 {
                ready.push(Ready {
                    priority: priority[task.0],
                    task,
                });
            }
        }

        // The prefix is the accepted state's, so no status differs yet.
        let mut differ = 0usize;
        let mut moved_placed = false;
        let mut bound = last.as_secs();
        while let Some(Ready { task, .. }) = ready.pop() {
            #[cfg(test)]
            crate::probe::count(crate::probe::Site::DecodeStep);
            let dev = assignment[task.0];
            let ready_at = candidate.ctx.data_ready_with(task, comm)?;
            let (start, finish) = candidate.ctx.start_after(task, dev, ready_at);
            candidate.ctx.place(task, dev, start, finish)?;
            let j = candidate.order.len();
            candidate.step[task.0] = j;
            candidate.order.push(task);
            last = last.max(finish);
            for s in wf.successor_tasks(task) {
                indegree[s.0] -= 1;
                if indegree[s.0] == 0 {
                    ready.push(Ready {
                        priority: priority[s.0],
                        task: s,
                    });
                }
            }
            let Some(trial) = trial.as_deref_mut() else {
                continue;
            };

            if let Some(moved) = trial.reordered {
                // Step j changes two statuses only: `task`'s here, and
                // that of the task the accepted state placed at step j.
                let settled = accepted.order[j];
                // Whether `t`'s status differs between the candidate,
                // where it is `placed` or not yet, and the accepted state
                // after `steps` steps.
                let differs = |t: TaskId, steps: usize, placed: bool| {
                    candidate.ctx.placement(t).filter(|_| placed)
                        != accepted
                            .ctx
                            .placement(t)
                            .filter(|_| accepted.step[t.0] < steps)
                };
                differ += usize::from(differs(task, j + 1, true));
                differ -= usize::from(differs(task, j, false));
                if settled != task {
                    let placed = candidate.ctx.placement(settled).is_some();
                    differ += usize::from(differs(settled, j + 1, placed));
                    differ -= usize::from(differs(settled, j, placed));
                }
                moved_placed |= task == moved;
                if moved_placed && differ == 0 {
                    for (k, &t) in candidate.order.iter().enumerate().skip(from) {
                        accepted.order[k] = t;
                        accepted.step[t.0] = k;
                    }
                    #[cfg(test)]
                    crate::probe::count(crate::probe::Site::Converged);
                    return Ok(Fate::Converged);
                }
            }

            let reach = finish.as_secs() + tail[task.0];
            if reach > bound {
                bound = reach;
                if trial.rejects_from(bound * (1.0 - 1e-9)) {
                    #[cfg(test)]
                    crate::probe::count(crate::probe::Site::Rejected);
                    return Ok(Fate::Rejected);
                }
            }
        }
        Ok(Fate::Cost(last.saturating_since(SimTime::ZERO)))
    }

    /// Makes the candidate the accepted state.
    fn accept(&mut self) {
        std::mem::swap(&mut self.accepted, &mut self.candidate);
    }
}

impl Scheduler for AnnealingScheduler {
    fn name(&self) -> &str {
        "annealing"
    }

    fn schedule_with(&self, wf: &Workflow, model: &CostModel<'_>) -> Result<Schedule, SchedError> {
        // Seed state: HEFT assignment + upward-rank priorities, from the
        // model's ranks and one context, cloned for the HEFT pass.
        let mut priority = model.bottom_levels(wf)?.to_vec();
        let ctx = SchedContext::new(wf, model, true);
        let assignment: Vec<DeviceId> = {
            let mut seed = ctx.clone();
            heft::place_in_order(&mut seed, &model.rank_order(wf)?)?;
            // HEFT placed every task, so each has a feasible device.
            (0..wf.num_tasks())
                .map(|i| {
                    seed.placement(TaskId(i))
                        .expect("HEFT places every task")
                        .device
                })
                .collect()
        };
        let priority_span = priority.iter().fold(0.0f64, |a, &b| a.max(b)).max(1e-12);

        let mut decoder = Decoder::new(ctx, assignment)?;

        // The accepted state is `assignment` + `priority`; only a new best
        // is materialized as a schedule.
        let mut rng = SimRng::seed_from(self.seed);
        let Fate::Cost(seed_cost) = decoder.decode(&priority, 0, None)? else {
            unreachable!("a decode without a trial runs in full");
        };
        let mut current_cost = seed_cost.as_secs();
        decoder.accept();
        let mut best = decoder.accepted.ctx.snapshot()?;
        let mut best_cost = current_cost;

        let t0 = 0.05 * current_cost.max(1e-12);
        let cooling = if self.iterations > 1 {
            (1e-3f64).powf(1.0 / f64::from(self.iterations - 1))
        } else {
            1.0
        };
        let mut temp = t0;

        for _ in 0..self.iterations {
            // Propose a neighbor.
            let task = TaskId(rng.uniform_usize(0, wf.num_tasks() - 1));
            let choices = model.feasible_devices(task);
            let move_device = rng.chance(0.5) && choices.len() > 1;
            let (old_dev, old_prio) = (decoder.assignment[task.0], priority[task.0]);
            if move_device {
                let new_dev = loop {
                    let d = *rng.choose(choices).expect("feasible set is non-empty");
                    if d != old_dev {
                        break d;
                    }
                };
                decoder.assign(task, new_dev)?;
            } else {
                priority[task.0] = (old_prio + rng.normal(0.0, 0.05 * priority_span)).max(0.0);
            }

            let from = decoder.divergence(task, &priority, move_device);
            let mut trial = Trial {
                reordered: (!move_device).then_some(task),
                current: current_cost,
                temp,
                rng: &mut rng,
                u: None,
            };
            // A converged move costs `current_cost` and is accepted
            // without a draw, as a full decode would be; the accepted
            // state already holds it.
            let accept = match decoder.decode(&priority, from, Some(&mut trial))? {
                Fate::Cost(cost) => {
                    let cost = cost.as_secs();
                    let accept = trial.accepts(cost);
                    if accept {
                        decoder.accept();
                        current_cost = cost;
                        if cost < best_cost {
                            best = decoder.accepted.ctx.snapshot()?;
                            best_cost = cost;
                        }
                    }
                    accept
                }
                Fate::Converged => true,
                Fate::Rejected => false,
            };
            if !accept {
                // Revert.
                if move_device {
                    decoder.assign(task, old_dev)?;
                }
                priority[task.0] = old_prio;
            }
            temp *= cooling;
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{platform, random_workflow};
    use crate::HeftScheduler;
    use helios_platform::{presets, Platform};
    use helios_workflow::analysis;
    use helios_workflow::generators::{montage, sipht, WorkflowClass};
    use proptest::prelude::*;

    impl<'a> Decoder<'a> {
        /// A decoder for `wf` over `model` under `assignment`, with a
        /// context of its own.
        fn of(wf: &'a Workflow, model: &'a CostModel<'a>, assignment: &[DeviceId]) -> Decoder<'a> {
            Decoder::new(SchedContext::new(wf, model, true), assignment.to_vec()).unwrap()
        }

        /// Moves each task whose device differs from `assignment`'s
        /// there, one [`Decoder::assign`] at a time, and checks every
        /// kept transfer term against one derived afresh.
        fn reassign(&mut self, assignment: &[DeviceId]) {
            for (i, &dev) in assignment.iter().enumerate() {
                if self.assignment[i] != dev {
                    self.assign(TaskId(i), dev).unwrap();
                }
            }
            let ctx = &self.candidate.ctx;
            for (e, edge) in ctx.workflow().edges().iter().enumerate() {
                let (from, to) = (assignment[edge.src.0], assignment[edge.dst.0]);
                let fresh = ctx.model().transfer_time(edge.bytes, from, to).unwrap();
                assert_eq!(self.comm[e].as_secs().to_bits(), fresh.as_secs().to_bits());
            }
        }

        /// A decode under `assignment` without a trial, which always
        /// runs in full.
        fn decode_all(
            &mut self,
            priority: &[f64],
            assignment: &[DeviceId],
            from: usize,
        ) -> SimDuration {
            self.reassign(assignment);
            match self.decode(priority, from, None).unwrap() {
                Fate::Cost(makespan) => makespan,
                fate => panic!("a decode without a trial ended {fate:?}"),
            }
        }
    }

    /// The reference decoder that [`Decoder::decode`] must reproduce: a
    /// fresh context per decode, the list planners' linear-scan ready
    /// list ([`SchedContext::place_by_priority`]), a full schedule every
    /// time.
    fn reference_decode(
        wf: &Workflow,
        platform: &Platform,
        priority: &[f64],
        assignment: &[DeviceId],
    ) -> Result<Schedule, SchedError> {
        let model = CostModel::new(wf, platform)?;
        let mut ctx = SchedContext::new(wf, &model, true);
        ctx.place_by_priority(priority, |ctx, task| {
            let dev = assignment[task.0];
            ctx.eft(task, dev)
                .map(|(start, finish)| (dev, start, finish))
        })?;
        ctx.into_schedule()
    }

    /// The reference that [`AnnealingScheduler::schedule`] must
    /// reproduce: [`reference_decode`] per iteration, its own feasible
    /// lists, and a `Schedule` kept for the current state.
    fn reference_schedule(
        iterations: u32,
        seed: u64,
        wf: &Workflow,
        platform: &Platform,
    ) -> Result<Schedule, SchedError> {
        let heft = HeftScheduler::default().schedule(wf, platform)?;
        let mut assignment = vec![DeviceId(0); wf.num_tasks()];
        for p in heft.placements() {
            assignment[p.task.0] = p.device;
        }
        let mut priority = analysis::bottom_levels(wf, platform)?;
        let priority_span = priority.iter().fold(0.0f64, |a, &b| a.max(b)).max(1e-12);
        let feasible: Vec<Vec<DeviceId>> = wf
            .tasks()
            .iter()
            .map(|t| {
                platform
                    .devices()
                    .iter()
                    .filter(|d| crate::placement_feasible(d, t))
                    .map(|d| d.id())
                    .collect()
            })
            .collect();
        let mut rng = SimRng::seed_from(seed);
        let mut current = reference_decode(wf, platform, &priority, &assignment)?;
        let mut current_cost = current.makespan().as_secs();
        let mut best = current.clone();
        let mut best_cost = current_cost;
        let mut temp = 0.05 * current_cost.max(1e-12);
        let cooling = if iterations > 1 {
            (1e-3f64).powf(1.0 / f64::from(iterations - 1))
        } else {
            1.0
        };
        for _ in 0..iterations {
            let task = TaskId(rng.uniform_usize(0, wf.num_tasks() - 1));
            let move_device = rng.chance(0.5) && feasible[task.0].len() > 1;
            let (old_dev, old_prio) = (assignment[task.0], priority[task.0]);
            if move_device {
                let new_dev = loop {
                    let d = *rng.choose(&feasible[task.0]).expect("non-empty");
                    if d != old_dev || feasible[task.0].len() == 1 {
                        break d;
                    }
                };
                assignment[task.0] = new_dev;
            } else {
                priority[task.0] = (old_prio + rng.normal(0.0, 0.05 * priority_span)).max(0.0);
            }
            let candidate = reference_decode(wf, platform, &priority, &assignment)?;
            let cost = candidate.makespan().as_secs();
            let accept =
                cost <= current_cost || rng.chance(((current_cost - cost) / temp).exp().min(1.0));
            if accept {
                current = candidate;
                current_cost = cost;
                if cost < best_cost {
                    best = current.clone();
                    best_cost = cost;
                }
            } else {
                assignment[task.0] = old_dev;
                priority[task.0] = old_prio;
            }
            temp *= cooling;
        }
        Ok(best)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn schedule_equals_the_reference_decoder(
            shape in 0usize..5,
            seed in 0u64..1_000_000,
        ) {
            let wf = random_workflow(shape, seed);
            for p in (0..4).map(platform) {
                for iterations in [0, 1, 200] {
                    let got = AnnealingScheduler::new(iterations, seed)
                        .schedule(&wf, &p)
                        .unwrap();
                    let want = reference_schedule(iterations, seed, &wf, &p).unwrap();
                    // Debug prints every f64 exactly, so equal text is
                    // equal placements, bit for bit.
                    prop_assert_eq!(
                        format!("{got:?}"),
                        format!("{want:?}"),
                        "shape {} on {}, {} iterations",
                        shape,
                        p.name(),
                        iterations
                    );
                }
            }
        }
    }

    /// [`AnnealingScheduler`] against [`reference_schedule`], bit for
    /// bit, on each of the paper grid's five Pegasus families of `tasks`
    /// tasks (workflow seeds 0 and 1) on each of `platforms`. A pair no
    /// schedule exists for (cybershake on `edge_soc`) must fail alike.
    fn check_families(tasks: usize, iterations: u32, platforms: &[Platform]) {
        for class in WorkflowClass::ALL {
            for seed in 0..2 {
                let wf = class.generate(tasks, seed).unwrap();
                for p in platforms {
                    let got = AnnealingScheduler::new(iterations, seed).schedule(&wf, p);
                    let want = reference_schedule(iterations, seed, &wf, p);
                    assert_eq!(
                        format!("{got:?}"),
                        format!("{want:?}"),
                        "{} {tasks}/{seed} on {}",
                        class.as_str(),
                        p.name()
                    );
                }
            }
        }
    }

    #[test]
    fn schedule_equals_the_reference_on_every_family() {
        let platforms: Vec<Platform> = (0..4).map(platform).collect();
        check_families(24, 100, &platforms);
    }

    #[test]
    #[ignore = "about 10 s in a debug build; ci.sh runs it in release"]
    fn schedule_equals_the_reference_on_every_family_at_grid_size() {
        // The paper grid's task count, platforms and iteration budget.
        let platforms: Vec<Platform> = ["workstation", "hpc_node", "cluster4", "edge_soc"]
            .iter()
            .map(|name| presets::by_name(name).unwrap())
            .collect();
        check_families(100, 500, &platforms);
    }

    #[test]
    fn priority_ties_break_toward_the_lower_task_id() {
        // Random priorities never tie exactly; flat and coarsely rounded
        // ones do, so the heap's tie-break must match the linear scan's.
        for (shape, seed) in [(0, 17), (1, 4), (2, 9), (4, 3)] {
            let wf = random_workflow(shape, seed);
            let p = presets::workstation();
            let heft = HeftScheduler::default().schedule(&wf, &p).unwrap();
            let assignment: Vec<DeviceId> = heft.placements().iter().map(|pl| pl.device).collect();
            let ranks = analysis::bottom_levels(&wf, &p).unwrap();
            let coarse: Vec<f64> = ranks.iter().map(|r| (r * 2.0).round()).collect();
            for priority in [vec![0.0; wf.num_tasks()], coarse] {
                let model = CostModel::new(&wf, &p).unwrap();
                let mut decoder = Decoder::of(&wf, &model, &assignment);
                decoder.decode_all(&priority, &assignment, 0);
                assert_eq!(
                    decoder.candidate.ctx.snapshot().unwrap(),
                    reference_decode(&wf, &p, &priority, &assignment).unwrap(),
                    "shape {shape}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn a_reused_candidate_decodes_like_a_fresh_context() {
        let p = presets::hpc_node();
        let wf = montage(40, 3).unwrap();
        let priority = analysis::bottom_levels(&wf, &p).unwrap();
        let heft = HeftScheduler::default().schedule(&wf, &p).unwrap();
        let assignment: Vec<DeviceId> = heft.placements().iter().map(|pl| pl.device).collect();
        // Two other decodes first leave placements and reservations
        // behind in both contexts for `restore` to clear.
        let reversed: Vec<f64> = priority.iter().map(|r| -r).collect();
        let on_zero = vec![DeviceId(0); wf.num_tasks()];
        let model = CostModel::new(&wf, &p).unwrap();
        let mut reused = Decoder::of(&wf, &model, &on_zero);
        reused.decode_all(&reversed, &on_zero, 0);
        reused.accept();
        reused.decode_all(&priority, &on_zero, 0);
        let makespan = reused.decode_all(&priority, &assignment, 0);
        let mut fresh = Decoder::of(&wf, &model, &assignment);
        assert_eq!(fresh.decode_all(&priority, &assignment, 0), makespan);
        let want = reference_decode(&wf, &p, &priority, &assignment).unwrap();
        assert_eq!(reused.candidate.ctx.snapshot().unwrap(), want);
        assert_eq!(fresh.candidate.ctx.snapshot().unwrap(), want);
        assert_eq!(makespan, want.makespan());
    }

    /// Decodes one single-task move from the decoder's accepted state,
    /// starting at its divergence step, and checks the candidate against
    /// a full reference decode, bit for bit. The same move on trial, at a
    /// temperature where both Metropolis verdicts occur, must end with
    /// the fate the full decode implies.
    fn check_move(
        decoder: &mut Decoder<'_>,
        wf: &Workflow,
        platform: &Platform,
        priority: &[f64],
        assignment: &[DeviceId],
        task: TaskId,
        device_move: bool,
    ) {
        let from = decoder.divergence(task, priority, device_move);
        let current = decoder
            .accepted
            .ctx
            .snapshot()
            .unwrap()
            .makespan()
            .as_secs();
        let mut rng = SimRng::seed_from((task.0 * 7919 + from) as u64);
        let mut trial = Trial {
            reordered: (!device_move).then_some(task),
            current,
            temp: 0.02 * current.max(1e-12),
            rng: &mut rng,
            u: None,
        };
        decoder.reassign(assignment);
        let fate = decoder.decode(priority, from, Some(&mut trial)).unwrap();

        let makespan = decoder.decode_all(priority, assignment, from);
        let want = reference_decode(wf, platform, priority, assignment).unwrap();
        let got = decoder.candidate.ctx.snapshot().unwrap();
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        assert_eq!(makespan, want.makespan());

        let cost = makespan.as_secs();
        match fate {
            Fate::Cost(c) => assert_eq!(c, makespan),
            Fate::Converged => {
                assert!(!device_move);
                assert_eq!(cost, current);
                let accepted = decoder.accepted.ctx.snapshot().unwrap();
                assert_eq!(format!("{accepted:?}"), format!("{want:?}"));
                assert_eq!(decoder.accepted.order, decoder.candidate.order);
                assert_eq!(decoder.accepted.step, decoder.candidate.step);
            }
            Fate::Rejected => assert!(cost > current && !trial.accepts(cost)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn suffix_redecode_equals_the_reference_for_every_single_task_move(
            shape in 0usize..5,
            seed in 0u64..1_000_000,
            preset in 0usize..4,
            coarse: bool,
        ) {
            let wf = random_workflow(shape, seed);
            let p = platform(preset);
            let n = wf.num_tasks();
            let model = CostModel::new(&wf, &p).unwrap();
            if (0..n).any(|i| model.feasible_devices(TaskId(i)).is_empty()) {
                return;
            }
            // A random state; coarse priorities tie often.
            let mut rng = SimRng::seed_from(seed);
            let mut priority: Vec<f64> = (0..n)
                .map(|_| {
                    let r = rng.uniform(0.0, 10.0);
                    if coarse { r.round() } else { r }
                })
                .collect();
            let mut assignment: Vec<DeviceId> = (0..n)
                .map(|i| *rng.choose(model.feasible_devices(TaskId(i))).unwrap())
                .collect();
            let mut decoder = Decoder::of(&wf, &model, &assignment);
            decoder.decode_all(&priority, &assignment, 0);
            decoder.accept();

            for x in (0..n).map(TaskId) {
                // Every device move of `x`.
                let old_dev = assignment[x.0];
                let choices = model.feasible_devices(x);
                for &dev in choices.iter().filter(|&&d| d != old_dev) {
                    assignment[x.0] = dev;
                    check_move(&mut decoder, &wf, &p, &priority, &assignment, x, true);
                }
                assignment[x.0] = old_dev;
                // Priority moves to the bottom, the top, and onto every
                // other task's priority (exact ties) and just around it.
                let old_prio = priority[x.0];
                let top = priority.iter().fold(0.0f64, |a, &b| a.max(b)) + 1.0;
                let mut targets = vec![0.0, top];
                for &q in &priority {
                    targets.extend([q, q * (1.0 - 1e-12), q + 1e-9]);
                }
                for target in targets {
                    priority[x.0] = target;
                    check_move(&mut decoder, &wf, &p, &priority, &assignment, x, false);
                }
                // Walk on: accept one move of each kind per task, so the
                // next moves start from suffix-decoded states.
                priority[x.0] = old_prio + rng.normal(0.0, 1.0);
                check_move(&mut decoder, &wf, &p, &priority, &assignment, x, false);
                decoder.accept();
                if let Some(&dev) = choices.iter().find(|&&d| d != old_dev) {
                    assignment[x.0] = dev;
                    check_move(&mut decoder, &wf, &p, &priority, &assignment, x, true);
                    decoder.accept();
                }
            }
        }
    }

    #[test]
    fn early_exit_counts_witness() {
        // The grid's annealing (500 iterations, seed 0) on montage 60/1
        // on hpc_node, as [decode steps, converged exits, early
        // rejections, restored prefix reservations, transfer terms
        // derived]. Without the exits the same run decodes 15,570 steps.
        // The restore copies the 13,989 prefix reservations that a replay
        // would reserve again. The transfer terms are derived once per
        // edge, then per edge of a moved task, on each move and revert:
        // a decoder deriving each decoded task's in-edges derives 16,188.
        let p = presets::hpc_node();
        let wf = montage(60, 1).unwrap();
        crate::probe::take();
        let got = AnnealingScheduler::new(500, 0).schedule(&wf, &p).unwrap();
        let [steps, converged, rejected, _, restored, _, _, transfers] = crate::probe::take();
        assert!(converged > 0 && rejected > 0, "both exits must fire");
        assert_eq!(
            [steps, converged, rejected, restored, transfers],
            [7105, 156, 219, 13_989, 1907]
        );
        let want = reference_schedule(500, 0, &wf, &p).unwrap();
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    #[test]
    fn never_worse_than_heft() {
        let p = presets::hpc_node();
        for seed in 0..3 {
            let wf = montage(60, seed).unwrap();
            let heft = HeftScheduler::default().schedule(&wf, &p).unwrap();
            let sa = AnnealingScheduler::new(300, seed)
                .schedule(&wf, &p)
                .unwrap();
            sa.validate(&wf, &p).unwrap();
            assert!(
                sa.makespan().as_secs() <= heft.makespan().as_secs() + 1e-9,
                "seed {seed}: SA {} vs HEFT {}",
                sa.makespan(),
                heft.makespan()
            );
        }
    }

    #[test]
    fn improves_on_a_known_instance() {
        // Deterministic instance where the HEFT seed is improvable
        // (layered DAG at CCR 1.0; all SA runs are seed-reproducible, so
        // this pins the improvement path, not a probability).
        use helios_workflow::generators::synthetic::{
            layered_random, scale_edges_to_ccr, LayeredConfig,
        };
        let p = presets::hpc_node();
        let wf = layered_random(&LayeredConfig::default(), 0).unwrap();
        let wf = scale_edges_to_ccr(&wf, &p, 1.0).unwrap();
        let heft = HeftScheduler::default().schedule(&wf, &p).unwrap();
        let sa = AnnealingScheduler::new(1500, 0).schedule(&wf, &p).unwrap();
        sa.validate(&wf, &p).unwrap();
        assert!(
            sa.makespan().as_secs() < heft.makespan().as_secs() * (1.0 - 1e-9),
            "SA {} must improve HEFT {} on this instance",
            sa.makespan(),
            heft.makespan()
        );
        let _ = sipht(20, 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = presets::workstation();
        let wf = montage(40, 1).unwrap();
        let a = AnnealingScheduler::new(200, 5).schedule(&wf, &p).unwrap();
        let b = AnnealingScheduler::new(200, 5).schedule(&wf, &p).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_iterations_returns_heft_seed() {
        let p = presets::workstation();
        let wf = montage(30, 2).unwrap();
        let sa = AnnealingScheduler::new(0, 0).schedule(&wf, &p).unwrap();
        sa.validate(&wf, &p).unwrap();
        // The decoded HEFT seed can differ slightly from HEFT itself
        // (decoder re-derives EFTs), but must be a valid full schedule.
        assert_eq!(sa.placements().len(), wf.num_tasks());
    }
}
