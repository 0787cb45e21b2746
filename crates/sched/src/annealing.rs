//! Simulated-annealing schedule refinement.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use helios_platform::{DeviceId, Platform};
use helios_sim::{SimDuration, SimRng, SimTime};
use helios_workflow::{analysis, TaskId, Workflow};

use crate::context::SchedContext;
use crate::error::SchedError;
use crate::schedule::Schedule;
use crate::{HeftScheduler, Scheduler};

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
    fn new(wf: &'a Workflow, platform: &'a Platform) -> Result<Decoded<'a>, SchedError> {
        Ok(Decoded {
            ctx: SchedContext::new(wf, platform, true)?,
            order: Vec::with_capacity(wf.num_tasks()),
            step: vec![0; wf.num_tasks()],
        })
    }
}

/// Decodes (priority, assignment) pairs with two contexts: the accepted
/// state and a candidate. A candidate that differs from the accepted
/// state in one task re-decodes only from the first step the move can
/// change; accepting it swaps the two, rejecting it leaves the accepted
/// state untouched. The cost tables, the timelines' capacity and the
/// ready-set buffers live for the whole annealing run.
struct Decoder<'a> {
    accepted: Decoded<'a>,
    candidate: Decoded<'a>,
    indegree: Vec<usize>,
    ready: BinaryHeap<Ready>,
}

impl<'a> Decoder<'a> {
    fn new(wf: &'a Workflow, platform: &'a Platform) -> Result<Decoder<'a>, SchedError> {
        Ok(Decoder {
            accepted: Decoded::new(wf, platform)?,
            candidate: Decoded::new(wf, platform)?,
            indegree: Vec::with_capacity(wf.num_tasks()),
            ready: BinaryHeap::new(),
        })
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

    /// Decodes (`priority`, `assignment`) into the candidate and returns
    /// its makespan. Steps before `from` are taken from the accepted
    /// state as they are, so they must be ones the change cannot alter
    /// (see [`Decoder::divergence`]); from there on the decoder
    /// repeatedly commits the highest-priority ready task to its
    /// assigned device at its EFT.
    fn decode(
        &mut self,
        priority: &[f64],
        assignment: &[DeviceId],
        from: usize,
    ) -> Result<SimDuration, SchedError> {
        let Decoder {
            accepted,
            candidate,
            indegree,
            ready,
        } = self;
        let wf = candidate.ctx.workflow();
        let prefix = &accepted.order[..from];
        let mut last = candidate.ctx.replay(&accepted.ctx, prefix)?;
        candidate.order.clear();
        candidate.order.extend_from_slice(prefix);

        indegree.clear();
        indegree.extend((0..wf.num_tasks()).map(|i| wf.predecessors(TaskId(i)).len()));
        for (j, &task) in prefix.iter().enumerate() {
            candidate.step[task.0] = j;
            for s in wf.successor_tasks(task) {
                indegree[s.0] -= 1;
            }
        }
        ready.clear();
        for (i, &deg) in indegree.iter().enumerate() {
            if deg == 0 && accepted.step[i] >= from {
                ready.push(Ready {
                    priority: priority[i],
                    task: TaskId(i),
                });
            }
        }

        while let Some(Ready { task, .. }) = ready.pop() {
            let dev = assignment[task.0];
            let (start, finish) = candidate.ctx.eft(task, dev)?;
            candidate.ctx.place(task, dev, start, finish)?;
            candidate.step[task.0] = candidate.order.len();
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
        }
        Ok(last.saturating_since(SimTime::ZERO))
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

    fn schedule(&self, wf: &Workflow, platform: &Platform) -> Result<Schedule, SchedError> {
        // Seed state: HEFT assignment + upward-rank priorities.
        let heft = HeftScheduler::default().schedule(wf, platform)?;
        let mut assignment: Vec<DeviceId> = vec![DeviceId(0); wf.num_tasks()];
        for p in heft.placements() {
            assignment[p.task.0] = p.device;
        }
        let mut priority = analysis::bottom_levels(wf, platform)?;
        let priority_span = priority.iter().fold(0.0f64, |a, &b| a.max(b)).max(1e-12);

        let mut decoder = Decoder::new(wf, platform)?;
        for i in 0..wf.num_tasks() {
            if decoder.accepted.ctx.feasible_set(TaskId(i)).is_empty() {
                return Err(SchedError::NoFeasibleDevice(TaskId(i)));
            }
        }

        // The accepted state is `assignment` + `priority`; only a new best
        // is materialized as a schedule.
        let mut rng = SimRng::seed_from(self.seed);
        let mut current_cost = decoder.decode(&priority, &assignment, 0)?.as_secs();
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
            let choices = decoder.accepted.ctx.feasible_set(task);
            let move_device = rng.chance(0.5) && choices.len() > 1;
            let (old_dev, old_prio) = (assignment[task.0], priority[task.0]);
            if move_device {
                let new_dev = loop {
                    let d = *rng.choose(choices).expect("feasible set is non-empty");
                    if d != old_dev {
                        break d;
                    }
                };
                assignment[task.0] = new_dev;
            } else {
                priority[task.0] = (old_prio + rng.normal(0.0, 0.05 * priority_span)).max(0.0);
            }

            let from = decoder.divergence(task, &priority, move_device);
            let cost = decoder.decode(&priority, &assignment, from)?.as_secs();
            let accept =
                cost <= current_cost || rng.chance(((current_cost - cost) / temp).exp().min(1.0));
            if accept {
                decoder.accept();
                current_cost = cost;
                if cost < best_cost {
                    best = decoder.accepted.ctx.snapshot()?;
                    best_cost = cost;
                }
            } else {
                // Revert.
                assignment[task.0] = old_dev;
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
    use helios_platform::presets;
    use helios_workflow::generators::synthetic::{
        self, fork_join, gaussian_elimination, in_tree, out_tree,
    };
    use helios_workflow::generators::{montage, sipht};
    use proptest::prelude::*;

    /// The reference decoder that [`Decoder::decode`] must reproduce: a
    /// fresh context per decode, a linear-scan ready set, a full
    /// schedule every time.
    fn reference_decode(
        wf: &Workflow,
        platform: &Platform,
        priority: &[f64],
        assignment: &[DeviceId],
    ) -> Result<Schedule, SchedError> {
        let mut ctx = SchedContext::new(wf, platform, true)?;
        let mut indegree: Vec<usize> = (0..wf.num_tasks())
            .map(|i| wf.predecessors(TaskId(i)).len())
            .collect();
        let mut ready: Vec<TaskId> = (0..wf.num_tasks())
            .filter(|&i| indegree[i] == 0)
            .map(TaskId)
            .collect();
        while !ready.is_empty() {
            let (idx, &task) = ready
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| {
                    priority[a.0].total_cmp(&priority[b.0]).then(b.0.cmp(&a.0))
                })
                .expect("non-empty ready set");
            ready.swap_remove(idx);
            let dev = assignment[task.0];
            let (start, finish) = ctx.eft(task, dev)?;
            ctx.place(task, dev, start, finish)?;
            for s in wf.successor_tasks(task) {
                indegree[s.0] -= 1;
                if indegree[s.0] == 0 {
                    ready.push(s);
                }
            }
        }
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

    /// The random DAG shape families of the scheduler-conformance
    /// battery: layered, fork-join, in-tree, out-tree, Gaussian
    /// elimination.
    fn random_workflow(shape: usize, seed: u64) -> Workflow {
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn schedule_equals_the_reference_decoder(
            shape in 0usize..5,
            seed in 0u64..1_000_000,
        ) {
            let wf = random_workflow(shape, seed);
            let platforms = [
                presets::workstation(),
                presets::hpc_node(),
                presets::edge_soc(),
                presets::cluster(2),
            ];
            for p in &platforms {
                for iterations in [0, 1, 200] {
                    let got = AnnealingScheduler::new(iterations, seed)
                        .schedule(&wf, p)
                        .unwrap();
                    let want = reference_schedule(iterations, seed, &wf, p).unwrap();
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
                let mut decoder = Decoder::new(&wf, &p).unwrap();
                decoder.decode(&priority, &assignment, 0).unwrap();
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
        // behind in both contexts for `replay` to clear.
        let reversed: Vec<f64> = priority.iter().map(|r| -r).collect();
        let on_zero = vec![DeviceId(0); wf.num_tasks()];
        let mut reused = Decoder::new(&wf, &p).unwrap();
        reused.decode(&reversed, &on_zero, 0).unwrap();
        reused.accept();
        reused.decode(&priority, &on_zero, 0).unwrap();
        let makespan = reused.decode(&priority, &assignment, 0).unwrap();

        let mut fresh = Decoder::new(&wf, &p).unwrap();
        assert_eq!(fresh.decode(&priority, &assignment, 0).unwrap(), makespan);
        let want = reference_decode(&wf, &p, &priority, &assignment).unwrap();
        assert_eq!(reused.candidate.ctx.snapshot().unwrap(), want);
        assert_eq!(fresh.candidate.ctx.snapshot().unwrap(), want);
        assert_eq!(makespan, want.makespan());
    }

    /// Decodes one single-task move from the decoder's accepted state,
    /// starting at its divergence step, and checks the candidate against
    /// a full reference decode, bit for bit.
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
        let makespan = decoder.decode(priority, assignment, from).unwrap();
        let want = reference_decode(wf, platform, priority, assignment).unwrap();
        let got = decoder.candidate.ctx.snapshot().unwrap();
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        assert_eq!(makespan, want.makespan());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn suffix_redecode_equals_the_reference_for_every_single_task_move(
            shape in 0usize..5,
            seed in 0u64..1_000_000,
            platform in 0usize..4,
            coarse: bool,
        ) {
            let wf = random_workflow(shape, seed);
            let p = match platform {
                0 => presets::workstation(),
                1 => presets::hpc_node(),
                2 => presets::edge_soc(),
                _ => presets::cluster(2),
            };
            let n = wf.num_tasks();
            let mut decoder = Decoder::new(&wf, &p).unwrap();
            if (0..n).any(|i| decoder.accepted.ctx.feasible_set(TaskId(i)).is_empty()) {
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
                .map(|i| *rng.choose(decoder.accepted.ctx.feasible_set(TaskId(i))).unwrap())
                .collect();
            decoder.decode(&priority, &assignment, 0).unwrap();
            decoder.accept();

            for x in (0..n).map(TaskId) {
                // Every device move of `x`.
                let old_dev = assignment[x.0];
                let choices = decoder.accepted.ctx.feasible_set(x).to_vec();
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
