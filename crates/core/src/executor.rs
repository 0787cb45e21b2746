//! A real multi-threaded executor — the "async runtime" reality check.
//!
//! The simulated [`Engine`](crate::Engine) asserts what *should* happen;
//! this module makes it happen on OS threads: one worker per modeled
//! device, a mutex and condvar for data dependencies, and wall-clock
//! sleeps standing in for kernel execution and data transfers (scaled
//! by a configurable time factor so a 1000-second simulated run
//! finishes in a second of wall time).
//!
//! Experiment F12 executes the same plan in both worlds and checks the
//! wall-clock makespan matches the simulated one within scheduler
//! jitter — evidence that the orchestration logic, not just the model,
//! is sound.
//!
//! This is the wall-clock hook set over the execution core
//! ([`crate::exec`]): real threads replace the simulated step loop, but
//! the realized schedule funnels through the core's single copy of
//! overlap repair and schedule validation, so a threaded run is held to
//! the same device-exclusivity and precedence invariants as a simulated
//! one.

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use helios_platform::Platform;
use helios_sched::{Placement, Schedule};
use helios_sim::{SimDuration, SimTime};
use helios_workflow::{TaskId, Workflow};

use crate::error::EngineError;
use crate::exec::{repair_device_overlaps, validate_realized};

/// Outcome of a threaded execution.
#[derive(Debug, Clone)]
pub struct ThreadedReport {
    /// Realized placements, de-scaled back into simulated seconds.
    pub schedule: Schedule,
    /// Total wall-clock time of the run.
    pub wall: Duration,
}

impl ThreadedReport {
    /// The realized makespan in simulated seconds.
    #[must_use]
    pub fn makespan(&self) -> SimDuration {
        self.schedule.makespan()
    }
}

/// Executes plans on real threads with scaled-down durations.
#[derive(Debug, Clone, Copy)]
pub struct ThreadedExecutor {
    time_scale: f64,
}

impl ThreadedExecutor {
    /// Creates an executor where one simulated second lasts
    /// `time_scale` wall seconds (e.g. `1e-3` compresses 1000× ).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] for a non-positive scale.
    pub fn new(time_scale: f64) -> Result<ThreadedExecutor, EngineError> {
        if !(time_scale.is_finite() && time_scale > 0.0) {
            return Err(EngineError::Config(format!(
                "time_scale must be positive, got {time_scale}"
            )));
        }
        Ok(ThreadedExecutor { time_scale })
    }

    /// Executes `plan` with one worker thread per device.
    ///
    /// Each worker processes its device's tasks in plan order: it blocks
    /// until every predecessor has completed, sleeps out the remaining
    /// (scaled) transfer time, sleeps the (scaled) execution time, then
    /// publishes its completion instant.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Executor`] if a worker thread panics, or
    /// propagates model errors raised while precomputing durations.
    pub fn execute_plan(
        &self,
        platform: &Platform,
        wf: &Workflow,
        plan: &Schedule,
    ) -> Result<ThreadedReport, EngineError> {
        let n = wf.num_tasks();
        // Precompute per-task wall durations and per-edge wall transfer
        // times so workers never touch the models.
        let mut exec_wall = vec![Duration::ZERO; n];
        for p in plan.placements() {
            let device = platform.device(p.device)?;
            let exec = device.execution_time(wf.task(p.task)?.cost(), p.level)?;
            exec_wall[p.task.0] = Duration::from_secs_f64(exec.as_secs() * self.time_scale);
        }
        let mut transfer_wall = vec![Duration::ZERO; wf.num_edges()];
        for (i, e) in wf.edges().iter().enumerate() {
            let from = plan.placement(e.src)?.device;
            let to = plan.placement(e.dst)?.device;
            let t = platform.transfer_time(e.bytes, from, to)?;
            transfer_wall[i] = Duration::from_secs_f64(t.as_secs() * self.time_scale);
        }

        // completion[t] = Some(instant the task finished).
        #[allow(clippy::type_complexity)]
        let state: Arc<(Mutex<Vec<Option<Instant>>>, Condvar)> =
            Arc::new((Mutex::new(vec![None; n]), Condvar::new()));

        let queues = plan.tasks_by_device();
        let epoch = Instant::now();
        let mut handles = Vec::new();
        for (_, tasks) in queues {
            let state = Arc::clone(&state);
            // Per-worker copies of everything it reads.
            let task_list: Vec<TaskId> = tasks;
            let preds: Vec<Vec<(usize, TaskId)>> = task_list
                .iter()
                .map(|&t| {
                    wf.predecessors(t)
                        .iter()
                        .map(|&e| (e.0, wf.edge(e).src))
                        .collect()
                })
                .collect();
            let exec: Vec<Duration> = task_list.iter().map(|&t| exec_wall[t.0]).collect();
            let transfer = transfer_wall.clone();
            handles.push(std::thread::spawn(move || {
                let (lock, cvar) = &*state;
                for (i, &task) in task_list.iter().enumerate() {
                    // Wait for all predecessors and compute the latest
                    // data-arrival instant.
                    let mut data_at = epoch;
                    {
                        // Every update writes one slot, so the vector is
                        // valid even under a lock another worker's panic
                        // poisoned; that panic surfaces at `join`.
                        let mut done = lock.lock().unwrap_or_else(PoisonError::into_inner);
                        for &(edge_idx, pred) in &preds[i] {
                            loop {
                                if let Some(at) = done[pred.0] {
                                    let arrival = at + transfer[edge_idx];
                                    if arrival > data_at {
                                        data_at = arrival;
                                    }
                                    break;
                                }
                                done = cvar.wait(done).unwrap_or_else(PoisonError::into_inner);
                            }
                        }
                    }
                    // Sleep out any remaining transfer time, then execute.
                    let now = Instant::now();
                    if data_at > now {
                        std::thread::sleep(data_at - now);
                    }
                    std::thread::sleep(exec[i]);
                    let mut done = lock.lock().unwrap_or_else(PoisonError::into_inner);
                    done[task.0] = Some(Instant::now());
                    cvar.notify_all();
                }
            }));
        }
        for h in handles {
            h.join()
                .map_err(|_| EngineError::Executor("worker thread panicked".into()))?;
        }
        let wall = epoch.elapsed();

        // De-scale completions into simulated time; starts are derived
        // by subtracting the task's own wall duration.
        let done = state.0.lock().unwrap_or_else(PoisonError::into_inner);
        let mut placements = Vec::with_capacity(n);
        for p in plan.placements() {
            let finished_at = done[p.task.0]
                .ok_or_else(|| EngineError::Executor(format!("task {} never ran", p.task)))?;
            let finish_s = (finished_at - epoch).as_secs_f64() / self.time_scale;
            let dur_s = exec_wall[p.task.0].as_secs_f64() / self.time_scale;
            placements.push(Placement {
                task: p.task,
                device: p.device,
                level: p.level,
                start: SimTime::from_secs((finish_s - dur_s).max(0.0)),
                finish: SimTime::from_secs(finish_s),
            });
        }
        drop(done);
        repair_device_overlaps(&mut placements);
        let schedule = Schedule::new(placements)?;
        validate_realized(&schedule, wf)?;
        Ok(ThreadedReport { schedule, wall })
    }
}

#[cfg(test)]
#[path = "executor_tests.rs"]
mod tests;
