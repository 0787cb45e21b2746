//! The hook-driven step loop shared by every simulated execution path.
//!
//! [`drive`] owns the loop skeleton — completion check, step-budget
//! charge, event pop, dispatch — while a [`Hooks`] implementation owns
//! everything path-specific: the event vocabulary, how an event is
//! handled, and where in the loop the step budget is charged. The three
//! simulated executors differ *only* in their hook set:
//!
//! | path                                | budget point                 | exit on complete | after_event                  |
//! |-------------------------------------|------------------------------|------------------|------------------------------|
//! | `Engine`                            | after pop                    | no (drains)      | —                            |
//! | `OnlineRunner`, `EnsembleRunner`    | (no budget)                  | no (drains)      | —                            |
//! | `ResilientRunner`                   | before pop, plus ghost steps | yes              | `dispatch_all`, when flagged |
//!
//! `OnlineRunner` and `EnsembleRunner` share one hook set: an ensemble
//! is the online dispatcher over the union of its members' DAGs, with
//! one release event per distinct member arrival.
//!
//! The resilient runner re-runs its dispatcher only after an event that
//! can start work (a device released, a task finished, a replica queued
//! or re-queued, a device's liveness or membership changed): the
//! dispatcher reaches a fixed point and start eligibility does not
//! depend on the clock, so after any other event the pass is a no-op.
//! Ghost steps, which keep its step budget exact when it skips no-op
//! events, are charged by [`drive`].
//!
//! The resilient runner must exit the moment the last task completes
//! because fault-process events extend to infinity; the static paths
//! drain their (finite) queues instead. Both conventions funnel into
//! the same [`EngineError::Stalled`] / `StepBudgetExceeded` reporting.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use helios_sim::SimTime;

use crate::error::EngineError;

/// Where the step budget is charged relative to the event pop.
///
/// The static engine charges *after* popping (an empty queue can never
/// trip the watchdog); the resilient runner charges *before* popping
/// (an eternally fault-generating queue must trip it even between
/// useful events). Both orderings are preserved exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BudgetPoint {
    /// Charge at the top of the iteration, before the pop.
    BeforePop,
    /// Charge right after a successful pop.
    AfterPop,
}

/// Variation points of the execution core's step loop. One
/// implementation per execution path; [`drive`] supplies the loop.
pub(crate) trait Hooks {
    /// The path's event vocabulary.
    type Event;

    /// Step budget for the watchdog, if any.
    fn budget(&self) -> Option<u64>;

    /// Where the budget is charged (see [`BudgetPoint`]).
    fn budget_point(&self) -> BudgetPoint;

    /// Tasks completed so far.
    fn completed(&self) -> usize;

    /// Total tasks that must complete.
    fn total(&self) -> usize;

    /// Whether the loop exits the instant every task has completed
    /// (resilient semantics: fault events extend forever) instead of
    /// draining the queue.
    fn exit_on_complete(&self) -> bool;

    /// Pops the next timeline event, if any.
    fn pop(&mut self) -> Option<(SimTime, Self::Event)>;

    /// Handles one event at simulated instant `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event) -> Result<(), EngineError>;

    /// Runs after every handled event (the resilient runner re-runs its
    /// dispatcher here when the event can have made work startable; the
    /// static paths dispatch inside `handle`).
    fn after_event(&mut self, now: SimTime) -> Result<(), EngineError> {
        let _ = now;
        Ok(())
    }

    /// Removes and counts the ghost steps due before the head of the
    /// queue (see [`ElidedPops`]). Called only under a step budget.
    fn elided_before_head(&mut self) -> u64 {
        0
    }
}

/// Ghost steps: the `(time, sequence)` keys of events a path never
/// queued because they would have popped as no-ops.
///
/// A step budget counts pops, so skipping a no-op pop would move the
/// step at which a budget trips. A budgeted path records each skipped
/// key here (the key comes from `EventQueue::skip`), and [`drive`]
/// charges one step per key that orders before the queue's head, just
/// where the pop would have been. An unbudgeted run records nothing:
/// nothing can observe its step count.
#[derive(Debug, Default)]
pub(crate) struct ElidedPops {
    keys: BinaryHeap<Reverse<(SimTime, u64)>>,
}

impl ElidedPops {
    /// Records the key of one skipped event.
    pub(crate) fn record(&mut self, key: (SimTime, u64)) {
        self.keys.push(Reverse(key));
    }

    /// Removes and counts the keys ordered before `head`, the key of the
    /// queue's earliest event (every key when the queue is empty).
    pub(crate) fn take_before(&mut self, head: Option<(SimTime, u64)>) -> u64 {
        let mut taken = 0;
        while let Some(&Reverse(key)) = self.keys.peek() {
            if head.is_some_and(|h| key > h) {
                break;
            }
            self.keys.pop();
            taken += 1;
        }
        taken
    }
}

/// The event-driven step loop over `(ready-set, transfer staging, link
/// health, occupancy, timeline charge, completion)`. Drives `hooks`
/// until every task completes, the queue drains, the step budget trips
/// ([`EngineError::StepBudgetExceeded`]) or progress stalls
/// ([`EngineError::Stalled`]).
///
/// Under a step budget charged before the pop, the ghost steps of
/// [`ElidedPops`] due before the queue's head are charged ahead of the
/// head's own step, so the budget trips at the same step, with the
/// same `completed`, as if the skipped events had been queued.
pub(crate) fn drive<H: Hooks>(hooks: &mut H) -> Result<(), EngineError> {
    let mut steps: u64 = 0;
    loop {
        if hooks.exit_on_complete() && hooks.completed() == hooks.total() {
            return Ok(());
        }
        if hooks.budget_point() == BudgetPoint::BeforePop {
            if hooks.budget().is_some() {
                // Each ghost step stands for a no-op pop of the un-elided
                // loop: it would have passed this completion check (the
                // no-op changed nothing) and been charged here.
                for _ in 0..hooks.elided_before_head() {
                    charge_step(hooks, &mut steps)?;
                }
            }
            charge_step(hooks, &mut steps)?;
        }
        let Some((now, event)) = hooks.pop() else {
            break;
        };
        if hooks.budget_point() == BudgetPoint::AfterPop {
            charge_step(hooks, &mut steps)?;
        }
        hooks.handle(now, event)?;
        hooks.after_event(now)?;
    }
    // Queue drained. With `exit_on_complete` the completion check above
    // already returned, so reaching here always means a stall; the
    // draining paths still need the final head-count.
    if hooks.completed() != hooks.total() {
        return Err(EngineError::Stalled {
            completed: hooks.completed(),
            total: hooks.total(),
        });
    }
    Ok(())
}

/// Watchdog: this run is grinding through more simulated events than
/// the caller budgeted for.
fn charge_step<H: Hooks>(hooks: &H, steps: &mut u64) -> Result<(), EngineError> {
    if let Some(budget) = hooks.budget() {
        if *steps >= budget {
            return Err(EngineError::StepBudgetExceeded {
                steps: budget,
                completed: hooks.completed(),
                total: hooks.total(),
            });
        }
    }
    *steps += 1;
    Ok(())
}
