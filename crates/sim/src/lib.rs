//! Deterministic discrete-event simulation kernel for the `helios` workspace.
//!
//! This crate provides the minimal, reusable machinery that every other
//! `helios` crate builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — validated virtual-time types,
//! * [`EventQueue`] — a deterministic future-event list with stable FIFO
//!   tie-breaking for simultaneous events,
//! * [`SimRng`] — a seedable, portable random-number generator with the
//!   distributions used by the workload generators and fault models,
//! * [`failure`] — per-device failure processes (exponential/Weibull
//!   inter-failure times, transient/degraded/permanent modes) that turn
//!   forked RNG streams into deterministic failure traces,
//! * [`KnobRange`] — the declared legal range of a numeric knob, read
//!   by its check, its refusal message and the negative tests,
//! * [`stats`] — online statistics (mean/variance/min/max), histograms and
//!   percentile estimation for experiment reporting.
//!
//! Determinism is a design requirement: two runs with the same seed must
//! produce byte-identical results on every platform. This is why the RNG is
//! a fixed ChaCha8 stream rather than `rand::rngs::StdRng` (whose algorithm
//! may change between `rand` releases), and why the event queue breaks time
//! ties by insertion order rather than by heap internals.
//!
//! # Examples
//!
//! ```
//! use helios_sim::{EventQueue, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::from_secs(2.0), "second");
//! queue.push(SimTime::from_secs(1.0), "first");
//! queue.push(SimTime::from_secs(2.0), "third"); // same time: FIFO order
//!
//! let order: Vec<_> = std::iter::from_fn(|| queue.pop())
//!     .map(|(_, e)| e)
//!     .collect();
//! assert_eq!(order, ["first", "second", "third"]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
pub mod failure;
mod range;
mod rng;
pub mod stats;
mod time;
pub mod trace;

pub use event::{EventQueue, ScheduledEvent};
pub use range::{Block, KnobRange, KnobValue};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime, TimeError};
