//! The execution core: one event-driven step loop and one copy of the
//! staging/occupancy/charging math, shared by every execution path.
//!
//! The evaluation hinges on one invariant: every configuration (plain,
//! noisy, contended, cached, faulted, resilient, online) is the *same*
//! simulated machine with different knobs. This module enforces that
//! structurally. The executors — [`Engine`](crate::Engine),
//! [`OnlineRunner`](crate::OnlineRunner),
//! [`EnsembleRunner`](crate::EnsembleRunner) (the online hook set over
//! the union of its members),
//! [`ResilientRunner`](crate::ResilientRunner) and
//! [`ThreadedExecutor`](crate::executor::ThreadedExecutor) — are thin
//! hook sets over the services held here exactly once:
//!
//! * `drive` + `Hooks` — the step loop over `(ready-set, transfer
//!   staging, link health, occupancy, timeline charge, completion)`,
//!   parameterized per execution path (event type, dispatch strategy,
//!   step-budget placement), and `ElidedPops`, which keeps a step
//!   budget exact when a path skips events that would pop as no-ops;
//! * `fault_occupancy` / `noise_factor` / `slowdown_factor` —
//!   per-attempt device occupancy under noise,
//!   checkpoint overhead and fault retries;
//! * `LinkState` — FIFO link contention and transfer-arrival math
//!   (plain routes and explicit degraded/rerouted routes);
//! * `DeliveredCache` — data-product residency for `data_caching`;
//! * `classify_route` / `choose_route` — link-health verdicts and the
//!   reroute-on-link-down preference order;
//! * `finish_report` / [`IncompleteReason`] — shared report assembly
//!   and the normalized incomplete-run vocabulary;
//! * `repair_device_overlaps` / `validate_realized` — realized-schedule
//!   repair and validation for wall-clock executors.
//!
//! # RNG streams
//!
//! Every stochastic input comes from a dedicated forked stream of the
//! seed RNG, keyed by *entity id* and never by event order: that is
//! what makes executions byte-identical per seed regardless of how
//! faults, threads or shards reshuffle the event timeline.

mod accounting;
mod hooks;
mod occupancy;
mod realized;
mod routing;
mod transfer;

#[cfg(test)]
mod conformance;

pub(crate) use accounting::finish_report;
pub use accounting::IncompleteReason;
pub(crate) use hooks::{drive, BudgetPoint, ElidedPops, Hooks};
pub(crate) use occupancy::{fault_occupancy, noise_factor, slowdown_factor};
pub(crate) use realized::{repair_device_overlaps, validate_realized};
pub(crate) use routing::{choose_route, RouteChoice};
pub(crate) use transfer::{DeliveredCache, LinkState};

/// Disjoint RNG stream bases, so every task's noise, every task's fault
/// draws and every device's failure trace come from their own streams:
/// task `t` uses `NOISE_STREAM_BASE + t` and `FAULT_STREAM_BASE + t`,
/// device `d` uses `FAILURE_TRACE_STREAM_BASE + d`. Keying by task and
/// device id (never by event order) is what makes executions
/// byte-identical per seed regardless of how faults reshuffle the event
/// timeline — and makes a faulty task's occupancy provably contain its
/// fault-free occupancy.
pub(crate) const NOISE_STREAM_BASE: u64 = 1 << 32;
pub(crate) const FAULT_STREAM_BASE: u64 = 2 << 32;
pub(crate) const FAILURE_TRACE_STREAM_BASE: u64 = 3 << 32;
/// Link `l` draws its interconnect-fault trace from
/// `LINK_FAULT_STREAM_BASE + l`; correlated failure domain `i` (in spec
/// order) draws its shared event trace from `DOMAIN_STREAM_BASE + i`.
/// Same keying discipline as above: streams are owned by platform
/// entities, never positional in the event timeline.
pub(crate) const LINK_FAULT_STREAM_BASE: u64 = 4 << 32;
pub(crate) const DOMAIN_STREAM_BASE: u64 = 5 << 32;
/// Device `d` draws its elastic-capacity churn trace (spot preemptions
/// and re-acquisitions) from `ELASTIC_STREAM_BASE + d`. Timed elasticity
/// events consume no randomness at all; only stochastic churn samples
/// this stream.
pub(crate) const ELASTIC_STREAM_BASE: u64 = 6 << 32;
