//! The `helios` orchestration engine — executing scientific workflows on
//! heterogeneous platforms.
//!
//! Where `helios-sched` produces *plans*, this crate produces *runs*. The
//! [`Engine`] executes a workflow on a platform in simulated time,
//! modeling everything a plan abstracts away:
//!
//! * **runtime variability** — actual task durations deviate from the
//!   model by a configurable noise coefficient,
//! * **data movement** — every data product is transferred when its
//!   producer finishes, optionally with per-link contention (transfers
//!   queue on shared links instead of overlapping freely),
//! * **faults** — devices fail as Poisson processes; failed tasks retry,
//!   either from scratch or from their last checkpoint. Every executor
//!   takes its faults from one vocabulary,
//!   [`EngineConfig::resilience`]: the [`Engine`], [`OnlineRunner`] and
//!   [`EnsembleRunner`] run exponential transient-only failures under
//!   retry-backoff or checkpoint-restart,
//! * **failure domains and recovery policies** — the [`resilience`]
//!   subsystem models transient, degraded and permanent device failures
//!   (exponential or Weibull inter-failure times) and recovers via
//!   retry-backoff, k-replication, checkpoint/restart or re-planning on
//!   the surviving platform, reporting completion, wasted work and
//!   recovery overhead,
//! * **DVFS** — placements execute at their planned DVFS level; online
//!   mode consults a [`DvfsGovernor`](helios_energy::DvfsGovernor),
//! * **online rescheduling** — instead of following a static plan, the
//!   [`online`] dispatcher assigns ready tasks to devices just-in-time
//!   using observed (not modeled) history, calibrating per-device
//!   performance as it goes,
//! * **data-product caching** — outputs consumed by several tasks on
//!   one device transfer once,
//! * **elastic capacity** — the [`elastic`] subsystem models devices
//!   that join, drain, get preempted (spot kills with notice) and
//!   leave mid-run, via timed plans or stochastic churn on forked
//!   per-device RNG streams, with capacity metrics on the report,
//! * **workflow ensembles** — the [`ensemble`] runner shares the
//!   platform between several workflows arriving over time (FIFO /
//!   priority / fair-share arbitration), as the online dispatcher over
//!   the union of their DAGs,
//! * **parallel campaigns** — the [`campaign`] engine fans independent
//!   cells (seed replicates, sweep points, whole ensembles) out over
//!   worker threads with input-indexed aggregation, so `--jobs N`
//!   output is bit-identical to the sequential run,
//! * **sharded sweeps** — a [`CampaignSpec`] file declares a grid of
//!   (family × platform × scheduler × seed) cells; the [`SweepDriver`]
//!   runs any `K/N` shard of it and [`merge_shards`] recombines shard
//!   reports into an aggregate that is byte-identical to the unsharded
//!   run,
//! * **columnar results and queries** — the [`store`] module holds the
//!   sweep row schema exactly once: an append-friendly columnar
//!   segment format the driver writes as cells finish, plus one
//!   direct query evaluator (filter, then project or hash group-by)
//!   that `summarize`, `campaign merge` and the `helios query`
//!   expression language all run through,
//! * **adversarial self-checking** — the [`fuzz`] harness generates
//!   random campaign specs over the full knob space, checks each one
//!   against differential oracles (hooks-off identity, `--jobs` and
//!   shard byte-identity, fault-free lower bounds, schedule
//!   invariants), shrinks any divergence to a minimal spec and writes
//!   it as a replayable bug fixture.
//!
//! A run yields an [`ExecutionReport`]: realized placements, makespan,
//! energy (via `helios-energy` accounting), transfer and fault
//! statistics.
//!
//! The [`executor`] module is the reality check: it runs the same
//! workflow on real OS threads (one worker pool per modeled device,
//! crossbeam channels, scaled-down durations) and confirms the simulated
//! makespan matches wall-clock behaviour.
//!
//! # Examples
//!
//! ```
//! use helios_core::{Engine, EngineConfig};
//! use helios_platform::presets;
//! use helios_sched::HeftScheduler;
//! use helios_workflow::generators::montage;
//!
//! let platform = presets::hpc_node();
//! let wf = montage(50, 1)?;
//! let report = Engine::new(EngineConfig::default())
//!     .run(&platform, &wf, &HeftScheduler::default())?;
//! assert!(report.makespan().as_secs() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// The execution core holds the only copy of the staging/occupancy/
// charging math: a re-implemented private helper on some path is dead
// weight and a future drift hazard, so it is a hard error.
#![deny(dead_code)]

pub mod campaign;
mod config;
pub mod elastic;
mod engine;
pub mod ensemble;
mod error;
pub mod exec;
pub mod executor;
mod framed;
pub mod fuzz;
pub mod online;
mod report;
pub mod resilience;
pub mod store;

pub use campaign::{
    cell_rng, merge_shards, CampaignEngine, CampaignError, CampaignSpec, CellResult, Durable,
    DurableSalvage, DvfsKnob, FaultKnob, JournalHeader, JournalOptions, JournalWriter,
    ResilienceKnob, SchedulerParamsKnob, SeedRange, ShardReport, ShardSpec, SummaryRow, SweepCell,
    SweepDriver, SweepOptions, SweepOutcome, SweepReport,
};
pub use config::EngineConfig;
pub use elastic::{
    ElasticChurn, ElasticEvent, ElasticEventKind, ElasticityConfig, ElasticityMetrics,
};
pub use engine::Engine;
pub use ensemble::{EnsembleMember, EnsemblePolicy, EnsembleReport, EnsembleRunner, MemberReport};
pub use error::EngineError;
pub use exec::IncompleteReason;
pub use online::{OnlinePolicy, OnlineRunner};
pub use report::{ExecutionReport, TransferStats};
pub use resilience::{
    FailureDomain, FailureModel, LinkFaultModel, RecoveryPolicy, ResilienceConfig,
    ResilienceMetrics, ResilientRunner,
};
pub use store::{read_store, run_query, QueryOutput, StoreHeader, StoreWriter};
