//! Heterogeneous platform models for the `helios` workspace.
//!
//! A [`Platform`] is a set of processing [`Device`]s (CPUs, GP-GPUs, FPGAs,
//! ML ASICs, DSPs) joined by an [`Interconnect`]. Each device carries:
//!
//! * a **performance model** — a roofline-style execution-time estimate from
//!   a task's compute cost ([`ComputeCost`]): `max(flops/rate, bytes/bw)`
//!   plus a launch overhead, scaled by the device's affinity for the task's
//!   [`KernelClass`] and by its active DVFS state,
//! * a **power model** — `P = P_static + C_eff · V² · f` per
//!   [`DvfsState`], plus idle and sleep states for dynamic resource sleep,
//! * an **interconnect position** — data transfers between devices are
//!   routed over [`Link`]s with latency and bandwidth, so schedulers can
//!   weigh communication against computation.
//!
//! Real accelerators are *modeled*, not driven: the repro target is the
//! orchestration layer, and scheduling decisions depend only on relative
//! task-on-device costs, which these models capture (see DESIGN.md §1).
//!
//! # Examples
//!
//! ```
//! use helios_platform::{presets, ComputeCost, KernelClass};
//!
//! let node = presets::hpc_node();
//! let cost = ComputeCost::new(500.0, 2e9, KernelClass::DenseLinearAlgebra);
//! // The GPU runs dense linear algebra much faster than the host CPU.
//! let cpu = node.device_by_name("cpu0").unwrap();
//! let gpu = node.device_by_name("gpu0").unwrap();
//! assert!(gpu.execution_time(&cost, gpu.nominal_level()).unwrap()
//!       < cpu.execution_time(&cost, cpu.nominal_level()).unwrap());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod availability;
mod cost;
mod device;
mod dvfs;
mod error;
mod interconnect;
mod platform;
pub mod presets;

pub use availability::{Availability, DeviceState, LinkAvailability, LinkHealth};
pub use cost::{ComputeCost, KernelClass};
pub use device::{Device, DeviceBuilder, DeviceId, DeviceKind};
pub use dvfs::{DvfsLevel, DvfsState, PowerModel, SleepModel};
pub use error::PlatformError;
pub use interconnect::{Interconnect, InterconnectBuilder, Link, LinkId, Route, TransferTable};
pub use platform::{Platform, PlatformBuilder};
