//! The `helios` command-line interface.
//!
//! Drives the whole workspace without writing Rust:
//!
//! ```sh
//! helios generate --family montage --tasks 100 --seed 1 --out wf.json
//! helios analyze  --workflow wf.json --platform hpc_node
//! helios schedule --workflow wf.json --platform hpc_node --scheduler heft --gantt
//! helios run      --workflow wf.json --platform hpc_node --scheduler heft \
//!                 --noise 0.2 --contention --caching --trace trace.json
//! helios platforms
//! ```
//!
//! The library portion holds the argument parser and command
//! implementations so they are unit-testable; `main.rs` is a thin shim.

#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod drain;

use std::fmt;

/// CLI-level errors: bad usage or a failure from the underlying crates.
#[derive(Debug)]
pub enum CliError {
    /// Wrong or missing arguments; the message is user-facing usage help.
    Usage(String),
    /// An I/O failure reading or writing a file.
    Io(std::io::Error),
    /// Any error surfaced by the helios crates.
    Helios(String),
    /// A journaled sweep drained on SIGINT/SIGTERM: in-flight cells were
    /// finished and flushed, and the run can resume. Maps to exit code 3
    /// so wrappers can distinguish "interrupted but resumable" from
    /// failure.
    Interrupted(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Helios(msg) => write!(f, "{msg}"),
            CliError::Interrupted(msg) => write!(f, "interrupted: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

macro_rules! from_helios_error {
    ($($ty:ty),*) => {$(
        impl From<$ty> for CliError {
            fn from(e: $ty) -> Self {
                CliError::Helios(e.to_string())
            }
        }
    )*};
}

from_helios_error!(
    helios_platform::PlatformError,
    helios_workflow::WorkflowError,
    helios_workflow::io::WorkflowIoError,
    helios_sched::SchedError,
    helios_core::EngineError,
    serde_json::Error
);

/// Top-level dispatch: parses `argv` (without the program name) and runs
/// the selected command, writing human output to `out`.
///
/// # Errors
///
/// Returns [`CliError`] on bad usage or command failure.
pub fn run(argv: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let Some((command, rest)) = argv.split_first() else {
        return Err(CliError::Usage(usage()));
    };
    match command.as_str() {
        "generate" => commands::generate(rest, out),
        "analyze" => commands::analyze(rest, out),
        "schedule" => commands::schedule(rest, out),
        "run" => commands::run(rest, out),
        "campaign" => commands::campaign(rest, out),
        "query" => commands::query(rest, out),
        "fuzz" => commands::fuzz(rest, out),
        "platforms" => commands::platforms(rest, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{}", usage())?;
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}\n{}",
            usage()
        ))),
    }
}

/// The top-level usage text.
#[must_use]
pub fn usage() -> String {
    "helios <command> [options]\n\
     commands:\n\
       generate   create a workflow (--family, --tasks, --seed, --out, --dot)\n\
       analyze    workflow statistics on a platform (--workflow, --platform)\n\
       schedule   plan a workflow (--workflow, --platform, --scheduler, --gantt, --out)\n\
       run        execute a workflow (--workflow, --platform, --scheduler, --noise,\n\
                  --seed, --contention, --caching, --online, --trace, --report)\n\
       campaign   run a workflow ensemble (--member path[:arrival[:prio]],\n\
                  --platform, --policy fifo|priority|fair-share)\n\
       campaign run    sweep a spec grid (--spec file.json, --shard K/N,\n\
                       --jobs N, --out report.json, --journal wal.journal,\n\
                       --store cells.store)\n\
       campaign merge  recombine shard reports, journals or stores\n\
                       (--in shard.json --in shard.store ..., --out)\n\
       campaign recover FILE  salvage a torn journal or store in place\n\
                       (--out to write the view elsewhere)\n\
       query      run 'SELECT ... [WHERE ...] [GROUP BY ...]' over sweep\n\
                  results (--in report.json|wal.journal|cells.store, --json)\n\
       fuzz       adversarial harness: random specs vs differential oracles\n\
                  (--seed, --runs, --bugbase DIR, --replay FILE|DIR)\n\
       platforms  list the preset platforms\n\
       help       show this message"
        .to_owned()
}
