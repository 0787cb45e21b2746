//! Parallel campaign execution: many independent simulations at once.
//!
//! A *campaign* is a grid of independent cells — ensemble members,
//! parameter-sweep points, seed replicates — where every cell is a
//! self-contained deterministic simulation. Cells share no mutable
//! state: each derives its own RNG stream from the campaign seed (see
//! [`cell_rng`]), so the result of a cell depends only on its input and
//! index, never on scheduling order.
//!
//! [`CampaignEngine`] exploits that: it runs cells on a pool of scoped
//! OS threads pulling work from an atomic counter, stores each result
//! in its input-indexed slot, and assembles the output vector in input
//! order. The aggregated output is therefore **bit-identical** to the
//! sequential path (`jobs = 1`) for any worker count — parallelism
//! changes wall-clock time, nothing else. Errors are deterministic too:
//! the error reported is always the one the sequential path would have
//! hit first (lowest cell index).
//!
//! The engine uses `std::thread::scope` rather than a work-stealing
//! runtime: campaign cells are coarse (whole simulations, milliseconds
//! to seconds each), so a shared counter loses nothing to stealing and
//! keeps the crate dependency-free.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use helios_sim::SimRng;

pub mod durable;
pub mod journal;
pub mod spec;
pub mod sweep;

/// Typed campaign-layer errors: everything a user-supplied spec, shard
/// geometry, or merge/resume input can get wrong.
///
/// Each variant carries an actionable message naming the offending
/// input; the categories let callers (the CLI, tests) distinguish "fix
/// your JSON" from "these shards do not belong together".
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The spec file is not valid JSON or fails to deserialize.
    MalformedSpec(String),
    /// The spec deserialized but a field value is illegal.
    InvalidSpec {
        /// The spec name, if it got far enough to have one.
        spec: String,
        /// What is wrong and what the legal values are.
        detail: String,
    },
    /// The shard geometry is unusable (zero count, index out of range).
    InvalidShard(String),
    /// A resume checkpoint disagrees with the spec being resumed.
    ResumeMismatch(String),
    /// A resume artifact (cell journal or store) is torn or corrupt —
    /// a crash interrupted a write and left bytes that cannot be
    /// trusted past `offset` — or is no durable sweep file at all.
    CorruptResume {
        /// Path of the damaged file.
        file: String,
        /// Byte offset where the valid prefix ends.
        offset: u64,
        /// What is wrong and how to repair it (usually: run
        /// `helios campaign recover FILE`).
        detail: String,
    },
    /// Shard reports cannot be merged (different campaigns, overlaps,
    /// missing cells).
    MergeConflict(String),
    /// A `helios query` expression does not parse or plan.
    InvalidQuery {
        /// The offending token (empty when the expression ended early).
        token: String,
        /// What is wrong and what the legal forms are.
        detail: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::MalformedSpec(msg) => {
                write!(f, "malformed campaign spec: {msg}")
            }
            CampaignError::InvalidSpec { spec, detail } => {
                write!(f, "spec {spec:?}: {detail}")
            }
            CampaignError::InvalidShard(msg) => write!(f, "{msg}"),
            CampaignError::ResumeMismatch(msg) => write!(f, "{msg}"),
            CampaignError::CorruptResume {
                file,
                offset,
                detail,
            } => {
                write!(f, "corrupt resume file {file:?} at byte {offset}: {detail}")
            }
            CampaignError::MergeConflict(msg) => write!(f, "{msg}"),
            CampaignError::InvalidQuery { token, detail } => {
                write!(f, "invalid query at {token:?}: {detail}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

pub use durable::{Durable, DurableSalvage};
pub use journal::{JournalHeader, JournalWriter};
pub use spec::{
    CampaignSpec, DvfsKnob, FaultKnob, ResilienceKnob, SchedulerParamsKnob, SeedRange, SweepCell,
};
pub use sweep::{
    merge_shards, CellResult, JournalOptions, ShardReport, ShardSpec, SummaryRow, SweepDriver,
    SweepOptions, SweepOutcome, SweepReport,
};

/// Runs the independent cells of a campaign across worker threads.
///
/// # Examples
///
/// ```
/// use helios_core::CampaignEngine;
///
/// let engine = CampaignEngine::new(4);
/// let squares = engine
///     .run(&[1u64, 2, 3, 4, 5], |_idx, &x| Ok::<u64, String>(x * x))
///     .unwrap();
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CampaignEngine {
    jobs: usize,
}

impl Default for CampaignEngine {
    /// Sequential execution (`jobs = 1`).
    fn default() -> CampaignEngine {
        CampaignEngine { jobs: 1 }
    }
}

impl CampaignEngine {
    /// Creates an engine running up to `jobs` cells concurrently.
    ///
    /// `jobs = 0` means "one per available hardware thread"
    /// (`std::thread::available_parallelism`, falling back to 1 when
    /// that is unknown). `jobs = 1` is the sequential reference path.
    #[must_use]
    pub fn new(jobs: usize) -> CampaignEngine {
        CampaignEngine { jobs }
    }

    /// The configured worker count (0 = auto).
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The worker count actually used for `cells` cells: auto-detection
    /// resolved and clamped to the number of cells.
    #[must_use]
    pub fn effective_jobs(&self, cells: usize) -> usize {
        let requested = if self.jobs == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.jobs
        };
        requested.min(cells).max(1)
    }

    /// Runs `f` over every input cell and returns the results in input
    /// order.
    ///
    /// `f(index, &input)` must be a pure function of its arguments (use
    /// [`cell_rng`] for per-cell randomness); the engine then guarantees
    /// the returned vector — and any error — is identical for every
    /// `jobs` setting.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failing cell — exactly
    /// the error the sequential path reports. Workers stop claiming new
    /// cells once a failure is observed.
    pub fn run<T, R, E, F>(&self, inputs: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        let (out, drained) = self.run_partial(inputs, None, f)?;
        debug_assert!(!drained, "no cancel flag, so nothing can drain");
        Ok(out)
    }

    /// Like [`run`](CampaignEngine::run), but drains cooperatively: once
    /// `cancel` reads `true`, workers finish the cells they already
    /// claimed and stop claiming new ones. Returns the completed prefix
    /// of results plus whether the run was cut short.
    ///
    /// Because work is claimed through a shared counter, the claimed
    /// indices always form a contiguous prefix of `inputs` — a drained
    /// run returns results for cells `0..k` exactly, never a gappy
    /// subset, which is what makes the journal's resume math trivial.
    ///
    /// # Errors
    ///
    /// As [`run`](CampaignEngine::run): the lowest-indexed failure.
    pub fn run_partial<T, R, E, F>(
        &self,
        inputs: &[T],
        cancel: Option<&AtomicBool>,
        f: F,
    ) -> Result<(Vec<R>, bool), E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        let draining = || cancel.is_some_and(|c| c.load(Ordering::Relaxed));
        let jobs = self.effective_jobs(inputs.len());
        if jobs <= 1 {
            let mut out = Vec::with_capacity(inputs.len());
            for (i, x) in inputs.iter().enumerate() {
                if draining() {
                    break;
                }
                out.push(f(i, x)?);
            }
            let drained = out.len() < inputs.len();
            return Ok((out, drained));
        }

        // Work is claimed through a shared counter, so claimed indices
        // form a contiguous prefix; every claimed cell stores into its
        // own slot. Unclaimed slots stay `None` and can only trail an
        // error or a drain, never precede one.
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let slots: Mutex<Vec<Option<Result<R, E>>>> =
            Mutex::new((0..inputs.len()).map(|_| None).collect());

        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    if failed.load(Ordering::Relaxed) || draining() {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(input) = inputs.get(i) else { break };
                    let result = f(i, input);
                    if result.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    slots.lock().expect("no poisoned campaign slot lock")[i] = Some(result);
                });
            }
        });

        let slots = slots.into_inner().expect("no poisoned campaign slot lock");
        let total = slots.len();
        let mut out = Vec::with_capacity(total);
        for slot in slots {
            match slot {
                Some(Ok(r)) => out.push(r),
                Some(Err(e)) => return Err(e),
                // A `None` before the first error can only follow a
                // drain: the claiming scheme forbids skipped indices.
                None => {
                    assert!(cancel.is_some(), "unclaimed cell ahead of the first error");
                    break;
                }
            }
        }
        let drained = out.len() < total;
        Ok((out, drained))
    }
}

/// The deterministic RNG stream for one campaign cell.
///
/// Cells must not share a generator (draws would depend on execution
/// order); instead each forks its own stream from the campaign seed.
/// Stream `cell + 1` is used so cell 0 does not alias the base stream
/// that sequential single-run code paths draw from.
#[must_use]
pub fn cell_rng(campaign_seed: u64, cell: u64) -> SimRng {
    SimRng::seed_from(campaign_seed).fork(cell.wrapping_add(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::ensemble::{EnsembleMember, EnsemblePolicy, EnsembleRunner};
    use helios_platform::presets;
    use helios_sim::SimTime;
    use helios_workflow::generators::montage;

    #[test]
    fn sequential_and_parallel_agree_on_plain_math() {
        let inputs: Vec<u64> = (0..100).collect();
        let f = |i: usize, &x: &u64| Ok::<(u64, u64), String>((i as u64, x * 3));
        let seq = CampaignEngine::new(1).run(&inputs, f).unwrap();
        for jobs in [0, 2, 3, 8, 200] {
            assert_eq!(CampaignEngine::new(jobs).run(&inputs, f).unwrap(), seq);
        }
    }

    #[test]
    fn lowest_index_error_wins() {
        let inputs: Vec<usize> = (0..64).collect();
        let f = |i: usize, _: &usize| {
            if i % 7 == 3 {
                Err(format!("cell {i} failed"))
            } else {
                Ok(i)
            }
        };
        for jobs in [1, 2, 8] {
            let err = CampaignEngine::new(jobs).run(&inputs, f).unwrap_err();
            assert_eq!(err, "cell 3 failed", "jobs = {jobs}");
        }
    }

    #[test]
    fn empty_campaign_is_fine() {
        let out = CampaignEngine::new(4)
            .run(&[] as &[u8], |_, _| Ok::<u8, String>(0))
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn effective_jobs_resolves_auto_and_clamps() {
        assert!(CampaignEngine::new(0).effective_jobs(100) >= 1);
        assert_eq!(CampaignEngine::new(8).effective_jobs(3), 3);
        assert_eq!(CampaignEngine::new(2).effective_jobs(100), 2);
        assert_eq!(CampaignEngine::new(0).effective_jobs(0), 1);
        assert_eq!(CampaignEngine::default().jobs(), 1);
    }

    #[test]
    fn cell_rngs_are_independent_and_reproducible() {
        let mut a = cell_rng(42, 0);
        let mut a2 = cell_rng(42, 0);
        let mut b = cell_rng(42, 1);
        let draws_a: Vec<f64> = (0..16).map(|_| a.uniform(0.0, 1.0)).collect();
        let draws_a2: Vec<f64> = (0..16).map(|_| a2.uniform(0.0, 1.0)).collect();
        let draws_b: Vec<f64> = (0..16).map(|_| b.uniform(0.0, 1.0)).collect();
        assert_eq!(draws_a, draws_a2);
        assert_ne!(draws_a, draws_b);
    }

    #[test]
    fn ensemble_cells_are_bit_identical_across_jobs() {
        let platform = presets::workstation();
        let seeds: Vec<u64> = (0..4).collect();
        let run_all = |jobs: usize| {
            CampaignEngine::new(jobs)
                .run(&seeds, |_, &seed| {
                    let members = [
                        EnsembleMember {
                            workflow: montage(40, seed)?,
                            arrival: SimTime::ZERO,
                            priority: 1.0,
                        },
                        EnsembleMember {
                            workflow: montage(40, seed + 100)?,
                            arrival: SimTime::from_secs(0.5),
                            priority: 2.0,
                        },
                    ];
                    let config = EngineConfig {
                        seed,
                        noise_cv: 0.05,
                        ..Default::default()
                    };
                    EnsembleRunner::new(config, EnsemblePolicy::Priority).run(&platform, &members)
                })
                .map(|reports| format!("{reports:?}"))
        };
        let seq = run_all(1).unwrap();
        let par = run_all(4).unwrap();
        assert_eq!(seq, par, "parallel campaign must be byte-identical");
    }
}
