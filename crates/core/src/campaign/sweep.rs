//! The sharded sweep driver: shared-nothing partitions of a spec grid.
//!
//! A [`SweepDriver`] runs the cells of a [`CampaignSpec`] through the
//! [`CampaignEngine`]. Sharding splits the cell space by striding over
//! global cell indices — shard `k` of `n` owns every cell with
//! `index % n == k - 1` — so shards are balanced even when the grid's
//! axes correlate with cost (e.g. seeds innermost).
//!
//! A run resolves its spec once, before it opens its sink: validation
//! builds every platform and the engine config the cells share, and
//! each cell then only plans, applies the DVFS knob and runs.
//!
//! Every cell is a pure function of the spec and its grid coordinates:
//! the workflow, plan and engine seed all derive from the cell's own
//! seed, never from shard-local state. [`merge_shards`] therefore
//! reassembles any complete partition into a [`SweepReport`] that is
//! **byte-identical** to the unsharded sequential run, while refusing
//! overlapping shards, missing cells and shards of different specs.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use helios_platform::Platform;
use helios_sched::{CostModel, Placement, Schedule};
use helios_workflow::Workflow;

use super::journal::{self, JournalHeader, JournalWriter, DEFAULT_POISON_LIMIT};
use super::spec::{CampaignSpec, DvfsKnob, Resolved, SweepCell};
use super::{CampaignEngine, CampaignError};
use crate::exec::IncompleteReason;
use crate::resilience::ResilientRunner;
use crate::store::{segment, StoreHeader, StoreWriter};
use crate::{Engine, EngineConfig, EngineError};

/// One shard of a partition: `index` of `count`, 1-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    index: usize,
    count: usize,
}

impl ShardSpec {
    /// Creates shard `index` of `count` (1-based, `1 <= index <= count`).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::InvalidShard`] (wrapped in
    /// [`EngineError::Campaign`]) when the pair is out of range.
    pub fn new(index: usize, count: usize) -> Result<ShardSpec, EngineError> {
        if count == 0 {
            return Err(CampaignError::InvalidShard(
                "shard count must be >= 1 (use 1/1 for the whole grid)".into(),
            )
            .into());
        }
        if index == 0 || index > count {
            return Err(CampaignError::InvalidShard(format!(
                "shard index must satisfy 1 <= K <= N, got {index}/{count}"
            ))
            .into());
        }
        Ok(ShardSpec { index, count })
    }

    /// The trivial partition: the whole grid as one shard.
    #[must_use]
    pub fn full() -> ShardSpec {
        ShardSpec { index: 1, count: 1 }
    }

    /// Parses the CLI form `K/N` (e.g. `2/4`).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::InvalidShard`] for anything but two
    /// positive integers joined by `/` with `K <= N`.
    pub fn parse(s: &str) -> Result<ShardSpec, EngineError> {
        let bad = || {
            EngineError::Campaign(CampaignError::InvalidShard(format!(
                "bad shard {s:?}: expected K/N, e.g. 2/4"
            )))
        };
        let (k, n) = s.split_once('/').ok_or_else(bad)?;
        let index: usize = k.trim().parse().map_err(|_| bad())?;
        let count: usize = n.trim().parse().map_err(|_| bad())?;
        ShardSpec::new(index, count)
    }

    /// This shard's 1-based index.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total shards in the partition.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether this shard owns global cell `cell_index`.
    #[must_use]
    pub fn owns(&self, cell_index: usize) -> bool {
        cell_index % self.count == self.index - 1
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The measured outcome of one grid cell.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// Global cell index in spec expansion order.
    pub cell: usize,
    /// Workflow family name.
    pub family: String,
    /// Platform preset name.
    pub platform: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Cell seed (drives generation and execution).
    pub seed: u64,
    /// Realized makespan, seconds.
    pub makespan_secs: f64,
    /// Schedule length ratio of the realized schedule.
    pub slr: f64,
    /// Total energy, joules.
    pub energy_j: f64,
    /// Inter-device transfers performed.
    pub transfers: usize,
    /// Bytes moved across links.
    pub transfer_bytes: f64,
    /// Injected fault count.
    pub failures: u32,
    /// Retries performed.
    pub retries: u32,
    /// Whether the cell ran to completion. `false` when the resilience
    /// policy lost the workload (retry budget exhausted or every
    /// feasible device permanently failed); such cells carry zero
    /// metrics and are excluded from summary means.
    #[serde(default = "default_true")]
    pub completed: bool,
    /// Executed device-seconds that did not contribute to completion
    /// (resilience cells only).
    #[serde(default)]
    pub wasted_work_secs: f64,
    /// Restart, backoff and re-planning overhead, seconds (resilience
    /// cells only).
    #[serde(default)]
    pub recovery_overhead_secs: f64,
    /// `makespan / fault_free_makespan - 1` (resilience cells only).
    #[serde(default)]
    pub makespan_degradation: f64,
    /// Transfers that fell back to the platform's default link because
    /// their primary route was down (resilience cells only).
    #[serde(default)]
    pub reroutes: u32,
    /// Time transfers spent stalled waiting for downed links to heal,
    /// seconds (resilience cells only).
    #[serde(default)]
    pub partition_downtime_secs: f64,
    /// Tasks re-executed because a permanent failure destroyed their
    /// data products (resilience cells only).
    #[serde(default)]
    pub rematerialized_tasks: u32,
    /// Dependency bytes re-staged for those re-executions (resilience
    /// cells only).
    #[serde(default)]
    pub rematerialized_bytes: f64,
    /// Why an incomplete cell stopped: `retries_exhausted`,
    /// `all_devices_lost`, `timed_out`, `infeasible`,
    /// `capacity_exhausted` or `poisoned`. `None` for completed cells.
    #[serde(default)]
    pub incomplete_reason: Option<String>,
    /// Device-seconds of live capacity integrated over the run
    /// (elasticity cells only).
    #[serde(default)]
    pub capacity_secs: f64,
    /// Spot-preemption kills executed (elasticity cells only).
    #[serde(default)]
    pub preemptions: u32,
    /// Queued task copies migrated off draining or preempted devices
    /// (elasticity cells only).
    #[serde(default)]
    pub drain_migrated_tasks: u32,
    /// Busy fraction of capacity contributed by devices that joined
    /// mid-run (elasticity cells only; 0 when nothing joined).
    #[serde(default)]
    pub join_utilization: f64,
}

fn default_true() -> bool {
    true
}

fn default_one() -> f64 {
    1.0
}

/// The result file one shard writes: its cells plus enough partition
/// metadata for [`merge_shards`] to detect overlap, gaps and spec
/// mismatches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Spec name, echoed for human consumption.
    pub spec_name: String,
    /// Digest of the canonical spec JSON (see `CampaignSpec::digest`).
    pub spec_digest: String,
    /// Cells in the full (unsharded) grid.
    pub total_cells: usize,
    /// This shard's 1-based index.
    pub shard_index: usize,
    /// Shards in this partition.
    pub shard_count: usize,
    /// Results for the cells this shard owns, in cell order.
    pub cells: Vec<CellResult>,
}

impl ShardReport {
    /// `cells`, sorted by index, under the campaign and shard identity
    /// of a durable file's header: the one body of the journal's and the
    /// store's `to_shard_report`, which bridge salvaged files to
    /// [`merge_shards`] and the sweep loop.
    pub(crate) fn salvaged(
        spec_name: String,
        spec_digest: String,
        total_cells: usize,
        shard_index: usize,
        shard_count: usize,
        mut cells: Vec<CellResult>,
    ) -> ShardReport {
        cells.sort_by_key(|c| c.cell);
        // The salvage grew `cells` push by push; a report may be held
        // for a whole merge, so it keeps no spare capacity.
        cells.shrink_to_fit();
        ShardReport {
            spec_name,
            spec_digest,
            total_cells,
            shard_index,
            shard_count,
            cells,
        }
    }
}

/// Mean metrics over the seed replicates of one grid combination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummaryRow {
    /// Workflow family name.
    pub family: String,
    /// Platform preset name.
    pub platform: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Cells aggregated into this row.
    pub cells: usize,
    /// Mean makespan over completed cells, seconds. `None` (serialized
    /// as `null`) when every cell in the row is incomplete: there is
    /// nothing to average, and a missing mean must stay distinguishable
    /// from a genuine zero.
    #[serde(default)]
    pub mean_makespan_secs: Option<f64>,
    /// Mean schedule length ratio over completed cells; `None` for
    /// rows with no completed cells.
    #[serde(default)]
    pub mean_slr: Option<f64>,
    /// Mean energy over completed cells, joules; `None` for rows with
    /// no completed cells.
    #[serde(default)]
    pub mean_energy_j: Option<f64>,
    /// Fraction of the row's cells that ran to completion (1.0 without
    /// fault injection).
    #[serde(default = "default_one")]
    pub completion_probability: f64,
}

/// The merged, complete sweep: every cell plus per-combination means.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Spec name.
    pub spec_name: String,
    /// Digest of the canonical spec JSON.
    pub spec_digest: String,
    /// Cells in the grid.
    pub total_cells: usize,
    /// Every cell result, sorted by global cell index.
    pub cells: Vec<CellResult>,
    /// Per-(family, platform, scheduler) means, in declaration order.
    pub summary: Vec<SummaryRow>,
}

/// Runs spec grids, whole or shard-by-shard.
///
/// Every entry point — [`run_shard`](SweepDriver::run_shard),
/// [`run_journal`](SweepDriver::run_journal) and
/// [`run_store`](SweepDriver::run_store) — feeds one private loop over a
/// `CellSink`: salvage and check → quarantine → skip → cap → run →
/// append → flush (even on error) → compile. The entry points differ
/// only in where finished cells go: nowhere but the returned report, or
/// one of the two durable files, which alone can be resumed.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepDriver {
    engine: CampaignEngine,
}

impl SweepDriver {
    /// Creates a driver running up to `jobs` cells concurrently
    /// (0 = one per hardware thread, 1 = sequential reference).
    #[must_use]
    pub fn new(jobs: usize) -> SweepDriver {
        SweepDriver {
            engine: CampaignEngine::new(jobs),
        }
    }

    /// Runs the whole grid and merges it — the unsharded reference
    /// path. Byte-identical to merging any complete shard partition.
    ///
    /// # Errors
    ///
    /// Propagates spec validation and cell execution errors.
    pub fn run(&self, spec: &CampaignSpec) -> Result<SweepReport, EngineError> {
        merge_shards(&[self.run_shard(spec, ShardSpec::full())?])
    }

    /// Runs the cells owned by `shard` (strided over global indices),
    /// keeping them only in memory: nothing is resumable. A run that
    /// must survive a crash goes through
    /// [`run_journal`](SweepDriver::run_journal) or
    /// [`run_store`](SweepDriver::run_store).
    ///
    /// # Errors
    ///
    /// Propagates spec validation and cell execution errors; the error
    /// reported is the one of the lowest-indexed failing cell.
    pub fn run_shard(
        &self,
        spec: &CampaignSpec,
        shard: ShardSpec,
    ) -> Result<ShardReport, EngineError> {
        Ok(self
            .drive(spec, shard, MemorySink, &SweepOptions::default())?
            .report)
    }

    /// Runs `shard` against a write-ahead cell journal at `path` — the
    /// crash-consistent execution path. A fresh path is initialized
    /// with a checksummed header binding the spec digest and shard
    /// geometry; an existing journal is salvaged (torn tail truncated)
    /// and resumed. Every cell appends an attempt record before
    /// executing and a completion record after, with one fsync per cell:
    /// a completion is staged while a pending cell has yet to start and
    /// no drain is requested, and the next cell's attempt record carries
    /// it in the same write and fsync; otherwise it is written and
    /// fsync'd at once. So a finished cell is durable before its worker
    /// starts another cell, a `kill -9` at any instant — including
    /// mid-write — loses at most the cells in flight, and the compiled
    /// report is byte-identical to an uninterrupted run.
    ///
    /// Cells whose attempt count reaches the poison limit with no
    /// completion record have crashed the process that many times; they
    /// are quarantined as `completed = false,
    /// incomplete_reason = "poisoned"` instead of crash-looping.
    ///
    /// # Errors
    ///
    /// [`CampaignError::CorruptResume`] when `path` is not a journal or
    /// its header is unreadable; [`CampaignError::ResumeMismatch`] when
    /// the journal belongs to a different campaign or shard geometry —
    /// plus I/O and cell execution errors.
    pub fn run_journal(
        &self,
        spec: &CampaignSpec,
        shard: ShardSpec,
        path: &Path,
        opts: &SweepOptions<'_>,
    ) -> Result<SweepOutcome, EngineError> {
        let sink = JournalSink {
            path,
            writer: None,
            crash_cell: opts.crash_cell,
            tear_after: opts.tear_after,
            poison_limit: opts.poison_limit.unwrap_or(DEFAULT_POISON_LIMIT),
            cancel: opts.cancel,
            unattempted: 0,
        };
        self.drive(spec, shard, sink, opts)
    }

    /// Runs `shard` against a columnar store segment file at `path` —
    /// the append-as-you-go result path. A fresh path is initialized
    /// with a checksummed header binding the spec digest, shard
    /// geometry and row schema; an existing store is salvaged (torn
    /// tail truncated) and resumed, re-running only the missing cells.
    /// Finished cells are appended as columnar row groups, and the
    /// JSON [`ShardReport`] is compiled *from* those rows — byte
    /// identical to an uninterrupted `--out` run. The journal-only
    /// hooks of `opts` are ignored.
    ///
    /// # Errors
    ///
    /// [`CampaignError::CorruptResume`] when `path` is not a store or
    /// its header is unreadable; [`CampaignError::ResumeMismatch`] when
    /// the store belongs to a different campaign or shard geometry —
    /// plus I/O and cell execution errors.
    pub fn run_store(
        &self,
        spec: &CampaignSpec,
        shard: ShardSpec,
        path: &Path,
        opts: &SweepOptions<'_>,
    ) -> Result<SweepOutcome, EngineError> {
        self.drive(spec, shard, StoreSink { path, writer: None }, opts)
    }

    /// The one sweep loop behind every entry point.
    fn drive<S: CellSink>(
        &self,
        spec: &CampaignSpec,
        shard: ShardSpec,
        mut sink: S,
        opts: &SweepOptions<'_>,
    ) -> Result<SweepOutcome, EngineError> {
        let mut run = spec.resolve()?;
        if let Some(budget) = step_budget_override()? {
            run.config.step_budget = Some(budget);
        }
        let cells = run.cells();
        let total_cells = cells.len();
        let mut report = ShardReport {
            spec_name: spec.name.clone(),
            spec_digest: spec.digest(),
            total_cells,
            shard_index: shard.index(),
            shard_count: shard.count(),
            cells: Vec::new(),
        };

        let salvaged = sink.salvage(&report)?;
        let mut done = salvaged.cells;
        let salvaged_cells = done.len();

        // Quarantine: a cell that has crashed the process `poison_limit`
        // times becomes a zero-metric measurement, not another attempt.
        let mut poisoned: Vec<usize> = Vec::new();
        for index in salvaged.crash_looped {
            if shard.owns(index) && index < total_cells {
                let result = poisoned_result(&cells[index]);
                sink.append(&result)?;
                done.push(result);
                poisoned.push(index);
            }
        }
        done.sort_by_key(|c| c.cell);

        let skipped = done.len();
        let mut pending: Vec<SweepCell> = cells
            .into_iter()
            .filter(|c| {
                shard.owns(c.index) && done.binary_search_by_key(&c.index, |d| d.cell).is_err()
            })
            .collect();
        let mut remaining = 0;
        if let Some(cap) = opts.limit {
            if pending.len() > cap {
                remaining = pending.len() - cap;
                pending.truncate(cap);
            }
        }

        // The attempt record is durable before the cell runs; the cell
        // executes outside the sink lock, and only the appends serialize.
        sink.expect_attempts(pending.len());
        let sink = Mutex::new(sink);
        let lock = || sink.lock().expect("no poisoned sink lock");
        let workflows = Workflows::new(&run, &pending);
        let ran = self.engine.run_partial(&pending, opts.cancel, |_, cell| {
            lock().attempt(cell.index)?;
            let result = workflows.with(cell, |wf, model| run_cell(&run, cell, wf, model))?;
            lock().append(&result)?;
            Ok::<_, EngineError>(result)
        });
        // Flush even when the run failed: cells already appended must
        // become durable before the error (which takes precedence)
        // propagates.
        let flush = lock().flush();
        let (fresh, drained) = ran?;
        flush?;
        remaining += pending.len() - fresh.len();

        done.extend(fresh);
        done.sort_by_key(|c| c.cell);
        report.cells = done;
        Ok(SweepOutcome {
            report,
            skipped,
            remaining,
            salvaged_cells,
            dropped_bytes: salvaged.dropped_bytes,
            poisoned,
            drained,
            workflows_generated: workflows.generated.into_inner(),
        })
    }
}

/// The workflows of one run's pending cells and their cost models.
/// Every cell of a (family, seed) pair runs on the same workflow, so
/// each pair's is generated on its first use and dropped after its last:
/// only pairs whose cells interleave are resident together. The cells of
/// a pair on one platform (a cell group) share one [`CostModel`], built
/// on the group's first use and dropped with the workflow. Both are
/// built under the lock, so concurrent cells never both build one.
/// Generation errors are not kept, so every cell of a failing pair fails
/// on its own generation, as a cell with a workflow of its own would.
struct Workflows<'a> {
    run: &'a Resolved<'a>,
    /// Keyed by family axis position and seed.
    live: Mutex<HashMap<(usize, u64), Live<'a>>>,
    /// Workflows generated so far.
    generated: AtomicUsize,
    /// Cost models built so far.
    modeled: AtomicUsize,
}

/// One (family, seed) pair: the pending cells that have yet to finish
/// with its workflow, the workflow once generated, and its cost model on
/// each platform, by platform axis position, once built.
struct Live<'a> {
    uses: usize,
    workflow: Option<Arc<Workflow>>,
    models: Vec<Option<Arc<CostModel<'a>>>>,
}

impl<'a> Workflows<'a> {
    fn new(run: &'a Resolved<'a>, pending: &[SweepCell]) -> Workflows<'a> {
        let mut live: HashMap<(usize, u64), Live<'a>> = HashMap::new();
        for cell in pending {
            live.entry((run.axes(cell)[0], cell.seed))
                .or_insert_with(|| Live {
                    uses: 0,
                    workflow: None,
                    models: vec![None; run.spec.platforms.len()],
                })
                .uses += 1;
        }
        Workflows {
            run,
            live: Mutex::new(live),
            generated: AtomicUsize::new(0),
            modeled: AtomicUsize::new(0),
        }
    }

    /// Runs `f` on the workflow of `cell`, one of the pending cells this
    /// set was built from, and on its cost model on the cell's platform,
    /// building either if no other cell has.
    fn with<R>(
        &self,
        cell: &SweepCell,
        f: impl FnOnce(&Workflow, &CostModel<'_>) -> Result<R, EngineError>,
    ) -> Result<R, EngineError> {
        let [family, platform, _] = self.run.axes(cell);
        let key = (family, cell.seed);
        let lock = || self.live.lock().expect("no poisoned workflow lock");
        let shared = || {
            let mut live = lock();
            let pair = live.get_mut(&key).expect("a pending cell's pair is live");
            let wf = cached(&mut pair.workflow, &self.generated, || {
                Ok(self.run.classes[family].generate(self.run.spec.tasks, cell.seed)?)
            })?;
            let model = cached(&mut pair.models[platform], &self.modeled, || {
                Ok(CostModel::new(&wf, self.run.platform(cell))?)
            })?;
            Ok((wf, model))
        };
        let result = shared().and_then(|(wf, model)| f(&wf, &model));
        let mut live = lock();
        let pair = live.get_mut(&key).expect("a pending cell's pair is live");
        pair.uses -= 1;
        if pair.uses == 0 {
            live.remove(&key);
        }
        result
    }
}

/// The value in `slot`, built and counted in `built` first if there is
/// none. A failed build leaves the slot empty.
fn cached<T>(
    slot: &mut Option<Arc<T>>,
    built: &AtomicUsize,
    build: impl FnOnce() -> Result<T, EngineError>,
) -> Result<Arc<T>, EngineError> {
    if let Some(value) = slot {
        return Ok(Arc::clone(value));
    }
    let value = Arc::new(build()?);
    built.fetch_add(1, Ordering::Relaxed);
    Ok(Arc::clone(slot.insert(value)))
}

/// Where the sweep loop keeps finished cells. `salvage` runs once,
/// before any cell, and quarantined cells get `append` right after it;
/// `expect_attempts` then says how many cells may start. Every cell
/// gets `attempt` before it executes and `append` after it finishes,
/// each under the loop's lock; `flush` runs once at the end, also when
/// the run failed. Every step defaults to a no-op: the sink of
/// [`SweepDriver::run_shard`], which keeps finished cells only in the
/// returned report.
trait CellSink: Send {
    /// Opens the sink for a run of `expected`'s campaign and shard, and
    /// returns what a previous run left in it, checked by
    /// [`check_prior`].
    fn salvage(&mut self, _expected: &ShardReport) -> Result<Salvaged, EngineError> {
        Ok(Salvaged::default())
    }

    /// Hears that up to `cells` cells will get `attempt` from now on.
    fn expect_attempts(&mut self, _cells: usize) {}

    /// Durably records that global cell `cell` is about to execute.
    fn attempt(&mut self, _cell: usize) -> Result<(), EngineError> {
        Ok(())
    }

    /// Records a finished (or quarantined) cell.
    fn append(&mut self, _result: &CellResult) -> Result<(), EngineError> {
        Ok(())
    }

    /// Makes every appended cell durable.
    fn flush(&mut self) -> Result<(), EngineError> {
        Ok(())
    }
}

/// What a sink already holds when a run starts.
#[derive(Debug, Default)]
struct Salvaged {
    /// The completed cells a previous run left, sorted by index; empty
    /// for a fresh sink.
    cells: Vec<CellResult>,
    /// Cells whose attempt records reached the poison limit with no
    /// completion, sorted.
    crash_looped: Vec<usize>,
    /// Torn-tail bytes truncated during salvage.
    dropped_bytes: u64,
}

/// The in-memory sink: nothing to salvage, and finished cells live only
/// in the returned report.
struct MemorySink;

impl CellSink for MemorySink {}

/// The write-ahead journal sink: an attempt record before each cell
/// and a completion record after, one fsync per cell. A completion is
/// staged while some pending cell has yet to be attempted and no drain
/// is requested: a worker is then about to start a cell, and that
/// cell's attempt record makes it durable. Otherwise it is written
/// through at once, and `flush` writes whatever a failed or drained run
/// left staged. It owns the journal-only hooks: the synthetic crash,
/// the torn write and the poison limit.
struct JournalSink<'a> {
    path: &'a Path,
    writer: Option<JournalWriter>,
    crash_cell: Option<usize>,
    tear_after: Option<u64>,
    poison_limit: u32,
    /// The run's drain flag.
    cancel: Option<&'a AtomicBool>,
    /// Cells that may still start but have no attempt record yet.
    unattempted: usize,
}

impl JournalSink<'_> {
    fn writer(&mut self) -> &mut JournalWriter {
        self.writer.as_mut().expect("salvage opens the journal")
    }
}

impl CellSink for JournalSink<'_> {
    fn salvage(&mut self, expected: &ShardReport) -> Result<Salvaged, EngineError> {
        if !has_bytes(self.path) {
            let header = JournalHeader {
                spec_name: expected.spec_name.clone(),
                spec_digest: expected.spec_digest.clone(),
                total_cells: expected.total_cells,
                shard_index: expected.shard_index,
                shard_count: expected.shard_count,
            };
            self.writer = Some(JournalWriter::create(self.path, &header, self.tear_after)?);
            return Ok(Salvaged::default());
        }
        let salvage = journal::recover_journal(self.path)?;
        let crash_looped = salvage
            .pending_attempts()
            .into_iter()
            .filter(|&(_, attempts)| attempts >= self.poison_limit)
            .map(|(cell, _)| cell)
            .collect();
        let dropped_bytes = salvage.dropped_bytes;
        let cells = check_prior(salvage.to_shard_report(), expected, journal::FORMAT.noun)?;
        self.writer = Some(JournalWriter::open_append(self.path, self.tear_after)?);
        Ok(Salvaged {
            cells,
            crash_looped,
            dropped_bytes,
        })
    }

    fn expect_attempts(&mut self, cells: usize) {
        self.unattempted = cells;
    }

    fn attempt(&mut self, cell: usize) -> Result<(), EngineError> {
        self.unattempted -= 1;
        self.writer().append_attempt(cell)?;
        if self.crash_cell == Some(cell) {
            return Err(EngineError::Config(format!(
                "injected crash while executing cell {cell}"
            )));
        }
        Ok(())
    }

    fn append(&mut self, result: &CellResult) -> Result<(), EngineError> {
        let draining = self.cancel.is_some_and(|c| c.load(Ordering::Relaxed));
        if self.unattempted > 0 && !draining {
            self.writer().stage_cell(result)
        } else {
            self.writer().append_cell(result)
        }
    }

    fn flush(&mut self) -> Result<(), EngineError> {
        self.writer().flush()
    }
}

/// The columnar store sink: finished cells are buffered into row groups,
/// each group checksummed and fsync'd as it fills and on `flush`.
struct StoreSink<'a> {
    path: &'a Path,
    writer: Option<StoreWriter>,
}

impl StoreSink<'_> {
    fn writer(&mut self) -> &mut StoreWriter {
        self.writer.as_mut().expect("salvage opens the store")
    }
}

impl CellSink for StoreSink<'_> {
    fn salvage(&mut self, expected: &ShardReport) -> Result<Salvaged, EngineError> {
        if !has_bytes(self.path) {
            let header = StoreHeader {
                spec_name: expected.spec_name.clone(),
                spec_digest: expected.spec_digest.clone(),
                total_cells: expected.total_cells,
                shard_index: expected.shard_index,
                shard_count: expected.shard_count,
                columns: crate::store::schema_names(),
            };
            self.writer = Some(StoreWriter::create(self.path, &header)?);
            return Ok(Salvaged::default());
        }
        let salvage = crate::store::recover_store(self.path)?;
        let dropped_bytes = salvage.dropped_bytes;
        let cells = check_prior(salvage.to_shard_report(), expected, segment::FORMAT.noun)?;
        self.writer = Some(StoreWriter::open_append(self.path)?);
        Ok(Salvaged {
            cells,
            crash_looped: Vec::new(),
            dropped_bytes,
        })
    }

    fn append(&mut self, result: &CellResult) -> Result<(), EngineError> {
        self.writer().append_cell(result)
    }

    fn flush(&mut self) -> Result<(), EngineError> {
        self.writer().flush()
    }
}

/// Whether `path` names a file with at least one byte: an absent or
/// empty file starts a fresh sink.
fn has_bytes(path: &Path) -> bool {
    std::fs::metadata(path).is_ok_and(|m| m.len() > 0)
}

/// Refuses what a durable file holds when it belongs to a different
/// campaign or shard geometry than `expected`, or claims a cell that
/// shard does not own; otherwise returns its cells (sorted and listed
/// once each, as every salvage yields them). The messages name the file
/// by its `noun` (`journal` or `store`), which is also its CLI flag.
fn check_prior(
    prior: ShardReport,
    expected: &ShardReport,
    noun: &str,
) -> Result<Vec<CellResult>, EngineError> {
    let shard = ShardSpec {
        index: expected.shard_index,
        count: expected.shard_count,
    };
    let refuse = |msg: String| Err(CampaignError::ResumeMismatch(msg).into());
    if prior.spec_name != expected.spec_name
        || prior.spec_digest != expected.spec_digest
        || prior.total_cells != expected.total_cells
    {
        return refuse(format!(
            "refusing to resume: the existing {noun} is from a different campaign \
             (spec {:?}, digest {}, {} cells) than this spec ({:?}, digest {}, {} \
             cells); delete the file or point --{noun} elsewhere",
            prior.spec_name,
            prior.spec_digest,
            prior.total_cells,
            expected.spec_name,
            expected.spec_digest,
            expected.total_cells
        ));
    }
    if prior.shard_index != shard.index() || prior.shard_count != shard.count() {
        return refuse(format!(
            "refusing to resume: the existing {noun} is shard {}/{}, but this run \
             is shard {shard}; re-run with --shard {}/{} or start fresh",
            prior.shard_index, prior.shard_count, prior.shard_index, prior.shard_count
        ));
    }
    let total_cells = expected.total_cells;
    if let Some(bad) = prior
        .cells
        .iter()
        .find(|c| !shard.owns(c.cell) || c.cell >= total_cells)
    {
        return refuse(format!(
            "refusing to resume: the {noun} claims cell {}, which shard \
             {shard} of this {total_cells}-cell grid does not own",
            bad.cell
        ));
    }
    Ok(prior.cells)
}

/// The quarantine measurement for a cell that repeatedly killed the
/// process: zero metrics, `completed = false`, the pinned `poisoned`
/// reason.
fn poisoned_result(cell: &SweepCell) -> CellResult {
    let mut result = blank_result(cell);
    result.completed = false;
    result.incomplete_reason = Some(IncompleteReason::Poisoned.as_str().to_owned());
    result
}

/// Knobs for the durable entry points: the cap and drain flag both
/// sinks honour, plus the journal's crash-injection hooks. Hooks are
/// explicit fields (not environment variables) so parallel tests cannot
/// race on process state; the CLI translates its `HELIOS_*` variables
/// into these. The one variable the driver reads itself,
/// `HELIOS_CELL_STEP_BUDGET`, is an override of the spec's
/// `cell_step_budget`, read and checked once per run, before anything
/// is written.
#[derive(Debug, Default)]
pub struct SweepOptions<'a> {
    /// Cap on cells *executed* by this invocation (the
    /// `HELIOS_SWEEP_ABORT_AFTER` crash-injection hook).
    pub limit: Option<usize>,
    /// Cooperative drain: once set, in-flight cells finish and are
    /// appended, no new cells start ([`SweepOutcome::drained`] reports
    /// the cut). The CLI arms this from SIGINT/SIGTERM.
    pub cancel: Option<&'a AtomicBool>,
    /// Journal only. Synthetic crash: error out right after durably
    /// appending the attempt record for this global cell index — the
    /// repeatable "this cell kills the process" poisoning scenario.
    pub crash_cell: Option<usize>,
    /// Journal only. Torn-write injection: the Nth record append
    /// (0-based, attempts and completions counted together, staged or
    /// not) persists the records staged before it whole and only half
    /// its own bytes, and fails (the `HELIOS_JOURNAL_TORN_WRITE` hook).
    pub tear_after: Option<u64>,
    /// Journal only. Attempts without completion before a cell is
    /// quarantined; `None` means [`DEFAULT_POISON_LIMIT`].
    pub poison_limit: Option<u32>,
}

/// [`SweepOptions`] by the name journal callers use.
pub type JournalOptions<'a> = SweepOptions<'a>;

/// What one durable sweep invocation did: the compiled report plus the
/// salvage, quarantine and drain accounting that
/// [`run_journal`](SweepDriver::run_journal) and
/// [`run_store`](SweepDriver::run_store) return.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// The shard report after this invocation (partial iff
    /// `remaining > 0` or `drained`).
    pub report: ShardReport,
    /// Cells taken over instead of re-run: salvaged cells plus freshly
    /// quarantined ones.
    pub skipped: usize,
    /// Owned cells still missing (a `limit` or drain cut the run).
    pub remaining: usize,
    /// Completed cells salvaged from the existing file.
    pub salvaged_cells: usize,
    /// Torn-tail bytes truncated during salvage.
    pub dropped_bytes: u64,
    /// Cells quarantined as poisoned by *this* invocation, sorted
    /// (journal only; empty for the store).
    pub poisoned: Vec<usize>,
    /// Whether a drain request cut the run short.
    pub drained: bool,
    /// Workflows this invocation generated: one per (family, seed) pair
    /// of the cells it ran, since those cells share it.
    pub workflows_generated: usize,
}

/// Executes one grid cell on its (family, seed) workflow and the cost
/// model of its group: plan, apply the DVFS knob, run. Everything else
/// the cell needs was built once for the run.
fn run_cell(
    run: &Resolved<'_>,
    cell: &SweepCell,
    wf: &Workflow,
    model: &CostModel<'_>,
) -> Result<CellResult, EngineError> {
    let platform = model.platform();
    let config = EngineConfig {
        seed: cell.seed,
        ..run.config.clone()
    };

    let mut result = blank_result(cell);

    // Planning and execution share one error funnel: an infeasible
    // family × platform pairing fails in `schedule`, everything else in
    // the runner, and both must become measurements when classifiable.
    let outcome = run
        .scheduler(cell)
        .schedule_with(wf, model)
        .map_err(EngineError::from)
        .and_then(|plan| apply_dvfs(run.spec.dvfs, platform, plan))
        .and_then(|plan| {
            if run.resilient {
                ResilientRunner::new(config).execute_plan_with(model, wf, &plan)
            } else {
                Engine::new(config).execute_plan(platform, wf, &plan)
            }
        });
    let report = match outcome {
        Ok(report) => report,
        // A lost, stalled or never-placeable workload is a measurement,
        // not a driver error: the cell records completed = false, zero
        // metrics and why it stopped, and its failure depresses the
        // row's completion probability. All paths classify through
        // [`IncompleteReason`], the one normalized vocabulary — no
        // runner gets to invent its own reason strings.
        Err(e) => match IncompleteReason::from_error(&e) {
            Some(reason) => {
                result.completed = false;
                result.incomplete_reason = Some(reason.as_str().to_owned());
                return Ok(result);
            }
            None => return Err(e),
        },
    };

    result.makespan_secs = report.makespan().as_secs();
    result.slr = model.slr(wf, report.makespan())?;
    result.energy_j = report.energy().total_j();
    result.transfers = report.transfers().count;
    result.transfer_bytes = report.transfers().bytes;
    result.failures = report.failures();
    result.retries = report.retries();
    if let Some(m) = report.resilience() {
        result.wasted_work_secs = m.wasted_work_secs;
        result.recovery_overhead_secs = m.recovery_overhead_secs;
        result.makespan_degradation = m.makespan_degradation;
        result.reroutes = m.reroutes;
        result.partition_downtime_secs = m.partition_downtime_secs;
        result.rematerialized_tasks = m.rematerialized_tasks;
        result.rematerialized_bytes = m.rematerialized_bytes;
    }
    if let Some(m) = report.elasticity() {
        result.capacity_secs = m.capacity_secs;
        result.preemptions = m.preemptions;
        result.drain_migrated_tasks = m.drain_migrated_tasks;
        result.join_utilization = m.join_utilization;
    }
    Ok(result)
}

/// A zero-metric result carrying only the cell's coordinates: the
/// starting point of [`run_cell`] and the body of quarantine records.
fn blank_result(cell: &SweepCell) -> CellResult {
    CellResult {
        cell: cell.index,
        family: cell.family.clone(),
        platform: cell.platform.clone(),
        scheduler: cell.scheduler.clone(),
        seed: cell.seed,
        completed: true,
        ..CellResult::default()
    }
}

/// The `HELIOS_CELL_STEP_BUDGET` environment variable, when set: an
/// operational override of the spec's `cell_step_budget` for stuck
/// campaigns, held to [`EngineConfig::STEP_BUDGET`]. Read once per run,
/// before anything is written.
fn step_budget_override() -> Result<Option<u64>, EngineError> {
    const VAR: &str = "HELIOS_CELL_STEP_BUDGET";
    match std::env::var(VAR) {
        Ok(v) if !v.trim().is_empty() => {
            let budget = v.trim().parse::<u64>();
            let budget = budget.map_err(|_| format!("{VAR} must be an integer, got {v:?}"))?;
            EngineConfig::STEP_BUDGET.check(VAR, budget)?;
            Ok(Some(budget))
        }
        _ => Ok(None),
    }
}

/// Rewrites plan placements to the knob's DVFS level. The engine
/// re-derives timing from device order and levels, so the stale
/// start/finish times in the rewritten plan are harmless.
fn apply_dvfs(
    knob: DvfsKnob,
    platform: &Platform,
    plan: Schedule,
) -> Result<Schedule, EngineError> {
    if knob == DvfsKnob::Nominal {
        return Ok(plan);
    }
    let placements = plan
        .placements()
        .iter()
        .map(|p| {
            let device = platform.device(p.device)?;
            let level = match knob {
                DvfsKnob::Powersave => device.min_level(),
                DvfsKnob::Performance | DvfsKnob::Nominal => device.nominal_level(),
            };
            Ok(Placement { level, ..*p })
        })
        .collect::<Result<Vec<Placement>, EngineError>>()?;
    Ok(Schedule::new(placements)?)
}

/// Recombines shard result files into the aggregate sweep report.
///
/// Accepts the shards in any order; the output depends only on the
/// cell set, so merging `[1/2, 2/2]` equals merging `[2/2, 1/2]`
/// equals the unsharded run, byte for byte.
///
/// Each cell is placed, by reference, in the slot for its index: a
/// complete partition fills each of the `total_cells` slots exactly
/// once, so the merged cells come out in index order with no sort, and
/// each is cloned once, into a `Vec` of exactly the grid's size, only
/// after the checks pass. Any conflict falls back to sorting the cell
/// indices, which names the lowest offending cell.
///
/// # Errors
///
/// Returns [`CampaignError::MergeConflict`] (wrapped in
/// [`EngineError::Campaign`]) when
///
/// * no shards are given,
/// * shards come from different specs (name/digest/size mismatch),
/// * two shards claim the same cell (overlap), or
/// * the union does not cover the grid (gap), e.g. a missing shard.
pub fn merge_shards(shards: &[ShardReport]) -> Result<SweepReport, EngineError> {
    let first = shards.first().ok_or_else(|| {
        EngineError::Campaign(CampaignError::MergeConflict(
            "cannot merge zero shard reports; pass at least one --in file".into(),
        ))
    })?;
    for s in shards {
        if s.spec_name != first.spec_name
            || s.spec_digest != first.spec_digest
            || s.total_cells != first.total_cells
        {
            return Err(CampaignError::MergeConflict(format!(
                "shard reports disagree on the spec: {:?} (digest {}, {} cells) vs \
                 {:?} (digest {}, {} cells) — merge only shards of one campaign run",
                first.spec_name,
                first.spec_digest,
                first.total_cells,
                s.spec_name,
                s.spec_digest,
                s.total_cells
            ))
            .into());
        }
    }

    let total = first.total_cells;
    let Some(slots) = place_by_index(shards, total) else {
        return Err(partition_conflict(shards, total));
    };
    // Every slot is filled, so `flatten` drops nothing.
    let mut cells = Vec::with_capacity(total);
    cells.extend(slots.into_iter().flatten().cloned());

    // Means per (family, platform, scheduler) over completed cells, rows
    // in declaration order (the cells are sorted by index).
    let summary = crate::store::summarize_cells(&cells);
    Ok(SweepReport {
        spec_name: first.spec_name.clone(),
        spec_digest: first.spec_digest.clone(),
        total_cells: total,
        cells,
        summary,
    })
}

/// Each cell of `shards` in the slot for its index, or `None` unless
/// the cells are exactly one partition of `0..total`: as many cells as
/// slots, each in range and no slot filled twice, which leaves no slot
/// empty.
fn place_by_index(shards: &[ShardReport], total: usize) -> Option<Vec<Option<&CellResult>>> {
    if shards.iter().map(|s| s.cells.len()).sum::<usize>() != total {
        return None;
    }
    let mut slots = vec![None; total];
    for cell in shards.iter().flat_map(|s| &s.cells) {
        if slots.get_mut(cell.cell)?.replace(cell).is_some() {
            return None;
        }
    }
    Some(slots)
}

/// Why the cells of `shards` are not one partition of the `total`-cell
/// grid, checked in order over the sorted cell indices: the lowest
/// index that appears twice, else the lowest out of range, else the
/// first missing ones.
fn partition_conflict(shards: &[ShardReport], total: usize) -> EngineError {
    let mut have: Vec<usize> = shards
        .iter()
        .flat_map(|s| &s.cells)
        .map(|c| c.cell)
        .collect();
    have.sort_unstable();
    let twice = have
        .windows(2)
        .find(|pair| pair[0] == pair[1])
        .map(|pair| pair[0]);
    let detail = if let Some(cell) = twice {
        format!("overlapping shards: cell {cell} appears more than once")
    } else if let Some(out_of_range) = have.iter().find(|&&i| i >= total) {
        format!("shard cell index {out_of_range} is outside the {total}-cell grid")
    } else {
        let missing: Vec<usize> = (0..total)
            .filter(|i| have.binary_search(i).is_err())
            .take(8)
            .collect();
        format!(
            "incomplete partition: {} of {total} cells present, missing cells {missing:?}{} — \
             merge every shard of the partition",
            have.len(),
            if total - have.len() > missing.len() {
                "…"
            } else {
                ""
            }
        )
    };
    CampaignError::MergeConflict(detail).into()
}

/// The sort-based merge [`merge_shards`] replaced: clone every cell,
/// stable-sort by index, then check. Kept as the oracle the
/// index-placing merge is checked against.
#[cfg(test)]
mod reference {
    use super::{CampaignError, CellResult, EngineError, ShardReport, SweepReport};

    pub(super) fn merge_shards(shards: &[ShardReport]) -> Result<SweepReport, EngineError> {
        let first = shards.first().ok_or_else(|| {
            EngineError::Campaign(CampaignError::MergeConflict(
                "cannot merge zero shard reports; pass at least one --in file".into(),
            ))
        })?;
        for s in shards {
            if s.spec_name != first.spec_name
                || s.spec_digest != first.spec_digest
                || s.total_cells != first.total_cells
            {
                return Err(CampaignError::MergeConflict(format!(
                    "shard reports disagree on the spec: {:?} (digest {}, {} cells) vs \
                     {:?} (digest {}, {} cells) — merge only shards of one campaign run",
                    first.spec_name,
                    first.spec_digest,
                    first.total_cells,
                    s.spec_name,
                    s.spec_digest,
                    s.total_cells
                ))
                .into());
            }
        }

        let mut cells: Vec<CellResult> = shards.iter().flat_map(|s| s.cells.clone()).collect();
        cells.sort_by_key(|c| c.cell);
        for pair in cells.windows(2) {
            if pair[0].cell == pair[1].cell {
                return Err(CampaignError::MergeConflict(format!(
                    "overlapping shards: cell {} appears more than once",
                    pair[0].cell
                ))
                .into());
            }
        }
        if let Some(out_of_range) = cells.iter().find(|c| c.cell >= first.total_cells) {
            return Err(CampaignError::MergeConflict(format!(
                "shard cell index {} is outside the {}-cell grid",
                out_of_range.cell, first.total_cells
            ))
            .into());
        }
        if cells.len() != first.total_cells {
            let have: Vec<usize> = cells.iter().map(|c| c.cell).collect();
            let missing: Vec<usize> = (0..first.total_cells)
                .filter(|i| have.binary_search(i).is_err())
                .take(8)
                .collect();
            return Err(CampaignError::MergeConflict(format!(
                "incomplete partition: {} of {} cells present, missing cells {missing:?}{} — \
                 merge every shard of the partition",
                cells.len(),
                first.total_cells,
                if first.total_cells - cells.len() > missing.len() {
                    "…"
                } else {
                    ""
                }
            ))
            .into());
        }

        // Means per (family, platform, scheduler) over completed cells, rows
        // in declaration order (the cells are sorted by index).
        let summary = crate::store::summarize_cells(&cells);
        Ok(SweepReport {
            spec_name: first.spec_name.clone(),
            spec_digest: first.spec_digest.clone(),
            total_cells: first.total_cells,
            cells,
            summary,
        })
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Fetches the workflow and cost model of every cell of an `n`-shard
    /// partition of `spec` the way `drive` does, one shard after another
    /// with `jobs` workers, without running the cells. Returns the
    /// workflows generated, with one worker the most resident at once,
    /// and the cost models built.
    fn generation_profile(spec: &CampaignSpec, n: usize, jobs: usize) -> (usize, usize, usize) {
        let (mut generated, mut peak, mut modeled) = (0, 0, 0);
        for k in 1..=n {
            let shard = ShardSpec::new(k, n).unwrap();
            let run = spec.resolve().unwrap();
            let mut pending = run.cells();
            pending.retain(|c| shard.owns(c.index));
            let workflows = Workflows::new(&run, &pending);
            let engine = CampaignEngine::new(jobs);
            let resident = || {
                let live = workflows.live.lock().unwrap();
                live.values().filter(|l| l.workflow.is_some()).count()
            };
            let (done, _) = engine
                .run_partial(&pending, None, |_, cell| {
                    workflows.with(cell, |_, _| Ok(if jobs == 1 { resident() } else { 0 }))
                })
                .unwrap();
            assert_eq!(done.len(), pending.len());
            peak = done.into_iter().fold(peak, usize::max);
            assert!(
                workflows.live.lock().unwrap().is_empty(),
                "every pair released"
            );
            generated += workflows.generated.into_inner();
            modeled += workflows.modeled.into_inner();
        }
        (generated, peak, modeled)
    }

    #[test]
    fn each_family_seed_pair_is_generated_once_per_run() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
        let json = std::fs::read_to_string(dir.join("paper_grid.json")).unwrap();
        let grid = CampaignSpec::from_json(&json).unwrap();
        // 1200 cells of 25 (family, seed) pairs. A stride of 35 keeps one
        // seed per shard, so each of the 35 shards generates its 5
        // families' workflows one after another; unsharded, the 5 seeds
        // of a family interleave.
        assert_eq!(generation_profile(&grid, 35, 1), (175, 1, 700));
        assert_eq!(generation_profile(&grid, 1, 1), (25, 5, 100));
        assert_eq!(generation_profile(&grid, 35, 2).0, 175);
        assert_eq!(generation_profile(&grid, 1, 2).0, 25);

        // The resilient benchmark's shape: 96 cells in 48 shards of 2,
        // whose two cells never share a pair, so every cell generates
        // its own and drops it right after.
        let resilient = CampaignSpec::from_json(
            r#"{
                "name": "two-cell-shards",
                "families": ["montage", "ligo", "epigenomics", "sipht"],
                "platforms": ["workstation", "hpc_node"],
                "schedulers": ["heft", "round-robin", "olb"],
                "seeds": {"base": 0, "count": 4},
                "tasks": 40
            }"#,
        )
        .unwrap();
        assert_eq!(generation_profile(&resilient, 48, 1), (96, 1, 96));
        assert_eq!(generation_profile(&resilient, 48, 2).0, 96);
    }

    #[test]
    fn each_cell_group_builds_one_cost_model_per_run() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
        let json = std::fs::read_to_string(dir.join("paper_grid.json")).unwrap();
        let grid = CampaignSpec::from_json(&json).unwrap();
        // 1200 cells in 100 (family, seed, platform) groups of 12
        // schedulers. Unsharded, each group builds its model once, with
        // any number of workers. A stride of 3 spreads every group's 12
        // cells over all 3 shards, so each shard builds all 100. (The
        // benchmark's stride of 35 puts 1 or 2 of a group's cells in a
        // shard: 700 models, pinned above.)
        for jobs in [1, 3] {
            assert_eq!(generation_profile(&grid, 1, jobs).2, 100, "--jobs {jobs}");
            assert_eq!(generation_profile(&grid, 3, jobs).2, 300, "--jobs {jobs}");
        }
    }

    #[test]
    fn the_driver_reports_one_generation_per_pair_it_ran() {
        let spec = CampaignSpec::from_json(
            r#"{
                "name": "reuse",
                "families": ["montage", "sipht"],
                "platforms": ["workstation", "hpc_node"],
                "schedulers": ["heft", "olb"],
                "seeds": {"base": 3, "count": 2},
                "tasks": 20
            }"#,
        )
        .unwrap();
        for jobs in [1, 2] {
            let driver = SweepDriver::new(jobs);
            let run = |limit| {
                let opts = SweepOptions {
                    limit,
                    ..SweepOptions::default()
                };
                driver.drive(&spec, ShardSpec::full(), MemorySink, &opts)
            };
            assert_eq!(run(None).unwrap().workflows_generated, 4);
            // The first 3 cells are montage on the workstation with heft
            // (seeds 3, 4) and olb (seed 3): two pairs.
            assert_eq!(run(Some(3)).unwrap().workflows_generated, 2);
        }
    }

    #[test]
    fn generation_errors_are_not_kept() {
        // Validation refuses `tasks` below a family's minimum, so the
        // spec is built unvalidated, and the run resolved from a copy with
        // a legal count is pointed at it, to reach the generator's own
        // refusal.
        let spec: CampaignSpec = serde_json::from_str(
            r#"{
                "name": "too-small",
                "families": ["montage"],
                "platforms": ["workstation"],
                "schedulers": ["heft", "olb"],
                "seeds": {"base": 0, "count": 1},
                "tasks": 5
            }"#,
        )
        .unwrap();
        let pending: Vec<SweepCell> = spec
            .schedulers
            .iter()
            .enumerate()
            .map(|(index, scheduler)| SweepCell {
                index,
                family: "montage".into(),
                platform: "workstation".into(),
                scheduler: scheduler.clone(),
                seed: 0,
            })
            .collect();
        let legal = CampaignSpec {
            tasks: 11,
            ..spec.clone()
        };
        let mut run = legal.resolve().unwrap();
        run.spec = &spec;
        let workflows = Workflows::new(&run, &pending);
        let errors: Vec<String> = pending
            .iter()
            .map(|cell| {
                workflows
                    .with(cell, |_, _| Ok(()))
                    .expect_err("montage needs 11 tasks")
                    .to_string()
            })
            .collect();
        assert_eq!(errors.len(), 2);
        assert_eq!(errors[0], errors[1]);
        assert!(
            errors[0].contains("montage: `tasks` must be in [11, 100000], got 5"),
            "{}",
            errors[0]
        );
        assert_eq!(workflows.generated.into_inner(), 0);
        let err = SweepDriver::new(1).run(&spec).unwrap_err().to_string();
        assert!(
            err.contains("montage: `tasks` must be in [11, 100000]"),
            "{err}"
        );
    }

    #[test]
    fn shard_spec_parses_and_strides() {
        let s = ShardSpec::parse("2/4").unwrap();
        assert_eq!((s.index(), s.count()), (2, 4));
        assert_eq!(s.to_string(), "2/4");
        assert!(s.owns(1) && s.owns(5) && !s.owns(0) && !s.owns(2));
        assert!(ShardSpec::full().owns(0) && ShardSpec::full().owns(123));
        for bad in ["0/4", "5/4", "x/y", "3", "1/0", "/", "2/"] {
            assert!(ShardSpec::parse(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn every_partition_covers_every_cell_exactly_once() {
        for n in 1..=5usize {
            for cell in 0..23usize {
                let owners = (1..=n)
                    .filter(|&k| ShardSpec::new(k, n).unwrap().owns(cell))
                    .count();
                assert_eq!(owners, 1, "cell {cell} with {n} shards");
            }
        }
    }

    #[test]
    fn merge_rejects_bad_partitions() {
        let shard = |index: usize, count: usize, cells: Vec<usize>| ShardReport {
            spec_name: "t".into(),
            spec_digest: "d".into(),
            total_cells: 4,
            shard_index: index,
            shard_count: count,
            cells: cells
                .into_iter()
                .map(|i| CellResult {
                    cell: i,
                    family: "montage".into(),
                    platform: "workstation".into(),
                    scheduler: "heft".into(),
                    seed: i as u64,
                    makespan_secs: 1.0,
                    slr: 1.0,
                    energy_j: 1.0,
                    transfers: 0,
                    transfer_bytes: 0.0,
                    failures: 0,
                    retries: 0,
                    completed: true,
                    wasted_work_secs: 0.0,
                    recovery_overhead_secs: 0.0,
                    makespan_degradation: 0.0,
                    reroutes: 0,
                    partition_downtime_secs: 0.0,
                    rematerialized_tasks: 0,
                    rematerialized_bytes: 0.0,
                    incomplete_reason: None,
                    capacity_secs: 0.0,
                    preemptions: 0,
                    drain_migrated_tasks: 0,
                    join_utilization: 0.0,
                })
                .collect(),
        };

        let err = merge_shards(&[]).unwrap_err().to_string();
        assert!(err.contains("zero shard"), "{err}");

        let err = merge_shards(&[shard(1, 2, vec![0, 2]), shard(1, 2, vec![0, 2])])
            .unwrap_err()
            .to_string();
        assert!(err.contains("overlapping"), "{err}");

        let err = merge_shards(&[shard(1, 2, vec![0, 2])])
            .unwrap_err()
            .to_string();
        assert!(err.contains("missing cells [1, 3]"), "{err}");

        let mut other = shard(2, 2, vec![1, 3]);
        other.spec_digest = "different".into();
        let err = merge_shards(&[shard(1, 2, vec![0, 2]), other])
            .unwrap_err()
            .to_string();
        assert!(err.contains("disagree"), "{err}");

        let err = merge_shards(&[shard(1, 1, vec![0, 1, 2, 7])])
            .unwrap_err()
            .to_string();
        assert!(err.contains("outside"), "{err}");

        let ok = merge_shards(&[shard(2, 2, vec![1, 3]), shard(1, 2, vec![0, 2])]).unwrap();
        assert_eq!(ok.cells.len(), 4);
        assert_eq!(ok.summary.len(), 1);
        assert_eq!(ok.summary[0].cells, 4);
        assert_eq!(ok.summary[0].completion_probability, 1.0);
    }

    /// Cell `i` with metrics and grid axes drawn from `salt`, so merged
    /// summaries hold several rows and a duplicate can differ.
    fn varied_cell(i: usize, salt: u64) -> CellResult {
        let x = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
        CellResult {
            cell: i,
            family: ["montage", "ligo"][(x % 2) as usize].into(),
            platform: "workstation".into(),
            scheduler: ["heft", "olb", "random"][(x / 2 % 3) as usize].into(),
            seed: x % 5,
            makespan_secs: (x % 1000) as f64 / 8.0,
            slr: 1.0 + (x % 7) as f64,
            completed: !x.is_multiple_of(4),
            incomplete_reason: x.is_multiple_of(4).then(|| "retries_exhausted".into()),
            ..CellResult::default()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The index-placing merge returns what the sort-based reference
        /// returns on random partitions of `0..total` into `k` shards,
        /// shuffled or not, with one fault applied: a report that
        /// serializes to the same bytes, or the same error message.
        #[test]
        fn merge_matches_the_sort_reference(
            total in 0usize..40,
            k in 1usize..5,
            owners in prop::collection::vec(0usize..4, 40..41),
            shuffle: bool,
            salt: u64,
            fault in 0usize..9,
            a: usize,
        ) {
            let mut shards: Vec<ShardReport> = (1..=k)
                .map(|index| ShardReport {
                    spec_name: "t".into(),
                    spec_digest: "d".into(),
                    total_cells: total,
                    shard_index: index,
                    shard_count: k,
                    cells: Vec::new(),
                })
                .collect();
            for i in 0..total {
                shards[owners[i] % k].cells.push(varied_cell(i, salt));
            }
            if shuffle {
                let mut x = salt | 1;
                for shard in &mut shards {
                    for at in (1..shard.cells.len()).rev() {
                        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        shard.cells.swap(at, (x >> 33) as usize % (at + 1));
                    }
                }
            }
            let pick = a % k;
            let len = shards[pick].cells.len();
            match fault {
                // A cell repeated, with other values, in some shard.
                1 if total > 0 => {
                    let twin = varied_cell(a % total, !salt);
                    shards[a / 7 % k].cells.push(twin);
                }
                // An index at or above `total_cells`, added or replacing.
                2 => shards[pick].cells.push(varied_cell(total + a % 3, salt)),
                3 if len > 0 => shards[pick].cells[a % len].cell = total + a % 3,
                // A missing cell.
                4 if len > 0 => {
                    shards[pick].cells.remove(a % len);
                }
                // A cell moved onto another's index: the count still
                // matches, one index is doubled and one missing.
                5 if len > 0 && total > 1 => {
                    let at = a % len;
                    let cell = shards[pick].cells[at].cell;
                    shards[pick].cells[at].cell = (cell + 1 + a % (total - 1)) % total;
                }
                // Shards of another spec, or of another grid size.
                6 => shards[pick].spec_digest = "other".into(),
                7 => shards[pick].total_cells += 1,
                8 => shards.clear(),
                _ => {}
            }
            let run = |merged: Result<SweepReport, EngineError>| {
                merged
                    .map(|r| serde_json::to_string(&r).unwrap())
                    .map_err(|e| e.to_string())
            };
            prop_assert_eq!(
                run(merge_shards(&shards)),
                run(reference::merge_shards(&shards))
            );
        }
    }

    fn spec_json(extra: &str) -> String {
        format!(
            r#"{{
                "name": "t8",
                "families": ["montage"],
                "platforms": ["workstation"],
                "schedulers": ["heft"],
                "seeds": {{"base": 0, "count": 4}},
                "tasks": 30,
                "noise_cv": 0.1{extra}
            }}"#
        )
    }

    fn resilient_spec(policy: &str) -> CampaignSpec {
        CampaignSpec::from_json(&spec_json(&format!(
            r#", "resilience": {{
                "mttf_secs": 0.02,
                "degraded_prob": 0.1,
                "degraded_repair_secs": 0.01,
                "restart_overhead_secs": 0.0005,
                "policy": {policy}
            }}"#
        )))
        .expect("spec parses")
    }

    #[test]
    fn resilient_cells_are_jobs_and_shard_invariant() {
        let spec = resilient_spec(
            r#"{"kind": "retry-backoff", "base_secs": 0.0005, "factor": 2.0,
                "cap_secs": 0.005, "max_retries": 10000}"#,
        );
        let seq = SweepDriver::new(1).run(&spec).unwrap();
        assert!(seq.cells.iter().all(|c| c.completed));
        assert!(
            seq.cells.iter().any(|c| c.failures > 0),
            "a 20 ms MTTF must inject failures somewhere in the grid"
        );
        assert!(seq.cells.iter().all(|c| c.makespan_degradation >= 0.0));
        assert!(
            seq.cells
                .iter()
                .any(|c| c.wasted_work_secs > 0.0 || c.recovery_overhead_secs > 0.0),
            "recovery must cost something somewhere"
        );
        assert_eq!(seq.summary[0].completion_probability, 1.0);

        let par = SweepDriver::new(4).run(&spec).unwrap();
        assert_eq!(seq, par, "--jobs must not affect resilient results");

        let s1 = SweepDriver::new(2)
            .run_shard(&spec, ShardSpec::new(1, 2).unwrap())
            .unwrap();
        let s2 = SweepDriver::new(1)
            .run_shard(&spec, ShardSpec::new(2, 2).unwrap())
            .unwrap();
        let merged = merge_shards(&[s2, s1]).unwrap();
        assert_eq!(seq, merged, "shard partitioning must not affect results");
    }

    #[test]
    fn lost_workloads_depress_completion_probability() {
        // A 1 ms MTTF with a 1-retry budget is lethal for most seeds;
        // lost cells must become measurements, not errors.
        let spec = resilient_spec(
            r#"{"kind": "retry-backoff", "base_secs": 0.0, "factor": 2.0,
                "cap_secs": 0.0, "max_retries": 1}"#,
        );
        let spec = CampaignSpec {
            resilience: spec.resilience.map(|mut rk| {
                rk.mttf_secs = 0.001;
                rk
            }),
            ..spec
        };
        let report = SweepDriver::new(1).run(&spec).unwrap();
        let lost: Vec<&CellResult> = report.cells.iter().filter(|c| !c.completed).collect();
        assert!(!lost.is_empty(), "a 1 ms MTTF must lose some cell");
        for c in &lost {
            assert_eq!(c.makespan_secs, 0.0, "lost cells carry zero metrics");
            assert_eq!(c.slr, 0.0);
            assert_eq!(c.incomplete_reason.as_deref(), Some("retries_exhausted"));
        }
        assert!(
            report
                .cells
                .iter()
                .filter(|c| c.completed)
                .all(|c| c.incomplete_reason.is_none()),
            "completed cells carry no incomplete reason"
        );
        let row = &report.summary[0];
        assert!(row.completion_probability < 1.0);
        assert_eq!(
            row.completion_probability,
            (report.cells.len() - lost.len()) as f64 / report.cells.len() as f64
        );
        if lost.len() < report.cells.len() {
            assert!(
                row.mean_makespan_secs.expect("some cell completed") > 0.0,
                "means cover completed cells only"
            );
        }
    }

    #[test]
    fn rows_with_no_completed_cells_have_null_means() {
        // A lethal failure model (sub-millisecond MTTF, one retry) loses
        // every cell: the row must carry absent means — `0.0` would be
        // indistinguishable from a genuinely instant run — and the JSON
        // form must say `null`, not `0.0`.
        let spec = resilient_spec(
            r#"{"kind": "retry-backoff", "base_secs": 0.0, "factor": 2.0,
                "cap_secs": 0.0, "max_retries": 1}"#,
        );
        let spec = CampaignSpec {
            resilience: spec.resilience.map(|mut rk| {
                rk.mttf_secs = 0.0001;
                rk
            }),
            ..spec
        };
        let report = SweepDriver::new(1).run(&spec).unwrap();
        assert!(
            report.cells.iter().all(|c| !c.completed),
            "a 0.1 ms MTTF with one retry must lose every cell"
        );
        let row = &report.summary[0];
        assert_eq!(row.completion_probability, 0.0);
        assert_eq!(row.mean_makespan_secs, None);
        assert_eq!(row.mean_slr, None);
        assert_eq!(row.mean_energy_j, None);
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"mean_makespan_secs\":null"), "{json}");
        // And the null round-trips.
        let back: SweepReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn infeasible_combinations_are_measurements_not_errors() {
        // cybershake working sets exceed every edge_soc device: the
        // planner can never place them. Such cells must come back as
        // incomplete measurements with the pinned `infeasible` reason —
        // a grid mixing heavyweight families with small platforms would
        // otherwise crash the whole sweep.
        let spec = CampaignSpec::from_json(
            r#"{
                "name": "infeasible",
                "families": ["cybershake", "montage"],
                "platforms": ["edge_soc"],
                "schedulers": ["heft"],
                "seeds": {"base": 0, "count": 2},
                "tasks": 30,
                "noise_cv": 0.1
            }"#,
        )
        .unwrap();
        let report = SweepDriver::new(1).run(&spec).unwrap();
        let (cyber, montage): (Vec<&CellResult>, Vec<&CellResult>) =
            report.cells.iter().partition(|c| c.family == "cybershake");
        assert!(
            cyber.iter().all(|c| !c.completed
                && c.incomplete_reason.as_deref() == Some("infeasible")
                && c.makespan_secs == 0.0),
            "infeasible cells are zero-metric measurements"
        );
        assert!(
            montage.iter().all(|c| c.completed),
            "feasible families in the same grid still run"
        );
        let cyber_row = report
            .summary
            .iter()
            .find(|r| r.family == "cybershake")
            .unwrap();
        assert_eq!(cyber_row.completion_probability, 0.0);
        assert_eq!(cyber_row.mean_makespan_secs, None);
        // Jobs-invariance holds for infeasible cells too.
        let par = SweepDriver::new(4).run(&spec).unwrap();
        assert_eq!(report, par);
    }

    #[test]
    fn step_budget_turns_grinding_cells_into_timed_out_measurements() {
        // 10 simulated events cannot finish a 30-task montage: every
        // cell must come back as a measurement, not an error — for both
        // the plain-engine and the resilient-runner cell paths.
        let plain = CampaignSpec::from_json(&spec_json(r#", "cell_step_budget": 10"#)).unwrap();
        let resilient = CampaignSpec {
            cell_step_budget: Some(10),
            ..resilient_spec(
                r#"{"kind": "retry-backoff", "base_secs": 0.0005, "factor": 2.0,
                    "cap_secs": 0.005, "max_retries": 10000}"#,
            )
        };
        for spec in [plain, resilient] {
            let report = SweepDriver::new(1).run(&spec).unwrap();
            assert!(
                report.cells.iter().all(|c| !c.completed
                    && c.incomplete_reason.as_deref() == Some("timed_out")
                    && c.makespan_secs == 0.0),
                "every budget-starved cell is a timed-out measurement"
            );
            assert_eq!(report.summary[0].completion_probability, 0.0);
            let par = SweepDriver::new(4).run(&spec).unwrap();
            assert_eq!(report, par, "timed-out cells are jobs-invariant");
        }
    }

    #[test]
    fn every_incomplete_reason_comes_from_the_normalized_vocabulary() {
        // Three ways a cell can stop short, across both cell paths:
        // legacy flat faults on the plain engine, a lethal failure model
        // on the resilient runner, and the step-budget watchdog. Every
        // reason string must come from `IncompleteReason::as_str` — no
        // path gets to invent free-form prose.
        let legacy = CampaignSpec::from_json(&spec_json(
            r#", "faults": {"mtbf_secs": 0.0005, "max_retries": 1}"#,
        ))
        .unwrap();
        let lethal_policy = resilient_spec(
            r#"{"kind": "retry-backoff", "base_secs": 0.0, "factor": 2.0,
                "cap_secs": 0.0, "max_retries": 1}"#,
        );
        let lethal = CampaignSpec {
            resilience: lethal_policy.resilience.map(|mut rk| {
                rk.mttf_secs = 0.001;
                rk
            }),
            ..lethal_policy
        };
        let starved = CampaignSpec::from_json(&spec_json(r#", "cell_step_budget": 10"#)).unwrap();

        let legal: Vec<&str> = IncompleteReason::ALL.iter().map(|r| r.as_str()).collect();
        for (fixture, spec) in [("legacy", legacy), ("lethal", lethal), ("starved", starved)] {
            let report = SweepDriver::new(1).run(&spec).unwrap();
            let mut incomplete = 0;
            for c in &report.cells {
                match &c.incomplete_reason {
                    Some(reason) => {
                        assert!(!c.completed, "{fixture}: reason implies incomplete");
                        assert!(
                            legal.contains(&reason.as_str()),
                            "{fixture}: free-form incomplete reason {reason:?} \
                             (legal: {legal:?})"
                        );
                        incomplete += 1;
                    }
                    None => assert!(c.completed, "{fixture}: incomplete cell without reason"),
                }
            }
            assert!(
                incomplete > 0,
                "{fixture}: fixture must stop some cell short"
            );
        }
    }

    #[test]
    fn scheduler_params_steer_cell_schedulers() {
        let json = |extra: &str| {
            format!(
                r#"{{
                    "name": "knobs",
                    "families": ["montage"],
                    "platforms": ["workstation"],
                    "schedulers": ["lookahead", "annealing"],
                    "seeds": {{"base": 0, "count": 2}},
                    "tasks": 30{extra}
                }}"#
            )
        };
        let base = CampaignSpec::from_json(&json("")).unwrap();
        let explicit = CampaignSpec::from_json(&json(
            r#", "scheduler_params": {"annealing_iterations": 500, "lookahead_depth": 1}"#,
        ))
        .unwrap();
        let tuned = CampaignSpec::from_json(&json(
            r#", "scheduler_params": {"annealing_iterations": 25, "lookahead_depth": 2}"#,
        ))
        .unwrap();

        let driver = SweepDriver::new(1);
        let base_run = driver.run(&base).unwrap();
        let explicit_run = driver.run(&explicit).unwrap();
        // Spelling out the lineup defaults changes the digest but must
        // reproduce the knob-free cells exactly.
        assert_ne!(base.digest(), explicit.digest());
        assert_eq!(base_run.cells, explicit_run.cells);

        // A tuned sweep is deterministic, completes, and actually
        // reaches the schedulers: shrinking the annealing budget and
        // deepening the lookahead must move at least one cell.
        let tuned_run = driver.run(&tuned).unwrap();
        assert_eq!(tuned_run, driver.run(&tuned).unwrap());
        assert!(tuned_run.cells.iter().all(|c| c.completed));
        assert_ne!(
            base_run.cells, tuned_run.cells,
            "tuning overrides must change some cell"
        );
    }

    /// A fresh scratch path, unique per process and test.
    fn scratch_path(name: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("helios-sweep-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Six cells: one montage workflow per seed, three planners each.
    fn six_cells() -> CampaignSpec {
        CampaignSpec::from_json(
            r#"{
                "name": "staged",
                "families": ["montage"],
                "platforms": ["workstation"],
                "schedulers": ["heft", "mct", "olb"],
                "seeds": {"base": 0, "count": 2},
                "tasks": 20,
                "noise_cv": 0.1
            }"#,
        )
        .unwrap()
    }

    fn tear(n: Option<u64>) -> JournalOptions<'static> {
        JournalOptions {
            tear_after: n,
            ..JournalOptions::default()
        }
    }

    /// The differential oracle of staging: at one worker, a sweep's
    /// journal under every tear ordinal (and none) holds the bytes of
    /// the same records written one by one through the public
    /// write-through appends with the same tear, at one fsync per cell
    /// where the reference makes two.
    #[test]
    fn staged_journals_equal_the_write_through_reference_under_every_tear() {
        let spec = six_cells();
        let driver = SweepDriver::new(1);
        let cells = driver.run_shard(&spec, ShardSpec::full()).unwrap().cells;
        let n = cells.len();
        assert_eq!(n, 6);
        let header = JournalHeader {
            spec_name: spec.name.clone(),
            spec_digest: spec.digest(),
            total_cells: n,
            shard_index: 1,
            shard_count: 1,
        };
        let (staged, reference) = (scratch_path("staged"), scratch_path("reference"));
        for ordinal in (0..2 * n as u64).map(Some).chain([None]) {
            let mut w = JournalWriter::create(&reference, &header, ordinal).unwrap();
            let written = cells.iter().try_for_each(|c| {
                w.append_attempt(c.cell)?;
                w.append_cell(c)
            });
            drop(w);
            assert_eq!(written.is_err(), ordinal.is_some());
            let _ = std::fs::remove_file(&staged);
            let run = driver.run_journal(&spec, ShardSpec::full(), &staged, &tear(ordinal));
            match (ordinal, run) {
                (Some(_), Err(e)) => {
                    assert!(e.to_string().contains(journal::TORN_WRITE_INJECTED), "{e}")
                }
                (None, Ok(run)) => assert_eq!(run.report.cells, cells),
                (ordinal, run) => panic!("tear {ordinal:?}: unexpected {run:?}"),
            }
            assert_eq!(
                std::fs::read(&staged).unwrap(),
                std::fs::read(&reference).unwrap(),
                "tear {ordinal:?}: journal bytes differ from the reference"
            );
            let (staged_syncs, reference_syncs) = (
                crate::framed::probe::take(&staged),
                crate::framed::probe::take(&reference),
            );
            if ordinal.is_none() {
                // Header, one per attempt, and the last completion, which
                // has no next attempt to ride.
                assert_eq!(
                    (staged_syncs, reference_syncs),
                    (n as u64 + 2, 2 * n as u64 + 1)
                );
            }
        }
        std::fs::remove_file(&staged).unwrap();
        std::fs::remove_file(&reference).unwrap();
    }

    /// With several workers a completion may ride another worker's
    /// attempt or be written at once; never more than the two syncs per
    /// cell of the write-through journal, plus the header and one flush.
    #[test]
    fn parallel_journals_sync_at_most_twice_per_cell() {
        let spec = six_cells();
        let reference = SweepDriver::new(1).run(&spec).unwrap();
        let path = scratch_path("parallel");
        let run = SweepDriver::new(2)
            .run_journal(&spec, ShardSpec::full(), &path, &tear(None))
            .unwrap();
        let syncs = crate::framed::probe::take(&path);
        assert!((8..=14).contains(&syncs), "{syncs} syncs for 6 cells");
        assert_eq!(merge_shards(&[run.report]).unwrap(), reference);
        let salvage = journal::read_journal(&path).unwrap();
        assert_eq!((salvage.cells.len(), salvage.attempts.len()), (6, 6));
        std::fs::remove_file(&path).unwrap();
    }

    /// A cell that fails right after its durable attempt record finds
    /// every earlier completion durable: each rode an attempt record.
    #[test]
    fn a_crashing_cell_finds_every_earlier_completion_durable() {
        let spec = six_cells();
        let path = scratch_path("crash");
        for k in 0..6 {
            let _ = std::fs::remove_file(&path);
            let opts = JournalOptions {
                crash_cell: Some(k),
                ..JournalOptions::default()
            };
            let err = SweepDriver::new(1)
                .run_journal(&spec, ShardSpec::full(), &path, &opts)
                .unwrap_err();
            assert!(err.to_string().contains("injected crash"), "{err}");
            let salvage = journal::read_journal(&path).unwrap();
            let done: Vec<usize> = salvage.cells.iter().map(|c| c.cell).collect();
            assert_eq!(done, (0..k).collect::<Vec<_>>(), "crash at cell {k}");
            assert_eq!(salvage.attempts, (0..=k).collect::<Vec<_>>());
            assert_eq!(salvage.dropped_bytes, 0);
            assert_eq!(crate::framed::probe::take(&path), k as u64 + 2);
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// The staging rule on its own: a completion is staged only while a
    /// cell may still start and no drain is requested.
    #[test]
    fn the_journal_sink_stages_only_while_a_cell_may_start() {
        let path = scratch_path("rule");
        let cancel = AtomicBool::new(false);
        let mut sink = JournalSink {
            path: &path,
            writer: None,
            crash_cell: None,
            tear_after: None,
            poison_limit: DEFAULT_POISON_LIMIT,
            cancel: Some(&cancel),
            unattempted: 0,
        };
        let expected = ShardReport {
            spec_name: "rule".into(),
            spec_digest: "d".into(),
            total_cells: 4,
            shard_index: 1,
            shard_count: 1,
            cells: Vec::new(),
        };
        sink.salvage(&expected).unwrap();
        let cell = |i| CellResult {
            cell: i,
            ..CellResult::default()
        };
        let syncs = || crate::framed::probe::take(&path);
        assert_eq!(syncs(), 1, "the header");
        sink.expect_attempts(4);
        sink.attempt(0).unwrap();
        sink.append(&cell(0)).unwrap();
        assert_eq!(syncs(), 1, "cell 0's completion is staged");
        sink.attempt(1).unwrap();
        assert_eq!(syncs(), 1, "cell 1's attempt carries it");
        cancel.store(true, Ordering::Relaxed);
        sink.append(&cell(1)).unwrap();
        assert_eq!(syncs(), 1, "a drain writes cell 1's completion through");
        cancel.store(false, Ordering::Relaxed);
        sink.attempt(2).unwrap();
        sink.append(&cell(2)).unwrap();
        assert_eq!(syncs(), 1, "cell 3 may start: cell 2 is staged");
        // What a failed or drained run ends with.
        sink.flush().unwrap();
        assert_eq!(syncs(), 1, "a flush writes what is staged");
        sink.flush().unwrap();
        assert_eq!(syncs(), 0, "and then nothing");
        sink.attempt(3).unwrap();
        sink.append(&cell(3)).unwrap();
        assert_eq!(syncs(), 2, "no cell is left to start: written through");
        drop(sink);
        let salvage = journal::read_journal(&path).unwrap();
        assert_eq!(salvage.cells, (0..4).map(cell).collect::<Vec<_>>());
        assert_eq!(salvage.attempts, vec![0, 1, 2, 3]);
        std::fs::remove_file(&path).unwrap();
    }
}
