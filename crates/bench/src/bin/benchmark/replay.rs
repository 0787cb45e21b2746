//! The sweep cell pipeline and the store read path, replayed call by
//! call through each layer's public entry point with a span around it.
//!
//! `SweepDriver` runs a cell inside one private function, so spans at
//! the layer boundaries need a replay in the benchmark's own code. Every
//! traced pass checks that the replayed report equals the driver's byte
//! for byte, which keeps the replay from drifting away from the driver.
//! The generated specs use no legacy `faults`, `elasticity` or
//! `scheduler_params`, so the replay leaves out those branches.

use std::path::{Path, PathBuf};

use helios_core::campaign::journal::{JournalHeader, JournalWriter};
use helios_core::campaign::spec::family_class;
use helios_core::store::{read_store, run_query, QueryOutput};
use helios_core::{
    merge_shards, CampaignSpec, CellResult, DvfsKnob, Engine, EngineConfig, EngineError,
    IncompleteReason, ResilientRunner, ShardReport, ShardSpec, SweepCell, SweepReport,
};
use helios_platform::{presets, Platform};
use helios_sched::{scheduler_by_name, Placement, Schedule};

use crate::trace::{Recorder, CELL, LAYERS, SHARD};
use crate::workloads::{StoreInput, SweepInput, QUERIES_PER_READ};

/// Every scheduler's report name, in `helios_sched::all_schedulers`
/// order.
pub const SCHEDULERS: [&str; 12] = [
    "heft",
    "cpop",
    "peft",
    "lookahead",
    "min-min",
    "max-min",
    "mct",
    "met",
    "olb",
    "round-robin",
    "random",
    "annealing",
];

/// Where shard job `k` of a journaled pass keeps its journal.
pub fn journal_path(dir: &Path, tag: &str, k: usize) -> PathBuf {
    dir.join(format!("{tag}-{k}.journal"))
}

/// One pass of a sweep workload: every shard job in turn, then the
/// merge, as `SweepDriver::run_shard` / `run_journal` and
/// `merge_shards` would run them.
pub fn sweep_pass(
    input: &SweepInput,
    dir: &Path,
    rec: &mut Recorder,
) -> Result<SweepReport, EngineError> {
    let spec = rec.span("spec.expand", None, |_| {
        CampaignSpec::from_json(&input.spec_json)
    })?;
    let mut reports = Vec::with_capacity(input.shards);
    for k in 1..=input.shards {
        let shard = ShardSpec::new(k, input.shards)?;
        let journal = input.journaled.then(|| journal_path(dir, "replay", k));
        reports.push(rec.span(SHARD, None, |rec| {
            replay_shard(&spec, shard, journal.as_deref(), rec)
        })?);
    }
    rec.span("campaign.merge", None, |_| merge_shards(&reports))
}

fn replay_shard(
    spec: &CampaignSpec,
    shard: ShardSpec,
    journal: Option<&Path>,
    rec: &mut Recorder,
) -> Result<ShardReport, EngineError> {
    let (cells, spec_digest) = rec.span("spec.expand", None, |_| {
        spec.expand().map(|cells| (cells, spec.digest()))
    })?;
    let mut writer = match journal {
        Some(path) => {
            let header = JournalHeader {
                spec_name: spec.name.clone(),
                spec_digest: spec_digest.clone(),
                total_cells: cells.len(),
                shard_index: shard.index(),
                shard_count: shard.count(),
            };
            Some(rec.span("journal.create", None, |_| {
                JournalWriter::create(path, &header, None)
            })?)
        }
        None => None,
    };
    let mut done = Vec::new();
    for cell in cells.iter().filter(|c| shard.owns(c.index)) {
        if let Some(w) = writer.as_mut() {
            rec.span("journal.append", Some(cell.index), |_| {
                w.append_attempt(cell.index)
            })?;
        }
        let result = rec.span(CELL, Some(cell.index), |rec| replay_cell(spec, cell, rec))?;
        if let Some(w) = writer.as_mut() {
            rec.span("journal.append", Some(cell.index), |_| {
                w.append_cell(&result)
            })?;
        }
        done.push(result);
    }
    if let Some(path) = journal {
        let bytes = std::fs::metadata(path)
            .map_err(|e| EngineError::Config(format!("journal {}: {e}", path.display())))?
            .len();
        rec.count("journal.bytes", bytes as f64);
    }
    Ok(ShardReport {
        spec_name: spec.name.clone(),
        spec_digest,
        total_cells: cells.len(),
        shard_index: shard.index(),
        shard_count: shard.count(),
        cells: done,
    })
}

/// One grid cell: platform, workflow, plan, DVFS, execution, SLR.
fn replay_cell(
    spec: &CampaignSpec,
    cell: &SweepCell,
    rec: &mut Recorder,
) -> Result<CellResult, EngineError> {
    let unknown = |what: &str, name: &str| EngineError::Config(format!("unknown {what} {name:?}"));
    let sched_span = LAYERS
        .into_iter()
        .find(|l| l.strip_prefix("sched.") == Some(cell.scheduler.as_str()))
        .ok_or_else(|| unknown("scheduler", &cell.scheduler))?;
    let platform = rec
        .span("platform.build", None, |_| presets::by_name(&cell.platform))
        .ok_or_else(|| unknown("platform", &cell.platform))?;
    let class = family_class(&cell.family).ok_or_else(|| unknown("family", &cell.family))?;
    let scheduler =
        scheduler_by_name(&cell.scheduler).ok_or_else(|| unknown("scheduler", &cell.scheduler))?;
    let wf = rec.span("workflow.generate", None, |_| {
        class.generate(spec.tasks, cell.seed)
    })?;
    rec.count("workflow.tasks", wf.num_tasks() as f64);

    let config = EngineConfig {
        seed: cell.seed,
        noise_cv: spec.noise_cv,
        link_contention: spec.link_contention,
        data_caching: spec.data_caching,
        resilience: spec.resilience_config()?,
        step_budget: spec.cell_step_budget,
        ..Default::default()
    };
    let mut result = blank_result(cell);
    let outcome = || {
        let plan = rec.span(sched_span, None, |_| scheduler.schedule(&wf, &platform))?;
        let plan = rec.span("dvfs.apply", None, |_| {
            apply_dvfs(spec.dvfs, &platform, plan)
        })?;
        rec.span("exec.run", None, |_| {
            if config.resilience.is_some() {
                ResilientRunner::new(config).execute_plan(&platform, &wf, &plan)
            } else {
                Engine::new(config).execute_plan(&platform, &wf, &plan)
            }
        })
    };
    let report = match outcome() {
        Ok(report) => report,
        Err(e) => {
            let reason = IncompleteReason::from_error(&e).ok_or(e)?;
            result.completed = false;
            result.incomplete_reason = Some(reason.as_str().to_owned());
            return Ok(result);
        }
    };
    rec.count("exec.failures", f64::from(report.failures()));
    rec.count("exec.retries", f64::from(report.retries()));

    result.makespan_secs = report.makespan().as_secs();
    result.slr = rec.span("metrics.slr", None, |_| report.slr(&wf, &platform))?;
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
    Ok(result)
}

/// Rewrites placements to the knob's DVFS level, as the sweep does.
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

fn blank_result(cell: &SweepCell) -> CellResult {
    CellResult {
        cell: cell.index,
        family: cell.family.clone(),
        platform: cell.platform.clone(),
        scheduler: cell.scheduler.clone(),
        seed: cell.seed,
        makespan_secs: 0.0,
        slr: 0.0,
        energy_j: 0.0,
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
    }
}

/// One pass of the store workload: write the segments, then read and
/// merge them before every [`QUERIES_PER_READ`] queries. Returns the
/// last merged report and every query output.
pub fn store_pass(
    input: &StoreInput,
    dir: &Path,
    rec: &mut Recorder,
) -> Result<(SweepReport, Vec<QueryOutput>), EngineError> {
    let mut segments = Vec::with_capacity(input.shards);
    for k in 1..=input.shards {
        let path = dir.join(format!("replay-{k}.store"));
        rec.span("store.write", None, |_| input.write_segment(k, &path))?;
        segments.push(path);
    }
    let mut merged = None;
    let mut outputs = Vec::with_capacity(input.queries.len());
    for chunk in input.queries.chunks(QUERIES_PER_READ) {
        let mut shards = Vec::with_capacity(segments.len());
        for path in &segments {
            let (bytes, shard) = rec.span("store.read", None, |_| {
                read_store(path).map(|s| (s.valid_bytes, s.to_shard_report()))
            })?;
            rec.count("store.read_bytes", bytes as f64);
            shards.push(shard);
        }
        let cells = &merged
            .insert(rec.span("campaign.merge", None, |_| merge_shards(&shards))?)
            .cells;
        for q in chunk {
            let out = rec.span("query.exec", None, |_| run_query(q, cells))?;
            rec.count("query.rows_scanned", cells.len() as f64);
            rec.count("query.rows_out", out.rows.len() as f64);
            outputs.push(out);
        }
    }
    let merged = merged.ok_or_else(|| EngineError::Config("a store pass needs a query".into()))?;
    Ok((merged, outputs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_list_matches_the_lineup_and_the_layers() {
        let lineup: Vec<String> = helios_sched::all_schedulers()
            .iter()
            .map(|s| s.name().to_owned())
            .collect();
        assert_eq!(lineup, SCHEDULERS);
        for name in SCHEDULERS {
            assert!(LAYERS.contains(&format!("sched.{name}").as_str()), "{name}");
        }
    }
}
