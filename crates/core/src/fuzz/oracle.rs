//! Differential oracles: the properties every generated campaign spec
//! must satisfy, checked in a fixed order so a case's verdict is
//! deterministic. The first oracle to fire wins; its name is the
//! primary key of the resulting bug fixture.
//!
//! | oracle                | property                                            |
//! |-----------------------|-----------------------------------------------------|
//! | `schedule_invariants` | planned plan passes [`Schedule::validate`]; the     |
//! |                       | realized report covers every task with `start ≤     |
//! |                       | finish`, a makespan no smaller than the realized    |
//! |                       | schedule's, finite non-negative metrics; sweep      |
//! |                       | cells are either complete with finite metrics or    |
//! |                       | carry a normalized [`IncompleteReason`] string      |
//! | `hooks_off_identity`  | the hook-composed core with every feature hook off  |
//! |                       | is byte-identical to the plain default `Engine`     |
//! | `jobs_identity`       | `--jobs 3` sweeps serialize byte-identical to the   |
//! |                       | sequential reference                                |
//! | `shard_identity`      | a merged {1/2, 2/2} partition serializes            |
//! |                       | byte-identical to the unsharded reference           |
//! | `crash_resume_identity` | a journaled sweep killed at a spec-derived cell   |
//! |                       | boundary AND torn mid-record (the                   |
//! |                       | `HELIOS_JOURNAL_TORN_WRITE` hook), then salvaged    |
//! |                       | and resumed, serializes byte-identical to the       |
//! |                       | straight-through run                                |
//! | `store_identity`      | the report compiled from the columnar cell store —  |
//! |                       | straight through, and killed at a spec-derived cell |
//! |                       | boundary then resumed from the salvaged row groups  |
//! |                       | — serializes byte-identical to the straight-through |
//! |                       | run                                                 |
//! | `fault_free_bound`    | per completed cell, the faulted/resilient makespan  |
//! |                       | is ≥ the makespan of the same spec with injection   |
//! |                       | disabled, and `makespan_degradation ≥ 0`; stands    |
//! |                       | down for elastic specs (a mid-run join can legally  |
//! |                       | beat the static bound)                              |
//!
//! [`Schedule::validate`]: helios_sched::Schedule::validate

use helios_platform::presets;
use serde::{Deserialize, Serialize};

use crate::campaign::spec::{family_class, CampaignSpec, SweepCell};
use crate::campaign::sweep::cell_scheduler;
use crate::campaign::{merge_shards, ShardSpec, SweepDriver, SweepReport};
use crate::config::EngineConfig;
use crate::engine::Engine;
use crate::error::EngineError;
use crate::exec::IncompleteReason;

/// The oracle names, in evaluation order. `HELIOS_FUZZ_BREAK_ORACLE`
/// (and the `broken` parameter of [`check_spec`]) must name one of
/// these.
pub const ORACLES: &[&str] = &[
    "schedule_invariants",
    "hooks_off_identity",
    "jobs_identity",
    "shard_identity",
    "crash_resume_identity",
    "store_identity",
    "fault_free_bound",
];

/// Relative tolerance for floating-point bound comparisons; identity
/// oracles compare exact bytes and use no tolerance.
const EPS: f64 = 1e-9;

/// One oracle violation: which property fired and a human-readable
/// trace of where, kept alongside the shrunk spec in a bug fixture.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Divergence {
    /// The oracle that fired, one of [`ORACLES`].
    pub oracle: String,
    /// What diverged, naming the cell and the observed values.
    pub detail: String,
}

impl Divergence {
    fn new(oracle: &str, detail: String) -> Divergence {
        Divergence {
            oracle: oracle.to_owned(),
            detail,
        }
    }

    /// The unconditional verdict an oracle reports when sabotaged via
    /// the `broken` hook — the harness's own acceptance test relies on
    /// a deliberately broken oracle shrinking and replaying end to end.
    fn sabotaged(oracle: &str) -> Divergence {
        Divergence::new(
            oracle,
            "oracle deliberately broken via HELIOS_FUZZ_BREAK_ORACLE (harness self-test)".into(),
        )
    }
}

/// Runs every oracle against `spec`, returning the first divergence.
/// `broken` names an oracle forced to fire unconditionally (the
/// test-only sabotage hook); `None` in normal operation.
///
/// # Errors
///
/// Returns [`EngineError`] when `broken` is not an oracle name or the
/// spec cannot be swept at all (oracle verdicts are never errors).
pub fn check_spec(
    spec: &CampaignSpec,
    broken: Option<&str>,
) -> Result<Option<Divergence>, EngineError> {
    if let Some(name) = broken {
        if !ORACLES.contains(&name) {
            return Err(EngineError::Config(format!(
                "unknown oracle {name:?}; oracles: {}",
                ORACLES.join(", ")
            )));
        }
    }
    let cells = spec.expand()?;
    if let Some(d) = single_cell_oracles(spec, &cells, broken)? {
        return Ok(Some(d));
    }
    sweep_oracles(spec, broken)
}

/// Per-cell oracles on the first cell whose scheduling succeeds:
/// planned-schedule contract, realized-report invariants, and the
/// hooks-off/plain engine identity. Cells that fail to plan (an
/// infeasible family × platform pairing) are the sweep driver's
/// business and are checked by the cell-result invariants instead.
fn single_cell_oracles(
    spec: &CampaignSpec,
    cells: &[SweepCell],
    broken: Option<&str>,
) -> Result<Option<Divergence>, EngineError> {
    for cell in cells {
        let platform = presets::by_name(&cell.platform)
            .ok_or_else(|| EngineError::Config(format!("unknown platform {:?}", cell.platform)))?;
        let class = family_class(&cell.family)
            .ok_or_else(|| EngineError::Config(format!("unknown family {:?}", cell.family)))?;
        let scheduler = cell_scheduler(spec, &cell.scheduler).ok_or_else(|| {
            EngineError::Config(format!("unknown scheduler {:?}", cell.scheduler))
        })?;
        let wf = class.generate(spec.tasks, cell.seed)?;
        let Ok(plan) = scheduler.schedule(&wf, &platform) else {
            continue;
        };
        let at = format!(
            "cell {} ({} × {} × {}, seed {})",
            cell.index, cell.family, cell.platform, cell.scheduler, cell.seed
        );

        if broken == Some("schedule_invariants") {
            return Ok(Some(Divergence::sabotaged("schedule_invariants")));
        }
        if let Err(e) = plan.validate(&wf, &platform) {
            return Ok(Some(Divergence::new(
                "schedule_invariants",
                format!("{at}: planned schedule violates its contract: {e}"),
            )));
        }

        let plain = Engine::new(EngineConfig {
            seed: cell.seed,
            ..EngineConfig::default()
        })
        .execute_plan(&platform, &wf, &plan)?;
        if let Some(detail) = realized_violation(&at, &plain, wf.num_tasks()) {
            return Ok(Some(Divergence::new("schedule_invariants", detail)));
        }

        if broken == Some("hooks_off_identity") {
            return Ok(Some(Divergence::sabotaged("hooks_off_identity")));
        }
        let composed = Engine::new(EngineConfig::all_hooks_off(cell.seed))
            .execute_plan(&platform, &wf, &plan)?;
        if plain != composed {
            return Ok(Some(Divergence::new(
                "hooks_off_identity",
                format!(
                    "{at}: all-hooks-off composition diverges from the plain engine \
                     (makespan {} vs {})",
                    composed.makespan().as_secs(),
                    plain.makespan().as_secs()
                ),
            )));
        }
        return Ok(None);
    }
    Ok(None)
}

/// Structural invariants of one realized execution report.
fn realized_violation(
    at: &str,
    report: &crate::report::ExecutionReport,
    num_tasks: usize,
) -> Option<String> {
    let realized = report.schedule();
    if realized.placements().len() != num_tasks {
        return Some(format!(
            "{at}: realized schedule covers {} of {num_tasks} tasks",
            realized.placements().len()
        ));
    }
    for p in realized.placements() {
        if p.start > p.finish {
            return Some(format!(
                "{at}: task {} starts at {} after finishing at {}",
                p.task,
                p.start.as_secs(),
                p.finish.as_secs()
            ));
        }
    }
    let makespan = report.makespan().as_secs();
    let realized_makespan = realized.makespan().as_secs();
    if !makespan.is_finite() || makespan + EPS < realized_makespan {
        return Some(format!(
            "{at}: reported makespan {makespan} is below the realized schedule's \
             {realized_makespan}"
        ));
    }
    let energy = report.energy().total_j();
    if !energy.is_finite() || energy < 0.0 {
        return Some(format!(
            "{at}: energy {energy} J is not finite and non-negative"
        ));
    }
    let bytes = report.transfers().bytes;
    if !bytes.is_finite() || bytes < 0.0 {
        return Some(format!(
            "{at}: transfer bytes {bytes} not finite and non-negative"
        ));
    }
    None
}

/// Sweep-level oracles: cell-result invariants, `--jobs` identity,
/// shard-merge identity and the fault-free lower bound.
fn sweep_oracles(
    spec: &CampaignSpec,
    broken: Option<&str>,
) -> Result<Option<Divergence>, EngineError> {
    let reference = SweepDriver::new(1).run(spec)?;
    if let Some(detail) = cell_result_violation(spec, &reference) {
        return Ok(Some(Divergence::new("schedule_invariants", detail)));
    }

    if broken == Some("jobs_identity") {
        return Ok(Some(Divergence::sabotaged("jobs_identity")));
    }
    let reference_bytes = report_bytes(&reference)?;
    let parallel = SweepDriver::new(3).run(spec)?;
    if report_bytes(&parallel)? != reference_bytes {
        return Ok(Some(Divergence::new(
            "jobs_identity",
            "--jobs 3 sweep bytes differ from the sequential reference".into(),
        )));
    }

    if broken == Some("shard_identity") {
        return Ok(Some(Divergence::sabotaged("shard_identity")));
    }
    let driver = SweepDriver::new(1);
    let s1 = driver.run_shard(spec, ShardSpec::new(1, 2)?)?;
    let s2 = driver.run_shard(spec, ShardSpec::new(2, 2)?)?;
    let merged = merge_shards(&[s2, s1])?;
    if report_bytes(&merged)? != reference_bytes {
        return Ok(Some(Divergence::new(
            "shard_identity",
            "merged {1/2, 2/2} shard bytes differ from the unsharded reference".into(),
        )));
    }

    if let Some(d) = crash_resume_identity(spec, &reference_bytes, broken)? {
        return Ok(Some(d));
    }

    if let Some(d) = store_identity(spec, &reference_bytes, broken)? {
        return Ok(Some(d));
    }

    fault_free_bound(spec, &reference, broken)
}

/// Kills a journaled sweep twice — once at a spec-derived cell
/// boundary, once mid-record via the torn-write hook — then salvages,
/// resumes, and demands the compiled report match the straight-through
/// bytes exactly. The crash points derive from the spec digest, so a
/// shrunk fixture replays the identical crash.
fn crash_resume_identity(
    spec: &CampaignSpec,
    reference_bytes: &str,
    broken: Option<&str>,
) -> Result<Option<Divergence>, EngineError> {
    if broken == Some("crash_resume_identity") {
        return Ok(Some(Divergence::sabotaged("crash_resume_identity")));
    }
    let total = spec.expand()?.len();
    let digest = spec.digest();
    let h = crate::campaign::spec::fnv1a(digest.as_bytes());
    let driver = SweepDriver::new(1);
    let path = scratch_path("journal");
    let _ = std::fs::remove_file(&path);
    let result = crash_resume_identity_at(spec, reference_bytes, total, h, &driver, &path);
    let _ = std::fs::remove_file(&path);
    result
}

fn crash_resume_identity_at(
    spec: &CampaignSpec,
    reference_bytes: &str,
    total: usize,
    h: u64,
    driver: &SweepDriver,
    path: &std::path::Path,
) -> Result<Option<Divergence>, EngineError> {
    use crate::campaign::journal::TORN_WRITE_INJECTED;
    use crate::campaign::JournalOptions;

    // (a) Crash at a cell boundary: run 0..total-1 cells, then resume.
    let cut = (h as usize) % total;
    driver.run_journal(
        spec,
        ShardSpec::full(),
        path,
        &JournalOptions {
            limit: Some(cut),
            ..JournalOptions::default()
        },
    )?;
    let resumed = driver.run_journal(spec, ShardSpec::full(), path, &JournalOptions::default())?;
    if resumed.salvaged_cells != cut {
        return Ok(Some(Divergence::new(
            "crash_resume_identity",
            format!(
                "journal salvaged {} cells after a boundary crash at {cut}",
                resumed.salvaged_cells
            ),
        )));
    }
    if report_bytes(&merge_shards(&[resumed.report])?)? != reference_bytes {
        return Ok(Some(Divergence::new(
            "crash_resume_identity",
            format!("resume after a boundary crash at cell {cut} diverges from the straight-through run"),
        )));
    }

    // (b) Tear a record mid-write: every cell appends one attempt and
    // one completion record, so ordinal `h % 2·total` always lands on
    // a real append; salvage must truncate the half-record and the
    // resumed bytes must still match.
    std::fs::remove_file(path)
        .map_err(|e| EngineError::Config(format!("fuzz scratch journal: {e}")))?;
    let tear = h % (2 * total as u64);
    match driver.run_journal(
        spec,
        ShardSpec::full(),
        path,
        &JournalOptions {
            tear_after: Some(tear),
            ..JournalOptions::default()
        },
    ) {
        Ok(_) => {
            return Ok(Some(Divergence::new(
                "crash_resume_identity",
                format!("armed torn-write hook at append {tear} never fired"),
            )));
        }
        Err(e) if e.to_string().contains(TORN_WRITE_INJECTED) => {}
        Err(e) => return Err(e),
    }
    let resumed = driver.run_journal(spec, ShardSpec::full(), path, &JournalOptions::default())?;
    if resumed.dropped_bytes == 0 {
        return Ok(Some(Divergence::new(
            "crash_resume_identity",
            format!("torn write at append {tear} left no measurable torn tail"),
        )));
    }
    if report_bytes(&merge_shards(&[resumed.report])?)? != reference_bytes {
        return Ok(Some(Divergence::new(
            "crash_resume_identity",
            format!(
                "resume after a mid-record tear at append {tear} diverges from the \
                 straight-through run"
            ),
        )));
    }
    Ok(None)
}

/// Runs the same sweep through the columnar store path — straight
/// through, and killed at a spec-derived cell boundary then resumed
/// from the salvaged row groups — and demands the report compiled from
/// the store match the straight-through bytes exactly. This is the
/// round-trip theorem of the store refactor: encode → segment file →
/// salvage → decode must reproduce every `CellResult` bit for bit.
fn store_identity(
    spec: &CampaignSpec,
    reference_bytes: &str,
    broken: Option<&str>,
) -> Result<Option<Divergence>, EngineError> {
    if broken == Some("store_identity") {
        return Ok(Some(Divergence::sabotaged("store_identity")));
    }
    let total = spec.expand()?.len();
    let digest = spec.digest();
    let h = crate::campaign::spec::fnv1a(digest.as_bytes());
    let driver = SweepDriver::new(1);
    let path = scratch_path("store");
    let _ = std::fs::remove_file(&path);
    let result = store_identity_at(spec, reference_bytes, total, h, &driver, &path);
    let _ = std::fs::remove_file(&path);
    result
}

fn store_identity_at(
    spec: &CampaignSpec,
    reference_bytes: &str,
    total: usize,
    h: u64,
    driver: &SweepDriver,
    path: &std::path::Path,
) -> Result<Option<Divergence>, EngineError> {
    use crate::campaign::SweepOptions;

    // (a) Straight through the store.
    let run = driver.run_store(spec, ShardSpec::full(), path, &SweepOptions::default())?;
    if report_bytes(&merge_shards(&[run.report])?)? != reference_bytes {
        return Ok(Some(Divergence::new(
            "store_identity",
            "report compiled from the columnar store diverges from the straight-through run".into(),
        )));
    }

    // (b) Crash at a spec-derived cell boundary, then resume from the
    // salvaged row groups.
    std::fs::remove_file(path)
        .map_err(|e| EngineError::Config(format!("fuzz scratch store: {e}")))?;
    let cut = (h as usize) % total;
    driver.run_store(
        spec,
        ShardSpec::full(),
        path,
        &SweepOptions {
            limit: Some(cut),
            ..SweepOptions::default()
        },
    )?;
    let resumed = driver.run_store(spec, ShardSpec::full(), path, &SweepOptions::default())?;
    if resumed.salvaged_cells != cut {
        return Ok(Some(Divergence::new(
            "store_identity",
            format!(
                "store salvaged {} rows after a boundary crash at {cut}",
                resumed.salvaged_cells
            ),
        )));
    }
    if report_bytes(&merge_shards(&[resumed.report])?)? != reference_bytes {
        return Ok(Some(Divergence::new(
            "store_identity",
            format!(
                "resume from the store after a boundary crash at cell {cut} diverges from \
                 the straight-through run"
            ),
        )));
    }
    Ok(None)
}

/// A collision-free scratch path for one oracle invocation: tests run
/// `check_spec` concurrently, so pid alone is not unique.
fn scratch_path(ext: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("helios-fuzz-{}-{seq}.{ext}", std::process::id()))
}

/// Serializes a sweep report the way `campaign run --out` does; the
/// identity oracles compare these exact bytes.
fn report_bytes(report: &SweepReport) -> Result<String, EngineError> {
    serde_json::to_string_pretty(report)
        .map_err(|e| EngineError::Config(format!("sweep report does not serialize: {e}")))
}

/// Every cell is either complete with finite, non-negative metrics or
/// incomplete with zeroed metrics and a normalized reason string.
fn cell_result_violation(spec: &CampaignSpec, report: &SweepReport) -> Option<String> {
    let resilient = spec.resilience.is_some();
    for r in &report.cells {
        let at = format!(
            "cell {} ({} × {} × {}, seed {})",
            r.cell, r.family, r.platform, r.scheduler, r.seed
        );
        if r.completed {
            if r.incomplete_reason.is_some() {
                return Some(format!(
                    "{at}: complete but carries incomplete_reason {:?}",
                    r.incomplete_reason
                ));
            }
            for (name, v) in [
                ("makespan_secs", r.makespan_secs),
                ("slr", r.slr),
                ("energy_j", r.energy_j),
                ("transfer_bytes", r.transfer_bytes),
                ("wasted_work_secs", r.wasted_work_secs),
                ("recovery_overhead_secs", r.recovery_overhead_secs),
                ("partition_downtime_secs", r.partition_downtime_secs),
                ("capacity_secs", r.capacity_secs),
                ("join_utilization", r.join_utilization),
            ] {
                if !v.is_finite() || v < 0.0 {
                    return Some(format!("{at}: {name} = {v} is not finite and non-negative"));
                }
            }
            if resilient && bound_applies(spec) && r.makespan_degradation < -EPS {
                return Some(format!(
                    "{at}: makespan_degradation {} < 0 — the faulted run beat its own \
                     fault-free baseline under a work-conserving policy",
                    r.makespan_degradation
                ));
            }
        } else {
            match &r.incomplete_reason {
                None => {
                    return Some(format!("{at}: incomplete without an incomplete_reason"));
                }
                Some(reason) => {
                    if !IncompleteReason::ALL.iter().any(|k| k.as_str() == reason) {
                        return Some(format!(
                            "{at}: incomplete_reason {reason:?} is not in the normalized \
                             vocabulary"
                        ));
                    }
                }
            }
            if r.makespan_secs != 0.0 || r.energy_j != 0.0 {
                return Some(format!(
                    "{at}: incomplete cell reports nonzero metrics (makespan {}, energy {})",
                    r.makespan_secs, r.energy_j
                ));
            }
        }
    }
    None
}

/// For faulted or resilient specs: every cell completed both with and
/// without injection must not beat the injection-free makespan of the
/// same configuration (policy overheads included in both runs).
fn fault_free_bound(
    spec: &CampaignSpec,
    reference: &SweepReport,
    broken: Option<&str>,
) -> Result<Option<Divergence>, EngineError> {
    if spec.faults.is_none() && spec.resilience.is_none() {
        return Ok(None);
    }
    if broken == Some("fault_free_bound") {
        return Ok(Some(Divergence::sabotaged("fault_free_bound")));
    }
    if !bound_applies(spec) {
        return Ok(None);
    }
    let variant = injection_free_variant(spec);
    let baseline = SweepDriver::new(1).run(&variant)?;
    for (r, b) in reference.cells.iter().zip(&baseline.cells) {
        // The injection-free variant must really be injection-free; a
        // cell that still failed (or never completed) has no bound.
        if !(r.completed && b.completed) || b.failures > 0 {
            continue;
        }
        let bound = b.makespan_secs * (1.0 - EPS) - EPS;
        if r.makespan_secs < bound {
            return Ok(Some(Divergence::new(
                "fault_free_bound",
                format!(
                    "cell {} ({} × {} × {}, seed {}): makespan {} under injection beats \
                     the injection-free lower bound {}",
                    r.cell,
                    r.family,
                    r.platform,
                    r.scheduler,
                    r.seed,
                    r.makespan_secs,
                    b.makespan_secs
                ),
            )));
        }
    }
    Ok(None)
}

/// Whether the fault-free lower bound is a theorem for this spec.
///
/// Failures only ever *add* time when recovery is work-conserving:
/// retry-backoff, checkpoint-restart and the legacy flat-retry block
/// re-run the same placement later, so every completion time is
/// monotone in the injected failures. Replication and re-planning
/// break the theorem legitimately — a fault that kills a redundant
/// replica frees its device early, and a post-failure replan may find
/// a better schedule than the original static plan — so the oracle
/// stands down rather than flag emergent (Graham-style) anomalies.
fn bound_applies(spec: &CampaignSpec) -> bool {
    if spec.link_contention {
        // Shared-link queueing is not work-conserving across cells: a
        // delayed transfer reorders the contention queue and can let a
        // competing chain finish earlier than in the fault-free run.
        return false;
    }
    if spec.elasticity.is_some() {
        // Capacity events re-shape the platform itself: a mid-run join
        // adds a device the static bound never had (and can legally
        // beat it), and a departure migrates the victim's queue — an
        // implicit replan. Mirrors the replicate-k exclusion; see
        // DESIGN.md §8.
        return false;
    }
    match &spec.resilience {
        None => spec.faults.is_some(),
        Some(r) => {
            // Permanent losses migrate the victim's tasks onto the
            // surviving devices — an implicit replan that can land on a
            // faster device than the original static placement.
            let no_permanent_loss = r.permanent_prob == 0.0
                && spec.failure_domains.iter().all(|d| d.permanent_prob == 0.0);
            no_permanent_loss
                && matches!(
                    r.policy,
                    crate::RecoveryPolicy::RetryBackoff { .. }
                        | crate::RecoveryPolicy::CheckpointRestart { .. }
                )
        }
    }
}

/// The same spec with failure injection turned off: the legacy fault
/// block dropped, and every resilience-stack MTTF pushed past the
/// heat death of any simulated run (`1e12` s) so the policy machinery
/// (replication, checkpoint cadence, overheads) stays in place while
/// no failure ever fires.
fn injection_free_variant(spec: &CampaignSpec) -> CampaignSpec {
    let mut v = spec.clone();
    v.name = format!("{}-injection-free", spec.name);
    v.faults = None;
    if let Some(r) = &mut v.resilience {
        r.mttf_secs = 1e12;
    }
    if let Some(i) = &mut v.interconnect_faults {
        i.mttf_secs = 1e12;
    }
    for d in &mut v.failure_domains {
        d.mttf_secs = 1e12;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::gen::generate_spec;

    /// A tiny fault-free single-cell spec, cheap enough for debug-mode
    /// oracle tests.
    fn small_spec() -> CampaignSpec {
        CampaignSpec::from_json(
            r#"{
                "name": "oracle-small",
                "families": ["montage"],
                "platforms": ["workstation"],
                "schedulers": ["heft"],
                "seeds": {"base": 3, "count": 1},
                "tasks": 16
            }"#,
        )
        .expect("spec is valid")
    }

    #[test]
    fn clean_specs_pass_all_oracles() {
        assert_eq!(check_spec(&small_spec(), None).expect("oracles run"), None);
        // A handful of generated cases, covering feature-rich specs.
        for case in 0..4 {
            let spec = generate_spec(7, case);
            let verdict = check_spec(&spec, None).expect("oracles run");
            assert_eq!(verdict, None, "case {case} ({:?}) diverged", spec.name);
        }
    }

    #[test]
    fn sabotage_hook_fires_each_named_oracle() {
        let spec = small_spec();
        for &oracle in &[
            "schedule_invariants",
            "hooks_off_identity",
            "jobs_identity",
            "shard_identity",
            "crash_resume_identity",
            "store_identity",
        ] {
            let d = check_spec(&spec, Some(oracle))
                .expect("oracles run")
                .unwrap_or_else(|| panic!("sabotaged {oracle} did not fire"));
            assert_eq!(d.oracle, oracle);
        }
        // `fault_free_bound` only runs on faulted specs.
        assert_eq!(check_spec(&spec, Some("fault_free_bound")).unwrap(), None);
        let mut faulted = small_spec();
        faulted.faults = Some(crate::campaign::FaultKnob {
            mtbf_secs: 10.0,
            restart_overhead_secs: 0.0,
            max_retries: 3,
        });
        let d = check_spec(&faulted, Some("fault_free_bound"))
            .unwrap()
            .unwrap();
        assert_eq!(d.oracle, "fault_free_bound");
    }

    /// Deep soak over many generated cases; ignored by default because
    /// it costs minutes in debug mode. Run explicitly (release build)
    /// when touching the generator or an oracle:
    /// `cargo test --release -p helios-core fuzz:: -- --ignored`.
    #[test]
    #[ignore = "deep soak; run explicitly in release when touching the harness"]
    fn deep_soak_many_cases_pass() {
        for case in 0..150 {
            let spec = generate_spec(1234, case);
            let verdict = check_spec(&spec, None).expect("oracles run");
            assert_eq!(verdict, None, "case {case} ({:?}) diverged", spec.name);
        }
    }

    #[test]
    fn unknown_broken_oracle_is_an_error() {
        let err = check_spec(&small_spec(), Some("no-such-oracle")).unwrap_err();
        assert!(err.to_string().contains("no-such-oracle"), "{err}");
    }

    #[test]
    fn infeasible_grids_pass_without_plannable_cells() {
        // cybershake working sets exceed every edge_soc device: no cell
        // plans, the sweep records infeasible measurements, and the
        // oracles must treat that as a clean (non-diverging) case.
        let spec = CampaignSpec::from_json(
            r#"{
                "name": "oracle-infeasible",
                "families": ["cybershake"],
                "platforms": ["edge_soc"],
                "schedulers": ["heft"],
                "seeds": {"base": 0, "count": 1},
                "tasks": 40
            }"#,
        )
        .expect("spec is valid");
        assert_eq!(check_spec(&spec, None).expect("oracles run"), None);
    }
}
