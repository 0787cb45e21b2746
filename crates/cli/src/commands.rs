//! Command implementations.

use std::io::Write;

use helios_core::campaign::spec::family_class;
use helios_core::{Engine, EngineConfig, OnlinePolicy, OnlineRunner};
use helios_platform::{presets, Platform};
use helios_sched::{metrics::ScheduleMetrics, Scheduler};
use helios_workflow::generators::{synthetic, WorkflowClass};
use helios_workflow::{analysis, io as wfio, Workflow};

use crate::args::Args;
use crate::CliError;

/// Resolves a preset platform by name.
fn platform_by_name(name: &str) -> Result<Platform, CliError> {
    presets::by_name(name).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown platform {name:?} ({}; N {})",
            presets::NAMES,
            presets::CLUSTER_NODES
        ))
    })
}

/// Resolves a scheduler by its report name.
fn scheduler_by_name(name: &str) -> Result<Box<dyn Scheduler>, CliError> {
    helios_sched::scheduler_by_name(name).ok_or_else(|| {
        let names = helios_sched::LINEUP.map(|(name, _)| name).join(", ");
        CliError::Usage(format!("unknown scheduler {name:?} (available: {names})"))
    })
}

/// Loads a workflow from a JSON file.
fn load_workflow(path: &str) -> Result<Workflow, CliError> {
    let json = std::fs::read_to_string(path)?;
    Ok(wfio::from_json(&json)?)
}

/// `helios generate` — create a workflow file.
pub fn generate(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(
        argv,
        &[
            "family", "tasks", "seed", "out", "dot", "levels", "width", "ccr", "platform",
        ],
        &[],
    )?;
    let family = args.require("family")?;
    let tasks = args.parse_or("tasks", 100usize)?;
    let seed = args.parse_or("seed", 0u64)?;

    let mut wf = if let Some(class) = family_class(family) {
        class.generate(tasks, seed)?
    } else if family == "layered" {
        let width = args.parse_or("width", 10usize)?;
        let levels = args.parse_or("levels", tasks.div_ceil(width.max(1)))?;
        let config = synthetic::LayeredConfig {
            levels,
            width,
            ..synthetic::LayeredConfig::default()
        };
        synthetic::layered_random(&config, seed)?
    } else {
        return Err(CliError::Usage(format!(
            "unknown family {family:?} ({}, layered)",
            WorkflowClass::names()
        )));
    };
    if let Some(ccr) = args.get("ccr") {
        let target: f64 = ccr
            .parse()
            .map_err(|_| CliError::Usage(format!("--ccr {ccr:?} is not a number")))?;
        let platform = platform_by_name(args.get("platform").unwrap_or("hpc_node"))?;
        wf = synthetic::scale_edges_to_ccr(&wf, &platform, target)?;
    }

    if let Some(path) = args.get("out") {
        std::fs::write(path, wfio::to_json(&wf)?)?;
        writeln!(
            out,
            "wrote {} ({} tasks, {} edges)",
            path,
            wf.num_tasks(),
            wf.num_edges()
        )?;
    } else {
        writeln!(out, "{}", wfio::to_json(&wf)?)?;
    }
    if let Some(path) = args.get("dot") {
        std::fs::write(path, wfio::to_dot(&wf))?;
        writeln!(out, "wrote {path}")?;
    }
    Ok(())
}

/// `helios analyze` — workflow statistics on a platform.
pub fn analyze(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv, &["workflow", "platform"], &[])?;
    let wf = load_workflow(args.require("workflow")?)?;
    let platform = platform_by_name(args.get("platform").unwrap_or("hpc_node"))?;
    let stats = analysis::WorkflowStats::compute(&wf, &platform)?;
    writeln!(out, "workflow:  {}", stats.name)?;
    writeln!(out, "tasks:     {}", stats.tasks)?;
    writeln!(out, "edges:     {}", stats.edges)?;
    writeln!(out, "depth:     {}", stats.depth)?;
    writeln!(out, "width:     {}", stats.width)?;
    writeln!(out, "work:      {:.1} Gflop", stats.total_gflop)?;
    writeln!(out, "data:      {:.2} GB", stats.total_bytes / 1e9)?;
    writeln!(out, "CCR:       {:.4} (on {})", stats.ccr, platform.name())?;
    writeln!(out, "crit.path: {:.4} s", stats.cp_seconds)?;
    Ok(())
}

/// `helios schedule` — plan a workflow and report metrics.
pub fn schedule(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(
        argv,
        &["workflow", "platform", "scheduler", "out"],
        &["gantt"],
    )?;
    let wf = load_workflow(args.require("workflow")?)?;
    let platform = platform_by_name(args.get("platform").unwrap_or("hpc_node"))?;
    let scheduler = scheduler_by_name(args.get("scheduler").unwrap_or("heft"))?;
    let plan = scheduler.schedule(&wf, &platform)?;
    plan.validate(&wf, &platform)?;
    let m = ScheduleMetrics::compute(&plan, &wf, &platform)?;
    writeln!(
        out,
        "{} on {}: makespan {:.6}s | SLR {:.3} | speedup {:.2} | efficiency {:.2}",
        scheduler.name(),
        platform.name(),
        m.makespan_secs,
        m.slr,
        m.speedup,
        m.efficiency
    )?;
    if args.flag("gantt") {
        writeln!(out, "{}", plan.gantt(&wf, &platform))?;
    }
    if let Some(path) = args.get("out") {
        std::fs::write(path, serde_json::to_string_pretty(&plan)?)?;
        writeln!(out, "wrote {path}")?;
    }
    Ok(())
}

/// `helios run` — execute a workflow and report the outcome.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(
        argv,
        &[
            "workflow",
            "platform",
            "scheduler",
            "noise",
            "seed",
            "trace",
            "report",
        ],
        &["contention", "caching", "online", "gantt"],
    )?;
    let wf = load_workflow(args.require("workflow")?)?;
    let platform = platform_by_name(args.get("platform").unwrap_or("hpc_node"))?;
    let config = EngineConfig {
        noise_cv: args.parse_or("noise", 0.0)?,
        seed: args.parse_or("seed", 0u64)?,
        link_contention: args.flag("contention"),
        data_caching: args.flag("caching"),
        tracing: args.get("trace").is_some(),
        ..Default::default()
    };

    let report = if args.flag("online") {
        OnlineRunner::new(config, OnlinePolicy::RankedJit).run(&platform, &wf)?
    } else {
        let scheduler = scheduler_by_name(args.get("scheduler").unwrap_or("heft"))?;
        Engine::new(config).run(&platform, &wf, scheduler.as_ref())?
    };
    writeln!(
        out,
        "makespan {:.6}s | energy {:.1} J (EDP {:.1}) | {} transfers ({:.1} MB) | {} failures",
        report.makespan().as_secs(),
        report.energy().total_j(),
        report.energy().edp(),
        report.transfers().count,
        report.transfers().bytes / 1e6,
        report.failures()
    )?;
    if args.flag("gantt") {
        writeln!(out, "{}", report.gantt(&wf, &platform))?;
    }
    if let Some(path) = args.get("trace") {
        match report.chrome_trace(&platform) {
            Some(json) => {
                std::fs::write(path, json)?;
                writeln!(out, "wrote {path} (open in chrome://tracing)")?;
            }
            None => writeln!(out, "tracing produced no data")?,
        }
    }
    if let Some(path) = args.get("report") {
        std::fs::write(path, serde_json::to_string_pretty(&report)?)?;
        writeln!(out, "wrote {path}")?;
    }
    Ok(())
}

/// `helios campaign` — campaigns of independent simulations.
///
/// Four forms:
///
/// * `campaign run --spec FILE [--shard K/N] [--jobs N] [--out FILE]
///   [--journal FILE | --store FILE]` — expand a declarative sweep spec
///   and run it (or one shard of it). Without `--shard` the merged
///   sweep report is produced directly; with `--shard`, a shard report
///   for later `merge`. With `--journal`, every cell is appended to a
///   write-ahead journal with one fsync per cell: a finished cell is
///   durable before its worker starts another, and at once when none is
///   left to start; `kill -9` at any byte loses at most the torn tail
///   records. With `--store`, cells are appended to the columnar cell
///   store instead (the `helios query` substrate), which resumes the
///   same way but writes no attempt records, so it quarantines nothing,
///   and fsyncs one row group per 256 finished cells and at the end:
///   `kill -9` can lose up to 255 finished cells, which a resume re-runs.
///   `--out` is always a view, written once at the end.
/// * `campaign merge --in FILE [--in FILE …] [--out FILE]` — recombine
///   shard reports, cell journals and/or columnar stores
///   (overlap/gap/spec-mismatch checked) into the aggregate sweep
///   report, byte-identical to an unsharded run. Input kinds are
///   detected by magic bytes and may be mixed freely in one
///   invocation.
/// * `campaign recover FILE [--out FILE]` — salvage a torn journal or
///   columnar store (truncate to the longest valid record prefix) and
///   say how to resume.
/// * legacy member form: repeated `--member path[:arrival[:priority]]`
///   runs one ensemble campaign.
pub fn campaign(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    match argv.first().map(String::as_str) {
        Some("run") => campaign_run(&argv[1..], out),
        Some("merge") => campaign_merge(&argv[1..], out),
        Some("recover") => campaign_recover(&argv[1..], out),
        _ => campaign_members(argv, out),
    }
}

/// `helios campaign run` — run a sweep spec, whole or one shard.
///
/// The one fork is where finished cells go. Without a sink they live
/// only in memory, and nothing can resume the run. With `--journal FILE`
/// the run is crash-consistent: cells are appended to a write-ahead
/// journal as they finish, one fsync per cell (a finished cell's record
/// rides the next cell's attempt record, or is written at once when no
/// cell is left to start), SIGINT/SIGTERM drain instead of
/// killing, and a re-run salvages the longest valid prefix of an
/// interrupted journal (torn tail truncated) and resumes. With
/// `--store FILE` the durable file is the columnar cell store
/// (`helios query`'s native format) instead, with the same salvage and
/// resume. Either way `--out` is a view, written once when the run
/// completes and overwriting what is there, unless that is itself a
/// journal or a store.
///
/// Environment hooks (crash injection for the CI chaos smoke):
/// `HELIOS_SWEEP_ABORT_AFTER=N` stops after executing `N` cells (a
/// durable sink is required, or there would be nothing to resume);
/// `HELIOS_JOURNAL_CRASH_CELL=I` errors right after journaling the
/// attempt on global cell `I`; `HELIOS_JOURNAL_TORN_WRITE=N` tears the
/// Nth journal append halfway; `HELIOS_POISON_LIMIT=N` overrides the
/// attempts-without-completion quarantine threshold.
fn campaign_run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    use helios_core::{merge_shards, CampaignSpec, Durable, ShardSpec, SweepDriver, SweepOptions};

    let args = Args::parse(
        argv,
        &["spec", "shard", "jobs", "out", "journal", "store"],
        &[],
    )?;
    let spec_path = args.require("spec")?;
    let json = std::fs::read_to_string(spec_path)
        .map_err(|e| CliError::Helios(format!("cannot read spec file {spec_path:?}: {e}")))?;
    let spec = CampaignSpec::from_json(&json)
        .map_err(|e| CliError::Helios(format!("spec file {spec_path:?}: {e}")))?;
    let jobs = args.parse_or("jobs", 1usize)?;
    let driver = SweepDriver::new(jobs);

    let abort_after: Option<usize> = env_hook("HELIOS_SWEEP_ABORT_AFTER")?;

    let shard = match args.get("shard") {
        Some(s) => Some(ShardSpec::parse(s).map_err(|e| CliError::Usage(e.to_string()))?),
        None => None,
    };
    let out_path = args.get("out");
    let durable_path = match (args.get("journal"), args.get("store")) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "--journal and --store are both durable result paths; pick one".into(),
            ))
        }
        (journal, store) => journal.or(store),
    };
    if durable_path.is_none() {
        if abort_after.is_some() {
            return Err(CliError::Usage(
                "HELIOS_SWEEP_ABORT_AFTER cuts the run short, and only a durable sink \
                 can resume it; add --store FILE or --journal FILE"
                    .into(),
            ));
        }
        if shard.is_some() && out_path.is_none() {
            return Err(CliError::Usage(
                "--shard produces a partial result; --out FILE is required \
                 (or use --journal FILE or --store FILE)"
                    .into(),
            ));
        }
    }
    if let Some(view) = out_path {
        refuse_durable_out(view)?;
    }
    let effective = shard.unwrap_or_else(ShardSpec::full);

    let (report, durable) = match durable_path {
        None => (driver.run_shard(&spec, effective)?, None),
        Some(path) => {
            let mut opts = SweepOptions {
                limit: abort_after,
                cancel: Some(crate::drain::install()),
                ..SweepOptions::default()
            };
            // The one fork on the format: the flag names it, and only a
            // journal has crash hooks to arm.
            let durable = if args.get("journal").is_some() {
                opts.crash_cell = env_hook("HELIOS_JOURNAL_CRASH_CELL")?;
                opts.tear_after = env_hook("HELIOS_JOURNAL_TORN_WRITE")?;
                opts.poison_limit = env_hook("HELIOS_POISON_LIMIT")?;
                Durable::Journal
            } else {
                Durable::Store
            };
            let file = std::path::Path::new(path);
            let run = driver.run_durable(durable, &spec, effective, file, &opts)?;
            let (flag, unit) = (durable.noun(), durable.unit());
            if run.salvaged_cells > 0 || run.dropped_bytes > 0 {
                writeln!(
                    out,
                    "resumed {path}: {} completed {unit}(s) salvaged, {} torn byte(s) dropped",
                    run.salvaged_cells, run.dropped_bytes
                )?;
            }
            for cell in &run.poisoned {
                writeln!(
                    out,
                    "cell {cell} quarantined as poisoned: it crashed the process repeatedly \
                     and is reported with completed=false"
                )?;
            }
            let done = run.report.cells.len();
            let owned = done + run.remaining;
            if run.drained {
                return Err(CliError::Interrupted(format!(
                    "drained on signal: {done} of {owned} owned cells durable in {path}; \
                     re-run with the same --{flag} to resume"
                )));
            }
            if run.remaining > 0 {
                return Err(CliError::Helios(format!(
                    "aborted by HELIOS_SWEEP_ABORT_AFTER after {} cells: {done} of {owned} \
                     owned cells durable in {path}, {} remaining; re-run with the same \
                     --{flag} to resume",
                    abort_after.unwrap_or(0),
                    run.remaining
                )));
            }
            if let Some(shard) = shard {
                writeln!(
                    out,
                    "shard {shard} of {:?}: {done} of {} cells {} in {path}",
                    run.report.spec_name,
                    run.report.total_cells,
                    durable.verb()
                )?;
            }
            (run.report, Some(durable))
        }
    };

    let merged = match shard {
        Some(_) => None,
        None => {
            let merged = merge_shards(std::slice::from_ref(&report))?;
            write_sweep_summary(&merged, out)?;
            Some(merged)
        }
    };
    // The view: the merged sweep, or the shard report for a later merge.
    let Some(view) = out_path else {
        return Ok(());
    };
    let json = match &merged {
        Some(merged) => serde_json::to_string_pretty(merged)?,
        None => serde_json::to_string_pretty(&report)?,
    };
    // Checked again: the run itself may have created a durable file
    // there (`--store X --out X`).
    refuse_durable_out(view)?;
    std::fs::write(view, json)?;
    match (durable, shard) {
        (Some(durable), _) => writeln!(
            out,
            "wrote {view} (view compiled from the {})",
            durable.noun()
        )?,
        (None, Some(shard)) => writeln!(
            out,
            "shard {shard} of {:?}: {} of {} cells -> {view}",
            report.spec_name,
            report.cells.len(),
            report.total_cells
        )?,
        (None, None) => writeln!(out, "wrote {view}")?,
    }
    Ok(())
}

/// Parses an optional non-negative integer crash/drain hook from the
/// environment; unset or empty means "off".
fn env_hook<T: std::str::FromStr>(name: &str) -> Result<Option<T>, CliError> {
    match std::env::var(name) {
        Ok(v) if !v.trim().is_empty() => v.trim().parse().map(Some).map_err(|_| {
            CliError::Usage(format!("{name} must be a non-negative integer, got {v:?}"))
        }),
        _ => Ok(None),
    }
}

/// Refuses an `--out` view path that holds a journal or a store:
/// writing the view would destroy the durable cells, so the message
/// points at the flag that resumes the file instead.
fn refuse_durable_out(path: &str) -> Result<(), CliError> {
    let Ok(Some(durable)) = helios_core::Durable::of(std::path::Path::new(path)) else {
        return Ok(());
    };
    Err(CliError::Usage(format!(
        "{path:?} is {}, not a JSON report; resume it with --{} {path} \
         (and drop --out, or point --out elsewhere for the view)",
        durable.description(),
        durable.noun()
    )))
}

/// `helios campaign recover FILE [--out FILE]` — salvage a torn durable
/// sweep file with zero hand-repair: a cell journal or a columnar store
/// is truncated in place to its longest valid record prefix (the
/// `--out` view is optional). For a journal the pending-attempt tally
/// is printed too, so poisoned cells are visible before resuming; the
/// quarantine threshold is `campaign run`'s, `HELIOS_POISON_LIMIT=N`
/// included. Anything else is a typed `corrupt resume file` error.
fn campaign_recover(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    use helios_core::campaign::journal::DEFAULT_POISON_LIMIT;
    use helios_core::{CampaignError, Durable, EngineError};

    let Some((file, rest)) = argv.split_first() else {
        return Err(CliError::Usage(
            "campaign recover FILE [--out FILE] — FILE is the journal or store".into(),
        ));
    };
    if file.starts_with('-') {
        return Err(CliError::Usage(format!(
            "campaign recover takes the damaged file as its first argument, got {file:?}"
        )));
    }
    let args = Args::parse(rest, &["out"], &[])?;
    let path = std::path::Path::new(file);
    let cannot_read = |e| CliError::Helios(format!("cannot read {file:?}: {e}"));
    let Some(durable) = Durable::of(path).map_err(cannot_read)? else {
        return Err(EngineError::from(CampaignError::CorruptResume {
            file: (*file).clone(),
            offset: 0,
            detail: "neither a cell store nor a cell journal, the only files recover \
                     repairs; a JSON report is a view, so re-run the sweep to rewrite it"
                .into(),
        })
        .into());
    };
    let poison_limit = env_hook("HELIOS_POISON_LIMIT")?.unwrap_or(DEFAULT_POISON_LIMIT);
    let salvage = durable.recover(path)?;
    let (noun, report) = (durable.noun(), salvage.report);
    writeln!(
        out,
        "{noun} {file}: spec {:?} (digest {}), shard {}/{}, {} total cells",
        report.spec_name,
        report.spec_digest,
        report.shard_index,
        report.shard_count,
        report.total_cells
    )?;
    writeln!(
        out,
        "salvaged {} completed {}(s); truncated {} torn byte(s)",
        report.cells.len(),
        durable.unit(),
        salvage.dropped_bytes
    )?;
    for (cell, attempts) in salvage.pending {
        let fate = if attempts >= poison_limit {
            " — will be quarantined as poisoned on resume"
        } else {
            ""
        };
        writeln!(
            out,
            "cell {cell}: {attempts} attempt(s) without completion{fate}"
        )?;
    }
    if let Some(view) = args.get("out") {
        std::fs::write(view, serde_json::to_string_pretty(&report)?)?;
        writeln!(out, "wrote {view} (view compiled from the {noun})")?;
    }
    writeln!(
        out,
        "resume with: helios campaign run --spec SPEC --{noun} {file}"
    )?;
    Ok(())
}

/// `helios campaign merge` — recombine shard reports, cell journals
/// and/or columnar stores (each read by [`read_result_file`], so a
/// complete JSON sweep report counts as shard 1/1). The kinds may be
/// mixed freely in one invocation; a file from a different campaign is
/// refused by the merge's spec-digest check, and a torn tail that hid
/// the last cells makes the merge name the missing cells.
fn campaign_merge(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv, &["in", "out"], &[])?;
    let inputs = args.get_all("in");
    if inputs.is_empty() {
        return Err(CliError::Usage(
            "at least one --in shard-report (or journal/store) file is required".into(),
        ));
    }
    let shards = inputs
        .iter()
        .map(|path| read_result_file(path, "shard report"))
        .collect::<Result<Vec<_>, _>>()?;
    let report = helios_core::merge_shards(&shards)?;
    write_sweep_summary(&report, out)?;
    if let Some(out_path) = args.get("out") {
        std::fs::write(out_path, serde_json::to_string_pretty(&report)?)?;
        writeln!(out, "wrote {out_path}")?;
    }
    Ok(())
}

/// Reads one sweep result file without modifying it, whatever its kind
/// (detected by magic bytes): a columnar store or a cell journal (a
/// torn tail is skipped, not truncated), a JSON shard report, or a
/// complete JSON sweep report (as shard 1/1). `role` names the file in
/// errors.
fn read_result_file(path: &str, role: &str) -> Result<helios_core::ShardReport, CliError> {
    use helios_core::{ShardReport, SweepReport};

    let cannot_read =
        |e: std::io::Error| CliError::Helios(format!("cannot read {role} {path:?}: {e}"));
    let file = std::path::Path::new(path);
    if let Some(durable) = helios_core::Durable::of(file).map_err(cannot_read)? {
        return Ok(durable.read(file)?.report);
    }
    let bytes = std::fs::read(path).map_err(cannot_read)?;
    let json = String::from_utf8_lossy(&bytes);
    if let Ok(shard) = serde_json::from_str::<ShardReport>(&json) {
        return Ok(shard);
    }
    let full: SweepReport = serde_json::from_str(&json).map_err(|e| {
        CliError::Helios(format!(
            "{role} {path:?} is neither a store, a journal, nor a JSON sweep/shard \
             report: {e}"
        ))
    })?;
    Ok(ShardReport {
        spec_name: full.spec_name,
        spec_digest: full.spec_digest,
        total_cells: full.total_cells,
        shard_index: 1,
        shard_count: 1,
        cells: full.cells,
    })
}

/// Human-readable rendering of a merged sweep report.
///
/// The column list, widths and precisions are not hand-maintained here:
/// they come from the store schema's `SUMMARY_KEYS` /
/// `SUMMARY_AGGREGATES` plan, so a new summary column shows up in this
/// table by construction.
fn write_sweep_summary(
    report: &helios_core::SweepReport,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    use helios_core::store::{summary_row_values, Value, SUMMARY_AGGREGATES, SUMMARY_KEYS};

    writeln!(
        out,
        "sweep {:?} (digest {}): {} cells",
        report.spec_name, report.spec_digest, report.total_cells
    )?;
    let mut header = String::new();
    for (col, width) in SUMMARY_KEYS {
        header.push_str(&format!("{:<width$}", col.name()));
    }
    for spec in SUMMARY_AGGREGATES {
        header.push_str(&format!("{:>width$}", spec.header, width = spec.width));
    }
    writeln!(out, "{header}")?;
    for row in &report.summary() {
        let values = summary_row_values(row);
        let (keys, aggs) = values.split_at(SUMMARY_KEYS.len());
        let mut line = String::new();
        for ((_, width), key) in SUMMARY_KEYS.iter().zip(keys) {
            line.push_str(&format!("{:<width$}", render_query_value(key)));
        }
        for (spec, value) in SUMMARY_AGGREGATES.iter().zip(aggs) {
            // Rows where no cell completed have no means: the value is
            // null and prints as a dash, not a zero that would read as
            // an instant run.
            let text = match (value, spec.precision) {
                (Value::F64(v), Some(prec)) => format!("{v:.prec$}"),
                (value, _) => render_query_value(value),
            };
            line.push_str(&format!("{text:>width$}", width = spec.width));
        }
        writeln!(out, "{line}")?;
    }
    Ok(())
}

/// `helios query` — run a `SELECT … [WHERE …] [GROUP BY …]` expression
/// over sweep results.
///
/// The expression is the first positional argument; `--in FILE`
/// (repeatable) names the inputs. Each input may be a JSON sweep or
/// shard report, a cell journal, or a columnar store — kinds are
/// detected by magic bytes and may be mixed in one invocation as long
/// as every file belongs to the same campaign. Rows are queried in
/// global cell order; `--json` emits one JSON object per row instead of
/// the aligned text table.
pub fn query(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some((expr, rest)) = argv.split_first() else {
        return Err(CliError::Usage(
            "query 'EXPR' --in FILE [--in FILE ...] [--json] — e.g. helios query \
             'SELECT scheduler, avg_completed(makespan_secs) GROUP BY scheduler' \
             --in sweep.json"
                .into(),
        ));
    };
    if expr.starts_with('-') {
        return Err(CliError::Usage(format!(
            "query takes the expression as its first argument, got {expr:?}"
        )));
    }
    let args = Args::parse(rest, &["in"], &["json"])?;
    let inputs = args.get_all("in");
    if inputs.is_empty() {
        return Err(CliError::Usage(
            "at least one --in result file (JSON report, journal or store) is required".into(),
        ));
    }
    let cells = load_query_cells(&inputs)?;
    let result = helios_core::run_query(expr, &cells)?;

    if args.flag("json") {
        write_query_json(&result, out)?;
    } else {
        write_query_table(&result, out)?;
    }
    Ok(())
}

/// Loads and pools the cell rows of every `--in` file, whatever its
/// format, refusing inputs that belong to different campaigns or that
/// repeat a cell. Gaps are fine — a query over half the grid is a
/// legitimate question — which is exactly where this is laxer than
/// `campaign merge`.
fn load_query_cells(inputs: &[&str]) -> Result<Vec<helios_core::CellResult>, CliError> {
    use helios_core::{CampaignError, CellResult, EngineError};

    let conflict = |detail: String| -> CliError {
        EngineError::from(CampaignError::MergeConflict(detail)).into()
    };

    let mut cells: Vec<CellResult> = Vec::new();
    let mut spec: Option<(String, String, usize)> = None;
    // The input each cell came from, by its index in `inputs`.
    let mut seen_in: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for (input, path) in inputs.iter().enumerate() {
        let shard = read_result_file(path, "query input")?;
        match &spec {
            None => {
                spec = Some((
                    shard.spec_name.clone(),
                    shard.spec_digest.clone(),
                    shard.total_cells,
                ));
            }
            Some((name, digest, total)) => {
                if (name, digest, *total)
                    != (&shard.spec_name, &shard.spec_digest, shard.total_cells)
                {
                    return Err(conflict(format!(
                        "query inputs disagree on the spec: {path} is {:?} (digest {}, {} \
                         cells) but earlier inputs are {name:?} (digest {digest}, {total} \
                         cells)",
                        shard.spec_name, shard.spec_digest, shard.total_cells
                    )));
                }
            }
        }
        for cell in shard.cells {
            if let Some(&first) = seen_in.get(&cell.cell) {
                let first = inputs[first];
                return Err(conflict(format!(
                    "cell {} appears in both {first} and {path}; drop one of the \
                     overlapping inputs",
                    cell.cell
                )));
            }
            seen_in.insert(cell.cell, input);
            cells.push(cell);
        }
    }
    Ok(cells)
}

/// Renders one query value for the text table.
fn render_query_value(v: &helios_core::store::Value) -> String {
    use helios_core::store::Value;
    match v {
        Value::U64(n) => n.to_string(),
        Value::U32(n) => n.to_string(),
        Value::F64(x) => format!("{x}"),
        Value::Bool(b) => b.to_string(),
        Value::Str(s) => s.clone(),
        Value::Null => "-".to_owned(),
    }
}

/// The aligned text rendering of a query result: columns sized to their
/// widest value, keys left-aligned like the sweep summary table.
fn write_query_table(
    result: &helios_core::QueryOutput,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let rendered: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|row| row.iter().map(render_query_value).collect())
        .collect();
    let widths: Vec<usize> = result
        .schema
        .iter()
        .enumerate()
        .map(|(i, name)| {
            rendered
                .iter()
                .map(|row| row[i].len())
                .chain(std::iter::once(name.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let write_row = |out: &mut dyn Write, fields: Vec<&str>| -> Result<(), CliError> {
        let mut line = String::new();
        for (i, field) in fields.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{field:<width$}", width = widths[i]));
        }
        writeln!(out, "{}", line.trim_end())?;
        Ok(())
    };
    write_row(out, result.schema.iter().map(String::as_str).collect())?;
    for row in &rendered {
        write_row(out, row.iter().map(String::as_str).collect())?;
    }
    writeln!(out, "({} row(s))", result.rows.len())?;
    Ok(())
}

/// The `--json` rendering of a query result: a JSON array with one
/// object per row, keys in SELECT order (built by hand so the order is
/// the plan's, not a map's).
fn write_query_json(
    result: &helios_core::QueryOutput,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    use helios_core::store::Value;
    if result.rows.is_empty() {
        writeln!(out, "[]")?;
        return Ok(());
    }
    writeln!(out, "[")?;
    for (r, row) in result.rows.iter().enumerate() {
        let mut obj = String::from("  {");
        for (i, (name, value)) in result.schema.iter().zip(row).enumerate() {
            if i > 0 {
                obj.push_str(", ");
            }
            obj.push_str(&serde_json::to_string(name)?);
            obj.push_str(": ");
            let json = match value {
                Value::U64(n) => serde_json::to_string(n)?,
                Value::U32(n) => serde_json::to_string(n)?,
                Value::F64(x) => serde_json::to_string(x)?,
                Value::Bool(b) => serde_json::to_string(b)?,
                Value::Str(s) => serde_json::to_string(s)?,
                Value::Null => "null".to_owned(),
            };
            obj.push_str(&json);
        }
        obj.push('}');
        if r + 1 < result.rows.len() {
            obj.push(',');
        }
        writeln!(out, "{obj}")?;
    }
    writeln!(out, "]")?;
    Ok(())
}

/// The legacy member-based ensemble campaign.
///
/// Members are given as repeated `--member path[:arrival[:priority]]`
/// options; arrival defaults to 0 s and priority to 1. The run uses the
/// default engine configuration, which draws no randomness, so it has
/// no seed.
fn campaign_members(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    use helios_core::{EnsembleMember, EnsemblePolicy, EnsembleRunner};
    use helios_sim::SimTime;

    let args = Args::parse(argv, &["member", "platform", "policy"], &[])?;
    let specs = args.get_all("member");
    if specs.is_empty() {
        return Err(CliError::Usage(
            "at least one --member path[:arrival[:priority]] is required".into(),
        ));
    }
    let mut members = Vec::new();
    for spec in specs {
        let mut parts = spec.split(':');
        let path = parts.next().expect("split yields at least one part");
        let arrival: f64 = match parts.next() {
            None => 0.0,
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("bad arrival in --member {spec:?}")))?,
        };
        let priority: f64 = match parts.next() {
            None => 1.0,
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("bad priority in --member {spec:?}")))?,
        };
        members.push(EnsembleMember {
            workflow: load_workflow(path)?,
            arrival: SimTime::try_from_secs(arrival)
                .map_err(|e| CliError::Usage(format!("bad arrival {arrival}: {e}")))?,
            priority,
        });
    }
    let policy = match args.get("policy").unwrap_or("fifo") {
        "fifo" => EnsemblePolicy::Fifo,
        "priority" => EnsemblePolicy::Priority,
        "fair-share" => EnsemblePolicy::FairShare,
        other => {
            return Err(CliError::Usage(format!(
                "unknown policy {other:?} (fifo, priority, fair-share)"
            )))
        }
    };
    let platform = platform_by_name(args.get("platform").unwrap_or("hpc_node"))?;
    let report = EnsembleRunner::new(EngineConfig::default(), policy).run(&platform, &members)?;
    writeln!(
        out,
        "campaign of {} members on {} ({}): makespan {:.4}s, mean turnaround {:.4}s",
        report.members.len(),
        platform.name(),
        policy.as_str(),
        report.makespan.as_secs(),
        report.mean_turnaround.as_secs()
    )?;
    for (i, m) in report.members.iter().enumerate() {
        writeln!(
            out,
            "  member {i}: started {:.4}s finished {:.4}s turnaround {:.4}s",
            m.started.as_secs(),
            m.finished.as_secs(),
            m.turnaround.as_secs()
        )?;
    }
    Ok(())
}

/// `helios fuzz` — the adversarial simulation harness.
///
/// Without `--replay`, generates `--runs` random campaign specs from
/// `--seed` and checks each against the differential oracles. The first
/// divergence is shrunk to a minimal spec and written as a replayable
/// fixture under `--bugbase` (default `tests/bugbase`), and the run
/// exits non-zero. A clean run prints a one-line summary.
///
/// With `--replay PATH`, re-runs one fixture (or every `*.json` fixture
/// in a directory) through the oracles; any divergence is a regression
/// and exits non-zero.
///
/// The `HELIOS_FUZZ_BREAK_ORACLE=<oracle>` environment hook sabotages
/// the named oracle so it fires on every (compatible) case — the CI
/// acceptance path proving that find → shrink → fixture → replay works
/// end to end.
pub fn fuzz(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    use helios_core::fuzz::{check_spec, generate_spec, shrink_spec, BugFixture, ORACLES};

    let args = Args::parse(argv, &["seed", "runs", "bugbase", "replay"], &[])?;
    let broken_owned: Option<String> = match std::env::var("HELIOS_FUZZ_BREAK_ORACLE") {
        Ok(name) => {
            if !ORACLES.contains(&name.as_str()) {
                return Err(CliError::Usage(format!(
                    "HELIOS_FUZZ_BREAK_ORACLE names unknown oracle {name:?}; oracles: {}",
                    ORACLES.join(", ")
                )));
            }
            Some(name)
        }
        Err(_) => None,
    };
    let broken = broken_owned.as_deref();

    if let Some(path) = args.get("replay") {
        return fuzz_replay(path, broken, out);
    }

    let seed = args.parse_or("seed", 0u64)?;
    let runs = args.parse_or("runs", 50usize)?;
    let bugbase = args.get("bugbase").unwrap_or("tests/bugbase");

    for case in 0..runs {
        let spec = generate_spec(seed, case);
        let Some(div) = check_spec(&spec, broken)? else {
            continue;
        };
        writeln!(
            out,
            "case {case} of seed {seed} diverges on oracle {}: {}",
            div.oracle, div.detail
        )?;
        let shrunk = shrink_spec(&spec, &div, broken);
        writeln!(
            out,
            "shrunk in {} steps ({} oracle evaluations): {} families x {} platforms x \
             {} schedulers x {} seeds, {} tasks",
            shrunk.steps,
            shrunk.evals,
            shrunk.spec.families.len(),
            shrunk.spec.platforms.len(),
            shrunk.spec.schedulers.len(),
            shrunk.spec.seeds.count,
            shrunk.spec.tasks
        )?;
        let fixture = BugFixture::new(&shrunk.divergence, seed, case, shrunk.steps, shrunk.spec);
        std::fs::create_dir_all(bugbase)?;
        let path = std::path::Path::new(bugbase).join(fixture.file_name());
        std::fs::write(&path, fixture.to_json()?)?;
        return Err(CliError::Helios(format!(
            "fuzzing found a divergence on oracle {}; minimal fixture written to \
             {} — replay with: helios fuzz --replay {}",
            fixture.oracle,
            path.display(),
            path.display()
        )));
    }
    writeln!(out, "fuzz: {runs} case(s) from seed {seed}, 0 divergences")?;
    Ok(())
}

/// Replays one fixture file, or every `*.json` fixture in a directory,
/// through the oracles.
fn fuzz_replay(path: &str, broken: Option<&str>, out: &mut dyn Write) -> Result<(), CliError> {
    use helios_core::fuzz::BugFixture;

    let root = std::path::Path::new(path);
    let mut files: Vec<std::path::PathBuf> = if root.is_dir() {
        std::fs::read_dir(root)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect()
    } else {
        vec![root.to_path_buf()]
    };
    files.sort();
    if files.is_empty() {
        return Err(CliError::Helios(format!(
            "no *.json fixtures under {path:?}; run `helios fuzz` to populate the bugbase"
        )));
    }

    let mut diverging = 0usize;
    for file in &files {
        let json = std::fs::read_to_string(file)
            .map_err(|e| CliError::Helios(format!("cannot read fixture {file:?}: {e}")))?;
        let fixture = BugFixture::from_json(&json)
            .map_err(|e| CliError::Helios(format!("fixture {file:?}: {e}")))?;
        match fixture.replay(broken)? {
            None => writeln!(
                out,
                "{}: clean (oracle {}, seed {} case {})",
                file.display(),
                fixture.oracle,
                fixture.fuzz_seed,
                fixture.case_index
            )?,
            Some(div) => {
                diverging += 1;
                writeln!(
                    out,
                    "{}: DIVERGES on oracle {}: {}",
                    file.display(),
                    div.oracle,
                    div.detail
                )?;
            }
        }
    }
    writeln!(
        out,
        "replayed {} fixture(s), {diverging} diverging",
        files.len()
    )?;
    if diverging > 0 {
        return Err(CliError::Helios(format!(
            "{diverging} fixture(s) diverge — a fixed bug has regressed"
        )));
    }
    Ok(())
}

/// `helios platforms` — list the presets.
pub fn platforms(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let _ = Args::parse(argv, &[], &[])?;
    for platform in presets::all() {
        writeln!(out, "{platform}")?;
        for d in platform.devices() {
            writeln!(out, "  {d}")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|&x| x.to_owned()).collect()
    }

    fn run_cmd(
        f: impl Fn(&[String], &mut dyn Write) -> Result<(), CliError>,
        a: &[&str],
    ) -> String {
        let mut buf = Vec::new();
        f(&argv(a), &mut buf).expect("command succeeds");
        String::from_utf8(buf).expect("utf8 output")
    }

    #[test]
    fn platform_resolution() {
        assert!(platform_by_name("workstation").is_ok());
        assert!(platform_by_name("hpc_node").is_ok());
        assert!(platform_by_name("cluster4").is_ok());
        assert!(platform_by_name("cluster0").is_err());
        assert!(platform_by_name("nope").is_err());
    }

    #[test]
    fn scheduler_resolution() {
        assert!(scheduler_by_name("heft").is_ok());
        assert!(scheduler_by_name("min-min").is_ok());
        match scheduler_by_name("sjf") {
            Err(e) => assert!(e.to_string().contains("available")),
            Ok(_) => panic!("sjf must not resolve"),
        }
    }

    #[test]
    fn generate_analyze_schedule_run_roundtrip() {
        let dir = std::env::temp_dir().join("helios-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let wf_path = dir.join("wf.json");
        let wf_str = wf_path.to_str().unwrap();

        let out = run_cmd(
            generate,
            &[
                "--family", "montage", "--tasks", "40", "--seed", "3", "--out", wf_str,
            ],
        );
        assert!(out.contains("wrote"));

        let out = run_cmd(
            analyze,
            &["--workflow", wf_str, "--platform", "workstation"],
        );
        assert!(out.contains("CCR"), "{out}");

        let out = run_cmd(
            schedule,
            &[
                "--workflow",
                wf_str,
                "--platform",
                "workstation",
                "--scheduler",
                "heft",
                "--gantt",
            ],
        );
        assert!(out.contains("makespan") && out.contains("SLR"), "{out}");

        let trace_path = dir.join("trace.json");
        let out = run_cmd(
            run,
            &[
                "--workflow",
                wf_str,
                "--platform",
                "workstation",
                "--noise",
                "0.1",
                "--seed",
                "4",
                "--contention",
                "--caching",
                "--trace",
                trace_path.to_str().unwrap(),
            ],
        );
        assert!(out.contains("makespan"), "{out}");
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(serde_json::from_str::<serde_json::Value>(&trace).is_ok());
    }

    #[test]
    fn generate_supports_layered_with_ccr() {
        let mut buf = Vec::new();
        generate(
            &argv(&[
                "--family", "layered", "--width", "4", "--levels", "3", "--ccr", "2.0",
            ]),
            &mut buf,
        )
        .unwrap();
        let json = String::from_utf8(buf).unwrap();
        let wf = wfio::from_json(json.lines().collect::<Vec<_>>().join("\n").as_str());
        assert!(wf.is_ok());
    }

    #[test]
    fn online_run_works() {
        let dir = std::env::temp_dir().join("helios-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let wf_path = dir.join("wf.json");
        run_cmd(
            generate,
            &[
                "--family",
                "sipht",
                "--tasks",
                "30",
                "--out",
                wf_path.to_str().unwrap(),
            ],
        );
        let out = run_cmd(run, &["--workflow", wf_path.to_str().unwrap(), "--online"]);
        assert!(out.contains("makespan"));
    }

    #[test]
    fn platforms_lists_presets() {
        let out = run_cmd(platforms, &[]);
        assert!(out.contains("workstation") && out.contains("edge_soc"));
    }
}

#[cfg(test)]
mod campaign_tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|&x| x.to_owned()).collect()
    }

    #[test]
    fn campaign_runs_multiple_members() {
        let dir = std::env::temp_dir().join("helios-cli-campaign");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        for (path, family) in [(&a, "montage"), (&b, "sipht")] {
            let mut buf = Vec::new();
            generate(
                &argv(&[
                    "--family",
                    family,
                    "--tasks",
                    "30",
                    "--out",
                    path.to_str().unwrap(),
                ]),
                &mut buf,
            )
            .unwrap();
        }
        let mut buf = Vec::new();
        campaign(
            &argv(&[
                "--member",
                a.to_str().unwrap(),
                "--member",
                &format!("{}:0.01:5", b.to_str().unwrap()),
                "--policy",
                "fair-share",
                "--platform",
                "workstation",
            ]),
            &mut buf,
        )
        .unwrap();
        let out = String::from_utf8(buf).unwrap();
        assert!(out.contains("campaign of 2 members"), "{out}");
        assert!(out.contains("member 1"), "{out}");
    }

    #[test]
    fn campaign_argument_validation() {
        let mut buf = Vec::new();
        assert!(campaign(&argv(&[]), &mut buf).is_err());
        assert!(campaign(&argv(&["--member", "x.json:notanumber"]), &mut buf).is_err());
        assert!(campaign(&argv(&["--member", "x.json", "--policy", "lifo"]), &mut buf).is_err());
    }

    const SPEC_JSON: &str = r#"{
        "name": "cli-smoke",
        "families": ["montage"],
        "platforms": ["workstation"],
        "schedulers": ["heft", "olb"],
        "seeds": {"base": 0, "count": 2},
        "tasks": 20
    }"#;

    #[test]
    fn campaign_run_merge_roundtrip_is_byte_identical() {
        let dir = std::env::temp_dir().join("helios-cli-campaign-spec");
        // Stale outputs from earlier runs would trigger resume semantics.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("spec.json");
        std::fs::write(&spec, SPEC_JSON).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();

        let mut buf = Vec::new();
        campaign(
            &argv(&[
                "run",
                "--spec",
                &path("spec.json"),
                "--out",
                &path("full.json"),
            ]),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("sweep \"cli-smoke\""), "{text}");
        assert!(text.contains("olb"), "{text}");

        for shard in ["1/2", "2/2"] {
            let out_file = path(&format!("s{}.json", &shard[..1]));
            let mut buf = Vec::new();
            campaign(
                &argv(&[
                    "run",
                    "--spec",
                    &path("spec.json"),
                    "--shard",
                    shard,
                    "--out",
                    &out_file,
                ]),
                &mut buf,
            )
            .unwrap();
            assert!(String::from_utf8(buf).unwrap().contains("2 of 4 cells"));
        }
        let mut buf = Vec::new();
        campaign(
            &argv(&[
                "merge",
                "--in",
                &path("s1.json"),
                "--in",
                &path("s2.json"),
                "--out",
                &path("merged.json"),
            ]),
            &mut buf,
        )
        .unwrap();
        let full = std::fs::read(dir.join("full.json")).unwrap();
        let merged = std::fs::read(dir.join("merged.json")).unwrap();
        assert_eq!(full, merged, "merged shards must equal the unsharded run");
    }

    #[test]
    fn campaign_spec_errors_are_hard_and_actionable() {
        let dir = std::env::temp_dir().join("helios-cli-campaign-spec-err");
        // Stale outputs from earlier runs would trigger resume semantics.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // Malformed JSON.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{not json").unwrap();
        let mut buf = Vec::new();
        let err = campaign(&argv(&["run", "--spec", bad.to_str().unwrap()]), &mut buf)
            .unwrap_err()
            .to_string();
        assert!(err.contains("malformed campaign spec"), "{err}");

        // Empty grid axis.
        let empty = dir.join("empty.json");
        std::fs::write(&empty, SPEC_JSON.replace(r#"["heft", "olb"]"#, "[]")).unwrap();
        let err = campaign(&argv(&["run", "--spec", empty.to_str().unwrap()]), &mut buf)
            .unwrap_err()
            .to_string();
        assert!(err.contains("`schedulers` is empty"), "{err}");

        // Missing file, bad shard syntax, shard without --out.
        let err = campaign(&argv(&["run", "--spec", "/nonexistent/s.json"]), &mut buf)
            .unwrap_err()
            .to_string();
        assert!(err.contains("cannot read spec file"), "{err}");
        let spec = dir.join("ok.json");
        std::fs::write(&spec, SPEC_JSON).unwrap();
        let ok = spec.to_str().unwrap();
        assert!(campaign(&argv(&["run", "--spec", ok, "--shard", "9"]), &mut buf).is_err());
        let err = campaign(&argv(&["run", "--spec", ok, "--shard", "1/2"]), &mut buf)
            .unwrap_err()
            .to_string();
        assert!(err.contains("--out"), "{err}");

        // merge with no inputs, and with an unmergeable (incomplete) set.
        assert!(campaign(&argv(&["merge"]), &mut buf).is_err());
        let shard = dir.join("half.json");
        campaign(
            &argv(&[
                "run",
                "--spec",
                ok,
                "--shard",
                "1/2",
                "--out",
                shard.to_str().unwrap(),
            ]),
            &mut buf,
        )
        .unwrap();
        let err = campaign(&argv(&["merge", "--in", shard.to_str().unwrap()]), &mut buf)
            .unwrap_err()
            .to_string();
        assert!(err.contains("incomplete partition"), "{err}");
    }

    #[test]
    fn store_run_mixed_merge_and_query_roundtrip() {
        let dir = std::env::temp_dir().join("helios-cli-campaign-store");
        // Stale outputs from earlier runs would trigger resume semantics.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("spec.json");
        std::fs::write(&spec, SPEC_JSON).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();

        let mut buf = Vec::new();
        campaign(
            &argv(&[
                "run",
                "--spec",
                &path("spec.json"),
                "--out",
                &path("full.json"),
            ]),
            &mut buf,
        )
        .unwrap();

        // Shard 1 to a columnar store, shard 2 to a plain JSON report:
        // merge must accept the mix and reproduce the unsharded bytes.
        let mut buf = Vec::new();
        campaign(
            &argv(&[
                "run",
                "--spec",
                &path("spec.json"),
                "--shard",
                "1/2",
                "--store",
                &path("s1.store"),
            ]),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("2 of 4 cells stored"), "{text}");
        let mut buf = Vec::new();
        campaign(
            &argv(&[
                "run",
                "--spec",
                &path("spec.json"),
                "--shard",
                "2/2",
                "--out",
                &path("s2.json"),
            ]),
            &mut buf,
        )
        .unwrap();
        let mut buf = Vec::new();
        campaign(
            &argv(&[
                "merge",
                "--in",
                &path("s1.store"),
                "--in",
                &path("s2.json"),
                "--out",
                &path("merged.json"),
            ]),
            &mut buf,
        )
        .unwrap();
        let full = std::fs::read(dir.join("full.json")).unwrap();
        let merged = std::fs::read(dir.join("merged.json")).unwrap();
        assert_eq!(
            full, merged,
            "store+JSON merge must equal the unsharded run"
        );

        // The same aggregate through `helios query` must not depend on
        // whether the rows come from stores or from the JSON report.
        let q = "SELECT scheduler, count(*), avg_completed(makespan_secs) GROUP BY scheduler";
        let run_query = |inputs: &[&str]| {
            let mut a = vec![q.to_owned()];
            for i in inputs {
                a.push("--in".to_owned());
                a.push((*i).to_owned());
            }
            a.push("--json".to_owned());
            let mut buf = Vec::new();
            query(&a, &mut buf).unwrap();
            String::from_utf8(buf).unwrap()
        };
        let over_stores = run_query(&[&path("s1.store"), &path("s2.json")]);
        let over_report = run_query(&[&path("full.json")]);
        assert_eq!(over_stores, over_report);
        assert!(
            over_report.contains("\"scheduler\": \"heft\""),
            "{over_report}"
        );

        // Resuming the finished store is a no-op run with salvage.
        let mut buf = Vec::new();
        campaign(
            &argv(&[
                "run",
                "--spec",
                &path("spec.json"),
                "--shard",
                "1/2",
                "--store",
                &path("s1.store"),
            ]),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("resumed"), "{text}");
    }

    #[test]
    fn query_argument_and_input_validation() {
        let dir = std::env::temp_dir().join("helios-cli-query-err");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut buf = Vec::new();

        // No expression / flag in expression position / no inputs.
        assert!(query(&argv(&[]), &mut buf).is_err());
        assert!(query(&argv(&["--in", "x.json"]), &mut buf).is_err());
        assert!(query(&argv(&["SELECT *"]), &mut buf).is_err());

        // --journal and --store are mutually exclusive on campaign run.
        let spec = dir.join("spec.json");
        std::fs::write(&spec, SPEC_JSON).unwrap();
        let err = campaign(
            &argv(&[
                "run",
                "--spec",
                spec.to_str().unwrap(),
                "--journal",
                "a.journal",
                "--store",
                "a.store",
            ]),
            &mut buf,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("pick one"), "{err}");

        // A bad expression surfaces the typed error naming the token.
        let report = dir.join("r.json");
        campaign(
            &argv(&[
                "run",
                "--spec",
                spec.to_str().unwrap(),
                "--out",
                report.to_str().unwrap(),
            ]),
            &mut buf,
        )
        .unwrap();
        let err = query(
            &argv(&["SELECT frobnicate", "--in", report.to_str().unwrap()]),
            &mut buf,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("invalid query at \"frobnicate\""), "{err}");

        // Inputs from different campaigns are refused.
        let other_spec = dir.join("spec2.json");
        std::fs::write(&other_spec, SPEC_JSON.replace("cli-smoke", "cli-other")).unwrap();
        let other = dir.join("r2.json");
        campaign(
            &argv(&[
                "run",
                "--spec",
                other_spec.to_str().unwrap(),
                "--out",
                other.to_str().unwrap(),
            ]),
            &mut buf,
        )
        .unwrap();
        let err = query(
            &argv(&[
                "SELECT count(*)",
                "--in",
                report.to_str().unwrap(),
                "--in",
                other.to_str().unwrap(),
            ]),
            &mut buf,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("disagree on the spec"), "{err}");

        // The same file twice repeats every cell.
        let err = query(
            &argv(&[
                "SELECT count(*)",
                "--in",
                report.to_str().unwrap(),
                "--in",
                report.to_str().unwrap(),
            ]),
            &mut buf,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("appears in both"), "{err}");
    }
}
