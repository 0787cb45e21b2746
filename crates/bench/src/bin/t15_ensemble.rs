//! Experiment T15 — ensemble arbitration policies.
//!
//! A campaign of four workflows (two CyberShake, one LIGO, one Montage)
//! arrives over 0.3 s on the `hpc_node`; each arbitration policy runs
//! the same campaign (6 seeds). Rows report mean turnaround of the
//! high-priority member, mean turnaround across members, the spread
//! between best- and worst-served member, and overall makespan.
//!
//! The 18 (policy, seed) cells are independent simulations, so they run
//! through [`CampaignEngine`]: pass `--jobs N` to use N worker threads
//! (default 1; 0 = one per hardware thread). The table is aggregated in
//! cell order and is identical for every `--jobs` value.
//!
//! Alternatively, `--spec grid.json` runs a declarative
//! [`CampaignSpec`] sweep instead of the built-in policy table
//! (optionally one `--shard K/N` of it, written to `--out FILE`), so
//! the same harness drives file-defined campaign grids.

use helios_bench::{print_header, Agg};
use helios_core::{
    CampaignEngine, CampaignSpec, EngineConfig, EnsembleMember, EnsemblePolicy, EnsembleRunner,
    ShardSpec, SweepDriver,
};
use helios_platform::presets;
use helios_sim::SimTime;
use helios_workflow::generators::{cybershake, ligo_inspiral, montage};

const POLICIES: [EnsemblePolicy; 3] = [
    EnsemblePolicy::Fifo,
    EnsemblePolicy::Priority,
    EnsemblePolicy::FairShare,
];
const SEEDS: u64 = 6;

#[derive(Default)]
struct CliArgs {
    jobs: usize,
    spec: Option<String>,
    shard: Option<String>,
    out: Option<String>,
}

fn parse_args() -> Result<CliArgs, String> {
    let mut args = CliArgs {
        jobs: 1,
        ..CliArgs::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--jobs" => {
                let v = value("--jobs")?;
                args.jobs = v
                    .parse()
                    .map_err(|_| format!("--jobs {v:?} is not a number"))?;
            }
            "--spec" => args.spec = Some(value("--spec")?),
            "--shard" => args.shard = Some(value("--shard")?),
            "--out" => args.out = Some(value("--out")?),
            other => {
                return Err(format!(
                    "usage: t15_ensemble [--jobs N] [--spec FILE [--shard K/N] [--out FILE]], \
                     got {other:?}"
                ))
            }
        }
    }
    if args.spec.is_none() && (args.shard.is_some() || args.out.is_some()) {
        return Err("--shard/--out require --spec".into());
    }
    Ok(args)
}

/// Runs a declarative sweep spec instead of the built-in policy table.
fn run_spec(args: &CliArgs) -> Result<(), Box<dyn std::error::Error>> {
    let path = args.spec.as_deref().expect("caller checked --spec");
    let spec = CampaignSpec::from_json(&std::fs::read_to_string(path)?)?;
    let driver = SweepDriver::new(args.jobs);
    if let Some(shard) = &args.shard {
        let shard = ShardSpec::parse(shard)?;
        let out = args
            .out
            .as_deref()
            .ok_or("--shard produces a partial result; --out FILE is required")?;
        let report = driver.run_shard(&spec, shard)?;
        std::fs::write(out, serde_json::to_string_pretty(&report)?)?;
        println!(
            "shard {shard} of {:?}: {} of {} cells -> {out}",
            report.spec_name,
            report.cells.len(),
            report.total_cells
        );
        return Ok(());
    }
    let report = driver.run(&spec)?;
    print_header(&[
        "family",
        "platform",
        "scheduler",
        "cells",
        "makespan (s)",
        "SLR",
        "energy (J)",
    ]);
    for row in &report.summary() {
        let dash = |v: Option<f64>, prec: usize| match v {
            Some(v) => format!("{v:.prec$}"),
            None => "-".to_owned(),
        };
        println!(
            "{:>16}{:>16}{:>16}{:>16}{:>16}{:>16}{:>16}",
            row.family,
            row.platform,
            row.scheduler,
            row.cells,
            dash(row.mean_makespan_secs, 4),
            dash(row.mean_slr, 3),
            dash(row.mean_energy_j, 1)
        );
    }
    if let Some(out) = &args.out {
        std::fs::write(out, serde_json::to_string_pretty(&report)?)?;
        println!("wrote {out}");
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args()?;
    if args.spec.is_some() {
        return run_spec(&args);
    }
    let jobs = args.jobs;
    let platform = presets::hpc_node();
    print_header(&[
        "policy",
        "VIP t/a (s)",
        "mean t/a (s)",
        "spread (s)",
        "makespan (s)",
    ]);

    // One cell per (policy, seed) pair, in row-major order so the
    // aggregation below reads each policy's seeds contiguously.
    let cells: Vec<(EnsemblePolicy, u64)> = POLICIES
        .iter()
        .flat_map(|&p| (0..SEEDS).map(move |s| (p, s)))
        .collect();
    let reports = CampaignEngine::new(jobs).run(&cells, |_, &(policy, seed)| {
        let members = [
            EnsembleMember {
                workflow: cybershake(150, seed)?,
                arrival: SimTime::ZERO,
                priority: 1.0,
            },
            EnsembleMember {
                workflow: ligo_inspiral(150, seed + 100)?,
                arrival: SimTime::from_secs(0.1),
                priority: 10.0, // the VIP
            },
            EnsembleMember {
                workflow: montage(150, seed + 200)?,
                arrival: SimTime::from_secs(0.2),
                priority: 1.0,
            },
            EnsembleMember {
                workflow: cybershake(150, seed + 300)?,
                arrival: SimTime::from_secs(0.3),
                priority: 1.0,
            },
        ];
        EnsembleRunner::new(EngineConfig::default(), policy).run(&platform, &members)
    })?;

    for (p, policy) in POLICIES.iter().enumerate() {
        let mut vip = Agg::new();
        let mut mean = Agg::new();
        let mut spread = Agg::new();
        let mut makespan = Agg::new();
        for report in &reports[p * SEEDS as usize..(p + 1) * SEEDS as usize] {
            vip.push(report.members[1].turnaround.as_secs());
            mean.push(report.mean_turnaround.as_secs());
            let tas: Vec<f64> = report
                .members
                .iter()
                .map(|m| m.turnaround.as_secs())
                .collect();
            let max = tas.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let min = tas.iter().copied().fold(f64::INFINITY, f64::min);
            spread.push(max - min);
            makespan.push(report.makespan.as_secs());
        }
        println!(
            "{:>16}{:>16.4}{:>16.4}{:>16.4}{:>16.4}",
            policy.as_str(),
            vip.mean(),
            mean.mean(),
            spread.mean(),
            makespan.mean()
        );
    }
    Ok(())
}
