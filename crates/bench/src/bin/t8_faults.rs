//! Experiment T8 — fault-tolerance overhead.
//!
//! Part 1: CyberShake-500 on `hpc_node` under Poisson device failures
//! at three MTBF settings, with and without checkpointing; rows report
//! makespan overhead over the fault-free run, failures and retries
//! (6 seeds).
//!
//! Part 2: the same workload under the full failure-domain model
//! (transient/degraded/permanent at MTBF 0.25 s), one row per recovery
//! policy; rows report makespan degradation over each policy's own
//! fault-free baseline, wasted work, recovery overhead and completion
//! probability.
//!
//! Part 3: fault-class decomposition. Each recovery policy runs under
//! three isolated fault classes — link-only (interconnect outages and
//! bandwidth degradations, no device failures), correlated (a rack
//! failure domain covering two GPUs and the NVLink mesh) and
//! device-only (the Part 2 model) — and rows additionally report
//! reroutes over the fallback link, partition downtime and
//! lineage-driven re-materialization.

use helios_bench::{print_header, Agg};
use helios_core::{
    Engine, EngineConfig, FailureDomain, FailureModel, IncompleteReason, LinkFaultModel,
    RecoveryPolicy, ResilienceConfig, ResilientRunner,
};
use helios_platform::presets;
use helios_sched::{HeftScheduler, Scheduler};
use helios_workflow::generators::cybershake;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let platform = presets::hpc_node();
    let seeds = 0..6u64;
    print_header(&[
        "MTBF (s)",
        "checkpoint",
        "makespan (s)",
        "overhead %",
        "failures",
        "energy (J)",
    ]);

    // Fault-free baseline.
    let mut base = Agg::new();
    for seed in seeds.clone() {
        let wf = cybershake(500, seed)?;
        let plan = HeftScheduler::default().schedule(&wf, &platform)?;
        let report = Engine::new(EngineConfig::default()).execute_plan(&platform, &wf, &plan)?;
        base.push(report.makespan().as_secs());
    }
    println!(
        "{:>16}{:>16}{:>16.4}{:>16.1}{:>16}{:>16}",
        "inf",
        "-",
        base.mean(),
        0.0,
        0,
        "-"
    );

    for mtbf in [1.0, 0.25, 0.1] {
        for ckpt in [false, true] {
            let mut makespan = Agg::new();
            let mut failures = Agg::new();
            let mut energy = Agg::new();
            for seed in seeds.clone() {
                let wf = cybershake(500, seed)?;
                let plan = HeftScheduler::default().schedule(&wf, &platform)?;
                let policy = if ckpt {
                    RecoveryPolicy::CheckpointRestart {
                        interval_secs: 0.01,
                        overhead_secs: 5e-4,
                        max_retries: 10_000_000,
                    }
                } else {
                    RecoveryPolicy::flat_retry(10_000_000)
                };
                let config = EngineConfig {
                    seed,
                    resilience: Some(ResilienceConfig::new(
                        FailureModel {
                            restart_overhead_secs: 0.005,
                            ..FailureModel::exponential(mtbf)
                        },
                        policy,
                    )),
                    ..Default::default()
                };
                let report = Engine::new(config).execute_plan(&platform, &wf, &plan)?;
                makespan.push(report.makespan().as_secs());
                failures.push(f64::from(report.failures()));
                energy.push(report.energy().total_j());
            }
            println!(
                "{:>16}{:>16}{:>16.4}{:>16.1}{:>16.1}{:>16.1}",
                mtbf,
                if ckpt { "yes" } else { "no" },
                makespan.mean(),
                (makespan.mean() / base.mean() - 1.0) * 100.0,
                failures.mean(),
                energy.mean()
            );
        }
    }

    // Part 2: recovery policies under the full failure-domain model.
    println!();
    print_header(&[
        "policy",
        "makespan (s)",
        "degradation %",
        "wasted (s)",
        "recovery (s)",
        "completion",
    ]);
    let policies: [RecoveryPolicy; 4] = [
        RecoveryPolicy::RetryBackoff {
            base_secs: 0.005,
            factor: 2.0,
            cap_secs: 0.05,
            max_retries: 10_000_000,
        },
        RecoveryPolicy::ReplicateK {
            replicas: 2,
            max_retries: 10_000_000,
        },
        RecoveryPolicy::CheckpointRestart {
            interval_secs: 0.01,
            overhead_secs: 5e-4,
            max_retries: 10_000_000,
        },
        RecoveryPolicy::Reschedule {
            scheduler: "heft".into(),
            overhead_secs: 0.01,
            max_retries: 10_000_000,
        },
    ];
    for policy in &policies {
        let mut makespan = Agg::new();
        let mut degradation = Agg::new();
        let mut wasted = Agg::new();
        let mut recovery = Agg::new();
        let mut done = 0usize;
        let mut total = 0usize;
        for seed in seeds.clone() {
            let wf = cybershake(500, seed)?;
            let plan = HeftScheduler::default().schedule(&wf, &platform)?;
            let mut failures = FailureModel::exponential(0.25);
            failures.degraded_prob = 0.08;
            failures.permanent_prob = 0.02;
            failures.degraded_slowdown = 2.0;
            failures.degraded_repair_secs = 0.1;
            failures.restart_overhead_secs = 0.005;
            let config = EngineConfig {
                seed,
                resilience: Some(ResilienceConfig::new(failures, policy.clone())),
                ..Default::default()
            };
            total += 1;
            match ResilientRunner::new(config).execute_plan(&platform, &wf, &plan) {
                Ok(report) => {
                    let m = report.resilience().expect("metrics attached");
                    makespan.push(report.makespan().as_secs());
                    degradation.push(m.makespan_degradation * 100.0);
                    wasted.push(m.wasted_work_secs);
                    recovery.push(m.recovery_overhead_secs);
                    done += 1;
                }
                // Lost workloads are measurements: they depress the
                // completion column instead of aborting the experiment.
                Err(e) if IncompleteReason::from_error(&e).is_some() => {}
                Err(other) => return Err(other.into()),
            }
        }
        println!(
            "{:>16}{:>16.4}{:>16.1}{:>16.3}{:>16.3}{:>16.2}",
            policy.name(),
            makespan.mean(),
            degradation.mean(),
            wasted.mean(),
            recovery.mean(),
            done as f64 / total as f64
        );
    }

    // Part 3: fault-class decomposition. The same policies, but the
    // fault process is restricted to one class at a time so each row
    // isolates what that class alone costs.
    println!();
    print_header(&[
        "class",
        "policy",
        "degradation %",
        "reroutes",
        "partition (s)",
        "remat tasks",
        "completion",
    ]);
    let device_model = || {
        let mut failures = FailureModel::exponential(0.25);
        failures.degraded_prob = 0.08;
        failures.permanent_prob = 0.02;
        failures.degraded_slowdown = 2.0;
        failures.degraded_repair_secs = 0.1;
        failures.restart_overhead_secs = 0.005;
        failures
    };
    // An astronomically long device MTTF isolates the other classes.
    let no_device_faults = || FailureModel::exponential(1.0e12);
    let mut link_model = LinkFaultModel::exponential(0.05);
    link_model.degraded_prob = 0.3;
    link_model.outage_secs = 0.02;
    let rack = FailureDomain {
        kind: "rack".into(),
        name: "rack0".into(),
        devices: vec!["gpu0".into(), "gpu1".into()],
        links: vec!["nvlink".into()],
        mttf_secs: 0.05,
        weibull_shape: None,
        degraded_prob: 0.3,
        permanent_prob: 0.05,
        outage_secs: 0.02,
    };
    let classes: [(&str, ResilienceConfig); 3] = [
        (
            "link-only",
            ResilienceConfig::new(no_device_faults(), policies[0].clone())
                .with_link_faults(link_model.clone()),
        ),
        (
            "correlated",
            ResilienceConfig::new(no_device_faults(), policies[0].clone())
                .with_domains(vec![rack.clone()]),
        ),
        (
            "device-only",
            ResilienceConfig::new(device_model(), policies[0].clone()),
        ),
    ];
    for (class, res) in &classes {
        for policy in &policies {
            let mut degradation = Agg::new();
            let mut reroutes = Agg::new();
            let mut partition = Agg::new();
            let mut remat = Agg::new();
            let mut done = 0usize;
            let mut total = 0usize;
            for seed in seeds.clone() {
                let wf = cybershake(500, seed)?;
                let plan = HeftScheduler::default().schedule(&wf, &platform)?;
                let res = ResilienceConfig {
                    policy: policy.clone(),
                    ..res.clone()
                };
                let config = EngineConfig {
                    seed,
                    resilience: Some(res),
                    ..Default::default()
                };
                total += 1;
                match ResilientRunner::new(config).execute_plan(&platform, &wf, &plan) {
                    Ok(report) => {
                        let m = report.resilience().expect("metrics attached");
                        degradation.push(m.makespan_degradation * 100.0);
                        reroutes.push(f64::from(m.reroutes));
                        partition.push(m.partition_downtime_secs);
                        remat.push(f64::from(m.rematerialized_tasks));
                        done += 1;
                    }
                    Err(e) if IncompleteReason::from_error(&e).is_some() => {}
                    Err(other) => return Err(other.into()),
                }
            }
            println!(
                "{:>16}{:>16}{:>16.1}{:>16.1}{:>16.4}{:>16.1}{:>16.2}",
                class,
                policy.name(),
                degradation.mean(),
                reroutes.mean(),
                partition.mean(),
                remat.mean(),
                done as f64 / total as f64
            );
        }
    }
    Ok(())
}
