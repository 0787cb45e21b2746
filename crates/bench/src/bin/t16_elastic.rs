//! Experiment T16 — scheduler robustness under elastic capacity.
//!
//! Every scheduler in the lineup plans CyberShake-300 on `hpc_node`,
//! then executes under a spot-preemption plan: two GPUs are preempted
//! early with short notice and re-acquired later, and a third GPU runs
//! a stochastic spot-churn renewal. Recovery is work-conserving
//! retry-backoff, so the makespan delta against the same scheduler's
//! static run isolates what capacity volatility costs each plan shape
//! (6 seeds). Rows report mean static and elastic makespan, the
//! degradation, preemption/migration counts and the utilization the
//! re-acquired devices achieve.
//!
//! Part 2: the same spot plan under HEFT, one row per recovery policy.
//! Work-conserving retry never routes work back to a re-acquired
//! device (join utilization pins at zero); reschedule re-ranks the
//! remaining workload onto the enlarged platform and is the only
//! policy that converts re-acquired capacity into makespan.

use helios_bench::{print_header, Agg};
use helios_core::{
    ElasticEvent, ElasticEventKind, ElasticityConfig, EngineConfig, FailureModel, IncompleteReason,
    RecoveryPolicy, ResilienceConfig, ResilientRunner,
};
use helios_platform::presets;
use helios_sched::all_schedulers;
use helios_workflow::generators::cybershake;

/// The spot-preemption plan: gpu0/gpu1 preempted at staggered times and
/// re-acquired, gpu2 on a stochastic churn renewal.
fn spot_plan() -> ElasticityConfig {
    let ev = |device: &str, at_secs: f64, kind: ElasticEventKind| ElasticEvent {
        device: device.into(),
        at_secs,
        kind,
    };
    ElasticityConfig {
        events: vec![
            ev(
                "gpu0",
                0.01,
                ElasticEventKind::Preempt { notice_secs: 0.002 },
            ),
            ev(
                "gpu1",
                0.03,
                ElasticEventKind::Preempt { notice_secs: 0.002 },
            ),
            ev("gpu0", 0.08, ElasticEventKind::Join),
            ev("gpu1", 0.12, ElasticEventKind::Join),
        ],
        churn: vec![helios_core::ElasticChurn {
            device: "gpu2".into(),
            mtbp_secs: 0.06,
            weibull_shape: None,
            notice_secs: 0.002,
            rejoin_secs: 0.03,
        }],
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let platform = presets::hpc_node();
    let seeds = 0..6u64;
    // Failures never fire: capacity volatility is the only perturbation.
    let resilience = || {
        ResilienceConfig::new(
            FailureModel::exponential(1.0e12),
            RecoveryPolicy::RetryBackoff {
                base_secs: 0.001,
                factor: 2.0,
                cap_secs: 0.01,
                max_retries: 10_000_000,
            },
        )
    };
    print_header(&[
        "scheduler",
        "static (s)",
        "elastic (s)",
        "overhead %",
        "preempts",
        "migrated",
        "join util",
        "completion",
    ]);
    for scheduler in all_schedulers() {
        let mut static_ms = Agg::new();
        let mut elastic_ms = Agg::new();
        let mut preempts = Agg::new();
        let mut migrated = Agg::new();
        let mut join_util = Agg::new();
        let mut done = 0usize;
        let mut total = 0usize;
        for seed in seeds.clone() {
            let wf = cybershake(300, seed)?;
            let base = ResilientRunner::new(EngineConfig {
                seed,
                noise_cv: 0.05,
                resilience: Some(resilience()),
                ..Default::default()
            })
            .run(&platform, &wf, scheduler.as_ref())?;
            static_ms.push(base.makespan().as_secs());
            let config = EngineConfig {
                seed,
                noise_cv: 0.05,
                resilience: Some(resilience()),
                elasticity: Some(spot_plan()),
                ..Default::default()
            };
            total += 1;
            match ResilientRunner::new(config).run(&platform, &wf, scheduler.as_ref()) {
                Ok(report) => {
                    let m = report.elasticity().expect("metrics attached");
                    elastic_ms.push(report.makespan().as_secs());
                    preempts.push(f64::from(m.preemptions));
                    migrated.push(f64::from(m.drain_migrated_tasks));
                    join_util.push(m.join_utilization);
                    done += 1;
                }
                // Lost workloads are measurements: they depress the
                // completion column instead of aborting the experiment.
                Err(e) if IncompleteReason::from_error(&e).is_some() => {}
                Err(other) => return Err(other.into()),
            }
        }
        println!(
            "{:>16}{:>16.4}{:>16.4}{:>16.1}{:>16.1}{:>16.1}{:>16.2}{:>16.2}",
            scheduler.name(),
            static_ms.mean(),
            elastic_ms.mean(),
            (elastic_ms.mean() / static_ms.mean() - 1.0) * 100.0,
            preempts.mean(),
            migrated.mean(),
            join_util.mean(),
            done as f64 / total as f64
        );
    }

    // Part 2: recovery policies under the same spot plan (HEFT).
    println!();
    print_header(&[
        "policy",
        "elastic (s)",
        "preempts",
        "migrated",
        "join util",
        "completion",
    ]);
    let policies: [RecoveryPolicy; 4] = [
        RecoveryPolicy::RetryBackoff {
            base_secs: 0.001,
            factor: 2.0,
            cap_secs: 0.01,
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
            overhead_secs: 0.002,
            max_retries: 10_000_000,
        },
    ];
    let heft = helios_sched::HeftScheduler::default();
    for policy in &policies {
        let mut elastic_ms = Agg::new();
        let mut preempts = Agg::new();
        let mut migrated = Agg::new();
        let mut join_util = Agg::new();
        let mut done = 0usize;
        let mut total = 0usize;
        for seed in seeds.clone() {
            let wf = cybershake(300, seed)?;
            let config = EngineConfig {
                seed,
                noise_cv: 0.05,
                resilience: Some(ResilienceConfig::new(
                    FailureModel::exponential(1.0e12),
                    policy.clone(),
                )),
                elasticity: Some(spot_plan()),
                ..Default::default()
            };
            total += 1;
            match ResilientRunner::new(config).run(&platform, &wf, &heft) {
                Ok(report) => {
                    let m = report.elasticity().expect("metrics attached");
                    elastic_ms.push(report.makespan().as_secs());
                    preempts.push(f64::from(m.preemptions));
                    migrated.push(f64::from(m.drain_migrated_tasks));
                    join_util.push(m.join_utilization);
                    done += 1;
                }
                Err(e) if IncompleteReason::from_error(&e).is_some() => {}
                Err(other) => return Err(other.into()),
            }
        }
        println!(
            "{:>16}{:>16.4}{:>16.1}{:>16.1}{:>16.2}{:>16.2}",
            policy.name(),
            elastic_ms.mean(),
            preempts.mean(),
            migrated.mean(),
            join_util.mean(),
            done as f64 / total as f64
        );
    }
    Ok(())
}
