//! Cross-crate behavioural tests of the execution engine: determinism,
//! noise, faults, checkpointing, contention, online adaptation and the
//! threaded executor.

use helios::core::{
    Engine, EngineConfig, FailureModel, OnlinePolicy, OnlineRunner, RecoveryPolicy,
    ResilienceConfig,
};
use helios::energy::{reclaim_slack, Powersave};
use helios::platform::presets;
use helios::sched::{HeftScheduler, Scheduler};
use helios::sim::SimTime;
use helios::workflow::generators::{cybershake, epigenomics, montage};

/// Exponential transient-only failures under checkpoint-restart, with a
/// retry budget that never runs out.
fn checkpointed(
    mttf_secs: f64,
    restart_overhead_secs: f64,
    interval_secs: f64,
    overhead_secs: f64,
) -> Option<ResilienceConfig> {
    Some(ResilienceConfig::new(
        FailureModel {
            restart_overhead_secs,
            ..FailureModel::exponential(mttf_secs)
        },
        RecoveryPolicy::CheckpointRestart {
            interval_secs,
            overhead_secs,
            max_retries: 1_000_000,
        },
    ))
}

#[test]
fn report_is_fully_deterministic() {
    let platform = presets::hpc_node();
    let wf = montage(80, 21).unwrap();
    let config = EngineConfig {
        noise_cv: 0.4,
        seed: 1234,
        link_contention: true,
        resilience: checkpointed(0.05, 0.001, 0.005, 1e-4),
        ..Default::default()
    };
    let plan = HeftScheduler::default().schedule(&wf, &platform).unwrap();
    let a = Engine::new(config.clone())
        .execute_plan(&platform, &wf, &plan)
        .unwrap();
    let b = Engine::new(config)
        .execute_plan(&platform, &wf, &plan)
        .unwrap();
    assert_eq!(a, b);
    let json = serde_json::to_string(&a).unwrap();
    let back: helios::core::ExecutionReport = serde_json::from_str(&json).unwrap();
    assert_eq!(a, back, "reports must round-trip through JSON");
}

#[test]
fn fault_overhead_grows_as_mtbf_shrinks() {
    let platform = presets::hpc_node();
    let wf = cybershake(100, 9).unwrap();
    let plan = HeftScheduler::default().schedule(&wf, &platform).unwrap();
    let mut last = 0.0;
    for mtbf in [1.0, 0.2, 0.05] {
        let config = EngineConfig {
            seed: 3,
            resilience: checkpointed(mtbf, 0.002, 0.01, 2e-4),
            ..Default::default()
        };
        let report = Engine::new(config)
            .execute_plan(&platform, &wf, &plan)
            .unwrap();
        let makespan = report.makespan().as_secs();
        assert!(
            makespan >= last,
            "mtbf {mtbf}: makespan {makespan} should not shrink from {last}"
        );
        last = makespan;
    }
}

#[test]
fn slack_reclaimed_plan_executes_within_deadline() {
    // The full loop: plan → reclaim slack → execute → realized makespan
    // still meets the deadline under ideal conditions.
    let platform = presets::hpc_node();
    let wf = epigenomics(80, 4).unwrap();
    let plan = HeftScheduler::default().schedule(&wf, &platform).unwrap();
    let deadline = SimTime::ZERO + plan.makespan() * 1.4;
    let relaxed = reclaim_slack(&plan, &wf, &platform, deadline).unwrap();
    let report = Engine::new(EngineConfig::default())
        .execute_plan(&platform, &wf, &relaxed)
        .unwrap();
    assert!(
        report.makespan().as_secs() <= deadline.as_secs() + 1e-6,
        "realized {} vs deadline {deadline}",
        report.makespan()
    );
    // Lower-voltage states must actually be used.
    let below_nominal = report
        .schedule()
        .placements()
        .iter()
        .filter(|p| {
            let dev = platform.device(p.device).unwrap();
            p.level != dev.nominal_level()
        })
        .count();
    assert!(
        below_nominal > 0,
        "reclamation must engage lower DVFS states"
    );
}

#[test]
fn online_calibration_routes_around_throttled_devices() {
    let platform = presets::hpc_node();
    let mut slow = vec![1.0; platform.num_devices()];
    slow[2] = 6.0; // gpu0 throttled 6x
    slow[3] = 6.0; // gpu1 throttled 6x
    let mut static_sum = 0.0;
    let mut online_sum = 0.0;
    for seed in 0..6 {
        let wf = montage(100, seed).unwrap();
        let config = EngineConfig {
            device_slowdown: Some(slow.clone()),
            ..Default::default()
        };
        let plan = HeftScheduler::default().schedule(&wf, &platform).unwrap();
        static_sum += Engine::new(config.clone())
            .execute_plan(&platform, &wf, &plan)
            .unwrap()
            .makespan()
            .as_secs();
        online_sum += OnlineRunner::new(config, OnlinePolicy::RankedJit)
            .run(&platform, &wf)
            .unwrap()
            .makespan()
            .as_secs();
    }
    assert!(
        online_sum < static_sum,
        "online {online_sum} must beat static {static_sum} under throttling"
    );
}

#[test]
fn powersave_governor_is_slower_but_leaner_online() {
    let platform = presets::workstation();
    let wf = montage(50, 2).unwrap();
    let perf = OnlineRunner::new(EngineConfig::default(), OnlinePolicy::Jit)
        .run(&platform, &wf)
        .unwrap();
    let save = OnlineRunner::new(EngineConfig::default(), OnlinePolicy::Jit)
        .with_governor(Box::new(Powersave))
        .run(&platform, &wf)
        .unwrap();
    assert!(save.makespan() > perf.makespan());
    assert!(save.energy().active_j < perf.energy().active_j);
}

#[test]
fn threaded_executor_agrees_with_simulation() {
    let platform = presets::workstation();
    let wf = montage(25, 8).unwrap();
    let plan = HeftScheduler::default().schedule(&wf, &platform).unwrap();
    let simulated = Engine::new(EngineConfig::default())
        .execute_plan(&platform, &wf, &plan)
        .unwrap();
    let scale = 0.2 / simulated.makespan().as_secs();
    let threaded = helios::core::executor::ThreadedExecutor::new(scale)
        .unwrap()
        .execute_plan(&platform, &wf, &plan)
        .unwrap();
    let sim = simulated.makespan().as_secs();
    let wall = threaded.makespan().as_secs();
    assert!(
        (wall - sim).abs() / sim < 0.4,
        "threaded {wall} vs simulated {sim}"
    );
}
