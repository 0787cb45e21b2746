//! Ensembles run on the online dispatcher: a one-member ensemble is
//! exactly `OnlineRunner` with `OnlinePolicy::RankedJit`, members
//! released at one instant are dispatched in policy order whatever
//! their list order, and errors name the member-local task.

use helios::core::{
    EngineConfig, EngineError, EnsembleMember, EnsemblePolicy, EnsembleReport, EnsembleRunner,
    FailureModel, OnlinePolicy, OnlineRunner, RecoveryPolicy, ResilienceConfig,
};
use helios::platform::{presets, ComputeCost, KernelClass, Platform};
use helios::sched::{Placement, SchedError};
use helios::sim::SimTime;
use helios::workflow::generators::{cybershake, ligo_inspiral, montage};
use helios::workflow::{Task, Workflow, WorkflowBuilder};

fn member(workflow: Workflow, arrival: f64, priority: f64) -> EnsembleMember {
    EnsembleMember {
        workflow,
        arrival: SimTime::from_secs(arrival),
        priority,
    }
}

/// A placement as bit patterns, so equality is bit for bit.
fn bits(p: &Placement) -> (usize, usize, usize, u64, u64) {
    (
        p.task.0,
        p.device.0,
        p.level.0,
        p.start.as_secs().to_bits(),
        p.finish.as_secs().to_bits(),
    )
}

/// Every knob the online dispatcher and the ensemble both accept.
fn configs(platform: &Platform) -> Vec<(&'static str, EngineConfig)> {
    let mut slowdown = vec![1.0; platform.num_devices()];
    slowdown[platform.num_devices() - 1] = 2.5;
    vec![
        ("default", EngineConfig::default()),
        (
            "noise",
            EngineConfig {
                noise_cv: 0.1,
                seed: 5,
                ..Default::default()
            },
        ),
        (
            "slowdown",
            EngineConfig {
                device_slowdown: Some(slowdown),
                ..Default::default()
            },
        ),
        (
            "contention",
            EngineConfig {
                link_contention: true,
                ..Default::default()
            },
        ),
        (
            "caching",
            EngineConfig {
                data_caching: true,
                ..Default::default()
            },
        ),
        (
            "faults",
            EngineConfig {
                seed: 3,
                resilience: Some(ResilienceConfig::new(
                    FailureModel {
                        restart_overhead_secs: 0.0005,
                        ..FailureModel::exponential(0.05)
                    },
                    RecoveryPolicy::flat_retry(1000),
                )),
                ..Default::default()
            },
        ),
    ]
}

#[test]
fn one_member_ensemble_is_ranked_online_bit_for_bit() {
    for platform in [presets::workstation(), presets::hpc_node()] {
        for wf in [
            montage(40, 1).unwrap(),
            cybershake(40, 2).unwrap(),
            ligo_inspiral(40, 3).unwrap(),
        ] {
            for (knob, config) in configs(&platform) {
                let cell = format!("{} / {} / {knob}", platform.name(), wf.name());
                let online = OnlineRunner::new(config.clone(), OnlinePolicy::RankedJit)
                    .run(&platform, &wf)
                    .unwrap_or_else(|e| panic!("{cell}: {e}"));
                let ensemble = EnsembleRunner::new(config, EnsemblePolicy::Fifo)
                    .run(&platform, &[member(wf.clone(), 0.0, 1.0)])
                    .unwrap_or_else(|e| panic!("{cell}: {e}"));
                let want: Vec<_> = online.schedule().placements().iter().map(bits).collect();
                let got: Vec<_> = ensemble.members[0]
                    .schedule
                    .placements()
                    .iter()
                    .map(bits)
                    .collect();
                assert_eq!(got, want, "{cell}: placements differ");
                assert_eq!(ensemble.transfers.count, online.transfers().count, "{cell}");
                assert_eq!(
                    ensemble.transfers.bytes.to_bits(),
                    online.transfers().bytes.to_bits(),
                    "{cell}"
                );
            }
        }
    }
}

/// Two identical members arrive together; only their priorities
/// differ. Under the priority policy the VIP comes first whatever the
/// list order, so swapping the list mirrors the report exactly.
#[test]
fn members_released_together_are_dispatched_in_policy_order() {
    for platform in [presets::workstation(), presets::hpc_node()] {
        let wf = cybershake(60, 3).unwrap();
        let run = |first: f64, second: f64| -> EnsembleReport {
            let members = [
                member(wf.clone(), 0.0, first),
                member(wf.clone(), 0.0, second),
            ];
            EnsembleRunner::new(EngineConfig::default(), EnsemblePolicy::Priority)
                .run(&platform, &members)
                .unwrap()
        };
        let vip_second = run(1.0, 10.0);
        let vip_first = run(10.0, 1.0);
        for (a, b) in [(0, 1), (1, 0)] {
            let (x, y) = (&vip_second.members[a], &vip_first.members[b]);
            let xs: Vec<_> = x.schedule.placements().iter().map(bits).collect();
            let ys: Vec<_> = y.schedule.placements().iter().map(bits).collect();
            assert_eq!(xs, ys, "{}: member {a} vs {b}", platform.name());
            assert_eq!(x.turnaround, y.turnaround, "{}", platform.name());
        }
        assert_eq!(vip_second.makespan, vip_first.makespan);
        assert_eq!(
            vip_second.total_energy_j.to_bits(),
            vip_first.total_energy_j.to_bits()
        );
        assert!(
            vip_second.members[1].turnaround <= vip_second.members[0].turnaround,
            "{}: the VIP finishes no later than the other member",
            platform.name()
        );
    }
}

#[test]
fn errors_name_the_member_local_task() {
    // Member 1 arrives first and its first attempt exhausts a zero
    // retry budget: the error names its task in member 1's numbering
    // (below 30), not its union index (30 and up).
    let platform = presets::hpc_node();
    let config = EngineConfig {
        resilience: Some(ResilienceConfig::new(
            FailureModel::exponential(1e-9),
            RecoveryPolicy::flat_retry(0),
        )),
        ..Default::default()
    };
    let members = [
        member(montage(30, 1).unwrap(), 1.0, 1.0),
        member(montage(30, 2).unwrap(), 0.0, 1.0),
    ];
    match EnsembleRunner::new(config, EnsemblePolicy::Fifo).run(&platform, &members) {
        Err(EngineError::RetriesExhausted { task, .. }) => assert!(task.0 < 30, "{task}"),
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }

    // A task no device can hold, as member 1's only task: local id 0.
    let mut b = WorkflowBuilder::new("monster");
    b.add_task(Task::new(
        "huge",
        "s",
        ComputeCost::new(1.0, 100e9, KernelClass::Reduction),
    ));
    let members = [
        member(montage(20, 1).unwrap(), 0.0, 1.0),
        member(b.build().unwrap(), 0.0, 1.0),
    ];
    match EnsembleRunner::new(EngineConfig::default(), EnsemblePolicy::Fifo)
        .run(&presets::edge_soc(), &members)
    {
        Err(EngineError::Sched(SchedError::NoFeasibleDevice(task))) => assert_eq!(task.0, 0),
        other => panic!("expected NoFeasibleDevice, got {other:?}"),
    }
}
