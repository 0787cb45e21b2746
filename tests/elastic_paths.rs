//! Elastic-capacity battery: devices join, drain, get preempted and
//! leave mid-run, across every recovery policy and execution geometry.
//!
//! Seeded capacity plans must exercise the elastic paths: preemptions
//! and drains that migrate work and complete anyway, joins that add
//! capacity mid-flight, byte-identical reports per seed across worker
//! counts and shard partitions, the pinned monotonicity check that a
//! shrink-only plan never beats the static platform under retry-backoff,
//! permanently failed devices staying dead through later capacity
//! events, and whole-platform departure surfacing as the
//! `capacity_exhausted` measurement rather than a driver error.

use helios_core::{
    merge_shards, CampaignSpec, ElasticChurn, ElasticEvent, ElasticEventKind, ElasticityConfig,
    EngineConfig, EngineError, FailureDomain, FailureModel, IncompleteReason, RecoveryPolicy,
    ResilienceConfig, ResilientRunner, ShardSpec, SweepDriver,
};
use helios_platform::presets;
use helios_platform::{
    ComputeCost, DeviceBuilder, DeviceKind, InterconnectBuilder, KernelClass, Link, Platform,
    PlatformBuilder,
};
use helios_sched::HeftScheduler;
use helios_sim::SimDuration;
use helios_workflow::generators::montage;
use helios_workflow::{Task, WorkflowBuilder};

/// One representative instance of each of the four recovery policies.
fn all_policies() -> Vec<RecoveryPolicy> {
    vec![
        RecoveryPolicy::RetryBackoff {
            base_secs: 0.001,
            factor: 2.0,
            cap_secs: 0.01,
            max_retries: 10_000,
        },
        RecoveryPolicy::ReplicateK {
            replicas: 2,
            max_retries: 10_000,
        },
        RecoveryPolicy::CheckpointRestart {
            interval_secs: 0.005,
            overhead_secs: 0.0002,
            max_retries: 10_000,
        },
        RecoveryPolicy::Reschedule {
            scheduler: "heft".into(),
            overhead_secs: 0.001,
            max_retries: 10_000,
        },
    ]
}

/// A benign failure stack (failures never fire) so elasticity is the
/// only perturbation in the run.
fn quiet_resilience(policy: RecoveryPolicy) -> ResilienceConfig {
    ResilienceConfig::new(FailureModel::exponential(1.0e12), policy)
}

fn event(device: &str, at_secs: f64, kind: ElasticEventKind) -> ElasticEvent {
    ElasticEvent {
        device: device.into(),
        at_secs,
        kind,
    }
}

/// A preempt + drain + re-join plan over the workstation preset, timed
/// in the millisecond decade where preset makespans live.
fn churny_plan() -> ElasticityConfig {
    ElasticityConfig {
        events: vec![
            event(
                "cpu1",
                0.002,
                ElasticEventKind::Preempt { notice_secs: 0.001 },
            ),
            event(
                "gpu0",
                0.004,
                ElasticEventKind::Drain {
                    deadline_secs: 0.006,
                },
            ),
            event("cpu1", 0.02, ElasticEventKind::Join),
        ],
        churn: Vec::new(),
    }
}

fn elastic_config(seed: u64, policy: RecoveryPolicy, elasticity: ElasticityConfig) -> EngineConfig {
    EngineConfig {
        seed,
        noise_cv: 0.05,
        resilience: Some(quiet_resilience(policy)),
        elasticity: Some(elasticity),
        ..EngineConfig::default()
    }
}

#[test]
fn capacity_events_fire_under_every_policy_and_are_deterministic() {
    let platform = presets::workstation();
    let wf = montage(40, 11).expect("montage");
    let sched = HeftScheduler::default();
    for policy in all_policies() {
        let run = |seed: u64| {
            ResilientRunner::new(elastic_config(seed, policy.clone(), churny_plan()))
                .run(&platform, &wf, &sched)
                .expect("elastic run completes on the surviving devices")
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(
            serde_json::to_string(&a).expect("serialize"),
            serde_json::to_string(&b).expect("serialize"),
            "{}: identical seeds must serialize byte-identically",
            policy.name()
        );
        let m = a.elasticity().expect("elasticity metrics attached");
        assert!(
            m.preemptions >= 1,
            "{}: the preempt must fire, got {m:?}",
            policy.name()
        );
        assert!(
            m.drains >= 1,
            "{}: the drain window must open, got {m:?}",
            policy.name()
        );
        assert!(
            m.departures >= 2,
            "{}: preempt kill + completed drain both depart, got {m:?}",
            policy.name()
        );
        assert!(
            m.capacity_secs > 0.0 && m.capacity_secs.is_finite(),
            "{}: capacity-seconds must integrate to something, got {m:?}",
            policy.name()
        );
        let c = run(8);
        assert_ne!(
            a,
            c,
            "{}: a different seed must realize a different run",
            policy.name()
        );
    }
}

#[test]
fn a_device_whose_first_event_is_a_join_starts_absent() {
    let platform = presets::workstation();
    let wf = montage(40, 3).expect("montage");
    let sched = HeftScheduler::default();
    let policy = all_policies().remove(0);

    let joined = ResilientRunner::new(elastic_config(
        5,
        policy.clone(),
        ElasticityConfig {
            events: vec![event("gpu0", 0.003, ElasticEventKind::Join)],
            churn: Vec::new(),
        },
    ))
    .run(&platform, &wf, &sched)
    .expect("run completes after the join");
    let m = joined.elasticity().expect("metrics");
    assert_eq!(m.joins, 1, "the join must be counted: {m:?}");
    assert_eq!(m.departures, 0, "nothing departs in a join-only plan");
    assert!(
        (0.0..=1.0).contains(&m.join_utilization),
        "join_utilization is a fraction, got {m:?}"
    );

    // The same platform run without elasticity has gpu0 from t = 0; the
    // join-only run spent its opening window two devices strong, so its
    // integrated capacity must be strictly smaller.
    let full_time = joined.makespan().as_secs() * platform.devices().len() as f64;
    assert!(
        m.capacity_secs < full_time,
        "starting absent must cost capacity: {} vs full {}",
        m.capacity_secs,
        full_time
    );
}

/// Pinned monotonicity: a shrink-only plan (preempt, no re-join) under
/// work-conserving retry-backoff never finishes earlier than the static
/// platform of the same seed. Pinned over seeds, not claimed as a
/// theorem — a migration landing on a faster device is ruled out here
/// by the plan's target choice.
#[test]
fn preempt_only_plans_never_beat_the_static_platform_under_retry_backoff() {
    let platform = presets::workstation();
    let wf = montage(40, 11).expect("montage");
    let sched = HeftScheduler::default();
    let policy = RecoveryPolicy::RetryBackoff {
        base_secs: 0.001,
        factor: 2.0,
        cap_secs: 0.01,
        max_retries: 10_000,
    };
    for seed in 0..6u64 {
        let static_run = ResilientRunner::new(EngineConfig {
            seed,
            noise_cv: 0.05,
            resilience: Some(quiet_resilience(policy.clone())),
            ..EngineConfig::default()
        })
        .run(&platform, &wf, &sched)
        .expect("static run completes");
        let shrunk = ResilientRunner::new(elastic_config(
            seed,
            policy.clone(),
            ElasticityConfig {
                events: vec![event(
                    "gpu0",
                    0.002,
                    ElasticEventKind::Preempt { notice_secs: 0.001 },
                )],
                churn: Vec::new(),
            },
        ))
        .run(&platform, &wf, &sched)
        .expect("shrunk run completes");
        assert!(
            shrunk.makespan() >= static_run.makespan(),
            "seed {seed}: losing a device can only delay completion \
             ({} vs {})",
            shrunk.makespan(),
            static_run.makespan()
        );
    }
}

/// Ride-along regression: a device struck permanently by a failure
/// domain and named in a later elasticity event never resurrects — the
/// event is a counted no-op.
#[test]
fn dead_capacity_stays_dead_through_later_joins() {
    let platform = presets::workstation();
    let wf = montage(40, 2).expect("montage");
    let sched = HeftScheduler::default();
    // The domain kills gpu0 permanently almost immediately; the plan
    // tries to preempt and then re-join it long after.
    let resilience = ResilienceConfig::new(
        FailureModel::exponential(1.0e12),
        RecoveryPolicy::RetryBackoff {
            base_secs: 0.001,
            factor: 2.0,
            cap_secs: 0.01,
            max_retries: 10_000,
        },
    )
    .with_domains(vec![FailureDomain {
        kind: "psu".into(),
        name: "p0".into(),
        devices: vec!["gpu0".into()],
        links: Vec::new(),
        mttf_secs: 0.0005,
        weibull_shape: None,
        degraded_prob: 0.0,
        permanent_prob: 1.0,
        outage_secs: 0.001,
    }]);
    let cfg = EngineConfig {
        seed: 4,
        noise_cv: 0.05,
        resilience: Some(resilience),
        elasticity: Some(ElasticityConfig {
            events: vec![
                event(
                    "gpu0",
                    0.05,
                    ElasticEventKind::Preempt { notice_secs: 0.01 },
                ),
                event("gpu0", 0.2, ElasticEventKind::Join),
            ],
            churn: Vec::new(),
        }),
        ..EngineConfig::default()
    };
    let report = ResilientRunner::new(cfg)
        .run(&platform, &wf, &sched)
        .expect("run completes on the surviving CPUs");
    let rm = report.resilience().expect("resilience metrics");
    assert!(
        rm.permanent_failures >= 1,
        "the domain strike must actually kill gpu0: {rm:?}"
    );
    let em = report.elasticity().expect("elasticity metrics");
    assert_eq!(
        em.dead_capacity_events, 2,
        "both events target a dead device and must be counted no-ops: {em:?}"
    );
    assert_eq!(em.joins, 0, "dead capacity must not resurrect: {em:?}");
    assert_eq!(
        em.preemptions, 0,
        "a dead device cannot be preempted: {em:?}"
    );
}

/// A platform with exactly one CPU and no links.
fn single_device_platform() -> Platform {
    let mut b = PlatformBuilder::new("solo");
    b.add_device(
        DeviceBuilder::new("cpu0", DeviceKind::Cpu)
            .build()
            .expect("device parameters are valid"),
    );
    b.interconnect(InterconnectBuilder::new().build());
    b.build().expect("single-device platform is valid")
}

#[test]
fn losing_all_capacity_with_no_pending_join_is_capacity_exhausted() {
    let platform = single_device_platform();
    let wf = montage(12, 5).expect("montage");
    let err = ResilientRunner::new(elastic_config(
        3,
        all_policies().remove(0),
        ElasticityConfig {
            events: vec![event("cpu0", 0.001, ElasticEventKind::Leave)],
            churn: Vec::new(),
        },
    ))
    .run(&platform, &wf, &HeftScheduler::default())
    .expect_err("the only device leaving cannot complete");
    match &err {
        EngineError::CapacityExhausted {
            completed, total, ..
        } => {
            assert!(completed < total, "some tasks must be left unfinished");
        }
        other => panic!("expected CapacityExhausted, got {other:?}"),
    }
    // The sweep layer records this as a measurement, not an error.
    assert_eq!(
        IncompleteReason::from_error(&err).map(|r| r.as_str()),
        Some("capacity_exhausted")
    );
}

#[test]
fn a_pending_join_parks_work_instead_of_exhausting() {
    let platform = single_device_platform();
    let wf = montage(12, 5).expect("montage");
    // Same departure, but capacity returns: the run must ride out the
    // empty window and complete after the join.
    let report = ResilientRunner::new(elastic_config(
        3,
        all_policies().remove(0),
        ElasticityConfig {
            events: vec![
                event("cpu0", 0.001, ElasticEventKind::Leave),
                event("cpu0", 0.05, ElasticEventKind::Join),
            ],
            churn: Vec::new(),
        },
    ))
    .run(&platform, &wf, &HeftScheduler::default())
    .expect("the run survives the empty window");
    let m = report.elasticity().expect("metrics");
    assert_eq!(m.departures, 1, "{m:?}");
    assert_eq!(m.joins, 1, "{m:?}");
    assert!(
        report.makespan().as_secs() >= 0.05,
        "completion cannot predate the re-join: {}",
        report.makespan()
    );
}

/// An untrusted CPU and a fully trusted GPU joined by one link.
fn cpu_gpu_platform() -> Platform {
    let mut b = PlatformBuilder::new("cpu-gpu");
    let cpu = b.add_device(
        DeviceBuilder::new("cpu0", DeviceKind::Cpu)
            .trust_level(0)
            .build()
            .expect("device parameters are valid"),
    );
    let gpu = b.add_device(
        DeviceBuilder::new("gpu0", DeviceKind::Gpu)
            .build()
            .expect("device parameters are valid"),
    );
    let mut ic = InterconnectBuilder::new();
    let pcie = ic.add_link(Link::new("pcie", 16.0, SimDuration::from_secs(1e-6)).expect("link"));
    ic.route_symmetric(cpu, gpu, vec![pcie]);
    b.interconnect(ic.build());
    b.build().expect("cpu-gpu platform is valid")
}

#[test]
fn a_parked_task_no_returning_device_can_run_ends_the_run() {
    // The middle task of a 3-task chain needs full trust, so only gpu0
    // can run it. gpu0 leaves for good before it starts; cpu0 churns
    // (leaves and comes back) forever. A churning CPU is no hope for a
    // GPU-only task, so the run must end as a measurement instead of
    // parking the task while churn events keep the run going.
    let platform = cpu_gpu_platform();
    let cost = ComputeCost::new(5.0, 1e6, KernelClass::DenseLinearAlgebra);
    let mut b = WorkflowBuilder::new("trusted-middle");
    let prep = b.add_task(Task::new("prep", "prep", cost));
    let secure = b.add_task(Task::new("secure", "secure", cost).with_required_trust(3));
    let post = b.add_task(Task::new("post", "post", cost));
    b.add_dep(prep, secure, 1e6).expect("edge");
    b.add_dep(secure, post, 1e6).expect("edge");
    let wf = b.build().expect("chain is valid");
    let cfg = elastic_config(
        5,
        all_policies().remove(0),
        ElasticityConfig {
            events: vec![event("gpu0", 1e-6, ElasticEventKind::Leave)],
            churn: vec![ElasticChurn {
                device: "cpu0".into(),
                mtbp_secs: 0.01,
                weibull_shape: None,
                notice_secs: 0.001,
                rejoin_secs: 0.005,
            }],
        },
    );
    // Watchdog: before the fix this run never returned.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(ResilientRunner::new(cfg).run(&platform, &wf, &HeftScheduler::default()));
    });
    let err = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("the run ends by itself")
        .expect_err("the GPU-only task can never run");
    assert!(
        matches!(
            err,
            EngineError::AllDevicesLost { total: 3, .. }
                | EngineError::CapacityExhausted { total: 3, .. }
        ),
        "{err:?}"
    );
}

/// An elastic sweep spec: timed preempt/drain/join plus spot churn over
/// the workstation preset, with no explicit resilience block (the
/// driver synthesizes the benign default).
fn elastic_sweep_spec(base_seed: u64) -> CampaignSpec {
    CampaignSpec::from_json(&format!(
        r#"{{
            "name": "elastic-paths",
            "families": ["montage"],
            "platforms": ["workstation"],
            "schedulers": ["heft"],
            "seeds": {{"base": {base_seed}, "count": 4}},
            "tasks": 30,
            "noise_cv": 0.1,
            "elasticity": {{
                "events": [
                    {{"kind": "preempt", "device": "cpu1",
                      "at_secs": 0.002, "notice_secs": 0.001}},
                    {{"kind": "drain", "device": "gpu0",
                      "at_secs": 0.01, "deadline_secs": 0.012}},
                    {{"kind": "join", "device": "cpu1", "at_secs": 0.02}}
                ],
                "churn": [
                    {{"device": "gpu0", "mtbp_secs": 0.05,
                      "notice_secs": 0.002, "rejoin_secs": 0.02}}
                ]
            }}
        }}"#
    ))
    .expect("elastic sweep spec parses")
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

    /// Elastic capacity stays byte-identical per seed for every worker
    /// count and shard partition of the sweep grid, merge included.
    #[test]
    fn elastic_sweeps_are_jobs_and_shard_invariant(base_seed in 0u64..1000) {
        let spec = elastic_sweep_spec(base_seed);
        let reference = SweepDriver::new(1).run(&spec).expect("sequential sweep");
        let reference_json = serde_json::to_string(&reference).expect("serialize");

        let par = SweepDriver::new(4).run(&spec).expect("parallel sweep");
        proptest::prop_assert_eq!(
            &reference_json,
            &serde_json::to_string(&par).expect("serialize"),
            "--jobs must not change capacity realizations"
        );

        for count in [2usize, 4] {
            let shards: Vec<_> = (1..=count)
                .map(|k| {
                    SweepDriver::new(2)
                        .run_shard(&spec, ShardSpec::new(k, count).expect("shard"))
                        .expect("shard sweep")
                })
                .collect();
            let merged = merge_shards(&shards).expect("merge");
            proptest::prop_assert_eq!(
                &reference_json,
                &serde_json::to_string(&merged).expect("serialize"),
                "a {}-way shard partition must merge byte-identically",
                count
            );
        }

        // The capacity processes must actually bite somewhere in the
        // grid, or the invariance above is vacuous.
        proptest::prop_assert!(
            reference
                .cells
                .iter()
                .any(|c| c.preemptions > 0 || c.drain_migrated_tasks > 0),
            "no capacity event bit anywhere in the sweep grid"
        );
        for c in &reference.cells {
            proptest::prop_assert!(
                !c.completed || c.capacity_secs > 0.0,
                "cell {}: a completed elastic cell must integrate capacity",
                c.cell
            );
        }
    }
}
