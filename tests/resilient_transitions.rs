//! Pins every state transition of the resilient runner by report digest.
//!
//! `exec_golden` reaches device faults and timed preempt/drain/join;
//! these cells add the rest of the runner's transition sites: device
//! transient, degraded and permanent faults, correlated domain strikes
//! of every kind with member links, link outages and degradations,
//! timed joins, drains, preemptions and leaves, stochastic churn, and
//! permanent loss of elastic capacity. Each digest is FNV-1a (64-bit)
//! over the realized schedule's bit patterns, the makespan, and the
//! JSON of the report's resilience and elasticity metrics, so a
//! refactor of those transitions that claims byte-identity must keep
//! every pin. A second test checks that the cells really reach each
//! transition: a pin over a path no cell takes shows nothing.

use helios::core::{
    ElasticChurn, ElasticEvent, ElasticEventKind, ElasticityConfig, ElasticityMetrics,
    EngineConfig, ExecutionReport, FailureDomain, FailureModel, LinkFaultModel, RecoveryPolicy,
    ResilienceConfig, ResilientRunner,
};
use helios::platform::presets;
use helios::sched::HeftScheduler;
use helios::workflow::generators::{cybershake, montage};

/// `(cell, FNV-1a of its report)`, in [`cells`] order.
const PINS: [(&str, u64); 9] = [
    ("device_checkpoint", 0x2a6a_ae43_4e4c_b686),
    ("device_permanent_reschedule", 0x98c0_e796_9d62_c028),
    ("domain_strikes_with_links", 0xb4bd_8d4f_d23e_accc),
    ("domain_burns_out", 0x0f49_6820_57c5_f20f),
    ("link_outage_and_degradation", 0x8285_7f06_e411_60af),
    ("timed_join_drain_preempt_leave", 0xd1b0_2fb4_d1e0_dbb4),
    ("churn_replicated", 0x6541_cf3a_53b2_f0cd),
    ("churn_checkpoint", 0x2122_f4ff_db0c_23b8),
    ("elastic_capacity_dies", 0xdca3_dff2_de37_1c5e),
];

/// The report counters each cell must move, in [`cells`] order: the
/// evidence that its pin covers the transitions it is named for.
const REACHES: [(&str, &[&str]); 9] = [
    (
        "device_checkpoint",
        &["transient_failures", "degraded_failures"],
    ),
    (
        "device_permanent_reschedule",
        &["permanent_failures", "rematerialized_tasks", "reschedules"],
    ),
    (
        "domain_strikes_with_links",
        &[
            "domain_events",
            "transient_failures",
            "degraded_failures",
            "link_faults",
        ],
    ),
    ("domain_burns_out", &["domain_events", "permanent_failures"]),
    ("link_outage_and_degradation", &["link_faults"]),
    (
        "timed_join_drain_preempt_leave",
        &[
            "joins",
            "departures",
            "drains",
            "preemptions",
            "drain_migrated_tasks",
            "rematerialized_tasks",
        ],
    ),
    ("churn_replicated", &["joins", "departures", "preemptions"]),
    (
        "churn_checkpoint",
        &["joins", "departures", "preemptions", "drain_migrated_tasks"],
    ),
    (
        "elastic_capacity_dies",
        &[
            "permanent_failures",
            "domain_events",
            "preemptions",
            "dead_capacity_events",
        ],
    ),
];

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

fn digest(report: &ExecutionReport) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for p in report.schedule().placements() {
        fnv(&mut hash, &(p.task.0 as u64).to_le_bytes());
        fnv(&mut hash, &(p.device.0 as u64).to_le_bytes());
        fnv(&mut hash, &p.start.as_secs().to_bits().to_le_bytes());
        fnv(&mut hash, &p.finish.as_secs().to_bits().to_le_bytes());
    }
    fnv(
        &mut hash,
        &report.makespan().as_secs().to_bits().to_le_bytes(),
    );
    let metrics = serde_json::to_string(&(report.resilience(), report.elasticity()))
        .expect("metrics serialize");
    fnv(&mut hash, metrics.as_bytes());
    hash
}

fn device_faults(mttf_secs: f64, degraded_prob: f64, permanent_prob: f64) -> FailureModel {
    FailureModel {
        mttf_secs,
        weibull_shape: None,
        degraded_prob,
        permanent_prob,
        degraded_slowdown: 2.0,
        degraded_repair_secs: 0.004,
        restart_overhead_secs: 0.0005,
    }
}

fn retry_backoff() -> RecoveryPolicy {
    RecoveryPolicy::RetryBackoff {
        base_secs: 0.0005,
        factor: 2.0,
        cap_secs: 0.005,
        max_retries: 10_000,
    }
}

fn checkpoint() -> RecoveryPolicy {
    RecoveryPolicy::CheckpointRestart {
        interval_secs: 0.0002,
        overhead_secs: 0.00002,
        max_retries: 10_000,
    }
}

fn reschedule() -> RecoveryPolicy {
    RecoveryPolicy::Reschedule {
        scheduler: "heft".into(),
        overhead_secs: 0.0005,
        max_retries: 10_000,
    }
}

/// Device faults that effectively never fire, so the other transition
/// classes run alone.
fn no_device_faults() -> FailureModel {
    device_faults(1.0e12, 0.0, 0.0)
}

fn rack(permanent_prob: f64) -> FailureDomain {
    FailureDomain {
        kind: "rack".into(),
        name: "rack0".into(),
        devices: vec!["gpu0".into(), "gpu1".into()],
        links: vec!["nvlink".into()],
        mttf_secs: 0.003,
        weibull_shape: None,
        degraded_prob: 0.3,
        permanent_prob,
        outage_secs: 0.004,
    }
}

fn event(device: &str, at_secs: f64, kind: ElasticEventKind) -> ElasticEvent {
    ElasticEvent {
        device: device.into(),
        at_secs,
        kind,
    }
}

fn churn(device: &str) -> ElasticChurn {
    ElasticChurn {
        device: device.into(),
        mtbp_secs: 0.004,
        weibull_shape: None,
        notice_secs: 0.0005,
        rejoin_secs: 0.003,
    }
}

fn config(
    seed: u64,
    resilience: ResilienceConfig,
    elasticity: Option<ElasticityConfig>,
) -> EngineConfig {
    EngineConfig {
        seed,
        noise_cv: 0.1,
        resilience: Some(resilience),
        elasticity,
        ..EngineConfig::default()
    }
}

/// The pinned cells: HEFT plans on `hpc_node`, one cell per group of
/// transitions.
fn cells() -> Vec<(&'static str, ExecutionReport)> {
    let platform = presets::hpc_node();
    let montage = montage(40, 7).expect("montage");
    let cybershake = cybershake(40, 3).expect("cybershake");
    let timed = ElasticityConfig {
        events: vec![
            event("gpu2", 0.0, ElasticEventKind::Join),
            event(
                "cpu1",
                0.001,
                ElasticEventKind::Preempt {
                    notice_secs: 0.0005,
                },
            ),
            event(
                "gpu0",
                0.002,
                ElasticEventKind::Drain {
                    deadline_secs: 0.004,
                },
            ),
            event("gpu1", 0.003, ElasticEventKind::Leave),
            event("gpu2", 0.004, ElasticEventKind::Join),
            event("cpu1", 0.006, ElasticEventKind::Join),
            event("gpu1", 0.008, ElasticEventKind::Join),
        ],
        churn: Vec::new(),
    };
    let churned = ElasticityConfig {
        events: Vec::new(),
        churn: vec![churn("gpu0"), churn("cpu1")],
    };
    let dying = ElasticityConfig {
        events: vec![
            event(
                "gpu1",
                0.001,
                ElasticEventKind::Preempt {
                    notice_secs: 0.0005,
                },
            ),
            event("gpu1", 0.004, ElasticEventKind::Join),
        ],
        churn: vec![churn("gpu0")],
    };
    let specs: Vec<(&'static str, &helios::workflow::Workflow, EngineConfig)> = vec![
        (
            "device_checkpoint",
            &montage,
            config(
                3,
                ResilienceConfig::new(device_faults(0.002, 0.3, 0.0), checkpoint()),
                None,
            ),
        ),
        (
            "device_permanent_reschedule",
            &montage,
            config(
                4,
                ResilienceConfig::new(device_faults(0.004, 0.2, 0.1), reschedule()),
                None,
            ),
        ),
        (
            "domain_strikes_with_links",
            &montage,
            config(
                5,
                ResilienceConfig::new(device_faults(0.01, 0.2, 0.0), retry_backoff())
                    .with_link_faults(LinkFaultModel::exponential(0.005))
                    .with_domains(vec![rack(0.0)]),
                None,
            ),
        ),
        (
            "domain_burns_out",
            &montage,
            config(
                5,
                ResilienceConfig::new(device_faults(0.01, 0.2, 0.0), retry_backoff())
                    .with_link_faults(LinkFaultModel::exponential(0.005))
                    .with_domains(vec![rack(0.2)]),
                None,
            ),
        ),
        (
            "link_outage_and_degradation",
            &cybershake,
            config(
                6,
                ResilienceConfig::new(no_device_faults(), retry_backoff()).with_link_faults(
                    LinkFaultModel {
                        degraded_prob: 0.4,
                        outage_secs: 0.002,
                        ..LinkFaultModel::exponential(0.002)
                    },
                ),
                None,
            ),
        ),
        (
            "timed_join_drain_preempt_leave",
            &montage,
            config(
                7,
                ResilienceConfig::new(device_faults(0.005, 0.2, 0.0), checkpoint()),
                Some(timed),
            ),
        ),
        (
            "churn_replicated",
            &cybershake,
            config(
                8,
                ResilienceConfig::new(
                    device_faults(0.01, 0.2, 0.0),
                    RecoveryPolicy::ReplicateK {
                        replicas: 2,
                        max_retries: 10_000,
                    },
                ),
                Some(churned.clone()),
            ),
        ),
        (
            "churn_checkpoint",
            &montage,
            config(
                9,
                ResilienceConfig::new(device_faults(0.01, 0.2, 0.0), checkpoint()),
                Some(churned),
            ),
        ),
        (
            "elastic_capacity_dies",
            &montage,
            config(
                10,
                ResilienceConfig::new(no_device_faults(), reschedule())
                    .with_domains(vec![rack(0.5)]),
                Some(dying),
            ),
        ),
    ];
    specs
        .into_iter()
        .map(|(name, wf, cfg)| {
            let report = ResilientRunner::new(cfg)
                .run(&platform, wf, &HeftScheduler::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, report)
        })
        .collect()
}

#[test]
fn every_transition_keeps_its_report() {
    let got: Vec<(&str, u64)> = cells()
        .iter()
        .map(|(name, report)| (*name, digest(report)))
        .collect();
    let rendered: Vec<String> = got
        .iter()
        .map(|(name, d)| format!("(\"{name}\", 0x{d:016x})"))
        .collect();
    assert_eq!(
        got,
        PINS,
        "a transition's report moved; now:\n{}",
        rendered.join(",\n")
    );
}

/// The report counters that show which transitions a cell reached.
fn counters(report: &ExecutionReport) -> [(&'static str, u32); 13] {
    let r = report.resilience().expect("resilient metrics");
    let e = |f: fn(&ElasticityMetrics) -> u32| report.elasticity().map_or(0, f);
    [
        ("transient_failures", r.transient_failures),
        ("degraded_failures", r.degraded_failures),
        ("permanent_failures", r.permanent_failures),
        ("domain_events", r.domain_events),
        ("link_faults", r.link_faults),
        ("rematerialized_tasks", r.rematerialized_tasks),
        ("reschedules", r.reschedules),
        ("joins", e(|m| m.joins)),
        ("departures", e(|m| m.departures)),
        ("drains", e(|m| m.drains)),
        ("preemptions", e(|m| m.preemptions)),
        ("drain_migrated_tasks", e(|m| m.drain_migrated_tasks)),
        ("dead_capacity_events", e(|m| m.dead_capacity_events)),
    ]
}

#[test]
fn the_cells_reach_every_transition() {
    let cells = cells();
    assert_eq!(cells.len(), REACHES.len());
    for ((name, report), (cell, reaches)) in cells.iter().zip(REACHES) {
        assert_eq!(*name, cell, "cell order drifted");
        let counters = counters(report);
        for counter in reaches {
            let n = counters
                .iter()
                .find(|(c, _)| c == counter)
                .map_or(0, |&(_, n)| n);
            assert!(n > 0, "{name} no longer reaches {counter}: {counters:?}");
        }
    }
}
