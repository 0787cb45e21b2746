//! Tests of the resilient runner (split out of `runner.rs` so the path
//! source holds only the hook set and its state machine).

use super::*;
use crate::resilience::FailureModel;
use helios_platform::presets;
use helios_sched::HeftScheduler;
use helios_workflow::generators::{cybershake, montage};

fn config_with(seed: u64, failures: FailureModel, policy: RecoveryPolicy) -> EngineConfig {
    EngineConfig {
        seed,
        noise_cv: 0.2,
        resilience: Some(ResilienceConfig::new(failures, policy)),
        ..Default::default()
    }
}

fn policies() -> Vec<RecoveryPolicy> {
    vec![
        RecoveryPolicy::RetryBackoff {
            base_secs: 0.005,
            factor: 2.0,
            cap_secs: 0.05,
            max_retries: 10_000,
        },
        RecoveryPolicy::ReplicateK {
            replicas: 2,
            max_retries: 10_000,
        },
        RecoveryPolicy::CheckpointRestart {
            interval_secs: 0.05,
            overhead_secs: 0.002,
            max_retries: 10_000,
        },
        RecoveryPolicy::Reschedule {
            scheduler: "heft".into(),
            overhead_secs: 0.01,
            max_retries: 10_000,
        },
    ]
}

#[test]
fn requires_resilience_config() {
    let p = presets::hpc_node();
    let wf = montage(20, 1).unwrap();
    let err = ResilientRunner::new(EngineConfig::default())
        .run(&p, &wf, &HeftScheduler::default())
        .unwrap_err();
    assert!(matches!(err, EngineError::Config(_)), "{err}");
}

#[test]
fn every_policy_completes_under_transient_faults() {
    let p = presets::hpc_node();
    let wf = montage(50, 2).unwrap();
    for policy in policies() {
        let cfg = config_with(3, FailureModel::exponential(0.03), policy.clone());
        let report = ResilientRunner::new(cfg)
            .run(&p, &wf, &HeftScheduler::default())
            .unwrap_or_else(|e| panic!("{} failed: {e}", policy.name()));
        assert_eq!(report.schedule().placements().len(), wf.num_tasks());
        let m = report.resilience().unwrap();
        assert_eq!(m.policy, policy.name());
        assert!(
            m.makespan_degradation >= -1e-9,
            "{}: faults sped the run up ({})",
            policy.name(),
            m.makespan_degradation
        );
        assert!(m.fault_free_makespan_secs > 0.0);
    }
}

#[test]
fn deterministic_per_seed() {
    let p = presets::hpc_node();
    let wf = cybershake(40, 3).unwrap();
    for policy in policies() {
        let cfg = config_with(11, FailureModel::weibull(0.04, 1.5), policy.clone());
        let a = ResilientRunner::new(cfg.clone())
            .run(&p, &wf, &HeftScheduler::default())
            .unwrap();
        let b = ResilientRunner::new(cfg.clone())
            .run(&p, &wf, &HeftScheduler::default())
            .unwrap();
        assert_eq!(a, b, "{} must be deterministic", policy.name());
        let mut other = cfg;
        other.seed = 12;
        let c = ResilientRunner::new(other)
            .run(&p, &wf, &HeftScheduler::default())
            .unwrap();
        assert_ne!(a, c, "{} must react to the seed", policy.name());
    }
}

#[test]
fn degraded_devices_extend_makespan() {
    let p = presets::hpc_node();
    let wf = montage(50, 4).unwrap();
    let mut fm = FailureModel::exponential(0.01);
    fm.degraded_prob = 1.0; // Every fault degrades; none abort.
    fm.degraded_slowdown = 4.0;
    fm.degraded_repair_secs = 0.05;
    let cfg = config_with(
        5,
        fm,
        RecoveryPolicy::RetryBackoff {
            base_secs: 0.0,
            factor: 1.0,
            cap_secs: 0.0,
            max_retries: 0,
        },
    );
    let report = ResilientRunner::new(cfg)
        .run(&p, &wf, &HeftScheduler::default())
        .unwrap();
    let m = report.resilience().unwrap();
    assert!(m.degraded_failures > 0);
    assert_eq!(m.transient_failures, 0);
    assert!(
        m.makespan_degradation > 0.0,
        "slowdowns must cost time, got {}",
        m.makespan_degradation
    );
}

#[test]
fn permanent_loss_reassigns_and_completes() {
    let p = presets::hpc_node();
    let wf = montage(60, 5).unwrap();
    for policy in policies() {
        let mut fm = FailureModel::exponential(0.05);
        fm.permanent_prob = 0.3;
        fm.restart_overhead_secs = 0.002;
        let cfg = config_with(21, fm, policy.clone());
        match ResilientRunner::new(cfg).run(&p, &wf, &HeftScheduler::default()) {
            Ok(report) => {
                let m = report.resilience().unwrap();
                assert_eq!(report.schedule().placements().len(), wf.num_tasks());
                if m.permanent_failures > 0 && policy.name() == "reschedule" {
                    assert!(m.reschedules > 0, "losses must trigger a replan");
                }
            }
            // Losing every feasible device is a legal outcome.
            Err(EngineError::AllDevicesLost { .. }) => {}
            Err(e) => panic!("{}: unexpected error {e}", policy.name()),
        }
    }
}

#[test]
fn replicate_k_counts_are_consistent() {
    let p = presets::hpc_node();
    let wf = cybershake(50, 6).unwrap();
    let cfg = config_with(
        9,
        FailureModel::exponential(0.05),
        RecoveryPolicy::ReplicateK {
            replicas: 3,
            max_retries: 10_000,
        },
    );
    let report = ResilientRunner::new(cfg)
        .run(&p, &wf, &HeftScheduler::default())
        .unwrap();
    let m = report.resilience().unwrap();
    assert_eq!(m.permanent_failures, 0);
    assert_eq!(
        m.replicas_launched,
        wf.num_tasks() as u32 + m.replicas_cancelled,
        "every launch either wins its task or is cancelled"
    );
    assert!(m.replicas_cancelled > 0, "replicas must actually race");
}

#[test]
fn fault_free_baseline_matches_injection_disabled() {
    // With failure injection on but an astronomically large MTTF the
    // run must coincide with its own baseline.
    let p = presets::hpc_node();
    let wf = montage(40, 7).unwrap();
    let cfg = config_with(
        13,
        FailureModel::exponential(1e12),
        RecoveryPolicy::CheckpointRestart {
            interval_secs: 0.05,
            overhead_secs: 0.002,
            max_retries: 5,
        },
    );
    let report = ResilientRunner::new(cfg)
        .run(&p, &wf, &HeftScheduler::default())
        .unwrap();
    let m = report.resilience().unwrap();
    assert!(
        m.makespan_degradation.abs() < 1e-9,
        "{}",
        m.makespan_degradation
    );
    assert_eq!(m.wasted_work_secs, 0.0);
    assert_eq!(m.transient_failures, 0);
}

// ---- interconnect faults, correlated domains, lineage recovery ----

use crate::resilience::{FailureDomain, LinkFaultModel};
use helios_platform::{
    ComputeCost, DeviceBuilder, DeviceKind, InterconnectBuilder, KernelClass, Link, PlatformBuilder,
};
use helios_sched::SchedError;
use helios_workflow::{Task, WorkflowBuilder};

/// A scheduler that returns a pre-built plan, so tests control the
/// exact placement and queue order the runner executes.
struct FixedPlan(Schedule);

impl Scheduler for FixedPlan {
    fn name(&self) -> &str {
        "fixed"
    }
    fn schedule_with(
        &self,
        _wf: &Workflow,
        _model: &CostModel<'_>,
    ) -> Result<Schedule, SchedError> {
        Ok(self.0.clone())
    }
}

fn retry_policy() -> RecoveryPolicy {
    RecoveryPolicy::RetryBackoff {
        base_secs: 0.0,
        factor: 1.0,
        cap_secs: 0.0,
        max_retries: 10_000,
    }
}

/// A rack-style domain striking devices `devices` and links `links`
/// near t ≈ 0.14–0.22 s (Weibull scale 0.2, shape 60 is almost a
/// delta function there), with the given event-kind mix.
fn tight_domain(
    devices: &[&str],
    links: &[&str],
    degraded_prob: f64,
    permanent_prob: f64,
    outage_secs: f64,
) -> FailureDomain {
    FailureDomain {
        kind: "rack".into(),
        name: "r0".into(),
        devices: devices.iter().map(|s| s.to_string()).collect(),
        links: links.iter().map(|s| s.to_string()).collect(),
        mttf_secs: 0.2,
        weibull_shape: Some(60.0),
        degraded_prob,
        permanent_prob,
        outage_secs,
    }
}

/// Two 1 TFLOP/s CPUs joined by a single 10 GB/s link. Reduction
/// kernels run at efficiency 0.8, so a task of `g` GFLOP takes
/// `g / 800` seconds — exact, because `noise_cv` is zero in these
/// tests.
fn pair_platform(default_link: Option<(&str, f64)>) -> Platform {
    let mut b = PlatformBuilder::new("pair");
    let a = b.add_device(
        DeviceBuilder::new("a", DeviceKind::Cpu)
            .peak_gflops(1000.0)
            .build()
            .unwrap(),
    );
    let bb = b.add_device(
        DeviceBuilder::new("b", DeviceKind::Cpu)
            .peak_gflops(1000.0)
            .build()
            .unwrap(),
    );
    let mut ic = InterconnectBuilder::new();
    let wire = ic.add_link(Link::new("wire", 10.0, SimDuration::from_secs(5e-6)).unwrap());
    ic.route_symmetric(a, bb, vec![wire]);
    if let Some((name, gbs)) = default_link {
        let alt = ic.add_link(Link::new(name, gbs, SimDuration::from_secs(5e-6)).unwrap());
        ic.default_link(alt);
    }
    b.interconnect(ic.build());
    b.build().unwrap()
}

fn place(task: usize, dev: usize, start: f64, finish: f64) -> Placement {
    Placement {
        task: TaskId(task),
        device: DeviceId(dev),
        level: DvfsLevel(2),
        start: SimTime::from_secs(start),
        finish: SimTime::from_secs(finish),
    }
}

fn exact_config(seed: u64, res: ResilienceConfig) -> EngineConfig {
    EngineConfig {
        seed,
        noise_cv: 0.0,
        resilience: Some(res),
        ..Default::default()
    }
}

/// A producer-side chain on device `a` plus a long straggler on `b`:
/// t0→t2 and t3→t4 cross the link, t5 has no consumers, t1 keeps
/// `b` busy for a full second. Paired with its fixed plan.
fn lineage_fixture() -> (Workflow, Schedule) {
    let mut w = WorkflowBuilder::new("lineage");
    let quick = ComputeCost::new(8.0, 0.0, KernelClass::Reduction); // 10 ms
    let slow = ComputeCost::new(800.0, 0.0, KernelClass::Reduction); // 1 s
    let t0 = w.add_task(Task::new("t0", "s", quick));
    let t1 = w.add_task(Task::new("t1", "s", slow));
    let t2 = w.add_task(Task::new("t2", "s", quick));
    let t3 = w.add_task(Task::new("t3", "s", quick));
    let t4 = w.add_task(Task::new("t4", "s", quick));
    let t5 = w.add_task(Task::new("t5", "s", quick));
    w.add_dep(t0, t2, 2e6).unwrap();
    w.add_dep(t3, t4, 3e6).unwrap();
    let _ = t1;
    let _ = t5;
    let wf = w.build().unwrap();
    let plan = Schedule::new(vec![
        place(0, 0, 0.00, 0.01),
        place(3, 0, 0.02, 0.03),
        place(5, 0, 0.04, 0.05),
        place(1, 1, 0.00, 1.00),
        place(2, 1, 1.05, 1.06),
        place(4, 1, 1.07, 1.08),
    ])
    .unwrap();
    (wf, plan)
}

#[test]
fn permanent_domain_loss_rematerializes_only_lost_ancestors() {
    // Device `a` finishes t0, t3, t5 by t ≈ 0.03 s, then its PSU
    // domain kills it near t ≈ 0.17 s while t1 still holds `b`.
    // The products of t0 and t3 are lost before their consumers
    // staged them; lineage recovery must re-run exactly those two —
    // not t5, whose product nobody needs.
    let p = pair_platform(None);
    let (wf, plan) = lineage_fixture();
    let res =
        ResilienceConfig::new(FailureModel::exponential(1e12), retry_policy()).with_domains(vec![
            FailureDomain {
                kind: "psu".into(),
                devices: vec!["a".into()],
                links: vec![],
                ..tight_domain(&[], &[], 0.0, 1.0, 0.0)
            },
        ]);
    let report = ResilientRunner::new(exact_config(9, res))
        .run(&p, &wf, &FixedPlan(plan))
        .unwrap();
    let m = report.resilience().unwrap();
    assert_eq!(m.domain_events, 1, "domain dies with its first strike");
    assert_eq!(m.permanent_failures, 1);
    assert_eq!(m.rematerialized_tasks, 2, "t0 and t3, not t5");
    assert!(
        (m.rematerialized_bytes - 5e6).abs() < 1.0,
        "re-staged bytes must equal the lost products' out-edges, got {}",
        m.rematerialized_bytes
    );
    assert!(m.wasted_work_secs > 0.0, "re-running t0/t3 is wasted work");
    assert!(m.makespan_degradation > 0.0);
    assert_eq!(report.schedule().placements().len(), wf.num_tasks());
}

#[test]
fn severed_primary_route_reroutes_over_default_link() {
    // The rack strike permanently severs the fast primary link at
    // t ≈ 0.17 s; t1 stages its input at t = 1 s and must fall back
    // to the slower default link instead of stranding.
    let p = pair_platform(Some(("alt", 2.0)));
    let mut w = WorkflowBuilder::new("reroute");
    let t0 = w.add_task(Task::new(
        "t0",
        "s",
        ComputeCost::new(800.0, 0.0, KernelClass::Reduction),
    ));
    let t1 = w.add_task(Task::new(
        "t1",
        "s",
        ComputeCost::new(8.0, 0.0, KernelClass::Reduction),
    ));
    w.add_dep(t0, t1, 2e7).unwrap();
    let wf = w.build().unwrap();
    let plan = Schedule::new(vec![place(0, 0, 0.0, 1.0), place(1, 1, 1.0, 1.1)]).unwrap();
    let res = ResilienceConfig::new(FailureModel::exponential(1e12), retry_policy())
        .with_domains(vec![tight_domain(&[], &["wire"], 0.0, 1.0, 0.0)]);
    let report = ResilientRunner::new(exact_config(4, res))
        .run(&p, &wf, &FixedPlan(plan))
        .unwrap();
    let m = report.resilience().unwrap();
    assert_eq!(m.domain_events, 1);
    assert_eq!(m.permanent_failures, 0, "links died, devices did not");
    assert_eq!(m.reroutes, 1, "the one cross-link transfer reroutes");
    assert!(
        m.makespan_degradation > 0.0,
        "the 2 GB/s detour must cost time over the 10 GB/s primary, got {}",
        m.makespan_degradation
    );
    assert_eq!(report.schedule().placements().len(), wf.num_tasks());
}

#[test]
fn link_outage_without_fallback_stalls_transfers() {
    // Same topology but no default link: a 1000 s outage starting
    // near t ≈ 0.17 s leaves the staging at t = 1 s nothing to
    // reroute over, so the transfer stalls until the link heals and
    // the stall is booked as partition downtime.
    let p = pair_platform(None);
    let mut w = WorkflowBuilder::new("stall");
    let t0 = w.add_task(Task::new(
        "t0",
        "s",
        ComputeCost::new(800.0, 0.0, KernelClass::Reduction),
    ));
    let t1 = w.add_task(Task::new(
        "t1",
        "s",
        ComputeCost::new(8.0, 0.0, KernelClass::Reduction),
    ));
    w.add_dep(t0, t1, 2e6).unwrap();
    let wf = w.build().unwrap();
    let plan = Schedule::new(vec![place(0, 0, 0.0, 1.0), place(1, 1, 1.0, 1.1)]).unwrap();
    let res = ResilienceConfig::new(FailureModel::exponential(1e12), retry_policy())
        .with_domains(vec![tight_domain(&[], &["wire"], 0.0, 0.0, 1000.0)]);
    let report = ResilientRunner::new(exact_config(4, res))
        .run(&p, &wf, &FixedPlan(plan))
        .unwrap();
    let m = report.resilience().unwrap();
    assert!(m.domain_events >= 1);
    assert_eq!(m.reroutes, 0, "nothing to reroute over");
    assert!(
        m.partition_downtime_secs > 100.0,
        "staging must wait out most of the outage, got {}",
        m.partition_downtime_secs
    );
    assert!(m.makespan_degradation > 100.0);
    assert_eq!(report.schedule().placements().len(), wf.num_tasks());
}

#[test]
fn link_faults_cost_time_and_stay_deterministic() {
    let p = presets::hpc_node();
    let wf = montage(50, 2).unwrap();
    let res = ResilienceConfig::new(FailureModel::exponential(1e12), retry_policy())
        .with_link_faults(LinkFaultModel::exponential(0.05));
    let cfg = EngineConfig {
        seed: 17,
        noise_cv: 0.1,
        resilience: Some(res),
        ..Default::default()
    };
    let a = ResilientRunner::new(cfg.clone())
        .run(&p, &wf, &HeftScheduler::default())
        .unwrap();
    let m = a.resilience().unwrap();
    assert!(m.link_faults > 0, "MTTF 0.05 s must actually fire");
    assert_eq!(m.transient_failures, 0, "devices were not touched");
    assert!(
        m.makespan_degradation >= -1e-9,
        "link faults must never speed the run up, got {}",
        m.makespan_degradation
    );
    assert_eq!(a.schedule().placements().len(), wf.num_tasks());
    let b = ResilientRunner::new(cfg)
        .run(&p, &wf, &HeftScheduler::default())
        .unwrap();
    assert_eq!(a, b, "link-fault runs must be deterministic per seed");
}

#[test]
fn correlated_domain_strikes_every_policy_survives() {
    let p = presets::hpc_node();
    let wf = montage(30, 3).unwrap();
    for policy in policies() {
        let res = ResilienceConfig::new(FailureModel::exponential(1e12), policy.clone())
            .with_domains(vec![FailureDomain {
                kind: "rack".into(),
                name: "gpu-rack".into(),
                devices: vec!["gpu0".into(), "gpu1".into()],
                links: vec!["nvlink".into()],
                mttf_secs: 0.002,
                weibull_shape: None,
                degraded_prob: 0.3,
                permanent_prob: 0.0,
                outage_secs: 0.005,
            }]);
        let cfg = EngineConfig {
            seed: 23,
            noise_cv: 0.1,
            resilience: Some(res),
            ..Default::default()
        };
        let a = ResilientRunner::new(cfg.clone())
            .run(&p, &wf, &HeftScheduler::default())
            .unwrap_or_else(|e| panic!("{} failed: {e}", policy.name()));
        let m = a.resilience().unwrap();
        assert!(m.domain_events > 0, "{}: domain must strike", policy.name());
        assert!(
            m.makespan_degradation >= -1e-9,
            "{}: correlated faults must never speed the run up, got {}",
            policy.name(),
            m.makespan_degradation
        );
        assert_eq!(a.schedule().placements().len(), wf.num_tasks());
        let b = ResilientRunner::new(cfg)
            .run(&p, &wf, &HeftScheduler::default())
            .unwrap();
        assert_eq!(a, b, "{} must be deterministic", policy.name());
    }
}

#[test]
fn unknown_domain_members_are_actionable_config_errors() {
    let p = presets::hpc_node();
    let wf = montage(20, 1).unwrap();
    let bad_dev = ResilienceConfig::new(FailureModel::exponential(1e12), retry_policy())
        .with_domains(vec![tight_domain(&["nope"], &[], 0.0, 0.0, 0.1)]);
    let err = ResilientRunner::new(exact_config(1, bad_dev))
        .run(&p, &wf, &HeftScheduler::default())
        .unwrap_err();
    let msg = err.to_string();
    assert!(matches!(err, EngineError::Config(_)), "{err}");
    assert!(msg.contains("nope") && msg.contains("cpu0"), "{msg}");

    let bad_link = ResilienceConfig::new(FailureModel::exponential(1e12), retry_policy())
        .with_domains(vec![tight_domain(&[], &["nolink"], 0.0, 0.0, 0.1)]);
    let err = ResilientRunner::new(exact_config(1, bad_link))
        .run(&p, &wf, &HeftScheduler::default())
        .unwrap_err();
    let msg = err.to_string();
    assert!(matches!(err, EngineError::Config(_)), "{err}");
    assert!(msg.contains("nolink") && msg.contains("nvlink"), "{msg}");
}

#[test]
fn step_budget_watchdog_aborts_grinding_runs() {
    let p = presets::hpc_node();
    let wf = montage(40, 1).unwrap();
    let cfg = EngineConfig {
        seed: 3,
        step_budget: Some(10),
        resilience: Some(ResilienceConfig::new(
            FailureModel::exponential(0.05),
            retry_policy(),
        )),
        ..Default::default()
    };
    let err = ResilientRunner::new(cfg)
        .run(&p, &wf, &HeftScheduler::default())
        .unwrap_err();
    assert!(
        matches!(err, EngineError::StepBudgetExceeded { steps: 10, .. }),
        "{err}"
    );
    assert!(err.to_string().contains("step budget"), "{err}");
}

// ---- hot path: counters, reference mode, equivalence ----

/// Per-thread counters of the runner's hot path (test builds only).
/// Each test runs on its own thread, so a test reads exactly its own
/// runs.
pub(super) mod probe {
    use std::cell::Cell;

    /// A counted site of the step loop.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Site {
        /// `Hooks::pop`: one event popped.
        Pop,
        /// A `Finish` popped after its replica's generation moved on.
        StaleFinish,
        /// One scan of every device by `dispatch_all`.
        DispatchPass,
        /// A doomed `Finish` that was never queued.
        Elided,
        /// A restart handled in place, inside its fault's handler.
        InPlaceRestart,
        /// A device's next fault handled in place, inside the handler
        /// of the fault before it.
        InPlaceFault,
    }

    thread_local! {
        static COUNTS: Cell<[u64; 6]> = const { Cell::new([0; 6]) };
    }

    pub(crate) fn count(site: Site) {
        COUNTS.with(|c| {
            let mut v = c.get();
            v[site as usize] += 1;
            c.set(v);
        });
    }

    /// Returns `[pops, stale finishes, dispatch passes, elided
    /// finishes, in-place restarts, in-place faults]` and resets them.
    pub(crate) fn take() -> [u64; 6] {
        COUNTS.with(|c| c.replace([0; 6]))
    }
}

thread_local! {
    static REFERENCE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether this thread runs the reference mode: every `Finish` is
/// queued and the dispatcher runs after every event, as before the
/// hot-path shortcuts.
pub(super) fn reference_mode() -> bool {
    REFERENCE.with(std::cell::Cell::get)
}

/// The report JSON, or the error's `Debug` text (which carries
/// `StepBudgetExceeded { completed, .. }`).
fn outcome(r: Result<ExecutionReport, EngineError>) -> String {
    match r {
        Ok(report) => serde_json::to_string(&report).unwrap(),
        Err(e) => format!("error: {e:?}"),
    }
}

/// Runs `f` in the fast mode, on a thread of its own (whose
/// thread-locals start in the fast mode and with zero counts), which
/// must finish within a minute: a wrongly skipped `Finish` can leave a
/// task that never completes while faults keep coming.
fn in_fast_mode<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(std::time::Duration::from_secs(60))
        .expect("the fast mode finishes within a minute")
}

/// Runs `run` in the reference mode, then in the fast mode.
fn both_modes<F>(run: F) -> (String, String)
where
    F: Fn() -> Result<ExecutionReport, EngineError> + Send + 'static,
{
    REFERENCE.with(|r| r.set(true));
    let reference = outcome(run());
    REFERENCE.with(|r| r.set(false));
    (in_fast_mode(move || outcome(run())), reference)
}

/// The benchmark's `resilient_exec` cell shape at 200 tasks: montage on
/// `hpc_node`, HEFT plan rewritten to powersave DVFS, contention and
/// caching on, MTTF 20 ms with 10% degraded faults, checkpoint-restart
/// every 10 ms.
fn resilient_exec_cell(
    seed: u64,
    step_budget: Option<u64>,
) -> Result<ExecutionReport, EngineError> {
    let p = presets::hpc_node();
    let wf = montage(200, 1).unwrap();
    let mut fm = FailureModel::exponential(0.02);
    fm.degraded_prob = 0.1;
    let cfg = EngineConfig {
        seed,
        noise_cv: 0.1,
        link_contention: true,
        data_caching: true,
        step_budget,
        resilience: Some(ResilienceConfig::new(
            fm,
            RecoveryPolicy::CheckpointRestart {
                interval_secs: 0.01,
                overhead_secs: 0.0002,
                max_retries: 1000,
            },
        )),
        ..Default::default()
    };
    let plan = HeftScheduler::default().schedule(&wf, &p)?;
    let powersave = plan
        .placements()
        .iter()
        .map(|pl| Placement {
            level: p.device(pl.device).unwrap().min_level(),
            ..*pl
        })
        .collect();
    ResilientRunner::new(cfg).execute_plan(&p, &wf, &Schedule::new(powersave)?)
}

#[test]
fn hot_path_counts_witness() {
    // Both passes (faulty and fault-free baseline) of one fixed cell, as
    // [pops, stale finishes, dispatch passes, elided finishes, in-place
    // restarts, in-place faults]. The reference mode pins the counts
    // from before the shortcuts, when every event was popped and
    // followed by a dispatcher pass. The fast mode never queues 33 of
    // the 35 stale finishes (the other two were voided by a repair's
    // reprojection, or by one made while their device's next fault was
    // not yet drawn), and runs one pass per finished task plus the two
    // initial ones. It handles 31 restarts and 5 next faults in place,
    // inside the handler of the fault before them, so it pops 36 fewer
    // events: 545 - 36 = 509. Most faults do not qualify on this
    // four-device platform: another device's event comes first.
    probe::take();
    REFERENCE.with(|r| r.set(true));
    let reference = resilient_exec_cell(0, None).unwrap();
    REFERENCE.with(|r| r.set(false));
    assert_eq!(probe::take(), [578, 35, 580, 0, 0, 0]);
    let (fast, counts) = in_fast_mode(|| (resilient_exec_cell(0, None).unwrap(), probe::take()));
    assert_eq!(fast, reference);
    assert_eq!(counts, [509, 2, 402, 33, 31, 5]);
}

#[test]
fn budget_trip_points_match_reference() {
    // Every budget from 0 through the reference run's full step count,
    // so each trip point is covered, including the ones that land on a
    // stale `Finish` the fast mode never queued: there the trip must
    // come from a ghost step, with the same `completed`.
    REFERENCE.with(|r| r.set(true));
    resilient_exec_cell(0, None).unwrap();
    let [ref_pops, ..] = probe::take();
    let mut stale_at = Vec::new();
    for budget in 0..=ref_pops {
        let _ = resilient_exec_cell(0, Some(budget));
        stale_at.push(probe::take()[1]);
    }
    REFERENCE.with(|r| r.set(false));
    // Budget b trips on step b + 1; it falls on a stale pop when one
    // more step pops one more stale `Finish`.
    let stale_trips = stale_at.windows(2).filter(|w| w[1] > w[0]).count();
    assert!(stale_trips > 0, "no trip point falls on a stale pop");
    let elided = in_fast_mode(|| {
        resilient_exec_cell(0, None).unwrap();
        probe::take()[3]
    });
    assert!(elided > 0, "the fast mode must elide finishes");
    for budget in 0..=ref_pops {
        let (fast, reference) = both_modes(move || resilient_exec_cell(0, Some(budget)));
        assert_eq!(fast, reference, "step budget {budget}");
    }
}

/// A montage cell on one CPU with no links, so every event is one
/// device's own fault, restart, repair or finish and the in-place loops
/// run longest: MTTF 10 ms with 20% degraded faults, restarts 0.2 ms
/// after a fault under checkpoint-restart.
fn solo_cell(step_budget: Option<u64>) -> Result<ExecutionReport, EngineError> {
    let mut b = PlatformBuilder::new("solo");
    b.add_device(DeviceBuilder::new("cpu0", DeviceKind::Cpu).build().unwrap());
    b.interconnect(InterconnectBuilder::new().build());
    let p = b.build().unwrap();
    let wf = montage(40, 3).unwrap();
    let mut fm = FailureModel::exponential(0.01);
    fm.degraded_prob = 0.2;
    fm.degraded_repair_secs = 0.005;
    fm.restart_overhead_secs = 0.0002;
    let cfg = EngineConfig {
        seed: 5,
        noise_cv: 0.1,
        step_budget,
        resilience: Some(ResilienceConfig::new(
            fm,
            RecoveryPolicy::CheckpointRestart {
                interval_secs: 0.004,
                overhead_secs: 0.0002,
                max_retries: 10_000,
            },
        )),
        ..Default::default()
    };
    ResilientRunner::new(cfg).run(&p, &wf, &HeftScheduler::default())
}

#[test]
fn single_device_in_place_loops_match_reference_at_every_budget() {
    REFERENCE.with(|r| r.set(true));
    let reference = outcome(solo_cell(None));
    let [ref_pops, ..] = probe::take();
    REFERENCE.with(|r| r.set(false));
    // Unbudgeted, then every budget from 0 through the reference run's
    // full step count, each noting how many events ran in place.
    let (fast, in_place_at) = in_fast_mode(move || {
        let fast = outcome(solo_cell(None));
        let [.., restarts, faults] = probe::take();
        assert!(restarts > 0 && faults > 0, "{restarts} {faults}");
        let in_place_at: Vec<u64> = (0..=ref_pops)
            .map(|budget| {
                let _ = solo_cell(Some(budget));
                let [.., restarts, faults] = probe::take();
                restarts + faults
            })
            .collect();
        (fast, in_place_at)
    });
    assert_eq!(fast, reference);
    // Budget b trips on step b + 1. When budget b + 1 runs one more
    // event in place, that step is an in-place event, so budget b cut an
    // in-place loop short right there.
    let loop_trips = in_place_at.windows(2).filter(|w| w[1] > w[0]).count();
    assert!(
        loop_trips > 0,
        "no trip point falls inside an in-place loop"
    );
    for budget in 0..=ref_pops {
        let (fast, reference) = both_modes(move || solo_cell(Some(budget)));
        assert_eq!(fast, reference, "step budget {budget}");
    }
}

/// Runs `plan` on `pair_platform(None)` under `res` in both modes for
/// every seed in `seeds`, checks that the modes agree, and returns the
/// reference outcomes.
fn pair_runs_agree(
    wf: &Workflow,
    plan: &Schedule,
    res: &ResilienceConfig,
    seeds: std::ops::Range<u64>,
) -> Vec<String> {
    seeds
        .map(|seed| {
            let (wf, plan, cfg) = (wf.clone(), plan.clone(), exact_config(seed, res.clone()));
            let (fast, reference) = both_modes(move || {
                ResilientRunner::new(cfg.clone()).run(
                    &pair_platform(None),
                    &wf,
                    &FixedPlan(plan.clone()),
                )
            });
            assert_eq!(fast, reference, "seed {seed}");
            reference
        })
        .collect()
}

#[test]
fn a_restart_that_strands_dispatches_at_its_own_instant() {
    // t1 holds `b` for a second with its input staged over the only
    // link, which the rack strike severs for good near t ≈ 0.2 s. A
    // transient fault on `b` after that restarts t1 1 ms later; the
    // restart re-stages, finds the route severed and moves t1 to `a`.
    // The restart runs in place, and `a` must pick t1 up at the
    // restart's instant, not at the fault's.
    let mut w = WorkflowBuilder::new("strand");
    let quick = ComputeCost::new(8.0, 0.0, KernelClass::Reduction); // 10 ms
    let slow = ComputeCost::new(800.0, 0.0, KernelClass::Reduction); // 1 s
    let t0 = w.add_task(Task::new("t0", "s", quick));
    let t1 = w.add_task(Task::new("t1", "s", slow));
    w.add_dep(t0, t1, 2e6).unwrap();
    let wf = w.build().unwrap();
    let plan = Schedule::new(vec![place(0, 0, 0.0, 0.01), place(1, 1, 0.01, 1.01)]).unwrap();
    let mut fm = FailureModel::exponential(0.5);
    fm.restart_overhead_secs = 0.001;
    let res = ResilienceConfig::new(fm, retry_policy()).with_domains(vec![tight_domain(
        &[],
        &["wire"],
        0.0,
        1.0,
        0.0,
    )]);
    let reports = pair_runs_agree(&wf, &plan, &res, 0..16);
    assert!(
        reports
            .iter()
            .any(|r| r.contains(r#"{"task":1,"device":0,"#)),
        "no seed strands t1 at a restart"
    );
}

#[test]
fn a_permanent_fault_in_place_dispatches_at_its_own_instant() {
    // Four 100 ms tasks queued on `b`, none on `a`, and faults every
    // 50 ms on both devices, a fifth of them permanent. When `b`'s
    // permanent fault runs in place, after an earlier fault of `b` in
    // the same loop, its work moves to `a`, which must pick it up at
    // the permanent fault's instant, not at the earlier fault's.
    let mut w = WorkflowBuilder::new("loss");
    let cost = ComputeCost::new(80.0, 0.0, KernelClass::Reduction); // 100 ms
    for t in 0..4 {
        w.add_task(Task::new(format!("t{t}"), "s", cost));
    }
    let wf = w.build().unwrap();
    let plan = Schedule::new(
        (0..4)
            .map(|t| place(t, 1, 0.1 * t as f64, 0.1 * (t + 1) as f64))
            .collect(),
    )
    .unwrap();
    let mut fm = FailureModel::exponential(0.05);
    fm.permanent_prob = 0.2;
    fm.restart_overhead_secs = 0.001;
    let res = ResilienceConfig::new(fm, retry_policy());
    let reports = pair_runs_agree(&wf, &plan, &res, 0..24);
    assert!(
        reports.iter().any(|r| r.contains(r#""device":0,"#)),
        "no seed moves work off `b`"
    );
}

mod equivalence {
    use super::*;
    use crate::elastic::{ElasticChurn, ElasticEvent, ElasticEventKind, ElasticityConfig};
    use helios_workflow::generators;
    use proptest::prelude::*;

    fn workflow(family: usize, n: usize, seed: u64) -> Workflow {
        match family {
            0 => generators::montage(n, seed),
            1 => generators::cybershake(n, seed),
            2 => generators::epigenomics(n, seed),
            3 => generators::ligo_inspiral(n, seed),
            _ => generators::sipht(n, seed),
        }
        .expect("generator accepts these sizes")
    }

    fn platform(preset: usize) -> Platform {
        match preset {
            0 => presets::workstation(),
            1 => presets::hpc_node(),
            2 => presets::cluster(2),
            _ => presets::edge_soc(),
        }
    }

    fn policy(which: usize, max_retries: u32) -> RecoveryPolicy {
        match which {
            0 => RecoveryPolicy::RetryBackoff {
                base_secs: 0.002,
                factor: 2.0,
                cap_secs: 0.02,
                max_retries,
            },
            1 => RecoveryPolicy::ReplicateK {
                replicas: 2 + max_retries as usize % 2,
                max_retries,
            },
            2 => RecoveryPolicy::CheckpointRestart {
                interval_secs: 0.01,
                overhead_secs: 0.0005,
                max_retries,
            },
            _ => RecoveryPolicy::Reschedule {
                scheduler: "heft".into(),
                overhead_secs: 0.005,
                max_retries,
            },
        }
    }

    /// Timed join/drain/preempt/leave events plus a churn renewal (mean
    /// `mtbp` seconds between preemptions), spread over the platform's
    /// devices. Every departed device joins again later.
    fn elasticity(p: &Platform, at: f64, mtbp: f64) -> ElasticityConfig {
        let names: Vec<String> = p.devices().iter().map(|d| d.name().to_owned()).collect();
        let dev = |i: usize| names[i % names.len()].clone();
        let event = |i: usize, at_secs: f64, kind: ElasticEventKind| ElasticEvent {
            device: dev(i),
            at_secs,
            kind,
        };
        ElasticityConfig {
            events: vec![
                event(0, at, ElasticEventKind::Preempt { notice_secs: 0.01 }),
                event(
                    1,
                    at * 1.5,
                    ElasticEventKind::Drain {
                        deadline_secs: at * 1.5 + 0.02,
                    },
                ),
                event(2, at * 0.5, ElasticEventKind::Join),
                event(2, at * 2.0, ElasticEventKind::Leave),
                event(0, at * 3.0, ElasticEventKind::Join),
                event(1, at * 4.0, ElasticEventKind::Join),
                event(2, at * 5.0, ElasticEventKind::Join),
            ],
            churn: vec![ElasticChurn {
                device: dev(3),
                mtbp_secs: mtbp,
                weibull_shape: None,
                notice_secs: 0.005,
                rejoin_secs: 0.02,
            }],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random DAG × preset × recovery policy × fault stack × step
        /// budget: the fast mode (doomed finishes elided, flagged
        /// dispatch) and the reference mode (every finish queued, a
        /// dispatcher pass after every event) give the same report
        /// bytes, or the same error down to `completed`.
        #[test]
        fn fast_mode_matches_reference(
            family in 0usize..5,
            n in 15usize..60,
            wf_seed in 0u64..1_000,
            preset in 0usize..4,
            which in 0usize..4,
            seed in 0u64..1_000,
            mttf in 0.004f64..0.1,
            degraded_prob in 0.0f64..0.5,
            permanent: bool,
            few_retries: bool,
            retries in 0u32..4,
            link: bool,
            domain in 0usize..3,
            elastic: bool,
            elastic_at in 0.01f64..0.2,
            budgeted: bool,
            budget in 1u64..400,
        ) {
            let p = platform(preset);
            let wf = workflow(family, n, wf_seed);
            let Ok(plan) = HeftScheduler::default().schedule(&wf, &p) else {
                return; // Infeasible on this preset.
            };
            // Without a budget a run must end by itself: an attempt much
            // longer than the gap between faults retries without end.
            let longest = plan
                .placements()
                .iter()
                .map(|pl| pl.finish.saturating_since(pl.start).as_secs())
                .fold(0.0, f64::max);
            let mttf = if budgeted { mttf } else { mttf.max(2.0 * longest) };
            let mut fm = FailureModel::exponential(mttf);
            fm.degraded_prob = degraded_prob;
            fm.permanent_prob = if permanent { 0.05 } else { 0.0 };
            fm.restart_overhead_secs = 0.001;
            let retries = if few_retries { retries } else { 10_000 };
            let mut res = ResilienceConfig::new(fm, policy(which, retries));
            if link {
                res = res.with_link_faults(LinkFaultModel::exponential(0.02));
            }
            // A rack (first device and link) or a partition (the first
            // link alone, usually severed for good).
            if domain > 0 {
                let dev = p.devices()[0].name().to_owned();
                let link = p.interconnect().links()[0].name().to_owned();
                let (devs, permanent_prob) = if domain == 1 {
                    (vec![dev.as_str()], 0.1)
                } else {
                    (vec![], 0.5)
                };
                res = res.with_domains(vec![FailureDomain {
                    mttf_secs: 2.0 * mttf,
                    weibull_shape: None,
                    ..tight_domain(&devs, &[&link], 0.3, permanent_prob, 0.01)
                }]);
            }
            let cfg = EngineConfig {
                seed,
                noise_cv: 0.1,
                link_contention: seed % 2 == 0,
                data_caching: seed % 3 == 0,
                step_budget: budgeted.then_some(budget),
                resilience: Some(res),
                elasticity: elastic.then(|| elasticity(&p, elastic_at, 2.0 * mttf)),
                ..Default::default()
            };
            let (fast, reference) = both_modes(move || {
                ResilientRunner::new(cfg.clone()).execute_plan(&p, &wf, &plan)
            });
            prop_assert_eq!(fast, reference);
        }
    }
}
