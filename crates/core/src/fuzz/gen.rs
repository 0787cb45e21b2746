//! Seeded campaign-spec generator: one deterministic, valid-by-
//! construction [`CampaignSpec`] per `(fuzz_seed, case)` pair, drawn
//! from the full knob space the sweep driver accepts.
//!
//! The generator is the scenario-diversity engine of the adversarial
//! harness: every case samples families, presets and schedulers plus
//! the noise/contention/caching/DVFS knobs, per-scheduler tuning
//! overrides, the legacy fault block or a full resilience stack
//! (recovery policy, interconnect faults, correlated failure domains),
//! elastic-capacity plans (timed join/drain/preempt/leave events and
//! stochastic spot churn) and an occasional tight step budget. Grids
//! are kept small (at most
//! 2 × 2 × 2 × 2 cells, 15–30 tasks) because every case is swept
//! several times over by the differential oracles.

use helios_sched::LookaheadScheduler;
use helios_sim::failure::{PROBABILITY, SCALE_SECS, SHAPE};
use helios_sim::{KnobRange, KnobValue, SimRng};
use helios_workflow::generators::WorkflowClass;

use crate::campaign::{
    CampaignSpec, DvfsKnob, FaultKnob, ResilienceKnob, SchedulerParamsKnob, SeedRange,
};
use crate::elastic::{ElasticChurn, ElasticEvent, ElasticEventKind, ElasticityConfig};
use crate::resilience::{
    FailureDomain, LinkFaultModel, RecoveryPolicy, DURATION_SECS, PERIOD_SECS, REPLICAS, SLOWDOWN,
};
use crate::EngineConfig;

/// Workflow families a generated spec may sweep: every generator class,
/// in [`WorkflowClass::ALL`] order.
fn family_menu() -> Vec<&'static str> {
    WorkflowClass::ALL.iter().map(|c| c.as_str()).collect()
}

/// Platform presets a generated spec may sweep.
pub const PLATFORMS: &[&str] = &[
    "workstation",
    "hpc_node",
    "cluster2",
    "cluster3",
    "edge_soc",
];

/// Schedulers a generated spec may sweep: the full lineup, in
/// [`helios_sched::LINEUP`] order.
fn scheduler_menu() -> Vec<String> {
    helios_sched::LINEUP
        .iter()
        .map(|(name, _)| (*name).to_owned())
        .collect()
}

/// The smallest `tasks` value every family's generator accepts:
/// epigenomics' minimum, the largest (a unit test checks that).
pub const MIN_TASKS: usize = WorkflowClass::Epigenomics.min_tasks();

/// `rng.uniform(lo, hi)` for a knob declared legal in `range`: the
/// generator draws inside narrower ranges on purpose, never outside.
fn draw(rng: &mut SimRng, range: KnobRange<f64>, lo: f64, hi: f64) -> f64 {
    let inside = range.contains(lo) && range.contains(hi);
    assert!(inside, "draw [{lo}, {hi}] leaves {range}");
    rng.uniform(lo, hi)
}

/// [`draw`] for an integer knob of type `T`.
fn draw_int<T: KnobValue + TryFrom<usize>>(
    rng: &mut SimRng,
    range: KnobRange<T>,
    lo: usize,
    hi: usize,
) -> T {
    let legal = |v: usize| T::try_from(v).ok().filter(|&v| range.contains(v));
    assert!(
        legal(lo).and(legal(hi)).is_some(),
        "draw [{lo}, {hi}] leaves {range}"
    );
    legal(rng.uniform_usize(lo, hi)).expect("a draw between legal ends is legal")
}

/// Member devices and links of a preset, in preset order and each link
/// name once, for generating failure domains whose members resolve
/// during spec validation.
fn domain_members(platform: &str) -> (Vec<String>, Vec<String>) {
    let preset =
        helios_platform::presets::by_name(platform).expect("generated platforms are presets");
    let devices = preset
        .devices()
        .iter()
        .map(|d| d.name().to_owned())
        .collect();
    let mut links: Vec<String> = Vec::new();
    for link in preset.interconnect().links() {
        if !links.iter().any(|l| l == link.name()) {
            links.push(link.name().to_owned());
        }
    }
    (devices, links)
}

/// Draws `n` distinct entries from `menu`, in shuffled order.
fn pick_distinct<S: AsRef<str>>(rng: &mut SimRng, menu: &[S], n: usize) -> Vec<String> {
    let mut idx: Vec<usize> = (0..menu.len()).collect();
    rng.shuffle(&mut idx);
    idx[..n]
        .iter()
        .map(|&i| menu[i].as_ref().to_owned())
        .collect()
}

/// Draws the recovery policy; all four kinds are reachable.
fn gen_policy(rng: &mut SimRng, schedulers: &[String]) -> RecoveryPolicy {
    let max_retries = rng.uniform_usize(1, 8) as u32;
    match rng.uniform_usize(0, 3) {
        0 => {
            let base_secs = draw(rng, DURATION_SECS, 0.0, 0.01);
            RecoveryPolicy::RetryBackoff {
                base_secs,
                factor: draw(rng, SLOWDOWN, 1.0, 3.0),
                cap_secs: base_secs + draw(rng, DURATION_SECS, 0.0, 0.05),
                max_retries,
            }
        }
        1 => RecoveryPolicy::ReplicateK {
            replicas: draw_int(rng, REPLICAS, 2, 3),
            max_retries,
        },
        2 => RecoveryPolicy::CheckpointRestart {
            interval_secs: draw(rng, PERIOD_SECS, 0.05, 0.5),
            overhead_secs: draw(rng, DURATION_SECS, 0.0, 0.02),
            max_retries,
        },
        _ => RecoveryPolicy::Reschedule {
            scheduler: rng
                .choose(schedulers)
                .expect("scheduler menu is non-empty")
                .clone(),
            overhead_secs: draw(rng, DURATION_SECS, 0.0, 0.02),
            max_retries,
        },
    }
}

/// Draws the device failure model plus recovery policy.
fn gen_resilience(rng: &mut SimRng, schedulers: &[String]) -> ResilienceKnob {
    ResilienceKnob {
        mttf_secs: draw(rng, SCALE_SECS, 0.5, 5.0),
        weibull_shape: if rng.chance(0.3) {
            Some(draw(rng, SHAPE, 0.7, 2.2))
        } else {
            None
        },
        degraded_prob: if rng.chance(0.5) {
            draw(rng, PROBABILITY, 0.0, 0.4)
        } else {
            0.0
        },
        permanent_prob: if rng.chance(0.3) {
            draw(rng, PROBABILITY, 0.0, 0.2)
        } else {
            0.0
        },
        degraded_slowdown: draw(rng, SLOWDOWN, 1.0, 3.0),
        degraded_repair_secs: draw(rng, DURATION_SECS, 0.0, 0.3),
        restart_overhead_secs: draw(rng, DURATION_SECS, 0.0, 0.01),
        policy: gen_policy(rng, schedulers),
    }
}

/// Draws the per-link interconnect fault model.
fn gen_interconnect(rng: &mut SimRng) -> LinkFaultModel {
    LinkFaultModel {
        mttf_secs: draw(rng, SCALE_SECS, 0.2, 3.0),
        weibull_shape: if rng.chance(0.3) {
            Some(draw(rng, SHAPE, 0.7, 2.0))
        } else {
            None
        },
        degraded_prob: draw(rng, PROBABILITY, 0.0, 0.6),
        degraded_factor: draw(rng, SLOWDOWN, 1.0, 4.0),
        outage_secs: draw(rng, DURATION_SECS, 0.0, 0.2),
        degraded_repair_secs: draw(rng, DURATION_SECS, 0.0, 0.2),
    }
}

/// Draws 1–2 correlated failure domains whose members exist on
/// `platform`.
fn gen_domains(rng: &mut SimRng, platform: &str) -> Vec<FailureDomain> {
    let (devices, links) = domain_members(platform);
    let n = rng.uniform_usize(1, 2);
    (0..n)
        .map(|i| {
            let n_devices = rng.uniform_usize(1, 2.min(devices.len()));
            FailureDomain {
                kind: (*rng
                    .choose(FailureDomain::kinds())
                    .expect("kind menu is non-empty"))
                .to_owned(),
                name: format!("d{i}"),
                devices: pick_distinct(rng, &devices, n_devices),
                links: if rng.chance(0.4) {
                    pick_distinct(rng, &links, 1)
                } else {
                    Vec::new()
                },
                mttf_secs: draw(rng, SCALE_SECS, 0.5, 5.0),
                weibull_shape: if rng.chance(0.25) {
                    Some(draw(rng, SHAPE, 0.7, 2.0))
                } else {
                    None
                },
                degraded_prob: if rng.chance(0.5) {
                    draw(rng, PROBABILITY, 0.0, 0.5)
                } else {
                    0.0
                },
                permanent_prob: if rng.chance(0.3) {
                    draw(rng, PROBABILITY, 0.0, 0.3)
                } else {
                    0.0
                },
                outage_secs: draw(rng, DURATION_SECS, 0.0, 0.2),
            }
        })
        .collect()
}

/// Devices present on *every* platform of the grid — the only legal
/// targets for elasticity events, which spec validation resolves per
/// platform.
fn elastic_members(platforms: &[String]) -> Vec<String> {
    let mut menu = domain_members(&platforms[0]).0;
    for p in &platforms[1..] {
        let (devs, _) = domain_members(p);
        menu.retain(|d| devs.contains(d));
    }
    menu
}

/// Draws an elasticity block over `devices`: join-only plans (devices
/// start the run absent), preempt storms on a single device, mixed
/// timed plans, or stochastic spot churn. Pathological-but-valid shapes
/// are deliberate; invalid ones (drain deadline at/before the notice,
/// zero notices) are ruled out by construction, matching what spec
/// validation would reject.
fn gen_elasticity(rng: &mut SimRng, devices: &[String]) -> ElasticityConfig {
    let mut events = Vec::new();
    let mut churn = Vec::new();
    match rng.uniform_usize(0, 3) {
        // Join-only plan: the named devices start absent and arrive
        // mid-flight; everything queued for them waits.
        0 => {
            let cap = devices.len().saturating_sub(1).clamp(1, 2);
            let n = rng.uniform_usize(1, cap);
            for device in pick_distinct(rng, devices, n) {
                events.push(ElasticEvent {
                    device,
                    at_secs: draw(rng, DURATION_SECS, 0.0, 1.0),
                    kind: ElasticEventKind::Join,
                });
            }
        }
        // Preempt storm: repeated spot kills and re-acquisitions of one
        // device.
        1 => {
            let device = (*rng.choose(devices).expect("device menu is non-empty")).to_owned();
            let mut at = 0.0;
            for _ in 0..rng.uniform_usize(2, 4) {
                at += draw(rng, DURATION_SECS, 0.05, 0.6);
                events.push(ElasticEvent {
                    device: device.clone(),
                    at_secs: at,
                    kind: ElasticEventKind::Preempt {
                        notice_secs: draw(rng, PERIOD_SECS, 0.005, 0.1),
                    },
                });
                at += draw(rng, DURATION_SECS, 0.05, 0.4);
                events.push(ElasticEvent {
                    device: device.clone(),
                    at_secs: at,
                    kind: ElasticEventKind::Join,
                });
            }
        }
        // Mixed timed plan across random devices.
        2 => {
            for _ in 0..rng.uniform_usize(1, 3) {
                let device = (*rng.choose(devices).expect("device menu is non-empty")).to_owned();
                let at_secs = draw(rng, DURATION_SECS, 0.0, 1.5);
                let kind = match rng.uniform_usize(0, 3) {
                    0 => ElasticEventKind::Join,
                    1 => ElasticEventKind::Drain {
                        deadline_secs: at_secs + draw(rng, PERIOD_SECS, 0.01, 0.5),
                    },
                    2 => ElasticEventKind::Preempt {
                        notice_secs: draw(rng, PERIOD_SECS, 0.005, 0.2),
                    },
                    _ => ElasticEventKind::Leave,
                };
                events.push(ElasticEvent {
                    device,
                    at_secs,
                    kind,
                });
            }
        }
        // Stochastic spot churn on 1–2 devices.
        _ => {
            let n = rng.uniform_usize(1, 2.min(devices.len()));
            for device in pick_distinct(rng, devices, n) {
                let weibull_shape = if rng.chance(0.3) {
                    Some(draw(rng, SHAPE, 0.7, 2.0))
                } else {
                    None
                };
                churn.push(ElasticChurn {
                    device,
                    mtbp_secs: draw(rng, SCALE_SECS, 0.3, 3.0),
                    weibull_shape,
                    notice_secs: draw(rng, PERIOD_SECS, 0.005, 0.1),
                    rejoin_secs: draw(rng, PERIOD_SECS, 0.05, 0.8),
                });
            }
        }
    }
    ElasticityConfig { events, churn }
}

/// Generates the deterministic spec of fuzz case `case` under
/// `fuzz_seed`. The result always passes [`CampaignSpec::validate`];
/// the harness's unit tests pin that property over many cases.
#[must_use]
pub fn generate_spec(fuzz_seed: u64, case: usize) -> CampaignSpec {
    let mut rng = SimRng::seed_from(fuzz_seed).fork(case as u64 + 1);

    let families = {
        let n = rng.uniform_usize(1, 2);
        pick_distinct(&mut rng, &family_menu(), n)
    };

    // Fault mode: ~40% fault-free, ~20% legacy flat-retry faults, ~40%
    // full resilience stack. Correlated domains pin the grid to a
    // single preset so domain members resolve on every spec platform.
    let fault_roll = rng.uniform_usize(0, 9);
    let with_resilience = fault_roll >= 6;
    let with_legacy_faults = (4..6).contains(&fault_roll);
    let with_domains = with_resilience && rng.chance(0.45);

    let platforms = if with_domains {
        pick_distinct(&mut rng, PLATFORMS, 1)
    } else {
        let n = rng.uniform_usize(1, 2);
        pick_distinct(&mut rng, PLATFORMS, n)
    };

    let lineup = scheduler_menu();
    let schedulers = {
        let n = rng.uniform_usize(1, 2);
        pick_distinct(&mut rng, &lineup, n)
    };

    let has = |name: &str| schedulers.iter().any(|s| s == name);
    let scheduler_params = if (has("annealing") || has("lookahead")) && rng.chance(0.5) {
        let knob = SchedulerParamsKnob {
            annealing_iterations: if has("annealing") && rng.chance(0.8) {
                Some(draw_int(
                    &mut rng,
                    SchedulerParamsKnob::ANNEALING_ITERATIONS,
                    5,
                    120,
                ))
            } else {
                None
            },
            lookahead_depth: if has("lookahead") && rng.chance(0.8) {
                Some(draw_int(&mut rng, LookaheadScheduler::DEPTH, 1, 2))
            } else {
                None
            },
        };
        (!knob.is_empty()).then_some(knob)
    } else {
        None
    };

    let seeds = SeedRange {
        base: rng.uniform_usize(0, 999) as u64,
        count: rng.uniform_usize(1, 2),
    };
    let tasks = rng.uniform_usize(MIN_TASKS, 30);
    let noise_cv = if rng.chance(0.5) {
        draw(&mut rng, EngineConfig::NOISE_CV, 0.01, 0.25)
    } else {
        0.0
    };
    let link_contention = rng.chance(0.4);
    let data_caching = rng.chance(0.4);
    let dvfs = match rng.uniform_usize(0, 9) {
        0..=5 => DvfsKnob::Nominal,
        6 | 7 => DvfsKnob::Powersave,
        _ => DvfsKnob::Performance,
    };

    let faults = with_legacy_faults.then(|| FaultKnob {
        mtbf_secs: draw(&mut rng, SCALE_SECS, 0.5, 4.0),
        restart_overhead_secs: draw(&mut rng, DURATION_SECS, 0.0, 0.01),
        max_retries: rng.uniform_usize(0, 6) as u32,
    });
    let resilience = with_resilience.then(|| gen_resilience(&mut rng, &lineup));
    let interconnect_faults =
        (with_resilience && rng.chance(0.4)).then(|| gen_interconnect(&mut rng));
    let failure_domains = if with_domains {
        gen_domains(&mut rng, &platforms[0])
    } else {
        Vec::new()
    };

    // A tight budget occasionally exercises the timed_out path; most
    // cases run unbudgeted or under a ceiling no healthy cell reaches.
    let cell_step_budget = match rng.uniform_usize(0, 9) {
        0 => Some(draw_int(&mut rng, EngineConfig::STEP_BUDGET, 50, 2_000)),
        1..=5 => None,
        _ => Some(5_000_000),
    };

    // Elastic capacity: ~30% of non-legacy-fault cases get an
    // elasticity block (legacy faults are mutually exclusive with
    // capacity events). Event targets come from the intersection of the
    // grid's platform device menus so every name resolves everywhere.
    let elastic_menu = elastic_members(&platforms);
    let elasticity = (!with_legacy_faults && !elastic_menu.is_empty() && rng.chance(0.3))
        .then(|| gen_elasticity(&mut rng, &elastic_menu));

    CampaignSpec {
        name: format!("fuzz-{fuzz_seed}-{case}"),
        families,
        platforms,
        schedulers,
        scheduler_params,
        seeds,
        tasks,
        noise_cv,
        link_contention,
        data_caching,
        dvfs,
        faults,
        resilience,
        interconnect_faults,
        failure_domains,
        elasticity,
        cell_step_budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn menus_resolve() {
        // The generator's RNG stream indexes these menus, so their order
        // is part of every generated spec.
        assert_eq!(
            family_menu(),
            ["montage", "cybershake", "epigenomics", "ligo", "sipht"]
        );
        for p in PLATFORMS {
            assert!(
                helios_platform::presets::by_name(p).is_some(),
                "{p:?} is not a platform preset"
            );
        }
        assert_eq!(
            scheduler_menu(),
            [
                "heft",
                "cpop",
                "peft",
                "lookahead",
                "min-min",
                "max-min",
                "mct",
                "met",
                "olb",
                "round-robin",
                "random",
                "annealing",
            ]
        );
    }

    #[test]
    fn generated_specs_validate_and_are_deterministic() {
        let mut with_resilience = 0;
        let mut with_domains = 0;
        let mut with_faults = 0;
        let mut with_elasticity = 0;
        let mut with_churn = 0;
        for case in 0..200 {
            let spec = generate_spec(42, case);
            spec.validate()
                .unwrap_or_else(|e| panic!("case {case} does not validate: {e}"));
            assert_eq!(
                spec,
                generate_spec(42, case),
                "case {case} is not deterministic"
            );
            assert!(spec.num_cells() <= 16, "case {case} grid too large");
            with_resilience += usize::from(spec.resilience.is_some());
            with_domains += usize::from(!spec.failure_domains.is_empty());
            with_faults += usize::from(spec.faults.is_some());
            with_elasticity += usize::from(spec.elasticity.is_some());
            with_churn += usize::from(
                spec.elasticity
                    .as_ref()
                    .is_some_and(|el| !el.churn.is_empty()),
            );
        }
        // The knob-space sweep must actually reach every fault class.
        assert!(
            with_resilience > 20,
            "resilience undersampled: {with_resilience}"
        );
        assert!(
            with_domains > 5,
            "failure domains undersampled: {with_domains}"
        );
        assert!(
            with_faults > 10,
            "legacy faults undersampled: {with_faults}"
        );
        assert!(
            with_elasticity > 15,
            "elasticity undersampled: {with_elasticity}"
        );
        assert!(with_churn > 3, "spot churn undersampled: {with_churn}");
    }

    /// [`draw`] and [`draw_int`] assert that both ends of every draw lie
    /// inside the knob's declared range; generating enough cases to
    /// reach every branch that draws runs each of those checks.
    #[test]
    fn every_draw_lies_inside_its_declared_range() {
        assert_eq!(
            MIN_TASKS,
            WorkflowClass::ALL
                .map(WorkflowClass::min_tasks)
                .into_iter()
                .max()
                .unwrap()
        );
        let mut reached = std::collections::BTreeSet::new();
        for case in 0..600 {
            let spec = generate_spec(7, case);
            let rk = spec.resilience.as_ref();
            reached.extend(rk.map(|rk| rk.policy.name()));
            reached.extend(rk.and(spec.interconnect_faults.as_ref()).map(|_| "links"));
            reached.extend((!spec.failure_domains.is_empty()).then_some("domains"));
            reached.extend(spec.faults.map(|_| "faults"));
            let tight = spec.cell_step_budget.is_some_and(|b| b < 5_000_000);
            reached.extend(tight.then_some("budget"));
            reached.extend(spec.scheduler_params.map(|_| "scheduler_params"));
            for ev in spec.elasticity.iter().flat_map(|el| &el.events) {
                reached.insert(ev.kind.name());
            }
            let churn = spec
                .elasticity
                .as_ref()
                .is_some_and(|el| !el.churn.is_empty());
            reached.extend(churn.then_some("churn"));
        }
        let want = [
            "budget",
            "checkpoint-restart",
            "churn",
            "domains",
            "drain",
            "faults",
            "join",
            "leave",
            "links",
            "preempt",
            "replicate-k",
            "reschedule",
            "retry-backoff",
            "scheduler_params",
        ];
        assert_eq!(reached.into_iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn different_seeds_give_different_cases() {
        assert_ne!(generate_spec(1, 0), generate_spec(2, 0));
        assert_ne!(generate_spec(1, 0), generate_spec(1, 1));
    }
}
