//! Property tests of the execution layer: for random workflows,
//! platforms and engine configurations, runs complete, respect
//! precedence, and obey the documented monotonicities.

use proptest::prelude::*;

use helios::core::{Engine, EngineConfig, OnlinePolicy, OnlineRunner};
use helios::platform::presets;
use helios::sched::{HeftScheduler, Scheduler};
use helios::workflow::generators::synthetic::{layered_random, LayeredConfig};
use helios::workflow::Workflow;

fn wf(levels: usize, width: usize, seed: u64) -> Workflow {
    layered_random(
        &LayeredConfig {
            levels,
            width,
            edge_prob: 0.4,
            ..LayeredConfig::default()
        },
        seed,
    )
    .expect("valid config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any valid plan executes to completion under any (sane) engine
    /// configuration, and the realized schedule respects precedence.
    #[test]
    fn engine_always_completes_and_orders_events(
        levels in 1usize..5,
        width in 1usize..5,
        seed in 0u64..200,
        noise in 0.0f64..0.5,
        contention: bool,
        caching: bool,
    ) {
        let wf = wf(levels, width, seed);
        let platform = presets::workstation();
        let plan = HeftScheduler::default().schedule(&wf, &platform).unwrap();
        let config = EngineConfig {
            noise_cv: noise,
            seed,
            link_contention: contention,
            data_caching: caching,
            ..Default::default()
        };
        let report = Engine::new(config).execute_plan(&platform, &wf, &plan).unwrap();
        prop_assert_eq!(report.schedule().placements().len(), wf.num_tasks());
        for p in report.schedule().placements() {
            for &e in wf.predecessors(p.task) {
                let edge = wf.edge(e);
                let pred = report.schedule().placement(edge.src).unwrap();
                prop_assert!(pred.finish.as_secs() <= p.start.as_secs() + 1e-9,
                             "{} started before {} finished", p.task, edge.src);
            }
        }
        // Makespan bounded below by the longest single placement.
        let longest = report.schedule().placements().iter()
            .map(|p| p.duration().as_secs())
            .fold(0.0f64, f64::max);
        prop_assert!(report.makespan().as_secs() >= longest - 1e-9);
    }

    /// The online dispatcher completes any workflow and never places a
    /// task before its inputs exist.
    #[test]
    fn online_always_completes(
        levels in 1usize..5,
        width in 1usize..5,
        seed in 0u64..200,
        noise in 0.0f64..0.5,
    ) {
        let wf = wf(levels, width, seed);
        let platform = presets::workstation();
        let config = EngineConfig {
            noise_cv: noise,
            seed,
            ..Default::default()
        };
        let report = OnlineRunner::new(config, OnlinePolicy::Jit)
            .run(&platform, &wf)
            .unwrap();
        prop_assert_eq!(report.schedule().placements().len(), wf.num_tasks());
        for p in report.schedule().placements() {
            for &e in wf.predecessors(p.task) {
                let edge = wf.edge(e);
                let pred = report.schedule().placement(edge.src).unwrap();
                prop_assert!(pred.finish.as_secs() <= p.start.as_secs() + 1e-9);
            }
        }
    }

    /// Data caching never increases makespan and never increases the
    /// transfer count (with unified product sizes this is exact).
    #[test]
    fn caching_is_monotone(
        levels in 2usize..5,
        width in 2usize..5,
        seed in 0u64..200,
        contention: bool,
    ) {
        let wf = wf(levels, width, seed);
        let platform = presets::hpc_node();
        let plan = HeftScheduler::default().schedule(&wf, &platform).unwrap();
        let plain_cfg = EngineConfig {
            link_contention: contention,
            ..Default::default()
        };
        let mut cached_cfg = plain_cfg.clone();
        cached_cfg.data_caching = true;
        let plain = Engine::new(plain_cfg).execute_plan(&platform, &wf, &plan).unwrap();
        let cached = Engine::new(cached_cfg).execute_plan(&platform, &wf, &plan).unwrap();
        prop_assert!(cached.transfers().count <= plain.transfers().count);
        prop_assert!(
            cached.makespan().as_secs() <= plain.makespan().as_secs() + 1e-9,
            "caching slowed the run: {} vs {}",
            cached.makespan(), plain.makespan()
        );
    }

    /// Fault-free reports are identical regardless of the retry budget.
    #[test]
    fn retry_budget_is_inert_without_faults(
        seed in 0u64..100,
        budget in 0u32..100,
    ) {
        let wf = wf(3, 3, seed);
        let platform = presets::workstation();
        let plan = HeftScheduler::default().schedule(&wf, &platform).unwrap();
        let a = Engine::new(EngineConfig::default())
            .execute_plan(&platform, &wf, &plan)
            .unwrap();
        // Faults configured with an astronomically long MTBF never fire.
        let config = EngineConfig {
            resilience: Some(helios::core::ResilienceConfig::new(
                helios::core::FailureModel::exponential(1e15),
                helios::core::RecoveryPolicy::flat_retry(budget),
            )),
            ..Default::default()
        };
        let b = Engine::new(config).execute_plan(&platform, &wf, &plan).unwrap();
        prop_assert_eq!(a.schedule(), b.schedule());
        prop_assert_eq!(b.failures(), 0);
    }
}
