//! Determinism of the parallel campaign engine and the cached
//! scheduler hot path.
//!
//! Two guarantees are pinned here:
//!
//! 1. [`CampaignEngine`] output is **byte-identical** to the sequential
//!    path for every `--jobs` value, across randomized campaign grids
//!    (property-based).
//! 2. The memoized per-device-pair transfer terms inside
//!    [`SchedContext`] reproduce the uncached reference computation
//!    bit-for-bit on every Pegasus workflow family.

use helios_core::{CampaignEngine, EngineConfig, EnsembleMember, EnsemblePolicy, EnsembleRunner};
use helios_platform::{presets, DeviceId, Platform};
use helios_sched::{CostModel, HeftScheduler, SchedContext, Scheduler};
use helios_sim::SimTime;
use helios_workflow::generators::WorkflowClass;
use helios_workflow::{TaskId, Workflow};
use proptest::prelude::*;

/// Runs one randomized campaign grid with the given worker count and
/// renders every report to bytes (debug formatting shows every field,
/// including all f64 bits that differ under reordered arithmetic).
fn run_grid(
    jobs: usize,
    cells: &[(usize, u64, usize)], // (class index, seed, members)
) -> Result<String, String> {
    let platform = presets::workstation();
    let reports = CampaignEngine::new(jobs)
        .run(cells, |_, &(class_idx, seed, members)| {
            let class = WorkflowClass::ALL[class_idx % WorkflowClass::ALL.len()];
            let members: Vec<EnsembleMember> = (0..members)
                .map(|m| {
                    Ok(EnsembleMember {
                        workflow: class.generate(30 + 5 * m, seed + m as u64)?,
                        arrival: SimTime::from_secs(0.05 * m as f64),
                        priority: 1.0 + m as f64,
                    })
                })
                .collect::<Result<_, helios_core::EngineError>>()?;
            let config = EngineConfig {
                seed,
                noise_cv: 0.1,
                ..Default::default()
            };
            EnsembleRunner::new(config, EnsemblePolicy::Priority).run(&platform, &members)
        })
        .map_err(|e| e.to_string())?;
    Ok(format!("{reports:?}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn campaign_output_is_byte_identical_across_jobs(
        seed in 0u64..1_000,
        cell_count in 1usize..5,
        class_offset in 0usize..5,
        jobs in 2usize..6,
    ) {
        let cells: Vec<(usize, u64, usize)> = (0..cell_count)
            .map(|i| (class_offset + i, seed + i as u64, 1 + i % 3))
            .collect();
        let sequential = run_grid(1, &cells).unwrap();
        let parallel = run_grid(jobs, &cells).unwrap();
        prop_assert_eq!(&sequential, &parallel);
        // jobs = 0 (auto-detect) must agree too.
        let auto = run_grid(0, &cells).unwrap();
        prop_assert_eq!(&sequential, &auto);
    }
}

#[test]
fn campaign_errors_match_the_sequential_path() {
    // Cell 2 fails (zero-member ensemble); every jobs value must report
    // exactly that cell's error.
    let platform = presets::workstation();
    let run = |jobs: usize| {
        CampaignEngine::new(jobs)
            .run(&[1usize, 3, 0, 2, 0], |_, &members| {
                let members: Vec<EnsembleMember> = (0..members)
                    .map(|m| {
                        Ok(EnsembleMember {
                            workflow: WorkflowClass::ALL[0].generate(30, m as u64)?,
                            arrival: SimTime::ZERO,
                            priority: 1.0,
                        })
                    })
                    .collect::<Result<_, helios_core::EngineError>>()?;
                EnsembleRunner::new(EngineConfig::default(), EnsemblePolicy::Fifo)
                    .run(&platform, &members)
            })
            .map(|_| ())
            .unwrap_err()
            .to_string()
    };
    let sequential = run(1);
    assert!(sequential.contains("no members"), "{sequential}");
    for jobs in [2, 3, 8] {
        assert_eq!(run(jobs), sequential, "jobs = {jobs}");
    }
}

/// [`SchedContext::data_ready`] computed without the memoized transfer
/// table: each predecessor's finish plus the platform model's transfer
/// time, maximized in edge order.
fn data_ready_uncached(
    wf: &Workflow,
    platform: &Platform,
    ctx: &SchedContext<'_>,
    task: TaskId,
    device: DeviceId,
) -> SimTime {
    let mut ready = SimTime::ZERO;
    for &e in wf.predecessors(task) {
        let edge = wf.edge(e);
        let pred = ctx.placement(edge.src).expect("predecessor placed");
        let transfer = platform
            .transfer_time(edge.bytes, pred.device, device)
            .expect("routable");
        ready = ready.max(pred.finish + transfer);
    }
    ready
}

#[test]
fn cached_sched_context_matches_uncached_reference_on_all_families() {
    for platform in [presets::workstation(), presets::hpc_node()] {
        for class in WorkflowClass::ALL {
            let wf = class.generate(60, 7).expect("generator succeeds");
            // Drive a full HEFT construction; at every step compare the
            // cached data-ready/EFT values against the uncached
            // reference for every feasible device.
            let order = {
                let plan = HeftScheduler::default()
                    .schedule(&wf, &platform)
                    .expect("heft plan");
                let mut order: Vec<TaskId> = (0..wf.num_tasks()).map(TaskId).collect();
                order.sort_by_key(|&t| {
                    let p = plan.placement(t).expect("placed");
                    (p.start, t)
                });
                order
            };
            let model = CostModel::new(&wf, &platform).expect("cost model");
            let mut ctx = SchedContext::new(&wf, &model, true);
            for &task in &order {
                let devices = model.feasible_devices(task);
                assert!(
                    !devices.is_empty(),
                    "{}: task {task} unplaceable",
                    class.as_str()
                );
                for &dev in devices {
                    let cached = ctx.data_ready(task, dev).expect("data_ready");
                    let reference = data_ready_uncached(&wf, &platform, &ctx, task, dev);
                    assert_eq!(
                        cached,
                        reference,
                        "{} on {}: data_ready({task}, {dev}) diverged",
                        class.as_str(),
                        platform.name()
                    );
                }
                let (dev, start, finish) = ctx.best_eft(task).expect("best_eft");
                // best_eft must agree with the per-device eft probe.
                let (s2, f2) = ctx.eft(task, dev).expect("eft");
                assert_eq!((start, finish), (s2, f2));
                for &d in devices {
                    let (_, f) = ctx.eft(task, d).expect("eft");
                    assert!(
                        f > finish || (f == finish && d.0 >= dev.0),
                        "{}: best_eft missed a better device {d} for {task}",
                        class.as_str()
                    );
                }
                ctx.place(task, dev, start, finish).expect("place");
            }
            assert!(ctx.is_complete());
        }
    }
}
