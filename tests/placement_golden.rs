//! Placement golden: every list planner's placements, bit for bit.
//!
//! For each planner below, one FNV-1a digest over every placement's
//! `(task, device, level, start bits, finish bits)` of its schedules on
//! every platform preset × the five Pegasus families at 40 tasks. The
//! planners are the 12-scheduler lineup, then `rel-heft` (with a
//! non-uniform failure-rate vector) and `ea-heft`, each at alpha 0,
//! 0.3, 0.7 and 1. A schedule that fails (a family whose working sets
//! fit no device of `edge_soc`) feeds its error text instead, so the
//! failures are pinned as well. A refactor of the planning layer that claims
//! bit-identical placements must leave every digest as it is.

use helios::energy::EnergyAwareHeft;
use helios::platform::{presets, Platform};
use helios::sched::reliability::ReliabilityAwareHeft;
use helios::sched::{Scheduler, LINEUP};
use helios::workflow::generators::WorkflowClass;
use helios::workflow::Workflow;

/// The pinned digests, one per planner, in [`planners`] order.
const GOLDEN: [(&str, &str); 20] = [
    ("heft", "491075d8d68a89bb"),
    ("cpop", "d56da6941a455caf"),
    ("peft", "0fee51b67e7a9907"),
    ("lookahead", "5d9d4dc8e02d82b4"),
    ("min-min", "dc5c30002c199eaf"),
    ("max-min", "a162ba0aad64f723"),
    ("mct", "65eb75b572626561"),
    ("met", "60b840db650b066a"),
    ("olb", "02fc6143dcebcea6"),
    ("round-robin", "a7318035ea283e64"),
    ("random", "41e6ce517ebc3968"),
    ("annealing", "79d8411e617541e8"),
    ("rel-heft@0", "9efda9a782a52d50"),
    ("rel-heft@0.3", "9fcecf4570fd3977"),
    ("rel-heft@0.7", "ab52fa7f74e8a5ff"),
    ("rel-heft@1", "491075d8d68a89bb"),
    ("ea-heft@0", "1586e799d636202c"),
    ("ea-heft@0.3", "adf14e00be8f3459"),
    ("ea-heft@0.7", "915c3efe272e84ea"),
    ("ea-heft@1", "491075d8d68a89bb"),
];

const ALPHAS: [f64; 4] = [0.0, 0.3, 0.7, 1.0];

/// A failure rate per device of `platform` that differs across devices,
/// so the reliability term ranks them in an order unlike their speeds.
fn rates(platform: &Platform) -> Vec<f64> {
    (0..platform.num_devices())
        .map(|d| 1e-5 * (1 + (d * 7) % 5) as f64)
        .collect()
}

/// Every planner under test on `platform`, labelled (the reliability
/// rates depend on the device count).
fn planners(platform: &Platform) -> Vec<(String, Box<dyn Scheduler>)> {
    let mut planners: Vec<(String, Box<dyn Scheduler>)> = LINEUP
        .iter()
        .map(|(name, build)| ((*name).to_owned(), build()))
        .collect();
    for alpha in ALPHAS {
        let rel = ReliabilityAwareHeft::new(alpha, rates(platform));
        planners.push((format!("rel-heft@{alpha}"), Box::new(rel)));
    }
    for alpha in ALPHAS {
        planners.push((
            format!("ea-heft@{alpha}"),
            Box::new(EnergyAwareHeft::new(alpha)),
        ));
    }
    planners
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

#[test]
fn every_planner_places_as_pinned() {
    let platforms = presets::all();
    let workflows: Vec<Workflow> = WorkflowClass::ALL
        .iter()
        .map(|class| class.generate(40, 1).expect("family generates at 40 tasks"))
        .collect();
    let mut hashes = vec![0xcbf2_9ce4_8422_2325_u64; GOLDEN.len()];
    for platform in &platforms {
        for ((_, scheduler), hash) in planners(platform).into_iter().zip(&mut hashes) {
            for wf in &workflows {
                let plan = match scheduler.schedule(wf, platform) {
                    Ok(plan) => plan,
                    Err(e) => {
                        fnv(hash, format!("error: {e}").as_bytes());
                        continue;
                    }
                };
                for p in plan.placements() {
                    fnv(hash, &(p.task.0 as u64).to_le_bytes());
                    fnv(hash, &(p.device.0 as u64).to_le_bytes());
                    fnv(hash, &(p.level.0 as u64).to_le_bytes());
                    fnv(hash, &p.start.as_secs().to_bits().to_le_bytes());
                    fnv(hash, &p.finish.as_secs().to_bits().to_le_bytes());
                }
            }
        }
    }
    let got: Vec<(String, String)> = planners(&platforms[0])
        .into_iter()
        .zip(hashes)
        .map(|((label, _), hash)| (label, format!("{hash:016x}")))
        .collect();
    let want: Vec<(String, String)> = GOLDEN
        .iter()
        .map(|&(l, d)| (l.to_owned(), d.to_owned()))
        .collect();
    assert_eq!(got, want);
}
