//! Byte-identity of the sharded sweep driver.
//!
//! Acceptance pin for the sharded campaign layer: for a fixed spec,
//! merging any complete shard partition (1/1, 2 shards, 4 shards)
//! yields a report **byte-identical** to the unsharded sequential run
//! — same JSON, same bytes — and the worker count never changes the
//! bytes either. Incomplete, overlapping or cross-spec merges are hard
//! errors.

use helios_core::{merge_shards, CampaignSpec, ShardReport, ShardSpec, SweepDriver, SweepReport};

const SPEC_JSON: &str = r#"{
    "name": "shard-identity",
    "families": ["montage", "sipht"],
    "platforms": ["workstation"],
    "schedulers": ["heft", "min-min"],
    "seeds": {"base": 1, "count": 2},
    "tasks": 24,
    "noise_cv": 0.05
}"#;

fn spec() -> CampaignSpec {
    CampaignSpec::from_json(SPEC_JSON).expect("test spec is valid")
}

fn report_bytes(report: &SweepReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

/// FNV-1a (64-bit) over a report's serialized bytes, as 16 hex digits.
fn report_digest(report: &SweepReport) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in report_bytes(report).as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{hash:016x}")
}

#[test]
fn any_shard_partition_merges_byte_identical_to_the_unsharded_run() {
    let spec = spec();
    let driver = SweepDriver::new(1);
    let unsharded = report_bytes(&driver.run(&spec).expect("unsharded run"));

    for shard_count in [1usize, 2, 4] {
        let mut shards: Vec<ShardReport> = (1..=shard_count)
            .map(|k| {
                driver
                    .run_shard(&spec, ShardSpec::new(k, shard_count).unwrap())
                    .unwrap_or_else(|e| panic!("shard {k}/{shard_count}: {e}"))
            })
            .collect();
        let merged = report_bytes(&merge_shards(&shards).expect("merge"));
        assert_eq!(
            merged, unsharded,
            "{shard_count}-shard merge must be byte-identical"
        );
        // Merge order must not matter either.
        shards.reverse();
        let reversed = report_bytes(&merge_shards(&shards).expect("reversed merge"));
        assert_eq!(reversed, unsharded, "merge must be order-independent");
    }
}

#[test]
fn worker_count_does_not_change_the_bytes() {
    let spec = spec();
    let sequential = report_bytes(&SweepDriver::new(1).run(&spec).unwrap());
    for jobs in [0usize, 3] {
        let parallel = report_bytes(&SweepDriver::new(jobs).run(&spec).unwrap());
        assert_eq!(sequential, parallel, "jobs = {jobs}");
    }
}

#[test]
fn incomplete_and_overlapping_merges_are_hard_errors() {
    let spec = spec();
    let driver = SweepDriver::new(1);
    let s1 = driver
        .run_shard(&spec, ShardSpec::parse("1/2").unwrap())
        .unwrap();
    let s2 = driver
        .run_shard(&spec, ShardSpec::parse("2/2").unwrap())
        .unwrap();

    let err = merge_shards(std::slice::from_ref(&s1))
        .unwrap_err()
        .to_string();
    assert!(err.contains("incomplete partition"), "{err}");

    let err = merge_shards(&[s1.clone(), s1.clone(), s2.clone()])
        .unwrap_err()
        .to_string();
    assert!(err.contains("overlapping"), "{err}");

    // A shard of a different spec (different noise) must be refused.
    let other_spec =
        CampaignSpec::from_json(&SPEC_JSON.replace("0.05", "0.25")).expect("variant spec");
    let foreign = driver
        .run_shard(&other_spec, ShardSpec::parse("2/2").unwrap())
        .unwrap();
    let err = merge_shards(&[s1, foreign]).unwrap_err().to_string();
    assert!(err.contains("disagree"), "{err}");
}

#[test]
fn sweep_report_roundtrips_through_json() {
    let spec = spec();
    let report = SweepDriver::new(1).run(&spec).unwrap();
    let json = report_bytes(&report);
    let back: SweepReport = serde_json::from_str(&json).expect("roundtrip");
    assert_eq!(back, report);
    assert_eq!(report.total_cells, spec.num_cells());
    assert_eq!(report.summary.len(), 4, "one row per (family, scheduler)");
    for row in &report.summary {
        assert_eq!(row.cells, 2, "two seeds per combination");
        assert!(row.mean_makespan_secs.unwrap() > 0.0 && row.mean_slr.unwrap() >= 1.0);
    }
}

#[test]
fn dvfs_and_fault_knobs_change_cell_outcomes() {
    let base = spec();
    let run = |json: String| {
        SweepDriver::new(1)
            .run(&CampaignSpec::from_json(&json).expect("knob spec"))
            .expect("knob run")
    };
    let nominal = SweepDriver::new(1).run(&base).unwrap();

    // Powersave pins every placement to the slowest DVFS state; no
    // device gets faster, so no cell's makespan may shrink.
    let powersave =
        run(SPEC_JSON.replace(r#""tasks": 24,"#, r#""tasks": 24, "dvfs": "powersave","#));
    assert_eq!(powersave.total_cells, nominal.total_cells);
    let mut slower = 0usize;
    for (p, n) in powersave.cells.iter().zip(&nominal.cells) {
        assert!(
            p.makespan_secs >= n.makespan_secs * (1.0 - 1e-9),
            "cell {}: powersave {} < nominal {}",
            n.cell,
            p.makespan_secs,
            n.makespan_secs
        );
        slower += usize::from(p.makespan_secs > n.makespan_secs);
    }
    assert!(slower > 0, "powersave must slow at least one cell");

    // Fault injection with a tight MTBF must produce failures and
    // retries somewhere in the grid, and stay deterministic.
    let faulty_json = SPEC_JSON.replace(
        r#""noise_cv": 0.05"#,
        r#""noise_cv": 0.05,
           "faults": {"mtbf_secs": 0.5, "restart_overhead_secs": 0.001, "max_retries": 100}"#,
    );
    let faulty = run(faulty_json.clone());
    let failures: u32 = faulty.cells.iter().map(|c| c.failures).sum();
    let retries: u32 = faulty.cells.iter().map(|c| c.retries).sum();
    assert!(failures > 0, "tight MTBF must inject failures");
    assert!(retries > 0, "failed tasks must retry");
    assert_eq!(
        report_bytes(&faulty),
        report_bytes(&run(faulty_json)),
        "fault injection must be deterministic"
    );
    // Pinned bytes: the spec `faults` block must keep producing exactly
    // these cells whichever engine-level vocabulary it compiles into.
    assert_eq!(report_digest(&faulty), "44b4eb177c83b9c4");
}

#[test]
fn committed_example_specs_are_valid() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/specs");
    let smoke = std::fs::read_to_string(dir.join("smoke.json")).expect("smoke.json");
    let smoke = CampaignSpec::from_json(&smoke).expect("smoke spec parses");
    assert_eq!(smoke.num_cells(), 8);

    let grid = std::fs::read_to_string(dir.join("paper_grid.json")).expect("paper_grid.json");
    let grid = CampaignSpec::from_json(&grid).expect("paper grid parses");
    assert_eq!(
        grid.num_cells(),
        5 * 4 * 12 * 5,
        "full F3 grid: families x platforms x schedulers x seeds"
    );
}

/// The full paper grid (`examples/specs/paper_grid.json`: 1200 cells of
/// 100 tasks), pinned by digest: the byte-identity anchor for changes
/// to the planning hot path and the sweep driver. About 1.5 s in
/// release; run it with
/// `cargo test --release --test sweep_shards -- --ignored`.
#[test]
#[ignore = "full paper grid; run explicitly in release"]
fn paper_grid_report_digest_is_pinned() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/specs");
    let json = std::fs::read_to_string(dir.join("paper_grid.json")).expect("paper_grid.json");
    let spec = CampaignSpec::from_json(&json).expect("paper grid parses");
    let report = SweepDriver::new(1).run(&spec).expect("paper grid runs");
    assert_eq!(report.cells.len(), 1200);
    assert_eq!(report_digest(&report), "da0cfc8d72443b1e");
}
