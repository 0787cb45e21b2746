//! Integration pins for the columnar store and its query pipeline.
//!
//! The refactor's contract is byte-fidelity in both directions:
//!
//! * rows written through [`StoreWriter`] and salvaged back must
//!   reproduce the exact [`CellResult`]s (`SELECT *` is the identity),
//! * `summarize` — now a group-by plan over the executor pipeline —
//!   must still produce the exact summary rows the legacy hand-rolled
//!   loop did, including the null means of rows where no cell
//!   completed.

use proptest::prelude::*;

use helios_core::store::{cell_from_row, schema_names, summarize_cells, Value};
use helios_core::{
    merge_shards, read_store, run_query, CampaignSpec, CellResult, ShardSpec, StoreHeader,
    StoreWriter, SweepDriver, SweepOptions, SweepReport,
};

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("helios-store-query-tests");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(format!("{}-{name}", std::process::id()))
}

fn small_spec_json(extra: &str) -> String {
    format!(
        r#"{{
            "name": "store-query",
            "families": ["montage"],
            "platforms": ["workstation"],
            "schedulers": ["heft", "olb"],
            "seeds": {{"base": 0, "count": 2}},
            "tasks": 20,
            "noise_cv": 0.1{extra}
        }}"#
    )
}

fn report_bytes(report: &SweepReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

/// The legacy `summarize` loop, re-implemented verbatim as the test
/// oracle: group by (family, platform, scheduler) in first-seen order,
/// mean each metric over completed cells only (None when none
/// completed), accumulate sums in input order so the float math is
/// bit-identical.
fn legacy_summary(cells: &[CellResult]) -> Vec<helios_core::SummaryRow> {
    let mut order: Vec<(String, String, String)> = Vec::new();
    for c in cells {
        let key = (c.family.clone(), c.platform.clone(), c.scheduler.clone());
        if !order.contains(&key) {
            order.push(key);
        }
    }
    order
        .into_iter()
        .map(|(family, platform, scheduler)| {
            let group: Vec<&CellResult> = cells
                .iter()
                .filter(|c| {
                    c.family == family && c.platform == platform && c.scheduler == scheduler
                })
                .collect();
            let done: Vec<&&CellResult> = group.iter().filter(|c| c.completed).collect();
            let mean = |f: &dyn Fn(&CellResult) -> f64| -> Option<f64> {
                if done.is_empty() {
                    None
                } else {
                    Some(done.iter().map(|c| f(c)).sum::<f64>() / done.len() as f64)
                }
            };
            helios_core::SummaryRow {
                family,
                platform,
                scheduler,
                cells: group.len(),
                mean_makespan_secs: mean(&|c| c.makespan_secs),
                mean_slr: mean(&|c| c.slr),
                mean_energy_j: mean(&|c| c.energy_j),
                completion_probability: done.len() as f64 / group.len() as f64,
            }
        })
        .collect()
}

/// A deterministic xorshift so synthetic cells cover varied bit
/// patterns without proptest needing per-field strategies.
fn synth_cells(seed: u64, rows: usize) -> Vec<CellResult> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // Repeating-binary fractions (n/7, n/3) make good precision bait:
    // any lossy float path shows up as an inequality.
    let frac = |n: u64, d: f64| (n % 10_000) as f64 / d;
    (0..rows)
        .map(|i| {
            let completed = next() % 3 != 0;
            CellResult {
                cell: i,
                family: ["montage", "ligo", "sipht"][(next() % 3) as usize].to_owned(),
                platform: ["workstation", "hpc_node"][(next() % 2) as usize].to_owned(),
                scheduler: ["heft", "olb", "mct"][(next() % 3) as usize].to_owned(),
                seed: next(),
                makespan_secs: if completed { frac(next(), 7.0) } else { 0.0 },
                slr: frac(next(), 3.0),
                energy_j: frac(next(), 7.0) * 1e3,
                transfers: (next() % 1000) as usize,
                transfer_bytes: frac(next(), 3.0) * 1e6,
                failures: (next() % 7) as u32,
                retries: (next() % 11) as u32,
                completed,
                wasted_work_secs: frac(next(), 7.0),
                recovery_overhead_secs: frac(next(), 3.0),
                makespan_degradation: frac(next(), 7.0) - 0.5,
                reroutes: (next() % 5) as u32,
                partition_downtime_secs: frac(next(), 3.0),
                rematerialized_tasks: (next() % 9) as u32,
                rematerialized_bytes: frac(next(), 7.0) * 1e5,
                incomplete_reason: if completed {
                    None
                } else {
                    Some(
                        ["retries_exhausted", "timed_out", "infeasible"][(next() % 3) as usize]
                            .to_owned(),
                    )
                },
                capacity_secs: frac(next(), 3.0) * 10.0,
                preemptions: (next() % 4) as u32,
                drain_migrated_tasks: (next() % 6) as u32,
                join_utilization: frac(next(), 7.0).min(1.0),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Store round-trip is the identity: synthetic cells written
    /// through the segment writer (flushed into several row groups),
    /// salvaged back and passed through `SELECT *` reproduce the exact
    /// `CellResult` rows — strings, nulls, and every float bit.
    #[test]
    fn store_round_trip_select_star_reproduces_exact_cells(
        seed in 1u64..1_000_000,
        rows in 1usize..40,
        group_every in 1usize..9,
    ) {
        let cells = synth_cells(seed, rows);
        let path = scratch(&format!("roundtrip-{seed}-{rows}-{group_every}.store"));
        let _ = std::fs::remove_file(&path);
        let header = StoreHeader {
            spec_name: "synthetic".into(),
            spec_digest: format!("{seed:016x}"),
            total_cells: rows,
            shard_index: 1,
            shard_count: 1,
            columns: schema_names(),
        };
        let mut writer = StoreWriter::create(&path, &header).expect("create store");
        for (i, cell) in cells.iter().enumerate() {
            writer.append_cell(cell).expect("append");
            if (i + 1) % group_every == 0 {
                writer.flush().expect("flush");
            }
        }
        writer.flush().expect("final flush");

        let salvage = read_store(&path).expect("read back");
        prop_assert_eq!(salvage.dropped_bytes, 0);
        prop_assert_eq!(&salvage.cells, &cells, "salvage must reproduce append order");

        let out = run_query("SELECT *", &salvage.cells).expect("SELECT *");
        prop_assert_eq!(&out.schema, &schema_names());
        let back: Vec<CellResult> = out
            .rows
            .iter()
            .map(|row| cell_from_row(row).expect("row decodes"))
            .collect();
        // SELECT * yields global cell order; the synthetic cells are
        // already indexed 0..rows, so the identity is exact.
        prop_assert_eq!(&back, &cells);
        let _ = std::fs::remove_file(&path);
    }

    /// The pipeline summary equals the legacy hand-rolled loop on
    /// arbitrary synthetic populations — bit-identical floats, not
    /// approximately.
    #[test]
    fn pipeline_summary_matches_the_legacy_loop(
        seed in 1u64..1_000_000,
        rows in 1usize..60,
    ) {
        let cells = synth_cells(seed, rows);
        prop_assert_eq!(summarize_cells(&cells), legacy_summary(&cells));
    }
}

#[test]
fn sweep_through_the_store_is_byte_identical_to_the_direct_run() {
    let spec = CampaignSpec::from_json(&small_spec_json("")).expect("spec parses");
    let reference = SweepDriver::new(1).run(&spec).expect("direct run");

    let path = scratch("sweep.store");
    let _ = std::fs::remove_file(&path);
    let driver = SweepDriver::new(1);
    let run = driver
        .run_store(&spec, ShardSpec::full(), &path, &SweepOptions::default())
        .expect("store run");
    assert_eq!(run.remaining, 0);
    assert!(!run.drained);

    // The report compiled from the store, and the report salvaged from
    // the file afterwards, both match the direct run byte for byte.
    let merged = merge_shards(&[run.report]).expect("merge");
    assert_eq!(report_bytes(&merged), report_bytes(&reference));
    let salvage = read_store(&path).expect("read back");
    let remerged = merge_shards(&[salvage.to_shard_report()]).expect("merge salvage");
    assert_eq!(report_bytes(&remerged), report_bytes(&reference));

    // The summary is the same group-by plan the query language runs.
    assert_eq!(reference.summary, legacy_summary(&reference.cells));
    let out = run_query(
        "SELECT family, platform, scheduler, count(*), avg_completed(makespan_secs), \
         avg_completed(slr), avg_completed(energy_j), frac(completed) \
         GROUP BY family, platform, scheduler",
        &reference.cells,
    )
    .expect("group-by query");
    assert_eq!(out.rows.len(), reference.summary.len());
    for (row, summary) in out.rows.iter().zip(&reference.summary) {
        assert_eq!(row[0], Value::Str(summary.family.clone()));
        assert_eq!(row[1], Value::Str(summary.platform.clone()));
        assert_eq!(row[2], Value::Str(summary.scheduler.clone()));
        assert_eq!(row[3], Value::U64(summary.cells as u64));
        let opt = |v: Option<f64>| v.map_or(Value::Null, Value::F64);
        assert_eq!(row[4], opt(summary.mean_makespan_secs));
        assert_eq!(row[5], opt(summary.mean_slr));
        assert_eq!(row[6], opt(summary.mean_energy_j));
        assert_eq!(row[7], Value::F64(summary.completion_probability));
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn null_means_survive_the_store_and_the_query() {
    // The lethal-resilience fixture: a 0.1 ms MTTF with one retry loses
    // every cell, so every mean is None — the store and the query must
    // both preserve the distinction from 0.0.
    let spec = CampaignSpec::from_json(&small_spec_json(
        r#", "resilience": {
            "mttf_secs": 0.0001,
            "restart_overhead_secs": 0.0005,
            "policy": {"kind": "retry-backoff", "base_secs": 0.0, "factor": 2.0,
                       "cap_secs": 0.0, "max_retries": 1}
        }"#,
    ))
    .expect("spec parses");
    let reference = SweepDriver::new(1).run(&spec).expect("direct run");
    assert!(
        reference.cells.iter().all(|c| !c.completed),
        "the fixture must lose every cell"
    );
    for row in &reference.summary {
        assert_eq!(row.mean_makespan_secs, None);
        assert_eq!(row.mean_slr, None);
        assert_eq!(row.mean_energy_j, None);
        assert_eq!(row.completion_probability, 0.0);
    }

    let path = scratch("lethal.store");
    let _ = std::fs::remove_file(&path);
    let run = SweepDriver::new(1)
        .run_store(&spec, ShardSpec::full(), &path, &SweepOptions::default())
        .expect("store run");
    let merged = merge_shards(&[run.report]).expect("merge");
    assert_eq!(report_bytes(&merged), report_bytes(&reference));
    let json = report_bytes(&merged);
    assert!(json.contains("\"mean_makespan_secs\": null"), "{json}");

    let salvage = read_store(&path).expect("read back");
    let out = run_query(
        "SELECT avg_completed(makespan_secs), frac(completed)",
        &salvage.cells,
    )
    .expect("global aggregate");
    assert_eq!(out.rows, vec![vec![Value::Null, Value::F64(0.0)]]);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn store_resume_is_byte_identical_and_foreign_stores_are_refused() {
    let spec = CampaignSpec::from_json(&small_spec_json("")).expect("spec parses");
    let reference = SweepDriver::new(1).run(&spec).expect("direct run");
    let driver = SweepDriver::new(1);

    let path = scratch("resume.store");
    let _ = std::fs::remove_file(&path);
    let cut = driver
        .run_store(
            &spec,
            ShardSpec::full(),
            &path,
            &SweepOptions {
                limit: Some(2),
                ..SweepOptions::default()
            },
        )
        .expect("cut run");
    assert_eq!(cut.report.cells.len(), 2);
    assert_eq!(cut.remaining, 2);

    let resumed = driver
        .run_store(&spec, ShardSpec::full(), &path, &SweepOptions::default())
        .expect("resume");
    assert_eq!(resumed.salvaged_cells, 2);
    assert_eq!(resumed.remaining, 0);
    let merged = merge_shards(&[resumed.report]).expect("merge");
    assert_eq!(
        report_bytes(&merged),
        report_bytes(&reference),
        "resume through the store must not change the bytes"
    );

    // A store from a different campaign is refused with a typed error
    // naming both specs.
    let foreign = CampaignSpec::from_json(&small_spec_json("").replace("store-query", "other"))
        .expect("foreign spec parses");
    let err = driver
        .run_store(&foreign, ShardSpec::full(), &path, &SweepOptions::default())
        .expect_err("foreign spec must be refused")
        .to_string();
    assert!(err.contains("different campaign"), "{err}");

    // So is a store from a different shard geometry.
    let err = driver
        .run_store(
            &spec,
            ShardSpec::new(1, 2).expect("shard parses"),
            &path,
            &SweepOptions::default(),
        )
        .expect_err("wrong shard must be refused")
        .to_string();
    assert!(err.contains("shard"), "{err}");
    let _ = std::fs::remove_file(&path);
}

/// The full paper grid (5 families × 4 platforms × 12 schedulers × 5
/// seeds = 1200 cells of 100 tasks) through the pipeline summary vs the
/// legacy loop. Minutes of work even in release — run explicitly when
/// touching the store or the summary plan:
/// `cargo test --release --test store_query -- --ignored`.
#[test]
#[ignore = "full paper grid; run explicitly in release when touching the store"]
fn paper_grid_summary_is_byte_identical_through_the_pipeline() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/specs");
    let json = std::fs::read_to_string(dir.join("paper_grid.json")).expect("paper_grid.json");
    let spec = CampaignSpec::from_json(&json).expect("paper grid parses");
    let report = SweepDriver::new(0).run(&spec).expect("paper grid runs");
    assert_eq!(report.summary, legacy_summary(&report.cells));
    assert_eq!(report.summary, summarize_cells(&report.cells));
}
