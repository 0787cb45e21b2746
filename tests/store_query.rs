//! Integration pins for the columnar store and its query evaluator.
//!
//! The contract is byte-fidelity in both directions:
//!
//! * rows written through [`StoreWriter`] and salvaged back must
//!   reproduce the exact [`CellResult`]s (`SELECT *` is the identity),
//! * `summarize` — one hash group-by in the query evaluator — must
//!   still produce the exact summary rows the legacy hand-rolled loop
//!   did, including the null means of rows where no cell completed,
//! * every query's values match a naive reference that reads the
//!   `CellResult` fields directly (the differential oracle below),
//!   floats bit for bit, and a seeded query corpus's results are
//!   pinned by digest.

use proptest::prelude::*;

use helios_core::store::{schema_names, summarize_cells, Value};
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
        prop_assert_eq!(&salvage.report.cells, &cells, "salvage must reproduce the appended cells");

        let out = run_query("SELECT *", &salvage.report.cells).expect("SELECT *");
        prop_assert_eq!(&out.schema, &schema_names());
        // SELECT * yields global cell order; the synthetic cells are
        // already indexed 0..rows, so each row is its cell's fields,
        // read straight off the struct.
        let expected: Vec<Vec<Value>> = cells
            .iter()
            .map(|c| (0..COLS.len()).map(|col| field(c, col)).collect())
            .collect();
        prop_assert_eq!(&out.rows, &expected);
        let _ = std::fs::remove_file(&path);
    }

    /// The summary aggregate equals the legacy hand-rolled loop on
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
    let summary = reference.summary();
    assert_eq!(summary, legacy_summary(&reference.cells));
    let out = run_query(
        "SELECT family, platform, scheduler, count(*), avg_completed(makespan_secs), \
         avg_completed(slr), avg_completed(energy_j), frac(completed) \
         GROUP BY family, platform, scheduler",
        &reference.cells,
    )
    .expect("group-by query");
    assert_eq!(out.rows.len(), summary.len());
    for (row, summary) in out.rows.iter().zip(&summary) {
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
    for row in &reference.summary() {
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
        &salvage.report.cells,
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
/// seeds = 1200 cells of 100 tasks) through the summary aggregate vs the
/// legacy loop. About 1.5 s in release, far longer in debug — run
/// explicitly when touching the store or the summary plan:
/// `cargo test --release --test store_query -- --ignored`.
#[test]
#[ignore = "full paper grid; run explicitly in release when touching the store"]
fn paper_grid_summary_is_byte_identical_through_the_pipeline() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/specs");
    let json = std::fs::read_to_string(dir.join("paper_grid.json")).expect("paper_grid.json");
    let spec = CampaignSpec::from_json(&json).expect("paper grid parses");
    let report = SweepDriver::new(0).run(&spec).expect("paper grid runs");
    assert_eq!(report.summary(), legacy_summary(&report.cells));
}

// ---- Query differential oracle ----------------------------------------
//
// Random valid queries drawn from the grammar run through `run_query`
// and through a naive reference that reads `CellResult` fields directly
// and shares no code with the engine's predicates or accumulators. The
// two must agree on the schema and on every value, floats bit for bit.

/// How the reference reads and compares a column.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Int,
    Float,
    Bool,
    Str,
    OptStr,
}

/// Every query column, in schema order, with its kind.
const COLS: [(&str, Kind); 25] = [
    ("cell", Kind::Int),
    ("family", Kind::Str),
    ("platform", Kind::Str),
    ("scheduler", Kind::Str),
    ("seed", Kind::Int),
    ("makespan_secs", Kind::Float),
    ("slr", Kind::Float),
    ("energy_j", Kind::Float),
    ("transfers", Kind::Int),
    ("transfer_bytes", Kind::Float),
    ("failures", Kind::Int),
    ("retries", Kind::Int),
    ("completed", Kind::Bool),
    ("wasted_work_secs", Kind::Float),
    ("recovery_overhead_secs", Kind::Float),
    ("makespan_degradation", Kind::Float),
    ("reroutes", Kind::Int),
    ("partition_downtime_secs", Kind::Float),
    ("rematerialized_tasks", Kind::Int),
    ("rematerialized_bytes", Kind::Float),
    ("incomplete_reason", Kind::OptStr),
    ("capacity_secs", Kind::Float),
    ("preemptions", Kind::Int),
    ("drain_migrated_tasks", Kind::Int),
    ("join_utilization", Kind::Float),
];

/// The reference's column read, straight off the struct field.
fn field(c: &CellResult, col: usize) -> Value {
    match COLS[col].0 {
        "cell" => Value::U64(c.cell as u64),
        "family" => Value::Str(c.family.clone()),
        "platform" => Value::Str(c.platform.clone()),
        "scheduler" => Value::Str(c.scheduler.clone()),
        "seed" => Value::U64(c.seed),
        "makespan_secs" => Value::F64(c.makespan_secs),
        "slr" => Value::F64(c.slr),
        "energy_j" => Value::F64(c.energy_j),
        "transfers" => Value::U64(c.transfers as u64),
        "transfer_bytes" => Value::F64(c.transfer_bytes),
        "failures" => Value::U32(c.failures),
        "retries" => Value::U32(c.retries),
        "completed" => Value::Bool(c.completed),
        "wasted_work_secs" => Value::F64(c.wasted_work_secs),
        "recovery_overhead_secs" => Value::F64(c.recovery_overhead_secs),
        "makespan_degradation" => Value::F64(c.makespan_degradation),
        "reroutes" => Value::U32(c.reroutes),
        "partition_downtime_secs" => Value::F64(c.partition_downtime_secs),
        "rematerialized_tasks" => Value::U32(c.rematerialized_tasks),
        "rematerialized_bytes" => Value::F64(c.rematerialized_bytes),
        "incomplete_reason" => c.incomplete_reason.clone().map_or(Value::Null, Value::Str),
        "capacity_secs" => Value::F64(c.capacity_secs),
        "preemptions" => Value::U32(c.preemptions),
        "drain_migrated_tasks" => Value::U32(c.drain_migrated_tasks),
        "join_utilization" => Value::F64(c.join_utilization),
        other => unreachable!("unknown column {other}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::U64(n) => *n as f64,
        Value::U32(n) => f64::from(*n),
        Value::F64(x) => *x,
        other => unreachable!("not numeric: {other:?}"),
    }
}

#[derive(Debug, Clone)]
enum Lit {
    Num(f64),
    Str(String),
    Bool(bool),
    Null,
}

#[derive(Debug, Clone)]
enum Item {
    Star,
    Col(usize),
    /// A lowercase aggregate name and its column (`None` for `count`).
    Agg(&'static str, Option<usize>),
}

/// A generated query: the text `run_query` parses, and the structure
/// the reference evaluates.
#[derive(Debug, Clone)]
struct GenQuery {
    text: String,
    items: Vec<(Item, Option<String>)>,
    conds: Vec<(usize, &'static str, Lit)>,
    keys: Vec<usize>,
}

/// The query generator's xorshift.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// A keyword or function name in random letter case.
    fn case(&mut self, word: &str) -> String {
        match self.below(3) {
            0 => word.to_ascii_uppercase(),
            1 => word.to_ascii_lowercase(),
            _ => word
                .chars()
                .enumerate()
                .map(|(i, ch)| {
                    if i % 2 == 0 {
                        ch.to_ascii_uppercase()
                    } else {
                        ch
                    }
                })
                .collect(),
        }
    }
}

/// Columns of few distinct values, so most groups hold several rows.
const LOW_CARDINALITY: [usize; 8] = [1, 2, 3, 10, 12, 16, 20, 22];

fn gen_cond(d: &mut Draw, cells: &[CellResult]) -> (usize, &'static str, Lit) {
    // Draw the kind first, so the one boolean and the one nullable
    // column are tested as often as the many numeric ones.
    let kind = d.pick(&[Kind::Int, Kind::Float, Kind::Bool, Kind::Str, Kind::OptStr]);
    let of_kind: Vec<usize> = (0..COLS.len()).filter(|&c| COLS[c].1 == kind).collect();
    let col = d.pick(&of_kind);
    let eq_ne = ["=", "!="];
    let (op, lit) = match kind {
        Kind::Int | Kind::Float => {
            let op = d.pick(&["=", "!=", "<", "<=", ">", ">="]);
            let x = match (cells.is_empty(), d.below(3)) {
                (false, 0 | 1) => number(&field(&cells[d.below(cells.len())], col)),
                _ => d.below(20) as f64 - 5.0 + 0.5 * d.below(2) as f64,
            };
            (op, Lit::Num(x))
        }
        Kind::Bool => (d.pick(&eq_ne), Lit::Bool(d.below(2) == 0)),
        Kind::Str => {
            let words = [
                "montage",
                "ligo",
                "sipht",
                "workstation",
                "hpc_node",
                "heft",
                "olb",
                "mct",
                "absent",
            ];
            (d.pick(&eq_ne), Lit::Str(d.pick(&words).to_owned()))
        }
        Kind::OptStr => {
            let lit = match d.below(5) {
                0 => Lit::Str("retries_exhausted".into()),
                1 => Lit::Str("timed_out".into()),
                2 => Lit::Str("infeasible".into()),
                _ => Lit::Null,
            };
            (d.pick(&eq_ne), lit)
        }
    };
    (col, op, lit)
}

fn gen_agg(d: &mut Draw) -> Item {
    let numeric: Vec<usize> = (0..COLS.len())
        .filter(|&c| matches!(COLS[c].1, Kind::Int | Kind::Float))
        .collect();
    match d.below(7) {
        0 => Item::Agg("count", None),
        1 => Item::Agg("frac", Some(12)),
        k => {
            let func = ["sum", "avg", "min", "max", "avg_completed"][k - 2];
            Item::Agg(func, Some(d.pick(&numeric)))
        }
    }
}

/// Draws one valid query: `SELECT *`, plain columns, global
/// aggregates, or a GROUP BY over one to three keys (with or without
/// aggregates), each with zero to three WHERE conjuncts.
fn gen_query(d: &mut Draw, cells: &[CellResult]) -> GenQuery {
    let mut keys: Vec<usize> = Vec::new();
    let mut items: Vec<Item> = Vec::new();
    match d.below(5) {
        0 => items.push(Item::Star),
        1 => (0..1 + d.below(4)).for_each(|_| items.push(Item::Col(d.below(COLS.len())))),
        2 => (0..1 + d.below(4)).for_each(|_| items.push(gen_agg(d))),
        _ => {
            for _ in 0..1 + d.below(3) {
                let key = if d.below(4) == 0 {
                    d.below(COLS.len())
                } else {
                    d.pick(&LOW_CARDINALITY)
                };
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }
            for &key in &keys {
                if d.below(3) != 0 {
                    items.push(Item::Col(key));
                }
            }
            // One in five grouped queries names only keys.
            if d.below(5) != 0 || items.is_empty() {
                for _ in 0..1 + d.below(3) {
                    let at = d.below(items.len() + 1);
                    items.insert(at, gen_agg(d));
                }
            }
        }
    }
    let items: Vec<(Item, Option<String>)> = items
        .into_iter()
        .enumerate()
        .map(|(i, item)| {
            let alias = match item {
                Item::Star => None,
                _ if d.below(4) == 0 => Some(format!("a{i}")),
                _ => None,
            };
            (item, alias)
        })
        .collect();
    let conds: Vec<_> = (0..d.pick(&[0, 1, 1, 2, 2, 3]))
        .map(|_| gen_cond(d, cells))
        .collect();

    let mut text = d.case("select");
    for (i, (item, alias)) in items.iter().enumerate() {
        text.push_str(if i == 0 { " " } else { ", " });
        match item {
            Item::Star => text.push('*'),
            Item::Col(c) => text.push_str(COLS[*c].0),
            Item::Agg(func, arg) => {
                let arg = arg.map_or("*", |c| COLS[c].0);
                text.push_str(&format!("{}({arg})", d.case(func)));
            }
        }
        if let Some(alias) = alias {
            text.push_str(&format!(" {} {alias}", d.case("as")));
        }
    }
    for (i, (col, op, lit)) in conds.iter().enumerate() {
        let joiner = if i == 0 { "where" } else { "and" };
        let lit = match lit {
            Lit::Num(x) => format!("{x}"),
            Lit::Str(s) => format!("'{s}'"),
            Lit::Bool(b) => d.case(&b.to_string()),
            Lit::Null => d.case("null"),
        };
        text.push_str(&format!(" {} {} {op} {lit}", d.case(joiner), COLS[*col].0));
    }
    for (i, key) in keys.iter().enumerate() {
        if i == 0 {
            text.push_str(&format!(" {} {} ", d.case("group"), d.case("by")));
        } else {
            text.push_str(", ");
        }
        text.push_str(COLS[*key].0);
    }
    GenQuery {
        text,
        items,
        conds,
        keys,
    }
}

fn reference_holds(c: &CellResult, (col, op, lit): &(usize, &'static str, Lit)) -> bool {
    let v = field(c, *col);
    let eq = match lit {
        Lit::Num(x) => {
            let lhs = number(&v);
            return match *op {
                "=" => lhs == *x,
                "!=" => lhs != *x,
                "<" => lhs < *x,
                "<=" => lhs <= *x,
                ">" => lhs > *x,
                _ => lhs >= *x,
            };
        }
        Lit::Str(s) => v == Value::Str(s.clone()),
        Lit::Bool(b) => v == Value::Bool(*b),
        Lit::Null => v == Value::Null,
    };
    (*op == "=") == eq
}

fn reference_agg(func: &str, arg: Option<usize>, group: &[&CellResult]) -> Value {
    let values: Vec<f64> = match (func, arg) {
        ("avg_completed", Some(col)) => group
            .iter()
            .filter(|c| c.completed)
            .map(|c| number(&field(c, col)))
            .collect(),
        ("count" | "frac", _) => Vec::new(),
        (_, Some(col)) => group.iter().map(|c| number(&field(c, col))).collect(),
        (_, None) => unreachable!("only count has no column"),
    };
    let sum = values.iter().fold(0.0, |s, v| s + v);
    let some = |x: f64| {
        if values.is_empty() {
            Value::Null
        } else {
            Value::F64(x)
        }
    };
    match func {
        "count" => Value::U64(group.len() as u64),
        "frac" if group.is_empty() => Value::Null,
        "frac" => {
            Value::F64(group.iter().filter(|c| c.completed).count() as f64 / group.len() as f64)
        }
        "sum" => some(sum),
        "min" => some(values.iter().fold(f64::INFINITY, |m, &v| m.min(v))),
        "max" => some(values.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v))),
        _ => some(sum / values.len() as f64),
    }
}

/// The naive reference: sort by cell, filter, then project each kept
/// row, or (under GROUP BY or when an aggregate is selected) group in
/// first-seen order by a linear scan — one global group when there are
/// no keys. A GROUP BY that selects no aggregate yields one row per
/// distinct key.
fn reference(q: &GenQuery, cells: &[CellResult]) -> (Vec<String>, Vec<Vec<Value>>) {
    let schema = q
        .items
        .iter()
        .flat_map(|(item, alias)| match (item, alias) {
            (Item::Star, _) => COLS.iter().map(|c| c.0.to_owned()).collect(),
            (_, Some(alias)) => vec![alias.clone()],
            (Item::Col(c), None) => vec![COLS[*c].0.to_owned()],
            (Item::Agg(f, arg), None) => vec![format!("{f}({})", arg.map_or("*", |c| COLS[c].0))],
        })
        .collect();
    let mut kept: Vec<&CellResult> = cells
        .iter()
        .filter(|c| q.conds.iter().all(|cond| reference_holds(c, cond)))
        .collect();
    kept.sort_by_key(|c| c.cell);
    if q.keys.is_empty()
        && !q
            .items
            .iter()
            .any(|(item, _)| matches!(item, Item::Agg(..)))
    {
        let rows = kept
            .iter()
            .map(|c| {
                q.items
                    .iter()
                    .flat_map(|(item, _)| match item {
                        Item::Star => (0..COLS.len()).map(|col| field(c, col)).collect(),
                        Item::Col(col) => vec![field(c, *col)],
                        Item::Agg(..) => unreachable!(),
                    })
                    .collect()
            })
            .collect();
        return (schema, rows);
    }
    let mut groups: Vec<(Vec<Value>, Vec<&CellResult>)> = Vec::new();
    if q.keys.is_empty() {
        groups.push((Vec::new(), kept));
    } else {
        for c in kept {
            let key: Vec<Value> = q.keys.iter().map(|&k| field(c, k)).collect();
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(c),
                None => groups.push((key, vec![c])),
            }
        }
    }
    let rows = groups
        .iter()
        .map(|(key, members)| {
            q.items
                .iter()
                .map(|(item, _)| match item {
                    Item::Col(col) => key[q.keys.iter().position(|k| k == col).unwrap()].clone(),
                    Item::Agg(func, arg) => reference_agg(func, *arg, members),
                    Item::Star => unreachable!(),
                })
                .collect()
        })
        .collect();
    (schema, rows)
}

/// Rows with every float replaced by its bit pattern, so equality is
/// bit equality (and `-0.0` differs from `0.0`).
fn exact(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::F64(x) => format!("f64:{:016x}", x.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect()
        })
        .collect()
}

fn check_against_reference(q: &GenQuery, cells: &[CellResult]) -> helios_core::QueryOutput {
    let out = run_query(&q.text, cells).unwrap_or_else(|e| panic!("{:?} is refused: {e}", q.text));
    let (schema, rows) = reference(q, cells);
    assert_eq!(out.schema, schema, "schema of {:?}", q.text);
    assert_eq!(exact(&out.rows), exact(&rows), "values of {:?}", q.text);
    out
}

/// Queries in the pinned corpus.
const QUERY_CORPUS: u64 = 200;

/// FNV-1a over `text\n{:?}\n` of `run_query` for the corpus: queries
/// drawn from `Draw(0x51ed_0000 + i)` over `synth_cells(7, 250)`. A
/// moved constant means a query's schema, rows, row order or float
/// bits changed.
const QUERY_CORPUS_FNV: u64 = 0xae03_3686_a395_3dec;

#[test]
fn query_corpus_values_match_the_reference_and_are_pinned() {
    let cells = synth_cells(7, 250);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..QUERY_CORPUS {
        let q = gen_query(&mut Draw(0x51ed_0000 + i), &cells);
        let out = check_against_reference(&q, &cells);
        let bytes = format!("{}\n{out:?}\n", q.text);
        hash = bytes.bytes().fold(hash, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    }
    assert_eq!(
        hash, QUERY_CORPUS_FNV,
        "query corpus digest moved: {hash:#018x}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generated query agrees with the naive reference, floats
    /// bit for bit, over populations from empty to a few groups deep.
    #[test]
    fn generated_queries_match_the_naive_reference(
        seed in 1u64..u64::MAX,
        data_seed in 1u64..1_000_000,
        rows in 0usize..90,
    ) {
        let cells = synth_cells(data_seed, rows);
        let mut draw = Draw(seed);
        for _ in 0..4 {
            check_against_reference(&gen_query(&mut draw, &cells), &cells);
        }
    }
}
