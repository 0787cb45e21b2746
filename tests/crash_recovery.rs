//! Crash-consistency acceptance battery for the write-ahead cell
//! journal.
//!
//! The contract under test: a sweep driven through
//! [`SweepDriver::run_journal`] can be killed at *any* byte — between
//! records or mid-record — and a resume salvages the longest valid
//! prefix, truncates the torn tail, and completes with a merged report
//! **byte-identical** to the run that was never interrupted. Cells that
//! repeatedly kill the process get quarantined instead of crash-looping,
//! and a drain request stops cleanly at a resumable cut. One table test
//! pins resume identity and refusals across both durable sinks of the
//! shared sweep loop: journal and store.

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;

use proptest::prelude::*;

use helios_core::campaign::journal::{self, TORN_WRITE_INJECTED};
use helios_core::store::schema_names;
use helios_core::{
    merge_shards, CampaignSpec, EngineError, JournalHeader, JournalOptions, JournalWriter,
    ShardReport, ShardSpec, StoreHeader, StoreWriter, SweepDriver, SweepOptions, SweepOutcome,
    SweepReport,
};

const SPEC_JSON: &str = r#"{
    "name": "crash-recovery",
    "families": ["montage", "sipht"],
    "platforms": ["workstation"],
    "schedulers": ["heft", "min-min"],
    "seeds": {"base": 7, "count": 2},
    "tasks": 20,
    "noise_cv": 0.05
}"#;

fn spec() -> CampaignSpec {
    CampaignSpec::from_json(SPEC_JSON).expect("test spec is valid")
}

fn bytes(report: &SweepReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

/// A per-test scratch directory, unique per process so parallel test
/// binaries cannot collide.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("helios-crashrec-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run_to_completion(driver: &SweepDriver, spec: &CampaignSpec, path: &Path) -> String {
    let run = driver
        .run_journal(spec, ShardSpec::full(), path, &JournalOptions::default())
        .expect("resume run");
    assert!(!run.drained && run.remaining == 0, "resume must finish");
    bytes(&merge_shards(&[run.report]).expect("merge"))
}

#[test]
fn torn_mid_record_write_salvages_and_resumes_byte_identically() {
    let spec = spec();
    let driver = SweepDriver::new(1);
    let reference = bytes(&driver.run(&spec).expect("uninterrupted run"));
    let dir = scratch("torn");
    let path = dir.join("sweep.journal");

    // Tear the 4th append (a completion record) halfway: the write
    // errors after persisting half its bytes, exactly like power loss
    // mid-write.
    let torn = driver.run_journal(
        &spec,
        ShardSpec::full(),
        &path,
        &JournalOptions {
            tear_after: Some(3),
            ..Default::default()
        },
    );
    let err = torn.expect_err("armed tear must fire").to_string();
    assert!(err.contains(TORN_WRITE_INJECTED), "{err}");

    // Salvage must see the torn tail before recovery truncates it.
    let peek = journal::read_journal(&path).expect("salvage");
    assert!(
        peek.dropped_bytes > 0,
        "the half-written record must be dropped"
    );
    assert!(
        !peek.report.cells.is_empty(),
        "records before the tear survive"
    );

    // Resume: truncate the tail, re-run the lost cells, same bytes.
    let resumed = driver
        .run_journal(&spec, ShardSpec::full(), &path, &JournalOptions::default())
        .expect("resumed run");
    assert_eq!(resumed.dropped_bytes, peek.dropped_bytes);
    assert_eq!(resumed.salvaged_cells, peek.report.cells.len());
    let merged = bytes(&merge_shards(&[resumed.report]).expect("merge"));
    assert_eq!(
        merged, reference,
        "torn-write resume must be byte-identical"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_at_cell_boundaries_resumes_byte_identically_for_every_cut() {
    let spec = spec();
    let driver = SweepDriver::new(1);
    let reference = bytes(&driver.run(&spec).expect("uninterrupted run"));
    let total = spec.num_cells();
    let dir = scratch("boundary");

    for cut in [1usize, total / 2, total - 1] {
        let path = dir.join(format!("cut{cut}.journal"));
        let partial = driver
            .run_journal(
                &spec,
                ShardSpec::full(),
                &path,
                &JournalOptions {
                    limit: Some(cut),
                    ..Default::default()
                },
            )
            .expect("partial run");
        assert_eq!(partial.report.cells.len(), cut);
        assert_eq!(partial.remaining, total - cut);

        let resumed = driver
            .run_journal(&spec, ShardSpec::full(), &path, &JournalOptions::default())
            .expect("resumed run");
        assert_eq!(resumed.salvaged_cells, cut, "cut at {cut}");
        assert_eq!(
            resumed.dropped_bytes, 0,
            "boundary kill leaves no torn tail"
        );
        let merged = bytes(&merge_shards(&[resumed.report]).expect("merge"));
        assert_eq!(
            merged, reference,
            "cut at {cut} must resume byte-identically"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeatedly_crashing_cell_is_quarantined_as_poisoned() {
    let spec = spec();
    let driver = SweepDriver::new(1);
    let dir = scratch("poison");
    let path = dir.join("sweep.journal");
    let victim = 2usize;

    // Three runs in a row die right after journaling the attempt on the
    // victim cell — the synthetic "this cell kills the process" loop.
    for round in 0..3 {
        let err = driver
            .run_journal(
                &spec,
                ShardSpec::full(),
                &path,
                &JournalOptions {
                    crash_cell: Some(victim),
                    ..Default::default()
                },
            )
            .expect_err("armed crash must fire");
        assert!(
            err.to_string().contains("injected crash"),
            "round {round}: {err}"
        );
    }

    // The fourth run sees three attempts with no completion and
    // quarantines the cell — even with the crash hook still armed,
    // because the quarantined cell is never executed again.
    let run = driver
        .run_journal(
            &spec,
            ShardSpec::full(),
            &path,
            &JournalOptions {
                crash_cell: Some(victim),
                poison_limit: Some(3),
                ..Default::default()
            },
        )
        .expect("quarantining run");
    assert_eq!(run.poisoned, vec![victim]);
    assert_eq!(run.remaining, 0);
    assert_eq!(run.report.cells.len(), spec.num_cells());
    let cell = &run.report.cells[victim];
    assert_eq!(cell.cell, victim);
    assert!(!cell.completed);
    assert_eq!(cell.incomplete_reason.as_deref(), Some("poisoned"));

    // The quarantine itself is durable: a fresh resume re-reads it from
    // the journal instead of re-poisoning.
    let again = driver
        .run_journal(&spec, ShardSpec::full(), &path, &JournalOptions::default())
        .expect("post-quarantine resume");
    assert!(again.poisoned.is_empty(), "already quarantined, not again");
    assert_eq!(bytes_of_shard(&again.report), bytes_of_shard(&run.report));

    let _ = std::fs::remove_dir_all(&dir);
}

fn bytes_of_shard(report: &helios_core::ShardReport) -> String {
    serde_json::to_string_pretty(report).expect("shard serializes")
}

#[test]
fn drain_request_stops_at_a_resumable_cut() {
    let spec = spec();
    let driver = SweepDriver::new(1);
    let reference = bytes(&driver.run(&spec).expect("uninterrupted run"));
    let dir = scratch("drain");
    let path = dir.join("sweep.journal");

    // A drain flag raised before the run claims any cell: nothing
    // executes, everything remains, and the journal is still resumable.
    let flag = AtomicBool::new(true);
    let drained = driver
        .run_journal(
            &spec,
            ShardSpec::full(),
            &path,
            &JournalOptions {
                cancel: Some(&flag),
                ..Default::default()
            },
        )
        .expect("drained run");
    assert!(drained.drained);
    assert_eq!(drained.remaining, spec.num_cells());
    assert!(drained.report.cells.is_empty());

    // Partially complete, then drain, then finish: still the same bytes.
    let partial = driver
        .run_journal(
            &spec,
            ShardSpec::full(),
            &path,
            &JournalOptions {
                limit: Some(3),
                ..Default::default()
            },
        )
        .expect("partial run");
    assert_eq!(partial.report.cells.len(), 3);
    let flag = AtomicBool::new(true);
    let drained = driver
        .run_journal(
            &spec,
            ShardSpec::full(),
            &path,
            &JournalOptions {
                cancel: Some(&flag),
                ..Default::default()
            },
        )
        .expect("drained resume");
    assert!(drained.drained);
    assert_eq!(drained.salvaged_cells, 3, "drain must not lose salvage");
    assert_eq!(run_to_completion(&driver, &spec, &path), reference);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journaled_shards_merge_byte_identical_to_the_unsharded_run() {
    let spec = spec();
    let driver = SweepDriver::new(1);
    let reference = bytes(&driver.run(&spec).expect("uninterrupted run"));
    let dir = scratch("shards");

    let mut shards = Vec::new();
    for k in 1..=2usize {
        let path = dir.join(format!("shard{k}.journal"));
        // Interrupt each shard once mid-way before finishing it, so the
        // merged result also exercises salvage.
        let _ = driver
            .run_journal(
                &spec,
                ShardSpec::new(k, 2).unwrap(),
                &path,
                &JournalOptions {
                    limit: Some(1),
                    ..Default::default()
                },
            )
            .expect("partial shard");
        let done = driver
            .run_journal(
                &spec,
                ShardSpec::new(k, 2).unwrap(),
                &path,
                &JournalOptions::default(),
            )
            .expect("finished shard");
        assert_eq!(done.remaining, 0);
        // Journals merge directly: the report is compiled from the
        // journal bytes, not from a separately written JSON artifact.
        shards.push(
            journal::read_journal(&path)
                .expect("read")
                .to_shard_report(),
        );
    }
    let merged = bytes(&merge_shards(&shards).expect("merge"));
    assert_eq!(
        merged, reference,
        "journaled shards must merge byte-identically"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_resume_refuses_foreign_spec_and_geometry() {
    let spec = spec();
    let driver = SweepDriver::new(1);
    let dir = scratch("mismatch");
    let path = dir.join("sweep.journal");
    let _ = driver
        .run_journal(
            &spec,
            ShardSpec::full(),
            &path,
            &JournalOptions {
                limit: Some(1),
                ..Default::default()
            },
        )
        .expect("seed journal");

    let foreign = CampaignSpec::from_json(&SPEC_JSON.replace("0.05", "0.25")).unwrap();
    let err = driver
        .run_journal(
            &foreign,
            ShardSpec::full(),
            &path,
            &JournalOptions::default(),
        )
        .expect_err("foreign spec must be refused")
        .to_string();
    assert!(err.contains("different campaign"), "{err}");

    let err = driver
        .run_journal(
            &spec,
            ShardSpec::new(2, 2).unwrap(),
            &path,
            &JournalOptions::default(),
        )
        .expect_err("different geometry must be refused")
        .to_string();
    assert!(err.contains("shard"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The two durable places a sweep's finished cells can go, driven the
/// way the CLI drives them: a write-ahead journal and a columnar store.
#[derive(Debug, Clone, Copy)]
enum Sink {
    Journal,
    Store,
}

impl Sink {
    /// The file noun, CLI flag and unowned-cell claimant each sink's
    /// refusal messages name.
    fn label(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Sink::Journal => ("journal", "--journal", "the journal"),
            Sink::Store => ("store", "--store", "the store"),
        }
    }

    /// Runs `shard` against the sink's file at `path`.
    fn run(
        self,
        driver: &SweepDriver,
        spec: &CampaignSpec,
        shard: ShardSpec,
        path: &Path,
        limit: Option<usize>,
    ) -> Result<SweepOutcome, EngineError> {
        let opts = SweepOptions {
            limit,
            ..SweepOptions::default()
        };
        match self {
            Sink::Journal => driver.run_journal(spec, shard, path, &opts),
            Sink::Store => driver.run_store(spec, shard, path, &opts),
        }
    }

    /// Writes a file at `path` holding exactly `report`'s identity and
    /// cells, whatever shard owns them.
    fn plant(self, path: &Path, report: &ShardReport) {
        match self {
            Sink::Journal => {
                let header = JournalHeader {
                    spec_name: report.spec_name.clone(),
                    spec_digest: report.spec_digest.clone(),
                    total_cells: report.total_cells,
                    shard_index: report.shard_index,
                    shard_count: report.shard_count,
                };
                let mut w = JournalWriter::create(path, &header, None).expect("create journal");
                for cell in &report.cells {
                    w.append_cell(cell).expect("append cell");
                }
            }
            Sink::Store => {
                let header = StoreHeader {
                    spec_name: report.spec_name.clone(),
                    spec_digest: report.spec_digest.clone(),
                    total_cells: report.total_cells,
                    shard_index: report.shard_index,
                    shard_count: report.shard_count,
                    columns: schema_names(),
                };
                let mut w = StoreWriter::create(path, &header).expect("create store");
                for cell in &report.cells {
                    w.append_cell(cell).expect("append cell");
                }
                w.flush().expect("flush store");
            }
        }
    }
}

/// Every sink shares one sweep loop, so every sink must refuse the same
/// foreign state with its own file named in the message, and resume a
/// `limit`-cut run to the uninterrupted bytes — at `--jobs 1` and `4`.
#[test]
fn every_sink_refuses_foreign_state_and_resumes_byte_identically() {
    let spec = spec();
    let reference = SweepDriver::new(1)
        .run_shard(&spec, ShardSpec::full())
        .expect("uninterrupted run");
    let reference_bytes = bytes(&merge_shards(std::slice::from_ref(&reference)).expect("merge"));
    let total = reference.cells.len();
    // A spec with any knob changed has a different digest.
    let foreign = CampaignSpec::from_json(&SPEC_JSON.replace("0.05", "0.25")).unwrap();
    let half = |k: usize| ShardSpec::new(k, 2).unwrap();

    for sink in [Sink::Journal, Sink::Store] {
        let (noun, flag, claimant) = sink.label();
        for jobs in [1usize, 4] {
            let case = format!("{sink:?} at --jobs {jobs}");
            let driver = SweepDriver::new(jobs);
            let dir = scratch(&format!("sinks-{sink:?}-{jobs}"));
            let path = dir.join("sweep");

            // Cut by `limit`, then resumed: the uninterrupted bytes.
            let cut = sink
                .run(&driver, &spec, ShardSpec::full(), &path, Some(2))
                .expect("cut run");
            assert_eq!(cut.report.cells.len(), 2, "{case}");
            assert_eq!(cut.remaining, total - 2, "{case}");
            let resumed = sink
                .run(&driver, &spec, ShardSpec::full(), &path, None)
                .expect("resumed run");
            assert_eq!(
                resumed.skipped, 2,
                "{case}: done cells are skipped, not re-run"
            );
            assert_eq!(resumed.salvaged_cells, 2, "{case}");
            assert_eq!(resumed.remaining, 0, "{case}");
            assert_eq!(
                bytes(&merge_shards(&[resumed.report]).expect("merge")),
                reference_bytes,
                "{case}: kill-and-resume must be byte-identical to the uninterrupted run"
            );

            // Resuming a complete shard is a no-op.
            let again = sink
                .run(&driver, &spec, ShardSpec::full(), &path, None)
                .expect("no-op resume");
            assert_eq!(again.skipped, total, "{case}");
            assert_eq!(again.report, reference, "{case}");

            // A foreign spec is refused.
            let err = sink
                .run(&driver, &foreign, ShardSpec::full(), &path, None)
                .expect_err("foreign spec must be refused")
                .to_string();
            assert!(
                err.contains(&format!("the existing {noun} is from a different campaign"))
                    && err.contains(&format!("point {flag} elsewhere")),
                "{case}: {err}"
            );

            // So is the same spec under another shard geometry.
            let err = sink
                .run(&driver, &spec, half(1), &path, None)
                .expect_err("different geometry must be refused")
                .to_string();
            assert!(
                err.contains(&format!("the existing {noun} is shard 1/1")),
                "{case}: {err}"
            );

            // And a file of shard 2/2 that claims cell 0, which shard 1 owns.
            let planted = dir.join("unowned");
            sink.plant(
                &planted,
                &ShardReport {
                    shard_index: 2,
                    shard_count: 2,
                    cells: vec![reference.cells[0].clone()],
                    ..reference.clone()
                },
            );
            let err = sink
                .run(&driver, &spec, half(2), &planted, None)
                .expect_err("unowned cell must be refused")
                .to_string();
            assert!(
                err.contains(&format!("{claimant} claims cell 0")) && err.contains("does not own"),
                "{case}: {err}"
            );

            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Journal-resume identity across worker counts and shard
    /// partitions: for random seeds and cut points, interrupting at the
    /// cut and resuming yields the same merged bytes as the run that
    /// was never interrupted — with `--jobs 1` and `--jobs 4`, unsharded
    /// and as a 2-shard partition.
    #[test]
    fn interrupted_journal_runs_converge_to_the_uninterrupted_bytes(
        base in 0u64..500,
        cut in 1usize..7,
        four_jobs: bool,
    ) {
        let jobs = if four_jobs { 4usize } else { 1 };
        let json = SPEC_JSON.replace(r#""base": 7"#, &format!(r#""base": {base}"#));
        let spec = CampaignSpec::from_json(&json).expect("generated spec");
        let reference = bytes(&SweepDriver::new(1).run(&spec).expect("reference"));
        let driver = SweepDriver::new(jobs);
        let dir = scratch(&format!("prop-{base}-{cut}-{jobs}"));

        // Unsharded: interrupt after `cut` cells, then resume.
        let path = dir.join("full.journal");
        let _ = driver.run_journal(&spec, ShardSpec::full(), &path, &JournalOptions {
            limit: Some(cut), ..Default::default()
        }).expect("partial");
        prop_assert_eq!(&run_to_completion(&driver, &spec, &path), &reference);

        // 2-shard partition, each shard interrupted once.
        let mut shards = Vec::new();
        for k in 1..=2usize {
            let path = dir.join(format!("s{k}.journal"));
            let shard = ShardSpec::new(k, 2).unwrap();
            let _ = driver.run_journal(&spec, shard, &path, &JournalOptions {
                limit: Some(cut.min(2)), ..Default::default()
            }).expect("partial shard");
            let done = driver
                .run_journal(&spec, shard, &path, &JournalOptions::default())
                .expect("finished shard");
            prop_assert_eq!(done.remaining, 0);
            shards.push(done.report);
        }
        let merged = bytes(&merge_shards(&shards).expect("merge"));
        prop_assert_eq!(&merged, &reference);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
