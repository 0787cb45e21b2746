//! Pins of what a salvaged durable file reads back as.
//!
//! `Durable::read` and `Durable::recover` turn a journal or a store into
//! one `DurableSalvage`: the shard report of the salvaged cells, the
//! cells a crash left attempted but not completed, and the valid prefix
//! and torn tail. For clean, torn and crashed files of
//! `examples/specs/smoke.json` the whole view is pinned: the length and
//! FNV-1a 64 of the report's compact JSON, `pending`, `valid_bytes` and
//! `dropped_bytes`. The formats' own readers must agree with it.

use std::path::{Path, PathBuf};

use helios_core::campaign::journal::read_journal;
use helios_core::{
    read_store, CampaignSpec, Durable, DurableSalvage, JournalOptions, ShardSpec, SweepDriver,
    SweepOptions,
};

fn fnv(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{hash:016x}")
}

fn smoke() -> CampaignSpec {
    let json = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/specs/smoke.json"),
    )
    .expect("smoke spec");
    CampaignSpec::from_json(&json).expect("smoke spec is valid")
}

/// A fresh per-test scratch directory, unique per process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("helios-salvage-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// What a salvage pins: the report JSON's length and FNV, `pending`,
/// `valid_bytes` and `dropped_bytes`.
type Pin = ((usize, String), Vec<(usize, u32)>, u64, u64);

fn pin(salvage: &DurableSalvage) -> Pin {
    let json = serde_json::to_string(&salvage.report).expect("report serializes");
    (
        (json.len(), fnv(&json)),
        salvage.pending.clone(),
        salvage.valid_bytes,
        salvage.dropped_bytes,
    )
}

/// Checks the file at `path` against `expected` through `Durable::read`,
/// checks that the format's own reader gives the same report, recovers
/// it, and checks that the recovered file reads back clean.
fn check(durable: Durable, path: &Path, expected: &Pin) {
    let name = path.display();
    let read = durable.read(path).expect("reads");
    assert_eq!(&pin(&read), expected, "{name}");
    let report = match durable {
        Durable::Journal => read_journal(path).expect("reads").to_shard_report(),
        Durable::Store => read_store(path).expect("reads").to_shard_report(),
    };
    assert_eq!(report, read.report, "{name}: the format's reader");
    let recovered = durable.recover(path).expect("recovers");
    assert_eq!(recovered, read, "{name}: recover returns what read does");
    let again = durable.read(path).expect("reads after recovery");
    assert_eq!(again.report, read.report, "{name}");
    assert_eq!(again.pending, read.pending, "{name}");
    assert_eq!(
        (again.valid_bytes, again.dropped_bytes),
        (read.valid_bytes, 0),
        "{name}: the torn tail is cut"
    );
}

fn expect(len: usize, hash: &str, pending: &[(usize, u32)], valid: u64, dropped: u64) -> Pin {
    ((len, hash.to_owned()), pending.to_vec(), valid, dropped)
}

#[test]
fn journal_salvages_are_pinned() {
    let spec = smoke();
    let driver = SweepDriver::new(1);
    let dir = scratch("journal");

    let clean = dir.join("clean.journal");
    driver
        .run_journal(&spec, ShardSpec::full(), &clean, &JournalOptions::default())
        .expect("sweep runs");
    check(
        Durable::Journal,
        &clean,
        &expect(4367, "9796a695d8a329ea", &[], 4589, 0),
    );

    // The 8th append, cell 3's completion, is torn halfway.
    let torn = dir.join("torn.journal");
    let tear = JournalOptions {
        tear_after: Some(7),
        ..Default::default()
    };
    let err = driver.run_journal(&spec, ShardSpec::full(), &torn, &tear);
    assert!(err.is_err(), "the armed tear fires");
    check(
        Durable::Journal,
        &torn,
        &expect(1717, "a0673f1b5a82a286", &[(3, 1)], 1823, 264),
    );

    // Cell 2 kills the process twice, right after its attempt record.
    let crashed = dir.join("crashed.journal");
    let crash = JournalOptions {
        crash_cell: Some(2),
        ..Default::default()
    };
    for _ in 0..2 {
        let err = driver.run_journal(&spec, ShardSpec::full(), &crashed, &crash);
        assert!(err.is_err(), "the armed crash fires");
    }
    check(
        Durable::Journal,
        &crashed,
        &expect(1181, "72e6248b3493eacf", &[(2, 2)], 1279, 0),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_salvages_are_pinned() {
    let spec = smoke();
    let driver = SweepDriver::new(1);
    let dir = scratch("store");

    let clean = dir.join("clean.store");
    driver
        .run_store(&spec, ShardSpec::full(), &clean, &SweepOptions::default())
        .expect("sweep runs");
    check(
        Durable::Store,
        &clean,
        &expect(4367, "9796a695d8a329ea", &[], 1819, 0),
    );

    // Two row groups, the second cut in half as a crash mid-append
    // would leave it.
    let torn = dir.join("torn.store");
    let first = SweepOptions {
        limit: Some(4),
        ..Default::default()
    };
    driver
        .run_store(&spec, ShardSpec::full(), &torn, &first)
        .expect("first group");
    let one_group = std::fs::metadata(&torn).expect("store").len();
    driver
        .run_store(&spec, ShardSpec::full(), &torn, &SweepOptions::default())
        .expect("second group");
    let len = std::fs::metadata(&torn).expect("store").len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&torn)
        .expect("open store");
    file.set_len(one_group + (len - one_group) / 2)
        .expect("cut");
    drop(file);
    check(
        Durable::Store,
        &torn,
        &expect(2238, "c8572a8314449fb5", &[], 1198, 341),
    );
    let _ = std::fs::remove_dir_all(&dir);
}
