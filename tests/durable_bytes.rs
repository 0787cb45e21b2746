//! Byte pins for the two durable sweep formats, the `HELIOSJ1` journal
//! and the `HELIOSC1` store.
//!
//! Both formats sit on one framed-file layer (magic, checksummed header
//! frame, checksummed record frames, torn-tail truncation). These pins
//! are its contract: the exact bytes a sweep writes, a torn write
//! leaves and a recovery truncates to are fixed, so files written by
//! any earlier build still read and every new file is identical. Each
//! pin is `(length, FNV-1a 64 of the file bytes)`.

use std::path::{Path, PathBuf};

use helios_core::campaign::journal::{read_journal, TORN_WRITE_INJECTED};
use helios_core::{
    read_store, CampaignSpec, Durable, JournalOptions, ShardSpec, SweepDriver, SweepOptions,
};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(length, FNV-1a)` of the file at `path`.
fn pin(path: &Path) -> (usize, u64) {
    let bytes = std::fs::read(path).expect("read pinned file");
    (bytes.len(), fnv1a(&bytes))
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
    let dir = std::env::temp_dir().join(format!("helios-bytes-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn half() -> ShardSpec {
    ShardSpec::new(2, 2).expect("shard 2/2")
}

#[test]
fn sweep_journals_and_stores_are_byte_pinned() {
    let spec = smoke();
    let driver = SweepDriver::new(1);
    let dir = scratch("sweep");
    let opts = SweepOptions::default();
    let cases: [(&str, ShardSpec, (usize, u64)); 4] = [
        (
            "full.journal",
            ShardSpec::full(),
            (4589, 0xcb9c_4385_4e0c_0d8e),
        ),
        ("half.journal", half(), (2346, 0x750e_5116_7718_75a2)),
        (
            "full.store",
            ShardSpec::full(),
            (1819, 0xe29f_8578_444b_3722),
        ),
        ("half.store", half(), (1207, 0x4f27_d999_ee08_a791)),
    ];
    for (name, shard, expected) in cases {
        let path = dir.join(name);
        if name.ends_with(".journal") {
            driver.run_journal(&spec, shard, &path, &opts)
        } else {
            driver.run_store(&spec, shard, &path, &opts)
        }
        .expect("sweep runs");
        assert_eq!(pin(&path), expected, "{name} bytes moved");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_and_its_recovery_are_byte_pinned() {
    let spec = smoke();
    let driver = SweepDriver::new(1);
    let dir = scratch("torn");
    let path = dir.join("torn.journal");
    let err = driver
        .run_journal(
            &spec,
            ShardSpec::full(),
            &path,
            &JournalOptions {
                tear_after: Some(3),
                ..Default::default()
            },
        )
        .expect_err("armed tear fires")
        .to_string();
    assert!(err.contains(TORN_WRITE_INJECTED), "{err}");
    assert_eq!(
        pin(&path),
        (969, 0xdee0_8a7f_aadd_ea02),
        "torn journal bytes moved"
    );

    let torn = read_journal(&path).expect("torn journal reads");
    assert_eq!((torn.report.cells.len(), torn.pending), (1, vec![(1, 1)]));
    assert!(torn.dropped_bytes > 0, "the half record is the torn tail");
    let torn = Durable::Journal.read(&path).expect("torn journal reads");
    let recovered = Durable::Journal.recover(&path).expect("recovers");
    assert_eq!(recovered, torn);
    assert_eq!(
        pin(&path),
        (698, 0xc6ea_c4b2_35d6_da58),
        "recovered journal bytes moved"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_recovered_from_a_half_group_is_byte_pinned() {
    let spec = smoke();
    let driver = SweepDriver::new(1);
    let dir = scratch("cut");
    let path = dir.join("cut.store");
    // Two runs, two row groups: the first stops after four cells.
    let first = SweepOptions {
        limit: Some(4),
        ..Default::default()
    };
    driver
        .run_store(&spec, ShardSpec::full(), &path, &first)
        .expect("first half");
    let one_group = std::fs::metadata(&path).expect("store").len();
    driver
        .run_store(&spec, ShardSpec::full(), &path, &SweepOptions::default())
        .expect("second half");
    let whole = pin(&path);
    assert_eq!(
        whole,
        (1881, 0x2fbb_43e2_5a2b_b721),
        "two-group store bytes moved"
    );

    // Cut the last group in half, as a crash mid-append would.
    let len = whole.0 as u64;
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("open store");
    file.set_len(one_group + (len - one_group) / 2)
        .expect("cut");
    drop(file);
    let salvage = Durable::Store.recover(&path).expect("recovers");
    assert_eq!(salvage.report.cells.len(), 4);
    assert_eq!(salvage.valid_bytes, one_group);
    assert_eq!(salvage.dropped_bytes, (len - one_group) / 2);
    assert_eq!(
        pin(&path),
        (1198, 0x7f82_8bb7_947a_1395),
        "recovered store bytes moved"
    );
    assert_eq!(read_store(&path).expect("reads").dropped_bytes, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
