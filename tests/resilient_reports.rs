//! The committed resilient example specs keep their report bytes.
//!
//! `examples/specs/{resilient,partition,elastic}_smoke.json` exercise
//! what the benchmark's `resilient_exec` workload never enters: link
//! faults, correlated failure domains and elastic capacity. ci.sh checks
//! that shards of these specs agree with each other, which a change
//! that moves both sides the same way still passes; this test pins the
//! bytes themselves. Each digest is FNV-1a (64-bit) over the report that
//! `helios campaign run --spec <file> --out <report>` writes, so
//! `cmp`-ing a release binary's `--out` file against an older one checks
//! the same thing.

use helios_core::{CampaignSpec, SweepDriver};

/// `(spec file, FNV-1a of its pretty-printed unsharded sweep report)`.
const PINS: [(&str, u64); 3] = [
    ("resilient_smoke.json", 0x8a8c_f042_9194_7960),
    ("partition_smoke.json", 0x422f_701d_2e44_f8e3),
    ("elastic_smoke.json", 0x9b20_9c9f_b25f_30f5),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn resilient_example_reports_keep_their_bytes() {
    for (file, pinned) in PINS {
        let path = format!("{}/examples/specs/{file}", env!("CARGO_MANIFEST_DIR"));
        let json = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let spec = CampaignSpec::from_json(&json).unwrap_or_else(|e| panic!("{file}: {e}"));
        let report = SweepDriver::new(1)
            .run(&spec)
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        let bytes = serde_json::to_string_pretty(&report).expect("report serializes");
        assert_eq!(
            fnv1a(bytes.as_bytes()),
            pinned,
            "{file}: the sweep report's bytes moved"
        );
    }
}
