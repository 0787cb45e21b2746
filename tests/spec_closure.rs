//! The campaign-spec schema is closed: every generated spec's canonical
//! JSON parses back to the same spec (and digest), the canonical bytes
//! of a fixed generated corpus never move, every committed spec keeps
//! its pinned digest, and a key the schema does not declare is refused
//! at any depth, naming the key.

use helios_core::fuzz::{generate_spec, BugFixture};
use helios_core::{CampaignError, CampaignSpec, EngineError};
use serde_json::Value;

/// Generated specs the closure properties sweep.
const CASES: usize = 200;

/// FNV-1a over the canonical JSON of `generate_spec(42, 0..200)`, each
/// followed by a newline. A moved constant means the generator's draws
/// or the canonical encoding changed, and with them every digest.
const CORPUS_FNV: u64 = 0xd773_d616_f4f4_b74d;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn canonical_json_roundtrips_and_its_corpus_hash_is_pinned() {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for case in 0..CASES {
        let spec = generate_spec(42, case);
        let canonical = serde_json::to_string(&spec).expect("spec serializes");
        let back = CampaignSpec::from_json(&canonical)
            .unwrap_or_else(|e| panic!("case {case}: canonical JSON is refused: {e}"));
        assert_eq!(back, spec, "case {case}: round trip changed the spec");
        assert_eq!(back.digest(), spec.digest(), "case {case}: digest moved");
        hash = fnv1a(hash, canonical.as_bytes());
        hash = fnv1a(hash, b"\n");
    }
    assert_eq!(hash, CORPUS_FNV, "canonical JSON of the corpus moved");
}

#[test]
fn every_committed_spec_keeps_its_digest() {
    let root = env!("CARGO_MANIFEST_DIR");
    let pinned = [
        ("smoke", "3fb7dcca7809aa67"),
        ("paper_grid", "e892e90bb46018f0"),
        ("resilient_smoke", "b4213ade3f080ea8"),
        ("elastic_smoke", "3833e7ca3376d327"),
        ("partition_smoke", "5f57d0e7d1cda695"),
        ("infeasible_smoke", "86430079010549c9"),
    ];
    let committed = std::fs::read_dir(format!("{root}/examples/specs"))
        .expect("examples/specs exists")
        .count();
    assert_eq!(
        committed,
        pinned.len(),
        "a committed spec has no pinned digest"
    );
    for (name, digest) in pinned {
        let json = std::fs::read_to_string(format!("{root}/examples/specs/{name}.json"))
            .expect("committed spec is readable");
        let spec = CampaignSpec::from_json(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(spec.digest(), digest, "{name}");
    }
    let json = std::fs::read_to_string(format!(
        "{root}/tests/bugbase/jobs_identity-0916dbe516f3678b.json"
    ))
    .expect("bugbase fixture is readable");
    let fixture = BugFixture::from_json(&json).expect("fixture parses");
    assert_eq!(fixture.spec.digest(), "0916dbe516f3678b");
}

/// Inserts `key` into the `k`-th object of `v` (pre-order, objects
/// inside arrays included), in the middle of its entries. False when
/// `v` holds fewer than `k + 1` objects.
fn insert_into_object(v: &mut Value, k: &mut usize, key: &str) -> bool {
    match v {
        Value::Object(entries) if *k == 0 => {
            entries.insert(entries.len() / 2, (key.to_owned(), Value::Number(1.0)));
            true
        }
        Value::Object(entries) => {
            *k -= 1;
            entries
                .iter_mut()
                .any(|(_, child)| insert_into_object(child, k, key))
        }
        Value::Array(items) => items.iter_mut().any(|c| insert_into_object(c, k, key)),
        _ => false,
    }
}

#[test]
fn a_bogus_key_at_any_depth_is_refused_by_name() {
    let key = "bogus_knob";
    let mut refused = 0;
    for case in 0..CASES {
        let canonical = serde_json::to_string(&generate_spec(42, case)).expect("serializes");
        let tree: Value = serde_json::from_str(&canonical).expect("canonical JSON parses");
        for k in 0.. {
            let mut bogus = tree.clone();
            if !insert_into_object(&mut bogus, &mut { k }, key) {
                break;
            }
            let json = serde_json::to_string(&bogus).expect("serializes");
            match CampaignSpec::from_json(&json) {
                Err(EngineError::Campaign(CampaignError::MalformedSpec(msg))) => {
                    assert!(msg.contains(key), "case {case}, object {k}: {msg}");
                }
                other => panic!("case {case}, object {k}: {other:?} for\n{json}"),
            }
            refused += 1;
        }
    }
    // Every spec has at least its top level and `seeds`.
    assert!(refused >= 2 * CASES, "only {refused} objects probed");
}
