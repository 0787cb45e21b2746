//! Negative-validation property tests for the campaign spec surface the
//! fuzz harness generates over, and for the `helios query` expression
//! language: every malformed input must come back as a *typed*
//! [`CampaignError`] naming the offending field (or token) — never a
//! panic, and never a silent acceptance. This is the flip side of the
//! generator's valid-by-construction guarantee: `helios fuzz` only
//! explores legal specs, so this test patrols the illegal border.

use proptest::prelude::*;

use helios_core::{run_query, CampaignError, CampaignSpec, EngineError};

/// A minimal valid spec with a hole for extra top-level fields.
fn spec_with(extra: &str) -> String {
    format!(
        r#"{{
            "name": "negative",
            "families": ["montage"],
            "platforms": ["workstation"],
            "schedulers": ["heft"],
            "seeds": {{"base": 0, "count": 1}},
            "tasks": 16{extra}
        }}"#
    )
}

/// Garbage identifiers substituted for family / platform / scheduler /
/// kind names; indexed by the proptest-drawn `tag`.
const BAD_NAMES: [&str; 5] = ["", "frobnicate", "HEFT ", "montage2", "no-such-thing"];

/// One corruption class: a label, the corrupted spec JSON, and a
/// needle the error message must contain (the offending field).
struct Corruption {
    label: &'static str,
    json: String,
    needle: &'static str,
}

/// Every corruption class, parameterized on a garbage name and a
/// poison number so repeated cases probe different illegal values.
fn corruptions(bad: &str, poison: f64) -> Vec<Corruption> {
    let resilience_with = |policy: &str| {
        spec_with(&format!(
            r#", "resilience": {{"mttf_secs": 50.0, "policy": {policy}}}"#
        ))
    };
    vec![
        Corruption {
            label: "unknown family",
            json: spec_with("").replace("montage", bad),
            needle: "family",
        },
        Corruption {
            label: "unknown platform",
            json: spec_with("").replace("workstation", bad),
            needle: "platform",
        },
        Corruption {
            label: "unknown scheduler",
            json: spec_with("").replace("heft", bad),
            needle: "scheduler",
        },
        Corruption {
            label: "empty families axis",
            json: spec_with("").replace(r#"["montage"]"#, "[]"),
            needle: "families",
        },
        Corruption {
            label: "zero seed count",
            json: spec_with("").replace(r#""count": 1"#, r#""count": 0"#),
            needle: "seeds.count",
        },
        Corruption {
            label: "zero tasks",
            json: spec_with("").replace(r#""tasks": 16"#, r#""tasks": 0"#),
            needle: "tasks",
        },
        Corruption {
            label: "negative noise_cv",
            json: spec_with(&format!(r#", "noise_cv": -{poison}"#)),
            needle: "noise_cv",
        },
        Corruption {
            label: "unknown dvfs level",
            json: spec_with(&format!(r#", "dvfs": "{bad}""#)),
            needle: "dvfs",
        },
        Corruption {
            label: "zero cell_step_budget",
            json: spec_with(r#", "cell_step_budget": 0"#),
            needle: "cell_step_budget",
        },
        Corruption {
            label: "zero annealing iterations",
            json: spec_with(r#", "scheduler_params": {"annealing_iterations": 0}"#),
            needle: "annealing_iterations",
        },
        Corruption {
            label: "faults and resilience together",
            json: spec_with(
                r#", "faults": {"mtbf_secs": 100.0},
                   "resilience": {"mttf_secs": 50.0,
                                  "policy": {"kind": "retry-backoff", "base_secs": 0,
                                             "factor": 1, "cap_secs": 0, "max_retries": 3}}"#,
            ),
            needle: "mutually exclusive",
        },
        Corruption {
            label: "negative fault mtbf",
            json: spec_with(&format!(r#", "faults": {{"mtbf_secs": -{poison}}}"#)),
            needle: "mtbf_secs",
        },
        Corruption {
            label: "interconnect faults without resilience",
            json: spec_with(
                r#", "interconnect_faults": {"distribution": "exponential",
                                             "mttf_secs": 100.0}"#,
            ),
            needle: "resilience",
        },
        Corruption {
            label: "failure domains without resilience",
            json: spec_with(
                r#", "failure_domains": [{"kind": "rack", "name": "r0",
                                          "devices": ["cpu0"], "mttf_secs": 100.0}]"#,
            ),
            needle: "resilience",
        },
        Corruption {
            label: "unknown policy kind",
            json: resilience_with(&format!(r#"{{"kind": "{bad}"}}"#)),
            needle: "kind",
        },
        Corruption {
            label: "single-copy replication",
            json: resilience_with(r#"{"kind": "replicate-k", "replicas": 1, "max_retries": 3}"#),
            needle: "replicas",
        },
        Corruption {
            label: "non-positive checkpoint interval",
            json: resilience_with(
                r#"{"kind": "checkpoint-restart", "interval_secs": 0,
                    "overhead_secs": 1, "max_retries": 3}"#,
            ),
            needle: "interval_secs",
        },
        Corruption {
            label: "dangling domain device",
            json: spec_with(&format!(
                r#", "resilience": {{"mttf_secs": 50.0,
                                     "policy": {{"kind": "retry-backoff", "base_secs": 0,
                                                 "factor": 1, "cap_secs": 0, "max_retries": 3}}}},
                    "failure_domains": [{{"kind": "rack", "name": "r0",
                                          "devices": ["{bad}"], "mttf_secs": 100.0}}]"#
            )),
            needle: "unknown device",
        },
        Corruption {
            label: "unknown domain kind",
            json: spec_with(&format!(
                r#", "resilience": {{"mttf_secs": 50.0,
                                     "policy": {{"kind": "retry-backoff", "base_secs": 0,
                                                 "factor": 1, "cap_secs": 0, "max_retries": 3}}}},
                    "failure_domains": [{{"kind": "{bad}", "name": "r0",
                                          "devices": ["cpu0"], "mttf_secs": 100.0}}]"#
            )),
            needle: "kind",
        },
        Corruption {
            label: "duplicate domain names",
            json: spec_with(
                r#", "resilience": {"mttf_secs": 50.0,
                                    "policy": {"kind": "retry-backoff", "base_secs": 0,
                                               "factor": 1, "cap_secs": 0, "max_retries": 3}},
                    "failure_domains": [
                        {"kind": "rack", "name": "r0", "devices": ["cpu0"], "mttf_secs": 100.0},
                        {"kind": "rack", "name": "r0", "devices": ["cpu1"], "mttf_secs": 100.0}]"#,
            ),
            needle: "unique",
        },
        Corruption {
            label: "elasticity event names unknown device",
            json: spec_with(&format!(
                r#", "elasticity": {{"events": [{{"kind": "join", "device": "{bad}",
                                                 "at_secs": 0.5}}]}}"#
            )),
            // "" trips the engine's empty-name check, everything else
            // the per-platform resolution; both name the device field.
            needle: "device",
        },
        Corruption {
            label: "negative elasticity event time",
            json: spec_with(&format!(
                r#", "elasticity": {{"events": [{{"kind": "join", "device": "cpu0",
                                                 "at_secs": -{poison}}}]}}"#
            )),
            needle: "at_secs",
        },
        Corruption {
            label: "zero preempt notice",
            json: spec_with(
                r#", "elasticity": {"events": [{"kind": "preempt", "device": "cpu0",
                                                "at_secs": 0.5, "notice_secs": 0}]}"#,
            ),
            needle: "notice_secs",
        },
        Corruption {
            label: "unknown elasticity event kind",
            json: spec_with(&format!(
                r#", "elasticity": {{"events": [{{"kind": "{bad}", "device": "cpu0",
                                                 "at_secs": 0.5}}]}}"#
            )),
            needle: "kind",
        },
        Corruption {
            label: "drain deadline not after its notice",
            json: spec_with(
                r#", "elasticity": {"events": [{"kind": "drain", "device": "cpu0",
                                                "at_secs": 0.5, "deadline_secs": 0.5}]}"#,
            ),
            needle: "deadline_secs",
        },
        Corruption {
            label: "empty elasticity block",
            json: spec_with(r#", "elasticity": {"events": [], "churn": []}"#),
            needle: "at least one",
        },
        Corruption {
            label: "faults and elasticity together",
            json: spec_with(
                r#", "faults": {"mtbf_secs": 100.0},
                   "elasticity": {"events": [{"kind": "join", "device": "cpu0",
                                              "at_secs": 0.5}]}"#,
            ),
            needle: "mutually exclusive",
        },
        Corruption {
            label: "non-positive churn period",
            json: spec_with(&format!(
                r#", "elasticity": {{"churn": [{{"device": "cpu0", "mtbp_secs": 0,
                                                "notice_secs": {poison},
                                                "rejoin_secs": {poison}}}]}}"#
            )),
            needle: "mtbp_secs",
        },
        Corruption {
            label: "truncated JSON",
            json: spec_with("").split_at(40).0.to_owned(),
            needle: "malformed",
        },
        // The schema is closed: a key no type declares, or a key given
        // twice, is refused at every depth instead of being ignored.
        Corruption {
            label: "unknown top-level key",
            json: spec_with(r#", "noise_cvv": 0.3"#),
            needle: "noise_cvv",
        },
        Corruption {
            label: "duplicate key",
            json: spec_with(r#", "noise_cv": 0.1, "noise_cv": 0.2"#),
            needle: r#"duplicate key "noise_cv""#,
        },
        Corruption {
            label: "unknown key in resilience",
            json: spec_with(
                r#", "resilience": {"mttf_secs": 50.0, "permanant_prob": 0.1,
                                    "policy": {"kind": "replicate-k", "replicas": 2}}"#,
            ),
            needle: "permanant_prob",
        },
        Corruption {
            label: "unknown key in policy",
            json: resilience_with(r#"{"kind": "replicate-k", "replicas": 2, "max_retires": 3}"#),
            needle: "max_retires",
        },
        Corruption {
            label: "unknown key in scheduler_params",
            json: spec_with(r#", "scheduler_params": {"anealing_iterations": 5}"#),
            needle: "anealing_iterations",
        },
        Corruption {
            label: "shape under an exponential interconnect block",
            json: spec_with(
                r#", "resilience": {"mttf_secs": 50.0,
                                    "policy": {"kind": "replicate-k", "replicas": 2}},
                    "interconnect_faults": {"distribution": "exponential",
                                            "mttf_secs": 100.0, "shape": 1.5}"#,
            ),
            needle: "shape",
        },
        Corruption {
            label: "notice_secs on a leave event",
            json: spec_with(
                r#", "elasticity": {"events": [{"kind": "leave", "device": "cpu0",
                                                "at_secs": 0.5, "notice_secs": 0.1}]}"#,
            ),
            needle: "notice_secs",
        },
        // Numbers are never coerced: a fraction or an out-of-range
        // integer is refused instead of truncated, wrapped or saturated.
        Corruption {
            label: "fractional replica count",
            json: resilience_with(r#"{"kind": "replicate-k", "replicas": 2.5}"#),
            needle: "replicas",
        },
        Corruption {
            label: "annealing iterations past u32",
            json: spec_with(r#", "scheduler_params": {"annealing_iterations": 4294967297}"#),
            needle: "annealing_iterations",
        },
        Corruption {
            label: "policy max_retries past u32",
            json: resilience_with(
                r#"{"kind": "replicate-k", "replicas": 2, "max_retries": 4294967299}"#,
            ),
            needle: "max_retries",
        },
        Corruption {
            label: "faults max_retries past u32",
            json: spec_with(r#", "faults": {"mtbf_secs": 100.0, "max_retries": 4294967298}"#),
            needle: "max_retries",
        },
        Corruption {
            label: "seed base past u64",
            json: spec_with("").replace(r#""base": 0"#, r#""base": 1e30"#),
            needle: "base",
        },
        Corruption {
            label: "cell_step_budget past u64",
            json: spec_with(r#", "cell_step_budget": 1e300"#),
            needle: "cell_step_budget",
        },
    ]
}

/// One query corruption class: a label, the corrupted expression, and
/// the exact token the typed error must name.
fn query_corruptions(bad: &str) -> Vec<(&'static str, String, String)> {
    vec![
        (
            "unknown projected column",
            format!("SELECT {bad}"),
            bad.to_owned(),
        ),
        (
            "unknown aggregate function",
            format!("SELECT {bad}(makespan_secs)"),
            bad.to_owned(),
        ),
        (
            "unknown WHERE column",
            format!("SELECT * WHERE {bad} = 1"),
            bad.to_owned(),
        ),
        (
            "unknown GROUP BY column",
            format!("SELECT count(*) GROUP BY {bad}"),
            bad.to_owned(),
        ),
        (
            "string literal against a numeric column",
            format!("SELECT * WHERE makespan_secs = '{bad}'"),
            format!("'{bad}'"),
        ),
        (
            "ordering comparison on a string column",
            format!("SELECT cell WHERE family < '{bad}'"),
            format!("'{bad}'"),
        ),
        (
            "grouped SELECT *",
            "SELECT * GROUP BY scheduler".into(),
            "*".into(),
        ),
        (
            "bare column mixed with an aggregate",
            "SELECT cell, count(*)".into(),
            "cell".into(),
        ),
        (
            "selected column missing from GROUP BY",
            "SELECT cell GROUP BY scheduler".into(),
            "cell".into(),
        ),
        (
            "count with an argument",
            "SELECT count(cell)".into(),
            "cell".into(),
        ),
        (
            "aggregate over a string column",
            "SELECT avg(scheduler)".into(),
            "scheduler".into(),
        ),
        (
            "frac of a non-boolean column",
            "SELECT frac(makespan_secs)".into(),
            "makespan_secs".into(),
        ),
        (
            "trailing garbage",
            format!("SELECT cell {bad}"),
            bad.to_owned(),
        ),
        (
            "unterminated string literal",
            "SELECT cell WHERE scheduler = 'oops".into(),
            "'oops".into(),
        ),
        ("empty expression", String::new(), String::new()),
        ("unknown verb", format!("{bad} *"), bad.to_owned()),
    ]
}

/// Garbage identifiers substituted into query expressions; indexed by
/// the proptest-drawn tag. Curated to collide with nothing legal: not a
/// column, not an aggregate function, not a keyword.
const QUERY_BAD: [&str; 5] = ["frobnicate", "median", "makespanx", "cellz", "zz_quux"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(BAD_NAMES.len() as u32))]

    /// Every corruption class yields a typed campaign error whose
    /// message names the offending field — across a spread of garbage
    /// names and poison values, and never a panic.
    #[test]
    fn malformed_specs_fail_typed_and_named(
        tag in 0usize..BAD_NAMES.len(),
        poison in 0.5f64..1e6,
    ) {
        for c in corruptions(BAD_NAMES[tag], poison) {
            let err = match CampaignSpec::from_json(&c.json) {
                Err(e) => e,
                Ok(_) => panic!("{}: corrupted spec was accepted:\n{}", c.label, c.json),
            };
            prop_assert!(
                matches!(
                    err,
                    EngineError::Campaign(
                        CampaignError::MalformedSpec(_) | CampaignError::InvalidSpec { .. }
                    )
                ),
                "{}: wrong error type: {err:?}",
                c.label
            );
            let msg = err.to_string();
            prop_assert!(
                msg.contains(c.needle),
                "{}: error does not name {:?}: {msg}",
                c.label,
                c.needle
            );
        }
    }

    /// Every query corruption class yields a typed [`InvalidQuery`]
    /// error carrying exactly the offending token — across a spread of
    /// garbage identifiers, and never a panic.
    #[test]
    fn malformed_queries_fail_typed_and_name_the_token(tag in 0usize..QUERY_BAD.len()) {
        let bad = QUERY_BAD[tag];
        prop_assert!(helios_core::store::Column::by_name(bad).is_none());
        for (label, expr, want) in query_corruptions(bad) {
            let err = match run_query(&expr, &[]) {
                Err(e) => e,
                Ok(_) => panic!("{label}: corrupted query was accepted: {expr:?}"),
            };
            let token = match &err {
                EngineError::Campaign(CampaignError::InvalidQuery { token, .. }) => token.clone(),
                other => panic!("{label}: wrong error type: {other:?}"),
            };
            prop_assert_eq!(
                &token, &want,
                "{}: error names token {:?}, expected {:?} ({})",
                label, token, want, err
            );
            let msg = err.to_string();
            prop_assert!(
                msg.contains("invalid query at"),
                "{}: message is not the typed rendering: {msg}",
                label
            );
        }
    }
}
