//! Negative-validation property tests for the campaign spec surface the
//! fuzz harness generates over, and for the `helios query` expression
//! language: every malformed input must come back as a *typed*
//! [`CampaignError`] naming the offending field (or token) — never a
//! panic, and never a silent acceptance. This is the flip side of the
//! generator's valid-by-construction guarantee: `helios fuzz` only
//! explores legal specs, so this test patrols the illegal border.
//!
//! Numeric knobs are probed from their declared ranges: one class per
//! range, with a value just outside each finite end (and, for floats,
//! `1e400`, which the JSON reader turns into infinity). The bounds come
//! from the declarations the validators read, never restated here.

use proptest::prelude::*;

use helios_core::resilience::{DURATION_SECS, PERIOD_SECS, REPLICAS, SLOWDOWN};
use helios_core::{
    run_query, CampaignError, CampaignSpec, EngineConfig, EngineError, SchedulerParamsKnob,
};
use helios_platform::presets::CLUSTER_NODES;
use helios_sched::LookaheadScheduler;
use helios_sim::failure::{PROBABILITY, SCALE_SECS, SHAPE};
use helios_sim::KnobRange;
use helios_workflow::generators::WorkflowClass;

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

/// Every structural corruption class, parameterized on a garbage name.
fn corruptions(bad: &str) -> Vec<Corruption> {
    let resilience_with = |policy: &str| spec_with(&resilience(r#""mttf_secs": 50.0"#, policy));
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
            label: "unknown dvfs level",
            json: spec_with(&format!(r#", "dvfs": "{bad}""#)),
            needle: "dvfs",
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

/// Asserts that `json` is refused with a typed campaign error whose
/// message contains `needle`.
fn assert_refused(label: &str, json: &str, needle: &str) {
    let err = match CampaignSpec::from_json(json) {
        Err(e) => e,
        Ok(_) => panic!("{label}: corrupted spec was accepted:\n{json}"),
    };
    assert!(
        matches!(
            err,
            EngineError::Campaign(
                CampaignError::MalformedSpec(_) | CampaignError::InvalidSpec { .. }
            )
        ),
        "{label}: wrong error type: {err:?}"
    );
    let msg = err.to_string();
    assert!(
        msg.contains(needle),
        "{label}: error does not name {needle:?}: {msg}"
    );
}

/// The `extra` of a spec with a valid resilience block (the
/// `fields` of its failure model, then its policy).
fn resilience(fields: &str, policy: &str) -> String {
    format!(r#", "resilience": {{{fields}, "policy": {policy}}}"#)
}

/// The valid policy of [`resilience`] when another key is probed.
const POLICY: &str = r#"{"kind": "replicate-k", "replicas": 2}"#;

/// Every float knob with a declared range: the key as a spec spells
/// it, the declaration, and a spec whose `@` the probe value fills.
fn float_knobs() -> Vec<(&'static str, KnobRange<f64>, String)> {
    let res = |fields: &str| spec_with(&resilience(fields, POLICY));
    let policy = |policy: &str| spec_with(&resilience(r#""mttf_secs": 50.0"#, policy));
    let link = |fields: &str| {
        spec_with(&format!(
            r#"{}, "interconnect_faults": {{"distribution": "weibull", {fields}}}"#,
            resilience(r#""mttf_secs": 50.0"#, POLICY)
        ))
    };
    let domain = |fields: &str| {
        spec_with(&format!(
            r#"{}, "failure_domains": [{{"kind": "rack", "name": "r0", "devices": ["cpu0"],
                                         {fields}}}]"#,
            resilience(r#""mttf_secs": 50.0"#, POLICY)
        ))
    };
    let event = |fields: &str| {
        spec_with(&format!(
            r#", "elasticity": {{"events": [{{"device": "cpu0", {fields}}}]}}"#
        ))
    };
    let churn = |fields: &str| {
        spec_with(&format!(
            r#", "elasticity": {{"churn": [{{"device": "cpu0", {fields}}}]}}"#
        ))
    };
    let churn_period = r#""notice_secs": 0.01, "rejoin_secs": 0.5"#;
    vec![
        (
            "noise_cv",
            EngineConfig::NOISE_CV,
            spec_with(r#", "noise_cv": @"#),
        ),
        (
            "faults.mtbf_secs",
            SCALE_SECS,
            spec_with(r#", "faults": {"mtbf_secs": @}"#),
        ),
        (
            "faults.restart_overhead_secs",
            DURATION_SECS,
            spec_with(r#", "faults": {"mtbf_secs": 100.0, "restart_overhead_secs": @}"#),
        ),
        (
            "resilience.mttf_secs",
            SCALE_SECS,
            res(r#""mttf_secs": @, "weibull_shape": 1.5"#),
        ),
        (
            "resilience.weibull_shape",
            SHAPE,
            res(r#""mttf_secs": 50.0, "weibull_shape": @"#),
        ),
        (
            "resilience.degraded_prob",
            PROBABILITY,
            res(r#""mttf_secs": 50.0, "degraded_prob": @"#),
        ),
        (
            "resilience.permanent_prob",
            PROBABILITY,
            res(r#""mttf_secs": 50.0, "permanent_prob": @"#),
        ),
        (
            "resilience.degraded_slowdown",
            SLOWDOWN,
            res(r#""mttf_secs": 50.0, "degraded_slowdown": @"#),
        ),
        (
            "resilience.degraded_repair_secs",
            DURATION_SECS,
            res(r#""mttf_secs": 50.0, "degraded_repair_secs": @"#),
        ),
        (
            "resilience.restart_overhead_secs",
            DURATION_SECS,
            res(r#""mttf_secs": 50.0, "restart_overhead_secs": @"#),
        ),
        (
            "resilience.policy.base_secs",
            DURATION_SECS,
            policy(r#"{"kind": "retry-backoff", "base_secs": @, "factor": 2, "cap_secs": 9}"#),
        ),
        (
            "resilience.policy.factor",
            SLOWDOWN,
            policy(r#"{"kind": "retry-backoff", "base_secs": 0.1, "factor": @, "cap_secs": 9}"#),
        ),
        (
            "resilience.policy.cap_secs",
            DURATION_SECS,
            policy(r#"{"kind": "retry-backoff", "base_secs": 0, "factor": 2, "cap_secs": @}"#),
        ),
        (
            "resilience.policy.interval_secs",
            PERIOD_SECS,
            policy(r#"{"kind": "checkpoint-restart", "interval_secs": @, "overhead_secs": 0}"#),
        ),
        (
            "resilience.policy.overhead_secs",
            DURATION_SECS,
            policy(r#"{"kind": "checkpoint-restart", "interval_secs": 1, "overhead_secs": @}"#),
        ),
        (
            "resilience.policy.overhead_secs",
            DURATION_SECS,
            policy(r#"{"kind": "reschedule", "scheduler": "heft", "overhead_secs": @}"#),
        ),
        (
            "interconnect_faults.mttf_secs",
            SCALE_SECS,
            link(r#""mttf_secs": @, "shape": 1.5"#),
        ),
        (
            "interconnect_faults.shape",
            SHAPE,
            link(r#""mttf_secs": 100.0, "shape": @"#),
        ),
        (
            "interconnect_faults.degraded_prob",
            PROBABILITY,
            link(r#""mttf_secs": 100.0, "shape": 1.5, "degraded_prob": @"#),
        ),
        (
            "interconnect_faults.degraded_factor",
            SLOWDOWN,
            link(r#""mttf_secs": 100.0, "shape": 1.5, "degraded_factor": @"#),
        ),
        (
            "interconnect_faults.outage_secs",
            DURATION_SECS,
            link(r#""mttf_secs": 100.0, "shape": 1.5, "outage_secs": @"#),
        ),
        (
            "interconnect_faults.degraded_repair_secs",
            DURATION_SECS,
            link(r#""mttf_secs": 100.0, "shape": 1.5, "degraded_repair_secs": @"#),
        ),
        (
            "failure_domains[0].mttf_secs",
            SCALE_SECS,
            domain(r#""mttf_secs": @, "weibull_shape": 1.5"#),
        ),
        (
            "failure_domains[0].weibull_shape",
            SHAPE,
            domain(r#""mttf_secs": 100.0, "weibull_shape": @"#),
        ),
        (
            "failure_domains[0].degraded_prob",
            PROBABILITY,
            domain(r#""mttf_secs": 100.0, "degraded_prob": @"#),
        ),
        (
            "failure_domains[0].permanent_prob",
            PROBABILITY,
            domain(r#""mttf_secs": 100.0, "permanent_prob": @"#),
        ),
        (
            "failure_domains[0].outage_secs",
            DURATION_SECS,
            domain(r#""mttf_secs": 100.0, "outage_secs": @"#),
        ),
        (
            "elasticity.events[0].at_secs",
            DURATION_SECS,
            event(r#""kind": "join", "at_secs": @"#),
        ),
        (
            "elasticity.events[0].notice_secs",
            PERIOD_SECS,
            event(r#""kind": "preempt", "at_secs": 0.5, "notice_secs": @"#),
        ),
        (
            "elasticity.churn[0].mtbp_secs",
            SCALE_SECS,
            churn(&format!(
                r#""mtbp_secs": @, "weibull_shape": 1.5, {churn_period}"#
            )),
        ),
        (
            "elasticity.churn[0].weibull_shape",
            SHAPE,
            churn(&format!(
                r#""mtbp_secs": 1.0, "weibull_shape": @, {churn_period}"#
            )),
        ),
        (
            "elasticity.churn[0].notice_secs",
            PERIOD_SECS,
            churn(r#""mtbp_secs": 1.0, "notice_secs": @, "rejoin_secs": 0.5"#),
        ),
        (
            "elasticity.churn[0].rejoin_secs",
            PERIOD_SECS,
            churn(r#""mtbp_secs": 1.0, "notice_secs": 0.01, "rejoin_secs": @"#),
        ),
    ]
}

/// Every integer knob with a declared range, as [`float_knobs`], plus
/// the text the refusal must contain when it is not the key itself.
fn int_knobs() -> Vec<(String, KnobRange<u64>, String)> {
    let widen = |r: KnobRange<u32>| KnobRange {
        lo: u64::from(r.lo),
        lo_open: r.lo_open,
        hi: r.hi.map(u64::from),
    };
    let mut knobs = vec![
        (
            "`scheduler_params.annealing_iterations`".to_owned(),
            widen(SchedulerParamsKnob::ANNEALING_ITERATIONS),
            spec_with(r#", "scheduler_params": {"annealing_iterations": @}"#),
        ),
        (
            "`scheduler_params.lookahead_depth`".to_owned(),
            widen(LookaheadScheduler::DEPTH),
            spec_with(r#", "scheduler_params": {"lookahead_depth": @}"#),
        ),
        (
            "`cell_step_budget`".to_owned(),
            EngineConfig::STEP_BUDGET,
            spec_with(r#", "cell_step_budget": @"#),
        ),
        (
            "`resilience.policy.replicas`".to_owned(),
            KnobRange::at_least(REPLICAS.lo as u64),
            spec_with(&resilience(
                r#""mttf_secs": 50.0"#,
                r#"{"kind": "replicate-k", "replicas": @}"#,
            )),
        ),
        (
            "`platforms`".to_owned(),
            KnobRange::closed(CLUSTER_NODES.lo as u64, CLUSTER_NODES.hi.unwrap() as u64),
            spec_with("").replace("workstation", "cluster@"),
        ),
        (
            "seeds.count".to_owned(),
            KnobRange::closed(
                CampaignSpec::CELLS.lo as u64,
                CampaignSpec::CELLS.hi.unwrap() as u64,
            ),
            spec_with("").replace(r#""count": 1"#, r#""count": @"#),
        ),
    ];
    for class in WorkflowClass::ALL {
        knobs.push((
            format!("{class}: `tasks`"),
            KnobRange::at_least(class.min_tasks() as u64),
            spec_with("")
                .replace("montage", class.as_str())
                .replace(r#""tasks": 16"#, r#""tasks": @"#),
        ));
    }
    knobs
}

/// Every float knob refuses a value just outside each finite end of
/// its declared range, and `1e400`, naming the key as spelled.
#[test]
fn float_knobs_refuse_values_outside_their_declared_range() {
    for (key, range, json) in float_knobs() {
        assert!(json.matches('@').count() == 1, "{key}: one hole");
        let mut outside = vec![if range.lo_open {
            range.lo
        } else {
            range.lo.next_down()
        }];
        outside.extend(range.hi.map(f64::next_up));
        for v in outside {
            assert!(!range.contains(v), "{key}: {v:e} is inside {range}");
            let json = json.replace('@', &format!("{v:e}"));
            assert_refused(key, &json, &format!("`{key}`"));
        }
        assert_refused(key, &json.replace('@', "1e400"), &format!("`{key}`"));
    }
}

/// Every integer knob refuses a value just outside each finite end of
/// its declared range, naming the key as spelled.
#[test]
fn int_knobs_refuse_values_outside_their_declared_range() {
    for (needle, range, json) in int_knobs() {
        let below = if range.lo_open {
            Some(range.lo)
        } else {
            range.lo.checked_sub(1)
        };
        for v in below.into_iter().chain(range.hi.map(|hi| hi + 1)) {
            assert!(!range.contains(v), "{needle}: {v} is inside {range}");
            assert_refused(&needle, &json.replace('@', &v.to_string()), &needle);
        }
    }
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
    /// names, and never a panic.
    #[test]
    fn malformed_specs_fail_typed_and_named(tag in 0usize..BAD_NAMES.len()) {
        for c in corruptions(BAD_NAMES[tag]) {
            assert_refused(c.label, &c.json, c.needle);
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
