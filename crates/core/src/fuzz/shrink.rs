//! Greedy structural shrinker: reduces a diverging campaign spec to a
//! minimal one on which the *same* oracle still fires.
//!
//! The algorithm is plain greedy descent to a fixpoint: propose
//! size-reducing candidate edits (drop a grid axis entry, halve the
//! task count, drop a fault class, clear a knob), re-run the oracles on
//! each candidate, and accept the first candidate that still diverges
//! on the target oracle — then start over from the smaller spec.
//! Candidates that fail validation or error during the check are
//! skipped, so e.g. a task count below the surviving family's minimum
//! rejects itself. A global evaluation budget bounds the worst case;
//! every accepted step strictly shrinks the spec, so the loop
//! terminates without it.

use helios_workflow::generators::WorkflowClass;

use crate::campaign::spec::{CampaignSpec, DvfsKnob};
use crate::resilience::RecoveryPolicy;

use super::oracle::{check_spec, Divergence};

/// The smallest task count any candidate proposes: the smallest family
/// minimum, cybershake's (a unit test checks that).
const TASK_FLOOR: usize = WorkflowClass::CyberShake.min_tasks();

/// Upper bound on oracle evaluations across one shrink run.
const MAX_EVALS: usize = 400;

/// The result of shrinking one diverging spec.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimal spec that still fires the target oracle.
    pub spec: CampaignSpec,
    /// Accepted reduction steps.
    pub steps: usize,
    /// Oracle evaluations spent (accepted + rejected candidates).
    pub evals: usize,
    /// The divergence the minimal spec produces.
    pub divergence: Divergence,
}

/// Shrinks `spec`, on which `divergence` fired, to a minimal spec still
/// firing the same oracle. `broken` is threaded through to
/// [`check_spec`] so a sabotaged oracle shrinks the same way a real
/// divergence does.
#[must_use]
pub fn shrink_spec(
    spec: &CampaignSpec,
    divergence: &Divergence,
    broken: Option<&str>,
) -> ShrinkOutcome {
    let mut current = spec.clone();
    let mut current_div = divergence.clone();
    let mut steps = 0;
    let mut evals = 0;

    'descent: loop {
        for cand in candidates(&current) {
            if evals >= MAX_EVALS {
                break 'descent;
            }
            if cand.validate().is_err() {
                continue;
            }
            evals += 1;
            match check_spec(&cand, broken) {
                Ok(Some(d)) if d.oracle == current_div.oracle => {
                    current = cand;
                    current_div = d;
                    steps += 1;
                    continue 'descent;
                }
                // A clean candidate, a different oracle, or a hard
                // error: this reduction loses the bug — skip it.
                _ => {}
            }
        }
        break;
    }

    ShrinkOutcome {
        spec: current,
        steps,
        evals,
        divergence: current_div,
    }
}

/// All candidate reductions of `spec`, largest first: grid-axis drops
/// shed whole cell rows, then the fault stack peels away class by
/// class, then scalar knobs reset toward the quiet defaults.
fn candidates(spec: &CampaignSpec) -> Vec<CampaignSpec> {
    let mut out: Vec<CampaignSpec> = Vec::new();

    // Grid-axis drops: one candidate per removable entry.
    if spec.families.len() > 1 {
        for i in 0..spec.families.len() {
            let mut c = spec.clone();
            c.families.remove(i);
            out.push(c);
        }
    }
    if spec.platforms.len() > 1 {
        for i in 0..spec.platforms.len() {
            let mut c = spec.clone();
            c.platforms.remove(i);
            out.push(c);
        }
    }
    if spec.schedulers.len() > 1 {
        for i in 0..spec.schedulers.len() {
            let mut c = spec.clone();
            c.schedulers.remove(i);
            out.push(c);
        }
    }
    if spec.seeds.count > 1 {
        let mut c = spec.clone();
        c.seeds.count = 1;
        out.push(c);
    }
    if spec.tasks > TASK_FLOOR {
        // Halve first; the single-step decrement is the fallback for
        // when halving overshoots the surviving family's minimum size
        // (validation refuses counts below it).
        let mut c = spec.clone();
        c.tasks = TASK_FLOOR.max(spec.tasks / 2);
        out.push(c);
        let mut c = spec.clone();
        c.tasks = spec.tasks - 1;
        out.push(c);
    }

    // Fault-stack drops, coarsest first: the whole resilience block
    // (with its dependents, which cannot stand alone), then the legacy
    // block, then interconnect faults, then domains one by one.
    if spec.resilience.is_some() {
        let mut c = spec.clone();
        c.resilience = None;
        c.interconnect_faults = None;
        c.failure_domains.clear();
        out.push(c);
    }
    if spec.faults.is_some() {
        let mut c = spec.clone();
        c.faults = None;
        out.push(c);
    }
    if spec.interconnect_faults.is_some() {
        let mut c = spec.clone();
        c.interconnect_faults = None;
        out.push(c);
    }
    for i in 0..spec.failure_domains.len() {
        let mut c = spec.clone();
        c.failure_domains.remove(i);
        out.push(c);
    }
    if let Some(r) = &spec.resilience {
        // Simplify the policy to the flat-retry floor; gated on not
        // already being there so an accepted step never reappears.
        let floor = RecoveryPolicy::flat_retry(3);
        if r.policy != floor {
            let mut c = spec.clone();
            c.resilience.as_mut().expect("resilience present").policy = floor;
            out.push(c);
        }
        if r.weibull_shape.is_some() {
            let mut c = spec.clone();
            c.resilience
                .as_mut()
                .expect("resilience present")
                .weibull_shape = None;
            out.push(c);
        }
    }

    // Scalar-knob resets.
    if spec.scheduler_params.is_some() {
        let mut c = spec.clone();
        c.scheduler_params = None;
        out.push(c);
    }
    if spec.noise_cv != 0.0 {
        let mut c = spec.clone();
        c.noise_cv = 0.0;
        out.push(c);
    }
    if spec.link_contention {
        let mut c = spec.clone();
        c.link_contention = false;
        out.push(c);
    }
    if spec.data_caching {
        let mut c = spec.clone();
        c.data_caching = false;
        out.push(c);
    }
    if spec.dvfs != DvfsKnob::Nominal {
        let mut c = spec.clone();
        c.dvfs = DvfsKnob::Nominal;
        out.push(c);
    }
    if spec.cell_step_budget.is_some() {
        let mut c = spec.clone();
        c.cell_step_budget = None;
        out.push(c);
    }
    if spec.seeds.base != 0 {
        let mut c = spec.clone();
        c.seeds.base = 0;
        out.push(c);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::gen::MIN_TASKS;

    /// A deliberately knob-heavy single-platform spec for shrink tests.
    fn rich_spec() -> CampaignSpec {
        CampaignSpec::from_json(
            r#"{
                "name": "shrink-rich",
                "families": ["montage", "sipht"],
                "platforms": ["workstation"],
                "schedulers": ["heft", "olb"],
                "seeds": {"base": 17, "count": 2},
                "tasks": 24,
                "noise_cv": 0.1,
                "link_contention": true,
                "data_caching": true,
                "dvfs": "powersave",
                "cell_step_budget": 4000000,
                "resilience": {
                    "mttf_secs": 2.0,
                    "weibull_shape": 1.3,
                    "policy": {"kind": "replicate-k", "replicas": 2, "max_retries": 4}
                }
            }"#,
        )
        .expect("spec is valid")
    }

    #[test]
    fn task_floor_is_the_smallest_family_minimum() {
        let min = WorkflowClass::ALL
            .map(WorkflowClass::min_tasks)
            .into_iter()
            .min();
        assert_eq!(Some(TASK_FLOOR), min);
    }

    #[test]
    fn sabotaged_oracle_shrinks_to_the_floor() {
        let spec = rich_spec();
        let div = check_spec(&spec, Some("jobs_identity"))
            .expect("oracles run")
            .expect("sabotaged oracle fires");
        let out = shrink_spec(&spec, &div, Some("jobs_identity"));
        assert_eq!(out.divergence.oracle, "jobs_identity");
        assert_eq!(
            out.spec.families.len(),
            1,
            "families: {:?}",
            out.spec.families
        );
        assert_eq!(out.spec.platforms.len(), 1);
        assert_eq!(out.spec.schedulers.len(), 1);
        assert_eq!(out.spec.seeds.count, 1);
        assert_eq!(out.spec.seeds.base, 0);
        assert!(out.spec.tasks <= MIN_TASKS, "tasks: {}", out.spec.tasks);
        assert!(out.spec.resilience.is_none());
        assert!(out.spec.cell_step_budget.is_none());
        assert_eq!(out.spec.noise_cv, 0.0);
        assert!(!out.spec.link_contention && !out.spec.data_caching);
        assert_eq!(out.spec.dvfs, DvfsKnob::Nominal);
        assert!(out.steps > 0 && out.evals >= out.steps);
        // The shrunk spec still fires the oracle — the replay contract.
        let replayed = check_spec(&out.spec, Some("jobs_identity"))
            .expect("oracles run")
            .expect("minimal spec still fires");
        assert_eq!(replayed.oracle, "jobs_identity");
    }

    #[test]
    fn shrink_never_accepts_a_clean_candidate() {
        // Against real (un-sabotaged) oracles a clean spec never
        // diverges, so shrinking a fabricated divergence must keep the
        // spec unchanged: every candidate comes back clean.
        let spec = CampaignSpec::from_json(
            r#"{
                "name": "shrink-clean",
                "families": ["montage"],
                "platforms": ["workstation"],
                "schedulers": ["heft"],
                "seeds": {"base": 5, "count": 1},
                "tasks": 16,
                "noise_cv": 0.05
            }"#,
        )
        .expect("spec is valid");
        let fake = Divergence {
            oracle: "jobs_identity".into(),
            detail: "fabricated".into(),
        };
        let out = shrink_spec(&spec, &fake, None);
        assert_eq!(out.steps, 0);
        assert_eq!(out.spec, spec);
    }
}
