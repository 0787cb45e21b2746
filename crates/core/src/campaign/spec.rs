//! Declarative campaign sweep specifications.
//!
//! A [`CampaignSpec`] is the file-level description of an evaluation
//! grid: the cross product of workflow families, platform presets,
//! schedulers and seeds, plus the engine knobs (noise, contention,
//! caching, DVFS policy, fault injection) every cell runs under. Specs
//! are plain JSON loaded through the vendored serde stack, so the same
//! grid can be split across processes or hosts and recombined later —
//! see [`super::sweep`] for the sharded driver.
//!
//! The Rust declarations are the schema: the fault and capacity blocks
//! are the engine's own types ([`RecoveryPolicy`], [`LinkFaultModel`],
//! [`FailureDomain`], [`ElasticityConfig`]), and every object is closed
//! — an unknown or duplicate key, or an integer its field cannot hold,
//! is a [`CampaignError::MalformedSpec`] naming the key.
//!
//! Expansion is deterministic: [`CampaignSpec::expand`] enumerates
//! cells in declaration order (family, then platform, then scheduler,
//! then seed), and every cell carries its global index. Two processes
//! expanding the same spec therefore agree on which simulation cell
//! `i` denotes, which is what makes shard unions bit-identical to the
//! unsharded run.

use serde::{Deserialize, Serialize};

use helios_platform::presets::{self, CLUSTER_NODES, NAMES as PLATFORM_NAMES};
use helios_platform::Platform;
use helios_sched::{AnnealingScheduler, LookaheadScheduler, Scheduler};
use helios_sim::failure::SCALE_SECS;
use helios_sim::KnobRange;
use helios_workflow::generators::WorkflowClass;

use super::CampaignError;
use crate::elastic::ElasticityConfig;
use crate::resilience::{
    FailureDomain, FailureModel, LinkFaultModel, RecoveryPolicy, ResilienceConfig, DURATION_SECS,
};
use crate::{EngineConfig, EngineError};

/// A consecutive seed range: `base, base + 1, …, base + count - 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SeedRange {
    /// First seed of the range.
    pub base: u64,
    /// Number of seeds (one replicate per seed).
    pub count: usize,
}

impl SeedRange {
    /// Iterates the seeds of the range.
    pub fn iter(self) -> impl Iterator<Item = u64> {
        (0..self.count as u64).map(move |i| self.base.wrapping_add(i))
    }
}

/// The DVFS operating point every placement of a cell is pinned to,
/// spelled in lowercase in spec files.
///
/// `Nominal` keeps whatever levels the scheduler chose; `Powersave`
/// rewrites placements to each device's slowest state, `Performance`
/// to its fastest. The engine re-derives timing from the plan's device
/// order, so rewriting levels is safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum DvfsKnob {
    /// Keep the scheduler's chosen levels.
    #[default]
    Nominal,
    /// Pin every placement to the slowest DVFS state.
    Powersave,
    /// Pin every placement to the fastest DVFS state.
    Performance,
}

/// Flat-retry fault-injection knobs of a spec: each device fails as a
/// Poisson process and a failed task retries from scratch. The cells
/// run on the plain [`Engine`](crate::Engine) under the
/// [`ResilienceConfig`] of [`FaultKnob::to_config`]; a spec
/// `resilience` block instead runs the
/// [`ResilientRunner`](crate::ResilientRunner), which also fills the
/// resilience columns of each cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FaultKnob {
    /// Mean time between failures per device, seconds.
    pub mtbf_secs: f64,
    /// Restart overhead added to every retry, seconds.
    #[serde(default)]
    pub restart_overhead_secs: f64,
    /// Retry budget per task.
    #[serde(default)]
    pub max_retries: u32,
}

impl FaultKnob {
    /// The knob in the engine's fault vocabulary: exponential
    /// transient-only failures under
    /// [`RecoveryPolicy::flat_retry`].
    #[must_use]
    pub fn to_config(&self) -> ResilienceConfig {
        ResilienceConfig::new(
            FailureModel {
                restart_overhead_secs: self.restart_overhead_secs,
                ..FailureModel::exponential(self.mtbf_secs)
            },
            RecoveryPolicy::flat_retry(self.max_retries),
        )
    }
}

fn default_slowdown() -> f64 {
    2.0
}

fn default_repair() -> f64 {
    1.0
}

/// Failure-model and recovery knobs of a spec: the
/// [`FailureModel`] fields flattened next to the [`RecoveryPolicy`].
/// Mutually exclusive with the flat-retry [`FaultKnob`] block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ResilienceKnob {
    /// Mean time to failure (exponential) or characteristic life
    /// (Weibull), seconds.
    pub mttf_secs: f64,
    /// Weibull shape; omit for the exponential distribution.
    #[serde(default)]
    pub weibull_shape: Option<f64>,
    /// Probability a failure degrades the device instead of only
    /// aborting the running attempt (default 0).
    #[serde(default)]
    pub degraded_prob: f64,
    /// Probability a failure removes the device permanently (default 0).
    #[serde(default)]
    pub permanent_prob: f64,
    /// Execution-time multiplier while degraded (default 2).
    #[serde(default = "default_slowdown")]
    pub degraded_slowdown: f64,
    /// Time until a degraded device is repaired, seconds (default 1).
    #[serde(default = "default_repair")]
    pub degraded_repair_secs: f64,
    /// Fixed overhead paid before every retry, seconds (default 0).
    #[serde(default)]
    pub restart_overhead_secs: f64,
    /// The recovery policy (`kind`-tagged object).
    pub policy: RecoveryPolicy,
}

impl ResilienceKnob {
    /// The engine-level resilience configuration, not yet validated:
    /// [`CampaignSpec::resilience_config`] validates it whole, with the
    /// spec's interconnect faults and failure domains.
    #[must_use]
    pub fn to_config(&self) -> ResilienceConfig {
        ResilienceConfig::new(
            FailureModel {
                mttf_secs: self.mttf_secs,
                weibull_shape: self.weibull_shape,
                degraded_prob: self.degraded_prob,
                permanent_prob: self.permanent_prob,
                degraded_slowdown: self.degraded_slowdown,
                degraded_repair_secs: self.degraded_repair_secs,
                restart_overhead_secs: self.restart_overhead_secs,
            },
            self.policy.clone(),
        )
    }
}

/// Per-scheduler tuning knobs of a spec. Each key overrides one
/// scheduler's construction in every cell that names it; schedulers
/// without a key keep their lineup defaults, and cells running other
/// schedulers ignore the block entirely. Only the keys set are
/// serialized, and any override is part of the spec's content
/// [`digest`](CampaignSpec::digest), so shards swept with different
/// knobs refuse to merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SchedulerParamsKnob {
    /// Iteration budget of the `annealing` scheduler (lineup default
    /// 500).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub annealing_iterations: Option<u32>,
    /// Descendant-generation depth of the `lookahead` scheduler
    /// (lineup default 1, the published one-step variant).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub lookahead_depth: Option<u32>,
}

impl SchedulerParamsKnob {
    /// Legal range of `annealing_iterations`.
    pub const ANNEALING_ITERATIONS: KnobRange<u32> = KnobRange::at_least(1);

    /// True when no override is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.annealing_iterations.is_none() && self.lookahead_depth.is_none()
    }
}

fn default_tasks() -> usize {
    50
}

/// A declarative sweep grid: the cross product of families, platforms,
/// schedulers and seeds, with shared engine knobs.
///
/// # Examples
///
/// ```
/// let spec = helios_core::CampaignSpec::from_json(
///     r#"{
///         "name": "smoke",
///         "families": ["montage"],
///         "platforms": ["workstation"],
///         "schedulers": ["heft"],
///         "seeds": {"base": 0, "count": 2}
///     }"#,
/// )?;
/// assert_eq!(spec.expand()?.len(), 2);
/// # Ok::<(), helios_core::EngineError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CampaignSpec {
    /// Human-readable grid name, echoed into every report.
    pub name: String,
    /// Workflow families (`montage`, `cybershake`, `epigenomics`,
    /// `ligo`, `sipht`).
    pub families: Vec<String>,
    /// Platform preset names (`workstation`, `hpc_node`, `cluster<N>`,
    /// `edge_soc`).
    pub platforms: Vec<String>,
    /// Scheduler report names (see `helios_sched::all_schedulers`).
    pub schedulers: Vec<String>,
    /// Optional per-scheduler tuning overrides (annealing iteration
    /// budget, lookahead depth). Omitted from the canonical JSON when
    /// absent, so knob-free specs keep their digests.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub scheduler_params: Option<SchedulerParamsKnob>,
    /// Seed replicates per (family, platform, scheduler) combination.
    pub seeds: SeedRange,
    /// Tasks per generated workflow (default 50).
    #[serde(default = "default_tasks")]
    pub tasks: usize,
    /// Runtime noise coefficient of variation (default 0).
    #[serde(default)]
    pub noise_cv: f64,
    /// Model link contention (default off).
    #[serde(default)]
    pub link_contention: bool,
    /// Cache data products per device (default off).
    #[serde(default)]
    pub data_caching: bool,
    /// DVFS operating point (default `nominal`).
    #[serde(default)]
    pub dvfs: DvfsKnob,
    /// Optional flat-retry fault injection; cells run on the plain
    /// [`Engine`](crate::Engine) under [`FaultKnob::to_config`].
    #[serde(default)]
    pub faults: Option<FaultKnob>,
    /// Optional failure-domain model and recovery policy; cells run
    /// through the [`ResilientRunner`](crate::ResilientRunner).
    /// Mutually exclusive with `faults`.
    #[serde(default)]
    pub resilience: Option<ResilienceKnob>,
    /// Optional per-link interconnect faults (outages and bandwidth
    /// degradations). Requires a `resilience` block.
    #[serde(default)]
    pub interconnect_faults: Option<LinkFaultModel>,
    /// Optional correlated failure domains (racks, nodes, PSUs) whose
    /// members fail together. Requires a `resilience` block.
    #[serde(default)]
    pub failure_domains: Vec<FailureDomain>,
    /// Optional elastic-capacity plan: timed join/drain/preempt/leave
    /// events and stochastic spot churn. Cells run through the
    /// [`ResilientRunner`](crate::ResilientRunner) (a benign default
    /// resilience config is synthesized when no `resilience` block is
    /// present). Mutually exclusive with `faults`; omitted from the
    /// canonical JSON when absent, so elasticity-free specs keep their
    /// digests.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub elasticity: Option<ElasticityConfig>,
    /// Optional watchdog budget on simulated events per cell; a cell
    /// exceeding it is recorded as timed out instead of grinding the
    /// campaign. Overridable at run time via the
    /// `HELIOS_CELL_STEP_BUDGET` environment variable, which a sweep
    /// reads and checks once per run, before anything is written.
    #[serde(default)]
    pub cell_step_budget: Option<u64>,
}

/// One expanded grid point: a single deterministic simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCell {
    /// Global cell index in expansion order (stable across shards).
    pub index: usize,
    /// Workflow family name.
    pub family: String,
    /// Platform preset name.
    pub platform: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Workflow-generation and engine seed.
    pub seed: u64,
}

/// Resolves a spec family name to its generator class.
#[must_use]
pub fn family_class(name: &str) -> Option<WorkflowClass> {
    WorkflowClass::ALL.into_iter().find(|c| c.as_str() == name)
}

impl CampaignSpec {
    /// Parses and validates a spec from its JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::MalformedSpec`] (wrapped in
    /// [`EngineError::Campaign`]) for JSON that does not deserialize,
    /// and [`CampaignError::InvalidSpec`] for unknown grid axis values
    /// or an empty grid.
    pub fn from_json(json: &str) -> Result<CampaignSpec, EngineError> {
        let spec: CampaignSpec =
            serde_json::from_str(json).map_err(|e| CampaignError::MalformedSpec(e.to_string()))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Checks every grid axis is non-empty and resolvable, that every
    /// numeric knob lies in its declared range and the grid within
    /// [`CELLS`](CampaignSpec::CELLS), and that every fault block is
    /// legal (interconnect faults and failure domains require a
    /// resilience block, domain members must resolve on every spec
    /// platform).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::InvalidSpec`] (wrapped in
    /// [`EngineError::Campaign`]) naming the offending key as the spec
    /// spells it; an empty axis is a hard error because it silently
    /// expands to zero cells.
    pub fn validate(&self) -> Result<(), EngineError> {
        self.resolve().map(drop)
    }

    /// [`validate`](CampaignSpec::validate), keeping what the checks
    /// build for the cells of a run to share.
    pub(crate) fn resolve(&self) -> Result<Resolved<'_>, EngineError> {
        self.check().map_err(|e| match e {
            EngineError::Config(detail) => EngineError::Campaign(CampaignError::InvalidSpec {
                spec: self.name.clone(),
                detail,
            }),
            other => other,
        })
    }

    /// The checks of [`validate`](CampaignSpec::validate), refusing with
    /// [`EngineError::Config`].
    fn check(&self) -> Result<Resolved<'_>, EngineError> {
        if self.families.is_empty() {
            return Err(format!(
                "`families` is empty, so the grid has no cells; list at least one of {}",
                WorkflowClass::names()
            )
            .into());
        }
        let mut classes = Vec::with_capacity(self.families.len());
        for f in &self.families {
            let Some(class) = family_class(f) else {
                return Err(format!("unknown family {f:?} ({})", WorkflowClass::names()).into());
            };
            class.check_tasks(self.tasks)?;
            classes.push(class);
        }
        if self.platforms.is_empty() {
            return Err(format!(
                "`platforms` is empty, so the grid has no cells; list at least one of \
                 {PLATFORM_NAMES}"
            )
            .into());
        }
        let mut platforms = Vec::with_capacity(self.platforms.len());
        for p in &self.platforms {
            let Some(platform) = presets::by_name(p) else {
                return Err(format!(
                    "unknown platform {p:?} in `platforms` ({PLATFORM_NAMES}; N {CLUSTER_NODES})"
                )
                .into());
            };
            platforms.push(platform);
        }
        if self.schedulers.is_empty() {
            return Err(
                "`schedulers` is empty, so the grid has no cells; list at least one \
                 scheduler name (e.g. heft)"
                    .to_owned()
                    .into(),
            );
        }
        let lineup = helios_sched::all_schedulers();
        let mut schedulers = Vec::with_capacity(self.schedulers.len());
        for s in &self.schedulers {
            let Some(at) = lineup.iter().position(|l| l.name() == s) else {
                let names: Vec<&str> = lineup.iter().map(|l| l.name()).collect();
                return Err(
                    format!("unknown scheduler {s:?} (available: {})", names.join(", ")).into(),
                );
            };
            schedulers.push(at);
        }
        if let Some(sp) = &self.scheduler_params {
            if let Some(n) = sp.annealing_iterations {
                let key = "scheduler_params.annealing_iterations";
                SchedulerParamsKnob::ANNEALING_ITERATIONS.check(key, n)?;
            }
            if let Some(depth) = sp.lookahead_depth {
                LookaheadScheduler::DEPTH.check("scheduler_params.lookahead_depth", depth)?;
            }
        }
        let key = "families × platforms × schedulers × seeds.count";
        Self::CELLS.check(key, self.grid_size()).map_err(|e| {
            let (f, p, s) = (
                self.families.len(),
                self.platforms.len(),
                self.schedulers.len(),
            );
            format!("{e} cells ({f} × {p} × {s} × {})", self.seeds.count)
        })?;
        EngineConfig::NOISE_CV.check("noise_cv", self.noise_cv)?;
        if let Some(fk) = &self.faults {
            SCALE_SECS.check("faults.mtbf_secs", fk.mtbf_secs)?;
            DURATION_SECS.check("faults.restart_overhead_secs", fk.restart_overhead_secs)?;
        }
        if self.resilience.is_some() && self.faults.is_some() {
            return Err(
                "`faults` and `resilience` are mutually exclusive; flat retry is \
                 `resilience.policy = {\"kind\": \"retry-backoff\", \"base_secs\": 0, ...}`"
                    .to_owned()
                    .into(),
            );
        }
        if self.elasticity.is_some() && self.faults.is_some() {
            return Err(
                "`faults` and `elasticity` are mutually exclusive: capacity events run \
                 through the resilient runner, which replaces the legacy fault path"
                    .to_owned()
                    .into(),
            );
        }
        if self.resilience.is_none()
            && (self.interconnect_faults.is_some() || !self.failure_domains.is_empty())
        {
            return Err(
                "`interconnect_faults` and `failure_domains` require a `resilience` block: \
                 link outages and correlated strikes need a recovery policy to run under"
                    .to_owned()
                    .into(),
            );
        }
        if let Some(budget) = self.cell_step_budget {
            EngineConfig::STEP_BUDGET.check("cell_step_budget", budget)?;
        }
        // Builds the full engine-level config, which validates the fault
        // model, the link-fault parameters, every domain (kind tag,
        // members, probabilities) and domain-name uniqueness.
        let resilience = self.resilience_config()?;
        // Times, notices and churn rates are validated by the
        // engine-level elasticity config; device names below, per
        // platform.
        if let Some(el) = &self.elasticity {
            el.validate()?;
        }
        // Domain members and elasticity targets must resolve on *every*
        // platform of the grid — a typo must die at validation, not in
        // shard 7 of 32.
        for platform in &platforms {
            for domain in &self.failure_domains {
                domain.members(platform)?;
            }
            if let Some(el) = &self.elasticity {
                el.device_ids(platform)?;
            }
        }
        // Elastic cells always run through the resilient runner:
        // departures feed its recovery machinery. Without a `resilience`
        // block they get a benign stack. A `faults` block (exclusive with
        // both) is flat retry on the plain engine, whose occupancy model
        // reads the same vocabulary.
        let resilient = resilience.is_some() || self.elasticity.is_some();
        let resilience = resilience
            .or_else(|| self.elasticity.as_ref().map(|_| benign_resilience()))
            .or_else(|| self.faults.map(|fk| fk.to_config()));
        Ok(Resolved {
            spec: self,
            classes,
            platforms,
            schedulers,
            config: EngineConfig {
                noise_cv: self.noise_cv,
                link_contention: self.link_contention,
                data_caching: self.data_caching,
                resilience,
                elasticity: self.elasticity.clone(),
                step_budget: self.cell_step_budget,
                ..EngineConfig::default()
            },
            resilient,
        })
    }

    /// The full engine-level resilience configuration of the spec:
    /// failure model, recovery policy, interconnect faults and failure
    /// domains, validated as a whole. `None` without a `resilience`
    /// block.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] naming the offending parameter.
    pub fn resilience_config(&self) -> Result<Option<ResilienceConfig>, EngineError> {
        let Some(rk) = &self.resilience else {
            return Ok(None);
        };
        let mut config = rk.to_config();
        config.link_faults = self.interconnect_faults.clone();
        config.domains = self.failure_domains.clone();
        config.validate()?;
        Ok(Some(config))
    }

    /// Legal number of cells in a spec's grid. A grid's cells are
    /// allocated up front, so the product of its axes is capped.
    pub const CELLS: KnobRange<u128> = KnobRange::closed(1, 1_000_000);

    /// The number of cells the spec expands to; at most
    /// [`CELLS`](CampaignSpec::CELLS) once the spec validates.
    #[must_use]
    pub fn num_cells(&self) -> usize {
        usize::try_from(self.grid_size()).unwrap_or(usize::MAX)
    }

    /// The product of the grid's axes, saturating instead of wrapping.
    fn grid_size(&self) -> u128 {
        [
            self.families.len(),
            self.platforms.len(),
            self.schedulers.len(),
            self.seeds.count,
        ]
        .into_iter()
        .fold(1, |n, axis| n.saturating_mul(axis as u128))
    }

    /// Expands the grid into cells, in declaration order (family ×
    /// platform × scheduler × seed, seed innermost).
    ///
    /// # Errors
    ///
    /// Returns the refusal of [`validate`](CampaignSpec::validate): a
    /// spec that validates has at least one cell.
    pub fn expand(&self) -> Result<Vec<SweepCell>, EngineError> {
        Ok(self.resolve()?.cells())
    }

    /// A stable digest of the canonical spec JSON, used by the merge
    /// path to refuse mixing shards from different specs. Stored as a
    /// hex string (the JSON number space cannot carry 64 bits exactly).
    #[must_use]
    pub fn digest(&self) -> String {
        let canonical = serde_json::to_string(self).expect("spec serialization is infallible");
        format!("{:016x}", fnv1a(canonical.as_bytes()))
    }
}

/// A validated spec and what its checks built, shared by every cell of
/// one run. A cell finds its family, platform and scheduler from its
/// global index, so no cell resolves a name again.
pub(crate) struct Resolved<'a> {
    pub(crate) spec: &'a CampaignSpec,
    pub(crate) classes: Vec<WorkflowClass>,
    platforms: Vec<Platform>,
    /// Each spec scheduler's place in `helios_sched::all_schedulers`.
    schedulers: Vec<usize>,
    /// The cell config less its seed: noise, contention, caching, the
    /// fault stack (a `resilience` block, the benign stack of an elastic
    /// spec without one, or the `faults` knob), elasticity and the step
    /// budget.
    pub(crate) config: EngineConfig,
    /// Whether cells run through the resilient runner rather than the
    /// plain engine: a `resilience` or `elasticity` block.
    pub(crate) resilient: bool,
}

impl Resolved<'_> {
    /// The grid's cells, in declaration order (family × platform ×
    /// scheduler × seed, seed innermost).
    pub(crate) fn cells(&self) -> Vec<SweepCell> {
        let spec = self.spec;
        let mut cells = Vec::with_capacity(spec.num_cells());
        for family in &spec.families {
            for platform in &spec.platforms {
                for scheduler in &spec.schedulers {
                    for seed in spec.seeds.iter() {
                        cells.push(SweepCell {
                            index: cells.len(),
                            family: family.clone(),
                            platform: platform.clone(),
                            scheduler: scheduler.clone(),
                            seed,
                        });
                    }
                }
            }
        }
        cells
    }

    /// The family, platform and scheduler axis positions of `cell`,
    /// read off its global index.
    pub(crate) fn axes(&self, cell: &SweepCell) -> [usize; 3] {
        let (platforms, schedulers) = (self.platforms.len(), self.schedulers.len());
        let run = cell.index / self.spec.seeds.count;
        let (family, platform) = (run / schedulers / platforms, run / schedulers % platforms);
        [family, platform, run % schedulers]
    }

    /// The platform `cell` runs on.
    pub(crate) fn platform(&self, cell: &SweepCell) -> &Platform {
        &self.platforms[self.axes(cell)[1]]
    }

    /// Builds the scheduler of `cell`, honoring the spec's per-scheduler
    /// tuning overrides; schedulers without an override come from the
    /// default lineup, so a knob-free spec is byte-identical to one swept
    /// before the knobs existed.
    pub(crate) fn scheduler(&self, cell: &SweepCell) -> Box<dyn Scheduler> {
        let params = self.spec.scheduler_params.unwrap_or_default();
        match (
            cell.scheduler.as_str(),
            params.annealing_iterations,
            params.lookahead_depth,
        ) {
            ("annealing", Some(iterations), _) => Box::new(AnnealingScheduler::new(iterations, 0)),
            ("lookahead", _, Some(depth)) => Box::new(LookaheadScheduler::with_depth(depth)),
            _ => helios_sched::all_schedulers().swap_remove(self.schedulers[self.axes(cell)[2]]),
        }
    }
}

/// The resilience stack backing elastic cells of a spec without a
/// `resilience` block: an astronomical MTTF keeps the failure machinery
/// quiet, and flat retry with a generous budget recovers work lost to
/// departures.
fn benign_resilience() -> ResilienceConfig {
    ResilienceConfig::new(
        FailureModel::exponential(1e12),
        RecoveryPolicy::flat_retry(100),
    )
}

/// 64-bit FNV-1a over a byte string.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elastic::ElasticEventKind;

    fn minimal_json() -> String {
        r#"{
            "name": "t",
            "families": ["montage", "sipht"],
            "platforms": ["workstation"],
            "schedulers": ["heft", "min-min"],
            "seeds": {"base": 5, "count": 3}
        }"#
        .to_owned()
    }

    #[test]
    fn parses_with_defaults_and_expands_in_declaration_order() {
        let spec = CampaignSpec::from_json(&minimal_json()).unwrap();
        assert_eq!(spec.tasks, 50);
        assert_eq!(spec.noise_cv, 0.0);
        assert_eq!(spec.dvfs, DvfsKnob::Nominal);
        assert!(spec.faults.is_none());

        let cells = spec.expand().unwrap();
        assert_eq!(cells.len(), 2 * 2 * 3);
        assert_eq!(spec.num_cells(), cells.len());
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        // Seed is the innermost axis, family the outermost.
        assert_eq!(cells[0].seed, 5);
        assert_eq!(cells[1].seed, 6);
        assert_eq!(cells[3].scheduler, "min-min");
        assert_eq!(cells[6].family, "sipht");
    }

    #[test]
    fn malformed_json_is_a_config_error() {
        let err = CampaignSpec::from_json("{not json").unwrap_err();
        assert!(err.to_string().contains("malformed campaign spec"), "{err}");
        let err = CampaignSpec::from_json("{}").unwrap_err();
        assert!(err.to_string().contains("missing field"), "{err}");
    }

    #[test]
    fn empty_axes_and_unknown_names_are_hard_errors() {
        let checks = [
            (
                r#""families": ["montage", "sipht"]"#,
                r#""families": []"#,
                "families",
            ),
            (
                r#""platforms": ["workstation"]"#,
                r#""platforms": []"#,
                "platforms",
            ),
            (
                r#""schedulers": ["heft", "min-min"]"#,
                r#""schedulers": []"#,
                "schedulers",
            ),
            (
                r#""seeds": {"base": 5, "count": 3}"#,
                r#""seeds": {"base": 5, "count": 0}"#,
                "seeds.count",
            ),
            (
                r#""families": ["montage"#,
                r#""families": ["warptage"#,
                "unknown family",
            ),
            (
                r#""platforms": ["workstation"#,
                r#""platforms": ["laptop"#,
                "unknown platform",
            ),
            (
                r#""schedulers": ["heft"#,
                r#""schedulers": ["sjf"#,
                "unknown scheduler",
            ),
        ];
        for (from, to, needle) in checks {
            let json = minimal_json().replace(from, to);
            let err = CampaignSpec::from_json(&json).unwrap_err();
            assert!(err.to_string().contains(needle), "{needle}: {err}");
        }
    }

    #[test]
    fn dvfs_knob_roundtrips_lowercase() {
        for (knob, spelled) in [
            (DvfsKnob::Nominal, "nominal"),
            (DvfsKnob::Powersave, "powersave"),
            (DvfsKnob::Performance, "performance"),
        ] {
            let v = knob.to_value();
            assert_eq!(v.as_str(), Some(spelled));
            assert_eq!(DvfsKnob::from_value(&v).unwrap(), knob);
        }
        let err = DvfsKnob::from_value(&serde::Value::String("turbo".into())).unwrap_err();
        assert!(
            err.to_string().contains("nominal, powersave, performance"),
            "{err}"
        );
    }

    #[test]
    fn digest_is_stable_and_distinguishes_specs() {
        let a = CampaignSpec::from_json(&minimal_json()).unwrap();
        let b = CampaignSpec::from_json(&minimal_json()).unwrap();
        assert_eq!(a.digest(), b.digest());
        let c = CampaignSpec {
            noise_cv: 0.1,
            ..a.clone()
        };
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.digest().len(), 16);
    }

    fn resilience_json(policy: &str) -> String {
        minimal_json().trim_end().trim_end_matches('}').to_owned()
            + &format!(
                r#", "resilience": {{
                    "mttf_secs": 0.25,
                    "weibull_shape": 1.5,
                    "degraded_prob": 0.08,
                    "permanent_prob": 0.02,
                    "degraded_repair_secs": 0.05,
                    "restart_overhead_secs": 0.001,
                    "policy": {policy}
                }}}}"#
            )
    }

    #[test]
    fn resilience_knob_parses_every_policy_kind() {
        let policies = [
            r#"{"kind": "retry-backoff", "base_secs": 0.001, "factor": 2.0, "cap_secs": 0.01, "max_retries": 10}"#,
            r#"{"kind": "replicate-k", "replicas": 2}"#,
            r#"{"kind": "checkpoint-restart", "interval_secs": 0.005, "overhead_secs": 0.0002}"#,
            r#"{"kind": "reschedule", "scheduler": "heft", "overhead_secs": 0.001}"#,
        ];
        for policy in policies {
            let spec = CampaignSpec::from_json(&resilience_json(policy)).unwrap();
            let rk = spec.resilience.as_ref().expect("resilience block parsed");
            assert_eq!(rk.mttf_secs, 0.25);
            assert_eq!(rk.weibull_shape, Some(1.5));
            assert_eq!(rk.degraded_slowdown, 2.0, "defaulted");
            let cfg = rk.to_config();
            assert!(policy.contains(cfg.policy.name()), "{policy}");
            // And the knob round-trips through canonical JSON.
            let round = CampaignSpec::from_json(&serde_json::to_string(&spec).unwrap()).unwrap();
            assert_eq!(spec, round);
        }
        // max_retries defaults to 3 when omitted.
        let spec = CampaignSpec::from_json(&resilience_json(
            r#"{"kind": "replicate-k", "replicas": 2}"#,
        ))
        .unwrap();
        assert_eq!(
            spec.resilience.unwrap().policy,
            RecoveryPolicy::ReplicateK {
                replicas: 2,
                max_retries: 3
            }
        );
    }

    #[test]
    fn resilience_knob_rejects_bad_input() {
        let err = CampaignSpec::from_json(&resilience_json(r#"{"kind": "pray"}"#)).unwrap_err();
        assert!(
            err.to_string().contains("retry-backoff"),
            "error must name the legal policy kinds: {err}"
        );
        let err = CampaignSpec::from_json(&resilience_json(r#"{"base_secs": 1.0}"#)).unwrap_err();
        assert!(err.to_string().contains("kind"), "{err}");
        let err = CampaignSpec::from_json(&resilience_json(
            r#"{"kind": "replicate-k", "replicas": 1}"#,
        ))
        .unwrap_err();
        assert!(err.to_string().contains("replicas"), "{err}");

        // Legacy faults and resilience cannot be combined.
        let json = resilience_json(r#"{"kind": "replicate-k", "replicas": 2}"#)
            .trim_end()
            .trim_end_matches('}')
            .to_owned()
            + r#"}, "faults": {"mtbf_secs": 2.0}}"#;
        let err = CampaignSpec::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn resilience_knob_changes_the_digest() {
        let base = CampaignSpec::from_json(&minimal_json()).unwrap();
        let with = CampaignSpec::from_json(&resilience_json(
            r#"{"kind": "retry-backoff", "base_secs": 0.001, "factor": 2.0, "cap_secs": 0.01}"#,
        ))
        .unwrap();
        assert_ne!(base.digest(), with.digest());
        let tweaked = CampaignSpec::from_json(&resilience_json(
            r#"{"kind": "retry-backoff", "base_secs": 0.002, "factor": 2.0, "cap_secs": 0.01}"#,
        ))
        .unwrap();
        assert_ne!(
            with.digest(),
            tweaked.digest(),
            "policy parameters are part of the content digest"
        );
    }

    /// A spec with a resilience block plus arbitrary extra top-level
    /// JSON fields spliced in before the closing brace.
    fn faulty_json(extra: &str) -> String {
        resilience_json(
            r#"{"kind": "retry-backoff", "base_secs": 0.001, "factor": 2.0, "cap_secs": 0.01}"#,
        )
        .trim_end()
        .trim_end_matches('}')
        .to_owned()
            + &format!("}}, {extra}}}")
    }

    #[test]
    fn interconnect_fault_knob_parses_and_roundtrips() {
        let spec = CampaignSpec::from_json(&faulty_json(
            r#""interconnect_faults": {
                "distribution": "weibull",
                "shape": 1.4,
                "mttf_secs": 0.5,
                "degraded_prob": 0.3,
                "degraded_factor": 4.0,
                "outage_secs": 0.02
            }"#,
        ))
        .unwrap();
        let knob = spec.interconnect_faults.as_ref().expect("knob parsed");
        assert_eq!(knob.mttf_secs, 0.5);
        assert_eq!(knob.weibull_shape, Some(1.4));
        assert_eq!(knob.degraded_prob, 0.3);
        assert_eq!(knob.degraded_factor, 4.0);
        assert_eq!(knob.outage_secs, 0.02);
        assert_eq!(knob.degraded_repair_secs, 0.05, "defaulted");
        let round = CampaignSpec::from_json(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(spec, round);

        // Exponential variant: no shape, optional fields defaulted.
        let spec = CampaignSpec::from_json(&faulty_json(
            r#""interconnect_faults": {"distribution": "exponential", "mttf_secs": 2.0}"#,
        ))
        .unwrap();
        let knob = spec.interconnect_faults.as_ref().unwrap();
        assert_eq!(knob.weibull_shape, None);
        assert_eq!(knob.degraded_factor, 2.0, "defaulted");
        let round = CampaignSpec::from_json(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(spec, round);
        // And the knob lowers into a validating model.
        spec.resilience_config().unwrap().unwrap();
    }

    #[test]
    fn interconnect_fault_knob_rejects_bad_input() {
        let err = CampaignSpec::from_json(&faulty_json(
            r#""interconnect_faults": {"distribution": "gamma", "mttf_secs": 1.0}"#,
        ))
        .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("exponential") && msg.contains("weibull"),
            "error must name the legal distributions: {msg}"
        );
        let err =
            CampaignSpec::from_json(&faulty_json(r#""interconnect_faults": {"mttf_secs": 1.0}"#))
                .unwrap_err();
        assert!(err.to_string().contains("distribution"), "{err}");
        let err = CampaignSpec::from_json(&faulty_json(
            r#""interconnect_faults": {"distribution": "weibull", "mttf_secs": 1.0}"#,
        ))
        .unwrap_err();
        assert!(err.to_string().contains("shape"), "{err}");
    }

    #[test]
    fn failure_domains_parse_and_resolve_against_every_platform() {
        let spec = CampaignSpec::from_json(&faulty_json(
            r#""failure_domains": [
                {"kind": "rack", "name": "r0",
                 "devices": ["cpu0", "gpu0"], "links": ["pcie3-x16"],
                 "mttf_secs": 0.5, "degraded_prob": 0.2, "outage_secs": 0.01},
                {"kind": "psu", "name": "p0",
                 "devices": ["cpu1"], "mttf_secs": 3.0, "permanent_prob": 1.0}
            ]"#,
        ))
        .unwrap();
        assert_eq!(spec.failure_domains.len(), 2);
        assert_eq!(spec.failure_domains[0].links, vec!["pcie3-x16"]);
        let round = CampaignSpec::from_json(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(spec, round);
        let config = spec.resilience_config().unwrap().unwrap();
        assert_eq!(config.domains.len(), 2);
    }

    #[test]
    fn failure_domain_validation_catches_user_errors() {
        // Unknown member device: names the platform's real devices.
        let err = CampaignSpec::from_json(&faulty_json(
            r#""failure_domains": [{"kind": "rack", "name": "r0",
                "devices": ["xpu9"], "mttf_secs": 1.0, "degraded_prob": 1.0}]"#,
        ))
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("xpu9") && msg.contains("cpu0"), "{msg}");

        // Unknown member link: names the platform's real links.
        let err = CampaignSpec::from_json(&faulty_json(
            r#""failure_domains": [{"kind": "rack", "name": "r0",
                "links": ["infiniband"], "mttf_secs": 1.0, "degraded_prob": 1.0}]"#,
        ))
        .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("infiniband") && msg.contains("pcie3-x16"),
            "{msg}"
        );

        // Unknown domain kind: names the legal kinds.
        let err = CampaignSpec::from_json(&faulty_json(
            r#""failure_domains": [{"kind": "blast-radius", "name": "r0",
                "devices": ["cpu0"], "mttf_secs": 1.0, "degraded_prob": 1.0}]"#,
        ))
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("rack") && msg.contains("psu"), "{msg}");

        // Duplicate domain names collide in the metrics rollup.
        let err = CampaignSpec::from_json(&faulty_json(
            r#""failure_domains": [
                {"kind": "rack", "name": "r0", "devices": ["cpu0"],
                 "mttf_secs": 1.0, "degraded_prob": 1.0},
                {"kind": "rack", "name": "r0", "devices": ["cpu1"],
                 "mttf_secs": 1.0, "degraded_prob": 1.0}
            ]"#,
        ))
        .unwrap_err();
        assert!(err.to_string().contains("r0"), "{err}");
    }

    #[test]
    fn fault_topology_blocks_require_a_resilience_block() {
        for block in [
            r#""interconnect_faults": {"distribution": "exponential", "mttf_secs": 1.0}"#,
            r#""failure_domains": [{"kind": "rack", "name": "r0",
                "devices": ["cpu0"], "mttf_secs": 1.0, "degraded_prob": 1.0}]"#,
        ] {
            let json = minimal_json().trim_end().trim_end_matches('}').to_owned()
                + &format!(", {block}}}");
            let err = CampaignSpec::from_json(&json).unwrap_err();
            assert!(err.to_string().contains("resilience"), "{block}: {err}");
        }
    }

    #[test]
    fn fault_topology_blocks_change_the_digest() {
        let base = CampaignSpec::from_json(&faulty_json(r#""tasks": 50"#)).unwrap();
        let with_links = CampaignSpec::from_json(&faulty_json(
            r#""interconnect_faults": {"distribution": "exponential", "mttf_secs": 1.0}"#,
        ))
        .unwrap();
        let with_domains = CampaignSpec::from_json(&faulty_json(
            r#""failure_domains": [{"kind": "rack", "name": "r0",
                "devices": ["cpu0"], "mttf_secs": 1.0, "degraded_prob": 1.0}]"#,
        ))
        .unwrap();
        let with_budget =
            CampaignSpec::from_json(&faulty_json(r#""cell_step_budget": 100000"#)).unwrap();
        let digests = [
            base.digest(),
            with_links.digest(),
            with_domains.digest(),
            with_budget.digest(),
        ];
        for i in 0..digests.len() {
            for j in i + 1..digests.len() {
                assert_ne!(digests[i], digests[j], "digest {i} vs {j}");
            }
        }
        // Tweaking a fault parameter moves the digest too.
        let tweaked = CampaignSpec::from_json(&faulty_json(
            r#""interconnect_faults": {"distribution": "exponential", "mttf_secs": 2.0}"#,
        ))
        .unwrap();
        assert_ne!(with_links.digest(), tweaked.digest());
    }

    #[test]
    fn tasks_clusters_and_grids_outside_their_ranges_are_refused() {
        let invalid = |from: &str, to: &str| {
            let json = minimal_json().replace(from, to);
            match CampaignSpec::from_json(&json).unwrap_err() {
                EngineError::Campaign(CampaignError::InvalidSpec { detail, .. }) => detail,
                other => panic!("{to}: not an InvalidSpec: {other}"),
            }
        };
        let detail = invalid(r#""workstation""#, r#""cluster100000""#);
        assert!(detail.contains("`platforms`"), "{detail}");
        let detail = invalid(r#""count": 3"#, r#""count": 1000000000000"#);
        assert!(
            detail.contains("seeds.count` must be in [1, 1000000], got 4000000000000"),
            "{detail}"
        );
        // 2 families × 1 × 2 schedulers × 2^62 seeds = 2^64 cells: a
        // wrapping product would read 0.
        let detail = invalid(r#""count": 3"#, r#""count": 4611686018427387904"#);
        assert!(detail.contains("got 18446744073709551616"), "{detail}");
        // montage accepts 12 tasks, sipht does not.
        let detail = invalid(r#""count": 3}"#, r#""count": 3}, "tasks": 12"#);
        assert_eq!(detail, "sipht: `tasks` must be in [14, 100000], got 12");
        // A task count no generator can allocate is refused up front.
        let detail = invalid(r#""count": 3}"#, r#""count": 3}, "tasks": 1000000000000"#);
        assert_eq!(
            detail,
            "montage: `tasks` must be in [11, 100000], got 1000000000000"
        );
    }

    #[test]
    fn zero_cell_step_budget_is_rejected() {
        let err = CampaignSpec::from_json(&faulty_json(r#""cell_step_budget": 0"#)).unwrap_err();
        assert!(err.to_string().contains("cell_step_budget"), "{err}");
        let spec = CampaignSpec::from_json(&faulty_json(r#""cell_step_budget": 7"#)).unwrap();
        assert_eq!(spec.cell_step_budget, Some(7));
    }

    #[test]
    fn scheduler_params_parse_roundtrip_and_stay_out_of_knobfree_json() {
        // Knob-free spec: no scheduler_params key in the canonical JSON,
        // so pre-existing digests are untouched by the field's existence.
        let spec = CampaignSpec::from_json(&minimal_json()).unwrap();
        assert!(spec.scheduler_params.is_none());
        let canonical = serde_json::to_string(&spec).unwrap();
        assert!(
            !canonical.contains("scheduler_params"),
            "absent knob must be omitted, not serialized as null: {canonical}"
        );

        let json = minimal_json().trim_end().trim_end_matches('}').to_owned()
            + r#", "scheduler_params": {"annealing_iterations": 50, "lookahead_depth": 2}}"#;
        let spec = CampaignSpec::from_json(&json).unwrap();
        let params = spec.scheduler_params.expect("params parsed");
        assert_eq!(params.annealing_iterations, Some(50));
        assert_eq!(params.lookahead_depth, Some(2));
        let round = CampaignSpec::from_json(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(spec, round);

        // Partial knob: unset keys stay unset through the round trip.
        let json = minimal_json().trim_end().trim_end_matches('}').to_owned()
            + r#", "scheduler_params": {"lookahead_depth": 3}}"#;
        let spec = CampaignSpec::from_json(&json).unwrap();
        let params = spec.scheduler_params.unwrap();
        assert_eq!(params.annealing_iterations, None);
        assert_eq!(params.lookahead_depth, Some(3));
    }

    #[test]
    fn scheduler_params_reject_bad_input_naming_legal_keys() {
        let with = |body: &str| {
            minimal_json().trim_end().trim_end_matches('}').to_owned()
                + &format!(r#", "scheduler_params": {body}}}"#)
        };
        // Unknown key: the error names every legal key.
        let err = CampaignSpec::from_json(&with(r#"{"annealing_temp": 3}"#)).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("annealing_iterations") && msg.contains("lookahead_depth"),
            "error must name the legal keys: {msg}"
        );
        // Non-integer and zero values are rejected.
        let err = CampaignSpec::from_json(&with(r#"{"lookahead_depth": "deep"}"#)).unwrap_err();
        assert!(err.to_string().contains("lookahead_depth"), "{err}");
        let err = CampaignSpec::from_json(&with(r#"{"annealing_iterations": 0}"#)).unwrap_err();
        assert!(err.to_string().contains("annealing_iterations"), "{err}");
        // Non-object knob.
        let err = CampaignSpec::from_json(&with("7")).unwrap_err();
        assert!(err.to_string().contains("legal keys"), "{err}");
    }

    #[test]
    fn scheduler_params_change_the_digest() {
        let base = CampaignSpec::from_json(&minimal_json()).unwrap();
        let with = |body: &str| {
            CampaignSpec::from_json(
                &(minimal_json().trim_end().trim_end_matches('}').to_owned()
                    + &format!(r#", "scheduler_params": {body}}}"#)),
            )
            .unwrap()
        };
        let iters = with(r#"{"annealing_iterations": 100}"#);
        let more_iters = with(r#"{"annealing_iterations": 200}"#);
        let depth = with(r#"{"lookahead_depth": 2}"#);
        let digests = [
            base.digest(),
            iters.digest(),
            more_iters.digest(),
            depth.digest(),
        ];
        for i in 0..digests.len() {
            for j in i + 1..digests.len() {
                assert_ne!(digests[i], digests[j], "digest {i} vs {j}");
            }
        }
    }

    /// A spec with an elasticity block spliced in before the closing
    /// brace.
    fn elastic_json(body: &str) -> String {
        minimal_json().trim_end().trim_end_matches('}').to_owned()
            + &format!(r#", "elasticity": {body}}}"#)
    }

    #[test]
    fn elasticity_parses_roundtrips_and_stays_out_of_knobfree_json() {
        // Knob-free spec: no elasticity key in the canonical JSON, so
        // pre-existing digests are untouched by the field's existence.
        let spec = CampaignSpec::from_json(&minimal_json()).unwrap();
        assert!(spec.elasticity.is_none());
        let canonical = serde_json::to_string(&spec).unwrap();
        assert!(
            !canonical.contains("elasticity"),
            "absent knob must be omitted, not serialized as null: {canonical}"
        );

        let spec = CampaignSpec::from_json(&elastic_json(
            r#"{"events": [
                {"kind": "join", "device": "gpu0", "at_secs": 0.5},
                {"kind": "drain", "device": "cpu0", "at_secs": 0.2, "deadline_secs": 0.4},
                {"kind": "preempt", "device": "cpu1", "at_secs": 0.1, "notice_secs": 0.05},
                {"kind": "leave", "device": "gpu0", "at_secs": 2.0}
            ],
            "churn": [
                {"device": "cpu1", "mtbp_secs": 0.5, "weibull_shape": 1.4,
                 "notice_secs": 0.02, "rejoin_secs": 0.2}
            ]}"#,
        ))
        .unwrap();
        let el = spec.elasticity.as_ref().expect("elasticity parsed");
        assert_eq!(el.events.len(), 4);
        assert_eq!(el.events[0].kind, ElasticEventKind::Join);
        assert_eq!(
            el.events[1].kind,
            ElasticEventKind::Drain { deadline_secs: 0.4 }
        );
        assert_eq!(
            el.events[2].kind,
            ElasticEventKind::Preempt { notice_secs: 0.05 }
        );
        assert_eq!(el.churn[0].weibull_shape, Some(1.4));
        let round = CampaignSpec::from_json(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(spec, round);
        // And the knob lowers into the cells' engine config.
        let resolved = spec.resolve().unwrap();
        assert_eq!(
            resolved.config.elasticity.as_ref(),
            spec.elasticity.as_ref()
        );
        assert!(resolved.resilient, "elastic cells run the resilient runner");

        // Churn-only block, exponential (no shape).
        let spec = CampaignSpec::from_json(&elastic_json(
            r#"{"churn": [{"device": "gpu0", "mtbp_secs": 1.0,
                           "notice_secs": 0.01, "rejoin_secs": 0.5}]}"#,
        ))
        .unwrap();
        assert_eq!(
            spec.elasticity.as_ref().unwrap().churn[0].weibull_shape,
            None
        );
        let round = CampaignSpec::from_json(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(spec, round);
    }

    #[test]
    fn elasticity_rejects_bad_input_naming_legal_values() {
        // Unknown kind: the error names every legal kind tag.
        let err = CampaignSpec::from_json(&elastic_json(
            r#"{"events": [{"kind": "vanish", "device": "cpu0", "at_secs": 1.0}]}"#,
        ))
        .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("join") && msg.contains("drain") && msg.contains("preempt"),
            "error must name the legal kinds: {msg}"
        );
        // Missing kind tag and missing required fields are typed errors.
        let err = CampaignSpec::from_json(&elastic_json(
            r#"{"events": [{"device": "cpu0", "at_secs": 1.0}]}"#,
        ))
        .unwrap_err();
        assert!(err.to_string().contains("kind"), "{err}");
        let err = CampaignSpec::from_json(&elastic_json(
            r#"{"events": [{"kind": "drain", "device": "cpu0", "at_secs": 1.0}]}"#,
        ))
        .unwrap_err();
        assert!(err.to_string().contains("deadline_secs"), "{err}");
        let err = CampaignSpec::from_json(&elastic_json(
            r#"{"events": [{"kind": "join", "device": "cpu0"}]}"#,
        ))
        .unwrap_err();
        assert!(err.to_string().contains("at_secs"), "{err}");
        // Engine-level parameter validation is surfaced as InvalidSpec:
        // negative times, zero notice, drain deadline at/before notice.
        let err = CampaignSpec::from_json(&elastic_json(
            r#"{"events": [{"kind": "join", "device": "cpu0", "at_secs": -1.0}]}"#,
        ))
        .unwrap_err();
        assert!(err.to_string().contains("at_secs"), "{err}");
        let err = CampaignSpec::from_json(&elastic_json(
            r#"{"events": [{"kind": "preempt", "device": "cpu0",
                            "at_secs": 1.0, "notice_secs": 0.0}]}"#,
        ))
        .unwrap_err();
        assert!(err.to_string().contains("notice_secs"), "{err}");
        let err = CampaignSpec::from_json(&elastic_json(
            r#"{"events": [{"kind": "drain", "device": "cpu0",
                            "at_secs": 1.0, "deadline_secs": 1.0}]}"#,
        ))
        .unwrap_err();
        assert!(err.to_string().contains("deadline_secs"), "{err}");
        // An empty block is rejected — it would silently change nothing.
        let err = CampaignSpec::from_json(&elastic_json(r#"{"events": []}"#)).unwrap_err();
        assert!(err.to_string().contains("at least one"), "{err}");
        // Unknown device: the error names the platform's real devices.
        let err = CampaignSpec::from_json(&elastic_json(
            r#"{"events": [{"kind": "join", "device": "xpu9", "at_secs": 1.0}]}"#,
        ))
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("xpu9") && msg.contains("cpu0"), "{msg}");
        let err = CampaignSpec::from_json(&elastic_json(
            r#"{"churn": [{"device": "xpu9", "mtbp_secs": 1.0,
                           "notice_secs": 0.01, "rejoin_secs": 0.5}]}"#,
        ))
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("xpu9") && msg.contains("cpu0"), "{msg}");
        // Legacy faults and elasticity cannot be combined.
        let json =
            elastic_json(r#"{"events": [{"kind": "join", "device": "gpu0", "at_secs": 1.0}]}"#)
                .trim_end()
                .trim_end_matches('}')
                .to_owned()
                + r#"}, "faults": {"mtbf_secs": 2.0}}"#;
        let err = CampaignSpec::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn elasticity_changes_the_digest() {
        let base = CampaignSpec::from_json(&minimal_json()).unwrap();
        let with = CampaignSpec::from_json(&elastic_json(
            r#"{"events": [{"kind": "preempt", "device": "gpu0",
                            "at_secs": 0.2, "notice_secs": 0.05}]}"#,
        ))
        .unwrap();
        assert_ne!(base.digest(), with.digest());
        let tweaked = CampaignSpec::from_json(&elastic_json(
            r#"{"events": [{"kind": "preempt", "device": "gpu0",
                            "at_secs": 0.3, "notice_secs": 0.05}]}"#,
        ))
        .unwrap();
        assert_ne!(
            with.digest(),
            tweaked.digest(),
            "event parameters are part of the content digest"
        );
        let churned = CampaignSpec::from_json(&elastic_json(
            r#"{"churn": [{"device": "gpu0", "mtbp_secs": 1.0,
                           "notice_secs": 0.01, "rejoin_secs": 0.5}]}"#,
        ))
        .unwrap();
        assert_ne!(with.digest(), churned.digest());
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let json = minimal_json().trim_end().trim_end_matches('}').to_owned()
            + r#", "tasks": 30, "noise_cv": 0.1, "dvfs": "powersave",
                  "faults": {"mtbf_secs": 2.0, "max_retries": 4}}"#;
        let spec = CampaignSpec::from_json(&json).unwrap();
        let round = CampaignSpec::from_json(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(spec, round);
        assert_eq!(round.dvfs, DvfsKnob::Powersave);
        assert_eq!(round.faults.unwrap().max_retries, 4);
    }
}
