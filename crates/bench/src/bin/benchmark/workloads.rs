//! The four workloads and the inputs each generates from the seed.
//!
//! The seed is the only input: it sets `seeds.base` of each generated
//! sweep spec and seeds the synthetic store rows and query literals. The
//! program under test sees only the generated spec text, rows and query
//! strings.

use std::path::Path;

use helios_core::store::schema_names;
use helios_core::{CellResult, EngineError, StoreHeader, StoreWriter};

/// A named traffic mix; see `README.md` for why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperGrid,
    ResilientExec,
    DurableSweep,
    StoreQuery,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::ResilientExec,
        Workload::DurableSweep,
        Workload::StoreQuery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::ResilientExec => "resilient_exec",
            Workload::DurableSweep => "durable_sweep",
            Workload::StoreQuery => "store_query",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The FNV-1a digest of the checked output for `--seed 0` (full
    /// size): the merged sweep report JSON, or the `Debug` text of every
    /// query output of one store pass.
    pub fn seed0_digest(self) -> &'static str {
        match self {
            Workload::PaperGrid => "af075e88aa084325",
            Workload::ResilientExec => "a4797ef868b12868",
            Workload::DurableSweep => "1ba1061d1c5129a4",
            Workload::StoreQuery => "436506194912fb3d",
        }
    }
}

/// A sweep workload: a spec run as `shards` sequential shard jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepInput {
    pub spec_json: String,
    pub shards: usize,
    /// Whether every shard job runs through the write-ahead journal.
    pub journaled: bool,
}

/// The store workload: rows split over `shards` store segments, and the
/// queries one pass runs over the merged cells.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreInput {
    pub rows: Vec<CellResult>,
    pub shards: usize,
    pub queries: Vec<String>,
}

/// Queries a store pass runs between two reads of the segments.
pub const QUERIES_PER_READ: usize = 10;

impl StoreInput {
    /// Writes segment `k` (1-based; rows strided over the segments) to
    /// `path`.
    pub fn write_segment(&self, k: usize, path: &Path) -> Result<(), EngineError> {
        let header = StoreHeader {
            spec_name: "bench-store-query".into(),
            spec_digest: "synthetic".into(),
            total_cells: self.rows.len(),
            shard_index: k,
            shard_count: self.shards,
            columns: schema_names(),
        };
        let mut writer = StoreWriter::create(path, &header)?;
        for row in self.rows.iter().skip(k - 1).step_by(self.shards) {
            writer.append_cell(row)?;
        }
        writer.flush()
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    Sweep(SweepInput),
    Store(StoreInput),
}

const FAMILIES: [&str; 5] = ["montage", "cybershake", "epigenomics", "ligo", "sipht"];
const PLATFORMS: [&str; 4] = ["workstation", "hpc_node", "cluster4", "edge_soc"];

/// Generates the input of `workload` for `seed`; `smoke` shrinks every
/// dimension so a whole run takes well under a second.
pub fn input(workload: Workload, seed: u64, smoke: bool) -> Input {
    let quoted = |names: &[&str]| {
        names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    match workload {
        // The paper's figure-F3 grid (examples/specs/paper_grid.json):
        // 5 families × 4 platforms × 12 schedulers × 5 seeds of 100 tasks.
        // Shards stride over cell indices, and each family × platform
        // block holds 60 cells (12 schedulers × 5 seeds). A stride of 35
        // visits all 12 schedulers, so shard jobs cost about the same; a
        // stride of 40 would put every annealing cell in a quarter of
        // the shards.
        Workload::PaperGrid => {
            let (families, platforms, seeds, tasks, shards) = if smoke {
                (&FAMILIES[..2], &PLATFORMS[..1], 1, 20, 4)
            } else {
                (&FAMILIES[..], &PLATFORMS[..], 5, 100, 35)
            };
            Input::Sweep(SweepInput {
                spec_json: format!(
                    r#"{{
  "name": "bench-paper-grid",
  "families": [{}],
  "platforms": [{}],
  "schedulers": [{}],
  "seeds": {{"base": {seed}, "count": {seeds}}},
  "tasks": {tasks},
  "noise_cv": 0.1,
  "link_contention": true,
  "data_caching": true
}}"#,
                    quoted(families),
                    quoted(platforms),
                    quoted(&crate::replay::SCHEDULERS),
                ),
                shards,
                journaled: false,
            })
        }
        // Large workflows under a harsh failure model: the exec core and
        // the resilient runner dominate, and powersave DVFS rewrites
        // every placement.
        Workload::ResilientExec => {
            let (families, seeds, tasks, shards) = if smoke {
                (&["montage", "sipht"][..], 1, 60, 4)
            } else {
                (
                    &["montage", "ligo", "epigenomics", "sipht"][..],
                    4,
                    2000,
                    48,
                )
            };
            Input::Sweep(SweepInput {
                spec_json: format!(
                    r#"{{
  "name": "bench-resilient-exec",
  "families": [{}],
  "platforms": ["workstation", "hpc_node"],
  "schedulers": ["heft", "round-robin", "olb"],
  "seeds": {{"base": {seed}, "count": {seeds}}},
  "tasks": {tasks},
  "noise_cv": 0.1,
  "link_contention": true,
  "data_caching": true,
  "dvfs": "powersave",
  "resilience": {{
    "mttf_secs": 0.02,
    "degraded_prob": 0.1,
    "policy": {{
      "kind": "checkpoint-restart",
      "interval_secs": 0.01,
      "overhead_secs": 0.0002,
      "max_retries": 1000
    }}
  }}
}}"#,
                    quoted(families),
                ),
                shards,
                journaled: false,
            })
        }
        // Many tiny cells through the journal: two fsync'd appends per
        // cell cost more than the cell itself.
        Workload::DurableSweep => {
            let (seeds, shards) = if smoke { (2, 2) } else { (250, 50) };
            Input::Sweep(SweepInput {
                spec_json: format!(
                    r#"{{
  "name": "bench-durable-sweep",
  "families": [{}],
  "platforms": ["workstation", "hpc_node"],
  "schedulers": ["heft", "mct", "olb", "round-robin"],
  "seeds": {{"base": {seed}, "count": {seeds}}},
  "tasks": 20,
  "noise_cv": 0.1
}}"#,
                    quoted(&FAMILIES),
                ),
                shards,
                journaled: true,
            })
        }
        Workload::StoreQuery => {
            let (rows, queries) = if smoke { (2_000, 8) } else { (50_000, 40) };
            let mut rng = SplitMix64(seed);
            Input::Store(StoreInput {
                rows: (0..rows).map(|i| synthetic_row(&mut rng, i)).collect(),
                shards: 4,
                queries: (0..queries).map(|i| query(&mut rng, i)).collect(),
            })
        }
    }
}

/// SplitMix64: a tiny seeded generator owned by the benchmark, so the
/// inputs never move with the simulator's own RNG.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, names: &[&'a str]) -> &'a str {
        names[self.below(names.len())]
    }
}

const INCOMPLETE: [&str; 4] = [
    "retries_exhausted",
    "all_devices_lost",
    "timed_out",
    "infeasible",
];

/// One plausible sweep result: grid coordinates, about one cell in eight
/// incomplete (zero metrics and a reason), resilience columns populated.
fn synthetic_row(rng: &mut SplitMix64, cell: usize) -> CellResult {
    let completed = rng.unit() >= 0.125;
    let metric = |rng: &mut SplitMix64, lo: f64, hi: f64| {
        if completed {
            lo + (hi - lo) * rng.unit()
        } else {
            0.0
        }
    };
    let makespan_secs = metric(rng, 5.0, 900.0);
    let failures = rng.below(40) as u32;
    CellResult {
        cell,
        family: rng.pick(&FAMILIES).to_owned(),
        platform: rng.pick(&PLATFORMS).to_owned(),
        scheduler: rng.pick(&crate::replay::SCHEDULERS).to_owned(),
        seed: rng.below(64) as u64,
        makespan_secs,
        slr: metric(rng, 1.0, 6.0),
        energy_j: makespan_secs * (40.0 + 400.0 * rng.unit()),
        transfers: rng.below(400),
        transfer_bytes: 1e6 * rng.below(4000) as f64,
        failures,
        retries: failures + rng.below(3) as u32,
        completed,
        wasted_work_secs: metric(rng, 0.0, 30.0),
        recovery_overhead_secs: metric(rng, 0.0, 5.0),
        makespan_degradation: metric(rng, 0.0, 0.8),
        reroutes: rng.below(5) as u32,
        partition_downtime_secs: metric(rng, 0.0, 2.0),
        rematerialized_tasks: rng.below(6) as u32,
        rematerialized_bytes: 1e5 * rng.below(100) as f64,
        incomplete_reason: (!completed).then(|| rng.pick(&INCOMPLETE).to_owned()),
        capacity_secs: 0.0,
        preemptions: 0,
        drain_migrated_tasks: 0,
        join_utilization: 0.0,
    }
}

/// Query `i` of a pass: the eight templates in turn, with seeded
/// literals. Cycling keeps the template mix the same on every seed.
fn query(rng: &mut SplitMix64, i: usize) -> String {
    let family = rng.pick(&FAMILIES);
    let platform = rng.pick(&PLATFORMS);
    let scheduler = rng.pick(&crate::replay::SCHEDULERS);
    let threshold = (100.0 + 700.0 * rng.unit()).round();
    match i % 8 {
        0 => "SELECT family, scheduler, avg_completed(makespan_secs) AS makespan, \
              frac(completed) AS ok GROUP BY family, scheduler"
            .to_owned(),
        1 => format!("SELECT count(*) WHERE completed = false AND platform = '{platform}'"),
        2 => format!(
            "SELECT platform, avg(energy_j), max(makespan_secs) \
             WHERE makespan_secs > {threshold} GROUP BY platform"
        ),
        3 => format!(
            "SELECT scheduler, min(slr), avg(slr) WHERE family = '{family}' GROUP BY scheduler"
        ),
        4 => format!(
            "SELECT cell, makespan_secs, energy_j \
             WHERE scheduler = '{scheduler}' AND makespan_secs > {threshold}"
        ),
        5 => format!(
            "SELECT sum(transfer_bytes), sum(failures), avg(retries) \
             WHERE scheduler = '{scheduler}'"
        ),
        6 => "SELECT family, platform, scheduler, count(*), avg_completed(slr) \
              GROUP BY family, platform, scheduler"
            .to_owned(),
        _ => "SELECT incomplete_reason, count(*) WHERE completed = false \
              GROUP BY incomplete_reason"
            .to_owned(),
    }
}

/// 64-bit FNV-1a, hex: the digest pinned by [`Workload::seed0_digest`].
pub fn digest(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_core::store::parse_query;
    use helios_core::CampaignSpec;

    #[test]
    fn inputs_are_deterministic_per_seed() {
        for w in Workload::ALL {
            for smoke in [true, false] {
                if w == Workload::StoreQuery && !smoke {
                    continue; // 100k rows: the smoke size proves the point.
                }
                assert_eq!(input(w, 7, smoke), input(w, 7, smoke), "{}", w.name());
                assert_ne!(input(w, 7, smoke), input(w, 8, smoke), "{}", w.name());
            }
        }
    }

    #[test]
    fn generated_specs_and_queries_validate() {
        for w in Workload::ALL {
            for smoke in [true, false] {
                match input(w, 3, smoke) {
                    Input::Sweep(s) => {
                        let spec = CampaignSpec::from_json(&s.spec_json)
                            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                        assert_eq!(spec.seeds.base, 3);
                        let cells = spec.num_cells();
                        assert!(s.shards <= cells, "{}: empty shards", w.name());
                    }
                    Input::Store(s) if smoke => {
                        for q in &s.queries {
                            parse_query(q).unwrap_or_else(|e| panic!("{q}: {e}"));
                        }
                        assert!(s.rows.iter().enumerate().all(|(i, r)| r.cell == i));
                        assert!(s.rows.iter().any(|r| !r.completed));
                    }
                    Input::Store(_) => {}
                }
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::by_name(w.name()), Some(w));
        }
        assert_eq!(Workload::by_name("nope"), None);
    }
}
