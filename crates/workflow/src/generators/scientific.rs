//! The five classic scientific discovery workflows.
//!
//! Structures and stage ratios follow the Pegasus workflow
//! characterizations (Juve et al., "Characterizing and profiling
//! scientific workflows", FGCS 2013); magnitudes are expressed as GFLOP
//! and bytes so the platform models can place them. Each generator takes
//! an *approximate* total task count `n` and a `seed`, and documents how
//! `n` maps onto its width parameter.

use helios_platform::KernelClass;
use helios_sim::{KnobRange, SimRng};

use crate::dag::{Workflow, WorkflowBuilder};
use crate::error::WorkflowError;
use crate::task::TaskId;

use super::{unify_product_sizes, StageSpec};

const MB: f64 = 1e6;

fn spec(
    name: &'static str,
    class: KernelClass,
    gflop: f64,
    bytes_touched: f64,
    out_bytes: f64,
) -> StageSpec {
    StageSpec {
        name,
        class,
        gflop,
        bytes_touched,
        out_bytes,
    }
}

/// The named workflow families, for sweeps over the whole suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkflowClass {
    /// Astronomy image mosaicking (wide data-parallel stages).
    Montage,
    /// Seismic hazard simulation (two huge inputs fan out to many pairs).
    CyberShake,
    /// Genome sequence processing (parallel deep pipelines).
    Epigenomics,
    /// Gravitational-wave matched filtering (grouped FFT pipelines).
    LigoInspiral,
    /// sRNA annotation (wide independent search feeding an aggregation).
    Sipht,
}

/// The largest task count any family generates: 50 times the largest
/// workflow in use (the 2000-task resilient benchmark cells), so a spec
/// asking for a workflow that cannot fit in memory is refused before a
/// generator allocates for it.
pub const MAX_TASKS: usize = 100_000;

impl WorkflowClass {
    /// All five families.
    pub const ALL: [WorkflowClass; 5] = [
        WorkflowClass::Montage,
        WorkflowClass::CyberShake,
        WorkflowClass::Epigenomics,
        WorkflowClass::LigoInspiral,
        WorkflowClass::Sipht,
    ];

    /// Short stable identifier.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            WorkflowClass::Montage => "montage",
            WorkflowClass::CyberShake => "cybershake",
            WorkflowClass::Epigenomics => "epigenomics",
            WorkflowClass::LigoInspiral => "ligo",
            WorkflowClass::Sipht => "sipht",
        }
    }

    /// The smallest task count the family's generator accepts.
    #[must_use]
    pub const fn min_tasks(self) -> usize {
        match self {
            WorkflowClass::Montage => 11,
            WorkflowClass::CyberShake => 8,
            WorkflowClass::Epigenomics => 15,
            WorkflowClass::LigoInspiral => 12,
            WorkflowClass::Sipht => 14,
        }
    }

    /// The task counts the family's generator accepts:
    /// [`min_tasks`](WorkflowClass::min_tasks) up to [`MAX_TASKS`].
    #[must_use]
    pub const fn tasks_range(self) -> KnobRange<usize> {
        KnobRange::closed(self.min_tasks(), MAX_TASKS)
    }

    /// Checks a requested task count against
    /// [`tasks_range`](WorkflowClass::tasks_range).
    ///
    /// # Errors
    ///
    /// Returns the refusal message naming the family and `tasks`, e.g.
    /// "epigenomics: `tasks` must be in [15, 100000], got 5".
    pub fn check_tasks(self, n: usize) -> Result<(), String> {
        self.tasks_range()
            .check("tasks", n)
            .map_err(|e| format!("{self}: {e}"))
    }

    /// The family names in [`ALL`](WorkflowClass::ALL) order, comma
    /// separated, for refusal messages.
    #[must_use]
    pub fn names() -> String {
        WorkflowClass::ALL.map(WorkflowClass::as_str).join(", ")
    }

    /// Generates an instance with approximately `n` tasks.
    ///
    /// # Errors
    ///
    /// Returns [`WorkflowError::InvalidParameter`] if `n` is outside
    /// [`tasks_range`](WorkflowClass::tasks_range).
    pub fn generate(self, n: usize, seed: u64) -> Result<Workflow, WorkflowError> {
        match self {
            WorkflowClass::Montage => montage(n, seed),
            WorkflowClass::CyberShake => cybershake(n, seed),
            WorkflowClass::Epigenomics => epigenomics(n, seed),
            WorkflowClass::LigoInspiral => ligo_inspiral(n, seed),
            WorkflowClass::Sipht => sipht(n, seed),
        }
    }
}

/// [`WorkflowClass::check_tasks`] as a generator error.
fn require_tasks(class: WorkflowClass, n: usize) -> Result<(), WorkflowError> {
    class
        .check_tasks(n)
        .map_err(WorkflowError::InvalidParameter)
}

impl std::fmt::Display for WorkflowClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Montage astronomy mosaic with approximately `n` tasks.
///
/// Structure (width `w = (n - 5) / 3`): `w` × mProject → `w−1` × mDiffFit
/// → mConcatFit → mBgModel → `w` × mBackground → mImgtbl → mAdd →
/// mShrink → mJPEG.
///
/// # Errors
///
/// Returns [`WorkflowError::InvalidParameter`] if `n` is outside
/// [`WorkflowClass::tasks_range`].
pub fn montage(n: usize, seed: u64) -> Result<Workflow, WorkflowError> {
    require_tasks(WorkflowClass::Montage, n)?;
    let w = (n - 5) / 3;
    let mut rng = SimRng::seed_from(seed);
    let mut b = WorkflowBuilder::new(format!("montage-{n}"));

    let s_project = spec("mProject", KernelClass::Stencil, 12.0, 200.0 * MB, 8.0 * MB);
    let s_diff = spec("mDiffFit", KernelClass::Reduction, 2.0, 40.0 * MB, 0.5 * MB);
    let s_concat = spec(
        "mConcatFit",
        KernelClass::Reduction,
        1.0,
        10.0 * MB,
        0.2 * MB,
    );
    let s_bg_model = spec(
        "mBgModel",
        KernelClass::DenseLinearAlgebra,
        30.0,
        50.0 * MB,
        0.1 * MB,
    );
    let s_background = spec(
        "mBackground",
        KernelClass::Stencil,
        4.0,
        80.0 * MB,
        8.0 * MB,
    );
    let s_imgtbl = spec(
        "mImgtbl",
        KernelClass::BranchyScalar,
        1.0,
        20.0 * MB,
        0.5 * MB,
    );
    let s_add = spec("mAdd", KernelClass::Reduction, 40.0, 600.0 * MB, 120.0 * MB);
    let s_shrink = spec(
        "mShrink",
        KernelClass::DataMovement,
        3.0,
        120.0 * MB,
        12.0 * MB,
    );
    let s_jpeg = spec(
        "mJPEG",
        KernelClass::SignalProcessing,
        2.0,
        12.0 * MB,
        2.0 * MB,
    );

    let projects: Vec<TaskId> = (0..w)
        .map(|i| b.add_task(s_project.sample(i, &mut rng)))
        .collect();
    let diffs: Vec<TaskId> = (0..w.saturating_sub(1))
        .map(|i| b.add_task(s_diff.sample(i, &mut rng)))
        .collect();
    for (i, &d) in diffs.iter().enumerate() {
        b.add_dep(projects[i], d, s_project.sample_out_bytes(&mut rng))?;
        b.add_dep(projects[i + 1], d, s_project.sample_out_bytes(&mut rng))?;
    }
    let concat = b.add_task(s_concat.sample(0, &mut rng));
    for &d in &diffs {
        b.add_dep(d, concat, s_diff.sample_out_bytes(&mut rng))?;
    }
    let bg_model = b.add_task(s_bg_model.sample(0, &mut rng));
    b.add_dep(concat, bg_model, s_concat.sample_out_bytes(&mut rng))?;
    let backgrounds: Vec<TaskId> = (0..w)
        .map(|i| b.add_task(s_background.sample(i, &mut rng)))
        .collect();
    for (i, &bg) in backgrounds.iter().enumerate() {
        b.add_dep(bg_model, bg, s_bg_model.sample_out_bytes(&mut rng))?;
        b.add_dep(projects[i], bg, s_project.sample_out_bytes(&mut rng))?;
    }
    let imgtbl = b.add_task(s_imgtbl.sample(0, &mut rng));
    for &bg in &backgrounds {
        b.add_dep(bg, imgtbl, s_background.sample_out_bytes(&mut rng))?;
    }
    let add = b.add_task(s_add.sample(0, &mut rng));
    b.add_dep(imgtbl, add, s_imgtbl.sample_out_bytes(&mut rng))?;
    let shrink = b.add_task(s_shrink.sample(0, &mut rng));
    b.add_dep(add, shrink, s_add.sample_out_bytes(&mut rng))?;
    let jpeg = b.add_task(s_jpeg.sample(0, &mut rng));
    b.add_dep(shrink, jpeg, s_shrink.sample_out_bytes(&mut rng))?;

    unify_product_sizes(b.build()?)
}

/// CyberShake seismic hazard with approximately `n` tasks.
///
/// Structure (pairs `s = (n - 4) / 2`): 2 × ExtractSGT → `s` ×
/// SeismogramSynthesis (each reading both SGTs) → `s` × PeakValCalc →
/// ZipSeis + ZipPSA.
///
/// # Errors
///
/// Returns [`WorkflowError::InvalidParameter`] if `n` is outside
/// [`WorkflowClass::tasks_range`].
pub fn cybershake(n: usize, seed: u64) -> Result<Workflow, WorkflowError> {
    require_tasks(WorkflowClass::CyberShake, n)?;
    let s = (n - 4) / 2;
    let mut rng = SimRng::seed_from(seed);
    let mut b = WorkflowBuilder::new(format!("cybershake-{n}"));

    let s_extract = spec(
        "ExtractSGT",
        KernelClass::DataMovement,
        20.0,
        4_000.0 * MB,
        300.0 * MB,
    );
    let s_synth = spec(
        "SeismogramSynthesis",
        KernelClass::Fft,
        180.0,
        600.0 * MB,
        10.0 * MB,
    );
    let s_peak = spec(
        "PeakValCalc",
        KernelClass::Reduction,
        1.0,
        10.0 * MB,
        0.1 * MB,
    );
    let s_zip = spec(
        "Zip",
        KernelClass::DataMovement,
        5.0,
        500.0 * MB,
        100.0 * MB,
    );

    let sgt_x = b.add_task(s_extract.sample(0, &mut rng));
    let sgt_y = b.add_task(s_extract.sample(1, &mut rng));
    let zip_seis = {
        let synths: Vec<TaskId> = (0..s)
            .map(|i| b.add_task(s_synth.sample(i, &mut rng)))
            .collect();
        let peaks: Vec<TaskId> = (0..s)
            .map(|i| b.add_task(s_peak.sample(i, &mut rng)))
            .collect();
        for (i, &syn) in synths.iter().enumerate() {
            b.add_dep(sgt_x, syn, s_extract.sample_out_bytes(&mut rng))?;
            b.add_dep(sgt_y, syn, s_extract.sample_out_bytes(&mut rng))?;
            b.add_dep(syn, peaks[i], s_synth.sample_out_bytes(&mut rng))?;
        }
        let zip_seis = b.add_task(s_zip.sample(0, &mut rng));
        for &syn in &synths {
            b.add_dep(syn, zip_seis, s_synth.sample_out_bytes(&mut rng))?;
        }
        let zip_psa = b.add_task(s_zip.sample(1, &mut rng));
        for &pk in &peaks {
            b.add_dep(pk, zip_psa, s_peak.sample_out_bytes(&mut rng))?;
        }
        zip_seis
    };
    let _ = zip_seis;
    unify_product_sizes(b.build()?)
}

/// Epigenomics genome pipeline with approximately `n` tasks.
///
/// Structure (4 lanes, `k = (n - 3 - 8) / 16` splits per lane): per lane
/// fastqSplit → `k` × (filterContams → sol2sanger → fastq2bfq → map) →
/// mapMerge; then global mapMerge → maqIndex → pileup.
///
/// # Errors
///
/// Returns [`WorkflowError::InvalidParameter`] if `n` is outside
/// [`WorkflowClass::tasks_range`].
pub fn epigenomics(n: usize, seed: u64) -> Result<Workflow, WorkflowError> {
    require_tasks(WorkflowClass::Epigenomics, n)?;
    let lanes = 4usize;
    let k = ((n.saturating_sub(3 + 2 * lanes)) / (4 * lanes)).max(1);
    let mut rng = SimRng::seed_from(seed);
    let mut b = WorkflowBuilder::new(format!("epigenomics-{n}"));

    let s_split = spec(
        "fastqSplit",
        KernelClass::DataMovement,
        2.0,
        400.0 * MB,
        100.0 * MB,
    );
    let s_filter = spec(
        "filterContams",
        KernelClass::BranchyScalar,
        15.0,
        100.0 * MB,
        90.0 * MB,
    );
    let s_sol = spec(
        "sol2sanger",
        KernelClass::DataMovement,
        3.0,
        90.0 * MB,
        80.0 * MB,
    );
    let s_bfq = spec(
        "fastq2bfq",
        KernelClass::DataMovement,
        3.0,
        80.0 * MB,
        40.0 * MB,
    );
    let s_map = spec(
        "map",
        KernelClass::BranchyScalar,
        300.0,
        500.0 * MB,
        20.0 * MB,
    );
    let s_merge = spec(
        "mapMerge",
        KernelClass::Reduction,
        10.0,
        200.0 * MB,
        80.0 * MB,
    );
    let s_index = spec(
        "maqIndex",
        KernelClass::BranchyScalar,
        20.0,
        150.0 * MB,
        50.0 * MB,
    );
    let s_pileup = spec(
        "pileup",
        KernelClass::Reduction,
        40.0,
        300.0 * MB,
        60.0 * MB,
    );

    let global_merge = b.add_task(s_merge.sample(1000, &mut rng));
    for lane in 0..lanes {
        let split = b.add_task(s_split.sample(lane, &mut rng));
        let lane_merge = b.add_task(s_merge.sample(lane, &mut rng));
        for j in 0..k {
            let idx = lane * k + j;
            let filter = b.add_task(s_filter.sample(idx, &mut rng));
            let sol = b.add_task(s_sol.sample(idx, &mut rng));
            let bfq = b.add_task(s_bfq.sample(idx, &mut rng));
            let map = b.add_task(s_map.sample(idx, &mut rng));
            b.add_dep(split, filter, s_split.sample_out_bytes(&mut rng))?;
            b.add_dep(filter, sol, s_filter.sample_out_bytes(&mut rng))?;
            b.add_dep(sol, bfq, s_sol.sample_out_bytes(&mut rng))?;
            b.add_dep(bfq, map, s_bfq.sample_out_bytes(&mut rng))?;
            b.add_dep(map, lane_merge, s_map.sample_out_bytes(&mut rng))?;
        }
        b.add_dep(lane_merge, global_merge, s_merge.sample_out_bytes(&mut rng))?;
    }
    let index = b.add_task(s_index.sample(0, &mut rng));
    b.add_dep(global_merge, index, s_merge.sample_out_bytes(&mut rng))?;
    let pileup = b.add_task(s_pileup.sample(0, &mut rng));
    b.add_dep(index, pileup, s_index.sample_out_bytes(&mut rng))?;

    unify_product_sizes(b.build()?)
}

/// LIGO Inspiral matched-filtering with approximately `n` tasks.
///
/// Structure (`g` groups of `t` templates, `n ≈ g(4t + 2)`): per group
/// `t` × TmpltBank → `t` × Inspiral → Thinca → `t` × TrigBank → `t` ×
/// Inspiral2 → Thinca2.
///
/// # Errors
///
/// Returns [`WorkflowError::InvalidParameter`] if `n` is outside
/// [`WorkflowClass::tasks_range`].
pub fn ligo_inspiral(n: usize, seed: u64) -> Result<Workflow, WorkflowError> {
    require_tasks(WorkflowClass::LigoInspiral, n)?;
    let g = (n / 50).max(1);
    let t = ((n / g).saturating_sub(2) / 4).max(1);
    let mut rng = SimRng::seed_from(seed);
    let mut b = WorkflowBuilder::new(format!("ligo-{n}"));

    let s_tmplt = spec(
        "TmpltBank",
        KernelClass::DenseLinearAlgebra,
        60.0,
        200.0 * MB,
        1.0 * MB,
    );
    let s_inspiral = spec("Inspiral", KernelClass::Fft, 400.0, 800.0 * MB, 2.0 * MB);
    let s_thinca = spec("Thinca", KernelClass::Reduction, 5.0, 20.0 * MB, 1.0 * MB);
    let s_trig = spec(
        "TrigBank",
        KernelClass::BranchyScalar,
        2.0,
        10.0 * MB,
        1.0 * MB,
    );

    for grp in 0..g {
        let base = grp * t;
        let tmplts: Vec<TaskId> = (0..t)
            .map(|i| b.add_task(s_tmplt.sample(base + i, &mut rng)))
            .collect();
        let inspirals: Vec<TaskId> = (0..t)
            .map(|i| b.add_task(s_inspiral.sample(base + i, &mut rng)))
            .collect();
        for (i, &tm) in tmplts.iter().enumerate() {
            b.add_dep(tm, inspirals[i], s_tmplt.sample_out_bytes(&mut rng))?;
        }
        let thinca = b.add_task(s_thinca.sample(2 * grp, &mut rng));
        for &ins in &inspirals {
            b.add_dep(ins, thinca, s_inspiral.sample_out_bytes(&mut rng))?;
        }
        let trigs: Vec<TaskId> = (0..t)
            .map(|i| b.add_task(s_trig.sample(base + i, &mut rng)))
            .collect();
        let inspirals2: Vec<TaskId> = (0..t)
            .map(|i| b.add_task(s_inspiral.sample(base + t + i, &mut rng)))
            .collect();
        for (i, &tr) in trigs.iter().enumerate() {
            b.add_dep(thinca, tr, s_thinca.sample_out_bytes(&mut rng))?;
            b.add_dep(tr, inspirals2[i], s_trig.sample_out_bytes(&mut rng))?;
        }
        let thinca2 = b.add_task(s_thinca.sample(2 * grp + 1, &mut rng));
        for &ins in &inspirals2 {
            b.add_dep(ins, thinca2, s_inspiral.sample_out_bytes(&mut rng))?;
        }
    }
    unify_product_sizes(b.build()?)
}

/// SIPHT sRNA annotation with approximately `n` tasks.
///
/// Structure (`p = n - 12` Patser tasks): `p` × Patser → PatserConcate;
/// Transterm + Findterm + RNAMotif + Blast → SRNA (also reading
/// PatserConcate) → FFN_Parse → 4 × downstream Blast variants →
/// SRNAAnnotate.
///
/// # Errors
///
/// Returns [`WorkflowError::InvalidParameter`] if `n` is outside
/// [`WorkflowClass::tasks_range`].
pub fn sipht(n: usize, seed: u64) -> Result<Workflow, WorkflowError> {
    require_tasks(WorkflowClass::Sipht, n)?;
    let p = n - 12;
    let mut rng = SimRng::seed_from(seed);
    let mut b = WorkflowBuilder::new(format!("sipht-{n}"));

    let s_patser = spec(
        "Patser",
        KernelClass::BranchyScalar,
        3.0,
        20.0 * MB,
        0.5 * MB,
    );
    let s_concate = spec(
        "PatserConcate",
        KernelClass::Reduction,
        1.0,
        10.0 * MB,
        2.0 * MB,
    );
    let s_transterm = spec(
        "Transterm",
        KernelClass::BranchyScalar,
        120.0,
        150.0 * MB,
        1.0 * MB,
    );
    let s_findterm = spec(
        "Findterm",
        KernelClass::BranchyScalar,
        220.0,
        250.0 * MB,
        5.0 * MB,
    );
    let s_motif = spec(
        "RNAMotif",
        KernelClass::BranchyScalar,
        40.0,
        60.0 * MB,
        1.0 * MB,
    );
    let s_blast = spec(
        "Blast",
        KernelClass::BranchyScalar,
        150.0,
        400.0 * MB,
        2.0 * MB,
    );
    let s_srna = spec("SRNA", KernelClass::Reduction, 15.0, 50.0 * MB, 3.0 * MB);
    let s_ffn = spec(
        "FFN_Parse",
        KernelClass::DataMovement,
        2.0,
        30.0 * MB,
        10.0 * MB,
    );
    let s_annotate = spec(
        "SRNAAnnotate",
        KernelClass::Reduction,
        8.0,
        40.0 * MB,
        1.0 * MB,
    );

    let patsers: Vec<TaskId> = (0..p)
        .map(|i| b.add_task(s_patser.sample(i, &mut rng)))
        .collect();
    let concate = b.add_task(s_concate.sample(0, &mut rng));
    for &pt in &patsers {
        b.add_dep(pt, concate, s_patser.sample_out_bytes(&mut rng))?;
    }
    let transterm = b.add_task(s_transterm.sample(0, &mut rng));
    let findterm = b.add_task(s_findterm.sample(0, &mut rng));
    let motif = b.add_task(s_motif.sample(0, &mut rng));
    let blast = b.add_task(s_blast.sample(0, &mut rng));
    let srna = b.add_task(s_srna.sample(0, &mut rng));
    b.add_dep(concate, srna, s_concate.sample_out_bytes(&mut rng))?;
    for (src, sspec) in [
        (transterm, s_transterm),
        (findterm, s_findterm),
        (motif, s_motif),
        (blast, s_blast),
    ] {
        b.add_dep(src, srna, sspec.sample_out_bytes(&mut rng))?;
    }
    let ffn = b.add_task(s_ffn.sample(0, &mut rng));
    b.add_dep(srna, ffn, s_srna.sample_out_bytes(&mut rng))?;
    let downstream: Vec<TaskId> = (1..=4)
        .map(|i| b.add_task(s_blast.sample(i, &mut rng)))
        .collect();
    let annotate = b.add_task(s_annotate.sample(0, &mut rng));
    for &d in &downstream {
        b.add_dep(ffn, d, s_ffn.sample_out_bytes(&mut rng))?;
        b.add_dep(d, annotate, s_blast.sample_out_bytes(&mut rng))?;
    }
    b.add_dep(srna, annotate, s_srna.sample_out_bytes(&mut rng))?;

    unify_product_sizes(b.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    #[test]
    fn all_families_generate_valid_dags() {
        for class in WorkflowClass::ALL {
            for n in [50, 100, 500] {
                let wf = class
                    .generate(n, 7)
                    .unwrap_or_else(|e| panic!("{class} n={n}: {e}"));
                wf.validate().unwrap();
                // Within 40% of requested size (structure quantization).
                let tasks = wf.num_tasks();
                assert!(
                    (tasks as f64) > 0.6 * n as f64 && (tasks as f64) < 1.4 * n as f64,
                    "{class} n={n} produced {tasks} tasks"
                );
                assert!(wf.num_edges() >= tasks - 1, "{class} must be connected-ish");
            }
        }
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let a = montage(100, 3).unwrap();
        let b = montage(100, 3).unwrap();
        assert_eq!(a, b);
        let c = montage(100, 4).unwrap();
        assert_ne!(a, c, "different seed must perturb magnitudes");
        // Same structure though.
        assert_eq!(a.num_tasks(), c.num_tasks());
        assert_eq!(a.num_edges(), c.num_edges());
    }

    #[test]
    fn montage_exact_structure() {
        let wf = montage(50, 1).unwrap();
        // w = 15 -> 3*15+5 = 50 tasks.
        assert_eq!(wf.num_tasks(), 50);
        assert_eq!(wf.entry_tasks().len(), 15, "all mProject are entries");
        assert_eq!(wf.exit_tasks().len(), 1, "mJPEG is the single exit");
        assert_eq!(analysis::depth(&wf), 9);
    }

    #[test]
    fn cybershake_fans_out_from_two_roots() {
        let wf = cybershake(100, 1).unwrap();
        assert_eq!(wf.entry_tasks().len(), 2);
        assert_eq!(wf.exit_tasks().len(), 2);
        assert_eq!(analysis::depth(&wf), 4);
        // Width dominated by the synthesis layer.
        assert!(analysis::width(&wf) >= 40);
    }

    #[test]
    fn epigenomics_is_deep() {
        let wf = epigenomics(100, 1).unwrap();
        assert!(analysis::depth(&wf) >= 8, "depth {}", analysis::depth(&wf));
        assert_eq!(wf.exit_tasks().len(), 1);
        assert_eq!(wf.entry_tasks().len(), 4, "one fastqSplit per lane");
    }

    #[test]
    fn ligo_groups_structure() {
        let wf = ligo_inspiral(100, 1).unwrap();
        // g=2 groups, t=12: entries = g*t TmpltBank tasks.
        assert_eq!(wf.entry_tasks().len(), 24);
        assert_eq!(wf.exit_tasks().len(), 2, "one Thinca2 per group");
        assert_eq!(analysis::depth(&wf), 6);
    }

    #[test]
    fn sipht_aggregates() {
        let wf = sipht(60, 1).unwrap();
        assert_eq!(wf.exit_tasks().len(), 1);
        // p patsers + 4 root searches are entries.
        assert_eq!(wf.entry_tasks().len(), 48 + 4);
    }

    #[test]
    fn too_small_n_rejected() {
        assert!(montage(5, 0).is_err());
        assert!(cybershake(5, 0).is_err());
        assert!(epigenomics(5, 0).is_err());
        assert!(ligo_inspiral(5, 0).is_err());
        assert!(sipht(5, 0).is_err());
    }

    #[test]
    fn class_roundtrip_names() {
        for c in WorkflowClass::ALL {
            assert!(!c.as_str().is_empty());
        }
        assert_eq!(WorkflowClass::Montage.to_string(), "montage");
    }
}
