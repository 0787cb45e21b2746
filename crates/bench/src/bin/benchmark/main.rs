//! The helios benchmark: four sweep and store workloads, end-to-end
//! metrics measured through the public API, and a traced replay that
//! splits a pass into per-layer self time. See `README.md`.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--out FILE]
//! ```
//!
//! The last line of standard output is one JSON object,
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`,
//! holding the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`) that `BENCHMARK.json` names. The line before it adds
//! quartiles, sample counts, the output digest and host metadata; `--out`
//! writes that line to a file as well. The exit code is 0 only when
//! every correctness check passed. End-to-end times are scaled to a host
//! of fixed speed (`speed.rs`); the detail line gives the wall-clock
//! throughput and latency too.

mod replay;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::error::Error;
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use serde_json::Value;

use helios_core::campaign::journal::{read_journal, JournalHeader, JournalWriter};
use helios_core::store::{parse_query, read_store, run_query};
use helios_core::{
    merge_shards, CampaignSpec, EngineError, JournalOptions, QueryOutput, ShardSpec, SweepDriver,
    SweepReport,
};

use speed::{Speed, Uses};
use trace::{Profile, Recorder};
use workloads::{Input, StoreInput, SweepInput, Workload, QUERIES_PER_READ};

const USAGE: &str =
    "usage: benchmark --workload paper_grid|resilient_exec|durable_sweep|store_query \
                     [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--out FILE]";

/// Overrides that change the program's outputs or timings.
const HOSTILE_ENV: [&str; 4] = [
    "HELIOS_CELL_STEP_BUDGET",
    "HELIOS_POISON_LIMIT",
    "HELIOS_SWEEP_ABORT_AFTER",
    "HELIOS_JOURNAL_TORN_WRITE",
];

/// Scratch files and traces, relative to the working directory: under
/// the build's `target/`, so on the disk the repository lives on and
/// ignored by git.
const OUT_DIR: &str = "target/benchmark-out";

/// The slot of a pass's merge step; shard job `k` and query `q` take
/// the slots after it.
const MERGE: usize = 0;

#[derive(Debug, Clone, PartialEq)]
struct Settings {
    workload: Workload,
    seed: u64,
    /// Minimum measured time; the last pass always completes.
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn main() -> ExitCode {
    let settings = match parse_args(std::env::args().skip(1)) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("benchmark: usage error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = HOSTILE_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("benchmark: refusing to run with {var} set: it changes outputs or timings");
        return ExitCode::from(2);
    }
    let outcome = match run(&settings, Path::new(OUT_DIR)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", settings.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.metrics {
        eprintln!("  {:<22} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let detail = outcome.detail_json(&settings);
    if let Some(path) = &settings.out {
        if let Err(e) = fs::write(path, format!("{detail}\n")) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{detail}");
    println!("{}", outcome.result_json());
    for p in &outcome.problems {
        eprintln!("benchmark: check failed: {p}");
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Settings, String> {
    let mut workload = None;
    let mut settings = Settings {
        workload: Workload::PaperGrid,
        seed: 0,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                settings.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a non-negative integer")?;
            }
            "--seconds" => {
                let secs: u32 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a non-negative integer")?;
                settings.seconds = f64::from(secs);
            }
            "--trace" => {
                settings.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--smoke" => settings.smoke = true,
            "--out" => settings.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    settings.workload = workload.ok_or("--workload is required")?;
    Ok(settings)
}

/// One named value in the result line.
#[derive(Debug)]
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    /// First and third quartile and count of the samples behind it.
    samples: Option<(f64, f64, usize)>,
}

/// Seconds taken by each operation of a pass, keyed by its slot. Every
/// slot but [`MERGE`] is an operation a user waits on: a shard job or a
/// query.
type OpTimes = BTreeMap<usize, Vec<f64>>;

/// What one run measured and checked.
#[derive(Debug)]
struct Outcome {
    attempted: u64,
    failed: u64,
    speed: Speed,
    /// Operation times scaled to the nominal host; the metrics use these.
    op_s: OpTimes,
    /// The same operations' wall times.
    wall_op_s: OpTimes,
    /// Set-up times scaled to the nominal host.
    setup_s: Vec<f64>,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    detail: Vec<(String, Value)>,
}

impl Outcome {
    /// An empty outcome whose disk kernel writes in `dir`, the directory
    /// the workload writes to.
    fn new(dir: &Path) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            speed: Speed::new(dir.join("speed.probe")),
            op_s: OpTimes::new(),
            wall_op_s: OpTimes::new(),
            setup_s: Vec::new(),
            problems: Vec::new(),
            metrics: Vec::new(),
            detail: Vec::new(),
        }
    }

    /// Times one call into the program, which spends its time on `uses`,
    /// as the operation in `slot` of a pass. A failed call is counted
    /// and its error kept. Returns the output and the wall time.
    fn op<T>(
        &mut self,
        slot: usize,
        uses: Uses,
        f: impl FnOnce() -> Result<T, EngineError>,
    ) -> (Option<T>, f64) {
        let (out, wall, scaled) = self.speed.time(uses, f);
        self.attempted += 1;
        self.op_s.entry(slot).or_default().push(scaled);
        self.wall_op_s.entry(slot).or_default().push(wall);
        match out {
            Ok(v) => (Some(v), wall),
            Err(e) => {
                self.failed += 1;
                self.problems.push(e.to_string());
                (None, wall)
            }
        }
    }

    /// Times one repetition of the workload's set-up, which spends its
    /// time on `uses`. Returns the output and the wall time.
    fn setup<T>(
        &mut self,
        uses: Uses,
        f: impl FnOnce() -> Result<T, EngineError>,
    ) -> Result<(T, f64), EngineError> {
        let (out, wall, scaled) = self.speed.time(uses, f);
        let out = out?;
        self.setup_s.push(scaled);
        Ok((out, wall))
    }

    fn check(&mut self, ok: bool, problem: &str) {
        if !ok {
            self.problems.push(problem.to_owned());
        }
    }

    fn metric(&mut self, name: &str, unit: &'static str, value: f64, samples: Option<&[f64]>) {
        if !value.is_finite() {
            self.problems.push(format!("{name} is not a finite number"));
        }
        self.metrics.push(Metric {
            name: name.to_owned(),
            unit,
            value,
            samples: samples.map(|s| {
                let (q1, q3) = stats::quartiles(s);
                (q1, q3, s.len())
            }),
        });
    }

    fn note(&mut self, key: &str, value: Value) {
        self.detail.push((key.to_owned(), value));
    }

    /// Records the digest of the checked output and, for a full-size
    /// `--seed 0` run, compares it with the pinned one.
    fn pin(&mut self, s: &Settings, output: &str) {
        let got = workloads::digest(output.as_bytes());
        if s.seed == 0 && !s.smoke {
            let want = s.workload.seed0_digest();
            self.check(
                got == want,
                &format!("seed-0 output digest {got} differs from the pinned {want}"),
            );
        }
        self.note("output_digest", Value::String(got));
    }

    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    fn result_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = obj([
                    ("value", Value::Number(m.value)),
                    ("unit", Value::String(m.unit.to_owned())),
                ]);
                (m.name.clone(), value)
            })
            .collect();
        let line = obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Number(self.attempted as f64)),
            ("failed", Value::Number(self.failed as f64)),
            ("metrics", Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("serializing a value tree cannot fail")
    }

    fn detail_json(&self, s: &Settings) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_owned(), Value::Number(m.value)),
                    ("unit".to_owned(), Value::String(m.unit.to_owned())),
                ];
                if let Some((q1, q3, n)) = m.samples {
                    fields.push(("q1".to_owned(), Value::Number(q1)));
                    fields.push(("q3".to_owned(), Value::Number(q3)));
                    fields.push(("samples".to_owned(), Value::Number(n as f64)));
                }
                (m.name.clone(), Value::Object(fields))
            })
            .collect();
        let mut fields = vec![
            (
                "workload".to_owned(),
                Value::String(s.workload.name().into()),
            ),
            ("seed".to_owned(), Value::Number(s.seed as f64)),
            ("seconds".to_owned(), Value::Number(s.seconds)),
            ("trace".to_owned(), Value::Bool(s.trace)),
            ("smoke".to_owned(), Value::Bool(s.smoke)),
            ("metrics".to_owned(), Value::Object(metrics)),
            (
                "problems".to_owned(),
                Value::Array(self.problems.iter().cloned().map(Value::String).collect()),
            ),
        ];
        fields.extend(self.detail.iter().cloned());
        let line = Value::Object(vec![("detail".to_owned(), Value::Object(fields))]);
        serde_json::to_string(&line).expect("serializing a value tree cannot fail")
    }
}

fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.map(|(k, v)| (k.to_owned(), v)).into())
}

/// A per-process scratch directory for journals and store segments,
/// removed when dropped, on error paths too.
struct Scratch(PathBuf);

impl Scratch {
    fn create(root: &Path) -> std::io::Result<Scratch> {
        let dir = root.join(format!("tmp-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        if let Some(root) = self.0.parent() {
            let _ = fs::remove_dir(root); // Only succeeds when empty.
        }
    }
}

/// The settings, the scratch directory, and where traces go.
struct Ctx<'a> {
    s: &'a Settings,
    dir: &'a Path,
    out_root: &'a Path,
}

impl Ctx<'_> {
    /// Whether to start another measured pass: at least one, then until
    /// `--seconds` have passed.
    fn more(&self, start: Instant, passes: usize) -> bool {
        passes == 0 || start.elapsed().as_secs_f64() < self.s.seconds
    }

    /// The metrics, once the passes are done: end to end from the
    /// untraced passes, or per layer from the traced ones. `cells_per_s`
    /// is the workload's throughput given its operation times.
    fn finish(
        &self,
        o: &mut Outcome,
        cells_per_s: impl Fn(&OpTimes) -> f64,
        untraced_s: &[f64],
        profile: &Profile,
        first_trace: Option<Recorder>,
    ) -> Result<(), Box<dyn Error>> {
        o.note("passes", Value::Number(untraced_s.len() as f64));
        if !self.s.trace {
            // Each operation's median over the passes first, as for
            // `cells_per_s`, so a burst that slows one pass's copy of an
            // operation does not move the metric.
            let typical_ms = |ops: &OpTimes| -> Vec<f64> {
                ops.range(MERGE + 1..)
                    .map(|(_, s)| stats::median(s) * 1e3)
                    .collect()
            };
            let scaled_ms = typical_ms(&o.op_s);
            let wall_ms = typical_ms(&o.wall_op_s);
            let (scaled_per_s, wall_per_s) = (cells_per_s(&o.op_s), cells_per_s(&o.wall_op_s));
            let setup_s = std::mem::take(&mut o.setup_s);
            let (cpu_speed, disk_speed) = o.speed.factors();
            o.note("cpu_speed", Value::Number(cpu_speed));
            if let Some(disk_speed) = disk_speed {
                o.note("disk_speed", Value::Number(disk_speed));
            }
            o.note("wall_cells_per_s", Value::Number(wall_per_s));
            o.note(
                "wall_latency_p50_ms",
                Value::Number(stats::median(&wall_ms)),
            );
            o.metric("cells_per_s", "1/s", scaled_per_s, None);
            o.metric(
                "latency_p50_ms",
                "ms",
                stats::median(&scaled_ms),
                Some(&scaled_ms),
            );
            // The tail, over every sample, is reported, not bounded: with
            // balanced shard jobs it measures interference from other
            // tenants of the host.
            let every_ms: Vec<f64> = o
                .op_s
                .range(MERGE + 1..)
                .flat_map(|(_, s)| s.iter().map(|secs| secs * 1e3))
                .collect();
            let tail_pct = stats::tail_percentile(every_ms.len());
            o.note("latency_tail_pct", Value::Number(tail_pct));
            o.note(
                "latency_tail_ms",
                Value::Number(stats::percentile(&every_ms, tail_pct)),
            );
            o.metric("setup_s", "s", stats::median(&setup_s), Some(&setup_s));
            o.metric("peak_rss_mb", "MiB", peak_rss_mb()?, None);
            return Ok(());
        }
        let rec = first_trace.ok_or("no traced pass completed")?;
        let path = self
            .out_root
            .join(format!("{}.trace.json", self.s.workload.name()));
        fs::write(&path, trace::chrome_trace(rec.spans()))?;
        o.note("trace_file", Value::String(path.display().to_string()));
        for (name, unit, value) in profile.metrics(untraced_s) {
            o.metric(&name, unit, value, None);
        }
        Ok(())
    }
}

fn run(s: &Settings, out_root: &Path) -> Result<Outcome, Box<dyn Error>> {
    let scratch = Scratch::create(out_root)?;
    let cx = Ctx {
        s,
        dir: &scratch.0,
        out_root,
    };
    let mut o = Outcome::new(&scratch.0);
    match workloads::input(s.workload, s.seed, s.smoke) {
        Input::Sweep(input) => run_sweep(&input, &cx, &mut o)?,
        Input::Store(input) => run_store(&input, &cx, &mut o)?,
    }
    for (key, value) in host_metadata(&scratch.0) {
        o.note(key, value);
    }
    Ok(o)
}

fn run_sweep(input: &SweepInput, cx: &Ctx, o: &mut Outcome) -> Result<(), Box<dyn Error>> {
    let spec = CampaignSpec::from_json(&input.spec_json)?;

    // Untimed warm-up pass: fills caches and gives the reference output.
    let mut warm = Outcome::new(cx.dir);
    let Some((reference, _)) = driver_pass(input, &spec, cx.dir, &mut warm)? else {
        return Err(format!("the warm-up pass failed: {}", warm.problems.join("; ")).into());
    };
    let reference = serde_json::to_string(&reference)?;
    o.pin(cx.s, &reference);
    if input.journaled {
        let plain = serde_json::to_string(&SweepDriver::new(1).run(&spec)?)?;
        o.check(
            plain == reference,
            "the journaled sweep differs from the plain sweep of the same spec",
        );
    }

    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut profile = Profile::default();
    let mut first_trace = None;
    while cx.more(start, untraced.len()) {
        let Some((report, wall)) = driver_pass(input, &spec, cx.dir, o)? else {
            break;
        };
        untraced.push(wall);
        o.check(
            serde_json::to_string(&report)? == reference,
            "a pass's report differs from the warm-up pass",
        );
        if input.journaled {
            o.check(
                journal_view(input, cx.dir)? == reference,
                "the journals read back differ from the pass's report",
            );
        }
        if cx.s.trace {
            let mut rec = Recorder::new();
            let start = Instant::now();
            let replayed = replay::sweep_pass(input, cx.dir, &mut rec)?;
            profile.add_pass(&rec, start.elapsed().as_secs_f64());
            o.check(
                serde_json::to_string(&replayed)? == reference,
                "the traced replay's report differs from the driver's",
            );
            first_trace.get_or_insert(rec);
        }
    }
    if untraced.is_empty() {
        return Err(format!("no pass completed: {}", o.problems.join("; ")).into());
    }
    let cells = spec.num_cells() as f64;
    cx.finish(
        o,
        |ops| cells / typical_pass_s(ops),
        &untraced,
        &profile,
        first_trace,
    )
}

/// The seconds of a pass in which every operation takes its median
/// time: a burst of interference slows a few operations, not this.
fn typical_pass_s(ops: &OpTimes) -> f64 {
    ops.values().map(|s| stats::median(s)).sum()
}

/// What a sweep does before its first cell, timed once per shard job:
/// parse and validate the spec, expand and digest it, and for a
/// journaled sweep create the journal with its fsync'd header.
fn sweep_setup(input: &SweepInput, dir: &Path) -> Result<(), EngineError> {
    let spec = CampaignSpec::from_json(&input.spec_json)?;
    let cells = spec.expand()?;
    let header = JournalHeader {
        spec_name: spec.name.clone(),
        spec_digest: spec.digest(),
        total_cells: cells.len(),
        shard_index: 1,
        shard_count: input.shards,
    };
    if input.journaled {
        JournalWriter::create(&dir.join("setup.journal"), &header, None)?;
    }
    black_box((cells, header));
    Ok(())
}

/// One pass of a sweep workload through the public driver: each shard
/// job in turn (a latency sample each), then the merge. Returns the
/// merged report and the pass wall time, or `None` if a call failed.
fn driver_pass(
    input: &SweepInput,
    spec: &CampaignSpec,
    dir: &Path,
    o: &mut Outcome,
) -> Result<Option<(SweepReport, f64)>, EngineError> {
    let driver = SweepDriver::new(1);
    let uses = if input.journaled {
        Uses::CpuAndDisk
    } else {
        Uses::Cpu
    };
    let mut wall = 0.0;
    let mut reports = Vec::with_capacity(input.shards);
    for k in 1..=input.shards {
        o.setup(uses, || sweep_setup(input, dir))?;
        let path = replay::journal_path(dir, "driver", k);
        // A journal left by the previous pass would be resumed, not rerun.
        let _ = fs::remove_file(&path);
        let (report, secs) = o.op(k, uses, || {
            let shard = ShardSpec::new(k, input.shards)?;
            if input.journaled {
                driver
                    .run_journal(spec, shard, &path, &JournalOptions::default())
                    .map(|run| run.report)
            } else {
                driver.run_shard(spec, shard)
            }
        });
        wall += secs;
        let Some(report) = report else {
            return Ok(None);
        };
        reports.push(report);
    }
    let (merged, secs) = o.op(MERGE, Uses::Cpu, || merge_shards(&reports));
    Ok(merged.map(|m| (m, wall + secs)))
}

/// The last driver pass's journals, read back from disk and merged.
fn journal_view(input: &SweepInput, dir: &Path) -> Result<String, Box<dyn Error>> {
    let shards = (1..=input.shards)
        .map(|k| Ok(read_journal(&replay::journal_path(dir, "driver", k))?.to_shard_report()))
        .collect::<Result<Vec<_>, EngineError>>()?;
    Ok(serde_json::to_string(&merge_shards(&shards)?)?)
}

fn run_store(input: &StoreInput, cx: &Ctx, o: &mut Outcome) -> Result<(), Box<dyn Error>> {
    let mut warm = Outcome::new(cx.dir);
    let Some((reference, _)) = store_driver_pass(input, cx.dir, &mut warm)? else {
        return Err(format!("the warm-up pass failed: {}", warm.problems.join("; ")).into());
    };
    let reference = format!("{reference:?}");
    o.pin(cx.s, &reference);

    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut profile = Profile::default();
    let mut first_trace = None;
    while cx.more(start, untraced.len()) {
        let Some((outputs, wall)) = store_driver_pass(input, cx.dir, o)? else {
            break;
        };
        untraced.push(wall);
        o.check(
            format!("{outputs:?}") == reference,
            "a pass's query outputs differ from the warm-up pass",
        );
        if cx.s.trace {
            let mut rec = Recorder::new();
            let start = Instant::now();
            let (merged, outputs) = replay::store_pass(input, cx.dir, &mut rec)?;
            profile.add_pass(&rec, start.elapsed().as_secs_f64());
            o.check(
                merged.cells == input.rows && format!("{outputs:?}") == reference,
                "the traced replay's outputs differ from the driver's",
            );
            first_trace.get_or_insert(rec);
        }
    }
    if untraced.is_empty() {
        return Err(format!("no pass completed: {}", o.problems.join("; ")).into());
    }
    // Every completed pass read and merged the segments at least once.
    let rows = input.rows.len() as f64;
    cx.finish(
        o,
        |ops| rows / stats::median(&ops[&MERGE]),
        &untraced,
        &profile,
        first_trace,
    )
}

/// The store workload's set-up, timed once per pass: write the rows as
/// strided store segments, and parse every query.
fn store_setup(input: &StoreInput, dir: &Path) -> Result<Vec<PathBuf>, EngineError> {
    let segments = (1..=input.shards)
        .map(|k| {
            let path = dir.join(format!("driver-{k}.store"));
            input.write_segment(k, &path)?;
            Ok(path)
        })
        .collect::<Result<Vec<_>, EngineError>>()?;
    for q in &input.queries {
        black_box(parse_query(q)?);
    }
    Ok(segments)
}

/// One pass of the store workload: the set-up, then a read and merge of
/// the segments before every [`QUERIES_PER_READ`] queries. A read+merge
/// and each query (a latency sample) are one operation each. Returns the
/// query outputs and the pass wall time, set-up included, or `None` if a
/// call failed.
fn store_driver_pass(
    input: &StoreInput,
    dir: &Path,
    o: &mut Outcome,
) -> Result<Option<(Vec<QueryOutput>, f64)>, EngineError> {
    let (segments, mut wall) = o.setup(Uses::CpuAndDisk, || store_setup(input, dir))?;
    let mut outputs = Vec::with_capacity(input.queries.len());
    for (i, chunk) in input.queries.chunks(QUERIES_PER_READ).enumerate() {
        let (merged, secs) = o.op(MERGE, Uses::Cpu, || {
            let shards = segments
                .iter()
                .map(|p| read_store(p).map(|s| s.to_shard_report()))
                .collect::<Result<Vec<_>, _>>()?;
            merge_shards(&shards)
        });
        wall += secs;
        let Some(merged) = merged else {
            return Ok(None);
        };
        o.check(
            merged.cells == input.rows,
            "the merged store rows differ from the generated rows",
        );
        for (j, q) in chunk.iter().enumerate() {
            let slot = 1 + i * QUERIES_PER_READ + j;
            let (out, secs) = o.op(slot, Uses::Cpu, || run_query(q, &merged.cells));
            wall += secs;
            let Some(out) = out else {
                return Ok(None);
            };
            outputs.push(out);
        }
    }
    Ok(Some((outputs, wall)))
}

/// The process's peak resident set (VmHWM), MiB.
fn peak_rss_mb() -> Result<f64, Box<dyn Error>> {
    let status = fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()?;
    Ok(kb / 1024.0)
}

/// Where the numbers came from: runs compared across commits must share
/// a host, and fsync costs belong to the scratch directory's disk.
fn host_metadata(scratch: &Path) -> Vec<(&'static str, Value)> {
    let unknown = || "unknown".to_owned();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = fs::read_to_string("/proc/cpuinfo").ok().and_then(|info| {
        info.lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|m| m.trim_start_matches([' ', '\t', ':']).to_owned())
    });
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned());
    let dir = scratch
        .canonicalize()
        .unwrap_or_else(|_| scratch.to_owned());
    vec![
        ("nproc", Value::Number(nproc as f64)),
        ("cpu_model", Value::String(cpu.unwrap_or_else(unknown))),
        ("rustc", Value::String(rustc.unwrap_or_else(unknown))),
        (
            "git_head",
            Value::String(git_head().unwrap_or_else(unknown)),
        ),
        ("scratch_dir", Value::String(dir.display().to_string())),
        (
            "scratch_fs",
            Value::String(filesystem_of(&dir).unwrap_or_else(unknown)),
        ),
    ]
}

/// The commit checked out in the working directory, read from `.git`
/// without running git.
fn git_head() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = fs::read_to_string(Path::new(".git").join(name)) {
        return Some(id.trim().to_owned());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(name))
        .and_then(|l| l.split(' ').next())
        .map(str::to_owned)
}

/// The type, source and mount point of the filesystem holding `dir`.
fn filesystem_of(dir: &Path) -> Option<String> {
    let info = fs::read_to_string("/proc/self/mountinfo").ok()?;
    info.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let mount = Path::new(fields.get(4)?);
            let sep = fields.iter().position(|f| *f == "-")?;
            let (fstype, source) = (fields.get(sep + 1)?, fields.get(sep + 2)?);
            dir.starts_with(mount).then(|| {
                let depth = mount.components().count();
                (depth, format!("{fstype} {source} on {}", mount.display()))
            })
        })
        .max_by_key(|(depth, _)| *depth)
        .map(|(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    /// `name → unit` of one metric list of `BENCHMARK.json`.
    fn listed(key: &str) -> BTreeMap<String, String> {
        let spec: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        spec[key]
            .as_array()
            .expect("a metric list")
            .iter()
            .map(|m| {
                let name = m["name"].as_str().expect("a name").to_owned();
                (name, m["unit"].as_str().expect("a unit").to_owned())
            })
            .collect()
    }

    /// Whether the per-layer metric `name` reads 0 on a workload with
    /// this input: its layer is one the workload never enters, or it
    /// counts failures in a sweep with no failure model.
    fn idle(input: &Input, name: &str) -> bool {
        let group = name.split('.').next().expect("a metric name");
        match input {
            Input::Store(_) => !matches!(group, "store" | "campaign" | "query" | "sweep" | "trace"),
            Input::Sweep(s) => {
                let spec = CampaignSpec::from_json(&s.spec_json).expect("spec parses");
                match name {
                    "sched.calls" => false,
                    "exec.failures" | "exec.retries" => spec.resilience.is_none(),
                    _ if group == "sched" => !spec
                        .schedulers
                        .iter()
                        .any(|x| name == format!("sched.{x}.ms")),
                    _ if group == "journal" => !s.journaled,
                    _ => matches!(group, "store" | "query"),
                }
            }
        }
    }

    #[test]
    fn smoke_runs_emit_exactly_the_listed_metrics() {
        let spec: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let names: Vec<&str> = spec["workloads"]
            .as_array()
            .expect("a workload list")
            .iter()
            .map(|w| w["name"].as_str().expect("a name"))
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));

        let root = std::env::temp_dir().join(format!("helios-benchmark-{}", std::process::id()));
        for workload in Workload::ALL {
            for trace in [false, true] {
                let settings = Settings {
                    workload,
                    seed: 1,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                    out: None,
                };
                let outcome = run(&settings, &root).expect("smoke run");
                let who = format!("{} trace={trace}", workload.name());
                assert!(outcome.correct(), "{who}: {:?}", outcome.problems);
                assert!(outcome.attempted >= 1, "{who}");
                let got: BTreeMap<String, String> = outcome
                    .metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.to_owned()))
                    .collect();
                let want = listed(if trace { "per_layer" } else { "end_to_end" });
                assert_eq!(got, want, "{who}");
                let line: Value =
                    serde_json::from_str(&outcome.result_json()).expect("result line parses");
                assert_eq!(line["correct"], true);
                if trace {
                    let path = root.join(format!("{}.trace.json", workload.name()));
                    let text = fs::read_to_string(&path).expect("trace written");
                    let trace: Value = serde_json::from_str(&text).expect("trace parses");
                    assert!(!trace["traceEvents"].as_array().expect("events").is_empty());
                    let input = workloads::input(workload, 1, true);
                    for m in &outcome.metrics {
                        assert_eq!(
                            m.value == 0.0,
                            idle(&input, &m.name),
                            "{who}: {} = {}",
                            m.name,
                            m.value
                        );
                    }
                } else {
                    assert!(outcome.metrics.iter().all(|m| m.value > 0.0), "{who}");
                }
            }
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|a| (*a).to_owned()));
        let s = parse(&[
            "--workload",
            "store_query",
            "--seed",
            "9",
            "--seconds",
            "5",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(s.workload, Workload::StoreQuery);
        assert_eq!((s.seed, s.seconds, s.trace, s.smoke), (9, 5.0, true, false));
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "paper_grid", "--trace", "2"],
            &["--workload", "paper_grid", "--seed"],
            &["--workload", "paper_grid", "--bogus"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
