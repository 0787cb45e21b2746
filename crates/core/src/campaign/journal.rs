//! The write-ahead cell journal: crash-consistent sweep durability.
//!
//! A journal is a framed file (the checksummed append-only layout it
//! shares with the columnar store) recording sweep progress at cell
//! granularity. The layout is
//!
//! ```text
//! magic  "HELIOSJ1"                                    (8 bytes)
//! header [len: u32][crc32: u32][JournalHeader JSON]    (checksummed)
//! record [kind: u8][len: u32][crc32: u32][payload]     (repeated)
//! ```
//!
//! so a record is its kind byte followed by a standard frame. Two
//! record kinds exist: an *attempt* (kind 1, `{"cell":N}`) appended
//! before a cell executes, and a *completion* (kind 2, a compact-JSON
//! [`CellResult`]) appended after. A sweep makes one `fsync` per cell:
//! a completion record is staged, and the next durable write (the next
//! cell's attempt record, or the end of the run) carries it in the same
//! `write` and `fsync`. The sweep stages a completion only while a
//! pending cell has yet to start and no drain is requested, so a
//! finished cell is durable before its worker starts another cell, and
//! at once when none is left to start. A `kill -9` at any instant loses
//! at most the records being written — never a cell that was reported
//! durable — and a lost completion only re-runs its cell.
//!
//! This module holds only the payload codec; the framing, the
//! longest-valid-prefix salvage of [`read_journal`] and the in-place
//! truncation of [`recover_journal`] are the framed-file layer's.
//! Because cells are pure functions of the spec and their coordinates,
//! a resumed sweep re-runs exactly the missing cells and compiles a
//! report byte-identical to an uninterrupted run.
//!
//! Attempt records make crash *loops* observable: a cell whose attempt
//! count reaches the poison limit with no completion record has killed
//! the process that many times and is quarantined by the driver
//! (recorded `completed = false, incomplete_reason = "poisoned"`)
//! instead of being retried forever.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;

use serde::{Deserialize, Serialize};

use super::sweep::{CellResult, ShardReport};
use crate::framed::{Appender, Format};
use crate::EngineError;

/// File magic: identifies a helios cell journal, version 1.
pub const JOURNAL_MAGIC: [u8; 8] = *b"HELIOSJ1";

/// Message prefix of the injected torn-write error, so harnesses can
/// tell the synthetic tear from a real I/O failure.
pub const TORN_WRITE_INJECTED: &str = "injected torn journal write";

/// Attempts without a completion record before the driver quarantines
/// a cell as poisoned.
pub const DEFAULT_POISON_LIMIT: u32 = 3;

pub(crate) static FORMAT: Format = Format {
    magic: JOURNAL_MAGIC,
    noun: "journal",
    record: "record",
    tagged: true,
};

const KIND_ATTEMPT: u8 = 1;
const KIND_CELL: u8 = 2;

/// The checksummed first record: binds the journal to one campaign
/// (spec name + content digest + grid size) and one shard geometry, so
/// resume and merge can refuse foreign journals with typed errors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Spec name, echoed for human consumption.
    pub spec_name: String,
    /// Digest of the canonical spec JSON (see `CampaignSpec::digest`).
    pub spec_digest: String,
    /// Cells in the full (unsharded) grid.
    pub total_cells: usize,
    /// This journal's 1-based shard index.
    pub shard_index: usize,
    /// Shards in the partition.
    pub shard_count: usize,
}

#[derive(Debug, Serialize, Deserialize)]
struct AttemptRecord {
    cell: usize,
}

/// Whether `bytes` begin with the journal magic.
#[must_use]
pub fn is_journal_bytes(bytes: &[u8]) -> bool {
    FORMAT.matches(bytes)
}

/// The salvageable state of a journal: header, the longest valid
/// record prefix, and how much torn tail follows it.
#[derive(Debug, Clone, PartialEq)]
pub struct Salvage {
    /// The validated header record.
    pub header: JournalHeader,
    /// Completion records in append order, first occurrence per cell.
    pub cells: Vec<CellResult>,
    /// Attempt records in append order (may repeat a cell).
    pub attempts: Vec<usize>,
    /// Bytes of valid prefix (magic + header + intact records).
    pub valid_bytes: u64,
    /// Bytes of torn tail after the valid prefix.
    pub dropped_bytes: u64,
}

impl Salvage {
    /// The salvaged completions as a [`ShardReport`] — the bridge that
    /// lets `merge_shards` consume journal files directly. It consumes
    /// the salvage, so the cells move instead of being cloned; read
    /// `dropped_bytes` or [`pending_attempts`](Salvage::pending_attempts)
    /// first.
    // A consuming `to_*`: every caller drops the salvage right after,
    // and the benchmark calls it by this name.
    #[allow(clippy::wrong_self_convention)]
    #[must_use]
    pub fn to_shard_report(self) -> ShardReport {
        let h = self.header;
        ShardReport::salvaged(
            h.spec_name,
            h.spec_digest,
            h.total_cells,
            h.shard_index,
            h.shard_count,
            self.cells,
        )
    }

    /// Cells with attempt records but no completion record, with their
    /// attempt counts — the poisoned-cell candidates. Sorted by cell;
    /// O((attempts + cells) · log) however the records interleave.
    #[must_use]
    pub fn pending_attempts(&self) -> Vec<(usize, u32)> {
        let done: HashSet<usize> = self.cells.iter().map(|c| c.cell).collect();
        let mut counts: BTreeMap<usize, u32> = BTreeMap::new();
        for &cell in self.attempts.iter().filter(|c| !done.contains(c)) {
            *counts.entry(cell).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }
}

/// Reads and salvages a journal without modifying it: the longest
/// valid record prefix plus the size of the torn tail.
///
/// # Errors
///
/// Returns [`CampaignError::CorruptResume`](super::CampaignError::CorruptResume)
/// when the file is not a journal (bad magic) or its header record is
/// torn — there is nothing to salvage without a trusted header — and
/// I/O errors as [`EngineError::Config`].
pub fn read_journal(path: &Path) -> Result<Salvage, EngineError> {
    let mut attempts = Vec::new();
    let scan = FORMAT.read::<JournalHeader>(path, |kind, payload, cells| {
        let text = std::str::from_utf8(payload).ok()?;
        match kind {
            KIND_ATTEMPT => attempts.push(serde_json::from_str::<AttemptRecord>(text).ok()?.cell),
            KIND_CELL => cells.push(serde_json::from_str(text).ok()?),
            _ => return None,
        }
        Some(())
    })?;
    Ok(Salvage {
        header: scan.header,
        cells: scan.cells,
        attempts,
        valid_bytes: scan.valid_bytes,
        dropped_bytes: scan.dropped_bytes,
    })
}

/// Salvages a journal **in place**: scans like [`read_journal`], then
/// truncates the torn tail (fsync'd) so the file ends on a record
/// boundary and can be appended to again.
///
/// # Errors
///
/// As [`read_journal`], plus I/O errors from the truncation itself.
pub fn recover_journal(path: &Path) -> Result<Salvage, EngineError> {
    let salvage = read_journal(path)?;
    FORMAT.cut_torn_tail(path, salvage.valid_bytes, salvage.dropped_bytes)?;
    Ok(salvage)
}

/// Appends checksummed records to a journal file. The public appends
/// are durable on return: each writes the records staged before it and
/// its own in one `write` and one `fsync`. The sweep driver also stages
/// completion records, which reach the file in append order with the
/// next durable append or when the sweep flushes the writer.
#[derive(Debug)]
pub struct JournalWriter {
    out: Appender,
    /// Record appends completed since this writer opened (attempt +
    /// completion records, staged or written; the header is not
    /// counted).
    appends: u64,
    /// Crash-injection hook: the append with this ordinal writes the
    /// staged records and half its own bytes, fsyncs, and fails with
    /// [`TORN_WRITE_INJECTED`].
    tear_after: Option<u64>,
    /// Whole records appended but not yet written.
    staged: Vec<u8>,
}

impl JournalWriter {
    /// Creates (truncating) a journal and durably writes magic+header.
    ///
    /// # Errors
    ///
    /// I/O failures as [`EngineError::Config`].
    pub fn create(
        path: &Path,
        header: &JournalHeader,
        tear_after: Option<u64>,
    ) -> Result<JournalWriter, EngineError> {
        Ok(JournalWriter {
            out: Appender::create(&FORMAT, path, header)?,
            appends: 0,
            tear_after,
            staged: Vec::new(),
        })
    }

    /// Opens an existing journal for appending. The caller is expected
    /// to have validated/salvaged it first ([`recover_journal`]).
    ///
    /// # Errors
    ///
    /// I/O failures as [`EngineError::Config`].
    pub fn open_append(path: &Path, tear_after: Option<u64>) -> Result<JournalWriter, EngineError> {
        Ok(JournalWriter {
            out: Appender::open_append(&FORMAT, path)?,
            appends: 0,
            tear_after,
            staged: Vec::new(),
        })
    }

    /// Durably records that `cell` is about to execute, with the
    /// records staged before it.
    ///
    /// # Errors
    ///
    /// I/O failures, and the injected tear when armed.
    pub fn append_attempt(&mut self, cell: usize) -> Result<(), EngineError> {
        let payload = serde_json::to_string(&AttemptRecord { cell })
            .map_err(|e| EngineError::Config(format!("serialize attempt record: {e}")))?;
        self.append_record(KIND_ATTEMPT, payload.as_bytes())?;
        self.flush()
    }

    /// Durably records a completed cell, with the records staged before
    /// it.
    ///
    /// # Errors
    ///
    /// I/O failures, and the injected tear when armed.
    pub fn append_cell(&mut self, cell: &CellResult) -> Result<(), EngineError> {
        self.stage_cell(cell)?;
        self.flush()
    }

    /// Records a completed cell without writing it: the next durable
    /// append or [`flush`](JournalWriter::flush) writes it. An armed
    /// tear still fires on this record's ordinal.
    pub(crate) fn stage_cell(&mut self, cell: &CellResult) -> Result<(), EngineError> {
        let payload = serde_json::to_string(cell)
            .map_err(|e| EngineError::Config(format!("serialize cell record: {e}")))?;
        self.append_record(KIND_CELL, payload.as_bytes())
    }

    /// Writes the staged records with one `write` and one `fsync`; a
    /// no-op when none is staged.
    ///
    /// # Errors
    ///
    /// I/O failures. The staged records are dropped either way, so a
    /// failed write is never repeated after its partial bytes.
    pub(crate) fn flush(&mut self) -> Result<(), EngineError> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let written = self.out.write_synced("append", FORMAT.record, &self.staged);
        self.staged.clear();
        written
    }

    /// Stages one record, or, on the armed tear's ordinal, writes the
    /// staged records and half of this one and fails.
    fn append_record(&mut self, kind: u8, payload: &[u8]) -> Result<(), EngineError> {
        let record = self.out.record(kind, payload)?;
        if self.tear_after == Some(self.appends) {
            // Crash injection: persist half the record — exactly what a
            // power cut mid-write leaves behind — then die.
            let half = (record.len() / 2).max(1);
            let mut bytes = std::mem::take(&mut self.staged);
            bytes.extend_from_slice(&record[..half]);
            self.out.write_synced("write", "torn record", &bytes)?;
            return Err(EngineError::Config(format!(
                "{TORN_WRITE_INJECTED}: wrote {half} of {} record bytes to {} and aborted",
                record.len(),
                self.out.path().display()
            )));
        }
        self.staged.extend_from_slice(&record);
        self.appends += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::fs::OpenOptions;
    use std::io::Write as _;
    use std::path::PathBuf;

    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("helios-journal-test-{}-{name}", std::process::id()));
        p
    }

    fn header() -> JournalHeader {
        JournalHeader {
            spec_name: "t".into(),
            spec_digest: "d".into(),
            total_cells: 4,
            shard_index: 1,
            shard_count: 1,
        }
    }

    fn cell(i: usize) -> CellResult {
        CellResult {
            cell: i,
            family: "montage".into(),
            platform: "workstation".into(),
            scheduler: "heft".into(),
            seed: i as u64,
            makespan_secs: 1.5,
            slr: 1.0,
            energy_j: 2.0,
            transfers: 1,
            transfer_bytes: 10.0,
            failures: 0,
            retries: 0,
            completed: true,
            wasted_work_secs: 0.0,
            recovery_overhead_secs: 0.0,
            makespan_degradation: 0.0,
            reroutes: 0,
            partition_downtime_secs: 0.0,
            rematerialized_tasks: 0,
            rematerialized_bytes: 0.0,
            incomplete_reason: None,
            capacity_secs: 0.0,
            preemptions: 0,
            drain_migrated_tasks: 0,
            join_utilization: 0.0,
        }
    }

    #[test]
    fn round_trips_header_attempts_and_cells() {
        let path = tmp("roundtrip.journal");
        let mut w = JournalWriter::create(&path, &header(), None).unwrap();
        w.append_attempt(0).unwrap();
        w.append_cell(&cell(0)).unwrap();
        w.append_attempt(2).unwrap();
        drop(w);

        let s = read_journal(&path).unwrap();
        assert_eq!(s.header, header());
        assert_eq!(s.cells, vec![cell(0)]);
        assert_eq!(s.attempts, vec![0, 2]);
        assert_eq!(s.dropped_bytes, 0);
        assert_eq!(s.pending_attempts(), vec![(2, 1)]);
        std::fs::remove_file(&path).unwrap();
    }

    /// The quadratic tally `pending_attempts` replaced: one scan of the
    /// completions and one of the tally per attempt record.
    fn pending_attempts_reference(s: &Salvage) -> Vec<(usize, u32)> {
        let mut out: Vec<(usize, u32)> = Vec::new();
        for &cell in &s.attempts {
            if s.cells.iter().any(|c| c.cell == cell) {
                continue;
            }
            match out.iter_mut().find(|(c, _)| *c == cell) {
                Some((_, n)) => *n += 1,
                None => out.push((cell, 1)),
            }
        }
        out.sort_unstable_by_key(|&(c, _)| c);
        out
    }

    #[test]
    fn pending_attempts_match_the_quadratic_reference() {
        use rand::{Rng, SeedableRng};
        let salvage = |cells: Vec<usize>, attempts: Vec<usize>| Salvage {
            header: header(),
            cells: cells.into_iter().map(cell).collect(),
            attempts,
            valid_bytes: 0,
            dropped_bytes: 0,
        };
        // Hand-made journals: repeated attempts, completed cells among
        // them, completions before and after their attempts.
        let mut cases = vec![
            salvage(vec![], vec![]),
            salvage(vec![0, 1], vec![0, 1]),
            salvage(vec![2], vec![5, 2, 5, 3, 5, 2, 3]),
            salvage(vec![7, 1], vec![9, 9, 9, 1, 7, 1, 0, 9, 0]),
        ];
        // Random interleavings: 40 journals of up to 60 attempts over
        // 12 cells, a third of the cells completed.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        for _ in 0..40 {
            let attempts = (0..rng.gen_range(0..60))
                .map(|_| rng.gen_range(0..12))
                .collect();
            let cells = (0..12).filter(|_| rng.gen_range(0..3) == 0).collect();
            cases.push(salvage(cells, attempts));
        }
        for s in &cases {
            assert_eq!(s.pending_attempts(), pending_attempts_reference(s), "{s:?}");
        }
        assert_eq!(cases[2].pending_attempts(), vec![(3, 2), (5, 3)]);
    }

    #[test]
    fn duplicated_completion_keeps_the_first_occurrence() {
        let path = tmp("dup.journal");
        let mut w = JournalWriter::create(&path, &header(), None).unwrap();
        w.append_cell(&cell(0)).unwrap();
        w.append_cell(&cell(1)).unwrap();
        let mut again = cell(0);
        again.makespan_secs = 99.0;
        w.append_cell(&again).unwrap();
        w.append_attempt(0).unwrap();
        drop(w);
        let s = read_journal(&path).unwrap();
        assert_eq!(s.cells, vec![cell(0), cell(1)]);
        assert_eq!(s.attempts, vec![0]);
        assert_eq!(s.dropped_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// Completions mostly in rising cell order with repeats mixed in,
    /// each repeat with other values, read back as the reference
    /// salvage says: the first occurrence of each cell, in append order.
    #[test]
    fn repeated_completions_salvage_like_the_reference() {
        use rand::{Rng, SeedableRng};
        let path = tmp("repeated.journal");
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(29);
        for _ in 0..40 {
            let mut w = JournalWriter::create(&path, &header(), None).unwrap();
            let mut expected = Vec::new();
            for n in 0..rng.gen_range(0..24) {
                let repeat = rng.gen_range(0..3) == 0;
                let mut c = cell(if repeat { rng.gen_range(0..12) } else { n });
                c.makespan_secs = n as f64;
                if rng.gen_range(0..3) == 0 {
                    w.append_attempt(c.cell).unwrap();
                }
                w.append_cell(&c).unwrap();
                expected.push(c);
            }
            drop(w);
            let mut seen = std::collections::HashSet::new();
            expected.retain(|c| seen.insert(c.cell));
            let s = read_journal(&path).unwrap();
            assert_eq!(s.cells, expected);
            assert_eq!(s.valid_bytes, std::fs::metadata(&path).unwrap().len());
            assert_eq!(s.dropped_bytes, 0);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_salvaged_and_truncated() {
        let path = tmp("torn.journal");
        let mut w = JournalWriter::create(&path, &header(), None).unwrap();
        w.append_cell(&cell(0)).unwrap();
        w.append_cell(&cell(1)).unwrap();
        drop(w);
        let intact = std::fs::metadata(&path).unwrap().len();
        // Simulate a power cut mid-append: garbage half-record tail.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[KIND_CELL, 200, 0, 0, 0, 1, 2]).unwrap();
        drop(f);

        let s = recover_journal(&path).unwrap();
        assert_eq!(s.cells.len(), 2);
        assert_eq!(s.valid_bytes, intact);
        assert_eq!(s.dropped_bytes, 7);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact);
        // After truncation the journal reads clean and appendable.
        let s2 = read_journal(&path).unwrap();
        assert_eq!(s2.dropped_bytes, 0);
        let mut w = JournalWriter::open_append(&path, None).unwrap();
        w.append_cell(&cell(2)).unwrap();
        drop(w);
        assert_eq!(read_journal(&path).unwrap().cells.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_crc_starts_the_torn_tail() {
        let path = tmp("crc.journal");
        let mut w = JournalWriter::create(&path, &header(), None).unwrap();
        w.append_cell(&cell(0)).unwrap();
        let boundary = std::fs::metadata(&path).unwrap().len();
        w.append_cell(&cell(1)).unwrap();
        drop(w);
        // Flip one payload byte of the second record.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 3;
        bytes[at] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let s = read_journal(&path).unwrap();
        assert_eq!(s.cells.len(), 1, "the CRC-failing record is dropped");
        assert_eq!(s.valid_bytes, boundary);
        assert!(s.dropped_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_tear_writes_half_a_record() {
        let path = tmp("tear.journal");
        let mut w = JournalWriter::create(&path, &header(), Some(1)).unwrap();
        w.append_cell(&cell(0)).unwrap();
        let err = w.append_cell(&cell(1)).unwrap_err().to_string();
        assert!(err.contains(TORN_WRITE_INJECTED), "{err}");
        drop(w);
        let s = recover_journal(&path).unwrap();
        assert_eq!(s.cells, vec![cell(0)]);
        assert!(s.dropped_bytes > 0, "the half-record must be measurable");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_journal_and_torn_header_are_corrupt_resume() {
        let path = tmp("magic.journal");
        std::fs::write(&path, b"{\"not\": \"a journal\"}").unwrap();
        let err = read_journal(&path).unwrap_err().to_string();
        assert!(err.contains("bad magic"), "{err}");
        assert!(err.contains("corrupt resume"), "{err}");

        let mut torn = JOURNAL_MAGIC.to_vec();
        torn.extend_from_slice(&[40, 0, 0, 0, 9, 9]);
        std::fs::write(&path, &torn).unwrap();
        let err = read_journal(&path).unwrap_err().to_string();
        assert!(err.contains("header"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
