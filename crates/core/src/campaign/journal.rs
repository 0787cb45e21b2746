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
//! This module holds only the payload codec: [`read_journal`] is one
//! call of the framed-file layer's read with the record decoder, and
//! the framing, the longest-valid-prefix salvage into the one
//! [`DurableSalvage`] of both formats, the tally of attempts without a
//! completion and the in-place truncation of
//! [`Durable::recover`](crate::Durable::recover) are that layer's. The
//! sweep, the CLI and the fuzz oracles reach the journal through
//! [`Durable`](crate::Durable), the one place that knows the durable
//! formats: it tells a journal by its magic, words its messages and
//! reads or recovers it.
//! Because cells are pure functions of the spec and their coordinates,
//! a resumed sweep re-runs exactly the missing cells and compiles a
//! report byte-identical to an uninterrupted run.
//!
//! Attempt records make crash *loops* observable: a cell whose attempt
//! count reaches the poison limit with no completion record has killed
//! the process that many times and is quarantined by the driver
//! (recorded `completed = false, incomplete_reason = "poisoned"`)
//! instead of being retried forever.

use std::path::Path;

use serde::{Deserialize, Serialize};

use super::durable::DurableSalvage;
use super::sweep::CellResult;
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
    // A cell record is the cell's JSON, which names all 25 fields.
    cell_bytes: 256,
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

/// Reads and salvages a journal without modifying it: the longest
/// valid record prefix plus the size of the torn tail, and the cells
/// attempted without a completion.
///
/// # Errors
///
/// Returns [`CampaignError::CorruptResume`](super::CampaignError::CorruptResume)
/// when the file is not a journal (bad magic) or its header record is
/// torn — there is nothing to salvage without a trusted header — and
/// I/O errors as [`EngineError::Config`].
pub fn read_journal(path: &Path) -> Result<DurableSalvage, EngineError> {
    FORMAT.read(path, |_: &JournalHeader| Ok(()), decode_record)
}

/// Decodes one record payload: an attempt's cell index onto `attempts`
/// or a completion's cell onto `cells`; `None` for anything else.
fn decode_record(
    kind: u8,
    payload: &[u8],
    cells: &mut Vec<CellResult>,
    attempts: &mut Vec<usize>,
) -> Option<()> {
    let text = std::str::from_utf8(payload).ok()?;
    match kind {
        KIND_ATTEMPT => attempts.push(serde_json::from_str::<AttemptRecord>(text).ok()?.cell),
        KIND_CELL => cells.push(serde_json::from_str(text).ok()?),
        _ => return None,
    }
    Some(())
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
    /// to have validated/salvaged it first
    /// ([`Durable::recover`](crate::Durable::recover)).
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

/// The attempt records of the journal at `path`, in append order.
#[cfg(test)]
pub(crate) fn attempt_log(path: &Path) -> Vec<usize> {
    let mut log = Vec::new();
    let record = |kind, payload: &[u8], cells: &mut Vec<CellResult>, attempts: &mut Vec<_>| {
        decode_record(kind, payload, cells, attempts)?;
        if kind == KIND_ATTEMPT {
            log.extend(attempts.last());
        }
        Some(())
    };
    FORMAT
        .read(path, |_: &JournalHeader| Ok(()), record)
        .expect("a readable journal");
    log
}

#[cfg(test)]
mod tests {
    use std::fs::OpenOptions;
    use std::io::Write as _;
    use std::path::PathBuf;

    use super::*;
    use crate::campaign::sweep::ShardReport;

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

    #[test]
    fn no_cell_record_is_shorter_than_cell_bytes() {
        // The smallest cell writes the shortest record: every number 0,
        // every string empty, no incomplete reason.
        let shortest = serde_json::to_string(&CellResult::default()).unwrap();
        assert!(FORMAT.cell_bytes <= shortest.len(), "{}", shortest.len());
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
        let h = header();
        let report = ShardReport {
            spec_name: h.spec_name,
            spec_digest: h.spec_digest,
            total_cells: h.total_cells,
            shard_index: h.shard_index,
            shard_count: h.shard_count,
            cells: vec![cell(0)],
        };
        assert_eq!(s.report, report);
        assert_eq!(attempt_log(&path), vec![0, 2]);
        assert_eq!(s.dropped_bytes, 0);
        assert_eq!(s.pending, vec![(2, 1)]);
        std::fs::remove_file(&path).unwrap();
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
        assert_eq!(s.report.cells, vec![cell(0), cell(1)]);
        assert_eq!(attempt_log(&path), vec![0]);
        assert!(s.pending.is_empty());
        assert_eq!(s.dropped_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// Completions mostly in rising cell order with repeats mixed in,
    /// each repeat with other values, read back as the reference
    /// salvage says: the first occurrence of each cell, by cell.
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
            expected.sort_by_key(|c| c.cell);
            let s = read_journal(&path).unwrap();
            assert_eq!(s.report.cells, expected);
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

        let s = crate::Durable::Journal.recover(&path).unwrap();
        assert_eq!(s.report.cells.len(), 2);
        assert_eq!(s.valid_bytes, intact);
        assert_eq!(s.dropped_bytes, 7);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact);
        // After truncation the journal reads clean and appendable.
        let s2 = read_journal(&path).unwrap();
        assert_eq!(s2.dropped_bytes, 0);
        let mut w = JournalWriter::open_append(&path, None).unwrap();
        w.append_cell(&cell(2)).unwrap();
        drop(w);
        assert_eq!(read_journal(&path).unwrap().report.cells.len(), 3);
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
        assert_eq!(s.report.cells.len(), 1, "the CRC-failing record is dropped");
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
        let s = crate::Durable::Journal.recover(&path).unwrap();
        assert_eq!(s.report.cells, vec![cell(0)]);
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
