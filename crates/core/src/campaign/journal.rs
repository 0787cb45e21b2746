//! The write-ahead cell journal: crash-consistent sweep durability.
//!
//! A journal is an append-only binary file recording sweep progress at
//! cell granularity. The layout is
//!
//! ```text
//! magic  "HELIOSJ1"                                    (8 bytes)
//! header [len: u32][crc32: u32][JournalHeader JSON]    (checksummed)
//! record [kind: u8][len: u32][crc32: u32][payload]     (repeated)
//! ```
//!
//! with little-endian integers and IEEE CRC-32 over the payload. Two
//! record kinds exist: an *attempt* (kind 1, `{"cell":N}`) appended
//! before a cell executes, and a *completion* (kind 2, a compact-JSON
//! [`CellResult`]) appended after. Every append is `fsync`'d, so a
//! `kill -9` at any instant loses at most the record being written —
//! never a cell that was reported durable.
//!
//! Recovery is longest-valid-prefix salvage: [`read_journal`] scans
//! records until the first length/bounds/CRC/decode failure and treats
//! everything after as the torn tail; [`recover_journal`] additionally
//! truncates that tail in place so the file can be appended to again.
//! Because cells are pure functions of the spec and their coordinates,
//! a resumed sweep re-runs exactly the missing cells and compiles a
//! report byte-identical to an uninterrupted run.
//!
//! Attempt records make crash *loops* observable: a cell whose attempt
//! count reaches the poison limit with no completion record has killed
//! the process that many times and is quarantined by the driver
//! (recorded `completed = false, incomplete_reason = "poisoned"`)
//! instead of being retried forever.
//!
//! The module also salvages the *legacy* resume artifact: a truncated
//! pretty-printed JSON [`ShardReport`] (the pre-journal `--out` file,
//! torn by a crash mid-rewrite) can be cut back to its longest valid
//! cell prefix by [`salvage_json_shard_report`].

use std::collections::{BTreeMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use super::sweep::{CellResult, ShardReport};
use super::CampaignError;
use crate::EngineError;

/// File magic: identifies a helios cell journal, version 1.
pub const JOURNAL_MAGIC: [u8; 8] = *b"HELIOSJ1";

/// Message prefix of the injected torn-write error, so harnesses can
/// tell the synthetic tear from a real I/O failure.
pub const TORN_WRITE_INJECTED: &str = "injected torn journal write";

/// Attempts without a completion record before the driver quarantines
/// a cell as poisoned.
pub const DEFAULT_POISON_LIMIT: u32 = 3;

/// Upper bound on a single record payload; anything larger in the
/// length field is torn-tail garbage, not a record.
const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

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

/// IEEE CRC-32 lookup table, built at compile time.
const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// IEEE CRC-32 of `bytes` (the checksum guarding every record).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Whether `bytes` begin with the journal magic.
#[must_use]
pub fn is_journal_bytes(bytes: &[u8]) -> bool {
    bytes.len() >= JOURNAL_MAGIC.len() && bytes[..JOURNAL_MAGIC.len()] == JOURNAL_MAGIC
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
    /// lets `merge_shards` consume journal files directly.
    #[must_use]
    pub fn to_shard_report(&self) -> ShardReport {
        let h = &self.header;
        ShardReport::salvaged(
            &h.spec_name,
            &h.spec_digest,
            h.total_cells,
            h.shard_index,
            h.shard_count,
            self.cells.clone(),
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

fn io_err(path: &Path, what: &str, e: &std::io::Error) -> EngineError {
    EngineError::Config(format!("journal {}: {what}: {e}", path.display()))
}

fn corrupt(path: &Path, offset: u64, detail: String) -> EngineError {
    CampaignError::CorruptResume {
        file: path.display().to_string(),
        offset,
        detail,
    }
    .into()
}

/// Reads and salvages a journal without modifying it: the longest
/// valid record prefix plus the size of the torn tail.
///
/// # Errors
///
/// Returns [`CampaignError::CorruptResume`] when the file is not a
/// journal (bad magic) or its header record is torn — there is nothing
/// to salvage without a trusted header — and I/O errors as
/// [`EngineError::Config`].
pub fn read_journal(path: &Path) -> Result<Salvage, EngineError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, "read", &e))?;
    salvage_bytes(path, &bytes)
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
    if salvage.dropped_bytes > 0 {
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, "open for truncate", &e))?;
        file.set_len(salvage.valid_bytes)
            .map_err(|e| io_err(path, "truncate torn tail", &e))?;
        file.sync_all()
            .map_err(|e| io_err(path, "fsync after truncate", &e))?;
    }
    Ok(salvage)
}

fn salvage_bytes(path: &Path, bytes: &[u8]) -> Result<Salvage, EngineError> {
    if !is_journal_bytes(bytes) {
        return Err(corrupt(
            path,
            0,
            "not a helios cell journal (bad magic); point --journal at a journal \
             file, or delete the file to start fresh"
                .into(),
        ));
    }
    let mut at = JOURNAL_MAGIC.len();

    // Header record: [len][crc][payload], no kind byte.
    let torn_header = |at: usize| {
        corrupt(
            path,
            at as u64,
            "journal header record is torn or corrupt; the file cannot be \
             trusted — delete it to start fresh"
                .into(),
        )
    };
    if bytes.len() < at + 8 {
        return Err(torn_header(at));
    }
    let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
    if len as u32 > MAX_RECORD_LEN || bytes.len() < at + 8 + len {
        return Err(torn_header(at));
    }
    let payload = &bytes[at + 8..at + 8 + len];
    if crc32(payload) != crc {
        return Err(torn_header(at));
    }
    let header: JournalHeader = match std::str::from_utf8(payload)
        .ok()
        .and_then(|s| serde_json::from_str(s).ok())
    {
        Some(h) => h,
        None => return Err(torn_header(at)),
    };
    at += 8 + len;

    // Cell records: longest valid prefix; the first bad record starts
    // the torn tail.
    let mut cells: Vec<CellResult> = Vec::new();
    let mut attempts: Vec<usize> = Vec::new();
    let mut valid = at;
    while at + 9 <= bytes.len() {
        let kind = bytes[at];
        if kind != KIND_ATTEMPT && kind != KIND_CELL {
            break;
        }
        let len = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[at + 5..at + 9].try_into().expect("4 bytes"));
        if len as u32 > MAX_RECORD_LEN || bytes.len() < at + 9 + len {
            break;
        }
        let payload = &bytes[at + 9..at + 9 + len];
        if crc32(payload) != crc {
            break;
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break;
        };
        if kind == KIND_ATTEMPT {
            let Ok(a) = serde_json::from_str::<AttemptRecord>(text) else {
                break;
            };
            attempts.push(a.cell);
        } else {
            let Ok(c) = serde_json::from_str::<CellResult>(text) else {
                break;
            };
            // Deterministic cells make duplicates identical; keep the
            // first occurrence so salvage is order-stable.
            if !cells.iter().any(|d| d.cell == c.cell) {
                cells.push(c);
            }
        }
        at += 9 + len;
        valid = at;
    }

    Ok(Salvage {
        header,
        cells,
        attempts,
        valid_bytes: valid as u64,
        dropped_bytes: (bytes.len() - valid) as u64,
    })
}

/// Appends checksummed, fsync'd records to a journal file.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    /// Record appends completed since this writer opened (attempt +
    /// completion records; the header is not counted).
    appends: u64,
    /// Crash-injection hook: the append with this ordinal writes only
    /// half its bytes, fsyncs, and fails with [`TORN_WRITE_INJECTED`].
    tear_after: Option<u64>,
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
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err(path, "create", &e))?;
        let payload = serde_json::to_string(header)
            .map_err(|e| EngineError::Config(format!("serialize journal header: {e}")))?;
        let payload = payload.as_bytes();
        let mut buf = Vec::with_capacity(JOURNAL_MAGIC.len() + 8 + payload.len());
        buf.extend_from_slice(&JOURNAL_MAGIC);
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(payload).to_le_bytes());
        buf.extend_from_slice(payload);
        file.write_all(&buf)
            .map_err(|e| io_err(path, "write header", &e))?;
        file.sync_data()
            .map_err(|e| io_err(path, "fsync header", &e))?;
        Ok(JournalWriter {
            file,
            path: path.to_path_buf(),
            appends: 0,
            tear_after,
        })
    }

    /// Opens an existing journal for appending. The caller is expected
    /// to have validated/salvaged it first ([`recover_journal`]).
    ///
    /// # Errors
    ///
    /// I/O failures as [`EngineError::Config`].
    pub fn open_append(path: &Path, tear_after: Option<u64>) -> Result<JournalWriter, EngineError> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, "open for append", &e))?;
        Ok(JournalWriter {
            file,
            path: path.to_path_buf(),
            appends: 0,
            tear_after,
        })
    }

    /// Durably records that `cell` is about to execute.
    ///
    /// # Errors
    ///
    /// I/O failures, and the injected tear when armed.
    pub fn append_attempt(&mut self, cell: usize) -> Result<(), EngineError> {
        let payload = serde_json::to_string(&AttemptRecord { cell })
            .map_err(|e| EngineError::Config(format!("serialize attempt record: {e}")))?;
        self.append_record(KIND_ATTEMPT, payload.as_bytes())
    }

    /// Durably records a completed cell.
    ///
    /// # Errors
    ///
    /// I/O failures, and the injected tear when armed.
    pub fn append_cell(&mut self, cell: &CellResult) -> Result<(), EngineError> {
        let payload = serde_json::to_string(cell)
            .map_err(|e| EngineError::Config(format!("serialize cell record: {e}")))?;
        self.append_record(KIND_CELL, payload.as_bytes())
    }

    fn append_record(&mut self, kind: u8, payload: &[u8]) -> Result<(), EngineError> {
        if payload.len() as u64 > u64::from(MAX_RECORD_LEN) {
            return Err(EngineError::Config(format!(
                "journal record payload of {} bytes exceeds the {MAX_RECORD_LEN}-byte cap",
                payload.len()
            )));
        }
        let mut buf = Vec::with_capacity(9 + payload.len());
        buf.push(kind);
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(payload).to_le_bytes());
        buf.extend_from_slice(payload);
        if self.tear_after == Some(self.appends) {
            // Crash injection: persist half the record — exactly what a
            // power cut mid-write leaves behind — then die.
            let half = (buf.len() / 2).max(1);
            self.file
                .write_all(&buf[..half])
                .map_err(|e| io_err(&self.path, "write torn record", &e))?;
            self.file
                .sync_data()
                .map_err(|e| io_err(&self.path, "fsync torn record", &e))?;
            return Err(EngineError::Config(format!(
                "{TORN_WRITE_INJECTED}: wrote {half} of {} record bytes to {} and aborted",
                buf.len(),
                self.path.display()
            )));
        }
        self.file
            .write_all(&buf)
            .map_err(|e| io_err(&self.path, "append record", &e))?;
        self.file
            .sync_data()
            .map_err(|e| io_err(&self.path, "fsync record", &e))?;
        self.appends += 1;
        Ok(())
    }
}

/// A salvaged legacy JSON resume artifact: the report rebuilt from the
/// longest valid cell prefix plus how many bytes were torn off.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonSalvage {
    /// Shard metadata plus every cell that parsed intact.
    pub report: ShardReport,
    /// Bytes after the last intact cell object (the torn tail).
    pub dropped_bytes: u64,
}

/// Salvages a truncated pretty-printed [`ShardReport`] JSON file — the
/// pre-journal `--out` artifact a crash mid-rewrite leaves behind.
///
/// The serializer emits shard metadata before the `"cells"` array, so
/// a torn file still carries trustworthy spec/shard identity; cells
/// are recovered one balanced JSON object at a time until the first
/// torn or unparseable one. Returns `None` when even the metadata
/// prefix is damaged (nothing salvageable).
#[must_use]
pub fn salvage_json_shard_report(text: &str) -> Option<JsonSalvage> {
    let cells_key = text.find("\"cells\"")?;
    let meta_prefix = text[..cells_key].trim_end();
    if !meta_prefix.ends_with(',') {
        return None;
    }
    let mut meta = meta_prefix.to_string();
    meta.push_str("\"cells\":[]}");
    let mut report: ShardReport = serde_json::from_str(&meta).ok()?;

    let bytes = text.as_bytes();
    let mut i = cells_key + "\"cells\"".len();
    let skip_ws = |bytes: &[u8], mut i: usize| {
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        i
    };
    i = skip_ws(bytes, i);
    if bytes.get(i) != Some(&b':') {
        return None;
    }
    i = skip_ws(bytes, i + 1);
    if bytes.get(i) != Some(&b'[') {
        return None;
    }
    i += 1;
    let mut consumed = i;
    loop {
        i = skip_ws(bytes, i);
        match bytes.get(i) {
            Some(b',') => {
                i += 1;
                continue;
            }
            Some(b'{') => {}
            // `]` (file complete) or anything else: stop; a complete
            // file parses whole and never reaches salvage anyway.
            _ => break,
        }
        let Some(end) = scan_balanced_object(bytes, i) else {
            break; // torn mid-object
        };
        let Ok(cell) = serde_json::from_str::<CellResult>(&text[i..end]) else {
            break;
        };
        report.cells.push(cell);
        i = end;
        consumed = end;
    }
    Some(JsonSalvage {
        report,
        dropped_bytes: (text.len() - consumed) as u64,
    })
}

/// Returns the index just past the `}` matching the `{` at `start`,
/// honoring strings and escapes; `None` if the object never closes.
fn scan_balanced_object(bytes: &[u8], start: usize) -> Option<usize> {
    debug_assert_eq!(bytes.get(start), Some(&b'{'));
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (off, &b) in bytes.iter().enumerate().skip(start) {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(off + 1);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
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
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
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

    #[test]
    fn json_shard_report_salvage_recovers_the_valid_prefix() {
        let report = ShardReport {
            spec_name: "t".into(),
            spec_digest: "d".into(),
            total_cells: 4,
            shard_index: 1,
            shard_count: 1,
            cells: vec![cell(0), cell(1), cell(2)],
        };
        let full = serde_json::to_string_pretty(&report).unwrap();
        // Tear the file in the middle of the last cell object.
        let torn = &full[..full.len() - 40];
        let s = salvage_json_shard_report(torn).expect("salvageable");
        assert_eq!(s.report.spec_digest, "d");
        assert_eq!(s.report.cells, vec![cell(0), cell(1)]);
        assert!(s.dropped_bytes > 0, "the torn object counts as dropped");
        assert!((s.dropped_bytes as usize) < torn.len());

        // Torn before any metadata → nothing salvageable.
        assert!(salvage_json_shard_report(&full[..10]).is_none());
    }
}
