//! The columnar segment file: append-friendly cell-row storage.
//!
//! A store file is an append-only binary file holding sweep cell rows
//! in columnar row groups. The layout is
//!
//! ```text
//! magic  "HELIOSC1"                                  (8 bytes)
//! header [len: u32][crc32: u32][StoreHeader JSON]    (checksummed)
//! group  [len: u32][crc32: u32][columnar payload]    (repeated)
//! ```
//!
//! with little-endian integers and IEEE CRC-32 (shared with the journal
//! codec) over each payload. A group payload is `[rows: u32]` followed
//! by one contiguous column of values per [`Column`], in schema order:
//! fixed-width columns are packed little-endian arrays, string columns
//! are a dictionary (`[entries: u32]` then length-prefixed UTF-8) plus
//! one `u32` code per row, and nullable string columns reserve code 0
//! for null. The header binds the file to one campaign (spec name +
//! digest + grid size), one shard geometry, and the writing schema, so
//! resume, merge, and query refuse foreign or stale files with typed
//! errors.
//!
//! Recovery is the journal's longest-valid-prefix salvage: a group that
//! fails length/CRC/decode checks starts the torn tail, and
//! [`recover_store`] truncates that tail in place so the file can be
//! appended to again. Duplicated cells keep their first occurrence.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use super::schema::{cell_from_row, row_from_cell, schema_names, Column, ColumnType, Row, Value};
use crate::campaign::journal::crc32;
use crate::campaign::sweep::{CellResult, ShardReport};
use crate::campaign::CampaignError;
use crate::EngineError;

/// File magic: identifies a helios columnar cell store, version 1.
pub const STORE_MAGIC: [u8; 8] = *b"HELIOSC1";

/// Rows buffered per columnar group before the writer flushes a
/// checksummed record.
pub const DEFAULT_SEGMENT_ROWS: usize = 256;

/// Upper bound on a single group payload; anything larger in the
/// length field is torn-tail garbage, not a record.
const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

/// The checksummed first record: campaign identity, shard geometry,
/// and the column list the file was written with.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreHeader {
    /// Spec name, echoed for human consumption.
    pub spec_name: String,
    /// Digest of the canonical spec JSON (see `CampaignSpec::digest`).
    pub spec_digest: String,
    /// Cells in the full (unsharded) grid.
    pub total_cells: usize,
    /// This store's 1-based shard index.
    pub shard_index: usize,
    /// Shards in the partition.
    pub shard_count: usize,
    /// Column names in write order; must match the current schema.
    pub columns: Vec<String>,
}

/// Whether `bytes` begin with the store magic.
#[must_use]
pub fn is_store_bytes(bytes: &[u8]) -> bool {
    bytes.len() >= STORE_MAGIC.len() && bytes[..STORE_MAGIC.len()] == STORE_MAGIC
}

/// The salvageable state of a store file: header, the longest valid
/// group prefix decoded back to cells, and the torn tail size.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreSalvage {
    /// The validated header record.
    pub header: StoreHeader,
    /// Decoded rows in append order, first occurrence per cell.
    pub cells: Vec<CellResult>,
    /// Bytes of valid prefix (magic + header + intact groups).
    pub valid_bytes: u64,
    /// Bytes of torn tail after the valid prefix.
    pub dropped_bytes: u64,
}

impl StoreSalvage {
    /// The salvaged cells as a [`ShardReport`] — the bridge that lets
    /// `merge_shards` and `query` consume store files directly.
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
}

fn io_err(path: &Path, what: &str, e: &std::io::Error) -> EngineError {
    EngineError::Config(format!("store {}: {what}: {e}", path.display()))
}

fn corrupt(path: &Path, offset: u64, detail: String) -> EngineError {
    CampaignError::CorruptResume {
        file: path.display().to_string(),
        offset,
        detail,
    }
    .into()
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn encode_wrong_type(col: Column, value: &Value) -> EngineError {
    EngineError::Config(format!(
        "store encode: column {:?} expected a {:?} value, got {value:?}",
        col.name(),
        col.column_type()
    ))
}

/// Encodes full-schema rows as one columnar group payload.
fn encode_group(rows: &[Row]) -> Result<Vec<u8>, EngineError> {
    let mut buf = Vec::new();
    push_u32(&mut buf, rows.len() as u32);
    for col in Column::ALL {
        let at = col.index();
        match col.column_type() {
            ColumnType::U64 => {
                for row in rows {
                    match &row[at] {
                        Value::U64(v) => buf.extend_from_slice(&v.to_le_bytes()),
                        other => return Err(encode_wrong_type(col, other)),
                    }
                }
            }
            ColumnType::U32 => {
                for row in rows {
                    match &row[at] {
                        Value::U32(v) => buf.extend_from_slice(&v.to_le_bytes()),
                        other => return Err(encode_wrong_type(col, other)),
                    }
                }
            }
            ColumnType::F64 => {
                for row in rows {
                    match &row[at] {
                        Value::F64(v) => buf.extend_from_slice(&v.to_bits().to_le_bytes()),
                        other => return Err(encode_wrong_type(col, other)),
                    }
                }
            }
            ColumnType::Bool => {
                for row in rows {
                    match &row[at] {
                        Value::Bool(v) => buf.push(u8::from(*v)),
                        other => return Err(encode_wrong_type(col, other)),
                    }
                }
            }
            ColumnType::Str | ColumnType::OptStr => {
                // Dictionary + per-row codes; OptStr reserves code 0
                // for null, so entry k lives at code k+1.
                let nullable = col.column_type() == ColumnType::OptStr;
                let mut dict: Vec<&str> = Vec::new();
                let mut codes: Vec<u32> = Vec::with_capacity(rows.len());
                for row in rows {
                    let code = match &row[at] {
                        Value::Str(s) => {
                            let entry = match dict.iter().position(|d| d == s) {
                                Some(at) => at,
                                None => {
                                    dict.push(s);
                                    dict.len() - 1
                                }
                            };
                            entry as u32 + u32::from(nullable)
                        }
                        Value::Null if nullable => 0,
                        other => return Err(encode_wrong_type(col, other)),
                    };
                    codes.push(code);
                }
                push_u32(&mut buf, dict.len() as u32);
                for entry in dict {
                    push_u32(&mut buf, entry.len() as u32);
                    buf.extend_from_slice(entry.as_bytes());
                }
                for code in codes {
                    push_u32(&mut buf, code);
                }
            }
        }
    }
    Ok(buf)
}

/// A forward-only cursor over a group payload; every take is
/// bounds-checked so torn or hostile bytes fail decode instead of
/// panicking.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let out = &self.bytes[self.at..end];
        self.at = end;
        Some(out)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
}

/// Decodes one columnar group payload back to full-schema rows.
/// `None` on any structural damage (the caller treats the record as
/// the start of the torn tail).
fn decode_group(payload: &[u8]) -> Option<Vec<Row>> {
    let mut cur = Cursor {
        bytes: payload,
        at: 0,
    };
    let rows = cur.u32()? as usize;
    if rows > MAX_RECORD_LEN as usize {
        return None;
    }
    // Not `vec![Vec::with_capacity(..); rows]`: cloning an empty Vec
    // drops its capacity, which would cost several reallocations per
    // row while the 25 columns push in.
    let mut out: Vec<Row> = (0..rows)
        .map(|_| Vec::with_capacity(Column::ALL.len()))
        .collect();
    for col in Column::ALL {
        match col.column_type() {
            ColumnType::U64 => {
                for row in out.iter_mut() {
                    let v = u64::from_le_bytes(cur.take(8)?.try_into().ok()?);
                    row.push(Value::U64(v));
                }
            }
            ColumnType::U32 => {
                for row in out.iter_mut() {
                    let v = u32::from_le_bytes(cur.take(4)?.try_into().ok()?);
                    row.push(Value::U32(v));
                }
            }
            ColumnType::F64 => {
                for row in out.iter_mut() {
                    let v = f64::from_bits(u64::from_le_bytes(cur.take(8)?.try_into().ok()?));
                    row.push(Value::F64(v));
                }
            }
            ColumnType::Bool => {
                for row in out.iter_mut() {
                    let v = match cur.take(1)? {
                        [0] => false,
                        [1] => true,
                        _ => return None,
                    };
                    row.push(Value::Bool(v));
                }
            }
            ColumnType::Str | ColumnType::OptStr => {
                let nullable = col.column_type() == ColumnType::OptStr;
                let entries = cur.u32()? as usize;
                if entries > payload.len() {
                    return None;
                }
                let mut dict: Vec<String> = Vec::with_capacity(entries);
                for _ in 0..entries {
                    let len = cur.u32()? as usize;
                    let text = std::str::from_utf8(cur.take(len)?).ok()?;
                    dict.push(text.to_owned());
                }
                for row in out.iter_mut() {
                    let code = cur.u32()? as usize;
                    let value = if nullable {
                        match code {
                            0 => Value::Null,
                            c => Value::Str(dict.get(c - 1)?.clone()),
                        }
                    } else {
                        Value::Str(dict.get(code)?.clone())
                    };
                    row.push(value);
                }
            }
        }
    }
    // A valid group consumes its payload exactly; trailing bytes mean
    // the record was not written by this codec.
    if cur.at != payload.len() {
        return None;
    }
    Some(out)
}

/// Reads and salvages a store file without modifying it: the longest
/// valid group prefix plus the size of the torn tail.
///
/// # Errors
///
/// Returns [`CampaignError::CorruptResume`] when the file is not a
/// store (bad magic), its header record is torn, or the header's
/// column list disagrees with the current schema — there is nothing to
/// salvage without a trusted header — and I/O errors as
/// [`EngineError::Config`].
pub fn read_store(path: &Path) -> Result<StoreSalvage, EngineError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, "read", &e))?;
    salvage_store_bytes(path, &bytes)
}

/// Salvages a store file **in place**: scans like [`read_store`], then
/// truncates the torn tail (fsync'd) so the file ends on a group
/// boundary and can be appended to again.
///
/// # Errors
///
/// As [`read_store`], plus I/O errors from the truncation itself.
pub fn recover_store(path: &Path) -> Result<StoreSalvage, EngineError> {
    let salvage = read_store(path)?;
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

fn salvage_store_bytes(path: &Path, bytes: &[u8]) -> Result<StoreSalvage, EngineError> {
    if !is_store_bytes(bytes) {
        return Err(corrupt(
            path,
            0,
            "not a helios cell store (bad magic); point --store at a store \
             file, or delete the file to start fresh"
                .into(),
        ));
    }
    let mut at = STORE_MAGIC.len();

    // Header record: [len][crc][payload].
    let torn_header = |at: usize| {
        corrupt(
            path,
            at as u64,
            "store header record is torn or corrupt; the file cannot be \
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
    let header: StoreHeader = match std::str::from_utf8(payload)
        .ok()
        .and_then(|s| serde_json::from_str(s).ok())
    {
        Some(h) => h,
        None => return Err(torn_header(at)),
    };
    if header.columns != schema_names() {
        return Err(corrupt(
            path,
            at as u64,
            "store column list does not match this build's schema; the file \
             was written by a different helios version — delete the file to \
             start fresh"
                .into(),
        ));
    }
    at += 8 + len;

    // Row groups: longest valid prefix; the first bad record starts
    // the torn tail.
    let mut cells: Vec<CellResult> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut valid = at;
    'groups: while at + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        if len as u32 > MAX_RECORD_LEN || bytes.len() < at + 8 + len {
            break;
        }
        let payload = &bytes[at + 8..at + 8 + len];
        if crc32(payload) != crc {
            break;
        }
        let Some(rows) = decode_group(payload) else {
            break;
        };
        for row in &rows {
            let Ok(cell) = cell_from_row(row) else {
                break 'groups;
            };
            // Deterministic cells make duplicates identical; keep the
            // first occurrence so salvage is order-stable. The seen-set
            // keeps salvage O(rows): a linear scan here is quadratic
            // and dominates large-store reads.
            if seen.insert(cell.cell) {
                cells.push(cell);
            }
        }
        at += 8 + len;
        valid = at;
    }

    Ok(StoreSalvage {
        header,
        cells,
        valid_bytes: valid as u64,
        dropped_bytes: (bytes.len() - valid) as u64,
    })
}

/// Appends cell rows to a store file as checksummed columnar groups.
///
/// Rows are buffered and flushed [`DEFAULT_SEGMENT_ROWS`] at a time;
/// call [`StoreWriter::flush`] before dropping the writer or the
/// buffered tail is lost (the driver always does, even on error paths,
/// so a crash loses at most one unflushed group — never a row that was
/// reported durable).
#[derive(Debug)]
pub struct StoreWriter {
    file: File,
    path: PathBuf,
    pending: Vec<Row>,
}

impl StoreWriter {
    /// Creates (truncating) a store file and durably writes
    /// magic+header; the header's column list is always the current
    /// schema.
    ///
    /// # Errors
    ///
    /// I/O failures as [`EngineError::Config`].
    pub fn create(path: &Path, header: &StoreHeader) -> Result<StoreWriter, EngineError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err(path, "create", &e))?;
        let payload = serde_json::to_string(header)
            .map_err(|e| EngineError::Config(format!("serialize store header: {e}")))?;
        let payload = payload.as_bytes();
        let mut buf = Vec::with_capacity(STORE_MAGIC.len() + 8 + payload.len());
        buf.extend_from_slice(&STORE_MAGIC);
        push_u32(&mut buf, payload.len() as u32);
        push_u32(&mut buf, crc32(payload));
        buf.extend_from_slice(payload);
        file.write_all(&buf)
            .map_err(|e| io_err(path, "write header", &e))?;
        file.sync_data()
            .map_err(|e| io_err(path, "fsync header", &e))?;
        Ok(StoreWriter {
            file,
            path: path.to_path_buf(),
            pending: Vec::new(),
        })
    }

    /// Opens an existing store for appending. The caller is expected
    /// to have validated/salvaged it first ([`recover_store`]).
    ///
    /// # Errors
    ///
    /// I/O failures as [`EngineError::Config`].
    pub fn open_append(path: &Path) -> Result<StoreWriter, EngineError> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, "open for append", &e))?;
        Ok(StoreWriter {
            file,
            path: path.to_path_buf(),
            pending: Vec::new(),
        })
    }

    /// Buffers one finished cell; flushes a durable columnar group when
    /// the buffer reaches [`DEFAULT_SEGMENT_ROWS`].
    ///
    /// # Errors
    ///
    /// I/O failures from the flush as [`EngineError::Config`].
    pub fn append_cell(&mut self, cell: &CellResult) -> Result<(), EngineError> {
        self.pending.push(row_from_cell(cell));
        if self.pending.len() >= DEFAULT_SEGMENT_ROWS {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes any buffered rows as one checksummed, fsync'd group; a
    /// no-op when the buffer is empty.
    ///
    /// # Errors
    ///
    /// I/O failures as [`EngineError::Config`].
    pub fn flush(&mut self) -> Result<(), EngineError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let payload = encode_group(&self.pending)?;
        if payload.len() as u64 > u64::from(MAX_RECORD_LEN) {
            return Err(EngineError::Config(format!(
                "store group payload of {} bytes exceeds the {MAX_RECORD_LEN}-byte cap",
                payload.len()
            )));
        }
        let mut buf = Vec::with_capacity(8 + payload.len());
        push_u32(&mut buf, payload.len() as u32);
        push_u32(&mut buf, crc32(&payload));
        buf.extend_from_slice(&payload);
        self.file
            .write_all(&buf)
            .map_err(|e| io_err(&self.path, "append group", &e))?;
        self.file
            .sync_data()
            .map_err(|e| io_err(&self.path, "fsync group", &e))?;
        self.pending.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("helios-store-test-{}-{name}", std::process::id()));
        p
    }

    fn header() -> StoreHeader {
        StoreHeader {
            spec_name: "t".into(),
            spec_digest: "d".into(),
            total_cells: 4,
            shard_index: 1,
            shard_count: 1,
            columns: schema_names(),
        }
    }

    fn cell(i: usize) -> CellResult {
        CellResult {
            cell: i,
            family: "montage".into(),
            platform: "workstation".into(),
            scheduler: "heft".into(),
            seed: i as u64,
            makespan_secs: 1.5 + i as f64,
            slr: 1.0,
            energy_j: 2.0,
            transfers: 1,
            transfer_bytes: 10.0,
            failures: 0,
            retries: 0,
            completed: i.is_multiple_of(2),
            wasted_work_secs: 0.0,
            recovery_overhead_secs: 0.0,
            makespan_degradation: 0.0,
            reroutes: 0,
            partition_downtime_secs: 0.0,
            rematerialized_tasks: 0,
            rematerialized_bytes: 0.0,
            incomplete_reason: if i.is_multiple_of(2) {
                None
            } else {
                Some("retries_exhausted".into())
            },
            capacity_secs: 0.0,
            preemptions: 0,
            drain_migrated_tasks: 0,
            join_utilization: 0.0,
        }
    }

    #[test]
    fn round_trips_groups_and_appends() {
        let path = tmp("roundtrip.store");
        let mut w = StoreWriter::create(&path, &header()).unwrap();
        w.append_cell(&cell(0)).unwrap();
        w.append_cell(&cell(1)).unwrap();
        w.flush().unwrap();
        drop(w);

        let s = read_store(&path).unwrap();
        assert_eq!(s.header, header());
        assert_eq!(s.cells, vec![cell(0), cell(1)]);
        assert_eq!(s.dropped_bytes, 0);

        // Append across a writer reopen, like a resumed shard.
        let mut w = StoreWriter::open_append(&path).unwrap();
        w.append_cell(&cell(2)).unwrap();
        w.flush().unwrap();
        drop(w);
        let s = read_store(&path).unwrap();
        assert_eq!(s.cells, vec![cell(0), cell(1), cell(2)]);
        assert_eq!(s.to_shard_report().cells.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unflushed_rows_stay_buffered_until_flush() {
        let path = tmp("buffered.store");
        let mut w = StoreWriter::create(&path, &header()).unwrap();
        w.append_cell(&cell(0)).unwrap();
        // Not flushed: on disk there is only the header so far.
        let s = read_store(&path).unwrap();
        assert!(s.cells.is_empty());
        w.flush().unwrap();
        drop(w);
        assert_eq!(read_store(&path).unwrap().cells, vec![cell(0)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_salvaged_and_truncated() {
        let path = tmp("torn.store");
        let mut w = StoreWriter::create(&path, &header()).unwrap();
        w.append_cell(&cell(0)).unwrap();
        w.flush().unwrap();
        drop(w);
        let intact = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[200, 0, 0, 0, 1, 2, 3]).unwrap();
        drop(f);

        let s = recover_store(&path).unwrap();
        assert_eq!(s.cells, vec![cell(0)]);
        assert_eq!(s.valid_bytes, intact);
        assert_eq!(s.dropped_bytes, 7);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact);
        let mut w = StoreWriter::open_append(&path).unwrap();
        w.append_cell(&cell(1)).unwrap();
        w.flush().unwrap();
        drop(w);
        assert_eq!(read_store(&path).unwrap().cells.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_crc_starts_the_torn_tail() {
        let path = tmp("crc.store");
        let mut w = StoreWriter::create(&path, &header()).unwrap();
        w.append_cell(&cell(0)).unwrap();
        w.flush().unwrap();
        let boundary = std::fs::metadata(&path).unwrap().len();
        w.append_cell(&cell(1)).unwrap();
        w.flush().unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 3;
        bytes[at] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let s = read_store(&path).unwrap();
        assert_eq!(s.cells, vec![cell(0)], "the CRC-failing group is dropped");
        assert_eq!(s.valid_bytes, boundary);
        assert!(s.dropped_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_and_foreign_schema_are_corrupt_resume() {
        let path = tmp("magic.store");
        std::fs::write(&path, b"{\"not\": \"a store\"}").unwrap();
        let err = read_store(&path).unwrap_err().to_string();
        assert!(err.contains("bad magic"), "{err}");
        assert!(err.contains("corrupt resume"), "{err}");

        // A header with a foreign column list is refused outright.
        let mut h = header();
        h.columns = vec!["makespan_secs".into()];
        let w = StoreWriter::create(&path, &h).unwrap();
        drop(w);
        let err = read_store(&path).unwrap_err().to_string();
        assert!(err.contains("different helios version"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn groups_autoflush_at_the_segment_row_cap() {
        let path = tmp("autoflush.store");
        let mut w = StoreWriter::create(&path, &header()).unwrap();
        for i in 0..DEFAULT_SEGMENT_ROWS {
            w.append_cell(&cell(i)).unwrap();
        }
        // The cap flushed without an explicit flush() call.
        let s = read_store(&path).unwrap();
        assert_eq!(s.cells.len(), DEFAULT_SEGMENT_ROWS);
        w.flush().unwrap();
        drop(w);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dictionary_codes_handle_nulls_and_repeats() {
        let rows: Vec<Row> = (0..5).map(|i| row_from_cell(&cell(i))).collect();
        let payload = encode_group(&rows).unwrap();
        let back = decode_group(&payload).unwrap();
        assert_eq!(back, rows);
        // Truncated payloads never decode.
        for cut in [1, payload.len() / 2, payload.len() - 1] {
            assert!(decode_group(&payload[..cut]).is_none(), "cut {cut}");
        }
        // Trailing garbage is rejected (exact-consumption check).
        let mut padded = payload.clone();
        padded.push(0);
        assert!(decode_group(&padded).is_none());
    }
}
