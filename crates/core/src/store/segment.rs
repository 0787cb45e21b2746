//! The columnar segment file: append-friendly cell-row storage.
//!
//! A store file is a framed file (the checksummed append-only layout it
//! shares with the cell journal) holding sweep cell rows in columnar
//! row groups. The layout is
//!
//! ```text
//! magic  "HELIOSC1"                                  (8 bytes)
//! header [len: u32][crc32: u32][StoreHeader JSON]    (checksummed)
//! group  [len: u32][crc32: u32][columnar payload]    (repeated)
//! ```
//!
//! with little-endian integers and IEEE CRC-32 over each payload. A
//! group payload is `[rows: u32]` followed by one contiguous column of
//! values per [`Column`], in schema order: fixed-width columns are
//! packed little-endian arrays, string columns are a dictionary
//! (`[entries: u32]` then length-prefixed UTF-8) plus one `u32` code
//! per row, and nullable string columns reserve code 0 for null. The
//! header binds the file to one campaign (spec name + digest + grid
//! size), one shard geometry, and the writing schema, so resume, merge,
//! and query refuse foreign or stale files with typed errors.
//!
//! This module holds only the header check and the columnar codec; the
//! framing and its longest-valid-prefix salvage are the framed-file
//! layer's. A group that fails length/CRC/decode checks starts the torn
//! tail, [`recover_store`] truncates that tail in place so the file can
//! be appended to again, and duplicated cells keep their first
//! occurrence.

use std::path::Path;

use serde::{Deserialize, Serialize};

use super::schema::{cell_from_row, row_from_cell, schema_names, Column, ColumnType, Row, Value};
use crate::campaign::sweep::{CellResult, ShardReport};
use crate::framed::{self, Appender, Format};
use crate::EngineError;

/// File magic: identifies a helios columnar cell store, version 1.
pub const STORE_MAGIC: [u8; 8] = *b"HELIOSC1";

/// Rows buffered per columnar group before the writer flushes a
/// checksummed record.
pub const DEFAULT_SEGMENT_ROWS: usize = 256;

static FORMAT: Format = Format {
    magic: STORE_MAGIC,
    noun: "store",
    record: "group",
    tagged: false,
};

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
    FORMAT.matches(bytes)
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
            fixed => {
                for row in rows {
                    match (fixed, &row[at]) {
                        (ColumnType::U64, Value::U64(v)) => buf.extend_from_slice(&v.to_le_bytes()),
                        (ColumnType::U32, Value::U32(v)) => buf.extend_from_slice(&v.to_le_bytes()),
                        (ColumnType::F64, Value::F64(v)) => {
                            buf.extend_from_slice(&v.to_bits().to_le_bytes());
                        }
                        (ColumnType::Bool, Value::Bool(v)) => buf.push(u8::from(*v)),
                        (_, other) => return Err(encode_wrong_type(col, other)),
                    }
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

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.array()?))
    }

    /// Decodes one `N`-byte value per row into `rows`.
    fn column<const N: usize>(
        &mut self,
        rows: &mut [Row],
        value: impl Fn([u8; N]) -> Option<Value>,
    ) -> Option<()> {
        for row in rows {
            row.push(value(self.array()?)?);
        }
        Some(())
    }

    /// Reads a count of items that each take at least `item_bytes` of
    /// what is left; `None` when the rest cannot hold that many, so a
    /// hostile count never sizes an allocation.
    fn count(&mut self, item_bytes: usize) -> Option<usize> {
        let n = self.u32()? as usize;
        (n.checked_mul(item_bytes)? <= self.bytes.len() - self.at).then_some(n)
    }
}

/// Bytes one row takes in a group payload at least: its fixed-width
/// values plus one dictionary code per string column.
fn row_bytes() -> usize {
    Column::ALL
        .iter()
        .map(|col| match col.column_type() {
            ColumnType::U64 | ColumnType::F64 => 8,
            ColumnType::U32 | ColumnType::Str | ColumnType::OptStr => 4,
            ColumnType::Bool => 1,
        })
        .sum()
}

/// Decodes one columnar group payload back to full-schema rows.
/// `None` on any structural damage (the caller treats the record as
/// the start of the torn tail).
fn decode_group(payload: &[u8]) -> Option<Vec<Row>> {
    let mut cur = Cursor {
        bytes: payload,
        at: 0,
    };
    let rows = cur.count(row_bytes())?;
    // Not `vec![Vec::with_capacity(..); rows]`: cloning an empty Vec
    // drops its capacity, which would cost several reallocations per
    // row while the 25 columns push in.
    let mut out: Vec<Row> = (0..rows)
        .map(|_| Vec::with_capacity(Column::ALL.len()))
        .collect();
    for col in Column::ALL {
        match col.column_type() {
            ColumnType::Str | ColumnType::OptStr => {
                let nullable = col.column_type() == ColumnType::OptStr;
                // Each entry takes at least its length prefix.
                let entries = cur.count(4)?;
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
            ColumnType::U64 => cur.column(&mut out, |b| Some(Value::U64(u64::from_le_bytes(b))))?,
            ColumnType::U32 => cur.column(&mut out, |b| Some(Value::U32(u32::from_le_bytes(b))))?,
            ColumnType::F64 => cur.column(&mut out, |b| {
                Some(Value::F64(f64::from_bits(u64::from_le_bytes(b))))
            })?,
            ColumnType::Bool => cur.column(&mut out, |[b]| match b {
                0 | 1 => Some(Value::Bool(b == 1)),
                _ => None,
            })?,
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
/// Returns [`CampaignError::CorruptResume`](crate::CampaignError::CorruptResume)
/// when the file is not a store (bad magic), its header record is torn,
/// or the header's column list disagrees with the current schema —
/// there is nothing to salvage without a trusted header — and I/O
/// errors as [`EngineError::Config`].
pub fn read_store(path: &Path) -> Result<StoreSalvage, EngineError> {
    let scan = FORMAT.read::<StoreHeader>(path, |_, payload, cells| {
        for row in &decode_group(payload)? {
            cells.push(cell_from_row(row).ok()?);
        }
        Some(())
    })?;
    if scan.header.columns != schema_names() {
        return Err(framed::corrupt(
            path,
            STORE_MAGIC.len() as u64,
            "store column list does not match this build's schema; the file \
             was written by a different helios version — delete the file to \
             start fresh"
                .into(),
        ));
    }
    Ok(StoreSalvage {
        header: scan.header,
        cells: scan.cells,
        valid_bytes: scan.valid_bytes,
        dropped_bytes: scan.dropped_bytes,
    })
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
    FORMAT.cut_torn_tail(path, salvage.valid_bytes, salvage.dropped_bytes)?;
    Ok(salvage)
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
    out: Appender,
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
        Ok(StoreWriter {
            out: Appender::create(&FORMAT, path, header)?,
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
        Ok(StoreWriter {
            out: Appender::open_append(&FORMAT, path)?,
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
        self.out.append(0, &encode_group(&self.pending)?)?;
        self.pending.clear();
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
    fn duplicated_group_keeps_the_first_occurrence() {
        let path = tmp("dup.store");
        let mut w = StoreWriter::create(&path, &header()).unwrap();
        w.append_cell(&cell(0)).unwrap();
        w.append_cell(&cell(1)).unwrap();
        w.flush().unwrap();
        // A later group repeats cell 1 with other values, and cell 0.
        let mut again = cell(1);
        again.makespan_secs = 99.0;
        w.append_cell(&again).unwrap();
        w.append_cell(&cell(2)).unwrap();
        w.append_cell(&cell(0)).unwrap();
        w.flush().unwrap();
        drop(w);
        let s = read_store(&path).unwrap();
        assert_eq!(s.cells, vec![cell(0), cell(1), cell(2)]);
        assert_eq!(s.dropped_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// A CRC-valid frame whose payload is `payload`.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut buf = (payload.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&framed::crc32(payload).to_le_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    #[test]
    fn hostile_row_count_salvages_as_torn_tail() {
        let path = tmp("hostile.store");
        let w = StoreWriter::create(&path, &header()).unwrap();
        drop(w);
        let intact = std::fs::metadata(&path).unwrap().len();
        // 2^22 rows claimed in a 4-byte payload: refused before any
        // per-row allocation.
        let hostile = frame(&(1u32 << 22).to_le_bytes());
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&hostile).unwrap();
        drop(f);
        let s = read_store(&path).unwrap();
        assert!(s.cells.is_empty());
        assert_eq!(s.valid_bytes, intact);
        assert_eq!(s.dropped_bytes, hostile.len() as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        // Two 4-byte items fit in the 8 bytes after the count; three do not.
        let fits = [2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        let over = [3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        let mut cur = Cursor {
            bytes: &fits,
            at: 0,
        };
        assert_eq!(cur.count(4), Some(2));
        let mut cur = Cursor {
            bytes: &over,
            at: 0,
        };
        assert_eq!(cur.count(4), None);
        let payload = encode_group(&[row_from_cell(&cell(0))]).unwrap();
        // Every count over what the payload can hold is refused: the
        // row count, and the first dictionary's entry count (it follows
        // the 8-byte cell column).
        for (at, n) in [(0, 2), (0, u32::MAX), (12, 1 << 20), (12, u32::MAX)] {
            let mut bad = payload.clone();
            bad[at..at + 4].copy_from_slice(&n.to_le_bytes());
            assert!(decode_group(&bad).is_none(), "count {n} at {at}");
        }
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
