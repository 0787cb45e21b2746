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

use super::schema::{schema_names, Column, ColumnType, Value, ValueRef};
use crate::campaign::sweep::{CellResult, ShardReport};
use crate::framed::{self, Appender, Format};
use crate::EngineError;

/// File magic: identifies a helios columnar cell store, version 1.
pub const STORE_MAGIC: [u8; 8] = *b"HELIOSC1";

/// Rows buffered per columnar group before the writer flushes a
/// checksummed record.
pub const DEFAULT_SEGMENT_ROWS: usize = 256;

pub(crate) static FORMAT: Format = Format {
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
    /// `merge_shards` and `query` consume store files directly. It
    /// consumes the salvage, so the cells move instead of being cloned;
    /// read `valid_bytes` or `dropped_bytes` first.
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
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Encodes cells as one columnar group payload, reading each column in
/// place.
fn encode_group(cells: &[CellResult]) -> Vec<u8> {
    let mut buf = Vec::new();
    push_u32(&mut buf, cells.len() as u32);
    for col in Column::ALL {
        match col.column_type() {
            ColumnType::Str | ColumnType::OptStr => {
                // Dictionary + per-row codes; OptStr reserves code 0
                // for null, so entry k lives at code k+1.
                let nullable = col.column_type() == ColumnType::OptStr;
                let mut dict: Vec<&str> = Vec::new();
                let mut codes: Vec<u32> = Vec::with_capacity(cells.len());
                for cell in cells {
                    let code = match col.get(cell) {
                        ValueRef::Str(s) => {
                            let entry = match dict.iter().position(|d| *d == s) {
                                Some(at) => at,
                                None => {
                                    dict.push(s);
                                    dict.len() - 1
                                }
                            };
                            entry as u32 + u32::from(nullable)
                        }
                        ValueRef::Null => 0,
                        _ => unreachable!("string columns hold strings and nulls"),
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
            _ => {
                for cell in cells {
                    match col.get(cell) {
                        ValueRef::U64(v) => buf.extend_from_slice(&v.to_le_bytes()),
                        ValueRef::U32(v) => buf.extend_from_slice(&v.to_le_bytes()),
                        ValueRef::F64(v) => buf.extend_from_slice(&v.to_bits().to_le_bytes()),
                        ValueRef::Bool(v) => buf.push(u8::from(v)),
                        ValueRef::Str(_) | ValueRef::Null => {
                            unreachable!("only string columns hold strings and nulls")
                        }
                    }
                }
            }
        }
    }
    buf
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

    /// Decodes one `N`-byte value per cell into column `col`, taking
    /// the whole column's bytes with one bounds check.
    fn column<const N: usize>(
        &mut self,
        cells: &mut [CellResult],
        col: Column,
        value: impl Fn([u8; N]) -> Option<Value>,
    ) -> Option<()> {
        let (values, _) = self.take(N.checked_mul(cells.len())?)?.as_chunks::<N>();
        for (cell, &bytes) in cells.iter_mut().zip(values) {
            col.set(cell, value(bytes)?)?;
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

/// Decodes one columnar group payload straight onto the end of `out`,
/// column by column: each string value is one `String` copied from its
/// group's dictionary. `None` on any structural damage, with `out` then
/// holding partly decoded rows past its old length, which the caller
/// cuts off (it treats the record as the start of the torn tail).
fn decode_group(payload: &[u8], out: &mut Vec<CellResult>) -> Option<()> {
    let mut cur = Cursor {
        bytes: payload,
        at: 0,
    };
    let rows = cur.count(row_bytes())?;
    let first = out.len();
    out.resize_with(first + rows, CellResult::default);
    let cells = &mut out[first..];
    for col in Column::ALL {
        match col.column_type() {
            ColumnType::Str | ColumnType::OptStr => {
                let nullable = col.column_type() == ColumnType::OptStr;
                // Each entry takes at least its length prefix.
                let entries = cur.count(4)?;
                let mut dict: Vec<&str> = Vec::with_capacity(entries);
                for _ in 0..entries {
                    let len = cur.u32()? as usize;
                    dict.push(std::str::from_utf8(cur.take(len)?).ok()?);
                }
                for cell in cells.iter_mut() {
                    let code = cur.u32()? as usize;
                    // Code 0 of a nullable column is null; entry k
                    // lives at code k + 1 there.
                    let value = match code.checked_sub(usize::from(nullable)) {
                        Some(entry) => Value::Str((*dict.get(entry)?).to_owned()),
                        None => Value::Null,
                    };
                    col.set(cell, value)?;
                }
            }
            ColumnType::U64 => {
                cur.column(cells, col, |b| Some(Value::U64(u64::from_le_bytes(b))))?
            }
            ColumnType::U32 => {
                cur.column(cells, col, |b| Some(Value::U32(u32::from_le_bytes(b))))?
            }
            ColumnType::F64 => cur.column(cells, col, |b| {
                Some(Value::F64(f64::from_bits(u64::from_le_bytes(b))))
            })?,
            ColumnType::Bool => cur.column(cells, col, |[b]| match b {
                0 | 1 => Some(Value::Bool(b == 1)),
                _ => None,
            })?,
        }
    }
    // A valid group consumes its payload exactly; trailing bytes mean
    // the record was not written by this codec.
    (cur.at == payload.len()).then_some(())
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
    let scan =
        FORMAT.read::<StoreHeader>(path, |_, payload, cells| decode_group(payload, cells))?;
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
    pending: Vec<CellResult>,
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
        self.pending.push(cell.clone());
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
        self.out.append(0, &encode_group(&self.pending))?;
        self.pending.clear();
        Ok(())
    }
}

/// The row-at-a-time decoder that [`decode_group`] replaced: each group
/// decodes to full-schema [`Value`] rows, and `cell_from_row` turns
/// each row into a cell. Kept as the differential oracle the
/// column-by-column decoder is checked against.
#[cfg(test)]
mod reference {
    use super::{row_bytes, Cursor};
    use crate::campaign::sweep::CellResult;
    use crate::store::schema::{Column, ColumnType, Row, Value};
    use crate::EngineError;

    /// Decodes one `N`-byte value per row into `rows`.
    fn column<const N: usize>(
        cur: &mut Cursor<'_>,
        rows: &mut [Row],
        value: impl Fn([u8; N]) -> Option<Value>,
    ) -> Option<()> {
        for row in rows {
            row.push(value(cur.array()?)?);
        }
        Some(())
    }

    /// Decodes one columnar group payload to full-schema rows.
    fn decode_rows(payload: &[u8]) -> Option<Vec<Row>> {
        let mut cur = Cursor {
            bytes: payload,
            at: 0,
        };
        let rows = cur.count(row_bytes())?;
        let mut out: Vec<Row> = (0..rows)
            .map(|_| Vec::with_capacity(Column::ALL.len()))
            .collect();
        for col in Column::ALL {
            match col.column_type() {
                ColumnType::Str | ColumnType::OptStr => {
                    let nullable = col.column_type() == ColumnType::OptStr;
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
                ColumnType::U64 => {
                    column(&mut cur, &mut out, |b| {
                        Some(Value::U64(u64::from_le_bytes(b)))
                    })?;
                }
                ColumnType::U32 => {
                    column(&mut cur, &mut out, |b| {
                        Some(Value::U32(u32::from_le_bytes(b)))
                    })?;
                }
                ColumnType::F64 => column(&mut cur, &mut out, |b| {
                    Some(Value::F64(f64::from_bits(u64::from_le_bytes(b))))
                })?,
                ColumnType::Bool => column(&mut cur, &mut out, |[b]| match b {
                    0 | 1 => Some(Value::Bool(b == 1)),
                    _ => None,
                })?,
            }
        }
        if cur.at != payload.len() {
            return None;
        }
        Some(out)
    }

    /// Decodes one group payload to cells, one row at a time.
    pub(super) fn decode_cells(payload: &[u8]) -> Option<Vec<CellResult>> {
        decode_rows(payload)?
            .iter()
            .map(|row| cell_from_row(row).ok())
            .collect()
    }

    fn type_err(col: Column, got: &Value) -> EngineError {
        EngineError::Config(format!(
            "store row: column {:?} expected a {:?} value, got {got:?}",
            col.name(),
            col.column_type()
        ))
    }

    fn u64_at(row: &[Value], col: Column) -> Result<u64, EngineError> {
        match &row[col.index()] {
            Value::U64(v) => Ok(*v),
            other => Err(type_err(col, other)),
        }
    }

    fn u32_at(row: &[Value], col: Column) -> Result<u32, EngineError> {
        match &row[col.index()] {
            Value::U32(v) => Ok(*v),
            other => Err(type_err(col, other)),
        }
    }

    fn f64_at(row: &[Value], col: Column) -> Result<f64, EngineError> {
        match &row[col.index()] {
            Value::F64(v) => Ok(*v),
            other => Err(type_err(col, other)),
        }
    }

    fn bool_at(row: &[Value], col: Column) -> Result<bool, EngineError> {
        match &row[col.index()] {
            Value::Bool(v) => Ok(*v),
            other => Err(type_err(col, other)),
        }
    }

    fn str_at(row: &[Value], col: Column) -> Result<String, EngineError> {
        match &row[col.index()] {
            Value::Str(v) => Ok(v.clone()),
            other => Err(type_err(col, other)),
        }
    }

    fn opt_str_at(row: &[Value], col: Column) -> Result<Option<String>, EngineError> {
        match &row[col.index()] {
            Value::Str(v) => Ok(Some(v.clone())),
            Value::Null => Ok(None),
            other => Err(type_err(col, other)),
        }
    }

    /// Reconstructs a [`CellResult`] from a full-schema row.
    fn cell_from_row(row: &[Value]) -> Result<CellResult, EngineError> {
        if row.len() != Column::ALL.len() {
            return Err(EngineError::Config(format!(
                "store row has {} values, the schema has {} columns",
                row.len(),
                Column::ALL.len()
            )));
        }
        Ok(CellResult {
            cell: u64_at(row, Column::Cell)? as usize,
            family: str_at(row, Column::Family)?,
            platform: str_at(row, Column::Platform)?,
            scheduler: str_at(row, Column::Scheduler)?,
            seed: u64_at(row, Column::Seed)?,
            makespan_secs: f64_at(row, Column::MakespanSecs)?,
            slr: f64_at(row, Column::Slr)?,
            energy_j: f64_at(row, Column::EnergyJ)?,
            transfers: u64_at(row, Column::Transfers)? as usize,
            transfer_bytes: f64_at(row, Column::TransferBytes)?,
            failures: u32_at(row, Column::Failures)?,
            retries: u32_at(row, Column::Retries)?,
            completed: bool_at(row, Column::Completed)?,
            wasted_work_secs: f64_at(row, Column::WastedWorkSecs)?,
            recovery_overhead_secs: f64_at(row, Column::RecoveryOverheadSecs)?,
            makespan_degradation: f64_at(row, Column::MakespanDegradation)?,
            reroutes: u32_at(row, Column::Reroutes)?,
            partition_downtime_secs: f64_at(row, Column::PartitionDowntimeSecs)?,
            rematerialized_tasks: u32_at(row, Column::RematerializedTasks)?,
            rematerialized_bytes: f64_at(row, Column::RematerializedBytes)?,
            incomplete_reason: opt_str_at(row, Column::IncompleteReason)?,
            capacity_secs: f64_at(row, Column::CapacitySecs)?,
            preemptions: u32_at(row, Column::Preemptions)?,
            drain_migrated_tasks: u32_at(row, Column::DrainMigratedTasks)?,
            join_utilization: f64_at(row, Column::JoinUtilization)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::fs::OpenOptions;
    use std::io::Write as _;
    use std::path::PathBuf;

    use proptest::prelude::*;

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

    /// One group payload decoded on its own.
    fn decode(payload: &[u8]) -> Option<Vec<CellResult>> {
        let mut cells = Vec::new();
        decode_group(payload, &mut cells).map(|()| cells)
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
        let payload = encode_group(&[cell(0)]);
        // Every count over what the payload can hold is refused: the
        // row count, and the first dictionary's entry count (it follows
        // the 8-byte cell column).
        for (at, n) in [(0, 2), (0, u32::MAX), (12, 1 << 20), (12, u32::MAX)] {
            let mut bad = payload.clone();
            bad[at..at + 4].copy_from_slice(&n.to_le_bytes());
            assert!(decode(&bad).is_none(), "count {n} at {at}");
        }
    }

    #[test]
    fn dictionary_codes_handle_nulls_and_repeats() {
        let cells: Vec<CellResult> = (0..5).map(cell).collect();
        let payload = encode_group(&cells);
        assert_eq!(decode(&payload).unwrap(), cells);
        // Truncated payloads never decode.
        for cut in [1, payload.len() / 2, payload.len() - 1] {
            assert!(decode(&payload[..cut]).is_none(), "cut {cut}");
        }
        // Trailing garbage is rejected (exact-consumption check).
        let mut padded = payload.clone();
        padded.push(0);
        assert!(decode(&padded).is_none());
    }

    /// Cells with varied strings (some repeated, some not ASCII), nulls,
    /// booleans and float bit patterns, drawn from `seed`.
    fn varied_cells(seed: u64, rows: usize) -> Vec<CellResult> {
        const NAMES: [&str; 5] = ["montage", "ligo", "hpc_node", "", "héliös-ü"];
        let mut x = seed;
        let mut next = move || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 11
        };
        (0..rows)
            .map(|i| {
                let mut c = cell(i);
                c.family = NAMES[next() as usize % 5].into();
                c.platform = NAMES[next() as usize % 5].into();
                c.scheduler = NAMES[next() as usize % 3].into();
                c.completed = next() % 2 == 0;
                c.incomplete_reason = (next() % 3 == 0).then(|| NAMES[next() as usize % 5].into());
                c.seed = next();
                c.makespan_secs = f64::from_bits(next() << 11);
                c.failures = next() as u32;
                c
            })
            .collect()
    }

    /// The `[start, end)` byte span of each column block of a valid
    /// group payload, in schema order.
    fn column_spans(payload: &[u8]) -> Vec<(usize, usize)> {
        let u32_at = |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
        let rows = u32_at(0) as usize;
        let mut at = 4;
        let mut spans = Vec::new();
        for col in Column::ALL {
            let start = at;
            at += match col.column_type() {
                ColumnType::Str | ColumnType::OptStr => {
                    let entries = u32_at(at);
                    at += 4;
                    for _ in 0..entries {
                        at += 4 + u32_at(at) as usize;
                    }
                    4 * rows
                }
                ColumnType::U64 | ColumnType::F64 => 8 * rows,
                ColumnType::U32 => 4 * rows,
                ColumnType::Bool => rows,
            };
            spans.push((start, at));
        }
        assert_eq!(at, payload.len());
        spans
    }

    const STRING_COLUMNS: [Column; 4] = [
        Column::Family,
        Column::Platform,
        Column::Scheduler,
        Column::IncompleteReason,
    ];

    /// Damages a valid group payload of `rows` rows the way `kind`
    /// says, at places and with values drawn from `a` and `b`. Returns
    /// whether the damage always makes the group undecodable.
    fn mutate(payload: &mut Vec<u8>, rows: usize, kind: usize, a: usize, b: u32) -> bool {
        let spans = column_spans(payload);
        let put =
            |p: &mut Vec<u8>, at: usize, v: u32| p[at..at + 4].copy_from_slice(&v.to_le_bytes());
        let small_or_any = |v: u32| if v.is_multiple_of(2) { v % 64 } else { v };
        match kind {
            // Bit flips.
            0 => {
                for k in 0..=(b % 4) as usize {
                    let at = (a + 7919 * k) % payload.len();
                    payload[at] ^= 1 << ((b as usize + k) % 8);
                }
                false
            }
            // Truncation.
            1 => {
                payload.truncate(a % payload.len());
                true
            }
            // A column block duplicated in place.
            2 => {
                let (start, end) = spans[a % spans.len()];
                let block = payload[start..end].to_vec();
                payload.splice(end..end, block);
                false
            }
            // A column block replaced by another one.
            3 => {
                let (start, end) = spans[a % spans.len()];
                let (from, to) = spans[b as usize % spans.len()];
                let block = payload[from..to].to_vec();
                payload.splice(start..end, block);
                false
            }
            // A lying row count.
            4 => {
                put(payload, 0, small_or_any(b));
                false
            }
            // A lying dictionary entry count, or entry length.
            5 | 6 => {
                let col = STRING_COLUMNS[a % STRING_COLUMNS.len()];
                let start = spans[col.index()].0;
                let entries = u32::from_le_bytes(payload[start..start + 4].try_into().unwrap());
                let at = if kind == 5 || entries == 0 {
                    start
                } else {
                    start + 4
                };
                put(payload, at, small_or_any(b));
                false
            }
            // A bool byte above 1.
            7 => {
                let start = spans[Column::Completed.index()].0;
                payload[start + a % rows] = 2 + (b % 254) as u8;
                true
            }
            // Invalid UTF-8 in a dictionary entry.
            8 => {
                let col = STRING_COLUMNS[a % 3];
                let start = spans[col.index()].0;
                let len = u32::from_le_bytes(payload[start + 4..start + 8].try_into().unwrap());
                if len == 0 {
                    // The empty string holds no byte to damage; lie
                    // about its length instead.
                    put(payload, start + 4, 1 + b % 8);
                    return false;
                }
                payload[start + 8 + b as usize % len as usize] = 0xFF;
                true
            }
            // A dictionary code past the dictionary.
            _ => {
                let col = STRING_COLUMNS[a % STRING_COLUMNS.len()];
                let (start, end) = spans[col.index()];
                let entries = u32::from_le_bytes(payload[start..start + 4].try_into().unwrap());
                let code_at = end - 4 * rows + 4 * (b as usize % rows);
                put(payload, code_at, entries + 1 + b % 4);
                true
            }
        }
    }

    /// The frames after the magic of a framed file: its header frame
    /// first, then one per group, each whole (length, CRC, payload).
    fn frames(bytes: &[u8]) -> Vec<&[u8]> {
        let mut at = STORE_MAGIC.len();
        let mut out = Vec::new();
        while at < bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            out.push(&bytes[at..at + 8 + len]);
            at += 8 + len;
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The column-by-column decoder returns exactly what the
        /// row-based reference returns on damaged real payloads — both
        /// `None`, or the same cells bit for bit — and neither panics.
        /// Each damaged payload is also reframed with a valid CRC, so a
        /// store file read sees the damage past the checksum.
        #[test]
        fn decode_matches_the_row_reference_on_damaged_groups(
            seed: u64,
            rows in 1usize..24,
            kind in 0usize..10,
            a: usize,
            b: u32,
        ) {
            // Cells compare through their encoding, so a NaN metric
            // compares by its bits.
            let bits = |c: &Option<Vec<CellResult>>| c.as_deref().map(encode_group);
            let cells = varied_cells(seed, rows);
            let mut payload = encode_group(&cells);
            prop_assert_eq!(bits(&decode(&payload)), Some(payload.clone()));
            let always_refused = mutate(&mut payload, rows, kind, a, b);
            let new = decode(&payload);
            let old = reference::decode_cells(&payload);
            prop_assert_eq!(bits(&new), bits(&old));
            if always_refused {
                prop_assert!(old.is_none(), "kind {} decoded", kind);
            }

            let path = tmp("damaged.store");
            let mut file = STORE_MAGIC.to_vec();
            file.extend(frame(serde_json::to_string(&header()).unwrap().as_bytes()));
            let intact = file.len() as u64;
            file.extend(frame(&payload));
            std::fs::write(&path, &file).unwrap();
            let salvage = read_store(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            match old {
                None => {
                    prop_assert!(salvage.cells.is_empty());
                    prop_assert_eq!(salvage.valid_bytes, intact);
                }
                Some(mut expected) => {
                    let mut seen = std::collections::HashSet::new();
                    expected.retain(|c| seen.insert(c.cell));
                    prop_assert_eq!(encode_group(&salvage.cells), encode_group(&expected));
                    prop_assert_eq!(salvage.dropped_bytes, 0);
                }
            }
        }

        /// A real store file's groups, reframed reordered and repeated
        /// and followed by an optional torn tail, read back exactly as a
        /// reference salvage says: each intact group decoded by the row
        /// reference, the first occurrence of each cell kept (groups
        /// overlap and need not rise), and the tail dropped.
        #[test]
        fn reordered_and_repeated_groups_salvage_like_the_reference(
            seed: u64,
            groups in 1usize..5,
            rows in 1usize..12,
            picks in prop::collection::vec(0usize..5, 1..9),
            shuffle: bool,
            tail in 0usize..3,
        ) {
            let path = tmp("reordered.store");
            let mut w = StoreWriter::create(&path, &header()).unwrap();
            for g in 0..groups {
                let mut cells = varied_cells(seed ^ g as u64, rows);
                for (i, c) in cells.iter_mut().enumerate() {
                    c.cell = (seed as usize >> (g * 4)) % 16 + i;
                }
                if shuffle {
                    cells.rotate_left(g % rows);
                }
                for c in &cells {
                    w.append_cell(c).unwrap();
                }
                w.flush().unwrap();
            }
            drop(w);
            let written = std::fs::read(&path).unwrap();
            let written = frames(&written);

            let mut file = STORE_MAGIC.to_vec();
            file.extend_from_slice(written[0]);
            let mut expected = Vec::new();
            for &pick in &picks {
                let group = written[1 + pick % groups];
                file.extend_from_slice(group);
                expected.extend(reference::decode_cells(&group[8..]).unwrap());
            }
            let valid_bytes = file.len() as u64;
            match tail {
                // A group cut short.
                1 => file.extend_from_slice(&written[1][..written[1].len() - 1]),
                // A group failing its CRC.
                2 => {
                    let mut bad = written[1].to_vec();
                    *bad.last_mut().unwrap() ^= 1;
                    file.extend(bad);
                }
                _ => {}
            }
            std::fs::write(&path, &file).unwrap();
            let salvage = read_store(&path).unwrap();
            std::fs::remove_file(&path).unwrap();

            let mut seen = std::collections::HashSet::new();
            expected.retain(|c| seen.insert(c.cell));
            prop_assert_eq!(encode_group(&salvage.cells), encode_group(&expected));
            prop_assert_eq!(salvage.valid_bytes, valid_bytes);
            prop_assert_eq!(salvage.dropped_bytes, file.len() as u64 - valid_bytes);
        }
    }
}
