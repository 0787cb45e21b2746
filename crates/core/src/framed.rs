//! The framed file: the checksummed append-only layout under both
//! durable sweep formats, the `HELIOSJ1` cell journal
//! ([`campaign::journal`](crate::campaign::journal)) and the `HELIOSC1`
//! columnar store ([`store::segment`](crate::store::segment)):
//!
//! ```text
//! magic  [u8; 8]                                    (one per format)
//! header [len: u32][crc32: u32][header JSON]        (one frame)
//! record [kind: u8]?[len: u32][crc32: u32][payload] (repeated frames)
//! ```
//!
//! Integers are little-endian, the CRC is IEEE CRC-32 over the payload,
//! and only a *tagged* format (the journal) has the kind byte. The
//! codecs above own the header type and the record payloads, nothing
//! else: a read hands each intact record's payload to the format's
//! decoder and builds the one salvaged shape of both formats,
//! [`DurableSalvage`], itself. Every write is one `write_all` of whole frames plus one
//! `sync_data`, so a `kill -9` loses at most the frames being written:
//! the store writes one row group at a time, the journal the records it
//! staged and the one that makes them durable.
//! Reading is longest-valid-prefix salvage: the first frame failing its
//! bounds, CRC or decode starts the torn tail, which recovery truncates
//! (fsync'd) so the file can be appended to again. The salvage's report
//! takes the campaign and shard identity from the header frame and the
//! kept cells sorted by index; its pending list is the attempted cells
//! (journal attempt records) that have no completion. Cells are pure
//! functions of the spec, so a cell recorded twice is recorded
//! identically, and the scan keeps its first occurrence. A file whose
//! cell indices strictly rise (a store shard, a one-worker journal) has
//! no repeat to find, so the scan keeps no seen-set while indices rise:
//! it builds one from the cells kept so far only at the first index
//! that does not rise.

use std::collections::{BTreeMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::campaign::sweep::{CellResult, ShardReport};
use crate::campaign::{CampaignError, DurableSalvage};
use crate::EngineError;

/// Upper bound on a single frame payload; anything larger in the
/// length field is torn-tail garbage, not a record.
const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

/// IEEE CRC-32 slicing-by-8 tables, built at compile time: `T[0]` is
/// the classic byte table, and `T[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight table reads advance the CRC by
/// eight bytes.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
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
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// IEEE CRC-32 of `bytes` (the checksum guarding every frame), eight
/// bytes per step with a byte-at-a-time tail.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One framed file format: its magic and the words its messages use.
#[derive(Debug)]
pub(crate) struct Format {
    /// File magic: format name and version.
    pub(crate) magic: [u8; 8],
    /// The file's noun, also its CLI flag: `journal` or `store`.
    pub(crate) noun: &'static str,
    /// What one record is called: `record` or `group`.
    pub(crate) record: &'static str,
    /// Whether each record frame follows a kind byte.
    pub(crate) tagged: bool,
    /// The fewest bytes one cell takes in a record. A read sizes its
    /// cells once, for the file's length over this many bytes a cell,
    /// instead of regrowing them record by record.
    pub(crate) cell_bytes: usize,
}

/// The campaign and shard a durable file belongs to, as its header
/// frame names them: a journal's header is exactly these fields, and a
/// store's adds its column list.
#[derive(Deserialize)]
struct Identity {
    spec_name: String,
    spec_digest: String,
    total_cells: usize,
    shard_index: usize,
    shard_count: usize,
}

/// A typed `CorruptResume` error for `path`, valid up to `offset`.
pub(crate) fn corrupt(path: &Path, offset: u64, detail: String) -> EngineError {
    CampaignError::CorruptResume {
        file: path.display().to_string(),
        offset,
        detail,
    }
    .into()
}

/// The frame at `at`: its payload and the offset just past it, or
/// `None` when its length is out of bounds or its CRC fails.
fn frame_at(bytes: &[u8], at: usize) -> Option<(&[u8], usize)> {
    let head = bytes.get(at..at.checked_add(8)?)?;
    let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(head[4..].try_into().expect("4 bytes"));
    if len > MAX_RECORD_LEN {
        return None;
    }
    let end = at + 8 + len as usize;
    let payload = bytes.get(at + 8..end)?;
    (crc32(payload) == crc).then_some((payload, end))
}

/// The cells of `attempts` with no completion among `cells` (sorted by
/// cell), with their attempt counts, sorted by cell: the poisoned-cell
/// candidates. O(attempts · log) however the records interleave, and
/// nothing for a file without attempt records.
fn pending(attempts: &[usize], cells: &[CellResult]) -> Vec<(usize, u32)> {
    let mut counts: BTreeMap<usize, u32> = BTreeMap::new();
    for &cell in attempts {
        *counts.entry(cell).or_insert(0) += 1;
    }
    counts.retain(|cell, _| cells.binary_search_by_key(cell, |c| c.cell).is_err());
    counts.into_iter().collect()
}

/// Appends `[len][crc32][payload]` to `buf`.
fn push_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

impl Format {
    /// Whether `bytes` begin with this format's magic.
    pub(crate) fn matches(&self, bytes: &[u8]) -> bool {
        bytes.starts_with(&self.magic)
    }

    fn io_err(&self, path: &Path, what: &str, e: &std::io::Error) -> EngineError {
        EngineError::Config(format!("{} {}: {what}: {e}", self.noun, path.display()))
    }

    /// Reads and salvages `path` without modifying it, into the one
    /// [`DurableSalvage`] view of both formats. A bad magic, a torn
    /// header, or a header `H` that `trust` refuses is a
    /// [`CampaignError::CorruptResume`] (nothing can be salvaged without
    /// a trusted header). After the header, `decode` gets each intact
    /// frame's kind byte (0 when untagged) and payload and pushes the
    /// cells and attempted cell indices it carries, or returns `None` to
    /// start the torn tail there (the frame's cells and attempts are then
    /// dropped).
    pub(crate) fn read<H: for<'de> Deserialize<'de>>(
        &self,
        path: &Path,
        trust: impl FnOnce(&H) -> Result<(), &'static str>,
        mut decode: impl FnMut(u8, &[u8], &mut Vec<CellResult>, &mut Vec<usize>) -> Option<()>,
    ) -> Result<DurableSalvage, EngineError> {
        let bytes = std::fs::read(path).map_err(|e| self.io_err(path, "read", &e))?;
        let noun = self.noun;
        if !self.matches(&bytes) {
            return Err(corrupt(
                path,
                0,
                format!(
                    "not a helios cell {noun} (bad magic); point --{noun} at a {noun} file, \
                     or delete the file to start fresh"
                ),
            ));
        }
        let at = self.magic.len();
        let header = frame_at(&bytes, at).and_then(|(payload, end)| {
            let text = std::str::from_utf8(payload).ok()?;
            let header: H = serde_json::from_str(text).ok()?;
            let identity: Identity = serde_json::from_str(text).ok()?;
            Some((header, identity, end))
        });
        let Some((header, identity, mut valid)) = header else {
            return Err(corrupt(
                path,
                at as u64,
                format!(
                    "{noun} header record is torn or corrupt; the file cannot be trusted \
                     — delete it to start fresh"
                ),
            ));
        };
        trust(&header).map_err(|detail| corrupt(path, at as u64, detail.into()))?;

        let tag = usize::from(self.tagged);
        let mut cells: Vec<CellResult> = Vec::with_capacity(bytes.len() / self.cell_bytes);
        let mut attempts: Vec<usize> = Vec::new();
        // Built at the first cell index that does not rise; until then
        // the last kept index is larger than every other kept one.
        let mut seen: Option<HashSet<usize>> = None;
        while valid + tag < bytes.len() {
            let kind = if self.tagged { bytes[valid] } else { 0 };
            let Some((payload, end)) = frame_at(&bytes, valid + tag) else {
                break;
            };
            let (first, tried) = (cells.len(), attempts.len());
            if decode(kind, payload, &mut cells, &mut attempts).is_none() {
                cells.truncate(first);
                attempts.truncate(tried);
                break;
            }
            // Keep the first occurrence of each cell, in place.
            let mut kept = first;
            for at in first..cells.len() {
                let index = cells[at].cell;
                let fresh = match &mut seen {
                    Some(seen) => seen.insert(index),
                    None if kept == 0 || cells[kept - 1].cell < index => true,
                    None => {
                        let kept_cells = cells[..kept].iter().map(|c| c.cell);
                        seen.insert(kept_cells.collect()).insert(index)
                    }
                };
                if fresh {
                    cells.swap(kept, at);
                    kept += 1;
                }
            }
            cells.truncate(kept);
            valid = end;
        }
        let dropped_bytes = (bytes.len() - valid) as u64;
        // Free the file before the shrink below copies the cells, so
        // the read's peak holds one or the other, not both.
        drop(bytes);
        cells.sort_by_key(|c| c.cell);
        // The scan reserved `cells` for the most the file could hold; a
        // report may be held for a whole merge, so it keeps no spare
        // capacity.
        cells.shrink_to_fit();
        Ok(DurableSalvage {
            pending: pending(&attempts, &cells),
            report: ShardReport {
                spec_name: identity.spec_name,
                spec_digest: identity.spec_digest,
                total_cells: identity.total_cells,
                shard_index: identity.shard_index,
                shard_count: identity.shard_count,
                cells,
            },
            valid_bytes: valid as u64,
            dropped_bytes,
        })
    }

    /// Cuts `path` back to its `valid_bytes` prefix in place (fsync'd)
    /// so it ends on a record boundary; a no-op when nothing was
    /// dropped.
    pub(crate) fn cut_torn_tail(
        &self,
        path: &Path,
        valid_bytes: u64,
        dropped_bytes: u64,
    ) -> Result<(), EngineError> {
        if dropped_bytes == 0 {
            return Ok(());
        }
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| self.io_err(path, "open for truncate", &e))?;
        file.set_len(valid_bytes)
            .map_err(|e| self.io_err(path, "truncate torn tail", &e))?;
        file.sync_all()
            .map_err(|e| self.io_err(path, "fsync after truncate", &e))
    }
}

/// Appends whole frames to a framed file, each write one `write_all`
/// and one `sync_data`.
#[derive(Debug)]
pub(crate) struct Appender {
    file: File,
    path: PathBuf,
    format: &'static Format,
}

impl Appender {
    /// Creates (truncating) `path` with a durable magic + header frame.
    pub(crate) fn create(
        format: &'static Format,
        path: &Path,
        header: &impl Serialize,
    ) -> Result<Appender, EngineError> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| format.io_err(path, "create", &e))?;
        let payload = serde_json::to_string(header)
            .map_err(|e| EngineError::Config(format!("serialize {} header: {e}", format.noun)))?;
        let mut out = Appender {
            file,
            path: path.to_path_buf(),
            format,
        };
        let mut buf = format.magic.to_vec();
        push_frame(&mut buf, payload.as_bytes());
        out.write_synced("write", "header", &buf)?;
        Ok(out)
    }

    /// Opens a framed file, salvaged first by the caller, for appending.
    pub(crate) fn open_append(
        format: &'static Format,
        path: &Path,
    ) -> Result<Appender, EngineError> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format.io_err(path, "open for append", &e))?;
        Ok(Appender {
            file,
            path: path.to_path_buf(),
            format,
        })
    }

    /// The path being appended to.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// The bytes of one record: the kind byte when the format is tagged,
    /// then the frame; a payload over the cap is refused.
    pub(crate) fn record(&self, kind: u8, payload: &[u8]) -> Result<Vec<u8>, EngineError> {
        let Format { noun, record, .. } = self.format;
        if payload.len() as u64 > u64::from(MAX_RECORD_LEN) {
            return Err(EngineError::Config(format!(
                "{noun} {record} payload of {} bytes exceeds the {MAX_RECORD_LEN}-byte cap",
                payload.len()
            )));
        }
        let mut buf = Vec::with_capacity(9 + payload.len());
        if self.format.tagged {
            buf.push(kind);
        }
        push_frame(&mut buf, payload);
        Ok(buf)
    }

    /// Durably appends one [`record`](Appender::record).
    pub(crate) fn append(&mut self, kind: u8, payload: &[u8]) -> Result<(), EngineError> {
        let buf = self.record(kind, payload)?;
        self.write_synced("append", self.format.record, &buf)
    }

    /// Writes `bytes` and syncs them; errors read `{verb} {what}` and
    /// `fsync {what}`.
    pub(crate) fn write_synced(
        &mut self,
        verb: &str,
        what: &str,
        bytes: &[u8],
    ) -> Result<(), EngineError> {
        let (format, path) = (self.format, &self.path);
        self.file
            .write_all(bytes)
            .map_err(|e| format.io_err(path, &format!("{verb} {what}"), &e))?;
        #[cfg(test)]
        probe::count(path);
        self.file
            .sync_data()
            .map_err(|e| format.io_err(path, &format!("fsync {what}"), &e))
    }
}

/// Test-only count of the `sync_data` calls [`Appender`] makes, by
/// file path. Keyed by path, not by thread as `helios_sched`'s probe
/// is, because a multi-worker sweep syncs from its worker threads; each
/// test writes its own paths, so it reads exactly its own syncs.
#[cfg(test)]
pub(crate) mod probe {
    use std::collections::BTreeMap;
    use std::path::{Path, PathBuf};
    use std::sync::Mutex;

    static SYNCS: Mutex<BTreeMap<PathBuf, u64>> = Mutex::new(BTreeMap::new());

    pub(crate) fn count(path: &Path) {
        let mut syncs = SYNCS.lock().expect("no poisoned probe lock");
        *syncs.entry(path.to_path_buf()).or_insert(0) += 1;
    }

    /// Returns the syncs of `path` so far and resets them.
    pub(crate) fn take(path: &Path) -> u64 {
        let mut syncs = SYNCS.lock().expect("no poisoned probe lock");
        syncs.remove(path).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::JournalHeader;
    use proptest::prelude::*;

    static TEST: Format = Format {
        magic: *b"HELIOST1",
        noun: "test",
        record: "record",
        tagged: true,
        cell_bytes: 8,
    };

    fn cell(i: usize) -> CellResult {
        CellResult {
            cell: i,
            ..CellResult::default()
        }
    }

    fn header() -> JournalHeader {
        JournalHeader {
            spec_name: "t".into(),
            spec_digest: "d".into(),
            total_cells: 4,
            shard_index: 1,
            shard_count: 2,
        }
    }

    #[test]
    fn a_frame_that_fails_to_decode_keeps_none_of_its_cells() {
        let path = std::env::temp_dir().join(format!("helios-framed-{}", std::process::id()));
        let mut out = Appender::create(&TEST, &path, &header()).unwrap();
        out.append(1, b"cells 0 and 0").unwrap();
        let boundary = std::fs::metadata(&path).unwrap().len();
        out.append(2, b"cells 1 then a failure").unwrap();
        drop(out);
        // Kind 1 carries cell 0 twice and attempt 3; kind 2 pushes cell
        // 1 and attempt 2, then fails.
        let salvage = TEST
            .read(
                &path,
                |_: &JournalHeader| Ok(()),
                |kind, _, cells, attempts| {
                    cells.push(cell(0));
                    if kind == 2 {
                        cells.push(cell(1));
                        attempts.push(2);
                        return None;
                    }
                    cells.push(cell(0));
                    attempts.push(3);
                    Some(())
                },
            )
            .unwrap();
        let h = header();
        let report = ShardReport {
            spec_name: h.spec_name,
            spec_digest: h.spec_digest,
            total_cells: h.total_cells,
            shard_index: h.shard_index,
            shard_count: h.shard_count,
            cells: vec![cell(0)],
        };
        assert_eq!(salvage.report, report);
        assert_eq!(salvage.pending, vec![(3, 1)]);
        assert_eq!(salvage.valid_bytes, boundary);
        assert_eq!(salvage.dropped_bytes, 9 + 22);

        // A header the format does not trust is refused at its offset.
        let err = TEST
            .read(
                &path,
                |_: &JournalHeader| Err("untrusted"),
                |_, _, _, _| Some(()),
            )
            .unwrap_err()
            .to_string();
        assert!(err.contains("at byte 8: untrusted"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    /// The quadratic tally [`pending`] replaced: one scan of the
    /// completions and one of the tally per attempt record.
    fn pending_reference(attempts: &[usize], cells: &[usize]) -> Vec<(usize, u32)> {
        let mut out: Vec<(usize, u32)> = Vec::new();
        for &cell in attempts {
            if cells.contains(&cell) {
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
    fn pending_matches_the_quadratic_reference() {
        use rand::{Rng, SeedableRng};
        // Hand-made journals: repeated attempts, completed cells among
        // them, completions before and after their attempts.
        let mut cases: Vec<(Vec<usize>, Vec<usize>)> = vec![
            (vec![], vec![]),
            (vec![0, 1], vec![0, 1]),
            (vec![5, 2, 5, 3, 5, 2, 3], vec![2]),
            (vec![9, 9, 9, 1, 7, 1, 0, 9, 0], vec![1, 7]),
        ];
        // Random interleavings: 40 journals of up to 60 attempts over
        // 12 cells, a third of the cells completed.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        for _ in 0..40 {
            let attempts = (0..rng.gen_range(0..60))
                .map(|_| rng.gen_range(0..12))
                .collect();
            let cells = (0..12).filter(|_| rng.gen_range(0..3) == 0).collect();
            cases.push((attempts, cells));
        }
        for (attempts, done) in &cases {
            let cells: Vec<CellResult> = done.iter().map(|&i| cell(i)).collect();
            assert_eq!(
                pending(attempts, &cells),
                pending_reference(attempts, done),
                "{attempts:?} {done:?}"
            );
        }
        let (attempts, done) = &cases[2];
        let cells: Vec<CellResult> = done.iter().map(|&i| cell(i)).collect();
        assert_eq!(pending(attempts, &cells), vec![(3, 2), (5, 3)]);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time loop the slicing-by-8 [`crc32`] replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Slicing-by-8 agrees with the byte-table loop on every length
        /// (so every tail length) and every start offset (so every
        /// alignment of the 8-byte steps).
        #[test]
        fn crc32_matches_the_bytewise_reference(
            bytes in prop::collection::vec(0u8..=255, 0..4104),
            start in 0usize..8,
        ) {
            let slice = &bytes[start.min(bytes.len())..];
            prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
        }
    }
}
