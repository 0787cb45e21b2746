//! The durable sweep files, named in one place.
//!
//! A sweep that must survive a crash keeps its finished cells in one of
//! two framed files: the write-ahead cell journal (`HELIOSJ1`,
//! [`journal`]) or the columnar cell store (`HELIOSC1`,
//! [`store::segment`](crate::store::segment)). [`Durable`] is the one
//! place that knows both: it tells a file's format by its magic, names
//! the format in the words messages use, and reads or recovers either
//! file by picking its reader. Both readers return the one
//! [`DurableSalvage`], which the framed-file layer builds from its scan
//! (each format supplies only its payload decoder). The CLI, the sweep
//! driver's sinks and the fuzz oracles go through [`Durable`] instead of
//! choosing between the two formats' readers themselves.

use std::io::Read as _;
use std::path::Path;

use super::journal;
use super::sweep::ShardReport;
use crate::framed::Format;
use crate::store::segment;
use crate::EngineError;

/// A durable sweep file format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durable {
    /// The write-ahead cell journal: an attempt record before each cell
    /// and a completion record after, so crash loops are visible.
    Journal,
    /// The columnar cell store, `helios query`'s native format: finished
    /// cells in checksummed row groups, no attempt records.
    Store,
}

/// What a durable file holds: the salvaged cells, the torn tail after
/// them, and the cells a crash interrupted. The one salvaged shape of
/// both formats: [`read_journal`](journal::read_journal),
/// [`read_store`](segment::read_store) and [`Durable::read`] all return
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableSalvage {
    /// The salvaged cells as a shard report of the file's campaign and
    /// shard geometry.
    pub report: ShardReport,
    /// Bytes of torn tail after the valid prefix.
    pub dropped_bytes: u64,
    /// Cells with attempt records but no completion record, with their
    /// attempt counts, sorted by cell. Always empty for a store, which
    /// writes no attempt records.
    pub pending: Vec<(usize, u32)>,
    /// Bytes of valid prefix (magic + header + intact records).
    pub valid_bytes: u64,
}

impl DurableSalvage {
    /// The salvaged cells as a [`ShardReport`]: the bridge that lets
    /// [`merge_shards`](super::merge_shards) and `query` consume durable
    /// files directly. It consumes the salvage, so the cells move
    /// instead of being cloned.
    // A consuming `to_*`: every caller drops the salvage right after,
    // and the benchmark calls it by this name.
    #[allow(clippy::wrong_self_convention)]
    #[must_use]
    pub fn to_shard_report(self) -> ShardReport {
        self.report
    }
}

impl Durable {
    /// `journal` for a journal, `store` for a store.
    fn pick<T>(self, journal: T, store: T) -> T {
        match self {
            Durable::Journal => journal,
            Durable::Store => store,
        }
    }

    fn format(self) -> &'static Format {
        self.pick(&journal::FORMAT, &segment::FORMAT)
    }

    /// The format of the file at `path`, told by its 8-byte magic (the
    /// only bytes read), or `None` for any other file.
    ///
    /// # Errors
    ///
    /// When the file cannot be opened or read.
    pub fn of(path: &Path) -> std::io::Result<Option<Durable>> {
        let mut magic = Vec::with_capacity(8);
        std::fs::File::open(path)?.take(8).read_to_end(&mut magic)?;
        Ok([Durable::Journal, Durable::Store]
            .into_iter()
            .find(|durable| durable.format().matches(&magic)))
    }

    /// The file's noun, also its CLI flag: `journal` or `store`.
    #[must_use]
    pub fn noun(self) -> &'static str {
        self.format().noun
    }

    /// What the file calls one finished cell: `cell` or `row`.
    #[must_use]
    pub fn unit(self) -> &'static str {
        self.pick("cell", "row")
    }

    /// What writing a cell to the file is called: `journaled` or
    /// `stored`.
    #[must_use]
    pub fn verb(self) -> &'static str {
        self.pick("journaled", "stored")
    }

    /// The file described for a reader: `a cell journal` or `a columnar
    /// cell store`.
    #[must_use]
    pub fn description(self) -> &'static str {
        self.pick("a cell journal", "a columnar cell store")
    }

    /// Reads and salvages the file at `path` without modifying it: a
    /// torn tail is skipped, not truncated.
    ///
    /// # Errors
    ///
    /// [`CampaignError::CorruptResume`](super::CampaignError::CorruptResume)
    /// when the file is not of this format or its header is torn (or,
    /// for a store, written with another schema), and I/O errors as
    /// [`EngineError::Config`].
    pub fn read(self, path: &Path) -> Result<DurableSalvage, EngineError> {
        match self {
            Durable::Journal => journal::read_journal(path),
            Durable::Store => segment::read_store(path),
        }
    }

    /// Salvages the file at `path` in place: reads it like
    /// [`read`](Durable::read), then truncates the torn tail (fsync'd)
    /// so the file can be appended to again.
    ///
    /// # Errors
    ///
    /// As [`read`](Durable::read), plus I/O errors from the truncation.
    pub fn recover(self, path: &Path) -> Result<DurableSalvage, EngineError> {
        let salvage = self.read(path)?;
        self.format()
            .cut_torn_tail(path, salvage.valid_bytes, salvage.dropped_bytes)?;
        Ok(salvage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::sweep::CellResult;
    use crate::campaign::{CampaignError, JournalHeader};

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("helios-durable-{}-{name}", std::process::id()))
    }

    #[test]
    fn the_magic_alone_tells_the_format() {
        let cases: [(&[u8], Option<Durable>); 5] = [
            (b"HELIOSJ1 and anything after", Some(Durable::Journal)),
            (b"HELIOSC1", Some(Durable::Store)),
            (b"HELIOSJ", None),
            (b"{\"spec_name\": \"x\"}", None),
            (b"", None),
        ];
        for (bytes, want) in cases {
            let path = scratch("magic");
            std::fs::write(&path, bytes).unwrap();
            assert_eq!(Durable::of(&path).unwrap(), want, "{bytes:?}");
            let _ = std::fs::remove_file(&path);
        }
        assert!(Durable::of(&scratch("absent")).is_err());
    }

    fn cell(i: usize) -> CellResult {
        CellResult {
            cell: i,
            family: "montage".into(),
            scheduler: ["heft", "cpop"][i % 2].into(),
            makespan_secs: 1.5 + i as f64,
            completed: i != 2,
            incomplete_reason: (i == 2).then(|| "retries_exhausted".into()),
            ..CellResult::default()
        }
    }

    /// A small journal: three cells, then cell 3 attempted twice with
    /// no completion.
    fn small_journal(path: &Path) {
        let header = JournalHeader {
            spec_name: "cut".into(),
            spec_digest: "d".into(),
            total_cells: 4,
            shard_index: 1,
            shard_count: 1,
        };
        let mut out = journal::JournalWriter::create(path, &header, None).unwrap();
        for i in 0..3 {
            out.append_attempt(i).unwrap();
            out.append_cell(&cell(i)).unwrap();
        }
        out.append_attempt(3).unwrap();
        out.append_attempt(3).unwrap();
    }

    /// A small store: two row groups, of three cells and of one.
    fn small_store(path: &Path) {
        let header = segment::StoreHeader {
            spec_name: "cut".into(),
            spec_digest: "d".into(),
            total_cells: 4,
            shard_index: 1,
            shard_count: 1,
            columns: crate::store::schema_names(),
        };
        let mut out = segment::StoreWriter::create(path, &header).unwrap();
        for i in 0..3 {
            out.append_cell(&cell(i)).unwrap();
        }
        out.flush().unwrap();
        out.append_cell(&cell(3)).unwrap();
        out.flush().unwrap();
    }

    /// A file cut at every byte offset reads as a typed `CorruptResume`
    /// while the cut falls inside the magic or the header frame, and
    /// after that as a salvage of a subset of the whole file's cells
    /// whose valid prefix and torn tail add up to the cut. No cut
    /// panics.
    #[test]
    fn a_file_cut_at_every_offset_reads_typed_or_as_a_subset() {
        for durable in [Durable::Journal, Durable::Store] {
            let path = scratch(&format!("whole.{}", durable.noun()));
            durable.pick::<fn(&Path)>(small_journal, small_store)(&path);
            let bytes = std::fs::read(&path).unwrap();
            let whole = durable.read(&path).unwrap();
            let cells = durable.pick(3, 4);
            assert_eq!(whole.report.cells, (0..cells).map(cell).collect::<Vec<_>>());
            let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
            let header_end = 16 + header_len as usize;
            let cut_path = scratch(&format!("cut.{}", durable.noun()));
            let mut kept_before = 0;
            for cut in 0..=bytes.len() {
                std::fs::write(&cut_path, &bytes[..cut]).unwrap();
                let read = durable.read(&cut_path);
                if cut < header_end {
                    let err = read.expect_err("no trusted header");
                    assert!(
                        matches!(
                            err,
                            EngineError::Campaign(CampaignError::CorruptResume { .. })
                        ),
                        "{} cut at {cut}: {err}",
                        durable.noun()
                    );
                    continue;
                }
                let salvage = read.unwrap();
                let cells = &salvage.report.cells;
                assert!(
                    cells.iter().all(|c| whole.report.cells.contains(c)),
                    "{} cut at {cut}",
                    durable.noun()
                );
                assert!(cells.len() >= kept_before, "a longer cut keeps as many");
                kept_before = cells.len();
                assert_eq!(salvage.valid_bytes + salvage.dropped_bytes, cut as u64);
                assert!(salvage.valid_bytes >= header_end as u64);
            }
            assert_eq!(kept_before, cells);
            assert_eq!(
                whole.pending,
                durable.pick(vec![(3, 2)], Vec::new()),
                "{}",
                durable.noun()
            );
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(&cut_path);
        }
    }
}
