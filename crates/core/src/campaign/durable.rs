//! The durable sweep files, named in one place.
//!
//! A sweep that must survive a crash keeps its finished cells in one of
//! two framed files: the write-ahead cell journal (`HELIOSJ1`,
//! [`journal`]) or the columnar cell store (`HELIOSC1`,
//! [`store::segment`](crate::store::segment)). [`Durable`] is the one
//! place that knows both: it tells a file's format by its magic, names
//! the format in the words messages use, and reads or recovers either
//! file into one [`DurableSalvage`] view. The CLI, the sweep driver's
//! sinks and the fuzz oracles go through it instead of choosing between
//! the two formats' readers themselves.

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
/// them, and the cells a crash interrupted.
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
        Ok(match self {
            Durable::Journal => {
                let salvage = journal::read_journal(path)?;
                DurableSalvage {
                    pending: salvage.pending_attempts(),
                    dropped_bytes: salvage.dropped_bytes,
                    valid_bytes: salvage.valid_bytes,
                    report: salvage.to_shard_report(),
                }
            }
            Durable::Store => {
                let salvage = segment::read_store(path)?;
                DurableSalvage {
                    pending: Vec::new(),
                    dropped_bytes: salvage.dropped_bytes,
                    valid_bytes: salvage.valid_bytes,
                    report: salvage.to_shard_report(),
                }
            }
        })
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
}
