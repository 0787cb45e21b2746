//! The columnar cell-result store and its query pipeline.
//!
//! Three layers, each usable alone:
//!
//! * [`schema`] — the sweep row schema defined once: a [`Column`] enum
//!   mirroring every `CellResult` field, typed values, and the summary
//!   aggregation plan (`SUMMARY_KEYS`/`SUMMARY_AGGREGATES`) that
//!   merge, summarize, and the CLI printer all derive from.
//! * [`segment`] — the `HELIOSC1` append-friendly segment file: the
//!   columnar row-group codec over the framed-file layer the cell
//!   journal also uses (checksummed frames, longest-valid-prefix
//!   salvage), written incrementally by [`StoreWriter`] as cells
//!   finish.
//! * [`exec`] + [`query`] — a volcano-style [`Executor`] pipeline
//!   (scan → filter → project → aggregate/group-by) and the small
//!   `SELECT … [WHERE …] [GROUP BY …]` language `helios query`
//!   compiles onto it. The sweep summary is itself a plan over these
//!   executors ([`summarize_cells`]), so the aggregation math and the
//!   null-mean semantics exist exactly once.

pub mod exec;
pub mod query;
pub mod schema;
pub mod segment;

pub use exec::{
    collect, summarize_cells, Agg, AggregateExec, CmpOp, Executor, FilterExec, Literal, Predicate,
    ProjectExec, ScanExec,
};
pub use query::{parse_query, run_query, QueryOutput, QueryPlan};
pub use schema::{
    cell_from_row, row_from_cell, schema_names, summary_row_from_values, summary_row_values,
    Column, ColumnType, Row, SummaryAgg, SummaryColumn, Value, SUMMARY_AGGREGATES, SUMMARY_KEYS,
};
pub use segment::{
    is_store_bytes, read_store, recover_store, StoreHeader, StoreSalvage, StoreWriter,
    DEFAULT_SEGMENT_ROWS, STORE_MAGIC,
};
