//! The columnar cell-result store and its query evaluator.
//!
//! Three layers, each usable alone:
//!
//! * [`schema`] — the sweep row schema defined once: a [`Column`] enum
//!   mirroring every `CellResult` field, one table giving each column's
//!   name and [`ColumnType`], typed values, and the summary plan
//!   (`SUMMARY_KEYS`/`SUMMARY_AGGREGATES`) that merge, summarize, and
//!   the CLI printer all derive from.
//! * [`segment`] — the `HELIOSC1` append-friendly segment file: the
//!   columnar row-group codec over the framed-file layer the cell
//!   journal also uses (checksummed frames, longest-valid-prefix
//!   salvage), written incrementally by [`StoreWriter`] as cells
//!   finish. A group decodes column by column straight into cells.
//! * [`exec`] + [`query`] — the small `SELECT … [WHERE …] [GROUP BY …]`
//!   language `helios query` runs, evaluated in place: [`Predicate`]s
//!   filter the cells and the hash group-by [`aggregate`] folds them,
//!   both reading columns through [`Column::get`], and owned
//!   [`Value`]s are built only for output rows. [`Agg`] is the one
//!   aggregate vocabulary: the parser reads it by its SQL spelling,
//!   the summary plan names it, and [`aggregate`] computes it. The
//!   sweep summary is itself one [`aggregate`] call
//!   ([`summarize_cells`]), so the aggregation math and the null-mean
//!   semantics exist exactly once.

pub mod exec;
pub mod query;
pub mod schema;
pub mod segment;

pub use exec::{aggregate, summarize_cells, Agg, CmpOp, Literal, Predicate};
pub use query::{parse_query, run_query, QueryOutput, QueryPlan};
pub use schema::{
    row_from_cell, schema_names, summary_row_values, Column, ColumnType, Row, SummaryColumn, Value,
    ValueRef, SUMMARY_AGGREGATES, SUMMARY_KEYS,
};
pub use segment::{read_store, StoreHeader, StoreWriter, DEFAULT_SEGMENT_ROWS, STORE_MAGIC};
