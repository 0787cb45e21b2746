//! The sweep row schema, defined once.
//!
//! [`Column`] enumerates every field of a [`CellResult`] in declaration
//! (= serialization) order, and one table gives each column's name and
//! [`ColumnType`]; everything that consumes cell rows — the segment
//! codec, the query evaluator and planner, the summary aggregation and
//! the CLI printer — derives its column list from them instead of
//! hand-maintaining its own. The summary plan names its aggregates in
//! the query evaluator's own [`Agg`] vocabulary. Cells are read in
//! place through [`Column::get`] (a borrowed [`ValueRef`]) and filled
//! by the segment decoder through `Column::set`. Those two, and
//! [`summary_row_values`], destructure the structs field by field with
//! no `..` rest pattern, so adding a sweep field without teaching the
//! schema about it is a compile error, not a silently dropped column.

use super::exec::Agg;
use crate::campaign::sweep::{CellResult, SummaryRow};

/// One column of the cell-row schema, in [`CellResult`] field order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Column {
    /// Global cell index in spec expansion order.
    Cell,
    /// Workflow family name.
    Family,
    /// Platform preset name.
    Platform,
    /// Scheduler name.
    Scheduler,
    /// Cell seed.
    Seed,
    /// Realized makespan, seconds.
    MakespanSecs,
    /// Schedule length ratio.
    Slr,
    /// Total energy, joules.
    EnergyJ,
    /// Inter-device transfers performed.
    Transfers,
    /// Bytes moved across links.
    TransferBytes,
    /// Injected fault count.
    Failures,
    /// Retries performed.
    Retries,
    /// Whether the cell ran to completion.
    Completed,
    /// Non-contributing executed device-seconds.
    WastedWorkSecs,
    /// Restart/backoff/re-planning overhead, seconds.
    RecoveryOverheadSecs,
    /// `makespan / fault_free_makespan - 1`.
    MakespanDegradation,
    /// Transfers rerouted over the default link.
    Reroutes,
    /// Seconds transfers stalled on downed links.
    PartitionDowntimeSecs,
    /// Tasks re-executed after data-product loss.
    RematerializedTasks,
    /// Dependency bytes re-staged for re-executions.
    RematerializedBytes,
    /// Why an incomplete cell stopped (`None` for completed cells).
    IncompleteReason,
    /// Device-seconds of live capacity integrated over the run.
    CapacitySecs,
    /// Spot-preemption kills executed.
    Preemptions,
    /// Task copies migrated off draining or preempted devices.
    DrainMigratedTasks,
    /// Busy fraction of capacity contributed by mid-run joins.
    JoinUtilization,
}

/// The physical type of a column's values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// Unsigned 64-bit integer (also carries `usize` fields).
    U64,
    /// Unsigned 32-bit integer.
    U32,
    /// IEEE double.
    F64,
    /// Boolean.
    Bool,
    /// UTF-8 string.
    Str,
    /// Nullable UTF-8 string.
    OptStr,
}

impl ColumnType {
    /// Whether values of this type compare and aggregate as numbers.
    #[must_use]
    pub fn is_numeric(self) -> bool {
        matches!(self, ColumnType::U64 | ColumnType::U32 | ColumnType::F64)
    }
}

/// Every column with its name and type, in [`CellResult`] field order:
/// the one place a column's name and type are stated. Entry `i` is the
/// variant whose discriminant is `i` (checked at compile time below).
#[rustfmt::skip]
const COLUMNS: [(Column, &str, ColumnType); 25] = [
    (Column::Cell, "cell", ColumnType::U64),
    (Column::Family, "family", ColumnType::Str),
    (Column::Platform, "platform", ColumnType::Str),
    (Column::Scheduler, "scheduler", ColumnType::Str),
    (Column::Seed, "seed", ColumnType::U64),
    (Column::MakespanSecs, "makespan_secs", ColumnType::F64),
    (Column::Slr, "slr", ColumnType::F64),
    (Column::EnergyJ, "energy_j", ColumnType::F64),
    (Column::Transfers, "transfers", ColumnType::U64),
    (Column::TransferBytes, "transfer_bytes", ColumnType::F64),
    (Column::Failures, "failures", ColumnType::U32),
    (Column::Retries, "retries", ColumnType::U32),
    (Column::Completed, "completed", ColumnType::Bool),
    (Column::WastedWorkSecs, "wasted_work_secs", ColumnType::F64),
    (Column::RecoveryOverheadSecs, "recovery_overhead_secs", ColumnType::F64),
    (Column::MakespanDegradation, "makespan_degradation", ColumnType::F64),
    (Column::Reroutes, "reroutes", ColumnType::U32),
    (Column::PartitionDowntimeSecs, "partition_downtime_secs", ColumnType::F64),
    (Column::RematerializedTasks, "rematerialized_tasks", ColumnType::U32),
    (Column::RematerializedBytes, "rematerialized_bytes", ColumnType::F64),
    (Column::IncompleteReason, "incomplete_reason", ColumnType::OptStr),
    (Column::CapacitySecs, "capacity_secs", ColumnType::F64),
    (Column::Preemptions, "preemptions", ColumnType::U32),
    (Column::DrainMigratedTasks, "drain_migrated_tasks", ColumnType::U32),
    (Column::JoinUtilization, "join_utilization", ColumnType::F64),
];

impl Column {
    /// Every column, in [`CellResult`] field order — the canonical
    /// schema of store segments and query rows.
    pub const ALL: [Column; 25] = {
        let mut all = [Column::Cell; 25];
        let mut i = 0;
        while i < all.len() {
            assert!(COLUMNS[i].0 as usize == i, "COLUMNS is in variant order");
            all[i] = COLUMNS[i].0;
            i += 1;
        }
        all
    };

    /// The column's position in [`Column::ALL`] (= its index in a
    /// full-schema row).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The column's name — identical to the [`CellResult`] field name
    /// and the JSON report key.
    #[must_use]
    pub fn name(self) -> &'static str {
        COLUMNS[self.index()].1
    }

    /// The column's physical type.
    #[must_use]
    pub fn column_type(self) -> ColumnType {
        COLUMNS[self.index()].2
    }

    /// Resolves a column by its name; `None` for unknown names.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Column> {
        COLUMNS.iter().find(|c| c.1 == name).map(|c| c.0)
    }
}

/// The schema's column names in order — the `schema()` of a full scan.
#[must_use]
pub fn schema_names() -> Vec<String> {
    Column::ALL.iter().map(|c| c.name().to_owned()).collect()
}

/// One cell value flowing through the query evaluator.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned 64-bit integer.
    U64(u64),
    /// Unsigned 32-bit integer.
    U32(u32),
    /// IEEE double.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// UTF-8 string.
    Str(String),
    /// Absent value (a null `incomplete_reason`, or an aggregate over
    /// zero contributing rows).
    Null,
}

/// One output row of the evaluator: one [`Value`] per output column.
pub type Row = Vec<Value>;

/// A [`Value`] borrowed from a cell in place, as [`Column::get`] reads
/// it: strings are `&str`, so a read allocates nothing. Its `==` is
/// [`Value`]'s — variant plus payload, so `-0.0 == 0.0`, a NaN never
/// equals itself, and `U32(1) != U64(1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// Unsigned 64-bit integer.
    U64(u64),
    /// Unsigned 32-bit integer.
    U32(u32),
    /// IEEE double.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// UTF-8 string.
    Str(&'a str),
    /// Absent value (a null `incomplete_reason`).
    Null,
}

impl ValueRef<'_> {
    /// The value as an `f64` when it is numeric; `None` otherwise.
    #[must_use]
    pub fn as_f64(self) -> Option<f64> {
        match self {
            ValueRef::U64(v) => Some(v as f64),
            ValueRef::U32(v) => Some(f64::from(v)),
            ValueRef::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The owned [`Value`]; a string is copied.
    #[must_use]
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::U64(v) => Value::U64(v),
            ValueRef::U32(v) => Value::U32(v),
            ValueRef::F64(v) => Value::F64(v),
            ValueRef::Bool(v) => Value::Bool(v),
            ValueRef::Str(v) => Value::Str(v.to_owned()),
            ValueRef::Null => Value::Null,
        }
    }
}

impl Column {
    /// Reads this column of `cell` in place. The exhaustive
    /// destructuring (no `..`) is deliberate: a new sweep field fails to
    /// compile here until the schema learns its column.
    #[must_use]
    pub fn get(self, cell: &CellResult) -> ValueRef<'_> {
        let CellResult {
            cell: index,
            family,
            platform,
            scheduler,
            seed,
            makespan_secs,
            slr,
            energy_j,
            transfers,
            transfer_bytes,
            failures,
            retries,
            completed,
            wasted_work_secs,
            recovery_overhead_secs,
            makespan_degradation,
            reroutes,
            partition_downtime_secs,
            rematerialized_tasks,
            rematerialized_bytes,
            incomplete_reason,
            capacity_secs,
            preemptions,
            drain_migrated_tasks,
            join_utilization,
        } = cell;
        match self {
            Column::Cell => ValueRef::U64(*index as u64),
            Column::Family => ValueRef::Str(family),
            Column::Platform => ValueRef::Str(platform),
            Column::Scheduler => ValueRef::Str(scheduler),
            Column::Seed => ValueRef::U64(*seed),
            Column::MakespanSecs => ValueRef::F64(*makespan_secs),
            Column::Slr => ValueRef::F64(*slr),
            Column::EnergyJ => ValueRef::F64(*energy_j),
            Column::Transfers => ValueRef::U64(*transfers as u64),
            Column::TransferBytes => ValueRef::F64(*transfer_bytes),
            Column::Failures => ValueRef::U32(*failures),
            Column::Retries => ValueRef::U32(*retries),
            Column::Completed => ValueRef::Bool(*completed),
            Column::WastedWorkSecs => ValueRef::F64(*wasted_work_secs),
            Column::RecoveryOverheadSecs => ValueRef::F64(*recovery_overhead_secs),
            Column::MakespanDegradation => ValueRef::F64(*makespan_degradation),
            Column::Reroutes => ValueRef::U32(*reroutes),
            Column::PartitionDowntimeSecs => ValueRef::F64(*partition_downtime_secs),
            Column::RematerializedTasks => ValueRef::U32(*rematerialized_tasks),
            Column::RematerializedBytes => ValueRef::F64(*rematerialized_bytes),
            Column::IncompleteReason => incomplete_reason
                .as_deref()
                .map_or(ValueRef::Null, ValueRef::Str),
            Column::CapacitySecs => ValueRef::F64(*capacity_secs),
            Column::Preemptions => ValueRef::U32(*preemptions),
            Column::DrainMigratedTasks => ValueRef::U32(*drain_migrated_tasks),
            Column::JoinUtilization => ValueRef::F64(*join_utilization),
        }
    }

    /// Stores `value` in this column of `cell` — the inverse of
    /// [`Column::get`], and how the segment decoder fills cells column
    /// by column. `None` when `value` does not carry the column's type.
    pub(crate) fn set(self, cell: &mut CellResult, value: Value) -> Option<()> {
        let CellResult {
            cell: index,
            family,
            platform,
            scheduler,
            seed,
            makespan_secs,
            slr,
            energy_j,
            transfers,
            transfer_bytes,
            failures,
            retries,
            completed,
            wasted_work_secs,
            recovery_overhead_secs,
            makespan_degradation,
            reroutes,
            partition_downtime_secs,
            rematerialized_tasks,
            rematerialized_bytes,
            incomplete_reason,
            capacity_secs,
            preemptions,
            drain_migrated_tasks,
            join_utilization,
        } = cell;
        match (self, value) {
            (Column::Cell, Value::U64(v)) => *index = v as usize,
            (Column::Family, Value::Str(v)) => *family = v,
            (Column::Platform, Value::Str(v)) => *platform = v,
            (Column::Scheduler, Value::Str(v)) => *scheduler = v,
            (Column::Seed, Value::U64(v)) => *seed = v,
            (Column::MakespanSecs, Value::F64(v)) => *makespan_secs = v,
            (Column::Slr, Value::F64(v)) => *slr = v,
            (Column::EnergyJ, Value::F64(v)) => *energy_j = v,
            (Column::Transfers, Value::U64(v)) => *transfers = v as usize,
            (Column::TransferBytes, Value::F64(v)) => *transfer_bytes = v,
            (Column::Failures, Value::U32(v)) => *failures = v,
            (Column::Retries, Value::U32(v)) => *retries = v,
            (Column::Completed, Value::Bool(v)) => *completed = v,
            (Column::WastedWorkSecs, Value::F64(v)) => *wasted_work_secs = v,
            (Column::RecoveryOverheadSecs, Value::F64(v)) => *recovery_overhead_secs = v,
            (Column::MakespanDegradation, Value::F64(v)) => *makespan_degradation = v,
            (Column::Reroutes, Value::U32(v)) => *reroutes = v,
            (Column::PartitionDowntimeSecs, Value::F64(v)) => *partition_downtime_secs = v,
            (Column::RematerializedTasks, Value::U32(v)) => *rematerialized_tasks = v,
            (Column::RematerializedBytes, Value::F64(v)) => *rematerialized_bytes = v,
            (Column::IncompleteReason, Value::Str(v)) => *incomplete_reason = Some(v),
            (Column::IncompleteReason, Value::Null) => *incomplete_reason = None,
            (Column::CapacitySecs, Value::F64(v)) => *capacity_secs = v,
            (Column::Preemptions, Value::U32(v)) => *preemptions = v,
            (Column::DrainMigratedTasks, Value::U32(v)) => *drain_migrated_tasks = v,
            (Column::JoinUtilization, Value::F64(v)) => *join_utilization = v,
            _ => return None,
        }
        Some(())
    }
}

/// Converts a [`CellResult`] into a full-schema row of owned values,
/// one [`Column::get`] per column: a `SELECT *` output row.
#[must_use]
pub fn row_from_cell(cell: &CellResult) -> Row {
    Column::ALL.iter().map(|c| c.get(cell).to_value()).collect()
}

/// One aggregated column of a [`SummaryRow`]: CLI header, CLI column
/// width and float precision, and the aggregate that produces it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SummaryColumn {
    /// The CLI table header.
    pub header: &'static str,
    /// The CLI column width (right-aligned).
    pub width: usize,
    /// Float precision for the CLI cell; `None` renders as an integer.
    pub precision: Option<usize>,
    /// The aggregate producing the value.
    pub agg: Agg,
}

/// The summary group-by keys with their CLI column widths
/// (left-aligned), in [`SummaryRow`] field order.
pub const SUMMARY_KEYS: [(Column, usize); 3] = [
    (Column::Family, 14),
    (Column::Platform, 14),
    (Column::Scheduler, 12),
];

/// The aggregated summary columns, in [`SummaryRow`] field order — the
/// one description `merge`, `summarize` and the CLI printer all share.
pub const SUMMARY_AGGREGATES: [SummaryColumn; 5] = [
    SummaryColumn {
        header: "cells",
        width: 6,
        precision: None,
        agg: Agg::Count,
    },
    SummaryColumn {
        header: "makespan (s)",
        width: 16,
        precision: Some(6),
        agg: Agg::AvgCompleted(Column::MakespanSecs),
    },
    SummaryColumn {
        header: "SLR",
        width: 10,
        precision: Some(3),
        agg: Agg::AvgCompleted(Column::Slr),
    },
    SummaryColumn {
        header: "energy (J)",
        width: 14,
        precision: Some(1),
        agg: Agg::AvgCompleted(Column::EnergyJ),
    },
    SummaryColumn {
        header: "compl",
        width: 8,
        precision: Some(2),
        agg: Agg::Frac(Column::Completed),
    },
];

/// A [`SummaryRow`]'s values in `SUMMARY_KEYS ++ SUMMARY_AGGREGATES`
/// order. Exhaustive destructuring: a new summary field fails to
/// compile here until the plan above learns its column.
#[must_use]
pub fn summary_row_values(row: &SummaryRow) -> Vec<Value> {
    let SummaryRow {
        family,
        platform,
        scheduler,
        cells,
        mean_makespan_secs,
        mean_slr,
        mean_energy_j,
        completion_probability,
    } = row;
    let opt = |v: &Option<f64>| match v {
        Some(v) => Value::F64(*v),
        None => Value::Null,
    };
    vec![
        Value::Str(family.clone()),
        Value::Str(platform.clone()),
        Value::Str(scheduler.clone()),
        Value::U64(*cells as u64),
        opt(mean_makespan_secs),
        opt(mean_slr),
        opt(mean_energy_j),
        Value::F64(*completion_probability),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cell() -> CellResult {
        CellResult {
            cell: 7,
            family: "montage".into(),
            platform: "workstation".into(),
            scheduler: "heft".into(),
            seed: 42,
            makespan_secs: 1.5,
            slr: 1.1,
            energy_j: 2.25,
            transfers: 3,
            transfer_bytes: 1e6,
            failures: 1,
            retries: 2,
            completed: false,
            wasted_work_secs: 0.5,
            recovery_overhead_secs: 0.25,
            makespan_degradation: 0.1,
            reroutes: 4,
            partition_downtime_secs: 0.125,
            rematerialized_tasks: 5,
            rematerialized_bytes: 2e6,
            incomplete_reason: Some("retries_exhausted".into()),
            capacity_secs: 9.0,
            preemptions: 6,
            drain_migrated_tasks: 7,
            join_utilization: 0.75,
        }
    }

    #[test]
    fn schema_order_matches_cell_result_fields() {
        // The schema names must be exactly the serde field names in
        // declaration order: the JSON report and the store describe the
        // same row.
        let json = serde_json::to_string(&sample_cell()).unwrap();
        let mut at = 0;
        for col in Column::ALL {
            let key = format!("\"{}\":", col.name());
            let pos = json[at..]
                .find(&key)
                .unwrap_or_else(|| panic!("{} not after byte {at} in {json}", col.name()));
            at += pos;
        }
    }

    #[test]
    fn set_inverts_get_for_every_column() {
        for cell in [sample_cell(), {
            let mut c = sample_cell();
            c.completed = true;
            c.incomplete_reason = None;
            c
        }] {
            let row = row_from_cell(&cell);
            assert_eq!(row.len(), Column::ALL.len());
            let mut back = CellResult::default();
            for (col, value) in Column::ALL.into_iter().zip(row) {
                assert_eq!(col.set(&mut back, value), Some(()), "{}", col.name());
            }
            assert_eq!(back, cell);
        }
    }

    #[test]
    fn set_refuses_a_value_of_the_wrong_type() {
        let mut cell = sample_cell();
        let wrong = [
            (Column::MakespanSecs, Value::Str("oops".into())),
            (Column::Cell, Value::U32(1)),
            (Column::Failures, Value::U64(1)),
            (Column::Family, Value::Null),
            (Column::Completed, Value::F64(1.0)),
        ];
        for (col, value) in wrong {
            assert_eq!(col.set(&mut cell, value), None, "{}", col.name());
        }
        assert_eq!(cell, sample_cell());
    }

    #[test]
    fn value_ref_compares_and_widens_like_value() {
        let pairs = [
            (Value::F64(-0.0), ValueRef::F64(-0.0)),
            (Value::F64(0.0), ValueRef::F64(0.0)),
            (Value::F64(f64::NAN), ValueRef::F64(f64::NAN)),
            (Value::U64(1), ValueRef::U64(1)),
            (Value::U32(1), ValueRef::U32(1)),
            (Value::Bool(true), ValueRef::Bool(true)),
            (Value::Str("a".into()), ValueRef::Str("a")),
            (Value::Null, ValueRef::Null),
        ];
        for (value, borrowed) in &pairs {
            assert_eq!(format!("{value:?}"), format!("{:?}", borrowed.to_value()));
            for (other, other_ref) in &pairs {
                assert_eq!(
                    value == other,
                    borrowed == other_ref,
                    "{value:?} vs {other:?}"
                );
            }
        }
        // The cases the evaluator depends on, spelled out.
        assert_eq!(ValueRef::F64(-0.0), ValueRef::F64(0.0));
        assert_ne!(ValueRef::F64(f64::NAN), ValueRef::F64(f64::NAN));
        assert_ne!(ValueRef::U32(1), ValueRef::U64(1));
        let widened: Vec<Option<u64>> = pairs
            .iter()
            .map(|(_, v)| v.as_f64().map(f64::to_bits))
            .collect();
        let numbers = [-0.0, 0.0, f64::NAN, 1.0, 1.0].map(|x: f64| Some(x.to_bits()));
        assert_eq!(widened, [&numbers[..], &[None; 3]].concat());
    }

    #[test]
    fn column_lookup_round_trips() {
        for col in Column::ALL {
            assert_eq!(Column::by_name(col.name()), Some(col));
            assert_eq!(Column::ALL[col.index()], col);
        }
        assert_eq!(Column::by_name("no_such_column"), None);
    }

    #[test]
    fn summarize_cells_is_the_summary_plan_over_aggregate() {
        let cell = |i: usize, scheduler: &str, completed: bool| CellResult {
            cell: i,
            scheduler: scheduler.into(),
            makespan_secs: 1.0 + i as f64,
            completed,
            ..sample_cell()
        };
        let cells = [
            cell(0, "heft", true),
            cell(1, "olb", false),
            cell(2, "heft", false),
            cell(3, "heft", true),
        ];
        let keys = SUMMARY_KEYS.map(|(c, _)| c);
        let aggs = SUMMARY_AGGREGATES.map(|c| c.agg);
        let rows = crate::store::aggregate(&cells, &keys, &aggs);
        let summary = crate::store::summarize_cells(&cells);
        assert_eq!(summary.len(), 2);
        for (row, summary) in rows.iter().zip(&summary) {
            assert_eq!(&summary_row_values(summary), row);
        }
        // olb never completed: its means are null.
        assert_eq!(summary[1].mean_makespan_secs, None);
    }
}
