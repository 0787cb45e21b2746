//! Query evaluation over cells: WHERE predicates, aggregates and the
//! hash group-by.
//!
//! Evaluation reads cells in place: every [`Predicate`], accumulator
//! and group key reads its column through [`Column::get`], so a scan
//! allocates nothing per cell, and owned [`Value`]s are built only for
//! output rows (see [`run_query`](super::run_query)). The same
//! [`aggregate`] serves three callers: `summarize` (a fixed group-by,
//! see [`summarize_cells`]), `campaign merge` (which recomputes the
//! summary through it), and `helios query`. The sweep's aggregation
//! math — first-seen group order, completed-only means, null means for
//! groups with no completed cell — therefore exists exactly once, here.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};

use crate::campaign::sweep::{CellResult, SummaryRow};

use super::schema::{Column, Row, Value, ValueRef, SUMMARY_AGGREGATES, SUMMARY_KEYS};

/// A comparison operator in a filter predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A literal on the right-hand side of a predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// A numeric literal, compared against any numeric column.
    Num(f64),
    /// A string literal.
    Str(String),
    /// A boolean literal.
    Bool(bool),
    /// The `null` literal (only `=`/`!=`, only nullable columns).
    Null,
}

/// One `column op literal` conjunct of a WHERE clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// The column under test.
    pub col: Column,
    /// The comparison.
    pub op: CmpOp,
    /// The right-hand literal.
    pub literal: Literal,
}

impl Predicate {
    /// Whether `cell` satisfies this predicate. Type agreement is the
    /// planner's job; a value/literal mismatch that slips through
    /// compares as not-equal, never panics.
    #[must_use]
    pub fn matches(&self, cell: &CellResult) -> bool {
        let value = self.col.get(cell);
        let eq = match &self.literal {
            Literal::Num(rhs) => {
                return match value.as_f64() {
                    Some(lhs) => match self.op {
                        CmpOp::Eq => lhs == *rhs,
                        CmpOp::Ne => lhs != *rhs,
                        CmpOp::Lt => lhs < *rhs,
                        CmpOp::Le => lhs <= *rhs,
                        CmpOp::Gt => lhs > *rhs,
                        CmpOp::Ge => lhs >= *rhs,
                    },
                    None => self.op == CmpOp::Ne,
                }
            }
            Literal::Str(rhs) => matches!(value, ValueRef::Str(v) if v == rhs),
            Literal::Bool(rhs) => value == ValueRef::Bool(*rhs),
            Literal::Null => value == ValueRef::Null,
        };
        match self.op {
            CmpOp::Eq => eq,
            _ => !eq,
        }
    }
}

/// An aggregate over one column (or the whole row for [`Agg::Count`])
/// — the one aggregate vocabulary: the query language parses it (see
/// [`Agg::parse`]), the summary plan (`SUMMARY_AGGREGATES`) names it,
/// and [`aggregate`] computes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// `count(*)`: row count of the group.
    Count,
    /// `sum(col)`: sum of a numeric column; null over zero rows.
    Sum(Column),
    /// `avg(col)`: mean of a numeric column; null over zero rows.
    Avg(Column),
    /// `min(col)`: minimum of a numeric column; null over zero rows.
    Min(Column),
    /// `max(col)`: maximum of a numeric column; null over zero rows.
    Max(Column),
    /// `avg_completed(col)`: mean of a numeric column over rows whose
    /// `completed` column is true; null when none are — the sweep's
    /// null-mean semantics.
    AvgCompleted(Column),
    /// `frac(col)`: fraction of the group's rows where a boolean
    /// column is true.
    Frac(Column),
}

impl Agg {
    /// Every aggregate over `col` (which `count(*)` ignores), in the
    /// order the query parser lists them.
    pub(crate) fn every(col: Column) -> [Agg; 7] {
        [
            Agg::Count,
            Agg::Sum(col),
            Agg::Avg(col),
            Agg::Min(col),
            Agg::Max(col),
            Agg::AvgCompleted(col),
            Agg::Frac(col),
        ]
    }

    /// Every aggregate's SQL spelling, in the order the query parser
    /// lists them.
    pub(crate) fn names() -> [&'static str; 7] {
        Agg::every(Column::Cell).map(Agg::name)
    }

    /// The aggregate's SQL spelling, lower case: `count`, `sum`, `avg`,
    /// `min`, `max`, `avg_completed` or `frac`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Agg::Count => "count",
            Agg::Sum(_) => "sum",
            Agg::Avg(_) => "avg",
            Agg::Min(_) => "min",
            Agg::Max(_) => "max",
            Agg::AvgCompleted(_) => "avg_completed",
            Agg::Frac(_) => "frac",
        }
    }

    /// The aggregated column; `None` for `count(*)`.
    #[must_use]
    pub fn arg(self) -> Option<Column> {
        match self {
            Agg::Count => None,
            Agg::Sum(c)
            | Agg::Avg(c)
            | Agg::Min(c)
            | Agg::Max(c)
            | Agg::AvgCompleted(c)
            | Agg::Frac(c) => Some(c),
        }
    }

    /// The aggregate spelled `name` (in any case) over `arg`: `count`
    /// takes no column (`count(*)`), every other aggregate one. `None`
    /// when no aggregate is spelled so with that argument. Column types
    /// are the query planner's to check.
    #[must_use]
    pub fn parse(name: &str, arg: Option<Column>) -> Option<Agg> {
        Agg::every(arg.unwrap_or(Column::Cell))
            .into_iter()
            .find(|agg| agg.name().eq_ignore_ascii_case(name) && agg.arg() == arg)
    }
}

/// A running accumulator for one [`Agg`] in one group. Sums are added
/// in input-row order, so float results are bit-identical to the
/// legacy sequential loop.
#[derive(Debug, Clone, Copy)]
struct Accum {
    sum: f64,
    n: u64,
    rows: u64,
    min: f64,
    max: f64,
}

impl Accum {
    fn new() -> Accum {
        Accum {
            sum: 0.0,
            n: 0,
            rows: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn feed(&mut self, agg: Agg, cell: &CellResult) {
        self.rows += 1;
        match agg {
            Agg::Count => {}
            Agg::Sum(col) | Agg::Avg(col) | Agg::Min(col) | Agg::Max(col) => {
                if let Some(v) = col.get(cell).as_f64() {
                    self.sum += v;
                    self.n += 1;
                    self.min = self.min.min(v);
                    self.max = self.max.max(v);
                }
            }
            Agg::AvgCompleted(col) => {
                if Column::Completed.get(cell) == ValueRef::Bool(true) {
                    if let Some(v) = col.get(cell).as_f64() {
                        self.sum += v;
                        self.n += 1;
                    }
                }
            }
            Agg::Frac(col) => {
                if col.get(cell) == ValueRef::Bool(true) {
                    self.n += 1;
                }
            }
        }
    }

    fn finish(&self, agg: Agg) -> Value {
        // `v` over `n` contributing rows: null when there were none.
        let over = |n: u64, v: f64| if n > 0 { Value::F64(v) } else { Value::Null };
        match agg {
            Agg::Count => Value::U64(self.rows),
            Agg::Sum(_) => over(self.n, self.sum),
            Agg::Avg(_) | Agg::AvgCompleted(_) => over(self.n, self.sum / self.n as f64),
            Agg::Min(_) => over(self.n, self.min),
            Agg::Max(_) => over(self.n, self.max),
            Agg::Frac(_) => over(self.rows, self.n as f64 / self.rows as f64),
        }
    }
}

/// Hashes the group key of `cell`: the `keys` columns, each as its
/// variant and payload. A float hashes as `(v + 0.0).to_bits()`, so
/// `-0.0` and `0.0` (equal under `==`) share a bucket. The keys come
/// from input files, so the hasher is randomly keyed.
fn key_hash(state: &RandomState, cell: &CellResult, keys: &[Column]) -> u64 {
    let mut h = state.build_hasher();
    for &k in keys {
        let value = k.get(cell);
        std::mem::discriminant(&value).hash(&mut h);
        match value {
            ValueRef::U64(v) => v.hash(&mut h),
            ValueRef::U32(v) => v.hash(&mut h),
            ValueRef::F64(v) => (v + 0.0).to_bits().hash(&mut h),
            ValueRef::Bool(v) => v.hash(&mut h),
            ValueRef::Str(v) => v.hash(&mut h),
            ValueRef::Null => {}
        }
    }
    h.finish()
}

/// Groups `cells` by the `keys` columns and computes `aggs` per group.
/// Each output row is the group-key values followed by one value per
/// aggregate. Groups appear in first-seen input order (the sweep's
/// spec-declaration order, since cells arrive sorted by index), and a
/// group's key values are read from its first cell. Two keys group
/// together when their values are `==`, so `-0.0` and `0.0` merge and a
/// NaN key never does. With no keys the output is exactly one global
/// row, even over empty input.
#[must_use]
pub fn aggregate<'a>(
    cells: impl IntoIterator<Item = &'a CellResult>,
    keys: &[Column],
    aggs: &[Agg],
) -> Vec<Row> {
    let mut groups: Vec<(&CellResult, Vec<Accum>)> = Vec::new();
    // Each hash maps to its latest group; `next[g]` chains to the
    // group seen before `g` with the same hash.
    let mut heads: HashMap<u64, usize> = HashMap::new();
    let mut next: Vec<Option<usize>> = Vec::new();
    let state = RandomState::new();
    for cell in cells {
        let hash = key_hash(&state, cell, keys);
        let mut at = heads.get(&hash).copied();
        while let Some(g) = at {
            let first = groups[g].0;
            if keys.iter().all(|k| k.get(cell) == k.get(first)) {
                break;
            }
            at = next[g];
        }
        let g = at.unwrap_or_else(|| {
            next.push(heads.insert(hash, groups.len()));
            groups.push((cell, vec![Accum::new(); aggs.len()]));
            groups.len() - 1
        });
        for (accum, &agg) in groups[g].1.iter_mut().zip(aggs) {
            accum.feed(agg, cell);
        }
    }
    if groups.is_empty() && keys.is_empty() {
        // A global aggregate always has one row: count 0, null
        // everything else.
        return vec![aggs.iter().map(|&agg| Accum::new().finish(agg)).collect()];
    }
    groups
        .iter()
        .map(|(first, accums)| {
            let mut row: Row = keys.iter().map(|k| k.get(first).to_value()).collect();
            row.extend(accums.iter().zip(aggs).map(|(a, &agg)| a.finish(agg)));
            row
        })
        .collect()
}

/// The sweep summary: the cells grouped by `SUMMARY_KEYS` with
/// `SUMMARY_AGGREGATES` computed per group. This *is* the `summarize`
/// every caller (merge, sweep reports, the CLI, `helios query`)
/// shares; its output is field-for-field the legacy sequential loop.
#[must_use]
pub fn summarize_cells(cells: &[CellResult]) -> Vec<SummaryRow> {
    let keys = SUMMARY_KEYS.map(|(c, _)| c);
    let aggs = SUMMARY_AGGREGATES.map(|c| c.agg);
    aggregate(cells, &keys, &aggs)
        .into_iter()
        .map(summary_row)
        .collect()
}

/// Moves one `summarize_cells` group row into its [`SummaryRow`]. The
/// row has the summary plan's shape, so any other is a bug here.
fn summary_row(row: Row) -> SummaryRow {
    let text = |v| match v {
        Value::Str(s) => s,
        other => unreachable!("summary key {other:?}"),
    };
    let mean = |v| match v {
        Value::F64(v) => Some(v),
        Value::Null => None,
        other => unreachable!("summary mean {other:?}"),
    };
    match <[Value; 8]>::try_from(row) {
        Ok([family, platform, scheduler, Value::U64(n), makespan, slr, energy, Value::F64(p)]) => {
            SummaryRow {
                family: text(family),
                platform: text(platform),
                scheduler: text(scheduler),
                cells: n as usize,
                mean_makespan_secs: mean(makespan),
                mean_slr: mean(slr),
                mean_energy_j: mean(energy),
                completion_probability: p,
            }
        }
        other => unreachable!("summary row out of the plan's shape: {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(i: usize, scheduler: &str, completed: bool, makespan: f64) -> CellResult {
        CellResult {
            cell: i,
            family: "montage".into(),
            platform: "workstation".into(),
            scheduler: scheduler.into(),
            seed: i as u64,
            makespan_secs: makespan,
            slr: makespan / 2.0,
            energy_j: makespan * 3.0,
            transfers: 1,
            transfer_bytes: 10.0,
            failures: 0,
            retries: 0,
            completed,
            wasted_work_secs: 0.0,
            recovery_overhead_secs: 0.0,
            makespan_degradation: 0.0,
            reroutes: 0,
            partition_downtime_secs: 0.0,
            rematerialized_tasks: 0,
            rematerialized_bytes: 0.0,
            incomplete_reason: if completed {
                None
            } else {
                Some("lost_workload".into())
            },
            capacity_secs: 0.0,
            preemptions: 0,
            drain_migrated_tasks: 0,
            join_utilization: 0.0,
        }
    }

    #[test]
    fn predicates_cover_ordering_strings_bools_and_null() {
        let rows = [cell(0, "heft", true, 4.0), cell(1, "olb", false, 9.0)];
        let pred = |col, op, literal| Predicate { col, op, literal };
        assert!(pred(Column::MakespanSecs, CmpOp::Lt, Literal::Num(5.0)).matches(&rows[0]));
        assert!(!pred(Column::MakespanSecs, CmpOp::Ge, Literal::Num(5.0)).matches(&rows[0]));
        assert!(pred(Column::Completed, CmpOp::Eq, Literal::Bool(true)).matches(&rows[0]));
        assert!(pred(Column::IncompleteReason, CmpOp::Eq, Literal::Null).matches(&rows[0]));
        assert!(!pred(Column::IncompleteReason, CmpOp::Eq, Literal::Null).matches(&rows[1]));
        assert!(pred(
            Column::IncompleteReason,
            CmpOp::Eq,
            Literal::Str("lost_workload".into())
        )
        .matches(&rows[1]));
        // A null value never equals a string literal, and != is true.
        assert!(!pred(
            Column::IncompleteReason,
            CmpOp::Eq,
            Literal::Str("lost_workload".into())
        )
        .matches(&rows[0]));
        assert!(pred(
            Column::IncompleteReason,
            CmpOp::Ne,
            Literal::Str("lost_workload".into())
        )
        .matches(&rows[0]));
    }

    #[test]
    fn aggregate_matches_the_legacy_summarize_loop() {
        let cells = vec![
            cell(0, "heft", true, 4.0),
            cell(1, "olb", false, 9.0),
            cell(2, "heft", true, 6.0),
            cell(3, "olb", false, 1.0),
        ];
        let rows = summarize_cells(&cells);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].scheduler, "heft");
        assert_eq!(rows[0].cells, 2);
        assert_eq!(rows[0].mean_makespan_secs, Some(5.0));
        assert_eq!(rows[0].completion_probability, 1.0);
        // olb never completed: null means, zero completion.
        assert_eq!(rows[1].scheduler, "olb");
        assert_eq!(rows[1].mean_makespan_secs, None);
        assert_eq!(rows[1].mean_slr, None);
        assert_eq!(rows[1].mean_energy_j, None);
        assert_eq!(rows[1].completion_probability, 0.0);
    }

    #[test]
    fn summarize_over_no_cells_is_empty() {
        assert!(summarize_cells(&[]).is_empty());
    }

    #[test]
    fn global_aggregate_emits_one_row_even_when_empty() {
        let rows = aggregate(
            std::iter::empty(),
            &[],
            &[Agg::Count, Agg::Avg(Column::MakespanSecs)],
        );
        assert_eq!(rows, vec![vec![Value::U64(0), Value::Null]]);
    }

    #[test]
    fn min_max_sum_cover_numeric_columns() {
        let cells = [cell(0, "heft", true, 4.0), cell(1, "heft", true, 9.0)];
        let m = Column::MakespanSecs;
        let rows = aggregate(&cells, &[], &[Agg::Min(m), Agg::Max(m), Agg::Sum(m)]);
        assert_eq!(
            rows,
            vec![vec![Value::F64(4.0), Value::F64(9.0), Value::F64(13.0)]]
        );
    }

    #[test]
    fn hash_groups_keep_first_seen_order_and_value_equality() {
        // 500 groups, each revisited in an order unlike its first-seen
        // order: the output follows first sight, counts all land.
        let cells: Vec<CellResult> = (0..2000)
            .map(|i| CellResult {
                seed: (i as u64 * 7) % 500,
                ..cell(i, "heft", true, 1.0)
            })
            .collect();
        let out = aggregate(&cells, &[Column::Seed], &[Agg::Count]);
        let firsts: Vec<Row> = (0..500u64)
            .map(|i| vec![Value::U64((i * 7) % 500), Value::U64(4)])
            .collect();
        assert_eq!(out, firsts);

        // -0.0 == 0.0 merges, keeping the first-seen key; a NaN key
        // equals nothing, not even itself, so each NaN row is a group.
        let keys = [-0.0, f64::NAN, 0.0, 1.5, f64::NAN, 0.0];
        let cells: Vec<CellResult> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| cell(i, "heft", true, k))
            .collect();
        let m = Column::MakespanSecs;
        let out = aggregate(&cells, &[m], &[Agg::Count, Agg::Sum(m)]);
        let shape: Vec<String> = out.iter().map(|row| format!("{row:?}")).collect();
        assert_eq!(
            shape,
            [
                "[F64(-0.0), U64(3), F64(0.0)]",
                "[F64(NaN), U64(1), F64(NaN)]",
                "[F64(1.5), U64(1), F64(1.5)]",
                "[F64(NaN), U64(1), F64(NaN)]",
            ]
        );
    }
}
