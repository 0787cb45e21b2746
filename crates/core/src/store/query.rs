//! The `helios query` expression language.
//!
//! A tiny SQL subset, evaluated in place over the cells:
//!
//! ```text
//! SELECT proj [, proj]*
//!   [WHERE column op literal [AND column op literal]*]
//!   [GROUP BY column [, column]*]
//! ```
//!
//! where a projection is `*`, a column name, or an aggregate —
//! `count(*)`, `sum(col)`, `avg(col)`, `min(col)`, `max(col)`,
//! `avg_completed(col)` (the sweep's completed-only mean, null when no
//! cell completed) or `frac(col)` (fraction of rows where a boolean
//! column is true) — optionally `AS alias`. Keywords and function
//! names are case-insensitive; column names are the exact
//! [`Column`] schema names; strings are single-quoted; `null`
//! compares only with `=`/`!=`.
//!
//! Every parse or planning failure is a typed
//! [`CampaignError::InvalidQuery`] naming the offending token, so the
//! CLI and the fuzz corruption suite can assert on *which* token broke
//! rather than string-matching whole messages.

use crate::campaign::sweep::CellResult;
use crate::campaign::CampaignError;
use crate::EngineError;

use super::exec::{aggregate, Agg, CmpOp, Literal, Predicate};
use super::schema::{row_from_cell, schema_names, Column, ColumnType, Row};

fn err(token: &str, detail: impl Into<String>) -> EngineError {
    CampaignError::InvalidQuery {
        token: token.into(),
        detail: detail.into(),
    }
    .into()
}

fn legal_columns() -> String {
    Column::ALL
        .iter()
        .map(|c| c.name())
        .collect::<Vec<_>>()
        .join(", ")
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Word(String),
    Num(f64, String),
    Str(String),
    Punct(&'static str),
}

impl Token {
    fn text(&self) -> String {
        match self {
            Token::Word(w) => w.clone(),
            Token::Num(_, raw) => raw.clone(),
            Token::Str(s) => format!("'{s}'"),
            Token::Punct(p) => (*p).to_string(),
        }
    }
}

fn tokenize(expr: &str) -> Result<Vec<Token>, EngineError> {
    let bytes = expr.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_whitespace() {
            i += 1;
        } else if b == b'\'' {
            let start = i + 1;
            let Some(end) = expr[start..].find('\'').map(|o| start + o) else {
                return Err(err(&expr[i..], "unterminated string literal"));
            };
            out.push(Token::Str(expr[start..end].to_owned()));
            i = end + 1;
        } else if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            out.push(Token::Word(expr[start..i].to_owned()));
        } else if b.is_ascii_digit()
            || (b == b'-' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit))
        {
            let start = i;
            i += 1;
            while i < bytes.len()
                && (bytes[i].is_ascii_digit()
                    || bytes[i] == b'.'
                    || bytes[i] == b'e'
                    || bytes[i] == b'E'
                    || ((bytes[i] == b'+' || bytes[i] == b'-')
                        && matches!(bytes[i - 1], b'e' | b'E')))
            {
                i += 1;
            }
            let raw = &expr[start..i];
            let Ok(v) = raw.parse::<f64>() else {
                return Err(err(raw, "not a numeric literal"));
            };
            out.push(Token::Num(v, raw.to_owned()));
        } else {
            let two = expr.get(i..i + 2);
            let punct = match (b, two) {
                (_, Some("!=")) => Some("!="),
                (_, Some("<=")) => Some("<="),
                (_, Some(">=")) => Some(">="),
                (b'=', _) => Some("="),
                (b'<', _) => Some("<"),
                (b'>', _) => Some(">"),
                (b'(', _) => Some("("),
                (b')', _) => Some(")"),
                (b',', _) => Some(","),
                (b'*', _) => Some("*"),
                _ => None,
            };
            let Some(punct) = punct else {
                return Err(err(
                    &expr[i..i + 1],
                    "unexpected character; expected a column, keyword, operator, or literal",
                ));
            };
            out.push(Token::Punct(punct));
            i += punct.len();
        }
    }
    Ok(out)
}

/// An aggregate function name in a projection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
    AvgCompleted,
    Frac,
}

impl AggFunc {
    fn by_name(name: &str) -> Option<AggFunc> {
        let lower = name.to_ascii_lowercase();
        match lower.as_str() {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "avg" => Some(AggFunc::Avg),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            "avg_completed" => Some(AggFunc::AvgCompleted),
            "frac" => Some(AggFunc::Frac),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Proj {
    Star,
    Col {
        col: Column,
        alias: Option<String>,
    },
    Agg {
        func: AggFunc,
        arg: Option<Column>,
        alias: Option<String>,
    },
}

impl Proj {
    fn output_name(&self) -> String {
        match self {
            Proj::Star => "*".into(),
            Proj::Col { col, alias } => alias.clone().unwrap_or_else(|| col.name().to_owned()),
            Proj::Agg { func, arg, alias } => alias.clone().unwrap_or_else(|| {
                let func = match func {
                    AggFunc::Count => "count",
                    AggFunc::Sum => "sum",
                    AggFunc::Avg => "avg",
                    AggFunc::Min => "min",
                    AggFunc::Max => "max",
                    AggFunc::AvgCompleted => "avg_completed",
                    AggFunc::Frac => "frac",
                };
                match arg {
                    Some(col) => format!("{func}({})", col.name()),
                    None => format!("{func}(*)"),
                }
            }),
        }
    }
}

/// A parsed, validated query, ready to run over cells.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    projections: Vec<Proj>,
    predicates: Vec<Predicate>,
    group_by: Vec<Column>,
}

struct Parser {
    tokens: Vec<Token>,
    at: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.at)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.at).cloned();
        if t.is_some() {
            self.at += 1;
        }
        t
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Word(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), EngineError> {
        if self.at_keyword(kw) {
            self.at += 1;
            Ok(())
        } else {
            let token = self.peek().map(Token::text).unwrap_or_default();
            Err(err(&token, format!("expected the keyword {kw}")))
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), EngineError> {
        match self.peek() {
            Some(Token::Punct(q)) if *q == p => {
                self.at += 1;
                Ok(())
            }
            other => {
                let token = other.map(Token::text).unwrap_or_default();
                Err(err(&token, format!("expected {p:?}")))
            }
        }
    }

    fn column(&mut self) -> Result<Column, EngineError> {
        match self.bump() {
            Some(Token::Word(w)) => Column::by_name(&w).ok_or_else(|| {
                err(
                    &w,
                    format!("unknown column; legal columns are {}", legal_columns()),
                )
            }),
            other => {
                let token = other.map(|t| t.text()).unwrap_or_default();
                Err(err(&token, "expected a column name"))
            }
        }
    }

    fn alias(&mut self) -> Result<Option<String>, EngineError> {
        if !self.at_keyword("as") {
            return Ok(None);
        }
        self.at += 1;
        match self.bump() {
            Some(Token::Word(w)) => Ok(Some(w)),
            other => {
                let token = other.map(|t| t.text()).unwrap_or_default();
                Err(err(&token, "expected an alias name after AS"))
            }
        }
    }

    fn projection(&mut self) -> Result<Proj, EngineError> {
        match self.peek().cloned() {
            Some(Token::Punct("*")) => {
                self.at += 1;
                Ok(Proj::Star)
            }
            Some(Token::Word(w)) => {
                // A word followed by `(` is an aggregate call; anything
                // else is a column reference.
                if matches!(self.tokens.get(self.at + 1), Some(Token::Punct("("))) {
                    let Some(func) = AggFunc::by_name(&w) else {
                        return Err(err(
                            &w,
                            "unknown aggregate; legal aggregates are count, sum, avg, \
                             min, max, avg_completed, frac",
                        ));
                    };
                    self.at += 2;
                    let arg = if func == AggFunc::Count {
                        match self.peek() {
                            Some(Token::Punct("*")) => self.at += 1,
                            other => {
                                let token = other.map(Token::text).unwrap_or_default();
                                return Err(err(&token, "count takes exactly (*)"));
                            }
                        }
                        None
                    } else {
                        Some(self.column()?)
                    };
                    self.expect_punct(")")?;
                    if let Some(col) = arg {
                        let numeric = matches!(
                            col.column_type(),
                            ColumnType::U64 | ColumnType::U32 | ColumnType::F64
                        );
                        if func == AggFunc::Frac {
                            if col.column_type() != ColumnType::Bool {
                                return Err(err(
                                    col.name(),
                                    "frac needs a boolean column (completed)",
                                ));
                            }
                        } else if !numeric {
                            return Err(err(
                                col.name(),
                                format!(
                                    "aggregates need a numeric column, and {:?} is {:?}",
                                    col.name(),
                                    col.column_type()
                                ),
                            ));
                        }
                    }
                    let alias = self.alias()?;
                    Ok(Proj::Agg { func, arg, alias })
                } else {
                    let col = self.column()?;
                    let alias = self.alias()?;
                    Ok(Proj::Col { col, alias })
                }
            }
            other => {
                let token = other.map(|t| t.text()).unwrap_or_default();
                Err(err(
                    &token,
                    "expected a projection: *, a column name, or an aggregate",
                ))
            }
        }
    }

    fn literal(&mut self) -> Result<(Literal, String), EngineError> {
        match self.bump() {
            Some(Token::Num(v, raw)) => Ok((Literal::Num(v), raw)),
            Some(Token::Str(s)) => Ok((Literal::Str(s.clone()), format!("'{s}'"))),
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("true") => Ok((Literal::Bool(true), w)),
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("false") => {
                Ok((Literal::Bool(false), w))
            }
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("null") => Ok((Literal::Null, w)),
            other => {
                let token = other.map(|t| t.text()).unwrap_or_default();
                Err(err(
                    &token,
                    "expected a literal: a number, 'string', true, false, or null",
                ))
            }
        }
    }

    fn predicate(&mut self) -> Result<Predicate, EngineError> {
        let col = self.column()?;
        let op = match self.bump() {
            Some(Token::Punct("=")) => CmpOp::Eq,
            Some(Token::Punct("!=")) => CmpOp::Ne,
            Some(Token::Punct("<")) => CmpOp::Lt,
            Some(Token::Punct("<=")) => CmpOp::Le,
            Some(Token::Punct(">")) => CmpOp::Gt,
            Some(Token::Punct(">=")) => CmpOp::Ge,
            other => {
                let token = other.map(|t| t.text()).unwrap_or_default();
                return Err(err(&token, "expected a comparison: =, !=, <, <=, >, >="));
            }
        };
        let (literal, raw) = self.literal()?;
        let numeric = matches!(
            col.column_type(),
            ColumnType::U64 | ColumnType::U32 | ColumnType::F64
        );
        let ok = match &literal {
            Literal::Num(_) => numeric,
            Literal::Str(_) => matches!(col.column_type(), ColumnType::Str | ColumnType::OptStr),
            Literal::Bool(_) => col.column_type() == ColumnType::Bool,
            Literal::Null => col.column_type() == ColumnType::OptStr,
        };
        if !ok {
            return Err(err(
                &raw,
                format!(
                    "literal does not match column {:?} of type {:?}",
                    col.name(),
                    col.column_type()
                ),
            ));
        }
        if !numeric && !matches!(op, CmpOp::Eq | CmpOp::Ne) {
            return Err(err(
                &raw,
                format!("column {:?} supports only = and !=", col.name()),
            ));
        }
        Ok(Predicate { col, op, literal })
    }
}

/// Parses and validates a query expression.
///
/// # Errors
///
/// [`CampaignError::InvalidQuery`] naming the offending token for
/// every syntax or planning failure.
pub fn parse_query(expr: &str) -> Result<QueryPlan, EngineError> {
    if expr.trim().is_empty() {
        return Err(err(
            "",
            "empty query; expected SELECT projections [WHERE ...] [GROUP BY ...]",
        ));
    }
    let mut p = Parser {
        tokens: tokenize(expr)?,
        at: 0,
    };
    p.expect_keyword("select")?;
    let mut projections = vec![p.projection()?];
    while matches!(p.peek(), Some(Token::Punct(","))) {
        p.at += 1;
        projections.push(p.projection()?);
    }

    let mut predicates = Vec::new();
    if p.at_keyword("where") {
        p.at += 1;
        predicates.push(p.predicate()?);
        while p.at_keyword("and") {
            p.at += 1;
            predicates.push(p.predicate()?);
        }
    }

    let mut group_by = Vec::new();
    if p.at_keyword("group") {
        p.at += 1;
        p.expect_keyword("by")?;
        group_by.push(p.column()?);
        while matches!(p.peek(), Some(Token::Punct(","))) {
            p.at += 1;
            group_by.push(p.column()?);
        }
    }

    if let Some(extra) = p.peek() {
        return Err(err(
            &extra.text(),
            "unexpected trailing input after the query",
        ));
    }

    // Shape checks: * stands alone; plain columns and aggregates only
    // mix under GROUP BY, and grouped output may only name group keys.
    let has_star = projections.contains(&Proj::Star);
    let has_agg = projections.iter().any(|p| matches!(p, Proj::Agg { .. }));
    if has_star && (projections.len() > 1 || !group_by.is_empty()) {
        return Err(err("*", "SELECT * stands alone and cannot be grouped"));
    }
    for proj in &projections {
        if let Proj::Col { col, .. } = proj {
            if !group_by.is_empty() && !group_by.contains(col) {
                return Err(err(
                    col.name(),
                    "selected column must appear in GROUP BY or inside an aggregate",
                ));
            }
            if group_by.is_empty() && has_agg {
                return Err(err(
                    col.name(),
                    "plain column cannot mix with aggregates without GROUP BY",
                ));
            }
        }
    }
    Ok(QueryPlan {
        projections,
        predicates,
        group_by,
    })
}

/// A query result: output column names plus the result rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// Output column names, in SELECT order.
    pub schema: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

fn to_agg(func: AggFunc, arg: Option<Column>) -> Agg {
    match (func, arg) {
        (AggFunc::Count, _) => Agg::CountStar,
        (AggFunc::Sum, Some(c)) => Agg::Sum(c),
        (AggFunc::Avg, Some(c)) => Agg::Avg(c),
        (AggFunc::Min, Some(c)) => Agg::Min(c),
        (AggFunc::Max, Some(c)) => Agg::Max(c),
        (AggFunc::AvgCompleted, Some(c)) => Agg::AvgCompleted {
            metric: c,
            completed: Column::Completed,
        },
        (AggFunc::Frac, Some(c)) => Agg::CompletedFrac(c),
        // The parser never emits a non-count aggregate without an arg.
        (_, None) => Agg::CountStar,
    }
}

/// Parses `expr` and runs it over `cells`: the WHERE conjuncts and
/// the aggregates read each cell in place, and owned values are built
/// only for the output rows. Cells are read in cell-index order
/// regardless of input order, so results are deterministic across
/// shard layouts; cells already in that order (as `merge_shards`
/// returns them) are read without a sort.
///
/// # Errors
///
/// [`CampaignError::InvalidQuery`] for parse/plan failures; evaluation
/// over in-memory cells cannot fail.
pub fn run_query(expr: &str, cells: &[CellResult]) -> Result<QueryOutput, EngineError> {
    let plan = parse_query(expr)?;
    if cells.is_sorted_by_key(|c| c.cell) {
        return Ok(plan.run(cells));
    }
    let mut sorted: Vec<&CellResult> = cells.iter().collect();
    sorted.sort_by_key(|c| c.cell);
    Ok(plan.run(sorted))
}

impl QueryPlan {
    /// Runs the plan over `cells`, taken in the order given.
    fn run<'a>(&self, cells: impl IntoIterator<Item = &'a CellResult>) -> QueryOutput {
        let cells = cells
            .into_iter()
            .filter(|cell| self.predicates.iter().all(|p| p.matches(cell)));
        if self.projections == [Proj::Star] {
            // SELECT *: the full schema passes through unchanged.
            return QueryOutput {
                schema: schema_names(),
                rows: cells.map(row_from_cell).collect(),
            };
        }
        let schema = self.projections.iter().map(Proj::output_name).collect();
        // A GROUP BY or an aggregate groups: one row per distinct key
        // (one global row with no keys), as SQL does.
        let grouped = !self.group_by.is_empty()
            || self
                .projections
                .iter()
                .any(|p| matches!(p, Proj::Agg { .. }));
        if !grouped {
            let cols: Vec<Column> = self
                .projections
                .iter()
                .map(|proj| match proj {
                    Proj::Col { col, .. } => *col,
                    _ => unreachable!("validated: ungrouped projections are columns"),
                })
                .collect();
            let rows = cells
                .map(|cell| cols.iter().map(|c| c.get(cell).to_value()).collect())
                .collect();
            return QueryOutput { schema, rows };
        }
        // A pick indexes the aggregate row: the group keys, then the
        // aggregates.
        let mut aggs: Vec<Agg> = Vec::new();
        let mut picks: Vec<usize> = Vec::new();
        for proj in &self.projections {
            picks.push(match proj {
                Proj::Col { col, .. } => self
                    .group_by
                    .iter()
                    .position(|g| g == col)
                    .expect("validated: selected column is a group key"),
                Proj::Agg { func, arg, .. } => {
                    aggs.push(to_agg(*func, *arg));
                    self.group_by.len() + aggs.len() - 1
                }
                Proj::Star => unreachable!("validated: * stands alone"),
            });
        }
        let rows = aggregate(cells, &self.group_by, &aggs)
            .iter()
            .map(|row| picks.iter().map(|&i| row[i].clone()).collect())
            .collect();
        QueryOutput { schema, rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::schema::Value;

    fn cell(i: usize, scheduler: &str, completed: bool, makespan: f64) -> CellResult {
        CellResult {
            cell: i,
            family: "montage".into(),
            platform: "workstation".into(),
            scheduler: scheduler.into(),
            seed: i as u64,
            makespan_secs: makespan,
            slr: 1.0,
            energy_j: 2.0,
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

    fn cells() -> Vec<CellResult> {
        vec![
            cell(0, "heft", true, 4.0),
            cell(1, "olb", true, 9.0),
            cell(2, "heft", true, 6.0),
            cell(3, "olb", false, 1.0),
        ]
    }

    fn invalid_token(expr: &str) -> String {
        match run_query(expr, &cells()).unwrap_err() {
            EngineError::Campaign(CampaignError::InvalidQuery { token, .. }) => token,
            other => panic!("expected InvalidQuery, got {other:?}"),
        }
    }

    #[test]
    fn select_star_returns_every_row_in_cell_order() {
        let shuffled: Vec<CellResult> = cells().into_iter().rev().collect();
        let out = run_query("SELECT *", &shuffled).unwrap();
        assert_eq!(out.schema, schema_names());
        assert_eq!(out.rows.len(), 4);
        assert_eq!(out.rows[0][Column::Cell.index()], Value::U64(0));
        assert_eq!(out.rows[3][Column::Cell.index()], Value::U64(3));
    }

    #[test]
    fn where_filters_and_projects() {
        let out = run_query(
            "SELECT cell, makespan_secs WHERE scheduler = 'heft'",
            &cells(),
        )
        .unwrap();
        assert_eq!(
            out.rows,
            vec![
                vec![Value::U64(0), Value::F64(4.0)],
                vec![Value::U64(2), Value::F64(6.0)],
            ]
        );
        let out = run_query(
            "SELECT cell, makespan_secs WHERE scheduler = 'heft' AND makespan_secs > 5",
            &cells(),
        )
        .unwrap();
        assert_eq!(out.schema, vec!["cell".to_owned(), "makespan_secs".into()]);
        assert_eq!(out.rows, vec![vec![Value::U64(2), Value::F64(6.0)]]);
    }

    #[test]
    fn group_by_matches_summary_semantics() {
        let out = run_query(
            "SELECT scheduler, count(*) AS cells, avg_completed(makespan_secs), \
             frac(completed) GROUP BY scheduler",
            &cells(),
        )
        .unwrap();
        assert_eq!(
            out.schema,
            vec![
                "scheduler".to_owned(),
                "cells".into(),
                "avg_completed(makespan_secs)".into(),
                "frac(completed)".into(),
            ]
        );
        assert_eq!(
            out.rows,
            vec![
                vec![
                    Value::Str("heft".into()),
                    Value::U64(2),
                    Value::F64(5.0),
                    Value::F64(1.0),
                ],
                vec![
                    Value::Str("olb".into()),
                    Value::U64(2),
                    Value::F64(9.0),
                    Value::F64(0.5),
                ],
            ]
        );
    }

    #[test]
    fn global_aggregates_need_no_group_by() {
        let out = run_query(
            "SELECT count(*), min(makespan_secs), max(makespan_secs)",
            &cells(),
        )
        .unwrap();
        assert_eq!(
            out.rows,
            vec![vec![Value::U64(4), Value::F64(1.0), Value::F64(9.0)]]
        );
    }

    #[test]
    fn null_literals_filter_incomplete_reason() {
        let out = run_query("SELECT cell WHERE incomplete_reason != null", &cells()).unwrap();
        assert_eq!(out.rows, vec![vec![Value::U64(3)]]);
    }

    #[test]
    fn select_order_is_preserved_over_group_keys() {
        let out = run_query("SELECT count(*), scheduler GROUP BY scheduler", &cells()).unwrap();
        assert_eq!(out.schema, vec!["count(*)".to_owned(), "scheduler".into()]);
        assert_eq!(out.rows[0], vec![Value::U64(2), Value::Str("heft".into())]);
    }

    #[test]
    fn group_by_without_an_aggregate_yields_one_row_per_key() {
        let out = run_query("SELECT scheduler GROUP BY scheduler", &cells()).unwrap();
        assert_eq!(
            out.rows,
            vec![
                vec![Value::Str("heft".into())],
                vec![Value::Str("olb".into())],
            ]
        );
    }

    #[test]
    fn errors_name_the_offending_token() {
        assert_eq!(invalid_token("SELECT frobnicate"), "frobnicate");
        assert_eq!(
            invalid_token("SELECT * WHERE makespan_secs = 'fast'"),
            "'fast'"
        );
        assert_eq!(invalid_token("SELECT * GROUP BY scheduler"), "*");
        assert_eq!(invalid_token("SELECT cell, count(*)"), "cell");
        assert_eq!(invalid_token("SELECT cell GROUP BY scheduler"), "cell");
        assert_eq!(invalid_token("SELECT count(cell)"), "cell");
        assert_eq!(invalid_token("SELECT avg(scheduler)"), "scheduler");
        assert_eq!(invalid_token("SELECT frac(makespan_secs)"), "makespan_secs");
        assert_eq!(invalid_token("SELECT median(makespan_secs)"), "median");
        assert_eq!(invalid_token("SELECT cell WHERE family < 'm'"), "'m'");
        assert_eq!(invalid_token("SELECT cell extra"), "extra");
        assert_eq!(invalid_token("SELECT cell WHERE cell = 'oops"), "'oops");
        assert_eq!(invalid_token(""), "");
        assert_eq!(invalid_token("SUMMARIZE *"), "SUMMARIZE");
    }
}
