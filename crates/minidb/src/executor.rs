//! Query execution.
//!
//! Interprets the planner's join pipeline (scan → hash join → filter) node
//! by node, then runs the output phase (grouping/aggregation, `HAVING`,
//! projection, `DISTINCT`, `ORDER BY`, `LIMIT`) directly from the source
//! statement. Uncorrelated subqueries are executed once up front and their
//! results injected into the evaluation context.

use crate::catalog::Database;
use crate::error::DbError;
use crate::expr_eval::{subquery_key, EvalContext, RowSchema, SubqueryResults};
use crate::plan::{NodeKind, PlanNode};
use crate::planner;
use sqlkit::{Expr, Select, Value};
use std::collections::HashMap;

/// A materialized intermediate relation.
struct Rel {
    schema: RowSchema,
    rows: Vec<Vec<Value>>,
}

/// Raw execution output: column names, rows, and the deterministic
/// work-unit count consumed producing them.
pub type ExecOutput = (Vec<String>, Vec<Vec<Value>>, u64);

/// Execute a statement, returning output column names, rows, and the
/// deterministic work-unit count (rows scanned, join pairs considered,
/// records grouped/sorted/projected) consumed along the way.
pub fn execute(db: &Database, select: &Select) -> Result<ExecOutput, DbError> {
    let mut work = 0u64;
    let (columns, rows) = execute_with(db, select, None, &mut work)?;
    Ok((columns, rows, work))
}

/// Execute a statement with optionally pre-collected subquery results.
///
/// Plans first (so plan errors surface before any subquery runs), then
/// either reuses `cached` subquery results or collects them fresh,
/// charging all work — including recursive subquery execution — to `work`.
pub(crate) fn execute_with(
    db: &Database,
    select: &Select,
    cached: Option<&SubqueryResults>,
    work: &mut u64,
) -> Result<(Vec<String>, Vec<Vec<Value>>), DbError> {
    let plan = planner::plan(db, select)?;
    let owned;
    let subqueries = match cached {
        Some(results) => results,
        None => {
            owned = collect_subquery_results(db, select, work)?;
            &owned
        }
    };
    let join_root = find_join_root(&plan);
    let rel = exec_node(db, join_root, subqueries, work)?;
    output_phase(select, rel, subqueries, work)
}

/// Execute every (uncorrelated) subquery of the statement once.
pub(crate) fn collect_subquery_results(
    db: &Database,
    select: &Select,
    work: &mut u64,
) -> Result<SubqueryResults, DbError> {
    let mut results = SubqueryResults::default();
    let mut fill = |kind: SubKind, subquery: &Select| -> Result<(), DbError> {
        let key = subquery_key(subquery);
        let (_, rows) = execute_with(db, subquery, None, work)?;
        match kind {
            SubKind::In => {
                let values = rows
                    .into_iter()
                    .map(|mut row| if row.is_empty() { Value::Null } else { row.remove(0) })
                    .filter(|v| !v.is_null())
                    .collect();
                results.in_sets.insert(key, values);
            }
            SubKind::Scalar => {
                if rows.len() > 1 {
                    return Err(DbError::Arithmetic(
                        "more than one row returned by a subquery used as an expression".into(),
                    ));
                }
                let value = rows
                    .into_iter()
                    .next()
                    .and_then(|mut r| if r.is_empty() { None } else { Some(r.remove(0)) })
                    .unwrap_or(Value::Null);
                results.scalars.insert(key, value);
            }
            SubKind::Exists => {
                results.exists.insert(key, !rows.is_empty());
            }
        }
        Ok(())
    };

    let mut pending: Vec<(SubKind, Select)> = Vec::new();
    select.walk_exprs(&mut |expr| match expr {
        Expr::InSubquery { subquery, .. } => {
            pending.push((SubKind::In, subquery.as_ref().clone()))
        }
        Expr::ScalarSubquery(sq) => pending.push((SubKind::Scalar, sq.as_ref().clone())),
        Expr::Exists { subquery, .. } => {
            pending.push((SubKind::Exists, subquery.as_ref().clone()))
        }
        _ => {}
    });
    for (kind, subquery) in pending {
        fill(kind, &subquery)?;
    }
    Ok(results)
}

#[derive(Clone, Copy)]
enum SubKind {
    In,
    Scalar,
    Exists,
}

/// Descend through output-phase nodes (projection, limit, sort, distinct,
/// aggregate, and the `HAVING` filter directly above an aggregate) to the
/// root of the join pipeline.
fn find_join_root(plan: &PlanNode) -> &PlanNode {
    match &plan.kind {
        NodeKind::Projection
        | NodeKind::Limit(_)
        | NodeKind::Sort
        | NodeKind::Distinct
        | NodeKind::Aggregate { .. } => find_join_root(&plan.children[0]),
        NodeKind::Filter { .. }
            if matches!(plan.children[0].kind, NodeKind::Aggregate { .. }) =>
        {
            find_join_root(&plan.children[0])
        }
        _ => plan,
    }
}

fn exec_node(
    db: &Database,
    node: &PlanNode,
    subqueries: &SubqueryResults,
    work: &mut u64,
) -> Result<Rel, DbError> {
    match &node.kind {
        NodeKind::SeqScan { table, binding, filter } => {
            let data = db.table(table)?;
            let schema = RowSchema {
                fields: data
                    .column_names
                    .iter()
                    .map(|c| (binding.clone(), c.clone()))
                    .collect(),
            };
            let mut rows = Vec::new();
            let n_cols = data.columns.len();
            *work += data.row_count() as u64;
            for row_idx in 0..data.row_count() {
                let mut row = Vec::with_capacity(n_cols);
                for col in &data.columns {
                    row.push(col.get(row_idx));
                }
                if let Some(predicate) = filter {
                    let context = EvalContext {
                        schema: &schema,
                        row: &row,
                        aggregates: None,
                        subqueries,
                    };
                    if !context.eval_filter(predicate)? {
                        continue;
                    }
                }
                rows.push(row);
            }
            Ok(Rel { schema, rows })
        }
        NodeKind::IndexScan { table, binding, column, lo, hi, filter } => {
            let data = db.table(table)?;
            let index = db.index_on(table, column).ok_or_else(|| {
                DbError::Unsupported(format!("missing index on {table}.{column}"))
            })?;
            let schema = RowSchema {
                fields: data
                    .column_names
                    .iter()
                    .map(|c| (binding.clone(), c.clone()))
                    .collect(),
            };
            let n_cols = data.columns.len();
            let mut rows = Vec::new();
            let candidates = index.probe_slice(*lo, *hi);
            *work += candidates.len() as u64;
            for &(_, row_idx) in candidates {
                let mut row = Vec::with_capacity(n_cols);
                for col in &data.columns {
                    row.push(col.get(row_idx as usize));
                }
                if let Some(predicate) = filter {
                    let context = EvalContext {
                        schema: &schema,
                        row: &row,
                        aggregates: None,
                        subqueries,
                    };
                    if !context.eval_filter(predicate)? {
                        continue;
                    }
                }
                rows.push(row);
            }
            Ok(Rel { schema, rows })
        }
        NodeKind::HashJoin { left_key, right_key, residual } => {
            let left = exec_node(db, &node.children[0], subqueries, work)?;
            let right = exec_node(db, &node.children[1], subqueries, work)?;
            let schema = left.schema.concat(&right.schema);
            let left_idx = field_index(&left.schema, left_key)?;
            let right_idx = field_index(&right.schema, right_key)?;
            *work += (left.rows.len() + right.rows.len()) as u64;

            // Build on the right side.
            let mut table: HashMap<String, Vec<usize>> = HashMap::with_capacity(right.rows.len());
            for (idx, row) in right.rows.iter().enumerate() {
                let key = &row[right_idx];
                if key.is_null() {
                    continue;
                }
                table.entry(hash_key(key)).or_default().push(idx);
            }

            let mut rows = Vec::new();
            for left_row in &left.rows {
                let key = &left_row[left_idx];
                if key.is_null() {
                    continue;
                }
                if let Some(matches) = table.get(&hash_key(key)) {
                    *work += matches.len() as u64;
                    for &right_row_idx in matches {
                        let mut combined = left_row.clone();
                        combined.extend_from_slice(&right.rows[right_row_idx]);
                        if let Some(predicate) = residual {
                            let context = EvalContext {
                                schema: &schema,
                                row: &combined,
                                aggregates: None,
                                subqueries,
                            };
                            if !context.eval_filter(predicate)? {
                                continue;
                            }
                        }
                        rows.push(combined);
                    }
                }
            }
            Ok(Rel { schema, rows })
        }
        NodeKind::NestedLoop { condition } => {
            let left = exec_node(db, &node.children[0], subqueries, work)?;
            let right = exec_node(db, &node.children[1], subqueries, work)?;
            let schema = left.schema.concat(&right.schema);
            let mut rows = Vec::new();
            *work += left.rows.len() as u64 * right.rows.len() as u64;
            for left_row in &left.rows {
                for right_row in &right.rows {
                    let mut combined = left_row.clone();
                    combined.extend_from_slice(right_row);
                    if let Some(predicate) = condition {
                        let context = EvalContext {
                            schema: &schema,
                            row: &combined,
                            aggregates: None,
                            subqueries,
                        };
                        if !context.eval_filter(predicate)? {
                            continue;
                        }
                    }
                    rows.push(combined);
                }
            }
            Ok(Rel { schema, rows })
        }
        NodeKind::Filter { predicate } => {
            let input = exec_node(db, &node.children[0], subqueries, work)?;
            *work += input.rows.len() as u64;
            let mut rows = Vec::with_capacity(input.rows.len());
            for row in input.rows {
                let context = EvalContext {
                    schema: &input.schema,
                    row: &row,
                    aggregates: None,
                    subqueries,
                };
                if context.eval_filter(predicate)? {
                    rows.push(row);
                }
            }
            Ok(Rel { schema: input.schema, rows })
        }
        other => Err(DbError::Unsupported(format!(
            "executor node {other:?} below the join root"
        ))),
    }
}

fn field_index(schema: &RowSchema, key: &(String, String)) -> Result<usize, DbError> {
    schema
        .fields
        .iter()
        .position(|(b, c)| b == &key.0 && c == &key.1)
        .ok_or_else(|| DbError::UnknownColumn(format!("{}.{}", key.0, key.1)))
}

fn hash_key(v: &Value) -> String {
    match v {
        // Int/Float compare equal cross-type in joins via numeric key.
        Value::Int(x) => format!("n{}", *x as f64),
        Value::Float(x) => format!("n{x}"),
        Value::Str(s) => format!("s{s}"),
        Value::Bool(b) => format!("b{b}"),
        Value::Null => "null".into(),
    }
}

/// Composite `GROUP BY`/`DISTINCT` key: each part's [`hash_key`],
/// length-prefixed so the encoding is injective whatever bytes the
/// parts hold (a plain separator collides once a string contains it).
fn composite_key(values: &[Value]) -> String {
    let mut key = String::new();
    for value in values {
        let part = hash_key(value);
        key.push_str(&part.len().to_string());
        key.push(':');
        key.push_str(&part);
    }
    key
}

// ---- output phase -----------------------------------------------------

/// One output record: the row (or group representative) plus an optional
/// aggregate environment.
struct Record {
    row: Vec<Value>,
    aggregates: Option<HashMap<String, Value>>,
}

fn output_phase(
    select: &Select,
    rel: Rel,
    subqueries: &SubqueryResults,
    work: &mut u64,
) -> Result<(Vec<String>, Vec<Vec<Value>>), DbError> {
    let n_aggregates = planner::count_aggregates(select);
    let grouped = n_aggregates > 0 || !select.group_by.is_empty();

    let records: Vec<Record> = if grouped {
        *work += rel.rows.len() as u64;
        group_records(select, &rel, subqueries)?
    } else {
        rel.rows.into_iter().map(|row| Record { row, aggregates: None }).collect()
    };

    // HAVING.
    let records: Vec<Record> = match &select.having {
        Some(having) => {
            *work += records.len() as u64;
            let mut kept = Vec::with_capacity(records.len());
            for record in records {
                let context = EvalContext {
                    schema: &rel.schema,
                    row: &record.row,
                    aggregates: record.aggregates.as_ref(),
                    subqueries,
                };
                if context.eval_filter(having)? {
                    kept.push(record);
                }
            }
            kept
        }
        None => records,
    };

    // ORDER BY keys are computed against the pre-projection records.
    let mut keyed: Vec<(Vec<Value>, Record)> = Vec::with_capacity(records.len());
    for record in records {
        let mut keys = Vec::with_capacity(select.order_by.len());
        for item in &select.order_by {
            let context = EvalContext {
                schema: &rel.schema,
                row: &record.row,
                aggregates: record.aggregates.as_ref(),
                subqueries,
            };
            keys.push(context.eval(&item.expr)?);
        }
        keyed.push((keys, record));
    }
    if !select.order_by.is_empty() {
        *work += keyed.len() as u64;
        keyed.sort_by(|(a, _), (b, _)| {
            for (idx, item) in select.order_by.iter().enumerate() {
                let ordering = a[idx].total_cmp(&b[idx]);
                let ordering = if item.ascending { ordering } else { ordering.reverse() };
                if ordering != std::cmp::Ordering::Equal {
                    return ordering;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    // Projection.
    let wildcard = select.projections.iter().any(|p| matches!(p.expr, Expr::Wildcard));
    let column_names: Vec<String> = if wildcard {
        rel.schema.fields.iter().map(|(_, c)| c.clone()).collect()
    } else {
        select
            .projections
            .iter()
            .map(|p| p.alias.clone().unwrap_or_else(|| p.expr.to_string()))
            .collect()
    };

    *work += keyed.len() as u64;
    let mut output = Vec::with_capacity(keyed.len());
    for (_, record) in keyed {
        if wildcard {
            output.push(record.row);
            continue;
        }
        let context = EvalContext {
            schema: &rel.schema,
            row: &record.row,
            aggregates: record.aggregates.as_ref(),
            subqueries,
        };
        let mut row = Vec::with_capacity(select.projections.len());
        for item in &select.projections {
            row.push(context.eval(&item.expr)?);
        }
        output.push(row);
    }

    // DISTINCT (grouped queries already produce distinct groups, but the
    // projection may collapse them further, so always dedup when asked).
    if select.distinct {
        *work += output.len() as u64;
        let mut seen = std::collections::HashSet::new();
        output.retain(|row| seen.insert(composite_key(row)));
    }

    if let Some(limit) = select.limit {
        output.truncate(limit as usize);
    }

    Ok((column_names, output))
}

/// Group the input and compute one record per group with its aggregate
/// environment.
fn group_records(
    select: &Select,
    rel: &Rel,
    subqueries: &SubqueryResults,
) -> Result<Vec<Record>, DbError> {
    // All aggregate expressions appearing anywhere in the output clauses.
    let mut aggregate_exprs: Vec<Expr> = Vec::new();
    let mut collect = |expr: &Expr| {
        expr.walk(&mut |e| {
            if e.is_aggregate() && !aggregate_exprs.contains(e) {
                aggregate_exprs.push(e.clone());
            }
        });
    };
    for item in &select.projections {
        collect(&item.expr);
    }
    if let Some(having) = &select.having {
        collect(having);
    }
    for order in &select.order_by {
        collect(&order.expr);
    }

    let mut groups: Vec<(Vec<Value>, Vec<Accumulator>)> = Vec::new();
    let mut group_index: HashMap<String, usize> = HashMap::new();

    for row in &rel.rows {
        let context =
            EvalContext { schema: &rel.schema, row, aggregates: None, subqueries };
        let mut key_values = Vec::with_capacity(select.group_by.len());
        for group in &select.group_by {
            key_values.push(context.eval(group)?);
        }
        let key = composite_key(&key_values);
        let group_idx = match group_index.get(&key) {
            Some(&idx) => idx,
            None => {
                let accumulators = aggregate_exprs
                    .iter()
                    .map(Accumulator::for_expr)
                    .collect::<Result<Vec<_>, _>>()?;
                groups.push((row.clone(), accumulators));
                group_index.insert(key, groups.len() - 1);
                groups.len() - 1
            }
        };
        for (acc, expr) in groups[group_idx].1.iter_mut().zip(&aggregate_exprs) {
            acc.update(expr, &context)?;
        }
    }

    // Global aggregation over an empty input still yields one group.
    if groups.is_empty() && select.group_by.is_empty() {
        let accumulators = aggregate_exprs
            .iter()
            .map(Accumulator::for_expr)
            .collect::<Result<Vec<_>, _>>()?;
        groups.push((vec![Value::Null; rel.schema.fields.len()], accumulators));
    }

    Ok(groups
        .into_iter()
        .map(|(row, accumulators)| {
            let mut env = HashMap::with_capacity(aggregate_exprs.len());
            for (expr, acc) in aggregate_exprs.iter().zip(accumulators) {
                env.insert(expr.to_string(), acc.finish());
            }
            Record { row, aggregates: Some(env) }
        })
        .collect())
}

/// Streaming aggregate state.
enum Accumulator {
    Count { count: i64, distinct: Option<std::collections::HashSet<String>> },
    Sum { int: i64, float: f64, any_float: bool, seen: bool },
    Avg { sum: f64, count: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Accumulator {
    fn for_expr(expr: &Expr) -> Result<Accumulator, DbError> {
        let Expr::Function { name, distinct, .. } = expr else {
            return Err(DbError::Unsupported("non-function aggregate".into()));
        };
        Ok(match name.as_str() {
            "COUNT" => Accumulator::Count {
                count: 0,
                distinct: if *distinct { Some(Default::default()) } else { None },
            },
            "SUM" => Accumulator::Sum { int: 0, float: 0.0, any_float: false, seen: false },
            "AVG" => Accumulator::Avg { sum: 0.0, count: 0 },
            "MIN" => Accumulator::Min(None),
            "MAX" => Accumulator::Max(None),
            other => return Err(DbError::Unsupported(format!("aggregate {other}"))),
        })
    }

    fn update(&mut self, expr: &Expr, context: &EvalContext<'_>) -> Result<(), DbError> {
        let Expr::Function { args, .. } = expr else { unreachable!() };
        let argument = match args.first() {
            Some(Expr::Wildcard) | None => None,
            Some(arg) => Some(context.eval(arg)?),
        };
        match self {
            Accumulator::Count { count, distinct } => match argument {
                None => *count += 1, // COUNT(*)
                Some(v) if v.is_null() => {}
                Some(v) => match distinct {
                    Some(set) => {
                        if set.insert(hash_key(&v)) {
                            *count += 1;
                        }
                    }
                    None => *count += 1,
                },
            },
            Accumulator::Sum { int, float, any_float, seen } => {
                if let Some(v) = argument {
                    match v {
                        Value::Int(x) => {
                            *int += x;
                            *seen = true;
                        }
                        Value::Float(x) => {
                            *float += x;
                            *any_float = true;
                            *seen = true;
                        }
                        Value::Null => {}
                        other => {
                            return Err(DbError::TypeMismatch(format!("SUM({other:?})")))
                        }
                    }
                }
            }
            Accumulator::Avg { sum, count } => {
                if let Some(v) = argument {
                    match v.as_f64() {
                        Some(x) if !v.is_null() => {
                            *sum += x;
                            *count += 1;
                        }
                        _ if v.is_null() => {}
                        _ => {
                            return Err(DbError::TypeMismatch(format!("AVG({v:?})")))
                        }
                    }
                }
            }
            Accumulator::Min(best) => {
                if let Some(v) = argument {
                    if !v.is_null()
                        && best
                            .as_ref()
                            .is_none_or(|b| v.total_cmp(b) == std::cmp::Ordering::Less)
                    {
                        *best = Some(v);
                    }
                }
            }
            Accumulator::Max(best) => {
                if let Some(v) = argument {
                    if !v.is_null()
                        && best
                            .as_ref()
                            .is_none_or(|b| v.total_cmp(b) == std::cmp::Ordering::Greater)
                    {
                        *best = Some(v);
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            Accumulator::Count { count, .. } => Value::Int(count),
            Accumulator::Sum { int, float, any_float, seen } => {
                if !seen {
                    Value::Null
                } else if any_float {
                    Value::Float(float + int as f64)
                } else {
                    Value::Int(int)
                }
            }
            Accumulator::Avg { sum, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / count as f64)
                }
            }
            Accumulator::Min(v) | Accumulator::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}
