//! Query planner: validation, typing, join ordering, and cost estimation.
//!
//! `plan` lowers a [`sqlkit::Select`] into a costed [`PlanNode`] tree:
//!
//! 1. **Bind & validate** — every table and column must exist, bindings
//!    must be unique, placeholders must be gone, expressions must type
//!    check, grouped queries must not project ungrouped columns. Failures
//!    surface as PostgreSQL-style [`DbError`]s (the `ValidateSyntax`
//!    channel of Algorithm 1).
//! 2. **Predicate classification** — `WHERE`/`ON` conjuncts are pushed to
//!    scans, turned into equi-join edges, or kept as residual filters.
//! 3. **Greedy join ordering** — left-deep, smallest-estimated-output
//!    first (inner joins only; outer joins preserve syntactic order).
//! 4. **Costing** — every node gets estimated rows (via
//!    [`crate::estimator`]) and cumulative cost (via [`crate::cost`]).

use crate::catalog::Database;
use crate::error::DbError;
use crate::estimator::{Estimator, Scope};
use crate::plan::{NodeKind, PlanNode};
use crate::storage::DataType;
use sqlkit::{BinaryOp, ColumnRef, Expr, JoinKind, Select, UnaryOp, Value};

/// Plan a statement against a database.
pub fn plan(db: &Database, select: &Select) -> Result<PlanNode, DbError> {
    Planner { db }.plan_select(select)
}

/// Build the binding scope of a statement's `FROM` clause.
pub fn build_scope(db: &Database, select: &Select) -> Result<Scope, DbError> {
    let mut bindings = Vec::new();
    for table_ref in select.table_refs() {
        db.schema(&table_ref.table)?; // UnknownTable check
        let binding = table_ref.binding().to_string();
        if bindings.iter().any(|(b, _)| *b == binding) {
            return Err(DbError::DuplicateBinding(binding));
        }
        bindings.push((binding, table_ref.table.clone()));
    }
    if bindings.is_empty() {
        return Err(DbError::Unsupported("SELECT without FROM".into()));
    }
    Ok(Scope { bindings })
}

struct Planner<'a> {
    db: &'a Database,
}

/// Loose type kinds for validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Num,
    Str,
    Bool,
    Unknown,
}

impl Kind {
    fn of(data_type: DataType) -> Kind {
        match data_type {
            DataType::Int | DataType::Float => Kind::Num,
            DataType::Str => Kind::Str,
            DataType::Bool => Kind::Bool,
        }
    }

    fn compatible(self, other: Kind) -> bool {
        self == Kind::Unknown || other == Kind::Unknown || self == other
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Num => "numeric",
            Kind::Str => "text",
            Kind::Bool => "boolean",
            Kind::Unknown => "unknown",
        }
    }
}

/// An equi-join edge between two bindings.
pub(crate) struct JoinEdge {
    pub(crate) left_binding: usize,
    pub(crate) right_binding: usize,
    pub(crate) left_column: ColumnRef,
    pub(crate) right_column: ColumnRef,
}

/// `(per-scan pushed-down filters, equi-join edges, residual
/// `(binding mask, conjunct)` pairs)` — the output of
/// [`classify_predicates`].
pub(crate) type ClassifiedPredicates = (Vec<Vec<Expr>>, Vec<JoinEdge>, Vec<(u64, Expr)>);

/// Classify every `ON`/`WHERE` conjunct of a statement into pushed-down
/// scan filters, equi-join edges, and residual predicates. Classification
/// looks only at column references and boolean structure, so a template
/// and any instantiation of it classify identically — the invariant the
/// prepared-plan path relies on.
pub(crate) fn classify_predicates(
    db: &Database,
    select: &Select,
    scope: &Scope,
) -> Result<ClassifiedPredicates, DbError> {
    let mut scan_filters: Vec<Vec<Expr>> = vec![Vec::new(); scope.bindings.len()];
    let mut edges: Vec<JoinEdge> = Vec::new();
    // residuals: (binding bitmask, conjunct)
    let mut residuals: Vec<(u64, Expr)> = Vec::new();

    let mut classify = |expr: &Expr, allow_pushdown: bool| -> Result<(), DbError> {
        for conjunct in expr.conjuncts() {
            let mask = binding_mask(db, &conjunct, scope)?;
            let nbits = mask.count_ones();
            if nbits <= 1 && allow_pushdown {
                if nbits == 1 {
                    let idx = mask.trailing_zeros() as usize;
                    scan_filters[idx].push(conjunct);
                } else {
                    // constant predicate: keep as residual at the top
                    residuals.push((0, conjunct));
                }
                continue;
            }
            if nbits == 2 {
                if let Some(edge) = as_equi_edge(db, &conjunct, scope) {
                    edges.push(edge);
                    continue;
                }
            }
            residuals.push((mask, conjunct));
        }
        Ok(())
    };

    for join in &select.joins {
        if let Some(on) = &join.on {
            // For outer joins we must not push single-table conjuncts
            // below the join.
            classify(on, join.kind != JoinKind::Left)?;
        }
    }
    if let Some(where_clause) = &select.where_clause {
        classify(where_clause, true)?;
    }
    Ok((scan_filters, edges, residuals))
}

impl<'a> Planner<'a> {
    fn plan_select(&self, select: &Select) -> Result<PlanNode, DbError> {
        let scope = build_scope(self.db, select)?;

        // Validate every expression (types, column existence, placeholder
        // absence, aggregate placement) and recursively plan subqueries,
        // accumulating their cost and estimated cardinalities (used for
        // semijoin selectivity).
        let mut subquery_cost = 0.0;
        let mut subquery_rows = std::collections::HashMap::new();
        self.validate(select, &scope, &mut subquery_cost, &mut subquery_rows)?;

        let has_outer_join = select.joins.iter().any(|j| j.kind == JoinKind::Left);

        // ---- predicate classification -------------------------------
        let (scan_filters, edges, residuals) = classify_predicates(self.db, select, &scope)?;

        // ---- scans ---------------------------------------------------
        let estimator = Estimator::new(self.db, &scope).with_subquery_rows(subquery_rows);
        let model = self.db.cost_model();
        let mut scans: Vec<Option<PlanNode>> = Vec::with_capacity(scope.bindings.len());
        for (idx, (binding, table_name)) in scope.bindings.iter().enumerate() {
            let table = self.db.table(table_name)?;
            let stats = self.db.stats(table_name)?;
            let base_rows = stats.row_count as f64;
            let conjuncts = scan_filters[idx].clone();
            let filter = Expr::conjoin(conjuncts.clone());
            let selectivity = filter.as_ref().map_or(1.0, |f| estimator.selectivity(f));
            let quals = filter.as_ref().map_or(0, count_leaves);
            let out_rows = base_rows * selectivity;
            let width = table.row_width() as f64;
            let seq_cost = model.seq_scan(base_rows, width, quals, out_rows);

            // Access-path choice: probe every indexable conjunct and take
            // the cheapest plan (PostgreSQL's seq-vs-index decision).
            let mut best: (f64, NodeKind) = (
                seq_cost,
                NodeKind::SeqScan {
                    table: table_name.clone(),
                    binding: binding.clone(),
                    filter: filter.clone(),
                },
            );
            for conjunct in &conjuncts {
                let Some((column, lo, hi)) = indexable_bounds(conjunct) else { continue };
                if self.db.index_on(table_name, &column).is_none() {
                    continue;
                }
                let match_rows = base_rows * estimator.selectivity(conjunct);
                let index_cost = model.index_scan(base_rows, width, match_rows, quals, out_rows);
                if index_cost < best.0 {
                    best = (
                        index_cost,
                        NodeKind::IndexScan {
                            table: table_name.clone(),
                            binding: binding.clone(),
                            column,
                            lo,
                            hi,
                            filter: filter.clone(),
                        },
                    );
                }
            }

            scans.push(Some(PlanNode {
                kind: best.1,
                est_rows: out_rows,
                total_cost: best.0,
                children: vec![],
            }));
        }

        // ---- join ordering ------------------------------------------
        let order: Vec<usize> = if has_outer_join || scope.bindings.len() == 1 {
            (0..scope.bindings.len()).collect()
        } else {
            greedy_order(&scans, &edges, &estimator)
        };

        let mut joined_mask: u64 = 1 << order[0];
        let mut current = scans[order[0]].take().expect("scan consumed once");
        let mut used_edges = vec![false; edges.len()];
        let mut applied_residuals = vec![false; residuals.len()];

        for &next in &order[1..] {
            let right = scans[next].take().expect("scan consumed once");
            // Applicable equi edges between joined set and `next`.
            let mut applicable: Vec<&JoinEdge> = Vec::new();
            for (edge_idx, edge) in edges.iter().enumerate() {
                if used_edges[edge_idx] {
                    continue;
                }
                let connects = (joined_mask >> edge.left_binding) & 1 == 1
                    && edge.right_binding == next
                    || (joined_mask >> edge.right_binding) & 1 == 1 && edge.left_binding == next;
                if connects {
                    used_edges[edge_idx] = true;
                    applicable.push(edge);
                }
            }

            let next_mask = joined_mask | (1 << next);
            // Residual conjuncts that become evaluable at this join.
            let mut join_residual_parts: Vec<Expr> = Vec::new();
            for (res_idx, (mask, conjunct)) in residuals.iter().enumerate() {
                if !applied_residuals[res_idx] && mask & !next_mask == 0 && *mask & (1 << next) != 0
                {
                    applied_residuals[res_idx] = true;
                    join_residual_parts.push(conjunct.clone());
                }
            }

            let left_rows = current.est_rows;
            let right_rows = right.est_rows;
            let mut selectivity = 1.0;
            for edge in &applicable {
                selectivity *=
                    estimator.equi_join_selectivity(&edge.left_column, &edge.right_column);
            }
            for part in &join_residual_parts {
                selectivity *= estimator.selectivity(part);
            }
            // NOTE: LEFT JOIN is planned and executed with inner-join
            // semantics (documented engine limitation); only join *order*
            // is pinned to the syntactic order when outer joins appear.
            let out_rows = left_rows * right_rows * selectivity;

            let (kind, join_cost) = if let Some(first) = applicable.first() {
                // Orient keys: left key must come from the joined side.
                let (left_key, right_key) = if (joined_mask >> first.left_binding) & 1 == 1 {
                    (
                        key_of(&scope, first.left_binding, &first.left_column),
                        key_of(&scope, first.right_binding, &first.right_column),
                    )
                } else {
                    (
                        key_of(&scope, first.right_binding, &first.right_column),
                        key_of(&scope, first.left_binding, &first.left_column),
                    )
                };
                // Remaining equi edges become residual equality predicates.
                for edge in applicable.iter().skip(1) {
                    join_residual_parts.push(Expr::binary(
                        Expr::Column(edge.left_column.clone()),
                        BinaryOp::Eq,
                        Expr::Column(edge.right_column.clone()),
                    ));
                }
                (
                    NodeKind::HashJoin {
                        left_key,
                        right_key,
                        residual: Expr::conjoin(join_residual_parts.clone()),
                    },
                    model.hash_join(left_rows, right_rows, out_rows),
                )
            } else {
                (
                    NodeKind::NestedLoop { condition: Expr::conjoin(join_residual_parts.clone()) },
                    model.nested_loop(left_rows, right_rows, out_rows),
                )
            };

            let total_cost = current.total_cost + right.total_cost + join_cost;
            current =
                PlanNode { kind, est_rows: out_rows, total_cost, children: vec![current, right] };
            joined_mask = next_mask;
        }

        // Remaining residuals (constant predicates, or anything missed).
        let leftover: Vec<Expr> = residuals
            .iter()
            .zip(&applied_residuals)
            .filter(|(_, applied)| !**applied)
            .map(|((_, c), _)| c.clone())
            .collect();
        if let Some(predicate) = Expr::conjoin(leftover) {
            let selectivity = estimator.selectivity(&predicate);
            let rows = current.est_rows * selectivity;
            let cost =
                current.total_cost + model.filter(current.est_rows, count_leaves(&predicate));
            current = PlanNode {
                kind: NodeKind::Filter { predicate },
                est_rows: rows,
                total_cost: cost,
                children: vec![current],
            };
        }

        // ---- aggregation / distinct / sort / limit -------------------
        let n_aggregates = count_aggregates(select);
        let grouped = !select.group_by.is_empty() || n_aggregates > 0;
        if grouped {
            let groups = estimator.group_count(&select.group_by, current.est_rows);
            let cost =
                current.total_cost + model.hash_aggregate(current.est_rows, n_aggregates, groups);
            current = PlanNode {
                kind: NodeKind::Aggregate {
                    group_exprs: select.group_by.len(),
                    aggregates: n_aggregates,
                },
                est_rows: groups,
                total_cost: cost,
                children: vec![current],
            };
        }

        if let Some(having) = &select.having {
            let selectivity = estimator.selectivity(having);
            let rows = current.est_rows * selectivity;
            let cost = current.total_cost + model.filter(current.est_rows, count_leaves(having));
            current = PlanNode {
                kind: NodeKind::Filter { predicate: having.clone() },
                est_rows: rows,
                total_cost: cost,
                children: vec![current],
            };
        }

        if select.distinct && !grouped {
            let group_exprs: Vec<Expr> =
                select.projections.iter().map(|p| p.expr.clone()).collect();
            let out_rows = estimator.group_count(&group_exprs, current.est_rows);
            let cost = current.total_cost + model.distinct(current.est_rows, out_rows);
            current = PlanNode {
                kind: NodeKind::Distinct,
                est_rows: out_rows,
                total_cost: cost,
                children: vec![current],
            };
        }

        if !select.order_by.is_empty() {
            let cost = current.total_cost + model.sort(current.est_rows);
            current = PlanNode {
                kind: NodeKind::Sort,
                est_rows: current.est_rows,
                total_cost: cost,
                children: vec![current],
            };
        }

        if let Some(limit) = select.limit {
            let rows = current.est_rows.min(limit as f64);
            // Without a pipeline-breaker below, a limit lets execution stop
            // early; approximate by scaling the subtree cost.
            let breaker = grouped || !select.order_by.is_empty() || select.distinct;
            let cost = if breaker || current.est_rows <= 0.0 {
                current.total_cost
            } else {
                current.total_cost * (rows / current.est_rows).clamp(0.01, 1.0)
            };
            current = PlanNode {
                kind: NodeKind::Limit(limit),
                est_rows: rows,
                total_cost: cost,
                children: vec![current],
            };
        }

        // Root projection: per-output-row CPU + subquery costs.
        let cost = current.total_cost + current.est_rows * model.cpu_tuple_cost + subquery_cost;
        Ok(PlanNode {
            kind: NodeKind::Projection,
            est_rows: current.est_rows,
            total_cost: cost,
            children: vec![current],
        })
    }

    // ---- validation --------------------------------------------------

    fn validate(
        &self,
        select: &Select,
        scope: &Scope,
        subquery_cost: &mut f64,
        subquery_rows: &mut std::collections::HashMap<String, f64>,
    ) -> Result<(), DbError> {
        // Plan subqueries first (their own scopes).
        for subquery in select.subqueries() {
            if subquery.projections.iter().any(|p| matches!(p.expr, Expr::Wildcard))
                && subquery.projections.len() > 1
            {
                return Err(DbError::Unsupported("\"*\" mixed with other projections".into()));
            }
            let subplan = self.plan_select(subquery)?;
            *subquery_cost += subplan.total_cost;
            subquery_rows.insert(subquery.to_string(), subplan.est_rows);
        }

        // WHERE must not contain aggregates.
        if let Some(where_clause) = &select.where_clause {
            if contains_aggregate(where_clause) {
                return Err(DbError::Grouping(
                    "aggregate functions are not allowed in WHERE; \"WHERE\"".into(),
                ));
            }
        }
        for join in &select.joins {
            if let Some(on) = &join.on {
                if contains_aggregate(on) {
                    return Err(DbError::Grouping(
                        "aggregate functions are not allowed in JOIN conditions; \"ON\"".into(),
                    ));
                }
            }
        }

        // Type checking of every clause.
        for item in &select.projections {
            if matches!(item.expr, Expr::Wildcard) {
                continue;
            }
            self.infer_kind(&item.expr, scope)?;
        }
        for join in &select.joins {
            if let Some(on) = &join.on {
                self.expect_boolean(on, scope)?;
            }
        }
        if let Some(where_clause) = &select.where_clause {
            self.expect_boolean(where_clause, scope)?;
        }
        for group in &select.group_by {
            self.infer_kind(group, scope)?;
        }
        if let Some(having) = &select.having {
            self.expect_boolean(having, scope)?;
        }
        for order in &select.order_by {
            self.infer_kind(&order.expr, scope)?;
        }

        // Grouping discipline: if aggregated/grouped, every bare column in
        // the SELECT list / HAVING / ORDER BY outside an aggregate must be
        // a grouping expression.
        let n_aggregates = count_aggregates(select);
        if n_aggregates > 0 || !select.group_by.is_empty() {
            let group_keys: Vec<String> = select.group_by.iter().map(|g| g.to_string()).collect();
            for item in &select.projections {
                if matches!(item.expr, Expr::Wildcard) {
                    return Err(DbError::Grouping("\"*\"".into()));
                }
                check_grouped(&item.expr, &group_keys)?;
            }
            if let Some(having) = &select.having {
                check_grouped(having, &group_keys)?;
            }
            for order in &select.order_by {
                check_grouped(&order.expr, &group_keys)?;
            }
        }
        Ok(())
    }

    fn expect_boolean(&self, expr: &Expr, scope: &Scope) -> Result<(), DbError> {
        let kind = self.infer_kind(expr, scope)?;
        if kind.compatible(Kind::Bool) {
            Ok(())
        } else {
            Err(DbError::TypeMismatch(format!(
                "argument of WHERE must be type boolean, not type {}",
                kind.name()
            )))
        }
    }

    fn infer_kind(&self, expr: &Expr, scope: &Scope) -> Result<Kind, DbError> {
        match expr {
            Expr::Column(c) => {
                let idx = scope.resolve(self.db, c)?;
                let table = &scope.bindings[idx].1;
                let schema = self.db.schema(table)?;
                let def = schema
                    .columns
                    .iter()
                    .find(|col| col.name == c.column)
                    .expect("resolve checked existence");
                Ok(Kind::of(def.data_type))
            }
            Expr::Literal(Value::Int(_) | Value::Float(_)) => Ok(Kind::Num),
            Expr::Literal(Value::Str(_)) => Ok(Kind::Str),
            Expr::Literal(Value::Bool(_)) => Ok(Kind::Bool),
            Expr::Literal(Value::Null) => Ok(Kind::Unknown),
            Expr::Placeholder(id) => Err(DbError::UnboundPlaceholder(*id)),
            Expr::Wildcard => {
                Err(DbError::Unsupported("\"*\" outside COUNT(*) or a lone projection".into()))
            }
            Expr::Unary { op: UnaryOp::Neg, expr } => {
                let kind = self.infer_kind(expr, scope)?;
                if kind.compatible(Kind::Num) {
                    Ok(Kind::Num)
                } else {
                    Err(DbError::TypeMismatch(format!("- {}", kind.name())))
                }
            }
            Expr::Unary { op: UnaryOp::Not, expr } => {
                let kind = self.infer_kind(expr, scope)?;
                if kind.compatible(Kind::Bool) {
                    Ok(Kind::Bool)
                } else {
                    Err(DbError::TypeMismatch(format!("NOT {}", kind.name())))
                }
            }
            Expr::Binary { left, op, right } => {
                let l = self.infer_kind(left, scope)?;
                let r = self.infer_kind(right, scope)?;
                if op.is_arithmetic() {
                    if l.compatible(Kind::Num) && r.compatible(Kind::Num) {
                        Ok(Kind::Num)
                    } else {
                        Err(DbError::TypeMismatch(format!(
                            "{} {} {}",
                            l.name(),
                            op.symbol(),
                            r.name()
                        )))
                    }
                } else if op.is_comparison() {
                    if l.compatible(r) {
                        Ok(Kind::Bool)
                    } else {
                        Err(DbError::TypeMismatch(format!(
                            "{} {} {}",
                            l.name(),
                            op.symbol(),
                            r.name()
                        )))
                    }
                } else {
                    // AND / OR
                    if l.compatible(Kind::Bool) && r.compatible(Kind::Bool) {
                        Ok(Kind::Bool)
                    } else {
                        Err(DbError::TypeMismatch(format!(
                            "{} {} {}",
                            l.name(),
                            op.symbol(),
                            r.name()
                        )))
                    }
                }
            }
            Expr::Between { expr, low, high, .. } => {
                let e = self.infer_kind(expr, scope)?;
                let lo = self.infer_kind(low, scope)?;
                let hi = self.infer_kind(high, scope)?;
                if e.compatible(lo) && e.compatible(hi) {
                    Ok(Kind::Bool)
                } else {
                    Err(DbError::TypeMismatch(format!(
                        "{} BETWEEN {} AND {}",
                        e.name(),
                        lo.name(),
                        hi.name()
                    )))
                }
            }
            Expr::InList { expr, list, .. } => {
                let e = self.infer_kind(expr, scope)?;
                for item in list {
                    let k = self.infer_kind(item, scope)?;
                    if !e.compatible(k) {
                        return Err(DbError::TypeMismatch(format!(
                            "{} IN (… {} …)",
                            e.name(),
                            k.name()
                        )));
                    }
                }
                Ok(Kind::Bool)
            }
            Expr::InSubquery { expr, subquery, .. } => {
                self.infer_kind(expr, scope)?;
                if subquery.projections.len() != 1 {
                    return Err(DbError::Unsupported(
                        "subquery must return only one column".into(),
                    ));
                }
                Ok(Kind::Bool)
            }
            Expr::ScalarSubquery(subquery) => {
                if subquery.projections.len() != 1 {
                    return Err(DbError::Unsupported(
                        "subquery must return only one column".into(),
                    ));
                }
                Ok(Kind::Unknown)
            }
            Expr::Exists { .. } => Ok(Kind::Bool),
            Expr::Like { expr, pattern, .. } => {
                let e = self.infer_kind(expr, scope)?;
                let p = self.infer_kind(pattern, scope)?;
                if e.compatible(Kind::Str) && p.compatible(Kind::Str) {
                    Ok(Kind::Bool)
                } else {
                    Err(DbError::TypeMismatch(format!("{} LIKE {}", e.name(), p.name())))
                }
            }
            Expr::IsNull { expr, .. } => {
                self.infer_kind(expr, scope)?;
                Ok(Kind::Bool)
            }
            Expr::Function { name, args, .. } => self.infer_function_kind(name, args, scope, expr),
            Expr::Case { operand, branches, else_branch } => {
                if let Some(op) = operand {
                    self.infer_kind(op, scope)?;
                }
                let mut result = Kind::Unknown;
                for (when, then) in branches {
                    let w = self.infer_kind(when, scope)?;
                    if operand.is_none() && !w.compatible(Kind::Bool) {
                        return Err(DbError::TypeMismatch(format!(
                            "CASE WHEN condition must be boolean, not {}",
                            w.name()
                        )));
                    }
                    let t = self.infer_kind(then, scope)?;
                    if result == Kind::Unknown {
                        result = t;
                    } else if !result.compatible(t) {
                        return Err(DbError::TypeMismatch(format!(
                            "CASE branches mix {} and {}",
                            result.name(),
                            t.name()
                        )));
                    }
                }
                if let Some(e) = else_branch {
                    let k = self.infer_kind(e, scope)?;
                    if result == Kind::Unknown {
                        result = k;
                    } else if !result.compatible(k) {
                        return Err(DbError::TypeMismatch(format!(
                            "CASE branches mix {} and {}",
                            result.name(),
                            k.name()
                        )));
                    }
                }
                Ok(result)
            }
        }
    }

    fn infer_function_kind(
        &self,
        name: &str,
        args: &[Expr],
        scope: &Scope,
        whole: &Expr,
    ) -> Result<Kind, DbError> {
        if whole.is_aggregate() {
            // No nested aggregates.
            for arg in args {
                if contains_aggregate(arg) {
                    return Err(DbError::Grouping(
                        "aggregate function calls cannot be nested; aggregate".into(),
                    ));
                }
            }
            return match name {
                "COUNT" => {
                    if args.len() != 1 {
                        return Err(DbError::TypeMismatch("COUNT expects 1 argument".into()));
                    }
                    if !matches!(args[0], Expr::Wildcard) {
                        self.infer_kind(&args[0], scope)?;
                    }
                    Ok(Kind::Num)
                }
                "SUM" | "AVG" => {
                    let [arg] = args else {
                        return Err(DbError::TypeMismatch(format!("{name} expects 1 argument")));
                    };
                    let kind = self.infer_kind(arg, scope)?;
                    if kind.compatible(Kind::Num) {
                        Ok(Kind::Num)
                    } else {
                        Err(DbError::TypeMismatch(format!("{name}({})", kind.name())))
                    }
                }
                "MIN" | "MAX" => {
                    let [arg] = args else {
                        return Err(DbError::TypeMismatch(format!("{name} expects 1 argument")));
                    };
                    self.infer_kind(arg, scope)
                }
                _ => unreachable!("is_aggregate covers exactly these"),
            };
        }
        match name {
            "ABS" | "ROUND" | "FLOOR" | "CEIL" | "MOD" => {
                for arg in args {
                    let kind = self.infer_kind(arg, scope)?;
                    if !kind.compatible(Kind::Num) {
                        return Err(DbError::TypeMismatch(format!("{name}({})", kind.name())));
                    }
                }
                Ok(Kind::Num)
            }
            "LENGTH" => {
                let [arg] = args else {
                    return Err(DbError::TypeMismatch("LENGTH expects 1 argument".into()));
                };
                let kind = self.infer_kind(arg, scope)?;
                if kind.compatible(Kind::Str) {
                    Ok(Kind::Num)
                } else {
                    Err(DbError::TypeMismatch(format!("LENGTH({})", kind.name())))
                }
            }
            "UPPER" | "LOWER" => {
                let [arg] = args else {
                    return Err(DbError::TypeMismatch(format!("{name} expects 1 argument")));
                };
                let kind = self.infer_kind(arg, scope)?;
                if kind.compatible(Kind::Str) {
                    Ok(Kind::Str)
                } else {
                    Err(DbError::TypeMismatch(format!("{name}({})", kind.name())))
                }
            }
            "SUBSTR" | "SUBSTRING" => {
                if args.is_empty() || args.len() > 3 {
                    return Err(DbError::TypeMismatch("SUBSTR expects 2 or 3 arguments".into()));
                }
                let kind = self.infer_kind(&args[0], scope)?;
                if !kind.compatible(Kind::Str) {
                    return Err(DbError::TypeMismatch(format!("SUBSTR({})", kind.name())));
                }
                for arg in &args[1..] {
                    let k = self.infer_kind(arg, scope)?;
                    if !k.compatible(Kind::Num) {
                        return Err(DbError::TypeMismatch(format!("SUBSTR(…, {})", k.name())));
                    }
                }
                Ok(Kind::Str)
            }
            "COALESCE" => {
                let mut result = Kind::Unknown;
                for arg in args {
                    let k = self.infer_kind(arg, scope)?;
                    if result == Kind::Unknown {
                        result = k;
                    } else if !result.compatible(k) {
                        return Err(DbError::TypeMismatch(format!(
                            "COALESCE mixes {} and {}",
                            result.name(),
                            k.name()
                        )));
                    }
                }
                Ok(result)
            }
            other => Err(DbError::Unsupported(format!("function {other}(…)"))),
        }
    }
}

/// Bitmask of bindings referenced by an expression (subqueries excluded
/// — they resolve in their own scope).
pub(crate) fn binding_mask(db: &Database, expr: &Expr, scope: &Scope) -> Result<u64, DbError> {
    let mut mask = 0u64;
    let mut error = None;
    expr.walk(&mut |e| {
        if error.is_some() {
            return;
        }
        if let Expr::Column(c) = e {
            match scope.resolve(db, c) {
                Ok(idx) => mask |= 1 << idx,
                Err(err) => error = Some(err),
            }
        }
    });
    match error {
        Some(err) => Err(err),
        None => Ok(mask),
    }
}

/// Recognize `a.x = b.y` between two different bindings.
pub(crate) fn as_equi_edge(db: &Database, expr: &Expr, scope: &Scope) -> Option<JoinEdge> {
    let Expr::Binary { left, op: BinaryOp::Eq, right } = expr else { return None };
    let (Expr::Column(lc), Expr::Column(rc)) = (left.as_ref(), right.as_ref()) else {
        return None;
    };
    let li = scope.resolve(db, lc).ok()?;
    let ri = scope.resolve(db, rc).ok()?;
    if li == ri {
        return None;
    }
    Some(JoinEdge {
        left_binding: li,
        right_binding: ri,
        left_column: qualify(lc, scope, li),
        right_column: qualify(rc, scope, ri),
    })
}

/// Qualify a column with its resolved binding (so executor lookups are
/// unambiguous even if the source text used a bare name).
fn qualify(column: &ColumnRef, scope: &Scope, binding_idx: usize) -> ColumnRef {
    ColumnRef::qualified(scope.bindings[binding_idx].0.clone(), column.column.clone())
}

fn key_of(scope: &Scope, binding_idx: usize, column: &ColumnRef) -> (String, String) {
    (scope.bindings[binding_idx].0.clone(), column.column.clone())
}

/// Recognize a conjunct usable as an index probe: a comparison or BETWEEN
/// between one column and numeric constants. Returns the column name plus
/// inclusive probe bounds (strict operators keep inclusive bounds — the
/// full filter is re-applied to fetched rows, so over-fetching by the
/// boundary value is safe).
pub(crate) fn indexable_bounds(conjunct: &Expr) -> Option<(String, Option<f64>, Option<f64>)> {
    let numeric = |e: &Expr| -> Option<f64> {
        match e {
            Expr::Literal(v) => v.as_f64(),
            Expr::Unary { op: UnaryOp::Neg, expr } => Some(-match expr.as_ref() {
                Expr::Literal(v) => v.as_f64()?,
                _ => return None,
            }),
            _ => None,
        }
    };
    match conjunct {
        Expr::Binary { left, op, right } if op.is_comparison() => {
            let (column, value, op) = match (left.as_ref(), right.as_ref()) {
                (Expr::Column(c), rhs) => (c, numeric(rhs)?, *op),
                (lhs, Expr::Column(c)) => {
                    // flip `v < col` into `col > v`, etc.
                    let flipped = match *op {
                        BinaryOp::Lt => BinaryOp::Gt,
                        BinaryOp::LtEq => BinaryOp::GtEq,
                        BinaryOp::Gt => BinaryOp::Lt,
                        BinaryOp::GtEq => BinaryOp::LtEq,
                        other => other,
                    };
                    (c, numeric(lhs)?, flipped)
                }
                _ => return None,
            };
            let bounds = match op {
                BinaryOp::Eq => (Some(value), Some(value)),
                BinaryOp::Gt | BinaryOp::GtEq => (Some(value), None),
                BinaryOp::Lt | BinaryOp::LtEq => (None, Some(value)),
                _ => return None, // NotEq is not probe-able
            };
            Some((column.column.clone(), bounds.0, bounds.1))
        }
        Expr::Between { expr, negated: false, low, high } => {
            let Expr::Column(c) = expr.as_ref() else { return None };
            Some((c.column.clone(), Some(numeric(low)?), Some(numeric(high)?)))
        }
        _ => None,
    }
}

pub(crate) fn count_leaves(expr: &Expr) -> usize {
    count_leaves_raw(expr).max(1)
}

/// Comparison-leaf count without the floor of one — summable across the
/// conjuncts of a filter (the floor applies once to the whole filter).
pub(crate) fn count_leaves_raw(expr: &Expr) -> usize {
    let mut count = 0;
    expr.walk(&mut |e| match e {
        Expr::Binary { op, .. } if op.is_comparison() => count += 1,
        Expr::Between { .. }
        | Expr::InList { .. }
        | Expr::InSubquery { .. }
        | Expr::Like { .. }
        | Expr::IsNull { .. }
        | Expr::Exists { .. } => count += 1,
        _ => {}
    });
    count
}

/// True if the expression contains an aggregate call (not descending into
/// subqueries, which aggregate independently).
pub fn contains_aggregate(expr: &Expr) -> bool {
    let mut found = false;
    expr.walk(&mut |e| {
        if e.is_aggregate() {
            found = true;
        }
    });
    found
}

/// Count aggregate calls in the output clauses of a statement.
pub fn count_aggregates(select: &Select) -> usize {
    let mut count = 0;
    for item in &select.projections {
        item.expr.walk(&mut |e| {
            if e.is_aggregate() {
                count += 1;
            }
        });
    }
    if let Some(having) = &select.having {
        having.walk(&mut |e| {
            if e.is_aggregate() {
                count += 1;
            }
        });
    }
    for order in &select.order_by {
        order.expr.walk(&mut |e| {
            if e.is_aggregate() {
                count += 1;
            }
        });
    }
    count
}

/// Every column reference outside aggregate arguments must be (textually)
/// one of the grouping expressions, or be part of a larger expression that
/// is itself a grouping expression.
fn check_grouped(expr: &Expr, group_keys: &[String]) -> Result<(), DbError> {
    if group_keys.contains(&expr.to_string()) || expr.is_aggregate() {
        return Ok(());
    }
    match expr {
        Expr::Column(c) => Err(DbError::Grouping(format!("\"{c}\""))),
        Expr::Literal(_) | Expr::Placeholder(_) | Expr::Wildcard => Ok(()),
        Expr::Unary { expr, .. } => check_grouped(expr, group_keys),
        Expr::Binary { left, right, .. } => {
            check_grouped(left, group_keys)?;
            check_grouped(right, group_keys)
        }
        Expr::Between { expr, low, high, .. } => {
            check_grouped(expr, group_keys)?;
            check_grouped(low, group_keys)?;
            check_grouped(high, group_keys)
        }
        Expr::InList { expr, list, .. } => {
            check_grouped(expr, group_keys)?;
            for item in list {
                check_grouped(item, group_keys)?;
            }
            Ok(())
        }
        Expr::InSubquery { expr, .. } => check_grouped(expr, group_keys),
        Expr::ScalarSubquery(_) | Expr::Exists { .. } => Ok(()),
        Expr::Like { expr, pattern, .. } => {
            check_grouped(expr, group_keys)?;
            check_grouped(pattern, group_keys)
        }
        Expr::IsNull { expr, .. } => check_grouped(expr, group_keys),
        Expr::Function { args, .. } => {
            for arg in args {
                check_grouped(arg, group_keys)?;
            }
            Ok(())
        }
        Expr::Case { operand, branches, else_branch } => {
            if let Some(op) = operand {
                check_grouped(op, group_keys)?;
            }
            for (when, then) in branches {
                check_grouped(when, group_keys)?;
                check_grouped(then, group_keys)?;
            }
            if let Some(e) = else_branch {
                check_grouped(e, group_keys)?;
            }
            Ok(())
        }
    }
}

/// Greedy left-deep join order: start from the smallest filtered relation,
/// then repeatedly add the connected relation minimizing estimated output
/// (falling back to the smallest unconnected relation).
fn greedy_order(
    scans: &[Option<PlanNode>],
    edges: &[JoinEdge],
    estimator: &Estimator<'_>,
) -> Vec<usize> {
    let rows: Vec<f64> =
        scans.iter().map(|s| s.as_ref().map(|s| s.est_rows).unwrap_or(f64::MAX)).collect();
    let sel_edges: Vec<(usize, usize, f64)> = edges
        .iter()
        .map(|e| {
            (
                e.left_binding,
                e.right_binding,
                estimator.equi_join_selectivity(&e.left_column, &e.right_column),
            )
        })
        .collect();
    greedy_order_core(&rows, &sel_edges)
}

/// Greedy-order replay over pre-resolved scan cardinalities and edge
/// selectivities `(left_binding, right_binding, selectivity)`. Shared
/// with [`crate::prepared`], where the edge selectivities are cached once
/// per template (they depend only on column statistics).
pub(crate) fn greedy_order_core(rows: &[f64], edges: &[(usize, usize, f64)]) -> Vec<usize> {
    let mut order = Vec::with_capacity(rows.len());
    greedy_order_core_into(rows, edges, &mut order);
    order
}

/// Allocation-free variant of [`greedy_order_core`]: writes the join
/// order into a caller-owned buffer (cleared first). Used by the batch
/// recost path, which replays the ordering once per binding row.
pub(crate) fn greedy_order_core_into(
    rows: &[f64],
    edges: &[(usize, usize, f64)],
    order: &mut Vec<usize>,
) {
    let n = rows.len();
    order.clear();
    let start = (0..n).min_by(|&a, &b| rows[a].total_cmp(&rows[b])).expect("at least one relation");
    order.push(start);
    let mut joined: u64 = 1 << start;
    let mut current_rows = rows[start];

    while order.len() < n {
        let mut best: Option<(usize, f64, bool)> = None; // (idx, out_rows, connected)
        for (candidate, &candidate_rows) in rows.iter().enumerate() {
            if joined & (1 << candidate) != 0 {
                continue;
            }
            let mut selectivity = 1.0;
            let mut connected = false;
            for &(left, right, edge_sel) in edges {
                let touches = (joined >> left) & 1 == 1 && right == candidate
                    || (joined >> right) & 1 == 1 && left == candidate;
                if touches {
                    connected = true;
                    selectivity *= edge_sel;
                }
            }
            let out_rows = current_rows * candidate_rows * selectivity;
            let better = match &best {
                None => true,
                Some((_, best_rows, best_connected)) => {
                    // Prefer connected candidates; among equals, fewer rows.
                    (connected && !best_connected)
                        || (connected == *best_connected && out_rows < *best_rows)
                }
            };
            if better {
                best = Some((candidate, out_rows, connected));
            }
        }
        let (next, out_rows, _) = best.expect("remaining relation exists");
        order.push(next);
        joined |= 1 << next;
        current_rows = out_rows;
    }
}
