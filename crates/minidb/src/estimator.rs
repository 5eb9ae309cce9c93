//! Cardinality estimation.
//!
//! Selectivity arithmetic in the PostgreSQL tradition: per-column
//! equi-depth histograms and MCV lists for range/equality predicates,
//! independence across conjuncts, `1/max(nd)` for equi-joins, and the
//! classic default constants where no statistics apply. This estimator is
//! what makes `EXPLAIN`'s estimated cardinality and plan cost respond
//! smoothly to predicate values — the response surface SQLBarber's
//! profiling and BO search operate on.

use crate::catalog::Database;
use crate::error::DbError;
use crate::stats::ColumnStats;
use sqlkit::{BinaryOp, ColumnRef, Expr, Value};
use std::collections::HashMap;

/// PostgreSQL's default selectivity for equality with unknown operands.
pub const DEFAULT_EQ_SEL: f64 = 0.005;
/// PostgreSQL's default selectivity for inequalities with unknown operands.
pub const DEFAULT_INEQ_SEL: f64 = 1.0 / 3.0;
/// Default selectivity for `LIKE` with a leading wildcard.
pub const DEFAULT_LIKE_SEL: f64 = 0.1;
/// Default selectivity for `LIKE` anchored at the start.
pub const DEFAULT_PREFIX_LIKE_SEL: f64 = 0.02;
/// Default selectivity for `IN`/`EXISTS` subqueries.
pub const DEFAULT_SUBQUERY_SEL: f64 = 0.5;

/// Scope in which column references resolve: `(binding, table)` pairs.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    pub bindings: Vec<(String, String)>,
}

impl Scope {
    /// Resolve a column reference to `(binding index, column name)`.
    pub fn resolve(&self, db: &Database, column: &ColumnRef) -> Result<usize, DbError> {
        match &column.table {
            Some(binding) => {
                let idx = self
                    .bindings
                    .iter()
                    .position(|(b, _)| b == binding)
                    .ok_or_else(|| {
                        DbError::UnknownColumn(format!("{binding}.{}", column.column))
                    })?;
                let table = &self.bindings[idx].1;
                let schema = db.schema(table)?;
                if schema.columns.iter().any(|c| c.name == column.column) {
                    Ok(idx)
                } else {
                    Err(DbError::UnknownColumn(format!("{binding}.{}", column.column)))
                }
            }
            None => {
                let mut found = None;
                for (idx, (_, table)) in self.bindings.iter().enumerate() {
                    let schema = db.schema(table)?;
                    if schema.columns.iter().any(|c| c.name == column.column) {
                        if found.is_some() {
                            return Err(DbError::AmbiguousColumn(column.column.clone()));
                        }
                        found = Some(idx);
                    }
                }
                found.ok_or_else(|| DbError::UnknownColumn(column.column.clone()))
            }
        }
    }
}

/// Estimator bound to a database and a binding scope, optionally with
/// pre-planned subquery cardinalities (keyed by printed subquery text).
pub struct Estimator<'a> {
    pub db: &'a Database,
    pub scope: &'a Scope,
    /// Estimated output rows of each uncorrelated subquery in the
    /// statement, planned ahead of time by the planner. PostgreSQL
    /// likewise sizes semijoins from the subquery's estimated cardinality
    /// instead of a flat default.
    pub subquery_rows: HashMap<String, f64>,
}

impl<'a> Estimator<'a> {
    pub fn new(db: &'a Database, scope: &'a Scope) -> Self {
        Estimator { db, scope, subquery_rows: HashMap::new() }
    }

    /// Attach pre-planned subquery cardinalities.
    pub fn with_subquery_rows(mut self, rows: HashMap<String, f64>) -> Self {
        self.subquery_rows = rows;
        self
    }

    /// Column statistics for a resolvable column reference.
    pub fn column_stats(&self, column: &ColumnRef) -> Option<&'a ColumnStats> {
        let idx = self.scope.resolve(self.db, column).ok()?;
        let table = &self.scope.bindings[idx].1;
        self.db.stats(table).ok()?.columns.get(&column.column)
    }

    /// Selectivity of a boolean expression in `[0, 1]`.
    pub fn selectivity(&self, expr: &Expr) -> f64 {
        let s = self.selectivity_inner(expr);
        s.clamp(0.0, 1.0)
    }

    fn selectivity_inner(&self, expr: &Expr) -> f64 {
        match expr {
            Expr::Binary { left, op: BinaryOp::And, right } => {
                self.selectivity(left) * self.selectivity(right)
            }
            Expr::Binary { left, op: BinaryOp::Or, right } => {
                let a = self.selectivity(left);
                let b = self.selectivity(right);
                a + b - a * b
            }
            Expr::Unary { op: sqlkit::UnaryOp::Not, expr } => 1.0 - self.selectivity(expr),
            Expr::Binary { left, op, right } if op.is_comparison() => {
                self.comparison_selectivity(left, *op, right)
            }
            Expr::Between { expr, negated, low, high } => {
                let stats = self.leaf_column(expr).and_then(|c| self.column_stats(&c));
                let bound = |e: &Expr| Self::constant_of(e).and_then(|v| v.as_f64());
                let sel = column_range_selectivity(stats, bound(low), bound(high));
                if *negated {
                    1.0 - sel
                } else {
                    sel
                }
            }
            Expr::InList { expr, negated, list } => {
                let sel = match self.leaf_column(expr).and_then(|c| self.column_stats(&c)) {
                    Some(stats) if stats.n_distinct > 0.0 => {
                        (list.len() as f64 / stats.n_distinct).min(1.0)
                    }
                    _ => (list.len() as f64 * DEFAULT_EQ_SEL).min(1.0),
                };
                if *negated {
                    1.0 - sel
                } else {
                    sel
                }
            }
            Expr::InSubquery { expr, negated, subquery } => {
                // Semijoin selectivity ≈ |distinct subquery keys| / nd(lhs).
                let lhs_nd = self
                    .leaf_column(expr)
                    .and_then(|c| self.column_stats(&c))
                    .map(|s| s.n_distinct.max(1.0));
                let rows = self.subquery_rows.get(&subquery.to_string()).copied();
                in_subquery_selectivity(rows, lhs_nd, *negated)
            }
            Expr::Exists { negated, subquery } => {
                // An uncorrelated EXISTS is all-or-nothing; the smooth
                // min(1, rows) keeps the estimate continuous in the
                // subquery's predicates.
                let sel = match self.subquery_rows.get(&subquery.to_string()) {
                    Some(&rows) => rows.clamp(0.0, 1.0),
                    None => DEFAULT_SUBQUERY_SEL,
                };
                if *negated {
                    1.0 - sel
                } else {
                    sel
                }
            }
            Expr::Like { expr, negated, pattern } => {
                let sel = match (&**expr, &**pattern) {
                    (_, Expr::Literal(Value::Str(p))) => {
                        if p.starts_with('%') {
                            DEFAULT_LIKE_SEL
                        } else {
                            DEFAULT_PREFIX_LIKE_SEL
                        }
                    }
                    _ => DEFAULT_LIKE_SEL,
                };
                let _ = self.leaf_column(expr);
                if *negated {
                    1.0 - sel
                } else {
                    sel
                }
            }
            Expr::IsNull { expr, negated } => {
                let null_frac = self
                    .leaf_column(expr)
                    .and_then(|c| self.column_stats(&c))
                    .map(|s| s.null_frac)
                    .unwrap_or(0.01);
                if *negated {
                    1.0 - null_frac
                } else {
                    null_frac
                }
            }
            Expr::Literal(Value::Bool(b)) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            // Anything else (bare boolean column, CASE, …): be neutral.
            _ => DEFAULT_INEQ_SEL,
        }
    }

    /// Selectivity of `left op right` where op is a comparison.
    fn comparison_selectivity(&self, left: &Expr, op: BinaryOp, right: &Expr) -> f64 {
        // Normalize to column-op-constant when possible.
        let (column, constant, op) = match (self.leaf_column(left), self.leaf_column(right)) {
            (Some(lc), Some(rc)) => {
                // column-to-column comparison
                return match op {
                    BinaryOp::Eq => {
                        let nd_l = self
                            .column_stats(&lc)
                            .map(|s| s.n_distinct)
                            .unwrap_or(0.0)
                            .max(1.0);
                        let nd_r = self
                            .column_stats(&rc)
                            .map(|s| s.n_distinct)
                            .unwrap_or(0.0)
                            .max(1.0);
                        1.0 / nd_l.max(nd_r)
                    }
                    BinaryOp::NotEq => 1.0 - DEFAULT_EQ_SEL,
                    _ => DEFAULT_INEQ_SEL,
                };
            }
            (Some(c), None) => match Self::constant_of(right) {
                Some(v) => (c, v, op),
                None => return default_for(op),
            },
            (None, Some(c)) => match Self::constant_of(left) {
                Some(v) => (c, v, flip(op)),
                None => return default_for(op),
            },
            (None, None) => return default_for(op),
        };

        column_op_constant_selectivity(self.column_stats(&column), op, &constant)
    }

    /// Join selectivity of `left.column = right.column` (equi-join):
    /// `1 / max(nd_left, nd_right)`.
    pub fn equi_join_selectivity(&self, left: &ColumnRef, right: &ColumnRef) -> f64 {
        let nd_l = self.column_stats(left).map(|s| s.n_distinct).unwrap_or(0.0).max(1.0);
        let nd_r = self.column_stats(right).map(|s| s.n_distinct).unwrap_or(0.0).max(1.0);
        1.0 / nd_l.max(nd_r)
    }

    /// Estimated distinct-group count for a set of grouping expressions.
    ///
    /// The joint domain size `D` is the product of per-column distinct
    /// counts; the expected number of *observed* groups among `n` input
    /// rows follows the coupon-collector form `D·(1 − (1 − 1/D)^n)` —
    /// ≈ `n` when rows are scarce, saturating at `D` — which keeps the
    /// estimate smooth in the input cardinality (the property the BO
    /// search exploits).
    pub fn group_count(&self, group_exprs: &[Expr], input_rows: f64) -> f64 {
        let nds: Vec<Option<f64>> =
            group_exprs.iter().map(|e| self.group_nd(e)).collect();
        group_count_from_nds(&nds, input_rows)
    }

    /// Distinct count contributed by one grouping expression, when its
    /// leaf column has statistics. `None` falls back to `sqrt(input_rows)`
    /// inside [`group_count_from_nds`] — the only input-dependent part, so
    /// a prepared plan can cache these and replay per binding.
    pub(crate) fn group_nd(&self, expr: &Expr) -> Option<f64> {
        self.leaf_column(expr)
            .and_then(|c| self.column_stats(&c))
            .map(|s| s.n_distinct.max(1.0))
    }

    /// If the expression is a plain column reference (possibly negated or
    /// inside a cast-like unary), return that reference.
    fn leaf_column(&self, expr: &Expr) -> Option<ColumnRef> {
        match expr {
            Expr::Column(c) => Some(c.clone()),
            Expr::Unary { expr, .. } => self.leaf_column(expr),
            _ => None,
        }
    }

    /// Fold an expression into a constant if it is literal-only (handles
    /// negated literals; anything with columns returns `None`).
    fn constant_of(expr: &Expr) -> Option<Value> {
        match expr {
            Expr::Literal(v) => Some(v.clone()),
            Expr::Unary { op: sqlkit::UnaryOp::Neg, expr } => {
                match Self::constant_of(expr)? {
                    Value::Int(v) => Some(Value::Int(-v)),
                    Value::Float(v) => Some(Value::Float(-v)),
                    _ => None,
                }
            }
            Expr::Binary { left, op, right } if op.is_arithmetic() => {
                let a = Self::constant_of(left)?.as_f64()?;
                let b = Self::constant_of(right)?.as_f64()?;
                let v = match op {
                    BinaryOp::Add => a + b,
                    BinaryOp::Sub => a - b,
                    BinaryOp::Mul => a * b,
                    BinaryOp::Div => {
                        if b == 0.0 {
                            return None;
                        }
                        a / b
                    }
                    BinaryOp::Mod => {
                        if b == 0.0 {
                            return None;
                        }
                        a % b
                    }
                    _ => unreachable!(),
                };
                Some(Value::Float(v))
            }
            _ => None,
        }
    }
}

/// Group-count roll-up over per-expression distinct counts (see
/// [`Estimator::group_count`] for the model). `None` entries use the
/// `sqrt(input_rows)` fallback, which must be evaluated per input
/// cardinality — never cached.
pub(crate) fn group_count_from_nds(nds: &[Option<f64>], input_rows: f64) -> f64 {
    if nds.is_empty() {
        return 1.0;
    }
    let mut domain = 1.0f64;
    for nd in nds {
        let nd = nd.unwrap_or_else(|| (input_rows.max(1.0)).sqrt());
        domain = (domain * nd).min(1e15);
    }
    let n = input_rows.max(0.0);
    if domain <= 1.0 {
        return 1.0;
    }
    // D(1-(1-1/D)^n) computed stably via exp/ln for large D.
    let expected = domain * (1.0 - ((1.0 - 1.0 / domain).ln() * n).exp());
    expected.clamp(1.0, domain.min(n.max(1.0)))
}

/// Orientation flip for constant-op-column comparisons. Shared with the
/// batch paths, which normalize `{placeholder} op column` shapes at
/// prepare time.
pub(crate) fn flip(op: BinaryOp) -> BinaryOp {
    use BinaryOp::*;
    match op {
        Lt => Gt,
        LtEq => GtEq,
        Gt => Lt,
        GtEq => LtEq,
        other => other,
    }
}

/// Default comparison selectivity when operands or statistics are
/// unavailable.
fn default_for(op: BinaryOp) -> f64 {
    if op == BinaryOp::Eq {
        DEFAULT_EQ_SEL
    } else if op == BinaryOp::NotEq {
        1.0 - DEFAULT_EQ_SEL
    } else {
        DEFAULT_INEQ_SEL
    }
}

/// Selectivity of `column op constant` (op a comparison) from the
/// column's statistics, or the default for `op` without them. The one
/// implementation behind [`Estimator::selectivity`]'s comparison arm and
/// the batch paths' per-row comparison columns.
pub(crate) fn column_op_constant_selectivity(
    stats: Option<&ColumnStats>,
    op: BinaryOp,
    constant: &Value,
) -> f64 {
    let Some(stats) = stats else {
        return default_for(op);
    };
    match op {
        BinaryOp::Eq => equality_selectivity(stats, constant),
        BinaryOp::NotEq => 1.0 - equality_selectivity(stats, constant),
        BinaryOp::Lt | BinaryOp::LtEq => {
            match constant.as_f64().and_then(|v| stats.fraction_below(v)) {
                Some(f) => {
                    let eq_bump = if op == BinaryOp::LtEq {
                        equality_selectivity(stats, constant)
                    } else {
                        0.0
                    };
                    ((1.0 - stats.null_frac) * f + eq_bump).min(1.0)
                }
                None => DEFAULT_INEQ_SEL,
            }
        }
        BinaryOp::Gt | BinaryOp::GtEq => {
            match constant.as_f64().and_then(|v| stats.fraction_below(v)) {
                Some(f) => {
                    let eq_bump = if op == BinaryOp::GtEq {
                        equality_selectivity(stats, constant)
                    } else {
                        0.0
                    };
                    ((1.0 - stats.null_frac) * (1.0 - f) + eq_bump).min(1.0)
                }
                None => DEFAULT_INEQ_SEL,
            }
        }
        _ => DEFAULT_INEQ_SEL,
    }
}

/// Selectivity of `column BETWEEN lo AND hi` from the column's
/// statistics; `None` bounds are non-numeric. Shared like
/// [`column_op_constant_selectivity`].
pub(crate) fn column_range_selectivity(
    stats: Option<&ColumnStats>,
    lo: Option<f64>,
    hi: Option<f64>,
) -> f64 {
    let Some(stats) = stats else {
        return DEFAULT_INEQ_SEL * DEFAULT_INEQ_SEL;
    };
    match (lo, hi) {
        (Some(lo), Some(hi)) if hi >= lo => {
            let f_lo = stats.fraction_below(lo).unwrap_or(0.0);
            let f_hi = stats.fraction_below(hi).unwrap_or(1.0);
            ((1.0 - stats.null_frac) * (f_hi - f_lo)).max(0.0)
        }
        (Some(_), Some(_)) => 0.0, // inverted range is empty
        _ => DEFAULT_INEQ_SEL * DEFAULT_INEQ_SEL,
    }
}

/// Semijoin selectivity of `lhs [NOT] IN (subquery)`: `|subquery rows| /
/// nd(lhs)` capped at 1, or the classic default when the subquery was
/// not pre-planned (`rows` is `None`) or the LHS has no statistics
/// (`lhs_nd` is `None`). Shared with [`crate::prepared`]'s batch path,
/// which reads `rows` from a per-row subquery column.
pub(crate) fn in_subquery_selectivity(
    rows: Option<f64>,
    lhs_nd: Option<f64>,
    negated: bool,
) -> f64 {
    let sel = match (rows, lhs_nd) {
        (Some(rows), Some(nd)) => (rows / nd).clamp(0.0, 1.0),
        // Without LHS statistics (e.g. an arithmetic LHS) the ratio is
        // meaningless — use the classic default.
        _ => DEFAULT_SUBQUERY_SEL,
    };
    if negated {
        1.0 - sel
    } else {
        sel
    }
}

/// Equality selectivity: exact MCV frequency when the constant is a most
/// common value, otherwise the remaining mass spread over remaining
/// distinct values.
fn equality_selectivity(stats: &ColumnStats, constant: &Value) -> f64 {
    if stats.n_distinct <= 0.0 {
        return DEFAULT_EQ_SEL;
    }
    for (value, frequency) in &stats.mcvs {
        if value.total_cmp(constant) == std::cmp::Ordering::Equal {
            return *frequency;
        }
    }
    let mcv_mass: f64 = stats.mcvs.iter().map(|(_, f)| f).sum();
    let remaining_distinct = (stats.n_distinct - stats.mcvs.len() as f64).max(1.0);
    ((1.0 - stats.null_frac - mcv_mass) / remaining_distinct).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{DataType, Table};
    use sqlkit::parse_select;

    fn db_with_uniform_column() -> Database {
        let mut t = Table::new("t", vec![("x".into(), DataType::Int)]);
        for i in 0..10_000 {
            t.push_row(vec![Value::Int(i % 1000)]);
        }
        let mut db = Database::new("test");
        db.add_table(t, None, &[]);
        db
    }

    fn sel(db: &Database, where_sql: &str) -> f64 {
        let select = parse_select(&format!("SELECT * FROM t WHERE {where_sql}")).unwrap();
        let scope = Scope { bindings: vec![("t".into(), "t".into())] };
        Estimator::new(db, &scope).selectivity(select.where_clause.as_ref().unwrap())
    }

    #[test]
    fn range_selectivity_tracks_histogram() {
        let db = db_with_uniform_column();
        let s = sel(&db, "x < 250");
        assert!((s - 0.25).abs() < 0.03, "got {s}");
        let s = sel(&db, "x > 750");
        assert!((s - 0.25).abs() < 0.03, "got {s}");
        let s = sel(&db, "x BETWEEN 100 AND 300");
        assert!((s - 0.2).abs() < 0.03, "got {s}");
    }

    #[test]
    fn selectivity_is_monotone_in_threshold() {
        let db = db_with_uniform_column();
        let mut last = 0.0;
        for threshold in [100, 300, 500, 700, 900] {
            let s = sel(&db, &format!("x < {threshold}"));
            assert!(s >= last, "not monotone at {threshold}");
            last = s;
        }
    }

    #[test]
    fn equality_uses_distinct_count() {
        let db = db_with_uniform_column();
        let s = sel(&db, "x = 123");
        // each value appears 10/10000 times; 123 is an MCV candidate but all
        // tie at freq 10; either MCV hit (0.001) or uniform estimate works.
        assert!(s > 0.0005 && s < 0.002, "got {s}");
    }

    #[test]
    fn conjunction_multiplies_disjunction_unions() {
        let db = db_with_uniform_column();
        let a = sel(&db, "x < 500");
        let both = sel(&db, "x < 500 AND x < 500");
        assert!((both - a * a).abs() < 1e-9);
        let either = sel(&db, "x < 500 OR x < 500");
        assert!((either - (2.0 * a - a * a)).abs() < 1e-9);
    }

    #[test]
    fn negation_complements() {
        let db = db_with_uniform_column();
        let s = sel(&db, "NOT x < 250");
        assert!((s - 0.75).abs() < 0.05, "got {s}");
    }

    #[test]
    fn flipped_constant_comparison() {
        let db = db_with_uniform_column();
        let a = sel(&db, "x < 250");
        let b = sel(&db, "250 > x");
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_constants_saturate() {
        let db = db_with_uniform_column();
        assert_eq!(sel(&db, "x < -5"), 0.0);
        assert_eq!(sel(&db, "x > 99999"), 0.0);
        assert_eq!(sel(&db, "x < 99999"), 1.0);
    }

    #[test]
    fn in_list_scales_with_list_size() {
        let db = db_with_uniform_column();
        let one = sel(&db, "x IN (1)");
        let five = sel(&db, "x IN (1,2,3,4,5)");
        assert!((five / one - 5.0).abs() < 0.01);
    }

    #[test]
    fn subquery_defaults() {
        let db = db_with_uniform_column();
        assert_eq!(sel(&db, "x IN (SELECT x FROM t)"), DEFAULT_SUBQUERY_SEL);
        assert_eq!(
            sel(&db, "EXISTS (SELECT x FROM t)"),
            DEFAULT_SUBQUERY_SEL
        );
    }

    #[test]
    fn group_count_follows_the_coupon_collector_curve() {
        let db = db_with_uniform_column();
        let scope = Scope { bindings: vec![("t".into(), "t".into())] };
        let est = Estimator::new(&db, &scope);
        let col = [Expr::Column(ColumnRef::qualified("t", "x"))];
        // Saturation: with 10k rows over 1000 distinct values, nearly
        // every group is observed.
        let saturated = est.group_count(&col, 10_000.0);
        assert!(saturated > 990.0 && saturated <= 1000.0, "got {saturated}");
        // Scarce rows: expected groups ≈ rows (each row likely a new group).
        let scarce = est.group_count(&col, 50.0);
        assert!(scarce > 45.0 && scarce <= 50.0, "got {scarce}");
        // Smoothness: strictly increasing in the input cardinality.
        let mut last = 0.0;
        for n in [100.0, 300.0, 600.0, 1_000.0, 2_000.0] {
            let g = est.group_count(&col, n);
            assert!(g > last, "not increasing at {n}: {g} <= {last}");
            last = g;
        }
        assert_eq!(est.group_count(&[], 10_000.0), 1.0);
    }

    #[test]
    fn scope_resolution_errors() {
        let db = db_with_uniform_column();
        let scope = Scope { bindings: vec![("t".into(), "t".into())] };
        assert!(scope.resolve(&db, &ColumnRef::qualified("t", "x")).is_ok());
        assert!(matches!(
            scope.resolve(&db, &ColumnRef::qualified("t", "nope")),
            Err(DbError::UnknownColumn(_))
        ));
        assert!(matches!(
            scope.resolve(&db, &ColumnRef::qualified("u", "x")),
            Err(DbError::UnknownColumn(_))
        ));
        assert!(scope.resolve(&db, &ColumnRef::bare("x")).is_ok());
    }
}
