//! Public query interface of the database.
//!
//! Exposes the three operations SQLBarber needs from its DBMS:
//! [`Database::validate_sql`] (Algorithm 1's `ValidateSyntax`),
//! [`Database::explain`]/[`Database::explain_sql`] (the §5 cost oracle),
//! and [`Database::execute`] (actual-execution cost types and result
//! inspection).

use crate::catalog::Database;
use crate::error::DbError;
use crate::executor;
use crate::explain::Explain;
use crate::planner;
use sqlkit::{parse_select, Select, Value};
use std::time::{Duration, Instant};

/// Microseconds charged per executor work unit when converting
/// [`QueryResult::work_units`] into the `ExecutionTimeMicros` proxy.
pub const WORK_UNIT_MICROS: f64 = 0.1;

/// Result of executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names (aliases where given).
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
    /// Wall-clock execution time (display/diagnostics only — see
    /// [`QueryResult::work_micros`] for the deterministic cost proxy).
    pub elapsed: Duration,
    /// Deterministic work units consumed by the executor: rows scanned,
    /// join pairs considered, records grouped/sorted/projected. A pure
    /// function of the statement and the data, identical on every machine
    /// and run — unlike `elapsed`.
    pub work_units: u64,
}

impl QueryResult {
    /// Number of rows produced — the *actual* cardinality of the query.
    pub fn cardinality(&self) -> usize {
        self.rows.len()
    }

    /// Deterministic execution-time proxy in microseconds:
    /// `work_units × WORK_UNIT_MICROS`. This is what the
    /// `ExecutionTimeMicros` cost type reports, so execution-time targets
    /// are bit-identical across runs, thread counts, and machines.
    pub fn work_micros(&self) -> f64 {
        self.work_units as f64 * WORK_UNIT_MICROS
    }
}

impl Database {
    /// Plan a statement and return the optimizer's estimates (`EXPLAIN`).
    pub fn explain(&self, select: &Select) -> Result<Explain, DbError> {
        planner::plan(self, select).map(Explain::from_plan)
    }

    /// Parse and explain SQL text; errors are server-style strings (for
    /// feedback loops that treat the DBMS as text-in/text-out).
    pub fn explain_sql(&self, sql: &str) -> Result<Explain, String> {
        let select = parse_select(sql).map_err(|e| e.to_string())?;
        self.explain(&select).map_err(|e| e.to_string())
    }

    /// Validate a statement without executing it: parse (done by the
    /// caller), plan, type-check. `Ok(())` means every instantiation of
    /// the statement is executable.
    pub fn validate(&self, select: &Select) -> Result<(), DbError> {
        planner::plan(self, select).map(|_| ())
    }

    /// Validate SQL text, returning the server-style error message on
    /// failure — the exact feedback channel of Algorithm 1 (line 6,
    /// `D.ValidateSyntax`).
    pub fn validate_sql(&self, sql: &str) -> Result<(), String> {
        let select = parse_select(sql).map_err(|e| e.to_string())?;
        self.validate(&select).map_err(|e| e.to_string())
    }

    /// Validate a *template*: placeholders are temporarily bound to
    /// representative values matching the columns they are compared
    /// against (PostgreSQL would similarly be probed with an instantiated
    /// query, since templates themselves are not executable —
    /// Definition 2.1).
    pub fn validate_template(&self, template: &sqlkit::Template) -> Result<(), DbError> {
        let probes = self.representative_bindings(template);
        let grounded = template
            .instantiate(|id| probes.get(&id))
            .map_err(|e| DbError::Unsupported(e.to_string()))?;
        self.validate(&grounded)
    }

    /// Representative probe values for each placeholder: the minimum of
    /// the column it is compared against (so string predicates get string
    /// probes), `0` when no column pairing is recognizable.
    pub fn representative_bindings(
        &self,
        template: &sqlkit::Template,
    ) -> std::collections::HashMap<u32, Value> {
        use sqlkit::{ColumnRef, Expr, Select};

        fn scope_of(select: &Select) -> Vec<(String, String)> {
            select.table_refs().iter().map(|t| (t.binding().to_string(), t.table.clone())).collect()
        }

        fn probe_for(
            db: &Database,
            scope: &[(String, String)],
            column: &ColumnRef,
        ) -> Option<Value> {
            let table = match &column.table {
                Some(binding) => {
                    scope.iter().find(|(b, _)| b == binding).map(|(_, t)| t.clone())?
                }
                None => scope
                    .iter()
                    .find(|(_, t)| {
                        db.schema(t)
                            .map(|s| s.columns.iter().any(|c| c.name == column.column))
                            .unwrap_or(false)
                    })
                    .map(|(_, t)| t.clone())?,
            };
            db.stats(&table).ok()?.columns.get(&column.column)?.min.clone()
        }

        fn collect(
            db: &Database,
            select: &Select,
            out: &mut std::collections::HashMap<u32, Value>,
        ) {
            let scope = scope_of(select);
            select.walk_exprs(&mut |expr| match expr {
                Expr::Binary { left, op, right } if op.is_comparison() => {
                    match (left.as_ref(), right.as_ref()) {
                        (Expr::Column(c), Expr::Placeholder(id))
                        | (Expr::Placeholder(id), Expr::Column(c)) => {
                            if let Some(v) = probe_for(db, &scope, c) {
                                out.entry(*id).or_insert(v);
                            }
                        }
                        _ => {}
                    }
                }
                Expr::Between { expr: operand, low, high, .. } => {
                    if let Expr::Column(c) = operand.as_ref() {
                        for bound in [low.as_ref(), high.as_ref()] {
                            if let Expr::Placeholder(id) = bound {
                                if let Some(v) = probe_for(db, &scope, c) {
                                    out.entry(*id).or_insert(v);
                                }
                            }
                        }
                    }
                }
                _ => {}
            });
            for sub in select.subqueries() {
                collect(db, sub, out);
            }
        }

        let mut probes = std::collections::HashMap::new();
        collect(self, template.select(), &mut probes);
        for id in template.placeholders() {
            probes.entry(id).or_insert(Value::Int(0));
        }
        probes
    }

    /// Execute a statement and materialize its result.
    pub fn execute(&self, select: &Select) -> Result<QueryResult, DbError> {
        // detlint::allow(ambient_nondet): elapsed is display/diagnostics only (EXPLAIN ANALYZE); cost proxies use the deterministic work_units counter instead
        #[allow(clippy::disallowed_methods)]
        let start = Instant::now();
        let (columns, rows, work_units) = executor::execute(self, select)?;
        Ok(QueryResult { columns, rows, elapsed: start.elapsed(), work_units })
    }

    /// Parse and execute SQL text.
    pub fn execute_sql(&self, sql: &str) -> Result<QueryResult, String> {
        let select = parse_select(sql).map_err(|e| e.to_string())?;
        self.execute(&select).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{DataType, Table};

    /// Tiny users/orders database mirroring the paper's running example.
    fn shop_db() -> Database {
        let mut users = Table::new(
            "users",
            vec![("user_id".into(), DataType::Int), ("user_name".into(), DataType::Str)],
        );
        for i in 0..50 {
            users.push_row(vec![Value::Int(i), Value::Str(format!("user{i}"))]);
        }
        let mut orders = Table::new(
            "orders",
            vec![
                ("order_id".into(), DataType::Int),
                ("user_id".into(), DataType::Int),
                ("order_amount".into(), DataType::Float),
            ],
        );
        for i in 0..500 {
            orders.push_row(vec![
                Value::Int(i),
                Value::Int(i % 50),
                Value::Float((i % 100) as f64 * 10.0),
            ]);
        }
        let mut db = Database::new("shop");
        db.add_table(users, Some("user_id"), &[]);
        db.add_table(orders, Some("order_id"), &["user_id"]);
        db.add_foreign_key("orders", "user_id", "users", "user_id");
        db
    }

    #[test]
    fn simple_filter_execution_and_estimate_agree_roughly() {
        let db = shop_db();
        let result =
            db.execute_sql("SELECT * FROM orders WHERE orders.order_amount > 500").unwrap();
        // amounts cycle 0..990 step 10; > 500 → 49 per 100 → 245 rows
        assert_eq!(result.cardinality(), 245);
        let explain =
            db.explain_sql("SELECT * FROM orders WHERE orders.order_amount > 500").unwrap();
        let estimated = explain.estimated_rows;
        assert!((estimated - 245.0).abs() < 30.0, "estimate {estimated} too far from 245");
    }

    #[test]
    fn join_with_aggregation_matches_hand_count() {
        let db = shop_db();
        let result = db
            .execute_sql(
                "SELECT u.user_name, SUM(o.order_amount) FROM users AS u \
                 JOIN orders AS o ON u.user_id = o.user_id \
                 GROUP BY u.user_name",
            )
            .unwrap();
        assert_eq!(result.cardinality(), 50);
        assert_eq!(result.columns[0], "u.user_name");
    }

    #[test]
    fn paper_example_2_8_runs_end_to_end() {
        let db = shop_db();
        let result = db
            .execute_sql(
                "SELECT u.user_name, SUM(o.order_amount) \
                 FROM users AS u JOIN orders AS o ON u.user_id = o.user_id \
                 WHERE u.user_id IN ( \
                     SELECT user_id FROM orders GROUP BY user_id \
                     HAVING COUNT(order_id) > 5 ) \
                 AND o.order_amount >= 100 GROUP BY u.user_name",
            )
            .unwrap();
        // every user has exactly 10 orders, so the IN filter passes all.
        assert_eq!(result.cardinality(), 50);
    }

    #[test]
    fn validation_catches_unknown_relation_and_column() {
        let db = shop_db();
        let err = db.validate_sql("SELECT * FROM ghosts").unwrap_err();
        assert!(err.contains("relation \"ghosts\" does not exist"));
        let err = db.validate_sql("SELECT orders.nope FROM orders").unwrap_err();
        assert!(err.contains("column \"orders.nope\" does not exist"));
    }

    #[test]
    fn validation_catches_type_mismatch_and_grouping_errors() {
        let db = shop_db();
        let err = db.validate_sql("SELECT * FROM users WHERE users.user_name > 5").unwrap_err();
        assert!(err.contains("operator does not exist"));
        let err = db.validate_sql("SELECT user_name, COUNT(*) FROM users").unwrap_err();
        assert!(err.contains("GROUP BY"));
    }

    #[test]
    fn templates_are_rejected_until_instantiated() {
        let db = shop_db();
        let err =
            db.validate_sql("SELECT * FROM orders WHERE orders.order_amount > {p_1}").unwrap_err();
        assert!(err.contains("p_1"));
        let template =
            sqlkit::parse_template("SELECT * FROM orders WHERE orders.order_amount > {p_1}")
                .unwrap();
        assert!(db.validate_template(&template).is_ok());
    }

    #[test]
    fn order_by_limit_distinct() {
        let db = shop_db();
        let result = db
            .execute_sql("SELECT DISTINCT o.user_id FROM orders o ORDER BY o.user_id DESC LIMIT 3")
            .unwrap();
        assert_eq!(
            result.rows,
            vec![vec![Value::Int(49)], vec![Value::Int(48)], vec![Value::Int(47)]]
        );
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let db = shop_db();
        let result = db
            .execute_sql("SELECT COUNT(*), SUM(o.order_amount) FROM orders o WHERE o.order_id < 0")
            .unwrap();
        assert_eq!(result.rows, vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn explain_cost_increases_with_joins() {
        let db = shop_db();
        let single = db.explain_sql("SELECT * FROM orders").unwrap().total_cost;
        let joined = db
            .explain_sql("SELECT * FROM orders o JOIN users u ON o.user_id = u.user_id")
            .unwrap()
            .total_cost;
        assert!(joined > single);
    }

    #[test]
    fn explain_estimated_rows_respond_to_predicates() {
        let db = shop_db();
        let wide = db
            .explain_sql("SELECT * FROM orders o WHERE o.order_amount > 100")
            .unwrap()
            .estimated_rows;
        let narrow = db
            .explain_sql("SELECT * FROM orders o WHERE o.order_amount > 900")
            .unwrap()
            .estimated_rows;
        assert!(wide > narrow * 2.0, "wide={wide} narrow={narrow}");
    }

    #[test]
    fn cross_join_via_comma_list() {
        let db = shop_db();
        let result = db
            .execute_sql("SELECT COUNT(*) FROM users u, orders o WHERE u.user_id = o.user_id")
            .unwrap();
        assert_eq!(result.rows[0][0], Value::Int(500));
    }

    #[test]
    fn scalar_subquery_and_exists() {
        let db = shop_db();
        let result = db
            .execute_sql(
                "SELECT COUNT(*) FROM users u \
                 WHERE u.user_id < (SELECT AVG(o.user_id) FROM orders o) \
                 AND EXISTS (SELECT * FROM orders)",
            )
            .unwrap();
        // AVG(user_id) = 24.5 → users 0..24 → 25
        assert_eq!(result.rows[0][0], Value::Int(25));
    }

    #[test]
    fn duplicate_alias_is_rejected() {
        let db = shop_db();
        let err = db
            .validate_sql("SELECT * FROM orders o JOIN users o ON o.user_id = o.user_id")
            .unwrap_err();
        assert!(err.contains("specified more than once"));
    }
}

#[cfg(test)]
mod index_tests {
    use super::*;
    use crate::plan::NodeKind;
    use crate::storage::{DataType, Table};

    fn indexed_db() -> Database {
        let mut t = Table::new(
            "events",
            vec![
                ("id".into(), DataType::Int),
                ("ts".into(), DataType::Int),
                ("payload".into(), DataType::Str),
            ],
        );
        for i in 0..20_000i64 {
            t.push_row(vec![
                Value::Int(i),
                Value::Int(i * 3 % 50_000),
                Value::Str(format!("p{i}")),
            ]);
        }
        let mut db = Database::new("idx");
        db.add_table(t, Some("id"), &["ts"]);
        db
    }

    fn scan_kind(db: &Database, sql: &str) -> String {
        let q = parse_select(sql).unwrap();
        let explain = db.explain(&q).unwrap();
        fn find_scan(node: &crate::plan::PlanNode) -> Option<String> {
            match &node.kind {
                NodeKind::SeqScan { .. } | NodeKind::IndexScan { .. } => Some(node.label()),
                _ => node.children.iter().find_map(find_scan),
            }
        }
        find_scan(&explain.plan).expect("plan has a scan")
    }

    #[test]
    fn selective_predicates_choose_the_index_path() {
        let db = indexed_db();
        let label = scan_kind(&db, "SELECT * FROM events WHERE events.id = 17");
        assert!(label.starts_with("Index Scan"), "got {label}");
        let label = scan_kind(&db, "SELECT * FROM events WHERE events.ts BETWEEN 5 AND 20");
        assert!(label.starts_with("Index Scan"), "got {label}");
    }

    #[test]
    fn wide_predicates_stay_sequential() {
        let db = indexed_db();
        let label = scan_kind(&db, "SELECT * FROM events WHERE events.id > 5");
        assert!(label.starts_with("Seq Scan"), "got {label}");
        let label = scan_kind(&db, "SELECT * FROM events");
        assert!(label.starts_with("Seq Scan"), "got {label}");
    }

    #[test]
    fn unindexed_columns_never_use_an_index() {
        let db = indexed_db();
        let label = scan_kind(&db, "SELECT * FROM events WHERE events.payload = 'p5'");
        assert!(label.starts_with("Seq Scan"), "got {label}");
    }

    #[test]
    fn index_and_seq_paths_return_identical_results() {
        let db = indexed_db();
        for sql in [
            "SELECT events.id FROM events WHERE events.id BETWEEN 100 AND 140",
            "SELECT events.id FROM events WHERE events.ts = 300",
            "SELECT COUNT(*) FROM events WHERE events.id = 77 OR events.id = 78",
            "SELECT events.id FROM events WHERE events.id > 19990 AND events.ts > 0",
        ] {
            let query = parse_select(sql).unwrap();
            let with_index = db.execute(&query).unwrap();
            // force sequential plans by removing indexes: rebuild a copy
            // of the database without index declarations
            let mut no_index = Database::new("noidx");
            no_index.add_table(db.table("events").unwrap().clone(), None, &[]);
            let seq = no_index.execute(&query).unwrap();
            let mut a = with_index.rows.clone();
            let mut b = seq.rows.clone();
            let key = |r: &Vec<Value>| format!("{r:?}");
            a.sort_by_key(key);
            b.sort_by_key(key);
            assert_eq!(a, b, "result mismatch for {sql}");
        }
    }

    #[test]
    fn index_scan_is_cheaper_than_seq_for_point_lookups() {
        let db = indexed_db();
        let point = db.explain_sql("SELECT * FROM events WHERE events.id = 5").unwrap().total_cost;
        let full = db.explain_sql("SELECT * FROM events").unwrap().total_cost;
        assert!(point * 10.0 < full, "point {point} vs full {full}");
    }

    #[test]
    fn strict_bounds_do_not_leak_boundary_rows() {
        let db = indexed_db();
        // id > 100 must not include id = 100 even though the probe is
        // inclusive (the filter re-applies).
        let result =
            db.execute_sql("SELECT events.id FROM events WHERE events.id > 19998").unwrap();
        assert_eq!(result.rows, vec![vec![Value::Int(19_999)]]);
    }
}

/// Result of `EXPLAIN ANALYZE`: the plan with its estimates plus the
/// actual execution outcome, and the q-error between them.
#[derive(Debug, Clone)]
pub struct ExplainAnalyze {
    /// The optimizer's view.
    pub explain: Explain,
    /// Actual output rows.
    pub actual_rows: usize,
    /// Actual wall-clock execution time.
    pub elapsed: Duration,
}

impl ExplainAnalyze {
    /// Multiplicative estimation error
    /// `max(est/actual, actual/est)` with both sides floored at 1 row.
    pub fn q_error(&self) -> f64 {
        let estimated = self.explain.estimated_rows.max(1.0);
        let actual = (self.actual_rows as f64).max(1.0);
        (estimated / actual).max(actual / estimated)
    }
}

impl std::fmt::Display for ExplainAnalyze {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.explain)?;
        writeln!(
            f,
            "Actual: rows={} time={:.3}ms q-error={:.2}",
            self.actual_rows,
            self.elapsed.as_secs_f64() * 1e3,
            self.q_error()
        )
    }
}

impl Database {
    /// Plan *and* execute a statement, reporting estimates next to
    /// actuals (PostgreSQL's `EXPLAIN ANALYZE`). Useful for auditing the
    /// estimator the whole generation pipeline leans on.
    pub fn explain_analyze(&self, select: &Select) -> Result<ExplainAnalyze, DbError> {
        let explain = self.explain(select)?;
        let result = self.execute(select)?;
        Ok(ExplainAnalyze { explain, actual_rows: result.cardinality(), elapsed: result.elapsed })
    }
}

#[cfg(test)]
mod explain_analyze_tests {
    use super::*;

    #[test]
    fn q_error_is_small_on_simple_filters() {
        let db = crate::datagen::tpch::generate(crate::datagen::tpch::TpchConfig::tiny());
        let q = parse_select("SELECT * FROM lineitem WHERE lineitem.l_quantity > 25").unwrap();
        let analyzed = db.explain_analyze(&q).unwrap();
        assert!(analyzed.q_error() < 1.5, "q-error {}", analyzed.q_error());
        let text = analyzed.to_string();
        assert!(text.contains("Actual: rows="), "{text}");
        assert!(text.contains("q-error="), "{text}");
    }

    #[test]
    fn q_error_handles_empty_results() {
        let db = crate::datagen::tpch::generate(crate::datagen::tpch::TpchConfig::tiny());
        let q = parse_select("SELECT * FROM lineitem WHERE lineitem.l_quantity > 9999").unwrap();
        let analyzed = db.explain_analyze(&q).unwrap();
        assert_eq!(analyzed.actual_rows, 0);
        assert!(analyzed.q_error().is_finite());
    }
}

#[cfg(test)]
mod representative_binding_tests {
    use super::*;

    #[test]
    fn string_placeholders_get_string_probes() {
        let db = crate::datagen::tpch::generate(crate::datagen::tpch::TpchConfig::tiny());
        let template = sqlkit::parse_template(
            "SELECT o.o_orderkey FROM orders AS o \
             WHERE o.o_orderpriority = {p_1} AND o.o_totalprice > {p_2}",
        )
        .unwrap();
        let probes = db.representative_bindings(&template);
        assert!(matches!(probes[&1], Value::Str(_)), "{:?}", probes[&1]);
        assert!(matches!(probes[&2], Value::Float(_)), "{:?}", probes[&2]);
        db.validate_template(&template).unwrap();
    }

    #[test]
    fn probes_reach_placeholders_inside_subqueries() {
        let db = crate::datagen::tpch::generate(crate::datagen::tpch::TpchConfig::tiny());
        let template = sqlkit::parse_template(
            "SELECT c.c_name FROM customer AS c WHERE c.c_custkey IN \
             (SELECT orders.o_custkey FROM orders WHERE orders.o_orderstatus = {p_1})",
        )
        .unwrap();
        let probes = db.representative_bindings(&template);
        assert!(matches!(probes[&1], Value::Str(_)));
        db.validate_template(&template).unwrap();
    }

    #[test]
    fn unpaired_placeholders_fall_back_to_zero() {
        let db = crate::datagen::tpch::generate(crate::datagen::tpch::TpchConfig::tiny());
        let template = sqlkit::parse_template(
            "SELECT * FROM orders WHERE orders.o_totalprice > {p_1} + {p_2}",
        )
        .unwrap();
        let probes = db.representative_bindings(&template);
        assert_eq!(probes[&2], Value::Int(0));
        db.validate_template(&template).unwrap();
    }
}
