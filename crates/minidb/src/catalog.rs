//! Database catalog: tables, constraints, indexes, statistics.
//!
//! Besides storing data, the catalog provides the two pieces of context
//! SQLBarber's template generator extracts in §4 Step 1:
//! * a textual **schema summary** (table sizes, tuple counts, column types,
//!   distinct counts, key/index metadata) for LLM prompts, and
//! * the **foreign-key graph** from which join paths are enumerated
//!   (§4 Step 2).

use crate::cost::CostModel;
use crate::error::DbError;
use crate::index::BtreeIndex;
use crate::stats::{analyze_column, int_stats, ColumnStats, TableStats};
use crate::storage::{DataType, Table};
use std::collections::BTreeMap;

/// A column definition in the schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub data_type: DataType,
}

/// Schema-level metadata for one table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<ColumnDef>,
    /// Primary-key column, if any (single-column keys only — all paper
    /// schemas use surrogate keys).
    pub primary_key: Option<String>,
    /// Columns backed by a secondary index.
    pub indexes: Vec<String>,
}

/// A foreign-key edge: `table.column → ref_table.ref_column`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ForeignKey {
    pub table: String,
    pub column: String,
    pub ref_table: String,
    pub ref_column: String,
}

/// An in-memory database: data + schema metadata + statistics + cost model.
#[derive(Debug, Clone)]
pub struct Database {
    name: String,
    tables: BTreeMap<String, Table>,
    schemas: BTreeMap<String, TableSchema>,
    foreign_keys: Vec<ForeignKey>,
    stats: BTreeMap<String, TableStats>,
    indexes: BTreeMap<String, Vec<BtreeIndex>>,
    cost_model: CostModel,
}

impl Database {
    /// New empty database.
    pub fn new(name: impl Into<String>) -> Database {
        Database {
            name: name.into(),
            tables: BTreeMap::new(),
            schemas: BTreeMap::new(),
            foreign_keys: Vec::new(),
            stats: BTreeMap::new(),
            indexes: BTreeMap::new(),
            cost_model: CostModel::default(),
        }
    }

    /// Database name (e.g. `tpch`, `imdb`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The active cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Replace the cost model (used by calibration tests).
    pub fn set_cost_model(&mut self, model: CostModel) {
        self.cost_model = model;
    }

    /// Register a loaded table. Statistics are computed immediately
    /// (`ANALYZE` on load), and B-tree indexes are materialized for the
    /// primary key and every declared index column (numeric columns only).
    pub fn add_table(&mut self, table: Table, primary_key: Option<&str>, indexes: &[&str]) {
        let loaded = indexed_columns(&table, primary_key, indexes)
            .into_iter()
            .enumerate()
            .map(|(at, indexed)| Self::load_column(&table, at, indexed))
            .collect();
        self.insert_loaded(table, primary_key, indexes, loaded);
    }

    /// The load-time work on column `at` of `table`: its index when
    /// `indexed` and the column is numeric, and its statistics. An index
    /// built by counting sort hands its sorted keys to ANALYZE, so each
    /// indexed small-range `Int` column is sorted once. Depends on the
    /// table alone, so columns may be loaded on any thread in any order.
    pub(crate) fn load_column(
        table: &Table,
        at: usize,
        indexed: bool,
    ) -> (Option<BtreeIndex>, ColumnStats) {
        let row_count = table.row_count();
        match indexed.then(|| BtreeIndex::build_sharing_keys(table, at)).flatten() {
            Some((index, Some(keys))) => (Some(index), int_stats(row_count, &keys)),
            built => (built.map(|(index, _)| index), analyze_column(&table.columns[at], row_count)),
        }
    }

    /// Register `table` from the [`Database::load_column`] results of
    /// each of its columns, in column order. The indexes are kept in the
    /// order `add_table` builds them: the declared `indexes`, then the
    /// primary key unless it is listed; a name listed twice gets a second,
    /// equal index.
    pub(crate) fn insert_loaded(
        &mut self,
        table: Table,
        primary_key: Option<&str>,
        indexes: &[&str],
        loaded: Vec<(Option<BtreeIndex>, ColumnStats)>,
    ) {
        assert_eq!(loaded.len(), table.columns.len(), "one load per column");
        let schema = TableSchema {
            name: table.name.clone(),
            columns: table
                .column_names
                .iter()
                .zip(&table.columns)
                .map(|(name, col)| ColumnDef { name: name.clone(), data_type: col.data_type() })
                .collect(),
            primary_key: primary_key.map(str::to_string),
            indexes: indexes.iter().map(|s| s.to_string()).collect(),
        };
        let mut columns = BTreeMap::new();
        let mut column_indexes = Vec::with_capacity(loaded.len());
        for (name, (index, stats)) in table.column_names.iter().zip(loaded) {
            columns.insert(name.clone(), stats);
            column_indexes.push(index);
        }
        let mut built: Vec<BtreeIndex> = Vec::new();
        let unlisted_key = primary_key.filter(|pk| !indexes.contains(pk));
        for &column in indexes.iter().chain(&unlisted_key) {
            let Some(at) = table.column_index(column) else { continue };
            let index = column_indexes[at].take();
            let index = index.or_else(|| built.iter().find(|i| i.column == column).cloned());
            built.extend(index);
        }
        let stats = TableStats { row_count: table.row_count(), columns };
        self.stats.insert(table.name.clone(), stats);
        self.indexes.insert(table.name.clone(), built);
        self.schemas.insert(table.name.clone(), schema);
        self.tables.insert(table.name.clone(), table);
    }

    /// Declare a foreign-key edge. Both endpoints must exist.
    ///
    /// # Panics
    /// Panics if either endpoint table/column is unknown — schema
    /// construction is generator-driven, so this is a programming error.
    pub fn add_foreign_key(
        &mut self,
        table: &str,
        column: &str,
        ref_table: &str,
        ref_column: &str,
    ) {
        for (t, c) in [(table, column), (ref_table, ref_column)] {
            let schema = self.schemas.get(t).unwrap_or_else(|| panic!("unknown table {t}"));
            assert!(schema.columns.iter().any(|col| col.name == c), "unknown column {t}.{c}");
        }
        self.foreign_keys.push(ForeignKey {
            table: table.into(),
            column: column.into(),
            ref_table: ref_table.into(),
            ref_column: ref_column.into(),
        });
    }

    /// Look up a table's data.
    pub fn table(&self, name: &str) -> Result<&Table, DbError> {
        self.tables.get(name).ok_or_else(|| DbError::UnknownTable(name.into()))
    }

    /// Look up a table's schema.
    pub fn schema(&self, name: &str) -> Result<&TableSchema, DbError> {
        self.schemas.get(name).ok_or_else(|| DbError::UnknownTable(name.into()))
    }

    /// Look up a table's statistics.
    pub fn stats(&self, name: &str) -> Result<&TableStats, DbError> {
        self.stats.get(name).ok_or_else(|| DbError::UnknownTable(name.into()))
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// All declared foreign-key edges.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// The materialized B-tree index on `table.column`, if one exists.
    pub fn index_on(&self, table: &str, column: &str) -> Option<&BtreeIndex> {
        self.indexes.get(table)?.iter().find(|i| i.column == column)
    }

    /// Textual schema summary for LLM prompts (§4 Step 1): table-level
    /// (name, tuple count, size), column-level (name, type, distinct
    /// count), constraint-level (PK/FK/index) metadata.
    pub fn schema_summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("Database: {}\n", self.name));
        for (name, schema) in &self.schemas {
            let stats = &self.stats[name];
            let table = &self.tables[name];
            let size_kb = (stats.row_count * table.row_width()) / 1024;
            out.push_str(&format!("Table {name} ({} rows, ~{size_kb} KB)\n", stats.row_count));
            for col in &schema.columns {
                let col_stats = &stats.columns[&col.name];
                let mut tags = Vec::new();
                if schema.primary_key.as_deref() == Some(col.name.as_str()) {
                    tags.push("PK".to_string());
                }
                if schema.indexes.iter().any(|i| i == &col.name) {
                    tags.push("indexed".to_string());
                }
                let tag_text =
                    if tags.is_empty() { String::new() } else { format!(" [{}]", tags.join(", ")) };
                out.push_str(&format!(
                    "  {} {} (n_distinct={}){}\n",
                    col.name,
                    col.data_type.sql_name(),
                    col_stats.n_distinct as u64,
                    tag_text
                ));
            }
        }
        if !self.foreign_keys.is_empty() {
            out.push_str("Foreign keys:\n");
            for fk in &self.foreign_keys {
                out.push_str(&format!(
                    "  {}.{} -> {}.{}\n",
                    fk.table, fk.column, fk.ref_table, fk.ref_column
                ));
            }
        }
        out
    }
}

/// Per column of `table`, whether `add_table` indexes it: the primary key
/// and each declared index name mark the first column of that name.
pub(crate) fn indexed_columns(
    table: &Table,
    primary_key: Option<&str>,
    indexes: &[&str],
) -> Vec<bool> {
    let mut indexed = vec![false; table.columns.len()];
    for name in primary_key.iter().chain(indexes) {
        if let Some(at) = table.column_index(name) {
            indexed[at] = true;
        }
    }
    indexed
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkit::Value;

    fn sample_db() -> Database {
        let mut users = Table::new(
            "users",
            vec![("user_id".into(), DataType::Int), ("user_name".into(), DataType::Str)],
        );
        users.push_row(vec![Value::Int(1), Value::Str("ada".into())]);
        users.push_row(vec![Value::Int(2), Value::Str("bob".into())]);
        let mut orders = Table::new(
            "orders",
            vec![
                ("order_id".into(), DataType::Int),
                ("user_id".into(), DataType::Int),
                ("order_amount".into(), DataType::Float),
            ],
        );
        orders.push_row(vec![Value::Int(10), Value::Int(1), Value::Float(99.5)]);
        let mut db = Database::new("shop");
        db.add_table(users, Some("user_id"), &[]);
        db.add_table(orders, Some("order_id"), &["user_id"]);
        db.add_foreign_key("orders", "user_id", "users", "user_id");
        db
    }

    #[test]
    fn lookup_and_errors() {
        let db = sample_db();
        assert!(db.table("users").is_ok());
        assert_eq!(db.table("ghosts").unwrap_err(), DbError::UnknownTable("ghosts".into()));
        assert_eq!(db.stats("orders").unwrap().row_count, 1);
    }

    #[test]
    fn schema_summary_mentions_everything_the_prompt_needs() {
        let summary = sample_db().schema_summary();
        assert!(summary.contains("Table users (2 rows"));
        assert!(summary.contains("user_id bigint"));
        assert!(summary.contains("[PK]"));
        assert!(summary.contains("indexed"));
        assert!(summary.contains("orders.user_id -> users.user_id"));
    }

    #[test]
    #[should_panic(expected = "unknown column")]
    fn bad_foreign_key_panics() {
        let mut db = sample_db();
        db.add_foreign_key("orders", "nope", "users", "user_id");
    }

    #[test]
    fn indexes_follow_the_declared_order_then_the_primary_key() {
        let mut t = Table::new(
            "t",
            vec![
                ("id".into(), DataType::Int),
                ("v".into(), DataType::Int),
                ("w".into(), DataType::Float),
                ("s".into(), DataType::Str),
            ],
        );
        for i in 0..4 {
            t.push_row([Value::Int(i), Value::Int(i % 2), Value::Float(0.5), Value::Null]);
        }
        let order = |primary_key, indexes: &[&str]| {
            let mut db = Database::new("d");
            db.add_table(t.clone(), primary_key, indexes);
            assert_eq!(db.stats["t"], crate::stats::analyze_table(&t));
            db.indexes["t"].iter().map(|i| i.column.clone()).collect::<Vec<_>>()
        };
        // `Str` and unknown columns get no index; a repeated name gets two.
        assert_eq!(order(Some("id"), &["w", "v", "s", "w", "missing"]), ["w", "v", "w", "id"]);
        assert_eq!(order(Some("v"), &["w", "v"]), ["w", "v"]);
        assert_eq!(order(Some("s"), &[]), Vec::<String>::new());
        assert_eq!(order(None, &["v"]), ["v"]);
    }

    #[test]
    fn table_names_are_sorted() {
        assert_eq!(sample_db().table_names(), vec!["orders", "users"]);
    }
}
