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
use crate::stats::{analyze_table, TableStats};
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
    /// (`ANALYZE` on load).
    pub fn add_table(&mut self, table: Table, primary_key: Option<&str>, indexes: &[&str]) {
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
        self.stats.insert(table.name.clone(), analyze_table(&table));
        // Materialize B-tree indexes for the primary key and every
        // declared index column (numeric columns only).
        let mut built = Vec::new();
        let mut index_columns: Vec<&str> = indexes.to_vec();
        if let Some(pk) = primary_key {
            if !index_columns.contains(&pk) {
                index_columns.push(pk);
            }
        }
        for column in index_columns {
            if let Some(index) = BtreeIndex::build(&table, column) {
                built.push(index);
            }
        }
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
            assert!(
                schema.columns.iter().any(|col| col.name == c),
                "unknown column {t}.{c}"
            );
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
            out.push_str(&format!(
                "Table {name} ({} rows, ~{size_kb} KB)\n",
                stats.row_count
            ));
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
        assert_eq!(
            db.table("ghosts").unwrap_err(),
            DbError::UnknownTable("ghosts".into())
        );
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
    fn table_names_are_sorted() {
        assert_eq!(sample_db().table_names(), vec!["orders", "users"]);
    }
}
