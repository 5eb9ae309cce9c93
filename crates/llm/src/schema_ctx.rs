//! Schema context parsed from the prompt's `### SCHEMA` section.
//!
//! The synthetic model reads the same textual schema summary a real model
//! would (produced by `minidb`'s `Database::schema_summary`): table names
//! and row counts, column names/types/distinct counts, PK/index tags, and
//! foreign-key edges. Everything the synthesizer knows about the database
//! comes from here, keeping the LLM abstraction honest.

/// One column of a summarized table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnInfo {
    pub name: String,
    /// SQL type name as printed (`bigint`, `double precision`, `text`,
    /// `boolean`).
    pub sql_type: String,
    pub n_distinct: u64,
    pub is_pk: bool,
    pub indexed: bool,
}

impl ColumnInfo {
    /// True for numeric SQL types.
    pub fn is_numeric(&self) -> bool {
        self.sql_type == "bigint" || self.sql_type == "double precision"
    }

    /// True for text columns.
    pub fn is_text(&self) -> bool {
        self.sql_type == "text"
    }
}

/// One summarized table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableInfo {
    pub name: String,
    pub rows: u64,
    pub columns: Vec<ColumnInfo>,
}

impl TableInfo {
    /// Numeric non-PK columns, best predicate targets first (higher
    /// distinct count = finer selectivity control).
    pub fn predicate_columns(&self) -> Vec<&ColumnInfo> {
        let mut cols: Vec<&ColumnInfo> = self
            .columns
            .iter()
            .filter(|c| c.is_numeric() && !c.is_pk && c.n_distinct > 1)
            .collect();
        cols.sort_by_key(|c| std::cmp::Reverse(c.n_distinct));
        cols
    }

    /// Low-cardinality columns, best `GROUP BY` keys first.
    pub fn grouping_columns(&self) -> Vec<&ColumnInfo> {
        let mut cols: Vec<&ColumnInfo> =
            self.columns.iter().filter(|c| c.n_distinct > 1 && !c.is_pk).collect();
        cols.sort_by_key(|a| a.n_distinct);
        cols
    }
}

/// Parsed schema context.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SchemaContext {
    pub database: String,
    pub tables: Vec<TableInfo>,
    /// `(table, column, ref_table, ref_column)` edges.
    pub foreign_keys: Vec<(String, String, String, String)>,
}

impl SchemaContext {
    /// Parse the textual schema summary.
    pub fn parse(summary: &str) -> SchemaContext {
        let mut context = SchemaContext::default();
        let mut in_fks = false;
        for line in summary.lines() {
            if let Some(rest) = line.strip_prefix("Database: ") {
                context.database = rest.trim().to_string();
            } else if let Some(rest) = line.strip_prefix("Table ") {
                in_fks = false;
                // `name (N rows, ~K KB)`
                let name = rest.split_whitespace().next().unwrap_or("").to_string();
                let rows = rest
                    .split('(')
                    .nth(1)
                    .and_then(|s| s.split_whitespace().next())
                    .and_then(|s| s.parse().ok())
                    // detlint::allow(silent_swallow): parses the library's own schema summary (prompt side); a row count is cosmetic context, not an LLM response
                    .unwrap_or(0);
                context.tables.push(TableInfo { name, rows, columns: Vec::new() });
            } else if line.starts_with("Foreign keys:") {
                in_fks = true;
            } else if in_fks {
                // `  t.c -> rt.rc`
                if let Some((lhs, rhs)) = line.trim().split_once("->") {
                    if let (Some((t, c)), Some((rt, rc))) =
                        (lhs.trim().split_once('.'), rhs.trim().split_once('.'))
                    {
                        context.foreign_keys.push((
                            t.trim().to_string(),
                            c.trim().to_string(),
                            rt.trim().to_string(),
                            rc.trim().to_string(),
                        ));
                    }
                }
            } else if line.starts_with("  ") {
                // `  name type (n_distinct=N) [tags]`
                let Some(table) = context.tables.last_mut() else { continue };
                let trimmed = line.trim();
                let mut parts = trimmed.splitn(2, ' ');
                let Some(name) = parts.next() else { continue };
                let rest = parts.next().unwrap_or("");
                let sql_type = rest.split('(').next().unwrap_or("").trim().to_string();
                let n_distinct = rest
                    .split("n_distinct=")
                    .nth(1)
                    .and_then(|s| s.split(')').next())
                    .and_then(|s| s.parse().ok())
                    // detlint::allow(silent_swallow): parses the library's own schema summary (prompt side); n_distinct is cosmetic context, not an LLM response
                    .unwrap_or(0);
                table.columns.push(ColumnInfo {
                    name: name.to_string(),
                    sql_type,
                    n_distinct,
                    is_pk: rest.contains("PK"),
                    indexed: rest.contains("indexed"),
                });
            }
        }
        context
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Option<&TableInfo> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// Foreign-key edges incident to `table` (either direction).
    pub fn edges_of(&self, table: &str) -> Vec<&(String, String, String, String)> {
        self.foreign_keys.iter().filter(|(t, _, rt, _)| t == table || rt == table).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUMMARY: &str = concat!(
        "Database: shop\n",
        "Table orders (500 rows, ~12 KB)\n",
        "  order_id bigint (n_distinct=500) [PK]\n",
        "  user_id bigint (n_distinct=50) [indexed]\n",
        "  order_amount double precision (n_distinct=100)\n",
        "  note text (n_distinct=3)\n",
        "Table users (50 rows, ~1 KB)\n",
        "  user_id bigint (n_distinct=50) [PK]\n",
        "  user_name text (n_distinct=50)\n",
        "Foreign keys:\n",
        "  orders.user_id -> users.user_id\n",
    );

    #[test]
    fn parses_tables_columns_and_fks() {
        let ctx = SchemaContext::parse(SUMMARY);
        assert_eq!(ctx.database, "shop");
        assert_eq!(ctx.tables.len(), 2);
        let orders = ctx.table("orders").unwrap();
        assert_eq!(orders.rows, 500);
        assert_eq!(orders.columns.len(), 4);
        assert!(orders.columns[0].is_pk);
        assert!(orders.columns[1].indexed);
        assert_eq!(orders.columns[2].sql_type, "double precision");
        assert_eq!(ctx.foreign_keys.len(), 1);
        assert_eq!(ctx.foreign_keys[0].0, "orders");
        assert_eq!(ctx.foreign_keys[0].2, "users");
    }

    #[test]
    fn predicate_columns_prefer_high_cardinality_numerics() {
        let ctx = SchemaContext::parse(SUMMARY);
        let orders = ctx.table("orders").unwrap();
        let preds = orders.predicate_columns();
        assert_eq!(preds[0].name, "order_amount");
        assert_eq!(preds[1].name, "user_id");
        // PK and text excluded
        assert_eq!(preds.len(), 2);
    }

    #[test]
    fn grouping_columns_prefer_low_cardinality() {
        let ctx = SchemaContext::parse(SUMMARY);
        let orders = ctx.table("orders").unwrap();
        let groups = orders.grouping_columns();
        assert_eq!(groups[0].name, "note");
    }

    #[test]
    fn edges_of_finds_both_directions() {
        let ctx = SchemaContext::parse(SUMMARY);
        assert_eq!(ctx.edges_of("orders").len(), 1);
        assert_eq!(ctx.edges_of("users").len(), 1);
        assert!(ctx.edges_of("ghosts").is_empty());
    }

    #[test]
    fn round_trips_a_real_minidb_summary() {
        let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
        let ctx = SchemaContext::parse(&db.schema_summary());
        assert_eq!(ctx.tables.len(), 8);
        assert_eq!(ctx.foreign_keys.len(), 9);
        let lineitem = ctx.table("lineitem").unwrap();
        assert_eq!(lineitem.rows, 6000);
        assert!(!lineitem.predicate_columns().is_empty());
    }
}
