//! Synthetic TPC-H instance (8 tables).
//!
//! Row counts follow the official SF-1 cardinalities scaled by
//! `scale_factor`; value distributions are simplified but keep the
//! properties predicates exercise: uniform quantities and discounts,
//! heavy-tailed prices, cyclic dates, low-cardinality flag columns, and
//! the full PK/FK graph for join-path enumeration.

use super::{heavy_tail, load, powerlaw_index, synth_name, Loader};
use crate::catalog::Database;
use crate::storage::{Cell, DataType, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpchConfig {
    /// Fraction of the official SF-1 row counts (the paper uses SF 10 on a
    /// server; the repository default targets a laptop).
    pub scale_factor: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        // lineitem = 60k rows: large enough for meaningful statistics and
        // cost spread, small enough for sub-second full scans.
        TpchConfig { scale_factor: 0.01, seed: 42 }
    }
}

impl TpchConfig {
    /// Minimal instance for unit tests and doctests (lineitem = 6k rows).
    pub fn tiny() -> Self {
        TpchConfig { scale_factor: 0.001, seed: 42 }
    }
}

const MKT_SEGMENTS: [&str; 5] = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"];
const ORDER_STATUS: [&str; 3] = ["F", "O", "P"];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const RETURN_FLAGS: [&str; 3] = ["A", "N", "R"];
const LINE_STATUS: [&str; 2] = ["F", "O"];
const BRANDS: [&str; 25] = [
    "Brand#11", "Brand#12", "Brand#13", "Brand#14", "Brand#15", "Brand#21", "Brand#22", "Brand#23",
    "Brand#24", "Brand#25", "Brand#31", "Brand#32", "Brand#33", "Brand#34", "Brand#35", "Brand#41",
    "Brand#42", "Brand#43", "Brand#44", "Brand#45", "Brand#51", "Brand#52", "Brand#53", "Brand#54",
    "Brand#55",
];

fn scaled(base: usize, sf: f64) -> usize {
    ((base as f64 * sf) as usize).max(10)
}

/// Generate a TPC-H database.
pub fn generate(config: TpchConfig) -> Database {
    let mut db = load("tpch", |loader| generate_tables(config, loader));

    // Foreign keys --------------------------------------------------------
    db.add_foreign_key("nation", "n_regionkey", "region", "r_regionkey");
    db.add_foreign_key("supplier", "s_nationkey", "nation", "n_nationkey");
    db.add_foreign_key("customer", "c_nationkey", "nation", "n_nationkey");
    db.add_foreign_key("partsupp", "ps_partkey", "part", "p_partkey");
    db.add_foreign_key("partsupp", "ps_suppkey", "supplier", "s_suppkey");
    db.add_foreign_key("orders", "o_custkey", "customer", "c_custkey");
    db.add_foreign_key("lineitem", "l_orderkey", "orders", "o_orderkey");
    db.add_foreign_key("lineitem", "l_partkey", "part", "p_partkey");
    db.add_foreign_key("lineitem", "l_suppkey", "supplier", "s_suppkey");

    db
}

/// Draw the eight tables from one RNG stream, handing each to `loader`.
fn generate_tables(config: TpchConfig, loader: &mut Loader<'_>) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let sf = config.scale_factor;

    let n_supplier = scaled(10_000, sf);
    let n_customer = scaled(150_000, sf);
    let n_part = scaled(200_000, sf);
    let n_partsupp = n_part * 4;
    let n_orders = scaled(1_500_000, sf);
    let n_lineitem = scaled(6_000_000, sf);
    // The synthetic name of the row being drawn.
    let mut name = String::new();

    // region ------------------------------------------------------------
    let mut region = Table::new(
        "region",
        vec![("r_regionkey".into(), DataType::Int), ("r_name".into(), DataType::Str)],
    );
    for (i, r_name) in ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"].iter().enumerate() {
        region.push_row([Cell::Int(i as i64), Cell::Str(r_name)]);
    }
    loader.add_table(region, Some("r_regionkey"), &[]);

    // nation ------------------------------------------------------------
    let mut nation = Table::new(
        "nation",
        vec![
            ("n_nationkey".into(), DataType::Int),
            ("n_name".into(), DataType::Str),
            ("n_regionkey".into(), DataType::Int),
        ],
    );
    for i in 0..25 {
        nation.push_row([Cell::Int(i), Cell::Str(&format!("NATION_{i:02}")), Cell::Int(i % 5)]);
    }
    loader.add_table(nation, Some("n_nationkey"), &["n_regionkey"]);

    // supplier ----------------------------------------------------------
    let mut supplier = Table::new(
        "supplier",
        vec![
            ("s_suppkey".into(), DataType::Int),
            ("s_name".into(), DataType::Str),
            ("s_nationkey".into(), DataType::Int),
            ("s_acctbal".into(), DataType::Float),
        ],
    );
    for i in 0..n_supplier {
        supplier.push_row([
            Cell::Int(i as i64),
            Cell::Str(synth_name(&mut rng, "supplier", &mut name)),
            Cell::Int(rng.gen_range(0..25)),
            Cell::Float((rng.gen_range(-99_999..1_000_000) as f64) / 100.0),
        ]);
    }
    loader.add_table(supplier, Some("s_suppkey"), &["s_nationkey"]);

    // customer ----------------------------------------------------------
    let mut customer = Table::new(
        "customer",
        vec![
            ("c_custkey".into(), DataType::Int),
            ("c_name".into(), DataType::Str),
            ("c_nationkey".into(), DataType::Int),
            ("c_acctbal".into(), DataType::Float),
            ("c_mktsegment".into(), DataType::Str),
        ],
    );
    for i in 0..n_customer {
        customer.push_row([
            Cell::Int(i as i64),
            Cell::Str(synth_name(&mut rng, "customer", &mut name)),
            Cell::Int(rng.gen_range(0..25)),
            Cell::Float((rng.gen_range(-99_999..1_000_000) as f64) / 100.0),
            Cell::Str(MKT_SEGMENTS[rng.gen_range(0..MKT_SEGMENTS.len())]),
        ]);
    }
    loader.add_table(customer, Some("c_custkey"), &["c_nationkey"]);

    // part ----------------------------------------------------------------
    let mut part = Table::new(
        "part",
        vec![
            ("p_partkey".into(), DataType::Int),
            ("p_name".into(), DataType::Str),
            ("p_brand".into(), DataType::Str),
            ("p_size".into(), DataType::Int),
            ("p_retailprice".into(), DataType::Float),
        ],
    );
    for i in 0..n_part {
        part.push_row([
            Cell::Int(i as i64),
            Cell::Str(synth_name(&mut rng, "part", &mut name)),
            Cell::Str(BRANDS[rng.gen_range(0..BRANDS.len())]),
            Cell::Int(rng.gen_range(1..=50)),
            Cell::Float(heavy_tail(&mut rng, 1_000.0, 0.4, 20_000.0).round() / 1.0),
        ]);
    }
    loader.add_table(part, Some("p_partkey"), &["p_brand", "p_size"]);

    // partsupp ------------------------------------------------------------
    let mut partsupp = Table::new(
        "partsupp",
        vec![
            ("ps_partkey".into(), DataType::Int),
            ("ps_suppkey".into(), DataType::Int),
            ("ps_availqty".into(), DataType::Int),
            ("ps_supplycost".into(), DataType::Float),
        ],
    );
    for i in 0..n_partsupp {
        partsupp.push_row([
            Cell::Int((i % n_part) as i64),
            Cell::Int(rng.gen_range(0..n_supplier) as i64),
            Cell::Int(rng.gen_range(1..10_000)),
            Cell::Float((rng.gen_range(100..100_000) as f64) / 100.0),
        ]);
    }
    loader.add_table(partsupp, None, &["ps_partkey", "ps_suppkey"]);

    // orders ---------------------------------------------------------------
    let mut orders = Table::new(
        "orders",
        vec![
            ("o_orderkey".into(), DataType::Int),
            ("o_custkey".into(), DataType::Int),
            ("o_orderstatus".into(), DataType::Str),
            ("o_totalprice".into(), DataType::Float),
            ("o_orderdate".into(), DataType::Int),
            ("o_orderpriority".into(), DataType::Str),
        ],
    );
    for i in 0..n_orders {
        // customers have power-law order counts (realistic hot keys).
        let cust = powerlaw_index(&mut rng, n_customer, 0.4);
        orders.push_row([
            Cell::Int(i as i64),
            Cell::Int(cust as i64),
            Cell::Str(ORDER_STATUS[rng.gen_range(0..ORDER_STATUS.len())]),
            Cell::Float(heavy_tail(&mut rng, 30_000.0, 0.6, 600_000.0).round()),
            Cell::Int(rng.gen_range(8_766..11_322)), // 1994-01-01 .. 2000-12-31 in days
            Cell::Str(PRIORITIES[rng.gen_range(0..PRIORITIES.len())]),
        ]);
    }
    loader.add_table(orders, Some("o_orderkey"), &["o_custkey", "o_orderdate"]);

    // lineitem ---------------------------------------------------------------
    let mut lineitem = Table::new(
        "lineitem",
        vec![
            ("l_orderkey".into(), DataType::Int),
            ("l_partkey".into(), DataType::Int),
            ("l_suppkey".into(), DataType::Int),
            ("l_linenumber".into(), DataType::Int),
            ("l_quantity".into(), DataType::Float),
            ("l_extendedprice".into(), DataType::Float),
            ("l_discount".into(), DataType::Float),
            ("l_shipdate".into(), DataType::Int),
            ("l_returnflag".into(), DataType::Str),
            ("l_linestatus".into(), DataType::Str),
        ],
    );
    for i in 0..n_lineitem {
        let order = (i * n_orders / n_lineitem).min(n_orders - 1);
        lineitem.push_row([
            Cell::Int(order as i64),
            Cell::Int(powerlaw_index(&mut rng, n_part, 0.3) as i64),
            Cell::Int(rng.gen_range(0..n_supplier) as i64),
            Cell::Int((i % 7) as i64 + 1),
            Cell::Float(rng.gen_range(1..=50) as f64),
            Cell::Float(heavy_tail(&mut rng, 20_000.0, 0.7, 110_000.0).round()),
            Cell::Float((rng.gen_range(0..=10) as f64) / 100.0),
            Cell::Int(rng.gen_range(8_766..11_322)),
            Cell::Str(RETURN_FLAGS[rng.gen_range(0..RETURN_FLAGS.len())]),
            Cell::Str(LINE_STATUS[rng.gen_range(0..LINE_STATUS.len())]),
        ]);
    }
    loader.add_table(lineitem, None, &["l_orderkey", "l_partkey", "l_shipdate"]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkit::Value;

    #[test]
    fn has_all_eight_tables_with_scaled_counts() {
        let db = generate(TpchConfig::tiny());
        assert_eq!(db.table_names().len(), 8);
        assert_eq!(db.stats("region").unwrap().row_count, 5);
        assert_eq!(db.stats("nation").unwrap().row_count, 25);
        assert_eq!(db.stats("lineitem").unwrap().row_count, 6_000);
        assert_eq!(db.stats("orders").unwrap().row_count, 1_500);
    }

    #[test]
    fn foreign_keys_cover_the_join_graph() {
        let db = generate(TpchConfig::tiny());
        assert_eq!(db.foreign_keys().len(), 9);
    }

    #[test]
    fn fk_values_reference_existing_keys() {
        let db = generate(TpchConfig::tiny());
        let result = db
            .execute_sql(
                "SELECT COUNT(*) FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey",
            )
            .unwrap();
        assert_eq!(result.rows[0][0], Value::Int(1_500));
    }

    #[test]
    fn predicates_slice_the_data_plausibly() {
        let db = generate(TpchConfig::tiny());
        let all = db.execute_sql("SELECT COUNT(*) FROM lineitem").unwrap();
        let half =
            db.execute_sql("SELECT COUNT(*) FROM lineitem WHERE lineitem.l_quantity > 25").unwrap();
        let (Value::Int(total), Value::Int(filtered)) = (&all.rows[0][0], &half.rows[0][0]) else {
            panic!()
        };
        let fraction = *filtered as f64 / *total as f64;
        assert!((fraction - 0.5).abs() < 0.05, "fraction {fraction}");
    }

    #[test]
    fn explain_works_on_a_three_way_join() {
        let db = generate(TpchConfig::tiny());
        let explain = db
            .explain_sql(
                "SELECT c.c_name, SUM(l.l_extendedprice) \
                 FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey \
                 JOIN lineitem l ON o.o_orderkey = l.l_orderkey \
                 WHERE o.o_totalprice > 50000 GROUP BY c.c_name",
            )
            .unwrap();
        assert!(explain.total_cost > 0.0);
        assert!(explain.plan.scan_count() == 3);
    }
}
