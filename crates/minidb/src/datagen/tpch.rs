//! Synthetic TPC-H instance (8 tables).
//!
//! Row counts follow the official SF-1 cardinalities scaled by
//! `scale_factor`; value distributions are simplified but keep the
//! properties predicates exercise: uniform quantities and discounts,
//! heavy-tailed prices, cyclic dates, low-cardinality flag columns, and
//! the full PK/FK graph for join-path enumeration.

use super::{columns, heavy_tail, load, powerlaw_index, synth_name, Loader};
use crate::catalog::Database;
use crate::storage::{Column, Table, TextColumn};
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
/// Each table is drawn row by row into whole typed columns.
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
    let regions = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
    let mut r_name = TextColumn::with_capacity(regions.len());
    for region in regions {
        r_name.push(region);
    }
    let region = Table::from_columns(
        "region",
        vec![("r_regionkey", Column::ints((0..5).collect())), ("r_name", r_name.finish())],
    );
    loader.add_table(region, Some("r_regionkey"), &[]);

    // nation ------------------------------------------------------------
    let mut n_name = TextColumn::with_capacity(25);
    for i in 0..25 {
        n_name.push(&format!("NATION_{i:02}"));
    }
    let nation = Table::from_columns(
        "nation",
        vec![
            ("n_nationkey", Column::ints((0..25).collect())),
            ("n_name", n_name.finish()),
            ("n_regionkey", Column::ints((0..25).map(|i| i % 5).collect())),
        ],
    );
    loader.add_table(nation, Some("n_nationkey"), &["n_regionkey"]);

    // supplier ----------------------------------------------------------
    let [mut s_suppkey, mut s_nationkey] = columns(n_supplier);
    let mut s_name = TextColumn::with_capacity(n_supplier);
    let mut s_acctbal = Vec::with_capacity(n_supplier);
    for i in 0..n_supplier {
        s_suppkey.push(i as i64);
        s_name.push(synth_name(&mut rng, "supplier", &mut name));
        s_nationkey.push(rng.gen_range(0..25));
        s_acctbal.push((rng.gen_range(-99_999..1_000_000) as f64) / 100.0);
    }
    let supplier = Table::from_columns(
        "supplier",
        vec![
            ("s_suppkey", Column::ints(s_suppkey)),
            ("s_name", s_name.finish()),
            ("s_nationkey", Column::ints(s_nationkey)),
            ("s_acctbal", Column::floats(s_acctbal)),
        ],
    );
    loader.add_table(supplier, Some("s_suppkey"), &["s_nationkey"]);

    // customer ----------------------------------------------------------
    let [mut c_custkey, mut c_nationkey] = columns(n_customer);
    let [mut c_name, mut c_mktsegment] = [(); 2].map(|_| TextColumn::with_capacity(n_customer));
    let mut c_acctbal = Vec::with_capacity(n_customer);
    for i in 0..n_customer {
        c_custkey.push(i as i64);
        c_name.push(synth_name(&mut rng, "customer", &mut name));
        c_nationkey.push(rng.gen_range(0..25));
        c_acctbal.push((rng.gen_range(-99_999..1_000_000) as f64) / 100.0);
        c_mktsegment.push(MKT_SEGMENTS[rng.gen_range(0..MKT_SEGMENTS.len())]);
    }
    let customer = Table::from_columns(
        "customer",
        vec![
            ("c_custkey", Column::ints(c_custkey)),
            ("c_name", c_name.finish()),
            ("c_nationkey", Column::ints(c_nationkey)),
            ("c_acctbal", Column::floats(c_acctbal)),
            ("c_mktsegment", c_mktsegment.finish()),
        ],
    );
    loader.add_table(customer, Some("c_custkey"), &["c_nationkey"]);

    // part ----------------------------------------------------------------
    let [mut p_partkey, mut p_size] = columns(n_part);
    let [mut p_name, mut p_brand] = [(); 2].map(|_| TextColumn::with_capacity(n_part));
    let mut p_retailprice = Vec::with_capacity(n_part);
    for i in 0..n_part {
        p_partkey.push(i as i64);
        p_name.push(synth_name(&mut rng, "part", &mut name));
        p_brand.push(BRANDS[rng.gen_range(0..BRANDS.len())]);
        p_size.push(rng.gen_range(1..=50));
        p_retailprice.push(heavy_tail(&mut rng, 1_000.0, 0.4, 20_000.0).round() / 1.0);
    }
    let part = Table::from_columns(
        "part",
        vec![
            ("p_partkey", Column::ints(p_partkey)),
            ("p_name", p_name.finish()),
            ("p_brand", p_brand.finish()),
            ("p_size", Column::ints(p_size)),
            ("p_retailprice", Column::floats(p_retailprice)),
        ],
    );
    loader.add_table(part, Some("p_partkey"), &["p_brand", "p_size"]);

    // partsupp ------------------------------------------------------------
    let [mut ps_partkey, mut ps_suppkey, mut ps_availqty] = columns(n_partsupp);
    let mut ps_supplycost = Vec::with_capacity(n_partsupp);
    for i in 0..n_partsupp {
        ps_partkey.push((i % n_part) as i64);
        ps_suppkey.push(rng.gen_range(0..n_supplier) as i64);
        ps_availqty.push(rng.gen_range(1..10_000));
        ps_supplycost.push((rng.gen_range(100..100_000) as f64) / 100.0);
    }
    let partsupp = Table::from_columns(
        "partsupp",
        vec![
            ("ps_partkey", Column::ints(ps_partkey)),
            ("ps_suppkey", Column::ints(ps_suppkey)),
            ("ps_availqty", Column::ints(ps_availqty)),
            ("ps_supplycost", Column::floats(ps_supplycost)),
        ],
    );
    loader.add_table(partsupp, None, &["ps_partkey", "ps_suppkey"]);

    // orders ---------------------------------------------------------------
    let [mut o_orderkey, mut o_custkey, mut o_orderdate] = columns(n_orders);
    let [mut o_orderstatus, mut o_orderpriority] =
        [(); 2].map(|_| TextColumn::with_capacity(n_orders));
    let mut o_totalprice = Vec::with_capacity(n_orders);
    for i in 0..n_orders {
        // customers have power-law order counts (realistic hot keys).
        let cust = powerlaw_index(&mut rng, n_customer, 0.4);
        o_orderkey.push(i as i64);
        o_custkey.push(cust as i64);
        o_orderstatus.push(ORDER_STATUS[rng.gen_range(0..ORDER_STATUS.len())]);
        o_totalprice.push(heavy_tail(&mut rng, 30_000.0, 0.6, 600_000.0).round());
        o_orderdate.push(rng.gen_range(8_766..11_322)); // 1994-01-01 .. 2000-12-31 in days
        o_orderpriority.push(PRIORITIES[rng.gen_range(0..PRIORITIES.len())]);
    }
    let orders = Table::from_columns(
        "orders",
        vec![
            ("o_orderkey", Column::ints(o_orderkey)),
            ("o_custkey", Column::ints(o_custkey)),
            ("o_orderstatus", o_orderstatus.finish()),
            ("o_totalprice", Column::floats(o_totalprice)),
            ("o_orderdate", Column::ints(o_orderdate)),
            ("o_orderpriority", o_orderpriority.finish()),
        ],
    );
    loader.add_table(orders, Some("o_orderkey"), &["o_custkey", "o_orderdate"]);

    // lineitem ---------------------------------------------------------------
    let [mut l_orderkey, mut l_partkey, mut l_suppkey, mut l_linenumber, mut l_shipdate] =
        columns(n_lineitem);
    let [mut l_quantity, mut l_extendedprice, mut l_discount] = columns(n_lineitem);
    let [mut l_returnflag, mut l_linestatus] =
        [(); 2].map(|_| TextColumn::with_capacity(n_lineitem));
    for i in 0..n_lineitem {
        let order = (i * n_orders / n_lineitem).min(n_orders - 1);
        l_orderkey.push(order as i64);
        l_partkey.push(powerlaw_index(&mut rng, n_part, 0.3) as i64);
        l_suppkey.push(rng.gen_range(0..n_supplier) as i64);
        l_linenumber.push((i % 7) as i64 + 1);
        l_quantity.push(rng.gen_range(1..=50) as f64);
        l_extendedprice.push(heavy_tail(&mut rng, 20_000.0, 0.7, 110_000.0).round());
        l_discount.push((rng.gen_range(0..=10) as f64) / 100.0);
        l_shipdate.push(rng.gen_range(8_766..11_322));
        l_returnflag.push(RETURN_FLAGS[rng.gen_range(0..RETURN_FLAGS.len())]);
        l_linestatus.push(LINE_STATUS[rng.gen_range(0..LINE_STATUS.len())]);
    }
    let lineitem = Table::from_columns(
        "lineitem",
        vec![
            ("l_orderkey", Column::ints(l_orderkey)),
            ("l_partkey", Column::ints(l_partkey)),
            ("l_suppkey", Column::ints(l_suppkey)),
            ("l_linenumber", Column::ints(l_linenumber)),
            ("l_quantity", Column::floats(l_quantity)),
            ("l_extendedprice", Column::floats(l_extendedprice)),
            ("l_discount", Column::floats(l_discount)),
            ("l_shipdate", Column::ints(l_shipdate)),
            ("l_returnflag", l_returnflag.finish()),
            ("l_linestatus", l_linestatus.finish()),
        ],
    );
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
