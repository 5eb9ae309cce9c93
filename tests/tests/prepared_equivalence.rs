//! Property test for the prepared-plan fast path: over randomly varied
//! templates and randomly drawn binding batches,
//! `PreparedTemplate::recost_batch` must return for every row exactly —
//! bit for bit — the cardinality and plan cost the from-scratch planner
//! (`Database::explain`) computes for the rendered statement. This is
//! the contract the cost oracle's binding-key memo rests on.

use minidb::{BindingBatch, Database, PreparedTemplate, RecostScratch};
use proptest::prelude::*;
use sqlbarber::cost::query_cost;
use sqlbarber::oracle::{ColumnarScratch, CostOracle};
use sqlbarber::CostType;
use sqlkit::{parse_template, Value};
use std::collections::HashSet;
use std::sync::OnceLock;

fn db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| {
        minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny())
    })
}

/// A template skeleton. `{EXTRA}` marks where randomly generated extra
/// conjuncts are spliced in; `kinds` lists the base placeholders as
/// `(id, is_int)`; `extras` is the per-skeleton menu of columns random
/// conjuncts may reference.
struct Skeleton {
    sql: &'static str,
    kinds: &'static [(u32, bool)],
    extras: &'static [(&'static str, bool)],
}

const SKELETONS: &[Skeleton] = &[
    Skeleton {
        sql: "SELECT l.l_orderkey FROM lineitem AS l \
              WHERE l.l_extendedprice > {p_1}{EXTRA}",
        kinds: &[(1, false)],
        extras: &[
            ("l.l_quantity", false),
            ("l.l_discount", false),
            ("l.l_shipdate", true),
            ("l.l_partkey", true),
        ],
    },
    Skeleton {
        sql: "SELECT l.l_orderkey FROM lineitem AS l \
              WHERE l.l_quantity > {p_1} AND l.l_extendedprice < {p_2}{EXTRA}",
        kinds: &[(1, false), (2, false)],
        extras: &[("l.l_discount", false), ("l.l_suppkey", true)],
    },
    // Equality on the primary key: the index-probe decision is
    // binding-dependent and must be re-made per recost.
    Skeleton {
        sql: "SELECT o.o_orderkey FROM orders AS o \
              WHERE o.o_orderkey = {p_1}{EXTRA}",
        kinds: &[(1, true)],
        extras: &[("o.o_totalprice", false), ("o.o_orderdate", true)],
    },
    // Join + aggregation + ORDER BY + LIMIT.
    Skeleton {
        sql: "SELECT o.o_orderkey, SUM(l.l_extendedprice) \
              FROM orders AS o, lineitem AS l \
              WHERE o.o_orderkey = l.l_orderkey \
              AND l.l_extendedprice > {p_1}{EXTRA} \
              GROUP BY o.o_orderkey ORDER BY o.o_orderkey LIMIT 25",
        kinds: &[(1, false)],
        extras: &[("o.o_totalprice", false), ("l.l_quantity", false)],
    },
    // Placeholder both outside and inside an IN-subquery.
    Skeleton {
        sql: "SELECT c.c_custkey FROM customer AS c \
              WHERE c.c_acctbal > {p_1} AND c.c_custkey IN \
              (SELECT o.o_custkey FROM orders AS o WHERE o.o_totalprice > {p_2})\
              {EXTRA}",
        kinds: &[(1, false), (2, false)],
        extras: &[("c.c_nationkey", true)],
    },
    Skeleton {
        sql: "SELECT c.c_custkey FROM customer AS c \
              WHERE c.c_custkey NOT IN \
              (SELECT o.o_custkey FROM orders AS o WHERE o.o_totalprice > {p_1}){EXTRA}",
        kinds: &[(1, false)],
        extras: &[("c.c_acctbal", false)],
    },
    // Placeholder inside EXISTS (a generic shape, estimated per row with
    // that row's rendered subquery text).
    Skeleton {
        sql: "SELECT c.c_custkey FROM customer AS c \
              WHERE c.c_acctbal > {p_1} AND EXISTS \
              (SELECT o.o_orderkey FROM orders AS o WHERE o.o_totalprice > {p_2}){EXTRA}",
        kinds: &[(1, false), (2, false)],
        extras: &[("c.c_nationkey", true)],
    },
    Skeleton {
        sql: "SELECT c.c_custkey FROM customer AS c \
              WHERE (c.c_custkey IN \
              (SELECT o.o_custkey FROM orders AS o WHERE o.o_totalprice > {p_1}) \
              OR c.c_acctbal < {p_2}){EXTRA}",
        kinds: &[(1, false), (2, false)],
        extras: &[("c.c_nationkey", true)],
    },
    // Two dynamic subqueries around a fixed one: pins the order in which
    // subquery costs accumulate.
    Skeleton {
        sql: "SELECT c.c_custkey FROM customer AS c \
              WHERE c.c_custkey IN \
              (SELECT o.o_custkey FROM orders AS o WHERE o.o_totalprice > {p_1}) \
              AND c.c_nationkey IN \
              (SELECT n.n_nationkey FROM nation AS n WHERE n.n_regionkey < 3) \
              AND c.c_custkey IN \
              (SELECT o2.o_custkey FROM orders AS o2 WHERE o2.o_orderkey < {p_2}){EXTRA}",
        kinds: &[(1, false), (2, true)],
        extras: &[("c.c_acctbal", false)],
    },
    // A dynamic subquery nested in a dynamic one.
    Skeleton {
        sql: "SELECT c.c_custkey FROM customer AS c \
              WHERE c.c_custkey IN \
              (SELECT o.o_custkey FROM orders AS o WHERE o.o_totalprice > {p_1} \
               AND o.o_orderkey IN \
               (SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_quantity < {p_2})){EXTRA}",
        kinds: &[(1, false), (2, false)],
        extras: &[("c.c_acctbal", false)],
    },
];

const OPS: &[&str] = &[">", "<", ">=", "<="];

/// Splice `n_extras` random conjuncts into a skeleton and collect the
/// full `(placeholder id, is_int)` list. Extra placeholders start at 10
/// so they never collide with the base ids.
fn build_template(
    skeleton: &Skeleton,
    picks: &[(usize, usize)],
) -> (String, Vec<(u32, bool)>) {
    let mut kinds: Vec<(u32, bool)> = skeleton.kinds.to_vec();
    let mut extra = String::new();
    for (i, &(column_idx, op_idx)) in picks.iter().enumerate() {
        let (column, is_int) = skeleton.extras[column_idx % skeleton.extras.len()];
        let id = 10 + i as u32;
        extra.push_str(&format!(" AND {column} {} {{p_{id}}}", OPS[op_idx % OPS.len()]));
        kinds.push((id, is_int));
    }
    (skeleton.sql.replace("{EXTRA}", &extra), kinds)
}

/// One binding row per drawn row (typed per placeholder), plus a copy
/// of the first row at the end when `duplicate_first` is set — in-batch
/// duplicates must produce identical (deduplicable) outputs, not merely
/// close ones.
fn binding_rows(
    kinds: &[(u32, bool)],
    rows_raw: &[Vec<f64>],
    duplicate_first: bool,
) -> BindingBatch {
    let mut batch = BindingBatch::new(kinds.iter().map(|&(id, _)| id).collect());
    let mut row = Vec::with_capacity(kinds.len());
    for raw in rows_raw.iter().chain(duplicate_first.then(|| &rows_raw[0])) {
        row.clear();
        row.extend(kinds.iter().zip(raw).map(|(&(id, is_int), &x)| {
            (id, if is_int { Value::Int(x as i64) } else { Value::Float(x) })
        }));
        row.sort_by_key(|&(id, _)| id);
        batch.push_row(&row).expect("all ids bound");
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// For arbitrary templates and binding batches of 1–6 rows (plus an
    /// optional in-batch duplicate), every row's `(rows, cost)` equals
    /// the planner's on the instantiated statement, bit for bit.
    #[test]
    fn recost_is_bit_identical_to_from_scratch_planning(
        skeleton_idx in 0usize..SKELETONS.len(),
        picks in prop::collection::vec((0usize..8, 0usize..OPS.len()), 0..3),
        rows_raw in prop::collection::vec(
            prop::collection::vec(-1_000.0f64..50_000.0, 8..9),
            1..7,
        ),
        duplicate_first in any::<bool>(),
    ) {
        let db = db();
        let (sql, kinds) = build_template(&SKELETONS[skeleton_idx], &picks);
        let template = parse_template(&sql).expect("skeleton SQL parses");
        let prepared =
            PreparedTemplate::prepare(db, &template).expect("skeleton plans");

        let batch = binding_rows(&kinds, &rows_raw, duplicate_first);
        let mut scratch = RecostScratch::new();
        let batched = prepared
            .recost_batch(db, &batch, &mut scratch)
            .expect("batch recost succeeds");

        prop_assert_eq!(batched.len(), batch.len());
        for (row, &(rows_est, cost)) in batched.iter().enumerate() {
            let query = template.instantiate(batch.row(row)).expect("all ids bound");
            let explain = db.explain(&query).expect("planner handles the statement");
            prop_assert_eq!(
                rows_est.to_bits(),
                explain.estimated_rows.to_bits(),
                "cardinality diverged: {} vs {} for {}",
                rows_est, explain.estimated_rows, query
            );
            prop_assert_eq!(
                cost.to_bits(),
                explain.total_cost.to_bits(),
                "plan cost diverged: {} vs {} for {}",
                cost, explain.total_cost, query
            );
        }
    }

    /// Rows of one batch are independent: recosting a batch of 1–6 rows
    /// (plus an optional in-batch duplicate) returns bit for bit what
    /// recosting each row alone, as a batch of one, returns — with one
    /// scratch reused across all the calls.
    #[test]
    fn recost_batch_is_bit_identical_to_per_row_recost(
        skeleton_idx in 0usize..SKELETONS.len(),
        picks in prop::collection::vec((0usize..8, 0usize..OPS.len()), 0..3),
        rows_raw in prop::collection::vec(
            prop::collection::vec(-1_000.0f64..50_000.0, 8..9),
            1..7,
        ),
        duplicate_first in any::<bool>(),
    ) {
        let db = db();
        let (sql, kinds) = build_template(&SKELETONS[skeleton_idx], &picks);
        let template = parse_template(&sql).expect("skeleton SQL parses");
        let prepared =
            PreparedTemplate::prepare(db, &template).expect("skeleton plans");
        let batch = binding_rows(&kinds, &rows_raw, duplicate_first);
        let mut scratch = RecostScratch::new();
        let batched = prepared
            .recost_batch(db, &batch, &mut scratch)
            .expect("batch recost succeeds")
            .to_vec();

        prop_assert_eq!(batched.len(), batch.len());
        for (row, &(batch_rows, batch_cost)) in batched.iter().enumerate() {
            let mut single = BindingBatch::new(batch.ids().to_vec());
            single.push_row_from(&batch, row).expect("same ids");
            let alone = prepared
                .recost_batch(db, &single, &mut scratch)
                .expect("single-row recost succeeds");
            prop_assert_eq!(alone.len(), 1);
            prop_assert_eq!(batch_rows.to_bits(), alone[0].0.to_bits());
            prop_assert_eq!(batch_cost.to_bits(), alone[0].1.to_bits());
        }
        if duplicate_first {
            let first = batched[0];
            let last = batched[batched.len() - 1];
            prop_assert_eq!(first.0.to_bits(), last.0.to_bits());
            prop_assert_eq!(first.1.to_bits(), last.1.to_bits());
        }
    }

    /// Oracle-level contract: the oracle's entry point
    /// (`cost_prepared_batch_columnar_on`: shard-bulk locking + columnar
    /// recost) returns, probe by probe, the same bits as planning each
    /// rendered statement from scratch, for batches whose binding keys
    /// span multiple memo shards — with one logical probe per binding and
    /// one physical evaluation per distinct binding.
    #[test]
    fn oracle_columnar_batch_matches_per_probe_batch(
        skeleton_idx in 0usize..SKELETONS.len(),
        rows_raw in prop::collection::vec(
            prop::collection::vec(-1_000.0f64..50_000.0, 8..9),
            1..9,
        ),
        threads in prop::sample::select(vec![1usize, 2, 8]),
    ) {
        let db = db();
        let (sql, kinds) = build_template(&SKELETONS[skeleton_idx], &[]);
        let template = parse_template(&sql).expect("skeleton SQL parses");

        // Duplicate the first row to force an in-batch memo-hit dedup.
        let batch = binding_rows(&kinds, &rows_raw, true);

        let oracle = CostOracle::new(db, threads);
        let handle = oracle.prepare(&template).expect("prepare");
        let mut scratch = ColumnarScratch::new();
        let results = oracle
            .cost_prepared_batch_columnar_on(
                threads,
                &handle,
                &batch,
                CostType::PlanCost,
                &mut scratch,
            )
            .to_vec();

        prop_assert_eq!(results.len(), batch.len());
        for (row, got) in results.iter().enumerate() {
            let query = template.instantiate(batch.row(row)).expect("all ids bound");
            let scalar = query_cost(db, &query, CostType::PlanCost);
            match (got, &scalar) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x.to_bits(), y.to_bits(), "{}", query),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "ok/err mismatch: {:?} vs {:?}", got, scalar),
            }
        }
        let distinct: HashSet<Vec<String>> = (0..batch.len())
            .map(|row| {
                batch.ids().iter().map(|&id| format!("{:?}", batch.value_of(id, row))).collect()
            })
            .collect();
        let stats = oracle.stats();
        prop_assert_eq!(stats.logical_probes, batch.len() as u64);
        prop_assert_eq!(stats.physical_evals, distinct.len() as u64);
        prop_assert_eq!(stats.cache_hits, (batch.len() - distinct.len()) as u64);
    }
}
