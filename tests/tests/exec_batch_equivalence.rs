//! Property tests for the vectorized execution path: over randomly
//! varied templates and randomly drawn bindings — NULL-heavy rows,
//! empty/inverted BETWEEN intervals, duplicate rows — the batch executor
//! [`PreparedExec::execute_batch`] must return exactly, bit for bit, the
//! `(cardinality, work_micros)` pairs that per-row instantiate-and-
//! `Database::execute` produces, and the oracle's entry point for
//! execution-based cost types must match that scalar path probe by probe
//! with exact memo accounting, even under capacity-2 eviction pressure.

use minidb::{BindingBatch, Database, DbError, ExecScratch, PreparedExec, PreparedTemplate};
use proptest::prelude::*;
use sqlbarber::cost::query_cost;
use sqlbarber::oracle::{ColumnarScratch, CostOracle};
use sqlbarber::CostType;
use sqlkit::{parse_template, Value};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

fn db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| {
        minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny())
    })
}

/// A template skeleton with its placeholders as `(id, is_int)` and the
/// execution tier `PreparedExec::prepare` must classify it into.
struct Skeleton {
    sql: &'static str,
    kinds: &'static [(u32, bool)],
    tier: &'static str,
}

const SKELETONS: &[Skeleton] = &[
    // Single numeric comparison: columnar selection-vector kernels,
    // seq-vs-index decided per row.
    Skeleton {
        sql: "SELECT l.l_orderkey FROM lineitem AS l \
              WHERE l.l_extendedprice > {p_1}",
        kinds: &[(1, false)],
        tier: "columnar",
    },
    // BETWEEN (empty when p_1 > p_2) + extra conjunct + ORDER BY/LIMIT.
    Skeleton {
        sql: "SELECT l.l_orderkey, l.l_quantity FROM lineitem AS l \
              WHERE l.l_quantity BETWEEN {p_1} AND {p_2} \
              AND l.l_discount < {p_3} \
              ORDER BY l.l_orderkey LIMIT 40",
        kinds: &[(1, false), (2, false), (3, false)],
        tier: "columnar",
    },
    // Equality on an indexed integer key: point-lookup probes.
    Skeleton {
        sql: "SELECT o.o_orderkey FROM orders AS o \
              WHERE o.o_orderkey = {p_1}",
        kinds: &[(1, true)],
        tier: "columnar",
    },
    // Join + GROUP BY + ORDER BY + LIMIT: a hash join over row ids,
    // then distinct typed group keys among the joined tuples.
    Skeleton {
        sql: "SELECT o.o_orderkey, SUM(l.l_extendedprice) \
              FROM orders AS o, lineitem AS l \
              WHERE o.o_orderkey = l.l_orderkey AND l.l_extendedprice > {p_1} \
              GROUP BY o.o_orderkey ORDER BY o.o_orderkey LIMIT 25",
        kinds: &[(1, false)],
        tier: "columnar",
    },
    // 2-way hash join, filters on both sides (the build side's
    // selection changes per row).
    Skeleton {
        sql: "SELECT l.l_orderkey FROM orders AS o \
              JOIN lineitem AS l ON o.o_orderkey = l.l_orderkey \
              WHERE o.o_totalprice > {p_1} AND l.l_quantity < {p_2}",
        kinds: &[(1, false), (2, false)],
        tier: "columnar",
    },
    // 3-way hash join; the greedy order varies with the bindings.
    Skeleton {
        sql: "SELECT ps.ps_suppkey FROM partsupp AS ps \
              JOIN part AS p ON ps.ps_partkey = p.p_partkey \
              JOIN lineitem AS l ON l.l_partkey = p.p_partkey \
              WHERE p.p_retailprice < {p_1} AND l.l_extendedprice > {p_2}",
        kinds: &[(1, false), (2, false)],
        tier: "columnar",
    },
    // COUNT(*) over a join: one record, whatever the join yields.
    Skeleton {
        sql: "SELECT COUNT(*) FROM customer AS c \
              JOIN orders AS o ON c.c_custkey = o.o_custkey \
              WHERE c.c_acctbal > {p_1} AND o.o_orderdate < {p_2}",
        kinds: &[(1, false), (2, true)],
        tier: "columnar",
    },
    // Single-table GROUP BY over two string keys, ORDER BY an aggregate.
    Skeleton {
        sql: "SELECT l.l_returnflag, l.l_linestatus, COUNT(*), AVG(l.l_quantity) \
              FROM lineitem AS l WHERE l.l_extendedprice BETWEEN {p_1} AND {p_2} \
              GROUP BY l.l_returnflag, l.l_linestatus ORDER BY COUNT(*)",
        kinds: &[(1, false), (2, false)],
        tier: "columnar",
    },
    // COUNT(DISTINCT …): an ungrouped aggregate is one record.
    Skeleton {
        sql: "SELECT COUNT(DISTINCT o.o_custkey), MAX(o.o_totalprice) \
              FROM orders AS o WHERE o.o_totalprice > {p_1}",
        kinds: &[(1, false)],
        tier: "columnar",
    },
    // DISTINCT: distinct typed projected keys, then LIMIT.
    Skeleton {
        sql: "SELECT DISTINCT c.c_mktsegment, c.c_nationkey FROM customer AS c \
              WHERE c.c_acctbal < {p_1} LIMIT 30",
        kinds: &[(1, false)],
        tier: "columnar",
    },
    // HAVING filters on aggregate values the columnar tier never
    // computes: hoisted.
    Skeleton {
        sql: "SELECT o.o_custkey, COUNT(*) FROM orders AS o \
              WHERE o.o_totalprice > {p_1} \
              GROUP BY o.o_custkey HAVING COUNT(*) > 1",
        kinds: &[(1, false)],
        tier: "hoisted",
    },
    // A residual predicate across the join: hoisted.
    Skeleton {
        sql: "SELECT o.o_orderkey FROM orders AS o \
              JOIN lineitem AS l ON o.o_orderkey = l.l_orderkey \
              WHERE l.l_extendedprice > {p_1} AND l.l_extendedprice < o.o_totalprice",
        kinds: &[(1, false)],
        tier: "hoisted",
    },
    // Placeholder inside the IN-subquery: hoisted tier with nothing
    // hoisted, each row collecting its own subquery.
    Skeleton {
        sql: "SELECT c.c_custkey FROM customer AS c \
              WHERE c.c_acctbal > {p_1} AND c.c_custkey IN \
              (SELECT o.o_custkey FROM orders AS o WHERE o.o_totalprice > {p_2})",
        kinds: &[(1, false), (2, false)],
        tier: "hoisted",
    },
    // BETWEEN on the indexed primary key: narrow ranges win the index
    // scan, wide and inverted ones the sequential scan.
    Skeleton {
        sql: "SELECT o.o_orderkey FROM orders AS o \
              WHERE o.o_orderkey BETWEEN {p_1} AND {p_2}",
        kinds: &[(1, true), (2, true)],
        tier: "columnar",
    },
];

/// Build one binding row per raw draw, plus a copy of the first row at
/// the end when `duplicate_first` is set. `null_mask` bit `i` nulls the
/// `i`-th placeholder — NULL-heavy rows are a first-class input, not an
/// afterthought: a NULL operand fails every predicate in the executor
/// and must round-trip through the batch kernels identically.
fn binding_batch(
    kinds: &[(u32, bool)],
    rows_raw: &[(Vec<f64>, u32)],
    duplicate_first: bool,
) -> BindingBatch {
    let mut batch = BindingBatch::new(kinds.iter().map(|&(id, _)| id).collect());
    let mut row = Vec::with_capacity(kinds.len());
    for (raw, null_mask) in rows_raw.iter().chain(duplicate_first.then(|| &rows_raw[0])) {
        row.clear();
        row.extend(kinds.iter().zip(raw).enumerate().map(|(i, (&(id, is_int), &x))| {
            let value = if null_mask >> i & 1 == 1 {
                Value::Null
            } else if is_int {
                Value::Int(x as i64)
            } else {
                Value::Float(x)
            };
            (id, value)
        }));
        row.sort_by_key(|&(id, _)| id);
        batch.push_row(&row).expect("all ids bound");
    }
    batch
}

fn rows_strategy(
    max_rows: usize,
) -> impl Strategy<Value = Vec<(Vec<f64>, u32)>> {
    prop::collection::vec(
        (prop::collection::vec(-1_000.0f64..60_000.0, 3..4), 0u32..8),
        1..max_rows,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `execute_batch` == per-row `Database::execute`, bit for bit, for
    /// every tier — cardinality and the deterministic work proxy alike.
    #[test]
    fn execute_batch_matches_scalar_execute(
        skeleton_idx in 0usize..SKELETONS.len(),
        rows_raw in rows_strategy(7),
        duplicate_first in any::<bool>(),
    ) {
        let db = db();
        let skeleton = &SKELETONS[skeleton_idx];
        let template = parse_template(skeleton.sql).expect("skeleton SQL parses");
        let plan = PreparedTemplate::prepare(db, &template).expect("skeleton prepares");
        let exec = PreparedExec::prepare(db, Arc::new(plan));
        prop_assert_eq!(exec.tier(), skeleton.tier, "tier for {}", skeleton.sql);

        let batch = binding_batch(skeleton.kinds, &rows_raw, duplicate_first);
        let mut scratch = ExecScratch::new();
        let batched = exec
            .execute_batch(db, &batch, &mut scratch)
            .expect("batch executes")
            .to_vec();

        prop_assert_eq!(batched.len(), batch.len());
        for (row, batch_result) in batched.iter().enumerate() {
            let expected = match template.instantiate(batch.row(row)) {
                Ok(select) => db
                    .execute(&select)
                    .map(|r| (r.cardinality() as f64, r.work_micros())),
                Err(e) => Err(DbError::Unsupported(e.to_string())),
            };
            match (&expected, batch_result) {
                (Ok((card_s, work_s)), Ok((card_b, work_b))) => {
                    prop_assert_eq!(
                        card_b.to_bits(),
                        card_s.to_bits(),
                        "cardinality diverged: {} vs {}", card_b, card_s
                    );
                    prop_assert_eq!(
                        work_b.to_bits(),
                        work_s.to_bits(),
                        "work proxy diverged: {} vs {}", work_b, work_s
                    );
                }
                (Err(e_s), Err(e_b)) => {
                    prop_assert_eq!(format!("{e_b:?}"), format!("{e_s:?}"));
                }
                (expected, got) => prop_assert!(
                    false,
                    "ok/err mismatch: scalar {:?} vs batch {:?}", expected, got
                ),
            }
        }
        if duplicate_first {
            // Duplicate rows must yield byte-identical outputs.
            prop_assert_eq!(
                format!("{:?}", batched[0]),
                format!("{:?}", batched[batched.len() - 1])
            );
        }
    }

    /// Oracle-level contract for execution-based cost types: the entry
    /// point (`cost_prepared_batch_columnar_on` → `execute_batch`) returns,
    /// probe by probe, the same bits as instantiate-and-execute, across
    /// thread counts and under capacity-2 memo eviction pressure — with
    /// one logical probe per binding and one physical evaluation per
    /// distinct binding (per binding for the un-memoized time metric).
    #[test]
    fn oracle_columnar_execution_matches_per_probe(
        skeleton_idx in 0usize..SKELETONS.len(),
        rows_raw in rows_strategy(9),
        cost_type in prop::sample::select(vec![
            CostType::ActualCardinality,
            CostType::ExecutionTimeMicros,
        ]),
        threads in prop::sample::select(vec![1usize, 2, 8]),
        squeeze_cache in any::<bool>(),
    ) {
        let db = db();
        let skeleton = &SKELETONS[skeleton_idx];
        let template = parse_template(skeleton.sql).expect("skeleton SQL parses");

        // In-batch duplicate of the first row: memo-hit dedup.
        let batch = binding_batch(skeleton.kinds, &rows_raw, true);

        let capacity = if squeeze_cache { 2 } else { 1024 };
        let oracle = CostOracle::new(db, threads).with_cache_capacity(capacity);
        let handle = oracle.prepare(&template).expect("prepare");
        let mut scratch = ColumnarScratch::new();
        let results = oracle
            .cost_prepared_batch_columnar_on(threads, &handle, &batch, cost_type, &mut scratch)
            .to_vec();

        prop_assert_eq!(results.len(), batch.len());
        for (row, got) in results.iter().enumerate() {
            let expected = match template.instantiate(batch.row(row)) {
                Ok(select) => query_cost(db, &select, cost_type),
                Err(e) => Err(DbError::Unsupported(e.to_string())),
            };
            match (got, &expected) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y),
                (Err(x), Err(y)) => prop_assert_eq!(format!("{x:?}"), format!("{y:?}")),
                _ => prop_assert!(false, "ok/err mismatch: {:?} vs {:?}", got, expected),
            }
        }
        let physical = if cost_type == CostType::ExecutionTimeMicros {
            batch.len()
        } else {
            let key = |row| -> Vec<String> {
                batch.ids().iter().map(|&id| format!("{:?}", batch.value_of(id, row))).collect()
            };
            (0..batch.len()).map(key).collect::<HashSet<_>>().len()
        };
        let stats = oracle.stats();
        prop_assert_eq!(stats.logical_probes, batch.len() as u64);
        prop_assert_eq!(stats.physical_evals, physical as u64);
        prop_assert_eq!(stats.cache_hits, (batch.len() - physical) as u64);
    }

    /// Thread-count invariance: the columnar execution dispatch returns
    /// identical bits and identical stats at 1, 2, and 8 threads.
    #[test]
    fn oracle_columnar_execution_is_thread_invariant(
        skeleton_idx in 0usize..SKELETONS.len(),
        rows_raw in rows_strategy(9),
        cost_type in prop::sample::select(vec![
            CostType::ActualCardinality,
            CostType::ExecutionTimeMicros,
        ]),
    ) {
        let db = db();
        let skeleton = &SKELETONS[skeleton_idx];
        let template = parse_template(skeleton.sql).expect("skeleton SQL parses");
        let batch = binding_batch(skeleton.kinds, &rows_raw, false);

        let runs: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                let oracle = CostOracle::new(db, threads).with_cache_capacity(2);
                let handle = oracle.prepare(&template).expect("prepare");
                let mut scratch = ColumnarScratch::new();
                let results = oracle
                    .cost_prepared_batch_columnar_on(
                        threads, &handle, &batch, cost_type, &mut scratch,
                    )
                    .to_vec();
                (results, oracle.stats())
            })
            .collect();

        for run in &runs[1..] {
            prop_assert_eq!(run.0.len(), runs[0].0.len());
            for (a, b) in runs[0].0.iter().zip(run.0.iter()) {
                prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
            prop_assert_eq!(&run.1, &runs[0].1, "stats diverged across threads");
        }
    }
}
