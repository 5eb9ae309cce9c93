//! Throwaway measurement: heap allocations per warm prepared-memo lookup.
//! (Used to record the before/after numbers for EXPERIMENTS.md.)
//!
//! Default mode probes one binding at a time (oracle batches of one with
//! a reused [`ColumnarScratch`]); `--batch 256` (any size) additionally
//! measures whole batches through the same entry point, reporting
//! amortized allocations per probe. Both build memo keys straight from
//! the batch columns and assert 0.000 allocs/probe in release builds;
//! `--amplify` measures the warm amplification emission loop (draw →
//! decode → columnar recost → render → stream) over one million emitted
//! queries, asserting 0.000 allocs/query — which simultaneously
//! demonstrates bounded memory at N = 1M (nothing proportional to the
//! workload is retained); `--exec-batch 256` measures the vectorized
//! executor (`PreparedExec::execute_batch`) warm path with a reused
//! [`ExecScratch`] over several consecutive batches, for single-table
//! filters (two fused conjuncts on a seq scan), for a hash join with
//! `GROUP BY`, and for a join whose unfiltered build side is kept across
//! batches, asserting 0.000 allocs/probe in release builds
//! (debug builds run the per-row scalar cross-check, which allocates
//! by design).

use minidb::BindingBatch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlbarber::amplify::{Lane, PairContext, DEFAULT_BATCH};
use sqlbarber::oracle::{ColumnarScratch, CostOracle};
use sqlbarber::profiler::profile_template;
use sqlbarber::CostType;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: `Counting` is a stateless pass-through to the System allocator
// — it only bumps an atomic counter — so every GlobalAlloc invariant
// (layout fidelity, no unwinding, pointer provenance) is exactly
// System's.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: same contract as `System.alloc`; callers pass a valid
    // nonzero-size layout, which is forwarded unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` comes from our caller, who upholds the
        // GlobalAlloc contract we share with System.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: same contract as `System.dealloc`; `ptr` must have come
    // from this allocator (which always delegates to System).
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by `System.alloc` via `alloc` above
        // and is returned with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static A: Counting = Counting;

fn main() {
    let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
    let oracle = CostOracle::new(&db, 1);
    let template = sqlkit::parse_template(
        "SELECT c.c_custkey FROM customer AS c WHERE c.c_mktsegment = {p_1} AND c.c_acctbal > {p_2}",
    )
    .unwrap();
    let space = sqlbarber::sampler::PlaceholderSpace::build(&db, &template);
    let handle = oracle.prepare(&template).unwrap();
    // Distinct bindings, each decoded into its own one-row batch and
    // costed once to warm the memo.
    let points: Vec<[f64; 2]> =
        (0..256).map(|i| [(i % 5) as f64 / 5.0, (i as f64) / 256.0]).collect();
    let singles: Vec<BindingBatch> = points
        .iter()
        .map(|point| {
            let mut single = BindingBatch::default();
            space.decode_batch([point], &mut single);
            single
        })
        .collect();
    let mut scratch = ColumnarScratch::new();
    let cardinality = CostType::Cardinality;
    let mut cost_one = |single: &BindingBatch| {
        let results =
            oracle.cost_prepared_batch_columnar_on(1, &handle, single, cardinality, &mut scratch);
        assert!(results[0].is_ok());
    };
    for single in &singles {
        cost_one(single);
    }
    // Measure: warm lookups only (every probe is a binding-key cache hit).
    const ROUNDS: u64 = 100;
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..ROUNDS {
        for single in &singles {
            cost_one(single);
        }
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    let per = (after - before) as f64 / (ROUNDS * singles.len() as u64) as f64;
    println!("allocs per warm prepared lookup: {per:.3}");
    let stats = oracle.stats();
    println!("hits {} misses {}", stats.prepared_hits, stats.prepared_misses);
    if cfg!(not(debug_assertions)) {
        assert!(per < 0.0005, "warm batch-of-one lookup allocated {per:.5}/probe");
    }

    // `--batch N`: amortized allocations per probe through the columnar
    // batch path, scratch reused across rounds (first warm batch sizes
    // the arenas; steady state should be ~0).
    let args: Vec<String> = std::env::args().skip(1).collect();
    let batch_size = args
        .iter()
        .position(|a| a == "--batch")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok());
    if let Some(batch_size) = batch_size {
        let mut batch = BindingBatch::default();
        space.decode_batch(points.iter().take(batch_size), &mut batch);
        let mut scratch = ColumnarScratch::new();
        // Warm call: grows the scratch arenas to this batch's size.
        oracle.cost_prepared_batch_columnar_on(1, &handle, &batch, cardinality, &mut scratch);
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..ROUNDS {
            let results = oracle.cost_prepared_batch_columnar_on(
                1,
                &handle,
                &batch,
                cardinality,
                &mut scratch,
            );
            assert_eq!(results.len(), batch.len());
        }
        let after = ALLOCS.load(Ordering::Relaxed);
        let per = (after - before) as f64 / (ROUNDS * batch.len() as u64) as f64;
        println!("allocs per warm columnar batch probe (batch {}): {per:.3}", batch.len());
        if cfg!(not(debug_assertions)) {
            assert!(per < 0.0005, "warm columnar batch allocated {per:.5}/probe");
        }
    }

    // `--exec-batch N`: amortized allocations per probe through the
    // vectorized executor, batch and scratch reused across rounds. The
    // zero-alloc assertion is release-only: debug builds cross-check
    // every batch row against scalar `Database::execute`, which
    // instantiates and materializes per row by design.
    let exec_batch_size = args
        .iter()
        .position(|a| a == "--exec-batch")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok());
    if let Some(batch_size) = exec_batch_size {
        // Single-table filters, a hash join feeding a GROUP BY, text
        // grouping keys (dictionary codes hashed by their bytes), and a
        // join whose build side (orders, unfiltered) is binding-invariant.
        let templates = [
            "SELECT l.l_orderkey FROM lineitem AS l \
             WHERE l.l_quantity > {p_1} AND l.l_extendedprice <= {p_2}",
            // Two conjuncts on unindexed columns: a seq scan, one fused
            // mask per chunk.
            "SELECT COUNT(*) FROM lineitem AS l \
             WHERE l.l_discount <= {p_1} AND l.l_extendedprice > {p_2}",
            "SELECT COUNT(*) FROM lineitem AS l JOIN orders AS o \
             ON l.l_orderkey = o.o_orderkey \
             WHERE l.l_quantity > {p_1} AND l.l_extendedprice <= {p_2}",
            "SELECT o.o_orderkey, COUNT(*) FROM orders AS o \
             JOIN lineitem AS l ON o.o_orderkey = l.l_orderkey \
             WHERE l.l_quantity > {p_1} AND o.o_totalprice <= {p_2} \
             GROUP BY o.o_orderkey",
            "SELECT o.o_orderpriority, COUNT(DISTINCT c.c_mktsegment) FROM orders AS o \
             JOIN customer AS c ON o.o_custkey = c.c_custkey \
             WHERE c.c_acctbal > {p_1} AND o.o_totalprice <= {p_2} \
             GROUP BY o.o_orderpriority",
        ];
        // Consecutive batches bind different values to the same plan.
        let batches: Vec<BindingBatch> = (0..4)
            .map(|shift| {
                let mut batch = BindingBatch::new(vec![1, 2]);
                for i in 0..batch_size {
                    batch
                        .push_row(&[
                            (1, sqlkit::Value::Int(((i + shift) % 50) as i64)),
                            (2, sqlkit::Value::Float(900.0 + (i + 7 * shift) as f64 * 37.0)),
                        ])
                        .unwrap();
                }
                batch
            })
            .collect();
        for sql in templates {
            let template = sqlkit::parse_template(sql).unwrap();
            let plan = minidb::PreparedTemplate::prepare(&db, &template).unwrap();
            let exec = minidb::PreparedExec::prepare(&db, std::sync::Arc::new(plan));
            assert_eq!(exec.tier(), "columnar", "probe template must take the kernel tier");
            let mut scratch = minidb::ExecScratch::new();
            // Warm calls: grow the selection vectors, join tables and
            // result arena.
            for batch in &batches {
                exec.execute_batch(&db, batch, &mut scratch).unwrap();
            }
            let before = ALLOCS.load(Ordering::Relaxed);
            for _ in 0..ROUNDS {
                for batch in &batches {
                    let results = exec.execute_batch(&db, batch, &mut scratch).unwrap();
                    assert_eq!(results.len(), batch.len());
                }
            }
            let after = ALLOCS.load(Ordering::Relaxed);
            let probes = ROUNDS * (batches.len() * batch_size) as u64;
            let per = (after - before) as f64 / probes as f64;
            println!(
                "allocs per warm exec-batch probe ({} batches of {batch_size}): {per:.3} — {}",
                batches.len(),
                sql.split_whitespace().collect::<Vec<_>>().join(" ")
            );
            if cfg!(not(debug_assertions)) {
                assert!(per < 0.0005, "warm exec-batch loop allocated {per:.5}/probe: {sql}");
            }
        }
    }

    // `--amplify`: allocations per emitted query in the warm amplification
    // loop — one million queries drawn, recosted, rendered, and streamed
    // to a sink through per-batch scratch only. Numeric placeholders keep
    // decode alloc-free (string dimensions clone their MCV by design).
    if args.iter().any(|a| a == "--amplify") {
        let template = sqlkit::parse_template(
            "SELECT l.l_orderkey FROM lineitem AS l \
             WHERE l.l_quantity > {p_1} AND l.l_extendedprice <= {p_2}",
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let profiled = profile_template(&oracle, template, CostType::Cardinality, 64, &mut rng);
        let max = profiled.costs.iter().fold(0.0f64, |a, &b| a.max(b));
        let intervals = workload::CostIntervals::new(0.0, (max * 1.05).max(1.0), 5);
        // Fit against the densest interval so the accept rate is high.
        let mut conforming = [0usize; 5];
        for eval in &profiled.evaluations {
            if let Some(j) = intervals.interval_of(eval.value) {
                conforming[j] += 1;
            }
        }
        let interval =
            conforming.iter().enumerate().max_by_key(|(_, &n)| n).map(|(j, _)| j).unwrap();
        let handle = oracle.prepare(&profiled.template).unwrap();
        let ctx = PairContext::new(&profiled, handle, CostType::Cardinality, intervals, interval)
            .expect("densest interval has conforming probes");
        let mut lane = Lane::new();
        let mut writer = workload::StreamingSqlWriter::new(std::io::sink());
        let run_batch = |lane: &mut Lane,
                         writer: &mut workload::StreamingSqlWriter<std::io::Sink>,
                         b: u64,
                         limit: usize| {
            lane.run(&db, &ctx, bayesopt::parallel::split_seed(9, b), DEFAULT_BATCH, limit)
                .expect("recosts");
            let accepted = lane.accepts().len();
            writer
                .write_records(lane.accepted_chunk(accepted), accepted as u64)
                .expect("sink never fails");
            accepted as u64
        };
        // Warm-up: grow the lane arenas and the record string.
        let mut batch_index = 0u64;
        for _ in 0..4 {
            run_batch(&mut lane, &mut writer, batch_index, usize::MAX);
            batch_index += 1;
        }
        const TARGET: u64 = 1_000_000;
        let mut emitted = 0u64;
        let before = ALLOCS.load(Ordering::Relaxed);
        while emitted < TARGET {
            // The stage's render limit: the quota still to fill.
            emitted += run_batch(&mut lane, &mut writer, batch_index, (TARGET - emitted) as usize);
            batch_index += 1;
        }
        let after = ALLOCS.load(Ordering::Relaxed);
        let per = (after - before) as f64 / emitted as f64;
        println!("allocs per warm amplified query ({emitted} emitted): {per:.3}");
        assert!(per < 0.0005, "warm amplification loop allocated {per:.5}/query");
    }
}
