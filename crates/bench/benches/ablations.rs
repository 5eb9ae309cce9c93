//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. Latin Hypercube vs. independent uniform sampling (§5.1's choice);
//! 2. warm-started vs. cold Bayesian optimization (§5.3's history reuse);
//! 3. index access paths on vs. off (the substrate decision that makes
//!    cheap intervals reachable from fact tables).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Multiplicative 3-dim response standing in for conjunctive selectivity.
fn response(p: &[f64]) -> f64 {
    p.iter().product::<f64>() * 10_000.0
}

fn decile_coverage(points: &[Vec<f64>]) -> usize {
    let mut hit = [false; 10];
    for p in points {
        let idx = ((response(p) / 1_000.0) as usize).min(9);
        hit[idx] = true;
    }
    hit.iter().filter(|h| **h).count()
}

fn ablation_lhs(c: &mut Criterion) {
    // Coverage comparison, averaged over 200 seeds.
    let n = 24;
    let mut lhs_total = 0usize;
    let mut iid_total = 0usize;
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        lhs_total += decile_coverage(&bayesopt::latin_hypercube(n, 3, &mut rng));
        let iid: Vec<Vec<f64>> =
            (0..n).map(|_| (0..3).map(|_| rng.gen::<f64>()).collect()).collect();
        iid_total += decile_coverage(&iid);
    }
    println!(
        "\nAblation 1 — sampling design (24 samples, 3 dims, 10 cost deciles):\n  \
         LHS mean coverage {:.2}/10 vs independent {:.2}/10",
        lhs_total as f64 / 200.0,
        iid_total as f64 / 200.0
    );
    assert!(lhs_total >= iid_total, "LHS must not cover worse on average");

    c.bench_function("ablation/lhs_24x3", |b| {
        let mut rng = StdRng::seed_from_u64(0);
        b.iter(|| std::hint::black_box(bayesopt::latin_hypercube(24, 3, &mut rng)))
    });
}

fn ablation_warm_start(c: &mut Criterion) {
    // Evaluations needed to land in a narrow interval of the response,
    // with and without warm-started history.
    use bayesopt::{BoConfig, Evaluation, Optimizer, Space};
    let space = Space::new(vec![bayesopt::Dimension::Float { lo: 0.0, hi: 1.0 }; 3]);
    let objective =
        |p: &[f64]| sqlbarber::bo_search::interval_objective(response(p), 7_000.0, 7_500.0);
    let evals_to_hit = |warm: bool, seed: u64| -> usize {
        let mut bo =
            Optimizer::new(space.clone(), BoConfig { seed, init_samples: 8, ..Default::default() });
        if warm {
            let mut rng = StdRng::seed_from_u64(seed ^ 77);
            bo.warm_start(bayesopt::latin_hypercube(20, 3, &mut rng).into_iter().map(|p| {
                let value = objective(&p);
                Evaluation { point: p, value }
            }));
        }
        for evals in 1..=300 {
            let p = bo.ask();
            let v = objective(&p);
            bo.tell(p, v);
            if v == 0.0 {
                return evals;
            }
        }
        300
    };
    let seeds: Vec<u64> = (0..20).collect();
    let warm: usize = seeds.iter().map(|&s| evals_to_hit(true, s)).sum();
    let cold: usize = seeds.iter().map(|&s| evals_to_hit(false, s)).sum();
    println!(
        "Ablation 2 — BO warm start: mean evaluations to first in-interval hit: \
         warm {:.1} vs cold {:.1}",
        warm as f64 / 20.0,
        cold as f64 / 20.0
    );

    c.bench_function("ablation/bo_cold_hit", |b| {
        let mut seed = 1000u64;
        b.iter(|| {
            seed += 1;
            std::hint::black_box(evals_to_hit(false, seed))
        })
    });
}

fn ablation_index_paths(c: &mut Criterion) {
    // The cheapest reachable plan cost on a fact table, with and without
    // index paths.
    let with_idx = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig {
        scale_factor: 0.05,
        seed: 42,
    });
    let mut without_idx = minidb::Database::new("tpch_noindex");
    for name in with_idx.table_names() {
        without_idx.add_table(with_idx.table(name).unwrap().clone(), None, &[]);
    }
    let sql = "SELECT * FROM lineitem WHERE lineitem.l_orderkey = 42";
    let indexed = with_idx.explain_sql(sql).unwrap().total_cost;
    let sequential = without_idx.explain_sql(sql).unwrap().total_cost;
    println!(
        "Ablation 3 — access paths: point-lookup plan cost {indexed:.0} (indexed) vs \
         {sequential:.0} (seq-only); floor ratio {:.0}x",
        sequential / indexed
    );
    assert!(indexed * 20.0 < sequential);

    c.bench_function("ablation/explain_indexed_point_lookup", |b| {
        let q = sqlkit::parse_select(sql).unwrap();
        b.iter(|| std::hint::black_box(with_idx.explain(&q).unwrap().total_cost))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ablation_lhs, ablation_warm_start, ablation_index_paths
}
criterion_main!(benches);
