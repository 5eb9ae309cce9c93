//! Deterministic dataset generators.
//!
//! The paper evaluates on TPC-H (scale factor 10) and on the real IMDB
//! dataset (21 tables, the Join Order Benchmark schema). Neither is
//! shippable in a self-contained repository, so this module generates
//! deterministic, seeded synthetic instances with the same schemas,
//! foreign-key graphs, and *qualitative* value distributions (skewed
//! fan-outs, heavy-tailed amounts), at a configurable laptop scale.
//!
//! What the SQLBarber algorithms consume is the cost landscape induced by
//! these schemas and statistics, which is preserved; see DESIGN.md's
//! substitution table.

pub mod imdb;
pub mod tpch;

use rand::rngs::StdRng;
use rand::Rng;

/// Sample an index in `[0, n)` with a power-law (Zipf-like) skew.
/// `skew = 0` is uniform; larger values concentrate mass on low indices.
pub fn powerlaw_index(rng: &mut StdRng, n: usize, skew: f64) -> usize {
    debug_assert!(n > 0);
    if skew <= 0.0 {
        return rng.gen_range(0..n);
    }
    let u: f64 = rng.gen::<f64>();
    // Inverse-transform of p(x) ∝ x^(-skew/(1+skew)) on [0,1).
    let exponent = 1.0 + skew;
    let x = u.powf(exponent);
    ((x * n as f64) as usize).min(n - 1)
}

/// Sample from a log-normal-ish heavy tail with the given median and
/// spread (σ of the underlying normal), clamped to `max`.
pub fn heavy_tail(rng: &mut StdRng, median: f64, sigma: f64, max: f64) -> f64 {
    let z = standard_normal(rng);
    (median * (sigma * z).exp()).min(max)
}

/// Standard normal via Box–Muller (no external distribution crates).
pub fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Deterministic word pool for synthetic text columns.
pub const WORDS: [&str; 32] = [
    "amber", "basalt", "cedar", "delta", "ember", "fjord", "garnet", "harbor", "indigo",
    "juniper", "krypton", "lumen", "maple", "nickel", "onyx", "prism", "quartz", "raven",
    "sable", "tundra", "umber", "vertex", "willow", "xenon", "yarrow", "zephyr", "cobalt",
    "dune", "echo", "flint", "grove", "haze",
];

/// Deterministic synthetic name: two pooled words plus a number.
pub fn synth_name(rng: &mut StdRng, prefix: &str) -> String {
    let a = WORDS[rng.gen_range(0..WORDS.len())];
    let b = WORDS[rng.gen_range(0..WORDS.len())];
    let n: u32 = rng.gen_range(0..10_000);
    join_name(prefix, a, b, n)
}

/// `{prefix}_{a}_{b}_{n}`, built into one exactly sized allocation (no
/// formatting machinery: this runs once per synthetic text cell).
fn join_name(prefix: &str, a: &str, b: &str, n: u32) -> String {
    let mut digits = [0u8; 10];
    let mut start = digits.len();
    let mut rest = n;
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let digits = &digits[start..];
    let mut name = String::with_capacity(prefix.len() + a.len() + b.len() + digits.len() + 3);
    for part in [prefix, "_", a, "_", b, "_"] {
        name.push_str(part);
    }
    name.extend(digits.iter().map(|&d| char::from(d)));
    name
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn powerlaw_is_skewed_toward_low_indices() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 1000;
        let samples: Vec<usize> = (0..20_000).map(|_| powerlaw_index(&mut rng, n, 1.5)).collect();
        let low = samples.iter().filter(|&&i| i < n / 10).count();
        assert!(low as f64 > 0.3 * samples.len() as f64, "low bucket {low}");
        assert!(samples.iter().all(|&i| i < n));
    }

    #[test]
    fn powerlaw_zero_skew_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 10;
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            counts[powerlaw_index(&mut rng, n, 0.0)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 2000.0).abs() < 300.0, "count {c}");
        }
    }

    #[test]
    fn heavy_tail_median_is_near_parameter() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut samples: Vec<f64> =
            (0..10_001).map(|_| heavy_tail(&mut rng, 100.0, 1.0, 1e9)).collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[5000];
        assert!((median - 100.0).abs() < 15.0, "median {median}");
    }

    #[test]
    fn standard_normal_has_zero_mean_unit_variance() {
        let mut rng = StdRng::seed_from_u64(7);
        let samples: Vec<f64> = (0..50_000).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn join_name_matches_format_for_every_number() {
        for n in 0..10_000 {
            assert_eq!(join_name("title", "amber", "haze", n), format!("title_amber_haze_{n}"));
        }
        for n in [10_000, 99_999, 1_000_000, u32::MAX] {
            assert_eq!(join_name("kw", "dune", "echo", n), format!("kw_dune_echo_{n}"));
        }
        assert_eq!(join_name("", "", "", 0), "___0");
    }

    #[test]
    fn synth_name_matches_the_format_reference_draw_for_draw() {
        // The `format!` version this replaced, with the same draws.
        fn reference(rng: &mut StdRng, prefix: &str) -> String {
            let a = WORDS[rng.gen_range(0..WORDS.len())];
            let b = WORDS[rng.gen_range(0..WORDS.len())];
            let n: u32 = rng.gen_range(0..10_000);
            format!("{prefix}_{a}_{b}_{n}")
        }
        let mut rng = StdRng::seed_from_u64(11);
        let mut oracle = StdRng::seed_from_u64(11);
        for i in 0..20_000 {
            let prefix = ["title", "person", "kw", "supplier"][i % 4];
            let name = synth_name(&mut rng, prefix);
            assert_eq!(name, reference(&mut oracle, prefix));
            assert_eq!(name.capacity(), name.len(), "{name} is not exactly sized");
        }
        assert_eq!(rng.gen::<u64>(), oracle.gen::<u64>(), "RNG streams diverged");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tpch::generate(tpch::TpchConfig::tiny());
        let b = tpch::generate(tpch::TpchConfig::tiny());
        assert_eq!(
            a.stats("lineitem").unwrap().row_count,
            b.stats("lineitem").unwrap().row_count
        );
        let sa = a.schema_summary();
        let sb = b.schema_summary();
        assert_eq!(sa, sb);
    }
}
