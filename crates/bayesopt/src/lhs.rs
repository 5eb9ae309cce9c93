//! Latin Hypercube Sampling.
//!
//! §5.1 of the paper samples placeholder values with LHS rather than
//! independent uniform sampling, so joint coverage of the multi-dimensional
//! predicate space is even: each dimension is split into `n` strata and
//! each stratum is hit exactly once.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Generate `n` points in the unit hypercube of dimension `d` with the
/// Latin Hypercube property: in every dimension, exactly one point falls
/// into each of the `n` equal strata.
pub fn latin_hypercube(n: usize, d: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    if n == 0 || d == 0 {
        return vec![Vec::new(); n];
    }
    // One stratified, independently shuffled permutation per dimension.
    let mut columns: Vec<Vec<f64>> = Vec::with_capacity(d);
    for _ in 0..d {
        let mut strata: Vec<usize> = (0..n).collect();
        strata.shuffle(rng);
        let column = strata.into_iter().map(|s| (s as f64 + rng.gen::<f64>()) / n as f64).collect();
        columns.push(column);
    }
    (0..n).map(|i| (0..d).map(|j| columns[j][i]).collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn every_stratum_is_hit_exactly_once_per_dimension() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 16;
        let d = 4;
        let points = latin_hypercube(n, d, &mut rng);
        assert_eq!(points.len(), n);
        for dim in 0..d {
            let mut hits = vec![0usize; n];
            for p in &points {
                let stratum = ((p[dim] * n as f64) as usize).min(n - 1);
                hits[stratum] += 1;
            }
            assert!(hits.iter().all(|&h| h == 1), "dimension {dim}: {hits:?}");
        }
    }

    #[test]
    fn values_are_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(9);
        for p in latin_hypercube(50, 7, &mut rng) {
            assert_eq!(p.len(), 7);
            assert!(p.iter().all(|&x| (0.0..1.0).contains(&x)));
        }
    }

    #[test]
    fn degenerate_sizes() {
        let mut rng = StdRng::seed_from_u64(9);
        assert!(latin_hypercube(0, 3, &mut rng).is_empty());
        let zero_d = latin_hypercube(3, 0, &mut rng);
        assert_eq!(zero_d.len(), 3);
        assert!(zero_d.iter().all(Vec::is_empty));
        let one = latin_hypercube(1, 2, &mut rng);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn coverage_beats_collapsed_sampling() {
        // With n = 100 the empirical mean of each dimension should be near
        // 0.5 — a weak but useful sanity check of stratification.
        let mut rng = StdRng::seed_from_u64(10);
        let points = latin_hypercube(100, 3, &mut rng);
        for dim in 0..3 {
            let mean: f64 = points.iter().map(|p| p[dim]).sum::<f64>() / 100.0;
            assert!((mean - 0.5).abs() < 0.05, "dim {dim} mean {mean}");
        }
    }
}
