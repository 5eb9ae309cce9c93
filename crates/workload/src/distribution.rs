//! Target cost distributions.
//!
//! A [`TargetDistribution`] is the `d*` of Algorithms 2–3: how many queries
//! each cost interval should receive. Synthetic shapes (uniform, normal)
//! match the paper's two synthetic benchmarks; the Snowset/Redset families
//! are parametric stand-ins for the distributions the authors extracted
//! from published Snowflake and Amazon Redshift execution statistics —
//! heavy-tailed log-normal bodies, optionally with a secondary mode, which
//! is the qualitative shape visible in the paper's Figure 5/6 target
//! histograms (most mass in the cheap intervals, a long expensive tail,
//! sometimes a bump at the high end).

use crate::intervals::CostIntervals;

/// Named distribution family with its parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Shape {
    /// Equal mass per interval.
    Uniform,
    /// Gaussian over the cost range.
    Normal {
        /// Mean as a fraction of the range.
        mean_frac: f64,
        /// Standard deviation as a fraction of the range.
        sigma_frac: f64,
    },
    /// Log-normal body (the Snowflake/Redshift shape).
    LogNormal {
        /// Median cost.
        median: f64,
        /// σ of the underlying normal.
        sigma: f64,
    },
    /// Histogram observed from real cost samples (see
    /// [`TargetDistribution::from_samples`]).
    Empirical {
        /// Raw per-interval sample counts.
        histogram: Vec<f64>,
    },
    /// Log-normal body plus a Gaussian bump (bimodal cloud workloads).
    Bimodal {
        median: f64,
        sigma: f64,
        /// Center of the secondary mode.
        bump_center: f64,
        /// Width of the secondary mode.
        bump_sigma: f64,
        /// Fraction of total mass in the secondary mode.
        bump_mass: f64,
    },
}

/// A target distribution: per-interval query counts `d*`.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetDistribution {
    /// The interval grid.
    pub intervals: CostIntervals,
    /// Target count per interval; sums to the requested total.
    pub counts: Vec<f64>,
    /// The generating shape (kept for reporting).
    pub shape: Shape,
}

impl TargetDistribution {
    /// Build a distribution by discretizing `shape` onto `intervals` and
    /// apportioning `total` queries by largest remainder (every interval
    /// with nonzero weight gets its fair integer share and the counts sum
    /// exactly to `total`).
    pub fn from_shape(shape: Shape, intervals: CostIntervals, total: usize) -> Self {
        let weights: Vec<f64> =
            (0..intervals.count).map(|j| shape_weight(&shape, &intervals, j)).collect();
        let weight_sum: f64 = weights.iter().sum();
        assert!(weight_sum > 0.0, "distribution has no mass on the range");

        // Largest-remainder apportionment.
        let ideal: Vec<f64> = weights.iter().map(|w| w / weight_sum * total as f64).collect();
        let mut counts: Vec<f64> = ideal.iter().map(|x| x.floor()).collect();
        let assigned: f64 = counts.iter().sum();
        let mut remainders: Vec<(usize, f64)> =
            ideal.iter().enumerate().map(|(j, x)| (j, x - x.floor())).collect();
        remainders.sort_by(|a, b| b.1.total_cmp(&a.1));
        let missing = (total as f64 - assigned) as usize;
        for &(j, _) in remainders.iter().take(missing) {
            counts[j] += 1.0;
        }
        TargetDistribution { intervals, counts, shape }
    }

    /// Uniform target (the paper's "uniform" synthetic benchmark).
    pub fn uniform(intervals: CostIntervals, total: usize) -> Self {
        Self::from_shape(Shape::Uniform, intervals, total)
    }

    /// Normal target centered mid-range (the paper's "normal" benchmark,
    /// which simulates TPC-H/TPC-DS-like benchmark workloads).
    pub fn normal(intervals: CostIntervals, total: usize) -> Self {
        Self::from_shape(Shape::Normal { mean_frac: 0.5, sigma_frac: 0.18 }, intervals, total)
    }

    /// Snowset cardinality distribution, variant 1: most queries return few
    /// rows, long tail.
    pub fn snowset_card_1(intervals: CostIntervals, total: usize) -> Self {
        Self::from_shape(Shape::LogNormal { median: 900.0, sigma: 1.3 }, intervals, total)
    }

    /// Snowset cardinality distribution, variant 2: heavy low end plus a
    /// bump of large scans near the top of the range.
    pub fn snowset_card_2(intervals: CostIntervals, total: usize) -> Self {
        Self::from_shape(
            Shape::Bimodal {
                median: 600.0,
                sigma: 1.1,
                bump_center: 7_500.0,
                bump_sigma: 1_200.0,
                bump_mass: 0.3,
            },
            intervals,
            total,
        )
    }

    /// Snowset execution-cost distribution: log-normal body with moderate
    /// spread.
    pub fn snowset_cost(intervals: CostIntervals, total: usize) -> Self {
        Self::from_shape(Shape::LogNormal { median: 1_800.0, sigma: 1.0 }, intervals, total)
    }

    /// Redset execution-cost distribution: very short-query-dominated with
    /// a thicker expensive tail (the Redshift fleet analysis shape).
    pub fn redset_cost(intervals: CostIntervals, total: usize) -> Self {
        Self::from_shape(
            Shape::Bimodal {
                median: 1_000.0,
                sigma: 1.4,
                bump_center: 8_500.0,
                bump_sigma: 1_500.0,
                bump_mass: 0.15,
            },
            intervals,
            total,
        )
    }

    /// Total target query count.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }
}

fn shape_weight(shape: &Shape, intervals: &CostIntervals, j: usize) -> f64 {
    let center = intervals.center(j);
    let range = intervals.hi - intervals.lo;
    match shape {
        Shape::Uniform => 1.0,
        Shape::Empirical { histogram } => histogram.get(j).copied().unwrap_or(0.0),
        Shape::Normal { mean_frac, sigma_frac } => {
            let mean = intervals.lo + mean_frac * range;
            let sigma = sigma_frac * range;
            gaussian(center, mean, sigma)
        }
        Shape::LogNormal { median, sigma } => lognormal(center, *median, *sigma),
        Shape::Bimodal { median, sigma, bump_center, bump_sigma, bump_mass } => {
            (1.0 - bump_mass) * lognormal(center, *median, *sigma)
                / lognormal_norm(intervals, *median, *sigma)
                + bump_mass * gaussian(center, *bump_center, *bump_sigma)
                    / gaussian_norm(intervals, *bump_center, *bump_sigma)
        }
    }
}

fn gaussian(x: f64, mean: f64, sigma: f64) -> f64 {
    let z = (x - mean) / sigma;
    (-0.5 * z * z).exp()
}

fn lognormal(x: f64, median: f64, sigma: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    let z = (x.ln() - median.ln()) / sigma;
    (-0.5 * z * z).exp() / x
}

fn lognormal_norm(intervals: &CostIntervals, median: f64, sigma: f64) -> f64 {
    (0..intervals.count)
        .map(|j| lognormal(intervals.center(j), median, sigma))
        .sum::<f64>()
        .max(1e-12)
}

fn gaussian_norm(intervals: &CostIntervals, mean: f64, sigma: f64) -> f64 {
    (0..intervals.count).map(|j| gaussian(intervals.center(j), mean, sigma)).sum::<f64>().max(1e-12)
}

impl TargetDistribution {
    /// Build a target directly from *observed* costs — the paper's core
    /// scenario: production query text is private, but runtime statistics
    /// (e.g. the published Redset/Snowset logs) are not. The observed
    /// sample histogram is rescaled to `total` queries by largest
    /// remainder; samples outside the interval range are dropped, exactly
    /// like out-of-range generated queries.
    ///
    /// # Panics
    /// Panics when no sample falls inside the interval range.
    pub fn from_samples(samples: &[f64], intervals: CostIntervals, total: usize) -> Self {
        let histogram = intervals.histogram(samples);
        assert!(histogram.iter().sum::<f64>() > 0.0, "no sample falls inside the target range");
        let shape = Shape::Empirical { histogram: histogram.clone() };
        // Largest-remainder apportionment of `total` over the sample mass.
        let mass: f64 = histogram.iter().sum();
        let ideal: Vec<f64> = histogram.iter().map(|h| h / mass * total as f64).collect();
        let mut counts: Vec<f64> = ideal.iter().map(|x| x.floor()).collect();
        let mut remainders: Vec<(usize, f64)> =
            ideal.iter().enumerate().map(|(j, x)| (j, x - x.floor())).collect();
        remainders.sort_by(|a, b| b.1.total_cmp(&a.1));
        let missing = (total as f64 - counts.iter().sum::<f64>()) as usize;
        for &(j, _) in remainders.iter().take(missing) {
            counts[j] += 1.0;
        }
        TargetDistribution { intervals, counts, shape }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid10() -> CostIntervals {
        CostIntervals::paper_default(10)
    }

    #[test]
    fn counts_sum_exactly_to_total() {
        for dist in [
            TargetDistribution::uniform(grid10(), 1000),
            TargetDistribution::normal(grid10(), 1000),
            TargetDistribution::snowset_card_1(grid10(), 1000),
            TargetDistribution::snowset_card_2(grid10(), 1000),
            TargetDistribution::snowset_cost(grid10(), 1000),
            TargetDistribution::redset_cost(grid10(), 1000),
            TargetDistribution::redset_cost(CostIntervals::paper_default(20), 2000),
        ] {
            assert_eq!(dist.total(), dist.counts.iter().sum::<f64>());
            assert_eq!(
                dist.counts.iter().sum::<f64>(),
                if dist.intervals.count == 20 { 2000.0 } else { 1000.0 }
            );
        }
    }

    #[test]
    fn uniform_is_flat() {
        let dist = TargetDistribution::uniform(grid10(), 1000);
        assert!(dist.counts.iter().all(|&c| c == 100.0));
    }

    #[test]
    fn normal_peaks_in_the_middle() {
        let dist = TargetDistribution::normal(grid10(), 1000);
        let peak = dist.counts.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        assert!((4..=5).contains(&peak), "peak at {peak}");
        assert!(dist.counts[0] < dist.counts[4]);
        assert!(dist.counts[9] < dist.counts[5]);
    }

    #[test]
    fn snowset_card_is_left_heavy() {
        let dist = TargetDistribution::snowset_card_1(grid10(), 1000);
        assert!(dist.counts[0] > dist.counts[5]);
        assert!(dist.counts[0] > 200.0);
        // long tail: not everything in the first interval
        assert!(dist.counts[0] < 800.0);
    }

    #[test]
    fn bimodal_has_a_secondary_bump() {
        let dist = TargetDistribution::snowset_card_2(grid10(), 1000);
        // bump near 7.5k: interval 7 should beat interval 5
        assert!(dist.counts[7] > dist.counts[5], "counts: {:?}", dist.counts);
        assert!(dist.counts[0] > dist.counts[3]);
    }

    #[test]
    fn empirical_targets_mirror_the_sample_histogram() {
        let samples: Vec<f64> = (0..500)
            .map(|i| (i % 10) as f64 * 1000.0 + 500.0) // 50 per interval
            .chain(std::iter::repeat_n(250.0, 500)) // 500 extra in interval 0
            .collect();
        let dist = TargetDistribution::from_samples(&samples, grid10(), 1000);
        assert_eq!(dist.total(), 1000.0);
        // interval 0 holds 550/1000 of the sample mass
        assert_eq!(dist.counts[0], 550.0);
        assert!(dist.counts[1..].iter().all(|&c| c == 50.0));
    }

    #[test]
    fn empirical_targets_drop_out_of_range_samples() {
        let samples = vec![500.0, 1_500.0, 99_999.0, -3.0];
        let dist = TargetDistribution::from_samples(&samples, grid10(), 10);
        assert_eq!(dist.total(), 10.0);
        assert_eq!(dist.counts[0], 5.0);
        assert_eq!(dist.counts[1], 5.0);
    }

    #[test]
    #[should_panic(expected = "no sample falls inside")]
    fn empirical_targets_need_in_range_mass() {
        TargetDistribution::from_samples(&[99_999.0], grid10(), 10);
    }

    #[test]
    fn every_interval_of_uniform_gets_mass_even_with_odd_totals() {
        let dist = TargetDistribution::uniform(grid10(), 1003);
        assert_eq!(dist.total(), 1003.0);
        assert!(dist.counts.iter().all(|&c| c == 100.0 || c == 101.0));
    }
}
