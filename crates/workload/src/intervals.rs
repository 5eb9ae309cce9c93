//! Cost intervals.
//!
//! The paper splits the target cost range (always `[0, 10k]` in its
//! evaluation, following LearnedSQLGen) into equal-width intervals
//! `I = {[l_1, u_1), …, [l_n, u_n)}` and drives generation per interval.

/// An equal-width interval grid over a cost range.
#[derive(Debug, Clone, PartialEq)]
pub struct CostIntervals {
    /// Inclusive lower bound of the range.
    pub lo: f64,
    /// Exclusive upper bound of the range (the last interval is closed:
    /// a cost exactly equal to `hi` lands in the final interval).
    pub hi: f64,
    /// Number of intervals.
    pub count: usize,
}

impl CostIntervals {
    /// New grid.
    ///
    /// # Panics
    /// Panics when `hi <= lo` or `count == 0`.
    pub fn new(lo: f64, hi: f64, count: usize) -> CostIntervals {
        assert!(hi > lo, "empty cost range");
        assert!(count > 0, "need at least one interval");
        CostIntervals { lo, hi, count }
    }

    /// The paper's default working range `[0, 10k]`.
    pub fn paper_default(count: usize) -> CostIntervals {
        CostIntervals::new(0.0, 10_000.0, count)
    }

    /// Width of each interval.
    pub fn width(&self) -> f64 {
        (self.hi - self.lo) / self.count as f64
    }

    /// Index of the interval containing `cost`, or `None` when the cost
    /// falls outside the working range or is NaN.
    pub fn interval_of(&self, cost: f64) -> Option<usize> {
        if !(cost >= self.lo && cost <= self.hi) {
            return None;
        }
        let idx = ((cost - self.lo) / self.width()) as usize;
        Some(idx.min(self.count - 1))
    }

    /// Bounds `[l_j, u_j)` of interval `j`.
    pub fn bounds(&self, j: usize) -> (f64, f64) {
        debug_assert!(j < self.count);
        (self.lo + j as f64 * self.width(), self.lo + (j + 1) as f64 * self.width())
    }

    /// Midpoint of interval `j`.
    pub fn center(&self, j: usize) -> f64 {
        let (l, u) = self.bounds(j);
        (l + u) / 2.0
    }

    /// Human label like `0.0k-1.0k` (matching the paper's figure axes).
    pub fn label(&self, j: usize) -> String {
        let (l, u) = self.bounds(j);
        format!("{:.1}k-{:.1}k", l / 1000.0, u / 1000.0)
    }

    /// Histogram of costs over this grid (out-of-range costs are dropped,
    /// as in the paper: queries outside the working range count toward no
    /// interval).
    pub fn histogram(&self, costs: &[f64]) -> Vec<f64> {
        let mut counts = vec![0.0; self.count];
        for &cost in costs {
            if let Some(j) = self.interval_of(cost) {
                counts[j] += 1.0;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_lookup_and_bounds() {
        let grid = CostIntervals::paper_default(10);
        assert_eq!(grid.width(), 1000.0);
        assert_eq!(grid.interval_of(0.0), Some(0));
        assert_eq!(grid.interval_of(999.9), Some(0));
        assert_eq!(grid.interval_of(1000.0), Some(1));
        assert_eq!(grid.interval_of(10_000.0), Some(9));
        assert_eq!(grid.interval_of(10_000.1), None);
        assert_eq!(grid.interval_of(-1.0), None);
        assert_eq!(grid.bounds(3), (3000.0, 4000.0));
        assert_eq!(grid.center(0), 500.0);
    }

    #[test]
    fn labels_match_paper_axis_format() {
        let grid = CostIntervals::paper_default(20);
        assert_eq!(grid.label(0), "0.0k-0.5k");
        assert_eq!(grid.label(19), "9.5k-10.0k");
    }

    #[test]
    fn histogram_counts_and_drops_outliers() {
        let grid = CostIntervals::paper_default(10);
        let h = grid.histogram(&[100.0, 150.0, 2500.0, 99_999.0, -5.0]);
        assert_eq!(h[0], 2.0);
        assert_eq!(h[2], 1.0);
        assert_eq!(h.iter().sum::<f64>(), 3.0);
    }

    #[test]
    fn nan_cost_falls_in_no_interval() {
        let grid = CostIntervals::paper_default(10);
        assert_eq!(grid.interval_of(f64::NAN), None);
        assert_eq!(grid.interval_of(f64::INFINITY), None);
        let h = grid.histogram(&[f64::NAN, 100.0, f64::NAN]);
        assert_eq!(h[0], 1.0);
        assert_eq!(h.iter().sum::<f64>(), 1.0);
    }

    #[test]
    #[should_panic(expected = "empty cost range")]
    fn degenerate_range_panics() {
        CostIntervals::new(5.0, 5.0, 3);
    }
}
