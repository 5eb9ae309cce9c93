//! Random-forest regression surrogate.
//!
//! SMAC-style: bootstrap-sampled CART regression trees with random feature
//! subsets; the predictive mean is the average of per-tree leaf means and
//! the predictive uncertainty is the standard deviation across trees. Small
//! and dependency-free — training sets in the predicate search are a few
//! hundred points.
//!
//! **Split rule.** A node becomes a leaf at `max_depth`, below
//! `2 * min_leaf` rows, at near-zero target variance, or when no split
//! qualifies. Otherwise it draws a random feature subset and, per feature,
//! tries at most [`MAX_THRESHOLDS`] thresholds: the midpoints between the
//! sorted distinct values at positions `⌊k·(m−1)/12⌋` (`k = 0..12`, `m`
//! distinct values, repeats skipped). A threshold qualifies when both sides
//! keep `min_leaf` rows; the lowest sum of squared errors wins, the first
//! one in (feature draw, `k`) order on ties.
//!
//! **Flat layout.** Each tree is a pre-order `Vec<Node>`: a split's left
//! child sits right after it and its right child at `Node::right`. A fit
//! transposes `x` once into column-major storage and sorts each column's
//! row order once; all trees share both. Each tree keeps its bootstrap rows
//! twice: in draw order, and per feature in value order (the fit's order
//! expanded by draw counts). A node owns the same range of every list, and
//! a split partitions each list in place and stably, so a child sees its
//! rows in draw order and already sorted by every feature. Split search
//! therefore never sorts, and no node allocates. Its two passes score all
//! thresholds of a feature at once (see `kernel`).
//!
//! **1-D step table.** A forest fitted on one-dimensional points is an
//! exact step function of `x`; [`RandomForest::fit`] tabulates it and
//! [`RandomForest::predict`] looks `x` up instead of walking every tree
//! (see `Steps`). Forests in any other dimension keep their trees.
//!
//! **Bit-identity contract.** Trees and `(mean, σ)` are bit-identical to
//! the recursive formulation kept as the test oracle (`forest/reference.rs`):
//! the RNG draws happen in the same order (bootstrap, then each split
//! node's feature shuffle, left subtree before right), every float
//! accumulator adds the same terms in the same (draw) order, and the
//! sorted values are the same sequence, since values that `total_cmp`
//! calls equal are bit-equal.

use crate::parallel::{parallel_map, split_seed};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod kernel;
#[cfg(test)]
mod reference;

/// Candidate thresholds tried per feature at a split.
const MAX_THRESHOLDS: usize = 12;

/// Forests up to this size buffer their per-tree predictions on the stack
/// in [`RandomForest::predict`]; larger ones walk each tree once per moment.
const STACK_TREES: usize = 32;

/// Forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestConfig {
    pub n_trees: usize,
    pub max_depth: usize,
    pub min_leaf: usize,
    /// Fraction of features tried per split (≥ 1 feature always tried).
    pub feature_fraction: f64,
    pub seed: u64,
    /// Worker threads for tree fitting (trees are independent); results
    /// are identical at any thread count because each tree's RNG seed is
    /// split from `(seed, tree index)`, never shared.
    pub threads: usize,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 25,
            max_depth: 12,
            min_leaf: 3,
            feature_fraction: 0.7,
            seed: 0,
            threads: 1,
        }
    }
}

/// A trained random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    model: Model,
}

/// How a forest answers [`RandomForest::predict`]: a 1-D forest holds its
/// step table instead of its trees.
#[derive(Debug, Clone)]
enum Model {
    Trees(Vec<Vec<Node>>),
    Steps(Steps),
}

/// One pre-order tree node. A split (`right != 0`) sends
/// `point[feature] <= value` to the next node and everything else to
/// `right`; a leaf (`right == 0`, never a child's index) predicts `value`.
#[derive(Debug, Clone, Copy)]
struct Node {
    value: f64,
    feature: u32,
    right: u32,
}

impl RandomForest {
    /// Fit a forest on `(x, y)`; `x` rows are unit-hypercube points.
    ///
    /// # Panics
    /// Panics when `x` and `y` lengths differ, the training set is empty,
    /// or a row is shorter than the first.
    pub fn fit(x: &[Vec<f64>], y: &[f64], config: ForestConfig) -> RandomForest {
        RandomForest::fit_points(x.iter().map(Vec::as_slice), y, config)
    }

    /// [`RandomForest::fit`] over borrowed rows, for callers whose points
    /// live inside other records.
    pub(crate) fn fit_points<'a>(
        points: impl ExactSizeIterator<Item = &'a [f64]>,
        y: &[f64],
        config: ForestConfig,
    ) -> RandomForest {
        assert_eq!(points.len(), y.len(), "x/y length mismatch");
        assert!(!y.is_empty(), "empty training set");
        let data = Training::new(points, y, config);
        // One `()` per tree, so the index is the tree: a vector of
        // zero-sized items never allocates.
        let trees = parallel_map(config.threads.max(1), &vec![(); config.n_trees], |tree, ()| {
            let mut rng = StdRng::seed_from_u64(split_seed(config.seed, tree as u64));
            // Bootstrap sample.
            let n = data.n;
            let rows: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            let mut builder = TreeBuilder::new(&data, rows);
            builder.grow(0, n, 0, &mut rng);
            builder.nodes
        });
        let steps = if data.d == 1 { Steps::new(&trees) } else { None };
        let model = match steps {
            Some(steps) => Model::Steps(steps),
            None => Model::Trees(trees),
        };
        RandomForest { model }
    }

    /// Predictive mean and standard deviation at a point.
    // detlint::hot
    pub fn predict(&self, point: &[f64]) -> (f64, f64) {
        let trees = match &self.model {
            Model::Steps(steps) => return steps.predict(point),
            Model::Trees(trees) => trees,
        };
        let n = trees.len();
        let walks = trees.iter().map(|tree| walk(tree, point));
        let mut buffer = [0.0; STACK_TREES];
        match buffer.get_mut(..n) {
            Some(slots) => {
                for (slot, prediction) in slots.iter_mut().zip(walks) {
                    *slot = prediction;
                }
                moments(n, slots.iter().copied())
            }
            None => moments(n, walks),
        }
    }

    /// Number of trees (for diagnostics).
    pub fn n_trees(&self) -> usize {
        match &self.model {
            Model::Trees(trees) => trees.len(),
            Model::Steps(steps) => steps.n_trees,
        }
    }
}

/// A 1-D forest as the step function it is. Every split tests `x <= t`
/// for a `t` among the steps' bounds (the forest's distinct thresholds,
/// ascending), so all `x` in `(steps[k - 1].upper, steps[k].upper]` take
/// the same branch at every split of every tree, reach the same leaves and
/// get the same `(mean, σ)` bits, those of `steps[k]`. The last step has no
/// bound: it takes everything above the last one, and NaN, which goes
/// right at every split.
#[derive(Debug, Clone)]
struct Steps {
    n_trees: usize,
    steps: Vec<Step>,
}

#[derive(Debug, Clone, Copy)]
struct Step {
    upper: f64,
    mean: f64,
    sigma: f64,
}

impl Steps {
    /// Tabulate a forest of 1-D trees; `None` when it has no trees or a NaN
    /// threshold (which no `x` is within, so it orders nothing).
    fn new(trees: &[Vec<Node>]) -> Option<Steps> {
        let thresholds = || trees.iter().flatten().filter(|node| node.right != 0);
        if trees.is_empty() || thresholds().any(|node| node.value.is_nan()) {
            return None;
        }
        let step = |upper| Step { upper, mean: 0.0, sigma: 0.0 };
        let mut steps = Vec::with_capacity(thresholds().count() + 1);
        steps.extend(thresholds().map(|node| step(node.value)));
        steps.sort_unstable_by(|a, b| a.upper.total_cmp(&b.upper));
        // `==`, not bits: -0.0 and 0.0 split every point alike.
        steps.dedup_by(|a, b| a.upper == b.upper);
        steps.push(step(f64::NAN));
        // Each step's leaf value in every tree, step-major. A tree's leaves
        // ascend in x, so one cursor per tree sweeps the steps: step `k`
        // belongs to the first leaf whose bound its own is within, and the
        // last leaf (the all-right path) also takes the unbounded step.
        let (n, last) = (trees.len(), steps.len() - 1);
        let mut leaves = vec![0.0; steps.len() * n];
        for (t, tree) in trees.iter().enumerate() {
            let mut k = 0;
            for_each_leaf(tree, 0, f64::INFINITY, &mut |upper, value| {
                while k < last && steps[k].upper <= upper {
                    leaves[k * n + t] = value;
                    k += 1;
                }
                leaves[last * n + t] = value;
            });
        }
        for (step, row) in steps.iter_mut().zip(leaves.chunks_exact(n)) {
            (step.mean, step.sigma) = moments(n, row.iter().copied());
        }
        Some(Steps { n_trees: n, steps })
    }

    /// The tabulated `(mean, σ)` at `point[0]`; a table with one step never
    /// reads the point.
    // detlint::hot
    fn predict(&self, point: &[f64]) -> (f64, f64) {
        let bounded = &self.steps[..self.steps.len() - 1];
        let k = match bounded {
            [] => 0,
            _ => match point[0] {
                // NaN goes right at every split, past every bound.
                x if x.is_nan() => bounded.len(),
                x => bounded.partition_point(|step| step.upper < x),
            },
        };
        let step = &self.steps[k];
        (step.mean, step.sigma)
    }
}

/// Calls `leaf(upper, value)` for each leaf of the 1-D subtree at `i`, in
/// pre-order, where `upper` is the least of the given `upper` (`+inf` at
/// the root) and the thresholds of the leaf's left-turn ancestors. An `x`
/// reaches the first leaf whose `upper` it is within: a leaf before it
/// branched left where `x` went right, so below a threshold `x` exceeds.
fn for_each_leaf(tree: &[Node], i: usize, upper: f64, leaf: &mut impl FnMut(f64, f64)) {
    let node = tree[i];
    if node.right == 0 {
        return leaf(upper, node.value);
    }
    for_each_leaf(tree, i + 1, upper.min(node.value), leaf);
    for_each_leaf(tree, node.right as usize, upper, leaf);
}

/// Mean and standard deviation of `n` per-tree predictions, each moment an
/// `Iterator::sum` in tree order (the float `Sum` fold starts at -0.0, so a
/// hand-rolled fold from 0.0 would differ when every term is -0.0).
fn moments(n: usize, predictions: impl Iterator<Item = f64> + Clone) -> (f64, f64) {
    let n = n as f64;
    let mean = predictions.clone().sum::<f64>() / n;
    let variance = predictions.map(|p| (p - mean) * (p - mean)).sum::<f64>() / n;
    (mean, variance.sqrt())
}

/// The leaf value `point` reaches in a pre-order tree.
// detlint::hot
fn walk(tree: &[Node], point: &[f64]) -> f64 {
    let mut i = 0;
    loop {
        let node = tree[i];
        if node.right == 0 {
            return node.value;
        }
        i = if point[node.feature as usize] <= node.value { i + 1 } else { node.right as usize };
    }
}

/// What every tree of one fit shares.
struct Training<'a> {
    n: usize,
    d: usize,
    /// Column-major `x`: feature `f` of row `i` at `columns[f * n + i]`.
    columns: Vec<f64>,
    /// Per feature, the rows `0..n` ordered by that feature's value
    /// (`total_cmp`), feature `f` at `by_value[f * n..(f + 1) * n]`.
    by_value: Vec<usize>,
    y: &'a [f64],
    config: ForestConfig,
}

impl<'a> Training<'a> {
    fn new<'p>(
        points: impl Iterator<Item = &'p [f64]>,
        y: &'a [f64],
        config: ForestConfig,
    ) -> Training<'a> {
        let n = y.len();
        let mut points = points.peekable();
        let d = points.peek().map_or(0, |p| p.len());
        let mut columns = vec![0.0; n * d];
        for (i, point) in points.enumerate() {
            for (f, &v) in point[..d].iter().enumerate() {
                columns[f * n + i] = v;
            }
        }
        let mut by_value: Vec<usize> = (0..d).flat_map(|_| 0..n).collect();
        for (column, order) in columns.chunks_exact(n).zip(by_value.chunks_exact_mut(n)) {
            order.sort_unstable_by(|&a, &b| column[a].total_cmp(&column[b]));
        }
        Training { n, d, columns, by_value, y, config }
    }

    fn column(&self, feature: usize) -> &[f64] {
        &self.columns[feature * self.n..(feature + 1) * self.n]
    }
}

/// One tree's fitting state. Each node owns the range `lo..hi` of both
/// row lists, and scratch buffers are reused by every node.
struct TreeBuilder<'a> {
    data: &'a Training<'a>,
    /// The bootstrap rows; a node's range holds its rows in draw order.
    rows: Vec<usize>,
    /// Per feature (`f * n` offset), a node's range holds its rows ordered
    /// by that feature, so split search reads sorted values without sorting.
    sorted: Vec<usize>,
    /// The current node's targets, in draw order.
    ys: Vec<f64>,
    /// One feature of the current node's rows, in draw order.
    xs: Vec<f64>,
    /// That feature's distinct values, ascending.
    distinct: Vec<f64>,
    /// Right-side rows while partitioning.
    spill: Vec<usize>,
    features: Vec<usize>,
    nodes: Vec<Node>,
}

impl<'a> TreeBuilder<'a> {
    fn new(data: &'a Training<'a>, rows: Vec<usize>) -> TreeBuilder<'a> {
        let (n, d) = (data.n, data.d);
        // The bootstrap keeps each row's draw count; expanding the fit's
        // per-feature orders by those counts sorts the sample per feature.
        let mut copies = vec![0; n];
        for &row in &rows {
            copies[row] += 1;
        }
        let mut sorted = Vec::with_capacity(n * d);
        for &row in &data.by_value {
            sorted.extend(std::iter::repeat_n(row, copies[row]));
        }
        // Every leaf below the root keeps ≥ max(min_leaf, 1) rows.
        let max_leaves = n / data.config.min_leaf.max(1) + 1;
        TreeBuilder {
            data,
            rows,
            sorted,
            ys: Vec::with_capacity(n),
            xs: Vec::with_capacity(n),
            distinct: Vec::with_capacity(n),
            spill: Vec::with_capacity(n),
            features: Vec::with_capacity(d),
            nodes: Vec::with_capacity(2 * max_leaves),
        }
    }

    /// Append the pre-order subtree over `rows[lo..hi]`.
    fn grow(&mut self, lo: usize, hi: usize, depth: usize, rng: &mut StdRng) {
        let data = self.data;
        let config = &data.config;
        self.ys.clear();
        self.ys.extend(self.rows[lo..hi].iter().map(|&i| data.y[i]));
        let len = hi - lo;
        let mean = self.ys.iter().sum::<f64>() / len as f64;
        let at = self.nodes.len();
        self.nodes.push(Node { value: mean, feature: 0, right: 0 });
        if depth >= config.max_depth || len < 2 * config.min_leaf {
            return;
        }
        let variance = self.ys.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>();
        let d = data.d;
        if variance < 1e-12 || d == 0 {
            return;
        }
        let n_features = ((d as f64 * config.feature_fraction).ceil() as usize).clamp(1, d);
        // Random feature subset without replacement (d is small).
        self.features.clear();
        self.features.extend(0..d);
        for i in 0..n_features {
            let j = rng.gen_range(i..d);
            self.features.swap(i, j);
        }
        let Some((feature, threshold)) = self.best_split(lo, hi, n_features) else {
            return;
        };
        let mid = self.partition(lo, hi, feature, threshold);
        let feature = u32::try_from(feature).expect("feature index fits u32");
        self.nodes[at] = Node { value: threshold, feature, right: 0 };
        self.grow(lo, mid, depth + 1, rng);
        self.nodes[at].right = u32::try_from(self.nodes.len()).expect("node index fits u32");
        self.grow(mid, hi, depth + 1, rng);
    }

    /// The lowest-SSE qualifying `(feature, threshold)` over the first
    /// `n_features` drawn features, scoring every threshold of a feature
    /// in two fused passes over the node's rows (`ys` must hold its
    /// targets).
    // detlint::hot
    fn best_split(&mut self, lo: usize, hi: usize, n_features: usize) -> Option<(usize, f64)> {
        let data = self.data;
        let (n, min_leaf, len) = (data.n, data.config.min_leaf, hi - lo);
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        for &feature in &self.features[..n_features] {
            let column = data.column(feature);
            self.xs.clear();
            self.xs.extend(self.rows[lo..hi].iter().map(|&i| column[i]));
            let sorted = &self.sorted[feature * n..][lo..hi];
            self.distinct.clear();
            self.distinct.extend(sorted.iter().map(|&i| column[i]));
            self.distinct.dedup();
            let values = &self.distinct;
            if values.len() < 2 {
                continue;
            }
            // Unused lanes keep a NaN threshold (every row goes right);
            // only the first `m` lanes are read back.
            let mut thresholds = [f64::NAN; MAX_THRESHOLDS];
            let mut m = 0;
            let step = (values.len() - 1).max(1) as f64 / MAX_THRESHOLDS as f64;
            let mut last = usize::MAX;
            for k in 0..MAX_THRESHOLDS {
                // `idx` never decreases in `k`, so a repeat is always the
                // previous index.
                let idx = ((k as f64 * step) as usize).min(values.len() - 2);
                if idx == last {
                    continue;
                }
                last = idx;
                thresholds[m] = (values[idx] + values[idx + 1]) / 2.0;
                m += 1;
            }

            let sums = kernel::side_sums(&self.xs, &self.ys, &thresholds);
            let mut left_mean = [0.0f64; MAX_THRESHOLDS];
            let mut right_mean = [0.0f64; MAX_THRESHOLDS];
            let mut qualifies = [false; MAX_THRESHOLDS];
            for t in 0..m {
                let (ln, rn) = (sums.left_n[t], len - sums.left_n[t]);
                qualifies[t] = ln >= min_leaf && rn >= min_leaf;
                left_mean[t] = sums.left_sum[t] / ln as f64;
                right_mean[t] = sums.right_sum[t] / rn as f64;
            }
            if !qualifies.contains(&true) {
                continue;
            }
            let sse = kernel::side_sse(&self.xs, &self.ys, &thresholds, &left_mean, &right_mean);
            for t in (0..m).filter(|&t| qualifies[t]) {
                if best.is_none_or(|(_, _, b)| sse[t] < b) {
                    best = Some((feature, thresholds[t], sse[t]));
                }
            }
        }
        best.map(|(feature, threshold, _)| (feature, threshold))
    }

    /// Split the node `lo..hi` on `x[feature] <= threshold`, keeping each
    /// side's rows in their order in every list; returns where the right
    /// side starts.
    fn partition(&mut self, lo: usize, hi: usize, feature: usize, threshold: f64) -> usize {
        let data = self.data;
        let column = data.column(feature);
        let goes_left = |row: usize| column[row] <= threshold;
        let mid = lo + stable_partition(&mut self.rows[lo..hi], &mut self.spill, goes_left);
        for f in 0..data.d {
            let sorted = &mut self.sorted[f * data.n..][lo..hi];
            stable_partition(sorted, &mut self.spill, goes_left);
        }
        mid
    }
}

/// Stable in-place partition of `rows`, those where `goes_left` holds
/// first; returns how many do. Branch-free: every row is written to both
/// sides and only the matching cursor advances.
fn stable_partition(
    rows: &mut [usize],
    spill: &mut Vec<usize>,
    goes_left: impl Fn(usize) -> bool,
) -> usize {
    spill.clear();
    spill.resize(rows.len(), 0);
    let (mut left, mut right) = (0, 0);
    for read in 0..rows.len() {
        let row = rows[read];
        let le = goes_left(row);
        rows[left] = row;
        spill[right] = row;
        left += usize::from(le);
        right += usize::from(!le);
    }
    rows[left..].copy_from_slice(&spill[..right]);
    left
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_1d(f: impl Fn(f64) -> f64, n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|p| f(p[0])).collect();
        (x, y)
    }

    #[test]
    fn fits_a_monotone_function() {
        let (x, y) = grid_1d(|v| 10.0 * v, 200);
        let forest = RandomForest::fit(&x, &y, ForestConfig::default());
        let (low, _) = forest.predict(&[0.1]);
        let (high, _) = forest.predict(&[0.9]);
        assert!((low - 1.0).abs() < 1.0, "low {low}");
        assert!((high - 9.0).abs() < 1.0, "high {high}");
        assert!(high > low + 5.0);
    }

    #[test]
    fn fits_a_nonlinear_function() {
        let (x, y) = grid_1d(|v| (v * 6.0).sin(), 300);
        let forest = RandomForest::fit(&x, &y, ForestConfig::default());
        let (peak, _) = forest.predict(&[0.26]); // sin(1.57) ≈ 1
        assert!(peak > 0.7, "peak {peak}");
        let (trough, _) = forest.predict(&[0.79]); // sin(4.71) ≈ -1
        assert!(trough < -0.7, "trough {trough}");
    }

    #[test]
    fn points_beyond_the_data_share_the_rightmost_leaves() {
        // Train only on [0, 0.495]. Every threshold is a midpoint between
        // two training values, so any point past the largest one goes
        // right at every split: each tree routes it to its rightmost leaf
        // and all such points get the same prediction bits. Bootstrap
        // resampling makes those leaves disagree, so σ stays positive.
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 200.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (p[0] * 20.0).sin()).collect();
        let forest = RandomForest::fit(&x, &y, ForestConfig::default());
        let (mean, sigma) = forest.predict(&[0.5]);
        assert!(sigma > 0.0, "σ {sigma}");
        for p in [0.6, 0.75, 0.95, 1.0, 7.0, f64::INFINITY] {
            let (m, s) = forest.predict(&[p]);
            assert_eq!(m.to_bits(), mean.to_bits(), "mean differs at {p}");
            assert_eq!(s.to_bits(), sigma.to_bits(), "σ differs at {p}");
        }
    }

    /// Fits both forests and checks `(mean, σ)` bits at `points`.
    fn assert_matches_reference(
        x: &[Vec<f64>],
        y: &[f64],
        config: ForestConfig,
        points: &[f64],
    ) -> RandomForest {
        let flat = RandomForest::fit(x, y, config);
        let oracle = reference::RandomForest::fit(x, y, config);
        for &p in points {
            let (m1, s1) = flat.predict(&[p]);
            let (m2, s2) = oracle.predict(&[p]);
            assert_eq!(m1.to_bits(), m2.to_bits(), "mean at {p}");
            assert_eq!(s1.to_bits(), s2.to_bits(), "σ at {p}");
        }
        flat
    }

    #[test]
    fn constant_target_yields_zero_variance() {
        // Every tree is a single leaf, so the 1-D table has one step and
        // answers without reading the point.
        let (x, y) = grid_1d(|_| 3.0, 50);
        let points = [0.5, -0.0, 0.0, f64::NEG_INFINITY, f64::INFINITY, f64::NAN];
        let forest = assert_matches_reference(&x, &y, ForestConfig::default(), &points);
        let Model::Steps(steps) = &forest.model else { panic!("1-D forest kept its trees") };
        assert_eq!(steps.steps.len(), 1);
        assert_eq!(forest.n_trees(), 25);
        assert_eq!(forest.predict(&[]), (3.0, 0.0));
    }

    #[test]
    fn infinite_thresholds_keep_the_table_exact() {
        // Midpoints between huge values overflow: (MAX + inf) / 2 and
        // (MAX/2 + MAX) / 2 are +inf, a threshold that `+inf` itself is
        // within. It sends every row left, which qualifies only at
        // `min_leaf` 0. Above it only NaN remains, which goes right
        // everywhere.
        let values = [-1.0, 0.0, 0.5, f64::MAX / 2.0, f64::MAX, f64::INFINITY];
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![values[i % values.len()]]).collect();
        let y: Vec<f64> = (0..60).map(|i| (i % values.len()) as f64).collect();
        let config = ForestConfig { min_leaf: 0, max_depth: 6, seed: 4, ..ForestConfig::default() };
        let oracle = reference::RandomForest::fit(&x, &y, config);
        let thresholds = oracle.thresholds();
        assert!(thresholds.contains(&f64::INFINITY), "thresholds {thresholds:?}");
        let mut points = vec![f64::NEG_INFINITY, -0.0, 0.0, f64::MAX, f64::INFINITY, f64::NAN];
        for t in thresholds {
            points.extend([t.next_down(), t, t.next_up()]);
        }
        let forest = assert_matches_reference(&x, &y, config, &points);
        let Model::Steps(steps) = &forest.model else { panic!("1-D forest kept its trees") };
        let bounds: Vec<f64> = steps.steps.iter().map(|step| step.upper).collect();
        assert_eq!(bounds[bounds.len() - 2], f64::INFINITY, "bounds {bounds:?}");
    }

    #[test]
    fn a_nan_threshold_keeps_the_trees() {
        // (-inf + inf) / 2 is NaN: no x is within it, so it orders nothing.
        // It sends every row right, which qualifies only at `min_leaf` 0.
        let x: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![if i % 2 == 0 { f64::NEG_INFINITY } else { f64::INFINITY }])
            .collect();
        let y: Vec<f64> = (0..40).map(|i| (i % 2) as f64).collect();
        let config = ForestConfig { min_leaf: 0, max_depth: 3, ..ForestConfig::default() };
        let points = [f64::NEG_INFINITY, 0.0, f64::INFINITY, f64::NAN];
        let forest = assert_matches_reference(&x, &y, config, &points);
        assert!(matches!(forest.model, Model::Trees(_)));
    }

    #[test]
    fn handles_multidimensional_inputs() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let a = i as f64 / 19.0;
                let b = j as f64 / 19.0;
                x.push(vec![a, b]);
                y.push(a * 5.0 + b * -3.0);
            }
        }
        let forest = RandomForest::fit(&x, &y, ForestConfig::default());
        let (p, _) = forest.predict(&[1.0, 0.0]);
        assert!((p - 5.0).abs() < 1.0, "got {p}");
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_panics() {
        RandomForest::fit(&[], &[], ForestConfig::default());
    }

    #[test]
    fn parallel_fit_is_bit_identical_to_serial() {
        let (x, y) = grid_1d(|v| (v * 4.0).cos() + v, 150);
        let serial =
            RandomForest::fit(&x, &y, ForestConfig { seed: 11, threads: 1, ..Default::default() });
        let parallel =
            RandomForest::fit(&x, &y, ForestConfig { seed: 11, threads: 4, ..Default::default() });
        for i in 0..=20 {
            let p = [i as f64 / 20.0];
            let (m1, s1) = serial.predict(&p);
            let (m2, s2) = parallel.predict(&p);
            assert_eq!(m1.to_bits(), m2.to_bits(), "mean differs at {p:?}");
            assert_eq!(s1.to_bits(), s2.to_bits(), "sigma differs at {p:?}");
        }
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        /// A training set of `n` rows in `d` dimensions: x uniform, on a
        /// coarse grid, drawn from three repeated values, from two
        /// neighbouring floats, or from extremes whose midpoints overflow
        /// to ±inf or NaN; y uniform, constant (possibly -0.0), or mostly
        /// ±0.0.
        const EXTREMES: [f64; 8] =
            [f64::NEG_INFINITY, f64::MIN, -1.0, -0.0, 0.0, f64::MAX / 2.0, f64::MAX, f64::INFINITY];

        fn training_set(
            n: usize,
            d: usize,
            x_shape: u8,
            y_shape: u8,
            seed: u64,
        ) -> (Vec<Vec<f64>>, Vec<f64>) {
            let mut rng = StdRng::seed_from_u64(seed);
            let levels = rng.gen_range(2..=6);
            let pool: Vec<f64> = (0..3).map(|_| rng.gen()).collect();
            // Neighbouring floats: their midpoint rounds onto one of them,
            // so a threshold equals a training value.
            let base: f64 = rng.gen();
            let neighbours = [base, f64::from_bits(base.to_bits() + 1)];
            let x: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    (0..d)
                        .map(|_| match x_shape {
                            0 => rng.gen(),
                            1 => rng.gen_range(0..levels) as f64 / (levels - 1) as f64,
                            2 => pool[rng.gen_range(0..pool.len())],
                            3 => neighbours[rng.gen_range(0..2)],
                            _ => EXTREMES[rng.gen_range(0..EXTREMES.len())],
                        })
                        .collect()
                })
                .collect();
            let constant = if rng.gen() { -0.0 } else { rng.gen_range(-5.0..5.0) };
            let y: Vec<f64> = (0..n)
                .map(|_| match y_shape {
                    0 => rng.gen_range(-5.0..5.0),
                    1 => constant,
                    _ => match rng.gen_range(0..10) {
                        0..=3 => 0.0,
                        4..=7 => -0.0,
                        _ => rng.gen_range(-5.0..5.0),
                    },
                })
                .collect();
            (x, y)
        }

        /// Query points: training rows (which sit on split boundaries),
        /// grid points, uniform points reaching past the unit cube, every
        /// split threshold of `forest` and both its neighbouring floats,
        /// and ±0.0, ±inf and NaN (each value in every coordinate).
        fn query_points(
            x: &[Vec<f64>],
            d: usize,
            seed: u64,
            forest: &reference::RandomForest,
        ) -> Vec<Vec<f64>> {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let mut points: Vec<Vec<f64>> = x.iter().take(15).cloned().collect();
            points.extend((0..15).map(|i| vec![i as f64 / 14.0; d]));
            while points.len() < 50 {
                points.push((0..d).map(|_| rng.gen_range(-0.2..1.2)).collect());
            }
            let mut values = vec![-0.0, 0.0, f64::NEG_INFINITY, f64::INFINITY, f64::NAN];
            for t in forest.thresholds() {
                values.extend([t.next_down(), t, t.next_up()]);
            }
            points.extend(values.into_iter().map(|v| vec![v; d]));
            points
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn flat_forest_matches_the_recursive_reference_bit_for_bit(
                n in 1usize..=400,
                d in 0usize..=5,
                x_shape in 0u8..5,
                y_shape in 0u8..3,
                data_seed in any::<u64>(),
                n_trees in 1usize..=2 * STACK_TREES,
                max_depth in 0usize..=14,
                min_leaf in 0usize..=8,
                fraction_twentieths in 0u8..=20,
                seed in any::<u64>(),
                threads in prop::sample::select(vec![1usize, 4]),
            ) {
                let (x, y) = training_set(n, d, x_shape, y_shape, data_seed);
                let config = ForestConfig {
                    n_trees,
                    max_depth,
                    min_leaf,
                    feature_fraction: f64::from(fraction_twentieths) / 20.0,
                    seed,
                    threads,
                };
                let flat = RandomForest::fit(&x, &y, config);
                let oracle = reference::RandomForest::fit(&x, &y, ForestConfig { threads: 1, ..config });
                prop_assert_eq!(flat.n_trees(), oracle.n_trees());
                // Every 1-D forest with trees and no NaN threshold is a table.
                let tabulated = d == 1 && n_trees > 0 && !oracle.thresholds().iter().any(|t| t.is_nan());
                prop_assert_eq!(matches!(flat.model, Model::Steps(_)), tabulated);
                for point in query_points(&x, d, data_seed, &oracle) {
                    let (m1, s1) = flat.predict(&point);
                    let (m2, s2) = oracle.predict(&point);
                    prop_assert_eq!(m1.to_bits(), m2.to_bits(), "mean at {:?}", point);
                    prop_assert_eq!(s1.to_bits(), s2.to_bits(), "σ at {:?}", point);
                }
            }
        }
    }
}
