//! The recursive forest the flat layout replaced, kept verbatim as the
//! test oracle: [`super::RandomForest`] must reproduce its `(mean, σ)`
//! bits exactly for every training set, config and query point.

use super::ForestConfig;
use crate::parallel::{parallel_map, split_seed};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A trained random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<Tree>,
}

#[derive(Debug, Clone)]
enum Tree {
    Leaf(f64),
    Node { feature: usize, threshold: f64, left: Box<Tree>, right: Box<Tree> },
}

impl RandomForest {
    /// Fit a forest on `(x, y)`; `x` rows are unit-hypercube points.
    ///
    /// # Panics
    /// Panics when `x` and `y` lengths differ or the training set is empty.
    pub fn fit(x: &[Vec<f64>], y: &[f64], config: ForestConfig) -> RandomForest {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(!x.is_empty(), "empty training set");
        let n = x.len();
        let tree_ids: Vec<u64> = (0..config.n_trees as u64).collect();
        let trees = parallel_map(config.threads.max(1), &tree_ids, |_, &tree| {
            let mut rng = StdRng::seed_from_u64(split_seed(config.seed, tree));
            // Bootstrap sample.
            let indices: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            build_tree(x, y, &indices, 0, &config, &mut rng)
        });
        RandomForest { trees }
    }

    /// Predictive mean and standard deviation at a point.
    pub fn predict(&self, point: &[f64]) -> (f64, f64) {
        let predictions: Vec<f64> =
            self.trees.iter().map(|t| predict_tree(t, point)).collect();
        let n = predictions.len() as f64;
        let mean = predictions.iter().sum::<f64>() / n;
        let variance =
            predictions.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / n;
        (mean, variance.sqrt())
    }

    /// Number of trees (for diagnostics).
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Every split threshold, tree by tree in pre-order.
    pub fn thresholds(&self) -> Vec<f64> {
        fn collect(tree: &Tree, out: &mut Vec<f64>) {
            if let Tree::Node { threshold, left, right, .. } = tree {
                out.push(*threshold);
                collect(left, out);
                collect(right, out);
            }
        }
        let mut out = Vec::new();
        for tree in &self.trees {
            collect(tree, &mut out);
        }
        out
    }
}

fn build_tree(
    x: &[Vec<f64>],
    y: &[f64],
    indices: &[usize],
    depth: usize,
    config: &ForestConfig,
    rng: &mut StdRng,
) -> Tree {
    let mean = indices.iter().map(|&i| y[i]).sum::<f64>() / indices.len() as f64;
    if depth >= config.max_depth || indices.len() < 2 * config.min_leaf {
        return Tree::Leaf(mean);
    }
    let variance =
        indices.iter().map(|&i| (y[i] - mean) * (y[i] - mean)).sum::<f64>();
    if variance < 1e-12 {
        return Tree::Leaf(mean);
    }

    let d = x[0].len();
    if d == 0 {
        return Tree::Leaf(mean);
    }
    let n_features = ((d as f64 * config.feature_fraction).ceil() as usize).clamp(1, d);
    // Random feature subset without replacement (d is small).
    let mut features: Vec<usize> = (0..d).collect();
    for i in 0..n_features {
        let j = rng.gen_range(i..d);
        features.swap(i, j);
    }

    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
    for &feature in &features[..n_features] {
        let mut values: Vec<f64> = indices.iter().map(|&i| x[i][feature]).collect();
        values.sort_by(|a, b| a.total_cmp(b));
        values.dedup();
        if values.len() < 2 {
            continue;
        }
        // Try up to 12 candidate thresholds (midpoints).
        let step = (values.len() - 1).max(1) as f64 / 12.0;
        let mut tried = std::collections::BTreeSet::new();
        for k in 0..12 {
            let idx = ((k as f64 * step) as usize).min(values.len() - 2);
            if !tried.insert(idx) {
                continue;
            }
            let threshold = (values[idx] + values[idx + 1]) / 2.0;
            let (mut ln, mut ls, mut rn, mut rs) = (0usize, 0.0f64, 0usize, 0.0f64);
            for &i in indices {
                if x[i][feature] <= threshold {
                    ln += 1;
                    ls += y[i];
                } else {
                    rn += 1;
                    rs += y[i];
                }
            }
            if ln < config.min_leaf || rn < config.min_leaf {
                continue;
            }
            let (lm, rm) = (ls / ln as f64, rs / rn as f64);
            let mut sse = 0.0;
            for &i in indices {
                let m = if x[i][feature] <= threshold { lm } else { rm };
                sse += (y[i] - m) * (y[i] - m);
            }
            if best.is_none_or(|(_, _, b)| sse < b) {
                best = Some((feature, threshold, sse));
            }
        }
    }

    let Some((feature, threshold, _)) = best else {
        return Tree::Leaf(mean);
    };
    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
        indices.iter().partition(|&&i| x[i][feature] <= threshold);
    Tree::Node {
        feature,
        threshold,
        left: Box::new(build_tree(x, y, &left_idx, depth + 1, config, rng)),
        right: Box::new(build_tree(x, y, &right_idx, depth + 1, config, rng)),
    }
}

fn predict_tree(tree: &Tree, point: &[f64]) -> f64 {
    match tree {
        Tree::Leaf(v) => *v,
        Tree::Node { feature, threshold, left, right } => {
            if point[*feature] <= *threshold {
                predict_tree(left, point)
            } else {
                predict_tree(right, point)
            }
        }
    }
}
