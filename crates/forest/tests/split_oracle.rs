//! Independent oracle for the CART trainer: every node of a fitted
//! tree is checked against an O(n²) brute-force gini search over that
//! node's in-bag multiset.
//!
//! The oracle shares no code with the trainer. It rebuilds each node's
//! rows by routing the tree's own in-bag indices (duplicates included,
//! as a bootstrap draws them) down the flat layout, then checks:
//!
//! * a node splits exactly when the stopping rule allows it and some
//!   boundary leaves at least `min_samples_leaf` rows on each side;
//! * the chosen split's impurity decrease equals the brute-force
//!   maximum (within 1e-12);
//! * its threshold is the midpoint rule applied to two adjacent
//!   distinct in-bag values;
//! * leaf distributions equal the in-bag class fractions, counted with
//!   multiplicity;
//! * per feature, the importance equals Σ (n / total) × decrease.
//!
//! Two and three classes run the trainer's scan with fixed-size count
//! arrays; four runs it with a `Vec`. Tie-heavy features occupy a few
//! ranks of the scan's occupancy bitset; fine-grained ones occupy ranks
//! across several of its 64-rank words.
//!
//! Which of several equal-decrease splits wins depends on the RNG's
//! feature order, so tie order is not asserted. `Dataset::push`
//! rejects NaN, so there is no missing-value case.

use forest::{Dataset, DecisionTree, FlatTree, TreeParams};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Value levels features draw from: few enough that ties are common,
/// with one pair of adjacent doubles whose midpoint rounds up to the
/// larger value (the threshold rule's fallback case).
const LEVELS: [f64; 7] = [
    -2.0,
    -0.5,
    0.0,
    0.75,
    1.0 + f64::EPSILON,
    1.0 + 2.0 * f64::EPSILON,
    3.0,
];

/// A random dataset, a duplicate-bearing in-bag index draw, and tree
/// parameters, all a pure function of the inputs.
fn random_case(
    seed: u64,
    n_rows: usize,
    n_features: usize,
    n_classes: usize,
) -> (Dataset, Vec<usize>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    // Each feature draws from its own 1–4 levels (one level makes the
    // feature constant), or from a 256-value grid: far more ranks than a
    // small node holds, and on larger draws more than one 64-rank word
    // of the trainer's occupancy bitset, so scans cross word edges.
    let feature_levels: Vec<Vec<f64>> = (0..n_features)
        .map(|_| match rng.gen_range(1..=6) {
            5 | 6 => (0..256).map(|i| i as f64 / 32.0 - 4.0).collect(),
            k => (0..k)
                .map(|_| LEVELS[rng.gen_range(0..LEVELS.len())])
                .collect(),
        })
        .collect();
    let names = (0..n_features).map(|f| format!("x{f}")).collect();
    let mut data = Dataset::new(names, n_classes);
    for _ in 0..n_rows {
        let row = feature_levels
            .iter()
            .map(|levels| levels[rng.gen_range(0..levels.len())])
            .collect();
        data.push(row, rng.gen_range(0..n_classes));
    }
    let indices = (0..n_rows).map(|_| rng.gen_range(0..n_rows)).collect();
    (data, indices)
}

fn class_counts(data: &Dataset, rows: &[usize]) -> Vec<f64> {
    let mut counts = vec![0.0; data.class_count()];
    for &r in rows {
        counts[data.label(r)] += 1.0;
    }
    counts
}

fn gini(counts: &[f64], n: f64) -> f64 {
    1.0 - counts.iter().map(|c| (c / n) * (c / n)).sum::<f64>()
}

/// Impurity decrease of sending `value <= threshold` left, or `None`
/// if either side holds fewer than `min_leaf` rows (or none).
fn decrease(
    data: &Dataset,
    rows: &[usize],
    feature: usize,
    threshold: f64,
    min_leaf: usize,
) -> Option<f64> {
    let (left, right): (Vec<usize>, Vec<usize>) = rows
        .iter()
        .partition(|&&r| data.value(r, feature) <= threshold);
    if left.is_empty() || right.is_empty() || left.len() < min_leaf || right.len() < min_leaf {
        return None;
    }
    let n = rows.len() as f64;
    let (nl, nr) = (left.len() as f64, right.len() as f64);
    let weighted = (nl / n) * gini(&class_counts(data, &left), nl)
        + (nr / n) * gini(&class_counts(data, &right), nr);
    Some((gini(&class_counts(data, rows), n) - weighted).max(0.0))
}

/// The largest decrease over every feature and every in-bag value used
/// as a `<=` boundary: O(features × n²).
fn brute_force_best(data: &Dataset, rows: &[usize], min_leaf: usize) -> Option<f64> {
    let mut best: Option<f64> = None;
    for feature in 0..data.feature_count() {
        for &r in rows {
            if let Some(d) = decrease(data, rows, feature, data.value(r, feature), min_leaf) {
                best = Some(best.map_or(d, |b: f64| b.max(d)));
            }
        }
    }
    best
}

/// The midpoint rule, restated: halfway between two adjacent distinct
/// values, or the lower value when the midpoint rounds up to the upper.
fn midpoint(lo: f64, hi: f64) -> f64 {
    let mid = lo + (hi - lo) / 2.0;
    if mid < hi {
        mid
    } else {
        lo
    }
}

struct Walk<'a> {
    data: &'a Dataset,
    flat: &'a FlatTree,
    params: TreeParams,
    /// Node index → offset of its distribution in `leaf_probabilities`.
    leaf_offset: Vec<usize>,
    total: f64,
    importances: Vec<f64>,
}

impl Walk<'_> {
    fn check(&mut self, node: usize, rows: &[usize], depth: usize) {
        let (data, flat, params) = (self.data, self.flat, self.params);
        let n = rows.len();
        let counts = class_counts(data, rows);
        let pure = counts.iter().filter(|&&c| c > 0.0).count() <= 1;
        let may_split = depth < params.max_depth
            && n >= params.min_samples_split
            && !pure
            && n >= 2 * params.min_samples_leaf;
        let best = brute_force_best(data, rows, params.min_samples_leaf);
        let is_split = flat.kind[node] == 1;
        assert_eq!(
            is_split,
            may_split && best.is_some(),
            "node {node} (depth {depth}, {n} rows, counts {counts:?}): split decision"
        );

        if !is_split {
            let off = self.leaf_offset[node];
            let got = &flat.leaf_probabilities[off..off + data.class_count()];
            let want: Vec<f64> = counts.iter().map(|c| c / n as f64).collect();
            assert_eq!(got, want.as_slice(), "leaf {node} distribution");
            return;
        }

        let feature = flat.feature[node] as usize;
        let threshold = flat.threshold[node];
        let chosen = decrease(data, rows, feature, threshold, params.min_samples_leaf)
            .unwrap_or_else(|| panic!("node {node}: chosen split violates min_samples_leaf"));
        let best = best.expect("checked above");
        assert!(
            (chosen - best).abs() <= 1e-12,
            "node {node}: decrease {chosen} is not the brute-force maximum {best}"
        );

        let values = rows.iter().map(|&r| data.value(r, feature));
        let lo = values
            .clone()
            .filter(|&v| v <= threshold)
            .fold(f64::NEG_INFINITY, f64::max);
        let hi = values
            .filter(|&v| v > threshold)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(
            threshold.to_bits(),
            midpoint(lo, hi).to_bits(),
            "node {node}: threshold {threshold} is not the midpoint rule on ({lo}, {hi})"
        );

        self.importances[feature] += (n as f64 / self.total) * chosen;
        let (left, right): (Vec<usize>, Vec<usize>) = rows
            .iter()
            .partition(|&&r| data.value(r, feature) <= threshold);
        self.check(flat.left[node] as usize, &left, depth + 1);
        self.check(flat.right[node] as usize, &right, depth + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn every_node_matches_the_brute_force_gini_search(
        seed in any::<u64>(),
        n_rows in 2usize..=300,
        n_features in 1usize..=4,
        n_classes in 2usize..=4,
        max_depth in 0usize..=10,
        min_samples_leaf in 1usize..=4,
        min_samples_split in 2usize..=5,
    ) {
        let (data, indices) = random_case(seed, n_rows, n_features, n_classes);
        let params = TreeParams {
            max_depth,
            min_samples_split,
            min_samples_leaf,
        };
        let mut rng = SmallRng::seed_from_u64(seed.rotate_left(17));
        let tree = DecisionTree::fit(&data, &indices, &params, n_features, &mut rng);
        let flat = tree.to_flat();

        let mut leaf_offset = vec![0; flat.kind.len()];
        let mut next = 0;
        for (node, &kind) in flat.kind.iter().enumerate() {
            if kind == 0 {
                leaf_offset[node] = next;
                next += data.class_count();
            }
        }
        let mut walk = Walk {
            data: &data,
            flat: &flat,
            params,
            leaf_offset,
            total: indices.len() as f64,
            importances: vec![0.0; n_features],
        };
        walk.check(0, &indices, 0);

        for (f, (&got, &want)) in tree.importances().iter().zip(&walk.importances).enumerate() {
            prop_assert!(
                (got - want).abs() <= 1e-12,
                "feature {f}: importance {got} != Σ (n / total) × decrease = {want}"
            );
        }
    }
}
