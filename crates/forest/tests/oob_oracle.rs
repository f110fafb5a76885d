//! Out-of-bag oracle: `RandomForest::oob_accuracy` against an
//! independent re-derivation of every tree's bootstrap.
//!
//! Tree `t` of a forest fitted with `seed` draws its bag with `n` calls
//! of `gen_range(0..n)` on `SmallRng::seed_from_u64(derive_seed(seed,
//! t))`, where `n` is the number of training positions. A position is
//! out of bag for every tree that never drew it; it then gets one vote
//! from each such tree (the tree's own prediction on the gathered row),
//! the majority wins with ties going to the highest class, and the OOB
//! accuracy is the share of voted positions whose majority matches the
//! label. The forest's value must equal this bitwise.

use forest::{derive_seed, Dataset, RandomForest, RandomForestParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `n` rows of `classes`-class data: the class follows the first two
/// features, with label noise so trees disagree out of bag.
fn dataset(n: usize, classes: usize, seed: u64) -> Dataset {
    let names = (0..5).map(|f| format!("x{f}")).collect();
    let mut data = Dataset::new(names, classes);
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..n {
        let x0: f64 = rng.gen();
        let x1: f64 = rng.gen();
        // A coarse third feature makes threshold-equal values common.
        let x2 = (rng.gen::<f64>() * 8.0).floor();
        let x3: f64 = rng.gen();
        let x4: f64 = rng.gen();
        let clean = (((x0 + x1) / 2.0) * classes as f64) as usize;
        let label = if rng.gen::<f64>() < 0.2 {
            rng.gen_range(0..classes)
        } else {
            clean.min(classes - 1)
        };
        data.push(vec![x0, x1, x2, x3, x4], label);
    }
    data
}

/// The OOB accuracy of `model`, fitted by `RandomForest::fit_on(data,
/// rows, params, seed)`, recomputed from the seeds alone.
fn oracle(model: &RandomForest, data: &Dataset, rows: &[usize], seed: u64) -> Option<f64> {
    let n = rows.len();
    let in_bag: Vec<Vec<bool>> = (0..model.tree_count())
        .map(|t| {
            let mut rng = SmallRng::seed_from_u64(derive_seed(seed, t as u64));
            let mut drawn = vec![false; n];
            for _ in 0..n {
                drawn[rng.gen_range(0..n)] = true;
            }
            drawn
        })
        .collect();
    let mut correct = 0usize;
    let mut voted = 0usize;
    for (p, &row) in rows.iter().enumerate() {
        let features = data.row(row);
        let mut votes = vec![0usize; data.class_count()];
        for (tree, drawn) in model.trees().iter().zip(&in_bag) {
            if !drawn[p] {
                votes[tree.predict(&features)] += 1;
            }
        }
        if votes.iter().all(|&v| v == 0) {
            continue;
        }
        voted += 1;
        let top = *votes.iter().max().expect("classes");
        let majority = (0..votes.len())
            .rev()
            .find(|&c| votes[c] == top)
            .expect("a class holds the maximum");
        if majority == data.label(row) {
            correct += 1;
        }
    }
    (voted > 0).then(|| correct as f64 / voted as f64)
}

fn params(n_trees: usize) -> RandomForestParams {
    RandomForestParams {
        n_trees,
        ..RandomForestParams::default()
    }
}

#[test]
fn oob_accuracy_matches_the_rederived_bootstrap() {
    for (classes, n, n_trees, seed) in [(2, 240, 10, 3u64), (3, 300, 12, 17), (4, 360, 9, 2018)] {
        let data = dataset(n, classes, seed ^ 0x55);
        let rows: Vec<usize> = (0..data.len()).collect();
        let model = RandomForest::fit(&data, &params(n_trees), seed);
        let want = oracle(&model, &data, &rows, seed);
        let got = model.oob_accuracy();
        assert!(want.is_some(), "{classes} classes: no position voted");
        assert_eq!(
            got.map(f64::to_bits),
            want.map(f64::to_bits),
            "{classes} classes: forest {got:?}, oracle {want:?}"
        );
    }
}

#[test]
fn oob_accuracy_counts_positions_of_an_unsorted_row_list() {
    // Positions, not rows, are bagged: a row listed twice is two
    // positions with independent out-of-bag status.
    let data = dataset(200, 3, 41);
    let rows: Vec<usize> = (0..260).map(|i| (i * 37 + 11) % 200).collect();
    let seed = 77;
    let model = RandomForest::fit_on(&data, &rows, &params(11), seed);
    let want = oracle(&model, &data, &rows, seed);
    assert!(want.is_some());
    assert_eq!(
        model.oob_accuracy().map(f64::to_bits),
        want.map(f64::to_bits)
    );
}

#[test]
fn no_bootstrap_has_no_oob_estimate() {
    let data = dataset(120, 2, 9);
    let no_bag = RandomForestParams {
        bootstrap: false,
        ..params(5)
    };
    assert_eq!(RandomForest::fit(&data, &no_bag, 9).oob_accuracy(), None);
}
