//! Byte pins for the trainer: fixed-seed forests, rendered as
//! `survdb-model/v1` JSON, must keep a recorded 64-bit FNV-1a digest
//! and byte length.
//!
//! One model is bootstrapped and grid-searched through
//! `bench::model_source::obtain_model` (train, save, reload, verify);
//! the others are default `RandomForest::fit`s, on the two-class
//! fixture and on seeded synthetic 3- and 4-class data, so the split
//! scan is pinned at every class-count buffer it uses. All go through the
//! bagging, split search, thresholds, leaf distributions and
//! importances, so a trainer change that moves any tree by one bit
//! moves a digest. `golden_repro` pins the experiment with grid search
//! off; this test also pins the tuned path and the OOB estimate.
//!
//! A change that is meant to move the trees must update the constants
//! below in the same commit; the failure message prints the new values.

use bench::model_source::{fixture_dataset, obtain_model, ModelSpec};
use forest::{Dataset, RandomForest, RandomForestParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serve::{ModelMeta, SavedModel};

const SCALE: f64 = 0.1;
const SEED: u64 = 2018;

/// `(digest, bytes)` of the tuned `obtain_model` render.
const TUNED: (u64, usize) = (0xcc4b_4d35_6046_1284, 514_694);
/// `(digest, bytes)` of the default-parameter `RandomForest::fit` render.
const DEFAULT_FIT: (u64, usize) = (0x7fa7_4e34_c7d1_92ea, 1_496_735);
/// `(digest, bytes)` of a default fit on [`synthetic`] 3-class data.
const THREE_CLASS_FIT: (u64, usize) = (0xb717_3e95_2de8_c815, 689_973);
/// `(digest, bytes)` of a default fit on [`synthetic`] 4-class data.
const FOUR_CLASS_FIT: (u64, usize) = (0xb337_4b92_a0a5_f47b, 857_901);

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// 600 seeded rows with `classes` labels: a continuous feature whose
/// class bands overlap, a coarse one full of ties, a constant column
/// and three noise columns.
fn synthetic(classes: usize, seed: u64) -> Dataset {
    let names = (0..6).map(|f| format!("f{f}")).collect();
    let mut data = Dataset::new(names, classes);
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..600 {
        let label = rng.gen_range(0..classes);
        let shift = label as f64;
        let row = vec![
            shift + 1.5 * rng.gen::<f64>(),
            (0.5 * shift + rng.gen::<f64>()).floor(),
            1.0,
            rng.gen::<f64>(),
            rng.gen_range(0..40) as f64,
            rng.gen::<f64>() * 1e3,
        ];
        data.push(row, label);
    }
    data
}

/// Renders a default-parameter `RandomForest::fit` of `data`.
fn default_fit_render(data: &Dataset) -> String {
    let params = RandomForestParams::default();
    let forest = RandomForest::fit(data, &params, SEED);
    assert!(forest.oob_accuracy().is_some(), "bootstrap records bags");
    SavedModel::new(
        forest,
        ModelMeta {
            positive_fraction: data.class_fraction(1),
            seed: SEED,
            params,
            grid: None,
        },
    )
    .render()
}

fn check(name: &str, rendered: &str, want: (u64, usize)) {
    let got = (fnv1a64(rendered.as_bytes()), rendered.len());
    assert_eq!(
        got, want,
        "{name}: model render moved; digest 0x{:016x}, {} bytes",
        got.0, got.1
    );
}

#[test]
fn tuned_model_keeps_its_bytes() {
    let data = fixture_dataset(SCALE, SEED);
    let dir = std::env::temp_dir().join(format!("survdb-golden-model-{}", std::process::id()));
    let spec = ModelSpec {
        load_from: None,
        seed: SEED,
        tune: true,
        save_dir: dir.clone(),
    };
    let model = obtain_model(&data, &spec).expect("trains, saves and reloads");
    std::fs::remove_dir_all(&dir).ok();
    assert!(model.meta.grid.is_some(), "the tuned path records its grid");
    check("tuned", &model.render(), TUNED);
}

#[test]
fn default_fit_keeps_its_bytes() {
    let data = fixture_dataset(SCALE, SEED);
    check("default fit", &default_fit_render(&data), DEFAULT_FIT);
}

#[test]
fn three_class_fit_keeps_its_bytes() {
    let data = synthetic(3, SEED);
    check("3-class fit", &default_fit_render(&data), THREE_CLASS_FIT);
}

#[test]
fn four_class_fit_keeps_its_bytes() {
    let data = synthetic(4, SEED);
    check("4-class fit", &default_fit_render(&data), FOUR_CLASS_FIT);
}
