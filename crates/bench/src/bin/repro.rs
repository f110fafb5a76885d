//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p bench --release --bin repro -- <id> [flags]
//! ```
//!
//! The ids and flags are [`bench::cli::REPRO`]; `all` runs every id in
//! order. Each command prints the paper-style series/rows and writes
//! `artifacts/<id>.json`.

use bench::{cli, Harness, HarnessOptions};
use obs::jsonv::JsonV;
use rand::SeedableRng;
use std::collections::BTreeMap;
use survdb::experiment::{Experiment, ExperimentConfig, GridPreset};
use survdb::json::ToJson;
use survdb::observations::ObservationReport;
use survdb::provisioning::{
    simulate, PlacementPolicy, PredictedLongevity, ProvisioningConfig, ProvisioningOutcome,
};
use survdb::report::{ascii_km_chart, ascii_km_series, p_value_cell, score_row, subgroup_block};
use survival::{KaplanMeier, SurvivalData};
use telemetry::{Census, Edition, RegionId};

/// One experiment: prints its rows and writes its artifact.
type Run = fn(&mut Harness);

/// Every experiment id but `all`, in the order `all` runs them.
const EXPERIMENTS: [(&str, Run); 18] = [
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("tab1", tab1),
    ("tab2", tab2),
    ("obs", obs),
    ("factors", factors),
    ("prov", prov),
    ("sweep", sweep),
    ("calib", calib),
    ("models", models),
    ("ablate", ablate),
    ("segments", segments),
];

/// The `--grid` presets, in the table's `off|light|full` order.
const GRIDS: [GridPreset; 3] = [GridPreset::Off, GridPreset::Light, GridPreset::Full];

fn main() {
    let args = cli::parse_or_exit(&cli::REPRO);
    let command = args.leading()[0].as_str();
    let runs = EXPERIMENTS
        .iter()
        .filter(|(id, _)| command == "all" || command == *id);
    assert!(
        runs.clone().next().is_some(),
        "{command} is in cli::REPRO, not EXPERIMENTS"
    );
    let d = HarnessOptions::default();
    let options = HarnessOptions {
        scale: args.float("--scale").unwrap_or(d.scale),
        seed: args.u64("--seed").unwrap_or(d.seed),
        grid: args.pick("--grid", GRIDS).unwrap_or(d.grid),
        repetitions: args.count("--reps").unwrap_or(d.repetitions),
        artifact_dir: args.path("--out").unwrap_or(d.artifact_dir),
    };

    // Record spans/counters/events for the whole run; Info events keep
    // echoing to stderr as the un-instrumented binary's prints did.
    let registry = obs::Registry::with_stderr_level(obs::Level::Info);
    let _trace = registry.install();
    let artifact_dir = options.artifact_dir.clone();

    let mut harness = Harness::new(options);
    for (_, run) in runs {
        run(&mut harness);
    }

    bench::finish_trace(&registry, "repro", &artifact_dir);
}

struct CurveArtifact {
    label: String,
    n: usize,
    points: Vec<(f64, f64)>,
}

impl ToJson for CurveArtifact {
    fn to_json_value(&self) -> JsonV {
        JsonV::obj(vec![
            ("label", self.label.to_json_value()),
            ("n", self.n.to_json_value()),
            ("points", self.points.to_json_value()),
        ])
    }
}

fn km_points(
    census: &Census<'_>,
    min_days: f64,
    pred: impl FnMut(&telemetry::DatabaseRecord) -> bool,
) -> (usize, Vec<(f64, f64)>) {
    let pairs = census.survival_pairs_where(min_days, pred);
    let km = KaplanMeier::fit(&SurvivalData::from_pairs(&pairs));
    (pairs.len(), km.sample_curve(150.0, 76))
}

/// Figure 1: whole-population KM curve, Region-1, 2-day minimum.
fn fig1(h: &mut Harness) {
    println!("\n================ Figure 1: Kaplan-Meier survival curve (singleton, 2-day minimum, Region-1)\n");
    let census = h.study().census(RegionId::Region1);
    let (n, points) = km_points(&census, 2.0, |_| true);
    println!("{}", ascii_km_chart(&[("all databases", &points)], 76, 16));
    println!("  n = {n}");
    for &t in &[10.0, 30.0, 60.0, 90.0, 110.0, 120.0, 125.0, 130.0, 150.0] {
        let s = points
            .iter()
            .take_while(|(pt, _)| *pt <= t)
            .last()
            .map(|(_, s)| *s)
            .unwrap_or(1.0);
        println!("  S({t:>5.0}) = {s:.3}");
    }
    println!("\n  paper shape: decays to a plateau ~0.4 by day 130 with a drop near day 120");
    h.write_artifact(
        "fig1",
        &CurveArtifact {
            label: "region1-all".into(),
            n,
            points,
        },
    );
}

/// Figure 2: KM curves of one subgroup split by predicted class.
fn fig2(h: &mut Harness) {
    println!(
        "\n================ Figure 2: KM curves of predicted groupings (Region-1, Standard)\n"
    );
    let result = h
        .subgroup(RegionId::Region1, Some(Edition::Standard))
        .clone();
    let g = &result.whole_grouping;
    println!(
        "{}",
        ascii_km_series(&[&g.long_curve, &g.short_curve], 76, 16)
    );
    println!(
        "  ideal: orange (predicted <= 30d, n = {}) dies by day 30; blue (predicted > 30d, n = {}) stays at 1.0 until day 30",
        g.short_curve.n, g.long_curve.n
    );
    println!("  log-rank p = {}", p_value_cell(g.logrank_p));
    h.write_artifact("fig2", g);
}

/// Figure 3: KM per edition × always/changed, three regions.
fn fig3(h: &mut Harness) {
    println!(
        "\n================ Figure 3: KM curves by edition, sub-categorized by edition change\n"
    );
    let mut artifact: BTreeMap<String, Vec<CurveArtifact>> = BTreeMap::new();
    for region in RegionId::ALL {
        let census = h.study().census(region);
        println!("--- {region}");
        let mut curves = Vec::new();
        for edition in Edition::ALL {
            let (n_a, always) = km_points(&census, 2.0, |db| {
                db.creation_edition() == edition && !db.changed_edition()
            });
            let (n_c, changed) = km_points(&census, 2.0, |db| {
                db.creation_edition() == edition && db.changed_edition()
            });
            let s60 = |pts: &[(f64, f64)]| {
                pts.iter()
                    .take_while(|(t, _)| *t <= 60.0)
                    .last()
                    .map(|(_, s)| *s)
                    .unwrap_or(1.0)
            };
            println!(
                "  {edition:<8} always: n = {n_a:>6}, S(60) = {:.3}   changed: n = {n_c:>5}, S(60) = {:.3}",
                s60(&always),
                s60(&changed)
            );
            curves.push(CurveArtifact {
                label: format!("{edition}-always"),
                n: n_a,
                points: always,
            });
            curves.push(CurveArtifact {
                label: format!("{edition}-changed"),
                n: n_c,
                points: changed,
            });
        }
        // One chart per region: the three "always" curves.
        let chart_curves: Vec<(&str, &[(f64, f64)])> = curves
            .iter()
            .filter(|c| c.label.ends_with("always"))
            .map(|c| (c.label.as_str(), c.points.as_slice()))
            .collect();
        println!("{}", ascii_km_chart(&chart_curves, 76, 14));
        artifact.insert(region.to_string(), curves);
    }
    println!("  paper shape: Basic decays slowest, Premium fastest (Obs 3.2); 'changed' differs from 'always'");
    h.write_artifact("fig3", &artifact);
}

/// Figure 5: accuracy/precision/recall, forest vs baseline, 9 panels.
fn fig5(h: &mut Harness) {
    println!("\n================ Figure 5: whole-population prediction scores (forest vs weighted-random baseline)\n");
    let panels = h.nine_panels();
    for r in &panels {
        println!("{}", subgroup_block(r));
    }
    println!("  paper averages: Basic .81/.83/.92 (baseline .56/.68/.68), Standard .81/.79/.88 (.51/.55/.56), Premium .80/.75/.66 (.55/.35/.35)");
    // Edition-level means, as the paper reports them.
    for edition in Edition::ALL {
        let subset: Vec<_> = panels
            .iter()
            .filter(|r| r.edition == edition.to_string())
            .collect();
        let mean = |f: &dyn Fn(&survdb::experiment::SubgroupResult) -> f64| {
            subset.iter().map(|r| f(r)).sum::<f64>() / subset.len() as f64
        };
        println!(
            "  {edition:<8} mean: forest acc {:.2} prec {:.2} rec {:.2} | baseline acc {:.2} prec {:.2} rec {:.2}",
            mean(&|r| r.forest.accuracy),
            mean(&|r| r.forest.precision),
            mean(&|r| r.forest.recall),
            mean(&|r| r.baseline.accuracy),
            mean(&|r| r.baseline.precision),
            mean(&|r| r.baseline.recall),
        );
    }
    h.write_artifact("fig5", &panels);
}

/// Figure 6: KM curves of whole-population predicted groupings.
fn fig6(h: &mut Harness) {
    println!("\n================ Figure 6: KM curves for whole-population classified groupings\n");
    let panels = h.nine_panels();
    for r in &panels {
        let g = &r.whole_grouping;
        println!(
            "--- {} / {}: log-rank p = {} (baseline grouping p = {})",
            r.region,
            r.edition,
            p_value_cell(g.logrank_p),
            p_value_cell(r.baseline_grouping.logrank_p)
        );
        println!(
            "{}",
            ascii_km_series(&[&g.long_curve, &g.short_curve], 66, 11)
        );
    }
    println!("  paper: all forest groupings p < 1e-7; baseline groupings p > 0.05");
    let artifact: Vec<_> = panels
        .iter()
        .map(|r| {
            (
                r.region.clone(),
                r.edition.clone(),
                r.whole_grouping.clone(),
            )
        })
        .collect();
    h.write_artifact("fig6", &artifact);
}

/// Figure 7: confident/uncertain score partition.
fn fig7(h: &mut Harness) {
    println!("\n================ Figure 7: scores with confident / uncertain partitioning\n");
    let panels = h.nine_panels();
    for r in &panels {
        println!(
            "--- {} / {} (t = {:.3}, coverage {:.0}%)",
            r.region,
            r.edition,
            r.confidence_threshold,
            r.confident_fraction * 100.0
        );
        println!("{}", score_row("  all (forest)", &r.forest));
        println!("{}", score_row("  confident", &r.confident));
        println!("{}", score_row("  uncertain", &r.uncertain));
        println!("{}", score_row("  baseline", &r.baseline));
    }
    println!("\n  paper: confident predictions reach ~0.92 accuracy in best cases; Standard gains least (balanced classes => low threshold)");
    h.write_artifact("fig7", &panels);
}

/// Figure 8: KM curves of confident groupings.
fn fig8(h: &mut Harness) {
    println!("\n================ Figure 8: KM curves for confident classified groupings\n");
    let panels = h.nine_panels();
    for r in &panels {
        let g = &r.confident_grouping;
        println!(
            "--- {} / {}: log-rank p = {}",
            r.region,
            r.edition,
            p_value_cell(g.logrank_p)
        );
        println!(
            "{}",
            ascii_km_series(&[&g.long_curve, &g.short_curve], 66, 11)
        );
    }
    println!("  paper: confident groupings separate cleanly, p < 1e-7");
    let artifact: Vec<_> = panels
        .iter()
        .map(|r| {
            (
                r.region.clone(),
                r.edition.clone(),
                r.confident_grouping.clone(),
            )
        })
        .collect();
    h.write_artifact("fig8", &artifact);
}

/// Figure 9: KM curves of uncertain groupings.
fn fig9(h: &mut Harness) {
    println!("\n================ Figure 9: KM curves for uncertain classified groupings\n");
    let panels = h.nine_panels();
    for r in &panels {
        let g = &r.uncertain_grouping;
        println!(
            "--- {} / {}: log-rank p = {}",
            r.region,
            r.edition,
            p_value_cell(g.logrank_p)
        );
        println!(
            "{}",
            ascii_km_series(&[&g.long_curve, &g.short_curve], 66, 11)
        );
    }
    println!("  paper: uncertain groupings' curves sit close together; separation often insignificant (Table 2)");
    let artifact: Vec<_> = panels
        .iter()
        .map(|r| {
            (
                r.region.clone(),
                r.edition.clone(),
                r.uncertain_grouping.clone(),
            )
        })
        .collect();
    h.write_artifact("fig9", &artifact);
}

/// Table 1: percentage of confident vs uncertain predictions.
fn tab1(h: &mut Harness) {
    println!("\n================ Table 1: percentage of confident and uncertain predictions\n");
    println!(
        "  {:<10} {:<10} {:>10} {:>10}",
        "Edition", "Region", "Confident", "Uncertain"
    );
    let panels = h.nine_panels();
    let mut artifact = Vec::new();
    for r in &panels {
        println!(
            "  {:<10} {:<10} {:>9.0}% {:>9.0}%",
            r.edition,
            r.region,
            r.confident_fraction * 100.0,
            (1.0 - r.confident_fraction) * 100.0
        );
        artifact.push((r.edition.clone(), r.region.clone(), r.confident_fraction));
    }
    println!("\n  paper: Basic 58-68% confident, Standard 82-97%, Premium 69-73%");
    h.write_artifact("tab1", &artifact);
}

/// Table 2: log-rank p-values over uncertain groupings.
fn tab2(h: &mut Harness) {
    println!("\n================ Table 2: p-values of log-rank tests over uncertain classified groupings\n");
    println!("  {:<10} {:<10} {:>12}", "Edition", "Region", "P-value");
    let panels = h.nine_panels();
    let mut artifact = Vec::new();
    for r in &panels {
        println!(
            "  {:<10} {:<10} {:>12}",
            r.edition,
            r.region,
            p_value_cell(r.uncertain_grouping.logrank_p)
        );
        artifact.push((
            r.edition.clone(),
            r.region.clone(),
            r.uncertain_grouping.logrank_p,
        ));
    }
    println!("\n  paper: Basic < 1e-7 everywhere; Standard R1 0.93 / R2 0.01 / R3 0.38; Premium R1 0.005 / R2 0.008 / R3 0.37");
    h.write_artifact("tab2", &artifact);
}

/// Observations 3.1-3.3.
fn obs(h: &mut Harness) {
    println!("\n================ Observations 3.1-3.3\n");
    let mut artifact = Vec::new();
    for region in RegionId::ALL {
        let census = h.study().census(region);
        let report = ObservationReport::compute(&census);
        println!("--- {region}");
        println!(
            "  3.1: {:.1}% of subscriptions create only ephemeral databases, owning {:.1}% of all databases",
            report.ephemeral_only_subscription_share * 100.0,
            report.ephemeral_only_database_share * 100.0
        );
        println!(
            "  3.2: per-edition survival differs (k-sample log-rank p = {}):",
            p_value_cell(report.edition_logrank_p)
        );
        for e in &report.edition_survival {
            println!(
                "       {:<8} n = {:>6}  S(30) = {:.3}  S(60) = {:.3}  S(120) = {:.3}   always/changed S(60): {:.3} / {:.3}",
                e.edition, e.n, e.s30, e.s60, e.s120, e.always_s60, e.changed_s60
            );
        }
        println!("  3.3: edition-change rates:");
        for (edition, rate) in &report.edition_change_rates {
            println!("       {edition:<8} {:.1}%", rate * 100.0);
        }
        println!("  all observations hold: {}", report.all_hold());
        artifact.push(report);
    }
    h.write_artifact("obs", &artifact);
}

/// Feature-family bucket for §5.4 aggregation.
fn family(name: &str) -> &'static str {
    if name.starts_with("hist_") {
        "subscription-history"
    } else if name.starts_with("sub_type") {
        "subscription-type"
    } else if name.starts_with("server_") || name.starts_with("db_") {
        "names"
    } else if name.starts_with("created_") {
        "creation-time"
    } else if name.starts_with("size_") {
        "size"
    } else if name.starts_with("util_") {
        "utilization"
    } else {
        "edition/slo"
    }
}

fn ranked_to_owned(pairs: &[(String, f64)]) -> Vec<(String, f64)> {
    pairs.to_vec()
}

/// The family with the largest summed importance.
fn ranked_family_top(pairs: &[(String, f64)]) -> String {
    let mut families: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, importance) in pairs {
        *families.entry(family(name)).or_insert(0.0) += importance;
    }
    families
        .into_iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .map(|(f, _)| f.to_string())
        .unwrap_or_default()
}

/// §5.4: feature-importance ranking and the n-gram ablation.
fn factors(h: &mut Harness) {
    println!("\n================ §5.4: predictive factors (gini importance) and n-gram ablation\n");
    let result = h
        .subgroup(RegionId::Region1, Some(Edition::Standard))
        .clone();
    println!("--- top 15 features (Region-1 / Standard):");
    for (name, importance) in result.importances.iter().take(15) {
        println!("  {name:<28} {importance:.4}");
    }

    // Family-level aggregation, the paper's actual claim.
    let mut families: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, importance) in &result.importances {
        *families.entry(family(name)).or_insert(0.0) += importance;
    }
    let mut ranked: Vec<(&str, f64)> = families.into_iter().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    println!("\n--- feature-family importance:");
    for (fam, importance) in &ranked {
        println!("  {fam:<24} {importance:.4}");
    }
    println!("\n  paper ranking: subscription-history > names > creation-time");

    // N-gram ablation: same subgroup, with character-3-gram features.
    // Permutation-importance cross-check: gini importance is biased
    // toward high-cardinality features; if both measures agree on the
    // family ranking, the §5.4 conclusion is robust.
    println!("\n--- permutation-importance cross-check (held-out, Region-1 / Standard):");
    {
        let study = h.study().clone();
        let census = study.census(RegionId::Region1);
        let extractor =
            features::FeatureExtractor::new(&census, features::FeatureConfig::default());
        let (dataset, _) = extractor.build_dataset(&census, Some(Edition::Standard));
        let (train, test) = forest::train_test_split(&dataset, 0.3, h.options().seed);
        let model = forest::RandomForest::fit(
            &train,
            &forest::RandomForestParams::default(),
            h.options().seed,
        );
        let ranked = forest::ranked_permutation_importance(&model, &test, 3, h.options().seed);
        let mut perm_families: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, importance) in &ranked {
            *perm_families.entry(family(name)).or_insert(0.0) += importance.max(0.0);
        }
        let mut perm_ranked: Vec<(&str, f64)> = perm_families.into_iter().collect();
        perm_ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        for (fam, importance) in &perm_ranked {
            println!("  {fam:<24} {importance:.4}");
        }
        let gini_top = ranked_family_top(&ranked_to_owned(&result.importances));
        let perm_top = perm_ranked
            .first()
            .map(|(f, _)| f.to_string())
            .unwrap_or_default();
        println!(
            "  top family by gini: {gini_top}; by permutation: {perm_top}{}",
            if gini_top == perm_top {
                "  (agreement)"
            } else {
                ""
            }
        );
    }

    println!("\n--- n-gram ablation (Region-1 / Standard):");
    let census = h.study().census(RegionId::Region1);
    let config = ExperimentConfig {
        repetitions: h.options().repetitions.min(3),
        grid: GridPreset::Off,
        seed: h.options().seed,
        ngrams: Some((3, 30)),
        ..ExperimentConfig::default()
    };
    let with_ngrams = Experiment::new(config).run(&census, Some(Edition::Standard));
    println!(
        "  without n-grams: acc {:.3}   with n-grams: acc {:.3}",
        result.forest.accuracy, with_ngrams.forest.accuracy
    );
    println!("  paper: \"we did not see any improvement in accuracy when using features based on n-grams\"");

    // What would the withheld utilization telemetry add? (The paper's
    // §4.2 feature list excludes it for business/privacy reasons.)
    println!("\n--- utilization-feature ablation (Region-1 / Standard, extension):");
    let config = ExperimentConfig {
        repetitions: h.options().repetitions.min(3),
        grid: GridPreset::Off,
        seed: h.options().seed,
        include_utilization: true,
        ..ExperimentConfig::default()
    };
    let with_util = Experiment::new(config).run(&census, Some(Edition::Standard));
    println!(
        "  paper feature set: acc {:.3}   + utilization features: acc {:.3}",
        result.forest.accuracy, with_util.forest.accuracy
    );

    struct FactorsArtifact {
        importances: Vec<(String, f64)>,
        families: Vec<(String, f64)>,
        accuracy_without_ngrams: f64,
        accuracy_with_ngrams: f64,
    }
    impl ToJson for FactorsArtifact {
        fn to_json_value(&self) -> JsonV {
            JsonV::obj(vec![
                ("importances", self.importances.to_json_value()),
                ("families", self.families.to_json_value()),
                (
                    "accuracy_without_ngrams",
                    self.accuracy_without_ngrams.to_json_value(),
                ),
                (
                    "accuracy_with_ngrams",
                    self.accuracy_with_ngrams.to_json_value(),
                ),
            ])
        }
    }
    h.write_artifact(
        "factors",
        &FactorsArtifact {
            importances: result.importances.clone(),
            families: ranked.iter().map(|(f, v)| (f.to_string(), *v)).collect(),
            accuracy_without_ngrams: result.forest.accuracy,
            accuracy_with_ngrams: with_ngrams.forest.accuracy,
        },
    );
}

/// §3.1: longevity-guided provisioning simulation.
fn prov(h: &mut Harness) {
    println!("\n================ §3.1: longevity-guided resource provisioning\n");
    // Train on Region-2, deploy the policy on Region-1 predictions.
    let result = h.subgroup(RegionId::Region1, None).clone();
    let threshold = result.confidence_threshold;

    // Out-of-sample predictions: retrain on the full Region-1
    // population is what the cached experiment already did; here we use
    // the census + a fresh model to bucket every placeable database.
    let study = h.study().clone();
    let census = study.census(RegionId::Region1);
    let extractor = features::FeatureExtractor::new(&census, features::FeatureConfig::default());
    let (dataset, _) = extractor.build_dataset(&census, None);
    let model = forest::RandomForest::fit(
        &dataset,
        &forest::RandomForestParams::default(),
        h.options().seed,
    );
    let population = census.prediction_population(2.0);
    let predictions: std::collections::HashMap<usize, PredictedLongevity> = population
        .iter()
        .map(|&idx| {
            let db = &census.fleet().databases[idx];
            let p = model.predict_positive_proba(&extractor.extract(&census, db));
            (idx, PredictedLongevity::from_probability(p, threshold))
        })
        .collect();

    // Oracle predictions (ground truth) bound the achievable benefit.
    let oracle: std::collections::HashMap<usize, PredictedLongevity> = population
        .iter()
        .map(|&idx| {
            let db = &census.fleet().databases[idx];
            let pred = if census.is_long_lived(db) {
                PredictedLongevity::Long
            } else {
                PredictedLongevity::Short
            };
            (idx, pred)
        })
        .collect();

    let config = ProvisioningConfig::default();
    let agnostic = simulate(&census, &predictions, PlacementPolicy::Agnostic, &config);
    let guided = simulate(
        &census,
        &predictions,
        PlacementPolicy::LongevityGuided,
        &config,
    );
    let guided_oracle = simulate(&census, &oracle, PlacementPolicy::LongevityGuided, &config);

    let row = |o: &ProvisioningOutcome| {
        format!(
            "placed {:>6}  clusters {:>4}  disruptions {:>6} (wasted {:>5})  moves {:>5} (wasted {:>4})",
            o.placed, o.clusters_opened, o.disruptions, o.wasted_disruptions, o.moves, o.wasted_moves
        )
    };
    println!("  agnostic       : {}", row(&agnostic));
    println!("  guided (model) : {}", row(&guided));
    println!("  guided (oracle): {}", row(&guided_oracle));
    let saved = |a: usize, g: usize| {
        if a == 0 {
            0.0
        } else {
            100.0 * (a as f64 - g as f64) / a as f64
        }
    };
    println!(
        "\n  guided policy avoids {:.0}% of wasted update disruptions and {:.0}% of wasted load-balancer moves",
        saved(agnostic.wasted_disruptions, guided.wasted_disruptions),
        saved(agnostic.wasted_moves, guided.wasted_moves)
    );
    println!("  (the oracle row is the upper bound a perfect classifier would reach)");
    h.write_artifact("prov", &vec![agnostic, guided, guided_oracle]);
}

/// Extension (§5.1: "We also experimented with different values for x
/// and y"): a sweep over the observation prefix `x` and the class
/// boundary `y` on the Region-1 whole population.
fn sweep(h: &mut Harness) {
    println!("\n================ x/y sweep: accuracy of the (x, y) prediction task (Region-1, whole population)\n");
    let study = h.study().clone();
    let census = study.census(RegionId::Region1);
    let reps = h.options().repetitions.min(3);
    let seed = h.options().seed;

    struct SweepPoint {
        x_days: f64,
        y_days: f64,
        population: usize,
        positive_fraction: f64,
        forest_accuracy: f64,
        baseline_accuracy: f64,
    }
    impl ToJson for SweepPoint {
        fn to_json_value(&self) -> JsonV {
            JsonV::obj(vec![
                ("x_days", self.x_days.to_json_value()),
                ("y_days", self.y_days.to_json_value()),
                ("population", self.population.to_json_value()),
                ("positive_fraction", self.positive_fraction.to_json_value()),
                ("forest_accuracy", self.forest_accuracy.to_json_value()),
                ("baseline_accuracy", self.baseline_accuracy.to_json_value()),
            ])
        }
    }
    let mut artifact: Vec<SweepPoint> = Vec::new();

    println!(
        "  {:>6} {:>6} {:>8} {:>6} {:>12} {:>12}",
        "x", "y", "n", "q", "forest acc", "baseline acc"
    );
    for &(x, y) in &[
        (1.0, 30.0),
        (2.0, 30.0),
        (4.0, 30.0),
        (7.0, 30.0),
        (2.0, 14.0),
        (2.0, 60.0),
    ] {
        let config = ExperimentConfig {
            x_days: x,
            y_days: y,
            repetitions: reps,
            grid: GridPreset::Off,
            seed,
            ..ExperimentConfig::default()
        };
        let result = Experiment::new(config).run(&census, None);
        println!(
            "  {x:>6.0} {y:>6.0} {:>8} {:>6.3} {:>12.3} {:>12.3}",
            result.population,
            result.positive_fraction,
            result.forest.accuracy,
            result.baseline.accuracy
        );
        artifact.push(SweepPoint {
            x_days: x,
            y_days: y,
            population: result.population,
            positive_fraction: result.positive_fraction,
            forest_accuracy: result.forest.accuracy,
            baseline_accuracy: result.baseline.accuracy,
        });
    }
    println!("\n  expectation: longer observation prefixes (x) help; very early boundaries (y = 14) are easier than y = 30");

    // Window-length sensitivity (extension): how much of the study
    // depends on the five-month trace? Shorter windows censor more of
    // the population (smaller labeled share, no visible 120-day cliff).
    println!("\n--- observation-window sensitivity (Region-1):");
    println!(
        "  {:>8} {:>9} {:>9} {:>8} {:>8}",
        "window", "dbs", "labeled", "q", "S(cliff)"
    );
    struct WindowPoint {
        window_days: u32,
        databases: usize,
        labeled: usize,
        positive_fraction: f64,
        survival_at_130: f64,
    }
    impl ToJson for WindowPoint {
        fn to_json_value(&self) -> JsonV {
            JsonV::obj(vec![
                ("window_days", self.window_days.to_json_value()),
                ("databases", self.databases.to_json_value()),
                ("labeled", self.labeled.to_json_value()),
                ("positive_fraction", self.positive_fraction.to_json_value()),
                ("survival_at_130", self.survival_at_130.to_json_value()),
            ])
        }
    }
    let mut window_artifact = Vec::new();
    for &window_days in &[92u32, 153, 214] {
        let mut region = telemetry::RegionConfig::region_1().scaled(h.options().scale);
        region.window_days = window_days;
        let fleet =
            telemetry::Fleet::generate(telemetry::FleetConfig::new(region, h.options().seed));
        let census = telemetry::Census::new(&fleet);
        let labeled = census.prediction_population(2.0);
        let positives = labeled
            .iter()
            .filter(|&&i| census.is_long_lived(&fleet.databases[i]))
            .count();
        let q = positives as f64 / labeled.len().max(1) as f64;
        let km = survival::KaplanMeier::fit(&survival::SurvivalData::from_pairs(
            &census.survival_pairs(2.0),
        ));
        let s130 = km.survival_at(130.0);
        println!(
            "  {window_days:>7}d {:>9} {:>9} {q:>8.3} {s130:>8.3}",
            census.study_population_size(),
            labeled.len()
        );
        window_artifact.push(WindowPoint {
            window_days,
            databases: census.study_population_size(),
            labeled: labeled.len(),
            positive_fraction: q,
            survival_at_130: s130,
        });
    }
    println!("  a 3-month window cannot see the ~120-day incentive cliff at all (S(130) stays near its last observed level)");
    h.write_artifact("sweep_window", &window_artifact);
    h.write_artifact("sweep", &artifact);
}

/// Extension: are the forest's probabilities calibrated enough to act
/// as confidence levels (§5.3's premise)? Reliability diagram + Brier
/// score on a held-out set.
fn calib(h: &mut Harness) {
    println!(
        "\n================ probability calibration of the forest (Region-1, whole population)\n"
    );
    let study = h.study().clone();
    let census = study.census(RegionId::Region1);
    let extractor = features::FeatureExtractor::new(&census, features::FeatureConfig::default());
    let (dataset, _) = extractor.build_dataset(&census, None);
    let (train, test) = forest::train_test_split(&dataset, 0.25, h.options().seed);
    let model = forest::RandomForest::fit(
        &train,
        &forest::RandomForestParams::default(),
        h.options().seed,
    );
    let probs: Vec<f64> = (0..test.len())
        .map(|i| model.predict_positive_proba_row(&test, i))
        .collect();
    let labels: Vec<usize> = (0..test.len()).map(|i| test.label(i)).collect();
    let diagram = forest::ReliabilityDiagram::build(&probs, &labels, 10);

    println!(
        "  {:>10} {:>10} {:>10} {:>8}",
        "bin", "predicted", "observed", "count"
    );
    for bin in diagram.bins() {
        if bin.count == 0 {
            continue;
        }
        println!(
            "  {:>4.1}-{:<4.1} {:>10.3} {:>10.3} {:>8}",
            bin.lo,
            bin.lo + 0.1,
            bin.mean_predicted,
            bin.observed_frequency,
            bin.count
        );
    }
    println!(
        "\n  Brier score {:.4} (0.25 = uninformative constant 0.5); expected calibration error {:.4}",
        diagram.brier_score(),
        diagram.expected_calibration_error()
    );
    println!("  paper premise (§5.3, citing Zadrozny & Elkan): forest probabilities are usable as confidence levels without recalibration");

    struct CalibArtifact {
        brier: f64,
        ece: f64,
        bins: Vec<(f64, f64, f64, usize)>,
    }
    impl ToJson for CalibArtifact {
        fn to_json_value(&self) -> JsonV {
            JsonV::obj(vec![
                ("brier", self.brier.to_json_value()),
                ("ece", self.ece.to_json_value()),
                ("bins", self.bins.to_json_value()),
            ])
        }
    }
    h.write_artifact(
        "calib",
        &CalibArtifact {
            brier: diagram.brier_score(),
            ece: diagram.expected_calibration_error(),
            bins: diagram
                .bins()
                .iter()
                .map(|b| (b.lo, b.mean_predicted, b.observed_frequency, b.count))
                .collect(),
        },
    );
}

/// Extension: model-family comparison the paper deliberately skipped
/// (§6: "The goal of our work was not to compare different
/// approaches"). Random forest vs a single tree vs the weighted-random
/// baseline, on one held-out split.
fn models(h: &mut Harness) {
    println!(
        "\n================ model-family comparison (Region-1, whole population, extension)\n"
    );
    let study = h.study().clone();
    let census = study.census(RegionId::Region1);
    let extractor = features::FeatureExtractor::new(&census, features::FeatureConfig::default());
    let (dataset, _) = extractor.build_dataset(&census, None);
    let (train, test) = forest::train_test_split(&dataset, 0.25, h.options().seed);
    let actual: Vec<usize> = (0..test.len()).map(|i| test.label(i)).collect();
    let seed = h.options().seed;

    let score = |preds: &[usize], probs: Option<&[f64]>| {
        let m = forest::ConfusionMatrix::from_predictions(preds, &actual);
        let auc = probs.map(|p| forest::roc_auc(p, &actual));
        (m.scores(), auc)
    };

    struct ModelRow {
        model: String,
        accuracy: f64,
        precision: f64,
        recall: f64,
        auc: Option<f64>,
    }
    impl ToJson for ModelRow {
        fn to_json_value(&self) -> JsonV {
            JsonV::obj(vec![
                ("model", self.model.to_json_value()),
                ("accuracy", self.accuracy.to_json_value()),
                ("precision", self.precision.to_json_value()),
                ("recall", self.recall.to_json_value()),
                ("auc", self.auc.to_json_value()),
            ])
        }
    }
    let mut artifact: Vec<ModelRow> = Vec::new();
    let mut report = |name: &str, scores: forest::ClassificationScores, auc: Option<f64>| {
        println!(
            "  {name:<18} acc {:.3}  prec {:.3}  rec {:.3}  auc {}",
            scores.accuracy,
            scores.precision,
            scores.recall,
            auc.map_or("   -".to_string(), |a| format!("{a:.3}")),
        );
        artifact.push(ModelRow {
            model: name.to_string(),
            accuracy: scores.accuracy,
            precision: scores.precision,
            recall: scores.recall,
            auc,
        });
    };

    // Random forest.
    let rf = forest::RandomForest::fit(&train, &forest::RandomForestParams::default(), seed);
    let rf_probs: Vec<f64> = (0..test.len())
        .map(|i| rf.predict_positive_proba_row(&test, i))
        .collect();
    let rf_preds: Vec<usize> = rf_probs.iter().map(|&p| (p > 0.5) as usize).collect();
    let (s, auc) = score(&rf_preds, Some(&rf_probs));
    report("random forest", s, auc);

    // Single CART tree (the ensemble ablated to one member).
    let single = forest::RandomForestParams {
        n_trees: 1,
        bootstrap: false,
        max_features: forest::MaxFeatures::All,
        ..forest::RandomForestParams::default()
    };
    let tree = forest::RandomForest::fit(&train, &single, seed);
    let tree_preds: Vec<usize> = (0..test.len())
        .map(|i| tree.predict_row(&test, i))
        .collect();
    let (s, _) = score(&tree_preds, None);
    report("single tree", s, None);

    // Weighted-random baseline.
    let baseline = forest::WeightedRandomClassifier::fit(&train);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let baseline_preds = baseline.predict_many(test.len(), &mut rng);
    let (s, _) = score(&baseline_preds, None);
    report("weighted random", s, None);

    println!("\n  expectation: the forest lands well above a single tree and the baseline");
    h.write_artifact("models", &artifact);
}

/// Design-choice ablations behind §5.4 and DESIGN.md: held-out
/// accuracy as the forest size, the depth limit, bootstrapping and the
/// feature families vary one at a time around a 40-tree forest. The
/// data is fixed, independent of `--scale` and `--seed`: Region-1 at
/// scale 0.15 with fleet seed 2018, a 25% stratified holdout with seed
/// 7, and fit seed 7. Training cost is `perfbench study`'s to measure.
fn ablate(h: &mut Harness) {
    println!("\n================ design-choice ablations (Region-1, scale 0.15, extension)\n");
    let fleet = telemetry::Fleet::generate(telemetry::FleetConfig::new(
        telemetry::RegionConfig::region_1().scaled(0.15),
        2018,
    ));
    let census = Census::new(&fleet);
    let extractor = features::FeatureExtractor::new(&census, features::FeatureConfig::default());
    let (data, _) = extractor.build_dataset(&census, None);

    struct AblationRow {
        study: &'static str,
        setting: String,
        features: usize,
        accuracy: f64,
    }
    impl ToJson for AblationRow {
        fn to_json_value(&self) -> JsonV {
            JsonV::obj(vec![
                ("study", self.study.to_json_value()),
                ("setting", self.setting.to_json_value()),
                ("features", self.features.to_json_value()),
                ("accuracy", self.accuracy.to_json_value()),
            ])
        }
    }
    let mut artifact: Vec<AblationRow> = Vec::new();
    let mut run = |study: &'static str,
                   setting: String,
                   dataset: &forest::Dataset,
                   params: &forest::RandomForestParams| {
        let (train, test) = forest::train_test_split(dataset, 0.25, 7);
        let model = forest::RandomForest::fit(&train, params, 7);
        let preds: Vec<usize> = (0..test.len())
            .map(|i| model.predict_row(&test, i))
            .collect();
        let actual: Vec<usize> = (0..test.len()).map(|i| test.label(i)).collect();
        let accuracy = forest::ConfusionMatrix::from_predictions(&preds, &actual).accuracy();
        println!(
            "  {study:<9} = {setting:<10}: holdout accuracy {accuracy:.3} ({} features)",
            dataset.feature_count()
        );
        artifact.push(AblationRow {
            study,
            setting,
            features: dataset.feature_count(),
            accuracy,
        });
    };

    let forest_40 = forest::RandomForestParams {
        n_trees: 40,
        ..forest::RandomForestParams::default()
    };
    for n_trees in [10, 40, 120] {
        let params = forest::RandomForestParams {
            n_trees,
            ..forest::RandomForestParams::default()
        };
        run("trees", n_trees.to_string(), &data, &params);
    }
    for max_depth in [4, 10, 24] {
        let params = forest::RandomForestParams {
            tree: forest::TreeParams {
                max_depth,
                ..forest::TreeParams::default()
            },
            ..forest_40
        };
        run("depth", max_depth.to_string(), &data, &params);
    }
    for bootstrap in [true, false] {
        let params = forest::RandomForestParams {
            bootstrap,
            ..forest_40
        };
        run("bootstrap", bootstrap.to_string(), &data, &params);
    }
    // Dropping a family measures its contribution to the §5.4 ranking.
    type Keep = fn(&str) -> bool;
    let families: [(&str, Keep); 4] = [
        ("full", |_| true),
        ("no-history", |n| !n.starts_with("hist_")),
        ("no-names", |n| {
            !(n.starts_with("server_") || n.starts_with("db_"))
        }),
        ("no-time", |n| !n.starts_with("created_")),
    ];
    for (label, keep) in families {
        let keep_idx: Vec<usize> = (0..data.feature_count())
            .filter(|&i| keep(&data.feature_names()[i]))
            .collect();
        let names = keep_idx
            .iter()
            .map(|&i| data.feature_names()[i].clone())
            .collect();
        let mut subset = forest::Dataset::new(names, data.class_count());
        for r in 0..data.len() {
            subset.push(
                keep_idx.iter().map(|&i| data.value(r, i)).collect(),
                data.label(r),
            );
        }
        run("features", label.to_string(), &subset, &forest_40);
    }
    h.write_artifact("ablate", &artifact);
}

/// §7's actionable conclusion: segment subscriptions from their first
/// half-window of history and validate the segments on the second half.
fn segments(h: &mut Harness) {
    println!(
        "\n================ subscription segmentation (§7 conclusion, out-of-time validated)\n"
    );
    use survdb::segments::{segment_report, SegmentConfig};
    let mut artifact = Vec::new();
    for region in RegionId::ALL {
        let census = h.study().census(region);
        let cutoff = census.fleet().window_start() + simtime::Duration::days(76);
        let report = segment_report(&census, cutoff, &SegmentConfig::default());
        println!("--- {region} (segments assigned at day 76 of the window)");
        let mut sizes: Vec<(&String, &usize)> = report.segment_sizes.iter().collect();
        sizes.sort_by(|a, b| b.1.cmp(a.1));
        for (segment, count) in sizes {
            println!("  {segment:<18} {count:>6} subscriptions");
        }
        println!(
            "  out-of-time: {} post-cutoff databases; naive segment rule accuracy {}; cycler precision {}",
            report.evaluated,
            report
                .out_of_time_accuracy
                .map_or("-".into(), |a| format!("{a:.3}")),
            report
                .cycler_precision
                .map_or("-".into(), |p| format!("{p:.3}")),
        );
        artifact.push(report);
    }
    println!("\n  paper: \"by simply looking at historical data, we can identify customers that follow this pattern\" (Obs 3.1 / §7)");
    h.write_artifact("segments", &artifact);
}
