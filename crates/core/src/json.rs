//! Deterministic JSON rendering for artifacts.
//!
//! The reproduction's acceptance bar is byte-determinism: re-running
//! `repro` or `faultsweep` with the same seed must leave every
//! `artifacts/*.json` byte-identical. A generic serializer makes that
//! promise fragile — map iteration order and float formatting are
//! implementation details — so artifacts convert into the workspace's
//! one value tree, [`obs::jsonv::JsonV`], whose renderer fixes float
//! formatting and key order. Hash maps are sorted before rendering.

use crate::degradation::Scores;
use crate::experiment::{GroupingAnalysis, KmSeries, SubgroupResult};
use crate::observations::{EditionSurvival, ObservationReport};
use crate::provisioning::{PlacementPolicy, ProvisioningOutcome};
use crate::segments::SegmentReport;
use forest::ClassificationScores;
use obs::jsonv::JsonV;
use std::collections::{BTreeMap, HashMap};

/// Conversion into the deterministic JSON tree. Every artifact type
/// implements this; the harness's `write_artifact` accepts any
/// implementor.
pub trait ToJson {
    /// The value as a JSON tree.
    fn to_json_value(&self) -> JsonV;
}

impl ToJson for JsonV {
    fn to_json_value(&self) -> JsonV {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json_value(&self) -> JsonV {
        JsonV::Bool(*self)
    }
}

impl ToJson for usize {
    fn to_json_value(&self) -> JsonV {
        JsonV::UInt(*self as u64)
    }
}

impl ToJson for u32 {
    fn to_json_value(&self) -> JsonV {
        JsonV::UInt(u64::from(*self))
    }
}

impl ToJson for u64 {
    fn to_json_value(&self) -> JsonV {
        JsonV::UInt(*self)
    }
}

impl ToJson for i64 {
    fn to_json_value(&self) -> JsonV {
        JsonV::Int(*self)
    }
}

impl ToJson for f64 {
    fn to_json_value(&self) -> JsonV {
        JsonV::Float(*self)
    }
}

impl ToJson for String {
    fn to_json_value(&self) -> JsonV {
        JsonV::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json_value(&self) -> JsonV {
        JsonV::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json_value(&self) -> JsonV {
        match self {
            Some(v) => v.to_json_value(),
            None => JsonV::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json_value(&self) -> JsonV {
        JsonV::Arr(self.iter().map(ToJson::to_json_value).collect())
    }
}

impl<T: ToJson> ToJson for &T {
    fn to_json_value(&self) -> JsonV {
        (*self).to_json_value()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json_value(&self) -> JsonV {
        JsonV::Arr(vec![self.0.to_json_value(), self.1.to_json_value()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json_value(&self) -> JsonV {
        JsonV::Arr(vec![
            self.0.to_json_value(),
            self.1.to_json_value(),
            self.2.to_json_value(),
        ])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson, D: ToJson> ToJson for (A, B, C, D) {
    fn to_json_value(&self) -> JsonV {
        JsonV::Arr(vec![
            self.0.to_json_value(),
            self.1.to_json_value(),
            self.2.to_json_value(),
            self.3.to_json_value(),
        ])
    }
}

impl<T: ToJson> ToJson for BTreeMap<String, T> {
    fn to_json_value(&self) -> JsonV {
        JsonV::Obj(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_json_value()))
                .collect(),
        )
    }
}

impl<T: ToJson> ToJson for HashMap<String, T> {
    fn to_json_value(&self) -> JsonV {
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        JsonV::Obj(
            keys.into_iter()
                .map(|k| (k.clone(), self[k].to_json_value()))
                .collect(),
        )
    }
}

impl ToJson for ClassificationScores {
    fn to_json_value(&self) -> JsonV {
        JsonV::obj(vec![
            ("accuracy", JsonV::Float(self.accuracy)),
            ("precision", JsonV::Float(self.precision)),
            ("recall", JsonV::Float(self.recall)),
            ("support", JsonV::UInt(self.support as u64)),
        ])
    }
}

impl ToJson for Scores {
    fn to_json_value(&self) -> JsonV {
        JsonV::obj(vec![
            ("accuracy", JsonV::Float(self.accuracy)),
            ("precision", JsonV::Float(self.precision)),
            ("recall", JsonV::Float(self.recall)),
        ])
    }
}

impl ToJson for KmSeries {
    fn to_json_value(&self) -> JsonV {
        JsonV::obj(vec![
            ("label", self.label.to_json_value()),
            ("n", self.n.to_json_value()),
            ("points", self.points.to_json_value()),
        ])
    }
}

impl ToJson for GroupingAnalysis {
    fn to_json_value(&self) -> JsonV {
        JsonV::obj(vec![
            ("short_curve", self.short_curve.to_json_value()),
            ("long_curve", self.long_curve.to_json_value()),
            ("logrank_p", JsonV::Float(self.logrank_p)),
            ("logrank_statistic", JsonV::Float(self.logrank_statistic)),
        ])
    }
}

impl ToJson for SubgroupResult {
    fn to_json_value(&self) -> JsonV {
        JsonV::obj(vec![
            ("region", self.region.to_json_value()),
            ("edition", self.edition.to_json_value()),
            ("positive_fraction", JsonV::Float(self.positive_fraction)),
            (
                "confidence_threshold",
                JsonV::Float(self.confidence_threshold),
            ),
            ("population", self.population.to_json_value()),
            ("forest", self.forest.to_json_value()),
            ("baseline", self.baseline.to_json_value()),
            ("confident", self.confident.to_json_value()),
            ("uncertain", self.uncertain.to_json_value()),
            ("confident_fraction", JsonV::Float(self.confident_fraction)),
            ("whole_grouping", self.whole_grouping.to_json_value()),
            ("baseline_grouping", self.baseline_grouping.to_json_value()),
            (
                "confident_grouping",
                self.confident_grouping.to_json_value(),
            ),
            (
                "uncertain_grouping",
                self.uncertain_grouping.to_json_value(),
            ),
            ("oob_accuracy", JsonV::Float(self.oob_accuracy)),
            ("importances", self.importances.to_json_value()),
            ("tuned_params", self.tuned_params.to_json_value()),
        ])
    }
}

impl ToJson for EditionSurvival {
    fn to_json_value(&self) -> JsonV {
        JsonV::obj(vec![
            ("edition", self.edition.to_json_value()),
            ("n", self.n.to_json_value()),
            ("s30", JsonV::Float(self.s30)),
            ("s60", JsonV::Float(self.s60)),
            ("s120", JsonV::Float(self.s120)),
            ("always_s60", JsonV::Float(self.always_s60)),
            ("always_n", self.always_n.to_json_value()),
            ("changed_s60", JsonV::Float(self.changed_s60)),
            ("changed_n", self.changed_n.to_json_value()),
        ])
    }
}

impl ToJson for ObservationReport {
    fn to_json_value(&self) -> JsonV {
        JsonV::obj(vec![
            ("region", self.region.to_json_value()),
            (
                "ephemeral_only_subscription_share",
                JsonV::Float(self.ephemeral_only_subscription_share),
            ),
            (
                "ephemeral_only_database_share",
                JsonV::Float(self.ephemeral_only_database_share),
            ),
            ("edition_survival", self.edition_survival.to_json_value()),
            ("edition_logrank_p", JsonV::Float(self.edition_logrank_p)),
            (
                "edition_change_rates",
                self.edition_change_rates.to_json_value(),
            ),
        ])
    }
}

impl ToJson for PlacementPolicy {
    fn to_json_value(&self) -> JsonV {
        JsonV::Str(
            match self {
                PlacementPolicy::Agnostic => "Agnostic",
                PlacementPolicy::LongevityGuided => "LongevityGuided",
            }
            .to_string(),
        )
    }
}

impl ToJson for ProvisioningOutcome {
    fn to_json_value(&self) -> JsonV {
        JsonV::obj(vec![
            ("policy", self.policy.to_json_value()),
            ("placed", self.placed.to_json_value()),
            ("clusters_opened", self.clusters_opened.to_json_value()),
            ("disruptions", self.disruptions.to_json_value()),
            (
                "wasted_disruptions",
                self.wasted_disruptions.to_json_value(),
            ),
            ("moves", self.moves.to_json_value()),
            ("wasted_moves", self.wasted_moves.to_json_value()),
        ])
    }
}

impl ToJson for SegmentReport {
    fn to_json_value(&self) -> JsonV {
        JsonV::obj(vec![
            (
                "cutoff_epoch_seconds",
                JsonV::Int(self.cutoff_epoch_seconds),
            ),
            ("segment_sizes", self.segment_sizes.to_json_value()),
            (
                "out_of_time_accuracy",
                self.out_of_time_accuracy.to_json_value(),
            ),
            ("cycler_precision", self.cycler_precision.to_json_value()),
            ("evaluated", self.evaluated.to_json_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(JsonV::Null.render(), "null\n");
        assert_eq!(JsonV::Bool(true).render(), "true\n");
        assert_eq!(JsonV::UInt(17).render(), "17\n");
        assert_eq!(JsonV::Int(-3).render(), "-3\n");
        assert_eq!(JsonV::Float(17.0).render(), "17.0\n");
        assert_eq!(JsonV::Float(0.125).render(), "0.125\n");
        assert_eq!(JsonV::Float(f64::NAN).render(), "null\n");
        assert_eq!(JsonV::Str("a\"b".into()).render(), "\"a\\\"b\"\n");
    }

    #[test]
    fn nested_pretty_layout() {
        let v = JsonV::obj(vec![
            ("name", JsonV::Str("x".into())),
            ("points", JsonV::Arr(vec![JsonV::UInt(1), JsonV::UInt(2)])),
            ("empty", JsonV::Arr(vec![])),
        ]);
        assert_eq!(
            v.render(),
            "{\n  \"name\": \"x\",\n  \"points\": [\n    1,\n    2\n  ],\n  \"empty\": []\n}\n"
        );
    }

    #[test]
    fn hash_maps_render_sorted() {
        let mut m: HashMap<String, usize> = HashMap::new();
        m.insert("zeta".into(), 1);
        m.insert("alpha".into(), 2);
        m.insert("mid".into(), 3);
        let rendered = m.to_json_value().render();
        let alpha = rendered.find("alpha").unwrap();
        let mid = rendered.find("mid").unwrap();
        let zeta = rendered.find("zeta").unwrap();
        assert!(alpha < mid && mid < zeta, "{rendered}");
    }

    #[test]
    fn rendering_is_reproducible() {
        let scores = ClassificationScores {
            accuracy: 0.875,
            precision: 1.0 / 3.0,
            recall: 1.0,
            support: 40,
        };
        let a = scores.to_json_value().render();
        let b = scores.to_json_value().render();
        assert_eq!(a, b);
        assert!(a.contains("\"support\": 40"));
        assert!(a.contains("\"recall\": 1.0"));
    }
}
