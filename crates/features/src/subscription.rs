//! Subscription-type and subscription-history features.
//!
//! Paper §4.2, the family that §5.4 finds most predictive. For a
//! database `I` with creation time `Tc` and prediction time `Tp`, the
//! paper groups the owning subscription's other databases as:
//!
//! 1. created before `Tc` and still alive at `Tc`;
//! 2. created before `Tc`, dropped any time (a superset of group 1);
//! 3. created in `(Tc, Tp)`.
//!
//! For groups 1 and 2 it computes counts plus max/min/avg/std of sizes
//! and lifespans; for group 3 the count. All lifespans are censored at
//! `Tp` — nothing later than the prediction instant may leak in.

use simtime::Timestamp;
use stats::Summary;
use std::collections::HashMap;
use telemetry::{DatabaseRecord, Fleet, SubscriptionId, SubscriptionType};

/// Names of the subscription features (type one-hot + history groups).
pub fn subscription_feature_names() -> Vec<String> {
    let mut names: Vec<String> = SubscriptionType::ALL
        .iter()
        .map(|t| format!("sub_type_{t}"))
        .collect();
    for group in ["g1", "g2"] {
        names.push(format!("hist_{group}_count"));
        for stat in ["max", "min", "avg", "std"] {
            names.push(format!("hist_{group}_size_{stat}"));
        }
        for stat in ["max", "min", "avg", "std"] {
            names.push(format!("hist_{group}_life_{stat}"));
        }
    }
    names.push("hist_g3_count".into());
    names
}

/// A compact sibling-database summary used by the history features.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SiblingRecord {
    created_at: Timestamp,
    dropped_at: Option<Timestamp>,
    max_size_mb: f64,
    id: u64,
}

/// Precomputed per-subscription index over a fleet, so per-database
/// feature extraction is O(siblings) instead of O(fleet).
#[derive(Debug, Clone, Default)]
pub struct SubscriptionHistoryIndex {
    by_subscription: HashMap<SubscriptionId, Vec<SiblingRecord>>,
}

impl SubscriptionHistoryIndex {
    /// Builds the index from a fleet.
    pub fn build(fleet: &Fleet) -> SubscriptionHistoryIndex {
        let mut by_subscription: HashMap<SubscriptionId, Vec<SiblingRecord>> = HashMap::new();
        for db in &fleet.databases {
            let max_size = db
                .size_trace
                .samples()
                .iter()
                .map(|&(_, s)| s)
                .fold(f64::NEG_INFINITY, f64::max);
            by_subscription
                .entry(db.subscription_id)
                .or_default()
                .push(SiblingRecord {
                    created_at: db.created_at,
                    dropped_at: db.dropped_at,
                    max_size_mb: max_size,
                    id: db.id,
                });
        }
        for records in by_subscription.values_mut() {
            records.sort_by_key(|r| (r.created_at, r.id));
        }
        SubscriptionHistoryIndex { by_subscription }
    }

    /// Extracts the history features for `db` at prediction time
    /// `prediction_at` (`Tp`). The record itself is excluded from every
    /// group.
    pub fn history_features(&self, db: &DatabaseRecord, prediction_at: Timestamp) -> Vec<f64> {
        let tc = db.created_at;
        let tp = prediction_at;
        let empty: Vec<SiblingRecord> = Vec::new();
        let siblings = self
            .by_subscription
            .get(&db.subscription_id)
            .unwrap_or(&empty);

        // Group accumulators: (count, size summary, lifespan summary).
        let mut g1_sizes = Summary::new();
        let mut g1_lives = Summary::new();
        let mut g1_count = 0usize;
        let mut g2_sizes = Summary::new();
        let mut g2_lives = Summary::new();
        let mut g2_count = 0usize;
        let mut g3_count = 0usize;

        for s in siblings {
            if s.id == db.id {
                continue;
            }
            // Only telemetry from before Tp exists at prediction time.
            if s.created_at >= tp {
                continue;
            }
            // Observed (possibly Tp-censored) lifespan in days.
            let end = match s.dropped_at {
                Some(d) if d <= tp => d,
                _ => tp,
            };
            let life_days = (end - s.created_at).as_days_f64();

            if s.created_at < tc {
                // Group 2: created before Tc, dropped any time.
                g2_count += 1;
                g2_sizes.push(s.max_size_mb);
                g2_lives.push(life_days);
                // Group 1: additionally still alive at Tc.
                let alive_at_tc = match s.dropped_at {
                    Some(d) => d > tc,
                    None => true,
                };
                if alive_at_tc {
                    g1_count += 1;
                    g1_sizes.push(s.max_size_mb);
                    g1_lives.push(life_days);
                }
            } else {
                // Group 3: created in (Tc, Tp).
                g3_count += 1;
            }
        }

        let mut out = Vec::with_capacity(19);
        for (count, sizes, lives) in [
            (g1_count, g1_sizes, g1_lives),
            (g2_count, g2_sizes, g2_lives),
        ] {
            out.push(count as f64);
            out.extend([sizes.max(), sizes.min(), sizes.mean(), sizes.std_dev()]);
            out.extend([lives.max(), lives.min(), lives.mean(), lives.std_dev()]);
        }
        out.push(g3_count as f64);
        out
    }
}

/// One-hot subscription-type features.
pub fn subscription_type_features(t: SubscriptionType) -> Vec<f64> {
    let mut out = vec![0.0; SubscriptionType::ALL.len()];
    out[t.index()] = 1.0;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::Duration;
    use telemetry::{Fleet, FleetConfig, RegionConfig};

    fn fleet() -> Fleet {
        Fleet::generate(FleetConfig::new(RegionConfig::region_1().scaled(0.03), 5))
    }

    #[test]
    fn one_hot_is_exclusive() {
        for t in SubscriptionType::ALL {
            let f = subscription_type_features(t);
            assert_eq!(f.iter().sum::<f64>(), 1.0);
            assert_eq!(f[t.index()], 1.0);
        }
    }

    #[test]
    fn feature_name_count_matches_vector() {
        let f = fleet();
        let index = SubscriptionHistoryIndex::build(&f);
        let db = &f.databases[f.databases.len() / 2];
        let features = index.history_features(db, db.created_at + Duration::days(2));
        // 19 history features; the full name list adds 5 type one-hots.
        assert_eq!(features.len() + 5, subscription_feature_names().len());
    }

    #[test]
    fn groups_count_siblings_not_self() {
        let f = fleet();
        let index = SubscriptionHistoryIndex::build(&f);
        // Find a cycler-owned database: many siblings.
        let busy = f
            .databases
            .iter()
            .max_by_key(|db| {
                f.databases
                    .iter()
                    .filter(|o| o.subscription_id == db.subscription_id)
                    .count()
            })
            .unwrap();
        let tp = busy.created_at + Duration::days(2);
        let features = index.history_features(busy, tp);
        let g1 = features[0];
        let g2 = features[9];
        let g3 = features[18];
        // Group 1 ⊆ group 2.
        assert!(g1 <= g2);
        // A busy subscription has some history or concurrent creations.
        assert!(g2 + g3 > 0.0);
    }

    #[test]
    fn no_leakage_of_future_lifespans() {
        // Group-2 lifespans are censored at Tp: the feature is the
        // largest censored lifespan of a sibling created before Tc.
        let f = fleet();
        let index = SubscriptionHistoryIndex::build(&f);
        let mut with_history = 0;
        for db in f.databases.iter().take(300) {
            let tp = db.created_at + Duration::days(2);
            let features = index.history_features(db, tp);
            let g2_life_max = features[9 + 5];
            let censored: Vec<f64> = f
                .databases
                .iter()
                .filter(|s| {
                    s.subscription_id == db.subscription_id
                        && s.id != db.id
                        && s.created_at < db.created_at
                })
                .map(|s| {
                    let end = match s.dropped_at {
                        Some(d) if d <= tp => d,
                        _ => tp,
                    };
                    (end - s.created_at).as_days_f64()
                })
                .collect();
            for &life in &censored {
                assert!(life <= g2_life_max, "lifespan {life} above the max");
            }
            if censored.is_empty() {
                assert_eq!(g2_life_max, 0.0);
            } else {
                with_history += 1;
                assert!(
                    censored.contains(&g2_life_max),
                    "max {g2_life_max} is no sibling's censored lifespan"
                );
            }
            // Nor can it exceed the oldest sibling's age at Tp.
            let oldest_age = f
                .databases
                .iter()
                .filter(|s| s.subscription_id == db.subscription_id && s.id != db.id)
                .map(|s| (tp - s.created_at).as_days_f64())
                .fold(0.0_f64, f64::max);
            assert!(g2_life_max <= oldest_age + 1e-9);
        }
        assert!(with_history > 0, "some databases have group-2 siblings");
    }

    #[test]
    fn empty_history_yields_zeros() {
        let f = fleet();
        let index = SubscriptionHistoryIndex::build(&f);
        // The very first database of a subscription, predicted
        // immediately at creation+ε, can only see group-3 siblings.
        let first = &f.databases[0];
        let features = index.history_features(first, first.created_at + Duration::days(2));
        assert_eq!(features[0], 0.0); // no group-1 siblings before first
    }
}
