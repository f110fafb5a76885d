//! DTU-utilization telemetry.
//!
//! The paper lists "utilization levels" first among the telemetry each
//! database emits (§2, citing the SoCC'15 Azure SQLDB telemetry paper),
//! and §2 motivates SLO elasticity with the observation that "users
//! scale down their SLOs on Fridays and scale them back up on Monday
//! morning". This module models a database's DTU-percent trace: a
//! diurnal/weekly profile per archetype with activity levels linked to
//! the latent longevity trait — an abandoned database idles before it
//! is dropped, which is usable (weak) signal for the feature pipeline.

use rand::Rng;
use simtime::{Duration, Timestamp};
use std::sync::OnceLock;

/// Periodic DTU-utilization samples for one database, as offsets from
/// creation. Values are percentages in `[0, 100]`.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationTrace {
    samples: Vec<(Duration, f64)>,
}

impl UtilizationTrace {
    /// Creates a trace from samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, offsets are not strictly
    /// increasing, or any value is outside `[0, 100]`.
    pub fn new(samples: Vec<(Duration, f64)>) -> UtilizationTrace {
        assert!(!samples.is_empty(), "utilization trace needs samples");
        for w in samples.windows(2) {
            assert!(w[1].0 > w[0].0, "offsets must be strictly increasing");
        }
        for (_, v) in &samples {
            assert!(
                v.is_finite() && (0.0..=100.0).contains(v),
                "utilization {v} out of range"
            );
        }
        UtilizationTrace { samples }
    }

    /// All samples.
    pub fn samples(&self) -> &[(Duration, f64)] {
        &self.samples
    }

    /// Samples with offsets `<= horizon`.
    pub fn prefix(&self, horizon: Duration) -> &[(Duration, f64)] {
        let end = self
            .samples
            .partition_point(|(offset, _)| *offset <= horizon);
        &self.samples[..end]
    }
}

/// Parameters of the utilization generator for one database.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationProfile {
    /// Mean busy-hour utilization (percent).
    pub base_level: f64,
    /// How strongly usage follows business hours (0 = flat, 1 = fully
    /// diurnal).
    pub diurnality: f64,
    /// Multiplier applied on weekends (the Friday-scale-down customers
    /// sit near 0.2).
    pub weekend_factor: f64,
    /// Multiplicative noise half-width.
    pub noise: f64,
}

/// The cosine day-shape peaking at 14:00 local, in `[0, 1]`, for an
/// hour of the day. The 24 values are computed once per process.
fn day_shape(hour: u8) -> f64 {
    static SHAPE: OnceLock<[f64; 24]> = OnceLock::new();
    SHAPE.get_or_init(|| {
        std::array::from_fn(|hour| {
            0.5 + 0.5 * ((hour as f64 - 14.0) / 24.0 * std::f64::consts::TAU).cos()
        })
    })[hour as usize]
}

impl UtilizationProfile {
    /// Generates a trace starting at `created_at`, sampled every
    /// `step`, covering `horizon`.
    ///
    /// # Panics
    ///
    /// Panics if `step` or `horizon` is non-positive.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        created_at: Timestamp,
        horizon: Duration,
        step: Duration,
        rng: &mut R,
    ) -> UtilizationTrace {
        assert!(step.as_seconds() > 0, "step must be positive");
        assert!(horizon.as_seconds() >= 0, "horizon must be non-negative");
        let mut samples = Vec::new();
        let mut offset = Duration::seconds(0);
        loop {
            let at = created_at + offset;
            let diurnal = 1.0 - self.diurnality + self.diurnality * day_shape(at.hour());
            let weekend = if at.date().weekday().is_weekend() {
                self.weekend_factor
            } else {
                1.0
            };
            let noise = 1.0 + (rng.gen::<f64>() - 0.5) * 2.0 * self.noise;
            let value = (self.base_level * diurnal * weekend * noise).clamp(0.0, 100.0);
            samples.push((offset, value));
            offset = offset + step;
            if offset > horizon {
                break;
            }
        }
        UtilizationTrace::new(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn profile() -> UtilizationProfile {
        UtilizationProfile {
            base_level: 60.0,
            diurnality: 0.8,
            weekend_factor: 0.2,
            noise: 0.05,
        }
    }

    #[test]
    fn generates_in_range_and_ordered() {
        let mut rng = SmallRng::seed_from_u64(1);
        // A Monday.
        let start = Timestamp::from_ymd_hms(2017, 6, 5, 0, 0, 0);
        let trace = profile().generate(start, Duration::days(7), Duration::hours(6), &mut rng);
        assert!(trace.samples().len() >= 28);
        for w in trace.samples().windows(2) {
            assert!(w[1].0 > w[0].0);
        }
        assert!(trace
            .samples()
            .iter()
            .all(|(_, v)| (0.0..=100.0).contains(v)));
    }

    #[test]
    fn weekends_are_quieter() {
        let mut rng = SmallRng::seed_from_u64(2);
        let start = Timestamp::from_ymd_hms(2017, 6, 5, 0, 0, 0); // Monday
        let trace = profile().generate(start, Duration::days(14), Duration::hours(3), &mut rng);
        let (mut week_sum, mut week_n, mut wend_sum, mut wend_n) = (0.0, 0, 0.0, 0);
        for &(offset, v) in trace.samples() {
            if (start + offset).date().weekday().is_weekend() {
                wend_sum += v;
                wend_n += 1;
            } else {
                week_sum += v;
                week_n += 1;
            }
        }
        let week = week_sum / week_n as f64;
        let weekend = wend_sum / wend_n as f64;
        assert!(weekend < week * 0.5, "weekend {weekend} vs weekday {week}");
    }

    #[test]
    fn diurnal_peak_in_afternoon() {
        let mut rng = SmallRng::seed_from_u64(3);
        let start = Timestamp::from_ymd_hms(2017, 6, 5, 0, 0, 0);
        let trace = profile().generate(start, Duration::days(5), Duration::hours(1), &mut rng);
        let mean_at = |hour: u8| -> f64 {
            let vals: Vec<f64> = trace
                .samples()
                .iter()
                .filter(|&&(offset, _)| (start + offset).hour() == hour)
                .map(|&(_, v)| v)
                .collect();
            vals.iter().sum::<f64>() / vals.len().max(1) as f64
        };
        assert!(mean_at(14) > mean_at(2) * 1.5);
    }

    #[test]
    fn flat_profile_is_flat() {
        let mut rng = SmallRng::seed_from_u64(4);
        let flat = UtilizationProfile {
            base_level: 30.0,
            diurnality: 0.0,
            weekend_factor: 1.0,
            noise: 0.0,
        };
        let start = Timestamp::from_ymd_hms(2017, 6, 5, 0, 0, 0);
        let trace = flat.generate(start, Duration::days(3), Duration::hours(6), &mut rng);
        assert!(trace
            .samples()
            .iter()
            .all(|&(_, v)| (v - 30.0).abs() < 1e-9));
    }

    #[test]
    fn prefix_respects_horizon() {
        let mut rng = SmallRng::seed_from_u64(5);
        let start = Timestamp::from_ymd_hms(2017, 6, 5, 0, 0, 0);
        let trace = profile().generate(start, Duration::days(4), Duration::hours(6), &mut rng);
        let prefix = trace.prefix(Duration::days(2));
        assert!(prefix.len() < trace.samples().len());
        assert!(prefix.iter().all(|(o, _)| *o <= Duration::days(2)));
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range() {
        UtilizationTrace::new(vec![(Duration::seconds(0), 120.0)]);
    }
}
