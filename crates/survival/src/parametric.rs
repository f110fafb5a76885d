//! Censored maximum-likelihood fits of parametric lifetime models.
//!
//! An extension over the paper's purely nonparametric analysis: fitting
//! exponential and Weibull models to database lifespans quantifies the
//! "infant mortality" regime (Weibull shape < 1) and supports AIC-based
//! model comparison in the study report.

use crate::types::SurvivalData;
use stats::distributions::{ContinuousDistribution, Exponential, Weibull};

/// Maximum-likelihood exponential fit under right-censoring.
///
/// The MLE has the closed form `λ̂ = events / total observed time`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialFit {
    rate: f64,
    log_likelihood: f64,
    events: usize,
    n: usize,
}

impl ExponentialFit {
    /// Fits the model.
    ///
    /// # Panics
    ///
    /// Panics if there are no events or the total observed time is zero
    /// (the likelihood is then unbounded / undefined).
    pub fn fit(data: &SurvivalData) -> ExponentialFit {
        let events = data.event_count();
        let total_time: f64 = data.observations().iter().map(|o| o.duration).sum();
        assert!(events > 0, "exponential MLE requires at least one event");
        assert!(
            total_time > 0.0,
            "exponential MLE requires positive total time"
        );
        let rate = events as f64 / total_time;
        let log_likelihood = events as f64 * rate.ln() - rate * total_time;
        ExponentialFit {
            rate,
            log_likelihood,
            events,
            n: data.len(),
        }
    }

    /// Fitted rate λ̂.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The fitted distribution.
    pub fn distribution(&self) -> Exponential {
        Exponential::new(self.rate)
    }

    /// Maximized log-likelihood.
    pub fn log_likelihood(&self) -> f64 {
        self.log_likelihood
    }

    /// Akaike information criterion, `2k − 2 ln L` with k = 1.
    pub fn aic(&self) -> f64 {
        2.0 - 2.0 * self.log_likelihood
    }

    /// Model survival function at `t`.
    pub fn survival_at(&self, t: f64) -> f64 {
        self.distribution().sf(t)
    }
}

/// Maximum-likelihood Weibull fit under right-censoring.
///
/// Solves the profile-likelihood equation for the shape `k` by a
/// safeguarded bisection, then recovers the scale in closed form:
/// `λ̂ = (Σ tᵢᵏ / events)^{1/k}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeibullFit {
    shape: f64,
    scale: f64,
    log_likelihood: f64,
    events: usize,
    n: usize,
}

impl WeibullFit {
    /// Fits the model. Durations of zero are nudged to a small positive
    /// value (the Weibull likelihood needs `t > 0`).
    ///
    /// # Panics
    ///
    /// Panics if there are no events.
    pub fn fit(data: &SurvivalData) -> WeibullFit {
        let events = data.event_count();
        assert!(events > 0, "Weibull MLE requires at least one event");
        let r = events as f64;

        const T_FLOOR: f64 = 1e-6;
        let obs: Vec<(f64, bool)> = data
            .observations()
            .iter()
            .map(|o| (o.duration.max(T_FLOOR), o.event))
            .collect();

        let sum_delta_ln: f64 = obs.iter().filter(|(_, e)| *e).map(|(t, _)| t.ln()).sum();

        // Profile score in k:
        //   g(k) = Σ t^k ln t / Σ t^k − 1/k − (Σ δ ln t)/r
        // g is increasing in k; bracket a root and bisect.
        let g = |k: f64| -> f64 {
            let mut sum_tk = 0.0;
            let mut sum_tk_ln = 0.0;
            for (t, _) in &obs {
                let tk = t.powf(k);
                sum_tk += tk;
                sum_tk_ln += tk * t.ln();
            }
            sum_tk_ln / sum_tk - 1.0 / k - sum_delta_ln / r
        };

        let mut lo = 1e-3;
        let mut hi = 1.0;
        while g(hi) < 0.0 && hi < 1e3 {
            hi *= 2.0;
        }
        while g(lo) > 0.0 && lo > 1e-9 {
            lo /= 2.0;
        }
        let mut shape = 1.0;
        if g(lo) <= 0.0 && g(hi) >= 0.0 {
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if g(mid) < 0.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
                if hi - lo < 1e-12 * (1.0 + hi) {
                    break;
                }
            }
            shape = 0.5 * (lo + hi);
        }

        let sum_tk: f64 = obs.iter().map(|(t, _)| t.powf(shape)).sum();
        let scale = (sum_tk / r).powf(1.0 / shape);

        // Log-likelihood at the MLE.
        let mut ll = 0.0;
        for (t, event) in &obs {
            let z = t / scale;
            if *event {
                ll += shape.ln() - scale.ln() + (shape - 1.0) * z.ln();
            }
            ll -= z.powf(shape);
        }

        WeibullFit {
            shape,
            scale,
            log_likelihood: ll,
            events,
            n: data.len(),
        }
    }

    /// Fitted shape k̂ (< 1 means decreasing hazard / infant mortality).
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Fitted scale λ̂.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The fitted distribution.
    pub fn distribution(&self) -> Weibull {
        Weibull::new(self.shape, self.scale)
    }

    /// Maximized log-likelihood.
    pub fn log_likelihood(&self) -> f64 {
        self.log_likelihood
    }

    /// Akaike information criterion, `2k − 2 ln L` with k = 2.
    pub fn aic(&self) -> f64 {
        4.0 - 2.0 * self.log_likelihood
    }

    /// Model survival function at `t`.
    pub fn survival_at(&self, t: f64) -> f64 {
        self.distribution().sf(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SurvivalData;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use stats::distributions::{ContinuousDistribution, Weibull};

    fn censored_sample<D: ContinuousDistribution>(
        dist: &D,
        censor_at: f64,
        n: usize,
        seed: u64,
    ) -> SurvivalData {
        let mut rng = SmallRng::seed_from_u64(seed);
        SurvivalData::from_pairs(
            &(0..n)
                .map(|_| {
                    let t = dist.sample(&mut rng);
                    if t <= censor_at {
                        (t, true)
                    } else {
                        (censor_at, false)
                    }
                })
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn exponential_recovers_rate() {
        let truth = Exponential::new(0.25);
        let data = censored_sample(&truth, 12.0, 4000, 1);
        let fit = ExponentialFit::fit(&data);
        assert!((fit.rate() - 0.25).abs() < 0.02, "rate = {}", fit.rate());
    }

    #[test]
    fn exponential_closed_form_no_censoring() {
        let data = SurvivalData::from_pairs(&[(1.0, true), (2.0, true), (3.0, true)]);
        let fit = ExponentialFit::fit(&data);
        assert!((fit.rate() - 3.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn weibull_recovers_parameters() {
        let truth = Weibull::new(0.7, 20.0);
        let data = censored_sample(&truth, 60.0, 6000, 2);
        let fit = WeibullFit::fit(&data);
        assert!((fit.shape() - 0.7).abs() < 0.05, "shape = {}", fit.shape());
        assert!((fit.scale() - 20.0).abs() < 2.0, "scale = {}", fit.scale());
    }

    #[test]
    fn weibull_shape_one_close_to_exponential() {
        let truth = Exponential::new(0.1);
        let data = censored_sample(&truth, 50.0, 6000, 3);
        let fit = WeibullFit::fit(&data);
        assert!((fit.shape() - 1.0).abs() < 0.06, "shape = {}", fit.shape());
    }

    #[test]
    fn aic_prefers_true_model_family() {
        // Strongly non-exponential Weibull data: Weibull AIC must win.
        let truth = Weibull::new(0.5, 10.0);
        let data = censored_sample(&truth, 100.0, 3000, 4);
        let weib = WeibullFit::fit(&data);
        let expo = ExponentialFit::fit(&data);
        assert!(
            weib.aic() < expo.aic(),
            "weibull aic {} vs exponential aic {}",
            weib.aic(),
            expo.aic()
        );
    }

    #[test]
    fn survival_functions_are_proper() {
        let data = censored_sample(&Weibull::new(0.8, 15.0), 40.0, 500, 5);
        let fit = WeibullFit::fit(&data);
        assert!(fit.survival_at(0.0) > 0.999);
        let mut prev = 1.0;
        for d in 1..50 {
            let s = fit.survival_at(d as f64);
            assert!(s <= prev && (0.0..=1.0).contains(&s));
            prev = s;
        }
    }

    #[test]
    #[should_panic]
    fn exponential_rejects_all_censored() {
        ExponentialFit::fit(&SurvivalData::from_pairs(&[(5.0, false)]));
    }
}
