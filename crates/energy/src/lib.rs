#![warn(missing_docs)]

//! Energy accounting substrate for the precision-beekeeping reproduction.
//!
//! The deployed system in the paper is powered by a 30 W solar panel feeding
//! a 20 000 mAh power bank through a 5 V DC/DC converter, and is metered by
//! three ±5 A current sensors sampled by an always-on Raspberry Pi Zero.
//! The simulator takes the per-task constants those sensors measured (see
//! `pb_device::constants`); this crate models the power path around them:
//!
//! * [`state`] — power-state machines (off / boot / active / sleep /
//!   shutdown) with per-state draw,
//! * [`trace`] — power time-series, routine segmentation and the statistics
//!   the paper reports (mean routine power 2.14 W, σ = 0.009 W, …),
//! * [`battery`] — state-of-charge model with charge/discharge efficiency,
//! * [`solar`] — diurnal irradiance, panel and DC/DC converter models,
//! * [`harvest`] — the combined solar → converter → battery → load loop that
//!   produces Figure 2's night brown-outs,
//! * [`ledger`] — named per-task energy breakdowns used by the scenario
//!   tables.

pub mod battery;
pub mod harvest;
pub mod ledger;
pub mod solar;
pub mod state;
pub mod trace;

pub use battery::Battery;
pub use harvest::{HarvestStep, PowerSystem, PowerSystemConfig};
pub use ledger::{EnergyLedger, LedgerEntry};
pub use solar::{DcDcConverter, Irradiance, SolarPanel};
pub use state::{PowerState, StateMachine, Transition};
pub use trace::{PowerTrace, RoutineStats, Segment};

/// Canonicalizes a human-readable task/state label into a metric-name
/// segment: lowercase, every non-alphanumeric run collapsed to one `_`.
/// `"Queen detection model (SVM)"` → `"queen_detection_model_svm"`.
pub fn metric_slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut pending_sep = false;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            if pending_sep && !out.is_empty() {
                out.push('_');
            }
            pending_sep = false;
            out.push(c.to_ascii_lowercase());
        } else {
            pending_sep = true;
        }
    }
    out
}

/// Standard normal sample via Box–Muller (avoids a `rand_distr` dependency):
/// the workspace's one Gaussian sampler, also behind `pb_ml`'s weight
/// initialization.
pub fn gaussian<R: rand::Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{gaussian, metric_slug};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn slugs_collapse_and_lowercase() {
        assert_eq!(metric_slug("Queen detection model (SVM)"), "queen_detection_model_svm");
        assert_eq!(metric_slug("wake+collect"), "wake_collect");
        assert_eq!(metric_slug("Sleep"), "sleep");
        assert_eq!(metric_slug("  -- "), "");
    }

    #[test]
    fn gaussian_moments() {
        for seed in [1, 42] {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 100_000;
            let xs: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
            let mean = xs.iter().sum::<f64>() / n as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
            assert!(mean.abs() < 0.02, "seed {seed}: mean {mean}");
            assert!((var - 1.0).abs() < 0.03, "seed {seed}: var {var}");
        }
    }
}
