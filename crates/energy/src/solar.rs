//! Solar irradiance, panel and DC/DC converter models.
//!
//! The deployed hives harvest with a 30 W monocrystalline panel feeding a
//! 5 V / 3 A step-down converter. Figure 2 shows the consequence: after
//! sunset the panel's output collapses, the converter loses regulation and
//! the node browns out until morning. The irradiance model is a clipped
//! diurnal sinusoid with a seasonal daylight window and multiplicative
//! cloud noise — enough to reproduce those dynamics without a weather feed.

use crate::gaussian;
use pb_units::{Seconds, TimeOfDay, Watts};
use rand::Rng;

/// Normalized solar irradiance (0 = night, 1 = clear-sky noon).
#[derive(Clone, Debug)]
pub struct Irradiance {
    /// Local sunrise.
    pub sunrise: TimeOfDay,
    /// Local sunset.
    pub sunset: TimeOfDay,
    /// Mean of the multiplicative cloud attenuation (1 = always clear).
    pub clearness: f64,
    /// Standard deviation of the cloud attenuation.
    pub cloud_std: f64,
}

impl Default for Irradiance {
    /// Temperate-latitude summer day (06:00–21:00) with light clouds, the
    /// conditions of the paper's Lyon/Cachan deployments.
    fn default() -> Self {
        Irradiance {
            sunrise: TimeOfDay::from_hm(6, 0),
            sunset: TimeOfDay::from_hm(21, 0),
            clearness: 0.85,
            cloud_std: 0.15,
        }
    }
}

impl Irradiance {
    /// Clear-sky irradiance at `t`: half-sine between sunrise and sunset,
    /// zero at night. The sunrise/sunset window must not wrap midnight.
    pub fn clear_sky(&self, t: TimeOfDay) -> f64 {
        let (rise, set) = (self.sunrise.seconds(), self.sunset.seconds());
        debug_assert!(rise < set, "daylight window must not wrap midnight");
        let s = t.seconds();
        if s < rise || s > set {
            return 0.0;
        }
        let phase = (s - rise) / (set - rise);
        (std::f64::consts::PI * phase).sin()
    }

    /// Irradiance at `t` with stochastic cloud attenuation.
    pub fn sample<R: Rng + ?Sized>(&self, t: TimeOfDay, rng: &mut R) -> f64 {
        let clear = self.clear_sky(t);
        if clear == 0.0 {
            return 0.0;
        }
        let attenuation = (self.clearness + gaussian(rng) * self.cloud_std).clamp(0.0, 1.0);
        clear * attenuation
    }

    /// True when the sun is up at `t`.
    pub fn is_daylight(&self, t: TimeOfDay) -> bool {
        self.clear_sky(t) > 0.0
    }
}

/// A photovoltaic panel: rated power scaled by irradiance.
#[derive(Clone, Copy, Debug)]
pub struct SolarPanel {
    /// Nameplate output at irradiance 1.0.
    pub rated: Watts,
}

impl SolarPanel {
    /// The paper's 30 W monocrystalline panel.
    pub fn mono_30w() -> Self {
        SolarPanel { rated: Watts(30.0) }
    }

    /// Output power for a given normalized irradiance in `[0, 1]`.
    pub fn output(&self, irradiance: f64) -> Watts {
        self.rated * irradiance.clamp(0.0, 1.0)
    }
}

/// The 5 V / 3 A step-down converter between panel and battery.
///
/// Below `min_input` the regulator drops out and delivers nothing — the
/// paper attributes the nightly outages to exactly this ("low luminosity
/// takes the panel's output voltage to uncontrolled values").
#[derive(Clone, Copy, Debug)]
pub struct DcDcConverter {
    /// Conversion efficiency in (0, 1].
    pub efficiency: f64,
    /// Minimum input power for regulation.
    pub min_input: Watts,
    /// Maximum output power (5 V × 3 A = 15 W for the deployed part).
    pub max_output: Watts,
}

impl Default for DcDcConverter {
    fn default() -> Self {
        DcDcConverter { efficiency: 0.92, min_input: Watts(0.5), max_output: Watts(15.0) }
    }
}

impl DcDcConverter {
    /// Output power for a given input power.
    pub fn convert(&self, input: Watts) -> Watts {
        if input < self.min_input {
            Watts::ZERO
        } else {
            (input * self.efficiency).min(self.max_output)
        }
    }
}

/// Total clear-sky energy a panel harvests over one day, by numerical
/// integration at `step` resolution. Useful for sizing checks.
pub fn daily_clear_sky_energy(
    irradiance: &Irradiance,
    panel: &SolarPanel,
    converter: &DcDcConverter,
    step: Seconds,
) -> pb_units::Joules {
    assert!(step.value() > 0.0, "integration step must be positive");
    let mut total = pb_units::Joules::ZERO;
    let mut t = 0.0;
    while t < 86_400.0 {
        let out = converter.convert(panel.output(irradiance.clear_sky(TimeOfDay::from_seconds(t))));
        total += out * step;
        t += step.value();
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn night_is_dark() {
        let irr = Irradiance::default();
        assert_eq!(irr.clear_sky(TimeOfDay::MIDNIGHT), 0.0);
        assert_eq!(irr.clear_sky(TimeOfDay::from_hm(3, 0)), 0.0);
        assert_eq!(irr.clear_sky(TimeOfDay::from_hm(22, 0)), 0.0);
        assert!(!irr.is_daylight(TimeOfDay::MIDNIGHT));
    }

    #[test]
    fn noon_is_brightest() {
        let irr = Irradiance::default();
        // Window is 06:00–21:00 so the sine peak is at 13:30.
        let peak = irr.clear_sky(TimeOfDay::from_hm(13, 30));
        assert!((peak - 1.0).abs() < 1e-9);
        assert!(irr.clear_sky(TimeOfDay::from_hm(8, 0)) < peak);
        assert!(irr.is_daylight(TimeOfDay::NOON));
    }

    #[test]
    fn clear_sky_is_symmetric_about_solar_noon() {
        let irr = Irradiance::default();
        let a = irr.clear_sky(TimeOfDay::from_hm(9, 0)); // 3.5 h before peak? no: peak 13:30
        let b = irr.clear_sky(TimeOfDay::from_hm(18, 0)); // mirror of 09:00 about 13:30
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn sampled_irradiance_is_attenuated_clear_sky() {
        let irr = Irradiance::default();
        let mut rng = StdRng::seed_from_u64(3);
        for h in [7, 10, 13, 16, 20] {
            let t = TimeOfDay::from_hm(h, 0);
            let s = irr.sample(t, &mut rng);
            assert!(s >= 0.0 && s <= irr.clear_sky(t) + 1e-12);
        }
        assert_eq!(irr.sample(TimeOfDay::MIDNIGHT, &mut rng), 0.0);
    }

    #[test]
    fn panel_scales_with_irradiance() {
        let panel = SolarPanel::mono_30w();
        assert_eq!(panel.output(1.0), Watts(30.0));
        assert_eq!(panel.output(0.5), Watts(15.0));
        assert_eq!(panel.output(0.0), Watts::ZERO);
        // Out-of-range irradiance clamps.
        assert_eq!(panel.output(2.0), Watts(30.0));
        assert_eq!(panel.output(-1.0), Watts::ZERO);
    }

    #[test]
    fn converter_dropout_below_threshold() {
        let conv = DcDcConverter::default();
        assert_eq!(conv.convert(Watts(0.3)), Watts::ZERO);
        assert!(conv.convert(Watts(1.0)) > Watts::ZERO);
    }

    #[test]
    fn converter_efficiency_and_ceiling() {
        let conv = DcDcConverter::default();
        assert!((conv.convert(Watts(10.0)) - Watts(9.2)).abs() < Watts(1e-9));
        // 30 W in would give 27.6 W out, but the part tops out at 15 W.
        assert_eq!(conv.convert(Watts(30.0)), Watts(15.0));
    }

    #[test]
    fn daily_energy_is_plausible_for_30w_panel() {
        // 15 h daylight half-sine at ≤15 W ceiling → tens of watt-hours.
        let e = daily_clear_sky_energy(
            &Irradiance::default(),
            &SolarPanel::mono_30w(),
            &DcDcConverter::default(),
            Seconds(60.0),
        );
        let wh = e.to_watt_hours().value();
        assert!(wh > 50.0 && wh < 250.0, "daily harvest {wh} Wh");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn irradiance_in_unit_interval(s in 0.0f64..86_400.0) {
                let irr = Irradiance::default();
                let v = irr.clear_sky(TimeOfDay::from_seconds(s));
                prop_assert!((0.0..=1.0).contains(&v));
            }

            #[test]
            fn converter_never_amplifies(input in 0.0f64..100.0) {
                let conv = DcDcConverter::default();
                let out = conv.convert(Watts(input));
                prop_assert!(out.value() <= input);
                prop_assert!(out.value() >= 0.0);
            }
        }
    }
}
