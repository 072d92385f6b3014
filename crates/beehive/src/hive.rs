//! A smart beehive: the full deployed node.
//!
//! Combines the two Raspberry Pis, the solar power system, the wake-up
//! scheduler and the hive climate into one steppable unit. The Pi Zero is
//! always on; the Pi 3b+ sleeps between wake-ups and runs the ≈ 89 s
//! data-collection routine when woken.

use crate::climate::HiveClimate;
use pb_device::profile::EdgeDeviceProfile;
use pb_device::wake::WakeScheduler;
use pb_energy::harvest::{PowerSystem, PowerSystemConfig};
use pb_units::{Seconds, Watts};

/// One deployed smart beehive.
#[derive(Clone, Debug)]
pub struct SmartBeehive {
    /// Hive identifier (e.g. "lyon-1").
    pub id: String,
    /// The duty-cycled sensor node.
    pub pi3b: EdgeDeviceProfile,
    /// The always-on energy logger.
    pub pi_zero: EdgeDeviceProfile,
    /// GPIO wake-up source.
    pub scheduler: WakeScheduler,
    /// Solar + battery power system.
    pub power: PowerSystem,
    /// In-hive climate.
    pub climate: HiveClimate,
}

impl SmartBeehive {
    /// A hive in the deployed configuration with the given id and wake-up
    /// period.
    pub fn deployed(id: impl Into<String>, wake_period: Seconds) -> Self {
        SmartBeehive {
            id: id.into(),
            pi3b: EdgeDeviceProfile::raspberry_pi_3b_plus(),
            pi_zero: EdgeDeviceProfile::raspberry_pi_zero_wh(),
            scheduler: WakeScheduler::new(wake_period, Seconds::ZERO),
            power: PowerSystem::new(PowerSystemConfig::default()),
            climate: HiveClimate::default(),
        }
    }

    /// Marks the hive as not yet colonized (the Figure 2a condition).
    pub fn without_colony(mut self) -> Self {
        self.climate = HiveClimate::empty();
        self
    }

    /// Replaces the power system configuration.
    pub fn with_power_system(mut self, config: PowerSystemConfig) -> Self {
        self.power = PowerSystem::new(config);
        self
    }

    /// Duration of one data-collection routine on this hive.
    pub fn routine_duration(&self) -> Seconds {
        self.pi3b.base_routine_duration()
    }

    /// Electrical load at simulation time `t`: Pi Zero always, plus the
    /// Pi 3b+ at routine power inside a routine window and at sleep power
    /// otherwise.
    pub fn load_at(&self, t: Seconds) -> Watts {
        let base = self.pi_zero.sleep_power;
        let routine = self.routine_duration();
        // Find the most recent wake-up at or before t.
        let since_wake = {
            let period = self.scheduler.period.value();
            let offset = self.scheduler.offset.value();
            let rel = t.value() - offset;
            if rel < 0.0 {
                f64::INFINITY
            } else {
                rel % period
            }
        };
        if since_wake < routine.value() {
            let routine_power = self.pi3b.base_routine_energy() / routine;
            base + routine_power
        } else {
            base + self.pi3b.sleep_power
        }
    }

    /// Mean load over one full wake-up cycle.
    pub fn mean_load(&self) -> Watts {
        let period = self.scheduler.period;
        let routine = self.routine_duration();
        let active = self.pi3b.base_routine_energy();
        let sleeping = self.pi3b.sleep_power * (period - routine);
        self.pi_zero.sleep_power + (active + sleeping) / period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployed_hive_components() {
        let hive = SmartBeehive::deployed("lyon-1", Seconds::from_minutes(10.0));
        assert_eq!(hive.id, "lyon-1");
        assert!((hive.routine_duration() - Seconds(89.0)).abs() < Seconds(0.1));
        assert!(hive.climate.colonized);
        assert!(!hive.clone().without_colony().climate.colonized);
    }

    #[test]
    fn load_during_and_after_routine() {
        let hive = SmartBeehive::deployed("h", Seconds::from_minutes(10.0));
        // Just after a wake-up: Zero (0.4) + routine (≈2.14).
        let active = hive.load_at(Seconds(10.0));
        assert!((active - Watts(0.4 + 190.1 / 88.9)).abs() < Watts(0.01), "active {active}");
        // Mid-cycle: Zero + sleep.
        let asleep = hive.load_at(Seconds(300.0));
        assert!((asleep - Watts(0.4 + 0.625)).abs() < Watts(0.01), "asleep {asleep}");
    }

    #[test]
    fn load_is_periodic() {
        let hive = SmartBeehive::deployed("h", Seconds::from_minutes(10.0));
        for probe in [5.0, 100.0, 400.0] {
            let a = hive.load_at(Seconds(probe));
            let b = hive.load_at(Seconds(probe + 600.0));
            assert!((a - b).abs() < Watts(1e-9));
        }
    }

    #[test]
    fn mean_load_between_extremes() {
        let hive = SmartBeehive::deployed("h", Seconds::from_minutes(10.0));
        let mean = hive.mean_load();
        assert!(mean > Watts(0.4 + 0.625));
        assert!(mean < Watts(0.4 + 2.14));
        // 10-minute cycles: (190.1 + 0.625·511.1)/600 + 0.4 ≈ 1.25 W.
        assert!((mean - Watts(1.25)).abs() < Watts(0.02), "mean {mean}");
    }

    #[test]
    fn faster_wakeups_raise_mean_load() {
        let fast = SmartBeehive::deployed("h", Seconds::from_minutes(5.0));
        let slow = SmartBeehive::deployed("h", Seconds::from_minutes(60.0));
        assert!(fast.mean_load() > slow.mean_load());
    }
}
