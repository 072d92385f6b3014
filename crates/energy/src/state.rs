//! Power-state machines for duty-cycled devices.
//!
//! The paper's Raspberry Pi 3b+ spends most of its life asleep (0.62 W),
//! is woken by a GPIO signal from the always-on Pi Zero, runs a routine at
//! ≈2.1 W for ≈89 s and shuts down again. This module captures that life
//! cycle as an explicit state machine whose history can be replayed into a
//! [`crate::trace::PowerTrace`].

use pb_telemetry::Telemetry;
use pb_units::{Seconds, Watts};
use std::fmt;

/// A coarse device power state.
///
/// `Active` carries a label so that per-task attribution (Tables I and II of
/// the paper) survives into traces and ledgers.
#[derive(Clone, Debug, PartialEq)]
pub enum PowerState {
    /// Completely unpowered; draws nothing.
    Off,
    /// Booting from off to operational.
    Boot,
    /// Executing a named task (e.g. `"wake+collect"`, `"send audio"`).
    Active(String),
    /// Low-power state able to receive wake-up calls; non-zero draw.
    Sleep,
    /// Controlled shutdown back to `Off` (or `Sleep` for duty-cycled nodes).
    Shutdown,
}

impl PowerState {
    /// Convenience constructor for an active task state.
    pub fn active(label: impl Into<String>) -> Self {
        PowerState::Active(label.into())
    }

    /// True if the device is consuming energy in this state.
    pub fn draws_power(&self) -> bool {
        !matches!(self, PowerState::Off)
    }

    /// Short label used in traces and reports.
    pub fn label(&self) -> &str {
        match self {
            PowerState::Off => "off",
            PowerState::Boot => "boot",
            PowerState::Active(l) => l,
            PowerState::Sleep => "sleep",
            PowerState::Shutdown => "shutdown",
        }
    }
}

impl fmt::Display for PowerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One dwell interval in a state history: the machine sat in `state`,
/// drawing `power`, for `duration`.
#[derive(Clone, Debug, PartialEq)]
pub struct Transition {
    /// Timestamp at which the dwell started (simulation time).
    pub at: Seconds,
    /// State occupied during the dwell.
    pub state: PowerState,
    /// Constant draw during the dwell.
    pub power: Watts,
    /// Length of the dwell.
    pub duration: Seconds,
}

impl Transition {
    /// Energy consumed over this dwell.
    pub fn energy(&self) -> pb_units::Joules {
        self.power * self.duration
    }

    /// Timestamp at which the dwell ended.
    pub fn end(&self) -> Seconds {
        self.at + self.duration
    }
}

/// A device power-state machine that records its own history.
///
/// The caller drives it with [`StateMachine::dwell`]; the machine keeps the
/// clock, accumulates energy and retains every transition so the whole run
/// can be rendered as a power trace.
#[derive(Clone, Debug)]
pub struct StateMachine {
    clock: Seconds,
    current: PowerState,
    history: Vec<Transition>,
    total_energy: pb_units::Joules,
    telemetry: Telemetry,
}

impl StateMachine {
    /// Creates a machine starting in `initial` at time zero.
    pub fn new(initial: PowerState) -> Self {
        StateMachine {
            clock: Seconds::ZERO,
            current: initial,
            history: Vec::new(),
            total_energy: pb_units::Joules::ZERO,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Mirrors every dwell into `telemetry`: per-state energy histograms
    /// (`energy.state.<label>`) plus, when the sink keeps events, a
    /// sim-time-stamped `power.dwell` record per transition.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Creates a machine starting in `initial` at an arbitrary origin.
    pub fn starting_at(initial: PowerState, origin: Seconds) -> Self {
        StateMachine { clock: origin, ..Self::new(initial) }
    }

    /// Current simulation time.
    pub fn clock(&self) -> Seconds {
        self.clock
    }

    /// State the machine is currently in.
    pub fn state(&self) -> &PowerState {
        &self.current
    }

    /// Total energy consumed across all recorded dwells.
    pub fn total_energy(&self) -> pb_units::Joules {
        self.total_energy
    }

    /// Recorded dwell history in chronological order.
    pub fn history(&self) -> &[Transition] {
        &self.history
    }

    /// Enters `state` and stays there for `duration` at constant `power`.
    ///
    /// Zero-length dwells are recorded (they keep table rows like the 0.1 s
    /// cloud-side SVM execution visible) but negative durations panic: the
    /// machine's clock only moves forward.
    pub fn dwell(&mut self, state: PowerState, power: Watts, duration: Seconds) {
        assert!(
            duration.value() >= 0.0 && duration.is_finite(),
            "dwell duration must be non-negative and finite, got {duration}"
        );
        assert!(
            power.value() >= 0.0 && power.is_finite(),
            "dwell power must be non-negative and finite, got {power}"
        );
        let t = Transition { at: self.clock, state: state.clone(), power, duration };
        if self.telemetry.is_enabled() {
            let energy = t.energy();
            self.telemetry.observe(
                &format!("energy.state.{}", crate::metric_slug(state.label())),
                energy.value(),
            );
            if self.telemetry.events_recording() {
                self.telemetry.event(
                    self.clock.value(),
                    "power.dwell",
                    vec![
                        ("state", state.label().to_string().into()),
                        ("power_w", power.value().into()),
                        ("duration_s", duration.value().into()),
                        ("energy_j", energy.value().into()),
                    ],
                );
            }
        }
        self.total_energy += t.energy();
        self.clock += duration;
        self.current = state;
        self.history.push(t);
    }

    /// Energy consumed while in states whose label equals `label`.
    pub fn energy_in(&self, label: &str) -> pb_units::Joules {
        self.history.iter().filter(|t| t.state.label() == label).map(Transition::energy).sum()
    }

    /// Time spent in states whose label equals `label`.
    pub fn time_in(&self, label: &str) -> Seconds {
        self.history.iter().filter(|t| t.state.label() == label).map(|t| t.duration).sum()
    }

    /// Mean power over the whole recorded history (zero if no time elapsed).
    pub fn mean_power(&self) -> Watts {
        let elapsed: Seconds = self.history.iter().map(|t| t.duration).sum();
        if elapsed.value() > 0.0 {
            self.total_energy / elapsed
        } else {
            Watts::ZERO
        }
    }

    /// Renders the history into `(timestamp, power)` samples at `step`
    /// resolution, holding each dwell's power constant. Used to plot
    /// Figure 2-style traces.
    pub fn sample_trace(&self, step: Seconds) -> crate::trace::PowerTrace {
        assert!(step.value() > 0.0, "sampling step must be positive");
        let mut trace = crate::trace::PowerTrace::new();
        for t in &self.history {
            let mut at = t.at;
            let end = t.end();
            while at.value() < end.value() {
                trace.push(at, t.power);
                at += step;
            }
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_units::Joules;

    fn table1_svm_machine() -> StateMachine {
        // Table I, edge scenario with SVM: one full 5-minute cycle.
        let mut m = StateMachine::new(PowerState::Sleep);
        m.dwell(PowerState::Sleep, Watts(111.6 / 178.5), Seconds(178.5));
        m.dwell(PowerState::active("wake+collect"), Watts(131.8 / 64.0), Seconds(64.0));
        m.dwell(PowerState::active("queen-detect-svm"), Watts(98.9 / 46.1), Seconds(46.1));
        m.dwell(PowerState::active("send results"), Watts(3.0 / 1.5), Seconds(1.5));
        m.dwell(PowerState::Shutdown, Watts(21.0 / 9.9), Seconds(9.9));
        m
    }

    #[test]
    fn cycle_total_matches_paper_table1() {
        let m = table1_svm_machine();
        assert!((m.total_energy() - Joules(366.3)).abs() < Joules(1e-9));
        assert!((m.clock() - Seconds(300.0)).abs() < Seconds(1e-9));
    }

    #[test]
    fn per_state_attribution() {
        let m = table1_svm_machine();
        assert!((m.energy_in("sleep") - Joules(111.6)).abs() < Joules(1e-9));
        assert!((m.energy_in("queen-detect-svm") - Joules(98.9)).abs() < Joules(1e-9));
        assert!((m.time_in("wake+collect") - Seconds(64.0)).abs() < Seconds(1e-9));
        assert_eq!(m.energy_in("nonexistent"), Joules::ZERO);
    }

    #[test]
    fn mean_power_of_cycle() {
        let m = table1_svm_machine();
        // 366.3 J over 300 s
        assert!((m.mean_power() - Watts(366.3 / 300.0)).abs() < Watts(1e-9));
    }

    #[test]
    fn mean_power_empty_history_is_zero() {
        let m = StateMachine::new(PowerState::Off);
        assert_eq!(m.mean_power(), Watts::ZERO);
    }

    #[test]
    fn zero_length_dwell_is_recorded() {
        let mut m = StateMachine::new(PowerState::Sleep);
        m.dwell(PowerState::active("svm"), Watts(63.0), Seconds(0.0));
        assert_eq!(m.history().len(), 1);
        assert_eq!(m.total_energy(), Joules::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_dwell_panics() {
        let mut m = StateMachine::new(PowerState::Sleep);
        m.dwell(PowerState::Sleep, Watts(0.6), Seconds(-1.0));
    }

    #[test]
    #[should_panic(expected = "power must be non-negative")]
    fn nan_power_panics() {
        let mut m = StateMachine::new(PowerState::Sleep);
        m.dwell(PowerState::Sleep, Watts(f64::NAN), Seconds(1.0));
    }

    #[test]
    fn history_is_contiguous() {
        let m = table1_svm_machine();
        for pair in m.history().windows(2) {
            assert!((pair[0].end() - pair[1].at).abs() < Seconds(1e-9));
        }
    }

    #[test]
    fn starting_at_offsets_clock() {
        let mut m = StateMachine::starting_at(PowerState::Sleep, Seconds(100.0));
        m.dwell(PowerState::Sleep, Watts(0.62), Seconds(50.0));
        assert_eq!(m.history()[0].at, Seconds(100.0));
        assert_eq!(m.clock(), Seconds(150.0));
    }

    #[test]
    fn sample_trace_covers_history() {
        let m = table1_svm_machine();
        let trace = m.sample_trace(Seconds(1.0));
        // 300 s of history at 1 Hz → ≈300 samples (dwell boundaries add a few).
        assert!(trace.len() >= 300 && trace.len() <= 305);
        // First sample is the sleep draw.
        assert!((trace.samples()[0].1 - Watts(111.6 / 178.5)).abs() < Watts(1e-9));
    }

    #[test]
    fn telemetry_attributes_energy_per_state() {
        use pb_telemetry::Telemetry;
        let tel = Telemetry::enabled();
        let mut m = StateMachine::new(PowerState::Sleep).with_telemetry(tel.clone());
        m.dwell(PowerState::Sleep, Watts(111.6 / 178.5), Seconds(178.5));
        m.dwell(PowerState::active("wake+collect"), Watts(131.8 / 64.0), Seconds(64.0));
        m.dwell(PowerState::Shutdown, Watts(21.0 / 9.9), Seconds(9.9));
        let snap = tel.snapshot();
        let sleep = snap.histogram("energy.state.sleep").expect("sleep attributed");
        assert_eq!(sleep.count, 1);
        assert!((sleep.total - 111.6).abs() < 1e-9);
        assert!((snap.histogram("energy.state.wake_collect").unwrap().total - 131.8).abs() < 1e-9);
        // Dwell events carry the sim clock and the state label.
        let events = tel.events_sorted();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].t_sim, 0.0);
        assert!((events[1].t_sim - 178.5).abs() < 1e-9);
        assert!(events.iter().all(|e| e.kind == "power.dwell"));
    }

    #[test]
    fn state_labels() {
        assert_eq!(PowerState::Off.label(), "off");
        assert_eq!(PowerState::Boot.label(), "boot");
        assert_eq!(PowerState::active("x").label(), "x");
        assert!(!PowerState::Off.draws_power());
        assert!(PowerState::Sleep.draws_power());
        assert_eq!(format!("{}", PowerState::Shutdown), "shutdown");
    }
}
