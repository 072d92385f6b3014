//! Named per-task energy breakdowns.
//!
//! Tables I and II of the paper present each scenario as an ordered list of
//! task rows — name, energy, time — with a total line. [`EnergyLedger`] is
//! that table as a data structure, including the formatting used by the
//! table regenerators.

use pb_units::{Joules, Percent, Seconds, Watts};
use std::fmt;

/// One row of a scenario table.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerEntry {
    /// Task name as printed in the table.
    pub task: String,
    /// Energy consumed by the task.
    pub energy: Joules,
    /// Duration of the task.
    pub time: Seconds,
}

impl LedgerEntry {
    /// Mean power of the task (zero for zero-length tasks).
    pub fn power(&self) -> Watts {
        if self.time.value() > 0.0 {
            self.energy / self.time
        } else {
            Watts::ZERO
        }
    }
}

/// An ordered energy/time breakdown with totals.
#[derive(Clone, Debug, Default)]
pub struct EnergyLedger {
    entries: Vec<LedgerEntry>,
}

impl EnergyLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a task row.
    pub fn record(&mut self, task: impl Into<String>, energy: Joules, time: Seconds) {
        assert!(energy.value() >= 0.0 && energy.is_finite(), "energy must be non-negative");
        assert!(time.value() >= 0.0 && time.is_finite(), "time must be non-negative");
        self.entries.push(LedgerEntry { task: task.into(), energy, time });
    }

    /// Appends one row attributing a *group* of `count` identical task
    /// instances (a fleet of same-shape servers, a batch of identical
    /// hives). The row's energy and time are the repeated-addition fold
    /// of the per-instance values — `e + e + ⋯` (`count` terms), never
    /// `count × e`, which rounds differently for non-dyadic values — so
    /// a grouped ledger's totals stay bit-identical to a ledger that
    /// recorded every instance as its own row. This is the same
    /// bit-identity contract the engine's shape-memoized energy sums
    /// keep when they collapse identical per-server trajectories.
    pub fn record_group(
        &mut self,
        task: impl Into<String>,
        count: usize,
        energy_each: Joules,
        time_each: Seconds,
    ) {
        let mut energy = Joules::ZERO;
        let mut time = Seconds::ZERO;
        for _ in 0..count {
            energy += energy_each;
            time += time_each;
        }
        self.record(task, energy, time);
    }

    /// All rows in insertion order.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the ledger holds no rows.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total energy across all rows.
    pub fn total_energy(&self) -> Joules {
        self.entries.iter().map(|e| e.energy).sum()
    }

    /// Total time across all rows.
    pub fn total_time(&self) -> Seconds {
        self.entries.iter().map(|e| e.time).sum()
    }

    /// Energy of the row(s) named `task` (rows may repeat, e.g. the split
    /// shutdown in Table II; their energies are summed).
    pub fn energy_of(&self, task: &str) -> Joules {
        self.entries.iter().filter(|e| e.task == task).map(|e| e.energy).sum()
    }

    /// Time of the row(s) named `task`.
    pub fn time_of(&self, task: &str) -> Seconds {
        self.entries.iter().filter(|e| e.task == task).map(|e| e.time).sum()
    }

    /// Share of total energy attributable to `task`.
    pub fn share_of(&self, task: &str) -> Percent {
        let total = self.total_energy();
        if total.value() > 0.0 {
            Percent::from_fraction(self.energy_of(task) / total)
        } else {
            Percent::ZERO
        }
    }

    /// Merges another ledger's rows after this one's (used to compose the
    /// edge and cloud columns of a scenario into one system-wide ledger).
    pub fn extend_from(&mut self, other: &EnergyLedger) {
        self.entries.extend(other.entries.iter().cloned());
    }

    /// Publishes every row into `telemetry` as per-task energy histograms
    /// named `energy.<scope>.<task>_j` (task names slugged via
    /// [`crate::metric_slug`]; repeated rows become repeated
    /// observations) plus a `energy.<scope>.total_j` gauge. Under the
    /// causal-tracing flag each row additionally lands in the event
    /// stream as an `energy.ledger` record (cumulative row time as the
    /// stamp), so forensic traces can attribute energy per task.
    pub fn publish_metrics(&self, telemetry: &pb_telemetry::Telemetry, scope: &str) {
        if !telemetry.is_enabled() {
            return;
        }
        let tracing = telemetry.tracing_active();
        let mut t = 0.0f64;
        for e in &self.entries {
            telemetry.observe(
                &format!("energy.{scope}.{}_j", crate::metric_slug(&e.task)),
                e.energy.value(),
            );
            t += e.time.value();
            if tracing {
                telemetry.event(
                    t,
                    "energy.ledger",
                    vec![
                        ("scope", scope.to_string().into()),
                        ("task", e.task.clone().into()),
                        ("energy_j", e.energy.value().into()),
                        ("time_s", e.time.value().into()),
                    ],
                );
            }
        }
        telemetry.set_gauge(&format!("energy.{scope}.total_j"), self.total_energy().value());
    }
}

impl fmt::Display for EnergyLedger {
    /// Renders the ledger in the paper's table layout.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name_w = self
            .entries
            .iter()
            .map(|e| e.task.len())
            .chain(std::iter::once("Total".len()))
            .max()
            .unwrap_or(5)
            .max(4);
        writeln!(f, "{:<name_w$}  {:>12}  {:>12}", "Task", "Energy (J)", "Time (s)")?;
        for e in &self.entries {
            writeln!(
                f,
                "{:<name_w$}  {:>12.1}  {:>12.1}",
                e.task,
                e.energy.value(),
                e.time.value()
            )?;
        }
        write!(
            f,
            "{:<name_w$}  {:>12.1}  {:>12.1}",
            "Total",
            self.total_energy().value(),
            self.total_time().value()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table I, edge (SVM) scenario as a ledger.
    fn table1_svm() -> EnergyLedger {
        let mut l = EnergyLedger::new();
        l.record("Sleep", Joules(111.6), Seconds(178.5));
        l.record("Wake up & Data collection", Joules(131.8), Seconds(64.0));
        l.record("Queen detection model (SVM)", Joules(98.9), Seconds(46.1));
        l.record("Send results", Joules(3.0), Seconds(1.5));
        l.record("Shutdown", Joules(21.0), Seconds(9.9));
        l
    }

    #[test]
    fn totals_match_paper() {
        let l = table1_svm();
        assert!((l.total_energy() - Joules(366.3)).abs() < Joules(1e-9));
        assert!((l.total_time() - Seconds(300.0)).abs() < Seconds(1e-9));
        assert_eq!(l.len(), 5);
        assert!(!l.is_empty());
    }

    #[test]
    fn repeated_rows_are_summed() {
        // Table II splits the shutdown into two rows; sums must combine.
        let mut l = EnergyLedger::new();
        l.record("Shutdown", Joules(0.2), Seconds(0.1));
        l.record("Shutdown", Joules(20.8), Seconds(9.8));
        assert!((l.energy_of("Shutdown") - Joules(21.0)).abs() < Joules(1e-9));
        assert!((l.time_of("Shutdown") - Seconds(9.9)).abs() < Seconds(1e-9));
    }

    #[test]
    fn share_of_total() {
        let l = table1_svm();
        let share = l.share_of("Queen detection model (SVM)");
        assert!((share.fraction() - 98.9 / 366.3).abs() < 1e-9);
        assert_eq!(EnergyLedger::new().share_of("x"), Percent::ZERO);
    }

    #[test]
    fn entry_power() {
        let l = table1_svm();
        let sleep = &l.entries()[0];
        assert!((sleep.power() - Watts(111.6 / 178.5)).abs() < Watts(1e-9));
        let zero = LedgerEntry { task: "t".into(), energy: Joules(1.0), time: Seconds::ZERO };
        assert_eq!(zero.power(), Watts::ZERO);
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = table1_svm();
        let b = table1_svm();
        a.extend_from(&b);
        assert_eq!(a.len(), 10);
        assert!((a.total_energy() - Joules(2.0 * 366.3)).abs() < Joules(1e-9));
    }

    #[test]
    fn missing_task_is_zero() {
        let l = table1_svm();
        assert_eq!(l.energy_of("nope"), Joules::ZERO);
        assert_eq!(l.time_of("nope"), Seconds::ZERO);
    }

    #[test]
    fn display_contains_rows_and_total() {
        let text = format!("{}", table1_svm());
        assert!(text.contains("Sleep"));
        assert!(text.contains("366.3"));
        assert!(text.contains("Total"));
        assert!(text.contains("300.0"));
    }

    #[test]
    fn publish_metrics_slugs_tasks_and_totals() {
        use pb_telemetry::Telemetry;
        let tel = Telemetry::metrics_only();
        table1_svm().publish_metrics(&tel, "edge");
        let snap = tel.snapshot();
        let svm = snap.histogram("energy.edge.queen_detection_model_svm_j").expect("slugged row");
        assert_eq!(svm.count, 1);
        assert!((svm.total - 98.9).abs() < 1e-9);
        assert!((snap.gauge("energy.edge.total_j").unwrap() - 366.3).abs() < 1e-9);
        // Disabled telemetry: a cheap no-op.
        table1_svm().publish_metrics(&Telemetry::disabled(), "edge");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_energy_panics() {
        let mut l = EnergyLedger::new();
        l.record("bad", Joules(-1.0), Seconds(1.0));
    }

    #[test]
    fn group_rows_fold_bit_identically_to_per_instance_rows() {
        // 0.1 J is non-dyadic: 1000 repeated additions round differently
        // from 1000 × 0.1, so this pins the fold order, not just the sum.
        let (e, t) = (Joules(0.1), Seconds(0.3));
        let mut grouped = EnergyLedger::new();
        grouped.record_group("Uplink receive", 1000, e, t);
        let mut dense = EnergyLedger::new();
        for _ in 0..1000 {
            dense.record("Uplink receive", e, t);
        }
        assert_eq!(grouped.len(), 1);
        assert_eq!(grouped.total_energy(), dense.total_energy());
        assert_eq!(grouped.total_time(), dense.total_time());
        assert_eq!(grouped.energy_of("Uplink receive"), dense.energy_of("Uplink receive"));
        assert_ne!(grouped.total_energy(), e * 1000.0, "multiply must round differently here");
    }

    #[test]
    fn empty_group_records_a_zero_row() {
        let mut l = EnergyLedger::new();
        l.record_group("Idle servers", 0, Joules(5.0), Seconds(1.0));
        assert_eq!(l.len(), 1);
        assert_eq!(l.total_energy(), Joules::ZERO);
        assert_eq!(l.total_time(), Seconds::ZERO);
    }
}
