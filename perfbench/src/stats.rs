//! Order statistics and the additive time ledger.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples a p99 needs: [`MIN_BEYOND`] beyond it.
pub const P99_SAMPLES: usize = 100 * MIN_BEYOND;

/// Whether a loop that has run `elapsed_s` of its `budget_s` should go
/// on: until the budget is spent, then on up to twice the budget while
/// it still lacks `have < need` samples.
pub fn keep_going(elapsed_s: f64, budget_s: f64, have: usize, need: usize) -> bool {
    elapsed_s < budget_s || (have < need && elapsed_s < 2.0 * budget_s)
}

/// Sorts a copy of `v` ascending (NaN-free input).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    s
}

/// 1-based nearest rank of percentile `p` (in `[0, 1]`) over `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps `0.99 × 1000` from rounding up to rank 991.
    (((p * n as f64) - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The percentile `p` only when at least [`MIN_BEYOND`] samples lie
/// beyond it; `None` when the sample is too small to support it.
pub fn tail(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let r = rank(sorted.len(), p);
    (sorted.len() - r >= MIN_BEYOND).then(|| sorted[r - 1])
}

/// The highest of p99, p95, p90, p75 and p50 that has at least
/// [`MIN_BEYOND`] samples beyond it, as (p, value).
pub fn highest_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    [0.99, 0.95, 0.90, 0.75, 0.50].into_iter().find_map(|p| tail(sorted, p).map(|v| (p, v)))
}

/// Median of unsorted samples.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v), 0.5)
}

/// The quietest quartile of per-window figures: the lower quartile of a
/// figure where lower is better, the upper one otherwise. Host
/// interference (CPU stolen by other guests) arrives in bursts of a few
/// seconds; a burst that covers a quarter of a run's windows moves the
/// median, not this.
pub fn quiet_quartile(per_window: &[f64], lower_is_better: bool) -> f64 {
    percentile(&sorted(per_window), if lower_is_better { 0.25 } else { 0.75 })
}

/// Arithmetic mean (0 for no samples).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// An end-to-end time split into layer rows plus the `residual` that
/// makes them add up: `Σ rows + residual == total`, exactly as the
/// energy ledger's per-task rows add up to a cycle's energy.
#[derive(Clone, Debug)]
pub struct Ledger {
    total: f64,
    rows: Vec<(String, f64)>,
}

impl Ledger {
    /// A ledger for an end-to-end `total`.
    pub fn new(total: f64) -> Self {
        Ledger { total, rows: Vec::new() }
    }

    /// Adds one layer row.
    pub fn row(&mut self, name: &str, value: f64) {
        self.rows.push((name.to_string(), value));
    }

    /// What the layer rows leave unexplained.
    pub fn residual(&self) -> f64 {
        self.total - self.rows.iter().map(|(_, v)| v).sum::<f64>()
    }

    /// Layer rows followed by the `residual` row; they sum to the total.
    pub fn rows(&self) -> Vec<(String, f64)> {
        let mut out = self.rows.clone();
        out.push(("residual".to_string(), self.residual()));
        out
    }

    /// The residual as a share of the total.
    pub fn residual_share(&self) -> f64 {
        if self.total == 0.0 {
            0.0
        } else {
            self.residual() / self.total
        }
    }

    /// A fixed-width table of every row with its share of the total.
    pub fn render(&self, unit: &str) -> String {
        let mut s = String::new();
        for (name, v) in self.rows() {
            let share = if self.total == 0.0 { 0.0 } else { 100.0 * v / self.total };
            s.push_str(&format!("  {name:<34} {v:>12.4} {unit:<3} {share:>6.1}%\n"));
        }
        s.push_str(&format!("  {:<34} {:>12.4} {unit:<3} {:>6.1}%\n", "total", self.total, 100.0));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: rank 990, exactly ten beyond.
        assert_eq!(tail(&v, 0.99), Some(990.0));
        // 999 samples: rank 990, only nine beyond.
        assert_eq!(tail(&v[..999], 0.99), None);
        // 100 samples support p90 (ten beyond) but not p95.
        assert_eq!(tail(&v[..100], 0.90), Some(90.0));
        assert_eq!(tail(&v[..100], 0.95), None);
        assert_eq!(tail(&[], 0.5), None);
        assert_eq!(highest_tail(&v[..100]), Some((0.90, 90.0)));
        assert_eq!(highest_tail(&v[..1000]), Some((0.99, 990.0)));
        assert_eq!(highest_tail(&v[..15]), None);
    }

    #[test]
    fn quiet_quartile_ignores_a_disturbed_quarter() {
        // Six quiet windows and two disturbed ones.
        let lat = [1.0, 1.1, 1.0, 1.2, 9.0, 1.1, 8.0, 1.0];
        assert_eq!(quiet_quartile(&lat, true), 1.0);
        let rps = [100.0, 98.0, 20.0, 101.0, 99.0, 30.0, 100.0, 97.0];
        assert_eq!(quiet_quartile(&rps, false), 100.0);
    }

    #[test]
    fn loops_extend_only_for_missing_samples() {
        assert!(keep_going(1.0, 2.0, 0, 10));
        assert!(keep_going(2.5, 2.0, 5, 10));
        assert!(!keep_going(2.5, 2.0, 10, 10));
        assert!(!keep_going(4.0, 2.0, 5, 10));
    }

    #[test]
    fn ledger_rows_and_residual_add_up_to_the_total() {
        let mut l = Ledger::new(10.0);
        l.row("a", 3.0);
        l.row("b", 4.5);
        assert_eq!(l.residual(), 2.5);
        let rows = l.rows();
        assert_eq!(rows.last().unwrap().0, "residual");
        let sum: f64 = rows.iter().map(|(_, v)| v).sum();
        assert!((sum - 10.0).abs() < 1e-12);
        assert!((l.residual_share() - 0.25).abs() < 1e-12);
        // Layers that overshoot the total leave a negative residual,
        // and the rows still add up.
        let mut over = Ledger::new(1.0);
        over.row("a", 1.5);
        assert_eq!(over.residual(), -0.5);
        assert!((over.rows().iter().map(|(_, v)| v).sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
