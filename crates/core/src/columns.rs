//! Columnar (struct-of-arrays) fleet state.
//!
//! Per-client simulation state used to live in `Vec`s of structs and
//! enums scattered across the fault machinery; at fleet sizes of 10⁵–10⁶
//! clients those allocations and their pointer-chasing dominate a sweep
//! point. [`FleetColumns`] keeps the per-client state as flat buffers
//! that batched operations chunk over with a **deterministic chunk
//! plan**: chunk boundaries are a pure function of the column length
//! ([`FleetColumns::CHUNK`]-sized pieces), never of the worker count, so
//! the persistent work-stealing pool can execute them in any order while
//! integer reductions stay bit-identical across `RAYON_NUM_THREADS` ∈
//! {1, 2, N}.
//!
//! Every cycle the plan can strike fills one byte per client: its drawn
//! class. [`FleetColumns::draw`] consumes the point's fault stream in
//! exactly the order the old `Vec<ClientClass>` population draw did
//! (pinned by the fault-replay suite), and one draw serves both sides of
//! a comparison. Only the event-timeline backend resolves transfers per
//! client row, so only it allocates the attempts column
//! ([`FleetColumns::track_transfers`]) and the retry-energy column
//! ([`FleetColumns::fill_retry_energy`]).
//!
//! The DES resolves each server's transfers into [`PopOrder`], which
//! builds the event queue's pop order while the pre-pass runs.

use crate::faults::{ClientClass, FaultPlan};
use pb_telemetry::Telemetry;
use pb_units::Joules;
use rand::Rng;
use rayon::prelude::*;

/// Encodes a [`ClientClass`] into its phase-column representation.
const fn encode(class: ClientClass) -> u8 {
    match class {
        ClientClass::Uploader => 0,
        ClientClass::Brownout => 1,
        ClientClass::SensorDropout => 2,
    }
}

/// Decodes a phase-column entry back into a [`ClientClass`].
fn decode(phase: u8) -> ClientClass {
    match phase {
        0 => ClientClass::Uploader,
        1 => ClientClass::Brownout,
        2 => ClientClass::SensorDropout,
        other => unreachable!("invalid phase column entry {other}"),
    }
}

/// A borrowed, zero-copy view over a contiguous range of the phase
/// column, decoding [`ClientClass`] on access. Replaces `&[ClientClass]`
/// in the faulted-cycle signatures so callers slice columns instead of
/// materializing per-client vectors.
#[derive(Clone, Copy, Debug)]
pub struct ClassView<'a> {
    phase: &'a [u8],
}

impl<'a> ClassView<'a> {
    /// Number of clients in the view.
    pub fn len(&self) -> usize {
        self.phase.len()
    }

    /// True when the view covers no clients.
    pub fn is_empty(&self) -> bool {
        self.phase.is_empty()
    }

    /// The class of client `i` (relative to the view's start).
    pub fn get(&self, i: usize) -> ClientClass {
        decode(self.phase[i])
    }

    /// Iterates the classes in client order.
    pub fn iter(&self) -> impl Iterator<Item = ClientClass> + 'a {
        self.phase.iter().map(|&p| decode(p))
    }

    /// A sub-view over `range` (client indices relative to this view).
    pub fn slice(&self, range: std::ops::Range<usize>) -> ClassView<'a> {
        ClassView { phase: &self.phase[range] }
    }
}

/// Struct-of-arrays per-client fleet state for one faulted cycle.
///
/// One row per *active* client, in client-index order (the same order
/// the fault stream is consumed in):
///
/// * `phase` — the drawn [`ClientClass`], one byte each;
/// * `attempts` — transfer attempts resolved for the client (0 until its
///   transfer is resolved; 1 = first try succeeded; retries beyond the
///   first show up as `attempts − 1`), empty until
///   [`FleetColumns::track_transfers`];
/// * `energy` — per-client fault-energy surcharge in joules, empty until
///   [`FleetColumns::fill_retry_energy`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetColumns {
    phase: Vec<u8>,
    attempts: Vec<u32>,
    energy: Vec<f64>,
}

impl FleetColumns {
    /// Deterministic chunk width for batched column operations. A pure
    /// constant — chunk boundaries depend only on the column length, so
    /// reductions over chunks are bit-identical at any thread count.
    pub const CHUNK: usize = 8192;

    /// Draws every client's class for the cycle, in client-index order,
    /// from the point's fault stream — byte-for-byte the same draw
    /// sequence as the historical `Vec<ClientClass>` population draw
    /// (zero probabilities consume no RNG), now recorded columnar.
    pub fn draw<R: Rng + ?Sized>(plan: &FaultPlan, active: usize, rng: &mut R) -> FleetColumns {
        let p_brown = plan.brownout.map_or(0.0, |b| b.probability);
        let p_sensor = plan.sensor_dropout;
        let phase = (0..active)
            .map(|_| {
                let class = if p_brown > 0.0 && rng.gen::<f64>() < p_brown {
                    ClientClass::Brownout
                } else if p_sensor > 0.0 && rng.gen::<f64>() < p_sensor {
                    ClientClass::SensorDropout
                } else {
                    ClientClass::Uploader
                };
                encode(class)
            })
            .collect();
        FleetColumns { phase, ..FleetColumns::default() }
    }

    /// Number of clients (rows).
    pub fn len(&self) -> usize {
        self.phase.len()
    }

    /// True when the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.phase.is_empty()
    }

    /// Number of chunks the deterministic chunk plan covers this fleet
    /// with (what batched operations hand to the pool).
    pub fn chunk_count(&self) -> usize {
        self.len().div_ceil(Self::CHUNK)
    }

    /// The class of client `i`.
    pub fn class(&self, i: usize) -> ClientClass {
        decode(self.phase[i])
    }

    /// A view over the whole phase column.
    pub fn classes(&self) -> ClassView<'_> {
        ClassView { phase: &self.phase }
    }

    /// Counts (brown-outs, sensor dropouts), reduced chunk-wise over the
    /// worker pool. Integer sums are associative, so the result is
    /// bit-identical at any thread count.
    pub fn class_counts(&self) -> (usize, usize) {
        if self.phase.is_empty() {
            return (0, 0);
        }
        self.phase
            .par_chunks(Self::CHUNK)
            .map(|chunk| {
                let mut brown = 0usize;
                let mut sensor = 0usize;
                for &p in chunk {
                    brown += usize::from(p == encode(ClientClass::Brownout));
                    sensor += usize::from(p == encode(ClientClass::SensorDropout));
                }
                (brown, sensor)
            })
            .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }

    /// Allocates the attempts column, every client at 0, so that
    /// [`FleetColumns::record_transfer`] can fill it.
    pub fn track_transfers(&mut self) {
        self.attempts = vec![0; self.len()];
    }

    /// Records the resolved transfer of client `i`: its attempt count.
    ///
    /// # Panics
    ///
    /// Unless [`FleetColumns::track_transfers`] ran first.
    pub fn record_transfer(&mut self, i: usize, attempts: u64) {
        self.attempts[i] = attempts.min(u32::MAX as u64) as u32;
    }

    /// Transfer attempts recorded for client `i`.
    pub fn attempts(&self, i: usize) -> u32 {
        self.attempts[i]
    }

    /// Per-client fault-energy surcharge.
    pub fn energy(&self, i: usize) -> f64 {
        self.energy[i]
    }

    /// Total retries across the fleet (attempts beyond each client's
    /// first), reduced chunk-wise over the pool.
    pub fn total_retries(&self) -> u64 {
        if self.attempts.is_empty() {
            return 0;
        }
        self.attempts
            .par_chunks(Self::CHUNK)
            .map(|chunk| chunk.iter().map(|&a| u64::from(a.saturating_sub(1))).sum::<u64>())
            .reduce(|| 0, |a, b| a + b)
    }

    /// Total transfer attempts across the fleet, reduced chunk-wise over
    /// the pool (clients whose transfer never resolved contribute 0).
    pub fn total_attempts(&self) -> u64 {
        if self.attempts.is_empty() {
            return 0;
        }
        self.attempts
            .par_chunks(Self::CHUNK)
            .map(|chunk| chunk.iter().map(|&a| u64::from(a)).sum::<u64>())
            .reduce(|| 0, |a, b| a + b)
    }

    /// Sum of the energy column, reduced chunk-wise over the pool. The
    /// chunk plan (and the shim's in-order partial combine) is a pure
    /// function of the column length, so the floating-point result is
    /// bit-identical at any thread count.
    pub fn energy_total(&self) -> Joules {
        if self.energy.is_empty() {
            return Joules::ZERO;
        }
        Joules(
            self.energy
                .par_chunks(Self::CHUNK)
                .map(|chunk| chunk.iter().sum::<f64>())
                .reduce(|| 0.0, |a, b| a + b),
        )
    }

    /// Fills the energy column from the attempts column: client `i` pays
    /// `(attempts − 1) · per_retry`. Elementwise (no cross-client
    /// reduction), executed as an order-preserving parallel map over the
    /// deterministic chunk plan.
    pub fn fill_retry_energy(&mut self, per_retry: Joules) {
        let per = per_retry.value();
        self.energy = self
            .attempts
            .par_iter()
            .with_min_len(Self::CHUNK)
            .map(|&a| f64::from(a.saturating_sub(1)) * per)
            .collect();
    }
}

/// One DES server's delivered transfers in event-queue *pop* order —
/// time ascending, ties by client — built while the fault pre-pass
/// resolves the clients in client order.
///
/// The pre-pass pushes arrivals in client order, so the queue's pop key
/// `(time, push index)` is `(time, client)`. A transfer that got through
/// on its first attempt keeps its wake-up instant, and wake-ups come
/// sorted: such rows append straight onto the pop-order columns. A
/// retried transfer lands later and out of order; it waits in a short
/// tail that [`PopOrder::finish`] sorts and merges in from the back, in
/// place. That costs O(m + d log d) for `d` retried rows of `m`.
///
/// The buffers are reused from server to server (per-worker scratch);
/// [`PopOrder::clear`] empties them without freeing.
#[derive(Debug, Default)]
pub(crate) struct PopOrder {
    times: Vec<f64>,
    clients: Vec<u32>,
    retried: Vec<(f64, u32)>,
}

impl PopOrder {
    /// Empties the columns, keeping their capacity.
    pub(crate) fn clear(&mut self) {
        self.times.clear();
        self.clients.clear();
        self.retried.clear();
    }

    /// Appends client `client`'s delivered transfer, which arrived at `t`
    /// on attempt `attempts`. Clients come in increasing order, and a
    /// first-attempt row's `t` is its wake-up instant, so those rows
    /// arrive already sorted.
    pub(crate) fn push(&mut self, t: f64, client: usize, attempts: u64) {
        if attempts > 1 {
            self.retried.push((t, client as u32));
        } else {
            debug_assert!(self.times.last().is_none_or(|&last| last <= t), "wake-ups out of order");
            self.times.push(t);
            self.clients.push(client as u32);
        }
    }

    /// Merges the retried tail into the first-attempt run and returns
    /// the pop-order time and client columns.
    pub(crate) fn finish(&mut self) -> (&[f64], &[u32]) {
        let order = |a: (f64, u32), b: (f64, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        self.retried.sort_unstable_by(|&a, &b| order(a, b));
        let (mut i, mut j) = (self.times.len(), self.retried.len());
        self.times.resize(i + j, 0.0);
        self.clients.resize(i + j, 0);
        // Fill from the back: the larger head of the two runs goes last.
        // Once the tail is spent, the rest of the first run is in place.
        while j > 0 {
            let (t, c) = self.retried[j - 1];
            let k = i + j - 1;
            if i > 0 && order((self.times[i - 1], self.clients[i - 1]), (t, c)).is_gt() {
                self.times[k] = self.times[i - 1];
                self.clients[k] = self.clients[i - 1];
                i -= 1;
            } else {
                self.times[k] = t;
                self.clients[k] = c;
                j -= 1;
            }
        }
        self.retried.clear();
        (&self.times, &self.clients)
    }
}

/// Mirrors the fleet's columnar shape into telemetry: the
/// `columns.clients` and `columns.chunks` gauges record the largest
/// fleet seen and how many pool chunks its batched operations span.
pub(crate) fn publish_columns(telemetry: &Telemetry, columns: &FleetColumns) {
    if !telemetry.is_enabled() {
        return;
    }
    if let Some(r) = telemetry.registry() {
        r.gauge("columns.clients").set_max(columns.len() as f64);
        r.gauge("columns.chunks").set_max(columns.chunk_count() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Brownout;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn mixed_plan() -> FaultPlan {
        FaultPlan {
            brownout: Some(Brownout { probability: 0.3 }),
            sensor_dropout: 0.3,
            ..FaultPlan::NONE
        }
    }

    #[test]
    fn draw_matches_row_wise_reference() {
        // The columnar draw must consume the fault stream exactly like
        // the historical per-client enum draw: same classes, and the
        // stream left at the same position.
        let plan = mixed_plan();
        let mut drawn = StdRng::seed_from_u64(9);
        let cols = FleetColumns::draw(&plan, 500, &mut drawn);
        let mut rng = StdRng::seed_from_u64(9);
        let reference: Vec<ClientClass> = (0..500)
            .map(|_| {
                if rng.gen::<f64>() < 0.3 {
                    ClientClass::Brownout
                } else if rng.gen::<f64>() < 0.3 {
                    ClientClass::SensorDropout
                } else {
                    ClientClass::Uploader
                }
            })
            .collect();
        assert_eq!(cols.len(), 500);
        for (i, want) in reference.iter().enumerate() {
            assert_eq!(cols.class(i), *want, "client {i}");
        }
        assert_eq!(drawn.next_u64(), rng.next_u64(), "stream positions diverged");
    }

    #[test]
    fn zero_probabilities_consume_no_rng() {
        let mut rng = StdRng::seed_from_u64(9);
        let before = rng.clone().next_u64();
        let cols = FleetColumns::draw(&FaultPlan::NONE, 100, &mut rng);
        assert_eq!(rng.next_u64(), before, "no RNG consumed");
        assert!(cols.classes().iter().all(|c| c == ClientClass::Uploader));
        // A plan that can only strike transfers draws no class either.
        let mut rng = StdRng::seed_from_u64(9);
        let lossy = FaultPlan { packet_loss: 0.5, ..FaultPlan::NONE };
        let cols = FleetColumns::draw(&lossy, 100, &mut rng);
        assert_eq!(rng.next_u64(), before, "no RNG consumed by a transfer-only plan");
        assert_eq!(cols.len(), 100);
    }

    #[test]
    fn class_counts_match_a_serial_scan_across_chunk_boundaries() {
        // Cross several chunk boundaries so the pooled reduction is
        // genuinely multi-chunk.
        let plan = mixed_plan();
        let n = 3 * FleetColumns::CHUNK + 17;
        let cols = FleetColumns::draw(&plan, n, &mut StdRng::seed_from_u64(4));
        let brown = cols.classes().iter().filter(|c| *c == ClientClass::Brownout).count();
        let sensor = cols.classes().iter().filter(|c| *c == ClientClass::SensorDropout).count();
        assert_eq!(cols.class_counts(), (brown, sensor));
        assert_eq!(cols.chunk_count(), 4);
    }

    #[test]
    fn class_counts_are_thread_count_invariant() {
        let plan = mixed_plan();
        let cols = FleetColumns::draw(&plan, 50_000, &mut StdRng::seed_from_u64(11));
        let wide = cols.class_counts();
        let narrow = rayon::pool::with_thread_cap(1, || cols.class_counts());
        assert_eq!(wide, narrow);
    }

    #[test]
    fn views_slice_without_copying() {
        let plan = mixed_plan();
        let cols = FleetColumns::draw(&plan, 100, &mut StdRng::seed_from_u64(2));
        let view = cols.classes();
        let tail = view.slice(60..100);
        assert_eq!(tail.len(), 40);
        for i in 0..40 {
            assert_eq!(tail.get(i), cols.class(60 + i));
        }
        assert!(!tail.is_empty());
        assert_eq!(view.slice(0..0).len(), 0);
    }

    #[test]
    fn transfer_records_flow_into_retries_and_energy() {
        let mut cols = FleetColumns::draw(&FaultPlan::NONE, 4, &mut StdRng::seed_from_u64(1));
        assert_eq!(cols.total_attempts(), 0, "no attempts column before tracking");
        cols.track_transfers();
        cols.record_transfer(0, 1); // clean first try
        cols.record_transfer(1, 3); // two retries
        cols.record_transfer(2, 4);
        // Client 3 never resolves (e.g. brown-out): attempts stay 0.
        assert_eq!(cols.attempts(1), 3);
        assert_eq!(cols.total_retries(), 5, "two retries plus three, none elsewhere");
        assert_eq!(cols.total_attempts(), 8);
        assert_eq!(cols.energy_total(), Joules::ZERO, "no energy column before filling");
        cols.fill_retry_energy(Joules(10.0));
        assert_eq!(cols.energy(0), 0.0);
        assert_eq!(cols.energy(1), 20.0);
        assert_eq!(cols.energy(2), 30.0);
        assert_eq!(cols.energy(3), 0.0);
        assert_eq!(cols.energy_total(), Joules(50.0));
    }

    /// Pushes `rows` (push order) and returns the finished pop order as
    /// `(time, client)` pairs.
    fn pop_order(rows: &[(f64, usize, u64)]) -> Vec<(f64, usize)> {
        let mut order = PopOrder::default();
        for &(t, client, attempts) in rows {
            order.push(t, client, attempts);
        }
        let (times, clients) = order.finish();
        assert_eq!(times.len(), rows.len());
        times.iter().zip(clients).map(|(&t, &c)| (t, c as usize)).collect()
    }

    /// A stable sort of the push-order rows by time: ties stay in push
    /// order, which is the event queue's tie-break.
    fn stable_sorted(rows: &[(f64, usize, u64)]) -> Vec<(f64, usize)> {
        let mut want: Vec<(f64, usize)> = rows.iter().map(|&(t, c, _)| (t, c)).collect();
        want.sort_by(|a, b| a.0.total_cmp(&b.0));
        want
    }

    #[test]
    fn pop_order_matches_a_stable_sort() {
        // First-attempt rows keep a sorted time column; retried rows
        // scatter later.
        let mut rng = StdRng::seed_from_u64(3);
        let mut t = 0.0;
        let mut rows = Vec::new();
        for client in 0..200usize {
            t += rng.gen::<f64>();
            if rng.gen::<f64>() < 0.3 {
                rows.push((t + 40.0 * rng.gen::<f64>(), client, 3));
            } else {
                rows.push((t, client, 1));
            }
        }
        assert_eq!(pop_order(&rows), stable_sorted(&rows));
    }

    #[test]
    fn pop_order_edge_cases() {
        let clean = [(1.0, 0, 1), (2.5, 1, 1), (7.0, 2, 1)];
        assert_eq!(pop_order(&clean), stable_sorted(&clean));
        let retried = [(9.0, 0, 2), (3.0, 4, 3), (3.0, 2, 2)];
        assert_eq!(pop_order(&retried), [(3.0, 2), (3.0, 4), (9.0, 0)]);
        assert!(pop_order(&[]).is_empty());
        // Reuse after `clear` starts from nothing.
        let mut order = PopOrder::default();
        order.push(5.0, 0, 2);
        let _ = order.finish();
        order.clear();
        order.push(1.0, 3, 1);
        assert_eq!(order.finish(), (&[1.0][..], &[3u32][..]));
    }

    #[test]
    fn empty_fleet_is_well_behaved() {
        let cols = FleetColumns::default();
        assert!(cols.is_empty());
        assert_eq!(cols.class_counts(), (0, 0));
        assert_eq!(cols.total_retries(), 0);
        assert_eq!(cols.chunk_count(), 0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(proptest::test_runner::Config::with_cases(128))]
            /// The fused pop order equals a stable sort by time of the
            /// push-order rows, on an integer lattice where first-attempt
            /// and retried rows tie at equal times, with the buffers
            /// reused across two servers as the pre-pass reuses them.
            #[test]
            fn fused_pop_order_is_a_stable_sort_by_time_and_client(
                seed in 0u64..1_000_000,
                n in 0usize..300,
                grid in 1u32..40,
                retried in 0.0f64..1.0,
                dropped in 0.0f64..0.5,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut order = PopOrder::default();
                for _server in 0..2 {
                    let mut wake: Vec<f64> =
                        (0..n).map(|_| f64::from(rng.gen_range(0..grid))).collect();
                    wake.sort_by(f64::total_cmp);
                    let mut rows = Vec::new();
                    for (client, &t) in wake.iter().enumerate() {
                        if rng.gen::<f64>() < dropped {
                            continue;
                        }
                        if rng.gen::<f64>() < retried {
                            let late = f64::from(rng.gen_range(0..grid));
                            rows.push((t + late, client, rng.gen_range(2u64..5)));
                        } else {
                            rows.push((t, client, 1));
                        }
                    }
                    order.clear();
                    for &(t, client, attempts) in &rows {
                        order.push(t, client, attempts);
                    }
                    let (times, clients) = order.finish();
                    let got: Vec<(f64, usize)> =
                        times.iter().zip(clients).map(|(&t, &c)| (t, c as usize)).collect();
                    prop_assert_eq!(got, stable_sorted(&rows));
                }
            }
        }
    }
}
