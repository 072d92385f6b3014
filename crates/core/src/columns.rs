//! Columnar (struct-of-arrays) fleet state.
//!
//! Per-client simulation state used to live in `Vec`s of structs and
//! enums scattered across the fault machinery; at fleet sizes of 10⁵–10⁶
//! clients those allocations and their pointer-chasing dominate a sweep
//! point. [`FleetColumns`] keeps the per-client state as four flat
//! buffers — phase, transfer attempts, fault-stream cursor (`u32`) and a
//! fault-energy surcharge (`f64`) — that batched operations chunk over
//! with a **deterministic chunk plan**: chunk boundaries are a pure
//! function of the column length ([`FleetColumns::CHUNK`]-sized pieces),
//! never of the worker count, so the persistent work-stealing pool can
//! execute them in any order while integer reductions stay bit-identical
//! across `RAYON_NUM_THREADS` ∈ {1, 2, N}.
//!
//! The columns never touch RNG streams: [`FleetColumns::draw`] consumes
//! the point's fault stream in exactly the order the old
//! `Vec<ClientClass>` population draw did (pinned by the fault-replay
//! suite), and the cursor column merely *records* how many draws each
//! client consumed, giving replay tooling a per-client offset into the
//! fault stream.

use crate::faults::{ClientClass, FaultPlan};
use pb_telemetry::Telemetry;
use pb_units::Joules;
use rand::{Rng, RngCore};
use rayon::prelude::*;

/// Encodes a [`ClientClass`] into its phase-column representation.
const fn encode(class: ClientClass) -> u32 {
    match class {
        ClientClass::Uploader => 0,
        ClientClass::Brownout => 1,
        ClientClass::SensorDropout => 2,
    }
}

/// Decodes a phase-column entry back into a [`ClientClass`].
fn decode(phase: u32) -> ClientClass {
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
    phase: &'a [u32],
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
/// * `phase` — the drawn [`ClientClass`], encoded;
/// * `attempts` — transfer attempts resolved for the client (0 until its
///   transfer is resolved; 1 = first try succeeded; retries beyond the
///   first show up as `attempts − 1`);
/// * `cursor` — fault-stream draws the client consumed (classification
///   plus transfer resolution), i.e. its offset width in the stream;
/// * `energy` — per-client fault-energy surcharge in joules (filled by
///   [`FleetColumns::fill_retry_energy`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetColumns {
    phase: Vec<u32>,
    attempts: Vec<u32>,
    cursor: Vec<u32>,
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
        let mut cols = FleetColumns {
            phase: Vec::with_capacity(active),
            attempts: vec![0; active],
            cursor: Vec::with_capacity(active),
            energy: vec![0.0; active],
        };
        for _ in 0..active {
            let mut draws = 0u32;
            let class = if p_brown > 0.0 && {
                draws += 1;
                rng.gen::<f64>() < p_brown
            } {
                ClientClass::Brownout
            } else if p_sensor > 0.0 && {
                draws += 1;
                rng.gen::<f64>() < p_sensor
            } {
                ClientClass::SensorDropout
            } else {
                ClientClass::Uploader
            };
            cols.phase.push(encode(class));
            cols.cursor.push(draws);
        }
        cols
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

    /// Records the resolved transfer of client `i`: its attempt count
    /// and how many further fault-stream draws the resolution consumed.
    pub fn record_transfer(&mut self, i: usize, attempts: u64, draws: u32) {
        self.attempts[i] = attempts.min(u32::MAX as u64) as u32;
        self.cursor[i] = self.cursor[i].saturating_add(draws);
    }

    /// Transfer attempts recorded for client `i`.
    pub fn attempts(&self, i: usize) -> u32 {
        self.attempts[i]
    }

    /// Fault-stream draws client `i` consumed (classification plus
    /// transfer resolution).
    pub fn cursor(&self, i: usize) -> u32 {
        self.cursor[i]
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

/// Columnar record of one server's *resolved* transfers: effective
/// arrival time, local client index and attempt count as flat columns,
/// filled in client order by the DES cycle's pre-pass.
///
/// The DES replay partitions these rows into **clean** deliveries
/// (first attempt succeeded, so the effective time *is* the client's
/// sorted wake-up instant — the rows are already time-ordered) and
/// **divergent** ones (retries pushed the client to a later, unordered
/// instant). Merging the sorted clean run with the sorted divergent
/// tail reproduces the DES event queue's exact `(time, push index)` pop
/// order in O(m + d log d) for `d` divergent clients, instead of
/// re-sorting all m rows.
#[derive(Clone, Debug, Default)]
pub struct TransferColumns {
    t_eff: Vec<f64>,
    client: Vec<u32>,
    attempts: Vec<u32>,
}

impl TransferColumns {
    /// An empty column set with room for `n` rows.
    pub fn with_capacity(n: usize) -> Self {
        TransferColumns {
            t_eff: Vec::with_capacity(n),
            client: Vec::with_capacity(n),
            attempts: Vec::with_capacity(n),
        }
    }

    /// Appends a resolved transfer (rows arrive in client order).
    pub fn push(&mut self, t_eff: f64, client: usize, attempts: u64) {
        self.t_eff.push(t_eff);
        self.client.push(client as u32);
        self.attempts.push(attempts.min(u32::MAX as u64) as u32);
    }

    /// Number of resolved transfers.
    pub fn len(&self) -> usize {
        self.t_eff.len()
    }

    /// True when no transfer resolved.
    pub fn is_empty(&self) -> bool {
        self.t_eff.is_empty()
    }

    /// Rows whose effective time diverged from the arrival stream
    /// (needed more than one attempt).
    pub fn divergent_count(&self) -> usize {
        self.attempts.iter().filter(|&&a| a > 1).count()
    }

    /// The rows as `(time, client)` pairs in *push* order (client
    /// order) — what the DES oracle's event loop consumes, so its
    /// sequence numbers match the historical per-client push loop.
    #[cfg(test)]
    pub(crate) fn push_order_entries(&self) -> Vec<(f64, usize)> {
        self.t_eff.iter().zip(&self.client).map(|(&t, &c)| (t, c as usize)).collect()
    }

    /// The rows in event-queue *pop* order — time ascending, ties in push
    /// order — as separate time and client columns (the shape the DES
    /// replay consumes), via the clean/divergent merge described on
    /// the type.
    pub fn pop_order_columns(&self) -> (Vec<f64>, Vec<u32>) {
        let m = self.len();
        let mut clean: Vec<(f64, u32, u32)> = Vec::with_capacity(m);
        let mut divergent: Vec<(f64, u32, u32)> = Vec::new();
        for i in 0..m {
            let row = (self.t_eff[i], i as u32, self.client[i]);
            if self.attempts[i] > 1 {
                divergent.push(row);
            } else {
                clean.push(row);
            }
        }
        // Clean rows inherit the arrival sort; only the divergent tail
        // needs ordering. The sort key (time, push index) matches the
        // event queue's (time, seq) tie-break exactly.
        divergent.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut times: Vec<f64> = Vec::with_capacity(m);
        let mut clients: Vec<u32> = Vec::with_capacity(m);
        let (mut ci, mut di) = (0usize, 0usize);
        while ci < clean.len() || di < divergent.len() {
            let take_clean = match (clean.get(ci), divergent.get(di)) {
                (Some(c), Some(d)) => c.0.total_cmp(&d.0).then(c.1.cmp(&d.1)).is_lt(),
                (Some(_), None) => true,
                _ => false,
            };
            let (t, _, client) = if take_clean {
                ci += 1;
                clean[ci - 1]
            } else {
                di += 1;
                divergent[di - 1]
            };
            times.push(t);
            clients.push(client);
        }
        (times, clients)
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

/// Wraps an RNG and counts the draws passing through, so per-client
/// fault-stream consumption can be recorded into the cursor column
/// without touching the stream itself.
pub(crate) struct CountingRng<'a, R: RngCore + ?Sized> {
    inner: &'a mut R,
    draws: u32,
}

impl<'a, R: RngCore + ?Sized> CountingRng<'a, R> {
    /// Wraps `inner`, starting the draw count at zero.
    pub(crate) fn new(inner: &'a mut R) -> Self {
        CountingRng { inner, draws: 0 }
    }

    /// Draws counted so far.
    pub(crate) fn draws(&self) -> u32 {
        self.draws
    }
}

impl<R: RngCore + ?Sized> RngCore for CountingRng<'_, R> {
    fn next_u32(&mut self) -> u32 {
        self.draws = self.draws.saturating_add(1);
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.draws = self.draws.saturating_add(1);
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.draws = self.draws.saturating_add(1);
        self.inner.fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Brownout;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        // the historical per-client enum draw.
        let plan = mixed_plan();
        let cols = FleetColumns::draw(&plan, 500, &mut StdRng::seed_from_u64(9));
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
        // Cursor: brown-outs consumed one draw, everyone else two.
        for i in 0..cols.len() {
            let want = if cols.class(i) == ClientClass::Brownout { 1 } else { 2 };
            assert_eq!(cols.cursor(i), want, "client {i}");
        }
    }

    #[test]
    fn zero_probabilities_consume_no_rng() {
        use rand::RngCore;
        let mut rng = StdRng::seed_from_u64(9);
        let before = rng.clone().next_u64();
        let cols = FleetColumns::draw(&FaultPlan::NONE, 100, &mut rng);
        assert_eq!(rng.next_u64(), before, "no RNG consumed");
        assert!(cols.classes().iter().all(|c| c == ClientClass::Uploader));
        assert!((0..cols.len()).all(|i| cols.cursor(i) == 0));
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
        cols.record_transfer(0, 1, 0); // clean first try
        cols.record_transfer(1, 3, 5); // two retries, five stream draws
        cols.record_transfer(2, 4, 6);
        // Client 3 never resolves (e.g. brown-out): attempts stay 0.
        assert_eq!(cols.attempts(1), 3);
        assert_eq!(cols.cursor(1), 5);
        assert_eq!(cols.total_retries(), 5, "two retries plus three, none elsewhere");
        assert_eq!(cols.total_attempts(), 8);
        cols.fill_retry_energy(Joules(10.0));
        assert_eq!(cols.energy(0), 0.0);
        assert_eq!(cols.energy(1), 20.0);
        assert_eq!(cols.energy(2), 30.0);
        assert_eq!(cols.energy(3), 0.0);
        assert_eq!(cols.energy_total(), Joules(50.0));
    }

    #[test]
    fn counting_rng_is_transparent() {
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        let mut counted = CountingRng::new(&mut a);
        let x: f64 = counted.gen();
        let y: f64 = counted.gen();
        assert!(counted.draws() >= 2);
        assert_eq!((x, y), (b.gen::<f64>(), b.gen::<f64>()));
        // The wrapped stream continues where the wrapper left off.
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    /// [`TransferColumns::pop_order_columns`] as `(time, client)` pairs.
    fn pop_order_pairs(cols: &TransferColumns) -> Vec<(f64, usize)> {
        let (times, clients) = cols.pop_order_columns();
        times.into_iter().zip(clients).map(|(t, c)| (t, c as usize)).collect()
    }

    #[test]
    fn pop_order_merge_matches_a_stable_sort() {
        // Clean rows keep a sorted time column; divergent rows scatter.
        // The merge must equal a stable sort of all rows by time (stable
        // sort preserves push order at ties — the event-queue tie-break).
        let mut cols = TransferColumns::with_capacity(8);
        let mut rng = StdRng::seed_from_u64(3);
        let mut t = 0.0;
        let mut reference: Vec<(f64, usize)> = Vec::new();
        for client in 0..200usize {
            t += rng.gen::<f64>();
            let retried = rng.gen::<f64>() < 0.3;
            let (t_eff, attempts) = if retried { (t + 40.0 * rng.gen::<f64>(), 3) } else { (t, 1) };
            cols.push(t_eff, client, attempts);
            reference.push((t_eff, client));
        }
        assert_eq!(cols.push_order_entries(), reference);
        reference.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert_eq!(pop_order_pairs(&cols), reference);
        assert!(cols.divergent_count() > 10);
        assert_eq!(cols.len(), 200);
        assert!(!cols.is_empty());
    }

    #[test]
    fn all_clean_pop_order_is_push_order() {
        let mut cols = TransferColumns::with_capacity(4);
        for (i, t) in [1.0, 2.5, 7.0].into_iter().enumerate() {
            cols.push(t, i, 1);
        }
        assert_eq!(pop_order_pairs(&cols), cols.push_order_entries());
        assert_eq!(cols.divergent_count(), 0);
        assert_eq!(TransferColumns::default().pop_order_columns(), (vec![], vec![]));
    }

    #[test]
    fn empty_fleet_is_well_behaved() {
        let cols = FleetColumns::default();
        assert!(cols.is_empty());
        assert_eq!(cols.class_counts(), (0, 0));
        assert_eq!(cols.total_retries(), 0);
        assert_eq!(cols.chunk_count(), 0);
    }
}
