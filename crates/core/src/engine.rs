//! The unified cycle-evaluation engine.
//!
//! The crate grew three ways to price one wake-up cycle: the closed
//! forms of [`crate::simulation`], the state-machine integration of
//! [`crate::timeline`], and the asynchronous discrete-event model of
//! [`crate::des`]. Each had its own entry point, its own seeding
//! convention, and its own call to the allocator. This module unifies
//! them behind one [`CycleEngine`] trait so the backend becomes a
//! runtime parameter ([`Backend`]), with two shared services:
//!
//! * [`SimContext`] — deterministic per-point seed derivation (the
//!   `seed ^ n·φ` splitting that [`crate::sweep::SweepConfig`]
//!   pioneered, generalized so every consumer derives independent
//!   streams the same way), plus
//! * [`AllocationCache`] — a thread-safe memo of [`Allocation`]s keyed
//!   by `(n_clients, n_slots, max_parallel, policy)`. Allocations are
//!   pure functions of that key, and sweeps re-request the same shapes
//!   thousands of times (every Monte-Carlo replicate, every fleet
//!   hyper-period cycle), so one shared cache turns the allocator from
//!   a per-point cost into a per-shape cost.
//!
//! The scenario itself — both client models, the server, the losses and
//! the fill policy — travels as one [`ScenarioSpec`] value instead of a
//! six-argument parameter list.
//!
//! # Example
//!
//! ```
//! use pb_orchestra::engine::{Backend, CycleEngine, ScenarioSpec, SimContext};
//! use pb_orchestra::loss::LossModel;
//! use pb_orchestra::ServiceKind;
//!
//! let spec = ScenarioSpec::paper(ServiceKind::Cnn, 10, LossModel::NONE);
//! let ctx = SimContext::new(1);
//! let report = Backend::ClosedForm.evaluate(&spec, 200, &ctx);
//! assert_eq!(report.n_servers, 2); // 200 clients need two 180-client servers
//! assert!((report.edge_energy_per_client.value() - 322.0).abs() < 1.0);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::allocator::{allocate, Allocation, FillPolicy};
use crate::client::ClientModel;
use crate::columns::{publish_columns, FleetColumns};
use crate::des::{
    count_replayed, run_server, DesFaults, DesMetrics, DesRun, DesTrace, ServerCycle, ShapeMemo,
};
use crate::faults::{
    emit_delivered, publish_stats, resolve_client, retry_energy, FaultPlan, FaultStats, Resolution,
    TransferTrace, FAULT_GAMMA,
};
use crate::loss::LossModel;
use crate::scenario::presets;
use crate::server::ServerModel;
use crate::simulation::{edge_cycle_energy, servers_cycle_energy, CycleReport};
use crate::sweep::ComparisonPoint;
use crate::timeline::{client_timeline, servers_energy_from_timelines, slot_start_times};
use crate::ServiceKind;
use pb_telemetry::trace::trace_id;
use pb_telemetry::{Counter, Histogram, Telemetry};
use pb_units::{Joules, Seconds};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// The odd multiplier of the golden-ratio seed split: distinct inputs
/// map to well-separated seeds (Weyl sequence over 2⁶⁴).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A multiply-rotate hasher for the allocation cache's small integer
/// keys. Sweeps pay one cache lookup per point, and with the default
/// SipHash that lookup was the single largest per-point cost of a warm
/// closed-form sweep (~60 % of the evaluation). Hashing five integer
/// words through a rotate-xor-multiply fold is an order of magnitude
/// cheaper and changes nothing observable: the hasher only picks the
/// bucket, never the value.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.fold(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }
}

type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

/// Everything that defines the two scenarios being compared: both client
/// models, the server, the loss model and the fill policy.
///
/// [`CycleEngine::evaluate`] prices the edge+cloud scenario
/// (`cloud_client` + `server`); [`CycleEngine::evaluate_edge`] prices
/// the pure-edge scenario (`edge_client` alone).
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// Client of the edge scenario (runs the service locally).
    pub edge_client: ClientModel,
    /// Client of the edge+cloud scenario (uploads to the server).
    pub cloud_client: ClientModel,
    /// The cloud server.
    pub server: ServerModel,
    /// Loss model applied to both scenarios.
    pub loss: LossModel,
    /// Allocation policy.
    pub policy: FillPolicy,
}

impl ScenarioSpec {
    /// The paper's calibrated setting: CNN or SVM service, 5-minute
    /// cycles, `max_parallel` clients per slot, pack-first allocation.
    pub fn paper(service: ServiceKind, max_parallel: usize, loss: LossModel) -> Self {
        ScenarioSpec {
            edge_client: presets::edge_client(service),
            cloud_client: presets::edge_cloud_client(),
            server: presets::cloud_server(service, max_parallel),
            loss,
            policy: FillPolicy::PackSlots,
        }
    }
}

/// Allocation shapes are pure functions of this key: the population, the
/// server's (penalty-adjusted) slot count, its slot capacity, the fill
/// policy, and the [`FaultPlan`] fingerprint (a slow-down changes the
/// slot count the allocator sees, so a shape cached for the fault-free
/// plan must never be served for a faulted run). Server *powers* don't
/// matter to the allocator.
pub type AllocationKey = (usize, usize, usize, FillPolicy, u64);

/// A thread-safe memo of allocator output.
///
/// [`allocate`] is deterministic, so two requests with equal
/// [`AllocationKey`]s return the same shape; the cache computes it once
/// and hands out shared [`Arc`]s. Hit/miss counters make cache behavior
/// observable in tests and benchmarks.
#[derive(Debug, Default)]
pub struct AllocationCache {
    map: RwLock<HashMap<AllocationKey, Arc<Allocation>, FxBuildHasher>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Mirrors the hit/miss counters into a telemetry registry and
    /// records per-slot occupancy when a fresh allocation is computed.
    telemetry: Option<CacheTelemetry>,
}

/// Pre-resolved telemetry handles for the cache hot path (one atomic add
/// per lookup instead of a registry lookup).
#[derive(Debug)]
struct CacheTelemetry {
    hits: Counter,
    misses: Counter,
    occupancy: Histogram,
}

impl AllocationCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache that mirrors its counters into `telemetry` (as
    /// `allocation_cache.hits` / `allocation_cache.misses`) and records
    /// each freshly computed allocation's per-slot occupancy into the
    /// `allocator.slot_occupancy` histogram. With a disabled handle this
    /// is identical to [`AllocationCache::new`].
    pub fn with_telemetry(telemetry: &Telemetry) -> Self {
        let handles = telemetry.registry().map(|r| CacheTelemetry {
            hits: r.counter("allocation_cache.hits"),
            misses: r.counter("allocation_cache.misses"),
            occupancy: r.histogram("allocator.slot_occupancy"),
        });
        AllocationCache { telemetry: handles, ..Self::default() }
    }

    /// Returns the allocation of `n_clients` onto `server` under
    /// `policy`/`penalty` for the fault-free plan, computing and
    /// memoizing it on first request.
    pub fn get_or_allocate(
        &self,
        n_clients: usize,
        server: &ServerModel,
        policy: FillPolicy,
        penalty: Option<&crate::loss::TransferPenalty>,
    ) -> Arc<Allocation> {
        self.get_or_allocate_for(n_clients, server, policy, penalty, 0)
    }

    /// Like [`AllocationCache::get_or_allocate`], keyed additionally by a
    /// [`FaultPlan::fingerprint`] so shapes computed for different plans
    /// never alias (pass 0 for the fault-free plan). The caller passes
    /// the *degraded* server; the fingerprint guards against two plans
    /// that happen to degrade to the same slot count but differ
    /// elsewhere.
    pub fn get_or_allocate_for(
        &self,
        n_clients: usize,
        server: &ServerModel,
        policy: FillPolicy,
        penalty: Option<&crate::loss::TransferPenalty>,
        fault_fingerprint: u64,
    ) -> Arc<Allocation> {
        let key =
            (n_clients, server.n_slots(penalty), server.max_parallel, policy, fault_fingerprint);
        if let Some(hit) = self.map.read().expect("allocation cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if let Some(tel) = &self.telemetry {
                tel.hits.inc();
            }
            return Arc::clone(hit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fresh = Arc::new(allocate(n_clients, server, policy, penalty));
        if let Some(tel) = &self.telemetry {
            tel.misses.inc();
            for sa in fresh.servers() {
                for &k in &sa.slots {
                    tel.occupancy.observe(k as f64);
                }
            }
        }
        let mut map = self.map.write().expect("allocation cache poisoned");
        // Another thread may have won the race between the read and the
        // write lock; keep the first insertion so everyone shares one Arc.
        Arc::clone(map.entry(key).or_insert(fresh))
    }

    /// Lookups answered from the memo so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to run the allocator.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct allocation shapes memoized.
    pub fn len(&self) -> usize {
        self.map.read().expect("allocation cache poisoned").len()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every memoized shape and zeroes the counters.
    pub fn clear(&self) {
        self.map.write().expect("allocation cache poisoned").clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// Deterministic simulation context: a master seed plus the shared
/// [`AllocationCache`].
///
/// Every consumer that needs "an independent stream for item `n`"
/// derives it through [`SimContext::point_rng`] instead of hand-rolling
/// `StdRng::seed_from_u64(seed ^ …)` — one convention, stated once.
/// Cloning is cheap and shares the cache, so a context can fan out
/// across rayon workers while all of them reuse each other's
/// allocations.
#[derive(Clone, Debug)]
pub struct SimContext {
    seed: u64,
    cache: Arc<AllocationCache>,
    telemetry: Telemetry,
    faults: FaultPlan,
}

impl SimContext {
    /// A fresh context with its own empty cache, disabled telemetry and
    /// no faults.
    pub fn new(seed: u64) -> Self {
        SimContext {
            seed,
            cache: Arc::new(AllocationCache::new()),
            telemetry: Telemetry::disabled(),
            faults: FaultPlan::NONE,
        }
    }

    /// A fresh context whose cache and backends report into `telemetry`.
    /// Telemetry never touches the RNG streams, so results are
    /// bit-identical to [`SimContext::new`] with the same seed.
    pub fn with_telemetry(seed: u64, telemetry: Telemetry) -> Self {
        SimContext {
            seed,
            cache: Arc::new(AllocationCache::with_telemetry(&telemetry)),
            telemetry,
            faults: FaultPlan::NONE,
        }
    }

    /// A context sharing an existing cache (e.g. across sweeps).
    pub fn with_cache(seed: u64, cache: Arc<AllocationCache>) -> Self {
        SimContext { seed, cache, telemetry: Telemetry::disabled(), faults: FaultPlan::NONE }
    }

    /// A context sharing an existing cache *and* reporting into
    /// `telemetry` — the serving daemon's shape: one process-wide
    /// allocation cache and one metrics registry across every request,
    /// while each request still gets its own seed. Note the cache's own
    /// hit/miss mirroring is bound when the cache is constructed
    /// ([`AllocationCache::with_telemetry`]), not here.
    pub fn with_cache_and_telemetry(
        seed: u64,
        cache: Arc<AllocationCache>,
        telemetry: Telemetry,
    ) -> Self {
        SimContext { seed, cache, telemetry, faults: FaultPlan::NONE }
    }

    /// This context with `plan` injected into every evaluation. A plan
    /// that strikes no client ([`FaultPlan::strikes_clients`]) does no
    /// per-client fault work, and [`FaultPlan::NONE`] reproduces the
    /// fault-free results bit for bit.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// The active fault plan ([`FaultPlan::NONE`] by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// This context's telemetry handle (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Whether causal trace tagging is active: the telemetry handle
    /// carries the [`Telemetry::with_tracing`] flag *and* its sink
    /// records events. Backends consult this before emitting
    /// `trace.*` spans or tagging events with span ids.
    pub fn tracing_active(&self) -> bool {
        self.telemetry.tracing_active()
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shared allocation cache.
    pub fn cache(&self) -> &AllocationCache {
        &self.cache
    }

    /// A handle to the cache for sharing with another context.
    pub fn shared_cache(&self) -> Arc<AllocationCache> {
        Arc::clone(&self.cache)
    }

    /// The derived seed of point `n`: `seed ^ n·φ` — the splitting
    /// convention [`crate::sweep::SweepConfig`] established. Point 0
    /// maps to the master seed itself.
    pub fn point_seed(&self, n: u64) -> u64 {
        self.seed ^ n.wrapping_mul(GOLDEN_GAMMA)
    }

    /// An independent deterministic RNG for point `n`.
    pub fn point_rng(&self, n: u64) -> StdRng {
        StdRng::seed_from_u64(self.point_seed(n))
    }

    /// The fault-stream seed of point `n`: the point seed XOR'd with its
    /// own odd constant, so fault draws never alias the loss draws.
    pub fn fault_seed(&self, n: u64) -> u64 {
        self.point_seed(n) ^ FAULT_GAMMA
    }

    /// An independent deterministic RNG for point `n`'s fault draws.
    pub fn fault_rng(&self, n: u64) -> StdRng {
        StdRng::seed_from_u64(self.fault_seed(n))
    }

    /// A derived context for Monte-Carlo replicate `r`, sharing this
    /// context's cache. Uses the additive split
    /// `seed + r·0x9E37_79B9` that [`crate::montecarlo`] established,
    /// so replicate streams stay disjoint from point streams.
    pub fn replicate(&self, r: u64) -> SimContext {
        SimContext {
            seed: self.seed.wrapping_add(r.wrapping_mul(0x9E37_79B9)),
            cache: Arc::clone(&self.cache),
            telemetry: self.telemetry.clone(),
            faults: self.faults,
        }
    }
}

/// A strategy for pricing one wake-up cycle of the two scenarios.
///
/// A backend implements [`evaluate_drawn`](CycleEngine::evaluate_drawn),
/// the edge+cloud side priced from a [`CycleDraw`], and names its span.
/// The rest is shared across backends: the pure-edge scenario has no
/// server to model, and the comparison semantics (one draw strikes both
/// sides) must not vary by backend.
pub trait CycleEngine: Send + Sync {
    /// The histogram the edge+cloud side's wall time records into,
    /// `engine.cycle.<backend>`; it covers the draw as well.
    fn span_name(&self) -> &'static str;

    /// Prices one cycle of the **edge+cloud** scenario from its draw.
    fn evaluate_drawn(&self, spec: &ScenarioSpec, draw: CycleDraw, ctx: &SimContext)
        -> CycleReport;

    /// Prices one cycle of the **edge+cloud** scenario at `n_clients`.
    fn evaluate(&self, spec: &ScenarioSpec, n_clients: usize, ctx: &SimContext) -> CycleReport {
        let _span = ctx.telemetry().span(self.span_name());
        self.evaluate_drawn(spec, CycleDraw::new(spec, n_clients, ctx), ctx)
    }

    /// Prices one cycle of the **edge** scenario at `n_clients`: every
    /// client runs the service locally, no servers exist, and only
    /// Loss C applies.
    fn evaluate_edge(
        &self,
        spec: &ScenarioSpec,
        n_clients: usize,
        ctx: &SimContext,
    ) -> CycleReport {
        let _span = ctx.telemetry().span("engine.cycle.edge");
        CycleDraw::new(spec, n_clients, ctx).edge_report(spec, ctx.fault_plan())
    }

    /// Evaluates both scenarios at `n_clients` from **one** draw: the
    /// Loss-C count and the fault classes are drawn once and serve both
    /// sides, so a random client loss or fault strikes both equally and
    /// the comparison is apples-to-apples (the Figure 7 green/blue
    /// regions). Bit-identical to separate [`evaluate_edge`] and
    /// [`evaluate`] calls, which each make the same draw, except that
    /// `loss.clients_lost` counts the lost clients once.
    ///
    /// [`evaluate_edge`]: CycleEngine::evaluate_edge
    /// [`evaluate`]: CycleEngine::evaluate
    fn compare(&self, spec: &ScenarioSpec, n_clients: usize, ctx: &SimContext) -> ComparisonPoint {
        let telemetry = ctx.telemetry();
        let _span = telemetry.span(self.span_name());
        let draw = CycleDraw::new(spec, n_clients, ctx);
        let edge = {
            let _span = telemetry.span("engine.cycle.edge");
            draw.edge_report(spec, ctx.fault_plan())
        };
        ComparisonPoint { n_clients, edge, cloud: self.evaluate_drawn(spec, draw, ctx) }
    }
}

/// The draws one cycle's two scenarios share: how many of the clients
/// participate (Loss C, from the point's stream) and — only when the
/// plan can strike a client — every active client's fault class (from
/// the point's fault stream). [`CycleEngine::compare`] makes one and
/// hands it to both sides; the edge side reads its counts, and the
/// edge+cloud side consumes it. Opaque outside this module: only the
/// built-in backends read it.
#[derive(Debug)]
pub struct CycleDraw {
    n_clients: usize,
    active: usize,
    strike: Option<Strike>,
}

/// Per-client fault state of a cycle the plan can strike.
#[derive(Debug)]
struct Strike {
    columns: FleetColumns,
    brownouts: usize,
    sensor_dropouts: usize,
    /// The point's fault stream, positioned after the class draws.
    frng: StdRng,
}

impl CycleDraw {
    /// Draws point `n_clients`: the Loss-C count (added to
    /// `loss.clients_lost`) and, when the plan strikes clients, the class
    /// column.
    fn new(spec: &ScenarioSpec, n_clients: usize, ctx: &SimContext) -> Self {
        let plan = ctx.fault_plan();
        let lost = spec
            .loss
            .client_loss
            .map_or(0, |l| l.draw(n_clients, &mut ctx.point_rng(n_clients as u64)));
        if lost > 0 {
            ctx.telemetry().add_to_counter("loss.clients_lost", lost as u64);
        }
        let active = n_clients - lost;
        let strike = plan.strikes_clients().then(|| {
            let mut frng = ctx.fault_rng(n_clients as u64);
            let columns = FleetColumns::draw(plan, active, &mut frng);
            let (brownouts, sensor_dropouts) = columns.class_counts();
            publish_columns(ctx.telemetry(), &columns);
            Strike { columns, brownouts, sensor_dropouts, frng }
        });
        CycleDraw { n_clients, active, strike }
    }

    /// The edge scenario's report. Nodes never touch the network, so
    /// only sensor dropouts strike them, and a node whose sensor failed
    /// still runs its full routine (energy unchanged).
    fn edge_report(&self, spec: &ScenarioSpec, plan: &FaultPlan) -> CycleReport {
        let edge_total = spec.edge_client.cycle_energy() * self.active as f64;
        let stats = match &self.strike {
            Some(st) => FaultStats {
                sensor_dropouts: st.sensor_dropouts as u64,
                delivered: (self.active - st.sensor_dropouts) as u64,
                ..FaultStats::default()
            },
            None => FaultStats::unstruck(plan, 0, self.active),
        };
        CycleReport::new(self.n_clients, self.active, 0, edge_total, Joules::ZERO, stats)
    }

    /// The server as the plan degrades it, and the (fingerprint-keyed)
    /// allocation of the active clients onto it.
    fn provision(&self, spec: &ScenarioSpec, ctx: &SimContext) -> (ServerModel, Arc<Allocation>) {
        let plan = ctx.fault_plan();
        let server = plan.effective_server(&spec.server);
        let allocation = ctx.cache().get_or_allocate_for(
            self.active,
            &server,
            spec.policy,
            spec.loss.transfer.as_ref(),
            plan.fingerprint(),
        );
        (server, allocation)
    }
}

/// The closed-form backend: the per-slot algebra of
/// [`crate::simulation`]. Fastest; exact for the paper's synchronized
/// slot model.
///
/// Under faults it prices exact brown-out / sensor draws and the
/// expected retry and fallback mass of the geometric retry series.
/// Server provisioning is pre-fault: the server cannot know which
/// clients will fail, so it runs its full slot schedule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClosedForm;

impl CycleEngine for ClosedForm {
    fn span_name(&self) -> &'static str {
        "engine.cycle.closed_form"
    }

    fn evaluate_drawn(
        &self,
        spec: &ScenarioSpec,
        draw: CycleDraw,
        ctx: &SimContext,
    ) -> CycleReport {
        let plan = ctx.fault_plan();
        let active = draw.active;
        let (server, allocation) = draw.provision(spec, ctx);
        let server_total = servers_cycle_energy(&server, &allocation, &spec.loss);
        let mut edge_total = edge_cycle_energy(&spec.cloud_client, &allocation, &spec.loss);
        let stats = match &draw.strike {
            None => FaultStats::unstruck(plan, active, active),
            Some(st) => {
                let uploaders = active - st.brownouts - st.sensor_dropouts;
                let per_cloud = if active > 0 { edge_total / active as f64 } else { Joules::ZERO };
                let p1 = plan.first_attempt_failure(spec.server.cycle);
                let max = plan.retry.max_retries;
                let p_exhaust = p1.powi(max as i32 + 1);
                let expected_retries_per_uploader: f64 = (1..=max).map(|k| p1.powi(k as i32)).sum();
                let tx_fallbacks = uploaders as f64 * p_exhaust;
                let total_retries = uploaders as f64 * expected_retries_per_uploader;
                let fallback_mass = st.brownouts as f64 + tx_fallbacks;
                edge_total = edge_total
                    + (spec.edge_client.cycle_energy() - per_cloud) * fallback_mass
                    + retry_energy(&spec.cloud_client) * total_retries;
                let fallbacks = st.brownouts as u64 + tx_fallbacks.round() as u64;
                let stats = FaultStats {
                    attempts: uploaders as u64 + total_retries.round() as u64,
                    retries: total_retries.round() as u64,
                    fallbacks,
                    brownouts: st.brownouts as u64,
                    sensor_dropouts: st.sensor_dropouts as u64,
                    delivered: (active as u64)
                        .saturating_sub(fallbacks + st.sensor_dropouts as u64),
                };
                publish_stats(ctx.telemetry(), &stats);
                stats
            }
        };
        CycleReport::new(
            draw.n_clients,
            active,
            allocation.n_servers(),
            edge_total,
            server_total,
            stats,
        )
    }
}

/// The event-timeline backend: builds explicit power/dwell state
/// machines ([`crate::timeline`]) for every server and client and
/// integrates them. Slower than [`ClosedForm`] but validates it — the
/// two must agree to numerical precision on the same allocation.
///
/// Under faults every client's transfer is attempted at its slot's
/// scheduled start time and resolved exactly through the faults
/// module's retry machinery, drawing outcomes in (server, slot, client)
/// order from the point's fault stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventTimeline;

impl CycleEngine for EventTimeline {
    fn span_name(&self) -> &'static str {
        "engine.cycle.timeline"
    }

    fn evaluate_drawn(
        &self,
        spec: &ScenarioSpec,
        mut draw: CycleDraw,
        ctx: &SimContext,
    ) -> CycleReport {
        let plan = ctx.fault_plan();
        let (server, allocation) = draw.provision(spec, ctx);
        let server_total = servers_energy_from_timelines(&server, &allocation, &spec.loss);
        let fallback_cost = spec.edge_client.cycle_energy();
        let retry_cost = retry_energy(&spec.cloud_client);
        let telemetry = ctx.telemetry();
        // Causal tagging is opt-in (`Telemetry::with_tracing`): without it
        // the event stream stays byte-identical to the untagged shape.
        let causal = telemetry.tracing_active();
        let trace_seed = ctx.point_seed(draw.n_clients as u64);
        if let Some(st) = draw.strike.as_mut() {
            st.columns.track_transfers();
        }

        let (mut delivered, mut fallbacks) = (0u64, 0u64);
        // Starts at -0.0, the value of an empty `Iterator::sum`, so an
        // empty cycle reports the sign `clients_energy_from_timelines`
        // gives it (pinned by the NONE goldens).
        let mut edge_total = Joules(-0.0);
        let mut idx = 0usize;
        for (count, sa) in allocation.groups() {
            // Slot start times and per-slot client costs (loss-B stretch
            // included) depend only on the shape: price them once per
            // group, then replay them per server in server order.
            let starts = slot_start_times(&server, &sa.slots, &spec.loss);
            let slots: Vec<(Seconds, Joules, usize)> = sa
                .slots
                .iter()
                .zip(starts)
                .filter(|&(&k, _)| k > 0)
                .map(|(&k, t0)| {
                    (t0, client_timeline(&spec.cloud_client, k, &spec.loss).total_energy(), k)
                })
                .collect();
            for _ in 0..*count {
                for &(t0, slot_cost, k) in &slots {
                    let Some(st) = draw.strike.as_mut() else {
                        edge_total += slot_cost * k as f64;
                        continue;
                    };
                    // All clients of the slot share its cost and its
                    // scheduled transfer start time; those who run their
                    // routine to the upload (or to a dead sensor) pay it.
                    let mut paying = 0usize;
                    for _ in 0..k {
                        let tc = TransferTrace {
                            client: idx as u64,
                            trace: if causal { trace_id(trace_seed, idx as u64) } else { 0 },
                            retry_energy_j: retry_cost.value(),
                            fallback_energy_j: fallback_cost.value(),
                        };
                        let class = st.columns.class(idx);
                        let outcome = resolve_client(
                            plan,
                            class,
                            t0,
                            &mut st.frng,
                            telemetry,
                            causal.then_some(&tc),
                        );
                        st.columns.record_transfer(idx, outcome.attempts());
                        if outcome.attempts() > 1 {
                            edge_total += retry_cost * (outcome.attempts() - 1) as f64;
                        }
                        match outcome {
                            Resolution::Dropped => paying += 1,
                            Resolution::FellBack { .. } => {
                                edge_total += fallback_cost;
                                fallbacks += 1;
                            }
                            Resolution::Delivered { attempts, at } => {
                                paying += 1;
                                delivered += 1;
                                if causal {
                                    emit_delivered(
                                        telemetry,
                                        at.value(),
                                        tc.trace,
                                        tc.client,
                                        attempts,
                                        slot_cost.value(),
                                    );
                                }
                            }
                        }
                        idx += 1;
                    }
                    edge_total += slot_cost * paying as f64;
                }
            }
        }
        let stats = match &mut draw.strike {
            None => FaultStats::unstruck(plan, draw.active, draw.active),
            Some(st) => {
                debug_assert_eq!(idx, draw.active, "allocation must cover every active client");
                // Attempt/retry totals come off the attempts column:
                // chunked integer reductions over the pool, bit-identical
                // at any thread count.
                let stats = FaultStats {
                    attempts: st.columns.total_attempts(),
                    retries: st.columns.total_retries(),
                    fallbacks,
                    brownouts: st.brownouts as u64,
                    sensor_dropouts: st.sensor_dropouts as u64,
                    delivered,
                };
                if telemetry.is_enabled() {
                    st.columns.fill_retry_energy(retry_cost);
                    telemetry.observe("columns.retry_energy_j", st.columns.energy_total().value());
                }
                publish_stats(telemetry, &stats);
                stats
            }
        };
        CycleReport::new(
            draw.n_clients,
            draw.active,
            allocation.n_servers(),
            edge_total,
            server_total,
            stats,
        )
    }
}

/// The discrete-event backend: drops the synchronized-slot assumption
/// and lets clients upload at random offsets within the cycle
/// ([`crate::des`]). Provisioning (server count) still follows the
/// slotted allocator so the scenarios stay comparable; per-server
/// arrival processes derive deterministically from the point seed.
///
/// This is an *ablation* of the paper's model, not an equivalent
/// formulation: saturation and transfer-contention losses have no slot
/// to act on (the transfer penalty still shrinks provisioning capacity),
/// and server energy reflects asynchronous overlap rather than shared
/// slot windows — every upload bills its own receive time, where a
/// synchronized slot amortizes one window over its whole occupancy.
///
/// Under faults each client's transfer is resolved at its random
/// arrival time; failed attempts never occupy the uplink, successful
/// ones arrive at their final attempt time. Each server derives its own
/// arrival and fault streams from the point seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Des;

impl CycleEngine for Des {
    fn span_name(&self) -> &'static str {
        "engine.cycle.des"
    }

    fn evaluate_drawn(
        &self,
        spec: &ScenarioSpec,
        draw: CycleDraw,
        ctx: &SimContext,
    ) -> CycleReport {
        let plan = ctx.fault_plan();
        let (server, allocation) = draw.provision(spec, ctx);
        let point_seed = ctx.point_seed(draw.n_clients as u64);
        let fault_seed = ctx.fault_seed(draw.n_clients as u64);
        // One job per server: (server index, global index of its first
        // client, clients). Each server owns independent salted RNG
        // streams, so the servers fan out over the pool; the fold below
        // walks the results in server order, keeping the energy sum
        // bit-identical to the serial loop at any thread count. Causal
        // trace ids derive from the point seed and the global client
        // index, so they are thread-count-stable too.
        let mut jobs: Vec<(usize, usize, usize)> = Vec::with_capacity(allocation.n_servers());
        let mut base = 0usize;
        for (i, sa) in allocation.servers().enumerate() {
            jobs.push((i, base, sa.n_clients()));
            base += sa.n_clients();
        }
        debug_assert_eq!(base, draw.active, "allocation must cover every active client");
        let classes = draw.strike.as_ref().map(|st| st.columns.classes());
        let telemetry = ctx.telemetry();
        let causal = telemetry.tracing_active();
        // Resolved once per point, not once per server.
        let metrics = if jobs.is_empty() { None } else { DesMetrics::resolve(telemetry) };
        let deliver_cost = spec.cloud_client.cycle_energy();
        let fallback_cost = spec.edge_client.cycle_energy();
        let retry_cost = retry_energy(&spec.cloud_client);
        // Uniform populations leave at most two distinct server shapes
        // after the RLE allocation; fold each shape's repeated-addition
        // constants once and share them across the fan-out. Servers whose
        // transfers all resolve cleanly keep their shape and hit the
        // memo; divergent counts fold inline.
        let memo = ShapeMemo::for_server(&server, jobs.iter().map(|&(_, _, k)| k));
        let outs: Vec<ServerCycle> = jobs
            .par_iter()
            .map(|&(i, base, k)| {
                let salt = (i as u64 + 1).wrapping_mul(GOLDEN_GAMMA);
                let mut server_rng = StdRng::seed_from_u64(point_seed ^ salt);
                let tr = DesTrace {
                    point_seed,
                    base,
                    deliver_energy_j: deliver_cost.value(),
                    retry_energy_j: retry_cost.value(),
                    fallback_energy_j: fallback_cost.value(),
                };
                let run = DesRun {
                    telemetry,
                    causal: causal.then_some(&tr),
                    memo: Some(&memo),
                    faults: classes.map(|c| DesFaults {
                        plan,
                        classes: c.slice(base..base + k),
                        seed: fault_seed ^ salt,
                    }),
                };
                // No per-client read-out: the fold needs server totals only.
                run_server(k, &server, &mut server_rng, &run, metrics.as_ref(), |_| ()).0
            })
            .collect();
        let mut server_total = Joules::ZERO;
        let (mut attempts, mut retries, mut delivered, mut fallbacks) = (0u64, 0u64, 0u64, 0u64);
        for out in &outs {
            server_total += out.server_energy;
            attempts += out.attempts;
            retries += out.retries;
            delivered += out.delivered;
            fallbacks += out.fallbacks;
        }
        if !jobs.is_empty() {
            count_replayed(telemetry, delivered);
        }
        let sensor_dropouts = draw.strike.as_ref().map_or(0, |st| st.sensor_dropouts as u64);
        // Unsynchronized uploads see no slot contention (penalty-free
        // cycle cost); sensor-dropout clients still run their full
        // routine.
        let edge_total = deliver_cost * (delivered + sensor_dropouts) as f64
            + fallback_cost * fallbacks as f64
            + retry_cost * retries as f64;
        let stats = match &draw.strike {
            None => FaultStats::unstruck(plan, draw.active, draw.active),
            Some(st) => {
                let stats = FaultStats {
                    attempts,
                    retries,
                    fallbacks,
                    brownouts: st.brownouts as u64,
                    sensor_dropouts,
                    delivered,
                };
                publish_stats(telemetry, &stats);
                stats
            }
        };
        CycleReport::new(
            draw.n_clients,
            draw.active,
            allocation.n_servers(),
            edge_total,
            server_total,
            stats,
        )
    }
}

/// Runtime-selectable backend. Implements [`CycleEngine`] by
/// delegation, so call sites take a `Backend` (or `&dyn CycleEngine`)
/// and defer the choice to a flag or config value.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Per-slot closed forms (the default; exact and fastest).
    #[default]
    ClosedForm,
    /// Explicit state-machine timelines (validating integration).
    EventTimeline,
    /// Asynchronous discrete-event simulation (ablation).
    Des,
}

impl Backend {
    /// Every backend, for exhaustive comparisons.
    pub const ALL: [Backend; 3] = [Backend::ClosedForm, Backend::EventTimeline, Backend::Des];

    /// The backend's canonical CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::ClosedForm => "closed-form",
            Backend::EventTimeline => "timeline",
            Backend::Des => "des",
        }
    }
}

impl CycleEngine for Backend {
    fn span_name(&self) -> &'static str {
        match self {
            Backend::ClosedForm => ClosedForm.span_name(),
            Backend::EventTimeline => EventTimeline.span_name(),
            Backend::Des => Des.span_name(),
        }
    }

    fn evaluate_drawn(
        &self,
        spec: &ScenarioSpec,
        draw: CycleDraw,
        ctx: &SimContext,
    ) -> CycleReport {
        match self {
            Backend::ClosedForm => ClosedForm.evaluate_drawn(spec, draw, ctx),
            Backend::EventTimeline => EventTimeline.evaluate_drawn(spec, draw, ctx),
            Backend::Des => Des.evaluate_drawn(spec, draw, ctx),
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "closed-form" | "closed" | "analytic" => Ok(Backend::ClosedForm),
            "timeline" | "event-timeline" => Ok(Backend::EventTimeline),
            "des" | "async" => Ok(Backend::Des),
            other => {
                Err(format!("unknown backend '{other}' (expected closed-form, timeline or des)"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(max_parallel: usize, loss: LossModel) -> ScenarioSpec {
        ScenarioSpec::paper(ServiceKind::Cnn, max_parallel, loss)
    }

    #[test]
    fn timeline_agrees_with_closed_form_to_microjoules() {
        for loss in [
            LossModel::NONE,
            LossModel::saturation_only(),
            LossModel::transfer_only(),
            LossModel::all(),
        ] {
            for policy in [FillPolicy::PackSlots, FillPolicy::BalanceSlots] {
                let spec = ScenarioSpec { policy, ..spec(10, loss) };
                let ctx = SimContext::new(7);
                for n in [1usize, 45, 180, 500] {
                    let a = ClosedForm.evaluate(&spec, n, &ctx);
                    let b = EventTimeline.evaluate(&spec, n, &ctx);
                    assert!(
                        (a.total_energy - b.total_energy).abs() < Joules(1e-6),
                        "{policy:?} n = {n}: {} vs {}",
                        a.total_energy,
                        b.total_energy
                    );
                    assert_eq!(a.n_active, b.n_active);
                    assert_eq!(a.n_servers, b.n_servers);
                }
            }
        }
    }

    #[test]
    fn des_backend_is_deterministic_and_provisions_like_the_allocator() {
        let spec = spec(10, LossModel::NONE);
        let ctx = SimContext::new(3);
        let a = Des.evaluate(&spec, 400, &ctx);
        let b = Des.evaluate(&spec, 400, &ctx);
        assert_eq!(a, b);
        assert_eq!(a.n_servers, 3); // 400 clients / 180 per server
        assert!(a.server_energy_total > Joules::ZERO);
        // The ablation genuinely differs from the synchronized model: each
        // async upload bills its own receive window, so the server side is
        // pricier than the slot-amortized closed form.
        let sync = ClosedForm.evaluate(&spec, 400, &ctx);
        assert!(
            a.server_energy_total > sync.server_energy_total,
            "des {} vs closed-form {}",
            a.server_energy_total,
            sync.server_energy_total
        );
    }

    #[test]
    fn cache_is_shared_hit_counted_and_transparent() {
        let spec = spec(10, LossModel::NONE);
        let ctx = SimContext::new(1);
        let cold = ClosedForm.evaluate(&spec, 180, &ctx);
        assert_eq!(ctx.cache().misses(), 1);
        assert_eq!(ctx.cache().hits(), 0);
        let warm = ClosedForm.evaluate(&spec, 180, &ctx);
        assert_eq!(ctx.cache().hits(), 1);
        assert_eq!(cold, warm, "memoized allocation must not change the report");
        // A fresh context (cold cache) still agrees.
        let fresh = ClosedForm.evaluate(&spec, 180, &SimContext::new(1));
        assert_eq!(cold, fresh);
        // Sharing a cache across differently-seeded contexts is sound: the
        // key has no seed component.
        let other = SimContext::with_cache(99, ctx.shared_cache());
        let _ = ClosedForm.evaluate(&spec, 180, &other);
        assert_eq!(ctx.cache().hits(), 2);
        ctx.cache().clear();
        assert!(ctx.cache().is_empty());
        assert_eq!(ctx.cache().hits(), 0);
    }

    #[test]
    fn telemetry_counts_cache_hits_without_changing_results() {
        // The engine_cache invariant, observed through pb-telemetry: a
        // cold sweep is all misses; re-running the same points against the
        // warm cache adds only hits — the miss count must not move.
        let spec = spec(35, LossModel::NONE);
        let ns: Vec<usize> = (100..=2000).step_by(100).collect();

        let tel = Telemetry::metrics_only();
        let ctx = SimContext::with_telemetry(0xF1E1D, tel.clone());
        for &n in &ns {
            let _ = ClosedForm.evaluate(&spec, n, &ctx);
        }
        let cold = tel.snapshot();
        let cold_misses = cold.counter("allocation_cache.misses").expect("misses counted");
        assert!(cold_misses > 0);
        assert_eq!(cold.counter("allocation_cache.hits"), Some(0), "cold run has no hits");

        for &n in &ns {
            let _ = ClosedForm.evaluate(&spec, n, &ctx);
        }
        let warm = tel.snapshot();
        let hits = warm.counter("allocation_cache.hits").unwrap_or(0);
        assert!(hits > 0, "warm run must hit the cache");
        assert_eq!(
            warm.counter("allocation_cache.misses"),
            Some(cold_misses),
            "warm run must add no misses"
        );
        // The mirror agrees with the cache's own counters.
        assert_eq!(hits, ctx.cache().hits());
        assert_eq!(cold_misses, ctx.cache().misses());
        // Every computed allocation contributed its slot occupancies.
        let occ = warm.histogram("allocator.slot_occupancy").expect("occupancy recorded");
        assert!(occ.count > 0);
        assert!(occ.max <= 35.0, "no slot can exceed the cap");
    }

    #[test]
    fn telemetry_does_not_perturb_any_backend() {
        // Acceptance criterion: disabling telemetry reproduces
        // bit-identical simulation results — and so does enabling it.
        let spec = spec(10, LossModel::all());
        for backend in Backend::ALL {
            for n in [1usize, 90, 180, 406] {
                let plain = backend.compare(&spec, n, &SimContext::new(0xBEE));
                let traced = backend.compare(
                    &spec,
                    n,
                    &SimContext::with_telemetry(0xBEE, Telemetry::enabled()),
                );
                assert_eq!(plain.cloud, traced.cloud, "{backend} n = {n}");
                assert_eq!(plain.edge, traced.edge, "{backend} n = {n}");
            }
        }
    }

    #[test]
    fn backend_spans_aggregate_per_backend() {
        let spec = spec(10, LossModel::NONE);
        let tel = Telemetry::metrics_only();
        let ctx = SimContext::with_telemetry(5, tel.clone());
        for backend in Backend::ALL {
            let _ = backend.evaluate(&spec, 180, &ctx);
            let _ = backend.evaluate_edge(&spec, 180, &ctx);
        }
        let snap = tel.snapshot();
        for name in ["engine.cycle.closed_form", "engine.cycle.timeline", "engine.cycle.des"] {
            assert_eq!(snap.histogram(name).expect(name).count, 1, "{name}");
        }
        assert_eq!(snap.histogram("engine.cycle.edge").unwrap().count, 3);
    }

    #[test]
    fn point_streams_are_independent_and_stable() {
        let ctx = SimContext::new(42);
        assert_eq!(ctx.point_seed(0), 42, "point 0 is the master seed");
        assert_ne!(ctx.point_seed(1), ctx.point_seed(2));
        use rand::RngCore;
        let (mut a, mut b) = (ctx.point_rng(5), ctx.point_rng(5));
        assert_eq!(a.next_u64(), b.next_u64());
        // Replicates share the cache but not the stream.
        let r = ctx.replicate(3);
        assert_ne!(r.seed(), ctx.seed());
        assert_eq!(r.seed(), 42u64.wrapping_add(3 * 0x9E37_79B9));
        assert!(Arc::ptr_eq(&ctx.shared_cache(), &r.shared_cache()));
    }

    #[test]
    fn compare_draws_the_same_loss_on_both_sides() {
        let spec = spec(10, LossModel::client_loss_only());
        let ctx = SimContext::new(11);
        for backend in Backend::ALL {
            for n in [100usize, 250, 400] {
                let p = backend.compare(&spec, n, &ctx);
                assert_eq!(p.edge.n_active, p.cloud.n_active, "{backend} n = {n}");
            }
        }
    }

    #[test]
    fn compare_counts_lost_clients_once() {
        // One draw per comparison: `loss.clients_lost` counts each lost
        // client once, not once per side.
        let spec = spec(10, LossModel::all());
        for backend in Backend::ALL {
            let tel = Telemetry::metrics_only();
            let ctx = SimContext::with_telemetry(11, tel.clone())
                .with_fault_plan(FaultPlan::mid_severity());
            let p = backend.compare(&spec, 400, &ctx);
            let lost = (p.n_clients - p.cloud.n_active) as u64;
            assert!(lost > 0, "{backend}: Loss C must strike at this seed");
            assert_eq!(tel.snapshot().counter("loss.clients_lost"), Some(lost), "{backend}");
        }
    }

    #[test]
    fn des_metrics_sum_over_the_point_once() {
        // The event counters are summed over the servers and added once;
        // the gauge and histograms still take one sample per server.
        let spec = spec(35, LossModel::NONE);
        let tel = Telemetry::metrics_only();
        let ctx =
            SimContext::with_telemetry(3, tel.clone()).with_fault_plan(FaultPlan::mid_severity());
        let p = Des.compare(&spec, 20_000, &ctx);
        let snap = tel.snapshot();
        let delivered = p.cloud.faults.delivered;
        assert!(delivered > 0 && delivered < 20_000);
        for name in [
            "des.events.arrival",
            "des.events.transfer_done",
            "des.events.process_done",
            "des.fastpath.replayed",
        ] {
            assert_eq!(snap.counter(name), Some(delivered), "{name}");
        }
        for name in ["des.queue.occupancy", "des.cycle.horizon_s"] {
            let h = snap.histogram(name).expect(name);
            assert_eq!(h.count, p.cloud.n_servers as u64, "{name}");
        }
        assert!(snap.gauge("des.queue_depth.peak").is_some());
    }

    mod props {
        use super::*;
        use crate::faults::{Brownout, OutageWindow, RetryPolicy};
        use proptest::prelude::*;

        /// A probability in [0, 0.5) that is exactly 0 a third of the time.
        fn probability() -> impl Strategy<Value = f64> {
            (0u8..3, 0.0..0.5f64).prop_map(|(k, p)| if k == 0 { 0.0 } else { p })
        }

        /// Fault plans across every knob: no outage, an empty window or
        /// a real one; zero and nonzero probabilities; retry policies.
        fn fault_plan() -> impl Strategy<Value = FaultPlan> {
            let outage = (0u8..3, 0.0..300.0f64, 1.0..120.0f64).prop_map(|(k, t, d)| match k {
                0 => None,
                1 => Some(OutageWindow::new(Seconds(t), Seconds(t))),
                _ => Some(OutageWindow::new(Seconds(t), Seconds(t + d))),
            });
            let brownout = proptest::option::of(probability())
                .prop_map(|p| p.map(|probability| Brownout { probability }));
            let retry = (0u32..5, 1.0..30.0f64, 1.0..3.0f64, 30.0..240.0f64, 0.0..0.5f64).prop_map(
                |(max_retries, base, factor, max, jitter)| RetryPolicy {
                    max_retries,
                    base_backoff: Seconds(base),
                    backoff_factor: factor,
                    max_backoff: Seconds(max),
                    jitter,
                },
            );
            let slowdown =
                (proptest::bool::ANY, 1.0..1.5f64).prop_map(|(slow, f)| if slow { f } else { 1.0 });
            (outage, probability(), slowdown, brownout, probability(), retry).prop_map(
                |(outage, packet_loss, slowdown, brownout, sensor_dropout, retry)| FaultPlan {
                    outage,
                    packet_loss,
                    slowdown,
                    brownout,
                    sensor_dropout,
                    retry,
                },
            )
        }

        fn loss_model() -> impl Strategy<Value = LossModel> {
            (0usize..5).prop_map(|k| {
                [
                    LossModel::NONE,
                    LossModel::saturation_only(),
                    LossModel::transfer_only(),
                    LossModel::client_loss_only(),
                    LossModel::all(),
                ][k]
            })
        }

        proptest! {
            #![proptest_config(proptest::test_runner::Config::with_cases(48))]
            /// One draw serving both sides prices exactly what two
            /// separate draws price: every backend, every generated plan
            /// and loss model, at thread caps 1 and 2.
            #[test]
            fn compare_equals_separate_edge_and_cloud_calls(
                plan in fault_plan(),
                loss in loss_model(),
                n in 1usize..1500,
                cap in 1usize..40,
                seed in 0u64..1_000_000,
            ) {
                let spec = spec(cap, loss);
                for backend in Backend::ALL {
                    for threads in [1, 2] {
                        let (joint, edge, cloud) = rayon::pool::with_thread_cap(threads, || {
                            let ctx = || SimContext::new(seed).with_fault_plan(plan);
                            (
                                backend.compare(&spec, n, &ctx()),
                                backend.evaluate_edge(&spec, n, &ctx()),
                                backend.evaluate(&spec, n, &ctx()),
                            )
                        });
                        let at = format!("{backend}, {threads} threads, plan {plan}");
                        prop_assert_eq!(format!("{:?}", joint.edge), format!("{edge:?}"), "{}", at);
                        prop_assert_eq!(format!("{:?}", joint.cloud), format!("{cloud:?}"), "{}", at);
                        prop_assert_eq!(joint.n_clients, n);
                    }
                }
            }
        }
    }

    #[test]
    fn backend_round_trips_names() {
        for b in Backend::ALL {
            assert_eq!(b.name().parse::<Backend>().unwrap(), b);
        }
        assert_eq!("ASYNC".parse::<Backend>().unwrap(), Backend::Des);
        assert_eq!("analytic".parse::<Backend>().unwrap(), Backend::ClosedForm);
        assert!("fpga".parse::<Backend>().is_err());
        assert_eq!(Backend::default(), Backend::ClosedForm);
    }

    #[test]
    fn paper_headlines_reproduce_through_the_engine() {
        // 322 J edge side at the paper's cap-10 setting, via both
        // synchronized backends.
        let s10 = spec(10, LossModel::NONE);
        let ctx = SimContext::new(0xF1E1D);
        for backend in [Backend::ClosedForm, Backend::EventTimeline] {
            let r = backend.evaluate(&s10, 180, &ctx);
            assert!(
                (r.edge_energy_per_client - Joules(322.0)).abs() < Joules(0.5),
                "{backend}: {}",
                r.edge_energy_per_client
            );
            assert!((r.server_energy_per_client - Joules(117.0)).abs() < Joules(0.5));
        }
    }
}
