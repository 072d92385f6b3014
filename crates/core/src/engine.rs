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
use crate::des::{simulate_async_cycle_memoized, DesTrace, ShapeMemo};
use crate::faults::{self, FaultPlan, FAULT_GAMMA};
use crate::loss::LossModel;
use crate::scenario::presets;
use crate::server::ServerModel;
use crate::simulation::{edge_cycle_energy, servers_cycle_energy, CycleReport};
use crate::sweep::ComparisonPoint;
use crate::timeline::{clients_energy_from_timelines, servers_energy_from_timelines};
use crate::ServiceKind;
use pb_telemetry::{Counter, Histogram, Telemetry};
use pb_units::Joules;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

    /// This context with `plan` injected into every evaluation. The
    /// structural [`FaultPlan::NONE`] keeps the exact fault-free paths.
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
/// `evaluate` is the only required method; `evaluate_edge` and
/// [`compare`](CycleEngine::compare) are shared across backends because
/// the pure-edge scenario has no server to model and the comparison
/// semantics (equal loss draws on both sides) must not vary by backend.
pub trait CycleEngine: Send + Sync {
    /// Prices one cycle of the **edge+cloud** scenario at `n_clients`.
    fn evaluate(&self, spec: &ScenarioSpec, n_clients: usize, ctx: &SimContext) -> CycleReport;

    /// Prices one cycle of the **edge** scenario at `n_clients`: every
    /// client runs the service locally, no servers exist, and only
    /// Loss C applies.
    fn evaluate_edge(
        &self,
        spec: &ScenarioSpec,
        n_clients: usize,
        ctx: &SimContext,
    ) -> CycleReport {
        if !ctx.fault_plan().is_none() {
            return faults::edge_with_faults(spec, n_clients, ctx);
        }
        let _span = ctx.telemetry().span("engine.cycle.edge");
        let mut rng = ctx.point_rng(n_clients as u64);
        let active = draw_active(&spec.loss, n_clients, &mut rng);
        record_client_loss(ctx, n_clients, active);
        let edge_total = spec.edge_client.cycle_energy() * active as f64;
        CycleReport::from_parts(n_clients, active, 0, edge_total, Joules::ZERO)
    }

    /// Evaluates both scenarios at `n_clients` from the *same* derived
    /// RNG stream, so a random client loss strikes both equally and the
    /// comparison is apples-to-apples (the Figure 7 green/blue regions).
    fn compare(&self, spec: &ScenarioSpec, n_clients: usize, ctx: &SimContext) -> ComparisonPoint {
        ComparisonPoint {
            n_clients,
            edge: self.evaluate_edge(spec, n_clients, ctx),
            cloud: self.evaluate(spec, n_clients, ctx),
        }
    }
}

/// Loss C draw shared by every backend: how many clients participate.
pub(crate) fn draw_active<R: Rng + ?Sized>(
    loss: &LossModel,
    n_clients: usize,
    rng: &mut R,
) -> usize {
    let lost = loss.client_loss.map_or(0, |l| l.draw(n_clients, rng));
    n_clients - lost
}

/// Counts Loss-C casualties into `loss.clients_lost` (no-op when the
/// context's telemetry is disabled or nobody was lost).
pub(crate) fn record_client_loss(ctx: &SimContext, n_clients: usize, active: usize) {
    if n_clients > active {
        ctx.telemetry().add_to_counter("loss.clients_lost", (n_clients - active) as u64);
    }
}

/// The closed-form backend: the per-slot algebra of
/// [`crate::simulation`]. Fastest; exact for the paper's synchronized
/// slot model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClosedForm;

impl CycleEngine for ClosedForm {
    fn evaluate(&self, spec: &ScenarioSpec, n_clients: usize, ctx: &SimContext) -> CycleReport {
        if !ctx.fault_plan().is_none() {
            return faults::closed_form_with_faults(spec, n_clients, ctx);
        }
        let _span = ctx.telemetry().span("engine.cycle.closed_form");
        let mut rng = ctx.point_rng(n_clients as u64);
        let active = draw_active(&spec.loss, n_clients, &mut rng);
        record_client_loss(ctx, n_clients, active);
        let allocation = ctx.cache().get_or_allocate(
            active,
            &spec.server,
            spec.policy,
            spec.loss.transfer.as_ref(),
        );
        let server_total = servers_cycle_energy(&spec.server, &allocation, &spec.loss);
        let edge_total = edge_cycle_energy(&spec.cloud_client, &allocation, &spec.loss);
        CycleReport::from_parts(n_clients, active, allocation.n_servers(), edge_total, server_total)
    }
}

/// The event-timeline backend: builds explicit power/dwell state
/// machines ([`crate::timeline`]) for every server and client and
/// integrates them. Slower than [`ClosedForm`] but validates it — the
/// two must agree to numerical precision on the same allocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventTimeline;

impl CycleEngine for EventTimeline {
    fn evaluate(&self, spec: &ScenarioSpec, n_clients: usize, ctx: &SimContext) -> CycleReport {
        if !ctx.fault_plan().is_none() {
            return faults::timeline_with_faults(spec, n_clients, ctx);
        }
        let _span = ctx.telemetry().span("engine.cycle.timeline");
        let mut rng = ctx.point_rng(n_clients as u64);
        let active = draw_active(&spec.loss, n_clients, &mut rng);
        record_client_loss(ctx, n_clients, active);
        let allocation = ctx.cache().get_or_allocate(
            active,
            &spec.server,
            spec.policy,
            spec.loss.transfer.as_ref(),
        );
        let server_total = servers_energy_from_timelines(&spec.server, &allocation, &spec.loss);
        let edge_total = clients_energy_from_timelines(&spec.cloud_client, &allocation, &spec.loss);
        CycleReport::from_parts(n_clients, active, allocation.n_servers(), edge_total, server_total)
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Des;

impl CycleEngine for Des {
    fn evaluate(&self, spec: &ScenarioSpec, n_clients: usize, ctx: &SimContext) -> CycleReport {
        if !ctx.fault_plan().is_none() {
            return faults::des_with_faults(spec, n_clients, ctx);
        }
        let _span = ctx.telemetry().span("engine.cycle.des");
        let mut rng = ctx.point_rng(n_clients as u64);
        let active = draw_active(&spec.loss, n_clients, &mut rng);
        record_client_loss(ctx, n_clients, active);
        let allocation = ctx.cache().get_or_allocate(
            active,
            &spec.server,
            spec.policy,
            spec.loss.transfer.as_ref(),
        );
        let point_seed = ctx.point_seed(n_clients as u64);
        // Each server owns an independent salted RNG stream, so the
        // per-server simulations parallelize; folding the reports in
        // server order keeps the energy sum bit-identical to the serial
        // loop regardless of the worker count. Jobs carry the global
        // index of their first client so causal trace ids (derived from
        // the point seed and the global index) are thread-count-stable.
        let mut jobs: Vec<(usize, usize, usize)> = Vec::with_capacity(allocation.n_servers());
        let mut base = 0usize;
        for (s, sa) in allocation.servers().enumerate() {
            jobs.push((s, base, sa.n_clients()));
            base += sa.n_clients();
        }
        let telemetry = ctx.telemetry();
        let causal = telemetry.tracing_active();
        let deliver_cost = spec.cloud_client.cycle_energy();
        // Uniform populations leave at most two distinct server shapes
        // after the RLE allocation; fold each shape's repeated-addition
        // constants once and share them across the fan-out.
        let memo = ShapeMemo::for_server(&spec.server, jobs.iter().map(|&(_, _, k)| k));
        let reports: Vec<Joules> = jobs
            .par_iter()
            .map(|&(s, base, k)| {
                let mut server_rng =
                    StdRng::seed_from_u64(point_seed ^ (s as u64 + 1).wrapping_mul(GOLDEN_GAMMA));
                let tr = DesTrace {
                    point_seed,
                    base,
                    deliver_energy_j: deliver_cost.value(),
                    retry_energy_j: 0.0,
                    fallback_energy_j: 0.0,
                };
                simulate_async_cycle_memoized(
                    k,
                    &spec.server,
                    &mut server_rng,
                    telemetry,
                    causal.then_some(&tr),
                    Some(&memo),
                )
                .server_energy
            })
            .collect();
        let mut server_total = Joules::ZERO;
        for e in reports {
            server_total += e;
        }
        // Unsynchronized uploads see no slot contention: each client pays
        // its nominal cycle, penalty-free.
        let edge_total = spec.cloud_client.cycle_energy() * active as f64;
        CycleReport::from_parts(n_clients, active, allocation.n_servers(), edge_total, server_total)
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
    fn evaluate(&self, spec: &ScenarioSpec, n_clients: usize, ctx: &SimContext) -> CycleReport {
        match self {
            Backend::ClosedForm => ClosedForm.evaluate(spec, n_clients, ctx),
            Backend::EventTimeline => EventTimeline.evaluate(spec, n_clients, ctx),
            Backend::Des => Des.evaluate(spec, n_clients, ctx),
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
