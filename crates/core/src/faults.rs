//! Deterministic fault injection for the cycle engines.
//!
//! The paper's three loss models (Section VI-C) are *static* per-cycle
//! draws. A production orchestrator must also survive dynamic faults:
//! cloud outage windows, flaky links, degraded servers, battery
//! brown-outs and dead sensors. This module defines a seedable
//! [`FaultPlan`] carried by [`SimContext`] and threaded through all
//! three backends:
//!
//! * **closed form** — expected-value approximation: the first-attempt
//!   failure probability combines the outage's cycle fraction with the
//!   packet-loss probability, and retry/fallback counts follow the
//!   geometric retry series;
//! * **event timeline** — exact injection: every client's transfer is
//!   attempted at its slot's start time, checked against the outage
//!   window and the per-transfer loss draw, and retried on the jittered
//!   exponential backoff schedule of [`RetryPolicy`];
//! * **DES** — exact event-level injection at each client's random
//!   arrival time (see [`crate::des::simulate_async_cycle_faulted`]).
//!
//! The graceful-degradation rule is shared: a client whose radio is
//! browned out, or whose transfer exhausts the retry budget, falls back
//! to **edge CNN inference** — the sample is still processed, and the
//! energy ledger charges the edge-client cycle cost instead of the
//! upload cost. Only a sensor dropout (nothing was recorded) loses the
//! sample. Every backend therefore preserves
//! `delivered + fallbacks + sensor_dropouts == active`.
//!
//! Semantics of the individual faults:
//!
//! * an **outage window** makes every transfer attempt whose start time
//!   falls inside `[start, end)` fail (no RNG draw);
//! * **packet loss** fails an attempt outside the outage with
//!   probability `packet_loss`;
//! * a **server slow-down** stretches the server's receive and process
//!   durations by a factor ≥ 1, shrinking its slot count — provisioning
//!   and server energy both see the degraded machine;
//! * a **brown-out** kills a client's *radio* for the cycle (the battery
//!   cannot sustain the transmit burst but still powers local compute),
//!   forcing an immediate edge fallback with no retries;
//! * a **sensor dropout** means nothing was recorded: the client still
//!   runs its routine (energy unchanged) but the sample is lost.
//!
//! Determinism: all fault draws come from a dedicated stream
//! ([`SimContext::fault_rng`], the point seed XOR a dedicated gamma), so
//! the same seed produces bit-identical results at any thread count,
//! and a plan with zero probabilities reproduces the fault-free numbers.

use std::fmt;
use std::str::FromStr;

use crate::client::ClientModel;
use crate::columns::{publish_columns, CountingRng, FleetColumns};
use crate::engine::{draw_active, record_client_loss, ScenarioSpec, SimContext, GOLDEN_GAMMA};
use crate::server::ServerModel;
use crate::simulation::{edge_cycle_energy, servers_cycle_energy, CycleReport};
use crate::timeline::{client_timeline, servers_energy_from_timelines, slot_start_times};
use pb_energy::battery::Battery;
use pb_telemetry::trace::{trace_id, SpanCtx, HOP_TERMINAL};
use pb_telemetry::Telemetry;
use pb_units::{Joules, Seconds, Watts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// XOR'd into a point seed to derive its independent fault stream
/// (disjoint from the loss-draw stream by construction).
pub(crate) const FAULT_GAMMA: u64 = 0xA076_1D64_78BD_642F;

/// A cloud-unreachability window within the cycle, in seconds.
/// Half-open: an attempt at `t` fails iff `start ≤ t < end`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OutageWindow {
    /// Window start (seconds from cycle start).
    pub start: Seconds,
    /// Window end (exclusive).
    pub end: Seconds,
}

impl OutageWindow {
    /// Builds a window, validating `0 ≤ start ≤ end`.
    pub fn new(start: Seconds, end: Seconds) -> Self {
        assert!(start.value() >= 0.0, "outage start must be non-negative");
        assert!(end >= start, "outage end must not precede its start");
        OutageWindow { start, end }
    }

    /// True when a transfer attempt at `t` hits the outage.
    pub fn contains(&self, t: Seconds) -> bool {
        t >= self.start && t < self.end
    }

    /// Window length.
    pub fn duration(&self) -> Seconds {
        self.end - self.start
    }
}

/// Bounded-retry policy with exponential backoff and deterministic
/// jitter drawn from the simulation's fault stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Retries allowed after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Seconds,
    /// Multiplier applied per further retry.
    pub backoff_factor: f64,
    /// Ceiling on any single backoff (the retry timeout).
    pub max_backoff: Seconds,
    /// Jitter fraction in `[0, 1)`: each backoff is scaled by a factor
    /// uniform in `[1 − jitter, 1 + jitter]`. Zero consumes no RNG.
    pub jitter: f64,
}

impl RetryPolicy {
    /// The default policy: 3 retries, 10 s base, ×2 growth, 60 s cap,
    /// ±10 % jitter.
    pub const DEFAULT: RetryPolicy = RetryPolicy {
        max_retries: 3,
        base_backoff: Seconds(10.0),
        backoff_factor: 2.0,
        max_backoff: Seconds(60.0),
        jitter: 0.1,
    };

    /// The jittered backoff before retry number `retry` (1-based).
    pub fn backoff<R: Rng + ?Sized>(&self, retry: u32, rng: &mut R) -> Seconds {
        assert!(retry >= 1, "retries are numbered from 1");
        let base = (self.base_backoff.value() * self.backoff_factor.powi(retry as i32 - 1))
            .min(self.max_backoff.value());
        if self.jitter > 0.0 {
            Seconds(base * (1.0 + self.jitter * (2.0 * rng.gen::<f64>() - 1.0)))
        } else {
            Seconds(base)
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// Per-cycle probability that a client's radio browns out.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Brownout {
    /// Probability that a given client browns out this cycle.
    pub probability: f64,
}

impl Brownout {
    /// Derives the brown-out probability from a battery's headroom for a
    /// transmit burst of `load` over `dt` (see [`Battery::brownout_risk`]).
    pub fn from_battery(battery: &Battery, load: Watts, dt: Seconds) -> Self {
        Brownout { probability: battery.brownout_risk(load, dt) }
    }
}

/// A deterministic, seedable fault plan for one simulation run.
///
/// Carried by [`SimContext`] (see [`SimContext::with_fault_plan`]); the
/// structural [`FaultPlan::NONE`] takes the exact fault-free code path
/// in every backend, reproducing pre-fault results bit for bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Cloud-outage window, if any.
    pub outage: Option<OutageWindow>,
    /// Per-transfer-attempt packet-loss probability in `[0, 1]`.
    pub packet_loss: f64,
    /// Server slow-down factor ≥ 1 (stretches receive and process
    /// durations, shrinking per-server capacity).
    pub slowdown: f64,
    /// Battery brown-out events, if any.
    pub brownout: Option<Brownout>,
    /// Per-client probability that its sensor recorded nothing.
    pub sensor_dropout: f64,
    /// Retry policy for failed transfers.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// The fault-free plan (every backend takes its pre-fault path).
    pub const NONE: FaultPlan = FaultPlan {
        outage: None,
        packet_loss: 0.0,
        slowdown: 1.0,
        brownout: None,
        sensor_dropout: 0.0,
        retry: RetryPolicy::DEFAULT,
    };

    /// A mid-severity plan for smoke tests and the CLI `--faults mid`
    /// shorthand: a 60 s outage, 5 % packet loss, 10 % server slow-down,
    /// 2 % brown-outs and 2 % sensor dropouts under the default retries.
    pub fn mid_severity() -> Self {
        FaultPlan {
            outage: Some(OutageWindow::new(Seconds(60.0), Seconds(120.0))),
            packet_loss: 0.05,
            slowdown: 1.1,
            brownout: Some(Brownout { probability: 0.02 }),
            sensor_dropout: 0.02,
            retry: RetryPolicy::DEFAULT,
        }
    }

    /// Structurally equal to [`FaultPlan::NONE`]? Backends use this to
    /// select the exact fault-free code path. A plan with zero
    /// probabilities but, say, a customized retry policy still runs the
    /// faulted path — and must produce the same energies (tested).
    pub fn is_none(&self) -> bool {
        *self == Self::NONE
    }

    /// A cache-key fingerprint of the plan: 0 for [`FaultPlan::NONE`],
    /// a nonzero FNV-1a hash of every field otherwise, so allocations
    /// cached for one plan are never served for another (the slow-down
    /// factor changes the allocation shape).
    pub fn fingerprint(&self) -> u64 {
        if self.is_none() {
            return 0;
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0100_0000_01b3);
        };
        match self.outage {
            None => mix(0),
            Some(w) => {
                mix(1);
                mix(w.start.value().to_bits());
                mix(w.end.value().to_bits());
            }
        }
        mix(self.packet_loss.to_bits());
        mix(self.slowdown.to_bits());
        match self.brownout {
            None => mix(0),
            Some(b) => {
                mix(1);
                mix(b.probability.to_bits());
            }
        }
        mix(self.sensor_dropout.to_bits());
        mix(self.retry.max_retries as u64);
        mix(self.retry.base_backoff.value().to_bits());
        mix(self.retry.backoff_factor.to_bits());
        mix(self.retry.max_backoff.value().to_bits());
        mix(self.retry.jitter.to_bits());
        h | 1
    }

    /// The server as the plan degrades it: receive and process durations
    /// stretched by the slow-down factor. With factor 1 this is the
    /// input server, bit for bit.
    pub fn effective_server(&self, server: &ServerModel) -> ServerModel {
        assert!(self.slowdown >= 1.0, "slow-down factor must be ≥ 1");
        let eff = ServerModel {
            receive_duration: server.receive_duration * self.slowdown,
            process_duration: server.process_duration * self.slowdown,
            ..server.clone()
        };
        assert!(
            eff.n_slots(None) >= 1,
            "slow-down factor {} leaves no usable slot in the cycle",
            self.slowdown
        );
        eff
    }

    /// Probability that a single transfer attempt fails, combining the
    /// outage's fraction of the cycle with the packet-loss probability
    /// (the closed-form backend's expected-value approximation).
    pub fn first_attempt_failure(&self, cycle: Seconds) -> f64 {
        let p_out = self.outage.map_or(0.0, |w| {
            let overlap = (w.end.value().min(cycle.value()) - w.start.value().max(0.0)).max(0.0);
            (overlap / cycle.value()).clamp(0.0, 1.0)
        });
        let p_loss = self.packet_loss.clamp(0.0, 1.0);
        p_out + (1.0 - p_out) * p_loss
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            return f.write_str("none");
        }
        let mut parts: Vec<String> = Vec::new();
        if let Some(w) = self.outage {
            parts.push(format!("outage={}..{}", w.start.value(), w.end.value()));
        }
        if self.packet_loss > 0.0 {
            parts.push(format!("loss={}", self.packet_loss));
        }
        if self.slowdown != 1.0 {
            parts.push(format!("slowdown={}", self.slowdown));
        }
        if let Some(b) = self.brownout {
            parts.push(format!("brownout={}", b.probability));
        }
        if self.sensor_dropout > 0.0 {
            parts.push(format!("dropout={}", self.sensor_dropout));
        }
        parts.push(format!("retries={}", self.retry.max_retries));
        // Non-default retry knobs must survive a Display → FromStr
        // round trip.
        let d = RetryPolicy::DEFAULT;
        if self.retry.base_backoff != d.base_backoff {
            parts.push(format!("backoff={}", self.retry.base_backoff.value()));
        }
        if self.retry.backoff_factor != d.backoff_factor {
            parts.push(format!("factor={}", self.retry.backoff_factor));
        }
        if self.retry.max_backoff != d.max_backoff {
            parts.push(format!("max-backoff={}", self.retry.max_backoff.value()));
        }
        if self.retry.jitter != d.jitter {
            parts.push(format!("jitter={}", self.retry.jitter));
        }
        f.write_str(&parts.join(","))
    }
}

impl FromStr for FaultPlan {
    type Err = String;

    /// Parses a comma-separated spec, e.g.
    /// `outage=60..120,loss=0.05,slowdown=1.1,brownout=0.02,dropout=0.02,retries=3`.
    /// Retry knobs: `backoff=S`, `factor=F`, `max-backoff=S`, `jitter=J`.
    /// The shorthands `none` and `mid` name the canonical plans.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "none" => return Ok(FaultPlan::NONE),
            "mid" => return Ok(FaultPlan::mid_severity()),
            _ => {}
        }
        fn num(key: &str, raw: &str) -> Result<f64, String> {
            raw.parse::<f64>().map_err(|_| format!("{key}: '{raw}' is not a number"))
        }
        fn prob(key: &str, raw: &str) -> Result<f64, String> {
            let p = num(key, raw)?;
            if (0.0..=1.0).contains(&p) {
                Ok(p)
            } else {
                Err(format!("{key}: probability '{raw}' must be in [0, 1]"))
            }
        }
        let mut plan = FaultPlan::NONE;
        for token in s.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            let (key, value) = token.split_once('=').ok_or_else(|| {
                format!("fault token '{token}' is not key=value (or 'mid'/'none')")
            })?;
            match key {
                "outage" => {
                    let (a, b) = value
                        .split_once("..")
                        .ok_or_else(|| format!("outage: '{value}' must be START..END seconds"))?;
                    let (start, end) = (num("outage", a)?, num("outage", b)?);
                    if !(0.0 <= start && start <= end) {
                        return Err(format!("outage: need 0 ≤ start ≤ end, got '{value}'"));
                    }
                    plan.outage = Some(OutageWindow::new(Seconds(start), Seconds(end)));
                }
                "loss" => plan.packet_loss = prob(key, value)?,
                "slowdown" => {
                    let f = num(key, value)?;
                    if f < 1.0 {
                        return Err(format!("slowdown: factor '{value}' must be ≥ 1"));
                    }
                    plan.slowdown = f;
                }
                "brownout" => plan.brownout = Some(Brownout { probability: prob(key, value)? }),
                "dropout" => plan.sensor_dropout = prob(key, value)?,
                "retries" => {
                    plan.retry.max_retries =
                        value.parse().map_err(|_| format!("retries: '{value}' is not a count"))?;
                }
                "backoff" => plan.retry.base_backoff = Seconds(num(key, value)?),
                "factor" => plan.retry.backoff_factor = num(key, value)?,
                "max-backoff" => plan.retry.max_backoff = Seconds(num(key, value)?),
                "jitter" => plan.retry.jitter = prob(key, value)?,
                other => return Err(format!("unknown fault key '{other}'")),
            }
        }
        Ok(plan)
    }
}

/// Fault/retry/fallback accounting of one cycle report. All zero when
/// no fault plan is active. Every backend preserves
/// `delivered + fallbacks + sensor_dropouts == n_active` on the
/// edge+cloud side — fallback never loses a sample.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transfer attempts made by uploading clients (first tries + retries).
    pub attempts: u64,
    /// Attempts beyond each uploader's first.
    pub retries: u64,
    /// Clients that fell back to edge inference (radio brown-outs plus
    /// uploaders whose retry budget ran out).
    pub fallbacks: u64,
    /// Clients whose radio browned out (a subset of `fallbacks`).
    pub brownouts: u64,
    /// Clients whose sensor recorded nothing (the sample is lost).
    pub sensor_dropouts: u64,
    /// Samples that reached the cloud.
    pub delivered: u64,
}

impl FaultStats {
    /// Samples processed somewhere — delivered to the cloud or inferred
    /// at the edge after a fallback.
    pub fn samples_processed(&self) -> u64 {
        self.delivered + self.fallbacks
    }
}

/// How a client participates in a faulted cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientClass {
    /// Attempts the upload (and may retry or fall back).
    Uploader,
    /// Radio browned out: immediate edge fallback, no attempts.
    Brownout,
    /// Sensor recorded nothing: runs its routine, uploads nothing.
    SensorDropout,
}

/// Energy of one extra transfer attempt: the transmit action re-runs,
/// displacing sleep time — `(tx_power − sleep_power) · tx_duration`.
pub(crate) fn retry_energy(client: &ClientModel) -> Joules {
    match client.transfer_action {
        Some(i) => {
            let tx = &client.actions[i];
            (tx.power - client.sleep_power) * tx.duration
        }
        None => Joules::ZERO,
    }
}

/// Causal-trace context for one uploader's transfer resolution: the
/// client's global identity plus the per-hop energy attributions only
/// the call site knows. `None` keeps [`exact_transfer`]'s event stream
/// byte-identical to the untagged historical shape; the fault draws are
/// never affected either way.
pub(crate) struct TransferTrace {
    /// Global client index (bit-stable across thread counts).
    pub client: u64,
    /// The client's trace id ([`pb_telemetry::trace::trace_id`]).
    pub trace: u64,
    /// Energy charged per extra attempt, attributed to `fault.retry`.
    pub retry_energy_j: f64,
    /// Energy of the edge fallback, attributed to `fault.fallback`.
    pub fallback_energy_j: f64,
}

/// Exact per-client transfer resolution: attempt at `t0`, fail on outage
/// or packet loss, retry on the backoff schedule. Returns the attempt
/// count and the successful attempt's start time (`None` = budget
/// exhausted, the client falls back to edge inference). Emits
/// `fault.{outage,packet_drop,retry,fallback}` trace events when the
/// telemetry sink records events; with a [`TransferTrace`] each event
/// additionally carries the causal span chain (attempt *k* is hop *k*,
/// parented on hop *k−1*) and the fallback carries its root cause,
/// attempt count and energy attribution.
pub(crate) fn exact_transfer<R: Rng + ?Sized>(
    plan: &FaultPlan,
    t0: Seconds,
    rng: &mut R,
    telemetry: &Telemetry,
    causal: Option<&TransferTrace>,
) -> (u64, Option<Seconds>) {
    let trace = telemetry.events_recording();
    let mut t = t0.value();
    let max = plan.retry.max_retries;
    let mut saw_outage = false;
    let mut saw_drop = false;
    for attempt in 0..=max {
        let in_outage = plan.outage.is_some_and(|w| w.contains(Seconds(t)));
        let dropped = !in_outage && plan.packet_loss > 0.0 && rng.gen::<f64>() < plan.packet_loss;
        if !in_outage && !dropped {
            return (u64::from(attempt) + 1, Some(Seconds(t)));
        }
        saw_outage |= in_outage;
        saw_drop |= dropped;
        if trace {
            let kind = if in_outage { "fault.outage" } else { "fault.packet_drop" };
            let number = ("attempt", (attempt as usize + 1).into());
            match causal {
                None => telemetry.event(t, kind, [number]),
                Some(tc) => {
                    let fields = [number, ("client", tc.client.into())];
                    telemetry.trace_event(t, kind, SpanCtx::attempt(tc.trace, attempt + 1), fields);
                }
            }
        }
        if attempt == max {
            break;
        }
        t += plan.retry.backoff(attempt + 1, rng).value();
        if trace {
            let number = ("attempt", (attempt as usize + 2).into());
            match causal {
                None => telemetry.event(t, "fault.retry", [number]),
                Some(tc) => {
                    let fields = [
                        number,
                        ("client", tc.client.into()),
                        ("energy_j", tc.retry_energy_j.into()),
                    ];
                    let span = SpanCtx::attempt(tc.trace, attempt + 2);
                    telemetry.trace_event(t, "fault.retry", span, fields);
                }
            }
        }
    }
    if trace {
        let start = ("t0", t0.value().into());
        match causal {
            None => telemetry.event(t, "fault.fallback", [start]),
            Some(tc) => {
                let cause = match (saw_outage, saw_drop) {
                    (true, true) => "mixed",
                    (true, false) => "outage",
                    _ => "packet-loss",
                };
                let fields = [
                    start,
                    ("client", tc.client.into()),
                    ("attempts", u64::from(max + 1).into()),
                    ("cause", cause.into()),
                    ("energy_j", tc.fallback_energy_j.into()),
                ];
                let span = SpanCtx::attempt(tc.trace, max + 1).child(HOP_TERMINAL);
                telemetry.trace_event(t, "fault.fallback", span, fields);
            }
        }
    }
    (u64::from(max) + 1, None)
}

/// Emits the root `trace.sample` span for client `client` of trace
/// `trace` (`class` is the drawn [`ClientClass`] in lowercase).
pub(crate) fn emit_sample(
    telemetry: &Telemetry,
    t: f64,
    trace: u64,
    client: u64,
    class: &'static str,
) {
    telemetry.trace_event(
        t,
        "trace.sample",
        SpanCtx::root(trace),
        vec![("client", client.into()), ("class", class.into())],
    );
}

/// Emits the terminal `trace.delivered` span: the sample reached the
/// cloud on attempt `attempts`, costing `energy_j` on the client.
pub(crate) fn emit_delivered(
    telemetry: &Telemetry,
    t: f64,
    trace: u64,
    client: u64,
    attempts: u64,
    energy_j: f64,
) {
    let span = SpanCtx::attempt(trace, attempts as u32).child(HOP_TERMINAL);
    telemetry.trace_event(
        t,
        "trace.delivered",
        span,
        vec![
            ("client", client.into()),
            ("attempt", attempts.into()),
            ("energy_j", energy_j.into()),
        ],
    );
}

/// Emits the terminal `fault.fallback` span for a browned-out client:
/// no attempts were possible, the cause is the brown-out itself.
pub(crate) fn emit_brownout_fallback(
    telemetry: &Telemetry,
    t: f64,
    trace: u64,
    client: u64,
    energy_j: f64,
) {
    telemetry.trace_event(
        t,
        "fault.fallback",
        SpanCtx::root(trace).child(HOP_TERMINAL),
        vec![
            ("client", client.into()),
            ("attempts", 0u64.into()),
            ("cause", "brownout".into()),
            ("energy_j", energy_j.into()),
        ],
    );
}

/// The untagged `fault.fallback` for a browned-out client, emitted
/// whenever events are recorded without causal tags: every brown-out is
/// a flight-recorder dump trigger, traced or not. Same `t0`/`attempts`/
/// `cause` fields as the tagged form, without the span and attribution.
pub(crate) fn emit_untagged_brownout_fallback(telemetry: &Telemetry, t: f64) {
    telemetry.event(
        t,
        "fault.fallback",
        vec![("t0", t.into()), ("attempts", 0u64.into()), ("cause", "brownout".into())],
    );
}

/// Mirrors a cycle's fault accounting into the `fault.*` counters.
pub(crate) fn publish_stats(telemetry: &Telemetry, stats: &FaultStats) {
    if !telemetry.is_enabled() {
        return;
    }
    telemetry.add_to_counter("fault.attempts", stats.attempts);
    telemetry.add_to_counter("fault.retries", stats.retries);
    telemetry.add_to_counter("fault.fallbacks", stats.fallbacks);
    telemetry.add_to_counter("fault.brownouts", stats.brownouts);
    telemetry.add_to_counter("fault.sensor_dropouts", stats.sensor_dropouts);
    telemetry.add_to_counter("fault.delivered", stats.delivered);
}

/// Shared faulted-cycle preamble: loss-C draw, the columnar population
/// state, the degraded server and its (fingerprint-keyed) allocation.
struct FaultedSetup {
    active: usize,
    columns: FleetColumns,
    brownouts: usize,
    sensor_dropouts: usize,
    eff: ServerModel,
    allocation: std::sync::Arc<crate::allocator::Allocation>,
    frng: StdRng,
}

fn setup(
    spec: &ScenarioSpec,
    n_clients: usize,
    ctx: &SimContext,
    plan: &FaultPlan,
) -> FaultedSetup {
    let mut rng = ctx.point_rng(n_clients as u64);
    let active = draw_active(&spec.loss, n_clients, &mut rng);
    record_client_loss(ctx, n_clients, active);
    let mut frng = ctx.fault_rng(n_clients as u64);
    let columns = FleetColumns::draw(plan, active, &mut frng);
    let (brownouts, sensor_dropouts) = columns.class_counts();
    publish_columns(ctx.telemetry(), &columns);
    let eff = plan.effective_server(&spec.server);
    let allocation = ctx.cache().get_or_allocate_for(
        active,
        &eff,
        spec.policy,
        spec.loss.transfer.as_ref(),
        plan.fingerprint(),
    );
    FaultedSetup { active, columns, brownouts, sensor_dropouts, eff, allocation, frng }
}

/// Closed-form backend under a fault plan: exact brown-out / sensor
/// draws, expected-value retry and fallback mass from the geometric
/// retry series. Server provisioning is pre-fault: the server cannot
/// know which clients will fail, so it runs its full slot schedule.
pub(crate) fn closed_form_with_faults(
    spec: &ScenarioSpec,
    n_clients: usize,
    ctx: &SimContext,
) -> CycleReport {
    let _span = ctx.telemetry().span("engine.cycle.closed_form");
    let plan = ctx.fault_plan();
    let s = setup(spec, n_clients, ctx, plan);
    let uploaders = s.active - s.brownouts - s.sensor_dropouts;

    let server_total = servers_cycle_energy(&s.eff, &s.allocation, &spec.loss);
    let base_cloud = edge_cycle_energy(&spec.cloud_client, &s.allocation, &spec.loss);
    let per_cloud = if s.active > 0 { base_cloud / s.active as f64 } else { Joules::ZERO };

    let p1 = plan.first_attempt_failure(spec.server.cycle);
    let max = plan.retry.max_retries;
    let p_exhaust = p1.powi(max as i32 + 1);
    let expected_retries_per_uploader: f64 = (1..=max).map(|k| p1.powi(k as i32)).sum();
    let tx_fallbacks = uploaders as f64 * p_exhaust;
    let total_retries = uploaders as f64 * expected_retries_per_uploader;
    let fallback_mass = s.brownouts as f64 + tx_fallbacks;

    let fallback_cost = spec.edge_client.cycle_energy();
    let edge_total = base_cloud
        + (fallback_cost - per_cloud) * fallback_mass
        + retry_energy(&spec.cloud_client) * total_retries;

    let fallbacks = s.brownouts as u64 + tx_fallbacks.round() as u64;
    let stats = FaultStats {
        attempts: uploaders as u64 + total_retries.round() as u64,
        retries: total_retries.round() as u64,
        fallbacks,
        brownouts: s.brownouts as u64,
        sensor_dropouts: s.sensor_dropouts as u64,
        delivered: (s.active as u64).saturating_sub(fallbacks + s.sensor_dropouts as u64),
    };
    publish_stats(ctx.telemetry(), &stats);
    CycleReport::from_parts_with_faults(
        n_clients,
        s.active,
        s.allocation.n_servers(),
        edge_total,
        server_total,
        stats,
    )
}

/// Event-timeline backend under a fault plan: every client's transfer is
/// attempted at its slot's scheduled start time and resolved exactly
/// through [`exact_transfer`]. Fault outcomes are drawn in
/// (server, slot, client) order from the point's fault stream.
pub(crate) fn timeline_with_faults(
    spec: &ScenarioSpec,
    n_clients: usize,
    ctx: &SimContext,
) -> CycleReport {
    let _span = ctx.telemetry().span("engine.cycle.timeline");
    let plan = ctx.fault_plan();
    let mut s = setup(spec, n_clients, ctx, plan);

    let server_total = servers_energy_from_timelines(&s.eff, &s.allocation, &spec.loss);
    let fallback_cost = spec.edge_client.cycle_energy();
    let retry_cost = retry_energy(&spec.cloud_client);
    let telemetry = ctx.telemetry();
    // Causal tagging is opt-in (`Telemetry::with_tracing`): without it
    // the event stream stays byte-identical to the untagged shape.
    let causal = telemetry.tracing_active();
    let recording = telemetry.events_recording();
    let trace_seed = ctx.point_seed(n_clients as u64);

    let mut stats = FaultStats {
        brownouts: s.brownouts as u64,
        sensor_dropouts: s.sensor_dropouts as u64,
        fallbacks: s.brownouts as u64,
        ..FaultStats::default()
    };
    let mut edge_total = Joules::ZERO;
    let mut idx = 0usize;
    for sa in s.allocation.servers() {
        let starts = slot_start_times(&s.eff, &sa.slots, &spec.loss);
        for (i, &k) in sa.slots.iter().enumerate() {
            if k == 0 {
                continue;
            }
            // All clients of the slot share its cost (loss-B stretch
            // included) and its scheduled transfer start time.
            let slot_cost = client_timeline(&spec.cloud_client, k, &spec.loss).total_energy();
            let t0 = starts[i];
            let mut paying_slot_cost = 0usize;
            for _ in 0..k {
                let tid = if causal { trace_id(trace_seed, idx as u64) } else { 0 };
                match s.columns.class(idx) {
                    ClientClass::Brownout => {
                        edge_total += fallback_cost;
                        if causal {
                            emit_sample(telemetry, t0.value(), tid, idx as u64, "brownout");
                            emit_brownout_fallback(
                                telemetry,
                                t0.value(),
                                tid,
                                idx as u64,
                                fallback_cost.value(),
                            );
                        } else if recording {
                            emit_untagged_brownout_fallback(telemetry, t0.value());
                        }
                    }
                    ClientClass::SensorDropout => {
                        paying_slot_cost += 1;
                        if causal {
                            emit_sample(telemetry, t0.value(), tid, idx as u64, "dropout");
                        }
                    }
                    ClientClass::Uploader => {
                        let tc = TransferTrace {
                            client: idx as u64,
                            trace: tid,
                            retry_energy_j: retry_cost.value(),
                            fallback_energy_j: fallback_cost.value(),
                        };
                        if causal {
                            emit_sample(telemetry, t0.value(), tid, idx as u64, "uploader");
                        }
                        let mut frng = CountingRng::new(&mut s.frng);
                        let (attempts, success) =
                            exact_transfer(plan, t0, &mut frng, telemetry, causal.then_some(&tc));
                        let draws = frng.draws();
                        s.columns.record_transfer(idx, attempts, draws);
                        if attempts > 1 {
                            edge_total += retry_cost * (attempts - 1) as f64;
                        }
                        if let Some(t_eff) = success {
                            paying_slot_cost += 1;
                            stats.delivered += 1;
                            if causal {
                                emit_delivered(
                                    telemetry,
                                    t_eff.value(),
                                    tid,
                                    idx as u64,
                                    attempts,
                                    slot_cost.value(),
                                );
                            }
                        } else {
                            edge_total += fallback_cost;
                            stats.fallbacks += 1;
                        }
                    }
                }
                idx += 1;
            }
            edge_total += slot_cost * paying_slot_cost as f64;
        }
    }
    debug_assert_eq!(idx, s.active, "allocation must cover every active client");
    // Attempt/retry totals come off the attempts column: chunked integer
    // reductions over the pool, bit-identical at any thread count.
    stats.attempts = s.columns.total_attempts();
    stats.retries = s.columns.total_retries();
    if telemetry.is_enabled() {
        s.columns.fill_retry_energy(retry_cost);
        telemetry.observe("columns.retry_energy_j", s.columns.energy_total().value());
    }
    publish_stats(telemetry, &stats);
    CycleReport::from_parts_with_faults(
        n_clients,
        s.active,
        s.allocation.n_servers(),
        edge_total,
        server_total,
        stats,
    )
}

/// DES backend under a fault plan: exact event-level injection at each
/// client's random arrival time; failed attempts never occupy the
/// uplink, successful ones arrive at their final attempt time. Each
/// server derives its own arrival and fault streams from the point seed.
pub(crate) fn des_with_faults(
    spec: &ScenarioSpec,
    n_clients: usize,
    ctx: &SimContext,
) -> CycleReport {
    let _span = ctx.telemetry().span("engine.cycle.des");
    let plan = ctx.fault_plan();
    let s = setup(spec, n_clients, ctx, plan);

    let point_seed = ctx.point_seed(n_clients as u64);
    let fault_seed = ctx.fault_seed(n_clients as u64);
    // Fallbacks accumulate from the per-server reports, which already
    // count their brown-out-class clients — don't seed them here too.
    let mut stats = FaultStats {
        brownouts: s.brownouts as u64,
        sensor_dropouts: s.sensor_dropouts as u64,
        ..FaultStats::default()
    };
    // One job per server: (server index, class-column offset, clients).
    // Each server derives its own RNG streams from the point seed, so
    // the servers are independent and fan out over the pool; the fold
    // below walks the results in server order, keeping the energy sum
    // bit-identical to the historical serial loop at any thread count.
    let mut jobs: Vec<(usize, usize, usize)> = Vec::with_capacity(s.allocation.n_servers());
    let mut offset = 0usize;
    for (i, sa) in s.allocation.servers().enumerate() {
        let k = sa.n_clients();
        jobs.push((i, offset, k));
        offset += k;
    }
    debug_assert_eq!(offset, s.active, "allocation must cover every active client");
    let classes = s.columns.classes();
    let telemetry = ctx.telemetry();
    let causal = telemetry.tracing_active();
    let deliver_cost = spec.cloud_client.cycle_energy();
    let fallback_cost = spec.edge_client.cycle_energy();
    let retry_cost = retry_energy(&spec.cloud_client);
    // Shape memo over the degraded server: servers whose every transfer
    // resolves cleanly keep their allocation shape and hit the memo;
    // divergent counts fold inline.
    let memo = crate::des::ShapeMemo::for_server(&s.eff, jobs.iter().map(|&(_, _, k)| k));
    let outs: Vec<crate::des::FaultedAsyncReport> = jobs
        .par_iter()
        .map(|&(i, offset, k)| {
            let salt = (i as u64 + 1).wrapping_mul(GOLDEN_GAMMA);
            let mut server_rng = StdRng::seed_from_u64(point_seed ^ salt);
            let mut server_frng = StdRng::seed_from_u64(fault_seed ^ salt);
            // Trace ids derive from the point seed and the client's
            // *global* index (`offset + local`), so tags are bit-stable
            // no matter how the jobs land on the worker pool.
            let tr = crate::des::DesTrace {
                point_seed,
                base: offset,
                deliver_energy_j: deliver_cost.value(),
                retry_energy_j: retry_cost.value(),
                fallback_energy_j: fallback_cost.value(),
            };
            crate::des::simulate_async_cycle_faulted(
                k,
                &s.eff,
                &mut server_rng,
                &mut server_frng,
                plan,
                classes.slice(offset..offset + k),
                telemetry,
                causal.then_some(&tr),
                Some(&memo),
            )
        })
        .collect();
    let mut server_total = Joules::ZERO;
    for out in &outs {
        server_total += out.report.server_energy;
        stats.attempts += out.attempts;
        stats.retries += out.retries;
        stats.delivered += out.delivered;
        stats.fallbacks += out.fallbacks;
    }

    // Unsynchronized uploads see no slot contention (penalty-free cycle
    // cost); sensor-dropout clients still run their full routine.
    let edge_total = deliver_cost * (stats.delivered + stats.sensor_dropouts) as f64
        + fallback_cost * stats.fallbacks as f64
        + retry_cost * stats.retries as f64;
    publish_stats(ctx.telemetry(), &stats);
    CycleReport::from_parts_with_faults(
        n_clients,
        s.active,
        s.allocation.n_servers(),
        edge_total,
        server_total,
        stats,
    )
}

/// Pure-edge side under a fault plan: nodes never touch the network, so
/// outages, packet loss and radio brown-outs cannot strike them — only
/// sensor dropouts cost samples (the node still runs its full routine,
/// so energy is unchanged). The classes come from the same fault stream
/// as the cloud side, so per-class counts match across scenarios.
pub(crate) fn edge_with_faults(
    spec: &ScenarioSpec,
    n_clients: usize,
    ctx: &SimContext,
) -> CycleReport {
    let _span = ctx.telemetry().span("engine.cycle.edge");
    let plan = ctx.fault_plan();
    let mut rng = ctx.point_rng(n_clients as u64);
    let active = draw_active(&spec.loss, n_clients, &mut rng);
    record_client_loss(ctx, n_clients, active);
    let edge_total = spec.edge_client.cycle_energy() * active as f64;
    let mut frng = ctx.fault_rng(n_clients as u64);
    let columns = FleetColumns::draw(plan, active, &mut frng);
    let (_, sensor_dropouts) = columns.class_counts();
    let stats = FaultStats {
        sensor_dropouts: sensor_dropouts as u64,
        delivered: (active - sensor_dropouts) as u64,
        ..FaultStats::default()
    };
    CycleReport::from_parts_with_faults(n_clients, active, 0, edge_total, Joules::ZERO, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::presets;
    use crate::ServiceKind;

    fn plan_with(f: impl FnOnce(&mut FaultPlan)) -> FaultPlan {
        let mut p = FaultPlan::NONE;
        f(&mut p);
        p
    }

    #[test]
    fn outage_window_is_half_open() {
        let w = OutageWindow::new(Seconds(60.0), Seconds(120.0));
        assert!(!w.contains(Seconds(59.9)));
        assert!(w.contains(Seconds(60.0)));
        assert!(w.contains(Seconds(119.9)));
        assert!(!w.contains(Seconds(120.0)));
        assert_eq!(w.duration(), Seconds(60.0));
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let policy = RetryPolicy { jitter: 0.0, ..RetryPolicy::DEFAULT };
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(policy.backoff(1, &mut rng), Seconds(10.0));
        assert_eq!(policy.backoff(2, &mut rng), Seconds(20.0));
        assert_eq!(policy.backoff(3, &mut rng), Seconds(40.0));
        // Exponential growth hits the 60 s ceiling from retry 4 on.
        assert_eq!(policy.backoff(4, &mut rng), Seconds(60.0));
        assert_eq!(policy.backoff(9, &mut rng), Seconds(60.0));

        let jittered = RetryPolicy::DEFAULT;
        let a = jittered.backoff(1, &mut StdRng::seed_from_u64(7));
        let b = jittered.backoff(1, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b, "same stream, same jitter");
        assert!((a.value() - 10.0).abs() <= 1.0 + 1e-12, "±10 % of 10 s, got {a}");
    }

    #[test]
    fn fingerprint_separates_plans_and_zeroes_none() {
        assert_eq!(FaultPlan::NONE.fingerprint(), 0);
        let a = plan_with(|p| p.slowdown = 1.5);
        let b = plan_with(|p| p.slowdown = 2.0);
        let c = plan_with(|p| p.packet_loss = 0.1);
        assert_ne!(a.fingerprint(), 0);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), a.fingerprint());
    }

    #[test]
    fn effective_server_stretches_durations() {
        let server = presets::cloud_server(ServiceKind::Cnn, 10);
        let eff = plan_with(|p| p.slowdown = 2.0).effective_server(&server);
        assert_eq!(eff.receive_duration, Seconds(30.0));
        assert_eq!(eff.process_duration, Seconds(2.0));
        // 300 / 32 = 9.375 → 9 slots instead of 18.
        assert_eq!(eff.n_slots(None), 9);
        // Factor 1 is the identity, bit for bit.
        let same = FaultPlan::NONE.effective_server(&server);
        assert_eq!(
            same.receive_duration.value().to_bits(),
            server.receive_duration.value().to_bits()
        );
    }

    #[test]
    fn first_attempt_failure_combines_outage_and_loss() {
        let cycle = Seconds(300.0);
        assert_eq!(FaultPlan::NONE.first_attempt_failure(cycle), 0.0);
        let outage =
            plan_with(|p| p.outage = Some(OutageWindow::new(Seconds(0.0), Seconds(150.0))));
        assert!((outage.first_attempt_failure(cycle) - 0.5).abs() < 1e-12);
        let both = plan_with(|p| {
            p.outage = Some(OutageWindow::new(Seconds(0.0), Seconds(150.0)));
            p.packet_loss = 0.1;
        });
        assert!((both.first_attempt_failure(cycle) - 0.55).abs() < 1e-12);
        // A window past the cycle end contributes only its overlap.
        let tail =
            plan_with(|p| p.outage = Some(OutageWindow::new(Seconds(270.0), Seconds(900.0))));
        assert!((tail.first_attempt_failure(cycle) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn spec_round_trips_through_fromstr() {
        let plan: FaultPlan =
            "outage=60..120,loss=0.05,slowdown=1.1,brownout=0.02,dropout=0.02,retries=2,backoff=5,factor=3,max-backoff=45,jitter=0"
                .parse()
                .unwrap();
        assert_eq!(plan.outage, Some(OutageWindow::new(Seconds(60.0), Seconds(120.0))));
        assert_eq!(plan.packet_loss, 0.05);
        assert_eq!(plan.slowdown, 1.1);
        assert_eq!(plan.brownout, Some(Brownout { probability: 0.02 }));
        assert_eq!(plan.sensor_dropout, 0.02);
        assert_eq!(
            plan.retry,
            RetryPolicy {
                max_retries: 2,
                base_backoff: Seconds(5.0),
                backoff_factor: 3.0,
                max_backoff: Seconds(45.0),
                jitter: 0.0,
            }
        );
        assert_eq!("none".parse::<FaultPlan>().unwrap(), FaultPlan::NONE);
        assert_eq!("mid".parse::<FaultPlan>().unwrap(), FaultPlan::mid_severity());
        assert!("loss=2".parse::<FaultPlan>().is_err());
        assert!("outage=120..60".parse::<FaultPlan>().is_err());
        assert!("warp=9".parse::<FaultPlan>().is_err());
        assert!("slowdown=0.5".parse::<FaultPlan>().is_err());
        // Display → FromStr is lossless, including every non-default
        // retry knob.
        for plan in [FaultPlan::mid_severity(), plan] {
            assert_eq!(plan.to_string().parse::<FaultPlan>().unwrap(), plan, "{plan}");
        }
    }

    #[test]
    fn display_echoes_the_plan() {
        assert_eq!(FaultPlan::NONE.to_string(), "none");
        let shown = FaultPlan::mid_severity().to_string();
        assert!(shown.contains("outage=60..120"), "{shown}");
        assert!(shown.contains("loss=0.05"), "{shown}");
        assert!(shown.contains("retries=3"), "{shown}");
    }

    #[test]
    fn population_draw_is_deterministic_and_gated() {
        let plan = plan_with(|p| {
            p.brownout = Some(Brownout { probability: 0.3 });
            p.sensor_dropout = 0.3;
        });
        let a = FleetColumns::draw(&plan, 500, &mut StdRng::seed_from_u64(9));
        let b = FleetColumns::draw(&plan, 500, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        let (brown, sensor) = a.class_counts();
        assert!(brown > 0 && sensor > 0);
        // Zero probabilities consume no RNG and produce only uploaders.
        use rand::RngCore;
        let mut rng = StdRng::seed_from_u64(9);
        let before = rng.clone().next_u64();
        let none = FleetColumns::draw(&FaultPlan::NONE, 100, &mut rng);
        assert_eq!(rng.next_u64(), before, "no RNG consumed");
        assert!(none.classes().iter().all(|c| c == ClientClass::Uploader));
    }

    #[test]
    fn exact_transfer_escapes_an_outage_via_backoff() {
        let plan = plan_with(|p| {
            p.outage = Some(OutageWindow::new(Seconds(0.0), Seconds(20.0)));
            p.retry.jitter = 0.0;
            p.retry.base_backoff = Seconds(30.0);
        });
        let tel = Telemetry::disabled();
        let (attempts, success) =
            exact_transfer(&plan, Seconds(0.0), &mut StdRng::seed_from_u64(1), &tel, None);
        assert_eq!(attempts, 2, "one retry at t = 30 s clears the window");
        assert_eq!(success, Some(Seconds(30.0)));
        // Retries that cannot escape the window exhaust the budget.
        let stuck = plan_with(|p| {
            p.outage = Some(OutageWindow::new(Seconds(0.0), Seconds(1e9)));
        });
        let (attempts, success) =
            exact_transfer(&stuck, Seconds(10.0), &mut StdRng::seed_from_u64(1), &tel, None);
        assert_eq!(attempts, 1 + u64::from(stuck.retry.max_retries));
        assert_eq!(success, None);
    }

    #[test]
    fn retry_energy_is_tx_minus_sleep() {
        let client = presets::edge_cloud_client();
        // Table II: the 37.3 J send re-runs, displacing 15 s of sleep.
        let tx = &client.actions[client.transfer_action.unwrap()];
        let expected = (tx.power - client.sleep_power) * tx.duration;
        assert!((retry_energy(&client) - expected).abs() < Joules(1e-9));
        assert!((retry_energy(&client) - Joules(27.9)).abs() < Joules(0.1));
        let edge = presets::edge_client(ServiceKind::Cnn);
        assert_eq!(retry_energy(&edge), Joules::ZERO, "no transfer action, no retry cost");
    }

    #[test]
    fn stats_conservation_helper() {
        let stats =
            FaultStats { delivered: 90, fallbacks: 7, sensor_dropouts: 3, ..FaultStats::default() };
        assert_eq!(stats.samples_processed(), 97);
    }
}
