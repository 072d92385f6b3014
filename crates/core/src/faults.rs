//! Deterministic fault injection for the cycle engines.
//!
//! The paper's three loss models (Section VI-C) are *static* per-cycle
//! draws. A production orchestrator must also survive dynamic faults:
//! cloud outage windows, flaky links, degraded servers, battery
//! brown-outs and dead sensors. This module defines a seedable
//! [`FaultPlan`] carried by [`SimContext`](crate::engine::SimContext)
//! and the per-client transfer machinery every backend in
//! [`crate::engine`] applies it with:
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
//!   arrival time (see [`crate::des::simulate_async_cycle_with`]).
//!
//! Each backend has one cycle body; the fault-free run is its ordinary
//! case. A plan that cannot strike a client
//! ([`FaultPlan::strikes_clients`] is false, as for [`FaultPlan::NONE`])
//! does no per-client fault work: no class column, no fault-stream draw,
//! no `fault.*` or `columns.*` metric.
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
//! ([`SimContext::fault_rng`](crate::engine::SimContext::fault_rng), the
//! point seed XOR a dedicated gamma), so the same seed produces
//! bit-identical results at any thread count, and a plan with zero
//! probabilities reproduces the fault-free numbers.

use std::fmt;
use std::str::FromStr;

use crate::client::ClientModel;
use crate::server::ServerModel;
use pb_energy::battery::Battery;
use pb_telemetry::trace::{SpanCtx, HOP_TERMINAL};
use pb_telemetry::{Fields, Schema, Slot, Telemetry, Value};
use pb_units::{Joules, Seconds, Watts};
use rand::Rng;
use std::borrow::Cow;

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
/// Carried by [`SimContext`](crate::engine::SimContext) (see
/// [`SimContext::with_fault_plan`](crate::engine::SimContext::with_fault_plan)).
/// Every backend runs one cycle body under every plan; a plan that
/// cannot strike a client ([`FaultPlan::strikes_clients`]) does no
/// per-client fault work in it, and [`FaultPlan::NONE`] reproduces the
/// pre-fault results bit for bit.
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
    /// The fault-free plan: it strikes no client, degrades no server and
    /// keeps no fault accounting ([`FaultStats`] all zero).
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

    /// Structurally equal to [`FaultPlan::NONE`]? Such a run keeps no
    /// fault accounting: its reports carry [`FaultStats::default`], and
    /// its allocations share the fault-free cache entries
    /// ([`FaultPlan::fingerprint`] 0). A plan with zero probabilities but,
    /// say, a customized retry policy is not `NONE`: it counts every
    /// active client as delivered on its first attempt — and produces the
    /// same energies (tested).
    pub fn is_none(&self) -> bool {
        *self == Self::NONE
    }

    /// Can the plan strike any client — brown out its radio, drop its
    /// sample, or fail one of its transfer attempts? A plan that cannot
    /// (zero probabilities, no non-empty outage window; any retry policy
    /// and slow-down) costs no per-client fault work in any backend: no
    /// class column, no fault-stream draw, no `fault.*` or `columns.*`
    /// metric.
    pub fn strikes_clients(&self) -> bool {
        self.outage.is_some_and(|w| w.end > w.start)
            || self.packet_loss > 0.0
            || self.brownout.is_some_and(|b| b.probability > 0.0)
            || self.sensor_dropout > 0.0
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
    /// The accounting of a cycle no fault struck: `attempts` first tries
    /// and `delivered` samples, nothing else. Under [`FaultPlan::NONE`]
    /// no fault layer is active and the accounting stays all zero.
    pub(crate) fn unstruck(plan: &FaultPlan, attempts: usize, delivered: usize) -> Self {
        if plan.is_none() {
            return FaultStats::default();
        }
        FaultStats {
            attempts: attempts as u64,
            delivered: delivered as u64,
            ..FaultStats::default()
        }
    }

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

/// Causal-trace context for one client's fault resolution: the
/// client's global identity plus the per-hop energy attributions only
/// the call site knows. `None` keeps [`resolve_client`]'s event stream
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
/// or packet loss, retry on the backoff schedule. Returns the delivery
/// (attempt count and the successful attempt's start time) or, once the
/// budget is exhausted, the fallback to edge inference. Emits
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
) -> Resolution {
    let trace = telemetry.events_recording();
    let mut t = t0.value();
    let max = plan.retry.max_retries;
    let mut saw_outage = false;
    let mut saw_drop = false;
    for attempt in 0..=max {
        let in_outage = plan.outage.is_some_and(|w| w.contains(Seconds(t)));
        let dropped = !in_outage && plan.packet_loss > 0.0 && rng.gen::<f64>() < plan.packet_loss;
        if !in_outage && !dropped {
            return Resolution::Delivered { attempts: u64::from(attempt) + 1, at: Seconds(t) };
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
    Resolution::FellBack { attempts: u64::from(max) + 1 }
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

/// How one client's cycle ended under a fault plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Resolution {
    /// The sensor recorded nothing: the client ran its routine but has
    /// no sample to upload.
    Dropped,
    /// The client fell back to edge inference after `attempts` transfer
    /// attempts (0 for a browned-out radio).
    FellBack { attempts: u64 },
    /// The upload got through on attempt `attempts`, starting at `at`.
    Delivered { attempts: u64, at: Seconds },
}

impl Resolution {
    /// Transfer attempts the client made.
    pub(crate) fn attempts(self) -> u64 {
        match self {
            Resolution::Dropped => 0,
            Resolution::FellBack { attempts } | Resolution::Delivered { attempts, .. } => attempts,
        }
    }
}

/// Resolves one client of drawn `class` whose transfer would start at
/// `t`: a brown-out falls back at once, a sensor dropout uploads
/// nothing, and an uploader goes through [`exact_transfer`]. With a
/// [`TransferTrace`] the client's root `trace.sample` span comes first,
/// then its fault spans; without one, a brown-out still records an
/// untagged `fault.fallback` whenever events are recorded (every
/// brown-out is a flight-recorder dump trigger, traced or not).
pub(crate) fn resolve_client<R: Rng + ?Sized>(
    plan: &FaultPlan,
    class: ClientClass,
    t: Seconds,
    rng: &mut R,
    telemetry: &Telemetry,
    causal: Option<&TransferTrace>,
) -> Resolution {
    if let Some(tc) = causal {
        let name = match class {
            ClientClass::Uploader => "uploader",
            ClientClass::Brownout => "brownout",
            ClientClass::SensorDropout => "dropout",
        };
        emit_sample(telemetry, t.value(), tc.trace, tc.client, name);
    }
    match class {
        ClientClass::Brownout => {
            match causal {
                Some(tc) => telemetry.trace_event(
                    t.value(),
                    "fault.fallback",
                    SpanCtx::root(tc.trace).child(HOP_TERMINAL),
                    vec![
                        ("client", tc.client.into()),
                        ("attempts", 0u64.into()),
                        ("cause", "brownout".into()),
                        ("energy_j", tc.fallback_energy_j.into()),
                    ],
                ),
                None if telemetry.events_recording() => telemetry.event(
                    t.value(),
                    "fault.fallback",
                    Fields::packed(&BROWNOUT_FALLBACK, [t.value().into()]),
                ),
                None => {}
            }
            Resolution::FellBack { attempts: 0 }
        }
        ClientClass::SensorDropout => Resolution::Dropped,
        ClientClass::Uploader => exact_transfer(plan, t, rng, telemetry, causal),
    }
}

/// The untagged brown-out `fault.fallback`: one per browned-out client
/// of a recorded sweep, so it is packed to record without a heap block.
static BROWNOUT_FALLBACK: Schema = Schema(&[
    ("t0", Slot::F64),
    ("attempts", Slot::Fixed(Value::U64(0))),
    ("cause", Slot::Fixed(Value::Str(Cow::Borrowed("brownout")))),
]);

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::FleetColumns;
    use crate::scenario::presets;
    use crate::ServiceKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        let outcome =
            exact_transfer(&plan, Seconds(0.0), &mut StdRng::seed_from_u64(1), &tel, None);
        assert_eq!(
            outcome,
            Resolution::Delivered { attempts: 2, at: Seconds(30.0) },
            "one retry at t = 30 s clears the window"
        );
        // Retries that cannot escape the window exhaust the budget.
        let stuck = plan_with(|p| {
            p.outage = Some(OutageWindow::new(Seconds(0.0), Seconds(1e9)));
        });
        let outcome =
            exact_transfer(&stuck, Seconds(10.0), &mut StdRng::seed_from_u64(1), &tel, None);
        assert_eq!(
            outcome,
            Resolution::FellBack { attempts: 1 + u64::from(stuck.retry.max_retries) }
        );
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
