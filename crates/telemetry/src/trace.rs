//! Causal tracing: deterministic trace/span identity plus offline
//! forensics over recorded JSONL traces.
//!
//! # Identity
//!
//! Every client service cycle gets a [`trace_id`] derived *only* from the
//! sweep point's seed and the client's global index, so the same client
//! carries the same trace id no matter how the work was sharded across
//! the thread pool — traces are bit-stable at `RAYON_NUM_THREADS` 1, 2
//! or N. Span ids ([`span_id`]) hang off the trace id by hop number, and
//! [`SpanCtx`] threads the parent/child relation through the exact-replay
//! paths (timeline per-slot injection and the DES event loop).
//!
//! Ids are 64-bit but serialized as 16-digit hex *strings* in event
//! fields: the JSONL layer stores numbers as `f64`, which can only
//! represent integers up to 2^53 exactly, so raw `u64` ids would be
//! corrupted on a parse round trip.
//!
//! # Span hierarchy
//!
//! ```text
//! S0 = root span ("sample", hop 0)
//! ├── attempt k   = hop k (k = 1..), parent = attempt k-1 (or S0)
//! │   (fault.outage / fault.packet_drop / fault.retry events)
//! ├── DES network = hops 64/65/66 (arrival → transfer → process)
//! └── terminal    = hop 63 (trace.delivered or fault.fallback)
//! ```
//!
//! # Forensics
//!
//! [`Forensics::from_jsonl`] reconstructs per-trace causal chains from a
//! recorded trace (a `pb sweep --causal --trace` file or a flight-recorder
//! dump) and derives the retry-chain length histogram, the fallback
//! root-cause table, per-trace critical paths and top-k rankings — the
//! analysis behind `pb trace`.

use crate::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Weyl increment mixed with the client index when deriving a trace id
/// (same constant family as the engine's point-seed derivation).
pub const TRACE_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Increment mixed with the hop number when deriving a span id.
pub const SPAN_GAMMA: u64 = 0xA076_1D64_78BD_642F;

/// Hop number of the terminal span (delivery or fallback).
pub const HOP_TERMINAL: u32 = 63;
/// Hop number of the DES arrival span.
pub const HOP_ARRIVAL: u32 = 64;
/// Hop number of the DES transfer-done span.
pub const HOP_TRANSFER: u32 = 65;
/// Hop number of the DES process-done span.
pub const HOP_PROCESS: u32 = 66;

/// SplitMix64 finalizer: a bijective avalanche over the seeded index so
/// nearby clients get unrelated ids.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic trace id of global client `client` under a sweep
/// point's seed. Pure function of its inputs — independent of thread
/// count, backend sharding and event ordering.
///
/// The point seed is avalanched *before* the client term joins (by
/// addition, not XOR): sweep point seeds are themselves XOR-derived
/// from the same Weyl constant (`seed ^ n·γ`), so a raw
/// `point_seed ^ client·γ` would let the two γ-multiples cancel and
/// collide ids across sweep points.
#[inline]
pub fn trace_id(point_seed: u64, client: u64) -> u64 {
    mix64(mix64(point_seed).wrapping_add(client.wrapping_add(1).wrapping_mul(TRACE_GAMMA)))
}

/// The span id of hop `hop` within `trace`. Hop 0 is the root (the
/// sample); hops 1.. are upload attempts; see the module-level hierarchy
/// for the reserved hop numbers.
#[inline]
pub fn span_id(trace: u64, hop: u32) -> u64 {
    mix64(trace ^ u64::from(hop).wrapping_add(1).wrapping_mul(SPAN_GAMMA))
}

/// Appends `id` to `out` as exactly 16 lower-case hex digits, without
/// going through the `fmt` machinery (the event exporter renders two to
/// three ids per traced event, so the formatting shows up in traced
/// sweeps).
#[inline]
pub(crate) fn push_hex(out: &mut String, id: u64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [0u8; 16];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = DIGITS[((id >> (60 - 4 * i)) & 0xF) as usize];
    }
    // All bytes are ASCII hex digits, so the buffer is valid UTF-8.
    out.push_str(std::str::from_utf8(&buf).expect("hex digits are ASCII"));
}

/// Renders an id the way event fields carry it: 16 hex digits.
#[inline]
pub fn hex(id: u64) -> String {
    let mut out = String::with_capacity(16);
    push_hex(&mut out, id);
    out
}

/// Parses a 16-hex-digit id back to its `u64` value.
pub fn parse_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

/// A span context: the trace it belongs to, its own span id and its
/// parent's. Copied by value through the replay paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanCtx {
    /// The owning trace id.
    pub trace: u64,
    /// This span's id.
    pub span: u64,
    /// The parent span's id (0 for the root).
    pub parent: u64,
}

impl SpanCtx {
    /// The root span (hop 0) of `trace` — the client's sample.
    #[inline]
    pub fn root(trace: u64) -> Self {
        SpanCtx { trace, span: span_id(trace, 0), parent: 0 }
    }

    /// A child span at hop `hop`, parented to `self`.
    #[inline]
    pub fn child(&self, hop: u32) -> Self {
        SpanCtx { trace: self.trace, span: span_id(self.trace, hop), parent: self.span }
    }

    /// A sibling chain step: hop `hop`, parented to hop `hop - 1` of the
    /// same trace (the attempt-chain rule).
    #[inline]
    pub fn attempt(trace: u64, hop: u32) -> Self {
        let parent = if hop <= 1 { span_id(trace, 0) } else { span_id(trace, hop - 1) };
        SpanCtx { trace, span: span_id(trace, hop), parent }
    }
}

/// One recorded hop of a causal chain.
#[derive(Clone, Debug)]
pub struct Hop {
    /// Simulation time of the hop.
    pub t: f64,
    /// The event's `seq` in the trace: its rank in task order, the
    /// tie-break within equal times.
    pub seq: u64,
    /// Event kind (`trace.sample`, `fault.retry`, `trace.delivered`, …).
    pub kind: String,
    /// Attempt number carried by the event, when present.
    pub attempt: Option<u64>,
    /// Energy attributed to this hop in joules (0 when absent).
    pub energy_j: f64,
}

/// How a causal chain ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The upload reached the cloud.
    Delivered,
    /// Retries were exhausted (or a brown-out struck); the sample was
    /// served by the edge fallback.
    Fallback,
    /// The sensor never produced a sample.
    Dropout,
    /// The trace has no terminal hop in the recorded window.
    Open,
}

impl Outcome {
    /// Lower-case label used in rendered tables.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Delivered => "delivered",
            Outcome::Fallback => "fallback",
            Outcome::Dropout => "dropout",
            Outcome::Open => "open",
        }
    }
}

/// A reconstructed per-client causal chain: sample → upload attempt(s) →
/// retry(s) → delivery-or-fallback.
#[derive(Clone, Debug)]
pub struct TraceChain {
    /// The trace id.
    pub trace: u64,
    /// Global client index, when any hop carried it.
    pub client: Option<u64>,
    /// Hops sorted by `(t, seq)`.
    pub hops: Vec<Hop>,
    /// Terminal classification.
    pub outcome: Outcome,
    /// Upload attempts made (from the terminal event; falls back to the
    /// failure-hop count for open chains).
    pub attempts: u64,
    /// Retries made (`attempts - 1`, saturating).
    pub retries: u64,
    /// Fallback root cause (`outage`, `packet-loss`, `mixed`,
    /// `brownout`), when the chain fell back.
    pub root_cause: Option<String>,
    /// Total energy attributed across hops, in joules.
    pub energy_j: f64,
}

impl TraceChain {
    /// Sim time of the first hop.
    pub fn start(&self) -> f64 {
        self.hops.first().map_or(0.0, |h| h.t)
    }

    /// Sim time of the last hop.
    pub fn end(&self) -> f64 {
        self.hops.last().map_or(0.0, |h| h.t)
    }

    /// Wall of simulated time the chain spans.
    pub fn duration(&self) -> f64 {
        self.end() - self.start()
    }

    /// Number of failed-attempt hops (`fault.outage` + `fault.packet_drop`).
    pub fn failure_hops(&self) -> u64 {
        self.hops
            .iter()
            .filter(|h| h.kind == "fault.outage" || h.kind == "fault.packet_drop")
            .count() as u64
    }

    /// Number of retry hops (`fault.retry`).
    pub fn retry_hops(&self) -> u64 {
        self.hops.iter().filter(|h| h.kind == "fault.retry").count() as u64
    }

    /// The hop the chain spent longest waiting to reach: index and the
    /// gap from its predecessor — the chain's critical step.
    pub fn critical_hop(&self) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for i in 1..self.hops.len() {
            let dt = self.hops[i].t - self.hops[i - 1].t;
            if best.is_none_or(|(_, b)| dt > b) {
                best = Some((i, dt));
            }
        }
        best
    }
}

/// The full offline analysis of a recorded trace file.
#[derive(Clone, Debug, Default)]
pub struct Forensics {
    /// Causal chains sorted by trace id (stable across thread counts).
    pub chains: Vec<TraceChain>,
    /// Total events in the recording.
    pub total_events: usize,
    /// Events carrying no trace id (metrics-adjacent instrumentation).
    pub untraced_events: usize,
}

fn field_u64(obj: &Json, key: &str) -> Option<u64> {
    obj.get(key).and_then(Json::as_f64).map(|v| v as u64)
}

impl Forensics {
    /// Reconstructs causal chains from a JSONL trace (one event object
    /// per line, as written by `Telemetry::write_trace` or a
    /// flight-recorder dump). Blank lines are skipped; a malformed line
    /// is an error naming its line number.
    pub fn from_jsonl(jsonl: &str) -> Result<Forensics, String> {
        let mut total = 0usize;
        let mut untraced = 0usize;
        let mut by_trace: BTreeMap<u64, TraceChain> = BTreeMap::new();
        for (lineno, line) in jsonl.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let obj = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            total += 1;
            let Some(trace) = obj.get("trace").and_then(Json::as_str).and_then(parse_hex) else {
                untraced += 1;
                continue;
            };
            let t = obj.get("t").and_then(Json::as_f64).unwrap_or(0.0);
            let seq = field_u64(&obj, "seq").unwrap_or(0);
            let kind = obj.get("kind").and_then(Json::as_str).unwrap_or("?").to_string();
            let hop = Hop {
                t,
                seq,
                kind,
                attempt: field_u64(&obj, "attempt").or_else(|| field_u64(&obj, "attempts")),
                energy_j: obj.get("energy_j").and_then(Json::as_f64).unwrap_or(0.0),
            };
            let chain = by_trace.entry(trace).or_insert_with(|| TraceChain {
                trace,
                client: None,
                hops: Vec::new(),
                outcome: Outcome::Open,
                attempts: 0,
                retries: 0,
                root_cause: None,
                energy_j: 0.0,
            });
            if chain.client.is_none() {
                chain.client = field_u64(&obj, "client");
            }
            match hop.kind.as_str() {
                "trace.delivered" => {
                    chain.outcome = Outcome::Delivered;
                    chain.attempts = hop.attempt.unwrap_or(1);
                }
                "fault.fallback" => {
                    chain.outcome = Outcome::Fallback;
                    chain.attempts = hop.attempt.unwrap_or(0);
                    chain.root_cause = obj.get("cause").and_then(Json::as_str).map(str::to_string);
                }
                "trace.sample" if obj.get("class").and_then(Json::as_str) == Some("dropout") => {
                    chain.outcome = Outcome::Dropout;
                }
                _ => {}
            }
            chain.energy_j += hop.energy_j;
            chain.hops.push(hop);
        }
        let mut chains: Vec<TraceChain> = by_trace.into_values().collect();
        for c in &mut chains {
            c.hops.sort_by(|a, b| a.t.total_cmp(&b.t).then(a.seq.cmp(&b.seq)));
            if c.outcome == Outcome::Open {
                c.attempts = c.failure_hops();
            }
            c.retries = c.attempts.saturating_sub(1);
        }
        Ok(Forensics { chains, total_events: total, untraced_events: untraced })
    }

    /// Chains with the given outcome.
    pub fn count(&self, outcome: Outcome) -> u64 {
        self.chains.iter().filter(|c| c.outcome == outcome).count() as u64
    }

    /// Retry-chain length histogram: retries per chain → number of
    /// chains (dropout chains excluded; they never attempted).
    pub fn retry_histogram(&self) -> BTreeMap<u64, u64> {
        let mut h = BTreeMap::new();
        for c in self.chains.iter().filter(|c| c.outcome != Outcome::Dropout) {
            *h.entry(c.retries).or_insert(0) += 1;
        }
        h
    }

    /// Fallback root-cause table: cause → number of fallen-back chains.
    pub fn root_cause_table(&self) -> BTreeMap<String, u64> {
        let mut t = BTreeMap::new();
        for c in self.chains.iter().filter(|c| c.outcome == Outcome::Fallback) {
            let cause = c.root_cause.clone().unwrap_or_else(|| "unknown".to_string());
            *t.entry(cause).or_insert(0) += 1;
        }
        t
    }

    /// The `k` chains spanning the most simulated time, slowest first
    /// (ties broken by trace id so the ranking is deterministic).
    pub fn top_slowest(&self, k: usize) -> Vec<&TraceChain> {
        self.ranked(k, |c| c.duration())
    }

    /// The `k` chains with the most attributed energy, costliest first.
    pub fn top_expensive(&self, k: usize) -> Vec<&TraceChain> {
        self.ranked(k, |c| c.energy_j)
    }

    fn ranked(&self, k: usize, score: impl Fn(&TraceChain) -> f64) -> Vec<&TraceChain> {
        let mut v: Vec<&TraceChain> = self.chains.iter().collect();
        v.sort_by(|a, b| score(b).total_cmp(&score(a)).then(a.trace.cmp(&b.trace)));
        v.truncate(k);
        v
    }

    /// Renders the `pb trace` report: summary, retry histogram, fallback
    /// root causes, and top-`k` slowest (with per-hop critical path) and
    /// most-expensive traces.
    pub fn render(&self, k: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace forensics: {} events ({} untraced), {} traces",
            self.total_events,
            self.untraced_events,
            self.chains.len()
        );
        let _ = writeln!(
            out,
            "  delivered {} | fallbacks {} | dropouts {} | open {}",
            self.count(Outcome::Delivered),
            self.count(Outcome::Fallback),
            self.count(Outcome::Dropout),
            self.count(Outcome::Open),
        );
        out.push_str("\nretry-chain length histogram:\n");
        let hist = self.retry_histogram();
        if hist.is_empty() {
            out.push_str("  (no attempt chains)\n");
        }
        for (retries, n) in &hist {
            let _ = writeln!(out, "  {retries} retries : {n} traces");
        }
        out.push_str("\nfallback root causes:\n");
        let causes = self.root_cause_table();
        if causes.is_empty() {
            out.push_str("  (no fallbacks)\n");
        }
        for (cause, n) in &causes {
            let _ = writeln!(out, "  {cause:<12} : {n}");
        }
        let _ = writeln!(out, "\ntop {k} slowest traces:");
        for (rank, c) in self.top_slowest(k).iter().enumerate() {
            let client = c.client.map_or_else(|| "?".to_string(), |id| id.to_string());
            let _ = writeln!(
                out,
                "  {}. trace {} client {} [{}] hops {} span {:.2}s energy {:.2}J",
                rank + 1,
                hex(c.trace),
                client,
                c.outcome.label(),
                c.hops.len(),
                c.duration(),
                c.energy_j,
            );
            if let Some((i, dt)) = c.critical_hop() {
                let _ = writeln!(
                    out,
                    "     critical hop: {} at t={:.2}s (+{:.2}s)",
                    c.hops[i].kind, c.hops[i].t, dt
                );
            }
            for h in &c.hops {
                let attempt = h.attempt.map_or(String::new(), |a| format!(" attempt={a}"));
                let energy = if h.energy_j != 0.0 {
                    format!(" energy={:.2}J", h.energy_j)
                } else {
                    String::new()
                };
                let _ = writeln!(out, "       t={:<10.2} {}{attempt}{energy}", h.t, h.kind);
            }
        }
        let _ = writeln!(out, "\ntop {k} most expensive traces:");
        for (rank, c) in self.top_expensive(k).iter().enumerate() {
            let client = c.client.map_or_else(|| "?".to_string(), |id| id.to_string());
            let _ = writeln!(
                out,
                "  {}. trace {} client {} [{}] energy {:.2}J over {} hops",
                rank + 1,
                hex(c.trace),
                client,
                c.outcome.label(),
                c.energy_j,
                c.hops.len(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        let a = trace_id(9, 0);
        assert_eq!(a, trace_id(9, 0));
        assert_ne!(a, trace_id(9, 1));
        assert_ne!(a, trace_id(10, 0));
        // The hex round trip is exact — no f64 truncation.
        assert_eq!(parse_hex(&hex(a)), Some(a));
        assert_eq!(hex(a).len(), 16);
    }

    #[test]
    fn span_chain_parents_link_hop_by_hop() {
        let t = trace_id(7, 3);
        let root = SpanCtx::root(t);
        assert_eq!(root.parent, 0);
        assert_eq!(root.span, span_id(t, 0));
        let a1 = SpanCtx::attempt(t, 1);
        assert_eq!(a1.parent, root.span);
        let a2 = SpanCtx::attempt(t, 2);
        assert_eq!(a2.parent, a1.span);
        let term = a2.child(HOP_TERMINAL);
        assert_eq!(term.parent, a2.span);
        assert_eq!(term.trace, t);
    }

    fn line(t: f64, seq: u64, kind: &str, trace: u64, extra: &str) -> String {
        format!(
            "{{\"t\":{t},\"seq\":{seq},\"kind\":\"{kind}\",\"trace\":\"{}\"{}{extra}}}",
            hex(trace),
            if extra.is_empty() { "" } else { "," },
        )
    }

    #[test]
    fn forensics_reconstructs_chains_and_tables() {
        let t1 = trace_id(1, 0);
        let t2 = trace_id(1, 1);
        let jsonl = [
            line(0.0, 0, "trace.sample", t1, "\"client\":0,\"class\":\"uploader\""),
            line(0.0, 1, "fault.outage", t1, "\"attempt\":1"),
            line(30.0, 2, "fault.retry", t1, "\"attempt\":2,\"energy_j\":27.9"),
            line(
                30.0,
                3,
                "fault.fallback",
                t1,
                "\"attempts\":2,\"cause\":\"outage\",\"energy_j\":41.0",
            ),
            line(5.0, 4, "trace.sample", t2, "\"client\":1,\"class\":\"uploader\""),
            line(5.0, 5, "trace.delivered", t2, "\"attempt\":1,\"energy_j\":12.0"),
            "{\"t\":9.0,\"seq\":6,\"kind\":\"des.cycle_done\"}".to_string(),
        ]
        .join("\n");
        let f = Forensics::from_jsonl(&jsonl).expect("parses");
        assert_eq!(f.total_events, 7);
        assert_eq!(f.untraced_events, 1);
        assert_eq!(f.chains.len(), 2);
        assert_eq!(f.count(Outcome::Fallback), 1);
        assert_eq!(f.count(Outcome::Delivered), 1);

        let fb = f.chains.iter().find(|c| c.outcome == Outcome::Fallback).unwrap();
        assert_eq!(fb.client, Some(0));
        assert_eq!(fb.attempts, 2);
        assert_eq!(fb.retries, 1);
        assert_eq!(fb.retry_hops(), 1);
        assert_eq!(fb.root_cause.as_deref(), Some("outage"));
        assert!((fb.energy_j - 68.9).abs() < 1e-9);
        assert!((fb.duration() - 30.0).abs() < 1e-12);
        // The critical hop is the 30 s backoff wait.
        let (i, dt) = fb.critical_hop().unwrap();
        assert_eq!(fb.hops[i].kind, "fault.retry");
        assert!((dt - 30.0).abs() < 1e-12);

        assert_eq!(f.retry_histogram(), BTreeMap::from([(0, 1), (1, 1)]));
        assert_eq!(f.root_cause_table(), BTreeMap::from([("outage".to_string(), 1)]));

        let slow = f.top_slowest(1);
        assert_eq!(slow[0].trace, t1);
        let rich = f.top_expensive(1);
        assert_eq!(rich[0].trace, t1);

        let report = f.render(2);
        assert!(report.contains("2 traces"));
        assert!(report.contains("1 retries : 1 traces"));
        assert!(report.contains("outage"));
        assert!(report.contains("critical hop: fault.retry"));
    }

    #[test]
    fn malformed_lines_name_their_position() {
        let err = Forensics::from_jsonl("{\"t\":1}\nnot json").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn empty_input_is_an_empty_report() {
        let f = Forensics::from_jsonl("").unwrap();
        assert_eq!(f.total_events, 0);
        assert!(f.chains.is_empty());
        assert!(f.render(3).contains("0 traces"));
    }
}
