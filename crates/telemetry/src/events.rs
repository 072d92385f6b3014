//! The structured simulation event log.
//!
//! An [`Event`] is a sim-time-stamped record — a kind plus typed fields —
//! serialized as one JSON object per line (JSONL). Sinks decide what
//! happens to recorded events: kept unbounded ([`BufferSink`]), kept
//! bounded ([`RingBufferSink`]) or dropped ([`NoopSink`]).

use crate::json;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Mutex;

/// A typed event field value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite values serialize as `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// A 64-bit trace/span id, serialized as a quoted 16-digit hex
    /// string (the JSONL layer parses numbers as `f64`, which cannot
    /// hold a full `u64` exactly). Storing the raw id keeps the hot
    /// tagging path allocation-free; the hex rendering happens once at
    /// export time.
    Hex(u64),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Value::F64(_) => out.push_str("null"),
            Value::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Str(s) => out.push_str(&json::escape(s)),
            Value::Hex(id) => {
                out.push('"');
                crate::trace::push_hex(out, *id);
                out.push('"');
            }
        }
    }
}

/// One sim-time-stamped record of the event log.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Simulation timestamp in seconds (`"t"` in JSONL).
    pub t_sim: f64,
    /// Recording sequence number — the tiebreaker that makes the sorted
    /// export deterministic (`"seq"` in JSONL).
    pub seq: u64,
    /// Event type, dot-namespaced by layer (e.g. `"des.arrival"`).
    /// Recorded events borrow a `'static` literal, so recording one
    /// allocates nothing for its kind; an owned kind (built at run time,
    /// e.g. parsed back from JSONL) is `Cow::Owned`.
    pub kind: Cow<'static, str>,
    /// Extra fields, flattened into the JSONL object.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Serializes the event as one flat JSON object:
    /// `{"t":…,"seq":…,"kind":"…", <fields>…}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(48 + 16 * self.fields.len());
        self.write_json(&mut out);
        out
    }

    /// [`Event::to_json`] into a caller-supplied buffer, so bulk export
    /// loops reuse one allocation across thousands of events.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"t\":");
        if self.t_sim.is_finite() {
            let _ = write!(out, "{}", self.t_sim);
        } else {
            out.push_str("null");
        }
        let _ = write!(out, ",\"seq\":{},\"kind\":{}", self.seq, json::escape(&self.kind));
        for (key, value) in &self.fields {
            let _ = write!(out, ",{}:", json::escape(key));
            value.write_json(out);
        }
        out.push('}');
    }
}

/// Destination of recorded events. Implementations must be safe to share
/// across threads (sweeps record from rayon workers).
pub trait EventSink: Send + Sync + fmt::Debug {
    /// Accepts one event.
    fn record(&self, event: Event);

    /// A snapshot of the retained events, in recording order.
    fn events(&self) -> Vec<Event>;

    /// Number of retained events.
    fn len(&self) -> usize;

    /// True when no events are retained.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when recorded events are actually kept. Callers use this to
    /// skip building field vectors for sinks that drop everything.
    fn is_recording(&self) -> bool {
        true
    }

    /// True when the sink wants every per-event simulation trajectory —
    /// the DES's `des.{arrival,transfer_done,process_done}` records —
    /// and not only the events the fault pre-pass and the cycle summary
    /// emit. Only then does the DES leave its O(m) replay for the exact
    /// event loop, since the replay builds no per-event records. The
    /// default is `false`: a sink keeps what reaches it, and trace
    /// exports opt in ([`BufferSink`], [`RingBufferSink`]).
    fn keeps_trajectories(&self) -> bool {
        false
    }
}

/// Drops every event; [`EventSink::is_recording`] is false, so guarded
/// call sites skip event construction entirely.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl EventSink for NoopSink {
    fn record(&self, _event: Event) {}

    fn events(&self) -> Vec<Event> {
        Vec::new()
    }

    fn len(&self) -> usize {
        0
    }

    fn is_recording(&self) -> bool {
        false
    }
}

/// Keeps every event in memory — the sink behind JSONL trace export.
#[derive(Debug, Default)]
pub struct BufferSink {
    events: Mutex<Vec<Event>>,
}

impl BufferSink {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EventSink for BufferSink {
    fn record(&self, event: Event) {
        self.events.lock().expect("event buffer poisoned").push(event);
    }

    fn events(&self) -> Vec<Event> {
        self.events.lock().expect("event buffer poisoned").clone()
    }

    fn len(&self) -> usize {
        self.events.lock().expect("event buffer poisoned").len()
    }

    fn keeps_trajectories(&self) -> bool {
        true
    }
}

/// Keeps only the most recent `capacity` events — bounded memory for
/// long-running simulations where only the tail matters.
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    events: Mutex<VecDeque<Event>>,
}

impl RingBufferSink {
    /// A ring keeping the last `capacity` events (capacity must be > 0).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        RingBufferSink { capacity, events: Mutex::new(VecDeque::with_capacity(capacity)) }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl EventSink for RingBufferSink {
    fn record(&self, event: Event) {
        let mut events = self.events.lock().expect("event ring poisoned");
        if events.len() == self.capacity {
            events.pop_front();
        }
        events.push_back(event);
    }

    fn events(&self) -> Vec<Event> {
        self.events.lock().expect("event ring poisoned").iter().cloned().collect()
    }

    fn len(&self) -> usize {
        self.events.lock().expect("event ring poisoned").len()
    }

    fn keeps_trajectories(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn event(t: f64, seq: u64) -> Event {
        Event {
            t_sim: t,
            seq,
            kind: "test".into(),
            fields: vec![("n", 3usize.into()), ("ok", true.into())],
        }
    }

    #[test]
    fn event_serializes_to_valid_flat_json() {
        let e = Event {
            t_sim: 12.5,
            seq: 7,
            kind: "des.arrival".into(),
            fields: vec![
                ("client", 42u64.into()),
                ("delta", (-3i64).into()),
                ("soc", 0.5f64.into()),
                ("label", "a \"quoted\"\nname".into()),
                ("nan", f64::NAN.into()),
            ],
        };
        let parsed = parse(&e.to_json()).expect("valid JSON");
        assert_eq!(parsed.get("t").and_then(Json::as_f64), Some(12.5));
        assert_eq!(parsed.get("seq").and_then(Json::as_f64), Some(7.0));
        assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("des.arrival"));
        assert_eq!(parsed.get("client").and_then(Json::as_f64), Some(42.0));
        assert_eq!(parsed.get("delta").and_then(Json::as_f64), Some(-3.0));
        assert_eq!(parsed.get("soc").and_then(Json::as_f64), Some(0.5));
        assert_eq!(parsed.get("label").and_then(Json::as_str), Some("a \"quoted\"\nname"));
        assert!(matches!(parsed.get("nan"), Some(Json::Null)), "non-finite floats become null");
    }

    #[test]
    fn hex_values_serialize_as_quoted_16_digit_strings() {
        let id = 0x0123_4567_89AB_CDEFu64;
        let e = Event {
            t_sim: 1.0,
            seq: 0,
            kind: "trace.sample".into(),
            fields: vec![("trace", Value::Hex(id)), ("zero", Value::Hex(0))],
        };
        let json = e.to_json();
        // Byte-identical to the historical pre-rendered form.
        assert!(json.contains("\"trace\":\"0123456789abcdef\""), "{json}");
        assert!(json.contains("\"zero\":\"0000000000000000\""), "{json}");
        let parsed = parse(&json).expect("valid JSON");
        assert_eq!(parsed.get("trace").and_then(Json::as_str), Some("0123456789abcdef"));
        // write_json appends without clearing the caller's buffer.
        let mut buf = String::from("x");
        e.write_json(&mut buf);
        assert_eq!(&buf[1..], json);
    }

    #[test]
    fn buffer_sink_retains_in_order() {
        let sink = BufferSink::new();
        for i in 0..5 {
            sink.record(event(i as f64, i));
        }
        assert_eq!(sink.len(), 5);
        assert!(!sink.is_empty());
        assert!(sink.is_recording() && sink.keeps_trajectories());
        let events = sink.events();
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[4].seq, 4);
    }

    #[test]
    fn ring_sink_keeps_only_the_tail() {
        let sink = RingBufferSink::new(3);
        assert_eq!(sink.capacity(), 3);
        assert!(sink.keeps_trajectories());
        for i in 0..10 {
            sink.record(event(i as f64, i));
        }
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![7, 8, 9]);
    }

    #[test]
    fn noop_sink_drops_everything() {
        let sink = NoopSink;
        sink.record(event(0.0, 0));
        assert!(sink.is_empty());
        assert!(!sink.is_recording() && !sink.keeps_trajectories());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_ring_panics() {
        let _ = RingBufferSink::new(0);
    }
}
