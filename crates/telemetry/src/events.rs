//! The structured simulation event log.
//!
//! An [`Event`] is a sim-time-stamped record — a kind plus typed fields —
//! serialized as one JSON object per line (JSONL). Sinks decide what
//! happens to recorded events: kept unbounded ([`BufferSink`]), kept
//! bounded ([`RingBufferSink`]) or dropped ([`NoopSink`]).
//!
//! Building an event allocates nothing on the common path: the kind is
//! a `'static` literal, a one-field event keeps its field inline, a
//! fixed-layout record of up to [`PACKED`] run-time numbers keeps them
//! inline under a static [`Schema`] ([`Fields`]), and constant text
//! values borrow their literal ([`Value::Str`]). JSON is rendered only
//! by the exporters and the flight recorder's dump.
//!
//! # Order
//!
//! While recording, [`Event::seq`] holds the event's *key*: its task's
//! position in the tree of parallel operations plus the task's step
//! count ([`rayon::pool::next_key`]). Keys order events as they would
//! be recorded at thread cap 1, whichever worker recorded them, and
//! taking one writes nothing another worker writes. Exports
//! ([`sort_for_export`]) replace each key by the event's rank in key
//! order, so the `seq` a trace prints is the same at any thread count.

use crate::json;
use std::borrow::Cow;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
    /// String. Constant text (`"brownout"`, a state label) borrows its
    /// `'static` literal, so the value allocates nothing; text built at
    /// run time arrives as a `String` and is owned.
    Str(Cow<'static, str>),
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

impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Str(Cow::Borrowed(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Cow::Owned(v))
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

/// One named field of an event.
type Field = (&'static str, Value);

/// Run-time values a [`Schema`] payload holds inline.
pub const PACKED: usize = 5;

/// How one field of a [`Schema`] reads back.
#[derive(Debug)]
pub enum Slot {
    /// An unsigned integer supplied at run time.
    U64,
    /// A float supplied at run time.
    F64,
    /// A value the schema fixes, such as a cause label.
    Fixed(Value),
}

/// The field names and slot types of a fixed-layout record, declared
/// once as a `static` and shared by every event of its kind. At most
/// [`PACKED`] of its slots may be run-time ones.
#[derive(Debug)]
pub struct Schema(pub &'static [(&'static str, Slot)]);

/// An event's extra fields: a small list that keeps one field, or a
/// [`Schema`] record, inline and spills any other list of two or more
/// to a `Vec`.
///
/// Most hot-path events (`fault.retry`, `fault.outage`,
/// `fault.packet_drop`, `fault.fallback`) carry exactly one field, and
/// the multi-field records a faulted sweep keeps (the brown-out
/// `fault.fallback`, `des.cycle_done`) are [`Fields::packed`], so
/// recording them allocates nothing. Iteration yields `(name, value)`
/// pairs in order; `Debug` and `PartialEq` are the pair list's, so an
/// event prints and compares the same whichever way its fields are
/// held. Build one from an array (`[("attempt", 1u64.into())]`, no
/// allocation for up to one field), from a `Vec`, or with
/// [`Fields::packed`].
#[derive(Clone, Default)]
pub struct Fields(Repr);

#[derive(Clone, Default)]
enum Repr {
    #[default]
    Empty,
    One(Field),
    Many(Vec<Field>),
    Packed(&'static Schema, [u64; PACKED]),
}

impl Fields {
    /// A [`Schema`] record: `values` fill the schema's run-time slots
    /// in order and are held inline, however many fields the schema
    /// names.
    ///
    /// # Panics
    /// Panics when `values` do not match the run-time slots in number
    /// or type.
    pub fn packed<const N: usize>(schema: &'static Schema, values: [Value; N]) -> Fields {
        let mut raw = [0u64; PACKED];
        let mut values = values.into_iter();
        let slots = schema.0.iter().filter(|(_, slot)| !matches!(slot, Slot::Fixed(_)));
        for ((name, slot), bits) in slots.zip(&mut raw) {
            *bits = match (slot, values.next()) {
                (Slot::U64, Some(Value::U64(v))) => v,
                (Slot::F64, Some(Value::F64(v))) => v.to_bits(),
                (slot, v) => panic!("field {name}: {v:?} does not fill a {slot:?} slot"),
            };
        }
        assert!(values.next().is_none(), "more values than the schema's run-time slots");
        Fields(Repr::Packed(schema, raw))
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Empty => 0,
            Repr::One(_) => 1,
            Repr::Many(all) => all.len(),
            Repr::Packed(schema, _) => schema.0.len(),
        }
    }

    /// True when the event has no extra fields.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `(name, value)` pairs, in order. Stored values are borrowed;
    /// a [`Schema`] record's run-time values are decoded.
    pub fn iter(&self) -> Iter<'_> {
        Iter { fields: self, next: 0, raw: 0 }
    }

    /// The value of the first field named `name`.
    pub fn get(&self, name: &str) -> Option<Cow<'_, Value>> {
        self.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    /// Appends a field; a second field, or one added to a [`Schema`]
    /// record, spills the list to the heap.
    pub fn push(&mut self, field: Field) {
        self.0 = match std::mem::take(&mut self.0) {
            Repr::Empty => Repr::One(field),
            Repr::One(first) => Repr::Many(vec![first, field]),
            Repr::Many(mut all) => {
                all.push(field);
                Repr::Many(all)
            }
            packed @ Repr::Packed(..) => {
                let mut all: Vec<Field> =
                    Fields(packed).iter().map(|(k, v)| (k, v.into_owned())).collect();
                all.push(field);
                Repr::Many(all)
            }
        };
    }
}

/// Iterator over an event's `(name, value)` pairs ([`Fields::iter`]).
#[derive(Debug)]
pub struct Iter<'a> {
    fields: &'a Fields,
    next: usize,
    raw: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'static str, Cow<'a, Value>);

    fn next(&mut self) -> Option<Self::Item> {
        let i = self.next;
        self.next += 1;
        match &self.fields.0 {
            Repr::Empty => None,
            Repr::One((k, v)) => (i == 0).then_some((*k, Cow::Borrowed(v))),
            Repr::Many(all) => all.get(i).map(|(k, v)| (*k, Cow::Borrowed(v))),
            Repr::Packed(schema, raw) => {
                let (name, slot) = schema.0.get(i)?;
                let value = match slot {
                    Slot::Fixed(v) => return Some((name, Cow::Borrowed(v))),
                    Slot::U64 => Value::U64(raw[self.raw]),
                    Slot::F64 => Value::F64(f64::from_bits(raw[self.raw])),
                };
                self.raw += 1;
                Some((name, Cow::Owned(value)))
            }
        }
    }
}

impl<'a> IntoIterator for &'a Fields {
    type Item = (&'static str, Cow<'a, Value>);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for Fields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for Fields {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl From<Vec<Field>> for Fields {
    fn from(mut all: Vec<Field>) -> Self {
        Fields(match all.len() {
            0 => Repr::Empty,
            1 => Repr::One(all.pop().expect("one field")),
            _ => Repr::Many(all),
        })
    }
}

impl<const N: usize> From<[Field; N]> for Fields {
    fn from(fields: [Field; N]) -> Self {
        if N > 1 {
            return Fields(Repr::Many(Vec::from(fields)));
        }
        Fields(fields.into_iter().next().map_or(Repr::Empty, Repr::One))
    }
}

/// One sim-time-stamped record of the event log.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Simulation timestamp in seconds (`"t"` in JSONL).
    pub t_sim: f64,
    /// Order within equal times (`"seq"` in JSONL). While recording it
    /// is the event's key ([`rayon::pool::next_key`]); in an export
    /// ([`sort_for_export`]) it is the event's rank in key order.
    pub seq: u64,
    /// Event type, dot-namespaced by layer (e.g. `"des.arrival"`).
    /// Recorded events borrow a `'static` literal, so recording one
    /// allocates nothing for its kind; an owned kind (built at run time,
    /// e.g. parsed back from JSONL) is `Cow::Owned`.
    pub kind: Cow<'static, str>,
    /// Extra fields, flattened into the JSONL object.
    pub fields: Fields,
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

/// Puts events in export order: each `seq` (a key) becomes the event's
/// rank in key order, then events sort by `(t, rank)`. Equal keys keep
/// their given order. Ranking is idempotent, so events that already
/// carry ranks keep them.
pub fn sort_for_export(events: &mut [Event]) {
    events.sort_by_key(|e| e.seq);
    for (rank, e) in events.iter_mut().enumerate() {
        e.seq = rank as u64;
    }
    events.sort_by(|a, b| a.t_sim.total_cmp(&b.t_sim).then(a.seq.cmp(&b.seq)));
}

/// Renders events as JSONL in export order ([`sort_for_export`]).
pub fn export_jsonl(mut events: Vec<Event>) -> String {
    sort_for_export(&mut events);
    let mut out = String::new();
    for e in &events {
        e.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// The recording shard of the calling thread, fixed for its lifetime:
/// threads are handed indices round-robin, so up to `shards` threads
/// record into distinct shards.
pub(crate) fn shard_index(shards: usize) -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SHARD.with(|s| *s) % shards
}

/// One shard of a sharded sink: a value on cache lines of its own, so
/// one worker's writes to it do not invalidate a neighbour's, behind a
/// spin lock. A shard's lock is almost always taken by the one thread
/// that records into it, so it is rarely contended; taking it costs one
/// atomic read-modify-write and releasing it a plain store, where a
/// `Mutex` release is a second read-modify-write (about 10% of
/// perfbench's recorded point on a 2-vCPU guest).
#[derive(Default)]
#[repr(align(128))]
pub(crate) struct Shard<T> {
    locked: AtomicBool,
    value: UnsafeCell<T>,
}

// SAFETY: `locked` is an atomic. `value` is reached only through a
// `ShardGuard`, which exists only while `locked` is held, and the lock
// admits one guard at a time, so no two threads touch `value` at once;
// `T: Send` lets the guard's thread use and drop a value another
// thread stored.
unsafe impl<T: Send> Sync for Shard<T> {}

impl<T> Shard<T> {
    /// Locks the shard, spinning briefly and then yielding while another
    /// thread (a reader, or a recorder sharing the shard) holds it.
    pub(crate) fn lock(&self) -> ShardGuard<'_, T> {
        while self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            let mut spins = 0u32;
            while self.locked.load(Ordering::Relaxed) {
                if spins < 64 {
                    std::hint::spin_loop();
                    spins += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        }
        ShardGuard { shard: self }
    }
}

impl<T: fmt::Debug> fmt::Debug for Shard<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.lock(), f)
    }
}

/// Exclusive access to a [`Shard`]'s value; unlocks on drop, also when
/// unwinding, leaving the value as the panicking writer left it.
pub(crate) struct ShardGuard<'a, T> {
    shard: &'a Shard<T>,
}

impl<T> std::ops::Deref for ShardGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the guard holds the shard's lock.
        unsafe { &*self.shard.value.get() }
    }
}

impl<T> std::ops::DerefMut for ShardGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard holds the shard's lock, and `&mut self`
        // makes this the only reference through it.
        unsafe { &mut *self.shard.value.get() }
    }
}

impl<T> Drop for ShardGuard<'_, T> {
    fn drop(&mut self) {
        self.shard.locked.store(false, Ordering::Release);
    }
}

/// Destination of recorded events. Implementations must be safe to share
/// across threads (sweeps record from rayon workers).
pub trait EventSink: Send + Sync + fmt::Debug {
    /// Accepts one event.
    fn record(&self, event: Event);

    /// A snapshot of the retained events. The workspace's sinks return
    /// them in key order (`seq` ascending), except [`RingBufferSink`],
    /// which returns its arrival order.
    fn events(&self) -> Vec<Event>;

    /// Number of retained events.
    fn len(&self) -> usize;

    /// True when no events are retained.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when recorded events are actually kept. Callers use this to
    /// skip building field vectors for sinks that drop everything.
    /// [`crate::Telemetry`] reads it once, when the handle is built, so
    /// the answer must not change over the sink's lifetime; the same
    /// holds for [`EventSink::keeps_trajectories`].
    fn is_recording(&self) -> bool {
        true
    }

    /// True when the sink wants every per-event simulation trajectory —
    /// the DES's `des.{arrival,transfer_done,process_done}` records —
    /// and not only the events the fault pre-pass and the cycle summary
    /// emit. Only then does the DES rebuild those records from its
    /// replay. The default is `false`: a sink keeps what reaches it,
    /// and trace exports opt in ([`BufferSink`], [`RingBufferSink`]).
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

/// Shards of a [`BufferSink`].
const BUFFER_SHARDS: usize = 8;

/// Keeps every event in memory — the sink behind JSONL trace export.
///
/// Each recording thread appends to its own shard (threads past
/// `BUFFER_SHARDS` share them round-robin), so workers recording at
/// once do not contend for one lock. Reads merge the shards in key
/// order.
#[derive(Debug, Default)]
pub struct BufferSink {
    shards: [Shard<Vec<Event>>; BUFFER_SHARDS],
}

impl BufferSink {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EventSink for BufferSink {
    fn record(&self, event: Event) {
        self.shards[shard_index(BUFFER_SHARDS)].lock().push(event);
    }

    fn events(&self) -> Vec<Event> {
        let mut all: Vec<Event> = self.shards.iter().flat_map(|s| s.lock().clone()).collect();
        all.sort_by_key(|e| e.seq);
        all
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
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
            fields: vec![("n", 3usize.into()), ("ok", true.into())].into(),
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
            ]
            .into(),
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
            fields: vec![("trace", Value::Hex(id)), ("zero", Value::Hex(0))].into(),
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
    fn fields_print_and_compare_as_their_slice() {
        let one: Fields = [("attempt", Value::U64(1))].into();
        let from_vec: Fields = vec![("attempt", Value::U64(1))].into();
        assert_eq!(one, from_vec);
        assert_eq!(format!("{one:?}"), format!("{:?}", vec![("attempt", Value::U64(1))]));
        assert!(Fields::default().is_empty());

        let mut grown = one.clone();
        grown.push(("client", Value::U64(7)));
        grown.push(("cause", "outage".into()));
        let expect = vec![
            ("attempt", Value::U64(1)),
            ("client", Value::U64(7)),
            ("cause", Value::from(String::from("outage"))),
        ];
        let pairs: Vec<Field> = grown.iter().map(|(k, v)| (k, v.into_owned())).collect();
        assert_eq!(pairs, expect, "a borrowed string equals an owned one");
        assert_eq!(format!("{grown:?}"), format!("{expect:?}"));
        assert_eq!(Fields::from(expect), grown);
    }

    static FALLBACK: Schema = Schema(&[
        ("t0", Slot::F64),
        ("attempts", Slot::Fixed(Value::U64(0))),
        ("cause", Slot::Fixed(Value::Str(Cow::Borrowed("brownout")))),
        ("client", Slot::U64),
    ]);

    #[test]
    fn packed_fields_read_back_as_the_list_they_stand_for() {
        let packed = Fields::packed(&FALLBACK, [2.5f64.into(), 7u64.into()]);
        let list: Fields = vec![
            ("t0", Value::F64(2.5)),
            ("attempts", Value::U64(0)),
            ("cause", "brownout".into()),
            ("client", Value::U64(7)),
        ]
        .into();
        assert_eq!(packed, list);
        assert_eq!(format!("{packed:?}"), format!("{list:?}"));
        assert_eq!(packed.len(), 4);
        assert_eq!(packed.get("client").as_deref(), Some(&Value::U64(7)));
        let e = |fields| Event { t_sim: 2.5, seq: 0, kind: "fault.fallback".into(), fields };
        assert_eq!(e(packed.clone()).to_json(), e(list.clone()).to_json());

        let mut grown = packed;
        grown.push(("span", Value::Hex(1)));
        let mut grown_list = list;
        grown_list.push(("span", Value::Hex(1)));
        assert_eq!(grown, grown_list);
    }

    #[test]
    #[should_panic(expected = "does not fill")]
    fn packed_fields_check_their_slot_types() {
        let _ = Fields::packed(&FALLBACK, [7u64.into(), 7u64.into()]);
    }

    #[test]
    fn exports_print_ranks_in_key_order() {
        // Keys far apart, recorded out of order, two at one instant.
        let mut events = vec![event(1.0, 9 << 60), event(0.5, 3 << 40), event(1.0, 5)];
        sort_for_export(&mut events);
        let got: Vec<(f64, u64)> = events.iter().map(|e| (e.t_sim, e.seq)).collect();
        assert_eq!(got, vec![(0.5, 1), (1.0, 0), (1.0, 2)]);
        let again = events.clone();
        sort_for_export(&mut events);
        assert_eq!(events, again, "ranking is idempotent");
    }

    #[test]
    fn buffer_sink_merges_its_shards_in_key_order() {
        let sink = std::sync::Arc::new(BufferSink::new());
        std::thread::scope(|scope| {
            for parity in 0..2u64 {
                let sink = std::sync::Arc::clone(&sink);
                scope.spawn(move || {
                    for i in (parity..20).step_by(2) {
                        sink.record(event(i as f64, i));
                    }
                });
            }
        });
        let seqs: Vec<u64> = sink.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..20).collect::<Vec<_>>());
        assert_eq!(sink.len(), 20);
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
