//! Bounded flight recorder with anomaly-triggered post-mortems.
//!
//! A [`FlightRecorderSink`] keeps only the most recent `N` events *per
//! severity* — so a flood of routine info events can never evict the
//! warning/error context that explains a failure — and, when an anomaly
//! trigger fires (edge fallback, brown-out, conservation mismatch), dumps
//! the retained events as a `(t, seq)`-sorted JSONL post-mortem file. It
//! is the default sink for `pb sweep --faults`: memory stays bounded on
//! million-client runs, yet the first anomaly leaves a readable black box
//! behind.
//!
//! # Recording from many workers
//!
//! Sweeps record from every pool worker at once, so recording must not
//! serialise them. The recorder is split into `SHARDS` (8) shards, each
//! holding one ring per severity behind its own lock. A thread-local
//! index, handed out round-robin, pins each recording thread to one
//! shard: a worker locks only its own shard, and frees only events it
//! built itself.
//!
//! "Most recent" is decided by a per-severity recording ordinal (one
//! atomic counter each), not by which worker won a lock: an event is
//! retained iff its ordinal is among the last `N` handed out for its
//! severity. On one thread this is exactly a ring of `N` per severity.
//! A ring stores its events in chunks of `CHUNK` (64) and drops a chunk
//! whole once its newest event has left the window; readers filter the
//! rest by the same window. While every shard keeps recording, it holds
//! at most one partly stale chunk, so storage stays near `N` per severity
//! rather than `N` per shard. A shard whose thread stopped recording
//! keeps what was in the window when it stopped: the worst case is
//! `SHARDS × (N + CHUNK)` events per severity.
//!
//! Recording an event costs two relaxed atomic increments (the
//! telemetry sequence number and the ordinal), one uncontended lock and
//! a move into the chunk; the event's kind is a `'static` literal, so
//! nothing is allocated for it.
//!
//! # What reaches the recorder
//!
//! The recorder keeps the default [`EventSink::keeps_trajectories`]
//! (`false`): it receives every `fault.*`, `anomaly.*` and `trace.*`
//! event and each `des.cycle_done` summary, but no per-event DES
//! trajectory (`des.{arrival,transfer_done,process_done}`). Those
//! records never trigger a dump and would only churn the info ring, and
//! building them would force the DES off its O(m) replay. A recorded
//! sweep therefore replays like an unrecorded one; what it still pays
//! over `--no-flight` is building and storing the fault events the
//! pre-pass emits.

use crate::events::{Event, EventSink};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of recording shards. Threads beyond this share shards
/// round-robin, which costs contention, never correctness.
const SHARDS: usize = 8;

/// Events per storage chunk: the unit in which a ring frees memory.
/// Small, because each recording ring may hold one partly stale chunk;
/// large enough that rotating chunks is rare next to recording events.
const CHUNK: usize = 64;

/// Event severity, classified from the event kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Routine instrumentation (`des.*`, `trace.*`, `harvest.*`, …).
    Info,
    /// Degradation en route to recovery (`fault.outage`,
    /// `fault.packet_drop`, `fault.retry`).
    Warn,
    /// Terminal trouble: `fault.fallback` and every `anomaly.*` kind.
    Error,
}

impl Severity {
    /// Classifies an event kind. The scheme is prefix-based so new fault
    /// or anomaly kinds inherit sensible severities without registration.
    pub fn classify(kind: &str) -> Severity {
        if kind.starts_with("anomaly.") || kind == "fault.fallback" {
            Severity::Error
        } else if kind.starts_with("fault.") {
            Severity::Warn
        } else {
            Severity::Info
        }
    }

    fn index(self) -> usize {
        match self {
            Severity::Info => 0,
            Severity::Warn => 1,
            Severity::Error => 2,
        }
    }
}

/// True when an event kind should trip a post-mortem dump: retry
/// exhaustion / brown-out fallbacks (`fault.fallback`, including
/// `cause=brownout`) and every `anomaly.*` kind (e.g. the
/// `anomaly.conservation` mismatch emitted by `pb sweep`).
pub fn is_trigger(kind: &str) -> bool {
    kind == "fault.fallback" || kind.starts_with("anomaly.")
}

/// The shard the calling thread records into, fixed for its lifetime.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

/// Up to [`CHUNK`] events of one severity, each with its ordinal.
#[derive(Debug)]
struct Chunk {
    /// Highest ordinal in the chunk: the chunk leaves the window with it.
    newest: u64,
    events: Vec<(u64, Event)>,
}

/// One severity's events within one shard, oldest chunk first.
#[derive(Debug, Default)]
struct Ring {
    chunks: VecDeque<Chunk>,
    /// An emptied chunk kept for reuse, so a ring in steady state
    /// allocates no chunks.
    spare: Option<Chunk>,
}

impl Ring {
    /// Drops the chunks wholly older than `floor`, then appends.
    fn push(&mut self, ordinal: u64, event: Event, floor: u64) {
        while self.chunks.front().is_some_and(|c| c.newest < floor) {
            let mut stale = self.chunks.pop_front().expect("front chunk exists");
            stale.events.clear();
            stale.newest = 0;
            self.spare = Some(stale);
        }
        if self.chunks.back().is_none_or(|c| c.events.len() == CHUNK) {
            let chunk = self
                .spare
                .take()
                .unwrap_or_else(|| Chunk { newest: 0, events: Vec::with_capacity(CHUNK) });
            self.chunks.push_back(chunk);
        }
        let chunk = self.chunks.back_mut().expect("back chunk exists");
        chunk.newest = chunk.newest.max(ordinal);
        chunk.events.push((ordinal, event));
    }

    /// The stored events whose ordinal is at least `floor`.
    fn retained(&self, floor: u64) -> impl Iterator<Item = &Event> {
        self.chunks
            .iter()
            .flat_map(|c| &c.events)
            .filter(move |(ordinal, _)| *ordinal >= floor)
            .map(|(_, e)| e)
    }

    /// Events held in memory, in or out of the window.
    #[cfg(test)]
    fn stored(&self) -> usize {
        self.chunks.iter().map(|c| c.events.len()).sum()
    }
}

#[derive(Debug, Default)]
struct Shard {
    rings: [Ring; 3],
    /// The latest trigger recorded through this shard, numbered by the
    /// recorder-wide trigger count.
    last_trigger: Option<(u64, Cow<'static, str>)>,
}

/// A value on cache lines of its own, so one worker's writes to it do
/// not invalidate a neighbour's.
#[derive(Debug, Default)]
#[repr(align(128))]
struct CacheLine<T>(T);

impl CacheLine<Mutex<Shard>> {
    fn lock(&self) -> MutexGuard<'_, Shard> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A bounded per-severity event recorder with anomaly-triggered JSONL
/// dumps. See the module docs for the retention and trigger model.
#[derive(Debug)]
pub struct FlightRecorderSink {
    per_severity: usize,
    /// Events recorded so far per severity: the next recording ordinal.
    /// Relaxed suffices: a writer increments before it locks its shard,
    /// and readers load the counters while holding every shard lock.
    recorded: [CacheLine<AtomicU64>; 3],
    shards: [CacheLine<Mutex<Shard>>; SHARDS],
    dump_path: Option<String>,
    max_dumps: u64,
    dumps: AtomicU64,
    triggers: AtomicU64,
}

impl FlightRecorderSink {
    /// A recorder keeping the most recent `per_severity` events in each
    /// of the info/warn/error rings, with auto-dump disarmed.
    ///
    /// # Panics
    /// Panics when `per_severity` is zero.
    pub fn new(per_severity: usize) -> Self {
        assert!(per_severity > 0, "flight recorder capacity must be positive");
        FlightRecorderSink {
            per_severity,
            recorded: Default::default(),
            shards: Default::default(),
            dump_path: None,
            max_dumps: 0,
            dumps: AtomicU64::new(0),
            triggers: AtomicU64::new(0),
        }
    }

    /// Arms auto-dump: the first `max_dumps` trigger events each write
    /// the retained events to `path` (later triggers still count but stop
    /// rewriting, keeping the *first* anomaly's context on disk).
    pub fn with_auto_dump(mut self, path: impl Into<String>, max_dumps: u64) -> Self {
        self.dump_path = Some(path.into());
        self.max_dumps = max_dumps;
        self
    }

    /// Number of trigger events observed so far.
    pub fn triggers_fired(&self) -> u64 {
        self.triggers.load(Ordering::Relaxed)
    }

    /// Number of post-mortem dumps written so far.
    pub fn dumps_written(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Kind of the most recent trigger event, if any fired.
    pub fn last_trigger(&self) -> Option<String> {
        self.shards
            .iter()
            .filter_map(|s| s.lock().last_trigger.clone())
            .max_by_key(|(n, _)| *n)
            .map(|(_, kind)| kind.into_owned())
    }

    /// The auto-dump path, when armed.
    pub fn dump_path(&self) -> Option<&str> {
        self.dump_path.as_deref()
    }

    /// Retained events per severity: `(info, warn, error)`. Exact once
    /// recording has quiesced; the window is the last `N` ordinals.
    pub fn len_by_severity(&self) -> (usize, usize, usize) {
        let n = |i: usize| {
            let recorded = self.recorded[i].0.load(Ordering::Relaxed);
            recorded.min(self.per_severity as u64) as usize
        };
        (n(0), n(1), n(2))
    }

    /// Events held in memory, including out-of-window ones in chunks
    /// not yet dropped: the figure the memory bound is about.
    #[cfg(test)]
    fn stored(&self) -> usize {
        self.shards.iter().map(|s| s.lock().rings.iter().map(Ring::stored).sum::<usize>()).sum()
    }

    /// The lowest ordinal still in the window once `recorded` events of
    /// a severity have been handed out.
    fn floor(&self, recorded: u64) -> u64 {
        recorded.saturating_sub(self.per_severity as u64)
    }

    /// The retained events rendered as a `(t, seq)`-sorted JSONL
    /// post-mortem.
    pub fn dump_jsonl(&self) -> String {
        let mut events = self.events();
        events.sort_by(|a, b| a.t_sim.total_cmp(&b.t_sim).then(a.seq.cmp(&b.seq)));
        let mut out = String::new();
        for e in &events {
            e.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Writes the post-mortem to `path`; returns the number of lines.
    pub fn dump_to(&self, path: &str) -> std::io::Result<usize> {
        let dump = self.dump_jsonl();
        let lines = dump.lines().count();
        std::fs::write(path, dump)?;
        Ok(lines)
    }
}

impl EventSink for FlightRecorderSink {
    fn record(&self, event: Event) {
        let severity = Severity::classify(&event.kind).index();
        let trigger = is_trigger(&event.kind)
            .then(|| (self.triggers.fetch_add(1, Ordering::Relaxed), event.kind.clone()));
        let fired = trigger.is_some();
        let ordinal = self.recorded[severity].0.fetch_add(1, Ordering::Relaxed);
        {
            let mut shard = self.shards[shard_index()].lock();
            shard.rings[severity].push(ordinal, event, self.floor(ordinal + 1));
            if let Some((n, kind)) = trigger {
                if shard.last_trigger.as_ref().is_none_or(|(m, _)| *m < n) {
                    shard.last_trigger = Some((n, kind));
                }
            }
        }
        if fired {
            if let Some(path) = &self.dump_path {
                // First-wins within the dump budget: keep the context of
                // the earliest anomalies rather than churning the file on
                // every subsequent fallback.
                if self.dumps.load(Ordering::Relaxed) < self.max_dumps {
                    let n = self.dumps.fetch_add(1, Ordering::Relaxed);
                    if n < self.max_dumps {
                        let _ = self.dump_to(path);
                    }
                }
            }
        }
    }

    fn events(&self) -> Vec<Event> {
        // Every shard locked at once, then the window read: a snapshot
        // no writer can move while it is taken.
        let shards: Vec<MutexGuard<'_, Shard>> = self.shards.iter().map(CacheLine::lock).collect();
        let floors: [u64; 3] =
            std::array::from_fn(|i| self.floor(self.recorded[i].0.load(Ordering::Relaxed)));
        let mut all: Vec<Event> = shards
            .iter()
            .flat_map(|s| s.rings.iter().zip(floors).flat_map(|(ring, floor)| ring.retained(floor)))
            .cloned()
            .collect();
        all.sort_by_key(|e| e.seq);
        all
    }

    fn len(&self) -> usize {
        let (info, warn, error) = self.len_by_severity();
        info + warn + error
    }

    fn is_recording(&self) -> bool {
        true
    }
}

/// A shared flight recorder is still a sink: `pb sweep` hands the
/// telemetry layer one `Arc` clone and keeps the other to read trigger
/// state and write the final post-mortem after the run.
impl EventSink for Arc<FlightRecorderSink> {
    fn record(&self, event: Event) {
        self.as_ref().record(event);
    }

    fn events(&self) -> Vec<Event> {
        self.as_ref().events()
    }

    fn len(&self) -> usize {
        self.as_ref().len()
    }

    fn is_recording(&self) -> bool {
        self.as_ref().is_recording()
    }

    fn keeps_trajectories(&self) -> bool {
        self.as_ref().keeps_trajectories()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, seq: u64, kind: &str) -> Event {
        Event { t_sim: t, seq, kind: kind.to_string().into(), fields: vec![] }
    }

    #[test]
    fn severity_classification_is_prefix_based() {
        assert_eq!(Severity::classify("des.arrival"), Severity::Info);
        assert_eq!(Severity::classify("trace.sample"), Severity::Info);
        assert_eq!(Severity::classify("fault.retry"), Severity::Warn);
        assert_eq!(Severity::classify("fault.packet_drop"), Severity::Warn);
        assert_eq!(Severity::classify("fault.fallback"), Severity::Error);
        assert_eq!(Severity::classify("anomaly.conservation"), Severity::Error);
        assert_eq!(Severity::classify("anomaly.brownout"), Severity::Error);
        assert!(is_trigger("fault.fallback"));
        assert!(is_trigger("anomaly.conservation"));
        assert!(!is_trigger("fault.retry"));
    }

    #[test]
    fn rings_are_bounded_per_severity() {
        let sink = FlightRecorderSink::new(4);
        for i in 0..100u64 {
            sink.record(ev(i as f64, i, "des.arrival"));
        }
        for i in 100..110u64 {
            sink.record(ev(i as f64, i, "fault.retry"));
        }
        let (info, warn, error) = sink.len_by_severity();
        assert_eq!((info, warn, error), (4, 4, 0));
        assert_eq!(sink.len(), 8);
        // The info ring kept the *latest* events; the flood did not touch
        // the warn ring.
        let events = sink.events();
        assert!(events.iter().any(|e| e.seq == 99));
        assert!(!events.iter().any(|e| e.seq == 0));
    }

    #[test]
    fn triggers_count_and_dump_once() {
        let dir = std::env::temp_dir().join("pb_flight_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("postmortem.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        let _ = std::fs::remove_file(&path);

        let sink = FlightRecorderSink::new(16).with_auto_dump(&path_str, 1);
        sink.record(ev(1.0, 0, "des.arrival"));
        sink.record(ev(2.0, 1, "fault.retry"));
        assert_eq!(sink.triggers_fired(), 0);
        sink.record(ev(3.0, 2, "fault.fallback"));
        assert_eq!(sink.triggers_fired(), 1);
        assert_eq!(sink.last_trigger().as_deref(), Some("fault.fallback"));
        assert_eq!(sink.dumps_written(), 1);

        let dump = std::fs::read_to_string(&path).expect("post-mortem written");
        assert_eq!(dump.lines().count(), 3);
        assert!(dump.contains("fault.fallback"));

        // A later trigger counts but does not rewrite the first dump.
        sink.record(ev(4.0, 3, "anomaly.conservation"));
        assert_eq!(sink.triggers_fired(), 2);
        assert_eq!(sink.dumps_written(), 1);
        let again = std::fs::read_to_string(&path).unwrap();
        assert!(!again.contains("anomaly.conservation"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dump_is_time_sorted_across_rings() {
        let sink = FlightRecorderSink::new(8);
        sink.record(ev(5.0, 0, "des.arrival"));
        sink.record(ev(1.0, 1, "fault.retry"));
        sink.record(ev(3.0, 2, "fault.fallback"));
        let dump = sink.dump_jsonl();
        let ts: Vec<f64> = dump
            .lines()
            .map(|l| {
                crate::json::parse(l).unwrap().get("t").and_then(crate::json::Json::as_f64).unwrap()
            })
            .collect();
        assert_eq!(ts, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn arc_delegation_shares_state() {
        let arc = Arc::new(FlightRecorderSink::new(4));
        let sink: Box<dyn EventSink> = Box::new(Arc::clone(&arc));
        sink.record(ev(0.0, 0, "fault.fallback"));
        assert!(sink.is_recording());
        assert!(!sink.keeps_trajectories(), "the recorder takes no DES trajectories");
        assert_eq!(sink.len(), 1);
        assert_eq!(arc.triggers_fired(), 1);
    }

    #[test]
    fn stale_chunks_are_dropped_whole() {
        let sink = FlightRecorderSink::new(4);
        for i in 0..10_000u64 {
            sink.record(ev(i as f64, i, "des.arrival"));
        }
        assert_eq!(sink.len(), 4);
        // At most one partly stale chunk survives on a recording shard.
        let stored = sink.stored();
        assert!((4..=4 + CHUNK).contains(&stored), "stored {stored}");
        let seqs: Vec<u64> = sink.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![9996, 9997, 9998, 9999]);
    }

    #[test]
    fn last_trigger_is_the_latest_across_threads() {
        let sink = Arc::new(FlightRecorderSink::new(4));
        for (i, kind) in
            ["fault.fallback", "anomaly.brownout", "des.arrival"].into_iter().enumerate()
        {
            let sink = Arc::clone(&sink);
            std::thread::spawn(move || sink.record(ev(i as f64, i as u64, kind))).join().unwrap();
        }
        assert_eq!(sink.triggers_fired(), 2);
        assert_eq!(sink.last_trigger().as_deref(), Some("anomaly.brownout"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = FlightRecorderSink::new(0);
    }
}
