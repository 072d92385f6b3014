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
//! Recording writes nothing that another shard's worker writes. The
//! window is the `N` events with the highest keys per severity: an
//! event's `seq` while recording is its task position
//! ([`crate::events`] § Order), which needs no shared counter, and the
//! window does not depend on which worker ran which task. Each ring
//! keeps the `N` highest keys *it* has seen, in key order, in chunks of
//! `CHUNK` (64) recycled through one spare chunk, and drops its lowest
//! chunk whole once the chunks above it hold `N` events on their own.
//! [`EventSink::events`] and the dump merge every shard's rings and
//! keep, per severity, the `N` highest keys. Each shard holds at least
//! its own top `N`, so the merge always finds the window, and
//! [`FlightRecorderSink::len_by_severity`] is exactly
//! `min(N, events stored)`.
//!
//! A thread records its own tasks' steps in key order, so a ring
//! almost always appends. An event below the ring's highest key (the
//! thread moved on to a chunk of an earlier task, or threads beyond
//! `SHARDS` share the shard) is inserted at its place, splitting a full
//! chunk if need be, or is dropped at once when the ring already holds
//! `N` higher keys. The final window is therefore the same at any
//! thread count; what an auto-dump sees depends on how far each worker
//! had got when the first trigger fired.
//!
//! Memory: every ring holds fewer than `N + CHUNK` events. A run that
//! records from `k` shards holds up to `k × (N + CHUNK)` events per
//! severity, and the worst case, every shard recording, is
//! `SHARDS × (N + CHUNK)`.
//!
//! Recording an event costs one uncontended lock and a move into the
//! chunk. It allocates nothing in steady state: the event's kind is a
//! `'static` literal, a one-field or packed event carries its fields
//! inline, and chunks are reused. A trigger event also reads the dump
//! budget.
//!
//! # What reaches the recorder
//!
//! The recorder keeps the default [`EventSink::keeps_trajectories`]
//! (`false`): it receives every `fault.*`, `anomaly.*` and `trace.*`
//! event and each `des.cycle_done` summary, but no per-event DES
//! trajectory (`des.{arrival,transfer_done,process_done}`). Those
//! records never trigger a dump and would only churn the info ring. A
//! recorded sweep therefore simulates exactly as an unrecorded one;
//! what it adds is building and storing the fault events the pre-pass
//! emits.

use crate::events::{export_jsonl, shard_index, Event, EventSink, Shard, ShardGuard};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of recording shards. Threads beyond this share shards
/// round-robin, which costs contention and memory, not the window's size.
pub const SHARDS: usize = 8;

/// Events per storage chunk: the unit in which a ring frees memory.
/// Small, because each recording ring may hold one chunk beyond its
/// window; large enough that rotating chunks is rare next to recording
/// events.
pub const CHUNK: usize = 64;

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
/// `anomaly.conservation` mismatch emitted by `pb sweep`): the
/// [`Severity::Error`] kinds.
pub fn is_trigger(kind: &str) -> bool {
    Severity::classify(kind) == Severity::Error
}

/// Locks a mutex, shrugging off poisoning: a panicking writer leaves the
/// dump log valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One severity's highest-keyed events within one shard, in key order:
/// every event of a chunk keys at or below every event of the next.
/// Chunks are never empty.
#[derive(Debug)]
struct Ring {
    chunks: VecDeque<Vec<Event>>,
    /// Events held across `chunks`.
    stored: usize,
    /// `stored` at which the lowest chunk drops: the window plus the
    /// lowest chunk's length, or never while there is one chunk.
    limit: usize,
    /// The highest key held.
    top: u64,
    /// An emptied chunk kept for reuse, so a ring in steady state
    /// allocates no chunks.
    spare: Option<Vec<Event>>,
}

impl Default for Ring {
    fn default() -> Self {
        Ring { chunks: VecDeque::new(), stored: 0, limit: usize::MAX, top: 0, spare: None }
    }
}

impl Ring {
    /// Takes `event` into the ring's top `n` keys, then drops the lowest
    /// chunk once the chunks above it hold `n` events without it.
    fn push(&mut self, event: Event, n: usize) {
        let key = event.seq;
        if key < self.top {
            if !self.insert(event, n) {
                return;
            }
        } else {
            self.top = key;
            match self.chunks.back_mut() {
                Some(back) if back.len() < CHUNK => back.push(event),
                _ => {
                    let mut chunk = self.spare.take().unwrap_or_else(|| Vec::with_capacity(CHUNK));
                    chunk.push(event);
                    self.chunks.push_back(chunk);
                    self.relimit(n);
                }
            }
        }
        self.stored += 1;
        while self.stored >= self.limit {
            let mut stale = self.chunks.pop_front().expect("lowest chunk exists");
            self.stored -= stale.len();
            stale.clear();
            self.spare = Some(stale);
            self.relimit(n);
        }
    }

    fn relimit(&mut self, n: usize) {
        self.limit = match (self.chunks.len(), self.chunks.front()) {
            (2.., Some(lowest)) => n + lowest.len(),
            _ => usize::MAX,
        };
    }

    /// Places an event that keys below the ring's highest; false when
    /// the ring already holds `n` higher keys, so it is not kept.
    fn insert(&mut self, event: Event, n: usize) -> bool {
        let key = event.seq;
        if self.stored >= n && key < self.chunks[0][0].seq {
            return false;
        }
        let i = self.chunks.partition_point(|c| c[0].seq <= key).saturating_sub(1);
        let at = self.chunks[i].partition_point(|e| e.seq <= key);
        if self.chunks[i].len() < CHUNK {
            self.chunks[i].insert(at, event);
        } else {
            let mut above = self.spare.take().unwrap_or_else(|| Vec::with_capacity(CHUNK));
            above.extend(self.chunks[i].drain(at..));
            let below = if above.is_empty() { &mut above } else { &mut self.chunks[i] };
            below.push(event);
            self.chunks.insert(i + 1, above);
        }
        self.relimit(n);
        true
    }

    fn iter(&self) -> impl Iterator<Item = &Event> {
        self.chunks.iter().flatten()
    }
}

#[derive(Debug, Default)]
struct Rings {
    rings: [Ring; 3],
    /// Trigger events recorded through this shard.
    triggers: u64,
    /// The highest-keyed trigger recorded through this shard.
    last_trigger: Option<(u64, Cow<'static, str>)>,
}

/// What the auto-dump has done so far.
#[derive(Debug, Default)]
struct DumpLog {
    /// Post-mortems written successfully.
    written: u64,
    /// Kind of the trigger behind the post-mortem on disk.
    cause: Option<Cow<'static, str>>,
    /// The first failed write.
    error: Option<std::io::Error>,
}

/// A bounded per-severity event recorder with anomaly-triggered JSONL
/// dumps. See the module docs for the retention and trigger model.
#[derive(Debug)]
pub struct FlightRecorderSink {
    per_severity: usize,
    shards: [Shard<Rings>; SHARDS],
    dump_path: Option<String>,
    max_dumps: u64,
    /// Dump slots taken: a trigger writes a post-mortem only while this
    /// is below `max_dumps`, so past the budget triggers only read it.
    dump_attempts: AtomicU64,
    /// Held across each write, so the log describes the file on disk.
    dumps: Mutex<DumpLog>,
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
            shards: Default::default(),
            dump_path: None,
            max_dumps: 0,
            dump_attempts: AtomicU64::new(0),
            dumps: Mutex::default(),
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

    fn lock_shards(&self) -> Vec<ShardGuard<'_, Rings>> {
        self.shards.iter().map(Shard::lock).collect()
    }

    /// Number of trigger events observed so far.
    pub fn triggers_fired(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().triggers).sum()
    }

    /// Number of post-mortem dumps written successfully so far. A write
    /// that failed is not counted; see [`Self::dump_error`].
    pub fn dumps_written(&self) -> u64 {
        lock(&self.dumps).written
    }

    /// Kind of the trigger whose post-mortem is on disk: the one that
    /// caused the latest successful dump (with a budget of one dump, the
    /// first trigger). [`Self::last_trigger`] is the latest trigger seen.
    pub fn dump_cause(&self) -> Option<String> {
        lock(&self.dumps).cause.as_deref().map(str::to_owned)
    }

    /// The first failed post-mortem write, rendered, if any failed.
    pub fn dump_error(&self) -> Option<String> {
        lock(&self.dumps).error.as_ref().map(ToString::to_string)
    }

    /// Kind of the latest trigger event in key order (the highest key),
    /// if any fired: the same at any thread count.
    pub fn last_trigger(&self) -> Option<String> {
        self.lock_shards()
            .iter()
            .filter_map(|s| s.last_trigger.clone())
            .max_by_key(|(seq, _)| *seq)
            .map(|(_, kind)| kind.into_owned())
    }

    /// The auto-dump path, when armed.
    pub fn dump_path(&self) -> Option<&str> {
        self.dump_path.as_deref()
    }

    /// Retained events per severity: `(info, warn, error)`. Exact once
    /// recording has quiesced: `min(N, stored)`, since every shard holds
    /// at least its own last `N`.
    pub fn len_by_severity(&self) -> (usize, usize, usize) {
        let (info, warn, error) = self.stored_by_severity();
        let n = self.per_severity;
        (info.min(n), warn.min(n), error.min(n))
    }

    /// Events held in memory per severity, `(info, warn, error)`,
    /// including those outside the window that a shard has not dropped
    /// yet: the figure the memory bound is about.
    pub fn stored_by_severity(&self) -> (usize, usize, usize) {
        let mut stored = [0; 3];
        for shard in self.lock_shards() {
            for (total, ring) in stored.iter_mut().zip(&shard.rings) {
                *total += ring.stored;
            }
        }
        (stored[0], stored[1], stored[2])
    }

    /// The retained events rendered as a JSONL post-mortem in export
    /// order: `seq` is each event's rank in key order among the
    /// retained events, and lines sort by `(t, seq)`.
    pub fn dump_jsonl(&self) -> String {
        export_jsonl(self.events())
    }

    /// Writes the post-mortem to `path`; returns the number of lines.
    pub fn dump_to(&self, path: &str) -> std::io::Result<usize> {
        let dump = self.dump_jsonl();
        let lines = dump.lines().count();
        std::fs::write(path, dump)?;
        Ok(lines)
    }

    /// Writes the auto-dump for a trigger of kind `cause`, while the
    /// dump budget lasts. First-wins: keep the context of the earliest
    /// anomalies rather than churning the file on every later fallback.
    fn auto_dump(&self, cause: Cow<'static, str>) {
        let Some(path) = &self.dump_path else { return };
        if self.dump_attempts.load(Ordering::Relaxed) >= self.max_dumps
            || self.dump_attempts.fetch_add(1, Ordering::Relaxed) >= self.max_dumps
        {
            return;
        }
        let mut log = lock(&self.dumps);
        match self.dump_to(path) {
            Ok(_) => {
                log.written += 1;
                log.cause = Some(cause);
            }
            Err(e) => {
                log.error.get_or_insert(e);
            }
        }
    }
}

impl EventSink for FlightRecorderSink {
    fn record(&self, event: Event) {
        let severity = Severity::classify(&event.kind);
        // The error kinds are exactly the triggers ([`is_trigger`]).
        let trigger = (severity == Severity::Error).then(|| (event.seq, event.kind.clone()));
        let severity = severity.index();
        {
            let mut shard = self.shards[shard_index(SHARDS)].lock();
            shard.rings[severity].push(event, self.per_severity);
            if let Some((seq, kind)) = &trigger {
                shard.triggers += 1;
                if shard.last_trigger.as_ref().is_none_or(|(newest, _)| newest < seq) {
                    shard.last_trigger = Some((*seq, kind.clone()));
                }
            }
        }
        if let Some((_, kind)) = trigger {
            self.auto_dump(kind);
        }
    }

    fn events(&self) -> Vec<Event> {
        // Every shard locked at once: a snapshot no writer can move
        // while it is taken. Per severity, the window is the `N`
        // highest keys across the shards.
        let shards = self.lock_shards();
        let mut all = Vec::new();
        for severity in 0..3 {
            let mut stored: Vec<&Event> =
                shards.iter().flat_map(|s| s.rings[severity].iter()).collect();
            let cut = stored.len().saturating_sub(self.per_severity);
            if cut > 0 {
                stored.select_nth_unstable_by_key(cut, |e| e.seq);
            }
            all.extend(stored[cut..].iter().map(|&e| e.clone()));
        }
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
        Event { t_sim: t, seq, kind: kind.to_string().into(), fields: Default::default() }
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
        let stored = sink.stored_by_severity().0;
        assert!((4..=4 + CHUNK).contains(&stored), "stored {stored}");
        let seqs: Vec<u64> = sink.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![9996, 9997, 9998, 9999]);
    }

    #[test]
    fn last_trigger_is_the_latest_across_threads() {
        // Recorded from three threads in the reverse of key order: the
        // latest trigger is the highest key, not the last one recorded.
        let sink = Arc::new(FlightRecorderSink::new(4));
        let kinds = ["fault.fallback", "anomaly.brownout", "des.arrival"];
        for (key, kind) in kinds.into_iter().enumerate().rev() {
            let sink = Arc::clone(&sink);
            std::thread::spawn(move || sink.record(ev(key as f64, key as u64, kind)))
                .join()
                .unwrap();
        }
        assert_eq!(sink.triggers_fired(), 2);
        assert_eq!(sink.last_trigger().as_deref(), Some("anomaly.brownout"));
    }

    #[test]
    fn the_dump_cause_is_the_first_trigger_not_the_last() {
        let path = std::env::temp_dir()
            .join(format!("pb_flight_cause_{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let sink = FlightRecorderSink::new(8).with_auto_dump(&path, 1);
        assert_eq!(sink.dump_cause(), None);
        sink.record(ev(1.0, 0, "fault.fallback"));
        sink.record(ev(2.0, 1, "anomaly.conservation"));
        let _ = std::fs::remove_file(&path);
        assert_eq!(sink.dumps_written(), 1);
        assert_eq!(sink.dump_cause().as_deref(), Some("fault.fallback"));
        assert_eq!(sink.last_trigger().as_deref(), Some("anomaly.conservation"));
        assert_eq!(sink.dump_error(), None);
    }

    #[test]
    fn a_failed_dump_is_kept_as_an_error_not_counted_as_written() {
        // A path under a regular file cannot be created.
        let file = std::env::temp_dir().join(format!("pb_flight_file_{}", std::process::id()));
        std::fs::write(&file, "not a directory").unwrap();
        let path = file.join("x.jsonl").to_string_lossy().into_owned();
        let sink = FlightRecorderSink::new(8).with_auto_dump(&path, 2);
        sink.record(ev(1.0, 0, "fault.fallback"));
        sink.record(ev(2.0, 1, "fault.fallback"));
        sink.record(ev(3.0, 2, "fault.fallback"));
        let _ = std::fs::remove_file(&file);
        assert_eq!(sink.triggers_fired(), 3);
        assert_eq!(sink.dumps_written(), 0, "no post-mortem reached the disk");
        assert_eq!(sink.dump_cause(), None);
        let error = sink.dump_error().expect("the first write error is kept");
        assert!(!error.is_empty());
    }

    #[test]
    fn reads_merge_the_shards_and_cut_each_severity_by_key() {
        // Two threads, interleaved in key order, each storing all it
        // wrote (fewer than a chunk): the read keeps the 4 highest keys.
        let sink = Arc::new(FlightRecorderSink::new(4));
        for parity in 0..2u64 {
            let sink = Arc::clone(&sink);
            std::thread::spawn(move || {
                for i in (parity..20).step_by(2) {
                    sink.record(ev(i as f64, i, "fault.retry"));
                }
            })
            .join()
            .unwrap();
        }
        assert_eq!(sink.len_by_severity(), (0, 4, 0));
        let keys: Vec<u64> = sink.events().iter().map(|e| e.seq).collect();
        assert_eq!(keys, vec![16, 17, 18, 19]);
        assert_eq!(sink.stored_by_severity(), (0, 20, 0), "each shard still holds its chunk");
    }

    #[test]
    fn a_ring_keeps_its_highest_keys_whatever_order_they_arrive_in() {
        // One thread, keys in a scrambled order with repeats: the ring
        // inserts below its top, splits full chunks, drops what falls
        // under `n` higher keys, and stays under `n + CHUNK` events.
        let n = 150;
        let sink = FlightRecorderSink::new(n);
        let keys: Vec<u64> = (0..2_000u64).map(|i| (i * 7919) % 1_009).collect();
        for &key in &keys {
            sink.record(ev(key as f64, key, "fault.retry"));
            assert!(sink.stored_by_severity().1 < n + CHUNK);
        }
        let mut want = keys.clone();
        want.sort_unstable();
        let got: Vec<u64> = sink.events().iter().map(|e| e.seq).collect();
        assert_eq!(got, want[want.len() - n..]);
    }

    #[test]
    fn the_dump_prints_ranks_in_key_order() {
        let sink = FlightRecorderSink::new(8);
        sink.record(ev(2.0, 1 << 62, "fault.retry"));
        sink.record(ev(2.0, 1 << 40, "fault.fallback"));
        sink.record(ev(1.0, 1 << 63, "des.cycle_done"));
        let lines: Vec<(f64, f64)> = sink
            .dump_jsonl()
            .lines()
            .map(|l| {
                let v = crate::json::parse(l).unwrap();
                let num = |k| v.get(k).and_then(crate::json::Json::as_f64).unwrap();
                (num("t"), num("seq"))
            })
            .collect();
        assert_eq!(lines, vec![(1.0, 2.0), (2.0, 0.0), (2.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = FlightRecorderSink::new(0);
    }
}
