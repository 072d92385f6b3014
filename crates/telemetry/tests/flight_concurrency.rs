//! `FlightRecorderSink` concurrency properties.
//!
//! Writers on the persistent pool hammer one shared recorder through a
//! `Telemetry` handle, in rounds. Whatever the interleaving, the
//! recorder must uphold:
//!
//! 1. **Exact window**: per severity, exactly `min(N, total)` events are
//!    retained, and they are the `N` with the highest keys. An event's
//!    key is its place in the task tree: each round is one parallel
//!    operation, each writer one chunk of it, so keys order events by
//!    `(round, writer, index)` whichever worker ran which writer. The
//!    retained set is exactly the top `min(N, total)` in that order, and
//!    `events()` lists it in that order.
//! 2. **Suffix retention**: each writer keeps a contiguous suffix of what
//!    it wrote in each severity — a writer can lose its head, never its
//!    tail.
//! 3. **Triggers**: `triggers_fired` equals the number of trigger events
//!    written, and the first post-mortem parses, is `(t, seq)`-sorted,
//!    numbers its lines `0..len` by key rank and contains the trigger that
//!    caused it. Round 0 holds exactly one trigger, so that trigger is the
//!    one.
//! 4. **Counts**: `len()` and `len_by_severity()` agree with `events()`.
//! 5. **Memory**: `W` threads record into at most `min(W, SHARDS)`
//!    shards, each holding fewer than `N + CHUNK` events per severity,
//!    so a severity's stored events never exceed
//!    `min(W, SHARDS) × (N + CHUNK)`, including when `W > SHARDS`
//!    threads share shards.
//! 6. **Any interleaving, one window**: for a tree of tasks (some
//!    fanning out subtasks mid-way) recorded with arbitrary delays on the
//!    full pool, `events()` and the final dump equal those of a serial
//!    run, and the window is the last `N` per severity of the serial
//!    run's full event stream.

use pb_telemetry::flight::{Severity, CHUNK, SHARDS};
use pb_telemetry::json::{self, Json};
use pb_telemetry::{BufferSink, Event, EventSink, FlightRecorderSink, Telemetry, Value};
use proptest::prelude::*;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The one trigger of round 0, written by writer 0 as its first event.
const FIRST_TRIGGER: &str = "anomaly.first";

fn kind(round: usize, writer: usize, index: usize) -> &'static str {
    if round == 0 {
        match (writer, index) {
            (0, 0) => FIRST_TRIGGER,
            _ if index.is_multiple_of(2) => "des.arrival",
            _ => "fault.retry",
        }
    } else {
        ["des.arrival", "fault.retry", "fault.fallback"][(index + writer) % 3]
    }
}

fn field(e: &Event, key: &str) -> usize {
    match e.fields.get(key).as_deref() {
        Some(Value::U64(v)) => *v as usize,
        other => panic!("missing field {key}: {other:?}"),
    }
}

fn severity_index(kind: &str) -> usize {
    match Severity::classify(kind) {
        Severity::Info => 0,
        Severity::Warn => 1,
        Severity::Error => 2,
    }
}

/// A dump path no other case or test shares.
fn dump_path() -> String {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let name = format!("pb_flight_concurrency_{}_{n}.jsonl", std::process::id());
    std::env::temp_dir().join(name).to_string_lossy().into_owned()
}

/// Pins `RAYON_NUM_THREADS=4` (unless the caller chose a value) before
/// the pool starts, so pooled runs are parallel even on one core.
fn init_pool() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        if std::env::var("RAYON_NUM_THREADS").is_err() {
            std::env::set_var("RAYON_NUM_THREADS", "4");
        }
    });
}

/// An event's kind and fields, without its key.
fn content(e: &Event) -> String {
    format!("{} {:?}", e.kind, e.fields)
}

/// Busy-waits a pseudo-random few microseconds drawn from `seed` and
/// `salt`, so pooled tasks interleave differently from case to case.
fn jitter(seed: u64, salt: u64) {
    if seed == 0 {
        return;
    }
    let spins = (seed ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54;
    for _ in 0..spins {
        std::hint::spin_loop();
    }
}

/// Records a task tree through `telemetry`: one parallel task per entry
/// of `lens`, recording that many events, with every even task fanning
/// out `inner.0` subtasks of `inner.1` events each half-way through.
/// The submitting thread runs task 0, so its fan-out goes to the pool:
/// workers that finished a later task join it and record keys below
/// ones they recorded before, and rings past their window drop chunks.
fn record_tree(telemetry: &Telemetry, lens: &[usize], inner: (usize, usize), delays: u64) {
    let kinds = ["des.cycle_done", "fault.retry", "fault.fallback"];
    (0..lens.len()).into_par_iter().for_each(|task| {
        let event = |sub: usize, i: usize| {
            jitter(delays, (task * 1_000 + sub * 100 + i) as u64);
            let kind = kinds[(task + sub + i / 7) % 3];
            let fields = vec![("task", task.into()), ("sub", sub.into()), ("index", i.into())];
            telemetry.event(i as f64, kind, fields);
        };
        let len = lens[task];
        for i in 0..len / 2 {
            event(0, i);
        }
        if task % 2 == 0 {
            let (subtasks, sub_len) = inner;
            (1..subtasks + 1)
                .into_par_iter()
                .for_each(|sub| (0..sub_len).for_each(|i| event(sub, i)));
        }
        for i in len / 2..len {
            event(0, i);
        }
    });
}

/// [`record_tree`] into a fresh recorder of window `n`: `events()` as
/// content, and the final dump.
fn recorded_tree(
    n: usize,
    lens: &[usize],
    inner: (usize, usize),
    delays: u64,
) -> (Vec<String>, String) {
    let recorder = Arc::new(FlightRecorderSink::new(n));
    let telemetry = Telemetry::with_sink(Box::new(Arc::clone(&recorder)));
    record_tree(&telemetry, lens, inner, delays);
    (recorder.events().iter().map(content).collect(), recorder.dump_jsonl())
}

/// One written event: `(severity, writer, round, index)`.
type Written = (usize, usize, usize, usize);

/// Runs `rounds` pool-joined rounds of `writers` concurrent producers
/// of `per_round` events each against one recorder of capacity `n`.
/// Returns the recorder and every event written, in each writer's
/// writing order.
fn hammer(
    n: usize,
    writers: usize,
    rounds: usize,
    per_round: usize,
    path: &str,
) -> (Arc<FlightRecorderSink>, Vec<Written>) {
    let recorder = Arc::new(FlightRecorderSink::new(n).with_auto_dump(path, 1));
    let telemetry = Telemetry::with_sink(Box::new(Arc::clone(&recorder)));
    let ids: Vec<usize> = (0..writers).collect();
    for round in 0..rounds {
        ids.par_iter().for_each(|&w| {
            for i in 0..per_round {
                let t = (round * per_round + i) as f64;
                let fields =
                    vec![("writer", w.into()), ("round", round.into()), ("index", i.into())];
                telemetry.event(t, kind(round, w, i), fields);
            }
        });
    }
    let mut written = Vec::new();
    for w in 0..writers {
        for round in 0..rounds {
            for i in 0..per_round {
                written.push((severity_index(kind(round, w, i)), w, round, i));
            }
        }
    }
    (recorder, written)
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(48))]

    #[test]
    fn window_suffixes_and_triggers_hold_under_concurrent_writers(
        n in 1usize..64,
        writers in 1usize..6,
        rounds in 1usize..4,
        per_round in 1usize..40,
    ) {
        let path = dump_path();
        let (recorder, written) = hammer(n, writers, rounds, per_round, &path);
        let events = recorder.events();
        let key = |e: &Event| {
            (severity_index(&e.kind), field(e, "writer"), field(e, "round"), field(e, "index"))
        };
        let retained: std::collections::HashSet<_> = events.iter().map(key).collect();
        prop_assert_eq!(retained.len(), events.len(), "no event is retained twice");

        let mut by_severity = [0usize; 3];
        for (severity, kept_count) in by_severity.iter_mut().enumerate() {
            let total = written.iter().filter(|w| w.0 == severity).count();
            let kept: Vec<_> = written.iter().filter(|w| w.0 == severity && retained.contains(w)).collect();
            *kept_count = kept.len();

            // 1. Exact window: min(N, total), the highest keys, so the
            // latest rounds first.
            prop_assert_eq!(kept.len(), total.min(n), "severity {}", severity);
            if let Some(oldest) = kept.iter().map(|w| w.2).min() {
                for w in written.iter().filter(|w| w.0 == severity && w.2 > oldest) {
                    prop_assert!(retained.contains(w), "{:?} is newer than a retained event", w);
                }
            }
            let mut in_key_order: Vec<&Written> =
                written.iter().filter(|w| w.0 == severity).collect();
            in_key_order.sort_by_key(|w| (w.2, w.1, w.3));
            let top = &in_key_order[in_key_order.len() - kept.len()..];
            prop_assert!(
                top.iter().all(|w| retained.contains(w)),
                "severity {}: the window is not the top {} keys", severity, kept.len()
            );

            // 2. Each writer keeps a contiguous suffix of what it wrote.
            for writer in 0..writers {
                let mine: Vec<bool> = written
                    .iter()
                    .filter(|w| w.0 == severity && w.1 == writer)
                    .map(|w| retained.contains(w))
                    .collect();
                let first_kept = mine.iter().position(|&k| k).unwrap_or(mine.len());
                prop_assert!(
                    mine[first_kept..].iter().all(|&k| k),
                    "writer {} severity {} kept {:?}", writer, severity, mine
                );
            }
        }

        // 3. Triggers: every error-severity kind is a trigger.
        let triggers = written.iter().filter(|w| w.0 == 2).count() as u64;
        prop_assert_eq!(recorder.triggers_fired(), triggers);
        prop_assert_eq!(recorder.dumps_written(), 1);
        let dump = std::fs::read_to_string(&path).expect("first post-mortem written");
        let _ = std::fs::remove_file(&path);
        let mut order = Vec::new();
        let mut ranks = Vec::new();
        let mut has_trigger = false;
        for line in dump.lines() {
            let obj = json::parse(line).expect("dump line parses");
            let t = obj.get("t").and_then(Json::as_f64).expect("t");
            let seq = obj.get("seq").and_then(Json::as_f64).expect("seq");
            order.push((t, seq));
            ranks.push(seq as usize);
            has_trigger |= obj.get("kind").and_then(Json::as_str) == Some(FIRST_TRIGGER);
        }
        prop_assert!(!order.is_empty());
        prop_assert!(
            order.windows(2).all(|p| p[0].0 < p[1].0 || (p[0].0 == p[1].0 && p[0].1 < p[1].1)),
            "dump must be (t, seq)-sorted"
        );
        prop_assert!(has_trigger, "the first dump holds the trigger that wrote it");
        ranks.sort_unstable();
        prop_assert!(ranks.iter().copied().eq(0..ranks.len()), "dump seq is the key rank");

        // 4. The counts agree with the snapshot.
        let (info, warn, error) = recorder.len_by_severity();
        prop_assert_eq!([info, warn, error], by_severity);
        prop_assert_eq!(recorder.len(), events.len());
        prop_assert!(events.windows(2).all(|p| p[0].seq < p[1].seq), "events() is key-ordered");
        let listed: Vec<_> = events.iter().map(|e| (field(e, "round"), field(e, "writer"), field(e, "index"))).collect();
        let mut sorted = listed.clone();
        sorted.sort_unstable();
        prop_assert_eq!(listed, sorted, "key order is (round, writer, index)");
    }

    #[test]
    fn storage_is_bounded_by_the_shards_in_use(
        n in 1usize..200,
        writers in 1usize..=SHARDS + 2,
        per_writer in 0usize..600,
    ) {
        let recorder = Arc::new(FlightRecorderSink::new(n));
        let telemetry = Telemetry::with_sink(Box::new(Arc::clone(&recorder)));
        // Fresh threads, one per writer: `W` recording threads exactly.
        std::thread::scope(|scope| {
            for w in 0..writers {
                let telemetry = telemetry.clone();
                scope.spawn(move || {
                    for i in 0..per_writer {
                        let fields = [("writer", w.into()), ("index", i.into())];
                        telemetry.event(i as f64, kind(1, w, i), fields);
                    }
                });
            }
        });
        let written: Vec<(usize, usize, usize)> = (0..writers)
            .flat_map(|w| (0..per_writer).map(move |i| (severity_index(kind(1, w, i)), w, i)))
            .collect();
        let events = recorder.events();
        let retained: std::collections::HashSet<_> = events
            .iter()
            .map(|e| (severity_index(&e.kind), field(e, "writer"), field(e, "index")))
            .collect();
        prop_assert_eq!(retained.len(), events.len(), "no event is retained twice");

        let (info, warn, error) = recorder.stored_by_severity();
        let (kept_info, kept_warn, kept_error) = recorder.len_by_severity();
        let bound = writers.min(SHARDS) * (n + CHUNK);
        for (severity, (stored, len)) in
            [(info, kept_info), (warn, kept_warn), (error, kept_error)].into_iter().enumerate()
        {
            prop_assert!(stored <= bound, "severity {}: {} stored > {}", severity, stored, bound);
            let total = written.iter().filter(|w| w.0 == severity).count();
            let kept = written.iter().filter(|w| w.0 == severity && retained.contains(w)).count();
            prop_assert_eq!(kept, total.min(n), "severity {}", severity);
            prop_assert_eq!(len, kept, "severity {}", severity);
            for writer in 0..writers {
                let mine: Vec<bool> = written
                    .iter()
                    .filter(|w| w.0 == severity && w.1 == writer)
                    .map(|w| retained.contains(w))
                    .collect();
                let first_kept = mine.iter().position(|&k| k).unwrap_or(mine.len());
                prop_assert!(
                    mine[first_kept..].iter().all(|&k| k),
                    "writer {} severity {} kept {:?}", writer, severity, mine
                );
            }
        }
    }

    #[test]
    fn any_interleaving_keeps_the_window_of_a_serial_run(
        n in 1usize..40,
        lens in proptest::collection::vec(0usize..200, 1..7),
        inner in (0usize..9, 0usize..300),
        delays in 0u64..1_000_000,
    ) {
        init_pool();
        let serial = rayon::pool::with_thread_cap(1, || recorded_tree(n, &lens, inner, 0));
        let pooled = recorded_tree(n, &lens, inner, delays);
        prop_assert_eq!(&pooled.0, &serial.0, "events() differs from the serial run");
        prop_assert_eq!(&pooled.1, &serial.1, "the final dump differs from the serial run");

        // The serial run's window is the last N per severity of its
        // full stream, in stream order.
        let full = Telemetry::with_sink(Box::new(BufferSink::new()));
        rayon::pool::with_thread_cap(1, || record_tree(&full, &lens, inner, 0));
        let stream = full.events();
        let mut want = Vec::new();
        for severity in 0..3 {
            let mine: Vec<usize> = (0..stream.len())
                .filter(|&i| severity_index(&stream[i].kind) == severity)
                .collect();
            want.extend_from_slice(&mine[mine.len().saturating_sub(n)..]);
        }
        want.sort_unstable();
        let want: Vec<String> = want.iter().map(|&i| content(&stream[i])).collect();
        prop_assert_eq!(&serial.0, &want, "the window is not the serial stream's last N");
    }

    #[test]
    fn single_writer_keeps_exactly_the_last_n_per_severity(n in 1usize..48, count in 0usize..160) {
        let recorder = FlightRecorderSink::new(n);
        let kinds = ["des.arrival", "fault.retry", "fault.fallback"];
        for i in 0..count {
            let kind = kinds[(i * i + i / 5) % 3];
            recorder.record(Event {
                t_sim: i as f64,
                seq: i as u64,
                kind: kind.into(),
                fields: vec![("index", i.into())].into(),
            });
        }
        let got: Vec<usize> = recorder.events().iter().map(|e| field(e, "index")).collect();
        let mut expect = Vec::new();
        for kind in kinds {
            let all: Vec<usize> = (0..count).filter(|i| kinds[(i * i + i / 5) % 3] == kind).collect();
            expect.extend_from_slice(&all[all.len().saturating_sub(n)..]);
        }
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}
