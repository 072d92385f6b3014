//! `FlightRecorderSink` concurrency properties.
//!
//! Writers on the persistent pool hammer one shared recorder through a
//! `Telemetry` handle, in rounds. Whatever the interleaving, the
//! recorder must uphold:
//!
//! 1. **Exact window**: per severity, exactly `min(N, total)` events are
//!    retained, and they are the `N` most recently recorded. Within a
//!    round the order is the telemetry `seq`, but rounds are separated
//!    by a pool join, so every event of a later round was recorded after
//!    every event of an earlier one: once any event of round `r` is
//!    retained, every event of the same severity from a later round must
//!    be too.
//! 2. **Suffix retention**: each writer keeps a contiguous suffix of what
//!    it wrote in each severity — a writer can lose its head, never its
//!    tail.
//! 3. **Triggers**: `triggers_fired` equals the number of trigger events
//!    written, and the first post-mortem parses, is `(t, seq)`-sorted and
//!    contains the trigger that caused it. Round 0 holds exactly one
//!    trigger, so that trigger is the one.
//! 4. **Counts**: `len()` and `len_by_severity()` agree with `events()`.
//! 5. **Memory**: `W` threads record into at most `min(W, SHARDS)`
//!    shards, each holding fewer than `N + CHUNK` events per severity,
//!    so a severity's stored events never exceed
//!    `min(W, SHARDS) × (N + CHUNK)`, including when `W > SHARDS`
//!    threads share shards.

use pb_telemetry::flight::{Severity, CHUNK, SHARDS};
use pb_telemetry::json::{self, Json};
use pb_telemetry::{Event, EventSink, FlightRecorderSink, Telemetry, Value};
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
    match e.fields.iter().find(|(k, _)| *k == key) {
        Some((_, Value::U64(v))) => *v as usize,
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

            // 1. Exact window: min(N, total), and the latest rounds first.
            prop_assert_eq!(kept.len(), total.min(n), "severity {}", severity);
            if let Some(oldest) = kept.iter().map(|w| w.2).min() {
                for w in written.iter().filter(|w| w.0 == severity && w.2 > oldest) {
                    prop_assert!(retained.contains(w), "{:?} is newer than a retained event", w);
                }
            }

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
        let mut has_trigger = false;
        for line in dump.lines() {
            let obj = json::parse(line).expect("dump line parses");
            let t = obj.get("t").and_then(Json::as_f64).expect("t");
            let seq = obj.get("seq").and_then(Json::as_f64).expect("seq");
            order.push((t, seq));
            has_trigger |= obj.get("kind").and_then(Json::as_str) == Some(FIRST_TRIGGER);
        }
        prop_assert!(!order.is_empty());
        prop_assert!(
            order.windows(2).all(|p| p[0].0 < p[1].0 || (p[0].0 == p[1].0 && p[0].1 < p[1].1)),
            "dump must be (t, seq)-sorted"
        );
        prop_assert!(has_trigger, "the first dump holds the trigger that wrote it");

        // 4. The counts agree with the snapshot.
        let (info, warn, error) = recorder.len_by_severity();
        prop_assert_eq!([info, warn, error], by_severity);
        prop_assert_eq!(recorder.len(), events.len());
        prop_assert!(events.windows(2).all(|p| p[0].seq < p[1].seq), "events() is seq-ordered");
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
