//! `RingBufferSink` concurrency properties.
//!
//! Writers on the persistent pool hammer one shared ring concurrently;
//! whatever the interleaving, the sink must uphold:
//!
//! 1. **Capacity**: never more than `capacity` events retained, and
//!    exactly `min(capacity, total)` once the dust settles;
//! 2. **Per-writer recording order**: each writer's surviving events
//!    appear in the order that writer recorded them;
//! 3. **Suffix retention**: eviction is globally oldest-first, so the
//!    events a writer keeps are a *contiguous suffix* of what it wrote —
//!    a writer can lose its head, never its tail.
//!
//! Writers emit fixed-size chunks with their identity and a
//! monotonically increasing index in the fields, so the assertions can
//! be made chunk-ordered per writer without assuming any cross-writer
//! interleaving.

use pb_telemetry::{Event, EventSink, RingBufferSink, Value};
use proptest::prelude::*;
use rayon::prelude::*;

fn event(writer: usize, index: usize) -> Event {
    Event {
        t_sim: index as f64,
        // seq is normally assigned by the Telemetry handle; the sink
        // itself must not depend on it for ordering.
        seq: 0,
        kind: "proptest.write".into(),
        fields: vec![("writer", writer.into()), ("index", index.into())].into(),
    }
}

fn field(e: &Event, key: &str) -> usize {
    match e.fields.get(key).as_deref() {
        Some(Value::U64(v)) => *v as usize,
        other => panic!("missing field {key}: {other:?}"),
    }
}

/// Runs `writers` concurrent producers of `per_writer` events each
/// against one shared ring and returns the retained events.
fn hammer(capacity: usize, writers: usize, per_writer: usize) -> (RingBufferSink, Vec<Event>) {
    let sink = RingBufferSink::new(capacity);
    let ids: Vec<usize> = (0..writers).collect();
    ids.par_iter().for_each(|&w| {
        for i in 0..per_writer {
            sink.record(event(w, i));
        }
    });
    let events = sink.events();
    (sink, events)
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(64))]

    #[test]
    fn capacity_and_order_hold_under_concurrent_writers(
        capacity in 1usize..96,
        writers in 1usize..8,
        per_writer in 0usize..48,
    ) {
        let (sink, events) = hammer(capacity, writers, per_writer);
        let total = writers * per_writer;

        // Capacity invariant: the ring retains exactly the bounded tail.
        prop_assert_eq!(events.len(), total.min(capacity));
        prop_assert_eq!(sink.len(), events.len());
        prop_assert_eq!(sink.capacity(), capacity);

        // Chunk-ordered per-writer assertions: split the retained stream
        // by writer and check each writer's slice independently.
        for w in 0..writers {
            let indices: Vec<usize> = events
                .iter()
                .filter(|e| field(e, "writer") == w)
                .map(|e| field(e, "index"))
                .collect();

            // Recording order: strictly increasing per writer (the ring
            // preserves arrival order and never reorders).
            for pair in indices.windows(2) {
                prop_assert!(
                    pair[0] < pair[1],
                    "writer {} out of order: {:?}", w, indices
                );
            }

            // Suffix retention: eviction is oldest-first, and a writer's
            // own records enter in index order, so whatever survives is
            // the contiguous tail `per_writer - k .. per_writer`.
            if let Some(&first) = indices.first() {
                let expect: Vec<usize> = (first..per_writer).collect();
                prop_assert_eq!(
                    &indices, &expect,
                    "writer {} must keep a contiguous suffix", w
                );
            }
        }
    }

    #[test]
    fn single_writer_tail_is_exact(capacity in 1usize..64, n in 0usize..128) {
        // Degenerate single-writer case pins the exact retained window.
        let (_, events) = hammer(capacity, 1, n);
        let got: Vec<usize> = events.iter().map(|e| field(e, "index")).collect();
        let expect: Vec<usize> = (n.saturating_sub(capacity)..n).collect();
        prop_assert_eq!(got, expect);
    }
}
