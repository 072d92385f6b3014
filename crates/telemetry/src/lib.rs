#![warn(missing_docs)]

//! Cross-cutting observability for the precision-beekeeping workspace.
//!
//! The simulator's core claim — placement chosen by energy accounting at
//! fleet scale — is only auditable if one can see *where* joules, time
//! slots and wall-clock milliseconds go. This crate is the layer every
//! other crate hangs that visibility off:
//!
//! * **Spans** ([`Span`], [`Telemetry::span`]) — lightweight RAII wall-time
//!   timers that aggregate into histograms (count, total, min, max, p50,
//!   p95), safe to use inside rayon-parallel sweeps;
//! * **Metrics** ([`metrics::MetricsRegistry`]) — named counters, gauges
//!   and histograms with cheap typed handles ([`Counter`], [`Gauge`],
//!   [`Histogram`]) backed by atomics;
//! * **Events** ([`events`]) — a structured, sim-time-stamped event log
//!   with three sinks: an in-memory buffer exported as JSONL
//!   ([`events::BufferSink`]), a bounded ring buffer
//!   ([`events::RingBufferSink`]) and a no-op sink
//!   ([`events::NoopSink`]). Events are ordered by where they happen in
//!   the tree of parallel tasks, not by when ([`events`] § Order), so a
//!   trace is the same at any thread count.
//!
//! The entry point is [`Telemetry`], a cheaply clonable handle that is
//! either *enabled* (carries a registry and a sink) or *disabled* (a
//! `None`; every operation is an inlineable branch that does nothing).
//! Disabled telemetry performs no clock reads, no allocation and no
//! atomic traffic, so instrumented code paths stay bit- and
//! performance-identical to uninstrumented ones.
//!
//! The crate's only dependency is the workspace's rayon shim, whose
//! task positions key recorded events — no serde, no tracing, not even
//! the workspace's own `pb-units` — so it can sit below every other
//! crate without cycles.
//!
//! # Example
//!
//! ```
//! use pb_telemetry::Telemetry;
//!
//! let tel = Telemetry::enabled();
//! {
//!     let _guard = tel.span("allocate"); // records wall time on drop
//! }
//! tel.add_to_counter("cache.hits", 3);
//! tel.event(12.5, "slot.filled", [("occupancy", 10u64.into())]);
//!
//! let snap = tel.snapshot();
//! assert_eq!(snap.counter("cache.hits"), Some(3));
//! assert_eq!(snap.histogram("allocate").unwrap().count, 1);
//! assert_eq!(tel.events().len(), 1);
//! ```

pub mod events;
pub mod export;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use events::{
    BufferSink, Event, EventSink, Fields, NoopSink, RingBufferSink, Schema, Slot, Value,
};
pub use flight::FlightRecorderSink;
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary, MetricsRegistry};
pub use snapshot::TelemetrySnapshot;
pub use span::Span;
pub use trace::{Forensics, SpanCtx};

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// What an enabled handle shares. Nothing here is written per event:
/// an event's key comes from the recording thread's own task position.
#[derive(Debug)]
struct Inner {
    registry: MetricsRegistry,
    sink: Box<dyn EventSink>,
    tracing: AtomicBool,
    /// `sink.is_recording()`, fixed for the sink's lifetime and read
    /// once here instead of through the vtable on every event.
    recording: bool,
    /// `sink.keeps_trajectories()`, cached the same way.
    trajectories: bool,
}

/// A cheaply clonable telemetry handle: either enabled (registry + event
/// sink) or disabled (every operation is a no-op branch).
///
/// Clones share the same registry and sink, so a handle can fan out
/// across rayon workers while all of them aggregate into one place.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// A disabled handle: no registry, no sink, no overhead beyond a
    /// `None` check at each instrumentation point. This is the default.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle with an unbounded in-memory event buffer
    /// ([`BufferSink`]) — the right choice when a JSONL trace will be
    /// exported at the end of the run.
    pub fn enabled() -> Self {
        Telemetry::with_sink(Box::new(BufferSink::new()))
    }

    /// An enabled handle that records metrics but drops every event
    /// ([`NoopSink`]) — metrics without trace memory growth.
    pub fn metrics_only() -> Self {
        Telemetry::with_sink(Box::new(NoopSink))
    }

    /// An enabled handle keeping only the most recent `capacity` events
    /// ([`RingBufferSink`]).
    pub fn ring(capacity: usize) -> Self {
        Telemetry::with_sink(Box::new(RingBufferSink::new(capacity)))
    }

    /// An enabled handle with an explicit event sink.
    pub fn with_sink(sink: Box<dyn EventSink>) -> Self {
        let recording = sink.is_recording();
        let trajectories = recording && sink.keeps_trajectories();
        Telemetry {
            inner: Some(Arc::new(Inner {
                registry: MetricsRegistry::new(),
                sink,
                tracing: AtomicBool::new(false),
                recording,
                trajectories,
            })),
        }
    }

    /// Turns on causal tracing for this handle (and every clone sharing
    /// it): replay paths additionally emit `trace.*` span events and tag
    /// fault/DES events with `trace`/`span`/`parent` ids. A no-op on a
    /// disabled handle. With tracing *off*, recorded events are
    /// byte-identical to pre-tracing builds.
    #[must_use]
    pub fn with_tracing(self) -> Self {
        if let Some(inner) = &self.inner {
            inner.tracing.store(true, Ordering::Relaxed);
        }
        self
    }

    /// True when causal tracing was requested *and* events actually reach
    /// a retaining sink — the gate instrumented replay paths check before
    /// building span contexts.
    #[inline]
    pub fn tracing_active(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.recording && i.tracing.load(Ordering::Relaxed))
    }

    /// True when this handle carries a registry (metrics are recorded).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// True when events reach a sink that keeps them — callers building
    /// non-trivial field vectors should guard on this first.
    #[inline]
    pub fn events_recording(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.recording)
    }

    /// True when events reach a sink that also keeps per-event
    /// simulation trajectories ([`EventSink::keeps_trajectories`]): a
    /// trace export, not the flight recorder. The DES gates its exact
    /// event loop and its `des.*` trajectory records on this.
    #[inline]
    pub fn trajectories_recording(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.trajectories)
    }

    /// The metrics registry, when enabled. Hot paths resolve handles once
    /// through this and store them instead of looking names up per call.
    #[inline]
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.inner.as_ref().map(|i| &i.registry)
    }

    /// Starts a wall-time span that records into the histogram `name` on
    /// drop. Disabled handles return an inert guard without reading the
    /// clock.
    #[inline]
    pub fn span(&self, name: &str) -> Span {
        match self.registry() {
            Some(r) => Span::active(r.histogram(name)),
            None => Span::inert(),
        }
    }

    /// Adds `v` to the counter `name` (no-op when disabled). Convenience
    /// for cold call sites; hot paths should hold a [`Counter`] handle.
    pub fn add_to_counter(&self, name: &str, v: u64) {
        if let Some(r) = self.registry() {
            r.counter(name).add(v);
        }
    }

    /// Records `v` into the histogram `name` (no-op when disabled).
    pub fn observe(&self, name: &str, v: f64) {
        if let Some(r) = self.registry() {
            r.histogram(name).observe(v);
        }
    }

    /// Sets the gauge `name` to `v` (no-op when disabled).
    pub fn set_gauge(&self, name: &str, v: f64) {
        if let Some(r) = self.registry() {
            r.gauge(name).set(v);
        }
    }

    /// Appends a sim-time-stamped event to the sink (no-op when disabled
    /// or when the sink drops events). `t_sim` is simulation time in
    /// seconds; the fields become the JSONL record's extra keys. Pass an
    /// array (`[("attempt", 1u64.into())]`), a `Vec` or a
    /// [`Fields::packed`] record: an event of at most one field, or a
    /// packed one, is built without touching the heap ([`Fields`]). The
    /// event's `seq` is its key: the calling task's next step
    /// ([`rayon::pool::next_key`]).
    pub fn event(&self, t_sim: f64, kind: &'static str, fields: impl Into<Fields>) {
        if let Some(inner) = &self.inner {
            if inner.recording {
                let seq = rayon::pool::next_key();
                let kind = Cow::Borrowed(kind);
                inner.sink.record(Event { t_sim, seq, kind, fields: fields.into() });
            }
        }
    }

    /// [`Telemetry::event`] with the span context appended as
    /// `trace`/`span`/`parent` fields (16-digit hex strings, since the
    /// raw 64-bit ids exceed JSON's exact-integer range). This is the
    /// one way causal tags enter a trace, so every tagged event shares
    /// the same field names and encoding.
    pub fn trace_event(
        &self,
        t_sim: f64,
        kind: &'static str,
        span: SpanCtx,
        fields: impl Into<Fields>,
    ) {
        if self.events_recording() {
            // Raw ids, not pre-rendered hex strings: `Value::Hex` defers
            // the 16-digit formatting to export time, so tagging an
            // event allocates nothing beyond the spilled field list.
            let mut fields = fields.into();
            fields.push(("trace", Value::Hex(span.trace)));
            fields.push(("span", Value::Hex(span.span)));
            fields.push(("parent", Value::Hex(span.parent)));
            self.event(t_sim, kind, fields);
        }
    }

    /// Every retained event as the sink returns it
    /// ([`EventSink::events`]): `seq` holds each event's key.
    pub fn events(&self) -> Vec<Event> {
        self.inner.as_ref().map_or_else(Vec::new, |i| i.sink.events())
    }

    /// Every retained event in export order: `seq` is the event's rank
    /// in key order, and events sort by `(t_sim, seq)`
    /// ([`events::sort_for_export`]). Timestamps are monotone
    /// non-decreasing, and the list is the same at any thread count.
    pub fn events_sorted(&self) -> Vec<Event> {
        let mut events = self.events();
        events::sort_for_export(&mut events);
        events
    }

    /// Renders the retained events as line-delimited JSON in export
    /// order (one [`Event::to_json`] object per line).
    pub fn to_jsonl(&self) -> String {
        events::export_jsonl(self.events())
    }

    /// Writes the JSONL trace to `path`; returns the number of lines.
    pub fn write_trace(&self, path: &str) -> std::io::Result<usize> {
        let jsonl = self.to_jsonl();
        std::fs::write(path, &jsonl)?;
        Ok(jsonl.lines().count())
    }

    /// A frozen, sorted view of every metric (empty when disabled).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.registry().map_or_else(TelemetrySnapshot::default, MetricsRegistry::snapshot)
    }
}

/// Starts a span on a [`Telemetry`] handle: `span!(tel, "allocate")`
/// evaluates to the RAII guard, to be bound (`let _s = span!(…)`) so it
/// drops at scope end.
#[macro_export]
macro_rules! span {
    ($telemetry:expr, $name:expr) => {
        $telemetry.span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert_and_free_of_state() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        assert!(!tel.events_recording());
        let _s = tel.span("x");
        tel.add_to_counter("c", 5);
        tel.observe("h", 1.0);
        tel.set_gauge("g", 2.0);
        tel.event(0.0, "e", vec![]);
        assert!(tel.events().is_empty());
        let snap = tel.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
        assert!(!Telemetry::default().is_enabled());
    }

    #[test]
    fn enabled_records_metrics_and_events() {
        let tel = Telemetry::enabled();
        assert!(tel.is_enabled() && tel.events_recording());
        tel.add_to_counter("c", 2);
        tel.add_to_counter("c", 3);
        tel.set_gauge("g", 7.5);
        tel.observe("h", 4.0);
        tel.event(1.0, "first", vec![("k", 1u64.into())]);
        tel.event(0.5, "second", vec![]);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("c"), Some(5));
        assert_eq!(snap.gauge("g"), Some(7.5));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        // Sorted export reorders by sim time.
        let sorted = tel.events_sorted();
        assert_eq!(sorted[0].kind, "second");
        assert_eq!(sorted[1].kind, "first");
    }

    #[test]
    fn clones_share_state() {
        let tel = Telemetry::enabled();
        let other = tel.clone();
        other.add_to_counter("shared", 1);
        assert_eq!(tel.snapshot().counter("shared"), Some(1));
    }

    #[test]
    fn metrics_only_drops_events() {
        let tel = Telemetry::metrics_only();
        assert!(tel.is_enabled());
        assert!(!tel.events_recording());
        tel.event(0.0, "dropped", vec![]);
        assert!(tel.events().is_empty());
        tel.add_to_counter("kept", 1);
        assert_eq!(tel.snapshot().counter("kept"), Some(1));
    }

    #[test]
    fn only_trace_export_sinks_keep_trajectories() {
        assert!(Telemetry::enabled().trajectories_recording());
        assert!(Telemetry::ring(4).trajectories_recording());
        assert!(!Telemetry::disabled().trajectories_recording());
        assert!(!Telemetry::metrics_only().trajectories_recording());
        let recorder = Telemetry::with_sink(Box::new(FlightRecorderSink::new(4)));
        assert!(recorder.events_recording() && !recorder.trajectories_recording());
    }

    #[test]
    fn span_macro_times_a_scope() {
        let tel = Telemetry::enabled();
        {
            let _s = span!(tel, "scope");
            std::hint::black_box(0u64);
        }
        let h = tel.snapshot().histogram("scope").cloned().expect("span recorded");
        assert_eq!(h.count, 1);
        assert!(h.total >= 0.0);
    }

    #[test]
    fn spans_aggregate_under_threads() {
        let tel = Telemetry::enabled();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let t = tel.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        let _s = t.span("par");
                        std::hint::black_box(1u64);
                    }
                });
            }
        });
        assert_eq!(tel.snapshot().histogram("par").unwrap().count, 800);
    }

    #[test]
    fn tracing_flag_requires_a_recording_sink() {
        assert!(!Telemetry::disabled().with_tracing().tracing_active());
        // Metrics-only sinks drop events, so tracing stays inactive.
        assert!(!Telemetry::metrics_only().with_tracing().tracing_active());
        let tel = Telemetry::enabled();
        assert!(!tel.tracing_active());
        let tel = tel.with_tracing();
        assert!(tel.tracing_active());
        // Clones share the flag.
        assert!(tel.clone().tracing_active());
    }

    #[test]
    fn jsonl_round_trips() {
        let tel = Telemetry::enabled();
        tel.event(2.0, "b", vec![("x", 1.5f64.into())]);
        tel.event(1.0, "a", vec![("s", "hi \"there\"".into())]);
        let jsonl = tel.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let mut last_t = f64::NEG_INFINITY;
        for line in lines {
            let v = json::parse(line).expect("valid JSON");
            let t = v.get("t").and_then(json::Json::as_f64).expect("t field");
            assert!(t >= last_t, "timestamps must be monotone");
            last_t = t;
        }
    }
}
