//! Recording into a warmed flight recorder allocates nothing.
//!
//! A counting global allocator tallies allocations per thread, so the
//! test harness's other threads cannot disturb the count. After a
//! warm-up that fills every severity's ring past its window (so each
//! ring has rotated a chunk into its spare), recording one-field events
//! through [`Telemetry`] must not touch the heap: the kind is a
//! `'static` literal, the field sits inline in the event, a constant
//! string value borrows its literal and chunks are recycled.

use pb_telemetry::{Event, FlightRecorderSink, Telemetry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Event `i`, cycling through the three severities, shaped like the
/// faulted sweep's: one numeric field, or one borrowed string.
fn record(telemetry: &Telemetry, i: usize) {
    let t = i as f64;
    match i % 3 {
        0 => telemetry.event(t, "des.cycle_done", [("n_clients", i.into())]),
        1 => telemetry.event(t, "fault.retry", [("attempt", 2u64.into())]),
        _ => telemetry.event(t, "fault.fallback", [("cause", "brownout".into())]),
    }
}

#[test]
fn steady_state_recording_allocates_nothing() {
    let recorder = FlightRecorderSink::new(64);
    let telemetry = Telemetry::with_sink(Box::new(recorder));
    for i in 0..900 {
        record(&telemetry, i);
    }
    let before = allocations();
    for i in 900..10_900 {
        record(&telemetry, i);
    }
    let allocated = allocations() - before;
    assert_eq!(allocated, 0, "{allocated} allocation(s) while recording 10 000 events");
    assert_eq!(telemetry.events().len(), 3 * 64, "every ring still holds its window");
}

#[test]
fn an_event_stays_small() {
    // The recorder retains up to `SHARDS × (N + CHUNK)` events per
    // severity; this keeps that footprint from growing silently.
    let size = std::mem::size_of::<Event>();
    assert!(size <= 96, "size_of::<Event>() is {size} bytes");
}
