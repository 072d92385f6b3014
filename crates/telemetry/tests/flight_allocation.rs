//! Recording into a warmed flight recorder allocates nothing.
//!
//! A counting global allocator tallies allocations per thread, so the
//! test harness's other threads cannot disturb the count. After a
//! warm-up that fills every severity's ring past its window (so each
//! ring has rotated a chunk into its spare), recording events through
//! [`Telemetry`] must not touch the heap: the kind is a `'static`
//! literal, a single field or a packed multi-field record sits inline
//! in the event, a constant string value borrows its literal and chunks
//! are recycled. The packed shapes are those of a recorded faulted
//! sweep's multi-field events: the untagged brown-out `fault.fallback`
//! (three fields) and `des.cycle_done` (five).

use pb_telemetry::{Event, Fields, FlightRecorderSink, Schema, Slot, Telemetry, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
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

/// The layout of the brown-out `fault.fallback` (`pb_orchestra::faults`).
static BROWNOUT_FALLBACK: Schema = Schema(&[
    ("t0", Slot::F64),
    ("attempts", Slot::Fixed(Value::U64(0))),
    ("cause", Slot::Fixed(Value::Str(Cow::Borrowed("brownout")))),
]);

/// The layout of `des.cycle_done` (`pb_orchestra::des`).
static CYCLE_DONE: Schema = Schema(&[
    ("n_clients", Slot::U64),
    ("peak_queue", Slot::U64),
    ("receive_busy_s", Slot::F64),
    ("process_busy_s", Slot::F64),
    ("server_energy_j", Slot::F64),
]);

/// Event `i`, cycling through the three severities and the faulted
/// sweep's shapes: one numeric field, one borrowed string, or a packed
/// record of three or five fields.
fn record(telemetry: &Telemetry, i: usize) {
    let t = i as f64;
    match i % 5 {
        0 => telemetry.event(t, "des.cycle_done", [("n_clients", i.into())]),
        1 => telemetry.event(t, "fault.retry", [("attempt", 2u64.into())]),
        2 => telemetry.event(t, "fault.fallback", [("cause", "brownout".into())]),
        3 => telemetry.event(t, "fault.fallback", Fields::packed(&BROWNOUT_FALLBACK, [t.into()])),
        _ => {
            let values = [i.into(), 3u64.into(), t.into(), 0.5.into(), 117.0.into()];
            telemetry.event(t, "des.cycle_done", Fields::packed(&CYCLE_DONE, values))
        }
    }
}

#[test]
fn steady_state_recording_allocates_nothing() {
    let recorder = FlightRecorderSink::new(64);
    let telemetry = Telemetry::with_sink(Box::new(recorder));
    for i in 0..1_500 {
        record(&telemetry, i);
    }
    let before = allocations();
    for i in 1_500..11_500 {
        record(&telemetry, i);
    }
    let allocated = allocations() - before;
    assert_eq!(allocated, 0, "{allocated} allocation(s) while recording 10 000 events");
    let events = telemetry.events();
    assert_eq!(events.len(), 3 * 64, "every ring still holds its window");
    // Half of the info and of the error window are packed records.
    let packed = events.iter().filter(|e| e.fields.len() > 1).count();
    assert_eq!(packed, 64, "packed records in the window");
}

#[test]
fn an_event_stays_small() {
    // The recorder retains up to `SHARDS × (N + CHUNK)` events per
    // severity; this keeps that footprint from growing silently. (88
    // bytes before packed records; 96 with their five inline values.)
    let size = std::mem::size_of::<Event>();
    assert!(size <= 96, "size_of::<Event>() is {size} bytes");
}
