//! Recorded traces do not depend on the thread count.
//!
//! Events are ordered by where they happen in the tree of parallel
//! tasks, not by which worker got to a shared counter first, so a
//! faulted, causally tagged DES sweep exports the same bytes at thread
//! caps 1, 2 and N:
//!
//! * with a `BufferSink`: the JSONL trace (`to_jsonl`) and the Chrome
//!   export of the same events;
//! * with a flight recorder whose window is smaller than the sweep's
//!   event count, so every severity evicts: the final post-mortem
//!   (`dump_jsonl`), its per-severity counts and its latest trigger.
//!
//! The sweep has three points (1000, 1500, 2000 clients), so at caps
//! above 1 the points and each point's DES servers run on different
//! workers, and a worker can move from a later point's task to an
//! earlier point's server chunk.

use precision_beekeeping::orchestra::prelude::*;
use precision_beekeeping::telemetry::export::chrome_trace;
use precision_beekeeping::telemetry::FlightRecorderSink;
use rayon::pool::with_thread_cap;
use std::sync::{Arc, Once};

/// Pin `RAYON_NUM_THREADS=4` (unless the caller chose a value) before
/// the pool's first lazy initialization, so thread-count comparisons are
/// real even on a single-core host.
fn init_pool() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        if std::env::var("RAYON_NUM_THREADS").is_err() {
            std::env::set_var("RAYON_NUM_THREADS", "4");
        }
    });
}

/// `pb sweep --backend des --faults mid --causal --from 1000 --to 2000
/// --step 500` through `telemetry`.
fn sweep(telemetry: Telemetry) {
    let config = SweepConfig {
        edge_client: presets::edge_client(ServiceKind::Cnn),
        cloud_client: presets::edge_cloud_client(),
        server: presets::cloud_server(ServiceKind::Cnn, 35),
        loss: LossModel::NONE,
        policy: FillPolicy::PackSlots,
        seed: 0xF1E1D,
    };
    let ctx = SimContext::with_telemetry(0xF1E1D, telemetry.with_tracing())
        .with_fault_plan(FaultPlan::mid_severity());
    let points = config.run_with_context(&Backend::Des, &[1000, 1500, 2000], &ctx);
    assert_eq!(points.len(), 3);
}

/// The exports of one buffered and one flight-recorded sweep.
#[derive(Debug, PartialEq)]
struct Exports {
    jsonl: String,
    chrome: String,
    dump: String,
    retained: (usize, usize, usize),
    last_trigger: Option<String>,
}

fn exports() -> Exports {
    let buffered = Telemetry::enabled();
    sweep(buffered.clone());
    let recorder = Arc::new(FlightRecorderSink::new(100));
    sweep(Telemetry::with_sink(Box::new(Arc::clone(&recorder))));
    Exports {
        jsonl: buffered.to_jsonl(),
        chrome: chrome_trace(&buffered.events_sorted()),
        dump: recorder.dump_jsonl(),
        retained: recorder.len_by_severity(),
        last_trigger: recorder.last_trigger(),
    }
}

#[test]
fn faulted_causal_exports_are_byte_identical_at_any_thread_cap() {
    init_pool();
    let one = with_thread_cap(1, exports);
    assert!(one.jsonl.lines().count() > 20_000, "the sweep records a full trace");
    assert_eq!(one.retained, (100, 100, 100), "every severity ring evicted");
    assert_eq!(one.last_trigger.as_deref(), Some("fault.fallback"));
    for (label, other) in [("cap 2", with_thread_cap(2, exports)), ("cap N", exports())] {
        assert!(other.jsonl == one.jsonl, "{label}: JSONL trace differs from cap 1");
        assert!(other.chrome == one.chrome, "{label}: Chrome export differs from cap 1");
        assert!(other.dump == one.dump, "{label}: flight post-mortem differs from cap 1");
        assert_eq!(other, one, "{label}");
    }
}
