//! The shape-memoized DES fast path pinned against the exact event
//! loop, bit for bit.
//!
//! A sink that keeps per-event trajectories (a ring buffer, like every
//! trace export) forces the DES onto the exact per-event loop, while a
//! metrics-only handle takes the memoized replay. The two runs must
//! agree on *everything observable*: every energy total, the fault
//! ledger (attempts/retries/fallbacks/delivered and the
//! `delivered + fallbacks + dropouts == active` conservation law),
//! every telemetry counter except the routing counters
//! (`des.fastpath.replayed` on the replay, `des.fastpath.refused.*` on
//! the loop, which count the same clients) and the `des.*` histograms
//! (event-queue occupancy and cycle horizon). The agreement must hold
//! at thread caps 1, 2 and N, across fault severities from none to
//! outage-plus-brownout, and from a single client to 10⁵.
//!
//! The flight recorder keeps events but no trajectories, so it stays on
//! the replay; a last pin checks that it sees exactly the full stream
//! minus the `des.{arrival,transfer_done,process_done}` records.

use precision_beekeeping::orchestra::allocator::FillPolicy;
use precision_beekeeping::orchestra::faults::{Brownout, OutageWindow};
use precision_beekeeping::orchestra::loss::LossModel;
use precision_beekeeping::orchestra::prelude::*;
use precision_beekeeping::orchestra::simulation::CycleReport;
use precision_beekeeping::telemetry::{Event, EventSink, FlightRecorderSink};
use precision_beekeeping::units::Seconds;
use proptest::prelude::*;
use rayon::pool::with_thread_cap;
use std::sync::{Arc, Once};

/// Pin `RAYON_NUM_THREADS=4` (unless the caller chose a value) before
/// the pool's first lazy initialization, so thread-count comparisons
/// are real even on a single-core host.
fn init_pool() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        if std::env::var("RAYON_NUM_THREADS").is_err() {
            std::env::set_var("RAYON_NUM_THREADS", "4");
        }
    });
}

fn spec(cap: usize) -> ScenarioSpec {
    ScenarioSpec {
        edge_client: presets::edge_client(ServiceKind::Cnn),
        cloud_client: presets::edge_cloud_client(),
        server: presets::cloud_server(ServiceKind::Cnn, cap),
        loss: LossModel::NONE,
        policy: FillPolicy::PackSlots,
    }
}

/// The four severities the pin sweeps: fault-free, light packet loss,
/// the CLI's `mid` plan, and a heavy outage-plus-brownout plan that
/// drives most clients through retries or fallbacks.
fn severity(label: char) -> FaultPlan {
    let mut p = FaultPlan::NONE;
    match label {
        'N' => {}
        'A' => {
            p.packet_loss = 0.05;
            p.sensor_dropout = 0.02;
        }
        'B' => return FaultPlan::mid_severity(),
        'C' => {
            p.outage = Some(OutageWindow::new(Seconds(40.0), Seconds(160.0)));
            p.brownout = Some(Brownout { probability: 0.2 });
            p.sensor_dropout = 0.1;
            p.packet_loss = 0.35;
            p.retry.max_retries = 2;
            p.retry.base_backoff = Seconds(20.0);
            p.retry.jitter = 0.5;
        }
        other => panic!("unknown severity {other}"),
    }
    p
}

/// One `des.*` histogram as `(name, count, min, max, p50, p95)`. The
/// sum and mean are left out: worker threads add their observations in
/// scheduling order, so those two may round differently between any
/// two multi-threaded runs, while the rest may not.
type DesHistogram = (String, u64, f64, f64, f64, f64);

/// The fast-path routing counters, in clients: each cycle adds its
/// participating clients to exactly one of them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Routing {
    replayed: u64,
    refused_recording: u64,
    refused_tagged: u64,
    refused_no_slots: u64,
}

/// One DES evaluation plus its telemetry counters, with the routing
/// counters split out (each exists on one path only; everything else
/// must match bitwise), and its `des.*` histograms (span timings are
/// wall-clock and excluded).
fn run(
    seed: u64,
    n: usize,
    plan: &FaultPlan,
    tel: Telemetry,
) -> (CycleReport, Vec<(String, u64)>, Routing, Vec<DesHistogram>) {
    let ctx = SimContext::with_telemetry(seed, tel.clone()).with_fault_plan(*plan);
    let report = Backend::Des.evaluate(&spec(35), n, &ctx);
    let snap = tel.snapshot();
    let mut counters = snap.counters;
    let mut take = |name: &str| {
        counters.iter().position(|(k, _)| k == name).map(|i| counters.remove(i).1).unwrap_or(0)
    };
    let routing = Routing {
        replayed: take("des.fastpath.replayed"),
        refused_recording: take("des.fastpath.refused.recording"),
        refused_tagged: take("des.fastpath.refused.tagged"),
        refused_no_slots: take("des.fastpath.refused.no_slots"),
    };
    let histograms = snap
        .histograms
        .into_iter()
        .filter(|(k, _)| k.starts_with("des."))
        .map(|(k, h)| (k, h.count, h.min, h.max, h.p50, h.p95))
        .collect();
    (report, counters, routing, histograms)
}

/// The core pin: fast path (metrics-only telemetry) vs exact loop
/// (ring sink keeps events, which forces the per-event path), at one
/// thread cap.
fn assert_equivalent(seed: u64, n: usize, label: char) {
    let plan = severity(label);
    let (fast, fast_counters, fast_routing, fast_histograms) =
        run(seed, n, &plan, Telemetry::metrics_only());
    let (exact, exact_counters, exact_routing, exact_histograms) =
        run(seed, n, &plan, Telemetry::ring(1));
    assert_eq!(fast, exact, "severity {label}, n={n}: report diverged");
    assert_eq!(fast_counters, exact_counters, "severity {label}, n={n}: counters diverged");
    assert_eq!(fast_histograms, exact_histograms, "severity {label}, n={n}: histograms diverged");
    assert_eq!(exact_routing.replayed, 0, "the exact loop must never report replayed clients");
    let replayed = fast_routing.replayed;
    if label == 'N' && n > 0 {
        assert!(replayed > 0, "fault-free n={n} must take the fast path");
    }
    // Every client the replay took, the loop refused for the recording
    // sink, and for no other reason.
    assert_eq!(
        fast_routing,
        Routing { replayed, ..Routing::default() },
        "severity {label}, n={n}: the metrics-only run refused the replay"
    );
    assert_eq!(
        exact_routing,
        Routing { refused_recording: replayed, ..Routing::default() },
        "severity {label}, n={n}: refused.recording must count the replayed clients"
    );

    // Conservation: no sample is ever lost, on either path. (A `NONE`
    // plan takes the fault-free code path, which keeps no ledger.)
    if label != 'N' {
        let f = &fast.faults;
        assert_eq!(
            f.delivered + f.fallbacks + f.sensor_dropouts,
            fast.n_active as u64,
            "severity {label}, n={n}: conservation violated"
        );
    }
}

/// And the fast path must not care how the fleet is sharded.
fn assert_thread_stable(seed: u64, n: usize, label: char) {
    let plan = severity(label);
    let eval = || run(seed, n, &plan, Telemetry::metrics_only()).0;
    let uncapped = eval();
    assert_eq!(with_thread_cap(1, eval), uncapped, "severity {label}, n={n}: 1 thread diverged");
    assert_eq!(with_thread_cap(2, eval), uncapped, "severity {label}, n={n}: 2 threads diverged");
}

#[test]
fn fastpath_matches_exact_loop_across_severities_and_populations() {
    init_pool();
    for label in ['N', 'A', 'B', 'C'] {
        for n in [1usize, 7, 1_000] {
            assert_equivalent(11, n, label);
            assert_thread_stable(11, n, label);
        }
    }
}

#[test]
fn fastpath_matches_exact_loop_at_1e5_clients() {
    init_pool();
    // The 10⁵ point only needs one severity per path regime: mid
    // exercises the clean/divergent split, fault-free the pure replay.
    for label in ['N', 'B'] {
        assert_equivalent(23, 100_000, label);
        assert_thread_stable(23, 100_000, label);
    }
}

/// The per-event DES trajectory kinds, which only sinks that keep
/// trajectories receive.
const TRAJECTORY_KINDS: [&str; 3] = ["des.arrival", "des.transfer_done", "des.process_done"];

/// An event as `(t bits, kind, fields)`. `seq` is dropped: the full
/// stream numbers the trajectory events too. Fields compare through
/// `Debug`, which prints every float's exact round-trip digits.
fn content(e: &Event) -> (u64, String, String) {
    (e.t_sim.to_bits(), e.kind.to_string(), format!("{:?}", e.fields))
}

#[test]
fn flight_recorder_replays_and_sees_the_stream_minus_trajectories() {
    init_pool();
    with_thread_cap(1, || {
        for label in ['B', 'C'] {
            let plan = severity(label);
            for n in [7usize, 1_000] {
                // Large enough that no severity ring evicts anything.
                let recorder = Arc::new(FlightRecorderSink::new(1 << 20));
                let (recorded, _, routing, _) =
                    run(31, n, &plan, Telemetry::with_sink(Box::new(Arc::clone(&recorder))));
                let full_tel = Telemetry::enabled();
                let (full, ..) = run(31, n, &plan, full_tel.clone());
                let at = format!("severity {label}, n={n}");
                assert_eq!(format!("{recorded:?}"), format!("{full:?}"), "{at}: report diverged");
                assert_eq!(
                    routing.replayed, recorded.faults.delivered,
                    "{at}: the recorded run must replay every delivered client"
                );

                let mut all = full_tel.events();
                all.sort_by_key(|e| e.seq);
                let want: Vec<_> = all
                    .iter()
                    .filter(|e| !TRAJECTORY_KINDS.contains(&e.kind.as_ref()))
                    .map(content)
                    .collect();
                let got: Vec<_> = recorder.events().iter().map(content).collect();
                assert_eq!(got, want, "{at}: recorder stream != full stream minus trajectories");
                if recorded.faults.delivered > 0 {
                    for kind in TRAJECTORY_KINDS {
                        assert!(all.iter().any(|e| e.kind == kind), "{at}: {kind} missing");
                    }
                }
            }
        }
    });
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(6))]

    /// Any seed, any severity, small populations: the replay and the
    /// exact loop stay bitwise interchangeable.
    #[test]
    fn fastpath_equivalence_holds_for_any_seed(
        seed in 0u64..1_000_000,
        n_idx in 0usize..4,
        label_idx in 0usize..4,
    ) {
        init_pool();
        let n = [1usize, 7, 230, 1_000][n_idx];
        let label = ['N', 'A', 'B', 'C'][label_idx];
        assert_equivalent(seed, n, label);
        assert_thread_stable(seed, n, label);
    }
}
