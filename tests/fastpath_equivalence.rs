//! The DES replay pinned to give the same bits whatever the telemetry
//! sink asks of it.
//!
//! A sink that keeps per-event trajectories (a ring buffer, like every
//! trace export) makes the replay also emit one record per simulated
//! event; a metrics-only handle gets none. The queueing model is the
//! same replay on both sides, and the two runs must agree on
//! *everything observable*: every energy total, the fault ledger
//! (attempts/retries/fallbacks/delivered and the
//! `delivered + fallbacks + dropouts == active` conservation law),
//! every telemetry counter — `des.fastpath.replayed` included, which
//! counts every participating client — and the `des.*` histograms
//! (event-queue occupancy and cycle horizon). The agreement must hold
//! at thread caps 1, 2 and N, across fault severities from none to
//! outage-plus-brownout, and from a single client to 10⁵. That the
//! emitted trajectories match the event-by-event simulation is pinned
//! in the `des` module's own tests, against its oracle.
//!
//! The flight recorder keeps events but no trajectories; a last pin
//! checks that it sees exactly the full stream minus the
//! `des.{arrival,transfer_done,process_done}` records.

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

/// One DES evaluation plus its telemetry counters and its `des.*`
/// histograms (span timings are wall-clock and excluded).
fn run(
    seed: u64,
    n: usize,
    plan: &FaultPlan,
    tel: Telemetry,
) -> (CycleReport, Vec<(String, u64)>, Vec<DesHistogram>) {
    let ctx = SimContext::with_telemetry(seed, tel.clone()).with_fault_plan(*plan);
    let report = Backend::Des.evaluate(&spec(35), n, &ctx);
    let snap = tel.snapshot();
    let histograms = snap
        .histograms
        .into_iter()
        .filter(|(k, _)| k.starts_with("des."))
        .map(|(k, h)| (k, h.count, h.min, h.max, h.p50, h.p95))
        .collect();
    (report, snap.counters, histograms)
}

/// The counter `name`, 0 when absent.
fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters.iter().find(|(k, _)| k == name).map_or(0, |&(_, v)| v)
}

/// The core pin: metrics-only telemetry vs a ring sink that keeps
/// trajectories, at one thread cap.
fn assert_equivalent(seed: u64, n: usize, label: char) {
    let plan = severity(label);
    let (fast, fast_counters, fast_histograms) = run(seed, n, &plan, Telemetry::metrics_only());
    let (recorded, recorded_counters, recorded_histograms) =
        run(seed, n, &plan, Telemetry::ring(1));
    assert_eq!(fast, recorded, "severity {label}, n={n}: report diverged");
    assert_eq!(fast_counters, recorded_counters, "severity {label}, n={n}: counters diverged");
    assert_eq!(
        fast_histograms, recorded_histograms,
        "severity {label}, n={n}: histograms diverged"
    );
    // Every participating client is replayed (all active clients when
    // no fault can strike; the `NONE` ledger stays empty), and no cycle
    // takes any other path.
    let participating = if label == 'N' { fast.n_active as u64 } else { fast.faults.delivered };
    assert_eq!(
        counter(&fast_counters, "des.fastpath.replayed"),
        participating,
        "severity {label}, n={n}: replayed != participating clients"
    );
    assert!(
        !fast_counters.iter().any(|(k, _)| k.starts_with("des.fastpath.refused")),
        "severity {label}, n={n}: a refusal counter exists"
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

/// And the replay must not care how the fleet is sharded.
fn assert_thread_stable(seed: u64, n: usize, label: char) {
    let plan = severity(label);
    let eval = || run(seed, n, &plan, Telemetry::metrics_only()).0;
    let uncapped = eval();
    assert_eq!(with_thread_cap(1, eval), uncapped, "severity {label}, n={n}: 1 thread diverged");
    assert_eq!(with_thread_cap(2, eval), uncapped, "severity {label}, n={n}: 2 threads diverged");
}

#[test]
fn recorded_run_matches_metrics_only_across_severities_and_populations() {
    init_pool();
    for label in ['N', 'A', 'B', 'C'] {
        for n in [1usize, 7, 1_000] {
            assert_equivalent(11, n, label);
            assert_thread_stable(11, n, label);
        }
    }
}

#[test]
fn recorded_run_matches_metrics_only_at_1e5_clients() {
    init_pool();
    // The 10⁵ point only needs one severity per replay regime: mid
    // exercises the clean/divergent split, fault-free the positional
    // replay.
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
                let (recorded, counters, _) =
                    run(31, n, &plan, Telemetry::with_sink(Box::new(Arc::clone(&recorder))));
                let full_tel = Telemetry::enabled();
                let (full, ..) = run(31, n, &plan, full_tel.clone());
                let at = format!("severity {label}, n={n}");
                assert_eq!(format!("{recorded:?}"), format!("{full:?}"), "{at}: report diverged");
                assert_eq!(
                    counter(&counters, "des.fastpath.replayed"),
                    recorded.faults.delivered,
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

    /// Any seed, any severity, small populations: recording the
    /// trajectories changes no bit of the result.
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
