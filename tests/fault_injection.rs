//! The fault-injection layer's contract, pinned across all three
//! backends.
//!
//! Three kinds of evidence, complementing each other:
//!
//! * **property invariants** — for *any* fault plan: energy under faults
//!   is at least the fault-free energy (synchronized backends) and at
//!   most the all-retries-exhausted bound; fallback never loses a
//!   sample (`delivered + fallbacks + sensor_dropouts == active`
//!   everywhere); the same seed is bit-identical at any thread count;
//! * **parity oracles** — under a full-cycle outage every backend must
//!   agree *exactly* on the edge side (every sample falls back), and
//!   under a partial outage window the timeline's fallback count is an
//!   exact slot-schedule computation that brackets the DES draw;
//! * **exact golden counts** — hand-computed outage/retry/fallback
//!   numbers on the paper's cap-10 / 180-client setting, plus golden
//!   copies (`tests/golden/`) of the fault-free reports and of the
//!   metric names a sweep registers, with and without faults.

use precision_beekeeping::orchestra::allocator::FillPolicy;
use precision_beekeeping::orchestra::faults::{Brownout, OutageWindow};
use precision_beekeeping::orchestra::loss::LossModel;
use precision_beekeeping::orchestra::montecarlo::{replicate_point, replicate_point_with};
use precision_beekeeping::orchestra::prelude::*;
use precision_beekeeping::orchestra::sweep::SweepConfig;
use precision_beekeeping::units::{Joules, Seconds};
use proptest::prelude::*;
use rayon::pool::with_thread_cap;
use std::sync::Once;

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

fn paper_spec(cap: usize, loss: LossModel) -> ScenarioSpec {
    ScenarioSpec::paper(ServiceKind::Cnn, cap, loss)
}

fn sweep_config(cap: usize, loss: LossModel) -> SweepConfig {
    SweepConfig {
        edge_client: presets::edge_client(ServiceKind::Cnn),
        cloud_client: presets::edge_cloud_client(),
        server: presets::cloud_server(ServiceKind::Cnn, cap),
        loss,
        policy: FillPolicy::PackSlots,
        seed: 7,
    }
}

fn plan_with(f: impl FnOnce(&mut FaultPlan)) -> FaultPlan {
    let mut p = FaultPlan::NONE;
    f(&mut p);
    p
}

/// Report fields that must not depend on thread count or fault-layer
/// refactors, as raw bits.
fn energy_bits(r: &precision_beekeeping::orchestra::CycleReport) -> [u64; 4] {
    [
        r.edge_energy_total.value().to_bits(),
        r.server_energy_total.value().to_bits(),
        r.total_energy.value().to_bits(),
        r.total_per_client.value().to_bits(),
    ]
}

#[test]
fn none_plan_context_is_the_default_context() {
    // `with_fault_plan(FaultPlan::NONE)` must reproduce the default
    // context: whole-report equality, faults all zero.
    let spec = paper_spec(10, LossModel::all());
    for backend in Backend::ALL {
        for n in [0usize, 1, 90, 180, 406] {
            let plain = backend.compare(&spec, n, &SimContext::new(0xBEE));
            let roundtrip =
                backend.compare(&spec, n, &SimContext::new(0xBEE).with_fault_plan(FaultPlan::NONE));
            assert_eq!(plain.cloud, roundtrip.cloud, "{backend} n = {n}");
            assert_eq!(plain.edge, roundtrip.edge, "{backend} n = {n}");
            assert_eq!(plain.cloud.faults, FaultStats::default());
        }
    }
}

/// The `{:?}` of `compare()` under [`FaultPlan::NONE`], one line per
/// (loss, backend, population). `f64`'s `Debug` round-trips, so the
/// golden copy pins every energy bit, the n = 0 `-0.0` of the timeline
/// included.
fn none_report_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (loss_name, loss) in [("none", LossModel::NONE), ("all", LossModel::all())] {
        let spec = paper_spec(10, loss);
        for backend in Backend::ALL {
            for n in [0usize, 1, 90, 180, 406, 2000] {
                let p = backend.compare(&spec, n, &SimContext::new(0xBEE));
                lines.push(format!("{backend} loss={loss_name} n={n}: {p:?}"));
            }
        }
    }
    lines
}

#[test]
fn none_plan_reports_match_their_golden_debug_output() {
    let golden: Vec<&str> = include_str!("golden/none_reports.txt").lines().collect();
    let actual = none_report_lines();
    assert_eq!(actual.len(), golden.len(), "golden line count");
    for (a, g) in actual.iter().zip(&golden) {
        assert_eq!(a, g);
    }
}

/// The sorted metric names (as `kind name`) a `metrics_only` sweep
/// registers on `backend` under `plan`.
fn sweep_metric_names(backend: Backend, plan: FaultPlan) -> Vec<String> {
    let tel = Telemetry::metrics_only();
    let cfg = sweep_config(10, LossModel::all());
    let ctx = SimContext::with_telemetry(cfg.seed, tel.clone()).with_fault_plan(plan);
    let _ = cfg.run_with_context(&backend, &[0, 90, 180, 406], &ctx);
    let snap = tel.snapshot();
    let mut names: Vec<String> = snap
        .counters
        .iter()
        .map(|(n, _)| format!("counter {n}"))
        .chain(snap.gauges.iter().map(|(n, _)| format!("gauge {n}")))
        .chain(snap.histograms.iter().map(|(n, _)| format!("histogram {n}")))
        .collect();
    names.sort();
    names
}

#[test]
fn sweep_metric_name_sets_match_their_golden_copy() {
    // Fault-free sweeps register no `fault.*` or `columns.*` metric;
    // faulted ones do. Names are a set, so the pin is thread-count-free.
    let mut actual = Vec::new();
    for backend in Backend::ALL {
        for (plan_name, plan) in [("none", FaultPlan::NONE), ("mid", FaultPlan::mid_severity())] {
            actual.push(format!("[{backend} {plan_name}]"));
            actual.extend(sweep_metric_names(backend, plan));
        }
    }
    let golden: Vec<&str> = include_str!("golden/metric_names.txt").lines().collect();
    assert_eq!(actual, golden);
}

prop_compose! {
    /// A plan that is *structurally* non-NONE (a random retry policy)
    /// but can strike no client: zero probabilities, no outage window,
    /// no slow-down.
    fn zero_strike_plan()(
        max_retries in 0u32..8,
        base_backoff in 1.0f64..60.0,
        backoff_factor in 1.0f64..4.0,
        jitter in 0.0f64..0.5,
    ) -> FaultPlan {
        FaultPlan {
            retry: RetryPolicy {
                max_retries,
                base_backoff: Seconds(base_backoff),
                backoff_factor,
                jitter,
                ..RetryPolicy::DEFAULT
            },
            ..FaultPlan::NONE
        }
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(48))]

    /// Disabling faults reproduces pre-fault results exactly: a plan that
    /// strikes no client lands on the very same energy bits as the
    /// fault-free run, on every backend and at every population, n = 0
    /// included. Only the accounting differs: every active client is a
    /// delivered uploader.
    #[test]
    fn zero_probability_plan_reproduces_fault_free_energies_bit_identically(
        plan in zero_strike_plan(),
        backend in 0usize..3,
        n in 0usize..=2000,
        lossy in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        prop_assert!(!plan.strikes_clients());
        let backend = Backend::ALL[backend];
        let loss = if lossy { LossModel::client_loss_only() } else { LossModel::NONE };
        let spec = paper_spec(10, loss);
        let plain = backend.compare(&spec, n, &SimContext::new(seed));
        let faulted = backend.compare(&spec, n, &SimContext::new(seed).with_fault_plan(plan));
        prop_assert_eq!(energy_bits(&plain.cloud), energy_bits(&faulted.cloud), "{} n = {} cloud", backend, n);
        prop_assert_eq!(energy_bits(&plain.edge), energy_bits(&faulted.edge), "{} n = {} edge", backend, n);
        prop_assert_eq!(plain.cloud.n_active, faulted.cloud.n_active);
        prop_assert_eq!(plain.cloud.n_servers, faulted.cloud.n_servers);
        if !plan.is_none() {
            prop_assert_eq!(faulted.cloud.faults.delivered, faulted.cloud.n_active as u64);
            prop_assert_eq!(faulted.cloud.faults.fallbacks, 0);
            prop_assert_eq!(faulted.cloud.faults.retries, 0);
        }
    }
}

#[test]
fn full_cycle_outage_degrades_every_backend_to_pure_edge() {
    // Cloud unreachable for the whole cycle: every uploader exhausts its
    // retries and falls back to edge inference. No sample is lost, and
    // all three backends agree on the edge side *exactly* (same
    // fallback count × same fallback cost + same retry energy).
    let plan = plan_with(|p| {
        p.outage = Some(OutageWindow::new(Seconds(0.0), Seconds(1e12)));
        p.retry.jitter = 0.0;
    });
    let spec = paper_spec(10, LossModel::NONE);
    let n = 180;
    let reports: Vec<_> = Backend::ALL
        .iter()
        .map(|b| b.evaluate(&spec, n, &SimContext::new(5).with_fault_plan(plan)))
        .collect();
    for (b, r) in Backend::ALL.iter().zip(&reports) {
        assert_eq!(r.faults.fallbacks, n as u64, "{b}: everyone falls back");
        assert_eq!(r.faults.delivered, 0, "{b}: nothing reaches the cloud");
        assert_eq!(r.faults.retries, 3 * n as u64, "{b}: full retry budget spent");
        assert_eq!(
            r.faults.delivered + r.faults.fallbacks + r.faults.sensor_dropouts,
            n as u64,
            "{b}: conservation"
        );
    }
    let edge0 = reports[0].edge_energy_total;
    for (b, r) in Backend::ALL.iter().zip(&reports).skip(1) {
        assert!(
            (r.edge_energy_total - edge0).abs() < Joules(1e-6),
            "{b} edge total {} vs closed-form {edge0}",
            r.edge_energy_total
        );
    }
    // The synchronized backends also agree on the (pre-fault
    // provisioned) server side; the DES ablation's server now idles.
    assert!((reports[0].server_energy_total - reports[1].server_energy_total).abs() < Joules(1e-6));
    // The degraded scenario costs more than a genuine pure-edge
    // deployment ever would: retries burned energy for nothing.
    let edge_only = Backend::ClosedForm.evaluate_edge(&spec, n, &SimContext::new(5));
    assert!(reports[0].edge_energy_total > edge_only.edge_energy_total);
}

#[test]
fn partial_outage_counts_match_the_slot_schedule_exactly() {
    // Cap 10, 180 clients → 18 slots starting at 0, 16, …, 272 s. An
    // outage over [0, 144) with no retries kills exactly the 9 slots
    // whose transfer starts before 144 s → 90 fallbacks on the timeline.
    let plan = plan_with(|p| {
        p.outage = Some(OutageWindow::new(Seconds(0.0), Seconds(144.0)));
        p.retry.max_retries = 0;
    });
    let spec = paper_spec(10, LossModel::NONE);
    let tl = Backend::EventTimeline.evaluate(&spec, 180, &SimContext::new(9).with_fault_plan(plan));
    assert_eq!(tl.faults.fallbacks, 90, "9 of 18 slots start inside the window");
    assert_eq!(tl.faults.delivered, 90);
    assert_eq!(tl.faults.attempts, 180, "no retries allowed");

    // Closed form prices the same window in expectation: first-attempt
    // failure 144/300 = 0.48 → round(180 × 0.48) = 86 fallbacks.
    let cf = Backend::ClosedForm.evaluate(&spec, 180, &SimContext::new(9).with_fault_plan(plan));
    assert_eq!(cf.faults.fallbacks, 86);
    assert_eq!(cf.faults.delivered, 94);

    // The DES draws arrival times uniformly, so its count is a binomial
    // draw around 86–90; bracket it instead of pinning the RNG.
    let des = Backend::Des.evaluate(&spec, 180, &SimContext::new(9).with_fault_plan(plan));
    assert!(
        (60..=120).contains(&(des.faults.fallbacks as usize)),
        "des fallbacks {}",
        des.faults.fallbacks
    );
    assert_eq!(des.faults.delivered + des.faults.fallbacks, 180);
}

#[test]
fn retries_escape_a_short_outage_on_the_backoff_schedule() {
    // Outage [0, 20): only slots 0 (t = 0 s) and 1 (t = 16 s) start
    // inside it. With a deterministic 30 s backoff the first retry lands
    // at 30 s and 46 s — clear of the window — so exactly 20 clients
    // retry once and *everyone* delivers.
    let plan = plan_with(|p| {
        p.outage = Some(OutageWindow::new(Seconds(0.0), Seconds(20.0)));
        p.retry.base_backoff = Seconds(30.0);
        p.retry.jitter = 0.0;
    });
    let spec = paper_spec(10, LossModel::NONE);
    let r = Backend::EventTimeline.evaluate(&spec, 180, &SimContext::new(2).with_fault_plan(plan));
    assert_eq!(r.faults.retries, 20, "2 slots × 10 clients × 1 retry");
    assert_eq!(r.faults.attempts, 200);
    assert_eq!(r.faults.fallbacks, 0);
    assert_eq!(r.faults.delivered, 180);
    // The energy ledger charges exactly 20 extra transmit bursts over
    // the fault-free run: (tx_power − sleep_power) × 15 s ≈ 27.92 J.
    let plain = Backend::EventTimeline.evaluate(&spec, 180, &SimContext::new(2));
    let extra = r.edge_energy_total - plain.edge_energy_total;
    assert!((extra - Joules(20.0 * 27.92)).abs() < Joules(0.5), "extra {extra}");
    assert!(
        (r.server_energy_total - plain.server_energy_total).abs() < Joules(1e-9),
        "server provisioning is pre-fault"
    );
}

#[test]
fn brownouts_and_dropouts_conserve_samples_across_all_backends() {
    // The class draw comes from the point's dedicated fault stream, so
    // all three backends (and the pure-edge side) see the same
    // brown-out / dropout counts — and nobody ever loses a sample to a
    // fallback.
    let plan = plan_with(|p| {
        p.brownout = Some(Brownout { probability: 0.15 });
        p.sensor_dropout = 0.1;
        p.packet_loss = 0.2;
    });
    let spec = paper_spec(10, LossModel::client_loss_only());
    let cf = Backend::ClosedForm.compare(&spec, 300, &SimContext::new(21).with_fault_plan(plan));
    let tl = Backend::EventTimeline.compare(&spec, 300, &SimContext::new(21).with_fault_plan(plan));
    let des = Backend::Des.compare(&spec, 300, &SimContext::new(21).with_fault_plan(plan));
    let active = cf.cloud.n_active as u64;
    assert!(active < 300, "loss C must have struck");
    for (name, p) in [("closed-form", &cf), ("timeline", &tl), ("des", &des)] {
        let f = &p.cloud.faults;
        assert_eq!(f.brownouts, cf.cloud.faults.brownouts, "{name} brown-outs");
        assert_eq!(f.sensor_dropouts, cf.cloud.faults.sensor_dropouts, "{name} dropouts");
        assert!(f.brownouts > 0 && f.sensor_dropouts > 0, "{name}: plan must bite");
        assert_eq!(
            f.delivered + f.fallbacks + f.sensor_dropouts,
            active,
            "{name}: fallback never loses a sample"
        );
        // The pure-edge side loses only sensor dropouts, and processes
        // exactly as many samples as the cloud side delivered-or-fell-back.
        assert_eq!(p.edge.faults.delivered, active - f.sensor_dropouts, "{name} edge side");
        assert_eq!(p.edge.faults.delivered, f.samples_processed(), "{name} sample parity");
    }
}

#[test]
fn faulted_results_are_bit_identical_across_thread_counts() {
    init_pool();
    let ns: Vec<usize> = (100..=600).step_by(50).collect();
    for backend in Backend::ALL {
        let run = || {
            let cfg = sweep_config(35, LossModel::client_loss_only());
            let ctx = cfg.context_with_faults(FaultPlan::mid_severity());
            let points = cfg.run_with_context(&backend, &ns, &ctx);
            points
                .iter()
                .flat_map(|p| {
                    let mut v = energy_bits(&p.cloud).to_vec();
                    v.extend(energy_bits(&p.edge));
                    v.extend([
                        p.cloud.faults.attempts,
                        p.cloud.faults.retries,
                        p.cloud.faults.fallbacks,
                        p.cloud.faults.delivered,
                    ]);
                    v
                })
                .collect::<Vec<u64>>()
        };
        let capped_1 = with_thread_cap(1, run);
        let capped_2 = with_thread_cap(2, run);
        let uncapped = run();
        assert_eq!(capped_1, capped_2, "{backend}: 1 vs 2 threads diverged");
        assert_eq!(capped_1, uncapped, "{backend}: serial vs pooled diverged");
        // And the whole thing is reproducible run to run.
        assert_eq!(uncapped, run(), "{backend}: same seed, same bits");
    }
}

#[test]
fn allocation_cache_never_serves_a_none_plan_shape_to_a_faulted_run() {
    // A 2× server slow-down stretches the slot to 32 s → 9 slots → a
    // 90-client server: 180 clients need *two* degraded servers where
    // the fault-free plan packs them into one. A cache keyed without the
    // fault plan would serve the one-server shape to the faulted run.
    let spec = paper_spec(10, LossModel::NONE);
    let base = SimContext::new(1);
    let none = Backend::ClosedForm.evaluate(&spec, 180, &base);
    assert_eq!(none.n_servers, 1);
    assert_eq!(base.cache().misses(), 1);

    let slowed = base.clone().with_fault_plan(plan_with(|p| p.slowdown = 2.0));
    let degraded = Backend::ClosedForm.evaluate(&spec, 180, &slowed);
    assert_eq!(degraded.n_servers, 2, "the degraded server must be re-provisioned");
    assert_eq!(slowed.cache().misses(), 2, "the faulted run must not hit the NONE entry");
    assert_eq!(slowed.cache().hits(), 0);

    // Two *different* plans never alias either, even at the same shape:
    // the fingerprint is part of the key.
    let slowed_lossy = base.clone().with_fault_plan(plan_with(|p| {
        p.slowdown = 2.0;
        p.packet_loss = 0.3;
    }));
    let _ = Backend::ClosedForm.evaluate(&spec, 180, &slowed_lossy);
    assert_eq!(base.cache().misses(), 3, "distinct plans take distinct cache keys");

    // The fault-free entry is still intact and still hit.
    let again = Backend::ClosedForm.evaluate(&spec, 180, &base);
    assert_eq!(again.n_servers, 1);
    assert_eq!(base.cache().hits(), 1);
}

#[test]
fn fault_events_and_counters_reach_telemetry_without_perturbing_results() {
    // A 10 s backoff cannot escape the long outage: slots starting
    // before 134 s burn their single retry inside the window and fall
    // back, so the trace carries all three fault event kinds.
    let plan = plan_with(|p| {
        p.outage = Some(OutageWindow::new(Seconds(0.0), Seconds(144.0)));
        p.retry.max_retries = 1;
        p.retry.base_backoff = Seconds(10.0);
        p.retry.jitter = 0.0;
    });
    let spec = paper_spec(10, LossModel::NONE);
    let tel = Telemetry::enabled();
    let traced_ctx = SimContext::with_telemetry(9, tel.clone()).with_fault_plan(plan);
    let traced = Backend::EventTimeline.evaluate(&spec, 180, &traced_ctx);
    let plain =
        Backend::EventTimeline.evaluate(&spec, 180, &SimContext::new(9).with_fault_plan(plan));
    assert_eq!(energy_bits(&plain), energy_bits(&traced), "telemetry must not perturb");
    assert_eq!(plain.faults, traced.faults);

    // Counters mirror the per-cycle stats one-to-one.
    let snap = tel.snapshot();
    for (name, want) in [
        ("fault.attempts", traced.faults.attempts),
        ("fault.retries", traced.faults.retries),
        ("fault.fallbacks", traced.faults.fallbacks),
        ("fault.sensor_dropouts", traced.faults.sensor_dropouts),
        ("fault.delivered", traced.faults.delivered),
    ] {
        assert_eq!(snap.counter(name), Some(want), "{name}");
    }
    // The trace carries the `fault.{outage,retry,fallback}` events.
    let events = tel.events();
    let kinds: Vec<&str> = events.iter().map(|e| e.kind.as_ref()).collect();
    assert!(kinds.contains(&"fault.outage"), "outage hits recorded");
    assert!(kinds.contains(&"fault.retry"), "retry schedule recorded");
    assert!(kinds.contains(&"fault.fallback"), "fallbacks recorded");
}

#[test]
fn montecarlo_confidence_interval_under_a_mid_severity_plan() {
    // Satellite: the replicate fan-out with faults enabled. Replicates
    // draw different brown-out/dropout/packet-loss outcomes, so a real
    // confidence interval opens up where the fault-free sweep at this
    // point is deterministic — and the faulted mean is strictly dearer.
    let cfg = sweep_config(10, LossModel::NONE);
    let n = 180;
    let fault_free = replicate_point(&cfg, n, 16);
    assert!(fault_free.cloud_ci95 < Joules(1e-9), "deterministic without faults");

    let plan = FaultPlan::mid_severity();
    let faulted = replicate_point_with(&cfg, n, 32, &cfg.context_with_faults(plan));
    assert!(faulted.cloud_ci95 > Joules(0.001), "CI {}", faulted.cloud_ci95);
    assert!(faulted.cloud_ci95 < Joules(20.0), "CI {}", faulted.cloud_ci95);
    assert!(
        faulted.cloud_mean > fault_free.cloud_mean,
        "faults must cost energy: {} vs {}",
        faulted.cloud_mean,
        fault_free.cloud_mean
    );
    // The explicit-context path is the documented equivalent of the
    // plain call when the context carries no plan.
    let roundtrip = replicate_point_with(&cfg, n, 16, &cfg.context());
    assert_eq!(roundtrip.cloud_mean.value().to_bits(), fault_free.cloud_mean.value().to_bits());
}

mod props {
    use super::*;

    prop_compose! {
        /// An arbitrary fault plan over the whole supported space.
        fn any_plan()(
            outage in proptest::option::of((0.0f64..300.0, 0.0f64..250.0)),
            packet_loss in 0.0f64..0.5,
            slowdown in 1.0f64..1.8,
            brownout in proptest::option::of(0.0f64..0.3),
            sensor_dropout in 0.0f64..0.3,
            max_retries in 0u32..4,
            base_backoff in 5.0f64..40.0,
            jitter in 0.0f64..0.3,
        ) -> FaultPlan {
            FaultPlan {
                outage: outage.map(|(s, len)| OutageWindow::new(Seconds(s), Seconds(s + len))),
                packet_loss,
                slowdown,
                brownout: brownout.map(|probability| Brownout { probability }),
                sensor_dropout,
                retry: RetryPolicy {
                    max_retries,
                    base_backoff: Seconds(base_backoff),
                    jitter,
                    ..RetryPolicy::DEFAULT
                },
            }
        }
    }

    proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(24))]

        #[test]
        fn energy_under_any_plan_brackets_between_none_and_exhausted(
            plan in any_plan(),
            n in 1usize..350,
            cap in 2usize..36,
            seed in 0u64..50,
        ) {
            let spec = paper_spec(cap, LossModel::NONE);
            let ctx = SimContext::new(seed).with_fault_plan(plan);
            let retry_cost = 27.925; // (tx − sleep) × 15 s, cloud client
            let fallback = 367.6;    // edge CNN cycle
            for backend in [Backend::ClosedForm, Backend::EventTimeline] {
                let faulted = backend.evaluate(&spec, n, &ctx);
                let plain = backend.evaluate(&spec, n, &SimContext::new(seed));
                // Lower bound: faults only ever add energy — the server
                // keeps its pre-fault provisioning for the *same* shape,
                // and a degraded (slowed) server is dearer still, while
                // every fallback swaps a 322 J upload for a 367.5 J
                // local inference (+ retry bursts). The slow-down can
                // split the population across more servers, so compare
                // totals, not shapes.
                prop_assert!(
                    faulted.total_energy >= plain.total_energy - Joules(1e-6),
                    "{backend}: faulted {} < plain {}",
                    faulted.total_energy, plain.total_energy
                );
                // Upper bound: every active client costs at most one
                // fallback plus a fully exhausted retry budget.
                let per_client_cap = fallback
                    + plan.retry.max_retries as f64 * retry_cost;
                let bound = faulted.server_energy_total
                    + Joules(per_client_cap * faulted.n_active as f64);
                prop_assert!(
                    faulted.total_energy <= bound + Joules(1e-6),
                    "{backend}: faulted {} > bound {}",
                    faulted.total_energy, bound
                );
            }
            // The DES ablation's server side legitimately *saves* energy
            // when uploads vanish (each async upload bills its own
            // receive window), so only its edge side is monotone.
            let des = Backend::Des.evaluate(&spec, n, &ctx);
            let des_plain = Backend::Des.evaluate(&spec, n, &SimContext::new(seed));
            prop_assert!(des.edge_energy_total >= des_plain.edge_energy_total - Joules(1e-6));
        }

        #[test]
        fn fallback_never_loses_a_sample_anywhere(
            plan in any_plan(),
            n in 1usize..300,
            cap in 2usize..36,
            seed in 0u64..50,
        ) {
            let spec = paper_spec(cap, LossModel::client_loss_only());
            let ctx = SimContext::new(seed).with_fault_plan(plan);
            for backend in Backend::ALL {
                let p = backend.compare(&spec, n, &ctx);
                let f = &p.cloud.faults;
                let active = p.cloud.n_active as u64;
                prop_assert_eq!(
                    f.delivered + f.fallbacks + f.sensor_dropouts, active,
                    "{} conservation", backend
                );
                prop_assert!(f.brownouts <= f.fallbacks, "{}", backend);
                prop_assert!(f.retries <= f.attempts, "{}", backend);
                prop_assert_eq!(
                    p.edge.faults.delivered, active - f.sensor_dropouts,
                    "{} edge side", backend
                );
            }
        }

        #[test]
        fn same_seed_same_bits_on_repeat_evaluation(
            plan in any_plan(),
            n in 1usize..250,
            seed in 0u64..50,
        ) {
            let spec = paper_spec(10, LossModel::all());
            for backend in Backend::ALL {
                let a = backend.evaluate(&spec, n, &SimContext::new(seed).with_fault_plan(plan));
                let b = backend.evaluate(&spec, n, &SimContext::new(seed).with_fault_plan(plan));
                prop_assert_eq!(energy_bits(&a), energy_bits(&b), "{}", backend);
                prop_assert_eq!(a.faults, b.faults, "{}", backend);
            }
        }
    }
}
