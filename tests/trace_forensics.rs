//! Causal tracing and trace forensics, pinned end to end.
//!
//! The observability acceptance criteria of the tracing layer:
//!
//! * **golden root causes** — on the exact seed-9 / 90-fallback outage
//!   run of the fault suite, the offline forensics must reconstruct a
//!   fallback root-cause table that matches the conservation line;
//! * **chains equal counters** — every fallen-back client yields a
//!   causal chain (sample → attempts → retries → fallback) whose hop
//!   counts equal the recorded retry counters, and the chains are
//!   bit-identical at `RAYON_NUM_THREADS ∈ {1, 2, N}`;
//! * **tracing off is invisible** — the untagged event stream carries no
//!   trace fields and the simulation results are bit-identical whether
//!   the tracing flag is set or not.

use precision_beekeeping::orchestra::faults::{Brownout, OutageWindow};
use precision_beekeeping::orchestra::loss::LossModel;
use precision_beekeeping::orchestra::prelude::*;
use precision_beekeeping::telemetry::export::{chrome_trace_from_jsonl, openmetrics};
use precision_beekeeping::telemetry::trace::Outcome;
use precision_beekeeping::telemetry::{FlightRecorderSink, Forensics, Telemetry};
use precision_beekeeping::units::Seconds;
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

fn paper_spec(cap: usize) -> ScenarioSpec {
    ScenarioSpec::paper(ServiceKind::Cnn, cap, LossModel::NONE)
}

fn plan_with(f: impl FnOnce(&mut FaultPlan)) -> FaultPlan {
    let mut p = FaultPlan::NONE;
    f(&mut p);
    p
}

/// A causally-traced context: recording sink + the tracing flag.
fn causal_ctx(seed: u64, plan: FaultPlan) -> (SimContext, Telemetry) {
    let tel = Telemetry::enabled().with_tracing();
    (SimContext::with_telemetry(seed, tel.clone()).with_fault_plan(plan), tel)
}

#[test]
fn golden_timeline_root_cause_table_matches_the_conservation_line() {
    // The fault suite's golden partial-outage run: cap 10, 180 clients,
    // outage [0, 144) with no retries → exactly 90 fallbacks and 90
    // deliveries on the timeline. The forensic reconstruction must land
    // on the same split, with every fallback rooted in the outage.
    let plan = plan_with(|p| {
        p.outage = Some(OutageWindow::new(Seconds(0.0), Seconds(144.0)));
        p.retry.max_retries = 0;
    });
    let (ctx, tel) = causal_ctx(9, plan);
    let r = Backend::EventTimeline.evaluate(&paper_spec(10), 180, &ctx);
    assert_eq!(r.faults.fallbacks, 90);
    assert_eq!(r.faults.delivered, 90);

    let forensics = Forensics::from_jsonl(&tel.to_jsonl()).expect("trace parses");
    assert_eq!(forensics.chains.len(), 180, "one causal chain per active client");
    assert_eq!(forensics.count(Outcome::Delivered), r.faults.delivered);
    assert_eq!(forensics.count(Outcome::Fallback), r.faults.fallbacks);
    assert_eq!(forensics.count(Outcome::Dropout), r.faults.sensor_dropouts);
    assert_eq!(forensics.count(Outcome::Open), 0);

    // Conservation, recomputed from the chains alone.
    let accounted = forensics.count(Outcome::Delivered)
        + forensics.count(Outcome::Fallback)
        + forensics.count(Outcome::Dropout);
    assert_eq!(accounted, r.n_active as u64);

    // Root causes: a pure outage window, so no other cause may appear.
    let causes = forensics.root_cause_table();
    assert_eq!(causes.len(), 1, "causes {causes:?}");
    assert_eq!(causes.get("outage"), Some(&90));

    // No retries allowed → the histogram is a single 0-retries bucket.
    let hist = forensics.retry_histogram();
    assert_eq!(hist.get(&0), Some(&180));
    assert_eq!(hist.len(), 1);
}

#[test]
fn golden_timeline_retry_histogram_counts_the_escaped_slots() {
    // The fault suite's golden backoff run: outage [0, 20), deterministic
    // 30 s backoff → exactly the 20 clients of slots 0 and 1 retry once
    // and everyone delivers.
    let plan = plan_with(|p| {
        p.outage = Some(OutageWindow::new(Seconds(0.0), Seconds(20.0)));
        p.retry.base_backoff = Seconds(30.0);
        p.retry.jitter = 0.0;
    });
    let (ctx, tel) = causal_ctx(2, plan);
    let r = Backend::EventTimeline.evaluate(&paper_spec(10), 180, &ctx);
    assert_eq!(r.faults.retries, 20);
    assert_eq!(r.faults.attempts, 200);

    let forensics = Forensics::from_jsonl(&tel.to_jsonl()).expect("trace parses");
    let hist = forensics.retry_histogram();
    assert_eq!(hist.get(&0), Some(&160));
    assert_eq!(hist.get(&1), Some(&20));
    assert_eq!(hist.len(), 2);
    assert_eq!(forensics.count(Outcome::Fallback), 0);
    // The chains' attempt total reproduces the attempts counter.
    let attempts: u64 = forensics.chains.iter().map(|c| c.attempts).sum();
    assert_eq!(attempts, r.faults.attempts);
}

/// One chain reduced to its thread-count-independent content:
/// `(trace, client, outcome, attempts, hops as (t bits, kind, energy))`.
type NormalChain = (u64, Option<u64>, &'static str, u64, Vec<(u64, String, f64)>);

/// Normalized view of a chain for cross-thread-count comparison: `seq`
/// values depend on global interleaving, everything else must not.
fn normalized(f: &Forensics) -> Vec<NormalChain> {
    f.chains
        .iter()
        .map(|c| {
            (
                c.trace,
                c.client,
                c.outcome.label(),
                c.attempts,
                c.hops.iter().map(|h| (h.t.to_bits(), h.kind.clone(), h.energy_j)).collect(),
            )
        })
        .collect()
}

#[test]
fn des_causal_chains_equal_retry_counters_at_any_thread_count() {
    init_pool();
    // A mixed plan exercising every chain shape: outage + packet loss
    // (retry chains, exhaustions), brown-outs and sensor dropouts.
    let plan = plan_with(|p| {
        p.outage = Some(OutageWindow::new(Seconds(60.0), Seconds(120.0)));
        p.packet_loss = 0.05;
        p.brownout = Some(Brownout { probability: 0.02 });
        p.sensor_dropout = 0.02;
    });
    let spec = paper_spec(10);
    let run = || {
        let (ctx, tel) = causal_ctx(9, plan);
        let r = Backend::Des.evaluate(&spec, 180, &ctx);
        let f = Forensics::from_jsonl(&tel.to_jsonl()).expect("trace parses");
        (r, f)
    };

    let (r, f) = run();
    assert_eq!(f.chains.len(), r.n_active, "one chain per active client");
    // Every chain's hop counts must reproduce its recorded counters.
    let mut attempts = 0u64;
    let mut retries = 0u64;
    for c in &f.chains {
        match c.outcome {
            Outcome::Fallback if c.root_cause.as_deref() == Some("brownout") => {
                assert_eq!(c.attempts, 0, "brown-outs never attempt");
            }
            Outcome::Fallback => {
                assert_eq!(c.failure_hops(), c.attempts, "every attempt failed");
                assert_eq!(c.retry_hops(), c.retries, "one retry hop per retry");
                assert_eq!(
                    c.hops.len() as u64,
                    2 * c.attempts + 1,
                    "sample + failures + retries + fallback"
                );
            }
            Outcome::Delivered => {
                assert_eq!(c.failure_hops(), c.attempts - 1, "all but the last failed");
                assert_eq!(c.retry_hops(), c.retries);
            }
            Outcome::Dropout => assert_eq!(c.hops.len(), 1, "a dropout is just its sample"),
            Outcome::Open => panic!("no open chains in a complete recording"),
        }
        attempts += c.attempts;
        retries += c.retries;
    }
    assert_eq!(attempts, r.faults.attempts, "chains reproduce the attempts counter");
    assert_eq!(retries, r.faults.retries, "chains reproduce the retries counter");
    assert_eq!(f.count(Outcome::Fallback), r.faults.fallbacks);
    assert_eq!(f.count(Outcome::Delivered), r.faults.delivered);

    // Bit-identical chains at 1, 2 and N workers.
    let (r1, f1) = with_thread_cap(1, run);
    let (r2, f2) = with_thread_cap(2, run);
    assert_eq!(r1.total_energy.value().to_bits(), r.total_energy.value().to_bits());
    assert_eq!(r2.total_energy.value().to_bits(), r.total_energy.value().to_bits());
    let base = normalized(&f);
    assert_eq!(normalized(&f1), base, "single-threaded chains match");
    assert_eq!(normalized(&f2), base, "two-worker chains match");
}

#[test]
fn fault_free_des_tags_network_hops_when_tracing_is_on() {
    // The causal path is not fault-only: a plain DES evaluation under the
    // tracing flag yields one delivered chain per client, hopping
    // sample → arrival → transfer → process → delivered.
    let tel = Telemetry::enabled().with_tracing();
    let ctx = SimContext::with_telemetry(11, tel.clone());
    let r = Backend::Des.evaluate(&paper_spec(10), 90, &ctx);
    let f = Forensics::from_jsonl(&tel.to_jsonl()).expect("trace parses");
    assert_eq!(f.chains.len(), r.n_active);
    assert_eq!(f.count(Outcome::Delivered), r.n_active as u64);
    for c in &f.chains {
        let kinds: Vec<&str> = c.hops.iter().map(|h| h.kind.as_str()).collect();
        assert_eq!(
            kinds,
            [
                "trace.sample",
                "des.arrival",
                "des.transfer_done",
                "des.process_done",
                "trace.delivered"
            ],
            "client {:?}",
            c.client
        );
    }
}

#[test]
fn tracing_off_leaves_no_trace_fields_and_identical_results() {
    let plan = plan_with(|p| {
        p.outage = Some(OutageWindow::new(Seconds(60.0), Seconds(120.0)));
        p.packet_loss = 0.05;
    });
    let spec = paper_spec(10);
    let plain_tel = Telemetry::enabled();
    let plain_ctx = SimContext::with_telemetry(9, plain_tel.clone()).with_fault_plan(plan);
    let plain = Backend::Des.evaluate(&spec, 180, &plain_ctx);
    let (causal_ctx, causal_tel) = causal_ctx(9, plan);
    let causal = Backend::Des.evaluate(&spec, 180, &causal_ctx);

    // The tracing flag may add events but must never move the physics.
    assert_eq!(
        plain.total_energy.value().to_bits(),
        causal.total_energy.value().to_bits(),
        "tracing must not perturb results"
    );
    assert_eq!(plain.faults, causal.faults);

    // Untagged events carry no trace machinery at all.
    let jsonl = plain_tel.to_jsonl();
    assert!(!jsonl.contains("\"trace\""), "no trace field without the flag");
    assert!(!jsonl.contains("\"span\""), "no span field without the flag");
    assert!(!jsonl.contains("trace.sample"), "no trace.* events without the flag");
    // And the flagged stream is a strict superset: same event kinds plus
    // the trace.* spans.
    assert!(causal_tel.to_jsonl().contains("trace.sample"));
}

#[test]
fn flight_recorder_dumps_a_parseable_post_mortem_on_fallback() {
    let dump = std::env::temp_dir().join(format!("pb-flight-test-{}.jsonl", std::process::id()));
    let dump_path = dump.to_str().expect("utf-8 temp path").to_string();
    let _ = std::fs::remove_file(&dump);

    let recorder =
        std::sync::Arc::new(FlightRecorderSink::new(1024).with_auto_dump(dump_path.clone(), 1));
    let tel = Telemetry::with_sink(Box::new(std::sync::Arc::clone(&recorder))).with_tracing();
    let plan = plan_with(|p| {
        p.outage = Some(OutageWindow::new(Seconds(0.0), Seconds(144.0)));
        p.retry.max_retries = 0;
    });
    let ctx = SimContext::with_telemetry(9, tel).with_fault_plan(plan);
    let r = Backend::EventTimeline.evaluate(&paper_spec(10), 180, &ctx);
    assert_eq!(r.faults.fallbacks, 90);

    assert!(recorder.triggers_fired() >= 90, "every fallback is a trigger");
    assert_eq!(recorder.dumps_written(), 1, "first trigger wins the dump budget");
    assert_eq!(recorder.last_trigger().as_deref(), Some("fault.fallback"));
    let dumped = std::fs::read_to_string(&dump).expect("dump file written");
    let f = Forensics::from_jsonl(&dumped).expect("dump parses");
    assert!(f.chains.iter().any(|c| c.outcome == Outcome::Fallback), "dump holds the anomaly");
    let _ = std::fs::remove_file(&dump);
}

#[test]
fn brownouts_trip_the_flight_recorder_without_causal_tags() {
    init_pool();
    let plan = plan_with(|p| p.brownout = Some(Brownout { probability: 0.2 }));
    for backend in [Backend::Des, Backend::EventTimeline] {
        let dump = std::env::temp_dir()
            .join(format!("pb-flight-brownout-{backend}-{}.jsonl", std::process::id()));
        let dump_path = dump.to_str().expect("utf-8 temp path").to_string();
        let _ = std::fs::remove_file(&dump);

        let recorder =
            std::sync::Arc::new(FlightRecorderSink::new(4096).with_auto_dump(dump_path, 1));
        let tel = Telemetry::with_sink(Box::new(std::sync::Arc::clone(&recorder)));
        let ctx = SimContext::with_telemetry(9, tel).with_fault_plan(plan);
        let r = backend.evaluate(&paper_spec(10), 1000, &ctx);
        assert!(r.faults.brownouts > 0, "{backend}: the plan must bite");

        assert_eq!(recorder.triggers_fired(), r.faults.brownouts, "{backend}: one per brown-out");
        assert_eq!(recorder.dumps_written(), 1, "{backend}: the first brown-out dumps");
        let dumped = std::fs::read_to_string(&dump).expect("dump file written");
        assert!(dumped.contains("\"cause\":\"brownout\""), "{backend}: {dumped}");
        let _ = std::fs::remove_file(&dump);
    }
}

#[test]
fn exporters_cover_the_causal_sweep() {
    let plan = plan_with(|p| {
        p.outage = Some(OutageWindow::new(Seconds(0.0), Seconds(144.0)));
        p.retry.max_retries = 0;
    });
    let (ctx, tel) = causal_ctx(9, plan);
    let _ = Backend::EventTimeline.evaluate(&paper_spec(10), 180, &ctx);

    // OpenMetrics exposition: fault counters present, EOF-terminated.
    let om = openmetrics(&tel.snapshot());
    assert!(om.contains("# TYPE fault_fallbacks counter"), "exposition:\n{om}");
    assert!(om.contains("fault_fallbacks_total 90"));
    assert!(om.ends_with("# EOF\n"));

    // Chrome trace-event export: one complete slice per causal trace.
    let jsonl = tel.to_jsonl();
    let chrome = chrome_trace_from_jsonl(&jsonl).expect("chrome export");
    assert!(chrome.contains("\"traceEvents\""));
    let slices = chrome.matches("\"ph\":\"X\"").count();
    assert_eq!(slices, 180, "one span slice per traced client");
}
