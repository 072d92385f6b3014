//! Byte-level pins of the DES trace exports.
//!
//! Every case evaluates one DES sweep point on a single worker (thread
//! cap 1; `tests/trace_determinism.rs` shows other caps export the same
//! bytes) and digests the two trace exports: the `(t, seq)`-sorted JSONL and
//! the Chrome/Perfetto rendering of the same events. JSONL carries
//! `seq`, so its digest pins the emission order of every event as well
//! as its content; the Chrome digest pins the span layout of tagged
//! runs. Cases cover caps 10 and 35, populations on both sides of the
//! Fig. 7 crossover, a fault-free and a mid-severity plan, each with
//! and without causal tags.
//!
//! `tests/golden/des_traces.txt` holds one line per case. A mismatch
//! prints the full actual listing, in the golden file's format.

use precision_beekeeping::orchestra::loss::LossModel;
use precision_beekeeping::orchestra::prelude::*;
use precision_beekeeping::telemetry::export::chrome_trace;
use rayon::pool::with_thread_cap;

/// FNV-1a over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// `lines=<count> fnv=<16 hex digits>` of one export.
fn digest(text: &str) -> String {
    format!("lines={} fnv={:016x}", text.lines().count(), fnv1a(text.as_bytes()))
}

/// One line per (cap, n, plan, tags) case.
fn trace_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for cap in [10usize, 35] {
        let spec = ScenarioSpec::paper(ServiceKind::Cnn, cap, LossModel::NONE);
        for n in [90usize, 406, 2000] {
            for (plan_name, plan) in [("none", FaultPlan::NONE), ("mid", FaultPlan::mid_severity())]
            {
                for tagged in [false, true] {
                    let tel = if tagged {
                        Telemetry::enabled().with_tracing()
                    } else {
                        Telemetry::enabled()
                    };
                    let ctx = SimContext::with_telemetry(0xBEE, tel.clone()).with_fault_plan(plan);
                    let _ = Backend::Des.evaluate(&spec, n, &ctx);
                    let jsonl = tel.to_jsonl();
                    let chrome = chrome_trace(&tel.events_sorted());
                    lines.push(format!(
                        "cap={cap} n={n} plan={plan_name} tags={}: jsonl {} chrome {}",
                        if tagged { "on" } else { "off" },
                        digest(&jsonl),
                        digest(&chrome),
                    ));
                }
            }
        }
    }
    lines
}

#[test]
fn des_trace_exports_match_their_golden_digests() {
    let actual = with_thread_cap(1, trace_lines);
    let golden: Vec<&str> = include_str!("golden/des_traces.txt").lines().collect();
    assert!(
        actual.iter().map(String::as_str).eq(golden.iter().copied()),
        "DES trace digests diverged from tests/golden/des_traces.txt; actual:\n{}",
        actual.join("\n")
    );
}
