//! CI bench-regression sentinel.
//!
//! Reads the machine-readable baselines the bench harnesses write at the
//! repository root — `BENCH_dsp.json` (per-stage DSP/CNN latencies),
//! `BENCH_scale.json` (per-backend sweep throughput),
//! `BENCH_parallel.json` (pooled sweep latencies) and `BENCH_serve.json`
//! (daemon request throughput) — and fails (exit 1) when any pinned row
//! regressed beyond the allowed envelope.
//!
//! The envelope has two named factors so the policy reads off the code:
//!
//! * [`MACHINE_SLACK`] absorbs the spread between the dev box that pinned
//!   the reference numbers and whatever shared runner CI lands on;
//! * [`REGRESSION_FACTOR`] is the actual gate — a change that makes a
//!   pinned row more than 25 % worse than the slack-adjusted reference
//!   fails the job.
//!
//! Missing files and missing rows are *tolerated with a notice*, never a
//! failure: CI's bench-smoke runs a `SCALE_SWEEP_MAX`-capped sweep that
//! legitimately omits the 10⁶ rows, and a future rename should not brick
//! the pipeline — the sentinel prints what it skipped so silent coverage
//! loss is visible in the log.
//!
//! Usage: `bench_sentinel [--dsp FILE] [--scale FILE] [--parallel FILE]
//! [--serve FILE]` (defaults to the repo-root filenames, resolved
//! against the current directory).

use pb_telemetry::json::{self, Json};
use std::process::ExitCode;

/// Dev-box-to-CI-runner spread the envelope absorbs before the
/// regression gate applies.
const MACHINE_SLACK: f64 = 1.6;

/// The gate: >25 % worse than the slack-adjusted reference fails.
const REGRESSION_FACTOR: f64 = 1.25;

/// Pinned warm-path latencies (milliseconds) from `BENCH_dsp.json` on the
/// reference box — see that file's committed copy for provenance.
const DSP_WARM_MS: &[(&str, f64)] = &[
    // Clip synthesis, the first stage of the daemon's `features` op.
    ("synth_clip_10s", 10.453),
    ("synth_clip_0_25s", 0.251),
    ("clip_to_mel", 6.117),
    ("clip_to_mfcc13", 13.252),
    ("cnn_forward_100px", 10.576),
    ("cnn_forward_100px_int8", 3.965),
    ("conv3x3_8c_50px_gemm", 0.352),
    ("end_to_end_clip_to_prediction", 17.198),
    ("end_to_end_batch8", 90.131),
];

/// Pinned throughput floors (clients/second) from `BENCH_scale.json`,
/// keyed by `(backend, n_clients)`. Only the CI-sized populations are
/// gated; the 10⁶ rows are absent under `SCALE_SWEEP_MAX=100000`.
const SCALE_CLIENTS_PER_SEC: &[(&str, u64, f64)] = &[
    ("closed-form", 10_000, 7_980_845_969.7),
    ("closed-form", 100_000, 74_460_163_812.4),
    ("timeline", 10_000, 424_538_314.6),
    ("timeline", 100_000, 2_937_806_633.6),
    // The DES floors assume the shape-memoized replay; a per-event
    // queueing model (~10× slower) fails these rows.
    ("des", 10_000, 36_463_214.1),
    ("des", 100_000, 31_511_655.1),
    // The faulted floors assume the fused fault pre-pass (pop order built
    // while the clients resolve); raised from 14.6/13.4 M clients/s when
    // it replaced the copy-sort-merge of every row.
    ("des_faulted_mid", 10_000, 17_498_272.0),
    ("des_faulted_mid", 100_000, 17_813_134.9),
    // Both scenarios of the faulted point, as `pb sweep` runs them: one
    // draw of the fault classes serves the edge and the cloud side.
    ("des_compare_faulted_mid", 10_000, 19_874_117.3),
    ("des_compare_faulted_mid", 100_000, 22_114_162.6),
    // The recorded floors assume the flight recorder receives no
    // per-event DES trajectories (the exact loop they used to force ran
    // at ~1.4 M clients/s, which fails these rows). They were raised
    // from 8.4–9.0 M clients/s when recording an event stopped writing
    // a counter shared by every worker.
    ("des_recorded_mid", 10_000, 10_115_713.6),
    ("des_recorded_mid", 100_000, 13_302_443.3),
];

/// Pinned pooled-sweep latencies (milliseconds, `pool_nt_ms`) from
/// `BENCH_parallel.json` on the reference box. These guard the persistent
/// pool's dispatch path: a row regressing past the envelope means either
/// the chunk plan or the per-point evaluation got slower.
const PARALLEL_MS: &[(&str, f64)] =
    &[("montecarlo_replicate_sweep", 0.059), ("fig7_range_sweep", 0.646), ("train_epoch", 7.221)];

/// Pinned serving-throughput floors (requests/second) from
/// `BENCH_serve.json` on the reference box. These guard the daemon's
/// whole request path — framed codec, admission, coalescing, executor
/// fan-out — over loopback TCP; the `recommend` rows assume the
/// single-write frame + `TCP_NODELAY` path (losing either re-parks every
/// reply behind a ~40 ms delayed ACK, a >1000× drop).
const SERVE_REQ_PER_SEC: &[(&str, f64)] = &[
    ("recommend_distinct", 20_630.7),
    ("recommend_coalesced", 25_714.8),
    ("montecarlo_distinct", 10_801.7),
];

struct Outcome {
    checked: usize,
    skipped: usize,
    failures: Vec<String>,
}

impl Outcome {
    fn new() -> Self {
        Outcome { checked: 0, skipped: 0, failures: Vec::new() }
    }

    fn skip(&mut self, what: &str) {
        self.skipped += 1;
        println!("  skip  {what}");
    }
}

fn load(path: &str) -> Option<Json> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            println!("bench_sentinel: {path}: {e} — skipping this baseline");
            return None;
        }
    };
    match json::parse(&text) {
        Ok(j) => Some(j),
        Err(e) => {
            println!("bench_sentinel: {path}: parse error: {e} — skipping this baseline");
            None
        }
    }
}

fn rows(doc: &Json) -> &[Json] {
    match doc.get("results") {
        Some(Json::Arr(items)) => items,
        _ => &[],
    }
}

/// Latency gate: measured must stay under `pinned × slack × factor`.
fn check_dsp(doc: &Json, out: &mut Outcome) {
    let rows = rows(doc);
    for (name, pinned_ms) in DSP_WARM_MS {
        let Some(row) = rows.iter().find(|r| r.get("name").and_then(Json::as_str) == Some(name))
        else {
            out.skip(&format!("dsp row `{name}` missing"));
            continue;
        };
        let Some(warm_ms) = row.get("warm_ms").and_then(Json::as_f64) else {
            out.skip(&format!("dsp row `{name}` has no warm_ms"));
            continue;
        };
        out.checked += 1;
        let limit = pinned_ms * MACHINE_SLACK * REGRESSION_FACTOR;
        let verdict = if warm_ms > limit { "FAIL" } else { "ok" };
        println!("  {verdict:<4}  dsp   {name:<30} {warm_ms:>10.3} ms (limit {limit:.3})");
        if warm_ms > limit {
            out.failures.push(format!(
                "dsp `{name}`: {warm_ms:.3} ms > {limit:.3} ms \
                 (pinned {pinned_ms:.3} × {MACHINE_SLACK} machine × {REGRESSION_FACTOR} gate)"
            ));
        }
    }
}

/// Throughput gate: measured must stay above `pinned / (slack × factor)`.
fn check_scale(doc: &Json, out: &mut Outcome) {
    let rows = rows(doc);
    for (backend, n_clients, pinned_cps) in SCALE_CLIENTS_PER_SEC {
        let Some(row) = rows.iter().find(|r| {
            r.get("backend").and_then(Json::as_str) == Some(backend)
                && r.get("n_clients").and_then(Json::as_f64) == Some(*n_clients as f64)
        }) else {
            out.skip(&format!("scale row `{backend}` @ {n_clients} missing"));
            continue;
        };
        let Some(cps) = row.get("clients_per_sec").and_then(Json::as_f64) else {
            out.skip(&format!("scale row `{backend}` @ {n_clients} has no clients_per_sec"));
            continue;
        };
        out.checked += 1;
        let floor = pinned_cps / (MACHINE_SLACK * REGRESSION_FACTOR);
        let verdict = if cps < floor { "FAIL" } else { "ok" };
        println!(
            "  {verdict:<4}  scale {:<30} {cps:>14.0} clients/s (floor {floor:.0})",
            format!("{backend} @ {n_clients}")
        );
        if cps < floor {
            out.failures.push(format!(
                "scale `{backend}` @ {n_clients}: {cps:.0} clients/s < {floor:.0} \
                 (pinned {pinned_cps:.0} ÷ {MACHINE_SLACK} machine ÷ {REGRESSION_FACTOR} gate)"
            ));
        }
    }
}

/// Pooled-sweep latency gate: `pool_nt_ms` must stay under
/// `pinned × slack × factor`, same envelope as the DSP rows.
fn check_parallel(doc: &Json, out: &mut Outcome) {
    let rows = rows(doc);
    for (name, pinned_ms) in PARALLEL_MS {
        let Some(row) = rows.iter().find(|r| r.get("name").and_then(Json::as_str) == Some(name))
        else {
            out.skip(&format!("parallel row `{name}` missing"));
            continue;
        };
        let Some(pool_ms) = row.get("pool_nt_ms").and_then(Json::as_f64) else {
            out.skip(&format!("parallel row `{name}` has no pool_nt_ms"));
            continue;
        };
        out.checked += 1;
        let limit = pinned_ms * MACHINE_SLACK * REGRESSION_FACTOR;
        let verdict = if pool_ms > limit { "FAIL" } else { "ok" };
        println!("  {verdict:<4}  pool  {name:<30} {pool_ms:>10.3} ms (limit {limit:.3})");
        if pool_ms > limit {
            out.failures.push(format!(
                "parallel `{name}`: {pool_ms:.3} ms > {limit:.3} ms \
                 (pinned {pinned_ms:.3} × {MACHINE_SLACK} machine × {REGRESSION_FACTOR} gate)"
            ));
        }
    }
}

/// Serving-throughput gate: `req_per_sec` must stay above
/// `pinned / (slack × factor)`, same envelope as the scale rows.
fn check_serve(doc: &Json, out: &mut Outcome) {
    let rows = rows(doc);
    for (name, pinned_rps) in SERVE_REQ_PER_SEC {
        let Some(row) = rows.iter().find(|r| r.get("name").and_then(Json::as_str) == Some(name))
        else {
            out.skip(&format!("serve row `{name}` missing"));
            continue;
        };
        let Some(rps) = row.get("req_per_sec").and_then(Json::as_f64) else {
            out.skip(&format!("serve row `{name}` has no req_per_sec"));
            continue;
        };
        out.checked += 1;
        let floor = pinned_rps / (MACHINE_SLACK * REGRESSION_FACTOR);
        let verdict = if rps < floor { "FAIL" } else { "ok" };
        println!("  {verdict:<4}  serve {name:<30} {rps:>14.1} req/s (floor {floor:.1})");
        if rps < floor {
            out.failures.push(format!(
                "serve `{name}`: {rps:.1} req/s < {floor:.1} \
                 (pinned {pinned_rps:.1} ÷ {MACHINE_SLACK} machine ÷ {REGRESSION_FACTOR} gate)"
            ));
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dsp_path = "BENCH_dsp.json".to_string();
    let mut scale_path = "BENCH_scale.json".to_string();
    let mut parallel_path = "BENCH_parallel.json".to_string();
    let mut serve_path = "BENCH_serve.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dsp" => dsp_path = it.next().cloned().unwrap_or(dsp_path),
            "--scale" => scale_path = it.next().cloned().unwrap_or(scale_path),
            "--parallel" => parallel_path = it.next().cloned().unwrap_or(parallel_path),
            "--serve" => serve_path = it.next().cloned().unwrap_or(serve_path),
            other => {
                eprintln!("bench_sentinel: unknown argument `{other}`");
                eprintln!(
                    "usage: bench_sentinel [--dsp FILE] [--scale FILE] \
                     [--parallel FILE] [--serve FILE]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let mut out = Outcome::new();
    println!("bench_sentinel: gate ×{REGRESSION_FACTOR} over ×{MACHINE_SLACK} machine slack");
    if let Some(doc) = load(&dsp_path) {
        check_dsp(&doc, &mut out);
    } else {
        out.skipped += DSP_WARM_MS.len();
    }
    if let Some(doc) = load(&scale_path) {
        check_scale(&doc, &mut out);
    } else {
        out.skipped += SCALE_CLIENTS_PER_SEC.len();
    }
    if let Some(doc) = load(&parallel_path) {
        check_parallel(&doc, &mut out);
    } else {
        out.skipped += PARALLEL_MS.len();
    }
    if let Some(doc) = load(&serve_path) {
        check_serve(&doc, &mut out);
    } else {
        out.skipped += SERVE_REQ_PER_SEC.len();
    }

    println!(
        "bench_sentinel: {} rows checked, {} skipped, {} regressed",
        out.checked,
        out.skipped,
        out.failures.len()
    );
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &out.failures {
            eprintln!("bench_sentinel: REGRESSION: {f}");
        }
        ExitCode::FAILURE
    }
}
