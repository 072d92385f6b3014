//! Million-hive scale sweep: throughput of one Fig. 7-style sweep point
//! at 10⁴, 10⁵ and 10⁶ clients on all three backends, plus the DES under
//! the `mid` fault plan without and with the flight recorder, and the
//! faulted DES comparison of both scenarios that `pb sweep` runs.
//!
//! The columnar fleet state, run-length-encoded allocation and the
//! shape-memoized DES replay exist to make this workload tractable; the
//! bench records clients/sec per (backend, population) into
//! `BENCH_scale.json` at the repository root, together with the host it
//! ran on, and asserts that every point is **bit-identical** across
//! worker counts 1, 2 and N — the contract the deterministic chunk
//! plans exist to keep.
//!
//! Set `SCALE_SWEEP_MAX` (a client count) to cap the largest population
//! — CI's smoke run uses `SCALE_SWEEP_MAX=100000` so the reduced sweep
//! finishes inside the job budget.

use criterion::{black_box, Criterion};
use pb_orchestra::engine::{Backend, CycleEngine, ScenarioSpec, SimContext};
use pb_orchestra::loss::LossModel;
use pb_orchestra::prelude::*;
use pb_orchestra::simulation::CycleReport;
use pb_orchestra::sweep::ComparisonPoint;
use pb_telemetry::{FlightRecorderSink, Telemetry};
use rayon::pool::{current_num_threads, with_thread_cap};
use std::time::Instant;

const CAP: usize = 35;
const SEED: u64 = 0xF1E1D;
const SIZES: [usize; 3] = [10_000, 100_000, 1_000_000];

fn fig7_spec() -> ScenarioSpec {
    ScenarioSpec {
        edge_client: presets::edge_client(ServiceKind::Cnn),
        cloud_client: presets::edge_cloud_client(),
        server: presets::cloud_server(ServiceKind::Cnn, CAP),
        loss: LossModel::NONE,
        policy: FillPolicy::PackSlots,
    }
}

/// One sweep point through `backend` with a fresh context (no warm
/// allocation cache), so the timing covers the whole pipeline.
fn evaluate(backend: Backend, n: usize) -> CycleReport {
    let spec = fig7_spec();
    backend.evaluate(&spec, n, &SimContext::new(SEED))
}

/// The same DES sweep point under the `mid` fault plan: the columnar
/// fault pre-pass resolves every client's outage/retry fate, then the
/// clean/divergent split feeds the shape-memoized replay.
fn evaluate_faulted(n: usize) -> CycleReport {
    let spec = fig7_spec();
    let ctx = SimContext::new(SEED).with_fault_plan(FaultPlan::mid_severity());
    Backend::Des.evaluate(&spec, n, &ctx)
}

/// The faulted point as `pb sweep --backend des --faults mid` prices
/// it: both scenarios from one draw.
fn compare_faulted(n: usize) -> ComparisonPoint {
    let ctx = SimContext::new(SEED).with_fault_plan(FaultPlan::mid_severity());
    Backend::Des.compare(&fig7_spec(), n, &ctx)
}

/// Where [`evaluate_recorded`]'s recorder writes its post-mortem.
fn dump_path() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pb-scale-sweep-flight-{}.jsonl", std::process::id()))
}

/// The faulted point with the flight recorder `pb sweep --faults`
/// installs by default (4096 events per severity, the first trigger
/// dumps). The recorder keeps no per-event DES trajectories, so the
/// point stays on the shape-memoized replay.
fn evaluate_recorded(n: usize) -> CycleReport {
    let recorder = FlightRecorderSink::new(4096).with_auto_dump(dump_path().to_string_lossy(), 1);
    let ctx = SimContext::with_telemetry(SEED, Telemetry::with_sink(Box::new(recorder)))
        .with_fault_plan(FaultPlan::mid_severity());
    Backend::Des.evaluate(&fig7_spec(), n, &ctx)
}

/// Times `f` `reps` times; returns the minimum in milliseconds.
fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut min = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        black_box(f());
        min = min.min(t.elapsed().as_secs_f64() * 1e3);
    }
    min
}

struct Row {
    backend: &'static str,
    n_clients: usize,
    elapsed_ms: f64,
    clients_per_sec: f64,
}

fn max_population() -> usize {
    std::env::var("SCALE_SWEEP_MAX")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(*SIZES.last().expect("SIZES is non-empty"))
}

fn measure_rows() -> Vec<Row> {
    let cap_n = max_population();
    let n_threads = current_num_threads();
    let mut rows = Vec::new();
    for backend in Backend::ALL {
        for n in SIZES.into_iter().filter(|&n| n <= cap_n) {
            // The exit bar: the same point, bit-identical at 1, 2 and N
            // worker threads.
            let nt = evaluate(backend, n);
            let one = with_thread_cap(1, || evaluate(backend, n));
            let two = with_thread_cap(2.min(n_threads), || evaluate(backend, n));
            assert_eq!(nt, one, "{backend} at {n} clients diverges at 1 thread");
            assert_eq!(nt, two, "{backend} at {n} clients diverges at 2 threads");

            let reps = if n >= 1_000_000 { 2 } else { 3 };
            let elapsed_ms = time_ms(reps, || evaluate(backend, n));
            rows.push(Row {
                backend: backend.name(),
                n_clients: n,
                elapsed_ms,
                clients_per_sec: n as f64 / (elapsed_ms / 1e3),
            });
        }
    }
    // The faulted DES point (mid severity), unrecorded and recorded,
    // rides the same exit bar: bit-identical across worker counts,
    // clients/sec recorded. The recorder must not move the result.
    let faulted = evaluate_faulted as fn(usize) -> CycleReport;
    for (name, eval) in [("des_faulted_mid", faulted), ("des_recorded_mid", evaluate_recorded)] {
        for n in SIZES.into_iter().filter(|&n| n <= cap_n) {
            let nt = eval(n);
            let one = with_thread_cap(1, || eval(n));
            let two = with_thread_cap(2.min(n_threads), || eval(n));
            assert_eq!(nt, one, "{name} at {n} clients diverges at 1 thread");
            assert_eq!(nt, two, "{name} at {n} clients diverges at 2 threads");
            assert_eq!(nt, evaluate_faulted(n), "{name} at {n} clients != the unrecorded point");

            let reps = if n >= 1_000_000 { 2 } else { 3 };
            let elapsed_ms = time_ms(reps, || eval(n));
            rows.push(Row {
                backend: name,
                n_clients: n,
                elapsed_ms,
                clients_per_sec: n as f64 / (elapsed_ms / 1e3),
            });
        }
    }
    for n in SIZES.into_iter().filter(|&n| n <= cap_n) {
        let nt = compare_faulted(n);
        for cap in [1, 2.min(n_threads)] {
            let other = with_thread_cap(cap, || compare_faulted(n));
            assert_eq!(nt.edge, other.edge, "edge side at {n} clients diverges at {cap} threads");
            assert_eq!(
                nt.cloud, other.cloud,
                "cloud side at {n} clients diverges at {cap} threads"
            );
        }
        assert_eq!(nt.cloud, evaluate_faulted(n), "compare at {n} clients != the lone cloud side");

        let reps = if n >= 1_000_000 { 2 } else { 3 };
        let elapsed_ms = time_ms(reps, || compare_faulted(n));
        rows.push(Row {
            backend: "des_compare_faulted_mid",
            n_clients: n,
            elapsed_ms,
            clients_per_sec: n as f64 / (elapsed_ms / 1e3),
        });
    }
    let _ = std::fs::remove_file(dump_path());
    rows
}

fn write_json(rows: &[Row]) {
    let mut out = String::from("{\n  \"bench\": \"scale_sweep\",\n");
    out.push_str(&format!("  \"host\": {},\n", pb_bench::host_json()));
    out.push_str(&format!("  \"n_threads\": {},\n", current_num_threads()));
    out.push_str(&format!("  \"max_population\": {},\n", max_population()));
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"backend\": \"{}\", \"n_clients\": {}, \"elapsed_ms\": {:.3}, \
             \"clients_per_sec\": {:.1}}}{}\n",
            r.backend,
            r.n_clients,
            r.elapsed_ms,
            r.clients_per_sec,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    match std::fs::write(path, &out) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn criterion_groups() {
    let mut c = Criterion::from_args();
    let mut group = c.benchmark_group("scale_sweep");
    group.sample_size(10);
    for backend in Backend::ALL {
        group.bench_function(format!("{backend}_10k"), |b| {
            b.iter(|| black_box(evaluate(backend, 10_000)))
        });
    }
    group.finish();
    c.final_summary();
}

fn main() {
    criterion_groups();
    let rows = measure_rows();
    for r in &rows {
        println!(
            "{:<23} {:>9} clients: {:>10.3} ms  ({:>12.0} clients/sec)",
            r.backend, r.n_clients, r.elapsed_ms, r.clients_per_sec
        );
    }
    write_json(&rows);
}
