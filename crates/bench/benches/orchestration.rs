//! Criterion benchmarks for the orchestration simulator — one group per
//! reproduced figure, measuring the cost of regenerating it.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pb_orchestra::loss::LossModel;
use pb_orchestra::prelude::*;
use pb_orchestra::sweep::SweepConfig;

fn cnn_sweep(cap: usize, loss: LossModel) -> SweepConfig {
    SweepConfig {
        edge_client: presets::edge_client(ServiceKind::Cnn),
        cloud_client: presets::edge_cloud_client(),
        server: presets::cloud_server(ServiceKind::Cnn, cap),
        loss,
        policy: FillPolicy::PackSlots,
        seed: 99,
    }
}

fn bench_single_cycle(c: &mut Criterion) {
    let spec = ScenarioSpec::paper(ServiceKind::Cnn, 10, LossModel::all());
    let mut group = c.benchmark_group("simulate_cycle");
    for n in [100usize, 1000, 10_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let ctx = SimContext::new(1);
            b.iter(|| black_box(Backend::ClosedForm.evaluate(&spec, n, &ctx).total_energy))
        });
    }
    group.finish();
}

/// Satellite benchmark for the engine layer: the same Fig. 7-shaped sweep
/// (100–2000 clients at cap 35) evaluated with a cold allocation cache
/// (fresh [`SimContext`] every iteration) versus a pre-warmed shared one.
fn bench_engine_cache(c: &mut Criterion) {
    let spec = cnn_sweep(35, LossModel::NONE).spec();
    let ns: Vec<usize> = (100..=2000).collect();
    let mut group = c.benchmark_group("engine_cache");
    group.bench_function("cold", |b| {
        b.iter(|| {
            let ctx = SimContext::new(99); // fresh, empty cache
            black_box(
                ns.iter()
                    .map(|&n| Backend::ClosedForm.evaluate(&spec, n, &ctx).total_energy.value())
                    .sum::<f64>(),
            )
        })
    });
    group.bench_function("warm", |b| {
        let ctx = SimContext::new(99);
        for &n in &ns {
            Backend::ClosedForm.evaluate(&spec, n, &ctx); // pre-warm every point
        }
        b.iter(|| {
            black_box(
                ns.iter()
                    .map(|&n| Backend::ClosedForm.evaluate(&spec, n, &ctx).total_energy.value())
                    .sum::<f64>(),
            )
        })
    });
    group.finish();
}

fn bench_fig6_sweep(c: &mut Criterion) {
    let sweep = cnn_sweep(10, LossModel::NONE);
    c.bench_function("fig6_sweep_10_400", |b| {
        b.iter(|| black_box(sweep.run_range(10, 400, 10).len()))
    });
}

fn bench_fig7_sweep(c: &mut Criterion) {
    let sweep = cnn_sweep(35, LossModel::NONE);
    c.bench_function("fig7b_sweep_100_2000_step1", |b| {
        b.iter(|| black_box(sweep.run_range(100, 2000, 1).len()))
    });
}

fn bench_fig8_lossy_sweep(c: &mut Criterion) {
    let sweep = cnn_sweep(10, LossModel::all());
    c.bench_function("fig8d_sweep_10_400", |b| {
        b.iter(|| black_box(sweep.run_range(10, 400, 10).len()))
    });
}

fn bench_fig9_sweep(c: &mut Criterion) {
    let sweep =
        SweepConfig { policy: FillPolicy::BalanceSlots, ..cnn_sweep(35, LossModel::fig9()) };
    c.bench_function("fig9_sweep_100_2000", |b| {
        b.iter(|| black_box(sweep.run_range(100, 2000, 10).len()))
    });
}

fn bench_async_des(c: &mut Criterion) {
    use pb_orchestra::des::simulate_async_cycle;
    let server = presets::cloud_server(ServiceKind::Cnn, 10);
    c.bench_function("des_async_cycle_180_clients", |b| {
        let mut rng = seeded_rng(3);
        b.iter(|| black_box(simulate_async_cycle(180, &server, &mut rng).server_energy))
    });
}

fn bench_capacity_planner(c: &mut Criterion) {
    use pb_orchestra::planner::plan_slot_capacity;
    let client = presets::edge_cloud_client();
    c.bench_function("planner_630_clients_caps_1_60", |b| {
        b.iter(|| {
            black_box(
                plan_slot_capacity(
                    630,
                    1..=60,
                    |cap| presets::cloud_server(ServiceKind::Cnn, cap),
                    &client,
                    &LossModel::transfer_only(),
                    FillPolicy::PackSlots,
                    1,
                )
                .best
                .cap,
            )
        })
    });
}

fn bench_fleet(c: &mut Criterion) {
    use pb_orchestra::fleet::{simulate_fleet, FleetGroup};
    use pb_units::Seconds;
    let server = presets::cloud_server(ServiceKind::Cnn, 10);
    let groups: Vec<FleetGroup> = (0..4)
        .map(|i| FleetGroup {
            name: format!("g{i}"),
            client: presets::edge_cloud_client_with_period(Seconds(300.0 * (i + 1) as f64)),
            count: 60,
            phase: i,
        })
        .collect();
    c.bench_function("fleet_4_groups_hyperperiod_12", |b| {
        b.iter(|| {
            black_box(
                simulate_fleet(&groups, &server, &LossModel::NONE, FillPolicy::PackSlots)
                    .total_per_hive_per_cycle,
            )
        })
    });
}

/// Satellite guard for the observability layer: telemetry with the no-op
/// event sink (live spans and counters, discarded events) must add less
/// than 2 % to a warm Fig. 7 DES sweep relative to a disabled handle
/// (where every span collapses to a single branch). The DES backend is the
/// telemetry-heaviest path — it counts every simulated event — so this
/// bounds the worst per-backend cost of leaving `--metrics` on.
///
/// A third row measures event recording without span tags (ring sink,
/// no tracing flag) — the price of keeping `--trace` on, where the DES
/// replay also rebuilds one record per simulated event. A fourth adds
/// causal span tags on every DES event + per-client `trace.*` spans —
/// the full `pb sweep --causal --trace` cost. Both are recorded for
/// visibility but unbounded: materializing events is allowed to cost
/// real time.
fn bench_telemetry_overhead(c: &mut Criterion) {
    use std::time::{Duration, Instant};
    let sweep = cnn_sweep(35, LossModel::NONE);
    let spec = sweep.spec();
    let ns: Vec<usize> = (100..=2000).step_by(100).collect();
    let disabled = SimContext::new(99);
    let noop_sink = SimContext::with_telemetry(99, Telemetry::metrics_only());
    // Recording sinks use a bounded ring so the benchmark's memory stays
    // flat across iterations.
    let recorded = SimContext::with_telemetry(99, Telemetry::ring(65_536));
    let causal = SimContext::with_telemetry(99, Telemetry::ring(65_536).with_tracing());
    let run = |ctx: &SimContext| {
        ns.iter().map(|&n| Backend::Des.evaluate(&spec, n, ctx).total_energy.value()).sum::<f64>()
    };
    // Warm the allocation caches, then take the minimum of interleaved
    // repetitions so scheduler noise and clock drift cancel out.
    black_box(run(&disabled));
    black_box(run(&noop_sink));
    black_box(run(&recorded));
    black_box(run(&causal));
    let mut mins = [Duration::MAX; 4];
    for _ in 0..10 {
        for (min, ctx) in mins.iter_mut().zip([&disabled, &noop_sink, &recorded, &causal]) {
            let t = Instant::now();
            black_box(run(ctx));
            *min = (*min).min(t.elapsed());
        }
    }
    let [base, traced, rec, tagged] = mins;
    let ratio = traced.as_secs_f64() / base.as_secs_f64();
    let rec_ratio = rec.as_secs_f64() / base.as_secs_f64();
    let causal_ratio = tagged.as_secs_f64() / base.as_secs_f64();
    println!(
        "telemetry_overhead: disabled {base:?}, no-op sink {traced:?} (ratio {ratio:.4}), \
         recording {rec:?} (ratio {rec_ratio:.4}), \
         causal tracing {tagged:?} (ratio {causal_ratio:.4})"
    );
    assert!(
        ratio < 1.02,
        "no-op-sink telemetry costs {:.2}% on the warm fig7 DES sweep (budget 2%)",
        (ratio - 1.0) * 100.0
    );
    let mut group = c.benchmark_group("telemetry_overhead");
    group.bench_function("disabled", |b| b.iter(|| black_box(run(&disabled))));
    group.bench_function("noop_sink", |b| b.iter(|| black_box(run(&noop_sink))));
    group.bench_function("recorded", |b| b.iter(|| black_box(run(&recorded))));
    group.bench_function("causal_tracing", |b| b.iter(|| black_box(run(&causal))));
    group.finish();
}

criterion_group!(
    benches,
    bench_single_cycle,
    bench_engine_cache,
    bench_telemetry_overhead,
    bench_fig6_sweep,
    bench_fig7_sweep,
    bench_fig8_lossy_sweep,
    bench_fig9_sweep,
    bench_async_des,
    bench_capacity_planner,
    bench_fleet
);
criterion_main!(benches);
