//! `sweep_scale`: in-process `pb sweep` points, each on a fresh
//! `SimContext` (the CLI pays a cold allocation cache on every run),
//! with telemetry, fault plan and flight recorder built the way
//! `pb sweep` builds them.
//!
//! One iteration runs the paper's Fig. 7 closed-form sweep (several
//! times, for its latency percentiles), a 10⁶-client DES point
//! fault-free, the same point under `FaultPlan::mid_severity()` without
//! a recorder, and a 10⁵-client faulted point with and without the
//! flight recorder sink. The 10⁶ working set exceeds the last-level
//! cache; the daemon is absent.

use crate::stats::{self, Ledger};
use crate::trace::Tracer;
use crate::{Cfg, Outcome};
use precision_beekeeping::orchestra::des::{simulate_async_cycle_memoized, ShapeMemo};
use precision_beekeeping::orchestra::engine::{AllocationCache, Backend, CycleEngine, SimContext};
use precision_beekeeping::orchestra::faults::FaultPlan;
use precision_beekeeping::orchestra::loss::LossModel;
use precision_beekeeping::orchestra::presets;
use precision_beekeeping::orchestra::sweep::{ComparisonPoint, SweepConfig};
use precision_beekeeping::orchestra::{FillPolicy, ServiceKind};
use precision_beekeeping::telemetry::{Event, EventSink, FlightRecorderSink, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const BIG: usize = 1_000_000;
const RECORDED: usize = 100_000;
/// Fig. 7 sweeps per iteration, so its p99 has ten samples beyond it.
const FIG7_PER_ITER: usize = 30;
/// Context builds timed for `setup_s`.
const SETUP_REPS: usize = 15;
/// `pb sweep`'s default seed, used by the pinned digest.
const CLI_SEED: u64 = 0xF1E1D;
/// FNV-1a digest of the 10⁶-client fault-free DES point at `CLI_SEED`
/// (`pb sweep --backend des --from 1000000 --to 1000000`).
const PINNED_DES_DIGEST: u64 = 0x7866_b4da_d00a_3c31;
/// FNV-1a digest of the default Fig. 7 closed-form sweep (no losses, so
/// no seed reaches the result).
const PINNED_FIG7_DIGEST: u64 = 0xec29_d9eb_43bf_7fdf;

/// A recording sink that counts the events reaching it and forwards
/// them to the flight recorder, or drops them when there is none.
#[derive(Debug, Default)]
struct CountingSink {
    inner: Option<Arc<FlightRecorderSink>>,
    events: Arc<AtomicU64>,
}

impl EventSink for CountingSink {
    fn record(&self, event: Event) {
        self.events.fetch_add(1, Ordering::Relaxed);
        if let Some(fr) = &self.inner {
            fr.record(event);
        }
    }

    fn events(&self) -> Vec<Event> {
        self.inner.as_ref().map_or_else(Vec::new, |fr| fr.events())
    }

    fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |fr| fr.len())
    }
}

fn digest(points: &[ComparisonPoint]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{points:?}").bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// `pb sweep`'s configuration at its defaults (CNN, cap 35, no losses).
fn cli_config(seed: u64) -> SweepConfig {
    SweepConfig {
        edge_client: presets::edge_client(ServiceKind::Cnn),
        cloud_client: presets::edge_cloud_client(),
        server: presets::cloud_server(ServiceKind::Cnn, 35),
        loss: LossModel::NONE,
        policy: FillPolicy::PackSlots,
        seed,
    }
}

/// The flight recorder `pb sweep` installs on a faulted sweep without
/// `--trace`, wrapped to count the events that reach it.
fn recorder(out_dir: &std::path::Path, count: &Arc<AtomicU64>) -> Telemetry {
    let path = out_dir.join("pb-flight.jsonl").to_string_lossy().into_owned();
    let fr = Arc::new(FlightRecorderSink::new(4096).with_auto_dump(path, 1));
    Telemetry::with_sink(Box::new(CountingSink { inner: Some(fr), events: Arc::clone(count) }))
}

/// One `pb sweep` invocation: fresh context, then the sweep; returns
/// (wall seconds, points).
fn sweep(
    seed: u64,
    backend: Backend,
    ns: &[usize],
    plan: FaultPlan,
    telemetry: impl FnOnce() -> Telemetry,
) -> (f64, Vec<ComparisonPoint>) {
    let t = Instant::now();
    let ctx = SimContext::with_telemetry(seed, telemetry()).with_fault_plan(plan);
    let points = cli_config(seed).run_with_context(&backend, ns, &ctx);
    (t.elapsed().as_secs_f64(), points)
}

fn fig7_ns() -> Vec<usize> {
    (100..=2000).step_by(100).collect()
}

fn conserved(p: &ComparisonPoint) -> bool {
    let f = &p.cloud.faults;
    f.delivered + f.fallbacks + f.sensor_dropouts == p.cloud.n_active as u64
}

/// Per-iteration timings (seconds).
#[derive(Default)]
struct Times {
    fig7: Vec<f64>,
    des: Vec<f64>,
    faulted: Vec<f64>,
    faulted_small: Vec<f64>,
    recorded: Vec<f64>,
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let pool_before = rayon::pool::stats();

    // Set-up: the pool starts on the first parallel sweep of the
    // process; every later `pb sweep` still builds its context, cache
    // and recorder afresh.
    let t = Instant::now();
    let (_, warm) =
        sweep(cfg.seed, Backend::ClosedForm, &fig7_ns(), FaultPlan::NONE, Telemetry::disabled);
    let pool_start_s = t.elapsed().as_secs_f64();
    let mut builds = Vec::new();
    let sink_count = Arc::new(AtomicU64::new(0));
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let ctx = SimContext::with_telemetry(cfg.seed, recorder(&cfg.out_dir, &sink_count))
            .with_fault_plan(FaultPlan::mid_severity());
        std::hint::black_box((&ctx, cli_config(cfg.seed)));
        builds.push(t.elapsed().as_secs_f64());
    }
    let setup_s = pool_start_s + stats::median(&builds);
    out.e2e.insert("setup_s", setup_s);

    // Pinned digests, checked once per run outside the timed loop.
    let (_, pinned) = sweep(CLI_SEED, Backend::Des, &[BIG], FaultPlan::NONE, Telemetry::disabled);
    let des_digest = digest(&pinned);
    if des_digest != PINNED_DES_DIGEST {
        out.fail(format!("10⁶ DES digest {des_digest:#x} != pinned {PINNED_DES_DIGEST:#x}"));
    }
    let fig7_digest = digest(&warm);
    if fig7_digest != PINNED_FIG7_DIGEST {
        out.fail(format!("Fig. 7 digest {fig7_digest:#x} != pinned {PINNED_FIG7_DIGEST:#x}"));
    }
    out.attempted += 2;

    let mut untraced = Times::default();
    let mut traced = Times::default();
    let mut tracer = Tracer::default();
    let mut last_faulted: Option<ComparisonPoint> = None;
    let start = Instant::now();
    let mut iter = 0u64;
    let need = if cfg.traced { 0 } else { stats::P99_SAMPLES };
    while stats::keep_going(start.elapsed().as_secs_f64(), cfg.seconds, untraced.fig7.len(), need) {
        let seed = cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(iter);
        let on = cfg.traced && iter.is_multiple_of(2);
        let times = if on { &mut traced } else { &mut untraced };
        let root = on.then(|| tracer.open("sweep.iteration", iter, None));
        let span =
            |tracer: &mut Tracer, name: &'static str| on.then(|| tracer.open(name, iter, root));
        let close = |tracer: &mut Tracer, id: Option<usize>| {
            if let Some(id) = id {
                tracer.close(id)
            }
        };

        let id = span(&mut tracer, "sweep.fig7");
        for _ in 0..FIG7_PER_ITER {
            let (s, pts) =
                sweep(seed, Backend::ClosedForm, &fig7_ns(), FaultPlan::NONE, Telemetry::disabled);
            times.fig7.push(s);
            out.attempted += 1;
            if digest(&pts) != fig7_digest {
                out.fail(format!("iteration {iter}: Fig. 7 sweep is not deterministic"));
            }
        }
        close(&mut tracer, id);

        let id = span(&mut tracer, "sweep.des_1e6");
        let (s, pts) = sweep(seed, Backend::Des, &[BIG], FaultPlan::NONE, Telemetry::disabled);
        close(&mut tracer, id);
        times.des.push(s);
        out.attempted += 1;
        if pts[0].cloud.n_active != BIG {
            out.fail(format!("iteration {iter}: fault-free point lost clients"));
        }

        let id = span(&mut tracer, "sweep.des_faulted_1e6");
        let (s, pts) =
            sweep(seed, Backend::Des, &[BIG], FaultPlan::mid_severity(), Telemetry::disabled);
        close(&mut tracer, id);
        times.faulted.push(s);
        out.attempted += 1;
        if !conserved(&pts[0]) {
            out.fail(format!("iteration {iter}: 10⁶ faulted point breaks conservation"));
        }
        last_faulted = pts.into_iter().next();

        let id = span(&mut tracer, "sweep.des_faulted_1e5");
        let (s, plain) =
            sweep(seed, Backend::Des, &[RECORDED], FaultPlan::mid_severity(), Telemetry::disabled);
        close(&mut tracer, id);
        times.faulted_small.push(s);

        let id = span(&mut tracer, "sweep.des_recorded_1e5");
        let (s, rec) = sweep(seed, Backend::Des, &[RECORDED], FaultPlan::mid_severity(), || {
            recorder(&cfg.out_dir, &sink_count)
        });
        close(&mut tracer, id);
        times.recorded.push(s);
        out.attempted += 2;
        if !conserved(&rec[0]) || !conserved(&plain[0]) {
            out.fail(format!("iteration {iter}: 10⁵ faulted point breaks conservation"));
        }
        if format!("{rec:?}") != format!("{plain:?}") {
            out.fail(format!("iteration {iter}: recorded and unrecorded reports differ"));
        }
        close(&mut tracer, root);
        iter += 1;
        out.rss.push(crate::host::rss_mb());
    }

    let times = &untraced;
    let fig7_ms = stats::sorted(&times.fig7.iter().map(|s| s * 1e3).collect::<Vec<_>>());
    let fig7_p50 = stats::percentile(&fig7_ms, 0.5);
    let fig7_p99 = stats::tail(&fig7_ms, 0.99);
    if fig7_p99.is_none() && !cfg.traced {
        out.fail(format!("{} Fig. 7 sweeps are too few for a p99", fig7_ms.len()));
    }
    let rate = |n: usize, v: &[f64]| n as f64 / stats::median(v);
    let des_rate = rate(BIG, &times.des);
    let faulted_rate = rate(BIG, &times.faulted);
    let recorded_rate = rate(RECORDED, &times.recorded);
    let slo = times.fig7.iter().filter(|s| **s * 1e3 <= cfg.limit_ms).count() as f64
        / times.fig7.len().max(1) as f64;
    // The gated rate is the recorded point's, the path a faulted `pb
    // sweep` takes by default. Two thirds of its time is the flight
    // recorder's locked rings, so it leans little on the second vCPU:
    // its spread between runs stayed under 0.08 where the 10⁶ points on
    // both vCPUs reached 0.2–0.29 under hypervisor steal.
    out.e2e.insert("throughput_per_s", recorded_rate);
    out.e2e.insert("p99_ms", fig7_p99.unwrap_or(f64::NAN));
    out.e2e.insert("slo_ratio", slo);

    out.named("setup_s", setup_s, "s");
    out.named("pool_start_s", pool_start_s, "s");
    out.named("fig7_sweep_ms", fig7_p50, "ms");
    out.named("fig7_sweep_p90_ms", stats::percentile(&fig7_ms, 0.9), "ms");
    out.named("fig7_sweep_p99_ms", fig7_p99.unwrap_or(f64::NAN), "ms");
    for (name, n, v) in [
        ("des", BIG, &times.des),
        ("des_faulted", BIG, &times.faulted),
        ("des_recorded", RECORDED, &times.recorded),
    ] {
        out.named(&format!("{name}_clients_per_s"), rate(n, v), "1/s");
        if let Some((p, ms)) = stats::highest_tail(&stats::sorted(v)) {
            out.named(&format!("{name}_point_p{:.0}_ms", p * 100.0), ms * 1e3, "ms");
        }
    }
    out.report.push(format!(
        "sweep_scale: {iter} iterations ({} untraced) on {} pool threads; Fig. 7 p50 {fig7_p50:.4} \
         ms / p99 {:.4} ms over {} sweeps; DES 10⁶ {des_rate:.4e} clients/s; faulted 10⁶ \
         {faulted_rate:.4e} clients/s; recorded 10⁵ {recorded_rate:.4e} clients/s (unrecorded \
         10⁵ {:.4e}); pool start-up {:.3} ms",
        times.des.len(),
        rayon::pool::current_num_threads(),
        fig7_p99.unwrap_or(f64::NAN),
        fig7_ms.len(),
        rate(RECORDED, &times.faulted_small),
        pool_start_s * 1e3
    ));

    if cfg.traced {
        layers(cfg, &mut out, &untraced, &traced, last_faulted, &sink_count, pool_before);
        out.tracer = Some(tracer);
    }
    out
}

/// Median wall seconds of `f` over `reps` calls.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&v)
}

fn layers(
    cfg: &Cfg,
    out: &mut Outcome,
    untraced: &Times,
    traced: &Times,
    faulted: Option<ComparisonPoint>,
    sink_count: &Arc<AtomicU64>,
    pool_before: rayon::pool::PoolStats,
) {
    let config = cli_config(cfg.seed);
    let spec = config.spec();
    let server = &spec.server;

    // allocator: a cold lookup on a fresh cache.
    let allocate_s = time_median(21, || {
        let cache = AllocationCache::new();
        std::hint::black_box(cache.get_or_allocate(BIG, server, FillPolicy::PackSlots, None));
    });

    // DES servers at one thread, over the point's own shapes.
    let allocation =
        AllocationCache::new().get_or_allocate(BIG, server, FillPolicy::PackSlots, None);
    let shapes: Vec<usize> = allocation.servers().map(|s| s.n_clients()).collect();
    let memo = ShapeMemo::for_server(server, shapes.iter().copied());
    let quiet = Telemetry::disabled();
    let edge_s = time_median(21, || {
        let ctx = SimContext::new(cfg.seed);
        std::hint::black_box(Backend::Des.evaluate_edge(&spec, BIG, &ctx));
    });

    // The DES servers at one thread, the whole point at one thread and
    // at the full pool, interleaved so host drift hits all three alike.
    let point =
        |seed: u64| sweep(seed, Backend::Des, &[BIG], FaultPlan::NONE, Telemetry::disabled).0;
    let (mut servers, mut ones, mut alls) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..7 {
        let t = Instant::now();
        for (s, &k) in shapes.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ s as u64);
            std::hint::black_box(simulate_async_cycle_memoized(
                k,
                server,
                &mut rng,
                &quiet,
                None,
                Some(&memo),
            ));
        }
        servers.push(t.elapsed().as_secs_f64());
        ones.push(rayon::pool::with_thread_cap(1, || point(cfg.seed)));
        alls.push(point(cfg.seed));
    }
    let des_servers_s = stats::median(&servers);
    let one = stats::median(&ones);
    let all = stats::median(&alls);

    // Engine cost per point at 10⁶, warm cache, many iterations.
    let ctx = SimContext::new(cfg.seed);
    let per_point_ns = |backend: Backend| {
        std::hint::black_box(backend.evaluate(&spec, BIG, &ctx));
        let reps = 2000;
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(backend.evaluate(&spec, std::hint::black_box(BIG), &ctx));
        }
        t.elapsed().as_secs_f64() * 1e9 / reps as f64
    };
    let closed_ns = per_point_ns(Backend::ClosedForm);
    let timeline_ns = per_point_ns(Backend::EventTimeline);

    // Fast path: replay count with metrics only, and under the recorder.
    let replayed = |tel: Telemetry| {
        let ctx = SimContext::with_telemetry(cfg.seed, tel.clone())
            .with_fault_plan(FaultPlan::mid_severity());
        config.run_with_context(&Backend::Des, &[RECORDED], &ctx);
        tel.snapshot().counter("des.fastpath.replayed").unwrap_or(0)
    };
    let replayed_fast = replayed(Telemetry::metrics_only());
    let events_before = sink_count.load(Ordering::Relaxed);
    let replayed_recorded = replayed(recorder(&cfg.out_dir, sink_count));
    let recorder_events = sink_count.load(Ordering::Relaxed) - events_before;

    // The recorded point split into exact loop and sink: no sink (fast
    // path), a recording sink that drops everything (exact loop and
    // event construction), and the flight recorder, interleaved.
    let small = |tel: Telemetry| {
        sweep(cfg.seed, Backend::Des, &[RECORDED], FaultPlan::mid_severity(), || tel).0
    };
    let (mut none, mut dropped, mut recorded) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..7 {
        none.push(small(Telemetry::disabled()));
        dropped.push(small(Telemetry::with_sink(Box::<CountingSink>::default())));
        recorded.push(small(recorder(&cfg.out_dir, &Arc::new(AtomicU64::new(0)))));
    }
    let none_s = stats::median(&none);
    let drop_s = stats::median(&dropped);
    let rec_s = stats::median(&recorded);
    let exact_loop_ms = (drop_s - none_s) * 1e3;
    let sink_ms = (rec_s - drop_s) * 1e3;
    let overhead_ms =
        (stats::median(&untraced.recorded) - stats::median(&untraced.faulted_small)) * 1e3;

    let pool = rayon::pool::stats();
    let (delivered_per_attempt, retries) = faulted.map_or((0.0, 0.0), |p| {
        let f = p.cloud.faults;
        (f.delivered as f64 / f.attempts.max(1) as f64, f.retries as f64)
    });

    // Ledger: the 10⁶ fault-free point at one thread.
    let mut ledger = Ledger::new(one * 1e3);
    ledger.row("allocator.allocate", allocate_s * 1e3);
    ledger.row("des.servers (replay)", des_servers_s * 1e3);
    ledger.row("engine.edge", edge_s * 1e3);
    // Ledger: the recorded 10⁵ point.
    let mut rec_ledger = Ledger::new(rec_s * 1e3);
    rec_ledger.row("des point, no sink (fast path)", none_s * 1e3);
    rec_ledger.row("exact loop + event construction", exact_loop_ms);
    rec_ledger.row("flight recorder sink", sink_ms);

    let overhead = if traced.des.is_empty() || untraced.des.is_empty() {
        0.0
    } else {
        stats::median(&traced.des) / stats::median(&untraced.des) - 1.0
    };
    for (k, v) in [
        ("allocator.allocate_us", allocate_s * 1e6),
        ("des.server_ns_per_client", des_servers_s * 1e9 / BIG as f64),
        ("des.fastpath.replayed", replayed_fast as f64),
        ("des.faulted_clients_per_s", BIG as f64 / stats::median(&untraced.faulted)),
        ("des.recorded_clients_per_s", RECORDED as f64 / stats::median(&untraced.recorded)),
        ("faults.delivered_per_attempt", delivered_per_attempt),
        ("faults.retries", retries),
        ("telemetry.recorder_overhead_ms", overhead_ms),
        ("telemetry.exact_loop_ms", exact_loop_ms),
        ("telemetry.sink_ms", sink_ms),
        ("telemetry.recorder_events", recorder_events as f64),
        ("rayon.speedup", one / all),
        ("pool.jobs", (pool.jobs - pool_before.jobs) as f64),
        ("pool.steals", (pool.steals - pool_before.steals) as f64),
        ("engine.closed_form_ns_per_point", closed_ns),
        ("engine.timeline_ns_per_point", timeline_ns),
        ("residual_share", ledger.residual_share()),
        ("tracing_overhead_ratio", overhead),
    ] {
        out.layers.insert(k, v);
    }
    out.report
        .push("sweep_scale layer table (10⁶ fault-free DES point at one thread):".to_string());
    out.report.push(ledger.render("ms"));
    out.report
        .push("sweep_scale layer table (10⁵ faulted point with the flight recorder):".to_string());
    out.report.push(rec_ledger.render("ms"));
    out.report.push(format!(
        "  recorder: {recorder_events} events reached the sink; des.fastpath.replayed \
         {replayed_fast} without it, {replayed_recorded} with it; recorded − unrecorded point \
         {overhead_ms:.3} ms (untraced medians)"
    ));
    out.report.push(format!(
        "  rayon: 10⁶ point {:.3} ms at 1 thread, {:.3} ms at {} threads (speedup {:.3}); pool \
         jobs {} steals {} tasks {}",
        one * 1e3,
        all * 1e3,
        rayon::pool::current_num_threads(),
        one / all,
        pool.jobs - pool_before.jobs,
        pool.steals - pool_before.steals,
        pool.tasks_executed - pool_before.tasks_executed
    ));
    out.report.push(format!(
        "  engine at 10⁶ (warm cache): closed-form {closed_ns:.1} ns/point, timeline \
         {timeline_ns:.1} ns/point"
    ));
    out.report.push(format!(
        "  tracing overhead: traced/untraced 10⁶ point median − 1 = {overhead:.4} ({} traced, {} \
         untraced iterations)",
        traced.des.len(),
        untraced.des.len()
    ));
}
