//! `serve_mix`: the default-option `pb serve` daemon over loopback TCP,
//! driven by cheap requests with a seeded share of exact duplicates.
//!
//! Three phases. An open loop sends on a fixed schedule below
//! saturation and times each request from when it was due; a closed
//! loop sends back to back on every connection; both drive one daemon.
//! Per-request compute is small, so framing, admission, coalescing and
//! thread hand-offs dominate — and so do the host's scheduling delays:
//! on a shared 2-vCPU guest whose hypervisor steals 2–20 % of the CPU,
//! the daemon's wall-time figures spread 60–160 % between runs. They are
//! printed every run (the `serve_*` named figures) but do not feed the
//! gated end-to-end metrics. Those come from the third phase, an
//! in-process replay of the same request stream through the daemon's
//! per-request work — frame codec, parse, canonical key, engine call,
//! render — without its threads and sockets, which is CPU-bound and
//! steady.

use crate::gen::{RequestGen, Step};
use crate::stats::{self, Ledger};
use crate::trace::Tracer;
use crate::{host, Cfg, Outcome};
use precision_beekeeping::beehive::apiary::{Apiary, ScenarioRecommendation};
use precision_beekeeping::orchestra::engine::AllocationCache;
use precision_beekeeping::orchestra::loss::LossModel;
use precision_beekeeping::orchestra::montecarlo::{replicate_point_with, CiPoint};
use precision_beekeeping::orchestra::planner::{plan_slot_capacity_with, CapacityPlan};
use precision_beekeeping::orchestra::prelude::{presets, seeded_rng, SimContext, SweepConfig};
use precision_beekeeping::orchestra::FillPolicy;
use precision_beekeeping::serve::frame::{read_frame, write_frame};
use precision_beekeeping::serve::protocol::{self, parse_request, Request};
use precision_beekeeping::serve::{spawn, DrainReport, ServeClient, ServeHandle, ServeOptions};
use precision_beekeeping::signal::audio::BeeAudioSynth;
use precision_beekeeping::signal::pipeline::MelPipeline;
use precision_beekeeping::telemetry::TelemetrySnapshot;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Daemon spawns timed for `setup_s`.
const SETUP_REPS: usize = 21;
/// Shares of the run spent in the open loop, the closed loop and the
/// in-process replay, in that order. The replay feeds the gated
/// metrics, so it gets the most time: the longer it runs, the less its
/// figures depend on which host phase it happened to meet.
const OPEN_SHARE: f64 = 0.25;
const CLOSED_SHARE: f64 = 0.15;
const REPLAY_SHARE: f64 = 0.6;
/// Lockstep steps per closed-loop or replay window.
const WINDOW_STEPS: usize = 250;
/// Consecutive open-loop windows. The daemon's latency figures are the
/// quietest quartile of the per-window percentiles (see
/// [`stats::quiet_quartile`]); each window holds the 1 000 requests a
/// p99 needs.
const OPEN_WINDOWS: u64 = 3;
/// One step in this many is verified against an in-process computation.
const SAMPLE_EVERY: u64 = 16;
/// The open loop fell behind when its median send ran later than this
/// behind schedule, or its last send later than [`MAX_DRIFT`] of the
/// loop's length. A single late send is a host stall, reported as the
/// lateness p99.
const MAX_LATENESS_P50_MS: f64 = 1.0;
const MAX_DRIFT: f64 = 0.05;
/// Repetitions of each offline layer probe.
const PROBE_REPS: usize = 20;

const STATUS: &str = "{\"op\":\"status\"}";

/// One request's client-side record.
#[derive(Clone, Copy)]
struct Rec {
    step: u64,
    op: &'static str,
    ok: bool,
    /// Send to reply.
    rtt_ms: f64,
    /// Due time to reply (open loop), equal to `rtt_ms` when closed.
    from_due_ms: f64,
    /// Send time minus due time (open loop).
    late_ms: f64,
}

/// Everything one connection saw.
#[derive(Default)]
struct ConnLog {
    recs: Vec<Rec>,
    /// Replies to duplicate steps, by global step index.
    dups: Vec<(u64, String)>,
    /// Sampled (request, reply) pairs for verification and probes.
    samples: Vec<(String, String)>,
    failures: Vec<String>,
    /// Resident set size (MB) at the end of each open-loop window.
    rss: Vec<f64>,
    /// `status` replies whose live conservation flag read "violated".
    status_violated: u64,
    tracer: Tracer,
}

fn op_of(req: &str) -> &'static str {
    let tail = req.split("\"op\":\"").nth(1).unwrap_or("");
    ["recommend", "montecarlo", "plan", "features", "status"]
        .into_iter()
        .find(|op| tail.starts_with(op))
        .unwrap_or("other")
}

fn sampled(seed: u64, step: u64) -> bool {
    let mut x = seed ^ step.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 29;
    x.is_multiple_of(SAMPLE_EVERY)
}

fn is_ok(reply: &str) -> bool {
    reply.starts_with("{\"status\":\"ok\"")
}

/// Sends one step's request on `conn` and logs it. `due` is the
/// open-loop schedule time (None in the closed loop).
#[allow(clippy::too_many_arguments)]
fn send(
    client: &mut ServeClient,
    log: &mut ConnLog,
    seed: u64,
    index: u64,
    step: &Step,
    conn: usize,
    due: Option<Instant>,
    traced: bool,
) {
    let req = step.request(conn);
    let op = op_of(req);
    let span = traced.then(|| log.tracer.open("serve.call", index, None));
    let t0 = Instant::now();
    let reply = client.call(req);
    let t1 = Instant::now();
    if let Some(id) = span {
        log.tracer.close(id);
    }
    let (ok, reply) = match reply {
        Ok(r) => (is_ok(&r), r),
        Err(e) => (false, format!("frame error: {e}")),
    };
    if !ok {
        log.failures.push(format!("step {index} conn {conn}: {req} -> {reply}"));
    }
    if op == "status" && reply.contains("\"conservation\":\"violated\"") {
        log.status_violated += 1;
    }
    let due = due.unwrap_or(t0);
    log.recs.push(Rec {
        step: index,
        op,
        ok,
        rtt_ms: (t1 - t0).as_secs_f64() * 1e3,
        from_due_ms: t1.saturating_duration_since(due).as_secs_f64() * 1e3,
        late_ms: t0.saturating_duration_since(due).as_secs_f64() * 1e3,
    });
    if matches!(step, Step::Dup(_)) {
        log.dups.push((index, reply.clone()));
    }
    if sampled(seed, index) && op != "status" {
        log.samples.push((req.to_string(), reply));
    }
}

/// Runs `work(conn, client, gen, log)` on every connection at once: the
/// calling thread drives connection 0, one scoped thread per further
/// connection, so load-generator threads equal connections.
fn on_all_conns<F>(
    clients: &mut [ServeClient],
    gens: &mut [RequestGen],
    logs: &mut [ConnLog],
    work: F,
) where
    F: Fn(usize, &mut ServeClient, &mut RequestGen, &mut ConnLog) + Sync,
{
    std::thread::scope(|s| {
        let mut lanes = clients.iter_mut().zip(gens.iter_mut()).zip(logs.iter_mut()).enumerate();
        let (_, ((c0, g0), l0)) = lanes.next().expect("at least one connection");
        let work = &work;
        let handles: Vec<_> =
            lanes.map(|(i, ((c, g), l))| s.spawn(move || work(i, c, g, l))).collect();
        work(0, c0, g0, l0);
        for h in handles {
            h.join().expect("load-generator thread panicked");
        }
    });
}

/// What the daemon computes for `req`, recomputed in process through the
/// same library calls.
enum Computed {
    Recommend(ScenarioRecommendation),
    Plan(CapacityPlan),
    MonteCarlo(CiPoint),
    Features(Vec<f64>),
}

/// The daemon's engine call for `req` (None for control requests), on
/// contexts sharing `cache` as the daemon's do.
fn compute(req: &Request, mel: &MelPipeline, cache: &Arc<AllocationCache>) -> Option<Computed> {
    let loss = |on: bool| if on { LossModel::all() } else { LossModel::NONE };
    let ctx = |seed: u64| SimContext::with_cache(seed, Arc::clone(cache));
    Some(match req {
        Request::Recommend(r) => Computed::Recommend(Apiary::new("serve", r.hives).recommend_in(
            r.backend,
            r.service,
            r.cap,
            loss(r.losses),
            &ctx(Apiary::SEED),
        )),
        Request::Plan(r) => Computed::Plan(plan_slot_capacity_with(
            &ctx(r.seed),
            r.clients,
            r.cap_from..=r.cap_to,
            |cap| presets::cloud_server(r.service, cap),
            &presets::edge_cloud_client(),
            &loss(r.losses),
            FillPolicy::PackSlots,
        )),
        Request::MonteCarlo(r) => {
            let config = SweepConfig {
                edge_client: presets::edge_client(r.service),
                cloud_client: presets::edge_cloud_client(),
                server: presets::cloud_server(r.service, r.cap),
                loss: loss(r.losses),
                policy: FillPolicy::PackSlots,
                seed: r.seed,
            };
            Computed::MonteCarlo(replicate_point_with(
                &config,
                r.clients,
                r.replications,
                &ctx(r.seed),
            ))
        }
        Request::Features(r) => {
            let clip =
                BeeAudioSynth::default().generate(r.colony, r.duration_s, &mut seeded_rng(r.seed));
            Computed::Features(mel.mel(&clip).band_means())
        }
        _ => return None,
    })
}

fn render(req: &Request, c: &Computed) -> String {
    match (req, c) {
        (Request::Recommend(r), Computed::Recommend(x)) => {
            protocol::ok_response("recommend", &protocol::recommend_body(r, x))
        }
        (Request::Plan(r), Computed::Plan(x)) => {
            protocol::ok_response("plan", &protocol::plan_body(r, x))
        }
        (Request::MonteCarlo(r), Computed::MonteCarlo(x)) => {
            protocol::ok_response("montecarlo", &protocol::montecarlo_body(r, x))
        }
        (Request::Features(r), Computed::Features(x)) => {
            protocol::ok_response("features", &protocol::features_body(r, x))
        }
        _ => unreachable!("computed result does not match its request"),
    }
}

/// The daemon's per-request work without its threads and sockets: the
/// request and reply frames through the codec, the parse and canonical
/// key, the engine call and the render, through the same library calls.
fn serve_in_process(
    req: &str,
    mel: &MelPipeline,
    cache: &Arc<AllocationCache>,
    buf: &mut Vec<u8>,
) -> Result<String, String> {
    let mut frame = |payload: &[u8]| -> Result<Vec<u8>, String> {
        buf.clear();
        write_frame(buf, payload).map_err(|e| e.to_string())?;
        read_frame(&mut std::io::Cursor::new(&buf[..])).map_err(|e| e.to_string())
    };
    let text = String::from_utf8(frame(req.as_bytes())?).map_err(|e| e.to_string())?;
    let env = parse_request(&text)?;
    std::hint::black_box(env.request.canonical());
    let computed = compute(&env.request, mel, cache).ok_or("control request")?;
    let reply = frame(render(&env.request, &computed).as_bytes())?;
    String::from_utf8(reply).map_err(|e| e.to_string())
}

/// Σ count and Σ total over the daemon's per-op execution histograms,
/// plus the submit-to-done latency histogram.
fn exec_and_latency(snap: &TelemetrySnapshot) -> ((u64, f64), (u64, f64)) {
    let mut exec = (0u64, 0.0f64);
    for op in ["features", "montecarlo", "plan", "recommend", "sweep"] {
        if let Some(h) = snap.histogram(&format!("serve.request.{op}")) {
            exec.0 += h.count;
            exec.1 += h.total;
        }
    }
    let lat = snap.histogram("serve.request.latency").map_or((0, 0.0), |h| (h.count, h.total));
    (exec, lat)
}

/// Mean (ms) of the histogram growth between two snapshots.
fn delta_mean_ms(before: (u64, f64), after: (u64, f64)) -> f64 {
    let n = after.0.saturating_sub(before.0);
    if n == 0 {
        0.0
    } else {
        (after.1 - before.1) / n as f64 * 1e3
    }
}

fn spawn_daemon() -> ServeHandle {
    spawn("127.0.0.1:0", ServeOptions::default()).expect("spawn the daemon on loopback")
}

/// The median of `v`, NaN when empty.
fn median_or_nan(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        stats::median(v)
    }
}

/// The quietest quartile of `v`, NaN when empty.
fn quiet_or_nan(v: &[f64], lower_is_better: bool) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        stats::quiet_quartile(v, lower_is_better)
    }
}

/// Daemon spawn to first reply, [`SETUP_REPS`] times (seconds each).
fn setup_times(out: &mut Outcome) -> Vec<f64> {
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let d = spawn_daemon();
        let mut c = ServeClient::connect(d.addr()).expect("connect to the daemon");
        let first = c.call(STATUS).expect("first reply");
        setups.push(t.elapsed().as_secs_f64());
        drop(c);
        let report = d.shutdown();
        if !is_ok(&first) || !report.conservation_ok() {
            out.fail(format!("set-up daemon: {first} / {report}"));
        }
    }
    setups
}

/// The in-process replay of the workload's request stream, one request
/// at a time (a duplicate step is one computation): per-request service
/// times (ms) and per-window throughput (requests/s).
fn replay(cfg: &Cfg, out: &mut Outcome, mel: &MelPipeline) -> (Vec<f64>, Vec<f64>) {
    let mut gen = RequestGen::new(cfg.seed);
    let cache = Arc::new(AllocationCache::new());
    let mut buf = Vec::with_capacity(8192);
    let mut service_ms: Vec<f64> = Vec::new();
    let mut window_rps: Vec<f64> = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds * REPLAY_SHARE {
        let t = Instant::now();
        let mut done = 0usize;
        for _ in 0..WINDOW_STEPS {
            let step = gen.step();
            let sides = if matches!(step, Step::Dup(_)) { 1 } else { 2 };
            for side in 0..sides {
                let req = step.request(side);
                if op_of(req) == "status" {
                    continue;
                }
                let t0 = Instant::now();
                let reply = serve_in_process(req, mel, &cache, &mut buf);
                service_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                out.attempted += 1;
                match reply {
                    Ok(r) if is_ok(&r) => done += 1,
                    Ok(r) => out.fail(format!("in-process replay: {req} -> {r}")),
                    Err(e) => out.fail(format!("in-process replay: {req}: {e}")),
                }
            }
        }
        window_rps.push(done as f64 / t.elapsed().as_secs_f64());
    }
    (service_ms, window_rps)
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let nproc = host::nproc();
    let conns = nproc.min(2);
    assert!(conns <= nproc, "load generator may not use more connections than cores");
    let rate = cfg.rate.expect("serve_mix states its open-loop rate=<n>/s in BENCHMARK.json");

    let setups = setup_times(&mut out);
    out.e2e.insert("setup_s", stats::median(&setups));

    let daemon = spawn_daemon();
    let mut clients: Vec<ServeClient> = (0..conns)
        .map(|_| ServeClient::connect(daemon.addr()).expect("connect to the daemon"))
        .collect();
    // Every connection replays the same step sequence and takes its
    // own side of each step, so duplicates line up across connections.
    let mut gens: Vec<RequestGen> = (0..conns).map(|_| RequestGen::new(cfg.seed)).collect();
    let mut logs: Vec<ConnLog> = (0..conns).map(|_| ConnLog::default()).collect();
    let barrier = Barrier::new(conns);
    // Closed-loop lockstep steps; duplicates rendezvous so both copies
    // are in flight together.
    let closed_window = |logs: &mut [ConnLog],
                         clients: &mut [ServeClient],
                         gens: &mut [RequestGen],
                         first: u64,
                         traced: bool| {
        on_all_conns(clients, gens, logs, |conn, client, gen, log| {
            for i in 0..WINDOW_STEPS as u64 {
                let step = gen.step();
                if matches!(step, Step::Dup(_)) {
                    barrier.wait();
                }
                send(client, log, cfg.seed, first + i, &step, conn, None, traced);
            }
        });
    };

    // Warm-up: one untimed closed window starts the pool and the lazy
    // parts of the daemon.
    closed_window(&mut logs, &mut clients, &mut gens, 0, false);
    let warm_recs: Vec<usize> = logs.iter().map(|l| l.recs.len()).collect();
    let snap_before_open = daemon.telemetry().snapshot();

    // Open loop first: a fixed schedule is a fixed amount of work, so
    // the resident set sampled here does not depend on host speed. One
    // tick sends one request per connection at its due time; the rate
    // counts requests over all connections.
    let open_secs = cfg.seconds * OPEN_SHARE;
    let interval = Duration::from_secs_f64(conns as f64 / rate);
    let n_ticks = (open_secs * rate / conns as f64).ceil() as u64;
    let open_first = WINDOW_STEPS as u64;
    let open_start = Instant::now() + Duration::from_millis(5);
    on_all_conns(&mut clients, &mut gens, &mut logs, |conn, client, gen, log| {
        for k in 0..n_ticks {
            let step = gen.step();
            let due = open_start + interval * k as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            send(client, log, cfg.seed, open_first + k, &step, conn, Some(due), cfg.traced);
            if conn == 0 && (k + 1) % (n_ticks / OPEN_WINDOWS).max(1) == 0 {
                log.rss.push(host::rss_mb());
            }
        }
    });
    let open_wall = open_start.elapsed().as_secs_f64();
    let snap_after_open = daemon.telemetry().snapshot();

    // Closed loop: windows of lockstep steps until the budget is spent.
    let closed_start = Instant::now();
    let mut window_rps: Vec<(bool, f64)> = Vec::new();
    let mut next_step = open_first + n_ticks;
    while closed_start.elapsed().as_secs_f64() < cfg.seconds * CLOSED_SHARE {
        let traced = cfg.traced && window_rps.len().is_multiple_of(2);
        let ok_before: usize = logs.iter().map(|l| l.recs.iter().filter(|r| r.ok).count()).sum();
        let t = Instant::now();
        closed_window(&mut logs, &mut clients, &mut gens, next_step, traced);
        let secs = t.elapsed().as_secs_f64();
        let ok_after: usize = logs.iter().map(|l| l.recs.iter().filter(|r| r.ok).count()).sum();
        window_rps.push((traced, (ok_after - ok_before) as f64 / secs));
        next_step += WINDOW_STEPS as u64;
    }
    let final_status = clients[0].call(STATUS).unwrap_or_default();
    drop(clients);
    let report = daemon.shutdown();

    // Checks: every reply ok, duplicates identical, sampled replies
    // byte-identical to the in-process computation, conservation.
    let mut samples = Vec::new();
    let mut dups: Vec<Vec<(u64, String)>> = Vec::new();
    let mut closed: Vec<Rec> = Vec::new();
    let mut open: Vec<Rec> = Vec::new();
    let mut tracer = Tracer::default();
    let mut status_violated = 0;
    for (log, warm) in logs.into_iter().zip(warm_recs) {
        status_violated += log.status_violated;
        out.attempted += log.recs.len() as u64;
        out.failed += log.failures.len() as u64;
        out.failures.extend(log.failures.into_iter().take(5));
        out.rss.extend(log.rss);
        samples.extend(log.samples);
        dups.push(log.dups);
        tracer.absorb(log.tracer);
        // Each log holds the warm-up, then the open loop, then the
        // closed loop.
        let split = (warm + n_ticks as usize).min(log.recs.len());
        open.extend_from_slice(&log.recs[warm..split]);
        closed.extend_from_slice(&log.recs[split..]);
    }
    if conns == 2 {
        for ((i, a), (j, b)) in dups[0].iter().zip(&dups[1]) {
            if i != j || a != b {
                out.fail(format!("duplicate step {i}/{j} got different replies"));
            }
        }
        if dups[0].len() != dups[1].len() {
            out.fail("connections saw different duplicate counts");
        }
    }
    let n_dups = dups.first().map_or(0, Vec::len);
    let mel = MelPipeline::paper_default();
    let cache = Arc::new(AllocationCache::new());
    let mut verified = 0;
    for (req, reply) in &samples {
        let env = match parse_request(req) {
            Ok(e) => e,
            Err(e) => {
                out.fail(format!("generated request does not parse: {req}: {e}"));
                continue;
            }
        };
        match compute(&env.request, &mel, &cache) {
            Some(c) if render(&env.request, &c) == *reply => verified += 1,
            Some(_) => out.fail(format!("served reply differs from in-process result: {req}")),
            None => {}
        }
    }
    if !report.conservation_ok() {
        out.fail(format!("daemon drain: {report}"));
    }
    if !is_ok(&final_status) || !final_status.contains("\"conservation\":\"ok\"") {
        out.fail(format!("final status: {final_status}"));
    }

    let (service_ms, replay_rps) = replay(cfg, &mut out, &mel);

    // End-to-end metrics: the replay. Throughput is the rate three
    // windows in four reach, inside the host's slow phase rather than
    // across it. The median (where the two cheapest ops' cost ranges
    // meet) and the p90 (inside `features`, below its slow-phase tail)
    // move with the share of the run the slow phase took; they print.
    let service = stats::sorted(&service_ms);
    let p50 = stats::percentile(&service, 0.5);
    let p90 = stats::percentile(&service, 0.9);
    let p99 = stats::tail(&service, 0.99);
    if p99.is_none() {
        out.fail(format!("the replay served {} requests, too few for a p99", service.len()));
    }
    let replay_throughput = stats::percentile(&stats::sorted(&replay_rps), 0.25);
    let replay_slo =
        service_ms.iter().filter(|&&v| v <= cfg.limit_ms).count() as f64 / service.len() as f64;
    out.e2e.insert("throughput_per_s", replay_throughput);
    out.e2e.insert("p99_ms", p99.unwrap_or(f64::NAN));
    out.e2e.insert("slo_ratio", replay_slo);

    // The daemon's own figures: printed, not gated.
    let rps_windows: Vec<f64> = {
        let untraced: Vec<f64> = window_rps.iter().filter(|w| !w.0).map(|w| w.1).collect();
        if untraced.is_empty() {
            window_rps.iter().map(|w| w.1).collect()
        } else {
            untraced
        }
    };
    let from_due = stats::sorted(&open.iter().map(|r| r.from_due_ms).collect::<Vec<_>>());
    let late = stats::sorted(&open.iter().map(|r| r.late_ms).collect::<Vec<_>>());
    let (mut w50, mut w90, mut w99, mut wslo) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for w in 0..OPEN_WINDOWS {
        let part: Vec<&Rec> =
            open.iter().filter(|r| (r.step - open_first) * OPEN_WINDOWS / n_ticks == w).collect();
        if part.is_empty() {
            continue;
        }
        let due = stats::sorted(&part.iter().map(|r| r.from_due_ms).collect::<Vec<_>>());
        w50.push(stats::percentile(&due, 0.5));
        w90.push(stats::percentile(&due, 0.9));
        w99.extend(stats::tail(&due, 0.99));
        // Shed, error and late replies all miss the limit.
        let met = part.iter().filter(|r| r.ok && r.from_due_ms <= cfg.limit_ms).count();
        wslo.push(met as f64 / part.len() as f64);
    }
    let late_p50 = stats::percentile(&late, 0.5);
    let late_p99 = stats::tail(&late, 0.99).unwrap_or(f64::NAN);
    let drift = (open_wall - open_secs) / open_secs;
    if late_p50 > MAX_LATENESS_P50_MS || drift > MAX_DRIFT {
        out.invalid.push(format!(
            "open-loop generator fell behind: median lateness {late_p50:.3} ms (limit \
             {MAX_LATENESS_P50_MS} ms), loop overran its schedule by {:.1}% (limit {:.0}%)",
            drift * 100.0,
            MAX_DRIFT * 100.0
        ));
    }
    let serve_rps = quiet_or_nan(&rps_windows, false);
    let serve_p50 = quiet_or_nan(&w50, true);
    let serve_p99 = quiet_or_nan(&w99, true);
    let serve_slo = quiet_or_nan(&wslo, false);

    out.named("setup_s", stats::median(&setups), "s");
    out.named("replay_req_per_s", replay_throughput, "1/s");
    out.named("replay_req_per_s_median_window", stats::median(&replay_rps), "1/s");
    out.named("replay_p50_ms", p50, "ms");
    out.named("replay_p90_ms", p90, "ms");
    out.named("replay_p99_ms", p99.unwrap_or(f64::NAN), "ms");
    out.named("replay_slo_ratio", replay_slo, "ratio");
    out.named("serve_rps", serve_rps, "1/s");
    out.named("serve_p50_ms", serve_p50, "ms");
    out.named("serve_p90_ms", quiet_or_nan(&w90, true), "ms");
    out.named("serve_p99_ms", serve_p99, "ms");
    out.named("serve_slo_ratio", serve_slo, "ratio");
    out.named("serve_rps_median_window", median_or_nan(&rps_windows), "1/s");
    out.named("serve_p50_median_window_ms", median_or_nan(&w50), "ms");
    out.named("serve_p99_median_window_ms", median_or_nan(&w99), "ms");
    out.named("serve_open_p99_pooled_ms", stats::tail(&from_due, 0.99).unwrap_or(f64::NAN), "ms");
    out.named("serve_open_samples", from_due.len() as f64, "count");
    out.named("status_conservation_violated", status_violated as f64, "count");
    out.named("loadgen_lateness_p50_ms", late_p50, "ms");
    out.named("loadgen_lateness_p99_ms", late_p99, "ms");

    out.report.push(format!(
        "serve_mix: {conns} connections / {conns} load threads (nproc {nproc}); open loop {} \
         requests at {rate}/s over {open_wall:.2} s; closed loop {} windows of {WINDOW_STEPS} \
         steps ({} requests); {n_dups} duplicate steps; {verified} sampled replies \
         byte-identical in process",
        open.len(),
        window_rps.len(),
        closed.len()
    ));
    out.report.push(format!(
        "  daemon (not gated): closed loop {serve_rps:.0} ok req/s; open loop p50 {serve_p50:.4} \
         ms, p99 {serve_p99:.4} ms, slo_ratio {serve_slo:.4} at limit {} ms (quietest quartile of \
         {OPEN_WINDOWS} windows over {} samples); generator lateness p50 {late_p50:.4} / p99 \
         {late_p99:.4} ms",
        cfg.limit_ms,
        from_due.len()
    ));
    out.report.push(format!(
        "  replay (gated): {} requests, {replay_throughput:.0} req/s (lower-quartile window), \
         p50 {p50:.4} ms, p90 {p90:.4} ms, p99 {:.4} ms, slo_ratio {replay_slo:.5}",
        service.len(),
        p99.unwrap_or(f64::NAN)
    ));
    out.report
        .push(format!("  {report}; coalesced {} executed {}", report.coalesced, report.executed));
    if status_violated > 0 {
        out.report.push(format!(
            "  note: {status_violated} mid-run status replies read \"conservation\":\"violated\" \
             while the drain report balanced: status reads the counters without the queue lock"
        ));
    }

    if cfg.traced {
        layers(
            &mut out,
            &samples,
            &snap_before_open,
            &snap_after_open,
            &open,
            &window_rps,
            &report,
        );
        out.layers.insert("loadgen.lateness_p50_ms", late_p50);
        out.layers.insert("loadgen.lateness_p99_ms", late_p99);
        out.tracer = Some(tracer);
    }
    out
}

/// Per-layer figures of the traced run and the open-loop time ledger.
fn layers(
    out: &mut Outcome,
    samples: &[(String, String)],
    snap_before: &TelemetrySnapshot,
    snap_open: &TelemetrySnapshot,
    open: &[Rec],
    window_rps: &[(bool, f64)],
    report: &DrainReport,
) {
    let mut probe = Tracer::default();
    let mel = MelPipeline::paper_default();
    let cache = Arc::new(AllocationCache::new());
    let n = samples.len().max(1) as f64;
    // Offline probes over the workload's own request and reply bytes.
    let mut buf = Vec::with_capacity(8192);
    for (i, (req, reply)) in samples.iter().enumerate() {
        let id = i as u64;
        probe.time("frame.codec", id, None, || {
            for _ in 0..PROBE_REPS {
                for payload in [req.as_bytes(), reply.as_bytes()] {
                    buf.clear();
                    write_frame(&mut buf, payload).expect("in-memory write");
                    let back = read_frame(&mut std::io::Cursor::new(&buf)).expect("in-memory read");
                    std::hint::black_box(back);
                }
            }
        });
        let env = probe.time("protocol.parse", id, None, || {
            let mut env = None;
            for _ in 0..PROBE_REPS {
                let e = parse_request(req).expect("sampled requests parse");
                std::hint::black_box(e.request.canonical());
                env = Some(e);
            }
            env.expect("at least one repetition")
        });
        if let Some(c) = compute(&env.request, &mel, &cache) {
            probe.time("protocol.render", id, None, || {
                for _ in 0..PROBE_REPS {
                    std::hint::black_box(render(&env.request, &c));
                }
            });
        }
    }
    let per_req_us = |name: &str| {
        probe.self_times().get(name).map_or(0.0, |&(_, ns)| ns as f64 / 1e3 / PROBE_REPS as f64 / n)
    };
    let codec_us = per_req_us("frame.codec");
    let parse_us = per_req_us("protocol.parse");
    let render_us = per_req_us("protocol.render");

    // Daemon histograms over the open loop.
    let (exec0, lat0) = exec_and_latency(snap_before);
    let (exec1, lat1) = exec_and_latency(snap_open);
    let exec_ms = delta_mean_ms(exec0, exec1);
    let latency_ms = delta_mean_ms(lat0, lat1);
    let queue_ms = latency_ms - exec_ms;
    let compute: Vec<&Rec> = open.iter().filter(|r| r.op != "status").collect();
    let rtt_ms = stats::mean(&compute.iter().map(|r| r.rtt_ms).collect::<Vec<_>>());
    let due_ms = stats::mean(&compute.iter().map(|r| r.from_due_ms).collect::<Vec<_>>());
    let late_ms = stats::mean(&compute.iter().map(|r| r.late_ms).collect::<Vec<_>>());
    let handoff_ms = rtt_ms - latency_ms;

    let hits = snap_open.counter("allocation_cache.hits").unwrap_or(0) as f64;
    let misses = snap_open.counter("allocation_cache.misses").unwrap_or(0) as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    let mut ledger = Ledger::new(due_ms);
    ledger.row("loadgen.lateness", late_ms);
    ledger.row("frame.codec", codec_us / 1e3);
    ledger.row("protocol.parse", parse_us / 1e3);
    ledger.row("server.queue_wait", queue_ms);
    ledger.row("server.exec (compute)", exec_ms - render_us / 1e3);
    ledger.row("protocol.render", render_us / 1e3);

    let traced: Vec<f64> = window_rps.iter().filter(|w| w.0).map(|w| w.1).collect();
    let untraced: Vec<f64> = window_rps.iter().filter(|w| !w.0).map(|w| w.1).collect();
    let overhead = if traced.is_empty() || untraced.is_empty() {
        0.0
    } else {
        stats::median(&untraced) / stats::median(&traced) - 1.0
    };

    for (k, v) in [
        ("frame.codec_us", codec_us),
        ("protocol.parse_us", parse_us),
        ("protocol.render_us", render_us),
        ("server.exec_ms", exec_ms),
        ("server.queue_wait_ms", queue_ms),
        ("server.handoff_ms", handoff_ms),
        ("server.coalesce_ratio", ratio(report.coalesced, report.accepted)),
        ("server.shed_ratio", ratio(report.shed, report.submitted)),
        ("server.executed", report.executed as f64),
        ("engine.cache_hit_ratio", if hits + misses == 0.0 { 0.0 } else { hits / (hits + misses) }),
        ("residual_share", ledger.residual_share()),
        ("tracing_overhead_ratio", overhead),
    ] {
        out.layers.insert(k, v);
    }

    // Where the open-loop tail goes: the slowest 1 % by op, against the
    // daemon's own latency histogram.
    let mut by_due: Vec<&Rec> = open.iter().collect();
    by_due.sort_by(|a, b| a.from_due_ms.partial_cmp(&b.from_due_ms).expect("finite"));
    let slow = &by_due[by_due.len() - (by_due.len() / 100).max(1)..];
    let mut ops = std::collections::BTreeMap::<&str, usize>::new();
    for r in slow {
        *ops.entry(r.op).or_default() += 1;
    }
    let slow_late = stats::mean(&slow.iter().map(|r| r.late_ms).collect::<Vec<_>>());
    let slow_rtt = stats::mean(&slow.iter().map(|r| r.rtt_ms).collect::<Vec<_>>());
    let lat_hist = snap_open.histogram("serve.request.latency");

    out.report.push("serve_mix layer table (open loop, mean per compute request):".to_string());
    out.report.push(ledger.render("ms"));
    out.report.push(format!(
        "  server.handoff (round trip − serve.request.latency) {handoff_ms:.4} ms = codec + parse \
         + residual; exec {exec_ms:.4} ms, queue wait {queue_ms:.4} ms per execution"
    ));
    out.report.push(format!(
        "  tail: slowest 1% ({} requests) mean lateness {slow_late:.4} ms + round trip \
         {slow_rtt:.4} ms; ops {ops:?}; daemon serve.request.latency p95 {:.4} ms, max {:.4} ms",
        slow.len(),
        lat_hist.map_or(0.0, |h| h.p95 * 1e3),
        lat_hist.map_or(0.0, |h| h.max * 1e3)
    ));
    out.report.push(format!(
        "  tracing overhead: untraced/traced closed-loop req/s − 1 = {overhead:.4} ({} traced, {} \
         untraced windows)",
        traced.len(),
        untraced.len()
    ));
}
