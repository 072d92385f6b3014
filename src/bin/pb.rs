//! `pb` — the precision-beekeeping command-line tool.
//!
//! A thin operational front-end over the library for beekeepers and
//! researchers:
//!
//! ```console
//! $ pb tables                      # the paper's Table I / Table II
//! $ pb recommend --hives 630 --cap 35 [--losses] [--service svm]
//! $ pb sweep --backend des --trace trace.jsonl --metrics
//!                                  # instrumented Fig. 7 sweep
//! $ pb tune --battery-wh 15       # fastest sustainable wake-up period
//! $ pb alert --accuracy 0.99 --k 3 # alerting trade-off at a given k
//! ```
//!
//! `pb --backend des --trace trace.jsonl` (flags first, no command word) is
//! shorthand for `pb sweep …`.
//!
//! `sweep` and `recommend` read their flags through the daemon's request
//! field tables (`serve::protocol`) and run its executor
//! (`serve::Executor`), so `pb sweep --cap 35` and `pb call ADDR
//! '{"op":"sweep","cap":35}'` price the same question with the same
//! defaults and bounds.

use precision_beekeeping::beehive::alert::AlertPolicy;
use precision_beekeeping::beehive::hive::SmartBeehive;
use precision_beekeeping::beehive::tuner::{FrequencyTuner, ServiceRequirement};
use precision_beekeeping::device::constants::CYCLE_PERIOD;
use precision_beekeeping::device::routine::{RoutineBuilder, ServiceKind};
use precision_beekeeping::energy::battery::Battery;
use precision_beekeeping::energy::harvest::{PowerSystem, PowerSystemConfig};
use precision_beekeeping::ml::{
    FeatureMap, QuantScratch, QuantizedResNetLite, ResNetConfig, ResNetLite,
};
use precision_beekeeping::orchestra::prelude::seeded_rng;
use precision_beekeeping::orchestra::report::{metrics_table, publish_pool_metrics};
use precision_beekeeping::orchestra::sweep::analyze_crossover;
use precision_beekeeping::serve::protocol::{Args, FaultTotals, RecommendRequest, SweepRequest};
use precision_beekeeping::serve::{self as serve_mod, Executor, ServeClient, ServeOptions};
use precision_beekeeping::signal::audio::{BeeAudioSynth, ColonyState};
use precision_beekeeping::signal::pipeline::MelPipeline;
use precision_beekeeping::telemetry::export::{chrome_trace, chrome_trace_from_jsonl, openmetrics};
use precision_beekeeping::telemetry::{FlightRecorderSink, Forensics, Telemetry};
use precision_beekeeping::units::{Seconds, WattHours, Watts};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = argv.first() else {
        usage();
        return;
    };
    // Help wins over every command: `pb serve --help` must print usage,
    // not bind a port and block.
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return;
    }
    // `pb --backend des --trace t.jsonl` (flags first) means `pb sweep …`.
    let (command, rest) =
        if first.starts_with("--") { ("sweep", &argv[..]) } else { (first.as_str(), &argv[1..]) };
    match command {
        // `trace` and `call` take positional arguments before their flags.
        "trace" => trace_cmd(rest),
        "call" => call_cmd(rest),
        "sweep" => sweep(rest),
        "recommend" => recommend(rest),
        "tables" => {
            args(rest, &[]);
            tables();
        }
        "serve" => {
            serve(&args(rest, &["listen", "unix", "queue", "workers", "metrics", "openmetrics"]))
        }
        "tune" => tune(&args(rest, &["battery-wh"])),
        "alert" => alert(&args(rest, &["accuracy", "k"])),
        "help" => {
            args(rest, &[]);
            usage();
        }
        other => {
            eprintln!("unknown command: {other}\n");
            usage();
            std::process::exit(2);
        }
    }
}

fn usage() {
    println!("pb — energy-aware precision beekeeping toolkit\n");
    println!("commands:");
    println!("  tables                          print the per-cycle energy tables");
    println!("  recommend --hives N [--cap N] [--service svm|cnn|cnn-int8] [--losses]");
    println!("            [--backend closed-form|timeline|des]");
    println!("                                  edge vs edge+cloud for an apiary");
    println!("  sweep [--backend B] [--cap N] [--from N] [--to N] [--step N]");
    println!("        [--service svm|cnn|cnn-int8] [--losses] [--seed S]");
    println!("        [--metrics] [--trace FILE] [--faults SPEC] [--causal]");
    println!("        [--flight FILE] [--chrome FILE] [--openmetrics FILE]");
    println!("                                  Fig. 7 population sweep; --metrics");
    println!("                                  prints the telemetry table, --trace");
    println!("                                  writes a JSONL simulation event log");
    println!("                                  (flags first == sweep)");
    println!("                                  --faults injects a deterministic fault");
    println!("                                  plan: 'mid', 'none' or a spec like");
    println!("                                  outage=60..120,loss=0.05,slowdown=1.1,");
    println!("                                  brownout=0.02,dropout=0.02,retries=3");
    println!("                                  --causal tags events with trace/span ids");
    println!("                                  (one trace per client service cycle);");
    println!("                                  --faults without --trace records into a");
    println!("                                  bounded flight recorder that dumps FILE");
    println!("                                  (default pb-flight.jsonl) on anomalies");
    println!("                                  (it takes no DES trajectories, so the");
    println!("                                  DES replays as it does unrecorded);");
    println!("                                  --chrome exports a Perfetto-loadable");
    println!("                                  span view, --openmetrics the metrics");
    println!("  trace FILE [--top K] [--chrome FILE]");
    println!("                                  offline forensics over a JSONL event");
    println!("                                  log: causal chains, retry histogram,");
    println!("                                  fallback root causes, critical paths");
    println!("  tune [--battery-wh W]           fastest sustainable wake-up period");
    println!("  alert [--accuracy A] [--k K]    queen-loss alerting trade-off");
    println!("  serve [--listen HOST:PORT] [--unix PATH] [--queue N] [--workers N]");
    println!("        [--metrics] [--openmetrics FILE]");
    println!("                                  resident daemon: sweep/plan/recommend/");
    println!("                                  montecarlo/features over a length-framed");
    println!("                                  JSON protocol, with request coalescing,");
    println!("                                  a bounded admission queue (shed + retry-");
    println!("                                  after) and graceful drain on the");
    println!("                                  'shutdown' op; --metrics prints the");
    println!("                                  telemetry table after the drain");
    println!("  call ENDPOINT JSON [--attempts N]");
    println!("                                  send one framed request to a daemon");
    println!("                                  (ENDPOINT is host:port or a Unix socket");
    println!("                                  path) and print the response; honors");
    println!("                                  shed retry-after up to N tries (default 5)");
}

/// Prints an error and exits with status 2.
fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// The value, or the error printed with exit status 2.
fn or_fail<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| fail(&e))
}

/// Reads a command's `--key [value]` flags; any other key fails.
fn args(argv: &[String], keys: &[&str]) -> Args {
    or_fail(Args::read(argv, keys))
}

/// `pb sweep`'s observation flags: they choose what the run records and
/// where it writes it, never what it computes, so they stay outside the
/// request and its coalescing key.
const OBSERVE: &[&str] = &["metrics", "trace", "causal", "flight", "chrome", "openmetrics"];

fn tables() {
    let b = RoutineBuilder::deployed();
    for service in [ServiceKind::Svm, ServiceKind::Cnn, ServiceKind::CnnInt8] {
        println!("Scenario: Edge ({})", service.name());
        println!("{}\n", b.edge_cycle(service, CYCLE_PERIOD).to_ledger());
    }
    println!("Scenario: Edge+Cloud (edge side)");
    println!("{}", b.edge_cloud_cycle(CYCLE_PERIOD).to_ledger());
}

fn recommend(argv: &[String]) {
    let (r, _) = or_fail(RecommendRequest::from_args(argv, &[]));
    let rec = Executor::new(Telemetry::disabled()).recommend(&r);
    println!(
        "{} hives, {} service, {} clients/slot{}, {} backend:",
        r.hives,
        r.service.name(),
        r.cap,
        if r.losses { ", with losses" } else { "" },
        r.backend
    );
    println!("  edge       : {:.1} J per hive per cycle", rec.edge_per_hive.value());
    println!(
        "  edge+cloud : {:.1} J per hive per cycle ({} server(s))",
        rec.cloud_per_hive.value(),
        rec.servers_needed
    );
    println!("  recommend  : {}", rec.scenario.name());
}

fn sweep(argv: &[String]) {
    let (r, observe) = or_fail(SweepRequest::from_args(argv, OBSERVE));
    let metrics = or_fail(observe.parse("metrics", false));
    let causal = or_fail(observe.parse("causal", false));
    let trace_path = or_fail(observe.value("trace", "a file path"));
    let chrome_path = or_fail(observe.value("chrome", "a file path"));
    let openmetrics_path = or_fail(observe.value("openmetrics", "a file path"));
    let flight_path = observe.get("flight").flatten().unwrap_or("pb-flight.jsonl");

    // Event recording only pays off when a trace is written; --metrics
    // alone keeps the cheap no-op event sink. No flags → fully disabled,
    // and either way the simulation results are bit-identical. Faulted
    // sweeps without an explicit trace default to the bounded flight
    // recorder, which auto-dumps a post-mortem JSONL on anomalies
    // (brown-out, retry exhaustion, conservation mismatch). The
    // recorder shards per worker and orders events by task position,
    // so it shares no per-event write between workers, and it keeps no
    // per-event DES trajectories, so the DES stays on its
    // shape-memoized replay. Its remaining cost is building and storing
    // the fault events.
    let wants_events = trace_path.is_some() || chrome_path.is_some();
    let flight = if !r.faults.is_none() && !wants_events {
        Some(std::sync::Arc::new(
            FlightRecorderSink::new(4096).with_auto_dump(flight_path.to_string(), 1),
        ))
    } else {
        None
    };
    let telemetry = if wants_events {
        Telemetry::enabled()
    } else if let Some(fr) = &flight {
        Telemetry::with_sink(Box::new(std::sync::Arc::clone(fr)))
    } else if metrics {
        Telemetry::metrics_only()
    } else {
        Telemetry::disabled()
    };
    let telemetry = if causal { telemetry.with_tracing() } else { telemetry };

    let points = Executor::new(telemetry.clone()).sweep(&r);
    let crossover = analyze_crossover(&points);

    println!(
        "{} service, {}–{} clients (step {}), {} clients/slot{}, {} backend:",
        r.service.name(),
        r.from,
        r.to,
        r.step,
        r.cap,
        if r.losses { ", with losses" } else { "" },
        r.backend
    );
    if !r.faults.is_none() {
        println!("  fault plan      : {}", r.faults);
    }
    match crossover.first_crossover {
        Some(n) => println!("  first crossover : {n} clients (edge+cloud first wins)"),
        None => println!("  first crossover : none (edge wins everywhere sampled)"),
    }
    if let Some(n) = crossover.always_after {
        println!("  always wins from: {n} clients");
    }
    if let Some((n, adv)) = crossover.max_advantage {
        println!("  max advantage   : {:.1} J per client at {} clients", adv.value(), n);
    }
    if !r.faults.is_none() {
        let totals = FaultTotals::of(&points);
        let f = &totals.stats;
        println!(
            "  faults (cloud)  : {} attempts, {} retries, {} fallbacks \
             ({} brown-outs), {} sensor dropouts, {} delivered",
            f.attempts, f.retries, f.fallbacks, f.brownouts, f.sensor_dropouts, f.delivered
        );
        println!(
            "  conservation    : delivered {} + fallbacks {} + dropouts {} == active {} ({})",
            f.delivered,
            f.fallbacks,
            f.sensor_dropouts,
            totals.active,
            if totals.conserved() { "ok" } else { "VIOLATED" }
        );
        // A broken conservation sum is an anomaly worth a post-mortem:
        // the event is a flight-recorder dump trigger.
        if !totals.conserved() && telemetry.events_recording() {
            telemetry.event(
                0.0,
                "anomaly.conservation",
                vec![
                    ("delivered", f.delivered.into()),
                    ("fallbacks", f.fallbacks.into()),
                    ("dropouts", f.sensor_dropouts.into()),
                    ("active", totals.active.into()),
                ],
            );
        }
    }

    if telemetry.is_enabled() {
        in_vivo_dsp(&telemetry, r.seed);
        in_vivo_energy(&telemetry, r.seed);
    }
    if metrics {
        // Fold the thread pool's counters in so the table shows where
        // the sweep's parallelism actually went.
        publish_pool_metrics(&telemetry);
        println!("\ntelemetry metrics:");
        println!("{}", metrics_table(&telemetry.snapshot()).render());
    }
    if let Some(path) = trace_path {
        match telemetry.write_trace(path) {
            Ok(n) => println!("wrote {n} trace events to {path}"),
            Err(e) => fail(&format!("cannot write trace to {path}: {e}")),
        }
    }
    if let Some(path) = chrome_path {
        match std::fs::write(path, chrome_trace(&telemetry.events_sorted())) {
            Ok(()) => println!("wrote Chrome trace-event span view to {path}"),
            Err(e) => fail(&format!("cannot write Chrome trace to {path}: {e}")),
        }
    }
    if let Some(path) = openmetrics_path {
        match std::fs::write(path, openmetrics(&telemetry.snapshot())) {
            Ok(()) => println!("wrote OpenMetrics exposition to {path}"),
            Err(e) => fail(&format!("cannot write OpenMetrics to {path}: {e}")),
        }
    }
    if let Some(fr) = &flight {
        let (info, warn, error) = fr.len_by_severity();
        println!(
            "flight recorder : {} info / {} warn / {} error events retained, {} trigger(s)",
            info,
            warn,
            error,
            fr.triggers_fired()
        );
        if let Some(e) = fr.dump_error() {
            fail(&format!("cannot write flight post-mortem to {flight_path}: {e}"));
        }
        match (fr.dump_cause(), fr.last_trigger()) {
            (Some(cause), _) => {
                println!("  post-mortem   : {flight_path} (first trigger: {cause})");
            }
            (None, Some(kind)) => println!("  trigger seen  : {kind} (dump budget exhausted)"),
            (None, None) => println!("  no anomalies  : nothing dumped"),
        }
    }
}

/// `pb trace FILE [--top K] [--chrome FILE]` — offline forensics over a
/// JSONL event log produced by `pb sweep --trace` (or a flight-recorder
/// dump): reconstructs causal chains, the retry histogram, the fallback
/// root-cause table and the top-k slowest / most energy-expensive
/// traces; `--chrome` additionally converts the log into a
/// Perfetto-loadable Chrome trace-event file.
fn trace_cmd(argv: &[String]) {
    let Some(path) = argv.first().filter(|a| !a.starts_with("--")) else {
        fail("trace needs a JSONL file path: pb trace FILE [--top K] [--chrome FILE]");
    };
    let flags = args(&argv[1..], &["top", "chrome"]);
    let top = or_fail(flags.parse("top", 5usize));
    let jsonl =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let forensics = Forensics::from_jsonl(&jsonl).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    if let Some(out) = or_fail(flags.value("chrome", "a file path")) {
        let chrome =
            chrome_trace_from_jsonl(&jsonl).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        match std::fs::write(out, chrome) {
            Ok(()) => println!("wrote Chrome trace-event span view to {out}\n"),
            Err(e) => fail(&format!("cannot write Chrome trace to {out}: {e}")),
        }
    }
    print!("{}", forensics.render(top));
}

/// One instrumented pass through the DSP + CNN hot path: synthesizes a
/// batch of clips, extracts spectrogram images through the planned
/// pipeline, classifies the first two one at a time with the f32 network,
/// then calibrates an int8 copy of the network on the batch and classifies
/// every clip in one batched int8 call — filling the `dsp.*`,
/// `cnn.forward`, `cnn.forward.int8` and `quant.batch.size` metrics.
fn in_vivo_dsp(telemetry: &Telemetry, seed: u64) {
    let mut rng = seeded_rng(seed ^ 0xD5B);
    let synth = BeeAudioSynth::default();
    let pipeline = MelPipeline::paper_default().with_telemetry(telemetry.clone());
    let cnn = ResNetLite::new(ResNetConfig::default()).with_telemetry(telemetry.clone());
    let clips: Vec<Vec<f64>> = (0..8)
        .map(|i| {
            let state = if i % 2 == 0 { ColonyState::Queenright } else { ColonyState::Queenless };
            synth.generate(state, 2.0, &mut rng)
        })
        .collect();
    let features: Vec<FeatureMap> = pipeline
        .images(&clips, 32)
        .iter()
        .map(|img| FeatureMap::from_image(img.width(), img.height(), img.pixels()))
        .collect();
    for f in &features[..2] {
        let _logits = cnn.forward(f);
    }
    let quantized =
        QuantizedResNetLite::quantize(&cnn, &features).with_telemetry(telemetry.clone());
    let mut scratch = QuantScratch::default();
    let _logits = quantized.forward_batch(&features, &mut scratch);
}

/// One instrumented day of the hive power system (solar harvest, battery
/// state of charge, brown-outs) plus the per-task cycle energy ledgers,
/// filling the `battery.*`, `harvest.*` and `energy.*` metrics and the
/// `battery.soc` event trajectory.
fn in_vivo_energy(telemetry: &Telemetry, seed: u64) {
    let mut rng = seeded_rng(seed ^ 0xE6E);
    let mut power = PowerSystem::with_telemetry(PowerSystemConfig::default(), telemetry.clone());
    let dt = Seconds(600.0);
    for _ in 0..144 {
        power.step(Watts(1.3), dt, &mut rng);
    }
    let routines = RoutineBuilder::deployed();
    routines
        .edge_cycle(ServiceKind::Cnn, CYCLE_PERIOD)
        .to_ledger()
        .publish_metrics(telemetry, "edge");
    routines.edge_cloud_cycle(CYCLE_PERIOD).to_ledger().publish_metrics(telemetry, "edge_cloud");
}

/// `pb serve` — runs the resident orchestration daemon until a client
/// sends the `shutdown` op, then prints the drain accounting (the
/// conservation line CI greps), the coalesce counter, and — with
/// `--metrics` / `--openmetrics` — the final telemetry.
fn serve(flags: &Args) {
    let defaults = ServeOptions::default();
    let queue = or_fail(flags.parse("queue", defaults.queue_capacity));
    let workers = or_fail(flags.parse("workers", defaults.workers));
    if queue == 0 {
        fail("--queue must be at least 1");
    }
    if workers == 0 {
        fail("--workers must be at least 1");
    }
    let metrics = or_fail(flags.parse("metrics", false));
    let openmetrics_path = or_fail(flags.value("openmetrics", "a file path"));
    let unix_path = or_fail(flags.value("unix", "a file path"));
    let listen = or_fail(flags.value("listen", "HOST:PORT")).unwrap_or("127.0.0.1:7631");
    let options = ServeOptions { queue_capacity: queue, workers, ..defaults };
    let telemetry = options.telemetry.clone();
    let handle = if let Some(path) = &unix_path {
        let h = serve_mod::spawn_unix(std::path::Path::new(path), options)
            .unwrap_or_else(|e| fail(&format!("cannot bind {path}: {e}")));
        println!("pb serve: listening on unix socket {path}");
        h
    } else {
        let h = serve_mod::spawn(listen, options)
            .unwrap_or_else(|e| fail(&format!("cannot bind {listen}: {e}")));
        println!("pb serve: listening on {}", h.addr());
        h
    };
    println!(
        "pb serve: queue capacity {queue}, {workers} worker(s); send \
         {{\"op\":\"shutdown\"}} to drain and stop"
    );
    let report = handle.wait();
    println!("{report}");
    println!("serve.coalesce.hits : {}", report.coalesced);
    println!(
        "serve requests      : {} executed for {} accepted ({} shed)",
        report.executed, report.accepted, report.shed
    );
    if metrics {
        println!("\ntelemetry metrics:");
        println!("{}", metrics_table(&telemetry.snapshot()).render());
    }
    if let Some(path) = openmetrics_path {
        match std::fs::write(path, openmetrics(&telemetry.snapshot())) {
            Ok(()) => println!("wrote OpenMetrics exposition to {path}"),
            Err(e) => fail(&format!("cannot write OpenMetrics to {path}: {e}")),
        }
    }
}

/// `pb call ENDPOINT JSON [--attempts N]` — one framed request to a
/// running daemon; shed responses are honored (sleep `retry_after_s`,
/// retry with an incremented `attempt`) up to the attempt budget.
fn call_cmd(argv: &[String]) {
    let Some(endpoint) = argv.first().filter(|a| !a.starts_with("--")) else {
        fail("call needs an endpoint: pb call HOST:PORT|SOCKET_PATH JSON [--attempts N]");
    };
    let Some(request) = argv.get(1).filter(|a| !a.starts_with("--")) else {
        fail("call needs a JSON request, e.g. '{\"op\":\"status\"}'");
    };
    let attempts = or_fail(args(&argv[2..], &["attempts"]).parse("attempts", 5usize));
    if attempts == 0 {
        fail("--attempts must be at least 1");
    }
    let mut client = ServeClient::connect_str(endpoint)
        .unwrap_or_else(|e| fail(&format!("cannot connect to {endpoint}: {e}")));
    match client.call_with_retry(request, u32::try_from(attempts).unwrap_or(u32::MAX)) {
        Ok(response) => println!("{response}"),
        Err(e) => fail(&format!("{endpoint}: {e}")),
    }
}

fn tune(flags: &Args) {
    let wh = or_fail(flags.parse("battery-wh", 100.0f64));
    if wh <= 0.0 || !wh.is_finite() {
        fail("--battery-wh must be a positive number of watt-hours");
    }
    let hive = SmartBeehive::deployed("cli", Seconds::from_minutes(10.0)).with_power_system(
        PowerSystemConfig {
            battery: Battery::new(WattHours(wh), 1.0),
            ..PowerSystemConfig::default()
        },
    );
    let tuner = FrequencyTuner::default();
    match tuner.fastest_sustainable(&hive) {
        Some(a) => {
            println!(
                "battery {wh} Wh → fastest sustainable period: {:.0} min",
                a.period.as_minutes()
            );
            println!(
                "  daily: {:.1} Wh demand vs {:.1} Wh budget; night: {:.1} Wh vs {:.1} Wh deliverable",
                a.daily_demand.to_watt_hours().value(),
                a.daily_budget.to_watt_hours().value(),
                a.night_demand.to_watt_hours().value(),
                a.night_budget.to_watt_hours().value(),
            );
            let queen = tuner.recommend(&hive, ServiceRequirement::queen_detection()).is_some();
            println!(
                "  queen detection (needs ≤ 5 min): {}",
                if queen { "supported" } else { "NOT supported" }
            );
        }
        None => println!(
            "battery {wh} Wh cannot sustain any candidate period — enlarge the panel or battery"
        ),
    }
}

fn alert(flags: &Args) {
    let accuracy = or_fail(flags.parse("accuracy", 0.99f64));
    if !(accuracy > 0.0 && accuracy <= 1.0) {
        fail("--accuracy must be in (0, 1]");
    }
    let k = or_fail(flags.parse("k", 3usize));
    if k == 0 {
        fail("--k must be at least 1");
    }
    let policy = AlertPolicy::new(k);
    let p_false = 1.0 - accuracy;
    let day = 288; // 5-minute cycles per day
    println!("classifier accuracy {accuracy}, alarm after {k} consecutive queenless readings:");
    println!(
        "  false alarm within a day : {:.4}%",
        policy.false_alarm_probability(p_false, day) * 100.0
    );
    println!(
        "  false alarm within a year: {:.2}%",
        policy.false_alarm_probability(p_false, day * 365) * 100.0
    );
    println!(
        "  expected detection delay : {:.1} cycles ({:.0} minutes at 5-minute cycles)",
        policy.expected_detection_delay(accuracy),
        policy.expected_detection_latency(accuracy, Seconds::from_minutes(5.0)).as_minutes(),
    );
}
