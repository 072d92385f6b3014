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

use precision_beekeeping::beehive::alert::AlertPolicy;
use precision_beekeeping::beehive::apiary::Apiary;
use precision_beekeeping::beehive::hive::SmartBeehive;
use precision_beekeeping::beehive::tuner::{FrequencyTuner, ServiceRequirement};
use precision_beekeeping::device::constants::CYCLE_PERIOD;
use precision_beekeeping::device::routine::{RoutineBuilder, ServiceKind};
use precision_beekeeping::energy::battery::Battery;
use precision_beekeeping::energy::harvest::{PowerSystem, PowerSystemConfig};
use precision_beekeeping::ml::{
    FeatureMap, QuantScratch, QuantizedResNetLite, ResNetConfig, ResNetLite,
};
use precision_beekeeping::orchestra::engine::{Backend, SimContext};
use precision_beekeeping::orchestra::faults::{FaultPlan, FaultStats};
use precision_beekeeping::orchestra::loss::LossModel;
use precision_beekeeping::orchestra::prelude::seeded_rng;
use precision_beekeeping::orchestra::presets;
use precision_beekeeping::orchestra::report::{metrics_table, publish_pool_metrics};
use precision_beekeeping::orchestra::sweep::{
    analyze_crossover, validate_client_count, SweepConfig,
};
use precision_beekeeping::orchestra::FillPolicy;
use precision_beekeeping::serve::{self as serve_mod, ServeClient, ServeOptions};
use precision_beekeeping::signal::audio::{BeeAudioSynth, ColonyState};
use precision_beekeeping::signal::pipeline::MelPipeline;
use precision_beekeeping::telemetry::export::{chrome_trace, chrome_trace_from_jsonl, openmetrics};
use precision_beekeeping::telemetry::{FlightRecorderSink, Forensics, Telemetry};
use precision_beekeeping::units::{Seconds, WattHours, Watts};
use std::collections::HashMap;

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
    // `trace` takes a positional file path, so it parses its own args.
    if command == "trace" {
        trace_cmd(rest);
        return;
    }
    // `call` takes a positional endpoint and request, likewise.
    if command == "call" {
        call_cmd(rest);
        return;
    }
    // Each command with the flag keys it reads; any other key is an error.
    let (run, keys): (fn(&HashMap<String, String>), &str) = match command {
        "tables" => (|_| tables(), ""),
        "recommend" => (recommend, "hives cap service losses backend"),
        "sweep" => (
            sweep,
            "backend cap from to step service losses seed metrics trace faults causal flight \
             chrome openmetrics",
        ),
        "serve" => (serve, "listen unix queue workers metrics openmetrics"),
        "tune" => (tune, "battery-wh"),
        "alert" => (alert, "accuracy k"),
        "help" => (|_| usage(), ""),
        other => {
            eprintln!("unknown command: {other}\n");
            usage();
            std::process::exit(2);
        }
    };
    run(&parse_flags(rest, keys));
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

/// Parses `--key [value]` pairs (a flag without a value maps to
/// `"true"`), failing on a key not named in the space-separated `keys` or
/// on a stray positional argument: a typo must not silently change the run.
fn parse_flags(args: &[String], keys: &str) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let Some(key) = arg.strip_prefix("--") else {
            fail(&format!("unexpected argument '{arg}'"));
        };
        if !keys.split_whitespace().any(|k| k == key) {
            fail(&format!("unknown flag --{key}"));
        }
        let value = match args.next_if(|v| !v.starts_with("--")) {
            Some(v) => v.clone(),
            None => "true".to_string(),
        };
        flags.insert(key.to_string(), value);
    }
    flags
}

/// Typed flag lookup: absent → default, present-but-unparsable → clean
/// error (a silent fallback would hand the user the wrong analysis).
fn get<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(raw) => {
            raw.parse().unwrap_or_else(|_| fail(&format!("--{key}: cannot parse '{raw}'")))
        }
    }
}

/// Prints an error and exits with status 2.
fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// A flag that must carry a file path when present.
fn path_flag(flags: &HashMap<String, String>, key: &str) -> Option<String> {
    match flags.get(key) {
        None => None,
        Some(p) if p == "true" => fail(&format!("--{key} needs a file path")),
        Some(p) => Some(p.clone()),
    }
}

fn service_of(flags: &HashMap<String, String>) -> ServiceKind {
    match flags.get("service").map(String::as_str) {
        Some("svm") => ServiceKind::Svm,
        Some("cnn-int8") => ServiceKind::CnnInt8,
        _ => ServiceKind::Cnn,
    }
}

fn tables() {
    let b = RoutineBuilder::deployed();
    for service in [ServiceKind::Svm, ServiceKind::Cnn, ServiceKind::CnnInt8] {
        println!("Scenario: Edge ({})", service.name());
        println!("{}\n", b.edge_cycle(service, CYCLE_PERIOD).to_ledger());
    }
    println!("Scenario: Edge+Cloud (edge side)");
    println!("{}", b.edge_cloud_cycle(CYCLE_PERIOD).to_ledger());
}

fn recommend(flags: &HashMap<String, String>) {
    let hives = get(flags, "hives", 5usize);
    let cap = get(flags, "cap", 10usize);
    if cap == 0 {
        fail("--cap must be at least 1 client per slot");
    }
    if hives == 0 {
        fail("--hives must be at least 1");
    }
    let service = service_of(flags);
    let losses = flags.contains_key("losses");
    let loss = if losses { LossModel::all() } else { LossModel::NONE };
    let backend: Backend = get(flags, "backend", Backend::ClosedForm);
    let rec = Apiary::new("cli", hives).recommend_with(backend, service, cap, loss);
    println!(
        "{} hives, {} service, {} clients/slot{}, {} backend:",
        hives,
        service.name(),
        cap,
        if losses { ", with losses" } else { "" },
        backend
    );
    println!("  edge       : {:.1} J per hive per cycle", rec.edge_per_hive.value());
    println!(
        "  edge+cloud : {:.1} J per hive per cycle ({} server(s))",
        rec.cloud_per_hive.value(),
        rec.servers_needed
    );
    println!("  recommend  : {}", rec.scenario.name());
}

fn sweep(flags: &HashMap<String, String>) {
    let cap = get(flags, "cap", 35usize);
    let from = get(flags, "from", 100usize);
    let to = get(flags, "to", 2000usize);
    let step = get(flags, "step", 100usize);
    let seed = get(flags, "seed", 0xF1E1Du64);
    let backend: Backend = get(flags, "backend", Backend::ClosedForm);
    if cap == 0 {
        fail("--cap must be at least 1 client per slot");
    }
    if step == 0 {
        fail("--step must be positive");
    }
    if to < from {
        fail("--to must be at least --from");
    }
    if let Err(e) = validate_client_count(to) {
        fail(&format!("--to: {e}"));
    }
    let service = service_of(flags);
    let losses = flags.contains_key("losses");
    let trace_path = flags.get("trace").cloned();
    if trace_path.as_deref() == Some("true") {
        fail("--trace needs a file path");
    }
    let metrics = flags.contains_key("metrics");
    let fault_plan: FaultPlan = match flags.get("faults") {
        None => FaultPlan::NONE,
        Some(raw) if raw == "true" => fail("--faults needs a spec ('mid' or key=value,…)"),
        Some(raw) => raw.parse().unwrap_or_else(|e: String| fail(&format!("--faults: {e}"))),
    };

    let causal = flags.contains_key("causal");
    let chrome_path = path_flag(flags, "chrome");
    let openmetrics_path = path_flag(flags, "openmetrics");
    let flight_path = match flags.get("flight") {
        Some(p) if p != "true" => p.clone(),
        _ => "pb-flight.jsonl".to_string(),
    };

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
    let flight = if !fault_plan.is_none() && !wants_events {
        Some(std::sync::Arc::new(
            FlightRecorderSink::new(4096).with_auto_dump(flight_path.clone(), 1),
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

    let config = SweepConfig {
        edge_client: presets::edge_client(service),
        cloud_client: presets::edge_cloud_client(),
        server: presets::cloud_server(service, cap),
        loss: if losses { LossModel::all() } else { LossModel::NONE },
        policy: FillPolicy::PackSlots,
        seed,
    };
    let ns: Vec<usize> = (from..=to).step_by(step).collect();
    let ctx = SimContext::with_telemetry(seed, telemetry.clone()).with_fault_plan(fault_plan);
    let points = config.run_with_context(&backend, &ns, &ctx);
    let crossover = analyze_crossover(&points);

    println!(
        "{} service, {}–{} clients (step {}), {} clients/slot{}, {} backend:",
        service.name(),
        from,
        to,
        step,
        cap,
        if losses { ", with losses" } else { "" },
        backend
    );
    if !fault_plan.is_none() {
        println!("  fault plan      : {fault_plan}");
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
    if !fault_plan.is_none() {
        let mut agg = FaultStats::default();
        let mut active = 0usize;
        for p in &points {
            let f = &p.cloud.faults;
            agg.attempts += f.attempts;
            agg.retries += f.retries;
            agg.fallbacks += f.fallbacks;
            agg.brownouts += f.brownouts;
            agg.sensor_dropouts += f.sensor_dropouts;
            agg.delivered += f.delivered;
            active += p.cloud.n_active;
        }
        println!(
            "  faults (cloud)  : {} attempts, {} retries, {} fallbacks \
             ({} brown-outs), {} sensor dropouts, {} delivered",
            agg.attempts,
            agg.retries,
            agg.fallbacks,
            agg.brownouts,
            agg.sensor_dropouts,
            agg.delivered
        );
        let accounted = agg.delivered + agg.fallbacks + agg.sensor_dropouts;
        let active = active as u64;
        println!(
            "  conservation    : delivered {} + fallbacks {} + dropouts {} == active {} ({})",
            agg.delivered,
            agg.fallbacks,
            agg.sensor_dropouts,
            active,
            if accounted == active { "ok" } else { "VIOLATED" }
        );
        // A broken conservation sum is an anomaly worth a post-mortem:
        // the event is a flight-recorder dump trigger.
        if accounted != active && telemetry.events_recording() {
            telemetry.event(
                0.0,
                "anomaly.conservation",
                vec![
                    ("delivered", agg.delivered.into()),
                    ("fallbacks", agg.fallbacks.into()),
                    ("dropouts", agg.sensor_dropouts.into()),
                    ("active", active.into()),
                ],
            );
        }
    }

    if telemetry.is_enabled() {
        in_vivo_dsp(&telemetry, seed);
        in_vivo_energy(&telemetry, seed);
    }
    if metrics {
        // Fold the thread pool's counters in so the table shows where
        // the sweep's parallelism actually went.
        publish_pool_metrics(&telemetry);
        println!("\ntelemetry metrics:");
        println!("{}", metrics_table(&telemetry.snapshot()).render());
    }
    if let Some(path) = trace_path {
        match telemetry.write_trace(&path) {
            Ok(n) => println!("wrote {n} trace events to {path}"),
            Err(e) => fail(&format!("cannot write trace to {path}: {e}")),
        }
    }
    if let Some(path) = chrome_path {
        match std::fs::write(&path, chrome_trace(&telemetry.events_sorted())) {
            Ok(()) => println!("wrote Chrome trace-event span view to {path}"),
            Err(e) => fail(&format!("cannot write Chrome trace to {path}: {e}")),
        }
    }
    if let Some(path) = openmetrics_path {
        match std::fs::write(&path, openmetrics(&telemetry.snapshot())) {
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
fn trace_cmd(args: &[String]) {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        fail("trace needs a JSONL file path: pb trace FILE [--top K] [--chrome FILE]");
    };
    let flags = parse_flags(&args[1..], "top chrome");
    let top = get(&flags, "top", 5usize);
    let jsonl =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let forensics = Forensics::from_jsonl(&jsonl).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    if let Some(out) = path_flag(&flags, "chrome") {
        let chrome =
            chrome_trace_from_jsonl(&jsonl).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        match std::fs::write(&out, chrome) {
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
fn serve(flags: &HashMap<String, String>) {
    let queue = get(flags, "queue", 64usize);
    let workers = get(flags, "workers", 2usize);
    if queue == 0 {
        fail("--queue must be at least 1");
    }
    if workers == 0 {
        fail("--workers must be at least 1");
    }
    let metrics = flags.contains_key("metrics");
    let openmetrics_path = path_flag(flags, "openmetrics");
    let unix_path = path_flag(flags, "unix");
    let listen = match flags.get("listen") {
        Some(a) if a == "true" => fail("--listen needs HOST:PORT"),
        Some(a) => a.clone(),
        None => "127.0.0.1:7631".to_string(),
    };
    let options = ServeOptions {
        queue_capacity: queue,
        workers,
        telemetry: Telemetry::metrics_only(),
        ..ServeOptions::default()
    };
    let telemetry = options.telemetry.clone();
    let handle = if let Some(path) = &unix_path {
        let h = serve_mod::spawn_unix(std::path::Path::new(path), options)
            .unwrap_or_else(|e| fail(&format!("cannot bind {path}: {e}")));
        println!("pb serve: listening on unix socket {path}");
        h
    } else {
        let h = serve_mod::spawn(&listen, options)
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
        match std::fs::write(&path, openmetrics(&telemetry.snapshot())) {
            Ok(()) => println!("wrote OpenMetrics exposition to {path}"),
            Err(e) => fail(&format!("cannot write OpenMetrics to {path}: {e}")),
        }
    }
}

/// `pb call ENDPOINT JSON [--attempts N]` — one framed request to a
/// running daemon; shed responses are honored (sleep `retry_after_s`,
/// retry with an incremented `attempt`) up to the attempt budget.
fn call_cmd(args: &[String]) {
    let Some(endpoint) = args.first().filter(|a| !a.starts_with("--")) else {
        fail("call needs an endpoint: pb call HOST:PORT|SOCKET_PATH JSON [--attempts N]");
    };
    let Some(request) = args.get(1).filter(|a| !a.starts_with("--")) else {
        fail("call needs a JSON request, e.g. '{\"op\":\"status\"}'");
    };
    let flags = parse_flags(&args[2..], "attempts");
    let attempts = get(&flags, "attempts", 5u32);
    if attempts == 0 {
        fail("--attempts must be at least 1");
    }
    let mut client = ServeClient::connect_str(endpoint)
        .unwrap_or_else(|e| fail(&format!("cannot connect to {endpoint}: {e}")));
    match client.call_with_retry(request, attempts) {
        Ok(response) => println!("{response}"),
        Err(e) => fail(&format!("{endpoint}: {e}")),
    }
}

fn tune(flags: &HashMap<String, String>) {
    let wh = get(flags, "battery-wh", 100.0f64);
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

fn alert(flags: &HashMap<String, String>) {
    let accuracy = get(flags, "accuracy", 0.99f64);
    if !(accuracy > 0.0 && accuracy <= 1.0) {
        fail("--accuracy must be in (0, 1]");
    }
    let k = get(flags, "k", 3usize);
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
