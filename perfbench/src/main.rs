//! The repository's benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_mix|sweep_scale|edge_infer> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: the workloads' rate and latency limit
//! are read from `BENCHMARK.json` there. With `--trace 0` the last
//! stdout line carries the end-to-end metrics (timed with tracing off);
//! with `--trace 1` it carries the per-layer metrics of a separate
//! traced run, whose layer table and tracing overhead are printed above
//! it. Every run checks its outputs; a failed check fails the run.
//!
//! Every workload reports every end-to-end metric, so each maps its own
//! user-visible figures onto five shared slots:
//!
//! ```text
//! slot              serve_mix                 sweep_scale               edge_infer
//! setup_s           daemon spawn→first reply  pool start + context      plan + quantize
//! rss_mb            median resident set size sampled between units of work
//! throughput_per_s  in-process replay req/s   10⁵ faulted DES clients/s clips/s, batch 8
//!                   (lower-quartile window)   with the flight recorder  (fastest batch)
//! p99_ms            replay service time       Fig. 7 sweep wall time    single clip, CPU time
//! slo_ratio         share of operations within the workload's limit=…ms
//! ```
//!
//! The host these figures were tuned on (a 2-vCPU guest on a shared
//! machine) runs the same code up to ~1.6× slower in some stretches
//! than in others, for seconds to minutes at a time. A median or a p90
//! lands on whichever phase held more of a run, so between runs it
//! jumps by the gap between the phases. The gated figures were chosen
//! for holding still across such runs: p99s, the replay's slow-quartile
//! rate, the fastest edge batch, and the mostly single-threaded recorded
//! sweep point. Medians, p90s and the other sweep rates still print on
//! the line before the result.
//!
//! The workloads' own names for these figures (`serve_rps`, `fig7_sweep_ms`,
//! `infer_p99_ms`, …) and the host provenance print on the line before
//! the result.

mod edge_infer;
mod gen;
mod host;
mod serve_mix;
mod stats;
mod sweep_scale;
mod trace;

use precision_beekeeping::telemetry::json::{self, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics every workload reports, as (name, unit). Each
/// workload maps its own user-visible figures onto these slots.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("p99_ms", "ms"),
    ("slo_ratio", "ratio"),
];

/// Per-layer metrics of the traced run, as (name, unit). A layer a
/// workload never enters reads 0 on that workload.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("frame.codec_us", "us"),
    ("protocol.parse_us", "us"),
    ("protocol.render_us", "us"),
    ("server.exec_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.handoff_ms", "ms"),
    ("server.coalesce_ratio", "ratio"),
    ("server.shed_ratio", "ratio"),
    ("server.executed", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("loadgen.lateness_p50_ms", "ms"),
    ("loadgen.lateness_p99_ms", "ms"),
    ("allocator.allocate_us", "us"),
    ("des.server_ns_per_client", "ns"),
    ("des.fastpath.replayed", "count"),
    ("des.faulted_clients_per_s", "1/s"),
    ("des.recorded_clients_per_s", "1/s"),
    ("faults.delivered_per_attempt", "ratio"),
    ("faults.retries", "count"),
    ("telemetry.recorder_overhead_ms", "ms"),
    ("telemetry.exact_loop_ms", "ms"),
    ("telemetry.sink_ms", "ms"),
    ("telemetry.recorder_events", "count"),
    ("rayon.speedup", "x"),
    ("pool.jobs", "count"),
    ("pool.steals", "count"),
    ("engine.closed_form_ns_per_point", "ns"),
    ("engine.timeline_ns_per_point", "ns"),
    ("signal.mel_ms", "ms"),
    ("signal.image_ms", "ms"),
    ("ml.int8_forward_ms", "ms"),
    ("ml.int8_forward_batch_ms", "ms"),
    ("ml.int8_macs", "count"),
    ("ml.quantize_ms", "ms"),
    ("residual_share", "ratio"),
];

/// Traced-over-untraced median ratio minus one; reported beside the
/// per-layer table (and as the last per-layer metric).
pub const OVERHEAD_METRIC: (&str, &str) = ("tracing_overhead_ratio", "ratio");

/// One run's settings.
pub struct Cfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Open-loop request rate (serve_mix), from `BENCHMARK.json`.
    pub rate: Option<f64>,
    /// Latency limit of `slo_ratio`, from `BENCHMARK.json`.
    pub limit_ms: f64,
    /// Where traces and post-mortems go.
    pub out_dir: PathBuf,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub failures: Vec<String>,
    /// The run is invalid (e.g. the load generator fell behind).
    pub invalid: Vec<String>,
    /// End-to-end slot values (untraced run).
    pub e2e: BTreeMap<&'static str, f64>,
    /// The workload's own named figures, with units.
    pub named: Vec<(String, f64, String)>,
    /// Per-layer values (traced run).
    pub layers: BTreeMap<&'static str, f64>,
    /// Resident set size (MB) sampled between units of work; the
    /// `rss_mb` metric is their median.
    pub rss: Vec<f64>,
    /// Human-readable report lines.
    pub report: Vec<String>,
    /// Spans of the traced run.
    pub tracer: Option<trace::Tracer>,
}

impl Outcome {
    /// Records a failed check; it fails the run and counts one failed
    /// operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.failures.push(what.into());
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &str) {
        self.named.push((name.to_string(), value, unit.to_string()));
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <serve_mix|sweep_scale|edge_infer> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

/// The `key=value` token in a workload's `why` line, e.g. `rate=800/s`.
fn why_token(why: &str, key: &str) -> Option<f64> {
    let start = why.find(&format!("{key}="))? + key.len() + 1;
    let num: String =
        why[start..].chars().take_while(|c| c.is_ascii_digit() || *c == '.').collect();
    num.parse().ok()
}

/// Reads the workload's `why` line from `BENCHMARK.json`.
fn workload_why(workload: &str) -> Result<String, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Json::Arr(ws)) = doc.get("workloads") else {
        return Err("BENCHMARK.json has no workloads".to_string());
    };
    ws.iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))
        .and_then(|w| w.get("why").and_then(Json::as_str))
        .map(str::to_string)
        .ok_or_else(|| format!("workload `{workload}` is not in BENCHMARK.json"))
}

fn parse_args() -> Cfg {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let Some(key) = k.strip_prefix("--") else { usage() };
        let Some(v) = it.next() else { usage() };
        map.insert(key.to_string(), v.clone());
    }
    let get = |k: &str| map.get(k).cloned().unwrap_or_else(|| usage());
    let workload = get("workload");
    let why = workload_why(&workload).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    });
    let limit_ms = why_token(&why, "limit").unwrap_or_else(|| {
        eprintln!("error: the `why` of {workload} in BENCHMARK.json states no limit=<ms>");
        std::process::exit(2)
    });
    Cfg {
        seed: get("seed").parse().unwrap_or_else(|_| usage()),
        seconds: get("seconds").parse().unwrap_or_else(|_| usage()),
        traced: match get("trace").as_str() {
            "0" => false,
            "1" => true,
            _ => usage(),
        },
        rate: why_token(&why, "rate"),
        limit_ms,
        out_dir: PathBuf::from("perfbench/out"),
        workload,
    }
}

/// A JSON number; non-finite values have no JSON spelling.
fn num(v: f64) -> Option<String> {
    v.is_finite().then(|| format!("{v}"))
}

fn metrics_json(values: &[(&str, f64, &str)]) -> Option<String> {
    let mut parts = Vec::new();
    for (name, v, unit) in values {
        parts.push(format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*v)?));
    }
    Some(format!("{{{}}}", parts.join(",")))
}

fn main() {
    let cfg = parse_args();
    let ticks = host::cpu_ticks();
    // Spans and the flight recorder's post-mortems land here.
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("error: cannot create {}: {e}", cfg.out_dir.display());
        std::process::exit(2);
    }
    let mut out = match cfg.workload.as_str() {
        "serve_mix" => serve_mix::run(&cfg),
        "sweep_scale" => sweep_scale::run(&cfg),
        "edge_infer" => edge_infer::run(&cfg),
        other => {
            eprintln!("error: unknown workload `{other}`");
            std::process::exit(2)
        }
    };
    if out.rss.is_empty() {
        out.rss.push(host::rss_mb());
    }
    out.e2e.insert("rss_mb", stats::median(&out.rss));
    out.named("peak_rss_mb", host::peak_rss_mb(), "MB");

    if let Some(t) = &out.tracer {
        let path = cfg.out_dir.join(format!("{}-seed{}.trace.jsonl", cfg.workload, cfg.seed));
        match t.write_jsonl(&path) {
            Ok(()) => out.report.push(format!("spans written to {}", path.display())),
            Err(e) => out.fail(format!("cannot write spans to {}: {e}", path.display())),
        }
    }
    let values: Vec<(&str, f64, &str)> = if cfg.traced {
        PER_LAYER
            .iter()
            .chain(std::iter::once(&OVERHEAD_METRIC))
            .map(|&(n, u)| (n, out.layers.get(n).copied().unwrap_or(0.0), u))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n, out.e2e.get(n).copied().unwrap_or(f64::NAN), u))
            .collect()
    };
    let metrics = metrics_json(&values);
    if metrics.is_none() {
        out.failures.push("a metric was not measured or is not a finite number".to_string());
    }
    if out.attempted == 0 {
        out.failures.push("no operation was attempted".to_string());
    }

    for line in &out.report {
        println!("{line}");
    }
    for f in &out.failures {
        println!("CHECK FAILED: {f}");
    }
    for f in &out.invalid {
        println!("RUN INVALID: {f}");
    }
    let named: Vec<String> = out
        .named
        .iter()
        .filter_map(|(n, v, u)| {
            Some(format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)?))
        })
        .collect();
    println!(
        "{{\"provenance\":{},\"named\":{{{}}},\"invalid\":{}}}",
        host::provenance(&cfg, ticks),
        named.join(","),
        !out.invalid.is_empty()
    );
    let correct = out.failures.is_empty() && out.invalid.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.attempted.max(1),
        out.failed,
        metrics.unwrap_or_else(|| "{}".to_string())
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn why_tokens_parse() {
        let why = "daemon mix; open loop rate=800/s, limit=5ms";
        assert_eq!(why_token(why, "rate"), Some(800.0));
        assert_eq!(why_token(why, "limit"), Some(5.0));
        assert_eq!(why_token("limit=2.5ms", "limit"), Some(2.5));
        assert_eq!(why_token(why, "absent"), None);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.0).collect();
        names.push(OVERHEAD_METRIC.0);
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
