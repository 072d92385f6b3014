//! Request grammar, canonical coalescing keys, and response rendering.
//!
//! A request is one JSON object per frame. The `op` field selects the
//! operation; every other field is optional. Each op's fields, with
//! their kinds and defaults, are declared once in a field table below,
//! and both front ends read requests through it: [`parse_request`] reads
//! the daemon's JSON, and `from_args` (e.g. [`SweepRequest::from_args`])
//! reads `pb`'s `--key [value]` arguments. `{"op":"sweep"}` therefore
//! prices exactly the sweep `pb sweep` prices, and a field an op does
//! not read is an error on either side:
//!
//! ```text
//! {"op":"sweep","backend":"des","cap":35,"from":100,"to":2000,
//!  "step":100,"service":"cnn","losses":true,"faults":"mid",
//!  "seed":"990749"}
//! {"op":"plan","clients":630,"cap_from":1,"cap_to":60}
//! {"op":"recommend","hives":630,"cap":35}
//! {"op":"montecarlo","clients":200,"replications":32,"cap":10}
//! {"op":"features","colony":"queenless","duration_s":2,"seed":"7"}
//! {"op":"status"}   {"op":"shutdown"}
//! ```
//!
//! Seeds may arrive as a JSON integer (exact up to 2⁵³) or as a decimal
//! or `0x…` string (exact over the full u64 range). An optional
//! `attempt` field (≥ 1, default 1), allowed on every op, feeds the
//! shed-response backoff and is deliberately **excluded** from the
//! coalescing key: retries of the same work must coalesce with the
//! original.
//!
//! [`Request::canonical`] renders the fully-defaulted request back to a
//! canonical JSON string in field-table order — that string *is* the
//! coalescing key, so two requests coalesce exactly when they denote the
//! same computation, regardless of field order, formatting, front end,
//! or how the seed was spelled.
//!
//! Responses are one JSON object per frame, `status` first:
//!
//! * `{"status":"ok","op":…,"body":{…}}` — the result;
//! * `{"status":"error","error":"…"}` — the request was malformed or
//!   invalid (the stream stays usable);
//! * `{"status":"shed","retry_after_s":…,"attempt":…,"queue_depth":…}`
//!   — the admission queue was full; retry after the given delay.
//!
//! All floats are rendered with Rust's shortest-round-trip `Display`,
//! which makes response bytes a faithful function of the result bits —
//! the property the bit-identity tests in `tests/serve_protocol.rs`
//! pin.

use std::fmt::Write as _;

use crate::orchestra::engine::Backend;
use crate::orchestra::faults::{FaultPlan, FaultStats};
use crate::orchestra::montecarlo::CiPoint;
use crate::orchestra::planner::CapacityPlan;
use crate::orchestra::sweep::{analyze_crossover, validate_client_count, ComparisonPoint};
use crate::orchestra::ServiceKind;
use crate::signal::audio::ColonyState;
use crate::telemetry::json::{self, Json};
use pb_beehive::apiary::ScenarioRecommendation;

/// Upper bound on Monte-Carlo replications per request — enough for a
/// tight CI, small enough that one request cannot monopolize the pool.
pub const MAX_REPLICATIONS: usize = 100_000;

/// Default master seed of sweeps and Monte-Carlo intervals.
pub const DEFAULT_SEED: u64 = 0xF1E1D;

// ---------------------------------------------------------------------
// Field tables
// ---------------------------------------------------------------------

/// Declares one op's request struct from its field table. Each line
/// gives a field's name (its JSON key and its `--flag`), its kind (the
/// Rust type, read and rendered through [`Kind`]) and its default; the
/// line order is the canonical order. `check` states the bounds no
/// default can express. Both front ends read the struct through the
/// generated [`Fields`] impl.
macro_rules! request {
    (
        $(#[$doc:meta])*
        $name:ident = $op:literal {
            $($(#[$field_doc:meta])* $field:ident: $ty:ty = $default:expr,)*
        }
        check |$r:ident| $check:block
    ) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq)]
        pub struct $name {
            $($(#[$field_doc])* pub $field: $ty,)*
        }

        impl $name {
            /// Reads this op's request from `--key [value]` command-line
            /// arguments through the same field table and bounds as
            /// [`parse_request`]. The keys in `observe` are accepted too
            /// and returned in [`Args`], outside the request.
            pub fn from_args(argv: &[String], observe: &[&str]) -> Result<($name, Args), String> {
                from_args(argv, observe)
            }
        }

        impl Fields for $name {
            const OP: &'static str = $op;
            const KEYS: &'static [&'static str] = &[$(stringify!($field)),*];
            const DEFAULT: $name = $name { $($field: $default,)* };

            fn set(&mut self, key: &str, value: &Json) -> Result<bool, String> {
                match key {
                    $(stringify!($field) => self.$field = Kind::read(key, value)?,)*
                    _ => return Ok(false),
                }
                Ok(true)
            }

            fn write(&self, out: &mut String) {
                $(
                    out.push_str(concat!(",\"", stringify!($field), "\":"));
                    self.$field.write(out);
                )*
            }

            fn check(&self) -> Result<(), String> {
                let $r = self;
                $check
            }
        }
    };
}

/// A request struct declared by `request!`.
trait Fields: Copy {
    /// The `op` name.
    const OP: &'static str;
    /// Every field name, in canonical order.
    const KEYS: &'static [&'static str];
    /// The request with every field at its default.
    const DEFAULT: Self;
    /// Sets field `key` from `value`; `Ok(false)` if the op has no such field.
    fn set(&mut self, key: &str, value: &Json) -> Result<bool, String>;
    /// Appends `,"key":value` for every field, in canonical order.
    fn write(&self, out: &mut String);
    /// Checks the bounds.
    fn check(&self) -> Result<(), String>;
}

const CAP_BOUND: &str = "`cap` must be at least 1 client per slot";

fn ensure(holds: bool, message: &str) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(message.to_string())
    }
}

/// A population field must stay within the engine's seed-derivation limit.
fn population(key: &str, n: usize) -> Result<(), String> {
    validate_client_count(n).map_err(|e| format!("`{key}`: {e}"))
}

request! {
    /// A population sweep (the paper's Fig. 7): `pb sweep` or `op` sweep.
    SweepRequest = "sweep" {
        /// Evaluation backend.
        backend: Backend = Backend::ClosedForm,
        /// Service the clients run.
        service: ServiceKind = ServiceKind::Cnn,
        /// Clients allowed in parallel per slot.
        cap: usize = 35,
        /// First population.
        from: usize = 100,
        /// Last population.
        to: usize = 2000,
        /// Population step.
        step: usize = 100,
        /// Master seed.
        seed: u64 = DEFAULT_SEED,
        /// Apply the paper's loss models.
        losses: bool = false,
        /// Deterministic fault plan.
        faults: FaultPlan = FaultPlan::NONE,
    }
    check |r| {
        ensure(r.cap >= 1, CAP_BOUND)?;
        ensure(r.step >= 1, "`step` must be positive")?;
        ensure(r.from >= 1, "`from` must be at least 1")?;
        ensure(r.to >= r.from, "`to` must be at least `from`")?;
        population("to", r.to)
    }
}

request! {
    /// A slot-capacity plan over a range of capacities.
    PlanRequest = "plan" {
        /// Fixed population to plan for.
        clients: usize = 630,
        /// Smallest capacity evaluated.
        cap_from: usize = 1,
        /// Largest capacity evaluated.
        cap_to: usize = 60,
        /// Service the clients run.
        service: ServiceKind = ServiceKind::Cnn,
        /// Apply the paper's loss models.
        losses: bool = false,
        /// Master seed.
        seed: u64 = 1,
    }
    check |r| {
        ensure(r.clients >= 1, "`clients` must be at least 1")?;
        ensure(r.cap_from >= 1, "`cap_from` must be at least 1")?;
        ensure(r.cap_to >= r.cap_from, "`cap_to` must be at least `cap_from`")?;
        ensure(r.cap_to - r.cap_from < 10_000, "capacity range too wide (max 10000 settings)")?;
        population("clients", r.clients)
    }
}

request! {
    /// An apiary placement recommendation: `pb recommend` or `op`
    /// recommend.
    RecommendRequest = "recommend" {
        /// Evaluation backend.
        backend: Backend = Backend::ClosedForm,
        /// Apiary size.
        hives: usize = 5,
        /// Clients allowed in parallel per slot.
        cap: usize = 10,
        /// Service the hives run.
        service: ServiceKind = ServiceKind::Cnn,
        /// Apply the paper's loss models.
        losses: bool = false,
    }
    check |r| {
        ensure(r.hives >= 1, "`hives` must be at least 1")?;
        ensure(r.cap >= 1, CAP_BOUND)?;
        population("hives", r.hives)
    }
}

request! {
    /// A Monte-Carlo confidence interval at one population.
    MonteCarloRequest = "montecarlo" {
        /// Population size.
        clients: usize = 200,
        /// Independent replications (≥ 2).
        replications: usize = 32,
        /// Clients allowed in parallel per slot.
        cap: usize = 10,
        /// Service the clients run.
        service: ServiceKind = ServiceKind::Cnn,
        /// Apply the paper's loss models.
        losses: bool = true,
        /// Master seed.
        seed: u64 = DEFAULT_SEED,
    }
    check |r| {
        ensure(r.clients >= 1, "`clients` must be at least 1")?;
        ensure(r.replications >= 2, "`replications` must be at least 2")?;
        if r.replications > MAX_REPLICATIONS {
            return Err(format!("`replications` must be at most {MAX_REPLICATIONS}"));
        }
        ensure(r.cap >= 1, CAP_BOUND)?;
        population("clients", r.clients)
    }
}

request! {
    /// Mel band means of a synthesized clip through the daemon's shared
    /// planned [`crate::signal::pipeline::MelPipeline`].
    FeaturesRequest = "features" {
        /// Ground-truth colony condition of the synthesized clip.
        colony: ColonyState = ColonyState::Queenright,
        /// Synthesis seed.
        seed: u64 = 1,
        /// Clip duration in seconds (0 < d ≤ 30).
        duration_s: f64 = 2.0,
    }
    check |r| {
        let d = r.duration_s;
        ensure(d > 0.0 && d <= 30.0 && d.is_finite(), "`duration_s` must be in (0, 30]")
    }
}

/// One parsed, validated, fully-defaulted request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Request {
    /// Population sweep.
    Sweep(SweepRequest),
    /// Slot-capacity plan.
    Plan(PlanRequest),
    /// Apiary recommendation.
    Recommend(RecommendRequest),
    /// Monte-Carlo confidence interval.
    MonteCarlo(MonteCarloRequest),
    /// DSP feature extraction through the shared pipeline.
    Features(FeaturesRequest),
    /// Daemon counters and queue state.
    Status,
    /// Graceful drain: finish everything queued, then stop.
    Shutdown,
}

/// A request plus its transport-level `attempt` counter (not part of
/// the coalescing key).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Envelope {
    /// The operation to execute.
    pub request: Request,
    /// Which attempt this is (1 = first try); echoed in shed responses
    /// and fed to the retry-after backoff schedule.
    pub attempt: u32,
}

impl Request {
    /// The operation name, as it appears in `op` fields and per-op
    /// telemetry histogram names (`serve.request.<op>`).
    pub fn op(&self) -> &'static str {
        match self {
            Request::Sweep(_) => SweepRequest::OP,
            Request::Plan(_) => PlanRequest::OP,
            Request::Recommend(_) => RecommendRequest::OP,
            Request::MonteCarlo(_) => MonteCarloRequest::OP,
            Request::Features(_) => FeaturesRequest::OP,
            Request::Status => "status",
            Request::Shutdown => "shutdown",
        }
    }

    /// The canonical form: the fully-defaulted request as JSON in
    /// field-table order. Two requests are coalesced exactly when their
    /// canonical forms are byte-equal.
    pub fn canonical(&self) -> String {
        let mut s = String::with_capacity(160);
        s.push_str("{\"op\":\"");
        s.push_str(self.op());
        s.push('"');
        match self {
            Request::Sweep(r) => r.write(&mut s),
            Request::Plan(r) => r.write(&mut s),
            Request::Recommend(r) => r.write(&mut s),
            Request::MonteCarlo(r) => r.write(&mut s),
            Request::Features(r) => r.write(&mut s),
            Request::Status | Request::Shutdown => {}
        }
        s.push('}');
        s
    }
}

// ---------------------------------------------------------------------
// Field kinds
// ---------------------------------------------------------------------

/// 2⁵³: the integers below it are exact in a JSON number, and it is
/// the first that is not told apart from its successor (2⁵³ + 1 reads
/// as 2⁵³).
const EXACT_LIMIT: u64 = 1 << 53;

/// Whether a JSON number is an exact non-negative integer (below 2⁵³).
fn is_exact_integer(n: f64) -> bool {
    n.fract() == 0.0 && (0.0..EXACT_LIMIT as f64).contains(&n)
}

/// A field kind: how a value is read from a request (command-line
/// values arrive as the JSON values they spell) and rendered into the
/// canonical form.
pub trait Kind: Sized {
    /// Reads field `key` from its value.
    fn read(key: &str, v: &Json) -> Result<Self, String>;
    /// Appends the canonical JSON spelling.
    fn write(&self, out: &mut String);
}

/// A count: an exact non-negative integer.
impl Kind for usize {
    fn read(key: &str, v: &Json) -> Result<usize, String> {
        let n = v.as_f64().ok_or_else(|| format!("`{key}` must be a number"))?;
        if !is_exact_integer(n) {
            return Err(format!("`{key}` must be a non-negative integer below 2^53, got {n}"));
        }
        Ok(n as usize)
    }
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

/// A seed: an integer (below 2⁵³), or a decimal or `0x…` string
/// (exact over the full u64 range); rendered as a string.
impl Kind for u64 {
    fn read(key: &str, v: &Json) -> Result<u64, String> {
        if let Some(s) = v.as_str() {
            let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse::<u64>(),
            };
            return parsed.map_err(|_| format!("`{key}` string must be a decimal or 0x… u64"));
        }
        let n = v.as_f64().ok_or_else(|| format!("`{key}` must be a number or string"))?;
        if !is_exact_integer(n) {
            return Err(format!(
                "`{key}` number must be a non-negative integer below 2^53 (use a string for \
                 larger seeds)"
            ));
        }
        Ok(n as u64)
    }
    fn write(&self, out: &mut String) {
        let _ = write!(out, "\"{self}\"");
    }
}

impl Kind for f64 {
    fn read(key: &str, v: &Json) -> Result<f64, String> {
        v.as_f64().ok_or_else(|| format!("`{key}` must be a number"))
    }
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl Kind for bool {
    fn read(key: &str, v: &Json) -> Result<bool, String> {
        match v {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("`{key}` must be a boolean")),
        }
    }
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl Kind for ServiceKind {
    fn read(key: &str, v: &Json) -> Result<ServiceKind, String> {
        match v.as_str() {
            Some("svm") => Ok(ServiceKind::Svm),
            Some("cnn") => Ok(ServiceKind::Cnn),
            Some("cnn-int8") => Ok(ServiceKind::CnnInt8),
            _ => Err(format!("`{key}` must be \"svm\", \"cnn\" or \"cnn-int8\"")),
        }
    }
    /// The token [`Kind::read`] accepts, so canonical forms re-parse to
    /// themselves (unlike the display-cased `ServiceKind::name`).
    fn write(&self, out: &mut String) {
        out.push_str(match self {
            ServiceKind::Svm => "\"svm\"",
            ServiceKind::Cnn => "\"cnn\"",
            ServiceKind::CnnInt8 => "\"cnn-int8\"",
        });
    }
}

impl Kind for Backend {
    fn read(key: &str, v: &Json) -> Result<Backend, String> {
        let s = v.as_str().ok_or_else(|| format!("`{key}` must be a string"))?;
        s.parse().map_err(|e| format!("`{key}`: {e}"))
    }
    fn write(&self, out: &mut String) {
        let _ = write!(out, "\"{self}\"");
    }
}

/// A fault plan: `none`, `mid` or a `key=value,…` spec.
impl Kind for FaultPlan {
    fn read(key: &str, v: &Json) -> Result<FaultPlan, String> {
        let s = v.as_str().ok_or_else(|| format!("`{key}` must be a spec string"))?;
        s.parse().map_err(|e| format!("`{key}`: {e}"))
    }
    fn write(&self, out: &mut String) {
        let _ = write!(out, "\"{self}\"");
    }
}

impl Kind for ColonyState {
    fn read(key: &str, v: &Json) -> Result<ColonyState, String> {
        match v.as_str() {
            Some("queenright") => Ok(ColonyState::Queenright),
            Some("queenless") => Ok(ColonyState::Queenless),
            _ => Err(format!("`{key}` must be \"queenright\" or \"queenless\"")),
        }
    }
    fn write(&self, out: &mut String) {
        let _ = write!(out, "\"{}\"", colony_name(*self));
    }
}

fn colony_name(c: ColonyState) -> &'static str {
    match c {
        ColonyState::Queenright => "queenright",
        ColonyState::Queenless => "queenless",
    }
}

/// Fills an op's request from `(key, value)` pairs through its field
/// table, then checks its bounds. A key the op does not read is an error.
fn read<'a, R: Fields>(pairs: impl Iterator<Item = (&'a str, &'a Json)>) -> Result<R, String> {
    let mut request = R::DEFAULT;
    for (key, value) in pairs {
        if !request.set(key, value)? {
            return Err(format!("unknown field `{key}` for op {}", R::OP));
        }
    }
    request.check()?;
    Ok(request)
}

// ---------------------------------------------------------------------
// The JSON front end
// ---------------------------------------------------------------------

/// Parses and validates one request frame's JSON text.
///
/// Every error is a human-readable message destined for a structured
/// `{"status":"error"}` reply — parsing never panics, whatever the
/// bytes.
pub fn parse_request(text: &str) -> Result<Envelope, String> {
    let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let Json::Obj(members) = &doc else {
        return Err("request must be a JSON object".to_string());
    };
    let attempt = match doc.get("attempt").map(Json::as_f64) {
        None => 1,
        Some(Some(a)) if a.fract() == 0.0 && (1.0..=1e6).contains(&a) => a as u32,
        Some(_) => return Err("`attempt` must be an integer ≥ 1".to_string()),
    };
    let op = doc.get("op").ok_or("missing `op` field")?.as_str().ok_or("`op` must be a string")?;
    // Set last to first, so the first of duplicate keys wins, as it
    // does for `op` and `attempt` through `Json::get`.
    let mut fields = members
        .iter()
        .rev()
        .filter(|(key, _)| key != "op" && key != "attempt")
        .map(|(key, value)| (key.as_str(), value));
    let request = match op {
        SweepRequest::OP => Request::Sweep(read(fields)?),
        PlanRequest::OP => Request::Plan(read(fields)?),
        RecommendRequest::OP => Request::Recommend(read(fields)?),
        MonteCarloRequest::OP => Request::MonteCarlo(read(fields)?),
        FeaturesRequest::OP => Request::Features(read(fields)?),
        "status" | "shutdown" => match fields.next() {
            Some((key, _)) => return Err(format!("unknown field `{key}` for op {op}")),
            None if op == "status" => Request::Status,
            None => Request::Shutdown,
        },
        other => {
            return Err(format!(
                "unknown op `{other}` (expected sweep, plan, recommend, montecarlo, \
                 features, status or shutdown)"
            ))
        }
    };
    Ok(Envelope { request, attempt })
}

// ---------------------------------------------------------------------
// The command-line front end
// ---------------------------------------------------------------------

/// Command-line `--key [value]` arguments.
#[derive(Clone, Debug)]
pub struct Args(Vec<(String, Option<String>)>);

impl Args {
    /// Reads `--key [value]` pairs (a value is the next argument unless
    /// it starts with `--`). A key not in `keys`, or a stray positional
    /// argument, is an error: a typo must not silently change the run.
    pub fn read(argv: &[String], keys: &[&str]) -> Result<Args, String> {
        let mut pairs = Vec::new();
        let mut argv = argv.iter().peekable();
        while let Some(arg) = argv.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument '{arg}'"));
            };
            if !keys.contains(&key) {
                return Err(format!("unknown flag --{key}"));
            }
            pairs.push((key.to_string(), argv.next_if(|v| !v.starts_with("--")).cloned()));
        }
        Ok(Args(pairs))
    }

    /// The last `--key` given: `None` if absent, `Some(None)` if given
    /// without a value.
    pub fn get(&self, key: &str) -> Option<Option<&str>> {
        self.0.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_deref())
    }

    /// A value that must be given when the flag is: `--key` alone is an
    /// error naming `what` it needs.
    pub fn value(&self, key: &str, what: &str) -> Result<Option<&str>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(None) => Err(format!("--{key} needs {what}")),
            Some(v) => Ok(v),
        }
    }

    /// The flag's value read like a request field of its kind, or
    /// `default` if the flag is absent (a bare `--key` is `true`).
    pub fn parse<T: Kind>(&self, key: &str, default: T) -> Result<T, String> {
        self.get(key).map_or(Ok(default), |v| T::read(key, &arg_value(v)).map_err(as_flags))
    }
}

/// The JSON value a command-line value spells: a bare flag and `true` /
/// `false` are booleans, a number JSON carries exactly is a number, and
/// anything else is a string — so `--cap 35`, `--losses`, `--service
/// svm` and `--seed 0x10` read exactly as their JSON fields do.
fn arg_value(text: Option<&str>) -> Json {
    let Some(s) = text else { return Json::Bool(true) };
    match (s, s.parse::<u64>(), s.parse::<f64>()) {
        ("true" | "false", _, _) => Json::Bool(s == "true"),
        (_, Ok(n), _) if n < EXACT_LIMIT => Json::Num(n as f64),
        (_, Err(_), Ok(x)) if x.is_finite() => Json::Num(x),
        _ => Json::Str(s.to_string()),
    }
}

/// Respells a message's `` `field` `` names as the `--field` flags the
/// command line reads.
fn as_flags(message: String) -> String {
    let mut out = String::with_capacity(message.len() + 8);
    for (i, part) in message.split('`').enumerate() {
        if i % 2 == 1 {
            out.push_str("--");
        }
        out.push_str(part);
    }
    out
}

/// Reads an op's request from `--key [value]` arguments: its own keys
/// fill the request through the field table, the `observe` keys are
/// only accepted.
fn from_args<R: Fields>(argv: &[String], observe: &[&str]) -> Result<(R, Args), String> {
    let keys: Vec<&str> = R::KEYS.iter().chain(observe).copied().collect();
    let args = Args::read(argv, &keys)?;
    let fields: Vec<(&str, Json)> = args
        .0
        .iter()
        .filter(|(key, _)| !observe.contains(&key.as_str()))
        .map(|(key, value)| (key.as_str(), arg_value(value.as_deref())))
        .collect();
    let request = read(fields.iter().map(|(key, value)| (*key, value))).map_err(as_flags)?;
    Ok((request, args))
}

// ---------------------------------------------------------------------
// Response rendering
// ---------------------------------------------------------------------

/// Wraps a rendered body object into the `ok` response envelope.
pub fn ok_response(op: &str, body: &str) -> String {
    format!("{{\"status\":\"ok\",\"op\":\"{op}\",\"body\":{body}}}")
}

/// A structured error reply; the stream stays usable afterwards.
pub fn error_response(message: &str) -> String {
    format!("{{\"status\":\"error\",\"error\":{}}}", json::escape(message))
}

/// A load-shed reply carrying the retry-after delay (seconds) the
/// [`crate::orchestra::faults::RetryPolicy`] schedule prescribes for
/// this attempt.
pub fn shed_response(retry_after_s: f64, attempt: u32, queue_depth: usize) -> String {
    format!(
        "{{\"status\":\"shed\",\"retry_after_s\":{retry_after_s},\"attempt\":{attempt},\
         \"queue_depth\":{queue_depth}}}"
    )
}

fn push_opt_usize(s: &mut String, v: Option<usize>) {
    match v {
        Some(n) => s.push_str(&n.to_string()),
        None => s.push_str("null"),
    }
}

/// The cloud-side fault counters of a sweep summed over its points, with
/// the clients that ran: the aggregate both front ends report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultTotals {
    /// The summed counters.
    pub stats: FaultStats,
    /// Active clients over every point.
    pub active: u64,
}

impl FaultTotals {
    /// Sums the cloud-side fault counters and active clients of `points`.
    pub fn of(points: &[ComparisonPoint]) -> FaultTotals {
        let mut t = FaultTotals::default();
        for p in points {
            let f = &p.cloud.faults;
            t.stats.attempts += f.attempts;
            t.stats.retries += f.retries;
            t.stats.fallbacks += f.fallbacks;
            t.stats.brownouts += f.brownouts;
            t.stats.sensor_dropouts += f.sensor_dropouts;
            t.stats.delivered += f.delivered;
            t.active += p.cloud.n_active as u64;
        }
        t
    }

    /// Conservation: every active client's sample was delivered, fell
    /// back to the edge, or was lost to a sensor dropout.
    pub fn conserved(&self) -> bool {
        let f = &self.stats;
        f.delivered + f.fallbacks + f.sensor_dropouts == self.active
    }
}

/// Renders the sweep result body. Public so the protocol tests can
/// compute the expected bytes through the exact batch-path API
/// ([`crate::orchestra::sweep::SweepConfig::run_with_context`]) and
/// compare them to the served response.
pub fn sweep_body(req: &SweepRequest, points: &[ComparisonPoint]) -> String {
    let crossover = analyze_crossover(points);
    let mut s = String::with_capacity(128 + points.len() * 96);
    s.push_str("{\"points\":[");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"n\":{},\"active\":{},\"servers\":{},\"edge_per_client\":{},\
             \"cloud_per_client\":{},\"advantage\":{}}}",
            p.n_clients,
            p.cloud.n_active,
            p.cloud.n_servers,
            p.edge.total_per_client.value(),
            p.cloud.total_per_client.value(),
            p.advantage().value()
        ));
    }
    s.push_str("],\"crossover\":{\"first\":");
    push_opt_usize(&mut s, crossover.first_crossover);
    s.push_str(",\"always_from\":");
    push_opt_usize(&mut s, crossover.always_after);
    s.push_str(",\"max_advantage\":");
    match crossover.max_advantage {
        Some((n, adv)) => s.push_str(&format!("{{\"n\":{n},\"joules\":{}}}", adv.value())),
        None => s.push_str("null"),
    }
    s.push('}');
    if !req.faults.is_none() {
        let t = FaultTotals::of(points);
        let f = &t.stats;
        s.push_str(&format!(
            ",\"faults\":{{\"attempts\":{},\"retries\":{},\"fallbacks\":{},\
             \"brownouts\":{},\"dropouts\":{},\"delivered\":{},\"active\":{},\
             \"conservation\":\"{}\"}}",
            f.attempts,
            f.retries,
            f.fallbacks,
            f.brownouts,
            f.sensor_dropouts,
            f.delivered,
            t.active,
            if t.conserved() { "ok" } else { "violated" }
        ));
    }
    s.push('}');
    s
}

/// Renders the capacity-plan result body.
pub fn plan_body(req: &PlanRequest, plan: &CapacityPlan) -> String {
    let mut s = String::with_capacity(128 + plan.curve.len() * 64);
    s.push_str(&format!(
        "{{\"clients\":{},\"best\":{{\"cap\":{},\"per_client\":{},\"servers\":{},\
         \"server_capacity\":{}}},\"curve\":[",
        req.clients,
        plan.best.cap,
        plan.best.per_client.value(),
        plan.best.n_servers,
        plan.best.server_capacity
    ));
    for (i, p) in plan.curve.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"cap\":{},\"per_client\":{},\"servers\":{}}}",
            p.cap,
            p.per_client.value(),
            p.n_servers
        ));
    }
    s.push_str("]}");
    s
}

/// Renders the recommendation result body.
pub fn recommend_body(req: &RecommendRequest, rec: &ScenarioRecommendation) -> String {
    format!(
        "{{\"hives\":{},\"edge_per_hive\":{},\"cloud_per_hive\":{},\"servers_needed\":{},\
         \"recommend\":\"{}\"}}",
        req.hives,
        rec.edge_per_hive.value(),
        rec.cloud_per_hive.value(),
        rec.servers_needed,
        rec.scenario.name()
    )
}

/// Renders the Monte-Carlo result body.
pub fn montecarlo_body(req: &MonteCarloRequest, ci: &CiPoint) -> String {
    format!(
        "{{\"clients\":{},\"replications\":{},\"cloud_mean\":{},\"cloud_ci95\":{},\
         \"edge_mean\":{},\"cloud_win_fraction\":{}}}",
        req.clients,
        req.replications,
        ci.cloud_mean.value(),
        ci.cloud_ci95.value(),
        ci.edge_mean.value(),
        ci.cloud_win_fraction
    )
}

/// Renders the feature-extraction result body.
pub fn features_body(req: &FeaturesRequest, bands: &[f64]) -> String {
    let mut s = String::with_capacity(64 + bands.len() * 20);
    s.push_str(&format!(
        "{{\"colony\":\"{}\",\"n_bands\":{},\"bands\":[",
        colony_name(req.colony),
        bands.len()
    ));
    for (i, b) in bands.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&b.to_string());
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn defaults_mirror_the_batch_cli() {
        let env = parse_request("{\"op\":\"sweep\"}").unwrap();
        let Request::Sweep(r) = env.request else { panic!("expected sweep") };
        assert_eq!(SweepRequest::from_args(&[], &[]).unwrap().0, r);
        assert_eq!(
            r,
            SweepRequest {
                backend: Backend::ClosedForm,
                service: ServiceKind::Cnn,
                cap: 35,
                from: 100,
                to: 2000,
                step: 100,
                seed: DEFAULT_SEED,
                losses: false,
                faults: FaultPlan::NONE,
            }
        );
        assert_eq!(env.attempt, 1);
    }

    #[test]
    fn canonical_is_field_order_and_spelling_independent() {
        let a = parse_request("{\"op\":\"sweep\",\"cap\":35,\"seed\":990749}").unwrap();
        let b = parse_request("{\"seed\":\"0xF1E1D\",\"op\":\"sweep\"}").unwrap();
        let c = parse_request("{\"op\":\"sweep\",\"attempt\":3}").unwrap();
        assert_eq!(a.request.canonical(), b.request.canonical());
        // `attempt` must not fragment the coalescing key.
        assert_eq!(a.request.canonical(), c.request.canonical());
        assert_eq!(c.attempt, 3);
        // `attempt` is allowed on every op, control ops included.
        for op in ["sweep", "plan", "recommend", "montecarlo", "features", "status", "shutdown"] {
            let env = parse_request(&format!("{{\"op\":\"{op}\",\"attempt\":2}}")).unwrap();
            assert_eq!((env.request.op(), env.attempt), (op, 2));
        }
    }

    #[test]
    fn canonical_reparses_to_the_same_request() {
        for text in [
            "{\"op\":\"sweep\",\"backend\":\"des\",\"faults\":\"mid\",\"losses\":true}",
            "{\"op\":\"plan\",\"clients\":630}",
            "{\"op\":\"recommend\",\"hives\":630,\"cap\":35}",
            "{\"op\":\"montecarlo\",\"clients\":200,\"replications\":8}",
            "{\"op\":\"features\",\"colony\":\"queenless\",\"duration_s\":1.5}",
            "{\"op\":\"status\"}",
        ] {
            let env = parse_request(text).unwrap();
            let canon = env.request.canonical();
            let again = parse_request(&canon).unwrap();
            assert_eq!(env.request, again.request, "canonical form must be a fixed point");
            assert_eq!(again.request.canonical(), canon);
        }
    }

    #[test]
    fn validation_rejects_degenerate_requests() {
        for bad in [
            "{\"op\":\"sweep\",\"cap\":0}",
            "{\"op\":\"sweep\",\"step\":0}",
            "{\"op\":\"sweep\",\"from\":200,\"to\":100}",
            "{\"op\":\"sweep\",\"seed\":1.5}",
            "{\"op\":\"montecarlo\",\"replications\":1}",
            "{\"op\":\"plan\",\"cap_from\":5,\"cap_to\":4}",
            "{\"op\":\"recommend\",\"hives\":0}",
            "{\"op\":\"features\",\"duration_s\":-1}",
            "{\"op\":\"features\",\"colony\":\"swarming\"}",
            "{\"op\":\"warp\"}",
            "{\"no_op\":1}",
            // A field the op does not read: a typo must not silently
            // price the default.
            "{\"op\":\"sweep\",\"cpa\":35}",
            "{\"op\":\"recommend\",\"hives\":630,\"from\":100}",
            "{\"op\":\"features\",\"duration\":1}",
            "{\"op\":\"status\",\"cap\":1}",
            "{\"op\":\"shutdown\",\"now\":true}",
            "[1,2,3]",
            "not json at all",
        ] {
            assert!(parse_request(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn seeds_accept_full_u64_range_as_strings() {
        let env = parse_request("{\"op\":\"sweep\",\"seed\":\"18446744073709551615\"}").unwrap();
        let Request::Sweep(r) = env.request else { panic!() };
        assert_eq!(r.seed, u64::MAX);
        assert!(parse_request("{\"op\":\"sweep\",\"seed\":\"18446744073709551616\"}").is_err());
    }

    /// 2⁵³ + 1 parses to the same f64 as 2⁵³, so as a JSON number it is
    /// rejected rather than read as a nearby integer; as a string, and on
    /// the command line, whose text is exact, a seed of any size reads
    /// exactly.
    #[test]
    fn numbers_past_two_to_the_53_are_rejected_not_rounded() {
        let past = "9007199254740993";
        assert!(parse_request(&format!("{{\"op\":\"sweep\",\"step\":{past}}}")).is_err());
        let err = SweepRequest::from_args(&argv(&["--step", past]), &[]).unwrap_err();
        assert!(err.contains("--step"), "{err}");
        let err = parse_request(&format!("{{\"op\":\"sweep\",\"seed\":{past}}}")).unwrap_err();
        assert!(err.contains("below 2^53"), "{err}");
        let seed = |r: Request| match r {
            Request::Sweep(r) => r.seed,
            _ => panic!("not a sweep"),
        };
        let quoted = parse_request(&format!("{{\"op\":\"sweep\",\"seed\":\"{past}\"}}")).unwrap();
        assert_eq!(seed(quoted.request), (1 << 53) + 1);
        let (r, _) = SweepRequest::from_args(&argv(&["--seed", past]), &[]).unwrap();
        assert_eq!(r.seed, (1 << 53) + 1);
        let top = parse_request("{\"op\":\"sweep\",\"seed\":9007199254740991}").unwrap();
        assert_eq!(seed(top.request), EXACT_LIMIT - 1);
    }

    /// Each bound, one step past it, fails on both front ends; the
    /// command line names the flag.
    #[test]
    fn both_front_ends_reject_one_step_past_every_bound() {
        let limit = crate::orchestra::sweep::MAX_SWEEP_CLIENTS;
        let too_many = format!("{}", limit + 1);
        // Counts stop at 2⁵³ − 1: a number of 2⁵³ might have been sent
        // as 2⁵³ + 1.
        let past_exact = format!("{EXACT_LIMIT}");
        for (op, args, flag) in [
            ("sweep", vec!["--cap", "0"], "--cap"),
            ("sweep", vec!["--step", "0"], "--step"),
            ("sweep", vec!["--from", "0", "--to", "0"], "--from"),
            ("sweep", vec!["--from", "200", "--to", "199"], "--to"),
            ("sweep", vec!["--to", &too_many], "--to"),
            ("sweep", vec!["--step", &past_exact], "--step"),
            ("sweep", vec!["--service", "foo"], "--service"),
            ("sweep", vec!["--losses", "maybe"], "--losses"),
            ("sweep", vec!["--seed", "-1"], "--seed"),
            ("recommend", vec!["--hives", "0"], "--hives"),
            ("recommend", vec!["--cap", "0"], "--cap"),
            ("recommend", vec!["--hives", &too_many], "--hives"),
        ] {
            let err = match op {
                "sweep" => SweepRequest::from_args(&argv(&args), &[]).map(|_| ()),
                _ => RecommendRequest::from_args(&argv(&args), &[]).map(|_| ()),
            }
            .expect_err(&format!("{op} {args:?} should be rejected"));
            assert!(err.contains(flag) && !err.contains('`'), "{args:?}: {err}");
            let mut json = format!("{{\"op\":\"{op}\"");
            for pair in args.chunks(2) {
                let key = pair[0].trim_start_matches("--");
                let value = match key {
                    "service" | "seed" | "losses" => format!("\"{}\"", pair[1]),
                    _ => pair[1].to_string(),
                };
                json.push_str(&format!(",\"{key}\":{value}"));
            }
            json.push('}');
            assert!(parse_request(&json).is_err(), "{json} should be rejected");
        }
    }

    #[test]
    fn observation_flags_stay_out_of_the_request() {
        let plain = SweepRequest::from_args(&argv(&["--cap", "20"]), &[]).unwrap().0;
        let (observed, args) = SweepRequest::from_args(
            &argv(&["--trace", "t.jsonl", "--cap", "20", "--metrics"]),
            &["trace", "metrics"],
        )
        .unwrap();
        assert_eq!(observed, plain);
        assert_eq!(args.value("trace", "a file path").unwrap(), Some("t.jsonl"));
        assert!(args.parse("metrics", false).unwrap());
        let err = SweepRequest::from_args(&argv(&["--trace", "t.jsonl"]), &[]).unwrap_err();
        assert_eq!(err, "unknown flag --trace");
    }

    #[test]
    fn error_responses_escape_the_message() {
        let resp = error_response("bad \"quote\" and \\ slash");
        assert!(json::parse(&resp).is_ok(), "error response must stay valid JSON: {resp}");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        const LIMIT: usize = crate::orchestra::sweep::MAX_SWEEP_CLIENTS;

        /// A value within three steps of `lo` or of `hi`, inside `lo..=hi`.
        fn near(lo: usize, hi: usize) -> impl Strategy<Value = usize> {
            (0usize..3, proptest::bool::ANY)
                .prop_map(move |(d, top)| if top { hi - d } else { lo + d })
        }

        /// The request read from argv re-parses from its canonical form,
        /// and the same values sent as JSON read the same request.
        fn round_trips(request: Request, json: &str) {
            assert_eq!(parse_request(&request.canonical()).unwrap().request, request);
            assert_eq!(parse_request(json).unwrap().request, request, "{json}");
        }

        proptest! {
            #![proptest_config(proptest::test_runner::Config::with_cases(256))]

            #[test]
            fn sweep_argv_round_trips_through_the_canonical_form(
                cap in near(1, EXACT_LIMIT as usize - 1),
                step in near(1, EXACT_LIMIT as usize - 1),
                ends in (near(1, LIMIT), near(1, LIMIT)),
                seed in (0u64..3, proptest::bool::ANY)
                    .prop_map(|(d, top)| if top { u64::MAX - d } else { d }),
                picks in (0usize..3, 0usize..3, 0usize..3, 0usize..3),
            ) {
                let (from, to) = (ends.0.min(ends.1), ends.0.max(ends.1));
                let backend = ["closed-form", "timeline", "des"][picks.0];
                let service = ["svm", "cnn", "cnn-int8"][picks.1];
                let faults = ["none", "mid", "outage=60..120,loss=0.05"][picks.2];
                let losses = [None, Some("true"), Some("false")][picks.3];
                let mut args = argv(&["--backend", backend, "--service", service, "--faults", faults]);
                for (flag, value) in [("--cap", cap), ("--step", step), ("--from", from), ("--to", to)] {
                    args.extend([flag.to_string(), value.to_string()]);
                }
                args.extend(["--seed".to_string(), format!("{seed:#x}")]);
                args.extend(std::iter::once("--losses".to_string()).chain(losses.map(String::from)));
                let (r, _) = SweepRequest::from_args(&args, &[]).unwrap();
                prop_assert_eq!(
                    (r.cap, r.step, r.from, r.to, r.seed, r.losses),
                    (cap, step, from, to, seed, losses != Some("false"))
                );
                let json = format!(
                    "{{\"op\":\"sweep\",\"backend\":\"{backend}\",\"service\":\"{service}\",\
                     \"faults\":\"{faults}\",\"cap\":{cap},\"step\":{step},\"from\":{from},\
                     \"to\":{to},\"seed\":\"{seed}\",\"losses\":{}}}",
                    r.losses
                );
                round_trips(Request::Sweep(r), &json);
            }

            #[test]
            fn recommend_argv_round_trips_through_the_canonical_form(
                hives in near(1, LIMIT),
                cap in near(1, EXACT_LIMIT as usize - 1),
                picks in (0usize..3, 0usize..3),
                losses in proptest::bool::ANY,
            ) {
                let backend = ["closed-form", "timeline", "des"][picks.0];
                let service = ["svm", "cnn", "cnn-int8"][picks.1];
                let mut args = argv(&["--backend", backend, "--service", service]);
                args.extend(["--hives".to_string(), hives.to_string()]);
                args.extend(["--cap".to_string(), cap.to_string()]);
                if losses {
                    args.push("--losses".to_string());
                }
                let (r, _) = RecommendRequest::from_args(&args, &[]).unwrap();
                prop_assert_eq!((r.hives, r.cap, r.losses), (hives, cap, losses));
                let json = format!(
                    "{{\"op\":\"recommend\",\"backend\":\"{backend}\",\"service\":\"{service}\",\
                     \"hives\":{hives},\"cap\":{cap},\"losses\":{losses}}}"
                );
                round_trips(Request::Recommend(r), &json);
            }

            #[test]
            fn other_ops_argv_round_trips_through_the_canonical_form(
                clients in near(1, LIMIT),
                replications in near(2, MAX_REPLICATIONS),
                cap_from in near(1, EXACT_LIMIT as usize - 10_000),
                width in near(0, 9_999),
                duration_s in (0.0f64..30.0).prop_map(|d| 30.0 - d),
            ) {
                let count = |v: usize| v.to_string();
                let args = argv(&["--clients", &count(clients), "--replications", &count(replications)]);
                let (r, _) = MonteCarloRequest::from_args(&args, &[]).unwrap();
                let json = format!(
                    "{{\"op\":\"montecarlo\",\"clients\":{clients},\"replications\":{replications}}}"
                );
                round_trips(Request::MonteCarlo(r), &json);
                let cap_to = cap_from + width;
                let args = argv(&["--clients", &count(clients), "--cap_from", &count(cap_from),
                    "--cap_to", &count(cap_to)]);
                let (r, _) = PlanRequest::from_args(&args, &[]).unwrap();
                let json = format!(
                    "{{\"op\":\"plan\",\"clients\":{clients},\"cap_from\":{cap_from},\
                     \"cap_to\":{cap_to}}}"
                );
                round_trips(Request::Plan(r), &json);
                let args = argv(&["--colony", "queenless", "--duration_s", &duration_s.to_string()]);
                let (r, _) = FeaturesRequest::from_args(&args, &[]).unwrap();
                prop_assert_eq!(r.duration_s.to_bits(), duration_s.to_bits());
                let json = format!(
                    "{{\"op\":\"features\",\"colony\":\"queenless\",\"duration_s\":{duration_s}}}"
                );
                round_trips(Request::Features(r), &json);
            }
        }
    }
}
