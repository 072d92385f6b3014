//! The serving test harness: protocol robustness, coalescing
//! determinism, backpressure conservation and golden telemetry.
//!
//! Four properties of `pb serve` are pinned here:
//!
//! 1. **Codec robustness** — round-trip proptests over arbitrary
//!    payloads, plus malformed-frame fuzzing against a live daemon
//!    (truncated prefixes, oversized frames, invalid UTF-8, garbage
//!    JSON): every payload-level problem gets a structured error reply
//!    and the stream stays framed; the daemon never panics.
//! 2. **Coalescing determinism** — N concurrent byte-identical sweep
//!    requests run exactly once; every client receives byte-identical
//!    responses, themselves bit-identical to the batch
//!    `SweepConfig::run_with_context` path (the `pb sweep` engine
//!    invocation) at thread caps 1, 2 and N.
//! 3. **Backpressure conservation** — saturating the bounded queue
//!    sheds the overflow with `RetryPolicy`-derived retry-after values
//!    and `accepted + shed == submitted` holds exactly; a client that
//!    honors the retry-after eventually succeeds.
//! 4. **Golden telemetry** — one served sweep produces exactly the
//!    pinned `serve.*` metric set, and the OpenMetrics exposition
//!    carries the new families.
//!
//! A golden `features` reply pins clip synthesis, mel and the renderer
//! byte for byte.

use precision_beekeeping::orchestra::engine::{Backend, SimContext};
use precision_beekeeping::orchestra::faults::RetryPolicy;
use precision_beekeeping::orchestra::loss::LossModel;
use precision_beekeeping::orchestra::prelude::seeded_rng;
use precision_beekeeping::orchestra::presets;
use precision_beekeeping::orchestra::sweep::SweepConfig;
use precision_beekeeping::orchestra::FillPolicy;
use precision_beekeeping::serve::frame::{self, FrameError, MAX_FRAME};
use precision_beekeeping::serve::protocol::{self, parse_request, Request};
use precision_beekeeping::serve::{spawn, ServeClient, ServeHandle, ServeOptions};
use precision_beekeeping::signal::audio::BeeAudioSynth;
use precision_beekeeping::signal::pipeline::MelPipeline;
use precision_beekeeping::telemetry::export::openmetrics;
use precision_beekeeping::telemetry::json::{self, Json};
use precision_beekeeping::telemetry::Telemetry;
use precision_beekeeping::units::Seconds;
use proptest::collection::vec;
use proptest::proptest;
use rayon::pool::with_thread_cap;
use std::io::{Cursor, Read, Write};
use std::net::TcpStream;
use std::sync::Once;
use std::time::{Duration, Instant};

/// Same contract as `tests/parallel_determinism.rs`: give the binary a
/// real multi-lane pool before its first lazy initialization.
fn init_pool() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        if std::env::var("RAYON_NUM_THREADS").is_err() {
            std::env::set_var("RAYON_NUM_THREADS", "4");
        }
    });
}

/// Spins until `probe()` is true (daemon counters are updated by other
/// threads); panics after 10 s so a deadlock fails loudly.
fn wait_until(what: &str, probe: impl Fn() -> bool) {
    let start = Instant::now();
    while !probe() {
        assert!(start.elapsed() < Duration::from_secs(10), "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

// ---------------------------------------------------------------------
// 1. Codec robustness
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(64))]

    #[test]
    fn frames_round_trip_arbitrary_payloads(payload in vec(0u8..=255, 0..4096)) {
        let mut buf = Vec::new();
        frame::write_frame(&mut buf, &payload).unwrap();
        assert_eq!(buf.len(), payload.len() + 4);
        assert_eq!(frame::read_frame(&mut Cursor::new(buf)).unwrap(), payload);
    }

    #[test]
    fn frame_sequences_never_desync(payloads in vec(vec(0u8..=255, 0..64), 1..12)) {
        let mut buf = Vec::new();
        for p in &payloads {
            frame::write_frame(&mut buf, p).unwrap();
        }
        let mut cur = Cursor::new(buf);
        for p in &payloads {
            assert_eq!(&frame::read_frame(&mut cur).unwrap(), p);
        }
        assert!(matches!(frame::read_frame(&mut cur), Err(FrameError::Closed)));
    }

    #[test]
    fn truncations_are_detected_not_misparsed(payload in vec(0u8..=255, 0..64), cut in 0usize..67) {
        let mut buf = Vec::new();
        frame::write_frame(&mut buf, &payload).unwrap();
        let cut = cut.min(buf.len());
        if cut < buf.len() {
            buf.truncate(cut);
            match frame::read_frame(&mut Cursor::new(buf)) {
                Err(FrameError::Closed) => assert_eq!(cut, 0, "Closed only at a frame boundary"),
                Err(FrameError::Io(_)) => assert!(cut > 0),
                other => panic!("truncated frame must not parse: {other:?}"),
            }
        }
    }
}

/// A raw TCP probe that writes arbitrary bytes (no framing discipline).
struct RawProbe(TcpStream);

impl RawProbe {
    fn connect(handle: &ServeHandle) -> RawProbe {
        RawProbe(TcpStream::connect(handle.addr()).unwrap())
    }

    fn send_frame(&mut self, payload: &[u8]) {
        frame::write_frame(&mut self.0, payload).unwrap();
    }

    fn read_reply(&mut self) -> String {
        String::from_utf8(frame::read_frame(&mut self.0).unwrap()).unwrap()
    }
}

fn error_of(reply: &str) -> String {
    let doc = json::parse(reply).unwrap_or_else(|e| panic!("unparsable reply {reply}: {e}"));
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("error"), "not an error: {reply}");
    doc.get("error").and_then(Json::as_str).unwrap().to_string()
}

#[test]
fn malformed_frames_get_structured_errors_and_never_desync() {
    init_pool();
    let daemon = spawn("127.0.0.1:0", ServeOptions::default()).unwrap();

    // Garbage JSON, invalid UTF-8, empty payloads, valid JSON that is
    // not a valid request: each gets a structured error on the SAME
    // stream, and a well-formed request afterwards still succeeds —
    // the framing never desyncs.
    let mut probe = RawProbe::connect(&daemon);
    for junk in [
        &b"{{{"[..],
        b"",
        b"\xff\xfe garbage bytes \x80",
        b"[1,2,3]",
        b"{\"op\":\"warp\"}",
        b"{\"op\":\"sweep\",\"cap\":0}",
        b"{\"op\":\"sweep\",\"seed\":{}}",
        b"null",
    ] {
        probe.send_frame(junk);
        let err = error_of(&probe.read_reply());
        assert!(!err.is_empty());
    }
    probe.send_frame(b"{\"op\":\"status\"}");
    let reply = probe.read_reply();
    assert!(reply.starts_with("{\"status\":\"ok\""), "stream desynced: {reply}");

    // A truncated length prefix then a closed connection must not take
    // the daemon down.
    {
        let mut s = TcpStream::connect(daemon.addr()).unwrap();
        s.write_all(&[0, 0]).unwrap();
    }

    // A lying oversized prefix gets one structured error, then the
    // connection is closed (the stream cannot be resynchronized).
    {
        let mut s = TcpStream::connect(daemon.addr()).unwrap();
        s.write_all(&((MAX_FRAME as u32 + 1).to_be_bytes())).unwrap();
        let err = error_of(&String::from_utf8(frame::read_frame(&mut s).unwrap()).unwrap());
        assert!(err.contains("exceeds"), "unexpected error: {err}");
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "connection must close after an oversized prefix");
    }

    // Seeded fuzz: random byte payloads (seeded LCG, deterministic) are
    // all answered without a panic.
    let mut probe = RawProbe::connect(&daemon);
    let mut state = 0x5EEDu64;
    for len in 1..64usize {
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        probe.send_frame(&bytes);
        let reply = probe.read_reply();
        assert!(json::parse(&reply).is_ok(), "reply must stay structured: {reply}");
    }

    // The daemon survived all of it with clean accounting.
    let report = daemon.shutdown();
    assert!(report.conservation_ok(), "{report}");
    assert_eq!(report.shed, 0);
}

// ---------------------------------------------------------------------
// 2. Coalescing determinism + bit-identity with the batch path
// ---------------------------------------------------------------------

const SWEEP_REQ: &str =
    "{\"op\":\"sweep\",\"cap\":35,\"from\":100,\"to\":800,\"step\":100,\"losses\":true}";

/// The batch-path bytes for [`SWEEP_REQ`]: the exact engine invocation
/// `pb sweep --cap 35 --from 100 --to 800 --losses` makes, serialized
/// through the same public body renderer the daemon uses.
fn batch_sweep_response() -> String {
    let env = parse_request(SWEEP_REQ).unwrap();
    let Request::Sweep(r) = env.request else { panic!("expected a sweep") };
    let config = SweepConfig {
        edge_client: presets::edge_client(r.service),
        cloud_client: presets::edge_cloud_client(),
        server: presets::cloud_server(r.service, r.cap),
        loss: LossModel::all(),
        policy: FillPolicy::PackSlots,
        seed: r.seed,
    };
    let ns: Vec<usize> = (r.from..=r.to).step_by(r.step).collect();
    let ctx = SimContext::new(r.seed);
    let points = config.run_with_context(&Backend::ClosedForm, &ns, &ctx);
    protocol::ok_response("sweep", &protocol::sweep_body(&r, &points))
}

#[test]
fn concurrent_identical_sweeps_coalesce_to_one_bit_identical_execution() {
    init_pool();
    const N: usize = 8;
    let daemon =
        spawn("127.0.0.1:0", ServeOptions { paused: true, workers: 1, ..ServeOptions::default() })
            .unwrap();

    // Submit N byte-identical requests while the executors are paused,
    // so every one of them is in admission before anything runs: the
    // first is queued, the other N−1 must coalesce onto it.
    let addr = daemon.addr();
    let clients: Vec<_> = (0..N)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = ServeClient::connect(addr).unwrap();
                c.call(SWEEP_REQ).unwrap()
            })
        })
        .collect();
    wait_until("all submissions to land", || daemon.stats().submitted == N as u64);
    let stats = daemon.stats();
    assert_eq!(stats.accepted, N as u64, "identical requests must all be accepted");
    assert_eq!(stats.coalesced, N as u64 - 1, "N−1 of N identical requests must coalesce");
    assert_eq!(stats.executed, 0, "still paused");

    daemon.resume();
    let responses: Vec<String> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    // One execution fanned out to everyone…
    let report = daemon.shutdown();
    assert_eq!(report.executed, 1, "coalesced requests must share one execution");
    assert!(report.conservation_ok(), "{report}");
    for r in &responses[1..] {
        assert_eq!(r, &responses[0], "coalesced waiters must receive byte-identical responses");
    }

    // …and the fan-out bytes are the batch-path bytes, bit-identical at
    // every thread count (the served execution ran at the ambient
    // count; the batch recomputation runs at caps 1, 2 and N).
    for cap in [1, 2, N] {
        let batch = with_thread_cap(cap, batch_sweep_response);
        assert_eq!(
            responses[0], batch,
            "served response must be bit-identical to the batch path at {cap} threads"
        );
    }
}

#[test]
fn distinct_requests_do_not_coalesce_and_still_match_the_batch_path() {
    init_pool();
    let daemon = spawn("127.0.0.1:0", ServeOptions::default()).unwrap();
    let mut c = ServeClient::connect(daemon.addr()).unwrap();
    // Different seed ⇒ different canonical key ⇒ no coalescing even in
    // sequence; and a montecarlo response reproduces the direct
    // replicate_point_with call byte-for-byte.
    let mc = "{\"op\":\"montecarlo\",\"clients\":200,\"replications\":8,\"cap\":10,\"seed\":7}";
    let served = c.call(mc).unwrap();
    let env = parse_request(mc).unwrap();
    let Request::MonteCarlo(r) = env.request else { panic!() };
    let config = SweepConfig {
        edge_client: presets::edge_client(r.service),
        cloud_client: presets::edge_cloud_client(),
        server: presets::cloud_server(r.service, r.cap),
        loss: LossModel::all(),
        policy: FillPolicy::PackSlots,
        seed: r.seed,
    };
    for cap in [1, 2, 4] {
        let expected = with_thread_cap(cap, || {
            let ci = precision_beekeeping::orchestra::montecarlo::replicate_point_with(
                &config,
                r.clients,
                r.replications,
                &SimContext::new(r.seed),
            );
            protocol::ok_response("montecarlo", &protocol::montecarlo_body(&r, &ci))
        });
        assert_eq!(served, expected, "montecarlo bit-identity at {cap} threads");
    }
    let report = daemon.shutdown();
    assert_eq!(report.coalesced, 0);
    assert!(report.conservation_ok());
}

const FEATURES_REQ: &str =
    "{\"op\":\"features\",\"colony\":\"queenright\",\"duration_s\":0.25,\"seed\":42}";

/// The reply to [`FEATURES_REQ`], byte for byte, recorded before clip
/// synthesis was split into a serial recurrence and a pooled per-sample
/// pass: it pins synthesis, mel and the renderer together.
const FEATURES_GOLDEN: &str = "{\"status\":\"ok\",\"op\":\"features\",\"body\":{\"colony\":\"queenright\",\"n_bands\":128,\"bands\":[\
    -46.192048712706644,-43.40031501103964,-44.66026329120573,-43.547673531533185,\
    -49.40743951652821,-48.43160836844095,-47.59442129798545,-48.1203620197585,\
    -48.62212095183894,-49.20211825263351,-44.413105733477096,-14.803438621776754,\
    -0.033821870709410985,-0.8376314723500605,-30.83784947511165,-45.47067057320729,\
    -44.45824201310807,-46.16468707185278,-45.49106709671763,-21.861419814847746,\
    -7.818301120685606,-13.587869770440623,-10.632977655502886,-5.596962757065499,\
    -19.296971054015422,-46.33655372282088,-43.40090805123618,-42.26451075303461,\
    -43.00133078014144,-45.70460018229892,-33.895188565949844,-12.551273609259596,\
    -17.18247149384934,-43.59384454560744,-43.983121627919864,-46.01128958294198,\
    -47.48168762249636,-45.029600811295595,-20.472545987077428,-22.557637645158422,\
    -43.17111360238795,-44.76749348251554,-42.725702227109615,-41.37890559137461,\
    -27.89697323825888,-27.07288902114575,-43.53108928398405,-41.47582513485926,\
    -40.8408626780806,-43.88690837822685,-43.52831885248968,-42.144556731176486,\
    -42.29674848156289,-43.41547582869634,-42.56955971372032,-41.57199850692224,\
    -40.71550503903951,-41.51270081723874,-41.78259830507249,-41.23985544652527,\
    -42.6658859071352,-40.46661429347341,-39.93266595399114,-42.13962567491202,\
    -41.77358025900968,-43.28576246491554,-40.4424038215819,-40.78567599784242,\
    -40.78887592961907,-39.49644529301755,-38.90828640445075,-39.769695744118295,\
    -40.63905031829719,-40.155236890946995,-41.80921477848837,-37.90976376644604,\
    -38.16088044663264,-39.64106912764997,-39.580435762026575,-39.373282156871305,\
    -39.07390156514648,-39.81417828529237,-38.96351398091311,-39.78517308947145,\
    -39.6386266898595,-37.38651702028138,-38.2970160034294,-38.69059392581408,\
    -38.50100169833825,-36.94641540292938,-37.53327376758693,-39.10008713444121,\
    -38.364718701875745,-38.17248364107191,-37.125655108755055,-37.73621089130243,\
    -38.447874433390055,-37.958920792591506,-38.31861810259063,-37.119461380060386,\
    -37.443652495119814,-36.80942685495553,-36.697551667406614,-36.54596532833992,\
    -36.60763138207589,-36.10128630193612,-36.73009642189515,-35.192472532531234,\
    -36.72745489637972,-36.53141266394689,-36.398132284073164,-37.429022449253054,\
    -36.7770851832666,-36.629999366598824,-36.466189854402,-35.48889332384014,\
    -35.03317161050548,-35.0992372893888,-34.63995061034213,-35.013464367903985,\
    -34.78594731320668,-34.889789555847685,-34.44185752056661,-33.94948144522157,\
    -34.28367738973295,-35.176229855307724,-35.342979106609775,-34.21077171047758]}}";

#[test]
fn a_features_reply_is_byte_identical_to_its_golden_copy() {
    init_pool();
    let telemetry = Telemetry::metrics_only();
    let daemon = spawn(
        "127.0.0.1:0",
        ServeOptions { telemetry: telemetry.clone(), ..ServeOptions::default() },
    )
    .unwrap();
    let mut c = ServeClient::connect(daemon.addr()).unwrap();
    assert_eq!(c.call(FEATURES_REQ).unwrap(), FEATURES_GOLDEN);
    let report = daemon.shutdown();
    assert!(report.conservation_ok());

    // The execution is timed as synthesis, then mel, inside the op's
    // own histogram.
    let snap = telemetry.snapshot();
    let hist = |name: &str| snap.histograms.iter().find(|(n, _)| n == name).unwrap().1.clone();
    let (total, synth, mel) = (
        hist("serve.request.features"),
        hist("serve.request.features.synth"),
        hist("serve.request.features.mel"),
    );
    assert_eq!((total.count, synth.count, mel.count), (1, 1, 1));
    assert!(synth.total + mel.total <= total.total, "{synth:?} + {mel:?} > {total:?}");

    // The batch path gives the same bytes at every thread cap.
    let env = parse_request(FEATURES_REQ).unwrap();
    let Request::Features(r) = env.request else { panic!("expected features") };
    let pipeline = MelPipeline::paper_default();
    for cap in [1, 2, 4] {
        let batch = with_thread_cap(cap, || {
            let clip =
                BeeAudioSynth::default().generate(r.colony, r.duration_s, &mut seeded_rng(r.seed));
            protocol::ok_response(
                "features",
                &protocol::features_body(&r, &pipeline.mel(&clip).band_means()),
            )
        });
        assert_eq!(batch, FEATURES_GOLDEN, "features bit-identity at {cap} threads");
    }
}

// ---------------------------------------------------------------------
// 3. Backpressure conservation
// ---------------------------------------------------------------------

#[test]
fn saturation_sheds_with_retry_after_and_conserves_every_request() {
    init_pool();
    const CAPACITY: usize = 3;
    const CLIENTS: usize = 10;
    // A tiny deterministic backoff schedule so the shed-honoring client
    // retries in milliseconds: 10 ms, 20 ms, 40 ms, … capped at 80 ms.
    let retry = RetryPolicy {
        base_backoff: Seconds(0.01),
        max_backoff: Seconds(0.08),
        ..RetryPolicy::DEFAULT
    };
    let daemon = spawn(
        "127.0.0.1:0",
        ServeOptions {
            queue_capacity: CAPACITY,
            workers: 1,
            retry,
            paused: true,
            ..ServeOptions::default()
        },
    )
    .unwrap();

    // CLIENTS distinct requests (distinct seeds ⇒ distinct coalescing
    // keys) against a paused queue of CAPACITY: exactly CAPACITY are
    // accepted, the rest shed — regardless of arrival order.
    let addr = daemon.addr();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = ServeClient::connect(addr).unwrap();
                c.call(&format!("{{\"op\":\"recommend\",\"hives\":{},\"cap\":35}}", 630 + i))
                    .unwrap()
            })
        })
        .collect();
    wait_until("all submissions to land", || daemon.stats().submitted == CLIENTS as u64);
    let stats = daemon.stats();
    assert_eq!(stats.accepted, CAPACITY as u64, "paused queue admits exactly its capacity");
    assert_eq!(stats.shed, (CLIENTS - CAPACITY) as u64);
    assert_eq!(stats.accepted + stats.shed, stats.submitted, "conservation under saturation");

    // Shed responses carry the RetryPolicy-derived retry-after for
    // attempt 1: the base backoff, exactly (jitter is forced to 0).
    daemon.resume();
    let responses: Vec<String> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    let mut ok = 0;
    let mut shed = 0;
    for r in &responses {
        let doc = json::parse(r).unwrap();
        match doc.get("status").and_then(Json::as_str) {
            Some("ok") => ok += 1,
            Some("shed") => {
                shed += 1;
                assert_eq!(doc.get("retry_after_s").and_then(Json::as_f64), Some(0.01));
                assert_eq!(doc.get("attempt").and_then(Json::as_f64), Some(1.0));
            }
            other => panic!("unexpected status {other:?} in {r}"),
        }
    }
    assert_eq!(ok, CAPACITY, "every accepted request must be answered");
    assert_eq!(shed, CLIENTS - CAPACITY, "every shed request must be told to retry");

    // A client that honors retry-after eventually succeeds: pause the
    // daemon again, fill the queue, then race a retrying client against
    // a delayed resume.
    daemon.pause();
    let fillers: Vec<_> = (0..CAPACITY)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = ServeClient::connect(addr).unwrap();
                c.call(&format!("{{\"op\":\"plan\",\"clients\":{},\"cap_to\":40}}", 200 + i))
                    .unwrap()
            })
        })
        .collect();
    wait_until("queue to refill", || {
        let s = daemon.stats();
        s.accepted - s.coalesced == (CAPACITY + CAPACITY) as u64
    });
    let retrier = std::thread::spawn(move || {
        let mut c = ServeClient::connect(addr).unwrap();
        c.call_with_retry("{\"op\":\"recommend\",\"hives\":5,\"cap\":10}", 32).unwrap()
    });
    // Hold the queue full and paused for a few backoff periods so the
    // retrier is demonstrably shed at least once, then release.
    wait_until("the retrier to be shed", || daemon.stats().shed > (CLIENTS - CAPACITY) as u64);
    std::thread::sleep(Duration::from_millis(30));
    daemon.resume();
    let final_reply = retrier.join().unwrap();
    let doc = json::parse(&final_reply).unwrap();
    assert_eq!(
        doc.get("status").and_then(Json::as_str),
        Some("ok"),
        "a retry-after-honoring client must eventually succeed: {final_reply}"
    );
    for f in fillers {
        assert!(f.join().unwrap().starts_with("{\"status\":\"ok\""));
    }

    let report = daemon.shutdown();
    assert!(report.conservation_ok(), "nothing silently dropped: {report}");
    assert_eq!(report.executed, report.accepted - report.coalesced, "drain leaves no backlog");
}

#[test]
fn status_reads_conservation_ok_while_requests_are_in_flight() {
    init_pool();
    const SUBMITTERS: usize = 4;
    const PER_SUBMITTER: usize = 150;
    // A small queue so the run mixes queued, coalesced and shed requests.
    let daemon = spawn(
        "127.0.0.1:0",
        ServeOptions { queue_capacity: 2, workers: 1, ..ServeOptions::default() },
    )
    .unwrap();
    let addr = daemon.addr();
    let submitters: Vec<_> = (0..SUBMITTERS)
        .map(|s| {
            std::thread::spawn(move || {
                let mut c = ServeClient::connect(addr).unwrap();
                for i in 0..PER_SUBMITTER {
                    // Every other request repeats across submitters, so
                    // some coalesce onto one another's executions.
                    let hives = if i % 2 == 0 { 100 + i } else { 1000 + s * PER_SUBMITTER + i };
                    let r = c
                        .call(&format!("{{\"op\":\"recommend\",\"hives\":{hives},\"cap\":35}}"))
                        .unwrap();
                    assert!(
                        r.starts_with("{\"status\":\"ok\"")
                            || r.starts_with("{\"status\":\"shed\""),
                        "{r}"
                    );
                }
            })
        })
        .collect();

    // Poll over the wire and in process until every submitter is done:
    // a mid-run snapshot must never see a request counted as submitted
    // but not yet as accepted or shed.
    let mut c = ServeClient::connect(addr).unwrap();
    let mut polls = 0;
    while polls < 50 || !submitters.iter().all(std::thread::JoinHandle::is_finished) {
        let reply = c.call("{\"op\":\"status\"}").unwrap();
        assert!(reply.contains("\"conservation\":\"ok\""), "mid-run status: {reply}");
        let stats = daemon.stats();
        assert!(stats.conservation_ok(), "mid-run stats: {stats}");
        polls += 1;
    }
    for s in submitters {
        s.join().unwrap();
    }
    let report = daemon.shutdown();
    assert!(report.conservation_ok(), "{report}");
    assert_eq!(report.submitted, (SUBMITTERS * PER_SUBMITTER) as u64);
}

// ---------------------------------------------------------------------
// 4. Golden telemetry
// ---------------------------------------------------------------------

#[test]
fn one_served_sweep_emits_exactly_the_pinned_metric_set() {
    init_pool();
    let telemetry = Telemetry::metrics_only();
    let daemon = spawn(
        "127.0.0.1:0",
        ServeOptions { telemetry: telemetry.clone(), ..ServeOptions::default() },
    )
    .unwrap();
    let mut c = ServeClient::connect(daemon.addr()).unwrap();
    let reply =
        c.call("{\"op\":\"sweep\",\"cap\":35,\"from\":100,\"to\":400,\"step\":100}").unwrap();
    assert!(reply.starts_with("{\"status\":\"ok\""));

    let snap = telemetry.snapshot();
    let serve_metrics: Vec<String> = snap
        .counters
        .iter()
        .map(|(n, _)| n.clone())
        .chain(snap.gauges.iter().map(|(n, _)| n.clone()))
        .chain(snap.histograms.iter().map(|(n, _)| n.clone()))
        .filter(|n| n.starts_with("serve."))
        .collect();
    let mut sorted = serve_metrics.clone();
    sorted.sort();
    assert_eq!(
        sorted,
        precision_beekeeping::serve::METRIC_FAMILIES
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        "the serve.* metric set is pinned — update METRIC_FAMILIES and DESIGN.md §15 together"
    );

    // The counters carry the request's accounting…
    let counter =
        |name: &str| snap.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap();
    assert_eq!(counter("serve.submitted"), 1);
    assert_eq!(counter("serve.accepted"), 1);
    assert_eq!(counter("serve.shed"), 0);
    assert_eq!(counter("serve.coalesce.hits"), 0);
    assert_eq!(counter("serve.executed"), 1);
    // …the latency histogram observed it…
    let latency = snap.histograms.iter().find(|(n, _)| n == "serve.request.latency").unwrap();
    assert_eq!(latency.1.count, 1);
    let sweep_hist = snap.histograms.iter().find(|(n, _)| n == "serve.request.sweep").unwrap();
    assert_eq!(sweep_hist.1.count, 1);
    // …and the engine ran against the daemon's shared cache.
    assert!(counter("allocation_cache.misses") > 0);

    // The OpenMetrics exposition includes every new family, sanitized.
    let exposition = openmetrics(&snap);
    for family in [
        "serve_submitted_total",
        "serve_accepted_total",
        "serve_shed_total",
        "serve_coalesce_hits_total",
        "serve_executed_total",
        "serve_queue_depth",
        "serve_request_latency",
        "serve_request_sweep",
        "serve_request_features_synth",
        "serve_request_features_mel",
    ] {
        assert!(exposition.contains(family), "exposition is missing {family}:\n{exposition}");
    }

    let report = daemon.shutdown();
    assert!(report.conservation_ok());
}

// ---------------------------------------------------------------------
// Drain-without-loss
// ---------------------------------------------------------------------

#[test]
fn shutdown_drains_queued_work_without_loss() {
    init_pool();
    let daemon = spawn(
        "127.0.0.1:0",
        ServeOptions { workers: 1, paused: true, queue_capacity: 16, ..ServeOptions::default() },
    )
    .unwrap();
    let addr = daemon.addr();
    // Queue several distinct requests, then shut down while they are
    // still pending: every waiter must still get its real response.
    let clients: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = ServeClient::connect(addr).unwrap();
                c.call(&format!("{{\"op\":\"recommend\",\"hives\":{}}}", 100 + i)).unwrap()
            })
        })
        .collect();
    wait_until("submissions", || daemon.stats().submitted == 4);
    // `shutdown` drains: pending work executes (pause is lifted by the
    // drain), then the daemon stops.
    let report = daemon.shutdown();
    assert_eq!(report.executed, 4, "drain must finish queued work, not drop it");
    assert!(report.conservation_ok(), "{report}");
    for c in clients {
        let reply = c.join().unwrap();
        assert!(
            reply.starts_with("{\"status\":\"ok\",\"op\":\"recommend\""),
            "queued request lost in shutdown: {reply}"
        );
    }
}
