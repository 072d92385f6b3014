//! The resident daemon: admission, coalescing, backpressure, drain.
//!
//! One [`ServeState`] is shared by every connection thread and executor:
//!
//! * a bounded **admission queue** — when it is full, requests are shed
//!   with a `retry_after_s` drawn from the daemon's
//!   [`RetryPolicy`] backoff schedule (jitter forced to 0 so the
//!   schedule is deterministic);
//! * an **in-flight map** keyed by [`Request::canonical`] — a request
//!   byte-equal to one already queued or executing attaches itself as a
//!   waiter instead of consuming queue capacity, and the single
//!   execution's response fans out to every waiter (coalescing);
//! * one [`Executor`] shared by all requests — the same executor `pb
//!   sweep` and `pb recommend` run, holding one allocation cache and one
//!   planned mel pipeline; the cache is a transparent memo, so served
//!   results stay bit-identical to the batch CLI path.
//!
//! The accounting invariant the tests pin: every submitted compute
//! request is either accepted (queued or coalesced) or shed —
//! `accepted + shed == submitted`, exactly, under any interleaving.
//! `status` and `shutdown` are control operations and bypass the queue.
//!
//! Shutdown is a graceful drain: new submissions are shed, executors
//! finish everything already queued, every waiter receives its
//! response, and only then does the accept loop stop.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::execute::Executor;
use super::frame::{self, FrameError};
use super::protocol::{self, error_response, ok_response, shed_response, Envelope, Request};
use crate::orchestra::faults::RetryPolicy;
use crate::orchestra::prelude::seeded_rng;
use crate::telemetry::Telemetry;

/// Daemon configuration. `Default` matches the `pb serve` defaults.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Admission-queue bound: distinct requests allowed to wait.
    pub queue_capacity: usize,
    /// Executor threads draining the queue (each request still fans its
    /// inner work onto the persistent rayon pool).
    pub workers: usize,
    /// Backoff schedule for shed responses. Jitter is forced to zero at
    /// spawn so retry-after values are a pure function of the attempt.
    pub retry: RetryPolicy,
    /// Telemetry registry the daemon and its engine contexts report to.
    pub telemetry: Telemetry,
    /// Start with executors paused (deterministic tests: fill the queue,
    /// then [`ServeHandle::resume`]). The accept loop still runs.
    pub paused: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            queue_capacity: 64,
            workers: 2,
            retry: RetryPolicy::DEFAULT,
            telemetry: Telemetry::metrics_only(),
            paused: false,
        }
    }
}

/// Final accounting of a drained daemon.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainReport {
    /// Compute requests that reached admission.
    pub submitted: u64,
    /// Requests queued or coalesced onto an in-flight execution.
    pub accepted: u64,
    /// Requests refused with a retry-after response.
    pub shed: u64,
    /// Accepted requests that rode an existing execution.
    pub coalesced: u64,
    /// Executions actually run (accepted − coalesced, once drained).
    pub executed: u64,
}

impl DrainReport {
    /// The conservation invariant: nothing was silently dropped.
    pub fn conservation_ok(&self) -> bool {
        self.accepted + self.shed == self.submitted
    }
}

impl std::fmt::Display for DrainReport {
    /// The grep-able conservation line CI pins.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "serve conservation : accepted {} + shed {} == submitted {} ({})",
            self.accepted,
            self.shed,
            self.submitted,
            if self.conservation_ok() { "ok" } else { "VIOLATED" }
        )
    }
}

/// One queued execution: the canonical key, the parsed request, and the
/// response channels of every client waiting on it.
struct Job {
    key: String,
    request: Request,
    submitted_at: Instant,
    waiters: Mutex<Vec<Sender<Arc<String>>>>,
}

/// Everything guarded by the one queue lock. Coalesce-attach and
/// completion-fanout both happen under it, which closes the race where
/// a request attaches to a job whose response already fanned out.
struct QueueInner {
    pending: VecDeque<Arc<Job>>,
    inflight: HashMap<String, Arc<Job>>,
    executing: usize,
    draining: bool,
    paused: bool,
}

/// How admission disposed of a compute request.
enum Admission {
    /// Queued (fresh execution) or attached to an in-flight one; the
    /// receiver yields the response.
    Wait(Receiver<Arc<String>>),
    /// Queue full (or draining): retry after the given delay.
    Shed { retry_after_s: f64, queue_depth: usize },
}

/// Shared daemon state (see the module docs for the moving parts).
pub struct ServeState {
    inner: Mutex<QueueInner>,
    work_ready: Condvar,
    drained: Condvar,
    stop: AtomicBool,
    queue_capacity: usize,
    retry: RetryPolicy,
    telemetry: Telemetry,
    executor: Executor,
    submitted: AtomicU64,
    accepted: AtomicU64,
    shed: AtomicU64,
    coalesced: AtomicU64,
    executed: AtomicU64,
}

/// Telemetry metric names the daemon emits, in snapshot order. The
/// golden telemetry test pins exactly this set; keep it in sync with
/// the emission sites below and with DESIGN.md §15.
pub const METRIC_FAMILIES: &[&str] = &[
    "serve.accepted",
    "serve.coalesce.hits",
    "serve.executed",
    "serve.queue.depth",
    "serve.request.features",
    "serve.request.features.mel",
    "serve.request.features.synth",
    "serve.request.latency",
    "serve.request.montecarlo",
    "serve.request.plan",
    "serve.request.recommend",
    "serve.request.sweep",
    "serve.shed",
    "serve.submitted",
];

impl ServeState {
    fn new(options: &ServeOptions) -> Arc<ServeState> {
        let telemetry = options.telemetry.clone();
        // Pre-resolve every family so the exposition shows them at zero
        // from the first scrape — a family appearing only after its
        // first event reads as a silent outage on a dashboard.
        if let Some(reg) = telemetry.registry() {
            for name in METRIC_FAMILIES {
                match *name {
                    "serve.queue.depth" => drop(reg.gauge(name)),
                    n if n.starts_with("serve.request.") => drop(reg.histogram(name)),
                    _ => drop(reg.counter(name)),
                }
            }
        }
        let retry = RetryPolicy { jitter: 0.0, ..options.retry };
        Arc::new(ServeState {
            inner: Mutex::new(QueueInner {
                pending: VecDeque::new(),
                inflight: HashMap::new(),
                executing: 0,
                draining: false,
                paused: options.paused,
            }),
            work_ready: Condvar::new(),
            drained: Condvar::new(),
            stop: AtomicBool::new(false),
            queue_capacity: options.queue_capacity.max(1),
            retry,
            executor: Executor::new(telemetry.clone()),
            telemetry,
            submitted: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            executed: AtomicU64::new(0),
        })
    }

    fn count(&self, counter: &AtomicU64, metric: &str) -> u64 {
        let n = counter.fetch_add(1, Ordering::Relaxed) + 1;
        self.telemetry.add_to_counter(metric, 1);
        n
    }

    /// The retry-after the backoff schedule prescribes for `attempt`
    /// (jitter is zero, so no RNG state is consumed or needed).
    fn retry_after_s(&self, attempt: u32) -> f64 {
        let mut rng = seeded_rng(0);
        self.retry.backoff(attempt.max(1), &mut rng).value()
    }

    /// Admits one compute request: coalesce, enqueue, or shed.
    fn submit(self: &Arc<Self>, env: Envelope) -> Admission {
        let key = env.request.canonical();
        let mut g = self.inner.lock().unwrap();
        self.count(&self.submitted, "serve.submitted");
        if let Some(job) = g.inflight.get(&key) {
            let (tx, rx) = mpsc::channel();
            job.waiters.lock().unwrap().push(tx);
            self.count(&self.accepted, "serve.accepted");
            self.count(&self.coalesced, "serve.coalesce.hits");
            return Admission::Wait(rx);
        }
        if g.draining || g.pending.len() >= self.queue_capacity {
            self.count(&self.shed, "serve.shed");
            return Admission::Shed {
                retry_after_s: self.retry_after_s(env.attempt),
                queue_depth: g.pending.len(),
            };
        }
        let (tx, rx) = mpsc::channel();
        let job = Arc::new(Job {
            key: key.clone(),
            request: env.request,
            submitted_at: Instant::now(),
            waiters: Mutex::new(vec![tx]),
        });
        g.inflight.insert(key, Arc::clone(&job));
        g.pending.push_back(job);
        self.count(&self.accepted, "serve.accepted");
        self.telemetry.set_gauge("serve.queue.depth", g.pending.len() as f64);
        self.work_ready.notify_one();
        Admission::Wait(rx)
    }

    /// Executor thread body: pop, execute, fan out, until drained.
    fn run_executor(self: &Arc<Self>) {
        loop {
            let job = {
                let mut g = self.inner.lock().unwrap();
                loop {
                    if !g.paused {
                        if let Some(job) = g.pending.pop_front() {
                            g.executing += 1;
                            self.telemetry.set_gauge("serve.queue.depth", g.pending.len() as f64);
                            break job;
                        }
                        if g.draining {
                            return;
                        }
                    }
                    g = self.work_ready.wait(g).unwrap();
                }
            };
            // A panic inside an evaluation must neither kill the
            // executor nor strand the waiters: it becomes a structured
            // error response like any other failure.
            let response = {
                let _span = self.telemetry.span(&format!("serve.request.{}", job.request.op()));
                match catch_unwind(AssertUnwindSafe(|| self.executor.respond(&job.request))) {
                    Ok(Some(reply)) => reply,
                    // Control operations never reach the queue.
                    Ok(None) => error_response("internal error: control op reached an executor"),
                    Err(_) => error_response("internal error: request execution panicked"),
                }
            };
            self.count(&self.executed, "serve.executed");
            self.telemetry
                .observe("serve.request.latency", job.submitted_at.elapsed().as_secs_f64());
            let waiters = {
                let mut g = self.inner.lock().unwrap();
                g.inflight.remove(&job.key);
                g.executing -= 1;
                let w = std::mem::take(&mut *job.waiters.lock().unwrap());
                if g.draining && g.pending.is_empty() && g.executing == 0 {
                    self.drained.notify_all();
                }
                w
            };
            let response = Arc::new(response);
            for tx in waiters {
                // A waiter whose connection died mid-flight is fine.
                let _ = tx.send(Arc::clone(&response));
            }
        }
    }

    /// Stops admitting, wakes everyone, lets executors drain the queue.
    fn begin_drain(&self) {
        let mut g = self.inner.lock().unwrap();
        g.draining = true;
        // A paused daemon must still drain: resume implicitly.
        g.paused = false;
        self.work_ready.notify_all();
    }

    /// Blocks until the queue is empty and no execution is running.
    fn wait_drained(&self) {
        let mut g = self.inner.lock().unwrap();
        while !(g.pending.is_empty() && g.executing == 0) {
            g = self.drained.wait(g).unwrap();
        }
    }

    /// The accounting counters. `submit` increments them under the
    /// admission lock, so reading them under it too (`_admission` is the
    /// proof) never catches a request counted as submitted but not yet
    /// as accepted or shed.
    fn report(&self, _admission: &QueueInner) -> DrainReport {
        DrainReport {
            submitted: self.submitted.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
        }
    }

    /// [`report`](Self::report), taking the admission lock itself.
    fn snapshot(&self) -> DrainReport {
        self.report(&self.inner.lock().unwrap())
    }

    fn counters_body(r: &DrainReport, queue_depth: usize, draining: bool) -> String {
        format!(
            "{{\"submitted\":{},\"accepted\":{},\"shed\":{},\"coalesced\":{},\
             \"executed\":{},\"queue_depth\":{},\"draining\":{},\"conservation\":\"{}\"}}",
            r.submitted,
            r.accepted,
            r.shed,
            r.coalesced,
            r.executed,
            queue_depth,
            draining,
            if r.conservation_ok() { "ok" } else { "violated" }
        )
    }

    fn status_response(&self) -> String {
        let body = {
            let g = self.inner.lock().unwrap();
            Self::counters_body(&self.report(&g), g.pending.len(), g.draining)
        };
        ok_response("status", &body)
    }

    /// The shutdown op: drain, then report and stop the accept loop.
    fn shutdown_response(&self) -> String {
        self.begin_drain();
        self.wait_drained();
        let body = Self::counters_body(&self.snapshot(), 0, true);
        self.stop.store(true, Ordering::SeqCst);
        ok_response("shutdown", &body)
    }
}

/// Serves one framed connection until the peer closes it.
///
/// Payload-level problems (bad UTF-8, bad JSON, invalid requests) are
/// answered with structured errors and the stream continues — exactly
/// `length` bytes were consumed, so framing stays in sync. Only an
/// oversized length prefix closes the connection, after a final error
/// frame.
fn handle_connection<S: Read + Write>(stream: &mut S, state: &Arc<ServeState>) {
    loop {
        let reply: Arc<String> = match frame::read_frame(stream) {
            Err(FrameError::Closed) | Err(FrameError::Io(_)) => return,
            Err(e @ FrameError::Oversized(_)) => {
                let _ = frame::write_frame(stream, error_response(&e.to_string()).as_bytes());
                return;
            }
            Ok(bytes) => match String::from_utf8(bytes) {
                Err(_) => Arc::new(error_response("frame payload is not valid UTF-8")),
                Ok(text) => match protocol::parse_request(&text) {
                    Err(e) => Arc::new(error_response(&e)),
                    Ok(env) => match env.request {
                        Request::Status => Arc::new(state.status_response()),
                        Request::Shutdown => Arc::new(state.shutdown_response()),
                        _ => match state.submit(env) {
                            Admission::Shed { retry_after_s, queue_depth } => {
                                Arc::new(shed_response(retry_after_s, env.attempt, queue_depth))
                            }
                            Admission::Wait(rx) => match rx.recv() {
                                Ok(response) => response,
                                Err(_) => Arc::new(error_response(
                                    "server stopped before the request completed",
                                )),
                            },
                        },
                    },
                },
            },
        };
        if frame::write_frame(stream, reply.as_bytes()).is_err() {
            return;
        }
    }
}

/// A running daemon. Dropping the handle without calling
/// [`ServeHandle::shutdown`] or [`ServeHandle::wait`] leaves the
/// threads running for the life of the process.
pub struct ServeHandle {
    state: Arc<ServeState>,
    addr: SocketAddr,
    socket_path: Option<std::path::PathBuf>,
    accept: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
}

/// The accept-loop handle (if it started) plus one handle per executor.
type DaemonThreads = (Option<JoinHandle<()>>, Vec<JoinHandle<()>>);

fn spawn_threads(
    state: &Arc<ServeState>,
    workers: usize,
    accept: impl FnOnce() + Send + 'static,
) -> io::Result<DaemonThreads> {
    let executors = (0..workers.max(1))
        .map(|i| {
            let st = Arc::clone(state);
            std::thread::Builder::new()
                .name(format!("serve-exec-{i}"))
                .spawn(move || st.run_executor())
        })
        .collect::<io::Result<Vec<_>>>()?;
    let accept = std::thread::Builder::new().name("serve-accept".to_string()).spawn(accept)?;
    Ok((Some(accept), executors))
}

/// Spawns the daemon on a TCP listener bound to `addr` (use port 0 for
/// an ephemeral port; [`ServeHandle::addr`] reports the binding).
pub fn spawn(addr: &str, options: ServeOptions) -> io::Result<ServeHandle> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let state = ServeState::new(&options);
    let st = Arc::clone(&state);
    let (accept, executors) =
        spawn_threads(&state, options.workers, move || accept_loop(listener, st))?;
    Ok(ServeHandle { state, addr: bound, socket_path: None, accept, executors })
}

/// Spawns the daemon on a Unix-domain socket at `path` (a stale socket
/// file from a previous run is removed first; the file is unlinked
/// again once the accept loop stops). [`ServeHandle::addr`] reports the
/// unspecified address for Unix daemons — use the path.
#[cfg(unix)]
pub fn spawn_unix(path: &std::path::Path, options: ServeOptions) -> io::Result<ServeHandle> {
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    let state = ServeState::new(&options);
    let st = Arc::clone(&state);
    let cleanup = path.to_path_buf();
    let (accept, executors) = spawn_threads(&state, options.workers, move || {
        accept_loop_unix(listener, st);
        let _ = std::fs::remove_file(cleanup);
    })?;
    Ok(ServeHandle {
        state,
        addr: SocketAddr::from(([0, 0, 0, 0], 0)),
        socket_path: Some(path.to_path_buf()),
        accept,
        executors,
    })
}

/// One accepted stream dispatched onto its own connection thread.
fn dispatch<S: Read + Write + Send + 'static>(mut stream: S, state: &Arc<ServeState>) {
    let st = Arc::clone(state);
    let _ = std::thread::Builder::new()
        .name("serve-conn".to_string())
        .spawn(move || handle_connection(&mut stream, &st));
}

/// Accept loop: non-blocking accept polled against the stop flag, so a
/// `shutdown` op (or [`ServeHandle::shutdown`]) ends it promptly.
fn accept_loop(listener: TcpListener, state: Arc<ServeState>) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !state.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                // Frames are small request/response pairs; leaving Nagle
                // on would park every reply behind a delayed ACK.
                let _ = stream.set_nodelay(true);
                dispatch(stream, &state);
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// [`accept_loop`] over a Unix-domain listener.
#[cfg(unix)]
fn accept_loop_unix(listener: std::os::unix::net::UnixListener, state: Arc<ServeState>) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !state.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                dispatch(stream, &state);
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

impl ServeHandle {
    /// The bound TCP listening address (the unspecified address for a
    /// Unix-socket daemon — see [`ServeHandle::socket_path`]).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The Unix socket path, for daemons spawned with
    /// [`spawn_unix`].
    pub fn socket_path(&self) -> Option<&std::path::Path> {
        self.socket_path.as_deref()
    }

    /// The daemon's telemetry handle (snapshot it for `serve.*`
    /// counters, the queue-depth gauge and latency histograms).
    pub fn telemetry(&self) -> &Telemetry {
        &self.state.telemetry
    }

    /// Current accounting counters (live, monotone).
    pub fn stats(&self) -> DrainReport {
        self.state.snapshot()
    }

    /// Pauses the executors: requests are still admitted (and shed once
    /// the queue fills) but nothing executes until [`resume`].
    ///
    /// [`resume`]: ServeHandle::resume
    pub fn pause(&self) {
        self.state.inner.lock().unwrap().paused = true;
    }

    /// Resumes paused executors.
    pub fn resume(&self) {
        let mut g = self.state.inner.lock().unwrap();
        g.paused = false;
        self.state.work_ready.notify_all();
    }

    /// In-process graceful shutdown: drain, stop accepting, join every
    /// daemon thread, and return the final accounting.
    pub fn shutdown(mut self) -> DrainReport {
        self.state.begin_drain();
        self.state.wait_drained();
        self.state.stop.store(true, Ordering::SeqCst);
        self.join_threads();
        self.state.snapshot()
    }

    /// Blocks until a client-initiated `shutdown` op drains the daemon,
    /// then joins the threads and returns the final accounting.
    pub fn wait(mut self) -> DrainReport {
        self.join_threads();
        self.state.snapshot()
    }

    fn join_threads(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
    }
}

/// Blocking framed client for tests, the `pb call` subcommand, and the
/// throughput bench.
pub struct ServeClient {
    stream: ClientStream,
}

enum ClientStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            ClientStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            ClientStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            ClientStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            ClientStream::Unix(s) => s.flush(),
        }
    }
}

impl ServeClient {
    /// Connects to a TCP daemon.
    pub fn connect(addr: SocketAddr) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ServeClient { stream: ClientStream::Tcp(stream) })
    }

    /// Connects to a Unix-socket daemon.
    #[cfg(unix)]
    pub fn connect_unix(path: &std::path::Path) -> io::Result<ServeClient> {
        Ok(ServeClient {
            stream: ClientStream::Unix(std::os::unix::net::UnixStream::connect(path)?),
        })
    }

    /// Connects by endpoint string: an endpoint containing `/` is a
    /// Unix socket path, anything else is `host:port`.
    pub fn connect_str(endpoint: &str) -> io::Result<ServeClient> {
        #[cfg(unix)]
        if endpoint.contains('/') {
            return Self::connect_unix(std::path::Path::new(endpoint));
        }
        let addr = std::net::ToSocketAddrs::to_socket_addrs(endpoint)?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "endpoint resolves to nothing")
        })?;
        Self::connect(addr)
    }

    /// Sends one request frame and blocks for the response frame.
    pub fn call(&mut self, request: &str) -> Result<String, FrameError> {
        frame::write_frame(&mut self.stream, request.as_bytes()).map_err(FrameError::Io)?;
        let bytes = frame::read_frame(&mut self.stream)?;
        String::from_utf8(bytes).map_err(|_| {
            FrameError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "response frame is not valid UTF-8",
            ))
        })
    }

    /// [`call`](ServeClient::call), honoring shed responses: sleeps the
    /// served `retry_after_s` and retries with an incremented `attempt`
    /// field, up to `max_attempts` total tries. `request` must not
    /// carry an explicit `attempt` field of its own.
    ///
    /// Returns the final response — an `ok`, an `error`, or the last
    /// `shed` if the budget ran out.
    pub fn call_with_retry(
        &mut self,
        request: &str,
        max_attempts: u32,
    ) -> Result<String, FrameError> {
        use crate::telemetry::json;
        let body = request.trim();
        let mut response = self.call(body)?;
        for attempt in 2..=max_attempts.max(1) {
            let Ok(doc) = json::parse(&response) else { return Ok(response) };
            if doc.get("status").and_then(|s| s.as_str()) != Some("shed") {
                return Ok(response);
            }
            let delay =
                doc.get("retry_after_s").and_then(|v| v.as_f64()).unwrap_or(0.0).clamp(0.0, 60.0);
            std::thread::sleep(Duration::from_secs_f64(delay));
            let retry = match body.strip_prefix('{') {
                Some("}") => format!("{{\"attempt\":{attempt}}}"),
                Some(rest) => format!("{{\"attempt\":{attempt},{rest}"),
                None => body.to_string(),
            };
            response = self.call(&retry)?;
        }
        Ok(response)
    }
}
