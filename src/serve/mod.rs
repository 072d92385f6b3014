//! The serving layer: a resident orchestration daemon (`pb serve`).
//!
//! The batch CLI prices one question per process; this module keeps the
//! engine resident and answers many concurrent questions over a
//! length-framed JSON protocol (see [`frame`] for the wire format and
//! [`protocol`] for the request grammar):
//!
//! ```text
//! client ──frame──▶ admission ──queue──▶ executor ──fan-out──▶ waiters
//!                      │   ▲                │
//!                      │   └── coalesce ────┘       (identical in-flight
//!                      └── shed + retry-after        requests share one
//!                          when the queue is full    execution)
//! ```
//!
//! Three properties are load-bearing and pinned by
//! `tests/serve_protocol.rs`:
//!
//! 1. **Bit-identity** — a served response is byte-for-byte the result
//!    the batch CLI path computes for the same question, at any thread
//!    count, coalesced or not. Both front ends read requests through one
//!    field table per op ([`protocol`]) and run one [`Executor`], so
//!    they share every default, bound and engine call.
//! 2. **Conservation** — every submitted request is accepted or shed:
//!    `accepted + shed == submitted`, exactly, and shutdown drains
//!    without loss.
//! 3. **Robustness** — malformed frames get structured error replies;
//!    the stream never desyncs and the daemon never panics.
//!
//! # Quick start
//!
//! ```
//! use precision_beekeeping::serve::{spawn, ServeClient, ServeOptions};
//!
//! let daemon = spawn("127.0.0.1:0", ServeOptions::default()).unwrap();
//! let mut client = ServeClient::connect(daemon.addr()).unwrap();
//! let reply = client.call("{\"op\":\"recommend\",\"hives\":630,\"cap\":35}").unwrap();
//! assert!(reply.starts_with("{\"status\":\"ok\""));
//! let report = daemon.shutdown();
//! assert!(report.conservation_ok());
//! ```

mod execute;
pub mod frame;
pub mod protocol;
mod server;

pub use execute::Executor;
pub use server::{spawn, DrainReport, ServeClient, ServeHandle, ServeOptions, METRIC_FAMILIES};

#[cfg(unix)]
pub use server::spawn_unix;
