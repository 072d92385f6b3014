//! Discrete-event simulation of an *unsynchronized* server.
//!
//! The paper's server design rests on synchronized time slots: "every
//! client within a group has to start their communication with the server
//! at the same time … all synchronized in time thanks to a specific
//! hardware (GPS, for example)". This module asks what that buys by
//! simulating the alternative — clients wake uniformly at random within
//! the cycle, upload over a capacity-limited link (FIFO waiting) and are
//! processed one at a time — and accounting the same energy quantities,
//! so the slotted and asynchronous designs can be compared head-to-head
//! (`ablation_async` binary).

use crate::columns::{ClassView, TransferColumns};
use crate::faults::{
    emit_delivered, emit_sample, resolve_client, FaultPlan, Resolution, TransferTrace,
};
use crate::server::ServerModel;
use pb_telemetry::trace::{trace_id, SpanCtx, HOP_ARRIVAL, HOP_PROCESS, HOP_TRANSFER};
use pb_telemetry::{Fields, Schema, Slot, Telemetry};
use pb_units::{Joules, Seconds, Watts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outcome of one asynchronous cycle.
#[derive(Clone, Debug)]
pub struct AsyncCycleReport {
    /// Number of clients served.
    pub n_clients: usize,
    /// Wall-clock horizon: end of cycle or last completion, whichever is
    /// later (synchronization-free arrivals can spill past the cycle).
    pub horizon: Seconds,
    /// Total server energy over the horizon.
    pub server_energy: Joules,
    /// Time during which at least one upload was in progress.
    pub receive_busy: Seconds,
    /// Time during which the processor was busy.
    pub process_busy: Seconds,
    /// Mean client latency from wake-up to processed result.
    pub mean_latency: Seconds,
    /// Worst client latency.
    pub max_latency: Seconds,
    /// Largest number of clients simultaneously waiting for the uplink.
    pub peak_queue: usize,
}

/// Simulates one unsynchronized cycle: `n_clients` wake uniformly at
/// random in `[0, cycle)`, each uploads for the server's receive window
/// (at most `max_parallel` concurrent uploads; FIFO waiting), and jobs are
/// processed one at a time for `process_duration` each.
///
/// Energy model (matching the slotted accounting): idle power over the
/// whole horizon, plus the receive-power *delta* while ≥ 1 upload is
/// active, plus the process-power delta while the processor is busy.
///
/// A wrapper of [`simulate_async_cycle_with`] with no telemetry, tags,
/// memo or faults.
pub fn simulate_async_cycle<R: Rng + ?Sized>(
    n_clients: usize,
    server: &ServerModel,
    rng: &mut R,
) -> AsyncCycleReport {
    simulate_async_cycle_memoized(n_clients, server, rng, &Telemetry::disabled(), None, None)
}

/// Causal-tagging context for one DES server job: where this server's
/// clients sit in the fleet's global index space and what each terminal
/// hop costs, so the `des.*` and `trace.*` events can carry exact trace
/// ids and energy attribution. Tags only materialize when the
/// telemetry's tracing flag is active ([`Telemetry::with_tracing`]);
/// `None` (or an inactive flag) keeps the event stream byte-identical
/// to the untagged historical shape. Never touches the RNG streams.
#[derive(Clone, Copy, Debug)]
pub struct DesTrace {
    /// The sweep point's seed; trace ids derive from `(seed, client)`.
    pub point_seed: u64,
    /// Global index of this server's first client.
    pub base: usize,
    /// Client-side energy of a delivered sample.
    pub deliver_energy_j: f64,
    /// Energy charged per extra transfer attempt.
    pub retry_energy_j: f64,
    /// Energy of the edge fallback after a brown-out or retry
    /// exhaustion.
    pub fallback_energy_j: f64,
}

/// Shape-memoized per-trajectory constants, shared by every server of
/// the same shape within one sweep point.
///
/// The paper's populations are uniform, so after the RLE allocation a
/// million clients collapse to at most two distinct per-server client
/// counts. The quantities a DES trajectory accumulates by *repeated
/// addition of a constant* — today the CPU busy time, `m` additions of
/// the process duration — are therefore identical bit-for-bit across
/// every server of the same shape, and can be folded once per distinct
/// shape instead of once per server. Repeated addition is deliberate:
/// `m × p` rounds differently from `p + p + ⋯ + p` for non-dyadic `p`,
/// and the exact event loop performs the additions one at a time.
#[derive(Clone, Debug)]
pub struct ShapeMemo {
    process: f64,
    /// `(client count, Σ process)` per distinct shape, folded once.
    shapes: Vec<(usize, f64)>,
}

impl ShapeMemo {
    /// Folds the repeated-addition process-busy sum for every distinct
    /// shape in `shape_counts` (duplicates are folded once).
    pub fn for_server(server: &ServerModel, shape_counts: impl IntoIterator<Item = usize>) -> Self {
        let process = server.process_duration.value();
        let mut shapes: Vec<(usize, f64)> = Vec::new();
        for k in shape_counts {
            if !shapes.iter().any(|&(seen, _)| seen == k) {
                shapes.push((k, repeated_sum(process, k)));
            }
        }
        ShapeMemo { process, shapes }
    }

    /// The repeated-addition sum of `m` process durations: memoized for
    /// the allocation's shapes, folded inline for divergent counts (a
    /// faulted server delivers fewer clients than its shape holds).
    fn busy_for(&self, m: usize) -> f64 {
        self.shapes
            .iter()
            .find(|&&(k, _)| k == m)
            .map(|&(_, sum)| sum)
            .unwrap_or_else(|| repeated_sum(self.process, m))
    }
}

/// `value + value + ⋯` (`m` terms), the exact fold order of the event
/// loop's per-client `process_busy += process` accumulation.
fn repeated_sum(value: f64, m: usize) -> f64 {
    let mut sum = 0.0f64;
    for _ in 0..m {
        sum += value;
    }
    sum
}

/// [`simulate_async_cycle`] with observability, causal tags and a
/// [`ShapeMemo`], and no faults: a wrapper of
/// [`simulate_async_cycle_with`] kept at this signature because the
/// out-of-workspace `perfbench` harness compiles against it.
pub fn simulate_async_cycle_memoized<R: Rng + ?Sized>(
    n_clients: usize,
    server: &ServerModel,
    rng: &mut R,
    telemetry: &Telemetry,
    causal: Option<&DesTrace>,
    memo: Option<&ShapeMemo>,
) -> AsyncCycleReport {
    simulate_async_cycle_with(
        n_clients,
        server,
        rng,
        &DesRun { telemetry, causal, memo, faults: None },
    )
    .report
}

/// How one DES server job runs, besides its population, server and
/// arrival stream. None of the fields touches the arrival stream.
#[derive(Clone, Copy, Debug)]
pub struct DesRun<'a> {
    /// Telemetry sink: event counts by type (`des.events.*`), the peak
    /// uplink queue depth (`des.queue_depth.peak` gauge), the event-queue
    /// occupancy and horizon histograms (`des.queue.occupancy`,
    /// `des.cycle.horizon_s`), the replayed clients
    /// (`des.fastpath.replayed`, every participating client), a
    /// `des.cycle_done` summary when the sink keeps events, and one
    /// sim-time-stamped trace record per simulation event only when it
    /// also keeps trajectories ([`Telemetry::trajectories_recording`]).
    /// None of it changes the queueing model the cycle runs.
    pub telemetry: &'a Telemetry,
    /// Causal tags, active only under [`Telemetry::with_tracing`]: each
    /// client gets a root `trace.sample` span at its arrival instant,
    /// its `des.{arrival,transfer_done,process_done}` hops chain under
    /// the root (or under its successful attempt when faults are on),
    /// and a terminal `trace.delivered` or `fault.fallback` span ends
    /// the chain.
    pub causal: Option<&'a DesTrace>,
    /// The shape's repeated-addition constants, when the caller
    /// simulates many servers of identical shape.
    pub memo: Option<&'a ShapeMemo>,
    /// The fault plan as it strikes this server's clients; `None` when
    /// the plan cannot strike any client, which does no fault work at
    /// all.
    pub faults: Option<DesFaults<'a>>,
}

/// A fault plan applied to one DES server's clients.
#[derive(Clone, Copy, Debug)]
pub struct DesFaults<'a> {
    /// The plan.
    pub plan: &'a FaultPlan,
    /// Each client's drawn [`ClientClass`](crate::faults::ClientClass), in sorted-arrival order.
    pub classes: ClassView<'a>,
    /// Seed of this server's own fault stream (transfer draws), disjoint
    /// from the arrival stream.
    pub seed: u64,
}

/// The one per-server DES cycle. Clients wake at uniform random instants
/// (drawn from `rng`, then sorted). Under [`DesRun::faults`] each
/// client's participation follows its drawn [`ClientClass`](crate::faults::ClientClass):
/// browned-out and sensor-dropped clients never touch the uplink, and
/// uploaders resolve their transfer through the outage/packet-loss/retry
/// machinery of the faults module *before* entering the server's
/// queueing model (a failed attempt never occupies the uplink; a
/// successful retry arrives at its final attempt time). Fault draws come
/// from their own stream, so the arrival stream is the same with and
/// without faults, bit for bit.
///
/// The queueing model is the shape-memoized replay ([`replay_core`]),
/// which also emits the per-event trajectory records when a sink keeps
/// them or the run is tagged.
///
/// # Panics
///
/// When `server.max_parallel` is 0, as [`ServerModel::new`] does: an
/// uplink with no lanes never serves anyone.
pub fn simulate_async_cycle_with<R: Rng + ?Sized>(
    n_clients: usize,
    server: &ServerModel,
    rng: &mut R,
    run: &DesRun<'_>,
) -> DesRunReport {
    assert!(server.max_parallel > 0, "need at least one client per slot");
    let cycle = server.cycle.value();
    let mut arrivals: Vec<f64> = (0..n_clients).map(|_| rng.gen_range(0.0..cycle)).collect();
    sort_arrival_times(&mut arrivals);

    let telemetry = run.telemetry;
    let tag = run.causal.filter(|_| telemetry.tracing_active());
    let mut attempts = n_clients as u64;
    let mut retries = 0u64;
    let mut fallbacks = 0u64;
    // Per local client: the span its network hops chain under, plus the
    // delivered set's attempt counts for the terminal spans emitted
    // after the replay.
    let mut links: Vec<Option<SpanCtx>> = Vec::new();
    let mut delivered_tags: Vec<(usize, u64, u64)> = Vec::new();
    // Resolved transfers as flat columns (effective time, client, attempt
    // count), built only when faults can divert clients. Otherwise the
    // sorted arrivals are the delivered stream, client i at position i.
    let mut resolved = run.faults.map(|_| TransferColumns::with_capacity(n_clients));
    if run.faults.is_some() || tag.is_some() {
        attempts = 0;
        let mut faults = run.faults.map(|f| {
            assert_eq!(f.classes.len(), n_clients, "one class per client");
            (f, StdRng::seed_from_u64(f.seed))
        });
        if tag.is_some() {
            links = vec![None; n_clients];
        }
        for (client, &t) in arrivals.iter().enumerate() {
            let tc = tag.map(|dt| {
                let global = (dt.base + client) as u64;
                TransferTrace {
                    client: global,
                    trace: trace_id(dt.point_seed, global),
                    retry_energy_j: dt.retry_energy_j,
                    fallback_energy_j: dt.fallback_energy_j,
                }
            });
            let outcome = match faults.as_mut() {
                Some((f, frng)) => {
                    let class = f.classes.get(client);
                    resolve_client(f.plan, class, Seconds(t), frng, telemetry, tc.as_ref())
                }
                None => {
                    if let Some(tc) = &tc {
                        emit_sample(telemetry, t, tc.trace, tc.client, "uploader");
                    }
                    Resolution::Delivered { attempts: 1, at: Seconds(t) }
                }
            };
            attempts += outcome.attempts();
            retries += outcome.attempts().saturating_sub(1);
            match outcome {
                Resolution::Dropped => {}
                Resolution::FellBack { .. } => fallbacks += 1,
                Resolution::Delivered { attempts: a, at } => {
                    if let Some(cols) = resolved.as_mut() {
                        cols.push(at.value(), client, a);
                    }
                    if let Some(tc) = &tc {
                        // Without faults there is no attempt chain: the
                        // hops hang off the root.
                        links[client] = Some(if run.faults.is_some() {
                            SpanCtx::attempt(tc.trace, a as u32)
                        } else {
                            SpanCtx::root(tc.trace)
                        });
                        delivered_tags.push((client, tc.trace, a));
                    }
                }
            }
        }
    }
    let delivered = resolved.as_ref().map_or(n_clients, TransferColumns::len) as u64;
    // The replay needs entries in event-queue *pop* order — (time, push
    // index) — which the clean/divergent merge produces in O(m + d log d)
    // for d divergent clients.
    let pop_order = resolved.as_ref().map(TransferColumns::pop_order_columns);
    let (times, clients) = match &pop_order {
        None => (arrivals.as_slice(), None),
        Some((times, clients)) => (times.as_slice(), Some(clients.as_slice())),
    };
    let tagged_links = tag.map(|_| links.as_slice());
    let out = replay_core(n_clients, times, clients, server, run.memo, telemetry, tagged_links);
    if let Some(dt) = tag {
        for &(client, tid, a) in &delivered_tags {
            let global = (dt.base + client) as u64;
            emit_delivered(telemetry, out.completion[client], tid, global, a, dt.deliver_energy_j);
        }
    }

    let horizon = out.last_time.max(cycle);
    let server_energy = energy_over(server, horizon, out.receive_busy, out.process_busy);
    // Latency from the *original* wake-up instant, over delivered clients
    // only (the others never complete on the server), in client order: a
    // sum first, then a 0-seeded max.
    let mut lat_sum = 0.0f64;
    let mut max_latency = 0.0f64;
    for (&c, a) in out.completion.iter().zip(&arrivals) {
        if c > 0.0 {
            let l = c - a;
            lat_sum += l;
            max_latency = max_latency.max(l);
        }
    }
    let mean_latency = if delivered > 0 { lat_sum / delivered as f64 } else { 0.0 };

    flush_telemetry(telemetry, n_clients, &out, horizon, server_energy);

    DesRunReport {
        report: AsyncCycleReport {
            n_clients,
            horizon: Seconds(horizon),
            server_energy,
            receive_busy: Seconds(out.receive_busy),
            process_busy: Seconds(out.process_busy),
            mean_latency: Seconds(mean_latency),
            max_latency: Seconds(max_latency),
            peak_queue: out.peak_queue,
        },
        attempts,
        retries,
        delivered,
        fallbacks,
    }
}

/// [`simulate_async_cycle_with`]'s outcome: the cycle report plus the
/// server's share of the delivery accounting.
#[derive(Clone, Debug)]
pub struct DesRunReport {
    /// The usual asynchronous-cycle report (latency over delivered
    /// clients only).
    pub report: AsyncCycleReport,
    /// Transfer attempts made by this server's uploaders.
    pub attempts: u64,
    /// Attempts beyond each uploader's first.
    pub retries: u64,
    /// Uploads that reached the server.
    pub delivered: u64,
    /// Clients that fell back to edge inference (brown-outs plus
    /// exhausted retry budgets).
    pub fallbacks: u64,
}

/// What the event loop measures; energy and latency are derived by the
/// callers.
struct LoopOutcome {
    receive_busy: f64,
    process_busy: f64,
    /// Per-client completion instant (0 when the client never completed).
    completion: Vec<f64>,
    peak_queue: usize,
    last_time: f64,
    n_arrivals: u64,
    n_transfers: u64,
    n_processed: u64,
}

/// The slotted accounting's energy model over an asynchronous horizon:
/// idle power throughout, plus the receive/process power *deltas* while
/// the NIC or CPU is busy.
fn energy_over(server: &ServerModel, horizon: f64, receive_busy: f64, process_busy: f64) -> Joules {
    let receive_delta = server.receive_power - server.idle_power;
    let process_delta = (server.process_power - server.idle_power).max(Watts::ZERO);
    server.idle_power * Seconds(horizon)
        + receive_delta * Seconds(receive_busy)
        + process_delta * Seconds(process_busy)
}

/// Per-worker scratch for [`replay_core`]: the intermediate per-entry
/// columns are reused across the thousands of servers a sweep point
/// fans over one worker, so the replay allocates nothing but its
/// completion column. Every cell is rewritten before it is read (the
/// columns are rebuilt front to back each call), so reuse cannot leak
/// state between servers.
#[derive(Default)]
struct ReplayScratch {
    finish: Vec<f64>,
    proc_end: Vec<f64>,
    queued_starts: Vec<f64>,
}

thread_local! {
    static REPLAY_SCRATCH: std::cell::RefCell<ReplayScratch> =
        std::cell::RefCell::new(ReplayScratch::default());
    static SORT_SCRATCH: std::cell::RefCell<(Vec<u32>, Vec<f64>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// Sorts an arrival-time array ascending, byte-identical to
/// `sort_unstable_by(f64::total_cmp)`.
///
/// Arrival draws are uniform over the cycle, so a bucket scatter leaves
/// ~1 element per bucket and a single insertion pass finishes the job
/// in O(m) — roughly 2–3× faster than the comparison sort at the fleet
/// populations the scale sweep runs. Stability is irrelevant (values
/// carry no payload), and the inputs are finite and non-negative (no
/// NaN, no `-0.0`), so value order fully determines the output bytes.
/// A skewed or degenerate distribution only costs speed, not
/// correctness: the insertion pass repairs any bucketing.
fn sort_arrival_times(times: &mut [f64]) {
    let m = times.len();
    if m < 64 {
        times.sort_unstable_by(f64::total_cmp);
        return;
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &t in times.iter() {
        lo = lo.min(t);
        hi = hi.max(t);
    }
    let span = hi - lo;
    if !(span.is_finite() && span > 0.0) {
        // All-equal (already sorted) or non-finite garbage: fall back.
        times.sort_unstable_by(f64::total_cmp);
        return;
    }
    let n_buckets = m.next_power_of_two();
    let scale = n_buckets as f64 / span;
    let bucket_of = |t: f64| (((t - lo) * scale) as usize).min(n_buckets - 1);
    SORT_SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        let (counts, aux) = &mut *s;
        counts.clear();
        counts.resize(n_buckets, 0);
        aux.clear();
        aux.resize(m, 0.0);
        for &t in times.iter() {
            counts[bucket_of(t)] += 1;
        }
        let mut offset = 0u32;
        for c in counts.iter_mut() {
            let n = *c;
            *c = offset;
            offset += n;
        }
        for &t in times.iter() {
            let slot = &mut counts[bucket_of(t)];
            aux[*slot as usize] = t;
            *slot += 1;
        }
        times.copy_from_slice(aux);
    });
    // Buckets are ordered by value; the pass below orders within them
    // (expected O(1) displacement per element).
    for i in 1..m {
        let t = times[i];
        let mut j = i;
        while j > 0 && times[j - 1] > t {
            times[j] = times[j - 1];
            j -= 1;
        }
        times[j] = t;
    }
    debug_assert!(times.windows(2).all(|w| w[0] <= w[1]));
}

/// The asynchronous server's queueing model: an O(m) replay of the
/// event-by-event simulation (a min-heap of arrival, transfer-done and
/// process-done events, kept as the bit-identity oracle of this
/// module's tests).
///
/// `times` holds the participating clients' effective arrival instants
/// in event-queue *pop* order (time ascending, ties in push order);
/// `clients` maps pop position to client id, or `None` when position
/// `i` *is* client `i` (the sorted fault-free case). In pop order the
/// event simulation is a pure recurrence — no event queue needed:
///
/// * **Uplink**: client `i` (capacity `C`) starts its upload at
///   `max(aᵢ, fᵢ₋C)` where `f` is the upload-finish sequence; it queued
///   iff `fᵢ₋C ≥ aᵢ` (non-strict: at equal times the arrival pops
///   before the transfer-done, so client `i−C` still occupies a lane).
/// * **Receive-busy**: the union of `[startᵢ, fᵢ]` intervals, one
///   `end − begin` addition per maximal busy period in chronological
///   order — operand-identical to the loop's `now − receive_since`. A
///   gap opens iff `startᵢ > fᵢ₋₁` strictly (at a tie the arrival pops
///   first and keeps the NIC busy).
/// * **CPU**: jobs start at `max(fᵢ, procᵢ₋₁)` with the loop's strict
///   wait condition (`busy_until > now`), finish `process` later;
///   `process_busy` is the repeated-addition fold the [`ShapeMemo`]
///   caches per shape.
/// * **Wait queue**: the waiting set at a queued arrival `aᵢ` is the
///   suffix of queued clients whose start is `≥ aᵢ` — a two-pointer
///   scan, since starts and arrivals are both monotone.
///
/// When a sink keeps trajectories or the run is tagged (`links`), the
/// finished columns then feed [`emit_trajectories`], which rebuilds the
/// simulation's per-event records in its exact pop order; the
/// per-client loop itself never branches on telemetry.
fn replay_core(
    n_clients: usize,
    times: &[f64],
    clients: Option<&[u32]>,
    server: &ServerModel,
    memo: Option<&ShapeMemo>,
    telemetry: &Telemetry,
    links: Option<&[Option<SpanCtx>]>,
) -> LoopOutcome {
    let m = times.len();
    let transfer = server.receive_duration.value();
    let process = server.process_duration.value();
    let cap = server.max_parallel;

    REPLAY_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let ReplayScratch { finish, proc_end, queued_starts } = &mut *scratch;
        finish.clear();
        proc_end.clear();
        queued_starts.clear();
        finish.reserve(m);
        proc_end.reserve(m);

        let mut receive_busy = 0.0f64;
        let mut peak_queue = 0usize;
        // `released` counts the prefix of queued clients whose uplink
        // handoff already happened (starts are monotone).
        let mut released = 0usize;

        // Current receive-busy period.
        let mut busy_begin = 0.0f64;
        let mut busy_end = 0.0f64;
        let mut prev_proc_end = 0.0f64;

        for i in 0..m {
            let a = times[i];
            debug_assert!(i == 0 || times[i - 1] <= a, "replay entries must be in pop order");
            let (start, q) =
                if i >= cap && finish[i - cap] >= a { (finish[i - cap], true) } else { (a, false) };
            let f = start + transfer;
            finish.push(f);
            if q {
                queued_starts.push(start);
                while released < queued_starts.len() && queued_starts[released] < a {
                    released += 1;
                }
                peak_queue = peak_queue.max(queued_starts.len() - released);
            }
            if i == 0 {
                busy_begin = start;
                busy_end = f;
            } else if start > busy_end {
                receive_busy += busy_end - busy_begin;
                busy_begin = start;
                busy_end = f;
            } else {
                busy_end = f;
            }
            // The loop's "CPU idle at this transfer-finish" test.
            let free = !(i > 0 && prev_proc_end > f);
            let cpu_start = if free { f } else { prev_proc_end };
            prev_proc_end = cpu_start + process;
            proc_end.push(prev_proc_end);
        }
        if m > 0 {
            receive_busy += busy_end - busy_begin;
        }

        let process_busy = match memo {
            Some(memo) => memo.busy_for(m),
            None => repeated_sum(process, m),
        };
        let last_time = if m > 0 { proc_end[m - 1] } else { 0.0 };
        if telemetry.trajectories_recording() || links.is_some() {
            emit_trajectories(times, clients, finish, proc_end, cap, telemetry, links);
        }

        let completion = match clients {
            None => {
                // Pop position i is client i: the process-finish column
                // *is* the completion column.
                debug_assert_eq!(n_clients, m, "positional replay needs one entry per client");
                proc_end.clone()
            }
            Some(cl) => {
                debug_assert_eq!(cl.len(), m, "one client id per entry");
                let mut completion = vec![0.0f64; n_clients];
                for (i, &c) in cl.iter().enumerate() {
                    completion[c as usize] = proc_end[i];
                }
                completion
            }
        };

        LoopOutcome {
            receive_busy,
            process_busy,
            completion,
            peak_queue,
            last_time,
            n_arrivals: m as u64,
            n_transfers: m as u64,
            n_processed: m as u64,
        }
    })
}

/// Rebuilds the event simulation's per-event `des.*` records from a
/// finished replay, in the simulation's exact pop order.
///
/// Each event stream is already in pop order when indexed by pop
/// position: arrivals at `times`, transfer-dones at `finish`,
/// process-dones at `proc_end`. A heap-free 3-way merge interleaves them
/// by the event queue's key, (time, push sequence number):
///
/// * arrivals hold the numbers `0..m` (every arrival is pushed before
///   the first pop), so at a tie they precede every other event;
/// * a transfer-done or process-done takes the next number when the
///   event that schedules it pops. An unqueued arrival schedules its own
///   transfer-done. A transfer-done hands its lane to the client `cap`
///   positions later if that one queued, then schedules its own
///   process-done if the CPU is free. A process-done schedules the next
///   client's if that one waited for the CPU.
///
/// Kind order alone cannot settle a tie between a transfer-done and a
/// process-done: with `process > transfer`, a process-done scheduled
/// earlier pops before a transfer-done of the same instant.
fn emit_trajectories(
    times: &[f64],
    clients: Option<&[u32]>,
    finish: &[f64],
    proc_end: &[f64],
    cap: usize,
    telemetry: &Telemetry,
    links: Option<&[Option<SpanCtx>]>,
) {
    let m = times.len();
    let client_at = |i: usize| clients.map_or(i, |c| c[i] as usize);
    // The replay's uplink-queue and CPU-idle tests, per pop position.
    let queued = |i: usize| i >= cap && finish[i - cap] >= times[i];
    let cpu_free = |i: usize| !(i > 0 && proc_end[i - 1] > finish[i]);
    // Sequence numbers of the scheduled transfer-dones and process-dones
    // by pop position. `u64::MAX` marks one not scheduled yet, which
    // sorts after every scheduled event of the same instant.
    let mut seq_transfer = vec![u64::MAX; m];
    let mut seq_process = vec![u64::MAX; m];
    let mut next_seq = m as u64;
    let mut schedule = |slot: &mut u64| {
        *slot = next_seq;
        next_seq += 1;
    };
    let head = |col: &[f64], seq: &[u64], i: usize| {
        if i < m {
            (col[i], seq[i])
        } else {
            (f64::INFINITY, u64::MAX)
        }
    };
    // Clients waiting for an uplink lane.
    let mut waiting = 0usize;
    let (mut a, mut t, mut p) = (0usize, 0usize, 0usize);
    while a < m || t < m || p < m {
        let (tt, st) = head(finish, &seq_transfer, t);
        let (tp, sp) = head(proc_end, &seq_process, p);
        if a < m && times[a] <= tt && times[a] <= tp {
            let client = client_at(a);
            let q = queued(a);
            let fields = [("client", client.into()), ("queued", q.into())];
            emit_hop(telemetry, links, times[a], "des.arrival", client, &[HOP_ARRIVAL], fields);
            if q {
                waiting += 1;
            } else {
                schedule(&mut seq_transfer[a]);
            }
            a += 1;
        } else if tt.total_cmp(&tp).then(st.cmp(&sp)).is_lt() {
            debug_assert_ne!(st, u64::MAX, "transfer-done popped before it was scheduled");
            let client = client_at(t);
            let fields = [("client", client.into()), ("queue", waiting.into())];
            let hops = [HOP_ARRIVAL, HOP_TRANSFER];
            emit_hop(telemetry, links, tt, "des.transfer_done", client, &hops, fields);
            if t + cap < m && queued(t + cap) {
                debug_assert!(waiting > 0, "lane handed to a client that has not arrived");
                waiting -= 1;
                schedule(&mut seq_transfer[t + cap]);
            }
            if cpu_free(t) {
                schedule(&mut seq_process[t]);
            }
            t += 1;
        } else {
            debug_assert_ne!(sp, u64::MAX, "process-done popped before it was scheduled");
            let client = client_at(p);
            let hops = [HOP_ARRIVAL, HOP_TRANSFER, HOP_PROCESS];
            let fields = [("client", client.into())];
            emit_hop(telemetry, links, tp, "des.process_done", client, &hops, fields);
            if p + 1 < m && !cpu_free(p + 1) {
                schedule(&mut seq_process[p + 1]);
            }
            p += 1;
        }
    }
}

/// One `des.*` trajectory record at `now`, carrying the causal span
/// `link.child(hops[0]).child(hops[1])…` when the client has a link.
fn emit_hop(
    telemetry: &Telemetry,
    links: Option<&[Option<SpanCtx>]>,
    now: f64,
    kind: &'static str,
    client: usize,
    hops: &[u32],
    fields: impl Into<Fields>,
) {
    match links.and_then(|l| l[client]) {
        Some(link) => {
            let span = hops.iter().fold(link, |span, &hop| span.child(hop));
            telemetry.trace_event(now, kind, span, fields);
        }
        None => telemetry.event(now, kind, fields),
    }
}

/// One `des.cycle_done` per server of a recorded cycle, packed so it
/// records without a heap block.
static CYCLE_DONE: Schema = Schema(&[
    ("n_clients", Slot::U64),
    ("peak_queue", Slot::U64),
    ("receive_busy_s", Slot::F64),
    ("process_busy_s", Slot::F64),
    ("server_energy_j", Slot::F64),
]);

/// Mirrors one cycle's event counts, its replayed clients, queue peaks,
/// horizon and — when the sink keeps events — the `des.cycle_done`
/// summary into telemetry.
///
/// The event queue's occupancy peak is the arrival count: every arrival
/// is pushed before the first pop, and a client never has more than one
/// pending event, so the queue never grows past them.
fn flush_telemetry(
    telemetry: &Telemetry,
    n_clients: usize,
    out: &LoopOutcome,
    horizon: f64,
    server_energy: Joules,
) {
    if !telemetry.is_enabled() {
        return;
    }
    telemetry.add_to_counter("des.events.arrival", out.n_arrivals);
    telemetry.add_to_counter("des.events.transfer_done", out.n_transfers);
    telemetry.add_to_counter("des.events.process_done", out.n_processed);
    // Every participating client arrives exactly once.
    if out.n_arrivals > 0 {
        telemetry.add_to_counter("des.fastpath.replayed", out.n_arrivals);
    }
    if let Some(r) = telemetry.registry() {
        r.gauge("des.queue_depth.peak").set_max(out.peak_queue as f64);
    }
    telemetry.observe("des.queue.occupancy", out.n_arrivals as f64);
    telemetry.observe("des.cycle.horizon_s", horizon);
    if telemetry.events_recording() {
        let values = [
            n_clients.into(),
            out.peak_queue.into(),
            out.receive_busy.into(),
            out.process_busy.into(),
            server_energy.value().into(),
        ];
        telemetry.event(horizon, "des.cycle_done", Fields::packed(&CYCLE_DONE, values));
    }
}

/// The event-by-event simulation the replay was derived from, kept as
/// its bit-identity oracle.
#[cfg(test)]
mod oracle {
    use super::*;
    use std::cmp::{Ordering, Reverse};
    use std::collections::{BinaryHeap, VecDeque};

    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    enum Event {
        /// A client wakes and wants the uplink.
        Arrival { client: usize },
        /// A client's upload finishes; it joins the processing queue.
        TransferDone { client: usize },
        /// The processor finishes a client's job.
        ProcessDone { client: usize },
    }

    /// Event-queue key: simulation time, then a push sequence number, so
    /// simultaneous events pop in scheduling order. `seq` is unique, so
    /// the order is total and the [`Event`] payload never breaks a tie.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct EventKey {
        time: f64,
        seq: u64,
    }

    impl Eq for EventKey {}

    impl PartialOrd for EventKey {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for EventKey {
        fn cmp(&self, other: &Self) -> Ordering {
            self.time.total_cmp(&other.time).then(self.seq.cmp(&other.seq))
        }
    }

    /// The exact event-by-event loop: the historical production path,
    /// and the reference [`replay_core`] and [`emit_trajectories`] must
    /// match bit for bit.
    ///
    /// Events pop from a min-heap in [`EventKey`] order: time ascending,
    /// ties in push order. `entries` are the arrivals in *push* order.
    /// Per-event `des.*` records are built only for a sink that keeps
    /// trajectories or a tagged run.
    pub(super) fn exact_event_loop(
        n_clients: usize,
        entries: &[(f64, usize)],
        server: &ServerModel,
        telemetry: &Telemetry,
        links: Option<&[Option<SpanCtx>]>,
    ) -> LoopOutcome {
        // The span each client's network hops chain under (None = untagged).
        let link = |client: usize| links.and_then(|l| l[client]);
        let transfer = server.receive_duration.value();
        let process = server.process_duration.value();

        // `Reverse` turns the std max-heap into a min-heap.
        let mut events: BinaryHeap<Reverse<(EventKey, Event)>> =
            BinaryHeap::with_capacity(entries.len());
        let mut seq = 0u64;
        let mut push = |events: &mut BinaryHeap<_>, time: f64, ev: Event| {
            events.push(Reverse((EventKey { time, seq }, ev)));
            seq += 1;
        };

        for &(t, client) in entries {
            push(&mut events, t, Event::Arrival { client });
        }

        let mut uplink_in_use = 0usize;
        let mut uplink_wait: VecDeque<usize> = VecDeque::new();
        // The job on the CPU and the instant it ends.
        let mut cpu: Option<(usize, f64)> = None;
        let mut cpu_wait: VecDeque<usize> = VecDeque::new();

        let mut receive_busy = 0.0f64;
        let mut receive_since = 0.0f64;
        let mut process_busy = 0.0f64;
        let mut completion = vec![0.0f64; n_clients];
        let mut peak_queue = 0usize;
        let mut last_time = 0.0f64;

        // Event counts stay in locals during the loop; they flush into the
        // registry once at the end so the hot path pays no atomic traffic.
        let trace_events = telemetry.trajectories_recording() || links.is_some();
        let mut n_arrivals = 0u64;
        let mut n_transfers = 0u64;
        let mut n_processed = 0u64;

        while let Some(Reverse((key, ev))) = events.pop() {
            let now = key.time;
            debug_assert!(now >= last_time, "event popped out of order: {now} after {last_time}");
            last_time = now;
            match ev {
                Event::Arrival { client } => {
                    n_arrivals += 1;
                    if trace_events {
                        let fields = vec![
                            ("client", client.into()),
                            ("queued", (uplink_in_use >= server.max_parallel).into()),
                        ];
                        match link(client) {
                            Some(ctx) => {
                                telemetry.trace_event(
                                    now,
                                    "des.arrival",
                                    ctx.child(HOP_ARRIVAL),
                                    fields,
                                );
                            }
                            None => telemetry.event(now, "des.arrival", fields),
                        }
                    }
                    if uplink_in_use < server.max_parallel {
                        if uplink_in_use == 0 {
                            receive_since = now;
                        }
                        uplink_in_use += 1;
                        push(&mut events, now + transfer, Event::TransferDone { client });
                    } else {
                        uplink_wait.push_back(client);
                        peak_queue = peak_queue.max(uplink_wait.len());
                    }
                }
                Event::TransferDone { client } => {
                    n_transfers += 1;
                    if trace_events {
                        let fields =
                            vec![("client", client.into()), ("queue", uplink_wait.len().into())];
                        match link(client) {
                            Some(ctx) => {
                                let span = ctx.child(HOP_ARRIVAL).child(HOP_TRANSFER);
                                telemetry.trace_event(now, "des.transfer_done", span, fields);
                            }
                            None => telemetry.event(now, "des.transfer_done", fields),
                        }
                    }
                    // Hand the uplink to the next waiter (if any).
                    if let Some(next) = uplink_wait.pop_front() {
                        push(&mut events, now + transfer, Event::TransferDone { client: next });
                    } else {
                        uplink_in_use -= 1;
                        if uplink_in_use == 0 {
                            receive_busy += now - receive_since;
                        }
                    }
                    // Queue for processing. The CPU is free only when no
                    // one is waiting AND the current run has ended. The
                    // wait-queue check matters at exact float ties: when a
                    // transfer finishes at precisely the running job's end (the
                    // constant transfer/process durations put both event
                    // streams on a shared lattice under saturation), the
                    // pending process-done for that instant has not popped
                    // yet — starting this client here would jump it past
                    // the FIFO waiters and double-book the CPU.
                    match cpu {
                        Some((_, t)) if t > now || !cpu_wait.is_empty() => {
                            cpu_wait.push_back(client)
                        }
                        _ => {
                            cpu = Some((client, now + process));
                            process_busy += process;
                            push(&mut events, now + process, Event::ProcessDone { client });
                        }
                    }
                }
                Event::ProcessDone { client } => {
                    n_processed += 1;
                    if trace_events {
                        let fields = vec![("client", client.into())];
                        match link(client) {
                            Some(ctx) => {
                                let span =
                                    ctx.child(HOP_ARRIVAL).child(HOP_TRANSFER).child(HOP_PROCESS);
                                telemetry.trace_event(now, "des.process_done", span, fields);
                            }
                            None => telemetry.event(now, "des.process_done", fields),
                        }
                    }
                    completion[client] = now;
                    // A transfer-done of this same instant that popped
                    // first found the CPU free (`t > now` fails at
                    // `t == now`) and already took it; then this
                    // completion frees nothing, and handing the CPU to
                    // the next waiter as well would run two jobs at once.
                    if cpu.is_some_and(|(job, _)| job == client) {
                        if let Some(next) = cpu_wait.pop_front() {
                            cpu = Some((next, now + process));
                            process_busy += process;
                            push(&mut events, now + process, Event::ProcessDone { client: next });
                        }
                    }
                }
            }
        }
        if uplink_in_use > 0 {
            receive_busy += last_time - receive_since;
        }

        LoopOutcome {
            receive_busy,
            process_busy,
            completion,
            peak_queue,
            last_time,
            n_arrivals,
            n_transfers,
            n_processed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::presets;
    use crate::ServiceKind;
    use pb_telemetry::Value;

    fn server(cap: usize) -> ServerModel {
        presets::cloud_server(ServiceKind::Cnn, cap)
    }

    /// The CPU hand-off at an exact float tie: a transfer finishing at
    /// precisely the running job's end must join the back of a non-empty
    /// wait queue, not seize the CPU past the FIFO waiters. Constant
    /// transfer/process durations put both event streams on a shared
    /// lattice once the uplink saturates, so these ties are reachable
    /// (transfer 15 s, process 1 s, cap 35, 1000 clients hits them);
    /// the single-CPU makespan lower bound `m × process` is the
    /// tell-tale a queue-jump would break.
    #[test]
    fn cpu_ties_keep_fifo_order_and_single_occupancy() {
        let srv = server(35);
        let k = 1000usize;
        let cycle = srv.cycle.value();
        let mut rng = StdRng::seed_from_u64(0xABCD ^ k as u64);
        let mut arrivals: Vec<f64> = (0..k).map(|_| rng.gen_range(0.0..cycle)).collect();
        sort_arrival_times(&mut arrivals);
        let entries: Vec<(f64, usize)> =
            arrivals.iter().enumerate().map(|(client, &t)| (t, client)).collect();
        let exact = oracle::exact_event_loop(k, &entries, &srv, &Telemetry::ring(1), None);
        let process = srv.process_duration.value();
        assert!(
            exact.last_time >= k as f64 * process,
            "single CPU cannot finish {k} jobs of {process} s by {} s",
            exact.last_time
        );
        let fast = replay_core(k, &arrivals, None, &srv, None, &Telemetry::disabled(), None);
        assert_eq!(outcome_bits(&fast), outcome_bits(&exact));
    }

    /// A server with integer transfer and process durations: on a
    /// lattice, arrival, transfer-done and process-done instants collide
    /// exactly, which is where event order is decided by push sequence.
    fn lattice_server(cap: usize, transfer: u32, process: u32) -> ServerModel {
        ServerModel {
            receive_duration: Seconds(f64::from(transfer)),
            process_duration: Seconds(f64::from(process)),
            max_parallel: cap,
            ..server(cap)
        }
    }

    /// Everything a [`LoopOutcome`] holds, floats as bits.
    fn outcome_bits(o: &LoopOutcome) -> (u64, u64, Vec<u64>, usize, u64, [u64; 3]) {
        (
            o.receive_busy.to_bits(),
            o.process_busy.to_bits(),
            o.completion.iter().map(|c| c.to_bits()).collect(),
            o.peak_queue,
            o.last_time.to_bits(),
            [o.n_arrivals, o.n_transfers, o.n_processed],
        )
    }

    /// Every recorded event as (t bits, kind, fields), in emission order.
    /// Tagged events carry their trace/span/parent ids as fields.
    fn event_tuples(tel: &Telemetry) -> Vec<(u64, String, String)> {
        let events = tel.events();
        debug_assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        events
            .iter()
            .map(|e| (e.t_sim.to_bits(), e.kind.to_string(), format!("{:?}", e.fields)))
            .collect()
    }

    /// Runs replay + emitter and the oracle loop on the same resolved
    /// transfers of `n_clients` clients, and asserts identical outcomes
    /// and identical event streams. `rows` are in push (client) order;
    /// with `positional`, they must be every client's clean transfer,
    /// and the replay takes its positional (no client column) form.
    fn assert_matches_oracle(
        srv: &ServerModel,
        n_clients: usize,
        rows: &TransferColumns,
        positional: bool,
        links: Option<&[Option<SpanCtx>]>,
    ) {
        let (fast_tel, exact_tel) = (Telemetry::enabled(), Telemetry::enabled());
        let fast = if positional {
            assert_eq!(rows.divergent_count(), 0);
            let (times, _) = rows.pop_order_columns();
            replay_core(n_clients, &times, None, srv, None, &fast_tel, links)
        } else {
            let (times, clients) = rows.pop_order_columns();
            replay_core(n_clients, &times, Some(&clients), srv, None, &fast_tel, links)
        };
        let exact =
            oracle::exact_event_loop(n_clients, &rows.push_order_entries(), srv, &exact_tel, links);
        let at = format!(
            "cap {}, transfer {}, process {}, n {n_clients}",
            srv.max_parallel, srv.receive_duration, srv.process_duration
        );
        // One CPU: completions of delivered clients lie at least one
        // process duration apart.
        let mut done: Vec<f64> = exact.completion.iter().copied().filter(|&c| c > 0.0).collect();
        done.sort_by(f64::total_cmp);
        let process = srv.process_duration.value();
        assert!(done.windows(2).all(|w| w[1] >= w[0] + process), "{at}: CPU double-booked");
        assert_eq!(outcome_bits(&fast), outcome_bits(&exact), "{at}: outcome diverged");
        let (got, want) = (event_tuples(&fast_tel), event_tuples(&exact_tel));
        assert_eq!(got.len(), want.len(), "{at}: event count");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "{at}: event {i} diverged");
        }
    }

    /// Generated resolved transfers: `n` clients wake on a grid of
    /// `grid` integer instants (so many share one), sorted; a `dropped`
    /// share never reaches the uplink and a `divergent` share arrives
    /// an integer number of seconds late, out of wake-up order.
    fn lattice_rows(
        rng: &mut StdRng,
        n: usize,
        grid: u32,
        dropped: f64,
        divergent: f64,
    ) -> TransferColumns {
        let mut wake: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(0..grid))).collect();
        wake.sort_by(f64::total_cmp);
        let mut rows = TransferColumns::with_capacity(n);
        for (client, &t) in wake.iter().enumerate() {
            if rng.gen::<f64>() < dropped {
                continue;
            }
            if rng.gen::<f64>() < divergent {
                let attempts = rng.gen_range(2u64..5);
                rows.push(t + f64::from(rng.gen_range(1u32..40)), client, attempts);
            } else {
                rows.push(t, client, 1);
            }
        }
        rows
    }

    /// Causal links as the cycle builds them: an attempt span for every
    /// delivered client, keyed by its trace id.
    fn links_for(rows: &TransferColumns, n_clients: usize) -> Vec<Option<SpanCtx>> {
        let mut links = vec![None; n_clients];
        for (_, client) in rows.push_order_entries() {
            links[client] = Some(SpanCtx::attempt(trace_id(0xD35, client as u64), 1));
        }
        links
    }

    /// The tie PR 9's kind-order rule (arrival < transfer-done <
    /// process-done) got wrong. Cap 1, transfer 1 s, process 2 s, three
    /// clients waking at t = 0: at t = 3 client 0's process-done (pushed
    /// at t = 1, seq 5) pops before client 2's transfer-done (pushed at
    /// t = 2, seq 6).
    #[test]
    fn process_done_pushed_first_pops_first_at_a_tie() {
        let srv = lattice_server(1, 1, 2);
        let mut rows = TransferColumns::with_capacity(3);
        for client in 0..3 {
            rows.push(0.0, client, 1);
        }
        assert_matches_oracle(&srv, 3, &rows, true, None);
        let tel = Telemetry::enabled();
        let (times, _) = rows.pop_order_columns();
        replay_core(3, &times, None, &srv, None, &tel, None);
        let events = tel.events();
        let order: Vec<(f64, &str, Value)> = events
            .iter()
            .map(|e| (e.t_sim, e.kind.as_ref(), e.fields.get("client").unwrap().into_owned()))
            .collect();
        let client = |c: u64| Value::U64(c);
        assert_eq!(
            order,
            [
                (0.0, "des.arrival", client(0)),
                (0.0, "des.arrival", client(1)),
                (0.0, "des.arrival", client(2)),
                (1.0, "des.transfer_done", client(0)),
                (2.0, "des.transfer_done", client(1)),
                (3.0, "des.process_done", client(0)),
                (3.0, "des.transfer_done", client(2)),
                (5.0, "des.process_done", client(1)),
                (7.0, "des.process_done", client(2)),
            ]
        );
    }

    /// Replay + emitter against the oracle at fleet scale, with
    /// continuous wake-ups, faulted-style divergence and causal tags.
    #[test]
    fn replay_matches_the_oracle_at_1e5_clients() {
        let n = 100_000;
        let srv = server(35);
        let mut rng = StdRng::seed_from_u64(0x1E5);
        let mut wake: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..srv.cycle.value())).collect();
        sort_arrival_times(&mut wake);
        let mut clean = TransferColumns::with_capacity(n);
        let mut faulted = TransferColumns::with_capacity(n);
        for (client, &t) in wake.iter().enumerate() {
            clean.push(t, client, 1);
            match rng.gen_range(0u32..10) {
                0 => {}
                1 => faulted.push(t + 15.0 * rng.gen::<f64>(), client, 2),
                _ => faulted.push(t, client, 1),
            }
        }
        assert_matches_oracle(&srv, n, &clean, true, None);
        let links = links_for(&faulted, n);
        assert_matches_oracle(&srv, n, &faulted, false, Some(&links));
    }

    #[test]
    fn zero_clients_idle_cycle() {
        let mut rng = StdRng::seed_from_u64(1);
        let r = simulate_async_cycle(0, &server(10), &mut rng);
        assert_eq!(r.n_clients, 0);
        assert_eq!(r.horizon, Seconds(300.0));
        assert!((r.server_energy - Joules(44.6 * 300.0)).abs() < Joules(0.5));
        assert_eq!(r.peak_queue, 0);
        assert_eq!(r.mean_latency, Seconds(0.0));
    }

    #[test]
    fn single_client_latency_is_transfer_plus_process() {
        let mut rng = StdRng::seed_from_u64(2);
        let r = simulate_async_cycle(1, &server(10), &mut rng);
        assert!((r.mean_latency - Seconds(16.0)).abs() < Seconds(1e-9));
        assert!((r.receive_busy - Seconds(15.0)).abs() < Seconds(1e-9));
        assert!((r.process_busy - Seconds(1.0)).abs() < Seconds(1e-9));
    }

    #[test]
    fn uplink_capacity_one_serializes_transfers() {
        // Capacity 1: 5 clients → transfers serialize, so receive-busy
        // time ≥ 5×15 − overlaps-impossible = exactly the span of the busy
        // periods; worst latency ≥ 16 s.
        let mut rng = StdRng::seed_from_u64(3);
        let r = simulate_async_cycle(5, &server(1), &mut rng);
        assert!(r.receive_busy >= Seconds(75.0 - 1e-9));
        assert!(r.max_latency >= Seconds(16.0));
        assert!((r.process_busy - Seconds(5.0)).abs() < Seconds(1e-9));
    }

    #[test]
    fn all_clients_complete_and_latency_bounds_hold() {
        let mut rng = StdRng::seed_from_u64(4);
        let r = simulate_async_cycle(180, &server(10), &mut rng);
        // Everyone processed: 180 × 1 s of CPU.
        assert!((r.process_busy - Seconds(180.0)).abs() < Seconds(1e-9));
        assert!(r.mean_latency >= Seconds(16.0 - 1e-9));
        assert!(r.max_latency >= r.mean_latency);
        assert!(r.horizon >= Seconds(300.0));
    }

    #[test]
    fn deterministic_under_seed() {
        let a = simulate_async_cycle(100, &server(10), &mut StdRng::seed_from_u64(5));
        let b = simulate_async_cycle(100, &server(10), &mut StdRng::seed_from_u64(5));
        assert!((a.server_energy - b.server_energy).abs() < Joules(1e-9));
        assert_eq!(a.peak_queue, b.peak_queue);
    }

    #[test]
    fn synchronized_slots_beat_async_on_energy() {
        // The design-justifying comparison: the slotted server batches one
        // execution per slot (18 total) where the async server runs one per
        // client (180), and its receive NIC is up only 18×15 s instead of
        // the near-full union of random intervals.
        use crate::allocator::{allocate, FillPolicy};
        use crate::loss::LossModel;
        use crate::simulation::servers_cycle_energy;
        let s = server(10);
        let allocation = allocate(180, &s, FillPolicy::PackSlots, None);
        let slotted = servers_cycle_energy(&s, &allocation, &LossModel::NONE);
        let mut rng = StdRng::seed_from_u64(6);
        let async_r = simulate_async_cycle(180, &s, &mut rng);
        assert!(
            slotted + Joules(5000.0) < async_r.server_energy,
            "slotted {slotted} vs async {}",
            async_r.server_energy
        );
    }

    #[test]
    fn async_latency_is_lower_than_worst_slot_wait() {
        // What asynchrony buys instead: a client never waits for its
        // group's time slot. Mean latency ≈ 16 s versus up to a whole
        // cycle of slot wait in the synchronized design.
        let mut rng = StdRng::seed_from_u64(7);
        let r = simulate_async_cycle(180, &server(10), &mut rng);
        assert!(r.mean_latency < Seconds(40.0), "mean latency {}", r.mean_latency);
    }

    #[test]
    fn saturated_uplink_grows_queue() {
        // 400 clients on capacity 2: the uplink is the bottleneck
        // (400×15/2 = 3000 s ≫ 300 s cycle) — queue builds, horizon spills.
        let mut rng = StdRng::seed_from_u64(8);
        let r = simulate_async_cycle(400, &server(2), &mut rng);
        assert!(r.peak_queue > 50, "peak queue {}", r.peak_queue);
        assert!(r.horizon > Seconds(2000.0));
    }

    #[test]
    fn traced_cycle_counts_every_event_and_matches_untraced() {
        let n = 120;
        let tel = Telemetry::enabled();
        let mut rng = StdRng::seed_from_u64(9);
        let traced = simulate_async_cycle_memoized(n, &server(10), &mut rng, &tel, None, None);
        let plain = simulate_async_cycle(n, &server(10), &mut StdRng::seed_from_u64(9));
        assert!((traced.server_energy - plain.server_energy).abs() < Joules(1e-12));
        assert_eq!(traced.peak_queue, plain.peak_queue);

        // Every client arrives, transfers and is processed exactly once.
        let snap = tel.snapshot();
        for kind in ["des.events.arrival", "des.events.transfer_done", "des.events.process_done"] {
            assert_eq!(snap.counter(kind), Some(n as u64), "{kind}");
        }
        assert_eq!(snap.gauge("des.queue_depth.peak"), Some(plain.peak_queue as f64));
        let horizon = snap.histogram("des.cycle.horizon_s").expect("horizon recorded");
        assert_eq!(horizon.count, 1);
        assert!((horizon.max - plain.horizon.value()).abs() < 1e-9);
    }

    #[test]
    fn trace_is_jsonl_with_monotone_timestamps() {
        use pb_telemetry::json::{self, Json};
        let tel = Telemetry::enabled();
        let mut rng = StdRng::seed_from_u64(10);
        let _ = simulate_async_cycle_memoized(50, &server(5), &mut rng, &tel, None, None);
        // 3 events per client + the cycle_done summary.
        assert_eq!(tel.events().len(), 151);
        let jsonl = tel.to_jsonl();
        let mut last_t = f64::NEG_INFINITY;
        let mut kinds_seen = 0usize;
        for line in jsonl.lines() {
            let v = json::parse(line).expect("every trace line parses as JSON");
            let t = v.get("t").and_then(Json::as_f64).expect("t field");
            assert!(t >= last_t, "timestamps must be monotone non-decreasing");
            last_t = t;
            if v.get("kind").and_then(Json::as_str) == Some("des.cycle_done") {
                kinds_seen += 1;
                assert_eq!(v.get("n_clients").and_then(Json::as_f64), Some(50.0));
            }
        }
        assert_eq!(kinds_seen, 1, "exactly one cycle summary");
    }

    #[test]
    fn metrics_only_telemetry_skips_event_construction() {
        let tel = Telemetry::metrics_only();
        let mut rng = StdRng::seed_from_u64(11);
        let _ = simulate_async_cycle_memoized(30, &server(5), &mut rng, &tel, None, None);
        assert!(tel.events().is_empty());
        assert_eq!(tel.snapshot().counter("des.events.arrival"), Some(30));
    }

    #[test]
    #[should_panic(expected = "need at least one client per slot")]
    fn a_server_without_uplink_lanes_is_rejected() {
        let srv = ServerModel { max_parallel: 0, ..server(1) };
        simulate_async_cycle(3, &srv, &mut StdRng::seed_from_u64(12));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(proptest::test_runner::Config::with_cases(64))]
            /// Replay + emitter == oracle on integer lattices, where
            /// arrivals, transfer-dones and process-dones collide:
            /// process shorter than, equal to and longer than transfer,
            /// and zero; clean, dropped and divergent rows; with and
            /// without causal tags.
            #[test]
            fn replay_and_emitter_match_the_oracle_on_lattices(
                seed in 0u64..1_000_000,
                cap in 1usize..40,
                transfer in 1u32..5,
                process in 0u32..7,
                n in 0usize..400,
                grid in 1u32..60,
                faulted in proptest::bool::ANY,
                tagged in proptest::bool::ANY,
            ) {
                let srv = lattice_server(cap, transfer, process);
                let mut rng = StdRng::seed_from_u64(seed);
                let rows = if faulted {
                    lattice_rows(&mut rng, n, grid, 0.1, 0.3)
                } else {
                    lattice_rows(&mut rng, n, grid, 0.0, 0.0)
                };
                let links = tagged.then(|| links_for(&rows, n));
                assert_matches_oracle(&srv, n, &rows, !faulted, links.as_deref());
            }
        }

        proptest! {
            #![proptest_config(proptest::test_runner::Config::with_cases(32))]
            #[test]
            fn invariants(n in 0usize..300, cap in 1usize..40, seed in 0u64..100) {
                let s = server(cap);
                let mut rng = StdRng::seed_from_u64(seed);
                let r = simulate_async_cycle(n, &s, &mut rng);
                // CPU time is exactly n × process duration.
                prop_assert!((r.process_busy.value() - n as f64).abs() < 1e-6);
                // Receive-busy bounded by n × transfer and by the horizon.
                prop_assert!(r.receive_busy.value() <= n as f64 * 15.0 + 1e-6);
                prop_assert!(r.receive_busy.value() <= r.horizon.value() + 1e-6);
                // Energy at least the idle floor.
                let floor = s.idle_power * r.horizon;
                prop_assert!(r.server_energy >= floor - Joules(1e-6));
            }
        }
    }
}
