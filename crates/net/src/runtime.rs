//! The real-transport runtime: one pooled OS thread per processor.
//!
//! This is a third driver over the same algorithm interface the simulators
//! use: processes implement [`AsyncPortProcess`] (every ring
//! [`anonring_sim::r#async::AsyncProcess`] qualifies automatically) and
//! never learn which substrate runs them. Each processor becomes a worker
//! thread with a bounded [`crate::inbox::Inbox`] (one FIFO per local port);
//! workers deliver from their own inbox, react, and push the reactions
//! into their neighbours' inboxes. Every send, delivery and halt is
//! metered and logged by the shared [`crate::hub::ShardHub`], so a net run
//! yields the same message/bit accounting and the same causal
//! [`TraceEvent`] stream as a simulated one.
//!
//! ## Pooled threads
//!
//! Each processor has its own OS thread for the whole run, taken from the
//! crate's thread pool: between runs the thread parks instead of exiting,
//! so a run pays a hand-off rather than a spawn and a join per processor.
//! A worker never waits for a busy thread (the pool spawns one when none
//! is parked, since the workers of a run block on each other), a worker
//! panic still ends the run as [`NetError::WorkerPanic`], and a thread
//! idle for a fixed interval exits. Workers own what they touch — the hub
//! and the inboxes are shared through `Arc` — which is why the launchers
//! require `'static` processes, messages and outputs.
//!
//! ## Backpressure without deadlock
//!
//! Queues are bounded, so a send into a full queue blocks. A ring of
//! processors all sending "forward" can then block in a full cycle — the
//! classical ring deadlock. The runtime breaks it structurally: while a
//! worker is blocked on a send it keeps *draining its own inbox* into its
//! local staging queues (which frees its neighbour's send). Draining never
//! consumes a message mid-send — delivery order within a link is preserved
//! — so per-link FIFO still holds, and some worker on any blocked cycle
//! always has a drainable message.
//!
//! ## Time and termination
//!
//! Sends are stamped with Theorem 5.1's bookkeeping (arrival epoch =
//! sender's event epoch + 1), exactly like the async simulator. The run
//! ends when every processor has halted and no message is in flight;
//! full quiescence with a processor still running reproduces the
//! simulator's `QuiescentWithoutHalt` error; a wall-clock deadline guards
//! against livelock and is reported as [`NetError::Timeout`].

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use anonring_sim::message::Message;
use anonring_sim::r#async::AsyncPortProcess;
use anonring_sim::runtime::{CausalClocks, Observer, PortActions, TraceEvent};
use anonring_sim::{PortId, Topology};

use crate::hub::{Outcome, ShardHub};
use crate::inbox::{pidx, Inbox, Parcel, PushOutcome, WorkOutcome};
use crate::jitter::Jitter;
use crate::pool::Batch;
use crate::wire::Wire;

/// How the topology's links are realised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// In-process: one (pooled) OS thread per processor, links are
    /// bounded channels. No serialization; any message type runs.
    Threads,
    /// One OS thread per processor, each directed link a TCP connection
    /// over loopback; messages cross the wire via their [`Wire`] encoding.
    TcpLoopback,
}

impl Transport {
    /// Stable name, as used by the `ringd` job schema.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Transport::Threads => "threads",
            Transport::TcpLoopback => "tcp",
        }
    }

    /// Parses [`Transport::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Transport> {
        match name {
            "threads" => Some(Transport::Threads),
            "tcp" => Some(Transport::TcpLoopback),
            _ => None,
        }
    }
}

impl fmt::Display for Transport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Tuning knobs of a net run.
#[derive(Debug, Clone)]
pub struct NetOptions {
    /// Per-port inbox capacity (≥ 1): how many undelivered messages one
    /// directed link buffers before the sender blocks.
    pub capacity: usize,
    /// Seed of the deterministic delivery jitter (which local port a
    /// worker consumes from when both have pending messages).
    pub jitter_seed: u64,
    /// Upper bound, in microseconds, of the random per-delivery sleep
    /// modelling link delay. `0` (default) never sleeps.
    pub max_delay_us: u64,
    /// Link realisation.
    pub transport: Transport,
    /// Wall-clock budget; exceeding it aborts with [`NetError::Timeout`].
    /// A zero budget fails before the run starts — deterministically,
    /// whatever the machine speed — making it a failure injector for
    /// retry paths.
    pub timeout: Duration,
}

impl Default for NetOptions {
    fn default() -> NetOptions {
        NetOptions {
            capacity: 8,
            jitter_seed: 0,
            max_delay_us: 0,
            transport: Transport::Threads,
            timeout: Duration::from_secs(30),
        }
    }
}

/// Outcome of a completed net run: the same cost accounting as an
/// `AsyncReport`, plus the recorded [`TraceEvent`] stream.
#[derive(Debug, Clone, PartialEq)]
pub struct NetReport<O> {
    /// Total messages sent.
    pub messages: u64,
    /// Total bits sent.
    pub bits: u64,
    /// Total deliveries performed (drops included).
    pub deliveries: u64,
    /// Messages that arrived at an already-halted processor.
    pub dropped: u64,
    /// Highest arrival epoch of any send. **Interleaving-dependent**:
    /// real threads batch differently than the simulator's adversaries,
    /// so only `messages`/`bits`/outputs are conformance-comparable.
    pub max_epoch: u64,
    /// Messages per arrival epoch (interleaving-dependent, like
    /// [`NetReport::max_epoch`]).
    pub per_epoch_messages: Vec<u64>,
    /// High-water mark of routed-but-undelivered sends (hub-observed link
    /// congestion; wall-clock-dependent, never conformance-compared).
    pub peak_in_flight: u64,
    /// Full-inbox waits observed by senders and TCP reader pumps
    /// (wall-clock-dependent, never conformance-compared).
    pub backpressure_waits: u64,
    outputs: Vec<O>,
    events: Vec<TraceEvent>,
    wall_us: Vec<u64>,
}

impl<O> NetReport<O> {
    /// The ring output `O(1), …, O(n)`.
    #[must_use]
    pub fn outputs(&self) -> &[O] {
        &self.outputs
    }

    /// Consumes the report, returning the ring output.
    #[must_use]
    pub fn into_outputs(self) -> Vec<O> {
        self.outputs
    }

    /// The recorded event stream, in hub (= global causal) order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Wall-clock microseconds since run start, one stamp per recorded
    /// event in [`NetReport::events`] order — feed them to
    /// `Recording::attach_wall_stamps` so replay tooling can report real
    /// latencies next to the metered epochs.
    #[must_use]
    pub fn wall_stamps(&self) -> &[u64] {
        &self.wall_us
    }

    /// Replays the recorded events into `observer` — the bridge to every
    /// simulator-side consumer (flight recorder, telemetry registry,
    /// space-time trace).
    pub fn replay(&self, observer: &mut impl Observer) {
        for event in &self.events {
            observer.on_event(event);
        }
    }
}

/// A failed net run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// `procs.len()` does not match the ring size.
    LengthMismatch {
        /// The ring size.
        expected: usize,
        /// The process count provided.
        actual: usize,
    },
    /// The wall-clock budget elapsed before termination (livelock, or a
    /// budget too tight for the configured jitter delays).
    Timeout {
        /// The configured budget, in milliseconds.
        timeout_ms: u64,
        /// Processors that had halted by the deadline.
        halted: usize,
    },
    /// Every link drained and every worker idled, but some processors
    /// never halted — the transport analogue of the simulator's
    /// `QuiescentWithoutHalt` (an algorithm deadlock).
    QuiescentWithoutHalt {
        /// How many processors were still running.
        running: usize,
    },
    /// A worker thread panicked (an algorithm bug; the panic message goes
    /// to stderr).
    WorkerPanic {
        /// The processor whose worker died.
        processor: usize,
    },
    /// A transport-level I/O failure (TCP mode).
    Io {
        /// The underlying error, rendered.
        detail: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::LengthMismatch { expected, actual } => {
                write!(f, "expected {expected} processes, got {actual}")
            }
            NetError::Timeout { timeout_ms, halted } => write!(
                f,
                "run exceeded its {timeout_ms} ms budget ({halted} processors halted)"
            ),
            NetError::QuiescentWithoutHalt { running } => {
                write!(f, "links drained but {running} processors never halted")
            }
            NetError::WorkerPanic { processor } => {
                write!(f, "worker thread of processor {processor} panicked")
            }
            NetError::Io { detail } => write!(f, "transport I/O error: {detail}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Why a send could not complete.
pub(crate) enum PushError {
    /// The run is over (done, stalled or cancelled); exit quietly.
    Stopped,
    /// The transport broke.
    Io(String),
}

/// One outgoing directed link, as seen by a worker: local in-process
/// channel or TCP socket.
pub(crate) trait SendPort<M> {
    /// Pushes `parcel` toward the peer, blocking under backpressure.
    /// While blocked the implementation must periodically call `relieve`
    /// (which drains the sender's own inbox — the ring's deadlock
    /// breaker) and give up once `over` reports the run finished.
    fn push(
        &mut self,
        parcel: Parcel<M>,
        relieve: &mut dyn FnMut(),
        over: &dyn Fn() -> bool,
    ) -> Result<(), PushError>;
}

/// In-process link: pushes straight into the peer's bounded inbox.
pub(crate) struct LocalPort<M> {
    pub peer: Arc<Inbox<M>>,
    pub arrival: PortId,
    /// Hub-shared counter of full-inbox waits (see `ShardHub::backpressure_handle`).
    pub pressure: Arc<std::sync::atomic::AtomicU64>,
}

impl<M> SendPort<M> for LocalPort<M> {
    fn push(
        &mut self,
        mut parcel: Parcel<M>,
        relieve: &mut dyn FnMut(),
        over: &dyn Fn() -> bool,
    ) -> Result<(), PushError> {
        loop {
            match self.peer.try_push(self.arrival, parcel) {
                PushOutcome::Pushed => return Ok(()),
                PushOutcome::Closed => return Err(PushError::Stopped),
                PushOutcome::Full(returned) => {
                    parcel = returned;
                    self.pressure
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    relieve();
                    if over() {
                        return Err(PushError::Stopped);
                    }
                    self.peer
                        .wait_space(self.arrival, Duration::from_micros(200));
                }
            }
        }
    }
}

/// Emits one event's reactions: meters and logs each send through the hub
/// (arrival epoch = event epoch + 1, Theorem 5.1's bookkeeping), pushes
/// the parcels out, and logs the halt if the process stopped.
#[allow(clippy::too_many_arguments)] // worker internals threaded through one helper, like the engines'
pub(crate) fn emit_actions<M: Message, O, L: SendPort<M>>(
    me: usize,
    actions: PortActions<M, O>,
    event_epoch: u64,
    hub: &ShardHub,
    clocks: &mut CausalClocks,
    inbox: &Inbox<M>,
    links: &mut [L],
    staging: &mut [VecDeque<Parcel<M>>],
    output: &mut Option<O>,
) -> Result<(), PushError> {
    let send_epoch = event_epoch + 1;
    let span = actions.span;
    for (port, msg) in actions.sends {
        let (lamport, parent) = clocks.stamp_send(0);
        let bits = msg.bit_len();
        let stamp = hub.route_send(me, port, bits, send_epoch, lamport, parent, span);
        let parcel = Parcel {
            msg,
            time: send_epoch,
            stamp,
        };
        let relieve = &mut || {
            inbox.drain_into(staging);
        };
        links[pidx(port)].push(parcel, relieve, &|| hub.is_over())?;
    }
    if let Some(out) = actions.halt {
        if output.is_none() {
            *output = Some(out);
            hub.halt(me, event_epoch);
        }
    }
    Ok(())
}

/// The body of one processor's thread: deliver → react → send, until the
/// hub declares the run over.
pub(crate) fn worker<P: AsyncPortProcess, L: SendPort<P::Msg>>(
    me: usize,
    mut proc: P,
    hub: &ShardHub,
    inbox: &Inbox<P::Msg>,
    mut links: Vec<L>,
    mut jitter: Jitter,
) -> Result<Option<P::Output>, NetError> {
    let mut clocks = CausalClocks::new(1);
    let mut staging: Vec<VecDeque<Parcel<P::Msg>>> =
        (0..links.len()).map(|_| VecDeque::new()).collect();
    let mut output: Option<P::Output> = None;

    let started = proc.on_start_ports();
    match emit_actions(
        me,
        started,
        0,
        hub,
        &mut clocks,
        inbox,
        &mut links,
        &mut staging,
        &mut output,
    ) {
        Ok(()) => {}
        Err(PushError::Stopped) => return Ok(output),
        Err(PushError::Io(detail)) => return Err(NetError::Io { detail }),
    }

    loop {
        // Staged-but-undelivered parcels keep `in_flight` nonzero, so a
        // `done` verdict implies the staging queues are empty too.
        if hub.is_over() {
            break;
        }
        inbox.drain_into(&mut staging);
        let ready: Vec<usize> = (0..staging.len())
            .filter(|&k| !staging[k].is_empty())
            .collect();
        if ready.is_empty() {
            hub.enter_wait();
            let wait = inbox.wait_work(Duration::from_millis(1));
            hub.exit_wait();
            if wait == WorkOutcome::Closed {
                break;
            }
            continue;
        }
        let port = PortId::new(jitter.pick(&ready) as u16);
        let parcel = staging[pidx(port)]
            .pop_front()
            .expect("picked a nonempty staging queue");
        jitter.delay();
        let dropped = output.is_some();
        hub.deliver(parcel.time, me, port, parcel.stamp.seq, dropped);
        if dropped {
            continue;
        }
        clocks.consume(0, parcel.stamp);
        let actions = proc.on_message_port(port, parcel.msg);
        match emit_actions(
            me,
            actions,
            parcel.time,
            hub,
            &mut clocks,
            inbox,
            &mut links,
            &mut staging,
            &mut output,
        ) {
            Ok(()) => {}
            Err(PushError::Stopped) => break,
            Err(PushError::Io(detail)) => return Err(NetError::Io { detail }),
        }
    }
    Ok(output)
}

/// The per-processor results of a joined worker batch; a worker that
/// panicked becomes [`NetError::WorkerPanic`].
pub(crate) fn joined<O: Send + 'static>(
    workers: Batch<Result<Option<O>, NetError>>,
) -> Vec<Result<Option<O>, NetError>> {
    workers
        .join()
        .into_iter()
        .enumerate()
        .map(|(processor, result)| result.unwrap_or(Err(NetError::WorkerPanic { processor })))
        .collect()
}

/// Folds the hub state and per-worker results into a report (or the run's
/// first error). Every task of the run must have finished.
pub(crate) fn finish<O>(
    hub: Arc<ShardHub>,
    outcome: Outcome,
    results: Vec<Result<Option<O>, NetError>>,
    options: &NetOptions,
) -> Result<NetReport<O>, NetError> {
    let n = results.len();
    let mut outputs = Vec::with_capacity(n);
    for result in results {
        outputs.push(result?);
    }
    if outcome.stalled {
        return Err(NetError::QuiescentWithoutHalt {
            running: n - outcome.halted,
        });
    }
    if outcome.cancelled || !outcome.done {
        return Err(NetError::Timeout {
            timeout_ms: u64::try_from(options.timeout.as_millis()).unwrap_or(u64::MAX),
            halted: outcome.halted,
        });
    }
    let outputs = outputs
        .into_iter()
        .map(|out| out.expect("done verdict implies every processor halted"))
        .collect();
    let hub =
        Arc::try_unwrap(hub).unwrap_or_else(|_| panic!("a finished task still holds the hub"));
    let (meter, events, wall_us, stats) = hub.into_parts();
    Ok(NetReport {
        messages: meter.messages,
        bits: meter.bits,
        deliveries: meter.deliveries,
        dropped: meter.dropped,
        max_epoch: meter.max_time,
        per_epoch_messages: meter.per_time_messages,
        peak_in_flight: stats.peak_in_flight,
        backpressure_waits: stats.backpressure_waits,
        outputs,
        events,
        wall_us,
    })
}

/// Runs `procs` on real threads over in-process bounded links.
///
/// # Errors
///
/// See [`NetError`].
pub fn run_threads<P, T>(
    topology: &T,
    procs: Vec<P>,
    options: &NetOptions,
) -> Result<NetReport<P::Output>, NetError>
where
    P: AsyncPortProcess + Send + 'static,
    P::Msg: Send + 'static,
    P::Output: Send + 'static,
    T: Topology,
{
    let n = topology.n();
    if procs.len() != n {
        return Err(NetError::LengthMismatch {
            expected: n,
            actual: procs.len(),
        });
    }
    // A zero budget can never be met; failing before spawning keeps the
    // verdict deterministic (a fast run could otherwise finish before
    // the coordinator's first deadline check), which makes
    // `timeout_ms: 0` a reliable failure injector for retry paths.
    if options.timeout.is_zero() {
        return Err(NetError::Timeout {
            timeout_ms: 0,
            halted: 0,
        });
    }
    let hub = Arc::new(ShardHub::new(topology));
    let inboxes: Vec<Arc<Inbox<P::Msg>>> = (0..n)
        .map(|i| Arc::new(Inbox::new(topology.ports(i), options.capacity)))
        .collect();
    let deadline = Instant::now() + options.timeout;

    let mut workers = Batch::new();
    for (i, proc) in procs.into_iter().enumerate() {
        let links: Vec<_> = hub
            .links_of(i)
            .iter()
            .map(|end| LocalPort {
                peer: Arc::clone(&inboxes[end.to]),
                arrival: end.arrival,
                pressure: hub.backpressure_handle(),
            })
            .collect();
        let inbox = Arc::clone(&inboxes[i]);
        let hub = Arc::clone(&hub);
        let jitter = Jitter::new(options.jitter_seed, i as u64, options.max_delay_us);
        workers.spawn(move || worker(i, proc, &hub, &inbox, links, jitter));
    }
    let outcome = hub.await_outcome(deadline);
    for inbox in &inboxes {
        inbox.close();
    }
    let results = joined(workers);
    finish(hub, outcome, results, options)
}

/// Runs `procs` under the transport selected in `options`. The TCP
/// transport needs a [`Wire`] encoding for the message type; the threads
/// transport ignores it.
///
/// # Errors
///
/// See [`NetError`].
pub fn run<P, T>(
    topology: &T,
    procs: Vec<P>,
    options: &NetOptions,
) -> Result<NetReport<P::Output>, NetError>
where
    P: AsyncPortProcess + Send + 'static,
    P::Msg: Wire + Send + 'static,
    P::Output: Send + 'static,
    T: Topology,
{
    match options.transport {
        Transport::Threads => run_threads(topology, procs, options),
        Transport::TcpLoopback => crate::tcp::run_tcp(topology, procs, options),
    }
}
