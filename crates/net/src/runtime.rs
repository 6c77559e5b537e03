//! The real-transport runtime: one launcher over a per-link plan.
//!
//! This is a third driver over the same algorithm interface the simulators
//! use: processes implement [`AsyncPortProcess`] (every ring
//! [`AsyncProcess`](anonring_sim::async::AsyncProcess) qualifies
//! automatically) and never learn which substrate runs them. Each
//! processor becomes a worker thread with a bounded `Inbox` (one FIFO per
//! local port); workers deliver from their own inbox, react, and push the
//! reactions out on their links. Every send, delivery and halt is metered
//! and logged by the shared `ShardHub`, so a net run yields the same
//! message/bit accounting and the same causal [`TraceEvent`] stream as a
//! simulated one.
//!
//! ## One launcher, a plan per run
//!
//! How a link is realised belongs to the substrate, not the algorithm, so
//! every run — [`run`] on either [`Transport`], and a cluster shard's
//! `run_shard` — goes through one crate-private launcher. A plan builder
//! lists, for each owned processor, its process and its outgoing links,
//! and the inbound TCP streams to pump. A link is the receiver's local
//! inbox, the writing end of a loopback TCP pair, or a stream dialed to
//! another shard (see the `tcp` module). The launcher does the rest: the
//! length and zero-budget checks, the hub and inboxes, the jitter seeds,
//! the workers and reader pumps, waiting for the outcome, the fault list,
//! and the mapping to [`NetError`].
//!
//! ## Pooled threads
//!
//! Each processor has its own OS thread for the whole run, and each
//! reader pump one more, taken from the crate's thread pool
//! (`crate::pool`): a run pays a hand-off rather than a spawn and a join
//! per thread, and a worker panic still ends the run as
//! [`NetError::WorkerPanic`]. Workers own what they touch — the hub and
//! the inboxes are shared through `Arc` — which is why the launcher
//! requires `'static` processes, messages and outputs.
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
use std::net::TcpStream;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use anonring_sim::message::Message;
use anonring_sim::r#async::AsyncPortProcess;
use anonring_sim::runtime::{CausalClocks, Observer, PortActions, TraceEvent};
use anonring_sim::telemetry::{FlightRecorder, Recording};
use anonring_sim::{PortId, Topology};

use crate::hub::{LinkEnd, Outcome, ShardHub};
use crate::inbox::{pidx, Inbox, Parcel, PushOutcome, WorkOutcome};
use crate::jitter::Jitter;
use crate::pool::Batch;
use crate::tcp::{loopback_pair, read_link, FrameWriter};
use crate::wire::Wire;

/// How the topology's links are realised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// In-process: one (pooled) OS thread per processor, links are
    /// bounded channels. No serialization.
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

    /// Replays the recorded events into `observer` — the bridge to every
    /// simulator-side consumer (flight recorder, telemetry registry,
    /// space-time trace).
    pub fn replay(&self, observer: &mut impl Observer) {
        for event in &self.events {
            observer.on_event(event);
        }
    }

    /// The run as a flight [`Recording`] of an `n`-processor ring: every
    /// event, engine `"net"`, and each send and delivery stamped with its
    /// wall-clock microseconds since run start, so replay tooling can
    /// report real latencies next to the metered epochs. `shard` marks a
    /// per-shard cluster recording as `(shard, shards)`.
    #[must_use]
    pub fn recording(
        &self,
        n: usize,
        label: impl Into<String>,
        shard: Option<(u64, u64)>,
    ) -> Recording {
        let mut recorder = FlightRecorder::new(n, label).with_engine("net");
        if let Some((shard, shards)) = shard {
            recorder = recorder.with_shard(shard, shards);
        }
        self.replay(&mut recorder);
        let mut recording = recorder.into_recording();
        recording.attach_wall_stamps(&self.wall_us);
        recording
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

/// One outgoing directed link, as a worker sees it.
pub(crate) enum Link<M> {
    /// In-process: pushes straight into the receiver's bounded inbox.
    Local {
        /// The receiving processor's inbox.
        peer: Arc<Inbox<M>>,
        /// The receiver's local port the parcel arrives on.
        arrival: PortId,
    },
    /// A TCP frame stream: the writing end of a loopback pair, or a
    /// stream dialed to another shard.
    Stream(FrameWriter),
}

impl<M: Wire> Link<M> {
    /// Pushes `parcel` toward the peer, blocking under backpressure. While
    /// blocked it keeps calling `relieve` (which drains the sender's own
    /// inbox — the ring's deadlock breaker) and gives up once the run is
    /// over.
    fn push(
        &mut self,
        mut parcel: Parcel<M>,
        hub: &ShardHub,
        relieve: &mut dyn FnMut(),
    ) -> Result<(), PushError> {
        match self {
            Link::Local { peer, arrival } => loop {
                match peer.try_push(*arrival, parcel) {
                    PushOutcome::Pushed => return Ok(()),
                    PushOutcome::Closed => return Err(PushError::Stopped),
                    PushOutcome::Full(returned) => {
                        parcel = returned;
                        hub.note_backpressure();
                        relieve();
                        if hub.is_over() {
                            return Err(PushError::Stopped);
                        }
                        peer.wait_space(*arrival, Duration::from_micros(200));
                    }
                }
            },
            Link::Stream(writer) => {
                // Draining our own inbox before a potentially blocking
                // write keeps the in-process links' deadlock breaker.
                relieve();
                writer.write(&parcel).map_err(|detail| {
                    // A torn-down peer during shutdown is a quiet stop.
                    if hub.is_over() {
                        PushError::Stopped
                    } else {
                        PushError::Io(detail)
                    }
                })
            }
        }
    }
}

/// Emits one event's reactions: meters and logs each send through the hub
/// (arrival epoch = event epoch + 1, Theorem 5.1's bookkeeping), pushes
/// the parcels out, and logs the halt if the process stopped.
#[allow(clippy::too_many_arguments)] // worker internals threaded through one helper, like the engines'
fn emit_actions<M: Message + Wire, O>(
    me: usize,
    actions: PortActions<M, O>,
    event_epoch: u64,
    hub: &ShardHub,
    clocks: &mut CausalClocks,
    inbox: &Inbox<M>,
    links: &mut [Link<M>],
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
        links[pidx(port)].push(parcel, hub, relieve)?;
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
fn worker<P: AsyncPortProcess>(
    me: usize,
    mut proc: P,
    hub: &ShardHub,
    inbox: &Inbox<P::Msg>,
    mut links: Vec<Link<P::Msg>>,
    mut jitter: Jitter,
) -> Result<Option<P::Output>, NetError>
where
    P::Msg: Wire,
{
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

/// One owned processor of a plan: its index, its process, and its
/// outgoing links in local port order.
type Owned<P> = (usize, P, Vec<Link<<P as AsyncPortProcess>::Msg>>);

/// What one launch runs: the owned processors, each with its process and
/// its outgoing links, and the inbound TCP streams to pump into their
/// inboxes. A plan builder (`run`, or `run_shard` after its handshakes)
/// fills it in; [`Plan::launch`] does everything else.
pub(crate) struct Plan<P: AsyncPortProcess> {
    hub: Arc<ShardHub>,
    /// Indexed by global processor; `None` where another shard owns it.
    inboxes: Vec<Option<Arc<Inbox<P::Msg>>>>,
    workers: Vec<Owned<P>>,
    pumps: Vec<(TcpStream, LinkEnd)>,
    options: NetOptions,
    deadline: Instant,
}

impl<P> Plan<P>
where
    P: AsyncPortProcess + Send + 'static,
    P::Msg: Wire + Send + 'static,
    P::Output: Send + 'static,
{
    /// Checks the run's shape, starts its wall-clock budget, and builds
    /// the inboxes of the `owned` processors around `hub`.
    ///
    /// # Errors
    ///
    /// [`NetError::LengthMismatch`] when `procs` is not the ring size,
    /// and [`NetError::Timeout`] for a zero budget: it can never be met,
    /// and failing before any thread starts or socket is dialed keeps the
    /// verdict deterministic (a fast run could otherwise finish before
    /// the first deadline check), which makes `timeout_ms: 0` a reliable
    /// failure injector for retry paths.
    pub(crate) fn new(
        topology: &dyn Topology,
        procs: usize,
        hub: ShardHub,
        owned: Range<usize>,
        options: &NetOptions,
    ) -> Result<Plan<P>, NetError> {
        let n = topology.n();
        if procs != n {
            return Err(NetError::LengthMismatch {
                expected: n,
                actual: procs,
            });
        }
        if options.timeout.is_zero() {
            return Err(NetError::Timeout {
                timeout_ms: 0,
                halted: 0,
            });
        }
        let inboxes = (0..n)
            .map(|i| {
                owned
                    .contains(&i)
                    .then(|| Arc::new(Inbox::new(topology.ports(i), options.capacity)))
            })
            .collect();
        Ok(Plan {
            hub: Arc::new(hub),
            inboxes,
            workers: Vec::with_capacity(owned.len()),
            pumps: Vec::new(),
            options: options.clone(),
            deadline: Instant::now() + options.timeout,
        })
    }

    /// When the run's wall-clock budget runs out.
    pub(crate) fn deadline(&self) -> Instant {
        self.deadline
    }

    /// The outgoing link ends of processor `from`, indexed by local port.
    pub(crate) fn ends_of(&self, from: usize) -> &[LinkEnd] {
        self.hub.links_of(from)
    }

    /// An in-process link into `end`'s (owned) receiver.
    pub(crate) fn local(&self, end: LinkEnd) -> Link<P::Msg> {
        Link::Local {
            peer: Arc::clone(self.inboxes[end.to].as_ref().expect("an owned receiver")),
            arrival: end.arrival,
        }
    }

    /// Adds owned processor `i`, its process and its outgoing links (one
    /// per local port, in port order).
    pub(crate) fn add(&mut self, i: usize, proc: P, links: Vec<Link<P::Msg>>) {
        self.workers.push((i, proc, links));
    }

    /// Adds an inbound TCP stream whose frames land at `end`.
    pub(crate) fn pump(&mut self, stream: TcpStream, end: LinkEnd) {
        self.pumps.push((stream, end));
    }

    /// Runs the plan: one pooled worker per processor and one pooled
    /// reader pump per inbound stream. `control` runs on the calling
    /// thread while the run is live (a cluster shard's control plane);
    /// tasks it spawns into the batch it is handed are joined with the
    /// reader pumps. The run then ends at its verdict or deadline, and
    /// the outcome, the workers' results and any link fault fold into
    /// the report.
    ///
    /// # Errors
    ///
    /// See [`NetError`]; transport faults surface as [`NetError::Io`]
    /// and take precedence over every other verdict.
    pub(crate) fn launch(
        self,
        control: impl FnOnce(&Arc<ShardHub>, &mut Batch<()>),
    ) -> Result<NetReport<P::Output>, NetError> {
        let Plan {
            hub,
            inboxes,
            workers: planned,
            pumps,
            options,
            deadline,
        } = self;
        let inbox_of = |i: usize| Arc::clone(inboxes[i].as_ref().expect("an owned processor"));
        let faults = Arc::new(Mutex::new(Vec::new()));
        let mut readers = Batch::new();
        for (stream, end) in pumps {
            let inbox = inbox_of(end.to);
            let (hub, faults) = (Arc::clone(&hub), Arc::clone(&faults));
            readers.spawn(move || read_link(stream, &inbox, end.arrival, &hub, &faults));
        }
        let mut owned = Vec::with_capacity(planned.len());
        let mut workers = Batch::new();
        for (i, proc, links) in planned {
            owned.push(i);
            let inbox = inbox_of(i);
            let hub = Arc::clone(&hub);
            let jitter = Jitter::new(options.jitter_seed, i as u64, options.max_delay_us);
            workers.spawn(move || worker(i, proc, &hub, &inbox, links, jitter));
        }
        control(&hub, &mut readers);
        let outcome = hub.await_outcome(deadline);
        for inbox in inboxes.iter().flatten() {
            inbox.close();
        }
        // A worker's writer streams close when its task ends, so every
        // reader sees EOF (or the run's end) once the workers are joined.
        let results: Vec<_> = workers
            .join()
            .into_iter()
            .zip(owned)
            .map(|(result, processor)| result.unwrap_or(Err(NetError::WorkerPanic { processor })))
            .collect();
        if readers.join().contains(&None) {
            return Err(NetError::Io {
                detail: "a link reader panicked".to_string(),
            });
        }
        let fault = faults.lock().expect("fault list poisoned").first().cloned();
        if let Some(detail) = fault {
            return Err(NetError::Io { detail });
        }
        finish(hub, outcome, results, &options)
    }
}

/// Folds the hub state and the per-worker results into a report (or the
/// run's first error). Every task of the run must have finished.
fn finish<O>(
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
            running: n.saturating_sub(outcome.halted),
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

/// Runs `procs` under the transport selected in `options`: every
/// directed link an in-process channel, or a loopback TCP connection
/// whose messages cross the wire in their [`Wire`] encoding.
///
/// # Errors
///
/// See [`NetError`]; transport failures surface as [`NetError::Io`].
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
    let n = topology.n();
    let mut plan = Plan::new(
        topology,
        procs.len(),
        ShardHub::new(topology),
        0..n,
        options,
    )?;
    for (i, proc) in procs.into_iter().enumerate() {
        let ends = plan.ends_of(i).to_vec();
        let mut links = Vec::with_capacity(ends.len());
        for end in ends {
            links.push(match options.transport {
                Transport::Threads => plan.local(end),
                Transport::TcpLoopback => {
                    let (writer, reader) = loopback_pair()?;
                    plan.pump(reader, end);
                    Link::Stream(FrameWriter::over(writer))
                }
            });
        }
        plan.add(i, proc, links);
    }
    plan.launch(|_, _| {})
}
