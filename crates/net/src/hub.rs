//! The metering hub: one lock, one meter, one event log — per shard.
//!
//! The simulators funnel every send through `LinkFabric::send`, so the
//! message, bit and epoch numbers have exactly one definition. The real
//! transport keeps that property with the [`ShardHub`]: every worker thread
//! reports each send, delivery and halt to its hub, which assigns the
//! send sequence number, meters the cost, and appends the
//! [`TraceEvent`] — all inside a single critical section per event, so the
//! recorded stream satisfies the same causal-ordering invariants
//! (seq-in-file-order, parent-before-child, send-before-deliver) the
//! recording checker enforces on simulator recordings.
//!
//! A single-process run uses one hub for the whole ring (`ShardHub::new`,
//! shard 0, self-terminating). A cluster run (S27) gives each `ringd
//! --cluster` process its own hub over the *same* full-topology wiring:
//! seqs carry the shard id in their high bits
//! ([`anonring_sim::telemetry::SHARD_SEQ_SHIFT`]) so they stay globally
//! unique without cross-host coordination, and termination moves to the
//! cluster control plane — a coordinated hub never declares itself done;
//! it exposes its monotone halted count and metered sent/delivered
//! totals, wakes a control-plane thread blocked in [`ShardHub::watch`]
//! when its last owned worker parks (the shard goes quiescent), and
//! accepts an external verdict ([`ShardHub::finish`]) from the
//! coordinator instead. Counter changes alone wake nobody: a shard that
//! is still working has nothing final to say.
//!
//! The hub also owns the topology wiring. Workers speak only in terms of
//! their local ports; the hub routes a send to the destination inbox and
//! arrival port. This is the **substrate** side of the anonymity boundary — the
//! same place `LinkFabric` sits in the simulators — which is why the
//! topology lookup below carries the lint exemption the simulator runtime
//! enjoys by location.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, TryLockError};
use std::time::Instant;

use anonring_sim::profile;
use anonring_sim::runtime::{CausalStamp, CostMeter, SendEvent, Span, TraceEvent};
use anonring_sim::{PortId, Topology};

/// Destination of one directed link: receiving processor and its local
/// arrival port.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkEnd {
    /// Receiving processor index.
    pub to: usize,
    /// The receiver's local port the message shows up on.
    pub arrival: PortId,
}

/// Mutable run state, guarded by the hub's single mutex.
struct HubInner {
    /// Totals of this shard's sends and deliveries. `meter.messages` and
    /// `meter.deliveries` are the monotone sent/delivered counters:
    /// `messages - deliveries` is the in-flight count only in
    /// single-process mode; a coordinated shard delivers remote-origin
    /// sends it never routed, so the two are reported to the control
    /// plane separately and only their *cluster-wide* difference means
    /// "in flight".
    meter: CostMeter,
    events: Vec<TraceEvent>,
    /// Wall-clock microseconds since hub creation, one per event, stamped
    /// in the same critical section that appends the event — so stamp `k`
    /// always belongs to event `k` and stamps are monotone in file order.
    wall_stamps: Vec<u64>,
    next_seq: u64,
    /// High-water mark of `messages - deliveries` over the run
    /// (saturating, so a remote-heavy shard reports 0 rather than
    /// wrapping).
    peak_in_flight: u64,
    /// Processors that have halted.
    halted: usize,
    /// Workers currently parked with an empty inbox; the shard is idle
    /// when all of its owned workers are.
    waiting: usize,
    /// All processors halted and no message in flight.
    done: bool,
    /// Quiescent (nothing in flight, everyone parked) but not all halted —
    /// the transport analogue of `SimError::QuiescentWithoutHalt`.
    stalled: bool,
    /// The coordinator gave up (deadline or external abort).
    cancelled: bool,
    /// Control-plane wake-ups from outside the hub ([`ShardHub::nudge`]),
    /// monotone.
    nudges: u64,
    /// Threads blocked in [`ShardHub::watch`]; the shard going idle
    /// notifies only while one is waiting.
    watchers: usize,
}

/// Terminal state of a run, as observed by the coordinator.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Outcome {
    /// Every processor halted and the links drained.
    pub done: bool,
    /// Quiescent without all processors halting.
    pub stalled: bool,
    /// Deadline elapsed first.
    pub cancelled: bool,
    /// Processors halted by the end.
    pub halted: usize,
}

/// What the cluster control plane watches on a coordinated hub: the
/// monotone `(halted, sent, delivered)` counters, whether every owned
/// worker is parked, the nudge count, and whether the run is over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Watch {
    /// Processors that have halted.
    pub halted: usize,
    /// Sends routed by this shard.
    pub sent: u64,
    /// Deliveries (and drops) recorded by this shard.
    pub delivered: u64,
    /// Every owned worker is parked on its inbox.
    pub idle: bool,
    /// [`ShardHub::nudge`] calls so far.
    pub nudges: u64,
    /// Done, stalled or cancelled.
    pub over: bool,
}

impl Watch {
    /// The counters a status report carries.
    pub(crate) fn counters(&self) -> (usize, u64, u64) {
        (self.halted, self.sent, self.delivered)
    }
}

/// Shared run coordinator: wiring, meter, trace log and termination state.
/// One per process — the whole ring in single-process mode, one shard of
/// it in cluster mode.
pub(crate) struct ShardHub {
    /// Processors whose workers this hub meters: the whole ring in
    /// single-process mode, the shard's block in cluster mode.
    owned: usize,
    /// High bits OR-ed onto every assigned seq (shard id shifted by
    /// `SHARD_SEQ_SHIFT`); 0 in single-process mode.
    seq_tag: u64,
    /// True when termination is decided by the cluster control plane:
    /// `enter_wait`/`check_done` never self-terminate and the run ends
    /// only via [`ShardHub::finish`] or [`ShardHub::cancel`].
    coordinated: bool,
    /// `wiring[from][pidx(local port)]` — fixed for the run.
    wiring: Vec<Vec<LinkEnd>>,
    inner: Mutex<HubInner>,
    /// Signalled on every state change that could end the run.
    progress: Condvar,
    /// Origin of the wall-clock stamps.
    started: Instant,
    /// Times a sender (or TCP reader pump) found a destination inbox full
    /// and had to wait — lock-free so the hot backpressure path never
    /// touches the hub mutex.
    backpressure: AtomicU64,
}

/// Serving-plane counters the hub accumulates alongside the meter:
/// link-level congestion (peak in-flight) and backpressure stalls.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct HubStats {
    /// High-water mark of routed-but-undelivered sends.
    pub peak_in_flight: u64,
    /// Full-inbox waits observed by senders and reader pumps.
    pub backpressure_waits: u64,
}

impl ShardHub {
    /// Builds the single-process hub for `topology` (shard 0 of 1,
    /// self-terminating), resolving every directed link once.
    pub(crate) fn new(topology: &dyn Topology) -> ShardHub {
        ShardHub::with_shard(topology, 0, topology.n(), false)
    }

    /// Builds the hub for one cluster shard that owns `owned` of the
    /// processors: seqs are tagged with `shard`'s id and termination is
    /// left to the control plane.
    pub(crate) fn sharded(topology: &dyn Topology, shard: u64, owned: usize) -> ShardHub {
        ShardHub::with_shard(topology, shard, owned, true)
    }

    fn with_shard(
        topology: &dyn Topology,
        shard: u64,
        owned: usize,
        coordinated: bool,
    ) -> ShardHub {
        let wiring = (0..topology.n())
            .map(|i| {
                (0..topology.ports(i))
                    .map(|k| {
                        // anonlint: allow(anonymity-breach) -- substrate wiring: the hub realises the topology like LinkFabric does; algorithms only ever see local ports
                        let (to, arrival) = topology.neighbor_port(i, PortId::new(k as u16));
                        LinkEnd { to, arrival }
                    })
                    .collect()
            })
            .collect();
        ShardHub {
            owned,
            seq_tag: shard << anonring_sim::telemetry::SHARD_SEQ_SHIFT,
            coordinated,
            wiring,
            inner: Mutex::new(HubInner {
                meter: CostMeter::new(),
                events: Vec::new(),
                wall_stamps: Vec::new(),
                next_seq: 0,
                peak_in_flight: 0,
                halted: 0,
                waiting: 0,
                done: false,
                stalled: false,
                cancelled: false,
                nudges: 0,
                watchers: 0,
            }),
            progress: Condvar::new(),
            started: Instant::now(),
            backpressure: AtomicU64::new(0),
        }
    }

    /// Microseconds since hub creation, saturating at `u64::MAX`.
    fn now_us(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Counts one full-inbox wait (a blocked sender or reader pump).
    pub(crate) fn note_backpressure(&self) {
        self.backpressure.fetch_add(1, Ordering::Relaxed);
    }

    /// The outgoing link ends of processor `from`, indexed by
    /// [`crate::inbox::pidx`] of the local send port.
    pub(crate) fn links_of(&self, from: usize) -> &[LinkEnd] {
        &self.wiring[from]
    }

    fn lock(&self) -> MutexGuard<'_, HubInner> {
        self.inner.lock().expect("hub lock poisoned")
    }

    /// Like [`ShardHub::lock`], but wrapped in the S26 profiler probes: a
    /// `try_lock` first (a miss counts as contention), acquire-wait
    /// recorded per [`profile::HubOp`], and a [`profile::HoldTimer`]
    /// the caller binds alongside the guard so the hold duration is
    /// recorded right before the unlock. When the profiler is off this
    /// is one relaxed atomic load on top of the plain lock.
    fn lock_timed(&self, op: profile::HubOp) -> (MutexGuard<'_, HubInner>, profile::HoldTimer) {
        if !profile::enabled() {
            return (self.lock(), profile::HoldTimer::start(op));
        }
        let waited = profile::stamp();
        let guard = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                profile::record_contention();
                self.inner.lock().expect("hub lock poisoned")
            }
            Err(TryLockError::Poisoned(_)) => panic!("hub lock poisoned"),
        };
        profile::record_lock_wait(op, waited);
        (guard, profile::HoldTimer::start(op))
    }

    /// Meters one send by `from` on its local `port` and logs the
    /// [`TraceEvent::Send`]; returns the causal stamp the parcel carries.
    /// Seq assignment and event append happen atomically, so seqs appear
    /// in increasing order in the recorded stream.
    #[allow(clippy::too_many_arguments)] // the full send metadata, same shape as the fabric's SendMeta
    pub(crate) fn route_send(
        &self,
        from: usize,
        port: PortId,
        bits: usize,
        time: u64,
        lamport: u64,
        parent: Option<u64>,
        span: Option<Span>,
    ) -> CausalStamp {
        let end = self.wiring[from][crate::inbox::pidx(port)];
        let (mut inner, _hold) = self.lock_timed(profile::HubOp::Send);
        let now = self.now_us();
        let seq = self.seq_tag | inner.next_seq;
        inner.next_seq += 1;
        inner.wall_stamps.push(now);
        inner.meter.record_send(time, bits);
        let in_flight = inner.meter.messages.saturating_sub(inner.meter.deliveries);
        inner.peak_in_flight = inner.peak_in_flight.max(in_flight);
        inner.events.push(TraceEvent::Send(SendEvent {
            cycle: time,
            from,
            to: end.to,
            port: end.arrival,
            bits,
            seq,
            lamport,
            parent,
            span,
        }));
        CausalStamp {
            seq,
            lamport,
            parent,
        }
    }

    /// Meters one delivery (or drop, when the receiver already halted) and
    /// logs the [`TraceEvent::Deliver`].
    pub(crate) fn deliver(&self, time: u64, to: usize, port: PortId, seq: u64, dropped: bool) {
        let (mut inner, _hold) = self.lock_timed(profile::HubOp::Deliver);
        let now = self.now_us();
        inner.meter.record_delivery();
        if dropped {
            inner.meter.record_drop();
        }
        inner.wall_stamps.push(now);
        inner.events.push(TraceEvent::Deliver {
            time,
            to,
            port,
            seq,
            dropped,
        });
        self.check_done(&mut inner);
    }

    /// Logs a processor's halt.
    pub(crate) fn halt(&self, processor: usize, time: u64) {
        let (mut inner, _hold) = self.lock_timed(profile::HubOp::Halt);
        let now = self.now_us();
        inner.wall_stamps.push(now);
        inner.events.push(TraceEvent::Halt { time, processor });
        inner.halted += 1;
        self.check_done(&mut inner);
    }

    /// Records that a worker is parking on an empty inbox. If every worker
    /// is now parked with nothing in flight, the run has terminated —
    /// successfully if everyone halted, as a stall otherwise. On a
    /// coordinated hub the last owned worker parking wakes the control
    /// plane instead: the shard is quiescent, which is when its counters
    /// are worth reporting.
    pub(crate) fn enter_wait(&self) {
        let mut inner = self.lock();
        inner.waiting += 1;
        if self.coordinated {
            if inner.waiting == self.owned && inner.watchers > 0 {
                self.progress.notify_all();
            }
            return;
        }
        if inner.waiting == self.owned
            && inner.meter.messages == inner.meter.deliveries
            && !inner.done
            && !inner.cancelled
        {
            if inner.halted < self.owned {
                inner.stalled = true;
            }
            inner.done = true;
            self.progress.notify_all();
        }
    }

    /// Records that a parked worker woke up again.
    pub(crate) fn exit_wait(&self) {
        self.lock().waiting -= 1;
    }

    /// Whether the run has reached a terminal state (done, stalled or
    /// cancelled) — workers poll this to know when to exit.
    pub(crate) fn is_over(&self) -> bool {
        let inner = self.lock();
        inner.done || inner.cancelled
    }

    /// Aborts the run (deadline or external cancellation).
    pub(crate) fn cancel(&self) {
        let mut inner = self.lock();
        inner.cancelled = true;
        self.progress.notify_all();
    }

    fn check_done(&self, inner: &mut HubInner) {
        if !self.coordinated
            && inner.halted == self.owned
            && inner.meter.messages == inner.meter.deliveries
            && !inner.done
        {
            inner.done = true;
            self.progress.notify_all();
        }
    }

    fn watch_of(&self, inner: &HubInner) -> Watch {
        Watch {
            halted: inner.halted,
            sent: inner.meter.messages,
            delivered: inner.meter.deliveries,
            idle: inner.waiting == self.owned,
            nudges: inner.nudges,
            over: inner.done || inner.cancelled,
        }
    }

    /// Blocks until there is news against `seen` (at once when `seen` is
    /// `None`) or `until` passes, and returns the current state. News is
    /// the run's end, a nudge, or an idle shard whose state differs from
    /// `seen`; counters that move while a worker runs are not news, and
    /// are seen at the shard's next idle point. The cluster control plane
    /// waits here instead of polling. Counters are monotone and halted
    /// processors never send again, so once a shard's watch shows all its
    /// locals halted its `sent` is final — which is what makes the
    /// coordinator's done check exact.
    pub(crate) fn watch(&self, seen: Option<Watch>, until: Instant) -> Watch {
        let mut inner = self.lock();
        loop {
            let now = self.watch_of(&inner);
            let news = seen.is_none_or(|seen| {
                now.over || now.nudges != seen.nudges || (now.idle && now != seen)
            });
            if news {
                return now;
            }
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return now;
            }
            inner.watchers += 1;
            (inner, _) = self
                .progress
                .wait_timeout(inner, left)
                .expect("hub lock poisoned");
            inner.watchers -= 1;
        }
    }

    /// Wakes [`ShardHub::watch`] for news from outside the hub (a
    /// control-plane status report).
    pub(crate) fn nudge(&self) {
        let mut inner = self.lock();
        inner.nudges += 1;
        self.progress.notify_all();
    }

    /// External verdict from the cluster coordinator: ends the run as
    /// done (`stalled = false`) or as a quiescent stall (`stalled =
    /// true`). Only meaningful on coordinated hubs, where no internal
    /// check ever sets these flags.
    pub(crate) fn finish(&self, stalled: bool) {
        let mut inner = self.lock();
        if inner.done || inner.cancelled {
            return;
        }
        inner.stalled = stalled;
        inner.done = true;
        self.progress.notify_all();
    }

    /// Blocks the coordinator until the run terminates or `deadline`
    /// passes; a missed deadline cancels the run. Every state change that
    /// ends a run notifies `progress`, so the wait needs no poll.
    pub(crate) fn await_outcome(&self, deadline: Instant) -> Outcome {
        let mut inner = self.lock();
        loop {
            if inner.done || inner.cancelled {
                return Outcome {
                    done: inner.done,
                    stalled: inner.stalled,
                    cancelled: inner.cancelled,
                    halted: inner.halted,
                };
            }
            let now = Instant::now();
            if now >= deadline {
                inner.cancelled = true;
                self.progress.notify_all();
                return Outcome {
                    done: false,
                    stalled: false,
                    cancelled: true,
                    halted: inner.halted,
                };
            }
            (inner, _) = self
                .progress
                .wait_timeout(inner, deadline - now)
                .expect("hub lock poisoned");
        }
    }

    /// Consumes the hub, yielding the meter, the recorded event stream,
    /// the per-event wall stamps (same length and order as the events)
    /// and the serving-plane counters.
    pub(crate) fn into_parts(self) -> (CostMeter, Vec<TraceEvent>, Vec<u64>, HubStats) {
        let backpressure_waits = self.backpressure.load(Ordering::Relaxed);
        let inner = self.inner.into_inner().expect("hub lock poisoned");
        (
            inner.meter,
            inner.events,
            inner.wall_stamps,
            HubStats {
                peak_in_flight: inner.peak_in_flight,
                backpressure_waits,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::ShardHub;
    use anonring_sim::{PortId, RingTopology};
    use std::time::{Duration, Instant};

    // Tests that drive the hub or inbox probes hold the profiler session:
    // it serialises them, so a profiling test tallies only its own run.

    fn hub(n: usize) -> ShardHub {
        ShardHub::new(&RingTopology::oriented(n).expect("n >= 2"))
    }

    #[test]
    fn wiring_matches_the_topology() {
        let h = hub(3);
        let right = h.links_of(0)[crate::inbox::pidx(PortId::RIGHT)];
        assert_eq!((right.to, right.arrival), (1, PortId::LEFT));
        let left = h.links_of(0)[crate::inbox::pidx(PortId::LEFT)];
        assert_eq!((left.to, left.arrival), (2, PortId::RIGHT));
    }

    #[test]
    fn seqs_are_assigned_in_event_log_order() {
        let _serial = anonring_sim::profile::session();
        let h = hub(2);
        let a = h.route_send(0, PortId::RIGHT, 4, 1, 1, None, None);
        let b = h.route_send(1, PortId::RIGHT, 4, 1, 1, None, None);
        assert_eq!((a.seq, b.seq), (0, 1));
        let (meter, events, stamps, stats) = h.into_parts();
        assert_eq!(meter.messages, 2);
        assert_eq!(meter.bits, 8);
        assert_eq!(events.len(), 2);
        assert_eq!(stamps.len(), events.len(), "one wall stamp per event");
        assert!(stamps[0] <= stamps[1], "stamps monotone in log order");
        assert_eq!(stats.peak_in_flight, 2);
        assert_eq!(stats.backpressure_waits, 0);
    }

    #[test]
    fn stats_track_peak_in_flight_and_backpressure() {
        let _serial = anonring_sim::profile::session();
        let h = hub(2);
        let a = h.route_send(0, PortId::RIGHT, 1, 1, 1, None, None);
        h.deliver(1, 1, PortId::LEFT, a.seq, false);
        let b = h.route_send(0, PortId::RIGHT, 1, 2, 2, None, None);
        let c = h.route_send(1, PortId::RIGHT, 1, 2, 2, None, None);
        h.deliver(2, 1, PortId::LEFT, b.seq, false);
        h.deliver(2, 0, PortId::LEFT, c.seq, false);
        for _ in 0..3 {
            h.note_backpressure();
        }
        let (_, events, stamps, stats) = h.into_parts();
        assert_eq!(stats.peak_in_flight, 2, "two concurrent in-flight sends");
        assert_eq!(stats.backpressure_waits, 3);
        assert_eq!(stamps.len(), events.len());
    }

    #[test]
    fn run_completes_when_all_halt_and_links_drain() {
        let _serial = anonring_sim::profile::session();
        let h = hub(2);
        let s = h.route_send(0, PortId::RIGHT, 1, 1, 1, None, None);
        h.halt(0, 0);
        h.halt(1, 0);
        assert!(!h.is_over(), "a message is still in flight");
        h.deliver(1, 1, PortId::LEFT, s.seq, true);
        assert!(h.is_over());
        let outcome = h.await_outcome(Instant::now() + Duration::from_secs(1));
        assert!(outcome.done && !outcome.stalled && !outcome.cancelled);
        assert_eq!(outcome.halted, 2);
    }

    #[test]
    fn full_quiescence_without_halts_is_a_stall() {
        let _serial = anonring_sim::profile::session();
        let h = hub(2);
        h.enter_wait();
        h.enter_wait();
        let outcome = h.await_outcome(Instant::now() + Duration::from_secs(1));
        assert!(outcome.done && outcome.stalled);
    }

    #[test]
    fn a_missed_deadline_cancels_the_run() {
        let _serial = anonring_sim::profile::session();
        let h = hub(2);
        let outcome = h.await_outcome(Instant::now());
        assert!(outcome.cancelled && !outcome.done);
        assert!(h.is_over());
    }

    #[test]
    fn watch_wakes_when_the_shard_idles_and_on_nudges() {
        let _serial = anonring_sim::profile::session();
        let h = ShardHub::sharded(&RingTopology::oriented(2).expect("n >= 2"), 1, 1);
        let first = h.watch(None, Instant::now());
        assert!(!first.idle, "a worker that has not parked yet is running");
        // A halt while the worker runs is not news: the watch sleeps to
        // `until` whether the halt lands before or during the wait.
        let until = Instant::now() + Duration::from_millis(50);
        let busy = std::thread::scope(|scope| {
            scope.spawn(|| h.halt(0, 0));
            h.watch(Some(first), until)
        });
        assert!(
            Instant::now() >= until,
            "a busy counter change woke the watch"
        );
        assert!(!busy.idle);
        let busy = h.watch(None, Instant::now());
        assert_eq!(busy.counters(), (1, 0, 0));
        // The last owned worker parking is.
        let far = Instant::now() + Duration::from_secs(30);
        let idle = std::thread::scope(|scope| {
            scope.spawn(|| h.enter_wait());
            h.watch(Some(busy), far)
        });
        assert!(idle.idle);
        assert_eq!(idle.counters(), (1, 0, 0));
        assert!(Instant::now() < far, "the park woke the watch");
        let nudged = std::thread::scope(|scope| {
            scope.spawn(|| h.nudge());
            h.watch(Some(idle), far)
        });
        assert_eq!((nudged.nudges, nudged.over), (1, false));
        h.cancel();
        assert!(h.watch(Some(nudged), far).over);
    }

    #[test]
    fn lock_probes_tally_waits_and_holds_when_profiling() {
        let session = anonring_sim::profile::session();
        let h = hub(2);
        let s = h.route_send(0, PortId::RIGHT, 1, 1, 1, None, None);
        h.deliver(1, 1, PortId::LEFT, s.seq, false);
        h.halt(0, 0);
        let reg = anonring_sim::profile::snapshot();
        let count = |name: &'static str, labels: &[(&'static str, &str)]| {
            let id = anonring_sim::telemetry::MetricId::with_labels(name, labels);
            reg.histograms()
                .find(|(got, _)| **got == id)
                .map(|(_, histogram)| histogram.count)
        };
        assert_eq!(count("hub_lock_wait_us", &[("op", "send")]), Some(1));
        assert_eq!(count("hub_lock_hold_us", &[("op", "send")]), Some(1));
        assert_eq!(count("hub_lock_hold_us", &[("op", "deliver")]), Some(1));
        assert_eq!(count("hub_lock_hold_us", &[("op", "halt")]), Some(1));
        drop(session);
    }
}
