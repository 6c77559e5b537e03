//! The asynchronous (message-driven) execution engine (paper §2 and §5).
//!
//! Message delays are unpredictable but finite, and each link is FIFO. The
//! engine therefore keeps one FIFO queue per *directed link* — the shared
//! [`crate::runtime::LinkFabric`] — and lets a [`Scheduler`] — the
//! adversary — choose which queue delivers next.
//!
//! The built-in [`SynchronizingScheduler`] is exactly the adversary of
//! Theorem 5.1: it organises the execution into *cycles* (here called
//! epochs) such that every message sent at epoch `e` is received at epoch
//! `e + 1`, each processor receiving its left-port messages before its
//! right-port messages. Under this adversary the state of a processor after
//! `k` epochs depends only on its `k`-neighborhood, which is what makes the
//! asynchronous lower bounds work.
//!
//! A scheduler that is a fixed total order on candidates says so through
//! [`Scheduler::key`]; the engine then keeps the queue heads in a heap and
//! each delivery costs `O(log q)` in the `q` nonempty queues. Other
//! schedulers pick from the slice of all heads.
//!
//! This engine is a thin driver over [`crate::runtime`]: queues, cost
//! accounting and trace events all come from the shared substrate.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use crate::config::RingConfig;
use crate::error::SimError;
use crate::message::Message;
use crate::mix::SplitMix64;
use crate::port::{Port, PortId};
use crate::runtime::{
    CausalClocks, CostMeter, LinkFabric, NullObserver, Observer, PortActions, SendMeta, TraceEvent,
};
use crate::topology::{RingTopology, Topology};

pub use crate::runtime::{Actions, Candidate, Emit};

/// A processor of an asynchronous ring algorithm. State transitions are
/// message driven: the conceptual "start" message triggers
/// [`AsyncProcess::on_start`], and every subsequent delivery triggers
/// [`AsyncProcess::on_message`].
pub trait AsyncProcess {
    /// Message type sent on the channels.
    type Msg: Message;
    /// Output state when the processor halts.
    type Output: Clone + fmt::Debug + PartialEq;

    /// Reaction to the conceptual start message.
    fn on_start(&mut self) -> Actions<Self::Msg, Self::Output>;

    /// Reaction to a message arriving on local port `from`.
    fn on_message(&mut self, from: Port, msg: Self::Msg) -> Actions<Self::Msg, Self::Output>;
}

/// A processor of an asynchronous algorithm on an arbitrary port-labelled
/// topology: the general form the engine (and the `net` driver) actually
/// executes.
///
/// Every [`AsyncProcess`] is automatically an `AsyncPortProcess` (ports 0
/// and 1 are the ring's left and right), so ring algorithms run
/// unchanged. Higher-degree processes implement this trait directly.
pub trait AsyncPortProcess {
    /// Message type sent on the channels.
    type Msg: Message;
    /// Output state when the processor halts.
    type Output: Clone + fmt::Debug + PartialEq;

    /// Reaction to the conceptual start message.
    fn on_start_ports(&mut self) -> PortActions<Self::Msg, Self::Output>;

    /// Reaction to a message arriving on local port `from`.
    fn on_message_port(
        &mut self,
        from: PortId,
        msg: Self::Msg,
    ) -> PortActions<Self::Msg, Self::Output>;
}

impl<P: AsyncProcess> AsyncPortProcess for P {
    type Msg = P::Msg;
    type Output = P::Output;

    fn on_start_ports(&mut self) -> PortActions<Self::Msg, Self::Output> {
        self.on_start().into()
    }

    fn on_message_port(
        &mut self,
        from: PortId,
        msg: Self::Msg,
    ) -> PortActions<Self::Msg, Self::Output> {
        let from = from
            .as_ring()
            .expect("two-port process on a many-port topology");
        self.on_message(from, msg).into()
    }
}

/// A scheduler's total order on candidates, compared lexicographically:
/// the smallest key delivers first.
pub type ScheduleKey = (u64, u64, u64, u64);

/// The adversary: chooses which pending message is delivered next.
///
/// `pick` receives the heads of all nonempty link queues (so per-link FIFO
/// order is enforced structurally), in ascending `(to, port)` order, and
/// returns an index into that slice.
///
/// A scheduler whose choice is a fixed total order on the candidates says
/// so through [`Scheduler::key`] instead: if `key` returns `Some` it must
/// do so for every candidate, the keys of distinct candidates must differ,
/// and `pick` must return the candidate with the smallest key, which the
/// default `pick` does. The engine then keeps the queue heads in a heap
/// ordered by key and never builds the slice: each delivery costs
/// `O(log q)` in the `q` nonempty queues instead of a scan over all of
/// them. A scheduler implements `pick`, `key`, or both.
pub trait Scheduler {
    /// Chooses the next delivery among `candidates` (nonempty). The
    /// default picks the smallest key.
    ///
    /// # Panics
    ///
    /// The default panics if the scheduler has no key.
    fn pick(&mut self, candidates: &[Candidate]) -> usize {
        candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| {
                self.key(c)
                    .expect("a scheduler without a key implements pick")
            })
            .map(|(i, _)| i)
            .expect("candidates nonempty")
    }

    /// The candidate's position in this scheduler's total order, if it has
    /// one (default: none, so the engine calls `pick` on every slice).
    fn key(&self, _candidate: &Candidate) -> Option<ScheduleKey> {
        None
    }
}

/// Theorem 5.1's adversary: delivers strictly in epoch order, and within an
/// epoch orders by receiver index, left port before right port, then send
/// order. Every message sent at epoch `e` is received "at epoch `e + 1`".
#[derive(Debug, Clone, Copy, Default)]
pub struct SynchronizingScheduler;

impl Scheduler for SynchronizingScheduler {
    fn key(&self, c: &Candidate) -> Option<ScheduleKey> {
        Some((c.epoch, c.to as u64, c.port.index() as u64, c.seq))
    }
}

/// Delivers messages in global send order — the "everything takes exactly
/// one time unit" schedule.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn key(&self, c: &Candidate) -> Option<ScheduleKey> {
        Some((c.seq, 0, 0, 0))
    }
}

/// Delivers the *newest* pending message first (maximal reordering across
/// links; per-link FIFO still holds structurally). A stress-test
/// adversary: algorithms whose correctness arguments rely only on
/// link-FIFO must survive it.
#[derive(Debug, Clone, Copy, Default)]
pub struct LifoScheduler;

impl Scheduler for LifoScheduler {
    fn key(&self, c: &Candidate) -> Option<ScheduleKey> {
        Some((u64::MAX - c.seq, 0, 0, 0))
    }
}

/// Starves one directed link for as long as any other delivery is
/// possible — the slowest legal link in the model (delays are unbounded
/// but finite: when the victim is the only choice, it delivers).
#[derive(Debug, Clone, Copy)]
pub struct LinkStarvingScheduler {
    victim_to: usize,
    victim_port: PortId,
}

impl LinkStarvingScheduler {
    /// Starves the link delivering to processor `to` on its `port` (either
    /// a ring [`Port`] or a general [`PortId`]).
    #[must_use]
    pub fn new(to: usize, port: impl Into<PortId>) -> LinkStarvingScheduler {
        LinkStarvingScheduler {
            victim_to: to,
            victim_port: port.into(),
        }
    }
}

impl Scheduler for LinkStarvingScheduler {
    fn pick(&mut self, candidates: &[Candidate]) -> usize {
        candidates
            .iter()
            .enumerate()
            .find(|(_, c)| !(c.to == self.victim_to && c.port == self.victim_port))
            .or_else(|| candidates.iter().enumerate().next())
            .map(|(i, _)| i)
            .expect("candidates nonempty")
    }
}

/// Delivers a uniformly random pending message (deterministic given the
/// seed) — used to check that algorithm outputs are schedule independent.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: SplitMix64,
}

impl RandomScheduler {
    /// Creates a scheduler from a seed.
    #[must_use]
    pub fn new(seed: u64) -> RandomScheduler {
        RandomScheduler {
            rng: SplitMix64::new(seed.wrapping_add(SplitMix64::GAMMA)),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn pick(&mut self, candidates: &[Candidate]) -> usize {
        (self.rng.next_u64() % candidates.len() as u64) as usize
    }
}

/// The queue heads of a run in the scheduler's key order — maintained only
/// when the scheduler has a key ([`Scheduler::key`]).
///
/// A queue's head changes only when a send fills the empty queue or a pop
/// leaves it nonempty; the engine pushes the new head at exactly those
/// points, so the heap holds one entry per nonempty queue and never a
/// stale one.
struct HeadHeap<'s> {
    scheduler: &'s mut dyn Scheduler,
    keyed: bool,
    /// `(key, to, port)` of each queue head.
    heap: BinaryHeap<Reverse<(ScheduleKey, usize, PortId)>>,
}

impl<'s> HeadHeap<'s> {
    fn new(scheduler: &'s mut dyn Scheduler) -> HeadHeap<'s> {
        // `key` is all-or-nothing, so one probe decides the path.
        let probe = Candidate {
            to: 0,
            port: PortId::new(0),
            epoch: 0,
            seq: 0,
            queue: 0,
        };
        let keyed = scheduler.key(&probe).is_some();
        HeadHeap {
            scheduler,
            keyed,
            heap: BinaryHeap::new(),
        }
    }

    /// Records `head` as the new head of its queue.
    fn push(&mut self, head: &Candidate) {
        if self.keyed {
            let key = self
                .scheduler
                .key(head)
                .expect("a keyed scheduler keys every candidate");
            self.heap.push(Reverse((key, head.to, head.port)));
        }
    }
}

/// Outcome of a completed asynchronous run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsyncReport<O> {
    /// Total messages sent.
    pub messages: u64,
    /// Total bits sent.
    pub bits: u64,
    /// Total deliveries performed (messages to halted processors count as
    /// deliveries but are dropped).
    pub deliveries: u64,
    /// Messages that arrived at an already-halted processor.
    pub dropped: u64,
    /// Highest epoch of any sent message — under the synchronizing
    /// scheduler this is the number of "cycles" the computation took.
    pub max_epoch: u64,
    outputs: Vec<O>,
}

impl<O> AsyncReport<O> {
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
}

/// Default delivery budget, analogous to
/// [`crate::sync::DEFAULT_MAX_CYCLES`].
pub const DEFAULT_MAX_DELIVERIES: u64 = 50_000_000;

/// Driver for an asynchronous ring computation.
///
/// ```
/// use anonring_sim::r#async::{Actions, AsyncEngine, AsyncProcess, Emit, RandomScheduler};
/// use anonring_sim::{Port, RingTopology};
///
/// /// Every processor forwards one token and halts with its hop count.
/// #[derive(Debug)]
/// struct Hop;
/// impl AsyncProcess for Hop {
///     type Msg = u64;
///     type Output = u64;
///     fn on_start(&mut self) -> Actions<u64, u64> {
///         Actions::send(Port::Right, 1)
///     }
///     fn on_message(&mut self, _from: Port, hops: u64) -> Actions<u64, u64> {
///         Actions::send(Port::Right, hops + 1).and_halt(hops)
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topology = RingTopology::oriented(5)?;
/// let mut engine = AsyncEngine::new(topology, (0..5).map(|_| Hop).collect())?;
/// let report = engine.run(&mut RandomScheduler::new(1))?;
/// assert_eq!(report.messages, 10);
/// assert!(report.outputs().iter().all(|&h| h == 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AsyncEngine<P: AsyncPortProcess, T: Topology = RingTopology> {
    topology: T,
    procs: Vec<P>,
    max_deliveries: u64,
}

impl<P: AsyncPortProcess> AsyncEngine<P, RingTopology> {
    /// Builds an engine from a ring configuration, constructing each
    /// process from its index and input.
    pub fn from_config<V>(
        config: &RingConfig<V>,
        mut make: impl FnMut(usize, &V) -> P,
    ) -> AsyncEngine<P, RingTopology> {
        let procs = config
            .inputs()
            .iter()
            .enumerate()
            .map(|(i, v)| make(i, v))
            .collect();
        AsyncEngine::new(config.topology().clone(), procs).expect("config is self-consistent")
    }
}

impl<P: AsyncPortProcess, T: Topology> AsyncEngine<P, T> {
    /// Builds an engine over `topology` with one process per processor.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::LengthMismatch`] if `procs.len() != n`.
    pub fn new(topology: T, procs: Vec<P>) -> Result<AsyncEngine<P, T>, SimError> {
        if procs.len() != topology.n() {
            return Err(SimError::LengthMismatch {
                expected: topology.n(),
                actual: procs.len(),
            });
        }
        Ok(AsyncEngine {
            topology,
            procs,
            max_deliveries: DEFAULT_MAX_DELIVERIES,
        })
    }

    /// Sets the delivery budget after which the run aborts.
    pub fn set_max_deliveries(&mut self, max_deliveries: u64) -> &mut Self {
        self.max_deliveries = max_deliveries;
        self
    }

    /// The ring size.
    #[must_use]
    pub fn n(&self) -> usize {
        self.topology.n()
    }

    /// The topology the engine runs over.
    #[must_use]
    pub fn topology(&self) -> &T {
        &self.topology
    }

    /// Runs the computation under `scheduler` until quiescence.
    ///
    /// # Errors
    ///
    /// * [`SimError::QuiescentWithoutHalt`] if no messages remain but some
    ///   processor never halted (an algorithm deadlock);
    /// * [`SimError::DisconnectedTopology`] for the same quiescence on a
    ///   topology with more than one connected component;
    /// * [`SimError::MaxDeliveriesExceeded`] if the delivery budget runs
    ///   out (an algorithm livelock).
    pub fn run(
        &mut self,
        scheduler: &mut dyn Scheduler,
    ) -> Result<AsyncReport<P::Output>, SimError> {
        self.run_with_observer(scheduler, &mut NullObserver)
    }

    /// Runs the computation while streaming every [`TraceEvent`] to
    /// `observer`.
    ///
    /// # Errors
    ///
    /// As for [`AsyncEngine::run`].
    pub fn run_with_observer(
        &mut self,
        scheduler: &mut dyn Scheduler,
        observer: &mut impl Observer,
    ) -> Result<AsyncReport<P::Output>, SimError> {
        let n = self.topology.n();
        let procs = &mut self.procs;
        let mut halted: Vec<Option<P::Output>> = (0..n).map(|_| None).collect();
        let mut meter = CostMeter::new();
        let mut fabric: LinkFabric<P::Msg> = LinkFabric::new(&self.topology);
        let mut clocks = CausalClocks::new(n);

        // Dispatch one event's reactions: sends are tagged with the arrival
        // epoch (event epoch + 1), Theorem 5.1's bookkeeping. A send that
        // fills an empty queue gives it a head, which joins the key heap.
        #[allow(clippy::too_many_arguments)] // engine internals threaded through one helper
        fn dispatch<M: Message, O>(
            from: usize,
            actions: PortActions<M, O>,
            event_epoch: u64,
            fabric: &mut LinkFabric<'_, M>,
            heads: &mut HeadHeap<'_>,
            clocks: &mut CausalClocks,
            meter: &mut CostMeter,
            observer: &mut impl Observer,
            halted: &mut [Option<O>],
        ) {
            let send_epoch = event_epoch + 1;
            for (port, msg) in actions.sends {
                let (lamport, parent) = clocks.stamp_send(from);
                let meta = SendMeta {
                    send_time: send_epoch,
                    due_time: send_epoch,
                    span: actions.span,
                    lamport,
                    parent,
                };
                let (landed, is_head) = fabric.send(from, port, msg, meta, meter, observer);
                if is_head {
                    heads.push(&landed);
                }
            }
            if let Some(output) = actions.halt {
                halted[from] = Some(output);
                observer.on_event(&TraceEvent::Halt {
                    time: event_epoch,
                    processor: from,
                });
            }
        }

        let mut heads = HeadHeap::new(scheduler);
        // Conceptual start messages: every processor's initial transition
        // happens at epoch 0.
        for (i, proc) in procs.iter_mut().enumerate() {
            let actions = proc.on_start_ports();
            dispatch(
                i,
                actions,
                0,
                &mut fabric,
                &mut heads,
                &mut clocks,
                &mut meter,
                observer,
                &mut halted,
            );
        }

        // Keyed schedulers take the heap's minimum; the rest pick from the
        // slice of all queue heads.
        let mut candidates: Vec<Candidate> = Vec::new();
        loop {
            if heads.keyed {
                if heads.heap.is_empty() {
                    break;
                }
            } else {
                fabric.candidates(&mut candidates);
                if candidates.is_empty() {
                    break;
                }
            }
            if meter.deliveries >= self.max_deliveries {
                return Err(SimError::MaxDeliveriesExceeded {
                    max_deliveries: self.max_deliveries,
                });
            }
            let cand = match heads.heap.pop() {
                Some(Reverse((_, to, port))) => fabric
                    .queue_head(to, port)
                    .expect("the key heap holds exactly the nonempty queues"),
                None => candidates[heads.scheduler.pick(&candidates)],
            };
            let popped = fabric.pop_candidate(&cand);
            if let Some(next) = fabric.queue_head(cand.to, cand.port) {
                heads.push(&next);
            }
            meter.record_delivery();
            let is_drop = halted[cand.to].is_some();
            observer.on_event(&TraceEvent::Deliver {
                time: popped.time,
                to: cand.to,
                port: cand.port,
                seq: popped.stamp.seq,
                dropped: is_drop,
            });
            if is_drop {
                meter.record_drop();
                continue;
            }
            clocks.consume(cand.to, popped.stamp);
            let actions = procs[cand.to].on_message_port(cand.port, popped.msg);
            dispatch(
                cand.to,
                actions,
                popped.time,
                &mut fabric,
                &mut heads,
                &mut clocks,
                &mut meter,
                observer,
                &mut halted,
            );
        }

        let running = halted.iter().filter(|h| h.is_none()).count();
        if running > 0 {
            // Distinguish "the algorithm deadlocked" from "the graph cannot
            // carry the information at all": quiescence on a disconnected
            // topology gets its own verdict.
            let components = self.topology.components();
            if components > 1 {
                return Err(SimError::DisconnectedTopology {
                    components,
                    running,
                });
            }
            return Err(SimError::QuiescentWithoutHalt { running });
        }
        Ok(AsyncReport {
            messages: meter.messages,
            bits: meter.bits,
            deliveries: meter.deliveries,
            dropped: meter.dropped,
            max_epoch: meter.max_time,
            outputs: halted
                .into_iter()
                .map(|h| h.expect("running == 0 was checked: every processor has halted"))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Recording;

    /// Runs `engine` under the synchronizing adversary into a fresh
    /// recording.
    fn run_recorded<P: AsyncPortProcess, T: Topology>(
        engine: &mut AsyncEngine<P, T>,
    ) -> (AsyncReport<P::Output>, Recording) {
        let mut recording = Recording::new(engine.n(), "async");
        let report = engine
            .run_with_observer(&mut SynchronizingScheduler, &mut recording)
            .unwrap();
        (report, recording)
    }

    /// Every processor emits one token; on its first delivery it forwards
    /// once more and halts. Second-generation tokens die at halted
    /// receivers, so the run is deterministic under *any* scheduler:
    /// exactly `2n` messages, every output `1`.
    #[derive(Debug)]
    struct Relay;

    impl AsyncProcess for Relay {
        type Msg = u64;
        type Output = u64;
        fn on_start(&mut self) -> Actions<u64, u64> {
            Actions::send(Port::Right, 1)
        }
        fn on_message(&mut self, from: Port, hops: u64) -> Actions<u64, u64> {
            assert_eq!(from, Port::Left, "oriented ring: tokens arrive left");
            Actions::send(Port::Right, hops + 1).and_halt(hops)
        }
    }

    fn run_relay(scheduler: &mut dyn Scheduler, n: usize) -> AsyncReport<u64> {
        let topo = RingTopology::oriented(n).unwrap();
        let mut engine = AsyncEngine::new(topo, (0..n).map(|_| Relay).collect()).unwrap();
        engine.run(scheduler).unwrap()
    }

    fn cand(to: usize, port: u16, epoch: u64, seq: u64) -> Candidate {
        Candidate {
            to,
            port: PortId::new(port),
            epoch,
            seq,
            queue: 2 * to + port as usize,
        }
    }

    #[test]
    fn keyed_schedulers_pick_their_documented_orders() {
        // Heads in (to, port) order, as the fabric lists them.
        let heads = [
            cand(0, 1, 2, 5),
            cand(1, 0, 1, 7),
            cand(1, 1, 1, 3),
            cand(2, 0, 2, 1),
        ];
        // Epoch first, then receiver, then port.
        assert_eq!(SynchronizingScheduler.pick(&heads), 1);
        // Oldest send.
        assert_eq!(FifoScheduler.pick(&heads), 3);
        // Newest send.
        assert_eq!(LifoScheduler.pick(&heads), 1);
        assert_eq!(RandomScheduler::new(1).key(&heads[0]), None);
    }

    #[test]
    fn relay_is_schedule_independent() {
        for n in [2usize, 3, 5, 8] {
            for (name, mut sched) in [
                (
                    "sync",
                    Box::new(SynchronizingScheduler) as Box<dyn Scheduler>,
                ),
                ("fifo", Box::new(FifoScheduler) as Box<dyn Scheduler>),
                (
                    "rand",
                    Box::new(RandomScheduler::new(42)) as Box<dyn Scheduler>,
                ),
            ] {
                let report = run_relay(sched.as_mut(), n);
                assert_eq!(report.messages, 2 * n as u64, "{name} n={n}");
                assert_eq!(report.dropped, n as u64, "{name} n={n}");
                assert!(report.outputs().iter().all(|&h| h == 1), "{name} n={n}");
            }
        }
    }

    #[test]
    fn synchronizing_scheduler_assigns_epochs_like_cycles() {
        let topo = RingTopology::oriented(4).unwrap();
        let mut engine = AsyncEngine::new(topo, (0..4).map(|_| Relay).collect()).unwrap();
        let (report, recording) = run_recorded(&mut engine);
        // Starts emit at epoch 1; the single forwarding generation at
        // epoch 2.
        assert_eq!(report.max_epoch, 2);
        // Three epochs: none sends at epoch 0, four at each of 1 and 2.
        assert_eq!(recording.horizon(), 3);
        let sent: Vec<(u64, u64)> = recording
            .per_time_activity()
            .iter()
            .filter(|row| row.1 > 0)
            .map(|row| (row.0, row.1))
            .collect();
        assert_eq!(sent, [(1, 4), (2, 4)]);
    }

    #[derive(Debug)]
    struct Silent;
    impl AsyncProcess for Silent {
        type Msg = ();
        type Output = ();
        fn on_start(&mut self) -> Actions<(), ()> {
            Actions::idle()
        }
        fn on_message(&mut self, _f: Port, (): ()) -> Actions<(), ()> {
            Actions::idle()
        }
    }

    #[test]
    fn quiescence_without_halt_is_an_error() {
        let topo = RingTopology::oriented(2).unwrap();
        let mut engine = AsyncEngine::new(topo, vec![Silent, Silent]).unwrap();
        assert!(matches!(
            engine.run(&mut FifoScheduler),
            Err(SimError::QuiescentWithoutHalt { running: 2 })
        ));
    }

    #[derive(Debug)]
    struct PingForever;
    impl AsyncProcess for PingForever {
        type Msg = ();
        type Output = ();
        fn on_start(&mut self) -> Actions<(), ()> {
            Actions::send(Port::Right, ())
        }
        fn on_message(&mut self, _f: Port, (): ()) -> Actions<(), ()> {
            Actions::send(Port::Right, ())
        }
    }

    #[test]
    fn livelock_hits_delivery_budget() {
        let topo = RingTopology::oriented(2).unwrap();
        let mut engine = AsyncEngine::new(topo, vec![PingForever, PingForever]).unwrap();
        engine.set_max_deliveries(100);
        assert!(matches!(
            engine.run(&mut FifoScheduler),
            Err(SimError::MaxDeliveriesExceeded {
                max_deliveries: 100
            })
        ));
    }

    #[test]
    fn messages_to_halted_processors_are_dropped() {
        #[derive(Debug)]
        struct OneShot;
        impl AsyncProcess for OneShot {
            type Msg = ();
            type Output = ();
            fn on_start(&mut self) -> Actions<(), ()> {
                Actions::send_both((), ()).and_halt(())
            }
            fn on_message(&mut self, _f: Port, (): ()) -> Actions<(), ()> {
                unreachable!("halted before any delivery")
            }
        }
        let topo = RingTopology::oriented(3).unwrap();
        let mut engine = AsyncEngine::new(topo, vec![OneShot, OneShot, OneShot]).unwrap();
        let report = engine.run(&mut FifoScheduler).unwrap();
        assert_eq!(report.messages, 6);
        assert_eq!(report.dropped, 6);
        assert_eq!(report.deliveries, 6);
    }

    #[test]
    fn random_scheduler_is_deterministic_per_seed() {
        let a = run_relay(&mut RandomScheduler::new(7), 6);
        let b = run_relay(&mut RandomScheduler::new(7), 6);
        assert_eq!(a, b);
    }

    #[test]
    fn adversarial_schedulers_preserve_outcomes() {
        let want = run_relay(&mut FifoScheduler, 7).into_outputs();
        assert_eq!(run_relay(&mut LifoScheduler, 7).into_outputs(), want);
        for victim in 0..7 {
            for port in [Port::Left, Port::Right] {
                let got = run_relay(&mut LinkStarvingScheduler::new(victim, port), 7);
                assert_eq!(got.into_outputs(), want, "victim {victim}/{port:?}");
            }
        }
    }

    #[test]
    fn starved_link_still_delivers_eventually() {
        // A ping-pong that *requires* the victim link to make progress.
        #[derive(Debug)]
        struct Echo {
            bounces: u8,
        }
        impl AsyncProcess for Echo {
            type Msg = u8;
            type Output = u8;
            fn on_start(&mut self) -> Actions<u8, u8> {
                Actions::send(Port::Right, 0)
            }
            fn on_message(&mut self, from: Port, b: u8) -> Actions<u8, u8> {
                self.bounces += 1;
                if b >= 4 {
                    Actions::halt(self.bounces)
                } else {
                    Actions::send(from.opposite(), b + 1).and_halt(self.bounces)
                }
            }
        }
        let topo = RingTopology::oriented(3).unwrap();
        let mut engine = AsyncEngine::new(
            topo,
            vec![
                Echo { bounces: 0 },
                Echo { bounces: 0 },
                Echo { bounces: 0 },
            ],
        )
        .unwrap();
        let report = engine
            .run(&mut LinkStarvingScheduler::new(0, Port::Left))
            .unwrap();
        assert_eq!(report.deliveries, report.messages);
    }

    /// An [`AsyncPortProcess`] on a general graph: every processor echoes
    /// the first message on each port back once, then halts once every port
    /// has spoken.
    #[derive(Debug)]
    struct EchoAll {
        ports: usize,
        heard: usize,
    }

    impl AsyncPortProcess for EchoAll {
        type Msg = u8;
        type Output = usize;
        fn on_start_ports(&mut self) -> PortActions<u8, usize> {
            let everywhere: Vec<PortId> = (0..self.ports as u16).map(PortId::new).collect();
            PortActions::send_each(&everywhere, 1)
        }
        fn on_message_port(&mut self, from: PortId, msg: u8) -> PortActions<u8, usize> {
            self.heard += 1;
            let step = if msg == 1 {
                PortActions::send(from, 2)
            } else {
                PortActions::idle()
            };
            if self.heard == 2 * self.ports {
                step.and_halt(self.heard)
            } else {
                step
            }
        }
    }

    #[test]
    fn general_graphs_run_on_the_async_engine() {
        // K_4: each processor sends one token per port and echoes each
        // token once — 12 first-generation + 12 echo messages.
        let graph = crate::graph::GraphTopology::complete(4).unwrap();
        let procs = (0..4).map(|_| EchoAll { ports: 3, heard: 0 }).collect();
        let mut engine = AsyncEngine::new(graph, procs).unwrap();
        let report = engine.run(&mut FifoScheduler).unwrap();
        assert_eq!(report.messages, 24);
        assert_eq!(report.outputs(), &[6, 6, 6, 6]);

        // The same run survives an adversarial schedule.
        let graph = crate::graph::GraphTopology::complete(4).unwrap();
        let procs = (0..4).map(|_| EchoAll { ports: 3, heard: 0 }).collect();
        let mut engine = AsyncEngine::new(graph, procs).unwrap();
        let report = engine.run(&mut RandomScheduler::new(9)).unwrap();
        assert_eq!(report.messages, 24);
        assert_eq!(report.outputs(), &[6, 6, 6, 6]);
    }

    #[test]
    fn async_quiescence_on_a_disconnected_graph_names_the_components() {
        // Two disjoint edges: every processor emits once and waits for
        // three deliveries, but only one can ever arrive across a single
        // edge — the run goes quiescent and the verdict names the split.
        #[derive(Debug)]
        struct WaitForThree {
            heard: u64,
        }
        impl AsyncPortProcess for WaitForThree {
            type Msg = u8;
            type Output = u64;
            fn on_start_ports(&mut self) -> PortActions<u8, u64> {
                PortActions::send(PortId::new(0), 1)
            }
            fn on_message_port(&mut self, _from: PortId, _msg: u8) -> PortActions<u8, u64> {
                self.heard += 1;
                if self.heard >= 3 {
                    PortActions::halt(self.heard)
                } else {
                    PortActions::idle()
                }
            }
        }
        let graph = crate::graph::GraphTopology::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let procs = (0..4).map(|_| WaitForThree { heard: 0 }).collect();
        let mut engine: AsyncEngine<WaitForThree, _> = AsyncEngine::new(graph, procs).unwrap();
        assert!(matches!(
            engine.run(&mut FifoScheduler),
            Err(SimError::DisconnectedTopology {
                components: 2,
                running: 4
            })
        ));
    }

    /// The async engine shares the recording plumbing: a recording keeps
    /// one event per send, stamped with the arrival epoch.
    #[test]
    fn async_runs_can_be_traced() {
        let topo = RingTopology::oriented(4).unwrap();
        let mut engine = AsyncEngine::new(topo, (0..4).map(|_| Relay).collect()).unwrap();
        let (report, recording) = run_recorded(&mut engine);
        assert_eq!(recording.messages(), report.messages);
        let rows = recording.per_time_activity();
        assert_eq!(rows.iter().map(|row| row.1).sum::<u64>(), report.messages);
        assert_eq!(
            rows.iter().rev().find(|row| row.1 > 0).map(|row| row.0),
            Some(report.max_epoch)
        );
    }
}
