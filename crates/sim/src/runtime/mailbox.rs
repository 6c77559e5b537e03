//! The unified message substrate: per-directed-link FIFO queues and the
//! single send path both engines use.

use std::collections::VecDeque;
use std::time::Instant;

use crate::message::Message;
use crate::port::{Port, PortId};
use crate::profile;
use crate::runtime::causal::CausalStamp;
use crate::runtime::meter::CostMeter;
use crate::runtime::observer::{Observer, SendEvent, TraceEvent};
use crate::runtime::span::Span;
use crate::topology::Topology;

/// Everything the engine stamps onto one send besides the routing: timing,
/// phase annotation, and the causal fields from
/// [`crate::runtime::CausalClocks`]. Bundled so the send path keeps one
/// signature as the stamp grows.
#[derive(Debug, Clone, Copy)]
pub struct SendMeta {
    /// Time of the send: cycle (sync) or arrival epoch (async).
    pub send_time: u64,
    /// Due time at the receiver: arrival cycle (sync) or epoch (async).
    pub due_time: u64,
    /// Phase annotation of the emission, if any.
    pub span: Option<Span>,
    /// Sender's Lamport timestamp at the send.
    pub lamport: u64,
    /// `seq` of the send whose delivery causally enabled this one.
    pub parent: Option<u64>,
}

/// The messages a processor received at the start of a cycle (sent by its
/// neighbours in the previous cycle). At most one message per port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Received<M> {
    /// Message that arrived on the local left port, if any.
    pub from_left: Option<M>,
    /// Message that arrived on the local right port, if any.
    pub from_right: Option<M>,
}

impl<M> Received<M> {
    /// A reception with no messages.
    #[must_use]
    pub fn empty() -> Received<M> {
        Received {
            from_left: None,
            from_right: None,
        }
    }

    /// Whether no message arrived this cycle.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.from_left.is_none() && self.from_right.is_none()
    }

    /// Iterates over the (port, message) pairs that arrived.
    pub fn iter(&self) -> impl Iterator<Item = (Port, &M)> {
        self.from_left
            .iter()
            .map(|m| (Port::Left, m))
            .chain(self.from_right.iter().map(|m| (Port::Right, m)))
    }

    /// The message that arrived on `port`, if any.
    #[must_use]
    pub fn on(&self, port: Port) -> Option<&M> {
        match port {
            Port::Left => self.from_left.as_ref(),
            Port::Right => self.from_right.as_ref(),
        }
    }
}

impl<M> Default for Received<M> {
    fn default() -> Self {
        Received::empty()
    }
}

/// The messages a processor received in one step of a general-topology
/// run: one optional slot per local port. The port-vector analogue of the
/// ring's [`Received`], which it lowers to via [`PortRx::into_ring`] for
/// two-port processes.
///
/// The slots are allocated on the first [`PortRx::put`], so a quiet step
/// (and lowering an empty reception to the ring view) allocates nothing.
#[derive(Debug, Clone)]
pub struct PortRx<M> {
    ports: usize,
    /// Empty until the first `put`, then one slot per port.
    slots: Vec<Option<M>>,
}

impl<M> PortRx<M> {
    /// An empty reception for a processor with `ports` local ports.
    #[must_use]
    pub fn with_ports(ports: usize) -> PortRx<M> {
        PortRx {
            ports,
            slots: Vec::new(),
        }
    }

    /// The processor's local port count — the only topology knowledge an
    /// anonymous process is entitled to.
    #[must_use]
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Whether no message arrived.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    /// The message that arrived on `port`, if any.
    #[must_use]
    pub fn get(&self, port: PortId) -> Option<&M> {
        self.slots.get(port.index()).and_then(Option::as_ref)
    }

    /// Removes and returns the message that arrived on `port`.
    pub fn take(&mut self, port: PortId) -> Option<M> {
        self.slots.get_mut(port.index()).and_then(Option::take)
    }

    /// Fills `port`'s slot.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not one of the processor's ports.
    pub fn put(&mut self, port: PortId, msg: M) {
        assert!(port.index() < self.ports, "port out of range");
        if self.slots.is_empty() {
            self.slots.resize_with(self.ports, || None);
        }
        self.slots[port.index()] = Some(msg);
    }

    /// Iterates over the (port, message) pairs that arrived, in port
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (PortId, &M)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(p, m)| m.as_ref().map(|m| (PortId::new(p as u16), m)))
    }

    /// Lowers a two-port reception to the ring's [`Received`] view.
    ///
    /// # Panics
    ///
    /// Panics if the processor has more than two ports — a ring-era
    /// process cannot run on a higher-degree topology.
    #[must_use]
    pub fn into_ring(mut self) -> Received<M> {
        assert!(
            self.ports <= 2,
            "two-port process on a {}-port topology",
            self.ports
        );
        Received {
            from_left: self.take(PortId::LEFT),
            from_right: self.take(PortId::RIGHT),
        }
    }
}

/// Equal when the port counts and the arrived messages are, however the
/// slots were filled and emptied.
impl<M: PartialEq> PartialEq for PortRx<M> {
    fn eq(&self, other: &Self) -> bool {
        self.ports == other.ports && self.iter().eq(other.iter())
    }
}

impl<M: Eq> Eq for PortRx<M> {}

/// A deliverable message the scheduler may choose: the head of one directed
/// link's FIFO queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Receiving processor.
    pub to: usize,
    /// Arrival port at the receiver.
    pub port: PortId,
    /// The message's epoch (delivery "cycle" under the synchronizing
    /// adversary: sender's event epoch + 1).
    pub epoch: u64,
    /// Global send sequence number (total order of sends).
    pub seq: u64,
    pub(crate) queue: usize,
}

/// One queued message.
#[derive(Debug, Clone)]
struct InFlight<M> {
    msg: M,
    /// Due time at the receiver: arrival cycle (sync) or epoch (async).
    time: u64,
    /// The send's causal identity (seq, Lamport timestamp, parent edge).
    stamp: CausalStamp,
    /// Enqueue wall stamp, present only while the S26 profiler is
    /// enabled — consumed at dequeue to record queue dwell.
    enqueued: Option<Instant>,
}

/// A message popped from the fabric, with its timing metadata.
#[derive(Debug, Clone)]
pub(crate) struct Popped<M> {
    /// The message itself.
    pub msg: M,
    /// Its due time (arrival cycle / epoch).
    pub time: u64,
    /// The causal stamp it was sent with.
    pub stamp: CausalStamp,
}

/// The per-directed-link FIFO queues of a topology, plus the one send
/// path: route via the topology, meter the cost, notify observers,
/// enqueue.
///
/// One queue per `(processor, local port)` pair holds the messages
/// awaiting consumption there, in FIFO order — the model invariant every
/// paper argument assumes. On a ring this is exactly the historical `2n`
/// queues. Constructed per run; the topology is borrowed from the engine.
pub struct LinkFabric<'t, M> {
    topology: &'t dyn Topology,
    /// `offsets[i]` = index of processor `i`'s port-0 queue; queues for
    /// `i`'s ports are contiguous, ending at `offsets[i + 1]` (the last
    /// entry is the queue count).
    offsets: Vec<usize>,
    queues: Vec<VecDeque<InFlight<M>>>,
    seq: u64,
}

impl<M> core::fmt::Debug for LinkFabric<'_, M> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("LinkFabric")
            .field("n", &self.topology.n())
            .field("queues", &self.queues.len())
            .field("seq", &self.seq)
            .finish()
    }
}

impl<'t, M: Message> LinkFabric<'t, M> {
    /// Empty fabric over `topology`.
    #[must_use]
    pub fn new(topology: &'t dyn Topology) -> LinkFabric<'t, M> {
        let mut offsets = Vec::with_capacity(topology.n() + 1);
        let mut total = 0;
        for i in 0..topology.n() {
            offsets.push(total);
            total += topology.ports(i);
        }
        offsets.push(total);
        LinkFabric {
            topology,
            offsets,
            queues: (0..total).map(|_| VecDeque::new()).collect(),
            seq: 0,
        }
    }

    fn queue_index(&self, to: usize, port: PortId) -> usize {
        debug_assert!(port.index() < self.topology.ports(to), "port out of range");
        self.offsets[to] + port.index()
    }

    /// Sends `msg` from processor `from` on its local `port`: routes it via
    /// the topology, accounts it on `meter` at time `meta.send_time`, emits
    /// a [`TraceEvent::Send`] carrying the causal stamp, and enqueues it
    /// due at `meta.due_time`.
    ///
    /// In the sync model `send_time` is the send cycle and `due_time` the
    /// arrival cycle (`send + 1`: one hop per cycle); in the async model
    /// both are the arrival epoch (event epoch + 1, Theorem 5.1).
    ///
    /// Returns the message as a [`Candidate`] (receiver, arrival port, due
    /// time, seq) and whether it is now its queue's head — true exactly
    /// when the queue was empty, the one case in which a send changes the
    /// set of deliverable heads.
    pub fn send(
        &mut self,
        from: usize,
        port: PortId,
        msg: M,
        meta: SendMeta,
        meter: &mut CostMeter,
        observer: &mut impl Observer,
    ) -> (Candidate, bool) {
        let bits = msg.bit_len();
        let (to, arrival) = self.topology.neighbor_port(from, port);
        let stamp = CausalStamp {
            seq: self.seq,
            lamport: meta.lamport,
            parent: meta.parent,
        };
        meter.record_send(meta.send_time, bits);
        observer.on_event(&TraceEvent::Send(SendEvent {
            cycle: meta.send_time,
            from,
            to,
            port: arrival,
            bits,
            seq: stamp.seq,
            lamport: stamp.lamport,
            parent: stamp.parent,
            span: meta.span,
        }));
        let queue = self.queue_index(to, arrival);
        let is_head = self.queues[queue].is_empty();
        self.queues[queue].push_back(InFlight {
            msg,
            time: meta.due_time,
            stamp,
            enqueued: profile::stamp(),
        });
        self.seq += 1;
        let landed = Candidate {
            to,
            port: arrival,
            epoch: meta.due_time,
            seq: stamp.seq,
            queue,
        };
        (landed, is_head)
    }

    /// Removes and returns the messages due for processor `to` at time
    /// `now` — the sync model's per-cycle reception (at most one message
    /// per port: senders emit at most one per port per cycle, and nothing
    /// is released before it is due). The second component carries the
    /// causal stamps of the taken messages, port for port, so the engine
    /// can account the consumptions on its [`crate::runtime::CausalClocks`]
    /// and emit seq-carrying [`TraceEvent::Deliver`]s.
    pub fn take_due(&mut self, to: usize, now: u64) -> (PortRx<M>, PortRx<CausalStamp>) {
        let ports = self.topology.ports(to);
        let mut rx = PortRx::with_ports(ports);
        let mut stamps = PortRx::with_ports(ports);
        for p in 0..ports {
            let port = PortId::new(p as u16);
            let queue = self.offsets[to] + p;
            let q = &mut self.queues[queue];
            if q.front().is_some_and(|m| m.time <= now) {
                let m = q.pop_front().expect("checked front");
                debug_assert!(
                    q.front().is_none_or(|m| m.time > now),
                    "one message per port per cycle"
                );
                profile::record_queue_dwell(profile::QueueKind::Fabric, p, m.enqueued);
                rx.put(port, m.msg);
                stamps.put(port, m.stamp);
            }
        }
        (rx, stamps)
    }

    /// The head of the queue at `to`'s `port` as a scheduler candidate,
    /// if the queue is non-empty.
    pub(crate) fn queue_head(&self, to: usize, port: PortId) -> Option<Candidate> {
        self.head(to, self.queue_index(to, port))
    }

    /// The head of `queue`, which belongs to processor `to`.
    fn head(&self, to: usize, queue: usize) -> Option<Candidate> {
        self.queues[queue].front().map(|head| Candidate {
            to,
            port: PortId::new((queue - self.offsets[to]) as u16),
            epoch: head.time,
            seq: head.stamp.seq,
            queue,
        })
    }

    /// Collects the current queue heads as scheduler candidates — the async
    /// model's delivery choices — in ascending `(to, port)` order. Clears
    /// and refills `out`.
    pub fn candidates(&self, out: &mut Vec<Candidate>) {
        out.clear();
        for (to, block) in self.offsets.windows(2).enumerate() {
            for queue in block[0]..block[1] {
                if let Some(head) = self.head(to, queue) {
                    out.push(head);
                }
            }
        }
    }

    /// Pops the head of the queue `candidate` points at.
    pub(crate) fn pop_candidate(&mut self, candidate: &Candidate) -> Popped<M> {
        let head = self.queues[candidate.queue]
            .pop_front()
            .expect("candidate refers to a nonempty queue head");
        profile::record_queue_dwell(
            profile::QueueKind::Fabric,
            candidate.port.index(),
            head.enqueued,
        );
        Popped {
            msg: head.msg,
            time: head.time,
            stamp: head.stamp,
        }
    }

    /// Discards everything still queued, returning the count — the sync
    /// engine's end-of-run accounting of in-flight messages to halted
    /// processors.
    pub fn drain_remaining(&mut self) -> u64 {
        self.queues
            .iter_mut()
            .map(|q| {
                let len = q.len() as u64;
                q.clear();
                len
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::{Candidate, LinkFabric, PortRx, Received, SendMeta};
    use crate::graph::GraphTopology;
    use crate::port::{Port, PortId};
    use crate::runtime::meter::CostMeter;
    use crate::runtime::observer::NullObserver;
    use crate::topology::RingTopology;

    fn meta(send_time: u64, due_time: u64) -> SendMeta {
        SendMeta {
            send_time,
            due_time,
            span: None,
            lamport: 1,
            parent: None,
        }
    }

    #[test]
    fn received_accessors_cover_both_ports() {
        let rx = Received {
            from_left: Some(1u8),
            from_right: None,
        };
        assert!(!rx.is_empty());
        assert_eq!(rx.on(Port::Left), Some(&1));
        assert_eq!(rx.on(Port::Right), None);
        assert_eq!(rx.iter().count(), 1);
        assert!(Received::<u8>::empty().is_empty());
    }

    #[test]
    fn messages_are_not_released_before_their_due_time() {
        let topo = RingTopology::oriented(3).unwrap();
        let mut fabric: LinkFabric<u8> = LinkFabric::new(&topo);
        let (mut meter, mut obs) = (CostMeter::new(), NullObserver);
        // Sent at cycle 0, due at cycle 1 — one hop per cycle.
        fabric.send(0, PortId::RIGHT, 7, meta(0, 1), &mut meter, &mut obs);
        assert!(fabric.take_due(1, 0).0.is_empty());
        let (rx, stamps) = fabric.take_due(1, 1);
        let rx = rx.into_ring();
        assert_eq!(rx.from_left, Some(7));
        let stamp = stamps
            .get(PortId::LEFT)
            .expect("stamp travels with the message");
        assert_eq!((stamp.seq, stamp.lamport, stamp.parent), (0, 1, None));
        assert_eq!(meter.messages, 1);
        assert_eq!(meter.bits, 8);
    }

    #[test]
    fn routing_respects_per_processor_orientation() {
        use crate::port::Orientation;
        // Processor 1 is counterclockwise: 0's rightward message arrives
        // on 1's *right* port.
        let topo = RingTopology::new(vec![
            Orientation::Clockwise,
            Orientation::Counterclockwise,
            Orientation::Clockwise,
        ])
        .unwrap();
        let mut fabric: LinkFabric<u8> = LinkFabric::new(&topo);
        let (mut meter, mut obs) = (CostMeter::new(), NullObserver);
        fabric.send(0, PortId::RIGHT, 42, meta(0, 1), &mut meter, &mut obs);
        let (rx, _) = fabric.take_due(1, 1);
        let rx = rx.into_ring();
        assert_eq!(rx.from_right, Some(42));
        assert_eq!(rx.from_left, None);
    }

    #[test]
    fn candidates_expose_fifo_heads_in_seq_order() {
        let topo = RingTopology::oriented(2).unwrap();
        let mut fabric: LinkFabric<u8> = LinkFabric::new(&topo);
        let (mut meter, mut obs) = (CostMeter::new(), NullObserver);
        fabric.send(0, PortId::RIGHT, 1, meta(1, 1), &mut meter, &mut obs);
        fabric.send(0, PortId::RIGHT, 2, meta(1, 1), &mut meter, &mut obs);
        fabric.send(1, PortId::RIGHT, 3, meta(1, 1), &mut meter, &mut obs);
        let mut cands: Vec<Candidate> = Vec::new();
        fabric.candidates(&mut cands);
        assert_eq!(cands.len(), 2, "one head per nonempty directed link");
        let first = cands.iter().find(|c| c.to == 1).unwrap();
        let popped = fabric.pop_candidate(first);
        assert_eq!(popped.msg, 1, "per-link FIFO: first send pops first");
        fabric.candidates(&mut cands);
        assert_eq!(cands.iter().find(|c| c.to == 1).unwrap().seq, 1);
        assert_eq!(fabric.drain_remaining(), 2);
        fabric.candidates(&mut cands);
        assert!(cands.is_empty());
    }

    #[test]
    fn port_rx_covers_the_port_vector() {
        let mut rx: PortRx<u8> = PortRx::with_ports(3);
        assert_eq!(rx.ports(), 3);
        assert!(rx.is_empty());
        rx.put(PortId::new(2), 9);
        assert!(!rx.is_empty());
        assert_eq!(rx.get(PortId::new(2)), Some(&9));
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec![(PortId::new(2), &9)]);
        assert_eq!(rx.take(PortId::new(2)), Some(9));
        assert_eq!(rx.take(PortId::new(2)), None);
        // Out-of-range lookups are None, not panics (a two-port ring
        // reception probed at port 5).
        assert_eq!(rx.get(PortId::new(5)), None);
        // Emptied again, it equals a fresh reception.
        assert_eq!(rx, PortRx::with_ports(3));
    }

    #[test]
    fn quiet_receptions_allocate_nothing() {
        let topo = RingTopology::oriented(3).unwrap();
        let mut fabric: LinkFabric<u8> = LinkFabric::new(&topo);
        let (mut meter, mut obs) = (CostMeter::new(), NullObserver);
        let (rx, stamps) = fabric.take_due(1, 0);
        assert_eq!((rx.ports(), stamps.ports()), (2, 2));
        assert_eq!(rx.slots.capacity(), 0, "no message, no slots");
        assert_eq!(stamps.slots.capacity(), 0, "no stamp, no slots");
        assert!(rx.into_ring().is_empty());
        // The first arrival fills the slots.
        fabric.send(0, PortId::RIGHT, 7, meta(0, 1), &mut meter, &mut obs);
        let (rx, stamps) = fabric.take_due(1, 1);
        assert_eq!((rx.slots.len(), stamps.slots.len()), (2, 2));
        assert_eq!(rx.into_ring().from_left, Some(7));
    }

    #[test]
    fn fabric_routes_over_general_graphs() {
        // A star: processor 0 is the hub with three ports.
        let topo = GraphTopology::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let mut fabric: LinkFabric<u8> = LinkFabric::new(&topo);
        let (mut meter, mut obs) = (CostMeter::new(), NullObserver);
        for p in 0..3u16 {
            fabric.send(0, PortId::new(p), p as u8, meta(0, 1), &mut meter, &mut obs);
        }
        for leaf in 1..4usize {
            let (rx, _) = fabric.take_due(leaf, 1);
            assert_eq!(rx.ports(), 1, "leaves have one port");
            assert_eq!(rx.get(PortId::new(0)), Some(&(leaf as u8 - 1)));
        }
        // Replies land on the hub's distinct ports.
        for leaf in 1..4usize {
            fabric.send(
                leaf,
                PortId::new(0),
                10 + leaf as u8,
                meta(1, 2),
                &mut meter,
                &mut obs,
            );
        }
        let (rx, _) = fabric.take_due(0, 2);
        assert_eq!(rx.ports(), 3);
        assert_eq!(
            rx.iter().map(|(_, &m)| m).collect::<Vec<_>>(),
            vec![11, 12, 13]
        );
        assert_eq!(meter.messages, 6);
    }
}
