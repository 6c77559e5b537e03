//! The synchronous (lock-step) execution engine (paper §2).
//!
//! All processors share a global clock. In each cycle a processor may send
//! one message to each neighbour; messages sent in cycle `t` are available
//! to the receiver in cycle `t + 1`, so information travels exactly one hop
//! per cycle — the property Lemma 3.1 (and every lower bound in the paper)
//! depends on. The engine enforces this by tagging each message with its
//! due cycle in the shared [`LinkFabric`], which refuses to release it
//! early.
//!
//! Processors may have individual *wake-up* cycles (paper §4.2.3): a
//! processor is idle until its spontaneous wake-up time or until a message
//! arrives, whichever comes first, and its `local_cycle` counts from that
//! moment.
//!
//! The engine runs over any [`Topology`]. On a *dynamic* topology
//! ([`Topology::is_dynamic`]), a send on a port whose wire is inactive in
//! the current round (`round` = global cycle) is absorbed: the edge does
//! not exist this round, so nothing is transmitted, metered or observed —
//! the dynamic-network convention that a processor may broadcast blindly
//! and only its current neighbours hear it.
//!
//! A cycle costs only what happens in it: the engine steps the processors
//! that are due — a message arrives, a wake-up falls, or the process asked
//! for the cycle through [`SyncProcess::next_active`] — in ascending index
//! order, so the event stream is the one stepping every processor would
//! give.
//!
//! This engine is a thin driver over [`crate::runtime`]: queues, cost
//! accounting and trace events all come from the shared substrate.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use crate::config::RingConfig;
use crate::error::SimError;
use crate::message::Message;
use crate::runtime::{
    CausalClocks, CostMeter, LinkFabric, NullObserver, Observer, PortActions, PortRx, SendMeta,
    TraceEvent,
};
use crate::topology::{RingTopology, Topology};

pub use crate::runtime::{Emit, Received, Step};

/// A processor of a synchronous ring algorithm.
///
/// The engine calls [`SyncProcess::step`] from the processor's wake-up on,
/// at every cycle in which a message arrives for it and at every cycle
/// [`SyncProcess::next_active`] asks for. `local_cycle` counts cycles since
/// the wake-up (`0` on the first call), whether or not the cycles between
/// two calls were stepped, and the `rx` of a call contains exactly the
/// messages the neighbours emitted in the previous cycle.
pub trait SyncProcess {
    /// Message type sent on the channels.
    type Msg: Message;
    /// Output state when the processor halts.
    type Output: Clone + fmt::Debug + PartialEq;

    /// Executes one cycle.
    fn step(&mut self, local_cycle: u64, rx: Received<Self::Msg>) -> Step<Self::Msg, Self::Output>;

    /// Called after a step at `local_cycle` that did not halt: the next
    /// local cycle at which the process must step even if no message
    /// arrives, or `None` if it only acts on arrivals.
    ///
    /// The contract: a step at any other cycle with an empty `rx` changes
    /// nothing the process later acts on and emits nothing. The engine
    /// skips those steps, while a wrapper (the α-synchronizer, say) may
    /// still make them, and the run must come out the same either way.
    /// Values at or below `local_cycle` mean the next cycle.
    ///
    /// The default, `local_cycle + 1`, steps the process every cycle.
    fn next_active(&self, local_cycle: u64) -> Option<u64> {
        Some(local_cycle + 1)
    }
}

/// A processor of a synchronous algorithm on an arbitrary port-labelled
/// topology: the general form the engine actually executes.
///
/// Every [`SyncProcess`] is automatically a `SyncPortProcess` (its
/// two-port `step` is lifted port-for-port), so ring algorithms run
/// unchanged. Processes for higher-degree topologies implement this trait
/// directly; `rx.ports()` is their local degree — the only topology
/// knowledge an anonymous process may use.
pub trait SyncPortProcess {
    /// Message type sent on the channels.
    type Msg: Message;
    /// Output state when the processor halts.
    type Output: Clone + fmt::Debug + PartialEq;

    /// Executes one cycle: at most one message per port. Called as
    /// [`SyncProcess::step`] is.
    fn step_ports(
        &mut self,
        local_cycle: u64,
        rx: PortRx<Self::Msg>,
    ) -> PortActions<Self::Msg, Self::Output>;

    /// As [`SyncProcess::next_active`].
    fn next_active(&self, local_cycle: u64) -> Option<u64> {
        Some(local_cycle + 1)
    }
}

impl<P: SyncProcess> SyncPortProcess for P {
    type Msg = P::Msg;
    type Output = P::Output;

    fn step_ports(
        &mut self,
        local_cycle: u64,
        rx: PortRx<Self::Msg>,
    ) -> PortActions<Self::Msg, Self::Output> {
        self.step(local_cycle, rx.into_ring()).into()
    }

    fn next_active(&self, local_cycle: u64) -> Option<u64> {
        SyncProcess::next_active(self, local_cycle)
    }
}

/// Appends processor `i` to the due `list` of `cycle` unless `listed`
/// shows it is already there.
fn enlist(listed: &mut [u64], list: &mut Vec<usize>, i: usize, cycle: u64) {
    if listed[i] != cycle {
        listed[i] = cycle;
        list.push(i);
    }
}

/// Outcome of a completed synchronous run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncReport<O> {
    /// Total messages sent (the paper's message complexity).
    pub messages: u64,
    /// Total bits sent (the paper's bit complexity).
    pub bits: u64,
    /// Global cycles elapsed until the last processor halted.
    pub cycles: u64,
    /// Messages delivered to already-halted processors (and discarded).
    pub dropped: u64,
    /// Global cycle at which each processor halted.
    pub halt_cycles: Vec<u64>,
    outputs: Vec<O>,
}

impl<O> SyncReport<O> {
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

    /// Whether all processors halted in the same global cycle — the start
    /// synchronization success criterion (paper §4.2.3).
    #[must_use]
    pub fn halted_simultaneously(&self) -> bool {
        self.halt_cycles.iter().all(|&c| c == self.halt_cycles[0])
    }
}

/// Driver for a synchronous computation over any [`Topology`] (defaults
/// to the ring).
#[derive(Debug, Clone)]
pub struct SyncEngine<P: SyncPortProcess, T: Topology = RingTopology> {
    topology: T,
    procs: Vec<P>,
    wake_at: Vec<u64>,
    max_cycles: u64,
}

/// Default cycle budget: generous enough for every algorithm in this
/// repository at the ring sizes the experiments use, small enough to catch
/// deadlocks quickly.
pub const DEFAULT_MAX_CYCLES: u64 = 50_000_000;

impl<P: SyncPortProcess> SyncEngine<P, RingTopology> {
    /// Builds an engine from a ring configuration, constructing each
    /// process from its index and input.
    ///
    /// # Panics
    ///
    /// Panics only if the configuration is internally inconsistent, which
    /// [`RingConfig`] constructors prevent.
    pub fn from_config<V>(
        config: &RingConfig<V>,
        mut make: impl FnMut(usize, &V) -> P,
    ) -> SyncEngine<P> {
        let procs = config
            .inputs()
            .iter()
            .enumerate()
            .map(|(i, v)| make(i, v))
            .collect();
        SyncEngine::new(config.topology().clone(), procs).expect("config is self-consistent")
    }
}

impl<P: SyncPortProcess, T: Topology> SyncEngine<P, T> {
    /// Builds an engine over `topology` with one process per processor.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::LengthMismatch`] if `procs.len() != n`.
    pub fn new(topology: T, procs: Vec<P>) -> Result<SyncEngine<P, T>, SimError> {
        if procs.len() != topology.n() {
            return Err(SimError::LengthMismatch {
                expected: topology.n(),
                actual: procs.len(),
            });
        }
        let n = topology.n();
        Ok(SyncEngine {
            topology,
            procs,
            wake_at: vec![0; n],
            max_cycles: DEFAULT_MAX_CYCLES,
        })
    }

    /// Sets per-processor spontaneous wake-up cycles (default: all zero,
    /// i.e. simultaneous start). A message arriving earlier wakes the
    /// processor at its arrival cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::LengthMismatch`] if the vector length is not `n`.
    pub fn set_wakeups(&mut self, wake_at: Vec<u64>) -> Result<&mut Self, SimError> {
        if wake_at.len() != self.topology.n() {
            return Err(SimError::LengthMismatch {
                expected: self.topology.n(),
                actual: wake_at.len(),
            });
        }
        self.wake_at = wake_at;
        Ok(self)
    }

    /// Sets the cycle budget after which the run aborts with
    /// [`SimError::MaxCyclesExceeded`].
    pub fn set_max_cycles(&mut self, max_cycles: u64) -> &mut Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Runs the computation to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MaxCyclesExceeded`] if some processor fails to
    /// halt within the cycle budget.
    pub fn run(&mut self) -> Result<SyncReport<P::Output>, SimError> {
        self.run_inner(|_, _| {}, &mut NullObserver)
    }

    /// Runs the computation, invoking `observe(cycle, procs)` after every
    /// cycle's state transitions and streaming every [`TraceEvent`] to
    /// `observer` — used by indistinguishability tests that compare
    /// processor states (Lemma 3.1/6.1), cycle by cycle or by the cycles
    /// whose sends the events show.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MaxCyclesExceeded`] if some processor fails to
    /// halt within the cycle budget.
    pub fn run_observed(
        &mut self,
        observe: impl FnMut(u64, &[P]),
        observer: &mut impl Observer,
    ) -> Result<SyncReport<P::Output>, SimError> {
        self.run_inner(observe, observer)
    }

    /// Runs the computation while streaming every [`TraceEvent`] to
    /// `observer`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MaxCyclesExceeded`] if some processor fails to
    /// halt within the cycle budget.
    pub fn run_with_observer(
        &mut self,
        observer: &mut impl Observer,
    ) -> Result<SyncReport<P::Output>, SimError> {
        self.run_inner(|_, _| {}, observer)
    }

    fn run_inner(
        &mut self,
        mut observe: impl FnMut(u64, &[P]),
        observer: &mut impl Observer,
    ) -> Result<SyncReport<P::Output>, SimError> {
        let n = self.topology.n();
        let procs = &mut self.procs;
        let wake_at = &self.wake_at;
        let mut halted: Vec<Option<P::Output>> = (0..n).map(|_| None).collect();
        let mut running = n;
        let mut halt_cycles = vec![0u64; n];
        // The global cycle each processor woke at; its local cycle is the
        // global cycle minus this.
        let mut woke: Vec<Option<u64>> = vec![None; n];
        // The global cycle of each processor's requested step, if any.
        let mut requested: Vec<Option<u64>> = vec![None; n];
        let mut meter = CostMeter::new();
        let mut fabric: LinkFabric<P::Msg> = LinkFabric::new(&self.topology);
        let mut clocks = CausalClocks::new(n);
        // Spontaneous wake-ups in cycle order, consumed by a cursor.
        let mut wakeups: Vec<usize> = (0..n).collect();
        wakeups.sort_by_key(|&i| wake_at[i]);
        let mut wakeups = wakeups.into_iter().peekable();
        // Requested steps beyond the next cycle, as (cycle, processor).
        // An entry whose cycle no longer matches `requested` is stale.
        let mut timers: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        // The processors due this cycle and next: message receivers,
        // wake-ups and requested steps. `listed[i]` is the cycle `i` was
        // last listed for, so each is listed once per cycle.
        let mut due: Vec<usize> = Vec::new();
        let mut due_next: Vec<usize> = Vec::new();
        let mut listed = vec![u64::MAX; n];

        for cycle in 0..self.max_cycles {
            std::mem::swap(&mut due, &mut due_next);
            due_next.clear();
            while let Some(i) = wakeups.next_if(|&i| wake_at[i] <= cycle) {
                // A processor a message woke earlier is not due again.
                if woke[i].is_none() {
                    enlist(&mut listed, &mut due, i, cycle);
                }
            }
            while let Some(&Reverse((at, i))) = timers.peek() {
                if at > cycle {
                    break;
                }
                timers.pop();
                if requested[i] == Some(at) {
                    enlist(&mut listed, &mut due, i, cycle);
                }
            }
            // Ascending index order, as if every processor were visited:
            // the event stream does not depend on which steps were skipped.
            due.sort_unstable();

            // Step the due processors on last cycle's sends; emissions go
            // back into the fabric due next cycle, so they cannot be
            // consumed within this one.
            for &i in &due {
                if halted[i].is_some() {
                    let (_, stamps) = fabric.take_due(i, cycle);
                    for (port, stamp) in stamps.iter() {
                        meter.record_drop();
                        observer.on_event(&TraceEvent::Deliver {
                            time: cycle,
                            to: i,
                            port,
                            seq: stamp.seq,
                            dropped: true,
                        });
                    }
                    continue;
                }
                // Wake-ups: spontaneous or message-triggered. A sleeping
                // processor is listed only for one or the other.
                let woke_at = *woke[i].get_or_insert(cycle);
                let local_cycle = cycle - woke_at;
                let (rx, stamps) = fabric.take_due(i, cycle);
                for (port, stamp) in stamps.iter() {
                    clocks.consume(i, *stamp);
                    observer.on_event(&TraceEvent::Deliver {
                        time: cycle,
                        to: i,
                        port,
                        seq: stamp.seq,
                        dropped: false,
                    });
                }
                let step = procs[i].step_ports(local_cycle, rx);
                for (port, msg) in step.sends {
                    // Dynamic topologies: a send on an inactive wire is
                    // absorbed — the edge does not exist this round.
                    if !self.topology.is_active(cycle, i, port) {
                        continue;
                    }
                    let (lamport, parent) = clocks.stamp_send(i);
                    let meta = SendMeta {
                        send_time: cycle,
                        due_time: cycle + 1,
                        span: step.span,
                        lamport,
                        parent,
                    };
                    let (landed, _) = fabric.send(i, port, msg, meta, &mut meter, observer);
                    enlist(&mut listed, &mut due_next, landed.to, cycle + 1);
                }
                if let Some(output) = step.halt {
                    halted[i] = Some(output);
                    running -= 1;
                    halt_cycles[i] = cycle;
                    observer.on_event(&TraceEvent::Halt {
                        time: cycle,
                        processor: i,
                    });
                    continue;
                }
                let next = procs[i]
                    .next_active(local_cycle)
                    .map(|next| woke_at + next.max(local_cycle + 1));
                // An unchanged request lies beyond this cycle, so its timer
                // entry is still queued: relays that step on every arrival
                // and ask for the same milestone push it once.
                if next != requested[i] {
                    requested[i] = next;
                    match next {
                        Some(at) if at == cycle + 1 => enlist(&mut listed, &mut due_next, i, at),
                        Some(at) => timers.push(Reverse((at, i))),
                        None => {}
                    }
                }
            }
            observe(cycle, procs);

            if running == 0 {
                // Anything still in flight at halt time is dropped.
                for _ in 0..fabric.drain_remaining() {
                    meter.record_drop();
                }
                return Ok(SyncReport {
                    messages: meter.messages,
                    bits: meter.bits,
                    cycles: cycle + 1,
                    dropped: meter.dropped,
                    halt_cycles,
                    outputs: halted
                        .into_iter()
                        .map(|h| h.expect("running == 0: every slot is Some"))
                        .collect(),
                });
            }
        }

        let components = self.topology.components();
        if components > 1 {
            // A partition is not an algorithm bug: report it as such.
            return Err(SimError::DisconnectedTopology {
                components,
                running,
            });
        }
        Err(SimError::MaxCyclesExceeded {
            max_cycles: self.max_cycles,
            running,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RingConfig;
    use crate::port::{Orientation, Port, PortId};
    use crate::telemetry::Recording;

    /// Runs `engine` into a fresh recording; returns the report and the
    /// sends per cycle.
    fn run_recorded<P: SyncPortProcess, T: Topology>(
        engine: &mut SyncEngine<P, T>,
    ) -> (SyncReport<P::Output>, Vec<u64>) {
        let mut recording = Recording::new(engine.topology.n(), "sync");
        let report = engine.run_with_observer(&mut recording).unwrap();
        let mut sends = vec![0; recording.horizon() as usize];
        for (t, sent, ..) in recording.per_time_activity() {
            sends[t as usize] = sent;
        }
        (report, sends)
    }

    /// Forwards a token right for `ttl` hops, then halts everyone via a
    /// final broadcast-free timeout.
    #[derive(Debug, Clone)]
    struct Relay {
        is_source: bool,
        n: u64,
    }

    impl SyncProcess for Relay {
        type Msg = u64;
        type Output = u64;
        fn step(&mut self, cycle: u64, rx: Received<u64>) -> Step<u64, u64> {
            // Source emits 0 at cycle 0; everyone forwards hop+1 to the
            // right; all halt at cycle n with the largest hop count seen.
            if cycle == self.n {
                return Step::halt(u64::from(self.is_source));
            }
            if self.is_source && cycle == 0 {
                return Step::send_right(1);
            }
            if let Some(h) = rx.from_left {
                if h < self.n {
                    return Step::send_right(h + 1);
                }
            }
            Step::idle()
        }
    }

    #[test]
    fn token_travels_one_hop_per_cycle() {
        let n = 6u64;
        let config = RingConfig::oriented(vec![(); 6]);
        let mut engine = SyncEngine::from_config(&config, |i, ()| Relay {
            is_source: i == 0,
            n,
        });
        let (report, per_cycle) = run_recorded(&mut engine);
        // Token forwarded n-1 times plus initial send = n messages... the
        // token with hop count n is not re-sent, so exactly n sends
        // happen: hops 1..=n-1 forwarded, plus the initial. Wait: source
        // sends hop 1; receivers forward h+1 while h < n. Receiver of
        // hop n-1 sends hop n; receiver of hop n does not forward.
        assert_eq!(report.messages, n);
        assert_eq!(report.cycles, n + 1);
        // Exactly one message per cycle for the first n cycles.
        assert_eq!(&per_cycle[..n as usize], vec![1; 6].as_slice());
    }

    #[derive(Debug)]
    struct HaltAt(u64);
    impl SyncProcess for HaltAt {
        type Msg = ();
        type Output = u64;
        fn step(&mut self, cycle: u64, _rx: Received<()>) -> Step<(), u64> {
            if cycle == self.0 {
                Step::halt(cycle)
            } else {
                Step::idle()
            }
        }
    }

    #[test]
    fn wakeups_shift_local_clocks() {
        let topo = RingTopology::oriented(3).unwrap();
        let mut engine = SyncEngine::new(topo, vec![HaltAt(2), HaltAt(2), HaltAt(2)]).unwrap();
        engine.set_wakeups(vec![0, 3, 5]).unwrap();
        let report = engine.run().unwrap();
        assert_eq!(report.halt_cycles, vec![2, 5, 7]);
        assert!(!report.halted_simultaneously());
        assert_eq!(report.outputs(), &[2, 2, 2]);
    }

    /// Asks to be stepped every `every` cycles and logs the local cycles
    /// it was stepped at (and whether a message came); halts at `until`.
    #[derive(Debug)]
    struct Sparse {
        every: u64,
        until: u64,
        pings: bool,
        seen: Vec<(u64, bool)>,
    }
    impl SyncProcess for Sparse {
        type Msg = ();
        type Output = Vec<(u64, bool)>;
        fn step(&mut self, cycle: u64, rx: Received<()>) -> Step<(), Self::Output> {
            self.seen.push((cycle, !rx.is_empty()));
            if cycle >= self.until {
                return Step::halt(self.seen.clone());
            }
            if self.pings && cycle == 5 {
                return Step::send_right(());
            }
            Step::idle()
        }
        fn next_active(&self, cycle: u64) -> Option<u64> {
            Some((cycle / self.every + 1) * self.every)
        }
    }

    #[test]
    fn only_requested_cycles_and_arrivals_are_stepped() {
        let topo = RingTopology::oriented(2).unwrap();
        let sparse = |pings| Sparse {
            every: 5,
            until: 10,
            pings,
            seen: Vec::new(),
        };
        let mut engine = SyncEngine::new(topo, vec![sparse(true), sparse(false)]).unwrap();
        // Processor 1 wakes two cycles late: its local clock lags by two,
        // and processor 0's ping (sent at global 5) reaches it at global
        // 6, its local cycle 4.
        engine.set_wakeups(vec![0, 2]).unwrap();
        let (report, sends) = run_recorded(&mut engine);
        assert_eq!(
            report.outputs()[0],
            vec![(0, false), (5, false), (10, false)]
        );
        assert_eq!(
            report.outputs()[1],
            vec![(0, false), (4, true), (5, false), (10, false)]
        );
        assert_eq!(report.halt_cycles, vec![10, 12]);
        assert_eq!(report.cycles, 13);
        // The one ping goes out at global cycle 5; the event stream spans
        // every cycle through the last halt.
        let mut per_cycle = vec![0; 13];
        per_cycle[5] = 1;
        assert_eq!(sends, per_cycle);
    }

    #[derive(Debug)]
    struct WakeProbe {
        woken_by_msg: bool,
    }
    impl SyncProcess for WakeProbe {
        type Msg = ();
        type Output = bool;
        fn step(&mut self, cycle: u64, rx: Received<()>) -> Step<(), bool> {
            if cycle == 0 {
                self.woken_by_msg = !rx.is_empty();
                // First processor pings its right neighbour.
                if !self.woken_by_msg {
                    return Step::send_right(());
                }
            }
            if cycle >= 1 {
                return Step::halt(self.woken_by_msg);
            }
            Step::idle()
        }
    }

    #[test]
    fn message_wakes_sleeping_processor() {
        let topo = RingTopology::oriented(2).unwrap();
        let mut engine = SyncEngine::new(
            topo,
            vec![
                WakeProbe {
                    woken_by_msg: false,
                },
                WakeProbe {
                    woken_by_msg: false,
                },
            ],
        )
        .unwrap();
        // Processor 1 would sleep until cycle 100, but the ping from 0
        // arrives at cycle 1 and wakes it.
        engine.set_wakeups(vec![0, 100]).unwrap();
        let report = engine.run().unwrap();
        assert_eq!(report.outputs(), &[false, true]);
        assert_eq!(report.halt_cycles, vec![1, 2]);
    }

    #[derive(Debug)]
    struct Never;
    impl SyncProcess for Never {
        type Msg = ();
        type Output = ();
        fn step(&mut self, _c: u64, _rx: Received<()>) -> Step<(), ()> {
            Step::idle()
        }
    }

    #[test]
    fn deadlock_is_detected() {
        let topo = RingTopology::oriented(2).unwrap();
        let mut engine = SyncEngine::new(topo, vec![Never, Never]).unwrap();
        engine.set_max_cycles(10);
        assert!(matches!(
            engine.run(),
            Err(SimError::MaxCyclesExceeded {
                max_cycles: 10,
                running: 2
            })
        ));
    }

    #[derive(Debug)]
    struct SendOnceAndHalt;
    impl SyncProcess for SendOnceAndHalt {
        type Msg = u8;
        type Output = ();
        fn step(&mut self, cycle: u64, _rx: Received<u8>) -> Step<u8, ()> {
            if cycle == 0 {
                Step::send_both(1, 2).and_halt(())
            } else {
                Step::idle()
            }
        }
    }

    #[test]
    fn final_step_messages_are_sent_then_dropped_at_halted_peers() {
        let topo = RingTopology::oriented(3).unwrap();
        let mut engine = SyncEngine::new(
            topo,
            vec![SendOnceAndHalt, SendOnceAndHalt, SendOnceAndHalt],
        )
        .unwrap();
        let report = engine.run().unwrap();
        assert_eq!(report.messages, 6);
        assert_eq!(report.bits, 48);
        // All six messages land on processors that halted in cycle 0.
        assert_eq!(report.dropped, 6);
        assert_eq!(report.cycles, 1);
    }

    #[test]
    fn counterclockwise_delivery_crosses_ports() {
        #[derive(Debug)]
        struct Probe {
            idx: usize,
            got: Option<(Port, u8)>,
        }
        impl SyncProcess for Probe {
            type Msg = u8;
            type Output = Option<(Port, u8)>;
            fn step(&mut self, cycle: u64, rx: Received<u8>) -> Step<u8, Self::Output> {
                if cycle == 0 && self.idx == 0 {
                    return Step::send_right(42);
                }
                if let Some((p, m)) = rx.iter().next().map(|(p, &m)| (p, m)) {
                    self.got = Some((p, m));
                }
                if cycle == 2 {
                    return Step::halt(self.got);
                }
                Step::idle()
            }
        }
        // Processor 1 is counterclockwise: processor 0's rightward message
        // arrives on 1's *right* port.
        let topo = RingTopology::new(vec![
            Orientation::Clockwise,
            Orientation::Counterclockwise,
            Orientation::Clockwise,
        ])
        .unwrap();
        let mut engine =
            SyncEngine::new(topo, (0..3).map(|idx| Probe { idx, got: None }).collect()).unwrap();
        let report = engine.run().unwrap();
        assert_eq!(report.outputs()[1], Some((Port::Right, 42)));
        assert_eq!(report.outputs()[2], None);
    }

    /// A general-topology process: floods a counter on every port until a
    /// fixed cycle, then halts with the number of messages it heard.
    #[derive(Debug)]
    struct Chatter {
        heard: u64,
        until: u64,
    }
    impl SyncPortProcess for Chatter {
        type Msg = u8;
        type Output = u64;
        fn step_ports(&mut self, cycle: u64, rx: PortRx<u8>) -> PortActions<u8, u64> {
            self.heard += rx.iter().count() as u64;
            if cycle == self.until {
                return PortActions::halt(self.heard);
            }
            let everywhere: Vec<PortId> = (0..rx.ports()).map(|p| PortId::new(p as u16)).collect();
            PortActions::send_each(&everywhere, 1)
        }
    }

    #[test]
    fn general_graphs_run_on_the_sync_engine() {
        use crate::graph::GraphTopology;
        // A star: the hub has three ports, the leaves one each.
        let topo = GraphTopology::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let procs = (0..4).map(|_| Chatter { heard: 0, until: 2 }).collect();
        let mut engine = SyncEngine::new(topo, procs).unwrap();
        let report = engine.run().unwrap();
        // Cycles 0 and 1 broadcast on every directed link: 2 * 6 sends.
        assert_eq!(report.messages, 12);
        // Hub hears 3 per reception cycle, each leaf 1.
        assert_eq!(report.outputs(), &[6, 2, 2, 2]);
    }

    #[test]
    fn inactive_wires_absorb_sends_unmetered() {
        use crate::dynamic::DynamicTopology;
        use crate::graph::GraphTopology;
        let base = GraphTopology::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        // Round 0 activates only {0,1}; round 1 activates only {1,2};
        // later rounds clamp to round 1's edge set.
        let topo = DynamicTopology::new(
            base,
            vec![vec![true, false, false], vec![false, true, false]],
        )
        .unwrap();
        let procs = (0..3).map(|_| Chatter { heard: 0, until: 2 }).collect();
        let mut engine = SyncEngine::new(topo, procs).unwrap();
        let report = engine.run().unwrap();
        // Each broadcast cycle offers 6 directed sends but only the active
        // edge's 2 survive; the rest are absorbed without metering.
        assert_eq!(report.messages, 4);
        assert_eq!(report.outputs(), &[1, 2, 1]);
    }

    #[test]
    fn disconnected_graphs_get_a_distinct_verdict() {
        use crate::graph::GraphTopology;
        let topo = GraphTopology::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        // Processes that wait forever for a cycle delivering two messages
        // at once — impossible for degree-1 nodes across a partition.
        #[derive(Debug)]
        struct WaitForPair;
        impl SyncPortProcess for WaitForPair {
            type Msg = u8;
            type Output = u64;
            fn step_ports(&mut self, _cycle: u64, rx: PortRx<u8>) -> PortActions<u8, u64> {
                let heard = rx.iter().count() as u64;
                if heard >= 2 {
                    return PortActions::halt(heard);
                }
                let everywhere: Vec<PortId> =
                    (0..rx.ports()).map(|p| PortId::new(p as u16)).collect();
                PortActions::send_each(&everywhere, 0)
            }
        }
        let procs = (0..4).map(|_| WaitForPair).collect();
        let mut engine = SyncEngine::new(topo, procs).unwrap();
        engine.set_max_cycles(64);
        assert!(matches!(
            engine.run(),
            Err(SimError::DisconnectedTopology {
                components: 2,
                running: 4
            })
        ));
    }

    /// The halting-cycle drop path also streams `Deliver { dropped: true }`
    /// events — the unified stream covers drops, not just sends.
    #[test]
    fn observer_sees_sends_deliveries_and_halts() {
        let topo = RingTopology::oriented(3).unwrap();
        let mut engine = SyncEngine::new(
            topo,
            vec![SendOnceAndHalt, SendOnceAndHalt, SendOnceAndHalt],
        )
        .unwrap();
        let mut sends = 0u64;
        let mut drops = 0u64;
        let mut halts = 0u64;
        let report = {
            let mut obs = |ev: &TraceEvent| match ev {
                TraceEvent::Send(_) => sends += 1,
                TraceEvent::Deliver { dropped, .. } => drops += u64::from(*dropped),
                TraceEvent::Halt { .. } => halts += 1,
            };
            engine.run_with_observer(&mut obs).unwrap()
        };
        assert_eq!(sends, report.messages);
        assert_eq!(halts, 3);
        // The six in-flight messages are drained at end of run, not
        // delivered, so no dropped Deliver events fire here.
        assert_eq!(drops, 0);
        assert_eq!(report.dropped, 6);
    }
}
