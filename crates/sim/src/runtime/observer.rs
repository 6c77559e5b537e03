//! The unified trace-event stream.
//!
//! Both engines emit the same [`TraceEvent`]s through an [`Observer`], so
//! tooling written against the stream — a
//! [`crate::telemetry::Recording`] and every view read off it (space-time
//! diagram, metrics registry, JSONL), test probes — works for either model
//! without knowing which engine produced the run. One recording serves
//! every view of a run, so a run needs only one observer.

use crate::port::PortId;
use crate::runtime::span::Span;

/// One message transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendEvent {
    /// Time of the send: the global cycle in the synchronous model, the
    /// arrival epoch in the asynchronous model.
    pub cycle: u64,
    /// Sending processor.
    pub from: usize,
    /// Receiving processor.
    pub to: usize,
    /// Local port at the *receiver* on which the message will arrive —
    /// identifies the directed link, so queue-depth accounting can match
    /// this send with its [`TraceEvent::Deliver`].
    pub port: PortId,
    /// Encoded length of the message.
    pub bits: usize,
    /// Global send sequence number — unique per run, assigned in send
    /// order, and echoed by the matching [`TraceEvent::Deliver`].
    pub seq: u64,
    /// Sender's Lamport timestamp at the send.
    pub lamport: u64,
    /// `seq` of the send whose delivery causally enabled this one, or
    /// `None` for a spontaneous send (see
    /// [`crate::runtime::CausalClocks`]).
    pub parent: Option<u64>,
    /// Phase annotation of the emission that produced this send, if the
    /// algorithm attached one (see [`crate::runtime::Emit::in_span`]).
    pub span: Option<Span>,
}

/// One event of a run, as emitted by either engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A message was sent.
    Send(SendEvent),
    /// A message was consumed at (or discarded by) its receiver.
    Deliver {
        /// Consumption time: cycle (sync) or delivery epoch (async).
        time: u64,
        /// Receiving processor.
        to: usize,
        /// Local arrival port.
        port: PortId,
        /// `seq` of the [`SendEvent`] this delivery consumes.
        seq: u64,
        /// True when the receiver had already halted and the message was
        /// discarded.
        dropped: bool,
    },
    /// A processor halted.
    Halt {
        /// Halt time: cycle (sync) or event epoch (async).
        time: u64,
        /// The halting processor.
        processor: usize,
    },
}

impl TraceEvent {
    /// The event's time index (cycle in the sync model, epoch in the
    /// async model).
    #[must_use]
    pub fn time(&self) -> u64 {
        match self {
            TraceEvent::Send(send) => send.cycle,
            TraceEvent::Deliver { time, .. } | TraceEvent::Halt { time, .. } => *time,
        }
    }
}

/// A sink for [`TraceEvent`]s.
pub trait Observer {
    /// Receives one event, in execution order.
    fn on_event(&mut self, event: &TraceEvent);
}

/// Discards every event; the observer behind the plain `run` entry points.
/// Engines are generic over the observer, so this compiles to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_event(&mut self, _event: &TraceEvent) {}
}

impl<F: FnMut(&TraceEvent)> Observer for F {
    fn on_event(&mut self, event: &TraceEvent) {
        self(event);
    }
}

#[cfg(test)]
mod tests {
    use super::{NullObserver, Observer, SendEvent, TraceEvent};
    use crate::port::PortId;

    fn send_event() -> TraceEvent {
        TraceEvent::Send(SendEvent {
            cycle: 0,
            from: 0,
            to: 1,
            port: PortId::LEFT,
            bits: 4,
            seq: 0,
            lamport: 1,
            parent: None,
            span: None,
        })
    }

    #[test]
    fn closures_are_observers() {
        let mut seen = Vec::new();
        {
            let mut obs = |ev: &TraceEvent| seen.push(*ev);
            obs.on_event(&TraceEvent::Halt {
                time: 1,
                processor: 0,
            });
            obs.on_event(&send_event());
        }
        assert_eq!(seen.len(), 2);
        NullObserver.on_event(&seen[0]);
    }

    #[test]
    fn event_time_covers_all_variants() {
        assert_eq!(send_event().time(), 0);
        assert_eq!(
            TraceEvent::Deliver {
                time: 3,
                to: 0,
                port: PortId::RIGHT,
                seq: 0,
                dropped: false
            }
            .time(),
            3
        );
        assert_eq!(
            TraceEvent::Halt {
                time: 7,
                processor: 0
            }
            .time(),
            7
        );
    }
}
