//! Bounded per-processor mailboxes: the FIFO links of the real transport.
//!
//! Each processor owns one [`Inbox`] with one bounded FIFO queue per local
//! port — the net-runtime incarnation of the simulator's per-directed-link
//! queues. Senders block when a queue is full (backpressure); while blocked
//! they keep draining their *own* inbox so a full cycle of mutually-blocked
//! sends cannot deadlock the ring (see [`crate::runtime`]).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use anonring_sim::profile;
use anonring_sim::runtime::CausalStamp;
use anonring_sim::PortId;

/// One message in transit on the real transport: the payload plus the
/// metadata the simulators attach to every send.
#[derive(Debug, Clone)]
pub(crate) struct Parcel<M> {
    /// The algorithm's message.
    pub msg: M,
    /// Arrival epoch stamped at the send (sender's event epoch + 1).
    pub time: u64,
    /// Causal identity assigned by the hub at the send.
    pub stamp: CausalStamp,
}

/// Queue index of a local port.
pub(crate) fn pidx(port: PortId) -> usize {
    port.index()
}

struct InboxState<M> {
    queues: Vec<VecDeque<Parcel<M>>>,
    /// Enqueue wall stamps parallel to `queues`, populated only while
    /// the S26 profiler is enabled; popped at drain time to record
    /// per-port queue dwell. May run behind `queues` when the profiler
    /// is toggled mid-run — drains clear both, so it self-heals.
    stamps: Vec<VecDeque<Instant>>,
    capacity: usize,
    shutdown: bool,
}

/// Outcome of a non-blocking push attempt.
pub(crate) enum PushOutcome<M> {
    /// Enqueued.
    Pushed,
    /// The port's queue is at capacity; the parcel is handed back.
    Full(Parcel<M>),
    /// The run is over; the parcel was discarded.
    Closed,
}

/// Outcome of waiting for deliverable work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkOutcome {
    /// At least one queue is nonempty.
    Ready,
    /// The wait timed out with both queues empty.
    Idle,
    /// The inbox was shut down.
    Closed,
}

/// A processor's bounded arrival queues, one per local port (a ring
/// processor has two: left then right).
pub(crate) struct Inbox<M> {
    state: Mutex<InboxState<M>>,
    changed: Condvar,
}

impl<M> Inbox<M> {
    /// An empty inbox with one queue per local port, each holding at most
    /// `capacity` parcels (`capacity ≥ 1`).
    pub(crate) fn new(ports: usize, capacity: usize) -> Inbox<M> {
        Inbox {
            state: Mutex::new(InboxState {
                queues: (0..ports).map(|_| VecDeque::new()).collect(),
                stamps: (0..ports).map(|_| VecDeque::new()).collect(),
                capacity: capacity.max(1),
                shutdown: false,
            }),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, InboxState<M>> {
        self.state.lock().expect("inbox lock poisoned")
    }

    /// Attempts to enqueue `parcel` on the queue for arrival port `port`.
    pub(crate) fn try_push(&self, port: PortId, parcel: Parcel<M>) -> PushOutcome<M> {
        let mut state = self.lock();
        if state.shutdown {
            return PushOutcome::Closed;
        }
        if state.queues[pidx(port)].len() >= state.capacity {
            return PushOutcome::Full(parcel);
        }
        state.queues[pidx(port)].push_back(parcel);
        if let Some(now) = profile::stamp() {
            state.stamps[pidx(port)].push_back(now);
        }
        drop(state);
        self.changed.notify_all();
        PushOutcome::Pushed
    }

    /// Parks until the queue for `port` has room, the inbox shuts down, or
    /// `timeout` elapses — whichever comes first. Callers re-attempt the
    /// push afterwards; spurious wakeups are harmless.
    pub(crate) fn wait_space(&self, port: PortId, timeout: Duration) {
        let state = self.lock();
        if state.shutdown || state.queues[pidx(port)].len() < state.capacity {
            return;
        }
        let _unused = self
            .changed
            .wait_timeout(state, timeout)
            .expect("inbox lock poisoned");
    }

    /// Moves every queued parcel into `staging` (per-port, preserving FIFO
    /// order) and returns whether anything was moved. Draining frees queue
    /// capacity, which unblocks senders.
    pub(crate) fn drain_into(&self, staging: &mut [VecDeque<Parcel<M>>]) -> bool {
        let mut state = self.lock();
        let mut moved = false;
        let record = profile::enabled();
        for (k, queue) in state.queues.iter_mut().enumerate() {
            if !queue.is_empty() {
                moved = true;
                staging[k].append(queue);
            }
        }
        for (k, stamps) in state.stamps.iter_mut().enumerate() {
            for enqueued in stamps.drain(..) {
                if record {
                    profile::record_inbox_dwell(k, enqueued);
                }
            }
        }
        drop(state);
        if moved {
            // Senders may be parked on a full queue.
            self.changed.notify_all();
        }
        moved
    }

    /// Parks until a parcel arrives, the inbox shuts down, or `timeout`
    /// elapses.
    pub(crate) fn wait_work(&self, timeout: Duration) -> WorkOutcome {
        let mut state = self.lock();
        if state.queues.iter().any(|q| !q.is_empty()) {
            return WorkOutcome::Ready;
        }
        if state.shutdown {
            return WorkOutcome::Closed;
        }
        (state, _) = self
            .changed
            .wait_timeout(state, timeout)
            .expect("inbox lock poisoned");
        if state.queues.iter().any(|q| !q.is_empty()) {
            WorkOutcome::Ready
        } else if state.shutdown {
            WorkOutcome::Closed
        } else {
            WorkOutcome::Idle
        }
    }

    /// Marks the run as over and wakes every parked thread. Subsequent
    /// pushes report [`PushOutcome::Closed`].
    pub(crate) fn close(&self) {
        self.lock().shutdown = true;
        self.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::{pidx, Inbox, Parcel, PushOutcome, WorkOutcome};
    use anonring_sim::runtime::CausalStamp;
    use anonring_sim::PortId;
    use std::collections::VecDeque;
    use std::time::Duration;

    // Tests that drive the hub or inbox probes hold the profiler session:
    // it serialises them, so a profiling test tallies only its own run.

    fn parcel(msg: u8) -> Parcel<u8> {
        Parcel {
            msg,
            time: 1,
            stamp: CausalStamp {
                seq: u64::from(msg),
                lamport: 1,
                parent: None,
            },
        }
    }

    #[test]
    fn port_indexing_is_a_bijection() {
        assert_ne!(pidx(PortId::LEFT), pidx(PortId::RIGHT));
        assert!(pidx(PortId::LEFT) < 2 && pidx(PortId::RIGHT) < 2);
        assert_eq!(pidx(PortId::new(5)), 5);
    }

    #[test]
    fn capacity_bounds_each_port_queue_independently() {
        let _serial = anonring_sim::profile::session();
        let inbox: Inbox<u8> = Inbox::new(2, 1);
        assert!(matches!(
            inbox.try_push(PortId::LEFT, parcel(1)),
            PushOutcome::Pushed
        ));
        assert!(matches!(
            inbox.try_push(PortId::LEFT, parcel(2)),
            PushOutcome::Full(p) if p.msg == 2
        ));
        assert!(matches!(
            inbox.try_push(PortId::RIGHT, parcel(3)),
            PushOutcome::Pushed
        ));
    }

    #[test]
    fn draining_preserves_per_port_fifo_order_and_frees_capacity() {
        let _serial = anonring_sim::profile::session();
        let inbox: Inbox<u8> = Inbox::new(2, 2);
        for m in [1, 2] {
            assert!(matches!(
                inbox.try_push(PortId::RIGHT, parcel(m)),
                PushOutcome::Pushed
            ));
        }
        let mut staging: Vec<VecDeque<Parcel<u8>>> = vec![VecDeque::new(), VecDeque::new()];
        assert!(inbox.drain_into(&mut staging));
        assert!(
            !inbox.drain_into(&mut staging),
            "second drain finds nothing"
        );
        let order: Vec<u8> = staging[1].iter().map(|p| p.msg).collect();
        assert_eq!(order, vec![1, 2]);
        assert!(matches!(
            inbox.try_push(PortId::RIGHT, parcel(3)),
            PushOutcome::Pushed
        ));
    }

    #[test]
    fn close_rejects_pushes_and_unblocks_waiters() {
        let _serial = anonring_sim::profile::session();
        let inbox: Inbox<u8> = Inbox::new(2, 1);
        inbox.close();
        assert!(matches!(
            inbox.try_push(PortId::LEFT, parcel(1)),
            PushOutcome::Closed
        ));
        assert_eq!(
            inbox.wait_work(Duration::from_millis(1)),
            WorkOutcome::Closed
        );
    }

    #[test]
    fn draining_records_queue_dwell_while_profiling() {
        let session = anonring_sim::profile::session();
        let inbox: Inbox<u8> = Inbox::new(2, 4);
        for m in [1, 2] {
            assert!(matches!(
                inbox.try_push(PortId::RIGHT, parcel(m)),
                PushOutcome::Pushed
            ));
        }
        let mut staging: Vec<VecDeque<Parcel<u8>>> = vec![VecDeque::new(), VecDeque::new()];
        assert!(inbox.drain_into(&mut staging));
        let reg = anonring_sim::profile::snapshot();
        let id = anonring_sim::telemetry::MetricId::with_labels(
            "queue_dwell_us",
            &[("queue", "inbox"), ("port", "1")],
        );
        let count = reg
            .histograms()
            .find(|(got, _)| **got == id)
            .map(|(_, histogram)| histogram.count);
        assert_eq!(count, Some(2), "one dwell sample per drained parcel");
        drop(session);
    }

    #[test]
    fn wait_work_reports_ready_and_idle() {
        let _serial = anonring_sim::profile::session();
        let inbox: Inbox<u8> = Inbox::new(2, 1);
        assert_eq!(inbox.wait_work(Duration::from_millis(1)), WorkOutcome::Idle);
        assert!(matches!(
            inbox.try_push(PortId::RIGHT, parcel(9)),
            PushOutcome::Pushed
        ));
        assert_eq!(
            inbox.wait_work(Duration::from_millis(1)),
            WorkOutcome::Ready
        );
    }
}
