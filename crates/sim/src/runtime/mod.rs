//! The shared execution substrate both engines drive.
//!
//! The synchronous ([`crate::sync::SyncEngine`]) and asynchronous
//! ([`AsyncEngine`](crate::async::AsyncEngine)) models of the paper differ
//! only in *who decides when a message is consumed*: the global clock, or
//! an adversarial scheduler. Everything else — per-directed-link FIFO queues, message/bit
//! accounting, halt bookkeeping, trace emission, and the send-helper
//! constructors algorithms use — is model-independent and lives here, with
//! exactly one implementation:
//!
//! * [`LinkFabric`] — the `2n` directed-link FIFO queues plus the single
//!   send path (route via the topology, meter, notify observers, enqueue).
//!   The sync engine consumes messages due at the current cycle; the async
//!   engine exposes the queue heads to a scheduler.
//! * [`CostMeter`] — messages, bits, deliveries, drops and the per-time
//!   histogram behind both `SyncReport` and `AsyncReport`.
//! * [`Emit`] — the send/halt constructor vocabulary (`send`, `send_both`,
//!   `and_send`, `halt`, `idle`, …) shared by [`Step`] and [`Actions`].
//! * [`Observer`]/[`TraceEvent`] — a pluggable event stream; the space-time
//!   [`crate::trace::Trace`] is one observer, the [`crate::telemetry`]
//!   metrics registry and flight recorder are others, and [`FanOut`]
//!   composes any number of them over a single run. Both engines emit the
//!   same events.
//! * [`Span`] — the phase/round annotation algorithms attach to emissions
//!   (via [`Emit::in_span`]); engines stamp it onto each [`SendEvent`], so
//!   telemetry can report messages-per-phase against the paper's
//!   per-phase budgets.
//!
//! ## Cost-model invariants
//!
//! The runtime pins down the semantics every experiment and lower-bound
//! argument relies on:
//!
//! * **One hop per cycle (sync):** a message sent at cycle `t` is consumed
//!   at cycle `t + 1`, never earlier — information travels exactly one hop
//!   per cycle (Lemma 3.1). [`LinkFabric::send`] tags the message with its
//!   due time and [`LinkFabric::take_due`] refuses to release it early.
//! * **FIFO links (async):** delivery order within one directed link is
//!   fixed; the scheduler only chooses *between* links, structurally
//!   enforced by handing it queue heads ([`LinkFabric::candidates`]).
//! * **Meter semantics:** a message is counted (messages, bits, per-time
//!   slot) exactly once, at its send; `bits` adds
//!   [`crate::Message::bit_len`]. The per-time histogram indexes *send
//!   cycle* in the sync model and *arrival epoch* (the sender's event
//!   epoch plus one) in the async model — the paper's Theorem 5.1
//!   bookkeeping. Deliveries to halted processors count as drops; in the
//!   async model they also count as deliveries.
//! * **Causal stamps:** every send carries a global sequence number, a
//!   Lamport timestamp, and a parent edge naming the delivery that
//!   causally enabled it ([`CausalClocks`]); the matching
//!   [`TraceEvent::Deliver`] echoes the seq. The stamps are derived
//!   deterministically from the execution, so identical schedules produce
//!   identical causal DAGs (see [`crate::telemetry::causality`]).

mod actions;
mod causal;
mod mailbox;
mod meter;
mod observer;
mod span;

pub use actions::{Actions, Emit, PortActions, Step};
pub use causal::{CausalClocks, CausalStamp};
pub use mailbox::{Candidate, LinkFabric, PortRx, Received, SendMeta};
pub use meter::CostMeter;
pub use observer::{FanOut, NullObserver, Observer, SendEvent, TraceEvent};
pub use span::Span;
