//! # anonring-sim
//!
//! Discrete simulators for distributed computations on a **bidirectional
//! ring** of `n` processors, in both the *synchronous* (lock-step) and
//! *asynchronous* (message-driven) models of Attiya, Snir and Warmuth,
//! *Computing on an Anonymous Ring* (J. ACM 35(4), 1988), §2.
//!
//! The crate provides the substrate every other `anonring` crate builds on:
//!
//! * [`Topology`] — the port-labelled directed-multigraph abstraction all
//!   routing goes through, with three instances: the ring, arbitrary
//!   static graphs ([`GraphTopology`]) and per-round dynamic edge sets
//!   ([`DynamicTopology`]);
//! * [`RingTopology`] — channel wiring with *per-processor orientations*
//!   `D(i)`, so that "left" and "right" are local, possibly inconsistent
//!   notions, exactly as in the paper;
//! * [`RingConfig`] — an initial ring configuration `R = ⟨D(i), I(i)⟩ᵢ`;
//! * [`neighborhood`](mod@neighborhood) — `k`-neighborhoods and the symmetry index `SI(R, k)`
//!   used by all lower-bound arguments;
//! * [`runtime`] — the shared execution core both engines drive: the
//!   per-directed-link FIFO fabric, the single [`runtime::CostMeter`] every
//!   message/bit/time figure comes from, the [`runtime::Emit`] send-helper
//!   vocabulary, and the unified [`runtime::TraceEvent`] observer stream;
//! * [`sync`] — the synchronous engine: clock-driven cycles, per-processor
//!   wake-up times, message/bit/cycle accounting;
//! * [`r#async`](crate::async) — the asynchronous engine with pluggable
//!   schedulers including the *synchronizing adversary* of Theorem 5.1;
//! * [`synchronizer`] — the §3 local-synchronization adapter that runs any
//!   synchronous algorithm on an asynchronous ring;
//! * [`telemetry`] — the observability layer over the same stream: one
//!   [`telemetry::Recording`] per run, which keeps the events and reads
//!   off them a labelled metrics registry, per-phase span profiles, the
//!   space-time diagram (available for both models), and JSONL with
//!   offline replay;
//! * [`json`] — the workspace's one JSON codec (escaper and reader),
//!   shared by every crate that writes or reads an artifact;
//! * [`profile`] — the net hot-path profiler: hub-lock wait/hold
//!   histograms, inbox-dwell quantiles and codec copy counters (exactly
//!   the series the perf ledger reads), gated behind one atomic and
//!   merged into the same metrics registry.
//!
//! ## Cost-model invariants
//!
//! The [`runtime`] layer owns these; the engines are thin drivers over it.
//!
//! * **One hop per cycle** (sync): a message sent at cycle `t` is consumed
//!   by the neighbour at cycle `t + 1`, never earlier.
//! * **FIFO links**: each directed link delivers in send order, in both
//!   models — the async scheduler only ever picks among queue *heads*.
//! * **Meter semantics**: the meter keeps totals only. `messages`/`bits`
//!   count sends (one [`Message::bit_len`] call per send, in exactly one
//!   place); time is the *send cycle* in the sync model and the *arrival
//!   epoch* (send epoch = event epoch + 1, Theorem 5.1) in the async
//!   model, and the reports keep its maximum. A per-cycle or per-epoch
//!   breakdown is read off the event stream
//!   ([`telemetry::Recording::per_time_activity`]), so a quiet cycle costs
//!   the meter nothing.
//!   Messages reaching a halted processor count as `dropped` — and, in
//!   the async model only, as deliveries.
//!
//! ## Example
//!
//! A two-processor exchange where each processor sends its input across the
//! ring and halts with the pair of inputs:
//!
//! ```
//! use anonring_sim::sync::{Emit, Received, Step, SyncEngine, SyncProcess};
//! use anonring_sim::RingConfig;
//!
//! struct Exchange { input: u8 }
//! impl SyncProcess for Exchange {
//!     type Msg = u8;
//!     type Output = (u8, u8);
//!     fn step(&mut self, cycle: u64, rx: Received<u8>) -> Step<u8, (u8, u8)> {
//!         if cycle == 0 {
//!             Step::send_right(self.input)
//!         } else {
//!             // On a clockwise 2-ring, the right neighbour's message
//!             // arrives on our left port.
//!             let got = rx.from_left.expect("message from neighbour");
//!             Step::halt((self.input, got))
//!         }
//!     }
//! }
//!
//! let config = RingConfig::oriented(vec![3u8, 7u8]);
//! let mut engine = SyncEngine::from_config(&config, |_, &input| Exchange { input });
//! let report = engine.run().unwrap();
//! assert_eq!(report.outputs(), &[(3, 7), (7, 3)]);
//! assert_eq!(report.messages, 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod r#async;
pub mod config;
pub mod dynamic;
pub mod error;
pub mod explore;
pub mod graph;
pub mod json;
pub mod message;
pub mod mix;
pub mod neighborhood;
pub mod port;
pub mod profile;
pub mod runtime;
pub mod sync;
pub mod synchronizer;
pub mod telemetry;
pub mod topology;
pub mod wake;

pub use config::RingConfig;
pub use dynamic::DynamicTopology;
pub use error::SimError;
pub use graph::GraphTopology;
pub use message::Message;
pub use neighborhood::{joint_symmetry_index, neighborhood, symmetry_index, Neighborhood};
pub use port::{Orientation, Port, PortId};
pub use topology::{RingTopology, Topology};
pub use wake::WakeSchedule;
