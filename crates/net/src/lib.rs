//! `anonring_net` — real-transport execution of anonymous-ring algorithms.
//!
//! The workspace's third execution substrate, after the synchronous and
//! asynchronous simulators: each ring processor becomes an OS thread, each
//! directed link a bounded FIFO channel (in-process, a loopback TCP
//! connection, or a TCP stream to another shard of a [`cluster`]), and the
//! algorithms — unchanged [`AsyncProcess`] implementations — run against
//! real concurrency with configurable delivery jitter. Every run goes
//! through one launcher over a per-link plan (see [`runtime`]): callers
//! only choose how each link is realised. Anonymity is preserved by
//! construction: a process is built from `(algorithm, n, input)` alone and
//! speaks only through its local ports; the ring wiring lives in the
//! runtime's metering hub, exactly where the simulators keep it.
//!
//! Three properties tie the transport back to the paper's cost model:
//!
//! 1. **One metering path.** Every send crosses the [`hub`](crate::runtime)
//!    exactly once, driving the same `CostMeter` the simulators use, so
//!    message and bit complexities mean the same thing on real links.
//! 2. **The same event stream.** Runs log the simulator's `TraceEvent`s
//!    with full causal stamps (seq, Lamport, parent), so flight
//!    recordings, telemetry and causal-DAG tooling consume net runs with
//!    no changes.
//! 3. **Sim conformance.** The [`conformance`] oracle re-executes any net
//!    job under the async simulator and certifies that outputs, total
//!    messages and total bits agree — the schedule-independent core of the
//!    model. See `DESIGN.md` §S22 for why epoch quantities are
//!    excluded.
//!
//! ```
//! use anonring_core::algorithms::driver::Audited;
//! use anonring_net::{certify, NetOptions};
//!
//! let algorithm = Audited::SyncAnd;
//! let inputs = [1, 1, 1];
//! let topology = algorithm.topology(3, &inputs).unwrap();
//! let certified = certify(
//!     &topology,
//!     || algorithm.procs(3, &inputs).unwrap(),
//!     &NetOptions::default(),
//! )
//! .unwrap();
//! assert_eq!(certified.net.outputs().len(), 3);
//! assert_eq!(certified.net.messages, certified.sim.messages);
//! ```
//!
//! [`AsyncProcess`]: anonring_sim::async::AsyncProcess

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cluster;
pub mod conformance;
mod hub;
mod inbox;
mod jitter;
pub mod manifest;
mod pool;
pub mod runtime;
mod tcp;
pub mod wire;

pub use cluster::{certify_cluster, ClusterCertified, ClusterError, Handshake, ShardReport};
pub use conformance::{certify, compare, Certified, ConformanceError};
pub use manifest::{ClusterManifest, ManifestError, ShardSpec, MANIFEST_VERSION};
pub use runtime::{run, NetError, NetOptions, NetReport, Transport};
pub use wire::{Wire, WireError};
