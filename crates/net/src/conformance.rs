//! The sim-conformance oracle: every net run must agree with the
//! simulator.
//!
//! The real transport is only trustworthy if it computes *the same
//! function at the same metered cost* as the audited simulators. The
//! oracle re-executes each job under the asynchronous engine and demands
//! agreement on everything that is schedule-independent:
//!
//! * **outputs** — rendered bytes must be identical (the audited
//!   algorithms are schedule-independent, so any honest execution agrees);
//! * **total messages** and **total bits** — each send is metered exactly
//!   once at its emission, so totals cannot depend on interleaving.
//!
//! Wall-clock, delivery interleaving, and therefore the *per-epoch*
//! histogram and `max_epoch` may legitimately differ: a real thread can
//! batch several simulated cycles into one burst of events, which shifts
//! epoch stamps without changing what was sent. Comparing them would
//! reject correct executions, so the oracle deliberately stops at the
//! schedule-independent invariants.

use std::fmt;

use anonring_sim::r#async::{AsyncEngine, AsyncPortProcess, AsyncReport, Scheduler};
use anonring_sim::{SimError, Topology};

use crate::runtime::{run, NetError, NetOptions, NetReport};
use crate::wire::Wire;

/// A conformance violation or an execution failure on either side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConformanceError {
    /// The net run failed outright.
    Net(NetError),
    /// The reference simulation failed (the job itself is broken).
    Sim(SimError),
    /// Both sides ran, but a schedule-independent quantity differs.
    Mismatch {
        /// Which quantity differs (`"outputs"`, `"messages"`, `"bits"`).
        what: &'static str,
        /// The net side's value, rendered.
        net: String,
        /// The simulator side's value, rendered.
        sim: String,
    },
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConformanceError::Net(e) => write!(f, "net run failed: {e}"),
            ConformanceError::Sim(e) => write!(f, "reference simulation failed: {e}"),
            ConformanceError::Mismatch { what, net, sim } => {
                write!(f, "net/sim mismatch on {what}: net {net} vs sim {sim}")
            }
        }
    }
}

impl std::error::Error for ConformanceError {}

/// Both sides of a certified run.
#[derive(Debug, Clone)]
pub struct Certified<O> {
    /// The real-transport run.
    pub net: NetReport<O>,
    /// The reference simulation.
    pub sim: AsyncReport<O>,
}

/// Checks the schedule-independent invariants between a completed net run
/// and its reference simulation.
///
/// # Errors
///
/// Returns [`ConformanceError::Mismatch`] naming the first disagreeing
/// quantity.
pub fn compare<O: fmt::Debug>(
    net: &NetReport<O>,
    sim: &AsyncReport<O>,
) -> Result<(), ConformanceError> {
    let mismatch = |what, net: &dyn fmt::Debug, sim: &dyn fmt::Debug| {
        Err(ConformanceError::Mismatch {
            what,
            net: format!("{net:?}"),
            sim: format!("{sim:?}"),
        })
    };
    // Byte-identical rendering, the strongest output equality every
    // `O: Debug` admits.
    let net_out = format!("{:?}", net.outputs());
    let sim_out = format!("{:?}", sim.outputs());
    if net_out != sim_out {
        return mismatch("outputs", &net.outputs(), &sim.outputs());
    }
    if net.messages != sim.messages {
        return mismatch("messages", &net.messages, &sim.messages);
    }
    if net.bits != sim.bits {
        return mismatch("bits", &net.bits, &sim.bits);
    }
    Ok(())
}

/// Runs a job on the real transport, re-executes it under the async
/// simulator with `scheduler`, and certifies agreement. `make` must build
/// the same processors both times — handing it the same `(algorithm, n,
/// inputs)` data twice is exactly how the `ringd` server uses this.
///
/// # Errors
///
/// See [`ConformanceError`].
pub fn certify_with<P, T, F, S>(
    topology: &T,
    make: F,
    options: &NetOptions,
    scheduler: &mut S,
) -> Result<Certified<P::Output>, ConformanceError>
where
    P: AsyncPortProcess + Send + 'static,
    P::Msg: Wire + Send + 'static,
    P::Output: Send + 'static,
    T: Topology + Clone,
    F: Fn() -> Vec<P>,
    S: Scheduler,
{
    let net = run(topology, make(), options).map_err(ConformanceError::Net)?;
    let mut engine = AsyncEngine::new(topology.clone(), make()).map_err(ConformanceError::Sim)?;
    let sim = engine.run(scheduler).map_err(ConformanceError::Sim)?;
    compare(&net, &sim)?;
    Ok(Certified { net, sim })
}

/// [`certify_with`] under the Theorem 5.1 synchronizing adversary — the
/// reference schedule the audit tables are built from.
///
/// # Errors
///
/// See [`ConformanceError`].
pub fn certify<P, T, F>(
    topology: &T,
    make: F,
    options: &NetOptions,
) -> Result<Certified<P::Output>, ConformanceError>
where
    P: AsyncPortProcess + Send + 'static,
    P::Msg: Wire + Send + 'static,
    P::Output: Send + 'static,
    T: Topology + Clone,
    F: Fn() -> Vec<P>,
{
    certify_with(
        topology,
        make,
        options,
        &mut anonring_sim::r#async::SynchronizingScheduler,
    )
}
