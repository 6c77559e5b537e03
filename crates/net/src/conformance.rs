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
//! Wall-clock, delivery interleaving, and therefore the epoch stamps and
//! `max_epoch` may legitimately differ: a real thread can
//! batch several simulated cycles into one burst of events, which shifts
//! epoch stamps without changing what was sent. Comparing them would
//! reject correct executions, so the oracle deliberately stops at the
//! schedule-independent invariants.
//!
//! The oracle has one path. [`certify`], the `ringd` server and
//! [`crate::certify_cluster`] each build the reference run with
//! [`reference_run`] and check the totals with [`compare_totals`].

use std::fmt;

use anonring_sim::r#async::{AsyncEngine, AsyncPortProcess, AsyncReport, SynchronizingScheduler};
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

/// The reference run every certification compares against: the job
/// re-executed under the asynchronous simulator with the Theorem 5.1
/// synchronizing adversary, the schedule the audit tables are built
/// from. `procs` must be the processors the checked run started with.
///
/// # Errors
///
/// [`ConformanceError::Sim`] when the simulator rejects or fails the job.
pub fn reference_run<P, T>(
    topology: &T,
    procs: Vec<P>,
) -> Result<AsyncReport<P::Output>, ConformanceError>
where
    P: AsyncPortProcess,
    T: Topology + Clone,
{
    let mut engine = AsyncEngine::new(topology.clone(), procs).map_err(ConformanceError::Sim)?;
    engine
        .run(&mut SynchronizingScheduler)
        .map_err(ConformanceError::Sim)
}

/// Checks a completed run's schedule-independent totals against its
/// [`reference_run`], in a fixed order: the outputs, compared processor
/// by processor as their `Debug` renderings, then the message total, then
/// the bit total.
///
/// # Errors
///
/// Returns [`ConformanceError::Mismatch`] naming the first disagreeing
/// quantity.
pub fn compare_totals<N: fmt::Debug, O: fmt::Debug>(
    outputs: &[N],
    messages: u64,
    bits: u64,
    sim: &AsyncReport<O>,
) -> Result<(), ConformanceError> {
    let net_outputs = format!("{outputs:?}");
    let sim_outputs = format!("{:?}", sim.outputs());
    // A list renders as its entries' renderings in order, so equal lists
    // whose entries render to equal lengths, pairwise, agree processor
    // by processor.
    let same = net_outputs == sim_outputs
        && outputs.len() == sim.outputs().len()
        && outputs
            .iter()
            .zip(sim.outputs())
            .all(|(net, sim)| rendered_len(net) == rendered_len(sim));
    if !same {
        return Err(ConformanceError::Mismatch {
            what: "outputs",
            net: net_outputs,
            sim: sim_outputs,
        });
    }
    for (what, net, sim) in [
        ("messages", messages, sim.messages),
        ("bits", bits, sim.bits),
    ] {
        if net != sim {
            return Err(ConformanceError::Mismatch {
                what,
                net: net.to_string(),
                sim: sim.to_string(),
            });
        }
    }
    Ok(())
}

/// The length of `value`'s `Debug` rendering, counted without building it.
fn rendered_len(value: &impl fmt::Debug) -> usize {
    struct Count(usize);
    impl fmt::Write for Count {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut count = Count(0);
    // Counting cannot fail.
    let _ = fmt::Write::write_fmt(&mut count, format_args!("{value:?}"));
    count.0
}

/// An output already rendered with `Debug` (as a cluster shard reports
/// it), which renders as itself.
pub(crate) struct Rendered<'a>(pub(crate) &'a str);

impl fmt::Debug for Rendered<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// [`compare_totals`] for a completed single-process net run.
///
/// # Errors
///
/// Returns [`ConformanceError::Mismatch`] naming the first disagreeing
/// quantity.
pub fn compare<O: fmt::Debug>(
    net: &NetReport<O>,
    sim: &AsyncReport<O>,
) -> Result<(), ConformanceError> {
    compare_totals(net.outputs(), net.messages, net.bits, sim)
}

/// Runs a job on the real transport, re-executes it as its
/// [`reference_run`], and certifies agreement ([`compare`]). `make` must
/// build the same processors both times.
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
    let net = run(topology, make(), options).map_err(ConformanceError::Net)?;
    let sim = reference_run(topology, make())?;
    compare(&net, &sim)?;
    Ok(Certified { net, sim })
}
