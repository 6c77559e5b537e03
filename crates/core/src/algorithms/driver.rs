//! Engine-agnostic job driver over the audited §4 algorithms.
//!
//! Every execution substrate in the workspace — the synchronous and
//! asynchronous simulators, and the real-transport `anonring_net` runtime —
//! drives processes through the same [`AsyncPortProcess`] interface. This
//! module packages the six complexity-audited algorithms behind one
//! uniform process type, [`JobProc`], so a job description of the form
//! *(algorithm, n, inputs)* can be instantiated once and then run by **any**
//! engine: the `ringd` job server executes it on real threads while the
//! conformance oracle re-executes the identical construction under the
//! async simulator.
//!
//! Synchronous algorithms are lifted through the §3 α-synchronizer
//! ([`Synchronized`]), exactly as the audit harness runs them in the
//! asynchronous model; the §4.1 input distribution and the dynamic-network
//! broadcast are natively asynchronous. Because each processor is
//! constructed from `(algorithm, n, input)` plus at most its *local*
//! schedule (dynamic broadcast — per-round active ports of its own links,
//! knowledge the dynamic-network model grants every node), the anonymity
//! model is preserved: two engines given the same job build
//! indistinguishable ensembles.
//!
//! [`Audited::run_native`] is the other half: it runs a job on the
//! family's own engine (the synchronous simulator for the four sync
//! families, no synchronizer) with the audit's job shape, through each
//! module's `engine` constructor, so a family's topology, wake schedule
//! and cycle cap are written once.

use core::fmt;

use anonring_sim::message::Message;
use anonring_sim::r#async::{
    Actions, AsyncPortProcess, AsyncProcess, AsyncReport, SynchronizingScheduler,
};
use anonring_sim::runtime::{Observer, PortActions};
use anonring_sim::sync::SyncReport;
use anonring_sim::synchronizer::{Envelope, Synchronized};
use anonring_sim::{
    DynamicTopology, Port, PortId, RingConfig, RingTopology, SimError, Topology, WakeSchedule,
};

use crate::algorithms::async_input_dist::{self, AsyncInputDist, DistMsg};
use crate::algorithms::dyn_broadcast::{self, audited_topology, BcastMsg, DynBroadcast};
use crate::algorithms::orientation::{self, OrientMsg, OrientationProc};
use crate::algorithms::start_sync::{self, StartSync};
use crate::algorithms::sync_and::{self, SyncAnd};
use crate::algorithms::sync_input_dist::{self, IdMsg, SyncInputDist};
use crate::view::RingView;

/// The six algorithms under the complexity audit, by their audit-table
/// names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Audited {
    /// §4.1 asynchronous input distribution (`n(n−1)` messages).
    AsyncInputDist,
    /// Figure 2 synchronous input distribution (`O(n log n)` bits).
    SyncInputDist,
    /// Figure 4 ring orientation.
    Orientation,
    /// Figure 5 start synchronization.
    StartSync,
    /// §4.2 AND of the input bits.
    SyncAnd,
    /// One-bit broadcast in anonymous dynamic networks (`Θ(n²)`
    /// messages under the connectivity adversary) — the first non-ring
    /// family.
    DynBroadcast,
}

impl Audited {
    /// All audited algorithms, in audit-table order.
    pub const ALL: [Audited; 6] = [
        Audited::AsyncInputDist,
        Audited::SyncInputDist,
        Audited::Orientation,
        Audited::StartSync,
        Audited::SyncAnd,
        Audited::DynBroadcast,
    ];

    /// The audit-table name (`"async_input_dist"`, …).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Audited::AsyncInputDist => "async_input_dist",
            Audited::SyncInputDist => "sync_input_dist",
            Audited::Orientation => "orientation",
            Audited::StartSync => "start_sync",
            Audited::SyncAnd => "sync_and",
            Audited::DynBroadcast => "dyn_broadcast",
        }
    }

    /// Parses an audit-table name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Audited> {
        Audited::ALL.into_iter().find(|a| a.name() == name)
    }

    /// Whether per-processor inputs must be `{0,1}` bits for this
    /// algorithm (`async_input_dist` takes arbitrary bytes; `start_sync`
    /// ignores inputs entirely).
    #[must_use]
    pub fn wants_bit_inputs(self) -> bool {
        matches!(
            self,
            Audited::SyncInputDist
                | Audited::Orientation
                | Audited::SyncAnd
                | Audited::DynBroadcast
        )
    }

    /// The wiring a job of this algorithm runs on. The ring families run
    /// on the oriented ring except `orientation`, whose whole point is a
    /// scrambled ring (its inputs double as the per-processor orientation
    /// bits, mirroring the audit harness); `dyn_broadcast` runs on the
    /// seeded dynamic-network connectivity adversary over the complete
    /// footprint.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError`] on an invalid job shape.
    pub fn topology(self, n: usize, inputs: &[u8]) -> Result<JobTopology, DriverError> {
        validate(self, n, inputs)?;
        let topology = match self {
            Audited::Orientation => RingTopology::from_bits(inputs).map(JobTopology::Ring),
            Audited::DynBroadcast => audited_topology(n).map(JobTopology::Dynamic),
            _ => RingTopology::oriented(n).map(JobTopology::Ring),
        };
        topology.map_err(|e| DriverError::BadJob {
            message: format!("topology construction failed: {e}"),
        })
    }

    /// Builds the `n` identical processes of a job. Deterministic in
    /// `(self, n, inputs)`: every engine handed this vector runs the same
    /// computation.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError`] on an invalid job shape.
    pub fn procs(self, n: usize, inputs: &[u8]) -> Result<Vec<JobProc>, DriverError> {
        // The dynamic adversary is substrate state; each process receives
        // only its own local activity schedule from it.
        let adversary = match self.topology(n, inputs)? {
            JobTopology::Dynamic(adversary) => Some(adversary),
            JobTopology::Ring(_) => None,
        };
        Ok(inputs
            .iter()
            .enumerate()
            .map(|(i, &input)| match self {
                Audited::AsyncInputDist => JobProc::Dist(AsyncInputDist::new(n, input)),
                Audited::SyncInputDist => {
                    JobProc::SyncDist(Box::new(Synchronized::new(SyncInputDist::new(n, input))))
                }
                // The orientation bits live in the topology; the process
                // itself is input-free.
                Audited::Orientation => JobProc::Orient(Synchronized::new(OrientationProc::new(n))),
                Audited::StartSync => JobProc::Start(Synchronized::new(StartSync::new(n))),
                Audited::SyncAnd => JobProc::And(Synchronized::new(SyncAnd::new(n, input))),
                Audited::DynBroadcast => JobProc::Bcast(DynBroadcast::new(
                    input,
                    adversary
                        .as_ref()
                        .expect("adversary built for dyn_broadcast")
                        // anonlint: allow(anonymity-breach) -- ensemble construction: the engine hands each node its own schedule; the process never pulls one
                        .local_schedule(i),
                )),
            })
            .collect())
    }

    /// The audit's deterministic inputs for a job of this family:
    /// [`mixed_bits`] for the bit-input families, the same hash spread
    /// over bytes for the §4.1 distribution (and for `start_sync`, which
    /// ignores them).
    #[must_use]
    pub fn default_inputs(self, n: usize) -> Vec<u8> {
        if self.wants_bit_inputs() {
            mixed_bits(n)
        } else {
            (0..n).map(|i| (mixed(i) & 0xff) as u8).collect()
        }
    }

    /// Runs a job on this family's native engine with every event
    /// streamed to `observer`. The shape is fixed per family: the wiring
    /// of [`Audited::topology`], the synchronizing adversary for the two
    /// asynchronous families, `WakeSchedule::random(n, 5)` for start
    /// synchronization, and each module's own cycle cap. `time` is the
    /// last arrival epoch (async) or the cycle count (sync).
    ///
    /// # Errors
    ///
    /// [`DriverError::BadJob`] on an invalid job shape, and
    /// [`DriverError::Sim`] when the engine fails.
    pub fn run_native(
        self,
        n: usize,
        inputs: &[u8],
        observer: &mut impl Observer,
    ) -> Result<NativeCost, DriverError> {
        let config = |ring| RingConfig::with_topology(inputs.to_vec(), ring);
        Ok(match (self, self.topology(n, inputs)?) {
            (Audited::AsyncInputDist, JobTopology::Ring(ring)) => {
                async_input_dist::engine(&config(ring)?)
                    .run_with_observer(&mut SynchronizingScheduler, observer)?
                    .into()
            }
            (Audited::SyncInputDist, JobTopology::Ring(ring)) => {
                sync_input_dist::engine(&config(ring)?)
                    .run_with_observer(observer)?
                    .into()
            }
            (Audited::Orientation, JobTopology::Ring(ring)) => orientation::engine(&ring)?
                .run_with_observer(observer)?
                .into(),
            (Audited::StartSync, JobTopology::Ring(ring)) => {
                start_sync::engine(&ring, &WakeSchedule::random(n, 5))?
                    .run_with_observer(observer)?
                    .into()
            }
            (Audited::SyncAnd, JobTopology::Ring(ring)) => sync_and::engine(&config(ring)?)
                .run_with_observer(observer)?
                .into(),
            (Audited::DynBroadcast, JobTopology::Dynamic(adversary)) => {
                dyn_broadcast::engine(&adversary, inputs)?
                    .run_with_observer(&mut SynchronizingScheduler, observer)?
                    .into()
            }
            (family, topology) => unreachable!("{family} never runs on {topology:?}"),
        })
    }
}

/// The audit's input hash at processor `i`.
fn mixed(i: usize) -> usize {
    (i * 2654435761) >> 7
}

/// The audit's deterministic, aperiodic-looking bit pattern for `n`
/// processors.
#[must_use]
pub fn mixed_bits(n: usize) -> Vec<u8> {
    (0..n).map(|i| (mixed(i) & 1) as u8).collect()
}

/// The metered cost of one [`Audited::run_native`] job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NativeCost {
    /// Messages sent.
    pub messages: u64,
    /// Bits sent.
    pub bits: u64,
    /// Cycles (sync) or the last arrival epoch (async).
    pub time: u64,
}

impl<O> From<SyncReport<O>> for NativeCost {
    fn from(report: SyncReport<O>) -> NativeCost {
        NativeCost {
            messages: report.messages,
            bits: report.bits,
            time: report.cycles,
        }
    }
}

impl<O> From<AsyncReport<O>> for NativeCost {
    fn from(report: AsyncReport<O>) -> NativeCost {
        NativeCost {
            messages: report.messages,
            bits: report.bits,
            time: report.max_epoch,
        }
    }
}

impl fmt::Display for Audited {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

fn validate(algorithm: Audited, n: usize, inputs: &[u8]) -> Result<(), DriverError> {
    if n < 2 {
        return Err(DriverError::BadJob {
            message: format!("ring size {n} below the model minimum of 2"),
        });
    }
    if inputs.len() != n {
        return Err(DriverError::BadJob {
            message: format!("{} inputs for a ring of {n}", inputs.len()),
        });
    }
    if algorithm.wants_bit_inputs() {
        if let Some(bad) = inputs.iter().find(|&&b| b > 1) {
            return Err(DriverError::BadJob {
                message: format!("{algorithm} takes {{0,1}} inputs, got {bad}"),
            });
        }
    }
    Ok(())
}

/// An invalid job description, or a failed native run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// The (algorithm, n, inputs) triple does not describe a runnable job.
    BadJob {
        /// What is wrong with it.
        message: String,
    },
    /// A native engine run failed (a bug, not a legal outcome).
    Sim(SimError),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::BadJob { message } => write!(f, "bad job: {message}"),
            DriverError::Sim(e) => write!(f, "native run failed: {e}"),
        }
    }
}

impl From<SimError> for DriverError {
    fn from(e: SimError) -> DriverError {
        DriverError::Sim(e)
    }
}

impl std::error::Error for DriverError {}

/// The wiring a packaged job runs on: one of the audited ring wirings, or
/// the dynamic-network adversary. Implements [`Topology`], so any engine
/// or transport generic over the trait accepts it directly.
#[derive(Debug, Clone)]
pub enum JobTopology {
    /// A ring (the five §4 families).
    Ring(RingTopology),
    /// The seeded connectivity adversary (`dyn_broadcast`).
    Dynamic(DynamicTopology),
}

impl Topology for JobTopology {
    fn n(&self) -> usize {
        match self {
            JobTopology::Ring(t) => t.n(),
            JobTopology::Dynamic(t) => Topology::n(t),
        }
    }

    fn ports(&self, i: usize) -> usize {
        match self {
            JobTopology::Ring(t) => Topology::ports(t, i),
            JobTopology::Dynamic(t) => Topology::ports(t, i),
        }
    }

    fn neighbor_port(&self, i: usize, port: PortId) -> (usize, PortId) {
        match self {
            JobTopology::Ring(t) => Topology::neighbor_port(t, i, port),
            JobTopology::Dynamic(t) => Topology::neighbor_port(t, i, port),
        }
    }

    fn is_active(&self, round: u64, i: usize, port: PortId) -> bool {
        match self {
            JobTopology::Ring(t) => Topology::is_active(t, round, i, port),
            JobTopology::Dynamic(t) => Topology::is_active(t, round, i, port),
        }
    }

    fn is_dynamic(&self) -> bool {
        match self {
            JobTopology::Ring(t) => Topology::is_dynamic(t),
            JobTopology::Dynamic(t) => Topology::is_dynamic(t),
        }
    }
}

/// One processor of a job: the audited algorithm behind a uniform
/// message/output alphabet, runnable by any [`AsyncPortProcess`] engine.
#[derive(Debug)]
pub enum JobProc {
    /// §4.1 asynchronous input distribution.
    Dist(AsyncInputDist<u8>),
    /// Figure 2 input distribution, synchronized (boxed: its state machine
    /// dwarfs the other variants).
    SyncDist(Box<Synchronized<SyncInputDist>>),
    /// Figure 4 orientation, synchronized.
    Orient(Synchronized<OrientationProc>),
    /// Figure 5 start synchronization, synchronized.
    Start(Synchronized<StartSync>),
    /// §4.2 AND, synchronized.
    And(Synchronized<SyncAnd>),
    /// Dynamic-network one-bit broadcast (general ports).
    Bcast(DynBroadcast),
}

/// The uniform message alphabet of [`JobProc`]: each variant wraps one
/// algorithm's wire type and delegates its accounted [`Message::bit_len`]
/// unchanged, so metered costs are identical to running the algorithm
/// directly.
#[derive(Debug, Clone, PartialEq)]
pub enum JobMsg {
    /// §4.1 distribution message.
    Dist(DistMsg<u8>),
    /// Synchronizer envelope around a Figure 2 message.
    SyncDist(Envelope<IdMsg>),
    /// Synchronizer envelope around a Figure 4 message.
    Orient(Envelope<OrientMsg>),
    /// Synchronizer envelope around a Figure 5 wake count.
    Start(Envelope<u64>),
    /// Synchronizer envelope around the AND token.
    And(Envelope<()>),
    /// Dynamic-broadcast flooding token.
    Bcast(BcastMsg),
}

impl Message for JobMsg {
    fn bit_len(&self) -> usize {
        match self {
            JobMsg::Dist(m) => m.bit_len(),
            JobMsg::SyncDist(m) => m.bit_len(),
            JobMsg::Orient(m) => m.bit_len(),
            JobMsg::Start(m) => m.bit_len(),
            JobMsg::And(m) => m.bit_len(),
            JobMsg::Bcast(m) => m.bit_len(),
        }
    }
}

/// The uniform output alphabet of [`JobProc`].
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    /// A reconstructed ring view (both input-distribution algorithms).
    View(RingView<u8>),
    /// The orientation verdict.
    Oriented(bool),
    /// The synchronized clock value.
    Clock(u64),
    /// The AND of the input bits (`sync_and`), or the OR of the input
    /// bits (`dyn_broadcast`).
    Bit(u8),
}

/// Lifts a port-addressed emission into the job alphabet, preserving
/// sends (order and ports), halt, and the telemetry span untouched.
fn lift_ports<M, O>(
    actions: PortActions<M, O>,
    msg: impl Fn(M) -> JobMsg,
    out: impl Fn(O) -> JobOutput,
) -> PortActions<JobMsg, JobOutput> {
    PortActions {
        sends: actions
            .sends
            .into_iter()
            .map(|(port, m)| (port, msg(m)))
            .collect(),
        halt: actions.halt.map(out),
        span: actions.span,
    }
}

/// Lifts a ring emission into the job alphabet (left ↦ port 0, right ↦
/// port 1, the lossless [`PortActions`] conversion).
fn lift<M, O>(
    actions: Actions<M, O>,
    msg: impl Fn(M) -> JobMsg,
    out: impl Fn(O) -> JobOutput,
) -> PortActions<JobMsg, JobOutput> {
    lift_ports(PortActions::from(actions), msg, out)
}

/// Arrival port of a two-port (ring) job variant.
fn ring_port(port: PortId) -> Port {
    port.as_ring()
        .expect("ring job variants run on two-port topologies")
}

impl AsyncPortProcess for JobProc {
    type Msg = JobMsg;
    type Output = JobOutput;

    fn on_start_ports(&mut self) -> PortActions<JobMsg, JobOutput> {
        match self {
            JobProc::Dist(p) => lift(p.on_start(), JobMsg::Dist, JobOutput::View),
            JobProc::SyncDist(p) => lift(p.on_start(), JobMsg::SyncDist, JobOutput::View),
            JobProc::Orient(p) => lift(p.on_start(), JobMsg::Orient, JobOutput::Oriented),
            JobProc::Start(p) => lift(p.on_start(), JobMsg::Start, JobOutput::Clock),
            JobProc::And(p) => lift(p.on_start(), JobMsg::And, JobOutput::Bit),
            JobProc::Bcast(p) => lift_ports(p.on_start_ports(), JobMsg::Bcast, JobOutput::Bit),
        }
    }

    fn on_message_port(&mut self, from: PortId, msg: JobMsg) -> PortActions<JobMsg, JobOutput> {
        // An ensemble is built from one `Audited` variant, so every message
        // a processor receives is of its own algorithm's alphabet.
        match (self, msg) {
            (JobProc::Dist(p), JobMsg::Dist(m)) => lift(
                p.on_message(ring_port(from), m),
                JobMsg::Dist,
                JobOutput::View,
            ),
            (JobProc::SyncDist(p), JobMsg::SyncDist(m)) => lift(
                p.on_message(ring_port(from), m),
                JobMsg::SyncDist,
                JobOutput::View,
            ),
            (JobProc::Orient(p), JobMsg::Orient(m)) => lift(
                p.on_message(ring_port(from), m),
                JobMsg::Orient,
                JobOutput::Oriented,
            ),
            (JobProc::Start(p), JobMsg::Start(m)) => lift(
                p.on_message(ring_port(from), m),
                JobMsg::Start,
                JobOutput::Clock,
            ),
            (JobProc::And(p), JobMsg::And(m)) => lift(
                p.on_message(ring_port(from), m),
                JobMsg::And,
                JobOutput::Bit,
            ),
            (JobProc::Bcast(p), JobMsg::Bcast(m)) => {
                lift_ports(p.on_message_port(from, m), JobMsg::Bcast, JobOutput::Bit)
            }
            (proc, msg) => {
                unreachable!("homogeneous ensemble: {proc:?} cannot receive a {msg:?} message")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{mixed_bits as bits, Audited, DriverError, JobOutput, JobProc, NativeCost};
    use crate::algorithms::{
        async_input_dist, dyn_broadcast, orientation, start_sync, sync_and, sync_input_dist,
    };
    use anonring_sim::r#async::{AsyncEngine, RandomScheduler, SynchronizingScheduler};
    use anonring_sim::runtime::TraceEvent;
    use anonring_sim::{RingConfig, RingTopology, WakeSchedule};

    #[test]
    fn names_round_trip() {
        for algorithm in Audited::ALL {
            assert_eq!(Audited::from_name(algorithm.name()), Some(algorithm));
        }
        assert_eq!(Audited::from_name("nonsense"), None);
    }

    #[test]
    fn job_shapes_are_validated() {
        let bad = Audited::SyncAnd.procs(4, &[0, 1, 2, 1]).unwrap_err();
        assert!(matches!(bad, DriverError::BadJob { .. }), "{bad}");
        assert!(Audited::SyncAnd.procs(1, &[1]).is_err());
        assert!(Audited::Orientation.procs(3, &[0, 2, 1]).is_err(), "bits");
        assert!(Audited::AsyncInputDist.procs(3, &[9, 9]).is_err(), "len");
        // Arbitrary bytes are fine for the §4.1 distribution.
        assert!(Audited::AsyncInputDist.procs(2, &[200, 9]).is_ok());
    }

    /// Each packaged algorithm halts under the async engine with outputs of
    /// the expected variant, and its message count matches running the raw
    /// algorithm — the wrapper adds no traffic.
    #[test]
    fn packaged_algorithms_run_and_agree_across_schedules() {
        for algorithm in Audited::ALL {
            for n in [2usize, 5] {
                let inputs = bits(n);
                let topology = algorithm.topology(n, &inputs).unwrap();
                let run = |procs: Vec<JobProc>, seed: Option<u64>| {
                    let mut engine = AsyncEngine::new(topology.clone(), procs).unwrap();
                    match seed {
                        None => engine.run(&mut SynchronizingScheduler),
                        Some(s) => engine.run(&mut RandomScheduler::new(s)),
                    }
                    .unwrap_or_else(|e| panic!("{algorithm} n={n}: {e}"))
                };
                let base = run(algorithm.procs(n, &inputs).unwrap(), None);
                for output in base.outputs() {
                    let ok = match algorithm {
                        Audited::AsyncInputDist | Audited::SyncInputDist => {
                            matches!(output, JobOutput::View(_))
                        }
                        Audited::Orientation => matches!(output, JobOutput::Oriented(_)),
                        Audited::StartSync => matches!(output, JobOutput::Clock(_)),
                        Audited::SyncAnd | Audited::DynBroadcast => {
                            matches!(output, JobOutput::Bit(_))
                        }
                    };
                    assert!(ok, "{algorithm} n={n}: {output:?}");
                }
                // Schedule independence carries over to the packaged form.
                for seed in [1u64, 7] {
                    let other = run(algorithm.procs(n, &inputs).unwrap(), Some(seed));
                    assert_eq!(other.outputs(), base.outputs(), "{algorithm} n={n}");
                    assert_eq!(other.messages, base.messages, "{algorithm} n={n}");
                    assert_eq!(other.bits, base.bits, "{algorithm} n={n}");
                }
            }
        }
    }

    /// `run_native` runs the same job as each module's own `run`, and
    /// streams its events to the observer it is handed.
    #[test]
    fn native_runner_matches_each_module_run() {
        for algorithm in Audited::ALL {
            for n in [2usize, 5, 16] {
                let inputs = algorithm.default_inputs(n);
                let oriented = RingConfig::oriented(inputs.clone());
                let expected: NativeCost = match algorithm {
                    Audited::AsyncInputDist => {
                        async_input_dist::run(&oriented, &mut SynchronizingScheduler)
                            .map(Into::into)
                    }
                    Audited::SyncInputDist => sync_input_dist::run(&oriented).map(Into::into),
                    Audited::Orientation => {
                        orientation::run(&RingTopology::from_bits(&inputs).unwrap()).map(Into::into)
                    }
                    Audited::StartSync => start_sync::run(
                        &RingTopology::oriented(n).unwrap(),
                        &WakeSchedule::random(n, 5),
                    )
                    .map(Into::into),
                    Audited::SyncAnd => sync_and::run(&oriented).map(Into::into),
                    Audited::DynBroadcast => dyn_broadcast::run(
                        &dyn_broadcast::audited_topology(n).unwrap(),
                        &inputs,
                        &mut SynchronizingScheduler,
                    )
                    .map(Into::into),
                }
                .unwrap_or_else(|e| panic!("{algorithm} n={n}: {e}"));
                let mut halts = 0usize;
                let mut count =
                    |e: &TraceEvent| halts += usize::from(matches!(e, TraceEvent::Halt { .. }));
                let native = algorithm.run_native(n, &inputs, &mut count).unwrap();
                assert_eq!(native, expected, "{algorithm} n={n}");
                assert_eq!(halts, n, "{algorithm} n={n}: one halt per processor");
            }
        }
    }

    /// The wrapper must not distort the §4.1 cost: exactly n(n−1) messages.
    #[test]
    fn packaged_async_input_dist_keeps_the_quadratic_count() {
        let n = 6;
        let inputs = bits(n);
        let topology = Audited::AsyncInputDist.topology(n, &inputs).unwrap();
        let procs = Audited::AsyncInputDist.procs(n, &inputs).unwrap();
        let mut engine = AsyncEngine::new(topology, procs).unwrap();
        let report = engine.run(&mut SynchronizingScheduler).unwrap();
        assert_eq!(report.messages, (n * (n - 1)) as u64);
    }
}
