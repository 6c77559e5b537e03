//! Exhaustive schedule exploration: a DPOR-lite certifier for §5.
//!
//! The paper's asynchronous results quantify over *every* legal schedule:
//! an algorithm is correct only if its outputs — and, for the cost
//! theorems, its metered message counts — do not depend on the adversary's
//! delivery choices. The stock test suite runs a handful of adversaries
//! ([`SynchronizingScheduler`](crate::async::SynchronizingScheduler) and
//! friends); this module instead enumerates **all inequivalent delivery
//! interleavings** for small rings and certifies schedule independence, or
//! produces a counterexample pair of witness traces.
//!
//! # The equivalence relation
//!
//! A schedule is a sequence of *moves*; a move `(to, port)` delivers the
//! head of one directed link queue (per-link FIFO is structural, so the
//! head is the only deliverable message of a link). Two moves are
//! **independent** iff they deliver to different processors:
//!
//! * they pop distinct queues (each directed link has one receiver),
//! * their reactions mutate distinct processor states and halt flags,
//! * their sends append to distinct queues (a processor sends only on its
//!   own outgoing links),
//! * and the cost meter's totals are order-insensitive.
//!
//! Swapping adjacent independent moves therefore yields an execution that
//! is indistinguishable to every processor (a Mazurkiewicz trace
//! equivalence). The explorer does a depth-first search over schedules
//! with **sleep sets** over this relation, visiting at least one
//! representative of every equivalence class — so a property certified
//! over the reduced set holds over all interleavings. Setting
//! [`Explorer::reduction`]`(false)` disables the pruning and enumerates
//! every interleaving, which is what the interleaving-count tests pin.
//!
//! # Certification
//!
//! Every complete execution is reduced to a [`Fingerprint`]: the output
//! vector, total messages and bits, and a digest of the wiring the run
//! actually executed over (for dynamic topologies, the per-round active
//! edge sets — two runs with the same outputs over different wiring are
//! distinct observations). Delivery counts, drops and epoch histograms
//! legitimately vary across schedules; the paper's claims are about
//! outputs and message costs. The first execution is canonical;
//! any later execution with a different fingerprint is a **schedule
//! race**, reported with both schedules replayed under a
//! [`FlightRecorder`] so the divergence ships as two witness JSONL
//! recordings.
//!
//! ```
//! use anonring_sim::explore::Explorer;
//! use anonring_sim::r#async::{Actions, AsyncEngine, AsyncProcess, Emit};
//! use anonring_sim::{Port, RingTopology};
//!
//! /// Forward one token and halt: schedule independent by design.
//! #[derive(Debug)]
//! struct Relay;
//! impl AsyncProcess for Relay {
//!     type Msg = u64;
//!     type Output = u64;
//!     fn on_start(&mut self) -> Actions<u64, u64> {
//!         Actions::send(Port::Right, 1)
//!     }
//!     fn on_message(&mut self, _from: Port, hops: u64) -> Actions<u64, u64> {
//!         Actions::send(Port::Right, hops + 1).and_halt(hops)
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cert = Explorer::new().explore(|| {
//!     let topology = RingTopology::oriented(3).unwrap();
//!     AsyncEngine::new(topology, vec![Relay, Relay, Relay]).unwrap()
//! })?;
//! assert_eq!(cert.fingerprint.outputs, vec![1, 1, 1]);
//! assert!(cert.executions >= 1);
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeSet;
use std::fmt;

use crate::error::SimError;
use crate::port::PortId;
use crate::r#async::{AsyncEngine, AsyncPortProcess, Candidate, Scheduler};
use crate::telemetry::FlightRecorder;
use crate::topology::Topology;

/// One scheduling move: deliver the head of the directed link into
/// processor `to` via its local `port`.
pub type Move = (usize, PortId);

fn move_of(c: &Candidate) -> Move {
    (c.to, c.port)
}

/// Two moves commute iff they deliver to different processors (see the
/// module docs for why this is sound for this runtime).
fn independent(a: Move, b: Move) -> bool {
    a.0 != b.0
}

/// The schedule-independent observables the paper's theorems speak about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint<O> {
    /// The ring output vector.
    pub outputs: Vec<O>,
    /// Total messages sent.
    pub messages: u64,
    /// Total bits sent.
    pub bits: u64,
    /// Digest of the wiring the execution ran over: the static topology
    /// digest, folded (for dynamic topologies) with the active edge set of
    /// every executed round. Two runs with identical outputs but different
    /// wiring are *different* observations, not the same equivalence
    /// class.
    pub wiring: u64,
}

/// A successful certification: every explored interleaving produced the
/// same [`Fingerprint`].
#[derive(Debug, Clone)]
pub struct Certificate<O> {
    /// Complete executions examined (one per equivalence class under
    /// reduction; every interleaving without).
    pub executions: u64,
    /// Executions pruned by sleep sets before completing.
    pub sleep_blocked: u64,
    /// The common fingerprint.
    pub fingerprint: Fingerprint<O>,
}

/// Proof that the algorithm is schedule dependent: two schedules with
/// different fingerprints, each replayed into a witness recording.
#[derive(Debug, Clone)]
pub struct ScheduleRace<O> {
    /// Fingerprint of the first (canonical) execution.
    pub canonical: Fingerprint<O>,
    /// Fingerprint of the diverging execution.
    pub divergent: Fingerprint<O>,
    /// The canonical schedule, as delivery moves.
    pub canonical_schedule: Vec<Move>,
    /// The diverging schedule.
    pub divergent_schedule: Vec<Move>,
    /// FlightRecorder JSONL of the canonical execution.
    pub canonical_witness: String,
    /// FlightRecorder JSONL of the diverging execution.
    pub divergent_witness: String,
}

/// Why exploration stopped without a certificate.
#[derive(Debug, Clone)]
pub enum ExploreError<O> {
    /// Two schedules disagree on outputs or message counts.
    Race(Box<ScheduleRace<O>>),
    /// The engine itself failed (deadlock, livelock, bad config) under
    /// the recorded schedule.
    Engine {
        /// The underlying engine error.
        error: SimError,
        /// The schedule that triggered it.
        schedule: Vec<Move>,
    },
    /// The execution budget ran out before the search completed.
    Budget {
        /// Executions performed when the budget tripped.
        executions: u64,
    },
}

impl<O: fmt::Debug> fmt::Display for ExploreError<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Race(race) => write!(
                f,
                "schedule race: canonical {:?} vs divergent {:?} (schedules of {} and {} moves)",
                race.canonical,
                race.divergent,
                race.canonical_schedule.len(),
                race.divergent_schedule.len()
            ),
            ExploreError::Engine { error, schedule } => {
                write!(f, "engine error after {} moves: {error}", schedule.len())
            }
            ExploreError::Budget { executions } => {
                write!(
                    f,
                    "execution budget exhausted after {executions} executions"
                )
            }
        }
    }
}

impl<O: fmt::Debug> std::error::Error for ExploreError<O> {}

/// One frontier node of the schedule DFS.
struct Node {
    /// Enabled moves at this node, in the engine's deterministic
    /// candidate order.
    enabled: Vec<Move>,
    /// Index into `enabled` of the branch currently being explored.
    chosen: usize,
    /// Sleep set: moves whose subtrees are covered elsewhere. Grows with
    /// each completed sibling branch.
    sleep: BTreeSet<Move>,
}

/// The DFS driver, doubling as the engine's [`Scheduler`] during replay.
struct Dfs {
    path: Vec<Node>,
    /// Delivery events seen so far in the current execution.
    depth: usize,
    /// Set when the frontier's every enabled move is asleep: the rest of
    /// the execution is driven arbitrarily and the result discarded.
    blocked: bool,
    /// `false` disables sleep sets (full enumeration).
    reduce: bool,
}

impl Scheduler for Dfs {
    fn pick(&mut self, candidates: &[Candidate]) -> usize {
        if self.blocked {
            return 0;
        }
        let d = self.depth;
        self.depth += 1;
        if let Some(node) = self.path.get(d) {
            let want = node.enabled[node.chosen];
            return candidates
                .iter()
                .position(|c| move_of(c) == want)
                .expect("deterministic engine: a replayed prefix re-enables the same moves");
        }
        // Frontier: a new node. Its initial sleep set keeps the parent's
        // slept moves that commute with the move that led here.
        let enabled: Vec<Move> = candidates.iter().map(move_of).collect();
        let sleep: BTreeSet<Move> = match self.path.last() {
            Some(parent) if self.reduce => {
                let taken = parent.enabled[parent.chosen];
                parent
                    .sleep
                    .iter()
                    .copied()
                    .filter(|&m| independent(m, taken))
                    .collect()
            }
            _ => BTreeSet::new(),
        };
        match (0..enabled.len()).find(|&i| !sleep.contains(&enabled[i])) {
            Some(chosen) => {
                self.path.push(Node {
                    enabled,
                    chosen,
                    sleep,
                });
                self.path[d].chosen
            }
            None => {
                // Every continuation is covered elsewhere: prune.
                self.blocked = true;
                0
            }
        }
    }
}

impl Dfs {
    fn schedule(&self) -> Vec<Move> {
        self.path.iter().map(|n| n.enabled[n.chosen]).collect()
    }

    /// Advances to the next unexplored branch; `false` when the whole
    /// tree is exhausted.
    fn backtrack(&mut self) -> bool {
        while let Some(top) = self.path.last_mut() {
            let taken = top.enabled[top.chosen];
            if self.reduce {
                top.sleep.insert(taken);
            }
            let next = (top.chosen + 1..top.enabled.len())
                .find(|&i| self.reduce && !top.sleep.contains(&top.enabled[i]))
                .or_else(|| {
                    if self.reduce {
                        None
                    } else {
                        (top.chosen + 1 < top.enabled.len()).then_some(top.chosen + 1)
                    }
                });
            if let Some(next) = next {
                top.chosen = next;
                return true;
            }
            self.path.pop();
        }
        false
    }
}

/// Replays a fixed schedule (used to regenerate witness recordings).
struct Replay<'a> {
    schedule: &'a [Move],
    depth: usize,
}

impl Scheduler for Replay<'_> {
    fn pick(&mut self, candidates: &[Candidate]) -> usize {
        let want = self.schedule[self.depth];
        self.depth += 1;
        candidates
            .iter()
            .position(|c| move_of(c) == want)
            .expect("deterministic engine: a recorded schedule replays verbatim")
    }
}

/// Default execution budget: far above any small-`n` algorithm's reduced
/// search space, low enough to fail fast on accidental blowup.
pub const DEFAULT_MAX_EXECUTIONS: u64 = 250_000;

/// Configuration for an exhaustive exploration.
#[derive(Debug, Clone)]
pub struct Explorer {
    max_executions: u64,
    reduce: bool,
}

impl Default for Explorer {
    fn default() -> Explorer {
        Explorer::new()
    }
}

impl Explorer {
    /// An explorer with sleep-set reduction on and the default budget.
    #[must_use]
    pub fn new() -> Explorer {
        Explorer {
            max_executions: DEFAULT_MAX_EXECUTIONS,
            reduce: true,
        }
    }

    /// Caps the number of executions before giving up with
    /// [`ExploreError::Budget`].
    #[must_use]
    pub fn max_executions(mut self, max_executions: u64) -> Explorer {
        self.max_executions = max_executions;
        self
    }

    /// Toggles sleep-set reduction. With `false`, every interleaving is
    /// executed — exponentially more work, but [`Certificate::executions`]
    /// becomes the exact interleaving count.
    #[must_use]
    pub fn reduction(mut self, reduce: bool) -> Explorer {
        self.reduce = reduce;
        self
    }

    /// Explores every inequivalent schedule of the engine produced by
    /// `make`, certifying fingerprint equality.
    ///
    /// `make` is called once per execution and must build the same
    /// initial state every time (same topology, same inputs, same
    /// processes) — exploration is meaningless otherwise.
    ///
    /// # Errors
    ///
    /// [`ExploreError::Race`] on a schedule race (with witnesses),
    /// [`ExploreError::Engine`] if a schedule deadlocks or exhausts the
    /// engine's own budgets, [`ExploreError::Budget`] if the search space
    /// exceeds the execution cap.
    pub fn explore<P: AsyncPortProcess, T: Topology, F>(
        &self,
        mut make: F,
    ) -> Result<Certificate<P::Output>, ExploreError<P::Output>>
    where
        F: FnMut() -> AsyncEngine<P, T>,
    {
        let mut dfs = Dfs {
            path: Vec::new(),
            depth: 0,
            blocked: false,
            reduce: self.reduce,
        };
        let mut executions = 0u64;
        let mut sleep_blocked = 0u64;
        let mut canonical: Option<(Fingerprint<P::Output>, Vec<Move>)> = None;

        loop {
            if executions + sleep_blocked >= self.max_executions {
                return Err(ExploreError::Budget { executions });
            }
            dfs.depth = 0;
            dfs.blocked = false;
            let mut engine = make();
            let report = engine.run(&mut dfs);
            if dfs.blocked {
                sleep_blocked += 1;
            } else {
                let report = report.map_err(|error| ExploreError::Engine {
                    error,
                    schedule: dfs.schedule(),
                })?;
                executions += 1;
                let fp = Fingerprint {
                    messages: report.messages,
                    bits: report.bits,
                    wiring: wiring_digest_of(engine.topology(), report.max_epoch),
                    outputs: report.into_outputs(),
                };
                match &canonical {
                    None => canonical = Some((fp, dfs.schedule())),
                    Some((want, canonical_schedule)) if *want != fp => {
                        let divergent_schedule = dfs.schedule();
                        return Err(ExploreError::Race(Box::new(ScheduleRace {
                            canonical: want.clone(),
                            divergent: fp,
                            canonical_witness: witness(&mut make, canonical_schedule),
                            divergent_witness: witness(&mut make, &divergent_schedule),
                            canonical_schedule: canonical_schedule.clone(),
                            divergent_schedule,
                        })));
                    }
                    Some(_) => {}
                }
            }
            if !dfs.backtrack() {
                break;
            }
        }

        let (fingerprint, _) = canonical.expect("at least the first execution completes");
        Ok(Certificate {
            executions,
            sleep_blocked,
            fingerprint,
        })
    }
}

/// The wiring observable of one execution: the topology digest, folded
/// with each executed round's active edge set when the topology is
/// dynamic (see [`Fingerprint::wiring`]).
fn wiring_digest_of(topology: &impl Topology, max_epoch: u64) -> u64 {
    let mut digest = topology.wiring_digest();
    if topology.is_dynamic() {
        for round in 0..=max_epoch {
            digest = crate::topology::fnv_fold(digest, topology.round_digest(round));
        }
    }
    digest
}

/// Re-runs `schedule` with a [`FlightRecorder`] attached and returns the
/// witness JSONL.
fn witness<P: AsyncPortProcess, T: Topology, F>(make: &mut F, schedule: &[Move]) -> String
where
    F: FnMut() -> AsyncEngine<P, T>,
{
    let mut engine = make();
    let mut recorder = FlightRecorder::new(engine.n(), "explore-witness");
    let mut replay = Replay { schedule, depth: 0 };
    // The schedule already ran once; ignore the (identical) outcome and
    // keep whatever the recorder captured even on error paths.
    let _ = engine.run_with_observer(&mut replay, &mut recorder);
    recorder.to_jsonl()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::Port;
    use crate::r#async::{Actions, AsyncProcess, Emit};
    use crate::topology::RingTopology;

    /// Deterministic under any schedule: forward one token, halt.
    #[derive(Debug, Clone)]
    struct Relay;
    impl AsyncProcess for Relay {
        type Msg = u64;
        type Output = u64;
        fn on_start(&mut self) -> Actions<u64, u64> {
            Actions::send(Port::Right, 1)
        }
        fn on_message(&mut self, _from: Port, hops: u64) -> Actions<u64, u64> {
            Actions::send(Port::Right, hops + 1).and_halt(hops)
        }
    }

    fn relay_engine(n: usize) -> AsyncEngine<Relay> {
        let topology = RingTopology::oriented(n).expect("n >= 2");
        AsyncEngine::new(topology, (0..n).map(|_| Relay).collect()).expect("lengths match")
    }

    #[test]
    fn certifies_a_schedule_independent_algorithm() {
        let cert = Explorer::new()
            .explore(|| relay_engine(3))
            .expect("relay is schedule independent");
        assert_eq!(cert.fingerprint.outputs, vec![1, 1, 1]);
        assert_eq!(cert.fingerprint.messages, 6);
        assert!(cert.executions >= 1);
    }

    #[test]
    fn reduction_explores_no_more_than_full_enumeration() {
        let full = Explorer::new()
            .reduction(false)
            .explore(|| relay_engine(3))
            .expect("relay certifies");
        let reduced = Explorer::new()
            .explore(|| relay_engine(3))
            .expect("relay certifies");
        assert!(
            reduced.executions <= full.executions,
            "reduced {} > full {}",
            reduced.executions,
            full.executions
        );
        assert_eq!(reduced.fingerprint, full.fingerprint);
    }

    /// Outputs depend on which neighbor's token lands first: a seeded
    /// schedule race the explorer must detect.
    #[derive(Debug, Clone)]
    struct FirstPortWins;
    impl AsyncProcess for FirstPortWins {
        type Msg = u8;
        type Output = u8;
        fn on_start(&mut self) -> Actions<u8, u8> {
            Actions::send_both(0, 1)
        }
        fn on_message(&mut self, from: Port, _msg: u8) -> Actions<u8, u8> {
            Actions::halt(u8::from(from == Port::Right))
        }
    }

    #[test]
    fn detects_a_seeded_schedule_race_with_witnesses() {
        let result = Explorer::new().explore(|| {
            let topology = RingTopology::oriented(3).expect("n >= 2");
            AsyncEngine::new(topology, vec![FirstPortWins; 3]).expect("lengths match")
        });
        let Err(ExploreError::Race(race)) = result else {
            panic!("expected a schedule race, got {result:?}");
        };
        assert_ne!(race.canonical.outputs, race.divergent.outputs);
        assert_eq!(race.canonical.messages, race.divergent.messages);
        // Both witnesses must round-trip through the recording parser so
        // `tracer` can replay them.
        for witness in [&race.canonical_witness, &race.divergent_witness] {
            let rec =
                crate::telemetry::Recording::parse_jsonl(witness).expect("witness JSONL parses");
            assert_eq!(rec.messages(), race.canonical.messages);
        }
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // Relay at n=5 has far more than 2 interleavings.
        let result = Explorer::new()
            .reduction(false)
            .max_executions(2)
            .explore(|| relay_engine(5));
        assert!(matches!(result, Err(ExploreError::Budget { .. })));
    }

    #[test]
    fn engine_errors_surface_with_the_schedule() {
        #[derive(Debug, Clone)]
        struct Mute;
        impl AsyncProcess for Mute {
            type Msg = u8;
            type Output = u8;
            fn on_start(&mut self) -> Actions<u8, u8> {
                Actions::idle()
            }
            fn on_message(&mut self, _from: Port, _msg: u8) -> Actions<u8, u8> {
                Actions::idle()
            }
        }
        let result = Explorer::new().explore(|| {
            let topology = RingTopology::oriented(2).expect("n >= 2");
            AsyncEngine::new(topology, vec![Mute, Mute]).expect("lengths match")
        });
        assert!(matches!(
            result,
            Err(ExploreError::Engine {
                error: SimError::QuiescentWithoutHalt { .. },
                ..
            })
        ));
    }
}
