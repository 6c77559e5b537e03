//! One-bit broadcast in anonymous dynamic networks.
//!
//! The first non-ring audited family: `n` anonymous processors joined by
//! a port-labelled footprint whose *active* edge set is swapped by an
//! adversary between rounds (1-interval connectivity — every round's
//! graph is connected, but no round's graph need resemble the last). Each
//! processor starts holding one bit; the goal is for every processor to
//! output the OR of all inputs — equivalently, to broadcast the token
//! held by the (possibly several) source processors.
//!
//! The algorithm is flooding, compiled onto the asynchronous substrate:
//!
//! * In round `r` a processor sends its current bit on every port its
//!   local activity schedule lists for `r`, then waits for exactly one
//!   message on each of those same ports (activity is symmetric across a
//!   wire, so the neighbour sends on its matching port in the same
//!   round).
//! * Per-link FIFO makes the round structure recoverable without tagging
//!   messages: the `k`-th message to arrive on a port belongs to the
//!   `k`-th round in which that port is active, so a 1-bit message
//!   suffices — arrivals for a future round queue up behind the current
//!   one and are buffered until their round begins.
//! * With every round's active graph connected, the set of processors
//!   holding the token grows by at least one per round, so after `n − 1`
//!   rounds everyone holds the OR and halts.
//!
//! Every active wire carries one bit in each direction per round:
//! `2·Σ_r |E_r|` messages in total, and with the connectivity adversary
//! activating Θ(n) edges per round for `n − 1` rounds the cost is Θ(n²)
//! messages of 1 bit each — the audited quadratic cost curve.
//!
//! Anonymity: a process is built from its input bit and its *local*
//! schedule (which of its own ports are active each round — knowledge the
//! dynamic-network model grants every node). It never sees identities,
//! indices, or the global edge set.

use anonring_sim::r#async::{AsyncEngine, AsyncPortProcess, Scheduler};
use anonring_sim::runtime::PortActions;
use anonring_sim::{DynamicTopology, Message, PortId, SimError};

/// Seed of the audited connectivity adversary; combined with `n` so every
/// grid size gets its own deterministic round schedule.
pub const ADVERSARY_SEED: u64 = 0x0A11_D15C;

/// The audited adversarial topology for `n` processors: the complete
/// footprint with `n − 1` scheduled rounds, deterministically derived
/// from [`ADVERSARY_SEED`] and `n`. Every substrate (audit sweep, job
/// driver, net conformance) builds the same wiring from the same `n`.
///
/// # Errors
///
/// Returns [`SimError::RingTooSmall`] when `n < 2`.
pub fn audited_topology(n: usize) -> Result<DynamicTopology, SimError> {
    DynamicTopology::adversarial(n, n.saturating_sub(1).max(1), ADVERSARY_SEED ^ n as u64)
}

/// The flooding token: one bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BcastMsg(pub u8);

impl Message for BcastMsg {
    fn bit_len(&self) -> usize {
        1
    }
}

/// The one-bit dynamic-broadcast process.
///
/// Built from the processor's input bit and its local activity schedule;
/// halts with the OR of all inputs once the final scheduled round
/// completes.
#[derive(Debug, Clone)]
pub struct DynBroadcast {
    /// `schedule[r]`: the local ports active in round `r`.
    schedule: Vec<Vec<PortId>>,
    /// Completed-rounds cursor.
    round: usize,
    /// OR of the input and every bit heard so far.
    informed: u8,
    /// Per-port buffers of received-but-unconsumed bits, in FIFO order.
    pending: Vec<Vec<u8>>,
    /// Per-port count of bits already consumed — position in the port's
    /// activity sequence.
    consumed: Vec<usize>,
}

impl DynBroadcast {
    /// Creates the process from an input bit and the processor's local
    /// activity schedule (see
    /// [`DynamicTopology::local_schedule`]).
    ///
    /// # Panics
    ///
    /// Panics when the schedule is empty (a zero-round network computes
    /// nothing).
    #[must_use]
    pub fn new(input: u8, schedule: Vec<Vec<PortId>>) -> DynBroadcast {
        assert!(
            !schedule.is_empty(),
            "schedule must cover at least one round"
        );
        let ports = schedule
            .iter()
            .flat_map(|round| round.iter().map(|p| p.index() + 1))
            .max()
            .unwrap_or(0);
        DynBroadcast {
            schedule,
            round: 0,
            informed: u8::from(input != 0),
            pending: vec![Vec::new(); ports],
            consumed: vec![0; ports],
        }
    }

    /// Sends the current bit on every port active in `round`.
    fn flood(&self, round: usize) -> PortActions<BcastMsg, u8> {
        PortActions::send_each(&self.schedule[round], BcastMsg(self.informed))
            .in_span("flood", round as u64)
    }

    /// Whether every port active in the current round has an unconsumed
    /// arrival buffered.
    fn round_complete(&self) -> bool {
        self.schedule[self.round]
            .iter()
            .all(|p| self.pending[p.index()].len() > self.consumed[p.index()])
    }

    /// Consumes the current round's arrivals and advances, emitting the
    /// next round's sends (or the halt after the last round).
    fn advance(&mut self) -> PortActions<BcastMsg, u8> {
        let mut actions = PortActions::idle();
        while self.round < self.schedule.len() && self.round_complete() {
            for k in 0..self.schedule[self.round].len() {
                let p = self.schedule[self.round][k];
                let bit = self.pending[p.index()][self.consumed[p.index()]];
                self.consumed[p.index()] += 1;
                self.informed |= bit;
            }
            self.round += 1;
            if self.round == self.schedule.len() {
                return actions.and_halt(self.informed);
            }
            let next = self.flood(self.round);
            for (port, msg) in next.sends {
                actions = actions.and_send(port, msg);
            }
            actions.span = next.span;
        }
        actions
    }
}

impl AsyncPortProcess for DynBroadcast {
    type Msg = BcastMsg;
    type Output = u8;

    fn on_start_ports(&mut self) -> PortActions<BcastMsg, u8> {
        // Round 0's sends; a round with no active local ports (possible
        // under a hand-written schedule) completes immediately.
        let mut actions = self.flood(0);
        let follow = self.advance();
        for (port, msg) in follow.sends {
            actions = actions.and_send(port, msg);
        }
        if let Some(out) = follow.halt {
            actions = actions.and_halt(out);
        }
        actions
    }

    fn on_message_port(&mut self, from: PortId, msg: BcastMsg) -> PortActions<BcastMsg, u8> {
        self.pending[from.index()].push(msg.0);
        self.advance()
    }
}

/// Builds the processor ensemble for `inputs` over `topology`: one
/// [`DynBroadcast`] per processor, each handed only its own input bit and
/// local schedule.
///
/// # Errors
///
/// [`SimError::LengthMismatch`] when `inputs.len() != topology.n()`.
pub fn processes(topology: &DynamicTopology, inputs: &[u8]) -> Result<Vec<DynBroadcast>, SimError> {
    use anonring_sim::Topology;
    if inputs.len() != topology.n() {
        return Err(SimError::LengthMismatch {
            expected: topology.n(),
            actual: inputs.len(),
        });
    }
    Ok(inputs
        .iter()
        .enumerate()
        // anonlint: allow(anonymity-breach) -- ensemble construction: each process receives only its own input bit and local schedule
        .map(|(i, &bit)| DynBroadcast::new(bit, topology.local_schedule(i)))
        .collect())
}

/// Runs one-bit broadcast for `inputs` over `topology` under a scheduler,
/// returning the per-processor outputs (all equal to the OR of the
/// inputs) and the run report.
///
/// # Errors
///
/// Propagates engine errors (which indicate a bug, not a legal outcome).
pub fn run(
    topology: &DynamicTopology,
    inputs: &[u8],
    scheduler: &mut dyn Scheduler,
) -> Result<anonring_sim::r#async::AsyncReport<u8>, SimError> {
    engine(topology, inputs)?.run(scheduler)
}

/// The broadcast engine over `topology`: the [`processes`] ensemble for
/// `inputs`.
///
/// # Errors
///
/// [`SimError::LengthMismatch`] when `inputs.len() != topology.n()`.
pub fn engine(
    topology: &DynamicTopology,
    inputs: &[u8],
) -> Result<AsyncEngine<DynBroadcast, DynamicTopology>, SimError> {
    AsyncEngine::new(topology.clone(), processes(topology, inputs)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonring_sim::r#async::{FifoScheduler, RandomScheduler, SynchronizingScheduler};

    fn adversary(n: usize, seed: u64) -> DynamicTopology {
        DynamicTopology::adversarial(n, n - 1, seed).unwrap()
    }

    #[test]
    fn every_processor_learns_the_or_of_all_inputs() {
        for n in [2usize, 3, 5, 8, 13] {
            for seed in [0u64, 7, 42] {
                let topology = adversary(n, seed);
                let mut inputs = vec![0u8; n];
                inputs[seed as usize % n] = 1;
                let report = run(&topology, &inputs, &mut SynchronizingScheduler).unwrap();
                assert_eq!(report.outputs(), vec![1u8; n], "n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn all_zero_inputs_broadcast_zero() {
        let topology = adversary(6, 3);
        let report = run(&topology, &[0; 6], &mut FifoScheduler).unwrap();
        assert_eq!(report.outputs(), vec![0u8; 6]);
    }

    #[test]
    fn message_count_is_twice_the_active_edge_total_and_all_bits_are_single() {
        for (n, seed) in [(4usize, 1u64), (9, 2), (12, 3)] {
            let topology = adversary(n, seed);
            let expected: u64 = (0..(n as u64 - 1))
                .map(|r| 2 * topology.active_edges(r) as u64)
                .sum();
            let report = run(&topology, &vec![1u8; n], &mut SynchronizingScheduler).unwrap();
            assert_eq!(report.messages, expected, "n={n}");
            assert_eq!(report.bits, report.messages, "1-bit tokens, n={n}");
        }
    }

    #[test]
    fn outputs_and_totals_are_schedule_independent() {
        let topology = adversary(7, 11);
        let mut inputs = vec![0u8; 7];
        inputs[2] = 1;
        let want = run(&topology, &inputs, &mut SynchronizingScheduler).unwrap();
        for seed in 0..8u64 {
            let got = run(&topology, &inputs, &mut RandomScheduler::new(seed)).unwrap();
            assert_eq!(got.outputs(), want.outputs(), "seed {seed}");
            assert_eq!(got.messages, want.messages, "seed {seed}");
            assert_eq!(got.bits, want.bits, "seed {seed}");
        }
    }

    #[test]
    fn a_disconnected_round_can_strand_the_token() {
        // Hand-built counterexample: without per-round connectivity the
        // token never crosses to the far side, yet everyone still
        // completes their (valid) schedule — outputs then differ.
        use anonring_sim::GraphTopology;
        let base = GraphTopology::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let topology = DynamicTopology::new(
            base,
            vec![vec![true, true], vec![true, true], vec![true, true]],
        )
        .unwrap();
        assert!(!topology.always_connected());
        let report = run(&topology, &[1, 0, 0, 0], &mut FifoScheduler).unwrap();
        assert_eq!(report.outputs(), &[1, 1, 0, 0]);
    }

    #[test]
    fn processes_validates_input_length() {
        let topology = adversary(4, 0);
        assert!(matches!(
            processes(&topology, &[1, 0]),
            Err(SimError::LengthMismatch {
                expected: 4,
                actual: 2
            })
        ));
    }

    #[test]
    fn quadratic_growth_under_the_connectivity_adversary() {
        // Θ(n²): at least the 2(n−1)² path-edge floor, at most twice the
        // scheduled edge bound.
        for n in [8usize, 16, 24] {
            let topology = adversary(n, 5);
            let report = run(&topology, &vec![0u8; n], &mut SynchronizingScheduler).unwrap();
            let floor = (2 * (n - 1) * (n - 1)) as u64;
            let ceiling = (2 * (n - 1) * (n - 1 + n / 4)) as u64;
            assert!(
                report.messages >= floor && report.messages <= ceiling,
                "n={n}: {} outside [{floor}, {ceiling}]",
                report.messages
            );
        }
    }
}
