//! Figure 5 / §4.2.3: start synchronization in `O(n log n)` messages.
//!
//! Processors wake at adversary-chosen times (adjacent wake-ups at most
//! one cycle apart) but share a clock *rate*. The algorithm elects the
//! earliest-woken processors by a local-maximum tournament on wake-clock
//! counts: every `2n` own-cycles each remaining candidate sends its count
//! both ways; forwarders increment the count per hop, so a received value
//! always equals the sender's *current* count and the comparison measures
//! pure wake-time offset. Candidates that are not strict local maxima
//! drop out; everyone adopts the largest count heard. When all surviving
//! candidates tie, a whole round passes in silence and every processor —
//! whose counts are by then identical — halts at the same multiple of
//! `2n`, i.e. at the same global cycle: the ring is start-synchronized.

use anonring_sim::sync::{Emit, Received, Step, SyncEngine, SyncProcess, SyncReport};
use anonring_sim::{Port, RingTopology, SimError, WakeSchedule};

/// The Figure 5 process. Messages carry a wake-clock count; the output is
/// the synchronized clock value at the halting cycle.
#[derive(Debug, Clone)]
pub struct StartSync {
    n: u64,
    /// The wake-clock count as of the last step, at local cycle `at`; it
    /// advances one per cycle whether or not the cycle is stepped.
    count: u64,
    at: u64,
    active: bool,
    /// Wake-time deficits of the neighbours heard this round
    /// (`> 0` means the neighbour woke earlier).
    deficits: Vec<i64>,
    last_heard: u64,
    started: bool,
}

impl StartSync {
    /// Creates the process for a ring of size `n ≥ 2`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new(n: usize) -> StartSync {
        assert!(n >= 2, "ring size must be at least 2");
        StartSync {
            n: n as u64,
            count: 0,
            at: 0,
            active: false,
            deficits: Vec::new(),
            last_heard: 0,
            started: false,
        }
    }

    fn round(&self) -> u64 {
        2 * self.n
    }
}

impl SyncProcess for StartSync {
    type Msg = u64;
    type Output = u64;

    fn step(&mut self, local_cycle: u64, rx: Received<u64>) -> Step<u64, u64> {
        let mut step: Step<u64, u64> = Step::idle();
        if !self.started {
            self.started = true;
            self.count = 0;
            self.at = local_cycle;
            self.last_heard = 0;
            // Spontaneous wake-up iff no message triggered it.
            self.active = rx.is_empty();
            if self.active {
                return Step::send_both(0, 0).in_span("wakeup", 0);
            }
        } else {
            self.count += local_cycle - self.at;
            self.at = local_cycle;
        }

        // Message handling (any cycle — see DESIGN.md on relaxing
        // Figure 5's `count mod 2n ≠ 0` guard to every cycle).
        for (port, &m) in rx.iter() {
            self.last_heard = self.count;
            let incoming = m + 1; // the sender's current count
            if self.active {
                // Deficit before any adoption: sender minus me.
                self.deficits.push(incoming as i64 - self.count as i64);
            } else {
                // Passives relay the incremented count onwards.
                match port {
                    Port::Left => step.to_right = Some(incoming),
                    Port::Right => step.to_left = Some(incoming),
                }
            }
            self.count = self.count.max(incoming);
        }
        if self.active && self.deficits.len() >= 2 {
            let ahead_of_all = self.deficits.iter().all(|&d| d <= 0);
            let strictly_ahead = self.deficits.iter().any(|&d| d < 0);
            if !(ahead_of_all && strictly_ahead) {
                self.active = false;
            }
            self.deficits.clear();
        }

        // Round boundary.
        if self.count > 0 && self.count.is_multiple_of(self.round()) {
            if self.count - self.last_heard >= self.round() {
                return Step::halt(self.count);
            }
            if self.active {
                step.to_left = Some(self.count);
                step.to_right = Some(self.count);
            }
        }
        if step.to_left.is_some() || step.to_right.is_some() {
            // Span round = tournament round (counts advance 2n per round).
            step = step.in_span("tournament", self.count / self.round());
        }
        step
    }

    /// Quiet cycles are counted, not stepped: between arrivals the next
    /// act is at the next multiple of `2n` of the count.
    fn next_active(&self, local_cycle: u64) -> Option<u64> {
        let boundary = (self.count / self.round() + 1) * self.round();
        Some(local_cycle + (boundary - self.count))
    }
}

/// Runs Figure 5 under a wake-up schedule, returning the report.
///
/// Success criterion: [`SyncReport::halted_simultaneously`] and all
/// outputs (synchronized counts) equal.
///
/// ```
/// use anonring_core::algorithms::start_sync;
/// use anonring_sim::{RingTopology, WakeSchedule};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ring = RingTopology::oriented(8)?;
/// let wake = WakeSchedule::from_word(&[1, 1, 0, 1, 0, 0, 1, 0])?;
/// let report = start_sync::run(&ring, &wake)?;
/// assert!(report.halted_simultaneously());
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates engine errors (which indicate a bug, not a legal outcome).
pub fn run(topology: &RingTopology, wake: &WakeSchedule) -> Result<SyncReport<u64>, SimError> {
    engine(topology, wake)?.run()
}

/// The Figure 5 engine over `topology`: one [`StartSync`] per processor,
/// woken by `wake`, under the family's cycle cap.
///
/// # Errors
///
/// [`SimError::LengthMismatch`] when `wake` does not cover the ring.
pub fn engine(
    topology: &RingTopology,
    wake: &WakeSchedule,
) -> Result<SyncEngine<StartSync>, SimError> {
    let n = topology.n();
    let procs = (0..n).map(|_| StartSync::new(n)).collect();
    let mut engine = SyncEngine::new(topology.clone(), procs)?;
    engine.set_wakeups(wake.as_slice().to_vec())?;
    engine.set_max_cycles(((2 * n as u64 + 2) * (2 * n as u64 + 2)).max(10_000));
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use anonring_sim::RingTopology;

    fn check(n: usize, wake: &WakeSchedule) -> SyncReport<u64> {
        let topology = RingTopology::oriented(n).unwrap();
        let report = run(&topology, wake).unwrap();
        assert!(
            report.halted_simultaneously(),
            "n={n} wake={:?}: halts at {:?}",
            wake.as_slice(),
            report.halt_cycles
        );
        let first = report.outputs()[0];
        assert!(
            report.outputs().iter().all(|&c| c == first),
            "n={n}: clocks disagree: {:?}",
            report.outputs()
        );
        report
    }

    #[test]
    fn simultaneous_start_synchronizes_trivially() {
        for n in [2usize, 3, 5, 12] {
            let report = check(n, &WakeSchedule::simultaneous(n));
            // Everyone sends at count 0, everyone ties, then silence.
            assert!(report.messages <= 2 * n as u64 + 2);
        }
    }

    #[test]
    fn adversarial_word_schedules_synchronize() {
        for word in [
            vec![1u8, 1, 0, 0],
            vec![1, 0, 1, 0, 1, 0],
            vec![1, 1, 1, 0, 0, 0, 1, 0],
            vec![0u8, 1, 0, 1, 1, 0, 1, 0, 0, 1],
        ] {
            let n = word.len();
            let wake = WakeSchedule::from_word(&word).unwrap();
            check(n, &wake);
        }
    }

    #[test]
    fn random_schedules_synchronize_and_respect_bound() {
        for n in [4usize, 9, 16, 33, 64] {
            for seed in 0..5 {
                let wake = WakeSchedule::random(n, seed);
                let report = check(n, &wake);
                let bound = bounds::start_sync_messages(n as u64) + 2.0 * n as f64;
                assert!(
                    (report.messages as f64) <= bound,
                    "n={n} seed={seed}: {} messages > {bound}",
                    report.messages
                );
            }
        }
    }

    #[test]
    fn paper_fooling_schedule_synchronizes() {
        // The §6.3.3 adversary word sigma0 sigma0 sigma1 sigma1 at k = 2.
        let witness = anonring_words::constructions::start_sync_exact(2);
        let n = witness.n();
        let wake = WakeSchedule::from_word(witness.word.as_slice()).unwrap();
        let report = check(n, &wake);
        // The lower bound must hold on its own witness.
        let lb = bounds::start_sync_sync_lower(n as u64);
        assert!(
            (report.messages as f64) >= lb,
            "{} messages < lower bound {lb}",
            report.messages
        );
    }
}
