//! Figure 2: synchronous input distribution in `O(n log n)` messages.
//!
//! Anonymous processors *manufacture* labels: an active processor's label
//! is the input string of the ring segment between it and the previous
//! active processor. Rounds alternate an **elimination** phase (actives
//! exchange labels with their nearest active neighbours; a processor stays
//! active iff its label is maximal and beats at least one side) and a
//! **label-collection** phase (each surviving active gathers the inputs of
//! its new, longer segment). Because the ring may be perfectly symmetric,
//! the algorithm can deadlock with all labels equal — which every
//! processor detects by *hearing nothing for a whole phase*, at which
//! point the ring input is periodic and each active knows one period.
//!
//! Deviations from the paper's pseudocode (documented in DESIGN.md): our
//! phases last `n + 1` cycles instead of `n`, so that a lone candidate's
//! label can travel all the way around and eliminate it ("the processor
//! competes against itself"); the asymptotic bounds are unchanged and the
//! paper's message bound `n(3·log₁.₅ n + 1) + n` is still verified by the
//! tests.

use anonring_sim::sync::{Emit, Received, Step, SyncEngine, SyncProcess, SyncReport};
use anonring_sim::{Message, Port, RingConfig, SimError};
use anonring_words::Word;

use crate::view::RingView;

/// Messages of the Figure 2 algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdMsg {
    /// Phase 1: an active processor's current label.
    Label(Word),
    /// Phase 2: a partially collected segment (inputs appended rightward).
    Collect(Word),
    /// Final broadcast of the detected period.
    Broadcast(Word),
}

impl Message for IdMsg {
    fn bit_len(&self) -> usize {
        let (IdMsg::Label(w) | IdMsg::Collect(w) | IdMsg::Broadcast(w)) = self;
        2 + w.len()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Rounds,
    Broadcast,
}

/// The Figure 2 process (for **oriented** rings; see
/// [`crate::algorithms::orientation`] for making a ring oriented first).
#[derive(Debug, Clone)]
pub struct SyncInputDist {
    n: usize,
    input: u8,
    label: Word,
    active: bool,
    winner: bool,
    got_left: Option<Word>,
    got_right: Option<Word>,
    heard_phase_b: bool,
    /// Local cycle at which the current round began: the round counter
    /// `rc` of a step is its local cycle minus this.
    round_start: u64,
    round: u64,
    mode: Mode,
}

impl SyncInputDist {
    /// Creates the process for a ring of size `n ≥ 2` with a `{0,1}`
    /// input.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the input is not a bit.
    #[must_use]
    pub fn new(n: usize, input: u8) -> SyncInputDist {
        assert!(n >= 2, "ring size must be at least 2");
        assert!(input <= 1, "inputs are bits");
        SyncInputDist {
            n,
            input,
            label: Word::from_symbols(vec![input]),
            active: true,
            winner: false,
            got_left: None,
            got_right: None,
            heard_phase_b: false,
            round_start: 0,
            round: 0,
            mode: Mode::Rounds,
        }
    }

    /// Builds the final view from a period word starting at this
    /// processor.
    fn view_from_period(&self, period: &Word) -> RingView<u8> {
        assert_eq!(self.n % period.len(), 0, "period must divide the ring size");
        let entries = period
            .repeat(self.n / period.len())
            .into_symbols()
            .into_iter()
            .map(|b| (true, b))
            .collect();
        RingView::new(entries)
    }

    /// The round-counter values at which a step acts even without
    /// arrivals, paired with whether it does in the current state.
    fn milestones(&self) -> [(u64, bool); 4] {
        let n = self.n as u64;
        [
            (0, self.active),
            (n, self.active),
            (n + 1, self.active && self.winner),
            (2 * n + 1, true),
        ]
    }

    fn round_step(&mut self, local_cycle: u64, rx: Received<IdMsg>) -> Step<IdMsg, RingView<u8>> {
        let n = self.n as u64;
        let rc = local_cycle - self.round_start;
        let mut step: Step<IdMsg, RingView<u8>> = Step::idle();

        // Process arrivals.
        let ports = [
            (Port::Left, rx.from_left.clone()),
            (Port::Right, rx.from_right.clone()),
        ];
        for (port, msg) in ports {
            let Some(msg) = msg else { continue };
            match msg {
                IdMsg::Label(w) => {
                    if self.active {
                        match port {
                            Port::Left => self.got_left = Some(w),
                            Port::Right => self.got_right = Some(w),
                        }
                    } else {
                        // Passive processors relay labels onwards.
                        match port {
                            Port::Left => step.to_right = Some(IdMsg::Label(w)),
                            Port::Right => step.to_left = Some(IdMsg::Label(w)),
                        }
                    }
                }
                IdMsg::Collect(w) => {
                    debug_assert_eq!(port, Port::Left, "collections travel rightward");
                    self.heard_phase_b = true;
                    let extended = {
                        let mut e = w;
                        e.extend([self.input]);
                        e
                    };
                    if self.active && self.winner {
                        // Terminal: this is my new label.
                        self.label = extended;
                    } else {
                        // Losers become passive as the collection passes.
                        self.active = false;
                        step.to_right = Some(IdMsg::Collect(extended));
                    }
                }
                IdMsg::Broadcast(_) => unreachable!("broadcasts only in Broadcast mode"),
            }
        }

        // Scheduled emissions.
        if rc == 0 && self.active {
            step.to_left = Some(IdMsg::Label(self.label.clone()));
            step.to_right = Some(IdMsg::Label(self.label.clone()));
        }
        if rc == n && self.active {
            // End of phase 1: decide the round.
            let left = self.got_left.take().expect("label from the left");
            let right = self.got_right.take().expect("label from the right");
            let ge = self.label >= left && self.label >= right;
            let gt = self.label > left || self.label > right;
            self.winner = ge && gt;
        }
        if rc == n + 1 && self.active && self.winner {
            step.to_right = Some(IdMsg::Collect(Word::new()));
        }

        // End of round.
        if rc == 2 * n + 1 {
            if self.heard_phase_b {
                self.round_start = local_cycle + 1;
                self.round += 1;
                self.winner = false;
                self.heard_phase_b = false;
                self.got_left = None;
                self.got_right = None;
            } else {
                // Silence through the whole collection phase: the ring is
                // periodic and every surviving active holds one period.
                self.mode = Mode::Broadcast;
            }
        }
        // Within a cycle, every emission belongs to the same phase (labels
        // move in cycles 0..n of a round, collections in n+1..2n+1), so
        // one span per step is faithful.
        let phase = match (&step.to_left, &step.to_right) {
            (Some(IdMsg::Label(_)), _) | (_, Some(IdMsg::Label(_))) => Some("labels"),
            (Some(IdMsg::Collect(_)), _) | (_, Some(IdMsg::Collect(_))) => Some("collect"),
            _ => None,
        };
        match phase {
            Some(phase) => step.in_span(phase, self.round),
            None => step,
        }
    }

    fn broadcast_step(&mut self, rx: Received<IdMsg>) -> Step<IdMsg, RingView<u8>> {
        if self.active {
            // The label ends with my own input: rotating right makes it
            // the period starting at me.
            let period = self.label.rotated(self.label.len() - 1);
            return Step::send_right(IdMsg::Broadcast(self.label.clone()))
                .and_halt(self.view_from_period(&period))
                .in_span("broadcast", self.round);
        }
        if let Some(IdMsg::Broadcast(w)) = rx.from_left {
            let view = self.view_from_period(&w);
            return Step::send_right(IdMsg::Broadcast(w.rotated(1)))
                .and_halt(view)
                .in_span("broadcast", self.round);
        }
        debug_assert!(rx.is_empty(), "unexpected message in broadcast mode");
        Step::idle()
    }
}

impl SyncProcess for SyncInputDist {
    type Msg = IdMsg;
    type Output = RingView<u8>;

    fn step(&mut self, local_cycle: u64, rx: Received<IdMsg>) -> Step<IdMsg, RingView<u8>> {
        match self.mode {
            Mode::Rounds => self.round_step(local_cycle, rx),
            Mode::Broadcast => self.broadcast_step(rx),
        }
    }

    /// Quiet cycles are counted, not stepped: the next milestone of the
    /// round, or the next cycle for an active processor that is about to
    /// broadcast. Passive processors in broadcast mode wait for the
    /// broadcast.
    fn next_active(&self, local_cycle: u64) -> Option<u64> {
        match self.mode {
            Mode::Rounds => {
                let rc = local_cycle + 1 - self.round_start;
                self.milestones()
                    .into_iter()
                    .find(|&(at, acts)| acts && at >= rc)
                    .map(|(at, _)| self.round_start + at)
            }
            Mode::Broadcast => self.active.then_some(local_cycle + 1),
        }
    }
}

/// Runs Figure 2 on an **oriented** configuration of `{0,1}` inputs.
///
/// # Errors
///
/// Propagates engine errors (which indicate a bug, not a legal outcome).
///
/// # Panics
///
/// Panics if the configuration is not oriented — the algorithm presumes a
/// consistent sense of "right" (compose with the orientation algorithm
/// otherwise).
pub fn run(config: &RingConfig<u8>) -> Result<SyncReport<RingView<u8>>, SimError> {
    engine(config).run()
}

/// The Figure 2 engine over a configuration: one [`SyncInputDist`] per
/// processor, holding its input bit.
///
/// # Panics
///
/// Panics if the configuration is not oriented, as [`run`] does.
#[must_use]
pub fn engine(config: &RingConfig<u8>) -> SyncEngine<SyncInputDist> {
    assert!(
        config.topology().is_oriented(),
        "Figure 2 requires an oriented ring"
    );
    let n = config.n();
    SyncEngine::from_config(config, |_, &input| SyncInputDist::new(n, input))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use crate::view::ground_truth_view;

    fn check_outputs(config: &RingConfig<u8>) -> SyncReport<RingView<u8>> {
        let report = run(config).unwrap();
        for (i, view) in report.outputs().iter().enumerate() {
            assert_eq!(
                view,
                &ground_truth_view(config, i),
                "processor {i} of {:?}",
                config.inputs()
            );
        }
        report
    }

    #[test]
    fn exhaustive_small_rings() {
        for n in 2..=9usize {
            for mask in 0..(1u32 << n) {
                let inputs: Vec<u8> = (0..n).map(|i| (mask >> i & 1) as u8).collect();
                let config = RingConfig::oriented(inputs);
                check_outputs(&config);
            }
        }
    }

    #[test]
    fn symmetric_rings_deadlock_gracefully() {
        // Fully periodic inputs exercise the deadlock-detection path hard.
        for (pattern, reps) in [("01", 8), ("0110", 4), ("1", 16), ("011", 5)] {
            let inputs = Word::parse(pattern).repeat(reps).into_symbols();
            let config = RingConfig::oriented(inputs);
            check_outputs(&config);
        }
    }

    #[test]
    fn message_bound_holds() {
        // Paper: n(3 log_1.5 n + 1) messages for the rounds plus n for the
        // final broadcast.
        for n in [4usize, 9, 16, 27, 55, 81, 128] {
            for inputs in [
                vec![1u8; n],
                (0..n).map(|i| (i % 2) as u8).collect::<Vec<_>>(),
                (0..n).map(|i| u8::from(i == 0)).collect::<Vec<_>>(),
                {
                    // pseudo-random but deterministic
                    (0..n).map(|i| ((i * 2654435761) >> 7 & 1) as u8).collect()
                },
            ] {
                let config = RingConfig::oriented(inputs);
                let report = check_outputs(&config);
                let bound = bounds::sync_input_dist_messages(n as u64) + n as f64;
                assert!(
                    (report.messages as f64) <= bound,
                    "n={n}: {} messages > {bound}",
                    report.messages
                );
                let cbound = bounds::sync_input_dist_cycles(n as u64);
                assert!(
                    (report.cycles as f64) <= cbound,
                    "n={n}: {} cycles > {cbound}",
                    report.cycles
                );
            }
        }
    }

    #[test]
    fn all_equal_inputs_detect_period_one() {
        let config = RingConfig::oriented(vec![1u8; 12]);
        let report = check_outputs(&config);
        // One round of labels (2n messages as every label travels one hop,
        // being absorbed by the adjacent active), no collections, then a
        // broadcast of n messages.
        assert!(report.messages <= 3 * 12);
    }

    #[test]
    #[should_panic(expected = "oriented")]
    fn rejects_non_oriented_rings() {
        use anonring_sim::Orientation::{Clockwise, Counterclockwise};
        let config = RingConfig::new(
            vec![0u8, 1, 0],
            vec![Clockwise, Counterclockwise, Clockwise],
        )
        .unwrap();
        let _ = run(&config);
    }
}
