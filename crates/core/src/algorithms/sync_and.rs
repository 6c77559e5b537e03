//! §4.2: computing AND synchronously with `O(n)` messages.
//!
//! A processor with input 0 floods a token in both directions and halts
//! with output 0. A processor with input 1 waits `⌊n/2⌋` cycles: if a
//! token arrives it forwards it once and halts with 0; if the deadline
//! passes silently it halts with 1. Silence is information — the trick
//! that separates the synchronous `O(n)` from the asynchronous `Ω(n²)`
//! world (§5.2.1).

use anonring_sim::sync::{Emit, Received, Step, SyncEngine, SyncProcess, SyncReport};
use anonring_sim::{Port, RingConfig, SimError};

/// The §4.2 AND process. Message type is the zero-bit token `()`.
#[derive(Debug, Clone)]
pub struct SyncAnd {
    n: usize,
    input: u8,
}

impl SyncAnd {
    /// Creates the process for a ring of size `n ≥ 2` with a `{0,1}`
    /// input.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the input is not a bit.
    #[must_use]
    pub fn new(n: usize, input: u8) -> SyncAnd {
        assert!(n >= 2, "ring size must be at least 2");
        assert!(input <= 1, "AND takes {{0,1}} inputs");
        SyncAnd { n, input }
    }
}

impl SyncProcess for SyncAnd {
    type Msg = ();
    type Output = u8;

    fn step(&mut self, cycle: u64, rx: Received<()>) -> Step<(), u8> {
        if self.input == 0 {
            debug_assert_eq!(cycle, 0);
            return Step::send_both((), ()).in_span("flood", 0).and_halt(0);
        }
        // Input 1: forward-and-halt on any token.
        if !rx.is_empty() {
            let mut step: Step<(), u8> = Step::idle();
            if rx.on(Port::Left).is_some() {
                step.to_right = Some(());
            }
            if rx.on(Port::Right).is_some() {
                step.to_left = Some(());
            }
            return step.in_span("forward", cycle).and_halt(0);
        }
        if cycle == (self.n / 2) as u64 {
            return Step::halt(1);
        }
        Step::idle()
    }
}

/// Runs the AND algorithm on a configuration of `{0,1}` inputs.
///
/// # Errors
///
/// Propagates engine errors (which indicate a bug, not a legal outcome).
pub fn run(config: &RingConfig<u8>) -> Result<SyncReport<u8>, SimError> {
    engine(config).run()
}

/// The §4.2 engine over a configuration: one [`SyncAnd`] per processor,
/// holding its input bit.
#[must_use]
pub fn engine(config: &RingConfig<u8>) -> SyncEngine<SyncAnd> {
    let n = config.n();
    SyncEngine::from_config(config, |_, &input| SyncAnd::new(n, input))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonring_sim::Orientation;

    fn bits_of(mask: u32, n: usize) -> Vec<u8> {
        (0..n).map(|i| (mask >> i & 1) as u8).collect()
    }

    #[test]
    fn exhaustive_correctness_all_inputs_and_orientations() {
        for n in 2..=7usize {
            for imask in 0..(1u32 << n) {
                let inputs = bits_of(imask, n);
                let want = u8::from(inputs.iter().all(|&b| b == 1));
                for omask in [0u32, (1 << n) - 1, 0b0101_0101 & ((1 << n) - 1), 1] {
                    let orient = (0..n)
                        .map(|i| Orientation::from_bit((omask >> i & 1) as u8))
                        .collect();
                    let config = RingConfig::new(inputs.clone(), orient).unwrap();
                    let report = run(&config).unwrap();
                    assert!(
                        report.outputs().iter().all(|&o| o == want),
                        "n={n} inputs={inputs:?} omask={omask:b}: {:?}",
                        report.outputs()
                    );
                }
            }
        }
    }

    #[test]
    fn message_and_cycle_bounds() {
        for n in 2..=40usize {
            for inputs in [
                vec![1u8; n],
                vec![0u8; n],
                {
                    let mut v = vec![1u8; n];
                    v[0] = 0;
                    v
                },
                (0..n).map(|i| (i % 2) as u8).collect(),
            ] {
                let config = RingConfig::oriented(inputs.clone());
                let report = run(&config).unwrap();
                assert!(
                    report.messages <= 2 * n as u64,
                    "n={n} inputs={inputs:?}: {} messages",
                    report.messages
                );
                assert!(
                    report.cycles <= (n / 2 + 1) as u64,
                    "n={n}: {} cycles",
                    report.cycles
                );
                // Zero-bit tokens: the whole run costs no bits.
                assert_eq!(report.bits, 0);
            }
        }
    }

    #[test]
    fn all_ones_costs_zero_messages() {
        let config = RingConfig::oriented(vec![1u8; 9]);
        let report = run(&config).unwrap();
        assert_eq!(report.messages, 0);
        assert!(report.outputs().iter().all(|&o| o == 1));
        // Everyone halts together at cycle floor(n/2).
        assert!(report.halted_simultaneously());
    }
}
