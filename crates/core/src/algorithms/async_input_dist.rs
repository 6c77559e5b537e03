//! §4.1: asynchronous input distribution in `n(n − 1)` messages.
//!
//! Every processor sends its input in both directions, tagged with the
//! originating port; every processor forwards a fixed number of the
//! messages arriving on each port. FIFO links guarantee that the `j`-th
//! message received on a port originated `j` hops away in that direction,
//! so each processor reconstructs its whole-ring view — the hardest
//! problem solvable on an anonymous ring — without any message carrying a
//! hop count.
//!
//! The forwarding budgets follow the paper: for odd `n` every message is
//! forwarded `⌊n/2⌋ − 1` times; for even `n` messages initially sent
//! *left* are forwarded `n/2 − 1` times and messages initially sent
//! *right* only `n/2 − 2` times, so the antipodal processor is heard
//! exactly once and the total stays `n(n − 1)`.

use anonring_sim::r#async::{Actions, AsyncEngine, AsyncProcess, Emit, Scheduler};
use anonring_sim::{Message, Port, RingConfig, SimError};

use crate::view::RingView;

/// The single message type: the originator's input plus one bit naming the
/// port it was originally sent on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistMsg<V> {
    /// Port on which the *originator* sent this message.
    pub origin_port: Port,
    /// The originator's input value.
    pub input: V,
}

impl<V: Message> Message for DistMsg<V> {
    fn bit_len(&self) -> usize {
        1 + self.input.bit_len()
    }
}

/// The §4.1 input distribution process.
///
/// Halts with the processor's [`RingView`] after receiving messages from
/// every other processor.
#[derive(Debug, Clone)]
pub struct AsyncInputDist<V> {
    n: usize,
    input: V,
    received_left: usize,
    received_right: usize,
    entries: Vec<Option<(bool, V)>>,
}

impl<V: Message + PartialEq> AsyncInputDist<V> {
    /// Creates the process for a ring of size `n ≥ 2`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new(n: usize, input: V) -> AsyncInputDist<V> {
        assert!(n >= 2, "ring size must be at least 2");
        AsyncInputDist {
            n,
            input,
            received_left: 0,
            received_right: 0,
            entries: vec![None; n],
        }
    }

    /// Total messages this processor expects to receive before halting.
    fn expected(&self) -> usize {
        if self.n == 2 {
            2
        } else {
            self.n - 1
        }
    }

    /// Whether a message received as the `j`-th on some port should be
    /// forwarded (it would then reach distance `j + 1`).
    fn should_forward(&self, j: usize, origin_port: Port) -> bool {
        let n = self.n;
        if n % 2 == 1 {
            j < n / 2
        } else {
            match origin_port {
                Port::Left => j < n / 2,
                Port::Right => j + 2 <= n / 2,
            }
        }
    }

    fn record(&mut self, from: Port, j: usize, msg: &DistMsg<V>) {
        // Same orientation iff the message's travel direction reads
        // opposite port names at originator and receiver.
        let same_orientation = msg.origin_port != from;
        // Arrival on my left port: originator is j hops in my left
        // direction = n - j hops rightward.
        let offset = match from {
            Port::Left => self.n - j,
            Port::Right => j,
        };
        let entry = (same_orientation, msg.input.clone());
        match &self.entries[offset] {
            None => self.entries[offset] = Some(entry),
            // Only the n = 2 antipode is heard twice; reports must agree.
            Some(prev) => debug_assert_eq!(prev, &entry, "conflicting reports"),
        }
    }

    fn finish(&mut self) -> RingView<V> {
        self.entries[0] = Some((true, self.input.clone()));
        RingView::new(
            self.entries
                .iter()
                .map(|e| e.clone().expect("all positions heard from"))
                .collect(),
        )
    }
}

impl<V: Message + PartialEq> AsyncProcess for AsyncInputDist<V> {
    type Msg = DistMsg<V>;
    type Output = RingView<V>;

    fn on_start(&mut self) -> Actions<Self::Msg, Self::Output> {
        Actions::send(
            Port::Left,
            DistMsg {
                origin_port: Port::Left,
                input: self.input.clone(),
            },
        )
        .and_send(
            Port::Right,
            DistMsg {
                origin_port: Port::Right,
                input: self.input.clone(),
            },
        )
        .in_span("scatter", 0)
    }

    fn on_message(&mut self, from: Port, msg: DistMsg<V>) -> Actions<Self::Msg, Self::Output> {
        let j = match from {
            Port::Left => {
                self.received_left += 1;
                self.received_left
            }
            Port::Right => {
                self.received_right += 1;
                self.received_right
            }
        };
        self.record(from, j, &msg);
        let mut actions = if self.should_forward(j, msg.origin_port) {
            // Span round = hops already travelled; the forward reaches
            // distance j + 1, giving a per-distance traffic profile.
            Actions::send(from.opposite(), msg).in_span("forward", j as u64)
        } else {
            Actions::idle()
        };
        if self.received_left + self.received_right == self.expected() {
            actions = actions.and_halt(self.finish());
        }
        actions
    }
}

/// The §4.1 engine over a configuration: one [`AsyncInputDist`] per
/// processor, holding its input.
#[must_use]
pub fn engine<V: Message + PartialEq>(config: &RingConfig<V>) -> AsyncEngine<AsyncInputDist<V>> {
    let n = config.n();
    AsyncEngine::from_config(config, |_, input| AsyncInputDist::new(n, input.clone()))
}

/// Runs §4.1 input distribution on a configuration under a scheduler,
/// returning the per-processor views and the run report.
///
/// # Errors
///
/// Propagates engine errors (which indicate a bug, not a legal outcome).
pub fn run<V: Message + PartialEq>(
    config: &RingConfig<V>,
    scheduler: &mut dyn Scheduler,
) -> Result<anonring_sim::r#async::AsyncReport<RingView<V>>, SimError> {
    engine(config).run(scheduler)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ground_truth_view;
    use anonring_sim::r#async::{FifoScheduler, RandomScheduler, SynchronizingScheduler};
    use anonring_sim::Orientation;

    fn all_orientation_vectors(n: usize) -> Vec<Vec<Orientation>> {
        (0..(1u32 << n))
            .map(|mask| {
                (0..n)
                    .map(|i| Orientation::from_bit((mask >> i & 1) as u8))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn reconstructs_ground_truth_exhaustively() {
        // All orientations, a fixed distinguishable input, n = 2..=6.
        for n in 2..=6usize {
            let inputs: Vec<u8> = (0..n as u8).collect();
            for orient in all_orientation_vectors(n) {
                let config = RingConfig::new(inputs.clone(), orient).unwrap();
                let report = run(&config, &mut SynchronizingScheduler).unwrap();
                for (i, view) in report.outputs().iter().enumerate() {
                    assert_eq!(view, &ground_truth_view(&config, i), "n={n} processor {i}");
                }
            }
        }
    }

    #[test]
    fn message_count_is_exactly_n_times_n_minus_1() {
        for n in 3..=12usize {
            let config = RingConfig::oriented(vec![1u8; n]);
            let report = run(&config, &mut SynchronizingScheduler).unwrap();
            assert_eq!(report.messages, (n * (n - 1)) as u64, "n={n}");
        }
    }

    #[test]
    fn schedule_independent() {
        let inputs: Vec<u8> = vec![3, 1, 4, 1, 5, 9, 2];
        let config = RingConfig::new(
            inputs,
            vec![
                Orientation::Clockwise,
                Orientation::Counterclockwise,
                Orientation::Clockwise,
                Orientation::Counterclockwise,
                Orientation::Counterclockwise,
                Orientation::Clockwise,
                Orientation::Clockwise,
            ],
        )
        .unwrap();
        let want = run(&config, &mut SynchronizingScheduler)
            .unwrap()
            .into_outputs();
        assert_eq!(
            run(&config, &mut FifoScheduler).unwrap().into_outputs(),
            want
        );
        for seed in 0..10 {
            assert_eq!(
                run(&config, &mut RandomScheduler::new(seed))
                    .unwrap()
                    .into_outputs(),
                want,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn bit_cost_is_constant_per_message_for_bool_inputs() {
        let config = RingConfig::oriented(vec![true, false, true, true, false]);
        let report = run(&config, &mut FifoScheduler).unwrap();
        // 2 bits per message (port tag + input bit).
        assert_eq!(report.bits, report.messages * 2);
    }

    #[test]
    fn two_ring_works() {
        let config = RingConfig::oriented(vec![7u8, 9u8]);
        let report = run(&config, &mut FifoScheduler).unwrap();
        assert_eq!(report.outputs()[0], ground_truth_view(&config, 0));
        assert_eq!(report.outputs()[1], ground_truth_view(&config, 1));
        assert_eq!(report.messages, 4);
    }
}
