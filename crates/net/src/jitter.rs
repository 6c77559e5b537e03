//! Deterministic delivery jitter for the real-transport runtime.
//!
//! Real threads already interleave nondeterministically; the jitter source
//! adds *reproducible* extra reordering on top, so a conformance failure
//! found under `--jitter-seed 42` can be re-run. Each worker owns one
//! generator, seeded from the run seed and the worker's position in the
//! substrate (adversary-side state, like the simulator's
//! `RandomScheduler` — never visible to the algorithm).

use std::time::Duration;

use anonring_sim::mix::SplitMix64;

/// SplitMix64 stream driving one worker's delivery choices.
#[derive(Debug, Clone)]
pub(crate) struct Jitter {
    rng: SplitMix64,
    max_delay_us: u64,
}

impl Jitter {
    /// A generator for stream `lane` of run seed `seed`.
    pub(crate) fn new(seed: u64, lane: u64, max_delay_us: u64) -> Jitter {
        Jitter {
            rng: SplitMix64::new(
                seed.wrapping_add(lane.wrapping_mul(SplitMix64::GAMMA))
                    .wrapping_add(SplitMix64::GAMMA),
            ),
            max_delay_us,
        }
    }

    /// Chooses which local port to consume from next among the nonempty
    /// staged queues. `ready` must be non-empty; a single candidate is
    /// returned without consuming the stream, so forced picks don't
    /// perturb later choices (the same property the old two-port picker
    /// had).
    pub(crate) fn pick(&mut self, ready: &[usize]) -> usize {
        match ready {
            [only] => *only,
            _ => {
                let k = usize::try_from(self.rng.next_u64() % ready.len() as u64)
                    .expect("port counts fit in usize");
                ready[k]
            }
        }
    }

    /// Sleeps for a random duration up to the configured maximum, modelling
    /// link delay. A zero maximum (the default) never sleeps.
    pub(crate) fn delay(&mut self) {
        if self.max_delay_us == 0 {
            return;
        }
        let us = self.rng.next_u64() % (self.max_delay_us + 1);
        if us > 0 {
            std::thread::sleep(Duration::from_micros(us));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Jitter;

    #[test]
    fn forced_picks_respect_the_only_nonempty_queue() {
        let mut j = Jitter::new(1, 0, 0);
        assert_eq!(j.pick(&[0]), 0);
        assert_eq!(j.pick(&[1]), 1);
        assert_eq!(j.pick(&[5]), 5);
    }

    #[test]
    fn streams_are_deterministic_per_seed_and_lane() {
        let picks = |seed, lane| {
            let mut j = Jitter::new(seed, lane, 0);
            (0..64).map(|_| j.pick(&[0, 1])).collect::<Vec<_>>()
        };
        assert_eq!(picks(7, 0), picks(7, 0));
        assert_ne!(picks(7, 0), picks(8, 0), "seed changes the stream");
        assert_ne!(picks(7, 0), picks(7, 1), "lane changes the stream");
    }

    #[test]
    fn many_port_picks_stay_in_range() {
        let mut j = Jitter::new(11, 3, 0);
        let ready = [0, 2, 5, 6];
        for _ in 0..128 {
            assert!(ready.contains(&j.pick(&ready)));
        }
    }

    #[test]
    fn zero_max_delay_returns_immediately() {
        let mut j = Jitter::new(3, 2, 0);
        j.delay(); // must not sleep; the test would time out otherwise
    }
}
