//! Wake-up schedules for start synchronization (paper §4.2.3, §6.3.3).
//!
//! Processors wake either spontaneously or on message arrival. Since a
//! freshly woken processor can immediately send a message that wakes its
//! neighbour, the adversary may only schedule spontaneous wake-ups that
//! differ by at most one cycle between adjacent processors (paper §6.3.3).

use crate::error::SimError;
use crate::mix::SplitMix64;

/// A legal assignment of spontaneous wake-up cycles to the `n` ring
/// processors: adjacent processors (including the wrap-around pair) wake
/// at most one cycle apart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WakeSchedule(Vec<u64>);

impl WakeSchedule {
    /// All processors wake at cycle 0 — the simultaneous-start model.
    #[must_use]
    pub fn simultaneous(n: usize) -> WakeSchedule {
        WakeSchedule(vec![0; n])
    }

    /// Builds a schedule from explicit wake times.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RingTooSmall`] if `times.len() < 2`, or
    /// [`SimError::LengthMismatch`] (with `expected == actual`) if some
    /// adjacent pair differs by more than one cycle — an illegal adversary
    /// schedule.
    pub fn from_times(times: Vec<u64>) -> Result<WakeSchedule, SimError> {
        let n = times.len();
        if n < 2 {
            return Err(SimError::RingTooSmall { n });
        }
        for i in 0..n {
            let a = times[i];
            let b = times[(i + 1) % n];
            if a.abs_diff(b) > 1 {
                return Err(SimError::LengthMismatch {
                    expected: i,
                    actual: (i + 1) % n,
                });
            }
        }
        Ok(WakeSchedule(times))
    }

    /// The paper's §6.3.3 encoding: a `{0,1}` word `ε₁ … εₙ` where
    /// processor `i` wakes one cycle *later* than processor `i − 1` when
    /// `εᵢ = 1` and one cycle *earlier* when `εᵢ = 0` (a dummy processor 0
    /// anchors cycle 0). Times are shifted so the earliest is 0.
    ///
    /// # Errors
    ///
    /// Returns an error if the word does not wrap legally (the first and
    /// last times differ by more than one) — per the paper this requires
    /// the ±1 walk to return near its origin.
    ///
    /// # Panics
    ///
    /// Panics on symbols other than 0 and 1.
    pub fn from_word(word: &[u8]) -> Result<WakeSchedule, SimError> {
        let mut t = 0i64;
        let mut raw = Vec::with_capacity(word.len());
        for &e in word {
            match e {
                1 => t += 1,
                0 => t -= 1,
                other => panic!("invalid word symbol {other}"),
            }
            raw.push(t);
        }
        let min = raw.iter().copied().min().unwrap_or(0);
        WakeSchedule::from_times(raw.into_iter().map(|t| (t - min) as u64).collect())
    }

    /// A pseudo-random legal schedule (deterministic per seed): a shuffled
    /// balanced ±1 walk.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn random(n: usize, seed: u64) -> WakeSchedule {
        assert!(n >= 2, "ring needs at least 2 processors");
        // Balanced word: ⌊n/2⌋ ones, rest zeros, then one symbol flipped
        // for odd n so the walk ends at ±1 (still a legal wrap).
        let ones = n / 2;
        let mut word: Vec<u8> = (0..n).map(|i| u8::from(i < ones)).collect();
        let mut rng = SplitMix64::new(seed.wrapping_add(SplitMix64::GAMMA));
        // Fisher-Yates shuffle.
        for i in (1..n).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            word.swap(i, j);
        }
        if n % 2 == 1 {
            // An odd walk ends at -1; wrapping legally requires the first
            // step to also go down.
            if word[0] == 1 {
                let z = word.iter().position(|&b| b == 0).expect("has zeros");
                word.swap(0, z);
            }
        }
        WakeSchedule::from_word(&word).expect("balanced walks wrap legally")
    }

    /// Ring size.
    #[must_use]
    pub fn n(&self) -> usize {
        self.0.len()
    }

    /// The wake-up cycles.
    #[must_use]
    pub fn as_slice(&self) -> &[u64] {
        &self.0
    }

    /// Consumes the schedule, returning the wake-up cycles (ready for
    /// [`crate::sync::SyncEngine::set_wakeups`]).
    #[must_use]
    pub fn into_vec(self) -> Vec<u64> {
        self.0
    }

    /// Largest difference between any two wake-up times.
    #[must_use]
    pub fn max_skew(&self) -> u64 {
        let max = self.0.iter().copied().max().unwrap_or(0);
        let min = self.0.iter().copied().min().unwrap_or(0);
        max - min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simultaneous_has_zero_skew() {
        let w = WakeSchedule::simultaneous(5);
        assert_eq!(w.max_skew(), 0);
        assert_eq!(w.as_slice(), &[0; 5]);
    }

    #[test]
    fn word_walk_matches_paper() {
        // Word 1 1 0 0: times 1, 2, 1, 0 (already min 0).
        let w = WakeSchedule::from_word(&[1, 1, 0, 0]).unwrap();
        assert_eq!(w.as_slice(), &[1, 2, 1, 0]);
        assert_eq!(w.max_skew(), 2);
    }

    #[test]
    fn illegal_wrap_is_rejected() {
        // 1 1 1 1 walks to 4; wrap diff |t4 - t1| = 3 > 1.
        assert!(WakeSchedule::from_word(&[1, 1, 1, 1]).is_err());
        assert!(WakeSchedule::from_times(vec![0, 2, 0]).is_err());
    }

    #[test]
    fn random_schedules_are_legal_and_deterministic() {
        for n in [2usize, 3, 7, 20] {
            let a = WakeSchedule::random(n, 99);
            let b = WakeSchedule::random(n, 99);
            assert_eq!(a, b);
            assert!(WakeSchedule::from_times(a.as_slice().to_vec()).is_ok());
        }
    }
}
