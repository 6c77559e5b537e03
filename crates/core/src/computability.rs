//! Machine-checked demonstrations of the §3 impossibility results.
//!
//! Impossibility theorems cannot be "run", but their proofs rest on one
//! mechanism — indistinguishability (Lemma 3.1): processors with equal
//! `k`-neighborhoods are in identical states after `k` cycles, hence
//! produce equal outputs if they halt by then. This module builds the
//! witness configurations used by each proof and provides an engine-level
//! checker that verifies the indistinguishability claim against *actual
//! runs* of any algorithm.

use std::cell::Cell;
use std::fmt::Debug;

use anonring_sim::runtime::{NullObserver, TraceEvent};
use anonring_sim::sync::{SyncEngine, SyncProcess};
use anonring_sim::{neighborhood, Orientation, RingConfig};

/// Runs an algorithm on two configurations for `k` cycles and checks that
/// processors `p1` (in `c1`) and `p2` (in `c2`) pass through identical
/// state sequences — the executable content of Lemma 3.1 (and, counting
/// only active cycles, Lemma 6.1).
///
/// States are compared via their `Debug` rendering, so the process type
/// must expose its full state there (all the algorithms in this crate
/// derive `Debug`).
pub fn states_agree<V: Clone, P: SyncProcess + Debug>(
    c1: &RingConfig<V>,
    p1: usize,
    c2: &RingConfig<V>,
    p2: usize,
    k: u64,
    mut make: impl FnMut(usize, &V) -> P,
) -> bool {
    let trace = |config: &RingConfig<V>, p: usize, make: &mut dyn FnMut(usize, &V) -> P| {
        let mut engine = SyncEngine::from_config(config, |i, v| make(i, v));
        engine.set_max_cycles(k);
        let mut states = Vec::new();
        // A MaxCyclesExceeded error is expected: we only want k cycles.
        let _ = engine.run_observed(
            |_, procs| states.push(format!("{:?}", procs[p])),
            &mut NullObserver,
        );
        states
    };
    let t1 = trace(c1, p1, &mut make);
    let t2 = trace(c2, p2, &mut make);
    let len = t1.len().min(t2.len()).min(k as usize);
    t1[..len] == t2[..len]
}

/// Lemma 6.1's sharper form: compare two processors' state sequences
/// indexed by **active cycles** — cycles in which at least one of the two
/// runs sent a message. Processors with equal `k`-neighborhoods must
/// agree through the first `k` active cycles even if many more silent
/// cycles have elapsed; this is the mechanism behind all synchronous
/// lower bounds (silence only advances the computation jointly).
pub fn states_agree_active_cycles<V: Clone, P: SyncProcess + Debug>(
    c1: &RingConfig<V>,
    p1: usize,
    c2: &RingConfig<V>,
    p2: usize,
    k: usize,
    mut make: impl FnMut(usize, &V) -> P,
) -> bool {
    // Each cycle's state of processor `p`, and whether the run sent
    // anything that cycle, counted off its event stream.
    let trace = |config: &RingConfig<V>, p: usize, make: &mut dyn FnMut(usize, &V) -> P| {
        let mut engine = SyncEngine::from_config(config, |i, v| make(i, v));
        let sent = Cell::new(false);
        let mut cycles = Vec::new();
        let result = engine.run_observed(
            |_, procs| cycles.push((format!("{:?}", procs[p]), sent.replace(false))),
            &mut |event: &TraceEvent| {
                if let TraceEvent::Send(_) = event {
                    sent.set(true);
                }
            },
        );
        // A run that ends in an error counts no active cycles.
        if result.is_err() {
            for (_, sent) in &mut cycles {
                *sent = false;
            }
        }
        cycles
    };
    let t1 = trace(c1, p1, &mut make);
    let t2 = trace(c2, p2, &mut make);
    // A cycle is active if either run sent a message during it.
    let mut active_seen = 0usize;
    for ((state1, sent1), (state2, sent2)) in t1.iter().zip(&t2) {
        if state1 != state2 {
            return false;
        }
        if *sent1 || *sent2 {
            active_seen += 1;
            if active_seen >= k {
                return true;
            }
        }
    }
    true
}

/// Theorem 3.2's witness: given inputs `i0`, `i1` (on which a putative
/// size-oblivious algorithm answers differently within `t` cycles), the
/// configuration `i0^(2t+1) · i1^(2t+1)` contains a processor with the
/// same `t`-neighborhood as one in the pure-`i0` ring and another matching
/// the pure-`i1` ring — so the algorithm must answer both ways on one
/// ring.
///
/// Returns the combined configuration and the two witness processors
/// (indices into it), with the guarantee — asserted here — that their
/// `t`-neighborhoods match processors of the two pure rings.
///
/// # Panics
///
/// Panics if the inputs are empty (no ring to build).
#[must_use]
pub fn theorem_3_2_witness(i0: &[u8], i1: &[u8], t: usize) -> (RingConfig<u8>, usize, usize) {
    assert!(!i0.is_empty() && !i1.is_empty());
    let reps = 2 * t + 1;
    let mut inputs = Vec::new();
    for _ in 0..reps {
        inputs.extend_from_slice(i0);
    }
    let second_start = inputs.len();
    for _ in 0..reps {
        inputs.extend_from_slice(i1);
    }
    let combined = RingConfig::oriented(inputs);
    // Witnesses in the middle of each block are t-isolated from the seam.
    let w0 = i0.len() * t + i0.len() / 2;
    let w1 = second_start + i1.len() * t + i1.len() / 2;

    let pure0 = RingConfig::oriented(i0.repeat(reps.max(2)));
    let pure1 = RingConfig::oriented(i1.repeat(reps.max(2)));
    let m0 = i0.len() * t + i0.len() / 2;
    let m1 = i1.len() * t + i1.len() / 2;
    assert_eq!(
        neighborhood(&combined, w0, t),
        neighborhood(&pure0, m0, t),
        "w0 must be indistinguishable from the pure i0 ring"
    );
    assert_eq!(
        neighborhood(&combined, w1, t),
        neighborhood(&pure1, m1, t),
        "w1 must be indistinguishable from the pure i1 ring"
    );
    (combined, w0, w1)
}

/// Theorem 3.3's witnesses: all-ones rings of two different sizes, on
/// which SUM must answer differently, yet every `k`-neighborhood is
/// identical across the two rings for every `k` — so no single algorithm
/// handles both sizes.
#[must_use]
pub fn theorem_3_3_witness(n1: usize, n2: usize) -> (RingConfig<u8>, RingConfig<u8>) {
    (
        RingConfig::oriented(vec![1u8; n1]),
        RingConfig::oriented(vec![1u8; n2]),
    )
}

/// Theorem 3.5's witness (Figure 1): a `2n`-ring made of two oriented
/// half-rings. Processors `i` and `2n − 1 − i` have equal
/// `k`-neighborhoods for every `k`, but opposite orientations — so they
/// cannot consistently decide who switches.
#[must_use]
pub fn theorem_3_5_witness(half: usize) -> RingConfig<()> {
    let n = 2 * half;
    let orientations = (0..n)
        .map(|i| {
            if i < half {
                Orientation::Clockwise
            } else {
                Orientation::Counterclockwise
            }
        })
        .collect();
    RingConfig::new(vec![(); n], orientations).expect("valid ring")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::sync_input_dist::SyncInputDist;
    use anonring_sim::neighborhood;

    #[test]
    fn lemma_3_1_holds_for_a_real_algorithm() {
        // Processors with equal k-neighborhoods in two same-size rings run
        // through identical states for k cycles of Figure 2.
        let c1 = RingConfig::oriented_bits("011011011").unwrap();
        let c2 = RingConfig::oriented_bits("011011000").unwrap();
        // Processor 2 sees the same 2-neighborhood (01101) in both rings.
        assert_eq!(neighborhood(&c1, 2, 2), neighborhood(&c2, 2, 2));
        assert!(states_agree(&c1, 2, &c2, 2, 2, |_, &b| SyncInputDist::new(
            9, b
        )));
        // ...and the information eventually matters: the complete runs end
        // with different views at processor 2 (Lemma 3.1 only bounds how
        // *soon* divergence can happen, so we check outputs, not states).
        assert_ne!(neighborhood(&c1, 2, 4), neighborhood(&c2, 2, 4));
        let out = |c: &RingConfig<u8>| {
            crate::algorithms::sync_input_dist::run(c)
                .unwrap()
                .into_outputs()
        };
        assert_ne!(out(&c1)[2], out(&c2)[2]);
    }

    #[test]
    fn lemma_6_1_active_cycle_indistinguishability() {
        // Figure 2 runs very differently on the all-ones ring (one round,
        // deadlock, broadcast) and on 1^8·0; processor 3 has the same
        // 3-neighborhood in both, so it must agree through the first 3
        // jointly-active cycles...
        let c1 = RingConfig::oriented_bits("111111111").unwrap();
        let c2 = RingConfig::oriented_bits("111111110").unwrap();
        assert_eq!(neighborhood(&c1, 3, 3), neighborhood(&c2, 3, 3));
        assert!(states_agree_active_cycles(&c1, 3, &c2, 3, 3, |_, &b| {
            SyncInputDist::new(9, b)
        }));
        // ...while processor 7 (adjacent to the differing input) diverges
        // within 2 active cycles: its 1-neighborhoods differ.
        assert_ne!(neighborhood(&c1, 7, 1), neighborhood(&c2, 7, 1));
        assert!(!states_agree_active_cycles(&c1, 7, &c2, 7, 2, |_, &b| {
            SyncInputDist::new(9, b)
        }));
    }

    #[test]
    fn theorem_3_2_witness_has_indistinguishable_processors() {
        // The constructor asserts the neighborhood equalities internally.
        let (combined, w0, w1) = theorem_3_2_witness(&[0], &[1], 3);
        assert_eq!(combined.n(), 14);
        assert_ne!(combined.input(w0), combined.input(w1));
    }

    #[test]
    fn theorem_3_3_rings_are_indistinguishable_at_every_radius() {
        let (a, b) = theorem_3_3_witness(5, 8);
        for k in 0..10 {
            assert_eq!(neighborhood(&a, 0, k), neighborhood(&b, 0, k), "k={k}");
        }
    }

    #[test]
    fn theorem_3_5_mirror_pairs_are_indistinguishable() {
        for half in [2usize, 3, 5] {
            let config = theorem_3_5_witness(half);
            let n = 2 * half;
            for i in 0..n {
                let j = n - 1 - i;
                for k in 0..n {
                    assert_eq!(
                        neighborhood(&config, i, k),
                        neighborhood(&config, j, k),
                        "half={half} i={i} k={k}"
                    );
                }
                // ...yet their orientations differ (for i != j):
                if i != j {
                    assert_ne!(
                        config.topology().orientation(i),
                        config.topology().orientation(j)
                    );
                }
            }
        }
    }
}
