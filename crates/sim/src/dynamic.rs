//! Dynamic topologies: a fixed port space whose *active* edge set is
//! swapped between rounds.
//!
//! Following the dynamic-network model (1-interval connectivity), the
//! wiring itself — which port pairs are joined — never changes; what
//! changes per round is which of those wires carry messages. A
//! [`DynamicTopology`] pairs a static [`GraphTopology`] footprint with a
//! per-round edge schedule, keyed by the footprint's edge ids so activity
//! is symmetric by construction: a wire is active at both ends or
//! neither.
//!
//! [`DynamicTopology::adversarial`] is the deterministic seeded adversary
//! used by the dynamic-broadcast family: each round it activates a random
//! Hamiltonian path (so every round's graph is connected — the
//! 1-interval-connectivity guarantee dissemination needs) plus a few
//! extra random edges for density.

use crate::error::SimError;
use crate::graph::GraphTopology;
use crate::mix::SplitMix64;
use crate::port::PortId;
use crate::topology::Topology;

/// A per-round schedule over a static footprint.
///
/// Rounds beyond the schedule clamp to its last entry, so a finite
/// schedule describes an eventually-stable network.
///
/// ```
/// use anonring_sim::{DynamicTopology, GraphTopology, PortId, Topology};
///
/// let base = GraphTopology::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
/// // Round 0 activates only edge {0,1}; round 1 only edge {1,2}.
/// let dyn_topo = DynamicTopology::new(
///     base,
///     vec![vec![true, false, false], vec![false, true, false]],
/// )
/// .unwrap();
/// assert!(dyn_topo.is_dynamic());
/// assert!(dyn_topo.is_active(0, 0, PortId::new(0)));
/// assert!(!dyn_topo.is_active(1, 0, PortId::new(0)));
/// // Rounds past the schedule repeat the final edge set.
/// assert!(dyn_topo.is_active(9, 1, PortId::new(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicTopology {
    base: GraphTopology,
    /// `schedule[round][edge_id]`: whether the footprint edge carries
    /// messages in `round`.
    schedule: Vec<Vec<bool>>,
}

impl DynamicTopology {
    /// Pairs a footprint with a per-round, per-edge activity schedule.
    ///
    /// # Errors
    ///
    /// * [`SimError::EmptySchedule`] when no rounds are given;
    /// * [`SimError::LengthMismatch`] when a round's mask length differs
    ///   from the footprint's edge count.
    pub fn new(base: GraphTopology, schedule: Vec<Vec<bool>>) -> Result<DynamicTopology, SimError> {
        if schedule.is_empty() {
            return Err(SimError::EmptySchedule);
        }
        for round in &schedule {
            if round.len() != base.edge_count() {
                return Err(SimError::LengthMismatch {
                    expected: base.edge_count(),
                    actual: round.len(),
                });
            }
        }
        Ok(DynamicTopology { base, schedule })
    }

    /// The deterministic connectivity adversary over the complete
    /// footprint `K_n`: for each of `rounds` rounds, a random Hamiltonian
    /// path (keeping the round's graph connected) plus `⌊n/4⌋` extra
    /// random edges. Fully determined by `(n, rounds, seed)`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RingTooSmall`] when `n < 2` or
    /// [`SimError::EmptySchedule`] when `rounds == 0`.
    pub fn adversarial(n: usize, rounds: usize, seed: u64) -> Result<DynamicTopology, SimError> {
        let base = GraphTopology::complete(n)?;
        if rounds == 0 {
            return Err(SimError::EmptySchedule);
        }
        let mut rng = SplitMix64::new(seed);
        let mut schedule = Vec::with_capacity(rounds);
        let mut perm: Vec<usize> = (0..n).collect();
        for _ in 0..rounds {
            let mut active = vec![false; base.edge_count()];
            // Fisher–Yates: a fresh random path through all processors.
            for i in (1..n).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                perm.swap(i, j);
            }
            for pair in perm.windows(2) {
                active[complete_edge_id(n, pair[0], pair[1])] = true;
            }
            for _ in 0..n / 4 {
                let a = (rng.next_u64() % n as u64) as usize;
                let b = (rng.next_u64() % n as u64) as usize;
                if a != b {
                    active[complete_edge_id(n, a, b)] = true;
                }
            }
            schedule.push(active);
        }
        DynamicTopology::new(base, schedule)
    }

    /// The static footprint.
    #[must_use]
    pub fn footprint(&self) -> &GraphTopology {
        &self.base
    }

    /// Number of scheduled rounds (activity clamps to the last one
    /// afterwards).
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.schedule.len()
    }

    /// Number of active edges in `round`.
    #[must_use]
    pub fn active_edges(&self, round: u64) -> usize {
        self.round_mask(round).iter().filter(|&&a| a).count()
    }

    /// Whether every scheduled round's active graph is connected over all
    /// `n` processors — the 1-interval-connectivity property.
    #[must_use]
    pub fn always_connected(&self) -> bool {
        (0..self.schedule.len()).all(|r| self.round_is_connected(r as u64))
    }

    /// Whether `round`'s active graph is connected.
    #[must_use]
    pub fn round_is_connected(&self, round: u64) -> bool {
        let n = self.base.n();
        let mask = self.round_mask(round);
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(i) = stack.pop() {
            for p in 0..self.base.ports(i) {
                let port = PortId::new(p as u16);
                if !mask[self.base.edge_id(i, port)] {
                    continue;
                }
                let (j, _) = self.base.neighbor_port(i, port);
                if !seen[j] {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }

    /// Processor `i`'s *local* view of the schedule: for each round, the
    /// set of its ports that are active. This is per-edge knowledge of a
    /// processor's own links only — handing it to a process reveals
    /// neither identities nor global shape, so it is the legitimate way
    /// to compile a dynamic algorithm onto an asynchronous substrate.
    #[must_use]
    pub fn local_schedule(&self, i: usize) -> Vec<Vec<PortId>> {
        (0..self.schedule.len() as u64)
            .map(|round| {
                let mask = self.round_mask(round);
                (0..self.base.ports(i))
                    .map(|p| PortId::new(p as u16))
                    .filter(|&p| mask[self.base.edge_id(i, p)])
                    .collect()
            })
            .collect()
    }

    fn round_mask(&self, round: u64) -> &[bool] {
        let last = self.schedule.len() - 1;
        let idx = usize::try_from(round).map_or(last, |r| r.min(last));
        &self.schedule[idx]
    }
}

impl Topology for DynamicTopology {
    fn n(&self) -> usize {
        self.base.n()
    }

    fn ports(&self, i: usize) -> usize {
        self.base.ports(i)
    }

    fn neighbor_port(&self, i: usize, port: PortId) -> (usize, PortId) {
        self.base.neighbor_port(i, port)
    }

    fn is_active(&self, round: u64, i: usize, port: PortId) -> bool {
        self.round_mask(round)[self.base.edge_id(i, port)]
    }

    fn is_dynamic(&self) -> bool {
        true
    }
}

/// Edge id of `{a, b}` in [`GraphTopology::complete`]'s edge ordering
/// (`(i, j)` for `i < j`, lexicographic).
fn complete_edge_id(n: usize, a: usize, b: usize) -> usize {
    let (i, j) = if a < b { (a, b) } else { (b, a) };
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_edge_ids_enumerate_pairs() {
        let n = 5;
        let g = GraphTopology::complete(n).unwrap();
        let mut k = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(complete_edge_id(n, i, j), k);
                assert_eq!(complete_edge_id(n, j, i), k);
                k += 1;
            }
        }
        assert_eq!(k, g.edge_count());
    }

    #[test]
    fn schedules_are_validated() {
        let base = GraphTopology::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(matches!(
            DynamicTopology::new(base.clone(), vec![]),
            Err(SimError::EmptySchedule)
        ));
        assert!(matches!(
            DynamicTopology::new(base, vec![vec![true]]),
            Err(SimError::LengthMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn activity_is_symmetric_across_each_wire() {
        let t = DynamicTopology::adversarial(8, 7, 42).unwrap();
        for round in 0..7u64 {
            for i in 0..t.n() {
                for p in 0..t.ports(i) {
                    let p = PortId::new(p as u16);
                    let (j, q) = t.neighbor_port(i, p);
                    assert_eq!(
                        t.is_active(round, i, p),
                        t.is_active(round, j, q),
                        "round {round}, wire {i}/{p}"
                    );
                }
            }
        }
    }

    #[test]
    fn adversary_keeps_every_round_connected() {
        for n in [2usize, 3, 5, 9, 16] {
            let t = DynamicTopology::adversarial(n, n - 1, 0xA5).unwrap();
            assert!(t.always_connected(), "n = {n}");
            for round in 0..(n as u64 - 1) {
                assert!(t.active_edges(round) >= n - 1, "n = {n}, round {round}");
            }
        }
    }

    #[test]
    fn adversary_is_deterministic_and_seed_sensitive() {
        let a = DynamicTopology::adversarial(6, 5, 1).unwrap();
        let b = DynamicTopology::adversarial(6, 5, 1).unwrap();
        let c = DynamicTopology::adversarial(6, 5, 2).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.round_digest(0), b.round_digest(0));
        assert_ne!(
            a.round_digest(0),
            a.round_digest(1),
            "edge sets swap per round"
        );
        assert_ne!(a.round_digest(1), c.round_digest(1));
    }

    #[test]
    fn local_schedules_mirror_the_global_mask() {
        let t = DynamicTopology::adversarial(5, 4, 7).unwrap();
        for i in 0..t.n() {
            let local = t.local_schedule(i);
            assert_eq!(local.len(), 4);
            for (round, active) in local.iter().enumerate() {
                for p in 0..t.ports(i) {
                    let p = PortId::new(p as u16);
                    assert_eq!(
                        active.contains(&p),
                        t.is_active(round as u64, i, p),
                        "proc {i}, round {round}, port {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn rounds_clamp_to_the_last_entry() {
        let t = DynamicTopology::adversarial(4, 2, 9).unwrap();
        assert_eq!(t.rounds(), 2);
        assert_eq!(t.active_edges(1), t.active_edges(100));
        assert_eq!(t.round_digest(1), t.round_digest(100));
        assert_eq!(t.footprint().edge_count(), 6);
    }
}
