//! Topologies: the general port-labelled wiring abstraction, and the
//! paper's ring as its primary instance.
//!
//! A [`Topology`] is a port-labelled directed multigraph: every processor
//! `i` owns `ports(i)` local port labels, and each `(i, port)` pair wires
//! to exactly one `(j, port')` pair such that following the wire back
//! returns to where it started. All routing in the engines goes through
//! this trait, so the ring ([`RingTopology`]), arbitrary static graphs
//! ([`crate::graph::GraphTopology`]) and per-round dynamic edge sets
//! ([`crate::dynamic::DynamicTopology`]) run on the same substrate.

use crate::error::SimError;
use crate::mix::{fnv1a, fnv1a_extend};
use crate::port::{Orientation, Port, PortId};

/// A port-labelled directed multigraph over `n` anonymous processors.
///
/// Invariants every implementation must uphold:
///
/// * **Involution** — `neighbor_port(neighbor_port(i, p)) == (i, p)`:
///   wires have two fixed ends, so "replying on the arrival port" always
///   gets back to the sender.
/// * **No self-loops** — `neighbor_port(i, p).0 != i` (an anonymous
///   processor cannot distinguish a self-loop from a neighbour).
/// * **Stable port space** — `ports(i)` and the wiring are fixed for the
///   lifetime of the run; *dynamic* topologies vary which wires are
///   [`Topology::is_active`] per round, never the wiring itself.
///
/// Algorithms never see this trait: anonymity means a process knows only
/// its local port count and what arrives on its ports. The trait is
/// substrate API — engines, mailboxes, telemetry and the net driver use
/// it to route and account messages.
pub trait Topology {
    /// Number of processors.
    fn n(&self) -> usize;

    /// Number of local ports of processor `i`.
    fn ports(&self, i: usize) -> usize;

    /// The wire at `(i, port)`: the processor it reaches and the arrival
    /// port there.
    fn neighbor_port(&self, i: usize, port: PortId) -> (usize, PortId);

    /// Whether the wire at `(i, port)` carries messages in `round` — the
    /// dynamic-topology hook. Static topologies leave the default
    /// (always active). Implementations must keep activity symmetric:
    /// a wire is active at both ends or neither.
    fn is_active(&self, round: u64, i: usize, port: PortId) -> bool {
        let _ = (round, i, port);
        true
    }

    /// Whether the active edge set varies between rounds.
    fn is_dynamic(&self) -> bool {
        false
    }

    /// A digest of the full wiring (size, port counts, and every wire),
    /// FNV-1a over the edge list. Two topologies with different wiring
    /// digest differently with overwhelming probability; used by
    /// [`crate::explore`] to keep runs over different wirings apart.
    fn wiring_digest(&self) -> u64 {
        let mut h = fnv_seed(self.n() as u64);
        for i in 0..self.n() {
            h = fnv_fold(h, self.ports(i) as u64);
            for p in 0..self.ports(i) {
                let (j, q) = self.neighbor_port(i, PortId::new(p as u16));
                h = fnv_fold(h, j as u64);
                h = fnv_fold(h, q.index() as u64);
            }
        }
        h
    }

    /// A digest of the edge set *active in `round`*, folded over the
    /// wiring digest. For static topologies every round digests alike;
    /// for dynamic ones, rounds with different active edges differ.
    fn round_digest(&self, round: u64) -> u64 {
        let mut h = self.wiring_digest();
        if !self.is_dynamic() {
            return h;
        }
        for i in 0..self.n() {
            for p in 0..self.ports(i) {
                h = fnv_fold(
                    h,
                    u64::from(self.is_active(round, i, PortId::new(p as u16))),
                );
            }
        }
        h
    }

    /// Number of connected components of the wiring (ignoring per-round
    /// activity). Engines use `> 1` to report
    /// [`SimError::DisconnectedTopology`] instead of a generic deadlock
    /// when a run cannot terminate across a partition.
    fn components(&self) -> usize {
        let n = self.n();
        if n == 0 {
            return 0;
        }
        let mut seen = vec![false; n];
        let mut components = 0;
        let mut stack = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            components += 1;
            seen[start] = true;
            stack.push(start);
            while let Some(i) = stack.pop() {
                for p in 0..self.ports(i) {
                    let (j, _) = self.neighbor_port(i, PortId::new(p as u16));
                    if !seen[j] {
                        seen[j] = true;
                        stack.push(j);
                    }
                }
            }
        }
        components
    }
}

fn fnv_seed(v: u64) -> u64 {
    fnv1a(&v.to_le_bytes())
}

/// One FNV-1a folding step over the eight bytes of `v`.
pub(crate) fn fnv_fold(h: u64, v: u64) -> u64 {
    fnv1a_extend(h, &v.to_le_bytes())
}

/// The wiring of a bidirectional ring of `n ≥ 2` processors with
/// per-processor orientations `D(i)` (paper §2).
///
/// Physically, channel `c_k` connects processors `k` and `k + 1 (mod n)`.
/// Which *local port* of a processor attaches to which channel depends on
/// its orientation:
///
/// * `D(i) = 1` (clockwise): the right port is on `c_i`, the left port on
///   `c_{i−1}` — so `right(i) = i + 1`, `left(i) = i − 1`;
/// * `D(i) = 0` (counterclockwise): the ports are swapped — so
///   `right(i) = i − 1`, `left(i) = i + 1`.
///
/// Modelling the two channels explicitly keeps `n = 2` well-defined (the
/// two processors are joined by two *distinct* channels, one per side).
///
/// ```
/// use anonring_sim::{Orientation, Port, RingTopology};
///
/// let ring = RingTopology::oriented(5).unwrap();
/// assert_eq!(ring.neighbor(0, Port::Right), (1, Port::Left));
/// assert_eq!(ring.neighbor(0, Port::Left), (4, Port::Right));
///
/// // A counterclockwise processor receives the same message on the
/// // opposite port.
/// let mut d = vec![Orientation::Clockwise; 5];
/// d[1] = Orientation::Counterclockwise;
/// let ring = RingTopology::new(d).unwrap();
/// assert_eq!(ring.neighbor(0, Port::Right), (1, Port::Right));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RingTopology {
    orientations: Vec<Orientation>,
}

impl RingTopology {
    /// Builds a ring with the given per-processor orientations.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RingTooSmall`] when fewer than two orientations
    /// are supplied.
    pub fn new(orientations: Vec<Orientation>) -> Result<RingTopology, SimError> {
        if orientations.len() < 2 {
            return Err(SimError::RingTooSmall {
                n: orientations.len(),
            });
        }
        Ok(RingTopology { orientations })
    }

    /// Builds a fully clockwise-oriented ring of `n` processors.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RingTooSmall`] when `n < 2`.
    pub fn oriented(n: usize) -> Result<RingTopology, SimError> {
        RingTopology::new(vec![Orientation::Clockwise; n])
    }

    /// Builds a ring from the paper's bit encoding of `D`
    /// (`1` = clockwise, `0` = counterclockwise).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RingTooSmall`] when fewer than two bits are
    /// supplied.
    pub fn from_bits(bits: &[u8]) -> Result<RingTopology, SimError> {
        RingTopology::new(bits.iter().map(|&b| Orientation::from_bit(b)).collect())
    }

    /// Ring size `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.orientations.len()
    }

    /// The orientation `D(i)` of processor `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    #[must_use]
    pub fn orientation(&self, i: usize) -> Orientation {
        self.orientations[i]
    }

    /// All orientations, in processor order.
    #[must_use]
    pub fn orientations(&self) -> &[Orientation] {
        &self.orientations
    }

    /// Index arithmetic modulo `n`: the processor `offset` positions
    /// clockwise from `i` (negative offsets go counterclockwise).
    #[must_use]
    pub fn wrap(&self, i: usize, offset: isize) -> usize {
        let n = self.n() as isize;
        (((i as isize + offset) % n + n) % n) as usize
    }

    /// The channel attached to processor `i`'s `port`.
    ///
    /// Channels are numbered so that channel `k` joins processors `k` and
    /// `k + 1 (mod n)`.
    #[must_use]
    pub fn port_channel(&self, i: usize, port: Port) -> usize {
        let cw_side = match self.orientations[i] {
            Orientation::Clockwise => port,
            Orientation::Counterclockwise => port.opposite(),
        };
        match cw_side {
            Port::Right => i,
            Port::Left => self.wrap(i, -1),
        }
    }

    /// The processor reached by sending on `i`'s `port`, together with the
    /// **arrival port**: the receiving processor's local port on which the
    /// message shows up.
    #[must_use]
    pub fn neighbor(&self, i: usize, port: Port) -> (usize, Port) {
        let ch = self.port_channel(i, port);
        let j = if ch == i {
            self.wrap(i, 1)
        } else {
            debug_assert_eq!(ch, self.wrap(i, -1));
            self.wrap(i, -1)
        };
        let arrival = if self.port_channel(j, Port::Left) == ch {
            Port::Left
        } else {
            debug_assert_eq!(self.port_channel(j, Port::Right), ch);
            Port::Right
        };
        (j, arrival)
    }

    /// The paper's `right(i)`: the processor index reached via `i`'s right
    /// port.
    #[must_use]
    pub fn right_of(&self, i: usize) -> usize {
        self.neighbor(i, Port::Right).0
    }

    /// The paper's `left(i)`: the processor index reached via `i`'s left
    /// port.
    #[must_use]
    pub fn left_of(&self, i: usize) -> usize {
        self.neighbor(i, Port::Left).0
    }

    /// Whether the ring is *oriented*: all processors agree on clockwise or
    /// all agree on counterclockwise (equivalently `left(right(i)) = i` for
    /// every `i`, paper §2).
    #[must_use]
    pub fn is_oriented(&self) -> bool {
        self.orientations.iter().all(|&o| o == self.orientations[0])
    }

    /// Whether the ring is *quasi-oriented*: oriented, or the orientation
    /// alternates around the ring (paper §4.2.2). An alternating ring
    /// requires even `n`.
    #[must_use]
    pub fn is_quasi_oriented(&self) -> bool {
        if self.is_oriented() {
            return true;
        }
        (0..self.n()).all(|i| self.orientations[i] != self.orientations[self.wrap(i, 1)])
    }

    /// The topology obtained when the processors in `switch` flip their
    /// orientation — the effect of the orientation problem's output
    /// (paper §2: processors with output 1 switch their left and right
    /// connections).
    ///
    /// # Panics
    ///
    /// Panics if `switch.len() != n`.
    #[must_use]
    pub fn with_switched(&self, switch: &[bool]) -> RingTopology {
        assert_eq!(switch.len(), self.n(), "switch vector length");
        RingTopology {
            orientations: self
                .orientations
                .iter()
                .zip(switch)
                .map(|(&o, &s)| if s { o.flipped() } else { o })
                .collect(),
        }
    }
}

impl Topology for RingTopology {
    fn n(&self) -> usize {
        self.orientations.len()
    }

    fn ports(&self, _i: usize) -> usize {
        2
    }

    fn neighbor_port(&self, i: usize, port: PortId) -> (usize, PortId) {
        let port = port.as_ring().expect("ring processors have ports 0 and 1");
        let (j, arrival) = self.neighbor(i, port);
        (j, PortId::from(arrival))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cw(n: usize) -> RingTopology {
        RingTopology::oriented(n).unwrap()
    }

    #[test]
    fn ring_satisfies_the_topology_trait() {
        let r = RingTopology::from_bits(&[1, 0, 1, 1]).unwrap();
        assert_eq!(Topology::n(&r), 4);
        assert_eq!(r.ports(2), 2);
        for i in 0..4 {
            for p in [PortId::LEFT, PortId::RIGHT] {
                let (j, q) = r.neighbor_port(i, p);
                // Trait routing agrees with the inherent ring routing…
                let (jj, qq) = r.neighbor(i, p.as_ring().unwrap());
                assert_eq!((j, q), (jj, PortId::from(qq)));
                // …and is an involution.
                assert_eq!(r.neighbor_port(j, q), (i, p));
            }
        }
        assert!(!r.is_dynamic());
        assert!(r.is_active(3, 0, PortId::LEFT));
        assert_eq!(r.components(), 1);
        // Static topologies digest identically in every round; different
        // wirings digest apart.
        assert_eq!(r.round_digest(0), r.round_digest(17));
        assert_ne!(r.wiring_digest(), cw(4).wiring_digest());
        assert_ne!(cw(4).wiring_digest(), cw(5).wiring_digest());
    }

    #[test]
    fn rejects_tiny_rings() {
        assert!(matches!(
            RingTopology::oriented(1),
            Err(SimError::RingTooSmall { n: 1 })
        ));
        assert!(RingTopology::oriented(2).is_ok());
    }

    #[test]
    fn clockwise_ring_neighbors() {
        let r = cw(5);
        for i in 0..5 {
            assert_eq!(r.right_of(i), (i + 1) % 5, "right({i})");
            assert_eq!(r.left_of(i), (i + 4) % 5, "left({i})");
            // On an oriented ring a rightward message arrives on the left port.
            assert_eq!(r.neighbor(i, Port::Right), ((i + 1) % 5, Port::Left));
        }
    }

    #[test]
    fn counterclockwise_processor_swaps_ports() {
        let r = RingTopology::from_bits(&[1, 0, 1, 1]).unwrap();
        // Processor 1 is counterclockwise: right(1) = 0.
        assert_eq!(r.right_of(1), 0);
        assert_eq!(r.left_of(1), 2);
        // A message sent right by 0 reaches 1 on 1's *right* port
        // (both processors' "rights" face each other).
        assert_eq!(r.neighbor(0, Port::Right), (1, Port::Right));
    }

    #[test]
    fn two_ring_has_two_distinct_channels() {
        let r = cw(2);
        assert_ne!(
            r.port_channel(0, Port::Left),
            r.port_channel(0, Port::Right)
        );
        assert_eq!(r.neighbor(0, Port::Right), (1, Port::Left));
        assert_eq!(r.neighbor(0, Port::Left), (1, Port::Right));
    }

    #[test]
    fn channels_are_consistent_both_ways() {
        // Sending on a port and "replying" on the arrival port gets back.
        for bits in [
            vec![1, 1, 1],
            vec![0, 0, 0],
            vec![1, 0, 1],
            vec![1, 0, 0, 1],
            vec![0, 1, 0, 1, 1],
        ] {
            let r = RingTopology::from_bits(&bits).unwrap();
            for i in 0..r.n() {
                for p in [Port::Left, Port::Right] {
                    let (j, q) = r.neighbor(i, p);
                    assert_eq!(r.neighbor(j, q), (i, p), "round trip from {i}/{p:?}");
                }
            }
        }
    }

    #[test]
    fn oriented_iff_left_of_right_is_identity() {
        for bits in [
            vec![1, 1, 1, 1],
            vec![0, 0, 0],
            vec![1, 0, 1],
            vec![1, 1, 0],
        ] {
            let r = RingTopology::from_bits(&bits).unwrap();
            let paper_oriented = (0..r.n()).all(|i| r.left_of(r.right_of(i)) == i);
            assert_eq!(r.is_oriented(), paper_oriented, "bits {bits:?}");
        }
    }

    #[test]
    fn quasi_orientation() {
        assert!(RingTopology::from_bits(&[1, 1, 1])
            .unwrap()
            .is_quasi_oriented());
        assert!(RingTopology::from_bits(&[1, 0, 1, 0])
            .unwrap()
            .is_quasi_oriented());
        assert!(!RingTopology::from_bits(&[1, 1, 0])
            .unwrap()
            .is_quasi_oriented());
        // Odd rings cannot alternate.
        assert!(!RingTopology::from_bits(&[1, 0, 1])
            .unwrap()
            .is_quasi_oriented());
    }

    #[test]
    fn switching_flips_selected_processors() {
        let r = RingTopology::from_bits(&[1, 0, 1]).unwrap();
        let s = r.with_switched(&[false, true, false]);
        assert!(s.is_oriented());
        assert_eq!(s.orientation(1), Orientation::Clockwise);
    }

    #[test]
    fn wrap_arithmetic() {
        let r = cw(5);
        assert_eq!(r.wrap(0, -1), 4);
        assert_eq!(r.wrap(4, 2), 1);
        assert_eq!(r.wrap(2, -7), 0);
    }
}
