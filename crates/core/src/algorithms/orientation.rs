//! Figure 4: quasi-orienting a ring in `O(n log n)` messages.
//!
//! Processors must agree which way is "right", but a deterministic
//! algorithm cannot break the symmetry of an even ring with half the
//! processors facing each way (Theorem 3.5) — so the target is
//! *quasi-orientation*: the output switches make the ring either oriented
//! or perfectly alternating (and an odd ring, which cannot alternate,
//! becomes oriented).
//!
//! Rounds have two phases. **Endpoint selection**: every active processor
//! sends a `LEFT` marker out its left port and a `RIGHT` marker out its
//! right port; an active stays in the race iff a `LEFT` marker arrives on
//! its *left* port — which happens exactly when it and its nearest active
//! left neighbour face each other. **Elimination**: surviving endpoints
//! send a `0` token out their right ports into their segment; the two
//! tokens meet at a single processor only if the segment has odd length,
//! and that processor's `1` reply keeps exactly one endpoint alive.
//!
//! The race can only end in silence: either no endpoints were found (all
//! remaining actives agree on a direction) or every segment had even
//! length (the surviving endpoints alternate orientation). A silent round
//! tells every processor the race is over, and the lately-eliminated
//! (*marked*) processors — which sit at odd distances from one another and
//! are either all alike (case 1) or alternating (case 2) — anchor a final
//! token pass that tells everyone else how to turn.
//!
//! **Final pass (engineered; see DESIGN.md).** The paper's pseudocode
//! ("send 0 right; forward the complement; switch on a 1 from the right;
//! halt after two messages") under-determines this step: tokens leak
//! through marked processors, so a processor can receive two tokens from
//! the *same* rotational direction and halt before the opposite sweep
//! arrives, missing its switch signal (e.g. `D = 10100000`). We keep the
//! paper's parity-complementing idea but make it deterministic: every
//! marked processor launches a token in *both* directions, tagged with the
//! originating port; forwarders complement the parity bit and preserve the
//! tag; every processor waits for the lead token on *each* port, which
//! tells it (a) its orientation relative to the nearest anchor on that
//! side (tag vs arrival port) and (b) the parity of its distance to it.
//! If the two anchors agree in orientation (case 1) the processor aligns
//! with them; if they differ (case 2) it orients by distance parity,
//! producing the alternating quasi-orientation. Both verdicts always
//! agree, the pass costs at most `2n + 2·|marked|` one-bit-pair messages,
//! and odd rings — where case 2 is impossible — end fully oriented.
//!
//! As with Figure 2, our phases last `n + 1` cycles (DESIGN.md).

use anonring_sim::sync::{Emit, Received, Step, SyncEngine, SyncProcess, SyncReport};
use anonring_sim::{Message, Port, RingTopology, SimError};

/// Messages of the Figure 4 algorithm. Each carries a single bit of
/// content (the kind is implied by the phase in which it is sent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrientMsg {
    /// Phase 1 marker, tagged with the port the *originator* sent it on.
    Marker(Port),
    /// Phase 2 segment token: `0` from an endpoint, `1` for the reply.
    Seg(u8),
    /// Final-pass token: hop-parity bit (complemented at each hop) plus
    /// the port its anchor launched it on.
    Fin(u8, Port),
}

impl Message for OrientMsg {
    fn bit_len(&self) -> usize {
        match self {
            OrientMsg::Marker(_) | OrientMsg::Seg(_) => 1,
            OrientMsg::Fin(..) => 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Rounds,
    Final,
}

/// The Figure 4 process. Output: `true` if this processor should switch
/// its left and right connections.
#[derive(Debug, Clone)]
pub struct OrientationProc {
    n: usize,
    active: bool,
    marked: bool,
    switched: bool,
    endpoint_mark: bool,
    got_one: bool,
    heard_this_round: bool,
    seg_seen: bool,
    /// Local cycle at which the current round began: the round counter
    /// `rc` of a step is its local cycle minus this.
    round_start: u64,
    round: u64,
    mode: Mode,
    fin_sent: bool,
    /// Lead final-pass token per port: (parity bit, anchor tag).
    fin_first: [Option<(u8, Port)>; 2],
}

impl OrientationProc {
    /// Creates the process for a ring of size `n ≥ 2`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new(n: usize) -> OrientationProc {
        assert!(n >= 2, "ring size must be at least 2");
        OrientationProc {
            n,
            active: true,
            marked: false,
            switched: false,
            endpoint_mark: false,
            got_one: false,
            heard_this_round: false,
            seg_seen: false,
            round_start: 0,
            round: 0,
            mode: Mode::Rounds,
            fin_sent: false,
            fin_first: [None, None],
        }
    }

    /// The round-counter values at which a step acts even without
    /// arrivals, paired with whether it does in the current state.
    fn milestones(&self) -> [(u64, bool); 4] {
        let n = self.n as u64;
        [
            (0, self.active),
            (n, self.active),
            (n + 1, self.active),
            (2 * n + 1, true),
        ]
    }

    fn rounds_step(&mut self, local_cycle: u64, rx: Received<OrientMsg>) -> Step<OrientMsg, bool> {
        let n = self.n as u64;
        let rc = local_cycle - self.round_start;
        let mut step: Step<OrientMsg, bool> = Step::idle();
        if !rx.is_empty() {
            self.heard_this_round = true;
            if !self.active {
                // Any traffic clears a stale mark (Figure 4's passive
                // branches).
                self.marked = false;
            }
        }

        // --- Arrivals ---
        if self.active {
            for (port, msg) in rx.iter() {
                match *msg {
                    OrientMsg::Marker(origin_port) => {
                        if port == Port::Left && origin_port == Port::Left {
                            self.endpoint_mark = true;
                        }
                    }
                    OrientMsg::Seg(bit) => {
                        if bit == 1 {
                            self.got_one = true;
                        }
                    }
                    OrientMsg::Fin(..) => unreachable!("Fin only in final mode"),
                }
            }
        } else {
            // Passive relaying.
            let left = rx.from_left;
            let right = rx.from_right;
            match (left, right) {
                (Some(OrientMsg::Seg(0)), Some(OrientMsg::Seg(0))) => {
                    // Middle of an odd segment: reply to one endpoint.
                    step.to_right = Some(OrientMsg::Seg(1));
                    self.seg_seen = true;
                }
                (l, r) => {
                    for (port, msg) in [(Port::Left, l), (Port::Right, r)] {
                        let Some(msg) = msg else { continue };
                        let out = match port {
                            Port::Left => &mut step.to_right,
                            Port::Right => &mut step.to_left,
                        };
                        match msg {
                            OrientMsg::Marker(_) => *out = Some(msg),
                            OrientMsg::Seg(1) => {
                                *out = Some(msg);
                                self.seg_seen = true;
                            }
                            OrientMsg::Seg(_) => {
                                // Forward only the first phase-2 token;
                                // a crossing second token dies here.
                                if !self.seg_seen {
                                    *out = Some(msg);
                                }
                                self.seg_seen = true;
                            }
                            OrientMsg::Fin(..) => unreachable!("Fin only in final mode"),
                        }
                    }
                }
            }
        }

        // --- Scheduled transitions ---
        if rc == 0 && self.active {
            step.to_left = Some(OrientMsg::Marker(Port::Left));
            step.to_right = Some(OrientMsg::Marker(Port::Right));
        }
        if rc == n && self.active && !self.endpoint_mark {
            // End of phase 1: non-endpoints drop out.
            self.active = false;
            self.marked = true;
        }
        if rc == n + 1 && self.active {
            step.to_right = Some(OrientMsg::Seg(0));
        }
        if rc == 2 * n + 1 {
            // End of the round.
            if self.active && !self.got_one {
                self.active = false;
                self.marked = true;
            }
            if self.heard_this_round {
                self.round_start = local_cycle + 1;
                self.round += 1;
                self.endpoint_mark = false;
                self.got_one = false;
                self.heard_this_round = false;
                self.seg_seen = false;
            } else {
                self.mode = Mode::Final;
            }
        }
        // Markers move in cycles 0..=n of a round and segment tokens in
        // n+1..=2n+1, so a cycle's emissions share one phase.
        let phase = match (&step.to_left, &step.to_right) {
            (Some(OrientMsg::Marker(_)), _) | (_, Some(OrientMsg::Marker(_))) => Some("markers"),
            (Some(OrientMsg::Seg(_)), _) | (_, Some(OrientMsg::Seg(_))) => Some("segment"),
            _ => None,
        };
        match phase {
            Some(phase) => step.in_span(phase, self.round),
            None => step,
        }
    }

    fn final_step(&mut self, rx: Received<OrientMsg>) -> Step<OrientMsg, bool> {
        let mut step: Step<OrientMsg, bool> = Step::idle();
        if !self.fin_sent {
            self.fin_sent = true;
            if self.marked {
                step.to_left = Some(OrientMsg::Fin(0, Port::Left));
                step.to_right = Some(OrientMsg::Fin(0, Port::Right));
            }
        }
        for (port, msg) in rx.iter() {
            let OrientMsg::Fin(bit, tag) = *msg else {
                unreachable!("only Fin tokens in final mode")
            };
            let slot = &mut self.fin_first[usize::from(port == Port::Right)];
            if slot.is_none() {
                *slot = Some((bit, tag));
            }
            // Forward the complement onwards (later tokens die at halted
            // processors; forwarding them here is harmless and keeps the
            // relaying rule uniform).
            let out = match port {
                Port::Left => &mut step.to_right,
                Port::Right => &mut step.to_left,
            };
            *out = Some(OrientMsg::Fin(1 - bit, tag));
        }
        if let [Some(a), Some(b)] = self.fin_first {
            let verdict = |(bit, tag): (u8, Port), port: Port| {
                // Same orientation as the anchor iff the token's launch
                // port differs from its arrival port; distance even iff
                // an odd number of complements happened (bit == 1).
                let same = tag != port;
                let k_even = bit == 1;
                (same, k_even)
            };
            let (same_l, k_even_l) = verdict(a, Port::Left);
            let (same_r, k_even_r) = verdict(b, Port::Right);
            // Anchor spacings are always odd (the even-passives-between-
            // actives invariant), so a processor strictly inside one gap
            // sees distances of opposite parity, while an anchor — whose
            // two distances span two whole gaps — sees equal parities.
            let switch = if k_even_l == k_even_r {
                // This processor is an anchor: anchors are the reference
                // frame and never turn.
                false
            } else if same_l != same_r {
                // Case 2: neighbouring anchors alternate; orient by
                // distance parity (both tokens give the same verdict).
                let v = same_l != k_even_l;
                debug_assert_eq!(v, same_r != k_even_r, "verdicts must agree");
                v
            } else {
                // Case 1: all anchors face the same way; align with them.
                !same_l
            };
            self.switched = switch;
            return step.and_halt(self.switched).in_span("final", self.round);
        }
        step.in_span("final", self.round)
    }
}

impl SyncProcess for OrientationProc {
    type Msg = OrientMsg;
    type Output = bool;

    fn step(&mut self, local_cycle: u64, rx: Received<OrientMsg>) -> Step<OrientMsg, bool> {
        match self.mode {
            Mode::Rounds => self.rounds_step(local_cycle, rx),
            Mode::Final => self.final_step(rx),
        }
    }

    /// Quiet cycles are counted, not stepped: the next milestone of the
    /// round, or the next cycle when the final pass has yet to launch.
    /// After the launch the final pass is driven by its tokens.
    fn next_active(&self, local_cycle: u64) -> Option<u64> {
        match self.mode {
            Mode::Rounds => {
                let rc = local_cycle + 1 - self.round_start;
                self.milestones()
                    .into_iter()
                    .find(|&(at, acts)| acts && at >= rc)
                    .map(|(at, _)| self.round_start + at)
            }
            Mode::Final => (!self.fin_sent).then_some(local_cycle + 1),
        }
    }
}

/// Runs Figure 4 on a topology, returning the per-processor switch
/// decisions (and the usual accounting).
///
/// On success, applying the switches ([`RingTopology::with_switched`])
/// yields a quasi-oriented ring — fully oriented when `n` is odd.
///
/// ```
/// use anonring_core::algorithms::orientation;
/// use anonring_sim::RingTopology;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let scrambled = RingTopology::from_bits(&[1, 0, 0, 1, 1, 0, 1])?;
/// let report = orientation::run(&scrambled)?;
/// let fixed = scrambled.with_switched(report.outputs());
/// assert!(fixed.is_oriented()); // odd rings always fully orient
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates engine errors (which indicate a bug, not a legal outcome).
pub fn run(topology: &RingTopology) -> Result<SyncReport<bool>, SimError> {
    engine(topology)?.run()
}

/// The Figure 4 engine over `topology`: one input-free
/// [`OrientationProc`] per processor, under the family's cycle cap.
///
/// # Errors
///
/// Propagates engine errors (which indicate a bug, not a legal outcome).
pub fn engine(topology: &RingTopology) -> Result<SyncEngine<OrientationProc>, SimError> {
    let n = topology.n();
    let procs = (0..n).map(|_| OrientationProc::new(n)).collect();
    let mut engine = SyncEngine::new(topology.clone(), procs)?;
    // The paper's cycle bound is O(n log n); (2n + 2)² is a comfortable
    // deadlock backstop.
    engine.set_max_cycles((2 * n as u64 + 2) * (2 * n as u64 + 2));
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use anonring_sim::RingTopology;

    fn check(topology: &RingTopology) -> SyncReport<bool> {
        let report = run(topology).unwrap();
        let switched = topology.with_switched(report.outputs());
        assert!(
            switched.is_quasi_oriented(),
            "orientations {:?} + switches {:?} -> {:?} not quasi-oriented",
            topology.orientations(),
            report.outputs(),
            switched.orientations(),
        );
        if topology.n() % 2 == 1 {
            assert!(
                switched.is_oriented(),
                "odd ring must become fully oriented: {:?} + {:?}",
                topology.orientations(),
                report.outputs(),
            );
        }
        report
    }

    #[test]
    fn exhaustive_all_orientations_small_rings() {
        for n in 2..=10usize {
            for mask in 0..(1u32 << n) {
                let bits: Vec<u8> = (0..n).map(|i| (mask >> i & 1) as u8).collect();
                let topology = RingTopology::from_bits(&bits).unwrap();
                check(&topology);
            }
        }
    }

    #[test]
    fn message_bound_holds() {
        for n in [9usize, 27, 45, 81, 100, 121] {
            // Adversarial orientation patterns: random-ish, alternating
            // blocks, single dissident.
            let patterns: Vec<Vec<u8>> = vec![
                (0..n).map(|i| ((i * 2654435761) >> 9 & 1) as u8).collect(),
                (0..n).map(|i| u8::from(i % 4 < 2)).collect(),
                (0..n).map(|i| u8::from(i != 0)).collect(),
                vec![1; n],
            ];
            for bits in patterns {
                let topology = RingTopology::from_bits(&bits).unwrap();
                let report = check(&topology);
                let bound = bounds::orientation_messages(n as u64) + 2.0 * n as f64;
                assert!(
                    (report.messages as f64) <= bound,
                    "n={n} bits={bits:?}: {} messages > {bound}",
                    report.messages
                );
                let cbound = bounds::orientation_cycles(n as u64);
                assert!(
                    (report.cycles as f64) <= cbound,
                    "n={n}: {} cycles > {cbound}",
                    report.cycles
                );
            }
        }
    }

    #[test]
    fn already_oriented_ring_stays_oriented_cheaply() {
        let topology = RingTopology::oriented(15).unwrap();
        let report = check(&topology);
        // One round of markers (2n), a silent round, and a final pass of
        // at most 2n launches + 2n forwards.
        assert!(report.messages <= 7 * 15, "{} messages", report.messages);
        assert!(report.outputs().iter().all(|&s| !s), "nobody switches");
    }

    #[test]
    fn messages_cost_at_most_two_bits() {
        // Markers and segment tokens are 1 bit; final tokens 2 bits.
        let topology = RingTopology::from_bits(&[1, 0, 0, 1, 1, 0, 1]).unwrap();
        let report = check(&topology);
        assert!(report.bits >= report.messages);
        assert!(report.bits <= 2 * report.messages);
    }
}
