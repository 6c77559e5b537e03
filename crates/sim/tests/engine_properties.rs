//! Property tests for the simulation substrate: topology, neighborhoods,
//! symmetry indices, wake schedules, and the async engine's key-ordered
//! delivery path.

use anonring_sim::r#async::{
    AsyncEngine, AsyncPortProcess, AsyncReport, Candidate, FifoScheduler, LifoScheduler,
    ScheduleKey, Scheduler, SynchronizingScheduler,
};
use anonring_sim::runtime::{PortActions, TraceEvent};
use anonring_sim::{
    joint_symmetry_index, neighborhood, symmetry_index, GraphTopology, Orientation, Port, PortId,
    RingConfig, RingTopology, Topology, WakeSchedule,
};
use proptest::prelude::*;

fn arb_orientations(max_n: usize) -> impl Strategy<Value = Vec<Orientation>> {
    (2..=max_n)
        .prop_flat_map(|n| proptest::collection::vec((0u8..=1).prop_map(Orientation::from_bit), n))
}

fn arb_config(max_n: usize) -> impl Strategy<Value = RingConfig<u8>> {
    (2..=max_n)
        .prop_flat_map(|n| {
            (
                proptest::collection::vec(0u8..=1, n),
                proptest::collection::vec((0u8..=1).prop_map(Orientation::from_bit), n),
            )
        })
        .prop_map(|(i, o)| RingConfig::new(i, o).expect("valid"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Sending on a port and replying on the arrival port returns to the
    /// sender — channels are symmetric.
    #[test]
    fn topology_channels_are_symmetric(orient in arb_orientations(16)) {
        let topo = RingTopology::new(orient).unwrap();
        for i in 0..topo.n() {
            for p in [Port::Left, Port::Right] {
                let (j, q) = topo.neighbor(i, p);
                prop_assert_eq!(topo.neighbor(j, q), (i, p));
            }
        }
    }

    /// The ring is oriented iff every rightward message arrives on a left
    /// port; for `n ≥ 3` this coincides with the paper's index-level
    /// `left(right(i)) = i` characterization (which is vacuous at
    /// `n = 2`, where any successor map is its own inverse).
    #[test]
    fn oriented_characterization(orient in arb_orientations(16)) {
        let topo = RingTopology::new(orient).unwrap();
        let ports = (0..topo.n()).all(|i| topo.neighbor(i, Port::Right).1 == Port::Left);
        prop_assert_eq!(topo.is_oriented(), ports);
        if topo.n() >= 3 {
            let paper = (0..topo.n()).all(|i| topo.left_of(topo.right_of(i)) == i);
            prop_assert_eq!(topo.is_oriented(), paper);
        }
    }

    /// Switching twice restores the original wiring.
    #[test]
    fn switching_is_an_involution(orient in arb_orientations(12), mask in any::<u16>()) {
        let topo = RingTopology::new(orient).unwrap();
        let switches: Vec<bool> = (0..topo.n()).map(|i| mask >> i & 1 == 1).collect();
        let twice = topo.with_switched(&switches).with_switched(&switches);
        prop_assert_eq!(twice, topo);
    }

    /// Equal (k+1)-neighborhoods imply equal k-neighborhoods.
    #[test]
    fn neighborhood_radius_monotone(config in arb_config(10), k in 0usize..4) {
        for i in 0..config.n() {
            for j in 0..config.n() {
                if neighborhood(&config, i, k + 1) == neighborhood(&config, j, k + 1) {
                    prop_assert_eq!(
                        neighborhood(&config, i, k),
                        neighborhood(&config, j, k)
                    );
                }
            }
        }
    }

    /// The symmetry index is invariant under rotating the configuration.
    #[test]
    fn symmetry_index_rotation_invariant(config in arb_config(10), r in 0usize..10, k in 0usize..4) {
        let rotated = config.rotated(r % config.n());
        prop_assert_eq!(symmetry_index(&config, k), symmetry_index(&rotated, k));
    }

    /// Mirroring is physically invisible: the symmetry index is unchanged
    /// and every processor's neighborhood survives at its mirror image.
    #[test]
    fn mirror_preserves_neighborhoods(config in arb_config(10), k in 0usize..4) {
        let mirrored = config.mirrored();
        prop_assert_eq!(symmetry_index(&config, k), symmetry_index(&mirrored, k));
        let n = config.n();
        for i in 0..n {
            prop_assert_eq!(
                neighborhood(&config, i, k),
                neighborhood(&mirrored, n - 1 - i, k),
                "processor {} vs mirror {}", i, n - 1 - i
            );
        }
    }

    /// The joint index of a configuration with itself is exactly twice
    /// the single index.
    #[test]
    fn joint_index_doubles(config in arb_config(10), k in 0usize..4) {
        prop_assert_eq!(
            joint_symmetry_index(&[config.clone(), config.clone()], k),
            2 * symmetry_index(&config, k)
        );
    }

    /// Every word walk that wraps produces a legal schedule and
    /// `from_times` round-trips it.
    #[test]
    fn wake_schedules_round_trip(word in proptest::collection::vec(0u8..=1, 2..20)) {
        let ones = word.iter().filter(|&&b| b == 1).count();
        let zeros = word.len() - ones;
        prop_assume!(ones.abs_diff(zeros) <= 1);
        // Balanced or near-balanced walks may still wrap illegally if the
        // first step goes the wrong way; only assert when legal.
        if let Ok(w) = WakeSchedule::from_word(&word) {
            prop_assert!(WakeSchedule::from_times(w.as_slice().to_vec()).is_ok());
            prop_assert!(w.as_slice().contains(&0), "normalized to min 0");
        }
    }
}

/// A process with variable fan-out that halts early: every processor
/// floods its ports at start (and some halt right there); each delivery
/// folds the message into an order-sensitive accumulator and forwards it
/// on a pseudo-random subset of ports while its hop budget lasts; a
/// processor halts after a quota of deliveries no larger than its degree,
/// which the start flood alone fills. Any change in delivery order changes
/// some output or the event stream.
#[derive(Debug, Clone)]
struct Scatter {
    ports: usize,
    salt: u64,
    heard: u64,
    acc: u64,
}

impl Scatter {
    fn quota(&self) -> u64 {
        1 + self.salt % self.ports as u64
    }

    fn mix(&self, x: u64) -> u64 {
        (self.salt ^ x)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(23)
    }
}

impl AsyncPortProcess for Scatter {
    type Msg = u8;
    type Output = u64;

    fn on_start_ports(&mut self) -> PortActions<u8, u64> {
        let everywhere: Vec<PortId> = (0..self.ports as u16).map(PortId::new).collect();
        let flood = PortActions::send_each(&everywhere, 3);
        if self.salt.is_multiple_of(5) {
            flood.and_halt(self.acc)
        } else {
            flood
        }
    }

    fn on_message_port(&mut self, from: PortId, ttl: u8) -> PortActions<u8, u64> {
        self.heard += 1;
        self.acc = self
            .acc
            .wrapping_mul(1_000_003)
            .wrapping_add(u64::from(ttl) << 16 | from.index() as u64);
        let mut out = PortActions::idle();
        if ttl > 0 {
            let fan = self.mix(self.acc) % (self.ports as u64 + 1);
            for k in 0..fan {
                let port = (self.mix(k + self.heard) % self.ports as u64) as u16;
                out = out.and_send(PortId::new(port), ttl - 1);
            }
        }
        if self.heard >= self.quota() {
            out.and_halt(self.acc)
        } else {
            out
        }
    }
}

/// Hides the wrapped scheduler's key, so the engine takes the slice path,
/// and checks on every slice that the scheduler's pick is the argmin of
/// its key, that keys are distinct, and that the slice is in ascending
/// `(to, port)` order.
struct SliceOnly<S>(S);

impl<S: Scheduler> Scheduler for SliceOnly<S> {
    fn pick(&mut self, candidates: &[Candidate]) -> usize {
        let keys: Vec<ScheduleKey> = candidates
            .iter()
            .map(|c| self.0.key(c).expect("keyed scheduler"))
            .collect();
        let argmin = (0..keys.len()).min_by_key(|&i| keys[i]).expect("nonempty");
        let picked = self.0.pick(candidates);
        assert_eq!(picked, argmin, "pick is the argmin of key");
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len(), "keys are unique");
        assert!(
            candidates
                .windows(2)
                .all(|w| (w[0].to, w[0].port) < (w[1].to, w[1].port)),
            "candidates ascend in (to, port)"
        );
        picked
    }
}

fn scatter_run<T: Topology + Clone>(
    topology: &T,
    salts: &[u64],
    scheduler: &mut dyn Scheduler,
) -> (AsyncReport<u64>, Vec<TraceEvent>) {
    let procs = (0..topology.n())
        .map(|i| Scatter {
            ports: topology.ports(i),
            salt: salts[i],
            heard: 0,
            acc: salts[i],
        })
        .collect();
    let mut engine = AsyncEngine::new(topology.clone(), procs).expect("one process per node");
    let mut events = Vec::new();
    let report = engine
        .run_with_observer(scheduler, &mut |e: &TraceEvent| events.push(*e))
        .expect("the start flood fills every quota");
    (report, events)
}

/// Runs `topology` under `scheduler` on the heap path and on the slice
/// path and requires identical reports and event streams.
fn heap_and_slice_agree<T: Topology + Clone, S: Scheduler + Clone>(
    topology: &T,
    salts: &[u64],
    scheduler: S,
) -> Result<(), TestCaseError> {
    let heap = scatter_run(topology, salts, &mut scheduler.clone());
    let slice = scatter_run(topology, salts, &mut SliceOnly(scheduler));
    prop_assert_eq!(&heap.0, &slice.0);
    prop_assert!(heap.1 == slice.1, "event streams differ");
    Ok(())
}

/// [`heap_and_slice_agree`] for every keyed scheduler.
fn every_keyed_scheduler_agrees<T: Topology + Clone>(
    topology: &T,
    salts: &[u64],
) -> Result<(), TestCaseError> {
    heap_and_slice_agree(topology, salts, SynchronizingScheduler)?;
    heap_and_slice_agree(topology, salts, FifoScheduler)?;
    heap_and_slice_agree(topology, salts, LifoScheduler)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The key heap delivers exactly what `pick` on the full slice would,
    /// on rings, stars and complete graphs.
    #[test]
    fn key_heap_matches_the_slice_path(
        params in (2usize..=9).prop_flat_map(|n| {
            (
                proptest::collection::vec(any::<u64>(), n),
                proptest::collection::vec((0u8..=1).prop_map(Orientation::from_bit), n),
            )
        }),
    ) {
        let (salts, orientations) = params;
        let n = salts.len();
        let ring = RingTopology::new(orientations).expect("n >= 2");
        every_keyed_scheduler_agrees(&ring, &salts)?;
        let leaves: Vec<(usize, usize)> = (1..n).map(|leaf| (0, leaf)).collect();
        let star = GraphTopology::from_edges(n, &leaves).expect("a star");
        every_keyed_scheduler_agrees(&star, &salts)?;
        let complete = GraphTopology::complete(n.min(6)).expect("n >= 2");
        every_keyed_scheduler_agrees(&complete, &salts[..n.min(6)])?;
    }
}
