//! Property tests for the §3 synchronizer adapter and the shared runtime's
//! wake-schedule handling.
//!
//! The §3 claim: wrapping any synchronous algorithm in [`Synchronized`]
//! and running it on the asynchronous engine — under *any* adversary —
//! produces the same outputs as running it directly on the synchronous
//! engine, at a message overhead of exactly two envelopes per simulated
//! cycle per processor. Because every envelope costs 2 header bits plus
//! its payload, the bit overhead is exactly `2 × envelopes`, so both the
//! output and the entire cost ledger of the async run are determined by
//! the sync run.

use anonring_sim::r#async::{
    AsyncEngine, FifoScheduler, LifoScheduler, RandomScheduler, Scheduler, SynchronizingScheduler,
};
use anonring_sim::sync::{Emit, Received, Step, SyncEngine, SyncProcess, SyncReport};
use anonring_sim::synchronizer::Synchronized;
use anonring_sim::telemetry::Recording;
use anonring_sim::{Orientation, Port, RingConfig};
use proptest::collection::vec;
use proptest::prelude::*;

/// A deterministic synchronous algorithm with input-dependent halt times,
/// input-dependent silence patterns, and order-sensitive state folding —
/// anything the adapter gets wrong (a lost payload, a misattributed port,
/// a phantom message where the sync run had silence, an extra simulated
/// cycle) changes some processor's output or halt cycle.
#[derive(Debug, Clone)]
struct Mixer {
    input: u8,
    acc: u64,
}

impl Mixer {
    fn new(input: u8) -> Mixer {
        Mixer {
            input,
            acc: u64::from(input).wrapping_mul(0x9e37_79b9),
        }
    }

    /// Local cycle at which this processor halts (its `step` runs for
    /// local cycles `0..=horizon`).
    fn horizon(&self) -> u64 {
        1 + u64::from(self.input % 4)
    }
}

impl SyncProcess for Mixer {
    type Msg = u64;
    type Output = u64;

    fn step(&mut self, cycle: u64, rx: Received<u64>) -> Step<u64, u64> {
        // Non-commutative folding: swapping the ports or reordering
        // deliveries changes the output.
        if let Some(&m) = rx.on(Port::Left) {
            self.acc = self.acc.wrapping_mul(1_000_003).wrapping_add(m);
        }
        if let Some(&m) = rx.on(Port::Right) {
            self.acc = self.acc.wrapping_mul(999_983).wrapping_add(m ^ 0xff);
        }
        if cycle >= self.horizon() {
            return Step::halt(self.acc);
        }
        match (cycle + u64::from(self.input)) % 3 {
            0 => Step::send_both(self.acc ^ cycle, u64::from(self.input)),
            1 => Step::send_left(self.acc.wrapping_add(cycle)),
            _ => Step::idle(), // silence carries information too
        }
    }
}

fn ring(inputs: &[u8], flips: &[bool]) -> RingConfig<u8> {
    let orientations: Vec<Orientation> = flips
        .iter()
        .map(|&f| {
            if f {
                Orientation::Counterclockwise
            } else {
                Orientation::Clockwise
            }
        })
        .collect();
    RingConfig::new(inputs.to_vec(), orientations).expect("same length")
}

fn run_sync(config: &RingConfig<u8>) -> SyncReport<u64> {
    SyncEngine::from_config(config, |_, &input| Mixer::new(input))
        .run()
        .expect("mixer halts")
}

fn check_equivalence(
    config: &RingConfig<u8>,
    scheduler: &mut dyn Scheduler,
    is_synchronizing: bool,
) -> Result<(), TestCaseError> {
    let sync = run_sync(config);
    let async_report =
        AsyncEngine::from_config(config, |_, &input| Synchronized::new(Mixer::new(input)))
            .run(scheduler)
            .expect("adapter halts");

    // Output equivalence: the adapter preserves the synchronous semantics
    // exactly, under any adversary.
    prop_assert_eq!(async_report.outputs(), sync.outputs());

    // Cost equivalence. Processor i executes local cycles 0..=h_i and
    // sends one envelope per port per cycle: 2·(h_i + 1) envelopes. With
    // every processor awake at cycle 0, h_i is the global halt cycle.
    let envelopes: u64 = sync.halt_cycles.iter().map(|h| 2 * (h + 1)).sum();
    prop_assert_eq!(async_report.messages, envelopes);
    // Each envelope costs 2 header bits + its payload; total payload bits
    // across all envelopes are exactly the direct run's bits.
    prop_assert_eq!(async_report.bits, 2 * envelopes + sync.bits);
    prop_assert_eq!(async_report.deliveries, async_report.messages);

    // Under the synchronizing adversary the simulation is lock-step until
    // the first processor halts (cycle-c envelopes arrive at epoch c + 1),
    // so the epoch count reaches at least the earliest halt. After a halt,
    // closed ports let neighbours batch several simulated cycles into one
    // event, so epochs never exceed the direct run's cycle count.
    if is_synchronizing {
        let earliest_halt = sync.halt_cycles.iter().min().copied().unwrap_or(0);
        prop_assert!(
            async_report.max_epoch > earliest_halt,
            "max_epoch {} <= earliest halt {}",
            async_report.max_epoch,
            earliest_halt
        );
        prop_assert!(
            async_report.max_epoch <= sync.cycles,
            "max_epoch {} > sync cycles {}",
            async_report.max_epoch,
            sync.cycles
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn adapter_matches_direct_run_under_every_adversary(
        params in (2usize..=8).prop_flat_map(|n| {
            (vec(0u8..=255, n), vec(any::<bool>(), n), any::<u64>())
        }),
    ) {
        let (inputs, flips, seed) = params;
        let config = ring(&inputs, &flips);
        check_equivalence(&config, &mut SynchronizingScheduler, true)?;
        check_equivalence(&config, &mut FifoScheduler, false)?;
        check_equivalence(&config, &mut LifoScheduler, false)?;
        check_equivalence(&config, &mut RandomScheduler::new(seed), false)?;
    }

    /// Wake schedules shift local clocks rigidly: a processor that never
    /// receives a message halts at global cycle `wake + horizon`, and the
    /// run length is the slowest processor's halt cycle plus one. This
    /// pins the runtime's wake handling across random schedules.
    #[test]
    fn wake_schedules_shift_silent_processors_rigidly(
        wakes in (2usize..=8).prop_flat_map(|n| vec(0u64..6, n)),
    ) {
        #[derive(Debug)]
        struct SilentCountdown {
            horizon: u64,
        }
        impl SyncProcess for SilentCountdown {
            type Msg = u64;
            type Output = u64;
            fn step(&mut self, cycle: u64, rx: Received<u64>) -> Step<u64, u64> {
                assert!(rx.is_empty(), "nobody sends");
                if cycle >= self.horizon {
                    Step::halt(cycle)
                } else {
                    Step::idle()
                }
            }
        }
        let n = wakes.len();
        let config = RingConfig::oriented(vec![0u8; n]);
        let mut engine =
            SyncEngine::from_config(&config, |i, _| SilentCountdown { horizon: 2 + i as u64 });
        engine.set_wakeups(wakes.clone()).unwrap();
        let mut recording = Recording::new(n, "silent");
        let report = engine.run_with_observer(&mut recording).expect("halts");
        for (i, (&wake, &halt)) in wakes.iter().zip(&report.halt_cycles).enumerate() {
            prop_assert_eq!(halt, wake + 2 + i as u64, "processor {}", i);
        }
        let last = report.halt_cycles.iter().max().copied().unwrap_or(0);
        prop_assert_eq!(report.cycles, last + 1);
        prop_assert_eq!(report.messages, 0);
        // The event stream spans every cycle through the last halt, and
        // no cycle carries a send.
        prop_assert_eq!(recording.horizon(), report.cycles);
        prop_assert!(recording.per_time_activity().iter().all(|row| row.1 == 0));
    }
}
