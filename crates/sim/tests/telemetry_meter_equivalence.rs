//! Property: the telemetry layer and the cost meter never disagree.
//!
//! Both derive from the single send path in `runtime::LinkFabric`, so for
//! any run — either engine, any adversarial schedule — a [`Recording`]'s
//! totals and its registry snapshot must equal the engine report's
//! metered `messages`/`bits` figures exactly. (Deliveries
//! are compared in the async model only: the sync engine's end-of-run
//! drain discards in-flight messages without emitting deliver events.)

use anonring_sim::r#async::{
    Actions, AsyncEngine, AsyncProcess, FifoScheduler, RandomScheduler, Scheduler,
    SynchronizingScheduler,
};
use anonring_sim::sync::{Emit, Received, Step, SyncEngine, SyncProcess};
use anonring_sim::telemetry::{MetricId, Recording};
use anonring_sim::{Port, RingTopology};
use proptest::prelude::*;

/// Synchronous: a processor that chatters on a cycle-dependent pattern
/// (sometimes spanned, sometimes not, sometimes silent) for `rounds`
/// cycles, then halts — leaving its final sends in flight so the drain
/// path is exercised too.
#[derive(Debug)]
struct Chatter {
    seed: u8,
    rounds: u64,
}

impl SyncProcess for Chatter {
    type Msg = u8;
    type Output = ();
    fn step(&mut self, cycle: u64, _rx: Received<u8>) -> Step<u8, ()> {
        let step = match (cycle + u64::from(self.seed)) % 4 {
            0 => Step::send_both(self.seed, self.seed).in_span("both", cycle),
            1 => Step::send_left(self.seed.wrapping_add(1)),
            2 => Step::send_right(self.seed.wrapping_mul(3)).in_span("right", cycle),
            _ => Step::idle(),
        };
        if cycle + 1 >= self.rounds {
            step.and_halt(())
        } else {
            step
        }
    }
}

/// Asynchronous: every processor scatters one message with `ttl`
/// remaining hops in each direction; relays decrement the TTL. Each
/// processor therefore receives exactly `ttl` messages per direction
/// (when `2·ttl < n`... in general, exactly `2·ttl` deliveries counting
/// multiplicity) and halts after the last one — quiescence with
/// universal halt under every schedule.
#[derive(Debug)]
struct Scatter {
    ttl: u8,
    received: u8,
}

impl AsyncProcess for Scatter {
    type Msg = u8;
    type Output = ();
    fn on_start(&mut self) -> Actions<u8, ()> {
        Actions::send(Port::Left, self.ttl - 1)
            .and_send(Port::Right, self.ttl - 1)
            .in_span("scatter", 0)
    }
    fn on_message(&mut self, from: Port, hops_left: u8) -> Actions<u8, ()> {
        self.received += 1;
        let mut actions = if hops_left > 0 {
            Actions::send(from.opposite(), hops_left - 1).in_span("relay", u64::from(hops_left))
        } else {
            Actions::idle()
        };
        if self.received == 2 * self.ttl {
            actions = actions.and_halt(());
        }
        actions
    }
}

fn assert_registry_matches(recording: &Recording, messages: u64, bits: u64) {
    assert_eq!(recording.messages(), messages, "recording messages");
    assert_eq!(recording.bits(), bits, "recording bits");
    let registry = recording.registry();
    assert_eq!(
        registry.counter(&MetricId::plain("messages_total")),
        messages,
        "registry messages"
    );
    assert_eq!(
        registry.counter(&MetricId::plain("bits_total")),
        bits,
        "registry bits"
    );
    // Per-processor counters partition the total.
    let per_proc: u64 = (0..recording.n)
        .map(|i| {
            let proc = i.to_string();
            registry.counter(&MetricId::with_labels("messages_total", &[("proc", &proc)]))
        })
        .sum();
    assert_eq!(per_proc, messages, "per-proc partition");
    // So do the spans (unannotated sends under the empty phase name).
    let spanned: u64 = recording
        .phase_profile()
        .iter()
        .map(|(_, (msgs, _))| msgs)
        .sum();
    assert_eq!(spanned, messages, "span partition");
    // And the per-time histogram.
    let per_time = registry
        .histogram(&MetricId::plain("messages_per_time"))
        .map_or(0, |h| h.sum);
    assert_eq!(per_time, messages, "per-time partition");
}

fn check_sync(n: usize, rounds: u64) {
    let topology = RingTopology::oriented(n).unwrap();
    let procs = (0..n)
        .map(|i| Chatter {
            seed: i as u8,
            rounds,
        })
        .collect();
    let mut engine = SyncEngine::new(topology, procs).unwrap();
    let mut recording = Recording::new(n, "sync");
    let report = engine.run_with_observer(&mut recording).unwrap();
    assert_registry_matches(&recording, report.messages, report.bits);
}

fn check_async(n: usize, ttl: u8, scheduler: &mut dyn Scheduler) {
    let topology = RingTopology::oriented(n).unwrap();
    let procs = (0..n).map(|_| Scatter { ttl, received: 0 }).collect();
    let mut engine = AsyncEngine::new(topology, procs).unwrap();
    let mut recording = Recording::new(n, "async");
    let report = engine.run_with_observer(scheduler, &mut recording).unwrap();
    assert_registry_matches(&recording, report.messages, report.bits);
    // Every send is eventually delivered (consumed or dropped) in the
    // async model, and the deliver events must account for all of them.
    let registry = recording.registry();
    let consumed = registry.counter(&MetricId::plain("deliveries_total"));
    let dropped = registry.counter(&MetricId::plain("drops_total"));
    assert_eq!(consumed + dropped, report.messages);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sync_engine_telemetry_equals_meter(n in 2usize..=9, rounds in 1u64..=7) {
        check_sync(n, rounds);
    }

    #[test]
    fn async_engine_telemetry_equals_meter_under_adversarial_schedules(
        n in 2usize..=9,
        ttl in 1u8..=4,
        seed in any::<u64>(),
    ) {
        check_async(n, ttl, &mut RandomScheduler::new(seed));
        check_async(n, ttl, &mut SynchronizingScheduler);
        check_async(n, ttl, &mut FifoScheduler);
    }
}
