//! The synchronous engine steps a processor only when a message arrives
//! for it or its `next_active` asks for the cycle. Figures 2, 4 and 5 count
//! their waits in cycles and say when the count next matters, so they are
//! stepped O(messages + n log n) times instead of once per cycle each.
//!
//! This suite pins that skipping changes nothing observable: each process
//! run as it is must match the same process wrapped so that it is stepped
//! every cycle — identical event streams, per-cycle message counts, halt
//! cycles and outputs — under simultaneous and random wake-ups. It also
//! runs the ported processes under the α-synchronizer, which steps them
//! every simulated cycle, against the direct run, and it guards the step
//! count so a fall back to per-cycle stepping cannot pass silently.

use std::cell::Cell;
use std::rc::Rc;

use anonring_core::algorithms::orientation::OrientationProc;
use anonring_core::algorithms::start_sync::StartSync;
use anonring_core::algorithms::sync_input_dist::SyncInputDist;
use anonring_sim::r#async::{AsyncEngine, FifoScheduler, Scheduler, SynchronizingScheduler};
use anonring_sim::runtime::TraceEvent;
use anonring_sim::sync::{Received, Step, SyncEngine, SyncProcess, SyncReport};
use anonring_sim::synchronizer::Synchronized;
use anonring_sim::{RingTopology, WakeSchedule};

/// Steps the wrapped process every cycle: the default `next_active`.
#[derive(Debug, Clone)]
struct EveryCycle<P>(P);

impl<P: SyncProcess> SyncProcess for EveryCycle<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn step(&mut self, local_cycle: u64, rx: Received<P::Msg>) -> Step<P::Msg, P::Output> {
        self.0.step(local_cycle, rx)
    }
}

/// Counts the `step` calls of the wrapped process, keeping its
/// `next_active`.
#[derive(Debug, Clone)]
struct Counted<P> {
    inner: P,
    steps: Rc<Cell<u64>>,
}

impl<P: SyncProcess> SyncProcess for Counted<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn step(&mut self, local_cycle: u64, rx: Received<P::Msg>) -> Step<P::Msg, P::Output> {
        self.steps.set(self.steps.get() + 1);
        self.inner.step(local_cycle, rx)
    }

    fn next_active(&self, local_cycle: u64) -> Option<u64> {
        self.inner.next_active(local_cycle)
    }
}

/// A sync report's ledger and outputs.
#[derive(Debug, PartialEq)]
struct Ledger<O> {
    outputs: Vec<O>,
    messages: u64,
    bits: u64,
    cycles: u64,
    dropped: u64,
    halt_cycles: Vec<u64>,
}

/// Everything a sync run shows: its ledger (or the error) and the full
/// event stream.
#[derive(Debug, PartialEq)]
struct Footprint<O> {
    outcome: Result<Ledger<O>, String>,
    events: Vec<TraceEvent>,
}

fn footprint<O: Clone>(
    result: Result<SyncReport<O>, String>,
    events: Vec<TraceEvent>,
) -> Footprint<O> {
    Footprint {
        outcome: result.map(|r| Ledger {
            outputs: r.outputs().to_vec(),
            messages: r.messages,
            bits: r.bits,
            cycles: r.cycles,
            dropped: r.dropped,
            halt_cycles: r.halt_cycles.clone(),
        }),
        events,
    }
}

fn run<P: SyncProcess>(
    topology: &RingTopology,
    procs: Vec<P>,
    wake: &WakeSchedule,
    max_cycles: u64,
) -> Footprint<P::Output> {
    let mut engine = SyncEngine::new(topology.clone(), procs).expect("one process per node");
    engine
        .set_wakeups(wake.as_slice().to_vec())
        .expect("one wake-up per node");
    engine.set_max_cycles(max_cycles);
    let mut events = Vec::new();
    let result = engine
        .run_with_observer(&mut |e: &TraceEvent| events.push(*e))
        .map_err(|e| e.to_string());
    footprint(result, events)
}

/// Runs `make`'s processes as they are and stepped every cycle, and
/// asserts the two runs are indistinguishable. Returns the direct run.
fn assert_skipping_is_invisible<P>(
    topology: &RingTopology,
    wake: &WakeSchedule,
    max_cycles: u64,
    make: impl Fn(usize) -> P,
    what: &str,
) -> Footprint<P::Output>
where
    P: SyncProcess + Clone,
{
    let n = topology.n();
    let direct = run(topology, (0..n).map(&make).collect(), wake, max_cycles);
    let every = run(
        topology,
        (0..n).map(|i| EveryCycle(make(i))).collect(),
        wake,
        max_cycles,
    );
    assert!(
        direct == every,
        "{what}: skipping steps changed the run\n direct: {:?}\n every cycle: {:?}",
        direct.outcome,
        every.outcome
    );
    direct
}

fn mixed_bits(n: usize, salt: usize) -> Vec<u8> {
    (0..n)
        .map(|i| (((i + salt) * 2654435761) >> 7 & 1) as u8)
        .collect()
}

fn wakes(n: usize) -> Vec<(String, WakeSchedule)> {
    let mut out = vec![("simultaneous".to_string(), WakeSchedule::simultaneous(n))];
    for seed in [1, 5, 9] {
        out.push((format!("random({seed})"), WakeSchedule::random(n, seed)));
    }
    out
}

const SIZES: [usize; 7] = [2, 3, 5, 8, 13, 16, 33];

fn backstop(n: usize) -> u64 {
    ((2 * n as u64 + 2) * (2 * n as u64 + 2)).max(10_000)
}

#[test]
fn figure_2_skips_steps_invisibly() {
    for n in SIZES {
        let topology = RingTopology::oriented(n).expect("n >= 2");
        for salt in 0..3 {
            let inputs = mixed_bits(n, salt);
            for (name, wake) in wakes(n) {
                let run = assert_skipping_is_invisible(
                    &topology,
                    &wake,
                    backstop(n),
                    |i| SyncInputDist::new(n, inputs[i]),
                    &format!("fig 2 n={n} inputs={inputs:?} wake={name}"),
                );
                if name == "simultaneous" {
                    assert!(run.outcome.is_ok(), "fig 2 n={n}: {:?}", run.outcome);
                }
            }
        }
    }
}

#[test]
fn figure_4_skips_steps_invisibly() {
    for n in SIZES {
        for salt in 0..3 {
            let bits = mixed_bits(n, salt);
            let topology = RingTopology::from_bits(&bits).expect("n >= 2");
            for (name, wake) in wakes(n) {
                let run = assert_skipping_is_invisible(
                    &topology,
                    &wake,
                    backstop(n),
                    |_| OrientationProc::new(n),
                    &format!("fig 4 n={n} orientation={bits:?} wake={name}"),
                );
                if name == "simultaneous" {
                    assert!(run.outcome.is_ok(), "fig 4 n={n}: {:?}", run.outcome);
                }
            }
        }
    }
}

#[test]
fn figure_5_skips_steps_invisibly() {
    for n in SIZES {
        let topology = RingTopology::oriented(n).expect("n >= 2");
        for (name, wake) in wakes(n) {
            let run = assert_skipping_is_invisible(
                &topology,
                &wake,
                backstop(n),
                |_| StartSync::new(n),
                &format!("fig 5 n={n} wake={name}"),
            );
            assert!(run.outcome.is_ok(), "fig 5 n={n}: {:?}", run.outcome);
        }
    }
}

/// Figure 2 at n = 256 makes O(messages + n log n) steps. Stepping every
/// awake processor every cycle would make n × cycles ≈ 1.1 million.
#[test]
fn figure_2_steps_scale_with_messages_not_cycles() {
    let n = 256usize;
    let topology = RingTopology::oriented(n).expect("n >= 2");
    let inputs = mixed_bits(n, 0);
    let steps = Rc::new(Cell::new(0u64));
    let procs = (0..n)
        .map(|i| Counted {
            inner: SyncInputDist::new(n, inputs[i]),
            steps: Rc::clone(&steps),
        })
        .collect();
    let report = SyncEngine::new(topology, procs)
        .expect("one process per node")
        .run()
        .expect("figure 2 halts");
    let log_n = u64::from(n.ilog2());
    let budget = 4 * (report.messages + n as u64 * log_n);
    assert!(
        steps.get() <= budget,
        "{} steps for {} messages over {} cycles: over 4·(messages + n log n) = {budget}",
        steps.get(),
        report.messages,
        report.cycles
    );
    assert!(
        report.cycles * n as u64 > 20 * budget,
        "the guard must bite"
    );
}

/// The α-synchronizer steps the wrapped process at every simulated cycle;
/// a ported process must come out as it does on the sync engine, where
/// quiet cycles are skipped.
fn assert_synchronized_matches_direct<P>(
    topology: &RingTopology,
    make: impl Fn(usize) -> P,
    what: &str,
) where
    P: SyncProcess + Clone,
{
    let n = topology.n();
    let direct = SyncEngine::new(topology.clone(), (0..n).map(&make).collect())
        .expect("one process per node")
        .run()
        .unwrap_or_else(|e| panic!("{what}: direct run: {e}"));
    let schedulers: [Box<dyn Scheduler>; 2] =
        [Box::new(SynchronizingScheduler), Box::new(FifoScheduler)];
    for mut scheduler in schedulers {
        let procs = (0..n).map(|i| Synchronized::new(make(i))).collect();
        let synchronized = AsyncEngine::new(topology.clone(), procs)
            .expect("one process per node")
            .run(scheduler.as_mut())
            .unwrap_or_else(|e| panic!("{what}: synchronized run: {e}"));
        assert_eq!(synchronized.outputs(), direct.outputs(), "{what}");
        let envelopes: u64 = direct.halt_cycles.iter().map(|h| 2 * (h + 1)).sum();
        assert_eq!(
            synchronized.messages, envelopes,
            "{what}: two envelopes per cycle"
        );
        assert_eq!(
            synchronized.bits,
            2 * envelopes + direct.bits,
            "{what}: payload bits"
        );
    }
}

#[test]
fn ported_processes_survive_the_synchronizer() {
    for n in [2usize, 3, 5, 8, 12] {
        let oriented = RingTopology::oriented(n).expect("n >= 2");
        let inputs = mixed_bits(n, 1);
        assert_synchronized_matches_direct(
            &oriented,
            |i| SyncInputDist::new(n, inputs[i]),
            &format!("fig 2 n={n}"),
        );
        let scrambled = RingTopology::from_bits(&mixed_bits(n, 2)).expect("n >= 2");
        assert_synchronized_matches_direct(
            &scrambled,
            |_| OrientationProc::new(n),
            &format!("fig 4 n={n}"),
        );
        assert_synchronized_matches_direct(
            &oriented,
            |_| StartSync::new(n),
            &format!("fig 5 n={n}"),
        );
    }
}
