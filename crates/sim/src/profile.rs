//! In-process hot-path profiler (S26).
//!
//! The probes feed exactly the per-layer rows of the perf ledger
//! (`perfbench`'s `hub.*`, `inbox.dwell_us.*`,
//! `alloc.clone_bytes_per_msg` and `wire.copy_bytes_per_msg`), and
//! nothing else: a series without a reader is not recorded. The
//! simulator engines carry no probe; the model's costs are messages,
//! bits and cycles, which the meters count exactly.
//!
//! Three probe families, all in `anonring-net`:
//!
//! 1. **Hub lock** — acquire-wait and hold duration histograms per
//!    operation ([`HubOp`]) and a contention counter (`try_lock`
//!    misses).
//! 2. **Inbox dwell** — enqueue→drain wall time per port slot in the
//!    net `Inbox`.
//! 3. **Copy accounting** — payload bytes copied by the `Word` codec and
//!    byte volumes through the TCP frame codec.
//!
//! Cost: the module is zero-dep and always compiled; a single relaxed
//! [`AtomicBool`] gates every probe, so the disabled cost is one atomic
//! load per instrumented site. Enabled, each probe adds clock reads.
//! `ringload overhead` gates that enabled cost at under 5% of achieved
//! jobs/s at a fixed open-loop rate, where a server below saturation
//! absorbs it. At saturation it shows: traced `perfbench` runs, which add
//! layer spans on top of the probes, read `trace.overhead` (throughput
//! lost) at about 0.25 on `serve_small` and 0.13 on `cluster3`.
//!
//! All state is process-global atomics: probes never take a lock, never
//! allocate, and are safe from any thread. [`snapshot`] materializes
//! the tallies into a [`MetricsRegistry`], which `ringd` merges into
//! its `{"type":"metrics"}` scrape — so the profile rides the existing
//! JSON and Prometheus surfaces for free. Every metric name is always
//! present in the snapshot (zero-valued when the profiler is off), so
//! dashboards can be built before the first enabled run.
//!
//! Lock discipline note: the profiler observes the hub lock only from
//! *outside* the critical section (wait/hold timers bracket the guard);
//! it never reads hub state itself. anonlint's `lock-discipline` walker
//! is scoped over this module to keep it that way.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::telemetry::{Histogram, MetricId, MetricsRegistry};

/// Hub entry points whose lock acquire/hold times are tracked
/// separately — contention behaviour differs between the send path
/// (every message), the delivery path (every dequeue) and halt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HubOp {
    /// `route_send`: a node emitted a message.
    Send,
    /// `deliver`: a transport handed a message to its destination.
    Deliver,
    /// `halt` / teardown paths.
    Halt,
}

impl HubOp {
    const ALL: [HubOp; 3] = [HubOp::Send, HubOp::Deliver, HubOp::Halt];

    fn index(self) -> usize {
        match self {
            HubOp::Send => 0,
            HubOp::Deliver => 1,
            HubOp::Halt => 2,
        }
    }

    fn label(self) -> &'static str {
        match self {
            HubOp::Send => "send",
            HubOp::Deliver => "deliver",
            HubOp::Halt => "halt",
        }
    }
}

/// The `queue` label of the dwell series; the ledger selects on it.
const INBOX_QUEUE: &str = "inbox";

/// Ports 0..=2 get their own dwell series; everything above folds into
/// a shared `3+` slot so the metric surface stays bounded on wide
/// topologies.
const PORT_SLOTS: usize = 4;

const PORT_LABELS: [&str; PORT_SLOTS] = ["0", "1", "2", "3+"];

fn port_slot(port: usize) -> usize {
    port.min(PORT_SLOTS - 1)
}

/// Lock-free histogram mirror: same power-of-two buckets as
/// [`Histogram`], tallied with relaxed atomics so hot paths never
/// contend on the profiler itself. Materialized via
/// `Histogram::from_parts` at snapshot time.
struct AtomicHistogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; 65],
}

impl AtomicHistogram {
    const fn new() -> AtomicHistogram {
        AtomicHistogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; 65],
        }
    }

    fn observe(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[Histogram::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> Histogram {
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        Histogram::from_parts(
            count,
            self.sum.load(Ordering::Relaxed),
            if count == 0 { 0 } else { min },
            self.max.load(Ordering::Relaxed),
            self.buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        )
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

static LOCK_WAIT: [AtomicHistogram; 3] = [const { AtomicHistogram::new() }; 3];
static LOCK_HOLD: [AtomicHistogram; 3] = [const { AtomicHistogram::new() }; 3];
static INBOX_DWELL: [AtomicHistogram; PORT_SLOTS] = [const { AtomicHistogram::new() }; PORT_SLOTS];

static CONTENTION: AtomicU64 = AtomicU64::new(0);
static WORD_CLONE_BYTES: AtomicU64 = AtomicU64::new(0);
static WIRE_ENCODE_BYTES: AtomicU64 = AtomicU64::new(0);
static WIRE_DECODE_BYTES: AtomicU64 = AtomicU64::new(0);

fn as_us(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
}

/// Turns the profiler on or off process-wide. Probes left in the hot
/// paths cost one relaxed atomic load when off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether probes are currently recording.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every tally. Does not change the enabled gate.
pub fn reset() {
    for h in LOCK_WAIT.iter().chain(&LOCK_HOLD).chain(&INBOX_DWELL) {
        h.reset();
    }
    for counter in [
        &CONTENTION,
        &WORD_CLONE_BYTES,
        &WIRE_ENCODE_BYTES,
        &WIRE_DECODE_BYTES,
    ] {
        counter.store(0, Ordering::Relaxed);
    }
}

/// A wall-clock stamp, taken only when the profiler is enabled. Probe
/// sites hold `Option<Instant>` so the disabled path never calls
/// `Instant::now`.
#[must_use]
pub fn stamp() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Records how long a hub caller waited to acquire the lock.
pub fn record_lock_wait(op: HubOp, since: Option<Instant>) {
    if let Some(since) = since {
        LOCK_WAIT[op.index()].observe(as_us(since.elapsed()));
    }
}

/// Counts one `try_lock` miss — somebody else held the hub lock.
pub fn record_contention() {
    if enabled() {
        CONTENTION.fetch_add(1, Ordering::Relaxed);
    }
}

/// Records enqueue→drain wall time for one parcel through the inbox
/// queue of arrival port `port`.
pub fn record_inbox_dwell(port: usize, enqueued: Instant) {
    INBOX_DWELL[port_slot(port)].observe(as_us(enqueued.elapsed()));
}

/// Counts payload bytes copied when a `Word` crosses the codec.
pub fn record_word_clone_bytes(bytes: u64) {
    if enabled() {
        WORD_CLONE_BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Counts bytes of one TCP frame written (length prefix included).
pub fn record_wire_encode(bytes: u64) {
    if enabled() {
        WIRE_ENCODE_BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Counts bytes of one TCP frame read (length prefix included).
pub fn record_wire_decode(bytes: u64) {
    if enabled() {
        WIRE_DECODE_BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Measures one hub lock hold: created right after the guard is
/// acquired, records the hold duration when dropped. Bind it alongside
/// the guard so it drops just before the unlock.
pub struct HoldTimer {
    op: HubOp,
    from: Option<Instant>,
}

impl HoldTimer {
    /// Starts timing a hold for `op` (no-op when the profiler is off).
    #[must_use]
    pub fn start(op: HubOp) -> HoldTimer {
        HoldTimer { op, from: stamp() }
    }
}

impl Drop for HoldTimer {
    fn drop(&mut self) {
        if let Some(from) = self.from {
            LOCK_HOLD[self.op.index()].observe(as_us(from.elapsed()));
        }
    }
}

/// Materializes every tally into a registry. All metric names are
/// always present — zero-valued histograms and counters when the
/// profiler has not run — so the scrape surface is stable.
#[must_use]
pub fn snapshot() -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    for op in HubOp::ALL {
        reg.put_histogram(
            MetricId::with_labels("hub_lock_wait_us", &[("op", op.label())]),
            LOCK_WAIT[op.index()].snapshot(),
        );
        reg.put_histogram(
            MetricId::with_labels("hub_lock_hold_us", &[("op", op.label())]),
            LOCK_HOLD[op.index()].snapshot(),
        );
    }
    for (dwell, port) in INBOX_DWELL.iter().zip(PORT_LABELS) {
        reg.put_histogram(
            MetricId::with_labels("queue_dwell_us", &[("queue", INBOX_QUEUE), ("port", port)]),
            dwell.snapshot(),
        );
    }
    for (name, counter) in [
        ("hub_lock_contention_total", &CONTENTION),
        ("profile_word_clone_bytes_total", &WORD_CLONE_BYTES),
        ("profile_wire_encode_bytes_total", &WIRE_ENCODE_BYTES),
        ("profile_wire_decode_bytes_total", &WIRE_DECODE_BYTES),
    ] {
        reg.add_counter(MetricId::plain(name), counter.load(Ordering::Relaxed));
    }
    reg.set_gauge(MetricId::plain("profile_enabled"), i64::from(enabled()));
    reg
}

static SESSION_GATE: Mutex<()> = Mutex::new(());

/// Exclusive profiling window for tests: serializes on a process-wide
/// gate, resets all tallies and enables the profiler; disables it on
/// drop. The gate keeps concurrent tests from reading each other's
/// tallies out of the shared statics.
pub struct ProfilerSession {
    _gate: MutexGuard<'static, ()>,
}

/// Opens a [`ProfilerSession`]. Blocks until any other session ends.
#[must_use]
pub fn session() -> ProfilerSession {
    let gate = SESSION_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    reset();
    set_enabled(true);
    ProfilerSession { _gate: gate }
}

impl Drop for ProfilerSession {
    fn drop(&mut self) {
        set_enabled(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every series the snapshot exposes, rendered `name{labels}`.
    fn series(reg: &MetricsRegistry) -> Vec<String> {
        let mut ids: Vec<String> = reg
            .histograms()
            .map(|(id, _)| id.to_string())
            .chain(reg.counters().map(|(id, _)| id.to_string()))
            .chain(reg.gauges().map(|(id, _)| id.to_string()))
            .collect();
        ids.sort();
        ids
    }

    fn count(reg: &MetricsRegistry, name: &'static str, labels: &[(&'static str, &str)]) -> u64 {
        reg.histogram(&MetricId::with_labels(name, labels))
            .map_or(0, |h| h.count)
    }

    /// The snapshot holds exactly the series the perf ledger reads
    /// (`perfbench`'s `hub.*`, `inbox.dwell_us.*`,
    /// `alloc.clone_bytes_per_msg`, `wire.copy_bytes_per_msg`) plus the
    /// `profile_enabled` gauge. A new probe must name its reader here.
    #[test]
    fn the_snapshot_holds_exactly_the_ledger_series() {
        let mut expected: Vec<String> = ["send", "deliver", "halt"]
            .iter()
            .flat_map(|op| {
                [
                    format!("hub_lock_wait_us{{op={op}}}"),
                    format!("hub_lock_hold_us{{op={op}}}"),
                ]
            })
            .chain(
                ["0", "1", "2", "3+"]
                    .iter()
                    .map(|port| format!("queue_dwell_us{{queue=inbox,port={port}}}")),
            )
            .chain(
                [
                    "hub_lock_contention_total",
                    "profile_word_clone_bytes_total",
                    "profile_wire_encode_bytes_total",
                    "profile_wire_decode_bytes_total",
                    "profile_enabled",
                ]
                .map(String::from),
            )
            .collect();
        expected.sort();
        assert_eq!(series(&snapshot()), expected);
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let s = session();
        set_enabled(false);
        assert!(stamp().is_none());
        record_lock_wait(HubOp::Send, stamp());
        record_contention();
        record_word_clone_bytes(16);
        record_wire_encode(100);
        record_wire_decode(100);
        let _ = HoldTimer::start(HubOp::Send);
        let reg = snapshot();
        assert!(reg.counters().all(|(_, value)| value == 0));
        assert!(reg.histograms().all(|(_, h)| h.count == 0));
        assert_eq!(reg.gauge(&MetricId::plain("profile_enabled")), Some(0));
        drop(s);
    }

    #[test]
    fn enabled_probes_tally_into_the_snapshot() {
        let s = session();
        record_lock_wait(HubOp::Send, stamp());
        drop(HoldTimer::start(HubOp::Deliver));
        record_contention();
        record_inbox_dwell(7, Instant::now());
        record_word_clone_bytes(16);
        record_wire_encode(24);
        record_wire_decode(20);
        let reg = snapshot();
        for (name, value) in [
            ("hub_lock_contention_total", 1),
            ("profile_word_clone_bytes_total", 16),
            ("profile_wire_encode_bytes_total", 24),
            ("profile_wire_decode_bytes_total", 20),
        ] {
            assert_eq!(reg.counter(&MetricId::plain(name)), value, "{name}");
        }
        assert_eq!(reg.gauge(&MetricId::plain("profile_enabled")), Some(1));
        assert_eq!(count(&reg, "hub_lock_wait_us", &[("op", "send")]), 1);
        assert_eq!(count(&reg, "hub_lock_hold_us", &[("op", "deliver")]), 1);
        // Port 7 folds into the shared high-port slot.
        assert_eq!(
            count(
                &reg,
                "queue_dwell_us",
                &[("queue", "inbox"), ("port", "3+")]
            ),
            1
        );
        drop(s);
    }

    #[test]
    fn reset_zeroes_all_tallies() {
        let s = session();
        record_contention();
        record_wire_encode(8);
        record_inbox_dwell(0, Instant::now());
        reset();
        let reg = snapshot();
        assert!(reg.counters().all(|(_, value)| value == 0));
        assert!(reg.histograms().all(|(_, h)| h.count == 0));
        drop(s);
    }
}
