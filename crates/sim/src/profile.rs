//! In-process hot-path profiler (S26).
//!
//! The ROADMAP's speed pass targets two costs the codebase could not
//! previously *see*: the single `Hub` lock that serializes meter, stamp
//! and trace work per message, and the per-message allocation churn in
//! `Emit` fan-out and the `Wire` codec. This module is the measurement
//! layer those optimizations will be judged against. It is zero-dep and
//! always compiled; a single relaxed [`AtomicBool`] gates every probe,
//! so the disabled cost is one atomic load per instrumented site
//! (measured <5% end-to-end even when *enabled* — see the
//! `PROFILE_overhead.md` report `ringload overhead --out` writes in CI).
//!
//! Three probe families:
//!
//! 1. **Hub lock** — acquire-wait and hold duration histograms per
//!    operation ([`HubOp`]), per-section time inside the critical
//!    region ([`HubSection`]: meter / stamp / trace), a contention
//!    counter (`try_lock` misses) and a longest-hold watermark.
//! 2. **Queue dwell** — enqueue→dequeue wall time per port slot, in
//!    both the sim `LinkFabric` and the net `Inbox` ([`QueueKind`]).
//! 3. **Allocation/copy accounting** — payload fan-out clones in
//!    `Emit`, byte volumes through the `Wire` codec, and frame buffer
//!    growth events.
//!
//! All state is process-global atomics: probes never take a lock, never
//! allocate, and are safe from any thread. [`snapshot`] materializes
//! the tallies into a [`MetricsRegistry`], which `ringd` merges into
//! its `{"type":"metrics"}` scrape — so the profile rides the existing
//! JSON and Prometheus surfaces for free. Every metric name is always
//! present in the snapshot (zero-valued when the profiler is off), so
//! dashboards can be built before the first enabled run.
//!
//! Lock discipline note: the profiler observes the hub lock from
//! *outside* the critical section (wait/hold timers bracket the guard)
//! and from section markers *inside* it; it never reads hub state
//! itself. anonlint's `lock-discipline` walker is scoped over this
//! module to keep it that way.

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

/// Work segments inside the hub critical section. The S21 invariants
/// force meter, stamp and trace updates under one guard; these markers
/// show where that one lock's time actually goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HubSection {
    /// Conservation metering (`CostMeter` updates).
    Meter,
    /// Causal stamping (sequence numbers, wall stamps).
    Stamp,
    /// Trace event append.
    Trace,
}

impl HubSection {
    const ALL: [HubSection; 3] = [HubSection::Meter, HubSection::Stamp, HubSection::Trace];

    fn index(self) -> usize {
        match self {
            HubSection::Meter => 0,
            HubSection::Stamp => 1,
            HubSection::Trace => 2,
        }
    }

    fn label(self) -> &'static str {
        match self {
            HubSection::Meter => "meter",
            HubSection::Stamp => "stamp",
            HubSection::Trace => "trace",
        }
    }
}

/// Which queue a dwell observation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// The sim scheduler's in-flight link fabric.
    Fabric,
    /// The net runtime's per-node inbox.
    Inbox,
}

impl QueueKind {
    const ALL: [QueueKind; 2] = [QueueKind::Fabric, QueueKind::Inbox];

    fn index(self) -> usize {
        match self {
            QueueKind::Fabric => 0,
            QueueKind::Inbox => 1,
        }
    }

    fn label(self) -> &'static str {
        match self {
            QueueKind::Fabric => "fabric",
            QueueKind::Inbox => "inbox",
        }
    }
}

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
static LOCK_SECTION: [AtomicHistogram; 3] = [const { AtomicHistogram::new() }; 3];
static QUEUE_DWELL: [AtomicHistogram; 8] = [const { AtomicHistogram::new() }; 8];

static CONTENTION: AtomicU64 = AtomicU64::new(0);
static HOLD_MAX_US: AtomicU64 = AtomicU64::new(0);
static FANOUT_CLONES: AtomicU64 = AtomicU64::new(0);
static WORD_CLONE_BYTES: AtomicU64 = AtomicU64::new(0);
static WIRE_ENCODE_BYTES: AtomicU64 = AtomicU64::new(0);
static WIRE_DECODE_BYTES: AtomicU64 = AtomicU64::new(0);
static FRAME_GROWTHS: AtomicU64 = AtomicU64::new(0);

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
    for h in &LOCK_WAIT {
        h.reset();
    }
    for h in &LOCK_HOLD {
        h.reset();
    }
    for h in &LOCK_SECTION {
        h.reset();
    }
    for h in &QUEUE_DWELL {
        h.reset();
    }
    CONTENTION.store(0, Ordering::Relaxed);
    HOLD_MAX_US.store(0, Ordering::Relaxed);
    FANOUT_CLONES.store(0, Ordering::Relaxed);
    WORD_CLONE_BYTES.store(0, Ordering::Relaxed);
    WIRE_ENCODE_BYTES.store(0, Ordering::Relaxed);
    WIRE_DECODE_BYTES.store(0, Ordering::Relaxed);
    FRAME_GROWTHS.store(0, Ordering::Relaxed);
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

/// Records enqueue→dequeue wall time for one message through a queue.
pub fn record_queue_dwell(kind: QueueKind, port: usize, enqueued: Option<Instant>) {
    if let Some(enqueued) = enqueued {
        let slot = kind.index() * PORT_SLOTS + port_slot(port);
        QUEUE_DWELL[slot].observe(as_us(enqueued.elapsed()));
    }
}

/// Counts payload clones made while fanning one emission out to
/// `clones` extra ports (the `Emit` copy cost the speed pass targets).
pub fn record_fanout_clones(clones: u64) {
    if enabled() && clones > 0 {
        FANOUT_CLONES.fetch_add(clones, Ordering::Relaxed);
    }
}

/// Counts payload bytes copied when a `Word` crosses the codec.
pub fn record_word_clone_bytes(bytes: u64) {
    if enabled() {
        WORD_CLONE_BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Counts bytes written by `Wire::encode`, plus whether the frame
/// buffer had to grow (a reallocation on the send path).
pub fn record_wire_encode(bytes: u64, grew: bool) {
    if enabled() {
        WIRE_ENCODE_BYTES.fetch_add(bytes, Ordering::Relaxed);
        if grew {
            FRAME_GROWTHS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Counts bytes consumed by `Wire::decode`.
pub fn record_wire_decode(bytes: u64) {
    if enabled() {
        WIRE_DECODE_BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Measures one hub lock hold: created right after the guard is
/// acquired, records hold duration (and the longest-hold watermark)
/// when dropped. Bind it alongside the guard so it drops just before
/// the unlock.
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
            let us = as_us(from.elapsed());
            LOCK_HOLD[self.op.index()].observe(us);
            HOLD_MAX_US.fetch_max(us, Ordering::Relaxed);
        }
    }
}

/// Measures one segment inside the hub critical section.
pub struct SectionTimer {
    section: HubSection,
    from: Option<Instant>,
}

impl SectionTimer {
    /// Starts timing `section` (no-op when the profiler is off).
    #[must_use]
    pub fn begin(section: HubSection) -> SectionTimer {
        SectionTimer {
            section,
            from: stamp(),
        }
    }

    /// Stops the timer and records the segment duration.
    pub fn finish(self) {
        if let Some(from) = self.from {
            LOCK_SECTION[self.section.index()].observe(as_us(from.elapsed()));
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
    for section in HubSection::ALL {
        reg.put_histogram(
            MetricId::with_labels("hub_lock_section_us", &[("section", section.label())]),
            LOCK_SECTION[section.index()].snapshot(),
        );
    }
    for kind in QueueKind::ALL {
        for (slot, port) in PORT_LABELS.iter().enumerate() {
            reg.put_histogram(
                MetricId::with_labels("queue_dwell_us", &[("queue", kind.label()), ("port", port)]),
                QUEUE_DWELL[kind.index() * PORT_SLOTS + slot].snapshot(),
            );
        }
    }
    reg.add_counter(
        MetricId::plain("hub_lock_contention_total"),
        CONTENTION.load(Ordering::Relaxed),
    );
    reg.set_gauge(
        MetricId::plain("hub_lock_hold_max_us"),
        i64::try_from(HOLD_MAX_US.load(Ordering::Relaxed)).unwrap_or(i64::MAX),
    );
    reg.add_counter(
        MetricId::plain("profile_fanout_clones_total"),
        FANOUT_CLONES.load(Ordering::Relaxed),
    );
    reg.add_counter(
        MetricId::plain("profile_word_clone_bytes_total"),
        WORD_CLONE_BYTES.load(Ordering::Relaxed),
    );
    reg.add_counter(
        MetricId::plain("profile_wire_encode_bytes_total"),
        WIRE_ENCODE_BYTES.load(Ordering::Relaxed),
    );
    reg.add_counter(
        MetricId::plain("profile_wire_decode_bytes_total"),
        WIRE_DECODE_BYTES.load(Ordering::Relaxed),
    );
    reg.add_counter(
        MetricId::plain("profile_frame_growths_total"),
        FRAME_GROWTHS.load(Ordering::Relaxed),
    );
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

    #[test]
    fn disabled_probes_record_nothing() {
        let s = session();
        set_enabled(false);
        assert!(stamp().is_none());
        record_lock_wait(HubOp::Send, stamp());
        record_contention();
        record_fanout_clones(3);
        record_wire_encode(100, true);
        let _ = HoldTimer::start(HubOp::Send);
        SectionTimer::begin(HubSection::Meter).finish();
        let reg = snapshot();
        assert_eq!(
            reg.counter(&MetricId::plain("hub_lock_contention_total")),
            0
        );
        assert_eq!(
            reg.counter(&MetricId::plain("profile_fanout_clones_total")),
            0
        );
        assert_eq!(reg.gauge(&MetricId::plain("profile_enabled")), Some(0));
        let wait = MetricId::with_labels("hub_lock_wait_us", &[("op", "send")]);
        let empty: Vec<_> = reg
            .histograms()
            .filter(|(id, h)| **id == wait && h.count == 0)
            .collect();
        assert_eq!(empty.len(), 1, "names registered even when idle");
        drop(s);
    }

    #[test]
    fn enabled_probes_tally_into_the_snapshot() {
        let s = session();
        record_lock_wait(HubOp::Send, stamp());
        {
            let _hold = HoldTimer::start(HubOp::Deliver);
            let t = SectionTimer::begin(HubSection::Stamp);
            t.finish();
        }
        record_contention();
        record_queue_dwell(QueueKind::Inbox, 7, stamp());
        record_fanout_clones(2);
        record_word_clone_bytes(16);
        record_wire_encode(24, true);
        record_wire_decode(24);
        let reg = snapshot();
        assert_eq!(
            reg.counter(&MetricId::plain("hub_lock_contention_total")),
            1
        );
        assert_eq!(
            reg.counter(&MetricId::plain("profile_fanout_clones_total")),
            2
        );
        assert_eq!(
            reg.counter(&MetricId::plain("profile_word_clone_bytes_total")),
            16
        );
        assert_eq!(
            reg.counter(&MetricId::plain("profile_wire_encode_bytes_total")),
            24
        );
        assert_eq!(
            reg.counter(&MetricId::plain("profile_frame_growths_total")),
            1
        );
        assert_eq!(reg.gauge(&MetricId::plain("profile_enabled")), Some(1));
        let by_id = |name: &'static str, labels: &[(&'static str, &str)]| {
            let id = MetricId::with_labels(name, labels);
            reg.histograms()
                .find(|(got, _)| **got == id)
                .map(|(_, h)| h.count)
        };
        assert_eq!(by_id("hub_lock_wait_us", &[("op", "send")]), Some(1));
        assert_eq!(by_id("hub_lock_hold_us", &[("op", "deliver")]), Some(1));
        assert_eq!(
            by_id("hub_lock_section_us", &[("section", "stamp")]),
            Some(1)
        );
        // Port 7 folds into the shared high-port slot.
        assert_eq!(
            by_id("queue_dwell_us", &[("queue", "inbox"), ("port", "3+")]),
            Some(1)
        );
        drop(s);
    }

    #[test]
    fn reset_zeroes_all_tallies() {
        let s = session();
        record_contention();
        record_queue_dwell(QueueKind::Fabric, 0, stamp());
        reset();
        let reg = snapshot();
        assert_eq!(
            reg.counter(&MetricId::plain("hub_lock_contention_total")),
            0
        );
        assert!(reg.histograms().all(|(_, h)| h.count == 0));
        drop(s);
    }
}
