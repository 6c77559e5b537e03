//! Telemetry over the runtime's observer stream: a metrics registry,
//! phase-span profiles, a JSONL flight recorder, and causal replay.
//!
//! The layer is strictly downstream of the single send path
//! ([`crate::runtime::LinkFabric`]): every number here is derived from the
//! same [`TraceEvent`] stream both engines emit, so telemetry can never
//! disagree with [`crate::runtime::CostMeter`] (a property test pins
//! this).
//!
//! Data flow:
//!
//! ```text
//! engine ──TraceEvent──▶ Telemetry (hot Vec tallies, no allocation)
//!                   │         └─▶ registry() → MetricsRegistry → to_json()
//!                   ├────▶ FlightRecorder → to_jsonl() ⇄ Recording (replay)
//!                   └────▶ CausalDag → critical_path() / to_dot()
//! ```
//!
//! [`Telemetry`] is the *aggregating* observer: it keeps plain vectors
//! indexed by processor / directed link / time on the hot path and folds
//! them into a labelled [`MetricsRegistry`] only when a snapshot is
//! requested. [`FlightRecorder`] is the *recording* observer: it keeps
//! the raw events (optionally in a bounded ring buffer) for JSONL export
//! and offline replay by the `tracer` CLI. Run both at once with
//! [`crate::runtime::FanOut`].

pub mod causality;
pub mod merge;
mod metrics;
mod recorder;

pub use causality::{CausalDag, CausalNode, CriticalPath, PathWeight};
pub use merge::MergeError;
pub use metrics::{Histogram, MetricId, MetricsRegistry};
pub use recorder::{
    seq_shard, FlightRecorder, Recording, RecordingError, ReplayEvent, RECORDING_VERSION,
    SHARD_SEQ_SHIFT,
};

use std::collections::BTreeMap;

use crate::port::PortId;
use crate::runtime::{Observer, Span, TraceEvent};

/// Message and bit tallies for one `(phase, round)` span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Messages sent under the span.
    pub messages: u64,
    /// Bits sent under the span.
    pub bits: u64,
}

/// The aggregating telemetry observer.
///
/// Hot-path updates touch only pre-sized vectors (per processor, per
/// directed link) plus one `BTreeMap` entry per *distinct* span — no
/// per-event label formatting. Fold into a [`MetricsRegistry`] with
/// [`Telemetry::registry`].
#[derive(Debug, Clone)]
pub struct Telemetry {
    n: usize,
    messages: u64,
    bits: u64,
    deliveries: u64,
    drops: u64,
    per_proc_sent: Vec<u64>,
    per_proc_sent_bits: Vec<u64>,
    per_proc_received: Vec<u64>,
    per_time_messages: Vec<u64>,
    /// Current queue depth per directed link, indexed `[to][port]`; the
    /// per-processor vectors grow with the highest port observed (every
    /// processor starts with the ring's two).
    inflight: Vec<Vec<u64>>,
    max_inflight: Vec<Vec<u64>>,
    halt_times: Vec<Option<u64>>,
    spans: BTreeMap<Span, SpanStats>,
    unspanned: SpanStats,
}

impl Telemetry {
    /// Telemetry for a ring of `n` processors.
    #[must_use]
    pub fn new(n: usize) -> Telemetry {
        Telemetry {
            n,
            messages: 0,
            bits: 0,
            deliveries: 0,
            drops: 0,
            per_proc_sent: vec![0; n],
            per_proc_sent_bits: vec![0; n],
            per_proc_received: vec![0; n],
            per_time_messages: Vec::new(),
            inflight: vec![vec![0; 2]; n],
            max_inflight: vec![vec![0; 2]; n],
            halt_times: vec![None; n],
            spans: BTreeMap::new(),
            unspanned: SpanStats::default(),
        }
    }

    /// Ring size this observer was sized for.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total messages observed.
    #[must_use]
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total bits observed.
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Messages consumed by a live receiver.
    #[must_use]
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Messages discarded because the receiver had halted.
    #[must_use]
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Messages sent per time index (index 0 = cycle/epoch 0); extends
    /// through the latest event of any kind, zeros included.
    #[must_use]
    pub fn per_time_messages(&self) -> &[u64] {
        &self.per_time_messages
    }

    /// Messages sent by each processor.
    #[must_use]
    pub fn per_proc_sent(&self) -> &[u64] {
        &self.per_proc_sent
    }

    /// Halt time per processor (`None` when it never halted).
    #[must_use]
    pub fn halt_times(&self) -> &[Option<u64>] {
        &self.halt_times
    }

    /// Per-span traffic, sorted by `(phase, round)`; sends with no span
    /// are excluded (see [`Telemetry::unspanned`]).
    #[must_use]
    pub fn phase_profile(&self) -> Vec<(Span, SpanStats)> {
        self.spans.iter().map(|(&s, &v)| (s, v)).collect()
    }

    /// Traffic from sends that carried no span annotation.
    #[must_use]
    pub fn unspanned(&self) -> SpanStats {
        self.unspanned
    }

    /// Messages summed over every round of the named phase.
    #[must_use]
    pub fn phase_messages(&self, phase: &str) -> u64 {
        self.spans
            .iter()
            .filter(|(s, _)| s.phase == phase)
            .map(|(_, v)| v.messages)
            .sum()
    }

    /// Ensures the per-link vectors of `to` cover `port` (higher-degree
    /// topologies reveal their ports through the event stream).
    fn grow_link(&mut self, to: usize, port: PortId) {
        let need = port.index() + 1;
        if self.inflight[to].len() < need {
            self.inflight[to].resize(need, 0);
            self.max_inflight[to].resize(need, 0);
        }
    }

    fn note_time(&mut self, time: u64) {
        let idx = time as usize;
        if self.per_time_messages.len() <= idx {
            self.per_time_messages.resize(idx + 1, 0);
        }
    }

    /// Folds the tallies into a labelled registry snapshot.
    ///
    /// Counters: `messages_total`, `bits_total`, `deliveries_total`,
    /// `drops_total` (plain and per `proc`/`span` where meaningful).
    /// Gauges: `halt_time{proc}`, `halted_total`, `queue_depth_max{to,port}`,
    /// `run_horizon`. Histograms: `messages_per_time`, `sent_per_proc`.
    #[must_use]
    pub fn registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.add_counter(MetricId::plain("messages_total"), self.messages);
        reg.add_counter(MetricId::plain("bits_total"), self.bits);
        reg.add_counter(MetricId::plain("deliveries_total"), self.deliveries);
        reg.add_counter(MetricId::plain("drops_total"), self.drops);
        for i in 0..self.n {
            let proc = i.to_string();
            let labels: &[(&str, &str)] = &[("proc", &proc)];
            reg.add_counter(
                MetricId::with_labels("messages_total", labels),
                self.per_proc_sent[i],
            );
            reg.add_counter(
                MetricId::with_labels("bits_total", labels),
                self.per_proc_sent_bits[i],
            );
            reg.add_counter(
                MetricId::with_labels("received_total", labels),
                self.per_proc_received[i],
            );
            if let Some(t) = self.halt_times[i] {
                reg.set_gauge(
                    MetricId::with_labels("halt_time", labels),
                    i64::try_from(t).unwrap_or(i64::MAX),
                );
            }
        }
        for (span, stats) in &self.spans {
            let round = span.round.to_string();
            let labels: &[(&str, &str)] = &[("phase", span.phase), ("round", &round)];
            reg.add_counter(
                MetricId::with_labels("span_messages", labels),
                stats.messages,
            );
            reg.add_counter(MetricId::with_labels("span_bits", labels), stats.bits);
        }
        for to in 0..self.n {
            for (k, &max) in self.max_inflight[to].iter().enumerate() {
                let to_label = to.to_string();
                let port_label = PortId::new(k as u16).to_string();
                reg.set_gauge(
                    MetricId::with_labels(
                        "queue_depth_max",
                        &[("to", &to_label), ("port", &port_label)],
                    ),
                    i64::try_from(max).unwrap_or(i64::MAX),
                );
            }
        }
        reg.set_gauge(
            MetricId::plain("halted_total"),
            i64::try_from(self.halt_times.iter().flatten().count()).unwrap_or(i64::MAX),
        );
        reg.set_gauge(
            MetricId::plain("run_horizon"),
            i64::try_from(self.per_time_messages.len()).unwrap_or(i64::MAX),
        );
        for &count in &self.per_time_messages {
            reg.observe(MetricId::plain("messages_per_time"), count);
        }
        for &sent in &self.per_proc_sent {
            reg.observe(MetricId::plain("sent_per_proc"), sent);
        }
        reg
    }
}

impl Observer for Telemetry {
    fn on_event(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::Send(s) => {
                self.messages += 1;
                self.bits += s.bits as u64;
                self.per_proc_sent[s.from] += 1;
                self.per_proc_sent_bits[s.from] += s.bits as u64;
                self.note_time(s.cycle);
                self.per_time_messages[s.cycle as usize] += 1;
                self.grow_link(s.to, s.port);
                let link = s.port.index();
                self.inflight[s.to][link] += 1;
                self.max_inflight[s.to][link] =
                    self.max_inflight[s.to][link].max(self.inflight[s.to][link]);
                let stats = match s.span {
                    Some(span) => self.spans.entry(span).or_default(),
                    None => &mut self.unspanned,
                };
                stats.messages += 1;
                stats.bits += s.bits as u64;
            }
            TraceEvent::Deliver {
                time,
                to,
                port,
                seq: _,
                dropped,
            } => {
                self.note_time(time);
                self.grow_link(to, port);
                let link = port.index();
                self.inflight[to][link] = self.inflight[to][link].saturating_sub(1);
                if dropped {
                    self.drops += 1;
                } else {
                    self.deliveries += 1;
                    self.per_proc_received[to] += 1;
                }
            }
            TraceEvent::Halt { time, processor } => {
                self.note_time(time);
                self.halt_times[processor] = Some(time);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{MetricId, SpanStats, Telemetry};
    use crate::json::json_escape;
    use crate::port::PortId;
    use crate::runtime::{Observer, SendEvent, Span, TraceEvent};

    fn send(cycle: u64, from: usize, to: usize, port: PortId, bits: usize) -> TraceEvent {
        TraceEvent::Send(SendEvent {
            cycle,
            from,
            to,
            port,
            bits,
            seq: 0,
            lamport: 1,
            parent: None,
            span: None,
        })
    }

    #[test]
    fn tallies_follow_the_event_stream() {
        let mut t = Telemetry::new(3);
        t.on_event(&send(0, 0, 1, PortId::LEFT, 4));
        t.on_event(&send(0, 2, 1, PortId::RIGHT, 2));
        t.on_event(&TraceEvent::Deliver {
            time: 1,
            to: 1,
            port: PortId::LEFT,
            seq: 0,
            dropped: false,
        });
        t.on_event(&TraceEvent::Deliver {
            time: 1,
            to: 1,
            port: PortId::RIGHT,
            seq: 0,
            dropped: true,
        });
        t.on_event(&TraceEvent::Halt {
            time: 2,
            processor: 1,
        });
        assert_eq!(t.messages(), 2);
        assert_eq!(t.bits(), 6);
        assert_eq!(t.deliveries(), 1);
        assert_eq!(t.drops(), 1);
        assert_eq!(t.per_proc_sent(), &[1, 0, 1]);
        assert_eq!(t.per_time_messages(), &[2, 0, 0]);
        assert_eq!(t.halt_times()[1], Some(2));
        assert_eq!(
            t.unspanned(),
            SpanStats {
                messages: 2,
                bits: 6
            }
        );
    }

    #[test]
    fn queue_depth_peaks_per_directed_link() {
        let mut t = Telemetry::new(2);
        // Two sends land in proc 1's left-port queue before either is
        // consumed: the peak depth is 2 even though the final depth is 0.
        t.on_event(&send(0, 0, 1, PortId::LEFT, 1));
        t.on_event(&send(1, 0, 1, PortId::LEFT, 1));
        t.on_event(&TraceEvent::Deliver {
            time: 2,
            to: 1,
            port: PortId::LEFT,
            seq: 0,
            dropped: false,
        });
        t.on_event(&TraceEvent::Deliver {
            time: 3,
            to: 1,
            port: PortId::LEFT,
            seq: 0,
            dropped: false,
        });
        let reg = t.registry();
        let id = MetricId::with_labels("queue_depth_max", &[("to", "1"), ("port", "left")]);
        assert_eq!(reg.gauge(&id), Some(2));
        let other = MetricId::with_labels("queue_depth_max", &[("to", "0"), ("port", "left")]);
        assert_eq!(reg.gauge(&other), Some(0));
    }

    #[test]
    fn spans_aggregate_by_phase_and_round() {
        let mut t = Telemetry::new(2);
        for round in [1, 1, 2] {
            t.on_event(&TraceEvent::Send(SendEvent {
                cycle: round,
                from: 0,
                to: 1,
                port: PortId::LEFT,
                bits: 3,
                seq: 0,
                lamport: 1,
                parent: None,
                span: Some(Span::new("labels", round)),
            }));
        }
        t.on_event(&send(3, 1, 0, PortId::RIGHT, 1));
        let profile = t.phase_profile();
        assert_eq!(profile.len(), 2);
        assert_eq!(profile[0].0, Span::new("labels", 1));
        assert_eq!(
            profile[0].1,
            SpanStats {
                messages: 2,
                bits: 6
            }
        );
        assert_eq!(t.phase_messages("labels"), 3);
        assert_eq!(t.phase_messages("collect"), 0);
        assert_eq!(t.unspanned().messages, 1);
    }

    #[test]
    fn registry_snapshot_reflects_totals() {
        let mut t = Telemetry::new(2);
        t.on_event(&send(0, 0, 1, PortId::LEFT, 5));
        t.on_event(&TraceEvent::Halt {
            time: 1,
            processor: 0,
        });
        let reg = t.registry();
        assert_eq!(reg.counter(&MetricId::plain("messages_total")), 1);
        assert_eq!(reg.counter(&MetricId::plain("bits_total")), 5);
        assert_eq!(
            reg.counter(&MetricId::with_labels("messages_total", &[("proc", "0")])),
            1
        );
        assert_eq!(
            reg.gauge(&MetricId::with_labels("halt_time", &[("proc", "0")])),
            Some(1)
        );
        assert_eq!(reg.gauge(&MetricId::plain("halted_total")), Some(1));
        let hist = reg
            .histogram(&MetricId::plain("messages_per_time"))
            .unwrap();
        assert_eq!(hist.count, 2); // horizon covers times 0 and 1
    }

    #[test]
    fn escape_covers_json_specials() {
        assert_eq!(json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
