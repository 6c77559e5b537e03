//! Telemetry over the runtime's observer stream: one [`Recording`] per
//! run, and the views read off it — a metrics registry, phase-span
//! profiles, the space-time diagram, JSONL export, and causal replay.
//!
//! The layer is strictly downstream of the single send path
//! ([`crate::runtime::LinkFabric`]): every number here is derived from the
//! same [`crate::runtime::TraceEvent`] stream both engines emit, so
//! telemetry can never disagree with [`crate::runtime::CostMeter`] (a
//! property test pins this).
//!
//! Data flow:
//!
//! ```text
//! engine ──TraceEvent──▶ Recording ──▶ to_jsonl() ⇄ parse_jsonl() (replay)
//!                            ├──▶ registry() → MetricsRegistry → to_json()
//!                            ├──▶ render() (space-time diagram)
//!                            └──▶ CausalDag → critical_path() / to_dot()
//! ```
//!
//! A [`Recording`] is an observer that keeps every event; each view is
//! computed from the kept events when asked for, so a live run and a
//! replayed file read the same way. The `tracer` CLI reads files through
//! it.

pub mod causality;
pub mod merge;
mod metrics;
mod recorder;

pub use causality::{CausalDag, CausalNode, CriticalPath, PathWeight};
pub use merge::MergeError;
pub use metrics::{Histogram, MetricId, MetricsRegistry};
pub use recorder::{
    seq_shard, Recording, RecordingError, ReplayEvent, RECORDING_VERSION, SHARD_SEQ_SHIFT,
};

/// Message and bit tallies for one `(phase, round)` span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Messages sent under the span.
    pub messages: u64,
    /// Bits sent under the span.
    pub bits: u64,
}

#[cfg(test)]
mod tests {
    use super::{MetricId, Recording};
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

    fn deliver(time: u64, to: usize, port: PortId, dropped: bool) -> TraceEvent {
        TraceEvent::Deliver {
            time,
            to,
            port,
            seq: 0,
            dropped,
        }
    }

    #[test]
    fn tallies_follow_the_event_stream() {
        let mut t = Recording::new(3, "tallies");
        t.on_event(&send(0, 0, 1, PortId::LEFT, 4));
        t.on_event(&send(0, 2, 1, PortId::RIGHT, 2));
        t.on_event(&deliver(1, 1, PortId::LEFT, false));
        t.on_event(&deliver(1, 1, PortId::RIGHT, true));
        t.on_event(&TraceEvent::Halt {
            time: 2,
            processor: 1,
        });
        assert_eq!(t.messages(), 2);
        assert_eq!(t.bits(), 6);
        let reg = t.registry();
        assert_eq!(reg.counter(&MetricId::plain("deliveries_total")), 1);
        assert_eq!(reg.counter(&MetricId::plain("drops_total")), 1);
        let sent: Vec<u64> = ["0", "1", "2"]
            .iter()
            .map(|p| reg.counter(&MetricId::with_labels("messages_total", &[("proc", p)])))
            .collect();
        assert_eq!(sent, [1, 0, 1]);
        let per_time: Vec<(u64, u64)> = t
            .per_time_activity()
            .iter()
            .map(|row| (row.0, row.1))
            .collect();
        assert_eq!(per_time, [(0, 2), (1, 0), (2, 0)]);
        assert_eq!(t.horizon(), 3);
        assert_eq!(
            reg.gauge(&MetricId::with_labels("halt_time", &[("proc", "1")])),
            Some(2)
        );
        // Unannotated sends fall under the empty phase name.
        assert_eq!(t.phase_profile(), vec![((String::new(), 0), (2, 6))]);
    }

    #[test]
    fn queue_depth_peaks_per_directed_link() {
        let mut t = Recording::new(2, "depth");
        // Two sends land in proc 1's left-port queue before either is
        // consumed: the peak depth is 2 even though the final depth is 0.
        t.on_event(&send(0, 0, 1, PortId::LEFT, 1));
        t.on_event(&send(1, 0, 1, PortId::LEFT, 1));
        t.on_event(&deliver(2, 1, PortId::LEFT, false));
        t.on_event(&deliver(3, 1, PortId::LEFT, false));
        let reg = t.registry();
        let id = MetricId::with_labels("queue_depth_max", &[("to", "1"), ("port", "left")]);
        assert_eq!(reg.gauge(&id), Some(2));
        let other = MetricId::with_labels("queue_depth_max", &[("to", "0"), ("port", "left")]);
        assert_eq!(reg.gauge(&other), Some(0));
    }

    #[test]
    fn spans_aggregate_by_phase_and_round() {
        let mut t = Recording::new(2, "spans");
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
        assert_eq!(
            profile,
            vec![
                ((String::new(), 0), (1, 1)),
                (("labels".to_string(), 1), (2, 6)),
                (("labels".to_string(), 2), (1, 3)),
            ]
        );
        // The registry lists annotated spans only.
        let reg = t.registry();
        let span = |round: &str| {
            let labels: &[(&str, &str)] = &[("phase", "labels"), ("round", round)];
            (
                reg.counter(&MetricId::with_labels("span_messages", labels)),
                reg.counter(&MetricId::with_labels("span_bits", labels)),
            )
        };
        assert_eq!([span("1"), span("2")], [(2, 6), (1, 3)]);
        assert_eq!(
            reg.counters()
                .filter(|(id, _)| id.name == "span_messages")
                .count(),
            2
        );
    }

    #[test]
    fn registry_snapshot_reflects_totals() {
        let mut t = Recording::new(2, "totals");
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
        assert_eq!(reg.gauge(&MetricId::plain("run_horizon")), Some(2));
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
