//! Golden test: the recording JSONL format is pinned byte for byte.
//!
//! Downstream tooling (the `tracer` and `audit` binaries, external
//! analysis scripts) parses these artifacts; changing the format requires
//! bumping `RECORDING_VERSION` and updating the expected text here
//! deliberately. The parser reads this version only.

use anonring_sim::port::PortId;
use anonring_sim::runtime::{Observer, SendEvent, Span, TraceEvent};
use anonring_sim::sync::{Emit, Received, Step, SyncEngine, SyncProcess};
use anonring_sim::telemetry::{MetricId, Recording, RECORDING_VERSION};
use anonring_sim::RingTopology;

const GOLDEN_V2: &str = r#"{"type":"meta","version":2,"n":3,"label":"golden \"v2\"","truncated":0}
{"type":"send","t":0,"from":0,"to":1,"port":"left","bits":4,"seq":0,"lam":1,"phase":"labels","round":2}
{"type":"send","t":0,"from":2,"to":1,"port":"right","bits":7,"seq":1,"lam":1}
{"type":"deliver","t":1,"to":1,"port":"left","seq":0,"dropped":false}
{"type":"deliver","t":1,"to":1,"port":"right","seq":1,"dropped":true}
{"type":"send","t":1,"from":1,"to":2,"port":"right","bits":2,"seq":2,"lam":2,"parent":0}
{"type":"halt","t":2,"proc":1}
"#;

fn golden_events() -> Vec<TraceEvent> {
    vec![
        TraceEvent::Send(SendEvent {
            cycle: 0,
            from: 0,
            to: 1,
            port: PortId::LEFT,
            bits: 4,
            seq: 0,
            lamport: 1,
            parent: None,
            span: Some(Span::new("labels", 2)),
        }),
        TraceEvent::Send(SendEvent {
            cycle: 0,
            from: 2,
            to: 1,
            port: PortId::RIGHT,
            bits: 7,
            seq: 1,
            lamport: 1,
            parent: None,
            span: None,
        }),
        TraceEvent::Deliver {
            time: 1,
            to: 1,
            port: PortId::LEFT,
            seq: 0,
            dropped: false,
        },
        TraceEvent::Deliver {
            time: 1,
            to: 1,
            port: PortId::RIGHT,
            seq: 1,
            dropped: true,
        },
        TraceEvent::Send(SendEvent {
            cycle: 1,
            from: 1,
            to: 2,
            port: PortId::RIGHT,
            bits: 2,
            seq: 2,
            lamport: 2,
            parent: Some(0),
            span: None,
        }),
        TraceEvent::Halt {
            time: 2,
            processor: 1,
        },
    ]
}

#[test]
fn serialization_matches_the_golden_text_exactly() {
    assert_eq!(RECORDING_VERSION, 2, "format change requires a new golden");
    let mut recording = Recording::new(3, "golden \"v2\"");
    for event in golden_events() {
        recording.on_event(&event);
    }
    assert_eq!(recording.to_jsonl(), GOLDEN_V2);
}

#[test]
fn golden_text_round_trips_byte_identically() {
    let recording = Recording::parse_jsonl(GOLDEN_V2).unwrap();
    assert_eq!(recording.n, 3);
    assert_eq!(recording.label, "golden \"v2\"");
    assert_eq!(recording.events.len(), 6);
    assert_eq!(recording.to_jsonl(), GOLDEN_V2);
}

/// Malformed causal edges are parse errors with the 1-based line number
/// and a snippet of the offending line, like any other parse failure.
#[test]
fn malformed_causal_edges_report_line_and_snippet() {
    // A parent edge naming a send that never happened.
    let orphan = "{\"type\":\"meta\",\"version\":2,\"n\":2,\"label\":\"bad\",\"truncated\":0}\n\
                  {\"type\":\"send\",\"t\":0,\"from\":0,\"to\":1,\"port\":\"left\",\"bits\":1,\"seq\":0,\"lam\":1}\n\
                  {\"type\":\"send\",\"t\":1,\"from\":1,\"to\":0,\"port\":\"left\",\"bits\":1,\"seq\":1,\"lam\":2,\"parent\":7}\n";
    let err = Recording::parse_jsonl(orphan).unwrap_err();
    assert_eq!(err.line, 3);
    assert!(err.message.contains("\"parent\":7"), "{err}");
    assert!(err.to_string().contains("line 3"), "{err}");
    assert!(err.to_string().contains("(in: "), "snippet shown: {err}");

    // Send sequence numbers must be strictly increasing.
    let out_of_order = "{\"type\":\"meta\",\"version\":2,\"n\":2,\"label\":\"bad\",\"truncated\":0}\n\
                        {\"type\":\"send\",\"t\":0,\"from\":0,\"to\":1,\"port\":\"left\",\"bits\":1,\"seq\":5,\"lam\":1}\n\
                        {\"type\":\"send\",\"t\":1,\"from\":1,\"to\":0,\"port\":\"left\",\"bits\":1,\"seq\":5,\"lam\":2}\n";
    let err = Recording::parse_jsonl(out_of_order).unwrap_err();
    assert_eq!(err.line, 3);
    assert!(err.message.contains("out of order"), "{err}");

    // A delivery of a send that was never recorded.
    let ghost = "{\"type\":\"meta\",\"version\":2,\"n\":2,\"label\":\"bad\",\"truncated\":0}\n\
                 {\"type\":\"deliver\",\"t\":1,\"to\":1,\"port\":\"left\",\"seq\":9,\"dropped\":false}\n";
    let err = Recording::parse_jsonl(ghost).unwrap_err();
    assert_eq!(err.line, 2);
    assert!(err.message.contains("\"seq\":9"), "{err}");
}

/// Truncated recordings (files that say events were cut from their
/// front) skip causal validation: the cut prefix may hold the parents and
/// earlier sequence numbers.
#[test]
fn truncated_recordings_skip_causal_validation() {
    let truncated = "{\"type\":\"meta\",\"version\":2,\"n\":2,\"label\":\"cut\",\"truncated\":3}\n\
                     {\"type\":\"send\",\"t\":4,\"from\":0,\"to\":1,\"port\":\"left\",\"bits\":1,\"seq\":8,\"lam\":9,\"parent\":2}\n";
    let recording = Recording::parse_jsonl(truncated).unwrap();
    assert_eq!(recording.truncated, 3);
    assert_eq!(recording.events.len(), 1);
}

/// A real engine run, recorded live, must round-trip through
/// the replay parser byte-identically too — not just hand-picked events.
#[test]
fn live_run_round_trips_through_the_replay_parser() {
    #[derive(Debug)]
    struct PingRing;
    impl SyncProcess for PingRing {
        type Msg = u8;
        type Output = ();
        fn step(&mut self, cycle: u64, rx: Received<u8>) -> Step<u8, ()> {
            match cycle {
                0 => Step::send_right(1).in_span("ping", 0),
                1 => {
                    let got = rx.from_left.unwrap_or(0);
                    Step::send_right(got + 1).in_span("ping", 1)
                }
                _ => Step::halt(()),
            }
        }
    }
    let n = 4;
    let topology = RingTopology::oriented(n).unwrap();
    let procs = (0..n).map(|_| PingRing).collect();
    let mut engine = SyncEngine::new(topology, procs).unwrap();
    let mut live = Recording::new(n, "live");
    let report = engine.run_with_observer(&mut live).unwrap();
    let jsonl = live.to_jsonl();
    let recording = Recording::parse_jsonl(&jsonl).unwrap();
    assert_eq!(recording.to_jsonl(), jsonl, "byte-identical round-trip");
    // The parsed file reads the same as the live run and its meter.
    assert_eq!(recording, live);
    assert_eq!(recording.messages(), report.messages);
    assert_eq!(recording.bits(), report.bits);
    assert_eq!(recording.registry(), live.registry());
    assert_eq!(
        recording
            .registry()
            .counter(&MetricId::plain("messages_total")),
        report.messages
    );
}
