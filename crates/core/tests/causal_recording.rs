//! A run's causal DAG is the same whether it is built from the live
//! event stream or from the run's recording.
//!
//! `CausalDag::from_events` borrows each send's phase name from its span;
//! `CausalDag::from_recording` owns the names it parsed. Two audited
//! families at n = 16, one per engine, run once with one observer that
//! both collects the live events and feeds a `Recording`; the recording
//! goes through JSONL and back before its DAG is built.

use anonring_core::algorithms::driver::{mixed_bits, Audited};
use anonring_sim::runtime::{Observer, TraceEvent};
use anonring_sim::telemetry::{CausalDag, PathWeight, Recording};

const N: usize = 16;

/// Builds both DAGs of one run and checks they agree.
fn assert_live_matches_recording(family: &str, events: &[TraceEvent], live_recording: &Recording) {
    let recording = Recording::parse_jsonl(&live_recording.to_jsonl()).unwrap();
    let live = CausalDag::from_events(events);
    let replayed = CausalDag::from_recording(&recording);
    assert!(live.len() > N, "{family}: {} sends", live.len());
    assert_eq!(live, replayed, "{family}");
    assert_eq!(live.roots(), replayed.roots(), "{family}");
    for weight in [PathWeight::Hops, PathWeight::Time, PathWeight::Bits] {
        let path = live.critical_path(weight);
        assert!(path.is_some(), "{family} {weight:?}");
        assert_eq!(path, replayed.critical_path(weight), "{family} {weight:?}");
    }
    let path = live.critical_path(PathWeight::Hops);
    assert_eq!(
        live.to_dot(path.as_ref()),
        replayed.to_dot(path.as_ref()),
        "{family}"
    );
}

#[test]
fn async_input_dist_live_and_recorded_dags_agree() {
    let mut events = Vec::new();
    let mut recording = Recording::new(N, "async_input_dist").with_engine("sim-async");
    let report = Audited::AsyncInputDist
        .run_native(N, &mixed_bits(N), &mut |e: &TraceEvent| {
            events.push(*e);
            recording.on_event(e);
        })
        .unwrap();
    assert_eq!(report.messages, (N * (N - 1)) as u64);
    assert_live_matches_recording("async_input_dist", &events, &recording);
}

#[test]
fn start_sync_live_and_recorded_dags_agree() {
    let mut events = Vec::new();
    let mut recording = Recording::new(N, "start_sync").with_engine("sim-sync");
    Audited::StartSync
        .run_native(N, &mixed_bits(N), &mut |e: &TraceEvent| {
            events.push(*e);
            recording.on_event(e);
        })
        .unwrap();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::Send(s) if s.span.is_some())),
        "start_sync annotates its sends"
    );
    assert_live_matches_recording("start_sync", &events, &recording);
}
