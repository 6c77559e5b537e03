//! Recorded telemetry runs for the experiment harness.
//!
//! Each helper replays one representative cell of an experiment grid with
//! the full observability stack attached — [`Telemetry`] for the metrics
//! snapshot and [`FlightRecorder`] for the event stream, fanned out over
//! one run — and returns the serialized artifacts. The `experiments`
//! binary writes them as `TELEMETRY_<id>.jsonl` / `.metrics.json`; the
//! `tracer` binary replays the JSONL offline.

use anonring_core::algorithms::async_input_dist::AsyncInputDist;
use anonring_core::algorithms::sync_input_dist::SyncInputDist;
use anonring_sim::r#async::{AsyncEngine, SynchronizingScheduler};
use anonring_sim::runtime::FanOut;
use anonring_sim::sync::SyncEngine;
use anonring_sim::telemetry::{FlightRecorder, Telemetry};
use anonring_sim::RingConfig;

/// The serialized outputs of one recorded run.
#[derive(Debug, Clone)]
pub struct TelemetryArtifacts {
    /// Experiment id the run belongs to (e.g. `"E1"`).
    pub id: &'static str,
    /// JSONL flight-recorder stream (meta line + one line per event).
    pub events_jsonl: String,
    /// Metrics-registry snapshot as JSON.
    pub metrics_json: String,
    /// Total messages of the run (for log lines).
    pub messages: u64,
}

fn mixed_bits(n: usize) -> Vec<u8> {
    // Deterministic, aperiodic-ish bit pattern (same multiplier as the
    // in-crate workload generators).
    (0..n).map(|i| ((i * 2654435761) >> 7 & 1) as u8).collect()
}

/// Records one E1 cell: §4.1 asynchronous input distribution on an
/// oriented ring under the synchronizing adversary.
#[must_use]
pub fn record_e1(n: usize) -> TelemetryArtifacts {
    let config = RingConfig::oriented(mixed_bits(n));
    let mut telemetry = Telemetry::new(n);
    let mut recorder =
        FlightRecorder::new(n, format!("E1 async_input_dist n={n}")).with_engine("sim-async");
    let mut engine = AsyncEngine::from_config(&config, |_, &input| AsyncInputDist::new(n, input));
    {
        let mut fan = FanOut::new().with(&mut telemetry).with(&mut recorder);
        engine
            .run_with_observer(&mut SynchronizingScheduler, &mut fan)
            .expect("E1 run");
    }
    TelemetryArtifacts {
        id: "E1",
        events_jsonl: recorder.to_jsonl(),
        metrics_json: telemetry.registry().to_json(),
        messages: telemetry.messages(),
    }
}

/// Records one E3 cell: Fig. 2 synchronous input distribution.
#[must_use]
pub fn record_e3(n: usize) -> TelemetryArtifacts {
    let config = RingConfig::oriented(mixed_bits(n));
    let mut telemetry = Telemetry::new(n);
    let mut recorder =
        FlightRecorder::new(n, format!("E3 sync_input_dist n={n}")).with_engine("sim-sync");
    let mut engine = SyncEngine::from_config(&config, |_, &input| SyncInputDist::new(n, input));
    {
        let mut fan = FanOut::new().with(&mut telemetry).with(&mut recorder);
        engine.run_with_observer(&mut fan).expect("E3 run");
    }
    TelemetryArtifacts {
        id: "E3",
        events_jsonl: recorder.to_jsonl(),
        metrics_json: telemetry.registry().to_json(),
        messages: telemetry.messages(),
    }
}

/// A nullary telemetry run producing its artifacts.
pub type ArtifactRunner = fn() -> TelemetryArtifacts;

/// The telemetry runs the `experiments` binary writes, as (id, runner)
/// pairs in id order.
#[must_use]
pub fn artifact_runners() -> Vec<(&'static str, ArtifactRunner)> {
    vec![("E1", || record_e1(16)), ("E3", || record_e3(27))]
}

#[cfg(test)]
mod tests {
    use super::{record_e1, record_e3};
    use anonring_sim::telemetry::{Recording, ReplayEvent};

    #[test]
    fn e1_artifacts_replay_and_match_the_paper_count() {
        let artifacts = record_e1(9);
        // §4.1 costs exactly n(n−1) messages.
        assert_eq!(artifacts.messages, 9 * 8);
        let recording = Recording::parse_jsonl(&artifacts.events_jsonl).unwrap();
        assert_eq!(recording.n, 9);
        assert_eq!(recording.messages(), 9 * 8);
        assert_eq!(recording.to_jsonl(), artifacts.events_jsonl);
        // Every send carries a span: n "scatter" sends plus forwards.
        let profile = recording.phase_profile();
        assert!(profile.iter().all(|((phase, _), _)| !phase.is_empty()));
        let scatter: u64 = profile
            .iter()
            .filter(|((phase, _), _)| phase == "scatter")
            .map(|(_, (msgs, _))| msgs)
            .sum();
        assert_eq!(scatter, 2 * 9);
        assert!(artifacts
            .metrics_json
            .contains("\"name\": \"messages_total\""));
    }

    #[test]
    fn e3_artifacts_cover_all_three_phases() {
        let artifacts = record_e3(8);
        let recording = Recording::parse_jsonl(&artifacts.events_jsonl).unwrap();
        let phases: std::collections::BTreeSet<String> = recording
            .events
            .iter()
            .filter_map(|e| match e {
                ReplayEvent::Send { phase, .. } => phase.clone(),
                _ => None,
            })
            .collect();
        assert!(phases.contains("labels"), "{phases:?}");
        assert!(phases.contains("broadcast"), "{phases:?}");
        assert!(artifacts.metrics_json.contains("span_messages"));
    }
}
