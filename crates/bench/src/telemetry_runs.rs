//! Recorded telemetry runs for the experiment harness.
//!
//! [`record`] replays one representative cell of an experiment grid into
//! one [`Recording`] and returns both artifacts read off it: the event
//! stream as JSONL and the metrics snapshot as JSON. The `experiments`
//! binary writes them as `TELEMETRY_<id>.jsonl` / `.metrics.json`; the
//! `tracer` binary replays the JSONL offline.

use anonring_core::algorithms::driver::{mixed_bits, Audited};
use anonring_sim::telemetry::Recording;

/// The serialized outputs of one recorded run.
#[derive(Debug, Clone)]
pub struct TelemetryArtifacts {
    /// Experiment id the run belongs to (e.g. `"E1"`).
    pub id: &'static str,
    /// JSONL event stream (meta line + one line per event).
    pub events_jsonl: String,
    /// Metrics-registry snapshot as JSON.
    pub metrics_json: String,
    /// Total messages of the run (for log lines).
    pub messages: u64,
}

/// Records one cell of experiment `id`: `family` on [`mixed_bits`] inputs
/// as an [`Audited::run_native`] job, tagged with the `engine` it runs on
/// (E1: §4.1 asynchronous input distribution under the synchronizing
/// adversary; E3: Fig. 2 synchronous input distribution).
///
/// # Panics
///
/// Panics if the run fails, which is a bug: every audited family halts.
#[must_use]
pub fn record(id: &'static str, family: Audited, n: usize, engine: &str) -> TelemetryArtifacts {
    let mut recording = Recording::new(n, format!("{id} {family} n={n}")).with_engine(engine);
    family
        .run_native(n, &mixed_bits(n), &mut recording)
        .unwrap_or_else(|e| panic!("{id} run: {e}"));
    TelemetryArtifacts {
        id,
        events_jsonl: recording.to_jsonl(),
        metrics_json: recording.registry().to_json(),
        messages: recording.messages(),
    }
}

/// A nullary telemetry run producing its artifacts.
pub type ArtifactRunner = fn() -> TelemetryArtifacts;

/// The telemetry runs the `experiments` binary writes, as (id, runner)
/// pairs in id order.
#[must_use]
pub fn artifact_runners() -> Vec<(&'static str, ArtifactRunner)> {
    vec![
        ("E1", || {
            record("E1", Audited::AsyncInputDist, 16, "sim-async")
        }),
        ("E3", || {
            record("E3", Audited::SyncInputDist, 27, "sim-sync")
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::record;
    use anonring_core::algorithms::driver::Audited;
    use anonring_sim::telemetry::{Recording, ReplayEvent};

    #[test]
    fn e1_artifacts_replay_and_match_the_paper_count() {
        let artifacts = record("E1", Audited::AsyncInputDist, 9, "sim-async");
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
        let artifacts = record("E3", Audited::SyncInputDist, 8, "sim-sync");
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
