//! Golden test: the `BENCH_trajectory.json` schema is pinned byte for
//! byte (same contract as `flight_recorder_golden` in `crates/sim`).
//!
//! The regression gate diffs trajectory files across revisions, so the
//! serialization must stay stable; changing it requires bumping
//! `TRAJECTORY_SCHEMA` and updating the expected text here deliberately.
//! Both committed artifacts, `BENCH_trajectory.json` and
//! `BENCH_serving.json`, must also re-serialize to their exact bytes.

use anonring_bench::audit::{
    AlgorithmRun, AuditCell, Snapshot, Theorem, Trajectory, TRAJECTORY_SCHEMA,
};
use anonring_bench::load::ServingTrajectory;

const GOLDEN: &str = r#"{
  "schema": 1,
  "snapshots": [
    {
      "revision": "baseline",
      "algorithms": [
        {
          "algorithm": "async_input_dist",
          "theorem": "exact-n(n-1)",
          "cells": [
            {"n": 16, "messages": 240, "bits": 1018, "time": 8, "critical_path": 8},
            {"n": 32, "messages": 992, "bits": 4446, "time": 16, "critical_path": 16}
          ]
        },
        {
          "algorithm": "sync_and",
          "theorem": "linear",
          "cells": [
            {"n": 16, "messages": 18, "bits": 18, "time": 9, "critical_path": 2}
          ]
        }
      ]
    },
    {
      "revision": "pr-5",
      "algorithms": [
        {
          "algorithm": "sync_and",
          "theorem": "linear",
          "cells": [
            {"n": 16, "messages": 18, "bits": 18, "time": 9, "critical_path": 2, "wall_ms": 3}
          ]
        }
      ]
    }
  ]
}
"#;

fn cell(n: u64, messages: u64, bits: u64, time: u64, critical_path: u64) -> AuditCell {
    AuditCell {
        n,
        messages,
        bits,
        time,
        critical_path,
        wall_ms: None,
    }
}

fn golden_trajectory() -> Trajectory {
    let mut timed = cell(16, 18, 18, 9, 2);
    timed.wall_ms = Some(3);
    Trajectory {
        snapshots: vec![
            Snapshot {
                revision: "baseline".into(),
                algorithms: vec![
                    AlgorithmRun {
                        algorithm: "async_input_dist".into(),
                        theorem: Theorem::ExactQuadratic,
                        cells: vec![cell(16, 240, 1018, 8, 8), cell(32, 992, 4446, 16, 16)],
                    },
                    AlgorithmRun {
                        algorithm: "sync_and".into(),
                        theorem: Theorem::Linear,
                        cells: vec![cell(16, 18, 18, 9, 2)],
                    },
                ],
            },
            Snapshot {
                revision: "pr-5".into(),
                algorithms: vec![AlgorithmRun {
                    algorithm: "sync_and".into(),
                    theorem: Theorem::Linear,
                    cells: vec![timed],
                }],
            },
        ],
    }
}

#[test]
fn serialization_matches_the_golden_text_exactly() {
    assert_eq!(TRAJECTORY_SCHEMA, 1, "schema change requires a new golden");
    assert_eq!(golden_trajectory().to_json(), GOLDEN);
}

#[test]
fn golden_text_round_trips() {
    let parsed = Trajectory::parse(GOLDEN).unwrap();
    assert_eq!(parsed, golden_trajectory());
    assert_eq!(parsed.to_json(), GOLDEN);
}

/// The committed baseline at the repo root must stay parseable and carry
/// at least one snapshot of every audited algorithm.
#[test]
fn committed_baseline_parses() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trajectory.json");
    let text = std::fs::read_to_string(path).expect("read committed BENCH_trajectory.json");
    let trajectory = Trajectory::parse(&text).expect("parse committed baseline");
    let latest = trajectory.latest().expect("baseline holds a snapshot");
    let names: Vec<&str> = latest
        .algorithms
        .iter()
        .map(|a| a.algorithm.as_str())
        .collect();
    for required in [
        "async_input_dist",
        "sync_input_dist",
        "orientation",
        "start_sync",
        "sync_and",
        "dyn_broadcast",
    ] {
        assert!(names.contains(&required), "{names:?} missing {required}");
    }
    // The committed artifact is deterministic: no wall clocks.
    assert!(
        !text.contains("wall_ms"),
        "committed baseline must not carry wall-clock samples"
    );
    // And byte-stable under a parse -> serialize round trip.
    assert_eq!(trajectory.to_json(), text);
}

fn committed(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The committed `BENCH_trajectory.json` re-serializes to its exact bytes.
#[test]
fn committed_trajectory_round_trips_byte_for_byte() {
    let text = committed("BENCH_trajectory.json");
    let parsed = Trajectory::parse(&text).expect("parse committed trajectory");
    assert_eq!(parsed.to_json(), text);
}

/// The committed `BENCH_serving.json` re-serializes to its exact bytes.
#[test]
fn committed_serving_round_trips_byte_for_byte() {
    let text = committed("BENCH_serving.json");
    let parsed = ServingTrajectory::parse(&text).expect("parse committed serving artifact");
    assert_eq!(parsed.to_json(), text);
}
