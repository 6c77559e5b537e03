//! End-to-end tests for the `audit` CLI: the regression gate must fail
//! loudly (nonzero exit, named cells) on a seeded cost inflation, and the
//! `run`/`fit` pipeline must work against a real measured sweep.

use std::path::PathBuf;
use std::process::{Command, Output};

use anonring_bench::audit::{Trajectory, DEFAULT_GRID};

mod common;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn audit(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_audit"))
        .args(args)
        .output()
        .expect("spawn audit")
}

fn synthetic_trajectory(revision: &str, messages_at_64: u64) -> String {
    format!(
        r#"{{
  "schema": 1,
  "snapshots": [
    {{
      "revision": "{revision}",
      "algorithms": [
        {{
          "algorithm": "sync_input_dist",
          "theorem": "n-log-n",
          "cells": [
            {{"n": 16, "messages": 200, "bits": 800, "time": 20, "critical_path": 18}},
            {{"n": 64, "messages": {messages_at_64}, "bits": 4800, "time": 90, "critical_path": 80}}
          ]
        }}
      ]
    }}
  ]
}}
"#
    )
}

/// The seeded-regression criterion: inflate one metered cost in an
/// otherwise identical snapshot and the gate must exit nonzero naming the
/// offending cell.
#[test]
fn diff_gate_fails_on_a_seeded_cost_inflation() {
    let dir = scratch_dir("audit-gate-seeded");
    let old = dir.join("old.json");
    let new = dir.join("new.json");
    std::fs::write(&old, synthetic_trajectory("base", 1200)).expect("write old");
    std::fs::write(&new, synthetic_trajectory("inflated", 1500)).expect("write new");

    let out = audit(&[
        "diff",
        old.to_str().expect("utf-8"),
        new.to_str().expect("utf-8"),
    ]);
    assert!(!out.status.success(), "inflated cost must fail the gate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("sync_input_dist n=64 messages: 1200 -> 1500"),
        "{stderr}"
    );
    assert!(stderr.contains("+25.0%"), "{stderr}");

    // The same pair passes under a generous tolerance…
    let out = audit(&[
        "diff",
        old.to_str().expect("utf-8"),
        new.to_str().expect("utf-8"),
        "--tolerance",
        "30",
    ]);
    assert!(out.status.success(), "{out:?}");

    // …and identical snapshots are always clean.
    let out = audit(&[
        "diff",
        old.to_str().expect("utf-8"),
        old.to_str().expect("utf-8"),
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("no deterministic cost regressed"));
}

#[test]
fn diff_reports_wall_clock_as_warning_only() {
    let dir = scratch_dir("audit-gate-wall");
    let with_wall = |wall: u64| {
        synthetic_trajectory("w", 1200).replace(
            "\"critical_path\": 80}",
            &format!("\"critical_path\": 80, \"wall_ms\": {wall}}}"),
        )
    };
    let old = dir.join("old.json");
    let new = dir.join("new.json");
    std::fs::write(&old, with_wall(10)).expect("write old");
    std::fs::write(&new, with_wall(500)).expect("write new");
    let out = audit(&[
        "diff",
        old.to_str().expect("utf-8"),
        new.to_str().expect("utf-8"),
    ]);
    assert!(out.status.success(), "wall clock must not gate: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("warning:"), "{stdout}");
    assert!(stdout.contains("wall_ms: 10 -> 500"), "{stdout}");
}

/// An algorithm only the new trajectory holds cannot be gated against the
/// baseline; the gate still passes but names each of its cells.
#[test]
fn diff_names_rows_only_the_new_trajectory_holds() {
    let dir = scratch_dir("audit-gate-new-rows");
    let old = dir.join("old.json");
    let new = dir.join("new.json");
    std::fs::write(&old, synthetic_trajectory("base", 1200)).expect("write old");
    let with_sync_and = synthetic_trajectory("wider", 1200).replace(
        "        }\n      ]",
        r#"        },
        {
          "algorithm": "sync_and",
          "theorem": "linear",
          "cells": [
            {"n": 16, "messages": 40, "bits": 40, "time": 30, "critical_path": 17}
          ]
        }
      ]"#,
    );
    assert!(with_sync_and.contains("sync_and"), "{with_sync_and}");
    std::fs::write(&new, with_sync_and).expect("write new");
    let out = audit(&[
        "diff",
        old.to_str().expect("utf-8"),
        new.to_str().expect("utf-8"),
    ]);
    assert!(out.status.success(), "a new row must not gate: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("warning: sync_and n=16 new in this snapshot (ungated)"),
        "{stdout}"
    );
    assert!(
        stdout.contains("no deterministic cost regressed"),
        "{stdout}"
    );
}

#[test]
fn malformed_trajectories_and_usage_errors_exit_nonzero() {
    let dir = scratch_dir("audit-gate-bad");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"schema\": 99, \"snapshots\": []}").expect("write bad");
    let out = audit(&["fit", "--trajectory", bad.to_str().expect("utf-8")]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("schema 99"));

    let out = audit(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = audit(&["run"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--revision"));

    let out = audit(&["diff", "only-one.json"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("exactly two"));
}

/// `run` then `fit` on a real (small-grid) sweep: the measured curves
/// must match the paper's theorems, and re-running with the same
/// revision label must upsert rather than append.
#[test]
fn run_then_fit_roundtrip_on_a_small_grid() {
    let dir = scratch_dir("audit-run-fit");
    let path = dir.join("trajectory.json");
    let path_str = path.to_str().expect("utf-8");
    let out = audit(&[
        "run",
        "--revision",
        "test-a",
        "--trajectory",
        path_str,
        "--grid",
        "16,32,64",
    ]);
    assert!(out.status.success(), "{out:?}");
    let out = audit(&[
        "run",
        "--revision",
        "test-a",
        "--trajectory",
        path_str,
        "--grid",
        "16,32,64",
    ]);
    assert!(out.status.success(), "{out:?}");
    let trajectory = Trajectory::parse(&std::fs::read_to_string(&path).expect("read")).unwrap();
    assert_eq!(trajectory.snapshots.len(), 1, "same revision must upsert");
    assert_eq!(trajectory.latest().unwrap().algorithms.len(), 6);

    let out = audit(&["fit", "--trajectory", path_str]);
    assert!(
        out.status.success(),
        "fit must match the theorems: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("every measured curve matches its theorem"),
        "{stdout}"
    );
    assert!(stdout.contains("exact-n(n-1)"), "{stdout}");

    // Nothing in the DEFAULT_GRID constant drifted under this test's nose:
    // the committed baseline and CI use it.
    assert_eq!(DEFAULT_GRID.len(), 5);
}

/// A reader that goes away early (`audit fit … | head -c0`) ends `fit`
/// and `diff` quietly with status 0, not with a "failed printing to
/// stdout" panic.
#[test]
fn fit_and_diff_end_quietly_when_stdout_closes() {
    let trajectory = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trajectory.json");
    common::assert_quiet_on_closed_stdout(Command::new(env!("CARGO_BIN_EXE_audit")).args([
        "fit",
        "--trajectory",
        trajectory,
    ]));
    common::assert_quiet_on_closed_stdout(
        Command::new(env!("CARGO_BIN_EXE_audit")).args(["diff", trajectory, trajectory]),
    );
}

/// A closed stdout drops the output, not the verdict: `diff` on a seeded
/// cost inflation still fails, and `run` still writes its trajectory.
#[test]
fn a_closed_stdout_keeps_the_gate_verdict_and_the_written_file() {
    let dir = scratch_dir("audit-closed-stdout-verdict");
    let old = dir.join("old.json");
    let new = dir.join("new.json");
    std::fs::write(&old, synthetic_trajectory("base", 1200)).expect("write old");
    std::fs::write(&new, synthetic_trajectory("inflated", 1500)).expect("write new");
    let out = common::run_with_closed_stdout(Command::new(env!("CARGO_BIN_EXE_audit")).args([
        "diff",
        old.to_str().expect("utf-8"),
        new.to_str().expect("utf-8"),
    ]));
    assert!(!out.status.success(), "inflated cost must fail the gate");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("sync_input_dist n=64 messages"),
        "{out:?}"
    );

    let path = dir.join("trajectory.json");
    let _ = std::fs::remove_file(&path);
    common::assert_quiet_on_closed_stdout(Command::new(env!("CARGO_BIN_EXE_audit")).args([
        "run",
        "--revision",
        "closed",
        "--trajectory",
        path.to_str().expect("utf-8"),
        "--grid",
        "16,32",
    ]));
    let trajectory = Trajectory::parse(&std::fs::read_to_string(&path).expect("read")).unwrap();
    assert_eq!(trajectory.latest().unwrap().revision, "closed");
}
