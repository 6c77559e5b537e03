//! End-to-end tests for `ringload diff`, the 0%-tolerance serving gate
//! over two `BENCH_serving.json` artifacts: any change to a deterministic
//! field fails in either direction, wall-clock growth only warns, and
//! malformed input or usage exits nonzero.

use std::path::PathBuf;
use std::process::{Command, Output};

mod common;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn ringload(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ringload"))
        .args(args)
        .output()
        .expect("spawn ringload")
}

/// A one-snapshot serving artifact with two points; `messages` and
/// `wall_us` apply to the `rate=0 transport=threads` point.
fn serving(revision: &str, messages: u64, wall_us: u64) -> String {
    format!(
        r#"{{
  "schema": 1,
  "snapshots": [
    {{
      "revision": "{revision}",
      "points": [
        {{"rate_per_s": 0, "transport": "threads", "jobs": 24, "ok": 24, "failed": 0, "certified": 24, "messages": {messages}, "bits": 4880, "digest": 6027745731957624, "wall_us": {wall_us}}},
        {{"rate_per_s": 2000, "transport": "tcp", "jobs": 24, "ok": 24, "failed": 0, "certified": 24, "messages": 736, "bits": 4880, "digest": 6027745731957624}}
      ]
    }}
  ]
}}
"#
    )
}

/// Writes `old` and `new` under a scratch dir and runs `diff` on them.
fn diff(tag: &str, old: &str, new: &str) -> Output {
    let dir = scratch_dir(tag);
    let old_path = dir.join("old.json");
    let new_path = dir.join("new.json");
    std::fs::write(&old_path, old).expect("write old");
    std::fs::write(&new_path, new).expect("write new");
    ringload(&[
        "diff",
        old_path.to_str().expect("utf-8"),
        new_path.to_str().expect("utf-8"),
    ])
}

#[test]
fn diff_fails_on_a_seeded_drift_and_names_the_point() {
    let out = diff(
        "ringload-drift",
        &serving("base", 736, 1000),
        &serving("drifted", 737, 1000),
    );
    assert!(!out.status.success(), "a drift must fail the gate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("rate=0 transport=threads messages: 736 -> 737"),
        "{stderr}"
    );

    // Identical artifacts pass.
    let same = serving("base", 736, 1000);
    let out = diff("ringload-same", &same, &same);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn diff_fails_on_a_decrease_because_the_serving_gate_is_exact() {
    let out = diff(
        "ringload-decrease",
        &serving("base", 736, 1000),
        &serving("fewer", 700, 1000),
    );
    assert!(!out.status.success(), "a decrease is a drift too");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("rate=0 transport=threads messages: 736 -> 700"),
        "{stderr}"
    );
}

#[test]
fn diff_reports_wall_clock_growth_as_a_warning_only() {
    let out = diff(
        "ringload-wall",
        &serving("base", 736, 1000),
        &serving("slower", 736, 9000),
    );
    assert!(out.status.success(), "wall clock must not gate: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("warning:"), "{stdout}");
    assert!(stdout.contains("wall_us: 1000 -> 9000"), "{stdout}");
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("drift"),
        "{out:?}"
    );
}

#[test]
fn diff_rejects_a_wrong_schema_and_a_single_file() {
    let out = diff(
        "ringload-schema",
        "{\"schema\": 99, \"snapshots\": []}",
        &serving("base", 736, 1000),
    );
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("schema 99"),
        "{out:?}"
    );

    let out = ringload(&["diff", "only-one.json"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("exactly two"),
        "{out:?}"
    );
}

/// A reader that goes away early (`ringload diff … | head -c0`) ends the
/// gate quietly with status 0, not with a "failed printing to stdout"
/// panic.
#[test]
fn diff_ends_quietly_when_stdout_closes() {
    let serving = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");
    common::assert_quiet_on_closed_stdout(
        Command::new(env!("CARGO_BIN_EXE_ringload")).args(["diff", serving, serving]),
    );
}

/// A closed stdout drops the printed table, not the artifact: `run
/// --out` still writes its snapshot and exits 0.
#[test]
fn run_writes_its_artifact_when_stdout_closes() {
    let path = scratch_dir("ringload-closed-stdout").join("serving.json");
    let _ = std::fs::remove_file(&path);
    common::assert_quiet_on_closed_stdout(Command::new(env!("CARGO_BIN_EXE_ringload")).args([
        "run",
        "--jobs",
        "4",
        "--out",
        path.to_str().expect("utf-8"),
        "--revision",
        "closed",
    ]));
    let written = std::fs::read_to_string(&path).expect("artifact written");
    assert!(written.contains("\"revision\": \"closed\""), "{written}");
}
