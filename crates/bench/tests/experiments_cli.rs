//! End-to-end tests for the `experiments` CLI's argument handling.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn an_unknown_id_fails_before_anything_runs_or_is_written() {
    let dir = scratch_dir("experiments-unknown-id");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["e1", "E99"])
        .current_dir(&dir)
        .output()
        .expect("spawn experiments");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("E99"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing ran");
    let written: Vec<_> = std::fs::read_dir(&dir).expect("list dir").collect();
    assert!(written.is_empty(), "no file written: {written:?}");
}

#[test]
fn a_filtered_run_leaves_the_sweep_file_alone() {
    let dir = scratch_dir("experiments-filtered");
    let sweep = dir.join("BENCH_sweep.json");
    std::fs::write(&sweep, "full sweep\n").expect("seed the sweep file");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("E1")
        .current_dir(&dir)
        .output()
        .expect("spawn experiments");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("E1"), "the E1 table ran: {stdout}");
    assert_eq!(
        std::fs::read_to_string(&sweep).expect("read the sweep file"),
        "full sweep\n",
        "a filtered run must not overwrite the full sweep"
    );
    assert!(
        dir.join("TELEMETRY_E1.jsonl").exists(),
        "telemetry artifacts follow the filter"
    );
}

/// A reader that goes away early (`experiments E1 | head -1`) ends the
/// run quietly with status 0, not with a "failed printing to stdout"
/// panic.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let dir = scratch_dir("experiments-closed-stdout");
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("E1")
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn experiments");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{out:?}");
}
