//! End-to-end tests for the `experiments` CLI's argument handling.

use std::path::PathBuf;
use std::process::Command;

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
