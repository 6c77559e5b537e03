//! CLI tests for `lint` and `explore`: a reader that goes away early
//! (`lint | head -c0`) ends the run quietly with status 0, not with a
//! "failed printing to stdout" panic, and an unknown flag is a usage
//! error.

use std::path::PathBuf;
use std::process::Command;

mod common;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

#[test]
fn lint_ends_quietly_when_stdout_closes() {
    let baseline = format!("{ROOT}/anonlint.baseline");
    common::assert_quiet_on_closed_stdout(Command::new(env!("CARGO_BIN_EXE_lint")).args([
        "--root",
        ROOT,
        "--baseline",
        &baseline,
    ]));
}

#[test]
fn explore_ends_quietly_when_stdout_closes() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("explore-closed-stdout");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    common::assert_quiet_on_closed_stdout(Command::new(env!("CARGO_BIN_EXE_explore")).args([
        "--smoke",
        "--witness-dir",
        dir.to_str().expect("utf-8 path"),
    ]));
}

#[test]
fn lint_rejects_an_unknown_flag_with_exit_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_lint"))
        .args(["--root", ROOT, "--bogus"])
        .output()
        .expect("spawn lint");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(stderr.contains("\"--bogus\""), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing is linted");
}
