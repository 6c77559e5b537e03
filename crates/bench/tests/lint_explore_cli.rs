//! Closed-stdout tests for the `lint` and `explore` CLIs: a reader that
//! goes away early (`lint | head -c0`) ends the run quietly with status
//! 0, not with a "failed printing to stdout" panic.

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
