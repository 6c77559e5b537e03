//! Helpers shared by the CLI suites.

use std::process::{Command, Output, Stdio};

/// Runs `command` with its stdout a pipe whose reader is already gone,
/// as under `<binary> … | head -c0`, so its first write to stdout fails
/// with a broken pipe. Returns its output after asserting that no
/// "failed printing to stdout" panic reached stderr.
pub fn run_with_closed_stdout(command: &mut Command) -> Output {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let out = command
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    out
}

/// [`run_with_closed_stdout`] on a run that must succeed: status 0 and
/// no panic.
pub fn assert_quiet_on_closed_stdout(command: &mut Command) {
    let out = run_with_closed_stdout(command);
    assert!(out.status.success(), "{out:?}");
}
