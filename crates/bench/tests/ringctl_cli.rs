//! End-to-end test of the cluster toolchain binaries (S27): `ringctl`
//! launches a 3-shard loopback cluster of `ringd --cluster`
//! subprocesses, certifies the merged run, and leaves artifacts that
//! `tracer merge` reproduces byte for byte and `tracer summary` replays.

use std::path::PathBuf;
use std::process::{Command, Output};

use anonring_sim::json::Value;
use anonring_sim::telemetry::Recording;

mod common;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {binary}: {e}"))
}

/// An unknown flag is a usage error: exit 2 with the usage line, before
/// any cluster is launched.
#[test]
fn ringctl_rejects_an_unknown_flag_with_usage() {
    let out = run(
        env!("CARGO_BIN_EXE_ringctl"),
        &[
            "--algorithm",
            "sync_and",
            "--n",
            "6",
            "--dir",
            "unused",
            "--bogus",
        ],
    );
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(stderr.contains("\"--bogus\""), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing runs");
}

#[test]
fn ringctl_runs_and_certifies_a_three_shard_cluster() {
    let dir = scratch_dir("ringctl-cluster");
    let out = run(
        env!("CARGO_BIN_EXE_ringctl"),
        &[
            "--algorithm",
            "sync_and",
            "--n",
            "6",
            "--shards",
            "3",
            "--dir",
            dir.to_str().expect("utf8 path"),
            "--ringd",
            env!("CARGO_BIN_EXE_ringd"),
        ],
    );
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let summary = Value::parse(stdout.trim()).expect("summary line parses");
    assert_eq!(summary.get("type").and_then(Value::as_str), Some("cluster"));
    assert_eq!(
        summary.get("verdict").and_then(Value::as_str),
        Some("certified")
    );
    assert_eq!(summary.get("shards").and_then(Value::as_u64), Some(3));

    // The artifacts: manifest, three shard recordings, the merged one.
    for name in [
        "manifest.json",
        "shard-0.jsonl",
        "shard-1.jsonl",
        "shard-2.jsonl",
        "merged.jsonl",
    ] {
        assert!(dir.join(name).exists(), "{name} missing");
    }
    let merged = std::fs::read_to_string(dir.join("merged.jsonl")).expect("read merged recording");
    let recording = Recording::parse_jsonl(&merged).expect("merged recording parses");
    assert_eq!(recording.n, 6);
    assert!(recording.shard.is_none(), "merged recording is canonical");

    // `tracer merge` over the same shard files reproduces ringctl's
    // merge byte for byte.
    let remerged = dir.join("remerged.jsonl");
    let out = run(
        env!("CARGO_BIN_EXE_tracer"),
        &[
            "merge",
            "--out",
            remerged.to_str().expect("utf8 path"),
            dir.join("shard-0.jsonl").to_str().expect("utf8"),
            dir.join("shard-1.jsonl").to_str().expect("utf8"),
            dir.join("shard-2.jsonl").to_str().expect("utf8"),
        ],
    );
    assert!(
        out.status.success(),
        "tracer merge: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(&remerged).expect("read remerge"),
        merged,
        "tracer merge and ringctl disagree"
    );

    // The merged recording replays through the tracer's causal sections.
    let out = run(
        env!("CARGO_BIN_EXE_tracer"),
        &[
            dir.join("merged.jsonl").to_str().expect("utf8"),
            "summary",
            "critical-path",
        ],
    );
    assert!(
        out.status.success(),
        "tracer summary: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn tracer_merge_names_a_missing_shard() {
    let dir = scratch_dir("ringctl-missing-shard");
    let out = run(
        env!("CARGO_BIN_EXE_ringctl"),
        &[
            "--algorithm",
            "start_sync",
            "--n",
            "4",
            "--shards",
            "2",
            "--dir",
            dir.to_str().expect("utf8 path"),
            "--ringd",
            env!("CARGO_BIN_EXE_ringd"),
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = run(
        env!("CARGO_BIN_EXE_tracer"),
        &["merge", dir.join("shard-1.jsonl").to_str().expect("utf8")],
    );
    assert!(!out.status.success(), "an incomplete merge must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("shard 0") && stderr.contains("missing"),
        "verdict names the absent shard: {stderr}"
    );
}

#[test]
fn ringd_cluster_mode_rejects_a_bad_shard_id() {
    let dir = scratch_dir("ringd-bad-shard");
    // Any syntactically valid manifest will do; shard 7 is not in it.
    let manifest = dir.join("manifest.json");
    std::fs::write(
        &manifest,
        r#"{"version":1,"label":"x","algorithm":"sync_and","n":4,"inputs":[1,1,1,1],"seed":0,"capacity":4,"max_delay_us":0,"timeout_ms":1000,"shards":[{"id":0,"addr":"127.0.0.1:1","start":0,"count":2},{"id":1,"addr":"127.0.0.1:2","start":2,"count":2}]}"#,
    )
    .expect("write manifest");
    let out = run(
        env!("CARGO_BIN_EXE_ringd"),
        &[
            "--cluster",
            manifest.to_str().expect("utf8"),
            "--shard",
            "7",
        ],
    );
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("shard 7"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A reader that goes away early (`ringctl … | head -c0`) ends the
/// cluster run quietly with status 0, not with a "failed printing to
/// stdout" panic.
#[test]
fn ringctl_ends_quietly_when_stdout_closes() {
    let dir = scratch_dir("ringctl-closed-stdout");
    common::assert_quiet_on_closed_stdout(Command::new(env!("CARGO_BIN_EXE_ringctl")).args([
        "--algorithm",
        "sync_and",
        "--n",
        "6",
        "--shards",
        "3",
        "--dir",
        dir.to_str().expect("utf8 path"),
        "--ringd",
        env!("CARGO_BIN_EXE_ringd"),
    ]));
}
