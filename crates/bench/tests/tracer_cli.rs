//! End-to-end tests for the `tracer`, `lint` and `explore` CLIs (ISSUE 3:
//! nonzero exits and stderr diagnostics on bad input must stay covered).

use std::path::PathBuf;
use std::process::{Command, Output};

use anonring_sim::runtime::{Observer, SendEvent, Span, TraceEvent};
use anonring_sim::telemetry::Recording;
use anonring_sim::PortId;

mod common;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn valid_recording() -> String {
    let mut rec = Recording::new(3, "cli-test");
    rec.on_event(&TraceEvent::Send(SendEvent {
        cycle: 1,
        from: 0,
        to: 1,
        port: PortId::LEFT,
        bits: 4,
        seq: 0,
        lamport: 1,
        parent: None,
        span: Some(Span::new("probe", 0)),
    }));
    rec.on_event(&TraceEvent::Deliver {
        time: 1,
        to: 1,
        port: PortId::LEFT,
        seq: 0,
        dropped: false,
    });
    rec.on_event(&TraceEvent::Halt {
        time: 2,
        processor: 1,
    });
    rec.to_jsonl()
}

fn tracer(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tracer"))
        .args(args)
        .output()
        .expect("spawn tracer")
}

#[test]
fn tracer_renders_a_valid_recording() {
    let dir = scratch_dir("tracer-valid");
    let path = dir.join("run.jsonl");
    std::fs::write(&path, valid_recording()).expect("write recording");
    let out = tracer(&[path.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("## summary"), "{stdout}");
    assert!(stdout.contains("messages:   1"), "{stdout}");
}

#[test]
fn tracer_rejects_unparseable_recordings_with_diagnostics() {
    let dir = scratch_dir("tracer-malformed");
    let path = dir.join("bad.jsonl");
    let mut jsonl = valid_recording();
    jsonl.push_str("{\"type\":\"send\",\"t\":broken}\n");
    std::fs::write(&path, &jsonl).expect("write recording");
    let out = tracer(&[path.to_str().expect("utf-8 path")]);
    assert!(!out.status.success(), "must exit nonzero on parse failure");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("tracer:"), "{stderr}");
    // The parse error carries the 1-based line number and a snippet of
    // the offending line (the RecordingError bugfix of this PR).
    let bad_line = jsonl.lines().count();
    assert!(stderr.contains(&format!("line {bad_line}")), "{stderr}");
    assert!(stderr.contains("broken"), "{stderr}");
}

#[test]
fn tracer_rejects_missing_files_and_unknown_sections() {
    let out = tracer(&["/nonexistent/recording.jsonl"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("tracer:"));

    let dir = scratch_dir("tracer-sections");
    let path = dir.join("run.jsonl");
    std::fs::write(&path, valid_recording()).expect("write recording");
    let out = tracer(&[path.to_str().expect("utf-8 path"), "no-such-section"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown section"), "{stderr}");
}

#[test]
fn tracer_summary_includes_the_quantile_table() {
    let dir = scratch_dir("tracer-quantiles");
    let path = dir.join("run.jsonl");
    std::fs::write(&path, valid_recording()).expect("write recording");
    let out = tracer(&[path.to_str().expect("utf-8 path"), "summary"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("| distribution | count | max | mean | p50 | p95 | p99 | p999 |"),
        "{stdout}"
    );
    assert!(stdout.contains("| message bits | 1 | 4 |"), "{stdout}");
    assert!(stdout.contains("| sends per cycle |"), "{stdout}");
}

/// A net-engine recording of one wall-stamped send and its deliver, plus
/// a halt.
fn net_recording() -> String {
    let mut rec = Recording::new(3, "cli-test").with_engine("net");
    rec.on_event(&TraceEvent::Send(SendEvent {
        cycle: 1,
        from: 0,
        to: 1,
        port: PortId::LEFT,
        bits: 4,
        seq: 0,
        lamport: 1,
        parent: None,
        span: Some(Span::new("probe", 0)),
    }));
    rec.on_event(&TraceEvent::Deliver {
        time: 1,
        to: 1,
        port: PortId::LEFT,
        seq: 0,
        dropped: false,
    });
    rec.on_event(&TraceEvent::Halt {
        time: 2,
        processor: 1,
    });
    rec.attach_wall_stamps(&[10, 35, 40]);
    rec.to_jsonl()
}

/// A send at `t = 0` whose deliver and halt sit at `t = 10^14`: a run that
/// spans more cycles than any per-cycle table could hold.
#[test]
fn every_section_reads_a_far_time_recording() {
    const FAR: u64 = 100_000_000_000_000;
    let mut rec = Recording::new(2, "far");
    rec.on_event(&TraceEvent::Send(SendEvent {
        cycle: 0,
        from: 0,
        to: 1,
        port: PortId::LEFT,
        bits: 1,
        seq: 0,
        lamport: 1,
        parent: None,
        span: None,
    }));
    rec.on_event(&TraceEvent::Deliver {
        time: FAR,
        to: 1,
        port: PortId::LEFT,
        seq: 0,
        dropped: false,
    });
    rec.on_event(&TraceEvent::Halt {
        time: FAR,
        processor: 1,
    });
    let dir = scratch_dir("tracer-far");
    let path = dir.join("far.jsonl");
    std::fs::write(&path, rec.to_jsonl()).expect("write recording");
    let path = path.to_str().expect("utf-8 path");
    let section = |name: &str| {
        let out = tracer(&[path, name]);
        assert!(out.status.success(), "{name}: {out:?}");
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let summary = section("summary");
    assert!(
        summary.contains("time span:  0..=100000000000000"),
        "{summary}"
    );
    assert!(
        summary.contains("| sends per cycle | 100000000000001 | 1 |"),
        "{summary}"
    );
    section("phases");
    let profile = section("profile");
    assert!(profile.contains("| 0 | 1 | 0 | 0 | 0 |"), "{profile}");
    assert!(
        profile.contains("| 100000000000000 | 0 | 1 | 0 | 1 |"),
        "{profile}"
    );
    assert!(
        profile.contains("(99999999999999 quiet cycles elided)"),
        "{profile}"
    );
    let diagram = section("diagram");
    assert!(
        diagram.contains("(1 messages over 100000000000001 cycles, 1 of them active)"),
        "{diagram}"
    );
    let critical = section("critical-path");
    assert!(critical.contains("chain:      #0"), "{critical}");
}

#[test]
fn tracer_profile_emits_collapsed_stacks_for_net_recordings() {
    let dir = scratch_dir("tracer-collapsed");
    let path = dir.join("net.jsonl");
    std::fs::write(&path, net_recording()).expect("write recording");
    let out = tracer(&[path.to_str().expect("utf-8 path"), "profile"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("collapsed stacks (pipe to flamegraph.pl):"),
        "{stdout}"
    );
    // First event anchors the wall clock (charged 0); the deliver at 35
    // is charged the 25us since the send at 10. Frame order is
    // phase;algorithm;operation — flamegraph.pl input.
    assert!(stdout.contains("probe;cli-test;send 0"), "{stdout}");
    assert!(stdout.contains("probe;cli-test;deliver 25"), "{stdout}");
    assert!(stdout.contains("top wall-time sinks:"), "{stdout}");
    assert!(
        stdout.contains("| 1 | probe | deliver | 1 | 25 |"),
        "{stdout}"
    );

    // Simulator recordings carry no wall stamps: no collapsed stacks.
    let sim_path = dir.join("sim.jsonl");
    std::fs::write(&sim_path, valid_recording()).expect("write recording");
    let out = tracer(&[sim_path.to_str().expect("utf-8 path"), "profile"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("collapsed stacks"), "{stdout}");
}

#[test]
fn tracer_renders_causal_sections_on_explicit_request_only() {
    let dir = scratch_dir("tracer-causal");
    let path = dir.join("run.jsonl");
    std::fs::write(&path, valid_recording()).expect("write recording");

    // Default output: the original four sections, no causal replay.
    let out = tracer(&[path.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("## critical path"), "{stdout}");
    assert!(!stdout.contains("digraph causal"), "{stdout}");

    let out = tracer(&[path.to_str().expect("utf-8 path"), "critical-path", "dag"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("## critical path"), "{stdout}");
    assert!(stdout.contains("longest chain (by hops):"), "{stdout}");
    assert!(stdout.contains("chain:      #0"), "{stdout}");
    assert!(stdout.contains("| probe | 1 | 4 |"), "{stdout}");
    assert!(stdout.contains("digraph causal"), "{stdout}");
    assert!(stdout.contains("color=red"), "{stdout}");
}

#[test]
fn tracer_rejects_causal_sections_on_version_1_recordings() {
    let dir = scratch_dir("tracer-causal-v1");
    let path = dir.join("v1.jsonl");
    let v1 = "{\"type\":\"meta\",\"version\":1,\"n\":2,\"label\":\"old\",\"truncated\":0}\n\
              {\"type\":\"send\",\"t\":0,\"from\":0,\"to\":1,\"port\":\"left\",\"bits\":2}\n";
    std::fs::write(&path, v1).expect("write recording");

    // Version 1 predates the causal stamps and is no longer read at all:
    // every section, causal or not, fails at the meta line.
    for sections in [&[][..], &["critical-path"][..]] {
        let mut args = vec![path.to_str().expect("utf-8 path")];
        args.extend_from_slice(sections);
        let out = tracer(&args);
        assert!(!out.status.success(), "v1 is rejected: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("line 1: unsupported version 1"), "{stderr}");
    }
}

#[test]
fn lint_cli_flags_a_seeded_violation_and_passes_a_clean_tree() {
    // A miniature repo layout with one seeded anonymity breach.
    let root = scratch_dir("lint-seeded");
    let algos = root.join("crates/core/src/algorithms");
    let sim = root.join("crates/sim/src");
    let net = root.join("crates/net/src");
    let bench = root.join("crates/bench/src");
    std::fs::create_dir_all(&algos).expect("mkdir");
    std::fs::create_dir_all(&sim).expect("mkdir");
    std::fs::create_dir_all(&net).expect("mkdir");
    std::fs::create_dir_all(&bench).expect("mkdir");
    // The serving and cluster paths are linted as single-file roots.
    std::fs::write(bench.join("ringd.rs"), "fn quiet() {}\n").expect("write fixture");
    std::fs::write(bench.join("load.rs"), "fn quiet() {}\n").expect("write fixture");
    std::fs::write(bench.join("cluster.rs"), "fn quiet() {}\n").expect("write fixture");
    std::fs::write(net.join("cluster.rs"), "fn quiet() {}\n").expect("write fixture");
    std::fs::write(net.join("manifest.rs"), "fn quiet() {}\n").expect("write fixture");
    std::fs::write(
        algos.join("bad.rs"),
        "fn make(config: &C) { E::from_config(config, |i, v| P::new(i, v)); }\n",
    )
    .expect("write fixture");

    let out = Command::new(env!("CARGO_BIN_EXE_lint"))
        .args(["--root", root.to_str().expect("utf-8 path")])
        .output()
        .expect("spawn lint");
    assert!(!out.status.success(), "seeded violation must fail the run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("anonymity-breach"), "{stdout}");
    assert!(stdout.contains("bad.rs:1"), "{stdout}");
    // A closed stdout drops the findings, not the failing status.
    let out = common::run_with_closed_stdout(
        Command::new(env!("CARGO_BIN_EXE_lint"))
            .args(["--root", root.to_str().expect("utf-8 path")]),
    );
    assert!(!out.status.success(), "{out:?}");

    std::fs::write(algos.join("bad.rs"), "fn quiet() {}\n").expect("rewrite fixture");
    let out = Command::new(env!("CARGO_BIN_EXE_lint"))
        .args(["--root", root.to_str().expect("utf-8 path")])
        .output()
        .expect("spawn lint");
    assert!(out.status.success(), "clean tree must pass: {out:?}");
}

#[test]
fn explore_smoke_certifies() {
    let dir = scratch_dir("explore-smoke");
    let out = Command::new(env!("CARGO_BIN_EXE_explore"))
        .args([
            "--smoke",
            "--witness-dir",
            dir.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("spawn explore");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("certified"), "{stdout}");
    assert!(stdout.contains("input-dist"), "{stdout}");
}

/// A reader that goes away early (`tracer … | head -1`) ends the tracer
/// quietly with status 0, not with a "failed printing to stdout" panic.
#[test]
fn tracer_ends_quietly_when_stdout_closes() {
    let recording = concat!(env!("CARGO_MANIFEST_DIR"), "/../../TELEMETRY_E3.jsonl");
    common::assert_quiet_on_closed_stdout(Command::new(env!("CARGO_BIN_EXE_tracer")).args([
        recording,
        "critical-path",
        "dag",
    ]));
}

/// Runs the tracer in `dir` on `file`, a path relative to it, so the
/// `# trace:` header names the file as a golden does.
fn tracer_in(dir: &str, file: &str, sections: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tracer"))
        .current_dir(dir)
        .arg(file)
        .args(sections)
        .output()
        .expect("spawn tracer");
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// The space-time diagram of the committed E3 recording, byte for byte.
/// The golden was rendered before the diagram moved onto `Recording`, so
/// it pins the renderer across that move.
#[test]
fn tracer_diagram_of_the_committed_e3_recording_matches_its_golden() {
    assert_eq!(
        tracer_in(ROOT, "TELEMETRY_E3.jsonl", &["diagram"]),
        include_str!("golden/tracer_e3_diagram.txt")
    );
}

/// The default sections on both committed recordings, byte for byte.
/// Pinned before the per-time views went sparse, so they hold the
/// summary, quantile, profile and diagram output across that change.
#[test]
fn tracer_default_sections_of_the_committed_recordings_match_their_goldens() {
    assert_eq!(
        tracer_in(ROOT, "TELEMETRY_E1.jsonl", &[]),
        include_str!("golden/tracer_e1.txt")
    );
    assert_eq!(
        tracer_in(ROOT, "TELEMETRY_E3.jsonl", &[]),
        include_str!("golden/tracer_e3.txt")
    );
}

/// `profile` on the wall-stamped net recording, byte for byte: the
/// per-cycle rows, the quiet count, the collapsed stacks and the sinks.
#[test]
fn tracer_profile_of_a_net_recording_matches_its_golden() {
    let dir = scratch_dir("tracer-net-golden");
    std::fs::write(dir.join("net.jsonl"), net_recording()).expect("write recording");
    assert_eq!(
        tracer_in(dir.to_str().expect("utf-8 path"), "net.jsonl", &["profile"]),
        include_str!("golden/tracer_net_profile.txt")
    );
}
