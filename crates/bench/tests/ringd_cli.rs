//! End-to-end test of the `ringd` job server binary: a small batch over
//! stdin produces one result line per job, a `"done"` summary, per-job
//! flight recordings that the `tracer` CLI replays (critical path
//! included), and a nonzero exit when a job fails.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use anonring_sim::json::Value;
use anonring_sim::telemetry::{CausalDag, PathWeight, Recording};

mod common;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn ringd(args: &[&str], batch: &str) -> Output {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_ringd"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ringd");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(batch.as_bytes())
        .expect("write batch");
    child.wait_with_output().expect("ringd exits")
}

#[test]
fn a_batch_streams_certified_results_and_replayable_recordings() {
    let dir = scratch_dir("ringd-batch");
    let batch = concat!(
        r#"{"id":"and","algorithm":"sync_and","n":4,"inputs":[1,1,1,1]}"#,
        "\n",
        r#"{"id":"dist","algorithm":"async_input_dist","n":5,"seed":7,"transport":"tcp"}"#,
        "\n",
        r#"{"id":"orient","algorithm":"orientation","n":4}"#,
        "\n"
    );
    let out = ringd(
        &[
            "--workers",
            "2",
            "--record-dir",
            dir.to_str().expect("utf8 path"),
        ],
        batch,
    );
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let lines: Vec<Value> = stdout
        .lines()
        .map(|l| Value::parse(l).unwrap_or_else(|e| panic!("bad line {l:?}: {e}")))
        .collect();
    assert_eq!(lines.len(), 4, "{stdout}");
    let done = lines.last().expect("summary line");
    assert_eq!(done.get("type").and_then(Value::as_str), Some("done"));
    assert_eq!(done.get("ok").and_then(Value::as_u64), Some(3));
    assert_eq!(done.get("failed").and_then(Value::as_u64), Some(0));
    for line in &lines[..3] {
        assert_eq!(line.get("type").and_then(Value::as_str), Some("result"));
        assert_eq!(
            line.get("conformance").and_then(Value::as_str),
            Some("certified")
        );
    }

    // Every job left a v2 recording that parses (causal check included),
    // carries the net engine stamp, and yields a critical path.
    for id in ["and", "dist", "orient"] {
        let path = dir.join(format!("{id}.jsonl"));
        let jsonl =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let rec = Recording::parse_jsonl(&jsonl).unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_eq!(rec.engine, "net", "{id}");
        let dag = CausalDag::from_recording(&rec);
        assert!(dag.critical_path(PathWeight::Hops).is_some(), "{id}");

        // The tracer CLI consumes the wire recording unchanged.
        let tracer = Command::new(env!("CARGO_BIN_EXE_tracer"))
            .args([
                path.to_str().expect("utf8 path"),
                "summary",
                "critical-path",
            ])
            .output()
            .expect("spawn tracer");
        assert!(tracer.status.success(), "{id}");
        let text = String::from_utf8(tracer.stdout).expect("utf8");
        assert!(text.contains("engine:     net"), "{id}: {text}");
        assert!(text.contains("critical path"), "{id}: {text}");
        // Net recordings carry wall stamps, so the summary includes the
        // per-phase send->deliver latency table.
        assert!(text.contains("wall latency"), "{id}: {text}");
        assert!(
            text.contains("| phase | deliveries | p50 | p95 | p99 | p999 | max |"),
            "{id}: {text}"
        );
    }
}

#[test]
fn failed_jobs_surface_on_stdout_and_in_the_exit_code() {
    let batch = concat!(
        r#"{"id":"bad","algorithm":"no_such_algorithm","n":3}"#,
        "\n",
        r#"{"id":"good","algorithm":"start_sync","n":3}"#,
        "\n"
    );
    let out = ringd(&["--workers", "1"], batch);
    assert!(!out.status.success(), "a failed job must fail the batch");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("\"type\":\"error\""), "{stdout}");
    assert!(stdout.contains("unknown algorithm"), "{stdout}");
    assert!(stdout.contains("\"id\":\"good\""), "{stdout}");
    assert!(stdout.contains("\"failed\":1"), "{stdout}");
}

#[test]
fn malformed_and_oversized_lines_error_without_killing_the_stream() {
    let huge = format!(r#"{{"id":"huge","pad":"{}"}}"#, "x".repeat(2048));
    let batch = format!(
        "{}\n{}\n{}\n",
        "this is not json", huge, r#"{"id":"good","algorithm":"sync_and","n":3,"inputs":[1,1,1]}"#,
    );
    let out = ringd(&["--workers", "1", "--max-line-bytes", "1024"], &batch);
    assert!(!out.status.success(), "errored lines must fail the batch");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let lines: Vec<Value> = stdout
        .lines()
        .map(|l| Value::parse(l).unwrap_or_else(|e| panic!("bad line {l:?}: {e}")))
        .collect();
    assert_eq!(lines.len(), 4, "{stdout}");
    // Malformed json and the oversized line each produce a structured
    // error naming the cause...
    assert!(stdout.contains("\"type\":\"error\""), "{stdout}");
    assert!(stdout.contains("exceeds the 1024-byte limit"), "{stdout}");
    // ...and the stream continues: the well-formed job still certifies.
    assert!(stdout.contains("\"id\":\"good\""), "{stdout}");
    assert!(stdout.contains("\"conformance\":\"certified\""), "{stdout}");
    let done = lines.last().expect("summary line");
    assert_eq!(done.get("type").and_then(Value::as_str), Some("done"));
    assert_eq!(done.get("ok").and_then(Value::as_u64), Some(1));
    assert_eq!(done.get("failed").and_then(Value::as_u64), Some(2));
}

#[test]
fn metrics_requests_are_answered_inline_in_both_formats() {
    let batch = concat!(
        r#"{"id":"one","algorithm":"sync_and","n":3,"inputs":[1,0,1]}"#,
        "\n",
        r#"{"type":"metrics"}"#,
        "\n",
        r#"{"type":"metrics","format":"prometheus"}"#,
        "\n"
    );
    let out = ringd(&["--workers", "1"], batch);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let metrics: Vec<Value> = stdout
        .lines()
        .map(|l| Value::parse(l).unwrap_or_else(|e| panic!("bad line {l:?}: {e}")))
        .filter(|v| v.get("type").and_then(Value::as_str) == Some("metrics"))
        .collect();
    assert_eq!(metrics.len(), 2, "{stdout}");

    // JSON form: the full registry snapshot rides in "snapshot".
    let snapshot = metrics[0].get("snapshot").expect("snapshot payload");
    let counters = snapshot
        .get("counters")
        .and_then(Value::as_array)
        .expect("counters array");
    assert!(
        counters.iter().any(|c| {
            c.get("name").and_then(Value::as_str) == Some("ringd_jobs_accepted_total")
        }),
        "{stdout}"
    );

    // The scrape counter sees its own request: the first answer reports 1.
    assert!(
        counters.iter().any(|c| {
            c.get("name").and_then(Value::as_str) == Some("ringd_metrics_scrapes_total")
                && c.get("value").and_then(Value::as_u64) == Some(1)
        }),
        "{stdout}"
    );
    // The S26 profiler series ride the same snapshot — present (if
    // zero-valued) whether or not `--profile` is on.
    let histograms = snapshot
        .get("histograms")
        .and_then(Value::as_array)
        .expect("histograms array");
    for name in ["hub_lock_wait_us", "hub_lock_hold_us", "queue_dwell_us"] {
        assert!(
            histograms
                .iter()
                .any(|h| h.get("name").and_then(Value::as_str) == Some(name)),
            "missing {name:?} in:\n{stdout}"
        );
    }

    // Prometheus form: the exposition text is a JSON-escaped body.
    let body = metrics[1]
        .get("body")
        .and_then(Value::as_str)
        .expect("prometheus body");
    // Only admission-path series are asserted: the request is answered
    // inline by the reader, so whether the job has finished (and its
    // latency histograms exist) is a worker-timing race.
    for needle in [
        "# TYPE ringd_jobs_accepted_total counter",
        "# TYPE ringd_queue_depth gauge",
        "# TYPE ringd_uptime_seconds gauge",
        "# TYPE ringd_metrics_scrapes_total counter",
        "# TYPE hub_lock_wait_us histogram",
        "# TYPE hub_lock_hold_us histogram",
        "# TYPE queue_dwell_us histogram",
        "# TYPE hub_lock_contention_total counter",
        "# TYPE profile_enabled gauge",
        "ringd_jobs_accepted_total 1",
        "ringd_metrics_scrapes_total 2",
        "hub_lock_wait_us_bucket{op=\"send\",le=\"+Inf\"}",
        "queue_dwell_us_bucket{queue=\"inbox\",port=\"3+\",le=\"+Inf\"}",
    ] {
        assert!(body.contains(needle), "missing {needle:?} in:\n{body}");
    }
}

#[test]
fn unknown_flags_exit_with_usage() {
    let out = ringd(&["--bogus"], "");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("usage"), "{stderr}");
}

/// A reader that goes away early ends a cluster shard quietly with
/// status 0 after its run, not with a "failed printing to stdout" panic
/// on the shard result line.
#[test]
fn a_cluster_shard_ends_quietly_when_stdout_closes() {
    let dir = scratch_dir("ringd-closed-stdout");
    // One shard owns the whole ring, so the run needs no peers.
    let manifest = dir.join("manifest.json");
    std::fs::write(
        &manifest,
        r#"{"version":1,"label":"x","algorithm":"sync_and","n":4,"inputs":[1,1,1,1],"seed":0,"capacity":4,"max_delay_us":0,"timeout_ms":5000,"shards":[{"id":0,"addr":"127.0.0.1:0","start":0,"count":4}]}"#,
    )
    .expect("write manifest");
    common::assert_quiet_on_closed_stdout(Command::new(env!("CARGO_BIN_EXE_ringd")).args([
        "--cluster",
        manifest.to_str().expect("utf8"),
        "--shard",
        "0",
    ]));
}
