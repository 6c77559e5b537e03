//! Cluster launch plumbing shared by `ringctl` (the launcher) and
//! `ringd --cluster` (the per-shard driver).
//!
//! A cluster run has three moving parts (DESIGN.md §S27):
//!
//! 1. **The manifest** — one JSON file read by every process,
//!    enumerating the job and the shard map. [`build_manifest`] fills
//!    driver-default inputs *before* the file is written, so every shard
//!    digests identical bytes.
//! 2. **The shard drivers** — `ringd --cluster <manifest> --shard K`,
//!    one per host (loopback subprocesses under `ringctl`). Each prints
//!    one [`shard_result_line`] on stdout and writes its per-shard v2
//!    recording next to the manifest.
//! 3. **The merge** — `ringctl` (or `tracer merge`) interleaves the
//!    shard recordings into the canonical recording and certifies the
//!    run against the async simulator via
//!    [`anonring_net::certify_cluster`].

use std::io::Read as _;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use anonring_core::algorithms::driver::Audited;
use anonring_net::{
    certify_cluster, ClusterCertified, ClusterManifest, ShardReport, ShardSpec, MANIFEST_VERSION,
};
use anonring_sim::json::{json_escape, Value};
use anonring_sim::telemetry::Recording;

/// Launcher-side description of a loopback cluster job.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Which audited algorithm to run.
    pub algorithm: Audited,
    /// Ring size.
    pub n: usize,
    /// How many shards to split it across.
    pub shards: usize,
    /// Delivery-jitter seed.
    pub seed: u64,
    /// Per-link inbox capacity.
    pub capacity: usize,
    /// Delivery-jitter bound, microseconds.
    pub max_delay_us: u64,
    /// Cluster-wide wall-clock budget, milliseconds.
    pub timeout_ms: u64,
    /// Manifest label (free-form, echoed into recordings).
    pub label: String,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            algorithm: Audited::AsyncInputDist,
            n: 6,
            shards: 2,
            seed: 0,
            capacity: 8,
            max_delay_us: 0,
            timeout_ms: 30_000,
            label: "ringctl".to_string(),
        }
    }
}

/// Reserves `count` distinct loopback addresses by binding ephemeral
/// listeners and dropping them.
///
/// # Errors
///
/// A rendered I/O error when the loopback interface refuses a bind.
pub fn free_loopback_addrs(count: usize) -> Result<Vec<String>, String> {
    let listeners: Vec<TcpListener> = (0..count)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("reserve port: {e}")))
        .collect::<Result<_, String>>()?;
    listeners
        .iter()
        .map(|l| {
            l.local_addr()
                .map(|a| a.to_string())
                .map_err(|e| format!("read reserved addr: {e}"))
        })
        .collect()
}

/// Builds a manifest for a loopback cluster: driver-default inputs
/// filled in (so every shard digests identical bytes), processors tiled
/// across shards as evenly as possible, one freshly reserved loopback
/// port per shard.
///
/// # Errors
///
/// A rendered message on an impossible shape (more shards than
/// processors) or a port-reservation failure.
pub fn build_manifest(config: &ClusterConfig) -> Result<ClusterManifest, String> {
    if config.shards == 0 || config.shards > config.n {
        return Err(format!(
            "cannot tile {} processors across {} shards",
            config.n, config.shards
        ));
    }
    let addrs = free_loopback_addrs(config.shards)?;
    let base = config.n / config.shards;
    let extra = config.n % config.shards;
    let mut start = 0usize;
    let shards = (0..config.shards)
        .map(|k| {
            let count = base + usize::from(k < extra);
            let spec = ShardSpec {
                id: k as u64,
                addr: addrs[k].clone(),
                start,
                count,
            };
            start += count;
            spec
        })
        .collect();
    Ok(ClusterManifest {
        version: MANIFEST_VERSION,
        label: config.label.clone(),
        algorithm: config.algorithm.name().to_string(),
        n: config.n,
        inputs: config.algorithm.default_inputs(config.n),
        seed: config.seed,
        capacity: config.capacity,
        max_delay_us: config.max_delay_us,
        timeout_ms: config.timeout_ms,
        shards,
    })
}

/// Renders a shard driver's result as one JSON line (no trailing
/// newline): everything in the [`ShardReport`] except the recording,
/// which travels as a file.
#[must_use]
pub fn shard_result_line(report: &ShardReport) -> String {
    let mut outputs = String::from("[");
    for (i, output) in report.outputs.iter().enumerate() {
        if i > 0 {
            outputs.push(',');
        }
        outputs.push('"');
        outputs.push_str(&json_escape(output));
        outputs.push('"');
    }
    outputs.push(']');
    format!(
        "{{\"type\":\"shard\",\"shard\":{},\"shards\":{},\"start\":{},\"outputs\":{outputs},\
         \"messages\":{},\"bits\":{},\"deliveries\":{},\"dropped\":{},\"peak_in_flight\":{},\
         \"backpressure_waits\":{}}}",
        report.shard,
        report.shards,
        report.start,
        report.messages,
        report.bits,
        report.deliveries,
        report.dropped,
        report.peak_in_flight,
        report.backpressure_waits,
    )
}

fn field(value: &Value, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("shard result line is missing {key}"))
}

/// Parses a [`shard_result_line`] back into a [`ShardReport`], attaching
/// the recording read from the shard's recording file.
///
/// # Errors
///
/// A rendered message naming the malformed or missing field.
pub fn parse_shard_result(line: &str, recording: Recording) -> Result<ShardReport, String> {
    let value = Value::parse(line)?;
    if value.get("type").and_then(Value::as_str) != Some("shard") {
        return Err(format!("not a shard result line: {line}"));
    }
    let outputs = value
        .get("outputs")
        .and_then(Value::as_array)
        .ok_or_else(|| "shard result line is missing outputs".to_string())?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| "outputs must be strings".to_string())
        })
        .collect::<Result<Vec<String>, String>>()?;
    Ok(ShardReport {
        shard: field(&value, "shard")?,
        shards: field(&value, "shards")?,
        start: usize::try_from(field(&value, "start")?)
            .map_err(|_| "start overflows usize".to_string())?,
        outputs,
        messages: field(&value, "messages")?,
        bits: field(&value, "bits")?,
        deliveries: field(&value, "deliveries")?,
        dropped: field(&value, "dropped")?,
        peak_in_flight: field(&value, "peak_in_flight")?,
        backpressure_waits: field(&value, "backpressure_waits")?,
        recording,
    })
}

/// The recording filename a shard driver writes next to the manifest.
#[must_use]
pub fn shard_recording_name(shard: u64) -> String {
    format!("shard-{shard}.jsonl")
}

/// One launched shard subprocess.
struct ShardChild {
    shard: u64,
    child: Child,
}

/// Launches one `ringd --cluster` subprocess per shard, waits for all of
/// them, parses their result lines, reads their recordings, and returns
/// the reports in shard order.
///
/// `ringd` is the driver binary (usually `ringd` next to the current
/// executable); `dir` receives the manifest (`manifest.json`) and the
/// per-shard recordings.
///
/// # Errors
///
/// A rendered message naming the first shard that failed (nonzero exit,
/// unparseable result line, unreadable recording).
pub fn launch(
    manifest: &ClusterManifest,
    ringd: &Path,
    dir: &Path,
) -> Result<Vec<ShardReport>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let manifest_path = dir.join("manifest.json");
    std::fs::write(&manifest_path, manifest.render() + "\n")
        .map_err(|e| format!("write {}: {e}", manifest_path.display()))?;
    let mut children: Vec<ShardChild> = Vec::with_capacity(manifest.shards.len());
    for spec in &manifest.shards {
        let record = dir.join(shard_recording_name(spec.id));
        let child = Command::new(ringd)
            .arg("--cluster")
            .arg(&manifest_path)
            .arg("--shard")
            .arg(spec.id.to_string())
            .arg("--record")
            .arg(&record)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {} for shard {}: {e}", ringd.display(), spec.id));
        match child {
            Ok(child) => children.push(ShardChild {
                shard: spec.id,
                child,
            }),
            Err(e) => {
                for mut running in children {
                    let _ = running.child.kill();
                    let _ = running.child.wait();
                }
                return Err(e);
            }
        }
    }
    // The drivers deadline themselves (manifest timeout plus handshake
    // budgets); the launcher only backstops a truly wedged subprocess.
    // Each child's stdout drains on its own thread while it runs, so a
    // result line larger than the pipe buffer cannot wedge the child; a
    // drained pipe (EOF) means the child has exited or is exiting.
    let backstop =
        Instant::now() + Duration::from_millis(manifest.timeout_ms) + Duration::from_secs(30);
    let mut reports = Vec::with_capacity(children.len());
    let mut failure: Option<String> = None;
    let mut stdouts: Vec<Option<String>> = vec![None; children.len()];
    std::thread::scope(|scope| {
        let (drained, outputs) = mpsc::channel();
        for (slot, running) in children.iter_mut().enumerate() {
            let pipe = running.child.stdout.take();
            let drained = drained.clone();
            scope.spawn(move || {
                let mut stdout = String::new();
                if let Some(mut pipe) = pipe {
                    let _ = pipe.read_to_string(&mut stdout);
                }
                let _ = drained.send((slot, stdout));
            });
        }
        drop(drained);
        let mut pending = children.len();
        while pending > 0 {
            match outputs.recv_timeout(backstop.saturating_duration_since(Instant::now())) {
                Ok((slot, stdout)) => {
                    stdouts[slot] = Some(stdout);
                    pending -= 1;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // Killing the wedged children closes their pipes, so
                    // the drain threads finish and the scope can join.
                    for (running, stdout) in children.iter_mut().zip(&stdouts) {
                        if stdout.is_none() {
                            let _ = running.child.kill();
                            failure.get_or_insert_with(|| {
                                format!("shard {} wedged past the backstop", running.shard)
                            });
                        }
                    }
                    break;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
    });
    for (mut running, stdout) in children.into_iter().zip(stdouts) {
        let status = running.child.wait().map_err(|e| e.to_string());
        let stdout = stdout.unwrap_or_default();
        let shard = running.shard;
        if failure.is_some() {
            continue;
        }
        match status {
            Ok(status) if status.success() => {
                let line = stdout
                    .lines()
                    .find(|l| l.contains("\"type\":\"shard\""))
                    .map(str::to_string);
                let record = dir.join(shard_recording_name(shard));
                let parsed = line
                    .ok_or_else(|| format!("shard {shard} printed no result line"))
                    .and_then(|line| {
                        let text = std::fs::read_to_string(&record)
                            .map_err(|e| format!("read {}: {e}", record.display()))?;
                        let recording = Recording::parse_jsonl(&text)
                            .map_err(|e| format!("parse {}: {e}", record.display()))?;
                        parse_shard_result(&line, recording)
                    });
                match parsed {
                    Ok(report) => reports.push(report),
                    Err(e) => failure = Some(e),
                }
            }
            Ok(status) => {
                failure = Some(format!(
                    "shard {shard} exited with {status}: {}",
                    stdout.lines().last().unwrap_or("").trim()
                ));
            }
            Err(e) => failure = Some(format!("wait for shard {shard}: {e}")),
        }
    }
    match failure {
        Some(e) => Err(e),
        None => {
            reports.sort_by_key(|r| r.shard);
            Ok(reports)
        }
    }
}

/// Launches the cluster, merges the shard recordings, certifies the
/// merged run against the async simulator, and writes the canonical
/// merged recording to `dir/merged.jsonl`.
///
/// # Errors
///
/// A rendered message from whichever stage failed first.
pub fn launch_and_certify(
    manifest: &ClusterManifest,
    ringd: &Path,
    dir: &Path,
) -> Result<ClusterCertified, String> {
    let reports = launch(manifest, ringd, dir)?;
    let certified = certify_cluster(manifest, &reports).map_err(|e| e.to_string())?;
    let merged_path = dir.join("merged.jsonl");
    std::fs::write(&merged_path, certified.merged.to_jsonl())
        .map_err(|e| format!("write {}: {e}", merged_path.display()))?;
    Ok(certified)
}

/// The `ringd` binary expected next to another binary (both live in the
/// same cargo target directory).
#[must_use]
pub fn sibling_ringd() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            Some(
                exe.parent()?
                    .join(format!("ringd{}", std::env::consts::EXE_SUFFIX)),
            )
        })
        .unwrap_or_else(|| PathBuf::from("ringd"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonring_net::cluster::run_shard;

    #[test]
    fn manifests_tile_evenly_and_digest_identically() {
        let config = ClusterConfig {
            n: 7,
            shards: 3,
            ..ClusterConfig::default()
        };
        let manifest = build_manifest(&config).expect("valid shape");
        let counts: Vec<usize> = manifest.shards.iter().map(|s| s.count).collect();
        assert_eq!(counts, [3, 2, 2]);
        assert_eq!(manifest.inputs.len(), 7);
        // Round-tripping through the canonical render is digest-stable:
        // what ringctl writes is what every shard digests.
        let reparsed = ClusterManifest::parse(&manifest.render()).expect("round trip");
        assert_eq!(reparsed.digest(), manifest.digest());
    }

    #[test]
    fn too_many_shards_is_named() {
        let config = ClusterConfig {
            n: 2,
            shards: 3,
            ..ClusterConfig::default()
        };
        assert!(build_manifest(&config)
            .expect_err("3 > 2")
            .contains("2 processors"));
    }

    #[test]
    fn shard_result_lines_round_trip() {
        let config = ClusterConfig {
            algorithm: Audited::SyncAnd,
            n: 4,
            shards: 2,
            label: "roundtrip".to_string(),
            ..ClusterConfig::default()
        };
        let manifest = build_manifest(&config).expect("valid shape");
        let manifest = &manifest;
        let reports: Vec<ShardReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2u64)
                .map(|k| scope.spawn(move || run_shard(manifest, k)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("thread").expect("shard run"))
                .collect()
        });
        for report in &reports {
            let line = shard_result_line(report);
            let parsed = parse_shard_result(&line, report.recording.clone()).expect("round trip");
            assert_eq!(parsed.shard, report.shard);
            assert_eq!(parsed.outputs, report.outputs);
            assert_eq!(parsed.messages, report.messages);
            assert_eq!(parsed.bits, report.bits);
        }
        certify_cluster(manifest, &reports).expect("loopback cluster certifies");
    }

    /// A shard process whose output outgrows the pipe buffer is drained
    /// while it runs, so the launcher sees it exit at once instead of
    /// both sides waiting on each other until the backstop.
    #[cfg(unix)]
    #[test]
    fn a_chatty_shard_process_cannot_wedge_the_launcher() {
        use std::os::unix::fs::PermissionsExt;

        let dir = std::env::temp_dir().join(format!("ringctl-chatty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let fake_ringd = dir.join("chatty-ringd");
        // 256 KiB on stdout, four times a Linux pipe buffer, and no
        // result line.
        std::fs::write(&fake_ringd, "#!/bin/sh\nyes x | head -c 262144\n")
            .expect("write fake ringd");
        std::fs::set_permissions(&fake_ringd, std::fs::Permissions::from_mode(0o755))
            .expect("make fake ringd executable");
        let manifest = build_manifest(&ClusterConfig {
            n: 4,
            shards: 2,
            ..ClusterConfig::default()
        })
        .expect("valid shape");
        let started = Instant::now();
        let err = launch(&manifest, &fake_ringd, &dir.join("run")).expect_err("no result line");
        let took = started.elapsed();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(took < Duration::from_secs(10), "launcher took {took:?}");
        assert!(err.contains("printed no result line"), "{err}");
    }

    #[test]
    fn non_shard_lines_are_rejected() {
        let recording = Recording {
            n: 2,
            label: "x".to_string(),
            engine: "net".to_string(),
            shard: Some((0, 1)),
            truncated: 0,
            events: Vec::new(),
        };
        assert!(parse_shard_result("{\"type\":\"result\"}", recording).is_err());
    }
}
