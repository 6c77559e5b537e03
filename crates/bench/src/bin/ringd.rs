//! `ringd` — the batched ring-job server over real transports.
//!
//! ```text
//! cargo run --release -p anonring-bench --bin ringd -- [flags] < jobs.jsonl
//! ```
//!
//! Reads one JSON job per line (see [`anonring_bench::ringd`] for the
//! schema), runs each on the `anonring_net` runtime, certifies every run
//! against the asynchronous simulator unless the job opts out, and
//! streams one JSON result line per job plus a final `"done"` summary.
//!
//! Flags:
//!
//! - `--workers N` — worker-pool size (default: one per core)
//! - `--record-dir DIR` — write a per-job v2 flight recording
//!   (`<id>.jsonl`, engine-stamped `"net"`) into `DIR`
//! - `--socket PATH` (unix) — serve batches over a unix socket instead
//!   of stdin/stdout; each connection is one batch
//! - `--log` — emit one-line JSON operational logs on stderr (job
//!   admitted/started/finished/requeued, with durations)
//! - `--retries N` — re-run failed jobs up to `N` extra times
//! - `--max-queue N` — admission bound; the reader blocks once `N`
//!   jobs are queued (default 4096)
//! - `--max-line-bytes N` — reject longer job lines with an `"error"`
//!   line (default 1 MiB)
//! - `--profile` — enable the S26 hot-path profiler; lock wait/hold,
//!   queue-dwell and allocation series then carry live tallies in every
//!   metrics scrape (they are present but zero-valued otherwise)
//!
//! A `{"type":"metrics"}` line on any stream answers with a live
//! [`ServingMetrics`](anonring_bench::ringd::ServingMetrics) snapshot
//! (add `"format":"prometheus"` for the text exposition).
//!
//! ## Cluster mode (S27)
//!
//! ```text
//! ringd --cluster MANIFEST --shard K [--record PATH]
//! ```
//!
//! Runs one shard of a multi-host cluster job instead of serving a
//! batch: reads the shared manifest, owns the manifest's shard `K`,
//! establishes the cross-shard links (handshaked TCP), runs the owned
//! processors to the coordinated verdict, writes the per-shard v2
//! recording to `PATH`, and prints one shard result line. `ringctl`
//! launches one such process per shard and merges the recordings.
//!
//! Exits nonzero if any job in the (stdin) batch failed.

use std::io::{BufReader, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use anonring_bench::cli::{reject_leftovers, take_flag, take_number, take_option};
use anonring_bench::cluster::shard_result_line;
use anonring_bench::outln;
use anonring_bench::ringd::{serve, ServeOptions};
use anonring_net::cluster::run_shard;
use anonring_net::ClusterManifest;

struct Cli {
    options: ServeOptions,
    socket: Option<PathBuf>,
    cluster: Option<PathBuf>,
    shard: Option<u64>,
    record: Option<PathBuf>,
}

fn parse_args() -> Result<Cli, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let path = |raw: Option<String>| raw.map(PathBuf::from);
    let defaults = ServeOptions::default();
    let cli = Cli {
        options: ServeOptions {
            workers: take_number(&mut args, "--workers", defaults.workers)?,
            record_dir: path(take_option(&mut args, "--record-dir")?),
            log: take_flag(&mut args, "--log"),
            retries: take_number(&mut args, "--retries", defaults.retries)?,
            max_queue: take_number(&mut args, "--max-queue", defaults.max_queue)?,
            max_line_bytes: take_number(&mut args, "--max-line-bytes", defaults.max_line_bytes)?,
        },
        socket: path(take_option(&mut args, "--socket")?),
        cluster: path(take_option(&mut args, "--cluster")?),
        shard: take_option(&mut args, "--shard")?
            .map(|raw| {
                raw.parse()
                    .map_err(|_| format!("bad --shard value {raw:?}"))
            })
            .transpose()?,
        record: path(take_option(&mut args, "--record")?),
    };
    if take_flag(&mut args, "--profile") {
        anonring_sim::profile::set_enabled(true);
    }
    reject_leftovers(&args)?;
    if let Some(dir) = &cli.options.record_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("--record-dir {}: {e}", dir.display()))?;
    }
    Ok(cli)
}

#[cfg(unix)]
fn serve_socket(path: &std::path::Path, options: &ServeOptions) -> std::io::Result<()> {
    use std::os::unix::net::UnixListener;
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    eprintln!("ringd: listening on {}", path.display());
    for stream in listener.incoming() {
        let stream = stream?;
        let reader = BufReader::new(stream.try_clone()?);
        if let Err(e) = serve(reader, stream, options) {
            eprintln!("ringd: batch aborted: {e}");
        }
    }
    Ok(())
}

#[cfg(not(unix))]
fn serve_socket(_path: &std::path::Path, _options: &ServeOptions) -> std::io::Result<()> {
    Err(std::io::Error::other("--socket requires a unix platform"))
}

/// `ringd --cluster <manifest> --shard K [--record PATH]`: run one shard
/// of a cluster job to completion, write the per-shard recording, print
/// the shard result line.
fn run_cluster_shard(
    manifest: &std::path::Path,
    shard: u64,
    record: Option<&std::path::Path>,
) -> ExitCode {
    let text = match std::fs::read_to_string(manifest) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("ringd: read {}: {e}", manifest.display());
            return ExitCode::from(2);
        }
    };
    let manifest = match ClusterManifest::parse(&text) {
        Ok(manifest) => manifest,
        Err(e) => {
            eprintln!("ringd: {}: {e}", manifest.display());
            return ExitCode::from(2);
        }
    };
    let report = match run_shard(&manifest, shard) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("ringd: shard {shard}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = record {
        if let Err(e) = std::fs::write(path, report.recording.to_jsonl()) {
            eprintln!("ringd: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    outln!("{}", shard_result_line(&report));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("ringd: {e}");
            eprintln!(
                "usage: ringd [--workers N] [--record-dir DIR] [--socket PATH] [--log] \
                 [--retries N] [--max-queue N] [--max-line-bytes N] [--profile] < jobs.jsonl\n\
                        ringd --cluster MANIFEST --shard K [--record PATH]"
            );
            return ExitCode::from(2);
        }
    };
    match (&cli.cluster, cli.shard) {
        (Some(manifest), Some(shard)) => {
            return run_cluster_shard(manifest, shard, cli.record.as_deref());
        }
        (Some(_), None) | (None, Some(_)) => {
            eprintln!("ringd: --cluster and --shard go together");
            return ExitCode::from(2);
        }
        (None, None) if cli.record.is_some() => {
            eprintln!("ringd: --record is cluster-mode only (use --record-dir when serving)");
            return ExitCode::from(2);
        }
        (None, None) => {}
    }
    if let Some(path) = &cli.socket {
        return match serve_socket(path, &cli.options) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("ringd: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let stdin = std::io::stdin();
    match serve(stdin.lock(), std::io::stdout(), &cli.options) {
        Ok(summary) => {
            let _ = std::io::stderr().flush();
            if summary.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("ringd: {e}");
            ExitCode::FAILURE
        }
    }
}
