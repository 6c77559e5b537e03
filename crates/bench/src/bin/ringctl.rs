//! `ringctl` — launch a loopback `ringd` cluster and certify the merge.
//!
//! ```text
//! cargo run --release -p anonring-bench --bin ringctl -- \
//!     --algorithm sync_and --n 6 --shards 3 --dir /tmp/cluster
//! ```
//!
//! Builds a cluster manifest (driver-default inputs, freshly reserved
//! loopback ports, processors tiled evenly), writes it to
//! `DIR/manifest.json`, launches one `ringd --cluster` subprocess per
//! shard, waits for all of them, merges the per-shard recordings into
//! the canonical recording (`DIR/merged.jsonl`), and certifies the run
//! against the asynchronous simulator: outputs, total messages and total
//! bits must agree, and the merged recording must pass the v2 causal
//! check. Prints one JSON summary line; exits nonzero on any failure.
//!
//! Flags:
//!
//! - `--algorithm NAME` — audit-table algorithm name (required)
//! - `--n N` — ring size (required, ≥ 2)
//! - `--shards M` — cluster size (default 2; `M ≤ N`)
//! - `--seed S` — delivery-jitter seed (default 0)
//! - `--capacity C` — per-link inbox capacity (default 8)
//! - `--max-delay-us D` — delivery-jitter bound (default 0)
//! - `--timeout-ms T` — cluster-wide deadline (default 30000)
//! - `--dir DIR` — working directory for manifest + recordings
//!   (required)
//! - `--ringd PATH` — shard driver binary (default: `ringd` next to
//!   this executable)
//! - `--label TEXT` — manifest label (default `ringctl`)

use std::path::PathBuf;
use std::process::ExitCode;

use anonring_bench::cli::{reject_leftovers, take_number, take_option};
use anonring_bench::cluster::{build_manifest, launch_and_certify, sibling_ringd, ClusterConfig};
use anonring_bench::outln;
use anonring_core::algorithms::driver::Audited;
use anonring_sim::json::json_escape;

struct Cli {
    config: ClusterConfig,
    dir: PathBuf,
    ringd: PathBuf,
}

fn parse_args() -> Result<Cli, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let defaults = ClusterConfig::default();
    let algorithm = take_option(&mut args, "--algorithm")?;
    let n = take_option(&mut args, "--n")?;
    let dir = take_option(&mut args, "--dir")?;
    let ringd = take_option(&mut args, "--ringd")?;
    let mut config = ClusterConfig {
        shards: take_number(&mut args, "--shards", defaults.shards)?,
        seed: take_number(&mut args, "--seed", defaults.seed)?,
        capacity: take_number(&mut args, "--capacity", defaults.capacity)?,
        max_delay_us: take_number(&mut args, "--max-delay-us", defaults.max_delay_us)?,
        timeout_ms: take_number(&mut args, "--timeout-ms", defaults.timeout_ms)?,
        label: take_option(&mut args, "--label")?.unwrap_or(defaults.label),
        ..defaults
    };
    reject_leftovers(&args)?;
    let name = algorithm.ok_or("missing --algorithm")?;
    config.algorithm = Audited::from_name(&name)
        .ok_or_else(|| format!("unknown algorithm {name:?} (audit-table names only)"))?;
    let n = n.ok_or("missing --n")?;
    config.n = n.parse().map_err(|_| format!("bad --n value {n:?}"))?;
    Ok(Cli {
        config,
        dir: PathBuf::from(dir.ok_or("missing --dir")?),
        ringd: ringd.map_or_else(sibling_ringd, PathBuf::from),
    })
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("ringctl: {e}");
            eprintln!(
                "usage: ringctl --algorithm NAME --n N --dir DIR [--shards M] [--seed S] \
                 [--capacity C] [--max-delay-us D] [--timeout-ms T] [--ringd PATH] [--label TEXT]"
            );
            return ExitCode::from(2);
        }
    };
    let manifest = match build_manifest(&cli.config) {
        Ok(manifest) => manifest,
        Err(e) => {
            eprintln!("ringctl: {e}");
            return ExitCode::from(2);
        }
    };
    match launch_and_certify(&manifest, &cli.ringd, &cli.dir) {
        Ok(certified) => {
            let mut outputs = String::from("[");
            for (i, output) in certified.outputs.iter().enumerate() {
                if i > 0 {
                    outputs.push(',');
                }
                outputs.push('"');
                outputs.push_str(&json_escape(output));
                outputs.push('"');
            }
            outputs.push(']');
            outln!(
                "{{\"type\":\"cluster\",\"algorithm\":\"{}\",\"n\":{},\"shards\":{},\
                 \"verdict\":\"certified\",\"messages\":{},\"bits\":{},\"outputs\":{outputs},\
                 \"merged\":\"{}\"}}",
                cli.config.algorithm.name(),
                cli.config.n,
                cli.config.shards,
                certified.messages,
                certified.bits,
                json_escape(&cli.dir.join("merged.jsonl").display().to_string()),
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ringctl: {e}");
            ExitCode::FAILURE
        }
    }
}
