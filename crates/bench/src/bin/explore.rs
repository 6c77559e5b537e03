//! `explore` — exhaustively certify schedule independence of the §4
//! algorithms at small `n` via `sim::explore`.
//!
//! ```text
//! explore [--smoke] [--witness-dir DIR]
//! ```
//!
//! Each row enumerates every inequivalent delivery interleaving (sleep-set
//! DPOR) and checks that outputs and metered message counts match across
//! all of them. `--smoke` runs the `n = 3` subset (the CI push job);
//! the full run adds the `n = 4` rows. On a schedule race the two witness
//! recordings are written to `--witness-dir` (default `target/explore`)
//! and the exit code is 1.

use std::path::PathBuf;
use std::process::ExitCode;

use anonring_bench::outln;
use anonring_core::algorithms::async_input_dist;
use anonring_core::algorithms::sync_and::SyncAnd;
use anonring_sim::explore::{Certificate, ExploreError, Explorer};
use anonring_sim::r#async::AsyncEngine;
use anonring_sim::synchronizer::Synchronized;
use anonring_sim::RingConfig;

/// One certification row: outcome of exploring a (algorithm, input) pair.
struct Row {
    algorithm: &'static str,
    inputs: String,
    executions: u64,
    sleep_blocked: u64,
    messages: u64,
    bits: u64,
}

/// Runs one certification, normalizing the output type away.
fn certify<P, F>(
    algorithm: &'static str,
    inputs: &[u8],
    make: F,
    witness_dir: &PathBuf,
) -> Result<Row, String>
where
    P: anonring_sim::r#async::AsyncProcess,
    F: FnMut() -> AsyncEngine<P>,
{
    match Explorer::new().explore(make) {
        Ok(Certificate {
            executions,
            sleep_blocked,
            fingerprint,
        }) => Ok(Row {
            algorithm,
            inputs: format!("{inputs:?}"),
            executions,
            sleep_blocked,
            messages: fingerprint.messages,
            bits: fingerprint.bits,
        }),
        Err(ExploreError::Race(race)) => {
            let mut paths = Vec::new();
            if std::fs::create_dir_all(witness_dir).is_ok() {
                for (tag, jsonl) in [
                    ("canonical", &race.canonical_witness),
                    ("divergent", &race.divergent_witness),
                ] {
                    let path =
                        witness_dir.join(format!("race-{algorithm}-n{}-{tag}.jsonl", inputs.len()));
                    if std::fs::write(&path, jsonl).is_ok() {
                        paths.push(path.display().to_string());
                    }
                }
            }
            Err(format!(
                "{algorithm} {inputs:?}: SCHEDULE RACE — canonical {:?} vs divergent {:?}; \
                 witnesses: {}",
                race.canonical,
                race.divergent,
                paths.join(", ")
            ))
        }
        Err(other) => Err(format!("{algorithm} {inputs:?}: {other}")),
    }
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut witness_dir = PathBuf::from("target/explore");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--witness-dir" => match args.next() {
                Some(dir) => witness_dir = PathBuf::from(dir),
                None => {
                    eprintln!("explore: --witness-dir needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                outln!("usage: explore [--smoke] [--witness-dir DIR]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("explore: unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }

    let dist = |inputs: &[u8]| async_input_dist::engine(&RingConfig::oriented(inputs.to_vec()));
    let and = |inputs: &[u8]| {
        let config = RingConfig::oriented(inputs.to_vec());
        let n = config.n();
        AsyncEngine::from_config(&config, move |_, &input| {
            Synchronized::new(SyncAnd::new(n, input))
        })
    };
    // The certification matrix covers the two schedule-sensitive paths of
    // §4: the native asynchronous algorithm (input-dist, §4.1) and the
    // synchronizer embedding every synchronous §4 algorithm runs through
    // on an async ring (and, §4.2 — small enough message counts for
    // exhaustive enumeration; the heavier sync algorithms share the same
    // certified envelope protocol and are deterministic given lockstep
    // delivery). n = 4 rows of the synchronized algorithm use inputs that
    // halt early where the full run would explode (see the pinned counts
    // in explore_certification.rs).
    let mut failures = Vec::new();
    let mut rows = Vec::new();
    type MakeRow<'a> = (&'static str, &'a [u8], bool);
    let matrix: Vec<MakeRow> = vec![
        ("input-dist", &[3, 7, 9], true),
        ("input-dist", &[1, 2, 3, 4], false),
        ("and", &[1, 0, 1], true),
        ("and", &[1, 1, 1], true),
        ("and", &[1, 0, 1, 1], false),
    ];
    for (algorithm, inputs, in_smoke) in matrix {
        if smoke && !in_smoke {
            continue;
        }
        let result = match algorithm {
            "input-dist" => certify(algorithm, inputs, || dist(inputs), &witness_dir),
            "and" => certify(algorithm, inputs, || and(inputs), &witness_dir),
            _ => unreachable!("matrix names are exhaustive"),
        };
        match result {
            Ok(row) => rows.push(row),
            Err(msg) => failures.push(msg),
        }
    }

    outln!(
        "{:<16} {:<14} {:>10} {:>12} {:>9} {:>7}",
        "algorithm",
        "inputs",
        "classes",
        "pruned",
        "messages",
        "bits"
    );
    for row in &rows {
        outln!(
            "{:<16} {:<14} {:>10} {:>12} {:>9} {:>7}",
            row.algorithm,
            row.inputs,
            row.executions,
            row.sleep_blocked,
            row.messages,
            row.bits
        );
    }
    for failure in &failures {
        eprintln!("explore: {failure}");
    }
    if failures.is_empty() {
        outln!(
            "explore: certified {} row(s){}",
            rows.len(),
            if smoke { " (smoke subset)" } else { "" }
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
