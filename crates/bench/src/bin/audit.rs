//! The complexity auditor and perf-trajectory regression gate.
//!
//! ```text
//! audit run  --revision <label> [--trajectory <path>] [--grid n1,n2,...] [--wall]
//! audit fit  [--trajectory <path>] [--revision <label>]
//! audit diff <old.json> <new.json> [--tolerance <pct>]
//! ```
//!
//! `run` sweeps every audited algorithm over the grid and upserts one
//! snapshot (keyed by the revision label — never by wall clocks) into the
//! trajectory file. `fit` checks the measured curves against the paper's
//! theorems and exits nonzero on any mismatch. `diff` compares the latest
//! snapshots of two trajectory files and exits nonzero when any
//! deterministic metered cost (`messages`, `bits`, `time`,
//! `critical_path`) regressed beyond the tolerance, naming the offending
//! cells; wall-clock deltas are reported as warnings only.

use std::process::ExitCode;

use anonring_bench::artifact::Policy;
use anonring_bench::audit::{audit_fits, measure_snapshot, Snapshot, Trajectory, DEFAULT_GRID};
use anonring_bench::cli::{diff_files, reject_leftovers, save_store, take_flag, take_option};

const DEFAULT_TRAJECTORY: &str = "BENCH_trajectory.json";

fn print_snapshot(snapshot: &Snapshot) {
    println!("snapshot {:?}:", snapshot.revision);
    println!("| algorithm | theorem | n | messages | bits | time | critical path |");
    println!("|---|---|---|---|---|---|---|");
    for algo in &snapshot.algorithms {
        for cell in &algo.cells {
            println!(
                "| {} | {} | {} | {} | {} | {} | {} |",
                algo.algorithm,
                algo.theorem.token(),
                cell.n,
                cell.messages,
                cell.bits,
                cell.time,
                cell.critical_path
            );
        }
    }
}

fn cmd_run(mut args: Vec<String>) -> Result<ExitCode, String> {
    let revision = take_option(&mut args, "--revision")?
        .ok_or("run requires --revision <label> (snapshots are keyed by it)")?;
    let path = take_option(&mut args, "--trajectory")?.unwrap_or_else(|| DEFAULT_TRAJECTORY.into());
    let wall = take_flag(&mut args, "--wall");
    let grid: Vec<usize> = match take_option(&mut args, "--grid")? {
        Some(spec) => spec
            .split(',')
            .map(|part| {
                part.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("bad grid entry {part:?}"))
            })
            .collect::<Result<_, _>>()?,
        None => DEFAULT_GRID.to_vec(),
    };
    reject_leftovers(&args)?;
    if grid.iter().any(|&n| n < 2) {
        return Err("grid ring sizes must be >= 2".into());
    }
    let mut trajectory = Trajectory::load_or_new(&path)?;
    let snapshot = measure_snapshot(&revision, &grid, wall);
    print_snapshot(&snapshot);
    trajectory.upsert(snapshot);
    save_store(&trajectory, &path)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_fit(mut args: Vec<String>) -> Result<ExitCode, String> {
    let path = take_option(&mut args, "--trajectory")?.unwrap_or_else(|| DEFAULT_TRAJECTORY.into());
    let revision = take_option(&mut args, "--revision")?;
    reject_leftovers(&args)?;
    let trajectory = Trajectory::load(&path)?;
    let snapshot = match &revision {
        Some(label) => trajectory
            .snapshot(label)
            .ok_or_else(|| format!("no snapshot {label:?} in {path}"))?,
        None => trajectory
            .latest()
            .ok_or_else(|| format!("{path} holds no snapshots"))?,
    };
    println!("fit of snapshot {:?}:", snapshot.revision);
    println!("| algorithm | theorem | exponent | verdict |");
    println!("|---|---|---|---|");
    let mut failures = 0usize;
    for report in audit_fits(snapshot) {
        println!(
            "| {} | {} | {:.2} | {} {} |",
            report.algorithm,
            report.theorem.token(),
            report.exponent,
            if report.pass { "PASS:" } else { "FAIL:" },
            report.detail
        );
        failures += usize::from(!report.pass);
    }
    if failures > 0 {
        eprintln!("audit: {failures} algorithm(s) off the paper's rate");
        return Ok(ExitCode::FAILURE);
    }
    println!("\nevery measured curve matches its theorem");
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(mut args: Vec<String>) -> Result<ExitCode, String> {
    let tolerance_pct = match take_option(&mut args, "--tolerance")? {
        Some(spec) => spec
            .parse::<f64>()
            .ok()
            .filter(|t| *t >= 0.0)
            .ok_or_else(|| format!("bad tolerance {spec:?} (want a percentage >= 0)"))?,
        None => 0.0,
    };
    diff_files::<Snapshot>(args, Policy::Ceiling { tolerance_pct })?;
    Ok(ExitCode::SUCCESS)
}

fn run() -> Result<ExitCode, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return Err(
            "usage: audit run --revision <label> [--trajectory <path>] [--grid n1,n2,...] \
             [--wall] | audit fit [--trajectory <path>] [--revision <label>] | \
             audit diff <old> <new> [--tolerance <pct>]"
                .into(),
        );
    }
    let command = args.remove(0);
    match command.as_str() {
        "run" => cmd_run(args),
        "fit" => cmd_fit(args),
        "diff" => cmd_diff(args),
        other => Err(format!("unknown command {other:?} (run | fit | diff)")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("audit: {msg}");
            ExitCode::FAILURE
        }
    }
}
