//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the repository root, prints the host
//! fingerprint, the workload's notes and, as the last line, the result
//! object. Exits 1 when a correctness gate fails and 2 when the run
//! cannot be made at all.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{host, run_workload, RunConfig, Scale};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                );
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?}: expected 0 or 1")),
                };
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let config = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        root: PathBuf::from("."),
        scale: Scale::Full,
    };
    println!(
        "{}",
        host::fingerprint(
            &config.root,
            &args.workload,
            args.seed,
            args.seconds,
            args.trace
        )
    );
    let outcome = match run_workload(&args.workload, &config) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for failure in &outcome.failures {
        println!("FAILED {failure}");
    }
    for violation in &outcome.violations {
        println!("VIOLATION {violation}");
    }
    if let Some(spans) = &outcome.spans {
        let dir = config.root.join("perfbench").join("out");
        let path = dir.join(format!("{}-seed{}-spans.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    if outcome.attempted == 0 {
        eprintln!("perfbench: the run attempted no operation");
        return ExitCode::from(2);
    }
    match outcome.result_line(args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
