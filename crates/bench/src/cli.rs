//! Command-line plumbing shared by the binaries: a small flag reader
//! over the argument vector, the file side of the revision-keyed
//! artifacts (save with a summary line, and the `diff <old> <new>`
//! gate), and [`out!`](crate::out)/[`outln!`](crate::outln), the
//! stdout printers that end quietly when the reader goes away.

use crate::artifact::{diff, ArtifactSnapshot, Policy, RevisionStore};

/// Writes `args` to stdout as `print!` does, except that a closed
/// stdout (its reader went away, as in `tracer … | head -1`) ends the
/// process quietly with status 0: nothing printed from then on could be
/// read. Any other write error panics, as with `print!`.
pub fn print_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(err) = std::io::stdout().write_fmt(args) {
        if err.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {err}");
    }
}

/// `print!` that ends the process quietly on a closed stdout
/// ([`print_stdout`]).
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::print_stdout(format_args!($($arg)*))
    };
}

/// `println!` that ends the process quietly on a closed stdout
/// ([`print_stdout`]).
#[macro_export]
macro_rules! outln {
    () => {
        $crate::cli::print_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::cli::print_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Removes `name` from `args`, reporting whether it was present.
pub fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    match args.iter().position(|a| a == name) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Removes `name` and its value from `args`, returning the value.
///
/// # Errors
///
/// `<name> requires a value` when `name` is the last argument.
pub fn take_option(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        Some(i) => {
            if i + 1 >= args.len() {
                return Err(format!("{name} requires a value"));
            }
            let value = args.remove(i + 1);
            args.remove(i);
            Ok(Some(value))
        }
        None => Ok(None),
    }
}

/// [`take_option`] parsed as a number, `default` when absent.
///
/// # Errors
///
/// A missing value, or `bad <name> value "…"`.
pub fn take_number<T: std::str::FromStr>(
    args: &mut Vec<String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match take_option(args, name)? {
        Some(raw) => raw.parse().map_err(|_| format!("bad {name} value {raw:?}")),
        None => Ok(default),
    }
}

/// Fails on the first argument no reader consumed.
///
/// # Errors
///
/// `unexpected argument "…"`.
pub fn reject_leftovers(args: &[String]) -> Result<(), String> {
    match args.first() {
        Some(extra) => Err(format!("unexpected argument {extra:?}")),
        None => Ok(()),
    }
}

/// Writes `store` to `path` and prints `wrote <path> (<k> snapshots)`.
///
/// # Errors
///
/// As [`RevisionStore::save`].
pub fn save_store<S: ArtifactSnapshot>(store: &RevisionStore<S>, path: &str) -> Result<(), String> {
    store.save(path)?;
    let count = store.snapshots.len();
    println!(
        "\nwrote {path} ({count} snapshot{})",
        if count == 1 { "" } else { "s" }
    );
    Ok(())
}

/// The `diff <old> <new>` gate: compares the latest snapshots of two
/// artifact files under `policy`, printing the header, warnings and
/// improvements on stdout and each failing field on stderr.
///
/// # Errors
///
/// A usage or file error, or — after the failing fields are printed —
/// the count of fields the policy rejected.
pub fn diff_files<S: ArtifactSnapshot>(
    mut args: Vec<String>,
    policy: Policy,
) -> Result<(), String> {
    if args.len() != 2 {
        return Err(format!(
            "diff needs exactly two {} files: diff <old> <new>",
            S::KIND
        ));
    }
    let new_path = args.pop().expect("len checked");
    let old_path = args.pop().expect("len checked");
    let old = RevisionStore::<S>::load(&old_path)?;
    let new = RevisionStore::<S>::load(&new_path)?;
    let old_snap = old
        .latest()
        .ok_or_else(|| format!("{old_path} holds no snapshots"))?;
    let new_snap = new
        .latest()
        .ok_or_else(|| format!("{new_path} holds no snapshots"))?;
    let report = diff(old_snap, new_snap, policy);
    let (old_rev, new_rev) = (old_snap.revision(), new_snap.revision());
    let (failure, passed, failed) = match policy {
        Policy::Ceiling { tolerance_pct } => {
            println!(
                "gate: {old_rev:?} ({old_path}) -> {new_rev:?} ({new_path}), \
                 tolerance {tolerance_pct}%"
            );
            (
                "regression",
                "no deterministic cost regressed".to_string(),
                "metered cost(s) regressed",
            )
        }
        Policy::Exact => {
            println!(
                "{} gate: {old_rev:?} ({old_path}) -> {new_rev:?} ({new_path}), 0% tolerance",
                S::KIND
            );
            (
                "drift",
                format!("no deterministic {} field drifted", S::KIND),
                "deterministic field(s) drifted",
            )
        }
    };
    for warning in &report.warnings {
        println!("warning: {warning}");
    }
    for improvement in &report.improvements {
        println!("improved: {improvement}");
    }
    if report.failures.is_empty() {
        println!("{passed}");
        return Ok(());
    }
    for line in &report.failures {
        eprintln!("{failure}: {line}");
    }
    Err(format!("{} {failed}", report.failures.len()))
}
