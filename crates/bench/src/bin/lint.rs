//! `lint` — run the anonlint model-invariant pass over the workspace.
//!
//! ```text
//! lint [--root DIR] [--baseline FILE] [--write-baseline FILE] [--json FILE]
//! ```
//!
//! Exit codes: `0` clean (or fully grandfathered), `1` new findings,
//! `2` usage/IO error. With `--baseline`, findings covered by the
//! committed baseline are reported but do not fail the run; stale
//! baseline entries (paid-off debt) fail the run so the file shrinks.
//!
//! `--json FILE` additionally writes one JSON object per finding (fields
//! `lint`, `file`, `line`, `snippet`, `message`, `why`, `state` where
//! state is `new` or `grandfathered`), one per line, for CI annotation
//! tooling; `-` writes to stdout instead of the human format.

use std::path::PathBuf;
use std::process::ExitCode;

use anonring_anonlint::{lint_repo, Baseline, Finding};
use anonring_bench::cli::{reject_leftovers, take_flag, take_option};
use anonring_bench::{out, outln};
use anonring_sim::json::json_escape;

/// One finding as a single-line JSON object.
fn json_line(f: &Finding, state: &str) -> String {
    format!(
        "{{\"lint\":\"{}\",\"file\":\"{}\",\"line\":{},\"snippet\":\"{}\",\
         \"message\":\"{}\",\"why\":\"{}\",\"state\":\"{}\"}}",
        f.lint.name(),
        json_escape(&f.file),
        f.line,
        json_escape(&f.snippet),
        json_escape(&f.message),
        json_escape(f.lint.why()),
        state,
    )
}

fn locate_repo_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("crates/sim/src").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if take_flag(&mut args, "--help") || take_flag(&mut args, "-h") {
        outln!("usage: lint [--root DIR] [--baseline FILE] [--write-baseline FILE] [--json FILE]");
        return Ok(ExitCode::SUCCESS);
    }
    let mut path = |name: &str| take_option(&mut args, name).map(|raw| raw.map(PathBuf::from));
    let root = path("--root")?;
    let baseline_path = path("--baseline")?;
    let write_baseline = path("--write-baseline")?;
    let json_out = path("--json")?;
    reject_leftovers(&args)?;

    let root = match root {
        Some(r) => r,
        None => locate_repo_root().ok_or("cannot locate repo root (run from the workspace)")?,
    };
    let findings = lint_repo(&root).map_err(|e| format!("walking {}: {e}", root.display()))?;

    if let Some(path) = write_baseline {
        std::fs::write(&path, Baseline::render(&findings))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        outln!(
            "lint: wrote baseline with {} finding(s) to {}",
            findings.len(),
            path.display()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let baseline = match &baseline_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            Baseline::parse(&text)?
        }
        None => Baseline::empty(),
    };

    let (fresh, grandfathered, stale) = baseline.diff(&findings);

    let json_to_stdout = json_out.as_deref() == Some(std::path::Path::new("-"));
    if let Some(path) = &json_out {
        let mut report = String::new();
        for f in &grandfathered {
            report.push_str(&json_line(f, "grandfathered"));
            report.push('\n');
        }
        for f in &fresh {
            report.push_str(&json_line(f, "new"));
            report.push('\n');
        }
        if json_to_stdout {
            out!("{report}");
        } else {
            std::fs::write(path, &report)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    }

    if !json_to_stdout {
        for f in &grandfathered {
            outln!("{f} (grandfathered)");
        }
        for f in &fresh {
            outln!("{f}");
        }
        for (lint, file) in &stale {
            outln!("stale baseline entry: {lint}\t{file} (debt paid off — shrink the baseline)");
        }
    }

    if !json_to_stdout {
        outln!(
            "lint: {} finding(s): {} new, {} grandfathered, {} stale baseline entr(y/ies)",
            findings.len(),
            fresh.len(),
            grandfathered.len(),
            stale.len()
        );
    }
    if fresh.is_empty() && stale.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("lint: {msg}");
            ExitCode::from(2)
        }
    }
}
