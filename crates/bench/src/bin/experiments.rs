//! Regenerates every experiment table (E1–E23).
//!
//! ```text
//! cargo run --release -p anonring-bench --bin experiments [E7 E10 ...]
//! ```
//!
//! With no arguments all experiments run in DESIGN.md order; arguments
//! filter by experiment id, and an unknown id fails the run (exit 2)
//! before anything runs or is written. Markdown tables and wall times go
//! to stdout (EXPERIMENTS.md records them); if stdout closes early
//! (`| head`), the run ends there quietly with status 0, writing no
//! file. An unfiltered run also writes the machine-readable per-cell
//! costs to `BENCH_sweep.json` in the working directory; the file holds
//! no wall time, so it is byte-identical from run to run. Recorded
//! telemetry runs (flight-recorder events + metrics snapshots,
//! replayable with the `tracer` binary) go to `TELEMETRY_<id>.jsonl` /
//! `TELEMETRY_<id>.metrics.json`, filtered like the tables.

use std::fmt::Write as _;
use std::time::Instant;

use anonring_bench::{out, outln, Table};
use anonring_sim::json::json_escape;

/// Serializes the run: one entry per experiment with its verdict and
/// per-cell `n`/`messages`/`bits`/`time` costs where the experiment is a
/// cost grid.
fn render_json(results: &[Table]) -> String {
    let mut out = String::from("{\n  \"experiments\": [\n");
    for (i, table) in results.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"id\": \"{}\", \"title\": \"{}\", \"verdict\": \"{}\", \"cells\": [",
            json_escape(table.id),
            json_escape(&table.title),
            json_escape(&table.verdict),
        );
        for (j, m) in table.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "\n      {{\"n\": {}, \"label\": \"{}\", \"messages\": {}, \"bits\": {}, \"time\": {}}}{}",
                m.n,
                json_escape(&m.label),
                m.messages,
                m.bits,
                m.time,
                if j + 1 < table.metrics.len() { "," } else { "\n    " },
            );
        }
        let _ = writeln!(out, "]}}{}", if i + 1 < results.len() { "," } else { "" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The ids in `filters` that name neither an experiment table nor a
/// telemetry run, in argument order.
fn unknown_ids(filters: &[String]) -> Vec<&str> {
    let tables = anonring_bench::experiment_runners();
    let runs = anonring_bench::telemetry_runs::artifact_runners();
    filters
        .iter()
        .map(String::as_str)
        .filter(|f| !tables.iter().any(|(id, _)| id == f) && !runs.iter().any(|(id, _)| id == f))
        .collect()
}

fn main() {
    let filters: Vec<String> = std::env::args().skip(1).map(|s| s.to_uppercase()).collect();
    // An unknown id must not pass for an empty run: reject it before any
    // experiment runs or any file is written.
    let unknown = unknown_ids(&filters);
    if !unknown.is_empty() {
        eprintln!(
            "experiments: unknown experiment id(s): {}",
            unknown.join(" ")
        );
        std::process::exit(2);
    }
    outln!("# anonring experiment tables\n");
    outln!(
        "Reproduction of the complexity bounds of Attiya, Snir & Warmuth, \
         *Computing on an Anonymous Ring* (J. ACM 1988).\n"
    );
    let mut failures = 0;
    let mut results: Vec<Table> = Vec::new();
    for (id, run) in anonring_bench::experiment_runners() {
        if !filters.is_empty() && !filters.iter().any(|f| f == id) {
            continue;
        }
        let start = Instant::now();
        let table = run();
        out!("{table}");
        outln!("({:.2?})\n", start.elapsed());
        if table.verdict.contains("VIOLATION") || table.verdict.contains("MISMATCH") {
            failures += 1;
        }
        results.push(table);
    }
    // A filtered run would overwrite the full sweep with a few entries.
    if filters.is_empty() {
        match std::fs::write("BENCH_sweep.json", render_json(&results)) {
            Ok(()) => eprintln!("wrote BENCH_sweep.json ({} experiments)", results.len()),
            Err(err) => eprintln!("could not write BENCH_sweep.json: {err}"),
        }
    }
    for (id, record) in anonring_bench::telemetry_runs::artifact_runners() {
        if !filters.is_empty() && !filters.iter().any(|f| f == id) {
            continue;
        }
        let artifacts = record();
        let events = format!("TELEMETRY_{}.jsonl", artifacts.id);
        let metrics = format!("TELEMETRY_{}.metrics.json", artifacts.id);
        match std::fs::write(&events, &artifacts.events_jsonl)
            .and_then(|()| std::fs::write(&metrics, &artifacts.metrics_json))
        {
            Ok(()) => eprintln!(
                "wrote {events} + {metrics} ({} messages)",
                artifacts.messages
            ),
            Err(err) => eprintln!("could not write {events}: {err}"),
        }
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) reported violations");
        std::process::exit(1);
    }
}
