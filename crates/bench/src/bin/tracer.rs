//! Inspects recorded telemetry runs (`TELEMETRY_*.jsonl`).
//!
//! ```text
//! cargo run -p anonring-bench --bin tracer -- <recording.jsonl> [sections...]
//! ```
//!
//! Sections (all by default): `summary` (totals and quantiles), `phases`
//! (per-span message/bit counts), `profile` (per-cycle activity — and,
//! for `"engine":"net"` recordings with wall stamps, collapsed-stack
//! wall-time attribution in `flamegraph.pl` input format plus a top-K
//! wall-time sink table), `diagram` (the space-time diagram, drawn by
//! [`Recording::render`] straight from the parsed recording, as for a live
//! run).
//!
//! Output goes to stdout; if it closes early (`| head`), the tracer ends
//! there quietly with status 0.
//!
//! Two further sections replay the causal structure of the recording and
//! must be requested explicitly: `critical-path` (the longest causal
//! chain, by hops and by bits, with per-phase attribution) and `dag` (the
//! full causal DAG as Graphviz DOT, critical path highlighted).
//!
//! ```text
//! tracer merge [--out PATH] <shard.jsonl>...
//! ```
//!
//! Interleaves the per-shard recordings of one cluster run (S27) into
//! the canonical merged recording — sends ordered by their Lamport
//! stamps, seqs renumbered, cross-shard references resolved — written to
//! `--out` or stdout. Refuses incomplete shard sets with a verdict
//! naming the absent shard.

use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;

use anonring_bench::{out, outln};
use anonring_sim::telemetry::{merge, CausalDag, CriticalPath, Histogram, PathWeight};
use anonring_sim::telemetry::{Recording, ReplayEvent, RECORDING_VERSION};

/// Sections printed when none are named on the command line.
const DEFAULT_SECTIONS: [&str; 4] = ["summary", "phases", "profile", "diagram"];
/// Sections that exist but only render when explicitly requested.
const EXPLICIT_SECTIONS: [&str; 2] = ["critical-path", "dag"];

/// Each wall-stamped send's `(wall stamp, phase)`, by `seq`: the join
/// that the wall latency table and the collapsed stacks both read.
type SendWalls<'a> = HashMap<u64, (u64, &'a str)>;

fn send_walls(rec: &Recording) -> SendWalls<'_> {
    let mut sends = SendWalls::new();
    for event in &rec.events {
        if let ReplayEvent::Send {
            seq,
            phase,
            wall_us: Some(wall),
            ..
        } = event
        {
            sends.insert(*seq, (*wall, phase.as_deref().unwrap_or_default()));
        }
    }
    sends
}

fn print_summary(rec: &Recording, walls: &SendWalls) {
    outln!("## summary\n");
    outln!("label:      {}", rec.label);
    outln!("format:     version {RECORDING_VERSION}");
    let engine = if rec.engine.is_empty() {
        "(not recorded)"
    } else {
        &rec.engine
    };
    outln!("engine:     {engine}");
    outln!("ring size:  {}", rec.n);
    outln!("events:     {}", rec.events.len());
    if rec.truncated > 0 {
        outln!(
            "truncated:  {} (older events were cut before the file was written)",
            rec.truncated
        );
    }
    outln!("messages:   {}", rec.messages());
    outln!("bits:       {}", rec.bits());
    let (delivers, drops, halts) = rec
        .per_time_activity()
        .iter()
        .fold((0, 0, 0), |(d, x, h), row| {
            (d + row.2, x + row.3, h + row.4)
        });
    outln!("deliveries: {delivers} ({drops} dropped at halted receivers)");
    outln!("halts:      {halts} of {}", rec.n);
    let horizon = rec.events.iter().map(ReplayEvent::time).max();
    if let Some(h) = horizon {
        outln!("time span:  0..={h}");
    }
    print_quantiles(rec);
    print_wall_latency(rec, walls);
    outln!();
}

/// Per-phase wall-clock delivery latency for real-time (`"engine":"net"`)
/// recordings: each delivered message's latency is its deliver `wall`
/// stamp minus its send's, matched by `seq`. Simulator recordings carry
/// no wall stamps and print nothing here.
fn print_wall_latency(rec: &Recording, walls: &SendWalls) {
    if rec.engine != "net" {
        return;
    }
    // BTreeMap keys the table in deterministic phase order.
    let mut per_phase: BTreeMap<&str, Histogram> = BTreeMap::new();
    for event in &rec.events {
        if let ReplayEvent::Deliver {
            seq,
            wall_us: Some(delivered),
            ..
        } = event
        {
            if let Some(&(sent, phase)) = walls.get(seq) {
                per_phase
                    .entry(phase)
                    .or_default()
                    .observe(delivered.saturating_sub(sent));
            }
        }
    }
    if per_phase.is_empty() {
        return;
    }
    outln!("\nwall latency (send -> deliver, microseconds):\n");
    outln!("| phase | deliveries | p50 | p95 | p99 | p999 | max |");
    outln!("|---|---|---|---|---|---|---|");
    for (phase, h) in &per_phase {
        let name = if phase.is_empty() {
            "(unspanned)"
        } else {
            phase
        };
        outln!(
            "| {name} | {} | {:.3} | {:.3} | {:.3} | {:.3} | {} |",
            h.count,
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99),
            h.quantile(0.999),
            h.max
        );
    }
}

/// Derived distributions over the replayed events: message sizes and
/// per-cycle send activity, with the registry's quantile estimators.
fn print_quantiles(rec: &Recording) {
    let mut message_bits = Histogram::default();
    for event in &rec.events {
        if let ReplayEvent::Send { bits, .. } = event {
            message_bits.observe(*bits as u64);
        }
    }
    let sends_per_cycle = rec.messages_per_time();
    let rows = [
        ("message bits", &message_bits),
        ("sends per cycle", &sends_per_cycle),
    ];
    if rows.iter().all(|(_, h)| h.count == 0) {
        return;
    }
    outln!("\n| distribution | count | max | mean | p50 | p95 | p99 | p999 |");
    outln!("|---|---|---|---|---|---|---|---|");
    for (name, h) in rows {
        if h.count == 0 {
            continue;
        }
        outln!(
            "| {name} | {} | {} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} |",
            h.count,
            h.max,
            h.mean(),
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99),
            h.quantile(0.999)
        );
    }
}

fn print_phases(rec: &Recording) {
    outln!("## phases\n");
    let profile = rec.phase_profile();
    if profile.is_empty() {
        outln!("(no sends recorded)\n");
        return;
    }
    outln!("| phase | round | messages | bits |");
    outln!("|---|---|---|---|");
    for ((phase, round), (messages, bits)) in profile {
        let name = if phase.is_empty() {
            "(unspanned)"
        } else {
            &phase
        };
        outln!("| {name} | {round} | {messages} | {bits} |");
    }
    outln!();
}

fn print_profile(rec: &Recording, walls: &SendWalls) {
    outln!("## per-cycle activity\n");
    outln!("| t | sends | delivers | drops | halts |");
    outln!("|---|---|---|---|---|");
    let rows = rec.per_time_activity();
    for (t, sends, delivers, drops, halts) in &rows {
        outln!("| {t} | {sends} | {delivers} | {drops} | {halts} |");
    }
    let elided = rec.horizon() - rows.len() as u64;
    if elided > 0 {
        outln!("\n({elided} quiet cycles elided)");
    }
    outln!();
    print_collapsed_stacks(rec, walls);
}

/// Wall-time attribution for real-time (`"engine":"net"`) recordings,
/// rendered as collapsed stacks — `phase;algorithm;operation wall_us`,
/// the input format of Brendan Gregg's `flamegraph.pl` — plus a top-K
/// table of the biggest sinks. The wall stamps are monotone in file
/// order (the hub stamps them inside its critical section), so each
/// event is charged the wall time since the previous event: the deltas
/// partition the run's busy span. Simulator recordings carry no wall
/// stamps and skip this section; the markdown table rows elsewhere in
/// the output end in `|`, which `flamegraph.pl` ignores, so the whole
/// section can be piped in unfiltered.
fn print_collapsed_stacks(rec: &Recording, walls: &SendWalls) {
    if rec.engine != "net" {
        return;
    }
    // (phase, operation) -> (accumulated us, events); BTreeMap keys the
    // stack lines deterministically.
    let mut sinks: BTreeMap<(&str, &str), (u64, u64)> = BTreeMap::new();
    let mut prev: Option<u64> = None;
    for event in &rec.events {
        let (wall, phase, operation) = match event {
            ReplayEvent::Send {
                phase,
                wall_us: Some(wall),
                ..
            } => (*wall, phase.as_deref().unwrap_or_default(), "send"),
            ReplayEvent::Deliver {
                seq,
                wall_us: Some(wall),
                ..
            } => (
                *wall,
                walls.get(seq).map_or("", |&(_, phase)| phase),
                "deliver",
            ),
            _ => continue,
        };
        let charged = wall.saturating_sub(prev.unwrap_or(wall));
        prev = Some(wall);
        let slot = sinks.entry((phase, operation)).or_insert((0, 0));
        slot.0 += charged;
        slot.1 += 1;
    }
    if sinks.is_empty() {
        return;
    }
    let algorithm = if rec.label.is_empty() {
        "(unlabelled)"
    } else {
        &rec.label
    };
    outln!("collapsed stacks (pipe to flamegraph.pl):\n");
    for ((phase, operation), (us, _)) in &sinks {
        let phase = if phase.is_empty() {
            "(unspanned)"
        } else {
            phase
        };
        outln!("{phase};{algorithm};{operation} {us}");
    }
    let mut ranked: Vec<_> = sinks.iter().collect();
    ranked.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then_with(|| a.0.cmp(b.0)));
    outln!("\ntop wall-time sinks:\n");
    outln!("| rank | phase | operation | events | wall us |");
    outln!("|---|---|---|---|---|");
    for (rank, ((phase, operation), (us, events))) in ranked.iter().take(8).enumerate() {
        let phase = if phase.is_empty() {
            "(unspanned)"
        } else {
            phase
        };
        outln!("| {} | {phase} | {operation} | {events} | {us} |", rank + 1);
    }
    outln!();
}

fn print_diagram(rec: &Recording) {
    outln!("## space-time diagram\n");
    outln!("{}", rec.render(60));
}

fn describe_path(title: &str, path: &CriticalPath) {
    outln!("{title}");
    outln!("  hops:       {}", path.hops);
    outln!("  bits:       {}", path.bits);
    outln!(
        "  time span:  {}..={} (elapsed {})",
        path.start_time,
        path.end_time,
        path.elapsed()
    );
    let chain: Vec<String> = path.seqs.iter().map(|s| format!("#{s}")).collect();
    outln!("  chain:      {}", chain.join(" -> "));
    outln!("\n  | phase | messages | bits |");
    outln!("  |---|---|---|");
    for (phase, stats) in &path.per_phase {
        let name = if phase.is_empty() {
            "(unspanned)"
        } else {
            phase
        };
        outln!("  | {name} | {} | {} |", stats.messages, stats.bits);
    }
    outln!();
}

fn print_critical_path(dag: &CausalDag) {
    outln!("## critical path\n");
    outln!("causal DAG: {} sends, {} roots", dag.len(), dag.roots());
    match dag.critical_path(PathWeight::Hops) {
        Some(path) => describe_path("\nlongest chain (by hops):", &path),
        None => outln!("(no sends recorded)\n"),
    }
    if let Some(path) = dag.critical_path(PathWeight::Bits) {
        describe_path("heaviest chain (by bits):", &path);
    }
}

fn print_dag(dag: &CausalDag) {
    outln!("## causal dag (graphviz dot)\n");
    let path = dag.critical_path(PathWeight::Hops);
    outln!("{}", dag.to_dot(path.as_ref()));
}

/// `tracer merge [--out PATH] <shard.jsonl>...` — interleave per-shard
/// cluster recordings into the canonical merged recording (S27).
fn run_merge(args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut out: Option<String> = None;
    let mut inputs: Vec<String> = Vec::new();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        if arg == "--out" {
            out = Some(args.next().ok_or("--out needs a value")?);
        } else {
            inputs.push(arg);
        }
    }
    if inputs.is_empty() {
        return Err("usage: tracer merge [--out PATH] <shard.jsonl>...".to_string());
    }
    let recordings = inputs
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            Recording::parse_jsonl(&text).map_err(|e| format!("parse {path}: {e}"))
        })
        .collect::<Result<Vec<Recording>, String>>()?;
    let merged = merge::merge(&recordings).map_err(|e| e.to_string())?;
    let rendered = merged.to_jsonl();
    match &out {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!(
                "tracer: merged {} shards into {path} ({} events)",
                recordings.len(),
                merged.events.len()
            );
        }
        None => out!("{rendered}"),
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let path = args.next().ok_or_else(|| {
        format!(
            "usage: tracer <recording.jsonl> [{}|{}]\n       tracer merge [--out PATH] <shard.jsonl>...",
            DEFAULT_SECTIONS.join("|"),
            EXPLICIT_SECTIONS.join("|")
        )
    })?;
    if path == "merge" {
        return run_merge(args);
    }
    let sections: Vec<String> = args.collect();
    for s in &sections {
        let known = |name: &&str| *name == s.as_str();
        if !DEFAULT_SECTIONS.iter().any(known) && !EXPLICIT_SECTIONS.iter().any(known) {
            return Err(format!(
                "unknown section {s:?} (expected one of {DEFAULT_SECTIONS:?} or {EXPLICIT_SECTIONS:?})"
            ));
        }
    }
    let wants = |name: &str| sections.iter().any(|s| s == name);
    let defaulted = |name: &str| sections.is_empty() || wants(name);
    let input = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let rec = Recording::parse_jsonl(&input).map_err(|e| format!("parse {path}: {e}"))?;
    let dag = (wants("critical-path") || wants("dag")).then(|| CausalDag::from_recording(&rec));
    let walls = send_walls(&rec);
    outln!("# trace: {path}\n");
    if defaulted("summary") {
        print_summary(&rec, &walls);
    }
    if defaulted("phases") {
        print_phases(&rec);
    }
    if defaulted("profile") {
        print_profile(&rec, &walls);
    }
    if defaulted("diagram") {
        print_diagram(&rec);
    }
    if let Some(dag) = &dag {
        if wants("critical-path") {
            print_critical_path(dag);
        }
        if wants("dag") {
            print_dag(dag);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("tracer: {msg}");
            ExitCode::FAILURE
        }
    }
}
