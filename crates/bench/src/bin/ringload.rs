//! `ringload` — open-loop load generator and serving gate for `ringd`.
//!
//! ```text
//! ringload run   --jobs K [--rate R] [--seed S] [spec flags] [--socket PATH]
//!                [--out BENCH_serving.json --revision L] [--wall]
//! ringload sweep --rates R1,R2,... --jobs K [--seed S] [spec flags]
//!                [--out BENCH_serving.json --revision L] [--wall]
//! ringload soak  --jobs K [--rate R] [--seed S] [spec flags]
//! ringload overhead --jobs K [--seed S] [spec flags] [--passes P]
//!                [--max-degradation PCT] [--out overhead.md]
//! ringload diff  <old.json> <new.json>
//! ```
//!
//! Spec flags: `--n N` (ring size, default 3), `--algorithms a,b,c`
//! (audit-table names, default `sync_and,async_input_dist,start_sync`),
//! `--transport threads|tcp`, `--no-conformance`, `--workers W`,
//! `--max-queue N`, `--retries N`, `--profile` (enable the S26 hot-path
//! profiler for the run).
//!
//! `run`/`sweep` drive an in-process `ringd` worker pool — or, with
//! `--socket PATH` (unix), a live external `ringd --socket` server, in
//! which case the generator also scrapes the `metrics` endpoint over
//! the protocol and validates the Prometheus exposition. Every job is a
//! pure function of `(--seed, position)`, so the deterministic fields
//! of the resulting `BENCH_serving.json` points (jobs, ok, failed,
//! certified, messages, bits, digest) are byte-reproducible; `--wall`
//! opts the advisory wall-clock fields into the artifact. `soak`
//! additionally asserts the serving invariants: bounded queue depth and
//! a fully-drained resident set (no counter-derived memory growth).
//! `diff` is the 0%-tolerance gate over two artifacts. `overhead` runs
//! the same full-speed load with the S26 profiler off and then on
//! (best of `--passes`, default 3), prints the comparison, optionally
//! writes it to `--out`, and fails if profiler-on achieved/s degrades
//! by more than `--max-degradation` percent (default 5).

use std::process::ExitCode;

use anonring_bench::artifact::Policy;
use anonring_bench::cli::{
    diff_files, reject_leftovers, save_store, take_flag, take_number, take_option,
};
use anonring_bench::load::{
    aggregate_results, arrival_schedule, job_line, run_load, run_soak, LoadReport, LoadSpec,
    ServingPoint, ServingSnapshot, ServingTrajectory,
};
use anonring_bench::ringd::ServeOptions;
use anonring_bench::{out, outln};
use anonring_core::algorithms::driver::Audited;
use anonring_net::Transport;

/// The flags every load-driving subcommand shares.
struct Shared {
    spec: LoadSpec,
    options: ServeOptions,
    socket: Option<String>,
    out: Option<String>,
    revision: Option<String>,
    wall: bool,
    profile: bool,
}

fn parse_shared(args: &mut Vec<String>) -> Result<Shared, String> {
    let jobs = take_number(args, "--jobs", 0usize)?;
    if jobs == 0 {
        return Err("--jobs <count> is required".into());
    }
    let rate = take_number(args, "--rate", 0u64)?;
    let seed = take_number(args, "--seed", 0u64)?;
    let mut spec = LoadSpec::default_mix(jobs, rate, seed);
    spec.n = take_number(args, "--n", spec.n)?;
    if spec.n < 2 {
        return Err("--n must be >= 2".into());
    }
    if let Some(list) = take_option(args, "--algorithms")? {
        spec.algorithms = list
            .split(',')
            .map(|name| {
                Audited::from_name(name.trim())
                    .ok_or_else(|| format!("unknown algorithm {name:?} (audit-table names only)"))
            })
            .collect::<Result<_, _>>()?;
        if spec.algorithms.is_empty() {
            return Err("--algorithms needs at least one name".into());
        }
    }
    if let Some(name) = take_option(args, "--transport")? {
        spec.transport = Transport::from_name(&name)
            .ok_or_else(|| format!("unknown transport {name:?} (threads|tcp)"))?;
    }
    if take_flag(args, "--no-conformance") {
        spec.conformance = false;
    }
    let options = ServeOptions {
        workers: take_number(args, "--workers", 0usize)?,
        max_queue: take_number(args, "--max-queue", 0usize)?,
        retries: take_number(args, "--retries", 0u32)?,
        ..ServeOptions::default()
    };
    let shared = Shared {
        spec,
        options,
        socket: take_option(args, "--socket")?,
        out: take_option(args, "--out")?,
        revision: take_option(args, "--revision")?,
        wall: take_flag(args, "--wall"),
        profile: take_flag(args, "--profile"),
    };
    if shared.profile {
        anonring_sim::profile::set_enabled(true);
    }
    Ok(shared)
}

fn print_report(rate: u64, report: &LoadReport) {
    outln!(
        "| {rate} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
        report.summary.jobs,
        report.summary.ok,
        report.summary.failed,
        report.summary.requeued,
        report.certified,
        report.messages,
        report.bits,
        report.achieved_per_s,
        report.peak_queue_depth,
        report.wall_us / 1000
    );
}

fn print_header() {
    outln!(
        "| rate/s | jobs | ok | failed | requeued | certified | messages | bits \
         | achieved/s | peak queue | wall ms |"
    );
    outln!("|---|---|---|---|---|---|---|---|---|---|---|");
}

fn write_artifact(
    out: &Option<String>,
    revision: &Option<String>,
    points: Vec<ServingPoint>,
) -> Result<(), String> {
    let Some(path) = out else {
        return Ok(());
    };
    let revision = revision
        .as_deref()
        .ok_or("--out requires --revision <label> (snapshots are keyed by it)")?;
    let mut trajectory = ServingTrajectory::load_or_new(path)?;
    // Merge with any points this revision already measured (e.g. the
    // other transport's sweep in the same CI run).
    let mut merged = trajectory
        .snapshot(revision)
        .map(|s| s.points.clone())
        .unwrap_or_default();
    for point in points {
        match merged
            .iter_mut()
            .find(|p| p.rate_per_s == point.rate_per_s && p.transport == point.transport)
        {
            Some(slot) => *slot = point,
            None => merged.push(point),
        }
    }
    trajectory.upsert(ServingSnapshot {
        revision: revision.to_string(),
        points: merged,
    });
    save_store(&trajectory, path)
}

/// Drives one schedule into a live `ringd --socket` server, scrapes the
/// metrics endpoint both ways, and validates the exposition shape.
#[cfg(unix)]
fn drive_socket(spec: &LoadSpec, path: &str) -> Result<LoadReport, String> {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    use anonring_sim::json::Value;

    let stream = UnixStream::connect(path).map_err(|e| format!("connect {path}: {e}"))?;
    let reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?,
    );
    let collector = std::thread::spawn(move || -> std::io::Result<Vec<String>> {
        let mut lines = Vec::new();
        for line in reader.lines() {
            let line = line?;
            let done = line.contains("\"type\":\"done\"");
            lines.push(line);
            if done {
                break;
            }
        }
        Ok(lines)
    });

    let schedule = arrival_schedule(spec);
    let started = Instant::now();
    let mut writer = stream;
    for (k, due) in schedule.iter().enumerate() {
        let elapsed = started.elapsed();
        if *due > elapsed {
            std::thread::sleep(*due - elapsed);
        }
        writeln!(writer, "{}", job_line(spec, k)).map_err(|e| format!("send job {k}: {e}"))?;
    }
    writeln!(writer, "{{\"type\":\"metrics\"}}").map_err(|e| format!("scrape: {e}"))?;
    writeln!(writer, "{{\"type\":\"metrics\",\"format\":\"prometheus\"}}")
        .map_err(|e| format!("scrape: {e}"))?;
    writer
        .shutdown(std::net::Shutdown::Write)
        .map_err(|e| format!("close batch: {e}"))?;
    let lines = collector
        .join()
        .map_err(|_| "socket reader panicked".to_string())?
        .map_err(|e| format!("read results: {e}"))?;
    let wall_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);

    let mut summary = anonring_bench::ringd::ServeSummary {
        jobs: 0,
        ok: 0,
        failed: 0,
        requeued: 0,
    };
    let mut scraped_json = false;
    let mut scraped_prometheus = false;
    for line in &lines {
        let value = Value::parse(line).map_err(|e| format!("bad line {line:?}: {e}"))?;
        match value.get("type").and_then(Value::as_str) {
            Some("done") => {
                let num = |key: &str| {
                    value
                        .get(key)
                        .and_then(Value::as_u64)
                        .map(|v| v as usize)
                        .ok_or_else(|| format!("done line missing {key:?}"))
                };
                summary.jobs = num("jobs")?;
                summary.ok = num("ok")?;
                summary.failed = num("failed")?;
                summary.requeued = num("requeued")?;
            }
            Some("metrics") => match value.get("format").and_then(Value::as_str) {
                Some("json") => {
                    value
                        .get("snapshot")
                        .and_then(|s| s.get("counters"))
                        .and_then(Value::as_array)
                        .ok_or("metrics JSON response lacks counters")?;
                    scraped_json = true;
                }
                Some("prometheus") => {
                    let body = value
                        .get("body")
                        .and_then(Value::as_str)
                        .ok_or("prometheus response lacks body")?;
                    for needle in [
                        "# TYPE ringd_jobs_accepted_total counter",
                        "# TYPE ringd_queue_depth gauge",
                        "ringd_jobs_accepted_total ",
                    ] {
                        if !body.contains(needle) {
                            return Err(format!("prometheus exposition lacks {needle:?}"));
                        }
                    }
                    scraped_prometheus = true;
                }
                other => return Err(format!("unknown metrics format {other:?}")),
            },
            _ => {}
        }
    }
    if !scraped_json || !scraped_prometheus {
        return Err("metrics scrape went unanswered".into());
    }
    let agg = aggregate_results(&lines.join("\n"))?;
    Ok(LoadReport {
        summary,
        certified: agg.certified,
        messages: agg.messages,
        bits: agg.bits,
        digest: agg.digest,
        wall_us,
        achieved_per_s: (summary.ok as u64)
            .saturating_mul(1_000_000)
            .checked_div(wall_us)
            .unwrap_or(0),
        // The server owns the gauges; over the wire they're advisory.
        peak_queue_depth: 0,
        peak_live_bytes: 0,
        snapshot: anonring_sim::telemetry::MetricsRegistry::new(),
    })
}

#[cfg(not(unix))]
fn drive_socket(_spec: &LoadSpec, _path: &str) -> Result<LoadReport, String> {
    Err("--socket requires a unix platform".into())
}

fn cmd_run(mut args: Vec<String>) -> Result<ExitCode, String> {
    let shared = parse_shared(&mut args)?;
    reject_leftovers(&args)?;
    let report = match &shared.socket {
        Some(path) => drive_socket(&shared.spec, path)?,
        None => run_load(&shared.spec, &shared.options)?,
    };
    print_header();
    print_report(shared.spec.rate, &report);
    let point = ServingPoint::from_report(&shared.spec, &report, shared.wall);
    write_artifact(&shared.out, &shared.revision, vec![point])?;
    Ok(if report.summary.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_sweep(mut args: Vec<String>) -> Result<ExitCode, String> {
    let rates: Vec<u64> = take_option(&mut args, "--rates")?
        .ok_or("sweep requires --rates r1,r2,...")?
        .split(',')
        .map(|part| {
            part.trim()
                .parse::<u64>()
                .map_err(|_| format!("bad rate {part:?}"))
        })
        .collect::<Result<_, _>>()?;
    let shared = parse_shared(&mut args)?;
    reject_leftovers(&args)?;
    print_header();
    let mut points = Vec::new();
    let mut failed = false;
    for &rate in &rates {
        let spec = LoadSpec {
            rate,
            ..shared.spec.clone()
        };
        let report = match &shared.socket {
            Some(path) => drive_socket(&spec, path)?,
            None => run_load(&spec, &shared.options)?,
        };
        print_report(rate, &report);
        failed |= report.summary.failed > 0;
        points.push(ServingPoint::from_report(&spec, &report, shared.wall));
    }
    // Determinism across the curve: every point replays the same jobs,
    // so the gated fields must agree rate to rate.
    for pair in points.windows(2) {
        if (pair[0].messages, pair[0].bits, pair[0].digest)
            != (pair[1].messages, pair[1].bits, pair[1].digest)
        {
            return Err(format!(
                "saturation curve is not deterministic: rate {} and rate {} disagree",
                pair[0].rate_per_s, pair[1].rate_per_s
            ));
        }
    }
    write_artifact(&shared.out, &shared.revision, points)?;
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_soak(mut args: Vec<String>) -> Result<ExitCode, String> {
    let shared = parse_shared(&mut args)?;
    reject_leftovers(&args)?;
    if shared.socket.is_some() {
        return Err("soak drives the in-process pool (invariants need the live gauges)".into());
    }
    let report = run_soak(&shared.spec, &shared.options)?;
    print_header();
    print_report(shared.spec.rate, &report.load);
    outln!(
        "\nsoak ok: {} jobs, queue peaked at {} (bound {}), resident bytes peaked at {} \
         (bound {}), fully drained",
        report.load.summary.jobs,
        report.load.peak_queue_depth,
        report.queue_bound,
        report.load.peak_live_bytes,
        report.live_bytes_bound
    );
    Ok(if report.load.summary.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Measures the S26 profiler's end-to-end cost: the same full-speed load
/// with the profiler off and then on, best of `--passes` runs each,
/// compared on achieved jobs/s. The deterministic fields must agree
/// between the two modes (the profiler observes, it must not steer).
fn cmd_overhead(mut args: Vec<String>) -> Result<ExitCode, String> {
    let max_degradation: f64 = take_number(&mut args, "--max-degradation", 5.0)?;
    let passes: usize = take_number(&mut args, "--passes", 3)?;
    let shared = parse_shared(&mut args)?;
    reject_leftovers(&args)?;
    if shared.socket.is_some() {
        return Err("overhead drives the in-process pool (it toggles the profiler)".into());
    }
    let best_of = |enabled: bool| -> Result<LoadReport, String> {
        anonring_sim::profile::set_enabled(enabled);
        let mut best: Option<LoadReport> = None;
        for _ in 0..passes.max(1) {
            anonring_sim::profile::reset();
            let report = run_load(&shared.spec, &shared.options)?;
            if report.summary.failed > 0 {
                return Err(format!(
                    "overhead load failed {} job(s) with profiler {}",
                    report.summary.failed,
                    if enabled { "on" } else { "off" }
                ));
            }
            if best
                .as_ref()
                .is_none_or(|b| report.achieved_per_s > b.achieved_per_s)
            {
                best = Some(report);
            }
        }
        best.ok_or_else(|| "no overhead pass ran".to_string())
    };
    // One unmeasured warmup absorbs cold caches and thread spin-up.
    anonring_sim::profile::set_enabled(false);
    run_load(&shared.spec, &shared.options)?;
    let off = best_of(false)?;
    let on = best_of(true)?;
    anonring_sim::profile::set_enabled(false);
    if (off.messages, off.bits, &off.digest) != (on.messages, on.bits, &on.digest) {
        return Err(format!(
            "profiler changed the deterministic fields: off ({}, {}, {}) vs on ({}, {}, {})",
            off.messages, off.bits, off.digest, on.messages, on.bits, on.digest
        ));
    }
    let degradation = if off.achieved_per_s > on.achieved_per_s && off.achieved_per_s > 0 {
        ((off.achieved_per_s - on.achieved_per_s) as f64 / off.achieved_per_s as f64) * 100.0
    } else {
        0.0
    };
    let verdict = if degradation <= max_degradation {
        "PASS"
    } else {
        "FAIL"
    };
    let mut comparison = String::new();
    comparison.push_str("# Profiler overhead: ringload best-of comparison\n\n");
    comparison.push_str(&format!(
        "{} jobs, seed {}, n {}, transport {:?}, best of {} pass(es) per mode\n\n",
        shared.spec.jobs,
        shared.spec.seed,
        shared.spec.n,
        shared.spec.transport,
        passes.max(1)
    ));
    comparison.push_str("| profiler | jobs | ok | achieved/s | wall ms | messages | bits |\n");
    comparison.push_str("|---|---|---|---|---|---|---|\n");
    for (mode, report) in [("off", &off), ("on", &on)] {
        comparison.push_str(&format!(
            "| {mode} | {} | {} | {} | {} | {} | {} |\n",
            report.summary.jobs,
            report.summary.ok,
            report.achieved_per_s,
            report.wall_us / 1000,
            report.messages,
            report.bits
        ));
    }
    comparison.push_str(&format!(
        "\ndegradation: {degradation:.2}% of profiler-off achieved/s \
         (budget {max_degradation:.2}%) -> {verdict}\n"
    ));
    out!("{comparison}");
    if let Some(path) = &shared.out {
        std::fs::write(path, &comparison).map_err(|e| format!("write {path}: {e}"))?;
        outln!("wrote {path}");
    }
    Ok(if verdict == "PASS" {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_diff(args: Vec<String>) -> Result<ExitCode, String> {
    diff_files::<ServingSnapshot>(args, Policy::Exact)?;
    Ok(ExitCode::SUCCESS)
}

fn run() -> Result<ExitCode, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return Err(
            "usage: ringload run --jobs K [--rate R] [--seed S] [spec flags] [--socket PATH] \
             [--out FILE --revision L] [--wall] [--profile] | ringload sweep --rates r1,r2,... \
             --jobs K [...] | ringload soak --jobs K [...] | ringload overhead --jobs K [...] \
             [--passes P] [--max-degradation PCT] | ringload diff <old> <new>"
                .into(),
        );
    }
    let command = args.remove(0);
    match command.as_str() {
        "run" => cmd_run(args),
        "sweep" => cmd_sweep(args),
        "soak" => cmd_soak(args),
        "overhead" => cmd_overhead(args),
        "diff" => cmd_diff(args),
        other => Err(format!(
            "unknown command {other:?} (run | sweep | soak | overhead | diff)"
        )),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("ringload: {msg}");
            ExitCode::FAILURE
        }
    }
}
