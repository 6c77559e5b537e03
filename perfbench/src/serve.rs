//! `serve_small`: the `ringd` server in-process (`serve_with`, one
//! worker, threads transport), fed by one generator thread with the
//! `ringload` default mix at n = 3, whose inputs repeat across jobs.
//!
//! An untraced run is a number of rounds of three equal phases:
//!
//! 1. **Open loop** at a fixed offered rate: jobs are sent on a seeded,
//!    jittered schedule whatever the server does, and each job's latency
//!    is timed from its due time, so a stall also delays later jobs.
//! 2. **Closed loop**: one job in flight, the next sent when the previous
//!    one's line arrives — the latency one client sees.
//! 3. **Saturation**: jobs back to back behind a small admission queue;
//!    certified jobs per second.
//!
//! The run pins itself to one CPU and reports what a job costs in
//! process CPU time: the closed-loop jobs' median and p90, and the
//! saturation phases' certified jobs per CPU second. On a shared virtual
//! machine the wall-clock figures of these 0.2 ms jobs double whenever the
//! hypervisor runs other guests on the host's cores, while CPU time does
//! not count the stolen time. The wall-clock figures go to the notes.
//!
//! A traced run replaces the result with per-layer numbers: one untraced
//! reference round, a saturation phase with the hot-path profiler on, and
//! a loop that drives the same jobs through the layers `ringd` calls —
//! `JobSpec::parse`, `Audited::topology`/`procs`, `anonring_net::run`, the
//! simulator plus `conformance::compare` — with a span around each call.

use std::collections::HashSet;
use std::io::{BufReader, Read, Write};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use anonring_bench::json::Value;
use anonring_bench::load::{self, LoadSpec};
use anonring_bench::ringd::{serve_with, JobSpec, ServeOptions, ServeSummary, ServingMetrics};
use anonring_core::algorithms::driver::JobOutput;
use anonring_net::conformance::compare;
use anonring_sim::profile;
use anonring_sim::r#async::{AsyncEngine, SynchronizingScheduler};
use anonring_sim::telemetry::{Histogram, MetricId, MetricsRegistry};

use crate::host::{cpu_time, peak_rss_mb, pin_to_one_cpu, speed_now};
use crate::report::{rounds_note, Outcome};
use crate::rng::Rng;
use crate::stats::{max, mean, median, min, quantile, ratio};
use crate::trace::Tracer;
use crate::{RunConfig, Scale};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 21;

/// Latency charged to a job that failed or never answered: its budget.
const FAILED_MS: f64 = 10_000.0;

/// Job-index offsets that keep the phases' jobs distinct; round `r` of
/// a phase starts at its base plus `r * ROUND_STRIDE`, so the bases leave
/// room for 10 000 rounds.
const ROUND_STRIDE: usize = 100_000;
const SATURATION_BASE: usize = 1_000_000_000;
const PROFILED_BASE: usize = 2_000_000_000;
const TRACED_BASE: usize = 3_000_000_000;
const WARMUP_BASE: usize = 4_000_000_000;
const CLOSED_BASE: usize = 5_000_000_000;

/// Calibration runs behind `net.fixed_us`.
const CALIBRATION_RUNS: usize = 20;

/// Offered open-loop rate, jobs per second: about half the saturation
/// rate of the reference host.
const RATE_PER_S: f64 = 2500.0;

/// Seconds of one round of an untraced run, its three phases together.
/// A run makes as many rounds as fit: the server's output lines of a
/// phase stay in memory until the phase is checked, so a fixed round
/// length keeps the benchmark's own share of `peak_rss_mb` the same at
/// any run length, and more rounds give the wall-clock figures in the
/// notes, the best round's, more chances to find the host calm.
const ROUND_S: f64 = 0.5;

/// Workload name, as failure and violation messages give it.
const NAME: &str = "serve_small";

/// The job line at position `k`: a pure function of the seed and `k`.
#[must_use]
pub fn job_line(seed: u64, k: usize) -> String {
    load::job_line(&LoadSpec::default_mix(0, 0, seed), k)
}

fn rate(scale: Scale) -> f64 {
    match scale {
        Scale::Full => RATE_PER_S,
        Scale::Tiny => RATE_PER_S / 10.0,
    }
}

/// Feeds lines from a channel to `serve_with` as a byte stream; EOF
/// when the sender hangs up.
struct ChannelReader {
    rx: mpsc::Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(line) => {
                    self.buf = line.into_bytes();
                    self.buf.push(b'\n');
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = (self.buf.len() - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The server's output stream: each line with the instant it was
/// completed.
#[derive(Default)]
struct StampSink {
    partial: Vec<u8>,
    lines: Vec<(String, Instant)>,
    /// Told about every completed line (the closed-loop client waits on it).
    notify: Option<mpsc::Sender<()>>,
}

impl Write for StampSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        for chunk in buf.split_inclusive(|&b| b == b'\n') {
            match chunk.strip_suffix(b"\n") {
                Some(tail) => {
                    self.partial.extend_from_slice(tail);
                    let line = String::from_utf8_lossy(&self.partial).into_owned();
                    self.lines.push((line, now));
                    self.partial.clear();
                    if let Some(notify) = &self.notify {
                        let _ = notify.send(());
                    }
                }
                None => self.partial.extend_from_slice(chunk),
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// How a phase sends its jobs.
#[derive(Debug, Clone, Copy)]
enum Pacing {
    /// `jobs` jobs on a jittered schedule at `rate` per second.
    Open { rate: f64, jobs: usize },
    /// Back to back for `seconds`, behind a small admission queue.
    Saturate { seconds: f64 },
    /// `jobs` jobs at once.
    Batch { jobs: usize },
    /// One job at a time for `seconds`: the next is sent when the
    /// previous one's line arrives.
    Closed { seconds: f64 },
}

/// One phase: what was sent when, and what came back when.
struct Phase {
    start: Instant,
    base: usize,
    due: Vec<Instant>,
    sent: Vec<Instant>,
    lines: Vec<(String, Instant)>,
    /// Closed loop only: the process CPU time of each job, from just
    /// before it was sent to just after its line woke the client.
    cpu: Vec<Duration>,
    /// Process CPU time of the whole phase, the server's start and
    /// shutdown included.
    cpu_total: Duration,
    summary: ServeSummary,
    registry: MetricsRegistry,
}

fn run_phase(seed: u64, base: usize, pacing: Pacing) -> Result<Phase, String> {
    let options = ServeOptions {
        workers: 1,
        max_queue: match pacing {
            Pacing::Saturate { .. } => 8,
            _ => 0,
        },
        ..ServeOptions::default()
    };
    let metrics = ServingMetrics::new(1);
    // Only saturation may block the generator; the open loop and the
    // batch get room for every job.
    let (tx, rx) = mpsc::sync_channel::<String>(match pacing {
        Pacing::Open { jobs, .. } | Pacing::Batch { jobs } => jobs,
        Pacing::Saturate { .. } => 4,
        Pacing::Closed { .. } => 1,
    });
    let (notify, answered) = mpsc::channel::<()>();
    let mut sink = StampSink {
        notify: matches!(pacing, Pacing::Closed { .. }).then_some(notify),
        ..StampSink::default()
    };
    let mut due = Vec::new();
    let mut sent = Vec::new();
    let mut cpu = Vec::new();
    let mut cpu_sent = Duration::ZERO;
    let cpu_start = cpu_time();
    let start = Instant::now();
    let served = std::thread::scope(|scope| {
        let metrics = &metrics;
        let options = &options;
        let sink = &mut sink;
        let server = scope.spawn(move || {
            let reader = BufReader::new(ChannelReader {
                rx,
                buf: Vec::new(),
                pos: 0,
            });
            serve_with(reader, sink, options, metrics)
        });
        let mut rng = Rng::new(seed, 0xa11 ^ base as u64);
        let mut offset = 0.0f64;
        for k in 0.. {
            let when = match pacing {
                Pacing::Open { rate, jobs } => {
                    if k >= jobs {
                        break;
                    }
                    offset += (0.5 + rng.unit()) / rate;
                    let when = start + Duration::from_secs_f64(offset);
                    let now = Instant::now();
                    if when > now {
                        std::thread::sleep(when - now);
                    }
                    when
                }
                Pacing::Saturate { seconds } => {
                    if start.elapsed().as_secs_f64() >= seconds {
                        break;
                    }
                    Instant::now()
                }
                Pacing::Batch { jobs } => {
                    if k >= jobs {
                        break;
                    }
                    Instant::now()
                }
                Pacing::Closed { seconds } => {
                    if k > 0 {
                        if answered.recv().is_err() {
                            break;
                        }
                        cpu.push(cpu_time() - cpu_sent);
                    }
                    if start.elapsed().as_secs_f64() >= seconds {
                        break;
                    }
                    Instant::now()
                }
            };
            let line = job_line(seed, base + k);
            due.push(when);
            cpu_sent = cpu_time();
            sent.push(Instant::now());
            if tx.send(line).is_err() {
                break; // the server died; its error surfaces at join
            }
        }
        drop(tx);
        server
            .join()
            .unwrap_or_else(|_| Err(std::io::Error::other("serve thread panicked")))
    });
    let cpu_total = cpu_time() - cpu_start;
    let summary = served.map_err(|e| format!("{NAME}: serve failed: {e}"))?;
    let lines = std::mem::take(&mut sink.lines);
    Ok(Phase {
        start,
        base,
        due,
        sent,
        lines,
        cpu,
        cpu_total,
        summary,
        registry: metrics.snapshot(),
    })
}

/// The checked outcome of a phase.
struct Settled {
    /// Completion instant of each job, `None` when it failed.
    done: Vec<Option<Instant>>,
    /// Messages of the certified jobs.
    messages: u64,
}

impl Settled {
    fn ok(&self) -> usize {
        self.done.iter().flatten().count()
    }

    fn last(&self) -> Option<Instant> {
        self.done.iter().flatten().max().copied()
    }
}

/// How the errors `ringd` reports for a job whose net run finished but
/// whose certification against the simulator failed begin.
const CONFORMANCE_ERRORS: [&str; 2] = ["net/sim mismatch", "reference simulation failed"];

/// Checks every line of a phase and counts its jobs: a result must read
/// `certified` (and `async_input_dist` must send n(n−1) messages); an
/// error line or a missing answer is a failed job, and a certification
/// error is a wrong output as well.
fn settle(phase: &Phase, out: &mut Outcome) -> Settled {
    let jobs = phase.sent.len();
    let mut settled = Settled {
        done: vec![None; jobs],
        messages: 0,
    };
    let mut errors = Vec::new();
    let mut violations = Vec::new();
    let mut violate = |what: String| violations.push(format!("{NAME}: {what}"));
    let slot = |k: u64| {
        usize::try_from(k)
            .ok()
            .and_then(|k| k.checked_sub(phase.base))
            .filter(|&k| k < jobs)
    };
    for (line, at) in &phase.lines {
        let value = match Value::parse(line) {
            Ok(v) => v,
            Err(e) => {
                violate(format!("unparseable output line {line:?}: {e}"));
                continue;
            }
        };
        match value.get("type").and_then(Value::as_str) {
            Some("result") => {
                let k = value
                    .get("id")
                    .and_then(Value::as_str)
                    .and_then(|id| id.strip_prefix("load-"))
                    .and_then(|k| k.parse::<u64>().ok())
                    .and_then(slot);
                let Some(k) = k else {
                    violate(format!("result for a job never sent: {line}"));
                    continue;
                };
                let conformance = value.get("conformance").and_then(Value::as_str);
                if conformance != Some("certified") {
                    violate(format!("job {k} reads {conformance:?}, not certified"));
                    continue;
                }
                let messages = value.get("messages").and_then(Value::as_u64).unwrap_or(0);
                let n = value.get("n").and_then(Value::as_u64).unwrap_or(0);
                if value.get("algorithm").and_then(Value::as_str) == Some("async_input_dist")
                    && messages != n * n.saturating_sub(1)
                {
                    violate(format!(
                        "job {k}: async_input_dist sent {messages}, want n(n-1)"
                    ));
                    continue;
                }
                settled.messages += messages;
                settled.done[k] = Some(*at);
            }
            Some("error") => {
                // A failed job: its slot stays `None`. When the run finished
                // but its certification failed, the output is also wrong.
                let why = value.get("error").and_then(Value::as_str).unwrap_or("?");
                if CONFORMANCE_ERRORS.iter().any(|e| why.starts_with(e)) {
                    violate(format!("job not certified: {why}"));
                }
                errors.push(format!("{NAME}: {why}"));
            }
            Some("done") => {
                let s = phase.summary;
                if s.jobs != jobs || s.ok + s.failed != s.jobs {
                    violate(format!(
                        "done line accounts {} jobs ({} ok, {} failed) for {jobs} sent",
                        s.jobs, s.ok, s.failed
                    ));
                }
            }
            other => violate(format!("unexpected line type {other:?}")),
        }
    }
    out.count(jobs as u64, 0);
    let failed = jobs - settled.ok();
    for why in errors
        .into_iter()
        .chain(std::iter::repeat(format!("{NAME}: no answer")))
        .take(failed)
    {
        out.fail(why);
    }
    for what in violations {
        out.violate(what);
    }
    settled
}

/// Latencies (ms) from due time; a failed job is charged [`FAILED_MS`].
fn latencies_ms(phase: &Phase, settled: &Settled) -> Vec<f64> {
    phase
        .due
        .iter()
        .zip(&settled.done)
        .map(|(due, done)| done.map_or(FAILED_MS, |at| (at - *due).as_secs_f64() * 1e3))
        .collect()
}

fn histogram_sum(
    registry: &MetricsRegistry,
    name: &'static str,
    labels: &[(&'static str, &str)],
) -> f64 {
    registry
        .histogram(&MetricId::with_labels(name, labels))
        .map_or(0.0, |h| h.sum as f64)
}

/// Merges every histogram series called `name` whose labels include
/// `filter`.
fn merged(registry: &MetricsRegistry, name: &str, filter: Option<(&str, &str)>) -> Histogram {
    let mut out = Histogram::default();
    for (id, h) in registry.histograms() {
        let labelled = filter
            .is_none_or(|(key, value)| id.labels.iter().any(|(k, v)| *k == key && v == value));
        if id.name == name && labelled {
            out.merge(h);
        }
    }
    out
}

fn counter(registry: &MetricsRegistry, name: &'static str) -> f64 {
    registry.counter(&MetricId::plain(name)) as f64
}

/// Process CPU time (ms) of each closed-loop job at reference-host speed,
/// `speed` being the host's speed sampled just before the phase; a failed
/// job is charged [`FAILED_MS`].
fn cpu_ms(phase: &Phase, settled: &Settled, speed: f64) -> Vec<f64> {
    settled
        .done
        .iter()
        .enumerate()
        .map(|(k, done)| match (done, phase.cpu.get(k)) {
            (Some(_), Some(cpu)) => cpu.as_secs_f64() * 1e3 * speed,
            _ => FAILED_MS,
        })
        .collect()
}

/// Certified jobs per wall-clock second of a saturation phase.
fn jobs_per_s(phase: &Phase, settled: &Settled) -> f64 {
    settled.last().map_or(0.0, |last| {
        ratio(settled.ok() as f64, (last - phase.start).as_secs_f64())
    })
}

/// Process CPU seconds of a phase at reference-host speed, `speed` being
/// the host's speed sampled just before it.
fn cpu_s(phase: &Phase, speed: f64) -> f64 {
    phase.cpu_total.as_secs_f64() * speed
}

/// Set-up: start the server and answer one warm-up job per family,
/// `SETUP_REPEATS` times; the median process CPU time of a repeat, at
/// reference-host speed.
fn setup(seed: u64, out: &mut Outcome) -> Result<f64, String> {
    let mut times = Vec::new();
    for r in 0..SETUP_REPEATS {
        let speed = speed_now();
        let phase = run_phase(
            seed,
            WARMUP_BASE + r * 100,
            Pacing::Batch {
                jobs: LoadSpec::default_mix(0, 0, 0).algorithms.len(),
            },
        )?;
        times.push(cpu_s(&phase, speed));
        settle(&phase, out);
    }
    Ok(median(&times))
}

/// Runs the `serve_small` workload.
///
/// # Errors
///
/// A server I/O failure.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cpu = pin_to_one_cpu().map_err(|e| format!("{NAME}: {e}"))?;
    out.notes.push(format!(
        "pinned to CPU {cpu}: the client, the server and every processor thread"
    ));
    let setup_s = setup(config.seed, &mut out)?;
    let rate = rate(config.scale);
    // An untraced run makes rounds of the three phases; the
    // reported figures pool the CPU times of all of them, each phase's
    // scaled to reference-host speed by a sample taken just before it, and
    // the notes add the wall-clock figures of the best round. A traced run
    // makes one round, in the first third of its time, as the untraced
    // reference.
    let rounds = if config.trace {
        1
    } else {
        ((config.seconds / ROUND_S).round() as usize).max(1)
    };
    let share = if config.trace { 1.0 / 3.0 } else { 1.0 };
    let phase_s = config.seconds * share / (3 * rounds) as f64;
    let (mut open_p50, mut open_tail) = (Vec::new(), Vec::new());
    let (mut p50s, mut p90s, mut closed_mean_us, mut rates) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut offered, mut closed_jobs, mut saturated) = (0usize, 0usize, 0usize);
    // The reported figures: every closed-loop job's CPU time, and the
    // certified jobs and CPU time of every saturation phase.
    let mut closed_cpu_ms = Vec::new();
    let (mut speeds, mut cpu_p50s) = (Vec::new(), Vec::new());
    let (mut saturated_ok, mut saturated_cpu_s) = (0usize, 0.0f64);
    let mut first_open = None;
    for round in 0..rounds {
        let stride = round * ROUND_STRIDE;
        let open = run_phase(
            config.seed,
            stride,
            Pacing::Open {
                rate,
                jobs: ((rate * phase_s).ceil() as usize).max(1),
            },
        )?;
        let open_settled = settle(&open, &mut out);
        let open_ms = latencies_ms(&open, &open_settled);
        open_p50.push(median(&open_ms));
        open_tail.push(quantile(&open_ms, 0.99));
        offered += open.sent.len();
        first_open.get_or_insert((open, open_settled));

        let speed = speed_now();
        speeds.push(speed);
        let closed = run_phase(
            config.seed,
            CLOSED_BASE + stride,
            Pacing::Closed { seconds: phase_s },
        )?;
        let closed_settled = settle(&closed, &mut out);
        let closed_ms = latencies_ms(&closed, &closed_settled);
        p50s.push(median(&closed_ms));
        p90s.push(quantile(&closed_ms, 0.9));
        closed_mean_us.push(mean(&closed_ms) * 1e3);
        let cpu = cpu_ms(&closed, &closed_settled, speed);
        cpu_p50s.push(median(&cpu));
        closed_cpu_ms.extend(cpu);
        closed_jobs += closed.sent.len();

        let speed = speed_now();
        speeds.push(speed);
        let saturation = run_phase(
            config.seed,
            SATURATION_BASE + stride,
            Pacing::Saturate { seconds: phase_s },
        )?;
        let saturation_settled = settle(&saturation, &mut out);
        rates.push(jobs_per_s(&saturation, &saturation_settled));
        saturated += saturation.sent.len();
        saturated_ok += saturation_settled.ok();
        saturated_cpu_s += cpu_s(&saturation, speed);
    }
    out.notes.push(rounds_note(&[
        ("wall_jobs_per_s", &rates),
        ("wall_p50_ms", &p50s),
        ("wall_p90_ms", &p90s),
        ("open_p50_ms", &open_p50),
        ("open_tail_ms", &open_tail),
        ("cpu_p50_ms", &cpu_p50s),
        ("speed", &speeds),
    ]));
    // What a job costs in CPU time: stolen time is not charged to it.
    // Reference-host units throughout.
    let throughput = ratio(saturated_ok as f64, saturated_cpu_s);
    let (p50, tail) = (median(&closed_cpu_ms), quantile(&closed_cpu_ms, 0.9));
    // Wall-clock figures, best round: host noise only ever slows a round.
    let (open_p50, open_tail) = (min(&open_p50), min(&open_tail));
    out.notes.push(format!(
        "named jobs_per_cpu_s = {throughput:.1} jobs per CPU second at reference-host \
         speed ({saturated} jobs back to back); job_cpu_p50_ms = {p50:.3} ms, \
         job_cpu_p90_ms = {tail:.3} ms ({closed_jobs} jobs one at a time); wall clock, \
         best of {rounds} rounds: \
         {:.1} jobs/s back to back, one at a time p50 {:.3} ms and p90 {:.3} ms, open loop \
         at {rate} jobs/s from due time p50 {open_p50:.3} ms and p99 {open_tail:.3} ms \
         ({offered} jobs)",
        max(&rates),
        min(&p50s),
        min(&p90s)
    ));

    if !config.trace {
        out.set("setup_s", setup_s);
        out.set("throughput_per_s", throughput);
        out.set("p50_ms", p50);
        out.set("tail_ms", tail);
        out.set("ok_ratio", out.ok_ratio());
        out.set("peak_rss_mb", peak_rss_mb());
        return Ok(out);
    }

    // The open-loop view and the serving-plane gauges of the reference.
    let (open, open_settled) = first_open.expect("at least one round ran");
    out.set("loadgen.open_p50_ms", open_p50);
    out.set("loadgen.open_tail_ms", open_tail);
    let late_ms: Vec<f64> = open
        .due
        .iter()
        .zip(&open.sent)
        .map(|(due, sent)| sent.saturating_duration_since(*due).as_secs_f64() * 1e3)
        .collect();
    out.set("loadgen.late_p99_ms", quantile(&late_ms, 0.99));
    let gauge = open
        .registry
        .gauge(&MetricId::plain("ringd_queue_depth_peak"))
        .unwrap_or(0);
    out.set("ringd.queue_depth_peak", gauge as f64);
    let open_wall_us = open_settled
        .last()
        .map_or(0.0, |last| (last - open.start).as_secs_f64() * 1e6);
    let busy_us = histogram_sum(
        &open.registry,
        "ringd_job_latency_us",
        &[("phase", "execute")],
    ) + histogram_sum(
        &open.registry,
        "ringd_job_latency_us",
        &[("phase", "certify")],
    );
    out.set("ringd.busy_ratio", ratio(busy_us, open_wall_us));

    // Saturation again with the process-global profiler on.
    let speed = speed_now();
    profile::reset();
    profile::set_enabled(true);
    let profiled = run_phase(
        config.seed,
        PROFILED_BASE,
        Pacing::Saturate {
            seconds: config.seconds / 3.0,
        },
    );
    let snapshot = profile::snapshot();
    profile::set_enabled(false);
    let profiled = profiled?;
    let profiled_settled = settle(&profiled, &mut out);
    let traced_throughput = ratio(profiled_settled.ok() as f64, cpu_s(&profiled, speed));
    out.set("trace.overhead", 1.0 - ratio(traced_throughput, throughput));
    out.notes.push(format!(
        "tracing overhead: {traced_throughput:.1} jobs per CPU second with the profiler \
         on vs {throughput:.1} untraced"
    ));
    profiler_series(&snapshot, profiled_settled.messages, &mut out);

    // The layers one by one, with a span around every call. The untraced
    // job latency is the closed-loop mean: one job in flight, no queue.
    let mut tracer = Tracer::new();
    let layers = drive_layers(config, &mut tracer, &mut out);
    let latency_us = closed_mean_us[0];
    let parts = [
        ("ringd.parse", layers.parse_us),
        ("core.build", layers.build_us),
        ("net.execute", layers.execute_us),
        ("conformance.certify", layers.certify_us),
    ];
    let residual = latency_us - parts.iter().map(|(_, us)| us).sum::<f64>();
    out.set("ringd.residual_us", residual);
    out.notes.push(format!(
        "accounting {} (mean us per job): untraced job latency {latency_us:.2} = {} + \
         ringd.residual {residual:.2}",
        NAME,
        parts
            .iter()
            .map(|(name, us)| format!("{name} {us:.2}"))
            .collect::<Vec<_>>()
            .join(" + ")
    ));
    out.notes.extend(tracer.table());
    out.spans = Some(tracer.to_jsonl());
    Ok(out)
}

/// Copies the hot-path profiler's series into per-layer metrics.
pub(crate) fn profiler_series(snapshot: &MetricsRegistry, messages: u64, out: &mut Outcome) {
    let wait = merged(snapshot, "hub_lock_wait_us", None);
    let hold = merged(snapshot, "hub_lock_hold_us", None);
    out.set("hub.lock_wait_ns.p50", wait.quantile(0.5) * 1e3);
    out.set("hub.lock_wait_ns.p99", wait.quantile(0.99) * 1e3);
    out.set("hub.lock_hold_ns.p50", hold.quantile(0.5) * 1e3);
    out.set("hub.lock_hold_ns.p99", hold.quantile(0.99) * 1e3);
    out.set(
        "hub.contended_ratio",
        ratio(
            counter(snapshot, "hub_lock_contention_total"),
            wait.count as f64,
        ),
    );
    let dwell = merged(snapshot, "queue_dwell_us", Some(("queue", "inbox")));
    out.set("inbox.dwell_us.p50", dwell.quantile(0.5));
    out.set("inbox.dwell_us.p99", dwell.quantile(0.99));
    let msgs = messages as f64;
    out.set(
        "alloc.clone_bytes_per_msg",
        ratio(counter(snapshot, "profile_word_clone_bytes_total"), msgs),
    );
    out.set(
        "wire.copy_bytes_per_msg",
        ratio(
            counter(snapshot, "profile_wire_encode_bytes_total")
                + counter(snapshot, "profile_wire_decode_bytes_total"),
            msgs,
        ),
    );
}

/// Mean per-job times (µs) of the layers `ringd` calls, from spans.
struct LayerTimes {
    parse_us: f64,
    build_us: f64,
    execute_us: f64,
    certify_us: f64,
}

/// Why a traced job produced no certified result.
enum JobError {
    /// Parse, build or run failed: a failed operation.
    Failed(String),
    /// The run finished but disagrees with the simulator: a wrong output.
    Wrong(String),
}

/// One job through the layers `ringd` calls, each inside a span under
/// `job`: parse, build, execute, and certify (which rebuilds the
/// processes for the simulator, as `ringd` does).
fn traced_job(
    tracer: &mut Tracer,
    job: usize,
    id: u64,
    index: usize,
    line: &str,
) -> Result<(JobSpec, anonring_net::NetReport<JobOutput>), JobError> {
    let failed = |e: &dyn std::fmt::Display| JobError::Failed(e.to_string());
    let spec = tracer
        .time("ringd.parse", id, Some(job), || JobSpec::parse(line, index))
        .map_err(|e| failed(&e))?;
    let (topology, procs) = tracer
        .time("core.build", id, Some(job), || {
            let topology = spec.algorithm.topology(spec.n, &spec.inputs)?;
            let procs = spec.algorithm.procs(spec.n, &spec.inputs)?;
            Ok::<_, anonring_core::algorithms::driver::DriverError>((topology, procs))
        })
        .map_err(|e| failed(&e))?;
    let report = tracer
        .time("net.execute", id, Some(job), || {
            anonring_net::run(&topology, procs, &spec.options)
        })
        .map_err(|e| failed(&e))?;
    let certify = tracer.open("conformance.certify", id, Some(job));
    let procs = tracer.time("core.build", id, Some(certify), || {
        spec.algorithm.procs(spec.n, &spec.inputs)
    });
    let verdict = procs
        .map_err(|e| e.to_string())
        .and_then(|procs| AsyncEngine::new(topology, procs).map_err(|e| e.to_string()))
        .and_then(|mut engine| {
            engine
                .run(&mut SynchronizingScheduler)
                .map_err(|e| e.to_string())
        })
        .and_then(|sim| compare(&report, &sim).map_err(|e| e.to_string()));
    tracer.close(certify);
    verdict.map_err(JobError::Wrong)?;
    Ok((spec, report))
}

/// Drives the generated jobs through the layers `ringd` calls, a span
/// around each call, for a third of the run; fills the layer metrics.
fn drive_layers(config: &RunConfig, tracer: &mut Tracer, out: &mut Outcome) -> LayerTimes {
    // Calibration: the fixed cost of the smallest job.
    let calibration = r#"{"algorithm":"sync_and","n":3}"#;
    for i in 0..CALIBRATION_RUNS {
        out.count(1, 0);
        let job = (TRACED_BASE - CALIBRATION_RUNS + i) as u64;
        let ran = JobSpec::parse(calibration, i)
            .map_err(|e| e.to_string())
            .and_then(|spec| {
                let topology = spec
                    .algorithm
                    .topology(spec.n, &spec.inputs)
                    .map_err(|e| e.to_string())?;
                let procs = spec
                    .algorithm
                    .procs(spec.n, &spec.inputs)
                    .map_err(|e| e.to_string())?;
                tracer.time("net.fixed", job, None, || {
                    anonring_net::run(&topology, procs, &spec.options).map_err(|e| e.to_string())
                })
            });
        if let Err(e) = ran {
            out.fail(format!("{NAME}: calibration run: {e}"));
        }
    }
    out.set("net.fixed_us", median(&tracer.durations("net.fixed")) / 1e3);

    let mut seen = HashSet::new();
    let (mut jobs, mut repeats, mut messages) = (0u64, 0u64, 0u64);
    let began = Instant::now();
    let seconds = config.seconds / 3.0;
    let mut k = 0usize;
    while k == 0 || began.elapsed().as_secs_f64() < seconds {
        let index = TRACED_BASE + k;
        let id = index as u64;
        k += 1;
        let line = job_line(config.seed, index);
        out.count(1, 0);
        let job = tracer.open("ringd.job", id, None);
        let done = traced_job(tracer, job, id, index, &line);
        tracer.close(job);
        let (spec, report) = match done {
            Ok(done) => done,
            Err(JobError::Failed(e)) => {
                out.fail(format!("{NAME}: job {index}: {e}"));
                continue;
            }
            Err(JobError::Wrong(e)) => {
                out.violate(format!("{NAME}: job {index} not certified: {e}"));
                continue;
            }
        };
        jobs += 1;
        if !seen.insert((spec.algorithm, spec.n, spec.inputs.clone())) {
            repeats += 1;
        }
        messages += report.messages;
    }

    let totals = tracer.totals();
    let per_job = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e3 / jobs.max(1) as f64)
    };
    let total_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    let execute = tracer.durations("net.execute");
    let certify = tracer.durations("conformance.certify");
    out.set("ringd.parse_us", per_job("ringd.parse"));
    out.set("core.build_us", per_job("core.build"));
    out.set("conformance.certify_us.p50", median(&certify) / 1e3);
    out.set(
        "conformance.share",
        ratio(
            total_ns("conformance.certify"),
            total_ns("conformance.certify") + total_ns("net.execute"),
        ),
    );
    out.set("ringd.repeat_share", ratio(repeats as f64, jobs as f64));
    out.set(
        "net.ns_per_msg",
        ratio(total_ns("net.execute"), messages as f64),
    );
    out.set("net.run_us.p50", median(&execute) / 1e3);
    out.set("net.run_us.p99", quantile(&execute, 0.99) / 1e3);
    out.notes.push(format!(
        "layer loop: {jobs} jobs, {messages} messages, mean execute {:.2} us",
        mean(&execute) / 1e3
    ));
    LayerTimes {
        parse_us: per_job("ringd.parse"),
        build_us: per_job("core.build"),
        execute_us: per_job("net.execute"),
        certify_us: per_job("conformance.certify"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonring_bench::ringd::run_job;

    /// A real result line of job `k` of the `serve_small` mix.
    fn result_line(k: usize) -> String {
        let spec = JobSpec::parse(&job_line(5, k), k).expect("generated line parses");
        run_job(&spec, None).expect("job runs")
    }

    fn settle_lines(lines: &[String], out: &mut Outcome) -> usize {
        let now = Instant::now();
        let phase = Phase {
            start: now,
            base: 0,
            due: vec![now; 2],
            sent: vec![now; 2],
            lines: lines.iter().map(|l| (l.clone(), now)).collect(),
            summary: ServeSummary {
                jobs: 2,
                ok: 1,
                failed: 1,
                requeued: 0,
            },
            registry: MetricsRegistry::new(),
            cpu: Vec::new(),
            cpu_total: Duration::ZERO,
        };
        settle(&phase, out).ok()
    }

    #[test]
    fn an_error_line_is_a_failed_job_not_a_wrong_one() {
        let lines = [
            result_line(0),
            r#"{"type":"error","job":1,"error":"net run timed out"}"#.to_string(),
        ];
        let mut out = Outcome::default();
        assert_eq!(settle_lines(&lines, &mut out), 1);
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert!(out.correct(), "{:?}", out.violations);
        assert!(out.failures[0].contains("timed out"));
    }

    #[test]
    fn a_certification_error_is_a_wrong_output() {
        for why in [
            "net/sim mismatch on outputs: net [Some(1)] vs sim [Some(0)]",
            "reference simulation failed: deadlock",
        ] {
            let lines = [
                result_line(0),
                format!(r#"{{"type":"error","job":1,"error":"{why}"}}"#),
            ];
            let mut out = Outcome::default();
            assert_eq!(settle_lines(&lines, &mut out), 1);
            assert_eq!((out.attempted, out.failed), (2, 1));
            assert!(!out.correct(), "passed the gate: {why}");
        }
    }

    #[test]
    fn an_uncertified_or_miscounted_result_fails_the_gate() {
        // Job 1 of the default mix is async_input_dist at n = 3.
        let good = result_line(1);
        assert!(
            good.contains("\"algorithm\":\"async_input_dist\""),
            "{good}"
        );
        let wrong = [
            good.replace("\"certified\"", "\"skipped\""),
            good.replace("\"messages\":6,", "\"messages\":7,"),
        ];
        for line in wrong {
            assert_ne!(line, good, "the fixture changed nothing");
            let mut out = Outcome::default();
            settle_lines(std::slice::from_ref(&line), &mut out);
            assert!(!out.correct(), "passed the gate: {line}");
        }
        let mut out = Outcome::default();
        settle_lines(&[good], &mut out);
        assert!(out.correct(), "{:?}", out.violations);
    }
}
