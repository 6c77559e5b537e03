//! Open-loop load generation for `ringd` — the library behind the
//! `ringload` binary.
//!
//! An **open-loop** generator emits jobs on a fixed arrival schedule and
//! never waits for completions, so queueing delay shows up as measured
//! latency instead of silently throttling the offered rate (the
//! closed-loop "coordinated omission" failure mode). The schedule is
//! derived deterministically from a seed: job *k* of a [`LoadSpec`] has
//! the same id, algorithm, ring size, inputs and jitter seed at every
//! offered rate, which is what makes the certified outcome fields
//! (outputs, messages, bits) of a load run byte-reproducible and lets
//! `BENCH_serving.json` gate them at 0% tolerance while wall-clock
//! fields stay advisory.
//!
//! Three layers:
//!
//! 1. [`run_load`] drives an in-process [`serve_with`] worker pool
//!    through one schedule and folds the result stream plus the live
//!    [`ServingMetrics`] into a [`LoadReport`].
//! 2. [`run_sweep`] repeats that across offered rates (a saturation
//!    curve); [`run_soak`] streams a large schedule and asserts the
//!    serving invariants (bounded queue, drained resident set).
//! 3. [`ServingTrajectory`] is the shared
//!    [`RevisionStore`] over [`ServingSnapshot`], whose gated rows are
//!    the points; its gate is [`diff`](crate::artifact::diff) under
//!    [`Policy::Exact`](crate::artifact::Policy::Exact): deterministic
//!    fields must be *identical*, wall-clock fields only warn.

use std::fmt::Write as _;
use std::io::{BufReader, Read};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use anonring_core::algorithms::driver::Audited;
use anonring_net::Transport;
use anonring_sim::json::{json_escape, Value};
use anonring_sim::mix::{fnv1a, SplitMix64};

use crate::artifact::{ArtifactSnapshot, RevisionStore, Row};
use crate::ringd::{serve_with, ServeOptions, ServeSummary, ServingMetrics};

/// Current schema number of `BENCH_serving.json`.
pub const SERVING_SCHEMA: u64 = 1;

/// One deterministic workload description.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// How many jobs to stream.
    pub jobs: usize,
    /// Offered arrival rate in jobs/second; `0` means back-to-back
    /// (closed only by admission backpressure).
    pub rate: u64,
    /// Master seed: arrival jitter and per-job seeds derive from it.
    pub seed: u64,
    /// Ring size of every job.
    pub n: usize,
    /// Algorithms jobs cycle through (`job k` runs `algorithms[k % len]`).
    pub algorithms: Vec<Audited>,
    /// Transport every job runs on.
    pub transport: Transport,
    /// Whether jobs are certified against the simulator.
    pub conformance: bool,
}

impl LoadSpec {
    /// A small default workload: the two §4 input-distribution
    /// algorithms plus start synchronization, certified, on threads.
    #[must_use]
    pub fn default_mix(jobs: usize, rate: u64, seed: u64) -> LoadSpec {
        LoadSpec {
            jobs,
            rate,
            seed,
            n: 3,
            algorithms: vec![
                Audited::SyncAnd,
                Audited::AsyncInputDist,
                Audited::StartSync,
            ],
            transport: Transport::Threads,
            conformance: true,
        }
    }
}

/// Masks job seeds and the result digest to 53 bits. The JSON codec
/// reads integers exactly; the mask stays because it keeps the committed
/// workload: the job seeds and the `BENCH_serving.json` digest.
const JSON_SAFE_MASK: u64 = (1 << 53) - 1;

/// The first SplitMix64 output of a stream keyed by `seed` and `k`.
fn mix(seed: u64, k: u64) -> u64 {
    SplitMix64::new(seed ^ k.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// The job line for position `k` of the schedule — a pure function of
/// the spec, so every offered rate replays the identical workload.
#[must_use]
pub fn job_line(spec: &LoadSpec, k: usize) -> String {
    let algorithm = spec.algorithms[k % spec.algorithms.len()];
    format!(
        "{{\"id\":\"load-{k}\",\"algorithm\":\"{algorithm}\",\"n\":{},\
         \"seed\":{},\"transport\":\"{}\",\"conformance\":{}}}",
        spec.n,
        mix(spec.seed, k as u64) & JSON_SAFE_MASK,
        spec.transport,
        spec.conformance
    )
}

/// The arrival offset of each job. At rate `r` the mean spacing is
/// `1/r` with deterministic seeded jitter in `[0.5/r, 1.5/r)` —
/// arrival dispersion without changing the offered rate. Rate `0`
/// yields an all-zero schedule (back-to-back).
#[must_use]
pub fn arrival_schedule(spec: &LoadSpec) -> Vec<Duration> {
    if spec.rate == 0 {
        return vec![Duration::ZERO; spec.jobs];
    }
    let mean_us = 1_000_000.0 / spec.rate as f64;
    let mut at = 0.0f64;
    (0..spec.jobs)
        .map(|k| {
            let u = (mix(spec.seed ^ 0x5eed_0a11, k as u64) >> 11) as f64 / (1u64 << 53) as f64;
            at += mean_us * (0.5 + u);
            Duration::from_micros(at as u64)
        })
        .collect()
}

/// Renders one pinned field for the digest. The text is fixed: the
/// committed digest hashes exactly these bytes (every number as an `f64`
/// with `{:?}`, strings Rust-quoted, arrays `[a, b]`), so a change to the
/// codec's value type cannot move it.
fn pin(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("Null"),
        Value::Bool(b) => {
            let _ = write!(out, "Bool({b})");
        }
        Value::Int(i) => {
            let _ = write!(out, "Number({:?})", *i as f64);
        }
        Value::Float(x) => {
            let _ = write!(out, "Number({x:?})");
        }
        Value::String(s) => {
            let _ = write!(out, "String({s:?})");
        }
        Value::Array(items) => {
            out.push_str("Array([");
            for (k, item) in items.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                pin(out, item);
            }
            out.push_str("])");
        }
        Value::Object(map) => {
            out.push_str("Object({");
            for (k, (key, item)) in map.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{key:?}: ");
                pin(out, item);
            }
            out.push_str("})");
        }
    }
}

/// Deterministic aggregate of a result stream (order-independent).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultAggregate {
    /// Result lines whose conformance field reads `"certified"`.
    pub certified: u64,
    /// Total metered messages.
    pub messages: u64,
    /// Total metered bits.
    pub bits: u64,
    /// Order-independent digest of every result line's deterministic
    /// fields (masked to 53 bits, see `JSON_SAFE_MASK`).
    pub digest: u64,
}

/// Folds a protocol stream (one JSON object per line) into its
/// deterministic aggregate; non-result lines are skipped.
///
/// # Errors
///
/// A malformed line — that means the protocol itself broke.
pub fn aggregate_results(text: &str) -> Result<ResultAggregate, String> {
    let mut agg = ResultAggregate::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let value = Value::parse(line).map_err(|e| format!("bad result line {line:?}: {e}"))?;
        if value.get("type").and_then(Value::as_str) != Some("result") {
            continue;
        }
        let num = |key: &str| value.get(key).and_then(Value::as_u64).unwrap_or(0);
        agg.messages += num("messages");
        agg.bits += num("bits");
        let conformance = value
            .get("conformance")
            .and_then(Value::as_str)
            .unwrap_or("");
        agg.certified += u64::from(conformance == "certified");
        let mut pinned = String::new();
        for key in [
            "id",
            "algorithm",
            "n",
            "seed",
            "outputs",
            "messages",
            "bits",
            "conformance",
        ] {
            if let Some(v) = value.get(key) {
                let _ = write!(pinned, "{key}=");
                pin(&mut pinned, v);
                pinned.push(';');
            }
        }
        // FNV-1a per line, combined by wrapping addition so the digest
        // is independent of completion order.
        agg.digest = agg.digest.wrapping_add(fnv1a(pinned.as_bytes())) & JSON_SAFE_MASK;
    }
    Ok(agg)
}

/// What one load run measured. The deterministic half (`summary`,
/// `certified`, `messages`, `bits`, `digest`) is a pure function of the
/// [`LoadSpec`]; everything wall-clock-derived is advisory.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The serve-side accounting (jobs/ok/failed/requeued).
    pub summary: ServeSummary,
    /// Result lines whose conformance field reads `"certified"`.
    pub certified: u64,
    /// Total metered messages across all results.
    pub messages: u64,
    /// Total metered bits across all results.
    pub bits: u64,
    /// Order-independent digest of every result line's deterministic
    /// fields (id, algorithm, n, seed, outputs, messages, bits,
    /// conformance).
    pub digest: u64,
    /// Wall-clock duration of the whole run, admission to drain.
    pub wall_us: u64,
    /// Completions per second actually achieved (wall-clock).
    pub achieved_per_s: u64,
    /// Peak admission-queue depth (from the serving gauges).
    pub peak_queue_depth: u64,
    /// Peak resident job bytes (from the serving gauges).
    pub peak_live_bytes: u64,
    /// The final merged metrics registry (latency histograms included).
    pub snapshot: anonring_sim::telemetry::MetricsRegistry,
}

/// Feeds lines sent over a channel into a [`Read`] so the generator
/// thread can pace `serve_with`'s input; EOF when the sender drops.
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

/// Streams one schedule into an in-process `ringd` worker pool and
/// folds the outcome. `options.workers` sizes the pool as in
/// [`serve_with`]; `options.record_dir` works as usual (soak runs
/// should leave it unset).
///
/// # Errors
///
/// Serve-side I/O failures and malformed result lines (which would mean
/// the protocol itself broke).
pub fn run_load(spec: &LoadSpec, options: &ServeOptions) -> Result<LoadReport, String> {
    if spec.algorithms.is_empty() {
        return Err("load spec needs at least one algorithm".into());
    }
    let workers = options.worker_count();
    let metrics = ServingMetrics::new(workers);
    let schedule = arrival_schedule(spec);
    let (tx, rx) = mpsc::channel::<String>();

    let started = Instant::now();
    let (serve_result, wall_us) = std::thread::scope(|scope| {
        let metrics = &metrics;
        let handle = scope.spawn(move || {
            let reader = BufReader::new(ChannelReader {
                rx,
                buf: Vec::new(),
                pos: 0,
            });
            let mut out: Vec<u8> = Vec::new();
            serve_with(reader, &mut out, options, metrics).map(|summary| (summary, out))
        });
        for (k, due) in schedule.iter().enumerate() {
            let elapsed = started.elapsed();
            if *due > elapsed {
                std::thread::sleep(*due - elapsed);
            }
            if tx.send(job_line(spec, k)).is_err() {
                break; // serve side died; its error surfaces at join
            }
        }
        drop(tx);
        let result = handle
            .join()
            .unwrap_or_else(|_| Err(std::io::Error::other("serve thread panicked")));
        (result, as_us(started.elapsed()))
    });
    let (summary, raw) = serve_result.map_err(|e| format!("serve failed: {e}"))?;

    let text = String::from_utf8(raw).map_err(|e| format!("result stream not UTF-8: {e}"))?;
    let agg = aggregate_results(&text)?;

    let reg = metrics.snapshot();
    let gauge = |name| {
        reg.gauge(&anonring_sim::telemetry::MetricId::plain(name))
            .unwrap_or(0)
            .max(0) as u64
    };
    let achieved_per_s = (summary.ok as u64)
        .saturating_mul(1_000_000)
        .checked_div(wall_us)
        .unwrap_or(0);
    Ok(LoadReport {
        summary,
        certified: agg.certified,
        messages: agg.messages,
        bits: agg.bits,
        digest: agg.digest,
        wall_us,
        achieved_per_s,
        peak_queue_depth: gauge("ringd_queue_depth_peak"),
        peak_live_bytes: gauge("ringd_live_job_bytes_peak"),
        snapshot: reg,
    })
}

fn as_us(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
}

/// Runs the same workload at each offered rate — the saturation curve.
/// Every point replays identical jobs, so the deterministic fields must
/// agree across points (checked by the caller or the trajectory gate).
///
/// # Errors
///
/// The first failing point, labelled with its rate.
pub fn run_sweep(
    spec: &LoadSpec,
    rates: &[u64],
    options: &ServeOptions,
) -> Result<Vec<(u64, LoadReport)>, String> {
    rates
        .iter()
        .map(|&rate| {
            let point = LoadSpec {
                rate,
                ..spec.clone()
            };
            run_load(&point, options)
                .map(|r| (rate, r))
                .map_err(|e| format!("rate {rate}: {e}"))
        })
        .collect()
}

/// A soak verdict: the run itself plus the serving invariants.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// The underlying load run.
    pub load: LoadReport,
    /// Ceiling the queue was required to stay under.
    pub queue_bound: u64,
    /// Ceiling the resident job bytes were required to stay under.
    pub live_bytes_bound: u64,
}

/// Streams a (large) schedule and asserts the serving invariants: the
/// admission queue stayed within its configured bound, every byte of
/// admitted job line was released by drain time (the no-growth check on
/// the counter-derived resident set), and accounting balances.
///
/// # Errors
///
/// Any violated invariant, or the underlying [`run_load`] failure.
pub fn run_soak(spec: &LoadSpec, options: &ServeOptions) -> Result<SoakReport, String> {
    let load = run_load(spec, options)?;
    let queue_bound = if options.max_queue == 0 {
        crate::ringd::DEFAULT_MAX_QUEUE as u64
    } else {
        options.max_queue as u64
    };
    // Requeues lawfully overshoot the admission bound by at most the
    // worker count (each worker can hold one job it puts back).
    let workers = options.worker_count() as u64;
    let queue_ceiling = queue_bound + workers;
    if load.peak_queue_depth > queue_ceiling {
        return Err(format!(
            "queue depth peaked at {} (bound {queue_ceiling})",
            load.peak_queue_depth
        ));
    }
    let longest = (0..spec.jobs.min(spec.algorithms.len()))
        .map(|k| job_line(spec, k).len() as u64)
        .max()
        .unwrap_or(0);
    let live_bytes_bound = queue_ceiling
        .saturating_add(workers)
        .saturating_mul(longest + 64);
    if load.peak_live_bytes > live_bytes_bound {
        return Err(format!(
            "resident job bytes peaked at {} (bound {live_bytes_bound})",
            load.peak_live_bytes
        ));
    }
    let reg = &load.snapshot;
    let gauge = |name| {
        reg.gauge(&anonring_sim::telemetry::MetricId::plain(name))
            .unwrap_or(-1)
    };
    if gauge("ringd_queue_depth") != 0 || gauge("ringd_busy_workers") != 0 {
        return Err("queue or workers not drained at end of soak".into());
    }
    if gauge("ringd_live_job_bytes") != 0 {
        return Err(format!(
            "{} job bytes still resident after drain — the serving plane leaked",
            gauge("ringd_live_job_bytes")
        ));
    }
    let counter = |name| reg.counter(&anonring_sim::telemetry::MetricId::plain(name));
    let settled = counter("ringd_jobs_completed_total") + counter("ringd_jobs_failed_total");
    if counter("ringd_jobs_accepted_total") != settled {
        return Err(format!(
            "accounting imbalance: {} accepted, {settled} settled",
            counter("ringd_jobs_accepted_total")
        ));
    }
    Ok(SoakReport {
        load,
        queue_bound: queue_ceiling,
        live_bytes_bound,
    })
}

/// One measured point of a serving snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServingPoint {
    /// Offered rate (jobs/second; 0 = unthrottled).
    pub rate_per_s: u64,
    /// Transport token (`threads` or `tcp`).
    pub transport: String,
    /// Jobs streamed.
    pub jobs: u64,
    /// Jobs that produced a result line.
    pub ok: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Results certified against the simulator.
    pub certified: u64,
    /// Total metered messages (deterministic).
    pub messages: u64,
    /// Total metered bits (deterministic).
    pub bits: u64,
    /// Order-independent result digest (deterministic).
    pub digest: u64,
    /// Wall-clock run duration — advisory, never gated.
    pub wall_us: Option<u64>,
    /// Achieved completions/second — advisory, never gated.
    pub achieved_per_s: Option<u64>,
}

impl ServingPoint {
    /// Builds a point from a load run (`wall` opts the advisory
    /// wall-clock fields into the artifact).
    #[must_use]
    pub fn from_report(spec: &LoadSpec, report: &LoadReport, wall: bool) -> ServingPoint {
        ServingPoint {
            rate_per_s: spec.rate,
            transport: spec.transport.to_string(),
            jobs: report.summary.jobs as u64,
            ok: report.summary.ok as u64,
            failed: report.summary.failed as u64,
            certified: report.certified,
            messages: report.messages,
            bits: report.bits,
            digest: report.digest,
            wall_us: wall.then_some(report.wall_us),
            achieved_per_s: wall.then_some(report.achieved_per_s),
        }
    }
}

/// One revision's serving measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServingSnapshot {
    /// Caller-supplied revision label (never a wall clock).
    pub revision: String,
    /// Measured points, in sweep order.
    pub points: Vec<ServingPoint>,
}

/// The append-only `BENCH_serving.json` artifact. The committed file's
/// byte-for-byte round trip is pinned by
/// `committed_serving_round_trips_byte_for_byte` in
/// `crates/bench/tests/trajectory_golden.rs`.
pub type ServingTrajectory = RevisionStore<ServingSnapshot>;

impl ArtifactSnapshot for ServingSnapshot {
    const KIND: &'static str = "serving";
    const SCHEMA: u64 = SERVING_SCHEMA;
    const BODY: &'static str = "points";

    fn revision(&self) -> &str {
        &self.revision
    }

    fn body_items(&self) -> Vec<String> {
        self.points
            .iter()
            .map(|p| {
                let mut out = format!(
                    "{{\"rate_per_s\": {}, \"transport\": \"{}\", \
                     \"jobs\": {}, \"ok\": {}, \"failed\": {}, \"certified\": {}, \
                     \"messages\": {}, \"bits\": {}, \"digest\": {}",
                    p.rate_per_s,
                    json_escape(&p.transport),
                    p.jobs,
                    p.ok,
                    p.failed,
                    p.certified,
                    p.messages,
                    p.bits,
                    p.digest
                );
                if let Some(wall) = p.wall_us {
                    let _ = write!(out, ", \"wall_us\": {wall}");
                }
                if let Some(rate) = p.achieved_per_s {
                    let _ = write!(out, ", \"achieved_per_s\": {rate}");
                }
                out.push('}');
                out
            })
            .collect()
    }

    fn from_body(revision: String, items: &[Value]) -> Result<ServingSnapshot, String> {
        let mut points = Vec::new();
        for p in items {
            let field = |key: &str| {
                p.get(key)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("point missing numeric {key:?}"))
            };
            points.push(ServingPoint {
                rate_per_s: field("rate_per_s")?,
                transport: p
                    .get("transport")
                    .and_then(Value::as_str)
                    .ok_or("point missing \"transport\"")?
                    .to_string(),
                jobs: field("jobs")?,
                ok: field("ok")?,
                failed: field("failed")?,
                certified: field("certified")?,
                messages: field("messages")?,
                bits: field("bits")?,
                digest: field("digest")?,
                wall_us: p.get("wall_us").and_then(Value::as_u64),
                achieved_per_s: p.get("achieved_per_s").and_then(Value::as_u64),
            });
        }
        Ok(ServingSnapshot { revision, points })
    }

    /// One row per point, keyed `rate=<r> transport=<t>`.
    fn rows(&self) -> Vec<Row> {
        self.points
            .iter()
            .map(|p| Row {
                key: format!("rate={} transport={}", p.rate_per_s, p.transport),
                fields: vec![
                    ("jobs", p.jobs),
                    ("ok", p.ok),
                    ("failed", p.failed),
                    ("certified", p.certified),
                    ("messages", p.messages),
                    ("bits", p.bits),
                    ("digest", p.digest),
                ],
                wall: p.wall_us.map(|w| ("wall_us", w)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::{
        arrival_schedule, job_line, run_load, run_soak, LoadSpec, ServingPoint, ServingSnapshot,
        ServingTrajectory,
    };
    use crate::artifact::{self, Policy};
    use crate::ringd::ServeOptions;
    use anonring_core::algorithms::driver::Audited;

    fn tiny_spec(jobs: usize, rate: u64) -> LoadSpec {
        LoadSpec {
            jobs,
            rate,
            seed: 7,
            n: 3,
            algorithms: vec![Audited::SyncAnd, Audited::StartSync],
            transport: anonring_net::Transport::Threads,
            conformance: true,
        }
    }

    #[test]
    fn job_lines_and_schedules_are_deterministic() {
        let spec = tiny_spec(8, 500);
        assert_eq!(job_line(&spec, 3), job_line(&spec, 3));
        assert_ne!(job_line(&spec, 3), job_line(&spec, 4));
        // Jobs are rate-independent; only the schedule changes.
        let fast = LoadSpec {
            rate: 0,
            ..spec.clone()
        };
        assert_eq!(job_line(&spec, 5), job_line(&fast, 5));
        let a = arrival_schedule(&spec);
        assert_eq!(a, arrival_schedule(&spec));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals ascend");
        assert!(arrival_schedule(&fast).iter().all(|d| d.is_zero()));
    }

    #[test]
    fn load_runs_are_deterministic_in_the_gated_fields() {
        let spec = tiny_spec(6, 0);
        let options = ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        };
        let a = run_load(&spec, &options).expect("load run");
        let b = run_load(&spec, &options).expect("load run");
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.summary.ok, 6);
        assert_eq!(a.certified, 6);
        assert_eq!(
            (a.messages, a.bits, a.digest),
            (b.messages, b.bits, b.digest)
        );
        assert!(a.messages > 0);
        // And rate-independent: a throttled run of the same spec agrees.
        let throttled =
            run_load(&LoadSpec { rate: 2000, ..spec }, &options).expect("throttled run");
        assert_eq!(
            (a.messages, a.bits, a.digest),
            (throttled.messages, throttled.bits, throttled.digest)
        );
    }

    /// The default mix reproduces the digest committed in
    /// `BENCH_serving.json` — the same gate `ringload diff` applies, here
    /// in the unit tests.
    #[test]
    fn default_mix_matches_the_committed_serving_digest() {
        let text = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_serving.json"
        ));
        let committed = ServingTrajectory::parse(text).expect("committed trajectory parses");
        let baseline = committed
            .snapshots
            .iter()
            .find(|snap| snap.revision == "baseline")
            .expect("baseline snapshot");
        let report = run_load(&LoadSpec::default_mix(24, 0, 42), &ServeOptions::default())
            .expect("load run");
        assert_eq!(report.digest, baseline.points[0].digest);
    }

    #[test]
    fn soak_asserts_the_serving_invariants() {
        let report = run_soak(
            &tiny_spec(12, 0),
            &ServeOptions {
                workers: 2,
                max_queue: 4,
                ..ServeOptions::default()
            },
        )
        .expect("soak passes");
        assert!(report.load.peak_queue_depth <= report.queue_bound);
        assert!(report.load.peak_live_bytes <= report.live_bytes_bound);
        assert_eq!(report.load.summary.failed, 0);
    }

    fn point(rate: u64, messages: u64) -> ServingPoint {
        ServingPoint {
            rate_per_s: rate,
            transport: "threads".to_string(),
            jobs: 8,
            ok: 8,
            failed: 0,
            certified: 8,
            messages,
            bits: messages * 3,
            // High bit of the 53-bit digest range set: the round-trip
            // assert below would catch precision loss.
            digest: (messages ^ 0xabcd) | (1 << 52),
            wall_us: Some(1000),
            achieved_per_s: Some(rate),
        }
    }

    #[test]
    fn serving_trajectory_round_trips_and_upserts() {
        let mut t = ServingTrajectory::new();
        t.upsert(ServingSnapshot {
            revision: "a".into(),
            points: vec![point(0, 96), point(500, 96)],
        });
        t.upsert(ServingSnapshot {
            revision: "b".into(),
            points: vec![point(0, 96)],
        });
        t.upsert(ServingSnapshot {
            revision: "a".into(),
            points: vec![point(0, 97)],
        });
        assert_eq!(t.snapshots.len(), 2);
        assert_eq!(t.snapshot("a").expect("a").points[0].messages, 97);
        assert_eq!(t.latest().expect("latest").revision, "b");
        let parsed = ServingTrajectory::parse(&t.to_json()).expect("parses");
        assert_eq!(parsed, t);
        let err = ServingTrajectory::parse("{\"schema\": 9, \"snapshots\": []}").unwrap_err();
        assert!(err.contains("schema 9"), "{err}");
    }

    #[test]
    fn the_gate_fails_on_any_deterministic_drift_and_warns_on_wall() {
        let old = ServingSnapshot {
            revision: "old".into(),
            points: vec![point(0, 96)],
        };
        let same = artifact::diff(&old, &old, Policy::Exact);
        assert!(same.failures.is_empty());
        let mut drifted = old.clone();
        drifted.points[0].messages = 97;
        drifted.points[0].digest = 1;
        let diff = artifact::diff(&old, &drifted, Policy::Exact);
        assert_eq!(diff.failures.len(), 2, "{diff:?}");
        assert!(diff.failures[0].contains("messages: 96 -> 97"), "{diff:?}");
        let mut slower = old.clone();
        slower.points[0].wall_us = Some(2000);
        let diff = artifact::diff(&old, &slower, Policy::Exact);
        assert!(diff.failures.is_empty());
        assert_eq!(diff.warnings.len(), 1, "{diff:?}");
        let mut missing = old.clone();
        missing.points.clear();
        let diff = artifact::diff(&old, &missing, Policy::Exact);
        assert!(diff.failures.is_empty());
        assert_eq!(diff.warnings.len(), 1, "{diff:?}");
    }
}
