//! The `ringd` job server: streaming ring jobs over real transports.
//!
//! `ringd` reads one JSON job per line — `{"id": …, "algorithm": …,
//! "n": …, "inputs": […], "seed": …}` — runs each on the
//! [`anonring_net`] real-transport runtime, certifies it against the
//! asynchronous simulator (the conformance oracle; on by default), and
//! streams one JSON result per line. Jobs are admitted as they arrive
//! (no batch buffering) into a bounded queue that a worker pool drains;
//! per-job wall-clock budgets abort runaway jobs without taking the
//! server down. With a recording directory configured, every job also
//! leaves a v2 flight-recorder JSONL stamped `"engine":"net"` — now
//! carrying per-event `wall` microsecond stamps — that the `tracer` CLI
//! and the causal-DAG tooling consume unchanged.
//!
//! ## Job schema (one JSON object per line)
//!
//! | field         | type         | default                       |
//! |---------------|--------------|-------------------------------|
//! | `id`          | string       | `job-<line number>`           |
//! | `algorithm`   | string       | — (required; audit-table name)|
//! | `n`           | integer      | — (required; ≥ 2)             |
//! | `inputs`      | `[int]`      | audit harness mixed pattern   |
//! | `seed`        | integer      | `0` (delivery-jitter seed)    |
//! | `capacity`    | integer      | `8` (per-link buffer)         |
//! | `max_delay_us`| integer      | `0` (link-delay bound)        |
//! | `transport`   | string       | `"threads"` (or `"tcp"`)      |
//! | `timeout_ms`  | integer      | `10000`                       |
//! | `conformance` | bool         | `true`                        |
//!
//! ## Control requests
//!
//! A line whose JSON object carries a `"type"` member is a control
//! request, answered immediately (job lines have no `type` field):
//!
//! - `{"type":"metrics"}` → one `{"type":"metrics","format":"json",
//!   "snapshot":{…}}` line with the live [`ServingMetrics`] registry;
//! - `{"type":"metrics","format":"prometheus"}` → the same snapshot as
//!   a Prometheus text exposition, JSON-escaped into the `body` field.
//!
//! ## Result stream
//!
//! One line per job, in completion order (`"type"` is `"result"` or
//! `"error"`), metrics responses interleaved at request time, then a
//! final `{"type":"done", …}` summary line. A malformed or oversized
//! job line yields an `"error"` line and the stream continues. With
//! [`ServeOptions::log`] set, one-line JSON operational logs (job
//! admitted/started/finished/requeued, with sequence numbers and
//! microsecond durations) go to stderr.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use anonring_core::algorithms::driver::Audited;
use anonring_net::conformance::compare;
use anonring_net::{run, NetOptions, NetReport, Transport};
use anonring_sim::json::{json_escape, Value};
use anonring_sim::r#async::{AsyncEngine, SynchronizingScheduler};
use anonring_sim::telemetry::{MetricId, MetricsRegistry};

/// One parsed job description.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Caller-chosen job identifier, echoed in the result line.
    pub id: String,
    /// Which audited algorithm to run.
    pub algorithm: Audited,
    /// Ring size.
    pub n: usize,
    /// Per-processor inputs (`inputs.len() == n`).
    pub inputs: Vec<u8>,
    /// Delivery-jitter seed.
    pub seed: u64,
    /// Net-runtime options derived from the job fields.
    pub options: NetOptions,
    /// Whether to certify against the simulator.
    pub conformance: bool,
}

fn get_u64(value: &Value, key: &str, default: u64) -> Result<u64, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("{key} must be an integer")),
    }
}

impl JobSpec {
    /// Parses one job line. Line numbers (zero-based) supply the default
    /// job id.
    ///
    /// # Errors
    ///
    /// A message naming the malformed field.
    pub fn parse(line: &str, line_number: usize) -> Result<JobSpec, String> {
        let value = Value::parse(line)?;
        let id = match value.get("id") {
            None | Some(Value::Null) => format!("job-{line_number}"),
            Some(v) => v
                .as_str()
                .ok_or_else(|| "id must be a string".to_string())?
                .to_string(),
        };
        let name = value
            .get("algorithm")
            .and_then(Value::as_str)
            .ok_or_else(|| "missing algorithm name".to_string())?;
        let algorithm = Audited::from_name(name)
            .ok_or_else(|| format!("unknown algorithm {name:?} (audit-table names only)"))?;
        let n = match value.get("n") {
            None | Some(Value::Null) => return Err("missing ring size n".to_string()),
            Some(_) => usize::try_from(get_u64(&value, "n", 0)?)
                .map_err(|_| "n overflows usize".to_string())?,
        };
        let inputs = match value.get("inputs") {
            None | Some(Value::Null) => default_inputs(algorithm, n),
            Some(v) => v
                .as_array()
                .ok_or_else(|| "inputs must be an array".to_string())?
                .iter()
                .map(|item| {
                    item.as_u64()
                        .and_then(|b| u8::try_from(b).ok())
                        .ok_or_else(|| "inputs must be bytes (0–255)".to_string())
                })
                .collect::<Result<Vec<u8>, String>>()?,
        };
        let seed = get_u64(&value, "seed", 0)?;
        let transport = match value.get("transport") {
            None | Some(Value::Null) => Transport::Threads,
            Some(v) => {
                let name = v
                    .as_str()
                    .ok_or_else(|| "transport must be a string".to_string())?;
                Transport::from_name(name)
                    .ok_or_else(|| format!("unknown transport {name:?} (threads|tcp)"))?
            }
        };
        let options = NetOptions {
            capacity: usize::try_from(get_u64(&value, "capacity", 8)?)
                .map_err(|_| "capacity overflows usize".to_string())?,
            jitter_seed: seed,
            max_delay_us: get_u64(&value, "max_delay_us", 0)?,
            transport,
            timeout: Duration::from_millis(get_u64(&value, "timeout_ms", 10_000)?),
        };
        let conformance = match value.get("conformance") {
            None | Some(Value::Null) => true,
            Some(Value::Bool(b)) => *b,
            Some(_) => return Err("conformance must be a boolean".to_string()),
        };
        Ok(JobSpec {
            id,
            algorithm,
            n,
            inputs,
            seed,
            options,
            conformance,
        })
    }
}

/// The audit harness's deterministic mixed input pattern — bits for the
/// bit-input algorithms, spread bytes for the §4.1 distribution.
#[must_use]
pub fn default_inputs(algorithm: Audited, n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| {
            let mixed = (i * 2654435761) >> 7;
            if algorithm.wants_bit_inputs() {
                (mixed & 1) as u8
            } else {
                (mixed & 0xff) as u8
            }
        })
        .collect()
}

/// Default [`ServeOptions::max_line_bytes`]: 1 MiB.
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// Default [`ServeOptions::max_queue`] admission bound.
pub const DEFAULT_MAX_QUEUE: usize = 4096;

/// Server configuration.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Worker-pool size; `0` means one worker per available core.
    pub workers: usize,
    /// Where to write one per-job flight recording (`<id>.jsonl`), if
    /// anywhere.
    pub record_dir: Option<PathBuf>,
    /// Emit one-line JSON operational logs on stderr.
    pub log: bool,
    /// Re-run a job this many extra times before emitting its error line
    /// (run failures only; malformed lines never retry).
    pub retries: u32,
    /// Reject job lines longer than this many bytes with an `"error"`
    /// line instead of queueing them; `0` means
    /// [`DEFAULT_MAX_LINE_BYTES`].
    pub max_line_bytes: usize,
    /// Admission bound: the reader blocks once this many jobs are queued
    /// (requeues bypass the bound so workers never deadlock); `0` means
    /// [`DEFAULT_MAX_QUEUE`].
    pub max_queue: usize,
}

impl ServeOptions {
    fn line_limit(&self) -> usize {
        if self.max_line_bytes == 0 {
            DEFAULT_MAX_LINE_BYTES
        } else {
            self.max_line_bytes
        }
    }

    fn queue_limit(&self) -> usize {
        if self.max_queue == 0 {
            DEFAULT_MAX_QUEUE
        } else {
            self.max_queue
        }
    }
}

/// End-of-batch accounting, also emitted as the final `"done"` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Job lines consumed (control requests excluded).
    pub jobs: usize,
    /// Jobs that produced a result.
    pub ok: usize,
    /// Jobs that failed (parse, run, conformance or recording I/O).
    pub failed: usize,
    /// Requeue events (failed attempts that were retried).
    pub requeued: usize,
}

/// Live serving-plane metrics: lock-free counters and gauges on the
/// admission path, per-worker [`MetricsRegistry`] shards for the latency
/// histograms (merged on demand via [`MetricsRegistry::merge`], so the
/// job hot path never contends on a scrape).
#[derive(Debug)]
pub struct ServingMetrics {
    started: Instant,
    accepted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    requeued: AtomicU64,
    recording_bytes: AtomicU64,
    net_backpressure: AtomicU64,
    queue_depth: AtomicU64,
    queue_depth_peak: AtomicU64,
    busy_workers: AtomicU64,
    live_job_bytes: AtomicU64,
    live_job_bytes_peak: AtomicU64,
    scrapes: AtomicU64,
    shards: Vec<Mutex<MetricsRegistry>>,
    cluster: Option<(u64, u64)>,
}

fn as_us(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
}

impl ServingMetrics {
    /// A fresh registry with one histogram shard per expected worker
    /// (at least one; workers beyond `workers` share shards round-robin).
    #[must_use]
    pub fn new(workers: usize) -> ServingMetrics {
        ServingMetrics {
            started: Instant::now(),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            requeued: AtomicU64::new(0),
            recording_bytes: AtomicU64::new(0),
            net_backpressure: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_depth_peak: AtomicU64::new(0),
            busy_workers: AtomicU64::new(0),
            live_job_bytes: AtomicU64::new(0),
            live_job_bytes_peak: AtomicU64::new(0),
            scrapes: AtomicU64::new(0),
            shards: (0..workers.max(1))
                .map(|_| Mutex::new(MetricsRegistry::new()))
                .collect(),
            cluster: None,
        }
    }

    /// Stamps the registry with a cluster identity: snapshots gain the
    /// `ringd_shard_id` / `ringd_cluster_size` gauges and every series is
    /// labelled `shard="<id>"`, so the expositions of all shards of one
    /// cluster can feed a single Prometheus with no series collisions.
    #[must_use]
    pub fn with_cluster(mut self, shard: u64, shards: u64) -> ServingMetrics {
        self.cluster = Some((shard, shards));
        self
    }

    fn shard(&self, worker: usize) -> &Mutex<MetricsRegistry> {
        &self.shards[worker % self.shards.len()]
    }

    fn on_admitted(&self, bytes: usize) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        let live = self
            .live_job_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed)
            + bytes as u64;
        self.live_job_bytes_peak.fetch_max(live, Ordering::Relaxed);
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Current depth of the admission queue (requeues included).
    #[must_use]
    pub fn queue_depth_now(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Bytes of job lines currently resident (admitted, not yet settled)
    /// — the resident-set proxy the soak harness watches for growth.
    #[must_use]
    pub fn live_job_bytes_now(&self) -> u64 {
        self.live_job_bytes.load(Ordering::Relaxed)
    }

    fn on_requeued(&self) {
        self.requeued.fetch_add(1, Ordering::Relaxed);
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    fn on_dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.busy_workers.fetch_add(1, Ordering::Relaxed);
    }

    fn on_settled(&self, bytes: usize, ok: bool) {
        self.busy_workers.fetch_sub(1, Ordering::Relaxed);
        self.live_job_bytes
            .fetch_sub(bytes as u64, Ordering::Relaxed);
        if ok {
            self.completed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts a job rejected before queueing (malformed control line or
    /// oversized job line).
    fn on_rejected(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    fn observe_phase(&self, worker: usize, phase: &'static str, us: u64) {
        self.shard(worker)
            .lock()
            .expect("metrics shard poisoned")
            .observe(
                MetricId::with_labels("ringd_job_latency_us", &[("phase", phase)]),
                us,
            );
    }

    fn observe_outcome(&self, worker: usize, outcome: &JobOutcome) {
        self.recording_bytes
            .fetch_add(outcome.recording_bytes, Ordering::Relaxed);
        self.net_backpressure
            .fetch_add(outcome.backpressure_waits, Ordering::Relaxed);
        self.observe_phase(worker, "execute", outcome.execute_us);
        self.observe_phase(worker, "certify", outcome.certify_us);
        self.shard(worker)
            .lock()
            .expect("metrics shard poisoned")
            .observe(
                MetricId::plain("ringd_job_peak_in_flight"),
                outcome.peak_in_flight,
            );
    }

    /// Folds the lock-free counters, the gauges and every histogram shard
    /// into one deterministic-iteration registry snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let counters = [
            ("ringd_jobs_accepted_total", &self.accepted),
            ("ringd_jobs_completed_total", &self.completed),
            ("ringd_jobs_failed_total", &self.failed),
            ("ringd_jobs_requeued_total", &self.requeued),
            ("ringd_recording_bytes_total", &self.recording_bytes),
            ("ringd_net_backpressure_waits_total", &self.net_backpressure),
            ("ringd_metrics_scrapes_total", &self.scrapes),
        ];
        for (name, cell) in counters {
            reg.add_counter(MetricId::plain(name), cell.load(Ordering::Relaxed));
        }
        let gauges = [
            ("ringd_queue_depth", &self.queue_depth),
            ("ringd_queue_depth_peak", &self.queue_depth_peak),
            ("ringd_busy_workers", &self.busy_workers),
            ("ringd_live_job_bytes", &self.live_job_bytes),
            ("ringd_live_job_bytes_peak", &self.live_job_bytes_peak),
        ];
        for (name, cell) in gauges {
            reg.set_gauge(
                MetricId::plain(name),
                i64::try_from(cell.load(Ordering::Relaxed)).unwrap_or(i64::MAX),
            );
        }
        reg.set_gauge(
            MetricId::plain("ringd_uptime_us"),
            i64::try_from(as_us(self.started.elapsed())).unwrap_or(i64::MAX),
        );
        reg.set_gauge(
            MetricId::plain("ringd_uptime_seconds"),
            i64::try_from(self.started.elapsed().as_secs()).unwrap_or(i64::MAX),
        );
        for shard in &self.shards {
            reg.merge(&shard.lock().expect("metrics shard poisoned"));
        }
        // The S26 hot-path profile rides every scrape: zero-valued series
        // when the profiler is off, live tallies when it is on.
        reg.merge(&anonring_sim::profile::snapshot());
        if let Some((shard, shards)) = self.cluster {
            reg.set_gauge(
                MetricId::plain("ringd_shard_id"),
                i64::try_from(shard).unwrap_or(i64::MAX),
            );
            reg.set_gauge(
                MetricId::plain("ringd_cluster_size"),
                i64::try_from(shards).unwrap_or(i64::MAX),
            );
            reg = reg.labelled("shard", &shard.to_string());
        }
        reg
    }

    /// Renders one protocol response line for a `metrics` control request
    /// (without the trailing newline). `prometheus` selects the text
    /// exposition (JSON-escaped into `body`); otherwise the JSON snapshot
    /// is embedded verbatim (flattened to one line).
    #[must_use]
    pub fn response_line(&self, prometheus: bool) -> String {
        self.scrapes.fetch_add(1, Ordering::Relaxed);
        let snapshot = self.snapshot();
        if prometheus {
            format!(
                "{{\"type\":\"metrics\",\"format\":\"prometheus\",\"body\":\"{}\"}}",
                json_escape(&snapshot.to_prometheus())
            )
        } else {
            format!(
                "{{\"type\":\"metrics\",\"format\":\"json\",\"snapshot\":{}}}",
                snapshot.to_json().replace('\n', "")
            )
        }
    }
}

fn render_outputs<O: std::fmt::Debug>(report: &NetReport<O>) -> String {
    let mut out = String::from("[");
    for (i, output) in report.outputs().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", json_escape(&format!("{output:?}")));
    }
    out.push(']');
    out
}

/// The measured side of one completed job.
struct JobOutcome {
    line: String,
    execute_us: u64,
    certify_us: u64,
    recording_bytes: u64,
    peak_in_flight: u64,
    backpressure_waits: u64,
}

/// Runs one job to its result line (without the trailing newline).
///
/// # Errors
///
/// A rendered error message (the caller wraps it into an `"error"` line).
pub fn run_job(spec: &JobSpec, record_dir: Option<&Path>) -> Result<String, String> {
    execute_job(spec, record_dir).map(|outcome| outcome.line)
}

/// [`run_job`] plus the phase timings and serving counters the metrics
/// registry records.
fn execute_job(spec: &JobSpec, record_dir: Option<&Path>) -> Result<JobOutcome, String> {
    let topology = spec
        .algorithm
        .topology(spec.n, &spec.inputs)
        .map_err(|e| e.to_string())?;
    let procs = || {
        spec.algorithm
            .procs(spec.n, &spec.inputs)
            .expect("topology() already validated the job shape")
    };
    let execute_from = Instant::now();
    let report = run(&topology, procs(), &spec.options).map_err(|e| e.to_string())?;
    let execute_us = as_us(execute_from.elapsed());

    let certify_from = Instant::now();
    let conformance = if spec.conformance {
        let mut engine = AsyncEngine::new(topology.clone(), procs()).map_err(|e| e.to_string())?;
        let sim = engine
            .run(&mut SynchronizingScheduler)
            .map_err(|e| format!("reference simulation failed: {e}"))?;
        compare(&report, &sim).map_err(|e| e.to_string())?;
        "certified"
    } else {
        "skipped"
    };
    let certify_us = as_us(certify_from.elapsed());

    let mut recording_path = String::new();
    let mut recording_bytes = 0u64;
    if let Some(dir) = record_dir {
        let jsonl = report
            .recording(
                spec.n,
                format!("ringd {} {} n={}", spec.id, spec.algorithm, spec.n),
                None,
            )
            .to_jsonl();
        recording_bytes = jsonl.len() as u64;
        let path = dir.join(format!("{}.jsonl", sanitize(&spec.id)));
        std::fs::write(&path, jsonl)
            .map_err(|e| format!("writing recording {}: {e}", path.display()))?;
        recording_path = path.display().to_string();
    }

    let mut line = String::from("{\"type\":\"result\"");
    let _ = write!(line, ",\"id\":\"{}\"", json_escape(&spec.id));
    let _ = write!(line, ",\"algorithm\":\"{}\"", spec.algorithm);
    let _ = write!(line, ",\"n\":{}", spec.n);
    let _ = write!(line, ",\"transport\":\"{}\"", spec.options.transport);
    let _ = write!(line, ",\"seed\":{}", spec.seed);
    let _ = write!(line, ",\"outputs\":{}", render_outputs(&report));
    let _ = write!(line, ",\"messages\":{}", report.messages);
    let _ = write!(line, ",\"bits\":{}", report.bits);
    let _ = write!(line, ",\"deliveries\":{}", report.deliveries);
    let _ = write!(line, ",\"dropped\":{}", report.dropped);
    let _ = write!(line, ",\"max_epoch\":{}", report.max_epoch);
    let _ = write!(line, ",\"conformance\":\"{conformance}\"");
    let _ = write!(line, ",\"recording\":\"{}\"", json_escape(&recording_path));
    line.push('}');
    Ok(JobOutcome {
        line,
        execute_us,
        certify_us,
        recording_bytes,
        peak_in_flight: report.peak_in_flight,
        backpressure_waits: report.backpressure_waits,
    })
}

/// Keeps job-supplied ids safe as file names.
fn sanitize(id: &str) -> String {
    id.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// One admitted job line waiting for (or back in) the queue.
struct QueuedJob {
    index: usize,
    line: String,
    enqueued: Instant,
    attempt: u32,
}

struct QueueState {
    jobs: VecDeque<QueuedJob>,
    closed: bool,
}

/// The bounded admission queue between the reader and the worker pool.
struct JobQueue {
    state: Mutex<QueueState>,
    /// Work available (or queue closed) — workers wait here.
    ready: Condvar,
    /// Space freed — the admitting reader waits here.
    space: Condvar,
    max: usize,
}

impl JobQueue {
    fn new(max: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            max: max.max(1),
        }
    }

    /// Admits one job, blocking while the queue is at capacity.
    fn push(&self, job: QueuedJob) {
        let mut state = self.state.lock().expect("job queue poisoned");
        while state.jobs.len() >= self.max && !state.closed {
            state = self.space.wait(state).expect("job queue poisoned");
        }
        state.jobs.push_back(job);
        self.ready.notify_one();
    }

    /// Returns a retried job to the queue. Bypasses the admission bound:
    /// a worker must never block on queue space while the reader blocks
    /// on the same space.
    fn requeue(&self, job: QueuedJob) {
        let mut state = self.state.lock().expect("job queue poisoned");
        state.jobs.push_back(job);
        self.ready.notify_one();
    }

    /// Takes the next job, parking until one arrives; `None` once the
    /// queue is closed and drained.
    fn pop(&self) -> Option<QueuedJob> {
        let mut state = self.state.lock().expect("job queue poisoned");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                self.space.notify_one();
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("job queue poisoned");
        }
    }

    fn close(&self) {
        let mut state = self.state.lock().expect("job queue poisoned");
        state.closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }
}

fn ops_log(enabled: bool, body: std::fmt::Arguments<'_>) {
    if enabled {
        eprintln!("{{\"type\":\"log\",{body}}}");
    }
}

/// Serves one stream: admits job lines from `input` as they arrive into
/// a bounded queue drained by a worker pool, answers `metrics` control
/// requests in-line, and streams result lines (completion order) plus a
/// final summary line to `output`. Uses a caller-provided metrics
/// registry so embedders (and the `ringload` harness) can share it.
///
/// # Errors
///
/// Only I/O errors abort the stream; per-job failures become `"error"`
/// lines.
pub fn serve_with<R: BufRead, W: Write + Send>(
    input: R,
    output: W,
    options: &ServeOptions,
    metrics: &ServingMetrics,
) -> std::io::Result<ServeSummary> {
    let workers = if options.workers == 0 {
        std::thread::available_parallelism().map_or(2, usize::from)
    } else {
        options.workers
    };
    let queue = JobQueue::new(options.queue_limit());
    let sink = Mutex::new(output);
    let jobs = AtomicUsize::new(0);
    let ok = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);
    let requeued = AtomicUsize::new(0);
    let io_failure: Mutex<Option<std::io::Error>> = Mutex::new(None);
    let emit = |rendered: &str| {
        let mut guard = sink.lock().expect("output lock poisoned");
        if let Err(e) = writeln!(guard, "{rendered}") {
            let mut slot = io_failure.lock().expect("io failure lock poisoned");
            if slot.is_none() {
                *slot = Some(e);
            }
            return false;
        }
        true
    };

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let queue = &queue;
            let metrics = &metrics;
            let jobs_ok = &ok;
            let jobs_failed = &failed;
            let jobs_requeued = &requeued;
            let emit = &emit;
            scope.spawn(move || {
                while let Some(job) = queue.pop() {
                    metrics.on_dequeued();
                    let queue_wait_us = as_us(job.enqueued.elapsed());
                    metrics.observe_phase(worker, "queue_wait", queue_wait_us);
                    ops_log(
                        options.log,
                        format_args!(
                            "\"event\":\"started\",\"job\":{},\"worker\":{worker},\
                             \"attempt\":{},\"queue_wait_us\":{queue_wait_us}",
                            job.index, job.attempt
                        ),
                    );
                    let parsed = JobSpec::parse(&job.line, job.index);
                    let retryable = parsed.is_ok();
                    let outcome =
                        parsed.and_then(|spec| execute_job(&spec, options.record_dir.as_deref()));
                    match outcome {
                        Ok(outcome) => {
                            metrics.observe_outcome(worker, &outcome);
                            metrics.on_settled(job.line.len(), true);
                            jobs_ok.fetch_add(1, Ordering::SeqCst);
                            ops_log(
                                options.log,
                                format_args!(
                                    "\"event\":\"finished\",\"job\":{},\"worker\":{worker},\
                                     \"ok\":true,\"execute_us\":{},\"certify_us\":{}",
                                    job.index, outcome.execute_us, outcome.certify_us
                                ),
                            );
                            if !emit(&outcome.line) {
                                break;
                            }
                        }
                        Err(error) if retryable && job.attempt < options.retries => {
                            metrics.busy_workers.fetch_sub(1, Ordering::Relaxed);
                            metrics.on_requeued();
                            jobs_requeued.fetch_add(1, Ordering::SeqCst);
                            ops_log(
                                options.log,
                                format_args!(
                                    "\"event\":\"requeued\",\"job\":{},\"worker\":{worker},\
                                     \"attempt\":{},\"error\":\"{}\"",
                                    job.index,
                                    job.attempt + 1,
                                    json_escape(&error)
                                ),
                            );
                            queue.requeue(QueuedJob {
                                index: job.index,
                                line: job.line,
                                enqueued: Instant::now(),
                                attempt: job.attempt + 1,
                            });
                        }
                        Err(error) => {
                            metrics.on_settled(job.line.len(), false);
                            jobs_failed.fetch_add(1, Ordering::SeqCst);
                            ops_log(
                                options.log,
                                format_args!(
                                    "\"event\":\"finished\",\"job\":{},\"worker\":{worker},\
                                     \"ok\":false,\"error\":\"{}\"",
                                    job.index,
                                    json_escape(&error)
                                ),
                            );
                            let line = format!(
                                "{{\"type\":\"error\",\"job\":{},\"error\":\"{}\"}}",
                                job.index,
                                json_escape(&error)
                            );
                            if !emit(&line) {
                                break;
                            }
                        }
                    }
                }
            });
        }

        // The reader: the calling thread admits lines while workers run.
        let mut index = 0usize;
        for line in input.lines() {
            let line = match line {
                Ok(line) => line,
                Err(e) => {
                    let mut slot = io_failure.lock().expect("io failure lock poisoned");
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                    break;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            // Control requests carry a "type" member; job lines never do.
            if line.contains("\"type\"") {
                if let Ok(value) = Value::parse(&line) {
                    if let Some(kind) = value.get("type").and_then(Value::as_str) {
                        let response = match kind {
                            "metrics" => {
                                let prometheus = value.get("format").and_then(Value::as_str)
                                    == Some("prometheus");
                                metrics.response_line(prometheus)
                            }
                            other => format!(
                                "{{\"type\":\"error\",\"error\":\"unknown control request type {}\"}}",
                                json_escape(&format!("{other:?}"))
                            ),
                        };
                        if !emit(&response) {
                            break;
                        }
                        continue;
                    }
                }
            }
            let i = index;
            index += 1;
            jobs.fetch_add(1, Ordering::SeqCst);
            if line.len() > options.line_limit() {
                metrics.on_rejected();
                failed.fetch_add(1, Ordering::SeqCst);
                let rendered = format!(
                    "{{\"type\":\"error\",\"job\":{i},\"error\":\"job line of {} bytes \
                     exceeds the {}-byte limit\"}}",
                    line.len(),
                    options.line_limit()
                );
                if !emit(&rendered) {
                    break;
                }
                continue;
            }
            ops_log(
                options.log,
                format_args!(
                    "\"event\":\"admitted\",\"job\":{i},\"bytes\":{}",
                    line.len()
                ),
            );
            metrics.on_admitted(line.len());
            queue.push(QueuedJob {
                index: i,
                line,
                enqueued: Instant::now(),
                attempt: 0,
            });
        }
        queue.close();
    });

    if let Some(e) = io_failure.into_inner().expect("io failure lock poisoned") {
        return Err(e);
    }
    let summary = ServeSummary {
        jobs: jobs.load(Ordering::SeqCst),
        ok: ok.load(Ordering::SeqCst),
        failed: failed.load(Ordering::SeqCst),
        requeued: requeued.load(Ordering::SeqCst),
    };
    let mut guard = sink.into_inner().expect("output lock poisoned");
    writeln!(
        guard,
        "{{\"type\":\"done\",\"jobs\":{},\"ok\":{},\"failed\":{},\"requeued\":{}}}",
        summary.jobs, summary.ok, summary.failed, summary.requeued
    )?;
    guard.flush()?;
    Ok(summary)
}

/// [`serve_with`] over a private metrics registry — the plain entry
/// point used by the `ringd` binary.
///
/// # Errors
///
/// Only I/O errors abort the stream; per-job failures become `"error"`
/// lines.
pub fn serve<R: BufRead, W: Write + Send>(
    input: R,
    output: W,
    options: &ServeOptions,
) -> std::io::Result<ServeSummary> {
    let workers = if options.workers == 0 {
        std::thread::available_parallelism().map_or(2, usize::from)
    } else {
        options.workers
    };
    let metrics = ServingMetrics::new(workers);
    serve_with(input, output, options, &metrics)
}

#[cfg(test)]
mod tests {
    use super::{default_inputs, serve, JobSpec, ServeOptions, ServeSummary, ServingMetrics};
    use anonring_core::algorithms::driver::Audited;
    use anonring_net::Transport;
    use anonring_sim::json::Value;
    use anonring_sim::telemetry::MetricId;

    #[test]
    fn job_lines_parse_with_defaults() {
        let spec = JobSpec::parse(r#"{"algorithm":"sync_and","n":3}"#, 7).expect("parses");
        assert_eq!(spec.id, "job-7");
        assert_eq!(spec.algorithm, Audited::SyncAnd);
        assert_eq!(spec.inputs, default_inputs(Audited::SyncAnd, 3));
        assert_eq!(spec.options.transport, Transport::Threads);
        assert!(spec.conformance);
        assert_eq!(spec.options.timeout.as_millis(), 10_000);
    }

    #[test]
    fn job_lines_honor_explicit_fields() {
        let line = r#"{"id":"x1","algorithm":"orientation","n":4,"inputs":[1,0,1,1],
            "seed":42,"capacity":2,"transport":"tcp","timeout_ms":500,"conformance":false}"#;
        let spec = JobSpec::parse(&line.replace('\n', " "), 0).expect("parses");
        assert_eq!(spec.id, "x1");
        assert_eq!(spec.inputs, vec![1, 0, 1, 1]);
        assert_eq!(spec.options.jitter_seed, 42);
        assert_eq!(spec.options.capacity, 2);
        assert_eq!(spec.options.transport, Transport::TcpLoopback);
        assert_eq!(spec.options.timeout.as_millis(), 500);
        assert!(!spec.conformance);
    }

    #[test]
    fn malformed_jobs_are_named_errors() {
        assert!(JobSpec::parse("{}", 0).unwrap_err().contains("algorithm"));
        assert!(JobSpec::parse(r#"{"algorithm":"nope","n":3}"#, 0)
            .unwrap_err()
            .contains("unknown algorithm"));
        assert!(JobSpec::parse(r#"{"algorithm":"sync_and"}"#, 0)
            .unwrap_err()
            .contains("ring size"));
    }

    #[test]
    fn job_integers_are_exact_and_strict() {
        let job =
            |fields: &str| JobSpec::parse(&format!(r#"{{"algorithm":"sync_and",{fields}}}"#), 0);
        let spec = job(r#""n":3,"seed":9007199254740993"#).expect("parses");
        assert_eq!(spec.seed, 9_007_199_254_740_993);
        assert_eq!(spec.options.jitter_seed, 9_007_199_254_740_993);
        for (fields, error) in [
            (
                r#""n":3,"seed":18446744073709551616"#,
                "seed must be an integer",
            ),
            (r#""n":3.0"#, "n must be an integer"),
            (r#""n":1e2"#, "n must be an integer"),
            (r#""n":3,"inputs":[1,1.0,1]"#, "inputs must be bytes"),
            (r#""n":3,"n":4"#, "duplicate key \"n\""),
        ] {
            let err = job(fields).expect_err(fields);
            assert!(err.contains(error), "{fields}: {err}");
        }
    }

    #[test]
    fn serve_streams_results_and_a_summary() {
        let batch = concat!(
            r#"{"id":"a","algorithm":"sync_and","n":3,"inputs":[1,1,1]}"#,
            "\n",
            r#"{"id":"b","algorithm":"async_input_dist","n":4}"#,
            "\n",
            r#"{"broken"#,
            "\n"
        );
        let mut out = Vec::new();
        let summary = serve(
            batch.as_bytes(),
            &mut out,
            &ServeOptions {
                workers: 2,
                ..ServeOptions::default()
            },
        )
        .expect("serves");
        assert_eq!(
            summary,
            ServeSummary {
                jobs: 3,
                ok: 2,
                failed: 1,
                requeued: 0
            }
        );
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        for line in &lines {
            Value::parse(line).expect("every emitted line is JSON");
        }
        let last = Value::parse(lines[3]).expect("summary");
        assert_eq!(last.get("type").and_then(Value::as_str), Some("done"));
        assert_eq!(last.get("ok").and_then(Value::as_u64), Some(2));
        // The sync_and job of all-ones certifies and ANDs to 1.
        let a = lines
            .iter()
            .map(|l| Value::parse(l).expect("json"))
            .find(|v| v.get("id").and_then(Value::as_str) == Some("a"))
            .expect("job a reported");
        assert_eq!(
            a.get("conformance").and_then(Value::as_str),
            Some("certified")
        );
        let outputs = a.get("outputs").and_then(Value::as_array).expect("outputs");
        assert_eq!(outputs.len(), 3);
        assert!(
            outputs.iter().all(|o| o.as_str() == Some("Bit(1)")),
            "{outputs:?}"
        );
    }

    #[test]
    fn per_job_timeouts_fail_the_job_not_the_batch() {
        // A 0 ms budget cannot finish; the job errors, the batch survives.
        let batch = concat!(
            r#"{"id":"t","algorithm":"sync_and","n":8,"timeout_ms":0}"#,
            "\n",
            r#"{"id":"fine","algorithm":"sync_and","n":3,"inputs":[1,1,1]}"#,
            "\n"
        );
        let mut out = Vec::new();
        let summary = serve(
            batch.as_bytes(),
            &mut out,
            &ServeOptions {
                workers: 1,
                ..ServeOptions::default()
            },
        )
        .expect("serves");
        assert_eq!(summary.ok, 1);
        assert_eq!(summary.failed, 1);
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("\"type\":\"error\""), "{text}");
        assert!(text.contains("budget"), "{text}");
    }

    #[test]
    fn retries_requeue_failed_runs_before_erroring() {
        // A 0 ms budget fails every attempt: 1 retry → 1 requeue event,
        // one error line, and the job still counts once.
        let batch = concat!(
            r#"{"id":"t","algorithm":"sync_and","n":8,"timeout_ms":0}"#,
            "\n"
        );
        let mut out = Vec::new();
        let summary = serve(
            batch.as_bytes(),
            &mut out,
            &ServeOptions {
                workers: 1,
                retries: 1,
                ..ServeOptions::default()
            },
        )
        .expect("serves");
        assert_eq!(
            summary,
            ServeSummary {
                jobs: 1,
                ok: 0,
                failed: 1,
                requeued: 1
            }
        );
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(text.matches("\"type\":\"error\"").count(), 1, "{text}");
        assert!(text.contains("\"requeued\":1"), "{text}");
    }

    #[test]
    fn oversized_lines_error_and_the_stream_continues() {
        let huge = format!(
            r#"{{"id":"big","algorithm":"sync_and","n":3,"junk":"{}"}}"#,
            "x".repeat(512)
        );
        let batch = format!(
            "{huge}\n{}\n",
            r#"{"id":"fine","algorithm":"sync_and","n":3,"inputs":[1,1,1]}"#
        );
        let mut out = Vec::new();
        let summary = serve(
            batch.as_bytes(),
            &mut out,
            &ServeOptions {
                workers: 1,
                max_line_bytes: 256,
                ..ServeOptions::default()
            },
        )
        .expect("serves");
        assert_eq!(summary.ok, 1);
        assert_eq!(summary.failed, 1);
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("exceeds the 256-byte limit"), "{text}");
        assert!(text.contains("\"id\":\"fine\""), "{text}");
    }

    #[test]
    fn metrics_requests_answer_inline_in_both_formats() {
        let batch = concat!(
            r#"{"id":"a","algorithm":"sync_and","n":3,"inputs":[1,1,1]}"#,
            "\n",
            r#"{"type":"metrics"}"#,
            "\n",
            r#"{"type":"metrics","format":"prometheus"}"#,
            "\n"
        );
        let mut out = Vec::new();
        let summary = serve(
            batch.as_bytes(),
            &mut out,
            &ServeOptions {
                workers: 1,
                ..ServeOptions::default()
            },
        )
        .expect("serves");
        // Control requests are not jobs.
        assert_eq!(summary.jobs, 1);
        assert_eq!(summary.ok, 1);
        let text = String::from_utf8(out).expect("utf8");
        let metrics_lines: Vec<Value> = text
            .lines()
            .map(|l| Value::parse(l).expect("every line is JSON"))
            .filter(|v| v.get("type").and_then(Value::as_str) == Some("metrics"))
            .collect();
        assert_eq!(metrics_lines.len(), 2, "{text}");
        let json_fmt = &metrics_lines[0];
        assert_eq!(json_fmt.get("format").and_then(Value::as_str), Some("json"));
        let snapshot = json_fmt.get("snapshot").expect("embedded snapshot");
        let accepted = snapshot
            .get("counters")
            .and_then(Value::as_array)
            .expect("counters")
            .iter()
            .find(|c| c.get("name").and_then(Value::as_str) == Some("ringd_jobs_accepted_total"))
            .expect("accepted counter");
        assert_eq!(accepted.get("value").and_then(Value::as_u64), Some(1));
        let prom = &metrics_lines[1];
        assert_eq!(
            prom.get("format").and_then(Value::as_str),
            Some("prometheus")
        );
        let body = prom.get("body").and_then(Value::as_str).expect("body");
        assert!(
            body.contains("# TYPE ringd_jobs_accepted_total counter"),
            "{body}"
        );
        assert!(body.contains("ringd_jobs_accepted_total 1"), "{body}");
        assert!(body.contains("# TYPE ringd_queue_depth gauge"), "{body}");
    }

    #[test]
    fn unknown_control_requests_are_named_errors() {
        let batch = concat!(r#"{"type":"shutdown"}"#, "\n");
        let mut out = Vec::new();
        let summary = serve(
            batch.as_bytes(),
            &mut out,
            &ServeOptions {
                workers: 1,
                ..ServeOptions::default()
            },
        )
        .expect("serves");
        assert_eq!(summary.jobs, 0);
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("unknown control request type"), "{text}");
    }

    #[test]
    fn serving_metrics_settle_after_the_stream_drains() {
        let batch = concat!(
            r#"{"id":"a","algorithm":"sync_and","n":3,"inputs":[1,1,1]}"#,
            "\n",
            r#"{"id":"b","algorithm":"start_sync","n":4}"#,
            "\n",
            r#"{"broken"#,
            "\n"
        );
        let metrics = ServingMetrics::new(2);
        let mut out = Vec::new();
        super::serve_with(
            batch.as_bytes(),
            &mut out,
            &ServeOptions {
                workers: 2,
                ..ServeOptions::default()
            },
            &metrics,
        )
        .expect("serves");
        let reg = metrics.snapshot();
        assert_eq!(
            reg.counter(&MetricId::plain("ringd_jobs_accepted_total")),
            3
        );
        assert_eq!(
            reg.counter(&MetricId::plain("ringd_jobs_completed_total")),
            2
        );
        assert_eq!(reg.counter(&MetricId::plain("ringd_jobs_failed_total")), 1);
        assert_eq!(
            reg.gauge(&MetricId::plain("ringd_queue_depth")),
            Some(0),
            "queue drained"
        );
        assert_eq!(reg.gauge(&MetricId::plain("ringd_busy_workers")), Some(0));
        assert_eq!(
            reg.gauge(&MetricId::plain("ringd_live_job_bytes")),
            Some(0),
            "no job bytes remain resident"
        );
        for phase in ["queue_wait", "execute", "certify"] {
            let h = reg
                .histogram(&MetricId::with_labels(
                    "ringd_job_latency_us",
                    &[("phase", phase)],
                ))
                .expect("phase histogram");
            // The malformed line never reaches execute/certify.
            let expected = if phase == "queue_wait" { 3 } else { 2 };
            assert_eq!(h.count, expected, "{phase}");
        }
    }

    #[test]
    fn recordings_land_in_the_record_dir_with_wall_stamps() {
        let dir = std::env::temp_dir().join("anonring-ringd-test-recordings");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let batch = r#"{"id":"rec/1","algorithm":"start_sync","n":3}"#;
        let mut out = Vec::new();
        let summary = serve(
            batch.as_bytes(),
            &mut out,
            &ServeOptions {
                workers: 1,
                record_dir: Some(dir.clone()),
                ..ServeOptions::default()
            },
        )
        .expect("serves");
        assert_eq!(summary.ok, 1);
        let recorded = std::fs::read_to_string(dir.join("rec_1.jsonl")).expect("recording file");
        assert!(recorded.contains("\"engine\":\"net\""), "{recorded}");
        assert!(recorded.contains("\"wall\":"), "{recorded}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
