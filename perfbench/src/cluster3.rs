//! `cluster3`: three in-process `run_shard` threads over loopback TCP,
//! then `telemetry::merge` and `certify_cluster`, one cluster run after
//! another. Jobs rotate all six audited families at n = 12 with inputs
//! drawn from the seed; on the 12-ring cut into three shards of four, a
//! quarter of the links cross shards.
//!
//! This is the only workload that runs `net::cluster`, `net::manifest`
//! and `telemetry::merge`, and its traced run is the one that measures
//! the TCP transport and the `Wire` codec on their own.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use anonring_bench::cluster::{build_manifest, ClusterConfig};
use anonring_bench::ringd::JobSpec;
use anonring_core::algorithms::driver::{Audited, JobMsg, JobOutput, JobProc};
use anonring_net::cluster::run_shard;
use anonring_net::{certify_cluster, ClusterManifest, NetOptions, ShardReport, Transport, Wire};
use anonring_sim::profile;
use anonring_sim::r#async::{AsyncEngine, AsyncPortProcess, SynchronizingScheduler};
use anonring_sim::runtime::PortActions;
use anonring_sim::telemetry::{merge, Recording};
use anonring_sim::PortId;

use crate::host::peak_rss_mb;
use crate::report::{rounds_note, Outcome};
use crate::rng::Rng;
use crate::stats::{max, median, min, quantile, ratio};
use crate::trace::Tracer;
use crate::{RunConfig, Scale};

/// Shards per cluster run.
const SHARDS: usize = 3;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Rounds of an untraced run; each reports its quantiles and the run
/// reports the best round.
const ROUNDS: usize = 5;

/// Calibration runs behind `net.tcp.fixed_us`.
const CALIBRATION_RUNS: usize = 20;

/// Job index of the first warm-up run.
const WARMUP_BASE: u64 = 9_000_000;

/// Per-run budget handed to the shards.
const TIMEOUT_MS: u64 = 10_000;

/// Keeps job seeds inside the 53 bits a JSON number holds exactly.
const JSON_SAFE_MASK: u64 = (1 << 53) - 1;

/// One cluster job: family, inputs and delivery-jitter seed.
#[derive(Debug, Clone)]
pub struct ClusterJob {
    /// The audited family.
    pub algorithm: Audited,
    /// Per-processor inputs.
    pub inputs: Vec<u8>,
    /// Delivery-jitter seed.
    pub seed: u64,
}

/// The job at position `k`: families in rotation, inputs from the seed.
#[must_use]
pub fn job(seed: u64, k: u64, n: usize) -> ClusterJob {
    let algorithm = Audited::ALL[(k % Audited::ALL.len() as u64) as usize];
    let mut rng = Rng::new(seed, 0xc1u64 << 32 | k);
    let inputs = if algorithm.wants_bit_inputs() || algorithm == Audited::Orientation {
        rng.bits(n)
    } else {
        rng.bytes(n)
    };
    ClusterJob {
        algorithm,
        inputs,
        seed: rng.next_u64() & JSON_SAFE_MASK,
    }
}

/// A job process that logs every message it sends, so the wire codec
/// can be timed on a job's real traffic.
struct Tap {
    inner: JobProc,
    log: Rc<RefCell<Vec<JobMsg>>>,
}

impl Tap {
    fn logged(&self, actions: PortActions<JobMsg, JobOutput>) -> PortActions<JobMsg, JobOutput> {
        self.log
            .borrow_mut()
            .extend(actions.sends.iter().map(|(_, m)| m.clone()));
        actions
    }
}

impl AsyncPortProcess for Tap {
    type Msg = JobMsg;
    type Output = JobOutput;

    fn on_start_ports(&mut self) -> PortActions<JobMsg, JobOutput> {
        let actions = self.inner.on_start_ports();
        self.logged(actions)
    }

    fn on_message_port(&mut self, from: PortId, msg: JobMsg) -> PortActions<JobMsg, JobOutput> {
        let actions = self.inner.on_message_port(from, msg);
        self.logged(actions)
    }
}

/// Encodes and decodes every message `job` sends on the n-ring; returns
/// `(messages, encode ns, decode ns)`.
fn time_wire(job: &ClusterJob, n: usize) -> Result<(u64, f64, f64), String> {
    let topology = job
        .algorithm
        .topology(n, &job.inputs)
        .map_err(|e| e.to_string())?;
    let log = Rc::new(RefCell::new(Vec::new()));
    let taps = job
        .algorithm
        .procs(n, &job.inputs)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|inner| Tap {
            inner,
            log: Rc::clone(&log),
        })
        .collect();
    AsyncEngine::new(topology, taps)
        .map_err(|e| e.to_string())?
        .run(&mut SynchronizingScheduler)
        .map_err(|e| e.to_string())?;
    let messages = log.take();
    let mut frame = Vec::with_capacity(messages.len() * 16);
    let began = Instant::now();
    for m in &messages {
        m.encode(&mut frame);
    }
    let encode_ns = began.elapsed().as_nanos() as f64;
    let mut input = frame.as_slice();
    let began = Instant::now();
    let decoded = (0..messages.len())
        .map(|_| JobMsg::decode(&mut input))
        .collect::<Result<Vec<JobMsg>, _>>()
        .map_err(|e| e.to_string())?;
    let decode_ns = began.elapsed().as_nanos() as f64;
    if decoded != messages || !input.is_empty() {
        return Err(format!(
            "{} n={n}: wire round trip changed the job's messages",
            job.algorithm
        ));
    }
    Ok((messages.len() as u64, encode_ns, decode_ns))
}

fn ring_size(scale: Scale) -> usize {
    match scale {
        Scale::Full => 12,
        Scale::Tiny => 6,
    }
}

/// The manifest of one run: fresh loopback ports, the job's inputs.
fn manifest(job: &ClusterJob) -> Result<ClusterManifest, String> {
    let mut manifest = build_manifest(&ClusterConfig {
        algorithm: job.algorithm,
        n: job.inputs.len(),
        shards: SHARDS,
        seed: job.seed,
        capacity: 4,
        max_delay_us: 0,
        timeout_ms: TIMEOUT_MS,
        label: "perfbench".to_string(),
    })?;
    manifest.inputs = job.inputs.clone();
    Ok(manifest)
}

/// Timings of one run, from manifest to certified merge.
#[derive(Debug, Clone)]
struct RunTimes {
    start: Instant,
    manifest_end: Instant,
    shards: Vec<(Instant, Instant)>,
    merge: Option<(Instant, Instant)>,
    certify: (Instant, Instant),
    messages: u64,
}

/// How a run ended.
enum Verdict {
    /// Certified.
    Ok(RunTimes),
    /// A shard failed (timeout, handshake, stall): a failed operation.
    Failed(String),
    /// The run finished but certification disagreed: a wrong output.
    Wrong(String),
}

/// One cluster run. With `merge_span` the merge is also timed on its
/// own before `certify_cluster` (which merges again as part of its
/// check).
fn run_once(job: &ClusterJob, merge_span: bool) -> Verdict {
    let start = Instant::now();
    let manifest = match manifest(job) {
        Ok(m) => m,
        Err(e) => return Verdict::Failed(e),
    };
    let manifest_end = Instant::now();
    let results: Vec<(Result<ShardReport, String>, Instant, Instant)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..SHARDS as u64)
                .map(|k| {
                    let manifest = &manifest;
                    scope.spawn(move || {
                        let began = Instant::now();
                        let report = run_shard(manifest, k).map_err(|e| e.to_string());
                        (report, began, Instant::now())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        let now = Instant::now();
                        (Err("shard thread panicked".to_string()), now, now)
                    })
                })
                .collect()
        });
    let mut reports = Vec::with_capacity(SHARDS);
    let mut shards = Vec::with_capacity(SHARDS);
    for (report, began, ended) in results {
        match report {
            Ok(r) => reports.push(r),
            Err(e) => return Verdict::Failed(format!("{} shard: {e}", job.algorithm)),
        }
        shards.push((began, ended));
    }
    let merge = merge_span.then(|| {
        let began = Instant::now();
        let recordings: Vec<Recording> = reports.iter().map(|r| r.recording.clone()).collect();
        let merged = merge::merge(&recordings);
        (merged.is_ok(), began, Instant::now())
    });
    if let Some((false, _, _)) = merge {
        return Verdict::Wrong(format!("{}: shard recordings do not merge", job.algorithm));
    }
    let certify_start = Instant::now();
    let certified = match certify_cluster(&manifest, &reports) {
        Ok(c) => c,
        Err(e) => return Verdict::Wrong(format!("{} not certified: {e}", job.algorithm)),
    };
    let end = Instant::now();
    let n = manifest.n as u64;
    if certified.outputs.len() != manifest.n {
        return Verdict::Wrong(format!(
            "{}: {} outputs for n = {n}",
            job.algorithm,
            certified.outputs.len()
        ));
    }
    if job.algorithm == Audited::AsyncInputDist && certified.messages != n * (n - 1) {
        return Verdict::Wrong(format!(
            "async_input_dist cluster sent {}, want n(n-1) = {}",
            certified.messages,
            n * (n - 1)
        ));
    }
    Verdict::Ok(RunTimes {
        start,
        manifest_end,
        shards,
        merge: merge.map(|(_, began, ended)| (began, ended)),
        certify: (certify_start, end),
        messages: certified.messages,
    })
}

/// Runs jobs `first..` until `seconds` pass (at least one); returns the
/// times of the certified ones with their job index.
fn run_for(
    config: &RunConfig,
    first: u64,
    seconds: f64,
    merge_span: bool,
    out: &mut Outcome,
) -> Vec<(u64, RunTimes)> {
    let n = ring_size(config.scale);
    let began = Instant::now();
    let mut done = Vec::new();
    let mut k = first;
    while k == first || began.elapsed().as_secs_f64() < seconds {
        out.count(1, 0);
        match run_once(&job(config.seed, k, n), merge_span) {
            Verdict::Ok(times) => done.push((k, times)),
            Verdict::Failed(e) => out.fail(format!("cluster3 job {k}: {e}")),
            Verdict::Wrong(e) => {
                out.count(0, 1);
                out.violate(format!("cluster3 job {k}: {e}"));
            }
        }
        k += 1;
    }
    done
}

fn ms(span: (Instant, Instant)) -> f64 {
    (span.1 - span.0).as_secs_f64() * 1e3
}

/// Runs the `cluster3` workload.
///
/// # Errors
///
/// None today; the signature matches the other workloads.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let n = ring_size(config.scale);

    // Set-up: reserve ports, write a manifest and complete one warm-up
    // run of the first family.
    let mut setup_s = Vec::new();
    for r in 0..SETUP_REPEATS {
        let began = Instant::now();
        run_for(config, WARMUP_BASE + r as u64 * 6, 0.0, false, &mut out);
        setup_s.push(began.elapsed().as_secs_f64());
    }

    if !config.trace {
        let (mut p50s, mut tails, mut rates) = (Vec::new(), Vec::new(), Vec::new());
        let mut runs = 0usize;
        for round in 0..ROUNDS {
            let began = Instant::now();
            let done = run_for(
                config,
                round as u64 * 1_000_000,
                config.seconds / ROUNDS as f64,
                false,
                &mut out,
            );
            let wall = began.elapsed().as_secs_f64();
            let times: Vec<f64> = done
                .iter()
                .map(|(_, t)| ms((t.start, t.certify.1)))
                .collect();
            p50s.push(median(&times));
            tails.push(quantile(&times, 0.9));
            rates.push(ratio(done.len() as f64, wall));
            runs += done.len();
        }
        out.notes.push(rounds_note(&[
            ("throughput_per_s", &rates),
            ("p50_ms", &p50s),
            ("tail_ms", &tails),
        ]));
        // Best round: host noise only ever slows a round.
        let (p50, tail) = (min(&p50s), min(&tails));
        out.set("setup_s", median(&setup_s));
        out.set("throughput_per_s", max(&rates));
        out.set("p50_ms", p50);
        out.set("tail_ms", tail);
        out.set("ok_ratio", out.ok_ratio());
        out.set("peak_rss_mb", peak_rss_mb());
        out.notes.push(format!(
            "named cluster_p50_ms = {p50:.3} ms, cluster_p90_ms = {tail:.3} ms \
             ({runs} certified runs at n={n}, best of {ROUNDS} rounds)"
        ));
        return Ok(out);
    }

    // Traced: an untraced reference half, then a half with the profiler
    // on and spans around every layer call. Then, outside the profiler,
    // each traced job again in one process on both transports and through
    // the wire codec, and the fixed cost of the smallest job on TCP.
    let began = Instant::now();
    let reference = run_for(config, 0, config.seconds / 2.0, false, &mut out);
    let untraced_rate = ratio(reference.len() as f64, began.elapsed().as_secs_f64());
    let mut tracer = Tracer::new();
    profile::reset();
    profile::set_enabled(true);
    let began = Instant::now();
    let traced = run_for(config, 5_000_000, config.seconds / 2.0, true, &mut out);
    let traced_rate = ratio(traced.len() as f64, began.elapsed().as_secs_f64());
    let snapshot = profile::snapshot();
    profile::set_enabled(false);
    crate::serve::profiler_series(
        &snapshot,
        traced.iter().map(|(_, t)| t.messages).sum(),
        &mut out,
    );

    let mut shard_ms_by_family: Vec<Vec<f64>> = vec![Vec::new(); Audited::ALL.len()];
    let (mut net_messages, mut tcp_messages, mut tcp_runs, mut waits) = (0u64, 0u64, 0u64, 0u64);
    let (mut wire_msgs, mut encode_ns, mut decode_ns) = (0u64, 0.0f64, 0.0f64);
    for (k, t) in &traced {
        let root = tracer.record("cluster.run", *k, None, t.start, t.certify.1);
        tracer.record("cluster.manifest", *k, Some(root), t.start, t.manifest_end);
        for &(began, ended) in &t.shards {
            tracer.record("cluster.shard", *k, Some(root), began, ended);
        }
        if let Some((began, ended)) = t.merge {
            tracer.record("telemetry.merge", *k, Some(root), began, ended);
        }
        tracer.record("cluster.certify", *k, Some(root), t.certify.0, t.certify.1);
        let slowest = t.shards.iter().map(|&s| ms(s)).fold(0.0, f64::max);
        shard_ms_by_family[(*k % Audited::ALL.len() as u64) as usize].push(slowest);

        let job = job(config.seed, *k, n);
        for (transport, span) in [
            (Transport::Threads, "net.execute"),
            (Transport::TcpLoopback, "net.tcp.execute"),
        ] {
            let topology = job.algorithm.topology(n, &job.inputs);
            let procs = job.algorithm.procs(n, &job.inputs);
            let (Ok(topology), Ok(procs)) = (topology, procs) else {
                continue;
            };
            out.count(1, 0);
            let options = NetOptions {
                jitter_seed: job.seed,
                transport,
                ..NetOptions::default()
            };
            let report = tracer.time(span, *k, None, || {
                anonring_net::run(&topology, procs, &options)
            });
            match report {
                Ok(r) if r.messages == t.messages => {
                    if transport == Transport::Threads {
                        net_messages += r.messages;
                    } else {
                        tcp_messages += r.messages;
                        tcp_runs += 1;
                        waits += r.backpressure_waits;
                    }
                }
                Ok(r) => out.violate(format!(
                    "cluster3 job {k}: one-process {transport} run sent {}, the cluster {}",
                    r.messages, t.messages
                )),
                Err(e) => out.fail(format!(
                    "cluster3 job {k}: one-process {transport} run: {e}"
                )),
            }
        }
        match time_wire(&job, n) {
            Ok((m, enc, dec)) => {
                wire_msgs += m;
                encode_ns += enc;
                decode_ns += dec;
            }
            Err(e) => out.violate(format!("cluster3 job {k}: {e}")),
        }
    }
    let calibration = r#"{"algorithm":"sync_and","n":3,"transport":"tcp"}"#;
    for i in 0..CALIBRATION_RUNS {
        out.count(1, 0);
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
                tracer.time("net.tcp.fixed", i as u64, None, || {
                    anonring_net::run(&topology, procs, &spec.options).map_err(|e| e.to_string())
                })
            });
        if let Err(e) = ran {
            out.fail(format!("cluster3: tcp calibration run: {e}"));
        }
    }

    let median_ms = |name: &str| median(&tracer.durations(name)) / 1e6;
    out.set("cluster.shard_ms.p50", median_ms("cluster.shard"));
    out.set(
        "cluster.floor_ms",
        shard_ms_by_family
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| median(v))
            .fold(f64::INFINITY, f64::min),
    );
    out.set("cluster.merge_ms", median_ms("telemetry.merge"));
    out.set("cluster.certify_ms", median_ms("cluster.certify"));
    let execute = tracer.durations("net.execute");
    out.set(
        "net.ns_per_msg",
        ratio(execute.iter().sum::<f64>(), net_messages as f64),
    );
    out.set("net.run_us.p50", median(&execute) / 1e3);
    out.set("net.run_us.p99", quantile(&execute, 0.99) / 1e3);
    let tcp_execute = tracer.durations("net.tcp.execute");
    out.set(
        "net.tcp.ns_per_msg",
        ratio(tcp_execute.iter().sum::<f64>(), tcp_messages as f64),
    );
    out.set(
        "net.tcp.fixed_us",
        median(&tracer.durations("net.tcp.fixed")) / 1e3,
    );
    out.set("wire.encode_ns", ratio(encode_ns, wire_msgs as f64));
    out.set("wire.decode_ns", ratio(decode_ns, wire_msgs as f64));
    out.set(
        "net.backpressure_waits",
        ratio(waits as f64, tcp_runs as f64),
    );
    out.set("trace.overhead", 1.0 - ratio(traced_rate, untraced_rate));
    out.notes.push(format!(
        "tracing overhead: {traced_rate:.2} runs/s traced vs {untraced_rate:.2} runs/s untraced"
    ));
    out.notes.extend(tracer.table());
    out.spans = Some(tracer.to_jsonl());
    Ok(out)
}
