//! `sim_grid`: the six audited families on the simulator engines, one
//! thread, the way the complexity audit measures each cell — an engine
//! run with an event observer, then the causal critical path.
//!
//! The ring families run at n = 256 (`async_input_dist` also at 64, so
//! per-delivery cost on 2-port rings can be compared across sizes);
//! `dyn_broadcast` runs on its complete footprint at n = 32 and 64, whose
//! port counts (31 and 63) differ by 2×. Every cell's deterministic
//! counts must equal the committed `BENCH_trajectory.json` cell at the
//! same n, and `async_input_dist` must send exactly n(n−1) messages.
//!
//! The seed draws the `async_input_dist` inputs (arbitrary bytes; its
//! counts do not depend on their values). The other families keep the
//! audit's fixed inputs, which is what makes their committed counts an
//! oracle.

use std::time::Instant;

use anonring_bench::audit::{AuditCell, Trajectory};
use anonring_core::algorithms::async_input_dist::AsyncInputDist;
use anonring_core::algorithms::driver::Audited;
use anonring_core::algorithms::dyn_broadcast;
use anonring_core::algorithms::orientation::OrientationProc;
use anonring_core::algorithms::start_sync::StartSync;
use anonring_core::algorithms::sync_and::SyncAnd;
use anonring_core::algorithms::sync_input_dist::SyncInputDist;
use anonring_sim::profile;
use anonring_sim::r#async::{AsyncEngine, SynchronizingScheduler};
use anonring_sim::runtime::TraceEvent;
use anonring_sim::sync::SyncEngine;
use anonring_sim::telemetry::{CausalDag, PathWeight};
use anonring_sim::{RingConfig, RingTopology, WakeSchedule};

use crate::host::{peak_rss_mb, pin_to_one_cpu, speed_now, Speed};
use crate::report::{rounds_note, Outcome};
use crate::rng::Rng;
use crate::stats::{median, quantile, ratio};
use crate::trace::Tracer;
use crate::{RunConfig, Scale};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 21;

/// One grid cell and the counts it must reproduce.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// The audited family.
    pub family: Audited,
    /// Ring size.
    pub n: usize,
    /// Per-processor inputs (the wake schedule's seed is fixed).
    pub inputs: Vec<u8>,
    /// The committed trajectory cell at this n.
    pub expected: AuditCell,
}

/// What one cell run measured.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Metered messages.
    pub messages: u64,
    /// Metered bits.
    pub bits: u64,
    /// Cycles (sync) or highest arrival epoch (async).
    pub time: u64,
    /// Hops on the longest causal chain.
    pub critical_path: u64,
    /// Observed trace events.
    pub events: u64,
    /// Start of the engine run.
    pub start: Instant,
    /// End of the engine run, start of the causal analysis.
    pub engine_end: Instant,
    /// End of the causal analysis.
    pub end: Instant,
}

impl Measured {
    fn engine_ns(&self) -> f64 {
        (self.engine_end - self.start).as_nanos() as f64
    }

    fn causal_ns(&self) -> f64 {
        (self.end - self.engine_end).as_nanos() as f64
    }

    fn total_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// The audit's fixed input pattern.
fn mixed_bits(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 2654435761) >> 7 & 1) as u8).collect()
}

/// Runs the engine of one cell with an event-collecting observer and
/// returns `(messages, bits, time)`.
fn engine_run(cell: &CellSpec, events: &mut Vec<TraceEvent>) -> Result<(u64, u64, u64), String> {
    let n = cell.n;
    let mut obs = |e: &TraceEvent| events.push(*e);
    let err = |e: &dyn std::fmt::Display| format!("{} n={n}: {e}", cell.family);
    match cell.family {
        Audited::AsyncInputDist => {
            let config = RingConfig::oriented(cell.inputs.clone());
            let mut engine =
                AsyncEngine::from_config(&config, |_, &input| AsyncInputDist::new(n, input));
            let r = engine
                .run_with_observer(&mut SynchronizingScheduler, &mut obs)
                .map_err(|e| err(&e))?;
            Ok((r.messages, r.bits, r.max_epoch))
        }
        Audited::SyncInputDist => {
            let config = RingConfig::oriented(cell.inputs.clone());
            let mut engine =
                SyncEngine::from_config(&config, |_, &input| SyncInputDist::new(n, input));
            let r = engine.run_with_observer(&mut obs).map_err(|e| err(&e))?;
            Ok((r.messages, r.bits, r.cycles))
        }
        Audited::Orientation => {
            let topology = RingTopology::from_bits(&cell.inputs).map_err(|e| err(&e))?;
            let procs = (0..n).map(|_| OrientationProc::new(n)).collect();
            let mut engine = SyncEngine::new(topology, procs).map_err(|e| err(&e))?;
            engine.set_max_cycles((2 * n as u64 + 2) * (2 * n as u64 + 2));
            let r = engine.run_with_observer(&mut obs).map_err(|e| err(&e))?;
            Ok((r.messages, r.bits, r.cycles))
        }
        Audited::StartSync => {
            let topology = RingTopology::oriented(n).map_err(|e| err(&e))?;
            let procs = (0..n).map(|_| StartSync::new(n)).collect();
            let mut engine = SyncEngine::new(topology, procs).map_err(|e| err(&e))?;
            engine
                .set_wakeups(WakeSchedule::random(n, 5).as_slice().to_vec())
                .map_err(|e| err(&e))?;
            engine.set_max_cycles(((2 * n as u64 + 2) * (2 * n as u64 + 2)).max(10_000));
            let r = engine.run_with_observer(&mut obs).map_err(|e| err(&e))?;
            Ok((r.messages, r.bits, r.cycles))
        }
        Audited::SyncAnd => {
            let config = RingConfig::oriented(cell.inputs.clone());
            let mut engine = SyncEngine::from_config(&config, |_, &input| SyncAnd::new(n, input));
            let r = engine.run_with_observer(&mut obs).map_err(|e| err(&e))?;
            Ok((r.messages, r.bits, r.cycles))
        }
        Audited::DynBroadcast => {
            let topology = dyn_broadcast::audited_topology(n).map_err(|e| err(&e))?;
            let procs = dyn_broadcast::processes(&topology, &cell.inputs).map_err(|e| err(&e))?;
            let mut engine = AsyncEngine::new(topology, procs).map_err(|e| err(&e))?;
            let r = engine
                .run_with_observer(&mut SynchronizingScheduler, &mut obs)
                .map_err(|e| err(&e))?;
            Ok((r.messages, r.bits, r.max_epoch))
        }
    }
}

/// Runs one cell: the engine, then the causal critical path.
///
/// # Errors
///
/// The engine's error, rendered with the cell.
pub fn run_cell(cell: &CellSpec) -> Result<Measured, String> {
    let mut events: Vec<TraceEvent> = Vec::new();
    let start = Instant::now();
    let (messages, bits, time) = engine_run(cell, &mut events)?;
    let engine_end = Instant::now();
    let critical_path = CausalDag::from_events(&events)
        .critical_path(PathWeight::Hops)
        .map_or(0, |p| p.hops);
    let end = Instant::now();
    Ok(Measured {
        messages,
        bits,
        time,
        critical_path,
        events: events.len() as u64,
        start,
        engine_end,
        end,
    })
}

/// The correctness gate of one cell: every deterministic count equals
/// the committed cell, and `async_input_dist` sends exactly n(n−1).
///
/// # Errors
///
/// The first disagreeing count, named.
pub fn check_cell(cell: &CellSpec, m: &Measured) -> Result<(), String> {
    let e = &cell.expected;
    let pairs = [
        ("messages", m.messages, e.messages),
        ("bits", m.bits, e.bits),
        ("time", m.time, e.time),
        ("critical_path", m.critical_path, e.critical_path),
    ];
    for (what, got, want) in pairs {
        if got != want {
            return Err(format!(
                "{} n={}: {what} {got}, committed trajectory says {want}",
                cell.family, cell.n
            ));
        }
    }
    let n = cell.n as u64;
    if cell.family == Audited::AsyncInputDist && m.messages != n * (n - 1) {
        return Err(format!(
            "async_input_dist n={n}: {} messages, want n(n-1) = {}",
            m.messages,
            n * (n - 1)
        ));
    }
    Ok(())
}

/// The grid's `(family, n)` cells at `scale`.
#[must_use]
pub fn grid(scale: Scale) -> Vec<(Audited, usize)> {
    let (ring, small_ring, complete) = match scale {
        Scale::Full => (256, 64, [32, 64]),
        Scale::Tiny => (32, 16, [16, 32]),
    };
    vec![
        (Audited::AsyncInputDist, small_ring),
        (Audited::AsyncInputDist, ring),
        (Audited::SyncInputDist, ring),
        (Audited::Orientation, ring),
        (Audited::StartSync, ring),
        (Audited::SyncAnd, ring),
        (Audited::DynBroadcast, complete[0]),
        (Audited::DynBroadcast, complete[1]),
    ]
}

/// Builds the cells of `grid` with their inputs and committed counts.
///
/// # Errors
///
/// A grid cell the trajectory does not hold.
pub fn cells(
    trajectory: &Trajectory,
    grid: &[(Audited, usize)],
    seed: u64,
) -> Result<Vec<CellSpec>, String> {
    let snapshot = trajectory
        .latest()
        .ok_or("BENCH_trajectory.json holds no snapshot")?;
    let mut rng = Rng::new(seed, 0x5195);
    grid.iter()
        .map(|&(family, n)| {
            let expected = snapshot
                .algorithms
                .iter()
                .find(|a| a.algorithm == family.name())
                .and_then(|a| a.cells.iter().find(|c| c.n == n as u64))
                .cloned()
                .ok_or_else(|| format!("BENCH_trajectory.json has no {family} cell at n={n}"))?;
            let inputs = match family {
                Audited::AsyncInputDist => rng.bytes(n),
                Audited::SyncAnd => (0..n).map(|i| (i % 2) as u8).collect(),
                _ => mixed_bits(n),
            };
            Ok(CellSpec {
                family,
                n,
                inputs,
                expected,
            })
        })
        .collect()
}

/// Reads the committed trajectory under `root`.
///
/// # Errors
///
/// A missing or malformed file.
pub fn load_trajectory(root: &std::path::Path) -> Result<Trajectory, String> {
    let path = root.join("BENCH_trajectory.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Trajectory::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

/// Per-pass and per-cell samples of a run of passes.
#[derive(Debug, Default)]
struct Passes {
    /// Simulated messages per host second of each pass.
    rates: Vec<f64>,
    /// Every time of every cell, ms at reference-host speed, by cell.
    cell_ms: Vec<Vec<f64>>,
    /// Host speed, sampled before every pass.
    speed: Speed,
    attempted: u64,
    failed: u64,
}

impl Passes {
    /// Each cell's median time over the passes, ms at reference-host
    /// speed.
    fn cell_ms(&self) -> Vec<f64> {
        self.cell_ms.iter().map(|times| median(times)).collect()
    }

    /// Each pass's rate at reference-host speed: divided by the speed
    /// sampled just before it.
    fn scaled_rates(&self) -> Vec<f64> {
        self.rates
            .iter()
            .zip(self.speed.samples())
            .map(|(rate, speed)| rate / speed)
            .collect()
    }
}

/// Runs whole passes over `cells` until `seconds` have passed, at least
/// `min_passes` of them; calls `sink` on every successful cell.
fn run_passes(
    cells: &[CellSpec],
    seconds: f64,
    min_passes: usize,
    out: &mut Outcome,
    mut sink: impl FnMut(usize, &Measured),
) -> Passes {
    let mut passes = Passes {
        cell_ms: vec![Vec::new(); cells.len()],
        ..Passes::default()
    };
    let began = Instant::now();
    while passes.rates.len() < min_passes || began.elapsed().as_secs_f64() < seconds {
        let speed = passes.speed.sample();
        let pass_start = Instant::now();
        let mut messages = 0u64;
        for (i, cell) in cells.iter().enumerate() {
            passes.attempted += 1;
            match run_cell(cell).and_then(|m| check_cell(cell, &m).map(|()| m)) {
                Ok(m) => {
                    messages += m.messages;
                    passes.cell_ms[i].push(m.total_ms() * speed);
                    sink(i, &m);
                }
                Err(e) => {
                    passes.failed += 1;
                    out.violate(e);
                }
            }
        }
        passes
            .rates
            .push(messages as f64 / pass_start.elapsed().as_secs_f64());
    }
    passes
}

/// Runs the `sim_grid` workload.
///
/// # Errors
///
/// A missing or malformed `BENCH_trajectory.json`, a grid cell it does
/// not hold, or a failure to pin the run to one CPU.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // The speed samples must see the CPU the passes run on.
    let cpu = pin_to_one_cpu().map_err(|e| format!("sim_grid: {e}"))?;
    out.notes.push(format!("pinned to CPU {cpu}"));
    let grid = grid(config.scale);

    // Set-up: read the oracle, build every cell, and run each family once
    // at the smallest audited size so lazy initialisation is paid here.
    let mut setup_s = Vec::new();
    let mut cells_built = Vec::new();
    for _ in 0..SETUP_REPEATS {
        // Each repeat is scaled by a speed sample taken just before it:
        // the first tens of milliseconds of a run can find the host at
        // another speed than the measured passes do.
        let speed = speed_now();
        let began = Instant::now();
        let trajectory = load_trajectory(&config.root)?;
        let warm_grid: Vec<(Audited, usize)> = Audited::ALL.iter().map(|&a| (a, 16)).collect();
        for cell in cells(&trajectory, &warm_grid, config.seed)? {
            out.count(1, 0);
            if let Err(e) = run_cell(&cell).and_then(|m| check_cell(&cell, &m)) {
                out.count(0, 1);
                out.violate(e);
            }
        }
        cells_built = cells(&trajectory, &grid, config.seed)?;
        setup_s.push(began.elapsed().as_secs_f64() * speed);
    }
    let cells = cells_built;

    if !config.trace {
        let passes = run_passes(&cells, config.seconds, 2, &mut out, |_, _| {});
        out.count(passes.attempted, passes.failed);
        // Each pass is scaled to reference-host speed by the sample taken
        // just before it (single-thread CPU work follows the host's speed
        // swings closely), then the medians over the passes are taken: a
        // pass is short, so both slow and fast outliers (host steal, turbo
        // bursts) land in single passes.
        let speed = passes.speed.median();
        let rate = median(&passes.scaled_rates());
        let cell_ms = passes.cell_ms();
        out.set("setup_s", median(&setup_s));
        out.set("throughput_per_s", rate);
        out.set("p50_ms", median(&cell_ms));
        out.set("tail_ms", quantile(&cell_ms, 0.9));
        out.set("ok_ratio", out.ok_ratio());
        out.set("peak_rss_mb", peak_rss_mb());
        out.notes.push(rounds_note(&[
            ("throughput_per_s", &passes.rates),
            ("cell_ms", &passes.cell_ms()),
            ("speed", passes.speed.samples()),
        ]));
        out.notes.push(format!(
            "named sim_msgs_per_s = {rate:.1} msg/s at reference-host speed ({:.1} msg/s \
             measured at {speed:.3}x), median of {} passes over {} cells",
            median(&passes.rates),
            passes.rates.len(),
            cells.len()
        ));
        return Ok(out);
    }

    // Traced: an untraced reference half, then a half with the profiler
    // on and a span around every engine run and causal analysis.
    let reference = run_passes(&cells, config.seconds / 2.0, 1, &mut out, |_, _| {});
    out.count(reference.attempted, reference.failed);
    let mut tracer = Tracer::new();
    let mut engine_ns = vec![0.0f64; cells.len()];
    let mut messages = vec![0u64; cells.len()];
    let (mut causal_ns, mut events) = (0.0f64, 0u64);
    let mut job = 0u64;
    profile::reset();
    profile::set_enabled(true);
    let traced = run_passes(&cells, config.seconds / 2.0, 1, &mut out, |i, m| {
        let root = tracer.record("sim.cell", job, None, m.start, m.end);
        tracer.record("sim.engine", job, Some(root), m.start, m.engine_end);
        tracer.record("telemetry.causal", job, Some(root), m.engine_end, m.end);
        job += 1;
        engine_ns[i] += m.engine_ns();
        messages[i] += m.messages;
        causal_ns += m.causal_ns();
        events += m.events;
    });
    profile::set_enabled(false);
    out.count(traced.attempted, traced.failed);

    let per_msg = |pick: &dyn Fn(&CellSpec) -> bool| {
        let (ns, msgs) = cells
            .iter()
            .enumerate()
            .filter(|(_, c)| pick(c))
            .fold((0.0, 0u64), |(ns, msgs), (i, _)| {
                (ns + engine_ns[i], msgs + messages[i])
            });
        ratio(ns, msgs as f64)
    };
    for (family, name) in [
        (Audited::AsyncInputDist, "sim.async_input_dist.ns_per_msg"),
        (Audited::SyncInputDist, "sim.sync_input_dist.ns_per_msg"),
        (Audited::Orientation, "sim.orientation.ns_per_msg"),
        (Audited::StartSync, "sim.start_sync.ns_per_msg"),
        (Audited::SyncAnd, "sim.sync_and.ns_per_msg"),
        (Audited::DynBroadcast, "sim.dyn_broadcast.ns_per_msg"),
    ] {
        out.set(name, per_msg(&|c| c.family == family));
    }
    out.set(
        "telemetry.causal_ns_per_event",
        ratio(causal_ns, events as f64),
    );
    for (family, name) in [
        (Audited::AsyncInputDist, "sim.fabric.growth.ring"),
        (Audited::DynBroadcast, "sim.fabric.growth.complete"),
    ] {
        let sizes: Vec<usize> = cells
            .iter()
            .filter(|c| c.family == family)
            .map(|c| c.n)
            .collect();
        let (lo, hi) = (
            sizes.iter().copied().min().unwrap_or(0),
            sizes.iter().copied().max().unwrap_or(0),
        );
        let at = |n: usize| per_msg(&|c| c.family == family && c.n == n);
        out.set(name, ratio(at(hi), at(lo)));
        out.notes.push(format!(
            "{name}: {:.1} ns/msg at n={hi} over {:.1} ns/msg at n={lo}",
            at(hi),
            at(lo)
        ));
    }
    let (untraced, traced_rate) = (
        median(&reference.scaled_rates()),
        median(&traced.scaled_rates()),
    );
    out.set("trace.overhead", 1.0 - ratio(traced_rate, untraced));
    out.notes.push(format!(
        "tracing overhead: {traced_rate:.1} msg/s traced vs {untraced:.1} msg/s untraced"
    ));
    out.notes.extend(tracer.table());
    out.spans = Some(tracer.to_jsonl());
    Ok(out)
}
