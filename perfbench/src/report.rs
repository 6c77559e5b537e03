//! The metric catalog and the result line.
//!
//! Every untraced run prints every [`END_TO_END`] metric and every traced
//! run prints every [`PER_LAYER`] metric, whatever the workload, so the
//! key set of a result never depends on which workload produced it. A
//! per-layer metric of a layer the workload does not run reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["sim_grid", "serve_small", "cluster3"];

/// End-to-end metrics `(name, unit)`, as `BENCHMARK.json` lists them.
///
/// What each reads on each workload (`sim_grid`: median over its passes,
/// scaled to reference-host speed; `serve_small`: process CPU time over
/// all its rounds, pinned to one CPU; `cluster3`: best of its rounds):
///
/// | metric | sim_grid | serve_small | cluster3 |
/// |---|---|---|---|
/// | `throughput_per_s` | simulated messages per host second | certified jobs per CPU second, back to back | certified cluster runs per second |
/// | `p50_ms` | median over cells of the cell time | median CPU time of a job, one job in flight | median manifest-to-certified time |
/// | `tail_ms` | p90 over cells of the cell time | p90 CPU time of a job, one job in flight | p90 manifest-to-certified time |
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("sim.async_input_dist.ns_per_msg", "ns/msg"),
    ("sim.sync_input_dist.ns_per_msg", "ns/msg"),
    ("sim.orientation.ns_per_msg", "ns/msg"),
    ("sim.start_sync.ns_per_msg", "ns/msg"),
    ("sim.sync_and.ns_per_msg", "ns/msg"),
    ("sim.dyn_broadcast.ns_per_msg", "ns/msg"),
    ("telemetry.causal_ns_per_event", "ns/event"),
    ("sim.fabric.growth.ring", "ratio"),
    ("sim.fabric.growth.complete", "ratio"),
    ("core.build_us", "us"),
    ("ringd.parse_us", "us"),
    ("net.fixed_us", "us"),
    ("ringd.residual_us", "us"),
    ("conformance.certify_us.p50", "us"),
    ("conformance.share", "ratio"),
    ("ringd.repeat_share", "ratio"),
    ("net.ns_per_msg", "ns/msg"),
    ("net.run_us.p50", "us"),
    ("net.run_us.p99", "us"),
    ("net.tcp.ns_per_msg", "ns/msg"),
    ("net.tcp.fixed_us", "us"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("net.backpressure_waits", "count"),
    ("hub.lock_wait_ns.p50", "ns"),
    ("hub.lock_wait_ns.p99", "ns"),
    ("hub.lock_hold_ns.p50", "ns"),
    ("hub.lock_hold_ns.p99", "ns"),
    ("hub.contended_ratio", "ratio"),
    ("inbox.dwell_us.p50", "us"),
    ("inbox.dwell_us.p99", "us"),
    ("alloc.clone_bytes_per_msg", "B/msg"),
    ("wire.copy_bytes_per_msg", "B/msg"),
    ("ringd.queue_depth_peak", "count"),
    ("ringd.busy_ratio", "ratio"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.open_p50_ms", "ms"),
    ("loadgen.open_tail_ms", "ms"),
    ("cluster.shard_ms.p50", "ms"),
    ("cluster.floor_ms", "ms"),
    ("cluster.merge_ms", "ms"),
    ("cluster.certify_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells, jobs, cluster runs), set-up included.
    pub attempted: u64,
    /// Operations that failed or timed out.
    pub failed: u64,
    /// Correctness-gate violations; any one makes the run incorrect.
    pub violations: Vec<String>,
    /// Why the first few failed operations failed.
    pub failures: Vec<String>,
    /// Measured values by catalog name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Span log of a traced run (JSON lines), written when the run ends.
    pub spans: Option<String>,
}

impl Outcome {
    /// Whether every correctness gate passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Sets a measured value. Non-finite values (an empty sample set
    /// divided out) are recorded as 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Counts one failed operation (already counted as attempted) and
    /// keeps the first few reasons.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    /// Records a gate violation.
    pub fn violate(&mut self, what: String) {
        self.violations.push(what);
    }

    /// The share of attempted operations that succeeded.
    #[must_use]
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted as f64
        }
    }

    /// The final JSON line. Every catalog metric is present; a per-layer
    /// value the workload did not measure reads 0.
    ///
    /// # Errors
    ///
    /// An end-to-end metric the workload failed to set (a bug in the
    /// workload, never a measurement outcome).
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let mut metrics = String::new();
        let catalog: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => return Err(format!("workload did not measure {name}")),
            };
            let _ = write!(
                metrics,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i > 0 { ", " } else { "" }
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        ))
    }
}

/// A `{"rounds": …}` note: the per-round values behind a reported
/// median, so a reader can see the spread inside one run.
#[must_use]
pub fn rounds_note(series: &[(&str, &[f64])]) -> String {
    let body: Vec<String> = series
        .iter()
        .map(|(name, values)| {
            let values: Vec<String> = values.iter().map(f64::to_string).collect();
            format!("\"{name}\": [{}]", values.join(", "))
        })
        .collect();
    format!("{{\"rounds\": {{{}}}}}", body.join(", "))
}
