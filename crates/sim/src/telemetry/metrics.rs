//! A small, dependency-free metrics registry: counters, gauges and
//! histograms, each addressable by a static name plus a label set.
//!
//! The registry is the *export* surface of the telemetry layer: a
//! [`crate::telemetry::Recording`] keeps the raw events and folds them
//! into a registry snapshot on demand, so the per-event path never
//! allocates label strings. Storage is `BTreeMap`
//! keyed by `(name, labels)`, which makes iteration — and therefore the
//! JSON snapshot — deterministic, a property the golden tests pin.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric address: static name plus an ordered list of label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId {
    /// Metric name (e.g. `"messages_total"`).
    pub name: &'static str,
    /// Label pairs, in the order given at registration.
    pub labels: Vec<(&'static str, String)>,
}

impl MetricId {
    /// An unlabelled metric id.
    #[must_use]
    pub fn plain(name: &'static str) -> MetricId {
        MetricId {
            name,
            labels: Vec::new(),
        }
    }

    /// A labelled metric id.
    #[must_use]
    pub fn with_labels(name: &'static str, labels: &[(&'static str, &str)]) -> MetricId {
        MetricId {
            name,
            labels: labels.iter().map(|&(k, v)| (k, v.to_string())).collect(),
        }
    }
}

impl core::fmt::Display for MetricId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.name)?;
        if !self.labels.is_empty() {
            write!(f, "{{")?;
            for (i, (k, v)) in self.labels.iter().enumerate() {
                write!(f, "{}{k}={v}", if i > 0 { "," } else { "" })?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

/// A power-of-two-bucket histogram over `u64` observations.
///
/// Bucket `i` counts observations `v` with `2^(i−1) ≤ v < 2^i` (bucket 0
/// counts zeros), so 65 buckets cover the whole `u64` range with no
/// configuration — adequate for message counts, bit lengths and queue
/// depths, whose interesting structure is their order of magnitude.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations (saturating at `u64::MAX`).
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    buckets: Vec<u64>,
}

impl Histogram {
    pub(crate) fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.observe_times(value, 1);
    }

    /// Records `times` observations of `value` in one step (none when
    /// `times` is 0).
    pub fn observe_times(&mut self, value: u64, times: u64) {
        if times == 0 {
            return;
        }
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += times;
        self.sum = self.sum.saturating_add(value.saturating_mul(times));
        let idx = Self::bucket_index(value);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += times;
    }

    /// The mean observation, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `(upper_bound_exclusive, count)` per nonempty bucket, ascending.
    /// Bucket with upper bound `2^i` holds values in `[2^(i−1), 2^i)`.
    #[must_use]
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (1u64.checked_shl(i as u32).unwrap_or(u64::MAX), c))
            .collect()
    }

    /// Rebuilds a histogram from already-tallied parts — the bridge the
    /// lock-free profiler uses to turn its atomic bucket arrays into
    /// registry histograms at snapshot time. `buckets[i]` must count the
    /// observations [`Histogram::bucket_index`] would have routed to
    /// bucket `i`; `count`/`sum`/`min`/`max` must describe the same
    /// sample stream (an empty stream passes zeros).
    #[must_use]
    pub(crate) fn from_parts(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        buckets: Vec<u64>,
    ) -> Histogram {
        let mut buckets = buckets;
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        Histogram {
            count,
            sum,
            min,
            max,
            buckets,
        }
    }

    /// Folds `other` into `self` (count/sum add, min/max widen, buckets
    /// add index-wise). Merging is exact: the merged histogram equals the
    /// one that would have observed both sample streams directly, which
    /// is what lets per-worker shards be combined at scrape time.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
    }

    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`; 0 when empty).
    ///
    /// Rank-based with linear interpolation inside the containing
    /// power-of-two bucket: the target rank is `q · (count − 1)`, the
    /// bucket's bounds are tightened by the observed `min`/`max`, and the
    /// estimate interpolates linearly across the surplus rank within the
    /// bucket. For values spread uniformly over a bucket the estimate
    /// matches the exact linear-interpolation quantile (the unit test
    /// pins this on 1..=100).
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.count - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if ((below + c - 1) as f64) >= rank {
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let hi = 1u64.checked_shl(i as u32).unwrap_or(u64::MAX);
                let lo = lo.max(self.min) as f64;
                let hi = (hi.min(self.max.saturating_add(1)) as f64).max(lo);
                let est = lo + (hi - lo) * ((rank - below as f64) / c as f64);
                // Never report above the observed maximum (the half-open
                // bucket upper bound overshoots it by up to one).
                return est.min(self.max as f64);
            }
            below += c;
        }
        self.max as f64
    }
}

/// The registry: three kinds of metrics behind one deterministic map.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricId, u64>,
    gauges: BTreeMap<MetricId, i64>,
    histograms: BTreeMap<MetricId, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the counter `id`, creating it at zero.
    pub fn add_counter(&mut self, id: MetricId, delta: u64) {
        *self.counters.entry(id).or_insert(0) += delta;
    }

    /// Increments the counter `id` by one.
    pub fn inc_counter(&mut self, id: MetricId) {
        self.add_counter(id, 1);
    }

    /// Reads a counter (0 when never written).
    #[must_use]
    pub fn counter(&self, id: &MetricId) -> u64 {
        self.counters.get(id).copied().unwrap_or(0)
    }

    /// Sets the gauge `id` to `value`.
    pub fn set_gauge(&mut self, id: MetricId, value: i64) {
        self.gauges.insert(id, value);
    }

    /// Reads a gauge, if ever set.
    #[must_use]
    pub fn gauge(&self, id: &MetricId) -> Option<i64> {
        self.gauges.get(id).copied()
    }

    /// Records `value` into the histogram `id`, creating it when absent.
    pub fn observe(&mut self, id: MetricId, value: u64) {
        self.histograms.entry(id).or_default().observe(value);
    }

    /// Installs an already-built histogram under `id` (replacing any
    /// previous one) — used by the profiler snapshot, which tallies in
    /// atomic buckets and materializes [`Histogram`]s only at scrape time,
    /// and by `Recording::registry` for its per-time histogram.
    pub(crate) fn put_histogram(&mut self, id: MetricId, histogram: Histogram) {
        self.histograms.insert(id, histogram);
    }

    /// Reads a histogram, if any observation was recorded.
    #[must_use]
    pub fn histogram(&self, id: &MetricId) -> Option<&Histogram> {
        self.histograms.get(id)
    }

    /// Iterates counters in deterministic (name, labels) order.
    pub fn counters(&self) -> impl Iterator<Item = (&MetricId, u64)> {
        self.counters.iter().map(|(id, &v)| (id, v))
    }

    /// Iterates gauges in deterministic order.
    pub fn gauges(&self) -> impl Iterator<Item = (&MetricId, i64)> {
        self.gauges.iter().map(|(id, &v)| (id, v))
    }

    /// Iterates histograms in deterministic order.
    pub fn histograms(&self) -> impl Iterator<Item = (&MetricId, &Histogram)> {
        self.histograms.iter()
    }

    /// Folds `other` into `self`: counters add, gauges overwrite
    /// (last-write-wins — callers that need a sum should model the value
    /// as a counter), histograms merge exactly via [`Histogram::merge`].
    ///
    /// This is the shard-combine operation behind the serving plane:
    /// each `ringd` worker keeps a private registry on its hot path and
    /// a `metrics` scrape merges the shards into one snapshot, so no
    /// lock is shared between workers while jobs run.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (id, &v) in &other.counters {
            *self.counters.entry(id.clone()).or_insert(0) += v;
        }
        for (id, &v) in &other.gauges {
            self.gauges.insert(id.clone(), v);
        }
        for (id, h) in &other.histograms {
            self.histograms.entry(id.clone()).or_default().merge(h);
        }
    }

    /// A copy of the registry with `(key, value)` appended to every
    /// metric's label set. Ids already carrying `key` are left alone, so
    /// the operation is idempotent.
    ///
    /// This is how a cluster shard makes its scrape mergeable: labelling
    /// every series with `shard="k"` before exposition means two shards'
    /// expositions never collide on a Prometheus series.
    #[must_use]
    pub fn labelled(&self, key: &'static str, value: &str) -> MetricsRegistry {
        let relabel = |id: &MetricId| -> MetricId {
            if id.labels.iter().any(|(k, _)| *k == key) {
                return id.clone();
            }
            let mut labels = id.labels.clone();
            labels.push((key, value.to_string()));
            MetricId {
                name: id.name,
                labels,
            }
        };
        MetricsRegistry {
            counters: self
                .counters
                .iter()
                .map(|(id, &v)| (relabel(id), v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(id, &v)| (relabel(id), v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(id, h)| (relabel(id), h.clone()))
                .collect(),
        }
    }

    /// Serializes the registry in the Prometheus text exposition format
    /// (version 0.0.4): one `# TYPE` line per metric name, one sample
    /// line per label set, histograms as cumulative `_bucket{le=...}`
    /// series plus `_sum` and `_count`. Deterministic because the
    /// underlying maps iterate in `(name, labels)` order.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        fn prom_escape(value: &str) -> String {
            let mut out = String::with_capacity(value.len());
            for c in value.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    other => out.push(other),
                }
            }
            out
        }
        fn label_block(labels: &[(&'static str, String)], extra: Option<(&str, &str)>) -> String {
            if labels.is_empty() && extra.is_none() {
                return String::new();
            }
            let mut out = String::from("{");
            let mut first = true;
            for (k, v) in labels {
                let _ = write!(
                    out,
                    "{}{k}=\"{}\"",
                    if first { "" } else { "," },
                    prom_escape(v)
                );
                first = false;
            }
            if let Some((k, v)) = extra {
                let _ = write!(out, "{}{k}=\"{v}\"", if first { "" } else { "," });
            }
            out.push('}');
            out
        }
        fn type_line(out: &mut String, last: &mut &'static str, name: &'static str, kind: &str) {
            if *last != name {
                let _ = writeln!(out, "# TYPE {name} {kind}");
                *last = name;
            }
        }

        let mut out = String::new();
        let mut last = "";
        for (id, v) in &self.counters {
            type_line(&mut out, &mut last, id.name, "counter");
            let _ = writeln!(out, "{}{} {v}", id.name, label_block(&id.labels, None));
        }
        for (id, v) in &self.gauges {
            type_line(&mut out, &mut last, id.name, "gauge");
            let _ = writeln!(out, "{}{} {v}", id.name, label_block(&id.labels, None));
        }
        for (id, h) in &self.histograms {
            type_line(&mut out, &mut last, id.name, "histogram");
            let mut cumulative = 0u64;
            for (le, c) in h.buckets() {
                cumulative += c;
                let _ = writeln!(
                    out,
                    "{}_bucket{} {cumulative}",
                    id.name,
                    label_block(&id.labels, Some(("le", &le.to_string())))
                );
            }
            let _ = writeln!(
                out,
                "{}_bucket{} {}",
                id.name,
                label_block(&id.labels, Some(("le", "+Inf"))),
                h.count
            );
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                id.name,
                label_block(&id.labels, None),
                h.sum
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                id.name,
                label_block(&id.labels, None),
                h.count
            );
        }
        out
    }

    /// Serializes the whole registry as a deterministic JSON object —
    /// hand-rolled, like every artifact in this workspace (no external
    /// deps; see `BENCH_sweep.json`).
    #[must_use]
    pub fn to_json(&self) -> String {
        fn metric_entry(out: &mut String, id: &MetricId, body: &str, last: bool) {
            let _ = write!(
                out,
                "    {{\"name\": \"{}\"",
                crate::json::json_escape(id.name)
            );
            if !id.labels.is_empty() {
                out.push_str(", \"labels\": {");
                for (i, (k, v)) in id.labels.iter().enumerate() {
                    let _ = write!(
                        out,
                        "{}\"{}\": \"{}\"",
                        if i > 0 { ", " } else { "" },
                        crate::json::json_escape(k),
                        crate::json::json_escape(v)
                    );
                }
                out.push('}');
            }
            let _ = writeln!(out, ", {body}}}{}", if last { "" } else { "," });
        }

        let mut out = String::from("{\n  \"counters\": [\n");
        let total = self.counters.len();
        for (i, (id, v)) in self.counters.iter().enumerate() {
            metric_entry(&mut out, id, &format!("\"value\": {v}"), i + 1 == total);
        }
        out.push_str("  ],\n  \"gauges\": [\n");
        let total = self.gauges.len();
        for (i, (id, v)) in self.gauges.iter().enumerate() {
            metric_entry(&mut out, id, &format!("\"value\": {v}"), i + 1 == total);
        }
        out.push_str("  ],\n  \"histograms\": [\n");
        let total = self.histograms.len();
        for (i, (id, h)) in self.histograms.iter().enumerate() {
            let mut body = format!(
                "\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"mean\": {:.3}, \"p50\": {:.3}, \"p95\": {:.3}, \"p99\": {:.3}, \
                 \"p999\": {:.3}, \"buckets\": [",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
                h.quantile(0.999)
            );
            for (j, (le, c)) in h.buckets().iter().enumerate() {
                let _ = write!(
                    body,
                    "{}{{\"le\": {le}, \"count\": {c}}}",
                    if j > 0 { ", " } else { "" }
                );
            }
            body.push(']');
            metric_entry(&mut out, id, &body, i + 1 == total);
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::{Histogram, MetricId, MetricsRegistry};

    #[test]
    fn counters_accumulate_per_label_set() {
        let mut reg = MetricsRegistry::new();
        let total = MetricId::plain("messages_total");
        let p0 = MetricId::with_labels("messages_total", &[("proc", "0")]);
        let p1 = MetricId::with_labels("messages_total", &[("proc", "1")]);
        reg.inc_counter(total.clone());
        reg.add_counter(total.clone(), 2);
        reg.inc_counter(p0.clone());
        assert_eq!(reg.counter(&total), 3);
        assert_eq!(reg.counter(&p0), 1);
        assert_eq!(reg.counter(&p1), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let mut reg = MetricsRegistry::new();
        let id = MetricId::with_labels("queue_depth", &[("to", "3"), ("port", "left")]);
        assert_eq!(reg.gauge(&id), None);
        reg.set_gauge(id.clone(), 4);
        reg.set_gauge(id.clone(), 2);
        assert_eq!(reg.gauge(&id), Some(2));
        assert_eq!(id.to_string(), "queue_depth{to=3,port=left}");
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 1, 2, 3, 8, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.sum, 1015);
        assert_eq!((h.min, h.max), (0, 1000));
        // 0 → bucket le 1; 1,1 → le 2; 2,3 → le 4; 8 → le 16; 1000 → le 1024.
        assert_eq!(
            h.buckets(),
            vec![(1, 1), (2, 2), (4, 2), (16, 1), (1024, 1)]
        );
        assert!((h.mean() - 1015.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_interpolate_within_power_of_two_buckets() {
        // Known distribution: 1..=100, one observation each. Values fill
        // each power-of-two bucket contiguously, so the interpolated
        // estimates equal the exact linear-interpolation quantiles.
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.observe(v);
        }
        assert!((h.quantile(0.0) - 1.0).abs() < 1e-9, "{}", h.quantile(0.0));
        assert!(
            (h.quantile(0.50) - 50.5).abs() < 1e-9,
            "{}",
            h.quantile(0.50)
        );
        assert!(
            (h.quantile(0.95) - 95.05).abs() < 1e-9,
            "{}",
            h.quantile(0.95)
        );
        assert!(
            (h.quantile(0.99) - 99.01).abs() < 1e-9,
            "{}",
            h.quantile(0.99)
        );
        assert!(
            (h.quantile(1.0) - 100.0).abs() < 1e-9,
            "{}",
            h.quantile(1.0)
        );
        // Out-of-range q clamps; empty and degenerate histograms are total.
        assert!((h.quantile(7.0) - 100.0).abs() < 1e-9);
        assert!((Histogram::default().quantile(0.5) - 0.0).abs() < 1e-9);
        let mut zeros = Histogram::default();
        for _ in 0..10 {
            zeros.observe(0);
        }
        assert!((zeros.quantile(0.99) - 0.0).abs() < 1e-9);
        let mut single = Histogram::default();
        single.observe(1000);
        assert!((single.quantile(0.5) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn observing_many_at_once_matches_observing_one_by_one() {
        let mut one_by_one = Histogram::default();
        let mut at_once = Histogram::default();
        for v in [3, 0, 0, 0, 9] {
            one_by_one.observe(v);
        }
        at_once.observe(3);
        at_once.observe_times(0, 3);
        at_once.observe_times(9, 1);
        at_once.observe_times(5, 0);
        assert_eq!(at_once, one_by_one);
    }

    #[test]
    fn quantiles_survive_the_unbounded_top_bucket() {
        // u64::MAX lands in the last bucket, whose upper bound would
        // overflow `1 << 64`; the estimator must clamp to the observed
        // max rather than wrap or report infinity.
        let mut h = Histogram::default();
        for _ in 0..5 {
            h.observe(u64::MAX);
        }
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let est = h.quantile(q);
            assert!(est.is_finite(), "q={q}: {est}");
            assert!((est - u64::MAX as f64).abs() < 1.0, "q={q}: {est}");
        }
        // Mixed with a small value, estimates stay within [min, max].
        h.observe(1);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let est = h.quantile(q);
            assert!((1.0..=u64::MAX as f64).contains(&est), "q={q}: {est}");
        }
    }

    mod properties {
        use super::Histogram;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Quantile estimates never decrease in `q` and never leave
            /// the observed `[min, max]` envelope, for any sample set.
            #[test]
            fn quantiles_are_monotone_and_bounded(
                values in proptest::collection::vec(any::<u64>(), 1..=64),
            ) {
                let mut h = Histogram::default();
                for &v in &values {
                    h.observe(v);
                }
                let p50 = h.quantile(0.50);
                let p95 = h.quantile(0.95);
                let p99 = h.quantile(0.99);
                prop_assert!(p50 <= p95, "p50 {p50} > p95 {p95} for {values:?}");
                prop_assert!(p95 <= p99, "p95 {p95} > p99 {p99} for {values:?}");
                let lo = *values.iter().min().expect("nonempty") as f64;
                let hi = *values.iter().max().expect("nonempty") as f64;
                prop_assert!(h.quantile(0.0) >= lo, "p0 {} < min {lo}", h.quantile(0.0));
                prop_assert!(p99 <= hi, "p99 {p99} > max {hi}");
                prop_assert!(h.quantile(1.0) <= hi, "p100 {} > max {hi}", h.quantile(1.0));
            }
        }
    }

    #[test]
    fn json_snapshot_carries_quantiles() {
        let mut reg = MetricsRegistry::new();
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            reg.observe(MetricId::plain("message_bits"), v);
            h.observe(v);
        }
        let json = reg.to_json();
        let expected = format!(
            "\"mean\": 50.500, \"p50\": 50.500, \"p95\": 95.050, \"p99\": 99.010, \
             \"p999\": {:.3}",
            h.quantile(0.999)
        );
        assert!(json.contains(&expected), "{json}");
        // The tail quantile sits between p99 and the max.
        assert!(h.quantile(0.999) >= h.quantile(0.99));
        assert!(h.quantile(0.999) <= h.max as f64);
    }

    #[test]
    fn from_parts_round_trips_an_observed_histogram() {
        let mut h = Histogram::default();
        let mut raw = vec![0u64; 65];
        for v in [0u64, 1, 3, 8, 1000, u64::MAX] {
            h.observe(v);
            raw[Histogram::bucket_index(v)] += 1;
        }
        let rebuilt = Histogram::from_parts(h.count, h.sum, h.min, h.max, raw);
        assert_eq!(rebuilt, h);
        let empty = Histogram::from_parts(0, 0, 0, 0, vec![0u64; 65]);
        assert_eq!(empty, Histogram::default());
    }

    #[test]
    fn histogram_merge_equals_direct_observation() {
        let mut left = Histogram::default();
        let mut right = Histogram::default();
        let mut both = Histogram::default();
        for v in [0u64, 1, 7, 100, 5000] {
            left.observe(v);
            both.observe(v);
        }
        for v in [3u64, 3, 900, u64::MAX] {
            right.observe(v);
            both.observe(v);
        }
        let mut merged = left.clone();
        merged.merge(&right);
        assert_eq!(merged, both);
        // Merging an empty histogram is a no-op; merging into empty copies.
        merged.merge(&Histogram::default());
        assert_eq!(merged, both);
        let mut fresh = Histogram::default();
        fresh.merge(&both);
        assert_eq!(fresh, both);
    }

    #[test]
    fn registry_merge_combines_shards() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.add_counter(MetricId::plain("jobs_total"), 3);
        b.add_counter(MetricId::plain("jobs_total"), 4);
        b.add_counter(MetricId::with_labels("jobs_total", &[("worker", "1")]), 1);
        a.set_gauge(MetricId::plain("queue_depth"), 5);
        b.set_gauge(MetricId::plain("queue_depth"), 2);
        a.observe(MetricId::plain("latency_us"), 10);
        b.observe(MetricId::plain("latency_us"), 1000);
        a.merge(&b);
        assert_eq!(a.counter(&MetricId::plain("jobs_total")), 7);
        assert_eq!(
            a.counter(&MetricId::with_labels("jobs_total", &[("worker", "1")])),
            1
        );
        assert_eq!(a.gauge(&MetricId::plain("queue_depth")), Some(2));
        let h = a.histogram(&MetricId::plain("latency_us")).expect("merged");
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 1010, 10, 1000));
    }

    #[test]
    fn prometheus_exposition_format() {
        let mut reg = MetricsRegistry::new();
        reg.add_counter(MetricId::plain("jobs_completed_total"), 4);
        reg.add_counter(
            MetricId::with_labels("jobs_completed_total", &[("algorithm", "sync_and")]),
            2,
        );
        reg.set_gauge(MetricId::plain("queue_depth"), 3);
        let mut h = MetricsRegistry::new();
        for v in [1u64, 2, 2, 900] {
            h.observe(
                MetricId::with_labels("latency_us", &[("phase", "execute")]),
                v,
            );
        }
        reg.merge(&h);
        let text = reg.to_prometheus();
        let expected = "# TYPE jobs_completed_total counter\n\
                        jobs_completed_total 4\n\
                        jobs_completed_total{algorithm=\"sync_and\"} 2\n\
                        # TYPE queue_depth gauge\n\
                        queue_depth 3\n\
                        # TYPE latency_us histogram\n\
                        latency_us_bucket{phase=\"execute\",le=\"2\"} 1\n\
                        latency_us_bucket{phase=\"execute\",le=\"4\"} 3\n\
                        latency_us_bucket{phase=\"execute\",le=\"1024\"} 4\n\
                        latency_us_bucket{phase=\"execute\",le=\"+Inf\"} 4\n\
                        latency_us_sum{phase=\"execute\"} 905\n\
                        latency_us_count{phase=\"execute\"} 4\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let mut reg = MetricsRegistry::new();
        reg.inc_counter(MetricId::with_labels(
            "errors_total",
            &[("detail", "a\"b\\c\nd")],
        ));
        let text = reg.to_prometheus();
        assert!(
            text.contains("errors_total{detail=\"a\\\"b\\\\c\\nd\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn json_snapshot_is_deterministic_and_well_formed() {
        let mut reg = MetricsRegistry::new();
        reg.add_counter(MetricId::plain("bits_total"), 7);
        reg.add_counter(MetricId::with_labels("messages_total", &[("proc", "0")]), 2);
        reg.set_gauge(MetricId::plain("halt_time_max"), 5);
        reg.observe(MetricId::plain("message_bits"), 3);
        let a = reg.to_json();
        let b = reg.clone().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"name\": \"bits_total\", \"value\": 7"));
        assert!(a.contains("\"labels\": {\"proc\": \"0\"}"));
        assert!(a.contains("\"histograms\""));
    }
}
