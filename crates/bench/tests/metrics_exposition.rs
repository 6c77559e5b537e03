//! Round-trip coverage for the two metrics wire formats (ISSUE 9,
//! satellite 3): the Prometheus text exposition and the JSON snapshot
//! must expose the same series, `# TYPE` lines must appear once per
//! metric name regardless of label-set fan-out, and label values must
//! survive escaping.

use std::collections::HashSet;

use anonring_bench::ringd::ServingMetrics;
use anonring_sim::json::Value;
use anonring_sim::telemetry::{MetricId, MetricsRegistry};

/// A registry with every metric kind and multi-label-set names, merged
/// with the S26 profiler snapshot so the stable scrape surface is part
/// of the round-trip.
fn sample_registry() -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    reg.add_counter(
        MetricId::with_labels("jobs_total", &[("algorithm", "leader")]),
        3,
    );
    reg.add_counter(
        MetricId::with_labels("jobs_total", &[("algorithm", "xor")]),
        4,
    );
    reg.set_gauge(MetricId::plain("queue_depth"), 7);
    for v in [1, 2, 300, 70_000] {
        reg.observe(
            MetricId::with_labels("latency_us", &[("phase", "probe")]),
            v,
        );
    }
    reg.observe(MetricId::with_labels("latency_us", &[("phase", "echo")]), 9);
    reg.merge(&anonring_sim::profile::snapshot());
    reg
}

/// Metric names announced by `# TYPE` lines in the text exposition.
fn type_lines(text: &str) -> Vec<(String, String)> {
    text.lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|rest| {
            let mut it = rest.split_whitespace();
            (
                it.next().expect("name").to_string(),
                it.next().expect("kind").to_string(),
            )
        })
        .collect()
}

/// Metric names in one section (`counters`/`gauges`/`histograms`) of
/// the JSON snapshot.
fn json_names(snapshot: &Value, section: &str) -> Vec<String> {
    snapshot
        .get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{section} array"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("metric name")
                .to_string()
        })
        .collect()
}

#[test]
fn type_lines_appear_once_per_name_across_label_sets() {
    let text = sample_registry().to_prometheus();
    let types = type_lines(&text);
    // `jobs_total` and `latency_us` each carry two label sets but must
    // be announced exactly once.
    for (name, kind) in [
        ("jobs_total", "counter"),
        ("queue_depth", "gauge"),
        ("latency_us", "histogram"),
        ("hub_lock_wait_us", "histogram"),
        ("queue_dwell_us", "histogram"),
    ] {
        let hits: Vec<_> = types.iter().filter(|(n, _)| n == name).collect();
        assert_eq!(
            hits.len(),
            1,
            "{name} announced {} times:\n{text}",
            hits.len()
        );
        assert_eq!(hits[0].1, kind, "{name} kind:\n{text}");
    }
    // Both label sets sample under the single announcement.
    assert!(
        text.contains("jobs_total{algorithm=\"leader\"} 3"),
        "{text}"
    );
    assert!(text.contains("jobs_total{algorithm=\"xor\"} 4"), "{text}");
}

#[test]
fn label_values_are_escaped_in_the_text_exposition() {
    let mut reg = MetricsRegistry::new();
    reg.inc_counter(MetricId::with_labels(
        "odd_labels_total",
        &[
            ("path", "a\\b"),
            ("quote", "say \"hi\""),
            ("nl", "two\nlines"),
        ],
    ));
    let text = reg.to_prometheus();
    assert!(
        text.contains(
            "odd_labels_total{path=\"a\\\\b\",quote=\"say \\\"hi\\\"\",nl=\"two\\nlines\"} 1"
        ),
        "{text}"
    );
    // The escaped newline keeps the exposition one sample per line.
    assert_eq!(
        text.lines()
            .filter(|l| l.starts_with("odd_labels_total"))
            .count(),
        1,
        "{text}"
    );
}

#[test]
fn json_and_text_expositions_cover_the_same_series() {
    let reg = sample_registry();
    let text = reg.to_prometheus();
    let snapshot = Value::parse(&reg.to_json()).expect("registry JSON parses");

    // Every JSON series name is announced in the text format with the
    // matching kind, and vice versa.
    let types = type_lines(&text);
    for (section, kind) in [
        ("counters", "counter"),
        ("gauges", "gauge"),
        ("histograms", "histogram"),
    ] {
        let names = json_names(&snapshot, section);
        assert!(!names.is_empty(), "{section} empty");
        for name in &names {
            assert!(
                types.iter().any(|(n, k)| n == name && k == kind),
                "JSON {section} series {name:?} missing from text exposition:\n{text}"
            );
        }
        for (name, k) in types.iter().filter(|(_, k)| k == kind) {
            let _ = k;
            assert!(
                names.iter().any(|n| n == name),
                "text series {name:?} missing from JSON {section}"
            );
        }
    }

    // Histogram sample lines agree with the JSON counts: cumulative
    // `_bucket` lines are monotone and the `+Inf` bucket equals `_count`.
    let histograms = snapshot
        .get("histograms")
        .and_then(Value::as_array)
        .expect("histograms array");
    let latency = histograms
        .iter()
        .find(|h| {
            h.get("name").and_then(Value::as_str) == Some("latency_us")
                && h.get("labels")
                    .and_then(|l| l.get("phase"))
                    .and_then(Value::as_str)
                    == Some("probe")
        })
        .expect("latency_us{phase=probe} in JSON");
    let count = latency.get("count").and_then(Value::as_u64).expect("count");
    assert_eq!(count, 4);
    let mut last = 0u64;
    let mut inf = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("latency_us_bucket{phase=\"probe\",le=\"") {
            let (le, sample) = rest.split_once("\"} ").expect("bucket sample");
            let cumulative: u64 = sample.parse().expect("bucket count");
            assert!(cumulative >= last, "non-monotone buckets:\n{text}");
            last = cumulative;
            if le == "+Inf" {
                inf = Some(cumulative);
            }
        }
    }
    assert_eq!(inf, Some(count), "+Inf bucket must equal _count:\n{text}");
    assert!(
        text.contains(&format!("latency_us_count{{phase=\"probe\"}} {count}")),
        "{text}"
    );
}

/// Cluster-stamped registries (S27): the shard-identity gauges appear
/// and every series carries the `shard` label, so the expositions of two
/// shards of one cluster never collide on a Prometheus series.
#[test]
fn cluster_scrapes_are_shard_labelled_and_collision_free() {
    let shard0 = ServingMetrics::new(2).with_cluster(0, 3);
    let shard2 = ServingMetrics::new(2).with_cluster(2, 3);

    let snap0 = shard0.snapshot();
    assert_eq!(
        snap0.gauge(&MetricId::with_labels("ringd_shard_id", &[("shard", "0")])),
        Some(0),
        "shard-id gauge, shard-labelled like everything else"
    );
    assert_eq!(
        snap0.gauge(&MetricId::with_labels(
            "ringd_cluster_size",
            &[("shard", "0")]
        )),
        Some(3)
    );
    for (id, _) in snap0.counters() {
        assert!(
            id.labels.iter().any(|(k, v)| *k == "shard" && v == "0"),
            "unlabelled counter {id} in a cluster scrape"
        );
    }

    // Sample lines (name + label set) from the two shards are disjoint:
    // a single Prometheus can scrape both with no series collisions.
    let series = |reg: &MetricsRegistry| -> HashSet<String> {
        reg.to_prometheus()
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .filter_map(|l| {
                let cut = l.rfind(' ')?;
                Some(l[..cut].to_string())
            })
            .collect()
    };
    let (a, b) = (series(&snap0), series(&shard2.snapshot()));
    assert!(!a.is_empty() && !b.is_empty());
    let collisions: Vec<_> = a.intersection(&b).collect();
    assert!(collisions.is_empty(), "colliding series: {collisions:?}");

    // Un-clustered registries are unchanged: no shard gauges, no labels.
    let plain = ServingMetrics::new(2).snapshot();
    assert_eq!(plain.gauge(&MetricId::plain("ringd_shard_id")), None);
    assert!(plain
        .gauges()
        .all(|(id, _)| id.labels.iter().all(|(k, _)| *k != "shard")));
}
