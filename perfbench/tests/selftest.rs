//! Self-tests of the benchmark: its metric names are the ones
//! `BENCHMARK.json` declares, every workload passes its correctness gate
//! at a tiny scale, and the gates are not vacuous.

use std::path::{Path, PathBuf};

use anonring_bench::json::Value;
use perfbench::sim_grid::{self, check_cell, run_cell};
use perfbench::{run_workload, RunConfig, Scale, END_TO_END, PER_LAYER, WORKLOADS};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Value, key: &str) -> Vec<(String, Option<String>)> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit").and_then(Value::as_str).map(str::to_string),
            )
        })
        .collect()
}

fn catalog(list: &[(&str, &str)]) -> Vec<(String, Option<String>)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), Some(u.to_string())))
        .collect()
}

fn tiny(seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        seed,
        seconds: 0.3,
        trace,
        root: root(),
        scale: Scale::Tiny,
    }
}

/// The metric names of a result line, sorted, after checking that the
/// line has exactly the four keys of the result object and that every
/// metric carries a value and a unit.
fn result_metrics(line: &str) -> Vec<String> {
    let Ok(Value::Object(top)) = Value::parse(line) else {
        panic!("result line is not a JSON object: {line}");
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let Some(Value::Object(metrics)) = top.get("metrics") else {
        panic!("metrics is not an object: {line}");
    };
    for (name, metric) in metrics {
        assert!(
            metric.get("value").and_then(Value::as_f64).is_some(),
            "{name}"
        );
        assert!(
            metric.get("unit").and_then(Value::as_str).is_some(),
            "{name}"
        );
    }
    metrics.keys().cloned().collect()
}

#[test]
fn metric_and_workload_names_match_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(names(&doc, "end_to_end"), catalog(&END_TO_END));
    assert_eq!(names(&doc, "per_layer"), catalog(&PER_LAYER));
    let workloads: Vec<String> = names(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn every_workload_passes_its_gate_at_tiny_scale() {
    for (i, workload) in WORKLOADS.iter().enumerate() {
        for trace in [false, true] {
            let out = run_workload(workload, &tiny(11 + i as u64, trace))
                .unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(
                out.correct(),
                "{workload} trace={trace}: {:?}",
                out.violations
            );
            assert!(out.attempted > 0, "{workload}: attempted nothing");
            assert_eq!(out.failed, 0, "{workload}: {:?}", out.failures);
            let line = out.result_line(trace).expect("every metric measured");
            let printed = result_metrics(&line);
            let mut want: Vec<String> = (if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            })
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
            want.sort();
            assert_eq!(printed, want, "{workload} trace={trace}");
            if !trace {
                for (name, _) in END_TO_END {
                    assert!(out.values[name] > 0.0, "{workload}: {name} reads 0");
                }
            }
        }
    }
}

#[test]
fn a_wrong_committed_count_fails_the_sim_gate() {
    let trajectory = sim_grid::load_trajectory(&root()).expect("trajectory");
    let grid = sim_grid::grid(Scale::Tiny);
    let cells = sim_grid::cells(&trajectory, &grid, 3).expect("cells");
    for cell in &cells {
        let measured = run_cell(cell).expect("cell runs");
        check_cell(cell, &measured).expect("the committed counts hold");
        for field in 0..4 {
            let mut wrong = cell.clone();
            match field {
                0 => wrong.expected.messages += 1,
                1 => wrong.expected.bits += 1,
                2 => wrong.expected.time += 1,
                _ => wrong.expected.critical_path += 1,
            }
            assert!(
                check_cell(&wrong, &measured).is_err(),
                "{} n={}: a wrong expected count passed the gate",
                cell.family,
                cell.n
            );
        }
    }
}

#[test]
fn unknown_workloads_are_errors() {
    assert!(run_workload("nope", &tiny(1, false)).is_err());
}
