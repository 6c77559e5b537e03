//! Per-phase message budgets for Fig. 2 (synchronous input
//! distribution), measured through the telemetry span profile.
//!
//! The paper's `n(3·log₁.₅ n + 1) + n` total decomposes per elimination
//! round: the label exchange costs at most `2n + 2` messages (each label
//! travels to the nearest active neighbour on each side, our rounds
//! lasting `n + 1` cycles — DESIGN.md), the collection sweep at most
//! `n + 1`, and the final broadcast is exactly `n`. Rounds number at most
//! `log₁.₅ n + 2` because each elimination retires at least a third of
//! the candidates. The telemetry spans let us check the *decomposition*,
//! not just the total.

use std::collections::BTreeMap;

use anonring_core::algorithms::sync_input_dist::SyncInputDist;
use anonring_sim::sync::SyncEngine;
use anonring_sim::telemetry::Recording;
use anonring_sim::RingConfig;

fn workloads(n: usize) -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("all equal", vec![1u8; n]),
        ("periodic 01", (0..n).map(|i| (i % 2) as u8).collect()),
        ("single one", (0..n).map(|i| u8::from(i == 0)).collect()),
        (
            "mixed",
            (0..n).map(|i| ((i * 2654435761) >> 7 & 1) as u8).collect(),
        ),
    ]
}

#[test]
fn fig2_phase_budgets_hold() {
    for n in [8usize, 16, 32] {
        for (label, inputs) in workloads(n) {
            let config = RingConfig::oriented(inputs);
            let mut recording = Recording::new(n, label);
            let mut engine =
                SyncEngine::from_config(&config, |_, &input| SyncInputDist::new(n, input));
            let report = engine.run_with_observer(&mut recording).unwrap();

            // Every send is annotated (none falls under the empty phase
            // name): the spans partition the meter total.
            let profile = recording.phase_profile();
            let spanned: u64 = profile.iter().map(|(_, (messages, _))| messages).sum();
            assert_eq!(spanned, report.messages, "n={n} {label}");

            // Per-(phase, round) budgets.
            let mut rounds: BTreeMap<u64, ()> = BTreeMap::new();
            let nn = n as u64;
            for ((phase, round), (messages, _)) in profile {
                match phase.as_str() {
                    "labels" => {
                        rounds.insert(round, ());
                        assert!(
                            messages <= 2 * nn + 2,
                            "n={n} {label}: labels round {round} cost {messages} > 2n+2"
                        );
                    }
                    "collect" => {
                        assert!(
                            messages <= nn + 1,
                            "n={n} {label}: collect round {round} cost {messages} > n+1"
                        );
                    }
                    "broadcast" => {
                        assert_eq!(
                            messages, nn,
                            "n={n} {label}: broadcast must be exactly n messages"
                        );
                    }
                    other => panic!("unexpected phase {other:?}"),
                }
            }

            // Round count: each elimination retires ≥ 1/3 of candidates.
            let max_rounds = (nn as f64).log(1.5).ceil() as u64 + 2;
            assert!(
                rounds.len() as u64 <= max_rounds,
                "n={n} {label}: {} rounds > {max_rounds}",
                rounds.len()
            );
        }
    }
}
