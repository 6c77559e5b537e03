//! Net runs feed the unchanged telemetry pipeline: recordings of
//! real-transport executions parse (including the causal-order check the
//! parser runs on untruncated v2 streams), rebuild into causal DAGs, and
//! carry the `"net"` engine stamp end to end.

use anonring_core::algorithms::driver::{mixed_bits, Audited};
use anonring_net::{run, NetOptions};
use anonring_sim::telemetry::{CausalDag, MetricId, PathWeight, Recording, ReplayEvent};

#[test]
fn net_recordings_parse_and_rebuild_into_causal_dags() {
    for algorithm in Audited::ALL {
        let n = 5;
        let inputs = mixed_bits(n);
        let topology = algorithm.topology(n, &inputs).expect("valid");
        let report = run(
            &topology,
            algorithm.procs(n, &inputs).expect("valid"),
            &NetOptions {
                jitter_seed: 11,
                ..NetOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("{algorithm}: {e}"));

        let mut replayed = Recording::new(n, format!("net {algorithm} n={n}")).with_engine("net");
        report.replay(&mut replayed);
        let jsonl = replayed.to_jsonl();

        // The parser's causal check runs on untruncated v2 recordings:
        // seqs in file order, parents before children, sends before
        // deliveries. A hub ordering bug would fail right here.
        let recording = Recording::parse_jsonl(&jsonl)
            .unwrap_or_else(|e| panic!("{algorithm}: recording rejected: {e}"));
        assert_eq!(recording.engine, "net");
        assert_eq!(recording.events.len(), report.events().len());

        let dag = CausalDag::from_recording(&recording);
        let path = dag
            .critical_path(PathWeight::Hops)
            .unwrap_or_else(|| panic!("{algorithm}: a run with sends has a critical path"));
        assert!(path.hops >= 1);
    }
}

#[test]
fn net_runs_feed_the_metrics_registry_like_sim_runs() {
    let algorithm = Audited::AsyncInputDist;
    let n = 4;
    let inputs = vec![7u8, 1, 9, 200];
    let topology = algorithm.topology(n, &inputs).expect("valid");
    let report = run(
        &topology,
        algorithm.procs(n, &inputs).expect("valid"),
        &NetOptions::default(),
    )
    .expect("runs");
    let mut recording = Recording::new(n, "registry");
    report.replay(&mut recording);
    assert_eq!(recording.messages(), (n * (n - 1)) as u64);
    assert_eq!(recording.messages(), report.messages);
    assert_eq!(recording.bits(), report.bits);
    let registry = recording.registry();
    assert_eq!(
        registry.counter(&MetricId::plain("messages_total")),
        report.messages
    );
    assert_eq!(
        registry.counter(&MetricId::plain("deliveries_total")),
        report.deliveries
    );
}

/// `NetReport::recording` is the one NetReport → Recording conversion
/// (`ringd --record-dir` and `run_shard`). Apart from the wall stamps,
/// it writes the same bytes as replaying the report into a fresh
/// `Recording` by hand, with and without shard meta; every send
/// and delivery carries a stamp, in the hub's nondecreasing order.
#[test]
fn report_recordings_match_a_hand_replayed_flight_recorder() {
    let algorithm = Audited::AsyncInputDist;
    let n = 5;
    let inputs = vec![3u8, 1, 4, 1, 5];
    let topology = algorithm.topology(n, &inputs).expect("valid");
    let report = run(
        &topology,
        algorithm.procs(n, &inputs).expect("valid"),
        &NetOptions::default(),
    )
    .expect("runs");
    for shard in [None, Some((1, 3))] {
        let mut by_hand = Recording::new(n, "label").with_engine("net");
        if let Some((shard, shards)) = shard {
            by_hand = by_hand.with_shard(shard, shards);
        }
        report.replay(&mut by_hand);
        let mut got = report.recording(n, "label", shard);
        let mut stamps = Vec::new();
        for event in &mut got.events {
            match event {
                ReplayEvent::Send { wall_us, .. } | ReplayEvent::Deliver { wall_us, .. } => {
                    stamps.push(wall_us.take().expect("every send and delivery is stamped"));
                }
                ReplayEvent::Halt { .. } => {}
            }
        }
        assert!(!stamps.is_empty());
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "{stamps:?}");
        assert_eq!(got, by_hand, "shard {shard:?}");
        assert_eq!(got.to_jsonl(), by_hand.to_jsonl(), "shard {shard:?}");
    }
}
