//! Net runs feed the unchanged telemetry pipeline: flight recordings of
//! real-transport executions parse (including the causal-order check the
//! parser runs on untruncated v2 streams), rebuild into causal DAGs, and
//! carry the `"net"` engine stamp end to end.

use anonring_core::algorithms::driver::Audited;
use anonring_net::{run_threads, NetOptions};
use anonring_sim::telemetry::{CausalDag, FlightRecorder, PathWeight, Recording, Telemetry};

#[test]
fn net_recordings_parse_and_rebuild_into_causal_dags() {
    for algorithm in Audited::ALL {
        let n = 5;
        let inputs: Vec<u8> = (0..n).map(|i| ((i * 2654435761) >> 7 & 1) as u8).collect();
        let topology = algorithm.topology(n, &inputs).expect("valid");
        let report = run_threads(
            &topology,
            algorithm.procs(n, &inputs).expect("valid"),
            &NetOptions {
                jitter_seed: 11,
                ..NetOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("{algorithm}: {e}"));

        let mut recorder =
            FlightRecorder::new(n, format!("net {algorithm} n={n}")).with_engine("net");
        report.replay(&mut recorder);
        let jsonl = recorder.to_jsonl();

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
    let report = run_threads(
        &topology,
        algorithm.procs(n, &inputs).expect("valid"),
        &NetOptions::default(),
    )
    .expect("runs");
    let mut telemetry = Telemetry::new(n);
    report.replay(&mut telemetry);
    assert_eq!(telemetry.messages(), (n * (n - 1)) as u64);
    assert_eq!(telemetry.messages(), report.messages);
    assert_eq!(telemetry.bits(), report.bits);
    assert_eq!(telemetry.deliveries(), report.deliveries);
}
