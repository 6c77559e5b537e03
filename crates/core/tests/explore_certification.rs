//! Exhaustive-interleaving certification of the §4 algorithms at small
//! `n` (ISSUE 3 acceptance): `sim::explore` enumerates delivery schedules
//! and certifies that outputs and metered message counts are schedule
//! independent.
//!
//! The pinned execution counts are regression anchors for the explorer
//! itself: a change in the sleep-set reduction or the engine's candidate
//! enumeration shows up here as a count shift long before it corrupts a
//! certification.

use anonring_core::algorithms::async_input_dist::{self, AsyncInputDist};
use anonring_core::algorithms::sync_and::SyncAnd;
use anonring_core::view::ground_truth_view;
use anonring_sim::explore::Explorer;
use anonring_sim::r#async::AsyncEngine;
use anonring_sim::synchronizer::Synchronized;
use anonring_sim::RingConfig;

fn dist_engine(inputs: &[u8]) -> AsyncEngine<AsyncInputDist<u8>> {
    async_input_dist::engine(&RingConfig::oriented(inputs.to_vec()))
}

fn and_engine(inputs: &[u8]) -> AsyncEngine<Synchronized<SyncAnd>> {
    let config = RingConfig::oriented(inputs.to_vec());
    let n = config.n();
    AsyncEngine::from_config(&config, |_, &input| {
        Synchronized::new(SyncAnd::new(n, input))
    })
}

#[test]
fn async_input_dist_certifies_at_n3_and_n4() {
    // With every processor forwarding a two-stream merge, the reduced
    // class count is exactly the per-receiver interleavings of the two
    // inbound FIFO streams: 2^3 at n = 3, 3^4 at n = 4.
    for (inputs, classes) in [(&[3u8, 7, 9][..], 8), (&[1u8, 2, 3, 4][..], 81)] {
        let n = inputs.len();
        let cert = Explorer::new()
            .explore(|| dist_engine(inputs))
            .expect("input distribution is schedule independent");
        let config = RingConfig::oriented(inputs.to_vec());
        let want: Vec<_> = (0..n).map(|i| ground_truth_view(&config, i)).collect();
        assert_eq!(cert.fingerprint.outputs, want, "n={n}");
        assert_eq!(cert.fingerprint.messages, (n * (n - 1)) as u64, "n={n}");
        assert_eq!(cert.executions, classes, "n={n}");
    }
}

#[test]
fn async_input_dist_full_enumeration_count_at_n3() {
    // Unreduced: 6 messages across 6 distinct directed links, so every
    // delivery permutation is legal — 6! = 720 interleavings, all with
    // the same fingerprint.
    let inputs = [3u8, 7, 9];
    let full = Explorer::new()
        .reduction(false)
        .explore(|| dist_engine(&inputs))
        .expect("certifies");
    assert_eq!(full.executions, 720);

    let reduced = Explorer::new()
        .explore(|| dist_engine(&inputs))
        .expect("certifies");
    assert_eq!(reduced.fingerprint, full.fingerprint);
    assert!(reduced.executions <= full.executions);
}

#[test]
fn sync_and_under_the_synchronizer_certifies_at_n3_and_n4() {
    // SyncAnd runs on the async ring through the §3 synchronizer, so the
    // certificate covers the envelope traffic too. The all-ones ring is
    // the slow case (no zero to flood): full ⌊n/2⌋ cycles of envelopes.
    // At n = 4 all-ones explodes to ~83k classes, so the n = 4 row uses
    // an early-halting input containing a zero.
    for (inputs, classes, messages) in [
        (&[1u8, 0, 1][..], 48, 10),
        (&[1u8, 1, 1][..], 196, 12),
        (&[1u8, 0, 1, 1][..], 288, 16),
    ] {
        let n = inputs.len();
        let cert = Explorer::new()
            .explore(|| and_engine(inputs))
            .expect("synchronized AND is schedule independent");
        let want = inputs.iter().fold(1, |a, b| a & b);
        assert!(
            cert.fingerprint.outputs.iter().all(|&o| o == want),
            "n={n}: outputs {:?}",
            cert.fingerprint.outputs
        );
        assert_eq!(cert.fingerprint.messages, messages, "n={n}");
        assert_eq!(cert.executions, classes, "n={n} inputs={inputs:?}");
    }
}
