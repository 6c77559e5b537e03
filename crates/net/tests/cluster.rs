//! The cluster conformance gate (S27): every audited algorithm, split
//! across a loopback cluster of `ringd`-style shard drivers, must merge
//! into one canonical recording and agree with the asynchronous
//! simulator on outputs, total messages and total bits — and broken
//! clusters (absent shards, mismatched manifests) must fail with
//! structured verdicts instead of hanging.

use std::net::TcpListener;
use std::thread;
use std::time::{Duration, Instant};

use anonring_core::algorithms::driver::Audited;
use anonring_net::cluster::run_shard;
use anonring_net::{
    certify_cluster, ClusterError, ClusterManifest, ConformanceError, ShardSpec, MANIFEST_VERSION,
};
use anonring_sim::telemetry::{merge, MergeError};
use proptest::prelude::*;

/// Reserves `count` distinct loopback ports by binding and dropping
/// listeners. The tiny window between drop and the shard's own bind is
/// the standard test-harness race; SO_REUSEADDR-free rebinding on Linux
/// makes it reliable in practice.
fn free_addrs(count: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..count)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect()
}

/// Splits `0..n` into `shards` contiguous blocks, as even as possible.
fn manifest_for(algorithm: Audited, n: usize, shards: usize, seed: u64) -> ClusterManifest {
    let addrs = free_addrs(shards);
    let base = n / shards;
    let extra = n % shards;
    let mut start = 0usize;
    let specs = (0..shards)
        .map(|k| {
            let count = base + usize::from(k < extra);
            let spec = ShardSpec {
                id: k as u64,
                addr: addrs[k].clone(),
                start,
                count,
            };
            start += count;
            spec
        })
        .collect();
    ClusterManifest {
        version: MANIFEST_VERSION,
        label: "itest".to_string(),
        algorithm: algorithm.name().to_string(),
        n,
        inputs: algorithm.default_inputs(n),
        seed,
        capacity: 4,
        max_delay_us: 0,
        timeout_ms: 30_000,
        shards: specs,
    }
}

/// Runs every shard of `manifest` in its own thread (one thread per
/// `ringd` process in the real deployment) and returns the reports in
/// shard order.
fn run_cluster(manifest: &ClusterManifest) -> Vec<anonring_net::ShardReport> {
    thread::scope(|scope| {
        let handles: Vec<_> = (0..manifest.shards.len() as u64)
            .map(|k| scope.spawn(move || run_shard(manifest, k)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread").expect("shard run"))
            .collect()
    })
}

/// The tentpole gate: a 3-shard loopback cluster of every audited
/// algorithm merges into one causally-valid recording whose outputs,
/// message total and bit total equal the async simulator's.
#[test]
fn three_shard_cluster_certifies_every_audited_algorithm() {
    for algorithm in Audited::ALL {
        let manifest = manifest_for(algorithm, 6, 3, 11);
        let reports = run_cluster(&manifest);
        let certified = certify_cluster(&manifest, &reports)
            .unwrap_or_else(|e| panic!("{algorithm} n=6 shards=3: {e}"));
        assert_eq!(certified.outputs.len(), 6, "{algorithm}");
        assert!(
            certified.merged.shard.is_none(),
            "merged recording is canonical (no shard meta)"
        );
        // Every shard produced a sharded recording of the full ring.
        for (k, report) in reports.iter().enumerate() {
            assert_eq!(report.shard, k as u64);
            assert_eq!(report.recording.shard, Some((k as u64, 3)));
            assert_eq!(report.recording.n, 6);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The single-process conformance proptest, in cluster mode: all six
    /// audited algorithms on a 3-shard loopback cluster, under a random
    /// jitter seed and a random (small) link capacity — at capacity 1 a
    /// full receiver inbox parks the reader pump of a cross-shard link —
    /// merge and certify against the simulator.
    #[test]
    fn every_audited_algorithm_conforms_on_a_cluster(
        seed in any::<u64>(),
        capacity in 1usize..5,
    ) {
        for algorithm in Audited::ALL {
            let mut manifest = manifest_for(algorithm, 6, 3, seed);
            manifest.capacity = capacity;
            let reports = run_cluster(&manifest);
            certify_cluster(&manifest, &reports).unwrap_or_else(|e| {
                panic!("{algorithm} n=6 shards=3 seed={seed} capacity={capacity}: {e}")
            });
        }
    }
}

/// Uneven shard maps (1+2+3 processors) are just another contiguous
/// tiling; the merge and the certification do not care.
#[test]
fn uneven_shards_certify() {
    let algorithm = Audited::AsyncInputDist;
    let addrs = free_addrs(3);
    let manifest = ClusterManifest {
        version: MANIFEST_VERSION,
        label: "uneven".to_string(),
        algorithm: algorithm.name().to_string(),
        n: 6,
        inputs: algorithm.default_inputs(6),
        seed: 5,
        capacity: 2,
        max_delay_us: 0,
        timeout_ms: 30_000,
        shards: vec![
            ShardSpec {
                id: 0,
                addr: addrs[0].clone(),
                start: 0,
                count: 1,
            },
            ShardSpec {
                id: 1,
                addr: addrs[1].clone(),
                start: 1,
                count: 2,
            },
            ShardSpec {
                id: 2,
                addr: addrs[2].clone(),
                start: 3,
                count: 3,
            },
        ],
    };
    let reports = run_cluster(&manifest);
    certify_cluster(&manifest, &reports).expect("uneven cluster certifies");
}

/// A real 3-shard run with one shard's report tampered after the fact —
/// one message or one bit more, one output changed, or text moved from
/// one processor's output to its neighbour's across a `", "` so that the
/// rendered list reads the same — is refused, and the verdict names the
/// quantity that disagrees.
#[test]
fn tampered_cluster_run_is_refused_naming_the_quantity() {
    let manifest = manifest_for(Audited::AsyncInputDist, 6, 3, 3);
    let reports = run_cluster(&manifest);
    certify_cluster(&manifest, &reports).expect("the untampered run certifies");
    for (what, tamper) in [
        ("messages", "count"),
        ("bits", "count"),
        ("outputs", "edit"),
        ("outputs", "shift"),
    ] {
        let mut tampered = reports.clone();
        let report = &mut tampered[1];
        match (what, tamper) {
            ("messages", _) => report.messages += 1,
            ("bits", _) => report.bits += 1,
            (_, "edit") => report.outputs[0].push('?'),
            _ => {
                let next = report.outputs[1].clone();
                let cut = next.find(", ").expect("a view renders with separators");
                report.outputs[0] = format!("{}, {}", report.outputs[0], &next[..cut]);
                report.outputs[1] = next[cut + 2..].to_string();
            }
        }
        let err =
            certify_cluster(&manifest, &tampered).expect_err("a tampered report must not certify");
        match &err {
            ClusterError::Conformance(ConformanceError::Mismatch { what: named, .. }) => {
                assert_eq!(*named, what, "{err}");
            }
            other => panic!("{tamper}: expected a conformance mismatch, got {other:?}"),
        }
        assert!(
            err.to_string().contains(&format!("mismatch on {what}")),
            "{err}"
        );
    }
}

/// Dropping one shard's recording from the merge yields the
/// missing-shard verdict naming exactly the absent shard.
#[test]
fn merge_without_one_shard_names_it() {
    let manifest = manifest_for(Audited::SyncAnd, 6, 3, 7);
    let reports = run_cluster(&manifest);
    let partial = [reports[0].recording.clone(), reports[2].recording.clone()];
    let err = merge::merge(&partial).expect_err("shard 1 is missing");
    assert_eq!(
        err,
        MergeError::MissingShard {
            shard: 1,
            shards: 3
        },
        "the verdict names the absent shard"
    );
    assert!(err.to_string().contains("shard 1"), "{err}");
}

/// Two processes reading different manifests refuse each other at the
/// handshake — a structured digest-mismatch error naming both digests on
/// the accepting side, a rejection carrying that line on the dialing
/// side — and both return well before any run deadline.
#[test]
fn manifest_digest_mismatch_is_rejected_without_hang() {
    let algorithm = Audited::SyncAnd;
    let mut ours = manifest_for(algorithm, 4, 2, 1);
    ours.timeout_ms = 8_000;
    // The peer read a manifest that differs in one field: different
    // canonical bytes, different digest, same wiring.
    let mut theirs = ours.clone();
    theirs.seed = 2;
    assert_ne!(ours.digest(), theirs.digest());

    let started = Instant::now();
    let (ours_err, theirs_err) = thread::scope(|scope| {
        let a = scope.spawn(|| run_shard(&ours, 0).expect_err("digests differ"));
        let b = scope.spawn(|| run_shard(&theirs, 1).expect_err("digests differ"));
        (a.join().expect("shard 0"), b.join().expect("shard 1"))
    });
    assert!(
        started.elapsed() < Duration::from_secs(6),
        "the mismatch must fail fast, not ride the deadline"
    );
    // Whichever rejection lands first carries the structured mismatch —
    // as the acceptor's own `ManifestDigestMismatch` or as the dialer's
    // `Rejected` wrapping the acceptor's rendered line — and it names
    // both digests. The slower side may only see the fast side's
    // teardown (a reset), which is fine: the requirement is a structured
    // verdict somewhere and no hang anywhere.
    let renders = [ours_err.to_string(), theirs_err.to_string()];
    let mismatch = renders
        .iter()
        .find(|r| r.contains("manifest digest mismatch"))
        .unwrap_or_else(|| panic!("no digest verdict in {renders:?}"));
    assert!(
        mismatch.contains(&format!("{:#018x}", ours.digest()))
            && mismatch.contains(&format!("{:#018x}", theirs.digest())),
        "both digests are named: {mismatch}"
    );
}

/// Asking a shard driver for a shard the manifest does not define is a
/// structured error, not a panic.
#[test]
fn unknown_shard_is_named() {
    let manifest = manifest_for(Audited::StartSync, 4, 2, 3);
    let err = run_shard(&manifest, 9).expect_err("shard 9 does not exist");
    assert_eq!(err, ClusterError::UnknownShard { shard: 9 });
}

/// A shard that never starts ends the others' runs in a named error at
/// the manifest deadline, not a hang: the acceptor's "deadline before all
/// links arrived (…)" or the dialer's connect error naming the link.
#[test]
fn missing_shard_ends_in_a_named_error() {
    let mut manifest = manifest_for(Audited::SyncAnd, 6, 3, 4);
    manifest.timeout_ms = 500;
    let manifest = &manifest;
    let started = Instant::now();
    let errors: Vec<ClusterError> = thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|k| scope.spawn(move || run_shard(manifest, k)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("shard thread")
                    .expect_err("shard 2 never ran")
            })
            .collect()
    });
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "a missing shard must end at the deadline, took {:?}",
        started.elapsed()
    );
    for err in &errors {
        let rendered = err.to_string();
        assert!(
            rendered.contains("deadline before all links arrived (")
                || rendered.contains("connect shard 2"),
            "the error names the missing links: {rendered}"
        );
    }
}

/// When every dial succeeds but the inbound links never come, the
/// blocked acceptor is woken at the deadline and names what is missing.
/// The peer here is a stand-in that accepts shard 0's handshakes and
/// never dials back.
#[test]
fn acceptor_deadline_names_the_missing_links() {
    use std::io::{BufRead, BufReader, Write};

    let mut manifest = manifest_for(Audited::SyncAnd, 4, 2, 6);
    manifest.timeout_ms = 500;
    let peer = TcpListener::bind(&manifest.shards[1].addr).expect("bind the stand-in peer");
    let started = Instant::now();
    let err = thread::scope(|scope| {
        let shard0 = scope.spawn(|| run_shard(&manifest, 0));
        // Shard 0 owns processors 0 and 1; each has one link into shard 1.
        let held: Vec<_> = (0..2)
            .map(|_| {
                let (mut stream, _) = peer.accept().expect("shard 0 dials");
                let mut line = String::new();
                BufReader::new(&mut stream)
                    .read_line(&mut line)
                    .expect("handshake line");
                stream.write_all(b"{\"ok\":true}\n").expect("accept reply");
                stream
            })
            .collect();
        let err = shard0
            .join()
            .expect("shard 0 thread")
            .expect_err("shard 1 never dials back");
        drop(held);
        err
    });
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "the deadline must wake the acceptor, took {:?}",
        started.elapsed()
    );
    assert_eq!(
        err.to_string(),
        "cluster I/O error: deadline before all links arrived (0/2 data, 0/1 ctrl)"
    );
}

/// A cluster run's set-up and termination wait on events, not on sleeps
/// or tick-rounded socket timeouts: 30 back-to-back 3-shard runs of a
/// small job finish well within a second.
#[test]
fn back_to_back_cluster_runs_are_fast() {
    let started = Instant::now();
    for seed in 0..30 {
        let manifest = manifest_for(Audited::SyncAnd, 6, 3, seed);
        let reports = run_cluster(&manifest);
        certify_cluster(&manifest, &reports).expect("cluster certifies");
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "30 cluster runs took {took:?}"
    );
}
