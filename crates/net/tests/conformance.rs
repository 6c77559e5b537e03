//! The conformance gate: every audited algorithm, on real threads (and
//! TCP loopback), must agree with the asynchronous simulator on outputs,
//! total messages and total bits — at every tested ring size and under
//! randomized delivery jitter.

use std::time::Duration;

use anonring_core::algorithms::driver::Audited;
use anonring_net::{certify, compare, run, NetError, NetOptions, Transport};
use anonring_sim::r#async::{AsyncEngine, SynchronizingScheduler};
use proptest::prelude::*;

/// The ensemble sizes the conformance suite certifies.
const SIZES: [usize; 4] = [3, 4, 8, 16];

/// Every link realisation; the fault verdicts must not depend on it.
const TRANSPORTS: [Transport; 2] = [Transport::Threads, Transport::TcpLoopback];

/// Deterministic mixed inputs: the audit harness's bit pattern for the
/// bit-input algorithms, a byte spread for the §4.1 distribution.
fn inputs_for(algorithm: Audited, n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| {
            let mixed = (i * 2654435761) >> 7;
            if algorithm.wants_bit_inputs() {
                (mixed & 1) as u8
            } else {
                (mixed & 0xff) as u8
            }
        })
        .collect()
}

fn certify_job(algorithm: Audited, n: usize, options: &NetOptions) {
    let inputs = inputs_for(algorithm, n);
    let topology = algorithm
        .topology(n, &inputs)
        .expect("audit-shaped jobs are valid");
    certify(
        &topology,
        || algorithm.procs(n, &inputs).expect("valid job"),
        options,
    )
    .unwrap_or_else(|e| {
        panic!(
            "{algorithm} n={n} seed={} capacity={}: {e}",
            options.jitter_seed, options.capacity
        )
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// All six audited algorithms, at every tested size, under a random
    /// jitter seed and a random (small) link capacity: the net run's
    /// outputs, message total and bit total equal the simulator's.
    #[test]
    fn every_audited_algorithm_conforms_under_jitter(
        seed in any::<u64>(),
        capacity in 1usize..5,
    ) {
        for algorithm in Audited::ALL {
            for n in SIZES {
                certify_job(
                    algorithm,
                    n,
                    &NetOptions {
                        jitter_seed: seed,
                        capacity,
                        ..NetOptions::default()
                    },
                );
            }
        }
    }

    /// Micro-delays on deliveries reorder real time without touching the
    /// metered quantities.
    #[test]
    fn delivery_delays_do_not_change_metered_costs(seed in any::<u64>()) {
        for algorithm in Audited::ALL {
            certify_job(
                algorithm,
                4,
                &NetOptions {
                    jitter_seed: seed,
                    max_delay_us: 50,
                    ..NetOptions::default()
                },
            );
        }
    }
}

/// Capacity 1 is the tightest legal backpressure: every send blocks until
/// the previous one on that link is drained. The §4.1 distribution floods
/// `n(n−1)` messages through it; conformance must still hold.
#[test]
fn capacity_one_backpressure_conforms() {
    for algorithm in Audited::ALL {
        certify_job(
            algorithm,
            8,
            &NetOptions {
                capacity: 1,
                jitter_seed: 9,
                ..NetOptions::default()
            },
        );
    }
}

/// The TCP loopback transport certifies on every audited algorithm: the
/// wire codecs and reader threads are cost-invisible.
#[test]
fn tcp_loopback_transport_conforms() {
    for algorithm in Audited::ALL {
        certify_job(
            algorithm,
            4,
            &NetOptions {
                transport: Transport::TcpLoopback,
                jitter_seed: 3,
                ..NetOptions::default()
            },
        );
    }
}

/// Larger rings over real sockets, one algorithm per size to keep the
/// suite quick.
#[test]
fn tcp_loopback_scales_to_the_larger_sizes() {
    certify_job(
        Audited::AsyncInputDist,
        8,
        &NetOptions {
            transport: Transport::TcpLoopback,
            ..NetOptions::default()
        },
    );
    certify_job(
        Audited::SyncAnd,
        16,
        &NetOptions {
            transport: Transport::TcpLoopback,
            ..NetOptions::default()
        },
    );
}

/// `compare` rejects runs whose schedule-independent quantities differ:
/// pit two *different* jobs against each other.
#[test]
fn compare_flags_genuine_disagreement() {
    let algorithm = Audited::SyncAnd;
    let ones = [1u8, 1, 1];
    let mixed = [1u8, 0, 1];
    let topology = algorithm.topology(3, &ones).expect("valid");
    let net = run(
        &topology,
        algorithm.procs(3, &ones).expect("valid"),
        &NetOptions::default(),
    )
    .expect("net run");
    let mut engine = AsyncEngine::new(topology.clone(), algorithm.procs(3, &mixed).expect("valid"))
        .expect("sizes match");
    let sim = engine.run(&mut SynchronizingScheduler).expect("sim run");
    let verdict = compare(&net, &sim);
    assert!(verdict.is_err(), "AND of 1,1,1 differs from AND of 1,0,1");
}

/// A stuck ring (processors that never halt, links drained) reproduces
/// the simulator's quiescent-without-halt verdict instead of hanging, on
/// every transport.
#[test]
fn quiescence_without_halt_is_detected() {
    for transport in TRANSPORTS {
        quiescence_without_halt_is_detected_on(transport);
    }
}

fn quiescence_without_halt_is_detected_on(transport: Transport) {
    use anonring_sim::r#async::{Actions, AsyncProcess, Emit};
    use anonring_sim::{Port, RingTopology};

    /// Sends one token right, consumes everything, never halts.
    #[derive(Debug)]
    struct Mute;
    impl AsyncProcess for Mute {
        type Msg = u8;
        type Output = u8;
        fn on_start(&mut self) -> Actions<u8, u8> {
            Actions::send(Port::Right, 1)
        }
        fn on_message(&mut self, _from: Port, _msg: u8) -> Actions<u8, u8> {
            Actions::idle()
        }
    }

    let topology = RingTopology::oriented(3).expect("n >= 2");
    let err = run(
        &topology,
        vec![Mute, Mute, Mute],
        &NetOptions {
            timeout: Duration::from_secs(5),
            transport,
            ..NetOptions::default()
        },
    )
    .expect_err("no processor halts");
    assert_eq!(
        err,
        NetError::QuiescentWithoutHalt { running: 3 },
        "{transport}"
    );
}

/// A livelocked ring hits the wall-clock deadline and reports a timeout
/// with the configured budget, on every transport.
#[test]
fn livelock_hits_the_deadline() {
    for transport in TRANSPORTS {
        livelock_hits_the_deadline_on(transport);
    }
}

fn livelock_hits_the_deadline_on(transport: Transport) {
    use anonring_sim::r#async::{Actions, AsyncProcess, Emit};
    use anonring_sim::{Port, RingTopology};

    /// Forwards the token forever.
    #[derive(Debug)]
    struct Forever;
    impl AsyncProcess for Forever {
        type Msg = u8;
        type Output = u8;
        fn on_start(&mut self) -> Actions<u8, u8> {
            Actions::send(Port::Right, 1)
        }
        fn on_message(&mut self, _from: Port, msg: u8) -> Actions<u8, u8> {
            Actions::send(Port::Right, msg)
        }
    }

    let topology = RingTopology::oriented(2).expect("n >= 2");
    let err = run(
        &topology,
        vec![Forever, Forever],
        &NetOptions {
            timeout: Duration::from_millis(200),
            transport,
            ..NetOptions::default()
        },
    )
    .expect_err("the token never stops");
    assert!(
        matches!(
            err,
            NetError::Timeout {
                timeout_ms: 200,
                ..
            }
        ),
        "{transport}: {err:?}"
    );
}

/// A process vector of the wrong length is rejected up front, on every
/// transport.
#[test]
fn length_mismatch_is_rejected() {
    use anonring_sim::RingTopology;
    let topology = RingTopology::oriented(3).expect("n >= 2");
    for transport in TRANSPORTS {
        let procs = Audited::SyncAnd.procs(2, &[1, 1]).expect("valid");
        let options = NetOptions {
            transport,
            ..NetOptions::default()
        };
        let err = run(&topology, procs, &options).expect_err("2 procs, ring of 3");
        assert_eq!(
            err,
            NetError::LengthMismatch {
                expected: 3,
                actual: 2
            },
            "{transport}"
        );
    }
}
