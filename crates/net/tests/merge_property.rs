//! Property coverage for the cross-shard merge (S27, ISSUE 10
//! satellite 3): splitting a real single-process recording of any
//! audited algorithm at *any* contiguous shard boundaries and merging
//! the shards back must reproduce the canonical recording byte for byte
//! — the merge result depends only on the computation, never on how it
//! was sharded (the per-shard `"shard"` meta field being the only thing
//! the split added). Incomplete shard sets must fail with a verdict
//! naming the absent shard.

use anonring_core::algorithms::driver::Audited;
use anonring_sim::r#async::{AsyncEngine, SynchronizingScheduler};
use anonring_sim::telemetry::{merge, MergeError, Recording};
use proptest::prelude::*;

/// The ring sizes the property sweeps (per the issue: 4, 8, 16).
const SIZES: [usize; 3] = [4, 8, 16];

/// One deterministic single-process recording: the algorithm run under
/// the async simulator into a `Recording`.
fn record(algorithm: Audited, n: usize) -> Recording {
    let inputs = algorithm.default_inputs(n);
    let topology = algorithm.topology(n, &inputs).expect("valid job");
    let mut engine = AsyncEngine::new(topology, algorithm.procs(n, &inputs).expect("valid job"))
        .expect("sizes match");
    let mut recording = Recording::new(n, format!("prop {algorithm} n={n}")).with_engine("sim");
    engine
        .run_with_observer(&mut SynchronizingScheduler, &mut recording)
        .expect("audited algorithms terminate");
    recording
}

/// Derives `shards` contiguous shard starts for a ring of `n` from a
/// random seed: distinct cut points drawn without replacement.
fn starts_from_seed(seed: u64, n: usize, shards: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = (1..n).collect();
    let mut state = seed | 1;
    // Partial Fisher–Yates: the first `shards - 1` entries become the cuts.
    for i in 0..shards - 1 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = i + (state >> 33) as usize % (cuts.len() - i);
        cuts.swap(i, j);
    }
    let mut starts: Vec<usize> = std::iter::once(0)
        .chain(cuts[..shards - 1].iter().copied())
        .collect();
    starts.sort_unstable();
    starts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For every audited algorithm, every tested ring size and random
    /// 2–4-way contiguous shardings: `merge(split(r))` is byte-identical
    /// to the canonical recording — independent of the sharding — and
    /// each split shard carries the shard meta the merge then strips.
    #[test]
    fn split_then_merge_is_sharding_independent(seed in any::<u64>(), shards in 2usize..=4) {
        for algorithm in Audited::ALL {
            for n in SIZES {
                let shards = shards.min(n);
                let recording = record(algorithm, n);
                let canonical = merge::canonicalize(&recording)
                    .expect("single-process recordings canonicalize");
                prop_assert!(canonical.shard.is_none());

                let starts = starts_from_seed(seed, n, shards);
                let pieces = merge::split(&recording, &starts)
                    .unwrap_or_else(|e| panic!("{algorithm} n={n} split at {starts:?}: {e}"));
                for (k, piece) in pieces.iter().enumerate() {
                    prop_assert_eq!(piece.shard, Some((k as u64, shards as u64)));
                    prop_assert_eq!(piece.n, n);
                }

                let merged = merge::merge(&pieces)
                    .unwrap_or_else(|e| panic!("{algorithm} n={n} merge of {starts:?}: {e}"));
                prop_assert_eq!(
                    merged.to_jsonl(),
                    canonical.to_jsonl(),
                    "sharding {:?} leaked into the merge of {} n={}",
                    starts,
                    algorithm,
                    n
                );
                // The merged bytes re-parse under the strict v2 causal
                // check (S21 invariants).
                Recording::parse_jsonl(&merged.to_jsonl())
                    .unwrap_or_else(|e| panic!("{algorithm} n={n}: merged bytes fail causal check: {e}"));
            }
        }
    }

    /// Withholding any one shard from the merge fails with the verdict
    /// naming exactly the absent shard.
    #[test]
    fn a_withheld_shard_is_named(seed in any::<u64>(), shards in 2usize..=4, victim in 0usize..4) {
        let algorithm = Audited::SyncInputDist;
        let n = 8;
        let recording = record(algorithm, n);
        let starts = starts_from_seed(seed, n, shards);
        let mut pieces = merge::split(&recording, &starts).expect("valid split");
        let victim = victim % pieces.len();
        pieces.remove(victim);
        let err = merge::merge(&pieces).expect_err("a shard is missing");
        prop_assert_eq!(
            err.clone(),
            MergeError::MissingShard {
                shard: victim as u64,
                shards: shards as u64,
            }
        );
        let needle = format!("shard {victim}");
        prop_assert!(err.to_string().contains(&needle));
    }
}
