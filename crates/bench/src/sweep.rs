//! Deterministic parallel sweep driver.
//!
//! Experiment grids (one cell per ring size × variant) are embarrassingly
//! parallel once each cell seeds its own RNG, so this module fans a list of
//! independent jobs over OS threads with `std::thread::scope` — no external
//! dependencies, no work queues to tune.
//!
//! **Determinism contract:** results are written to the slot matching each
//! job's index, so the output order — and therefore every rendered table and
//! JSON artifact — is byte-identical no matter how many worker threads run
//! or how the scheduler interleaves them. `sweep_determinism` in
//! `crates/bench/tests` pins this by comparing a 1-thread and an N-thread
//! run of the E1/E3 grids.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use anonring_sim::mix::{fnv1a, SplitMix64};

/// Number of worker threads a sweep uses by default: the machine's
/// available parallelism, but at least 2 so the parallel path is always
/// exercised (single-core CI included).
#[must_use]
pub fn default_threads() -> NonZeroUsize {
    let available = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    NonZeroUsize::new(available.max(2)).expect("max(2) is nonzero")
}

/// Run `job` over every element of `items` on `threads` worker threads and
/// return the results in input order.
///
/// Jobs must be independent: `job` gets `(index, &item)` and must derive any
/// randomness from that (e.g. via a per-cell seed), never from shared
/// mutable state. Panics in a job propagate after the scope joins.
pub fn sweep<T, R, F>(items: &[T], threads: NonZeroUsize, job: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.get().min(items.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = job(i, item);
                *slots[i].lock().expect("sweep slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sweep slot poisoned")
                .expect("every slot filled after scope join")
        })
        .collect()
}

/// Sugar for the common grid case: `sweep` with the default thread count.
pub fn sweep_default<T, R, F>(items: &[T], job: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    sweep(items, default_threads(), job)
}

/// A stable per-cell RNG seed: FNV-1a over the experiment tag mixed with
/// the cell index. Each grid cell seeds its own `StdRng` from this, which
/// is what makes cells schedulable in any order.
#[must_use]
pub fn cell_seed(experiment: &str, cell: u64) -> u64 {
    fnv1a(experiment.as_bytes()) ^ cell.wrapping_mul(SplitMix64::GAMMA)
}

#[cfg(test)]
mod tests {
    use super::{cell_seed, sweep, sweep_default};
    use std::num::NonZeroUsize;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let squares = sweep_default(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * x
        });
        assert_eq!(squares, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let items: Vec<u64> = (0..64).collect();
        let one = sweep(&items, NonZeroUsize::new(1).unwrap(), |_, &x| x.pow(3));
        let eight = sweep(&items, NonZeroUsize::new(8).unwrap(), |_, &x| x.pow(3));
        assert_eq!(one, eight);
    }

    #[test]
    fn empty_and_singleton_sweeps_work() {
        let none: Vec<u64> = sweep_default(&[], |_, &x: &u64| x);
        assert!(none.is_empty());
        assert_eq!(sweep_default(&[7u64], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn cell_seeds_are_distinct_across_cells_and_experiments() {
        assert_ne!(cell_seed("E1", 0), cell_seed("E1", 1));
        assert_ne!(cell_seed("E1", 0), cell_seed("E3", 0));
    }
}
