//! Parked processor threads, reused across net runs.
//!
//! A net run gives each processor its own OS thread for the whole run (and
//! the TCP transport one more per link for its reader pump). Spawning and
//! joining those threads used to cost as much as running a small job, so
//! the single-process launchers take them from this pool instead: a thread
//! that finishes its task parks, and the next task is handed to a parked
//! thread rather than to a fresh one.
//!
//! Three rules keep the pool invisible to the runs it serves:
//!
//! - **A task never queues behind a busy thread.** The workers of one run
//!   block on each other, so a task waiting for a thread of its own run
//!   would deadlock it. If no thread is parked, [`Batch::spawn`] spawns
//!   one; the pool grows to the peak number of concurrent tasks.
//! - **A panic ends its task, not its thread.** The task's result slot
//!   stays empty, which [`Batch::join`] reports as `None`; the thread
//!   parks again and serves the next run.
//! - **Idle threads exit.** A thread parked for [`IDLE_EXIT`] without a
//!   task leaves the pool, so a burst of large runs does not pin its peak
//!   thread count forever.
//!
//! A task owns everything it touches (`'static`, no borrowed run state),
//! and it drops all of it before its thread reports it finished: once
//! [`Batch::join`] returns, the caller holds the only handles left to
//! whatever it shared with the tasks. Completion is reported on the
//! pooled thread's own long-lived slot rather than on a per-run object,
//! so the run's shared state (results, hub, inboxes) is always freed by
//! the run's caller: a chunk freed on a long-lived thread stays in that
//! thread's allocator cache.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// How long a parked thread waits for a task before it exits.
const IDLE_EXIT: Duration = Duration::from_secs(1);

/// OS threads the pool has spawned since the process started (a statistic
/// for the tests; it publishes no other data).
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Parked threads, most recently parked last: handing out the last one
/// keeps the busy set small and lets the surplus reach [`IDLE_EXIT`].
static PARKED: Mutex<Vec<Arc<Slot>>> = Mutex::new(Vec::new());

/// One unit of work.
type Task = Box<dyn FnOnce() + Send>;

/// One pooled thread's mailbox and completion record.
struct Slot {
    state: Mutex<SlotState>,
    /// Signalled when a task is handed to the thread.
    handed: Condvar,
    /// Signalled when the thread finishes a task.
    finished: Condvar,
}

struct SlotState {
    task: Option<Task>,
    /// Tasks handed to this thread so far: the k-th task's ticket is k.
    handed: u64,
    /// Tasks this thread has finished; a ticket is done once this reaches it.
    finished: u64,
}

impl Slot {
    fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().expect("slot lock poisoned")
    }

    /// Hands `task` to the thread; returns the task's ticket.
    fn hand(&self, task: Task) -> u64 {
        let mut state = self.lock();
        state.task = Some(task);
        state.handed += 1;
        self.handed.notify_one();
        state.handed
    }

    /// Waits until the task with `ticket` has finished.
    fn wait(&self, ticket: u64) {
        let mut state = self.lock();
        while state.finished < ticket {
            state = self.finished.wait(state).expect("slot lock poisoned");
        }
    }

    /// Waits for the next task; `None` once the thread has idled for
    /// [`IDLE_EXIT`] and has left the parked list.
    fn next(self: &Arc<Slot>) -> Option<Task> {
        let mut state = self.lock();
        loop {
            if let Some(task) = state.task.take() {
                return Some(task);
            }
            let (guard, wait) = self
                .handed
                .wait_timeout(state, IDLE_EXIT)
                .expect("slot lock poisoned");
            state = guard;
            if wait.timed_out() && state.task.is_none() {
                drop(state);
                let mut parked = PARKED.lock().expect("pool lock poisoned");
                if let Some(at) = parked.iter().position(|slot| Arc::ptr_eq(slot, self)) {
                    parked.remove(at);
                    return None;
                }
                // A dispatcher already took this slot off the list (or
                // the thread was just spawned); its task is on the way.
                drop(parked);
                state = self.lock();
            }
        }
    }
}

/// Hands `task` to a parked thread, or spawns one for it; returns the
/// thread's slot and the task's ticket.
fn dispatch(task: Task) -> (Arc<Slot>, u64) {
    let parked = PARKED.lock().expect("pool lock poisoned").pop();
    let slot = parked.unwrap_or_else(|| {
        SPAWNED.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(Slot {
            state: Mutex::new(SlotState {
                task: None,
                handed: 0,
                finished: 0,
            }),
            handed: Condvar::new(),
            finished: Condvar::new(),
        });
        let serving = Arc::clone(&slot);
        std::thread::Builder::new()
            .name("anonring-net".to_string())
            .spawn(move || serve(&serving))
            .expect("spawn a processor thread");
        slot
    });
    let ticket = slot.hand(task);
    (slot, ticket)
}

/// A pooled thread's life: run a task, park, repeat until idle too long.
fn serve(slot: &Arc<Slot>) {
    while let Some(task) = slot.next() {
        // The panic message has already gone to stderr; the task's missing
        // result is the verdict.
        let _ = catch_unwind(AssertUnwindSafe(task));
        // Park before reporting, so a caller that starts its next run as
        // soon as this one joins finds this thread ready.
        PARKED
            .lock()
            .expect("pool lock poisoned")
            .push(Arc::clone(slot));
        slot.lock().finished += 1;
        slot.finished.notify_all();
    }
}

/// The tasks of one run, each on a pooled thread, and their results.
pub(crate) struct Batch<R> {
    results: Arc<Mutex<Vec<Option<R>>>>,
    tickets: Vec<(Arc<Slot>, u64)>,
}

impl<R: Send + 'static> Batch<R> {
    /// An empty batch.
    pub(crate) fn new() -> Batch<R> {
        Batch {
            results: Arc::new(Mutex::new(Vec::new())),
            tickets: Vec::new(),
        }
    }

    /// Starts `f` on a parked thread, or on a new one if none is parked.
    pub(crate) fn spawn(&mut self, f: impl FnOnce() -> R + Send + 'static) {
        let index = self.tickets.len();
        self.results
            .lock()
            .expect("result lock poisoned")
            .push(None);
        let results = Arc::clone(&self.results);
        // Calling `f` consumes it, so its captures are gone before the
        // result is stored and the thread reports the task finished.
        self.tickets.push(dispatch(Box::new(move || {
            let result = f();
            results.lock().expect("result lock poisoned")[index] = Some(result);
        })));
    }

    /// Waits for every task; one result per [`Batch::spawn`], in spawn
    /// order, `None` where the task panicked.
    pub(crate) fn join(self) -> Vec<Option<R>> {
        for (slot, ticket) in &self.tickets {
            slot.wait(*ticket);
        }
        std::mem::take(&mut *self.results.lock().expect("result lock poisoned"))
    }
}

/// Threads spawned so far.
#[cfg(test)]
pub(crate) fn spawned() -> usize {
    SPAWNED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::{spawned, Batch};
    use crate::{certify, run_threads, NetError, NetOptions};
    use anonring_core::algorithms::driver::Audited;
    use anonring_sim::r#async::{Actions, AsyncProcess, Emit};
    use anonring_sim::{Port, RingTopology};
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    /// Halts at once, unless armed: then its worker panics on start.
    struct Fuse(bool);

    impl AsyncProcess for Fuse {
        type Msg = u8;
        type Output = u8;
        fn on_start(&mut self) -> Actions<u8, u8> {
            assert!(!self.0, "armed fuse");
            Actions::halt(0)
        }
        fn on_message(&mut self, _from: Port, _msg: u8) -> Actions<u8, u8> {
            Actions::idle()
        }
    }

    // Every test here holds the profiler session: it keeps the hub and
    // inbox probe tests' tallies clean, and it keeps other tests from
    // spawning pool threads while one counts them.

    #[test]
    fn back_to_back_runs_reuse_parked_threads() {
        let _serial = anonring_sim::profile::session();
        let algorithm = Audited::SyncAnd;
        let inputs = [1, 0, 1];
        let topology = algorithm.topology(3, &inputs).expect("valid");
        let before = spawned();
        for _ in 0..200 {
            let report = run_threads(
                &topology,
                algorithm.procs(3, &inputs).expect("valid"),
                &NetOptions::default(),
            )
            .expect("runs");
            assert_eq!(report.outputs().len(), 3);
        }
        let grown = spawned() - before;
        assert!(
            grown <= 6,
            "200 runs of 3 processors spawned {grown} threads"
        );
    }

    #[test]
    fn concurrent_callers_all_certify() {
        let _serial = anonring_sim::profile::session();
        let algorithm = Audited::AsyncInputDist;
        let start = Barrier::new(4);
        std::thread::scope(|scope| {
            let callers: Vec<_> = (0..4u8)
                .map(|c| {
                    let start = &start;
                    scope.spawn(move || {
                        let inputs: Vec<u8> = (0..8).map(|i| i * 3 + c).collect();
                        let topology = algorithm.topology(8, &inputs).expect("valid");
                        start.wait();
                        certify(
                            &topology,
                            || algorithm.procs(8, &inputs).expect("valid"),
                            &NetOptions::default(),
                        )
                        .map(|certified| certified.net.messages)
                    })
                })
                .collect();
            for caller in callers {
                let messages = caller.join().expect("caller").expect("certifies");
                assert_eq!(messages, 8 * 7, "n(n-1) messages");
            }
        });
    }

    #[test]
    fn a_task_never_waits_for_a_busy_thread() {
        let _serial = anonring_sim::profile::session();
        // 32 tasks that each wait for all the others finish only if the
        // pool runs all of them at once.
        let all = Arc::new(Barrier::new(32));
        let mut batch = Batch::new();
        for k in 0..32 {
            let all = Arc::clone(&all);
            batch.spawn(move || {
                all.wait();
                k
            });
        }
        let results = batch.join();
        assert_eq!(results, (0..32).map(Some).collect::<Vec<_>>());
    }

    #[test]
    fn a_worker_panic_is_a_verdict_and_the_pool_stays_usable() {
        let _serial = anonring_sim::profile::session();
        let topology = RingTopology::oriented(3).expect("n >= 2");
        let err = run_threads(
            &topology,
            vec![Fuse(false), Fuse(true), Fuse(false)],
            &NetOptions {
                timeout: Duration::from_millis(200),
                ..NetOptions::default()
            },
        )
        .expect_err("processor 1 panics");
        assert_eq!(err, NetError::WorkerPanic { processor: 1 });

        let before = spawned();
        let report = run_threads(
            &topology,
            vec![Fuse(false), Fuse(false), Fuse(false)],
            &NetOptions::default(),
        )
        .expect("the next run succeeds");
        assert_eq!(report.outputs(), &[0, 0, 0]);
        assert_eq!(spawned(), before, "the panicked thread parked again");
    }
}
