//! A silent sync cycle allocates nothing.
//!
//! The paper's §4.2 and §8 make long silent stretches the point, so the
//! sync engine must not pay memory for a cycle in which nobody sends. A
//! ring of processes that idle forever (`next_active` returns `None`)
//! never halts; run it to a budget of 10⁴ and of 10⁶ cycles under a
//! counting global allocator (this binary's own, hence a test file of its
//! own) and the two runs must request the same number of bytes on this
//! thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use anonring_sim::sync::{Emit, Received, Step, SyncEngine, SyncProcess};
use anonring_sim::{RingTopology, SimError};

struct Counting;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    BYTES.with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local without a destructor, so
// touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Never sends, never halts, and asks for no further step.
#[derive(Debug)]
struct Idle;

impl SyncProcess for Idle {
    type Msg = ();
    type Output = ();

    fn step(&mut self, _cycle: u64, _rx: Received<()>) -> Step<(), ()> {
        Step::idle()
    }

    fn next_active(&self, _local_cycle: u64) -> Option<u64> {
        None
    }
}

const N: usize = 4;

/// Bytes the engine requests while running the idle ring to
/// `max_cycles`, and the run's result.
fn deadlocked_run(max_cycles: u64) -> (usize, Result<u64, SimError>) {
    let topology = RingTopology::oriented(N).expect("ring of 4");
    let mut engine = SyncEngine::new(topology, (0..N).map(|_| Idle).collect()).expect("n procs");
    engine.set_max_cycles(max_cycles);
    let before = BYTES.with(Cell::get);
    let result = engine.run().map(|report| report.cycles);
    let after = BYTES.with(Cell::get);
    (after - before, result)
}

#[test]
fn silent_cycles_allocate_nothing() {
    let (short_bytes, short) = deadlocked_run(10_000);
    let (long_bytes, long) = deadlocked_run(1_000_000);
    for (result, max_cycles) in [(short, 10_000), (long, 1_000_000)] {
        assert_eq!(
            result,
            Err(SimError::MaxCyclesExceeded {
                max_cycles,
                running: N
            })
        );
    }
    assert_eq!(
        short_bytes, long_bytes,
        "10^4 cycles: {short_bytes} bytes, 10^6 cycles: {long_bytes} bytes"
    );
}
