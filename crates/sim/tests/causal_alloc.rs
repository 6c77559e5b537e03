//! The causal step allocates a fixed number of blocks, whatever the
//! number of sends.
//!
//! Every audited cell runs `CausalDag::from_events(..).critical_path(Hops)`
//! after its engine, so an allocation per send there is paid on every
//! cell. A counting global allocator (this binary's own, hence a test
//! file of its own) tallies the allocations the step makes on this
//! thread at 1k and at 64k annotated sends; the two tallies must match.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use anonring_sim::port::PortId;
use anonring_sim::runtime::{SendEvent, Span, TraceEvent};
use anonring_sim::telemetry::{CausalDag, PathWeight};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local without a destructor, so
// touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PHASES: [&str; 3] = ["labels", "collect", "broadcast"];

/// `sends` annotated sends with dense seqs, each followed by its
/// delivery; each send's parent is one of the five sends before it.
fn stream(sends: u64) -> Vec<TraceEvent> {
    let mut events = Vec::with_capacity(2 * sends as usize);
    for seq in 0..sends {
        let back = 1 + seq * 7 % 5;
        events.push(TraceEvent::Send(SendEvent {
            cycle: seq,
            from: (seq % 16) as usize,
            to: ((seq + 1) % 16) as usize,
            port: PortId::LEFT,
            bits: 1 + (seq % 9) as usize,
            seq,
            lamport: seq,
            parent: seq.checked_sub(back),
            span: Some(Span::new(PHASES[(seq % 3) as usize], seq % 4)),
        }));
        events.push(TraceEvent::Deliver {
            time: seq + 1,
            to: ((seq + 1) % 16) as usize,
            port: PortId::LEFT,
            seq,
            dropped: false,
        });
    }
    events
}

/// Allocations made by the causal step over `events`, the result's
/// included.
fn causal_step_allocations(events: &[TraceEvent]) -> (usize, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let path = CausalDag::from_events(events).critical_path(PathWeight::Hops);
    let after = ALLOCATIONS.with(Cell::get);
    let hops = path.map_or(0, |p| p.hops);
    (after - before, hops)
}

#[test]
fn causal_step_allocations_do_not_grow_with_sends() {
    let small = stream(1 << 10);
    let large = stream(1 << 16);
    let (small_allocs, small_hops) = causal_step_allocations(&small);
    let (large_allocs, large_hops) = causal_step_allocations(&large);
    assert!(
        large_hops > 16 * small_hops,
        "{small_hops} vs {large_hops} hops"
    );
    assert_eq!(
        small_allocs, large_allocs,
        "1k sends: {small_allocs} allocations, 64k sends: {large_allocs}"
    );
    // The node and parent tables, the DP column, the chain, the phase
    // map's one leaf, the per-phase vector and one name per phase.
    assert!(small_allocs <= 10, "{small_allocs} allocations");
}
