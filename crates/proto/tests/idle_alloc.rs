//! An idle connection costs no heap traffic: once a transfer has finished
//! and the wires are empty, a tick — deliver due segments, poll both
//! endpoints, read nothing — performs zero allocations.
//!
//! A counting global allocator forwards to `System` and counts the
//! allocations of the current thread only, so tests running in parallel
//! on other threads do not disturb the count.

use mptcp_proto::{EndpointConfig, Harness, Wire, WireFault};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread. Const-initialised and free of
    /// destructors, so touching it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    // `try_with` fails only while the thread is being torn down; those
    // allocations are not this test's.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a thread-local `Cell`
// that never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by `System` (every allocation goes
        // through this forwarder) with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn idle_ticks_after_a_transfer_allocate_nothing() {
    let wires = vec![
        Wire::new(2_000, 1).with_fault(WireFault::Jitter(1_000)),
        Wire::new(5_000, 2).with_fault(WireFault::Loss(0.02)),
        Wire::new(9_000, 3),
    ];
    let mut h = Harness::new(EndpointConfig::default(), wires, 7);
    let data: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
    assert_eq!(h.transfer(&data, 200_000).as_deref(), Some(&data[..]));
    // Let the last ACKs land so the wires are empty.
    assert!(h.run_until(10_000, |h| h.wires.iter().all(Wire::idle)));

    let mut buf = [0u8; 4096];
    let before = allocs();
    for _ in 0..1_000 {
        h.step();
        assert_eq!(h.server.read(&mut buf), 0);
    }
    let made = allocs() - before;
    assert!(
        h.wires.iter().all(Wire::idle),
        "an idle tick sent something"
    );
    assert_eq!(made, 0, "1000 idle ticks made {made} allocations");
}
