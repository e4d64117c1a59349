//! The engine allocates per invocation, never per iteration: its read sets,
//! write sets, payloads and scheduler state live in buffers sized once or
//! grown geometrically. A counting global allocator compares a short and a
//! long invocation of the same conflict-free loop.
//!
//! This is the only test in its file, so no other test allocates while it
//! counts.

use janus_spec::{run_speculative, IterationRun, SpecView};
use janus_vm::{FlatMemory, GuestMemory};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting every call that hands out memory.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Iteration `i` reads its own base word and writes this one, which no
/// iteration reads: every iteration records a version, none ever aborts.
const SHARED: u64 = 0x1000;
const PRIVATE: u64 = 0x10_0000;

/// Allocations made by one speculative invocation of `iterations`
/// iterations.
fn allocations(iterations: usize) -> usize {
    let mut base = FlatMemory::new();
    base.write_u64(SHARED, 0);
    for i in 0..iterations as u64 {
        base.write_u64(PRIVATE + i * 8, i + 1);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = run_speculative(
        4,
        &mut base,
        iterations,
        |i, view: &mut SpecView<'_, FlatMemory>| -> Result<_, ()> {
            let value = view.read_u64(PRIVATE + i as u64 * 8);
            view.write_u64(SHARED, value);
            Ok(IterationRun {
                cycles: 10,
                payload: (),
            })
        },
    )
    .expect("a conflict-free loop speculates");
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(out.stats.aborts, 0);
    assert_eq!(out.stats.executions, iterations as u64);
    assert_eq!(base.read_u64(SHARED), iterations as u64);
    made
}

#[test]
fn a_longer_invocation_makes_no_allocation_per_iteration() {
    let short = allocations(64);
    let long = allocations(4096);
    assert!(
        long <= short + 64,
        "{short} allocations for 64 iterations, {long} for 4096"
    );
}
