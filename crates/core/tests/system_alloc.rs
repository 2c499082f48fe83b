//! `System::step` allocates nothing in steady state.
//!
//! The facade keeps no copy of the state and returns the engine's own
//! events, so once the engine's buffers have grown to their high-water
//! marks a round on Figure 9's fault-free 8×8 grid allocates nothing, and
//! neither does reading the round through `System::view`. A counting global
//! allocator checks it. The test binary holds this one test, so no other
//! test's threads allocate while it counts.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use cellflow_core::{Params, System, SystemConfig};
use cellflow_grid::{CellId, GridDims};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and reallocation.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `Heap`, which
// implements `GlobalAlloc` correctly; the counter touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { Heap.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { Heap.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `Heap` with `layout`, as the caller
        // guarantees.
        unsafe { Heap.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` was allocated by `Heap` with `layout`.
        unsafe { Heap.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn steady_state_system_steps_do_not_allocate() {
    let config = SystemConfig::new(
        GridDims::square(8),
        CellId::new(1, 7),
        Params::from_milli(250, 50, 200).unwrap(),
    )
    .unwrap()
    .with_source(CellId::new(1, 0));
    let mut sys = System::new(config);
    sys.run(2_000);
    let before = ALLOCATIONS.load(Relaxed);
    let mut seen = 0u64;
    for _ in 0..2_000 {
        seen += sys.step().moved.len() as u64;
        let view = sys.view();
        seen += (0..view.cell_count())
            .map(|k| view.members(k).count() as u64)
            .sum::<u64>();
    }
    let allocations = ALLOCATIONS.load(Relaxed) - before;
    assert!(seen > 0, "the grid carries traffic");
    assert_eq!(
        allocations, 0,
        "2,000 steady rounds through the System facade allocated"
    );
}
