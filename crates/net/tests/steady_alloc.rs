//! A bound on the deployment's steady-state allocations.
//!
//! A counting global allocator measures two whole monitored runs of a
//! chaotic 16×16 deployment over multi-cell shards, one of R rounds and one
//! of 2R. Set-up, warm-up and teardown are the same in both, so the
//! difference is what R steady rounds allocate, and it must stay under one
//! allocation per cell-round. The test binary holds this one test, so no
//! other test's threads allocate while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use cellflow_core::{standard_monitors, Params, SystemConfig};
use cellflow_grid::{CellId, GridDims};
use cellflow_net::{ChaosConfig, NetSystem};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and reallocation.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc` correctly; the counter touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, as the caller
        // guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` was allocated by `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: u16 = 16;
const R: u64 = 100;

/// Allocations made by one fresh monitored run of `rounds` rounds.
fn allocations_over(rounds: u64) -> u64 {
    let config = SystemConfig::new(
        GridDims::square(N),
        CellId::new(1, N - 1),
        Params::from_milli(250, 50, 200).unwrap(),
    )
    .unwrap()
    .with_source(CellId::new(1, 0));
    let before = ALLOCATIONS.load(Relaxed);
    let monitors = standard_monitors(&config);
    let report = NetSystem::new(config)
        .unwrap()
        .with_chaos(ChaosConfig {
            dup_rate: 0.1,
            reorder_rate: 0.1,
            ..ChaosConfig::quiet(5)
        })
        .with_worker_cap(4)
        .run_monitored(rounds, monitors)
        .unwrap();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.chaos.duplicated > 0, "chaos was on");
    ALLOCATIONS.load(Relaxed) - before
}

#[test]
fn steady_rounds_allocate_less_than_once_per_cell() {
    let short = allocations_over(R);
    let long = allocations_over(2 * R);
    let cell_rounds = u64::from(N) * u64::from(N) * R;
    let steady = long.saturating_sub(short);
    assert!(
        steady < cell_rounds,
        "{steady} allocations over {R} steady rounds of {} cells ({:.2} per cell-round; \
         {short} for {R} rounds, {long} for {})",
        u64::from(N) * u64::from(N),
        steady as f64 / cell_rounds as f64,
        2 * R
    );
}
