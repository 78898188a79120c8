//! Steady-state stepping allocates nothing: once the pipeline has warmed
//! up (the instruction window's slots, the scheduler's buckets and the
//! per-branch statistics have reached their working sizes), a cycle of
//! fetch, dispatch, issue, completion, commit and misprediction recovery
//! runs without touching the heap.
//!
//! A counting global allocator tallies allocations made by the test's own
//! thread only, so the harness's other threads cannot disturb the count.

use cfd_core::{Core, CoreConfig, KernelEvent, YieldPolicy};
use cfd_workloads::{catalog, Scale, Variant};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the thread-local counter is
// const-initialised and has no destructor, so updating it never allocates
// or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's guarantees for `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` was allocated by this allocator (that is, by
        // `System`) with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const LIMIT: u64 = 50_000_000;
const HEARTBEAT: u64 = 1_000;
/// Heartbeats before counting starts (warm-up).
const WARMUP_BEATS: u64 = 20;

/// Steps `name`'s `variant` heartbeat by heartbeat and returns the
/// allocations made in each interval after warm-up, plus the run's
/// mispredictions and speculative BQ pops.
fn per_beat_allocations(name: &str, variant: Variant) -> (Vec<u64>, u64, u64) {
    let entry = catalog().into_iter().find(|e| e.name == name).expect("kernel in the catalog");
    let w = entry.build(variant, Scale { n: 1_000, seed: 1 });
    let policy = YieldPolicy { heartbeat_interval: HEARTBEAT, ..YieldPolicy::silent() };
    let mut core = Core::new(CoreConfig::default(), w.program, w.mem).expect("valid config").with_yield_policy(policy);
    let mut beats = 0u64;
    let mut mark = allocations();
    let mut counts = Vec::with_capacity(1_024);
    loop {
        match core.next_event(LIMIT).expect("simulation completes") {
            KernelEvent::Heartbeat { .. } => {
                let now = allocations();
                beats += 1;
                if beats > WARMUP_BEATS && counts.len() < counts.capacity() {
                    counts.push(now - mark);
                }
                mark = allocations();
            }
            KernelEvent::Halted { .. } => break,
            other => panic!("unexpected event {other:?}"),
        }
    }
    let stats = core.finish().stats;
    (counts, stats.mispredictions, stats.bq_misses)
}

fn assert_allocation_free(name: &str, variant: Variant) -> (u64, u64) {
    let (counts, mispredictions, bq_misses) = per_beat_allocations(name, variant);
    assert!(counts.len() >= 10, "{name} [{variant}]: only {} heartbeats after warm-up", counts.len());
    assert!(
        counts.iter().all(|&n| n == 0),
        "{name} [{variant}]: allocations per {HEARTBEAT}-cycle interval after warm-up: {counts:?}"
    );
    (mispredictions, bq_misses)
}

#[test]
fn mispredicting_base_kernel_steps_without_allocating() {
    let (mispredictions, _) = assert_allocation_free("astar_tq_like", Variant::Base);
    assert!(mispredictions > 1_000, "the base kernel must exercise recovery ({mispredictions} mispredictions)");
}

#[test]
fn cfd_kernel_with_speculative_pops_steps_without_allocating() {
    let (_, bq_misses) = assert_allocation_free("tiff2bw_like", Variant::Cfd);
    assert!(bq_misses > 50, "the CFD kernel must speculate on BQ misses ({bq_misses} misses)");
}
