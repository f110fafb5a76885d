//! `stream_alloc` — counting-allocator proof that the streaming
//! pipeline's memory is bounded by one shard, not the whole region.
//!
//! A `#[global_allocator]` wrapper tracks *live* heap bytes
//! (alloc − dealloc, realloc = delta) and their high-water mark. The
//! test runs the same region twice:
//!
//! 1. **materialized** — `materialized_pipeline`, which holds every
//!    subscription's events simultaneously;
//! 2. **streamed** — `run_shard` over an 8-shard plan, dropping each
//!    shard's result before generating the next.
//!
//! The streamed peak must come in well under the materialized peak:
//! raw telemetry never outlives one chunk and records never outlive
//! their shard. An absolute bound would be brittle across allocators
//! and struct layout changes; the 2× relative bound directly encodes
//! the claim "peak memory scales with the shard, not the region" while
//! leaving slack for allocator noise.
//!
//! This file holds exactly one `#[test]` so no sibling test can
//! allocate concurrently inside the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use telemetry::{
    materialized_pipeline, run_shard, FleetConfig, RecoveryPolicy, RegionConfig, ShardPlan,
};

struct TrackingAllocator;

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    let live = LIVE_BYTES.fetch_add(size as u64, Ordering::SeqCst) + size as u64;
    PEAK_BYTES.fetch_max(live, Ordering::SeqCst);
}

fn on_dealloc(size: usize) {
    LIVE_BYTES.fetch_sub(size as u64, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        new_ptr
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }
}

#[global_allocator]
static GLOBAL: TrackingAllocator = TrackingAllocator;

/// Resets the high-water mark to the current live level, runs `work`,
/// and returns the peak *additional* live bytes it reached.
fn measure_peak<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let baseline = LIVE_BYTES.load(Ordering::SeqCst);
    PEAK_BYTES.store(baseline, Ordering::SeqCst);
    let result = work();
    let peak = PEAK_BYTES.load(Ordering::SeqCst).saturating_sub(baseline);
    (peak, result)
}

#[test]
fn streamed_peak_memory_is_bounded_by_one_shard() {
    let config = FleetConfig::new(RegionConfig::region_1().scaled(0.06), 2018);
    let policy = RecoveryPolicy;
    const SHARDS: usize = 8;
    let plan = ShardPlan::new(config.region.subscription_count, SHARDS);
    assert_eq!(plan.shard_count(), SHARDS, "population must fill the plan");

    // Materialized reference: the whole region's events live at once.
    let (materialized_peak, reference) =
        measure_peak(|| materialized_pipeline(&config, None, &policy));
    let total_databases = reference.fleet.databases.len();
    drop(reference);

    // Streamed: one shard at a time, each result dropped before the
    // next shard is generated. Only counters survive an iteration.
    let (streamed_peak, streamed_databases) = measure_peak(|| {
        let mut databases = 0usize;
        for shard in 0..plan.shard_count() {
            let result = run_shard(&config, &plan, shard, 4, None, &policy);
            databases += result.fleet.databases.len();
        }
        databases
    });

    assert_eq!(
        streamed_databases, total_databases,
        "both paths must see the same fleet"
    );
    assert!(
        materialized_peak > 0 && streamed_peak > 0,
        "the tracking allocator must observe both runs"
    );
    assert!(
        streamed_peak * 2 <= materialized_peak,
        "streaming over {SHARDS} shards must peak at well under half the \
         materialized pipeline's live bytes: streamed {streamed_peak} vs \
         materialized {materialized_peak}"
    );
}
