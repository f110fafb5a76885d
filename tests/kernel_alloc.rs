//! `kernel_alloc` — counting-allocator proof that the kernel's hot
//! loop performs zero heap allocation.
//!
//! The scoring layer hoists every buffer (row tile, probability
//! accumulator, traversal cursors) into per-worker scratch that is
//! created once and reused across chunks; inside
//! `ForestKernel::score_tile_into`, the entry point that serves,
//! nothing may touch the allocator. A `#[global_allocator]` wrapper
//! counts `alloc`/`realloc` calls, and the test asserts the count does
//! not move across repeated kernel calls with warm scratch.
//!
//! This file holds exactly one `#[test]` so no sibling test can
//! allocate concurrently inside the measurement window.

use forest::flatkernel::ROW_TILE;
use forest::{ForestKernel, KernelScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn kernel_hot_loop_performs_zero_allocation() {
    // A real forest, large enough that a lazy implementation would
    // visibly allocate (per-leaf Vec, per-row gather, ...).
    let mut data = forest::Dataset::new((0..8).map(|f| format!("x{f}")).collect(), 2);
    for i in 0..240 {
        let row: Vec<f64> = (0..8)
            .map(|f| ((i * (2 * f + 3)) % 240) as f64 / 240.0)
            .collect();
        let label = (row[0] + 0.4 * row[1] > 0.65) as usize;
        data.push(row, label);
    }
    let params = forest::RandomForestParams {
        n_trees: 12,
        ..forest::RandomForestParams::default()
    };
    let model = forest::RandomForest::fit(&data, &params, 2018);
    let kernel = ForestKernel::from_forest(&model);

    // All buffers up front, exactly like the serving layer's
    // per-worker scratch: every feature-major tile is gathered before
    // the measurement window opens.
    let n = data.len();
    let nf = kernel.feature_count();
    let cc = kernel.class_count();
    let tiles: Vec<(Vec<f64>, usize)> = (0..n)
        .step_by(ROW_TILE)
        .map(|lo| {
            let len = ROW_TILE.min(n - lo);
            let mut tile = vec![0.0; nf * ROW_TILE];
            for f in 0..nf {
                tile[f * ROW_TILE..f * ROW_TILE + len]
                    .copy_from_slice(&data.column(f)[lo..lo + len]);
            }
            (tile, len)
        })
        .collect();
    let mut out = vec![0.0; ROW_TILE * cc];
    let mut scratch = KernelScratch::new();
    let mut score_all = |scratch: &mut KernelScratch| -> u64 {
        let mut steps = 0;
        for (tile, len) in &tiles {
            steps += kernel
                .score_tile_into(tile, *len, scratch, &mut out[..len * cc])
                .node_steps;
        }
        steps
    };

    // Warm-up pass (first-touch effects, lazy statics), then measure.
    let warm = score_all(&mut scratch);
    assert!(warm > 0, "fixture forest must have real depth");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..5 {
        score_all(&mut scratch);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "the kernel hot loop allocated {} times across {} rows",
        after - before,
        5 * n
    );
}
