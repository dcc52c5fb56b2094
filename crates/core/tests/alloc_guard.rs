//! Zero-allocation guard for the fused store kernels (its own test
//! binary, since the allocator is process-global). Allocations are
//! counted per thread: the kernels under test run on the test's own
//! thread, and the test harness's threads allocate concurrently.
//!
//! Satellite of the tile-allocation bugfix: the old unaligned-`l`
//! `dot_chunk`/`axpy_chunk` arms allocated a decode tile on **every**
//! call — one heap round trip per column per chunk per
//! orthogonalization pass. The word-granular kernels decode straight
//! off the packed words; this guard pins that property for every bit
//! length.

use frsz2::{Frsz2Config, Frsz2Store};
use numfmt::ColumnStorage;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Heap allocations made by the current thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn wave(n: usize, seed: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = ((i + 31 * seed) as f64 * 0.37).sin();
            x * f64::powi(2.0, ((i * 7 + seed) % 40) as i32 - 20)
        })
        .collect()
}

/// After construction, NO fused kernel path may touch the heap — for
/// any bit length, aligned or not, full or ragged tail chunks.
#[test]
fn fused_kernels_never_allocate() {
    let rows = 1024 + 32; // several blocks plus a ragged boundary
    let k = 4;
    for l in [4u32, 8, 16, 21, 32, 64] {
        let mut st = Frsz2Store::with_config(Frsz2Config::new(32, l), rows, k);
        for j in 0..k {
            st.write_column(j, &wave(rows, j));
        }
        let w = wave(rows, 3);
        let mut wv = w.clone();
        let mut out = vec![0.0; k];
        let alphas = [0.5, 0.0, -2.0, 0.25];
        // Warmup, then measure.
        let _ = st.dot_chunk(0, 0, &w);
        let before = allocations();
        let mut sink = 0.0;
        for _ in 0..10 {
            sink += st.dot_chunk(1, 32, &w[..rows - 32]);
            st.axpy_chunk(2, 0, -0.75, &mut wv);
            st.dots_chunk(k, 0, &w, &mut out);
            st.gemv_chunk(k, 0, &alphas, &mut wv);
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "l={l}: fused kernels allocated {} times",
            after - before
        );
        assert!(sink.is_finite());

        // Compression is also tile-free: `write_column` performs no
        // heap allocation either (the rolling-register pack stages in
        // a fixed stack buffer). Same test body — a second #[test]
        // would race this one for the process-global counter.
        let before = allocations();
        for _ in 0..10 {
            st.write_column(0, &w);
        }
        let after = allocations();
        assert_eq!(after - before, 0, "l={l}: write_column allocated");
    }
}
