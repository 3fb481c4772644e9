//! The benchmark's own counting allocator.
//!
//! `fld_sim::prof::CountingAlloc` counts allocations but not frees, so it
//! cannot say how much heap is live. This one tracks calls, bytes
//! requested, live bytes and the live peak. The counters are
//! thread-local: the benchmark runs on one thread, and a thread-local
//! count lets parallel test threads each see only their own heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

/// System allocator wrapper that counts this thread's heap traffic.
#[derive(Debug, Default, Clone, Copy)]
pub struct BenchAlloc;

#[global_allocator]
static GLOBAL: BenchAlloc = BenchAlloc;

#[inline]
fn grew(bytes: u64) {
    // `try_with`: the allocator can be entered during thread teardown,
    // after the TLS slots are gone.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes));
    let live = LIVE
        .try_with(|c| {
            c.set(c.get() + bytes);
            c.get()
        })
        .unwrap_or(0);
    let _ = PEAK.try_with(|c| c.set(c.get().max(live)));
}

#[inline]
fn shrank(bytes: u64) {
    // Saturating: memory allocated on another thread may be freed here.
    let _ = LIVE.try_with(|c| c.set(c.get().saturating_sub(bytes)));
}

// SAFETY: every operation is delegated unchanged to `System`; the counter
// updates are `Cell` bumps that neither allocate nor panic.
unsafe impl GlobalAlloc for BenchAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as u64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size() as u64);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is one allocation of the new size and a free of the
        // old one, so `live` stays exact whether it grows or shrinks.
        shrank(layout.size() as u64);
        grew(new_size as u64);
        System.realloc(ptr, layout, new_size)
    }
}

/// This thread's heap counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapCounts {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes currently live.
    pub live: u64,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: u64,
}

/// Reads this thread's counters.
pub fn counts() -> HeapCounts {
    HeapCounts {
        allocs: CALLS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
        live: LIVE.with(Cell::get),
        peak: PEAK.with(Cell::get),
    }
}

/// Restarts peak tracking from the current live size.
pub fn reset_peak() {
    PEAK.with(|p| p.set(LIVE.with(Cell::get)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_live_and_peak() {
        reset_peak();
        let before = counts();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        let during = counts();
        assert_eq!(during.allocs - before.allocs, 1);
        assert_eq!(during.bytes - before.bytes, 1 << 20);
        assert_eq!(during.live - before.live, 1 << 20);
        drop(v);
        let after = counts();
        assert_eq!(after.live, before.live);
        assert!(after.peak >= before.live + (1 << 20));
        reset_peak();
        assert_eq!(counts().peak, counts().live);
    }
}
