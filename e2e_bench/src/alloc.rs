//! A counting global allocator: live bytes, their peak, and the number of
//! allocations, for `heap_peak_mb` and `core.allocs_per_window`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Wraps the system allocator and counts what passes through it. The
/// counters are statistics only and publish no other data, so every
/// access is `Relaxed`.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer, so `System`'s guarantees carry over unchanged; the counter
// updates touch no memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (that is, by
        // `System`) with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// The peak live heap since the last call, in bytes; the next interval
/// starts from the heap live now.
fn take_peak() -> usize {
    PEAK.swap(LIVE.load(Ordering::Relaxed), Ordering::Relaxed)
}

/// The peak live heap of each second of a measured phase. Its median is
/// the phase's typical peak: a rare transient spike, whose size depends
/// on thread timing, does not set it.
pub struct PeakSampler {
    next: Instant,
    peaks: Vec<usize>,
}

impl PeakSampler {
    pub fn start(seconds: u64) -> Self {
        take_peak();
        PeakSampler {
            next: Instant::now() + Duration::from_secs(1),
            peaks: Vec::with_capacity(seconds as usize + 1),
        }
    }

    /// Closes the current second once it has passed; call often.
    pub fn tick(&mut self, now: Instant) {
        if now >= self.next {
            self.peaks.push(take_peak());
            self.next += Duration::from_secs(1);
        }
    }

    /// Median per-second peak in MB (the last, partial second included).
    pub fn finish(mut self) -> f64 {
        self.peaks.push(take_peak());
        self.peaks.sort_unstable();
        self.peaks[self.peaks.len() / 2] as f64 / 1e6
    }
}

/// Allocations (including reallocations) since start.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
