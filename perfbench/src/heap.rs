//! Live heap bytes of the benchmark process, counted by its global
//! allocator.
//!
//! The peak resident set (`VmHWM`) of identical runs varies by up to 15%:
//! how much freed memory the C allocator keeps, and in which of its
//! per-thread arenas, depends on how the index's host threads interleave.
//! The peak of bytes held allocated does not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting live and peak bytes.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if now > PEAK.load(Relaxed) {
        PEAK.fetch_max(now, Relaxed);
    }
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size > layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// The most bytes held allocated at once so far, in MiB.
pub fn peak_mib() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live_bytes() -> usize {
        LIVE.load(Relaxed)
    }

    #[test]
    fn a_live_allocation_counts_until_freed() {
        const SIZE: usize = 64 << 20;
        let before = live_bytes();
        let mut v = vec![0u8; SIZE];
        v[SIZE - 1] = 1;
        assert!(live_bytes() >= before + SIZE / 2);
        assert!(peak_mib() * 1024.0 * 1024.0 >= SIZE as f64);
        drop(v);
        assert!(live_bytes() < before + SIZE / 2);
    }
}
