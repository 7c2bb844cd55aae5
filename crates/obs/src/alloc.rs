//! Heap-allocation accounting: [`CountingAlloc`], [`AllocSnapshot`],
//! [`AllocStats`] and the [`AllocScope`] guard.
//!
//! The deterministic artifacts measure *time* and *events*; this module
//! measures *bytes*. [`CountingAlloc`] is a transparent wrapper over
//! [`std::alloc::System`] that counts every allocation, deallocation and
//! reallocation. It is installed as the `#[global_allocator]` **only in
//! binary, test and bench crates** (enforced by lint L10) — library
//! crates stay allocator-agnostic, and a build without the wrapper simply
//! reads zeros from every counter.
//!
//! Counting is thread-aware: allocation/free counts and byte totals are
//! kept in thread-local cells, so a [`snapshot`] taken on the driver
//! thread measures exactly that thread's traffic (the fused sequential
//! engine runs entirely on it). The heap high-water mark is global — a
//! pair of process-wide atomics — because liveness is a whole-process
//! property. Reading a counter never allocates and never touches any
//! RNG, ordering, or control flow, so profiling cannot perturb a
//! deterministic run; `tests/thread_determinism.rs` pins this.
//!
//! This module and the `#[global_allocator]` installation sites are the
//! single sanctioned home of `std::alloc` in the workspace (lint L10),
//! and the counter cells are the sanctioned `std::sync::atomic` use
//! outside `crates/pool` (allowlisted for L6). The `unsafe` impl below is
//! one of the workspace's two unsafe sites, beside the cache hint of
//! `sinr_radiosim::prefetch`: it forwards verbatim to `System` and
//! touches nothing but `Cell`s and atomics, which cannot recurse into the
//! allocator (the thread-locals are const-initialized).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::recorder::Recorder;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
    static BYTES_ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static BYTES_FREED: Cell<u64> = const { Cell::new(0) };
}

/// Live heap bytes across the whole process (allocated − freed).
static HEAP_CURRENT: AtomicU64 = AtomicU64::new(0);
/// Largest value `HEAP_CURRENT` ever reached.
static HEAP_PEAK: AtomicU64 = AtomicU64::new(0);

/// Counting wrapper over the system allocator.
///
/// Install it in a binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: sinr_obs::alloc::CountingAlloc = sinr_obs::alloc::CountingAlloc;
/// ```
pub struct CountingAlloc;

impl CountingAlloc {
    fn on_alloc(size: usize) {
        let size = size as u64;
        ALLOCS.with(|c| c.set(c.get().wrapping_add(1)));
        BYTES_ALLOCATED.with(|c| c.set(c.get().wrapping_add(size)));
        let live = HEAP_CURRENT.fetch_add(size, Ordering::Relaxed) + size;
        HEAP_PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn on_free(size: usize) {
        let size = size as u64;
        FREES.with(|c| c.set(c.get().wrapping_add(1)));
        BYTES_FREED.with(|c| c.set(c.get().wrapping_add(size)));
        HEAP_CURRENT.fetch_sub(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the added bookkeeping touches only const-init
// thread-local `Cell`s and relaxed atomics, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::on_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // A grow/shrink is one free of the old block plus one
            // allocation of the new one: realloc'd bytes are real memory
            // traffic even when the block is resized in place.
            Self::on_free(layout.size());
            Self::on_alloc(new_size);
        }
        p
    }
}

/// A point-in-time reading of the calling thread's allocation counters.
///
/// Snapshots are meaningful as *differences*: subtract two to get the
/// traffic between them (see [`AllocStats::add_span`]). All zeros when
/// [`CountingAlloc`] is not installed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation events observed on this thread so far.
    pub allocs: u64,
    /// Deallocation events observed on this thread so far.
    pub frees: u64,
    /// Bytes allocated on this thread so far.
    pub bytes_allocated: u64,
    /// Bytes freed on this thread so far.
    pub bytes_freed: u64,
}

/// Reads the calling thread's allocation counters. Never allocates.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.with(Cell::get),
        frees: FREES.with(Cell::get),
        bytes_allocated: BYTES_ALLOCATED.with(Cell::get),
        bytes_freed: BYTES_FREED.with(Cell::get),
    }
}

/// Heap high-water mark in bytes across the whole process.
pub fn heap_peak() -> u64 {
    HEAP_PEAK.load(Ordering::Relaxed)
}

/// Whether [`CountingAlloc`] is actually installed as the process's
/// global allocator, detected by performing a probe allocation and
/// checking the counters moved. Profile emitters use this to mark
/// all-zero reports as *uninstrumented* rather than allocation-free.
pub fn is_counting() -> bool {
    let before = snapshot();
    std::hint::black_box(Vec::<u8>::with_capacity(16));
    snapshot().allocs != before.allocs
}

/// Accumulated allocation traffic attributed to one scope (an engine
/// phase, the MW setup, a user-chosen region). Deltas are added with
/// [`AllocStats::add_span`] or via the [`AllocScope`] guard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocation events attributed to this scope.
    pub allocs: u64,
    /// Deallocation events attributed to this scope.
    pub frees: u64,
    /// Bytes allocated in this scope.
    pub bytes_allocated: u64,
    /// Bytes freed in this scope.
    pub bytes_freed: u64,
}

impl AllocStats {
    /// An empty accumulator.
    pub const fn new() -> Self {
        AllocStats {
            allocs: 0,
            frees: 0,
            bytes_allocated: 0,
            bytes_freed: 0,
        }
    }

    /// Adds the traffic between two snapshots of the same thread.
    pub fn add_span(&mut self, start: AllocSnapshot, end: AllocSnapshot) {
        self.allocs += end.allocs.wrapping_sub(start.allocs);
        self.frees += end.frees.wrapping_sub(start.frees);
        self.bytes_allocated += end.bytes_allocated.wrapping_sub(start.bytes_allocated);
        self.bytes_freed += end.bytes_freed.wrapping_sub(start.bytes_freed);
    }

    /// Folds another accumulator into this one.
    pub fn merge(&mut self, other: &AllocStats) {
        self.allocs += other.allocs;
        self.frees += other.frees;
        self.bytes_allocated += other.bytes_allocated;
        self.bytes_freed += other.bytes_freed;
    }

    /// Exports the four counters into a recorder under the given key set
    /// (the `prof.alloc.*` constants in [`crate::keys`]). Feed this only
    /// to profile sinks — never to the recorder of a deterministic run,
    /// whose artifacts must not depend on allocator behavior.
    pub fn export_into(&self, rec: &mut dyn Recorder, keys: &AllocKeySet) {
        rec.counter_add(keys.allocs, self.allocs);
        rec.counter_add(keys.frees, self.frees);
        rec.counter_add(keys.bytes_allocated, self.bytes_allocated);
        rec.counter_add(keys.bytes_freed, self.bytes_freed);
    }
}

/// The four `prof.alloc.<scope>.*` key names one [`AllocStats`] exports
/// under; predefined sets live in [`crate::keys`].
#[derive(Debug, Clone, Copy)]
pub struct AllocKeySet {
    /// Key for the allocation-event count.
    pub allocs: &'static str,
    /// Key for the deallocation-event count.
    pub frees: &'static str,
    /// Key for bytes allocated.
    pub bytes_allocated: &'static str,
    /// Key for bytes freed.
    pub bytes_freed: &'static str,
}

/// RAII guard attributing all allocation traffic on the current thread
/// between construction and drop to one [`AllocStats`] accumulator.
///
/// ```ignore
/// let mut setup = AllocStats::new();
/// {
///     let _scope = AllocScope::new(&mut setup);
///     let nodes: Vec<MwNode> = build_nodes();
/// }
/// // `setup` now holds the construction traffic.
/// ```
pub struct AllocScope<'a> {
    stats: &'a mut AllocStats,
    start: AllocSnapshot,
}

impl<'a> AllocScope<'a> {
    /// Starts attributing this thread's traffic to `stats`.
    pub fn new(stats: &'a mut AllocStats) -> Self {
        AllocScope {
            stats,
            start: snapshot(),
        }
    }
}

impl Drop for AllocScope<'_> {
    fn drop(&mut self) {
        self.stats.add_span(self.start, snapshot());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NB: these tests do not install `CountingAlloc` (the obs lib stays
    // allocator-agnostic), so raw counters read zero; the arithmetic
    // around snapshots and accumulators is what is under test here. The
    // end-to-end counting behavior is pinned by `tests/alloc_profile.rs`
    // at workspace level, which does install the wrapper.

    #[test]
    fn snapshot_deltas_accumulate() {
        let mut stats = AllocStats::new();
        let a = AllocSnapshot {
            allocs: 10,
            frees: 4,
            bytes_allocated: 1000,
            bytes_freed: 300,
        };
        let b = AllocSnapshot {
            allocs: 13,
            frees: 9,
            bytes_allocated: 1500,
            bytes_freed: 900,
        };
        stats.add_span(a, b);
        stats.add_span(a, b);
        assert_eq!(
            stats,
            AllocStats {
                allocs: 6,
                frees: 10,
                bytes_allocated: 1000,
                bytes_freed: 1200,
            }
        );
    }

    #[test]
    fn merge_folds_counters() {
        let mut a = AllocStats {
            allocs: 1,
            frees: 2,
            bytes_allocated: 3,
            bytes_freed: 4,
        };
        let b = AllocStats {
            allocs: 10,
            frees: 20,
            bytes_allocated: 30,
            bytes_freed: 40,
        };
        a.merge(&b);
        assert_eq!(a.allocs, 11);
        assert_eq!(a.bytes_freed, 44);
    }

    #[test]
    fn scope_guard_attributes_on_drop() {
        let mut stats = AllocStats::new();
        {
            let _scope = AllocScope::new(&mut stats);
            // Without the wrapper installed the thread counters are
            // frozen, so the attributed delta is exactly zero.
        }
        assert_eq!(stats, AllocStats::new());
    }

    #[test]
    fn export_feeds_the_key_set() {
        let mut rec = crate::recorder::FullRecorder::new();
        let stats = AllocStats {
            allocs: 5,
            frees: 3,
            bytes_allocated: 640,
            bytes_freed: 128,
        };
        stats.export_into(&mut rec, &crate::keys::PROF_ALLOC_MW_SETUP);
        let reg = rec.registry();
        assert_eq!(
            reg.counter(crate::keys::PROF_ALLOC_MW_SETUP.allocs),
            Some(5)
        );
        assert_eq!(
            reg.counter(crate::keys::PROF_ALLOC_MW_SETUP.bytes_allocated),
            Some(640)
        );
    }
}
