#![warn(missing_docs)]

//! Deterministic multi-core execution for the SINR coloring workspace.
//!
//! Every parallel code path in the workspace — the SINR resolvers'
//! candidate chunking and the experiment driver's seed fan-out — runs on
//! the [`Pool`] defined here, and nowhere else (`cargo xtask lint` rule
//! L6 bans `std::thread` / `std::sync` outside this crate). The pool is
//! designed so that parallel runs are **bit-identical** to sequential
//! ones:
//!
//! * **Static partitioning, no work stealing.** Work of size `len` is split
//!   into at most `threads` contiguous chunks by [`chunk_range`], a pure
//!   function of `(len, threads, t)`. Which thread computes which items
//!   never depends on timing.
//! * **Chunk-ordered merges.** Callers combine per-chunk outputs in chunk
//!   index order (see [`Pool::map_indexed`] and the per-chunk scratch type
//!   [`PerThread`]), so merged results are independent of completion order.
//! * **No hidden concurrency.** A pool with one thread executes everything
//!   inline on the caller's stack — no worker threads are spawned, no
//!   synchronization is performed, so `threads = 1` through the pool is the
//!   pre-pool sequential path.
//!
//! Thread count is explicit: binaries pass `--threads` or read the
//! `SINR_THREADS` environment variable (see [`Pool::from_env`] and
//! [`global`]); libraries default to [`Pool::sequential`].
//!
//! # Example
//!
//! ```
//! use sinr_pool::Pool;
//!
//! let pool = Pool::new(4);
//! let squares = pool.map_indexed(10, |i| i * i);
//! assert_eq!(squares[3], 9); // same result for any thread count
//! ```

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

mod per_thread;

pub use per_thread::PerThread;

/// The contiguous index range worked on by thread `t` out of `threads`
/// when `len` items are statically partitioned.
///
/// Pure function: chunks are contiguous, ascending, cover `0..len` exactly,
/// and differ in size by at most one item. Every parallel construct in this
/// crate partitions with this function, so "which thread owns item `i`" is
/// deterministic.
pub fn chunk_range(len: usize, threads: usize, t: usize) -> Range<usize> {
    let threads = threads.max(1);
    if t >= threads {
        return len..len;
    }
    let base = len / threads;
    let rem = len % threads;
    let start = t * base + t.min(rem);
    let size = base + usize::from(t < rem);
    start..(start + size).min(len)
}

/// A raw pointer that may cross thread boundaries. Safety rests on the
/// pool's static partitioning: distinct threads only ever touch disjoint
/// chunks behind the pointer, and [`Pool::broadcast`] does not return until
/// every worker has finished.
#[derive(Clone, Copy)]
struct AcrossThreads<T>(T);
unsafe impl<T> Send for AcrossThreads<T> {}
unsafe impl<T> Sync for AcrossThreads<T> {}

impl<T: Copy> AcrossThreads<T> {
    /// Reads the wrapped value. Going through a method (rather than field
    /// access) makes closures capture the whole `Sync` wrapper instead of
    /// the raw pointer inside it.
    fn get(&self) -> T {
        self.0
    }
}

/// A lifetime-erased borrow of the closure being broadcast. Valid only
/// while the originating [`Pool::broadcast`] call is on the stack — the
/// call waits for all workers before returning, upholding the borrow.
type JobPtr = AcrossThreads<*const (dyn Fn(usize) + Sync)>;

struct JobState {
    /// Bumped once per broadcast; workers run each epoch exactly once.
    epoch: u64,
    job: Option<JobPtr>,
    /// Workers still running the current epoch's job.
    remaining: usize,
    /// The first panic payload captured from any thread this epoch.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<JobState>,
    /// Signalled when a new epoch begins (or on shutdown).
    start: Condvar,
    /// Signalled when the last worker of an epoch finishes.
    done: Condvar,
}

/// Locks a mutex, recovering the guard from a poisoned lock (a worker
/// panic must not cascade into an abort; the payload is re-raised on the
/// caller's thread by `broadcast` instead).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break st.job;
                }
                st = wait(&shared.start, st);
            }
        };
        let outcome = job.map(|job| {
            // Safety: `broadcast` keeps the closure alive until every
            // worker has reported back below.
            let f = unsafe { &*job.0 };
            catch_unwind(AssertUnwindSafe(|| f(index)))
        });
        let mut st = lock(&shared.state);
        if let Some(Err(payload)) = outcome {
            st.panic.get_or_insert(payload);
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

struct Workers {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Drop for Workers {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
        }
        self.shared.start.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

struct Inner {
    /// Total thread count including the caller's thread (workers + 1).
    threads: usize,
    /// `None` when `threads == 1`: everything runs inline.
    workers: Option<Workers>,
}

/// A deterministic scoped-broadcast worker pool (see the crate docs).
///
/// Cheap to clone: clones share the same worker threads. Workers are
/// parked between broadcasts and joined when the last clone is dropped.
#[derive(Clone)]
pub struct Pool {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::sequential()
    }
}

impl Pool {
    /// The inline pool: one thread, no workers, no synchronization.
    pub fn sequential() -> Pool {
        Pool {
            inner: Arc::new(Inner {
                threads: 1,
                workers: None,
            }),
        }
    }

    /// Creates a pool of `threads` total threads (the caller's thread plus
    /// `threads - 1` parked workers). `threads <= 1` — or a failure to
    /// spawn every worker — degrades gracefully toward [`Pool::sequential`]:
    /// the pool uses however many threads it actually has.
    pub fn new(threads: usize) -> Pool {
        if threads <= 1 {
            return Pool::sequential();
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(JobState {
                epoch: 0,
                job: None,
                remaining: 0,
                panic: None,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(threads - 1);
        for index in 1..threads {
            let shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("sinr-pool-{index}"))
                .spawn(move || worker_loop(&shared, index));
            match spawned {
                Ok(handle) => handles.push(handle),
                // Out of threads: run with what we got. Chunk assignment
                // only depends on the *final* thread count, so this stays
                // deterministic for a given realized pool size.
                Err(_) => break,
            }
        }
        if handles.is_empty() {
            return Pool::sequential();
        }
        let threads = handles.len() + 1;
        Pool {
            inner: Arc::new(Inner {
                threads,
                workers: Some(Workers { shared, handles }),
            }),
        }
    }

    /// Creates a pool sized by the `SINR_THREADS` environment variable
    /// (missing, empty, or unparsable values mean 1 — parallelism is
    /// strictly opt-in).
    pub fn from_env() -> Pool {
        Pool::new(threads_from_env())
    }

    /// Total thread count, including the calling thread.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Runs `f(t)` for every thread index `t in 0..threads`, concurrently,
    /// and returns once all calls have completed. `f(0)` runs on the
    /// calling thread. With one thread this is exactly `f(0)` inline.
    ///
    /// If any invocation panics, the first captured payload is re-raised
    /// on the calling thread — after every worker has finished, so borrows
    /// held by `f` stay valid for as long as any thread can touch them.
    pub fn broadcast(&self, f: &(dyn Fn(usize) + Sync)) {
        let Some(workers) = &self.inner.workers else {
            f(0);
            return;
        };
        let shared = &workers.shared;
        {
            let mut st = lock(&shared.state);
            // Safety: the erased borrow outlives this call, and this call
            // does not return until `remaining == 0` below.
            st.job = Some(AcrossThreads(unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(f as *const _)
            }));
            st.epoch = st.epoch.wrapping_add(1);
            st.remaining = self.inner.threads - 1;
            shared.start.notify_all();
        }
        let main_outcome = catch_unwind(AssertUnwindSafe(|| f(0)));
        let payload = {
            let mut st = lock(&shared.state);
            while st.remaining > 0 {
                st = wait(&shared.done, st);
            }
            st.job = None;
            st.panic.take()
        };
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
        if let Err(payload) = main_outcome {
            resume_unwind(payload);
        }
    }

    /// Statically partitions `0..len` with [`chunk_range`] and runs
    /// `f(t, range)` concurrently for every non-empty chunk.
    pub fn run_chunks(&self, len: usize, f: impl Fn(usize, Range<usize>) + Sync) {
        if len == 0 {
            return;
        }
        if self.threads() == 1 {
            f(0, 0..len);
            return;
        }
        let threads = self.threads();
        self.broadcast(&|t| {
            let range = chunk_range(len, threads, t);
            if !range.is_empty() {
                f(t, range);
            }
        });
    }

    /// Splits `data` into the pool's static chunks and runs
    /// `f(t, chunk_start, chunk)` concurrently on each. The chunk starting
    /// at index `chunk_start` is exactly `chunk_range(len, threads, t)`.
    pub fn chunks_mut<T: Send>(&self, data: &mut [T], f: impl Fn(usize, usize, &mut [T]) + Sync) {
        let len = data.len();
        let base = AcrossThreads(data.as_mut_ptr());
        self.run_chunks(len, |t, range| {
            // Safety: `chunk_range` yields disjoint ranges for distinct
            // `t`, `run_chunks` invokes each `t` at most once per call,
            // and `data` is mutably borrowed for the whole call.
            let chunk =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(range.start), range.len()) };
            f(t, range.start, chunk);
        });
    }

    /// Maps `f` over `0..len` on the pool and returns the results in index
    /// order, regardless of thread count or completion order.
    pub fn map_indexed<T: Send>(&self, len: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let mut out: Vec<Option<T>> = (0..len).map(|_| None).collect();
        self.chunks_mut(&mut out, |_t, start, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = Some(f(start + i));
            }
        });
        // Every index 0..len was visited exactly once above.
        let collected: Vec<T> = out.into_iter().flatten().collect();
        debug_assert_eq!(collected.len(), len);
        collected
    }

    /// Runs `f` once per seed in `seeds` on the pool and returns the
    /// results in ascending seed order, regardless of thread count or
    /// completion order.
    ///
    /// This is the batched fan-out primitive for multi-seed experiments:
    /// callers amortize per-instance setup (placement, grid construction,
    /// parameter derivation) outside the closure and let the pool spread
    /// the per-seed runs. Because the merge is index-ordered, the
    /// concatenated output is byte-identical to a sequential
    /// `for seed in seeds` loop at any thread count.
    pub fn par_seeds<T: Send>(
        &self,
        seeds: std::ops::Range<u64>,
        f: impl Fn(u64) -> T + Sync,
    ) -> Vec<T> {
        let start = seeds.start;
        // Saturation is fine: a seed range near usize::MAX is unrunnable
        // anyway, and truncating would silently drop seeds.
        let len = usize::try_from(seeds.end.saturating_sub(start)).unwrap_or(usize::MAX);
        self.map_indexed(len, |i| f(start + i as u64))
    }
}

/// Parses the `SINR_THREADS` environment variable (default 1; parallelism
/// is strictly opt-in so unconfigured runs take the sequential path).
pub fn threads_from_env() -> usize {
    std::env::var("SINR_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(1)
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();
static GLOBAL_REQUESTED: AtomicUsize = AtomicUsize::new(0);

/// The process-wide pool used by the experiment driver's seed-parallel
/// helpers. Initialized on first use from [`set_global_threads`] if it was
/// called, else from `SINR_THREADS` (default 1, i.e. sequential).
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| {
        let requested = GLOBAL_REQUESTED.load(Ordering::SeqCst);
        if requested >= 1 {
            Pool::new(requested)
        } else {
            Pool::from_env()
        }
    })
}

/// Requests a thread count for the [`global`] pool (e.g. from a
/// `--threads` flag). Must be called before the first [`global`] use;
/// returns `false` if the global pool was already built with a different
/// size — callers should report that the flag came too late rather than
/// silently proceed.
pub fn set_global_threads(threads: usize) -> bool {
    let threads = threads.max(1);
    GLOBAL_REQUESTED.store(threads, Ordering::SeqCst);
    match GLOBAL.get() {
        Some(pool) => pool.threads() == threads,
        None => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn chunk_ranges_partition_exactly() {
        for &(len, threads) in &[(0usize, 4usize), (1, 4), (7, 3), (16, 4), (5, 8), (100, 7)] {
            let mut covered = Vec::new();
            for t in 0..threads {
                let r = chunk_range(len, threads, t);
                assert!(
                    r.start <= r.end && r.end <= len,
                    "len {len} threads {threads} t {t}"
                );
                covered.extend(r);
            }
            assert_eq!(
                covered,
                (0..len).collect::<Vec<_>>(),
                "len {len} threads {threads}"
            );
            // Balanced: sizes differ by at most one.
            let sizes: Vec<usize> = (0..threads)
                .map(|t| chunk_range(len, threads, t).len())
                .collect();
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "unbalanced: {sizes:?}");
        }
    }

    #[test]
    fn sequential_pool_runs_inline() {
        let pool = Pool::sequential();
        assert_eq!(pool.threads(), 1);
        let caller = std::thread::current().id();
        pool.broadcast(&|t| {
            assert_eq!(t, 0);
            assert_eq!(std::thread::current().id(), caller);
        });
    }

    #[test]
    fn broadcast_runs_every_thread_index_once() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicU64> = (0..pool.threads()).map(|_| AtomicU64::new(0)).collect();
        for _ in 0..50 {
            pool.broadcast(&|t| {
                hits[t].fetch_add(1, Ordering::SeqCst);
            });
        }
        for (t, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 50, "thread {t}");
        }
    }

    #[test]
    fn map_indexed_is_order_deterministic() {
        let expected: Vec<usize> = (0..97).map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 3, 4, 8] {
            let pool = Pool::new(threads);
            assert_eq!(
                pool.map_indexed(97, |i| i * 3 + 1),
                expected,
                "threads {threads}"
            );
        }
        // Reusing one pool across calls is fine too.
        let pool = Pool::new(3);
        for _ in 0..10 {
            assert_eq!(pool.map_indexed(97, |i| i * 3 + 1), expected);
        }
    }

    #[test]
    fn par_seeds_is_seed_ordered_at_any_thread_count() {
        let expected: Vec<u64> = (100..173).map(|s| s * 7).collect();
        for threads in [1, 2, 3, 4, 8] {
            let pool = Pool::new(threads);
            assert_eq!(
                pool.par_seeds(100..173, |s| s * 7),
                expected,
                "threads {threads}"
            );
        }
    }

    #[test]
    #[expect(
        clippy::reversed_empty_ranges,
        reason = "inverted range is the input under test"
    )]
    fn par_seeds_handles_empty_and_inverted_ranges() {
        let pool = Pool::new(2);
        assert!(pool.par_seeds(5..5, |s| s).is_empty());
        assert!(pool.par_seeds(9..3, |s| s).is_empty());
    }

    #[test]
    fn chunks_mut_sees_disjoint_chunks_with_correct_offsets() {
        let pool = Pool::new(4);
        let mut data = vec![0usize; 41];
        pool.chunks_mut(&mut data, |_t, start, chunk| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = start + i;
            }
        });
        assert_eq!(data, (0..41).collect::<Vec<_>>());
    }

    #[test]
    fn empty_work_is_a_no_op() {
        let pool = Pool::new(2);
        pool.run_chunks(0, |_, _| unreachable!("no chunks for empty work"));
        assert!(pool.map_indexed(0, |i| i).is_empty());
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(&|t| {
                if t == 1 {
                    panic!("worker boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool survives a panicked broadcast and keeps working.
        let sum: usize = pool.map_indexed(10, |i| i).iter().sum();
        assert_eq!(sum, 45);
    }

    #[test]
    fn degenerate_sizes_clamp_to_sequential() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert_eq!(Pool::new(1).threads(), 1);
        assert!(Pool::default().threads() == 1);
    }

    #[test]
    fn pool_clones_share_workers() {
        let pool = Pool::new(3);
        let clone = pool.clone();
        assert_eq!(clone.threads(), 3);
        let count = AtomicU64::new(0);
        clone.broadcast(&|_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn threads_from_env_defaults_to_one() {
        // The variable is not set in the test environment.
        if std::env::var("SINR_THREADS").is_err() {
            assert_eq!(threads_from_env(), 1);
        }
    }
}
