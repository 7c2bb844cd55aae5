#![warn(missing_docs)]

//! Deterministic seed fan-out for the SINR coloring workspace.
//!
//! Slots are synchronous (§II of the paper): a slot's receptions depend on
//! that slot's whole transmitter set, so every slot waits for the one
//! before it and a coloring run is single-threaded. The only independent
//! unit of work is a whole run, one per seed, and [`Pool::par_seeds`]
//! spreads those across threads. Every parallel code path in the
//! workspace runs here and nowhere else (`cargo xtask lint` rule L6 bans
//! `std::thread` / `std::sync` outside this crate). The fan-out is
//! **bit-identical** to a sequential loop:
//!
//! * **Static partitioning, no work stealing.** Work of size `len` is split
//!   into at most `threads` contiguous chunks, a pure function of
//!   `(len, threads)`. Which thread computes which items never depends on
//!   timing.
//! * **Chunk-ordered merge.** [`Pool::map_indexed`] concatenates the
//!   chunks' outputs in chunk order, so results come back in index order
//!   whatever order the threads finish in.
//! * **No hidden concurrency.** At one thread everything runs inline on
//!   the caller's stack and no thread is spawned.
//!
//! Workers are scoped threads spawned per call and joined before the call
//! returns, so no thread outlives the borrows it was handed. A spawn
//! costs microseconds, and each call fans out whole runs.
//!
//! Thread count is explicit: binaries pass `--threads` or read the
//! `SINR_THREADS` environment variable (see [`Pool::from_env`] and
//! [`global`]).
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
use std::sync::OnceLock;
use std::thread::{Builder, ScopedJoinHandle};

/// The contiguous index range worked on by chunk `t` out of `threads`
/// when `len` items are statically partitioned.
///
/// Pure function: chunks are contiguous, ascending, cover `0..len` exactly,
/// and differ in size by at most one item.
fn chunk_range(len: usize, threads: usize, t: usize) -> Range<usize> {
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

/// A deterministic fan-out of independent work over scoped threads (see
/// the crate docs). It is only a thread count: each call spawns its own
/// workers and joins them before returning.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// Creates a pool of `threads` total threads, the caller's included
    /// (`0` means 1). A call whose worker fails to spawn runs that chunk
    /// on the caller instead, with the same result.
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
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
        self.threads
    }

    /// Maps `f` over `0..len` and returns the results in index order,
    /// regardless of thread count or completion order.
    ///
    /// Chunk 0 runs on the calling thread and chunks `1..` on scoped
    /// workers. If any chunk panics, the first panicking chunk's payload
    /// is re-raised on the calling thread once every worker has joined.
    pub fn map_indexed<T: Send>(&self, len: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let threads = self.threads.min(len);
        if threads <= 1 {
            return (0..len).map(f).collect();
        }
        let run = |range: Range<usize>| range.map(&f).collect::<Vec<T>>();
        let chunks = std::thread::scope(|scope| {
            // A worker that fails to spawn hands its range back, and that
            // chunk runs on the caller when its turn in the merge comes.
            let workers: Vec<Result<ScopedJoinHandle<'_, Vec<T>>, Range<usize>>> = (1..threads)
                .map(|t| {
                    let range = chunk_range(len, threads, t);
                    let chunk = range.clone();
                    Builder::new()
                        .name(format!("sinr-pool-{t}"))
                        .spawn_scoped(scope, move || run(chunk))
                        .map_err(|_| range)
                })
                .collect();
            let mut chunks = Vec::with_capacity(threads);
            chunks.push(catch_unwind(AssertUnwindSafe(|| {
                run(chunk_range(len, threads, 0))
            })));
            for worker in workers {
                chunks.push(match worker {
                    Ok(handle) => handle.join(),
                    Err(range) => catch_unwind(AssertUnwindSafe(|| run(range))),
                });
            }
            chunks
        });
        let mut out = Vec::with_capacity(len);
        for chunk in chunks {
            match chunk {
                Ok(mut items) => out.append(&mut items),
                Err(payload) => resume_unwind(payload),
            }
        }
        out
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
    use std::sync::atomic::AtomicU64;

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
    fn one_thread_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        let caller = std::thread::current().id();
        let seen = pool.map_indexed(5, |i| (i, std::thread::current().id()));
        for (i, (index, thread)) in seen.into_iter().enumerate() {
            assert_eq!(index, i);
            assert_eq!(thread, caller, "index {i}");
        }
    }

    #[test]
    fn map_indexed_calls_every_index_once() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicU64> = (0..41).map(|_| AtomicU64::new(0)).collect();
        for _ in 0..50 {
            pool.map_indexed(hits.len(), |i| hits[i].fetch_add(1, Ordering::SeqCst));
        }
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 50, "index {i}");
        }
    }

    #[test]
    fn map_indexed_is_order_deterministic() {
        // 97 items split unevenly; 3 items leave most of 8 threads idle;
        // a single item runs inline.
        for len in [97usize, 3, 1] {
            let expected: Vec<usize> = (0..len).map(|i| i * 3 + 1).collect();
            for threads in [1, 2, 3, 4, 8] {
                let pool = Pool::new(threads);
                assert_eq!(
                    pool.map_indexed(len, |i| i * 3 + 1),
                    expected,
                    "len {len} threads {threads}"
                );
            }
        }
        // Reusing one pool across calls is fine too.
        let pool = Pool::new(3);
        let expected: Vec<usize> = (0..97).map(|i| i * 3 + 1).collect();
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
    fn empty_work_is_a_no_op() {
        let pool = Pool::new(2);
        let out: Vec<()> = pool.map_indexed(0, |_| unreachable!("no calls for empty work"));
        assert!(out.is_empty());
    }

    #[test]
    fn worker_panic_reaches_the_caller_with_its_payload() {
        let pool = Pool::new(2);
        // Index 7 of 10 lies in chunk 1, which runs on the worker.
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map_indexed(10, |i| {
                if i == 7 {
                    panic!("worker boom");
                }
                i
            })
        }));
        let payload = result.expect_err("the worker's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker boom"));
        // The pool keeps working after a panicked call.
        let sum: usize = pool.map_indexed(10, |i| i).iter().sum();
        assert_eq!(sum, 45);
    }

    #[test]
    fn degenerate_sizes_clamp_to_one_thread() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert_eq!(Pool::new(1).threads(), 1);
    }

    #[test]
    fn threads_from_env_defaults_to_one() {
        // The variable is not set in the test environment.
        if std::env::var("SINR_THREADS").is_err() {
            assert_eq!(threads_from_env(), 1);
        }
    }
}
