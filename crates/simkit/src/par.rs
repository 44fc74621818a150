//! Deterministic build-time parallelism.
//!
//! Offline preparation work (graph synthesis, feature synthesis, page
//! serialization) is embarrassingly parallel *as long as the output
//! cannot observe the schedule*. This module provides the minimal
//! scaffolding for that discipline without pulling in a thread-pool
//! dependency: jobs are partitioned by **fixed, input-derived chunk
//! boundaries** (never by worker count), each job writes only its own
//! disjoint output region, and workers are plain `std::thread::scope`
//! threads taking the next index from a shared counter
//! ([`map_indexed`], which the experiment runners' `--jobs` use too).
//! The result is byte-identical at any thread count, including 1.
//!
//! Build-time loops take their worker count from [`build_threads`]:
//! the `BEACON_BUILD_THREADS` environment variable if set, otherwise
//! the host's available parallelism. [`set_build_threads`] overrides it
//! at runtime (used by benchmarks sweeping thread counts and by
//! determinism tests).
//!
//! # Examples
//!
//! ```
//! use simkit::par;
//!
//! let mut data = vec![0u64; 10_000];
//! par::for_each_chunk_mut(&mut data, 1024, |start, chunk| {
//!     for (i, v) in chunk.iter_mut().enumerate() {
//!         *v = (start + i) as u64 * 3;
//!     }
//! });
//! assert_eq!(data[7777], 7777 * 3);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// 0 means "not yet resolved"; resolution happens lazily on first use
/// so `set_build_threads` can win over the environment when called
/// before any parallel work runs.
static BUILD_THREADS: AtomicUsize = AtomicUsize::new(0);

/// The number of worker threads build-time parallel loops use.
///
/// Resolution order: a prior [`set_build_threads`] call, else the
/// `BEACON_BUILD_THREADS` environment variable (must parse to ≥ 1),
/// else the host's available parallelism. Never less than 1.
pub fn build_threads() -> usize {
    let v = BUILD_THREADS.load(Ordering::Relaxed);
    if v != 0 {
        return v;
    }
    let n = resolve_default();
    // Benign race: concurrent first calls resolve to the same value.
    BUILD_THREADS.store(n, Ordering::Relaxed);
    n
}

fn resolve_default() -> usize {
    if let Ok(s) = std::env::var("BEACON_BUILD_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Sets the worker count for subsequent build-time parallel loops
/// (clamped to ≥ 1). Output never depends on this value — only
/// wall-clock time does.
pub fn set_build_threads(n: usize) {
    BUILD_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Runs every job, on [`build_threads`] scoped workers when that pays.
///
/// Jobs must be independent: each may only touch state it owns (moved
/// captures or disjoint `&mut` regions). With one worker (or one job)
/// everything runs inline on the caller's thread, in order — the
/// sequential reference the parallel schedule is tested against.
///
/// # Panics
///
/// Propagates a panic from any job.
pub fn run_jobs<F>(jobs: Vec<F>)
where
    F: FnOnce() + Send,
{
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    map_indexed(
        build_threads(),
        jobs.len(),
        || (),
        |_, i| {
            let job = jobs[i].lock().expect("build job poisoned").take();
            job.expect("each job runs once")()
        },
    );
}

/// Computes `f(&mut state, i)` for every `i` in `0..n` on up to
/// `workers` scoped threads and returns the results in index order.
///
/// Each worker takes the next index from a shared counter, so one slow
/// index does not hold up a fixed stripe, and passes every index it
/// takes one `state` made by `init` (a reusable scratch). With one
/// worker, or at most one index, everything runs inline on the caller's
/// thread, in order.
///
/// # Panics
///
/// Re-raises a panic from `f` (or `init`) on the caller's thread.
pub fn map_indexed<S, T, I, F>(workers: usize, n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = workers.min(n);
    if workers <= 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    std::iter::from_fn(|| Some(next.fetch_add(1, Ordering::Relaxed)))
                        .take_while(|&i| i < n)
                        .map(|i| (i, f(&mut state, i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, v)| v).collect()
}

/// Splits `data` into fixed `chunk`-element pieces and applies `f` to
/// each, in parallel. `f` receives the chunk's starting element index
/// and the chunk itself; boundaries depend only on `chunk`, so results
/// are identical at any thread count.
///
/// # Panics
///
/// Panics if `chunk` is zero; propagates a panic from `f`.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let f = &f;
    let jobs: Vec<_> = data
        .chunks_mut(chunk)
        .enumerate()
        .map(|(i, piece)| move || f(i * chunk, piece))
        .collect();
    run_jobs(jobs);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_fill_matches_sequential_at_any_thread_count() {
        let expected: Vec<u64> = (0..5_000u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        for threads in [1, 2, 8] {
            set_build_threads(threads);
            let mut data = vec![0u64; 5_000];
            for_each_chunk_mut(&mut data, 333, |start, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = ((start + i) as u64).wrapping_mul(0x9E37);
                }
            });
            assert_eq!(data, expected, "threads={threads}");
        }
        set_build_threads(1);
    }

    #[test]
    fn run_jobs_executes_every_job_once() {
        use std::sync::atomic::AtomicU64;
        set_build_threads(4);
        let hits = AtomicU64::new(0);
        let jobs: Vec<_> = (0..100u64)
            .map(|i| {
                let hits = &hits;
                move || {
                    hits.fetch_add(i + 1, Ordering::Relaxed);
                }
            })
            .collect();
        run_jobs(jobs);
        assert_eq!(hits.load(Ordering::Relaxed), 100 * 101 / 2);
        set_build_threads(1);
    }

    #[test]
    fn empty_inputs_are_fine() {
        run_jobs(Vec::<fn()>::new());
        let mut empty: [u8; 0] = [];
        for_each_chunk_mut(&mut empty, 16, |_, _| panic!("no chunks expected"));
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        let mut data = [1u8];
        for_each_chunk_mut(&mut data, 0, |_, _| {});
    }

    #[test]
    fn empty_queue_under_multithread_setting_spawns_nothing() {
        // threads = min(build_threads, jobs) = 0 → the inline path; an
        // empty queue must return immediately even when the configured
        // worker count is large.
        set_build_threads(16);
        run_jobs(Vec::<fn()>::new());
        let mut empty: [u64; 0] = [];
        for_each_chunk_mut(&mut empty, 1, |_, _| panic!("no chunks expected"));
        set_build_threads(1);
    }

    #[test]
    fn single_thread_runs_inline_and_in_order() {
        use std::sync::atomic::AtomicUsize;
        set_build_threads(1);
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let inline_hits = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..8usize)
            .map(|i| {
                let order = &order;
                let inline_hits = &inline_hits;
                move || {
                    if std::thread::current().id() == caller {
                        inline_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    order.lock().unwrap().push(i);
                }
            })
            .collect();
        run_jobs(jobs);
        // Degenerate path: no workers; every job ran on the caller's
        // thread, in submission order.
        assert_eq!(inline_hits.load(Ordering::Relaxed), 8);
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn map_indexed_is_in_index_order_at_any_worker_count() {
        let expected: Vec<u64> = (0..50u64).map(|i| i * i).collect();
        for workers in [0, 1, 2, 8, 100] {
            let inits = AtomicUsize::new(0);
            let got = map_indexed(
                workers,
                50,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0u64
                },
                |served, i| {
                    *served += 1;
                    (i * i) as u64
                },
            );
            assert_eq!(got, expected, "workers={workers}");
            // One state per worker, never more workers than indices.
            assert!(inits.load(Ordering::Relaxed) <= workers.clamp(1, 50));
        }
        assert!(map_indexed(4, 0, || (), |_, i| i).is_empty());
    }

    #[test]
    fn map_indexed_runs_inline_with_one_worker() {
        let caller = std::thread::current().id();
        let threads = map_indexed(1, 4, || (), |_, _| std::thread::current().id());
        assert!(threads.iter().all(|&t| t == caller));
    }

    #[test]
    #[should_panic(expected = "index 3 failed")]
    fn map_indexed_re_raises_a_worker_panic() {
        map_indexed(
            2,
            6,
            || (),
            |_, i| {
                assert!(i != 3, "index {i} failed");
                i
            },
        );
    }

    #[test]
    fn chunk_larger_than_slice_yields_one_full_chunk() {
        for threads in [1, 4] {
            set_build_threads(threads);
            let mut data = [7u32; 5];
            let calls = Mutex::new(Vec::new());
            for_each_chunk_mut(&mut data, 100, |start, chunk| {
                calls.lock().unwrap().push((start, chunk.len()));
                for v in chunk.iter_mut() {
                    *v *= 2;
                }
            });
            // One call covering the whole (shorter-than-chunk) slice.
            assert_eq!(*calls.lock().unwrap(), vec![(0, 5)]);
            assert_eq!(data, [14; 5]);
        }
        set_build_threads(1);
    }
}
